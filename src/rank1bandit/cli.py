"""Command-line interface for instance generation, metrics, runs, and sweeps.

Exit codes are a stable contract: 0 on success, 1 for domain or runtime
errors (bad parameter values, missing files), 2 for usage errors (unknown
flags, missing required flags, malformed flag values).  Progress and
confirmations go to stderr; stdout carries only the metrics report.
"""

from __future__ import annotations

import argparse
import os
import sys

from rank1bandit.harness import ExperimentConfig, resolve_jobs, run_many, write_trace_csv
from rank1bandit.instances import compute_metrics, parse_instance_spec, save_instance
from rank1bandit.policies import POLICIES

_POLICY_NAMES = sorted(POLICIES)


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _check_out_dir(path: str) -> None:
    """Fail before any work if the directory that is to hold ``path`` is
    missing, or if ``path`` is itself a directory."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(f"cannot write {path}: no directory {parent}")
    if os.path.isdir(path):
        raise IsADirectoryError(f"cannot write {path}: it is a directory")


def cmd_gen_instance(args: argparse.Namespace) -> int:
    inst = parse_instance_spec(args.instance)
    _check_out_dir(args.out)
    save_instance(inst, args.out)
    _info(f"wrote {inst.K}x{inst.L} instance to {args.out}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    inst = parse_instance_spec(args.instance)
    m = compute_metrics(inst)
    for name, value in [
        ("K", inst.K),
        ("L", inst.L),
        ("best_row", m.best_row),
        ("best_col", m.best_col),
        ("best_value", m.best_value),
        ("mu", m.mu),
        ("p_max", m.p_max),
        ("gamma", m.gamma),
        ("min_row_gap", m.min_row_gap),
        ("min_col_gap", m.min_col_gap),
    ]:
        print(f"{name} = {value}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        instance=args.instance,
        policy=args.policy,
        horizon=args.horizon,
        runs=args.runs,
        master_seed=args.seed,
    )
    jobs = resolve_jobs(args.jobs)
    _check_out_dir(args.out)
    _info(f"running {args.policy} on {args.instance}: "
          f"horizon={args.horizon}, runs={args.runs}, seed={args.seed}")
    result = run_many(config, jobs=jobs)
    write_trace_csv(result, args.out)
    _info(f"final mean pseudo-regret {result.mean_pseudo_regret[-1]:.6g}; "
          f"wrote {args.out}")
    return 0


def _dedup_with_warning(values: list, label: str) -> list:
    seen: list = []
    for v in values:
        if v in seen:
            _info(f"warning: duplicate {label} {v} ignored")
        else:
            seen.append(v)
    return seen


def cmd_sweep(args: argparse.Namespace) -> int:
    sizes = _dedup_with_warning(args.sizes, "size")
    policies = _dedup_with_warning(args.policies, "policy")
    # every cell and the job count are checked before the directory or
    # any CSV is written
    specs = {size: f"needle:K={size},L={size},p={args.p},gap={args.gap}" for size in sizes}
    for spec in specs.values():
        parse_instance_spec(spec)
    cells = [
        (policy, size, ExperimentConfig(
            instance=specs[size],
            policy=policy,
            horizon=args.horizon,
            runs=args.runs,
            master_seed=args.seed,
        ))
        for policy in policies for size in sizes
    ]
    jobs = resolve_jobs(args.jobs)
    os.makedirs(args.out_dir, exist_ok=True)
    paths = [os.path.join(args.out_dir, f"{policy}_{size}x{size}.csv") for policy, size, _ in cells]
    for path in paths:
        _check_out_dir(path)
    for idx, ((policy, size, config), path) in enumerate(zip(cells, paths), start=1):
        _info(f"[{idx}/{len(cells)}] {policy} K=L={size}")
        result = run_many(config, jobs=jobs)
        write_trace_csv(result, path)
        _info(f"  wrote {path}")
    return 0


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _policy_list(text: str) -> list[str]:
    names = text.split(",")
    for name in names:
        if name not in POLICIES:
            raise argparse.ArgumentTypeError(
                f"unknown policy {name!r}; choose from {', '.join(_POLICY_NAMES)}"
            )
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rank1bandit",
        description="Simulate rank-1 Bernoulli bandit policies and report regret.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the instance every single-instance command takes
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument(
        "--instance", required=True,
        help="instance file path or inline spec such as "
             "needle:K=8,L=8,p=0.25,gap=0.5 or "
             "pbm-like:K=16,L=16,head_mass=0.85,decay=0.6",
    )

    gen = sub.add_parser(
        "gen-instance",
        parents=[instance],
        help="write an instance file",
        description="Build a rank-1 instance from a spec or file and write it to a file.",
    )
    gen.add_argument("--out", required=True, help="output instance file")
    gen.set_defaults(func=cmd_gen_instance)

    met = sub.add_parser(
        "metrics",
        parents=[instance],
        help="print hardness metrics of an instance",
        description="Print best pair, gaps, mu, p_max, and gamma as key-value lines.",
    )
    met.set_defaults(func=cmd_metrics)

    # the options every simulation takes, shared by run and sweep
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--horizon", type=int, required=True)
    runs.add_argument("--runs", type=int, default=20)
    runs.add_argument("--seed", type=int, default=0, help="master seed")
    runs.add_argument("--jobs", type=int, default=None,
                      help="worker processes (default: the logical processor count)")

    run = sub.add_parser(
        "run",
        parents=[instance, runs],
        help="run one policy on one instance and write a regret CSV",
        description="Run repeated seeded simulations and write the aggregate "
                    "regret trace as CSV.",
    )
    run.add_argument("--policy", choices=_POLICY_NAMES, required=True)
    run.add_argument("--out", required=True, help="output CSV path")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser(
        "sweep",
        parents=[runs],
        help="run a (policy, size) grid of needle experiments",
        description="Run every policy on square needle instances of every "
                    "size, writing {policy}_{K}x{L}.csv per cell.",
    )
    sweep.add_argument("--sizes", type=_int_list, required=True,
                       help="comma-separated K=L values, e.g. 8,16,32")
    sweep.add_argument("--policies", type=_policy_list, required=True,
                       help=f"comma-separated from: {', '.join(_POLICY_NAMES)}")
    sweep.add_argument("--p", type=float, default=0.25,
                       help="needle baseline mean (default 0.25)")
    sweep.add_argument("--gap", type=float, default=0.5,
                       help="needle gap (default 0.5)")
    sweep.add_argument("--out-dir", required=True, help="output directory")
    sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 after --help
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
