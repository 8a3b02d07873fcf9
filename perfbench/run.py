"""Benchmark of the rank1bandit simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src``).  With ``--trace 0`` the workload process (``child.py``) is
started again and again for ``S`` seconds, each time running every cell of
the workload through ``run_many`` and writing its CSVs; the end-to-end
metrics are the medians over those processes.  With ``--trace 1`` the
workload runs once untraced, then once in this process at jobs=1 with spans
around the package's public calls, and the fixed-size layer probes run;
the per-layer metrics come from those.  Either way the correctness checks
of ``checks.py`` run afterwards, outside every timed interval.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Output files go to
``perfbench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# fewest workload processes a timed run takes a median over
MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 150



def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _start(argv: list[str]) -> subprocess.Popen:
    # a session of its own, so a timeout can stop the pool workers too
    return subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=_child_env(), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(proc: subprocess.Popen) -> tuple[int, str, str]:
    try:
        out, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nstopped after {PROCESS_TIMEOUT_S} s"
    return proc.returncode, out, err


def run_workload_process(name: str, seed: int, out: Path) -> dict | None:
    """One workload process, timed from launch to exit; None if it failed."""
    t0 = _now()
    proc = _start([str(HERE / "child.py"), "--workload", name, "--seed", str(seed),
                   "--out", str(out), "--t0", repr(t0)])
    code, stdout, stderr = _finish(proc)
    wall = _now() - t0
    if code != 0:
        print(f"workload process failed with exit code {code}:\n{stderr}", file=sys.stderr)
        return None
    rec = json.loads(stdout.strip().splitlines()[-1])
    rec["wall_s"] = wall
    return rec


def _digest(out: Path, work) -> str:
    h = hashlib.sha256()
    for cell in work.cells:
        h.update((out / cell.csv_name).read_bytes())
    return h.hexdigest()


def measure(work, seed: int, seconds: int, out: Path) -> dict:
    """Rounds of one workload process and one pass over the KL grid, for
    ``seconds`` and at least MIN_PROCESSES rounds; only the processes are
    timed."""
    import checks as ck

    checks = ck.Checks()
    samples, digests = [], set()
    rounds = attempted = failed = 0
    start = _now()
    while rounds < MIN_PROCESSES or _now() - start < seconds:
        rounds += 1
        attempted += len(work.cells)
        rec = run_workload_process(work.name, seed, out)
        if rec is None:
            failed += len(work.cells)
        else:
            samples.append(rec)
            digests.add(_digest(out, work))
        kl_calls, kl_failed = ck.kl_round(checks)
        attempted += kl_calls
        failed += kl_failed
    if not samples:
        raise SystemExit("no workload process finished")

    checks.require(len(digests) == 1, "CSVs differ between identical workload processes")
    ck.common_checks(work, seed, out, checks)
    metrics = {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "steps_per_s": statistics.median(s["steps"] / s["run_many_s"] for s in samples),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    print(f"{work.name}: {rounds} rounds in {_now() - start:.1f} s")
    return {
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def traced(work, seed: int, out: Path) -> dict:
    import checks as ck
    import probes
    import rank1bandit.harness as harness
    from tracing import LAYERS, Tracer, span_cost

    checks = ck.Checks()
    base = run_workload_process(work.name, seed, out)
    if base is None:
        raise SystemExit("the untraced workload process failed")

    configs = [
        harness.ExperimentConfig(instance=c.instance, policy=c.policy, horizon=c.horizon,
                                 runs=c.runs, master_seed=seed)
        for c in work.cells
    ]
    # untraced jobs=1 baseline: each run timed on its own
    run_sum_s = 0.0
    for config in configs:
        for r in range(config.runs):
            t = time.perf_counter()
            harness.run_one(config, r)
            run_sum_s += time.perf_counter() - t

    tracer = Tracer()
    traced_out = out / "traced"
    traced_out.mkdir(parents=True, exist_ok=True)
    results = []
    traced_runs = bad = 0
    bests = [harness.compute_metrics(harness.parse_instance_spec(c.instance)) for c in work.cells]
    with tracer.installed():
        for cell, config, best in zip(work.cells, configs, bests):
            result = harness.run_many(config, jobs=1)
            harness.write_trace_csv(result, traced_out / cell.csv_name)
            results.append(result)
            # between spans, so untimed; each cell's policies are let go
            # here, as at 1024x1024 they hold O(K*L) tables
            for policy in tracer.policies:
                traced_runs += 1
                bad += not ck.best_survived(policy, best.best_row, best.best_col)
                if hasattr(policy, "stage"):
                    checks.require(policy.stage >= work.min_stage,
                                   f"{policy.name} ended at stage {policy.stage}, below {work.min_stage}")
            tracer.policies.clear()
    leak = span_cost()
    summary = tracer.summary(leak)
    tracer.write(out / "trace", summary)

    csv_bytes = 0
    for cell, result in zip(work.cells, results):
        untraced_csv, traced_csv = out / cell.csv_name, traced_out / cell.csv_name
        csv_bytes += traced_csv.stat().st_size
        checks.require(untraced_csv.read_bytes() == traced_csv.read_bytes(),
                       f"{cell.csv_name}: jobs={work.jobs} untraced and jobs=1 traced CSVs differ")
        back = harness.read_trace_csv(traced_csv)
        checks.require(
            [back.steps, back.mean_pseudo_regret, back.stderr_pseudo_regret,
             back.mean_stochastic_regret, back.stderr_stochastic_regret]
            == [result.steps, result.mean_pseudo_regret, result.stderr_pseudo_regret,
                result.mean_stochastic_regret, result.stderr_stochastic_regret],
            f"{cell.csv_name}: read_trace_csv differs from the result written")

    ref_checked, ref_bad = ck.common_checks(work, seed, out, checks)
    kl_calls, kl_failed = ck.kl_round(checks)

    def row(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, r in summary.items():
        layer_self[name.split(".", 1)[0]] += r["self_s"]
    steps = sum(c.steps for c in work.cells)
    per_layer = probes.run_all(seed)
    per_layer.update({
        "klucb.scalar_calls": row("klucb.kl_ucb_lower")["calls"] + row("klucb.kl_ucb_upper")["calls"],
        "klucb.many_calls": row("klucb.kl_ucb_upper_many")["calls"],
        "harness.loop.us": 1e6 * row("harness.run_one")["self_s"] / steps,
        "harness.fanout.efficiency": run_sum_s / (work.jobs * base["run_many_s"]),
        "harness.fanout.run_sum.s": run_sum_s,
        "harness.fanout.run_many.s": base["run_many_s"],
        "harness.write_csv.s": row("harness.write_trace_csv")["total_s"],
        "harness.csv.bytes": csv_bytes,
        "policies.bad_event_runs": bad + ref_bad,
        "policies.checked_runs": traced_runs + ref_checked,
        "trace.overhead": row("harness.run_many")["total_s"] / run_sum_s,
        "trace.spans": len(tracer.name),
        "trace.span_cost.us": 1e6 * leak,
    })
    per_layer.update({f"trace.self.{layer}.s": s for layer, s in layer_self.items()})
    return {
        "correct": not checks.failures,
        "attempted": len(work.cells) + kl_calls,
        "failed": kl_failed,
        "metrics": per_layer,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rank1bandit" / "__init__.py").is_file():
        print(f"no rank1bandit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    out = HERE / "out" / work.name
    out.mkdir(parents=True, exist_ok=True)
    # compile the package once so no timed process pays for it
    code, _, err = _finish(_start(["-c", "import rank1bandit"]))
    if code != 0:
        print(err, file=sys.stderr)
        return 1

    if args.trace:
        result = traced(work, args.seed, out)
    else:
        result = measure(work, args.seed, args.seconds, out)
    # BENCHMARK.json names every metric of each mode and gives its unit
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json's {sorted(units)}")
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
