"""One workload process: set up every cell, run it, write its CSVs, exit.

Started by ``run.py`` with ``src`` on PYTHONPATH.  ``--t0`` is the
CLOCK_MONOTONIC reading the parent took just before starting this process,
so set-up time is counted from the launch, interpreter start-up included.
The last line of standard output is a JSON object with the process's own
figures; the parent times the process from launch to exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    import numpy as np

    import rank1bandit as rb
    from workloads import WORKLOADS

    work = WORKLOADS[args.workload]
    for cell in work.cells:
        inst = rb.parse_instance_spec(cell.instance)
        env = rb.Environment(inst, np.random.default_rng(args.seed))
        policy = rb.make_policy(
            cell.policy, inst.K, inst.L, cell.horizon, np.random.default_rng(args.seed)
        )
        del inst, env, policy
    setup_s = _now() - args.t0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run_many_s = 0.0
    for cell in work.cells:
        config = rb.ExperimentConfig(
            instance=cell.instance,
            policy=cell.policy,
            horizon=cell.horizon,
            runs=cell.runs,
            master_seed=args.seed,
        )
        t = time.perf_counter()
        result = rb.run_many(config, jobs=work.jobs)
        run_many_s += time.perf_counter() - t
        rb.write_trace_csv(result, out / cell.csv_name)

    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the pool workers,
    # which run_many has joined by the time it returns
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps({
        "setup_s": setup_s,
        "run_many_s": run_many_s,
        "steps": sum(c.steps for c in work.cells),
        "peak_rss_mb": peak_kib / 1024.0,
    }))


if __name__ == "__main__":
    main()
