"""Seeded experiment harness: run policies against instances, aggregate, persist.

Reproducibility contract
------------------------
Every run is identified by (master_seed, run_index).  Two independent
64-bit child seeds are derived per run, one for the environment's reward
stream and one for the policy's internal randomness, by chaining the
SplitMix64 mixer over the master seed, the run index, and a stream tag.
A trace therefore never depends on how many runs were requested, in what
order they executed, or on how many worker processes were used.

CSV files written here round-trip exactly: floats are rendered with 17
significant digits, which is lossless for IEEE doubles.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from rank1bandit.instances import (
    Environment,
    HardnessMetrics,
    _integer,
    _open_replacing,
    compute_metrics,
    parse_instance_spec,
)
from rank1bandit.policies import POLICIES, make_policy

_MASK64 = (1 << 64) - 1

# child-stream tags folded into the seed chain; distinct per consumer
_STREAM_TAGS = {"env": 0x01, "policy": 0x02}

# the most steps run_one asks a block policy to plan and Environment.play to
# score at once
_BLOCK_STEPS = 4096


def _splitmix64(x: int) -> int:
    """One step of the SplitMix64 output function (public-domain mixer)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master_seed: int, run_index: int, stream: str) -> int:
    """Derive the 64-bit child seed for one stream of one run.

    The chain absorbs the master seed, then the run index, then the
    stream tag, applying the mixer after each absorption.  Changing any
    of the three inputs changes the output with overwhelming probability.
    """
    try:
        tag = _STREAM_TAGS[stream]
    except KeyError:
        raise ValueError(
            f"unknown stream {stream!r}; expected one of {sorted(_STREAM_TAGS)}"
        ) from None
    x = _splitmix64(_integer(master_seed, "master_seed") & _MASK64)
    x = _splitmix64(x ^ (_integer(run_index, "run_index") & _MASK64))
    x = _splitmix64(x ^ tag)
    return x


def default_checkpoints(horizon: int) -> list[int]:
    """Roughly log-spaced recording steps: 200 interior points plus the horizon.

    Targets are horizon**(k/200) rounded down; duplicates are bumped up by
    one so the grid stays strictly increasing, which makes short horizons
    degrade gracefully into recording every step.
    """
    horizon = _integer(horizon, "horizon", 1)
    pts: list[int] = []
    prev = 0
    for k in range(200):
        c = max(int(horizon ** (k / 200.0)), prev + 1)
        if c >= horizon:
            break
        pts.append(c)
        prev = c
    pts.append(horizon)
    return pts


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce an experiment.

    ``instance`` is either a generator spec
    (``needle:K=8,L=8,p=0.25,gap=0.5`` or
    ``pbm-like:K=16,L=16,head_mass=0.85,decay=0.6``) or a path to a saved
    instance file.  ``checkpoints`` of None means the default log-spaced
    grid for the horizon.
    """

    instance: str
    policy: str
    horizon: int
    runs: int = 20
    master_seed: int = 0
    checkpoints: list[int] | None = None

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; expected one of {sorted(POLICIES)}"
            )
        self.horizon = _integer(self.horizon, "horizon", 5)
        self.runs = _integer(self.runs, "runs", 1)
        self.master_seed = _integer(self.master_seed, "master_seed")
        if self.checkpoints is not None:
            cps = [_integer(c, "each checkpoint") for c in self.checkpoints]
            if any(b <= a for a, b in zip(cps, cps[1:])):
                raise ValueError("checkpoints must be strictly increasing")
            if cps and (cps[0] < 1 or cps[-1] > self.horizon):
                raise ValueError("checkpoints must lie in [1, horizon]")
            self.checkpoints = cps

    def resolved_checkpoints(self) -> list[int]:
        if self.checkpoints is None:
            return default_checkpoints(self.horizon)
        return list(self.checkpoints)


def load_config(path) -> ExperimentConfig:
    """Read an ExperimentConfig from a JSON object file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"unknown config fields: {', '.join(unknown)}")
    missing = sorted({"instance", "policy", "horizon"} - set(raw))
    if missing:
        raise ValueError(f"config is missing required fields: {', '.join(missing)}")
    return ExperimentConfig(**raw)


@dataclass
class RegretTrace:
    """Cumulative regret of a single run, sampled at the checkpoint steps."""

    run_index: int
    env_seed: int
    policy_seed: int
    steps: list[int]
    cum_pseudo_regret: list[float]
    cum_stochastic_regret: list[float]


@dataclass
class AggregateResult:
    """Across-run mean and standard error of cumulative regret per checkpoint.

    Standard errors use the sample standard deviation (ddof=1) divided by
    sqrt(runs) and are reported as 0.0 when there is a single run.
    ``config`` and ``metrics`` are None for results read back from CSV,
    which stores only the numeric columns.
    """

    steps: list[int]
    mean_pseudo_regret: list[float]
    stderr_pseudo_regret: list[float]
    mean_stochastic_regret: list[float]
    stderr_stochastic_regret: list[float]
    config: ExperimentConfig | None = None
    metrics: HardnessMetrics | None = field(default=None, repr=False)


def run_one(config: ExperimentConfig, run_index: int) -> RegretTrace:
    """Play one seeded run to the horizon, recording regret at checkpoints.

    Policies with a ``plan`` method are played a block at a time through
    ``Environment.play``, each block at most ``_BLOCK_STEPS`` (4,096)
    steps long; the others one step at a time.  Both paths give the same bits.
    """
    run_index = _integer(run_index, "run_index", 0)
    inst = parse_instance_spec(config.instance)
    env_seed = derive_seed(config.master_seed, run_index, "env")
    policy_seed = derive_seed(config.master_seed, run_index, "policy")
    env = Environment(inst, np.random.default_rng(env_seed))
    policy = make_policy(
        config.policy, inst.K, inst.L, config.horizon,
        np.random.default_rng(policy_seed),
    )
    checkpoints = config.resolved_checkpoints()
    pseudo: list[float] = []
    stoch: list[float] = []
    nxt = 0  # index of the next checkpoint to record
    if hasattr(policy, "plan"):
        t = 0  # steps played so far
        while t < config.horizon:
            rows, cols = policy.plan(_BLOCK_STEPS)
            rewards, block_pseudo, block_stoch = env.play(rows, cols)
            policy.commit(rows, cols, rewards)
            first = t + 1  # the step the block began with
            t += rows.size
            while nxt < len(checkpoints) and checkpoints[nxt] <= t:
                k = checkpoints[nxt] - first
                pseudo.append(float(block_pseudo[k]))
                stoch.append(float(block_stoch[k]))
                nxt += 1
    else:
        for t in range(1, config.horizon + 1):
            i, j = policy.select()
            policy.update((i, j), env.step(i, j))
            if nxt < len(checkpoints) and t == checkpoints[nxt]:
                pseudo.append(env.cum_pseudo_regret)
                stoch.append(env.cum_stochastic_regret)
                nxt += 1
    return RegretTrace(
        run_index=run_index,
        env_seed=env_seed,
        policy_seed=policy_seed,
        steps=checkpoints,
        cum_pseudo_regret=pseudo,
        cum_stochastic_regret=stoch,
    )


def resolve_jobs(jobs: int | None) -> int:
    """The worker count ``run_many`` uses for ``jobs``: itself, or when it is
    None os.cpu_count()."""
    if jobs is None:
        return os.cpu_count() or 1
    return _integer(jobs, "jobs", 1)


def run_many(config: ExperimentConfig, jobs: int | None = None) -> AggregateResult:
    """Execute all runs of a config and aggregate their regret traces.

    ``jobs`` > 1 fans runs out over worker processes; the result is
    bit-identical to the sequential one because each run is independently
    seeded and aggregation always happens in run-index order.  When jobs
    is None, os.cpu_count() decides.
    """
    jobs = resolve_jobs(jobs)
    indices = range(config.runs)
    if jobs == 1 or config.runs == 1:
        traces = [run_one(config, r) for r in indices]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, config.runs)) as pool:
            traces = list(pool.map(run_one, [config] * config.runs, indices))

    pseudo = np.array([t.cum_pseudo_regret for t in traces], dtype=np.float64)
    stoch = np.array([t.cum_stochastic_regret for t in traces], dtype=np.float64)
    n = config.runs
    if n > 1:
        se_pseudo = np.std(pseudo, axis=0, ddof=1) / math.sqrt(n)
        se_stoch = np.std(stoch, axis=0, ddof=1) / math.sqrt(n)
    else:
        se_pseudo = np.zeros(pseudo.shape[1])
        se_stoch = np.zeros(stoch.shape[1])
    return AggregateResult(
        steps=traces[0].steps,
        mean_pseudo_regret=pseudo.mean(axis=0).tolist(),
        stderr_pseudo_regret=se_pseudo.tolist(),
        mean_stochastic_regret=stoch.mean(axis=0).tolist(),
        stderr_stochastic_regret=se_stoch.tolist(),
        config=config,
        metrics=compute_metrics(parse_instance_spec(config.instance)),
    )


_CSV_HEADER = (
    "step",
    "mean_pseudo_regret",
    "stderr_pseudo_regret",
    "mean_stochastic_regret",
    "stderr_stochastic_regret",
)


def write_trace_csv(result: AggregateResult, path) -> None:
    """Write an aggregate result as CSV; floats keep full double precision.

    The file is replaced in one step: a failed write leaves it as it was.
    """
    with _open_replacing(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_CSV_HEADER)
        rows = zip(
            result.steps,
            result.mean_pseudo_regret,
            result.stderr_pseudo_regret,
            result.mean_stochastic_regret,
            result.stderr_stochastic_regret,
        )
        for step, mp, sp, ms, ss in rows:
            w.writerow([step, f"{mp:.17g}", f"{sp:.17g}", f"{ms:.17g}", f"{ss:.17g}"])


def read_trace_csv(path) -> AggregateResult:
    """Read a CSV written by write_trace_csv back into an AggregateResult."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty; expected a CSV header") from None
        if tuple(header) != _CSV_HEADER:
            raise ValueError(
                f"{path} has unexpected header {header!r}; "
                f"expected {','.join(_CSV_HEADER)}"
            )
        steps, mp, sp, ms, ss = [], [], [], [], []
        for row in reader:
            if len(row) != 5:
                raise ValueError(f"{path}: expected 5 columns, got {len(row)}")
            steps.append(int(row[0]))
            mp.append(float(row[1]))
            sp.append(float(row[2]))
            ms.append(float(row[3]))
            ss.append(float(row[4]))
    return AggregateResult(
        steps=steps,
        mean_pseudo_regret=mp,
        stderr_pseudo_regret=sp,
        mean_stochastic_regret=ms,
        stderr_stochastic_regret=ss,
    )
