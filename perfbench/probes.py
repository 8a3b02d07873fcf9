"""Fixed-size probes of single layers, timed around public calls.

Each probe builds its inputs from the benchmark seed and reports a median
over repeats, so every traced run reports the same set of per-layer
figures whichever workload it traces.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

import rank1bandit as rb
from workloads import NEEDLE1024, WORKLOADS

clock = time.perf_counter

# budget ln n + 3 ln ln n at n = 120,000, as the 64x64 elimination cells use
_BUDGET = math.log(120_000) + 3.0 * math.log(math.log(120_000))
_STEP_GRIDS = {
    "16x16": WORKLOADS["flat-pbm16"].cells[0].instance,
    "64x64": WORKLOADS["elim-needle64"].cells[0].instance,
    "1024x1024": NEEDLE1024,
}


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = clock()
        fn()
        times.append(clock() - t)
    return statistics.median(times)


def klucb(rng: np.random.Generator) -> dict[str, float]:
    out = {}
    for n_arms in (256, 4096):
        mu = rng.random(n_arms)
        pulls = rng.integers(1, 1000, n_arms).astype(float)
        us = 1e6 * _median_time(lambda: rb.kl_ucb_upper_many(mu, pulls, _BUDGET), 15)
        out[f"klucb.upper_many_{n_arms}.us"] = us
    pairs = rng.random(200)

    def scalar_pairs():
        for m in pairs:
            rb.kl_ucb_lower(m, 188, _BUDGET)
            rb.kl_ucb_upper(m, 188, _BUDGET)

    out["klucb.scalar_pair.us"] = 1e6 * _median_time(scalar_pairs, 5) / len(pairs)
    return out


def steps(rng: np.random.Generator) -> dict[str, float]:
    """Per-call cost of ``Environment.step`` on uniform random pairs."""
    out = {}
    n = 8192
    for grid, spec in _STEP_GRIDS.items():
        inst = rb.parse_instance_spec(spec)
        env = rb.Environment(inst, np.random.default_rng(rng.integers(1 << 63)))
        pairs = list(zip(rng.integers(inst.K, size=n).tolist(), rng.integers(inst.L, size=n).tolist()))
        step = env.step

        def play():
            for i, j in pairs:
                step(i, j)

        out[f"instances.step_{grid}.us"] = 1e6 * _median_time(play, 5) / n
    return out


def init_1024(rng: np.random.Generator) -> dict[str, float]:
    """Construction of the 1024x1024 environment and of each wide-cell policy."""
    out = {}
    env_rng = np.random.default_rng(rng.integers(1 << 63))
    out["instances.init_1024x1024.s"] = _median_time(
        lambda: rb.Environment(rb.parse_instance_spec(NEEDLE1024), env_rng), 3)
    for cell in WORKLOADS["wide-needle1024"].cells:
        out[f"policies.{cell.policy}.init_1024x1024.s"] = _median_time(
            lambda: rb.make_policy(cell.policy, 1024, 1024, cell.horizon, env_rng), 3)
    return out


def _drive(cell, rng: np.random.Generator, n_steps: int, skip: int = 0):
    """Play ``skip + n_steps`` steps of a fresh policy; return the seconds
    spent in select plus update over the last ``n_steps``, and the update
    seconds of each stage boundary."""
    inst = rb.parse_instance_spec(cell.instance)
    env = rb.Environment(inst, np.random.default_rng(rng.integers(1 << 63)))
    pol = rb.make_policy(cell.policy, inst.K, inst.L, cell.horizon,
                         np.random.default_rng(rng.integers(1 << 63)))
    select, update, step = pol.select, pol.update, env.step
    for _ in range(skip):
        arm = select()
        update(arm, step(*arm))
    staged = hasattr(pol, "stage")
    stage = pol.stage if staged else 0
    busy = 0.0
    boundaries = []
    for _ in range(n_steps):
        t0 = clock()
        arm = select()
        t1 = clock()
        reward = step(*arm)
        t2 = clock()
        update(arm, reward)
        t3 = clock()
        busy += (t1 - t0) + (t3 - t2)
        if staged and pol.stage != stage:
            stage = pol.stage
            boundaries.append(t3 - t2)
    return busy, boundaries


def policies(rng: np.random.Generator) -> dict[str, float]:
    """select+update per step for every cell's policy, and the first stage
    boundary of each 64x64 elimination policy."""
    out = {}
    for work in WORKLOADS.values():
        for cell in work.cells:
            # the flat index policies sweep every arm once before indexing;
            # only the indexed steps are timed
            skip = 16 * 16 if cell.policy in ("ucb1", "klucb") else 0
            n = 300 if cell.policy == "klucb" else min(20_000, cell.horizon)
            busy, _ = _drive(cell, rng, n, skip)
            out[f"policies.{cell.policy}.select_update_{cell.grid}.us"] = 1e6 * busy / n
    for cell in WORKLOADS["elim-needle64"].cells:
        if cell.policy in ("rank1elimkl", "rank1elim"):
            # the first boundary ends round ceil(16 ln n) of K+L steps each
            first = math.ceil(16.0 * math.log(cell.horizon)) * 128
            times = [_drive(cell, rng, first)[1][0] for _ in range(3)]
            out[f"policies.{cell.policy}.boundary.ms"] = 1e3 * statistics.median(times)
    return out


def run_all(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    out = {}
    for probe in (klucb, steps, init_1024, policies):
        out.update(probe(rng))
    return out
