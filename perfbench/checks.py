"""Correctness checks run outside every timed interval.

Nothing here trusts the package's own notion of the right answer:

* the reference simulation derives its seeds with its own SplitMix64 chain,
  draws K+L uniforms per step from its own generator (row coordinates
  first, as the ``Environment`` docstring specifies), drives the policy
  through the public ``select``/``update`` and sums both regrets itself;
* the KL solver is checked against this file's own Bernoulli divergence;
* CSVs are parsed here and compared with ``read_trace_csv``.

Every check raises ``CheckFailed`` with a message naming what differed.
"""

from __future__ import annotations

import math
import sys
import tempfile
from pathlib import Path

import numpy as np

import rank1bandit as rb

_MASK64 = (1 << 64) - 1
_ENV_TAG, _POLICY_TAG = 0x01, 0x02

_CSV_HEADER = "step,mean_pseudo_regret,stderr_pseudo_regret,mean_stochastic_regret,stderr_stochastic_regret"


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


# ---------------------------------------------------------------- seeds

def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def child_seed(master_seed: int, run_index: int, tag: int) -> int:
    """Absorb the master seed, the run index and the stream tag in turn."""
    x = _splitmix64(master_seed & _MASK64)
    x = _splitmix64(x ^ (run_index & _MASK64))
    return _splitmix64(x ^ tag)


# ---------------------------------------------------------------- KL solver

def bernoulli_kl(p: float, q: float) -> float:
    if p == q:
        return 0.0
    if q <= 0.0 or q >= 1.0:
        return math.inf
    out = 0.0
    if p > 0.0:
        out += p * math.log(p / q)
    if p < 1.0:
        out += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return out


KL_MEANS = (0.0, 1e-6, 0.001, 0.05, 0.13, 0.25, 0.5, 0.75, 0.99, 0.999999, 1.0)
KL_PULLS = (1, 2, 17, 188, 10_000, 1_000_000)
KL_BUDGETS = (0.0, 0.1, 1.0, 18.77, 40.0)
KL_TOL = 1e-9


def check_klucb() -> tuple[int, int]:
    """Feasibility and optimality of both scalar bounds, and agreement of the
    vectorized upper bound with the scalar one, on a grid with mu in {0, 1}.

    Feasible means pulls * d(mu, q) <= budget; optimal to 1e-9 means that
    moving the bound 1e-9 further out breaks feasibility; at budget 0, where
    that divergence would sit below rounding, the bound must be mu itself.  The budget check
    allows a relative 1e-9 for the rounding of the solver's own divergence.
    A solver call that raises is counted as failed, not checked; the grid
    does not depend on the seed, so neither does that count.  Returns
    (solver calls attempted, solver calls failed).
    """
    attempted = failed = 0
    mus, ns, ds, ups = [], [], [], []
    for mu in KL_MEANS:
        for n in KL_PULLS:
            for delta in KL_BUDGETS:
                slack = KL_TOL * max(1.0, delta)
                where = f"mu={mu} pulls={n} budget={delta}"
                attempted += 2
                try:
                    up = rb.kl_ucb_upper(mu, n, delta)
                except ValueError:
                    failed += 1
                else:
                    _require(mu <= up <= 1.0, f"kl_ucb_upper {up!r} outside [mu, 1] at {where}")
                    _require(n * bernoulli_kl(mu, up) <= delta + slack,
                             f"kl_ucb_upper {up!r} infeasible at {where}")
                    if delta == 0.0:
                        _require(up == mu, f"kl_ucb_upper {up!r} is not mu at {where}")
                    elif up + KL_TOL < 1.0:
                        _require(n * bernoulli_kl(mu, up + KL_TOL) > delta,
                                 f"kl_ucb_upper {up!r} not maximal to {KL_TOL} at {where}")
                    mus.append(mu)
                    ns.append(float(n))
                    ds.append(delta)
                    ups.append(up)
                try:
                    lo = rb.kl_ucb_lower(mu, n, delta)
                except ValueError:
                    failed += 1
                else:
                    _require(0.0 <= lo <= mu, f"kl_ucb_lower {lo!r} outside [0, mu] at {where}")
                    _require(n * bernoulli_kl(mu, lo) <= delta + slack,
                             f"kl_ucb_lower {lo!r} infeasible at {where}")
                    if delta == 0.0:
                        _require(lo == mu, f"kl_ucb_lower {lo!r} is not mu at {where}")
                    elif lo - KL_TOL > 0.0:
                        _require(n * bernoulli_kl(mu, lo - KL_TOL) > delta,
                                 f"kl_ucb_lower {lo!r} not minimal to {KL_TOL} at {where}")
    mus, ns, ds, ups = map(np.array, (mus, ns, ds, ups))
    for delta in KL_BUDGETS:
        sel = ds == delta
        attempted += 1
        many = rb.kl_ucb_upper_many(mus[sel], ns[sel], delta)
        worst = float(np.max(np.abs(many - ups[sel])))
        _require(worst <= KL_TOL,
                 f"kl_ucb_upper_many differs from kl_ucb_upper by {worst!r} at budget {delta}")
    return attempted, failed


# ---------------------------------------------------------------- reference run

class _Survivors:
    """Elimination invariants read through the public accessors."""

    def __init__(self, policy):
        self.policy = policy
        self.stage = policy.stage
        self.rows = self._read(policy.row_map, policy.remaining_rows, "row")
        self.cols = self._read(policy.col_map, policy.remaining_cols, "column")

    @staticmethod
    def _read(h: list[int], survivors: list[int], what: str) -> frozenset[int]:
        _require(all(h[h[i]] == h[i] for i in range(len(h))),
                 f"{what} map is not idempotent: {h}")
        _require(set(survivors) == set(h),
                 f"remaining {what}s {survivors} differ from the image of the {what} map")
        return frozenset(survivors)

    def after_update(self) -> None:
        pol = self.policy
        if pol.stage == self.stage:
            return
        rows = self._read(pol.row_map, pol.remaining_rows, "row")
        cols = self._read(pol.col_map, pol.remaining_cols, "column")
        _require(rows <= self.rows and cols <= self.cols,
                 f"survivor sets grew at stage {pol.stage}")
        rec = pol.stage_log[-1]
        _require(rec.stage == pol.stage - 1 and set(rec.rows) == rows and set(rec.cols) == cols,
                 f"stage_log {rec} disagrees with the survivor sets")
        self.stage, self.rows, self.cols = pol.stage, rows, cols

    def check_play(self, i: int, j: int) -> None:
        _require(i in self.rows and j in self.cols,
                 f"eliminated pair ({i}, {j}) played at step {self.policy.t}")


def best_survived(policy, best_row: int, best_col: int) -> bool:
    """False when the best row or column was eliminated, the event the
    paper's regret bound excludes."""
    if hasattr(policy, "remaining_rows"):
        return best_row in policy.remaining_rows and best_col in policy.remaining_cols
    if hasattr(policy, "remaining_arms"):
        return (best_row, best_col) in policy.remaining_arms
    return True


def reference_run(cell, master_seed: int, run_index: int):
    """Simulate one run independently and compare it with ``run_one``.

    Returns the policy driven by the reference loop and the best (row,
    column), for the bad-event count.
    """
    inst = rb.parse_instance_spec(cell.instance)
    u, v = inst.u_bar.tolist(), inst.v_bar.tolist()
    K, L = len(u), len(v)
    bi = max(range(K), key=lambda i: (u[i], -i))
    bj = max(range(L), key=lambda j: (v[j], -j))
    best = u[bi] * v[bj]
    horizon = cell.ref_horizon
    env_seed = child_seed(master_seed, run_index, _ENV_TAG)
    policy_seed = child_seed(master_seed, run_index, _POLICY_TAG)
    draws = np.random.default_rng(env_seed)
    policy = rb.make_policy(cell.policy, K, L, horizon, np.random.default_rng(policy_seed))
    survivors = _Survivors(policy) if hasattr(policy, "row_map") else None
    checkpoints = rb.default_checkpoints(horizon)

    pseudo = stoch = 0.0
    ref_pseudo, ref_stoch = [], []
    nxt = 0
    for t in range(1, horizon + 1):
        i, j = policy.select()
        if survivors is not None:
            survivors.check_play(i, j)
        z = draws.random(K + L).tolist()
        reward = 1 if (z[i] < u[i] and z[K + j] < v[j]) else 0
        best_reward = 1 if (z[bi] < u[bi] and z[K + bj] < v[bj]) else 0
        policy.update((i, j), reward)
        if survivors is not None:
            survivors.after_update()
        pseudo += best - u[i] * v[j]
        stoch += best_reward - reward
        if t == checkpoints[nxt]:
            ref_pseudo.append(pseudo)
            ref_stoch.append(stoch)
            nxt += 1

    config = rb.ExperimentConfig(instance=cell.instance, policy=cell.policy,
                                 horizon=horizon, runs=1, master_seed=master_seed)
    trace = rb.run_one(config, run_index)
    where = f"{cell.policy} on {cell.instance}, seed {master_seed}, run {run_index}"
    _require((trace.env_seed, trace.policy_seed) == (env_seed, policy_seed),
             f"run_one seeds differ from the SplitMix64 chain for {where}")
    _require(trace.steps == checkpoints, f"run_one checkpoints differ for {where}")
    for name, got, want in (("pseudo", trace.cum_pseudo_regret, ref_pseudo),
                            ("stochastic", trace.cum_stochastic_regret, ref_stoch)):
        for step, a, b in zip(checkpoints, got, want):
            _require(a == b, f"{name} regret at step {step}: run_one {a!r}, reference {b!r} ({where})")
    return policy, (bi, bj)


# ---------------------------------------------------------------- CSV

def check_csv(path: Path, horizon: int, instance: str) -> None:
    """Round trip through read_trace_csv, and the shape of a regret curve."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    _require(lines and lines[0] == _CSV_HEADER, f"{path}: bad header")
    rows = [line.split(",") for line in lines[1:]]
    _require(all(len(r) == 5 for r in rows), f"{path}: a row without 5 fields")
    steps = [int(r[0]) for r in rows]
    cols = [[float(r[k]) for r in rows] for k in range(1, 5)]

    back = rb.read_trace_csv(path)
    _require(back.steps == steps
             and [back.mean_pseudo_regret, back.stderr_pseudo_regret,
                  back.mean_stochastic_regret, back.stderr_stochastic_regret] == cols,
             f"{path}: read_trace_csv disagrees with the file")
    with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
        again = Path(tmp) / path.name
        rb.write_trace_csv(back, again)
        _require(again.read_bytes() == path.read_bytes(),
                 f"{path}: writing what read_trace_csv read gives other bytes")

    _require(bool(steps) and steps[-1] == horizon, f"{path}: last step is not the horizon")
    _require(all(b > a for a, b in zip(steps, steps[1:])) and steps[0] >= 1,
             f"{path}: steps do not rise strictly from 1")
    inst = rb.parse_instance_spec(instance)
    max_gap = float(inst.u_bar.max() * inst.v_bar.max() - np.outer(inst.u_bar, inst.v_bar).min())
    mean_pseudo, se_pseudo, _, se_stoch = cols
    _require(all(b >= a for a, b in zip(mean_pseudo, mean_pseudo[1:])),
             f"{path}: mean pseudo-regret decreases")
    # the bound allows relative rounding of a sum of t gaps
    _require(all(0.0 <= m <= t * max_gap * (1 + 1e-9) for t, m in zip(steps, mean_pseudo)),
             f"{path}: mean pseudo-regret outside [0, t * max gap]")
    _require(min(se_pseudo) >= 0.0 and min(se_stoch) >= 0.0,
             f"{path}: negative standard error")


# ---------------------------------------------------------------- running them

class Checks:
    """Runs named checks, keeping going after a failure so all are reported."""

    def __init__(self):
        self.failures: list[str] = []

    def run(self, what: str, fn, *args):
        try:
            return fn(*args)
        except CheckFailed as exc:
            self.failures.append(f"{what}: {exc}")
            print(f"CHECK FAILED {what}: {exc}", file=sys.stderr)
            return None

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED {what}", file=sys.stderr)


def kl_round(checks: Checks) -> tuple[int, int]:
    """One pass over the KL solver's property grid: (calls, calls failed)."""
    return checks.run("klucb properties", check_klucb) or (0, 0)


def common_checks(work, seed: int, out: Path, checks: Checks) -> tuple[int, int]:
    """The reference simulation and the CSV checks of every cell.  Returns
    (runs checked for the bad event, runs in which it happened)."""
    refs = bad = 0
    for cell in work.cells:
        got = checks.run(f"reference {cell.policy} {cell.grid}", reference_run,
                         cell, seed, cell.runs - 1)
        refs += 1
        if got is not None:
            policy, (bi, bj) = got
            bad += not best_survived(policy, bi, bj)
        checks.run(f"csv {cell.csv_name}", check_csv, out / cell.csv_name,
                   cell.horizon, cell.instance)
    return refs, bad
