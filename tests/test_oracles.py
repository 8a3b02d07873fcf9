"""Oracles that hold on any correct reward stream: closed-form regrets
after each policy's opening, and the law of one step.

The flat policies open the same way whatever the rewards: ``ucb1`` and
``klucb`` play every arm once in row-major order, and round 0 of
``ucb1elim`` plays every arm m0 = ceil(2 ln n) times.  Step t's
pseudo-regret is best - u_i * v_j for the arm (i, j) it plays, so at the
end of that opening every run's pseudo-regret is

    K*L*best - sum(u)*sum(v)      at step K*L (ucb1, klucb),
    m0 * (K*L*best - sum(u)*sum(v))   at step m0*K*L (ucb1elim).

That is 123.75 on the 16x16 needle and 180.63 on the pbm-like 16x16
instance of acceptance criterion 9.  Every run must give the same value,
bit for bit, and the value must match the closed form to a relative
1e-12, fixed before any run for the rounding of the step-by-step fold.

Stage 0 of ``rank1elimkl`` and ``rank1elim`` plays each row n0 =
ceil(16 ln n) times against a uniformly drawn column, and each column n0
times against a uniformly drawn row, with the maps still the identity.
It always ends at step n0*(K+L), where the expected pseudo-regret is

    n0 * [(K*best - mean(v)*sum(u)) + (L*best - mean(u)*sum(v))],

3,434.0625 on the 16x16 needle and 5,012.5459 on the pbm-like 16x16 at
n = 10^6 (n0 = 222).  The stochastic regret has the same expectation.
The two policies share stage 0, so their regrets there are bit-equal.

The law of one step: a step that plays (i, j) on fresh draws rewards 1
with probability u_i*v_j, and its reward r and the best pair's reward b
are products of independent Bernoulli coordinates, so
P(r = 1, b = 1) is the product of the means of the coordinates the two
pairs read, a coordinate they share counted once.

Every statistical check is |mean - expected| <= 4 standard errors,
fixed before any run: the cell's own standard error for the stage-0
regrets, sqrt(p(1 - p)/n) for a frequency with law p.  A frequency whose
law is 0 or 1 must therefore be exact.  Seeds are fixed, so tier 1 stays
deterministic.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from rank1bandit.harness import ExperimentConfig, derive_seed, run_one
from rank1bandit.instances import Environment, Rank1Instance, parse_instance_spec
from rank1bandit.policies import make_policy

NEEDLE16 = "needle:K=16,L=16,p=0.25,gap=0.5"
PBM16 = "pbm-like:K=16,L=16,head_mass=0.85,decay=0.5915"
REL_TOL = 1e-12
SE_TOL = 4.0


def sweep_regret(spec: str) -> float:
    inst = parse_instance_spec(spec)
    u, v = inst.u_bar, inst.v_bar
    return len(u) * len(v) * max(u) * max(v) - math.fsum(u) * math.fsum(v)


def pseudo_regret_at(policy: str, spec: str, step: int, horizon: int) -> list[float]:
    """Each of three runs' pseudo-regret at ``step``."""
    config = ExperimentConfig(instance=spec, policy=policy, horizon=horizon, runs=3,
                              master_seed=2026, checkpoints=[step])
    return [run_one(config, k).cum_pseudo_regret[0] for k in range(3)]


def assert_within_se(mean: float, se: float, want: float) -> None:
    assert abs(mean - want) <= SE_TOL * se, (mean, se, want)


def test_the_sweep_regrets_by_hand():
    assert sweep_regret(NEEDLE16) == 123.75
    assert sweep_regret(PBM16) == pytest.approx(180.63, abs=0.005)


@pytest.mark.parametrize("spec", [NEEDLE16, PBM16], ids=["needle16", "pbm16"])
@pytest.mark.parametrize("policy", ["ucb1", "klucb"])
def test_flat_index_policies_after_the_sweep(policy, spec):
    got = pseudo_regret_at(policy, spec, 16 * 16, 300)
    assert got[0] == got[1] == got[2]
    assert got[0] == pytest.approx(sweep_regret(spec), rel=REL_TOL, abs=0.0)


@pytest.mark.parametrize("spec", [NEEDLE16, PBM16], ids=["needle16", "pbm16"])
def test_ucb1elim_after_round_0(spec):
    m0 = math.ceil(2.0 * math.log(10_000))
    assert m0 == 19
    got = pseudo_regret_at("ucb1elim", spec, m0 * 16 * 16, 10_000)
    assert got[0] == got[1] == got[2]
    assert got[0] == pytest.approx(m0 * sweep_regret(spec), rel=REL_TOL, abs=0.0)


STAGE0_HORIZON = 10**6


def stage0_regret(spec: str, n0: int) -> float:
    inst = parse_instance_spec(spec)
    u, v = inst.u_bar, inst.v_bar
    best = u.max() * v.max()
    return n0 * ((inst.K * best - v.mean() * u.sum()) + (inst.L * best - u.mean() * v.sum()))


def stage0_runs(policy: str, spec: str, n0: int, runs: int = 20) -> list[tuple[float, float]]:
    """Each run's (pseudo-regret, stochastic regret) at step n0*(K+L),
    driven through ``plan``/``commit`` on the seeds ``run_one`` gives runs
    0 to ``runs`` - 1 of master seed 2026."""
    inst = parse_instance_spec(spec)
    end = n0 * (inst.K + inst.L)
    out = []
    for r in range(runs):
        env = Environment(inst, np.random.default_rng(derive_seed(2026, r, "env")))
        pol = make_policy(policy, inst.K, inst.L, STAGE0_HORIZON,
                          np.random.default_rng(derive_seed(2026, r, "policy")))
        while env.steps < end:
            rows, cols = pol.plan(end - env.steps)
            pol.commit(env.play(rows, cols)[0])
        # stage 0 ends exactly at n0*(K+L)
        assert env.steps == end and pol.stage == 1
        out.append((env.cum_pseudo_regret, env.cum_stochastic_regret))
    return out


def test_the_stage0_regrets_by_hand():
    assert math.ceil(16.0 * math.log(STAGE0_HORIZON)) == 222
    assert stage0_regret(NEEDLE16, 222) == pytest.approx(3434.0625, rel=REL_TOL, abs=0.0)
    assert stage0_regret(PBM16, 222) == pytest.approx(5012.5459, abs=5e-5)


@pytest.mark.parametrize("spec", [NEEDLE16, PBM16], ids=["needle16", "pbm16"])
def test_rank1_policies_after_stage_0(spec):
    n0 = math.ceil(16.0 * math.log(STAGE0_HORIZON))
    want = stage0_regret(spec, n0)
    kl = stage0_runs("rank1elimkl", spec, n0)
    assert stage0_runs("rank1elim", spec, n0) == kl
    for column in zip(*kl):  # pseudo-regret, then stochastic regret
        x = np.array(column)
        assert_within_se(x.mean(), x.std(ddof=1) / math.sqrt(x.size), want)


# best pair (1, 2); K + L = 6 plays from drawn chunks
SMALL = Rank1Instance(u_bar=[0.3, 0.8, 0.5], v_bar=[0.6, 0.2, 0.9])
SMALL_PAIRS = [(1, 2), (1, 0), (0, 2), (2, 1)]
# best pair (17, 31); K + L = 96 plays by skip-ahead
_wide_u, _wide_v = np.linspace(0.05, 0.6, 48), np.linspace(0.7, 0.1, 48)
_wide_u[17], _wide_v[31] = 0.9, 0.95
WIDE = Rank1Instance(u_bar=_wide_u, v_bar=_wide_v)
WIDE_PAIRS = [(17, 31), (17, 0), (5, 31), (40, 12)]
PLAYS_PER_PAIR = 20_000


def rewards_and_best(inst: Rank1Instance, rows, cols, path: str) -> tuple[np.ndarray, np.ndarray]:
    """Each step's reward and the best pair's reward on the same draws,
    read as the reward plus the step's change of stochastic regret."""
    env = Environment(inst, np.random.default_rng(2026))
    if path == "step":
        rewards, stoch = [], []
        for i, j in zip(rows.tolist(), cols.tolist()):
            rewards.append(env.step(i, j))
            stoch.append(env.cum_stochastic_regret)
    else:
        blocks = [env.play(rows[a:a + 4096], cols[a:a + 4096]) for a in range(0, rows.size, 4096)]
        rewards = np.concatenate([b[0] for b in blocks])
        stoch = np.concatenate([b[2] for b in blocks])
    rewards = np.asarray(rewards, dtype=np.int64)
    return rewards, rewards + np.diff(stoch, prepend=0.0).astype(np.int64)


def assert_frequency(hits: np.ndarray, p: float) -> None:
    assert_within_se(hits.mean(), math.sqrt(p * (1.0 - p) / hits.size), p)


@pytest.mark.parametrize("path", ["step", "play"])
@pytest.mark.parametrize("inst, pairs", [(SMALL, SMALL_PAIRS), (WIDE, WIDE_PAIRS)],
                         ids=["3x3-drawn", "48x48-skip-ahead"])
def test_law_of_one_step(inst, pairs, path):
    u, v = inst.u_bar.tolist(), inst.v_bar.tolist()
    bi, bj = int(np.argmax(u)), int(np.argmax(v))
    rows = np.array([i for i, _ in pairs] * PLAYS_PER_PAIR)
    cols = np.array([j for _, j in pairs] * PLAYS_PER_PAIR)
    reward, best = rewards_and_best(inst, rows, cols, path)
    for k, (i, j) in enumerate(pairs):
        r, b = reward[k::len(pairs)], best[k::len(pairs)]
        p_r, p_b = u[i] * v[j], u[bi] * v[bj]
        p_rb = p_b * (1.0 if i == bi else u[i]) * (1.0 if j == bj else v[j])
        assert_frequency(r, p_r)
        assert_frequency(b, p_b)
        assert_frequency(r & b, p_rb)
        assert_frequency(r & (1 - b), p_r - p_rb)
        assert_frequency((1 - r) & b, p_b - p_rb)
        assert_frequency((1 - r) & (1 - b), 1.0 - p_r - p_b + p_rb)
