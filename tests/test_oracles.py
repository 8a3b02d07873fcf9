"""Closed-form oracles for whole runs of the flat policies, true on any
reward stream.

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
"""

from __future__ import annotations

import math

import pytest

from rank1bandit.harness import ExperimentConfig, run_one
from rank1bandit.instances import parse_instance_spec

NEEDLE16 = "needle:K=16,L=16,p=0.25,gap=0.5"
PBM16 = "pbm-like:K=16,L=16,head_mass=0.85,decay=0.5915"
REL_TOL = 1e-12


def sweep_regret(spec: str) -> float:
    inst = parse_instance_spec(spec)
    u, v = inst.u_bar, inst.v_bar
    return len(u) * len(v) * max(u) * max(v) - math.fsum(u) * math.fsum(v)


def pseudo_regret_at(policy: str, spec: str, step: int, horizon: int) -> list[float]:
    """Each of three runs' pseudo-regret at ``step``."""
    config = ExperimentConfig(instance=spec, policy=policy, horizon=horizon, runs=3,
                              master_seed=2026, checkpoints=[step])
    return [run_one(config, k).cum_pseudo_regret[0] for k in range(3)]


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
