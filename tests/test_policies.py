"""Tests for the bandit policies.

Frozen oracle values, derived by hand before implementation:

* stage observation targets are ceil(16 * 4^stage * ln(horizon)), so a
  horizon of 100 gives 74 and a horizon of 10^4 gives 148, 590, 2358, ...
* the divergence budget is ln(n) + 3*ln(ln(n)); at n = 10^4 that is
  15.871320791079722.
* with row means (1, 0) and column means (1, 1) every reward is exact,
  so after stage 0 the bad row's upper bound is 1 - exp(-delta/148) ~=
  0.1017 and the leader's lower bound exp(-delta/148) ~= 0.8983: the bad
  row must be gone after exactly 148 * 4 = 592 steps, while the equal
  columns must both survive.
* UCB1 on 2x2 with scripted rewards 1,0,0,0 then zeros: at t=5 the
  index of arm 0 is 1 + sqrt(2 ln 5) ~= 2.794 against 1.794, and at t=6
  it is 0.5 + sqrt(ln 6) ~= 1.839 against sqrt(2 ln 6) ~= 1.893, so the
  play order is (0,0),(0,1),(1,0),(1,1),(0,0),(0,1).
* the flat elimination baseline's round targets at n = 10^4 are
  ceil(2 ln 10^4) = 19 then ceil(8 ln 2500) = 63.
"""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rank1bandit.policies as policies
from rank1bandit.instances import Environment, Rank1Instance, needle_instance, pbm_like_instance
from rank1bandit.policies import (
    KLUCB,
    POLICIES,
    ProtocolError,
    Rank1Elim,
    Rank1ElimKL,
    UCB1,
    UCB1Elim,
    hoeffding_bounds,
    make_policy,
)


def drive(policy, env, steps):
    arms = []
    for _ in range(steps):
        arm = policy.select()
        reward = env.step(arm[0], arm[1])
        policy.update(arm, reward)
        arms.append(arm)
    return arms


def zero_noise_env(u, v, seed=0):
    return Environment(Rank1Instance(u_bar=u, v_bar=v), np.random.default_rng(seed))


def index_calls(policy):
    """Wrap ``policy._index`` and return the list it appends to: per call,
    how many steps ahead of the current one the index was built."""
    ahead = []
    index = policy._index

    def counted(t):
        ahead.append(t - policy.t)
        return index(t)

    policy._index = counted
    return ahead


class TestProtocol:
    def test_horizon_minimum(self):
        for cls in POLICIES.values():
            with pytest.raises(ValueError):
                cls(2, 2, 4, np.random.default_rng(0))

    def test_grid_shape_must_be_positive_integers(self):
        for K, L, msg in [(0, 2, "K must be at least 1, got 0"),
                          (2, 0, "L must be at least 1, got 0"),
                          (2.5, 2, "K must be an integer, got 2.5"),
                          (2, -1, "L must be at least 1, got -1")]:
            for cls in POLICIES.values():
                with pytest.raises(ValueError, match=msg):
                    cls(K, L, 10, np.random.default_rng(0))

    def test_update_rejects_a_non_binary_reward(self):
        for cls in POLICIES.values():
            for reward in (2, -1, 0.5):
                pol = cls(2, 2, 10, np.random.default_rng(0))
                arm = pol.select()
                with pytest.raises(ValueError, match="reward must be 0 or 1"):
                    pol.update(arm, reward)

    def test_select_past_horizon(self):
        pol = UCB1(1, 1, 5, np.random.default_rng(0))
        env = zero_noise_env([1.0], [1.0])
        drive(pol, env, 5)
        with pytest.raises(ProtocolError):
            pol.select()

    def test_update_arm_mismatch(self):
        pol = UCB1(2, 2, 10, np.random.default_rng(0))
        arm = pol.select()
        wrong = (arm[0], 1 - arm[1])
        with pytest.raises(ProtocolError):
            pol.update(wrong, 1)

    def test_update_without_select(self):
        pol = Rank1ElimKL(2, 2, 10, np.random.default_rng(0))
        with pytest.raises(ProtocolError):
            pol.update((0, 0), 1)

    def test_factory(self):
        rng = np.random.default_rng(0)
        assert isinstance(make_policy("rank1elimkl", 2, 2, 10, rng), Rank1ElimKL)
        assert isinstance(make_policy("ucb1elim", 2, 2, 10, rng), UCB1Elim)
        with pytest.raises(ValueError):
            make_policy("nope", 2, 2, 10, rng)

    def test_policies_registry_is_complete(self):
        assert set(POLICIES) == {"rank1elimkl", "rank1elim", "ucb1", "ucb1elim", "klucb"}


class TestRank1ElimKLSchedule:
    def test_stage_zero_round_structure(self):
        pol = Rank1ElimKL(2, 2, 100, np.random.default_rng(5))
        env = zero_noise_env([0.5, 0.5], [0.5, 0.5], seed=9)
        arms = drive(pol, env, 8)
        # row sweep against one sampled column, then column sweep against
        # one sampled row, repeated
        assert arms[0][0] == 0 and arms[1][0] == 1 and arms[0][1] == arms[1][1]
        assert arms[2][1] == 0 and arms[3][1] == 1 and arms[2][0] == arms[3][0]
        assert arms[4][0] == 0 and arms[5][0] == 1 and arms[4][1] == arms[5][1]

    def test_budget_value(self):
        pol = Rank1ElimKL(2, 2, 10**4, np.random.default_rng(0))
        n = 10**4
        assert pol.budget == pytest.approx(math.log(n) + 3 * math.log(math.log(n)), abs=1e-12)
        # ln(10^4) = 9.210340371976184, ln of that = 2.2203268063678463
        assert pol.budget == pytest.approx(15.871320791079722, abs=1e-12)

    def test_deterministic_given_seed(self):
        inst = needle_instance(3, 4, 0.25, 0.25, 0.5, 0.5)
        runs = []
        for _ in range(2):
            pol = Rank1ElimKL(3, 4, 5000, np.random.default_rng(77))
            env = Environment(inst, np.random.default_rng(3))
            runs.append(drive(pol, env, 2000))
        assert runs[0] == runs[1]

    def test_stage_targets_and_step_accounting(self):
        # horizon 10^4: targets 148, 590, 2358; with one row eliminated at
        # stage 0 the per-round cost drops from 4 steps to 3
        pol = Rank1ElimKL(2, 2, 10**4, np.random.default_rng(1))
        env = zero_noise_env([1.0, 0.0], [1.0, 1.0], seed=2)
        drive(pol, env, 8000)
        log = pol.stage_log
        assert log[0].n_obs == 148
        assert log[0].steps == 148 * 4
        assert log[0].rows == (0,) and log[0].cols == (0, 1)
        assert log[1].n_obs == 590
        assert log[1].steps == 592 + (590 - 148) * 3
        assert log[2].n_obs == 2358
        assert log[2].steps == 1918 + (2358 - 590) * 3

    def test_zero_noise_row_elimination_matches_hand_oracle(self):
        pol = Rank1ElimKL(2, 2, 10**4, np.random.default_rng(123))
        env = zero_noise_env([1.0, 0.0], [1.0, 1.0], seed=4)
        drive(pol, env, 591)
        assert pol.remaining_rows == [0, 1]  # one step before the boundary
        drive(pol, env, 1)
        assert pol.remaining_rows == [0]
        assert pol.remaining_cols == [0, 1]  # equal columns never separate

    def test_zero_noise_column_elimination_mirror(self):
        pol = Rank1ElimKL(2, 2, 10**4, np.random.default_rng(321))
        env = zero_noise_env([1.0, 1.0], [1.0, 0.0], seed=8)
        drive(pol, env, 592)
        assert pol.remaining_cols == [0]
        assert pol.remaining_rows == [0, 1]

    def test_exact_means_under_zero_noise(self):
        # every remaining row holds exactly n_obs observations at a boundary
        pol = Rank1ElimKL(2, 2, 10**4, np.random.default_rng(11))
        env = zero_noise_env([1.0, 0.0], [1.0, 1.0], seed=12)
        drive(pol, env, 592)
        assert pol.row_successes[0] == 148
        assert pol.row_successes[1] == 0

    def test_more_successes_than_observations_raises(self):
        # an explicit check, so it holds under python -O as well
        pol = Rank1ElimKL(2, 2, 10**4, np.random.default_rng(11))
        env = zero_noise_env([1.0, 0.0], [1.0, 1.0], seed=12)
        drive(pol, env, 591)
        pol._S[1] = 149  # tampered: row 1 has had 148 observations
        with pytest.raises(ProtocolError, match="149 successes over 148"):
            drive(pol, env, 1)

    def test_column_successes_checked_on_the_block_path(self):
        pol = Rank1ElimKL(2, 2, 10**4, np.random.default_rng(11))
        env = zero_noise_env([1.0, 1.0], [1.0, 0.0], seed=12)
        rows, cols = pol.plan(591)
        pol.commit(env.play(rows, cols)[0])
        pol._S[pol.K] = 149
        rows, cols = pol.plan(10)
        assert rows.size == 1
        with pytest.raises(ProtocolError, match="column 0 holds 149"):
            pol.commit(env.play(rows, cols)[0])

    @pytest.mark.parametrize("block", [False, True], ids=["per_step", "block"])
    def test_failed_boundary_check_changes_nothing(self, block):
        # row 1 is eliminated at step 592; a bad column count must stop
        # that boundary before any row is absorbed
        pol = Rank1ElimKL(2, 2, 10**4, np.random.default_rng(11))
        env = zero_noise_env([1.0, 0.0], [1.0, 1.0], seed=12)

        def play(steps):
            if block:
                rows, cols = pol.plan(steps)
                pol.commit(env.play(rows, cols)[0])
            else:
                drive(pol, env, steps)

        def public_state():
            return (pol.row_map, pol.col_map, pol.remaining_rows, pol.remaining_cols,
                    pol.stage, list(pol.stage_log))

        play(591)
        before = public_state()
        pol._S[pol.K] = 149
        with pytest.raises(ProtocolError, match="column 0 holds 149"):
            play(1)
        assert public_state() == before

    def test_success_checks_hold_under_python_O(self):
        # python -O strips assert statements: the two tamper tests above
        # must still pass there.  pytest warns that -O disables asserts,
        # which the suite's warnings-as-errors setting would make fatal
        here = Path(__file__).resolve()
        tests = [f"{here}::TestRank1ElimKLSchedule::{name}" for name in (
            "test_more_successes_than_observations_raises",
            "test_column_successes_checked_on_the_block_path")]
        done = subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-W", "ignore:assertions not in test modules:pytest.PytestConfigWarning", *tests],
            cwd=here.parent.parent, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0 and "2 passed" in done.stdout, done.stdout + done.stderr

    def test_redirection_idempotent_and_leaders_survive(self):
        inst = needle_instance(4, 4, 0.25, 0.25, 0.5, 0.5)
        pol = Rank1ElimKL(4, 4, 40000, np.random.default_rng(2))
        env = Environment(inst, np.random.default_rng(6))
        drive(pol, env, 30000)
        h_u, h_v = pol.row_map, pol.col_map
        assert all(h_u[h_u[i]] == h_u[i] for i in range(4))
        assert all(h_v[h_v[j]] == h_v[j] for j in range(4))
        assert pol.remaining_rows == sorted(set(h_u))
        assert pol.remaining_cols == sorted(set(h_v))
        assert len(pol.remaining_rows) >= 1 and len(pol.remaining_cols) >= 1

    def test_needle_2x2_finds_needle(self):
        inst = needle_instance(2, 2, 0.25, 0.25, 0.5, 0.5)
        for seed in (0, 1, 2):
            pol = Rank1ElimKL(2, 2, 50000, np.random.default_rng(seed))
            env = Environment(inst, np.random.default_rng(seed + 100))
            drive(pol, env, 50000)
            assert pol.remaining_rows == [0]
            assert pol.remaining_cols == [0]


def eliminate(K, L, h, lower, upper):
    """One stage boundary of a K x L ``Rank1ElimKL`` whose map is ``h``
    (rows first, on the policy's one index), given the survivors' bounds
    in index order; returns the new map."""
    pol = Rank1ElimKL(K, L, 10**4, np.random.default_rng(0))
    pol._h = list(h)
    pol._walk = memoryview(np.array(sorted(set(h))))
    pol._intervals = lambda mu_hat, pulls: (np.array(lower), np.array(upper))
    pol._advance_stage()
    return pol._h


class TestEliminationRule:
    def test_boundary_equality_eliminates(self):
        # rows 0-2 and one column, entry 3; row 0 leads with lower bound 0.3
        h = eliminate(3, 1, [0, 1, 2, 3], lower=[0.3, 0.1, 0.2, 0.5], upper=[0.9, 0.3, 0.6, 0.6])
        assert h == [0, 0, 2, 3]

    def test_strictly_above_survives(self):
        h = eliminate(2, 1, [0, 1, 2], lower=[0.3, 0.1, 0.5], upper=[0.9, 0.30000001, 0.6])
        assert h == [0, 1, 2]

    def test_repoints_through_old_representative(self):
        # row 2 already points at representative 1; when 1 is absorbed
        # by 0 the stale pointer follows
        h = eliminate(3, 1, [0, 1, 1, 3], lower=[0.5, 0.1, 0.5], upper=[0.9, 0.2, 0.6])
        assert h == [0, 0, 0, 3]

    def test_leader_ties_to_the_lowest_index(self):
        # rows 1 and 2 share the largest lower bound, as do columns 0 and 1
        h = eliminate(3, 3, list(range(6)), lower=[0.1, 0.4, 0.4, 0.3, 0.3, 0.0],
                      upper=[0.2, 0.9, 0.9, 0.8, 0.8, 0.3])
        assert h == [1, 1, 2, 3, 4, 3]


def scalar_boundary(pol) -> list[int]:
    """The map a stage boundary of ``pol`` leaves, worked out one survivor
    at a time through ``confidence_bounds``, the one-mean interval."""
    n_obs, K = pol._n_target, pol.K
    counts = pol._S.tolist()
    lower, upper = {}, {}
    for k in pol._walk:
        lower[k], upper[k] = pol.confidence_bounds(counts[k] / n_obs, n_obs)
    h = list(pol._h)
    for side in ([k for k in pol._walk if k < K], [k for k in pol._walk if k >= K]):
        leader = max(side, key=lambda k: (lower[k], -k))
        h = [leader if r in side and upper[r] <= lower[leader] else r for r in h]
    return h


class TestArrayBoundary:
    @settings(max_examples=40, deadline=None)
    @given(
        cls=st.sampled_from([Rank1ElimKL, Rank1Elim]),
        u=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.75, 1.0]), min_size=1, max_size=8),
        v=st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.55, 1.0]), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    # exact rewards: rows 0 and 1 tie on every count, and row 2 falls to row 0
    @example(cls=Rank1ElimKL, u=[1.0, 1.0, 0.0], v=[1.0, 1.0], seed=0)
    @example(cls=Rank1Elim, u=[1.0, 1.0, 0.0], v=[1.0, 1.0], seed=0)
    def test_eliminates_as_the_scalar_intervals_do(self, cls, u, v, seed):
        # random streams on small grids whose equal means tie; every
        # boundary's map is checked against the one-mean form
        K, L = len(u), len(v)
        pol = cls(K, L, 20_000, np.random.default_rng(seed))
        env = Environment(Rank1Instance(u_bar=u, v_bar=v), np.random.default_rng(seed + 1))
        advance, boundaries = pol._advance_stage, []

        def checked():
            want = scalar_boundary(pol)
            advance()
            assert pol._h == want
            assert pol._walk.tolist() == sorted(set(want))
            boundaries.append(pol.t)

        pol._advance_stage = checked
        while pol.t < pol.horizon:
            rows, cols = pol.plan(4096)
            pol.commit(env.play(rows, cols)[0])
        assert len(boundaries) >= 1


class TestRank1Elim:
    def test_hoeffding_bounds_value(self):
        lo, hi = hoeffding_bounds(0.3, 1000, 5.0)
        assert lo == pytest.approx(0.25, abs=1e-15)
        assert hi == pytest.approx(0.35, abs=1e-15)

    def test_hoeffding_bounds_clipped(self):
        lo, hi = hoeffding_bounds(0.02, 1000, 5.0)
        assert lo == 0.0
        lo, hi = hoeffding_bounds(0.98, 1000, 5.0)
        assert hi == 1.0

    def test_same_budget_as_kl_variant(self):
        a = Rank1ElimKL(2, 2, 10**4, np.random.default_rng(0))
        b = Rank1Elim(2, 2, 10**4, np.random.default_rng(0))
        assert a.budget == b.budget

    def test_wider_than_kl_intervals(self):
        # same budget, looser concentration: the distribution-free interval
        # contains the divergence-based one
        pol = Rank1Elim(2, 2, 10**4, np.random.default_rng(0))
        kl = Rank1ElimKL(2, 2, 10**4, np.random.default_rng(0))
        for mu in (0.0, 0.1, 0.5, 0.9, 1.0):
            lo_h, hi_h = pol.confidence_bounds(mu, 200)
            lo_k, hi_k = kl.confidence_bounds(mu, 200)
            assert lo_h <= lo_k + 1e-12
            assert hi_h >= hi_k - 1e-12

    def test_schedule_matches_kl_variant_until_first_differing_elimination(self):
        inst = needle_instance(4, 4, 0.25, 0.25, 0.5, 0.5)
        steps = 30000
        seqs = {}
        logs = {}
        for cls in (Rank1ElimKL, Rank1Elim):
            pol = cls(4, 4, 10**5, np.random.default_rng(42))
            env = Environment(inst, np.random.default_rng(9))
            seqs[cls.name] = drive(pol, env, steps)
            logs[cls.name] = pol.stage_log
        a, b = seqs["rank1elimkl"], seqs["rank1elim"]
        la, lb = logs["rank1elimkl"], logs["rank1elim"]
        split = None
        for ra, rb in zip(la, lb):
            if (ra.rows, ra.cols) != (rb.rows, rb.cols):
                split = ra.steps
                assert ra.steps == rb.steps  # boundary itself is shared
                break
        if split is None:
            assert a == b
        else:
            assert a[:split] == b[:split]
            assert a[split:] != b[split:]


class TestUCB1:
    def test_init_sweep_order(self):
        pol = UCB1(2, 3, 100, np.random.default_rng(0))
        env = zero_noise_env([0.5, 0.5], [0.5, 0.5, 0.5], seed=1)
        arms = drive(pol, env, 6)
        assert arms == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_scripted_index_sequence(self):
        pol = UCB1(2, 2, 100, np.random.default_rng(0))
        played = []
        for reward in [1, 0, 0, 0, 0, 0]:
            arm = pol.select()
            pol.update(arm, reward)
            played.append(arm)
        assert played == [(0, 0), (0, 1), (1, 0), (1, 1), (0, 0), (0, 1)]

    def test_single_arm(self):
        pol = UCB1(1, 1, 50, np.random.default_rng(0))
        env = zero_noise_env([1.0], [1.0])
        arms = drive(pol, env, 50)
        assert arms == [(0, 0)] * 50

    def test_int8_rewards_do_not_wrap(self):
        # numpy 2 keeps 0 + np.int8(1) an int8, so 130 such additions give -126
        pol = UCB1(1, 1, 300, np.random.default_rng(0))
        for _ in range(300):
            pol.update(pol.select(), np.int8(1))
        assert pol._means[0] == 1.0

    @pytest.mark.parametrize("inst", [
        needle_instance(4, 4, 0.25, 0.25, 0.5, 0.5),
        needle_instance(2, 2, 0.25, 0.25, 0.5, 0.5),
        pbm_like_instance(8, 8, 0.85, 0.5915),
    ], ids=["needle4x4", "needle2x2", "pbm8x8"])
    def test_shortcut_plays_the_full_pass_argmax(self, inst):
        # the arm of every step equals a fresh argmax over all K*L indices,
        # while most steps after the sweep skip the pass
        K, L, steps = inst.K, inst.L, 20_000
        pol = UCB1(K, L, steps, np.random.default_rng(0))
        env = Environment(inst, np.random.default_rng(1))
        ahead = index_calls(pol)
        for t in range(steps):
            want = t
            if t >= K * L:
                width = math.sqrt(2.0 * math.log(t + 1))
                want = int(np.argmax(pol._means + width * pol._inv_sqrt))
            arm = pol.select()
            assert arm == divmod(want, L), t
            pol.update(arm, env.step(*arm))
        # every call is a full pass at its step or a bound a window ahead
        passes, bounds = ahead.count(0), ahead.count(UCB1._WINDOW)
        assert passes + bounds == len(ahead)
        assert 0 < bounds and passes < 0.3 * (steps - K * L), (passes, bounds)

    def test_shortcut_on_a_single_arm(self):
        # the bound is the max over one -inf, so the shortcut always holds
        pol = UCB1(1, 1, 500, np.random.default_rng(0))
        ahead = index_calls(pol)
        rewards = np.random.default_rng(2).integers(0, 2, 500).tolist()
        for t, reward in enumerate(rewards):
            assert pol.select() == (0, 0)
            pol.update((0, 0), reward)
            s = sum(rewards[:t + 1])
            assert pol._counts.tolist() == [t + 1.0]
            assert pol._means.tolist() == [s / (t + 1.0)]
            assert pol._inv_sqrt.tolist() == [1.0 / math.sqrt(t + 1.0)]
        assert pol._bound == -math.inf
        # three agreeing passes, then one pass and one bound per window + 1 steps
        assert ahead.count(0) <= 3 + 500 // (UCB1._WINDOW + 1)

    def test_tie_with_the_bound_runs_the_full_pass(self):
        # all rewards 0 on two arms: the indices tie whenever the counts do,
        # and the arms cycle in row-major order
        pol = UCB1(1, 2, 401, np.random.default_rng(0))
        for t in range(400):
            arm = pol.select()
            assert arm == (0, t % 2), t
            pol.update(arm, 0)
        # a leader whose index equals the stored bound is not clear of it:
        # the full pass breaks the tie toward the lowest flat index
        width = math.sqrt(2.0 * math.log(pol.t + 1))
        assert pol._means[1] + width * pol._inv_sqrt[1] == width * pol._inv_sqrt[0]
        pol._leader, pol._until = 1, pol.t + 1
        pol._bound = width * pol._inv_sqrt.item(0)
        assert pol.select() == (0, 0)

    def test_deterministic_given_seed(self):
        inst = needle_instance(2, 3, 0.2, 0.2, 0.3, 0.3)
        runs = []
        for _ in range(2):
            pol = UCB1(2, 3, 2000, np.random.default_rng(5))
            env = Environment(inst, np.random.default_rng(8))
            runs.append(drive(pol, env, 2000))
        assert runs[0] == runs[1]

    def test_concentrates_on_best_arm(self):
        inst = Rank1Instance(u_bar=[0.9, 0.1], v_bar=[0.9, 0.1])
        pol = UCB1(2, 2, 20000, np.random.default_rng(3))
        env = Environment(inst, np.random.default_rng(4))
        arms = drive(pol, env, 20000)
        frac_best = sum(1 for a in arms[-5000:] if a == (0, 0)) / 5000
        assert frac_best > 0.9


class TestUCB1Elim:
    def test_round_targets(self):
        assert UCB1Elim.round_pull_target(10**4, 0) == 19
        assert UCB1Elim.round_pull_target(10**4, 1) == 63
        assert UCB1Elim.round_pull_target(10**4, 2) > 63  # grows as the width halves
        # the targets grow strictly over the rounds m = 0.._m_max, so every
        # survivor enters a round with exactly the last round's target
        rng = np.random.default_rng(0)
        horizons = set(range(5, 20_000))
        horizons |= set(np.geomspace(20_000, 1e12, 3_000).astype(np.int64).tolist())
        for n in sorted(horizons):
            m_max = UCB1Elim(1, 1, n, rng)._m_max
            targets = [UCB1Elim.round_pull_target(n, m) for m in range(m_max + 1)]
            assert all(a < b for a, b in zip(targets, targets[1:])), n

    def test_first_round_sweep_order(self):
        pol = UCB1Elim(1, 2, 10**4, np.random.default_rng(0))
        env = zero_noise_env([1.0], [1.0, 0.0])
        arms = drive(pol, env, 38)
        assert arms[:19] == [(0, 0)] * 19
        assert arms[19:] == [(0, 1)] * 19

    def test_two_arm_elimination(self):
        # means 1 and 0: after round 0 the gap 1 exceeds twice the radius
        # sqrt(ln(1e4)/38) ~= 0.4923, so the bad arm goes deterministically
        pol = UCB1Elim(1, 2, 10**4, np.random.default_rng(0))
        env = zero_noise_env([1.0], [1.0, 0.0])
        drive(pol, env, 38)
        assert pol.remaining_arms == [(0, 0)]
        arms = drive(pol, env, 100)
        assert arms == [(0, 0)] * 100

    def test_every_arm_remains_in_row_major_order_until_round_0_ends(self):
        # round 0 tops 12 arms up to 19 pulls, 228 steps; then only the
        # two arms with mean 1 are left
        pol = UCB1Elim(3, 4, 10**4, np.random.default_rng(0))
        env = zero_noise_env([1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0])
        every = [(i, j) for i in range(3) for j in range(4)]
        assert pol.remaining_arms == every
        drive(pol, env, 227)
        assert pol.remaining_arms == every
        drive(pol, env, 1)
        assert pol.remaining_arms == [(0, 0), (0, 1)]

    def test_single_arm_never_eliminated(self):
        pol = UCB1Elim(1, 1, 100, np.random.default_rng(0))
        env = zero_noise_env([1.0], [1.0])
        arms = drive(pol, env, 100)
        assert arms == [(0, 0)] * 100
        assert pol.remaining_arms == [(0, 0)]

    def test_deterministic_given_seed(self):
        inst = needle_instance(2, 2, 0.25, 0.25, 0.5, 0.5)
        runs = []
        for _ in range(2):
            pol = UCB1Elim(2, 2, 5000, np.random.default_rng(0))
            env = Environment(inst, np.random.default_rng(13))
            runs.append(drive(pol, env, 5000))
        assert runs[0] == runs[1]


class TestKLUCBPolicy:
    def test_init_sweep_then_concentrates(self):
        inst = Rank1Instance(u_bar=[0.9, 0.1], v_bar=[0.9, 0.1])
        pol = KLUCB(2, 2, 4000, np.random.default_rng(1))
        env = Environment(inst, np.random.default_rng(2))
        arms = drive(pol, env, 4000)
        assert arms[:4] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        frac_best = sum(1 for a in arms[-1000:] if a == (0, 0)) / 1000
        assert frac_best > 0.9

    def test_single_arm(self):
        pol = KLUCB(1, 1, 20, np.random.default_rng(0))
        env = zero_noise_env([1.0], [1.0])
        assert drive(pol, env, 20) == [(0, 0)] * 20

    def test_every_step_after_the_sweep_runs_the_full_pass(self, monkeypatch):
        # the KL index has no shortcut: one argmax over every arm per step,
        # at that step's budget
        budgets, argmax = [], policies.kl_ucb_argmax

        def counted(mu_hat, pulls, delta):
            assert mu_hat.size == pulls.size == 6
            budgets.append(delta)
            return argmax(mu_hat, pulls, delta)

        monkeypatch.setattr(policies, "kl_ucb_argmax", counted)
        inst = needle_instance(2, 3, 0.2, 0.2, 0.3, 0.3)
        pol = KLUCB(2, 3, 300, np.random.default_rng(0))
        drive(pol, Environment(inst, np.random.default_rng(1)), 300)
        want = [math.log(t) + 3.0 * max(0.0, math.log(math.log(t))) for t in range(7, 301)]
        assert budgets == want
