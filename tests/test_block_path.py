"""The block path: ``plan``/``commit`` on the policy, ``play`` on the environment.

Everything here is checked against the per-step path (``select``/``update``
and ``Environment.step``), which is the reference: the block path must
give the same bits, draw the same uniforms and leave the same state.
"""

from __future__ import annotations

import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rank1bandit.harness as harness
from rank1bandit.harness import _BLOCK_STEPS, ExperimentConfig, default_checkpoints, derive_seed, run_one
from rank1bandit.instances import (
    _JUMP_SPAN,
    _PCG64_MULT,
    _PIECE,
    Environment,
    Rank1Instance,
    _split_jumps,
    save_instance,
)
from rank1bandit.policies import (
    KLUCB,
    UCB1,
    ProtocolError,
    Rank1ElimKL,
    UCB1Elim,
    make_policy,
)

BLOCK_POLICIES = ("rank1elimkl", "rank1elim", "ucb1elim")
# coarse means, so ties, all-zero and all-one rows and columns turn up
MEANS = (0.0, 0.1, 0.25, 0.5, 0.9, 1.0)
mean_vectors = st.lists(st.sampled_from(MEANS), min_size=1, max_size=6)


def policy_state(pol) -> dict:
    """Everything a block or step can change: the public accessors and the
    policy generator's state, so both paths must also draw alike."""
    state = {"t": pol.t, "rng": pol.rng.bit_generator.state}
    if hasattr(pol, "stage_log"):
        state.update(
            stage_log=list(pol.stage_log),
            rows=pol.remaining_rows,
            cols=pol.remaining_cols,
            row_map=pol.row_map,
            col_map=pol.col_map,
            row_successes=pol.row_successes,
            col_successes=pol.col_successes,
        )
    else:
        state["arms"] = pol.remaining_arms
    return state


class TestEnvironmentPlay:
    INST = Rank1Instance(u_bar=[0.3, 0.8, 0.5], v_bar=[0.6, 0.1])
    # K + L = 1000, so uniforms come in chunks of 32 steps and plays straddle them
    WIDE = Rank1Instance(u_bar=np.linspace(0.0, 1.0, 600), v_bar=np.linspace(0.9, 0.1, 400))

    @settings(max_examples=60, deadline=None)
    @given(
        wide=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        calls=st.lists(st.integers(0, 100), min_size=1, max_size=12),
    )
    def test_interleaved_step_and_play_match_all_step(self, wide, seed, calls):
        # a call of length 0 is one step(); any other is one play() of that
        # many pairs
        inst = self.WIDE if wide else self.INST
        arm_rng = np.random.default_rng(seed)
        mixed = Environment(inst, np.random.default_rng(seed))
        stepped = Environment(inst, np.random.default_rng(seed))
        for m in calls:
            rows = arm_rng.integers(inst.K, size=max(m, 1))
            cols = arm_rng.integers(inst.L, size=max(m, 1))
            want = [
                (stepped.step(int(i), int(j)), stepped.cum_pseudo_regret,
                 stepped.cum_stochastic_regret)
                for i, j in zip(rows, cols)
            ]
            if m == 0:
                got = [(mixed.step(int(rows[0]), int(cols[0])), mixed.cum_pseudo_regret,
                        mixed.cum_stochastic_regret)]
            else:
                rewards, pseudo, stoch = mixed.play(rows, cols)
                assert rewards.dtype == np.int8
                got = list(zip(rewards.tolist(), pseudo.tolist(), stoch.tolist()))
            assert got == want
            assert (mixed.steps, mixed.cum_pseudo_regret, mixed.cum_stochastic_regret) == (
                stepped.steps, stepped.cum_pseudo_regret, stepped.cum_stochastic_regret)

    def test_play_draws_a_chunk_at_a_time(self):
        # a block of _BLOCK_STEPS pairs, begun 5 steps into a 32-step chunk,
        # reads the 27 steps left in it and then the next 4,069 steps'
        # four uniforms by skip-ahead, which leaves the generator where
        # drawing all their uniforms would; the 40 steps after it draw two
        # chunks, and the block with its tail plays the stream of the
        # all-step run
        span = self.WIDE.K + self.WIDE.L
        rng = np.random.default_rng(11)
        env = Environment(self.WIDE, rng)
        ref = Environment(self.WIDE, np.random.default_rng(11))
        arm_rng = np.random.default_rng(12)
        m = _BLOCK_STEPS
        rows = arm_rng.integers(self.WIDE.K, size=m + 40)
        cols = arm_rng.integers(self.WIDE.L, size=m + 40)
        want = [ref.step(int(i), int(j)) for i, j in zip(rows, cols)]
        got = [env.step(int(i), int(j)) for i, j in zip(rows[:5], cols[:5])]
        assert rng.bit_generator.state == drawn_state(11, 32 * span)
        assert env.chunk_steps == 32 and m == 4096
        rewards, pseudo, stoch = env.play(rows[5:5 + m], cols[5:5 + m])
        assert rng.bit_generator.state == drawn_state(11, (5 + m) * span)
        assert (pseudo[-1], stoch[-1]) == (env.cum_pseudo_regret, env.cum_stochastic_regret)
        got += rewards.tolist()
        got += [env.step(int(i), int(j)) for i, j in zip(rows[5 + m:], cols[5 + m:])]
        assert rng.bit_generator.state == drawn_state(11, (5 + m + 64) * span)
        assert got == want
        assert (env.steps, env.cum_pseudo_regret, env.cum_stochastic_regret) == (
            ref.steps, ref.cum_pseudo_regret, ref.cum_stochastic_regret)

    @pytest.mark.parametrize("K, L", [(60, _JUMP_SPAN - 61), (60, _JUMP_SPAN - 60), (60, 40), (1024, 1024)])
    def test_play_after_steps_reads_the_stream(self, K, L):
        # 7 steps draw a chunk, then two blocks: the first begins mid-chunk.
        # Just below the crossover play draws whole chunks; from it up it
        # computes the four uniforms a step reads, bit for bit those of
        # rng.random, and leaves the generator where drawing them would
        inst = Rank1Instance(u_bar=np.linspace(0.05, 0.95, K), v_bar=np.linspace(0.9, 0.2, L))
        span = K + L
        env = SpyEnvironment(inst, np.random.default_rng(21))
        ref = Environment(inst, np.random.default_rng(21))
        arm_rng = np.random.default_rng(22)
        m = _BLOCK_STEPS
        rows, cols = arm_rng.integers(K, size=7 + 2 * m), arm_rng.integers(L, size=7 + 2 * m)
        want = [(ref.step(int(i), int(j)), ref.cum_pseudo_regret, ref.cum_stochastic_regret)
                for i, j in zip(rows, cols)]
        got = [(env.step(int(i), int(j)), env.cum_pseudo_regret, env.cum_stochastic_regret)
               for i, j in zip(rows[:7], cols[:7])]
        for a in (7, 7 + m):
            rewards, pseudo, stoch = env.play(rows[a:a + m], cols[a:a + m])
            got += list(zip(rewards.tolist(), pseudo.tolist(), stoch.tolist()))
        assert got == want
        cs = env.chunk_steps
        if span < _JUMP_SPAN:
            assert env.jumped == []
            drawn = -(-(7 + 2 * m) // cs) * cs
        else:
            drawn = 7 + 2 * m
            # the steps after the first chunk were jumped, in two calls
            assert [len(x) for x in env.jumped] == [7 + m - cs, m]
            t = np.arange(cs, 7 + 2 * m)
            best_row, best_col = int(np.argmax(inst.u_bar)), int(np.argmax(inst.v_bar))
            local = np.column_stack((rows[t], cols[t] + K, np.full(t.size, best_row),
                                     np.full(t.size, K + best_col)))
            want_z = stream_reads(21, cs, local, span)
            assert np.concatenate(env.jumped).view(np.uint64).tolist() == want_z.view(np.uint64).tolist()
        assert env._rng.bit_generator.state == drawn_state(21, drawn * span)

    def test_jump_keeps_a_buffered_half_word(self):
        # drawing doubles keeps the 32-bit half that a uint32 draw buffers;
        # play must leave the state drawing would, that half included
        inst = Rank1Instance(u_bar=np.full(50, 0.5), v_bar=np.full(50, 0.5))
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        for g in (rng, ref):
            g.integers(0, 10, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        Environment(inst, rng).play(np.zeros(100, int), np.zeros(100, int))
        ref.random(100 * 100)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_jump_follows_a_replaced_generator_state(self):
        # the jump tables depend on the generator's increment; a state set
        # from another seed's generator must be played with that one's
        inst = Rank1Instance(u_bar=np.linspace(0.1, 0.9, 60), v_bar=np.linspace(0.9, 0.1, 40))
        rng = np.random.default_rng(4)
        env = Environment(inst, rng)
        rows, cols = np.arange(300) % 60, np.arange(300) % 40
        env.play(rows, cols)
        other = np.random.default_rng(5)
        assert other.bit_generator.state["state"]["inc"] != rng.bit_generator.state["state"]["inc"]
        rng.bit_generator.state = other.bit_generator.state
        ref = Environment(inst, other)
        assert env.play(rows, cols)[0].tolist() == [ref.step(int(i), int(j)) for i, j in zip(rows, cols)]

    def test_jump_state_is_linear_in_k_plus_l(self):
        # after a block played by skip-ahead at 1024x1024, the environment
        # holds 4 uint64 per row and column and O(sqrt(_PIECE)) constants
        inst = Rank1Instance(u_bar=np.full(1024, 0.5), v_bar=np.full(1024, 0.5))
        span = inst.K + inst.L
        tracemalloc.start()
        try:
            env = Environment(inst, np.random.default_rng(0))
            base = tracemalloc.get_traced_memory()[0]
            out = env.play(np.zeros(_BLOCK_STEPS, int), np.ones(_BLOCK_STEPS, int))
            del out
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert env._offset_jumps.shape == (4, span) and env._offset_jumps.dtype == np.uint64
        assert sum(x.size for x in env._piece_jumps) <= 4 * 2 * (math.isqrt(_PIECE) + 1)
        assert env._chunk.size == 0
        assert held <= 4 * 8 * span + 1024 * _BLOCK_STEPS.bit_length(), held

    def test_reads_k_plus_l_uniforms_per_step_rows_first(self):
        K, L = self.INST.K, self.INST.L
        env = Environment(self.INST, np.random.default_rng(123))
        rows = np.array([1] * 200)
        cols = np.array([0] * 200)
        rewards, _, _ = env.play(rows, cols)
        z = np.random.default_rng(123).random(200 * (K + L)).reshape(200, K + L)
        assert rewards.tolist() == ((z[:, 1] < 0.8) & (z[:, K] < 0.6)).tolist()

    def test_index_out_of_range(self):
        env = Environment(self.INST, np.random.default_rng(0))
        with pytest.raises(IndexError):
            env.play([0, 3], [0, 0])
        with pytest.raises(IndexError):
            env.play([0, 0], [0, -1])
        with pytest.raises(ValueError):
            env.play([0, 0], [0])
        # step rejects a fractional index, so play must not truncate it
        with pytest.raises(ValueError):
            env.play([0.7, 1.9], [0, 1])
        with pytest.raises(ValueError):
            env.play(np.array([0, 1]), np.array([0.0, 1.0]))
        assert env.steps == 0

    def test_empty_block(self):
        env = Environment(self.INST, np.random.default_rng(0))
        rewards, pseudo, stoch = env.play([], [])
        assert rewards.size == pseudo.size == stoch.size == 0
        assert env.steps == 0


@pytest.mark.parametrize("n", [1, 2, 3, 95, 96, 99, 100, 120, 121, 1024, 2048])
def test_split_rebuilds_every_jump_up_to_n(n):
    # J**r followed by J**(q*b) is t = q*b + r steps of J: s -> A*s + C, for
    # every t <= n, at perfect squares and their neighbours too
    A, C, mask = _PCG64_MULT, 0x5851F42D4C957F2D14057B7EF767814F, (1 << 128) - 1
    (short_a, short_c), (long_a, long_c) = (
        [[int(h) << 64 | int(lo) for h, lo in zip(limbs[k], limbs[k + 1])] for k in (0, 2)]
        for limbs in _split_jumps(A, C, n))
    b = len(short_a)
    assert b == math.isqrt(n) + 1 and len(long_a) == n // b + 1
    a, c = 1, 0
    for t in range(n + 1):
        q, r = divmod(t, b)
        assert (long_a[q] * short_a[r] & mask, (long_a[q] * short_c[r] + long_c[q]) & mask) == (a, c), t
        a, c = A * a & mask, (A * c + C) & mask


def drawn_state(seed, n):
    """The state of a generator seeded with ``seed`` after n doubles."""
    rng = np.random.default_rng(seed)
    for a in range(0, n, 1 << 20):
        rng.random(min(n - a, 1 << 20))
    return rng.bit_generator.state


def stream_reads(seed, skip, local, span):
    """The uniforms ``rng.random`` gives at offsets local[t] of step
    skip + t of the stream of a generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(skip * span)
    out = np.empty(local.shape)
    for a in range(0, len(local), 256):
        z = rng.random(min(256, len(local) - a) * span).reshape(-1, span)
        out[a:a + len(z)] = np.take_along_axis(z, local[a:a + len(z)], axis=1)
    return out


class SpyEnvironment(Environment):
    """An environment that keeps the uniforms of every skip-ahead."""

    def __init__(self, inst, rng):
        super().__init__(inst, rng)
        self.jumped = []

    def _jump(self, local, z):
        super()._jump(local, z)
        self.jumped.append(z.copy())


def zero_noise_env(u, v, seed=0):
    return Environment(Rank1Instance(u_bar=u, v_bar=v), np.random.default_rng(seed))


def play_block(pol, env, limit):
    rows, cols = pol.plan(limit)
    rewards, _, _ = env.play(rows, cols)
    pol.commit(rewards)
    return rows, cols


class TestPlanCommitProtocol:
    def test_only_elimination_policies_plan(self):
        for name in BLOCK_POLICIES:
            assert hasattr(make_policy(name, 2, 2, 10, np.random.default_rng(0)), "plan")
        for cls in (UCB1, KLUCB):
            assert not hasattr(cls(2, 2, 10, np.random.default_rng(0)), "plan")

    def test_plan_then_select_or_plan_again(self):
        pol = Rank1ElimKL(2, 2, 100, np.random.default_rng(0))
        pol.plan(3)
        with pytest.raises(ProtocolError):
            pol.select()
        with pytest.raises(ProtocolError):
            pol.plan(3)
        with pytest.raises(ProtocolError):
            pol.update((0, 0), 1)

    def test_select_then_plan(self):
        pol = UCB1Elim(2, 2, 100, np.random.default_rng(0))
        pol.select()
        with pytest.raises(ProtocolError):
            pol.plan(3)

    def test_commit_without_plan(self):
        pol = Rank1ElimKL(2, 2, 100, np.random.default_rng(0))
        with pytest.raises(ProtocolError):
            pol.commit(np.array([1]))

    def test_commit_of_the_wrong_length(self):
        pol = Rank1ElimKL(2, 2, 100, np.random.default_rng(0))
        pol.plan(4)
        for rewards in (np.zeros(3, np.int8), np.zeros(5, np.int8), np.zeros((4, 1), np.int8)):
            with pytest.raises(ProtocolError):
                pol.commit(rewards)
        pol.commit(np.zeros(4, np.int8))
        assert pol.t == 4

    def test_commit_rejects_non_binary_rewards(self):
        pol = UCB1Elim(2, 2, 100, np.random.default_rng(0))
        pol.plan(4)
        with pytest.raises(ValueError):
            pol.commit(np.array([0, 1, 2, 0]))
        with pytest.raises(ValueError):
            pol.commit(np.array([0.0, 0.5, 1.0, 0.0]))
        pol.commit(np.array([0, 1, 1, 0]))
        assert pol.t == 4

    def test_plan_bad_limit_and_past_horizon(self):
        pol = UCB1Elim(1, 1, 5, np.random.default_rng(0))
        for bad in (0, 2.5, True):
            with pytest.raises(ValueError):
                pol.plan(bad)
        env = zero_noise_env([1.0], [1.0])
        # round 0 asks ceil(2 ln 5) = 4 pulls, then the horizon cuts; a
        # numpy integer limit is accepted
        sizes = [play_block(pol, env, limit)[0].size for limit in (np.int64(3), 100, 100)]
        assert sizes == [3, 1, 1] and pol.t == 5
        with pytest.raises(ProtocolError):
            pol.plan(1)

    def test_rank1elim_plan_stops_at_stage_boundary(self):
        # horizon 10^4 on 2x2: stage 0 ends after 148 rounds of 4 steps
        pol = Rank1ElimKL(2, 2, 10**4, np.random.default_rng(1))
        env = zero_noise_env([1.0, 0.0], [1.0, 1.0], seed=2)
        ends = []
        while pol.stage == 0:
            play_block(pol, env, 100)
            ends.append(pol.t)
        assert ends[-1] == 592 and ends[-2] == 500
        assert pol.remaining_rows == [0]
        rows, _ = play_block(pol, env, 10**6)
        assert pol.t - 592 == rows.size == (590 - 148) * 3

    def test_ucb1elim_plan_stops_at_round_end(self):
        # round 0 tops both arms up to 19 pulls; the bad arm then goes
        pol = UCB1Elim(1, 2, 10**4, np.random.default_rng(0))
        env = zero_noise_env([1.0], [1.0, 0.0])
        rows, cols = play_block(pol, env, 10)
        assert cols.tolist() == [0] * 10
        rows, cols = play_block(pol, env, 10**6)
        assert cols.tolist() == [0] * 9 + [1] * 19
        assert pol.remaining_arms == [(0, 0)]

    def test_ucb1elim_cycles_two_survivors(self):
        # horizon 576: rounds 0-3 top both arms up to 13, 40, 115 and 282
        # pulls, none can separate means 1 and 0.99, and from step 564 on
        # the two survivors alternate, so blocks wrap around them
        pol = UCB1Elim(1, 2, 576, np.random.default_rng(0))
        env = zero_noise_env([1.0], [1.0, 0.99])
        while pol.t < 564:
            play_block(pol, env, 100)
        assert pol.t == 564 and pol.remaining_arms == [(0, 0), (0, 1)]
        _, cols = play_block(pol, env, 5)
        assert cols.tolist() == [0, 1, 0, 1, 0]
        _, cols = play_block(pol, env, 100)
        assert cols.tolist() == [1, 0, 1, 0, 1, 0, 1]
        assert pol.t == 576

        inst = Rank1Instance(u_bar=[1.0], v_bar=[1.0, 0.99])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "inst.json"
            save_instance(inst, path)
            config = ExperimentConfig(instance=str(path), policy="ucb1elim", horizon=576,
                                      runs=1, master_seed=5)
            trace, pol = run_one_keeping_policy(config, 0)
        pseudo, stoch, ref = reference_loop("ucb1elim", inst, 576, 5, 0)
        assert pseudo[-1] == pytest.approx(288 * 0.01)  # arm (0, 1) played 282 + 6 times
        assert trace.cum_pseudo_regret == pseudo
        assert trace.cum_stochastic_regret == stoch
        assert policy_state(pol) == policy_state(ref)

    def test_ucb1elim_blocks_add_the_per_step_sums(self):
        # horizon 690 on 2x2: round 0 tops every arm up to 14 pulls and
        # drops row 0 at step 56; rounds 1-3 leave arms 2 and 3, which
        # are cycled from step 638, so the blocks of 5 and 7 wrap round
        # them, the second from the later one.  The blocks of 9 begin
        # and end inside an arm's run of 14
        env = zero_noise_env([0.0, 1.0], [1.0, 1.0])
        ref_env = zero_noise_env([0.0, 1.0], [1.0, 1.0])
        pol = UCB1Elim(2, 2, 690, np.random.default_rng(0))
        ref = UCB1Elim(2, 2, 690, np.random.default_rng(0))
        limits = [9] * 6 + [1000] * 4 + [5, 7, 1000]
        for limit in limits:
            rows, cols = play_block(pol, env, limit)
            for arm in zip(rows.tolist(), cols.tolist()):
                assert ref.select() == arm
                ref.update(arm, ref_env.step(*arm))
            assert pol._sums.tolist() == ref._sums.tolist()
            assert policy_state(pol) == policy_state(ref)
            if pol.t == 56:
                assert pol.remaining_arms == [(1, 0), (1, 1)]
            if pol.t == 643:
                assert cols.tolist() == [0, 1, 0, 1, 0]
            if pol.t == 650:
                assert cols.tolist() == [1, 0, 1, 0, 1, 0, 1]
        assert pol.t == 690 and pol._sums.tolist() == [0, 0, 331, 331]

    def test_ucb1elim_round_0_holds_only_the_sums(self):
        # at 1024x1024 and horizon 10^4, round 0 plays each arm 19 times
        # and outlasts the run, so no candidate table is built: the three
        # blocks to the horizon allocate the 8 MiB of sums and little else
        rewards = np.random.default_rng(1).integers(0, 2, size=10_000)
        # a small block first, so numpy's lazy imports are not measured
        warm = UCB1Elim(2, 2, 100, np.random.default_rng(0))
        warm.commit(np.zeros(warm.plan(10)[0].size, np.int8))
        tracemalloc.start()
        try:
            pol = UCB1Elim(1024, 1024, 10_000, np.random.default_rng(0))
            for _ in range(3):
                rows, _ = pol.plan(_BLOCK_STEPS)
                pol.commit(rewards[pol.t:pol.t + rows.size])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pol.t == 10_000
        assert pol._sums[:527].sum() == pol._sums.sum() == rewards.sum()
        assert peak < 9 * 2**20, peak


def reference_loop(name, inst, horizon, master_seed, run_index):
    """run_one's seeds, played one select/update/step at a time."""
    env = Environment(inst, np.random.default_rng(derive_seed(master_seed, run_index, "env")))
    pol = make_policy(name, inst.K, inst.L, horizon,
                      np.random.default_rng(derive_seed(master_seed, run_index, "policy")))
    checkpoints = default_checkpoints(horizon)
    pseudo, stoch = [], []
    for t in range(1, horizon + 1):
        i, j = pol.select()
        pol.update((i, j), env.step(i, j))
        if t in checkpoints:
            pseudo.append(env.cum_pseudo_regret)
            stoch.append(env.cum_stochastic_regret)
    return pseudo, stoch, pol


def run_one_keeping_policy(config, run_index):
    built = []
    original = harness.make_policy

    def keeping(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    harness.make_policy = keeping
    try:
        trace = run_one(config, run_index)
    finally:
        harness.make_policy = original
    return trace, built[0]


@settings(max_examples=80, deadline=None)
@given(
    u=mean_vectors,
    v=mean_vectors,
    horizon=st.integers(5, 3000),
    name=st.sampled_from(BLOCK_POLICIES),
    master_seed=st.integers(0, 2**63 - 1),
    run_index=st.integers(0, 50),
)
def test_run_one_matches_per_step_loop(u, v, horizon, name, master_seed, run_index):
    inst = Rank1Instance(u_bar=u, v_bar=v)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        save_instance(inst, path)
        config = ExperimentConfig(instance=str(path), policy=name, horizon=horizon,
                                  runs=1, master_seed=master_seed)
        trace, pol = run_one_keeping_policy(config, run_index)
    pseudo, stoch, ref = reference_loop(name, inst, horizon, master_seed, run_index)
    assert trace.cum_pseudo_regret == pseudo
    assert trace.cum_stochastic_regret == stoch
    assert policy_state(pol) == policy_state(ref)
    assert pol.t == horizon


@pytest.mark.parametrize("name", BLOCK_POLICIES)
def test_run_one_on_a_wide_instance_matches_per_step_loop(name):
    # K + L = 1000: each block of 4,096 steps spans 128 chunks of 32 steps,
    # and the horizon cuts a fourth block short
    inst = TestEnvironmentPlay.WIDE
    horizon = 3 * 4096 + 500
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        save_instance(inst, path)
        config = ExperimentConfig(instance=str(path), policy=name, horizon=horizon,
                                  runs=1, master_seed=3)
        trace, pol = run_one_keeping_policy(config, 1)
    pseudo, stoch, ref = reference_loop(name, inst, horizon, 3, 1)
    assert trace.cum_pseudo_regret == pseudo
    assert trace.cum_stochastic_regret == stoch
    assert policy_state(pol) == policy_state(ref)


@settings(max_examples=60, deadline=None)
@given(
    u=mean_vectors,
    v=mean_vectors,
    name=st.sampled_from(BLOCK_POLICIES),
    seed=st.integers(0, 2**32 - 1),
    moves=st.lists(st.integers(0, 300), min_size=1, max_size=40),
)
def test_mixed_protocols_leave_the_per_step_state(u, v, name, seed, moves):
    # a move of 0 is one select/update; any other is a block of at most
    # that many steps; after every move both policies must agree
    inst = Rank1Instance(u_bar=u, v_bar=v)
    horizon = 2000
    mixed = make_policy(name, inst.K, inst.L, horizon, np.random.default_rng(seed))
    ref = make_policy(name, inst.K, inst.L, horizon, np.random.default_rng(seed))
    env_mixed = Environment(inst, np.random.default_rng(seed + 1))
    env_ref = Environment(inst, np.random.default_rng(seed + 1))
    for limit in moves:
        if mixed.t >= horizon:
            break
        if limit == 0:
            arms = [mixed.select()]
            mixed.update(arms[0], env_mixed.step(*arms[0]))
        else:
            rows, cols = play_block(mixed, env_mixed, limit)
            assert 1 <= rows.size <= limit
            arms = list(zip(rows.tolist(), cols.tolist()))
        for arm in arms:
            assert ref.select() == arm
            ref.update(arm, env_ref.step(*arm))
        assert policy_state(mixed) == policy_state(ref)
        assert env_mixed.cum_pseudo_regret == env_ref.cum_pseudo_regret


class CountingRng:
    """A policy generator that counts the values its ``integers`` draws."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator
        self.drawn = 0

    def integers(self, *args, **kwargs):
        out = self._rng.integers(*args, **kwargs)
        self.drawn += np.size(out)
        return out


def draws_expected(pol) -> int:
    """Two draws per round begun before the horizon in a stage with more
    than one row or column, from the stage log and the schedule alone."""
    draws, start, width, done = 0, 0, pol.K + pol.L, 0
    for stage in range(pol.stage + 1):
        target = math.ceil(16.0 * 4.0**stage * math.log(pol.horizon))
        begun = min(target - done, -(-(pol.horizon - start) // width))
        if width > 2:
            draws += 2 * begun
        if stage < len(pol.stage_log):
            rec = pol.stage_log[stage]
            start, width, done = rec.steps, len(rec.rows) + len(rec.cols), rec.n_obs
    return draws


@pytest.mark.parametrize("blocks", [False, True])
@pytest.mark.parametrize(
    "u, v, horizon, draws, collapse_step",
    [
        # one row and one column are left after stage 0's 137 rounds, at
        # step 685, and the run goes on to the horizon with no draw
        ([1.0, 0.0, 0.0], [1.0, 0.0], 5000, 2 * 137, 685),
        # ties keep every row and column; the horizon cuts round 36 of
        # stage 0 after its first step
        ([0.5, 0.5], [0.5, 0.5, 0.5], 176, 2 * 36, None),
    ],
)
def test_two_draws_per_round_begun_and_none_at_one_by_one(
        u, v, horizon, draws, collapse_step, blocks):
    inst = Rank1Instance(u_bar=u, v_bar=v)
    env = Environment(inst, np.random.default_rng(7))
    rng = CountingRng(8)
    pol = Rank1ElimKL(inst.K, inst.L, horizon, rng)
    calls_at_collapse = None
    while pol.t < horizon:
        if blocks:
            play_block(pol, env, 64)
        else:
            arm = pol.select()
            pol.update(arm, env.step(*arm))
        if calls_at_collapse is None and len(pol.remaining_rows) == len(pol.remaining_cols) == 1:
            calls_at_collapse = rng.drawn
    assert rng.drawn == draws_expected(pol) == draws
    if collapse_step is None:
        assert calls_at_collapse is None
    else:
        assert pol.stage_log[0].steps == collapse_step and calls_at_collapse == draws


@settings(max_examples=200, deadline=None)
@given(
    L=st.integers(1, 2048),
    K=st.integers(1, 2048),
    n=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    half_word=st.booleans(),
)
def test_one_integers_call_draws_the_scalar_pairs(L, K, n, seed, half_word):
    # Rank1ElimKL._draw relies on this numpy behaviour, which numpy does not
    # document: one call over the bounds [L, K] returns the (column, row)
    # pairs of 2n alternating scalar calls and leaves the generator where
    # they would, a buffered 32-bit half word included
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    if half_word:
        for g in (rng, ref):
            g.integers(0, 10, dtype=np.uint32)
    got = rng.integers(0, [L, K], size=(n, 2))
    want = [[int(ref.integers(L)), int(ref.integers(K))] for _ in range(n)]
    assert got.tolist() == want
    assert rng.bit_generator.state == ref.bit_generator.state
