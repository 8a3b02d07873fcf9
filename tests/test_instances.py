"""Tests for instance construction, hardness metrics, and the environment.

Frozen expectations are worked out by hand: a needle instance with base
p and bump delta has one row mean p+delta and K-1 rows at p, so e.g.
K=L=8, p=0.25, delta=0.5 gives mu = (0.75 + 7*0.25)/8 = 0.3125 and best
value 0.75^2 = 0.5625.  Geometric-decay means follow head*decay^(i-1)
directly.
"""

from __future__ import annotations

import json
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from rank1bandit.instances import (
    Environment,
    Rank1Instance,
    compute_metrics,
    load_instance,
    needle_instance,
    parse_instance_spec,
    pbm_like_instance,
    save_instance,
)


@dataclass
class StepOutcome:
    reward: int
    pseudo_regret: float
    stochastic_regret: float


def env_step(inst: Rank1Instance, i: int, j: int, rng: np.random.Generator) -> StepOutcome:
    """Scalar oracle of one step, written from the draw contract alone.

    Draws K + L uniforms from ``rng`` (row coordinates first), realizes
    the Bernoulli vectors u_t and v_t, and compares the played pair with
    the best pair on the same draws (stochastic regret) and in
    expectation (pseudo regret).
    """
    K, L = inst.K, inst.L
    assert 0 <= i < K and 0 <= j < L
    z = rng.random(K + L)
    u_t = z[:K] < inst.u_bar
    v_t = z[K:] < inst.v_bar
    best_row = int(np.argmax(inst.u_bar))
    best_col = int(np.argmax(inst.v_bar))
    reward = int(u_t[i] and v_t[j])
    best_reward = int(u_t[best_row] and v_t[best_col])
    pseudo = float(inst.u_bar[best_row] * inst.v_bar[best_col] - inst.u_bar[i] * inst.v_bar[j])
    return StepOutcome(
        reward=reward,
        pseudo_regret=pseudo,
        stochastic_regret=float(best_reward - reward),
    )


def env_steps(inst: Rank1Instance, arms, seed: int) -> list[StepOutcome]:
    """``Environment.step`` over ``arms``, each step's regrets read as the
    change of the environment's running sums."""
    env = Environment(inst, np.random.default_rng(seed))
    outs = []
    for i, j in arms:
        pseudo, stoch = env.cum_pseudo_regret, env.cum_stochastic_regret
        reward = env.step(i, j)
        outs.append(StepOutcome(reward, env.cum_pseudo_regret - pseudo,
                                env.cum_stochastic_regret - stoch))
    return outs


class TestRank1Instance:
    def test_basic_construction(self):
        inst = Rank1Instance(u_bar=[0.5, 0.25], v_bar=[1.0, 0.0, 0.5])
        assert inst.K == 2
        assert inst.L == 3
        assert inst.u_bar.dtype == np.float64

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Rank1Instance(u_bar=[0.5, 1.5], v_bar=[0.5])
        with pytest.raises(ValueError):
            Rank1Instance(u_bar=[0.5], v_bar=[-0.1])

    def test_rejects_non_numeric(self):
        with pytest.raises(ValueError, match="mean vectors must be numeric"):
            Rank1Instance(u_bar=["high", 0.5], v_bar=[0.5])
        with pytest.raises(ValueError, match="mean vectors must be numeric"):
            Rank1Instance(u_bar=[0.5], v_bar=[[0.5, 0.2], 0.3])

    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError):
            Rank1Instance(u_bar=[], v_bar=[0.5])
        with pytest.raises(ValueError):
            Rank1Instance(u_bar=[0.5], v_bar=[])


class TestGenerators:
    def test_needle_shape(self):
        inst = needle_instance(4, 3, p_u=0.2, p_v=0.3, delta_u=0.5, delta_v=0.1)
        np.testing.assert_allclose(inst.u_bar, [0.7, 0.2, 0.2, 0.2])
        np.testing.assert_allclose(inst.v_bar, [0.4, 0.3, 0.3])

    def test_needle_rejects_bad_params(self):
        with pytest.raises(ValueError):
            needle_instance(2, 2, p_u=0.6, p_v=0.25, delta_u=0.5, delta_v=0.5)
        with pytest.raises(ValueError):
            needle_instance(2, 2, p_u=0.25, p_v=0.25, delta_u=0.0, delta_v=0.5)
        with pytest.raises(ValueError):
            needle_instance(0, 2, p_u=0.25, p_v=0.25, delta_u=0.5, delta_v=0.5)

    def test_geometric_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="K must be at least 1, got 0"):
            pbm_like_instance(0, 3, head_mass=0.8, decay=0.5)
        with pytest.raises(ValueError, match="L must be an integer, got 2.5"):
            pbm_like_instance(3, 2.5, head_mass=0.8, decay=0.5)

    def test_geometric_decay_means(self):
        inst = pbm_like_instance(3, 3, head_mass=0.8, decay=0.5)
        np.testing.assert_allclose(inst.u_bar, [0.8, 0.4, 0.2])
        np.testing.assert_allclose(inst.v_bar, [0.8, 0.4, 0.2])

    def test_geometric_head_clipped(self):
        inst = pbm_like_instance(1, 1, head_mass=1.0, decay=0.9)
        np.testing.assert_allclose(inst.u_bar, [1.0])
        inst2 = pbm_like_instance(2, 2, head_mass=1.5, decay=0.5)
        np.testing.assert_allclose(inst2.u_bar, [1.0, 0.75])

    def test_geometric_rejects_growth(self):
        with pytest.raises(ValueError):
            pbm_like_instance(3, 3, head_mass=0.8, decay=1.2)
        with pytest.raises(ValueError):
            pbm_like_instance(3, 3, head_mass=-0.2, decay=0.5)

    def test_geometric_deterministic(self):
        a = pbm_like_instance(5, 4, head_mass=0.7, decay=0.6)
        b = pbm_like_instance(5, 4, head_mass=0.7, decay=0.6)
        np.testing.assert_array_equal(a.u_bar, b.u_bar)
        np.testing.assert_array_equal(a.v_bar, b.v_bar)


class TestMetrics:
    def test_needle_8x8(self):
        m = compute_metrics(needle_instance(8, 8, 0.25, 0.25, 0.5, 0.5))
        assert m.mu == pytest.approx(0.3125, abs=1e-15)
        assert m.p_max == pytest.approx(0.75, abs=1e-15)
        assert m.gamma == pytest.approx(0.3125, abs=1e-15)
        assert (m.best_row, m.best_col) == (0, 0)
        assert m.best_value == pytest.approx(0.5625, abs=1e-15)
        assert m.min_row_gap == pytest.approx(0.5, abs=1e-15)
        assert m.min_col_gap == pytest.approx(0.5, abs=1e-15)

    def test_needle_32x32_summary(self):
        m = compute_metrics(needle_instance(32, 32, 0.25, 0.25, 0.5, 0.5))
        assert m.mu == pytest.approx(0.265625, abs=1e-15)
        assert m.gamma == pytest.approx(0.265625, abs=1e-15)
        assert m.p_max == pytest.approx(0.75, abs=1e-15)

    def test_constant_rows_give_infinite_min_gap(self):
        m = compute_metrics(Rank1Instance(u_bar=[0.4, 0.4, 0.4], v_bar=[0.6, 0.2]))
        assert m.min_row_gap == math.inf
        assert m.min_col_gap == pytest.approx(0.4, abs=1e-15)
        np.testing.assert_allclose(m.row_gaps, [0.0, 0.0, 0.0])

    def test_gaps_nonnegative_and_zero_at_best(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            inst = Rank1Instance(u_bar=rng.uniform(0, 1, 5), v_bar=rng.uniform(0, 1, 4))
            m = compute_metrics(inst)
            assert (m.row_gaps >= 0).all() and (m.col_gaps >= 0).all()
            assert m.row_gaps[m.best_row] == 0.0
            assert m.col_gaps[m.best_col] == 0.0

    def test_ties_break_to_lowest_index(self):
        m = compute_metrics(Rank1Instance(u_bar=[0.3, 0.7, 0.7], v_bar=[0.5, 0.5]))
        assert (m.best_row, m.best_col) == (1, 0)

    def test_best_pair_matches_brute_force(self):
        # independent oracle: flat argmax over the exhaustive reward matrix
        rng = np.random.default_rng(17)
        for _ in range(100):
            K = int(rng.integers(1, 7))
            L = int(rng.integers(1, 7))
            inst = Rank1Instance(u_bar=rng.uniform(0, 1, K), v_bar=rng.uniform(0, 1, L))
            m = compute_metrics(inst)
            matrix = np.outer(inst.u_bar, inst.v_bar)
            flat = int(np.argmax(matrix))
            assert (m.best_row, m.best_col) == (flat // L, flat % L)
            assert m.best_value == pytest.approx(matrix.max(), abs=1e-15)

    def test_pure_function(self):
        inst = needle_instance(3, 3, 0.2, 0.2, 0.3, 0.3)
        before = inst.u_bar.copy()
        m1 = compute_metrics(inst)
        m2 = compute_metrics(inst)
        np.testing.assert_array_equal(inst.u_bar, before)
        assert m1.mu == m2.mu and m1.best_value == m2.best_value


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        inst = needle_instance(4, 2, 0.25, 0.3, 0.5, 0.2)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        np.testing.assert_array_equal(back.u_bar, inst.u_bar)
        np.testing.assert_array_equal(back.v_bar, inst.v_bar)

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "inst.json"
        save_instance(needle_instance(4, 2, 0.25, 0.3, 0.5, 0.2), path)
        before = path.read_bytes()

        def half_dump(obj, fh):
            fh.write('{"u": [0.5, ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", half_dump)
        with pytest.raises(OSError, match="disk full"):
            save_instance(needle_instance(3, 3, 0.25, 0.25, 0.5, 0.5), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["inst.json"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_instance(tmp_path / "nope.json")

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="[Jj]SON|parse"):
            load_instance(path)

    def test_out_of_range_entry(self, tmp_path):
        path = tmp_path / "range.json"
        path.write_text(json.dumps({"u": [0.5, 1.5], "v": [0.5]}), encoding="utf-8")
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            load_instance(path)

    def test_non_number_entry(self, tmp_path):
        # strings and booleans are not JSON numbers, though numpy would convert them
        path = tmp_path / "types.json"
        for u, v, key in (([0.5, True], [0.5], "u"), ([0.5, 1], [0.5, "1e-1"], "v"),
                          (["0.5", True], [False, "1e-1"], "u"), ([0.5], [None], "v")):
            path.write_text(json.dumps({"u": u, "v": v}), encoding="utf-8")
            with pytest.raises(ValueError, match=f'"{key}" entries must be numbers'):
                load_instance(path)

    def test_empty_dimension(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"u": [], "v": [0.5]}), encoding="utf-8")
        with pytest.raises(ValueError, match="empty|nonempty"):
            load_instance(path)

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([[0.5], [0.5]]), encoding="utf-8")
        with pytest.raises(ValueError, match="expected a JSON object"):
            load_instance(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "nokey.json"
        path.write_text(json.dumps({"u": [0.5]}), encoding="utf-8")
        with pytest.raises(ValueError, match='"v"'):
            load_instance(path)


class TestInstanceSpec:
    def test_needle_spec(self):
        inst = parse_instance_spec("needle:K=8,L=8,p=0.25,gap=0.5")
        ref = needle_instance(8, 8, 0.25, 0.25, 0.5, 0.5)
        np.testing.assert_array_equal(inst.u_bar, ref.u_bar)
        np.testing.assert_array_equal(inst.v_bar, ref.v_bar)

    def test_needle_spec_split_params(self):
        inst = parse_instance_spec("needle:K=2,L=3,p_u=0.1,p_v=0.2,delta_u=0.3,delta_v=0.4")
        np.testing.assert_allclose(inst.u_bar, [0.4, 0.1])
        np.testing.assert_allclose(inst.v_bar, [0.6, 0.2, 0.2])

    def test_pbm_spec(self):
        inst = parse_instance_spec("pbm-like:K=3,L=3,head_mass=0.8,decay=0.5")
        np.testing.assert_allclose(inst.u_bar, [0.8, 0.4, 0.2])

    def test_pbm_spec_has_no_seed_key(self):
        # the profile is fixed by its shape; a seed would do nothing
        with pytest.raises(ValueError, match="seed"):
            parse_instance_spec("pbm-like:K=3,L=3,head_mass=0.8,decay=0.5,seed=1")

    def test_repeated_key_rejected(self):
        # otherwise the last value would win silently, here K=3 over K=8
        with pytest.raises(ValueError, match="needle spec repeats key 'K'"):
            parse_instance_spec("needle:K=8,K=3,L=2,p=0.25,gap=0.5")
        with pytest.raises(ValueError, match="pbm-like spec repeats key 'decay'"):
            parse_instance_spec("pbm-like:K=3,L=3,head_mass=0.8,decay=0.5,decay=0.6")

    def test_split_param_beside_shared_one(self):
        # p_u beside p is not a repeat: it sets the row side, p the other
        inst = parse_instance_spec("needle:K=2,L=2,p=0.25,p_u=0.1,gap=0.5")
        np.testing.assert_allclose(inst.u_bar, [0.6, 0.1])
        np.testing.assert_allclose(inst.v_bar, [0.75, 0.25])

    def test_path_spec(self, tmp_path):
        inst = needle_instance(2, 2, 0.25, 0.25, 0.5, 0.5)
        path = tmp_path / "i.json"
        save_instance(inst, path)
        back = parse_instance_spec(str(path))
        np.testing.assert_array_equal(back.u_bar, inst.u_bar)

    def test_field_without_value(self):
        with pytest.raises(ValueError, match="bad needle spec field 'L8', expected key=value"):
            parse_instance_spec("needle:K=8,L8,p=0.25,gap=0.5")
        with pytest.raises(ValueError, match="bad pbm-like spec field"):
            parse_instance_spec("pbm-like:K=3,L=3,head_mass=0.8,")

    def test_non_numeric_value(self):
        with pytest.raises(ValueError, match="needle spec: K must be an integer, got 'eight'"):
            parse_instance_spec("needle:K=eight,L=8,p=0.25,gap=0.5")
        with pytest.raises(ValueError, match="pbm-like spec: decay must be a number, got 'slow'"):
            parse_instance_spec("pbm-like:K=3,L=3,head_mass=0.8,decay=slow")

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            parse_instance_spec("needle:K=8,L=8,p=0.25,nonsense=1")
        with pytest.raises(ValueError):
            parse_instance_spec("needle:L=8,p=0.25,gap=0.5")  # K missing


class TestEnvStep:
    """``Environment.step`` one pair at a time."""

    def test_deterministic_instance(self):
        inst = Rank1Instance(u_bar=[1.0], v_bar=[1.0])
        for out in env_steps(inst, [(0, 0)] * 5, seed=0):
            assert out.reward == 1
            assert out.pseudo_regret == 0.0
            assert out.stochastic_regret == 0.0

    def test_consumes_fixed_draw_budget_in_row_major_order(self):
        # replaying the raw uniform stream must reproduce the rewards:
        # step t uses draws [t*(K+L), t*(K+L)+K) for rows, then L for columns
        inst = Rank1Instance(u_bar=[0.3, 0.8, 0.5], v_bar=[0.6, 0.1])
        K, L = inst.K, inst.L
        outs = env_steps(inst, [(1, 0)] * 200, seed=123)
        z = np.random.default_rng(123).random(200 * (K + L))
        for t, out in enumerate(outs):
            base = t * (K + L)
            u_draw = z[base + 1] < 0.8
            v_draw = z[base + K + 0] < 0.6
            assert out.reward == int(u_draw and v_draw)

    def test_stochastic_regret_uses_shared_draws(self):
        inst = Rank1Instance(u_bar=[0.9, 0.2], v_bar=[0.8, 0.3])
        for out in env_steps(inst, [(1, 1)] * 300, seed=7):
            assert out.stochastic_regret in (-1.0, 0.0, 1.0)
        # playing the best pair gives zero stochastic regret by definition
        for out in env_steps(inst, [(0, 0)] * 50, seed=7):
            assert out.stochastic_regret == 0.0

    def test_pseudo_regret_value(self):
        inst = needle_instance(8, 8, 0.25, 0.25, 0.5, 0.5)
        (out,) = env_steps(inst, [(1, 1)], seed=1)
        assert out.pseudo_regret == pytest.approx(0.5, abs=1e-15)

    def test_mean_reward_matches_product(self):
        inst = needle_instance(2, 2, 0.3, 0.4, 0.2, 0.1)
        env = Environment(inst, np.random.default_rng(5))
        n = 100_000
        total = sum(env.step(0, 1) for _ in range(n))
        expect = 0.5 * 0.4
        sigma = math.sqrt(expect * (1 - expect) / n)
        assert abs(total / n - expect) < 4 * sigma

    def test_index_out_of_range(self):
        env = Environment(Rank1Instance(u_bar=[0.5], v_bar=[0.5]), np.random.default_rng(0))
        with pytest.raises(IndexError):
            env.step(1, 0)
        with pytest.raises(IndexError):
            env.step(0, -1)
        assert env.steps == 0

    def test_rejected_index_draws_nothing(self):
        # a float or bool index is refused before a chunk of uniforms is
        # drawn, so the steps after it read the stream the valid steps alone
        # do; numpy integers are accepted
        inst = Rank1Instance(u_bar=[0.3, 0.8, 0.5], v_bar=[0.6, 0.1])
        env = Environment(inst, np.random.default_rng(9))
        chunk = env.chunk_steps
        arms = [(t % 3, t % 2) for t in range(2 * chunk + 7)]
        first = [env.step(i, j) for i, j in arms[:chunk]]  # ends a chunk
        for i, j in [(0.5, 0), (1.0, 0), (0, np.float64(1.0)), (True, 0), (0, np.bool_(False))]:
            with pytest.raises(ValueError):
                env.step(i, j)
        rest = [env.step(np.int64(i), np.uint8(j)) for i, j in arms[chunk:]]
        ref = Environment(inst, np.random.default_rng(9))
        assert first + rest == [ref.step(i, j) for i, j in arms]
        assert env.steps == ref.steps == len(arms)
        assert env.cum_pseudo_regret == ref.cum_pseudo_regret
        assert env.cum_stochastic_regret == ref.cum_stochastic_regret


class TestEnvironment:
    def test_matches_pure_steps(self):
        inst = Rank1Instance(u_bar=[0.3, 0.8, 0.5], v_bar=[0.6, 0.1])
        arms = [(t % 3, t % 2) for t in range(1000)]
        env = Environment(inst, np.random.default_rng(42))
        rewards = [env.step(i, j) for i, j in arms]
        rng = np.random.default_rng(42)
        outs = [env_step(inst, i, j, rng) for i, j in arms]
        assert rewards == [o.reward for o in outs]
        # the same gaps summed in the same order: equal to the last bit
        assert env.cum_pseudo_regret == sum(o.pseudo_regret for o in outs)
        assert env.cum_stochastic_regret == sum(o.stochastic_regret for o in outs)

    def test_counts_steps(self):
        env = Environment(Rank1Instance(u_bar=[0.5], v_bar=[0.5]), np.random.default_rng(0))
        for _ in range(37):
            env.step(0, 0)
        assert env.steps == 37

    @pytest.mark.parametrize("make_rng", [
        lambda: np.random.Generator(np.random.MT19937(0)),
        lambda: np.random.Generator(np.random.PCG64DXSM(0)),
        lambda: np.random.RandomState(0),
        lambda: None,
    ])
    def test_rejects_a_generator_not_driven_by_pcg64(self, make_rng):
        # play computes uniforms by PCG64's skip-ahead, so no other stream
        # could be played alike by step and play
        inst = Rank1Instance(u_bar=[0.5], v_bar=[0.5])
        with pytest.raises(ValueError, match="PCG64"):
            Environment(inst, make_rng())

    @pytest.mark.parametrize("n", [64, 1024])
    def test_construction_is_linear_in_k_plus_l(self, n):
        # an Environment holds O(K+L) state until it draws: at most 64 bytes
        # per row and column, whatever the chunk size
        inst = needle_instance(n, n, 0.25, 0.25, 0.5, 0.5)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            Environment(inst, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 64 * (n + n), peak - base
