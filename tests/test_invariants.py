"""Invariants of the policies under arbitrary rewards.

``test_flat_policies_match_reference`` drives UCB1 and KL-UCB with
Hypothesis-drawn reward streams, given as int, bool, numpy int8 or float,
and after every step compares the arm played and the bits of every
count, mean and inverse square root with ``FlatReference``, the formulas
written out plainly: float64 sums, an index array built afresh each step,
``np.argmax``.  Under all-zero rewards every index ties after the sweep,
so the arms must also cycle in row-major order.

``test_elimination_invariants`` checks Rank1ElimKL and Rank1Elim.  Its
rewards come from no instance: a Hypothesis-drawn 0/1 table over the
K x L pairs, flipped by a drawn 0/1 noise pattern that repeats along the
steps.  An all-zero pattern gives noiseless rewards, so eliminations
happen; any other gives a stream no Bernoulli model would produce.  The
policies are driven through both protocols, ``select``/``update`` and
``plan``/``commit``, mixed as drawn, and after every move

* the redirection maps are idempotent: h[h[i]] == h[i];
* the surviving rows and columns are exactly the images of the maps;
* the survivor sets never grow, and ``stage_log`` holds one record per
  finished stage whose survivors shrink along the log and whose last
  entry equals the current survivors;
* every success count lies between 0 and the number of rewarded plays of
  that row or column;
* every pair played was made of survivors when it was played.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from rank1bandit.klucb import kl_ucb_upper_many
from rank1bandit.policies import make_policy

REWARD_TYPES = {"int": int, "bool": bool, "int8": np.int8, "float": float}


class FlatReference:
    """UCB1 (or KL-UCB) over K*L arms, one float64 array per statistic."""

    def __init__(self, name: str, K: int, L: int):
        n = K * L
        self.name, self.L, self.t = name, L, 0
        self.counts, self.sums = np.zeros(n), np.zeros(n)
        self.means, self.inv_sqrt = np.zeros(n), np.zeros(n)

    def select(self) -> tuple[int, int]:
        t = self.t
        if t < self.counts.size:
            a = t
        elif self.name == "ucb1":
            width = math.sqrt(2.0 * math.log(t + 1))
            a = int(np.argmax(self.means + width * self.inv_sqrt))
        else:
            log_t = math.log(t + 1)
            budget = log_t + 3.0 * max(0.0, math.log(log_t))
            a = int(np.argmax(kl_ucb_upper_many(self.means, self.counts, budget)))
        return (a // self.L, a % self.L)

    def update(self, arm: tuple[int, int], reward) -> None:
        a = arm[0] * self.L + arm[1]
        c = self.counts[a] + 1.0
        self.counts[a] = c
        self.sums[a] += reward
        self.means[a] = self.sums[a] / c
        self.inv_sqrt[a] = 1.0 / math.sqrt(c)
        self.t += 1


def hexes(values: np.ndarray) -> list[str]:
    return [float.hex(x) for x in values.tolist()]


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(["ucb1", "klucb"]),
    K=st.integers(1, 5),
    L=st.integers(1, 5),
    horizon=st.integers(5, 400),
    kind=st.sampled_from(sorted(REWARD_TYPES)),
    zero=st.booleans(),
    # arm a's reward at step t is table[a] ^ noise[t % len(noise)], or 0
    table=st.lists(st.integers(0, 1), min_size=25, max_size=25),
    noise=st.lists(st.integers(0, 1), min_size=1, max_size=50),
)
# 300 int8 ones on one arm: a sum kept in the reward's type wraps at 128
@example(name="ucb1", K=1, L=1, horizon=300, kind="int8", zero=False, table=[1] * 25, noise=[0])
def test_flat_policies_match_reference(name, K, L, horizon, kind, zero, table, noise):
    as_type = REWARD_TYPES[kind]
    pol = make_policy(name, K, L, horizon, np.random.default_rng(0))
    ref = FlatReference(name, K, L)
    for t in range(horizon):
        arm = pol.select()
        assert arm == ref.select()
        if zero:
            # every index ties after the sweep: lowest flat index first
            assert arm == divmod(t % (K * L), L)
        reward = as_type(0 if zero else table[arm[0] * L + arm[1]] ^ noise[t % len(noise)])
        pol.update(arm, reward)
        ref.update(arm, reward)
        assert hexes(pol._counts) == hexes(ref.counts)
        assert hexes(pol._means) == hexes(ref.means)
        assert hexes(pol._inv_sqrt) == hexes(ref.inv_sqrt)
    event(f"horizon {'<' if horizon < K * L else '>='} K*L")


def check_state(pol, prev_rows: set, prev_cols: set, hits_u, hits_v) -> None:
    rows, cols = pol.remaining_rows, pol.remaining_cols
    for h, survivors, prev in ((pol.row_map, rows, prev_rows), (pol.col_map, cols, prev_cols)):
        assert all(h[h[k]] == h[k] for k in range(len(h)))
        assert survivors == sorted(set(h))
        assert set(survivors) <= prev
    log = pol.stage_log
    assert [r.stage for r in log] == list(range(pol.stage))
    for before, after in zip(log, log[1:]):
        assert set(after.rows) <= set(before.rows) and set(after.cols) <= set(before.cols)
        assert before.steps < after.steps and before.n_obs < after.n_obs
    if log:
        assert (list(log[-1].rows), list(log[-1].cols)) == (rows, cols)
    for successes, hits in ((pol.row_successes, hits_u), (pol.col_successes, hits_v)):
        assert all(0 <= s <= h for s, h in zip(successes, hits))


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(["rank1elimkl", "rank1elim"]),
    K=st.integers(1, 6),
    L=st.integers(1, 6),
    horizon=st.integers(5, 4000),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_elimination_invariants(name, K, L, horizon, seed, data):
    table = data.draw(st.lists(st.integers(0, 1), min_size=K * L, max_size=K * L), "table")
    noise = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=50), "noise")
    # a move of 0 is one select/update; any other is a block of at most
    # that many steps; the moves repeat until the horizon
    moves = data.draw(st.lists(st.integers(0, 400), min_size=1, max_size=20), "moves")
    pol = make_policy(name, K, L, horizon, np.random.default_rng(seed))
    hits_u, hits_v = [0] * K, [0] * L

    def reward(i: int, j: int, t: int) -> int:
        r = table[i * L + j] ^ noise[t % len(noise)]
        hits_u[i] += r
        hits_v[j] += r
        return r

    rows, cols = set(range(K)), set(range(L))
    move = 0
    while pol.t < horizon:
        limit = moves[move % len(moves)]
        move += 1
        if limit == 0:
            i, j = pol.select()
            assert i in rows and j in cols
            pol.update((i, j), reward(i, j, pol.t))
        else:
            planned_rows, planned_cols = pol.plan(limit)
            assert set(planned_rows.tolist()) <= rows and set(planned_cols.tolist()) <= cols
            rewards = [reward(i, j, pol.t + k) for k, (i, j) in
                       enumerate(zip(planned_rows.tolist(), planned_cols.tolist()))]
            pol.commit(rewards)
        check_state(pol, rows, cols, hits_u, hits_v)
        rows, cols = set(pol.remaining_rows), set(pol.remaining_cols)
    event(f"stages finished: {pol.stage}")
