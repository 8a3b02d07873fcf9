"""Elimination invariants of Rank1ElimKL and Rank1Elim under arbitrary rewards.

The rewards come from no instance: a Hypothesis-drawn 0/1 table over the
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

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rank1bandit.policies import make_policy


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
            pol.commit(planned_rows, planned_cols, rewards)
        check_state(pol, rows, cols, hits_u, hits_v)
        rows, cols = set(pol.remaining_rows), set(pol.remaining_cols)
    event(f"stages finished: {pol.stage}")
