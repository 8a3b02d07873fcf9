"""Bandit policies over a K x L grid of Bernoulli-product arms.

All policies share a two-call protocol: ``select()`` returns the pair to
play, ``update(arm, reward)`` feeds back the binary reward for exactly
that pair.  Policies draw any internal randomness from their own
generator, never from the environment's, so a (policy seed, env seed)
pair fixes a run completely.

The elimination policies (``BlockPolicy`` subclasses) also offer a block
protocol: ``plan(limit)`` returns the next arms up to the next stage or
round boundary, which do not depend on any reward, and
``commit(rewards)`` feeds their rewards back in the order planned.  It
draws from the policy's generator in the same order and leaves the same
state as the per-step calls would, so the two protocols can be mixed
within a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rank1bandit.instances import _integer
from rank1bandit.klucb import (
    kl_ucb_argmax,
    kl_ucb_lower,
    kl_ucb_lower_many,
    kl_ucb_upper,
    kl_ucb_upper_many,
)


class ProtocolError(RuntimeError):
    """Calls out of order, past the horizon or mismatched, or a broken
    elimination invariant."""


def hoeffding_bounds(mu_hat, pulls: float, delta: float):
    """Distribution-free interval mu_hat +- sqrt(delta / (2*pulls)), clipped
    to [0, 1], of one mean or of each of an array of means."""
    radius = math.sqrt(delta / (2.0 * pulls))
    return np.maximum(0.0, mu_hat - radius), np.minimum(1.0, mu_hat + radius)


class Policy:
    """Shared bookkeeping: horizon, step count, select/update pairing.

    Subclasses implement ``_select() -> (i, j)`` and
    ``_update(i, j, reward)``, which see only calls in protocol order.
    """

    name = "policy"

    def __init__(self, K: int, L: int, horizon: int, rng: np.random.Generator):
        self.K = _integer(K, "K", 1)
        self.L = _integer(L, "L", 1)
        self.horizon = _integer(horizon, "horizon", 5)
        self.rng = rng
        self.t = 0
        self._pending: tuple[int, int] | None = None

    def select(self) -> tuple[int, int]:
        if self.t >= self.horizon:
            raise ProtocolError(f"select called after the horizon of {self.horizon} steps")
        if self._pending is not None:
            raise ProtocolError("select called again before update or commit")
        arm = self._select()
        self._pending = arm
        return arm

    def update(self, arm: tuple[int, int], reward: int) -> None:
        if arm != self._pending:
            raise ProtocolError(f"update for {arm!r} but pending arm is {self._pending!r}")
        if reward != 0 and reward != 1:
            raise ValueError(f"reward must be 0 or 1, got {reward!r}")
        self._pending = None
        self.t += 1
        self._update(arm[0], arm[1], reward)


class _Plan:
    """A planned block: its number of arms, and the policy-specific state
    its rewards are committed against."""

    __slots__ = ("size", "state")

    def __init__(self, size: int, state):
        self.size = size
        self.state = state

    def __repr__(self) -> str:
        return f"<planned block of {self.size} arms>"


class BlockPolicy(Policy):
    """A policy whose arms up to its next boundary do not depend on rewards.

    ``plan(limit)`` returns the next at most ``limit`` arms as two int64
    arrays, never past the next stage or round boundary nor past the
    horizon; ``commit(rewards)`` then folds in their rewards, one per
    planned arm in the order planned.  Subclasses implement
    ``_plan(limit) -> (rows, cols, state)`` and ``_commit(hits, state)``,
    ``hits`` being the rewards as a bool array; ``_commit`` closes the
    stage or round when ``_plan`` left its position at the boundary.
    """

    def plan(self, limit: int) -> tuple[np.ndarray, np.ndarray]:
        if self.t >= self.horizon:
            raise ProtocolError(f"plan called after the horizon of {self.horizon} steps")
        if self._pending is not None:
            raise ProtocolError("plan called again before update or commit")
        limit = _integer(limit, "limit", 1)
        rows, cols, state = self._plan(min(limit, self.horizon - self.t))
        self._pending = _Plan(rows.size, state)
        return rows, cols

    def commit(self, rewards) -> None:
        plan = self._pending
        if not isinstance(plan, _Plan):
            raise ProtocolError("commit called without a planned block")
        rewards = np.asarray(rewards)
        if rewards.shape != (plan.size,):
            raise ProtocolError(
                f"rewards of shape {rewards.shape} for a block of {plan.size} arms")
        hits = rewards.astype(bool)
        if (hits != rewards).any():
            raise ValueError("rewards must be 0 or 1")
        self._pending = None
        self.t += plan.size
        self._commit(hits, plan.state)


@dataclass
class StageRecord:
    """Snapshot taken at an elimination boundary, after re-pointing."""

    stage: int
    steps: int
    n_obs: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]


class Rank1ElimKL(BlockPolicy):
    """Stagewise elimination on rows and columns with divergence intervals.

    Stage targets grow as ceil(16 * 4^stage * ln(horizon)) observations
    per surviving row and column.  Each round plays one column, sampled
    through the column redirection map, against every surviving row, then
    one row, sampled through the row map, against every surviving column;
    both are drawn, column first, as the round begins, and once one row
    and one column survive they are taken without a draw.  At a stage
    boundary each surviving mean estimate (total count divided by the
    stage target) gets a confidence interval with divergence budget
    ln(n) + 3*ln(ln(n)); anything whose upper bound does not exceed the
    best lower bound collapses onto the leader, and the success counts
    carry over unchanged.

    Rows and columns are treated alike, so the state has one index over
    both, rows first: row i is entry i and column j is entry K + j, as in
    the environment's stream.  ``_S[k]`` counts entry k's successes in
    the rounds' row steps (for a column, the column steps), the only
    totals ever read, and ``_h`` is the redirection map, which sends a row
    to a row and a column to a column.  A round walks ``_walk``, the
    sorted image of ``_h``: the surviving rows, then the surviving
    columns.  Step ``_pos`` of a stage is round ``_pos // len(_walk)`` at
    offset ``o = _pos % len(_walk)``, and it plays entry ``k = _walk[o]``:
    row k against the round's column if k < K, else the round's row
    against column k - K.  A success adds to ``_S[k]``.  A round's pair is
    drawn when its first step, o = 0, is selected or planned, and
    ``_pair`` holds the (column, row) pair of the last round begun.
    ``plan`` covers at most the rest of the stage, whose elimination
    needs the rewards.
    """

    name = "rank1elimkl"

    def __init__(self, K: int, L: int, horizon: int, rng: np.random.Generator):
        super().__init__(K, L, horizon, rng)
        log_n = math.log(self.horizon)
        self.budget = log_n + 3.0 * math.log(log_n)
        self._log_n = log_n
        self._S = np.zeros(self.K + self.L, dtype=np.int64)
        self._h = list(range(self.K + self.L))
        # views for one entry at a time, whose items read as Python ints:
        # about half the cost of numpy's item access
        self._S_of = memoryview(self._S)
        self._walk = memoryview(np.arange(self.K + self.L))
        self._stage = 0
        self._n_target = 0
        self.stage_log: list[StageRecord] = []
        self._begin_stage()

    # read-only views used by tests and experiment reports
    @property
    def remaining_rows(self) -> list[int]:
        return [k for k in self._walk if k < self.K]

    @property
    def remaining_cols(self) -> list[int]:
        return [k - self.K for k in self._walk if k >= self.K]

    @property
    def row_map(self) -> list[int]:
        return self._h[:self.K]

    @property
    def col_map(self) -> list[int]:
        return [k - self.K for k in self._h[self.K:]]

    @property
    def stage(self) -> int:
        return self._stage

    @property
    def row_successes(self) -> list[int]:
        """Successes of each row over its row-step observations so far."""
        return self._S[:self.K].tolist()

    @property
    def col_successes(self) -> list[int]:
        """Successes of each column over its column-step observations so far."""
        return self._S[self.K:].tolist()

    def confidence_bounds(self, mu_hat: float, pulls: int) -> tuple[float, float]:
        """The interval of one mean."""
        return (
            kl_ucb_lower(mu_hat, pulls, self.budget),
            kl_ucb_upper(mu_hat, pulls, self.budget),
        )

    def _intervals(self, mu_hat: np.ndarray, pulls: int) -> tuple[np.ndarray, np.ndarray]:
        """The interval of each of an array of means, in one call per bound."""
        return (
            kl_ucb_lower_many(mu_hat, pulls, self.budget),
            kl_ucb_upper_many(mu_hat, pulls, self.budget),
        )

    def _begin_stage(self) -> None:
        """Begin stage ``_stage``: its rounds raise each survivor's
        observations from the last target to the stage's own."""
        n_obs = self._n_target
        self._n_target = math.ceil(16.0 * 4.0**self._stage * self._log_n)
        self._stage_end = (self._n_target - n_obs) * len(self._walk)
        self._pos = 0

    def _draw(self, n: int) -> list[tuple[int, int]]:
        """The (column, row) pairs of the next n rounds, each drawn through
        the map, column first; with one row and one column left, none is
        drawn."""
        h, K = self._h, self.K
        if len(self._walk) == 2:
            # every entry of either side is its side's one survivor, and
            # survivors never grow back, so no output could read a draw
            return [(h[K] - K, h[0])] * n
        # one call draws the pairs the 2n scalar calls would, in the same
        # order, and leaves the generator in the same state
        drawn = self.rng.integers(0, [self.L, K], size=(n, 2)).tolist()
        return [(h[K + j] - K, h[i]) for j, i in drawn]

    def _select(self) -> tuple[int, int]:
        o = self._pos % len(self._walk)
        if o == 0:
            self._pair = self._draw(1)[0]
        k = self._walk[o]
        if k < self.K:
            return k, self._pair[0]
        return self._pair[1], k - self.K

    def _update(self, i: int, j: int, reward: int) -> None:
        if reward:
            self._S_of[self._walk[self._pos % len(self._walk)]] += 1
        self._pos += 1
        if self._pos == self._stage_end:
            self._advance_stage()

    def _plan(self, limit: int):
        pos = self._pos
        self._pos = end = min(pos + limit, self._stage_end)
        width = len(self._walk)
        o0 = pos % width
        # the block's rounds, counted from the one it begins in, and the
        # offsets within them
        rnd, o = np.divmod(np.arange(o0, o0 + end - pos), width)
        # their pairs: the last one drawn if the block begins mid-round,
        # then one drawn for each round the block begins
        pairs = [self._pair] if o0 else []
        pairs += self._draw(int(rnd[-1]) + 1 - len(pairs))
        self._pair = pairs[-1]
        pairs = np.array(pairs)
        walked = np.asarray(self._walk)[o]
        on_col = walked >= self.K
        rows = np.where(on_col, pairs[:, 1][rnd], walked)
        cols = np.where(on_col, walked - self.K, pairs[:, 0][rnd])
        return rows, cols, walked

    def _commit(self, hits, walked) -> None:
        self._S += np.bincount(walked[hits], minlength=self.K + self.L)
        if self._pos == self._stage_end:
            self._advance_stage()

    def _advance_stage(self) -> None:
        """Eliminate on both sides, then begin the next stage.  Every
        success count is checked before anything changes."""
        n_obs, K = self._n_target, self.K
        walk = np.asarray(self._walk)
        counts = self._S[walk]
        bad = (counts < 0) | (counts > n_obs)
        if bad.any():
            k, count = int(walk[bad][0]), int(counts[bad][0])
            kind = f"row {k}" if k < K else f"column {k - K}"
            raise ProtocolError(f"{kind} holds {count} successes over {n_obs} observations")

        lower, upper = self._intervals(counts / n_obs, n_obs)
        # on each side, the leader holds the largest lower bound, ties to
        # the lowest index; a survivor whose upper bound is at or below it
        # (ties eliminate) is re-pointed at the leader, and every entry
        # that pointed at it follows
        to = np.arange(K + self.L)
        n_rows = int(np.searchsorted(walk, K))
        for side in (slice(0, n_rows), slice(n_rows, walk.size)):
            lead = side.start + int(lower[side].argmax())
            to[walk[side][upper[side] <= lower[lead]]] = walk[lead]
        self._h = to[self._h].tolist()
        self._walk = memoryview(walk[to[walk] == walk])

        self.stage_log.append(
            StageRecord(
                stage=self._stage,
                steps=self.t,
                n_obs=n_obs,
                rows=tuple(self.remaining_rows),
                cols=tuple(self.remaining_cols),
            )
        )
        self._stage += 1
        self._begin_stage()


class Rank1Elim(Rank1ElimKL):
    """Same elimination schedule with distribution-free intervals.

    Differs from the divergence variant only in how the per-stage
    confidence interval is formed: mean +- sqrt(budget / (2 * count)),
    clipped to the unit interval, with the same budget.
    """

    name = "rank1elim"

    def confidence_bounds(self, mu_hat, pulls: int):
        return hoeffding_bounds(mu_hat, pulls, self.budget)

    _intervals = confidence_bounds


class UCB1(Policy):
    """Flat optimism over all K*L pairs.

    Plays every arm once in row-major order, then the arm maximizing
    mean + sqrt(2 ln(t) / count) with t the one-based step number, ties
    to the lowest flat index.

    The argmax skips its K*L pass while the leader stays clear, and plays
    the same arms as the pass would.  A full pass at step t that picks
    the same arm a as the two full passes before it also stores
    T = t + ``_WINDOW`` and the bound M, the largest index over the arms
    b != a at step T, built by the same float operations into the same
    buffer.  Until T only a is played, so no other arm's mean or count
    changes, and the width w does not shrink as the step grows; fl(w*r)
    and fl(m + x) are monotone in w and x, so M bounds every other arm's
    index at every step up to T, rounding included.  A step up to T whose
    leader index, the same two operations in the same order, lies
    strictly above M plays a without the pass; any other step runs it,
    so ties still go to the lowest flat index.  Right after the sweep the
    leader changes almost every step, and at 64x64 a bound stored after
    only two agreeing passes served no step 93% of the time.
    """

    name = "ucb1"
    # steps a bound covers past the full pass that stored it
    _WINDOW = 32

    def __init__(self, K: int, L: int, horizon: int, rng: np.random.Generator):
        super().__init__(K, L, horizon, rng)
        n_arms = self.K * self.L
        self._n_arms = n_arms
        self._sums = [0] * n_arms
        # the entries the index reads, and the buffer it is built in
        self._counts = np.zeros(n_arms)
        self._means = np.zeros(n_arms)
        self._inv_sqrt = np.zeros(n_arms)
        self._buf = np.empty(n_arms)
        # views for one entry at a time, about half the cost of .item and
        # of numpy's item assignment
        self._count_of = memoryview(self._counts)
        self._mean_of = memoryview(self._means)
        self._inv_sqrt_of = memoryview(self._inv_sqrt)
        # the last full pass's arm, whether the pass before it picked it
        # too, and its bound on the others' index up to step _until (none
        # stored: -1)
        self._leader = -1
        self._agreed = False
        self._until = -1
        self._bound = math.inf

    def _select(self) -> tuple[int, int]:
        t = self.t
        if t < self._n_arms:
            return divmod(t, self.L)
        a = self._leader
        if t <= self._until:
            width = math.sqrt(2.0 * math.log(t + 1))
            if self._mean_of[a] + width * self._inv_sqrt_of[a] > self._bound:
                return divmod(a, self.L)
            self._until = -1
        b = int(self._index(t).argmax())
        if b != a:
            self._leader, self._agreed = b, False
        elif self._agreed:
            until = t + self._WINDOW
            buf = self._index(until)
            buf[b] = -math.inf
            self._until, self._bound = until, float(buf.max())
        else:
            self._agreed = True
        return divmod(b, self.L)

    def _index(self, t: int) -> np.ndarray:
        """Every arm's index at step t + 1, once each arm has been played,
        in a buffer the next call overwrites."""
        width = math.sqrt(2.0 * math.log(t + 1))
        buf = self._buf
        np.multiply(width, self._inv_sqrt, out=buf)
        np.add(self._means, buf, out=buf)
        return buf

    def _update(self, i: int, j: int, reward: int) -> None:
        a = i * self.L + j
        c = self._count_of[a] + 1.0
        self._count_of[a] = c
        s = self._sums[a]
        if reward:
            # a Python int whatever the reward's type: an int8 sum would wrap
            self._sums[a] = s = s + 1
        self._mean_of[a] = s / c
        self._inv_sqrt_of[a] = 1.0 / math.sqrt(c)


class UCB1Elim(BlockPolicy):
    """Round-based elimination over the K*L flat arms.

    In round m every surviving arm is topped up to
    ceil(2 * ln(n * w^2) / w^2) total pulls, w = 2^-m; arms whose mean
    plus the round radius falls strictly below the best mean minus the
    radius are dropped, then w halves.  Rounds stop once n * w^2 would
    drop below e (the radius would lose meaning); after that the
    survivors are simply cycled.

    The targets grow strictly, so every survivor begins a round with
    exactly the previous target's pulls, and the round plays each
    survivor in turn ``_reps`` times, the difference of the two targets.
    Step ``_pos`` of a round plays survivor ``_pos // _reps`` (modulo
    their number ``_n``); cycling is the same walk with ``_reps`` = 1 and
    the horizon, which no round reaches, as the round length.  ``plan``
    covers at most the rest of a round, whose elimination needs the
    rewards.

    Round 0 keeps no candidate table: until the first elimination,
    survivor p is arm p in row-major order, and ``_cands`` is None.  A
    run that ends inside round 0 therefore holds only the sums, and only
    of the first ceil(horizon / reps) arms, the ones it can reach.
    """

    name = "ucb1elim"

    def __init__(self, K: int, L: int, horizon: int, rng: np.random.Generator):
        super().__init__(K, L, horizon, rng)
        self._n = self.K * self.L
        self._cands: np.ndarray | None = None
        self._m = 0
        self._m_max = max(0, math.floor(0.5 * math.log2(self.horizon / math.e)))
        self._target = self.round_pull_target(self.horizon, 0)
        self._reps = self._target
        self._round_len = self._reps * self._n
        self._pos = 0
        # every arm round 0 can reach: all of them if the round ends
        self._sums = np.zeros(min(self._n, -(-self.horizon // self._reps)), dtype=np.int64)

    @staticmethod
    def round_pull_target(horizon: int, m: int) -> int:
        """Cumulative pulls per surviving arm demanded by round m."""
        w2 = 4.0 ** (-m)
        return math.ceil(2.0 * math.log(horizon * w2) / w2)

    @property
    def remaining_arms(self) -> list[tuple[int, int]]:
        return [(a // self.L, a % self.L) for a in self._arm(np.arange(self._n)).tolist()]

    def _arm(self, p):
        """The arm at survivor position p, or the arms at an array of them."""
        return p if self._cands is None else self._cands[p]

    def _select(self) -> tuple[int, int]:
        a = int(self._arm(self._pos // self._reps % self._n))
        return (a // self.L, a % self.L)

    def _update(self, i: int, j: int, reward: int) -> None:
        self._sums[i * self.L + j] += reward
        self._pos += 1
        if self._pos == self._round_len:
            self._close_round()

    def _plan(self, limit: int):
        pos, reps = self._pos, self._reps
        self._pos = end = min(pos + limit, self._round_len)
        # each step's survivor position, counted from the block's first;
        # only while cycling can a block wrap round the survivors, and its
        # span of positions then holds each of them once
        first = pos // reps
        steps = np.arange(pos, end) // reps - first
        width = min(self._n, int(steps[-1]) + 1)
        span = self._arm((first + np.arange(width)) % self._n)
        at = steps % width
        arms = span[at]
        return arms // self.L, arms % self.L, (span, at)

    def _commit(self, hits, block) -> None:
        span, at = block
        # no arm repeats within the span, so one fancy add takes every count
        self._sums[span] += np.bincount(at[hits], minlength=span.size)
        if self._pos == self._round_len:
            self._close_round()

    def _close_round(self) -> None:
        n_m = self._target
        radius = math.sqrt(math.log(self.horizon * 4.0 ** (-self._m)) / (2.0 * n_m))
        cands = self._arm(np.arange(self._n))
        # every survivor holds exactly n_m pulls
        means = self._sums[cands] / n_m
        cutoff = means.max() - radius
        self._cands = cands[means + radius >= cutoff]
        self._n = len(self._cands)
        self._pos = 0
        if self._m >= self._m_max:
            # cycle to the horizon, which ends the run before this round
            self._reps = 1
            self._round_len = self.horizon
            return
        self._m += 1
        self._target = self.round_pull_target(self.horizon, self._m)
        self._reps = self._target - n_m
        self._round_len = self._reps * self._n


class KLUCB(UCB1):
    """Flat divergence-based index policy over all K*L pairs.

    UCB1 with another index: after the same initial sweep the arm with
    the largest upper confidence bound at divergence budget
    ln(t) + 3*ln(ln(t)) (clamped at zero) is played, ties to the lowest
    flat index.  Every step takes it with ``kl_ucb_argmax``, which iterates
    every arm's bound only until the largest is decided: about 60 us at
    16x16 (256 arms) on a 2-core x86-64 VM, against about 105 us for
    ``kl_ucb_upper_many`` on the same calls and 2.2 us for a UCB1 step, so
    this baseline still costs far more per step than the others.  UCB1's
    shortcut is not taken: the solver's monotonicity in the budget is not
    established in floating point.
    """

    name = "klucb"

    def _select(self) -> tuple[int, int]:
        t = self.t
        if t < self._n_arms:
            return divmod(t, self.L)
        log_t = math.log(t + 1)
        budget = log_t + 3.0 * max(0.0, math.log(log_t))
        return divmod(kl_ucb_argmax(self._means, self._counts, budget), self.L)


POLICIES: dict[str, type[Policy]] = {
    cls.name: cls for cls in (Rank1ElimKL, Rank1Elim, UCB1, UCB1Elim, KLUCB)
}


def make_policy(name: str, K: int, L: int, horizon: int, rng: np.random.Generator) -> Policy:
    """Instantiate a registered policy by name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r} (choose from {sorted(POLICIES)})") from None
    return cls(K, L, horizon, rng)
