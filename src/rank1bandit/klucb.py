"""Bernoulli relative entropy and confidence bounds derived from it.

The divergence between two Bernoulli means is

    d(p, q) = p*log(p/q) + (1-p)*log((1-p)/(1-q))

with natural logarithms and the usual continuous extensions: d(p, p) = 0,
d(0, q) = -log(1-q), d(1, q) = -log(q), and d(p, q) = +inf when q is a
degenerate mean (0 or 1) that p does not share.

``kl_ucb_upper`` and ``kl_ucb_lower`` invert the divergence: given an
empirical mean, an observation count, and a divergence budget ``delta``,
they return the widest mean still compatible with the data, i.e. the
largest q >= mu_hat (smallest q <= mu_hat) with pulls * d(mu_hat, q) <=
delta.  The map q -> d(mu_hat, q) is strictly increasing away from mu_hat
on either side, so a plain bisection is exact.  It stops at its fixed
point: once the midpoint rounds onto an end of the bracket, every later
midpoint is that same double, and the far end, which always fails the
test, never becomes the answer, so stopping there returns the bits that
running on would.  Most solves settle after 50-62 iterations.
``_BISECT_ITERS`` = 100 is only a cap; it still binds where the answer is
far smaller than the bracket, such as a lower bound from a few pulls and a
large budget, and fixes those bits as before.

``kl_ucb_upper_many``, the array form of the upper bound, takes Newton
steps instead, in s = -log(1 - q), where d(mu_hat, .) is convex and close
to linear; a call settles in about 2-11 steps (see its docstring).
"""

from __future__ import annotations

import math

import numpy as np

_BISECT_ITERS = 100
_NEWTON_ITERS = 16
_BELOW_ONE = math.nextafter(1.0, 0.0)
# kl_ucb_upper_many trusts Newton where the budget per pull is at least this
# share of the entropy -base, the size of the divergence's terms near mu_hat:
# 2^26 times their rounding
_RESOLUTION = 2.0**-26


def _check_unit(x: float, name: str) -> float:
    x = float(x)
    if not 0.0 <= x <= 1.0:  # also rejects nan
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
    return x


def kl_div(p: float, q: float) -> float:
    """Bernoulli relative entropy d(p, q) in nats.

    Raises ValueError if either argument is outside [0, 1] or not a number.
    """
    p = _check_unit(p, "p")
    q = _check_unit(q, "q")
    if p == q:
        return 0.0
    if q <= 0.0 or q >= 1.0:
        return math.inf
    if p == 0.0:
        return -math.log1p(-q)
    if p == 1.0:
        return -math.log(q)
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


def _invert(mu_hat: float, pulls: float, delta: float, end: float) -> float:
    """The q farthest from mu_hat toward ``end`` (1.0 for the upper bound,
    0.0 for the lower) with pulls * d(mu_hat, q) <= delta."""
    mu_hat = _check_unit(mu_hat, "mu_hat")
    pulls = float(pulls)
    if not (math.isfinite(pulls) and pulls >= 1.0):
        raise ValueError(f"pulls must be a finite count >= 1, got {pulls!r}")
    delta = float(delta)
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    if delta == 0.0 or mu_hat == end:
        return mu_hat
    log = math.log
    interior = 0.0 < mu_hat < 1.0
    if interior:
        one_mu = 1.0 - mu_hat
        base = mu_hat * log(mu_hat) + one_mu * log(one_mu)

    def div(q: float) -> float:
        # d(mu_hat, q) for 0 < q < 1
        if interior:
            return base - mu_hat * log(q) - one_mu * log(1.0 - q)
        return -math.log1p(-q) if mu_hat == 0.0 else -log(q)

    near, far = mu_hat, end
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (near + far)
        # mid has rounded onto an end, and every later mid is this one again:
        # far always fails the test below, so near can no longer move
        if mid == near or mid == far:
            break
        # q = 0 or 1 is infeasible: d is infinite there, or q is mu_hat
        # itself and near already stands on it
        if 0.0 < mid < 1.0 and pulls * div(mid) <= delta:
            near = mid
        else:
            far = mid
    return near


def kl_ucb_upper(mu_hat: float, pulls: float, delta: float) -> float:
    """Largest q in [mu_hat, 1] with pulls * d(mu_hat, q) <= delta.

    For mu_hat = 0 this is 1 - exp(-delta/pulls), or the largest double
    below 1 once that rounds to 1; for mu_hat = 1 it is 1.
    """
    return _invert(mu_hat, pulls, delta, 1.0)


def kl_ucb_lower(mu_hat: float, pulls: float, delta: float) -> float:
    """Smallest q in [0, mu_hat] with pulls * d(mu_hat, q) <= delta, to
    within mu_hat * 2^-100 above it.

    For mu_hat = 1 this is exp(-delta/pulls); for mu_hat = 0 it is 0.
    The 100-iteration cap leaves a bracket mu_hat * 2^-100 wide, which is
    also a floor: a smaller root comes back as mu_hat * 2^-100, so
    ``kl_ucb_lower(1.0, 1, 200.0)`` is 2^-100, not exp(-200).
    """
    return _invert(mu_hat, pulls, delta, 0.0)


def kl_ucb_upper_many(mu_hat: np.ndarray, pulls: np.ndarray, delta: float) -> np.ndarray:
    """Vectorized ``kl_ucb_upper`` over arrays of means and counts, for the
    flat KL index policy, which needs one bound per arm every step.

    The divergence is the scalar solver's: -log1p(-q) at mu_hat = 0 and
    base - mu*log(q) - (1-mu)*log(1-q) inside (0, 1).  mu_hat = 0 takes the
    closed form 1 - exp(-delta/pulls), capped at the largest double below 1,
    mu_hat = 1 gives 1 and delta = 0 gives mu_hat.  Interior means take
    safeguarded Newton steps in s = -log(1 - q), where the divergence is
    convex with slope (q - mu)/q, from a start above the root, so that the
    iterates fall toward it; a step that would leave the bracket (mu_hat, q)
    halves it instead, and each step moves at least one ulp, doubling after
    the fourth.  A lane stops at its first iterate with pulls * d <= delta,
    within about an ulp of the largest such q.  The result always meets
    pulls * d(mu_hat, q) <= delta in this divergence.

    Where the budget per pull is below ``_RESOLUTION`` times the entropy
    -(mu log mu + (1-mu) log(1-mu)), the divergence's rounding is as large
    as the budget, and the set of feasible q is ragged over up to about 1e-8
    beyond the root.  Those lanes, and any lane that Newton leaves
    infeasible after ``_NEWTON_ITERS`` steps, are halved from [mu_hat, 1] to
    the bisection's fixed point instead, and return the crossing the
    bisection's path finds, as the scalar solver does.  No budget a policy
    computes reaches that regime.
    """
    mu = np.asarray(mu_hat, dtype=float)
    n = np.asarray(pulls, dtype=float)
    if mu.size and (mu.min() < 0.0 or mu.max() > 1.0 or not np.isfinite(mu).all()):
        raise ValueError("mu_hat entries must lie in [0, 1]")
    if n.size and (not np.isfinite(n).all() or n.min() < 1.0):
        raise ValueError("pulls entries must be finite counts >= 1")
    delta = float(delta)
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    if delta == 0.0:
        return mu.copy()
    if mu.shape != n.shape:
        mu, n = np.broadcast_arrays(mu, n)
    shape = mu.shape
    mu, n = mu.ravel(), n.ravel()
    r = delta / n
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        zero = mu == 0.0
        inner = ~zero & (mu < 1.0)
        if inner.all():
            return _upper_interior(mu, n, r, delta).reshape(shape)
        out = np.ones_like(mu)
        if inner.any():
            out[inner] = _upper_interior(mu[inner], n[inner], r[inner], delta)
        if zero.any():
            out[zero] = _upper_at_zero(n[zero], r[zero], delta)
    return out.reshape(shape)


def _upper_at_zero(n: np.ndarray, r: np.ndarray, delta: float) -> np.ndarray:
    """The upper bound at mu_hat = 0, where d(0, q) = -log1p(-q)."""
    q = np.minimum(-np.expm1(-r), _BELOW_ONE)
    # the closed form can round past the root; step back to feasibility
    over = n * -np.log1p(-q) > delta
    while over.any():
        q[over] = np.nextafter(q[over], 0.0)
        over = n * -np.log1p(-q) > delta
    return q


def _upper_interior(mu: np.ndarray, n: np.ndarray, r: np.ndarray, delta: float) -> np.ndarray:
    """The upper bound for 0 < mu_hat < 1, by safeguarded Newton."""
    one_mu = 1.0 - mu
    base = mu * np.log(np.maximum(mu, 1e-300)) + one_mu * np.log(one_mu)
    halve = r < _RESOLUTION * -base
    # start above the root: d >= base + (1-mu) s, d >= (q-mu)^2 / (2q) and
    # Pinsker's d >= 2 (q-mu)^2 each bound it
    x = -np.expm1((base - r) / one_mu)
    np.minimum(x, mu + r + np.sqrt(r * (r + 2.0 * mu)), out=x)
    np.minimum(x, mu + np.sqrt(0.5 * r), out=x)
    np.minimum(x, _BELOW_ONE, out=x)
    for i in range(_NEWTON_ITERS):
        one_x = 1.0 - x
        f = n * (base - mu * np.log(x) - one_mu * np.log(one_x)) - delta
        feasible = f <= 0.0
        if (feasible | halve).all():
            break
        # the step ds = f / f'(s) scales 1 - q by exp(ds); infeasible lanes
        # have f > 0 and fall
        step = x - one_x * np.expm1(f * x / (n * (x - mu)))
        # at least one ulp down, doubling after the fourth step, so that a
        # step lost to rounding cannot stall a lane
        np.minimum(step, x * (1.0 - 2.0 ** (max(i, 4) - 56)), out=step)
        # a step out of the bracket (mu, x) halves it instead
        step = np.where(step > mu, step, 0.5 * (mu + x))
        x = np.where(feasible, x, step)
    halve |= ~feasible
    if halve.any():
        x[halve] = _halve_upper(mu[halve], n[halve], delta, base[halve], one_mu[halve])
    return x


def _halve_upper(mu: np.ndarray, n: np.ndarray, delta: float, base: np.ndarray,
                 one_mu: np.ndarray) -> np.ndarray:
    """Bisect [mu, 1] in lockstep to the fixed point, where every lane's
    midpoint repeats the previous iteration's."""
    lo = mu.copy()
    hi = np.ones_like(mu)
    prev = np.full_like(mu, np.nan)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if (mid == prev).all():
            break
        # mid = 1 gives an infinite divergence, which is infeasible
        feasible = n * (base - mu * np.log(mid) - one_mu * np.log(1.0 - mid)) <= delta
        np.copyto(lo, mid, where=feasible)
        np.copyto(hi, mid, where=~feasible)
        prev = mid
    return lo
