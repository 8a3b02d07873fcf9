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
"""

from __future__ import annotations

import math

import numpy as np

_BISECT_ITERS = 100


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
    """Vectorized ``kl_ucb_upper`` over arrays of means and counts.

    Same bisection, run in lockstep across all entries; used by the flat
    KL index policy where one bound per arm is needed every step.  It stops
    once every entry's midpoint repeats the previous iteration's, the array
    form of the scalar fixed point, so the bits are those of the full
    ``_BISECT_ITERS`` iterations.
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

    one_mu = 1.0 - mu
    with np.errstate(divide="ignore", invalid="ignore"):
        base = np.where(mu > 0.0, mu * np.log(np.maximum(mu, 1e-300)), 0.0) + np.where(
            one_mu > 0.0, one_mu * np.log(np.maximum(one_mu, 1e-300)), 0.0
        )
        lo = mu.copy()
        hi = np.ones_like(mu)
        prev = np.full_like(mu, np.nan)
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            # the same mid in every lane gives the same test, so the state is
            # already at its fixed point
            if (mid == prev).all():
                break
            # mu = 0 makes the first product -0.0, and base - -0.0 is base - 0.0;
            # mu = 1 starts at lo = hi = 1, where the nan divergence is infeasible
            d = base - mu * np.log(mid) - one_mu * np.log(1.0 - mid)
            feasible = n * d <= delta
            np.copyto(lo, mid, where=feasible)
            np.copyto(hi, mid, where=~feasible)
            prev = mid
    return lo
