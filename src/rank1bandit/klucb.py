"""Bernoulli relative entropy and confidence bounds derived from it.

The divergence between two Bernoulli means is

    d(p, q) = p*log(p/q) + (1-p)*log((1-p)/(1-q))

with natural logarithms and the usual continuous extensions: d(p, p) = 0,
d(0, q) = -log(1-q), d(1, q) = -log(q), and d(p, q) = +inf when q is a
degenerate mean (0 or 1) that p does not share.

It is computed once, in t = q - p, as

    d = -p*log1p(t/p) + (1-p)*log1p(t/(1-q)),

each log taken as the log of its ratio instead where its argument is at or
below -1/2 (q at most p/2, or 1 - q at least twice 1 - p), as log1p would
lose it there.  Each term then rounds to a relative error of t, which moves a
root of d by about an ulp; the form p*log p + (1-p)*log(1-p) - p*log q -
(1-p)*log(1-q) rounds to an error of the entropy instead, larger than d
itself once q is within about 1e-8 of p.  Where even eps*|t| hides d, an
ulp or so from p, Pinsker's 2*t^2 stands in for it, so d > 0 for q != p.

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
``_BISECT_ITERS`` = 100 is only a cap; it binds where the answer is far
smaller than the bracket, such as a lower bound from a few pulls and a
large budget, or an upper bound at mu_hat = 0 with a tiny budget.

``kl_ucb_upper_many``, the array form of the upper bound, takes Newton
steps instead, in s = -log(1 - q), where d(mu_hat, .) is convex and close
to linear; a call settles in at most 6 steps at the policies' budgets (see
its docstring).
"""

from __future__ import annotations

import math
from math import log, log1p

import numpy as np

_BISECT_ITERS = 100
_NEWTON_ITERS = 16
_BELOW_ONE = math.nextafter(1.0, 0.0)


def _check_unit(x: float, name: str) -> float:
    x = float(x)
    if not 0.0 <= x <= 1.0:  # also rejects nan
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
    return x


def _div(p: float, q: float) -> float:
    """d(p, q) for 0 < q < 1, in t = q - p (see the module docstring)."""
    t = q - p
    one_q = 1.0 - q
    # the clamps keep t/p finite and the log's argument positive where p is
    # 0, below 1e-300 or 1; the term they enter is then below 1e-297
    a = t / (p if p > 1e-300 else 1e-300)
    b = t / one_q
    d = (-p * (log1p(a) if a > -0.5 else log(q / p))
         + (1.0 - p) * (log1p(b) if b > -0.5 else log((1.0 - p or 1e-300) / one_q)))
    # Pinsker's bound, where the rounding of the terms, about eps*|t|, hides d
    floor = 2.0 * t * t
    return d if d > floor else floor


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
    return _div(p, q)


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
    near, far = mu_hat, end
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (near + far)
        # mid has rounded onto an end, and every later mid is this one again:
        # far always fails the test below, so near can no longer move
        if mid == near or mid == far:
            break
        # q = 0 or 1 is infeasible: d is infinite there, or q is mu_hat
        # itself and near already stands on it
        if 0.0 < mid < 1.0 and pulls * _div(mu_hat, mid) <= delta:
            near = mid
        else:
            far = mid
    return near


def kl_ucb_upper(mu_hat: float, pulls: float, delta: float) -> float:
    """Largest q in [mu_hat, 1] with pulls * d(mu_hat, q) <= delta, to
    within (1 - mu_hat) * 2^-100 below it.

    For mu_hat = 0 this is 1 - exp(-delta/pulls), or the largest double
    below 1 once that rounds to 1; for mu_hat = 1 it is 1.  The
    100-iteration cap leaves a bracket (1 - mu_hat) * 2^-100 wide, which is
    also a floor: a root nearer mu_hat than that comes back as mu_hat, so
    ``kl_ucb_upper(0.0, 3, 1e-300)`` is 0, not 1 - exp(-1e-300/3).
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

    The divergence is the scalar solver's, in numpy; for q >= mu_hat
    neither log needs its ratio form.  mu_hat = 1 gives 1 and delta = 0
    gives mu_hat.  Every other lane takes safeguarded Newton steps in
    s = -log(1 - q), where the divergence is convex with slope (q - mu)/q,
    from a start above the root (at mu_hat = 0 the closed form
    1 - exp(-delta/pulls), capped at the largest double below 1), so that
    the iterates fall toward it; a step that would leave the bracket
    (mu_hat, q) halves it instead, and each step moves at least one ulp,
    doubling after the fourth.  A lane stops at its first iterate with
    pulls * d <= delta, within a few ulps of the largest such q.

    A call at the policies' budgets (flat KL index, 256 arms, up to 10^6
    pulls) settles in at most 6 steps; over 5,000 random and extreme lanes
    the median was 1 step and the 99th percentile 5.  A lane still
    infeasible after ``_NEWTON_ITERS`` steps, such as mu_hat within 1e-13
    of 1 with a budget per pull near 1e-20 (2 of those 5,000), where it
    stalls an ulp above mu_hat, is solved by the scalar bisection instead.
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
    one_mu = 1.0 - mu
    # as in _div, the clamp keeps t/mu finite where mu is 0 or below 1e-300
    mu_c = np.maximum(mu, 1e-300)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        base = mu * np.log(mu_c) + one_mu * np.log(one_mu)
        # start above the root: d >= base + (1-mu) s bounds it (the closed
        # form at mu = 0, nan and skipped at mu = 1), and so does
        # d >= (q-mu)^2 / (2v) for any v >= x(1-x) on [mu, q], such as q and
        # m(1-m) with m = max(mu, 1/2)
        x = np.fmin(-np.expm1((base - r) / one_mu), mu + r + np.sqrt(r * (r + 2.0 * mu)))
        v = np.maximum(mu, 0.5) * np.minimum(one_mu, 0.5)
        np.minimum(x, mu + np.sqrt(2.0 * r * v), out=x)
        # below 1, where d is infinite, except at mu = 1, where d(1, 1) = 0
        np.minimum(x, np.maximum(mu, _BELOW_ONE), out=x)
        for i in range(_NEWTON_ITERS):
            t = x - mu
            one_x = 1.0 - x
            # nan only at mu = 1, where x = 1 and fmax takes Pinsker's floor, 0
            d = np.fmax(one_mu * np.log1p(t / one_x) - mu * np.log1p(t / mu_c), 2.0 * t * t)
            f = n * d - delta
            feasible = f <= 0.0
            if feasible.all():
                break
            # the step ds = f / f'(s) scales 1 - q by exp(ds); infeasible
            # lanes have f > 0 and fall
            step = x - one_x * np.expm1(f * x / (n * t))
            # at least one ulp down, doubling after the fourth step, so that a
            # step lost to rounding cannot stall a lane
            np.minimum(step, x * (1.0 - 2.0 ** (max(i, 4) - 56)), out=step)
            # a step out of the bracket (mu, x) halves it instead
            step = np.where(step > mu, step, 0.5 * (mu + x))
            x = np.where(feasible, x, step)
    for k in np.flatnonzero(~feasible):
        x[k] = _invert(mu[k], n[k], delta, 1.0)
    return x.reshape(shape)
