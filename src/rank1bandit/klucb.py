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
delta.  ``kl_ucb_upper_many`` and ``kl_ucb_lower_many`` are the two bounds
over arrays, and ``kl_ucb_argmax`` the first index of the largest upper
bound of an array.

Every bound runs one iteration, in pure Python for one mean (``_invert``)
and in numpy for an array (``_iterate``).  Let e be q's distance to the
end the bound moves toward, 1 - q for the upper bound and q for the lower,
and s = -log e.  In s the divergence is convex, with slope (q - mu)/q on
the upper side and (mu - q)/(1 - q) on the lower, so Newton steps from a
start beyond the root approach it from that side.  The start is the
nearest to mu of three bounds on the root (see ``_iterate``) and of the
last double before the end.  Each step moves q by at least one ulp,
doubling after the fourth step, so that a step lost to rounding cannot
stall, and a step that would cross mu halves the bracket between mu and q
instead.  The iteration stops at its first iterate with pulls * d <=
delta, a few ulps inside the root.  No iteration cap is needed: a step can
fail to move q only when a halving rounds back onto it, and then no double
lies strictly between mu and the infeasible q, so the bound is mu itself.
The iterate is q itself and its distance to the end is q, or 1 - q, exact
wherever it is small, and the start's entropy takes its 1 - mu term by
log1p(-mu), so neither side forms a small number by cancellation.

The array iteration yields its iterates, and which lanes are feasible, at
every check, and has three callers.  ``kl_ucb_upper_many`` and
``kl_ucb_lower_many`` run it to the end.  ``kl_ucb_argmax`` stops at the
first check where every lane still infeasible lies strictly below the
largest feasible iterate, and that exit is exact: a lane's iterates depend
on no other lane, and each step moves an infeasible lane strictly toward
mu (by at least an ulp, by a halving or onto mu), so it can only end below
the lead.  On the flat KL index's calls (256 arms, the first 1,000 steps
of the pbm-like 16x16 instance) the argmax stopped after 1.65 checks on
average, where the full iteration takes 4.22.

Measured on 5,000 random and extreme triples (means uniform, S/n, down to
e^-700 and up to 1 - e^-36; 1 to 10^6 pulls; budgets per pull from 1e-20
to 10^3), every form took at most 6 Newton steps, median 1, and on a
280-triple grid of means 0 to 1 (1e-300, 1e-20 and 0.999999 among them),
1 to 10^6 pulls and budgets 5e-324 to 200,001, at most 5 for the upper
bounds and 6 for the lower one, median 0.  The array forms take as many:
on 5,000 triples drawn the same way at most 6 each, median 1, and on a
480-triple grid of the same kind at most 5 for ``kl_ucb_upper_many`` and
6 for ``kl_ucb_lower_many``.  The flat KL index's calls (256 arms, up to
10^6 pulls) take 6.

The lower bound never goes below 2^-1022, the smallest normal double: where
the root is smaller, the bound is min(mu_hat, 2^-1022).  Below it q * 2^-52,
the one-ulp step, underflows, and mu*log(mu/q), the divergence's first term
in its textbook form, overflows once mu/q passes the largest double.
Where the budget per pull is so small that d at the root is subnormal (mu
near 1e-300 and delta = 5e-324), no double evaluation resolves it, and the
bound can be mu itself, 3e-12 inside the root.
"""

from __future__ import annotations

from math import exp, expm1, inf, isfinite, log, log1p, nextafter, sqrt

import numpy as np

_BELOW_ONE = nextafter(1.0, 0.0)
# the smallest normal double
_TINY = 2.0**-1022


def _check_unit(x: float, name: str) -> float:
    x = float(x)
    if not 0.0 <= x <= 1.0:  # also rejects nan
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
    return x


def _check_at_least(x: float, name: str, low: float) -> float:
    x = float(x)
    if not (isfinite(x) and x >= low):  # also rejects nan
        raise ValueError(f"{name} must be finite and >= {low:g}, got {x!r}")
    return x


def _div(p: float, q: float) -> float:
    """d(p, q) for 0 < q < 1, in t = q - p (see the module docstring)."""
    t = q - p
    one_q = 1.0 - q
    # the clamps keep t/p finite and the log's argument positive where p is
    # 0, below 2^-1022 or 1; the term they enter is then below 2e-305
    a = t / (p if p > _TINY else _TINY)
    b = t / one_q
    d = (-p * (log1p(a) if a > -0.5 else log(q / p))
         + (1.0 - p) * (log1p(b) if b > -0.5 else log((1.0 - p or 1e-300) / one_q)))
    # Pinsker's bound, where the rounding of the terms, about eps*|t|, hides d
    return max(d, 2.0 * t * t)


def kl_div(p: float, q: float) -> float:
    """Bernoulli relative entropy d(p, q) in nats.

    Raises ValueError if either argument is outside [0, 1] or not a number.
    """
    p = _check_unit(p, "p")
    q = _check_unit(q, "q")
    if q <= 0.0 or q >= 1.0:
        return 0.0 if p == q else inf
    return _div(p, q)


def _invert(mu_hat: float, pulls: float, delta: float, up: bool) -> float:
    """The q farthest from mu_hat toward 1 (``up``) or toward 0 with
    pulls * d(mu_hat, q) <= delta, by the Newton iteration of the module
    docstring."""
    mu = _check_unit(mu_hat, "mu_hat")
    pulls = _check_at_least(pulls, "pulls", 1.0)
    delta = _check_at_least(delta, "delta", 0.0)
    if delta == 0.0 or (mu == 1.0 if up else mu <= _TINY):
        return mu
    one_mu = 1.0 - mu
    # the direction of the end, and the mean's distance to it and to the other
    sign, to_end, rest = (1.0, one_mu, mu) if up else (-1.0, mu, one_mu)
    r = delta / pulls
    # the mean's negative entropy, its 1 - mu term by log1p, exact at tiny mu
    base = (mu * log(mu) if mu else 0.0) + (one_mu * log1p(-mu) if one_mu else 0.0)
    z = (base - r) / to_end
    v = max(rest, 0.5) * min(to_end, 0.5)
    # start beyond the root: the nearest of its three bounds and the last
    # double before the end
    x = (min if up else max)(-expm1(z) if up else exp(z), _BELOW_ONE if up else _TINY,
                             mu + sign * r + sign * sqrt(r) * sqrt(r + 2.0 * rest),
                             mu + sign * sqrt(2.0 * r) * sqrt(v))
    grow = 2.0**-56
    # until x is on mu: the start or a halving rounded onto it, or a stall
    while (x - mu) * sign > 0.0:
        f = pulls * _div(mu, x) - delta
        if f <= 0.0:
            return x
        x_end, x_rest = (1.0 - x, x) if up else (x, 1.0 - x)
        # the Newton step in s = -log(x_end), at least one ulp, doubling
        # after the fourth step
        step = x - sign * max(x_end * expm1(f / (pulls * (x - mu) * sign) * x_rest),
                              x * max(grow, 2.0**-52))
        # a step out of the bracket between mu and x halves it instead
        if (step - mu) * sign <= 0.0:
            step = 0.5 * (mu + x)
        # rounded back onto x: no double lies strictly between mu and x
        x = mu if step == x else step
        grow *= 2.0
    return mu


def kl_ucb_upper(mu_hat: float, pulls: float, delta: float) -> float:
    """Largest q in [mu_hat, 1] with pulls * d(mu_hat, q) <= delta, within
    5 ulps of the root on the 5,000 triples above.

    For mu_hat = 0 this is 1 - exp(-delta/pulls), subnormal or not
    (``kl_ucb_upper(0.0, 3, 1e-300)`` is 3.3e-301), or the largest double
    below 1 once that rounds to 1; for mu_hat = 1 it is 1.
    """
    return _invert(mu_hat, pulls, delta, True)


def kl_ucb_lower(mu_hat: float, pulls: float, delta: float) -> float:
    """Smallest q in [0, mu_hat] with pulls * d(mu_hat, q) <= delta, but
    never below min(mu_hat, 2^-1022).

    For mu_hat = 1 this is exp(-delta/pulls) (``kl_ucb_lower(1.0, 1,
    200.0)`` is exp(-200)) down to 2^-1022; mu_hat = 0 gives 0.  Near
    mu_hat the bound is within a few ulps of the root; far below it, q is
    fixed only as well as log(q/mu_hat), whose rounding spans up to about a
    thousand ulps of q (1.4e-13 of it on the 5,000 triples above).
    """
    return _invert(mu_hat, pulls, delta, False)


def _iterate(mu_hat, pulls, delta: float, up: bool):
    """The module docstring's iteration over arrays, one lane per mean,
    toward 1 (``up``) or toward 0: yields the iterates and which lanes are
    feasible at every check, and stops after the first check at which all
    of them are.  A feasible lane keeps its iterate from then on.

    The start is the nearest to mu of three bounds on the root: the
    entropy bound d >= base + (1 - mu)s toward 1, base + mu*s toward 0,
    exact where mu is the other end; d >= (q - mu)^2 / (2q) toward 1,
    / (2(1 - q)) toward 0; and Pinsker's d >= (q - mu)^2 / (2v) for v at
    least x(1 - x) between mu and q, such as max(mu, 1/2)min(1 - mu, 1/2)
    toward 1.  Each square root is taken of its factors, so that a
    subnormal budget does not underflow.
    """
    mu = np.asarray(mu_hat, dtype=float)
    n = np.asarray(pulls, dtype=float)
    if mu.size and (mu.min() < 0.0 or mu.max() > 1.0 or not np.isfinite(mu).all()):
        raise ValueError("mu_hat entries must lie in [0, 1]")
    if n.size and (not np.isfinite(n).all() or n.min() < 1.0):
        raise ValueError("pulls entries must be finite counts >= 1")
    delta = _check_at_least(delta, "delta", 0.0)
    r = delta / n
    one_mu = 1.0 - mu
    # as in _div, the clamp keeps t/mu finite where mu is 0 or below 2^-1022
    mu_c = np.maximum(mu, _TINY)
    # the sign of q - mu on the bound's side, the one of two iterates
    # nearer mu, and the test that a step stayed on that side
    sign, nearer, beyond = (1.0, np.minimum, np.greater) if up else (-1.0, np.maximum, np.less)
    grow = 2.0**-56
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the mean's negative entropy, 0 at mu = 0 and at mu = 1
        base = mu * np.log(mu_c) + one_mu * np.log1p(-np.minimum(mu, _BELOW_ONE))
        # the entropy bound is nan, and skipped, where mu is the end the
        # bound moves toward and the budget is 0
        if up:
            x = np.fmin(-np.expm1((base - r) / one_mu), mu + r + np.sqrt(r) * np.sqrt(r + 2.0 * mu))
            x = np.minimum(x, mu + np.sqrt(2.0 * r) * np.sqrt(np.maximum(mu, 0.5) * np.minimum(one_mu, 0.5)))
            # short of 1, where d is infinite, except at mu = 1, where d(1, 1) = 0
            x = np.minimum(x, np.maximum(mu, _BELOW_ONE))
        else:
            x = np.fmax(np.exp((base - r) / mu), mu - r - np.sqrt(r) * np.sqrt(r + 2.0 * one_mu))
            x = np.maximum(x, mu - np.sqrt(2.0 * r) * np.sqrt(np.maximum(one_mu, 0.5) * np.minimum(mu, 0.5)))
            # no lower than 2^-1022, and mu itself where mu is no larger
            x = np.where(mu > _TINY, np.maximum(x, _TINY), mu)
            # as in _div, keeps the ratio (1 - mu)/(1 - x) positive at mu = 1
            one_mu_c = np.maximum(one_mu, 1e-300)
        while True:
            t = x - mu
            one_x = 1.0 - x
            # nan only where x = mu = 1, and fmax takes Pinsker's floor, 0
            if up:
                # neither log needs its ratio form above mu
                d = one_mu * np.log1p(t / one_x) - mu * np.log1p(t / mu_c)
            else:
                a, b = t / mu_c, t / one_x
                d = (one_mu * np.where(b > -0.5, np.log1p(b), np.log(one_mu_c / one_x))
                     - mu * np.where(a > -0.5, np.log1p(a), np.log(x / mu_c)))
            f = n * np.fmax(d, 2.0 * t * t) - delta
            feasible = f <= 0.0
            yield x, feasible
            if feasible.all():
                return
            # the step ds = f / f'(s) scales x's distance to the end by
            # exp(ds); infeasible lanes have f > 0 and move toward mu
            if up:
                step = x - one_x * np.expm1(f / (n * t) * x)
            else:
                step = x + x * np.expm1(f / (n * -t) * one_x)
            # at least one ulp, doubling after the fourth step, so that a
            # step lost to rounding cannot stall a lane
            step = nearer(step, x * (1.0 - sign * max(grow, 2.0**-52)))
            # a step out of the bracket between mu and x halves it instead
            step = np.where(beyond(step, mu), step, 0.5 * (mu + x))
            # rounded back onto x: no double lies strictly between mu and x
            x = np.where(feasible, x, np.where(step == x, mu, step))
            grow *= 2.0


def kl_ucb_upper_many(mu_hat: np.ndarray, pulls: np.ndarray, delta: float) -> np.ndarray:
    """Vectorized ``kl_ucb_upper`` over arrays of means and counts (a count
    may be one number for every mean), for the stage boundary and any
    caller that needs every bound.

    A lane that stalls above mu_hat, as one with mu_hat within 1e-13 of 1
    and a budget per pull near 1e-20 does, returns mu_hat.  mu_hat = 1
    gives 1 and delta = 0 gives mu_hat.  The arithmetic is the scalar
    form's, down to the order of each product, so a lane ends where
    ``kl_ucb_upper`` does but for the last bits of numpy's log, log1p and
    expm1, which can round apart from the math module's: 108 lanes of a
    seeded scan of 5,000 triples drawn as above ended apart, by 4 ulps at
    most.
    """
    for x, _ in _iterate(mu_hat, pulls, delta, True):
        pass
    return x


def kl_ucb_lower_many(mu_hat: np.ndarray, pulls: np.ndarray, delta: float) -> np.ndarray:
    """Vectorized ``kl_ucb_lower``: the same iteration toward 0, each log
    in its ratio form where the scalar solver takes it, and never below
    min(mu_hat, 2^-1022).  mu_hat = 0 gives 0 and delta = 0 gives mu_hat.
    """
    for x, _ in _iterate(mu_hat, pulls, delta, False):
        pass
    return x


def kl_ucb_argmax(mu_hat: np.ndarray, pulls: np.ndarray, delta: float) -> int:
    """``int(np.argmax(kl_ucb_upper_many(mu_hat, pulls, delta)))``, the
    first lane holding the largest upper bound, iterated only until that
    lane is decided.

    It returns at the first check where every lane still infeasible lies
    strictly below the largest feasible bound, the first feasible lane
    holding it.  That is exact: a lane's iterates depend on no other lane,
    and an infeasible lane's next iterate lies strictly below its current
    one, by at least an ulp, by a halving or on mu, so it ends below the
    lead.  Raises ValueError for no lanes, as ``np.argmax`` does.
    """
    for x, feasible in _iterate(mu_hat, pulls, delta, True):
        settled = np.where(feasible, x, -1.0)
        lead = int(settled.argmax())
        if (feasible | (x < settled[lead])).all():
            return lead
