"""Tests for the Bernoulli divergence and its confidence-bound solvers.

Expected values are frozen from closed forms worked out by hand:
d(p, q) at interior points reduces to p*log(p/q) + (1-p)*log((1-p)/(1-q)),
d(0, q) = -log(1-q), d(1, q) = -log(q), and inverting those boundary cases
gives the solver's closed-form answers 1 - exp(-delta/pulls) and
exp(-delta/pulls).
"""

from __future__ import annotations

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rank1bandit.klucb import (
    _div,
    kl_div,
    kl_ucb_argmax,
    kl_ucb_lower,
    kl_ucb_lower_many,
    kl_ucb_upper,
    kl_ucb_upper_many,
)

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def upper_many_ref(mu: np.ndarray, n: np.ndarray, delta: float) -> np.ndarray:
    """Oracle of ``kl_ucb_upper_many``: a bisection from [mu, 1] in the same
    divergence, 100 lockstep iterations.  Inputs must be valid."""
    if delta == 0.0:
        return mu.copy()
    lo = mu.copy()
    hi = np.ones_like(mu)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        t = mid - mu
        with np.errstate(divide="ignore", invalid="ignore"):
            d = (-mu * np.log1p(t / np.maximum(mu, TINY))
                 + (1.0 - mu) * np.log1p(t / np.maximum(1.0 - mid, 1e-300)))
        feasible = n * np.maximum(d, 2.0 * t * t) <= delta
        lo = np.where(feasible, mid, lo)
        hi = np.where(feasible, hi, mid)
    return lo


def div_many(mu: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``kl_ucb_upper_many``'s own divergence d(mu, q) for q >= mu, in
    t = q - mu: -mu*log1p(t/mu) + (1-mu)*log1p(t/(1-q)), floored by
    Pinsker's 2 t^2, with mu clamped to 2^-1022 as in the solver (the term
    it enters is then below 2e-305) and 1 - q to 1e-300."""
    t = q - mu
    with np.errstate(divide="ignore", invalid="ignore"):
        d = (-mu * np.log1p(t / np.maximum(mu, TINY))
             + (1.0 - mu) * np.log1p(t / np.maximum(1.0 - q, 1e-300)))
    return np.maximum(d, 2.0 * t * t)


def _log1p(x: Decimal) -> Decimal:
    """log(1 + x) in the current context, by its series where 1 + x would
    round away x's digits."""
    if abs(x) > Decimal("1e-3"):
        return (1 + x).ln()
    return -sum((-x) ** k / k for k in range(1, 25))


def decimal_root(mu: float, pulls: int, delta: float, end: float) -> float:
    """The root of pulls * d(mu, q) = delta between mu and ``end``, by a
    60-digit ``decimal`` bisection of 220 steps, rounded to a double.

    The bisection runs in q toward 1 and in log q toward 0, where a root
    can lie hundreds of binades below mu.  d is taken in t = q - mu, as
    -mu*log1p(t/mu) + (1-mu)*log1p(t/(1-q)), each log by its ratio where
    its argument is at most -1/2, so that no digit of t is lost where q is
    near mu or mu near 0 or 1."""
    if delta == 0.0 or mu == end:
        return mu
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        m = Decimal(mu)
        budget = Decimal(delta) / pulls

        def log1p_ratio(x: Decimal, num: Decimal, den: Decimal) -> Decimal:
            # log(1 + x) = log(num / den), by the ratio where 1 + x <= 1/2
            return (num / den).ln() if x <= Decimal("-0.5") else _log1p(x)

        def d(q: Decimal) -> Decimal:
            t = q - m
            out = (1 - m) * log1p_ratio(t / (1 - q), 1 - m, 1 - q) if m < 1 else 0
            return out - m * log1p_ratio(t / m, q, m) if m > 0 else out

        # bisect s, with q = point(s); the far end is infeasible
        point = (lambda s: s) if end else Decimal.exp
        near, far = (m, Decimal(1)) if end else (m.ln(), Decimal(-800))
        for _ in range(220):
            mid = (near + far) / 2
            if d(point(mid)) <= budget:
                near = mid
            else:
                far = mid
        return float(point(near))


# a lane whose Newton steps stall an ulp above mu, which is the bound: mu
# within 1e-13 of 1 and a budget per pull near 3e-20
NEWTON_CAP = (0.9999999999999373, 82810, 2.825e-15)
TINY = 2.0**-1022  # the smallest normal double, the lower bound's floor

# pulls from 1 to 10^6, with the few-pull counts where a budget ratio
# delta/pulls past 36.74 is reachable
PULLS = st.one_of(st.integers(1, 5), st.integers(1, 10**6))


@st.composite
def mean_and_pulls(draw) -> tuple[float, int]:
    """A mean (degenerate, at a double's edge, an empirical S/pulls, or any
    float in [0, 1]) with a pull count."""
    pulls = draw(PULLS)
    mu = draw(st.one_of(
        st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2**-53]),
        st.integers(0, pulls).map(lambda s: s / pulls),
        st.floats(0.0, 1.0),
    ))
    return mu, pulls


# delta/pulls on both sides of 36.74, where 1 - exp(-delta/pulls) rounds to 1
BUDGET_RATIO = st.one_of(
    st.just(0.0), st.floats(0.0, 36.7), st.floats(36.8, 1e3), st.sampled_from([36.7, 36.74, 36.8, 40.0])
)


class TestKlDiv:
    def test_zero_on_diagonal(self):
        for p in (0.0, 0.25, 0.5, 1.0):
            assert kl_div(p, p) == 0.0

    def test_symmetric_interior_pair(self):
        # p=0.25, q=0.75: terms collapse to (0.75-0.25)*log(3)
        assert kl_div(0.25, 0.75) == pytest.approx(0.5 * LN3, abs=1e-15)
        assert kl_div(0.75, 0.25) == pytest.approx(0.5 * LN3, abs=1e-15)

    def test_boundary_p_zero(self):
        assert kl_div(0.0, 0.5) == pytest.approx(LN2, abs=1e-15)
        assert kl_div(0.0, 0.9) == pytest.approx(-math.log(0.1), rel=1e-12)

    def test_boundary_p_one(self):
        assert kl_div(1.0, 0.5) == pytest.approx(LN2, abs=1e-15)

    def test_infinite_against_degenerate_reference(self):
        assert kl_div(0.5, 0.0) == math.inf
        assert kl_div(0.5, 1.0) == math.inf
        assert kl_div(0.0, 1.0) == math.inf
        assert kl_div(1.0, 0.0) == math.inf

    def test_domain_errors(self):
        for p, q in [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1),
                     (math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5)]:
            with pytest.raises(ValueError):
                kl_div(p, q)

    def test_nonnegative_and_zero_only_on_diagonal(self):
        grid = np.linspace(0.0, 1.0, 21)
        for p in grid:
            for q in grid:
                d = kl_div(float(p), float(q))
                assert d >= 0.0
                if p != q:
                    assert d > 0.0

    def test_pinsker_lower_bound(self):
        # d(p, q) >= 2 (p - q)^2 everywhere on a unit-square grid
        grid = np.linspace(0.0, 1.0, 41)
        for p in grid:
            for q in grid:
                assert kl_div(float(p), float(q)) >= 2.0 * (p - q) ** 2 - 1e-12

    def test_scaling_sandwich(self):
        # c*(1-max(p,q))*d(p,q) <= d(c*p, c*q) <= c*d(p,q) on an interior grid
        grid = np.arange(0.05, 1.0, 0.05)
        for c in grid:
            for p in grid:
                for q in grid:
                    d = kl_div(float(p), float(q))
                    dc = kl_div(float(c * p), float(c * q))
                    assert dc <= c * d + 1e-12
                    assert dc >= c * (1.0 - max(p, q)) * d - 1e-12

    def test_scaled_quadratic_lower_bound(self):
        # 2*c*max(c, 1-max(p,q))*(p-q)^2 <= d(c*p, c*q)
        grid = np.arange(0.05, 1.0, 0.05)
        for c in grid:
            for p in grid:
                for q in grid:
                    lhs = 2.0 * c * max(c, 1.0 - max(p, q)) * (p - q) ** 2
                    assert kl_div(float(c * p), float(c * q)) >= lhs - 1e-12

    def test_monotone_in_q_away_from_p(self):
        p = 0.3
        qs_up = np.linspace(0.3, 0.999, 50)
        ds_up = [kl_div(p, float(q)) for q in qs_up]
        assert all(b >= a for a, b in zip(ds_up, ds_up[1:]))
        qs_down = np.linspace(0.3, 0.001, 50)
        ds_down = [kl_div(p, float(q)) for q in qs_down]
        assert all(b >= a for a, b in zip(ds_down, ds_down[1:]))

    def test_midpoint_convexity_in_q(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            p = float(rng.uniform(0.01, 0.99))
            q1 = float(rng.uniform(0.01, 0.99))
            q2 = float(rng.uniform(0.01, 0.99))
            mid = kl_div(p, 0.5 * (q1 + q2))
            assert mid <= 0.5 * kl_div(p, q1) + 0.5 * kl_div(p, q2) + 1e-12


class TestUpperSolver:
    def test_zero_budget_returns_estimate(self):
        assert kl_ucb_upper(0.5, 12, 0.0) == 0.5
        assert kl_ucb_upper(0.0, 3, 0.0) == 0.0

    def test_estimate_one_returns_one(self):
        assert kl_ucb_upper(1.0, 10, 2.0) == 1.0

    def test_closed_form_at_zero_estimate(self):
        # d(0, q) = -log(1-q), so the bound is 1 - exp(-delta/pulls)
        assert kl_ucb_upper(0.0, 10, 2.0) == pytest.approx(1.0 - math.exp(-0.2), abs=1e-12)
        assert kl_ucb_upper(0.0, 7, 1.3) == pytest.approx(1.0 - math.exp(-1.3 / 7.0), abs=1e-12)

    def test_zero_estimate_with_budget_past_double_resolution(self):
        # past delta/pulls ~ 36.74 the closed form rounds to 1, where the
        # divergence is infinite; the bound is the largest double below 1,
        # as the vectorized solver gives
        below_one = float(np.nextafter(1.0, 0.0))
        for pulls, delta in [(1, 40.0), (2, 80.0), (1, 1e3)]:
            u = kl_ucb_upper(0.0, pulls, delta)
            assert u == below_one
            assert u == pytest.approx(1.0 - math.exp(-delta / pulls), abs=2**-52)
            assert u == kl_ucb_upper_many(np.array([0.0]), np.array([float(pulls)]), delta)[0]
        assert kl_ucb_upper(0.0, 1, 36.7) == pytest.approx(1.0 - math.exp(-36.7), abs=2**-52)

    def test_round_trip_interior(self):
        for mu, pulls, delta in [(0.3, 50, 2.0), (0.5, 200, 5.0), (0.9, 1000, 0.7)]:
            u = kl_ucb_upper(mu, pulls, delta)
            assert mu <= u <= 1.0
            assert pulls * kl_div(mu, u) == pytest.approx(delta, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kl_ucb_upper(-0.1, 10, 1.0)
        with pytest.raises(ValueError):
            kl_ucb_upper(0.5, 0, 1.0)
        with pytest.raises(ValueError):
            kl_ucb_upper(0.5, 10, -1.0)
        with pytest.raises(ValueError):
            kl_ucb_upper(0.5, 10, math.inf)
        with pytest.raises(ValueError):
            kl_ucb_upper(math.nan, 10, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        mu=st.floats(0.0, 0.99),
        pulls=st.integers(10, 10**6),
        delta=st.floats(0.01, 10.0),
    )
    def test_round_trip_property(self, mu, pulls, delta):
        delta = min(delta, 0.5 * pulls * (1.0 - mu))  # keep the root inside float range
        if delta <= 0.0:
            return
        u = kl_ucb_upper(mu, pulls, delta)
        assert mu <= u <= 1.0
        assert abs(pulls * kl_div(mu, u) - delta) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(
        mu=st.floats(0.0, 1.0),
        pulls=st.integers(1, 10**6),
        d1=st.floats(0.0, 5.0),
        d2=st.floats(0.0, 5.0),
    )
    def test_monotone_in_budget(self, mu, pulls, d1, d2):
        lo, hi = sorted((d1, d2))
        assert kl_ucb_upper(mu, pulls, lo) <= kl_ucb_upper(mu, pulls, hi)

    def test_cap_floor_at_zero_estimate(self):
        # a root of 3.3e-301 is the closed form in both forms
        assert kl_ucb_upper(0.0, 3, 1e-300) == -math.expm1(-1e-300 / 3)
        got = kl_ucb_upper_many(np.array([0.0]), np.array([3.0]), 1e-300)[0]
        assert got == -math.expm1(-1e-300 / 3)

    def test_root_far_below_the_bracket(self):
        # a root 21 orders of magnitude below the width of [mu, 1]
        root = 2.058545020379596e-21
        assert abs(kl_ucb_upper(0.0, 485780, 1e-15) - root) <= 4 * math.ulp(root)

    def test_subnormal_root(self):
        # a start of mu + sqrt(2 r v) underflows to 0 here
        assert kl_ucb_upper(0.0, 1, 5e-324) == 5e-324
        assert kl_ucb_upper_many(np.array([0.0]), np.array([1.0]), 5e-324)[0] == 5e-324

    def test_shrinks_with_more_pulls(self):
        us = [kl_ucb_upper(0.4, n, 3.0) for n in (10, 100, 1000, 10000)]
        assert all(b <= a for a, b in zip(us, us[1:]))


class TestLowerSolver:
    def test_zero_budget_returns_estimate(self):
        assert kl_ucb_lower(0.5, 12, 0.0) == 0.5

    def test_estimate_zero_returns_zero(self):
        assert kl_ucb_lower(0.0, 10, 2.0) == 0.0

    def test_closed_form_at_one_estimate(self):
        # d(1, q) = -log(q), so the bound is exp(-delta/pulls)
        assert kl_ucb_lower(1.0, 10, 2.0) == pytest.approx(math.exp(-0.2), abs=1e-12)
        assert kl_ucb_lower(1.0, 4, 0.9) == pytest.approx(math.exp(-0.225), abs=1e-12)
        # 288 binades below mu
        assert kl_ucb_lower(1.0, 1, 200.0) == pytest.approx(math.exp(-200.0), rel=1e-12, abs=0.0)

    def test_start_on_the_mean(self):
        # the start exp(-1e-300) rounds onto mu = 1, where 1 - q is 0
        assert kl_ucb_lower(1.0, 1, 1e-300) == 1.0

    def test_floor_at_the_smallest_normal(self):
        # the root, about 1e-6 * exp(-10^5), is below 2^-1022: the bound
        # stops there, where mu * log(mu / q) is still finite
        assert kl_ucb_lower(1e-6, 1, 0.1) == TINY
        assert kl_ucb_lower(1.0, 1, 1000.0) == TINY
        # a subnormal mean is its own bound, never a value above it
        for mu in (5e-324, 1e-310, TINY):
            assert kl_ucb_lower(mu, 1, 1.0) == mu

    def test_round_trip_interior(self):
        for mu, pulls, delta in [(0.3, 50, 2.0), (0.5, 200, 5.0), (0.1, 1000, 0.7)]:
            lo = kl_ucb_lower(mu, pulls, delta)
            assert 0.0 <= lo <= mu
            assert pulls * kl_div(mu, lo) == pytest.approx(delta, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(
        mu=st.floats(0.01, 1.0),
        pulls=st.integers(10, 10**6),
        delta=st.floats(0.01, 10.0),
    )
    def test_round_trip_property(self, mu, pulls, delta):
        delta = min(delta, 0.5 * pulls * mu)  # mirror-image envelope guard
        if delta <= 0.0:
            return
        lo = kl_ucb_lower(mu, pulls, delta)
        assert 0.0 <= lo <= mu
        assert abs(pulls * kl_div(mu, lo) - delta) <= 1e-9

    def test_bracket_ordering(self):
        for mu in (0.0, 0.2, 0.5, 0.8, 1.0):
            lo = kl_ucb_lower(mu, 40, 2.5)
            up = kl_ucb_upper(mu, 40, 2.5)
            assert lo <= mu <= up

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kl_ucb_lower(1.2, 10, 1.0)
        with pytest.raises(ValueError):
            kl_ucb_lower(0.5, -3, 1.0)
        with pytest.raises(ValueError):
            kl_ucb_lower(0.5, 10, -0.5)


class TestVectorizedUpper:
    def test_matches_scalar(self):
        rng = np.random.default_rng(11)
        mus = rng.uniform(0.0, 1.0, size=64)
        pulls = rng.integers(1, 5000, size=64)
        delta = 4.2
        vec = kl_ucb_upper_many(mus, pulls, delta)
        for k in range(64):
            assert vec[k] == pytest.approx(
                kl_ucb_upper(float(mus[k]), int(pulls[k]), delta), abs=1e-12
            )

    def test_domain_errors(self):
        mu, pulls = np.array([0.5, 0.2]), np.array([3.0, 1.0])
        for bad in (-0.1, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"mu_hat entries must lie in \[0, 1\]"):
                kl_ucb_upper_many(np.array([0.5, bad]), pulls, 1.0)
        for bad in (0.5, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="pulls entries must be finite counts >= 1"):
                kl_ucb_upper_many(mu, np.array([3.0, bad]), 1.0)

    def test_zero_budget(self):
        mus = np.array([0.0, 0.3, 1.0])
        out = kl_ucb_upper_many(mus, np.array([5, 5, 5]), 0.0)
        np.testing.assert_allclose(out, mus, atol=1e-12)

    def test_zero_estimate_matches_scalar(self):
        # stage 0 at horizon 120,000 observes each arm 188 times; at S = 0
        # the array form used -log(1 - q) and the scalar -log1p(-q)
        log_n = math.log(120_000)
        budget = log_n + 3.0 * math.log(log_n)
        means = np.arange(189) / 188
        got = kl_ucb_upper_many(means, np.full(189, 188.0), budget)
        for s in range(189):
            assert abs(got[s] - kl_ucb_upper(s / 188, 188, budget)) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(lanes=st.lists(mean_and_pulls(), max_size=40), delta=st.floats(0.0, 200.0))
    @example(lanes=[], delta=3.0)
    @example(lanes=[(0.0, 1), (1e-20, 1), (0.5, 3)], delta=1e-15)  # roots within 1e-15 of mu
    @example(lanes=[(0.0, 1), (1.0, 1), (5e-324, 2), (1.0 - 2**-53, 3), (0.25, 4)], delta=40.0)
    @example(lanes=[(NEWTON_CAP[0], NEWTON_CAP[1]), (0.5, 3)], delta=NEWTON_CAP[2])
    @example(lanes=[(5e-324, 1)], delta=TINY)  # a subnormal mean, clamped in the divergence
    def test_precision_against_bisection(self, lanes, delta):
        # 1e-9 is the benchmark's KL_TOL; feasibility is exact in the
        # solver's own divergence
        mu = np.array([m for m, _ in lanes], dtype=float)
        n = np.array([p for _, p in lanes], dtype=float)
        got = kl_ucb_upper_many(mu, n, delta)
        want = upper_many_ref(mu, n, delta)
        assert got.shape == want.shape
        assert (np.abs(got - want) <= 1e-9).all()
        assert ((mu <= got) & (got <= 1.0)).all()
        assert (n * div_many(mu, got) <= delta).all()

    @pytest.mark.parametrize("mu, bound", [
        (1e-160, 3.146193220620582e-160),
        (1e-200, 3.1461932206205823e-200),
        (1.275163705955491e-303, 4.0119114068585835e-303),
    ])
    def test_tiny_mean_and_budget_reach_the_root(self, mu, bound):
        # one pull and a budget equal to the mean; each bound is within an
        # ulp inside a 90-digit mpmath root.  The Newton product
        # f * x / (n * t) underflowed here, and the start
        # mu + r + sqrt(r * (r + 2 mu)) fell to mu + r, inside the feasible set
        got = kl_ucb_upper_many(np.array([mu, 0.5]), np.array([1.0, 3.0]), mu)
        assert got[0] == bound == kl_ucb_upper(mu, 1, mu)

    def test_lane_that_stalls_above_the_mean_returns_the_mean(self):
        mu, pulls, delta = NEWTON_CAP
        got = kl_ucb_upper_many(np.array([mu, 0.5]), np.array([float(pulls), 3.0]), delta)
        assert got[0] == mu
        assert kl_ucb_upper(mu, pulls, delta) == mu


class TestPrecisionNearTheMean:
    """Bounds where the budget per pull is tiny, so the root lies close to
    mu_hat, where a divergence of the form entropy - mu*log(q) - ... cancels
    to rounding noise."""

    def test_subnormal_budget_returns_the_mean(self):
        # the root is within 1e-160 of mu, and mu is the best double
        for mu, pulls in [(0.5, 1), (0.4349757485946594, 485780)]:
            assert kl_ucb_upper(mu, pulls, 5e-324) == mu
            assert kl_ucb_upper_many(np.array([mu]), np.array([float(pulls)]), 5e-324)[0] == mu
        assert kl_ucb_lower(0.5, 1, 5e-324) == 0.5

    @pytest.mark.parametrize("mu, pulls, delta",
                             [(1e-20, 188, 1e-15), (0.13, 10**6, 1e-9), (0.999999, 188, 1e-15)])
    def test_within_four_ulps_of_the_root(self, mu, pulls, delta):
        root = decimal_root(mu, pulls, delta, 1.0)
        many = kl_ucb_upper_many(np.array([mu]), np.array([float(pulls)]), delta)[0]
        assert abs(many - root) <= 4 * math.ulp(root)
        assert abs(kl_ucb_upper(mu, pulls, delta) - root) <= 4 * math.ulp(root)
        lower_root = decimal_root(mu, pulls, delta, 0.0)
        lower = kl_ucb_lower(mu, pulls, delta)
        if lower_root >= mu / 2:
            assert abs(lower - lower_root) <= 4 * math.ulp(lower_root)
        else:
            # far below mu the rounding of log(q/mu) alone, 5.7e-14 at
            # (1e-20, 188, 1e-15), where it is -533, spans 250 ulps of q
            assert lower == pytest.approx(lower_root, rel=1e-12, abs=0.0)


def _ulps_out(x: float, k: int, end: float) -> float:
    for _ in range(k):
        x = math.nextafter(x, end)
    return x


class TestScalarBounds:
    """Both scalar bounds over degenerate, edge and empirical means and
    budgets per pull on both sides of 36.74."""

    @settings(max_examples=300, deadline=None)
    @given(mp=mean_and_pulls(), ratio=BUDGET_RATIO)
    @example(mp=(0.0, 1), ratio=1e-29)
    @example(mp=(1.0, 1), ratio=40.0)
    @example(mp=NEWTON_CAP[:2], ratio=NEWTON_CAP[2] / NEWTON_CAP[1])
    @example(mp=(1e-160, 1), ratio=1e-160)  # f * q underflows near the root
    @example(mp=(1.275163705955491e-303, 1), ratio=1.275163705955491e-303)  # mu below 1e-300
    def test_upper_is_feasible_and_maximal(self, mp, ratio):
        mu, pulls = mp
        delta = ratio * pulls
        up = kl_ucb_upper(mu, pulls, delta)
        assert mu <= up <= 1.0
        assert up == mu or pulls * _div(mu, up) <= delta
        # 8 ulps further out is infeasible, wherever d there is a normal
        # double: below 2^-1022 it has lost its relative precision, and it
        # underflows to 0 a few ulps from a mean below about 1e-290
        out = _ulps_out(up, 8, 1.0)
        if out < 1.0 and _div(mu, out) >= TINY:
            assert pulls * _div(mu, out) > delta

    @settings(max_examples=200, deadline=None)
    @given(mp=mean_and_pulls(), ratio=BUDGET_RATIO)
    @example(mp=(1e-20, 188), ratio=1e-15 / 188)
    @example(mp=(1.0, 1), ratio=200.0)
    @example(mp=(1e-6, 1), ratio=0.1)
    def test_lower_is_feasible_and_matches_the_root(self, mp, ratio):
        # where q << mu the bound is conditioned far worse than the upper
        # one (the rounding of d spans tens of ulps of q), so it is checked
        # against the reference rather than its neighbours
        mu, pulls = mp
        delta = ratio * pulls
        lo = kl_ucb_lower(mu, pulls, delta)
        assert 0.0 <= lo <= mu
        assert lo == mu or pulls * _div(mu, lo) <= delta
        root = decimal_root(mu, pulls, delta, 0.0)
        if root >= TINY:
            assert lo == pytest.approx(root, rel=1e-12, abs=0.0)
        else:
            assert lo == min(mu, TINY)


def textbook_div(p: float, q: float) -> float:
    """d(p, q) as p*(log p - log q) + (1-p)*(log(1-p) - log(1-q)), each
    log taken apart so that no ratio overflows."""
    if p == q:
        return 0.0
    if q <= 0.0 or q >= 1.0:
        return math.inf
    out = p * (math.log(p) - math.log(q)) if p > 0.0 else 0.0
    return out + ((1.0 - p) * (math.log1p(-p) - math.log1p(-q)) if p < 1.0 else 0.0)


@st.composite
def tied_lanes(draw) -> list[tuple[float, int]]:
    """Lanes drawn from a pool of a few (mean, pulls) pairs, so that equal
    lanes, and so tied bounds, are common."""
    pool = draw(st.lists(mean_and_pulls(), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    return [pool[i] for i in picks]


def _arrays(lanes) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([m for m, _ in lanes], dtype=float),
            np.array([p for _, p in lanes], dtype=float))


class TestVectorizedLower:
    # the benchmark's grid (perfbench/checks.py), and its tolerance
    MEANS = (0.0, 1e-6, 0.001, 0.05, 0.13, 0.25, 0.5, 0.75, 0.99, 0.999999, 1.0)
    PULLS = (1, 2, 17, 188, 10_000, 1_000_000)
    TOL = 1e-9

    @pytest.mark.parametrize("delta", [0.0, 0.1, 1.0, 18.77, 40.0])
    def test_feasible_and_minimal_on_the_benchmark_grid(self, delta):
        mu = np.repeat(self.MEANS, len(self.PULLS))
        n = np.tile(np.array(self.PULLS, dtype=float), len(self.MEANS))
        got = kl_ucb_lower_many(mu, n, delta)
        for m, pulls, lo in zip(mu.tolist(), n.tolist(), got.tolist()):
            assert 0.0 <= lo <= m
            assert pulls * textbook_div(m, lo) <= delta + self.TOL * max(1.0, delta)
            if delta == 0.0:
                assert lo == m
            elif lo - self.TOL > 0.0:
                assert pulls * textbook_div(m, lo - self.TOL) > delta

    @settings(max_examples=300, deadline=None)
    @given(mp=mean_and_pulls(), ratio=BUDGET_RATIO)
    @example(mp=(1.0, 1), ratio=200.0)
    @example(mp=(1e-20, 188), ratio=1e-15 / 188)
    @example(mp=(0.1234184616172812, 1), ratio=18.77)  # 151 ulps apart, q/mu = 3.5e-67
    @example(mp=(2.2250738585e-313, 1), ratio=2.2250738585e-313)  # a subnormal mean is its bound
    def test_within_ulps_of_the_scalar_bound(self, mp, ratio):
        # numpy's logs round apart from the math module's by an ulp, and
        # the ratio form log(q/mu) carries that to q as |log(q/mu)| ulps
        # of q: on 300,000 seeded triples drawn as in the module docstring
        # the two bounds ended at most 6 ulps apart where q >= mu/2, and at
        # most 2|log(q/mu)| + 6.3 ulps apart everywhere
        mu, pulls = mp
        delta = ratio * pulls
        want = kl_ucb_lower(mu, pulls, delta)
        got = kl_ucb_lower_many(np.array([mu]), np.array([float(pulls)]), delta)[0]
        if want == 0.0:
            assert got == 0.0
        else:
            assert abs(got - want) <= (8.0 + 2.0 * abs(math.log(want / mu))) * math.ulp(want)

    def test_floor_at_the_smallest_normal(self):
        mu = np.array([1e-6, 1.0, 5e-324, 1e-310, TINY, 0.0])
        got = kl_ucb_lower_many(mu, np.ones(6), 1000.0)
        assert got.tolist() == [TINY, TINY, 5e-324, 1e-310, TINY, 0.0]
        assert kl_ucb_lower_many(np.array([1e-6]), 1.0, 0.1)[0] == TINY

    def test_closed_form_at_one_estimate(self):
        got = kl_ucb_lower_many(np.array([1.0, 1.0]), np.array([10.0, 1.0]), 2.0)
        assert got[0] == pytest.approx(math.exp(-0.2), abs=1e-12)
        assert got[1] == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match=r"mu_hat entries must lie in \[0, 1\]"):
            kl_ucb_lower_many(np.array([0.5, 1.5]), np.array([3.0, 1.0]), 1.0)
        with pytest.raises(ValueError, match="pulls entries must be finite counts >= 1"):
            kl_ucb_lower_many(np.array([0.5]), np.array([0.0]), 1.0)
        with pytest.raises(ValueError):
            kl_ucb_lower_many(np.array([0.5]), np.array([3.0]), -1.0)


class TestOneIteration:
    """The array bounds and the argmax share one iteration, lane by lane."""

    @settings(max_examples=200, deadline=None)
    @given(lanes=st.lists(mean_and_pulls(), min_size=1, max_size=20), delta=st.floats(0.0, 200.0))
    @example(lanes=[(NEWTON_CAP[0], NEWTON_CAP[1]), (0.5, 3), (0.0, 1), (1.0, 1)],
             delta=NEWTON_CAP[2])
    def test_a_lane_alone_ends_on_the_bits_it_ends_on_in_a_batch(self, lanes, delta):
        mu, n = _arrays(lanes)
        for solve in (kl_ucb_upper_many, kl_ucb_lower_many):
            batch = solve(mu, n, delta).tolist()
            alone = [solve(mu[k:k + 1], n[k:k + 1], delta)[0] for k in range(len(lanes))]
            assert [float.hex(x) for x in alone] == [float.hex(x) for x in batch]

    @settings(max_examples=300, deadline=None)
    @given(lanes=tied_lanes(), delta=st.one_of(st.just(0.0), st.floats(0.0, 200.0)))
    @example(lanes=[(0.0, 1), (1.0, 1), (1.0, 1), (0.5, 3)], delta=0.0)
    @example(lanes=[(0.25, 4)] * 5, delta=3.0)
    @example(lanes=[(0.0, 1), (1.0, 7), (0.0, 1), (1.0, 7)], delta=40.0)
    @example(lanes=[(NEWTON_CAP[0], NEWTON_CAP[1]), (NEWTON_CAP[0], NEWTON_CAP[1])],
             delta=NEWTON_CAP[2])
    def test_argmax_is_the_first_lane_holding_the_largest_bound(self, lanes, delta):
        mu, n = _arrays(lanes)
        want = int(np.argmax(kl_ucb_upper_many(mu, n, delta)))
        assert kl_ucb_argmax(mu, n, delta) == want

    def test_argmax_of_no_lanes_raises(self):
        with pytest.raises(ValueError):
            kl_ucb_argmax(np.array([]), np.array([]), 1.0)
