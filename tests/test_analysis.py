"""Closed-form analysis tests.

The finite-N outage bound is validated against the interval-sum oracle
(sum of asynchrony-CDF differences over the explicit admissible intervals),
r0 against bisection on the raw feasibility predicate, and the Gaussian case
labels against the hand-written case ladder in conftest.
"""

import itertools
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import ic_outage as ic
from ic_outage.analysis import (
    EpsilonResult,
    _feasible_window,
    _rate_feasibility_interval,
    outage_ub_finite_n,
)
from conftest import (
    admissible_intervals,
    delta_cdf,
    dist,
    fluid_outage_exact_oracle,
    gapless_limit_oracle,
    gapless_outage_oracle,
    ladder_oracle,
    outage_ub_exact_oracle,
    outage_ub_limit_exact_oracle,
    outage_ub_numeric_oracle,
    outage_ub_one_packet,
    outage_ub_two_packets,
    r0_bisection_residual,
    random_discrete,
    reference_point,
)


# ---------------------------------------------------------------------------
# scalars: rho, kappa, delta CDF
# ---------------------------------------------------------------------------

def test_rho_vanishes_when_rate_meets_average_constant():
    info = reference_point()
    lam = info.c[0] / 1.3
    value, cap = ic.analysis.rho(info, 1, 1.3, lam, ic.TIN)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert cap is None


def test_rho_di_additive_branch_returns_cap():
    info = reference_point()        # c_cross == c_star, the additive case
    value, cap = ic.analysis.rho(info, 1, 1.5, 0.1, ic.DI)
    assert value == pytest.approx((0.15 - 0.02) / (0.5 - 0.02), abs=1e-12)
    assert cap == pytest.approx(info.c_star[0] / 0.1, abs=1e-12)


def test_rho_di_non_additive_takes_max_of_ratios():
    info = ic.InfoQuantities(
        c_star=(1.0, 1.0), c=(0.2, 0.2), c_cross=(0.8, 0.8),
        c_tilde_star=(0.6, 0.6), c_tilde=(0.1, 0.1),
    )
    value, cap = ic.analysis.rho(info, 1, 2.0, 0.3, ic.DI)
    own = (0.6 - 0.8) / (1.0 - 0.8)
    tilde = (0.6 - 0.1) / (0.6 - 0.1)
    assert cap is None
    assert value == pytest.approx(max(own, tilde), abs=1e-12)


def test_every_layer_reads_the_one_constraint_table(gaussian_channel, monkeypatch):
    # Changing TIN's pair (C*, C) to (C*, C/2) in analysis._constraints alone
    # moves rho, the simulator's decode verdict, epsilon_bound's zero kind and
    # lambda_thresholds together; DI keeps its table.
    info = ic.gaussian_info_quantities(gaussian_channel)
    table = ic.analysis._constraints
    c_star, c = info.c_star[0], info.c[0]
    lam = 0.75 * min(info.c)                # below TIN's threshold, above half of it
    l_di = ic.lambda_thresholds(info)[1]
    assert ic.decode_success(1.0, info, 1, 0.75 * c, ic.TIN)
    assert ic.epsilon_bound(info, lam, 5.0, ic.TIN).kind == "zero"

    def halved(info, user, mode):
        if mode != ic.TIN:
            return table(info, user, mode)
        return [("C*-C", info.c_star[user - 1], info.c[user - 1] / 2.0)]

    monkeypatch.setattr(ic.analysis, "_constraints", halved)
    assert ic.analysis.rho(info, 1, 1.5, 1.0, ic.TIN).value == (1.5 - c / 2.0) / (c_star - c / 2.0)
    assert not ic.decode_success(1.0, info, 1, 0.75 * c, ic.TIN)
    assert ic.decode_success(1.0, info, 1, 0.49 * c, ic.TIN)
    assert ic.epsilon_bound(info, lam, 5.0, ic.TIN).kind != "zero"
    assert ic.epsilon_bound(info, lam / 2.0, 5.0, ic.TIN).kind == "zero"
    assert ic.lambda_thresholds(info) == (min(info.c) / 2.0, l_di)


def test_rho_rejects_degenerate_denominator():
    info = ic.InfoQuantities((0.5, 0.5), (0.5, 0.5), (0.5, 0.5), (0.6, 0.6), (0.1, 0.1))
    with pytest.raises(ic.AnalysisError, match="denominator"):
        ic.analysis.rho(info, 1, 1.2, 0.1, ic.TIN)


def test_kappa_values():
    assert ic.kappa(0.5) == 2.0
    assert ic.kappa(1.0) == 2.0           # both branches agree at the junction
    assert ic.kappa(5.0) == pytest.approx(0.72, abs=1e-12)
    with pytest.raises(ic.AnalysisError):
        ic.kappa(0.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.01, 20.0))
def test_kappa_bounded_and_decreasing_above_one(alpha):
    k = ic.kappa(alpha)
    assert 0.0 < k <= 2.0
    if alpha >= 1.0:
        assert ic.kappa(alpha + 0.1) <= k + 1e-12


def test_delta_cdf_values():
    assert delta_cdf(0.0, 2.0) == 0.0
    assert delta_cdf(2.0, 2.0) == 1.0
    assert delta_cdf(1.0, 2.0) == 0.75
    assert delta_cdf(-0.5, 2.0) == 0.0
    assert delta_cdf(5.0, 2.0) == 1.0


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.1, 5.0))
def test_delta_cdf_monotone(d1, d2, d_max):
    lo, hi = sorted((d1, d2))
    assert delta_cdf(lo, d_max) <= delta_cdf(hi, d_max) + 1e-15


def test_delta_cdf_matches_uniform_difference_distribution():
    rng = np.random.default_rng(0)
    d = rng.uniform(0, 3.0, size=(200000, 2))
    delta = np.abs(d[:, 0] - d[:, 1])
    for q in (0.3, 1.0, 2.2):
        assert np.mean(delta <= q) == pytest.approx(delta_cdf(q, 3.0), abs=5e-3)


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

def test_admissible_intervals_basic():
    ivs = admissible_intervals(2.0, 0.5, 2)
    assert (ivs[0].lo, ivs[0].hi) == (0.5, 1.5)
    assert ivs[1].lo == 2.5 and ivs[1].hi == math.inf


def test_admissible_intervals_hand_substitution():
    ivs = admissible_intervals(1.1, 0.0501, 3)
    assert ivs[0].lo == pytest.approx(0.0501)
    assert ivs[0].hi == pytest.approx(1.1 - 0.0501)
    assert ivs[1].lo == pytest.approx(1.1 + 0.0501)
    assert ivs[1].hi == pytest.approx(2.2 - 0.0501)
    assert ivs[2].lo == pytest.approx(2.2 + 0.0501) and ivs[2].hi == math.inf


def test_admissible_intervals_negative_rho_covers_positive_axis():
    ivs = admissible_intervals(1.5, -0.2, 4)
    # consecutive intervals overlap, so their union covers (rho, inf)
    for a, b in zip(ivs, ivs[1:]):
        assert b.lo < a.hi if a.hi != math.inf else True


def test_admissible_intervals_invert_to_empty():
    ivs = admissible_intervals(1.2, 0.7, 3)
    assert ivs[0].is_empty and ivs[1].is_empty
    assert not ivs[2].is_empty


def test_feasibility_interval_cases():
    assert _rate_feasibility_interval(4.0, 1.0, 0.5) == (1.0, 8.0)
    lo, hi = _rate_feasibility_interval(4.0, 1.0, 1.5)
    assert lo == pytest.approx(4.0 / 3.0)
    assert hi == pytest.approx(8.0 / 3.0)
    lo, hi = _rate_feasibility_interval(4.0, 1.0, 2.5)
    assert lo >= hi
    # a/2 <= lam < b case needs b > a/2
    lo, hi = _rate_feasibility_interval(3.0, 2.0, 1.8)
    assert lo == 1.0
    assert hi == pytest.approx((3.0 - 4.0) / (3.0 - 2.0 - 1.8))
    for a, b in ((1.0, 2.0), (1.0, -0.1)):
        with pytest.raises(ic.AnalysisError, match=r"need a > b >= 0"):
            _rate_feasibility_interval(a, b, 0.5)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.05, 10.0), st.floats(0.01, 0.99), st.floats(0.01, 5.0))
def test_feasibility_interval_breakpoint_endpoints_lie_in_unit_band(a_scale, b_frac, lam):
    a = a_scale
    b = a * b_frac
    lo, hi = _rate_feasibility_interval(a, b, lam)
    if a / 2.0 <= lam < b:          # case (ii): upper endpoint in (1, 2]
        assert 1.0 < hi <= 2.0 + 1e-9
    if b <= lam < a / 2.0:          # case (iii): lower endpoint in [1, 2)
        assert 1.0 - 1e-9 <= lo < 2.0


@settings(max_examples=200, deadline=None)
@given(st.floats(0.05, 10.0), st.one_of(st.just(0.0), st.floats(0.01, 0.99)),
       st.floats(0.01, 5.0))
def test_feasibility_interval_agrees_with_pointwise_predicate(a_scale, b_frac, lam):
    # b = 0 is a channel whose mixed rate is 0, such as y = x1 xor x2 through a BSC.
    a, b = a_scale, a_scale * b_frac
    lo, hi = _rate_feasibility_interval(a, b, lam)
    rng = np.random.default_rng(17)
    for r in 1.0 + rng.random(25) * 4.0:
        inside = (lam * r - b) / (a - b) < min(1.0, r - 1.0)
        if lo < r < hi:
            assert inside
        # avoid boundary ties when checking the converse direction
        elif lo < hi and (
            min(abs(r - lo), abs(r - (hi if hi != math.inf else r + 1))) > 1e-9
        ):
            assert not inside
        elif lo >= hi:
            assert not inside


# ---------------------------------------------------------------------------
# finite-N bound vs interval-sum oracle
# ---------------------------------------------------------------------------

def _random_tuple(rng):
    r = 1.0 + rng.random() * 2.0                   # (1, 3)
    rho_i = rng.random() * min(1.0, r - 1.0)       # chi1 regime
    n = int(rng.integers(1, 501))
    alpha = 0.05 + rng.random() * 4.95
    return r, rho_i, n, alpha


def test_finite_n_matches_oracle_randomized():
    rng = np.random.default_rng(202)
    for _ in range(2000):
        r, rho_i, n, alpha = _random_tuple(rng)
        lam = 0.5
        d_max = alpha / lam
        beta = rho_i / r
        closed = outage_ub_finite_n(alpha, beta, n, True, True)
        oracle = outage_ub_numeric_oracle(r, rho_i, n, lam, d_max, True, True)
        assert closed == pytest.approx(oracle, abs=1e-9)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.floats(1e-6, 1e300), st.floats(-6.0, 300.0).map(lambda e: 10.0 ** e)),
       st.one_of(st.just(0.0), st.floats(1e-300, 1e-6),
                 st.floats(0.5 - 1e-6, 0.5, exclude_max=True),
                 st.floats(0.0, 0.5, exclude_max=True)),
       st.integers(1, 2**20),
       st.sampled_from([(True, True), (False, True), (False, False)]))
def test_closed_forms_equal_their_exact_rational_value(alpha, beta, n_packets, chis):
    # The three-branch forms leave a small bound as 1 - (~1) - (~0); summed
    # as nonnegative terms it keeps 12 digits down to the smallest normal float.
    def close(got, exact):
        return math.isclose(got, exact, rel_tol=1e-12, abs_tol=sys.float_info.min)
    assert close(outage_ub_finite_n(alpha, beta, n_packets, *chis),
                 outage_ub_exact_oracle(alpha, beta, n_packets, *chis))
    assert close(ic.outage_ub_limit(alpha, beta, *chis),
                 outage_ub_limit_exact_oracle(alpha, beta, *chis))


@st.composite
def _form_cell(draw):
    """(alpha, beta, N, chi1, chi2) as outage_ub_finite_n takes them: under
    chi1 beta < 1/2, else any beta >= 0."""
    chis = draw(st.sampled_from([(True, True), (False, True), (False, False)]))
    beta = draw(st.one_of(st.just(0.0), st.floats(5e-324, 1e-6),
                          st.floats(0.5 - 1e-6, 0.5, exclude_max=True),
                          st.floats(0.0, 0.5, exclude_max=True))
                if chis[0] else st.floats(0.0, math.inf))
    alpha = draw(st.one_of(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
                           st.floats(1e-300, 1e300)))
    return alpha, beta, draw(st.one_of(st.integers(1, 64), st.integers(1, 2**53))), *chis


@settings(max_examples=500, deadline=None)
@given(st.lists(_form_cell(), min_size=1, max_size=6))
def test_both_forms_are_probabilities(cells):
    # On the inputs the forms accept, each is g(w) - (1 - 2 beta) g(u) or
    # g(tail) with 0 <= u <= w <= 1 and g(t) = t(2 - t): a probability with
    # no clamp, in a scalar call and in a grid call alike.
    for alpha, beta, n_packets, chi1, chi2 in cells:
        for p in (outage_ub_finite_n(alpha, beta, n_packets, chi1, chi2),
                  ic.outage_ub_limit(alpha, beta, chi1, chi2)):
            assert type(p) is float and 0.0 <= p <= 1.0
    alpha, beta, n_packets, chi1, chi2 = (np.array(column) for column in zip(*cells))
    for p in (outage_ub_finite_n(alpha, beta, n_packets, chi1, chi2),
              ic.outage_ub_limit(alpha, beta, chi1, chi2)):
        assert p.shape == alpha.shape and ((0.0 <= p) & (p <= 1.0)).all()


def test_finite_n_matches_oracle_with_chi1_false():
    rng = np.random.default_rng(77)
    for _ in range(500):
        r = 1.0 + rng.random() * 2.0
        rho_i = min(1.0, r - 1.0) + rng.random() * (1.0 - min(1.0, r - 1.0))
        if rho_i >= 1.0:            # need chi2 true, chi1 false
            continue
        n = int(rng.integers(1, 100))
        alpha = 0.05 + rng.random() * 4.95
        closed = outage_ub_finite_n(alpha, rho_i / r, n, False, True)
        oracle = outage_ub_numeric_oracle(r, rho_i, n, 0.5, alpha / 0.5, False, True)
        assert closed == pytest.approx(oracle, abs=1e-9)


def test_finite_n_small_cases():
    # N=1: beta >= alpha saturates at 1
    assert outage_ub_finite_n(0.3, 0.4, 1, True, True) == 1.0
    # N=1, alpha=1, beta=0.1 -> 0.1 * (2 - 0.1)
    assert outage_ub_finite_n(1.0, 0.1, 1, True, True) == pytest.approx(
        0.19, abs=1e-12
    )
    assert outage_ub_finite_n(1.0, 0.0, 1, True, True) == pytest.approx(
        0.0, abs=1e-12
    )


def test_finite_n_rejects_bad_inputs(gaussian_channel):
    with pytest.raises(ic.AnalysisError):
        outage_ub_finite_n(1.0, -0.1, 5, True, True)
    with pytest.raises(ic.AnalysisError):
        outage_ub_finite_n(-1.0, 0.1, 5, True, True)
    with pytest.raises(ic.AnalysisError):
        outage_ub_finite_n(1.0, 0.1, 0, True, True)
    # A nan alpha or beta has no outage; both forms refuse it, under any chi.
    for alpha, beta, chi1 in ((math.nan, 0.1, True), (1.0, math.nan, True),
                              (1.0, math.nan, False), (np.array([1.0, math.nan]), 0.1, True)):
        with pytest.raises(ic.AnalysisError, match="alpha and beta must not be nan"):
            outage_ub_finite_n(alpha, beta, 4, chi1, True)
        with pytest.raises(ic.AnalysisError, match="alpha and beta must not be nan"):
            ic.outage_ub_limit(alpha, beta, chi1, True)
    # As SchemeParams does, the finite-N form takes N an integer up to 2**53.
    for n, message in ((2.5, "must be an integer"), (math.nan, "must be an integer"),
                       (np.array([4.0, 2.5]), "must be an integer"),
                       (math.inf, "at most 2[*][*]53"), (2**53 + 1, "at most 2[*][*]53"),
                       (np.array([4, 10**20], dtype=object), "at most 2[*][*]53")):
        with pytest.raises(ic.AnalysisError, match=message):
            outage_ub_finite_n(1.0, 0.1, n, True, True)
    info = ic.gaussian_info_quantities(gaussian_channel)
    with pytest.raises(ic.AnalysisError, match="must be an integer"):
        ic.closed_form_outage(info, 1, 1.0, 1.5, 2.5, 1.0, ic.TIN)
    # Both forms read chi2 only where chi1 is false, so chi1 without chi2,
    # which user_outage_inputs never makes, is refused.
    for chi1, chi2 in ((True, False), (np.array([False, True]), np.array([True, False]))):
        with pytest.raises(ic.AnalysisError, match="chi1 implies chi2"):
            outage_ub_finite_n(1.0, 0.1, 5, chi1, chi2)
        with pytest.raises(ic.AnalysisError, match="chi1 implies chi2"):
            ic.outage_ub_limit(1.0, 0.1, chi1, chi2)
    # Under chi1 user_outage_inputs puts beta below 1/2; beyond it neither form
    # is a probability (the limit kappa*beta would be 1.8 here), so it is refused.
    for beta, chi1 in ((0.9, True), (0.5, True), (np.array([0.9, 0.5]), np.array([False, True]))):
        with pytest.raises(ic.AnalysisError, match="chi1 needs beta < 1/2"):
            outage_ub_finite_n(0.5, beta, 5, chi1, True)
        with pytest.raises(ic.AnalysisError, match="chi1 needs beta < 1/2"):
            ic.outage_ub_limit(0.5, beta, chi1, True)


def test_finite_n_takes_integer_valued_packet_counts(gaussian_channel):
    # An integer-valued float or an integer array is read as the integer.
    info = ic.gaussian_info_quantities(gaussian_channel)
    ns = [1, 4, 64, 2**53]
    scalars = [outage_ub_finite_n(0.7, 0.1, n, True, True) for n in ns]
    assert [outage_ub_finite_n(0.7, 0.1, float(n), True, True) for n in ns] == scalars
    assert outage_ub_finite_n(0.7, 0.1, np.array(ns), True, True).tolist() == scalars
    assert ic.closed_form_outage(info, 1, 1.0, 1.5, 4.0, 1.0, ic.TIN) == \
        ic.closed_form_outage(info, 1, 1.0, 1.5, 4, 1.0, ic.TIN)


def test_limit_consistency_large_n():
    rng = np.random.default_rng(5)
    for _ in range(30):
        alpha = 0.05 + rng.random() * 4.95
        beta = rng.random() * 0.499
        finite = outage_ub_finite_n(alpha, beta, 10**5, True, True)
        limit = ic.outage_ub_limit(alpha, beta, True, True)
        assert abs(finite - limit) < 1e-3
        assert limit == pytest.approx(ic.kappa(alpha) * beta, abs=1e-12)


def test_limit_small_alpha_is_absolute_minimum():
    alpha, beta = 0.5, 0.12
    limit = ic.outage_ub_limit(alpha, beta, True, True)
    values = [outage_ub_finite_n(alpha, beta, n, True, True) for n in range(1, 501)]
    assert min(values) >= limit - 1e-9


def test_finite_n_nondecreasing_for_large_alpha():
    for beta in (0.05, 0.2, 0.4):
        values = [
            outage_ub_finite_n(1.5, beta, n, True, True) for n in range(1, 201)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_limit_values():
    assert ic.outage_ub_limit(0.5, 0.1, True, True) == pytest.approx(0.2, abs=1e-12)
    assert ic.outage_ub_limit(5.0, 0.1, True, True) == pytest.approx(0.072, abs=1e-12)
    assert ic.outage_ub_limit(0.5, 0.1, False, False) == 1.0


# ---------------------------------------------------------------------------
# two-packet worked example
# ---------------------------------------------------------------------------

def test_example_formulas_match_general_bound():
    rng = np.random.default_rng(9)
    for _ in range(300):
        alpha = 0.05 + rng.random() * 3.0
        beta = rng.random() * 0.499
        assert outage_ub_one_packet(alpha, beta) == pytest.approx(
            outage_ub_finite_n(alpha, beta, 1, True, True), abs=1e-12
        )
        assert outage_ub_two_packets(alpha, beta) == pytest.approx(
            outage_ub_finite_n(alpha, beta, 2, True, True), abs=1e-12
        )


def test_two_packet_difference_identity():
    rng = np.random.default_rng(31)
    count = 0
    while count < 1000:
        beta = rng.random() * 0.499
        alpha = (1.0 + beta) / 2.0 + rng.random() * 2.0
        if alpha <= (1.0 + beta) / 2.0:
            continue
        count += 1
        diff = outage_ub_two_packets(alpha, beta) - outage_ub_one_packet(alpha, beta)
        assert diff == pytest.approx(
            (beta / alpha**2) * (3.0 * beta / 4.0 + alpha - 1.0), abs=1e-12
        )


def test_two_packets_beat_one_exactly_on_stated_region():
    rng = np.random.default_rng(41)
    for _ in range(500):
        beta = rng.random() * (2.0 / 5.0)
        lo, hi = (1.0 + beta) / 2.0, 1.0 - 3.0 * beta / 4.0
        if lo >= hi:
            continue
        alpha = lo + rng.random() * (hi - lo)
        if alpha in (lo, hi):
            continue
        assert outage_ub_two_packets(alpha, beta) < outage_ub_one_packet(alpha, beta)
    for _ in range(500):
        beta = rng.random() * 0.499
        alpha = max((1.0 + beta) / 2.0, 1.0 - 3.0 * beta / 4.0) + rng.random() * 2.0
        assert outage_ub_two_packets(alpha, beta) >= outage_ub_one_packet(alpha, beta) - 1e-15


# ---------------------------------------------------------------------------
# r0 and the outage-level bound
# ---------------------------------------------------------------------------

def test_r0_gaussian_regression(gaussian_channel):
    info = ic.gaussian_info_quantities(gaussian_channel)
    r_inf = ic.epsilon_bound(info, 1.0, 5.0, ic.TIN).r0
    expect = max(
        (info.c_star[j] - 2 * info.c[j]) / (info.c_star[j] - info.c[j] - 1.0)
        for j in range(2)
    )
    assert r_inf == pytest.approx(expect, abs=1e-12)
    assert r_inf == pytest.approx(1.1747, abs=5e-4)


def test_r0_infeasible_when_both_users_saturate():
    info = ic.InfoQuantities((1.0, 1.0), (0.6, 0.6), (1.0, 1.0), (2.0, 2.0), (1.5, 1.5))
    # lam >= max{b, a/2} for both users
    lo, hi = _feasible_window(info, 0.9, (ic.TIN, ic.TIN))
    assert lo >= hi


def test_epsilon_zero_below_threshold(gaussian_channel):
    info = ic.gaussian_info_quantities(gaussian_channel)
    res = ic.epsilon_bound(info, 0.2, 5.0, ic.TIN)
    assert res.kind == "zero" and res.epsilon == 0.0


def test_epsilon_regression_value(gaussian_channel):
    info = ic.gaussian_info_quantities(gaussian_channel)
    res = ic.epsilon_bound(info, 1.0, 5.0, ic.TIN)
    assert res.kind == "value"
    assert res.kappa == pytest.approx(0.72, abs=1e-12)
    assert res.epsilon == pytest.approx(0.1071, abs=2e-3)
    assert res.user == 2
    # beta form == (kappa / r0) * max rho form by construction
    rho2 = ic.analysis.rho(info, 2, res.r0, 1.0, ic.TIN).value
    assert res.epsilon == pytest.approx(res.kappa * rho2 / res.r0, abs=1e-12)


MODE_PAIRS = [(ic.TIN, ic.TIN), (ic.TIN, ic.DI), (ic.DI, ic.TIN), (ic.DI, ic.DI)]


def test_r0_and_bound_forms_match_oracles_on_random_channels():
    """r0 equals the bisected edge of the feasible set, and the beta form of
    the bound equals its rho form kappa/r0 * max_i rho_i(r0), on random
    Gaussian (additive DI) and discrete channels for all four mode pairs."""
    rng = np.random.default_rng(7)
    checked = Counter()
    for trial in range(400):
        if trial % 2:
            kind = "gaussian"
            info = ic.gaussian_info_quantities(ic.GaussianIC(
                p1=float(rng.uniform(1, 2000)), p2=float(rng.uniform(1, 2000)),
                c1=float(rng.uniform(0.05, 2.0)), c2=float(rng.uniform(0.05, 2.0)),
            ))
        else:
            kind = "discrete"
            ch = random_discrete(rng)
            info = ic.info_quantities(ch, dist(rng, 2), dist(rng, 2))
        lo = min(ic.lambda_thresholds(info))
        for modes in MODE_PAIRS:
            lam = float(rng.uniform(0.9, 2.0) * lo)
            try:
                res = ic.epsilon_bound(info, lam, 5.0, modes)
            except ic.AnalysisError:
                continue    # degenerate denominator for this channel and mode
            if res.kind != "value":
                continue
            rho_form = (res.kappa / res.r0) * max(
                ic.analysis.rho(info, user, res.r0, lam, m).value
                for user, m in ((1, modes[0]), (2, modes[1]))
            )
            assert abs(rho_form - res.value) <= 1e-9
            residual = r0_bisection_residual(info, lam, modes)
            if residual is not None:
                assert residual <= 1e-6
                checked[kind, modes] += 1
    assert all(checked[k, m] >= 10 for k in ("gaussian", "discrete") for m in MODE_PAIRS), checked


def test_epsilon_not_applicable_when_no_feasible_rate():
    info = ic.InfoQuantities((1.0, 1.0), (0.6, 0.6), (1.0, 1.0), (2.0, 2.0), (1.5, 1.5))
    res = ic.epsilon_bound(info, 0.9, 1.0, ic.TIN)
    assert res.kind == "not-applicable"
    with pytest.raises(ic.AnalysisError):
        _ = res.epsilon


def test_beta_is_increasing_in_r(gaussian_channel):
    info = ic.gaussian_info_quantities(gaussian_channel)
    lo, hi = _rate_feasibility_interval(info.c_star[1], info.c[1], 1.0)
    rs = np.linspace(lo + 1e-6, min(hi, lo + 2.0), 50)
    betas = [ic.analysis.rho(info, 2, r, 1.0, ic.TIN).value / r for r in rs]
    assert all(b > a for a, b in zip(betas, betas[1:]))


# ---------------------------------------------------------------------------
# Gaussian case ladders
# ---------------------------------------------------------------------------

def labelled_bound(info, lam, d_max, mode):
    """epsilon_bound with its Gaussian case label."""
    return ic.epsilon_bound(info, lam, d_max, mode)


def _assert_same_value(res, oracle):
    assert res.kind == oracle.kind == "value"
    assert res.value == pytest.approx(oracle.value, abs=1e-12)
    assert res.r0 == pytest.approx(oracle.r0, abs=1e-12)
    assert res.user == oracle.user
    assert res.case_label == oracle.case_label


def test_ladders_match_oracle_on_random_channels():
    rng = np.random.default_rng(2024)
    checked_tin = checked_di = checked_zero = 0
    while checked_tin < 100 or checked_di < 100:
        ch = ic.GaussianIC(
            p1=float(rng.uniform(1, 2000)),
            p2=float(rng.uniform(1, 2000)),
            c1=float(rng.uniform(0.05, 2.0)),
            c2=float(rng.uniform(0.05, 2.0)),
        )
        info = ic.gaussian_info_quantities(ch)
        for mode in (ic.TIN, ic.DI):
            l_tin, l_di = ic.lambda_thresholds(info)
            lo = l_tin if mode == ic.TIN else l_di
            lam = float(rng.uniform(0.5 * lo, 2.0 * lo + 0.5))
            ladder = labelled_bound(info, lam, 5.0, mode)
            oracle = ladder_oracle(info, lam, 5.0, mode)
            if oracle.kind != "value":
                # The oracle has no below-threshold branch; the bound is zero there.
                assert ladder.kind == ("zero" if lam < lo else "not-applicable")
                assert ladder.case_label == "outside-ladder"
                checked_zero += ladder.kind == "zero"
                continue
            _assert_same_value(ladder, oracle)
            if mode == ic.TIN:
                checked_tin += 1
            else:
                checked_di += 1
    assert checked_zero > 0


def test_tin_ladder_case_labels(gaussian_channel):
    info = ic.gaussian_info_quantities(gaussian_channel)
    res = labelled_bound(info, 1.0, 5.0, ic.TIN)
    assert res.case_label == "case3-user2"
    # both users' break ratios, binding comparison at lam=1
    r2 = (info.c_star[1] - 2 * info.c[1]) / (info.c_star[1] - info.c[1] - 1.0)
    r1 = (info.c_star[0] - 2 * info.c[0]) / (info.c_star[0] - info.c[0] - 1.0)
    assert r2 == pytest.approx(1.1747, abs=5e-4)
    assert r1 == pytest.approx(1.1222, abs=5e-4)
    assert r2 >= r1
    # just above the TIN threshold, case 1 fires for the weaker user
    res = labelled_bound(info, 0.40, 5.0, ic.TIN)
    assert res.case_label == "case1-user2"
    # lam = C_2 is the TIN threshold itself, where outage vanishes
    res = labelled_bound(info, info.c[1], 5.0, ic.TIN)
    assert res.kind == "zero" and res.epsilon == 0.0


def test_di_ladder_matches_oracle_on_regression_channel(gaussian_channel):
    info = ic.gaussian_info_quantities(gaussian_channel)
    for lam in np.linspace(0.45, 2.4, 14):
        ladder = labelled_bound(info, float(lam), 5.0, ic.DI)
        _assert_same_value(ladder, ladder_oracle(info, float(lam), 5.0, ic.DI))


def test_di_ladder_is_zero_between_tin_and_di_thresholds(gaussian_channel):
    # The hand-written ladder had no below-threshold branch and reported
    # "not-applicable" here, where the DI bound proves outage vanishes.
    info = ic.gaussian_info_quantities(gaussian_channel)
    l_tin, l_di = ic.lambda_thresholds(info)
    for lam in np.linspace(l_tin, l_di, 7)[1:-1]:
        res = labelled_bound(info, float(lam), 5.0, ic.DI)
        assert res.kind == ic.epsilon_bound(info, float(lam), 5.0, ic.DI).kind == "zero"
        assert res.epsilon == 0.0
        assert res.case_label == "outside-ladder"
        assert ladder_oracle(info, float(lam), 5.0, ic.DI).kind == "not-applicable"
    # the DI threshold itself is zero as well, not a zero-valued "value"
    assert labelled_bound(info, l_di, 5.0, ic.DI).kind == "zero"


def test_di_ladder_domain_edge(gaussian_channel):
    info = ic.gaussian_info_quantities(gaussian_channel)
    edge = min(info.c_tilde_star) / 2.0
    assert edge == pytest.approx(2.4114, abs=5e-4)
    assert labelled_bound(info, edge - 1e-6, 5.0, ic.DI).kind == "value"
    assert labelled_bound(info, edge + 1e-3, 5.0, ic.DI).kind == "not-applicable"


# ---------------------------------------------------------------------------
# gapless (r < 1) regime
# ---------------------------------------------------------------------------

def test_subunit_rate_limit_branches():
    info = reference_point()
    c1, c1s = info.c[0], info.c_star[0]
    # lam <= C: zero-outage limit
    assert gapless_limit_oracle(info, 1, c1 / 2.0, 3.0, ic.TIN) == 0.0
    # C < lam <= C*: limit is exactly half of kappa
    for lam in (c1 + 1e-3, (c1 + c1s) / 2.0, c1s):
        for d_max in (0.5 / lam, 2.0 / lam, 30.0):
            limit = gapless_limit_oracle(info, 1, lam, d_max, ic.TIN)
            assert limit == pytest.approx(ic.kappa(lam * d_max) / 2.0, abs=1e-12)
    # lam > C*: outage is certain in the limit
    assert gapless_limit_oracle(info, 1, c1s + 0.1, 3.0, ic.TIN) == 1.0


def test_subunit_rate_rejects_degenerate_denominator():
    # c1 = 0 makes C1* = C1; the gapless form shares rho's denominator check.
    info = ic.gaussian_info_quantities(ic.GaussianIC(p1=1000.0, p2=1000.0, c1=0.0, c2=1.5))
    with pytest.raises(ic.AnalysisError, match=r"user 1: nonpositive denominator C\*-C = 0"):
        ic.closed_form_outage(info, 1, 0.6, 0.7, 4, 5.0, ic.TIN)


def test_subunit_rate_finite_n_is_a_probability(gaussian_channel):
    # A grid that has rho_i < 0 for both users.  There every codeword
    # decodes under any overlap (the fluid simulator gives exactly 0), so
    # the bound is 0, not a difference of two CDF terms.
    info = ic.gaussian_info_quantities(gaussian_channel)
    below = 0
    grid = itertools.product((0.4, 0.45, 0.6, 1.0), (0.3, 0.6, 0.9), (1, 4, 16), (1.0, 5.0))
    for (lam, r, n_packets, d_max), user in itertools.product(grid, (1, 2)):
        finite_n = ic.closed_form_outage(info, user, lam, r, n_packets, d_max, ic.TIN).finite_n
        assert 0.0 <= finite_n <= 1.0
        if lam * r < info.c[user - 1]:    # rho_i < 0
            assert finite_n == 0.0
            below += 1
    assert 0 < below < 144


@pytest.mark.parametrize("mode", [ic.TIN, ic.DI])
@pytest.mark.parametrize("n_packets", [64, 256])
def test_gapless_fixed_r_limit_is_within_lipschitz_bound_of_exact_outage(
        gaussian_channel, mode, n_packets):
    # At a fixed r < 1 the gapless outage is delta_cdf((N - 1 + rho) theta, D)
    # with theta = 1/(N r lam), and its N -> inf limit is delta_cdf(1/(r lam), D).
    # delta_cdf is 2/D-Lipschitz and |(N - 1 + rho) theta - N theta| <= theta,
    # so the exact outage at N lies within 2/(D N r lam) of the limit.
    info = ic.gaussian_info_quantities(gaussian_channel)
    d_max, regimes = 5.0, Counter()
    for user, r, load in itertools.product((1, 2), (0.5, 0.9), (0.1, 0.3, 0.6, 1.1)):
        lam = load * max(info.c_star[user - 1], info.c_tilde_star[user - 1]) / r
        bound = ic.analysis.closed_form_outage(info, user, lam, r, None, d_max, mode)
        exact = fluid_outage_exact_oracle(info, user, lam, r, n_packets, d_max, mode)
        assert abs(exact - bound.limit) <= 2.0 / (d_max * n_packets * r * lam), (user, r, load)
        regimes[_closed_form_regime(bound, r) if bound.inputs.chi2 else "chi2 false"] += 1
    assert regimes["gapless"] >= 8 and regimes["chi2 false"] >= 4, regimes


@pytest.mark.parametrize("n_packets", [1, 4])
def test_gapless_form_past_the_additive_cap_is_one_even_at_negative_rho(n_packets):
    # On a channel with C~ > C* the DI exposure rho_i is negative while the
    # code rate r lam is already at or above C*: no codeword decodes, even
    # without interference, so the gapless form gives 1, not the rho < 0 zero.
    info = ic.gaussian_info_quantities(ic.GaussianIC(p1=0.1, p2=0.1, c1=100.0, c2=100.0))
    rho_1, _, _, chi2 = ic.analysis.user_outage_inputs(info, 1, 0.5, 1.0, ic.DI)
    assert rho_1 < 0 and not chi2 and 0.5 * 1.0 >= info.c_star[0]
    finite_n = ic.closed_form_outage(info, 1, 1.0, 0.5, n_packets, 1.0, ic.DI).finite_n
    assert finite_n == fluid_outage_exact_oracle(info, 1, 1.0, 0.5, n_packets, 1.0, ic.DI) == 1.0


@pytest.mark.parametrize("mode", [ic.TIN, ic.DI])
def test_gapless_limit_is_the_fixed_r_limit_as_r_tends_to_one(gaussian_channel, mode):
    # gapless_limit_oracle is the (N -> inf, r -> 1-) value, so it equals
    # closed_form_outage's fixed-r limit just below r = 1.  The weak
    # channel has C~ > C*: there rho_i(1) <= 0 while lam breaks the additive
    # DI cap, and the limit is 1.
    weak = ic.GaussianIC(p1=0.1, p2=0.1, c1=100.0, c2=100.0)
    values = Counter()
    for ch, d_max in itertools.product((gaussian_channel, weak), (0.3, 5.0)):
        info = ic.gaussian_info_quantities(ch)
        lam = np.linspace(0.05, 6.0, 120)
        for user in (1, 2):
            limit = gapless_limit_oracle(info, user, lam, d_max, mode)
            below_one = ic.closed_form_outage(info, user, lam, 1.0 - 1e-10, None,
                                              d_max, mode).limit
            np.testing.assert_allclose(limit, below_one, rtol=0.0, atol=1e-6)
            values.update(np.where(limit == 0.0, "0", np.where(limit == 1.0, "1", "cdf")))
    assert min(values["0"], values["1"], values["cdf"]) > 0, values


def test_bursty_scheme_beats_gapless_limit():
    # whenever chi1 holds, kappa*beta < kappa/2 since beta < 1/2
    rng = np.random.default_rng(55)
    for _ in range(200):
        r = 1.0 + rng.random() * 3.0
        rho_i = rng.random() * min(1.0, r - 1.0)
        alpha = 0.05 + rng.random() * 4.95
        assert ic.kappa(alpha) * (rho_i / r) < ic.kappa(alpha) / 2.0


# ---------------------------------------------------------------------------
# every finite-N closed form vs the exact fluid quadrature
# ---------------------------------------------------------------------------

def _closed_form_regime(bound, r):
    """Which closed form ``closed_form_outage`` applied to a user."""
    if bound.inputs.rho < 0:
        return "rho<0"
    if r < 1.0:
        return "gapless"
    return "chi1" if bound.inputs.chi1 else "no-chi1"


def _random_info(rng, gaussian: bool) -> ic.InfoQuantities:
    if gaussian:
        p1, p2 = 10.0 ** rng.uniform(-1.0, 3.0, size=2)
        c1, c2 = rng.uniform(0.05, 2.0, size=2)
        return ic.gaussian_info_quantities(ic.GaussianIC(p1=p1, p2=p2, c1=c1, c2=c2))
    return ic.info_quantities(random_discrete(rng), dist(rng, 2), dist(rng, 2))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([ic.TIN, ic.DI]),
       st.sampled_from([1, 2]),
       st.one_of(st.just(1.0), st.floats(0.2, 4.0, exclude_min=True, exclude_max=True)),
       st.floats(0.05, 1.3), st.integers(1, 16), st.sampled_from([0.3, 1.0, 5.0, 20.0]))
def test_finite_n_closed_forms_equal_exact_fluid_oracle(seed, gaussian, mode, user, r,
                                                        load, n_packets, d_max):
    # The code rate r*lam is `load` times the user's largest single-user
    # capacity, so every regime of the user's threshold tests is reached.
    info = _random_info(np.random.default_rng(seed), gaussian)
    lam = load * max(info.c_star[user - 1], info.c_tilde_star[user - 1]) / r
    try:
        bound = ic.analysis.closed_form_outage(info, user, lam, r, n_packets, d_max, mode)
    except ic.AnalysisError:   # rho has no finite value: a nonpositive denominator
        assume(False)
    event(_closed_form_regime(bound, r))
    exact = fluid_outage_exact_oracle(info, user, lam, r, n_packets, d_max, mode)
    assert bound.finite_n == pytest.approx(exact, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([ic.TIN, ic.DI]),
       st.sampled_from([1, 2]), st.floats(1e-3, 1.0, exclude_max=True),
       st.floats(0.05, 1.3), st.integers(1, 2**20), st.floats(1e-3, 1e3))
def test_closed_forms_below_unit_rate_equal_the_gapless_delta_cdf_form(
        seed, gaussian, mode, user, r, load, n_packets, d_max):
    # Below r = 1 the lattice step is 1, and the forms at (lam D r, rho) are
    # the gapless delta_cdf form up to rounding.
    info = _random_info(np.random.default_rng(seed), gaussian)
    lam = load * max(info.c_star[user - 1], info.c_tilde_star[user - 1]) / r
    try:
        bound = ic.closed_form_outage(info, user, lam, r, n_packets, d_max, mode)
    except ic.AnalysisError:   # rho has no finite value: a nonpositive denominator
        assume(False)
    assume(bound.inputs.rho >= 0)
    event(f"chi2={bool(bound.inputs.chi2)}")
    finite_n, limit = gapless_outage_oracle(info, user, lam, r, n_packets, d_max, mode)
    assert math.isclose(bound.finite_n, finite_n, rel_tol=1e-15)
    assert math.isclose(bound.limit, limit, rel_tol=1e-15)


@pytest.mark.parametrize("lam, r, mode, user, regime", [
    (1.0, 1.5, ic.TIN, 2, "chi1"),
    (0.6, 1.2, ic.DI, 1, "chi1"),
    (2.0, 1.5, ic.DI, 2, "no-chi1"),
    (2.0, 2.5, ic.TIN, 1, "no-chi1"),   # chi2 false too: outage 1
    (0.3, 1.5, ic.TIN, 1, "rho<0"),
    (0.3, 1.5, ic.DI, 2, "rho<0"),
    (0.6, 0.7, ic.TIN, 1, "rho<0"),
    (1.0, 0.7, ic.TIN, 1, "gapless"),
    (0.6, 0.7, ic.TIN, 2, "gapless"),
    (0.6, 0.7, ic.DI, 2, "rho<0"),
    (0.9, 0.8, ic.DI, 1, "gapless"),
    (0.9, 0.8, ic.DI, 2, "gapless"),
    (6.0, 0.9, ic.DI, 1, "gapless"),   # r breaks the additive DI cap: outage 1
])
@pytest.mark.parametrize("n_packets", [1, 4, 16])
def test_finite_n_closed_forms_equal_exact_fluid_oracle_per_regime(
        gaussian_channel, lam, r, mode, user, regime, n_packets):
    # Each regime of closed_form_outage at least once, on the regression channel.
    info = ic.gaussian_info_quantities(gaussian_channel)
    bound = ic.analysis.closed_form_outage(info, user, lam, r, n_packets, 5.0, mode)
    assert _closed_form_regime(bound, r) == regime
    exact = fluid_outage_exact_oracle(info, user, lam, r, n_packets, 5.0, mode)
    assert bound.finite_n == pytest.approx(exact, abs=1e-12)


def test_closed_form_at_a_vanishing_rate_does_not_evaluate_the_forms_it_discards(
        gaussian_channel):
    # At lam = 1e-300 both users have rho < 0 and the answer is the exact 0.
    # The r >= 1 forms at alpha = lam D would overflow (RuntimeWarning, an
    # error here); the cells they do not answer must not evaluate them, nor
    # kappa its alpha >= 1 branch.
    assert ic.kappa(1e-300) == 2.0
    info = ic.gaussian_info_quantities(gaussian_channel)
    for mode, user in itertools.product((ic.TIN, ic.DI), (1, 2)):
        bound = ic.closed_form_outage(info, user, 1e-300, 1.5, 2, 1.0, mode)
        assert (bound.finite_n, bound.limit) == (0.0, 0.0)
    # A grid mixing such cells with answered ones: the answered cells are
    # those of the scalar calls, bit for bit.
    lam, r = np.array([1e-300, 1.0, 1e-300, 0.9]), np.array([1.5, 1.5, 0.7, 0.8])
    grid = ic.closed_form_outage(info, 2, lam, r, 4, 5.0, ic.DI)
    for i in range(len(lam)):
        scalar = ic.closed_form_outage(info, 2, lam[i], r[i], 4, 5.0, ic.DI)
        assert (grid.finite_n[i], grid.limit[i]) == (scalar.finite_n, scalar.limit)
    assert grid.finite_n[0] == grid.finite_n[2] == 0.0


# ---------------------------------------------------------------------------
# derived-input bookkeeping
# ---------------------------------------------------------------------------

def test_outage_inputs_regression():
    info = reference_point()
    scheme = ic.SchemeParams(lam=0.1, r=1.1, n_packets=4, d_max=15.0, decoder=ic.TIN)
    inputs = ic.outage_inputs(info, scheme)
    assert scheme.alpha == pytest.approx(1.5, abs=1e-12)
    assert inputs.rho[0] == pytest.approx(0.016, abs=1e-12)
    assert inputs.rho[1] == pytest.approx(0.0501, abs=1e-12)
    assert inputs.chi1 == (True, True) and inputs.chi2 == (True, True)
    assert inputs.beta[0] == pytest.approx(0.016 / 1.1, abs=1e-12)


def test_additive_di_cap_clears_both_chi_indicators(gaussian_channel):
    # Gaussian DI is additive: feasibility also needs r < C_i*/lam.
    info = ic.gaussian_info_quantities(gaussian_channel)
    lam = 2.0
    r_cap = info.c_star[1] / lam
    below = ic.analysis.user_outage_inputs(info, 2, r_cap - 1e-3, lam, ic.DI)
    above = ic.analysis.user_outage_inputs(info, 2, r_cap + 1e-3, lam, ic.DI)
    assert below.chi1 and below.chi2
    assert above.rho < 1.0 and not above.chi1 and not above.chi2
    assert above.beta == pytest.approx(above.rho / (r_cap + 1e-3), abs=1e-15)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([ic.TIN, ic.DI]),
       st.sampled_from([1, 2]),
       st.one_of(st.sampled_from([1.0, 2.0, math.nextafter(1.0, 2.0), math.nextafter(2.0, 1.0),
                                  math.nextafter(2.0, 3.0)]),
                 st.floats(0.2, 4.0)),
       st.floats(0.05, 1.3))
def test_chi1_implies_chi2_and_beta_below_half(seed, gaussian, mode, user, r, load):
    # The closed forms take both facts as given, since user_outage_inputs
    # guarantees them: chi1 is rho < min(1, r - 1), so rho < 1 (chi2, under
    # the same DI cap) and beta = rho/r < 1/2, for r on either side of 1 and of 2.
    info = _random_info(np.random.default_rng(seed), gaussian)
    lam = load * max(info.c_star[user - 1], info.c_tilde_star[user - 1]) / r
    try:
        inputs = ic.user_outage_inputs(info, user, r, lam, mode)
    except ic.AnalysisError:   # rho has no finite value: a nonpositive denominator
        assume(False)
    event(f"chi1={bool(inputs.chi1)}, r {'<' if r < 2.0 else '>='} 2")
    if inputs.chi1:
        assert inputs.chi2
        assert inputs.beta < 0.5


def test_scheme_params_validation():
    with pytest.raises(ic.AnalysisError):
        ic.SchemeParams(lam=0.0, r=1.1, n_packets=2, d_max=1.0)
    with pytest.raises(ic.AnalysisError):
        ic.SchemeParams(lam=0.5, r=-1.0, n_packets=2, d_max=1.0)
    with pytest.raises(ic.AnalysisError):
        ic.SchemeParams(lam=0.5, r=1.1, n_packets=0, d_max=1.0)
    # NaN compares false with every bound, so each field is also tested for
    # finiteness and n_packets for being an integer.
    for r, d_max in ((math.nan, 1.0), (math.inf, 1.0), (1.1, math.nan), (1.1, math.inf)):
        with pytest.raises(ic.AnalysisError, match="must be finite"):
            ic.SchemeParams(lam=1.0, r=r, n_packets=4, d_max=d_max)
    for n_packets in (math.nan, math.inf, 2.0, 2.5, "4"):
        with pytest.raises(ic.AnalysisError, match="number of packets must be an integer"):
            ic.SchemeParams(lam=1.0, r=1.1, n_packets=n_packets, d_max=1.0)
    assert ic.SchemeParams(lam=1.0, r=1.1, n_packets=np.int64(4), d_max=1.0).n_packets == 4
    # The closed forms compute N in float64, which holds every integer up to 2**53.
    assert ic.SchemeParams(lam=1.0, r=1.1, n_packets=2**53, d_max=1.0).n_packets == 2**53
    for n_packets in (2**53 + 1, 10**20):
        with pytest.raises(ic.AnalysisError,
                           match=rf"number of packets must be at most 2\*\*53, got {n_packets}"):
            ic.SchemeParams(lam=1.0, r=1.1, n_packets=n_packets, d_max=1.0)
    s = ic.SchemeParams(lam=0.5, r=1.2, n_packets=2, d_max=2.0, decoder="di")
    assert s.decoder == (ic.DI, ic.DI)
    assert s.code_rate == pytest.approx(0.6)
    assert s.alpha == pytest.approx(1.0)


def test_extreme_alpha_and_window_evaluate_no_overflowing_branch(gaussian_channel,
                                                                 discrete_channel):
    # Under the suite's error::RuntimeWarning filter any numpy overflow fails
    # this test.  At alpha < 1 the limit is kappa*beta = 2 beta, and an N*alpha
    # past the float range leaves the bound its (subnormal) value, 1 ulp above
    # the exact rational one.
    bound = outage_ub_finite_n(1e308, 0.1, 4, True, True)
    assert bound == 3.500000000000004e-309
    exact = outage_ub_exact_oracle(1e308, 0.1, 4, True, True)
    assert abs(bound - exact) <= math.ulp(exact)
    assert outage_ub_finite_n(1e-320, 0.0, 4, True, True) == 0.0
    assert ic.outage_ub_limit(1e-320, 0.1, True, True) == 2.0 * 0.1
    assert delta_cdf(1.0, 1e-320) == 1.0
    assert delta_cdf(-1.0, 1e-320) == 0.0
    info = ic.gaussian_info_quantities(gaussian_channel)
    # rho < 0 at lam = 1e-320 takes the zero path; at D = 1e308 both forms are
    # subnormal, and at D = 1e-320 the limit is kappa*beta = 2 beta.
    for lam, d_max, finite_n, limit in (
            (1e-320, 5.0, 0.0, 0.0),
            (1.0, 1e308, 5.721496937674045e-309, 6.538853643056043e-309),
            (1.0, 1e-320, 1.0, 0.32694268215280214)):
        bound = ic.closed_form_outage(info, 2, lam, 1.5, 4, d_max, ic.TIN)
        assert (bound.finite_n, bound.limit) == (finite_n, limit)
    assert bound.limit == 2.0 * bound.inputs.beta    # the D = 1e-320 row
    # lam * D past the float range, and an additive DI cap C*/lam past it
    assert ic.closed_form_outage(info, 1, np.array([2.0]), 1.5, 4, 1e308, ic.TIN).limit == [0.0]
    assert ic.epsilon_bound(info, np.array([1.0, 1e-320]), 1e308, ic.DI).kind.tolist() == [
        "value", "zero"]
    assert ic.rho(info, 1, 1.5, 1e-320, ic.DI).r_cap == math.inf
    # Far beyond the converse threshold beta > 1, so chi1 and chi2 are both
    # false and the bound is 1 at every alpha.
    u = ic.InputDistribution(np.array([0.5, 0.5]))
    info = ic.info_quantities(discrete_channel, u, u)
    bound = ic.closed_form_outage(info, 1, 1.0, 1.5, 4, 1e-300, ic.TIN)
    assert (bound.inputs.beta > 1, bound.inputs.chi2, bound.finite_n) == (True, False, 1.0)


def test_positive_lambda_and_d_whose_product_underflows_take_the_alpha_to_0_limit(
        gaussian_channel):
    # 0.4 * 5e-324 rounds to 0: alpha is then the smallest positive float, and
    # every closed form gives what it gives at D = 1e-300.
    tiny = math.ulp(0.0)
    assert ic.analysis.alpha_of(0.4, tiny) == tiny
    assert ic.analysis.alpha_of(np.array([0.4, 0.0, -1.0]), tiny).tolist() == [tiny, 0.0, -tiny]
    assert ic.SchemeParams(lam=0.4, r=1.5, n_packets=4, d_max=tiny).alpha == tiny
    info = ic.gaussian_info_quantities(gaussian_channel)
    for user in (1, 2):
        at = [ic.closed_form_outage(info, user, 0.4, 1.5, 4, d, ic.TIN) for d in (tiny, 1e-300)]
        assert at[0] == at[1]
    eps = [ic.epsilon_bound(info, 0.4, d, ic.TIN) for d in (tiny, 1e-300)]
    assert eps[0] == eps[1] and eps[0].kappa == 2.0
    assert round(eps[0].epsilon, 4) == 0.0149


def test_rho_past_the_float_range_gives_outage_1(discrete_channel):
    # (lam r - b)/(C* - C) overflows to inf at lam = 1e308; beta = inf is read
    # only under chi1 (and, at finite N, chi2), so no nan is made.  Under the
    # suite's error::RuntimeWarning filter any numpy warning fails this test.
    u = ic.InputDistribution(np.array([0.5, 0.5]))
    info = ic.info_quantities(discrete_channel, u, u)
    assert ic.rho(info, 1, 1.5, 1e308, ic.TIN).value == math.inf
    bound = ic.closed_form_outage(info, 1, 1e308, 1.5, 4, 5.0, ic.TIN)
    assert tuple(bound.inputs) == (math.inf, math.inf, False, False)
    assert (bound.finite_n, bound.limit) == (1.0, 1.0)
    assert ic.outage_ub_limit(0.5, math.inf, False, False) == 1.0
    assert outage_ub_finite_n(math.inf, math.inf, 4, False, False) == 1.0


def test_avg_rate():
    assert ic.avg_rate(2, 1.1, 0.1) == pytest.approx(0.06875, abs=1e-12)
    assert ic.avg_rate(3, 1.0, 0.4) == pytest.approx(3.0 / 4.0 * 0.4, abs=1e-12)
    assert ic.avg_rate(10**6, 1.5, 0.1) == pytest.approx(0.1, rel=1e-5)
    # both branch expressions agree at r = 1
    n = 7
    assert n * 1.0 / (n * 1.0 + 1) == n * 1.0 / (n + 1.0)


# ---------------------------------------------------------------------------
# array path: a grid call equals its element-wise 0-d calls bit for bit
# ---------------------------------------------------------------------------

def _config_infos():
    root = Path(__file__).resolve().parents[1] / "configs"
    gaussian = ic.load_channel(str(root / "gaussian.json"))
    discrete = ic.load_channel(str(root / "discrete.json"))
    uniform = ic.InputDistribution(np.full(2, 0.5))
    return {
        "gaussian": ic.gaussian_info_quantities(gaussian),
        "discrete": ic.info_quantities(discrete, uniform, uniform),
        "reference": reference_point(),
    }


INFOS = _config_infos()


def _closed_forms(info, mode):
    """Each array closed form as f(lam, r, d_max, n_packets)."""
    an = ic.analysis

    def finite_n(lam, r, d, n):
        _, beta, chi1, chi2 = an.user_outage_inputs(info, 2, r, lam, mode)
        return an.outage_ub_finite_n(lam * d, np.abs(beta), n, chi1, chi2)

    def limit(lam, r, d, n):
        _, beta, chi1, chi2 = an.user_outage_inputs(info, 2, r, lam, mode)
        return an.outage_ub_limit(lam * d, np.abs(beta), chi1, chi2)

    def labelled(lam, r, d, n):
        return an.epsilon_bound(info, lam, d, mode)

    return {
        "rho": lambda lam, r, d, n: an.rho(info, 1, r, lam, mode),
        "user_outage_inputs": lambda lam, r, d, n: an.user_outage_inputs(info, 2, r, lam, mode),
        "kappa": lambda lam, r, d, n: an.kappa(lam * d),
        "_rate_feasibility_interval":
            lambda lam, r, d, n: an._rate_feasibility_interval(info.c_star[0], info.c[0], lam),
        "epsilon_bound": labelled,
        "outage_ub_finite_n": finite_n,
        "outage_ub_limit": limit,
        "closed_form_outage, gapless": lambda lam, r, d, n: an.closed_form_outage(
            info, 2, lam, r / (1.0 + r), n, d, mode),
        "closed_form_outage":
            lambda lam, r, d, n: an.closed_form_outage(info, 1, lam, r, n, d, mode),
    }


def _leaves(res) -> list:
    """A result's fields; a scalar result's None reads as the arrays' nan (or user 0)."""
    if isinstance(res, EpsilonResult):
        def fill(v, empty):
            return empty if v is None else v
        return [res.kind, fill(res.value, math.nan), fill(res.r0, math.nan),
                fill(res.kappa, math.nan), fill(res.user, 0), res.case_label]
    if isinstance(res, tuple):
        return [leaf for field in res for leaf in _leaves(field)]
    return [res]


def _bits(v):
    v = np.asarray(v).item()
    return v.hex() if isinstance(v, float) else v


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(INFOS)),
    st.sampled_from([ic.TIN, ic.DI]),
    st.lists(
        st.tuples(st.floats(0.01, 5.0), st.floats(0.2, 4.0), st.floats(0.05, 20.0),
                  st.integers(1, 300)),
        min_size=1, max_size=8,
    ),
)
def test_grid_calls_equal_elementwise_scalar_calls(which, mode, points):
    # lam, r (both sides of 1), D and N vary together along the grid.
    lam, r, d, n = (np.array(column) for column in zip(*points))
    for name, f in _closed_forms(INFOS[which], mode).items():
        scalars = []
        for i in range(len(points)):
            try:
                scalars.append(f(*points[i]))
            except ic.AnalysisError as exc:
                scalars.append(exc)
        errors = tuple({type(s) for s in scalars if isinstance(s, Exception)})
        if errors:
            with pytest.raises(errors):
                f(lam, r, d, n)
            continue
        grid = [np.broadcast_to(np.asarray(g, dtype=object), lam.shape)
                for g in _leaves(f(lam, r, d, n))]
        for i, scalar in enumerate(scalars):
            assert [_bits(g[i]) for g in grid] == [_bits(v) for v in _leaves(scalar)], (name, i)
