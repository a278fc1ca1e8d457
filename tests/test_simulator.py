"""Monte Carlo engine tests.

The key check is that fluid-mode trial outcomes coincide, trial by trial,
with the admissible-interval membership test from the closed-form analysis.
"""

import itertools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ic_outage as ic
import ic_outage.simulator as simulator
from ic_outage.simulator import (
    _CHUNK,
    fluid_outage_flags,
    overlap_fractions,
    simulate_tau,
)
from conftest import (
    _offset_draws,
    admissible_intervals,
    decode_level_oracle,
    decoder_pairs,
    delta_cdf,
    overlap_fractions_dense_oracle,
    random_info,
    reference_point,
    tau_bar,
)


# ---------------------------------------------------------------------------
# limiting schedule
# ---------------------------------------------------------------------------

def test_tau_bar_values():
    assert tau_bar(1, 1.7) == 1.7
    assert tau_bar(3, 1.1) == pytest.approx(3.3)
    assert tau_bar(3, 0.8) == pytest.approx(2.8)
    # both branches agree at r = 1
    assert tau_bar(4, 1.0) == pytest.approx(4.0)
    assert tau_bar(4, 1.0 + 1e-12) == pytest.approx(4.0, abs=1e-9)
    with pytest.raises(ic.AnalysisError):
        tau_bar(0, 1.5)


def test_subunit_rate_schedule_has_no_gap():
    # consecutive unit intervals touch exactly when r <= 1
    for r in (0.3, 0.8, 1.0):
        starts = [tau_bar(j, r) for j in range(1, 6)]
        for a, b in zip(starts, starts[1:]):
            assert b - a == pytest.approx(1.0, abs=1e-12)


def test_bursty_schedule_has_gap_r():
    starts = [tau_bar(j, 1.4) for j in range(1, 6)]
    for a, b in zip(starts, starts[1:]):
        assert b - a == pytest.approx(1.4, abs=1e-12)


# ---------------------------------------------------------------------------
# release-time recursion
# ---------------------------------------------------------------------------

def test_simulate_tau_deterministic_arrivals():
    # lambda = 1: one bit per slot, so xi_j = j * n/N exactly
    lam, n, n_packets, r = 1.0, 1000, 4, 0.8
    rng = np.random.default_rng(0)
    tau = simulate_tau(lam, n, n_packets, r, rng)
    n_theta = n / (n_packets * r * lam)
    xi = [n / n_packets * j for j in range(1, n_packets + 1)]
    expect = [xi[0]]
    for j in range(1, n_packets):
        expect.append(max(expect[-1] + n_theta, xi[j]))
    assert tau == pytest.approx(expect, abs=1e-9)


def test_simulate_tau_converges_to_limit_profile():
    lam, n, n_packets, r = 0.1, 10**5, 10, 1.5
    n_theta = n / (n_packets * r * lam)
    rng = np.random.default_rng(123)
    for _ in range(5):
        tau = simulate_tau(lam, n, n_packets, r, rng)
        scaled = tau / n_theta
        for j in range(n_packets):
            assert scaled[j] == pytest.approx(tau_bar(j + 1, r), rel=0.05)


def test_simulate_tau_subunit_rate_profile():
    lam, n, n_packets, r = 0.2, 10**5, 8, 0.8
    n_theta = n / (n_packets * r * lam)
    rng = np.random.default_rng(7)
    tau = simulate_tau(lam, n, n_packets, r, rng)
    scaled = tau / n_theta
    for j in range(n_packets):
        assert scaled[j] == pytest.approx(tau_bar(j + 1, r), rel=0.05)


def test_simulate_tau_rejects_zero_bit_packets():
    with pytest.raises(ic.AnalysisError, match="zero bits"):
        simulate_tau(0.5, 3, 10, 1.5, np.random.default_rng(0))


def test_simulate_tau_rejects_slot_counts_beyond_float_precision():
    with pytest.raises(ic.AnalysisError, match=r"2\*\*53"):
        simulate_tau(1e-12, 10**9, 10, 1.5, np.random.default_rng(0))
    tau = simulate_tau(2.0**-23, 2**30, 10, 1.5, np.random.default_rng(0))   # n/lam = 2**53
    assert np.isfinite(tau).all()


def _bits_read(n, n_packets):
    """k_j = ceil(j n / N), the bit whose arrival releases packet j, in exact integers."""
    return np.array([-(-j * n // n_packets) for j in range(1, n_packets + 1)])


@pytest.mark.parametrize("n, n_packets", [(1000, 4), (997, 7), (29, 7), (10**9, 10)])
def test_arrival_slots_at_full_rate_are_the_bits_read(n, n_packets):
    # At lam = 1 bit k arrives in slot k.  (29, 7): ceil(29/7 * 7) is 30 in floats.
    xi = simulator._arrival_slots(1.0, n, n_packets, np.random.default_rng(0), size=(3,))
    assert (xi == _bits_read(n, n_packets).astype(float)).all()


@settings(max_examples=200, deadline=None)
@given(n_packets=st.integers(1, 3000), data=st.data())
def test_arrival_slot_boundaries_equal_the_exact_integer_list(n_packets, data):
    # The bits read, ceil(j n/N), are built with numpy as j q + ceil(j p/N) for
    # n = q N + p; j n itself would pass 2**63 for n near 2**53.
    n = data.draw(st.one_of(st.integers(n_packets, 10**6),
                            st.integers(max(n_packets, 2**53 - 10**6), 2**53)))
    xi = simulator._arrival_slots(1.0, n, n_packets, np.random.default_rng(0))
    assert xi.tolist() == _bits_read(n, n_packets).tolist()


@pytest.mark.parametrize("lam, n, n_packets", [(0.3, 997, 7), (0.3, 1000, 8), (0.05, 10**6, 5)])
def test_arrival_slots_match_negative_binomial_moments(lam, n, n_packets):
    # xi_j = k_j + NegBinomial(k_j, lam): mean k_j/lam, variance k_j(1-lam)/lam^2 and
    # excess kurtosis 6/k_j + lam^2/(k_j(1-lam)).  Tolerances: 5 standard errors.
    trials = 20000
    xi = simulator._arrival_slots(lam, n, n_packets, np.random.default_rng(17), size=(trials,))
    for j, k in enumerate(_bits_read(n, n_packets)):
        mean, var = k / lam, k * (1.0 - lam) / lam**2
        kurtosis = 6.0 / k + lam**2 / (k * (1.0 - lam))
        se_mean = math.sqrt(var / trials)
        se_var = var * math.sqrt(2.0 / (trials - 1) + kurtosis / trials)
        assert abs(xi[:, j].mean() - mean) < 5.0 * se_mean, j
        assert abs(xi[:, j].var(ddof=1) - var) < 5.0 * se_var, j


# ---------------------------------------------------------------------------
# overlap geometry
# ---------------------------------------------------------------------------

def test_overlap_disjoint_schedules():
    s1 = np.array([1.5, 3.0, 4.5])
    s2 = np.array([101.5, 103.0, 104.5])
    mu1, mu2 = overlap_fractions(s1, s2)
    assert np.all(mu1 == 0) and np.all(mu2 == 0)


def test_overlap_identical_schedules():
    s = np.array([1.5, 3.0, 4.5])
    mu1, mu2 = overlap_fractions(s, s)
    assert mu1 == pytest.approx([1.0, 1.0, 1.0])
    assert mu2 == pytest.approx([1.0, 1.0, 1.0])


def test_overlap_both_neighbors_case():
    # 1 < r < 2 with a shift that clips both neighboring codewords: the
    # interior codewords see a total overlapped fraction of exactly 2 - r.
    r = 1.5
    s1 = np.array([tau_bar(j, r) for j in range(1, 6)])
    s2 = s1 + 0.75
    mu1, mu2 = overlap_fractions(s1, s2)
    assert mu1[1:] == pytest.approx([2.0 - r] * 4)
    assert mu2[:-1] == pytest.approx([2.0 - r] * 4)


def test_overlap_partial_single_neighbor():
    s1 = np.array([0.0])
    s2 = np.array([0.6])
    mu1, mu2 = overlap_fractions(s1, s2)
    assert mu1[0] == pytest.approx(0.4)
    assert mu2[0] == pytest.approx(0.4)


def test_overlap_batched_rows_match_single_schedules():
    rng = np.random.default_rng(3)
    s1 = rng.uniform(0.0, 3.0, (7, 1)) + np.cumsum(1.0 + rng.exponential(0.5, (7, 9)), axis=1)
    s2 = rng.uniform(0.0, 3.0, (7, 1)) + np.cumsum(1.0 + rng.exponential(0.5, (7, 9)), axis=1)
    mu1, mu2 = overlap_fractions(s1, s2)
    for t in range(7):
        row1, row2 = overlap_fractions(s1[t], s2[t])
        assert np.array_equal(mu1[t], row1) and np.array_equal(mu2[t], row2)


def _assert_matches_dense(s1, s2):
    mu1, mu2 = overlap_fractions(s1, s2)
    dense1, dense2 = overlap_fractions_dense_oracle(s1, s2)
    assert np.array_equal(mu1, dense1) and np.array_equal(mu2, dense2)


@pytest.mark.parametrize("r", [0.7, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("n_packets", [1, 2, 16, 64])
def test_overlap_matches_dense_oracle_on_fluid_profiles(r, n_packets):
    scheme = ic.SchemeParams(lam=0.5, r=r, n_packets=n_packets, d_max=5.0)
    taus = np.array([tau_bar(j, r) for j in range(1, n_packets + 1)])
    theta = 1.0 / (n_packets * scheme.code_rate)
    d1, d2 = _offset_draws(seed=n_packets, trials=500, d_max=scheme.d_max)
    _assert_matches_dense(d1[:, None] / theta + taus, d2[:, None] / theta + taus)
    _assert_matches_dense(d1[0] / theta + taus, d2[0] / theta + taus)


@pytest.mark.parametrize("lam, r", [(0.3, 0.7), (0.3, 1.5), (1.0, 0.7), (1.0, 3.0)])
def test_overlap_matches_dense_oracle_on_release_recursion_rows(lam, r):
    n, n_packets, trials = 2000, 12, 40
    scheme = ic.SchemeParams(lam=lam, r=r, n_packets=n_packets, d_max=2.0)
    n_theta = n / (n_packets * scheme.code_rate)
    theta = 1.0 / (n_packets * scheme.code_rate)
    d1, d2 = _offset_draws(seed=9, trials=trials, d_max=scheme.d_max)
    rng = np.random.default_rng(17)
    taus = np.array([[simulate_tau(lam, n, n_packets, r, rng) for _ in range(trials)]
                     for _ in range(2)])
    _assert_matches_dense(d1[:, None] / theta + taus[0] / n_theta,
                          d2[:, None] / theta + taus[1] / n_theta)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.75, 1.0, 1.5, 3.0]), st.sampled_from([1, 2, 3, 16]),
       st.integers(0, 160), st.integers(0, 160))
def test_overlap_matches_dense_oracle_on_exact_grid(r, n_packets, x1, x2):
    # Starts on a grid of 1/8: all arithmetic is exact, so the search covers
    # equal starts and start differences of exactly 1 on either side.
    taus = np.array([tau_bar(j, r) for j in range(1, n_packets + 1)])
    _assert_matches_dense(x1 / 8 + taus, x2 / 8 + taus)


def test_overlap_edge_cases_match_dense_oracle():
    s = np.array([0.0, 1.0, 2.5, 4.0])
    for shift in (0.0, 1.0, -1.0, 2.5, 1.5):
        _assert_matches_dense(s, s + shift)
    # equal starts overlap fully, starts exactly 1 apart by 0
    mu1, mu2 = overlap_fractions(s, s + 1.0)
    assert mu1.tolist() == [0.0, 1.0, 0.5, 0.5] and mu2.tolist() == [1.0, 0.5, 0.5, 0.0]
    _assert_matches_dense(np.array([[0.25], [3.0]]), np.array([[0.25], [2.0]]))


def test_overlap_rejects_rows_that_are_not_schedules():
    with pytest.raises(ic.AnalysisError, match="sorted"):
        overlap_fractions([2.0, 0.0], [0.0, 3.0])
    with pytest.raises(ic.AnalysisError, match="sorted"):
        overlap_fractions(np.array([[0.0, 5.0], [0.0, 0.5]]), np.zeros((2, 2)) + [0.0, 2.0])
    # a gap short of 1 by rounding, as tau / n_theta can produce, is accepted
    short = np.array([3.0, np.nextafter(4.0, 0.0)])
    _assert_matches_dense(short, short + 0.5)


# ---------------------------------------------------------------------------
# decode thresholds
# ---------------------------------------------------------------------------

def test_decode_success_interference_free():
    info = reference_point()
    assert ic.decode_success(0.0, info, 1, 0.9, ic.TIN)
    assert not ic.decode_success(0.0, info, 1, 1.0, ic.TIN)   # strict at C*


def test_decode_success_full_overlap_threshold():
    info = reference_point()
    c1 = info.c[0]
    assert ic.decode_success(1.0, info, 1, c1 - 1e-9, ic.TIN)
    assert not ic.decode_success(1.0, info, 1, (c1 + 1.0) / 2.0, ic.TIN)


def test_decode_success_boundary_is_failure():
    # mu exactly at 1 - rho_i(r): mixed rate equals R_c, strict test fails
    info = reference_point()
    lam, r = 0.1, 1.1
    rho1 = ic.analysis.rho(info, 1, r, lam, ic.TIN).value
    mu = 1.0 - rho1
    r_code = r * lam
    mixed = (1.0 - mu) * info.c_star[0] + mu * info.c[0]
    assert mixed == pytest.approx(r_code, abs=1e-12)
    assert not ic.decode_success(mu, info, 1, r_code, ic.TIN)
    assert ic.decode_success(mu - 1e-9, info, 1, r_code, ic.TIN)


def test_decode_success_di_requires_both_inequalities():
    info = ic.InfoQuantities(
        c_star=(1.0, 1.0), c=(0.2, 0.2), c_cross=(0.9, 0.9),
        c_tilde_star=(0.45, 0.45), c_tilde=(0.05, 0.05),
    )
    # rate decodable against own signal but not against the interferer's
    r_code = 0.5
    assert ic.decode_success(0.1, info, 1, r_code, ic.TIN)
    assert not ic.decode_success(0.1, info, 1, r_code, ic.DI)


def test_decode_success_vectorized():
    info = reference_point()
    mu = np.array([0.0, 0.5, 1.0])
    out = ic.decode_success(mu, info, 1, 0.11, ic.TIN)
    assert out.shape == (3,)
    assert out.dtype == bool


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([ic.TIN, ic.DI]),
       st.sampled_from([1, 2]), st.floats(0.2, 4.0), st.floats(0.05, 1.3))
def test_decode_success_fails_at_one_minus_rho_and_decodes_just_below(seed, gaussian, mode,
                                                                      user, r, load):
    # mu = 1 - rho_i(r) is the tie of the decoding rule, so it fails, as a rate
    # exactly at threshold does, and the float below it decodes: the verdict and
    # rho are one computation.  The level formula decoded at the tie on about a
    # fifth of TIN points.
    info = random_info(np.random.default_rng(seed), gaussian)
    lam = load * max(info.c_star[user - 1], info.c_tilde_star[user - 1]) / r
    try:
        value, cap = ic.analysis.rho(info, user, r, lam, mode)
    except ic.AnalysisError:   # rho has no finite value: a nonpositive denominator
        assume(False)
    assume(-1.0 <= value < 1.0 and (cap is None or r < cap))
    edge = 1.0 - value
    assert not ic.decode_success(edge, info, user, lam * r, mode)
    assert ic.decode_success(np.nextafter(edge, 0.0), info, user, lam * r, mode)


def _assert_decodes_as_the_level_formula(mu, info, user, r_code, mode):
    # Off a few ulps of the tie, rounding cannot decide the verdict.
    ok, margin = decode_level_oracle(mu, info, user, r_code, mode)
    scale = max(r_code, *itertools.chain(*decoder_pairs(info, user, mode)))
    clear = margin > 16 * np.spacing(scale)
    got = ic.decode_success(mu, info, user, r_code, mode)
    np.testing.assert_array_equal(got[clear], ok[clear])
    return got


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([ic.TIN, ic.DI]),
       st.sampled_from([1, 2]), st.floats(0.05, 1.3))
def test_decode_success_equals_the_level_formula_off_the_tie(seed, gaussian, mode, user, load):
    # Random channels include DI users with C* < C_cross, a lower ray of failing mu.
    rng = np.random.default_rng(seed)
    info = random_info(rng, gaussian)
    r_code = load * max(info.c_star[user - 1], info.c_tilde_star[user - 1])
    mu = np.concatenate([np.linspace(0.0, 2.0, 201), 2.0 * rng.random(200)])
    _assert_decodes_as_the_level_formula(mu, info, user, r_code, mode)


@pytest.mark.parametrize("config, user, r_code, decodes", [
    # discrete DI user 2: C* = 0.106 < C_cross = 0.140, so mu <= 0.407 fails too
    ("discrete", 2, 0.12, (0.407, 0.804)),
    # Gaussian DI user 2: C* == C_cross = 4.98, a pair that fails every mu once
    # R_c >= C*, where (C~*, C~) alone decodes mu < 0.063
    ("gaussian", 2, 4.9, (0.0, 0.081)),
    ("gaussian", 2, 4.983613129417996, None),
])
def test_decode_success_reads_lower_rays_and_equal_pairs(config, user, r_code, decodes):
    info = _config_info(config)
    mu = np.linspace(0.0, 2.0, 2001)
    got = _assert_decodes_as_the_level_formula(mu, info, user, r_code, ic.DI)
    if decodes is None:
        assert r_code == info.c_star[user - 1] == info.c_cross[user - 1]
        assert not got.any()
    else:
        assert (mu[got].min(), mu[got].max()) == pytest.approx(decodes, abs=1e-9)


# ---------------------------------------------------------------------------
# trial runner
# ---------------------------------------------------------------------------

def test_offset_draws_match_uniform_cdf():
    d1, d2 = _offset_draws(seed=42, trials=10**5, d_max=3.0)
    delta = np.abs(d1 - d2)
    grid = np.linspace(0.0, 3.0, 61)
    emp = np.searchsorted(np.sort(delta), grid) / delta.size
    ks = max(
        abs(e - delta_cdf(g, 3.0)) for e, g in zip(emp, grid)
    )
    assert ks < 0.01


def test_fluid_trials_match_interval_membership():
    info = reference_point()
    scheme = ic.SchemeParams(lam=0.1, r=1.1, n_packets=4, d_max=15.0, decoder=ic.TIN)
    inputs = ic.outage_inputs(info, scheme)
    assert inputs.chi1 == (True, True)
    theta = 1.0 / (scheme.n_packets * scheme.code_rate)
    d1, d2 = _offset_draws(seed=99, trials=4000, d_max=scheme.d_max)
    out1, out2, fails = fluid_outage_flags(d1, d2, scheme, info)
    for j, (out, rho_j) in enumerate(zip((out1, out2), inputs.rho)):
        ivs = admissible_intervals(scheme.r, rho_j, scheme.n_packets)
        for t in range(len(d1)):
            delta_prime = abs(d1[t] - d2[t]) / theta
            member = any(iv.lo < delta_prime < iv.hi for iv in ivs)
            assert member == (not out[t]), (
                f"user {j+1}, trial {t}: membership {member} vs outage {out[t]}"
            )


def test_fluid_outage_matches_closed_form_band():
    info = reference_point()
    scheme = ic.SchemeParams(lam=0.1, r=1.1, n_packets=4, d_max=15.0, decoder=ic.TIN)
    inputs = ic.outage_inputs(info, scheme)
    config = ic.SimConfig(scheme=scheme, trials=20000, seed=7)
    res = ic.run_trials(config, info)
    for j in range(2):
        p = ic.analysis.outage_ub_finite_n(
            scheme.alpha, inputs.beta[j], scheme.n_packets,
            inputs.chi1[j], inputs.chi2[j],
        )
        sigma = math.sqrt(p * (1.0 - p) / config.trials)
        assert abs(res.outage[j] - p) < 3.0 * sigma


def test_run_trials_is_deterministic():
    info = reference_point()
    scheme = ic.SchemeParams(lam=0.1, r=1.1, n_packets=4, d_max=15.0, decoder=ic.TIN)
    config = ic.SimConfig(scheme=scheme, trials=3000, seed=5)
    a = ic.run_trials(config, info)
    b = ic.run_trials(config, info)
    assert a.to_json() == b.to_json()
    assert a == b


def test_fluid_partitioning_is_order_independent():
    info = reference_point()
    scheme = ic.SchemeParams(lam=0.1, r=1.1, n_packets=4, d_max=15.0, decoder=ic.TIN)
    d1, d2 = _offset_draws(seed=31, trials=5000, d_max=scheme.d_max)
    whole = fluid_outage_flags(d1, d2, scheme, info)
    cut = 1234
    first = fluid_outage_flags(d1[:cut], d2[:cut], scheme, info)
    second = fluid_outage_flags(d1[cut:], d2[cut:], scheme, info)
    assert np.array_equal(whole[0], np.concatenate([first[0], second[0]]))
    assert np.array_equal(whole[1], np.concatenate([first[1], second[1]]))
    assert np.array_equal(whole[2], first[2] + second[2])


def _config_info(name):
    ch = ic.load_channel(str(Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"))
    if isinstance(ch, ic.GaussianIC):
        return ic.gaussian_info_quantities(ch)
    uniform = ic.InputDistribution(np.full(2, 0.5))
    return ic.info_quantities(ch, uniform, uniform)


_LATTICE_INFOS = {"gaussian": _config_info("gaussian"), "discrete": _config_info("discrete"),
                  "reference": reference_point()}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_LATTICE_INFOS)), st.sampled_from([ic.TIN, ic.DI]),
       st.one_of(st.just(1.0), st.floats(0.2, 4.0, exclude_min=True, exclude_max=True)),
       st.integers(1, 64), st.sampled_from([0.3, 1.0, 5.0, 20.0]), st.floats(0.01, 1.0),
       st.integers(0, 2**32))
def test_fluid_kernel_matches_general_path(config, decoder, r, n_packets, d_max, lam, seed):
    # The general path: overlap_fractions and decode_success on the explicit
    # rows d/theta + tau_bar.  Trials where some codeword's rate sits within
    # rounding of its threshold are left out; only there may the two differ.
    info = _LATTICE_INFOS[config]
    scheme = ic.SchemeParams(lam=lam, r=r, n_packets=n_packets, d_max=d_max, decoder=decoder)
    r_code = scheme.code_rate
    d1, d2 = _offset_draws(seed=seed, trials=200, d_max=d_max)
    taus = np.array([tau_bar(j, r) for j in range(1, n_packets + 1)])
    theta = 1.0 / (n_packets * r_code)
    mus = overlap_fractions(d1[:, None] / theta + taus, d2[:, None] / theta + taus)
    oks, tied = [], np.zeros(len(d1), dtype=bool)
    for user, mu in zip((1, 2), mus):
        oks.append(ic.decode_success(mu, info, user, r_code, decoder))
        j = user - 1
        for full, mixed in ([(info.c_star[j], info.c[j])] if decoder == ic.TIN else
                            [(info.c_tilde_star[j], info.c_tilde[j]),
                             (info.c_star[j], info.c_cross[j])]):
            margin = np.abs((1.0 - mu) * full + mu * mixed - r_code)
            tied |= (margin <= 1e-12 * max(1.0, r_code)).any(axis=1)
    keep = ~tied
    assume(keep.any())
    out1, out2, fails = fluid_outage_flags(d1[keep], d2[keep], scheme, info)
    assert np.array_equal(out1, ~oks[0][keep].all(axis=1))
    assert np.array_equal(out2, ~oks[1][keep].all(axis=1))
    assert np.array_equal(fails, [(~ok[keep]).sum(axis=0) for ok in oks])


def test_fluid_gapless_lattice_step_is_exactly_one():
    # At r <= 1 the lattice step is 1, so a codeword with two partners has
    # overlaps summing to exactly 1.  Here r*lam = 0.020000000000000004 is an
    # ulp above C~ = 0.02, so DI fails every such codeword, as in exact
    # arithmetic; offsets within one codeword length leave codewords 2..7 two
    # partners in every trial.
    info = reference_point()
    scheme = ic.SchemeParams(lam=0.1, r=0.2, n_packets=8, d_max=1.0, decoder=ic.DI)
    d1, d2 = _offset_draws(seed=0, trials=2000, d_max=scheme.d_max)
    out1, out2, fails = fluid_outage_flags(d1, d2, scheme, info)
    assert out1.all() and out2.all()
    assert (fails[:, 1:7] == 2000).all()


# At R_c = 0.6, user 2 fails at mu = 0 (C*_2 = 0.5) but, under DI, clears
# 0.25 < mu < 0.6; user 1 clears mu = 0 and fails from mu = 4/7 (TIN) or 0.6
# (DI).  No threshold sits at 0.5 or 1, the mu of a codeword with two
# partners at r = 1.5 and at r <= 1.
_ONE_SIDED_INFO = ic.InfoQuantities(c_star=(1.0, 0.5), c=(0.3, 0.2), c_cross=(1.2, 0.9),
                                    c_tilde_star=(0.9, 0.9), c_tilde=(0.4, 0.4))


def _swap_users(info):
    return ic.InfoQuantities(*(values[::-1] for values in (
        info.c_star, info.c, info.c_cross, info.c_tilde_star, info.c_tilde)))


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("decoder", [(ic.TIN, ic.DI), (ic.DI, ic.TIN)])
@pytest.mark.parametrize("r", [0.7, 1.0, 1.5])
@pytest.mark.parametrize("n_packets", [1, 2, 7])
def test_fluid_kernel_matches_general_path_mixed_decoders(swap, decoder, r, n_packets):
    # Mixed decoders and a mu = 0 verdict that fails for one user only, which
    # test_fluid_kernel_matches_general_path never draws; the general path is
    # overlap_fractions and decode_success on the explicit rows d/theta + tau_bar.
    info = _swap_users(_ONE_SIDED_INFO) if swap else _ONE_SIDED_INFO
    scheme = ic.SchemeParams(lam=0.6 / r, r=r, n_packets=n_packets, d_max=5.0, decoder=decoder)
    r_code = scheme.code_rate
    assert [ic.decode_success(0.0, info, user, r_code, mode)
            for user, mode in zip((1, 2), decoder)] == ([False, True] if swap else [True, False])
    d1, d2 = _offset_draws(seed=17, trials=3000, d_max=scheme.d_max)
    taus = np.array([tau_bar(j, r) for j in range(1, n_packets + 1)])
    theta = 1.0 / (n_packets * r_code)
    mus = overlap_fractions(d1[:, None] / theta + taus, d2[:, None] / theta + taus)
    oks = [ic.decode_success(mu, info, user, r_code, mode)
           for user, mu, mode in zip((1, 2), mus, decoder)]
    # Leave out trials with an overlap within rounding of a threshold
    # (mu = 4/7, 0.6 or 0.25); only there may the two paths differ.
    near = [np.abs(np.subtract.outer(mu, [4 / 7, 0.6, 0.25])) <= 1e-12 for mu in mus]
    keep = ~np.logical_or(*(x.any(axis=(1, 2)) for x in near))
    assert keep.sum() > 2900
    out1, out2, fails = fluid_outage_flags(d1[keep], d2[keep], scheme, info)
    assert np.array_equal(out1, ~oks[0][keep].all(axis=1))
    assert np.array_equal(out2, ~oks[1][keep].all(axis=1))
    assert np.array_equal(fails, [(~ok[keep]).sum(axis=0) for ok in oks])
    assert 0 < fails.sum() < 2 * n_packets * keep.sum()


@pytest.fixture
def pool_requests(monkeypatch):
    """Worker counts of every thread pool requested; the pool runs chunks in order."""
    import concurrent.futures

    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    return requested


def test_fluid_runs_request_no_thread_pool(monkeypatch, pool_requests):
    monkeypatch.setenv("IC_OUTAGE_THREADS", "64")
    info = reference_point()
    scheme = ic.SchemeParams(lam=0.1, r=1.1, n_packets=2, d_max=15.0, decoder=ic.TIN)
    ic.run_trials(ic.SimConfig(scheme=scheme, trials=4 * _CHUNK + 1, seed=5), info)
    assert pool_requests == []


def test_stochastic_runs_request_no_thread_pool(monkeypatch, pool_requests):
    monkeypatch.setattr(simulator, "_CHUNK", 4)
    monkeypatch.setenv("IC_OUTAGE_THREADS", "2")
    info = reference_point()
    scheme = ic.SchemeParams(lam=0.1, r=1.5, n_packets=5, d_max=10.0, decoder=ic.TIN)
    ic.run_trials(ic.SimConfig(scheme=scheme, trials=16, seed=4, mode="stochastic", n=2000),
                  info)
    assert pool_requests == []


@pytest.mark.parametrize("mode, n", [("fluid", None), ("stochastic", 2000)])
def test_run_trials_ignores_thread_count_variable(monkeypatch, mode, n):
    monkeypatch.setattr(simulator, "_CHUNK", 4)
    info = reference_point()
    scheme = ic.SchemeParams(lam=0.1, r=1.5, n_packets=5, d_max=10.0, decoder=ic.TIN)
    config = ic.SimConfig(scheme=scheme, trials=20, seed=4, mode=mode, n=n)
    monkeypatch.delenv("IC_OUTAGE_THREADS", raising=False)
    unset = ic.run_trials(config, info).to_json()
    for threads in ("1", "2", "64", "x"):
        monkeypatch.setenv("IC_OUTAGE_THREADS", threads)
        assert ic.run_trials(config, info).to_json() == unset, threads


def _peak_bytes(config):
    import tracemalloc

    tracemalloc.start()
    try:
        ic.run_trials(config, reference_point())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _fluid_peak_bytes(n_packets, trials):
    scheme = ic.SchemeParams(lam=0.1, r=1.1, n_packets=n_packets, d_max=15.0, decoder=ic.TIN)
    return _peak_bytes(ic.SimConfig(scheme=scheme, trials=trials, seed=8))


def test_fluid_kernel_holds_one_overlap_tensor_at_a_time(monkeypatch):
    monkeypatch.setattr(simulator, "_CHUNK", 1024)
    peak = _fluid_peak_bytes(32, 4 * 1024)
    tensor_bytes = 1024 * 32 * 32 * 8
    assert peak < 1.0 * tensor_bytes, f"peak {peak / tensor_bytes:.2f} overlap tensors"


def test_fluid_kernel_memory_is_flat_in_n():
    # Four chunks of trials; per-codeword state is O(N) and small beside a chunk.
    small, large = _fluid_peak_bytes(4, 4 * _CHUNK), _fluid_peak_bytes(4096, 4 * _CHUNK)
    assert large < 1.5 * small, f"peak {large} B at N=4096 against {small} B at N=4"


def test_fluid_chunk_working_set_fits_budget():
    # A chunk decodes one 1-D mu row at a time, so its temporaries stay
    # under 96 bytes a trial, the offsets that run_trials draws included.
    peak = _fluid_peak_bytes(4, 4 * _CHUNK)
    assert peak <= 96 * _CHUNK, f"peak {peak / _CHUNK:.0f} B per trial"


@pytest.mark.parametrize("mode, n", [("fluid", None), ("stochastic", 2000)])
def test_run_trials_memory_is_flat_in_trial_count(monkeypatch, mode, n):
    # Each chunk draws its own offsets and leaves only counts behind.
    monkeypatch.setattr(simulator, "_CHUNK", 256)
    scheme = ic.SchemeParams(lam=0.1, r=1.5, n_packets=10, d_max=10.0, decoder=ic.TIN)

    def peak(chunks):
        return _peak_bytes(ic.SimConfig(scheme=scheme, trials=chunks * 256, seed=6,
                                        mode=mode, n=n))

    small, large = peak(4), peak(64)
    assert large <= 1.5 * small, f"peak {large} B at 64 chunks against {small} B at 4"


@pytest.mark.parametrize("mode, n", [("fluid", None), ("stochastic", 2000)])
def test_chunked_offsets_equal_whole_run_draws(monkeypatch, mode, n):
    # Each chunk continues the seed's Philox offset stream, so the first t
    # trials' offsets are those of one whole-run draw, whatever the chunk size.
    monkeypatch.setattr(simulator, "_CHUNK", 7)
    kernel = "fluid_outage_flags" if mode == "fluid" else "_stochastic_chunk"
    chunks = []
    run_chunk = getattr(simulator, kernel)

    def record(d1, d2, *args, **kwargs):
        chunks.append((d1.copy(), d2.copy()))
        return run_chunk(d1, d2, *args, **kwargs)

    monkeypatch.setattr(simulator, kernel, record)
    scheme = ic.SchemeParams(lam=0.1, r=1.5, n_packets=5, d_max=10.0, decoder=ic.TIN)
    ic.run_trials(ic.SimConfig(scheme=scheme, trials=50, seed=12, mode=mode, n=n),
                  reference_point())
    assert [len(d1) for d1, _ in chunks] == [7] * 7 + [1]
    whole = _offset_draws(seed=12, trials=80, d_max=scheme.d_max)
    for chunked, reference in zip(zip(*chunks), whole):
        assert np.array_equal(np.concatenate(chunked), reference[:50])


def test_stochastic_results_do_not_depend_on_thread_count(monkeypatch):
    monkeypatch.setattr(simulator, "_CHUNK", 4)
    info = reference_point()
    scheme = ic.SchemeParams(lam=0.1, r=1.5, n_packets=5, d_max=10.0, decoder=ic.TIN)
    config = ic.SimConfig(scheme=scheme, trials=20, seed=4, mode="stochastic", n=2000)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # interleave the two workers as often as possible
    try:
        for threads in ("1", "2"):
            monkeypatch.setenv("IC_OUTAGE_THREADS", threads)
            results.append(ic.run_trials(config, info).to_json())
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == results[1]


def test_stochastic_mode_rates_and_determinism():
    info = reference_point()
    scheme = ic.SchemeParams(lam=0.1, r=1.5, n_packets=5, d_max=10.0, decoder=ic.TIN)
    config = ic.SimConfig(scheme=scheme, trials=40, seed=11, mode="stochastic", n=10**5)
    a = ic.run_trials(config, info)
    b = ic.run_trials(config, info)
    assert a.to_json() == b.to_json()
    expect = ic.avg_rate(scheme.n_packets, scheme.r, scheme.lam)
    for j in range(2):
        assert a.rates[j] == pytest.approx(expect, rel=0.02)


def test_stochastic_matches_per_trial_reference():
    # Reference: one trial at a time, user 1 then user 2 from the seed's jumped
    # Philox stream, rates summed in trial order.
    info = reference_point()
    scheme = ic.SchemeParams(lam=0.3, r=1.5, n_packets=6, d_max=2.0, decoder=ic.TIN)
    config = ic.SimConfig(scheme=scheme, trials=30, seed=2, mode="stochastic", n=3000)
    d1, d2 = _offset_draws(config.seed, config.trials, scheme.d_max)
    n_theta = config.n / (scheme.n_packets * scheme.code_rate)
    theta = 1.0 / (scheme.n_packets * scheme.code_rate)
    outages, fails, rate_sum = np.zeros((2, config.trials), dtype=bool), 0, np.zeros(2)
    rng = np.random.Generator(np.random.Philox(key=config.seed).jumped())
    for t in range(config.trials):
        taus = [simulate_tau(scheme.lam, config.n, scheme.n_packets, scheme.r, rng)
                for _ in range(2)]
        mu = overlap_fractions(d1[t] / theta + taus[0] / n_theta, d2[t] / theta + taus[1] / n_theta)
        ok = [ic.decode_success(mu[i], info, i + 1, scheme.code_rate, ic.TIN) for i in range(2)]
        fails = fails + ~np.array(ok)
        for i in range(2):
            outages[i, t] = not ok[i].all()
            rate_sum[i] += config.n / (taus[i][-1] + n_theta)
    res = ic.run_trials(config, info)
    assert 0.0 < res.outage[0] < 1.0
    assert res.outage == tuple(float(o.mean()) for o in outages)
    assert res.per_codeword_failures == fails.tolist()
    assert res.rates == tuple(rate_sum / config.trials)


def test_stochastic_trials_do_not_depend_on_trial_count_or_chunk(monkeypatch):
    info = reference_point()
    scheme = ic.SchemeParams(lam=0.3, r=1.5, n_packets=6, d_max=2.0, decoder=ic.TIN)
    recorded = []
    sample = simulator.simulate_tau

    def record(*args, **kwargs):
        recorded.append(sample(*args, **kwargs))
        return recorded[-1]

    def run(trials):
        recorded.clear()
        config = ic.SimConfig(scheme=scheme, trials=trials, seed=2, mode="stochastic", n=3000)
        return ic.run_trials(config, info), np.concatenate(recorded)

    def fluid(trials):
        return ic.run_trials(ic.SimConfig(scheme=scheme, trials=trials, seed=2), info)

    monkeypatch.setattr(simulator, "simulate_tau", record)
    res30, taus30 = run(30)
    _, taus50 = run(50)
    fluid30, fluid_whole = fluid(30), fluid(4 * _CHUNK + 3)
    monkeypatch.setattr(simulator, "_CHUNK", 4)
    res30_chunked, taus30_chunked = run(30)
    assert taus30.shape == (30, 2, 6)
    assert np.array_equal(taus50[:30], taus30)
    assert np.array_equal(taus30_chunked, taus30)
    assert res30_chunked == res30
    # A fluid result sums per-chunk counts, so it does not depend on the chunk size.
    assert fluid(30) == fluid30
    monkeypatch.setattr(simulator, "_CHUNK", 1000)
    assert fluid(4 * _CHUNK + 3) == fluid_whole


def _stochastic_peak_bytes(n):
    scheme = ic.SchemeParams(lam=0.1, r=1.5, n_packets=10, d_max=10.0, decoder=ic.TIN)
    return _peak_bytes(ic.SimConfig(scheme=scheme, trials=4096, seed=6, mode="stochastic", n=n))


def test_stochastic_memory_is_flat_in_n():
    small, large = _stochastic_peak_bytes(10**5), _stochastic_peak_bytes(10**9)
    assert large < 1.5 * small, f"peak {large} B at n=1e9 against {small} B at n=1e5"


def test_stochastic_outage_gap_shrinks_as_inverse_sqrt_n():
    # The finite-n outage exceeds the n -> oo closed form because release times
    # spread by about r N sqrt((1 - lam)/n) codeword lengths.  Bounds: 4 standard
    # errors of the binomial estimates, carried to the log-log slope by the delta method.
    info = ic.gaussian_info_quantities(ic.GaussianIC(p1=1000.0, p2=1000.0, c1=0.8, c2=1.5))
    scheme = ic.SchemeParams(lam=0.6, r=1.5, n_packets=10, d_max=1.0, decoder=ic.TIN)
    inputs = ic.outage_inputs(info, scheme)
    trials, ns = 100000, (10**4, 10**5, 10**6)
    runs = [ic.run_trials(ic.SimConfig(scheme=scheme, trials=trials, seed=0,
                                       mode="stochastic", n=n), info) for n in ns]
    for j in (0, 1):
        p_limit = ic.outage_ub_finite_n(scheme.alpha, inputs.beta[j], scheme.n_packets,
                                        inputs.chi1[j], inputs.chi2[j])
        gaps = [res.outage[j] - p_limit for res in runs]
        ses = [math.sqrt(res.outage[j] * (1.0 - res.outage[j]) / trials) for res in runs]
        assert gaps[-1] > 4.0 * ses[-1], gaps
        for a in range(len(ns) - 1):
            assert gaps[a] - gaps[a + 1] > 4.0 * math.hypot(ses[a], ses[a + 1]), gaps
        slope = math.log(gaps[-1] / gaps[0]) / math.log(ns[-1] / ns[0])
        se_slope = math.hypot(ses[0] / gaps[0], ses[-1] / gaps[-1]) / math.log(ns[-1] / ns[0])
        assert abs(slope + 0.5) < 4.0 * se_slope, (slope, se_slope)


def test_sim_config_validation():
    scheme = ic.SchemeParams(lam=0.1, r=1.5, n_packets=5, d_max=10.0)
    with pytest.raises(ic.AnalysisError):
        ic.SimConfig(scheme=scheme, trials=0, seed=1)
    with pytest.raises(ic.AnalysisError, match="bits-per-source"):
        ic.SimConfig(scheme=scheme, trials=10, seed=1, mode="stochastic")
    with pytest.raises(ic.AnalysisError):
        ic.SimConfig(scheme=scheme, trials=10, seed=1, mode="exact")
    with pytest.raises(ic.AnalysisError, match="stochastic mode only"):
        ic.SimConfig(scheme=scheme, trials=10, seed=1, n=5)


def test_sim_result_json_schema():
    info = reference_point()
    scheme = ic.SchemeParams(lam=0.1, r=1.1, n_packets=2, d_max=5.0)
    res = ic.run_trials(ic.SimConfig(scheme=scheme, trials=100, seed=0), info)
    payload = json.loads(res.to_json())
    assert set(payload) == {
        "outage", "halfwidth", "rates", "trials", "seed", "mode",
        "per_codeword_failures",
    }
    for j in range(2):
        p = payload["outage"][j]
        assert 0.0 <= p <= 1.0
        assert payload["halfwidth"][j] == pytest.approx(
            1.96 * math.sqrt(p * (1.0 - p) / 100)
        )
    assert len(payload["per_codeword_failures"][0]) == 2


@pytest.mark.parametrize("mode, n", [("fluid", None), ("stochastic", 2000)])
def test_sim_result_json_equals_asdict_dump(monkeypatch, mode, n):
    monkeypatch.setattr(simulator, "_CHUNK", 16)
    scheme = ic.SchemeParams(lam=0.1, r=1.5, n_packets=6, d_max=10.0, decoder=ic.TIN)
    res = ic.run_trials(ic.SimConfig(scheme=scheme, trials=61, seed=9, mode=mode, n=n),
                        reference_point())
    assert sum(map(sum, res.per_codeword_failures)) > 0
    assert res.to_json() == json.dumps(asdict(res))
