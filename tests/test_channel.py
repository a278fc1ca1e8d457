"""Channel-model tests.

The mutual-information code is checked against a deliberately naive oracle
(``conftest.oracle_quantities``) that works from the full joint pmf
p(x1, x2, y) with explicit loops, so any algebraic shortcut in the library is
independently verified.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ic_outage as ic
from conftest import KERNEL, dist, normalize_rows, oracle_quantities, random_discrete


def assert_info_close(a, b, tol=1e-12):
    for name in ("c_star", "c", "c_cross", "c_tilde_star", "c_tilde"):
        got, want = getattr(a, name), getattr(b, name)
        assert got[0] == pytest.approx(want[0], abs=tol)
        assert got[1] == pytest.approx(want[1], abs=tol)


# ---------------------------------------------------------------------------
# discrete channels
# ---------------------------------------------------------------------------

def test_info_quantities_match_oracle_on_regression_kernel(discrete_channel):
    pi = ic.InputDistribution.bernoulli(0.2)
    got = ic.info_quantities(discrete_channel, pi, pi)
    want = oracle_quantities(discrete_channel, pi.probs, pi.probs)
    assert_info_close(got, want)


def test_info_quantities_match_oracle_on_random_channels():
    rng = np.random.default_rng(11)
    for x1, x2, y in [(2, 2, 2), (2, 3, 4), (3, 2, 5), (4, 4, 8)]:
        for _ in range(10):
            ch = random_discrete(rng, x1, x2, y)
            pi1, pi2 = dist(rng, x1), dist(rng, x2)
            got = ic.info_quantities(ch, pi1, pi2)
            want = oracle_quantities(ch, pi1.probs, pi2.probs)
            assert_info_close(got, want)


def test_zero_probability_input_symbols_are_handled():
    rng = np.random.default_rng(3)
    ch = random_discrete(rng, 3, 3, 4)
    pi1 = ic.InputDistribution(np.array([0.0, 0.4, 0.6]))
    pi2 = ic.InputDistribution(np.array([0.5, 0.5, 0.0]))
    got = ic.info_quantities(ch, pi1, pi2)
    want = oracle_quantities(ch, pi1.probs, pi2.probs)
    assert_info_close(got, want)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_conditioning_never_reduces_own_signal_rate(seed, p1, p2):
    rng = np.random.default_rng(seed)
    ch = random_discrete(rng)
    info = ic.info_quantities(
        ch, ic.InputDistribution.bernoulli(p1), ic.InputDistribution.bernoulli(p2)
    )
    for j in range(2):
        assert info.c[j] <= info.c_cross[j] + 1e-9
        assert info.c[j] >= -1e-12
        assert info.c_tilde[j] >= -1e-12


def test_uniform_independent_outputs_give_zero_information():
    k = np.full((4, 4), 0.25)
    ch = ic.DiscreteIC(2, 2, 4, 4, k, k)
    u = ic.InputDistribution(np.array([0.5, 0.5]))
    info = ic.info_quantities(ch, u, u)
    for name in ("c_star", "c", "c_cross", "c_tilde_star", "c_tilde"):
        assert getattr(info, name) == pytest.approx((0.0, 0.0), abs=1e-12)


def test_information_is_never_negative_where_a_receiver_ignores_an_input():
    # Receiver 2 reads x2 only.  The float sum of this pi1 is 1 within
    # tolerance, not exactly, which left its C~* and C~ at about -1e-16.
    k1 = np.array([[0.9, 0.1], [0.6, 0.4], [0.5, 0.5], [0.3, 0.7], [0.2, 0.8], [0.1, 0.9]])
    k2 = np.array([[0.9, 0.1], [0.2, 0.8]] * 3)
    ch = ic.DiscreteIC(3, 2, 2, 2, k1, k2)
    pi1 = ic.InputDistribution(np.array([0.01, 0.06, 0.93]))
    info = ic.info_quantities(ch, pi1, ic.InputDistribution(np.array([0.5, 0.5])))
    constants = [v for name in ("c_star", "c", "c_cross", "c_tilde_star", "c_tilde")
                 for v in getattr(info, name)]
    assert len(constants) == 10 and min(constants) >= 0.0
    assert (info.c_tilde_star[1], info.c_tilde[1]) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_accepts_regression_kernel(discrete_channel):
    # Building checks the channel, and it stays valid: it holds read-only
    # copies of its kernels.
    k = normalize_rows(KERNEL)
    ch = ic.DiscreteIC(2, 2, 5, 5, k, k)
    k[0, 0] = math.nan
    assert np.array_equal(ch.kernel1, discrete_channel.kernel1)
    for kern in (ch.kernel1, ch.kernel2):
        with pytest.raises(ValueError, match="read-only"):
            kern[0, 0] = math.nan


def test_validate_names_bad_row():
    k = normalize_rows(KERNEL).copy()
    k[2] *= 0.9
    with pytest.raises(ic.ChannelValidationError, match="row 2"):
        ic.DiscreteIC(2, 2, 5, 5, k, normalize_rows(KERNEL))


def test_validate_rejects_out_of_range_idle():
    k = normalize_rows(KERNEL)
    with pytest.raises(ic.ChannelValidationError, match="idle index out of range"):
        ic.DiscreteIC(2, 2, 5, 5, k, k, idle1=3)


def test_validate_rejects_wrong_shape():
    k = normalize_rows(KERNEL)
    with pytest.raises(ic.ChannelValidationError, match="shape"):
        ic.DiscreteIC(2, 2, 5, 5, k[:, :4] / k[:, :4].sum(1, keepdims=True), k)


def test_validate_rejects_negative_entry():
    k = normalize_rows(KERNEL).copy()
    k[0, 0] -= 0.5
    k[0, 1] += 0.5
    with pytest.raises(ic.ChannelValidationError, match="negative"):
        ic.DiscreteIC(2, 2, 5, 5, k, normalize_rows(KERNEL))


@pytest.mark.parametrize("field, value", [
    ("p1", math.nan), ("p2", math.inf), ("c1", "0.5"), ("c2", None), ("c1", True),
])
def test_gaussian_ic_refuses_non_finite_or_non_numeric_values(field, value):
    kwargs = {"p1": 1000.0, "p2": 1000.0, "c1": 0.8, "c2": 1.5, field: value}
    with pytest.raises(ic.ChannelValidationError, match=f"{field} must be a finite number"):
        ic.GaussianIC(**kwargs)


def test_validate_rejects_non_finite_entry_and_non_integer_size():
    # NaN compares false with every bound, so neither the sign nor the
    # row-sum check would see it.
    k = normalize_rows(KERNEL).copy()
    k[1, 3] = math.nan
    with pytest.raises(ic.ChannelValidationError, match="kernel2 row 1 has a non-finite entry"):
        ic.DiscreteIC(2, 2, 5, 5, normalize_rows(KERNEL), k)
    with pytest.raises(ic.ChannelValidationError, match="y1_size must be a positive integer"):
        ic.DiscreteIC(2, 2, 5.0, 5, normalize_rows(KERNEL), normalize_rows(KERNEL))
    k = normalize_rows(KERNEL)
    ic.DiscreteIC(np.int64(2), 2, 5, 5, k, k)


def test_input_distribution_invariants():
    with pytest.raises(ic.ChannelValidationError):
        ic.InputDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ic.ChannelValidationError):
        ic.InputDistribution(np.array([-0.1, 1.1]))


# ---------------------------------------------------------------------------
# Gaussian channels
# ---------------------------------------------------------------------------

def test_gaussian_regression_constants(gaussian_channel):
    info = ic.gaussian_info_quantities(gaussian_channel)
    assert info.c[0] == pytest.approx(0.5845, abs=5e-4)
    assert info.c[1] == pytest.approx(0.3683, abs=5e-4)
    assert info.c_star[0] == pytest.approx(4.9836, abs=5e-4)
    assert info.c_star[1] == pytest.approx(4.9836, abs=5e-4)
    assert info.c_tilde[0] == pytest.approx(0.4237, abs=5e-4)
    assert info.c_tilde[1] == pytest.approx(0.6605, abs=5e-4)
    assert info.c_tilde_star[0] == pytest.approx(4.8228, abs=5e-4)
    assert info.c_tilde_star[1] == pytest.approx(5.2759, abs=5e-4)
    assert info.c_cross == info.c_star


def test_gaussian_no_cross_link():
    info = ic.gaussian_info_quantities(ic.GaussianIC(p1=4.0, p2=9.0, c1=0.0, c2=0.0))
    assert info.c == info.c_star
    assert info.c_tilde == (0.0, 0.0)
    assert info.c_tilde_star == (0.0, 0.0)


def test_gaussian_symmetric_unit_gains():
    info = ic.gaussian_info_quantities(ic.GaussianIC(p1=3.0, p2=3.0, c1=1.0, c2=1.0))
    assert info.c_star == pytest.approx((1.0, 1.0), abs=1e-12)
    assert info.c[0] == pytest.approx(0.5 * math.log2(1.75), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 100.0), st.floats(0.1, 100.0), st.floats(0.0, 3.0))
def test_gaussian_interference_only_hurts(p1, p2, c1):
    info = ic.gaussian_info_quantities(ic.GaussianIC(p1=p1, p2=p2, c1=c1, c2=1.0))
    assert info.c[0] <= info.c_star[0] + 1e-12
    assert info.c_tilde[0] <= info.c_tilde_star[0] + 1e-12


def test_awgn_capacity_is_monotone():
    snrs = np.linspace(0.0, 50.0, 200)
    caps = [ic.channel.awgn_capacity(s) for s in snrs]
    assert all(b >= a for a, b in zip(caps, caps[1:]))
    assert caps[0] == 0.0


# ---------------------------------------------------------------------------
# converse threshold
# ---------------------------------------------------------------------------

def test_lambda_bar_gaussian_closed_form(gaussian_channel):
    value, dists = ic.lambda_bar(gaussian_channel)
    assert value == pytest.approx(0.5 * math.log2(1001.0), abs=1e-12)
    assert dists is None


def test_lambda_bar_discrete_matches_fine_grid_oracle(discrete_channel):
    value, dists = ic.lambda_bar(discrete_channel)

    # Independent oracle: exhaustive 1/256 product grid over both simplexes.
    k = {1: discrete_channel.kernel(1), 2: discrete_channel.kernel(2).transpose(1, 0, 2)}
    grid = np.linspace(0.0, 1.0, 257)

    def cross_mi(k3, p_own, p_int):
        total = 0.0
        for b, w in enumerate(p_int):
            if w == 0:
                continue
            joint = p_own[:, None] * k3[:, b, :]
            py = joint.sum(axis=0)
            mask = joint > 0
            total += w * float(
                np.sum(joint[mask] * np.log2(joint[mask] / (p_own[:, None] * py)[mask]))
            )
        return total

    best = []
    for i in (1, 2):
        vmax = -1.0
        for p in grid:
            for q in grid:
                v = cross_mi(k[i], np.array([1 - p, p]), np.array([1 - q, q]))
                vmax = max(vmax, v)
        best.append(vmax)
    oracle = min(best)
    assert value >= oracle - 1e-6          # polish can only improve on the grid
    assert value == pytest.approx(oracle, abs=1e-3)
    # the returned distributions attain the reported value for the
    # minimizing user (the other receiver's cross rate can be anything)
    attained = max(
        cross_mi(k[1], dists[0].probs, dists[1].probs),
        cross_mi(k[2], dists[1].probs, dists[0].probs),
    )
    assert attained == pytest.approx(value, abs=1e-6)


def _divergences(p, w):
    """D(w[x] || p @ w) in bits for every input symbol x, by explicit loops."""
    q = p @ w
    return [
        sum(w[x, y] * math.log2(w[x, y] / q[y]) for y in range(w.shape[1]) if w[x, y] > 0)
        for x in range(w.shape[0])
    ]


def test_lambda_bar_certifies_capacity_on_three_symbol_inputs():
    rng = np.random.default_rng(5)
    for _ in range(3):
        ch = random_discrete(rng, x1=3, x2=3, y=4)
        value, (pi1, pi2) = ic.lambda_bar(ch)
        k = {1: ch.kernel(1), 2: ch.kernel(2).transpose(1, 0, 2)}
        # the minimizing user's interferer is a point mass on its best symbol
        user = 1 if np.count_nonzero(pi2.probs) == 1 else 2
        own, other = (pi1.probs, pi2.probs) if user == 1 else (pi2.probs, pi1.probs)
        div = _divergences(own, k[user][:, int(np.argmax(other)), :])
        # the input attains the value, and no input symbol's divergence from
        # the output law exceeds it, so the value is the sub-channel capacity
        assert value == pytest.approx(float(own @ div), abs=1e-12)
        assert max(div) <= value + 1e-9
        # no sampled input does better on any of that user's sub-channels
        for p in rng.dirichlet(np.ones(3), size=100):
            for x in range(3):
                assert float(p @ _divergences(p, k[user][:, x, :])) <= value + 1e-12


def test_lambda_bar_fails_loudly_when_capacity_is_not_certified(monkeypatch, discrete_channel):
    monkeypatch.setattr(ic.channel, "_CAPACITY_MAX_ITER", 5)
    with pytest.raises(ic.AnalysisError, match="Blahut-Arimoto") as err:
        ic.lambda_bar(discrete_channel)
    assert not isinstance(err.value, ic.ChannelValidationError)


def _binary_input_capacity(w):
    """Capacity of a two-input channel by golden-section search over P(x=1);
    the mutual information is concave in it."""
    def mi(t):
        p = np.array([1.0 - t, t])
        return float(p @ _divergences(p, w))

    lo, hi = 0.0, 1.0
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        a, b = hi - g * (hi - lo), lo + g * (hi - lo)
        lo, hi = (a, hi) if mi(a) < mi(b) else (lo, b)
    return mi((lo + hi) / 2.0)


def _user1_kernel(*sub_channels):
    """A binary-input IC whose receiver 1 sees sub_channels[x2] (rows x1) and
    whose receiver 2 sees user 2 through a BSC(0.01), whatever user 1 sends."""
    n2 = len(sub_channels)
    k1 = [sub_channels[b][a] for a in range(2) for b in range(n2)]
    k2 = [[0.99, 0.01] if b == 0 else [0.01, 0.99] for a in range(2) for b in range(n2)]
    return ic.DiscreteIC(x1_size=2, x2_size=n2, y1_size=2, y2_size=2,
                         kernel1=k1, kernel2=k2)


_NEARLY_USELESS = [[0.9, 0.1], [0.899, 0.101]]


def test_lambda_bar_drops_nearly_useless_sub_channel_beside_useful_one(monkeypatch):
    # On its own the nearly useless sub-channel takes plain Blahut-Arimoto
    # about 10**6 steps to certify; beside a BSC(0.1) its upper bound falls
    # below the BSC's capacity at the first step, so it is dropped before
    # the first Newton solve at step 128.
    monkeypatch.setattr(ic.channel, "_CAPACITY_MAX_ITER", 64)
    ch = _user1_kernel(_NEARLY_USELESS, [[0.9, 0.1], [0.1, 0.9]])
    value, (pi1, pi2) = ic.lambda_bar(ch)
    assert value == pytest.approx(1.0 + 0.9 * math.log2(0.9) + 0.1 * math.log2(0.1), abs=1e-12)
    assert pi2.probs.tolist() == [0.0, 1.0]
    assert pi1.probs == pytest.approx([0.5, 0.5], abs=1e-9)


def test_lambda_bar_certifies_nearly_useless_channels(monkeypatch):
    # Only the Newton solve can certify these within 2**10 steps.
    monkeypatch.setattr(ic.channel, "_CAPACITY_MAX_ITER", 2**10)
    ch = _user1_kernel(_NEARLY_USELESS, _NEARLY_USELESS)
    value, (pi1, _) = ic.lambda_bar(ch)
    w = np.array(_NEARLY_USELESS)
    assert value == pytest.approx(_binary_input_capacity(w), abs=2e-12)
    assert value == pytest.approx(float(pi1.probs @ _divergences(pi1.probs, w)), abs=1e-15)

    # three inputs, two outputs: the middle row is off the optimal support
    w3 = np.array([[0.9, 0.1], [0.8995, 0.1005], [0.899, 0.101]])
    value, p = ic.channel._capacity(w3)
    assert p[1] == 0.0
    assert value == pytest.approx(_binary_input_capacity(w3[[0, 2]]), abs=2e-12)


def test_import_loads_no_scipy():
    src = str(Path(ic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import ic_outage, ic_outage.cli, sys; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_lambda_thresholds_recomputed_from_constants(gaussian_channel):
    info = ic.gaussian_info_quantities(gaussian_channel)
    l_tin, l_di = ic.lambda_thresholds(info)
    assert l_tin == pytest.approx(min(info.c), abs=0)
    assert l_di == pytest.approx(0.4237, abs=5e-4)
    zero = ic.InfoQuantities((0,) * 2, (0,) * 2, (0,) * 2, (0,) * 2, (0,) * 2)
    assert ic.lambda_thresholds(zero) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_load_gaussian_dbw_and_linear(tmp_path):
    cfg = {"type": "gaussian", "p1_dbw": 30.0, "p2": 1000.0, "c1": 0.8, "c2": 1.5}
    ch = ic.load_channel(cfg)
    assert ch.p1 == pytest.approx(1000.0)
    assert ch.p2 == 1000.0
    path = tmp_path / "g.json"
    path.write_text(json.dumps(cfg))
    assert ic.load_channel(str(path)) == ch


def test_load_gaussian_rejects_both_power_forms():
    cfg = {"type": "gaussian", "p1_dbw": 30.0, "p1": 1000.0, "p2": 1.0, "c1": 0, "c2": 0}
    with pytest.raises(ic.ChannelValidationError, match="not both"):
        ic.load_channel(cfg)


def test_load_discrete_roundtrip(discrete_channel):
    cfg = {
        "type": "discrete",
        "x1": 2, "x2": 2, "y1": 5, "y2": 5,
        "kernel1": discrete_channel.kernel1.tolist(),
        "kernel2": discrete_channel.kernel2.tolist(),
        "idle1": 0, "idle2": 0,
    }
    ch = ic.load_channel(cfg)
    assert np.allclose(ch.kernel1, discrete_channel.kernel1)


def test_load_unknown_type_fails():
    with pytest.raises(ic.ChannelValidationError, match="unknown channel type"):
        ic.load_channel({"type": "quantum"})
