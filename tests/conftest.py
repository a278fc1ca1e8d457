import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from ic_outage import DiscreteIC, GaussianIC, InfoQuantities, InputDistribution
from ic_outage.analysis import (
    TIN,
    AnalysisError,
    EpsilonResult,
    _feasible_window,
    kappa,
    rho,
    user_outage_inputs,
)
from ic_outage.simulator import decode_success, overlap_fractions

# 2x2-input, 5-output transition matrix used as the discrete regression channel.
# Rows are the input pairs (0,0), (0,1), (1,0), (1,1).
KERNEL = np.array(
    [
        [0.3266, 0.1314, 0.1674, 0.3588, 0.0158],
        [0.3148, 0.0612, 0.2158, 0.1898, 0.2184],
        [0.1905, 0.3272, 0.4279, 0.0102, 0.0442],
        [0.4091, 0.2734, 0.0970, 0.1693, 0.0512],
    ]
)


# ---------------------------------------------------------------------------
# oracle: every constant from the joint pmf, loops and math.log2 only
# ---------------------------------------------------------------------------

def _joint(pi1, pi2, k3):
    x1, x2, y = k3.shape
    p = np.zeros((x1, x2, y))
    for a in range(x1):
        for b in range(x2):
            for c in range(y):
                p[a, b, c] = pi1[a] * pi2[b] * k3[a, b, c]
    return p


def _mi_from_joint(pxy):
    """I(X;Y) from a joint pmf, 0 log 0 = 0."""
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    total = 0.0
    for a in range(pxy.shape[0]):
        for c in range(pxy.shape[1]):
            if pxy[a, c] > 0:
                total += pxy[a, c] * math.log2(pxy[a, c] / (px[a] * py[c]))
    return total


def oracle_quantities(channel, pi1, pi2):
    """The ten constants straight from their definitions."""
    out = {}
    for receiver in (1, 2):
        k3 = channel.kernel(receiver)
        if receiver == 1:
            own, other = pi1, pi2
            idle_own, idle_other = channel.idle1, channel.idle2
        else:
            k3 = k3.transpose(1, 0, 2)
            own, other = pi2, pi1
            idle_own, idle_other = channel.idle2, channel.idle1
        p = _joint(own, other, k3)
        # C*: own-signal MI with the interferer clamped to its idle symbol
        c_star = _mi_from_joint(_joint(own, np.eye(len(other))[idle_other], k3).sum(axis=1))
        # C: own-signal MI with the interferer averaged out
        c = _mi_from_joint(p.sum(axis=1))
        # C_cross: conditional MI I(own; y | interferer)
        c_cross = 0.0
        for b in range(len(other)):
            if other[b] > 0:
                c_cross += other[b] * _mi_from_joint(p[:, b, :] / other[b])
        # C~*: interferer-signal MI with own input clamped to idle
        ct_star = _mi_from_joint(
            _joint(np.eye(len(own))[idle_own], other, k3).sum(axis=0)
        )
        # C~: interferer-signal MI with own input averaged out
        ct = _mi_from_joint(p.sum(axis=0))
        out[receiver] = (c_star, c, c_cross, ct_star, ct)
    return InfoQuantities(
        c_star=(out[1][0], out[2][0]),
        c=(out[1][1], out[2][1]),
        c_cross=(out[1][2], out[2][2]),
        c_tilde_star=(out[1][3], out[2][3]),
        c_tilde=(out[1][4], out[2][4]),
    )


def normalize_rows(k: np.ndarray) -> np.ndarray:
    return k / k.sum(axis=1, keepdims=True)


@pytest.fixture
def discrete_channel() -> DiscreteIC:
    k = normalize_rows(KERNEL)
    return DiscreteIC(
        x1_size=2, x2_size=2, y1_size=5, y2_size=5, kernel1=k, kernel2=k
    )


@pytest.fixture
def gaussian_channel() -> GaussianIC:
    # 30 dBW transmit powers, cross gains 0.8 and 1.5.
    return GaussianIC(p1=1000.0, p2=1000.0, c1=0.8, c2=1.5)


def random_discrete(rng: np.random.Generator, x1=2, x2=2, y=3) -> DiscreteIC:
    k1 = normalize_rows(rng.random((x1 * x2, y)) + 1e-3)
    k2 = normalize_rows(rng.random((x1 * x2, y)) + 1e-3)
    return DiscreteIC(
        x1_size=x1, x2_size=x2, y1_size=y, y2_size=y,
        kernel1=k1, kernel2=k2,
        idle1=int(rng.integers(x1)), idle2=int(rng.integers(x2)),
    )


def reference_point(rho1: float = 0.016, rho2: float = 0.0501) -> InfoQuantities:
    """Synthetic constants hitting exact rho targets at lambda=0.1, r=1.1.

    With C_i* = 1 and C_i = (0.11 - rho_i)/(1 - rho_i), the TIN exposure
    fraction (0.11 - C_i)/(1 - C_i) equals rho_i exactly.
    """
    c = tuple((0.11 - t) / (1.0 - t) for t in (rho1, rho2))
    return InfoQuantities(
        c_star=(1.0, 1.0),
        c=c,
        c_cross=(1.0, 1.0),
        c_tilde_star=(0.5, 0.5),
        c_tilde=(0.02, 0.02),
    )


def dist(rng: np.random.Generator, size: int) -> InputDistribution:
    p = rng.random(size) + 1e-3
    return InputDistribution(p / p.sum())


# ---------------------------------------------------------------------------
# oracle: the hand-written Gaussian case ladder
# ---------------------------------------------------------------------------

def _gaussian_ladder(
    a: tuple[float, float],
    b: tuple[float, float],
    lam: float,
    d_max: float,
    caps: tuple[float, float] | None,
) -> EpsilonResult:
    """Shared case ladder for the Gaussian closed forms.

    ``a``/``b`` are the per-user (C*, C) or (C~*, C~) pairs; ``caps`` carries
    the additive-case r < C_i*/lam bounds for the DI variant.
    """
    def lower(j):   # b_j <= lam < a_j / 2
        return b[j] <= lam < a[j] / 2.0

    def free(j):    # lam below both break points
        return lam < min(b[j], a[j] / 2.0)

    def upper(j):   # a_j / 2 <= lam < b_j
        return a[j] / 2.0 <= lam < b[j]

    def ratio(j):
        return (a[j] - 2.0 * b[j]) / (a[j] - b[j] - lam)

    def cap_value():
        return math.inf if caps is None else min(caps)

    k = kappa(lam * d_max)

    def result(j, label):
        return EpsilonResult(
            kind="value",
            value=k * (lam - b[j]) / (a[j] - 2.0 * b[j]),
            r0=ratio(j),
            kappa=k,
            user=j + 1,
            case_label=label,
        )

    for j in (0, 1):
        other = 1 - j
        if lower(j) and free(other):
            if ratio(j) < cap_value():
                return result(j, f"case1-user{j+1}")
            return EpsilonResult(kind="not-applicable", case_label="cap-exceeded")
        if lower(j) and upper(other):
            if ratio(j) < min(ratio(other), cap_value()):
                return result(j, f"case2-user{j+1}")
            return EpsilonResult(kind="not-applicable", case_label="empty-intersection")
    if lower(0) and lower(1):
        j = 0 if ratio(0) >= ratio(1) else 1
        if ratio(j) <= cap_value():
            return result(j, f"case3-user{j+1}")
        return EpsilonResult(kind="not-applicable", case_label="cap-exceeded")
    return EpsilonResult(kind="not-applicable", case_label="outside-ladder")


def ladder_oracle(info: InfoQuantities, lam: float, d_max: float, mode: str) -> EpsilonResult:
    """The ladder on (C*, C) for TIN, or on (C~*, C~) with the additive
    r < C_i*/lam caps for DI."""
    if mode == TIN:
        return _gaussian_ladder(info.c_star, info.c, lam, d_max, caps=None)
    caps = (info.c_star[0] / lam, info.c_star[1] / lam)
    return _gaussian_ladder(info.c_tilde_star, info.c_tilde, lam, d_max, caps=caps)


# ---------------------------------------------------------------------------
# oracle: r0 by bisection on the raw feasibility predicate
# ---------------------------------------------------------------------------

def r0_bisection_residual(
    info: InfoQuantities, lam: float, mode: tuple[str, str]
) -> float | None:
    """|r0 - bisected r0|, or None where the bisection does not apply (r0 at
    the r > 1 edge, or no feasible point just above r0)."""
    m1, m2 = mode
    analytic, window_hi = _feasible_window(info, lam, mode)

    def predicate(r: float) -> bool:
        for user, m in ((1, m1), (2, m2)):
            value, cap = rho(info, user, r, lam, m)
            if value >= min(1.0, r - 1.0):
                return False
            if cap is not None and r >= cap:
                return False
        return True

    hi = window_hi if window_hi != math.inf else analytic + 10.0
    probe = min(analytic + 1e-6, (analytic + hi) / 2.0) if hi > analytic else analytic
    if analytic > 1.0 and predicate(probe):
        lo_b, hi_b = 1.0, probe
        while hi_b - lo_b > 1e-12:
            mid = (lo_b + hi_b) / 2.0
            if predicate(mid):
                hi_b = mid
            else:
                lo_b = mid
        return abs(hi_b - analytic)
    return None


# ---------------------------------------------------------------------------
# oracle: the limiting codeword schedule
# ---------------------------------------------------------------------------

def tau_bar(j: int, r: float) -> float:
    """Limiting codeword start time (in codeword lengths): j*r for bursty
    rates r > 1, r + j - 1 in the gapless regime."""
    if j < 1 or r <= 0:
        raise AnalysisError("need j >= 1 and r > 0")
    return j * r if r > 1.0 else r + j - 1.0


# ---------------------------------------------------------------------------
# oracle: the asynchrony CDF
# ---------------------------------------------------------------------------

def delta_cdf(delta, d_max):
    """CDF of the asynchrony |d1 - d2| for d_i ~ U[0, D]; delta and d_max
    broadcast, and a 0-d result is a Python float."""
    # delta is clipped to [0, D] before the division, which then cannot overflow
    u = np.minimum(np.maximum(delta, 0.0), d_max) / np.asarray(d_max)
    cdf = u * (2.0 - u)
    return cdf.item() if cdf.ndim == 0 else cdf


# ---------------------------------------------------------------------------
# oracle: the finite-N outage bound as a sum over the admissible intervals
# ---------------------------------------------------------------------------

class Interval(NamedTuple):
    """Open interval (lo, hi) on the real line, empty where lo >= hi."""

    lo: float
    hi: float

    @property
    def is_empty(self) -> bool:
        return self.lo >= self.hi


def admissible_intervals(r: float, rho_i: float, n_packets: int) -> list[Interval]:
    """Per-packet ranges of normalized asynchrony that keep every codeword clean.

    The first n_packets - 1 intervals are bounded; the last extends to
    infinity.  Bounded entries invert to the empty interval when
    2*rho_i >= r.
    """
    if r <= 1:
        raise AnalysisError("admissible intervals are defined for r > 1")
    out = []
    for j in range(1, n_packets):
        lo = (j - 1) * r + rho_i
        hi = j * r - rho_i
        out.append(Interval(lo, hi) if lo < hi else Interval(0.0, 0.0))
    out.append(Interval((n_packets - 1) * r + rho_i, math.inf))
    return out


def outage_ub_numeric_oracle(
    r: float,
    rho_i: float,
    n_packets: int,
    lam: float,
    d_max: float,
    chi1: bool,
    chi2: bool,
) -> float:
    """Interval-sum evaluation of the outage_ub_finite_n bound, used to
    cross-check the closed form: one CDF difference per admissible interval,
    all evaluated in one array call."""
    theta = 1.0 / (n_packets * r * lam)
    intervals = admissible_intervals(r, rho_i, n_packets)
    bounded = [(iv.lo, iv.hi) for iv in intervals[:-1] if not iv.is_empty]
    lo, hi = np.array(bounded).reshape(-1, 2).T
    mass_union = float(np.sum(delta_cdf(theta * hi, d_max) - delta_cdf(theta * lo, d_max)))
    tail = 1.0 - delta_cdf(theta * intervals[-1].lo, d_max)
    p = 1.0
    if chi1:
        p -= mass_union
    if chi2:
        p -= tail
    return p


# ---------------------------------------------------------------------------
# oracle: the gapless outage as N -> inf and r -> 1-
# ---------------------------------------------------------------------------

def gapless_limit_oracle(info: InfoQuantities, user: int, lam, d_max, mode: str):
    """User ``user``'s gapless (r < 1) outage in the limit N -> inf, r -> 1-.

    0 at rho_i(1) <= 0, delta_cdf(1/lam, D) = kappa/2 at rho_i(1) <= 1, and
    1 beyond that or when lam exceeds an additive DI cap C*.  lam and d_max
    broadcast.
    """
    at_one, cap = rho(info, user, 1.0, lam, mode)
    at_one = np.asarray(at_one)
    capped = False if cap is None else np.asarray(cap) < 1.0
    limit = np.where(capped | (at_one > 1.0), 1.0,
                     np.where(at_one <= 0.0, 0.0, delta_cdf(1.0 / lam, d_max)))
    return limit.item() if limit.ndim == 0 else limit


# ---------------------------------------------------------------------------
# oracle: the three-branch closed forms in exact rationals
# ---------------------------------------------------------------------------

def outage_ub_exact_oracle(alpha: float, beta: float, n_packets: int, chi1: bool,
                           chi2: bool) -> float:
    """outage_ub_finite_n as the paper writes it, with its full, inner and
    straddle branches and chi indicator multipliers, evaluated in
    fractions.Fraction and rounded once: the forms' value at the given
    floats, free of rounding error."""
    a, b, n = Fraction(alpha), Fraction(beta), Fraction(n_packets)
    na = n * a
    m = math.ceil(na - b)
    x1, x2 = int(bool(chi1)), int(bool(chi2))

    def g(t):
        return t * (2 - t)
    if m >= n:                      # full: every codeword fits in the window
        p = 1 - (1 - 2 * b) * g((n - 1) / na) * x1 - (1 - (n - 1 + b) / na) ** 2 * x2
    elif m == 0 or m <= na + b:     # inner
        p = 1 - (1 - 2 * b) * g(m / na) * x1
    else:                           # straddle: the m-th codeword crosses the window edge
        p = 1 - ((1 - 2 * b) * g((m - 1) / na) + (1 - (m - 1 + b) / na) ** 2) * x1
    return float(p)


def outage_ub_limit_exact_oracle(alpha: float, beta: float, chi1: bool, chi2: bool) -> float:
    """outage_ub_limit as the N -> inf limit of the three-branch forms, in
    fractions.Fraction and rounded once."""
    a, b = Fraction(alpha), Fraction(beta)
    x1, x2 = int(bool(chi1)), int(bool(chi2))
    if a < 1:
        return float(1 - (1 - 2 * b) * x1)
    return float(1 - (1 / a) * (2 - 1 / a) * (1 - 2 * b) * x1 - (1 - 1 / a) ** 2 * x2)


# ---------------------------------------------------------------------------
# oracle: the gapless (r < 1) closed form through delta_cdf
# ---------------------------------------------------------------------------

def gapless_outage_oracle(info: InfoQuantities, user: int, lam, r, n_packets, d_max,
                          mode: str):
    """(finite-N, N -> inf) outage of a user at r < 1 and rho_i >= 0 as two
    delta_cdf calls: delta_cdf((N - 1 + rho_i)/(N r lam), D) and
    delta_cdf(1/(r lam), D) where chi2 holds, 1 where it fails."""
    value, _, _, chi2 = user_outage_inputs(info, user, r, lam, mode)
    finite_n = delta_cdf((n_packets - 1 + value) / (n_packets * r * lam), d_max)
    return ((finite_n, delta_cdf(1.0 / (r * lam), d_max)) if chi2 else (1.0, 1.0))


# ---------------------------------------------------------------------------
# oracle: the N = 1 and N = 2 special cases of the finite-N bound
# ---------------------------------------------------------------------------

def outage_ub_one_packet(alpha: float, beta: float) -> float:
    """N=1 bound when both chi indicators hold."""
    if beta >= alpha:
        return 1.0
    u = beta / alpha
    return u * (2.0 - u)


def outage_ub_two_packets(alpha: float, beta: float) -> float:
    """N=2 bound when both chi indicators hold."""
    ta = 2.0 * alpha
    if beta >= ta:
        return 1.0
    if ta <= 1.0 - beta:
        return 1.0 - (1.0 - beta / ta) ** 2
    base = 1.0 - (1.0 - 2.0 * beta) * (2.0 - 1.0 / ta) / ta
    if ta <= 1.0 + beta:
        return base
    return base - (1.0 - (1.0 + beta) / ta) ** 2


# ---------------------------------------------------------------------------
# oracle: every codeword's overlap with every codeword of the other user
# ---------------------------------------------------------------------------

def overlap_fractions_dense_oracle(starts1, starts2) -> tuple[np.ndarray, np.ndarray]:
    """The (..., N, N) overlap tensor summed along each axis: the reference the
    two-partner search in ``simulator.overlap_fractions`` must equal bit for bit."""
    a = np.asarray(starts1, dtype=float)
    b = np.asarray(starts2, dtype=float)
    ov = np.clip(1.0 - np.abs(a[..., :, None] - b[..., None, :]), 0.0, None)
    return ov.sum(axis=-1), ov.sum(axis=-2)


# ---------------------------------------------------------------------------
# oracle: the activation offsets of a whole run in one draw
# ---------------------------------------------------------------------------

def _offset_draws(seed: int, trials: int, d_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Activation offsets (d1, d2) of every trial of a run, drawn at once from
    the seed's Philox stream: the reference ``run_trials``' per-chunk draws
    must equal bit for bit."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    d = gen.random((trials, 2)) * d_max
    return d[:, 0], d[:, 1]


# ---------------------------------------------------------------------------
# oracle: the exact fluid outage, by quadrature over the offset difference
# ---------------------------------------------------------------------------

def fluid_outage_exact_oracle(info: InfoQuantities, user: int, lam: float, r: float,
                              n_packets: int, d_max: float, mode: str) -> float:
    """User ``user``'s fluid-mode outage probability, exactly and with no trials;
    the arguments are those of ``closed_form_outage``.

    A fluid trial depends on the offsets only through x = (d1 - d2)/theta,
    triangular on (-D/theta, D/theta).  Each interfered fraction mu_j(x) is
    piecewise linear with breakpoints tau_k - tau_j + {-1, 0, 1}, so each
    threshold margin (1 - mu) full + mu mixed - R_c is linear between them.
    Cutting at the breakpoints and at every margin's zero crossing leaves
    pieces on which no codeword's verdict changes; the simulator's own
    ``overlap_fractions`` and ``decode_success`` judge each piece at its
    midpoint, and the failing pieces' triangular mass is the outage.
    """
    n, r_code = n_packets, r * lam
    theta = 1.0 / (n * r_code)
    half = d_max / theta
    taus = np.array([tau_bar(j, r) for j in range(1, n + 1)])

    def mu(x):   # user's interfered fractions with user 1 shifted by x, shape (len(x), N)
        return overlap_fractions(x[:, None] + taus, np.broadcast_to(taus, (len(x), n)))[user - 1]

    gaps = (taus[None, :] - taus[:, None]).ravel()
    cuts = np.unique(np.clip(np.concatenate([gaps - 1.0, gaps, gaps + 1.0, [-half, half]]),
                             -half, half))
    at_cuts = mu(cuts)
    # A codeword decodes when R_c < (1 - mu) full + mu mixed for each pair.
    j = user - 1
    pairs = ([(info.c_star[j], info.c[j])] if mode == TIN else
             [(info.c_tilde_star[j], info.c_tilde[j]), (info.c_star[j], info.c_cross[j])])
    crossings = []
    for full, mixed in pairs:
        g = (1.0 - at_cuts) * full + at_cuts * mixed - r_code
        flips = (g[:-1] > 0) != (g[1:] > 0)
        piece, _ = np.nonzero(flips)
        ga, gb = g[:-1][flips], g[1:][flips]   # one > 0 >= the other, so ga != gb
        lo, hi = cuts[piece], cuts[piece + 1]
        crossings.append(lo + (hi - lo) * ga / (ga - gb))
    cuts = np.unique(np.concatenate([cuts, *crossings]))
    mid = (cuts[:-1] + cuts[1:]) / 2.0
    fails = ~decode_success(mu(mid), info, user, r_code, mode).all(axis=1)

    def cdf(x):   # law of x: triangular on (-half, half)
        return np.where(x <= 0.0, (half + x) ** 2, 2.0 * half**2 - (half - x) ** 2) / (2.0 * half**2)

    return float(np.sum((cdf(cuts[1:]) - cdf(cuts[:-1]))[fails]))
