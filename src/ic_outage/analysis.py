"""Closed-form outage analysis for the block transmission scheme.

Everything here is a pure function of the information constants and the
scheme parameters (arrival rate, normalized code rate, packet count,
asynchrony window, decoder mode).  The closed forms take numpy arrays and
broadcast them; a call with scalars returns Python scalars.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .channel import AnalysisError, InfoQuantities

__all__ = [
    "TIN",
    "DI",
    "SchemeParams",
    "OutageInputs",
    "Interval",
    "AnalysisError",
    "rho",
    "kappa",
    "delta_cdf",
    "admissible_intervals",
    "rate_feasibility_interval",
    "outage_ub_finite_n",
    "outage_ub_limit",
    "user_outage_inputs",
    "outage_inputs",
    "epsilon_bound",
    "gaussian_case_label",
    "outage_ub_subunit_rate",
    "closed_form_outage",
    "avg_rate",
]

TIN = "tin"
DI = "di"

# Numerical equality threshold for the additive-channel special case C* == C_cross.
_ADDITIVE_TOL = 1e-9

NO_FEASIBLE_RATE = "no r > 1 satisfies both users' constraints"


def _out(x):
    """A 0-d result as a Python scalar, so scalar calls stay JSON-serialisable;
    arrays pass through."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


@dataclass(frozen=True)
class SchemeParams:
    lam: float            # arrival rate, bits/slot
    r: float              # normalized code rate R_c / lam
    n_packets: int
    d_max: float          # asynchrony window D
    decoder: tuple[str, str] = (TIN, TIN)

    def __post_init__(self):
        if not 0.0 < self.lam <= 1.0:
            raise AnalysisError("arrival rate must be in (0, 1]")
        if self.r <= 0:
            raise AnalysisError("normalized code rate must be positive")
        if self.n_packets < 1:
            raise AnalysisError("need at least one packet")
        if self.d_max <= 0:
            raise AnalysisError("asynchrony window must be positive")
        dec = self.decoder
        if isinstance(dec, str):
            dec = (dec, dec)
            object.__setattr__(self, "decoder", dec)
        if any(m not in (TIN, DI) for m in dec):
            raise AnalysisError(f"unknown decoder mode in {dec}")

    @property
    def code_rate(self) -> float:
        return self.r * self.lam

    @property
    def alpha(self) -> float:
        return self.lam * self.d_max


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi) on the real line; hi = inf means (lo, inf).
    lo and hi may be arrays, one interval per element."""

    lo: float
    hi: float = math.inf

    @property
    def is_empty(self):
        return self.lo >= self.hi


class RhoValue(NamedTuple):
    value: float
    r_cap: float | None   # extra feasibility cap r < r_cap (additive DI case)


def _ratios(info: InfoQuantities, user: int, mode: str):
    """User i's decoding constraints as (name, a, b): rho_i(r) is the largest
    (lam*r - b)/(a - b) over them, named by their denominators a - b.

    TIN has (C*, C); DI has (C~*, C~) and (C*, C_cross).  On an additive
    channel (C_i* == C_{i,i'}) the second DI ratio degenerates and the hard
    cap r < C_i*/lam replaces it: the second value returned is C_i* then,
    and None otherwise.
    """
    c_star, c, c_cross, ct_star, ct = info.for_user(user)
    if mode == TIN:
        return [("C*-C", c_star, c)], None
    if mode != DI:
        raise AnalysisError(f"unknown decoder mode {mode!r}")
    if abs(c_star - c_cross) < _ADDITIVE_TOL:
        return [("C~*-C~", ct_star, ct)], c_star
    return [("C~*-C~", ct_star, ct), ("C*-C_cross", c_star, c_cross)], None


def rho(info: InfoQuantities, user: int, r: float, lam: float, mode: str) -> RhoValue:
    """Interference-exposure fraction rho_i(r), the largest of the user's
    decoding ratios, plus the additive DI rate cap C_i*/lam (else None)."""
    if np.min(r) <= 0:
        raise AnalysisError("r must be positive")
    pairs, cap = _ratios(info, user, mode)
    values = []
    for name, a, b in pairs:
        denom = a - b
        if denom <= 0:
            raise AnalysisError(f"user {user}: nonpositive denominator {name} = {denom:.3e}")
        values.append((lam * r - b) / denom)
    return RhoValue(_out(functools.reduce(np.maximum, values)),
                    None if cap is None else _out(cap / lam))


def kappa(alpha):
    """Asynchrony-window factor: 2 for alpha < 1, else (2/alpha)(2 - 1/alpha)."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.min() <= 0:
        raise AnalysisError("alpha must be positive")
    return _out(np.where(alpha < 1.0, 2.0, (2.0 / alpha) * (2.0 - 1.0 / alpha)))


def delta_cdf(delta, d_max):
    """CDF of the asynchrony |d1 - d2| for d_i ~ U[0, D]."""
    if np.min(d_max) <= 0:
        raise AnalysisError("d_max must be positive")
    u = np.minimum(np.maximum(delta / np.asarray(d_max), 0.0), 1.0)   # 0 below, 1 beyond D
    return _out(u * (2.0 - u))


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
    out.append(Interval((n_packets - 1) * r + rho_i))
    return out


def _feasibility_case(a, b, lam):
    """Branch of rate_feasibility_interval: 1 when lam < min(b, a/2), 2 when
    a/2 <= lam < b, 3 when b <= lam < a/2, 0 (no solution) otherwise."""
    below_half = lam < a / 2.0
    return np.where(lam < b, np.where(below_half, 1, 2), np.where(below_half, 3, 0))


def rate_feasibility_interval(a: float, b: float, lam) -> Interval:
    """Solution in r > 1 of (lam*r - b)/(a - b) < min(1, r - 1) for a > b > 0."""
    if not a > b > 0:
        raise AnalysisError(f"need a > b > 0, got a={a}, b={b}")
    lam = np.asarray(lam, dtype=float)
    case = _feasibility_case(a, b, lam)
    with np.errstate(divide="ignore", invalid="ignore"):    # in branches not taken
        ratio = (a - 2.0 * b) / (a - b - lam)
        cap = a / lam
    return Interval(_out(np.where(case == 3, ratio, np.where(case > 0, 1.0, 0.0))),
                    _out(np.where(case == 2, ratio, np.where(case > 0, cap, 0.0))))


def _modes(mode) -> tuple[str, str]:
    return (mode, mode) if isinstance(mode, str) else tuple(mode)


def _feasible_window(info: InfoQuantities, lam, modes: tuple[str, str]) -> Interval:
    """The r > 1 where rho_i(r) < min(1, r - 1) for both users and r is below
    any additive DI cap: rate_feasibility_interval of every ratio of both
    users, intersected.  The window is empty where lo >= hi."""
    windows = []
    for user, mode in zip((1, 2), modes):
        pairs, cap = _ratios(info, user, mode)
        windows += [rate_feasibility_interval(a, b, lam) for _, a, b in pairs]
        if cap is not None:
            windows.append(Interval(1.0, cap / lam))
    return Interval(functools.reduce(np.maximum, [w.lo for w in windows]),
                    functools.reduce(np.minimum, [w.hi for w in windows]))


class BoundValue(NamedTuple):
    value: float
    clamped: bool


def _clamp(p) -> BoundValue:
    p = np.asarray(p, dtype=float)
    inside = (-1e-12 <= p) & (p <= 1.0 + 1e-12)
    return BoundValue(_out(np.where(inside, np.minimum(np.maximum(p, 0.0), 1.0), p)),
                      _out(~inside))


def outage_ub_finite_n(alpha, beta, n_packets, chi1, chi2) -> BoundValue:
    """Finite-N closed form for the outage upper bound of one user.

    ``beta`` is rho_i(r)/r; ``alpha`` is lam*D.  ``beta == 0`` is accepted
    (the formulas are continuous there); negative beta is the caller's
    zero-outage path and is rejected.
    """
    alpha, beta, n = np.asarray(alpha, dtype=float), np.asarray(beta), np.asarray(n_packets)
    if alpha.min() <= 0:
        raise AnalysisError("alpha must be positive")
    if beta.min() < 0:
        raise AnalysisError("rho_i <= 0 means zero outage; closed form not applicable")
    if n.min() < 1:
        raise AnalysisError("need at least one packet")
    na = n * alpha
    m = np.ceil(na - beta)
    x1 = np.where(chi1, 1.0, 0.0)
    x2 = np.where(chi2, 1.0, 0.0)
    tail = 1.0 - (n - 1 + beta) / na
    edge = 1.0 - (m - 1 + beta) / na
    full = (
        1.0
        - (1.0 - 2.0 * beta) * (2.0 - (n - 1) / na) * ((n - 1) / na) * x1
        - tail * tail * x2
    )
    inner = 1.0 - (1.0 - 2.0 * beta) * (2.0 - m / na) * (m / na) * x1
    # The interval straddling the window edge contributes (1 - u_m)^2 to
    # the success mass, so it is subtracted along with the telescoped sum;
    # continuity at m = N*alpha + beta pins the sign.
    straddle = (
        1.0
        - ((1.0 - 2.0 * beta) * (2.0 - (m - 1) / na) * ((m - 1) / na) + edge * edge) * x1
    )
    return _clamp(np.where(m >= n, full, np.where((m == 0) | (m <= na + beta), inner, straddle)))


def outage_ub_limit(alpha, beta, chi1, chi2):
    """N -> infinity limit of the finite-N bound; equals kappa*beta when chi1 holds."""
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta)
    if alpha.min() <= 0:
        raise AnalysisError("alpha must be positive")
    if beta.min() < 0:
        raise AnalysisError("negative beta has no outage limit; use the zero path")
    x1 = np.where(chi1, 1.0, 0.0)
    x2 = np.where(chi2, 1.0, 0.0)
    tail = 1.0 - 1.0 / alpha
    return _out(np.where(
        alpha < 1.0,
        1.0 - (1.0 - 2.0 * beta) * x1,
        1.0 - (1.0 / alpha) * (2.0 - 1.0 / alpha) * (1.0 - 2.0 * beta) * x1 - tail * tail * x2,
    ))


@dataclass(frozen=True)
class OutageInputs:
    """Derived scalars feeding the finite-N bound and the epsilon bound."""

    alpha: float
    rho: tuple[float, float]
    beta: tuple[float, float]
    kappa: float
    chi1: tuple[bool, bool]
    chi2: tuple[bool, bool]

    def __post_init__(self):
        if self.alpha <= 0:
            raise AnalysisError("alpha must be positive")
        for j in range(2):
            if self.chi1[j] and not self.chi2[j]:
                raise AnalysisError("chi1 implies chi2")
            if self.chi1[j] and not (self.beta[j] < 0.5):
                raise AnalysisError(
                    f"user {j+1}: chi1 requires beta < 1/2, got {self.beta[j]}"
                )


class UserOutageInputs(NamedTuple):
    rho: float
    beta: float
    chi1: bool
    chi2: bool


def user_outage_inputs(info: InfoQuantities, user: int, r, lam, mode: str) -> UserOutageInputs:
    """rho_i(r), beta_i = rho_i/r and the chi indicators of one user.

    chi1 is rho_i < min(1, r - 1) and chi2 is rho_i < 1; both also need r
    below the additive DI cap.  Unlike SchemeParams, lam is not limited to
    (0, 1], so parameter sweeps can use it too.
    """
    value, cap = rho(info, user, r, lam, mode)
    cap_ok = True if cap is None else np.asarray(r) < cap
    return UserOutageInputs(
        rho=value,
        beta=_out(value / np.asarray(r)),
        chi1=_out((value < np.minimum(1.0, r - 1.0)) & cap_ok),
        chi2=_out((np.asarray(value) < 1.0) & cap_ok),
    )


def outage_inputs(info: InfoQuantities, scheme: SchemeParams) -> OutageInputs:
    """Evaluate rho, beta, kappa and the chi indicators for a parameter point."""
    users = [
        user_outage_inputs(info, user, scheme.r, scheme.lam, scheme.decoder[user - 1])
        for user in (1, 2)
    ]
    return OutageInputs(
        alpha=scheme.alpha,
        rho=tuple(u.rho for u in users),
        beta=tuple(u.beta for u in users),
        kappa=kappa(scheme.alpha),
        chi1=tuple(u.chi1 for u in users),
        chi2=tuple(u.chi2 for u in users),
    )


@dataclass(frozen=True)
class EpsilonResult:
    """One bound, or arrays of them: then value, r0 and kappa are nan and
    user is 0 where kind is not "value"."""

    kind: str             # "zero", "value" or "not-applicable"
    value: float | None = None
    r0: float | None = None    # lower end of the r > 1 feasible for both users
    kappa: float | None = None
    user: int | None = None    # index attaining the max in the bound
    case_label: str = ""       # set by gaussian_case_label

    @property
    def epsilon(self):
        kind = np.asarray(self.kind)
        if np.any(kind == "not-applicable"):
            raise AnalysisError(NO_FEASIBLE_RATE)
        return _out(np.where(kind == "zero", 0.0, np.asarray(self.value, dtype=float)))


def epsilon_bound(info: InfoQuantities, lam, d_max, mode) -> EpsilonResult:
    """Outage-level bound: zero below the decoder threshold, else
    kappa * max_i beta_i(r0).  lam and d_max broadcast."""
    m1, m2 = _modes(mode)
    thresholds = []
    for user, m in ((1, m1), (2, m2)):
        c_star, c, c_cross, ct_star, ct = info.for_user(user)
        thresholds.append(c if m == TIN else min(c_cross, ct))
    lam, d_max = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(d_max, dtype=float))
    zero = lam <= min(thresholds)
    kind = np.where(zero, "zero", "not-applicable")
    r_inf = k = eps = np.full(lam.shape, np.nan)
    user = np.zeros(lam.shape, dtype=int)
    if not zero.all():      # a grid all below the threshold never reads the window
        window = _feasible_window(info, lam, (m1, m2))
        valued = ~zero & ~window.is_empty
        kind = np.where(valued, "value", kind)
        r_inf = np.where(valued, window.lo, np.nan)
        k = np.where(valued, kappa(np.where(valued, lam * d_max, 1.0)), np.nan)
        betas = [rho(info, u, r_inf, lam, m).value / r_inf for u, m in ((1, m1), (2, m2))]
        eps = k * np.maximum(*betas)
        user = np.where(valued, 1 + (betas[1] > betas[0]), 0)
    if lam.ndim:
        return EpsilonResult(kind, eps, r_inf, k, user)
    if kind != "value":
        return EpsilonResult(kind=str(kind))
    return EpsilonResult("value", float(eps), float(r_inf), float(k), int(user))


_CASE_LABELS = np.array([[f"case{k}-user{j}" for j in (1, 2)] for k in range(4)])


def gaussian_case_label(res: EpsilonResult, info: InfoQuantities, lam, mode: str) -> EpsilonResult:
    """Attach the Gaussian case label to a result of epsilon_bound.

    A value is labelled case{k}-user{j}: j is the binding user and k the
    branch of rate_feasibility_interval that the other user is on, over the
    pairs (C*, C) for TIN and (C~*, C~) for DI.  Zero and not-applicable
    results lie outside the ladder.
    """
    if np.ndim(res.kind) == 0 and res.kind != "value":
        return replace(res, case_label="outside-ladder")
    a, b = (info.c_star, info.c) if mode == TIN else (info.c_tilde_star, info.c_tilde)
    user = np.asarray(res.user)
    other = np.where(user == 1, 1, 0)     # 0-based index of the other user
    k = _feasibility_case(np.take(a, other), np.take(b, other), lam)
    label = np.where(np.asarray(res.kind) == "value", _CASE_LABELS[k, user - 1], "outside-ladder")
    return replace(res, case_label=_out(label))


class SubunitRateBound(NamedTuple):
    finite_n: float
    limit: float


def outage_ub_subunit_rate(info: InfoQuantities, user: int, lam, r, n_packets, d_max,
                           mode: str) -> SubunitRateBound:
    """Gapless (0 < r < 1) outage bound under either decoder.

    finite_n is delta_cdf((N - 1 + rho_i)/(N r lam), D); it is 1 where chi2
    fails and else 0 at rho_i < 0.  limit, the (N -> inf, r -> 1-) value, is
    0 at rho_i(1) <= 0 and delta_cdf(1/lam, D) = kappa/2 at rho_i(1) <= 1;
    it is 1 beyond that or when lam exceeds an additive DI cap C*.
    """
    r = np.asarray(r, dtype=float)
    if not np.all((0.0 < r) & (r < 1.0)):
        raise AnalysisError("this bound applies to 0 < r < 1 only")
    value, _, _, chi2 = user_outage_inputs(info, user, r, lam, mode)
    value = np.asarray(value)
    cdf = delta_cdf((n_packets - 1 + value) / (n_packets * r * lam), d_max)
    p = np.where(chi2, np.where(value < 0.0, 0.0, cdf), 1.0)
    at_one, cap = rho(info, user, 1.0, lam, mode)
    at_one = np.asarray(at_one)
    capped = False if cap is None else np.asarray(cap) < 1.0
    limit = np.where(capped | (at_one > 1.0), 1.0,
                     np.where(at_one <= 0.0, 0.0, delta_cdf(1.0 / lam, d_max)))
    return SubunitRateBound(_out(p), _out(limit))


class ClosedForm(NamedTuple):
    inputs: UserOutageInputs
    finite_n: float | None   # None without N
    limit: float             # N -> inf at the given r


def closed_form_outage(info: InfoQuantities, user: int, lam, r, n_packets, d_max,
                       mode: str) -> ClosedForm:
    """User i's fluid outage in closed form, at N packets and as N -> inf,
    under either decoder.

    - rho_i < 0: 0, or 1 if r breaks the additive DI cap r < C*/lam;
    - r >= 1: outage_ub_finite_n and outage_ub_limit, chi1 false included;
    - r < 1: the gapless outage_ub_subunit_rate(...).finite_n, and as
      N -> inf delta_cdf(1/(r lam), D) where chi2 holds, else 1.

    The arguments broadcast; finite_n is None when n_packets is.
    """
    inputs = user_outage_inputs(info, user, r, lam, mode)
    negative = np.asarray(inputs.rho) < 0
    beta = np.where(negative, 0.0, inputs.beta)
    zero_path = np.where(inputs.chi2, 0.0, 1.0)
    bursty = np.asarray(r) >= 1.0
    alpha = lam * d_max
    limit = np.where(bursty, outage_ub_limit(alpha, beta, inputs.chi1, inputs.chi2),
                     np.where(inputs.chi2, delta_cdf(1.0 / (np.asarray(r) * lam), d_max), 1.0))
    finite_n = None
    if n_packets is not None:
        finite_n = outage_ub_finite_n(alpha, beta, n_packets, inputs.chi1, inputs.chi2).value
        if not bursty.all():
            gapless = outage_ub_subunit_rate(info, user, lam, np.where(bursty, 0.5, r),
                                             n_packets, d_max, mode)
            finite_n = np.where(bursty, finite_n, gapless.finite_n)
        finite_n = _out(np.where(negative, zero_path, finite_n))
    return ClosedForm(inputs, finite_n, _out(np.where(negative, zero_path, limit)))


def avg_rate(n_packets: int, r: float, lam: float) -> float:
    """Long-run average transmission rate of the scheme."""
    if n_packets < 1 or r <= 0:
        raise AnalysisError("need n_packets >= 1 and r > 0")
    n = n_packets
    if r > 1.0:
        return n * r / (n * r + 1.0) * lam
    return n * r / (n + r) * lam
