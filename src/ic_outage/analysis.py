"""Closed-form outage analysis for the block transmission scheme.

Everything here is a pure function of the information constants and the
scheme parameters (arrival rate, normalized code rate, packet count,
asynchrony window, decoder mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .channel import AnalysisError, InfoQuantities

__all__ = [
    "TIN",
    "DI",
    "SchemeParams",
    "OutageInputs",
    "Interval",
    "AnalysisError",
    "InfeasibleRate",
    "rho",
    "kappa",
    "delta_cdf",
    "admissible_intervals",
    "rate_feasibility_interval",
    "feasible_rate_interval",
    "r0",
    "outage_ub_finite_n",
    "outage_ub_limit",
    "user_outage_inputs",
    "outage_inputs",
    "epsilon_bound",
    "gaussian_case_label",
    "outage_ub_subunit_rate",
    "avg_rate",
    "outage_ub_one_packet",
    "outage_ub_two_packets",
]

TIN = "tin"
DI = "di"

# Numerical equality threshold for the additive-channel special case C* == C_cross.
_ADDITIVE_TOL = 1e-9


class InfeasibleRate(Exception):
    """No normalized code rate r > 1 satisfies the scheme's feasibility predicate."""


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
    """Open interval (lo, hi) on the real line; hi = inf means (lo, inf)."""

    lo: float
    hi: float = math.inf

    @classmethod
    def empty(cls) -> "Interval":
        return cls(lo=0.0, hi=0.0)

    @property
    def unbounded(self) -> bool:
        return self.hi == math.inf

    @property
    def is_empty(self) -> bool:
        return self.lo >= self.hi

    def contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    def intersect(self, other: "Interval") -> "Interval":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo < hi else Interval.empty()


class RhoValue(NamedTuple):
    value: float
    r_cap: float | None   # extra feasibility cap r < r_cap (additive DI case)


def rho(info: InfoQuantities, user: int, r: float, lam: float, mode: str) -> RhoValue:
    """Interference-exposure fraction rho_i(r) plus any extra rate cap.

    TIN uses the (lam*r - C_i)/(C_i* - C_i) ratio.  DI takes the maximum of
    the own-signal and interferer-signal ratios; when the channel is additive
    (C_i* == C_{i,i'}) the own-signal ratio degenerates and is replaced by the
    hard cap r < C_i*/lam.
    """
    if r <= 0:
        raise AnalysisError("r must be positive")
    c_star, c, c_cross, ct_star, ct = info.for_user(user)
    if mode == TIN:
        denom = c_star - c
        if denom <= 0:
            raise AnalysisError(
                f"user {user}: nonpositive denominator C*-C = {denom:.3e}"
            )
        return RhoValue((lam * r - c) / denom, None)
    if mode != DI:
        raise AnalysisError(f"unknown decoder mode {mode!r}")
    t_denom = ct_star - ct
    if t_denom <= 0:
        raise AnalysisError(
            f"user {user}: nonpositive denominator C~*-C~ = {t_denom:.3e}"
        )
    tilde_ratio = (lam * r - ct) / t_denom
    if abs(c_star - c_cross) < _ADDITIVE_TOL:
        return RhoValue(tilde_ratio, c_star / lam)
    denom = c_star - c_cross
    if denom <= 0:
        raise AnalysisError(
            f"user {user}: nonpositive denominator C*-C_cross = {denom:.3e}"
        )
    return RhoValue(max((lam * r - c_cross) / denom, tilde_ratio), None)


def kappa(alpha: float) -> float:
    """Asynchrony-window factor: 2 for alpha < 1, else (2/alpha)(2 - 1/alpha)."""
    if alpha <= 0:
        raise AnalysisError("alpha must be positive")
    if alpha < 1.0:
        return 2.0
    return (2.0 / alpha) * (2.0 - 1.0 / alpha)


def delta_cdf(delta: float, d_max: float) -> float:
    """CDF of the asynchrony |d1 - d2| for d_i ~ U[0, D]."""
    if d_max <= 0:
        raise AnalysisError("d_max must be positive")
    if delta < 0:
        return 0.0
    if delta >= d_max:
        return 1.0
    u = delta / d_max
    return u * (2.0 - u)


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
        out.append(Interval(lo, hi) if lo < hi else Interval.empty())
    out.append(Interval((n_packets - 1) * r + rho_i))
    return out


def _feasibility_case(a: float, b: float, lam: float) -> int:
    """Branch of rate_feasibility_interval: 1 when lam < min(b, a/2), 2 when
    a/2 <= lam < b, 3 when b <= lam < a/2, 0 (no solution) otherwise."""
    if lam < b:
        return 1 if lam < a / 2.0 else 2
    return 3 if lam < a / 2.0 else 0


def rate_feasibility_interval(a: float, b: float, lam: float) -> Interval:
    """Solution in r > 1 of (lam*r - b)/(a - b) < min(1, r - 1) for a > b > 0."""
    if not a > b > 0:
        raise AnalysisError(f"need a > b > 0, got a={a}, b={b}")
    case = _feasibility_case(a, b, lam)
    if case == 1:
        return Interval(1.0, a / lam)
    if case == 2:
        return Interval(1.0, (a - 2.0 * b) / (a - b - lam))
    if case == 3:
        return Interval((a - 2.0 * b) / (a - b - lam), a / lam)
    return Interval.empty()


def feasible_rate_interval(info: InfoQuantities, user: int, lam: float, mode: str) -> Interval:
    """Set of r > 1 with rho_i(r) < min(1, r-1) (and the additive DI cap)."""
    c_star, c, c_cross, ct_star, ct = info.for_user(user)
    if mode == TIN:
        return rate_feasibility_interval(c_star, c, lam)
    if mode != DI:
        raise AnalysisError(f"unknown decoder mode {mode!r}")
    tilde = rate_feasibility_interval(ct_star, ct, lam)
    if abs(c_star - c_cross) < _ADDITIVE_TOL:
        return tilde.intersect(Interval(1.0, c_star / lam))
    return tilde.intersect(rate_feasibility_interval(c_star, c_cross, lam))


def _modes(mode) -> tuple[str, str]:
    return (mode, mode) if isinstance(mode, str) else tuple(mode)


def r0(info: InfoQuantities, lam: float, d_max: float, mode) -> float:
    """Smallest feasible normalized code rate r > 1 for both users: the lower
    end of the intersection of the per-user feasible intervals.  Raises
    InfeasibleRate when the intersection is empty.
    """
    m1, m2 = _modes(mode)
    window = feasible_rate_interval(info, 1, lam, m1).intersect(
        feasible_rate_interval(info, 2, lam, m2)
    )
    if window.is_empty:
        raise InfeasibleRate(
            f"no r > 1 satisfies both users' constraints at lambda={lam}"
        )
    return window.lo


class BoundValue(NamedTuple):
    value: float
    clamped: bool


def _clamp(p: float) -> BoundValue:
    if -1e-12 <= p <= 1.0 + 1e-12:
        return BoundValue(min(max(p, 0.0), 1.0), False)
    return BoundValue(p, True)


def outage_ub_finite_n(
    alpha: float, beta: float, n_packets: int, chi1: bool, chi2: bool
) -> BoundValue:
    """Finite-N closed form for the outage upper bound of one user.

    ``beta`` is rho_i(r)/r; ``alpha`` is lam*D.  ``beta == 0`` is accepted
    (the formulas are continuous there); negative beta is the caller's
    zero-outage path and is rejected.
    """
    if alpha <= 0:
        raise AnalysisError("alpha must be positive")
    if beta < 0:
        raise AnalysisError("rho_i <= 0 means zero outage; closed form not applicable")
    if n_packets < 1:
        raise AnalysisError("need at least one packet")
    n = n_packets
    na = n * alpha
    m = math.ceil(na - beta)
    x1 = 1.0 if chi1 else 0.0
    x2 = 1.0 if chi2 else 0.0
    if m >= n:
        p = (
            1.0
            - (1.0 - 2.0 * beta) * (2.0 - (n - 1) / na) * ((n - 1) / na) * x1
            - (1.0 - (n - 1 + beta) / na) ** 2 * x2
        )
    elif m == 0 or m <= na + beta:
        p = 1.0 - (1.0 - 2.0 * beta) * (2.0 - m / na) * (m / na) * x1
    else:
        # The interval straddling the window edge contributes (1 - u_m)^2 to
        # the success mass, so it is subtracted along with the telescoped sum;
        # continuity at m = N*alpha + beta pins the sign.
        p = (
            1.0
            - (
                (1.0 - 2.0 * beta) * (2.0 - (m - 1) / na) * ((m - 1) / na)
                + (1.0 - (m - 1 + beta) / na) ** 2
            )
            * x1
        )
    return _clamp(p)


def outage_ub_limit(alpha: float, beta: float, chi1: bool, chi2: bool) -> float:
    """N -> infinity limit of the finite-N bound; equals kappa*beta when chi1 holds."""
    if alpha <= 0:
        raise AnalysisError("alpha must be positive")
    if beta < 0:
        raise AnalysisError("negative beta has no outage limit; use the zero path")
    x1 = 1.0 if chi1 else 0.0
    x2 = 1.0 if chi2 else 0.0
    if alpha < 1.0:
        return 1.0 - (1.0 - 2.0 * beta) * x1
    return (
        1.0
        - (1.0 / alpha) * (2.0 - 1.0 / alpha) * (1.0 - 2.0 * beta) * x1
        - (1.0 - 1.0 / alpha) ** 2 * x2
    )


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


def user_outage_inputs(
    info: InfoQuantities, user: int, r: float, lam: float, mode: str
) -> UserOutageInputs:
    """rho_i(r), beta_i = rho_i/r and the chi indicators of one user.

    chi1 is rho_i < min(1, r - 1) and chi2 is rho_i < 1; both also need r
    below the additive DI cap.  Unlike SchemeParams, lam is not limited to
    (0, 1], so parameter sweeps can use it too.
    """
    value, cap = rho(info, user, r, lam, mode)
    cap_ok = cap is None or r < cap
    return UserOutageInputs(
        rho=value,
        beta=value / r,
        chi1=value < min(1.0, r - 1.0) and cap_ok,
        chi2=value < 1.0 and cap_ok,
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
    kind: str             # "zero", "value" or "not-applicable"
    value: float | None = None
    r0: float | None = None
    kappa: float | None = None
    user: int | None = None    # index attaining the max in the bound
    case_label: str = ""

    @property
    def epsilon(self) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "value":
            return self.value
        raise AnalysisError("epsilon bound is not applicable at this point")


def epsilon_bound(info: InfoQuantities, lam: float, d_max: float, mode) -> EpsilonResult:
    """Outage-level bound: zero below the decoder threshold, else
    kappa * max_i beta_i(r0)."""
    m1, m2 = _modes(mode)
    thresholds = []
    for user, m in ((1, m1), (2, m2)):
        c_star, c, c_cross, ct_star, ct = info.for_user(user)
        thresholds.append(c if m == TIN else min(c_cross, ct))
    if lam <= min(thresholds):
        return EpsilonResult(kind="zero", case_label="below-threshold")
    try:
        r_inf = r0(info, lam, d_max, (m1, m2))
    except InfeasibleRate:
        return EpsilonResult(kind="not-applicable", case_label="no-feasible-rate")
    k = kappa(lam * d_max)
    betas = []
    for user, m in ((1, m1), (2, m2)):
        value, _ = rho(info, user, r_inf, lam, m)
        betas.append(value / r_inf)
    user = 1 + int(betas[1] > betas[0])
    return EpsilonResult(kind="value", value=k * max(betas), r0=r_inf, kappa=k, user=user)


def gaussian_case_label(
    res: EpsilonResult, info: InfoQuantities, lam: float, mode: str
) -> EpsilonResult:
    """Attach the Gaussian case label to a result of epsilon_bound.

    A value is labelled case{k}-user{j}: j is the binding user and k the
    branch of rate_feasibility_interval that the other user is on, over the
    pairs (C*, C) for TIN and (C~*, C~) for DI.  Zero and not-applicable
    results lie outside the ladder.
    """
    if res.kind != "value":
        return replace(res, case_label="outside-ladder")
    a, b = (info.c_star, info.c) if mode == TIN else (info.c_tilde_star, info.c_tilde)
    other = 2 - res.user    # 0-based index of the other user
    k = _feasibility_case(a[other], b[other], lam)
    return replace(res, case_label=f"case{k}-user{res.user}")


class SubunitRateBound(NamedTuple):
    finite_n: float
    limit: float


def outage_ub_subunit_rate(
    info: InfoQuantities,
    user: int,
    lam: float,
    r: float,
    n_packets: int,
    d_max: float,
) -> SubunitRateBound:
    """Outage bound for the gapless 0 < r < 1 regime (TIN decoding), plus its
    (N -> inf, r -> 1-) limit.  The limit is kappa/2 in the middle branch."""
    if not 0.0 < r < 1.0:
        raise AnalysisError("this bound applies to 0 < r < 1 only")
    c_star, c, _, _, _ = info.for_user(user)
    value = (lam * r - c) / (c_star - c)
    theta = 1.0 / (n_packets * r * lam)
    n = n_packets
    p = 1.0
    if value < 0.0:
        p = 0.0     # rho_i < 0: decodable under any overlap, so no outage
    elif value < 1.0:
        p -= 1.0 - delta_cdf((n - 1 + value) * theta, d_max)
    if lam <= c:
        limit = 0.0
    elif lam <= c_star:
        limit = delta_cdf(1.0 / lam, d_max)
    else:
        limit = 1.0
    return SubunitRateBound(p, limit)


def avg_rate(n_packets: int, r: float, lam: float) -> float:
    """Long-run average transmission rate of the scheme."""
    if n_packets < 1 or r <= 0:
        raise AnalysisError("need n_packets >= 1 and r > 0")
    n = n_packets
    if r > 1.0:
        return n * r / (n * r + 1.0) * lam
    return n * r / (n + r) * lam


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
