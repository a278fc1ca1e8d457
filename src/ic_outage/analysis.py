"""Closed-form outage analysis for the block transmission scheme.

Everything here is a pure function of the information constants and the
scheme parameters (arrival rate, normalized code rate, packet count,
asynchrony window, decoder mode).  The closed forms take numpy arrays and
broadcast them; a call with scalars returns Python scalars.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import AnalysisError, InfoQuantities, _is_int

__all__ = [
    "TIN",
    "DI",
    "SchemeParams",
    "Interval",
    "AnalysisError",
    "rho",
    "kappa",
    "delta_cdf",
    "rate_feasibility_interval",
    "outage_ub_finite_n",
    "outage_ub_limit",
    "user_outage_inputs",
    "outage_inputs",
    "epsilon_bound",
    "lambda_thresholds",
    "closed_form_outage",
    "avg_rate",
]

TIN = "tin"
DI = "di"

# Numerical equality threshold for the additive-channel special case C* == C_cross.
_ADDITIVE_TOL = 1e-9

NO_FEASIBLE_RATE = "no r > 1 satisfies both users' constraints"
NONPOSITIVE_ALPHA = "alpha must be positive"
# The closed forms compute N in float64, which holds every integer up to 2**53.
MAX_PACKETS = 2**53
_SMALLEST_ALPHA = math.ulp(0.0)


def alpha_of(lam, d_max):
    """alpha = lam * D.  A product past the float range is inf, which every
    closed form here reads as its alpha -> inf limit, so it is not warned of.
    A product of a positive lam and D that rounds to 0 is the smallest
    positive float, where every closed form is at its alpha -> 0 limit."""
    with np.errstate(over="ignore"):
        alpha = np.multiply(lam, d_max)
    return np.where((alpha == 0) & (np.asarray(lam) > 0) & (np.asarray(d_max) > 0),
                    _SMALLEST_ALPHA, alpha)


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
        if not _is_int(self.n_packets):
            raise AnalysisError(f"number of packets must be an integer, got {self.n_packets!r}")
        if self.n_packets < 1:
            raise AnalysisError("need at least one packet")
        if self.n_packets > MAX_PACKETS:
            raise AnalysisError(f"number of packets must be at most 2**53, got {self.n_packets!r}")
        if self.d_max <= 0:
            raise AnalysisError("asynchrony window must be positive")
        for what, value in (("normalized code rate", self.r), ("asynchrony window", self.d_max)):
            if not math.isfinite(value):
                raise AnalysisError(f"{what} must be finite, got {value!r}")
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
        return float(alpha_of(self.lam, self.d_max))


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi) on the real line.  lo and hi may be arrays, one
    interval per element."""

    lo: float
    hi: float

    @property
    def is_empty(self):
        return self.lo >= self.hi


class RhoValue(NamedTuple):
    value: float
    r_cap: float | None   # extra feasibility cap r < r_cap (additive DI case)


def _constraints(info: InfoQuantities, user: int, mode: str) -> list[tuple[str, float, float]]:
    """User i's decoding constraints as (name, full, mixed): a codeword with
    interfered fraction mu decodes when R_c < (1 - mu) full + mu mixed for
    every entry.  TIN has (C*, C); DI has (C~*, C~) and (C*, C_cross).  Each
    is named by its denominator full - mixed."""
    c_star, c, c_cross, ct_star, ct = info.for_user(user)
    if mode == TIN:
        return [("C*-C", c_star, c)]
    if mode == DI:
        return [("C~*-C~", ct_star, ct), ("C*-C_cross", c_star, c_cross)]
    raise AnalysisError(f"unknown decoder mode {mode!r}")


def _ratios(info: InfoQuantities, user: int, mode: str, lam):
    """The constraints (name, a, b) whose ratios (lam*r - b)/(a - b) give
    rho_i(r), and the additive DI cap: on an additive channel (C_i* ==
    C_{i,i'}) the ratio of (C*, C_cross) degenerates and the hard cap
    r < C_i*/lam replaces it, so C_i*/lam is returned then (inf where that
    overflows: a vanishing lam leaves r uncapped), and None otherwise.
    A ratio whose denominator a - b is not positive has no finite value,
    so it is refused here, once for every consumer."""
    pairs = _constraints(info, user, mode)
    cap = None
    name, a, b = pairs[-1]
    if name == "C*-C_cross" and abs(a - b) < _ADDITIVE_TOL:
        pairs = pairs[:-1]
        with np.errstate(over="ignore"):
            cap = a / lam
    for name, a, b in pairs:
        if a - b <= 0:
            raise AnalysisError(f"user {user}: nonpositive denominator {name} = {a - b:.3e}")
    return pairs, cap


def _zero_threshold(info: InfoQuantities, modes: tuple[str, str]) -> float:
    """The arrival rate at or below which outage vanishes: the smallest
    mixed rate over both users' constraints."""
    return min(mixed for user, mode in zip((1, 2), modes)
               for _, _, mixed in _constraints(info, user, mode))


def lambda_thresholds(info: InfoQuantities) -> tuple[float, float]:
    """(lambda_TIN, lambda_DI): the arrival rates at or below which outage
    vanishes when both users run that decoder."""
    return _zero_threshold(info, (TIN, TIN)), _zero_threshold(info, (DI, DI))


def rho(info: InfoQuantities, user: int, r: float, lam: float, mode: str) -> RhoValue:
    """Interference-exposure fraction rho_i(r), the largest of the user's
    decoding ratios, plus the additive DI rate cap C_i*/lam (else None)."""
    if np.min(r) <= 0:
        raise AnalysisError("r must be positive")
    pairs, cap = _ratios(info, user, mode, lam)
    with np.errstate(over="ignore"):     # a ratio past the float range is inf
        values = [(lam * r - b) / (a - b) for _, a, b in pairs]
    return RhoValue(_out(functools.reduce(np.maximum, values)),
                    None if cap is None else _out(cap))


def kappa(alpha):
    """Asynchrony-window factor: 2 for alpha < 1, else (2/alpha)(2 - 1/alpha)."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.min() <= 0:
        raise AnalysisError(NONPOSITIVE_ALPHA)
    beyond = np.maximum(alpha, 1.0)     # read at alpha >= 1 only; no overflow at tiny alpha
    return _out(np.where(alpha < 1.0, 2.0, (2.0 / beyond) * (2.0 - 1.0 / beyond)))


def delta_cdf(delta, d_max):
    """CDF of the asynchrony |d1 - d2| for d_i ~ U[0, D]."""
    if np.min(d_max) <= 0:
        raise AnalysisError("d_max must be positive")
    # delta is clipped to [0, D] before the division, which then cannot overflow
    u = np.minimum(np.maximum(delta, 0.0), d_max) / np.asarray(d_max)
    return _out(u * (2.0 - u))


def _feasibility_case(a, b, lam):
    """Branch of rate_feasibility_interval: 1 when lam < min(b, a/2), 2 when
    a/2 <= lam < b, 3 when b <= lam < a/2, 0 (no solution) otherwise."""
    below_half = lam < a / 2.0
    return np.where(lam < b, np.where(below_half, 1, 2), np.where(below_half, 3, 0))


def rate_feasibility_interval(a: float, b: float, lam) -> Interval:
    """Solution in r > 1 of (lam*r - b)/(a - b) < min(1, r - 1) for a > b >= 0."""
    if not a > b >= 0:
        raise AnalysisError(f"need a > b >= 0, got a={a}, b={b}")
    lam = np.asarray(lam, dtype=float)
    case = _feasibility_case(a, b, lam)
    # ratio is read in cases 2 and 3 only; cap is inf where lam vanishes
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = (a - 2.0 * b) / (a - b - lam)
        cap = a / lam
    return Interval(_out(np.where(case == 3, ratio, np.where(case > 0, 1.0, 0.0))),
                    _out(np.where(case == 2, ratio, np.where(case > 0, cap, 0.0))))


def _feasible_window(info: InfoQuantities, lam, modes: tuple[str, str]) -> Interval:
    """The r > 1 where rho_i(r) < min(1, r - 1) for both users and r is below
    any additive DI cap: rate_feasibility_interval of every ratio of both
    users, intersected.  The window is empty where lo >= hi."""
    windows = []
    for user, mode in zip((1, 2), modes):
        pairs, cap = _ratios(info, user, mode, lam)
        windows += [rate_feasibility_interval(a, b, lam) for _, a, b in pairs]
        if cap is not None:
            windows.append(Interval(1.0, cap))
    return Interval(functools.reduce(np.maximum, [w.lo for w in windows]),
                    functools.reduce(np.minimum, [w.hi for w in windows]))


def _check_form_inputs(alpha, beta, chi1, chi2):
    """Refuse what neither outage form is a probability of: alpha <= 0,
    negative beta (the caller's zero-outage path), chi1 without chi2 (both
    forms read chi2 only where chi1 is false) and beta >= 1/2 under chi1.
    user_outage_inputs makes none of them: chi1 implies chi2, and chi1's
    rho_i < min(1, r - 1) puts beta = rho_i/r below 1/2."""
    if np.min(alpha) <= 0:
        raise AnalysisError(NONPOSITIVE_ALPHA)
    if np.min(beta) < 0:
        raise AnalysisError("beta < 0 means zero outage; the closed forms do not apply")
    if np.any(np.logical_and(chi1, np.logical_not(chi2))):
        raise AnalysisError("chi1 implies chi2, got chi1 true and chi2 false")
    if np.any(np.logical_and(chi1, np.asarray(beta) >= 0.5)):
        raise AnalysisError("chi1 needs beta < 1/2, got beta >= 1/2")


def outage_ub_finite_n(alpha, beta, n_packets, chi1, chi2):
    """Finite-N closed form for the outage upper bound of one user.

    ``alpha`` is lam*D*min(r, 1) and ``beta`` is rho_i(r)/s, on the codeword
    lattice of step s = max(r, 1).  ``beta == 0`` is accepted (the formulas
    are continuous there); alpha <= 0, beta < 0, chi1 without chi2 and
    beta >= 1/2 under chi1 are refused, as outage_ub_limit refuses them.

    With g(t) = t(2 - t), the shape of delta_cdf, the bound is
    (w - u)(2 - w - u) + 2 beta g(u) under chi1, g(min(N - 1 + beta, N alpha)
    / (N alpha)) under chi2 alone and 1 otherwise.  Here u = K/(N alpha) and
    w = min(K + beta, N alpha)/(N alpha), where K counts the codewords
    wholly inside the window: N - 1 when all of them fit (m >= N), else m,
    or m - 1 when the m-th straddles the window edge, with m = ceil(N alpha -
    beta).  Every term is nonnegative, so a small bound is not left as the
    difference of two numbers near 1, and with 0 <= u <= w <= 1 and beta < 1/2
    the bound is g(w) - (1 - 2 beta) g(u), in [0, 1].
    """
    _check_form_inputs(alpha, beta, chi1, chi2)
    alpha, n = np.asarray(alpha, dtype=float), np.asarray(n_packets)
    if n.min() < 1:
        raise AnalysisError("need at least one packet")
    # Each branch reads beta only where it is taken, so a beta past the float
    # range under chi2 alone, or under neither, makes no overflow or nan.
    tail_beta = np.where(chi2, beta, 0.0)
    beta = np.where(chi1, beta, 0.0)
    with np.errstate(over="ignore"):    # an N*alpha past the float range is inf: all N fit
        na = n * alpha
    m = np.ceil(na - beta)
    k = np.where(chi1, np.where(m >= n, n - 1, np.where(m <= na + beta, m, m - 1)), 0.0)
    # Each x/(N alpha) is taken as (x/N)/alpha, which keeps its value where
    # N*alpha overflows.  w - u and w are clipped before dividing, as
    # delta_cdf clips, so a tiny alpha cannot overflow; w - u is taken as
    # min(beta, N alpha - K)/(N alpha), which keeps beta's digits where
    # K + beta would round them away.
    u = k / n / alpha
    d = np.minimum(beta / n, alpha - k / n) / alpha
    tail = np.minimum((n - 1 + tail_beta) / n, alpha) / alpha
    return _out(np.where(chi1, d * (2.0 - 2.0 * u - d) + 2.0 * beta * u * (2.0 - u),
                         np.where(chi2, tail * (2.0 - tail), 1.0)))


def outage_ub_limit(alpha, beta, chi1, chi2):
    """N -> infinity limit of the finite-N bound: kappa*beta under chi1,
    kappa/2 under chi2 alone and 1 otherwise, on the inputs the finite-N
    bound takes."""
    _check_form_inputs(alpha, beta, chi1, chi2)
    k = kappa(alpha)
    beta = np.where(chi1, beta, 0.0)    # read under chi1 only, so an infinite beta makes no nan
    return _out(np.where(chi1, k * beta, np.where(chi2, k / 2.0, 1.0)))


class UserOutageInputs(NamedTuple):
    """rho_i, beta_i = rho_i/r and the chi indicators: of one user from
    user_outage_inputs, or (user 1, user 2) pairs from outage_inputs."""

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


def outage_inputs(info: InfoQuantities, scheme: SchemeParams) -> UserOutageInputs:
    """rho, beta and the chi indicators of both users at a parameter point,
    each a (user 1, user 2) pair."""
    return UserOutageInputs(*zip(*(
        user_outage_inputs(info, user, scheme.r, scheme.lam, scheme.decoder[user - 1])
        for user in (1, 2))))


@dataclass(frozen=True)
class EpsilonResult:
    """One bound, or arrays of them: then value, r0 and kappa are nan and
    user is 0 where kind is not "value".  A value's case_label is
    case{k}-user{j}: j is the binding user and k the branch of
    rate_feasibility_interval that the other user's first constraint is on,
    under its own mode; any other kind is labelled outside-ladder."""

    kind: str             # "zero", "value" or "not-applicable"
    value: float | None = None
    r0: float | None = None    # lower end of the r > 1 feasible for both users
    kappa: float | None = None
    user: int | None = None    # index attaining the max in the bound
    case_label: str = ""

    @property
    def epsilon(self):
        kind = np.asarray(self.kind)
        if np.any(kind == "not-applicable"):
            raise AnalysisError(NO_FEASIBLE_RATE)
        return _out(np.where(kind == "zero", 0.0, np.asarray(self.value, dtype=float)))


_CASE_LABELS = np.array([[f"case{k}-user{j}" for j in (1, 2)] for k in range(4)])


def epsilon_bound(info: InfoQuantities, lam, d_max, mode) -> EpsilonResult:
    """Outage-level bound: zero below the decoder threshold, else
    kappa * max_i beta_i(r0), with its case label.  lam and d_max broadcast."""
    modes = (mode, mode) if isinstance(mode, str) else tuple(mode)
    users = tuple(zip((1, 2), modes))
    lam, d_max = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(d_max, dtype=float))
    zero = lam <= _zero_threshold(info, modes)
    kind = np.where(zero, "zero", "not-applicable")
    r_inf = k = eps = np.full(lam.shape, np.nan)
    user = np.zeros(lam.shape, dtype=int)
    label = np.full(lam.shape, "outside-ladder")
    if not zero.all():      # a grid all below the threshold never reads the window
        window = _feasible_window(info, lam, modes)
        valued = ~zero & ~window.is_empty
        kind = np.where(valued, "value", kind)
        r_inf = np.where(valued, window.lo, np.nan)
        k = np.where(valued, kappa(np.where(valued, alpha_of(lam, d_max), 1.0)), np.nan)
        betas = [rho(info, u, r_inf, lam, m).value / r_inf for u, m in users]
        eps = k * np.maximum(*betas)
        user = np.where(valued, 1 + (betas[1] > betas[0]), 0)
        first = np.array([_constraints(info, u, m)[0][1:] for u, m in users])
        other = np.where(user == 1, 1, 0)     # 0-based index of the other user
        case = _feasibility_case(first[other, 0], first[other, 1], lam)
        label = np.where(valued, _CASE_LABELS[case, user - 1], label)
    if lam.ndim:
        return EpsilonResult(kind, eps, r_inf, k, user, label)
    if kind != "value":
        return EpsilonResult(kind=str(kind), case_label="outside-ladder")
    return EpsilonResult("value", float(eps), float(r_inf), float(k), int(user), str(label))


class ClosedForm(NamedTuple):
    inputs: UserOutageInputs
    finite_n: float | None   # None without N
    limit: float             # N -> inf at the given r


def closed_form_outage(info: InfoQuantities, user: int, lam, r, n_packets, d_max,
                       mode: str) -> ClosedForm:
    """User i's fluid outage in closed form, at N packets and as N -> inf,
    under either decoder.

    The codewords start on a lattice of step s = max(r, 1) codeword lengths,
    so every r takes outage_ub_finite_n and outage_ub_limit at alpha =
    lam*D*min(r, 1) and beta = rho_i/s, chi1 false included.  Below r = 1
    chi1 fails wherever rho_i >= 0, which leaves the gapless delta-CDF form
    there.  rho_i < 0 gives 0, or 1 if r breaks the additive DI cap
    r < C*/lam.  ``inputs.beta`` stays rho_i/r.

    The arguments broadcast; finite_n is None when n_packets is.
    """
    inputs = user_outage_inputs(info, user, r, lam, mode)
    negative = np.asarray(inputs.rho) < 0
    zero_path = np.where(inputs.chi2, 0.0, 1.0)
    r = np.asarray(r, dtype=float)
    # lam*min(r, 1) then D, each product floored as alpha_of floors lam*D;
    # zero-path cells get alpha = 1, where they cannot fail.
    alpha = np.where(negative, 1.0, alpha_of(alpha_of(lam, np.minimum(r, 1.0)), d_max))
    beta = np.where(negative, 0.0, inputs.rho / np.maximum(r, 1.0))
    limit = outage_ub_limit(alpha, beta, inputs.chi1, inputs.chi2)
    finite_n = None
    if n_packets is not None:
        finite_n = outage_ub_finite_n(alpha, beta, n_packets, inputs.chi1, inputs.chi2)
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
