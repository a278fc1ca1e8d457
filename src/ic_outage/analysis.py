"""Closed-form outage analysis for the block transmission scheme.

Everything here is a pure function of the information constants and the
scheme parameters (arrival rate, normalized code rate, packet count,
asynchrony window, decoder mode).  The closed forms take numpy arrays and
broadcast them; a call with scalars returns Python scalars.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import AnalysisError, InfoQuantities, _is_int

__all__ = [
    "TIN",
    "DI",
    "SchemeParams",
    "AnalysisError",
    "rho",
    "kappa",
    "outage_ub_finite_n",
    "outage_ub_limit",
    "user_outage_inputs",
    "outage_inputs",
    "epsilon_bound",
    "lambda_thresholds",
    "closed_form_outage",
    "sweep_table",
    "avg_rate",
]

TIN = "tin"
DI = "di"

# A DI pair with |C* - C_cross| below this is read as additive, C_cross := C*.
_ADDITIVE_TOL = 1e-9

NO_FEASIBLE_RATE = "no r > 1 satisfies both users' constraints"
# The closed forms compute N in float64, which holds every integer up to 2**53.
MAX_PACKETS = 2**53
_SMALLEST_ALPHA = math.ulp(0.0)


def _check_scheme(lam=None, r=None, d_max=None, alpha=None, n_packets=None):
    """The scheme's input rules, which every public entry checks first: lam,
    D and alpha positive (inf is their limit), r positive and finite, and N an
    integer (4.0 is taken) from 1 to 2**53.  A rule written as x > 0 refuses
    nan too.  The error names the quantity and its first offending value."""
    for message, value, holds in (
            ("arrival rate must be positive", lam, lambda x: x > 0),
            ("normalized code rate must be finite", r, np.isfinite),
            ("normalized code rate must be positive", r, lambda x: x > 0),
            ("asynchrony window must be positive", d_max, lambda x: x > 0),
            ("alpha must be positive", alpha, lambda x: x > 0),
            ("number of packets must be an integer", n_packets, lambda x: x == np.floor(x)),
            ("number of packets must be at least 1", n_packets, lambda x: x >= 1),
            ("number of packets must be at most 2**53", n_packets, lambda x: x <= MAX_PACKETS)):
        bad = value is not None and ~np.asarray(holds(np.asarray(value)), dtype=bool)
        if np.any(bad):
            first = np.ravel(value)[[np.argmax(np.ravel(bad))]].tolist()[0]
            raise AnalysisError(f"{message}, got {first!r}")


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
    """A point of the scheme: _check_scheme's rules, lam <= 1, an int N, a
    finite D and a decoder pair from _decoder_pair."""

    lam: float            # arrival rate, bits/slot
    r: float              # normalized code rate R_c / lam
    n_packets: int
    d_max: float          # asynchrony window D
    decoder: tuple[str, str] = (TIN, TIN)

    def __post_init__(self):
        if not _is_int(self.n_packets):
            raise AnalysisError(
                f"number of packets must be an integer type, got {self.n_packets!r}")
        if not math.isfinite(self.d_max):
            raise AnalysisError(f"asynchrony window must be finite, got {self.d_max!r}")
        _check_scheme(lam=self.lam, r=self.r, d_max=self.d_max, n_packets=self.n_packets)
        if not self.lam <= 1.0:
            raise AnalysisError(f"arrival rate must be at most 1, got {self.lam!r}")
        object.__setattr__(self, "decoder", _decoder_pair(self.decoder))

    @property
    def code_rate(self) -> float:
        return self.r * self.lam

    @property
    def alpha(self) -> float:
        return float(alpha_of(self.lam, self.d_max))


def _decoder_pair(mode) -> tuple[str, str]:
    """Both users' decoders: one mode names both, otherwise a pair of TIN/DI."""
    pair = (mode, mode) if isinstance(mode, str) else mode
    if not (isinstance(pair, (tuple, list)) and len(pair) == 2
            and all(m in (TIN, DI) for m in pair)):
        raise AnalysisError(f"decoder must be {TIN!r}, {DI!r} or a pair of them, got {mode!r}")
    return tuple(pair)


class RhoValue(NamedTuple):
    value: float
    r_cap: float | None   # C*/lam, the cap r*lam < C* of an additive DI pair, else None


def _constraints(info: InfoQuantities, user: int, mode: str) -> list[tuple[str, float, float]]:
    """User i's decoding constraints as (name, full, mixed): a codeword with
    interfered fraction mu decodes when R_c < (1 - mu) full + mu mixed for
    every entry.  TIN has (C*, C); DI has (C~*, C~) and (C*, C_cross).  Each
    is named by its denominator full - mixed.  A DI pair within _ADDITIVE_TOL
    of additive is (C*, C*), the cap R_c < C* at every mu.  Only this function
    reads a user's share of the constants, or the tolerance."""
    if not (_is_int(user) and user in (1, 2)):
        raise AnalysisError(f"user must be 1 or 2, got {user!r}")
    j = user - 1
    if mode == TIN:
        return [("C*-C", info.c_star[j], info.c[j])]
    if mode == DI:
        a, b = info.c_star[j], info.c_cross[j]
        return [("C~*-C~", info.c_tilde_star[j], info.c_tilde[j]),
                ("C*-C_cross", a, a if abs(a - b) < _ADDITIVE_TOL else b)]
    raise AnalysisError(f"unknown decoder mode {mode!r}")


def _ratios(info: InfoQuantities, user: int, mode: str):
    """The constraints (name, a, b) from which _failing_mu gives rho_i(r).
    A ratio whose denominator a - b is not positive has no finite value,
    so it is refused here, once for every consumer; the exactly additive
    (C*, C*) pair is the one exception, as it bounds the rate, not rho."""
    pairs = _constraints(info, user, mode)
    for name, a, b in pairs:
        if a - b <= 0 and not (name == "C*-C_cross" and a == b):
            raise AnalysisError(f"user {user}: nonpositive denominator {name} = {a - b:.3e}")
    return pairs


def _failing_mu(pairs, r_code):
    """The interfered fractions mu at which a codeword of rate r_code fails,
    where r_code >= (1 - mu) full + mu mixed for some (name, full, mixed) of
    ``pairs``, as two rays (rho, lo): mu >= 1 - rho fails, rho the largest
    (r_code - mixed)/(full - mixed) over pairs with full > mixed, and mu <= lo
    fails, lo the largest (r_code - full)/(mixed - full) over pairs with full
    < mixed.  A pair with full == mixed fails every mu once r_code >= full,
    which it says through the lower ray (lo = inf), so rho stays the largest
    ratio.  A ray that no pair bounds is -inf.  Both broadcast with r_code.
    Only this function solves the decoding rule for mu."""
    rho_v = lo = -math.inf
    with np.errstate(over="ignore"):     # a ratio past the float range is inf
        for _, full, mixed in pairs:
            if full > mixed:
                rho_v = np.maximum(rho_v, (r_code - mixed) / (full - mixed))
            elif full < mixed:
                lo = np.maximum(lo, (r_code - full) / (mixed - full))
            else:
                lo = np.where(r_code >= full, math.inf, lo)
    return rho_v, lo


def _zero_threshold(info: InfoQuantities, mode) -> float:
    """The arrival rate at or below which outage vanishes: the smallest
    mixed rate over both users' constraints, under _decoder_pair(mode)."""
    return min(mixed for user, m in zip((1, 2), _decoder_pair(mode))
               for _, _, mixed in _constraints(info, user, m))


def lambda_thresholds(info: InfoQuantities) -> tuple[float, float]:
    """(lambda_TIN, lambda_DI): the arrival rates at or below which outage
    vanishes when both users run that decoder."""
    return _zero_threshold(info, TIN), _zero_threshold(info, DI)


def rho(info: InfoQuantities, user: int, r: float, lam: float, mode: str) -> RhoValue:
    """Interference-exposure fraction rho_i(r), the largest of the user's
    decoding ratios (the upper ray of _failing_mu), plus C_i*/lam where an
    additive DI pair caps the rate at r*lam < C_i* (inf where that
    overflows: a vanishing lam leaves r uncapped), else None."""
    _check_scheme(lam=lam, r=r)
    pairs = _ratios(info, user, mode)
    with np.errstate(over="ignore"):     # a code rate or a cap past the float range is inf
        value, _ = _failing_mu(pairs, lam * r)
        caps = [a / lam for _, a, b in pairs if a == b]
    return RhoValue(_out(value), _out(caps[0]) if caps else None)


def kappa(alpha):
    """Asynchrony-window factor: 2 for alpha < 1, else (2/alpha)(2 - 1/alpha)."""
    _check_scheme(alpha=alpha)
    alpha = np.asarray(alpha, dtype=float)
    beyond = np.maximum(alpha, 1.0)     # read at alpha >= 1 only; no overflow at tiny alpha
    return _out(np.where(alpha < 1.0, 2.0, (2.0 / beyond) * (2.0 - 1.0 / beyond)))


def _feasibility_case(a, b, lam):
    """Branch of _rate_feasibility_interval: 1 when lam < min(b, a/2), 2 when
    a/2 <= lam < b, 3 when b <= lam < a/2, 0 (no solution) otherwise."""
    below_half = lam < a / 2.0
    return np.where(lam < b, np.where(below_half, 1, 2), np.where(below_half, 3, 0))


def _rate_feasibility_interval(a: float, b: float, lam):
    """The open interval (lo, hi) of r > 1 that solve (lam*r - b)/(a - b) <
    min(1, r - 1) for a > b >= 0, or lam*r < a for a == b > 0 (an additive
    pair: (1, a/lam) in cases 1 and 2); (0, 0) where none does.  lo and hi
    broadcast with lam."""
    if not a >= b >= 0:
        raise AnalysisError(f"need a >= b >= 0, got a={a}, b={b}")
    lam = np.asarray(lam, dtype=float)
    case = _feasibility_case(a, b, lam)
    # ratio is read in cases 2 and 3 only; cap is inf where lam vanishes
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = (a - 2.0 * b) / (a - b - lam)
        cap = a / lam
    return (_out(np.where(case == 3, ratio, np.where(case > 0, 1.0, 0.0))),
            _out(np.where(case == 2, ratio, np.where(case > 0, cap, 0.0))))


def _feasible_window(info: InfoQuantities, lam, modes: tuple[str, str]):
    """The r > 1 where rho_i(r) < min(1, r - 1) for both users and r*lam is
    below any additive DI pair's C*, as (lo, hi): _rate_feasibility_interval
    of every constraint of both users, intersected.  The window is empty
    where lo >= hi."""
    los, his = zip(*(_rate_feasibility_interval(a, b, lam)
                     for user, mode in zip((1, 2), modes)
                     for _, a, b in _ratios(info, user, mode)))
    return functools.reduce(np.maximum, los), functools.reduce(np.minimum, his)


def _check_form_inputs(alpha, beta, chi1, chi2):
    """Refuse what neither outage form is a probability of: a nan alpha or
    beta, an alpha that _check_scheme refuses, negative beta (the caller's
    zero-outage path), chi1 without chi2 (both forms read chi2 only where
    chi1 is false) and beta >= 1/2 under chi1.  user_outage_inputs makes
    none of the last two: chi1 implies chi2, and chi1's rho_i < min(1, r - 1)
    puts beta = rho_i/r below 1/2."""
    if np.isnan(alpha).any() or np.isnan(beta).any():
        raise AnalysisError("alpha and beta must not be nan")
    _check_scheme(alpha=alpha)
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
    are continuous there); the inputs are checked by _check_form_inputs, as
    outage_ub_limit's are, and N by _check_scheme.

    With g(t) = t(2 - t), the probability that |d1 - d2| <= tD for offsets
    d_i ~ U[0, D] and 0 <= t <= 1, the bound is
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
    _check_scheme(n_packets=n_packets)
    if np.any(np.logical_and(chi2, np.isinf(alpha) & np.isinf(beta))):
        raise AnalysisError("under chi2 the bound has no limit at alpha = beta = inf")
    alpha, n = np.asarray(alpha, dtype=float), np.asarray(n_packets)
    # Each branch reads beta only where it is taken, so a beta past the float
    # range under chi2 alone, or under neither, makes no overflow or nan.
    tail_beta = np.where(chi2, beta, 0.0)
    beta = np.where(chi1, beta, 0.0)
    with np.errstate(over="ignore"):    # an N*alpha past the float range is inf: all N fit
        na = n * alpha
    m = np.ceil(na - beta)
    k = np.where(chi1, np.where(m >= n, n - 1, np.where(m <= na + beta, m, m - 1)), 0.0)
    # Each x/(N alpha) is taken as (x/N)/alpha, which keeps its value where
    # N*alpha overflows.  w - u and w are clipped to at most alpha before
    # dividing, so a tiny alpha cannot overflow; w - u is taken as
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

    chi1 is rho_i < min(1, r - 1) and chi2 is rho_i < 1; both also need
    _failing_mu's lower ray below 0 (r*lam < C_i* on an additive DI pair), so
    chi2 is decode_success at mu = 0.  Unlike SchemeParams, lam is not
    limited to (0, 1], so parameter sweeps can use it too.
    """
    _check_scheme(lam=lam, r=r)
    with np.errstate(over="ignore"):    # as rho, a code rate or beta past the float range is inf
        value, lo = _failing_mu(_ratios(info, user, mode), lam * r)
        clear = np.asarray(lo) < 0
        return UserOutageInputs(
            rho=_out(value),
            beta=_out(value / np.asarray(r)),
            chi1=_out((value < np.minimum(1.0, r - 1.0)) & clear),
            chi2=_out((np.asarray(value) < 1.0) & clear),
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
    _feasibility_case that the other user's first constraint is on,
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
    _check_scheme(lam=lam, d_max=d_max)
    modes = _decoder_pair(mode)
    users = tuple(zip((1, 2), modes))
    lam, d_max = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(d_max, dtype=float))
    zero = lam <= _zero_threshold(info, modes)
    kind = np.where(zero, "zero", "not-applicable")
    r_inf = k = eps = np.full(lam.shape, np.nan)
    user = np.zeros(lam.shape, dtype=int)
    label = np.full(lam.shape, "outside-ladder")
    if not zero.all():      # a grid all below the threshold never reads the window
        lo, hi = _feasible_window(info, lam, modes)
        valued = ~zero & (lo < hi)
        kind = np.where(valued, "value", kind)
        r_inf = np.where(valued, lo, np.nan)
        k = np.where(valued, kappa(np.where(valued, alpha_of(lam, d_max), 1.0)), np.nan)
        at_r = np.where(valued, lo, 2.0)     # a placeholder r where kappa is nan
        betas = [rho(info, u, at_r, lam, m).value / at_r for u, m in users]
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
    there.  rho_i < 0 gives 0, or 1 where chi2 fails, as when r breaks an
    additive DI pair's cap r*lam < C*.  ``inputs.beta`` stays rho_i/r.

    The arguments broadcast; finite_n is None when n_packets is.
    """
    _check_scheme(lam=lam, r=r, d_max=d_max, n_packets=n_packets)
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


def sweep_table(info: InfoQuantities, lam, r, n_packets, d_max, modes):
    """The closed forms over a grid, the last axis of the broadcast arguments:
    epsilon_bound once per mode and, unless r is None, closed_form_outage
    once per (mode, user).  Returns (columns, skipped): each CSV column
    evaluated, in (mode, user, N, point) layout over the axes it varies on,
    with nan for a blank cell (outages at rho < 0), and (point, mode, reason)
    for each point left without epsilon.  A fault of the channel fails every
    point above the mode's zero threshold; epsilon is 0 at or below it."""
    _check_scheme(lam=lam, r=r, d_max=d_max, n_packets=n_packets)
    if not modes:
        raise AnalysisError("a sweep needs at least one decoder mode")
    size = (np.broadcast(lam, r, n_packets, d_max).shape or (1,))[-1]

    def grid(x):    # x as it varies over the points
        return np.broadcast_to(x, np.broadcast_shapes(np.shape(x), (size,)))

    columns, skipped = {"epsilon": [], "case_label": []}, []
    for m, mode in enumerate(modes):
        try:
            eps = epsilon_bound(info, lam, d_max, mode)
            kind, value, label, fault = grid(eps.kind), eps.value, eps.case_label, ""
        except AnalysisError as exc:
            zero = grid(np.asarray(lam) <= _zero_threshold(info, mode))
            kind, value, label = np.where(zero, "zero", ""), None, "outside-ladder"
            fault = np.where(zero, "", str(exc))
        columns["epsilon"].append(np.where(kind == "zero", 0.0, np.asarray(value, dtype=float)))
        columns["case_label"].append(grid(np.where(fault == "", label, "")))
        reasons = np.where(kind == "not-applicable", NO_FEASIBLE_RATE, fault)
        skipped += [(int(g), m, str(reasons[g])) for g in np.flatnonzero(reasons != "")]
    if r is not None:
        columns["kappa"] = kappa(alpha_of(lam, d_max))
    for mode, user in itertools.product(modes if r is not None else (), (1, 2)):
        bound = closed_form_outage(info, user, lam, r, n_packets, d_max, mode)
        rho_v, beta, chi1, chi2 = bound.inputs
        blank = np.asarray(rho_v) < 0
        cells = {"rho": rho_v, "beta": beta, "chi1": np.multiply(chi1, 1),    # chi as 0 or 1
                 "chi2": np.multiply(chi2, 1),
                 "p_outage_limit": np.where(blank, np.nan, bound.limit)}
        if n_packets is not None:
            cells["p_outage_finiteN"] = np.where(blank, np.nan, bound.finite_n)
        for c, x in cells.items():
            columns.setdefault(c, []).append(grid(x))
    return ({c: x if c == "kappa" else np.reshape(x, (len(modes), len(x) // len(modes), -1, size))
             for c, x in columns.items()},
            [(g, modes[m], why) for g, m, why in sorted(skipped)])


def avg_rate(n_packets: int, r: float, lam: float) -> float:
    """Long-run average transmission rate of the scheme (lam where N r overflows)."""
    _check_scheme(lam=lam, r=r, n_packets=n_packets)
    if r > 1.0:
        nr = n_packets * r
        return lam if math.isinf(nr) else nr / (nr + 1.0) * lam
    return n_packets * r / (n_packets + r) * lam
