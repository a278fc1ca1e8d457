"""Two-user interference channel models and their mutual-information constants.

Supports finite-alphabet channels given by per-receiver transition kernels and
the scalar Gaussian interference channel with unit noise variance.  All
information quantities are in bits per channel use (log base 2).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteIC",
    "GaussianIC",
    "InputDistribution",
    "InfoQuantities",
    "ChannelValidationError",
    "info_quantities",
    "gaussian_info_quantities",
    "lambda_bar",
    "load_channel",
]

_ROW_SUM_TOL = 1e-12
# Blahut-Arimoto stops once its capacity certificate (an upper minus a lower
# bound on the capacity, in bits) is at most _CAPACITY_TOL.
_CAPACITY_TOL = 1e-12
_CAPACITY_MAX_ITER = 2**17
_NEWTON_STEPS = 30


class ChannelValidationError(ValueError):
    """A channel or distribution violates one of its structural invariants."""


class AnalysisError(ValueError):
    """An analytic quantity cannot be evaluated at the given parameters."""


def _finite(value, what: str):
    """value itself if it is a finite real number; bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ChannelValidationError(f"{what} must be a finite number, got {value!r}")
    return value


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class DiscreteIC:
    """Finite-alphabet two-user IC.

    ``kernel1[a * x2_size + b, c]`` is the probability that receiver 1 sees
    output ``c`` when the transmitters send ``(a, b)``; likewise ``kernel2``
    for receiver 2.  ``idle1``/``idle2`` are the symbols each transmitter
    emits while it has no codeword on the air.

    Building one copies the kernels into read-only float arrays and checks
    alphabet sizes, kernel shapes and entries, row stochasticity and idle
    indices, raising ChannelValidationError at the first that fails; so
    every DiscreteIC is valid.
    """

    x1_size: int
    x2_size: int
    y1_size: int
    y2_size: int
    kernel1: np.ndarray
    kernel2: np.ndarray
    idle1: int = 0
    idle2: int = 0

    def __post_init__(self):
        for name in ("kernel1", "kernel2"):
            kern = np.array(getattr(self, name), dtype=float)
            kern.flags.writeable = False
            object.__setattr__(self, name, kern)
        for name in ("x1_size", "x2_size", "y1_size", "y2_size"):
            size = getattr(self, name)
            if not _is_int(size) or size < 1:
                raise ChannelValidationError(f"{name} must be a positive integer, got {size!r}")
        n_rows = self.x1_size * self.x2_size
        for name, kern, y in (("kernel1", self.kernel1, self.y1_size),
                              ("kernel2", self.kernel2, self.y2_size)):
            if kern.shape != (n_rows, y):
                raise ChannelValidationError(
                    f"{name} has shape {kern.shape}, expected {(n_rows, y)}"
                )
            if not np.isfinite(kern).all():
                r = int(np.argwhere(~np.isfinite(kern))[0][0])
                raise ChannelValidationError(f"{name} row {r} has a non-finite entry")
            if (kern < 0).any():
                r = int(np.argwhere(kern < 0)[0][0])
                raise ChannelValidationError(f"{name} row {r} has a negative entry")
            sums = kern.sum(axis=1)
            bad = np.abs(sums - 1.0) > _ROW_SUM_TOL
            if bad.any():
                r = int(np.argmax(bad))
                raise ChannelValidationError(
                    f"{name} row {r} sums to {sums[r]:.15f} (deviation "
                    f"{sums[r] - 1.0:+.3e})"
                )
        for user, idle, size in ((1, self.idle1, self.x1_size),
                                 (2, self.idle2, self.x2_size)):
            if not _is_int(idle) or not 0 <= idle < size:
                raise ChannelValidationError(f"idle index out of range for user {user}: {idle!r}")

    def kernel(self, receiver: int) -> np.ndarray:
        """Kernel for ``receiver`` reshaped to (x1, x2, y)."""
        k = self.kernel1 if receiver == 1 else self.kernel2
        y = self.y1_size if receiver == 1 else self.y2_size
        return k.reshape(self.x1_size, self.x2_size, y)


@dataclass(frozen=True)
class GaussianIC:
    """Scalar Gaussian IC ``y_i = x_i + sqrt(c_i) x_i' + z_i`` with N(0,1) noise."""

    p1: float
    p2: float
    c1: float
    c2: float

    def __post_init__(self):
        for name in ("p1", "p2", "c1", "c2"):
            _finite(getattr(self, name), name)
        if self.p1 <= 0 or self.p2 <= 0:
            raise ChannelValidationError("transmit powers must be positive")
        if self.c1 < 0 or self.c2 < 0:
            raise ChannelValidationError("cross gains must be nonnegative")


@dataclass(frozen=True)
class InputDistribution:
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1:
            raise ChannelValidationError("input distribution must be a vector")
        if not np.isfinite(p).all():
            raise ChannelValidationError("input distribution has a non-finite entry")
        if (p < 0).any():
            raise ChannelValidationError("input distribution has negative mass")
        if abs(p.sum() - 1.0) > _ROW_SUM_TOL:
            raise ChannelValidationError(
                f"input distribution sums to {p.sum():.15f}, expected 1"
            )

    @classmethod
    def bernoulli(cls, p: float) -> "InputDistribution":
        """Binary input with P(x=1) = p."""
        return cls(np.array([1.0 - p, p]))


@dataclass(frozen=True)
class InfoQuantities:
    """The ten per-receiver mutual-information constants, bits/channel use.

    Index convention: tuples are (user 1, user 2).  ``c_cross[i]`` is the
    own-signal rate given the interferer's symbol, ``c_tilde*`` are the
    interferer-signal rates seen at receiver i.
    """

    c_star: tuple[float, float]
    c: tuple[float, float]
    c_cross: tuple[float, float]
    c_tilde_star: tuple[float, float]
    c_tilde: tuple[float, float]

    def for_user(self, i: int) -> tuple[float, float, float, float, float]:
        """(C*, C, C_cross, C~*, C~) for user i in {1, 2}."""
        j = i - 1
        return (
            self.c_star[j],
            self.c[j],
            self.c_cross[j],
            self.c_tilde_star[j],
            self.c_tilde[j],
        )


def _mutual_information(pi: np.ndarray, cond: np.ndarray) -> float:
    """I(X; Y) in bits for X ~ pi and conditional law cond[x, y].

    Uses the 0 log 0 = 0 convention; zero output columns are allowed.  The
    sum is floored at 0: where Y ignores X it is 0 up to rounding, which a pi
    summing to 1 only within tolerance can leave just below 0.
    """
    joint = pi[:, None] * cond
    py = joint.sum(axis=0)
    mask = joint > 0
    ratio = np.ones_like(joint)
    denom = (pi[:, None] * py[None, :])[mask]
    ratio[mask] = joint[mask] / denom
    return max(0.0, float(np.sum(joint[mask] * np.log2(ratio[mask]))))


def _receiver_quantities(
    k3: np.ndarray,
    pi_own: np.ndarray,
    pi_int: np.ndarray,
    idle_own: int,
    idle_int: int,
) -> tuple[float, float, float, float, float]:
    """(C*, C, C_cross, C~*, C~) for one receiver.

    ``k3`` must be shaped (own alphabet, interferer alphabet, output).
    """
    c_star = _mutual_information(pi_own, k3[:, idle_int, :])
    c_avg = np.einsum("j,ijy->iy", pi_int, k3)
    c = _mutual_information(pi_own, c_avg)
    c_cross = sum(
        pi_int[x] * _mutual_information(pi_own, k3[:, x, :])
        for x in range(len(pi_int))
        if pi_int[x] > 0
    )
    c_tilde_star = _mutual_information(pi_int, k3[idle_own, :, :])
    t_avg = np.einsum("i,ijy->jy", pi_own, k3)
    c_tilde = _mutual_information(pi_int, t_avg)
    return c_star, c, float(c_cross), c_tilde_star, c_tilde


def info_quantities(
    channel: DiscreteIC, pi1: InputDistribution, pi2: InputDistribution
) -> InfoQuantities:
    """All ten information constants under independent inputs pi1, pi2.

    The channel is valid by construction; the distributions must match its
    input alphabets."""
    if len(pi1.probs) != channel.x1_size or len(pi2.probs) != channel.x2_size:
        raise ChannelValidationError("input distribution size does not match alphabet")
    q1 = _receiver_quantities(
        channel.kernel(1), pi1.probs, pi2.probs, channel.idle1, channel.idle2
    )
    q2 = _receiver_quantities(
        channel.kernel(2).transpose(1, 0, 2),
        pi2.probs,
        pi1.probs,
        channel.idle2,
        channel.idle1,
    )
    return InfoQuantities(
        c_star=(q1[0], q2[0]),
        c=(q1[1], q2[1]),
        c_cross=(q1[2], q2[2]),
        c_tilde_star=(q1[3], q2[3]),
        c_tilde=(q1[4], q2[4]),
    )


def awgn_capacity(snr: float) -> float:
    """0.5 log2(1 + snr), bits per real channel use."""
    return 0.5 * np.log2(1.0 + snr)


def gaussian_info_quantities(channel: GaussianIC) -> InfoQuantities:
    """Closed-form constants for Gaussian point-to-point codebooks."""
    p = (channel.p1, channel.p2)
    c = (channel.c1, channel.c2)
    c_star = tuple(awgn_capacity(p[i]) for i in range(2))
    c_plain = tuple(awgn_capacity(p[i] / (1.0 + c[i] * p[1 - i])) for i in range(2))
    c_tilde_star = tuple(awgn_capacity(c[i] * p[1 - i]) for i in range(2))
    c_tilde = tuple(
        awgn_capacity(c[i] * p[1 - i] / (1.0 + p[i])) for i in range(2)
    )
    return InfoQuantities(
        c_star=c_star,
        c=c_plain,
        c_cross=c_star,
        c_tilde_star=c_tilde_star,
        c_tilde=c_tilde,
    )


def _divergences(cond: np.ndarray, neg_entropy: np.ndarray, p: np.ndarray):
    """D(cond[x] || q) in bits for every input x, and the output law q = p @ cond."""
    q = p @ cond
    return neg_entropy - cond @ np.log2(np.where(q > 0, q, 1.0)), q


def _newton_polish(cond: np.ndarray, neg_entropy: np.ndarray, p: np.ndarray):
    """Solve the capacity conditions D_x = C on a guessed support by Newton.

    The support starts as p's and a symbol leaves it when its mass turns
    negative.  When a solve fails the certificate of _capacity, the
    off-support symbol with the largest divergence joins, if it exceeds every
    divergence on the support, and otherwise the on-support symbol with the
    smallest leaves.  Singular systems (more inputs than outputs, equal rows)
    take the least-squares step.  Returns (certified value, input) or None.
    """
    support = p > 0
    for _ in range(2 * len(p)):
        if not support.any():
            return None
        x = np.where(support, p, 0.0) / p[support].sum()
        c = float(x @ _divergences(cond, neg_entropy, x)[0])
        for _ in range(_NEWTON_STEPS):
            d, q = _divergences(cond, neg_entropy, x)
            rows = cond[support]
            ones = np.ones((len(rows), 1))
            a = (rows / np.where(q > 0, q, 1.0)) @ rows.T / np.log(2.0)
            jac = np.block([[-a, -ones], [ones.T, np.zeros((1, 1))]])
            step = np.linalg.lstsq(jac, np.append(c - d[support], 1.0 - x.sum()), rcond=None)[0]
            x[support] += step[:-1]
            c += step[-1]
            support &= x > 0
            x = np.where(support, x, 0.0) / x[support].sum()
            if np.abs(step).max() < 1e-15:
                break
        d, _ = _divergences(cond, neg_entropy, x)
        if d.max() - np.log2(x @ np.exp2(d)) <= _CAPACITY_TOL:
            return float(x @ d), x
        if (~support).any() and d[~support].max() > d[support].max():
            support[np.flatnonzero(~support)[np.argmax(d[~support])]] = True
        else:
            support[np.flatnonzero(support)[np.argmin(d[support])]] = False
    return None


def _capacity(cond: np.ndarray, floor: float = -np.inf):
    """Capacity in bits of the point-to-point channel cond[x, y] and an input
    distribution that attains it, by Blahut-Arimoto.

    Each step evaluates D_x = D(cond[x] || q) for the current input p and its
    output law q.  max_x D_x and log2 sum_x p(x) 2^{D_x} bound the capacity
    from above and below; the loop stops when they are within _CAPACITY_TOL
    and returns I(p).  Returns None as soon as the upper bound is at most
    ``floor``.  Nearly useless channels and channels with nearly equal rows
    converge slowly, so at steps 128, 256, 512, ... a Newton solve of the
    capacity conditions is tried and kept if it passes the same certificate.
    """
    neg_entropy = np.sum(cond * np.log2(np.where(cond > 0, cond, 1.0)), axis=1)
    p = np.full(cond.shape[0], 1.0 / cond.shape[0])
    for step in range(1, _CAPACITY_MAX_ITER + 1):
        d, _ = _divergences(cond, neg_entropy, p)
        if d.max() <= floor:
            return None
        w = p * np.exp2(d)
        gap = d.max() - np.log2(w.sum())
        if gap <= _CAPACITY_TOL:
            return float(p @ d), p
        if step >= 128 and step & (step - 1) == 0:
            polished = _newton_polish(cond, neg_entropy, p)
            if polished is not None:
                return polished
        p = w / w.sum()
    raise AnalysisError(
        f"Blahut-Arimoto could not certify a sub-channel capacity to "
        f"{_CAPACITY_TOL:.0e} bits in {_CAPACITY_MAX_ITER} steps (gap "
        f"{gap:.1e} bits), so lambda_bar is not available for this channel"
    )


def lambda_bar(channel: DiscreteIC | GaussianIC):
    """Converse threshold min_i max_{pi1,pi2} C_{i,i'}.

    Gaussian channels have the closed form min{C(P1), C(P2)}.  For discrete
    channels C_{i,i'} is linear in the interferer's distribution, so the
    inner maximum is the largest capacity among the single-symbol
    sub-channels W_{i,x'} = kernel_i[:, x', :].  Each capacity is computed
    by Blahut-Arimoto (Blahut 1972; Arimoto 1972), stopped once the
    certificate max_x D(W_x||q) - log2 sum_x p(x) 2^{D(W_x||q)} (q the
    output law of the current input p) is at most 1e-12 bits.  Sub-channels
    run in decreasing order of their uniform-input rate, and one is dropped
    once its upper bound falls to the largest certified capacity so far.
    Returns ``(value, (pi1, pi2))`` with the achieving product distribution
    of the minimizing user, whose interferer puts all its mass on the
    maximizing symbol (None for Gaussian channels).  Raises AnalysisError
    if a capacity that could be the maximum cannot be certified.
    """
    if isinstance(channel, GaussianIC):
        return min(awgn_capacity(channel.p1), awgn_capacity(channel.p2)), None
    per_user = []
    for k3 in (channel.kernel(1), channel.kernel(2).transpose(1, 0, 2)):
        subs = k3.transpose(1, 0, 2)
        uniform = np.full(k3.shape[0], 1.0 / k3.shape[0])
        order = sorted(range(len(subs)), key=lambda x: -_mutual_information(uniform, subs[x]))
        best = None
        for x in order:
            found = _capacity(subs[x], -np.inf if best is None else best[0])
            if found is not None and (best is None or found[0] > best[0]):
                best = (*found, x)
        value, pi_own, x_best = best
        per_user.append((value, pi_own, np.eye(len(subs))[x_best]))
    i_min = 0 if per_user[0][0] <= per_user[1][0] else 1
    v, pi_own, pi_int = per_user[i_min]
    if i_min == 0:
        return v, (InputDistribution(pi_own), InputDistribution(pi_int))
    return v, (InputDistribution(pi_int), InputDistribution(pi_own))


def dbw_to_watts(dbw: float) -> float:
    return 10.0 ** (dbw / 10.0)


def load_channel(path_or_dict) -> DiscreteIC | GaussianIC:
    """Load a channel from a JSON config file path or an already-parsed dict.

    Numbers must be finite, sizes and idle indices integers, and kernels
    matrices of numbers; anything else raises ChannelValidationError, from
    here or from the channel's constructor."""
    if isinstance(path_or_dict, dict):
        cfg = path_or_dict
    else:
        with open(path_or_dict) as f:
            cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ChannelValidationError("channel config must be a JSON object")

    def kernel(key):
        k = np.asarray(cfg[key])
        if k.dtype.kind not in "iuf":
            raise ChannelValidationError(f"{key} must be a matrix of numbers")
        return k.astype(float)

    kind = cfg.get("type")
    if kind == "discrete":
        return DiscreteIC(
            x1_size=cfg["x1"],
            x2_size=cfg["x2"],
            y1_size=cfg["y1"],
            y2_size=cfg["y2"],
            kernel1=kernel("kernel1"),
            kernel2=kernel("kernel2"),
            idle1=cfg.get("idle1", 0),
            idle2=cfg.get("idle2", 0),
        )
    if kind == "gaussian":
        def power(key):
            if f"{key}_dbw" in cfg and key in cfg:
                raise ChannelValidationError(f"give {key} or {key}_dbw, not both")
            if f"{key}_dbw" in cfg:
                dbw = _finite(cfg[f"{key}_dbw"], f"{key}_dbw")
                try:
                    return dbw_to_watts(dbw)
                except OverflowError:
                    raise ChannelValidationError(f"{key}_dbw = {dbw!r} overflows") from None
            if key in cfg:
                return cfg[key]
            raise ChannelValidationError(f"missing {key} or {key}_dbw")

        return GaussianIC(p1=power("p1"), p2=power("p2"), c1=cfg["c1"], c2=cfg["c2"])
    raise ChannelValidationError(f"unknown channel type {kind!r}")
