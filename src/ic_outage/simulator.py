"""Monte Carlo engine for the block transmission scheme.

Codewords are unit-length intervals on the normalized time axis; decoding
succeeds when the code rate clears the overlap-weighted mutual-information
threshold.  No codebooks are generated: this is the capacity-threshold
abstraction, which is exact in the large-blocklength limit and makes the
closed forms directly checkable.  Fluid trials cost O(1) each, as both users'
codewords start on one lattice; stochastic trials cost O(N).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, fields
from functools import partial, reduce

import numpy as np

from . import analysis
from .channel import InfoQuantities
from .analysis import AnalysisError, SchemeParams, avg_rate

__all__ = [
    "SimConfig",
    "SimResult",
    "simulate_tau",
    "overlap_fractions",
    "decode_success",
    "fluid_outage_flags",
    "run_trials",
]

_CHUNK = 16384           # trials per chunk, at most; a fluid chunk peaks near 1 MB
_CHUNK_ELEMS = 2**20     # codeword starts per user per chunk, at most


def _arrival_slots(lam: float, n: int, n_packets: int, rng: np.random.Generator,
                   size: tuple = ()) -> np.ndarray:
    """Slots (1-based) at which bits ceil(j n / N), j = 1..N, of a Bernoulli(lam)
    arrival stream arrive; shape ``size + (N,)``, drawn in C order.

    The slot of the k-th bit is k plus a NegBinomial(k, lam) count of empty
    slots.  Packet j's m_j = ceil(j n/N) - ceil((j-1) n/N) bits thus arrive
    m_j + NegBinomial(m_j, lam) slots after packet j-1's last bit, so N draws
    give the slots exactly in distribution, whatever n is.
    """
    if n < n_packets:
        raise AnalysisError("packet size rounds to zero bits")
    if n / lam > 2.0**53:
        raise AnalysisError(f"n / lambda = {n / lam:.3g} slots exceeds 2**53, "
                            "beyond which slot times are not exact floats")
    last_bit = np.array([-(-j * n // n_packets) for j in range(n_packets + 1)])
    m = np.diff(last_bit)
    gaps = m + rng.negative_binomial(m, lam, size=size + (n_packets,))
    return np.cumsum(gaps, axis=-1).astype(float)


def simulate_tau(lam: float, n: int, n_packets: int, r: float, rng: np.random.Generator,
                 size: tuple = ()) -> np.ndarray:
    """Codeword release times (slots) for transmitters with independent
    arrival realizations; shape ``size + (N,)``, one transmitter by default.

    Packet j goes out when j packets' worth of bits have arrived and the
    previous transmission has finished.  The recursion runs over j on whole
    columns, so a batch equals consecutive one-transmitter calls on the same
    generator bit for bit.
    """
    n_theta = n / (n_packets * (r * lam))   # codeword length in slots
    tau = _arrival_slots(lam, n, n_packets, rng, size)
    for j in range(1, n_packets):
        np.maximum(tau[..., j - 1] + n_theta, tau[..., j], out=tau[..., j])
    return tau


def overlap_fractions(starts1, starts2) -> tuple[np.ndarray, np.ndarray]:
    """Per-codeword interfered fraction for each user.

    Takes codeword start positions of shape (N,) or (trials, N).  Entry j of
    the first array is the total length of user 1's j-th unit interval
    covered by user 2's intervals, and vice versa.  Unit intervals overlap by
    max(0, 1 - |start difference|).

    Precondition: rows sorted, consecutive starts at least 1 apart up to
    rounding (stochastic mode's release times comply; clear violations raise
    ``AnalysisError``).  So a codeword meets at most two of the other user's,
    the nearest start at or before its own and the next.  Every other
    overlap is 0, or a sliver of the rounding, so the two-term sum equals
    the full pairwise sum (bit for bit when the gaps are at least 1).
    """
    a, b = np.broadcast_arrays(np.asarray(starts1, dtype=float),
                               np.asarray(starts2, dtype=float))
    for x in (a, b):
        if not (np.diff(x, axis=-1) >= 1.0 - 1e-12 * max(1.0, np.abs(x).max())).all():
            raise AnalysisError("codeword starts must be sorted and at least 1 apart")
    # Stable merge, b first on ties: k1 = b's at or before each a_j, k2 = a's before each b_j.
    from_a = np.argsort(np.concatenate([b, a], axis=-1), axis=-1, kind="stable") >= a.shape[-1]
    k1 = np.cumsum(~from_a, axis=-1)[from_a].reshape(a.shape)
    k2 = np.cumsum(from_a, axis=-1)[~from_a].reshape(b.shape)
    return _partner_overlap(a, b, k1), _partner_overlap(b, a, k2)


def _partner_overlap(a, b, k):
    """Overlap of a[..., j] with b[..., k-1] plus b[..., k]; ±inf pads give absent ones 0."""
    end = np.full_like(b[..., :1], np.inf)
    padded = np.concatenate([-end, b, end], axis=-1)
    mu = np.clip(1.0 - np.abs(a - np.take_along_axis(padded, k, axis=-1)), 0.0, None)
    return mu + np.clip(1.0 - np.abs(a - np.take_along_axis(padded, k + 1, axis=-1)), 0.0, None)


def decode_success(mu, info: InfoQuantities, user: int, r_code: float, mode: str):
    """Threshold test for a codeword with interfered fraction ``mu``: the
    code rate must clear (1 - mu) full + mu mixed for each (full, mixed)
    pair of the decoder in ``analysis._constraints``, so DI also needs the
    interferer's codeword decodable over the same overlap.  Strict
    inequalities: a rate exactly at threshold fails."""
    mu = np.asarray(mu, dtype=float)

    def clears(full, mixed):
        # r_code < (1 - mu) * full + mu * mixed, holding one temporary beside the sum
        level = 1.0 - mu
        level *= full
        level += mu * mixed
        return r_code < level

    ok = reduce(operator.and_, [clears(full, mixed)
                                for _, full, mixed in analysis._constraints(info, user, mode)])
    return bool(ok) if ok.ndim == 0 else ok


def _decode(p1: np.ndarray, p2: np.ndarray, scheme: SchemeParams, info: InfoQuantities):
    """Overlap-and-decode kernel for codeword starts of shape (trials, N).

    Returns (outage1, outage2, fail_counts) where fail_counts[i, j] counts
    trials in which codeword j of user i+1 failed its threshold test.
    """
    mu1, mu2 = overlap_fractions(p1, p2)
    ok1 = decode_success(mu1, info, 1, scheme.code_rate, scheme.decoder[0])
    ok2 = decode_success(mu2, info, 2, scheme.code_rate, scheme.decoder[1])
    fails = np.stack([(~ok1).sum(axis=0), (~ok2).sum(axis=0)])
    return ~ok1.all(axis=1), ~ok2.all(axis=1), fails


def _unit_overlap(v: np.ndarray) -> np.ndarray:
    """max(0, 1 - |v|), the overlap of unit intervals whose starts differ by v, in place."""
    np.abs(v, out=v)
    np.subtract(1.0, v, out=v)
    return np.clip(v, 0.0, None, out=v)


def fluid_outage_flags(d1: np.ndarray, d2: np.ndarray, scheme: SchemeParams,
                       info: InfoQuantities) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One chunk of fluid-mode trials: user i's codeword j starts at d_i/theta
    plus its limiting start, j*r for r > 1 and r + j - 1 in the gapless regime.
    Returns (outage1, outage2, fail_counts) as ``_decode`` does.

    The starts lie on one lattice of step s = max(r, 1) >= 1, so with
    x = (d1 - d2)/theta and m = floor(-x/s) user 1's codeword j meets only
    user 2's j-m and j-m-1, overlapping by A = max(0, 1 - |x + m s|) and
    B = max(0, 1 - |x + (m+1) s|); user 2's k meets user 1's k+m and k+m+1.
    So codeword j's mu is A + B for m in [j-N, j-2], A for m = j-1, B for
    m = j-N-1 and 0 otherwise, and a trial costs O(1): each of A + B, A and B
    is decoded once per trial, the verdict at mu = 0 once per call.  Failures
    tallied per m add up over each codeword's window of m in O(N) per call.
    Memory is linear in the trials passed in: at most two float rows, the
    integer m and the decode temporaries are alive at once, under 48 bytes a
    trial; ``run_trials`` passes one chunk at a time.
    """
    n = scheme.n_packets
    s = max(scheme.r, 1.0)   # exact; the gapless step (r + 1) - r can round off 1
    r_code = scheme.code_rate
    theta = 1.0 / (n * r_code)
    y = d1 / theta
    y -= d2 / theta          # x
    m = np.negative(y)
    m /= s
    np.floor(m, out=m)
    y += m * s               # x + m s
    # k = m + N + 2 with m clipped to [-N-2, N+2]: beyond, no codeword has a partner.
    k = np.clip(m, -n - 2, n + 2, out=m).astype(np.intp)
    del m
    k += n + 2
    ms = np.arange(-n - 2, n + 3)
    j = np.arange(1, n + 1)
    users = tuple(zip((1, 2), scheme.decoder))
    outage = np.zeros((2, len(k)), dtype=bool)
    fails = np.zeros((2, n), dtype=np.int64)

    def tally(mu, lo, hi):
        # Codeword j has this mu when m is in [j + lo, j + hi], so some codeword
        # has it when m is in [1 + lo, N + hi]; a failure counts for each such j.
        has = ((ms >= 1 + lo) & (ms <= n + hi))[k]
        for i, (user, decoder) in enumerate(users):
            failed = ~decode_success(mu, info, user, r_code, decoder)
            failed &= has
            outage[i] |= failed
            per_m = np.cumsum(np.bincount(k[failed], minlength=ms.size))
            fails[i] += per_m[j + hi + n + 2] - per_m[j + lo + n + 1]

    a = _unit_overlap(y.copy())    # A
    tally(a, -1, -1)
    y += s
    b = _unit_overlap(y)           # B, in place of y
    tally(b, -n - 1, -n - 1)
    a += b                         # A + B
    del y, b
    tally(a, -n, -2)
    # Codeword j has mu = 0 when m is outside [j-N-1, j-1], so some codeword
    # has it when m >= 1 or m <= -2.
    zero_fails = [not decode_success(0.0, info, user, r_code, decoder)
                  for user, decoder in users]
    if any(zero_fails):
        has = ((ms >= 1) | (ms <= -2))[k]
        per_m = np.cumsum(np.bincount(k, minlength=ms.size))
        outside = len(k) - (per_m[j + n + 1] - per_m[j])
        for i in np.flatnonzero(zero_fails):
            outage[i] |= has
            fails[i] += outside
    fails[1] = fails[1, ::-1]   # user 2's codeword k has user 1's pattern at N+1-k
    return outage[0], outage[1], fails


def _stochastic_chunk(d1: np.ndarray, d2: np.ndarray, scheme: SchemeParams, n: int,
                      info: InfoQuantities, gen: np.random.Generator):
    """One chunk of stochastic-mode trials: codewords start at the release
    times of ``simulate_tau``, drawn from ``gen`` for both users of the chunk
    at once, user 1 then user 2 per trial.  Returns (outage1, outage2,
    fail_counts, rates) with rates of shape (2, trials).  Cost is O(N) per
    trial whatever n is; ``run_trials`` passes one chunk at a time.
    """
    n_pk = scheme.n_packets
    n_theta = n / (n_pk * scheme.code_rate)   # codeword length in slots
    theta = 1.0 / (n_pk * scheme.code_rate)
    tau = simulate_tau(scheme.lam, n, n_pk, scheme.r, gen, size=(len(d1), 2))
    out1, out2, fails = _decode(d1[:, None] / theta + tau[:, 0] / n_theta,
                                d2[:, None] / theta + tau[:, 1] / n_theta, scheme, info)
    return out1, out2, fails, (n / (tau[:, :, -1] + n_theta)).T


@dataclass(frozen=True)
class SimConfig:
    scheme: SchemeParams
    trials: int
    seed: int
    mode: str = "fluid"          # "fluid" or "stochastic"
    n: int | None = None         # bits per source, stochastic mode only

    def __post_init__(self):
        if self.trials < 1:
            raise AnalysisError("need at least one trial")
        if not 0 <= self.seed < 2**128:
            raise AnalysisError(f"seed must be in [0, 2**128), got {self.seed}")
        if self.mode not in ("fluid", "stochastic"):
            raise AnalysisError(f"unknown simulation mode {self.mode!r}")
        if self.mode == "stochastic" and not self.n:
            raise AnalysisError("stochastic mode needs the bits-per-source count n")
        if self.mode != "stochastic" and self.n is not None:
            raise AnalysisError("the bits-per-source count n applies to stochastic mode only")
        theta = 1.0 / (self.scheme.n_packets * self.scheme.code_rate)   # as the kernels take it
        if not (theta > 0 and math.isfinite(self.scheme.d_max / theta)):
            raise AnalysisError(f"asynchrony window D = {self.scheme.d_max!r} is not a finite "
                                "number of codeword lengths 1/(N r lambda)")


@dataclass(frozen=True)
class SimResult:
    outage: tuple[float, float]
    halfwidth: tuple[float, float]
    rates: tuple[float, float]
    trials: int
    seed: int
    mode: str
    per_codeword_failures: list[list[int]] = field(default_factory=list)

    def to_json(self, indent: int | None = None) -> str:
        # Shallow: dataclasses.asdict would deep-copy all 2N failure counts.
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)}, indent=indent)


def _halfwidth(p_hat: float, trials: int) -> float:
    return 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / trials)


def run_trials(config: SimConfig, info: InfoQuantities) -> SimResult:
    """Estimate per-user outage frequencies (and rates) over random asynchrony.

    Trials run in chunks of at most ``_CHUNK`` (and, in stochastic mode,
    ``_CHUNK_ELEMS // N``).  Each chunk draws its offsets, runs the mode's
    kernel on them and keeps only outage counts, per-codeword failures and the
    running rate sum, so memory is flat in the trial count.

    Deterministic for a fixed seed: offsets come from a Philox stream keyed by
    the seed and release times from the same stream jumped 2**128 steps ahead.
    Philox draws occupy fixed counter slots, so trial t's offsets and release
    times are functions of (seed, t) alone and the first t trials of a run do
    not depend on the trial count or the chunk size.  A fluid trial costs
    O(1) whatever N is (see ``fluid_outage_flags``), a stochastic one O(N)
    whatever n is.
    """
    scheme = config.scheme
    offsets = np.random.Generator(np.random.Philox(key=config.seed))
    if config.mode == "fluid":
        chunk = _CHUNK
        kernel = partial(fluid_outage_flags, scheme=scheme, info=info)
    else:
        chunk = max(1, min(_CHUNK, _CHUNK_ELEMS // scheme.n_packets))
        gen = np.random.Generator(np.random.Philox(key=config.seed).jumped())
        kernel = partial(_stochastic_chunk, scheme=scheme, n=config.n, info=info, gen=gen)
    outages, fails, rate_sum = np.zeros(2, dtype=np.int64), 0, np.zeros(2)
    for lo in range(0, config.trials, chunk):
        d = offsets.random((min(chunk, config.trials - lo), 2)) * scheme.d_max
        out1, out2, chunk_fails, *chunk_rates = kernel(d[:, 0], d[:, 1])
        outages += out1.sum(), out2.sum()
        fails = fails + chunk_fails
        if chunk_rates:
            # A running sum in trial order: np.sum adds pairwise, which changes the last bits.
            rate_sum = np.cumsum(np.column_stack([rate_sum, *chunk_rates]), axis=1)[:, -1]
    p1, p2 = (outages / config.trials).tolist()
    if config.mode == "fluid":
        rates = (avg_rate(scheme.n_packets, scheme.r, scheme.lam),) * 2
    else:
        rates = tuple((rate_sum / config.trials).tolist())
    return SimResult(
        outage=(p1, p2),
        halfwidth=(_halfwidth(p1, config.trials), _halfwidth(p2, config.trials)),
        rates=rates,
        trials=config.trials,
        seed=config.seed,
        mode=config.mode,
        per_codeword_failures=fails.tolist(),
    )
