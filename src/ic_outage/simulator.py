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
from dataclasses import asdict, dataclass, field

import numpy as np

from .channel import InfoQuantities
from .analysis import TIN, DI, AnalysisError, SchemeParams, avg_rate

__all__ = [
    "SimConfig",
    "SimResult",
    "simulate_tau",
    "overlap_fractions",
    "decode_success",
    "fluid_outage_flags",
    "run_trials",
]

_CHUNK = 16384           # trials per chunk, at most
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
    """Threshold test for a codeword with interfered fraction ``mu``.

    TIN needs the single mixed-rate inequality; DI additionally needs the
    interferer's codeword decodable over the same overlap.  Strict
    inequalities: a rate exactly at threshold fails.
    """
    mu = np.asarray(mu, dtype=float)
    c_star, c, c_cross, ct_star, ct = info.for_user(user)
    if mode == TIN:
        ok = r_code < (1.0 - mu) * c_star + mu * c
    elif mode == DI:
        ok = (r_code < (1.0 - mu) * ct_star + mu * ct) & (
            r_code < (1.0 - mu) * c_star + mu * c_cross
        )
    else:
        raise AnalysisError(f"unknown decoder mode {mode!r}")
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


def fluid_outage_flags(d1: np.ndarray, d2: np.ndarray, scheme: SchemeParams,
                       info: InfoQuantities) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fluid-mode trials: user i's codeword j starts at d_i/theta plus its
    limiting start, j*r for r > 1 and r + j - 1 in the gapless regime.
    Returns (outage1, outage2, fail_counts) as ``_decode`` does.

    The starts lie on one lattice of step s = max(r, 1) >= 1, so with
    x = (d1 - d2)/theta and m = floor(-x/s) user 1's codeword j meets only
    user 2's j-m and j-m-1, overlapping by A = max(0, 1 - |x + m s|) and
    B = max(0, 1 - |x + (m+1) s|); user 2's k meets user 1's k+m and k+m+1.
    So each mu is A + B, A, B or 0, by which partners exist in 1..N, and a
    trial costs O(1).  Failures tallied per (pattern, m) spread over the
    codewords in O(N); chunks of _CHUNK trials bound memory.
    """
    n = scheme.n_packets
    s = max(scheme.r, 1.0)   # exact; the gapless step (r + 1) - r can round off 1
    theta = 1.0 / (n * scheme.code_rate)
    # Per m in [-N-2, N+2] (beyond, no codeword has a partner), user 1's codewords
    # lo..hi with mu = A + B, A, B, 0 (j <= m) and 0 (j >= m+N+2); empty if lo > hi.
    ms = np.arange(-n - 2, n + 3)
    lo = np.maximum([ms + 2, ms + 1, ms + n + 1, np.ones_like(ms), ms + n + 2], 1).ravel()
    hi = np.minimum([ms + n, ms + 1, ms + n + 1, ms, np.full_like(ms, n)], n).ravel()
    exists = lo <= hi
    tally = np.zeros((2, exists.size), dtype=np.int64)   # failures per (user, pattern, m)
    out = np.empty((2, len(d1)), dtype=bool)
    for start in range(0, len(d1), _CHUNK):
        x = d1[start:start + _CHUNK] / theta - d2[start:start + _CHUNK] / theta
        m = np.floor(-x / s)
        y = x + m * s
        a = np.clip(1.0 - np.abs(y), 0.0, None)
        b = np.clip(1.0 - np.abs(y + s), 0.0, None)
        mu = np.stack([a + b, a, b, 0.0 * a, 0.0 * a])
        cell = np.arange(5)[:, None] * ms.size + np.clip(m, -n - 2, n + 2).astype(int) + n + 2
        failed = [exists[cell] & ~decode_success(mu, info, i, scheme.code_rate, decoder)
                  for i, decoder in zip((1, 2), scheme.decoder)]
        out[:, start:start + _CHUNK] = [f.any(axis=0) for f in failed]
        tally += [np.bincount(cell[f], minlength=exists.size) for f in failed]
    diff = [np.bincount(lo[exists], t, n + 2) - np.bincount(hi[exists] + 1, t, n + 2)
            for t in tally[:, exists]]   # float counts, exact below 2**53
    fails = np.cumsum(diff, axis=1)[:, 1:n + 1].astype(np.int64)
    fails[1] = fails[1, ::-1]   # user 2's codeword k has user 1's pattern at N+1-k
    return out[0], out[1], fails


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
        return json.dumps(asdict(self), indent=indent)


def _halfwidth(p_hat: float, trials: int) -> float:
    return 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / trials)


def _offset_draws(seed: int, trials: int, d_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Activation offsets for all trials from a counter-based stream.

    Philox draws occupy fixed counter slots, so trial t's pair (d1, d2) is a
    pure function of (seed, t) no matter how trials are later partitioned.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    d = gen.random((trials, 2)) * d_max
    return d[:, 0], d[:, 1]


def run_trials(config: SimConfig, info: InfoQuantities) -> SimResult:
    """Estimate per-user outage frequencies (and rates) over random asynchrony.

    Deterministic for a fixed seed: trial t's offsets and release times are
    functions of (seed, t) alone, so the first t trials of a run do not depend
    on the trial count or the chunk size.  A fluid trial costs O(1) whatever
    N is (see ``fluid_outage_flags``), a stochastic one O(N) whatever n is.
    """
    scheme = config.scheme
    d1, d2 = _offset_draws(config.seed, config.trials, scheme.d_max)
    if config.mode == "fluid":
        out1, out2, fails = fluid_outage_flags(d1, d2, scheme, info)
        rates = (avg_rate(scheme.n_packets, scheme.r, scheme.lam),) * 2
    else:
        out1, out2, fails, rates = _run_stochastic(config, d1, d2, info)
    p1, p2 = float(out1.mean()), float(out2.mean())
    return SimResult(
        outage=(p1, p2),
        halfwidth=(_halfwidth(p1, config.trials), _halfwidth(p2, config.trials)),
        rates=rates,
        trials=config.trials,
        seed=config.seed,
        mode=config.mode,
        per_codeword_failures=[[int(v) for v in row] for row in fails],
    )


def _run_stochastic(config: SimConfig, d1, d2, info):
    """Stochastic-mode trials: codewords start at the release times of
    ``simulate_tau``, drawn for both users of a whole chunk at once.

    The draws come in trial order from one Philox stream keyed by the seed
    and jumped 2**128 steps past the offset stream, so trial t depends only
    on (seed, t), not on the trial count or the chunk size.  Chunks share the
    stream and so run serially.  Cost is O(N) per trial whatever n is.
    """
    scheme, n = config.scheme, config.n
    n_pk = scheme.n_packets
    n_theta = n / (n_pk * scheme.code_rate)   # codeword length in slots
    theta = 1.0 / (n_pk * scheme.code_rate)
    chunk = max(1, min(_CHUNK, _CHUNK_ELEMS // n_pk))
    gen = np.random.Generator(np.random.Philox(key=config.seed).jumped())
    rates = np.empty((2, config.trials))
    parts = []
    for lo in range(0, config.trials, chunk):
        hi = min(lo + chunk, config.trials)
        tau = simulate_tau(scheme.lam, n, n_pk, scheme.r, gen, size=(hi - lo, 2))
        rates[:, lo:hi] = (n / (tau[:, :, -1] + n_theta)).T
        parts.append(_decode(d1[lo:hi, None] / theta + tau[:, 0] / n_theta,
                             d2[lo:hi, None] / theta + tau[:, 1] / n_theta, scheme, info))
    out1, out2, fails = zip(*parts)
    # A running sum in trial order: np.sum adds pairwise, which changes the last bits.
    rate_sum = np.cumsum(rates, axis=1)[:, -1]
    return (np.concatenate(out1), np.concatenate(out2), sum(fails),
            tuple(rate_sum / config.trials))
