"""Monte Carlo engine for the block transmission scheme.

Codewords are unit-length intervals on the normalized time axis; decoding
succeeds when the code rate clears the overlap-weighted mutual-information
threshold.  No codebooks are generated: this is the capacity-threshold
abstraction, which is exact in the large-blocklength limit and makes the
closed forms directly checkable.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .channel import InfoQuantities
from .analysis import TIN, DI, AnalysisError, SchemeParams, avg_rate

__all__ = [
    "SimConfig",
    "SimResult",
    "tau_bar",
    "simulate_tau",
    "overlap_fractions",
    "decode_success",
    "fluid_outage_flags",
    "run_trials",
]

_CHUNK = 16384           # trials per chunk, at most
_CHUNK_ELEMS = 2**20     # codeword starts per user per chunk, at most


def tau_bar(j: int, r: float) -> float:
    """Limiting codeword start time (in codeword lengths): j*r for bursty
    rates r > 1, r + j - 1 in the gapless regime."""
    if j < 1 or r <= 0:
        raise AnalysisError("need j >= 1 and r > 0")
    return j * r if r > 1.0 else r + j - 1.0


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
    rounding (both simulation modes comply; clear violations raise
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


def _chunked_outage(d1, d2, profiles, scheme: SchemeParams, info: InfoQuantities, threaded):
    """Run ``_decode`` over slices of min(_CHUNK, _CHUNK_ELEMS // N) trials.

    ``profiles(lo, hi)`` gives each user's codeword starts relative to its
    activation offset for trials lo..hi-1, in codeword lengths.  If
    ``threaded``, slices run on up to IC_OUTAGE_THREADS threads, at most one
    per chunk and serially below four chunks; each slice depends only on its
    trial indices, so the result does not depend on the thread count.
    """
    text = os.environ.get("IC_OUTAGE_THREADS", "1") or "1"
    try:
        n_workers = int(text)
    except ValueError:
        raise AnalysisError(f"IC_OUTAGE_THREADS must be an integer, got {text!r}") from None
    trials = len(d1)
    chunk = max(1, min(_CHUNK, _CHUNK_ELEMS // scheme.n_packets))
    chunks = range(0, trials, chunk)
    theta = 1.0 / (scheme.n_packets * scheme.code_rate)

    def decode_slice(lo):
        hi = min(lo + chunk, trials)
        prof1, prof2 = profiles(lo, hi)
        return _decode(d1[lo:hi, None] / theta + prof1, d2[lo:hi, None] / theta + prof2,
                       scheme, info)

    if not threaded or n_workers <= 1 or trials < 4 * chunk:
        parts = [decode_slice(lo) for lo in chunks]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(n_workers, len(chunks))) as pool:
            parts = list(pool.map(decode_slice, chunks))
    out1, out2, fails = zip(*parts)
    return np.concatenate(out1), np.concatenate(out2), sum(fails)


def fluid_outage_flags(d1: np.ndarray, d2: np.ndarray, scheme: SchemeParams,
                       info: InfoQuantities) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fluid-mode trials: codewords start at the limit profile tau_bar_j.
    Returns (outage1, outage2, fail_counts) as ``_decode`` does."""
    taus = np.array([tau_bar(j, scheme.r) for j in range(1, scheme.n_packets + 1)])
    return _chunked_outage(d1, d2, lambda lo, hi: (taus, taus), scheme, info, threaded=True)


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
    on the trial count, the chunk size or the thread count.  Each trial costs
    O(N), in stochastic mode whatever n is.
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
    gen = np.random.Generator(np.random.Philox(key=config.seed).jumped())
    rates = np.empty((2, config.trials))

    def profiles(lo, hi):
        tau = simulate_tau(scheme.lam, n, n_pk, scheme.r, gen, size=(hi - lo, 2))
        rates[:, lo:hi] = (n / (tau[:, :, -1] + n_theta)).T
        return tau[:, 0] / n_theta, tau[:, 1] / n_theta

    out1, out2, fails = _chunked_outage(d1, d2, profiles, scheme, info, threaded=False)
    # A running sum in trial order: np.sum adds pairwise, which changes the last bits.
    rate_sum = np.cumsum(rates, axis=1)[:, -1]
    return out1, out2, fails, tuple(rate_sum / config.trials)
