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

_CHUNK = 16384


def tau_bar(j: int, r: float) -> float:
    """Limiting codeword start time (in codeword lengths): j*r for bursty
    rates r > 1, r + j - 1 in the gapless regime."""
    if j < 1 or r <= 0:
        raise AnalysisError("need j >= 1 and r > 0")
    return j * r if r > 1.0 else r + j - 1.0


def simulate_tau(
    lam: float, n: int, n_packets: int, r: float, rng: np.random.Generator
) -> np.ndarray:
    """Codeword release times (slots) for one transmitter and one arrival
    realization.

    Draws the Bernoulli arrival stream as geometric interarrival gaps and
    applies the release recursion: packet j goes out when j packets' worth of
    bits have arrived and the previous transmission has finished.
    """
    if n < n_packets:
        raise AnalysisError("packet size rounds to zero bits")
    code_rate = r * lam
    n_theta = n / (n_packets * code_rate)   # codeword length in slots
    bits_per_packet = n / n_packets
    arrivals = np.cumsum(rng.geometric(lam, size=n))
    idx = np.ceil(bits_per_packet * np.arange(1, n_packets + 1)).astype(int) - 1
    xi = arrivals[idx].astype(float)
    tau = np.empty(n_packets)
    tau[0] = xi[0]
    for j in range(1, n_packets):
        tau[j] = max(tau[j - 1] + n_theta, xi[j])
    return tau


def overlap_fractions(starts1, starts2) -> tuple[np.ndarray, np.ndarray]:
    """Per-codeword interfered fraction for each user.

    Takes codeword start positions of shape (N,) or (trials, N).  Entry j of
    the first array is the total length of user 1's j-th unit interval
    covered by user 2's intervals, and vice versa.  Unit intervals overlap by
    max(0, 1 - |start difference|).
    """
    a = np.asarray(starts1, dtype=float)
    b = np.asarray(starts2, dtype=float)
    ov = np.clip(1.0 - np.abs(a[..., :, None] - b[..., None, :]), 0.0, None)
    return ov.sum(axis=-1), ov.sum(axis=-2)


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


def _chunked_outage(d1, d2, profiles, scheme: SchemeParams, info: InfoQuantities):
    """Run ``_decode`` over _CHUNK-trial slices of the offsets (d1, d2).

    ``profiles(lo, hi)`` gives each user's codeword starts relative to its
    activation offset for trials lo..hi-1, in codeword lengths.  Slices run
    on up to IC_OUTAGE_THREADS threads, at most one per chunk and serially
    below four chunks; each slice depends only on its trial indices, so the
    result does not depend on the thread count.
    """
    text = os.environ.get("IC_OUTAGE_THREADS", "1") or "1"
    try:
        n_workers = int(text)
    except ValueError:
        raise AnalysisError(f"IC_OUTAGE_THREADS must be an integer, got {text!r}") from None
    trials = len(d1)
    n_workers = min(n_workers, -(-trials // _CHUNK))   # at most one per chunk
    theta = 1.0 / (scheme.n_packets * scheme.code_rate)

    def decode_slice(lo):
        hi = min(lo + _CHUNK, trials)
        prof1, prof2 = profiles(lo, hi)
        return _decode(d1[lo:hi, None] / theta + prof1, d2[lo:hi, None] / theta + prof2,
                       scheme, info)

    chunks = range(0, trials, _CHUNK)
    if n_workers <= 1 or trials < 4 * _CHUNK:
        parts = [decode_slice(lo) for lo in chunks]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(decode_slice, chunks))
    out1, out2, fails = zip(*parts)
    return np.concatenate(out1), np.concatenate(out2), sum(fails)


def fluid_outage_flags(d1: np.ndarray, d2: np.ndarray, scheme: SchemeParams,
                       info: InfoQuantities) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fluid-mode trials: codewords start at the limit profile tau_bar_j.
    Returns (outage1, outage2, fail_counts) as ``_decode`` does."""
    taus = np.array([tau_bar(j, scheme.r) for j in range(1, scheme.n_packets + 1)])
    return _chunked_outage(d1, d2, lambda lo, hi: (taus, taus), scheme, info)


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


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def run_trials(config: SimConfig, info: InfoQuantities) -> SimResult:
    """Estimate per-user outage frequencies (and rates) over random asynchrony.

    Deterministic for a fixed (seed, trials) pair; trials use independent
    substreams so results do not depend on evaluation order.
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
    """Stochastic-mode trials: codewords start at release times drawn per
    trial from ``_trial_rng(seed, t)``, one chunk of draws at a time."""
    scheme, n = config.scheme, config.n
    n_pk = scheme.n_packets
    n_theta = n / (n_pk * scheme.code_rate)   # codeword length in slots
    rates = np.empty((2, config.trials))

    def profiles(lo, hi):
        tau = np.empty((2, hi - lo, n_pk))
        for t in range(lo, hi):
            rng = _trial_rng(config.seed, t)
            for i in range(2):
                tau[i, t - lo] = simulate_tau(scheme.lam, n, n_pk, scheme.r, rng)
        rates[:, lo:hi] = n / (tau[:, :, -1] + n_theta)
        return tau[0] / n_theta, tau[1] / n_theta

    out1, out2, fails = _chunked_outage(d1, d2, profiles, scheme, info)
    # A running sum in trial order: np.sum adds pairwise, which changes the last bits.
    rate_sum = np.cumsum(rates, axis=1)[:, -1]
    return out1, out2, fails, tuple(rate_sum / config.trials)
