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
from dataclasses import dataclass, field

import numpy as np

from .channel import InfoQuantities
from .analysis import TIN, DI, AnalysisError, SchemeParams, avg_rate

__all__ = [
    "SimConfig",
    "SimResult",
    "Schedule",
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


@dataclass(frozen=True)
class Schedule:
    """Unit-length codeword intervals (start, start+1) on the scaled axis."""

    starts: np.ndarray

    def intervals(self) -> list[tuple[float, float]]:
        return [(float(s), float(s) + 1.0) for s in self.starts]


def overlap_fractions(schedule1: Schedule, schedule2: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """Per-codeword interfered fraction for each user.

    Entry j of the first array is the total length of user 1's j-th interval
    covered by user 2's intervals, and vice versa.  Unit intervals overlap by
    max(0, 1 - |start difference|).
    """
    a = np.asarray(schedule1.starts, dtype=float)
    b = np.asarray(schedule2.starts, dtype=float)
    ov = np.clip(1.0 - np.abs(a[:, None] - b[None, :]), 0.0, None)
    return ov.sum(axis=1), ov.sum(axis=0)


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


def _fluid_positions(offsets: np.ndarray, n_packets: int, r: float) -> np.ndarray:
    """Codeword start positions, shape (trials, N)."""
    taus = np.array([tau_bar(j, r) for j in range(1, n_packets + 1)])
    return offsets[:, None] + taus[None, :]


def fluid_outage_flags(
    d1: np.ndarray,
    d2: np.ndarray,
    scheme: SchemeParams,
    info: InfoQuantities,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized fluid-mode trials.

    Returns (outage1, outage2, fail_counts) where fail_counts[i, j] counts
    trials in which codeword j of user i+1 failed its threshold test.
    """
    n = scheme.n_packets
    r_code = scheme.code_rate
    theta = 1.0 / (n * r_code)
    fail_counts = np.zeros((2, n), dtype=np.int64)
    o1_parts, o2_parts = [], []
    for lo in range(0, len(d1), _CHUNK):
        hi = min(lo + _CHUNK, len(d1))
        p1 = _fluid_positions(d1[lo:hi] / theta, n, scheme.r)
        p2 = _fluid_positions(d2[lo:hi] / theta, n, scheme.r)
        ov = np.clip(1.0 - np.abs(p1[:, :, None] - p2[:, None, :]), 0.0, None)
        mu1 = ov.sum(axis=2)
        mu2 = ov.sum(axis=1)
        ok1 = decode_success(mu1, info, 1, r_code, scheme.decoder[0])
        ok2 = decode_success(mu2, info, 2, r_code, scheme.decoder[1])
        fail_counts[0] += (~ok1).sum(axis=0)
        fail_counts[1] += (~ok2).sum(axis=0)
        o1_parts.append(~ok1.all(axis=1))
        o2_parts.append(~ok2.all(axis=1))
    return np.concatenate(o1_parts), np.concatenate(o2_parts), fail_counts


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
        return json.dumps(
            {
                "outage": list(self.outage),
                "halfwidth": list(self.halfwidth),
                "rates": list(self.rates),
                "trials": self.trials,
                "seed": self.seed,
                "mode": self.mode,
                "per_codeword_failures": self.per_codeword_failures,
            },
            indent=indent,
        )


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
        out1, out2, fails = _run_fluid(d1, d2, scheme, info)
        rates = (
            avg_rate(scheme.n_packets, scheme.r, scheme.lam),
            avg_rate(scheme.n_packets, scheme.r, scheme.lam),
        )
    else:
        out1, out2, fails, rates = _run_stochastic(config, d1, d2, info)
    p1 = float(out1.mean())
    p2 = float(out2.mean())
    return SimResult(
        outage=(p1, p2),
        halfwidth=(_halfwidth(p1, config.trials), _halfwidth(p2, config.trials)),
        rates=rates,
        trials=config.trials,
        seed=config.seed,
        mode=config.mode,
        per_codeword_failures=[[int(v) for v in row] for row in fails],
    )


def _run_fluid(d1, d2, scheme, info):
    text = os.environ.get("IC_OUTAGE_THREADS", "1") or "1"
    try:
        n_workers = int(text)
    except ValueError:
        raise AnalysisError(f"IC_OUTAGE_THREADS must be an integer, got {text!r}") from None
    n_workers = min(n_workers, -(-len(d1) // _CHUNK))   # at most one per chunk
    if n_workers <= 1 or len(d1) < 4 * _CHUNK:
        return fluid_outage_flags(d1, d2, scheme, info)
    from concurrent.futures import ThreadPoolExecutor

    bounds = np.linspace(0, len(d1), n_workers + 1).astype(int)
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        parts = list(
            pool.map(
                lambda se: fluid_outage_flags(d1[se[0]:se[1]], d2[se[0]:se[1]], scheme, info),
                zip(bounds[:-1], bounds[1:]),
            )
        )
    out1 = np.concatenate([p[0] for p in parts])
    out2 = np.concatenate([p[1] for p in parts])
    fails = sum(p[2] for p in parts)
    return out1, out2, fails


def _run_stochastic(config: SimConfig, d1, d2, info):
    scheme = config.scheme
    n = config.n
    n_pk = scheme.n_packets
    r_code = scheme.code_rate
    n_theta = n / (n_pk * r_code)
    out = np.zeros((2, config.trials), dtype=bool)
    fails = np.zeros((2, n_pk), dtype=np.int64)
    rate_sum = np.zeros(2)
    for t in range(config.trials):
        rng = _trial_rng(config.seed, t)
        taus = [simulate_tau(scheme.lam, n, n_pk, scheme.r, rng) for _ in range(2)]
        starts = []
        for i, (d, tau) in enumerate(zip((d1[t], d2[t]), taus)):
            theta_n = 1.0 / (n_pk * r_code)
            starts.append(d / theta_n + tau / n_theta)
            rate_sum[i] += n / (tau[-1] + n_theta)
        s1, s2 = Schedule(np.asarray(starts[0])), Schedule(np.asarray(starts[1]))
        mu1, mu2 = overlap_fractions(s1, s2)
        ok1 = decode_success(mu1, info, 1, r_code, scheme.decoder[0])
        ok2 = decode_success(mu2, info, 2, r_code, scheme.decoder[1])
        fails[0] += ~ok1
        fails[1] += ~ok2
        out[0, t] = not ok1.all()
        out[1, t] = not ok2.all()
    rates = tuple(rate_sum / config.trials)
    return out[0], out[1], fails, rates
