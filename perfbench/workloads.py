"""Workload command lists and the correctness gate for every operation.

An operation is one ``python -m ic_outage.cli ...`` invocation.  Each
workload is a fixed list of them; the workload seed only enters as the
``--seed`` of every ``simulate`` command, so the closed-form grids are the
same for every seed.

Why these workloads:

* ``closed-form``: the curve and single-point use (``analyze``, ``sweep``),
  plus the two documented error exits.  Time goes to import, ``lambda_bar``
  and the ``analysis`` layer; the simulator is idle.
* ``fluid``: ``simulate --mode fluid --check`` over the N ladder 1, 16, 64.
  ``fluid_outage_flags`` dominates; its time and memory grow as N^2.
  N=128 is left out because the (16384, N, N) overlap tensor would need
  4-6 GB, too close to the 8 GB of the 2-core reference machine.
* ``stochastic``: ``simulate --mode stochastic --check`` at N=10, n=1e5.
  ``simulate_tau`` dominates (O(n) geometric draws per trial to read N of
  them); the fluid kernel is unused.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

DEFAULT_SEED = 0          # seed whose outputs are stored under reference/
FLUID_N_MAX = 64
FLUID_N_EXCLUDED = {
    128: "the N^2 overlap tensor of one 16384-trial chunk needs about 4-6 GB "
    "of RSS, too close to the 8 GB of the 2-core reference machine"
}

GAUSSIAN = "configs/gaussian.json"
DISCRETE = "configs/discrete.json"

# Relative tolerance for numeric closed-form outputs.  Tight enough to catch
# any real change of value, loose enough for a reordered (vectorised) sum.
RTOL = 1e-9
ATOL = 1e-12


@dataclass(frozen=True)
class Op:
    """One CLI invocation and how its result is judged.

    ``kind`` selects the gate: ``analyze`` (JSON compared numerically with the
    reference), ``sweep`` (CSV compared numerically with the reference),
    ``error`` (documented exit code and message), ``fluid`` and
    ``stochastic`` (``--check`` must pass and compare at least one user;
    fluid output at the default seed must equal the reference byte for byte).
    ``work`` is the number of CSV rows (sweep) or trials (simulate).
    """

    name: str
    kind: str
    args: tuple[str, ...]
    exit_code: int = 0
    stderr_has: str = ""
    work: int = 0
    sim: dict = field(default_factory=dict, compare=False)

    @property
    def command(self) -> str:
        return self.args[0]

    def argv(self, out_dir: Path) -> list[str]:
        """CLI arguments with the output placeholder resolved."""
        return [str(out_dir / f"{self.name}.csv") if a == "{out}" else a for a in self.args]


def _analyze(name, channel, lam, r, mode):
    args = ("analyze", "--channel", channel, "--lambda", lam, "--r", r, "--d", "5",
            "--mode", mode, "--json")
    return Op(name, "analyze", args)


def _sweep(name, channel, lo, hi, steps, modes, ns):
    args = ["sweep", "--channel", channel, "--variable", "lambda", "--lo", lo, "--hi", hi,
            "--steps", str(steps), "--d", "5", "--r", "1.5", "--n", ",".join(map(str, ns))]
    for m in modes:
        args += ["--mode", m]
    args += ["--out", "{out}"]
    return Op(name, "sweep", tuple(args), work=steps * len(modes) * len(ns) * 2)


def _simulate(name, mode, channel, lam, decoder, n_packets, trials, seed, n_bits=None, r=1.5):
    args = ["simulate", "--channel", channel, "--lambda", str(lam), "--r", str(r),
            "--n-packets", str(n_packets), "--d", "1", "--decoder", decoder,
            "--trials", str(trials), "--seed", str(seed), "--mode", mode, "--check"]
    if n_bits is not None:
        args += ["--n", str(n_bits)]
    sim = dict(channel=channel, lam=lam, r=r, n_packets=n_packets, d_max=1.0,
               decoder=decoder, trials=trials, seed=seed, mode=mode)
    return Op(name, mode, tuple(args), work=trials, sim=sim)


def closed_form(seed: int) -> list[Op]:
    return [
        _analyze("analyze-gaussian-tin", GAUSSIAN, "1.0", "1.5", "tin"),
        _analyze("analyze-gaussian-di", GAUSSIAN, "1.0", "1.5", "di"),
        _analyze("analyze-discrete-tin", DISCRETE, "0.1", "1.5", "tin"),
        _sweep("sweep-gaussian", GAUSSIAN, "0.3", "4.9", 2000, ("tin", "di"), (4, 64)),
        _sweep("sweep-discrete", DISCRETE, "0.01", "0.17", 500, ("tin",), (4, 64)),
        Op("error-discrete-di", "error",
           ("analyze", "--channel", DISCRETE, "--lambda", "0.1", "--r", "1.5", "--mode", "di"),
           exit_code=2, stderr_has="nonpositive denominator C*-C_cross"),
        Op("error-above-lambda-bar", "error",
           ("analyze", "--channel", GAUSSIAN, "--lambda", "5.5"),
           exit_code=3, stderr_has="exceeds converse threshold"),
    ]


# (N, trials): N=1 and N=16 run enough trials (>= 4 chunks of 16384) for
# IC_OUTAGE_THREADS=2 to split them over two threads; N=64 runs two chunks
# on one thread, which keeps its peak RSS near 1.6 GB.
FLUID_LADDER = ((1, 262144), (16, 131072), (FLUID_N_MAX, 32768))


def fluid(seed: int) -> list[Op]:
    ops = []
    for tag, channel, lam, decoder in (("gaussian-tin", GAUSSIAN, 1.0, "tin"),
                                       ("gaussian-di", GAUSSIAN, 1.0, "di"),
                                       ("discrete-tin", DISCRETE, 0.1, "tin")):
        for n_packets, trials in FLUID_LADDER:
            ops.append(_simulate(f"fluid-{tag}-N{n_packets}", "fluid", channel, lam,
                                 decoder, n_packets, trials, seed))
    return ops


def stochastic(seed: int) -> list[Op]:
    return [
        _simulate(f"stochastic-{tag}", "stochastic", channel, lam, "tin", 10, 400, seed,
                  n_bits=100000)
        for tag, channel, lam in (("gaussian-tin", GAUSSIAN, 1.0),
                                  ("discrete-tin", DISCRETE, 0.1))
    ]


WORKLOADS = {"closed-form": closed_form, "fluid": fluid, "stochastic": stochastic}


# --------------------------------------------------------------------------
# Gates


def users_compared(op: Op) -> int:
    """Users whose closed form ``simulate --check`` compares against.

    The CLI skips a user when rho < 0 or chi1 is false, and still prints
    "check passed" when it skips both; this recomputes the same inputs
    through ``analysis.outage_inputs`` so such a vacuous check can be failed.
    """
    from ic_outage import analysis, channel

    s = op.sim
    ch = channel.load_channel(str(HERE.parent / s["channel"]))
    if isinstance(ch, channel.GaussianIC):
        info = channel.gaussian_info_quantities(ch)
    else:
        # The CLI's default inputs: uniform over each alphabet.
        info = channel.info_quantities(
            ch,
            channel.InputDistribution(np.full(ch.x1_size, 1.0 / ch.x1_size)),
            channel.InputDistribution(np.full(ch.x2_size, 1.0 / ch.x2_size)),
        )
    scheme = analysis.SchemeParams(lam=s["lam"], r=s["r"], n_packets=s["n_packets"],
                                   d_max=s["d_max"], decoder=s["decoder"])
    inputs = analysis.outage_inputs(info, scheme)
    return sum(1 for j in (0, 1) if inputs.rho[j] >= 0 and inputs.chi1[j])


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


def _same_json(out, ref, path="$") -> str | None:
    if isinstance(ref, dict):
        if not isinstance(out, dict) or sorted(out) != sorted(ref):
            return f"{path}: keys differ"
        for k in ref:
            if (why := _same_json(out[k], ref[k], f"{path}.{k}")) is not None:
                return why
        return None
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return f"{path}: length differs"
        for i, (o, r) in enumerate(zip(out, ref)):
            if (why := _same_json(o, r, f"{path}[{i}]")) is not None:
                return why
        return None
    if isinstance(ref, float) or (isinstance(ref, int) and not isinstance(ref, bool)):
        if isinstance(out, bool) or not isinstance(out, (int, float)) or not _close(out, ref):
            return f"{path}: {out!r} != {ref!r}"
        return None
    return None if out == ref else f"{path}: {out!r} != {ref!r}"


# CSV columns compared as numbers; all others must match as strings.
_NUMERIC_COLUMNS = {"value", "rho", "beta", "kappa", "p_outage_finiteN",
                    "p_outage_limit", "epsilon"}


def compare_sweep_csv(text: str, ref_text: str) -> str | None:
    """Same header, rows, blank-cell pattern and labels; numbers within RTOL."""
    out_rows = list(csv.reader(io.StringIO(text)))
    ref_rows = list(csv.reader(io.StringIO(ref_text)))
    if not ref_rows or out_rows[:1] != ref_rows[:1]:
        return "CSV header differs"
    if len(out_rows) != len(ref_rows):
        return f"CSV has {len(out_rows) - 1} rows, reference {len(ref_rows) - 1}"
    header = ref_rows[0]
    for i, (o_row, r_row) in enumerate(zip(out_rows[1:], ref_rows[1:]), start=1):
        if len(o_row) != len(r_row):
            return f"row {i}: {len(o_row)} cells, reference {len(r_row)}"
        for col, o, r in zip(header, o_row, r_row):
            if (o == "") != (r == ""):
                return f"row {i} {col}: blank pattern differs ({o!r} vs {r!r})"
            if o == r:
                continue
            if col in _NUMERIC_COLUMNS:
                try:
                    if _close(float(o), float(r)):
                        continue
                except ValueError:
                    pass
            return f"row {i} {col}: {o!r} != {r!r}"
    return None


def _sim_invariants(op: Op, stdout: str) -> str | None:
    try:
        result = json.loads(stdout)
        trials = result["trials"]
        fails = result["per_codeword_failures"]
        outage = result["outage"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable simulate output: {exc}"
    s = op.sim
    if (trials, result.get("seed"), result.get("mode")) != (s["trials"], s["seed"], s["mode"]):
        return "simulate output echoes the wrong trials, seed or mode"
    if len(fails) != 2 or any(len(row) != s["n_packets"] for row in fails):
        return "per_codeword_failures has the wrong shape"
    for p, row in zip(outage, fails):
        k = p * trials
        if abs(k - round(k)) > 1e-6 * trials or not max(row) <= round(k) <= min(sum(row), trials):
            return f"outage {p} is inconsistent with per-codeword failures"
    return None


def reference_text(op: Op) -> str:
    if op.kind == "sweep":
        return gzip.decompress((REFERENCE_DIR / f"{op.name}.csv.gz").read_bytes()).decode()
    return (REFERENCE_DIR / f"{op.name}.json").read_text()


def judge(op: Op, seed: int, returncode: int, stdout: str, stderr: str,
          out_file: Path | None = None, compared: int | None = None) -> str | None:
    """Return None when the operation passed, else the reason it failed.

    ``compared`` is ``users_compared(op)`` for simulate operations; pass it
    in to avoid recomputing it for every pass.
    """
    if returncode != op.exit_code:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {returncode}, documented {op.exit_code}: {tail[0]}"
    if op.kind == "error":
        return None if op.stderr_has in stderr else f"stderr lacks {op.stderr_has!r}"
    if op.kind == "analyze":
        try:
            out = json.loads(stdout)
        except ValueError:
            return "analyze printed no JSON"
        return _same_json(out, json.loads(reference_text(op)))
    if op.kind == "sweep":
        m = re.search(r"wrote (\d+) rows", stdout)
        if not m or int(m.group(1)) != op.work:
            return f"sweep reported {m.group(1) if m else 'no'} rows, expected {op.work}"
        return compare_sweep_csv(out_file.read_text(), reference_text(op))
    # simulate: fluid or stochastic
    if "check passed" not in stderr:
        return "simulate --check did not pass"
    if compared is None:
        compared = users_compared(op)
    if compared < 1:
        return "simulate --check compared no user"
    if (why := _sim_invariants(op, stdout)) is not None:
        return why
    if op.kind == "fluid" and seed == DEFAULT_SEED and stdout != reference_text(op):
        return "fluid output differs from the single-thread reference"
    return None
