"""Benchmark of the ic_outage CLI, end to end and layer by layer.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload closed-form --seed 0 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``closed-form``, ``fluid``, ``stochastic``.

``--trace 0`` measures the end-to-end metrics.  For ``--seconds`` it cycles
through the workload's command list, each command a fresh
``python -m ic_outage.cli`` process with ``PYTHONPATH=src`` and
``IC_OUTAGE_THREADS=2``, and times a fresh ``python -c "import ic_outage"``
once per cycle (``setup_s``).  Timings are medians over the samples of each
command.  Every command's output goes through the correctness gate in
``workloads.judge``.

``--trace 1`` measures the per-layer metrics: one gated pass of fresh
processes (per-N peak RSS and the check counts), ``python -X importtime``
for the scipy import cost, and in-process replays of the same commands in
child processes, untraced and traced in turn, twice each (see ``trace.py``).
The per-layer figures come from the last traced replay; the tracing overhead
compares the median traced and untraced replay times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
list the metrics by name and unit.  A result file with the machine and
provenance record is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

ROOT = wl.HERE.parent
OUT_DIR = wl.HERE / "out"
THREADS = "2"            # IC_OUTAGE_THREADS for every command; the machine has 2 cores
SETUP_MIN_SAMPLES = 5     # fresh imports timed per run, at least
IMPORTTIME_REPEATS = 3
REPLAY_ROUNDS = 2         # alternating untraced/traced in-process replays

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ, IC_OUTAGE_THREADS=THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", os.environ.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], stdout_path: Path, stderr_path: Path) -> tuple[int, float, float]:
    """Run one process; return (exit code, wall seconds, max RSS in MB).

    The RSS comes from ``wait4`` on this child alone.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_op(op, seed, compared) -> dict:
    """Run one operation as a fresh process and judge its output."""
    stdout_path = OUT_DIR / f"{op.name}.stdout"
    stderr_path = OUT_DIR / f"{op.name}.stderr"
    code, wall, rss = run_child([sys.executable, "-m", "ic_outage.cli", *op.argv(OUT_DIR)],
                                stdout_path, stderr_path)
    failure = wl.judge(op, seed, code, stdout_path.read_text(), stderr_path.read_text(),
                       OUT_DIR / f"{op.name}.csv", compared.get(op.name))
    return {"op": op, "wall": wall, "rss_mb": rss, "failure": failure}


def run_pass(ops, seed, compared) -> list[dict]:
    """One pass over the command list, each command a fresh process."""
    return [run_op(op, seed, compared) for op in ops]


def import_seconds() -> float:
    """Wall time of one fresh ``python -c "import ic_outage"``."""
    code, wall, _ = run_child([sys.executable, "-c", "import ic_outage"],
                              OUT_DIR / "setup.stdout", OUT_DIR / "setup.stderr")
    if code != 0:
        raise RuntimeError("import ic_outage failed: "
                           + (OUT_DIR / "setup.stderr").read_text()[-500:])
    return wall


def measure(ops, seed, compared, seconds) -> tuple[list[list[dict]], list[float]]:
    """Cycle through the command list for ``seconds``; return each
    command's results and the fresh-import timings.

    Every command runs at least once; after that the next command (or, at
    the start of a cycle, the import timing and the command) runs only if
    its previous duration says it ends within ``seconds``.  One import is
    timed per cycle, so the set-up samples spread over the run like the
    commands do.  The first import only warms the caches.
    """
    import_seconds()
    per_op = [[] for _ in ops]
    imports, last_import = [], 0.0
    start = time.perf_counter()
    for i in itertools.count():
        k = i % len(ops)
        if i >= len(ops):
            cost = per_op[k][-1]["wall"] + (last_import if k == 0 else 0.0)
            if time.perf_counter() - start + cost > seconds:
                break
        if k == 0:
            last_import = import_seconds()
            imports.append(last_import)
        per_op[k].append(run_op(ops[k], seed, compared))
    while len(imports) < SETUP_MIN_SAMPLES:
        imports.append(import_seconds())
    return per_op, imports


def end_to_end(per_op: list[list[dict]], setup_s: float) -> dict:
    """wall_s sums each command's median wall time; the throughput divides
    the work (sweep rows or simulated trials) by the summed median wall time
    of the commands doing it; peak_rss_mb is the largest of the commands'
    median max-RSS."""
    ops = [runs[0]["op"] for runs in per_op]
    med = [statistics.median(r["wall"] for r in runs) for runs in per_op]
    work_wall = sum(m for op, m in zip(ops, med) if op.work)
    return {
        "setup_s": setup_s,
        "wall_s": sum(med),
        "work_per_s": sum(op.work for op in ops) / work_wall,
        "peak_rss_mb": max(statistics.median(r["rss_mb"] for r in runs) for runs in per_op),
    }


def scipy_import_seconds() -> float:
    """Median cumulative import time of scipy under ``python -X importtime``."""
    argv = [sys.executable, "-X", "importtime", "-c", "import ic_outage"]
    values = []
    for _ in range(IMPORTTIME_REPEATS):
        code, _, _ = run_child(argv, OUT_DIR / "importtime.stdout", OUT_DIR / "importtime.stderr")
        if code != 0:
            raise RuntimeError("python -X importtime -c 'import ic_outage' failed")
        values.append(outermost_import_seconds(
            (OUT_DIR / "importtime.stderr").read_text(), "scipy"))
    return statistics.median(values)


_IMPORTTIME_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def outermost_import_seconds(importtime_log: str, package: str) -> float:
    """Sum the cumulative times of the imports of ``package`` (or its
    submodules) that no other import of it encloses."""
    entries = [(len(m.group(3)) // 2, m.group(4), int(m.group(2)))
               for m in map(_IMPORTTIME_LINE.match, importtime_log.splitlines()) if m]
    total, inside = 0, []     # inside: depths of enclosing imports of package
    for depth, name, cumulative in reversed(entries):   # parents come first
        while inside and inside[-1] >= depth:
            inside.pop()
        if name == package or name.startswith(package + "."):
            if not inside:
                total += cumulative
            inside.append(depth)
    return total / 1e6


def replay_child(workload: str, seed: int, traced: bool) -> dict:
    out = OUT_DIR / f"replay-{workload}-{'traced' if traced else 'plain'}.json"
    argv = [sys.executable, str(wl.HERE / "trace.py"), "--workload", workload,
            "--seed", str(seed), "--out", str(out)] + (["--trace"] if traced else [])
    log = OUT_DIR / "replay.log"
    code, _, _ = run_child(argv, log, log)
    if code != 0:
        raise RuntimeError(f"in-process replay failed:\n{log.read_text()[-2000:]}")
    return json.loads(out.read_text())


def per_layer(workload: str, seed: int, sub_pass: list[dict], compared: dict) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and the replays' details."""
    plains, traceds = [], []
    for _ in range(REPLAY_ROUNDS):
        plains.append(replay_child(workload, seed, traced=False))
        traceds.append(replay_child(workload, seed, traced=True))
    traced = traceds[-1]      # its spans are the ones written out
    fn = traced["trace"]["functions"]
    attrs = traced["trace"]["attrs"]
    layers = traced["trace"]["layers"]

    def self_s(name):
        return fn.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return fn.get(name, {}).get("calls", 0)

    m = {"cli.import.scipy_s": (scipy_import_seconds(), "s")}
    for command in ("analyze", "sweep", "simulate"):
        m[f"cli.{command}.self_s"] = (self_s(f"cli.{command}"), "s")
    m["cli.check.users_compared"] = (sum(compared.values()), "count")

    m["channel.lambda_bar.calls"] = (calls("channel.lambda_bar"), "count")
    m["channel.lambda_bar.self_s"] = (self_s("channel.lambda_bar"), "s")
    m["channel.info_quantities.self_s"] = (self_s("channel.info_quantities"), "s")

    eps_calls = calls("analysis.epsilon_bound")
    eps_incl = fn.get("analysis.epsilon_bound", {}).get("incl_s", 0.0)
    m["analysis.epsilon_bound.calls"] = (eps_calls, "count")
    m["analysis.epsilon_bound.us_per_call"] = (1e6 * eps_incl / eps_calls if eps_calls else 0.0, "us")
    m["analysis.r0.self_s"] = (self_s("analysis.r0"), "s")
    m["analysis.rho.calls"] = (calls("analysis.rho"), "count")
    m["analysis.rho_per_epsilon"] = (calls("analysis.rho") / eps_calls if eps_calls else 0.0, "ratio")
    for name in ("outage_ub_finite_n", "epsilon_gaussian_tin", "epsilon_gaussian_di"):
        m[f"analysis.{name}.self_s"] = (self_s(f"analysis.{name}"), "s")

    m["simulator.fluid_outage_flags.self_s"] = (self_s("simulator.fluid_outage_flags"), "s")
    fluid_runs = [a for a in attrs.get("simulator.run_trials", []) if a[1] == "fluid"]
    for n_packets, _ in wl.FLUID_LADDER:
        runs = [a for a in fluid_runs if a[2] == n_packets]
        rate = sum(a[3] for a in runs) / sum(a[0] for a in runs) if runs else 0.0
        m[f"simulator.fluid.trials_per_s.N{n_packets}"] = (rate, "1/s")
        rss = [r["rss_mb"] for r in sub_pass
               if r["op"].kind == "fluid" and r["op"].sim["n_packets"] == n_packets]
        m[f"simulator.fluid.peak_rss_mb.N{n_packets}"] = (max(rss, default=0.0), "MB")
    m["simulator.fluid.overlap_elems"] = (
        sum(t * n * n for _, t, n in attrs.get("simulator.fluid_outage_flags", [])), "count")
    taus = attrs.get("simulator.simulate_tau", [])
    m["simulator.simulate_tau.calls"] = (calls("simulator.simulate_tau"), "count")
    m["simulator.simulate_tau.self_s"] = (self_s("simulator.simulate_tau"), "s")
    m["simulator.stochastic.draws"] = (sum(n for _, n, _ in taus), "count")
    m["simulator.stochastic.draws_used_ratio"] = (
        sum(k for _, _, k in taus) / sum(n for _, n, _ in taus) if taus else 0.0, "ratio")
    for name in ("overlap_fractions", "decode_success", "run_trials"):
        m[f"simulator.{name}.self_s"] = (self_s(f"simulator.{name}"), "s")

    for layer in ("cli", "channel", "analysis", "simulator"):
        m[f"{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    m["trace.traced_pass_s"] = (traced["pass_s"], "s")
    m["trace.overhead_frac"] = (statistics.median(r["pass_s"] for r in traceds)
                                / statistics.median(r["pass_s"] for r in plains) - 1.0, "ratio")

    replays = plains + [{k: v for k, v in r.items() if k != "trace"} for r in traceds]
    for rep in replays:
        bad = [c["name"] for c in rep["commands"] if c["exit_code"] != c["expected"]]
        if bad:
            raise RuntimeError(f"in-process replay: unexpected exit codes from {bad}")
    return m, replays


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    ref_file = ROOT / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def provenance(workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ic_outage").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    versions = {"python": platform.python_version()}
    for package in ("numpy", "scipy", "click"):
        versions[package] = importlib.metadata.version(package)
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "versions": versions,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "ic_outage_threads": THREADS,
        "workload": workload,
        "seed": seed,
        "fluid_n_max": wl.FLUID_N_MAX,
        "fluid_n_excluded": {str(k): v for k, v in wl.FLUID_N_EXCLUDED.items()},
    }


def fail_frac(results: list[dict]) -> float:
    """Failed operations divided by attempted operations."""
    return sum(1 for r in results if r["failure"]) / len(results)


def _headline(workload: str, e2e: dict, failed_share: float) -> dict:
    """The end-to-end figures under the names users read them by."""
    throughput = ("rows_per_s", "rows/s") if workload == "closed-form" else ("trials_per_s",
                                                                             "trials/s")
    return {
        "setup_s": (e2e["setup_s"], "s"),
        "wall_s": (e2e["wall_s"], "s"),
        throughput[0]: (e2e["work_per_s"], throughput[1]),
        "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
        "fail_frac": (failed_share, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ic_outage CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ic_outage" / "cli.py").is_file():
        print("error: run from the repository root; src/ic_outage is missing", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))

    ops = wl.WORKLOADS[args.workload](args.seed)
    compared = {op.name: wl.users_compared(op) for op in ops if op.sim}
    record = {"provenance": provenance(args.workload, args.seed), "trace": args.trace,
              "seconds": args.seconds}

    if args.trace:
        one_pass = run_pass(ops, args.seed, compared)
        per_op = [[r] for r in one_pass]
        metrics, record["replays"] = per_layer(args.workload, args.seed, one_pass, compared)
        record["provenance"]["trace_overhead_frac"] = metrics["trace.overhead_frac"][0]
    else:
        per_op, imports = measure(ops, args.seed, compared, args.seconds)
        e2e = end_to_end(per_op, statistics.median(imports))
        record["setup_samples_s"] = imports
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in e2e.items()}

    results = [r for runs in per_op for r in runs]
    attempted = len(results)
    failures = [(r["op"].name, r["failure"]) for r in results if r["failure"]]
    failed = len(failures)
    shown = metrics if args.trace else _headline(args.workload, e2e, fail_frac(results))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} operations, "
          f"{failed} failed")
    for name, reason in failures[:20]:
        print(f"  FAILED {name}: {reason}")
    for name, (value, unit) in shown.items():
        print(f"  {name:42s} {value:.6g} {unit}")

    record.update(
        attempted=attempted, failed=failed, failures=failures,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        headline={k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        commands={runs[0]["op"].name: {"wall_s": [r["wall"] for r in runs],
                                       "rss_mb": [r["rss_mb"] for r in runs]}
                  for runs in per_op},
    )
    result_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=str))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
