"""Self-test of the benchmark harness.

Run from the root of the repository::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

The gate tests inject one failure each (a wrong exit code, a changed
reference value, a ``--check`` that compares no user) and require it to
raise ``fail_frac`` above 0.  The slower ``test_prints_every_metric`` runs
each workload once in both trace modes (about two minutes in all).
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys

import pytest

import run
import workloads as wl

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _from_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    run.OUT_DIR.mkdir(exist_ok=True)


def _op(workload: str, name: str) -> wl.Op:
    return next(op for op in wl.WORKLOADS[workload](wl.DEFAULT_SEED) if op.name == name)


def test_documented_operations_pass():
    ops = [_op("closed-form", n) for n in
           ("analyze-gaussian-tin", "error-discrete-di", "error-above-lambda-bar")]
    results = run.run_pass(ops, wl.DEFAULT_SEED, {})
    assert [r["failure"] for r in results] == [None, None, None]
    assert run.fail_frac(results) == 0


def test_wrong_exit_code_fails():
    op = dataclasses.replace(_op("closed-form", "error-above-lambda-bar"), exit_code=0)
    results = run.run_pass([op], wl.DEFAULT_SEED, {})
    assert "exit code 3, documented 0" in results[0]["failure"]
    assert run.fail_frac(results) == 1.0


def test_changed_reference_value_fails(monkeypatch):
    op = _op("closed-form", "analyze-gaussian-tin")
    ref = json.loads(wl.reference_text(op))
    ref["epsilon"]["value"] *= 1 + 1e-7
    changed_dir = run.OUT_DIR / "changed-reference"
    changed_dir.mkdir(exist_ok=True)
    (changed_dir / f"{op.name}.json").write_text(json.dumps(ref))
    monkeypatch.setattr(wl, "REFERENCE_DIR", changed_dir)
    results = run.run_pass([op], wl.DEFAULT_SEED, {})
    assert "$.epsilon.value" in results[0]["failure"]
    assert run.fail_frac(results) == 1.0


def test_sweep_comparison_is_numeric_but_strict_on_shape():
    ref = wl.reference_text(_op("closed-form", "sweep-discrete"))
    assert wl.compare_sweep_csv(ref, ref) is None
    lines = ref.splitlines(keepends=True)
    cells = lines[1].rstrip("\n").split(",")
    rho = cells[5]
    cells[5] = repr(float(rho) * (1 + 1e-12))
    assert wl.compare_sweep_csv("".join([lines[0], ",".join(cells) + "\n", *lines[2:]]), ref) is None
    cells[5] = repr(float(rho) * (1 + 1e-7))
    changed = "".join([lines[0], ",".join(cells) + "\n", *lines[2:]])
    assert "rho" in wl.compare_sweep_csv(changed, ref)
    cells[5] = ""
    blanked = "".join([lines[0], ",".join(cells) + "\n", *lines[2:]])
    assert "blank pattern" in wl.compare_sweep_csv(blanked, ref)
    assert "rows" in wl.compare_sweep_csv("".join(lines[:-1]), ref)


def test_fluid_output_must_match_reference_byte_for_byte():
    op = _op("fluid", "fluid-gaussian-tin-N1")
    ref = wl.reference_text(op)
    assert wl.judge(op, wl.DEFAULT_SEED, 0, ref, "check passed\n", compared=2) is None
    reformatted = json.dumps(json.loads(ref), indent=1) + "\n"
    assert "single-thread reference" in wl.judge(op, wl.DEFAULT_SEED, 0, reformatted,
                                                 "check passed\n", compared=2)


def test_check_comparing_no_user_fails():
    # At r=1.1 chi1 is false for both users of the discrete channel: the CLI
    # still reports "check passed", the gate must not.
    op = wl._simulate("fluid-discrete-r1.1", "fluid", wl.DISCRETE, 0.1, "tin", 16, 2000,
                      wl.DEFAULT_SEED, r=1.1)
    assert wl.users_compared(op) == 0
    results = run.run_pass([op], wl.DEFAULT_SEED, {})
    assert "check passed" in (run.OUT_DIR / f"{op.name}.stderr").read_text()
    assert results[0]["failure"] == "simulate --check compared no user"
    assert run.fail_frac(results) == 1.0


def test_scipy_import_time_is_outermost_cumulative():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:         5 |          5 |         numpy.linalg",
        "import time:        20 |         35 |     scipy.optimize",
        "import time:        40 |         75 |   scipy",
        "import time:         7 |         82 | ic_outage.channel",
        "import time:         3 |          3 | scipy.special",
    ])
    assert run.outermost_import_seconds(log, "scipy") == pytest.approx(78e-6)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_prints_every_metric(workload):
    def bench(trace):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout, _last_json(proc.stdout)

    text, result = bench(0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    throughput = ("rows_per_s", "rows/s") if workload == "closed-form" else ("trials_per_s",
                                                                             "trials/s")
    for name, unit in (("setup_s", "s"), ("wall_s", "s"), throughput, ("peak_rss_mb", "MB"),
                       ("fail_frac", "ratio")):
        assert re.search(rf"^\s+{name}\s+\S+ {re.escape(unit)}$", text, re.M), name
    assert re.search(r"^\s+fail_frac\s+0 ratio$", text, re.M)

    text, result = bench(1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for name, unit in expected.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$", text, re.M), name
    # The layers' self times add up to the traced pass, within the overhead.
    layers = sum(metrics[f"{layer}.self_s"]["value"]
                 for layer in ("cli", "channel", "analysis", "simulator"))
    traced = metrics["trace.traced_pass_s"]["value"]
    overhead = max(metrics["trace.overhead_frac"]["value"], 0.01)
    assert abs(layers - traced) <= overhead * traced
    record = json.loads(
        (run.OUT_DIR / f"result-{workload}-seed0-trace1.json").read_text())["provenance"]
    for key in ("git_sha", "source_sha256", "versions", "nproc", "mem_total_mb",
                "ic_outage_threads", "seed", "trace_overhead_frac", "fluid_n_max",
                "fluid_n_excluded"):
        assert key in record
