"""Record the reference outputs the correctness gate compares against.

Usage, from the root of the repository::

    python3 perfbench/record_reference.py

Runs every ``analyze``, ``sweep`` and fluid ``simulate`` operation of the
workloads at the default seed with ``IC_OUTAGE_THREADS=1`` (the
single-thread reference that the two-thread benchmark runs must reproduce
byte for byte) and writes the outputs to ``perfbench/reference/``.
Re-record only when a change of the program's output is intended, and say
so where the change is described.
"""

from __future__ import annotations

import gzip
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads as wl
from run import ROOT, child_env


def main() -> int:
    env = dict(child_env(), IC_OUTAGE_THREADS="1")
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=wl.HERE) as tmp:
        for workload in ("closed-form", "fluid"):
            for op in wl.WORKLOADS[workload](wl.DEFAULT_SEED):
                if op.kind not in ("analyze", "sweep", "fluid"):
                    continue
                proc = subprocess.run([sys.executable, "-m", "ic_outage.cli", *op.argv(Path(tmp))],
                                      env=env, cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != op.exit_code:
                    print(f"{op.name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    return 1
                if op.kind == "sweep":
                    data = (Path(tmp) / f"{op.name}.csv").read_bytes()
                    (wl.REFERENCE_DIR / f"{op.name}.csv.gz").write_bytes(
                        gzip.compress(data, compresslevel=9, mtime=0))
                else:
                    (wl.REFERENCE_DIR / f"{op.name}.json").write_text(proc.stdout)
                print(f"recorded {op.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
