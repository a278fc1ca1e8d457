"""In-process replay of a workload, with or without span tracing.

Run as a child process of ``run.py``::

    python perfbench/trace.py --workload closed-form --seed 0 --out summary.json [--trace]

It imports ``ic_outage.cli`` and replays the workload's commands through
``cli.main(args, standalone_mode=False)`` in one process, timing each
command.  With ``--trace`` it first wraps every public function in
``__all__`` of ``ic_outage.channel``, ``ic_outage.analysis`` and
``ic_outage.simulator`` with a span recorder, and rebinds every module
global that refers to one of them, so calls across and within modules are
seen.  Nothing under ``src/`` is modified.

Spans are kept in memory and summarised when the replay ends; the raw spans
are written next to the summary as ``<out>.spans.json.gz``.
"""

from __future__ import annotations

import argparse
import functools
import gzip
import inspect
import json
import sys
import threading
import time
import types
from collections import defaultdict
from pathlib import Path

TRACED_MODULES = ("channel", "analysis", "simulator")

# Call attributes recorded for the spans of a few simulator functions; they
# give the per-layer work counts (trials, overlap tensor size, draws).
_ATTRS = {
    "simulator.run_trials": lambda a: (a["config"].mode, a["config"].scheme.n_packets,
                                       a["config"].trials),
    "simulator.fluid_outage_flags": lambda a: (len(a["d1"]), a["scheme"].n_packets),
    "simulator.simulate_tau": lambda a: (a["n"], a["n_packets"]),
}


class Recorder:
    """Collects spans ``[name, start, end, parent, thread, attrs]``.

    Parent stacks are per thread.  A span opened on a thread whose stack is
    empty (a pool worker) takes the innermost open span of the main thread
    as its parent, which is the call that is waiting for the worker.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack: list[list] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def span(self, name: str, attrs=None):
        return _Span(self, name, attrs)

    def wrap(self, name: str, fn):
        extract = _ATTRS.get(name)
        signature = inspect.signature(fn) if extract else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = None
            if extract:
                attrs = extract(signature.bind(*args, **kwargs).arguments)
            with self.span(name, attrs):
                return fn(*args, **kwargs)

        return traced


class _Span:
    __slots__ = ("rec", "record")

    def __init__(self, rec: Recorder, name: str, attrs):
        self.rec = rec
        self.record = [name, 0.0, 0.0, None, threading.get_ident(), attrs]

    def __enter__(self):
        stack = self.rec._stack()
        if stack:
            self.record[3] = stack[-1]
        elif self.rec._main_stack:
            self.record[3] = self.rec._main_stack[-1]
        stack.append(self.record)
        self.rec.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.rec._stack().pop()
        return False


def install(recorder: Recorder) -> int:
    """Wrap the public functions of the traced modules; return how many."""
    import ic_outage
    from ic_outage import cli

    modules = {name: getattr(ic_outage, name) for name in TRACED_MODULES}
    wrappers = {}
    for mod_name, mod in modules.items():
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if isinstance(fn, types.FunctionType):
                wrappers[id(fn)] = recorder.wrap(f"{mod_name}.{attr}", fn)
    for mod in (*modules.values(), cli, ic_outage):
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])
    return len(wrappers)


def _merge(intervals):
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


def _self_segments(start, end, children):
    """Parts of [start, end] that no child span covers."""
    segments, cursor = [], start
    for lo, hi in _merge((max(c[1], start), min(c[2], end)) for c in children):
        if lo > cursor:
            segments.append((cursor, lo))
        cursor = max(cursor, hi)
    if end > cursor:
        segments.append((cursor, end))
    return segments


def summarise(spans: list[list]) -> dict:
    """Per-name calls, inclusive and self seconds, per-layer self seconds,
    and the simulator attributes.

    A span's self time is its duration minus the time its child spans cover.
    Per-name self times add up over threads; a layer's self time is the wall
    time covered by the self segments of its spans, so parallel workers are
    not counted twice and the layers add up to the traced pass time.
    """
    children = defaultdict(list)
    for s in spans:
        if s[3] is not None:
            children[id(s[3])].append(s)
    per_name = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    layer_segments = defaultdict(list)
    for s in spans:
        segments = _self_segments(s[1], s[2], children.get(id(s), ()))
        entry = per_name[s[0]]
        entry["calls"] += 1
        entry["incl_s"] += s[2] - s[1]
        entry["self_s"] += sum(hi - lo for lo, hi in segments)
        layer_segments[s[0].split(".", 1)[0]].extend(segments)
    layers = {layer: sum(hi - lo for lo, hi in _merge(segs))
              for layer, segs in layer_segments.items()}
    attrs = defaultdict(list)
    for s in spans:
        if s[5] is not None:
            attrs[s[0]].append([s[2] - s[1], *s[5]])
    return {"functions": dict(per_name), "layers": layers, "attrs": dict(attrs)}


def _dump_spans(spans: list[list], path: Path) -> None:
    index = {id(s): i for i, s in enumerate(spans)}
    rows = [[s[0], s[1], s[2], index.get(id(s[3]), -1), s[4], s[5]] for s in spans]
    path.write_bytes(gzip.compress(json.dumps(rows).encode(), mtime=0))


def replay(workload: str, seed: int, out_dir: Path, recorder: Recorder | None) -> dict:
    """Run the workload's commands in this process, traced when a recorder
    is given; return timings."""
    sys.path.insert(0, "src")
    from workloads import WORKLOADS

    from ic_outage import cli

    traced = recorder is not None
    wrapped = install(recorder) if traced else 0
    out_dir.mkdir(parents=True, exist_ok=True)
    commands = []
    for op in WORKLOADS[workload](seed):
        argv = op.argv(out_dir)
        t0 = time.perf_counter()
        if traced:
            with recorder.span(f"cli.{op.command}"):
                code = _invoke(cli.main, argv)
        else:
            code = _invoke(cli.main, argv)
        commands.append({"name": op.name, "seconds": time.perf_counter() - t0,
                         "exit_code": code, "expected": op.exit_code})
    result = {"pass_s": sum(c["seconds"] for c in commands), "commands": commands,
              "wrapped_functions": wrapped}
    if traced:
        result["trace"] = summarise(recorder.spans)
        result["spans"] = len(recorder.spans)
    return result


def _invoke(main, argv) -> int:
    try:
        main(argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def _main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    recorder = Recorder() if args.trace else None
    result = replay(args.workload, args.seed, args.out.parent / "replay", recorder)
    if recorder is not None:
        _dump_spans(recorder.spans, args.out.with_suffix(".spans.json.gz"))
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    _main()
