"""Spans taken from outside the library: wrappers around layer entry points.

The benchmark never edits ``src/``.  For a traced run it replaces the
public entry points of each layer with timing wrappers, at every place
the callers look them up:

* a function is rebound in every loaded ``repro`` module whose global
  namespace holds it (``gcrodr`` imports ``block_arnoldi_cycle`` by name,
  so patching ``repro.krylov.cycle`` alone would miss it);
* a method is rebound on the class that defines it, which every caller
  reaches through attribute lookup.

:meth:`Patches.restore` puts the original objects back, so untraced
passes run unmodified code.

Spans live in memory as columns (id, name, start, end, parent, run) and
are written out once, when the run ends.  Self time — a span's duration
minus the time its direct children cover — is accumulated as each span
closes, per ``(phase, span name)``.  The root span of each run (a
set-up or a timed pass) keeps its own self time as *unattributed*, so
per-layer self times plus unattributed time add up to the root's
duration exactly.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: name of the root span of every set-up and pass
ROOT = "run"

Observer = Callable[["SpanRecorder", tuple, dict, Any], None]


class SpanRecorder:
    """Stack-based in-memory span store with online self-time totals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.runs: list[str] = []
        self.run_phase: list[str] = []
        self.span_id = array("q")
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self._stack: list[list] = []      # [span id, name, child seconds]
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self.phase = "setup"
        #: (phase, span name) -> seconds of self time / number of calls
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        #: (phase, span name) -> seconds inside outermost spans of the name
        self.outer_s: dict[tuple[str, str], float] = defaultdict(float)
        #: (phase, counter) -> value, fed by observers
        self.counts: dict[tuple[str, str], float] = defaultdict(float)

    # -- runs ------------------------------------------------------------
    def open_run(self, label: str, phase: str) -> None:
        """Start a root span: one set-up or one timed pass."""
        if self._stack:
            raise RuntimeError("a run is already open")
        self.phase = phase
        self.runs.append(label)
        self.run_phase.append(phase)
        self._push(ROOT)

    def close_run(self) -> float:
        """Close the root span; returns its duration in seconds."""
        # a run cut short by the time limit can leave inner spans open
        while len(self._stack) > 1:
            self._pop(time.perf_counter())
        return self._pop(time.perf_counter())

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[self.phase, key] += value

    def outermost(self, name: str) -> bool:
        """True when no other span of this name encloses the current one."""
        return self._depth[name] <= 1

    # -- spans -----------------------------------------------------------
    def _push(self, name: str) -> None:
        sid = self._next_id
        self._next_id += 1
        self._depth[name] += 1
        self._stack.append([sid, name, 0.0, time.perf_counter()])

    def _pop(self, t1: float) -> float:
        sid, name, child_s, t0 = self._stack.pop()
        self._depth[name] -= 1
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.self_s[self.phase, name] += dur - child_s
        self.calls[self.phase, name] += 1
        if not self._depth[name]:
            self.outer_s[self.phase, name] += dur
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        self.span_id.append(sid)
        self.span_name.append(idx)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(parent[0] if parent is not None else -1)
        self.run.append(len(self.runs) - 1)
        return dur

    def wrap(self, fn: Callable, name: str,
             observe: Observer | None = None) -> Callable:
        """A wrapper of ``fn`` that records one span per call.

        ``observe(recorder, args, kwargs, result)`` runs inside the span
        after ``fn`` returns, to take counts from the call's arguments
        and result.  Calls made while no run is open are not recorded.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec._stack:
                return fn(*args, **kwargs)
            rec._push(name)
            try:
                out = fn(*args, **kwargs)
                if observe is not None:
                    observe(rec, args, kwargs, out)
                return out
            finally:
                rec._pop(time.perf_counter())

        return traced

    # -- output ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.span_id)

    def write(self, path: Path) -> None:
        """Write every span as compressed columns (``numpy.load`` reads it)."""
        import numpy as np
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, id=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run=np.frombuffer(self.run, dtype=np.int32),
            names=np.array(self.names), runs=np.array(self.runs),
            run_phase=np.array(self.run_phase))


class Patches:
    """Rebinds attributes and remembers the originals for :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self._saved)


def _repro_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))]


def install(rec: SpanRecorder,
            functions: list[tuple[Callable, str, Observer | None]],
            methods: list[tuple[type, str, str, Observer | None]]
            ) -> Patches:
    """Wrap ``functions`` at all their import sites and ``methods`` on
    their defining classes; returns the patches to restore."""
    patches = Patches()
    wrappers = {id(fn): (fn, rec.wrap(fn, name, observe))
                for fn, name, observe in functions}
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patches.set(module, attr, hit[1])
    for cls, attr, name, observe in methods:
        patches.set(cls, attr, rec.wrap(vars(cls)[attr], name, observe))
    return patches
