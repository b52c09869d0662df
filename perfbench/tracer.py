"""Outside-in tracer: spans and counters around a program's entry points.

Nothing in the traced program knows about this module.  :meth:`Tracer.span`
and :meth:`Tracer.count` replace a function at the name its callers look
up (a module attribute or a class attribute) with a thin wrapper, and
:meth:`Tracer.uninstall` puts every original back.

A span records ``(name, start, end, parent, context, rows)``; spans live
in per-thread lists in memory until :meth:`Tracer.summary` folds them.
``parent`` indexes the enclosing span of the same thread (-1 at the top),
``context`` is whatever :attr:`Tracer.context` held when the span opened
(the benchmark stores the episode or request id there), and ``rows`` is
the optional work size the span's ``rows`` callback computed from the
call's arguments.  Self time is a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import gc
import threading
import time
from collections import defaultdict

__all__ = ["Tracer"]

_NAME, _START, _END, _PARENT, _CONTEXT, _ROWS = range(6)
_INHERITED = object()


class Tracer:
    """Span and counter recorder installed by patching entry points."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.context = None
        self.counts: dict[str, int] = defaultdict(int)
        self._threads: list[list[list]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start: dict[int, float] = {}
        self.gc_pause_s = 0.0
        self.gc_collections = 0

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _replace(self, owner, attr: str, wrapper) -> None:
        # An inherited method is not in the class's own namespace; on
        # uninstall it is deleted again rather than copied down.
        original = vars(owner).get(attr, _INHERITED)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, rows=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        clock = self.clock
        local = self._local
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            try:
                spans, stack = local.spans, local.stack
            except AttributeError:
                spans, stack = tracer._register_thread()
            record = [name, clock(), 0.0, stack[-1] if stack else -1,
                      tracer.context, rows(*args, **kwargs) if rows else 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return original(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()

        self._replace(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count the calls of ``owner.attr`` under ``name`` (no span)."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def install_gc_probe(self) -> None:
        """Time every garbage collection through ``gc.callbacks``."""
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every patched entry point, newest first."""
        for owner, attr, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _register_thread(self) -> tuple[list, list]:
        spans: list[list] = []
        stack: list[int] = []
        self._local.spans, self._local.stack = spans, stack
        with self._lock:
            self._threads.append(spans)
        return spans, stack

    def _on_gc(self, phase: str, info: dict) -> None:
        ident = threading.get_ident()
        if phase == "start":
            self._gc_start[ident] = self.clock()
        elif ident in self._gc_start:
            self.gc_pause_s += self.clock() - self._gc_start.pop(ident)
            self.gc_collections += 1

    # ------------------------------------------------------------------
    # explicit spans opened by the benchmark itself
    # ------------------------------------------------------------------
    def open(self, name: str) -> list:
        """Open a span on the calling thread; close it with :meth:`close`."""
        try:
            spans, stack = self._local.spans, self._local.stack
        except AttributeError:
            spans, stack = self._register_thread()
        record = [name, self.clock(), 0.0, stack[-1] if stack else -1,
                  self.context, 0]
        stack.append(len(spans))
        spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[_END] = self.clock()
        self._local.stack.pop()

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    def summary(self, root: list) -> dict:
        """Per-name ``calls``/``self_s``/``rows`` plus ``coverage`` of ``root``.

        Only spans inside ``root``'s interval count, so work done during
        set-up or checks stays out.  ``coverage`` is the share of
        ``root``'s wall time covered by the union of the outermost spans
        under it: the root's direct children on its own thread, and
        top-level spans on every other thread.
        """
        lo, hi = root[_START], root[_END]
        table: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "rows": 0})
        outermost = []
        for spans in self._threads:
            self_time = [span[_END] - span[_START] for span in spans]
            for span in spans:
                if span[_PARENT] >= 0:
                    self_time[span[_PARENT]] -= span[_END] - span[_START]
            root_index = next((i for i, span in enumerate(spans)
                               if span is root), -1)
            for index, span in enumerate(spans):
                if span is root or span[_START] < lo or span[_END] > hi:
                    continue
                entry = table[span[_NAME]]
                entry["calls"] += 1
                entry["self_s"] += self_time[index]
                entry["rows"] += span[_ROWS]
                if span[_PARENT] == root_index:
                    outermost.append((span[_START], span[_END]))
        covered, reach = 0.0, lo
        for start, end in sorted(outermost):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        return {"layers": dict(table),
                "coverage": covered / max(hi - lo, 1e-12)}
