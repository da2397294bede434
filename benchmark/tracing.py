"""Span recording around the public functions of the avex layers.

The tracer replaces a function at the place its callers look it up
(``avex.models.encode_matrix``, ``avex.training.Adam.step``, ...) with a
wrapper that records a span: name, start, end, parent span and the
current scope id.  The scope id names a unit inside which repeated work
could be reused: one optimizer step while training, one request while
extracting.  Everything stays in memory until ``write_spans``.

A wrapped name that the program no longer defines is skipped and its
metrics read zero, so a refactor of the internals never fails a run.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict

GC_SPAN = "runtime.gc"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # Each span is [name, start, end, parent index or -1, scope id].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.scope = 0
        self.counts: dict[str, int] = defaultdict(int)
        self._keys: dict[str, set] = defaultdict(set)
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.scope])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def new_scope(self):
        self.scope += 1

    def note_key(self, name: str, key):
        """Record one call's input identity for ``distinct_ratio``."""
        self._keys[name].add((self.scope, key))

    def distinct(self, name: str) -> int:
        return len(self._keys[name])

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, key=None, before=None, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``key(*args)`` gives the call's input identity within a scope,
        ``before(*args)`` runs outside the span (for counting work that
        must not be charged to the layer), ``after()`` runs once the
        span has closed.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if key is not None:
                try:
                    identity = key(*args, **kwargs)
                except Exception:  # a changed signature: count the call as distinct
                    identity = object()
                tracer.note_key(name, identity)
            if before is not None:
                before(*args, **kwargs)
            idx = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(idx)
                if after is not None:
                    after()

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _gc_callback(self, phase, info):
        if phase == "start":
            self.open(GC_SPAN)
        elif self._stack and self.spans[self._stack[-1]][0] == GC_SPAN:
            self.close(self._stack[-1])

    def install_gc(self):
        gc.callbacks.append(self._gc_callback)

    def uninstall(self):
        """Undo every wrap and detach the GC callback (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def write_spans(self, fh, phase: str):
        """One JSON list per span: phase, name, start, end, parent, scope."""
        for span in self.spans:
            fh.write(json.dumps([phase] + span) + "\n")


def self_times(spans) -> dict[str, dict]:
    """Per-name call count, total time and self time.

    A span's self time is its duration minus the durations of its
    direct children.  Spans nest strictly (they come from one stack),
    so the children of a span never overlap each other.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _scope in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _parent, _scope) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        row["calls"] += 1
        row["total"] += end - start
        row["self"] += (end - start) - child_time[i]
    return out
