"""Spans around public layer calls, recorded from outside the program.

:class:`SpanRecorder` replaces a function or method with a wrapper that
records one span (name, start, end, parent) per call and then calls the
original.  Spans live in memory until :meth:`SpanRecorder.dump` writes
them once, at the end of a run.  Nothing inside ``src/`` is changed: the
wrappers sit on module and class attributes, which the program looks up
at call time, and :meth:`SpanRecorder.restore` puts the originals back.
"""

from __future__ import annotations

import time

import numpy as np


class SpanRecorder:
    """In-memory span log: one row per wrapped call, nested by call stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        #: last return value of each span name wrapped with keep=True.
        self.returned: dict[str, object] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, keep: bool = False) -> None:
        """Record a span named *name* around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, returned = self._stack, self.returned
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(-1)
            stack.append(idx)
            starts.append(clock())
            try:
                out = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if keep:
                returned[name] = out
            return out

        self._patched.append((owner, attr, original))
        setattr(owner, attr, spanned)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------
    def _columns(self):
        starts = np.asarray(self.starts, dtype=np.int64)
        ends = np.asarray(self.ends, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        return starts, ends, parents

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its child spans
        cover; children never overlap, since the program is single-threaded.
        """
        starts, ends, parents = self._columns()
        dur = ends - starts
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        out: dict[str, dict[str, float]] = {}
        names = np.asarray(self.names, dtype=object)
        for name in dict.fromkeys(self.names):
            sel = names == name
            out[name] = {
                "calls": int(sel.sum()),
                "incl_s": float(dur[sel].sum()) * 1e-9,
                "self_s": float((dur[sel] - child[sel]).sum()) * 1e-9,
            }
        return out

    def dump(self, path, extra_columns: dict | None = None) -> None:
        """Write every span (and any *extra_columns*) to one ``.npz``."""
        starts, ends, parents = self._columns()
        vocab = list(dict.fromkeys(self.names))
        index = {n: i for i, n in enumerate(vocab)}
        np.savez_compressed(
            path,
            span_name=np.asarray([index[n] for n in self.names], dtype=np.int32),
            span_vocab=np.asarray(vocab, dtype=str),
            span_start_ns=starts,
            span_end_ns=ends,
            span_parent=parents,
            **(extra_columns or {}),
        )
