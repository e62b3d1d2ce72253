"""In-memory span recorder for the traced benchmark run.

A span is recorded around every call the benchmark wraps from outside the
library: its name, start, end, the span that was open when it began (its
parent), and the op it belongs to.  Spans are kept in flat arrays while the
run is going and written out once, at the end.

Self time is a span's duration minus the time its child spans cover.  The
benchmark is single threaded and children nest strictly inside their
parent, so the covered time is simply the sum of the children's durations.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return fn wrapped so that every call records one span `name`."""
        nid = self._intern(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return traced

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def summary(self) -> dict:
        """Per span name: {"calls": int, "self_s": float, "total_s": float}."""
        a = self.arrays()
        calls, self_s, total_s = self_time_by_name(
            a["name_id"], a["start"], a["end"], a["parent"], len(self.names)
        )
        return {
            name: {
                "calls": int(calls[i]),
                "self_s": float(self_s[i]),
                "total_s": float(total_s[i]),
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_time_by_name(name_id, start, end, parent, n_names):
    """Calls, summed self time and summed duration for each name id."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    covered = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(covered, parent[nested], dur[nested])
    self_t = dur - covered
    calls = np.bincount(name_id, minlength=n_names)
    return (
        calls,
        np.bincount(name_id, weights=self_t, minlength=n_names),
        np.bincount(name_id, weights=dur, minlength=n_names),
    )


@contextlib.contextmanager
def patched(targets):
    """Temporarily replace module attributes: targets is [(module, name, value)]."""
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in targets]
    try:
        for mod, name, value in targets:
            setattr(mod, name, value)
        yield
    finally:
        for mod, name, value in reversed(saved):
            setattr(mod, name, value)
