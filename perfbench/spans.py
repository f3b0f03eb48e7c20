"""In-memory timing spans and the self-time arithmetic over them.

A span is (name, start, end, parent); spans stay in memory while the traced
operation runs and are written out once, when it ends.  The tracer assumes
one thread: the open-span stack is shared by every wrapper it hands out.
"""

import functools
import json
from time import perf_counter


class Tracer:
    """Span and counter wrappers for the functions of one process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.note = []
        self.counters = {}
        self._open = []

    def span(self, name, fn, note=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``note(args, kwargs, result)``, when given, stores a small JSON value
        with the span, such as the size of the work it did.
        """
        ident = self._ids.setdefault(name, len(self._ids))
        if ident == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.name)
            self.name.append(ident)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0.0)
            self.note.append(None)
            self._open.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self._open.pop()
            if note is not None:
                self.note[index] = note(args, kwargs, result)
            return result

        return traced

    def counter(self, name, fn, note=None):
        """Wrap ``fn`` so calls are counted (and ``note`` summed), no span."""
        totals = self.counters.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            totals[0] += 1
            if note is not None:
                totals[1] += note(args, kwargs, result)
            return result

        return counted

    def dump(self, path):
        """Write every span and counter as one JSON object."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name,
                    "start": self.start,
                    "end": self.end,
                    "parent": self.parent,
                    "note": self.note,
                    "counters": self.counters,
                },
                handle,
            )


def self_times(start, end, parent):
    """Self time of each span: its duration minus the part its children cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so the result is never negative.
    """
    children = {}
    for index, up in enumerate(parent):
        if up >= 0:
            children.setdefault(up, []).append(index)
    out = [e - s for s, e in zip(start, end)]
    for up, kids in children.items():
        reach, covered = start[up], 0.0
        for kid in sorted(kids, key=start.__getitem__):
            lo, hi = max(start[kid], reach), min(end[kid], end[up])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[up] -= covered
    return out
