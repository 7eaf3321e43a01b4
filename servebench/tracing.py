"""In-memory span recorder wrapped around the program's public methods.

Only the traced run installs these wrappers; the timed end-to-end runs
never do.  Each span records ``(name, start, end, parent, request id,
count)`` where ``count`` is the work unit of the call (rows through a
linear, tokens through the codec, requests in a decode batch, ...).
Every patch is undone by :meth:`Tracer.restore`.
"""

from __future__ import annotations

import json
import time

from servebench.stats import self_times

_MISSING = object()


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rids: list[int] = []
        self.counts: list[int] = []
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ------------------------------------------------------- #
    def open(self, name: str, rid: int = -1, count: int = 1) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rids.append(rid)
        self.counts.append(count)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(self._clock())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = self._clock()
        self._stack.pop()

    def span(self, fn, name: str, count=None, rid=None):
        """``fn`` wrapped so every call records one span."""

        def wrapper(*args, **kwargs):
            i = self.open(
                name,
                rid(*args) if rid is not None else -1,
                count(*args) if count is not None else 1,
            )
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return wrapper

    # -- patching -------------------------------------------------------- #
    def patch(self, owner, attr: str, name: str, count=None, rid=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` may be an instance, a module or a class; a classmethod is
        re-wrapped as a classmethod.  The original is restored on
        :meth:`restore`.
        """
        prev = vars(owner).get(attr, _MISSING)
        if isinstance(prev, classmethod):
            new = classmethod(self.span(prev.__func__, name, count, rid))
        else:
            new = self.span(getattr(owner, attr), name, count, rid)
        self._undo.append((owner, attr, prev))
        setattr(owner, attr, new)

    def set(self, owner, attr: str, value) -> None:
        """Set ``owner.attr = value`` until :meth:`restore`."""
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, prev = self._undo.pop()
            if prev is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, prev)

    # -- analysis -------------------------------------------------------- #
    def self_times(self) -> list[float]:
        return self_times(self.starts, self.ends, self.parents)

    def dump(self, path) -> None:
        """Write all spans as JSON lines (times in seconds)."""
        with open(path, "w") as f:
            for i, name in enumerate(self.names):
                f.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": round(self.starts[i], 7),
                            "end": round(self.ends[i], 7),
                            "parent": self.parents[i],
                            "rid": self.rids[i],
                            "count": self.counts[i],
                        }
                    )
                    + "\n"
                )
