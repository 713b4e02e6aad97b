"""Outside-in tracing: spans recorded around public calls into each layer.

Nothing here edits the program.  :class:`Tracer` replaces a public
attribute (a module-level function or a class method) with a wrapper for
the duration of a ``with`` block and puts the original back afterwards.
Every wrapper is installed at the name its caller looks it up by, so the
call the program makes goes through it.

A span is ``[name, start, end, parent, tag]``: ``parent`` is the index of
the enclosing span (or -1) and ``tag`` the control tick or fleet shard the
span belongs to.  Spans stay in memory and are written out once, at the
end of a run.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    """Records spans and counts; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.tag: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.tag])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    def count(self, name: str, by: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + by

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # ------------------------------------------------------------ patching

    def patch(self, owner, attr: str, wrapper_factory) -> None:
        """Replace ``owner.attr`` with ``wrapper_factory(original)``."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def wrap(self, owner, attr: str, name: str, tag_of=None, on_result=None) -> None:
        """Record a span ``name`` around every call of ``owner.attr``."""
        tracer = self

        def factory(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                outer_tag = tracer.tag
                if tag_of is not None:
                    tracer.tag = tag_of(*args, **kwargs)
                index = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(index)
                    tracer.tag = outer_tag
                if on_result is not None:
                    on_result(result)
                return result

            return wrapped

        self.patch(owner, attr, factory)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Time a generator function by the time spent inside its ``next``.

        One span covers the whole iteration; ``<name>.busy_s`` accumulates
        only the producer's share, not the consumer's work between items.
        """
        tracer = self

        def factory(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                index = tracer.open(name)
                busy = 0.0
                try:
                    while True:
                        started = perf_counter()
                        try:
                            item = next(iterator)
                        except StopIteration:
                            busy += perf_counter() - started
                            return
                        busy += perf_counter() - started
                        yield item
                finally:
                    tracer.count(f"{name}.busy_s", busy)
                    tracer.close(index)

            return wrapped

        self.patch(owner, attr, factory)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Total of ``name`` spans minus the time their direct children cover."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] = (
                    child_time.get(span[PARENT], 0.0) + span[END] - span[START]
                )
        return sum(
            s[END] - s[START] - child_time.get(i, 0.0)
            for i, s in enumerate(self.spans)
            if s[NAME] == name
        )

    def p50_ms(self, name: str) -> float:
        values = self.durations(name)
        return 1000.0 * statistics.median(values) if values else 0.0

    def top_level(self, name: str, excluding_ancestor: str) -> float:
        """Total of ``name`` spans that have no ``excluding_ancestor`` above."""
        total = 0.0
        for span in self.spans:
            if span[NAME] != name:
                continue
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] != excluding_ancestor:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                total += span[END] - span[START]
        return total

    def write(self, path: Path) -> None:
        """Write spans (one JSON array per line) and counts to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"counts": self.counts}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        os.replace(tmp, path)
