"""In-memory spans for the traced benchmark run.

A span is ``[name, start, end, parent, op]``: ``name`` is
``<layer>.<function>`` (``bench`` for the benchmark's own op wrapper),
``parent`` is the index of the enclosing span or ``None``, and ``op`` is the
id of the benchmark op the span belongs to. Spans stay in memory; the
worker writes them out when the run ends.
"""

from __future__ import annotations

from time import perf_counter


def plain_call(name, fn, *args):
    """The untraced counterpart of :meth:`Tracer.call`."""
    return fn(*args)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def timed(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span; return (result, seconds)."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            result = fn(*args)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
        return result, rec[2] - rec[1]

    def call(self, name: str, fn, *args):
        return self.timed(name, fn, *args)[0]

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span's duration minus what its children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child
        return out

    def to_dict(self) -> dict:
        return {
            "self_s": self.self_times(),
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
        }
