"""In-memory spans around the benchmark's calls into ``warpalign``.

A span records name, start, end, parent span and job id.  The layer of
a span is the part of its name before the first dot, so
``align_sa.sa_align`` belongs to ``align_sa``.  Spans stay in memory
until the run ends; then they are summarised and written out.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: spans cost one context-manager call."""

    def span(self, name: str, job: int = -1):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, job: int = -1):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, job))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def write(self, path: Path):
        """One JSON object per span; ``parent`` is the parent's line index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for span in self.spans:
                f.write(json.dumps(asdict(span)) + "\n")

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_time(self, roots: set[int]) -> dict[str, float]:
        """Seconds per layer inside the given root spans, children excluded.

        Child spans nest inside their parent and do not overlap each
        other, so a span's self time is its duration minus the
        durations of its direct children.
        """
        inside = set(roots)
        for i, s in enumerate(self.spans):
            if s.parent in inside:
                inside.add(i)
        child_total = {i: 0.0 for i in inside}
        for i in inside:
            parent = self.spans[i].parent
            if parent is not None and parent in inside:
                child_total[parent] += self.spans[i].duration
        out: dict[str, float] = {}
        for i in inside:
            s = self.spans[i]
            out[s.layer] = out.get(s.layer, 0.0) + s.duration - child_total[i]
        return out
