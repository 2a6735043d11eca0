"""In-memory span tracer for the quasicrack benchmark.

The tracer replaces a module attribute (a name a consumer module bound at
import, such as ``quasicrack.evolution.triangulate``) with a wrapper that
records one span per call: its name, the benchmark phase, the span that
was open when it started (its parent), start and end times, the exception
type it raised if any, and an optional note taken from the arguments and
the result. Nothing is written while the run is timed; ``spans_json``
returns the spans for writing once the run has ended.

Calls are strictly nested (the benchmark runs in one thread), so a span's
self time is its duration minus the summed durations of its children.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        # each span: [name, phase, parent index or -1, t0, t1, error, note]
        self.spans: list[list] = []
        self.phase = "run"
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, module, attr: str, layer: str, note=None) -> None:
        """Replace ``module.attr`` by a traced wrapper named ``layer.attr``.

        ``note(args, result)`` runs after the span has closed, so its cost
        falls in the parent's self time; keep it to attribute reads.
        """
        orig = getattr(module, attr)
        name = f"{layer}.{attr}"
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, self.phase, stack[-1] if stack else -1, 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf_counter()
            try:
                out = orig(*args, **kwargs)
            except Exception as e:
                rec[4] = perf_counter()
                rec[5] = type(e).__name__
                raise
            else:
                rec[4] = perf_counter()
                if note is not None:
                    rec[6] = note(args, out)
                return out
            finally:
                stack.pop()

        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))

    def restore(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    @contextlib.contextmanager
    def installed(self, wraps):
        """Install ``wraps`` (tuples of ``wrap`` arguments) for the block.

        Names a module no longer has are skipped; their metrics read 0.
        """
        try:
            for w in wraps:
                if hasattr(w[0], w[1]):
                    self.wrap(*w)
            yield self
        finally:
            self.restore()

    # ---- aggregation ----

    def of(self, phase: str, name: str) -> list[list]:
        return [s for s in self.spans if s[1] == phase and s[0] == name]

    def self_times(self) -> dict[tuple[str, str], float]:
        """(phase, span name) -> summed self time in seconds."""
        child = defaultdict(float)
        for s in self.spans:
            if s[2] >= 0:
                child[s[2]] += s[4] - s[3]
        out: dict[tuple[str, str], float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[(s[1], s[0])] += (s[4] - s[3]) - child[i]
        return out

    def root_time(self, phase: str) -> float:
        """Summed duration of the outermost spans of a phase."""
        return sum(s[4] - s[3] for s in self.spans if s[1] == phase and s[2] < 0)

    def spans_json(self) -> list[dict]:
        return [
            {"name": s[0], "phase": s[1], "parent": s[2], "t0": s[3], "t1": s[4], "error": s[5]}
            for s in self.spans
        ]
