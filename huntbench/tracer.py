"""The benchmark's own spans, for the traced run.

Spans are recorded around the public calls a workload makes into each
layer: name, start, end, parent, and one trace id per operation.  Where
a call runs in this process under :func:`repro.obs.trace.start_trace`,
the program's own span tree (``parse``, ``plan``, ``scan``, ``scatter``,
``segment_scan``, ``hydrate``, ``join``, ``aggregate``) is grafted
beneath the benchmark span.  Program spans carry durations but no start
times, so grafted siblings are laid end to end from their parent's
start; within one thread they ran one after another.

Everything stays in memory until :meth:`Tracer.write` dumps one JSON
file at the end of the run.  A span's self time is its duration minus
the part of it that its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional


@dataclass
class SpanRecord:
    span_id: int
    trace_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    attributes: dict[str, Any] = field(default_factory=dict)
    grafted: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one trace per operation."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self._stack: list[SpanRecord] = []
        self._trace_id = 0

    @contextmanager
    def operation(self, name: str, **attributes: Any
                  ) -> Iterator[SpanRecord]:
        """Root span of one operation (a new trace id)."""
        self._trace_id += 1
        with self.span(name, **attributes) as record:
            yield record

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[SpanRecord]:
        parent = self._stack[-1] if self._stack else None
        record = SpanRecord(len(self.spans), self._trace_id,
                            parent.span_id if parent else None, name,
                            time.perf_counter(), 0.0, dict(attributes))
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def program(self, name: str, **attributes: Any
                ) -> Iterator[SpanRecord]:
        """A benchmark span whose in-process program spans are grafted.

        The call inside runs under ``repro.obs.trace.start_trace``; the
        program's spans hang beneath the root it yields, and that root's
        children are copied under this span when the call returns.
        """
        from repro.obs.trace import start_trace

        with self.span(name, **attributes) as record:
            with start_trace(name) as root:
                yield record
            if root is not None:
                self.graft(record, [child.as_dict()
                                    for child in root.children])

    def graft(self, parent: SpanRecord, trees: list[dict]) -> None:
        """Copy program span trees (``Span.as_dict`` form) under
        ``parent``, laid end to end from its start."""
        cursor = parent.start
        for tree in trees:
            duration = float(tree.get("duration_ms", 0.0)) / 1000.0
            record = SpanRecord(len(self.spans), parent.trace_id,
                                parent.span_id, tree["name"], cursor,
                                cursor + duration,
                                dict(tree.get("attributes", {})),
                                grafted=True)
            self.spans.append(record)
            self.graft(record, tree.get("children", []))
            cursor += duration

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Seconds of each span not covered by any of its children."""
        kids: dict[int, list[SpanRecord]] = {}
        for record in self.spans:
            if record.parent_id is not None:
                kids.setdefault(record.parent_id, []).append(record)
        out = {}
        for record in self.spans:
            intervals = sorted((max(child.start, record.start),
                                min(child.end, record.end))
                               for child in kids.get(record.span_id, ()))
            covered = 0.0
            cursor = record.start
            for low, high in intervals:
                low = max(low, cursor)
                if high > low:
                    covered += high - low
                    cursor = high
            out[record.span_id] = max(0.0, record.duration - covered)
        return out

    def write(self, path: str, meta: dict[str, Any]) -> None:
        payload = {
            "meta": meta,
            "spans": [{
                "id": record.span_id, "trace": record.trace_id,
                "parent": record.parent_id, "name": record.name,
                "start": record.start, "end": record.end,
                "grafted": record.grafted,
                "attributes": record.attributes,
            } for record in self.spans],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, default=str)


class NullTracer:
    """Untraced runs: the same call sites, no recording."""

    enabled = False

    def operation(self, name: str, **attributes: Any):
        return nullcontext()

    def span(self, name: str, **attributes: Any):
        return nullcontext()

    def program(self, name: str, **attributes: Any):
        return nullcontext()
