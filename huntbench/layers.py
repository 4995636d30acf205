"""Per-layer metric names and their derivation from spans and plans.

Values are means per timed operation unless the docs say otherwise;
``_ms`` metrics are self time in milliseconds.  Every traced run prints
every name; a layer a workload never enters reads 0.
"""

from __future__ import annotations

from typing import Any, Iterable

from tracer import Tracer

#: (name, unit) of every per-layer metric, in print order.
PER_LAYER: list[tuple[str, str]] = [
    ("tbql.parser.ms", "ms"),
    ("tbql.semantics.ms", "ms"),
    ("tbql.scheduler.ms", "ms"),
    ("tbql.pruning.segments_scanned", "count"),
    ("tbql.pruning.segments_pruned_time", "count"),
    ("tbql.pruning.segments_pruned_stats", "count"),
    ("tbql.pruning.pruned_share", "ratio"),
    ("tbql.colscan.segment_scan_ms", "ms"),
    ("tbql.scatter.self_ms", "ms"),
    ("tbql.executor.scan_self_ms", "ms"),
    ("tbql.executor.hydrate_ms", "ms"),
    ("tbql.executor.hydration_queries", "count"),
    ("tbql.executor.join_ms", "ms"),
    ("tbql.executor.rows_scanned_per_result", "ratio"),
    ("tbql.aggregate.ms", "ms"),
    ("tbql.aggregate.pushdown_share", "ratio"),
    ("tbql.executor.unattributed_ms", "ms"),
    ("tbql.executor.coverage", "ratio"),
    ("service.overhead_ms", "ms"),
    ("service.cache.result_hit_ratio", "ratio"),
    ("service.cache.plan_hit_ratio", "ratio"),
    ("service.rejected", "count"),
    ("storage.snapshot.save_ms", "ms"),
    ("storage.snapshot.open_ms", "ms"),
    ("storage.segments.bytes_per_event.columnar", "B"),
    ("storage.segments.bytes_per_event.relational", "B"),
    ("storage.segments.bytes_per_event.graph", "B"),
    ("storage.ingest.reduce_ms", "ms"),
    ("storage.ingest.build_ms", "ms"),
    ("storage.ingest.relational_ms", "ms"),
    ("storage.ingest.graph_ms", "ms"),
    ("storage.segments.seal_ms", "ms"),
    ("streaming.rules.eval_ms", "ms"),
    ("audit.reduction.ratio", "ratio"),
    ("streaming.alerts", "count"),
    ("storage.segments.sealed", "count"),
    ("extraction.ms", "ms"),
    ("tbql.synthesis.ms", "ms"),
    ("tbql.executor.exact_ms", "ms"),
    ("tbql.fuzzy.load_ms", "ms"),
    ("tbql.fuzzy.preprocess_ms", "ms"),
    ("tbql.fuzzy.search_ms", "ms"),
    ("tbql.fuzzy.alignments", "count"),
    ("cti.tp", "count"),
    ("cti.fp", "count"),
    ("cti.fn", "count"),
    ("host.cal_ms", "ms"),
    ("host.cal_iqr_share", "ratio"),
    ("host.raw_op_p50_ms", "ms"),
    ("host.raw_ops_per_s", "1/s"),
    ("trace.overhead", "ratio"),
]

#: Self time of these spans (benchmark or grafted program spans) feeds
#: the named metric.
SELF_TIME = {
    "parse_tbql": "tbql.parser.ms",
    # The program's own front-end span (parse and resolve, or a plan
    # cache lookup in the service).
    "parse": "tbql.parser.ms",
    "resolve_query": "tbql.semantics.ms",
    "plan": "tbql.scheduler.ms",
    "scatter": "tbql.scatter.self_ms",
    "scan": "tbql.executor.scan_self_ms",
    "execute": "tbql.executor.unattributed_ms",
    "query": "tbql.executor.unattributed_ms",
    "extract": "extraction.ms",
    "synthesize": "tbql.synthesis.ms",
}
#: Whole duration of these spans feeds the named metric.
DURATION = {
    "segment_scan": "tbql.colscan.segment_scan_ms",
    "hydrate": "tbql.executor.hydrate_ms",
    "join": "tbql.executor.join_ms",
    "aggregate": "tbql.aggregate.ms",
    "execute_tbql": "tbql.executor.exact_ms",
}


def span_metrics(tracer: Tracer, operations: int) -> dict[str, float]:
    """Per-operation means of span self times and durations, plus the
    share of execute time the program's spans account for."""
    out: dict[str, float] = {}
    self_times = tracer.self_times()
    executed = 0.0
    for record in tracer.spans:
        if record.name in SELF_TIME:
            metric = SELF_TIME[record.name]
            out[metric] = out.get(metric, 0.0) + \
                self_times[record.span_id] * 1000.0
        if record.name in DURATION:
            metric = DURATION[record.name]
            out[metric] = out.get(metric, 0.0) + record.duration * 1000.0
        if record.name in ("execute", "query"):
            executed += record.duration * 1000.0
    if executed:
        out["tbql.executor.coverage"] = \
            1.0 - out.get("tbql.executor.unattributed_ms", 0.0) / executed
    for metric in set(SELF_TIME.values()) | set(DURATION.values()):
        if metric in out:
            out[metric] /= operations
    return out


def plan_metrics(plans: Iterable[list[Any]], result_rows: int,
                 aggregate_ops: int, operations: int) -> dict[str, float]:
    """Pruning, hydration and useful-work figures from query plans.

    ``plans`` holds one plan per operation; a step is a ``PlanStep`` or
    its JSON form from a service payload.
    """
    scanned = time_pruned = stats_pruned = hydration = rows_in = 0
    pushdowns = 0
    for plan in plans:
        pushed = False
        for step in plan:
            get = step.get if isinstance(step, dict) else \
                (lambda key, s=step: getattr(s, key, None))
            scanned += get("segments_scanned") or 0
            time_pruned += get("segments_pruned") or 0
            stats_pruned += get("segments_pruned_by_stats") or 0
            hydration += get("hydration_queries") or 0
            rows_in += get("rows_in") or 0
            pushed = pushed or bool(get("aggregate_pushdown"))
        pushdowns += pushed
    total = scanned + time_pruned + stats_pruned
    out = {
        "tbql.pruning.segments_scanned": scanned / operations,
        "tbql.pruning.segments_pruned_time": time_pruned / operations,
        "tbql.pruning.segments_pruned_stats": stats_pruned / operations,
        "tbql.pruning.pruned_share":
            (time_pruned + stats_pruned) / total if total else 0.0,
        "tbql.executor.hydration_queries": hydration / operations,
        "tbql.executor.rows_scanned_per_result":
            rows_in / result_rows if result_rows else 0.0,
    }
    if aggregate_ops:
        out["tbql.aggregate.pushdown_share"] = pushdowns / aggregate_ops
    return out


def ingest_metrics(stats: Iterable[Any], operations: int
                   ) -> dict[str, float]:
    """Mean ``IngestStats.seconds`` stages per operation, in ms."""
    totals = {"reduce": 0.0, "build": 0.0, "relational": 0.0,
              "graph": 0.0}
    for item in stats:
        for stage, seconds in item.seconds.items():
            if stage in totals:
                totals[stage] += seconds
    return {f"storage.ingest.{stage}_ms": value * 1000.0 / operations
            for stage, value in totals.items()}


def segment_bytes(segment_stats: dict, events: int) -> dict[str, float]:
    """Sealed-segment payload bytes per stored event, by payload."""
    totals = {"columnar": 0, "relational": 0, "graph": 0}
    for entry in segment_stats.get("segments", []):
        for kind, size in entry.get("payload_bytes", {}).items():
            totals[kind] = totals.get(kind, 0) + size
    return {f"storage.segments.bytes_per_event.{kind}": size / events
            for kind, size in totals.items()}
