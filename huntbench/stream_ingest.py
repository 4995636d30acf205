"""``stream_ingest``: one producer feeding a resumed detection engine.

A seeded history of 16 blocks is cut in two.  Its first five blocks
(about 4.2k raw events, one attack chain) are the backlog: fed once
through a ``DetectionEngine`` with three standing rules (single-pattern,
join, and ``last N``) on a segmented store, and written as a streaming
checkpoint.  Each pass resumes that checkpoint with ``resume_engine``
and feeds the other eleven blocks (about 9.3k raw events, two attack
chains) in 40 fixed-size batches through ``process_batch``.  One
operation is one flush: append, rule evaluation, and on every fifth
flush a segment seal, so sealing flushes are 20% of all and the 90th
percentile falls inside the seal cluster rather than on its edge.

This is the write path: reduction, the dual-store append stages, seal
and segment statistics, and rule evaluation over a store that already
holds history.  The set-up is the resume: reopening the checkpoint
writable, copying its segments, restoring the relational rows and the
graph, and re-registering the rules.  Reference: the alerts of a pass
must equal those a replay of backlog and stream on a monolithic store
raises for the stream, applying the engine's firing rule (fire on
joined events newer than the rule's high water mark, once per rule and
delta).
"""

from __future__ import annotations

import os
import shutil

from repro.storage import DualStore
from repro.streaming import DetectionEngine, resume_engine
from repro.tbql.executor import TBQLExecutor
from repro.tbql.parser import parse_tbql
from repro.tbql.semantics import resolve_query

import layers
from datagen import generate_history
from harness import Mismatch, SetupClock, digest

CHECKPOINT_BLOCKS = 5
#: Backlog flushes; a multiple of ``SEAL_EVERY``, so the checkpoint ends
#: on a seal and the resumed engine's seal cadence continues unbroken.
BACKLOG_FLUSHES = 15
FLUSHES = 40
SEAL_EVERY = 5
#: Timed set-ups per run; ``setup_s`` is their median.
SETUPS = 9

RULES = {
    "wiper": 'proc p delete file f["/home/%"] return p, f',
    "exfil": ('proc p["%/bin/tar%"] write file g as e1 '
              'proc q["%curl%"] read file g as e2 with e1 before e2 '
              'return p, q, g'),
    "recent_beacon": ('last 10 min proc p["%curl%"] connect ip i '
                      'return p, i.dstip'),
}


def cut(events: list, count: int) -> list[list]:
    """``events`` in ``count`` consecutive batches of one size."""
    size = -(-len(events) // count)
    batches = [events[index:index + size]
               for index in range(0, len(events), size)]
    if len(batches) != count:
        raise RuntimeError(f"events do not cut into {count} batches")
    return batches


def replay_alerts(backlog: list[list], batches: list[list]) -> list[tuple]:
    """The alerts a pass over ``batches`` must raise after ``backlog``,
    from a monolithic replay of both."""
    store = DualStore(retain_events=False)
    executor = TBQLExecutor(store)
    parsed = {rule: parse_tbql(text) for rule, text in RULES.items()}
    high_water = {rule: 0 for rule in RULES}
    seen: set = set()
    alerts = []
    watermark = None
    batch_seq = 0
    for index, batch in enumerate(backlog + batches, start=1):
        batch_max = max(event.end_time for event in batch)
        watermark = batch_max if watermark is None \
            else max(watermark, batch_max)
        stored = int(store.append_events(batch))
        if index % SEAL_EVERY == 0:
            stored += int(store.flush_appends())
        if not stored:
            continue
        batch_seq += 1
        max_event_id = store.max_event_id
        for rule, query in parsed.items():
            resolved = resolve_query(query, now=watermark)
            result = executor.execute(resolved)
            new_ids = tuple(sorted({
                event_id for event in result.joined_events
                for event_id in event["event_ids"]
                if event_id > high_water[rule]}))
            high_water[rule] = max_event_id
            if new_ids and (rule, new_ids) not in seen:
                seen.add((rule, new_ids))
                if index > len(backlog):
                    alerts.append((rule, batch_seq, new_ids))
    executor.close()
    store.close()
    return alerts


class StreamIngest:
    workers = 1

    def __init__(self, seed: int, work: str, clock: SetupClock) -> None:
        self.work = work
        self.clock = clock
        history = generate_history(seed)
        blocks = history.batches
        backlog = cut([event for batch in blocks[:CHECKPOINT_BLOCKS]
                       for event in batch], BACKLOG_FLUSHES)
        stream = [event for batch in blocks[CHECKPOINT_BLOCKS:]
                  for event in batch]
        self.batches = cut(stream, FLUSHES)
        self.raw_events = len(stream)
        self.backlog_events = sum(len(batch) for batch in backlog)
        self.expected_alerts = replay_alerts(backlog, self.batches)
        self.checkpoint = os.path.join(work, "checkpoint")
        self._write_checkpoint(backlog)
        self.last_pass: dict = {}
        self.counts: dict = {"raw_events": self.raw_events,
                             "backlog_events": self.backlog_events,
                             "alerts": digest(self.expected_alerts)}
        # Set-ups are timed here, all under the same conditions, rather
        # than per pass: the number of passes in a run follows host speed.
        for _ in range(SETUPS):
            self._close_pass(self._new_pass(timed=True))
        self.tracer = None
        self.reset_counters()

    def _write_checkpoint(self, backlog: list[list]) -> None:
        segments = os.path.join(self.work, "backlog-segments")
        store = DualStore(retain_events=False, layout="segmented",
                          segment_dir=segments)
        engine = DetectionEngine(store, seal_every=SEAL_EVERY)
        for rule, text in RULES.items():
            engine.add_rule(text, rule_id=rule)
        for batch in backlog:
            engine.process_batch(batch)
        engine.checkpoint(self.checkpoint)
        engine.executor.close()
        store.close()
        shutil.rmtree(segments, ignore_errors=True)

    def extra_rss_mib(self) -> float:
        return 0.0

    @property
    def store_bytes_per_event(self) -> float:
        return self.last_pass["bytes"] / self.last_pass["sealed_events"]

    def meta(self) -> dict:
        return {"workers": self.workers, "raw_events": self.raw_events,
                "backlog_events": self.backlog_events,
                "flushes_per_pass": FLUSHES, "seal_every": SEAL_EVERY,
                "expected_alerts": len(self.expected_alerts)}

    # ------------------------------------------------------------------
    # passes
    # ------------------------------------------------------------------
    def _new_pass(self, timed: bool = False) -> dict:
        def resume():
            return resume_engine(self.checkpoint, seal_every=SEAL_EVERY)

        if timed:
            with self.clock.setup():
                engine, _ = self.clock.call(resume)
        else:
            engine = resume()
        return {"store": engine.store, "engine": engine, "alerts": [],
                "stored": 0}

    def _close_pass(self, state: dict) -> None:
        state["engine"].executor.close()
        state["store"].close()

    def _instrument(self, store: DualStore) -> None:
        """Traced passes: spans and stage timings around the store's
        public append and flush calls, which the engine makes."""
        tracer = self.tracer
        append, flush = store.append_events, store.flush_appends

        def append_events(events):
            with tracer.span("append_events"):
                stats = append(events)
            self.ingest_stats.append(stats)
            return stats

        def flush_appends(seal_segment: bool = True):
            with tracer.span("flush_appends",
                             seal=seal_segment) as record:
                stats = flush(seal_segment=seal_segment)
            self.ingest_stats.append(stats)
            if seal_segment:
                self.seal_seconds += record.end - record.start
            return stats

        store.append_events = append_events
        store.flush_appends = flush_appends

    def _flush(self, state: dict, batch: list):
        tracer = self.tracer
        with tracer.operation("flush"):
            with tracer.program("process_batch"):
                return state["engine"].process_batch(batch)

    def stream(self, loop: int):
        state = self._new_pass()
        if self.tracer.enabled:
            self._instrument(state["store"])
        last = len(self.batches) - 1
        for index, batch in enumerate(self.batches):

            def check(report, state=state, index=index):
                state["stored"] += report.stored
                state["alerts"] += [(alert.rule_id, alert.batch_seq,
                                     alert.new_event_ids)
                                    for alert in report.alerts]
                self.eval_seconds += report.eval_seconds
                if index == last:
                    self._finish_pass(loop, state)

            # Labels tell sealing flushes apart from the others.
            label = "seal" if (index + 1) % SEAL_EVERY == 0 else "append"
            yield label, (lambda b=batch: self._flush(state, b)), check

    def _finish_pass(self, loop: int, state: dict) -> None:
        """End of a pass: record its exact counts and check its alerts
        against the replay."""
        store = state["store"]
        segment_stats = store.segment_stats()
        sealed_events = segment_stats["sealed_events"]
        payload = sum(size for entry in segment_stats["segments"]
                      for size in entry["payload_bytes"].values())
        self.last_pass = {"bytes": payload, "sealed_events": sealed_events,
                          "segment_stats": segment_stats}
        record = {"alerts": digest(state["alerts"]),
                  "stored": state["stored"],
                  "sealed": segment_stats["sealed_segments"],
                  "active": segment_stats["active_events"],
                  "bytes": payload}
        self.records.append((loop, "pass", record))
        self.passes += 1
        self.alert_count += len(state["alerts"])
        self.stored_count += state["stored"]
        self._close_pass(state)
        if state["alerts"] != self.expected_alerts:
            raise Mismatch(f"alerts differ from the monolithic replay "
                           f"({len(state['alerts'])} vs "
                           f"{len(self.expected_alerts)})")

    def reset_counters(self) -> None:
        self.records: list = []
        self.ingest_stats: list = []
        self.seal_seconds = 0.0
        self.eval_seconds = 0.0
        self.passes = 0
        self.alert_count = 0
        self.stored_count = 0

    def layer_metrics(self, operations: int) -> dict:
        passes = max(1, self.passes)
        out = {
            "storage.segments.seal_ms":
                self.seal_seconds * 1000.0 / operations,
            "streaming.rules.eval_ms":
                self.eval_seconds * 1000.0 / operations,
            "audit.reduction.ratio":
                self.stored_count / (passes * self.raw_events),
            "streaming.alerts": self.alert_count / passes,
            "storage.segments.sealed":
                self.last_pass["segment_stats"]["sealed_segments"],
        }
        out.update(layers.ingest_metrics(self.ingest_stats, operations))
        out.update(layers.segment_bytes(self.last_pass["segment_stats"],
                                        self.last_pass["sealed_events"]))
        return out

    def close(self) -> None:
        pass

