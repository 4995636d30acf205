"""``join_hunt``: one in-process analyst running multi-pattern join hunts.

Data: a seeded history of 16 blocks (about 13.5k raw audit events, 6.5k
after reduction, three injected attack chains) appended to a segmented
store with one seal per block, saved as a snapshot and reopened
read-only.  Queries: 2-3-pattern hunts joined on a shared process or
file with ``with ... before``, through ``TBQLExecutor.execute`` with
``workers=1``.  Four of the five fan out (each process matches a handful
of events on both sides, so 1k-3k rows come from a few hundred matches
per pattern); the fifth follows an attack chain to a few rows.

The hash join and its emit are the largest layer here, ahead of pattern
matching (``scan``); the column scans are cheap (no ``%...%`` filters)
and segment pruning and HTTP stay idle.  References: a monolithic store
fed the same batches must return byte-identical rows, and the giant-SQL
baseline must return the same multiset of row values.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics

from repro.storage import DualStore
from repro.tbql.executor import TBQLExecutor
from repro.tbql.parser import parse_tbql
from repro.tbql.semantics import resolve_query

import layers
from datagen import History, generate_history
from harness import Mismatch, SetupClock, digest, directory_bytes

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

QUERIES = {
    "web_cache": (
        'proc b connect ip i as e1 proc b write file f as e2 '
        'with e1 before e2 return b, i, f'),
    "daemon_beacon": (
        'proc d write file f as e1 proc d connect ip i as e2 '
        'with e1 before e2 return d, f, i'),
    "edit_pairs": (
        'proc p read file f as e1 proc p write file g as e2 '
        'with e1 before e2 return p, f, g'),
    "tool_io": (
        'proc s start proc t as e1 proc t read file f as e2 '
        'proc t write file g as e3 with e1 before e2, e2 before e3 '
        'return s, t, f, g'),
    "exfil_chain": (
        'proc p read file f["/etc/shadow"] as e1 proc p write file g as e2 '
        'proc q read file g as e3 with e1 before e2, e2 before e3 '
        'return p, q, f, g'),
}


def value_multiset(rows: list[dict]) -> list:
    return sorted(tuple(str(value) for value in row.values())
                  for row in rows)


def build_snapshot(history: History, work: str, tag: str,
                   clock: SetupClock) -> dict:
    """Ingest, seal per block, save and reopen; times each program call.

    Returns the opened store with the set-up's timings and statistics.
    """
    segments = os.path.join(work, f"segments-{tag}")
    snapshot = os.path.join(work, f"snapshot-{tag}")
    for path in (segments, snapshot):
        shutil.rmtree(path, ignore_errors=True)
    ingest, seal_seconds = [], 0.0
    with clock.setup():
        store, _ = clock.call(lambda: DualStore(
            retain_events=False, layout="segmented", segment_dir=segments))
        for batch in history.batches:
            stats, _ = clock.call(lambda b=batch: store.append_events(b))
            ingest.append(stats)
            stats, seconds = clock.call(store.flush_appends)
            ingest.append(stats)
            seal_seconds += seconds
        _, save_seconds = clock.call(lambda: store.save(snapshot))
        store.close()
        opened, open_seconds = clock.call(lambda: DualStore.open(snapshot))
    shutil.rmtree(segments, ignore_errors=True)
    return {"store": opened, "snapshot": snapshot, "ingest": ingest,
            "seal": seal_seconds, "save": save_seconds,
            "open": open_seconds}


class SnapshotSetup:
    """The set-up shared by ``join_hunt`` and ``scan_hunt``."""

    def __init__(self, seed: int, work: str, clock: SetupClock) -> None:
        self.history = generate_history(seed)
        builds = []
        for index in range(SETUPS):
            if builds:
                builds[-1]["store"].close()
            builds.append(build_snapshot(self.history, work, str(index),
                                         clock))
        last = builds[-1]
        self.store: DualStore = last["store"]
        self.snapshot: str = last["snapshot"]
        self.events = self.store.relational.count_events()
        self.snapshot_bytes = directory_bytes(self.snapshot)
        count = len(builds)
        self.layers = {
            "storage.snapshot.save_ms":
                statistics.fmean(b["save"] for b in builds) * 1000.0,
            "storage.snapshot.open_ms":
                statistics.fmean(b["open"] for b in builds) * 1000.0,
            "storage.segments.seal_ms":
                statistics.fmean(b["seal"] for b in builds) * 1000.0,
            "storage.segments.sealed":
                len(self.store.segment_stats()["segments"]),
            "audit.reduction.ratio": self.events / self.history.raw_events,
        }
        self.layers.update(layers.ingest_metrics(
            (stats for build in builds for stats in build["ingest"]),
            count))
        self.layers.update(layers.segment_bytes(
            self.store.segment_stats(), self.events))
        self.counts = {"stored_events": self.events,
                       "payload_bytes": directory_bytes(
                           self.snapshot, payload_only=True),
                       "segments": self.layers["storage.segments.sealed"]}

    def reference_store(self) -> DualStore:
        """A monolithic store fed the same batches, for reference answers."""
        mono = DualStore(retain_events=False)
        for batch in self.history.batches:
            mono.append_events(batch)
            mono.flush_appends()
        return mono


class JoinHunt:
    workers = 1

    def __init__(self, seed: int, work: str, clock: SetupClock) -> None:
        self.data = SnapshotSetup(seed, work, clock)
        self.executor = TBQLExecutor(self.data.store, workers=self.workers)
        mono = self.data.reference_store()
        reference = TBQLExecutor(mono)
        self.expected = {}
        for label, text in QUERIES.items():
            rows = reference.execute(text).rows
            giant = reference.execute_giant_sql(text)
            if value_multiset(giant) != value_multiset(rows):
                raise Mismatch(f"{label}: giant SQL disagrees with the "
                               "monolithic executor")
            self.expected[label] = (digest(rows), len(rows))
        reference.close()
        mono.close()
        self.order = list(QUERIES)
        random.Random(seed).shuffle(self.order)
        self.counts = self.data.counts
        self.tracer = None
        self.reset_counters()

    def extra_rss_mib(self) -> float:
        return 0.0

    @property
    def store_bytes_per_event(self) -> float:
        return self.data.snapshot_bytes / self.data.events

    def meta(self) -> dict:
        return {"workers": self.workers, "raw_events":
                self.data.history.raw_events, "stored_events":
                self.data.events, "queries": len(QUERIES),
                "rows": {label: count for label, (_, count)
                         in self.expected.items()}}

    def _run(self, text: str):
        tracer = self.tracer
        with tracer.operation("hunt"):
            with tracer.span("parse_tbql"):
                parsed = parse_tbql(text)
            with tracer.span("resolve_query"):
                resolved = resolve_query(parsed)
            with tracer.program("execute"):
                return self.executor.execute(resolved)

    def stream(self, loop: int):
        for label in self.order:
            text = QUERIES[label]

            def check(result, label=label):
                want, rows = self.expected[label]
                if digest(result.rows) != want:
                    raise Mismatch(f"rows differ from the monolithic "
                                   f"reference ({len(result.rows)} vs "
                                   f"{rows})")
                self.plans.append(result.plan)
                self.result_rows += len(result.rows)
                self.records.append((loop, label, {
                    "rows": want,
                    "plan": [step.as_dict() | {"seconds": None}
                             for step in result.plan]}))

            yield label, (lambda text=text: self._run(text)), check

    def reset_counters(self) -> None:
        self.plans = []
        self.result_rows = 0
        self.records = []

    def layer_metrics(self, operations: int) -> dict:
        out = dict(self.data.layers)
        out.update(layers.plan_metrics(self.plans, self.result_rows, 0,
                                       operations))
        return out

    def close(self) -> None:
        self.executor.close()
        self.data.store.close()
