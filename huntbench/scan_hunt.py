"""``scan_hunt``: selective hunts through the HTTP query service.

``repro serve`` runs as a child process on the ``join_hunt`` snapshot
with its default asyncio backend, default caches and ``workers=1``.  One
keep-alive :class:`ServiceClient` sends ``POST /query`` and waits for
each answer.

Each loop holds 40 requests: seven hunt templates (rare operations, an
attacker address, log writes, prefix-``LIKE``/``IN`` filters,
``count()/group by/top``, ``and not``, ``IN`` on addresses), each once
with each of four time windows; four wall-clock ``last N`` hunts; and
eight repeats of a request issued a few positions earlier.  Every other
text is new: its window bounds fall at a fresh point inside an idle gap
of the history, which changes the text but not the answer.  So the
256-entry result cache answers exactly the eight repeats (20%), and the
128-entry plan cache answers exactly the four ``last N`` lookups, which
are never result-cached.  Both ratios are read from ``GET /stats``
deltas between loops, outside timed regions.

This workload exercises segment pruning, the columnar scan, aggregate
pushdown, the caches and HTTP; its joins are small.  Reference: every
answer equals the in-process monolithic store's answer to its template
and window.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time

from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.server import DEFAULT_PLAN_CACHE_SIZE, \
    DEFAULT_RESULT_CACHE_SIZE
from repro.tbql.executor import TBQLExecutor

import layers
from datagen import History, tbql_time
from harness import Mismatch, SetupClock, child_peak_rss_mib, digest
from join_hunt import SnapshotSetup

TEMPLATES = {
    "rare_delete": '{window} proc p delete file f["/home/%"] return p, f',
    "attacker_ip": '{window} proc p connect ip i["{ip}"] return p, i',
    "log_writes": ('{window} proc p write file f["/var/log/%"] '
                   'return p, f'),
    "prefix_in": ('{window} proc p[exename in {{"/bin/cp", '
                  '"/usr/bin/gcc"}}] read file f["/home/%"] '
                  'return p.pid, f'),
    "group_top": ('{window} proc p read file f return p, count() '
                  'group by p top 10'),
    "no_exfil": ('{window} proc p["%/bin/tar%"] read file f and not '
                 'proc p connect ip i return distinct p'),
    "web_in": ('{window} proc p receive ip i[dstip in {{"151.101.1.69", '
               '"13.107.42.14"}}] return distinct p, i.dstip'),
}
#: A wall-clock window: time-dependent, so plan-cached but never
#: result-cached.
LAST_N = ("last_n", 'last 30 min proc p chmod file f return p, f')
#: Windows as (first block, end block); each template runs once with
#: each per loop, so costs spread evenly instead of forming a few
#: clusters whose edges would decide the percentiles.
WINDOWS = [(0, 16), (2, 12), (5, 9), (10, 13)]
#: Requests per loop = ROUNDS * (FRESH_PER_ROUND + 1).
ROUNDS = 8
FRESH_PER_ROUND = 4
STARTUP_TIMEOUT = 60.0
#: Distinct window bounds per gap (more than a second apart each).
GAP_STEPS = 3900


def render(label: str, window: tuple[int, int] | None, history: History,
           fraction: float) -> str:
    """A request's text with window bounds at ``fraction`` of their
    gaps; every fraction selects the same events."""
    if window is None:
        return LAST_N[1]
    first, end = window
    text = (f'from "{tbql_time(history.gap_time(first, fraction))}" to '
            f'"{tbql_time(history.gap_time(end, fraction))}"')
    return TEMPLATES[label].format(window=text, ip=history.attacker_ip)


class ScanHunt:
    workers = 1

    def __init__(self, seed: int, work: str, clock: SetupClock) -> None:
        self.work = work
        self.data = SnapshotSetup(seed, work, clock)
        history = self.data.history
        mono = self.data.reference_store()
        reference = TBQLExecutor(mono)
        rng = random.Random(seed)
        order = list(TEMPLATES)
        rng.shuffle(order)
        fresh = []
        for index in range(ROUNDS * FRESH_PER_ROUND):
            if index % 8 == 7:
                fresh.append((LAST_N[0], None))
            else:
                count = len(fresh) - index // 8
                fresh.append((order[count % len(order)],
                              WINDOWS[count % len(WINDOWS)]))
        self.expected = {
            key: digest(json.loads(json.dumps(reference.execute(
                render(*key, history, 0.5)).rows)))
            for key in set(fresh)}
        reference.close()
        mono.close()
        self.data.store.close()
        #: (label, window, repeat offset); offset 0 for a fresh text.
        self.plan: list[tuple[str, tuple | None, int]] = []
        for round_index in range(ROUNDS):
            block = fresh[round_index * FRESH_PER_ROUND:
                          (round_index + 1) * FRESH_PER_ROUND]
            self.plan += [(label, window, 0) for label, window in block]
            target = rng.choice([pos for pos, (label, _) in
                                 enumerate(block) if label != LAST_N[0]])
            self.plan.append((*block[target], len(block) - target))
        self.server = self._start_server()
        try:
            self.client = ServiceClient(self.base_url, timeout=120.0)
            self.client.healthz()
        except BaseException:
            _stop(self.server)
            raise
        self.counts = dict(self.data.counts)
        self.tracer = None
        self.rejected = 0
        self.reset_counters()

    # ------------------------------------------------------------------
    # server child
    # ------------------------------------------------------------------
    def _start_server(self) -> subprocess.Popen:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.server_log = os.path.join(self.work, "server.log")
        log = open(self.server_log, "w", encoding="utf-8")
        try:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--snapshot", self.data.snapshot, "--port", "0",
                 "--workers", str(self.workers)],
                stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=root, preexec_fn=_die_with_parent)
        finally:
            log.close()
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while time.monotonic() < deadline:
            with open(self.server_log, encoding="utf-8") as handle:
                for line in handle:
                    if "serving on " in line:
                        url = line.split("serving on ", 1)[1].split()[0]
                        self.base_url = url
                        return process
            if process.poll() is not None:
                break
            time.sleep(0.05)
        _stop(process)
        with open(self.server_log, encoding="utf-8") as handle:
            raise RuntimeError("query service did not start:\n" +
                               handle.read()[-2000:])

    def extra_rss_mib(self) -> float:
        return child_peak_rss_mib(self.server.pid)

    @property
    def store_bytes_per_event(self) -> float:
        return self.data.snapshot_bytes / self.data.events

    def meta(self) -> dict:
        return {"workers": self.workers, "backend": "asyncio",
                "result_cache": DEFAULT_RESULT_CACHE_SIZE,
                "plan_cache": DEFAULT_PLAN_CACHE_SIZE,
                "requests_per_loop": len(self.plan),
                "stored_events": self.data.events}

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _text(self, label: str, window, loop: int, position: int) -> str:
        # Bounds a whole second apart for each (loop, position) make
        # every fresh text new to the server; the answer does not
        # depend on them.
        index = loop * len(self.plan) + position
        fraction = (index % GAP_STEPS) / GAP_STEPS
        return render(label, window, self.data.history, fraction)

    def _query(self, text: str):
        tracer = self.tracer
        try:
            if not tracer.enabled:
                return self.client.query(text), 0.0
            with tracer.operation("request"):
                with tracer.span("http") as record:
                    start = time.perf_counter()
                    payload = self.client.query(text, profile=True)
                    elapsed = time.perf_counter() - start
                tracer.graft(record, [payload["profile"]])
            return payload, elapsed
        except ServiceError as exc:
            if exc.status is not None and \
                    (exc.status == 429 or exc.status >= 500):
                self.rejected += 1
            raise

    def _cache_stats(self) -> dict:
        """(hits, misses) of the result cache per request and of the
        plan cache per lookup."""
        stats = self.client.stats()
        counters = stats["counters"]
        hits = counters.get("query_cache_hits", 0)
        return {"result_cache": (hits, counters.get("queries", 0) - hits),
                "plan_cache": (stats["plan_cache"]["hits"],
                               stats["plan_cache"]["misses"])}

    def stream(self, loop: int):
        before = self._cache_stats()
        texts = []
        for position, (label, window, repeat) in enumerate(self.plan):
            if repeat:
                text = texts[position - repeat]
                name = f"repeat:{label}"
            else:
                text = self._text(label, window, loop, position)
                name = label
            texts.append(text)

            def check(outcome, label=label, window=window):
                payload, elapsed = outcome
                rows = payload["result"]["rows"]
                if digest(rows) != self.expected[label, window]:
                    raise Mismatch(f"rows differ from the monolithic "
                                   f"reference ({len(rows)} rows)")
                if elapsed:
                    self.overhead += elapsed - \
                        payload["timing"]["elapsed_seconds"]
                self.plans.append(payload["result"]["plan"])
                self.result_rows += len(rows)
                self.aggregates += label == "group_top"
                self.records.append((loop, label, {
                    "rows": len(rows), "cached": payload["cached"],
                    "plan": [{key: step.get(key) for key in (
                        "segments_scanned", "segments_pruned",
                        "segments_pruned_by_stats", "aggregate_pushdown",
                        "rows_in", "rows_out")}
                        for step in payload["result"]["plan"]]}))

            yield name, (lambda text=text: self._query(text)), check
        after = self._cache_stats()
        self.loop_caches.append({
            name: (after[name][0] - before[name][0],
                   after[name][1] - before[name][1])
            for name in after})
        self.records.append((loop, "caches", self.loop_caches[-1]))

    def overhead_filter(self, op) -> bool:
        """Profiled requests bypass the result cache, so the tracing
        overhead compares them with untraced misses only."""
        return not op.label.startswith("repeat:")

    def reset_counters(self) -> None:
        self.plans: list = []
        self.result_rows = 0
        self.aggregates = 0
        self.overhead = 0.0
        self.records: list = []
        self.loop_caches: list = []

    def untraced_layer_metrics(self) -> dict:
        hits = {"result_cache": 0, "plan_cache": 0}
        lookups = {"result_cache": 0, "plan_cache": 0}
        for caches in self.loop_caches:
            for name, (hit, miss) in caches.items():
                hits[name] += hit
                lookups[name] += hit + miss
        return {
            "service.cache.result_hit_ratio":
                hits["result_cache"] / lookups["result_cache"],
            "service.cache.plan_hit_ratio":
                hits["plan_cache"] / lookups["plan_cache"],
        }

    def layer_metrics(self, operations: int) -> dict:
        out = dict(self.data.layers)
        out.update(layers.plan_metrics(self.plans, self.result_rows,
                                       self.aggregates, operations))
        out["service.overhead_ms"] = self.overhead * 1000.0 / operations
        out["service.rejected"] = self.rejected
        return out

    def close(self) -> None:
        self.client.close()
        _stop(self.server)


def _die_with_parent() -> None:
    """Child-side: receive SIGTERM when the benchmark process dies."""
    import ctypes

    libc = ctypes.CDLL("libc.so.6", use_errno=True)
    pr_set_pdeathsig = 1
    libc.prctl(pr_set_pdeathsig, signal.SIGTERM)


def _stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
