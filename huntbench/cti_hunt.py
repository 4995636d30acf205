"""``cti_hunt``: OSCTI reports turned into hunts, case by case.

Set-up loads each of the 18 ``repro.benchmark.ALL_CASES`` audit
histories into its own store.  One operation takes one case's report
through ``ThreatRaptor.extract`` -> ``synthesize`` -> ``execute_tbql``
-> ``FuzzySearcher.search`` against that case's store.

A loop runs the 18 cases in a seeded order, then ``tc_theia_3`` and
``tc_theia_4`` once more.  Fuzzy search is about 90% of the time and
those two cases (100-200 ms each) set the tail; run twice, they are 20%
of a loop's operations, so the 90th percentile falls in the middle of
their cluster instead of on its lower edge.

Extraction, NLP, synthesis and fuzzy search run nowhere else.
Reference: true/false positives and false negatives of every case must
equal ``golden_table6.json``, the committed Table VI reproduction
(``repro.benchmark.run_hunting_accuracy()``).
"""

from __future__ import annotations

import json
import os
import random
import shutil

from repro.benchmark import ALL_CASES, CaseBuilder
from repro.benchmark.metrics import score_hunting
from repro.hunting import ThreatRaptor
from repro.storage import DualStore
from repro.tbql.fuzzy import FuzzySearcher

from harness import Mismatch, SetupClock, directory_bytes

SETUPS = 3
#: Cases run a second time in every loop (the fuzzy-search tail).
HEAVY = ("tc_theia_3", "tc_theia_4")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_table6.json")


def load_stores(built: dict, clock: SetupClock) -> dict:
    """One store per case, each load timed as a set-up call."""
    stores = {}
    with clock.setup():
        for case_id, case in built.items():
            store, _ = clock.call(DualStore)
            clock.call(lambda s=store, c=case: s.load_events(c.events))
            stores[case_id] = store
    return stores


class CtiHunt:
    workers = 1

    def __init__(self, seed: int, work: str, clock: SetupClock) -> None:
        with open(GOLDEN, encoding="utf-8") as handle:
            self.golden = json.load(handle)["cases"]
        case_builder = CaseBuilder()
        self.cases = {case.case_id: case for case in ALL_CASES}
        built = {case_id: case_builder.build(case)
                 for case_id, case in self.cases.items()}
        self.truth = {case_id: item.attack_signatures
                      for case_id, item in built.items()}
        stores = None
        for _ in range(SETUPS):
            if stores:
                for store in stores.values():
                    store.close()
            stores = load_stores(built, clock)
        self.stores = stores
        self.raptors = {case_id: ThreatRaptor(store=store)
                        for case_id, store in stores.items()}
        self.events = sum(store.relational.count_events()
                          for store in stores.values())
        snapshots = os.path.join(work, "case-snapshots")
        for case_id, store in stores.items():
            store.save(os.path.join(snapshots, case_id))
        self.snapshot_bytes = directory_bytes(snapshots)
        payload_bytes = directory_bytes(snapshots, payload_only=True)
        shutil.rmtree(snapshots, ignore_errors=True)
        self.order = list(self.cases)
        random.Random(seed).shuffle(self.order)
        self.order += list(HEAVY)
        self.counts = {"stored_events": self.events,
                       "payload_bytes": payload_bytes}
        self.tracer = None
        self.reset_counters()

    def extra_rss_mib(self) -> float:
        return 0.0

    @property
    def store_bytes_per_event(self) -> float:
        """Snapshot bytes per stored event over the 18 case stores."""
        return self.snapshot_bytes / self.events

    def meta(self) -> dict:
        return {"workers": self.workers, "cases": len(self.cases),
                "ops_per_loop": len(self.order),
                "stored_events": self.events}

    def _hunt(self, case_id: str):
        tracer = self.tracer
        raptor = self.raptors[case_id]
        report = self.cases[case_id].description
        with tracer.operation("hunt", case=case_id):
            with tracer.span("extract"):
                extraction = raptor.extract(report)
            with tracer.span("synthesize"):
                query = raptor.synthesize(extraction)
            with tracer.program("execute_tbql"):
                result = raptor.execute_tbql(query.text)
            with tracer.span("fuzzy_search"):
                fuzzy = FuzzySearcher(raptor.store).search(query.text)
        return result, fuzzy

    def stream(self, loop: int):
        for position, case_id in enumerate(self.order):
            first = position < len(self.cases)

            def check(outcome, case_id=case_id, first=first):
                result, fuzzy = outcome
                score = score_hunting(result.matched_event_signatures,
                                      self.truth[case_id])
                got = {"tp": score.true_positives,
                       "fp": score.false_positives,
                       "fn": score.false_negatives}
                if got != self.golden[case_id]:
                    raise Mismatch(f"{got} differs from the Table VI "
                                   f"golden copy {self.golden[case_id]}")
                self.fuzzy["load"] += fuzzy.loading_seconds
                self.fuzzy["preprocess"] += fuzzy.preprocessing_seconds
                self.fuzzy["search"] += fuzzy.searching_seconds
                self.fuzzy["alignments"] += len(fuzzy.alignments)
                if first:
                    for key, value in got.items():
                        self.totals[key] += value
                self.records.append((loop, case_id, {
                    **got, "alignments": len(fuzzy.alignments),
                    "rows": len(result.rows)}))

            yield case_id, (lambda c=case_id: self._hunt(c)), check

    def reset_counters(self) -> None:
        self.records: list = []
        self.fuzzy = {"load": 0.0, "preprocess": 0.0, "search": 0.0,
                      "alignments": 0}
        self.totals = {"tp": 0, "fp": 0, "fn": 0}

    def layer_metrics(self, operations: int) -> dict:
        loops = max(1, len({loop for loop, _, _ in self.records}))
        out = {f"tbql.fuzzy.{name}_ms": self.fuzzy[name] * 1000.0 /
               operations for name in ("load", "preprocess", "search")}
        out["tbql.fuzzy.alignments"] = self.fuzzy["alignments"] / operations
        out.update({f"cti.{key}": value / loops
                    for key, value in self.totals.items()})
        return out

    def close(self) -> None:
        for store in self.stores.values():
            store.close()
