"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 huntbench/run.py --workload join_hunt --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` spends the first half of ``--seconds`` untraced and the
second half traced, prints every per-layer metric, and writes the span
file under ``.huntbench_work/``.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it holds the run metadata.  See ``huntbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".huntbench_work")

WORKLOADS = ("join_hunt", "scan_hunt", "stream_ingest", "cti_hunt")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_cal": "cal",
    "op_p90_cal": "cal",
    "op_mean_cal": "cal",
    "peak_rss_mib": "MiB",
    "store_bytes_per_event": "B",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-slowdown", type=float, default=0.0, metavar="FRACTION",
        help="sensitivity self-test only: busy-wait FRACTION of each "
             "operation's own time inside its timed region")
    return parser.parse_args(argv)


def load_workload(name: str, seed: int, work: str, clock):
    if name == "join_hunt":
        from join_hunt import JoinHunt
        return JoinHunt(seed, work, clock)
    if name == "scan_hunt":
        from scan_hunt import ScanHunt
        return ScanHunt(seed, work, clock)
    if name == "stream_ingest":
        from stream_ingest import StreamIngest
        return StreamIngest(seed, work, clock)
    from cti_hunt import CtiHunt
    return CtiHunt(seed, work, clock)


def loops_identical(records: list) -> tuple[bool, list]:
    """True when every loop produced the same exact records."""
    by_loop: dict[int, list] = {}
    for loop, label, record in records:
        by_loop.setdefault(loop, []).append((label, record))
    loops = [by_loop[key] for key in sorted(by_loop)]
    first = loops[0] if loops else []
    return all(loop == first for loop in loops), first


def check_fingerprint(name: str, value: str, key: str) -> bool:
    """Exact counts must repeat across runs of one seed on one source
    tree; the first run of a key records it."""
    from harness import source_fingerprint

    tree = source_fingerprint(ROOT, ("src", os.path.basename(HERE)))
    directory = os.path.join(WORK, "fingerprints")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}-{key}-{tree}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)["fingerprint"] == value
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fingerprint": value}, handle)
    return True


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"huntbench: no program sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("huntbench: --seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    # Every temporary file of this process and its children stays in
    # the checkout.
    os.environ["TMPDIR"] = WORK
    tempfile.tempdir = WORK
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

    import harness
    import layers
    from tracer import NullTracer, Tracer

    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    calibrator = harness.Calibrator()
    clock = harness.SetupClock(calibrator)
    workload = None
    try:
        try:
            workload = load_workload(args.workload, args.seed, run_dir,
                                     clock)
        except harness.Mismatch as exc:
            # A reference check of the set-up failed: report the run as
            # incorrect rather than end without a result.
            meta = harness.run_metadata(args.seed)
            meta.update({"workload": args.workload, "trace": args.trace,
                         "problems": [f"set-up: {exc}"]})
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
            print(json.dumps({"meta": meta}, default=str))
            print(json.dumps(result))
            return 0
        workload.tracer = NullTracer()
        runner = harness.LoopRunner(workload.stream, calibrator,
                                    slowdown=args.inject_slowdown)
        runner.warm_up()
        workload.reset_counters()
        # Long-lived set-up objects move out of the collector's reach, so
        # a full collection costs the same in every run; garbage the
        # operations make is still collected inside the timed regions.
        gc.collect()
        gc.freeze()
        seconds = args.seconds / 2 if args.trace else args.seconds
        # Peak RSS is read when the first timed loop ends: the columnar
        # reader keeps up to 128 segment mappings process-wide, so a
        # process that runs more passes maps more, and the loop count
        # depends on host speed.
        rss: list[float] = []
        phase = runner.measure(seconds, after_first_loop=lambda: rss.append(
            harness.peak_rss_mib() + workload.extra_rss_mib()))
        untraced = harness.summarize(phase, calibrator.samples)
        records_ok, first_loop = loops_identical(workload.records)
        phases = [phase]
        layer_values: dict[str, float] = {}
        tracer = None
        if args.trace:
            untraced_layers = workload.untraced_layer_metrics() \
                if hasattr(workload, "untraced_layer_metrics") else {}
            workload.reset_counters()
            tracer = Tracer()
            workload.tracer = tracer
            traced_phase = runner.measure(seconds, min_ops=1)
            phases.append(traced_phase)
            operations = len(traced_phase.ops)
            layer_values = {name: 0.0 for name, _ in layers.PER_LAYER}
            layer_values.update(workload.layer_metrics(operations))
            layer_values.update(layers.span_metrics(tracer, operations))
            layer_values.update(untraced_layers)
            only = getattr(workload, "overhead_filter", None)
            traced = harness.summarize(traced_phase, calibrator.samples)
            base = harness.summarize(phase, calibrator.samples, only) \
                if only else untraced
            layer_values["trace.overhead"] = \
                traced["op_mean_cal"] / base["op_mean_cal"]
            traced_ok, _ = loops_identical(workload.records)
            records_ok = records_ok and traced_ok
        cal_samples = calibrator.samples
        layer_values["host.cal_ms"] = statistics.median(cal_samples) * 1000
        layer_values["host.raw_op_p50_ms"] = untraced["op_p50_ms"]
        layer_values["host.raw_ops_per_s"] = untraced["ops_per_s"]
        layer_values["host.cal_iqr_share"] = harness.iqr_share(cal_samples)

        fingerprint = harness.digest({"setup": workload.counts,
                                      "loop": first_loop})
        repeat_ok = check_fingerprint(
            args.workload, fingerprint,
            f"seed{args.seed}-trace{args.trace}")
        metrics_values = {
            "setup_s": statistics.median(clock.normalized),
            "op_p50_cal": untraced["op_p50_cal"],
            "op_p90_cal": untraced["op_p90_cal"],
            "op_mean_cal": untraced["op_mean_cal"],
            "peak_rss_mib": rss[0],
            "store_bytes_per_event": workload.store_bytes_per_event,
        }
        if args.trace:
            units = dict(layers.PER_LAYER)
            metrics = {name: {"value": layer_values[name],
                              "unit": units[name]}
                       for name, _ in layers.PER_LAYER}
        else:
            metrics = {name: {"value": value,
                              "unit": END_TO_END_UNITS[name]}
                       for name, value in metrics_values.items()}
        problems = list(runner.mismatches)
        if not records_ok:
            problems.append("exact counts differ between loops")
        if not repeat_ok:
            problems.append("exact counts differ from an earlier run of "
                            "this seed")
        meta = harness.run_metadata(args.seed)
        meta.update(workload.meta())
        meta.update({
            "workload": args.workload,
            "trace": args.trace,
            "inject_slowdown": args.inject_slowdown,
            "setup_raw_s": statistics.median(clock.raw),
            "op_p50_ms": untraced["op_p50_ms"],
            "ops_per_s": untraced["ops_per_s"],
            "samples": {"ops": untraced["samples"],
                        "setups": len(clock.raw),
                        "loops": phase.loops,
                        "calibration": len(cal_samples),
                        "traced_ops": len(phases[-1].ops)
                        if args.trace else 0},
            "fingerprint": fingerprint,
            "problems": problems[:20],
        })
        if tracer is not None:
            span_path = os.path.join(
                WORK, f"spans-{args.workload}-seed{args.seed}.json")
            tracer.write(span_path, meta)
            meta["span_file"] = os.path.relpath(span_path, ROOT)
        attempted = sum(len(p.ops) + p.failed for p in phases)
        failed = sum(p.failed for p in phases)
        result = {"correct": not problems, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        results_dir = os.path.join(WORK, "results")
        os.makedirs(results_dir, exist_ok=True)
        with open(os.path.join(
                results_dir, f"{args.workload}-seed{args.seed}-"
                f"trace{args.trace}.json"), "w", encoding="utf-8") as out:
            json.dump({"meta": meta, "result": result,
                       "end_to_end": metrics_values,
                       "ops": [[op.label, op.seconds, op.cal_index]
                               for op in phase.ops],
                       "calibration": cal_samples}, out)
    finally:
        if workload is not None:
            workload.close()
        calibrator.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"meta": meta}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
