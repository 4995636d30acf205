"""Checks of the benchmark itself; neither runs by default.

``sensitivity``: runs every workload with and without an injected
slowdown on ``join_hunt`` (a busy-wait of 30% of each operation's own
time inside its timed region) and shows that its calibrated metrics
cross their ``BENCHMARK.json`` bounds while the other workloads stay
inside theirs::

    python3 huntbench/selftest.py sensitivity

``host-noise``: runs ``join_hunt`` alone and then while a spawned
busy-loop process competes for a CPU, and prints how far the raw and
the calibrated figures moved::

    python3 huntbench/selftest.py host-noise

Both run ``huntbench/run.py`` as child processes on seeds 101-105 for
15 seconds each, run the two sides of a seed back to back, report the
median over the seeds of each seed's ratio, and stop every process they
start.  Pairing the runs of one seed keeps the host's slower drift out
of the ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

CALIBRATED = ("op_p50_cal", "op_p90_cal", "op_mean_cal")
SEEDS = (101, 102, 103, 104, 105)
SECONDS = 15
TARGET = "join_hunt"
#: Share of each target operation's own time busy-waited.  A 10%
#: slowdown is inside the run-to-run noise the bounds must allow.
FRACTION = 0.30


def bounds() -> dict[str, float]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {metric["name"]: metric["bound"]
            for metric in spec["end_to_end"]}


def run(workload: str, seed: int, fraction: float = 0.0) -> dict:
    """One untraced run; returns its metric values plus raw figures."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", "0"]
    if fraction:
        command += ["--inject-slowdown", str(fraction)]
    output = subprocess.run(command, cwd=ROOT, check=True,
                            capture_output=True, text=True,
                            timeout=600).stdout.strip().splitlines()
    result = json.loads(output[-1])
    meta = json.loads(output[-2])["meta"]
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: "
                         f"{meta['problems']}")
    values = {name: item["value"]
              for name, item in result["metrics"].items()}
    values["raw_op_p50_ms"] = meta["op_p50_ms"]
    values["raw_ops_per_s"] = meta["ops_per_s"]
    return values


def medians(runs: list[dict]) -> dict[str, float]:
    return {name: statistics.median(item[name] for item in runs)
            for name in runs[0]}


def paired_change(before: list[dict], after: list[dict],
                  name: str) -> float:
    """Median over seeds of ``after / before - 1``."""
    return statistics.median(second[name] / first[name] - 1.0
                             for first, second in zip(before, after))


def sensitivity() -> int:
    limits = bounds()
    failures = 0
    print(f"injected slowdown: {FRACTION:.0%} of each operation's "
          f"time, on {TARGET} only")
    for workload in WORKLOADS:
        base, injected = [], []
        for seed in SEEDS:
            base.append(run(workload, seed))
            injected.append(run(
                workload, seed, FRACTION if workload == TARGET else 0.0))
        before, after = medians(base), medians(injected)
        for name in CALIBRATED:
            change = paired_change(base, injected, name)
            crossed = change > limits[name]
            expected = workload == TARGET
            verdict = "ok" if crossed == expected else "UNEXPECTED"
            failures += crossed != expected
            print(f"{workload:14s} {name:12s} {before[name]:9.4f} -> "
                  f"{after[name]:9.4f} ({change:+7.2%}, bound "
                  f"{limits[name]:.0%}, {'crossed' if crossed else 'inside'}"
                  f") {verdict}")
    return 1 if failures else 0


def host_noise() -> int:
    names = CALIBRATED + ("raw_op_p50_ms", "raw_ops_per_s")
    quiet, noisy = [], []
    for seed in SEEDS:
        quiet.append(run("join_hunt", seed))
        hog = subprocess.Popen([sys.executable, "-c", "while True: pass"])
        try:
            noisy.append(run("join_hunt", seed))
        finally:
            hog.terminate()
            hog.wait()
    before, after = medians(quiet), medians(noisy)
    print("join_hunt with a competing busy loop (not a gate):")
    for name in names:
        change = paired_change(quiet, noisy, name)
        print(f"  {name:14s} {before[name]:9.4f} -> {after[name]:9.4f} "
              f"({change:+7.2%})")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("check", choices=("sensitivity", "host-noise"))
    args = parser.parse_args(argv)
    if args.check == "sensitivity":
        return sensitivity()
    return host_noise()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
