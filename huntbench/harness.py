"""Shared machinery: calibration, the closed-loop runner, and statistics.

Every operation a workload runs is timed on its own, and one fixed
calibration operation runs between consecutive operations, outside the
timed region.  An operation's calibrated cost is its time divided by the
median of the calibration samples nearest to it, so a host that slows
down for a moment slows the calibration samples of that moment too and
the ratio stays put.  The calibration operation uses only the standard
library and never imports the program, so no change to the program can
move it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import sqlite3
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional

#: Calibration samples in the rolling window each operation is divided
#: by: the one before it, the one after it, and the next.  Host speed on
#: small shared VMs changes from second to second, so the nearest
#: samples track it best; the median of three keeps one slow sample
#: from moving a result.
CAL_WINDOW = 3
#: A run holds at least this many timed operations, so at least ten
#: samples lie beyond the 90th percentile.
MIN_OPS = 100
#: Set-up seconds are reported at this calibration time: a set-up that
#: took ``t`` seconds while the calibration operation took ``c``
#: seconds counts ``t * NOMINAL_CAL_SECONDS / c``.
NOMINAL_CAL_SECONDS = 0.005


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
class Calibrator:
    """A fixed stdlib-only operation of a few milliseconds.

    Dict building, string joins and splits, a sort, and one aggregate
    query against a private in-memory SQLite table.  Its checksum is
    fixed, so a sample that computed something else is caught.
    """

    ROWS = 3000
    KEYS = 6000

    def __init__(self) -> None:
        self._db = sqlite3.connect(":memory:")
        self._db.execute("CREATE TABLE t (k INTEGER, s TEXT, v REAL)")
        self._db.executemany(
            "INSERT INTO t VALUES (?, ?, ?)",
            [(i % 97, f"{'abcdefgh'[i % 8]}-{i * 7919 % 10007}", i * 0.5)
             for i in range(self.ROWS)])
        self._db.commit()
        self.samples: list[float] = []
        self._checksum: Optional[int] = None

    def _work(self) -> int:
        counts: dict[str, int] = {}
        for i in range(self.KEYS):
            key = f"k{i % 211}:{i * 2654435761 % 1009}"
            counts[key] = counts.get(key, 0) + i
        ordered = sorted(counts.items(), key=lambda item: (item[1], item[0]))
        joined = "|".join(key for key, _ in ordered).upper()
        parts = joined.split("|")
        rows = self._db.execute(
            "SELECT k % 13, COUNT(*), SUM(v) FROM t WHERE s LIKE 'c%' "
            "GROUP BY 1 ORDER BY 2 DESC, 1").fetchall()
        return len(parts) * 31 + sum(row[1] for row in rows) + len(joined)

    def sample(self) -> float:
        """Run the calibration operation once; returns its seconds."""
        start = time.perf_counter()
        checksum = self._work()
        elapsed = time.perf_counter() - start
        if self._checksum is None:
            self._checksum = checksum
        elif checksum != self._checksum:
            raise RuntimeError("calibration operation changed its answer")
        self.samples.append(elapsed)
        return elapsed

    def close(self) -> None:
        self._db.close()


class SetupClock:
    """Times set-ups call by call, each call calibrated like an operation.

    Inside ``with clock.setup():``, ``clock.call(fn)`` takes a
    calibration sample, times ``fn()``, and takes another; the call's
    seconds are scaled to :data:`NOMINAL_CAL_SECONDS` by the median of
    the samples around it.  A set-up's figure is the sum over its calls.

    Objects alive when a set-up starts (generated inputs, reference
    answers, earlier set-ups) are frozen out of the garbage collector
    for its duration, so collections inside it traverse only what the
    set-up itself allocates, however much the benchmark holds.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self.cal = calibrator
        self.raw: list[float] = []
        self.normalized: list[float] = []
        self._window: list[float] = []

    @contextmanager
    def setup(self) -> Iterator[None]:
        self.raw.append(0.0)
        self.normalized.append(0.0)
        gc.collect()
        gc.freeze()
        try:
            self._window = [self.cal.sample()]
            yield
        finally:
            gc.unfreeze()

    def call(self, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Run one program call of the current set-up; returns its result
        and raw seconds."""
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        self._window = self._window[-1:] + [self.cal.sample(),
                                            self.cal.sample()]
        self.raw[-1] += seconds
        self.normalized[-1] += (seconds * NOMINAL_CAL_SECONDS /
                                statistics.median(self._window))
        return result, seconds


def rolling_medians(samples: list[float], width: int = CAL_WINDOW
                    ) -> list[float]:
    """Median of the ``width`` samples nearest to each position."""
    count = len(samples)
    if count == 0:
        return []
    width = min(width, count)
    half = width // 2
    out = []
    for index in range(count):
        low = min(max(0, index - half), count - width)
        out.append(statistics.median(samples[low:low + width]))
    return out


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 500):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x /
                          ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            result *= c * d
        if abs(c * d - 1.0) < 1e-12:
            break
    return result


def beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) +
                 a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def percentile(values: list[float], share: float) -> float:
    """Harrell-Davis estimate of the ``share`` quantile.

    A weighted mean of all order statistics with Beta weights centred on
    the target rank.  Operation mixes are clustered (a cheap query type,
    an expensive one); a plain sample quantile that sits where two
    clusters meet jumps between them from run to run, while this one
    moves smoothly.
    """
    ordered = sorted(values)
    count = len(ordered)
    if not count:
        raise ValueError("percentile of no values")
    a = (count + 1) * share
    b = (count + 1) * (1.0 - share)
    total, previous = 0.0, 0.0
    for index, value in enumerate(ordered, start=1):
        current = beta_cdf(index / count, a, b)
        total += (current - previous) * value
        previous = current
    return total


def iqr_share(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


@dataclass
class OpSample:
    """One timed operation."""

    label: str
    seconds: float
    #: Index of the calibration sample taken right after this operation.
    cal_index: int


@dataclass
class Phase:
    """The timed operations of one measured phase, plus calibration."""

    ops: list[OpSample] = field(default_factory=list)
    loops: int = 0
    failed: int = 0


def summarize(phase: Phase, cal_samples: list[float],
              only: Optional[Callable[[OpSample], bool]] = None
              ) -> dict[str, float]:
    """Calibrated and raw latency statistics of a phase."""
    medians = rolling_medians(cal_samples)
    pairs = [(op, op.seconds / medians[op.cal_index]) for op in phase.ops
             if only is None or only(op)]
    seconds = [op.seconds for op, _ in pairs]
    cal = [ratio for _, ratio in pairs]
    return {
        "op_p50_cal": percentile(cal, 0.5),
        "op_p90_cal": percentile(cal, 0.9),
        "op_mean_cal": statistics.fmean(cal),
        "op_p50_ms": percentile(seconds, 0.5) * 1000.0,
        "ops_per_s": len(seconds) / sum(seconds),
        "samples": len(seconds),
    }


# ----------------------------------------------------------------------
# the closed-loop runner
# ----------------------------------------------------------------------
#: A workload yields, per loop, ``(label, run, check)`` triples: ``run``
#: is the timed call; ``check(result)`` runs untimed right after it and
#: raises :class:`Mismatch` on a wrong answer.
OpStream = Callable[[int], Iterable[tuple[str, Callable[[], Any],
                                          Callable[[Any], None]]]]


class Mismatch(Exception):
    """An answer differed from its reference."""


def spin(seconds: float) -> None:
    """Busy-wait; the sensitivity self-test's injected slowdown."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class LoopRunner:
    """Runs closed loops of operations with interleaved calibration.

    One client: each operation starts only after the previous one and its
    calibration sample finished.  A phase always ends at a loop boundary,
    so every run holds the same operation mix.
    """

    def __init__(self, stream: OpStream, calibrator: Calibrator,
                 slowdown: float = 0.0) -> None:
        self.stream = stream
        self.cal = calibrator
        self.slowdown = slowdown
        self.next_loop = 0
        self.mismatches: list[str] = []

    def _run_loop(self, phase: Optional[Phase]) -> None:
        loop = self.next_loop
        self.next_loop += 1
        for label, run, check in self.stream(loop):
            start = time.perf_counter()
            try:
                result = run()
            except Exception as exc:  # noqa: BLE001 - counted as failed
                if phase is not None:
                    phase.failed += 1
                self.mismatches.append(f"{label}: {type(exc).__name__}: "
                                       f"{exc}")
                self.cal.sample()
                continue
            elapsed = time.perf_counter() - start
            if self.slowdown:
                spin(elapsed * self.slowdown)
                elapsed = time.perf_counter() - start
            try:
                check(result)
            except Mismatch as exc:
                self.mismatches.append(f"{label}: {exc}")
            self.cal.sample()
            if phase is not None:
                phase.ops.append(OpSample(label, elapsed,
                                          len(self.cal.samples) - 1))
        if phase is not None:
            phase.loops += 1

    def warm_up(self) -> None:
        """One untimed loop: caches fill and lazy set-up finishes."""
        self._run_loop(None)

    def measure(self, seconds: float, min_ops: int = MIN_OPS,
                after_first_loop: Optional[Callable[[], None]] = None
                ) -> Phase:
        """Whole loops until ``seconds`` passed and ``min_ops`` ran."""
        phase = Phase()
        start = time.perf_counter()
        while True:
            self._run_loop(phase)
            if after_first_loop is not None and phase.loops == 1:
                after_first_loop()
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and len(phase.ops) >= min_ops:
                break
        return phase


# ----------------------------------------------------------------------
# run metadata and small helpers
# ----------------------------------------------------------------------
def peak_rss_mib() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mib(pid: int) -> float:
    """Peak RSS (VmHWM) of a live child process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def directory_bytes(path: str, payload_only: bool = False) -> int:
    """Bytes of the files under ``path``; ``payload_only`` skips the
    JSON manifests, whose timestamps change their length by a byte or
    two from run to run."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            if not (payload_only and name.endswith(".json")):
                total += os.path.getsize(os.path.join(root, name))
    return total


def digest(value: Any) -> str:
    """Order-preserving content hash of JSON-like data."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def run_metadata(seed: int) -> dict[str, Any]:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": numpy_available(),
        "argv": sys.argv[1:],
    }


def source_fingerprint(root: str, parts: Iterable[str]) -> str:
    """Content hash of the program and benchmark sources."""
    hasher = hashlib.sha256()
    for part in parts:
        base = os.path.join(root, part)
        for directory, dirs, files in sorted(os.walk(base)):
            dirs.sort()
            for name in sorted(files):
                if not name.endswith((".py", ".json")):
                    continue
                path = os.path.join(directory, name)
                hasher.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()[:16]

