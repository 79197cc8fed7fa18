"""Shared pieces of the benchmark: run configuration, the report every
workload fills in, percentile helpers, and repeated set-up timing."""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Failure descriptions kept per report (the count is always exact).
_MAX_FAILURE_NOTES = 20


@dataclass
class Config:
    """One benchmark run as given on the command line."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    #: Scratch directory inside the checkout, removed after the run.
    workdir: Path
    #: Shrinks every workload to a smoke size (the benchmark's tests).
    tiny: bool = False

    def subdir(self, name: str) -> Path:
        """A fresh, empty directory under the run's scratch area."""
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.workdir))


@dataclass
class Report:
    """What one workload run measured and checked."""

    workload: str
    attempted: int = 0
    failed: int = 0
    failures: "list[str]" = field(default_factory=list)
    #: End-to-end metrics: name -> (value, unit).
    metrics: "dict[str, tuple[float, str]]" = field(default_factory=dict)
    #: Per-layer metrics of the traced run: name -> (value, unit).
    per_layer: "dict[str, tuple[float, str]]" = field(default_factory=dict)
    #: The traced run's spans (written out when the run ends).
    tracer: "object | None" = None
    #: Human-readable result table, printed before the JSON line.
    lines: "list[str]" = field(default_factory=list)

    def fail(self, what: str) -> None:
        """Count one failed operation or output check."""
        self.failed += 1
        if len(self.failures) < _MAX_FAILURE_NOTES:
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(what)
        return ok

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def line(self, name: str, value: float, unit: str,
             note: str = "") -> None:
        self.lines.append(f"  {name:<26} {value:>14.6g} {unit:<10} {note}")

    def timing(self, name: str, samples: "list[float]", unit: str,
               tail_pct: float, p50: "float | None" = None,
               p50_note: str = "") -> "tuple[float, float]":
        """Print ``<name>_p50`` and ``<name>_tail`` for ``samples``
        (already in ``unit``); returns (p50, tail).  A workload whose
        samples mix operations of very different cost passes its own
        ``p50`` and says how it was taken."""
        if p50 is None:
            p50 = percentile(samples, 50.0)
        tail = percentile(samples, tail_pct)
        beyond = samples_beyond(len(samples), tail_pct)
        self.line(f"{name}_p50", p50, unit,
                  p50_note or f"n={len(samples)}")
        self.line(f"{name}_tail", tail, unit,
                  f"p{tail_pct:g}, n={len(samples)}, {beyond} beyond")
        return p50, tail


def percentile(samples: "list[float]", pct: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, pct: float) -> int:
    """Samples strictly above the ``pct`` percentile rank."""
    return max(0, count - 1 - math.floor((count - 1) * pct / 100.0))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mib() -> float:
    """Peak resident set of this process (children excluded), MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(report: Report, build, teardown=None):
    """Run ``build()`` :data:`SETUP_REPEATS` times, record the median as
    ``setup_s`` and return the last state (earlier ones are passed to
    ``teardown``)."""
    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None and teardown is not None:
            teardown(state)
        t0 = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - t0)
    report.metric("setup_s", statistics.median(times), "s")
    report.line("setup_s", statistics.median(times), "s",
                f"median of {SETUP_REPEATS}")
    return state


def finish_end_to_end(report: Report) -> None:
    """Add the metrics every workload reports the same way."""
    rss = peak_rss_mib()
    report.metric("peak_rss_mb", rss, "MiB")
    report.line("peak_rss_mb", rss, "MiB")
    share = report.failed / max(1, report.attempted)
    report.line("failed_share", share, "ratio",
                f"{report.failed}/{report.attempted}")


def isolate_environment(workdir: Path) -> None:
    """Keep every temporary file and cache of the run under
    ``workdir``, whatever the caller's environment says."""
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    for name in ("REPRO_CACHE_DIR", "REPRO_NATIVE_CACHE_DIR",
                 "REPRO_TRACE", "REPRO_SIM_BACKEND"):
        os.environ.pop(name, None)
