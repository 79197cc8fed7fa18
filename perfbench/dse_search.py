"""``dse_search``: back-to-back design-space searches.

Each search is a :class:`DesignSpaceSearch` over the ten-kernel corpus
(``examples/mlab/manifest.json``) and the 16-candidate space in
``dse_space.json`` (two lowering axes and the two cost-only axes),
with 2 workers, the run's seed and a fresh compile cache, so every
search pays every compile and simulation.  An operation is one search;
``ops_per_s`` counts candidates scored per second of search.

The front document of every search must be byte-identical to
``dse_front_golden.json``.  The golden was recorded at seed 0; the
corpus's cycle counts do not depend on the input values the seed
draws, so the check sets the document's ``seed`` field to the
golden's and compares every other byte.  To record it again (after a
change that is meant to move cycle counts), from the repository root::

    PYTHONPATH=src python -m repro.dse.cli --corpus examples/mlab \
        --space perfbench/dse_space.json --jobs 2 --seed 0 \
        --out perfbench/dse_front_golden.json
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench import harness, layers, probes
from perfbench.harness import Config, Report
from perfbench.tracer import Tracer

JOBS = 2
HERE = Path(__file__).resolve().parent
SPACE = HERE / "dse_space.json"
GOLDEN = HERE / "dse_front_golden.json"

_TINY_KERNELS = ("cdot", "bf_weights")


#: What ``repro-dse`` does before its search, in a fresh interpreter.
_COLD_START = ("import sys; from repro.dse.engine import load_corpus; "
               "from repro.dse.space import load_space; "
               "load_corpus(sys.argv[1]); load_space(sys.argv[2])")


def _load(cfg: Config):
    """Set-up: a fresh interpreter importing the DSE engine and loading
    the corpus and space (the search tool's start-up), then the same
    loads in this process."""
    from benchmarks.workloads import KERNEL_DIR
    from repro.dse.engine import load_corpus
    from repro.dse.space import load_space

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in sys.path if p))
    subprocess.run([sys.executable, "-c", _COLD_START, str(KERNEL_DIR),
                    str(SPACE)], env=env, check=True, timeout=120)
    corpus = load_corpus(str(KERNEL_DIR))
    if cfg.tiny:
        corpus = [k for k in corpus if k.name in _TINY_KERNELS]
    return corpus, load_space(str(SPACE))


def front_text(result, seed: int) -> str:
    """The front document as ``repro-dse --out`` writes it, with its
    ``seed`` field set to ``seed``."""
    document = result.document()
    document["seed"] = seed
    return json.dumps(document, indent=2) + "\n"


class _Phase:
    def __init__(self) -> None:
        self.walls: "list[float]" = []
        self.candidates = 0
        self.cycle_vectors: "list[tuple]" = []


def _run_phase(cfg, report, corpus, space, seconds, tracer,
               golden) -> _Phase:
    from repro.dse.engine import DesignSpaceSearch

    phase = _Phase()
    start = time.perf_counter()
    while not phase.walls or time.perf_counter() - start < seconds:
        search = DesignSpaceSearch(corpus, space, jobs=JOBS,
                                   seed=cfg.seed,
                                   cache_dir=str(cfg.subdir("dse")))
        candidates = len(space)
        report.attempted += candidates
        t0 = time.perf_counter()
        if tracer is None:
            result = search.run()
        else:
            with tracer.span("op.search"):
                result = search.run()
        phase.walls.append(time.perf_counter() - t0)
        phase.candidates += candidates
        for candidate in result.candidates:
            report.check(candidate.ok, f"{candidate.point_id}: "
                         f"{candidate.status} {candidate.detail}")
            phase.cycle_vectors.append(tuple(sorted(
                candidate.cycles.items())))
        if golden is not None:
            seed = json.loads(golden)["seed"]
            report.check(front_text(result, seed) == golden,
                         "front document differs from the golden front")
    return phase


def run(cfg: Config) -> Report:
    report = Report(cfg.workload)
    corpus, space = harness.timed_setup(report, lambda: _load(cfg))
    golden = None if cfg.tiny else GOLDEN.read_text()
    seconds = cfg.seconds / 2 if cfg.trace else cfg.seconds
    plain = _run_phase(cfg, report, corpus, space, seconds, None, golden)

    report.lines.append(
        f"dse_search (closed loop, 1 caller, {JOBS} workers, "
        f"{len(space)} candidates x {len(corpus)} kernels per search, "
        f"{len(plain.walls)} searches)")
    per_s = statistics.median(len(space) / wall for wall in plain.walls)
    report.line("dse_candidates_per_s", per_s, "1/s",
                "median over searches")
    p50, tail = report.timing("search_ms",
                              [s * 1e3 for s in plain.walls], "ms", 100.0)
    report.metric("ops_per_s", per_s, "1/s")
    report.metric("op_ms_p50", p50, "ms")
    report.metric("op_ms_tail", tail, "ms")
    if cfg.trace:
        _traced(cfg, report, corpus, space, seconds, plain, golden)
    harness.finish_end_to_end(report)
    return report


def _traced(cfg, report, corpus, space, seconds, plain, golden) -> None:
    tracer = Tracer()
    probes.trace_dse(tracer)
    probes.trace_service(tracer)
    try:
        traced = _run_phase(cfg, report, corpus, space, seconds, tracer,
                            golden)
    finally:
        tracer.restore()
    report.check(traced.cycle_vectors[:len(plain.cycle_vectors)]
                 == plain.cycle_vectors[:len(traced.cycle_vectors)],
                 "cycle counts differ between traced and untraced runs")
    searches = len(traced.walls)
    extra = {
        "dse.evaluations": traced.candidates * len(corpus) / searches,
        "dse.distinct_result_ratio": len(set(traced.cycle_vectors))
        * searches / max(1, traced.candidates),
    }
    for name in ("service.jobs", "service.retries", "service.failed"):
        extra[name] = tracer.counts[name] / searches
    layers.finish_traced(report, tracer, extra,
                         sum(plain.walls) / len(plain.walls))
