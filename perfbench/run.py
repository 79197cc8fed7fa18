"""Run one workload of the repository benchmark.

From the repository root::

    python3 perfbench/run.py --workload compile_cold --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload once untraced and once with spans around each layer's
public entry points, and reports the per-layer metrics.  A result
table goes to stdout, and the last stdout line is one JSON object::

    {"correct": true, "attempted": 412, "failed": 0,
     "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}

Every scratch file lives under ``.perfbench/`` in the checkout; the
traced run leaves its spans in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("compile_cold", "execute_warm", "serve_mixed", "dse_search")

#: What the benchmark needs from the checkout besides its own files.
REQUIRED = ("src/repro/compiler.py", "benchmarks/workloads.py",
            "examples/mlab/manifest.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbench", description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke size (the benchmark's own tests)")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print("perfbench: not run from a repository checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench import harness

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=scratch))
    harness.isolate_environment(workdir)
    cfg = harness.Config(workload=args.workload, seed=args.seed,
                         seconds=args.seconds, trace=bool(args.trace),
                         workdir=workdir, tiny=args.tiny)
    try:
        module = importlib.import_module(f"perfbench.{args.workload}")
        report = module.run(cfg)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in report.lines:
        print(line)
    for failure in report.failures:
        print(f"  FAILED: {failure}")
    if report.tracer is not None:
        trace_path = scratch / "traces" / \
            f"{args.workload}-seed{args.seed}.json"
        report.tracer.write(trace_path)
        print(f"  spans: {trace_path.relative_to(ROOT)}")
    metrics = report.per_layer if cfg.trace else report.metrics
    print(json.dumps({
        "correct": report.failed == 0 and report.attempted > 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
