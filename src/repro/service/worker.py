"""Worker-side execution of one :class:`CompileJob`.

Runs inside a ``ProcessPoolExecutor`` worker process.  Three
guarantees, in decreasing order of how much of the process survives:

* a compile **error** is caught and returned as a structured
  ``JobResult`` — the worker stays warm;
* a **timeout** is enforced in-process with ``SIGALRM`` (the executor
  runs jobs on the worker's main thread, so the alarm interrupts pure
  Python reliably) and also returned structurally;
* a worker **crash** (segfault, ``os._exit``, OOM kill) is the only
  case that escapes — the parent sees ``BrokenProcessPool`` and
  handles isolation/retry there.

The worker process owns a private in-memory LRU on top of the batch's
shared on-disk cache directory (configured once per worker by
:func:`init_worker`), so concurrent jobs contend only on the atomic
disk layer.
"""

from __future__ import annotations

import os
import signal
import time

from repro import cache as _cache
from repro.asip.isa_library import resolve_processor
from repro.errors import ReproError
from repro.observe import trace as obs_trace
from repro.observe.trace import TraceSession
from repro.service.jobs import CompileJob, JobResult


class _JobTimeout(Exception):
    """Raised by the SIGALRM handler when the per-job deadline fires."""


def _on_alarm(signum, frame):
    raise _JobTimeout()


def init_worker(cache_dir: "str | None", cache_size: int = 256) -> None:
    """Pool initializer: point this worker at the batch's shared disk
    cache (one in-memory LRU per worker, reused across its jobs) and
    at the sibling native ``.so`` store for ``warm_native`` jobs."""
    # Shed any signal plumbing inherited from the parent.  A worker
    # forked from an asyncio parent (the repro-serve daemon) inherits
    # its ``signal.set_wakeup_fd`` pipe and Python-level handlers; a
    # worker receiving SIGTERM (pool teardown uses terminate()) would
    # then write the signal byte into the *shared* pipe and the parent
    # loop would observe a phantom signal — observed as a daemon drain
    # aborting itself.  Workers must die silently and by default.
    if hasattr(signal, "set_wakeup_fd"):
        try:
            signal.set_wakeup_fd(-1)
        except (ValueError, OSError):
            pass
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):
            pass
    _cache.configure(maxsize=cache_size, cache_dir=cache_dir)
    if cache_dir:
        from repro import native
        native.configure(cache_dir=os.path.join(cache_dir, "native"))


def _apply_test_hook(hook: "str | None") -> None:
    """Fault injection for the concurrency test tier."""
    if not hook:
        return
    if hook == "crash":
        # Simulates a segfault/OOM kill: the process dies without
        # cleanup, so the parent's future gets BrokenProcessPool.
        os._exit(139)
    if hook == "hang":
        # Far past any sane deadline; the in-worker alarm (or, if the
        # job carries no timeout, the parent watchdog) must recover.
        time.sleep(3600.0)
    if hook == "exception":
        raise RuntimeError("injected worker exception (test hook)")
    raise ValueError(f"unknown test hook {hook!r}")


def _warm_native(compiled, session) -> None:
    """Best-effort: publish the job's native ``.so`` into the shared
    artifact store so later ``simulate(backend="native")`` callers open
    warm.  Never fails the job; a missing compiler or a build error is
    surfaced through the ``native.*`` counters the parent aggregates."""
    import shutil

    from repro import native
    from repro.native.abi import native_source

    if shutil.which("gcc") is None:
        session.counter("native.warm_skipped_no_cc")
        return
    try:
        source = native_source(compiled.module, compiled.processor)
        native.default_cache().warm(source)
    except Exception:
        # Build errors already counted as native.build_error by the
        # cache; anything else is still only a warming failure.
        session.counter("native.warm_failed")


def _simulate_job(job: CompileJob, compiled, result: JobResult,
                  session) -> None:
    """Run the compiled entry on deterministic seed-derived inputs and
    record the cycle count.  Cycle totals are a pure function of the
    job description, so a batch's counts are identical at any worker
    count — the merge-exactness the DSE engine's Pareto fronts build
    on."""
    from repro.sim.inputs import random_inputs

    t0 = time.perf_counter()
    inputs = random_inputs(compiled.module.entry_function,
                           job.simulate_seed)
    run = compiled.simulate(inputs, backend=job.simulate_backend)
    result.sim_wall_s = time.perf_counter() - t0
    result.cycles = run.report.total
    result.instruction_counts = dict(run.report.instruction_counts)
    session.observe("service.sim_s", result.sim_wall_s)
    session.counter("service.simulations")


def run_job(job: CompileJob, allow_test_hooks: bool = False) -> JobResult:
    """Execute one job; always returns (never raises) unless the
    process itself dies."""
    from repro.cli import parse_arg_spec
    from repro.compiler import CompilerOptions, compile_source

    wall_origin = time.time()
    t0 = time.perf_counter()
    session = TraceSession()
    cache_before = _cache.stats()

    result = JobResult(job_id=job.job_id, status="ok",
                       worker_pid=os.getpid(), wall_origin=wall_origin)
    if job.submitted_at is not None:
        # Queue wait is a cross-process wall-clock difference; clock
        # skew between parent and worker on one host is far below the
        # histogram bucket width, and negatives clamp to zero.
        result.queue_wait_s = max(0.0, wall_origin - job.submitted_at)
        session.observe("service.queue_wait_s", result.queue_wait_s)
    session.event("job.start", job_id=job.job_id,
                  worker_pid=result.worker_pid,
                  queue_wait_s=round(result.queue_wait_s, 6))
    alarm_set = False
    old_handler = None
    try:
        if job.timeout and hasattr(signal, "SIGALRM"):
            old_handler = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, job.timeout)
            alarm_set = True
        if allow_test_hooks:
            _apply_test_hook(job.test_hook)
        with obs_trace.use(session):
            specs = [parse_arg_spec(s) for s in job.args]
            compiled = compile_source(
                job.source, args=specs, entry=job.entry,
                processor=resolve_processor(job.processor),
                options=CompilerOptions(**job.options),
                filename=job.filename)
            result.c_source = compiled.c_source()
            if job.simulate_seed is not None:
                _simulate_job(job, compiled, result, session)
        result.entry_name = compiled.entry_name
        result.stage_times = dict(compiled.stage_times)
        result.pass_stats = dict(compiled.pass_stats)
        if job.warm_native:
            _warm_native(compiled, session)
    except _JobTimeout:
        result.status = "timeout"
        result.detail = (f"job exceeded its {job.timeout:.3g}s deadline "
                         "(killed by in-worker alarm)")
    except (ReproError, ValueError, KeyError) as exc:
        result.status = "error"
        result.error_type = type(exc).__name__
        result.detail = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # internal bug — still isolate it
        result.status = "error"
        result.error_type = type(exc).__name__
        result.detail = f"internal error: {type(exc).__name__}: {exc}"
    finally:
        if alarm_set:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)

    result.wall_s = time.perf_counter() - t0
    session.observe("service.exec_s", result.wall_s)
    session.counter(f"service.job_{result.status}")
    session.event("job.done", job_id=job.job_id, status=result.status,
                  wall_s=round(result.wall_s, 6))
    result.remarks = [remark.to_dict() for remark in session.remarks]
    result.spans = [span.to_dict() for span in session.spans]
    result.counters = dict(session.counters)
    result.metrics = session.metrics.snapshot()
    result.events = list(session.events)
    cache_after = _cache.stats()
    result.cache = {name: cache_after.get(name, 0) - before
                    for name, before in cache_before.items()
                    if name != "size"}
    return result
