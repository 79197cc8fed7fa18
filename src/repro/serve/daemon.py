"""The compile daemon engine: warm cache, coalescing, admission control.

:class:`CompileDaemon` is the transport-agnostic core of
``repro-serve``.  It sits between a front-end (the asyncio HTTP layer
in :mod:`repro.serve.httpd`, or a test calling :meth:`submit`
directly) and the existing :class:`~repro.service.CompileService`
worker pool, and adds the three things a long-lived resident process
needs that a batch tool does not:

* **A persistent warm cache.**  The daemon owns an in-process
  :class:`~repro.cache.CompilationCache` layered above the same
  on-disk store its workers publish into.  A repeated request is
  answered from memory without touching the pool; a request another
  worker compiled in a previous life of the disk cache is answered
  after one pickle load.  The cache key is the full content hash of
  ``(source, args, entry, processor, options, filename)`` — exactly
  :func:`repro.cache.cache_key`, schema-salted so entries from older
  code revisions read as misses.

* **Request coalescing.**  Concurrent requests for an identical key
  elect one *leader* that occupies a pool slot; every *follower*
  attaches to the leader's future and is answered by the same compile.
  A thousand simultaneous requests for one cold kernel cost one
  compile, not a thousand (``tests/test_serve.py`` proves exactly
  one).

* **Admission control.**  Distinct in-flight compiles are bounded by
  ``queue_depth``; beyond it, new *leaders* are shed immediately with
  a structured refusal (HTTP 429 upstream) instead of growing an
  unbounded queue.  Followers are always admitted — they add no pool
  work — and cache hits bypass admission entirely.  Accepted work is
  never dropped: shedding happens at admission or never.

Execution model: a single dispatcher thread drains accepted leaders
from a queue and feeds them to ``CompileService.compile_batch`` in
micro-batches (up to ``max_batch`` jobs, i.e. one pool wave).  This
keeps the service's crash-isolation/retry machinery intact — a
poisoned request burns its own retry budget, never the daemon — at the
cost of new arrivals waiting for the current micro-batch; ``max_batch``
bounds that tail.  After each batch the dispatcher *warms* the
in-process cache (loading the worker-published disk entry) **before**
publishing the result and removing the in-flight entry, so a request
that misses coalescing can only land after the cache is already warm.

Shutdown (:meth:`stop`) is drain-first: admission closes (new work is
shed with ``"draining"``), queued leaders finish, every outstanding
future resolves, then the worker pool is closed.  SIGTERM in the CLI
maps to exactly this.
"""

from __future__ import annotations

import itertools
import os
import queue
import tempfile
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro import cache as _cache
from repro.asip.isa_library import resolve_processor
from repro.cache import CompilationCache
from repro.observe.telemetry import MetricsRegistry
from repro.service.jobs import CompileJob, JobResult
from repro.service.pool import CompileService

#: Ticket outcomes (`Ticket.outcome`).
OUTCOMES = ("hit", "accepted", "coalesced", "shed")

_POISON = object()


class RequestError(ValueError):
    """Malformed compile request (bad arg spec, unknown processor or
    option) — the daemon refuses it before admission; HTTP 400."""


@dataclass
class CompileRequest:
    """One compile request by value (the JSON body of ``POST
    /compile``, minus transport concerns)."""

    source: str
    args: "list[str]"
    entry: "str | None" = None
    processor: str = "vliw_simd_dsp"
    options: dict = field(default_factory=dict)
    filename: str = "<serve>"
    timeout: "float | None" = None


@dataclass
class ServeResult:
    """Terminal outcome of one admitted request."""

    status: str               #: ok | error | timeout | crash | shed
    key: str = ""
    entry_name: str = ""
    c_source: "str | None" = None
    detail: str = ""
    error_type: str = ""
    #: Served from the warm in-process/disk cache (no pool work).
    cached: bool = False
    #: Answered by another request's in-flight compile.
    coalesced: bool = False
    #: Seconds from admission to resolution (0 for cache hits).
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self, include_c: bool = True) -> dict:
        body = {
            "status": self.status,
            "key": self.key,
            "entry": self.entry_name,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "wall_s": round(self.wall_s, 6),
        }
        if self.detail:
            body["detail"] = self.detail
        if self.error_type:
            body["error_type"] = self.error_type
        if include_c and self.c_source is not None:
            body["c_source"] = self.c_source
        return body


@dataclass
class Ticket:
    """Admission decision for one request.

    ``outcome`` is one of :data:`OUTCOMES`; ``result`` is set for
    immediately-answered tickets (hits and sheds), ``future`` resolves
    to a :class:`ServeResult` for accepted/coalesced ones.
    """

    outcome: str
    key: str = ""
    result: "ServeResult | None" = None
    future: "Future[ServeResult] | None" = None

    def wait(self, timeout: "float | None" = None) -> ServeResult:
        """Block until the request resolves (front-end helper)."""
        if self.result is not None:
            return self.result
        return self.future.result(timeout=timeout)


class _Pending:
    """One in-flight unique compile (the coalescing unit)."""

    __slots__ = ("key", "job", "future", "admitted_at", "followers")

    def __init__(self, key: str, job: CompileJob):
        self.key = key
        self.job = job
        self.future: "Future[ServeResult]" = Future()
        self.admitted_at = time.perf_counter()
        self.followers = 0


class CompileDaemon:
    """Long-lived compile engine over a :class:`CompileService` pool.

    Args:
        workers: worker process count (default: CPU count capped at 4 —
            a resident daemon should not monopolize the host by
            default).
        queue_depth: max distinct in-flight compiles before new leaders
            are shed.
        max_batch: max jobs per dispatcher micro-batch (default:
            2x workers, one service wave).
        timeout: default per-job deadline applied to requests that do
            not carry their own.
        cache_dir: shared on-disk cache; created under the system temp
            directory when omitted (the disk layer is what lets worker
            compiles warm the daemon's in-process cache).
        cache_size: in-process LRU capacity.
        registry: metrics sink; a fresh one is created when omitted.
            Worker metric snapshots are merged in after every batch,
            so ``/metrics`` exposes pool-side latencies too.
    """

    def __init__(self, workers: "int | None" = None,
                 queue_depth: int = 64,
                 max_batch: "int | None" = None,
                 timeout: "float | None" = None,
                 cache_dir: "str | None" = None,
                 cache_size: int = 512,
                 registry: "MetricsRegistry | None" = None,
                 allow_test_hooks: bool = False):
        self.workers = max(1, workers if workers is not None
                           else min(os.cpu_count() or 1, 4))
        self.queue_depth = max(1, queue_depth)
        self.max_batch = max(1, max_batch if max_batch is not None
                             else self.workers * 2)
        self.timeout = timeout
        self._owned_dir: "tempfile.TemporaryDirectory | None" = None
        if cache_dir is None:
            self._owned_dir = tempfile.TemporaryDirectory(
                prefix="repro-serve-cache-")
            cache_dir = self._owned_dir.name
        self.cache_dir = str(cache_dir)
        self.cache = CompilationCache(maxsize=cache_size,
                                      cache_dir=self.cache_dir)
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.allow_test_hooks = allow_test_hooks
        self.started_at = time.time()

        self._service: "CompileService | None" = None
        self._queue: "queue.Queue" = queue.Queue()
        self._inflight: "dict[str, _Pending]" = {}
        self._lock = threading.Lock()
        self._closed = False
        self._dispatcher: "threading.Thread | None" = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "CompileDaemon":
        if self._dispatcher is not None:
            return self
        self._service = CompileService(
            jobs=self.workers, timeout=self.timeout,
            cache_dir=self.cache_dir,
            allow_test_hooks=self.allow_test_hooks)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True)
        self._dispatcher.start()
        return self

    def __enter__(self) -> "CompileDaemon":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    def stop(self, drain: bool = True,
             timeout: "float | None" = None) -> None:
        """Shut down: close admission, then either finish the queued
        work (``drain=True``, the SIGTERM path) or fail the outstanding
        futures immediately."""
        with self._lock:
            if self._closed and self._dispatcher is None:
                return
            self._closed = True
        if not drain:
            # Discard queued-but-unstarted leaders so the dispatcher
            # does not spend shutdown compiling work nobody will read,
            # then resolve every outstanding future as shed.
            while True:
                try:
                    self._queue.get_nowait()
                except queue.Empty:
                    break
            self._abort_outstanding("daemon stopped without drain")
        dispatcher = self._dispatcher
        if dispatcher is not None:
            # FIFO: the poison pill lands behind every already-queued
            # leader, so a draining dispatcher finishes them first.
            self._queue.put(_POISON)
            dispatcher.join(timeout=timeout)
            self._dispatcher = None
        if not drain:
            self._abort_outstanding("daemon stopped without drain")
        if self._service is not None:
            self._service.close()
            self._service = None
        if self._owned_dir is not None:
            self._owned_dir.cleanup()
            self._owned_dir = None
        self.registry.counter("serve.stopped")

    def _abort_outstanding(self, detail: str) -> None:
        with self._lock:
            pending = list(self._inflight.values())
            self._inflight.clear()
        for item in pending:
            if not item.future.done():
                item.future.set_result(ServeResult(
                    status="shed", key=item.key, detail=detail))

    # -- admission ------------------------------------------------------

    def submit(self, request: CompileRequest) -> Ticket:
        """Admit one request: answer from cache, attach to an in-flight
        compile, enqueue a new leader, or shed.  Never blocks on
        compilation; raises :class:`RequestError` for requests
        malformed beyond compiling."""
        t0 = time.perf_counter()
        self.registry.counter("serve.requests")
        key = self._request_key(request)

        # Fast path: warm in-process LRU, then the shared disk layer.
        result = self.cache.get(key)
        if result is not None:
            self.registry.counter("serve.cache_hits")
            self.registry.observe("serve.request_s",
                                  time.perf_counter() - t0)
            return Ticket(outcome="hit", key=key,
                          result=self._from_cached(key, result))

        with self._lock:
            if self._closed:
                self.registry.counter("serve.shed_draining")
                return Ticket(outcome="shed", key=key,
                              result=ServeResult(
                                  status="shed", key=key,
                                  detail="draining: daemon is "
                                         "shutting down"))
            pending = self._inflight.get(key)
            if pending is not None:
                pending.followers += 1
                self.registry.counter("serve.coalesced")
                return Ticket(outcome="coalesced", key=key,
                              future=pending.future)
            # The dispatcher warms the cache *before* dropping the
            # in-flight entry, so a key absent from ``_inflight`` whose
            # compile already finished must be visible here; the peek
            # closes the miss-then-absent race without disk I/O or
            # stat-skewing the public get path.
            result = self.cache.peek(key)
            if result is not None:
                self.registry.counter("serve.cache_hits")
                return Ticket(outcome="hit", key=key,
                              result=self._from_cached(key, result))
            if len(self._inflight) >= self.queue_depth:
                self.registry.counter("serve.shed")
                return Ticket(outcome="shed", key=key,
                              result=ServeResult(
                                  status="shed", key=key,
                                  detail=f"overloaded: {self.queue_depth} "
                                         "compiles already in flight"))
            pending = _Pending(key, self._make_job(request))
            self._inflight[key] = pending
            depth = len(self._inflight)
        self.registry.counter("serve.accepted")
        self.registry.gauge("serve.queue_depth_peak", depth)
        self._queue.put(pending)
        return Ticket(outcome="accepted", key=key, future=pending.future)

    def _request_key(self, request: CompileRequest) -> str:
        """Content hash of the request; rejects malformed specs."""
        from repro.cli import parse_arg_spec
        from repro.compiler import CompilerOptions

        try:
            specs = [parse_arg_spec(spec) for spec in request.args]
            processor = resolve_processor(request.processor)
            options = CompilerOptions(**dict(request.options))
        except (TypeError, ValueError, KeyError) as exc:
            raise RequestError(f"{type(exc).__name__}: {exc}") from exc
        return _cache.cache_key(request.source, specs, request.entry,
                                processor, options,
                                filename=request.filename)

    def _make_job(self, request: CompileRequest) -> CompileJob:
        return CompileJob(
            job_id=f"serve-{next(_serve_ids)}",
            source=request.source, args=list(request.args),
            entry=request.entry, processor=request.processor,
            options=dict(request.options), filename=request.filename,
            timeout=request.timeout if request.timeout is not None
            else self.timeout)

    def _from_cached(self, key: str, result) -> ServeResult:
        return ServeResult(status="ok", key=key,
                           entry_name=result.entry_name,
                           c_source=result.c_source(), cached=True)

    # -- dispatch -------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _POISON:
                return
            batch = [item]
            while len(batch) < self.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _POISON:
                    # Keep draining this batch; re-arm the pill for the
                    # next loop so FIFO shutdown still holds.
                    self._queue.put(_POISON)
                    break
                batch.append(extra)
            self._run_batch(batch)

    def _run_batch(self, batch: "list[_Pending]") -> None:
        now = time.perf_counter()
        for pending in batch:
            self.registry.observe("serve.queue_wait_s",
                                  now - pending.admitted_at)
        try:
            result = self._service.compile_batch(
                [pending.job for pending in batch])
        except Exception as exc:  # service-level failure: fail the batch
            self.registry.counter("serve.batch_errors")
            for pending in batch:
                self._resolve(pending, ServeResult(
                    status="crash", key=pending.key,
                    detail=f"service failure: "
                           f"{type(exc).__name__}: {exc}"))
            return
        self.registry.counter("serve.compile_batches")
        self.registry.observe("serve.batch_s",
                              time.perf_counter() - now)
        for job_result in result.results:
            if job_result.metrics:
                self.registry.merge(job_result.metrics)
        for pending, job_result in zip(batch, result.results):
            self._resolve(pending, self._to_serve_result(pending,
                                                         job_result))

    def _to_serve_result(self, pending: _Pending,
                         job_result: JobResult) -> ServeResult:
        if job_result.ok:
            self.registry.counter("serve.compiles")
            # Pull the worker-published disk entry into the warm LRU
            # *before* the in-flight entry is dropped (in _resolve), so
            # post-coalescing requests land on a warm cache.
            self.cache.get(pending.key)
            return ServeResult(
                status="ok", key=pending.key,
                entry_name=job_result.entry_name,
                c_source=job_result.c_source,
                wall_s=time.perf_counter() - pending.admitted_at)
        self.registry.counter(f"serve.compile_{job_result.status}")
        return ServeResult(
            status=job_result.status, key=pending.key,
            detail=job_result.detail,
            error_type=job_result.error_type,
            wall_s=time.perf_counter() - pending.admitted_at)

    def _resolve(self, pending: _Pending, result: ServeResult) -> None:
        self.registry.observe("serve.request_s", result.wall_s)
        with self._lock:
            self._inflight.pop(pending.key, None)
        if not pending.future.done():
            pending.future.set_result(result)

    # -- introspection --------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._closed

    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def health(self) -> dict:
        return {
            "status": "draining" if self._closed else "ok",
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "inflight": self.inflight(),
            "uptime_s": round(time.time() - self.started_at, 3),
            "cache": self.cache.stats(),
        }


_serve_ids = itertools.count(1)
