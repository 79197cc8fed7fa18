"""``serve_mixed``: a warm/cold request mix through the compile daemon.

An in-process :class:`CompileDaemon` (2 workers) behind a
:class:`Server` on a unix socket is driven by 2 :class:`ServeClient`
threads in a closed loop: each sends its next ``/compile`` request
(``include_c=True``) when the previous reply arrives.  About nine in
ten requests repeat a corpus kernel at its manifest signature, a cache
read; the rest are cold, a corpus kernel at a seed-drawn argument size
it accepts, which is a compile through admission, the queue and a
worker.  Half of the cold keys are shared by both clients (in the same
order), so the two sometimes ask for one at once and are coalesced.

An operation is one HTTP round trip.  Every request must get exactly
one reply, ``ok`` with C source or a structured ``shed``; warm replies
must carry the C an in-process compile emits, and a seeded sample of
cold replies is compiled in-process and compared the same way.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import threading
import time

from perfbench import harness, layers, probes
from perfbench.harness import Config, Report
from perfbench.tracer import Tracer

CLIENTS = 2
WORKERS = 2
COLD_SHARE = 0.1
#: Cold replies re-compiled in-process per phase to check their C.
COLD_CHECKS = 12
#: The cold compiles of ``inv3x3`` (the slowest kernel) are about 1 in
#: 100 requests; p99.5 sits inside that block.
TAIL_PCT = 99.5
#: Throughput is the median over windows of this many seconds.
WINDOW_S = 2.0

_TINY_KERNELS = ("cdot.m", "bf_weights.m")


def _size_family(entry: str) -> "list[list[str]]":
    """Argument signatures a corpus kernel accepts, by size."""
    line = [f"1x{n}" for n in range(16, 513)]
    if entry == "fir":
        return [[f"single:{s}", "single:1x32"] for s in line]
    if entry == "iir_biquad":
        return [[f"double:{s}", "double:1x3", "double:1x3"] for s in line]
    if entry in ("cdot", "channel_est"):
        return [[f"cdouble:{s}", f"cdouble:{s}"] for s in line]
    if entry == "fft_spectrum":
        return [[f"double:1x{2 ** k}"] for k in range(4, 11)]
    if entry == "matmul":
        return [[f"single:{m}x{m}", f"single:{m}x{m}"]
                for m in range(4, 49)]
    if entry == "xcorr_kernel":
        return [[f"single:1x{n}", f"single:1x{2 * n}"]
                for n in range(16, 257)]
    if entry == "qr_gs":
        return [[f"double:{m}x{m}"] for m in range(4, 25)]
    if entry == "inv3x3":
        return [[f"double:9x{t}"] for t in range(8, 257)]
    if entry == "bf_weights":
        return [[f"cdouble:{s}", "double:1x1"] for s in line]
    raise ValueError(f"no size family for corpus kernel {entry!r}")


def _corpus(cfg: Config) -> "list[dict]":
    from benchmarks.workloads import KERNEL_DIR

    manifest = json.loads((KERNEL_DIR / "manifest.json").read_text())
    kernels = []
    for filename in sorted(manifest):
        if cfg.tiny and filename not in _TINY_KERNELS:
            continue
        fields = manifest[filename]
        kernels.append({"source": (KERNEL_DIR / filename).read_text(),
                        "entry": fields["entry"],
                        "args": fields["args"].split(",")})
    return kernels


class _Deck:
    """Seeded draws that cycle through every item before repeating, so
    each run has the same mix whatever the seed."""

    def __init__(self, items, rng: random.Random):
        self._items = list(items)
        self._rng = rng
        self._left: list = []

    def draw(self):
        if not self._left:
            self._left = list(self._items)
            self._rng.shuffle(self._left)
        return self._left.pop()


class _ColdKeys:
    """Seeded supply of distinct cold (kernel, signature) requests."""

    def __init__(self, kernels, rng: random.Random):
        self._sizes = {}
        for kernel in kernels:
            family = [args for args in _size_family(kernel["entry"])
                      if args != kernel["args"]]
            rng.shuffle(family)
            self._sizes[kernel["entry"]] = family
        self._shared_deck = _Deck(kernels, rng)
        self._shared: "list[tuple[dict, list[str]]]" = []
        self._lock = threading.Lock()

    def _take(self, deck: _Deck) -> "tuple[dict, list[str]]":
        # A kernel whose sizes ran out (fft_spectrum has 6) is skipped;
        # that happens at the same request count for every seed.
        for _ in range(2 * len(self._sizes) + 1):
            kernel = deck.draw()
            sizes = self._sizes[kernel["entry"]]
            if sizes:
                return kernel, sizes.pop()
        raise RuntimeError("every cold signature has been used")

    def own(self, deck: _Deck) -> "tuple[dict, list[str]]":
        """A key no other request of the run asks for."""
        with self._lock:
            return self._take(deck)

    def shared(self, index: int) -> "tuple[dict, list[str]]":
        """The ``index``-th key of the sequence every client walks."""
        with self._lock:
            while len(self._shared) <= index:
                self._shared.append(self._take(self._shared_deck))
            return self._shared[index]


class _Schedule:
    """Per-client request stream.  Every block of ``1 / COLD_SHARE``
    requests holds one cold request at a seeded position; cold requests
    alternate between the shared sequence and the client's own keys,
    and kernels come from decks, so the mix is the same for any seed."""

    def __init__(self, kernels, cold: _ColdKeys, rng: random.Random):
        self.block = round(1 / COLD_SHARE)
        self.cold = cold
        self.rng = rng
        self.warm = _Deck(kernels, rng)
        self.own = _Deck(kernels, rng)
        self.position = 0
        self.cold_at = rng.randrange(self.block)
        self.colds = 0

    def next(self) -> "tuple[dict, list[str], bool]":
        cold = self.position == self.cold_at
        self.position += 1
        if self.position == self.block:
            self.position = 0
            self.cold_at = self.rng.randrange(self.block)
        if not cold:
            kernel = self.warm.draw()
            return kernel, kernel["args"], False
        self.colds += 1
        if self.colds % 2:
            kernel, args = self.cold.shared(self.colds // 2)
        else:
            kernel, args = self.cold.own(self.own)
        return kernel, args, True


class _Harness:
    """Daemon + HTTP server on a unix socket (event loop in a thread)
    and one keep-alive client per load thread."""

    def __init__(self, cfg: Config):
        from repro.serve import CompileDaemon, ServeClient, Server

        directory = cfg.subdir("serve")
        path = str(directory / "s.sock")
        if len(path) > 100:  # AF_UNIX path limit; the cwd is the root
            path = os.path.relpath(path)
        self.daemon = CompileDaemon(workers=WORKERS,
                                    cache_dir=str(directory / "cache"),
                                    timeout=120.0).start()
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="perfbench-serve-loop")
        self.thread.start()
        self.server = Server(self.daemon, path=path)
        asyncio.run_coroutine_threadsafe(self.server.start(),
                                         self.loop).result(timeout=30)
        self.clients = [ServeClient(path=path) for _ in range(CLIENTS)]

    def counters(self) -> dict:
        return self.daemon.registry.snapshot()["counters"]

    def close(self) -> None:
        for client in self.clients:
            client.close()
        asyncio.run_coroutine_threadsafe(self.server.stop(),
                                         self.loop).result(timeout=30)
        self.daemon.stop()
        asyncio.run_coroutine_threadsafe(self.server.close_connections(),
                                         self.loop).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()


def _expected_c(kernel: dict, args: "list[str]") -> str:
    from repro.cli import parse_arg_spec
    from repro.compiler import compile_source

    result = compile_source(kernel["source"],
                            [parse_arg_spec(spec) for spec in args],
                            entry=kernel["entry"], filename="<serve>",
                            use_cache=False)
    return result.c_source()


class _Phase:
    def __init__(self) -> None:
        self.samples: "list[float]" = []
        #: perf_counter() at each completed request.
        self.done_at: "list[float]" = []
        self.start = 0.0
        self.wall = 0.0
        self.sent = 0
        #: cold (entry, args) -> digests of the C replies received.
        self.cold_replies: "dict[tuple, set]" = {}


def _client_loop(report, lock, phase, client, schedule, warm_digests,
                 deadline, tracer) -> None:
    while time.perf_counter() < deadline:
        kernel, args, cold = schedule.next()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                reply = client.compile(kernel["source"], args,
                                       entry=kernel["entry"],
                                       include_c=True)
            else:
                with tracer.span("op.request"):
                    reply = client.compile(kernel["source"], args,
                                           entry=kernel["entry"],
                                           include_c=True)
        except Exception as exc:  # counted, the run goes on
            with lock:
                report.attempted += 1
                phase.sent += 1
                report.fail(f"{kernel['entry']} {args}: "
                            f"{type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - t0
        status = reply.get("status")
        text = reply.get("c_source") or ""
        with lock:
            report.attempted += 1
            phase.sent += 1
            if status != "ok":
                # A structured shed is a valid reply but still a
                # refused request.
                report.fail(f"{kernel['entry']} {args}: {status} "
                            f"{reply.get('detail', '')}".rstrip())
                continue
            phase.samples.append(elapsed)
            phase.done_at.append(t0 + elapsed)
            if not report.check(bool(text), f"{kernel['entry']} {args}: "
                                "ok reply without C source"):
                continue
            key = (kernel["entry"], tuple(args))
            if cold:
                phase.cold_replies.setdefault(key, set()).add(
                    harness.digest(text))
            else:
                report.check(harness.digest(text) == warm_digests[key],
                             f"{kernel['entry']}: warm reply C differs "
                             "from an in-process compile")


def _guarded_client_loop(report, lock, *args) -> None:
    try:
        _client_loop(report, lock, *args)
    except Exception as exc:  # the thread's boundary: count, stop it
        with lock:
            report.fail(f"client stopped: {type(exc).__name__}: {exc}")


def _run_phase(report, serve, schedules, warm_digests, seconds, tracer,
               kernels_by_entry, rng) -> _Phase:
    phase = _Phase()
    lock = threading.Lock()
    before = serve.counters().get("serve.requests", 0)
    start = phase.start = time.perf_counter()
    threads = [threading.Thread(
        target=_guarded_client_loop, name=f"perfbench-client-{index}",
        args=(report, lock, phase, client, schedule, warm_digests,
              start + seconds, tracer))
        for index, (client, schedule)
        in enumerate(zip(serve.clients, schedules))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 150)
        if thread.is_alive():
            raise RuntimeError("serve client thread did not finish")
    phase.wall = time.perf_counter() - start
    received = serve.counters().get("serve.requests", 0) - before
    report.check(received == phase.sent,
                 f"daemon saw {received} requests, clients sent "
                 f"{phase.sent}")
    for key, digests in phase.cold_replies.items():
        report.check(len(digests) == 1,
                     f"{key[0]} {list(key[1])}: two different C replies")
    sample = sorted(phase.cold_replies)
    for entry, args in rng.sample(sample, min(COLD_CHECKS, len(sample))):
        expected = harness.digest(_expected_c(kernels_by_entry[entry],
                                              list(args)))
        report.check(phase.cold_replies[(entry, args)] == {expected},
                     f"{entry} {list(args)}: cold reply C differs from "
                     "an in-process compile")
    return phase


def _median_rate(phase: _Phase) -> float:
    """Completed requests per second, median over whole windows."""
    windows = max(1, int(phase.wall // WINDOW_S))
    counts = [0] * windows
    for done in phase.done_at:
        index = int((done - phase.start) // WINDOW_S)
        if index < windows:
            counts[index] += 1
    return statistics.median(counts) / min(WINDOW_S, phase.wall)


def run(cfg: Config) -> Report:
    report = Report(cfg.workload)
    kernels = _corpus(cfg)
    kernels_by_entry = {kernel["entry"]: kernel for kernel in kernels}
    warm_digests = {(k["entry"], tuple(k["args"])):
                    harness.digest(_expected_c(k, k["args"]))
                    for k in kernels}

    def build() -> _Harness:
        serve = _Harness(cfg)
        try:
            for kernel in kernels:
                reply = serve.clients[0].compile(
                    kernel["source"], kernel["args"],
                    entry=kernel["entry"], include_c=True)
                if reply.get("status") != "ok":
                    raise RuntimeError(f"warming {kernel['entry']} "
                                       f"failed: {reply}")
        except BaseException:
            serve.close()
            raise
        return serve

    serve = harness.timed_setup(report, build, _Harness.close)
    try:
        rng = random.Random(cfg.seed)
        cold = _ColdKeys(kernels, random.Random(rng.random()))
        schedules = [_Schedule(kernels, cold, random.Random(rng.random()))
                     for _ in range(CLIENTS)]
        seconds = cfg.seconds / 2 if cfg.trace else cfg.seconds
        plain = _run_phase(report, serve, schedules, warm_digests,
                           seconds, None, kernels_by_entry, rng)
        if cfg.trace:
            _traced(report, serve, schedules, warm_digests, seconds,
                    plain, kernels_by_entry, rng)
    finally:
        serve.close()

    report.lines.append(f"serve_mixed (closed loop, {CLIENTS} clients, "
                        f"{WORKERS} workers, {COLD_SHARE:.0%} cold)")
    per_s = _median_rate(plain)
    report.line("requests_per_s", per_s, "1/s",
                f"median over {WINDOW_S:g} s windows")
    p50, tail = report.timing("request_ms",
                              [s * 1e3 for s in plain.samples], "ms",
                              TAIL_PCT)
    report.line("cold_keys", len(plain.cold_replies), "count")
    report.metric("ops_per_s", per_s, "1/s")
    report.metric("op_ms_p50", p50, "ms")
    report.metric("op_ms_tail", tail, "ms")
    harness.finish_end_to_end(report)
    return report


def _traced(report, serve, schedules, warm_digests, seconds, plain,
            kernels_by_entry, rng) -> None:
    tracer = Tracer()
    cache_before = serve.daemon.cache.stats()
    probes.trace_serve(tracer)
    probes.trace_service(tracer)
    try:
        _run_phase(report, serve, schedules, warm_digests, seconds,
                   tracer, kernels_by_entry, rng)
    finally:
        tracer.restore()
    cache = serve.daemon.cache.stats()
    hits = cache["hits"] - cache_before["hits"]
    misses = cache["misses"] - cache_before["misses"]
    extra = {"cache.hits": hits, "cache.misses": misses,
             "cache.hit_ratio": hits / max(1, hits + misses)}
    for name in ("service.jobs", "service.retries", "service.failed",
                 "serve.outcome.hit", "serve.outcome.accepted",
                 "serve.outcome.coalesced", "serve.outcome.shed"):
        extra[name] = tracer.counts[name]
    layers.finish_traced(report, tracer, extra,
                         sum(plain.samples) / max(1, len(plain.samples)))
