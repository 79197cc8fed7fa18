"""Concurrency tier for the ``repro-serve`` compile daemon.

The daemon's three contracts, each proven under real concurrency:

* **Coalescing** — N simultaneous requests for one identical key cost
  exactly one compile (the service-side compile counter says one; the
  other N-1 requests are answered as coalesced followers or warm-cache
  hits with byte-identical C).
* **Admission control** — under overload the daemon sheds *new* work
  with a structured refusal, and every request it accepted still
  terminates in exactly one ``ok`` result: shedding happens at
  admission or never.
* **Drain** — shutdown closes admission, finishes the in-flight work,
  and resolves every outstanding future; requests arriving during the
  drain are shed as ``draining``.

The HTTP layer is exercised end-to-end over a real unix socket
(server in a background event loop thread, ``ServeClient`` callers),
and the SIGTERM path through a real ``repro-serve`` subprocess.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.serve import (CompileDaemon, CompileRequest, RequestError,
                         Server, ServeClient)

pytestmark = pytest.mark.timeout(180)

FIR = ("function y = fir(x, h)\n"
       "y = zeros(1, 16);\n"
       "for i = 1:16\n"
       "y(i) = x(i) * h(i);\n"
       "end\n"
       "end\n")
FIR_ARGS = ["single:1x16", "single:1x16"]


def _distinct_request(tag: int) -> CompileRequest:
    return CompileRequest(
        source=(f"function y = k{tag}(x)\n"
                f"y = x * {tag}.0 + 1.0;\n"
                "end\n"),
        args=["double:1x32"])


# ---------------------------------------------------------------------
# Engine: warm cache + coalescing
# ---------------------------------------------------------------------

def test_roundtrip_then_warm_hit():
    with CompileDaemon(workers=1) as daemon:
        first = daemon.submit(CompileRequest(source=FIR, args=FIR_ARGS))
        assert first.outcome == "accepted"
        result = first.wait(120)
        assert result.ok and not result.cached
        assert "fir" in result.c_source

        second = daemon.submit(CompileRequest(source=FIR, args=FIR_ARGS))
        assert second.outcome == "hit"
        warm = second.wait(5)
        assert warm.ok and warm.cached
        assert warm.c_source == result.c_source
    counters = daemon.registry.snapshot()["counters"]
    assert counters["serve.compiles"] == 1
    assert counters["serve.cache_hits"] == 1


def test_concurrent_identical_requests_compile_exactly_once():
    n = 16
    with CompileDaemon(workers=2, queue_depth=n) as daemon:
        barrier = threading.Barrier(n)
        tickets = [None] * n

        def fire(index: int) -> None:
            barrier.wait()
            tickets[index] = daemon.submit(
                CompileRequest(source=FIR, args=FIR_ARGS))

        threads = [threading.Thread(target=fire, args=(i,))
                   for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        results = [ticket.wait(120) for ticket in tickets]

    assert all(r.ok for r in results)
    assert len({r.c_source for r in results}) == 1
    outcomes = sorted(t.outcome for t in tickets)
    assert "shed" not in outcomes
    # Exactly one leader compiled; everyone else coalesced onto its
    # in-flight future or landed on the already-warm cache.
    counters = daemon.registry.snapshot()["counters"]
    assert counters["serve.compiles"] == 1
    assert counters["serve.accepted"] == 1
    assert counters.get("serve.coalesced", 0) \
        + counters.get("serve.cache_hits", 0) == n - 1
    # No duplicated work reached the disk layer either.
    assert daemon.cache.stats()["disk_write_races"] == 0


def test_distinct_requests_all_compile():
    n = 6
    with CompileDaemon(workers=2, queue_depth=n) as daemon:
        tickets = [daemon.submit(_distinct_request(tag))
                   for tag in range(n)]
        results = [ticket.wait(120) for ticket in tickets]
    assert all(r.ok for r in results)
    assert daemon.registry.snapshot()["counters"]["serve.compiles"] == n


def test_malformed_requests_are_refused_before_admission():
    with CompileDaemon(workers=1) as daemon:
        with pytest.raises(RequestError):
            daemon.submit(CompileRequest(source=FIR,
                                         args=["nonsense:axb"]))
        with pytest.raises(RequestError):
            daemon.submit(CompileRequest(source=FIR, args=FIR_ARGS,
                                         processor="no_such_isa"))
        with pytest.raises(RequestError):
            daemon.submit(CompileRequest(source=FIR, args=FIR_ARGS,
                                         options={"bogus_flag": True}))
        counters = daemon.registry.snapshot()["counters"]
        assert "serve.accepted" not in counters


def test_compile_error_is_structured_not_fatal():
    with CompileDaemon(workers=1) as daemon:
        bad = daemon.submit(CompileRequest(
            source="function y = broken(x)\ny = undefined_fn(x);\nend\n",
            args=["double:1x8"]))
        result = bad.wait(120)
        assert result.status == "error"
        assert result.detail
        # The daemon stays healthy for the next request.
        ok = daemon.submit(CompileRequest(source=FIR, args=FIR_ARGS))
        assert ok.wait(120).ok


# ---------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------

def test_overload_sheds_without_losing_accepted_jobs():
    n = 12
    with CompileDaemon(workers=1, queue_depth=2, max_batch=1) as daemon:
        tickets = [daemon.submit(_distinct_request(100 + tag))
                   for tag in range(n)]
        accepted = [t for t in tickets if t.outcome == "accepted"]
        shed = [t for t in tickets if t.outcome == "shed"]
        assert len(accepted) + len(shed) == n
        # Submission outruns a 1-worker/1-per-batch pipeline with an
        # admission bound of 2, so most of the burst must shed...
        assert len(shed) >= n - 4
        assert all(t.result.status == "shed" for t in shed)
        assert all("overloaded" in t.result.detail for t in shed)
        # ...and every accepted job still terminates ok.
        results = [t.wait(120) for t in accepted]
        assert all(r.ok for r in results)
    counters = daemon.registry.snapshot()["counters"]
    assert counters["serve.shed"] == len(shed)
    assert counters["serve.compiles"] == len(accepted)


def test_sheds_recover_once_load_passes():
    with CompileDaemon(workers=1, queue_depth=1, max_batch=1) as daemon:
        first = daemon.submit(_distinct_request(200))
        burst = [daemon.submit(_distinct_request(201 + i))
                 for i in range(4)]
        assert any(t.outcome == "shed" for t in burst)
        assert first.wait(120).ok
        for ticket in burst:
            if ticket.outcome == "accepted":
                assert ticket.wait(120).ok
        # Quiet again: a fresh request is admitted.
        late = daemon.submit(_distinct_request(250))
        assert late.outcome == "accepted"
        assert late.wait(120).ok


# ---------------------------------------------------------------------
# Drain
# ---------------------------------------------------------------------

def test_drain_completes_inflight_and_sheds_newcomers():
    daemon = CompileDaemon(workers=2, queue_depth=8).start()
    tickets = [daemon.submit(_distinct_request(300 + tag))
               for tag in range(4)]
    stopper = threading.Thread(target=daemon.stop)
    stopper.start()
    try:
        results = [t.wait(120) for t in tickets]
        assert all(r.ok for r in results)
    finally:
        stopper.join()
    late = daemon.submit(CompileRequest(source=FIR, args=FIR_ARGS))
    assert late.outcome == "shed"
    assert "draining" in late.result.detail


def test_stop_without_drain_resolves_futures_as_shed():
    daemon = CompileDaemon(workers=1, queue_depth=8,
                           max_batch=1).start()
    tickets = [daemon.submit(_distinct_request(400 + tag))
               for tag in range(6)]
    daemon.stop(drain=False)
    results = [t.wait(30) for t in tickets]
    # Whatever was mid-batch may finish ok; everything queued resolves
    # as shed — but nothing hangs and nothing is lost.
    assert all(r.status in ("ok", "shed") for r in results)
    assert any(r.status == "shed" for r in results)


# ---------------------------------------------------------------------
# HTTP layer over a real unix socket
# ---------------------------------------------------------------------

_PROM_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? \S+$')


class _HTTPFixture:
    """Daemon + HTTP server in a background event-loop thread."""

    def __init__(self, tmp_path, **daemon_kw):
        import asyncio

        self.socket_path = str(tmp_path / "serve.sock")
        self.daemon = CompileDaemon(**daemon_kw).start()
        self.loop = asyncio.new_event_loop()
        self.server = Server(self.daemon, path=self.socket_path)
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop).result(timeout=10)

    def close(self):
        import asyncio

        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop).result(timeout=10)
        self.daemon.stop()
        asyncio.run_coroutine_threadsafe(
            self.server.close_connections(), self.loop).result(timeout=10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture
def http_serve(tmp_path):
    fixture = _HTTPFixture(tmp_path, workers=2, queue_depth=8)
    try:
        yield fixture
    finally:
        fixture.close()


def test_http_compile_roundtrip_and_cache(http_serve):
    with ServeClient(path=http_serve.socket_path) as client:
        ready = client.wait_ready()
        assert ready["status"] == "ok"
        first = client.compile(FIR, FIR_ARGS)
        assert first["http_status"] == 200
        assert first["status"] == "ok" and not first["cached"]
        assert "fir" in first["c_source"]
        second = client.compile(FIR, FIR_ARGS)
        assert second["cached"] is True
        assert second["c_source"] == first["c_source"]
        # include_c=False keeps the payload small for load clients.
        lean = client.compile(FIR, FIR_ARGS, include_c=False)
        assert lean["status"] == "ok" and "c_source" not in lean


def test_http_error_codes(http_serve):
    with ServeClient(path=http_serve.socket_path) as client:
        bad_spec = client.compile(FIR, ["nonsense:axb"])
        assert bad_spec["http_status"] == 400
        assert bad_spec["status"] == "bad_request"

        bad_source = client.compile(
            "function y = broken(x)\ny = undefined_fn(x);\nend\n",
            ["double:1x8"])
        assert bad_source["http_status"] == 422
        assert bad_source["status"] == "error"

        status, _ctype, _body = client.request("GET", "/no_such_route")
        assert status == 404
        status, _ctype, _body = client.request("GET", "/compile")
        assert status == 405

        raw = client.request_json("POST", "/compile",
                                  {"args": ["double:1x8"]})
        assert raw["http_status"] == 400  # no source field


def test_http_negative_content_length_is_400(http_serve):
    import socket

    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(10)
        sock.connect(http_serve.socket_path)
        sock.sendall(b"POST /compile HTTP/1.1\r\n"
                     b"Content-Length: -5\r\n\r\n")
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 400 "), reply
    assert b"negative Content-Length" in reply


def test_http_metrics_and_stats(http_serve):
    with ServeClient(path=http_serve.socket_path) as client:
        client.compile(FIR, FIR_ARGS, include_c=False)
        client.compile(FIR, FIR_ARGS, include_c=False)
        text = client.metrics()
        for line in text.rstrip("\n").split("\n"):
            assert line.startswith("# TYPE ") or _PROM_LINE.match(line), \
                line
        assert "repro_serve_requests_total" in text
        assert "repro_serve_compiles_total" in text
        # Worker-side metrics merged through the batch results.
        assert "repro_service_exec_seconds" in text
        stats = client.stats()
        assert stats["snapshot"]["counters"]["serve.compiles"] == 1
        assert stats["health"]["workers"] == 2


def test_http_concurrent_identical_burst_coalesces(http_serve):
    n = 8
    replies = [None] * n
    barrier = threading.Barrier(n)

    def fire(index: int) -> None:
        with ServeClient(path=http_serve.socket_path) as client:
            barrier.wait()
            replies[index] = client.compile(FIR, FIR_ARGS)

    threads = [threading.Thread(target=fire, args=(i,))
               for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert all(r["status"] == "ok" for r in replies)
    assert len({r["c_source"] for r in replies}) == 1
    counters = http_serve.daemon.registry.snapshot()["counters"]
    assert counters["serve.compiles"] == 1


def test_http_overload_returns_429(tmp_path):
    fixture = _HTTPFixture(tmp_path, workers=1, queue_depth=1,
                           max_batch=1)
    try:
        n = 8
        replies = [None] * n

        def fire(index: int) -> None:
            with ServeClient(path=fixture.socket_path) as client:
                replies[index] = client.compile(
                    _distinct_request(500 + index).source,
                    ["double:1x32"], include_c=False)

        threads = [threading.Thread(target=fire, args=(i,))
                   for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        ok = [r for r in replies if r["http_status"] == 200]
        shed = [r for r in replies if r["http_status"] == 429]
        assert len(ok) + len(shed) == n
        assert ok, "at least the first admitted request must compile"
        assert shed, "a 1-deep queue under an 8-wide burst must shed"
        assert all(r["status"] == "shed" for r in shed)
        assert all("retry_after_s" in r for r in shed)
    finally:
        fixture.close()


# ---------------------------------------------------------------------
# SIGTERM drain through a real subprocess
# ---------------------------------------------------------------------

def test_sigterm_drains_real_daemon(tmp_path):
    socket_path = str(tmp_path / "serve.sock")
    env = dict(os.environ)
    src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src_dir) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.cli",
         "--socket", socket_path, "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env)
    try:
        ready = proc.stdout.readline()
        assert "ready" in ready

        reply = {}

        def fire():
            with ServeClient(path=socket_path) as client:
                reply["cold"] = client.compile(
                    "function y = drainme(x)\ny = x + 41.0;\nend\n",
                    ["double:1x8"], include_c=False)

        thread = threading.Thread(target=fire)
        thread.start()
        time.sleep(0.05)  # let the cold compile get in flight
        proc.send_signal(signal.SIGTERM)
        thread.join()
        # The in-flight response was delivered during the drain.
        assert reply["cold"]["status"] == "ok"
        assert proc.wait(timeout=120) == 0
        tail = proc.stdout.read()
        assert "drained" in tail
        assert "Traceback" not in tail
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
