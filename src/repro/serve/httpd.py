"""Asyncio HTTP/1.1 front-end for the compile daemon.

A deliberately small, dependency-free HTTP server over asyncio streams
(the container ships no aiohttp): request-line + headers + explicit
``Content-Length`` bodies, keep-alive by default, one asyncio task per
connection.  It only implements what the daemon's API needs — no
chunked encoding, no TLS, no pipelining guarantees beyond sequential
request/response on one connection.

Routes:

``POST /compile``
    JSON body ``{"source": ..., "args": [...], "entry": ...,
    "processor": ..., "options": {...}, "filename": ...,
    "timeout": ..., "include_c": true}`` ->
    :meth:`ServeResult.to_dict` JSON.  Status codes: 200 compile ok
    (cached or fresh), 400 malformed request, 422 the compile itself
    failed (error/timeout/crash — structured body, deterministic, not
    retryable), 429 shed by admission control, 503 shed because the
    daemon is draining.

``GET /healthz``
    200 ``{"status": "ok" | "draining", ...}`` (503 when draining, so
    load balancers stop routing during shutdown).

``GET /metrics``
    Prometheus text exposition 0.0.4 of the daemon registry (serve
    counters/histograms plus merged worker-side metrics) — the text
    :func:`repro.observe.expo.to_prometheus` renders.

``GET /stats``
    The same registry as a JSON snapshot plus histogram summaries.

The server binds a unix socket (``path``) or TCP (``host``/``port``);
both can be served by the same process in tests.  :meth:`Server.stop`
closes the listeners, lets in-flight handlers finish, and returns —
daemon drain is the caller's job (see :mod:`repro.serve.cli`).
"""

from __future__ import annotations

import asyncio
import json

from repro.observe.expo import to_prometheus
from repro.serve.daemon import CompileDaemon, CompileRequest, RequestError

#: Bound on header block + body sizes: a compile request is MATLAB
#: source measured in KB; anything bigger is a client bug, not a
#: workload.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            422: "Unprocessable Entity", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}

#: ServeResult.status -> HTTP status for /compile responses.
_COMPILE_STATUS = {"ok": 200, "error": 422, "timeout": 422, "crash": 422}


class _BadRequest(Exception):
    """Protocol-level parse failure; the connection is answered 400
    and closed."""


class Server:
    """One daemon exposed over HTTP on a unix socket and/or TCP."""

    def __init__(self, daemon: CompileDaemon,
                 path: "str | None" = None,
                 host: "str | None" = None,
                 port: "int | None" = None):
        if path is None and host is None:
            raise ValueError("need a unix socket path or a TCP host")
        self.daemon = daemon
        self.path = path
        self.host = host
        self.port = port
        self._servers: "list[asyncio.AbstractServer]" = []
        self._writers: "set[asyncio.StreamWriter]" = set()

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> "Server":
        if self.path is not None:
            self._servers.append(await asyncio.start_unix_server(
                self._handle_connection, path=self.path))
        if self.host is not None:
            server = await asyncio.start_server(
                self._handle_connection, host=self.host,
                port=self.port or 0)
            self.port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        return self

    async def stop(self) -> None:
        """Close the listeners; established connections keep running
        (drain delivers their in-flight responses)."""
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers = []

    async def close_connections(self, timeout: float = 5.0) -> None:
        """Close the remaining (idle, post-drain) connections and wait
        for their handler tasks to unwind — an EOF-driven goodbye
        instead of event-loop-teardown task cancellation."""
        for writer in list(self._writers):
            writer.close()
        deadline = asyncio.get_running_loop().time() + timeout
        while self._writers and \
                asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.01)

    def endpoints(self) -> "list[str]":
        out = []
        if self.path is not None:
            out.append(f"unix:{self.path}")
        if self.host is not None:
            out.append(f"http://{self.host}:{self.port}")
        return out

    # -- connection handling --------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    await self._write_json(writer, 400, {
                        "status": "bad_request", "detail": str(exc)})
                    break
                if request is None:
                    break
                method, target, headers, body = request
                status, content_type, payload = await self._route(
                    method, target, body)
                keep_alive = headers.get("connection", "").lower() \
                    != "close"
                await self._write_response(writer, status, content_type,
                                           payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """One request -> (method, target, headers, body); None on a
        cleanly closed connection."""
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError) as exc:
            raise _BadRequest(f"oversized request line: {exc}") from exc
        if not line:
            return None
        parts = line.decode("latin-1").rstrip("\r\n").split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(f"malformed request line {line!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            line = await reader.readline()
            header_bytes += len(line)
            if header_bytes > MAX_HEADER_BYTES:
                raise _BadRequest("header block too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0")
        try:
            length = int(length)
        except ValueError as exc:
            raise _BadRequest(
                f"bad Content-Length {length!r}") from exc
        if length < 0:
            raise _BadRequest(f"negative Content-Length {length}")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(
                f"body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    # -- routing --------------------------------------------------------

    async def _route(self, method: str, target: str, body: bytes):
        """-> (status, content_type, payload_bytes)."""
        target = target.split("?", 1)[0]
        try:
            if target == "/compile":
                if method != "POST":
                    return self._json(405, {"status": "bad_request",
                                            "detail": "POST required"})
                return await self._compile(body)
            if target == "/healthz":
                if method != "GET":
                    return self._json(405, {"status": "bad_request",
                                            "detail": "GET required"})
                health = self.daemon.health()
                code = 503 if health["status"] == "draining" else 200
                return self._json(code, health)
            if target == "/metrics":
                if method != "GET":
                    return self._json(405, {"status": "bad_request",
                                            "detail": "GET required"})
                text = to_prometheus(self.daemon.registry.snapshot())
                return (200, "text/plain; version=0.0.4",
                        text.encode("utf-8"))
            if target == "/stats":
                if method != "GET":
                    return self._json(405, {"status": "bad_request",
                                            "detail": "GET required"})
                return self._json(200, {
                    "snapshot": self.daemon.registry.snapshot(),
                    "summary": self.daemon.registry.summaries(),
                    "health": self.daemon.health(),
                })
            return self._json(404, {"status": "not_found",
                                    "detail": f"no route {target}"})
        except Exception as exc:  # never kill the connection loop
            return self._json(500, {
                "status": "internal",
                "detail": f"{type(exc).__name__}: {exc}"})

    async def _compile(self, body: bytes):
        try:
            fields = json.loads(body.decode("utf-8"))
            if not isinstance(fields, dict):
                raise ValueError("body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            return self._json(400, {"status": "bad_request",
                                    "detail": f"invalid JSON body: {exc}"})
        include_c = bool(fields.pop("include_c", True))
        try:
            request = CompileRequest(
                source=str(fields["source"]),
                args=[str(a) for a in fields.get("args", [])],
                entry=fields.get("entry"),
                processor=str(fields.get("processor", "vliw_simd_dsp")),
                options=dict(fields.get("options") or {}),
                filename=str(fields.get("filename", "<serve>")),
                timeout=fields.get("timeout"))
        except (KeyError, TypeError, ValueError) as exc:
            return self._json(400, {
                "status": "bad_request",
                "detail": f"malformed compile request: "
                          f"{type(exc).__name__}: {exc}"})
        try:
            ticket = self.daemon.submit(request)
        except RequestError as exc:
            return self._json(400, {"status": "bad_request",
                                    "detail": str(exc)})
        if ticket.result is not None:
            result = ticket.result
        else:
            result = await asyncio.wrap_future(ticket.future)
        if result.status == "shed":
            code = 503 if self.daemon.draining else 429
            payload = result.to_dict(include_c=False)
            payload["retry_after_s"] = 0.5
            return self._json(code, payload)
        return self._json(_COMPILE_STATUS.get(result.status, 500),
                          result.to_dict(include_c=include_c))

    # -- response writing -----------------------------------------------

    @staticmethod
    def _json(status: int, payload: dict):
        return (status, "application/json",
                json.dumps(payload).encode("utf-8"))

    async def _write_json(self, writer, status: int,
                          payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        await self._write_response(writer, status, "application/json",
                                   body, keep_alive=False)

    @staticmethod
    async def _write_response(writer, status: int, content_type: str,
                              payload: bytes, keep_alive: bool) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
                "\r\n\r\n")
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()
