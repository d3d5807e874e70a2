"""Zero-dependency asyncio HTTP/1.1 transport for :class:`ServerApp`.

One ``asyncio.start_server`` loop, stdlib only.  Each connection is a
keep-alive loop: read one request (request line + headers +
Content-Length body), dispatch to the app, write one response — which
gives pipelined clients back-to-back responses in request order for
free, the property the free-hit throughput benchmark leans on.

Endpoints: ``POST /query``, ``GET /healthz``, ``GET /readyz``,
``GET /metrics``, ``GET /datasets``.

Lifecycle: :meth:`HttpServer.install_signal_handlers` hooks SIGTERM /
SIGINT to :meth:`HttpServer.shutdown`, which **drains then flushes** —
stop accepting connections, mark the app draining (new queries shed with
503 + Retry-After), wait for in-flight measured work to finish its WAL
appends, shut the executor down, close idle connections, wait for every
request already read to have its response written, close the rest.  A
response is always written entire-or-not-at-all: headers carry the exact
Content-Length and the body is one ``write()``; a simulated crash
mid-request aborts the connection with **zero** response bytes, so no
client can ever read a half-written answer.

:func:`serve_in_thread` runs the whole server on a background thread for
tests, benchmarks, and the demo script.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import signal
import threading

from .app import ServerApp

__all__ = ["HttpServer", "serve_in_thread"]

logger = logging.getLogger(__name__)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Request bodies beyond this are refused with 413 before buffering.
MAX_BODY_BYTES = 4 * 1024 * 1024
#: Header block cap — a line-noise client can't balloon memory.
MAX_HEADER_BYTES = 64 * 1024


class _BadRequest(Exception):
    def __init__(self, status: int, message: str):
        self.status = status
        self.message = message
        super().__init__(message)


class HttpServer:
    """`asyncio.start_server` front-end around a :class:`ServerApp`."""

    def __init__(self, app: ServerApp, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self.host = host
        self.port = port  # 0 = ephemeral; updated to the bound port on start
        self._server: asyncio.base_events.Server | None = None
        self._conns: set[asyncio.StreamWriter] = set()
        #: Connections with a request read but its response not yet written.
        self._busy: set[asyncio.StreamWriter] = set()
        self._shutdown_started = False

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("serving on %s:%d", self.host, self.port)

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(self.shutdown())
            )

    async def shutdown(self, drain_timeout: float = 10.0) -> None:
        """Drain-then-flush graceful stop (idempotent)."""
        if self._shutdown_started:
            return
        self._shutdown_started = True
        loop = asyncio.get_running_loop()
        give_up = loop.time() + drain_timeout
        if self._server is not None:
            self._server.close()  # stop accepting; existing conns continue
        drained = await self.app.drain(timeout=drain_timeout)
        if not drained:
            logger.warning(
                "drain timed out with work in flight "
                "(executing=%d, queued=%d); closing anyway",
                self.app.admission.executing,
                self.app.admission.queued,
            )
        # The app is drained once its executor work ends, but a handler
        # may still be encoding and writing that work's (already paid
        # for) response: close idle connections now, busy ones after
        # their response is out.
        for w in list(self._conns - self._busy):
            with contextlib.suppress(Exception):
                w.close()
        while self._busy and loop.time() < give_up:
            await asyncio.sleep(0.005)
        for w in list(self._conns):
            with contextlib.suppress(Exception):
                w.close()
        if self._server is not None:
            await self._server.wait_closed()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling -------------------------------------------------
    async def _client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._conns.add(writer)
        try:
            while True:
                try:
                    req = await self._read_request(reader)
                except _BadRequest as e:
                    self._write_response(
                        writer, e.status, {"Content-Type": "application/json"},
                        json.dumps(
                            {
                                "code": "bad_request",
                                "error": e.message,
                                "retryable": False,
                            },
                            sort_keys=True,
                            separators=(",", ":"),
                        ).encode(),
                    )
                    await writer.drain()
                    break
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    asyncio.LimitOverrunError,
                ):
                    break  # client hung up / garbage framing
                if req is None:
                    break  # clean EOF between requests
                method, path, headers, body = req
                self._busy.add(writer)
                try:
                    payload = json.loads(body) if body else None
                except ValueError:
                    status, rheaders, rbody = (
                        400, {"Content-Type": "application/json"},
                        b'{"code":"bad_json","error":"request body is not '
                        b'valid JSON","retryable":false}',
                    )
                else:
                    # The app maps every library exception to a structured
                    # response.  Anything that still escapes is
                    # BaseException territory (simulated crash /
                    # cancellation): abort with no bytes, like a killed
                    # process would.
                    status, rheaders, rbody = await self.app.handle(
                        method, path, payload
                    )
                self._write_response(writer, status, rheaders, rbody)
                await writer.drain()
                self._busy.discard(writer)
                if headers.get("connection", "").lower() == "close":
                    break
        except asyncio.CancelledError:
            raise
        except BaseException as e:
            logger.warning(
                "aborting connection on %s: %s", type(e).__name__, e
            )
        finally:
            self._conns.discard(writer)
            self._busy.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; ``None`` on clean EOF before a request line."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as e:
            if not e.partial:
                return None
            raise
        if len(head) > MAX_HEADER_BYTES:
            raise _BadRequest(413, "header block too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _BadRequest(400, f"malformed request line: {lines[0]!r}")
        method, path = parts[0].upper(), parts[1]
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            k, _, v = line.partition(":")
            headers[k.strip().lower()] = v.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    def _write_response(self, writer, status: int, headers: dict, body: bytes):
        """One atomic write: status line + headers + body in a single
        buffer, so a response is never observable half-written."""
        reason = _REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}"]
        out = {"Content-Length": str(len(body)), **headers}
        for k, v in out.items():
            head.append(f"{k}: {v}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)


def serve_in_thread(app: ServerApp, host: str = "127.0.0.1", port: int = 0):
    """Run an :class:`HttpServer` on a daemon thread.

    Returns a started server whose ``.port`` is bound; call
    ``.stop(drain_timeout=...)`` to drain and join.  Usable as a context
    manager::

        with serve_in_thread(ServerApp(session)) as srv:
            ...  # talk to 127.0.0.1:srv.port
    """
    return _ThreadedServer(app, host, port).start()


class _ThreadedServer:
    def __init__(self, app: ServerApp, host: str, port: int):
        self.server = HttpServer(app, host, port)
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-http", daemon=True
        )
        self._started = threading.Event()

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._started.set()
        self.loop.run_forever()
        # Drain callbacks scheduled right before stop() so closures finish.
        self.loop.run_until_complete(asyncio.sleep(0))
        self.loop.close()

    def start(self) -> "_ThreadedServer":
        self._thread.start()
        if not self._started.wait(10):
            raise RuntimeError("HTTP server failed to start within 10s")
        return self

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def app(self) -> ServerApp:
        return self.server.app

    def stop(self, drain_timeout: float = 10.0) -> None:
        fut = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain_timeout), self.loop
        )
        fut.result(drain_timeout + 10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(10)

    def __enter__(self) -> "_ThreadedServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
