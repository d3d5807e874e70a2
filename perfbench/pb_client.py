"""Load generator for the HTTP workloads: one process, one thread, at most
two keep-alive connections multiplexed with :mod:`selectors`.

``closed_loop`` keeps one request in flight per connection and sends the
next as soon as a response arrives.  ``open_loop`` sends every request at
its scheduled time whether or not earlier ones have been answered
(HTTP/1.1 pipelining; the server answers each connection in order) and
times each request from when it was due.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field

_HEAD = (
    b"POST /query HTTP/1.1\r\nHost: perfbench\r\n"
    b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
)


def request(body: bytes) -> bytes:
    return _HEAD % len(body) + body


class Conn:
    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.pending: deque = deque()

    def send(self, data: bytes, meta) -> None:
        self.pending.append(meta)
        self.sock.sendall(data)

    def responses(self):
        """Complete ``(status, body)`` responses buffered so far."""
        out = []
        buf = self.buf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                break
            head = bytes(buf[:end]).lower()
            i = head.find(b"content-length:")
            j = head.find(b"\r\n", i)
            length = int(head[i + 15 : j if j >= 0 else len(head)])
            total = end + 4 + length
            if len(buf) < total:
                break
            out.append((int(head[9:12]), bytes(buf[end + 4 : total])))
            del buf[:total]
        return out

    def close(self) -> None:
        self.sock.close()


@dataclass
class Outcome:
    """What one load phase observed."""

    read_ms: list = field(default_factory=list)
    write_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: free reads answered with anything but 200 (not timed)
    read_failed: int = 0
    errors: list = field(default_factory=list)
    elapsed_s: float = 0.0
    #: first response body per distinct free request
    first: dict = field(default_factory=dict)
    #: (Write, status, body) of every measured request
    writes: list = field(default_factory=list)
    #: (seconds into the phase, requests outstanding) at each send
    backlog: list = field(default_factory=list)

    def all_ms(self) -> list:
        return self.read_ms + self.write_ms

    def extend(self, other: "Outcome") -> None:
        """Add a later closed-loop phase's observations to this one."""
        self.read_ms += other.read_ms
        self.attempted += other.attempted
        self.failed += other.failed
        self.read_failed += other.read_failed
        self.errors += other.errors
        self.elapsed_s += other.elapsed_s
        for body, resp in other.first.items():
            seen = self.first.setdefault(body, resp)
            if seen != resp:
                self.failed += 1
                self.errors.append(f"free response changed between repeats: {body[:120]!r}")


def _record(out: Outcome, kind: str, body: bytes, write, status: int,
            resp: bytes, ms: float) -> None:
    if kind == "write":
        out.write_ms.append(ms)
        out.writes.append((write, status, resp))
        if status != 200:
            out.failed += 1
            out.errors.append(f"write {write.tenant}: HTTP {status} {resp[:200]!r}")
        return
    if status != 200:
        # A shed or failed read is not timed: failing fast must not look
        # like serving fast.
        out.failed += 1
        out.read_failed += 1
        out.errors.append(f"read: HTTP {status} {resp[:200]!r}")
        return
    out.read_ms.append(ms)
    seen = out.first.setdefault(body, resp)
    if seen is not resp and seen != resp:
        out.failed += 1
        out.errors.append(f"free response changed between repeats: {body[:120]!r}")


#: A phase fails when the server answers nothing for this long.
IDLE_TIMEOUT_S = 30.0


def _drain(sel, on_response, timeout: float) -> int:
    events = sel.select(timeout)
    for key, _ in events:
        conn = key.data
        data = conn.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        conn.buf += data
        now = time.perf_counter()
        for status, resp in conn.responses():
            on_response(conn, conn.pending.popleft(), status, resp, now)
    return len(events)


def closed_loop(conns, stream, seconds: float) -> Outcome:
    """Each connection: send, await the response, send the next, until
    ``seconds`` have passed; then drain."""
    out = Outcome()
    sel = selectors.SelectSelector()  # sub-millisecond timeouts
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    start = time.perf_counter()
    stop = start + seconds

    def send(conn):
        body = stream.next()
        out.attempted += 1
        conn.send(request(body), (body, time.perf_counter()))

    def on_response(conn, meta, status, resp, now):
        body, t_sent = meta
        _record(out, "read", body, None, status, resp, (now - t_sent) * 1e3)
        if now < stop:
            send(conn)

    try:
        for c in conns:
            send(c)
        while any(c.pending for c in conns):
            if not _drain(sel, on_response, IDLE_TIMEOUT_S):
                raise TimeoutError("no response within the idle timeout")
    finally:
        sel.close()
    out.elapsed_s = time.perf_counter() - start
    return out


def open_loop(conns, schedule, lead_s: float = 0.01) -> Outcome:
    """Send each :class:`pb_gen.Arrival` at its time (round-robin over the
    connections); latency counts from the scheduled time."""
    out = Outcome()
    sel = selectors.SelectSelector()  # sub-millisecond timeouts
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    start = time.perf_counter() + lead_s
    outstanding = 0

    def on_response(conn, meta, status, resp, now):
        nonlocal outstanding
        arrival, t_due = meta
        outstanding -= 1
        _record(out, arrival.kind, arrival.body, arrival.write, status, resp,
                (now - t_due) * 1e3)

    try:
        i, n = 0, len(schedule)
        while i < n or outstanding:
            now = time.perf_counter()
            while i < n and start + schedule[i].t <= now:
                a = schedule[i]
                due = start + a.t
                out.late_ms.append((now - due) * 1e3)
                out.backlog.append((now - start, outstanding))
                out.attempted += 1
                outstanding += 1
                conns[i % len(conns)].send(request(a.body), (a, due))
                i += 1
                now = time.perf_counter()
            if i < n:
                _drain(sel, on_response, max(start + schedule[i].t - now, 0.0))
            elif not _drain(sel, on_response, IDLE_TIMEOUT_S):
                raise TimeoutError("no response within the idle timeout")
    finally:
        sel.close()
    out.elapsed_s = time.perf_counter() - start
    return out
