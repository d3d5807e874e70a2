"""Reference HTTP server for serve_read: the host's speed for this traffic.

Run as ``python pb_refserver.py``.  It prints ``{"port": N}`` and serves
until a line arrives on stdin.  Each ``POST`` body is parsed as JSON and
answered with a small canned JSON body, over the same keep-alive
HTTP/1.1 framing as ``repro.server``, on a stdlib asyncio event loop.  It
never loads the program under test, so its latency moves only with the
host: the CPU's speed, wake-ups, the loopback stack.  serve_read times
it, with the server under test stopped, between its windows of reads and
rescales each window's latencies by it.
"""

from __future__ import annotations

import asyncio
import json
import sys

_HEAD = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n"


async def handle(reader, writer) -> None:
    try:
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            body = json.loads(await reader.readexactly(length))
            answers = [{"route": "reference", "values": [float(len(q))] * 8}
                       for q in body["queries"]]
            out = json.dumps(
                {"answers": answers, "charged": 0.0, "dataset": body["dataset"]},
                sort_keys=True,
            ).encode()
            writer.write(_HEAD % len(out) + out)
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def main() -> None:
    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    print(json.dumps({"port": server.sockets[0].getsockname()[1]}), flush=True)
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
    server.close()


if __name__ == "__main__":
    asyncio.run(main())
