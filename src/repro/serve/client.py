"""Client-side helpers: one-shot serving and the JSONL stdio loop.

Two entry points sit on top of :class:`~repro.serve.server.PolicyServer`:

* :func:`serve_once` — boot, answer a batch of requests, drain, return
  the replies in submission order.  Backs ``repro decide`` and any test
  that wants request/reply semantics without managing the lifecycle.
* :func:`serve_jsonl` — the daemon loop behind ``repro serve``: read
  one JSON request per line, stream one JSON reply per completion.
  Input arrives in chunks of up to :data:`READ_CHUNK_BYTES`, each read
  on the event loop's executor, so a slow producer never blocks the
  worker pool (the no-blocking-calls discipline RPL701 enforces on this
  package) and a fast one pays one thread hop per chunk, not per line.

Replies stream in *completion* order; clients correlate through
``request_id``, which every reply echoes.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable, Sequence

from repro.errors import ReproError, ServeError
from repro.serve.protocol import (
    REJECT_ERROR,
    Rejection,
    Reply,
    Request,
    reply_to_mapping,
    request_from_mapping,
)
from repro.serve.server import PolicyServer

#: Bytes asked of ``read_chunk`` per executor hop in :func:`serve_jsonl`.
READ_CHUNK_BYTES = 64 * 1024


async def serve_once(
    server: PolicyServer, requests: Sequence[Request]
) -> list[Reply]:
    """Start ``server``, answer ``requests``, drain, and shut down.

    Returns the replies in submission order (unlike the streaming loop,
    which replies in completion order).
    """
    await server.start()
    try:
        futures = [server.submit(request) for request in requests]
        return [await future for future in futures]
    finally:
        await server.shutdown()


async def serve_jsonl(
    server: PolicyServer,
    read_chunk: Callable[[int], bytes],
    write_reply: Callable[[dict[str, Any]], None],
) -> int:
    """Pump JSONL requests into a started server until EOF, then drain.

    Args:
        server: A server whose :meth:`~PolicyServer.start` has already
            run (the CLI owns the lifecycle so it can report stats).
        read_chunk: Blocking reader called with :data:`READ_CHUNK_BYTES`
            that returns whatever bytes are available, up to that many
            (e.g. ``sys.stdin.buffer.read1``); ``b""`` means EOF.
            Called via the executor so the event loop — and the decision
            path — never blocks on input.  Lines are split on ``b"\\n"``
            and decoded as UTF-8 one by one, so a chunk boundary may fall
            anywhere, even inside a multi-byte character; a last line
            without a newline is still served.
        write_reply: Sink for one reply mapping; called from the event
            loop in completion order.

    Returns:
        The number of requests submitted (malformed lines are answered
        with an ``error`` rejection and not counted).
    """
    loop = asyncio.get_running_loop()
    submitted = 0
    in_flight: set["asyncio.Future[Reply]"] = set()

    def _emit(future: "asyncio.Future[Reply]") -> None:
        in_flight.discard(future)
        if not future.cancelled():
            write_reply(reply_to_mapping(future.result()))

    def _submit(raw: bytes) -> bool:
        """Submit one request line; ``False`` for a blank or bad line."""
        nonlocal submitted
        line = raw.strip()
        if not line:
            return False
        data = None
        try:
            data = json.loads(line.decode("utf-8"))
            if not isinstance(data, dict):
                raise ServeError("a request line must be a JSON object")
            request = request_from_mapping(data, server.chip)
        except (UnicodeDecodeError, json.JSONDecodeError, ReproError) as exc:
            write_reply(reply_to_mapping(_malformed(data, exc)))
            return False
        future = server.submit(request)
        submitted += 1
        in_flight.add(future)
        future.add_done_callback(_emit)
        return True

    tail = b""
    while True:
        chunk = await loop.run_in_executor(None, read_chunk, READ_CHUNK_BYTES)
        if not chunk:
            break
        *lines, tail = (tail + chunk).split(b"\n")
        for raw in lines:
            if _submit(raw):
                # One turn per request, as a read per line used to give:
                # workers drain the queue between lines, so a burst read
                # in one chunk does not overflow it.
                await asyncio.sleep(0)
    _submit(tail)
    await server.shutdown(drain=True)
    if in_flight:
        await asyncio.gather(*in_flight, return_exceptions=True)
    return submitted


def _malformed(data: Any, exc: Exception) -> Rejection:
    """The ``error`` rejection for a line that is not a valid request.

    ``data`` is what the line parsed to (``None`` when it is not JSON);
    a JSON object's ``request_id``/``trace_id`` are echoed.
    """
    request_id = trace_id = ""
    if isinstance(data, dict):
        request_id = str(data.get("request_id", ""))
        trace_id = str(data.get("trace_id", ""))
    return Rejection(
        request_id=request_id,
        reason=REJECT_ERROR,
        detail=f"malformed request line: {exc}",
        trace_id=trace_id,
    )
