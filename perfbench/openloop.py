"""Open-loop request generator for ``snake-repro serve``.

One process, one asyncio loop, two connections.  Each connection says
``hello`` under its client name (a later phase against the same server
resumes the session), then sends on a fixed schedule
regardless of replies: request ``k`` is due at ``t0 + k / rate``
(the two connections interleave, half a period apart).  At every wakeup
the sender writes every request whose due time has passed, so a stall
shows up as latency, not as a lower offered rate.  A reader per
connection matches replies to requests in order.

* latency — reply time minus the request's *due* time;
* lag     — send time minus due time (how late the generator ran).

The schedule may step through several rates (the rate search).  A
:class:`Saturation` load replaces the schedule with a fixed number of
requests in flight per connection, to measure capacity.

The mix is three ``access`` requests (writes: ingress queue + journal) to
one ``predict`` (a read answered inline), replaying one kernel's access
stream per connection.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any, Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.serve.protocol import HEADER_BYTES, encode_frame

AccessTuple = Tuple[int, int, int]

#: Requests per connection cycle: three accesses, then one predict.
MIX = ("access", "access", "access", "predict")

REPLY_TIMEOUT_S = 10.0


@dataclass
class PhaseResult:
    """Every load request of one phase, accounted.  Per-request arrays
    are indexed by global request number (due-time order)."""

    due: List[float]                       # loop-clock due times
    sent: List[float] = field(default_factory=list)
    replied: List[Optional[float]] = field(default_factory=list)
    ok: List[bool] = field(default_factory=list)
    silent: int = 0
    acked_mutations: int = 0               # new sessions + acked accesses
    final_seq: Optional[int] = None        # the server's seq afterwards
    errors: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.due)

    @property
    def failed(self) -> int:
        """NACKed or unanswered requests."""
        return sum(
            1 for k in range(len(self.due))
            if self.replied[k] is None or not self.ok[k]
        )


class _Connection:
    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    async def read_reply(self) -> Dict[str, Any]:
        header = await self.reader.readexactly(HEADER_BYTES)
        payload = await self.reader.readexactly(int.from_bytes(header, "big"))
        return json.loads(payload)

    async def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.writer.write(encode_frame(message))
        await self.writer.drain()
        return await asyncio.wait_for(self.read_reply(), REPLY_TIMEOUT_S)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


def _frame(stream: Sequence[AccessTuple], k: int, seq: int) -> bytes:
    warp, pc, addr = stream[k % len(stream)]
    return encode_frame({
        "op": MIX[k % len(MIX)], "warp": warp, "pc": pc, "addr": addr,
        "seq": seq,
    })


def schedule(levels: Sequence[Tuple[float, float]]) -> List[float]:
    """Due offsets (seconds from the start) for consecutive
    ``(rate, seconds)`` levels."""
    offsets: List[float] = []
    start = 0.0
    for rate, seconds in levels:
        count = int(round(rate * seconds))
        offsets.extend(start + k / rate for k in range(count))
        start += seconds
    return offsets


async def _drive(conn: _Connection, ids: List[int], frames: List[bytes],
                 result: PhaseResult) -> None:
    """Send this connection's requests on their due times and read the
    replies, which come back in request order."""
    loop = asyncio.get_running_loop()
    due = result.due
    n = len(ids)
    received = 0

    async def reader() -> None:
        nonlocal received
        for j in range(n):
            reply = await conn.read_reply()
            k = ids[j]
            result.replied[k] = loop.time()
            received += 1
            if reply.get("seq") != j + 1:
                result.errors.append(
                    "reply seq %r for request %d" % (reply.get("seq"), j + 1))
            result.ok[k] = bool(reply.get("ok"))
            if result.ok[k] and MIX[j % len(MIX)] == "access":
                result.acked_mutations += 1

    reading = asyncio.ensure_future(reader())
    j = 0
    try:
        while j < n:
            now = loop.time()
            start = j
            while j < n and due[ids[j]] <= now:
                result.sent[ids[j]] = now
                j += 1
            if j > start:
                conn.writer.write(b"".join(frames[start:j]))
                await conn.writer.drain()
            if j < n:
                await asyncio.sleep(max(0.0, due[ids[j]] - loop.time()))
        await asyncio.wait_for(asyncio.shield(reading), REPLY_TIMEOUT_S)
    except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError) as exc:
        result.errors.append("%s: %s" % (type(exc).__name__, exc))
        # Replies that merely stopped coming on a connection that is
        # still open are silent drops.
        if not conn.writer.is_closing():
            result.silent += j - received
    finally:
        if not reading.done():
            reading.cancel()
        try:
            await reading
        except (asyncio.CancelledError, OSError, asyncio.IncompleteReadError):
            pass


class Saturation(NamedTuple):
    """A closed-loop load instead of a schedule: each connection keeps
    ``depth`` requests in flight for ``seconds``.  The server is never
    idle, yet its backlog stays bounded, so the reply rate is its
    capacity.  ``due`` then records each request's send time."""

    seconds: float
    depth: int


async def _saturate(conn: _Connection, stream: Sequence[AccessTuple],
                    load: Saturation, result: PhaseResult) -> None:
    loop = asyncio.get_running_loop()
    in_flight: Deque[Tuple[int, int]] = deque()   # (global id, number)
    room = asyncio.Event()      # set once half the window has drained
    drained = asyncio.Event()
    stopped = False

    async def reader() -> None:
        while True:
            reply = await conn.read_reply()
            k, j = in_flight.popleft()
            result.replied[k] = loop.time()
            result.ok[k] = bool(reply.get("ok"))
            if reply.get("seq") != j + 1:
                result.errors.append(
                    "reply seq %r for request %d" % (reply.get("seq"), j + 1))
            if result.ok[k] and MIX[j % len(MIX)] == "access":
                result.acked_mutations += 1
            if len(in_flight) <= load.depth // 2:
                room.set()
            if stopped and not in_flight:
                drained.set()

    reading = asyncio.ensure_future(reader())
    end = loop.time() + load.seconds
    j = 0
    try:
        while loop.time() < end:
            # Refill the window in one write, then wait for half of it.
            now = loop.time()
            burst = []
            while len(in_flight) < load.depth:
                k = len(result.due)
                result.due.append(now)
                result.sent.append(now)
                result.replied.append(None)
                result.ok.append(False)
                in_flight.append((k, j))
                burst.append(_frame(stream, j, j + 1))
                j += 1
            room.clear()
            conn.writer.write(b"".join(burst))
            await conn.writer.drain()
            # Wake on room, or when the reader ends (a dead server), or
            # after the reply timeout (a server that stopped replying).
            waiting = asyncio.ensure_future(room.wait())
            await asyncio.wait((waiting, reading), timeout=REPLY_TIMEOUT_S,
                               return_when=asyncio.FIRST_COMPLETED)
            if not room.is_set():
                waiting.cancel()
                if reading.done() and reading.exception() is not None:
                    raise reading.exception()  # type: ignore[misc]
                raise asyncio.TimeoutError(
                    "no reply within %.0f s" % REPLY_TIMEOUT_S)
        stopped = True
        if in_flight:
            await asyncio.wait_for(drained.wait(), REPLY_TIMEOUT_S)
    except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError) as exc:
        result.errors.append("%s: %s" % (type(exc).__name__, exc))
        if not conn.writer.is_closing():
            result.silent += len(in_flight)
    finally:
        reading.cancel()
        try:
            await reading
        except (asyncio.CancelledError, OSError, asyncio.IncompleteReadError):
            pass


async def _phase(host: str, port: int,
                 load: Union[Sequence[float], Saturation],
                 streams: Sequence[Sequence[AccessTuple]],
                 names: Sequence[str]) -> PhaseResult:
    loop = asyncio.get_running_loop()
    conns = []
    hellos = 0
    errors = []
    for name in names:
        reader, writer = await asyncio.open_connection(host, port)
        conn = _Connection(reader, writer)
        conns.append(conn)
        reply = await conn.call({"op": "hello", "client": name, "seq": 0})
        if reply.get("ok"):
            # Only a new session is a mutation; a resumed one is a read.
            hellos += reply.get("session") == "new"
        else:
            errors.append("hello refused: %r" % reply)
    if isinstance(load, Saturation):
        result = PhaseResult(due=[], acked_mutations=hellos, errors=errors)
        senders = [_saturate(conn, stream, load, result)
                   for conn, stream in zip(conns, streams)]
    else:
        # Frames are encoded before the clock starts, so the generator's
        # own cost stays off the schedule.
        frames = [
            [_frame(stream, j, j + 1)
             for j in range(len(range(index, len(load), len(conns))))]
            for index, stream in enumerate(streams)
        ]
        t0 = loop.time() + 0.05
        n = len(load)
        result = PhaseResult(due=[t0 + off for off in load],
                             sent=[0.0] * n, replied=[None] * n,
                             ok=[False] * n, acked_mutations=hellos,
                             errors=errors)
        senders = [
            _drive(conn, list(range(index, n, len(conns))), frames[index],
                   result)
            for index, conn in enumerate(conns)
        ]
    if errors:
        for sender in senders:
            sender.close()  # never started: nothing was sent
    else:
        await asyncio.gather(*senders)
        try:
            stats = await conns[0].call({"op": "stats"})
            result.final_seq = stats.get("seq")
        except (asyncio.TimeoutError, OSError,
                asyncio.IncompleteReadError) as exc:
            result.errors.append("stats: %s: %s" % (type(exc).__name__, exc))
    for conn in conns:
        await conn.close()
    return result


def run_phase(host: str, port: int, load: Union[Sequence[float], Saturation],
              streams: Sequence[Sequence[AccessTuple]],
              names: Sequence[str]) -> PhaseResult:
    """Blocking entry point: one phase against a live server.  ``load``
    is either due offsets (request ``k`` due ``load[k]`` seconds after
    the start, sent on connection ``k % len(names)``) or a
    :class:`Saturation`."""
    return asyncio.run(_phase(host, port, load, streams, names))


async def _ping(host: str, port: int) -> bool:
    reader, writer = await asyncio.open_connection(host, port)
    conn = _Connection(reader, writer)
    try:
        reply = await conn.call({"op": "ping"})
    finally:
        await conn.close()
    return bool(reply.get("ok"))


def ping(host: str, port: int) -> bool:
    return asyncio.run(_ping(host, port))


__all__ = ["MIX", "PhaseResult", "Saturation", "ping", "run_phase",
           "schedule"]
