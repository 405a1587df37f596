"""Integration tests for the asyncio shell: a real server on an
ephemeral port, driven by a real client over the frame protocol."""

import asyncio

import pytest

from repro.obs.events import EventBus, EventKind
from repro.runner.transport import VirtualClock
from repro.serve import (
    PrefetchServer,
    ServeClient,
    ServeSettings,
)
from repro.serve.journal import Journal
from repro.serve.protocol import HEADER, encode_frame


class _Collector:
    """Minimal obs sink: keeps every event for assertions."""

    def __init__(self):
        self.events = []

    def accept(self, event):
        self.events.append(event)

    def close(self):
        pass


def run(coro):
    return asyncio.run(coro)


async def _start(tmp_path, **overrides):
    settings = ServeSettings(data_dir=str(tmp_path / "data"), **overrides)
    server = PrefetchServer(settings)
    await server.start()
    return server


async def _connect(server):
    return await ServeClient.connect("127.0.0.1", server.port)


def test_request_response_lifecycle(tmp_path):
    async def scenario():
        server = await _start(tmp_path)
        client = await _connect(server)
        assert (await client.request({"op": "ping"}))["pong"] is True

        hello = await client.request({"op": "hello", "client": "x", "seq": 0})
        assert hello["ok"] and hello["session"] == "new"

        seq = 0
        for i in range(20):
            # Several warps agreeing on a two-PC transition: the pattern
            # that actually trains Snake chains.
            for pc, base in ((16, 4096), (24, 1 << 20)):
                seq += 1
                response = await client.request({
                    "op": "access", "warp": i % 4, "pc": pc,
                    "addr": base + 64 * i, "seq": seq,
                })
                assert response["ok"] and response["seq"] == seq

        predict = await client.request({
            "op": "predict", "warp": 0, "pc": 16, "addr": 4096 + 64 * 20,
        })
        assert predict["ok"] and predict["predictions"]

        stats = await client.request({"op": "stats", "digest": True})
        assert stats["ready"] is True and stats["sessions"] == 1
        assert stats["seq"] == seq + 1 and len(stats["digest"]) == 64

        bye = await client.request({"op": "bye"})
        assert bye["ok"] and bye["bye"] is True
        await client.close()
        await server.stop()
        return server

    server = run(scenario())
    assert server.stats.acked > 30


def test_access_before_hello_is_a_protocol_nack(tmp_path):
    async def scenario():
        server = await _start(tmp_path)
        client = await _connect(server)
        response = await client.request(
            {"op": "access", "warp": 0, "pc": 8, "addr": 64})
        await client.close()
        await server.stop()
        return response

    response = run(scenario())
    assert response["error"] == "protocol"


def test_malformed_frame_nacked_connection_survives(tmp_path):
    async def scenario():
        server = await _start(tmp_path)
        client = await _connect(server)
        client.writer.write(HEADER.pack(7) + b"garbage")
        await client.writer.drain()
        first = await client.read_response()
        second = await client.request({"op": "ping"})
        await client.close()
        await server.stop()
        return first, second, server

    first, second, server = run(scenario())
    assert first["error"] == "malformed"
    assert second["pong"] is True
    assert server.stats.malformed == 1


def test_oversized_declared_length_kills_connection(tmp_path):
    async def scenario():
        server = await _start(tmp_path, max_frame=128)
        client = await _connect(server)
        client.writer.write(HEADER.pack(1 << 20))
        await client.writer.drain()
        response = await client.read_response()
        # Framing is lost, so the server must hang up after the NACK.
        with pytest.raises(asyncio.IncompleteReadError):
            await client.reader.readexactly(4)
        await client.close()
        await server.stop()
        return response

    response = run(scenario())
    assert response["error"] == "malformed"


def test_slow_loris_gets_evicted_with_a_nack(tmp_path):
    async def scenario():
        server = await _start(tmp_path, frame_timeout_s=0.2)
        client = await _connect(server)
        client.writer.write(HEADER.pack(64))    # payload never follows
        await client.writer.drain()
        response = await asyncio.wait_for(client.read_response(), 10.0)
        await client.close()
        await server.stop()
        return response, server

    response, server = run(scenario())
    assert response["error"] == "slow-client"
    assert server.stats.evicted_slow == 1


def test_overload_sheds_with_explicit_nack(tmp_path):
    """A stalled worker + depth-1 queue: the request holding the slot
    pends, every overflowing request gets an overload NACK with retry
    advice — never silence."""
    async def scenario():
        server = await _start(tmp_path, queue_depth=1)
        # Stall the single mutation worker so the queue cannot drain.
        server._worker_task.cancel()
        try:
            await server._worker_task
        except asyncio.CancelledError:
            pass

        # Three connections: the first's hello occupies the only queue
        # slot (its response pends), the other two must be shed.
        holder = await _connect(server)
        holder.writer.write(encode_frame({"op": "hello", "client": "c0"}))
        await holder.writer.drain()
        await asyncio.sleep(0.1)      # let it occupy the slot
        sheds = []
        for i in (1, 2):
            client = await _connect(server)
            response = await client.request(
                {"op": "hello", "client": "c%d" % i, "seq": i})
            sheds.append(response)
            await client.close()
        await holder.close()
        server._queue = None          # stop(): skip joining the held slot
        await server.stop()
        return sheds, server

    sheds, server = run(scenario())
    assert all(r["error"] == "overload" for r in sheds)
    assert all(r["retry_after_s"] > 0 for r in sheds)
    assert server.stats.shed == 2
    assert server.stats.nacked["overload"] == 2


def test_deadline_nack_for_requests_that_aged_in_queue(tmp_path):
    async def scenario():
        clock = VirtualClock(0.0)
        settings = ServeSettings(data_dir=str(tmp_path / "data"),
                                 deadline_s=1.0)
        server = PrefetchServer(settings, clock=clock)
        await server.start()
        client = await _connect(server)
        # Freeze the worker, enqueue, age the clock, then let it run.
        server._worker_task.cancel()
        try:
            await server._worker_task
        except asyncio.CancelledError:
            pass
        client.writer.write(
            encode_frame({"op": "hello", "client": "late", "seq": 5}))
        await client.writer.drain()
        await asyncio.sleep(0.1)      # let the request reach the queue
        clock.advance(10.0)           # it ages past the deadline budget
        server._worker_task = asyncio.ensure_future(server._worker())
        response = await asyncio.wait_for(client.read_response(), 10.0)
        await client.close()
        await server.stop()
        return response

    response = run(scenario())
    assert response["error"] == "deadline"
    assert response["seq"] == 5


def test_drain_nacks_shutdown(tmp_path):
    async def scenario():
        server = await _start(tmp_path)
        client = await _connect(server)
        await client.request({"op": "hello", "client": "x"})
        server.draining = True        # drain begins mid-connection
        response = await client.request(
            {"op": "access", "warp": 0, "pc": 8, "addr": 64})
        await client.close()
        server.draining = False
        await server.stop()
        return response

    assert run(scenario())["error"] == "shutdown"


def test_restart_recovers_byte_identical_state(tmp_path):
    async def scenario():
        server = await _start(tmp_path, snapshot_every=10)
        client = await _connect(server)
        await client.request({"op": "hello", "client": "x"})
        for i in range(25):
            await client.request({"op": "access", "warp": 0, "pc": 16,
                                  "addr": 4096 + 64 * i})
        stats = await client.request({"op": "stats", "digest": True})
        await client.close()
        await server.stop()

        # Simulate the kill -9 disk signature on top of the stopped state.
        Journal(tmp_path / "data").tear()

        revived = await _start(tmp_path, snapshot_every=10)
        client = await _connect(revived)
        hello = await client.request({"op": "hello", "client": "x"})
        stats2 = await client.request({"op": "stats", "digest": True})
        await client.close()
        await revived.stop()
        return stats, hello, stats2, revived

    stats, hello, stats2, revived = run(scenario())
    assert hello["session"] == "resumed"
    assert stats2["digest"] == stats["digest"]
    assert revived.recovery is not None
    assert revived.recovery.quarantined == 1


def test_pipelined_clients_get_ordered_replies_and_a_replayable_journal(
        tmp_path):
    """Two clients with 64 access requests in flight each: replies come
    back in send order, the journal's sequence numbers are contiguous,
    and replaying the journal reaches the live state digest."""
    import json
    import shutil

    depth = 64

    async def pipeline(client, name, warp):
        hello = await client.request({"op": "hello", "client": name})
        assert hello["ok"]
        for i in range(depth):
            client.writer.write(encode_frame({
                "op": "access", "warp": warp, "pc": 16 + 8 * (i % 2),
                "addr": 4096 * (warp + 1) + 64 * i, "seq": i + 1,
            }))
        await client.writer.drain()
        return [await asyncio.wait_for(client.read_response(), 10.0)
                for _ in range(depth)]

    async def scenario():
        server = await _start(tmp_path)
        clients = [await _connect(server) for _ in range(2)]
        replies = await asyncio.gather(
            pipeline(clients[0], "a", 0), pipeline(clients[1], "b", 1),
        )
        stats = await clients[0].request({"op": "stats", "digest": True})
        journal = (tmp_path / "data" / "journal.jsonl").read_text()
        shutil.copytree(tmp_path / "data", tmp_path / "replay")
        for client in clients:
            await client.close()
        await server.stop()
        return replies, stats, journal

    replies, stats, journal = run(scenario())
    for responses in replies:
        assert all(r["ok"] for r in responses)
        assert [r["seq"] for r in responses] == list(range(1, depth + 1))
    seqs = [json.loads(line)["q"] for line in journal.splitlines()]
    assert seqs == list(range(1, 2 * depth + 3))  # two admits + accesses
    assert stats["seq"] == seqs[-1]
    recovered = Journal.recover(tmp_path / "replay")
    assert recovered.replayed == len(seqs)
    assert recovered.state.state_digest() == stats["digest"]


def test_serve_events_reach_the_bus(tmp_path):
    async def scenario():
        collector = _Collector()
        bus = EventBus(sinks=[collector])
        settings = ServeSettings(data_dir=str(tmp_path / "data"))
        server = PrefetchServer(settings, obs=bus)
        await server.start()
        client = await _connect(server)
        await client.request({"op": "hello", "client": "x"})
        await client.request({"op": "access", "warp": 0, "pc": 8, "addr": 64})
        await client.close()
        await server.stop()
        return collector

    collector = run(scenario())
    actions = [e.action for e in collector.events
               if e.kind == EventKind.SERVE]
    assert "recover" in actions
    assert "accept" in actions
    assert "drain" in actions and "snapshot" in actions


def test_port_file_advertises_ephemeral_port(tmp_path):
    async def scenario():
        server = await _start(tmp_path)
        port_file = tmp_path / "data" / "serve.port"
        advertised = int(port_file.read_text().strip())
        await server.stop()
        return advertised, server.port

    advertised, bound = run(scenario())
    assert advertised == bound
