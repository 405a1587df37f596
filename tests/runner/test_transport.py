"""The message plane: clocks, the faulty Inbox, and the inline transport."""

import pytest

from repro.gpusim.faults import RunnerFaultInjector, RunnerFaultPlan
from repro.runner.transport import (
    Inbox,
    InlineTransport,
    SubprocessTransport,
    VirtualClock,
    WallClock,
)


class TestClocks:
    def test_virtual_clock_sleep_advances_time(self):
        clock = VirtualClock(start=10.0)
        clock.sleep(2.5)
        clock.advance(1.0)
        assert clock.now() == pytest.approx(13.5)

    def test_wall_clock_is_monotonic(self):
        clock = WallClock()
        a = clock.now()
        assert clock.now() >= a


class TestInbox:
    def test_delivery_preserves_send_order(self):
        inbox = Inbox()
        inbox.put(0, {"type": "result", "key": "a"}, now=1.0)
        inbox.put(1, {"type": "result", "key": "b"}, now=1.0)
        drained = inbox.drain(1.0)
        assert [m["key"] for _, m in drained] == ["a", "b"]
        assert [w for w, _ in drained] == [0, 1]

    def test_future_sent_at_defers_delivery(self):
        inbox = Inbox()
        inbox.put(0, {"type": "result", "key": "a"}, now=1.0, sent_at=5.0)
        assert inbox.drain(4.9) == []
        assert len(inbox.drain(5.0)) == 1

    def test_discard_unsent_keeps_already_sent_messages(self):
        inbox = Inbox()
        inbox.put(0, {"type": "result", "key": "sent"}, now=1.0)
        inbox.put(0, {"type": "result", "key": "unsent"}, now=1.0, sent_at=9.0)
        inbox.discard_unsent(0, killed_at=2.0)
        drained = inbox.drain(100.0)
        assert [m["key"] for _, m in drained] == ["sent"]

    def _inbox_with(self, site, rate=1.0):
        injector = RunnerFaultInjector(
            RunnerFaultPlan.single(site, rate=rate, max_per_job=10)
        )
        return Inbox(injector), injector

    def test_drop_fault_loses_the_message(self):
        inbox, injector = self._inbox_with("transport.drop")
        inbox.put(0, {"type": "result", "key": "k"}, now=0.0)
        assert inbox.drain(1e9) == []
        assert injector.counts["transport.drop"] == 1

    def test_delay_fault_defers_delivery(self):
        inbox, injector = self._inbox_with("transport.delay")
        inbox.put(0, {"type": "result", "key": "k"}, now=0.0)
        assert inbox.drain(0.0) == []  # delayed past "now"
        assert len(inbox.drain(1e9)) == 1

    def test_dup_fault_delivers_twice(self):
        inbox, injector = self._inbox_with("transport.dup")
        inbox.put(0, {"type": "heartbeat", "key": "k"}, now=0.0)
        assert len(inbox.drain(1e9)) == 2

    def test_ready_messages_are_immune_to_faults(self):
        inbox, _ = self._inbox_with("transport.drop")
        inbox.put(0, {"type": "ready", "worker": 0}, now=0.0)
        assert len(inbox.drain(1e9)) == 1

    def test_fault_cap_per_site_and_key(self):
        inbox, injector = self._inbox_with("transport.drop")
        # The cap comes from the plan's max_per_job (10 here).
        for _ in range(12):
            inbox.put(0, {"type": "result", "key": "k"}, now=0.0)
        # 10 dropped (the cap), the rest delivered.
        assert len(inbox.drain(1e9)) == 2


def _spec_dict():
    from repro.runner import JobSpec

    return JobSpec.make("lps", "none", scale=0.05).to_dict()


class TestInlineTransport:
    def test_workers_announce_ready_once(self):
        transport = InlineTransport(workers=2)
        transport.start()
        ready = [m for _, m in transport.poll(0.0) if m["type"] == "ready"]
        assert len(ready) == 2
        assert transport.poll(0.0) == []

    def test_assignment_executes_synchronously(self):
        transport = InlineTransport(workers=1)
        transport.start()
        transport.poll(0.0)
        transport.assign(
            0,
            {"type": "assign", "key": "k", "spec": _spec_dict(), "attempt": 1},
        )
        messages = [m for _, m in transport.poll(1.0)]
        assert len(messages) == 1
        assert messages[0]["type"] == "result"
        assert messages[0]["status"] == "ok"
        assert messages[0]["key"] == "k"

    def test_kill_and_respawn_cycle(self):
        transport = InlineTransport(workers=1)
        transport.start()
        transport.poll(0.0)
        transport.kill(0, now=1.0)
        assert not transport.alive(0)
        assert "killed" in transport.exit_detail(0)
        transport.respawn(0, now=2.0)
        assert transport.alive(0)
        ready = [m for _, m in transport.poll(2.0) if m["type"] == "ready"]
        assert len(ready) == 1

    def test_chaos_kill_is_a_silent_death(self):
        injector = RunnerFaultInjector(
            RunnerFaultPlan.single("worker.kill", rate=1.0)
        )
        transport = InlineTransport(workers=1, faults=injector)
        transport.start()
        transport.poll(0.0)
        transport.assign(
            0,
            {"type": "assign", "key": "k", "spec": _spec_dict(), "attempt": 1},
        )
        results = [m for _, m in transport.poll(1.0) if m["type"] == "result"]
        assert results == []  # died without reporting
        assert not transport.alive(0)
        assert "signal" in transport.exit_detail(0)

    def test_heartbeat_stall_withholds_the_result_past_the_lease(self):
        plan = RunnerFaultPlan.single(
            "worker.heartbeat_stall", rate=1.0, delay_s=0.5
        )
        injector = RunnerFaultInjector(plan)
        transport = InlineTransport(workers=1, faults=injector)
        transport.start()
        transport.poll(0.0)
        transport.assign(
            0,
            {"type": "assign", "key": "k", "spec": _spec_dict(), "attempt": 1},
        )
        assert [m for _, m in transport.poll(0.0) if m["type"] == "result"] == []
        # The stall is bounded: 2*delay_s <= stall < 4*delay_s.
        late = [m for _, m in transport.poll(2.0) if m["type"] == "result"]
        assert len(late) == 1


class TestSubprocessTransport:
    def test_round_trip_and_heartbeats(self):
        transport = SubprocessTransport(1, lease_s=0.25)
        transport.start()
        try:
            import time

            deadline = time.monotonic() + 30.0
            saw_ready = saw_result = False
            heartbeats = 0
            assigned = False
            while time.monotonic() < deadline and not saw_result:
                for worker, message in transport.poll(time.monotonic()):
                    if message["type"] == "ready":
                        saw_ready = True
                    elif message["type"] == "heartbeat":
                        heartbeats += 1
                    elif message["type"] == "result":
                        saw_result = True
                        assert message["status"] == "ok"
                if saw_ready and not assigned:
                    assigned = True
                    transport.assign(
                        0,
                        {
                            "type": "assign", "key": "k",
                            "spec": _spec_dict(), "attempt": 1,
                        },
                    )
                time.sleep(0.01)
            assert saw_ready and saw_result
        finally:
            transport.stop()

    def test_kill_is_detected_and_respawn_recovers(self):
        transport = SubprocessTransport(1, lease_s=5.0)
        transport.start()
        try:
            import time

            assert transport.alive(0)
            transport.kill(0, now=0.0)
            assert not transport.alive(0)
            transport.respawn(0, now=0.0)
            deadline = time.monotonic() + 30.0
            ready = False
            while time.monotonic() < deadline and not ready:
                ready = any(
                    m["type"] == "ready"
                    for _, m in transport.poll(time.monotonic())
                )
                time.sleep(0.01)
            assert ready
        finally:
            transport.stop()

    def test_workers_exit_when_the_scheduler_ends_close(self):
        """A worker must not outlive its scheduler: once every
        scheduler-side pipe end is closed (what the kernel does when the
        scheduler dies), each worker's ``recv`` sees EOF and it exits.
        A forked worker holding copies of those ends would wait forever."""
        import time

        transport = SubprocessTransport(2, lease_s=5.0)
        transport.start()
        try:
            procs = [slot.proc for slot in transport._slots.values()]
            for slot in transport._slots.values():
                slot.conn.close()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(
                proc.is_alive() for proc in procs
            ):
                time.sleep(0.05)
            assert [proc.is_alive() for proc in procs] == [False, False]
        finally:
            transport.stop()

    def test_workers_do_not_inherit_a_sigterm_handler(self):
        """``snake-repro sweep`` hooks SIGTERM for its graceful drain; a
        forked worker must not inherit that handler and so ignore the
        signal."""
        import os
        import signal
        import time

        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            transport = SubprocessTransport(1, lease_s=5.0)
            transport.start()
        finally:
            signal.signal(signal.SIGTERM, previous)
        try:
            deadline = time.monotonic() + 30.0
            ready = False
            while time.monotonic() < deadline and not ready:
                ready = any(
                    m["type"] == "ready"
                    for _, m in transport.poll(time.monotonic())
                )
                time.sleep(0.01)
            assert ready
            proc = transport._slots[0].proc
            os.kill(proc.pid, signal.SIGTERM)
            proc.join(timeout=5.0)
            assert proc.exitcode == -signal.SIGTERM
        finally:
            transport.stop()
