"""SM corner cases: SFU, issue width, wide stores, prefetch footprints,
per-app tagging, prefetcher pipeline latency."""

from repro.core.throttle import NullThrottle
from repro.gpusim.config import GPUConfig
from repro.gpusim.dram import DRAM
from repro.gpusim.l2 import L2Cache
from repro.gpusim.sm import SM
from repro.gpusim.trace import CTA, Op, WarpInstr, WarpTrace
from repro.prefetch.base import AccessEvent, Prefetcher, PrefetchRequest


def make_sm(config=None, prefetcher=None, throttle=None):
    config = config or GPUConfig.scaled()
    dram = DRAM(config.dram, config.dram_channels, config.dram_banks_per_channel,
                config.dram_row_bytes, config.dram_clock_ratio, config.l2.line_bytes)
    l2 = L2Cache(config.l2, config.l2_banks, dram)
    return SM(0, config, l2, prefetcher or Prefetcher(), throttle or NullThrottle())


def cta_of(*warp_instrs, cta_id=0):
    return CTA(cta_id=cta_id, warps=[
        WarpTrace(warp_id=i, instrs=list(instrs))
        for i, instrs in enumerate(warp_instrs)
    ])


class TestLatencies:
    def test_sfu_slower_than_alu(self):
        alu_sm = make_sm()
        alu_sm.enqueue_cta(cta_of([WarpInstr(pc=1, op=Op.ALU)] * 20))
        alu_cycles = alu_sm.run().cycles

        sfu_sm = make_sm()
        sfu_sm.enqueue_cta(cta_of([WarpInstr(pc=1, op=Op.SFU)] * 20))
        assert sfu_sm.run().cycles > alu_cycles

    def test_issue_width_bounds_throughput(self):
        wide = make_sm(GPUConfig.scaled().with_(issue_width=4))
        wide.enqueue_cta(cta_of(*[[WarpInstr(pc=1, op=Op.ALU)] * 50] * 8))
        narrow = make_sm(GPUConfig.scaled().with_(issue_width=1))
        narrow.enqueue_cta(cta_of(*[[WarpInstr(pc=1, op=Op.ALU)] * 50] * 8))
        assert narrow.run().cycles > wide.run().cycles


class TestWideAccesses:
    def test_scattered_store_counts_bandwidth_per_line(self):
        sm = make_sm()
        store = WarpInstr(pc=1, op=Op.STORE, base_addr=0, thread_stride=256)
        sm.enqueue_cta(cta_of([store]))
        stats = sm.run()
        assert stats.icnt_bytes >= 32 * 8  # one request header per line

    def test_scattered_load_fills_every_line(self):
        sm = make_sm()
        load = WarpInstr(pc=1, op=Op.LOAD, base_addr=0, thread_stride=256)
        sm.enqueue_cta(cta_of([load]))
        stats = sm.run()
        assert stats.l1_misses + stats.l1_reserved >= 16


class TestPrefetchFootprint:
    def test_prefetch_request_expands_with_trigger_stride(self):
        class OneShot(Prefetcher):
            def __init__(self):
                self.done = False

            def observe(self, event):
                if self.done:
                    return []
                self.done = True
                return [PrefetchRequest(base_addr=1 << 20)]

        sm = make_sm(prefetcher=OneShot())
        # broadcast trigger -> single-line prefetch footprint
        load = WarpInstr(pc=1, op=Op.LOAD, base_addr=0, thread_stride=0)
        sm.enqueue_cta(cta_of([load]))
        stats = sm.run()
        assert stats.prefetch.issued == 1

    def test_prefetch_delayed_by_pipeline_latency(self):
        issued_at = []

        class OneShot(Prefetcher):
            def __init__(self):
                self.done = False

            def observe(self, event):
                if self.done:
                    return []
                self.done = True
                return [PrefetchRequest(base_addr=1 << 20)]

        config = GPUConfig.scaled().with_(prefetcher_latency=7)
        sm = make_sm(config, prefetcher=OneShot())
        original = sm.l1.prefetch_trigger

        def spy(vectors, depths, now, issue_at, throttle, pc):
            issued_at.extend(
                (line, issue_at) for vector in vectors for line in vector
            )
            return original(vectors, depths, now, issue_at, throttle, pc)

        sm.l1.prefetch_trigger = spy
        load = WarpInstr(pc=1, op=Op.LOAD, base_addr=0, thread_stride=0)
        sm.enqueue_cta(cta_of([load]))
        sm.run()
        assert issued_at and issued_at[0][1] == 7  # trigger at cycle 0 + latency


class TestTelemetryLane:
    def test_telemetry_on_run_issues_through_prefetch_trigger(self):
        """Watching a run must not change its code path: with a bus
        attached, Snake's predictions still go through the one-call
        trigger issue, and the stats equal an unobserved run's."""
        from repro.gpusim.gpu import GPU
        from repro.obs import EventBus, PCMetricsSink
        from repro.prefetch import build_setup
        from repro.workloads import build_kernel

        results = []
        for obs in (None, EventBus([PCMetricsSink()])):
            setup = build_setup("snake", GPUConfig.scaled())
            gpu = GPU(
                config=setup.config,
                prefetcher_factory=setup.prefetcher_factory,
                throttle_factory=setup.throttle_factory,
                storage_mode=setup.storage_mode,
                obs=obs,
            )
            calls = []
            for core in gpu.sms:
                original = core.l1.prefetch_trigger

                def spy(*args, _original=original, **kwargs):
                    calls.append(args[0])
                    return _original(*args, **kwargs)

                core.l1.prefetch_trigger = spy
            stats = gpu.run(build_kernel("lps", scale=0.2, seed=11))
            results.append((stats, len(calls)))
        (plain, plain_calls), (traced, traced_calls) = results
        assert traced_calls > 0
        assert traced_calls == plain_calls
        assert traced == plain


class TestAppTagging:
    def test_events_carry_app_id(self):
        seen = []

        class Recorder(Prefetcher):
            def observe(self, event: AccessEvent):
                seen.append(event.app_id)
                return []

        sm = make_sm(prefetcher=Recorder())
        load = WarpInstr(pc=1, op=Op.LOAD, base_addr=0, thread_stride=4)
        sm.enqueue_cta(cta_of([load], cta_id=0), app_id=3)
        sm.run()
        assert seen == [3]
