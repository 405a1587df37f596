"""Top-level GPU: SM array + shared L2/DRAM, kernel launch, stats roll-up.

``GPU.run(kernel)`` dispatches CTAs round-robin over SMs (as the hardware
work distributor does), runs every SM to completion and merges per-SM stats.
Each SM gets its own prefetcher instance — the paper's tables are per-SM
structures.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.obs.events import BusLike, EventBus, NULL_BUS
from repro.prefetch.base import Prefetcher, create as create_prefetcher

from .config import GPUConfig
from .dram import DRAM
from .faults import FaultInjector, FaultPlan
from .l2 import L2Cache
from .sanitizer import InvariantViolationError, SimSanitizer
from .sm import SM, ThrottlePolicy
from .stats import SimStats
from .trace import KernelTrace
from .unified_cache import StorageMode
from .watchdog import SimulationHangError, Watchdog

__all__ = ["GPU", "InvariantViolationError", "SimulationHangError", "simulate"]


class GPU:
    """A configured GPU ready to execute kernel traces."""

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        prefetcher_factory: Optional[Callable[[], Prefetcher]] = None,
        throttle_factory: Optional[Callable[[], ThrottlePolicy]] = None,
        storage_mode: StorageMode = StorageMode.COUPLED,
        obs: Optional[BusLike] = None,
        faults: Union[FaultPlan, FaultInjector, None] = None,
    ) -> None:
        from repro.core.throttle import NullThrottle

        self.config = config or GPUConfig.scaled()
        # Belt-and-braces: dataclass construction already validates, but
        # configs can arrive rebuilt from checkpoints / job specs.
        self.config.validate()
        self._prefetcher_factory = prefetcher_factory or (
            lambda: create_prefetcher("none")
        )
        self._throttle_factory = throttle_factory or NullThrottle
        self.storage_mode = storage_mode

        # Telemetry (repro.obs): an explicit bus wins; otherwise the config
        # flag builds an empty bus callers can attach sinks to.  The default
        # is the shared NULL_BUS, whose `enabled` check is the only overhead
        # the timing model pays.
        if obs is None:
            obs = EventBus() if self.config.telemetry else NULL_BUS
        self.obs = obs

        # Chaos engineering (repro.gpusim.faults): a FaultPlan (or a ready
        # FaultInjector) arms seeded injection sites across the hierarchy.
        # The default is None, in which case every hook compiles down to a
        # single attribute test.
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults, obs=obs)
        self.faults: Optional[FaultInjector] = faults

        self.dram = DRAM(
            timings=self.config.dram,
            channels=self.config.dram_channels,
            banks_per_channel=self.config.dram_banks_per_channel,
            row_bytes=self.config.dram_row_bytes,
            clock_ratio=self.config.dram_clock_ratio,
            line_bytes=self.config.l2.line_bytes,
            obs=obs,
            faults=faults,
        )
        self.l2 = L2Cache(
            self.config.l2, self.config.l2_banks, self.dram, obs=obs,
            faults=faults,
        )
        self.sms = [
            SM(
                sm_id=i,
                config=self.config,
                l2=self.l2,
                prefetcher=self._prefetcher_factory(),
                throttle=self._throttle_factory(),
                storage_mode=storage_mode,
                obs=obs,
                faults=faults,
            )
            for i in range(self.config.num_sms)
        ]
        for sm in self.sms:
            # Prefetchers are built by an opaque factory; hand them the bus
            # after the fact so mechanism-internal events (chain walks)
            # reach the same sinks.
            sm.prefetcher.obs = obs
            sm.prefetcher.obs_sm_id = sm.sm_id

    def run(self, kernel: KernelTrace) -> SimStats:
        """Execute one kernel to completion; returns merged statistics."""
        return self.run_many([kernel])

    def _run_loop(
        self,
        active: List[SM],
        watchdog: Optional[Watchdog],
        sanitizer: Optional[SimSanitizer],
    ) -> None:
        """Event-driven skip-ahead run loop (docs/PERFORMANCE.md).

        SMs sit in a min-heap keyed by (horizon, sm index); popping the head
        advances the global clock directly to the earliest next-interesting
        cycle — no per-cycle polling of idle SMs.  ``SM.step_event`` returns
        the SM's new horizon (or None once retired) and performs at most one
        quantum per pop, so shared L2/DRAM/NoC resources see requests in
        exactly the chronological order of the step-everything loop in
        :class:`repro.reference.ReferenceGPU`: the heap's (horizon, index)
        order reproduces ``min(active, key=now)`` with its first-in-list
        tie-break, and a stalled SM's deferred gap accounting touches only
        SM-local state.
        """
        heap: List[Tuple[int, int, SM]] = [
            (sm.now, idx, sm) for idx, sm in enumerate(active)
        ]
        heapq.heapify(heap)
        iterations = 0
        heappop, heappush = heapq.heappop, heapq.heappush
        while heap:
            _, idx, sm = heappop(heap)
            # Burst: keep stepping the popped SM while its next horizon
            # still precedes the heap head in (horizon, index) order — each
            # re-push/re-pop the per-quantum loop would do is a guaranteed
            # no-op reshuffle, so skipping it preserves the exact global
            # step order (and therefore cycle-identical statistics).
            head = heap[0] if heap else None
            while True:
                horizon = sm.step_event()
                iterations += 1
                # The progress signature (and the sanitizer's full audit)
                # sums state over all SMs, so sample sparsely, not per step.
                if iterations & 0xFF == 0:
                    if watchdog is not None:
                        watchdog.check(sm.now)
                    if sanitizer is not None:
                        sanitizer.maybe_check(sm.now)
                if horizon is None:
                    sm.finalize()
                    break
                if head is not None and not (
                    horizon < head[0] or (horizon == head[0] and idx < head[1])
                ):
                    heappush(heap, (horizon, idx, sm))
                    break

    def run_many(self, kernels: Sequence[KernelTrace]) -> SimStats:
        """Execute several kernels *concurrently* (multi-application mode,
        the paper's §1 extension).  Each kernel gets an app id; CTAs of all
        kernels are interleaved across the SMs, and a per-app Snake
        (``per_app=True``) keeps each application's chains separate."""
        if not kernels or not any(k.ctas for k in kernels):
            raise ValueError("need at least one kernel with CTAs to run")
        next_cta_id = 0
        next_warp_id = 0
        dispatch = []
        for app_id, kernel in enumerate(kernels):
            for cta in kernel.ctas:
                cta.cta_id = next_cta_id
                next_cta_id += 1
                for warp in cta.warps:
                    warp.warp_id = next_warp_id
                    next_warp_id += 1
                dispatch.append((cta, app_id))
        for idx, (cta, app_id) in enumerate(dispatch):
            self.sms[idx % len(self.sms)].enqueue_cta(cta, app_id=app_id)

        # Interleave SMs in global-time order so shared L2/DRAM resources
        # see requests chronologically: simulating SMs to completion one
        # after another would make a later SM's early requests queue
        # behind the entire lifetime of traffic from earlier SMs.
        for sm in self.sms:
            sm.start()
        active = list(self.sms)
        # Conservation auditing (repro.gpusim.sanitizer) is opt-in: when
        # ``config.sanitize`` is off no sanitizer object exists, so the run
        # loop's only added cost is one None test per 256 iterations.
        sanitizer = (
            SimSanitizer(self, self.config.sanitize_interval)
            if self.config.sanitize
            else None
        )
        watchdog = (
            Watchdog(
                self, self.config.watchdog_cycles, self.config.max_cycles,
                sanitizer=sanitizer,
            )
            if (self.config.watchdog_cycles or self.config.max_cycles)
            else None
        )
        self._run_loop(active, watchdog, sanitizer)
        if sanitizer is not None:
            # Final audit so every completed run ends on a clean check even
            # when it retires between cadence points.
            sanitizer.check(max(sm.now for sm in self.sms))

        total = SimStats()
        for sm in self.sms:
            total.merge(sm.stats)
        total.l2_hits = self.l2.hits
        total.l2_misses = self.l2.misses
        total.dram_reads = self.dram.reads
        total.dram_row_hits = self.dram.row_hits
        total.dram_row_misses = self.dram.row_misses
        return total


def simulate(
    kernel: KernelTrace,
    prefetcher: str = "none",
    config: Optional[GPUConfig] = None,
    obs: Optional[BusLike] = None,
    faults: Union[FaultPlan, FaultInjector, None] = None,
    **variant_kwargs: Any,
) -> SimStats:
    """One-call convenience API: build a GPU with the named prefetcher
    configuration and run ``kernel``.

    ``prefetcher`` accepts any registered mechanism name (see
    :func:`repro.prefetch.base.available`), including the Snake variants.
    ``obs`` optionally passes a :class:`repro.obs.EventBus` whose sinks
    receive the run's telemetry (see ``docs/OBSERVABILITY.md``).
    ``faults`` optionally passes a :class:`repro.gpusim.faults.FaultPlan`
    (or ready injector) to run the kernel under chaos conditions; enable
    ``config.sanitize`` to audit conservation invariants as it runs.
    """
    from repro.prefetch import build_setup

    setup = build_setup(prefetcher, config or GPUConfig.scaled(), **variant_kwargs)
    gpu = GPU(
        config=setup.config,
        prefetcher_factory=setup.prefetcher_factory,
        throttle_factory=setup.throttle_factory,
        storage_mode=setup.storage_mode,
        obs=obs,
        faults=faults,
    )
    return gpu.run(kernel)
