"""The reference model: Snake and its GPU as paper §3 reads, one step at a
time.

The production simulator batches Snake's hot path — the Tail table walks a
whole chain per call (``TailTable.walk_raw``), the L1 takes a trigger's
requests in one call with a memoized throttle vote
(``UnifiedL1Cache.prefetch_trigger``), and the event core skips idle
cycles (``GPU._run_loop``).  This module is the plain reading of the same
mechanism, kept as the differential oracle those optimisations are pinned
to (``tests/core/test_batched_parity.py``,
``tests/gpusim/test_skip_ahead.py`` and ``snake-repro bench``):

* :class:`ReferenceSnake` — the Head table per warp and the Tail table per
  PC are the production tables (same training, same 3-warp confirmation);
  prediction is one CAM search (``TailTable.find``) per chain hop.
* :class:`ReferenceSM` — scans every resident warp each cycle, and asks the
  throttle once per prefetch request before issuing its lines.
* :class:`ReferenceGPU` — always steps the SM with the smallest clock.

Every statistic, and every telemetry event, must equal the production
model's.  Nothing here is reachable from a ``GPUConfig``: the reference
plugs in by subclass (:class:`ReferenceGPU`) or through :func:`simulate`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple, Union

from repro.core.snake import SnakePrefetcher
from repro.core.tail_table import TailEntry
from repro.gpusim.coalescer import coalesce_lines
from repro.gpusim.config import GPUConfig
from repro.gpusim.faults import FaultInjector, FaultPlan
from repro.gpusim.gpu import GPU
from repro.gpusim.sanitizer import SimSanitizer
from repro.gpusim.sm import SM
from repro.gpusim.stats import SimStats
from repro.gpusim.trace import KernelTrace, WarpInstr
from repro.gpusim.watchdog import Watchdog
from repro.obs.events import BusLike
from repro.prefetch.base import AccessEvent


class ReferenceSnake(SnakePrefetcher):
    """Snake whose predictions come from per-hop CAM searches (Fig 13)."""

    def _candidates(self, event: AccessEvent) -> List[Tuple[int, int]]:
        pairs: List[Tuple[int, int]] = []
        if self.use_chains:
            pairs.extend(self._chain_requests(event))
        if self.use_intra:
            pairs.extend(self._intra_requests(event))
        if self.use_inter_warp:
            pairs.extend(self._inter_warp_requests(event))
        return pairs

    def _chain_requests(self, event: AccessEvent) -> List[Tuple[int, int]]:
        """Every trained link out of the triggering PC issues a depth-1
        request (§3.4); the walk then follows the best link per hop."""
        pairs = []
        for entry in self.tail.find(event.pc):
            target = event.base_addr + entry.inter_thread_stride
            if entry.t1.prefetchable and target >= 0:
                pairs.append((target, 1))
        pc, addr = event.pc, event.base_addr
        visited = set()
        for depth in range(1, min(self.max_chain_depth, self._depth_limit) + 1):
            entry = self._prefetchable_link(pc, event.warp_id)
            if entry is None or (entry.pc1, entry.pc2) in visited:
                break
            visited.add((entry.pc1, entry.pc2))
            addr = addr + entry.inter_thread_stride
            if addr < 0:
                break
            pairs.append((addr, depth))
            pc = entry.pc2
        return pairs

    def _prefetchable_link(self, pc: int, warp_id: int) -> Optional[TailEntry]:
        """The best trained link out of ``pc``: once promoted, a link serves
        *all* future warps (§3.2); prefer one this warp confirmed, then the
        most-confirmed one."""
        best = None
        best_key = None
        for entry in self.tail.find(pc):
            if not entry.t1.prefetchable:
                continue
            key = (entry.has_warp(warp_id), entry.popcount)
            if best is None or key > best_key:
                best, best_key = entry, key
        return best

    def _intra_requests(self, event: AccessEvent) -> List[Tuple[int, int]]:
        for entry in self.tail.find(event.pc):
            if entry.t2.prefetchable and entry.intra_stride:
                targets = (
                    (event.base_addr + k * entry.intra_stride, k)
                    for k in range(1, self.intra_degree + 1)
                )
                return [(addr, k) for addr, k in targets if addr >= 0]
        return []

    def _inter_warp_requests(self, event: AccessEvent) -> List[Tuple[int, int]]:
        tracker = self._iw_consensus.get((event.app_id, event.pc))
        if tracker is None or tracker.trained_stride is None:
            return []
        targets = (
            (event.base_addr + k * tracker.trained_stride, k)
            for k in range(1, self.inter_warp_degree + 1)
        )
        return [(addr, k) for addr, k in targets if addr >= 0]


class ReferenceSM(SM):
    """An SM that advances one cycle (or one stall gap) per :meth:`step`
    and votes the throttle per prefetch request."""

    def step(self) -> bool:
        """Advance by one quantum; returns False once all work retired."""
        runnable = [w for w in self._warps if not w.finished and not w.at_barrier]
        if not runnable:
            if self._cta_queue:
                self._activate_ctas()
                return True
            return False
        if not any(w.ready_at <= self.now for w in runnable):
            next_time = min(w.ready_at for w in runnable)
            gap = next_time - self.now
            self.stats.stall_cycles_total += gap
            if all(w.waiting_on_memory for w in runnable):
                self.stats.stall_cycles_memory += gap
            self.now = next_time
            return True
        for _ in range(self._issue_width):
            ready = [
                w for w in self._warps
                if not w.finished and not w.at_barrier and w.ready_at <= self.now
            ]
            if not ready:
                break
            warp = self.scheduler.pick(ready)
            self._issue(warp)
            self.scheduler.note_issued(warp)
        self.now += 1
        return True

    def _issue_prefetch(self, event: AccessEvent, instr: WarpInstr) -> None:
        if self.prefetcher.uses_magic:
            super()._issue_prefetch(event, instr)
            return
        requests = self.prefetcher.observe(event)
        if not requests:
            return
        self.l1.prefetcher_trained = self.prefetcher.trained
        issue_at = self.now + self.config.prefetcher_latency
        for request in requests:
            # The trigger metric is total NoC utilization (the Fig 4
            # measure): both directions against both directions' peak.
            utilization = 0.5 * (
                self.icnt_req.measured_utilization(self.now)
                + self.icnt_resp.measured_utilization(self.now)
            )
            if not self.throttle.allow(self.now, self.l1, utilization):
                self.l1.throttled(self.now, self.throttle, utilization, 1)
                continue
            lines = coalesce_lines(
                request.base_addr, instr.thread_stride, instr.size_bytes,
                self.config.warp_size, self.l1.line_bytes,
            )
            self.l1.prefetch_batch(lines, issue_at, instr.pc, request.depth)


class ReferenceGPU(GPU):
    """A GPU built from :class:`ReferenceSM` and :class:`ReferenceSnake`
    (also inside a composite prefetcher), run by the step-everything
    loop."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        for sm in self.sms:
            sm.__class__ = ReferenceSM
            for part in getattr(sm.prefetcher, "parts", [sm.prefetcher]):
                if type(part) is SnakePrefetcher:
                    part.__class__ = ReferenceSnake

    def _run_loop(
        self,
        active: List[SM],
        watchdog: Optional[Watchdog],
        sanitizer: Optional[SimSanitizer],
    ) -> None:
        iterations = 0
        while active:
            sm = min(active, key=lambda s: s.now)
            assert isinstance(sm, ReferenceSM)
            if not sm.step():
                sm.finalize()
                active.remove(sm)
            iterations += 1
            # Sampled as sparsely as the event core samples them.
            if iterations & 0xFF == 0:
                if watchdog is not None:
                    watchdog.check(sm.now)
                if sanitizer is not None:
                    sanitizer.maybe_check(sm.now)


def simulate(
    kernel: KernelTrace,
    prefetcher: str = "none",
    config: Optional[GPUConfig] = None,
    obs: Optional[BusLike] = None,
    faults: Union[FaultPlan, FaultInjector, None] = None,
    **variant_kwargs: Any,
) -> SimStats:
    """:func:`repro.gpusim.simulate` on the reference model."""
    from repro.prefetch import build_setup

    setup = build_setup(prefetcher, config or GPUConfig.scaled(), **variant_kwargs)
    gpu = ReferenceGPU(
        config=setup.config,
        prefetcher_factory=setup.prefetcher_factory,
        throttle_factory=setup.throttle_factory,
        storage_mode=setup.storage_mode,
        obs=obs,
        faults=faults,
    )
    return gpu.run(kernel)


__all__ = ["ReferenceGPU", "ReferenceSM", "ReferenceSnake", "simulate"]
