"""Unified L1 data cache controller.

This is the per-SM memory front end: tag store + MSHR + miss queue, the
interconnect/L2 path for misses, and the three storage disciplines the paper
compares:

* ``coupled`` — baseline: prefetched lines share the L1 with demand data
  (Snake-DT and the decoupling-less competitors).
* ``decoupled`` — Snake's scheme (§3.2): prefetch and demand lines live in
  the same unified SRAM but are distinguished by a flag; a prefetch-space hit
  "transfers" the line by flipping the flag; when a set fills up, 25 % of it
  is freed by LRU from the prefetch or demand side depending on whether more
  than 80 % of prefetched lines were transferred; while the prefetcher is
  untrained, demand data may claim at most 50 % of the ways.
* ``isolated`` — Isolated-Snake (§5.7): prefetched lines go to a dedicated
  side buffer and never contend with demand data.

Outcomes follow §2 footnote 1: HIT, MISS, RESERVED (merged into an in-flight
miss) and RESERVATION_FAIL (no MSHR/miss-queue resources — the access will be
replayed).
"""

from __future__ import annotations

import enum
import math
from collections import deque
from typing import (
    TYPE_CHECKING, Deque, List, Optional, Sequence, Set, Tuple, Union,
)

from repro.obs.events import (
    BusLike,
    NULL_BUS,
    PrefetchDropEvent,
    PrefetchFillEvent,
    PrefetchIssueEvent,
    PrefetchUseEvent,
    ThrottleEvent,
)

from .cache import LineState, MSHR, MSHREntry, SetAssocCache
from .config import CacheConfig, GPUConfig
from .faults import FaultInjector
from .interconnect import Interconnect
from .l2 import L2Cache
from .stats import SimStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> gpusim)
    from repro.core.throttle import Throttle

_REQUEST_BYTES = 8  # read-request / write-through packet header


class L1Outcome(enum.Enum):
    HIT = "hit"
    MISS = "miss"
    RESERVED = "reserved"
    RESERVATION_FAIL = "reservation_fail"


class StorageMode(enum.Enum):
    COUPLED = "coupled"
    DECOUPLED = "decoupled"
    ISOLATED = "isolated"


class UnifiedL1Cache:
    """Per-SM L1 data cache with a prefetch-aware storage policy."""

    def __init__(
        self,
        config: GPUConfig,
        icnt_req: Interconnect,
        icnt_resp: Interconnect,
        l2: L2Cache,
        stats: SimStats,
        mode: StorageMode = StorageMode.COUPLED,
        obs: Optional[BusLike] = None,
        sm_id: int = -1,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.config = config
        self.mode = mode
        self._obs = obs if obs is not None else NULL_BUS
        self._sm_id = sm_id
        # Optional chaos hook (repro.gpusim.faults.FaultInjector).  Every
        # use is None-guarded: without a fault plan the cache pays one
        # attribute test per injection site and nothing more.
        self._faults = faults
        self._store = SetAssocCache(config.l1)
        self._mshr = MSHR(config.mshr_entries, config.mshr_merge)
        self._miss_queue: Deque[int] = deque()  # icnt-acceptance times
        self._icnt_req = icnt_req
        self._icnt_resp = icnt_resp
        self._l2 = l2
        self.stats = stats
        # Hot-path scalars hoisted out of the frozen config (attribute-chain
        # reads on every demand access otherwise).
        self._l1_latency = config.l1.latency
        self._replay_interval = config.replay_interval
        self._sector_bytes = config.l1_sector_bytes

        if mode is StorageMode.ISOLATED:
            side = CacheConfig(
                size_bytes=config.l1.size_bytes // 2,
                assoc=max(1, config.l1.assoc // 2),
                line_bytes=config.l1.line_bytes,
                latency=config.l1.latency,
            )
            self._side_buffer: Optional[SetAssocCache] = SetAssocCache(side)
        else:
            self._side_buffer = None

        # The space the throttle triggers watch (side buffer when isolated,
        # the unified store otherwise) and its size — resolved once; both
        # fractions are polled on every prefetch decision.
        self._pf_store = (
            self._side_buffer if self._side_buffer is not None else self._store
        )
        self._pf_capacity = self._pf_store.config.num_lines

        # Ideal-prefetcher magic storage: infinite, zero-latency.
        self._magic_lines: Set[int] = set()

        # Decoupling state.  The transfer counters decay so the 80 % rule
        # tracks *recent* prefetch usefulness rather than all of history.
        self.prefetcher_trained = False
        self.throttled_until = -1
        self._prefetch_inserted = 0
        self._prefetch_transferred = 0

    # ------------------------------------------------------------------
    # Plumbing

    @property
    def line_bytes(self) -> int:
        return self.config.l1.line_bytes

    def line_of(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    def _commit_fills(self, now: int) -> None:
        # Hot-path early exit: on most calls nothing has filled and the
        # miss queue head is still in the future, so answer without the
        # pop_filled round trip (the heap head is an exact lower bound).
        heap = self._mshr._fill_heap
        queue = self._miss_queue
        if (not heap or heap[0][0] > now) and (not queue or queue[0] > now):
            return
        for entry in self._mshr.pop_filled(now):
            if entry.dropped and not entry.demand_joined:
                # Chaos icnt.drop_fill: the best-effort fill packet was lost.
                # The MSHR entry still retires exactly once (conservation),
                # but no line lands — a lost prefetch opportunity, nothing
                # more.  A demand-joined entry is never dropped: the merge
                # promoted the packet to the demand channel.
                continue
            resident = self._store.lookup(entry.line_addr)
            if resident is not None and self._sector_bytes:
                # sector fill into an already-resident line
                if entry.sectors == -1 or resident.sectors_valid == -1:
                    resident.sectors_valid = -1
                else:
                    resident.sectors_valid |= entry.sectors
            if entry.is_prefetch and self._obs.enabled:
                self._obs.emit(
                    PrefetchFillEvent(
                        cycle=entry.fill_time,
                        sm_id=self._sm_id,
                        line_addr=entry.line_addr,
                        demand_joined=entry.demand_joined,
                    )
                )
            if entry.is_prefetch and entry.demand_joined:
                # The prediction was right but late: a demand merged while
                # the line was in flight.  It lands as demand data and counts
                # as a successful transfer for the 80 % rule.
                self._prefetch_inserted += 1
                self._prefetch_transferred += 1
                self._install(
                    entry.line_addr, entry.fill_time, False, sectors=entry.sectors
                )
            else:
                self._install(
                    entry.line_addr,
                    entry.fill_time,
                    entry.is_prefetch,
                    sectors=entry.sectors,
                )
        while self._miss_queue and self._miss_queue[0] <= now:
            self._miss_queue.popleft()

    def _miss_queue_full(self, now: int) -> bool:
        while self._miss_queue and self._miss_queue[0] <= now:
            self._miss_queue.popleft()
        return len(self._miss_queue) >= self.config.miss_queue_depth

    def _send_to_l2(
        self,
        line_addr: int,
        now: int,
        is_write: bool,
        is_prefetch: bool = False,
        nbytes: Optional[int] = None,
    ) -> int:
        """Push a request out and return the fill time of the response.

        Demand traffic rides the priority virtual channel; prefetch traffic
        is best-effort and yields to it (§3.3's premise that prefetching
        must not slow demand responses down).
        """
        priority = not is_prefetch
        request_arrival = self._icnt_req.send(
            now, _REQUEST_BYTES, priority=priority
        )
        # The miss-queue entry drains when the NoC accepts the request.
        self._miss_queue.append(self._icnt_req.next_free)
        self.stats.icnt_bytes += _REQUEST_BYTES
        l2_ready = self._l2.access(
            line_addr, request_arrival, is_write=is_write, priority=priority
        )
        fill_bytes = nbytes if nbytes is not None else self.line_bytes
        fill_time = self._icnt_resp.send(l2_ready, fill_bytes, priority=priority)
        self.stats.icnt_bytes += fill_bytes
        if is_prefetch and self._faults is not None:
            # Chaos icnt.delay_fill: the best-effort fill dawdles in the NoC.
            fill_time += self._faults.delay("icnt.delay_fill", now, self._sm_id)
        return fill_time

    # ------------------------------------------------------------------
    # Storage policy

    def _transfer_ratio(self) -> float:
        """Recent fraction of prefetched lines claimed by demand.  Starts
        optimistic (1.0) so the decoupled policy protects prefetched data
        until there is actual evidence of misbehaviour — otherwise the 80 %
        rule can never bootstrap (no protection -> no transfers -> no
        protection)."""
        if self._prefetch_inserted < 16:
            return 1.0
        return self._prefetch_transferred / self._prefetch_inserted

    def _free_quarter(self, set_idx: int, now: int) -> None:
        """Free 25 % of a full set by LRU — §3.2's response to the cache
        running completely out of space.  Evicts demand-side lines if >80 %
        of prefetched lines were transferred (prefetching is behaving),
        otherwise old prefetched lines.  Routine fills use the single-victim
        rule in :meth:`_decoupled_victim` instead."""
        evict_demand_side = self._transfer_ratio() > 0.80
        quota = max(1, math.ceil(self.config.l1.assoc * 0.25))
        lines = self._store.lines_in_set(set_idx)  # LRU order
        preferred = [
            l for l in lines if l.is_prefetch != evict_demand_side
        ]
        others = [l for l in lines if l.is_prefetch == evict_demand_side]
        for line in (preferred + others)[:quota]:
            self._evict_line(line)

    def _evict_line(self, line: LineState) -> None:
        self._store.evict(line.addr)
        if line.is_prefetch and not line.used:
            self.stats.prefetch.unused_evicted += 1

    def _install(
        self, line_addr: int, now: int, is_prefetch: bool, sectors: int = -1
    ) -> None:
        """Insert a filled line per the active storage mode."""
        if is_prefetch and self._side_buffer is not None:
            self._side_buffer.insert(line_addr, now, is_prefetch=True)
            self._prefetch_inserted += 1
            return

        store = self._store
        set_idx = store.set_index(line_addr)
        victim: Optional[LineState] = None

        if self.mode is StorageMode.DECOUPLED:
            if store.set_is_full(set_idx):
                victim = self._decoupled_victim(set_idx, now, is_prefetch)
            elif not is_prefetch:
                # Training/throttle confinement applies even before the set
                # fills: demand data may claim at most half the ways, the
                # rest being reserved for prefetched data (§3.2).  The set
                # is not full, so the tag store will not evict on insert —
                # recycle the demand-side LRU line explicitly.
                confined = (
                    not self.prefetcher_trained
                ) or now < self.throttled_until
                if confined:
                    demand_side = [
                        l
                        for l in store.lines_in_set(set_idx)
                        if not l.is_prefetch
                    ]
                    if len(demand_side) >= self.config.l1.assoc // 2:
                        self._evict_line(demand_side[0])

        evicted = store.insert(line_addr, now, is_prefetch=is_prefetch, victim=victim)
        if self._sector_bytes:
            line = store.lookup(line_addr)
            if line is not None and line.sectors_valid != -1:
                line.sectors_valid |= sectors if sectors != -1 else -1
            elif line is not None:
                line.sectors_valid = sectors
        self._decay_transfer_counters()
        if is_prefetch:
            self._prefetch_inserted += 1
        if evicted is not None and evicted.is_prefetch and not evicted.used:
            self.stats.prefetch.unused_evicted += 1
            if not is_prefetch:
                # a demand fill displaced a never-used prefetched line
                self.stats.prefetch.early_evictions += 1

    def _decoupled_victim(
        self, set_idx: int, now: int, inserting_prefetch: bool
    ) -> LineState:
        """Single-victim choice for a fill into a full set (§3.2).

        The 80 %-transfer rule decides which side yields: when prefetching
        is behaving (most prefetched lines get claimed by demand), the
        demand side gives up its LRU line; otherwise stale prefetched lines
        are recycled.  While the prefetcher is untrained or the throttle has
        confined the demand side, demand fills recycle their own LRU once
        they hold half the ways."""
        lines = self._store.lines_in_set(set_idx)  # LRU order
        prefetch_side = [l for l in lines if l.is_prefetch]
        demand_side = [l for l in lines if not l.is_prefetch]

        if not inserting_prefetch:
            confined = (not self.prefetcher_trained) or now < self.throttled_until
            half = self.config.l1.assoc // 2
            if confined and len(demand_side) >= half:
                return demand_side[0]

        # Protect prefetched data while it is behaving (80 % rule) or still
        # within its consumption window: the transfer ratio lags fills by a
        # full memory round trip, so a grace age keeps the policy from
        # recycling lines that simply have not had time to be used yet.
        grace = self.config.decouple_grace
        fresh = bool(prefetch_side) and now - prefetch_side[0].inserted_at < grace
        if self._transfer_ratio() > 0.80 or fresh:
            victim_pool = demand_side or prefetch_side
        else:
            victim_pool = prefetch_side or demand_side
        return victim_pool[0]

    def _decay_transfer_counters(self) -> None:
        """Halve the transfer-ratio counters periodically so the 80 % rule
        follows the prefetcher's recent behaviour."""
        if self._prefetch_inserted >= 256:
            self._prefetch_inserted //= 2
            self._prefetch_transferred //= 2

    # ------------------------------------------------------------------
    # Demand path

    def demand_load(
        self, line_addr: int, now: int, sector_mask: int = -1
    ) -> Tuple[L1Outcome, int]:
        """A warp's demand load of one line.  Returns (outcome, ready time).
        On RESERVATION_FAIL the ready time is a retry time.

        With a sectored L1 (``l1_sector_bytes`` > 0) ``sector_mask`` names
        the sectors the warp touches; a resident line missing some of them
        takes the miss path for just those sectors."""
        self._commit_fills(now)

        if line_addr in self._magic_lines:
            self.stats.l1_hits += 1
            self.stats.prefetch.demand_covered += 1
            self.stats.prefetch.demand_timely += 1
            return L1Outcome.HIT, now + self._l1_latency

        state = self._store.touch(line_addr, now)
        if state is not None and not self._sectors_present(state, sector_mask):
            # sector miss: the line is resident but these sectors are not
            state = None
        if state is not None:
            self.stats.l1_hits += 1
            if state.is_prefetch or state.predicted:
                self.stats.prefetch.demand_covered += 1
                self.stats.prefetch.demand_timely += 1
                state.predicted = False  # credit a prediction once
            if state.is_prefetch:
                state.is_prefetch = False  # flag-flip transfer, no data move
                state.transferred = True
                self._prefetch_transferred += 1
                if self._obs.enabled:
                    self._obs.emit(
                        PrefetchUseEvent(
                            cycle=now, sm_id=self._sm_id, line_addr=line_addr
                        )
                    )
            return L1Outcome.HIT, now + self._l1_latency

        if self._side_buffer is not None:
            side = self._side_buffer.touch(line_addr, now)
            if side is not None:
                self.stats.l1_hits += 1
                self.stats.prefetch.demand_covered += 1
                self.stats.prefetch.demand_timely += 1
                if self._obs.enabled:
                    self._obs.emit(
                        PrefetchUseEvent(
                            cycle=now, sm_id=self._sm_id, line_addr=line_addr
                        )
                    )
                return L1Outcome.HIT, now + self._l1_latency

        inflight = self._mshr.lookup(line_addr)
        if inflight is not None:
            merged = self._mshr.try_merge(line_addr, is_demand=True)
            if merged is None:
                self.stats.l1_reservation_fails += 1
                return (
                    L1Outcome.RESERVATION_FAIL,
                    now + self._replay_interval,
                )
            self.stats.l1_reserved += 1
            if merged.is_prefetch or merged.predicted:
                # Correctly predicted but late: covered, not timely.
                self.stats.prefetch.demand_covered += 1
                merged.predicted = False
            if merged.is_prefetch:
                # The prefetch rides the best-effort virtual channel; once a
                # demand merges, hardware promotes the packet.  Model the
                # promotion analytically: the fill completes no later than a
                # fresh unloaded demand round trip from now (its bandwidth
                # was already reserved on the best-effort channel).
                promoted = now + self._unloaded_round_trip()
                self._mshr.reschedule(merged, promoted)
            return L1Outcome.RESERVED, merged.fill_time + 1

        if (
            self._mshr.full
            or self._miss_queue_full(now)
            or (
                self._faults is not None
                and self._faults.fires(
                    "l1.mshr_refuse", now, self._sm_id, "demand %#x" % line_addr
                )
            )
        ):
            self.stats.l1_reservation_fails += 1
            return L1Outcome.RESERVATION_FAIL, now + self._replay_interval

        self.stats.l1_misses += 1
        fill_time = self._send_to_l2(
            line_addr, now, is_write=False, nbytes=self._fetch_bytes(sector_mask)
        )
        entry = self._mshr.allocate(line_addr, fill_time, is_prefetch=False)
        entry.sectors = sector_mask if self._sector_bytes else -1
        return L1Outcome.MISS, fill_time + 1

    def _sectors_present(self, state: LineState, sector_mask: int) -> bool:
        """Does the resident line hold every requested sector?"""
        if not self._sector_bytes or sector_mask == -1:
            return True
        if state.sectors_valid == -1:
            return True
        return (state.sectors_valid & sector_mask) == sector_mask

    def _fetch_bytes(self, sector_mask: int) -> Optional[int]:
        """Transfer size for a demand fill (None = whole line)."""
        sector = self._sector_bytes
        if not sector or sector_mask == -1:
            return None
        return max(sector, bin(sector_mask & ((1 << 64) - 1)).count("1") * sector)

    def _unloaded_round_trip(self) -> int:
        """Queue-free demand latency: request hop + L2/DRAM service + the
        response hop and line serialization."""
        line_cycles = math.ceil(self.line_bytes / self._icnt_resp.bytes_per_cycle)
        return (
            self._icnt_req.latency
            + self.config.l2.latency
            + self._icnt_resp.latency
            + line_cycles
        )

    def demand_store(self, line_addr: int, now: int) -> int:
        """Write-through, no-allocate store; returns completion time for the
        warp (stores do not block on the round trip)."""
        self._commit_fills(now)
        state = self._store.touch(line_addr, now)
        if state is not None and state.is_prefetch:
            state.is_prefetch = False
            state.transferred = True
            self._prefetch_transferred += 1
        self._icnt_req.send(now, _REQUEST_BYTES)
        self.stats.icnt_bytes += _REQUEST_BYTES
        return now + 1

    # ------------------------------------------------------------------
    # Prefetch path

    def prefetch(self, line_addr: int, now: int) -> bool:
        """Issue a hardware prefetch for one line.  Returns True when a
        request actually left for L2."""
        return self.prefetch_batch((line_addr,), now) > 0

    def prefetch_batch(
        self, line_addrs: Sequence[int], now: int, pc: int = -1, depth: int = 1
    ) -> int:
        """Issue one prefetch request's coalesced lines at ``now``; returns
        how many left for L2.

        Per line, in order: commit due fills; drop the line as a duplicate
        when it is already resident or in flight (remembering the
        prediction, so the demand access counts toward coverage, §4); drop
        it when the MSHR or miss queue lacks the headroom reserved for
        demand misses; otherwise send it to L2.  The chaos sites
        ``l1.evict_storm``, ``l1.mshr_refuse`` and ``icnt.drop_fill`` draw
        at the same points of every line.  ``pc`` (the triggering load) and
        ``depth`` (its chain distance) label the issue events.
        """
        faults = self._faults
        sm_id = self._sm_id
        store_get = self._store._flat.get
        side = self._side_buffer
        mshr = self._mshr
        mshr_get = mshr._inflight.get
        inflight_file = mshr._inflight
        fill_heap = mshr._fill_heap
        miss_queue = self._miss_queue
        stats_pf = self.stats.prefetch
        obs = self._obs
        observing = obs.enabled
        # Prefetches may not take the last quarter of the MSHR nor the
        # last miss-queue slot.
        mshr_cap = max(1, (self.config.mshr_entries * 3) // 4)
        queue_cap = max(1, self.config.miss_queue_depth - 1)
        sent = 0
        for line_addr in line_addrs:
            # _commit_fills' own early exit, inlined.
            if (fill_heap and fill_heap[0][0] <= now) or (
                miss_queue and miss_queue[0] <= now
            ):
                self._commit_fills(now)
            if faults is not None and faults.should("l1.evict_storm"):
                faults.record(
                    "l1.evict_storm", now, sm_id,
                    "evicted %d prefetched lines" % self._evict_prefetch_storm(),
                )
            resident: Union[LineState, MSHREntry, None] = store_get(line_addr)
            if resident is None and side is not None:
                resident = side.lookup(line_addr)
            if resident is None:
                resident = mshr_get(line_addr)
            if resident is not None:
                resident.predicted = True
                stats_pf.dropped_duplicate += 1
                reason = "duplicate"
            else:
                while miss_queue and miss_queue[0] <= now:
                    miss_queue.popleft()
                if len(inflight_file) >= mshr_cap or len(miss_queue) >= queue_cap:
                    reason = "headroom"
                elif faults is not None and faults.fires(
                    "l1.mshr_refuse", now, sm_id, "prefetch %#x" % line_addr
                ):
                    # Dropped before issue: it never reaches L2, so the
                    # cross-layer request conservation stays exact.
                    reason = "fault"
                else:
                    fill_time = self._send_to_l2(
                        line_addr, now, is_write=False, is_prefetch=True
                    )
                    entry = mshr.allocate(line_addr, fill_time, is_prefetch=True)
                    if faults is not None and faults.fires(
                        "icnt.drop_fill", now, sm_id, "prefetch %#x" % line_addr
                    ):
                        entry.dropped = True
                    stats_pf.issued += 1
                    sent += 1
                    if observing:
                        obs.emit(
                            PrefetchIssueEvent(
                                cycle=now, sm_id=sm_id, pc=pc,
                                line_addr=line_addr, depth=depth,
                            )
                        )
                    continue
                stats_pf.dropped_throttled += 1
            if observing:
                obs.emit(
                    PrefetchDropEvent(
                        cycle=now, sm_id=sm_id, line_addr=line_addr,
                        reason=reason,
                    )
                )
        return sent

    def prefetch_trigger(
        self,
        vectors: List[List[int]],
        depths: List[int],
        now: int,
        issue_at: int,
        throttle: "Throttle",
        pc: int,
    ) -> None:
        """Issue a whole trigger's candidate requests — one coalesced line
        vector per prefetch request, with its chain depth — at
        ``issue_at``.

        The throttle votes per request at ``now``, but the vote is
        memoized: ``Throttle.allow`` is a deterministic, repeat-idempotent
        function of (utilization, L1 occupancy, prefetch backlog) at a
        fixed cycle, and within one trigger those inputs only move when a
        request actually sends bytes or a fill commits — so re-votes with
        unchanged inputs are provable no-ops, and once the vote is False
        nothing can flip it back this trigger: every remaining request
        drops, each with its own ``ThrottleEvent``, exactly as one
        ``allow`` call per request would conclude (the per-request vote
        of :mod:`repro.reference` pins this).
        """
        pf_store = self._pf_store
        req_util = self._icnt_req.measured_utilization
        resp_util = self._icnt_resp.measured_utilization
        allow = throttle.allow
        prefetch_batch = self.prefetch_batch
        utilization = 0.0
        need_vote = True
        sent_since_vote = True
        last_occ = -1
        last_unused = -1
        for index, vector in enumerate(vectors):
            if sent_since_vote:
                utilization = 0.5 * (req_util(now) + resp_util(now))
            elif (
                pf_store._occupancy != last_occ
                or pf_store._prefetch_unused != last_unused
            ):
                need_vote = True  # fills committed: space inputs moved
            if need_vote:
                if not allow(now, self, utilization):
                    self.throttled(
                        now, throttle, utilization, len(vectors) - index
                    )
                    return
                last_occ = pf_store._occupancy
                last_unused = pf_store._prefetch_unused
                need_vote = False
                sent_since_vote = False
            if prefetch_batch(vector, issue_at, pc, depths[index]):
                need_vote = True
                sent_since_vote = True

    def throttled(
        self, now: int, throttle: "Throttle", utilization: float, count: int
    ) -> None:
        """Account ``count`` prefetch requests the throttle refused."""
        self.stats.prefetch.dropped_throttled += count
        if self._obs.enabled:
            reason = (
                "bandwidth" if getattr(throttle, "bw_halted", False) else "space"
            )
            for _ in range(count):
                self._obs.emit(
                    ThrottleEvent(
                        cycle=now, sm_id=self._sm_id, reason=reason,
                        utilization=utilization,
                    )
                )

    def _evict_prefetch_storm(self) -> int:
        """Chaos l1.evict_storm: flush every still-prefetch-flagged line
        from one random set (plus the matching side-buffer set in isolated
        mode).  Returns the number of lines evicted."""
        assert self._faults is not None
        evicted = 0
        set_idx = self._faults.rand_index(self._store.num_sets)
        for line in self._store.lines_in_set(set_idx):
            if line.is_prefetch:
                self._evict_line(line)
                evicted += 1
        if self._side_buffer is not None:
            side_idx = self._faults.rand_index(self._side_buffer.num_sets)
            for line in self._side_buffer.lines_in_set(side_idx):
                if line.is_prefetch:
                    self._side_buffer.evict(line.addr)
                    if not line.used:
                        self.stats.prefetch.unused_evicted += 1
                    evicted += 1
        return evicted

    def magic_prefetch(self, line_addr: int) -> None:
        """Ideal-prefetcher fill: infinite storage, zero latency (§1)."""
        self._magic_lines.add(line_addr)

    # ------------------------------------------------------------------
    # Introspection (throttle triggers, tests)

    def free_space_fraction(self, now: int) -> float:
        """Free fraction of the space prefetched data competes for (the
        side buffer in isolated mode, the unified store otherwise)."""
        self._commit_fills(now)
        capacity = self._pf_capacity
        return 1.0 - self._pf_store.occupancy / capacity if capacity else 0.0

    def unused_prefetch_fraction(self, now: int) -> float:
        """Fraction of prefetch-space capacity holding not-yet-used
        prefetched lines — the backlog the space throttle watches."""
        self._commit_fills(now)
        capacity = self._pf_capacity
        if not capacity:
            return 0.0
        return self._pf_store.prefetch_unused / capacity

    @property
    def mshr_occupancy(self) -> int:
        return self._mshr.occupancy

    @property
    def store(self) -> SetAssocCache:
        return self._store

    @property
    def side_buffer(self) -> Optional[SetAssocCache]:
        return self._side_buffer
