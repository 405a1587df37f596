"""The Snake prefetcher (§3).

Snake watches every demand load, maintains the Head/Tail tables, and issues
prefetches along three axes:

* **Inter-thread chains** — the paper's contribution: trained (PC1→PC2,
  stride) links are walked transitively (Fig 13) so one access prefetches
  the warp's next several loads.  Chains get priority (§3.4).
* **Intra-warp strides** — the delta between a warp's successive executions
  of the same PC, promoted after three warps agree.
* **Inter-warp strides** — the fixed delta between warps executing the same
  PC, installed once three distinct warps exhibit it.

Variant flags reproduce the paper's comparison points: ``s-Snake`` keeps
only the chains; decoupling/throttling are composed at the GPU level (see
:func:`repro.prefetch.build_setup`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.obs.events import ChainWalkEvent
from repro.prefetch.base import AccessEvent, Prefetcher, PrefetchRequest
from repro.prefetch.stride import ConsensusTracker

from .head_table import HeadTable, SNAPSHOT_VERSION
from .tail_table import TailTable


class SnakePrefetcher(Prefetcher):
    """Variable-length chain-based prefetcher."""

    name = "snake"

    def __init__(
        self,
        head_entries: int = 32,
        tail_entries: int = 10,
        train_threshold: int = 3,
        max_chain_depth: int = 8,
        inter_warp_degree: int = 2,
        intra_degree: int = 2,
        use_chains: bool = True,
        use_intra: bool = True,
        use_inter_warp: bool = True,
        eviction: str = "lru+pop",
        per_app: bool = False,
    ) -> None:
        if max_chain_depth < 1:
            raise ValueError("max_chain_depth must be >= 1")
        self.head = HeadTable(capacity=head_entries)
        self.tail = TailTable(
            capacity=tail_entries,
            train_threshold=train_threshold,
            eviction=eviction,
        )
        # Multi-application extension (§1): chains are detected within each
        # application, so each app gets its own Head/Tail tables.
        self.per_app = per_app
        self._head_entries = head_entries
        self._tail_entries = tail_entries
        self._eviction = eviction
        self._app_tables: Dict[int, Tuple[HeadTable, TailTable]] = {
            0: (self.head, self.tail)
        }
        self._depth_limit = max_chain_depth
        self.max_chain_depth = max_chain_depth
        self.inter_warp_degree = inter_warp_degree
        self.intra_degree = intra_degree
        self.use_chains = use_chains
        self.use_intra = use_intra
        self.use_inter_warp = use_inter_warp
        self.train_threshold = train_threshold

        # Intra-warp detection: last address per (app, warp, pc).
        self._intra_last: Dict[Tuple[int, int, int], int] = {}
        # Inter-warp detection: the last TWO (warp, addr) observations per
        # (app, pc) — the Head table's doubled columns (§3.1), which keep
        # stride detection alive under a greedy scheduler that runs one warp
        # far ahead of the others — plus consensus votes.
        self._iw_last: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self._iw_consensus: Dict[Tuple[int, int], ConsensusTracker] = {}

    # ------------------------------------------------------------------
    # Multi-app table selection and throttle hooks

    def set_depth_limit(self, limit: int) -> None:
        """Throttle hook (§3.2): bound the chain-walk depth for subsequent
        requests."""
        self._depth_limit = max(1, limit)

    def _select_app(self, app_id: int) -> None:
        """Point ``self.head``/``self.tail`` at the issuing application's
        tables (no-op unless ``per_app`` is enabled)."""
        if not self.per_app:
            return
        if app_id not in self._app_tables:
            self._app_tables[app_id] = (
                HeadTable(capacity=self._head_entries),
                TailTable(
                    capacity=self._tail_entries,
                    train_threshold=self.train_threshold,
                    eviction=self._eviction,
                ),
            )
        self.head, self.tail = self._app_tables[app_id]

    # ------------------------------------------------------------------
    # Detection (§3.1)

    def _detect(self, event: AccessEvent) -> None:
        transition = self.head.update(event.warp_id, event.pc, event.base_addr)
        self._train_tail(
            event,
            transition.pc1 if transition is not None else 0,
            transition.stride if transition is not None else None,
        )

    def _train_tail(
        self, event: AccessEvent, pc1: int, stride: Optional[int]
    ) -> None:
        """Tail-side training for one access, given the Head-table
        transition (``stride is None`` when the warp had no previous load)."""
        if stride is not None and stride != 0:
            self.tail.record(event.warp_id, pc1, event.pc, stride)

        if self.use_intra:
            key = (event.app_id, event.warp_id, event.pc)
            last = self._intra_last.get(key)
            if last is not None and event.base_addr != last:
                self.tail.record_intra(
                    event.warp_id, event.pc, event.base_addr - last
                )
            self._intra_last[key] = event.base_addr

        if self.use_inter_warp:
            slots = self._iw_last.setdefault((event.app_id, event.pc), [])
            for warp_id, addr in slots:
                if warp_id == event.warp_id:
                    continue
                gap = event.warp_id - warp_id
                delta = event.base_addr - addr
                if gap != 0 and delta % gap == 0:
                    tracker = self._iw_consensus.setdefault(
                        (event.app_id, event.pc),
                        ConsensusTracker(threshold=self.train_threshold),
                    )
                    trained = tracker.vote(event.warp_id, delta // gap)
                    if trained is not None:
                        self.tail.record_inter_warp(event.pc, trained)
            slots.append((event.warp_id, event.base_addr))
            if len(slots) > 2:
                del slots[0]

    # ------------------------------------------------------------------
    # Prefetch generation (§3.2)

    def observe(self, event: AccessEvent) -> List[PrefetchRequest]:
        return [
            PrefetchRequest(base_addr=addr, depth=depth)
            for addr, depth in self.observe_raw(event)
        ]

    def observe_raw(self, event: AccessEvent) -> List[Tuple[int, int]]:
        """Digest one access and return its predictions as raw
        ``(base_addr, depth)`` pairs — :meth:`observe` without the
        :class:`PrefetchRequest` boxing, which the SM's issue path skips."""
        self._select_app(event.app_id)
        if event.divergent:
            # §3.4: warps whose threads do not share a uniform stride are
            # excluded from prefetching — training on them would only churn
            # the tables.  The Head entry is still advanced so the next
            # uniform load does not record a bogus transition.
            self.head.update(event.warp_id, event.pc, event.base_addr)
            return []
        self._detect(event)
        return self._generate_raw(event)

    def _candidates(self, event: AccessEvent) -> List[Tuple[int, int]]:
        """Every ``(base_addr, depth)`` prediction for one access, chains
        first: the Tail table's chain walk (Fig 13), then the PC's trained
        intra-warp stride, then its inter-warp stride."""
        pairs: List[Tuple[int, int]]
        if self.use_chains:
            pairs = self.tail.walk_raw(
                event.pc, event.base_addr, event.warp_id,
                min(self.max_chain_depth, self._depth_limit),
            )
        else:
            pairs = []
        base = event.base_addr
        if self.use_intra:
            # One CAM search, bucket scanned in place (find()'s accounting,
            # without its list copy).
            tail = self.tail
            tail.lookups += 1
            for entry in tail._pc_index.get(event.pc, ()):
                if entry.t2.prefetchable and entry.intra_stride:
                    stride = entry.intra_stride
                    pairs.extend(
                        (base + k * stride, k)
                        for k in range(1, self.intra_degree + 1)
                        if base + k * stride >= 0
                    )
                    break
        if self.use_inter_warp:
            tracker = self._iw_consensus.get((event.app_id, event.pc))
            if tracker is not None and tracker.trained_stride is not None:
                stride = tracker.trained_stride
                pairs.extend(
                    (base + k * stride, k)
                    for k in range(1, self.inter_warp_degree + 1)
                    if base + k * stride >= 0
                )
        return pairs

    def _generate_raw(self, event: AccessEvent) -> List[Tuple[int, int]]:
        """Deduplicated ``(base_addr, depth)`` pairs for one trained-on
        access: inter-thread first (higher accuracy, §3.4), each address
        once."""
        seen = set()
        unique: List[Tuple[int, int]] = []
        for pair in self._candidates(event):
            addr = pair[0]
            if addr not in seen:
                seen.add(addr)
                unique.append(pair)
        if unique and self.obs.enabled:
            self.obs.emit(
                ChainWalkEvent(
                    cycle=event.now,
                    sm_id=self.obs_sm_id,
                    warp_id=event.warp_id,
                    pc=event.pc,
                    depth=max(d for _, d in unique),
                    requests=len(unique),
                )
            )
        return unique

    def observe_batch(
        self, events: Sequence[AccessEvent]
    ) -> List[List[PrefetchRequest]]:
        """Train and predict for a whole batch of accesses in one sweep.

        The Head-table updates for the entire batch run as one vectorized
        ``update_batch`` call; Tail training and chain walks then proceed
        per event in input order, so the learner state, ``lookups``
        accounting, and every prediction list are identical to N sequential
        :meth:`observe` calls (the serve digest-parity property).  Falls
        back to the sequential path for per-app table routing or inputs the
        int64 fast path cannot represent.
        """
        if self.per_app or not events:
            return [self.observe(event) for event in events]
        n = len(events)
        try:
            warps = np.fromiter(
                (e.warp_id for e in events), dtype=np.int64, count=n
            )
            pcs = np.fromiter((e.pc for e in events), dtype=np.int64, count=n)
            addrs = np.fromiter(
                (e.base_addr for e in events), dtype=np.int64, count=n
            )
        except OverflowError:
            return [self.observe(event) for event in events]
        pc1s, strides, valid = self.head.update_batch(warps, pcs, addrs)
        valid_l = valid.tolist()
        pc1s_l = pc1s.tolist()
        strides_l = strides.tolist()
        results: List[List[PrefetchRequest]] = []
        for i, event in enumerate(events):
            if event.divergent:
                # Head entry already advanced by the batch update.
                results.append([])
                continue
            self._train_tail(
                event,
                int(pc1s_l[i]),
                int(strides_l[i]) if valid_l[i] else None,
            )
            results.append([
                PrefetchRequest(base_addr=addr, depth=depth)
                for addr, depth in self._generate_raw(event)
            ])
        return results

    def tables(self) -> List[Tuple[int, HeadTable, TailTable]]:
        """Every (app_id, head, tail) table pair this prefetcher owns —
        one pair unless ``per_app`` multiplied them.  The sanitizer audits
        structural invariants through this, and the fault injector uses it
        to corrupt entries in whichever table set is live."""
        return [
            (app_id, head, tail)
            for app_id, (head, tail) in sorted(self._app_tables.items())
        ]

    @property
    def trained(self) -> bool:
        if self.per_app:
            return any(t.trained for _, t in self._app_tables.values())
        return self.tail.trained

    def table_accesses(self) -> int:
        """Hardware table transactions for energy accounting: one Head
        update plus one parallel Tail CAM search per observed load (§5.5's
        two-cycle pipeline), regardless of how many software ``find`` calls
        the model uses internally."""
        if self.per_app:
            return sum(2 * h.accesses for h, _ in self._app_tables.values())
        return 2 * self.head.accesses

    # ------------------------------------------------------------------
    # Durability (snapshot/restore — repro.serve journal, warm-start sweeps)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe, deterministic image of the full learner state.

        Everything the online model accumulates is captured: per-app
        Head/Tail tables, intra-warp last addresses, the inter-warp
        observation slots and consensus votes, and the throttle's current
        depth limit.  Two learners that absorbed the same event sequence
        produce byte-identical serialized snapshots, which is the property
        the :mod:`repro.serve` write-ahead journal's recovery certificate
        rests on.
        """
        return {
            "v": SNAPSHOT_VERSION,
            "config": {
                "head_entries": self._head_entries,
                "tail_entries": self._tail_entries,
                "train_threshold": self.train_threshold,
                "max_chain_depth": self.max_chain_depth,
                "inter_warp_degree": self.inter_warp_degree,
                "intra_degree": self.intra_degree,
                "use_chains": self.use_chains,
                "use_intra": self.use_intra,
                "use_inter_warp": self.use_inter_warp,
                "eviction": self._eviction,
                "per_app": self.per_app,
            },
            "depth_limit": self._depth_limit,
            "app_tables": [
                [app_id, head.snapshot(), tail.snapshot()]
                for app_id, (head, tail) in sorted(self._app_tables.items())
            ],
            "intra_last": [
                [app_id, warp_id, pc, addr]
                for (app_id, warp_id, pc), addr in self._intra_last.items()
            ],
            "iw_last": [
                [app_id, pc, [[w, a] for w, a in slots]]
                for (app_id, pc), slots in self._iw_last.items()
            ],
            "iw_consensus": [
                [app_id, pc, tracker.snapshot()]
                for (app_id, pc), tracker in self._iw_consensus.items()
            ],
        }

    @classmethod
    def restore(cls, data: Mapping[str, Any]) -> "SnakePrefetcher":
        """Rebuild a learner from :meth:`snapshot` output.

        The restored instance is behaviourally identical to the one that
        produced the snapshot: feeding both the same subsequent events
        yields the same predictions and the same next snapshot.
        """
        if data.get("v") != SNAPSHOT_VERSION:
            raise ValueError(
                "unsupported SnakePrefetcher snapshot version %r"
                % (data.get("v"),)
            )
        config = dict(data["config"])
        prefetcher = cls(
            head_entries=int(config["head_entries"]),
            tail_entries=int(config["tail_entries"]),
            train_threshold=int(config["train_threshold"]),
            max_chain_depth=int(config["max_chain_depth"]),
            inter_warp_degree=int(config["inter_warp_degree"]),
            intra_degree=int(config["intra_degree"]),
            use_chains=bool(config["use_chains"]),
            use_intra=bool(config["use_intra"]),
            use_inter_warp=bool(config["use_inter_warp"]),
            eviction=str(config["eviction"]),
            per_app=bool(config["per_app"]),
        )
        prefetcher._depth_limit = int(data["depth_limit"])
        prefetcher._app_tables = {
            int(app_id): (HeadTable.restore(head), TailTable.restore(tail))
            for app_id, head, tail in data["app_tables"]
        }
        if 0 not in prefetcher._app_tables:
            raise ValueError("SnakePrefetcher snapshot lacks app 0 tables")
        prefetcher.head, prefetcher.tail = prefetcher._app_tables[0]
        prefetcher._intra_last = {
            (int(a), int(w), int(p)): int(addr)
            for a, w, p, addr in data["intra_last"]
        }
        prefetcher._iw_last = {
            (int(a), int(p)): [(int(w), int(addr)) for w, addr in slots]
            for a, p, slots in data["iw_last"]
        }
        prefetcher._iw_consensus = {
            (int(a), int(p)): ConsensusTracker.restore(tracker)
            for a, p, tracker in data["iw_consensus"]
        }
        return prefetcher
