"""Snake's Tail table (§3.1).

Each entry stores a chain link: head PC (PC1), the consecutive PC (PC2), the
inter-thread stride between their addresses, the warp-id vector of warps that
confirmed the link, the intra-warp stride, per-stride train states, and the
inter-warp stride.  New entries are created under the three conditions of
Fig 12 (no PC1 match / no PC2 match / stride mismatch); the inter-thread
stride is *promoted* once ``train_threshold`` distinct warps confirm it.

Eviction follows §3.1's improved policy: among the least-recently-used
quarter of the table, evict the entry with the fewest set bits in its warp-id
vector.  The popcount-only variant (Fig 22) is selectable.

The store is a CAM indexed by PC1: entries live both in a store-ordered list
(snapshot order, eviction scans) and in a per-PC1 bucket index.
:meth:`walk_raw` scans those buckets to fan out and transitively walk a
whole variable-length chain per trigger in one call, mirroring the
raw-arguments convention of ``repro.gpusim.coalescer.coalesce_lines``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .head_table import SNAPSHOT_VERSION


class TrainState(enum.Enum):
    """Train-status encodings used in the paper's figures."""

    NOT_TRAINED = "00"
    PROMOTED = "10"
    TRAINED = "11"

    @property
    def prefetchable(self) -> bool:
        return self is not TrainState.NOT_TRAINED


@dataclass(slots=True)
class TailEntry:
    """One chain link."""

    pc1: int
    pc2: int
    inter_thread_stride: int
    t1: TrainState = TrainState.NOT_TRAINED
    warp_vector: int = 0
    intra_stride: Optional[int] = None
    t2: TrainState = TrainState.NOT_TRAINED
    inter_warp_stride: Optional[int] = None
    last_use: int = 0
    _intra_votes: dict = field(default_factory=dict, repr=False)

    def set_warp(self, warp_id: int) -> None:
        self.warp_vector |= 1 << (warp_id % 64)

    def clear_warp(self, warp_id: int) -> None:
        self.warp_vector &= ~(1 << (warp_id % 64))

    def has_warp(self, warp_id: int) -> bool:
        return bool(self.warp_vector >> (warp_id % 64) & 1)

    @property
    def popcount(self) -> int:
        return bin(self.warp_vector).count("1")


class TailTable:
    """Fixed-capacity chain store with LRU+popcount eviction."""

    def __init__(
        self,
        capacity: int = 10,
        train_threshold: int = 3,
        eviction: str = "lru+pop",
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if eviction not in ("lru+pop", "pop"):
            raise ValueError("eviction must be 'lru+pop' or 'pop'")
        self.capacity = capacity
        self.train_threshold = train_threshold
        self.eviction = eviction
        self._entries: List[TailEntry] = []
        self._tick = 0
        self.lookups = 0
        self.evictions = 0
        # CAM index (see module docstring).
        self._pc_index: Dict[int, List[TailEntry]] = {}

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[TailEntry]:
        return list(self._entries)

    def _touch(self, entry: TailEntry) -> None:
        self._tick += 1
        entry.last_use = self._tick

    # ------------------------------------------------------------------
    # CAM index maintenance

    def _install(self, entry: TailEntry) -> None:
        self._entries.append(entry)
        self._pc_index.setdefault(entry.pc1, []).append(entry)

    def _remove(self, entry: TailEntry) -> None:
        for i, candidate in enumerate(self._entries):
            if candidate is entry:
                del self._entries[i]
                break
        bucket = self._pc_index.get(entry.pc1, [])
        for i, candidate in enumerate(bucket):
            if candidate is entry:
                del bucket[i]
                break
        if not bucket:
            self._pc_index.pop(entry.pc1, None)

    # ------------------------------------------------------------------

    def find(
        self, pc1: int, pc2: Optional[int] = None, stride: Optional[int] = None
    ) -> List[TailEntry]:
        """All entries matching the given fields (CAM search)."""
        self.lookups += 1
        bucket = self._pc_index.get(pc1)
        if not bucket:
            return []
        if pc2 is None and stride is None:
            return list(bucket)
        result = []
        for entry in bucket:
            if pc2 is not None and entry.pc2 != pc2:
                continue
            if stride is not None and entry.inter_thread_stride != stride:
                continue
            result.append(entry)
        return result

    def chain_next(self, pc: int, warp_id: int) -> Optional[TailEntry]:
        """The trained link whose PC1 is ``pc`` and whose warp vector includes
        ``warp_id`` — used when walking a chain deeper (Fig 13)."""
        self.lookups += 1
        for entry in self._pc_index.get(pc, ()):
            if entry.t1.prefetchable and entry.has_warp(warp_id):
                return entry
        return None

    # ------------------------------------------------------------------
    # Batched chain walk (Fig 13 in one call)

    def walk_raw(
        self, pc: int, base_addr: int, warp_id: int, depth_limit: int
    ) -> List[Tuple[int, int]]:
        """Fan out and transitively walk the chain rooted at ``pc`` in one
        call; returns ``(target_addr, depth)`` pairs.

        Different warp groups may have confirmed *different* strides for
        the same PC pair (§3.4 — e.g. a tiled kernel's in-tile step and its
        tile-boundary jump), so every trained link out of ``pc`` issues a
        depth-1 request; the walk then continues transitively along the
        best link per hop (Fig 13).  Once promoted, a link serves *all*
        future warps (§3.2); among competing links, one this warp confirmed
        wins, then the most-confirmed one.  A revisited link or a negative
        address ends the walk.

        Raw-arguments API (mirrors ``coalesce_lines``): no event object, no
        per-hop CAM calls, but ``lookups`` counts one CAM search for the
        fan-out and one per hop attempt, as a ``find()`` per step would.
        """
        idx_get = self._pc_index.get
        not_trained = TrainState.NOT_TRAINED
        out: List[Tuple[int, int]] = []
        for entry in idx_get(pc, ()):
            if entry.t1 is not not_trained:
                target = base_addr + entry.inter_thread_stride
                if target >= 0:
                    out.append((target, 1))

        warp_bit = 1 << (warp_id % 64)
        cur_pc, addr = pc, base_addr
        visited = set()
        lookups = 1
        for depth in range(1, depth_limit + 1):
            lookups += 1
            # The (warp-bit, popcount) preference flattened to one int:
            # popcount <= 64 < 256, so the bit dominates.
            best: Optional[TailEntry] = None
            best_key = -1
            for entry in idx_get(cur_pc, ()):
                if entry.t1 is not not_trained:
                    wv = entry.warp_vector
                    key = (256 if wv & warp_bit else 0) + bin(wv).count("1")
                    if key > best_key:
                        best, best_key = entry, key
            if best is None or (best.pc1, best.pc2) in visited:
                break
            visited.add((best.pc1, best.pc2))
            addr = addr + best.inter_thread_stride
            if addr < 0:
                break
            out.append((addr, depth))
            cur_pc = best.pc2
        self.lookups += lookups
        return out

    # ------------------------------------------------------------------

    def _evict_one(self) -> None:
        """Apply the configured eviction policy to make room."""
        self.evictions += 1
        if self.eviction == "pop":
            victim = min(self._entries, key=lambda e: (e.popcount, e.last_use))
        else:
            # The LRU candidate group must hold at least two entries or the
            # popcount tie-break could never save a well-confirmed chain.
            group_size = max(2, math.ceil(len(self._entries) / 4))
            lru_group = sorted(self._entries, key=lambda e: e.last_use)[:group_size]
            victim = min(lru_group, key=lambda e: (e.popcount, e.last_use))
        self._remove(victim)

    def record(self, warp_id: int, pc1: int, pc2: int, stride: int) -> TailEntry:
        """Digest a Head-table transition (the detection step, Fig 12).

        Finds or creates the (pc1, pc2, stride) entry, sets the warp's bit,
        clears the warp from now-contradicted sibling entries, and promotes
        the inter-thread stride when enough warps agree.
        """
        match: Optional[TailEntry] = None
        # One CAM search; the bucket is scanned in place (mutations below
        # never add or remove bucket members), sparing find()'s list copy.
        self.lookups += 1
        warp_bit = 1 << (warp_id % 64)
        for entry in self._pc_index.get(pc1, ()):
            if entry.pc2 == pc2 and entry.inter_thread_stride == stride:
                match = entry
            elif entry.warp_vector & warp_bit:
                # The warp's behaviour changed: remove it from the stale link
                # and send that link back to detection (§3.2).
                entry.warp_vector &= ~warp_bit
                if entry.warp_vector == 0:
                    entry.t1 = TrainState.NOT_TRAINED

        if match is None:
            match = TailEntry(pc1=pc1, pc2=pc2, inter_thread_stride=stride)
            if len(self._entries) >= self.capacity:
                self._evict_one()
            self._install(match)

        match.warp_vector |= warp_bit
        self._touch(match)
        popcount = bin(match.warp_vector).count("1")
        if (
            match.t1 is TrainState.NOT_TRAINED
            and popcount >= self.train_threshold
        ):
            match.t1 = TrainState.PROMOTED
        elif match.t1 is TrainState.PROMOTED and popcount > self.train_threshold:
            match.t1 = TrainState.TRAINED
        return match

    def record_intra(self, warp_id: int, pc: int, stride: int) -> None:
        """Register an intra-warp stride observation for ``pc`` (a warp
        re-executed the PC; §3.1's two re-execution cases collapse to the
        delta between its successive addresses).  Promoted once
        ``train_threshold`` warps agree on the stride.

        A looping PC whose chain links keep churning (e.g. its successor
        load is data-dependent) still deserves an intra-warp stride, so a
        self-link entry is created when no entry for the PC exists."""
        # Two CAM searches, as in the reference shape (existence probe +
        # update scan); scanned in place to spare find()'s list copies.
        self.lookups += 1
        if not self._pc_index.get(pc):
            entry = TailEntry(pc1=pc, pc2=pc, inter_thread_stride=stride)
            if len(self._entries) >= self.capacity:
                self._evict_one()
            self._install(entry)
        self.lookups += 1
        for entry in self._pc_index.get(pc, ()):
            votes = entry._intra_votes.setdefault(stride, set())
            votes.add(warp_id)
            if entry.intra_stride == stride:
                if len(votes) >= self.train_threshold:
                    entry.t2 = TrainState.TRAINED
            elif len(votes) >= len(
                entry._intra_votes.get(entry.intra_stride, set())
            ):
                entry.intra_stride = stride
                if len(votes) >= self.train_threshold:
                    entry.t2 = TrainState.TRAINED
                elif entry.t2 is not TrainState.TRAINED:
                    entry.t2 = TrainState.NOT_TRAINED
            self._touch(entry)

    def record_inter_warp(self, pc: int, stride: int) -> None:
        """Install a detected inter-warp stride (already consensus-checked by
        the caller — no train field needed, per §3.1)."""
        for entry in self.find(pc):
            entry.inter_warp_stride = stride
            self._touch(entry)

    @property
    def trained(self) -> bool:
        return any(e.t1.prefetchable for e in self._entries)

    # ------------------------------------------------------------------
    # Durability (snapshot/restore — repro.serve journal, warm-start sweeps)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe, deterministic image of the full table state.

        Entries keep their store order and each entry's intra-stride vote
        map is emitted as ``[stride, sorted(voters)]`` pairs in vote
        insertion order, so identical update sequences serialize to
        byte-identical snapshots.  The PC index is derived state and never
        serialized.
        """
        return {
            "v": SNAPSHOT_VERSION,
            "capacity": self.capacity,
            "train_threshold": self.train_threshold,
            "eviction": self.eviction,
            "tick": self._tick,
            "lookups": self.lookups,
            "evictions": self.evictions,
            "entries": [
                {
                    "pc1": e.pc1,
                    "pc2": e.pc2,
                    "inter_thread_stride": e.inter_thread_stride,
                    "t1": e.t1.value,
                    "warp_vector": e.warp_vector,
                    "intra_stride": e.intra_stride,
                    "t2": e.t2.value,
                    "inter_warp_stride": e.inter_warp_stride,
                    "last_use": e.last_use,
                    "intra_votes": [
                        [stride, sorted(voters)]
                        for stride, voters in e._intra_votes.items()
                    ],
                }
                for e in self._entries
            ],
        }

    @classmethod
    def restore(cls, data: Mapping[str, Any]) -> "TailTable":
        """Rebuild a table from :meth:`snapshot` output (exact state:
        entry order, train states, vote sets, LRU ticks and counters; the
        PC index is rebuilt entry by entry so the restored table walks —
        and re-snapshots — byte-identically)."""
        if data.get("v") != SNAPSHOT_VERSION:
            raise ValueError(
                "unsupported TailTable snapshot version %r" % (data.get("v"),)
            )
        table = cls(
            capacity=int(data["capacity"]),
            train_threshold=int(data["train_threshold"]),
            eviction=str(data["eviction"]),
        )
        table._tick = int(data["tick"])
        table.lookups = int(data["lookups"])
        table.evictions = int(data["evictions"])
        entries = data["entries"]
        if len(entries) > table.capacity:
            raise ValueError(
                "TailTable snapshot holds %d entries > capacity %d"
                % (len(entries), table.capacity)
            )
        for raw in entries:
            entry = TailEntry(
                pc1=int(raw["pc1"]),
                pc2=int(raw["pc2"]),
                inter_thread_stride=int(raw["inter_thread_stride"]),
                t1=TrainState(raw["t1"]),
                warp_vector=int(raw["warp_vector"]),
                intra_stride=(
                    None if raw["intra_stride"] is None
                    else int(raw["intra_stride"])
                ),
                t2=TrainState(raw["t2"]),
                inter_warp_stride=(
                    None if raw["inter_warp_stride"] is None
                    else int(raw["inter_warp_stride"])
                ),
                last_use=int(raw["last_use"]),
            )
            for stride, voters in raw["intra_votes"]:
                entry._intra_votes[int(stride)] = {int(v) for v in voters}
            table._install(entry)
        return table

    def structural_violations(self, label: str = "tail") -> "List[str]":
        """Hardware-structure invariants (sanitizer hook).

        The table is a fixed CAM: entry count is bounded by capacity, every
        warp-confirmation vector fits its 64-bit field, train states are
        valid encodings, and a transitive chain walk from any PC terminates
        within the table size (the walker's visited-pair set is what makes
        loops — which are legal chains — safe; a walk that can take more
        distinct hops than the table holds entries means the store itself
        is corrupt)."""
        violations: List[str] = []
        if len(self._entries) > self.capacity:
            violations.append(
                "%s holds %d entries > capacity %d"
                % (label, len(self._entries), self.capacity)
            )
        for entry in self._entries:
            if not 0 <= entry.warp_vector < (1 << 64):
                violations.append(
                    "%s entry (%#x->%#x) warp vector %d outside its 64-bit field"
                    % (label, entry.pc1, entry.pc2, entry.warp_vector)
                )
            if not isinstance(entry.t1, TrainState) or not isinstance(
                entry.t2, TrainState
            ):
                violations.append(
                    "%s entry (%#x->%#x) carries a non-TrainState encoding"
                    % (label, entry.pc1, entry.pc2)
                )
        # Chain-walk termination: mirror the production walker (first
        # prefetchable link per PC, visited-pair cycle guard) and bound the
        # hop count by the entry count.
        bound = len(self._entries)
        for start in sorted({e.pc1 for e in self._entries}):
            pc = start
            visited = set()
            hops = 0
            while hops <= bound + 1:
                entry = next(
                    (e for e in self._entries
                     if e.pc1 == pc and e.t1.prefetchable),
                    None,
                )
                if entry is None or (entry.pc1, entry.pc2) in visited:
                    break
                visited.add((entry.pc1, entry.pc2))
                pc = entry.pc2
                hops += 1
            if hops > bound:
                violations.append(
                    "%s chain walk from %#x took %d hops in a %d-entry table"
                    % (label, start, hops, bound)
                )
        return violations
