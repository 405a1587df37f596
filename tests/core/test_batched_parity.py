"""Property tests pinning the batched hot path to the reference model.

The batched lanes (``HeadTable.update_batch``, ``TailTable.walk_raw``,
``observe_raw`` / ``observe_batch``, and the SM/L1 ``prefetch_trigger``
issue path) are pure performance work: :mod:`repro.reference` keeps the
scalar reading of each (``ReferenceSnake``'s per-hop CAM walk, the
per-request throttle vote and issue), and these tests are the pin —
hypothesis-generated access streams, seeds and chain shapes (including
forced Tail evictions and the fault injector's in-field corruption
modes) must produce identical predictions, table state, statistics and
telemetry on both.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.head_table import HeadTable
from repro.core.snake import SnakePrefetcher
from repro.core.tail_table import TrainState
from repro import reference
from repro.gpusim import GPUConfig, simulate
from repro.gpusim.trace import CTA, KernelTrace, Op, WarpInstr, WarpTrace, renumber_warps
from repro.obs import EventBus
from repro.obs.events import Sink
from repro.prefetch.base import AccessEvent


def _stream(seed, length, pcs, warps, chain_shape):
    """A deterministic access-event stream.

    ``chain_shape`` picks the pc ordering: ``loop`` sweeps pcs cyclically
    per warp (stable chains), ``churn`` picks pcs at random (constant
    Tail eviction pressure on a small table), ``mixed`` alternates and
    sprinkles divergent accesses.
    """
    rng = random.Random(seed)
    pc_list = [0x100 + 4 * i for i in range(pcs)]
    strides = {pc: 32 * (1 + i % 5) for i, pc in enumerate(pc_list)}
    cursors = {}
    events = []
    for k in range(length):
        warp = rng.randrange(warps)
        if chain_shape == "loop" or (chain_shape == "mixed" and k % 2 == 0):
            pc = pc_list[(k // warps) % len(pc_list)]
        else:
            pc = pc_list[rng.randrange(len(pc_list))]
        key = (warp, pc)
        addr = cursors.get(key, 0x4000 + warp * 0x1000 + pc * 8)
        cursors[key] = addr + strides[pc]
        events.append(AccessEvent(
            warp_id=warp, cta_id=0, pc=pc, base_addr=addr, line_addr=addr,
            now=k,
            divergent=chain_shape == "mixed" and rng.random() < 0.1,
        ))
    return events


def _make_pair(tail_entries, depth):
    """(production, reference) learners with identical knobs."""
    kwargs = dict(
        head_entries=8, tail_entries=tail_entries, train_threshold=2,
        max_chain_depth=depth,
    )
    return (
        SnakePrefetcher(**kwargs),
        reference.ReferenceSnake(**kwargs),
    )


def _table_state(learner):
    return [
        (app_id, head.snapshot(), tail.snapshot())
        for app_id, head, tail in learner.tables()
    ]


STREAMS = st.tuples(
    st.integers(0, 2**31),                      # seed
    st.integers(32, 300),                        # length
    st.integers(2, 10),                          # distinct pcs
    st.integers(1, 12),                          # warps
    st.sampled_from(["loop", "churn", "mixed"]),
)


class TestLearnerParity:
    @settings(max_examples=40, deadline=None)
    @given(params=STREAMS, tail_entries=st.integers(2, 24),
           depth=st.integers(1, 12))
    def test_observe_matches_scalar_oracle(self, params, tail_entries, depth):
        """Production vs reference walk: identical predictions, lookup
        accounting and table state — small Tail capacities force eviction
        interleavings, large ones fill PC buckets."""
        events = _stream(*params)
        batched, scalar = _make_pair(tail_entries, depth)
        for event in events:
            got = [(r.base_addr, r.depth) for r in batched.observe(event)]
            want = [(r.base_addr, r.depth) for r in scalar.observe(event)]
            assert got == want
        assert batched.tail.lookups == scalar.tail.lookups
        assert _table_state(batched) == _table_state(scalar)

    @settings(max_examples=25, deadline=None)
    @given(params=STREAMS, tail_entries=st.integers(2, 24))
    def test_observe_raw_matches_observe(self, params, tail_entries):
        """The raw (base_addr, depth) lane is the boxed lane, unboxed."""
        events = _stream(*params)
        raw, scalar = _make_pair(tail_entries, 8)
        for event in events:
            pairs = raw.observe_raw(event)
            want = [(r.base_addr, r.depth) for r in scalar.observe(event)]
            assert pairs == want
        assert _table_state(raw) == _table_state(scalar)

    @settings(max_examples=25, deadline=None)
    @given(params=STREAMS, tail_entries=st.integers(2, 24),
           chunks=st.integers(0, 2**31))
    def test_observe_batch_matches_sequential(self, params, tail_entries,
                                              chunks):
        """Randomly chunked observe_batch == one observe per event."""
        events = _stream(*params)
        grouped, sequential = _make_pair(tail_entries, 8)
        rng = random.Random(chunks)
        want = [
            [(r.base_addr, r.depth) for r in sequential.observe(e)]
            for e in events
        ]
        got = []
        i = 0
        while i < len(events):
            k = rng.randrange(1, 24)
            for requests in grouped.observe_batch(events[i:i + k]):
                got.append([(r.base_addr, r.depth) for r in requests])
            i += k
        assert got == want
        assert grouped.tail.lookups == sequential.tail.lookups
        assert _table_state(grouped) == _table_state(sequential)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), capacity=st.integers(1, 12),
           chunks=st.integers(0, 2**31))
    def test_head_update_batch_matches_scalar(self, seed, capacity, chunks):
        """update_batch == N update calls: same transitions, same rows,
        LRU eviction included."""
        rng = random.Random(seed)
        n = rng.randrange(16, 200)
        warps = [rng.randrange(capacity + 4) for _ in range(n)]
        pcs = [0x10 * rng.randrange(6) for _ in range(n)]
        addrs = [rng.randrange(1 << 40) for _ in range(n)]
        one, batch = HeadTable(capacity), HeadTable(capacity)
        want = []
        for w, p, a in zip(warps, pcs, addrs):
            t = one.update(w, p, a)
            want.append(None if t is None else (t.pc1, t.stride))
        got = []
        i = 0
        while i < n:
            k = random.Random(chunks + i).randrange(1, 32)
            pc1s, strides, valid = batch.update_batch(
                warps[i:i + k], pcs[i:i + k], addrs[i:i + k]
            )
            for j in range(len(valid)):
                got.append(
                    (int(pc1s[j]), int(strides[j])) if valid[j] else None
                )
            i += k
        assert got == want
        assert one.snapshot() == batch.snapshot()
        assert one.accesses == batch.accesses

    @settings(max_examples=20, deadline=None)
    @given(params=STREAMS, tail_entries=st.integers(2, 20),
           fault_seed=st.integers(0, 2**31))
    def test_parity_survives_corruption_interleavings(self, params,
                                                      tail_entries,
                                                      fault_seed):
        """The fault injector's in-field Tail corruptions (stale stride,
        scrambled warp vector, spurious promotion), applied identically
        to both learners mid-stream, must not desynchronize the paths —
        the one-call walk reads the same corrupted state the per-hop CAM
        scan does."""
        events = _stream(*params)
        batched, scalar = _make_pair(tail_entries, 8)
        rng = random.Random(fault_seed)
        for event in events:
            if rng.random() < 0.08 and len(batched.tail):
                index = rng.randrange(len(batched.tail))
                mode = rng.randrange(3)
                scrambled = rng.getrandbits(64)
                for learner in (batched, scalar):
                    entry = learner.tail.entries()[index]
                    if mode == 0:
                        entry.inter_thread_stride *= 3
                    elif mode == 1:
                        entry.warp_vector = scrambled
                    else:
                        entry.t1 = TrainState.TRAINED
            got = [(r.base_addr, r.depth) for r in batched.observe(event)]
            want = [(r.base_addr, r.depth) for r in scalar.observe(event)]
            assert got == want
        assert _table_state(batched) == _table_state(scalar)

    @settings(max_examples=15, deadline=None)
    @given(params=STREAMS, tail_entries=st.integers(2, 24))
    def test_snapshot_roundtrip_preserves_batched_state(self, params,
                                                        tail_entries):
        """snapshot -> restore -> snapshot is byte-stable, and a restored
        learner continues the stream exactly like the original (the
        production learner and the reference one)."""
        events = _stream(*params)
        half = len(events) // 2
        for learner in _make_pair(tail_entries, 8):
            for event in events[:half]:
                learner.observe(event)
            image = learner.snapshot()
            clone = SnakePrefetcher.restore(image)
            assert clone.snapshot() == image
            for event in events[half:]:
                got = [(r.base_addr, r.depth) for r in clone.observe(event)]
                want = [(r.base_addr, r.depth)
                        for r in learner.observe(event)]
                assert got == want
            assert clone.snapshot() == learner.snapshot()


def _small_kernel(seed):
    """A compact two-CTA kernel mixing strided and chained loads."""
    rng = random.Random(seed)
    ctas = []
    for c in range(2):
        warps = []
        for w in range(rng.randrange(1, 4)):
            base = (c * 4 + w) * 8192 + (1 << 26)
            instrs = []
            for i in range(rng.randrange(2, 7)):
                instrs.append(WarpInstr(pc=0x10, op=Op.LOAD,
                                        base_addr=base + i * 512,
                                        thread_stride=4))
                instrs.append(WarpInstr(pc=0x20, op=Op.LOAD,
                                        base_addr=base + i * 512 + 4096,
                                        thread_stride=4))
                instrs.append(WarpInstr(pc=0x30, op=Op.ALU))
            warps.append(WarpTrace(warp_id=0, instrs=instrs))
        ctas.append(CTA(cta_id=c, warps=warps))
    renumber_warps(ctas)
    return KernelTrace(name="batched-parity", ctas=ctas)


class _Recorder(Sink):
    def __init__(self):
        self.events = []

    def accept(self, event):
        self.events.append(event)


class TestSimulatorReferenceParity:
    """The end-to-end pin: the production simulator and the reference
    model must agree on every simulated statistic and on the whole
    telemetry stream, event by event."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31),
           mech=st.sampled_from(["snake", "s-snake", "intra", "snake+cta"]))
    def test_production_matches_reference_model(self, seed, mech):
        kernel = _small_kernel(seed)
        runs = []
        for run in (simulate, reference.simulate):
            recorder = _Recorder()
            stats = run(kernel, prefetcher=mech, config=GPUConfig(),
                        obs=EventBus([recorder]))
            runs.append((stats, recorder.events))
        assert runs[0] == runs[1]
