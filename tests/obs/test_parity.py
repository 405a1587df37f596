"""Telemetry must be an observer: attaching the bus cannot change timing.

SimStats is a (nested) dataclass, so ``==`` compares every counter field,
including the embedded PrefetchStats — the strongest "bit-identical"
check available without serialising.  The event stream itself is pinned
too: a digest over every event, in emission order.
"""

import hashlib

import pytest

from repro.gpusim.config import GPUConfig
from repro.gpusim.gpu import GPU
from repro.obs import EventBus, PCMetricsSink, TimeSeriesSampler
from repro.obs.events import Sink
from repro.prefetch import build_setup
from repro.workloads import build_kernel

#: Throttle trigger thresholds low enough that ThrottleEvents interleave
#: with the chain walks.
EAGER_THROTTLE = dict(
    throttle_bw_high=0.05, throttle_bw_low=0.02, throttle_interval=10
)


def _run(app, mechanism, obs, config=None):
    config = config or GPUConfig.scaled()
    setup = build_setup(mechanism, config)
    gpu = GPU(
        config=setup.config,
        prefetcher_factory=setup.prefetcher_factory,
        throttle_factory=setup.throttle_factory,
        storage_mode=setup.storage_mode,
        obs=obs,
    )
    return gpu.run(build_kernel(app, scale=0.3, seed=11))


@pytest.mark.parametrize("mechanism", ["none", "snake"])
def test_stats_identical_with_telemetry_on_vs_off(mechanism):
    baseline = _run("lps", mechanism, obs=None)
    bus = EventBus([TimeSeriesSampler(bucket_cycles=500), PCMetricsSink()])
    traced = _run("lps", mechanism, obs=bus)
    assert traced == baseline  # dataclass equality: every counter field
    assert bus.events_emitted > 0  # the bus really was observing


def test_config_flag_enables_bus_without_changing_stats():
    baseline = _run("histo", "snake", obs=None)
    config = GPUConfig.scaled().with_(telemetry=True)
    setup = build_setup("snake", config)
    gpu = GPU(
        config=setup.config,
        prefetcher_factory=setup.prefetcher_factory,
        throttle_factory=setup.throttle_factory,
        storage_mode=setup.storage_mode,
    )
    assert gpu.obs.enabled is False  # no sinks attached yet -> fast path
    sink = PCMetricsSink()
    gpu.obs.attach(sink)
    stats = gpu.run(build_kernel("histo", scale=0.3, seed=11))
    assert stats == baseline
    assert sink.per_pc  # and the sink saw the run


class _StreamDigest(Sink):
    """sha256 over ``repr`` of every event, one per line, in order."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.count = 0

    def accept(self, event):
        self.digest.update(repr(event).encode() + b"\n")
        self.count += 1


@pytest.mark.parametrize("app,overrides,count,digest", [
    ("lps", {}, 20682, "9966805958ec62f4"),
    ("histo", {}, 10034, "18d028902bb74197"),
    ("lps", EAGER_THROTTLE, 12281, "b0ade587bc417aee"),
])
def test_event_stream_is_pinned(app, overrides, count, digest):
    """Every event, its fields and their order are pinned (values recorded
    when telemetry-on runs still took a scalar issue lane, one throttle
    vote and one L1 call per request): the trigger issue path must emit
    the same stream."""
    sink = _StreamDigest()
    _run(app, "snake", EventBus([sink]),
         config=GPUConfig.scaled().with_(**overrides))
    assert (sink.count, sink.digest.hexdigest()[:16]) == (count, digest)
