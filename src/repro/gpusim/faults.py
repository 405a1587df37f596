"""Seeded, deterministic fault injection for the GPU timing model.

Snake's value proposition is that prefetching is *safe to be wrong*: a
mispredicted chain, a lost prefetch fill or bandwidth-triggered throttling
(§3.3) may only cost performance, never correctness.  This module makes
that claim testable.  A :class:`FaultPlan` names injection sites and
per-opportunity probabilities; a :class:`FaultInjector` (one
``random.Random`` stream seeded from the plan) decides each opportunity,
so a given (plan, workload, config) triple injects an identical fault
sequence on every run.  Every firing bumps ``injector.counts`` and emits a
:class:`repro.obs.events.FaultEvent` when a bus is attached.

Injection sites (the catalog :func:`catalog` returns, mirrored in
``docs/ROBUSTNESS.md``):

=====================  ====================================================
site                   effect
=====================  ====================================================
``icnt.delay_fill``    a prefetch fill response is delayed in the NoC
``icnt.drop_fill``     a prefetch fill packet is lost: its MSHR entry
                       retires without installing a line (demand-joined
                       fills are never dropped — the controller promotes
                       them, so demand correctness is preserved)
``l1.mshr_refuse``     forced MSHR-allocation refusal: a demand access
                       reservation-fails and replays; a prefetch is dropped
``l1.evict_storm``     every prefetched line in one random L1 set (and the
                       matching side-buffer set in isolated mode) is evicted
``l2.latency_spike``   extra service latency on one L2 access
``dram.latency_spike`` extra cycles on one DRAM access
``snake.tail_corrupt`` one Tail-table entry is corrupted in place: a stale
                       stride, a scrambled (in-field) warp vector, or a
                       spurious promotion
=====================  ====================================================

Every site is performance-only *by construction* — faults perturb timing,
predictions and prefetch storage, never demand data — and the sanitizer
(:mod:`repro.gpusim.sanitizer`) plus the ``snake-repro chaos`` command
prove it: a faulted run must finish with zero invariant violations and
the same demand-visible outcome (committed instructions, finished warps)
as the fault-free run.

All hooks are ``None``-guarded at the call sites, so a GPU built without
a plan pays one attribute test per memory operation and nothing more.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.obs.events import BusLike, FaultEvent, NULL_BUS

#: Every recognised injection site, in pipeline order.
SITES: Tuple[str, ...] = (
    "icnt.delay_fill",
    "icnt.drop_fill",
    "l1.mshr_refuse",
    "l1.evict_storm",
    "l2.latency_spike",
    "dram.latency_spike",
    "snake.tail_corrupt",
)

#: Modest per-opportunity rates for the all-sites "storm" plan.  High
#: enough that short chaos runs fire every site, low enough that the
#: simulation still terminates promptly under replay pressure.
DEFAULT_RATES: Dict[str, float] = {
    "icnt.delay_fill": 0.05,
    "icnt.drop_fill": 0.05,
    "l1.mshr_refuse": 0.02,
    "l1.evict_storm": 0.01,
    "l2.latency_spike": 0.02,
    "dram.latency_spike": 0.02,
    "snake.tail_corrupt": 0.01,
}


def catalog() -> Dict[str, str]:
    """Site -> one-line description (docs and ``chaos`` CLI output)."""
    return {
        "icnt.delay_fill": "delay a prefetch fill response in the NoC",
        "icnt.drop_fill": "drop a prefetch fill (MSHR entry retires, no line)",
        "l1.mshr_refuse": "force an MSHR allocation refusal",
        "l1.evict_storm": "evict all prefetched lines in one random set",
        "l2.latency_spike": "extra service latency on one L2 access",
        "dram.latency_spike": "extra cycles on one DRAM access",
        "snake.tail_corrupt": "corrupt one Tail-table entry in place",
    }


@dataclass(frozen=True)
class FaultPlan:
    """What to inject: (site, probability) pairs plus magnitudes.

    ``rates`` is a sorted tuple of pairs (hashable and JSON-safe, like
    ``JobSpec.mech_kwargs``).  Build via :meth:`make` / :meth:`single` /
    :meth:`storm`, not the raw constructor.
    """

    seed: int = 0
    rates: Tuple[Tuple[str, float], ...] = ()
    delay_cycles: int = 400  # nominal magnitude for delay/spike sites

    def __post_init__(self) -> None:
        for site, rate in self.rates:
            if site not in SITES:
                raise ValueError(
                    "unknown fault site %r (known: %s)" % (site, ", ".join(SITES))
                )
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rate for %s must be in [0, 1]" % site)
        if self.delay_cycles < 1:
            raise ValueError("delay_cycles must be >= 1")

    @classmethod
    def make(
        cls, rates: Mapping[str, float], seed: int = 0, delay_cycles: int = 400
    ) -> "FaultPlan":
        return cls(
            seed=int(seed),
            rates=tuple(sorted(rates.items())),
            delay_cycles=int(delay_cycles),
        )

    @classmethod
    def single(cls, site: str, rate: Optional[float] = None, seed: int = 0,
               delay_cycles: int = 400) -> "FaultPlan":
        """One site only (the ``chaos`` command's per-site plans)."""
        return cls.make(
            {site: DEFAULT_RATES[site] if rate is None else rate},
            seed=seed, delay_cycles=delay_cycles,
        )

    @classmethod
    def storm(cls, seed: int = 0, delay_cycles: int = 400) -> "FaultPlan":
        """All sites at their default rates simultaneously."""
        return cls.make(DEFAULT_RATES, seed=seed, delay_cycles=delay_cycles)

    def label(self) -> str:
        sites = [s for s, r in self.rates if r > 0]
        if set(sites) == set(SITES):
            return "storm"
        return "+".join(sites) if sites else "none"

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "rates": {site: rate for site, rate in self.rates},
            "delay_cycles": self.delay_cycles,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        return cls.make(
            data.get("rates") or {},
            seed=data.get("seed", 0),
            delay_cycles=data.get("delay_cycles", 400),
        )


class FaultInjector:
    """The per-run decision engine: one seeded RNG stream, shared by every
    component, consulted in deterministic simulation order.

    Two-step protocol for sites whose detail is only known after the fact:
    :meth:`should` consumes the RNG and answers "fire?", :meth:`record`
    books the event; :meth:`fires` fuses both for simple sites.
    """

    def __init__(self, plan: FaultPlan, obs: Optional[BusLike] = None) -> None:
        self.plan = plan
        self._rates = {site: rate for site, rate in plan.rates}
        self._rng = random.Random(0x5EED ^ (plan.seed * 2654435761 % (1 << 32)))
        self._obs = obs if obs is not None else NULL_BUS
        self.counts: Dict[str, int] = {}

    @property
    def total_fired(self) -> int:
        return sum(self.counts.values())

    def should(self, site: str) -> bool:
        rate = self._rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        return self._rng.random() < rate

    def record(self, site: str, now: int = 0, sm_id: int = -1,
               detail: str = "") -> None:
        self.counts[site] = self.counts.get(site, 0) + 1
        if self._obs.enabled:
            self._obs.emit(
                FaultEvent(cycle=now, sm_id=sm_id, site=site, detail=detail)
            )

    def fires(self, site: str, now: int = 0, sm_id: int = -1,
              detail: str = "") -> bool:
        if not self.should(site):
            return False
        self.record(site, now, sm_id, detail)
        return True

    def delay(self, site: str, now: int = 0, sm_id: int = -1) -> int:
        """Extra cycles for a delay/spike site (0 = no fault this time).
        The magnitude jitters in [delay/2, 2*delay] so spikes are not a
        fixed offset the timing model could accidentally absorb."""
        if not self.should(site):
            return 0
        nominal = self.plan.delay_cycles
        extra = self._rng.randint(max(1, nominal // 2), nominal * 2)
        self.record(site, now, sm_id, "+%d cycles" % extra)
        return extra

    def rand_index(self, n: int) -> int:
        """Deterministic index draw for target selection (eviction storms)."""
        return self._rng.randrange(n)

    def corrupt_tail(
        self, prefetcher: object, now: int = 0, sm_id: int = -1
    ) -> bool:
        """``snake.tail_corrupt``: mutate one Tail-table entry in place.

        Corruption stays *in-field* (a real bit flip cannot escape the
        entry's storage): a stale/scaled stride, a scrambled 64-bit warp
        vector, or a spurious train-state promotion.  Mechanisms without
        Snake tables are a no-op.
        """
        if not self.should("snake.tail_corrupt"):
            return False
        tables = getattr(prefetcher, "tables", None)
        if tables is None:
            return False
        stocked = [tail for _, _, tail in tables() if len(tail)]
        if not stocked:
            return False
        from repro.core.tail_table import TrainState

        tail = self._rng.choice(stocked)
        entry = self._rng.choice(tail.entries())
        mode = self._rng.randrange(3)
        if mode == 0:
            entry.inter_thread_stride *= self._rng.choice((-1, 2, 3))
            detail = "stride->%d" % entry.inter_thread_stride
        elif mode == 1:
            entry.warp_vector = self._rng.getrandbits(64)
            detail = "warp vector scrambled"
        else:
            entry.t1 = TrainState.TRAINED
            detail = "t1 force-trained"
        self.record("snake.tail_corrupt", now, sm_id, detail)
        return True

    def summary(self) -> Dict[str, int]:
        """Site -> fire count (stable order, for reports and tests)."""
        return {site: self.counts.get(site, 0) for site in SITES
                if self._rates.get(site, 0.0) > 0}


# ---------------------------------------------------------------------------
# Runner-level fault injection (the orchestration layer's chaos plan).
#
# The simulator sites above perturb *timing inside one simulation*.  The
# runner sites perturb the *fleet machinery around* simulations: workers
# dying mid-lease, heartbeats going silent, the scheduler<->worker message
# plane dropping / delaying / duplicating deliveries, and checkpoint
# records torn by a killed writer.  The correctness contract is the same
# shape as the simulator one — a seeded fault schedule may cost wall
# clock and retries but must yield byte-identical sweep results — and
# ``snake-repro chaos --runner`` proves it.


#: Every recognised runner injection site.
RUNNER_SITES: Tuple[str, ...] = (
    "worker.kill",
    "worker.heartbeat_stall",
    "transport.drop",
    "transport.delay",
    "transport.dup",
    "checkpoint.torn",
)

#: Default per-opportunity rates for the runner "storm" plan.  worker.*
#: sites are per (job, attempt); transport.* sites are per message;
#: checkpoint.torn is per checkpoint flush.
RUNNER_DEFAULT_RATES: Dict[str, float] = {
    "worker.kill": 0.5,
    "worker.heartbeat_stall": 0.5,
    "transport.drop": 0.1,
    "transport.delay": 0.1,
    "transport.dup": 0.2,
    "checkpoint.torn": 0.25,
}


def runner_catalog() -> Dict[str, str]:
    """Runner site -> one-line description (docs and ``chaos --runner``)."""
    return {
        "worker.kill": "SIGKILL a worker at a lease phase (claim or report)",
        "worker.heartbeat_stall": "a worker goes silent: heartbeats stop, "
        "the result is withheld past the lease",
        "transport.drop": "a worker->scheduler message is lost in delivery",
        "transport.delay": "a worker->scheduler message is delivered late",
        "transport.dup": "a worker->scheduler message is delivered twice",
        "checkpoint.torn": "a checkpoint flush leaves a torn trailing record",
    }


def _hash01(seed: int, site: str, key: str, attempt: int) -> float:
    """Deterministic uniform [0, 1) draw from the fault identity alone.

    Job-scoped decisions must not depend on scheduling order (which
    worker claimed the job, how many messages flowed first), or the
    fault schedule would differ between otherwise-identical runs — so
    they hash (seed, site, key, attempt) instead of consuming a shared
    RNG stream.
    """
    digest = hashlib.sha256(
        ("%d|%s|%s|%d" % (seed, site, key, attempt)).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RunnerFaultPlan:
    """What to inject into the sweep scheduler: (site, probability) pairs.

    ``max_per_job`` bounds the abuse: a job-scoped site can only fire on
    attempts ``1..max_per_job`` of a given job, so recovery always
    converges as long as the scheduler's retry/loss budgets exceed the
    cap — which ``Scheduler`` enforces when a plan is attached.  That
    bound is what makes the chaos contract provable for *any* seed:
    unbounded kills could legitimately exhaust any retry budget.

    ``delay_s`` is the nominal transport-delay / heartbeat-stall
    magnitude (each firing jitters deterministically around it).
    """

    seed: int = 0
    rates: Tuple[Tuple[str, float], ...] = ()
    max_per_job: int = 2
    delay_s: float = 0.2

    def __post_init__(self) -> None:
        for site, rate in self.rates:
            if site not in RUNNER_SITES:
                raise ValueError(
                    "unknown runner fault site %r (known: %s)"
                    % (site, ", ".join(RUNNER_SITES))
                )
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rate for %s must be in [0, 1]" % site)
        if self.max_per_job < 1:
            raise ValueError("max_per_job must be >= 1")
        if self.delay_s <= 0:
            raise ValueError("delay_s must be > 0")

    @classmethod
    def make(
        cls, rates: Mapping[str, float], seed: int = 0,
        max_per_job: int = 2, delay_s: float = 0.2,
    ) -> "RunnerFaultPlan":
        return cls(
            seed=int(seed),
            rates=tuple(sorted(rates.items())),
            max_per_job=int(max_per_job),
            delay_s=float(delay_s),
        )

    @classmethod
    def single(cls, site: str, rate: Optional[float] = None, seed: int = 0,
               max_per_job: int = 2, delay_s: float = 0.2) -> "RunnerFaultPlan":
        """One site only (the ``chaos --runner`` per-site plans)."""
        return cls.make(
            {site: RUNNER_DEFAULT_RATES[site] if rate is None else rate},
            seed=seed, max_per_job=max_per_job, delay_s=delay_s,
        )

    @classmethod
    def storm(cls, seed: int = 0, max_per_job: int = 2,
              delay_s: float = 0.2) -> "RunnerFaultPlan":
        """All runner sites at their default rates simultaneously."""
        return cls.make(
            RUNNER_DEFAULT_RATES, seed=seed, max_per_job=max_per_job,
            delay_s=delay_s,
        )

    def label(self) -> str:
        sites = [s for s, r in self.rates if r > 0]
        if set(sites) == set(RUNNER_SITES):
            return "runner-storm"
        return "+".join(sites) if sites else "none"

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "rates": {site: rate for site, rate in self.rates},
            "max_per_job": self.max_per_job,
            "delay_s": self.delay_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunnerFaultPlan":
        return cls.make(
            data.get("rates") or {},
            seed=data.get("seed", 0),
            max_per_job=data.get("max_per_job", 2),
            delay_s=data.get("delay_s", 0.2),
        )


class RunnerFaultInjector:
    """Per-run decision engine for a :class:`RunnerFaultPlan`.

    Job-scoped sites (``worker.*``) decide from a pure hash of
    (seed, site, key, attempt) — stateless, so the worker process that
    actually honours the decision can be respawned between attempts
    without losing the cap, and the schedule is independent of claim
    order.  Message-scoped sites (``transport.*``) and per-flush
    ``checkpoint.torn`` live in the scheduler process and use one seeded
    RNG stream with a per-(site, key) firing cap, so a dropped result
    cannot be dropped again on every retry forever.
    """

    def __init__(self, plan: RunnerFaultPlan,
                 obs: Optional[BusLike] = None) -> None:
        self.plan = plan
        self._rates = {site: rate for site, rate in plan.rates}
        self._rng = random.Random(0xF1EE7 ^ (plan.seed * 2654435761 % (1 << 32)))
        self._obs = obs if obs is not None else NULL_BUS
        self.counts: Dict[str, int] = {}
        self._per_key: Dict[Tuple[str, str], int] = {}

    @property
    def total_fired(self) -> int:
        return sum(self.counts.values())

    def record(self, site: str, detail: str = "") -> None:
        self.counts[site] = self.counts.get(site, 0) + 1
        if self._obs.enabled:
            self._obs.emit(FaultEvent(cycle=0, sm_id=-1, site=site, detail=detail))

    def job_fires(self, site: str, key: str, attempt: int,
                  detail: str = "") -> bool:
        """Job-scoped decision: fires iff ``attempt <= max_per_job`` and
        the deterministic hash clears the site's rate."""
        rate = self._rates.get(site, 0.0)
        if rate <= 0.0 or attempt > self.plan.max_per_job:
            return False
        if _hash01(self.plan.seed, site, key, attempt) >= rate:
            return False
        self.record(site, detail or "%s attempt %d" % (key, attempt))
        return True

    def kill_phase(self, key: str, attempt: int) -> str:
        """Which lease phase ``worker.kill`` strikes at: ``claim`` (the
        assignment was received but nothing ran) or ``report`` (the job
        executed fully but the result never left the worker)."""
        draw = _hash01(self.plan.seed, "worker.kill.phase", key, attempt)
        return "claim" if draw < 0.5 else "report"

    def message_fires(self, site: str, key: str, detail: str = "") -> bool:
        """Message-scoped decision, capped at ``max_per_job`` firings per
        (site, key) so delivery faults cannot starve a job forever."""
        rate = self._rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        cap_key = (site, key)
        if self._per_key.get(cap_key, 0) >= self.plan.max_per_job:
            return False
        if self._rng.random() >= rate:
            return False
        self._per_key[cap_key] = self._per_key.get(cap_key, 0) + 1
        self.record(site, detail or key)
        return True

    def stall_s(self, key: str, attempt: int) -> float:
        """How long a heartbeat-stalled worker withholds its result.
        Always comfortably past the lease the scheduler is using (the
        scheduler scales its lease down when a plan is attached)."""
        jitter = 1.0 + _hash01(self.plan.seed, "stall.jitter", key, attempt)
        return self.plan.delay_s * 2.0 * jitter

    def delay_s(self, key: str) -> float:
        """Transport delivery delay for one message (seeded jitter in
        [delay/2, 2*delay], mirroring the simulator spike sites)."""
        return self.plan.delay_s * self._rng.uniform(0.5, 2.0)

    def summary(self) -> Dict[str, int]:
        """Site -> fire count (stable order, for reports and tests)."""
        return {site: self.counts.get(site, 0) for site in RUNNER_SITES
                if self._rates.get(site, 0.0) > 0}


__all__ = [
    "DEFAULT_RATES",
    "FaultInjector",
    "FaultPlan",
    "RUNNER_DEFAULT_RATES",
    "RUNNER_SITES",
    "RunnerFaultInjector",
    "RunnerFaultPlan",
    "SITES",
    "catalog",
    "runner_catalog",
]
