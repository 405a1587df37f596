"""Span tracing applied from outside the program.

A :class:`Tracer` wraps callables of the simulator, the sweep runner and
the server (bound methods on instances, or names on modules and classes)
and records, for every wrapped call, one span: its layer, its duration
and the span that was open when it started (its parent).  Spans are
aggregated in memory as they close, so a run with millions of calls
stays small:

* ``self_s[layer]``  — span time minus the time of its child spans;
* ``calls[key]``     — calls counted at the same boundary;
* ``root_s``         — time covered by spans that had no parent.

Nothing under ``src/`` is edited: every wrap is a ``setattr`` made by the
benchmark before the measured work starts.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """Aggregating span recorder (see the module docstring)."""

    def __init__(self) -> None:
        self._stack: List[List[Any]] = []   # open spans: [layer, child_s]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.sizes: Counter = Counter()     # summed batch sizes per key
        self.root_s = 0.0
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    # Wrapping

    def wrap(self, layer: str, func: Callable[..., Any],
             count: Optional[str] = None,
             size: Optional[Callable[..., int]] = None,
             outer_only: bool = False) -> Callable[..., Any]:
        """Return ``func`` wrapped in a ``layer`` span.

        ``count`` names the call counter bumped per call; with
        ``outer_only`` it is bumped only when the caller is not already
        inside a ``layer`` span (a method that re-enters its own layer
        counts once).  ``size(*args)`` adds a batch size to
        ``sizes[count]``.
        """
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        sizes = self.sizes
        perf = time.perf_counter
        tracer = self

        def span(*args: Any, **kwargs: Any) -> Any:
            if count is not None and not (
                outer_only and stack and stack[-1][0] == layer
            ):
                calls[count] += 1
                if size is not None:
                    sizes[count] += size(*args)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return func(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.root_s += duration

        span.__wrapped__ = func  # type: ignore[attr-defined]
        return span

    def patch(self, owner: Any, name: str, layer: str,
              count: Optional[str] = None, **options: Any) -> None:
        """Replace ``owner.name`` (an instance, class or module attribute)
        with a wrapped version; :meth:`restore` undoes every patch."""
        had_own = name in getattr(owner, "__dict__", {})
        original = getattr(owner, name)
        self._undo.append((owner, name, original, had_own))
        setattr(owner, name, self.wrap(layer, original, count, **options))

    def restore(self) -> None:
        while self._undo:
            owner, name, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # ------------------------------------------------------------------
    # Results

    def as_dict(self) -> Dict[str, Any]:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "sizes": dict(self.sizes),
            "root_s": self.root_s,
        }


def merge(into: Dict[str, Any], part: Dict[str, Any]) -> Dict[str, Any]:
    """Add one :meth:`Tracer.as_dict` result into an accumulator."""
    for key in ("self_s", "calls", "sizes"):
        bucket = into.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
    into["root_s"] = into.get("root_s", 0.0) + part.get("root_s", 0.0)
    return into


# ----------------------------------------------------------------------
# Simulator instrumentation


def instrument_gpu(tracer: Tracer, gpu: Any) -> None:
    """Wrap every simulator layer of one constructed ``GPU``.

    Instance attributes shadow the class methods, so the wraps see every
    call made through ``self.<component>.<method>``.  Bound methods the
    program caches at construction (``SM._pf_observe_raw``) are repointed
    at the wrapper, or those calls would escape the trace.
    """
    from repro.gpusim import sm as sm_module

    tracer.patch(gpu, "run", "gpu")
    tracer.patch(gpu.l2, "access", "l2", "l2.access_calls")
    tracer.patch(gpu.dram, "access", "dram", "dram.access_calls")
    for core in gpu.sms:
        tracer.patch(core, "step_event", "sm", "sm.step_calls")
        tracer.patch(core.scheduler, "pick", "scheduler",
                     "scheduler.pick_calls")
        tracer.patch(core.throttle, "allow", "throttle", "throttle.calls")
        tracer.patch(core.throttle, "chain_depth_limit", "throttle",
                     "throttle.calls")
        l1 = core.l1
        tracer.patch(l1, "demand_load", "l1", "l1.demand_calls")
        tracer.patch(l1, "demand_store", "l1")
        for name in ("prefetch", "prefetch_batch", "prefetch_trigger"):
            tracer.patch(l1, name, "l1", "l1.prefetch_calls",
                         outer_only=True)
        for port in (core.icnt_req, core.icnt_resp):
            tracer.patch(port, "send", "noc", "noc.send_calls")
            tracer.patch(port, "measured_utilization", "noc",
                         "noc.utilization_calls")
        prefetcher = core.prefetcher
        if getattr(prefetcher, "name", "") == "snake":
            for name in ("observe", "observe_raw", "observe_batch"):
                tracer.patch(prefetcher, name, "snake", "snake.observe_calls",
                             outer_only=True)
            if core._pf_observe_raw is not None:
                core._pf_observe_raw = prefetcher.observe_raw
            for _, head, tail in prefetcher.tables():
                for name in ("update", "update_batch", "lookup"):
                    tracer.patch(head, name, "head_table")
                tracer.patch(tail, "walk_raw", "tail_table",
                             "tail_table.walk_calls")
                for name in ("find", "chain_next", "record", "record_intra",
                             "record_inter_warp"):
                    tracer.patch(tail, name, "tail_table")
    for name in ("coalesce", "coalesce_lines", "coalesce_sectors"):
        tracer.patch(sm_module, name, "coalescer", "coalescer.calls")


__all__ = ["Tracer", "instrument_gpu", "merge"]
