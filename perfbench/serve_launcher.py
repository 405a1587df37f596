"""Start ``snake-repro serve`` with its layers wrapped in spans, or with
its host speed sampled.

With ``--trace-out`` it applies the wraps (class and module attributes,
in this process only); with ``--speed-out`` it starts a ``hostspeed``
sampler before the program is imported.  Either way it then runs the
same CLI entry point a plain server runs, so the settings are identical.
When the server drains (SIGTERM) the span totals, or the reference
seconds per wall second, the median sample and the server's CPU clock,
are written as JSON to the named file.

    python3 perfbench/serve_launcher.py --trace-out spans.json -- \
        --data-dir DIR --port 0
"""

from __future__ import annotations

import argparse
import asyncio
import json
import selectors
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
from tracer import Tracer  # noqa: E402

#: How often the sampled server reads its CPU clock: well under a
#: request's latency under saturation (about 8 ms), so each request's
#: share of server CPU time can be read back.
CLOCK_TICK_S = 0.002


def instrument_server(tracer: Tracer) -> None:
    from repro.core.snake import SnakePrefetcher
    from repro.serve import service
    from repro.serve.journal import Journal
    from repro.serve.protocol import FrameDecoder
    from repro.serve.state import ServiceState

    # Protocol: the names service.py imported, plus the decoder class.
    tracer.patch(service, "validate_request", "protocol")
    tracer.patch(service, "encode_frame", "protocol")
    tracer.patch(FrameDecoder, "feed", "protocol")
    # State core: apply_batch may route records through apply; count the
    # outermost call only, with its record count as the batch size.
    tracer.patch(ServiceState, "apply", "state.apply", "state.apply_calls",
                 outer_only=True, size=lambda *args: 1)
    tracer.patch(ServiceState, "apply_batch", "state.apply",
                 "state.apply_calls", outer_only=True,
                 size=lambda self, records: len(records))
    tracer.patch(ServiceState, "predict", "state.predict")
    for name in ("observe", "observe_raw", "observe_batch"):
        tracer.patch(SnakePrefetcher, name, "snake", "snake.observe_calls",
                     outer_only=True)
    tracer.patch(Journal, "record_access", "journal.append")
    tracer.patch(Journal, "record_admit", "journal.append")
    tracer.patch(Journal, "write_snapshot", "journal.snapshot")
    # Every callback and task step the event loop runs: the service shell
    # (connection handling, streams, queues) is this span's self time.
    tracer.patch(asyncio.events.Handle, "_run", "service")
    # Time blocked in the event loop's selector: waiting, not work.
    tracer.patch(selectors.DefaultSelector, "select", "idle")


def main() -> int:
    parser = argparse.ArgumentParser()
    out = parser.add_mutually_exclusive_group(required=True)
    out.add_argument("--trace-out")
    out.add_argument("--speed-out")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]

    speed = hostspeed.HostSpeed(tick_s=CLOCK_TICK_S)
    if args.speed_out:
        speed.start()
    mark = speed.mark()
    import common  # noqa: F401  (puts the program on sys.path)
    from repro import cli

    tracer = Tracer()
    if args.trace_out:
        instrument_server(tracer)
    start = time.perf_counter()
    code = cli.main(["serve"] + serve_args)
    wall = time.perf_counter() - start
    speed.stop()
    if args.speed_out:
        path = args.speed_out
        result = {"to_reference": speed.to_reference(mark),
                  "sample_s": speed.sample_s(mark), "cpu_at": speed.cpu_at}
    else:
        path = args.trace_out
        result = tracer.as_dict()
        result["wall_s"] = wall
    with open(path, "w") as handle:
        json.dump(result, handle, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
