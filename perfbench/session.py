"""One benchmark session in a fresh interpreter.

    python3 perfbench/session.py --workload NAME --seed N --spawned-at T
                                 --workdir DIR [--trace] [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process (the clock is system-wide), so ``setup_s`` covers
interpreter start, imports and building the workload up to the first
session call.  Module-level caches of ``repro`` (lowering, features, the
process pool) start cold, as in a user's first session.  The last stdout
line is one JSON object; the exit code is 0 unless the session raised.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _layer_report(tracer, out) -> dict:
    """Per-layer self times and counters of one traced session.  Times
    count spans inside the tuning sessions and the store read phase, not
    the benchmark's own checks; coverage is the share of the sessions' wall
    time that spans on the driving thread account for (the calibration
    kernel runs between rounds are spans of their own)."""
    sessions = [(lo, hi) for lo, hi, kind in out.windows if kind == "session"]
    every = [(lo, hi) for lo, hi, _ in out.windows]
    on_main = tracer.self_times(sessions, threading.main_thread().ident)
    return {
        "times": tracer.self_times(every),
        "coverage": sum(on_main.values()) / sum(hi - lo for lo, hi in sessions),
        "propose_inclusive_s": tracer.inclusive_time("search.propose", every),
        "counts": tracer.counts(every),
        "facts": out.facts,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="search seed")
    parser.add_argument("--noise-seed", type=int, default=0,
                        help="seeds the runner that measures the best programs again")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads
    from spans import Tracer

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer().install()
        workloads.calibration_kernel = tracer.timed("bench.calibration", workloads.calibration_kernel)
    workload = workloads.WORKLOADS[args.workload]
    workload.setup(workdir)
    setup_s = time.monotonic() - args.spawned_at
    record = {"setup_s": setup_s, "panel": list(workload.panel)}
    if not args.setup_only:
        out = workload.run(args.seed, args.noise_seed)
        record.update(
            trials=out.trials,
            failed=out.failed,
            retries=out.retries,
            wall_s=out.wall_s,
            reported_cost=out.reported_cost,
            final_cost=out.final_cost,
            time_to_target_s=out.time_to_target_s,
            trials_to_target=out.trials_to_target,
            reached_target=out.reached_target,
            digests=out.digests,
            failures=out.failures,
            hit_latencies=out.hit_latencies,
            host_factor=statistics.median(out.kernel_s) / workloads.REFERENCE_KERNEL_S,
            facts=out.facts,
        )
        if tracer is not None:
            tracer.uninstall()
            record["layers"] = _layer_report(tracer, out)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
