"""The repository benchmark: whole ``repro.Tuner`` sessions, end to end and
layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each session runs in a fresh interpreter
(``perfbench/session.py``), one after another.  A workload has a fixed
panel of search seeds; a run tunes the whole panel, and again while another
pass fits in ``--seconds``.  ``--seed`` seeds the runner that measures each
session's best programs again (session ``i`` uses ``1000 * seed + i``).
Every figure reported is the median over the run's sessions.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
session twice, untraced then traced (``perfbench/spans.py`` wraps the layer
boundaries from outside the library), and reports the per-layer metrics,
the tracing overhead and the share of session wall time the spans cover.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it stamp the host and list
every session.  Workloads, targets and the layer map: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

WORKLOADS = ("matmul-search", "mobilenet-store", "conv2d-variants", "fleet-random")

#: set-up-only interpreters started per run, beside the sessions' own set-up
SETUP_SAMPLES = 5
#: a session that has not finished by then is killed and fails the run
SESSION_TIMEOUT_S = 150


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, round(q / 100 * len(ordered)) - 1))]


def host_stamp() -> dict:
    """The machine and code a result was measured on."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    # A checkout without git metadata is identified by its sources instead.
    src = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": rev or "unknown",
        "src_sha1": src.hexdigest(),
        "loadavg_1m": os.getloadavg()[0],
    }


def spawn(workload: str, seed: int, workdir: Path, *flags: str) -> dict:
    """Run one session interpreter; its last stdout line is its record.

    The interpreter's string-hash seed is pinned to the search seed: with
    randomized hashing, set iteration order differs between processes and a
    seeded session follows one of several trajectories (the "split")."""
    command = [
        sys.executable, str(HERE / "session.py"),
        "--workload", workload, "--seed", str(seed), "--workdir", str(workdir),
        "--spawned-at", repr(time.monotonic()), *flags,
    ]
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True, env={**os.environ, "PYTHONHASHSEED": str(seed)},
    )
    try:
        stdout, stderr = proc.communicate(timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} seed {seed}: session timed out")
    finally:
        # The fleet's builder pool runs in the session's process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} {flags}: exit {proc.returncode}\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def record_digests(workload: str, sessions: list) -> int:
    """Add this run's trajectory digests to the checkout's ledger and return
    the most distinct digests any one session seed has produced in it — more
    than 1 means the same seeded session followed different trajectories in
    different processes (the asynchronous drivers depend on completion
    order)."""
    ledger_path = WORK / "digests.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    seen = ledger.setdefault(workload, {})
    for seed, record in sessions:
        digests = seen.setdefault(str(seed), [])
        key = "+".join(record["digests"])
        if key not in digests:
            digests.append(key)
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(ledger_path)
    return max(len(v) for v in seen.values())


def trials_per_s(record: dict) -> float:
    """Session throughput at the reference host speed (see README.md)."""
    return record["trials"] * record["host_factor"] / record["wall_s"]


def end_to_end(setups: list, sessions: list) -> dict:
    records = [r for _, r in sessions]
    trials = sum(r["trials"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {
        "setup_s": (median(setups), "s"),
        "trials_per_s": (median([trials_per_s(r) for r in records]), "trials/s"),
        "time_to_target_s": (
            median([r["time_to_target_s"] / r["host_factor"] for r in records]), "s"
        ),
        "trials_to_target": (median([r["trials_to_target"] for r in records]), "trials"),
        "final_latency_us": (median([r["final_cost"] * 1e6 for r in records]), "us"),
        "valid_trial_ratio": ((trials - failed) / trials, "ratio"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in records]), "MB"),
    }


def per_layer(pairs: list, distinct_digests: int) -> dict:
    """Per-layer metrics, as means per traced session; store-hit latencies
    and the overhead baseline come from the untraced twin of each session,
    which ran just before it (so the pair is compared unscaled)."""
    traced = [t for _, _, t in pairs]
    n = len(traced)
    times: dict = {}
    counts: dict = {}
    facts: dict = {}
    for record in traced:
        layers = record["layers"]
        for key, value in layers["times"].items():
            times[key] = times.get(key, 0.0) + value / n
        for key, value in layers["counts"].items():
            counts[key] = counts.get(key, 0.0) + value / n
        for key, value in layers["facts"].items():
            facts[key] = facts.get(key, 0.0) + value / n
    t = lambda *names: sum(times.get(name, 0.0) for name in names)  # noqa: E731
    c = lambda name: counts.get(name, 0.0)  # noqa: E731
    ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
    trials = sum(r["trials"] for r in traced) / n
    failed = sum(r["failed"] for r in traced) / n
    retries = sum(r["retries"] for r in traced) / n
    propose_s = sum(r["layers"]["propose_inclusive_s"] for r in traced) / n
    hits = [h for _, untraced, _ in pairs for h in untraced["hit_latencies"]]
    overhead = median([tr["wall_s"] / u["wall_s"] - 1.0 for _, u, tr in pairs])
    coverage = median([r["layers"]["coverage"] for r in traced])
    return {
        "search.propose_s": (t("search.propose"), "s"),
        "search.sketch_s": (t("search.sketch"), "s"),
        "search.sample_s": (t("search.sample"), "s"),
        "search.evolve_s": (t("search.evolve"), "s"),
        "search.mutate_s": (t("search.mutate"), "s"),
        "search.mutate_ok_ratio": (ratio(c("mutations_ok"), c("mutations")), "ratio"),
        "search.states_scored": (c("states_scored"), "count"),
        "search.states_per_s": (ratio(c("states_scored"), propose_s), "1/s"),
        "search.distinct_digests": (distinct_digests, "count"),
        "cost_model.features_s": (t("cost_model.features"), "s"),
        "cost_model.feature_rows": (c("feature_rows"), "count"),
        "cost_model.feature_fail_ratio": (ratio(c("feature_fails"), c("feature_rows")), "ratio"),
        "cost_model.predict_s": (t("cost_model.predict"), "s"),
        "cost_model.update_s": (t("cost_model.update"), "s"),
        "cost_model.updates": (c("updates"), "count"),
        "cost_model.train_rows": (c("train_rows"), "count"),
        "codegen.lower_s": (t("codegen.lower"), "s"),
        "codegen.lower_calls": (c("lower_calls"), "count"),
        "hardware.build_s": (t("hardware.build", "hardware.build_dispatch"), "s"),
        "hardware.run_s": (t("hardware.run"), "s"),
        "hardware.simulate_s": (t("hardware.simulate"), "s"),
        "hardware.wait_s": (t("hardware.wait"), "s"),
        "hardware.trials": (trials, "count"),
        "hardware.retries": (retries, "count"),
        "hardware.errors": (failed, "count"),
        "hardware.valid_ratio": (ratio(trials - failed, trials), "ratio"),
        "hardware.retries_per_trial": (ratio(retries, trials), "ratio"),
        "hardware.failed_trial_ratio": (ratio(failed, trials), "ratio"),
        "hardware.breaker_trips": (facts.get("breaker_trips", 0.0), "count"),
        "hardware.ejected_devices": (facts.get("ejected_devices", 0.0), "count"),
        "scheduler.self_s": (t("scheduler.tune"), "s"),
        "scheduler.rounds": (facts.get("scheduler_rounds", 0.0), "count"),
        "scheduler.tasks_tuned": (facts.get("tasks_tuned", 1.0), "count"),
        "variants.self_s": (t("variants.tune"), "s"),
        "variants.pruned": (facts.get("variants_pruned", 0.0), "count"),
        "variants.winner_trial_share": (facts.get("winner_trial_share", 0.0), "ratio"),
        "store.open_s": (t("store.open"), "s"),
        "store.lookup_s": (t("store.lookup"), "s"),
        "store.lookups": (c("lookups"), "count"),
        "store.hit_ratio": (ratio(c("lookup_hits"), c("lookups")), "ratio"),
        "store.similar_s": (t("store.similar"), "s"),
        "store.warm_seeds": (c("similar_entries"), "count"),
        "store.put_s": (t("store.put"), "s"),
        "store.puts": (c("puts"), "count"),
        "store.hit_p50_ms": (percentile(hits, 50) * 1e3, "ms"),
        "store.hit_p90_ms": (percentile(hits, 90) * 1e3, "ms"),
        "store.hit_samples": (len(hits), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.coverage_ratio": (coverage, "ratio"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    stamp = host_stamp()
    print(json.dumps({"host": stamp, "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        probes = [spawn(args.workload, 0, workdir, "--setup-only") for _ in range(SETUP_SAMPLES)]
        setups = [p["setup_s"] for p in probes]
        panel = probes[0]["panel"]
        start = time.monotonic()
        longest = 0.0
        sessions = []  # (search seed, untraced record)
        pairs = []  # (search seed, untraced record, traced record)
        while not sessions or time.monotonic() - start + longest <= args.seconds:
            began = time.monotonic()
            for seed in panel:
                noise = ["--noise-seed", str(1000 * args.seed + len(sessions))]
                record = spawn(args.workload, seed, workdir, *noise)
                if args.trace:
                    traced = spawn(args.workload, seed, workdir, *noise, "--trace")
                    pairs.append((seed, record, traced))
                sessions.append((seed, record))
                setups.append(record["setup_s"])
                print(json.dumps({
                    "search_seed": seed, "trials": record["trials"],
                    "wall_s": round(record["wall_s"], 4),
                    "host_factor": round(record["host_factor"], 4),
                    "final_us": round(record["final_cost"] * 1e6, 4),
                    "reported_us": round(record["reported_cost"] * 1e6, 4),
                    "trials_to_target": record["trials_to_target"],
                    "reached_target": record["reached_target"],
                    "digests": [d[:12] for d in record["digests"]],
                    "failures": record["failures"],
                }))
            longest = max(longest, time.monotonic() - began)
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    distinct = record_digests(args.workload, sessions)
    metrics = per_layer(pairs, distinct) if args.trace else end_to_end(setups, sessions)
    failed_ops = sum(1 for _, r in sessions if r["failures"]) + sum(
        1 for _, _, r in pairs if r["failures"]
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    if args.trace:
        print(f"trace coverage {metrics['trace.coverage_ratio'][0]:.3f} (target >= 0.95), "
              f"overhead {metrics['trace.overhead_ratio'][0]:+.3f} (target < 0.03)")
    print(f"distinct trajectory digests for one session seed in this checkout: {distinct}")
    print(json.dumps({
        "correct": failed_ops == 0,
        "attempted": len(sessions) + len(pairs),
        "failed": failed_ops,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
