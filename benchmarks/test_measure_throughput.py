"""Measurement-throughput microbenchmark: measured trials per second.

PR 2 made candidate *scoring* ~8x faster, which moved the end-to-end
bottleneck to *measurement* — in the paper, compiling each candidate (a
compiler subprocess invocation taking O(seconds)) dominates and Ansor runs
its builders in parallel.  This benchmark gates that parallelism: the same
candidate batch is measured through

* **serial**: the default
  :class:`~repro.hardware.measure.MeasurePipeline` configuration — a
  one-worker builder, candidates built strictly one after another,
* **parallel**: the same pipeline with ``n_parallel`` builder threads.

Each build carries ``BUILD_LATENCY`` of emulated compile cost on top of the
analytical lowering (real builds are subprocess/I/O-bound, which threads
genuinely overlap; the analytical lowering alone is microseconds, far below
any real compiler).  The benchmark asserts bit-level cost parity between the
two paths and a measured wall-clock speedup for the parallel builder, and
merges ``measured_trials_per_sec`` into ``BENCH_search_throughput.json``
next to the search-throughput numbers.

Every timed pass of every stage measures a freshly sampled batch of equal,
unlowered states (the input helper is seeded), so every pass lowers from
cold: a pass never times lowerings memoized on the states by an earlier
pass.

A second stage gates the asynchronous session overlap (PR 5): the same
round-structured workload — R rounds of C candidates, each round preceded
by an emulated breeding cost and each run attempt charged a slept
per-device ``measure_latency_sec`` — is driven through

* **sync**: a synchronous ``MeasureSession`` per round (breed, submit,
  drain — the searcher idles while the device runs, and vice versa),
* **async**: one asynchronous session with ``SESSION_WORKERS`` workers and
  one-round lookahead (breed round *k+1* while round *k* occupies the
  devices), exactly the schedule the pipelined tuning drivers use.

When device latency dominates, the async schedule must deliver at least
``MIN_ASYNC_SPEEDUP`` (1.3x) the sync measured-trials/sec, with bit-level
cost parity between the two paths.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.hardware import LocalBuilder, MeasureInput, MeasurePipeline, intel_cpu
from repro.search import generate_sketches, sample_initial_population
from repro.task import SearchTask
from repro.workloads import matmul_relu

from harness import merge_benchmark_result

N_CANDIDATES = 24
N_PARALLEL = 8
TIMING_REPEATS = 3  # best-of-N timing for the load-sensitive speedup gates
BUILD_LATENCY = 0.008  # emulated per-candidate compile cost (seconds)
MIN_SPEEDUP = 2.0
# Async-session stage: R rounds x C candidates, slept per-run device
# latency (dominating) plus a per-round emulated breeding cost.
SESSION_ROUNDS = 5
SESSION_ROUND_SIZE = 8
SESSION_LATENCY = 0.004  # slept per run attempt: the dominating device cost
SESSION_BREED_SEC = 0.012  # emulated per-round candidate-generation cost
SESSION_WORKERS = 4
MIN_ASYNC_SPEEDUP = 1.3
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_search_throughput.json"


def _make_inputs(count=N_CANDIDATES):
    task = SearchTask(matmul_relu(64, 64, 64), intel_cpu())
    rng = np.random.default_rng(0)
    states = sample_initial_population(task, generate_sketches(task), count, rng)
    return [MeasureInput(task, s) for s in states]


def _timed_measure(pipeline, make_inputs, repeats=1):
    """Time ``pipeline.measure`` of a fresh ``make_inputs()`` batch; with
    ``repeats`` > 1, best-of-N.

    The minimum over repeats is the standard noise-robust estimator for a
    capability ratio: a single-shot measurement folds in transient host
    load, which on a contended single-core host can halve a measurement
    without saying anything about steady-state throughput.  Costs are
    seeded per program, so every repeat returns bit-identical results and
    the parity checks are unaffected.  Each repeat builds its batch before
    the clock starts: equal programs in new, unlowered states, so every
    pass lowers from cold.
    """
    best = None
    results = None
    for _ in range(repeats):
        inputs = make_inputs()
        start = time.perf_counter()
        results = pipeline.measure(inputs)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return results, best


def run_measure_throughput():
    serial = MeasurePipeline(
        intel_cpu(),
        builder=LocalBuilder(n_parallel=1, build_latency_sec=BUILD_LATENCY),
        seed=0,
    )
    parallel = MeasurePipeline(
        intel_cpu(),
        builder=LocalBuilder(n_parallel=N_PARALLEL, build_latency_sec=BUILD_LATENCY),
        seed=0,
    )
    serial_results, serial_elapsed = _timed_measure(serial, _make_inputs, TIMING_REPEATS)
    parallel_results, parallel_elapsed = _timed_measure(parallel, _make_inputs, TIMING_REPEATS)

    parity = [r.costs for r in serial_results] == [r.costs for r in parallel_results]
    candidates = len(serial_results)
    result = {
        "candidates": candidates,
        "n_parallel": N_PARALLEL,
        "build_latency_sec": BUILD_LATENCY,
        "serial_seconds": serial_elapsed,
        "parallel_seconds": parallel_elapsed,
        "serial_trials_per_sec": candidates / serial_elapsed,
        "parallel_trials_per_sec": candidates / parallel_elapsed,
        "speedup": serial_elapsed / parallel_elapsed,
        "parity": parity,
    }
    # Merge into the shared perf-baseline file next to the search numbers.
    merge_benchmark_result(
        RESULT_PATH,
        {
            "measure_throughput": result,
            "measured_trials_per_sec": result["parallel_trials_per_sec"],
        },
    )
    return result


def run_async_session_throughput():
    """The async-overlap stage: one-round-lookahead pipelining through an
    async MeasureSession vs the breed-submit-drain sync schedule, on a
    workload whose slept per-run device latency dominates."""
    def fresh_rounds():
        # equal programs in new, unlowered states: each schedule lowers from cold
        inputs = _make_inputs(SESSION_ROUNDS * SESSION_ROUND_SIZE)
        return [
            inputs[i * SESSION_ROUND_SIZE : (i + 1) * SESSION_ROUND_SIZE]
            for i in range(SESSION_ROUNDS)
        ]

    sync_pipeline = MeasurePipeline(intel_cpu(), seed=0)
    rounds = fresh_rounds()
    sync_results = []
    start = time.perf_counter()
    with sync_pipeline.session(async_=False, measure_latency_sec=SESSION_LATENCY) as session:
        for batch in rounds:
            time.sleep(SESSION_BREED_SEC)  # the searcher breeding this round
            session.submit(batch)
            sync_results.extend(session.drain())  # devices run, searcher idles
    sync_elapsed = time.perf_counter() - start

    async_pipeline = MeasurePipeline(intel_cpu(), seed=0)
    rounds = fresh_rounds()
    async_results = []
    start = time.perf_counter()
    with async_pipeline.session(
        async_=True, n_workers=SESSION_WORKERS, measure_latency_sec=SESSION_LATENCY
    ) as session:
        previous = None
        for batch in rounds:
            # breeding round k+1 overlaps round k's device occupancy
            time.sleep(SESSION_BREED_SEC)
            futures = session.submit(batch)
            if previous is not None:
                async_results.extend(f.result() for f in previous)
            previous = futures
        async_results.extend(f.result() for f in previous)
    async_elapsed = time.perf_counter() - start

    total = len(sync_results)
    parity = [r.costs for r in sync_results] == [r.costs for r in async_results]
    result = {
        "rounds": SESSION_ROUNDS,
        "round_size": SESSION_ROUND_SIZE,
        "measure_latency_sec": SESSION_LATENCY,
        "breed_sec": SESSION_BREED_SEC,
        "n_workers": SESSION_WORKERS,
        "sync_seconds": sync_elapsed,
        "async_seconds": async_elapsed,
        "sync_trials_per_sec": total / sync_elapsed,
        "async_trials_per_sec": total / async_elapsed,
        "speedup": sync_elapsed / async_elapsed,
        "parity": parity,
    }
    merge_benchmark_result(RESULT_PATH, {"async_measure_throughput": result})
    return result


# Marked slow to keep the load-sensitive timing assertion out of the quick
# `-m "not slow"` gates; CI runs it once by explicit path (takes ~0.5 s).
@pytest.mark.slow
def test_measure_throughput_parallel_vs_serial():
    result = run_measure_throughput()
    print("\n=== measurement throughput: measured trials/sec ===")
    print(f"candidates x build latency : {result['candidates']} x {BUILD_LATENCY*1e3:.0f}ms")
    print(f"serial builder (default)   : {result['serial_trials_per_sec']:.0f} trials/s")
    print(f"parallel builder (x{N_PARALLEL})    : {result['parallel_trials_per_sec']:.0f} trials/s")
    print(f"speedup                    : {result['speedup']:.1f}x")
    print(f"results merged into        : {RESULT_PATH.name}")
    assert result["parity"], "parallel-build costs diverged from the serial path"
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"parallel builder is only {result['speedup']:.2f}x the serial builder "
        f"(need >= {MIN_SPEEDUP}x)"
    )


@pytest.mark.slow
def test_async_session_overlap_vs_sync():
    result = run_async_session_throughput()
    total = result["rounds"] * result["round_size"]
    print("\n=== async measurement throughput: session overlap vs sync rounds ===")
    print(f"workload                    : {result['rounds']} rounds x {result['round_size']} "
          f"trials, {SESSION_LATENCY*1e3:.0f}ms device latency, "
          f"{SESSION_BREED_SEC*1e3:.0f}ms breeding/round")
    print(f"sync session (breed|measure): {result['sync_trials_per_sec']:.0f} trials/s")
    print(f"async session (x{SESSION_WORKERS} workers) : {result['async_trials_per_sec']:.0f} trials/s")
    print(f"speedup                     : {result['speedup']:.2f}x (gate >= {MIN_ASYNC_SPEEDUP}x)")
    print(f"results merged into         : {RESULT_PATH.name}")
    assert result["parity"], "async-session costs diverged from the sync path"
    assert result["speedup"] >= MIN_ASYNC_SPEEDUP, (
        f"async session overlap is only {result['speedup']:.2f}x the sync "
        f"schedule on {total} trials (need >= {MIN_ASYNC_SPEEDUP}x)"
    )


if __name__ == "__main__":
    test_measure_throughput_parallel_vs_serial()
    test_async_session_overlap_vs_sync()
