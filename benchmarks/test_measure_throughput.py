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

A second stage gates the remote backend: the same batch through

* **thread**: ``LocalBuilder`` with ``N_PARALLEL`` threads,
* **rpc**: :class:`~repro.hardware.rpc.RpcBuilder` with ``N_PARALLEL``
  worker processes,

this time with a *CPU-bound* emulated compile cost (``RPC_BUILD_CPU`` of
burned CPU time per candidate — in-process IR passes, which the GIL
serializes across threads but worker processes genuinely parallelize).  On
a multi-core host the process pool must be at least as fast as the thread
pool; on a single-core host true parallelism is physically unavailable for
either pool, so the gate only bounds the process pool's dispatch overhead.
Both pools are warmed (worker start-up and lowering caches) before timing,
so the gate compares steady-state dispatch, the regime a tuning session
lives in.

A third stage gates the asynchronous session overlap (PR 5): the same
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

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.codegen.lowering import clear_lowering_cache
from repro.hardware import LocalBuilder, MeasureInput, MeasurePipeline, RpcBuilder, intel_cpu
from repro.search import generate_sketches, sample_initial_population
from repro.task import SearchTask
from repro.workloads import matmul_relu

from harness import merge_benchmark_result

N_CANDIDATES = 24
N_PARALLEL = 8
TIMING_REPEATS = 3  # best-of-N timing for the load-sensitive speedup gates
BUILD_LATENCY = 0.008  # emulated per-candidate compile cost (seconds)
MIN_SPEEDUP = 2.0
RPC_BUILD_CPU = 0.004  # emulated CPU-bound compile cost (seconds, burned)
# True parallelism needs >1 core; a single-core host can only gate overhead.
MIN_RPC_SPEEDUP = 1.0 if (os.cpu_count() or 1) > 1 else 0.6
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


def _timed_measure(pipeline, inputs, repeats=1, reset=None):
    """Time ``pipeline.measure(inputs)``; with ``repeats`` > 1, best-of-N.

    The minimum over repeats is the standard noise-robust estimator for a
    capability ratio: a single-shot measurement folds in transient host
    load, which on a contended single-core host can halve a measurement
    without saying anything about steady-state throughput.  ``reset`` runs
    before each repeat — the process-pool stage uses it to recycle and
    re-warm its worker pool, because the *first* pool forked from a
    large parent (late in a long test session) pays fork/copy-on-write
    amortization on every dispatch; fresh workers reach steady state.
    Costs are seeded per program, so every repeat returns bit-identical
    results and the parity checks are unaffected.
    """
    best = None
    results = None
    for _ in range(repeats):
        if reset is not None:
            reset()
        clear_lowering_cache()  # both paths lower from cold, no cross-talk
        start = time.perf_counter()
        results = pipeline.measure(inputs)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return results, best


def run_measure_throughput():
    inputs = _make_inputs()
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
    serial_results, serial_elapsed = _timed_measure(serial, inputs, TIMING_REPEATS)
    parallel_results, parallel_elapsed = _timed_measure(parallel, inputs, TIMING_REPEATS)

    parity = [r.costs for r in serial_results] == [r.costs for r in parallel_results]
    result = {
        "candidates": len(inputs),
        "n_parallel": N_PARALLEL,
        "build_latency_sec": BUILD_LATENCY,
        "serial_seconds": serial_elapsed,
        "parallel_seconds": parallel_elapsed,
        "serial_trials_per_sec": len(inputs) / serial_elapsed,
        "parallel_trials_per_sec": len(inputs) / parallel_elapsed,
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


def run_rpc_throughput():
    """The rpc-vs-local stage: process-pool vs thread-pool builds on a
    CPU-bound emulated compile cost, both pools warmed before timing."""
    inputs = _make_inputs()
    thread = MeasurePipeline(
        intel_cpu(),
        builder=LocalBuilder(n_parallel=N_PARALLEL, build_cpu_sec=RPC_BUILD_CPU),
        seed=0,
    )
    rpc = MeasurePipeline(
        intel_cpu(),
        builder=RpcBuilder(n_parallel=N_PARALLEL, build_cpu_sec=RPC_BUILD_CPU),
        seed=0,
    )
    def _recycle_rpc_pool():
        # A process pool forked from a large parent (this file runs inside
        # a long pytest session) pays copy-on-write page-table cost on every
        # dispatch to the *first* pool; fresh workers reach steady state.
        # Recycle and re-warm the pool before each timed repeat so the
        # best-of-N measures dispatch throughput, not fork amortization.
        rpc.builder.close()
        rpc.measure(inputs)

    try:
        # Warm-up pass: spawns the worker processes and fills the lowering
        # caches (parent-side for threads, worker-side for rpc), so the
        # timed pass compares steady-state dispatch on both paths.
        thread.measure(inputs)
        thread_results, thread_elapsed = _timed_measure(thread, inputs, TIMING_REPEATS)
        rpc_results, rpc_elapsed = _timed_measure(
            rpc, inputs, TIMING_REPEATS, reset=_recycle_rpc_pool
        )
    finally:
        rpc.builder.close()

    parity = [r.costs for r in thread_results] == [r.costs for r in rpc_results]
    result = {
        "candidates": len(inputs),
        "n_parallel": N_PARALLEL,
        "build_cpu_sec": RPC_BUILD_CPU,
        "cpu_count": os.cpu_count() or 1,
        "thread_seconds": thread_elapsed,
        "rpc_seconds": rpc_elapsed,
        "thread_trials_per_sec": len(inputs) / thread_elapsed,
        "rpc_trials_per_sec": len(inputs) / rpc_elapsed,
        "speedup": thread_elapsed / rpc_elapsed,
        "parity": parity,
    }
    merge_benchmark_result(RESULT_PATH, {"rpc_measure_throughput": result})
    return result


def run_async_session_throughput():
    """The async-overlap stage: one-round-lookahead pipelining through an
    async MeasureSession vs the breed-submit-drain sync schedule, on a
    workload whose slept per-run device latency dominates."""
    inputs = _make_inputs(SESSION_ROUNDS * SESSION_ROUND_SIZE)
    rounds = [
        inputs[i * SESSION_ROUND_SIZE : (i + 1) * SESSION_ROUND_SIZE]
        for i in range(SESSION_ROUNDS)
    ]

    sync_pipeline = MeasurePipeline(intel_cpu(), seed=0)
    clear_lowering_cache()
    sync_results = []
    start = time.perf_counter()
    with sync_pipeline.session(async_=False, measure_latency_sec=SESSION_LATENCY) as session:
        for batch in rounds:
            time.sleep(SESSION_BREED_SEC)  # the searcher breeding this round
            session.submit(batch)
            sync_results.extend(session.drain())  # devices run, searcher idles
    sync_elapsed = time.perf_counter() - start

    async_pipeline = MeasurePipeline(intel_cpu(), seed=0)
    clear_lowering_cache()
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

    total = len(inputs)
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
def test_rpc_builder_vs_thread_builder():
    result = run_rpc_throughput()
    print("\n=== rpc measurement throughput: process pool vs thread pool ===")
    print(f"candidates x cpu-bound cost: {result['candidates']} x {RPC_BUILD_CPU*1e3:.0f}ms "
          f"({result['cpu_count']} cores)")
    print(f"thread-pool builder (x{N_PARALLEL})  : {result['thread_trials_per_sec']:.0f} trials/s")
    print(f"process-pool builder (x{N_PARALLEL}) : {result['rpc_trials_per_sec']:.0f} trials/s")
    print(f"speedup                     : {result['speedup']:.2f}x (gate >= {MIN_RPC_SPEEDUP}x)")
    print(f"results merged into         : {RESULT_PATH.name}")
    assert result["parity"], "rpc-build costs diverged from the thread-pool path"
    assert result["speedup"] >= MIN_RPC_SPEEDUP, (
        f"process-pool builder is only {result['speedup']:.2f}x the thread-pool "
        f"builder (need >= {MIN_RPC_SPEEDUP}x on {result['cpu_count']} core(s))"
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
    test_rpc_builder_vs_thread_builder()
    test_async_session_overlap_vs_sync()
