"""Fleet-resilience benchmark: tuning throughput under a device fault storm.

PR 7 made the device pool *self-healing*: :class:`~repro.hardware.fleet.
DeviceFleet` learns a per-device fault profile online and a circuit breaker
quarantines boards whose estimated fault rate crosses a threshold, probing
them back in with canary runs.  This benchmark gates that machinery end to
end on the scenario it exists for — a board that silently degrades to a 50%
fault rate mid-fleet:

* **storm / breaker off**: a 3-device pool, one board faulting 50% of the
  time (injected *behind* a clean declared profile, so dispatch cannot
  know).  Every run attempt is charged an emulated device occupancy through
  the session's per-result latency callable — ``RUN_LATENCY`` per clean
  attempt and ``FAULT_PENALTY`` per faulted one (a fault burns a timeout
  window, not a run time).  Without the breaker the pool keeps feeding the
  bad board forever and pays the penalty on ~1 in 6 attempts.
* **storm / breaker on**: the same pool, same injected fault, same retry
  budget, with the circuit breaker enabled.  The estimator converges on the
  board's true fault rate within ``min_samples`` runs, the breaker
  quarantines it, and from then on the pool only pays for occasional canary
  probes.  The gate: measured trials/sec at least ``MIN_STORM_SPEEDUP``
  (2x) the breaker-off pool, and the session's best cost within
  ``BEST_COST_RTOL`` (5%) of a fully healthy pool's — robustness must cost
  retries, never result quality.
* **convergence**: a single board declared clean but actually faulting 50%
  of the time; after ``CONVERGENCE_TRIALS`` (100) trials the estimated
  fault rate must sit within ``CONVERGENCE_RTOL`` (20%) of the truth.
* **parity**: no faults, static pool — the breaker-on fleet must be
  bit-identical (costs, per-trial device placement) to the breaker-off
  pool, i.e. the resilience layer is free when nothing is failing.

Every pool measures its own freshly sampled batch of equal, unlowered
states (the input helper is seeded), so every pool lowers from cold.
Results merge into ``BENCH_search_throughput.json`` next to the search- and
measurement-throughput numbers.  Run directly or via ``make fleet-bench``.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.hardware import (
    CircuitBreakerConfig,
    DeviceState,
    LocalRunner,
    MeasureInput,
    MeasurePipeline,
    intel_cpu,
)
from repro.search import generate_sketches, sample_initial_population
from repro.task import SearchTask
from repro.workloads import matmul_relu

from harness import merge_benchmark_result

N_DEVICES = 3
STORM_TRIALS = 150
STORM_FAULT_RATE = 0.5  # the bad board's injected (undeclared) fault rate
RUN_LATENCY = 0.001  # emulated occupancy of a clean run attempt (seconds)
FAULT_PENALTY = 0.030  # a faulted attempt burns a timeout window (seconds)
N_RETRY = 4
MIN_STORM_SPEEDUP = 2.0
BEST_COST_RTOL = 0.05
CONVERGENCE_TRIALS = 100
CONVERGENCE_RTOL = 0.20
STORM_BREAKER = CircuitBreakerConfig(
    min_samples=5, probe_interval=32, n_probe=3, max_probe_failures=6, max_trips=1
)
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_search_throughput.json"


def _make_inputs(count):
    task = SearchTask(matmul_relu(64, 64, 64), intel_cpu())
    rng = np.random.default_rng(0)
    states = sample_initial_population(task, generate_sketches(task), count, rng)
    return [MeasureInput(task, s) for s in states]


def _attempt_latency(result):
    """Charge every attempt the board actually ran: clean attempts cost a
    run, faulted attempts cost the timeout window wasted discovering the
    fault.  The per-attempt ledger is what makes the charge honest under
    retries — the penalty lands however many times the fault fired."""
    return sum(
        RUN_LATENCY if attempt["error_no"] == 0 else FAULT_PENALTY
        for attempt in result.attempts
    )


def _storm_pool(circuit_breaker):
    runner = LocalRunner(
        intel_cpu(),
        devices=[f"dev{i}" for i in range(N_DEVICES)],
        seed=0,
        circuit_breaker=circuit_breaker,
    )
    return MeasurePipeline(intel_cpu(), runner=runner, n_retry=N_RETRY), runner


def _timed_session_measure(pipeline, inputs):
    start = time.perf_counter()
    with pipeline.session(async_=False, measure_latency_sec=_attempt_latency) as session:
        session.submit(inputs)
        results = session.drain()
    return results, time.perf_counter() - start


def run_fault_storm():
    """Breaker-on vs breaker-off throughput under one 50%-faulty board,
    plus best-cost parity against a fully healthy pool."""
    # Every pool measures its own batch: the seeded helper gives equal
    # programs in new, unlowered states, so every pool lowers from cold.
    inputs = _make_inputs(STORM_TRIALS)
    key = inputs[0].task.workload_key

    healthy_pipeline, _ = _storm_pool(circuit_breaker=None)
    healthy_results, _ = _timed_session_measure(healthy_pipeline, inputs)

    off_pipeline, off_runner = _storm_pool(circuit_breaker=None)
    off_runner.inject_profile("dev1", run_error_prob=STORM_FAULT_RATE)
    off_results, off_elapsed = _timed_session_measure(off_pipeline, _make_inputs(STORM_TRIALS))

    on_pipeline, on_runner = _storm_pool(circuit_breaker=STORM_BREAKER)
    on_runner.inject_profile("dev1", run_error_prob=STORM_FAULT_RATE)
    on_results, on_elapsed = _timed_session_measure(on_pipeline, _make_inputs(STORM_TRIALS))

    bad_stats = on_runner.device_stats()["dev1"]
    result = {
        "trials": STORM_TRIALS,
        "devices": N_DEVICES,
        "injected_fault_rate": STORM_FAULT_RATE,
        "run_latency_sec": RUN_LATENCY,
        "fault_penalty_sec": FAULT_PENALTY,
        "n_retry": N_RETRY,
        "breaker_off_seconds": off_elapsed,
        "breaker_on_seconds": on_elapsed,
        "breaker_off_trials_per_sec": STORM_TRIALS / off_elapsed,
        "breaker_on_trials_per_sec": STORM_TRIALS / on_elapsed,
        "speedup": off_elapsed / on_elapsed,
        "bad_device_state": bad_stats["state"],
        "bad_device_est_fault_rate": bad_stats["est_fault_rate"],
        "all_valid": all(r.valid for r in on_results),
        "best_cost_healthy": healthy_pipeline.best_cost[key],
        "best_cost_storm": on_pipeline.best_cost[key],
        "best_cost_off": off_pipeline.best_cost[key],
    }
    merge_benchmark_result(RESULT_PATH, {"fleet_fault_storm": result})
    return result


def run_convergence():
    """Estimated fault rate vs injected truth after CONVERGENCE_TRIALS."""
    runner = LocalRunner(intel_cpu(), devices=["solo"], seed=0)
    runner.inject_profile("solo", run_error_prob=STORM_FAULT_RATE)
    pipeline = MeasurePipeline(intel_cpu(), runner=runner)
    pipeline.measure(_make_inputs(CONVERGENCE_TRIALS))
    stats = runner.device_stats()["solo"]
    result = {
        "trials": CONVERGENCE_TRIALS,
        "injected_fault_rate": STORM_FAULT_RATE,
        "estimated_fault_rate": stats["est_fault_rate"],
        "relative_error": abs(stats["est_fault_rate"] - STORM_FAULT_RATE) / STORM_FAULT_RATE,
        "samples": stats["samples"],
    }
    merge_benchmark_result(RESULT_PATH, {"fleet_fault_convergence": result})
    return result


def run_no_fault_parity():
    """With no faults and a static pool, the breaker must be invisible:
    identical costs and identical per-trial device placement."""
    # each pool measures its own fresh batch of equal programs: both lower from cold
    plain_pipeline, _ = _storm_pool(circuit_breaker=None)
    plain = plain_pipeline.measure(_make_inputs(48))
    fleet_pipeline, fleet_runner = _storm_pool(circuit_breaker=STORM_BREAKER)
    fleet = fleet_pipeline.measure(_make_inputs(48))
    result = {
        "trials": len(plain),
        "cost_parity": [r.costs for r in plain] == [r.costs for r in fleet],
        "placement_parity": [r.device for r in plain] == [r.device for r in fleet],
        "all_healthy": all(
            entry["state"] == DeviceState.HEALTHY
            for entry in fleet_runner.device_stats().values()
        ),
    }
    merge_benchmark_result(RESULT_PATH, {"fleet_no_fault_parity": result})
    return result


# Marked slow to keep the load-sensitive timing assertions out of the quick
# `-m "not slow"` gates; CI runs it once by explicit path (takes ~2 s).
@pytest.mark.slow
def test_fault_storm_breaker_throughput_and_best_cost():
    result = run_fault_storm()
    print("\n=== fleet resilience: fault storm, breaker on vs off ===")
    print(f"pool                   : {result['devices']} devices, 1 faulting at "
          f"{result['injected_fault_rate']:.0%} (undeclared), "
          f"{result['trials']} trials, retry x{result['n_retry']}")
    print(f"attempt charges        : {RUN_LATENCY*1e3:.0f}ms clean / "
          f"{FAULT_PENALTY*1e3:.0f}ms faulted")
    print(f"breaker off            : {result['breaker_off_trials_per_sec']:.0f} trials/s")
    print(f"breaker on             : {result['breaker_on_trials_per_sec']:.0f} trials/s "
          f"(bad board: {result['bad_device_state']}, "
          f"est fault {result['bad_device_est_fault_rate']:.2f})")
    print(f"speedup                : {result['speedup']:.2f}x (gate >= {MIN_STORM_SPEEDUP}x)")
    print(f"best cost              : storm {result['best_cost_storm']:.3e} vs "
          f"healthy {result['best_cost_healthy']:.3e}")
    print(f"results merged into    : {RESULT_PATH.name}")
    assert result["all_valid"], "retries failed to recover every faulted trial"
    assert result["bad_device_state"] != DeviceState.HEALTHY, (
        "the breaker never took the 50%-faulty board out of rotation"
    )
    assert result["speedup"] >= MIN_STORM_SPEEDUP, (
        f"breaker-on pool is only {result['speedup']:.2f}x the breaker-off pool "
        f"under the fault storm (need >= {MIN_STORM_SPEEDUP}x)"
    )
    assert result["best_cost_storm"] == pytest.approx(
        result["best_cost_healthy"], rel=BEST_COST_RTOL
    ), "the fault storm degraded the session's best cost beyond tolerance"


@pytest.mark.slow
def test_fault_rate_estimate_converges():
    result = run_convergence()
    print("\n=== fleet resilience: fault-profile convergence ===")
    print(f"injected fault rate    : {result['injected_fault_rate']:.2f} (declared 0.00)")
    print(f"estimated after {result['trials']} runs: {result['estimated_fault_rate']:.3f} "
          f"({result['relative_error']:.0%} off, gate <= {CONVERGENCE_RTOL:.0%})")
    print(f"results merged into    : {RESULT_PATH.name}")
    assert result["relative_error"] <= CONVERGENCE_RTOL, (
        f"estimated fault rate {result['estimated_fault_rate']:.3f} is "
        f"{result['relative_error']:.0%} off the injected "
        f"{result['injected_fault_rate']} (need <= {CONVERGENCE_RTOL:.0%})"
    )


@pytest.mark.slow
def test_no_fault_static_pool_parity():
    result = run_no_fault_parity()
    print("\n=== fleet resilience: no-fault static-pool parity ===")
    print(f"trials                 : {result['trials']}")
    print(f"cost parity            : {result['cost_parity']}")
    print(f"placement parity       : {result['placement_parity']}")
    print(f"results merged into    : {RESULT_PATH.name}")
    assert result["all_healthy"]
    assert result["cost_parity"], "the breaker changed costs on a healthy pool"
    assert result["placement_parity"], "the breaker changed dispatch on a healthy pool"


if __name__ == "__main__":
    test_fault_storm_breaker_throughput_and_best_cost()
    test_fault_rate_estimate_converges()
    test_no_fault_static_pool_parity()
