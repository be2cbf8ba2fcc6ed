"""Search-hot-path microbenchmark: predicted states per second.

The paper's headline claim (§7.3) is search *efficiency*, so the speed at
which the searcher can score candidate programs with the learned cost model
is a first-class quantity.  This benchmark times the evolution-loop scoring
pattern — the same population re-scored over several generations, as the
evolution does with its surviving elites — through two pipelines:

* **seed**: the original per-row implementation — every state is re-lowered
  and re-featurized from scratch each generation, and the GBDT walks one
  row at a time in pure Python (``predict_rowwise``),
* **batched**: the memoized/vectorized pipeline — lowering and features
  memoized on each state, one stacked booster call per generation with
  vectorized tree traversal.  It scores a freshly sampled population (equal
  programs in new states that hold no memo), so its first generation lowers
  and featurizes from cold.

It asserts bit-level score parity between the two, requires the batched
pipeline to be at least 6x faster, and writes ``BENCH_search_throughput.json``
at the repo root as the tracked perf baseline.  No hardware measurement is
involved; only model inference is timed.

A further stage reports into the same baseline file:

* **train_throughput** — seconds per ``LearnedCostModel.update`` at 1k and
  5k accumulated training records, full-history refits (a window as long
  as the training-set cap) vs a 256-sample window (gated >= 3x at 5k),
  plus the best-cost-parity flag of a seeded tuning session per window
  (``make model-bench``).
"""

import time
from pathlib import Path

import numpy as np
import pytest

from harness import merge_benchmark_result
from repro.cost_model import LearnedCostModel
from repro.cost_model.features import extract_program_features
from repro.hardware import MeasureInput, MeasurePipeline, intel_cpu
from repro.search import generate_sketches, sample_initial_population
from repro.task import SearchTask
from repro.workloads import matmul_relu

GENERATIONS = 8
POPULATION = 40
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_search_throughput.json"


def _population(task):
    rng = np.random.default_rng(0)
    return sample_initial_population(task, generate_sketches(task), POPULATION, rng)


def _setup():
    task = SearchTask(matmul_relu(64, 64, 64), intel_cpu())
    population = _population(task)
    measurer = MeasurePipeline(intel_cpu(), seed=0)
    inputs = [MeasureInput(task, s) for s in population[:12]]
    model = LearnedCostModel(n_rounds=30, seed=0)
    model.update(inputs, measurer.measure(inputs))
    assert model.is_trained
    return task, model, population


def _seed_scores_one_round(model, population):
    """The pre-optimization evolution-generation scoring loop."""
    return np.array([
        float(model.booster.predict_rowwise(
            extract_program_features(state.copy())
        ).sum())
        for state in population
    ])


def run_throughput():
    task, model, population = _setup()
    n_evals = GENERATIONS * len(population)

    # --- seed per-row pipeline ------------------------------------------------
    start = time.perf_counter()
    for _ in range(GENERATIONS):
        seed_scores = _seed_scores_one_round(model, population)
    seed_elapsed = time.perf_counter() - start

    # --- batched/memoized pipeline -------------------------------------------
    population = _population(task)  # unlowered: the first generation lowers
    start = time.perf_counter()
    for _ in range(GENERATIONS):
        batched_scores = model.predict(task, population)
    batched_elapsed = time.perf_counter() - start

    parity = bool(np.allclose(batched_scores, seed_scores, rtol=0, atol=0))
    result = {
        "population": len(population),
        "generations": GENERATIONS,
        "states_scored": n_evals,
        "seed_seconds": seed_elapsed,
        "batched_seconds": batched_elapsed,
        "seed_states_per_sec": n_evals / seed_elapsed,
        "batched_states_per_sec": n_evals / batched_elapsed,
        "speedup": seed_elapsed / batched_elapsed,
        "parity": parity,
    }
    # Merge (not overwrite): benchmarks/test_measure_throughput.py writes its
    # measured-trials/sec section into the same baseline file.
    merge_benchmark_result(RESULT_PATH, result)
    return result


#: windowed-retraining stage: the measured programs of one update batch,
#: the window size and the parity-session budget.
#: The GBDT fit carries a large per-round constant (tree setup, binning,
#: ~30 boosting rounds) independent of row count, so the speedup saturates
#: as the window shrinks; 256 sits comfortably past the 3x gate while 1024
#: only reaches ~2.2x against the 5k-record full refit.
TRAIN_POPULATION = 128
#: the training-set cap of the timed models; a window this long refits
#: on the whole retained history
TRAIN_CAP = 5000
TRAIN_WINDOW = 256
PARITY_WINDOW = 64
PARITY_TRIALS = 96
PARITY_ROUND = 16


def _fill_model(model, inputs, results, target):
    """Grow the training set to ``target`` samples without timing the fits:
    retraining is deferred during the fill (this stage times one update at a
    given accumulated size, not the filling)."""
    interval = model.retrain_interval
    model.retrain_interval = 10 ** 9
    while model.num_samples < target - len(inputs):
        model.update(inputs, results)
    model.retrain_interval = interval
    model._updates_since_train = interval  # the next update retrains


def _best_cost_with_retrain(window):
    """Final best cost of one short seeded tuning session whose cost model
    retrains on ``window`` samples: ``None`` (the default window, longer
    than the session's history: full refits) or ``PARITY_WINDOW``, small
    enough (64) that the session's ~96 samples overflow it, so the model
    genuinely trains on a subset."""
    task = SearchTask(matmul_relu(64, 64, 64), intel_cpu())
    model = LearnedCostModel(n_rounds=8, retrain_window=window, seed=0)
    from repro import Tuner, TuningOptions

    result = Tuner(
        task,
        policy_kwargs={"cost_model": model},
        options=TuningOptions(
            num_measure_trials=PARITY_TRIALS,
            num_measures_per_round=PARITY_ROUND,
            seed=0,
        ),
    ).tune()
    return result.best_cost


def run_training_throughput():
    """Seconds per ``LearnedCostModel.update`` at 1k / 5k accumulated
    records, full-history refits vs a ``TRAIN_WINDOW``-sample window.

    The PR 8 incarnation of this stage pinned down the full-refit growth
    curve; the windowed retraining of the cost-model service is the lever
    that flattens it.  Both modes are timed on identical data (the full
    path is bit-identical to the historical per-round training), the
    windowed path must be >= 3x faster per update at 5k records, and a
    seeded tuning session per window records the best-cost-parity flag
    (windowed final best within 5% of the full-retrain session's).
    """
    task = SearchTask(matmul_relu(64, 64, 64), intel_cpu())
    rng = np.random.default_rng(0)
    population = sample_initial_population(
        task, generate_sketches(task), TRAIN_POPULATION, rng
    )
    measurer = MeasurePipeline(intel_cpu(), seed=0)
    inputs = [MeasureInput(task, s) for s in population]
    results = measurer.measure(inputs)

    timings = {}
    for mode, window in (("full", TRAIN_CAP), ("window", TRAIN_WINDOW)):
        model = LearnedCostModel(
            n_rounds=30,
            max_training_samples=TRAIN_CAP,
            retrain_window=window,
            seed=0,
        )
        timings[mode] = {}
        for target in (1000, 5000):
            _fill_model(model, inputs, results, target)
            start = time.perf_counter()
            model.update(inputs, results)
            timings[mode][target] = time.perf_counter() - start

    full_best = _best_cost_with_retrain(None)
    windowed_best = _best_cost_with_retrain(PARITY_WINDOW)

    result = {
        "batch_size": len(inputs),
        "window": TRAIN_WINDOW,
        "update_seconds_1k": timings["full"][1000],
        "update_seconds_5k": timings["full"][5000],
        "records_per_sec_1k": 1000 / timings["full"][1000],
        "records_per_sec_5k": 5000 / timings["full"][5000],
        "windowed_update_seconds_1k": timings["window"][1000],
        "windowed_update_seconds_5k": timings["window"][5000],
        "windowed_speedup_5k": timings["full"][5000] / timings["window"][5000],
        "parity_window": PARITY_WINDOW,
        "parity_trials": PARITY_TRIALS,
        "full_best_cost": full_best,
        "windowed_best_cost": windowed_best,
        "best_cost_parity": bool(windowed_best <= 1.05 * full_best),
    }
    merge_benchmark_result(RESULT_PATH, {"train_throughput": result})
    return result


# Marked slow to keep the load-sensitive timing assertion out of the quick
# `-m "not slow"` gates; CI runs it once by explicit path (takes ~1 s).
@pytest.mark.slow
def test_search_throughput_batched_vs_seed():
    result = run_throughput()
    print("\n=== search throughput: predicted states/sec ===")
    print(f"population x generations : {result['population']} x {result['generations']}")
    print(f"seed per-row pipeline    : {result['seed_states_per_sec']:.0f} states/s")
    print(f"batched/cached pipeline  : {result['batched_states_per_sec']:.0f} states/s")
    print(f"speedup                  : {result['speedup']:.1f}x")
    print(f"results written to       : {RESULT_PATH.name}")
    assert result["parity"], "batched scores diverged from the per-row reference"
    assert result["speedup"] >= 6.0, (
        f"batched pipeline is only {result['speedup']:.2f}x the seed path (need >= 6x)"
    )


@pytest.mark.slow
def test_training_throughput():
    result = run_training_throughput()
    print("\n=== cost-model training: seconds per update (full vs windowed) ===")
    print(f"full refit at 1k records : {result['update_seconds_1k']:.3f} s")
    print(f"full refit at 5k records : {result['update_seconds_5k']:.3f} s")
    print(f"windowed at 1k records   : {result['windowed_update_seconds_1k']:.3f} s")
    print(f"windowed at 5k records   : {result['windowed_update_seconds_5k']:.3f} s")
    print(f"windowed speedup at 5k   : {result['windowed_speedup_5k']:.1f}x (gate 3x)")
    print(
        f"best cost (full/window)  : {result['full_best_cost']:.3e} / "
        f"{result['windowed_best_cost']:.3e} (parity={result['best_cost_parity']})"
    )
    assert result["update_seconds_1k"] > 0 and result["update_seconds_5k"] > 0
    # Tracking ceiling kept from PR 8: retraining must stay usable.
    assert result["update_seconds_5k"] < 60.0, (
        f"cost-model retraining at 5k records took {result['update_seconds_5k']:.1f}s"
    )
    assert result["windowed_speedup_5k"] >= 3.0, (
        f"windowed retraining is only {result['windowed_speedup_5k']:.2f}x the "
        "full refit at 5k records (need >= 3x)"
    )
    assert result["best_cost_parity"], (
        f"windowed-retrain session's best ({result['windowed_best_cost']:.3e}s) "
        f"fell more than 5% behind the full-retrain session's "
        f"({result['full_best_cost']:.3e}s)"
    )
