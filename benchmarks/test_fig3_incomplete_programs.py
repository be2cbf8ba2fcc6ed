"""Figure 3: a cost model trained on complete programs cannot rank
incomplete programs.

The paper trains a model on 20,000 random complete programs and evaluates
pairwise-comparison accuracy and top-k recall on programs whose trailing
decisions are masked out.  Here the same protocol runs at a reduced scale:
an "incomplete" program keeps only a prefix of its rewriting steps.  The
expected shape: both curves start near chance (0.5 pairwise accuracy, ~0
recall) at low completion rates and rise steeply as programs complete.
"""

import numpy as np
import pytest

from repro import SearchTask, intel_cpu
from repro.cost_model import LearnedCostModel
from repro.hardware import MeasureInput, MeasurePipeline
from repro.ir.state import State
from repro.search import generate_sketches, sample_initial_population
from repro.workloads import matmul

from harness import BENCH_TRIALS


COMPLETION_RATES = [0.2, 0.4, 0.6, 0.8, 1.0]
TOP_K = 8


def _truncate(state: State, fraction: float) -> State:
    keep = max(1, int(round(len(state.transform_steps) * fraction)))
    return State.from_steps(state.dag, [s.copy() for s in state.transform_steps[:keep]])


def _pairwise_accuracy(pred, truth, rng, pairs=400):
    idx = rng.choice(len(truth), size=(pairs, 2))
    correct = total = 0
    for a, b in idx:
        if truth[a] == truth[b]:
            continue
        total += 1
        correct += (truth[a] > truth[b]) == (pred[a] > pred[b])
    return correct / max(total, 1)


def _topk_recall(pred, truth, k=TOP_K):
    top_true = set(np.argsort(-truth)[:k])
    top_pred = set(np.argsort(-pred)[:k])
    return len(top_true & top_pred) / k


def run_figure3(n_programs=96, seed=0):
    task = SearchTask(matmul(512, 512, 512), intel_cpu(), desc="matmul512")
    rng = np.random.default_rng(seed)
    sketches = generate_sketches(task)
    states = sample_initial_population(task, sketches, n_programs, rng)
    measurer = MeasurePipeline(task.hardware_params, seed=seed)
    inputs = [MeasureInput(task, s) for s in states]
    results = measurer.measure(inputs)

    model = LearnedCostModel(n_rounds=25, seed=seed)
    model.update(inputs, results)

    truth = np.array([task.flop_count() / r.mean_cost for r in results])
    rows = []
    for rate in COMPLETION_RATES:
        partial = []
        for state in states:
            truncated = _truncate(state, rate)
            partial.append(truncated)
        pred = model.predict(task, partial)
        rows.append(
            {
                "completion_rate": rate,
                "pairwise_accuracy": _pairwise_accuracy(pred, truth, rng),
                "topk_recall": _topk_recall(np.asarray(pred), truth),
            }
        )
    return rows


@pytest.mark.benchmark(group="fig3")
def test_fig3_cost_model_on_incomplete_programs(benchmark):
    rows = benchmark.pedantic(run_figure3, rounds=1, iterations=1)
    print("\n=== Figure 3: cost model accuracy vs program completion rate ===")
    print(f"{'completion':>12s} {'pairwise acc':>14s} {'top-k recall':>14s}")
    for row in rows:
        print(f"{row['completion_rate']:>12.1f} {row['pairwise_accuracy']:>14.3f} {row['topk_recall']:>14.3f}")
    # Shape check: complete programs are ranked far better than barely
    # started ones (the paper's curves rise from ~0.5 / ~0 to ~0.95 / ~0.9).
    assert rows[-1]["pairwise_accuracy"] > rows[0]["pairwise_accuracy"]
    assert rows[-1]["pairwise_accuracy"] > 0.6
    assert rows[-1]["topk_recall"] >= rows[0]["topk_recall"]
