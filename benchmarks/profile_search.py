"""Profile the search hot path (``make profile``).

Runs a small but complete evolutionary search — sketch generation, initial
population sampling, a trained cost model, mutation/crossover — under
cProfile and prints the top-25 functions by cumulative time.  Use this to
check where evaluated-states-per-second is going before optimizing.
"""

import argparse
import cProfile
import pstats
import sys

import numpy as np

from repro.cost_model import LearnedCostModel
from repro.hardware import MeasureInput, MeasurePipeline, intel_cpu
from repro.search import EvolutionarySearch, generate_sketches, sample_initial_population
from repro.task import SearchTask
from repro.workloads import matmul_relu


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--population", type=int, default=48, help="evolution population size"
    )
    parser.add_argument(
        "--generations", type=int, default=6, help="evolution generations"
    )
    args = parser.parse_args()

    task = SearchTask(matmul_relu(64, 64, 64), intel_cpu())
    rng = np.random.default_rng(0)
    population = sample_initial_population(
        task, generate_sketches(task), args.population, rng
    )
    measurer = MeasurePipeline(intel_cpu(), seed=0)
    inputs = [MeasureInput(task, s) for s in population[:16]]
    model = LearnedCostModel(seed=0)
    model.update(inputs, measurer.measure(inputs))

    evolution = EvolutionarySearch(
        task,
        model,
        population_size=args.population,
        num_generations=args.generations,
        seed=0,
    )

    profiler = cProfile.Profile()
    profiler.enable()
    best = evolution.search(population, num_best=8)
    profiler.disable()

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(25)
    print(f"evolution returned {len(best)} programs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
