"""Carry the learned cost model across tuning sessions.

The paper's cost model (§5.2) learns from *every* measurement of a
session — but a fresh session historically started from an untrained
model and re-paid the whole learning curve.  This example walks the
:class:`repro.CostModelService` subsystem that fixes that:

1. **Cold session**: the first run trains its per-target model from
   scratch and persists it through ``TuningOptions(cost_model_path=...)``
   (booster, training set and RNG state — a reload predicts
   bit-identically).
2. **Warm session**: a second run on the same hardware target loads the
   file and searches with a trained model from trial one.
3. **Observability**: ``CostModelService.stats()`` (and the
   ``ProgressLogger`` end-of-session line) report samples ingested,
   retrains run vs skipped, and the model version per target.

Retraining is *windowed* — each refit trains on a bounded sample window
(``TuningOptions(cost_model_window=...)``) so the cost per update stays
flat as measurements accumulate.  The default window equals the
training-set cap, so by default every refit reads the whole retained
history.

Run with:  python examples/persistent_cost_model.py
"""

import tempfile
from pathlib import Path

from repro import CostModelService, ProgressLogger, SearchTask, Tuner, TuningOptions, intel_cpu
from repro.workloads import matmul_relu


def main():
    model_path = Path(tempfile.mkdtemp()) / "cost_model.pkl"
    task = SearchTask(matmul_relu(64, 64, 64), intel_cpu(), desc="matmul+relu 64")

    def options(seed):
        return TuningOptions(
            num_measure_trials=48,
            num_measures_per_round=8,
            seed=seed,
            cost_model_path=str(model_path),
        )

    # -- 1. cold session: train from scratch, persist at session end ------
    cold = Tuner(task, options=options(seed=0),
                 callbacks=[ProgressLogger()]).tune()
    print(f"cold session : {cold.num_trials} trials, best {cold.best_cost:.3e}s")
    print(f"model file   : {model_path} ({model_path.stat().st_size} bytes)\n")

    # -- 2. warm session: a new process loads the trained model -----------
    warm = Tuner(task, options=options(seed=1)).tune()
    print(f"warm session : {warm.num_trials} trials, best {warm.best_cost:.3e}s "
          "(searched with a trained model from trial one)\n")

    # -- 3. observability: what the service knows after two sessions ------
    service = CostModelService(path=model_path)
    for target, stats in service.stats()["targets"].items():
        print(f"{target}: {stats['samples']} retained samples, "
              f"model version v{stats['version']}")

    # other knobs, for completeness:
    #   TuningOptions(cost_model_retrain_interval=4)  - refit every 4th batch
    #   TuningOptions(cost_model_window=512)          - refit on 512 samples
    #       (None, the default, refits on the whole retained history)
    #   Tuner(task, cost_model_service=service)       - share one live
    #       service (and its per-target models) across sessions in-process


if __name__ == "__main__":
    main()
