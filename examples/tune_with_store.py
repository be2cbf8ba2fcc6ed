"""Tune once, serve forever: the persistent schedule store.

An auto-scheduler's search is expensive, but its product — the best
schedule per (workload, hardware target) — is a small, reusable artifact.
This example walks the three consumer paths of
:class:`repro.ScheduleStore`:

1. **Cold tune**: a first session searches normally; a ``StoreWriter``
   streams every new best into the store as it lands.
2. **Instant hit**: a second session for the *same* workload and target
   returns the cached best without consuming a single measurement trial.
3. **Warm start**: a session for a *resized* workload (same DAG structure,
   different extents) misses the store but seeds its first search round
   from the stored best — the transferred schedule is measured before any
   unproven candidate.

Run with:  python examples/tune_with_store.py
"""

import tempfile
from pathlib import Path

from repro import ScheduleStore, SearchTask, Tuner, TuningOptions, intel_cpu
from repro.workloads import matmul_relu

OPTIONS = TuningOptions(num_measure_trials=32, num_measures_per_round=8)


def main():
    store_path = Path(tempfile.mkdtemp()) / "schedules.jsonl"
    hardware = intel_cpu()
    task = SearchTask(matmul_relu(64, 64, 64), hardware, desc="matmul+relu 64")

    # -- 1. cold tune: search, stream bests into the store ----------------
    store = ScheduleStore(store_path)
    cold = Tuner(task, options=OPTIONS, store=store).tune()
    print(f"cold session : {cold.num_trials} trials, "
          f"best {cold.best_cost:.3e}s  (store now holds {len(store)} entries)")

    # -- 2. instant hit: same workload, zero trials -----------------------
    # A fresh store object on the same path stands in for a new process.
    hit = Tuner(task, options=OPTIONS, store=ScheduleStore(store_path)).tune()
    print(f"second run   : {hit.num_trials} trials, best {hit.best_cost:.3e}s, "
          f"from_store={hit.from_store}")
    assert hit.from_store and hit.num_trials == 0
    assert str(hit.best_state) == str(cold.best_state)

    # -- 3. warm start: resized workload, store-seeded first round --------
    resized = SearchTask(matmul_relu(128, 128, 128), hardware,
                         desc="matmul+relu 128")
    # Same structure class (shape-erased DAG hash), different fingerprint:
    # the store misses, but the search warm-starts from the 64^3 best.
    assert resized.structure_key == task.structure_key
    warm = Tuner(resized, options=OPTIONS, store=ScheduleStore(store_path)).tune()
    print(f"resized run  : {warm.num_trials} trials, best {warm.best_cost:.3e}s, "
          f"from_store={warm.from_store} (warm-started, then searched)")

    # escape hatch, for completeness:
    #   TuningOptions(store_refresh=True)    - ignore hits, re-tune
    #                                          (still warm-started)
    print(f"\nstore file   : {store_path}")
    print("segment lines:", ScheduleStore(store_path).segment_lines,
          "(append-on-new-best; compact() drops superseded lines)")


if __name__ == "__main__":
    main()
