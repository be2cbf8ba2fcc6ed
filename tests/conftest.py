"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import te
from repro.hardware import CostSimulator, MeasureInput, MeasurePipeline, intel_cpu
from repro.task import SearchTask
from repro.workloads import matmul, matmul_relu


def make_matmul_dag(m=64, n=64, k=64):
    return matmul(m, n, k)


def make_matmul_relu_dag(m=64, n=64, k=64):
    return matmul_relu(m, n, k)


def measure_one_round(policy, num_measures, measurer):
    """Drive one search round by hand: propose, measure the batch, ingest.
    Returns ``(inputs, results)``; both empty when nothing was proposed."""
    states = policy.propose_candidates(num_measures)
    if not states:
        return [], []
    inputs = [MeasureInput(policy.task, state) for state in states]
    results = measurer.measure(inputs)
    policy.ingest_results(inputs, results)
    return inputs, results


def make_norm_dag(batch=4, m=128, n=128):
    A = te.placeholder((batch, m, n), name="A")
    ri = te.reduce_axis(m, "ri")
    rj = te.reduce_axis(n, "rj")
    S = te.compute((batch,), lambda b: te.sum_expr(A[b, ri, rj] * A[b, ri, rj], [ri, rj]), name="S")
    N = te.compute((batch,), lambda b: te.Call("sqrt", [S[b]]), name="N")
    return te.ComputeDAG([N])


@pytest.fixture
def matmul_dag():
    return make_matmul_dag()


@pytest.fixture
def matmul_relu_dag():
    return make_matmul_relu_dag()


@pytest.fixture
def norm_dag():
    return make_norm_dag()


@pytest.fixture
def small_matmul_relu_dag():
    return make_matmul_relu_dag(8, 8, 8)


@pytest.fixture
def intel_hardware():
    return intel_cpu()


@pytest.fixture
def simulator(intel_hardware):
    return CostSimulator(intel_hardware)


@pytest.fixture
def measurer(intel_hardware):
    return MeasurePipeline(intel_hardware, seed=0)


@pytest.fixture
def matmul_relu_task(matmul_relu_dag, intel_hardware):
    return SearchTask(matmul_relu_dag, intel_hardware, desc="matmul+relu 64")


@pytest.fixture
def matmul_task(matmul_dag, intel_hardware):
    return SearchTask(matmul_dag, intel_hardware, desc="matmul 64")


@pytest.fixture
def rng():
    return np.random.default_rng(0)
