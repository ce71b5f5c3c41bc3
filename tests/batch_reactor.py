"""Shared batch-reactor fixture data (the reference experiment system)."""

import importlib.util
import itertools
import json
from pathlib import Path

import numpy as np

from etrmpc.geometry import HyperRect, Polytope
from etrmpc.tightening import (PlantModel, build_setup, synthesize_nominal_gain,
                               synthesize_tightening_gains)

A = np.array([
    [1.08, -0.05, 0.29, -0.24],
    [-0.03, 0.81, 0.00, 0.03],
    [0.04, 0.19, 0.73, 0.24],
    [0.00, 0.19, 0.05, 0.91],
])
B = np.array([
    [0.00, -0.02],
    [0.26, 0.00],
    [0.08, -0.13],
    [0.08, -0.00],
])
X0 = np.array([1.5, 1.5, -1.5, 1.5])


def batch_plant():
    return PlantModel(
        A, B,
        X=HyperRect(-2.0 * np.ones(4), 2.0 * np.ones(4)),
        U=HyperRect(-2.0 * np.ones(2), 2.0 * np.ones(2)),
        W=HyperRect(-0.02 * np.ones(4), 0.02 * np.ones(4)),
        Tx=HyperRect(-0.5 * np.ones(4), 0.5 * np.ones(4)),
        Tu=HyperRect(-1.5 * np.ones(2), 1.5 * np.ones(2)),
        Xf=HyperRect(-0.2 * np.ones(4), 0.2 * np.ones(4)),
    )


_cache = {}


def batch_setup():
    if "setup" not in _cache:
        plant = batch_plant()
        F = synthesize_nominal_gain(plant, 2.0 * np.eye(4), 10.0 * np.eye(2))
        K = synthesize_tightening_gains(plant, M=4, N=10)
        _cache["setup"] = build_setup(plant, N=10, M=4, F=F, K=K,
                                      Q=2.0 * np.eye(4), R=np.eye(2))
    return _cache["setup"]


def cross_polytope_setup():
    """Batch reactor with the state target {x : ||x||_1 <= 1.6} as 16
    sign-vector rows."""
    plant = batch_plant()
    rows = np.array(list(itertools.product((1.0, -1.0), repeat=4)))
    plant = PlantModel(plant.A, plant.B, X=plant.X, U=plant.U, W=plant.W,
                       Tx=Polytope(rows, np.full(16, 1.6)), Tu=plant.Tu,
                       Xf=plant.Xf)
    F = synthesize_nominal_gain(plant, 2.0 * np.eye(4), 10.0 * np.eye(2))
    K = synthesize_tightening_gains(plant, M=4, N=10)
    return build_setup(plant, N=10, M=4, F=F, K=K, Q=2.0 * np.eye(4), R=np.eye(2))


ROOT = Path(__file__).resolve().parent.parent


def benchmark_workloads():
    """The benchmark's workload module, ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def polytope_worst_case_data():
    """Config data of the benchmark's polytope_worst_case workload: the
    reference experiment with W = {w : ||w||_1 <= 0.02} as 16 sign-vector
    rows and worst-case draws."""
    base = json.loads((ROOT / "configs" / "batch_reactor.json").read_text())
    return benchmark_workloads().polytope_config(base)


FAMILIES = ("U", "X", "TU", "TX")


def plant_set(setup, family):
    """The plant set of ``family`` (U, X, TU or TX), whose rows it keeps."""
    plant = setup.plant
    return {"U": plant.U, "X": plant.X, "TU": plant.Tu, "TX": plant.Tx}[family]


def stage_sets(setup, family):
    """The N tightened sets of ``family`` as polytopes: its rows with each
    row of its (N, m) offsets."""
    rows = plant_set(setup, family).A
    return [Polytope(rows, b) for b in getattr(setup, f"{family}_offsets")]
