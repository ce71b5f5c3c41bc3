"""Workload definitions: which config, which methods, which seeds.

Every workload uses the committed batch-reactor plant
(``configs/batch_reactor.json``) with ``T = 60`` steps. The program sees
ordinary configs and ``etrmpc run`` arguments.
"""

import copy
import itertools
import json

import numpy as np

STEPS = 60
REFERENCE_SEED = 1234
CROSS_POLYTOPE_RADIUS = 0.02


class Workload:
    """One pass runs every method once per disturbance seed.

    The disturbance seeds are fixed: 1234 (the ROADMAP reference run),
    1235, ... Trigger counts differ from seed to seed by more than any
    regression bound could absorb (118 to 137 CP solves per pass over five
    drawn seed sets), so the benchmark seed does not choose them. It fixes
    the order of the runs in a pass instead, which must not change any
    output.
    """

    def __init__(self, name, methods, n_seeds, make_config):
        self.name = name
        self.methods = methods
        self.n_seeds = n_seeds
        self.make_config = make_config

    @property
    def seeds(self):
        return [REFERENCE_SEED + i for i in range(self.n_seeds)]

    def runs(self, seed):
        """(method, disturbance seed) pairs in the order ``seed`` gives."""
        pairs = [(m, s) for m in self.methods for s in self.seeds]
        order = np.random.default_rng(seed).permutation(len(pairs))
        return [pairs[i] for i in order]


def cross_polytope_rows(n, radius):
    """H-rep of {w : ||w||_1 <= radius}: one row per sign vector (2^n rows)."""
    A = [list(signs) for signs in itertools.product((1.0, -1.0), repeat=n)]
    return A, [radius] * len(A)


def reference_config(base):
    data = copy.deepcopy(base)
    data["steps"] = STEPS
    data["disturbance_model"] = {"kind": "uniform"}
    return data


def polytope_config(base):
    data = reference_config(base)
    A, b = cross_polytope_rows(len(data["x0"]), CROSS_POLYTOPE_RADIUS)
    data["sets"]["disturbance"] = {"A": A, "b": b}
    data["disturbance_model"] = {"kind": "worst_case"}
    return data


WORKLOADS = {
    w.name: w for w in (
        # The log-volume Newton of CP1/CP2 dominates. Each seed gives about
        # 40 triggers; 3 seeds keep a pass above 100.
        Workload("cp_reference", ("CP1", "CP2"), 3, reference_config),
        # No log-volume solve: QP, row assembly, shape diagnostic, LP IPM.
        # Each seed gives about 95 triggers; 2 seeds leave time for two
        # passes per run.
        Workload("lp_reference", ("LP1", "LP2", "periodic"), 2, reference_config),
        # Support LPs in setup and one worst-case LP per step. The worst
        # case is state-dependent, so its seeds change only the provenance.
        Workload("polytope_worst_case", ("LP2", "periodic"), 2, polytope_config),
    )
}


def load_base_config(path):
    with open(path) as fh:
        return json.load(fh)
