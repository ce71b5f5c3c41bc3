import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from etrmpc import solver, tightening
from etrmpc.cli import ExperimentConfig
from etrmpc.geometry import HyperRect, Polytope, are_empty, supports
from etrmpc.tightening import (NILPOTENCY_TOL, RICCATI_TOL, EmptyTightenedSet,
                               NilpotencyFailure, PlantModel, TerminalAssumptionViolated,
                               build_setup, is_controllable, synthesize_nominal_gain,
                               synthesize_tightening_gains)

from batch_reactor import (FAMILIES, ROOT, batch_plant, batch_setup, plant_set,
                           polytope_worst_case_data, stage_sets)
from oracles import deadbeat_erosion, highs_min_erosion


# Prints, pickled, the bytes of what config.build() gives for a config file.
BUILD_BYTES = """
import json, pickle, sys
from etrmpc.cli import ExperimentConfig
setup = ExperimentConfig(json.load(open(sys.argv[1]))).build()
arrays = {"F": setup.F, "principal_rows.G": setup.principal_rows.G,
          **{f"K[{i}]": k for i, k in enumerate(setup.K)},
          **{name: getattr(setup, name) for name in
             ("U_offsets", "X_offsets", "TU_offsets", "TX_offsets")}}
pickle.dump({k: (a.shape, a.tobytes()) for k, a in arrays.items()}, sys.stdout.buffer)
"""


def simple_plant(W_half=0.05):
    A = np.array([[1.1, 0.4], [0.0, 0.9]])
    B = np.array([[0.0], [1.0]])
    return PlantModel(
        A, B,
        X=HyperRect([-3.0, -3.0], [3.0, 3.0]),
        U=HyperRect([-3.0], [3.0]),
        W=HyperRect([-W_half, -W_half], [W_half, W_half]),
        Tx=HyperRect([-1.0, -1.0], [1.0, 1.0]),
        Tu=HyperRect([-2.0], [2.0]),
        Xf=HyperRect([-0.3, -0.3], [0.3, 0.3]),
    )


def check_riccati(A, B, Q, R, F):
    """F is the gain of the Riccati solution P, which satisfies the
    equation to RICCATI_TOL max(1, max|P|), and F matches the gain of
    scipy's DARE solution. On 12,000 random plants drawn as in
    ``test_random_controllable_pairs_stabilized`` (seeds 1, 77, 5 and 6),
    all but 4 meet that residual bound, and on those the largest entry's
    gap to scipy was at most 1.3e-9 of scipy's largest entry; on the batch
    reactor it is 1e-14. The 4 others are ill-conditioned, and
    ``_riccati`` scales their bound by 1 + |A + BF|^2 (see
    ``test_ill_conditioned_pairs_stabilized``)."""
    P, gain = tightening._riccati(A, B, Q, R)
    assert gain.tobytes() == F.tobytes()
    BtPA = B.T @ P @ A
    residual = Q + A.T @ P @ A - BtPA.T @ np.linalg.solve(R + B.T @ P @ B, BtPA) - P
    assert np.max(np.abs(residual)) <= RICCATI_TOL * max(1.0, np.max(np.abs(P)))
    scipy_linalg = pytest.importorskip("scipy.linalg")
    X = scipy_linalg.solve_discrete_are(A, B, Q, R)
    want = -np.linalg.solve(R + B.T @ X @ B, B.T @ X @ A)
    assert np.max(np.abs(F - want)) <= 1e-8 * np.max(np.abs(want))


class TestNominalGain:
    def test_scalar_riccati(self):
        plant = PlantModel(
            [[0.5]], [[1.0]],
            X=HyperRect([-1.0], [1.0]), U=HyperRect([-1.0], [1.0]),
            W=HyperRect([-0.01], [0.01]), Tx=HyperRect([-0.5], [0.5]),
            Tu=HyperRect([-0.5], [0.5]), Xf=HyperRect([-0.1], [0.1]))
        F = synthesize_nominal_gain(plant, [[1.0]], [[1.0]])
        assert abs(0.5 + F[0, 0]) < 0.5  # |A + BF| < |A|

    def test_batch_reactor_stabilized(self):
        plant = batch_plant()
        Q, R = 2.0 * np.eye(4), 10.0 * np.eye(2)
        F = synthesize_nominal_gain(plant, Q, R)
        eigs = np.linalg.eigvals(plant.A + plant.B @ F)
        assert np.max(np.abs(eigs)) < 1.0
        check_riccati(plant.A, plant.B, Q, R, F)

    def test_random_controllable_pairs_stabilized(self):
        rng = np.random.default_rng(77)
        done = 0
        while done < 10:
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            A = rng.normal(size=(n, n))
            B = rng.normal(size=(n, m))
            if not is_controllable(A, B):
                continue
            plant = _wide_plant(A, B)
            F = synthesize_nominal_gain(plant, np.eye(n), np.eye(m))
            assert np.max(np.abs(np.linalg.eigvals(A + B @ F))) < 1.0
            check_riccati(A, B, np.eye(n), np.eye(m), F)
            done += 1

    # Draws, by seed and index among the controllable pairs drawn as in
    # test_random_controllable_pairs_stabilized, with a nearly uncontrollable
    # mode: max|P| is 3e4-2e9, and Riccati rounding alone leaves residuals
    # above RICCATI_TOL max(1, max|P|). Found among 12,000 draws.
    ILL_CONDITIONED_DRAWS = {1: (489, 1646, 2949, 2982, 3136),
                             77: (274, 1497, 1517, 1921, 2194, 2308, 3361),
                             5: (853, 1252, 1659, 1715), 6: (37, 1023, 1450)}

    @pytest.mark.parametrize("seed", sorted(ILL_CONDITIONED_DRAWS))
    def test_ill_conditioned_pairs_stabilized(self, seed):
        """Each gain stabilizes and is within 1e-6 of scipy's DARE gain,
        relative to its largest entry (scipy's own answer is off by up to
        1.9e-7 on these, measured against a 60-digit Newton solve)."""
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(seed)
        wanted = self.ILL_CONDITIONED_DRAWS[seed]
        index = 0
        while index <= wanted[-1]:
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            A = rng.normal(size=(n, n))
            B = rng.normal(size=(n, m))
            if not is_controllable(A, B):
                continue
            if index in wanted:
                F = synthesize_nominal_gain(_wide_plant(A, B), np.eye(n), np.eye(m))
                assert np.max(np.abs(np.linalg.eigvals(A + B @ F))) < 1.0
                X = scipy_linalg.solve_discrete_are(A, B, np.eye(n), np.eye(m))
                want = -np.linalg.solve(np.eye(m) + B.T @ X @ B, B.T @ X @ A)
                assert np.max(np.abs(F - want)) <= 1e-6 * np.max(np.abs(want))
            index += 1

    def test_rejects_indefinite_weights(self):
        with pytest.raises(ValueError):
            synthesize_nominal_gain(simple_plant(), [[1.0, 0.0], [0.0, -1.0]],
                                    [[1.0]])


class TestTighteningGains:
    def test_already_nilpotent_gives_zero_gains(self):
        A = np.array([[0.0, 0.0], [1.0, 0.0]])
        B = np.array([[1.0], [0.0]])
        plant = _wide_plant(A, B)
        K = synthesize_tightening_gains(plant, M=2)
        assert all(np.all(k == 0) for k in K)

    def test_scalar_exact_cancellation(self):
        plant = PlantModel(
            [[2.0]], [[1.0]],
            X=HyperRect([-1.0], [1.0]), U=HyperRect([-4.0], [4.0]),
            W=HyperRect([-0.01], [0.01]), Tx=HyperRect([-0.5], [0.5]),
            Tu=HyperRect([-0.5], [0.5]), Xf=HyperRect([-0.1], [0.1]))
        K = synthesize_tightening_gains(plant, M=1)
        assert K[0][0, 0] == pytest.approx(-2.0, abs=1e-9)
        assert abs((2.0 + K[0][0, 0])) <= 1e-9  # L_1 = 0

    def test_batch_reactor_nilpotency(self):
        plant = batch_plant()
        K = synthesize_tightening_gains(plant, M=4, N=10)
        assert len(K) == 9
        L = np.eye(4)
        for i in range(4):
            L = (plant.A + plant.B @ K[i]) @ L
        assert np.linalg.norm(L, "fro") <= 1e-8
        assert all(np.all(k == 0) for k in K[4:])

    def test_stiff_pair_needs_chain(self):
        # Greedy one-step least squares stalls on this pair; the
        # construction must still certify nilpotency.
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.array([[0.0], [1.0]])
        plant = _wide_plant(A, B)
        K = synthesize_tightening_gains(plant, M=2)
        L = (A + B @ K[1]) @ (A + B @ K[0])
        assert np.linalg.norm(L, "fro") <= 1e-8

    def test_random_controllable_pairs(self):
        rng = np.random.default_rng(123)
        done = 0
        while done < 15:
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            A = rng.normal(size=(n, n))
            B = rng.normal(size=(n, m))
            if not is_controllable(A, B):
                continue
            plant = _wide_plant(A, B)
            K = synthesize_tightening_gains(plant, M=n)
            L = np.eye(n)
            for i in range(n):
                L = (A + B @ K[i]) @ L
            assert np.linalg.norm(L, "fro") <= 1e-8
            done += 1

    @staticmethod
    def fallback_gains(plant, M, monkeypatch):
        """The gains of ``plant``, asserting that the subspace-chain
        fallback made them."""
        calls, chain = [], tightening._subspace_chain_gains
        monkeypatch.setattr(tightening, "_subspace_chain_gains",
                            lambda *a: calls.append(1) or chain(*a))
        K = synthesize_tightening_gains(plant, M=M)
        assert calls == [1]
        L = np.eye(plant.nx)
        for i in range(M):
            L = (plant.A + plant.B @ K[i]) @ L
        return np.linalg.norm(L, "fro")

    def test_fallback_when_schedule_not_realizable(self, monkeypatch):
        # Of 200 controllable plants drawn this way, draws 5, 11, 83, 115
        # and 132 (all with two inputs) have a min-erosion schedule that no
        # state feedback realizes; draw 5 is the first.
        rng = np.random.default_rng(0)
        for _ in range(6):
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            A, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
        assert (n, m) == (3, 2)
        assert self.fallback_gains(_wide_plant(A, B), n, monkeypatch) <= NILPOTENCY_TOL

    def test_fallback_when_no_schedule(self, monkeypatch):
        # The fallback's gains on the reference plant are nilpotent but not
        # minimum-erosion (build_setup then finds an empty tightened set).
        monkeypatch.setattr(tightening, "_min_erosion_schedule", lambda *a: None)
        assert self.fallback_gains(batch_plant(), 4, monkeypatch) <= NILPOTENCY_TOL

    def test_min_erosion_objective_matches_highs(self, monkeypatch):
        # The LP is one QpProblem with H = 0 whose Newton step eliminates the
        # bound columns block by block. On the batch plant that is 87 of its
        # 119 variables, in 4 blocks of 9 (|Theta_i| and t_i) and 3 of 17
        # (|L_i| and s_i), so the matrix factorized is 48 x 48: theta's 32
        # columns and the 16 equality rows.
        pytest.importorskip("scipy")
        problems, solve_qp = [], solver.solve_qp
        monkeypatch.setattr(solver, "solve_qp",
                            lambda p, g, b: problems.append(p) or solve_qp(p, g, b))
        plant = batch_plant()
        pairs = [(plant.A, plant.B)]
        rng = np.random.default_rng(31)
        while len(pairs) < 11:
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            A, B = rng.normal(size=(n, n)), rng.normal(size=(n, m))
            if is_controllable(A, B):
                pairs.append((A, B))
        for A, B in pairs:
            M = A.shape[0]
            thetas = tightening._min_erosion_schedule(A, B, M)
            assert thetas is not None
            (lp,) = problems
            assert not lp.H.any()
            if A is plant.A:
                newton = lp._newton
                assert newton.S.size == 87
                assert sorted(cols.shape for cols, *_ in newton._groups) == [(3, 17), (4, 9)]
                d = np.ones(len(lp.A_in))
                assert newton.matrix(lp.H, lp.A_in, d, 1.0)[0].shape == (48, 48)
            problems.clear()
            objective, deadbeat_residual = deadbeat_erosion(A, B, thetas)
            assert deadbeat_residual <= 1e-8
            assert abs(objective - highs_min_erosion(A, B, M)) <= 1e-7

    def test_m_below_state_dimension_rejected(self):
        with pytest.raises(ValueError):
            synthesize_tightening_gains(simple_plant(), M=1)


class TestBuildSetup:
    def test_zero_disturbance_keeps_sets(self):
        plant = simple_plant(W_half=0.0)
        setup = _build(plant)
        for i in range(setup.N):
            assert np.allclose(setup.X_offsets[i], setup.X_offsets[0])
            assert np.allclose(setup.U_offsets[i], setup.U_offsets[0])

    def test_first_step_box_erosion_closed_form(self):
        # X_1 = X_0 erode W regardless of K (L_0 = I).
        plant = simple_plant(W_half=0.02)
        setup = _build(plant)
        assert np.allclose(setup.X_offsets[1], setup.X_offsets[0] - 0.02, atol=1e-12)

    def test_batch_reactor_setup(self):
        setup = batch_setup()
        assert setup.report["nilpotency_residual"] <= 1e-8
        for m in ("terminal_in_tight_state", "terminal_input_in_tight_input"):
            assert setup.report["margins"][m] >= 0.0
        for family in FAMILIES:
            for b in getattr(setup, f"{family}_offsets"):
                assert not are_empty(plant_set(setup, family).A, b)[0]

    def test_nesting_along_facets(self):
        setup = _build(simple_plant())
        for seq in (stage_sets(setup, family) for family in FAMILIES):
            for i in range(len(seq) - 1):
                for r in range(seq[i].A.shape[0]):
                    hi = supports(seq[i], seq[i].A[r])[0]
                    lo = supports(seq[i + 1], seq[i].A[r])[0]
                    assert lo <= hi + 1e-9

    def test_tilde_sequences(self):
        setup = _build(simple_plant())
        A, B = setup.plant.A, setup.plant.B
        assert np.all(setup.Ktilde[0] == 0)
        for i in range(setup.N - 1):
            assert np.array_equal(setup.Ktilde[i + 1], setup.K[i])
        assert np.array_equal(setup.Ltilde[0], np.eye(2))
        for i in range(setup.N):
            expect = (A + B @ setup.Ktilde[i]) @ setup.Ltilde[i]
            if i >= setup.M:
                assert np.all(setup.Ltilde[i + 1] == 0)
            else:
                assert np.allclose(setup.Ltilde[i + 1], expect, atol=1e-12)

    def test_post_m_transitions_vanish(self):
        setup = _build(simple_plant())
        for i in range(setup.M, setup.N):
            assert np.all(setup.L[i] == 0)
            assert np.all(setup.Ltilde[i + 1] == 0)

    @pytest.mark.parametrize("polytopic", [False, True])
    def test_build_has_the_same_bits_at_two_blas_threads(self, polytopic, tmp_path):
        # Every product of config.build() is small enough for OpenBLAS to
        # run on one thread, so its gains, tightened offsets and principal
        # rows do not depend on the thread count (the reference config, and
        # the benchmark's polytopic worst case).
        data = (polytope_worst_case_data() if polytopic
                else json.loads((ROOT / "configs" / "batch_reactor.json").read_text()))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        built = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([str(ROOT / "src")] + [
                       p for p in [os.environ.get("PYTHONPATH")] if p])}
            built.append(subprocess.run([sys.executable, "-c", BUILD_BYTES, str(path)], env=env,
                                        check=True, capture_output=True, timeout=300).stdout)
        one, two = (pickle.loads(b) for b in built)
        assert list(one) == list(two)
        assert [k for k in one if one[k] != two[k]] == []

    def test_deterministic_rebuild(self):
        s1 = _build(simple_plant())
        s2 = _build(simple_plant())
        for a, b in zip(s1.X_offsets, s2.X_offsets):
            assert np.array_equal(a, b)
        assert np.array_equal(s1.F, s2.F)

    def test_oversized_disturbance_empties(self):
        plant = PlantModel(
            np.array([[1.1, 0.4], [0.0, 0.9]]), np.array([[0.0], [1.0]]),
            X=HyperRect([-1.0, -1.0], [1.0, 1.0]),
            U=HyperRect([-3.0], [3.0]),
            W=HyperRect([-1.5, -1.5], [1.5, 1.5]),
            Tx=HyperRect([-1.0, -1.0], [1.0, 1.0]),
            Tu=HyperRect([-2.0], [2.0]),
            Xf=HyperRect([-0.3, -0.3], [0.3, 0.3]))
        with pytest.raises(EmptyTightenedSet):
            _build(plant)

    def test_horizon_bound(self):
        with pytest.raises(ValueError):
            _build(simple_plant(), N=2)  # N must exceed n_x

    def test_terminal_assumption_gate(self):
        plant = PlantModel(
            np.array([[1.1, 0.4], [0.0, 0.9]]), np.array([[0.0], [1.0]]),
            X=HyperRect([-3.0, -3.0], [3.0, 3.0]),
            U=HyperRect([-3.0], [3.0]),
            W=HyperRect([-0.05, -0.05], [0.05, 0.05]),
            Tx=HyperRect([-1.0, -1.0], [1.0, 1.0]),
            Tu=HyperRect([-2.0], [2.0]),
            Xf=HyperRect([-2.9, -2.9], [2.9, 2.9]))  # too large for X_{N-1}
        with pytest.raises(TerminalAssumptionViolated):
            _build(plant)

    def test_gain_validation(self):
        plant = simple_plant()
        F = synthesize_nominal_gain(plant, np.eye(2), np.eye(1))
        bad_K = [np.zeros((1, 2)) for _ in range(5)]  # A not nilpotent
        with pytest.raises(NilpotencyFailure):
            build_setup(plant, N=6, M=2, F=F, K=bad_K,
                        Q=np.eye(2), R=np.eye(1))


class TestFamilyOffsets:
    """A tightened family is its plant set's rows and an (N, m) offset
    array, eroded stage by stage."""

    @pytest.fixture(scope="class", params=["box_W", "cross_polytope_W"])
    def config(self, request):
        if request.param == "box_W":
            return ExperimentConfig.from_file(str(ROOT / "configs" / "batch_reactor.json"))
        return ExperimentConfig(polytope_worst_case_data())

    def test_build_constructs_few_polytopes(self, config, monkeypatch):
        # Two stacked sets and three Pontryagin differences for the margins.
        count, init = [], Polytope.__init__
        monkeypatch.setattr(Polytope, "__init__",
                            lambda self, *a, **k: count.append(1) or init(self, *a, **k))
        config.build()
        assert len(count) <= 5

    def test_offsets_follow_sequential_erosion(self, config):
        setup = config.build()
        W = setup.plant.W
        KL = [setup.K[i] @ setup.L[i] for i in range(setup.N - 1)]
        for family, images in zip(FAMILIES, (KL, setup.L, KL, setup.L)):
            S, offsets = plant_set(setup, family), getattr(setup, f"{family}_offsets")
            assert offsets.shape == (setup.N, len(S.A))
            b = S.b
            assert np.array_equal(offsets[0], b)
            for i in range(setup.N - 1):
                b = b - supports(W, S.A @ images[i])
                assert np.array_equal(offsets[i + 1], b)


class TestPolytopeDisturbance:
    """The benchmark's polytope_worst_case config: W = {w : ||w||_1 <= r},
    r = 0.02, so h_W(eta) = r ||eta||_inf."""

    @pytest.fixture(scope="class")
    def config(self):
        return ExperimentConfig(polytope_worst_case_data())

    def test_offsets_match_closed_form(self, config):
        setup = config.build()
        KL = [setup.K[i] @ setup.L[i] for i in range(setup.N - 1)]
        for family, images in zip(FAMILIES, (KL, setup.L, KL, setup.L)):
            rows, offsets = plant_set(setup, family).A, getattr(setup, f"{family}_offsets")
            b = offsets[0]
            for i in range(setup.N - 1):
                b = b - 0.02 * np.max(np.abs(rows @ images[i]), axis=1)
                np.testing.assert_allclose(offsets[i + 1], b, rtol=1e-15, atol=0.0)

    @staticmethod
    def setup_solves(config, monkeypatch):
        """The solver calls (interior-point loops, simplex batches and
        least-distance solves) that PlantModel and build_setup make on
        ``config``; the gain synthesis between them is not counted."""
        calls = []
        for name in ("_ipm", "simplex_batch", "least_distance"):
            monkeypatch.setattr(solver, name, lambda *a, f=getattr(solver, name), name=name,
                                **k: calls.append(name) or f(*a, **k))
        plant = PlantModel(config.A, config.B, X=config.X, U=config.U, W=config.W,
                           Tx=config.Tx, Tu=config.Tu, Xf=config.Xf)
        counted = list(calls)
        F = synthesize_nominal_gain(plant, config.Qlqr, config.Rlqr)
        K = synthesize_tightening_gains(plant, config.M, N=config.N)
        del calls[:]
        build_setup(plant, N=config.N, M=config.M, F=F, K=K, Q=config.Q, R=config.R)
        monkeypatch.undo()
        return counted + calls

    def test_build_setup_solves_few_support_lps(self, monkeypatch):
        # A fresh W: PlantModel's boundedness check makes the one simplex
        # batch over the ±e_j rays of W's recession cone, and W keeps the
        # answer for its vertex enumeration; W and every tightened set hold
        # the origin, so no least-distance solve runs, and no LP enters the
        # interior-point loop.
        config = ExperimentConfig(polytope_worst_case_data())
        assert self.setup_solves(config, monkeypatch) == ["simplex_batch"]
        # The same W again: its boundedness and vertices are kept.
        assert self.setup_solves(config, monkeypatch) == []

    def test_polytopic_setup_runs_no_interior_point_loop(self, monkeypatch):
        # W's boundedness and the tightened sets' emptiness come from the
        # exact solvers: nothing that PlantModel or build_setup asks
        # enters the interior-point loop.
        config = ExperimentConfig(polytope_worst_case_data())
        assert "_ipm" not in self.setup_solves(config, monkeypatch)

    def test_reference_setup_runs_no_interior_point_loop(self, monkeypatch):
        config = ExperimentConfig.from_file(str(ROOT / "configs" / "batch_reactor.json"))
        plant = PlantModel(config.A, config.B, X=config.X, U=config.U, W=config.W,
                           Tx=config.Tx, Tu=config.Tu, Xf=config.Xf)
        F = synthesize_nominal_gain(plant, config.Qlqr, config.Rlqr)
        K = synthesize_tightening_gains(plant, config.M, N=config.N)
        loops, ipm = [], solver._ipm
        monkeypatch.setattr(solver, "_ipm", lambda *a, **k: loops.append(1) or ipm(*a, **k))
        build_setup(plant, N=config.N, M=config.M, F=F, K=K, Q=config.Q, R=config.R)
        assert loops == []


class TestPlantValidation:
    def test_uncontrollable_rejected(self):
        with pytest.raises(ValueError):
            PlantModel(np.eye(2), [[1.0], [0.0]],
                       X=HyperRect([-1, -1], [1, 1]), U=HyperRect([-1], [1]),
                       W=HyperRect([-0.1, -0.1], [0.1, 0.1]),
                       Tx=HyperRect([-1, -1], [1, 1]), Tu=HyperRect([-1], [1]),
                       Xf=HyperRect([-0.1, -0.1], [0.1, 0.1]))

    def test_origin_interior_required(self):
        with pytest.raises(ValueError):
            PlantModel(np.array([[1.1, 0.4], [0.0, 0.9]]), [[0.0], [1.0]],
                       X=HyperRect([0.0, -1.0], [1.0, 1.0]),  # origin on face
                       U=HyperRect([-1], [1]),
                       W=HyperRect([-0.1, -0.1], [0.1, 0.1]),
                       Tx=HyperRect([-1, -1], [1, 1]), Tu=HyperRect([-1], [1]),
                       Xf=HyperRect([-0.1, -0.1], [0.1, 0.1]))

    def test_point_disturbance_set_allowed(self):
        plant = simple_plant(W_half=0.0)
        assert np.all(plant.W.upper - plant.W.lower == 0.0)

    def test_polytope_sets_accepted(self):
        A = np.array([[1.1, 0.4], [0.0, 0.9]])
        B = np.array([[0.0], [1.0]])
        X = Polytope([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]],
                     [3, 3, 3, 3, 5])
        plant = PlantModel(A, B, X=X, U=HyperRect([-3.0], [3.0]),
                           W=HyperRect([-0.02, -0.02], [0.02, 0.02]),
                           Tx=HyperRect([-1, -1], [1, 1]),
                           Tu=HyperRect([-2.0], [2.0]),
                           Xf=HyperRect([-0.3, -0.3], [0.3, 0.3]))
        setup = _build(plant)
        assert setup.X_offsets.shape[1] == 5


def _wide_plant(A, B):
    n, m = A.shape[0], B.shape[1]
    big = 1e6
    return PlantModel(A, B,
                      X=HyperRect(-big * np.ones(n), big * np.ones(n)),
                      U=HyperRect(-big * np.ones(m), big * np.ones(m)),
                      W=HyperRect(-0.01 * np.ones(n), 0.01 * np.ones(n)),
                      Tx=HyperRect(-big * np.ones(n), big * np.ones(n)),
                      Tu=HyperRect(-big * np.ones(m), big * np.ones(m)),
                      Xf=HyperRect(-np.ones(n), np.ones(n)))


def _build(plant, N=6, M=2):
    F = synthesize_nominal_gain(plant, np.eye(plant.nx), np.eye(plant.nu))
    K = synthesize_tightening_gains(plant, M=M, N=N)
    return build_setup(plant, N=N, M=M, F=F, K=K,
                       Q=np.eye(plant.nx), R=np.eye(plant.nu))
