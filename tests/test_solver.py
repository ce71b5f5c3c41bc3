import numpy as np
import pytest

from etrmpc import solver
from etrmpc.solver import (LpProblem, QpProblem, Status, maximize_log_volume,
                           solve_lp, solve_qp)

from oracles import (grid_box_volume, lp_max_by_vertices, projected_gradient_qp,
                     slsqp_log_volume)


def box_rows(n, half):
    A = np.vstack([np.eye(n), -np.eye(n)])
    b = np.full(2 * n, half, dtype=float)
    return A, b


class TestLp:
    def test_max_coordinate_over_unit_box(self):
        A, b = box_rows(2, 1.0)
        rep = solve_lp(LpProblem(c=[1.0, 0.0], A=A, b=b))
        assert rep.status == Status.OPTIMAL
        assert rep.objective == pytest.approx(1.0, abs=1e-7)

    def test_degenerate_optimal_face(self):
        # max x1+x2 on the simplex: any optimal vertex gives 1.
        A = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        b = np.array([1.0, 0.0, 0.0])
        rep = solve_lp(LpProblem(c=[1.0, 1.0], A=A, b=b))
        assert rep.status == Status.OPTIMAL
        assert rep.objective == pytest.approx(1.0, abs=1e-7)

    def test_random_lps_match_vertex_enumeration(self):
        rng = np.random.default_rng(7)
        for n in (2, 3):
            for _ in range(15):
                # Feasible by construction: random halfspaces kept on the
                # side of a random interior point, plus a bounding box.
                m = rng.integers(4, 9)
                A = rng.normal(size=(m, n))
                x0 = rng.normal(size=n) * 0.3
                b = A @ x0 + rng.uniform(0.2, 1.5, size=m)
                Abox, bbox = box_rows(n, 5.0)
                A = np.vstack([A, Abox])
                b = np.concatenate([b, bbox])
                c = rng.normal(size=n)
                rep = solve_lp(LpProblem(c=c, A=A, b=b))
                assert rep.status == Status.OPTIMAL
                assert rep.objective == pytest.approx(
                    lp_max_by_vertices(c, A, b), abs=1e-7)

    def test_infeasible(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([-1.0, -1.0])  # x <= -1 and x >= 1
        rep = solve_lp(LpProblem(c=[1.0], A=A, b=b))
        assert rep.status == Status.INFEASIBLE

    def test_unbounded(self):
        A = np.array([[-1.0, 0.0], [0.0, -1.0]])
        b = np.zeros(2)
        rep = solve_lp(LpProblem(c=[1.0, 1.0], A=A, b=b))
        assert rep.status == Status.UNBOUNDED

    def test_objective_scaling_keeps_argmax(self):
        A, b = box_rows(2, 1.0)
        c = np.array([0.7, -0.3])
        r1 = solve_lp(LpProblem(c=c, A=A, b=b))
        r2 = solve_lp(LpProblem(c=5.0 * c, A=A, b=b))
        assert np.allclose(r1.x, r2.x, atol=1e-6)
        assert r2.objective == pytest.approx(5.0 * r1.objective, rel=1e-7)

    def test_determinism(self):
        A, b = box_rows(3, 2.0)
        c = np.array([0.3, -1.1, 0.2])
        r1 = solve_lp(LpProblem(c=c, A=A, b=b))
        r2 = solve_lp(LpProblem(c=c, A=A, b=b))
        assert r1.x.tobytes() == r2.x.tobytes()
        assert r1.objective == r2.objective


class TestQp:
    def test_min_norm_halfspace(self):
        # min ||x||^2 s.t. x1 >= 1  -> x = (1, 0, ...), objective 1.
        n = 3
        H = 2.0 * np.eye(n)
        g = np.zeros(n)
        A = np.zeros((1, n))
        A[0, 0] = -1.0
        rep = solve_qp(QpProblem(H=H, g=g, A_in=A, b_in=[-1.0]))
        assert rep.status == Status.OPTIMAL
        assert np.allclose(rep.x, [1.0, 0.0, 0.0], atol=1e-6)
        assert 2 * rep.objective == pytest.approx(2.0, abs=1e-6)  # x.x = 1

    def test_unconstrained_analytic(self):
        rng = np.random.default_rng(3)
        Hroot = rng.normal(size=(4, 4))
        H = Hroot @ Hroot.T + 4.0 * np.eye(4)
        g = rng.normal(size=4)
        rep = solve_qp(QpProblem(H=H, g=g))
        assert rep.status == Status.OPTIMAL
        assert np.allclose(rep.x, -np.linalg.solve(H, g), atol=1e-8)

    def test_random_box_qps_match_projected_gradient(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            n = 3
            Hroot = rng.normal(size=(n, n))
            H = Hroot @ Hroot.T + 1.0 * np.eye(n)
            g = rng.normal(size=n) * 2.0
            A, b = box_rows(n, 1.0)
            rep = solve_qp(QpProblem(H=H, g=g, A_in=A, b_in=b))
            assert rep.status == Status.OPTIMAL
            _, obj = projected_gradient_qp(H, g, -np.ones(n), np.ones(n))
            assert rep.objective == pytest.approx(obj, abs=1e-6)

    def test_equality_constrained(self):
        H = 2.0 * np.eye(2)
        rep = solve_qp(QpProblem(H=H, g=np.zeros(2),
                                 A_eq=[[1.0, 1.0]], b_eq=[2.0],
                                 A_in=-np.eye(2), b_in=np.zeros(2)))
        assert rep.status == Status.OPTIMAL
        assert np.allclose(rep.x, [1.0, 1.0], atol=1e-6)

    def test_infeasible_qp(self):
        A = np.array([[1.0], [-1.0]])
        rep = solve_qp(QpProblem(H=[[2.0]], g=[0.0], A_in=A, b_in=[-2.0, 1.0]))
        assert rep.status == Status.INFEASIBLE

    def test_rejects_indefinite_hessian(self):
        with pytest.raises(ValueError):
            QpProblem(H=[[-1.0]], g=[0.0])


class TestLogVolume:
    def test_symmetric_optimum_f2(self):
        # k=1: vbar + vund <= 2 -> vbar = vund = 1.
        W = np.array([[1.0, 1.0]])
        rep = maximize_log_volume(W, [2.0], solver.MODE_SUM_LOG_BOTH)
        assert rep.status == Status.OPTIMAL
        assert np.allclose(rep.x, [1.0, 1.0], atol=1e-5)

    def test_width_objective_f1(self):
        # k=1: vbar <= 3, vund <= 1 -> width 4 regardless of split.
        W = np.array([[1.0, 0.0], [0.0, 1.0]])
        rep = maximize_log_volume(W, [3.0, 1.0], solver.MODE_SUM_LOG_WIDTH)
        assert rep.status == Status.OPTIMAL
        assert rep.x[0] + rep.x[1] == pytest.approx(4.0, abs=1e-5)
        assert rep.objective == pytest.approx(np.log(4.0), abs=1e-5)

    @pytest.mark.parametrize("mode", [solver.MODE_SUM_LOG_WIDTH,
                                      solver.MODE_SUM_LOG_BOTH])
    def test_2d_matches_grid_oracle(self, mode):
        rng = np.random.default_rng(21)
        for _ in range(5):
            m = rng.integers(3, 7)
            W = rng.uniform(0.0, 1.5, size=(m, 4))
            W[W < 0.35] = 0.0
            # Every variable bounded: add per-variable cap rows.
            W = np.vstack([W, np.eye(4)])
            d = np.concatenate([rng.uniform(0.5, 2.5, size=m),
                                rng.uniform(1.0, 3.0, size=4)])
            rep = maximize_log_volume(W, d, mode)
            assert rep.status == Status.OPTIMAL
            vb, vu = rep.x[:2], rep.x[2:]
            if mode == solver.MODE_SUM_LOG_WIDTH:
                vol = (vb[0] + vu[0]) * (vb[1] + vu[1])
            else:
                vol = vb[0] * vu[0] * vb[1] * vu[1]
            best = grid_box_volume(W, d, mode, n=200)
            assert vol >= best * 0.99
            # Certified feasibility bounds the other side.
            assert np.max(W @ rep.x - d) <= 1e-8

    @pytest.mark.parametrize("mode", [solver.MODE_SUM_LOG_WIDTH,
                                      solver.MODE_SUM_LOG_BOTH])
    def test_random_problems_match_slsqp(self, mode):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(5)
        for _ in range(15):
            k = int(rng.integers(2, 4))
            m = int(rng.integers(3, 9))
            W = rng.uniform(0.0, 2.0, size=(m, 2 * k))
            W[W < 0.6] = 0.0
            W = np.vstack([W, np.eye(2 * k)])
            d = np.concatenate([rng.uniform(0.2, 2.0, size=m),
                                rng.uniform(0.5, 3.0, size=2 * k)])
            rep = maximize_log_volume(W, d, mode)
            assert rep.status == Status.OPTIMAL
            assert np.max(W @ rep.x - d) <= 1e-12 * (1.0 + np.max(d))
            assert rep.objective >= slsqp_log_volume(W, d, mode) - 1e-9

    def test_f1_split_independent_of_row_order(self):
        # The rows fix only vbar_1 + vbar_2 and vund_1 + vund_2, so the f1
        # optimum is a segment along which both widths keep their value
        # while their split between vbar and vund moves. Reordering the
        # rows must not move the returned point along it. Each column of W
        # has two nonzeros, so the products W v, W^T z and W^T D W of the
        # interior-point loop are exact in any row order.
        G = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0], [-1.0, 0.0],
                      [0.0, 1.0], [0.0, -1.0]])
        W = np.hstack([np.maximum(G, 0.0), np.maximum(-G, 0.0)])
        d = np.array([1.0, 1.5, 2.0, 2.0, 2.0, 2.0])
        ref = maximize_log_volume(W, d, solver.MODE_SUM_LOG_WIDTH)
        rng = np.random.default_rng(0)
        for _ in range(20):
            perm = rng.permutation(d.size)
            rep = maximize_log_volume(W[perm], d[perm], solver.MODE_SUM_LOG_WIDTH)
            assert np.max(np.abs(rep.x - ref.x)) <= 1e-9

    def test_strictly_positive_widths_f2(self):
        W = np.vstack([np.array([[1.0, 0.2, 0.5, 0.1]]), np.eye(4)])
        d = np.array([1.0, 2.0, 2.0, 2.0, 2.0])
        rep = maximize_log_volume(W, d, solver.MODE_SUM_LOG_BOTH)
        assert rep.status == Status.OPTIMAL
        assert np.all(rep.x > 0)

    def test_degenerate_coordinate_detected(self):
        # vund_1 has zero feasible width, so f2 finds the first pair
        # degenerate and pins both of its sides to zero.
        W = np.vstack([np.array([[0.0, 0.0, 1.0, 0.0]]), np.eye(4)])
        d = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
        rep = maximize_log_volume(W, d, solver.MODE_SUM_LOG_BOTH)
        assert rep.status == Status.OPTIMAL
        pinned = np.flatnonzero((rep.x[:2] == 0.0) & (rep.x[2:] == 0.0))
        assert pinned.tolist() == [0]

    def test_inactive_coordinates_pinned(self):
        # The pinned pair leaves the objective; the other pair is solved
        # as if it were alone.
        W = np.vstack([np.array([[0.0, 0.0, 1.0, 0.0]]), np.eye(4)])
        d = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
        rep = maximize_log_volume(W, d, solver.MODE_SUM_LOG_BOTH)
        assert rep.status == Status.OPTIMAL
        assert rep.x[0] == 0.0 and rep.x[2] == 0.0
        assert rep.x[1] == pytest.approx(1.0, abs=1e-5)
        assert rep.x[3] == pytest.approx(1.0, abs=1e-5)
        assert rep.objective == pytest.approx(0.0, abs=1e-5)

    def test_one_sided_pair_kept_f1(self):
        # The same rows under f1: the first pair keeps its upper side
        # (a one-sided box), only vund_1 is held at zero.
        W = np.vstack([np.array([[0.0, 0.0, 1.0, 0.0]]), np.eye(4)])
        d = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
        rep = maximize_log_volume(W, d, solver.MODE_SUM_LOG_WIDTH)
        assert rep.status == Status.OPTIMAL
        assert rep.x[2] == 0.0
        assert rep.x[0] == pytest.approx(1.0, abs=1e-5)
        assert rep.x[1] + rep.x[3] == pytest.approx(2.0, abs=1e-5)
        assert rep.objective == pytest.approx(np.log(2.0), abs=1e-5)

    def test_all_pairs_degenerate(self):
        W = np.vstack([np.array([[1.0, 1.0, 1.0, 1.0]]), np.eye(4)])
        d = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
        for mode in (solver.MODE_SUM_LOG_WIDTH, solver.MODE_SUM_LOG_BOTH):
            rep = maximize_log_volume(W, d, mode)
            assert rep.status == Status.OPTIMAL
            assert not rep.x.any()

    def test_determinism(self):
        W = np.vstack([np.array([[1.0, 0.3, 0.4, 0.9]]), np.eye(4)])
        d = np.array([2.0, 3.0, 3.0, 3.0, 3.0])
        r1 = maximize_log_volume(W, d, solver.MODE_SUM_LOG_WIDTH)
        r2 = maximize_log_volume(W, d, solver.MODE_SUM_LOG_WIDTH)
        assert r1.x.tobytes() == r2.x.tobytes()
