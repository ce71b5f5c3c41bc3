from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from etrmpc import solver
from etrmpc.solver import (QpProblem, SolveReport, Status, maximize_log_volume_batch,
                           solve_qp)

from oracles import (grid_box_volumes, highs_max, highs_verdicts, lp_max_by_vertices,
                     qp_min_by_active_sets, slsqp_least_norm, slsqp_log_volume)


def box_rows(n, half):
    A = np.vstack([np.eye(n), -np.eye(n)])
    b = np.full(2 * n, half, dtype=float)
    return A, b


def lp_max(c, A, b, A_eq=None, b_eq=None):
    """max c.x s.t. A x <= b, A_eq x = b_eq, solved as the QP with H = 0,
    as the library solves its LPs; the report's objective is c.x."""
    c = np.asarray(c, dtype=float)
    rep = solve_qp(QpProblem(np.zeros((len(c), len(c))), A, A_eq, b_eq), -c, b)
    return SolveReport(rep.status, rep.x, None if rep.objective is None else -rep.objective,
                       rep.kkt_residual, rep.iterations)


def ipm_lps(C, A, B, A_eq=None, b_eq=None):
    """max C[k].x s.t. A x <= B[k], A_eq x = b_eq for every row k, in one
    interior-point loop at FEAS_TOL; a 1-D C or B serves every problem.
    This keeps the loop's per-problem bookkeeping, which the log-volume
    batches rely on, under test on LPs."""
    C, B = np.atleast_2d(np.asarray(C, dtype=float)), np.atleast_2d(np.asarray(B, dtype=float))
    nb, n = max(len(C), len(B)), C.shape[1]
    C, B = np.broadcast_to(C, (nb, n)), np.broadcast_to(B, (nb, B.shape[1]))
    if A_eq is None:
        A_eq, b_eq = np.zeros((0, n)), np.zeros(0)
    outcomes = solver._ipm(np.zeros((n, n)), -C, np.asarray(A_eq, dtype=float),
                           np.asarray(b_eq, dtype=float), np.asarray(A, dtype=float), B,
                           solver.FEAS_TOL)
    return [SolveReport(st, x, c @ x if st == Status.OPTIMAL else None, kkt, it)
            for (st, x, kkt, it), c in zip(outcomes, C)]


class TestLp:
    def test_max_coordinate_over_unit_box(self):
        A, b = box_rows(2, 1.0)
        rep = lp_max([1.0, 0.0], A, b)
        assert rep.status == Status.OPTIMAL
        assert rep.objective == pytest.approx(1.0, abs=1e-7)

    def test_degenerate_optimal_face(self):
        # max x1+x2 on the simplex: any optimal vertex gives 1.
        A = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        b = np.array([1.0, 0.0, 0.0])
        rep = lp_max([1.0, 1.0], A, b)
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
                rep = lp_max(c, A, b)
                assert rep.status == Status.OPTIMAL
                assert rep.objective == pytest.approx(
                    lp_max_by_vertices(c, A, b), abs=1e-7)

    def test_random_lps_match_highs(self):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(11)
        for draw in range(30):
            # Bounded and feasible by construction, as above; every third
            # draw adds equality rows through the interior point.
            n = int(rng.integers(2, 9))
            m = int(rng.integers(n, 4 * n))
            A = rng.normal(size=(m, n))
            x0 = rng.normal(size=n) * 0.3
            b = A @ x0 + rng.uniform(0.05, 1.5, size=m)
            Abox, bbox = box_rows(n, 5.0)
            A = np.vstack([A, Abox])
            b = np.concatenate([b, bbox])
            A_eq = b_eq = None
            if draw % 3 == 2:
                A_eq = rng.normal(size=(int(rng.integers(1, n)), n))
                b_eq = A_eq @ x0
            c = rng.normal(size=n)
            rep = lp_max(c, A, b, A_eq, b_eq)
            assert rep.status == Status.OPTIMAL
            assert rep.objective == pytest.approx(
                highs_max(c, A, b, A_eq, b_eq), rel=1e-7)

    def test_infeasible(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([-1.0, -1.0])  # x <= -1 and x >= 1
        rep = lp_max([1.0], A, b)
        assert rep.status == Status.INFEASIBLE

    def test_unbounded(self):
        A = np.array([[-1.0, 0.0], [0.0, -1.0]])
        b = np.zeros(2)
        rep = lp_max([1.0, 1.0], A, b)
        assert rep.status == Status.UNBOUNDED

    def test_unbounded_from_infeasible_start(self):
        # The unit start slack of x_1 >= -0.3 is infeasible, so the iterates
        # never pass the divergence test and the loop runs to the cap; the
        # recession LP max c.d, G d <= 0, |d| <= 1 has optimum 1.
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
        rep = lp_max([0.5, 1.0], A, [1.0, 1.0, 0.3])
        assert rep.status == Status.UNBOUNDED
        assert rep.x is None and rep.objective is None

    def test_recession_lp_separates_rays(self):
        # The verdict on an undecided LP or QP: objectives that fall along
        # the ray e_1 of the strip |x_0| <= 1, x_1 >= -0.3 (as minimization,
        # g = -c) are UNBOUNDED, and ones that do not, whose recession
        # optimum is 0, stay MAXITER, as every objective over a box does. A
        # Hessian that leaves e_1 flat, diag(1, 0), keeps the LP's verdicts;
        # one that curves e_1, diag(0, 1), bounds every objective.
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
        g = -np.array([[0.5, 1.0], [0.0, 1e-3], [0.5, -1.0], [1.0, 0.0], [0.0, 0.0]])
        no_eq = np.zeros((0, 2)), np.zeros(0)
        box, h = box_rows(2, 1.0)
        lp = [Status.UNBOUNDED, Status.UNBOUNDED, Status.MAXITER, Status.MAXITER, Status.MAXITER]
        for H, verdicts in ((np.zeros((2, 2)), lp), (np.diag([1.0, 0.0]), lp),
                            (np.diag([0.0, 1.0]), [Status.MAXITER] * 5)):
            assert [solver._undecided(H, *no_eq, A, np.array([1.0, 1.0, 0.3]), gk)
                    for gk in g] == verdicts
            assert {solver._undecided(H, *no_eq, box, h, gk) for gk in g} == {Status.MAXITER}
            # Rows that no point meets are INFEASIBLE, whatever H and g.
            assert {solver._undecided(H, *no_eq, A, np.array([-1.0, -1.0, 0.3]), gk)
                    for gk in g} == {Status.INFEASIBLE}

    def test_large_bound_is_not_unbounded(self):
        # max x over [0, 1e13] is bounded. At 1e14 the loop cannot meet its
        # complementarity tolerance, so it reports MAXITER, not a ray.
        rep = lp_max([1.0], [[1.0], [-1.0]], [1e13, 0.0])
        assert rep.status == Status.OPTIMAL
        assert rep.objective == pytest.approx(1e13, rel=1e-12)
        assert lp_max([1.0], [[1.0], [-1.0]], [1e14, 0.0]).status != (
            Status.UNBOUNDED)

    def test_objective_scaling_keeps_argmax(self):
        A, b = box_rows(2, 1.0)
        c = np.array([0.7, -0.3])
        r1 = lp_max(c, A, b)
        r2 = lp_max(5.0 * c, A, b)
        assert np.allclose(r1.x, r2.x, atol=1e-6)
        assert r2.objective == pytest.approx(5.0 * r1.objective, rel=1e-7)

    def test_determinism(self):
        A, b = box_rows(3, 2.0)
        c = np.array([0.3, -1.1, 0.2])
        r1 = lp_max(c, A, b)
        r2 = lp_max(c, A, b)
        assert r1.x.tobytes() == r2.x.tobytes()
        assert r1.objective == r2.objective

    def test_bits_independent_of_memory_layout(self):
        # A column-major matrix takes other BLAS paths; the problem keeps a
        # row-major copy, so the bits do not depend on the caller's layout.
        rng = np.random.default_rng(17)
        A = np.vstack([rng.normal(size=(8, 3)), *box_rows(3, 2.0)[:1]])
        b = np.concatenate([rng.uniform(0.2, 1.0, size=8), np.full(6, 2.0)])
        c = rng.normal(size=3)
        r1 = lp_max(c, A, b)
        r2 = lp_max(c, np.asfortranarray(A), b)
        assert same_report(r1, r2)

    def test_capped_feasible_lp_with_large_offsets_is_not_infeasible(self, monkeypatch):
        # A bounded, feasible LP with offsets near 1e8. Where the loop stops
        # at the cap, the least-distance solve finds a point of its rows, so
        # the verdict is MAXITER, not INFEASIBLE.
        A = np.array([[0.8422613160907125, -2.9761111715097797, 0.30502388059256774],
                      [1.4498879223987968, -1.2439614718565628, -0.05321059771566779],
                      [1.4998616202102704, -1.1682047539308045, -0.8106216312560561],
                      [1.8988979078111143, 0.4469642342488036, -1.629147622744753],
                      [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
        c = np.array([-1.5776101551292525, -1.155790844329513, 0.43609161654428863])
        b = np.array([8.7508737031176850e+07, 1.4424782534987053e+08, 2.0293702665065527e+07,
                      -3.2565288338756524e+07, 1.2679107962602997e+08, 2.4359327248408563e+07,
                      -1.2679107817519549e+08, -2.4359326363812324e+07, -1.7445708910479489e+08])
        full = lp_max(c, A, b)
        assert full.status == Status.OPTIMAL and full.iterations > 14
        assert solver.least_distance(A, b)[0] is not None
        for cap in (14, full.iterations - 1):
            monkeypatch.setattr(solver, "MAX_ITER", cap)
            assert lp_max(c, A, b).status == Status.MAXITER


def same_report(a, b):
    return (a.status == b.status and a.iterations == b.iterations
            and a.objective == b.objective and a.kkt_residual == b.kkt_residual
            and (a.x is None) == (b.x is None)
            and (a.x is None or a.x.tobytes() == b.x.tobytes()))


class TestLpBatch:
    def test_mixed_statuses_match_solo(self):
        # x_0 in [-b_1, b_0], x_1 >= -b_2 and unbounded above: a batch with
        # an optimal, an infeasible and two unbounded members, in both
        # orders, each bit-identical to its own solve. The last member's
        # unit start slack exceeds b_2, and it runs to the iteration cap
        # before the recession LP classifies it.
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
        C = np.array([[0.5, -1.0], [0.5, 1.0], [0.5, 1.0], [0.5, 1.0]])
        B = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 0.3]])
        solo = [ipm_lps(c, A, b)[0] for c, b in zip(C, B)]
        assert [r.status for r in solo[:3]] == [Status.OPTIMAL, Status.INFEASIBLE,
                                                Status.UNBOUNDED]
        for order in (slice(None), slice(None, None, -1)):
            batch = ipm_lps(C[order], A, B[order])
            assert all(same_report(a, b) for a, b in zip(batch, solo[order]))

    def test_shared_objective_or_offsets(self):
        A, b = box_rows(2, 1.0)
        C = np.array([[1.0, 0.5], [-0.3, 2.0]])
        batch = ipm_lps(C, A, b)
        assert all(same_report(r, ipm_lps(c, A, b)[0]) for r, c in zip(batch, C))
        B = np.array([b, 2.0 * b])
        batch = ipm_lps(C[0], A, B)
        assert all(same_report(r, ipm_lps(C[0], A, bk)[0])
                   for r, bk in zip(batch, B))

    def test_singular_kkt_retried_per_member(self):
        # Both rows lie along (1, 1), so the Newton matrix is a multiple of
        # [[1, 1], [1, 1]] of size 1e20 and a ridge of 1e-12 * scale_d is
        # lost in rounding: members 0 and 2 stay singular through every
        # retry and go to classification. Member 1's objective scales its
        # ridge to 1e18, which is not lost.
        A = np.array([[1e10, 1e10], [-1e10, -1e10]])
        C = np.array([[1.0, 1.0], [1e30, 1e30], [1.0, 1.0]])
        B = np.array([[1.0, 1.0], [1.0, 1.0], [3.0, 3.0]])
        solo = [ipm_lps(c, A, b)[0] for c, b in zip(C, B)]
        assert solo[1].status == Status.OPTIMAL
        batch = ipm_lps(C, A, B)
        assert all(same_report(a, b) for a, b in zip(batch, solo))

    def test_singular_newton_retried_with_eliminated_variable(self, monkeypatch):
        # A QP on the rows of the test above, scaled to 1e5, plus a third
        # variable boxed by one-entry rows, which its Newton step
        # eliminates. H is zero on the first two variables, so a ridge of
        # 1e-12 * scale_d is lost in the entries of about 1e10 and the
        # first Newton solve fails; the retries rebuild the Schur
        # complement and the S block with a larger ridge until one holds.
        a = 1e5
        A = np.array([[a, a, 0.0], [-a, -a, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        p = QpProblem(H=np.diag([0.0, 0.0, 1.0]), A_in=A)
        assert p._newton.S.tolist() == [2]
        solves, built = [], []
        solve, matrix = solver._Newton.solve, solver._Newton.matrix

        def counting(self, fac, rhs):
            try:
                out = solve(self, fac, rhs)
            except np.linalg.LinAlgError:
                solves.append(False)
                raise
            solves.append(True)
            return out

        monkeypatch.setattr(solver._Newton, "solve", counting)
        monkeypatch.setattr(solver._Newton, "matrix",
                            lambda self, H, G, d, reg: built.append(reg[0])
                            or matrix(self, H, G, d, reg))
        rep = solve_qp(p, [-10.0, -10.0, 2.0], np.ones(4))
        assert solves[0] is False  # the first Newton solve fails
        assert len(built) > rep.iterations  # rebuilt with a larger ridge
        assert max(built) >= 1e4 * min(built)
        assert rep.status == Status.OPTIMAL
        assert rep.x[2] == pytest.approx(-1.0, abs=1e-8)
        assert a * (rep.x[0] + rep.x[1]) == pytest.approx(1.0, abs=1e-6)

    def test_iteration_cap_stays_with_its_member(self, monkeypatch):
        rng = np.random.default_rng(3)
        n = 3
        A = np.vstack([rng.normal(size=(6, n)), np.eye(n), -np.eye(n)])
        B = np.array([A @ (rng.normal(size=n) * 0.3) + rng.uniform(0.05, 1.5, size=A.shape[0])
                      for _ in range(5)])
        C = rng.normal(size=(5, n))
        solo = [ipm_lps(c, A, b)[0] for c, b in zip(C, B)]
        its = [r.iterations for r in solo]
        slow = int(np.argmax(its))
        assert sorted(its)[-2] < its[slow]  # one member needs the most iterations
        monkeypatch.setattr(solver, "MAX_ITER", its[slow] - 1)
        batch = ipm_lps(C, A, B)
        assert [r.status for r in batch] == [
            Status.MAXITER if k == slow else Status.OPTIMAL for k in range(len(its))]
        assert batch[slow].iterations == its[slow] - 1
        assert same_report(batch[slow], ipm_lps(C[slow], A, B[slow])[0])
        assert all(same_report(r, solo[k]) for k, r in enumerate(batch) if k != slow)


def simplex_lp(rng, n, m, zeros=0):
    """Rows A (m, n), offsets b >= 0 with ``zeros`` of them 0 (so v = 0 and
    later vertices are degenerate), and an objective c. A box row on every
    variable keeps the LP bounded."""
    A = np.vstack([rng.normal(size=(m, n)), np.eye(n)])
    b = np.concatenate([rng.uniform(0.0, 2.0, size=m), rng.uniform(1.0, 3.0, size=n)])
    b[rng.choice(m, size=zeros, replace=False)] = 0.0
    return A, b, rng.normal(size=n)


class TestSimplex:
    def test_random_lps_match_highs(self):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(29)
        for draw in range(40):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 3 * n))
            A, b, c = simplex_lp(rng, n, m, zeros=draw % min(m + 1, 4))
            rep = solver.simplex_batch(c, A, b)[0]
            assert rep.status == Status.OPTIMAL
            assert np.max(A @ rep.x - b) <= 1e-12 and np.min(rep.x) >= -1e-12
            assert rep.objective == c @ rep.x
            expected = highs_max(c, np.vstack([A, -np.eye(n)]), np.concatenate([b, np.zeros(n)]),
                                 options={"primal_feasibility_tolerance": 1e-10,
                                          "dual_feasibility_tolerance": 1e-10})
            assert rep.objective == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_unbounded(self):
        # v_1 rises along (1, 1) without bound: x_0 - x_1 <= 1, and c.(1, 1) > 0.
        rep = solver.simplex_batch([-1.0, 2.0], [[1.0, -1.0]], [1.0])[0]
        assert rep.status == Status.UNBOUNDED
        assert rep.x is None and rep.objective is None

    def test_origin_optimal_without_pivot(self):
        rep = solver.simplex_batch([-1.0, 0.0], [[1.0, 1.0]], [2.0])[0]
        assert rep.status == Status.OPTIMAL and rep.iterations == 0
        assert rep.x.tolist() == [0.0, 0.0]

    def test_offsets_must_be_nonnegative_and_finite(self):
        for b in ([-1.0], [np.inf], [np.nan]):
            with pytest.raises(ValueError):
                solver.simplex_batch([1.0], [[1.0]], b)

    def test_per_problem_rows_leave_with_their_member(self):
        # Three members with rows of their own leave the batch at different
        # pivots: one is optimal at v = 0, one unbounded (no row caps v_0,
        # along which c rises) and one takes several pivots after the
        # others have left with their rows.
        rng = np.random.default_rng(1)
        A, b, _ = simplex_lp(rng, 3, 6, zeros=1)
        ray = A.copy()
        ray[:, 0] = -np.abs(ray[:, 0])
        stack = np.array([A, ray, A])
        C = np.array([np.ones(3), np.ones(3), -np.ones(3)])
        solo = [solver.simplex_batch(c, Ak, b)[0] for c, Ak in zip(C, stack)]
        assert [r.status for r in solo] == [Status.OPTIMAL, Status.UNBOUNDED, Status.OPTIMAL]
        assert solo[0].iterations >= 3 and solo[2].iterations == 0
        for order in (slice(None), slice(None, None, -1)):
            batch = solver.simplex_batch(C[order], stack[order], np.array([b, b, b]))
            assert all(same_report(x, y) for x, y in zip(batch, solo[order]))

    def test_stacked_rows_need_one_offset_row_per_problem(self):
        rng = np.random.default_rng(7)
        A, b, c = simplex_lp(rng, 2, 3)
        stack = np.array([A, A])
        with pytest.raises(ValueError):
            solver.simplex_batch(c, stack, np.array([b, b, b]))
        with pytest.raises(ValueError):
            solver.simplex_batch(np.ones((3, 2)), stack, b)
        batch = solver.simplex_batch(c, stack, b)  # shared c and b
        assert len(batch) == 2
        assert all(same_report(r, solver.simplex_batch(c, A, b)[0]) for r in batch)
        with pytest.raises(ValueError):  # the interior-point LPs share their rows
            QpProblem(np.zeros((2, 2)), stack)

    def test_pivot_cap_reports_maxiter(self, monkeypatch):
        rng = np.random.default_rng(5)
        A, b, _ = simplex_lp(rng, 5, 12, zeros=2)
        c = np.ones(5)  # every variable would rise: several pivots
        solo = solver.simplex_batch(c, A, b)[0]
        assert solo.status == Status.OPTIMAL and solo.iterations >= 3
        for cap in range(solo.iterations):
            monkeypatch.setattr(solver, "MAX_ITER", cap)
            rep = solver.simplex_batch(c, A, np.array([b, b]))[0]
            assert rep.status == Status.MAXITER and rep.iterations == cap
            assert np.max(A @ rep.x - b) <= 1e-12 and rep.objective <= solo.objective


def structured_qp(rng, nu, ns, p):
    """A convex QP over [u | s] (nu + ns variables) with p equality rows on
    u. Each s_j is touched by two one-entry rows and H is diagonal on s,
    with some zero entries; u is touched by dense rows, by one-entry rows
    and by the equality rows, and H couples it to s."""
    X, Y = rng.normal(size=(ns, nu)), rng.normal(size=(nu, nu))
    w = rng.uniform(0.5, 2.0, ns) * (rng.random(ns) < 0.7)
    C = np.block([[X, np.diag(w)], [Y, np.zeros((nu, ns))]])
    H = C.T @ C + np.diag(np.concatenate([np.full(nu, 0.5), np.zeros(ns)]))
    eye = np.eye(nu + ns)
    G = np.vstack([np.hstack([rng.normal(size=(3, nu)), np.zeros((3, ns))]),
                   eye[:nu] * rng.uniform(0.5, 2.0, (nu, 1)),
                   eye[nu:] * rng.uniform(0.5, 2.0, (ns, 1)),
                   -eye[nu:] * rng.uniform(0.5, 2.0, (ns, 1))])
    A = np.hstack([rng.normal(size=(p, nu)), np.zeros((p, ns))])
    return H, A, G


class TestNewtonStep:
    """The Newton step of ``_ipm`` with the variables that only one-entry
    rows touch, and on which H is diagonal, eliminated."""

    @pytest.mark.parametrize("ns, p", [(0, 0), (4, 0), (5, 2), (3, 1)])
    def test_eliminated_solve_matches_dense_solve(self, ns, p):
        rng = np.random.default_rng(10 * ns + p)
        nu, nb = 4, 3
        for _ in range(5):
            H, A, G = structured_qp(rng, nu, ns, p)
            n, m = H.shape[0], G.shape[0]
            newton = solver._Newton(H, A, G)
            assert newton.S.tolist() == list(range(nu, n))
            d = rng.uniform(0.1, 10.0, size=(nb, m))
            reg = 1e-12 * rng.uniform(1.0, 10.0, nb)
            rhs = rng.normal(size=(nb, n + p))
            fac = newton.matrix(H, G, d, reg)
            assert fac[0].shape[-1] == nu + p  # the factorized matrix is U's
            sol = newton.solve(fac, rhs)
            for k in range(nb):
                dense = np.block([[H + G.T @ np.diag(d[k]) @ G + reg[k] * np.eye(n), A.T],
                                  [A, -reg[k] * np.eye(p)]])
                want = np.linalg.solve(dense, rhs[k])
                assert np.linalg.norm(sol[k] - want) <= 1e-12 * np.linalg.norm(want)

    def test_without_eliminated_variables_step_is_plain_solve(self):
        # Dense rows on every variable: S is empty and the step is the plain
        # Newton matrix and one np.linalg.solve, bit for bit.
        rng = np.random.default_rng(5)
        n, m = 4, 7
        root = rng.normal(size=(n, n))
        H, G = root @ root.T, rng.normal(size=(m, n))
        A = np.zeros((0, n))
        newton = solver._Newton(H, A, G)
        assert newton.S.size == 0
        d, reg, rhs = rng.uniform(0.1, 10.0, (2, m)), np.full(2, 1e-12), rng.normal(size=(2, n))
        (K,) = fac = newton.matrix(H, G, d, reg)
        M = H + np.matmul(G.T, d[:, :, None] * G) + reg[:, None, None] * np.eye(n)
        assert K.tobytes() == M.tobytes()
        want = np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
        assert newton.solve(fac, rhs).tobytes() == want.tobytes()

    def test_split_rules(self):
        # x0..x2 are each boxed by one-entry rows only.
        G = np.vstack([np.eye(3), -np.eye(3)])
        none = np.zeros((0, 3))
        on = solver._rows_on(np.eye(3), none, G)
        assert on.tolist() == [0, 1, 2, 0, 1, 2]
        # H couples x0 and x1: only x2 is eliminated.
        H = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        assert solver._rows_on(H, none, G).tolist() == [-1, -1, 2, -1, -1, 2]
        # An equality row on x2, or a two-entry row on x1, keeps it.
        A = np.array([[0.0, 0.0, 1.0]])
        assert solver._rows_on(np.eye(3), A, G).tolist() == [0, 1, -1, 0, 1, -1]
        G2 = np.vstack([G, [0.0, 1.0, 1.0]])
        assert solver._rows_on(np.eye(3), none, G2).tolist() == [0, -1, -1, 0, -1, -1, -1]
        # A variable no row touches is not eliminated.
        assert solver._rows_on(np.eye(3), none, G[:, :2] @ np.eye(2, 3)).tolist() == \
            [0, 1, -1, 0, 1, -1]

    @pytest.mark.parametrize("bound, capped, p", [([0, 0, 1, 1, 2], True, 2),
                                                  ([0, 1, 1, 1, 2, 2], False, 2),
                                                  ([0, 1, 1, 2], False, 0)])
    def test_block_split_matches_dense_solve(self, bound, capped, p):
        # LPs shaped as the min-erosion LP, over [theta | a | b]: p equality
        # rows on theta, the rows a_j >= |C_j theta| of each entry j, and per
        # run of 3 entries a sum row sum_j a_j <= b_bound[run]. The a and b
        # of one bound form a block, which the step eliminates; theta stays.
        # A row b_0 <= 1 gives one of two blocks of a size one row more, so
        # the other is padded. Without equality rows, a Hessian block on
        # theta keeps theta out of the blocks (a QP).
        rng = np.random.default_rng(len(bound))
        n_th, size, nb = 5, 3, 3
        n_a, n_b = size * len(bound), max(bound) + 1
        runs = np.zeros((len(bound), n_a + n_b))
        runs[np.arange(n_a) // size, np.arange(n_a)] = 1.0
        runs[np.arange(len(bound)), n_a + np.array(bound)] = -1.0
        C = rng.normal(size=(n_a, n_th))
        G = np.vstack([np.hstack([C, -np.eye(n_a), np.zeros((n_a, n_b))]),
                       np.hstack([-C, -np.eye(n_a), np.zeros((n_a, n_b))]),
                       np.hstack([np.zeros((len(bound), n_th)), runs])])
        if capped:
            G = np.vstack([G, np.eye(1, G.shape[1], n_th + n_a)])
        n, m = G.shape[1], G.shape[0]
        H, A = np.zeros((n, n)), np.hstack([rng.normal(size=(p, n_th)), np.zeros((p, n - n_th))])
        if not p:
            R = rng.normal(size=(n_th, n_th))
            H[:n_th, :n_th] = R @ R.T
        newton = solver._Newton(H, A, G)
        assert newton.S.tolist() == list(range(n_th, n))
        sizes = Counter((np.bincount(bound) * size + 1).tolist())  # a bound's a, and b
        assert {cols.shape[1]: len(cols) for cols, *_ in newton._groups} == sizes
        for _ in range(5):
            d = np.exp(rng.uniform(-8.0, 8.0, size=(nb, m)))
            reg = 1e-12 * rng.uniform(1.0, 10.0, nb)
            rhs = rng.normal(size=(nb, n + p))
            fac = newton.matrix(H, G, d, reg)
            assert fac[0].shape[-1] == n_th + p
            sol = newton.solve(fac, rhs)
            for k in range(nb):
                dense = np.block([[H + G.T @ np.diag(d[k]) @ G + reg[k] * np.eye(n), A.T],
                                  [A, -reg[k] * np.eye(p)]])
                want = np.linalg.solve(dense, rhs[k])
                assert np.linalg.norm(sol[k] - want) <= 1e-10 * np.linalg.norm(want)
                one = slice(k, k + 1)
                alone = newton.solve(newton.matrix(H, G, d[one], reg[one]), rhs[one])
                assert alone.tobytes() == sol[one].tobytes()  # the batch leaves no trace

    def test_diagonal_box_qp_eliminates_every_variable(self):
        # Every variable is eliminated, so the factorized matrix is empty;
        # the optimum is the clamped unconstrained one.
        rng = np.random.default_rng(29)
        h, g = rng.uniform(0.5, 2.0, 3), rng.normal(size=3) * 3.0
        A, b = box_rows(3, 1.0)
        p = QpProblem(H=np.diag(h), A_in=A)
        assert p._newton.U.size == 0
        rep = solve_qp(p, g, b)
        assert rep.status == Status.OPTIMAL
        assert np.allclose(rep.x, np.clip(-g / h, -1.0, 1.0), atol=1e-8)

    def test_qp_with_eliminated_variables_matches_slsqp(self):
        pytest.importorskip("scipy")
        from scipy.optimize import minimize
        rng = np.random.default_rng(23)
        for _ in range(3):
            H, A_eq, G = structured_qp(rng, 3, 3, 1)
            h = np.abs(G) @ np.full(6, 0.5) + rng.uniform(0.1, 1.0, G.shape[0])
            g = rng.normal(size=6) * 3.0
            b_eq = A_eq @ rng.uniform(-0.2, 0.2, 6)
            p = QpProblem(H=H, A_in=G, A_eq=A_eq, b_eq=b_eq)
            assert p._newton.S.tolist() == [3, 4, 5]
            rep = solve_qp(p, g, h)
            assert rep.status == Status.OPTIMAL
            ref = minimize(lambda x: 0.5 * x @ H @ x + g @ x, np.zeros(6),
                           jac=lambda x: H @ x + g, method="SLSQP",
                           constraints=[{"type": "ineq", "fun": lambda x: h - G @ x,
                                         "jac": lambda x: -G},
                                        {"type": "eq", "fun": lambda x: A_eq @ x - b_eq,
                                         "jac": lambda x: A_eq}],
                           options={"ftol": 1e-12, "maxiter": 500})
            assert ref.success
            assert rep.objective == pytest.approx(ref.fun, abs=1e-7)


class TestQp:
    def test_min_norm_halfspace(self):
        # min ||x||^2 s.t. x1 >= 1  -> x = (1, 0, ...), objective 1.
        n = 3
        H = 2.0 * np.eye(n)
        g = np.zeros(n)
        A = np.zeros((1, n))
        A[0, 0] = -1.0
        rep = solve_qp(QpProblem(H=H, A_in=A), g, [-1.0])
        assert rep.status == Status.OPTIMAL
        assert np.allclose(rep.x, [1.0, 0.0, 0.0], atol=1e-6)
        assert 2 * rep.objective == pytest.approx(2.0, abs=1e-6)  # x.x = 1

    def test_unconstrained_analytic(self):
        # Every problem needs inequality rows; one without them is rejected.
        rng = np.random.default_rng(3)
        Hroot = rng.normal(size=(4, 4))
        H = Hroot @ Hroot.T + 4.0 * np.eye(4)
        g = rng.normal(size=4)
        for A_in in (None, np.zeros((0, 4))):
            with pytest.raises(ValueError):
                QpProblem(H=H, A_in=A_in)

    def test_random_box_qps_match_active_set_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            n = 3
            Hroot = rng.normal(size=(n, n))
            H = Hroot @ Hroot.T + 1.0 * np.eye(n)
            g = rng.normal(size=n) * 2.0
            A, b = box_rows(n, 1.0)
            rep = solve_qp(QpProblem(H=H, A_in=A), g, b)
            assert rep.status == Status.OPTIMAL
            _, obj = qp_min_by_active_sets(H, g, A, b)
            assert rep.objective == pytest.approx(obj, abs=1e-6)

    def test_equality_constrained(self):
        H = 2.0 * np.eye(2)
        rep = solve_qp(QpProblem(H=H, A_eq=[[1.0, 1.0]], b_eq=[2.0], A_in=-np.eye(2)),
                       np.zeros(2), np.zeros(2))
        assert rep.status == Status.OPTIMAL
        assert np.allclose(rep.x, [1.0, 1.0], atol=1e-6)

    def test_equality_rows_need_their_rhs(self):
        # Either half of the equality block alone is rejected: a lone b_eq
        # is not dropped, and a lone A_eq is not called non-finite.
        for half in ({"b_eq": [2.0]}, {"A_eq": [[1.0, 1.0]]}):
            with pytest.raises(ValueError,
                               match="^equality matrix and rhs must be given together$"):
                QpProblem(H=2.0 * np.eye(2), A_in=-np.eye(2), **half)

    def test_zero_hessian_takes_no_eigenvalue_solve(self, monkeypatch):
        # An LP's H = 0 is semidefinite without an eigenvalue solve; a
        # nonzero H still takes one.
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: calls.append(H) or eigvalsh(H))
        QpProblem(H=np.zeros((3, 3)), A_in=np.eye(3))
        assert calls == []
        QpProblem(H=np.diag([0.0, 0.0, 1.0]), A_in=np.eye(3))
        assert len(calls) == 1

    def test_large_bound_is_not_unbounded(self):
        # min 0.5 x_0^2 - x_1 over 0 <= x_1 <= 1e13 is bounded.
        p = QpProblem(H=np.diag([1.0, 0.0]), A_in=[[0.0, 1.0], [0.0, -1.0]])
        rep = solve_qp(p, [0.0, -1.0], [1e13, 0.0])
        assert rep.status == Status.OPTIMAL
        assert rep.objective == pytest.approx(-1e13, rel=1e-12)

    def test_unbounded_along_flat_ray(self):
        # x_1 >= 0 with H flat along e_1 and g falling along it: UNBOUNDED
        # by the ray of the rows +-H. With H curving e_1 it is bounded.
        rows = [[0.0, -1.0]]
        rep = solve_qp(QpProblem(H=np.diag([1.0, 0.0]), A_in=rows), [0.0, -1.0], [0.0])
        assert rep.status == Status.UNBOUNDED
        assert rep.x is None and rep.objective is None
        rep = solve_qp(QpProblem(H=np.diag([0.0, 1.0]), A_in=rows), [0.0, -1.0], [0.0])
        assert rep.status == Status.OPTIMAL
        assert rep.objective == pytest.approx(-0.5, abs=1e-9)

    def test_infeasible_qp(self):
        A = np.array([[1.0], [-1.0]])
        rep = solve_qp(QpProblem(H=[[2.0]], A_in=A), [0.0], [-2.0, 1.0])
        assert rep.status == Status.INFEASIBLE

    def test_rejects_indefinite_hessian(self):
        with pytest.raises(ValueError):
            QpProblem(H=[[-1.0]], A_in=[[1.0]])

    def test_rejects_hessian_with_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            QpProblem(H=np.diag([1.0, -1.0]), A_in=np.eye(2))

    def test_with_vectors_checks_size_and_finiteness(self):
        # One problem serves solves with other vectors, each checked: a
        # solve's report is that of a problem built for it alone.
        p = QpProblem(H=np.eye(2), A_in=np.eye(2))
        solve_qp(p, np.zeros(2), np.ones(2))
        rep = solve_qp(p, [1.0, -1.0], [2.0, 0.5])
        ref = solve_qp(QpProblem(H=np.eye(2), A_in=np.eye(2)), [1.0, -1.0], [2.0, 0.5])
        assert same_report(rep, ref)
        for g, b in (([1.0], [2.0, 2.0]), ([0.0, 0.0], [2.0]),
                     ([np.nan, 0.0], [2.0, 2.0]), ([0.0, 0.0], [np.inf, 2.0])):
            with pytest.raises(ValueError):
                solve_qp(p, g, b)


@st.composite
def lp_or_qp(draw):
    """min 0.5 x.H x + g.x s.t. G x <= h: an LP (H = 0) or a convex QP
    with H = M^T M and M of fewer rows than columns, so that H leaves
    flat rays and some QPs are unbounded. The offsets lie about a random
    point, some below it, so that some draws are infeasible, and all are
    scaled by 10^0 to 10^13."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    M = rng.normal(size=(draw(st.integers(0, n - 1)), n))
    G = rng.normal(size=(m, n))
    h = G @ rng.normal(size=n) + rng.uniform(-0.5, 1.5, size=m)
    h *= 10.0 ** draw(st.integers(0, 13))
    return M.T @ M, rng.normal(size=n), G, h


@settings(max_examples=100, deadline=None)
@given(problem=lp_or_qp())
@example(problem=(np.zeros((1, 1)), np.array([-1.0]), np.array([[1.0], [-1.0]]),
                  np.array([1e13, 0.0])))  # max x over [0, 1e13]
@example(problem=(np.diag([1.0, 0.0]), np.array([0.0, -1.0]),
                  np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([1e13, 0.0])))  # min x_0^2/2 - x_1
def test_lp_qp_verdicts_match_highs(problem):
    # Aim 3: an LP or QP is INFEASIBLE or UNBOUNDED exactly when HiGHS says
    # so, and every OPTIMAL objective matches the oracle's: HiGHS for an
    # LP, active-set enumeration for a QP. MAXITER is left to bounded,
    # feasible problems.
    pytest.importorskip("scipy")
    H, g, G, h = problem
    if H.any():
        rep = solve_qp(QpProblem(H=H, A_in=G), g, h)
        objective = rep.objective
    else:
        rep = lp_max(-g, G, h)
        objective = None if rep.objective is None else -rep.objective
    empty, bounded = highs_verdicts(G, h, g, H)
    assert (rep.status == Status.INFEASIBLE) == empty
    assert (rep.status == Status.UNBOUNDED) == (not empty and not bounded)
    if rep.status == Status.OPTIMAL:
        expected = (qp_min_by_active_sets(H, g, G, h)[1] if H.any()
                    else -highs_max(-g, G, h))
        assert objective == pytest.approx(expected, rel=1e-7)


def least_distance_rows(seed, n, m, n_copies, n_zero):
    """Rows that hold a random point, then duplicates of some rows,
    positive multiples of others with looser or tighter offsets, and zero
    rows with nonnegative offsets, in random order."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n))
    b = A @ rng.uniform(-2.0, 2.0, n) + rng.uniform(0.0, 1.0, m)
    pick = rng.integers(0, m, n_copies)
    scale = rng.choice([1.0, 2.5], n_copies)
    shift = rng.choice([0.0, -0.3, 0.4], n_copies)
    A = np.vstack([A, scale[:, None] * A[pick], np.zeros((n_zero, n))])
    b = np.concatenate([b, scale * (b[pick] + shift), rng.uniform(0.0, 1.0, n_zero)])
    order = rng.permutation(b.size)
    return A[order], b[order]


def least_distance_qr_every_step(A, b):
    """``solver.least_distance`` as it was before it skipped the QR
    factorization of an empty active set: the reference for its bits."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    tol = solver.QP_TOL * (1.0 + np.max(np.abs(b)))
    y = np.zeros(A.shape[1])
    active, lam = [], np.zeros(0)
    p, steps = None, 0
    while True:
        if p is None:
            excess = A @ y - b
            p, lam_p = int(np.argmax(excess)), 0.0
            if excess[p] <= tol:
                return y, steps
        if steps == solver.MAX_ITER:
            return None, steps
        steps += 1
        a = A[p]
        Q, R = np.linalg.qr(A[active].T)
        Qa = Q.T @ a
        z = a - Q @ Qa
        r = np.linalg.solve(R, Qa)
        full = np.inf
        if np.linalg.norm(z) > solver.QP_TOL * np.linalg.norm(a):
            full = (a @ y - b[p]) / (z @ z)
        blocking = np.flatnonzero(r > 0.0)
        ratios = lam[blocking] / r[blocking]
        t = min(full, np.min(ratios, initial=np.inf))
        if t == np.inf:
            return None, steps
        if full < np.inf:
            y = y - t * z
        lam, lam_p = lam - t * r, lam_p + t
        if t == full:
            active.append(p)
            lam, p = np.append(lam, lam_p), None
        else:
            drop = int(blocking[np.argmin(ratios)])
            del active[drop]
            lam = np.delete(lam, drop)


LEAST_DISTANCE_ROWS = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
                           m=st.integers(1, 8), n_copies=st.integers(0, 3),
                           n_zero=st.integers(0, 2))
INFEASIBLE_ROWS = [
    ([[1.0, 1.0], [-1.0, -1.0]], [-1.0, -1.0]),       # an infeasible pair of rows
    ([[1.0, 0.0], [0.0, 0.0]], [1.0, -1e-3]),          # a zero row with a negative offset
    ([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [-1.0, -1.0, 1.0])]


class TestLeastDistance:
    """solver.least_distance, the nearest point of {A y <= b} to the origin."""

    @settings(max_examples=60, deadline=None)
    @given(**LEAST_DISTANCE_ROWS)
    def test_matches_slsqp(self, seed, n, m, n_copies, n_zero):
        A, b = least_distance_rows(seed, n, m, n_copies, n_zero)
        y, steps = solver.least_distance(A, b)
        want = slsqp_least_norm(np.eye(n), np.zeros(n), A, b)
        if want is None:  # a tighter parallel copy can leave no point
            assert y is None
            return
        assert y is not None and steps <= solver.MAX_ITER
        assert np.max(A @ y - b) <= solver.QP_TOL * (1.0 + np.max(np.abs(b)))
        assert np.max(np.abs(y - want)) <= 1e-7
        if np.all(b >= 0.0):
            assert steps == 0 and not y.any()

    @pytest.mark.parametrize("A, b", INFEASIBLE_ROWS)
    def test_infeasible_rows_return_none(self, A, b):
        y, steps = solver.least_distance(A, b)
        assert y is None and 0 < steps <= solver.MAX_ITER

    @settings(max_examples=200, deadline=None)
    @given(**LEAST_DISTANCE_ROWS, shift=st.sampled_from([0.0, -0.5, -2.0]))
    def test_same_bits_as_qr_every_step(self, seed, n, m, n_copies, n_zero, shift):
        # Rows moved by a shift leave the origin, so the first step starts
        # from an empty active set; every infeasible case as well.
        A, b = least_distance_rows(seed, n, m, n_copies, n_zero)
        for A, b in [(A, b + shift)] + INFEASIBLE_ROWS:
            y, steps = solver.least_distance(A, b)
            want, want_steps = least_distance_qr_every_step(A, b)
            assert steps == want_steps
            assert (y is None and want is None) or y.tobytes() == want.tobytes()

    def test_step_cap_returns_none(self, monkeypatch):
        # Two rows, each violated at the origin and at the other's
        # projection: two steps to the corner (1, 1).
        A, b = [[-1.0, 0.0], [0.0, -1.0]], [-1.0, -1.0]
        y, steps = solver.least_distance(A, b)
        assert steps == 2 and np.max(np.abs(y - 1.0)) <= 1e-15
        monkeypatch.setattr(solver, "MAX_ITER", 1)
        assert solver.least_distance(A, b) == (None, 1)


# Slacks and multipliers of the loop: 0, near the divergence floor 1e-200,
# or moderate; their steps: both signed zeros, negative or positive.
STEP_V = st.one_of(st.just(0.0), st.floats(1e-200, 1e-199), st.floats(1e-12, 1e10))
STEP_DV = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e10, -1e-10),
                    st.floats(1e-10, 1e10))


def plain_step(v, dv):
    """min(1, min over dv < 0 of -v/dv), in Python floats."""
    return min([1.0] + [-a / b for a, b in zip(v, dv) if b < 0.0])


class TestStepLength:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 8).flatmap(lambda m: st.lists(
        st.lists(st.tuples(STEP_V, STEP_DV), min_size=m, max_size=m), min_size=1, max_size=4)))
    def test_equals_plain_rule_bit_for_bit(self, rows):
        # Every drawn row, then the same row with every step negative and
        # with none negative; also as the loop's (B, 2, m/2) stack of s
        # beside z.
        m = len(rows[0])
        v, dv = np.array(rows).transpose(2, 0, 1)
        v = np.vstack([v, v, v])
        dv = np.vstack([dv, -np.abs(dv) - 1e-3, np.abs(dv)])
        want = np.array([plain_step(a, b) for a, b in zip(v, dv)])
        assert solver._max_step(v, dv).tobytes() == want.tobytes()
        if m % 2 == 0:
            half = m // 2
            got = solver._max_step(v.reshape(-1, 2, half), dv.reshape(-1, 2, half))
            want = np.array([[plain_step(a[:half], b[:half]), plain_step(a[half:], b[half:])]
                             for a, b in zip(v, dv)])
            assert got.tobytes() == want.tobytes()


class TestLogVolume:
    def test_symmetric_optimum_f2(self):
        # k=1: vbar + vund <= 2 -> vbar = vund = 1.
        W = np.array([[1.0, 1.0]])
        (rep,) = maximize_log_volume_batch(W, [[2.0]], solver.MODE_SUM_LOG_BOTH)
        assert rep.status == Status.OPTIMAL
        assert np.allclose(rep.x, [1.0, 1.0], atol=1e-5)

    def test_width_objective_f1(self):
        # k=1: vbar <= 3, vund <= 1 -> width 4 regardless of split.
        W = np.array([[1.0, 0.0], [0.0, 1.0]])
        (rep,) = maximize_log_volume_batch(W, [[3.0, 1.0]], solver.MODE_SUM_LOG_WIDTH)
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
            (rep,) = maximize_log_volume_batch(W, [d], mode)
            assert rep.status == Status.OPTIMAL
            vb, vu = rep.x[:2], rep.x[2:]
            if mode == solver.MODE_SUM_LOG_WIDTH:
                vol = (vb[0] + vu[0]) * (vb[1] + vu[1])
            else:
                vol = vb[0] * vu[0] * vb[1] * vu[1]
            best = grid_box_volumes(W, d, n=200)[mode]
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
            (rep,) = maximize_log_volume_batch(W, [d], mode)
            assert rep.status == Status.OPTIMAL
            assert np.max(W @ rep.x - d) <= 1e-12 * (1.0 + np.max(d))
            assert rep.objective >= slsqp_log_volume(W, d, mode) - 1e-9

    # A small f2 problem that stalls: one collapsed slack blocks the
    # shared primal-dual step, and the Newton matrix turns singular.
    STALL_W = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 1.01657819],
                        [1.09344352, 0.0, 0.0, 0.0, 0.0, 0.0],
                        [0.87590619, 0.49436755, 0.9030161, 0.65234524, 0.84642051, 0.0]])
    STALL_D = np.array([0.38126648, 0.26948743, 1.46350906])

    def test_capped_loop_steps_only_between_checks(self, monkeypatch):
        # Capped at 5 convergence checks, the loop takes a Newton step (two
        # solves) after each check but the last.
        solves, solve = [], solver._Newton.solve
        monkeypatch.setattr(solver._Newton, "solve",
                            lambda self, *a: solves.append(a) or solve(self, *a))
        monkeypatch.setattr(solver, "MAX_ITER", 5)
        (rep,) = maximize_log_volume_batch(self.STALL_W, [self.STALL_D],
                                           solver.MODE_SUM_LOG_BOTH)
        assert rep.status == Status.MAXITER
        assert rep.iterations == 5
        assert len(solves) == 2 * (5 - 1)

    def test_early_exit_reports_the_checks_made(self, monkeypatch):
        # The stall example leaves the loop when its 14th Newton matrix
        # stays singular through six larger regularizations: 14 checks
        # made, not MAX_ITER.
        matrices, matrix = [], solver._Newton.matrix
        monkeypatch.setattr(solver._Newton, "matrix",
                            lambda self, *a: matrices.append(a) or matrix(self, *a))
        (rep,) = maximize_log_volume_batch(self.STALL_W, [self.STALL_D],
                                           solver.MODE_SUM_LOG_BOTH)
        assert rep.status == Status.MAXITER
        assert rep.iterations == 14
        assert len(matrices) == 14 + 6

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
        (ref,) = maximize_log_volume_batch(W, [d], solver.MODE_SUM_LOG_WIDTH)
        rng = np.random.default_rng(0)
        for _ in range(20):
            perm = rng.permutation(d.size)
            (rep,) = maximize_log_volume_batch(W[perm], [d[perm]], solver.MODE_SUM_LOG_WIDTH)
            assert np.max(np.abs(rep.x - ref.x)) <= 1e-9

    def test_strictly_positive_widths_f2(self):
        W = np.vstack([np.array([[1.0, 0.2, 0.5, 0.1]]), np.eye(4)])
        d = np.array([1.0, 2.0, 2.0, 2.0, 2.0])
        (rep,) = maximize_log_volume_batch(W, [d], solver.MODE_SUM_LOG_BOTH)
        assert rep.status == Status.OPTIMAL
        assert np.all(rep.x > 0)

    def test_degenerate_coordinate_detected(self):
        # vund_1 has zero feasible width, so f2 finds the first pair
        # degenerate and pins both of its sides to zero.
        W = np.vstack([np.array([[0.0, 0.0, 1.0, 0.0]]), np.eye(4)])
        d = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
        (rep,) = maximize_log_volume_batch(W, [d], solver.MODE_SUM_LOG_BOTH)
        assert rep.status == Status.OPTIMAL
        pinned = np.flatnonzero((rep.x[:2] == 0.0) & (rep.x[2:] == 0.0))
        assert pinned.tolist() == [0]

    def test_inactive_coordinates_pinned(self):
        # The pinned pair leaves the objective; the other pair is solved
        # as if it were alone.
        W = np.vstack([np.array([[0.0, 0.0, 1.0, 0.0]]), np.eye(4)])
        d = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
        (rep,) = maximize_log_volume_batch(W, [d], solver.MODE_SUM_LOG_BOTH)
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
        (rep,) = maximize_log_volume_batch(W, [d], solver.MODE_SUM_LOG_WIDTH)
        assert rep.status == Status.OPTIMAL
        assert rep.x[2] == 0.0
        assert rep.x[0] == pytest.approx(1.0, abs=1e-5)
        assert rep.x[1] + rep.x[3] == pytest.approx(2.0, abs=1e-5)
        assert rep.objective == pytest.approx(np.log(2.0), abs=1e-5)

    def test_all_pairs_degenerate(self):
        W = np.vstack([np.array([[1.0, 1.0, 1.0, 1.0]]), np.eye(4)])
        d = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
        for mode in (solver.MODE_SUM_LOG_WIDTH, solver.MODE_SUM_LOG_BOTH):
            (rep,) = maximize_log_volume_batch(W, [d], mode)
            assert rep.status == Status.OPTIMAL
            assert not rep.x.any()

    def test_determinism(self):
        W = np.vstack([np.array([[1.0, 0.3, 0.4, 0.9]]), np.eye(4)])
        d = np.array([2.0, 3.0, 3.0, 3.0, 3.0])
        (r1,) = maximize_log_volume_batch(W, [d], solver.MODE_SUM_LOG_WIDTH)
        (r2,) = maximize_log_volume_batch(W, [d], solver.MODE_SUM_LOG_WIDTH)
        assert r1.x.tobytes() == r2.x.tobytes()

    def test_offsets_need_one_row_per_problem(self):
        W = np.vstack([np.array([[1.0, 0.3, 0.4, 0.9]]), np.eye(4)])
        d = np.array([2.0, 3.0, 3.0, 3.0, 3.0])
        with pytest.raises(ValueError):
            maximize_log_volume_batch(W, [np.tile(d, 2)], solver.MODE_SUM_LOG_WIDTH)
        with pytest.raises(ValueError):
            maximize_log_volume_batch(W, d, solver.MODE_SUM_LOG_WIDTH)

    def test_negative_offset_is_a_value_error(self):
        # An offset below -FEAS_TOL leaves v = 0 outside the rows: an input
        # error, like the shape checks above.
        W = np.vstack([np.array([[1.0, 0.3, 0.4, 0.9]]), np.eye(4)])
        d = np.array([-1e-6, 3.0, 3.0, 3.0, 3.0])
        with pytest.raises(ValueError, match="infeasible at v = 0"):
            maximize_log_volume_batch(W, [d], solver.MODE_SUM_LOG_WIDTH)
