import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etrmpc import geometry, rmpc, sim, solver
from etrmpc.geometry import HyperRect, Projection
from etrmpc.rmpc import InfeasibleState, solve_rmpc
from etrmpc.tightening import (PlantModel, build_setup, synthesize_nominal_gain,
                               synthesize_tightening_gains)

from batch_reactor import X0, batch_plant, batch_setup, cross_polytope_setup, stage_sets
from oracles import grid_projection, slsqp_least_norm


def stage_cost(setup, x_i, u_i, i):
    """l(x_i, u_i) = d_Q(x_i, Tx_i) + d_R(u_i, Tu_i), from a Projection
    onto each target alone."""
    dx, _ = Projection(setup.plant.Tx.A, [setup.TX_offsets[i]], setup.Q)([x_i])
    du, _ = Projection(setup.plant.Tu.A, [setup.TU_offsets[i]], setup.R)([u_i])
    return float(dx[0] + du[0])


def small_setup(W_half=0.02, N=6):
    A = np.array([[1.1, 0.4], [0.0, 0.9]])
    B = np.array([[0.0], [1.0]])
    plant = PlantModel(
        A, B,
        X=HyperRect([-3.0, -3.0], [3.0, 3.0]),
        U=HyperRect([-3.0], [3.0]),
        W=HyperRect([-W_half, -W_half], [W_half, W_half]),
        Tx=HyperRect([-1.0, -1.0], [1.0, 1.0]),
        Tu=HyperRect([-2.0], [2.0]),
        Xf=HyperRect([-0.3, -0.3], [0.3, 0.3]))
    F = synthesize_nominal_gain(plant, np.eye(2), np.eye(1))
    K = synthesize_tightening_gains(plant, M=2, N=N)
    return build_setup(plant, N=N, M=2, F=F, K=K, Q=np.eye(2), R=np.eye(1))


class TestSolve:
    def test_origin_has_zero_value(self):
        setup = small_setup()
        sol = solve_rmpc(setup, [0.0, 0.0])
        assert sol.value <= 1e-9
        assert np.max(np.abs(sol.u)) <= 1e-4

    def test_far_state_infeasible(self):
        setup = small_setup()
        with pytest.raises(InfeasibleState):
            solve_rmpc(setup, [10.0, 0.0])

    def test_infeasible_qp_inside_state_set(self):
        # x0 lies in X but no plan keeps its disturbed states in the
        # tightened sets: the QP's rows have no point, which only the
        # verdict on the undecided QP can report.
        with pytest.raises(InfeasibleState, match=r"\(QP infeasible\)$"):
            solve_rmpc(batch_setup(), [-1.99] * 4)

    def test_non_finite_state_rejected(self):
        # A NaN state would pass the membership test (NaN > tol is False),
        # so it is rejected before it, as is an infinite one.
        setup = batch_setup()
        for x0 in ([np.nan, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]):
            with pytest.raises(ValueError, match="^x0 must be finite"):
                solve_rmpc(setup, x0)

    def test_dynamics_exact(self):
        setup = small_setup()
        sol = solve_rmpc(setup, [1.5, -0.5])
        A, B = setup.plant.A, setup.plant.B
        for i in range(setup.N):
            assert np.max(np.abs(sol.x[i + 1] - (A @ sol.x[i] + B @ sol.u[i]))) <= 1e-9

    def test_memberships_and_value(self):
        setup = small_setup()
        sol = solve_rmpc(setup, [1.5, -0.5])
        U, X, TX, TU = (stage_sets(setup, f) for f in ("U", "X", "TX", "TU"))
        for i in range(setup.N):
            assert U[i].membership_residual(sol.u[i]) <= 1e-8
            assert X[i].membership_residual(sol.x[i]) <= 1e-8
            assert TX[i].membership_residual(sol.sx[i]) <= 1e-8
            assert TU[i].membership_residual(sol.su[i]) <= 1e-8
        total = 0.0
        for i in range(setup.N):
            total += ((sol.x[i] - sol.sx[i]) @ setup.Q @ (sol.x[i] - sol.sx[i])
                      + (sol.u[i] - sol.su[i]) @ setup.R @ (sol.u[i] - sol.su[i]))
        assert sol.value == pytest.approx(total, abs=1e-9)
        assert sol.value >= 0.0
        assert np.max(np.abs(sol.x[setup.N]) - 0.3) <= 1e-8  # terminal set

    def test_resolve_after_one_step_decays(self):
        setup = batch_setup()
        sol = solve_rmpc(setup, X0)
        x1 = setup.plant.A @ X0 + setup.plant.B @ sol.u[0]
        sol1 = solve_rmpc(setup, x1)
        assert sol1.value <= sol.value - sol.stage_costs[0] + 1e-6

    def test_deterministic(self):
        setup = small_setup()
        a = solve_rmpc(setup, [1.0, 0.3])
        b = solve_rmpc(setup, [1.0, 0.3])
        assert a.u.tobytes() == b.u.tobytes()
        assert a.value == b.value

    def test_optimality_against_shifted_candidate(self):
        # V*(x1) is at most the cost of the hand-built shifted plan.
        setup = small_setup(W_half=0.0)
        sol = solve_rmpc(setup, [1.2, -0.8])
        x1 = sol.x[1]
        u_cand = list(sol.u[1:]) + [setup.F @ sol.x[setup.N]]
        cost = 0.0
        x = x1.copy()
        feas = True
        U, X = stage_sets(setup, "U"), stage_sets(setup, "X")
        for i in range(setup.N):
            u = np.atleast_1d(u_cand[i])
            feas &= U[i].membership_residual(u) <= 1e-8
            feas &= X[i].membership_residual(x) <= 1e-8
            cost += stage_cost(setup, x, u, i)
            x = setup.plant.A @ x + setup.plant.B @ u
        assert feas
        v1 = solve_rmpc(setup, x1).value
        assert v1 <= cost + 1e-6


class TestStageCost:
    def test_inside_targets_zero(self):
        setup = small_setup()
        assert stage_cost(setup, [0.1, 0.1], [0.0], 0) == 0.0

    def test_box_exit_closed_form(self):
        # One unit outside along coordinate 0 with weight 2 -> cost 2.
        A = np.array([[1.08, -0.05], [-0.03, 0.81]])
        B = np.eye(2)
        plant = PlantModel(
            A, B,
            X=HyperRect([-5, -5], [5, 5]), U=HyperRect([-5, -5], [5, 5]),
            W=HyperRect([0, 0], [0, 0]),
            Tx=HyperRect([-1, -1], [1, 1]), Tu=HyperRect([-1, -1], [1, 1]),
            Xf=HyperRect([-1, -1], [1, 1]))
        F = synthesize_nominal_gain(plant, np.eye(2), np.eye(2))
        K = synthesize_tightening_gains(plant, M=2, N=4)
        setup = build_setup(plant, N=4, M=2, F=F, K=K,
                            Q=2.0 * np.eye(2), R=np.eye(2))
        assert stage_cost(setup, [2.0, 0.0], [0.0, 0.0], 1) == pytest.approx(2.0, abs=1e-12)

    def test_against_grid_oracle(self):
        setup = small_setup()
        x = np.array([2.1, -1.7])
        u = np.array([2.6])
        got = stage_cost(setup, x, u, 0)
        Tx, Tu = stage_sets(setup, "TX")[0].as_box(), stage_sets(setup, "TU")[0].as_box()
        dx, _ = grid_projection(x, Tx.lower, Tx.upper, setup.Q, n=401)
        du, _ = grid_projection(u, Tu.lower, Tu.upper, setup.R, n=401)
        assert got == pytest.approx(dx + du, abs=1e-6)


class TestLqrCrosscheck:
    def test_first_input_matches_finite_horizon_lqr(self):
        # No disturbance, near-point targets, slack terminal set: on
        # interior states the controller reduces to unconstrained
        # finite-horizon LQ; expected input from an independent Riccati
        # recursion with zero terminal weight.
        A = np.array([[0.6, 0.1], [0.0, 0.5]])
        B = np.eye(2)
        N = 30
        eps = 1e-5
        # Xf sits inside the near-point targets (terminal assumption) and
        # stays inactive: the optimal trajectory decays to ~1e-10 by stage N.
        plant = PlantModel(
            A, B,
            X=HyperRect([-50, -50], [50, 50]), U=HyperRect([-50, -50], [50, 50]),
            W=HyperRect([0, 0], [0, 0]),
            Tx=HyperRect([-eps, -eps], [eps, eps]),
            Tu=HyperRect([-eps, -eps], [eps, eps]),
            Xf=HyperRect([-eps / 2, -eps / 2], [eps / 2, eps / 2]))
        Q, R = 2.0 * np.eye(2), np.eye(2)
        F = synthesize_nominal_gain(plant, Q, R)
        K = synthesize_tightening_gains(plant, M=2, N=N)
        setup = build_setup(plant, N=N, M=2, F=F, K=K, Q=Q, R=R)

        x0 = np.array([0.2, -0.1])
        sol = solve_rmpc(setup, x0)

        P = np.zeros((2, 2))  # zero terminal weight, backwards recursion
        F_t = None
        for _ in range(N):
            BtPA = B.T @ P @ A
            F_t = -np.linalg.solve(R + B.T @ P @ B, BtPA)
            P = Q + A.T @ P @ A + BtPA.T @ F_t
        assert np.max(np.abs(sol.u[0] - F_t @ x0)) <= 1e-4


class TestPolytopicTarget:
    def test_cross_polytope_state_target_two_solves(self):
        # The target is not a box, so every stage state outside it takes
        # one least-distance solve, and the re-projected plan value must
        # match the RMPC QP value.
        setup = cross_polytope_setup()
        plant = setup.plant
        sol = solve_rmpc(setup, X0)
        x1 = plant.A @ X0 + plant.B @ sol.u[0]
        sol1 = solve_rmpc(setup, x1)
        assert sol1.value <= sol.value - sol.stage_costs[0] + 1e-6


class TestQpData:
    """The condensed QP against the explicit-state QP of ``_per_stage_qp``."""

    @pytest.mark.parametrize("make", [batch_setup, cross_polytope_setup])
    def test_condensed_objective_and_rows_match_explicit(self, make):
        setup = make()
        qp = setup.qp
        H, A_eq, A_in, b_in = _per_stage_qp(setup)
        rng = np.random.default_rng(7)
        for _ in range(5):
            x0 = rng.uniform(-2.0, 2.0, setup.nx)
            z = rng.uniform(-2.0, 2.0, qp.H.shape[0])
            z_e = _lift(setup, z, x0)
            g, b_eq = _explicit_x0_terms(setup, x0)
            assert np.max(np.abs(A_eq @ z_e - b_eq)) <= 1e-12 * (1.0 + np.max(np.abs(z_e)))
            explicit = 0.5 * z_e @ H @ z_e + g @ z_e + x0 @ setup.Q @ x0
            condensed = 0.5 * z @ qp.H @ z + (qp.g_x0 @ x0) @ z + x0 @ qp.c_x0 @ x0
            assert condensed == pytest.approx(explicit, rel=1e-12)
            slack_e = b_in - A_in @ z_e
            slack = qp.b_in - qp.C_x0 @ x0 - qp.A_in @ z
            assert np.max(np.abs(slack - slack_e)) <= 1e-12 * np.max(np.abs(slack_e))

    @pytest.mark.parametrize("make", [batch_setup, cross_polytope_setup])
    def test_optimal_value_matches_explicit_qp(self, make):
        setup = make()
        qp = setup.qp
        H, A_eq, A_in, b_in = _per_stage_qp(setup)
        x1 = setup.plant.A @ X0 + setup.plant.B @ solve_rmpc(setup, X0).u[0]
        for x0 in (X0, x1, -0.6 * X0, np.array([-1.0, 1.0, 1.0, -1.0])):
            g, b_eq = _explicit_x0_terms(setup, x0)
            explicit = solver.solve_qp(
                solver.QpProblem(H=H, A_in=A_in, A_eq=A_eq, b_eq=b_eq), g, b_in)
            condensed = solver.solve_qp(
                solver.QpProblem(H=qp.H, A_in=qp.A_in), qp.g_x0 @ x0, qp.b_in - qp.C_x0 @ x0)
            assert explicit.status == condensed.status == solver.Status.OPTIMAL
            want = explicit.objective + x0 @ setup.Q @ x0
            assert want > 1e-3
            assert condensed.objective + x0 @ qp.c_x0 @ x0 == pytest.approx(want, rel=1e-8)

    def test_built_once_per_setup(self, monkeypatch):
        built = []
        init = rmpc.RmpcQp.__init__

        def counting(self, setup):
            built.append(setup)
            init(self, setup)

        monkeypatch.setattr(rmpc.RmpcQp, "__init__", counting)
        setup = small_setup()
        assert len(built) == 1
        a = solve_rmpc(setup, [1.0, -0.5])
        solve_rmpc(setup, setup.plant.A @ a.x[0] + setup.plant.B @ a.u[0])
        assert len(built) == 1


    @pytest.mark.parametrize("make", [batch_setup, cross_polytope_setup])
    def test_slack_points_on_box_targets_are_eliminated(self, make):
        # Only the box rows of a target touch its slack points, and the cost
        # is diagonal on them, so the Newton step eliminates them: all 60 on
        # the reference plant, and only the input slacks when the state
        # target is a cross-polytope. The inputs stay.
        setup = make()
        N, nx, nu = setup.N, setup.nx, setup.nu
        S = setup.qp.problem._newton.S
        su = np.arange(N * (nu + nx), N * (2 * nu + nx))
        boxed = setup.plant.Tx.as_box() is not None
        want = np.concatenate([np.arange(N * nu, N * (nu + nx)), su]) if boxed else su
        assert S.tolist() == want.tolist()

    def test_solution_keeps_qp_iterations(self):
        setup = batch_setup()
        qp = setup.qp
        for x0 in (X0, -0.6 * X0):  # V* > 0: the interior-point loop answers
            sol = solve_rmpc(setup, x0)
            rep = solver.solve_qp(qp.problem, qp.g_x0 @ x0, qp.b_in - qp.C_x0 @ x0)
            assert sol.iterations == rep.iterations > 0 and sol.path == rmpc.IPM
        sol = solve_rmpc(setup, np.zeros(setup.nx))  # the law answers
        assert sol.iterations == 0 and sol.path == rmpc.LAW
        assert not sol.u.any()

    def test_hessian_validated_once_per_setup(self, monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        setup = small_setup()
        a = solve_rmpc(setup, [1.0, -0.5])
        solve_rmpc(setup, setup.plant.A @ a.x[0] + setup.plant.B @ a.u[0])
        assert shapes.count(setup.qp.H.shape) == 1


_law_cases = {}


def _law_case(make):
    """The setup of ``make``, pinv(H), its explicit-state QP and the states
    of a 15-step periodic run from X0."""
    if make not in _law_cases:
        setup = make()
        trace = sim.run_closed_loop(setup, X0, sim.PERIODIC,
                                    sim.DisturbanceModel("uniform", seed=1234), 15)
        _law_cases[make] = (setup, np.linalg.pinv(setup.qp.H), _per_stage_qp(setup),
                            trace.x[:15])
    return _law_cases[make]


def _value_zero_plans(setup, x0):
    """(T, t) with z = T u + t the QP point at x0 whose slack points are the
    stage states x_0..x_{N-1} simulated under the inputs u and the inputs
    themselves: the plans of value 0 wherever they meet the rows."""
    N, nu = setup.N, setup.nu

    def plan(u):
        u = u.reshape(N, nu)
        x = [x0]
        for i in range(N - 1):
            x.append(setup.plant.A @ x[i] + setup.plant.B @ u[i])
        return np.concatenate([u.ravel(), np.ravel(x), u.ravel()])

    t = plan(np.zeros(N * nu))
    return np.stack([plan(e) - t for e in np.eye(N * nu)], axis=1), t


def _stop_residual(qp, z, g, b):
    res_p = np.max(qp.A_in @ z - b, initial=0.0) / (1.0 + np.max(np.abs(b)))
    res_d = np.max(np.abs(qp.H @ z + g)) / (1.0 + np.max(np.abs(g)) + np.max(np.abs(qp.H)))
    return max(res_p, res_d)


def _check_answer(make, x0):
    """solve_rmpc at x0 against its oracles; returns its path.

    A law answer is -pinv(H) g with the law's bytes, passes the
    interior-point stop test at QP_TOL and has the explicit-state QP's
    value. Where the law's plan leaves a row by more than QP_TOL (1 +
    max|b|), the face or the loop answers. A face answer has value 0,
    passes the same test and is SLSQP's least-norm plan of value 0. The
    loop answers only where HiGHS finds no plan of value 0, with
    solver.solve_qp's bytes.
    """
    setup, H_pinv, (H, A_eq, A_in, b_in), _ = _law_case(make)
    qp = setup.qp
    g, b = qp.g_x0 @ x0, qp.b_in - qp.C_x0 @ x0
    z = -H_pinv @ g
    sol = solve_rmpc(setup, x0)
    if np.max(qp.A_in @ z - b) > solver.QP_TOL * (1.0 + np.max(np.abs(b))):
        assert sol.path in (rmpc.FACE, rmpc.IPM)
    if sol.path == rmpc.LAW:
        assert sol.iterations == sol.face_steps == 0
        law = qp.law @ x0
        assert np.max(np.abs(law - z)) <= 1e-9
        assert sol.u.tobytes() == law[qp.u].tobytes()
        assert _stop_residual(qp, law, g, b) <= solver.QP_TOL
        g_e, b_eq = _explicit_x0_terms(setup, x0)
        explicit = solver.solve_qp(
            solver.QpProblem(H=H, A_in=A_in, A_eq=A_eq, b_eq=b_eq), g_e, b_in)
        assert explicit.status == solver.Status.OPTIMAL
        want = explicit.objective + x0 @ setup.Q @ x0
        assert abs(sol.value - want) <= 1e-8 * max(1.0, abs(want))
        return sol.path
    T, t = _value_zero_plans(setup, x0)
    rows, offsets = qp.A_in @ T, b - qp.A_in @ t
    least_norm = slsqp_least_norm(T, t, rows, offsets)
    if sol.path == rmpc.FACE:
        assert sol.iterations == 0 < sol.face_steps
        assert 0.0 <= sol.value <= 1e-9 and sol.kkt_residual <= solver.QP_TOL
        assert _stop_residual(qp, T @ sol.u.ravel() + t, g, b) <= solver.QP_TOL
        assert least_norm is not None
        assert np.max(np.abs(sol.u.ravel() - least_norm)) <= 1e-7
        return sol.path
    assert sol.path == rmpc.IPM and sol.iterations > 0
    assert least_norm is None
    rep = solver.solve_qp(qp.problem, g, b)
    assert sol.u.tobytes() == rep.x[qp.u].tobytes()
    return sol.path


class TestUnconstrainedLaw:
    """The three answers of solve_rmpc: the least-norm law of the
    unconstrained region against -pinv(H) g and the explicit-state QP, the
    least-norm plan of value 0 against SLSQP, and the interior-point loop
    against HiGHS (no plan of value 0) and solver.solve_qp."""

    @pytest.mark.parametrize("make", [batch_setup, cross_polytope_setup])
    def test_periodic_run_states(self, make):
        # The run starts with V* > 0 and then keeps its states where a plan
        # of value 0 exists, on rows that the law's plan crosses.
        paths = [_check_answer(make, x0) for x0 in _law_case(make)[3]]
        assert paths[0] == rmpc.IPM and rmpc.FACE in paths

    @settings(max_examples=40, deadline=None)
    @given(make=st.sampled_from([batch_setup, cross_polytope_setup]),
           seed=st.integers(0, 2**32 - 1))
    def test_feasible_region_draws(self, make, seed):
        # The feasible region is convex and holds the origin, so a scaled
        # convex combination of the run's states is a feasible state. About
        # a third of these draws end in the unconstrained region, and nearly
        # all the rest have value 0.
        states = _law_case(make)[3]
        rng = np.random.default_rng(seed)
        _check_answer(make, rng.uniform() * rng.dirichlet(np.ones(len(states))) @ states)

    def test_each_answer_occurs(self):
        states = (np.zeros(4), _law_case(batch_setup)[3][-1], X0)
        assert [_check_answer(batch_setup, x0) for x0 in states] == [rmpc.LAW, rmpc.FACE,
                                                                       rmpc.IPM]


class ReferenceProjection:
    """``geometry.Projection`` as it was before it clamped every point in
    one pass and kept no per-target loop where every target is a box."""

    def __init__(self, A, offsets, weight):
        A = np.asarray(A, dtype=float)
        B = np.asarray(offsets, dtype=float).reshape(-1, A.shape[0])
        M = np.asarray(weight, dtype=float)
        w = np.diagonal(M)
        diag = np.count_nonzero(M) == np.count_nonzero(w)
        self.A, self.B, self.w = A, B, w
        self.clamp = np.zeros(len(B), dtype=bool)
        bounds = geometry._box_bounds(A, B) if diag else None
        if bounds is not None:
            self.lower, self.upper, self.clamp = bounds
        if not self.clamp.all():
            self._inv_lt = np.linalg.inv(np.linalg.cholesky(0.5 * (M + M.T))).T
            self._rows = A @ self._inv_lt

    def __call__(self, points):
        R = np.array(points, dtype=float, ndmin=2)
        inside = np.maximum.reduce(solver._mv(self.A, R) - self.B, axis=1) <= solver.FEAS_TOL
        d2, S = np.zeros(len(R)), R.copy()
        c = np.flatnonzero(self.clamp & ~inside)
        if c.size:
            S[c] = np.clip(R[c], self.lower[c], self.upper[c])
            D = R[c] - S[c]
            d2[c] = np.sum(D * self.w * D, axis=1)
        for k in np.flatnonzero(~self.clamp & ~inside):
            t = geometry._nearest(self._rows, self.B[k] - self.A @ R[k])
            if t is None:
                raise geometry.EmptySetError("projection target is empty")
            S[k] = R[k] + self._inv_lt @ t
            d2[k] = t @ t
        return d2, S


def _reference_stop_residual(qp, z, g, b):
    excess = qp.A_in @ z - b
    return max(np.max(excess, initial=0.0) / (1.0 + np.max(np.abs(b))),
               np.max(np.abs(qp.H @ z + g)) / (1.0 + np.max(np.abs(g)) + qp.h_max)), excess


_reference_projections = {}


def reference_solve_rmpc(setup, x0):
    """``rmpc.solve_rmpc`` as it was before its law and face answers were
    cut to their fixed cost, with its stop residual and projections
    (``ReferenceProjection``): the reference for the bits of every answer.
    Both call ``solver.least_distance`` and ``solver.solve_qp``, whose
    bits ``test_solver`` pins."""
    if setup not in _reference_projections:
        plant = setup.plant
        _reference_projections[setup] = (
            ReferenceProjection(plant.Tx.A, setup.TX_offsets, setup.Q),
            ReferenceProjection(plant.Tu.A, setup.TU_offsets, setup.R))
    project_x, project_u = _reference_projections[setup]
    x0 = np.asarray(x0, dtype=float).reshape(setup.nx)
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0.tolist()}")
    N, nx, nu = setup.N, setup.nx, setup.nu
    if setup.plant.X.membership_residual(x0) > solver.FEAS_TOL:
        raise InfeasibleState(x0, "(outside the state constraint set)")
    qp = setup.qp
    A, B = setup.plant.A, setup.plant.B
    g = qp.g_x0 @ x0
    b = qp.b_in - qp.C_x0 @ x0
    z = qp.law @ x0
    kkt, excess = _reference_stop_residual(qp, z, g, b)
    path, steps, iterations = rmpc.LAW, 0, 0
    if not kkt <= solver.QP_TOL:
        y, steps = solver.least_distance(qp.face_rows, -excess)
        if y is not None:
            z_face = z + qp.face_map @ y
            kkt_face = _reference_stop_residual(qp, z_face, g, b)[0]
            if kkt_face <= solver.QP_TOL:
                z, kkt, path = z_face, kkt_face, rmpc.FACE
        if path == rmpc.LAW:
            rep = solver.solve_qp(qp.problem, g, b)
            if rep.status == solver.Status.INFEASIBLE:
                raise InfeasibleState(x0, "(QP infeasible)")
            accepted_loose = (rep.status == solver.Status.MAXITER and rep.x is not None
                              and rep.kkt_residual <= solver.FEAS_TOL)
            if rep.status != solver.Status.OPTIMAL and not accepted_loose:
                raise rmpc.RmpcError(f"RMPC QP failed with status {rep.status}")
            z, kkt, iterations, path = rep.x, rep.kkt_residual, rep.iterations, rmpc.IPM
    u = z[qp.u].reshape(N, nu)
    x = np.zeros((N + 1, nx))
    x[0] = x0
    Bu = solver._mv(B, u)
    for i in range(N):
        x[i + 1] = A @ x[i] + Bu[i]
    dx2, sx = project_x(x[:N])
    du2, su = project_u(u)
    stage = dx2 + du2
    value = float(np.sum(stage))
    qp_value = float(0.5 * z @ qp.H @ z + g @ z) + float(x0 @ qp.c_x0 @ x0)
    if abs(value - qp_value) > 1e-6 * max(1.0, abs(qp_value)):
        raise rmpc.RmpcError(
            f"re-projected value {value:.9g} deviates from QP value {qp_value:.9g}")
    return rmpc.MpcSolution(u, x, sx, su, value, stage, kkt, iterations, path, steps)


def assert_same_bits(sol, want):
    """Every field of two MpcSolutions byte for byte."""
    for field in ("u", "x", "sx", "su", "stage_costs"):
        a, b = getattr(sol, field), getattr(want, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
    for field in ("value", "kkt_residual"):
        assert np.float64(getattr(sol, field)).tobytes() == \
            np.float64(getattr(want, field)).tobytes(), field
    assert (sol.path, sol.iterations, sol.face_steps) == (want.path, want.iterations,
                                                          want.face_steps)


class TestAnswerBits:
    """solve_rmpc against ``reference_solve_rmpc``, byte for byte, and the
    solver calls each answer makes."""

    @pytest.mark.parametrize("make", [batch_setup, cross_polytope_setup])
    def test_periodic_run_states(self, make):
        setup, _, _, states = _law_case(make)
        paths = set()
        for x0 in [np.zeros(setup.nx), *states]:  # the law answers at the origin
            sol = solve_rmpc(setup, x0)
            assert_same_bits(sol, reference_solve_rmpc(setup, x0))
            paths.add(sol.path)
        assert paths == {rmpc.LAW, rmpc.FACE, rmpc.IPM}

    @settings(max_examples=40, deadline=None)
    @given(make=st.sampled_from([batch_setup, cross_polytope_setup]),
           seed=st.integers(0, 2**32 - 1))
    def test_feasible_region_draws(self, make, seed):
        # Drawn as in TestUnconstrainedLaw: about a third are law answers,
        # and one in eight draws for the reference plant is an
        # interior-point answer, near X0.
        setup, _, _, states = _law_case(make)
        rng = np.random.default_rng(seed)
        x0 = rng.uniform() * rng.dirichlet(np.ones(len(states))) @ states
        assert_same_bits(solve_rmpc(setup, x0), reference_solve_rmpc(setup, x0))

    def test_nan_residual_fails_stop_test(self):
        # A NaN dual residual beside a primal residual of 0 (z = 0 meets
        # every row): the residual is NaN, which no tolerance passes.
        qp = batch_setup().qp
        z, g = np.zeros(qp.H.shape[0]), np.zeros(qp.H.shape[0])
        g[0] = np.nan
        kkt, excess = rmpc._stop_residual(qp, z, g, qp.b_in, (1.0, 1.0))
        assert np.max(excess) <= 0.0 and np.isnan(kkt)

    def test_solver_calls_per_answer(self, monkeypatch):
        # The law calls no solver, the face one least-distance solve, and
        # the loop runs once, after the face's solve finds no plan.
        calls = []
        for name in ("least_distance", "solve_qp"):
            solve = getattr(solver, name)
            monkeypatch.setattr(solver, name,
                                lambda *a, _name=name, _solve=solve: calls.append(_name)
                                or _solve(*a))
        setup = batch_setup()
        answers = ((np.zeros(4), rmpc.LAW, []),
                   (_law_case(batch_setup)[3][-1], rmpc.FACE, ["least_distance"]),
                   (X0, rmpc.IPM, ["least_distance", "solve_qp"]))
        for x0, path, want in answers:
            calls.clear()
            assert solve_rmpc(setup, x0).path == path
            assert calls == want


def _per_stage_qp(setup):
    """Reference H, A_eq, A_in and b_in, written one stage block at a time
    over [u_0..u_{N-1} | x_1..x_N | sx_0..sx_{N-1} | su_0..su_{N-1}]."""
    N, nx, nu = setup.N, setup.nx, setup.nu
    nv = 2 * N * (nx + nu)

    def u(i):
        return slice(i * nu, (i + 1) * nu)

    def x(i):  # i = 1..N
        return slice(N * nu + (i - 1) * nx, N * nu + i * nx)

    def sx(i):
        return slice(N * (nu + nx) + i * nx, N * (nu + nx) + (i + 1) * nx)

    def su(i):
        return slice(N * (nu + 2 * nx) + i * nu, N * (nu + 2 * nx) + (i + 1) * nu)

    Q2, R2 = 2.0 * setup.Q, 2.0 * setup.R
    H = np.zeros((nv, nv))
    H[sx(0), sx(0)] = Q2
    for i in range(1, N):
        H[x(i), x(i)] = H[sx(i), sx(i)] = Q2
        H[x(i), sx(i)] = H[sx(i), x(i)] = -Q2
    for i in range(N):
        H[u(i), u(i)] = H[su(i), su(i)] = R2
        H[u(i), su(i)] = H[su(i), u(i)] = -R2

    A_eq = np.zeros((N * nx, nv))
    for i in range(N):
        rows = slice(i * nx, (i + 1) * nx)
        A_eq[rows, x(i + 1)] = -np.eye(nx)
        A_eq[rows, u(i)] = setup.plant.B
        if i > 0:
            A_eq[rows, x(i)] = setup.plant.A

    blocks = []
    U, X, TX, TU = (stage_sets(setup, f) for f in ("U", "X", "TX", "TU"))
    for i in range(N):
        blocks.append((U[i], u(i)))
        if i > 0:
            blocks.append((X[i], x(i)))
        blocks += [(TX[i], sx(i)), (TU[i], su(i))]
    blocks.append((setup.plant.Xf, x(N)))
    A_in = np.zeros((sum(S.A.shape[0] for S, _ in blocks), nv))
    start = 0
    for S, cols in blocks:
        A_in[start:start + S.A.shape[0], cols] = S.A
        start += S.A.shape[0]
    return H, A_eq, A_in, np.concatenate([S.b for S, _ in blocks])



def _lift(setup, z, x0):
    """The explicit-state point of the condensed point z at x0: the states
    x_1..x_N simulated from x0 under z's inputs, between u and the slacks."""
    N, nu = setup.N, setup.nu
    u = z[:N * nu].reshape(N, nu)
    x = [x0]
    for i in range(N):
        x.append(setup.plant.A @ x[i] + setup.plant.B @ u[i])
    return np.concatenate([z[:N * nu], np.ravel(x[1:]), z[N * nu:]])


def _explicit_x0_terms(setup, x0):
    """The explicit QP's x0 terms: its linear term, -2 Q x0 on sx_0, and its
    dynamics offsets b_eq; its objective omits the constant x0.Q.x0."""
    N, nx, nu = setup.N, setup.nx, setup.nu
    g = np.zeros(2 * N * (nx + nu))
    g[N * (nu + nx):N * (nu + nx) + nx] = -(2.0 * setup.Q) @ x0
    b_eq = np.zeros(N * nx)
    b_eq[:nx] = -setup.plant.A @ x0
    return g, b_eq
