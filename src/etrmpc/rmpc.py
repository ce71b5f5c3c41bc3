"""Finite-horizon robust MPC problem: assembly and solution.

One convex QP per query state. The nominal states are condensed out
through the dynamics, so the decision variables are the input sequence
and one slack point per stage per target set, under inequality rows only.
The slack points realize the distance-to-set stage cost: at the optimum
they are exactly the weighted projections of the stage state and input
onto the tightened target sets. Where a target is a box and its weight
diagonal, only the box rows touch the slack points and the cost is
diagonal on them, so the solver eliminates them from its Newton step
and factorizes the inputs' block alone; the re-projection after a solve
clamps all stages in one array pass, with bounds kept per setup.

The optimum is piecewise affine in the state over critical regions
(explicit MPC). One region is kept per setup, the unconstrained one, as
the affine law of its least-norm minimizer. A solve has three answers,
each certified by the interior-point stop test: the law's plan; else,
where some plan has value 0, the least-norm one, which is the law's plan
projected onto the rows in the law's metric by a dual active-set method
(``solver.least_distance``); else the interior-point loop's point.
"""

import numpy as np

from . import geometry, solver


# The answers of solve_rmpc (MpcSolution.path).
LAW, FACE, IPM = "law", "face", "ipm"


class RmpcError(Exception):
    pass


class InfeasibleState(RmpcError):
    """The query state admits no feasible plan (value +inf)."""

    def __init__(self, x0, detail=""):
        self.x0 = np.asarray(x0, dtype=float)
        super().__init__(f"RMPC infeasible at x0={self.x0.tolist()} {detail}".strip())


class MpcSolution:
    """Optimal plan: u_0..u_{N-1}, states phi_0..phi_N, per-stage slack
    projections and the optimal value, with the QP's KKT residual.

    ``path`` names the answer of ``solve_rmpc``: LAW (the unconstrained
    region's law), FACE (the least-norm value-0 plan) or IPM (the
    interior-point loop); it is None for a plan built by hand.
    ``iterations`` counts the interior-point iterations (0 unless IPM)
    and ``face_steps`` the active-set steps of the least-norm projection,
    also where the loop then answered (0 on a law answer).
    """

    def __init__(self, u, x, sx, su, value, stage_costs, kkt_residual, iterations=0,
                 path=None, face_steps=0):
        self.u = np.array(u, dtype=float)
        self.x = np.array(x, dtype=float)
        self.sx = np.array(sx, dtype=float)
        self.su = np.array(su, dtype=float)
        self.value = float(value)
        self.stage_costs = np.array(stage_costs, dtype=float)
        self.kkt_residual = float(kkt_residual)
        self.iterations = int(iterations)
        self.path = path
        self.face_steps = int(face_steps)
        for a in (self.u, self.x, self.sx, self.su, self.stage_costs):
            a.flags.writeable = False

    def __repr__(self):
        return f"MpcSolution(value={self.value:.6g})"


class RmpcQp:
    """The RMPC QP with the dynamics condensed out, built once per setup.

    Variable layout: z = [u_0..u_{N-1} | sx_0..sx_{N-1} | su_0..su_{N-1}],
    inequality rows only (80 variables and 240 rows on the reference
    plant). Over w = [x0 | z], stage i's state is x_i = Phi_i w, with
    Phi_0 = [I | 0] and Phi_{i+1} = A Phi_i + B E_i where E_i selects u_i.
    The cost and the rows are Kronecker products over the stages applied
    to selectors of w; a family's rows are its plant set's, its offsets
    the setup's (N, m) array. Their x0 columns split off into what a solve
    applies: the linear term ``g_x0 @ x0``, the offsets
    ``b_in - C_x0 @ x0`` and the constant ``x0 @ c_x0 @ x0`` of the
    value. The stage-0 state rows hold x0 only and drop out. ``problem``
    is the QP with H validated once; a solve gives it only its own linear
    term and offsets. ``h_max`` is the stop test's max|H|, and
    ``project_x`` and ``project_u`` re-project a plan's stage states onto
    the TX targets in the weight Q and its inputs onto the TU targets in
    R (``geometry.Projection``, each built once from its family's rows
    and offsets).

    ``law`` (n_z, nx) is the least-norm unconstrained minimizer
    ``z = law @ x0``, which equals ``-pinv(H) @ g_x0 @ x0``. Q and R are
    positive definite, so the unconstrained minimizers are the plans with
    sx_i = x_i and su_i = u_i, at value 0; the least-norm one takes the
    inputs u that minimize 2|u|^2 + sum_i |x_i|^2, one SPD solve of
    size N nu over the stage-state map.

    The same plans with other inputs are z = law @ x0 + face_map @ y:
    with T = [I; Phi_u; I] the map of the inputs' change, ``face_map`` is
    T L^-T, where L L^T = T^T T = 2I + Phi_u^T Phi_u is the law's metric,
    so |z - law @ x0| = |y|. Where such a plan meets the rows, it is
    optimal (value 0), and the least-norm one takes the y nearest the
    origin with ``face_rows @ y <= b - A_in @ law @ x0``, where
    ``face_rows = A_in @ face_map``. Rows with no input in them, such as
    TX_0 on sx_0 = x0, are zero there and are decided by their offset.
    """

    def __init__(self, setup):
        N, nx, nu, plant = setup.N, setup.nx, setup.nu, setup.plant
        A, B = plant.A, plant.B
        nw = nx + N * (nx + 2 * nu)
        e_x0, e_u, e_sx, e_su = np.split(np.eye(nw), np.cumsum([nx, N * nu, N * nx]))
        phi = [e_x0]
        for i in range(N):
            phi.append(A @ phi[i] + B @ e_u[i * nu:(i + 1) * nu])
        x_stage = np.vstack(phi[:N])
        I_N = np.eye(N)
        e_dx, e_du = x_stage - e_sx, e_u - e_su
        H = (e_dx.T @ np.kron(I_N, 2.0 * setup.Q) @ e_dx
             + e_du.T @ np.kron(I_N, 2.0 * setup.R) @ e_du)

        # Rows stage by stage: U_i on u_i, X_i on x_i, TX_i on sx_i, TU_i on su_i.
        families = ((plant.U.A, setup.U_offsets, e_u), (plant.X.A, setup.X_offsets, x_stage),
                    (plant.Tx.A, setup.TX_offsets, e_sx), (plant.Tu.A, setup.TU_offsets, e_su))
        rows = np.concatenate([(np.kron(I_N, A_S) @ sel).reshape(N, -1, nw)
                               for A_S, _, sel in families], axis=1).reshape(-1, nw)
        offsets = np.concatenate([b for _, b, _ in families], axis=1).ravel()
        x0_rows = np.s_[len(plant.U.A):len(plant.U.A) + len(plant.X.A)]
        rows = np.vstack([np.delete(rows, x0_rows, axis=0), plant.Xf.A @ phi[N]])

        self.u = slice(0, N * nu)
        self.H = np.ascontiguousarray(H[nx:, nx:])
        self.g_x0 = np.ascontiguousarray(H[nx:, :nx])
        self.c_x0 = 0.5 * H[:nx, :nx]
        self.A_in = np.ascontiguousarray(rows[:, nx:])
        self.C_x0 = np.ascontiguousarray(rows[:, :nx])
        self.b_in = np.concatenate([np.delete(offsets, x0_rows), plant.Xf.b])
        phi_x, phi_u = x_stage[:, :nx], x_stage[:, nx:nx + N * nu]
        metric = 2.0 * np.eye(N * nu) + phi_u.T @ phi_u
        law_u = -np.linalg.solve(metric, phi_u.T @ phi_x)
        self.law = np.vstack([law_u, phi_x + phi_u @ law_u, law_u])
        # The value-0 plans z = law @ x0 + face_map @ y, |z - law @ x0| = |y|.
        T = np.vstack([np.eye(N * nu), phi_u, np.eye(N * nu)])
        J = np.linalg.inv(np.linalg.cholesky(metric)).T
        self.face_map = T @ J
        self.face_rows = self.A_in @ self.face_map
        for a in (self.H, self.g_x0, self.c_x0, self.A_in, self.C_x0, self.b_in, self.law,
                  self.face_map, self.face_rows):
            a.flags.writeable = False
        self.problem = solver.QpProblem(self.H, self.A_in)
        self.h_max = np.max(np.abs(self.H))
        self.project_x = geometry.Projection(plant.Tx.A, setup.TX_offsets, setup.Q)
        self.project_u = geometry.Projection(plant.Tu.A, setup.TU_offsets, setup.R)


def solve_rmpc(setup, x0):
    """Solve the tightened optimal-control QP from state x0.

    One path with three answers (``MpcSolution.path``), each accepted
    only when it passes the interior-point loop's stop test at QP_TOL:
    primal residual max(A_in z - b)+ over 1 + max|b| and dual residual
    |H z + g|_inf over 1 + max|g| + max|H|.

    - LAW: the least-norm unconstrained minimizer ``qp.law @ x0``.
    - FACE: otherwise, the least-norm plan of value 0, the law's plan
      projected onto the rows it exceeds (``RmpcQp``); it is unique, so it
      does not depend on where a loop stopped.
    - IPM: where no plan has value 0 (the projection finds the rows
      infeasible or reaches its step cap) or the projected plan fails the
      test, ``solver.solve_qp``'s point, bit for bit.

    The stop test's max|H| and the targets' bounds or projection rows
    are the setup's (``RmpcQp``); a solve computes only what x0 moves,
    and the stop test's normalizers once for every plan it tests.

    Raises ValueError for a non-finite x0, InfeasibleState for one
    outside the feasible region (or the raw state set). The returned
    solution has exactly consistent dynamics: states are re-propagated
    from the input sequence and slack points re-projected
    (``qp.project_x`` and ``qp.project_u``) on every path, and the
    re-projected value must meet the QP's to 1e-6, so downstream error
    coordinates are bit-reproducible.
    """
    x0 = np.asarray(x0, dtype=float).reshape(setup.nx)
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0.tolist()}")
    N, nu = setup.N, setup.nu
    A, B, X = setup.plant.A, setup.plant.B, setup.plant.X
    if np.maximum.reduce(X.A @ x0 - X.b) > geometry.FEAS_TOL:
        raise InfeasibleState(x0, "(outside the state constraint set)")

    qp = setup.qp
    g = qp.g_x0 @ x0
    b = qp.b_in - qp.C_x0 @ x0
    scales = (1.0 + np.maximum.reduce(np.abs(b)),
              1.0 + np.maximum.reduce(np.abs(g)) + qp.h_max)

    # The law's plan, else the least-norm plan of value 0, else the
    # interior-point loop: the first that passes the stop test answers.
    z = qp.law @ x0
    kkt, excess = _stop_residual(qp, z, g, b, scales)
    path, steps, iterations = LAW, 0, 0
    if not kkt <= solver.QP_TOL:
        y, steps = solver.least_distance(qp.face_rows, -excess)
        if y is not None:
            z_face = z + qp.face_map @ y
            kkt_face = _stop_residual(qp, z_face, g, b, scales)[0]
            if kkt_face <= solver.QP_TOL:
                z, kkt, path = z_face, kkt_face, FACE
        if path == LAW:
            # An iterate that reaches FEAS_TOL but not QP_TOL is still accepted.
            rep = solver.solve_qp(qp.problem, g, b)
            if rep.status == solver.Status.INFEASIBLE:
                raise InfeasibleState(x0, "(QP infeasible)")
            accepted_loose = (rep.status == solver.Status.MAXITER and rep.x is not None
                              and rep.kkt_residual <= solver.FEAS_TOL)
            if rep.status != solver.Status.OPTIMAL and not accepted_loose:
                raise RmpcError(f"RMPC QP failed with status {rep.status}")
            z, kkt, iterations, path = rep.x, rep.kkt_residual, rep.iterations, IPM

    u = z[qp.u].reshape(N, nu)

    # Exact re-propagation kills the equality residual; re-projection then
    # keeps the value and slack invariants consistent to machine level.
    # Only the state chain is sequential: B u_i is one stacked product, and
    # each A x_i is ndarray.dot, the BLAS call of A @ x_i at less overhead.
    x = [x0]
    for Bu_i in solver._mv(B, u):
        x.append(A.dot(x[-1]) + Bu_i)
    x = np.array(x)
    dx2, sx = qp.project_x(x[:N])
    du2, su = qp.project_u(u)
    stage = dx2 + du2

    value = float(np.add.reduce(stage))
    qp_value = float(0.5 * z @ qp.H @ z + g @ z) + float(x0 @ qp.c_x0 @ x0)
    if abs(value - qp_value) > 1e-6 * max(1.0, abs(qp_value)):
        raise RmpcError(
            f"re-projected value {value:.9g} deviates from QP value {qp_value:.9g}")
    return MpcSolution(u, x, sx, su, value, stage, kkt, iterations, path, steps)


def _stop_residual(qp, z, g, b, scales):
    """The stop test's residual at z (``solve_rmpc``) with no multipliers,
    so with no complementarity term, and the rows' excess A_in z - b.
    ``scales`` are the solve's normalizers 1 + max|b| and 1 + max|g| +
    max|H|. A NaN residual fails the test."""
    excess = qp.A_in @ z - b
    return np.maximum(np.maximum.reduce(excess, initial=0.0) / scales[0],
                      np.maximum.reduce(np.abs(qp.H @ z + g)) / scales[1]), excess
