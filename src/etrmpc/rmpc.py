"""Finite-horizon robust MPC problem: assembly and solution.

One convex QP per query state: decision variables are the input sequence,
the nominal state sequence (kept explicit behind equality dynamics rows,
giving the sparse KKT structure), and one slack point per stage per
target set. The slack points realize the distance-to-set stage cost: at
the optimum they are exactly the weighted projections of the stage state
and input onto the tightened target sets.
"""

import numpy as np

from . import geometry, solver


class RmpcError(Exception):
    pass


class InfeasibleState(RmpcError):
    """The query state admits no feasible plan (value +inf).

    ``certificate`` carries the phase-1 dual evidence from the solver
    when the infeasibility was detected inside the QP.
    """

    def __init__(self, x0, detail="", certificate=None):
        self.x0 = np.asarray(x0, dtype=float)
        self.certificate = certificate
        super().__init__(f"RMPC infeasible at x0={self.x0.tolist()} {detail}".strip())


class MpcSolution:
    """Optimal plan: u_0..u_{N-1}, states phi_0..phi_N, per-stage slack
    projections and the optimal value."""

    def __init__(self, u, x, sx, su, value, stage_costs, kkt_residual):
        self.u = np.array(u, dtype=float)
        self.x = np.array(x, dtype=float)
        self.sx = np.array(sx, dtype=float)
        self.su = np.array(su, dtype=float)
        self.value = float(value)
        self.stage_costs = np.array(stage_costs, dtype=float)
        self.kkt_residual = float(kkt_residual)
        for a in (self.u, self.x, self.sx, self.su, self.stage_costs):
            a.flags.writeable = False

    def __repr__(self):
        return f"MpcSolution(value={self.value:.6g})"


def stage_cost(setup, x_i, u_i, i):
    """l(x_i, u_i) = d_Q(x_i, Tx_i) + d_R(u_i, Tu_i)."""
    if not 0 <= i < setup.N:
        raise IndexError(f"stage {i} outside horizon")
    dx = geometry.weighted_projection(x_i, setup.TXseq[i], setup.Q).distance_sq
    du = geometry.weighted_projection(u_i, setup.TUseq[i], setup.R).distance_sq
    return dx + du


class RmpcQp:
    """The parts of the RMPC QP that depend on the setup only.

    Variable layout: [u_0..u_{N-1} | x_1..x_N | sx_0..sx_{N-1} | su_0..su_{N-1}].
    Each block is a Kronecker product over the stages applied to selectors
    of these variable blocks; x_0 is data, so the stage-0 state rows drop
    out and x0 enters only the linear term at sx_0 and the first nx
    dynamics offsets. A family's tightened sets share their rows.
    """

    def __init__(self, setup):
        N, nx, nu = setup.N, setup.nx, setup.nu
        nv = 2 * N * (nx + nu)
        e_u, e_x, e_sx, e_su = np.split(np.eye(nv), np.cumsum([N * nu, N * nx, N * nx]))
        self.u = slice(0, N * nu)
        self.sx0 = slice(N * (nu + nx), N * (nu + nx) + nx)
        I_N, shift = np.eye(N), np.eye(N, k=-1)
        x_stage = np.kron(shift, np.eye(nx)) @ e_x  # x_0..x_{N-1}, x_0 = 0
        e_dx, e_du = x_stage - e_sx, e_u - e_su
        self.H = (e_dx.T @ np.kron(I_N, 2.0 * setup.Q) @ e_dx
                  + e_du.T @ np.kron(I_N, 2.0 * setup.R) @ e_du)
        self.A_eq = np.kron(I_N, setup.plant.B) @ e_u + np.kron(shift, setup.plant.A) @ e_x - e_x

        # Rows stage by stage: U_i on u_i, X_i on x_i, TX_i on sx_i, TU_i on su_i.
        families = ((setup.Useq, e_u), (setup.Xseq, x_stage),
                    (setup.TXseq, e_sx), (setup.TUseq, e_su))
        rows = np.concatenate([(np.kron(I_N, seq[0].A) @ sel).reshape(N, -1, nv)
                               for seq, sel in families], axis=1).reshape(-1, nv)
        offsets = np.concatenate([[s.b for s in seq] for seq, _ in families], axis=1).ravel()
        m_u = setup.Useq[0].A.shape[0]
        x0_rows = np.s_[m_u:m_u + setup.Xseq[0].A.shape[0]]
        Xf = setup.plant.Xf
        Xf = Xf.to_polytope() if isinstance(Xf, geometry.HyperRect) else Xf
        self.A_in = np.vstack([np.delete(rows, x0_rows, axis=0), Xf.A @ e_x[-nx:]])
        self.b_in = np.concatenate([np.delete(offsets, x0_rows), Xf.b])
        for a in (self.H, self.A_eq, self.A_in, self.b_in):
            a.flags.writeable = False


def solve_rmpc(setup, x0):
    """Solve the tightened optimal-control QP from state x0.

    Raises InfeasibleState when x0 lies outside the feasible region
    (including x0 outside the raw state set). The returned solution has
    exactly consistent dynamics: states are re-propagated from the input
    sequence and slack points re-projected, so downstream error
    coordinates are bit-reproducible.
    """
    x0 = np.asarray(x0, dtype=float).reshape(setup.nx)
    N, nx, nu = setup.N, setup.nx, setup.nu

    if setup.Xseq[0].membership_residual(x0) > geometry.FEAS_TOL:
        raise InfeasibleState(x0, "(outside the state constraint set)")

    qp = setup.qp
    A, B = setup.plant.A, setup.plant.B
    g = np.zeros(qp.H.shape[0])
    g[qp.sx0] = -(2.0 * setup.Q) @ x0
    b_eq = np.zeros(N * nx)
    b_eq[:nx] = -A @ x0

    # Solved tighter than the project-wide 1e-8 so that re-propagated
    # states keep their tightened-set memberships within tolerance; an
    # iterate that only reaches the standard tolerance is still accepted.
    rep = solver.solve_qp(
        solver.QpProblem(H=qp.H, g=g, A_in=qp.A_in, b_in=qp.b_in, A_eq=qp.A_eq, b_eq=b_eq),
        tol=1e-10)
    if rep.status == solver.Status.INFEASIBLE:
        raise InfeasibleState(x0, "(QP infeasible)", certificate=rep.certificate)
    accepted_loose = (rep.status == solver.Status.MAXITER and rep.x is not None
                      and rep.kkt_residual <= solver.FEAS_TOL)
    if rep.status != solver.Status.OPTIMAL and not accepted_loose:
        raise RmpcError(f"RMPC QP failed with status {rep.status}")

    z = rep.x
    u = z[qp.u].reshape(N, nu)

    # Exact re-propagation kills the equality residual; re-projection then
    # keeps the value and slack invariants consistent to machine level.
    x = np.zeros((N + 1, nx))
    x[0] = x0
    for i in range(N):
        x[i + 1] = A @ x[i] + B @ u[i]
    px = [geometry.weighted_projection(x[i], setup.TXseq[i], setup.Q) for i in range(N)]
    pu = [geometry.weighted_projection(u[i], setup.TUseq[i], setup.R) for i in range(N)]
    sx, su = [p.projection for p in px], [p.projection for p in pu]
    stage = np.array([a.distance_sq + b.distance_sq for a, b in zip(px, pu)])

    value = float(np.sum(stage))
    qp_value = float(0.5 * z @ qp.H @ z + g @ z) + float(x0 @ setup.Q @ x0)
    if abs(value - qp_value) > 1e-6 * max(1.0, abs(qp_value)):
        raise RmpcError(
            f"re-projected value {value:.9g} deviates from QP value {qp_value:.9g}")
    return MpcSolution(u, x, sx, su, value, stage, rep.kkt_residual)
