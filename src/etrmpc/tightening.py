"""Gain synthesis and tightened-set construction.

The controller needs two kinds of feedback gains: a stabilizing nominal
gain F and a sequence of tightening gains K whose closed-loop transition
matrices L_i vanish after M steps. The offsets of the tightened input,
state and target sets then follow from repeated Pontryagin differences
against the images K_i L_i W and L_i W of the disturbance set.
"""

import numpy as np

from . import geometry, solver
from .geometry import Polytope, pontryagin_diff
from .rmpc import RmpcQp
from .trigger import PrincipalRows

NILPOTENCY_TOL = 1e-8
RICCATI_TOL = 1e-10
RICCATI_MAX_ITER = 64  # doubling steps; step k covers 2^k steps of the recursion
INTERIOR_MARGIN = 1e-9


class TighteningError(Exception):
    pass


class NoConvergence(TighteningError):
    """Riccati iteration failed to reach a fixed point."""


class NilpotencyFailure(TighteningError):
    """Constructed gains do not drive ||L_M|| below tolerance."""


class EmptyTightenedSet(TighteningError):
    def __init__(self, index, which):
        self.index = index
        self.which = which
        super().__init__(f"tightened set {which}[{index}] is empty")


class TerminalAssumptionViolated(TighteningError):
    pass


def is_controllable(A, B):
    """Whether [B, AB, ..., A^(n-1) B] has rank n, to 1e-9 of its norm."""
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    C = np.hstack(blocks)
    return np.linalg.matrix_rank(C, tol=1e-9 * max(1.0, np.linalg.norm(C, 2))) == A.shape[0]


class PlantModel:
    """Plant matrices plus the six constraint sets of the control problem.

    Validates controllability and the polytopic-set assumption on
    construction: X, U, Tx, Tu and Xf must be compact with the origin
    strictly inside; the disturbance set W only needs to be compact and
    contain the origin (the point set W = {0} is the no-disturbance case).
    """

    def __init__(self, A, B, X, U, W, Tx, Tu, Xf):
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        if self.B.ndim != 2 or self.B.shape[0] != self.A.shape[0]:
            raise ValueError("B must have one row per state")
        self.nx = self.A.shape[0]
        self.nu = self.B.shape[1]
        if not is_controllable(self.A, self.B):
            raise ValueError("(A, B) must be controllable")

        self.X = _check_set("X", X, self.nx, strict_interior=True)
        self.U = _check_set("U", U, self.nu, strict_interior=True)
        self.W = _check_set("W", W, self.nx, strict_interior=False)
        self.Tx = _check_set("Tx", Tx, self.nx, strict_interior=True)
        self.Tu = _check_set("Tu", Tu, self.nu, strict_interior=True)
        self.Xf = _check_set("Xf", Xf, self.nx, strict_interior=True)


def _check_set(name, s, dim, strict_interior):
    if not isinstance(s, Polytope):
        raise TypeError(f"{name} must be a Polytope or HyperRect")
    if s.dim != dim:
        raise ValueError(f"{name} has dimension {s.dim}, expected {dim}")
    if not s.is_bounded():
        raise ValueError(f"{name} must be a compact polytope")
    inside = bool(np.all(s.b >= INTERIOR_MARGIN * np.linalg.norm(s.A, axis=1)))
    closure = bool(np.all(s.b >= 0.0))
    if strict_interior and not inside:
        raise ValueError(f"{name} must contain the origin in its interior")
    if not strict_interior and not closure:
        raise ValueError(f"{name} must contain the origin")
    return s


def synthesize_nominal_gain(plant, Qlqr, Rlqr):
    """Stabilizing gain F = -(R + B'PB)^-1 B'PA, from the stabilizing
    solution P of the discrete algebraic Riccati equation (``_riccati``),
    so u = F x gives a closed loop A + BF with spectral radius strictly
    below one.
    """
    Q = np.asarray(Qlqr, dtype=float)
    R = np.asarray(Rlqr, dtype=float)
    for M, name in ((Q, "Qlqr"), (R, "Rlqr")):
        if np.min(np.linalg.eigvalsh(0.5 * (M + M.T))) <= 0:
            raise ValueError(f"{name} must be positive definite")
    F = _riccati(plant.A, plant.B, Q, R)[1]
    if np.max(np.abs(np.linalg.eigvals(plant.A + plant.B @ F))) >= 1.0:
        raise NoConvergence("Riccati gain failed to stabilize the closed loop")
    return F


def _riccati(A, B, Q, R):
    """P solving P = Q + A'PA - A'PB (R + B'PB)^-1 B'PA, and its gain F.

    The structure-preserving doubling iteration (Anderson, *Int. J.
    Control* 28(2), 1978; Chu, Fan & Lin, *Linear Algebra Appl.* 396,
    2005): from A_0 = A, G_0 = B R^-1 B' and P_0 = Q,

        A_{k+1} = A_k (I + G_k P_k)^-1 A_k
        G_{k+1} = G_k + A_k (I + G_k P_k)^-1 G_k A_k'
        P_{k+1} = P_k + A_k' P_k (I + G_k P_k)^-1 A_k,

    so P_k is the 2^k-th iterate of the Riccati recursion from Q, and it
    converges quadratically. The loop stops when an update is at most
    RICCATI_TOL max(1, max|P|). One Newton step on the equation (Hewer,
    *IEEE Trans. Autom. Control* 16(4), 1971) then removes the rounding
    that the doubling gathers on an ill-conditioned plant: with F the
    gain of P and Ac = A + BF, the residual is Q + F'RF + Ac'P Ac - P,
    and the correction D solves D - Ac'D Ac = residual, an n^2 x n^2
    system. The corrected P must satisfy the equation to RICCATI_TOL
    relative to the size of its terms, or NoConvergence is raised:
    Ac'P Ac is up to |Ac|^2 max|P| (spectral norm), and rounding P alone
    moves it by eps times that, so the bound is RICCATI_TOL max(1, max|P|)
    (1 + |Ac|^2). On a closed loop far from normal (a nearly uncontrollable
    mode, max|P| up to 1e9), rounding leaves residuals above the unscaled
    RICCATI_TOL max(1, max|P|), and more Newton steps do not lower them.
    """
    n = len(A)
    Ak, Gk, P = A, B @ np.linalg.solve(R, B.T), Q
    for _ in range(RICCATI_MAX_ITER):
        W = np.linalg.solve(np.eye(n) + Gk @ P, np.hstack([Ak, Gk]))
        Pn = P + Ak.T @ P @ W[:, :n]
        Pn = 0.5 * (Pn + Pn.T)
        if np.max(np.abs(Pn - P)) <= RICCATI_TOL * max(1.0, np.max(np.abs(P))):
            P = Pn
            break
        Gk = Gk + Ak @ W[:, n:] @ Ak.T
        Gk = 0.5 * (Gk + Gk.T)
        Ak, P = Ak @ W[:, :n], Pn
    else:
        raise NoConvergence("Riccati iteration did not converge")
    F, residual = _gain_and_residual(A, B, Q, R, P)
    Ac = A + B @ F
    D = np.linalg.solve(np.eye(n * n) - np.kron(Ac.T, Ac.T),
                        residual.ravel()).reshape(n, n)
    P = P + 0.5 * (D + D.T)
    F, residual = _gain_and_residual(A, B, Q, R, P)
    Ac = A + B @ F
    scale = max(1.0, np.max(np.abs(P))) * (1.0 + np.linalg.norm(Ac, 2) ** 2)
    if np.max(np.abs(residual)) > RICCATI_TOL * scale:
        raise NoConvergence("Riccati iteration stopped off the Riccati equation")
    return P, F


def _gain_and_residual(A, B, Q, R, P):
    """Gain F = -(R + B'PB)^-1 B'PA of P, and P's Riccati residual."""
    BtPA = B.T @ P @ A
    F = -np.linalg.solve(R + B.T @ P @ B, BtPA)
    return F, Q + A.T @ P @ A + BtPA.T @ F - P


def synthesize_tightening_gains(plant, M, N=None):
    """Time-varying deadbeat gains K_0..K_{N-2} with L_M = 0.

    The products Theta_i = K_i L_i are the open-loop deadbeat input maps:
    they must satisfy sum_i A^(M-1-i) B Theta_i = -A^M and then determine
    L_i = A^i + sum_(k<i) A^(i-1-k) B Theta_k. Among all deadbeat
    schedules this routine picks the one minimizing the constraint
    tightening it causes (the max row 1-norms of Theta_i and L_i, which
    are exactly the per-step erosion factors for box disturbance sets) by
    an LP, then recovers K_i = Theta_i pinv(L_i). If the recovery cannot
    reproduce the schedule (singular intermediate L_i) it falls back to a
    least-squares deadbeat built on the null-controllability subspace
    chain. Gains beyond M are zero; they multiply L_i = 0 so any choice
    leaves all computed quantities identical.
    """
    A, B = plant.A, plant.B
    n = plant.nx
    nu = plant.nu
    if M < n:
        raise ValueError(f"nilpotency index M={M} must be at least n_x={n}")
    count = (N - 1) if N is not None else M
    if count < M:
        raise ValueError("horizon too short for the requested nilpotency index")

    if np.linalg.norm(np.linalg.matrix_power(A, M), "fro") <= NILPOTENCY_TOL:
        gains = [np.zeros((nu, n)) for _ in range(M)]  # A already nilpotent
    else:
        gains = (_gains_from_schedule(A, B, M, _min_erosion_schedule(A, B, M))
                 or _subspace_chain_gains(A, B, M))

    gains = gains + [np.zeros((nu, n)) for _ in range(count - M)]
    L = np.eye(n)
    for i in range(M):
        L = (A + B @ gains[i]) @ L
    if np.linalg.norm(L, "fro") > NILPOTENCY_TOL:
        raise NilpotencyFailure(f"||L_M||_F = {np.linalg.norm(L, 'fro'):.3e}")
    return gains


def _min_erosion_schedule(A, B, M):
    """LP for the open-loop deadbeat schedule with least tightening.

    Variables: theta (the stacked Theta_i, row-major), |theta|, per-step
    bounds t_i >= row 1-norms of Theta_i, |L_i| for i = 1..M-1 and bounds
    s_i >= row 1-norms of L_i. Objective: minimize sum(t) + sum(s).
    Returns the Theta_i list.
    """
    n, nu = A.shape[0], B.shape[1]
    n_th, n_L = M * nu * n, (M - 1) * n * n
    # vec(L_i) = vec(A^i) + kron([A^(i-1)B ... B 0 ... 0], I_n) theta, i = 0..M.
    Apow = np.array([np.linalg.matrix_power(A, i) for i in range(M + 1)])
    lag = np.arange(M + 1)[:, None] - 1 - np.arange(M)
    C = np.where((lag >= 0)[:, :, None, None], (Apow[:M] @ B)[lag.clip(0)], 0.0)
    maps = np.kron(C.transpose(0, 2, 1, 3).reshape(M + 1, n, M * nu), np.eye(n))

    G, h = _epigraph(np.vstack([np.eye(n_th), maps[1:M].reshape(n_L, n_th)]),
                     np.concatenate([np.zeros(n_th), Apow[1:M].reshape(n_L)]), n,
                     np.concatenate([np.arange(M * nu) // nu, M + np.arange((M - 1) * n) // n]))
    # Columns [theta | |theta|, |L| | t, s] to [theta | |theta|, t | |L|, s].
    o_b = 2 * n_th + n_L
    order = np.r_[:2 * n_th, o_b:o_b + M, 2 * n_th:o_b, o_b + M:G.shape[1]]
    # An LP (H = 0). No equality row touches the bound columns, so its
    # Newton step eliminates them in blocks, one per t_i or s_i with the
    # columns that its sum rows bound; only theta's columns are factorized.
    c = np.where(order >= o_b, -1.0, 0.0)
    n_v = G.shape[1]
    lp = solver.QpProblem(np.zeros((n_v, n_v)), G[:, order],
                          A_eq=np.hstack([maps[M], np.zeros((n * n, n_v - n_th))]),  # L_M = 0
                          b_eq=-Apow[M].reshape(-1))
    rep = solver.solve_qp(lp, -c, h)
    if rep.status != solver.Status.OPTIMAL:
        return None
    return list(rep.x[:n_th].reshape(M, nu, n))


def _epigraph(maps, offsets, size, bound):
    """Rows of a >= |v| for v = maps @ theta + offsets, and of
    b[bound[k]] >= the sum of a over the k-th run of ``size`` entries.

    Columns [theta | a | b]. Per run: the rows +v - a <= -offset and
    -v - a <= offset of each entry, then the run's sum row.
    """
    n_v, n_th = maps.shape
    n_runs, idx = n_v // size, np.arange(n_v)
    cols = n_th + n_v + bound[-1] + 1
    sgn = np.array([[1.0], [-1.0]])
    entry = np.zeros((n_v, 2, cols))
    entry[:, :, :n_th] = sgn * maps[:, None]
    entry[idx, :, n_th + idx] = -1.0
    total = np.zeros((n_runs, cols))
    total[idx // size, n_th + idx] = 1.0
    total[np.arange(n_runs), n_th + n_v + bound] = -1.0
    rows = np.concatenate([entry.reshape(n_runs, 2 * size, cols), total[:, None]], axis=1)
    rhs = np.concatenate([(-sgn.T * offsets[:, None]).reshape(n_runs, 2 * size),
                          np.zeros((n_runs, 1))], axis=1)
    return rows.reshape(-1, cols), rhs.reshape(-1)


def _gains_from_schedule(A, B, M, thetas):
    """Recover K_i = Theta_i pinv(L_i); None when not realizable."""
    if thetas is None:
        return None
    n, nu = A.shape[0], B.shape[1]
    gains = []
    L = np.eye(n)
    for i in range(M):
        K = thetas[i] @ np.linalg.pinv(L, rcond=1e-10)
        if np.linalg.norm(K @ L - thetas[i], "fro") > 1e-7 * max(
                1.0, np.linalg.norm(thetas[i], "fro")):
            return None
        gains.append(K)
        L = (A + B @ K) @ L
    if np.linalg.norm(L, "fro") > NILPOTENCY_TOL:
        return None
    return gains


def _subspace_chain_gains(A, B, M):
    """Deadbeat via backward null-controllability subspaces.

    V_M = {0}, V_i = {x : A x in V_{i+1} + range(B)}; steering each V_i
    into V_{i+1} by a least-squares gain guarantees L_M = 0 whenever the
    chain reaches the full space, which controllability and M >= n_x
    ensure.
    """
    n, nu = A.shape[0], B.shape[1]
    V = [np.zeros((n, 0))]  # V_M
    for _ in range(M):
        V.append(_preimage_subspace(A, np.hstack([V[-1], B])))
    V.reverse()  # V[0] .. V[M]
    if V[0].shape[1] != n:
        raise NilpotencyFailure(
            "null-controllability chain did not reach the full space")
    gains = []
    b_scale = np.linalg.norm(B, 2)
    for i in range(M):
        basis = V[i]
        P_perp = np.eye(n) - V[i + 1] @ V[i + 1].T
        # Absolute pinv cutoff: when range(B) already lies inside V_{i+1}
        # the projected B vanishes and no steering is needed.
        u_, s_, vt_ = np.linalg.svd(P_perp @ B, full_matrices=False)
        keep = s_ > 1e-10 * max(b_scale, 1e-300)
        pinvB = (vt_[keep].T / s_[keep]) @ u_[:, keep].T if np.any(keep) \
            else np.zeros((nu, n))
        U = -pinvB @ (P_perp @ A @ basis)
        gains.append(U @ basis.T)
    return gains


def _preimage_subspace(A, S):
    """Orthonormal basis of {x : A x in span(S)}; singular values at or
    below 1e-9 of the largest (or of 1) count as zero."""
    n = A.shape[0]
    if S.shape[1] == 0:
        Q = np.zeros((n, 0))
    else:
        u, sv, _ = np.linalg.svd(S, full_matrices=False)
        Q = u[:, sv > 1e-9 * max(1.0, sv[0])]
    P_perp = np.eye(n) - Q @ Q.T
    Mx = P_perp @ A
    u, sv, vt = np.linalg.svd(Mx)
    rank = int(np.sum(sv > 1e-9 * max(1.0, sv[0] if sv.size else 1.0)))
    return vt[rank:].T  # null-space basis, orthonormal columns


class RmpcSetup:
    """Immutable bundle of everything the controller and trigger need.

    Built by :func:`build_setup`; holds the plant, horizon data, gains,
    transition matrices (plain and shifted), the cost weights, and the two
    plan-independent parts of the controller: the RMPC QP data and the
    principal rows of the triggering sets. A tightened family is its plant
    set's rows and one (N, m) offset array, row i for stage i:
    ``U_offsets``, ``X_offsets``, ``TU_offsets`` and ``TX_offsets``.
    """

    def __init__(self, plant, N, M, F, K, L, Ktilde, Ltilde,
                 U_offsets, X_offsets, TU_offsets, TX_offsets, Q, R, report):
        self.plant = plant
        self.N = N
        self.M = M
        self.F = F
        self.K = K
        self.L = L
        self.Ktilde = Ktilde
        self.Ltilde = Ltilde
        self.U_offsets = U_offsets
        self.X_offsets = X_offsets
        self.TU_offsets = TU_offsets
        self.TX_offsets = TX_offsets
        self.Q = Q
        self.R = R
        self.report = report
        self.qp = RmpcQp(self)
        self.principal_rows = PrincipalRows(self)

    @property
    def nx(self):
        return self.plant.nx

    @property
    def nu(self):
        return self.plant.nu


def build_setup(plant, N, M, F, K, Q, R):
    """Assemble and validate an RmpcSetup.

    Computes L_i and the shifted gain/transition sequences, erodes the
    offsets of the four set families by the disturbance images, and
    hard-gates the setup-time assumptions: nilpotency of the supplied
    gains, nonempty tightened sets, and the terminal-set inclusions in the
    most tightened state/input sets. One-step invariance of the terminal
    set is reported as a diagnostic margin (see below). Raises on any gate
    violation; the returned report carries the numeric margins.

    The erosion offsets of all four chains come from one
    ``geometry.supports`` call over W: exact closed forms for a box W;
    for a polytope, each offset is eta.v at the first vertex v of W's
    vertex set (``Polytope.vertices``, kept on W) that maximizes eta.v.
    A tightened set with no negative offset holds the origin, so its
    emptiness check (``geometry.are_empty``) makes no solve; any other
    one takes one least-distance solve, an exact verdict.
    """
    A, B = plant.A, plant.B
    n, nu = plant.nx, plant.nu
    if N < n + 1:
        raise ValueError(f"horizon N={N} must be at least n_x+1={n + 1}")
    if not (n <= M <= N - 1):
        raise ValueError(f"nilpotency index M={M} must lie in [{n}, {N - 1}]")
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    for Mat, name in ((Q, "Q"), (R, "R")):
        if np.min(np.linalg.eigvalsh(0.5 * (Mat + Mat.T))) <= 0:
            raise ValueError(f"{name} must be positive definite")

    K = [np.asarray(k, dtype=float) for k in K]
    if len(K) != N - 1:
        raise ValueError(f"need N-1={N - 1} tightening gains, got {len(K)}")
    F = np.asarray(F, dtype=float)
    if np.max(np.abs(np.linalg.eigvals(A + B @ F))) >= 1.0:
        raise ValueError("nominal gain F does not stabilize the closed loop")

    # Transition matrices; snap the post-M tail to exact zero once the
    # nilpotency gate passes so downstream constraint rows drop cleanly.
    L = [np.eye(n)]
    for i in range(N - 1):
        L.append((A + B @ K[i]) @ L[i])
    nilpotency = max(np.linalg.norm(L[i], "fro") for i in range(M, N))
    if nilpotency > NILPOTENCY_TOL:
        raise NilpotencyFailure(
            f"supplied gains give ||L_i||_F = {nilpotency:.3e} for some i >= M")
    L[M:] = [np.zeros((n, n)) for _ in range(M, N)]

    Ktilde = [np.zeros((nu, n))] + [K[i] for i in range(N - 1)]
    Ltilde = [np.eye(n)]
    for i in range(N):
        Ltilde.append((A + B @ Ktilde[i]) @ Ltilde[i])
    Ltilde[M + 1:] = [np.zeros((n, n)) for _ in range(M + 1, N + 1)]

    # Each family's chain S_{i+1} = S_i ominus (image_i W) keeps the rows of
    # S_0, so every direction A image_i is known up front: one supports call
    # answers the whole chain, and then b_{i+1} = b_i - h_i, in order: a
    # cumulative sum adds in sequence, and b + (-h) is b - h bit for bit.
    KL = [K[i] @ L[i] for i in range(N - 1)]
    families = (("U", plant.U, KL), ("X", plant.X, L), ("TU", plant.Tu, KL), ("TX", plant.Tx, L))
    dirs = [S.A @ images[i] for i in range(N - 1) for _, S, images in families]
    h = geometry.supports(plant.W, np.vstack(dirs)).reshape(N - 1, -1)
    h = np.split(h, np.cumsum([len(S.A) for _, S, _ in families])[:-1], axis=1)
    offsets = [np.cumsum(np.vstack([S.b, -h_S]), axis=0) for (_, S, _), h_S in zip(families, h)]
    for (name, S, _), b in zip(families, offsets):
        b.flags.writeable = False
        empty = geometry.are_empty(S.A, b[1:])
        if any(empty):
            raise EmptyTightenedSet(empty.index(True) + 1, name)
    U_b, X_b, TU_b, TX_b = offsets

    A_cl = A + B @ F
    margins = {}

    # Terminal-set assumption, hard gates: Xf inside X_{N-1} and Tx_{N-1},
    # F Xf inside U_{N-1} and Tu_{N-1}. An inclusion margin is the least
    # offset of outer ominus (image @ inner); >= 0 means the image is inside.
    margins["terminal_in_tight_state"] = float(np.min(pontryagin_diff(Polytope(
        np.vstack([plant.X.A, plant.Tx.A]), np.concatenate([X_b[-1], TX_b[-1]])),
        plant.Xf).b))
    margins["terminal_input_in_tight_input"] = float(np.min(pontryagin_diff(Polytope(
        np.vstack([plant.U.A, plant.Tu.A]), np.concatenate([U_b[-1], TU_b[-1]])),
        plant.Xf, image=F).b))
    for name, margin in margins.items():
        if margin < -geometry.FEAS_TOL:
            raise TerminalAssumptionViolated(f"{name} margin {margin:.3e}")
    # One-step invariance of Xf under the nominal loop, reported as a
    # diagnostic only: for box terminal sets this margin is negative
    # whenever ||A_cl||_inf > 1 even though every closed-loop trajectory
    # may keep the tail candidates well inside the tightened sets; the
    # candidate row checks at trigger-construction time are the hard gate
    # for what the guarantees actually consume.
    margins["terminal_invariance"] = float(np.min(
        pontryagin_diff(plant.Xf, plant.Xf, image=A_cl).b))

    report = {
        "nilpotency_residual": float(nilpotency),
        "closed_loop_spectral_radius": float(np.max(np.abs(np.linalg.eigvals(A_cl)))),
        "margins": {k: float(v) for k, v in margins.items()},
        "tightened_offsets": {name: b.tolist() for (name, _, _), b in zip(families, offsets)},
    }
    return RmpcSetup(plant, N, M, F, K, L, Ktilde, Ltilde,
                     U_b, X_b, TU_b, TX_b, Q, R, report)
