"""Self-contained LP / convex-QP / log-concave maximization routines.

One Mehrotra-style primal-dual interior-point loop handles both LPs
(H = 0) and convex QPs over ``A_eq x = b_eq, A_in x <= b_in``. The
hyper-rectangle volume objectives are maximized by the same scheme
on the concave log objective, then an active-set Newton polish. No
external solver dependencies; every run with the same inputs is
bit-identical (fixed step rules, no restarts).

Project-wide tolerances: primal/dual feasibility 1e-8, duality gap
(complementarity) 1e-8, at most 200 iterations per solve.
"""

import enum

import numpy as np

FEAS_TOL = 1e-8
GAP_TOL = 1e-8
MAX_ITER = 200

# Objective magnitude beyond which a feasible minimizing sequence is
# declared an unbounded ray.
_DIVERGE = 1e12


class SolverError(Exception):
    pass


class Status(enum.Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    MAXITER = "MaxIter"


class LpProblem:
    """maximize c.x  s.t.  A x <= b, optional A_eq x = b_eq."""

    def __init__(self, c, A=None, b=None, A_eq=None, b_eq=None):
        self.c = np.asarray(c, dtype=float).reshape(-1)
        self.A = None if A is None else np.asarray(A, dtype=float)
        self.b = None if b is None else np.asarray(b, dtype=float).reshape(-1)
        self.A_eq = None if A_eq is None else np.asarray(A_eq, dtype=float)
        self.b_eq = None if b_eq is None else np.asarray(b_eq, dtype=float).reshape(-1)
        _check_dims(self.c.size, self.A, self.b, self.A_eq, self.b_eq)


class QpProblem:
    """minimize 0.5 x.H x + g.x  s.t.  A_eq x = b_eq, A_in x <= b_in.

    H must be symmetric positive semidefinite (eigenvalue floor -1e-10
    before symmetrization).
    """

    def __init__(self, H, g, A_in=None, b_in=None, A_eq=None, b_eq=None):
        H = np.asarray(H, dtype=float)
        self.H = 0.5 * (H + H.T)
        self.g = np.asarray(g, dtype=float).reshape(-1)
        if np.min(np.linalg.eigvalsh(self.H)) < -1e-10:
            raise ValueError("H must be positive semidefinite")
        self.A_in = None if A_in is None else np.asarray(A_in, dtype=float)
        self.b_in = None if b_in is None else np.asarray(b_in, dtype=float).reshape(-1)
        self.A_eq = None if A_eq is None else np.asarray(A_eq, dtype=float)
        self.b_eq = None if b_eq is None else np.asarray(b_eq, dtype=float).reshape(-1)
        _check_dims(self.g.size, self.A_in, self.b_in, self.A_eq, self.b_eq)


class SolveReport:
    """Outcome of one solve. Immutable.

    status OPTIMAL guarantees kkt_residual <= 1e-6 and constraint
    violation <= 1e-8 (both scaled by the problem data magnitude).
    """

    def __init__(self, status, x, objective, kkt_residual, iterations, certificate=None):
        self.status = status
        self.x = None if x is None else np.array(x, dtype=float)
        if self.x is not None:
            self.x.flags.writeable = False
        self.objective = None if objective is None else float(objective)
        self.kkt_residual = float(kkt_residual)
        self.iterations = int(iterations)
        self.certificate = certificate

    def __repr__(self):
        return f"SolveReport({self.status.value}, obj={self.objective}, kkt={self.kkt_residual:.2e})"


def _check_dims(n, A_in, b_in, A_eq, b_eq):
    for mat, vec, name in ((A_in, b_in, "inequality"), (A_eq, b_eq, "equality")):
        if (mat is None) != (vec is None):
            raise ValueError(f"{name} matrix and rhs must be given together")
        if mat is not None:
            if mat.ndim != 2 or mat.shape[1] != n or mat.shape[0] != vec.size:
                raise ValueError(f"{name} block has inconsistent dimensions")
            if not (np.all(np.isfinite(mat)) and np.all(np.isfinite(vec))):
                raise ValueError(f"{name} block must be finite")


def _empty(n):
    return np.zeros((0, n)), np.zeros(0)


def _ipm(H, g, A, b, G, h, tol, classify=True):
    """Mehrotra predictor-corrector on min 0.5 x.H x + g.x, Ax=b, Gx<=h.

    Returns (status, x, kkt_residual, iterations, certificate).
    """
    n = g.size
    p, m = A.shape[0], G.shape[0]

    scale_p = 1.0 + max(np.max(np.abs(b), initial=0.0), np.max(np.abs(h), initial=0.0))
    scale_d = 1.0 + np.max(np.abs(g), initial=0.0) + (np.max(np.abs(H)) if H.size else 0.0)

    # Deterministic start: least-squares on the equalities, unit slacks.
    if p > 0:
        x = np.linalg.lstsq(A, b, rcond=None)[0]
    else:
        x = np.zeros(n)
    y = np.zeros(p)
    if m > 0:
        s = np.maximum(h - G @ x, 1.0)
        z = np.ones(m)
    else:
        s = np.zeros(0)
        z = np.zeros(0)

    def residuals(x, y, z, s):
        rd = H @ x + g + (A.T @ y if p else 0.0) + (G.T @ z if m else 0.0)
        rp = (A @ x - b) if p else np.zeros(0)
        rg = (G @ x + s - h) if m else np.zeros(0)
        return rd, rp, rg

    if m == 0:
        # Pure equality-constrained QP: one KKT solve.
        K = np.block([[H, A.T], [A, np.zeros((p, p))]]) if p else H
        rhs = np.concatenate([-g, b]) if p else -g
        try:
            sol = np.linalg.solve(K + 1e-12 * np.eye(K.shape[0]), rhs)
        except np.linalg.LinAlgError:
            return Status.MAXITER, None, np.inf, 0, None
        x = sol[:n]
        y = sol[n:]
        rd, rp, _ = residuals(x, y, z, s)
        res = max(np.max(np.abs(rd)) / scale_d, (np.max(np.abs(rp)) / scale_p) if p else 0.0)
        if res <= 1e-6:
            return Status.OPTIMAL, x, res, 1, None
        # Singular H with a drift direction: unbounded below.
        return (Status.UNBOUNDED if classify else Status.MAXITER), None, res, 1, None

    best = None
    for it in range(1, MAX_ITER + 1):
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(s))
                and np.all(np.isfinite(z)) and np.max(s) < 1e100
                and np.max(z) < 1e100 and np.min(s) > 1e-200):
            break  # diverged; fall through to classification
        rd, rp, rg = residuals(x, y, z, s)
        mu = float(z @ s) / m
        pres = (np.max(np.abs(rp)) if p else 0.0, np.max(np.abs(rg)))
        res_p = max(pres) / scale_p
        res_d = np.max(np.abs(rd)) / scale_d
        res_g = mu / scale_d
        kkt = max(res_p, res_d, res_g)
        if best is None or kkt < best[0]:
            best = (kkt, x.copy(), it)
        if res_p <= tol and res_d <= tol and res_g <= tol:
            return Status.OPTIMAL, x, kkt, it, None

        obj = 0.5 * x @ H @ x + g @ x
        if classify and res_p <= 1e-6 and obj < -_DIVERGE * scale_d:
            return Status.UNBOUNDED, None, kkt, it, None

        d = z / s
        M = H + G.T @ (d[:, None] * G)

        def solve_kkt(rx, ry):
            rhs = np.concatenate([rx, ry]) if p else rx
            sol = np.linalg.solve(K, rhs)
            return (sol[:n], sol[n:]) if p else (sol, np.zeros(0))

        # Affine scaling (predictor) direction; a singular KKT matrix is
        # retried with a larger regularization.
        rhs_x = -(rd + G.T @ (d * rg - z))
        reg = 1e-12 * scale_d
        for _ in range(6):
            K = np.block([[M + reg * np.eye(n), A.T], [A, -reg * np.eye(p)]]) if p \
                else M + reg * np.eye(n)
            try:
                dx_a, dy_a = solve_kkt(rhs_x, -rp if p else None)
                break
            except np.linalg.LinAlgError:
                reg *= 100.0
        else:
            break
        ds_a = -rg - G @ dx_a
        dz_a = -z - d * ds_a

        a_p = _max_step(s, ds_a)
        a_d = _max_step(z, dz_a)
        mu_aff = float((z + a_d * dz_a) @ (s + a_p * ds_a)) / m
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # Corrector.
        corr = (sigma * mu - ds_a * dz_a) / s
        rhs_x = -(rd + G.T @ (d * rg - z + corr))
        dx, dy = solve_kkt(rhs_x, -rp if p else None)
        ds = -rg - G @ dx
        dz = (sigma * mu - ds_a * dz_a) / s - z - d * ds

        alpha = 0.995 * min(_max_step(s, ds), _max_step(z, dz))
        alpha = min(alpha, 1.0)
        x = x + alpha * dx
        y = y + alpha * dy
        s = s + alpha * ds
        z = z + alpha * dz

    # Did not converge: classify via an elastic phase-1 LP, never report a
    # silent wrong answer.
    if classify:
        t, cert = _phase1(A, b, G, h)
        if t is None:
            return Status.MAXITER, best[1], best[0], MAX_ITER, None
        if t > 1e-7:
            return Status.INFEASIBLE, None, best[0], MAX_ITER, cert
    return Status.MAXITER, best[1], best[0], MAX_ITER, None


def _max_step(v, dv):
    neg = dv < 0
    if not np.any(neg):
        return 1.0
    return float(min(1.0, np.min(-v[neg] / dv[neg])))


def _phase1(A, b, G, h):
    """min t s.t. Gx <= h + t, Ax = b, t >= 0; classifies feasibility."""
    n = G.shape[1]
    m = G.shape[0]
    Gx = np.hstack([G, -np.ones((m, 1))])
    Gx = np.vstack([Gx, np.concatenate([np.zeros(n), [-1.0]])])
    hx = np.concatenate([h, [0.0]])
    Ax = np.hstack([A, np.zeros((A.shape[0], 1))]) if A.shape[0] else np.zeros((0, n + 1))
    c = np.zeros(n + 1)
    c[-1] = 1.0
    st, xt, kkt, _, _ = _ipm(np.zeros((n + 1, n + 1)), c, Ax, b, Gx, hx,
                             tol=FEAS_TOL, classify=False)
    if st != Status.OPTIMAL or xt is None:
        return None, None
    return float(xt[-1]), xt


def solve_lp(p, tol=FEAS_TOL):
    """Maximize c.x subject to the problem's constraints."""
    n = p.c.size
    G, h = (p.A, p.b) if p.A is not None else _empty(n)
    A, b = (p.A_eq, p.b_eq) if p.A_eq is not None else _empty(n)
    st, x, kkt, it, cert = _ipm(np.zeros((n, n)), -p.c, A, b, G, h, tol)
    if st == Status.OPTIMAL:
        x = _crossover(p.c, A, b, G, h, x)
    obj = float(p.c @ x) if x is not None and st == Status.OPTIMAL else None
    return SolveReport(st, x, obj, kkt, it, cert)


def _crossover(c, A, b, G, h, x):
    """Snap an interior-point iterate to the active-set vertex.

    Builds a full-rank basis from equality rows plus the tightest
    inequality rows and re-solves it exactly; accepted only when the
    refined point is feasible and at least as good, otherwise the
    unpolished iterate is kept. Removes the O(gap) objective bias of the
    barrier iterate on non-degenerate LPs.
    """
    n = x.size
    scale = 1.0 + float(np.max(np.abs(h), initial=0.0))
    slack = h - G @ x
    order = np.argsort(slack, kind="stable")
    rows = []
    basis = [A[i] for i in range(A.shape[0])]
    rhs = [b[i] for i in range(A.shape[0])]
    for i in order:
        if slack[i] > 1e-5 * scale or len(basis) == n:
            break
        trial = np.array(basis + [G[i]])
        if np.linalg.matrix_rank(trial, tol=1e-10) == len(basis) + 1:
            basis.append(G[i])
            rhs.append(h[i])
            rows.append(i)
    if len(basis) != n:
        return x
    try:
        xv = np.linalg.solve(np.array(basis), np.array(rhs))
    except np.linalg.LinAlgError:
        return x
    feas_ok = (np.max(G @ xv - h, initial=0.0) <= 1e-9 * scale
               and (A.shape[0] == 0 or np.max(np.abs(A @ xv - b)) <= 1e-9 * scale))
    if feas_ok and c @ xv >= c @ x - 1e-9 * scale:
        return xv
    return x


def solve_qp(p, tol=FEAS_TOL):
    """Minimize 0.5 x.H x + g.x subject to the problem's constraints."""
    n = p.g.size
    G, h = (p.A_in, p.b_in) if p.A_in is not None else _empty(n)
    A, b = (p.A_eq, p.b_eq) if p.A_eq is not None else _empty(n)
    st, x, kkt, it, cert = _ipm(p.H, p.g, A, b, G, h, tol)
    obj = float(0.5 * x @ p.H @ x + p.g @ x) if x is not None and st == Status.OPTIMAL else None
    return SolveReport(st, x, obj, kkt, it, cert)


def feasibility(A, b):
    """A strictly interior-ish point of {x : Ax <= b}, or None if empty."""
    t, xt = _phase1(np.zeros((0, A.shape[1])), np.zeros(0), np.asarray(A, float),
                    np.asarray(b, float).reshape(-1))
    if t is None or t > 1e-7:
        return None
    return xt[:-1]


# ---------------------------------------------------------------------------
# Hyper-rectangle volume maximization
# ---------------------------------------------------------------------------

MODE_SUM_LOG_WIDTH = "sum_log_width"   # f1: sum_j log(vbar_j + vund_j)
MODE_SUM_LOG_BOTH = "sum_log_both"     # f2: sum_j log(vbar_j) + log(vund_j)


def coordinate_widths(W, d):
    """Per-variable feasible maxima over {v >= 0 : W v <= d}.

    Valid because W is entrywise nonnegative in this problem family
    (vertex-support rows), which makes the feasible set downward closed:
    the max of v_j is attained with all other coordinates at zero, i.e.
    min_i d_i / W_ij over rows with W_ij > 0 (+inf if no row binds).
    """
    W = np.asarray(W, dtype=float)
    d = np.asarray(d, dtype=float).reshape(-1)
    if np.min(W, initial=0.0) < -1e-12:
        raise ValueError("coordinate_widths expects a nonnegative constraint matrix")
    out = np.full(W.shape[1], np.inf)
    for j in range(W.shape[1]):
        col = W[:, j]
        mask = col > 0
        if np.any(mask):
            out[j] = float(np.min(d[mask] / col[mask]))
    return np.maximum(out, 0.0)


def maximize_log_volume(W, d, mode):
    """Maximize a log-volume objective over {v >= 0 : W v <= d}.

    The variable v stacks the upper widths vbar (first k) and lower widths
    vund (last k) of a box around the origin. ``mode`` selects f1
    (sum of log total widths) or f2 (sum of logs of both one-sided widths).

    A coordinate pair whose feasible width is below 1e-9 (in f1 the larger
    side, in f2 the smaller) is degenerate: it is pinned to zero width and
    left out of the objective. In f1 mode a pair may survive with one side
    forced to zero (one-sided box); that side is fixed rather than treated
    as degenerate. Returns Unbounded status when some width is infinite,
    and MaxIter with the polished point when the interior-point loop stops
    at MAX_ITER iterations before converging.
    """
    W = np.asarray(W, dtype=float)
    d = np.asarray(d, dtype=float).reshape(-1)
    if W.shape[1] % 2 != 0:
        raise ValueError("variable count must be even (vbar/vund pairs)")
    k = W.shape[1] // 2
    if mode not in (MODE_SUM_LOG_WIDTH, MODE_SUM_LOG_BOTH):
        raise ValueError(f"unknown mode {mode!r}")
    if np.min(d, initial=0.0) < -FEAS_TOL:
        raise SolverError("polyhedron infeasible at v = 0")
    d = np.maximum(d, 0.0)

    widths = coordinate_widths(W, d)
    if np.any(np.isinf(widths)):
        return SolveReport(Status.UNBOUNDED, None, None, np.inf, 0)

    up, dn = widths[:k], widths[k:]
    pair_width = np.maximum(up, dn) if mode == MODE_SUM_LOG_WIDTH else np.minimum(up, dn)
    kept = pair_width >= 1e-9
    # Live variables: members of kept pairs with nonvanishing width.
    live = np.tile(kept, 2) & (widths >= 1e-9)
    if not np.any(live):
        return SolveReport(Status.OPTIMAL, np.zeros(2 * k), 0.0, 0.0, 0)

    # One row of S per log term: f2 logs each side of a pair, f1 their sum.
    pairs = np.flatnonzero(kept)
    eye = np.eye(2 * k)
    if mode == MODE_SUM_LOG_BOTH:
        S = eye[np.column_stack([pairs, k + pairs]).ravel()]
    else:
        S = eye[pairs] + eye[k + pairs]
    S = S[:, live]
    Wa = W[:, live]
    keep = np.max(np.abs(Wa), axis=1) > 0
    Wa, da = Wa[keep], d[keep]

    v, residual, iters, converged = _path_following(Wa, da, S, widths[live])
    if v is None:
        return SolveReport(Status.MAXITER, None, None, np.inf, iters)
    v = _kkt_polish(Wa, da, S, v)

    full = np.zeros(2 * k)
    full[live] = v
    status = Status.OPTIMAL if converged else Status.MAXITER
    return SolveReport(status, full, _log_volume(v, S), residual, iters)


def _log_volume(v, S):
    """sum over log terms of log(S v); -inf off-domain."""
    s = S @ v
    if np.any(s <= 0):
        return -np.inf
    return sum(np.log(s).tolist())


def _log_volume_derivatives(v, S):
    """Gradient S^T (1/s) and Hessian -S^T diag(1/s^2) S of the log objective."""
    s = np.maximum(S @ v, 1e-150)
    return S.T @ (1.0 / s), -(S.T * (1.0 / (s * s))) @ S


def _path_following(W, d, S, wid):
    """Mehrotra predictor-corrector on max sum log(S v), W v <= d, v >= 0.

    ``_ipm``'s loop with the objective's curvature in place of H. Slacks
    t = [d - W v; v] and duals u = [z; y] are iterates, so rounding in
    d - W v never reaches a division. Each iteration builds
    S^T diag(1/s^2) S + W^T diag(z/t) W + diag(y/v) once and solves with it
    twice; steps stop short of the boundary, with no line search. ``wid``
    holds per-variable feasible maxima for a strictly interior start.
    Returns (v, residual, iterations, converged); converged is False when
    MAX_ITER iterations ran out before u.t fell to GAP_TOL and the scaled
    dual and row residuals to FEAS_TOL.
    """
    m = d.size
    v = 0.3 * np.minimum(wid, np.max(wid))
    for _ in range(200):
        sl = d - W @ v
        if np.all(sl > 0):
            break
        v *= 0.5
    else:
        return None, np.inf, 0, False
    t = np.concatenate([sl, v])
    u = 1.0 / t
    scale_p = 1.0 + np.max(d)
    for it in range(MAX_ITER + 1):
        v = t[m:]
        gf, hf = _log_volume_derivatives(v, S)
        rd = W.T @ u[:m] - u[m:] - gf
        rg = W @ v + t[:m] - d
        gap = float(u @ t)
        res_dp = max(np.max(np.abs(rd)) / np.max(gf), np.max(np.abs(rg)) / scale_p)
        res = max(res_dp, gap)
        if res_dp <= FEAS_TOL and gap <= GAP_TOL:
            return v, res, it, True
        if it == MAX_ITER:
            break
        D = u / t
        M = -hf + (W.T * D[:m]) @ W + np.diag(D[m:])
        u_rg = np.concatenate([u[:m] * rg, np.zeros(v.size)])

        def direction(c):
            """Newton step for the complementarity target t*u -> c."""
            q = (c + u_rg) / t
            dv = _ridge_solve(M, -rd - W.T @ q[:m] + q[m:])
            if dv is None:
                return None
            dt = np.concatenate([-rg - W @ dv, dv])
            return dt, (c - u * dt) / t

        step = direction(-t * u)
        if step is None:
            break
        dt_a, du_a = step
        gap_aff = float((u + _max_step(u, du_a) * du_a) @ (t + _max_step(t, dt_a) * dt_a))
        sigma_mu = (gap_aff / gap) ** 3 * gap / t.size
        step = direction(sigma_mu - t * u - dt_a * du_a)
        if step is None:
            break
        dt, du = step
        alpha = 0.995 * min(_max_step(t, dt), _max_step(u, du))
        t = t + alpha * dt
        u = u + alpha * du
    return v, res, it, False


def _ridge_solve(Hm, rhs):
    scale = np.max(np.abs(Hm))
    if not np.isfinite(scale):
        return None
    reg = 0.0
    for _ in range(8):
        try:
            out = np.linalg.solve(Hm + reg * np.eye(Hm.shape[0]), rhs)
            if np.all(np.isfinite(out)):
                return out
        except np.linalg.LinAlgError:
            pass
        reg = max(reg * 100.0, 1e-14 * max(scale, 1.0))
    return None


def _kkt_polish(W, d, S, v):
    """Active-set Newton refinement to machine accuracy.

    Pins the (near-)active constraint rows and near-zero variables as
    equalities and runs equality-constrained Newton on the smooth concave
    objective. A variable that is a log term on its own is never pinned.
    The polished point is accepted only when it is feasible, stays in the
    objective domain, and does not lose objective value; otherwise the
    interior-point iterate is returned unchanged.
    """
    nv = v.size
    scale = 1.0 + float(np.max(np.abs(d), initial=0.0))
    slack = d - W @ v
    act_rows = np.flatnonzero(slack <= 1e-5 * scale)
    single = S.T @ (S.sum(axis=1) == 1) > 0
    act_vars = np.flatnonzero((v <= 1e-5 * scale) & ~single)
    E = np.vstack([W[act_rows], np.eye(nv)[act_vars]])
    r = np.concatenate([d[act_rows], np.zeros(act_vars.size)])
    p = E.shape[0]

    vp = v.copy()
    lam = np.zeros(p)
    for _ in range(40):
        gf, hf = _log_volume_derivatives(vp, S)
        # f1 is flat along the split of a width into vbar and vund; where the
        # pinned rows leave it free, the proximal term keeps rounding in the
        # residual from moving the point along it.
        prox = 1e-8 * (1.0 + np.max(np.abs(hf))) * np.eye(nv)
        res_d = -gf + E.T @ lam
        res_p = E @ vp - r
        K = np.block([[-hf + prox, E.T],
                      [E, np.zeros((p, p))]])
        sol = _ridge_solve(K, -np.concatenate([res_d, res_p]))
        if sol is None:
            return v
        dv = sol[:nv]
        dl = sol[nv:]
        alpha = 1.0
        for _ in range(60):
            if _log_volume(vp + alpha * dv, S) > -np.inf:
                break
            alpha *= 0.5
        else:
            return v
        vp = vp + alpha * dv
        lam = lam + alpha * dl
        if max(np.max(np.abs(res_d), initial=0.0),
               np.max(np.abs(res_p), initial=0.0)) <= 1e-13 * scale and alpha == 1.0:
            break
    vp[act_vars] = 0.0
    vp = np.maximum(vp, 0.0)

    ok = (np.min(d - W @ vp, initial=np.inf) >= -1e-12 * scale
          and _log_volume(vp, S) >= _log_volume(v, S))
    if not ok:
        return v
    lam_rows = lam[:act_rows.size]
    if lam_rows.size and np.min(lam_rows) < -1e-6:
        return v
    return vp
