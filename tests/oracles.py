"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's solver paths: vertex enumeration,
grid search, Monte Carlo, active-set enumeration of QPs, and scipy's
SLSQP and HiGHS (callers skip without scipy).
"""

import itertools

import numpy as np


def enumerate_vertices(A, b, tol=1e-9):
    """All vertices of {x : Ax <= b} by facet-intersection (dim <= 3)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    verts = []
    for rows in itertools.combinations(range(m), n):
        sub = A[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, b[list(rows)])
        if np.max(A @ x - b) <= tol:
            verts.append(x)
    if not verts:
        return np.zeros((0, n))
    out = []
    for v in verts:
        if not any(np.linalg.norm(v - w) < 1e-9 for w in out):
            out.append(v)
    return np.array(out)


def two_pass_vertices(A, b):
    """The vertices of a nonempty, bounded {x : A x <= b} in two passes,
    as ``Polytope.vertices`` once computed them: the active row sets T of
    the points that the stacked enumeration solves for each full-rank
    subset of n rows, then, for each T in tuple order, the point solved
    again from the rows of T that raise its rank, taken in index order
    (``vertex_on_rows``), kept where it lies in the set. A reference for
    the bits of the one-pass enumeration."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    tol = 1e-9 * (1.0 + np.max(np.abs(b)))
    live = np.linalg.norm(A, axis=1) > 0.0
    subsets, active = itertools.combinations(range(m), n), set()
    while chunk := list(itertools.islice(subsets, 4096)):
        S = np.array(chunk)
        S = S[np.linalg.matrix_rank(A[S], tol=1e-10) == n]
        X = np.linalg.solve(A[S], b[S][:, :, None])[:, :, 0]
        slack = b - X @ A.T
        for rows in (slack[np.min(slack, axis=1) >= -tol] <= tol) & live:
            active.add(tuple(np.flatnonzero(rows).tolist()))
    V = [v for v in (vertex_on_rows(A, b, T) for T in sorted(active))
         if v is not None and np.max(A @ v - b) <= tol]
    return np.array(V, dtype=float)


def vertex_on_rows(M, rhs, order):
    """The point x with M_S x = rhs_S, where S takes each row of ``order``,
    in that order, that raises its rank, until S has n = M.shape[1] rows.
    None when S stays short of n rows or is singular."""
    n = M.shape[1]
    S = []
    for i in order:
        if len(S) == n:
            break
        if np.linalg.matrix_rank(M[S + [int(i)]], tol=1e-10) == len(S) + 1:
            S.append(int(i))
    if len(S) != n:
        return None
    try:
        return np.linalg.solve(M[S], rhs[S])
    except np.linalg.LinAlgError:
        return None


def lp_max_by_vertices(c, A, b):
    """max c.x over the polytope via vertex enumeration."""
    V = enumerate_vertices(A, b)
    if V.shape[0] == 0:
        raise ValueError("empty or degenerate polytope")
    return float(np.max(V @ np.asarray(c, dtype=float)))


def grid_projection(point, lower, upper, weight, n=201):
    """min (r-s).M(r-s) over a box target by dense grid search."""
    r = np.asarray(point, dtype=float)
    M = np.asarray(weight, dtype=float)
    axes = [np.linspace(lo, hi, n) for lo, hi in zip(lower, upper)]
    best = np.inf
    best_s = None
    for s in itertools.product(*axes):
        s = np.array(s)
        d = (r - s) @ M @ (r - s)
        if d < best:
            best = d
            best_s = s
    return float(best), best_s


def qp_min_by_active_sets(H, g, A, b):
    """min 0.5 x.H x + g.x over {x : A x <= b}, H positive semidefinite,
    exactly where the minimizer is unique: enumerate the sets S of at most
    n rows. Each set's KKT system H x + A_S^T lam = -g, A_S x = b_S is
    solved where it is nonsingular; the set whose point satisfies every
    row (primal feasible) and whose lam >= 0 (dual feasible) satisfies
    KKT, and its point is the minimizer."""
    H, g, A, b = (np.asarray(v, dtype=float) for v in (H, g, A, b))
    n = g.size
    tol = 1e-9 * (1.0 + np.max(np.abs(b)))
    for k in range(n + 1):
        for rows in itertools.combinations(range(len(A)), k):
            S = list(rows)
            K = np.block([[H, A[S].T], [A[S], np.zeros((k, k))]])
            if np.linalg.cond(K) > 1e12:
                continue
            sol = np.linalg.solve(K, np.concatenate([-g, b[S]]))
            x, lam = sol[:n], sol[n:]
            tol_d = 1e-9 * (1.0 + np.max(np.abs(H @ x)) + np.max(np.abs(g)))
            if np.all(A @ x - b <= tol) and np.all(lam >= -tol_d):
                return x, float(0.5 * x @ H @ x + g @ x)
    raise ValueError("no set of rows satisfies KKT")


def grid_box_volumes(W, d, n=200):
    """Grid-search oracle for the maximum-volume box inside {v>=0: Wv<=d}.

    Returns the maximum of each objective, keyed by mode: the product of
    the total widths ("sum_log_width") and the product of all four
    one-sided widths ("sum_log_both"), both from one pass over the grid.
    Equivalent to exhaustive search over the n**4 grid for k=2: the last
    coordinate is resolved in closed form (snapped down to its grid) which
    is exact because W >= 0 makes both objectives monotone in it.
    """
    W = np.asarray(W, dtype=float)
    d = np.asarray(d, dtype=float)
    assert W.shape[1] == 4, "oracle written for 2-dimensional boxes"
    assert np.min(W) >= 0
    bounds = []
    for j in range(4):
        col = W[:, j]
        mask = col > 0
        bounds.append(float(np.min(d[mask] / col[mask])) if np.any(mask) else np.inf)
    assert all(np.isfinite(bounds)), "oracle requires a bounded parameter box"
    grids = [np.linspace(0.0, bj, n) for bj in bounds]
    g3 = np.stack([g.ravel() for g in np.meshgrid(grids[0], grids[1], grids[2],
                                                  indexing="ij")], axis=1)
    W3 = W[:, :3]
    w4 = W[:, 3]
    step4 = bounds[3] / (n - 1)
    best = {"sum_log_width": 0.0, "sum_log_both": 0.0}
    chunk = 200_000
    for s in range(0, g3.shape[0], chunk):
        block = g3[s:s + chunk]
        resid = d[None, :] - block @ W3.T
        feas = np.all(resid >= -1e-12, axis=1)
        v4 = np.full(block.shape[0], bounds[3])
        pos = w4 > 0
        if np.any(pos):
            v4 = np.min(resid[:, pos] / w4[pos][None, :], axis=1)
            v4 = np.minimum(v4, bounds[3])
        v4 = np.floor(np.clip(v4, 0.0, None) / step4) * step4
        vols = {"sum_log_width": (block[:, 0] + block[:, 2]) * (block[:, 1] + v4),
                "sum_log_both": block[:, 0] * block[:, 2] * block[:, 1] * v4}
        for mode, vol in vols.items():
            vol = np.where(feas, vol, 0.0)
            best[mode] = max(best[mode], float(np.max(vol, initial=0.0)))
    return best


def slsqp_log_volume(W, d, mode):
    """scipy SLSQP optimum of the log-volume over {v >= 0 : W v <= d}.

    For problems whose every variable has a positive feasible width.
    Works in variables scaled by those widths (z = v / width, 0 <= z <= 1)
    and starts from z = 1 / (2 nv), strictly inside every row.
    """
    from scipy.optimize import minimize

    W = np.asarray(W, dtype=float)
    d = np.asarray(d, dtype=float)
    nv = W.shape[1]
    k = nv // 2
    width = np.array([np.min(d[W[:, j] > 0] / W[W[:, j] > 0, j]) for j in range(nv)])
    if mode == "sum_log_width":
        S = np.hstack([np.eye(k), np.eye(k)])
    else:
        S = np.eye(nv)
    S = S * width
    Wz = W * width

    def f(z):
        s = S @ z
        if np.any(s <= 0):
            return np.inf, np.zeros_like(z)
        return -float(np.sum(np.log(s))), -(S.T @ (1.0 / s))

    res = minimize(f, np.full(nv, 1.0 / (2 * nv)), jac=True, method="SLSQP",
                   bounds=[(0.0, 1.0)] * nv,
                   constraints=[{"type": "ineq", "fun": lambda z: d - Wz @ z,
                                 "jac": lambda z: -Wz}],
                   options={"ftol": 1e-15, "maxiter": 1000})
    # Shrink SLSQP's point into the rows so that its value is attainable.
    z = np.clip(res.x, 0.0, 1.0)
    z *= min(1.0, float(np.min(d / np.maximum(Wz @ z, 1e-300))))
    return float(np.sum(np.log(S @ z)))


def slsqp_least_norm(T, t, A, b):
    """scipy SLSQP minimizer u of |T u + t|^2 subject to A u <= b, started
    from a HiGHS point of the rows; None where HiGHS finds them infeasible."""
    from scipy.optimize import linprog, minimize

    T, t, A, b = (np.asarray(v, dtype=float) for v in (T, t, A, b))
    n = T.shape[1]
    start = linprog(np.zeros(n), A_ub=A, b_ub=b, bounds=[(None, None)] * n,
                    method="highs")
    if start.status == 2:
        return None
    assert start.status == 0, start.message
    res = minimize(lambda u: float(np.sum((T @ u + t) ** 2)), start.x,
                   jac=lambda u: 2.0 * T.T @ (T @ u + t), method="SLSQP",
                   constraints=[{"type": "ineq", "fun": lambda u: b - A @ u,
                                 "jac": lambda u: -A}],
                   options={"ftol": 1e-15, "maxiter": 1000})
    # At ftol 1e-15 SLSQP can stop with "positive directional derivative
    # for linesearch" (status 8) at the optimum; callers compare its point.
    assert res.status in (0, 8), res.message
    return res.x


def highs_max(c, A, b, A_eq=None, b_eq=None, options=None):
    """HiGHS optimum of max c.x s.t. A x <= b, A_eq x = b_eq, x free;
    +inf if unbounded. ``options`` go to HiGHS as they are."""
    from scipy.optimize import linprog

    res = linprog(-np.asarray(c, dtype=float), A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq,
                  bounds=[(None, None)] * len(c), method="highs", options=options)
    if res.status == 3:
        return np.inf
    assert res.status == 0, res.message
    return -float(res.fun)


def highs_verdicts(A, b, g=None, H=None):
    """HiGHS's (empty, bounded) on {x : A x <= b}, x free, or, given g, on
    min 0.5 x.H x + g.x over it (H = 0 when None). Empty when linprog finds
    the zero objective infeasible (status 2). Bounded when the set is not
    empty and the recession LPs max c.d s.t. A d <= 0, H d = 0, |d| <= 1
    all have optimum 0 (at most 1e-9): c is each ±e_j for the set, and
    -g for the objective, which a convex quadratic is unbounded below
    along exactly such rays (Frank & Wolfe, 1956). linprog's own status
    for an unbounded max ±x_j is not reliable, as on about 1 in 3,000
    random LPs in R^4 with rows of norm 1e3 it reports status 4 (model
    status not set)."""
    from scipy.optimize import linprog

    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    res = linprog(np.zeros(n), A_ub=A, b_ub=b, bounds=[(None, None)] * n, method="highs")
    assert res.status in (0, 2), res.message
    if res.status == 2:
        return True, False
    C = np.vstack([np.eye(n), -np.eye(n)]) if g is None else -np.atleast_2d(g)
    flat = {} if H is None else {"A_eq": H, "b_eq": np.zeros(n)}
    rays = [linprog(-c, A_ub=A, b_ub=np.zeros(len(A)), bounds=[(-1.0, 1.0)] * n,
                    method="highs", **flat) for c in C]
    assert all(r.status == 0 for r in rays), [r.message for r in rays]
    return False, all(-r.fun <= 1e-9 for r in rays)


def highs_chebyshev(A, b):
    """HiGHS radius of the largest 2-norm ball in {x : A x <= b}: max r
    s.t. a_i x + ||a_i|| r <= b_i, with r free and x free.

    At HiGHS's tightest feasibility tolerances, 1e-10: at its defaults
    (1e-7) its point on one reference-run set violates a row by 1.0e-9,
    and its radius is 1.1e-9 relative above the exact optimum."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    rows = np.hstack([A, np.linalg.norm(A, axis=1)[:, None]])
    return highs_max(np.eye(n + 1)[n], rows, b, options={
        "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})


def highs_segment_length(G, d, j):
    """Longest segment [z, z + omega e_j] through the origin in {G e <= d}.

    The LP over (z, omega): both ends in the polytope, z <= 0 and
    z + omega e_j >= 0, which pins every other coordinate at zero.
    """
    G = np.asarray(G, dtype=float)
    m, k = G.shape
    ej = np.eye(k)[j]
    A = np.vstack([np.hstack([G, np.zeros((m, 1))]),
                   np.hstack([G, (G @ ej)[:, None]]),
                   np.hstack([np.eye(k), np.zeros((k, 1))]),
                   np.hstack([-np.eye(k), -ej[:, None]])])
    b = np.concatenate([d, d, np.zeros(k), np.zeros(k)])
    return highs_max(np.eye(k + 1)[k], A, b)


def highs_lp1_scaling(G, d, r, options=None):
    """Largest lambda such that some box [z, z + lambda r] with z <= 0 <=
    z + lambda r lies in {G e <= d}; coordinates with r_j = 0 stay at 0.
    ``options`` go to HiGHS as they are."""
    G = np.asarray(G, dtype=float)
    act = r > 0
    ka = int(np.sum(act))
    A = np.vstack([np.hstack([G[:, act], (np.maximum(G, 0.0) @ r)[:, None]]),
                   np.hstack([np.eye(ka), np.zeros((ka, 1))]),
                   np.hstack([-np.eye(ka), -r[act][:, None]]),
                   np.eye(ka + 1)[ka:] * -1.0])
    b = np.concatenate([d, np.zeros(2 * ka + 1)])
    return highs_max(np.eye(ka + 1)[ka], A, b, options=options)


def slsqp_lp1_centre(G, d, r, lam):
    """scipy SLSQP centre c of the box [c - lam r / 2, c + lam r / 2] that
    minimizes sum (c_j / r_j)^2 over the coordinates with r_j > 0 (the
    others stay at 0), subject to the box in {G e <= d} and the origin in
    the box.

    Works in t = c / r over the coordinates with r_j > 0. The largest
    g.e over the box is g.c + (lam / 2) |g|.r, which keeps it off the
    library's lifted rows. Starts from the least violating point of the
    rows by HiGHS (lam is HiGHS's, so they may hold only to its
    tolerance), and relaxes them by that violation plus 1e-10 (1 +
    max|b|), so that no face is thinner than rounding. A coordinate that
    the rows barely touch (r_j near 1e-9) may then move in t by much more
    than 1e-10, but not in c = r t.
    """
    from scipy.optimize import linprog, minimize

    G, d, r = (np.asarray(v, dtype=float) for v in (G, d, r))
    act = r > 0
    ka = int(np.sum(act))
    Gt = G[:, act] * r[act]
    A = np.vstack([Gt, np.eye(ka), -np.eye(ka)])
    b = np.concatenate([d - 0.5 * lam * np.abs(Gt).sum(axis=1), np.full(2 * ka, 0.5 * lam)])
    start = linprog(np.eye(ka + 1)[ka], A_ub=np.hstack([A, -np.ones((len(A), 1))]), b_ub=b,
                    bounds=[(None, None)] * ka + [(0.0, None)], method="highs")
    assert start.status == 0, start.message
    slack = start.x[ka] + 1e-10 * (1.0 + np.max(np.abs(b)))
    res = minimize(lambda t: float(t @ t), start.x[:ka], jac=lambda t: 2.0 * t,
                   method="SLSQP",
                   constraints=[{"type": "ineq", "fun": lambda t: b + slack - A @ t,
                                 "jac": lambda t: -A}],
                   options={"ftol": 1e-15, "maxiter": 1000})
    assert res.status in (0, 8), res.message  # 8: stopped at the optimum
    c = np.zeros(len(r))
    c[act] = res.x * r[act]
    return c


def deadbeat_erosion(A, B, thetas):
    """Tightening of a deadbeat schedule: the max row 1-norms of Theta_i
    (i < M) plus those of L_i = A^i + sum_(k<i) A^(i-1-k) B Theta_k
    (0 < i < M), and the residual of the deadbeat condition L_M = 0."""
    n = A.shape[0]
    total = sum(float(np.max(np.abs(th).sum(axis=1))) for th in thetas)
    L = np.eye(n)
    for i, th in enumerate(thetas):
        if i > 0:
            total += float(np.max(np.abs(L).sum(axis=1)))
        L = A @ L + B @ th
    return total, float(np.max(np.abs(L)))


def highs_min_erosion(A, B, M):
    """HiGHS optimum of the least deadbeat tightening over Theta_0..M-1.

    Variables, row-major: vec Theta (M nu n), bounds P >= |Theta|, bounds
    Q_i >= |L_i| (i = 1..M-1, n n each), row-norm bounds t (M) and s (M-1).
    vec(C X) = (C kron I_n) vec X maps each Theta_k into L_i.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, nu = B.shape
    nth, nq = M * nu * n, (M - 1) * n * n
    nv = 2 * nth + nq + M + (M - 1)
    o_p, o_q, o_t, o_s = nth, 2 * nth, 2 * nth + nq, 2 * nth + nq + M
    Apow = [np.linalg.matrix_power(A, i) for i in range(M + 1)]

    def lifted(i):
        """vec L_i = vec A^i + T vec Theta."""
        T = np.zeros((n * n, nth))
        for k in range(i):
            T[:, k * nu * n:(k + 1) * nu * n] = np.kron(Apow[i - 1 - k] @ B, np.eye(n))
        return T

    blocks, rhs = [], []
    eye_th = np.eye(nth)
    for sgn in (1.0, -1.0):
        blk = np.zeros((nth, nv))
        blk[:, :nth] = sgn * eye_th
        blk[:, o_p:o_p + nth] = -eye_th
        blocks.append(blk)
        rhs.append(np.zeros(nth))
    for i in range(1, M):
        T = lifted(i)
        q = slice(o_q + (i - 1) * n * n, o_q + i * n * n)
        for sgn in (1.0, -1.0):
            blk = np.zeros((n * n, nv))
            blk[:, :nth] = sgn * T
            blk[:, q] = -np.eye(n * n)
            blocks.append(blk)
            rhs.append(-sgn * Apow[i].ravel())
    rowsum_th = np.kron(np.eye(nu), np.ones(n))
    rowsum_l = np.kron(np.eye(n), np.ones(n))
    for i in range(M):
        blk = np.zeros((nu, nv))
        blk[:, o_p + i * nu * n:o_p + (i + 1) * nu * n] = rowsum_th
        blk[:, o_t + i] = -1.0
        blocks.append(blk)
        rhs.append(np.zeros(nu))
    for i in range(1, M):
        blk = np.zeros((n, nv))
        blk[:, o_q + (i - 1) * n * n:o_q + i * n * n] = rowsum_l
        blk[:, o_s + i - 1] = -1.0
        blocks.append(blk)
        rhs.append(np.zeros(n))
    A_eq = np.zeros((n * n, nv))
    A_eq[:, :nth] = lifted(M)
    c = np.zeros(nv)
    c[o_t:] = -1.0
    return -highs_max(c, np.vstack(blocks), np.concatenate(rhs),
                      A_eq=A_eq, b_eq=-Apow[M].ravel())
