"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's solver paths: vertex enumeration,
grid search, Monte Carlo and long-running projected gradient only.
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


def projected_gradient_qp(H, g, lower, upper, iters=1_000_000):
    """Box-constrained QP by projected gradient, run to many iterations."""
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    L = float(np.max(np.linalg.eigvalsh(H)))
    step = 1.0 / L
    x = np.clip(np.zeros_like(g), lower, upper)
    for _ in range(iters):
        x = np.clip(x - step * (H @ x + g), lower, upper)
    return x, float(0.5 * x @ H @ x + g @ x)


def grid_box_volume(W, d, mode, n=200):
    """Grid-search oracle for the maximum-volume box inside {v>=0: Wv<=d}.

    Equivalent to exhaustive search over the n**4 grid for k=2: the last
    coordinate is resolved in closed form (snapped down to its grid) which
    is exact because W >= 0 makes the objective monotone in it.
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
    best = 0.0
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
        if mode == "sum_log_width":
            vol = (block[:, 0] + block[:, 2]) * (block[:, 1] + v4)
        else:
            vol = block[:, 0] * block[:, 2] * block[:, 1] * v4
        vol = np.where(feas, vol, 0.0)
        best = max(best, float(np.max(vol, initial=0.0)))
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
