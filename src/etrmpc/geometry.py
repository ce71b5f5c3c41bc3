"""H-representation polytope algebra.

All sets are carried as ``{x : A x <= b}``. Hyper-rectangles get their own
type because axis-aligned boxes admit closed-form support functions and
projections, which keeps the constraint-tightening chain exact.

LPs over fixed rows are answered from vertex caches, and the few LPs that
no cached vertex certifies are solved alone. Support functions over one
polytope (``supports``) use its vertices (``Vertices``), each certified
for a direction by NNLS; the cache lives for one call, or for one run of
worst-case draws. The shape diagnostic ``shape_ratios`` is one call over
every principal polytope of a run; their Chebyshev LPs share the rows,
and so one dual feasible set, whose vertices a cache local to the call
keeps.

Everything else here is immutable after construction and safe to share
across workers.
"""

import numpy as np

from . import solver
from .solver import FEAS_TOL  # absolute tolerance on a.x - b, package-wide


class GeometryError(Exception):
    pass


class EmptySetError(GeometryError):
    """Operation requires a nonempty set."""


class UnboundedSupport(GeometryError):
    """Support function is +inf along the requested direction."""


def _freeze(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class HyperRect:
    """Axis-aligned box B(l, u) = {x : l <= x <= u}.

    Zero-width coordinates (l_j == u_j) are allowed; they arise from
    degenerate trigger-set coordinates and from point disturbance sets.
    """

    def __init__(self, lower, upper):
        l = _freeze(np.atleast_1d(np.asarray(lower, dtype=float)))
        u = _freeze(np.atleast_1d(np.asarray(upper, dtype=float)))
        if l.shape != u.shape or l.ndim != 1:
            raise ValueError("lower/upper must be vectors of equal length")
        if not (np.all(np.isfinite(l)) and np.all(np.isfinite(u))):
            raise ValueError("box bounds must be finite")
        if np.any(l > u):
            raise ValueError("need lower <= upper componentwise")
        self.lower = l
        self.upper = u
        self.dim = l.size

    def __repr__(self):
        return f"HyperRect(l={self.lower.tolist()}, u={self.upper.tolist()})"

    def violating_coords(self, x, tol=FEAS_TOL):
        """Indices where x leaves the box (decentralized per-coordinate test)."""
        x = np.asarray(x, dtype=float)
        bad = (x < self.lower - tol) | (x > self.upper + tol)
        return np.flatnonzero(bad).tolist()

    def to_polytope(self):
        n = self.dim
        A = np.vstack([np.eye(n), -np.eye(n)])
        b = np.concatenate([self.upper, -self.lower])
        return Polytope(A, b)

    def sample(self, rng, size=None):
        return rng.uniform(self.lower, self.upper, size=(size, self.dim) if size else self.dim)


class Polytope:
    """Convex polyhedron {x : A x <= b} in H-representation.

    Facet normals are kept exactly as supplied (not normalized) so user
    configs round-trip bit-exactly; norm-sensitive computations normalize
    on the fly.
    """

    def __init__(self, A, b):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2:
            raise ValueError("A must be a matrix")
        b = b.reshape(-1)
        if b.size != A.shape[0]:
            raise ValueError("b length must match the number of rows of A")
        if A.shape[0] < 1 or A.shape[1] < 1:
            raise ValueError("need at least one row and one column")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("A and b must be finite")
        self.A = _freeze(A)
        self.b = _freeze(b)
        self.dim = A.shape[1]
        self._box = None
        self._box_checked = False

    def __repr__(self):
        return f"Polytope(m={self.A.shape[0]}, n={self.dim})"

    def membership_residual(self, x):
        """max_i (a_i x - b_i); <= 0 means inside."""
        x = np.asarray(x, dtype=float)
        return float(np.max(self.A @ x - self.b))

    def contains(self, x, tol=FEAS_TOL):
        return self.membership_residual(x) <= tol

    def with_rows_of(self, other):
        """Intersection by row concatenation (same ambient dimension)."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return Polytope(np.vstack([self.A, other.A]), np.concatenate([self.b, other.b]))

    def as_box(self):
        """Return an equivalent HyperRect when every facet is axis-aligned.

        Detection is structural: each row must touch exactly one coordinate.
        Returns None when the H-rep is not a (bounded) box.
        """
        if self._box_checked:
            return self._box
        self._box_checked = True
        # Rows in reverse: of equal bounds np.minimum.at keeps the later one,
        # so the first row's bound wins, signed zero included, as with min().
        A, b = self.A[::-1], self.b[::-1]
        nz = np.abs(A) > 0
        if np.any(nz.sum(axis=1) != 1):
            return None
        col = np.argmax(nz, axis=1)
        coef = A[np.arange(A.shape[0]), col]
        bound, up = b / coef, coef > 0
        lo = np.full(self.dim, -np.inf)
        hi = np.full(self.dim, np.inf)
        np.minimum.at(hi, col[up], bound[up])
        np.maximum.at(lo, col[~up], bound[~up])
        if np.any(~np.isfinite(lo)) or np.any(~np.isfinite(hi)) or np.any(lo > hi):
            return None
        self._box = HyperRect(lo, hi)
        return self._box

    def is_bounded(self):
        """Finite support along all 2n axis directions, one batched LP solve."""
        eye = np.eye(self.dim)
        reps = solver.solve_lp_batch(np.vstack([eye, -eye]), self.A, self.b)
        return all(rep.status == solver.Status.OPTIMAL for rep in reps)


def are_empty(A, offsets):
    """Whether {x : A x <= b} is empty, for every row b of ``offsets``
    (flagged, never raised), from one batched phase-1 solve."""
    return [point is None for point in solver.feasibility(A, offsets)]


# Relative slack at or below which a row is active at a vertex; relative
# NNLS residual at or below which a vertex's rows certify a direction.
_VERTEX_SLACK = 1e-9
_CERTIFY_TOL = 1e-12


class Vertices:
    """Vertices of one Polytope {x : A x <= b}, answering max eta.x over it.

    A vertex is kept with its active rows T and the point computed from T
    alone (``solver.vertex_on_rows`` in index order). It maximizes eta.x
    exactly when eta is a nonnegative combination of the rows A_T (LP
    optimality; Bertsimas & Tsitsiklis, *Introduction to Linear
    Optimization*, 1997, ch. 5), which an NNLS over the normalized rows
    checks. The cache is local to its owner: one ``supports`` call or one
    closed-loop run (``sim.DisturbanceModel.worst_case``).
    """

    def __init__(self, poly):
        self.poly = poly
        self.norms = np.linalg.norm(poly.A, axis=1)
        self.V = np.zeros((0, poly.dim))
        self.rows = []

    def _certifies(self, k, eta):
        """Whether eta lies in the cone of vertex k's rows, to _CERTIFY_TOL."""
        size = np.linalg.norm(eta)
        if size == 0.0:
            return True
        T = self.rows[k]
        E, f = (self.poly.A[T] / self.norms[T, None]).T, eta / size
        return np.max(np.abs(E @ _nnls(E, f) - f)) <= _CERTIFY_TOL

    def _learn(self, x):
        """Index of the vertex on the rows T active at the point x, which
        joins the cache; None unless T holds n independent rows whose
        vertex lies in the polytope."""
        A, b = self.poly.A, self.poly.b
        tol = _VERTEX_SLACK * (1.0 + np.max(np.abs(b)))
        T = np.flatnonzero((b - A @ x <= tol) & (self.norms > 0.0)).tolist()
        if T not in self.rows:
            v = solver.vertex_on_rows(A, b, T)
            if v is None or np.max(A @ v - b) > tol:
                return None
            self.V = np.vstack([self.V, v])
            self.rows.append(T)
        return self.rows.index(T)

    def find(self, eta):
        """(k, x) with x a maximizer of eta.x: x = V[k] for a vertex whose
        rows certify eta, or k = -1 and x the point of eta's own LP.

        The cached vertex with the largest eta.v (the first of ties) is
        tried first. Otherwise eta's LP is solved alone, and the vertex on
        its active rows joins the cache. Raises UnboundedSupport /
        EmptySetError when the LP says so.
        """
        if self.rows:
            k = int(np.argmax(self.V @ eta))
            if self._certifies(k, eta):
                return k, self.V[k]
        rep = solver.solve_lp_batch(eta, self.poly.A, self.poly.b)[0]
        if rep.status == solver.Status.UNBOUNDED:
            raise UnboundedSupport(f"support unbounded along {eta.tolist()}")
        if rep.status == solver.Status.INFEASIBLE:
            raise EmptySetError("support of an empty polytope")
        if rep.status != solver.Status.OPTIMAL:
            raise GeometryError(f"support LP did not converge: {rep.status}")
        k = self._learn(rep.x)
        return (k, self.V[k]) if k is not None and self._certifies(k, eta) else (-1, rep.x)

    def support(self, eta):
        """h(eta) = eta.x at the maximizer that ``find`` gives. Where that
        is an LP point, the LP stopped inside a face: the point then walks
        to a vertex (``_face_vertex``), and where that vertex's rows certify
        eta the value is exact. Failing that, the LP point's value stands."""
        k, x = self.find(eta)
        if k < 0 and eta.any():
            v = self._face_vertex(x, eta)
            k = None if v is None else self._learn(v)
            if k is not None and self._certifies(k, eta):
                x = self.V[k]
        return eta @ x

    def _face_vertex(self, x, eta):
        """A vertex reached from the point x without lowering eta.x, or
        None where the walk finds none.

        The rows within 1e-5 of the scale of x fix a face, as in
        ``solver._crossover``. x steps within the face, along eta projected
        onto the null space of its rows or, where eta is constant on the
        face, along a fixed direction in general position, to the first
        row it meets, which joins them, until they have rank n. The vertex
        is computed from the rows (``solver.vertex_on_rows``).
        """
        A, b = self.poly.A, self.poly.b
        n = self.poly.dim
        T = np.flatnonzero(b - A @ x <= 1e-5 * (1.0 + np.max(np.abs(b)))).tolist()
        for _ in range(n):
            _, sv, vt = np.linalg.svd(A[T] if T else np.zeros((1, n)))
            N = vt[np.count_nonzero(sv > 1e-10 * max(sv[0], 1e-300)):].T
            if not N.size:
                break
            d = N @ (N.T @ eta)
            if np.linalg.norm(d) <= 1e-12 * np.linalg.norm(eta):
                d = N @ (N.T @ np.sqrt(np.arange(n) + np.pi))
            ad = A @ d
            hit = ad > 1e-12 * self.norms * np.linalg.norm(d)
            if not hit.any():
                return None
            steps = (b - A @ x)[hit] / ad[hit]
            x = x + max(np.min(steps), 0.0) * d
            T.append(int(np.flatnonzero(hit)[np.argmin(steps)]))
        return solver.vertex_on_rows(A, b, T)


def supports(poly, etas):
    """Support function h_S(eta) = max <eta, s> over the set, along every
    row of ``etas`` (B, n).

    Exact closed form for a HyperRect B(l, u),
    sum_j max(eta_j * l_j, eta_j * u_j). A general Polytope answers the
    directions in order from a vertex cache that lives for this call
    (``Vertices.support``): each value is eta.v at a vertex v whose rows
    certify eta, found in the cache or from eta's own LP, whose active
    rows add a vertex; only where no vertex is certified does the LP's
    own value stand. A value depends only on eta and the rows that
    certify it, so it equals its batch of one wherever eta's optimal
    vertex is unique. Raises UnboundedSupport / EmptySetError when an LP
    says so.
    """
    etas = np.atleast_2d(np.asarray(etas, dtype=float))
    if isinstance(poly, HyperRect):
        return np.sum(np.maximum(etas * poly.lower, etas * poly.upper), axis=1)
    vertices = Vertices(poly)
    return np.array([vertices.support(eta) for eta in etas])


def pontryagin_diff(poly, sub, image=None):
    """Pontryagin difference ``poly ominus (image @ sub)``.

    Facet-wise: {z : a_i z <= b_i - h_sub(image^T a_i)}. ``sub`` may be a
    HyperRect (closed-form offsets, exact) or a Polytope (one ``supports``
    call: each offset from a certified vertex of a cache that lives for
    the call, or from its own LP); it must be bounded along the mapped
    facet normals, unbounded subtrahends are not supported. The result may
    be empty; callers detect that with ``are_empty`` and own the decision
    to abort.
    """
    A = poly.A
    dirs = A if image is None else A @ image
    return Polytope(A, poly.b - supports(sub, dirs))


def weighted_projections(points, targets, weight):
    """The weighted projection of points[k] onto targets[k] for every k:
    min (r-s)^T M (r-s) over s in the target, M = ``weight`` symmetric
    positive definite. The targets are Polytopes, as the setup's
    tightened sets are.

    A point inside its target within the global tolerance is its own
    projection, at distance 0; that test is one stacked product per set of
    targets with the same rows (``contains``, bit for bit). Fast path: a
    diagonal M and targets whose rows are a box (``Polytope.as_box``)
    clamp every point coordinatewise in one array pass (exact), so a
    point's bits do not depend on the batch. General path, one target at
    a time: convex QP, unique minimizer since the target is convex, solved
    to the RMPC QP's 1e-10 so that re-projected plan values agree with the
    QP value. Returns the squared distances (k,) and projections (k, n).
    """
    R = np.array(points, dtype=float, ndmin=2)
    M = np.asarray(weight, dtype=float)
    w = np.diagonal(M)
    diag = np.count_nonzero(M) == np.count_nonzero(w)  # every off-diagonal entry is 0
    if not np.all((w if diag else np.linalg.eigvalsh(0.5 * (M + M.T))) > 0):
        raise ValueError("weight must be positive definite")

    inside = _contains_each(targets, R)
    boxes = [t.as_box() for t in targets]
    clamp = np.array([diag and box is not None for box in boxes], dtype=bool) & ~inside
    d2, S = np.zeros(len(R)), R.copy()
    c = np.flatnonzero(clamp)
    if c.size:
        S[c] = np.clip(R[c], [boxes[k].lower for k in c], [boxes[k].upper for k in c])
        D = R[c] - S[c]
        d2[c] = np.sum(D * w * D, axis=1)
    for k in np.flatnonzero(~clamp & ~inside):
        rep = solver.solve_qp(solver.QpProblem(H=2.0 * M, g=-2.0 * (M @ R[k]),
                                               A_in=targets[k].A, b_in=targets[k].b))
        if rep.status == solver.Status.INFEASIBLE:
            raise EmptySetError("projection target is empty")
        if rep.status != solver.Status.OPTIMAL:
            raise GeometryError(f"projection QP failed: {rep.status}")
        S[k] = rep.x
        d2[k] = max(float((R[k] - S[k]) @ M @ (R[k] - S[k])), 0.0)
    return d2, S


def _contains_each(targets, R):
    """targets[k].contains(R[k]) for every k. Targets with the same rows
    take one stacked product, which gives each point the bits of its own
    (``solver._mv``)."""
    groups = {}
    for k, t in enumerate(targets):
        groups.setdefault((t.A.shape, t.A.tobytes()), []).append(k)
    inside = np.empty(len(R), dtype=bool)
    for ks in groups.values():
        at = ks if len(ks) < len(R) else slice(None)  # one set of rows: no gather
        res = solver._mv(targets[ks[0]].A, R[at]) - np.array([targets[k].b for k in ks])
        inside[at] = np.maximum.reduce(res, axis=1) <= FEAS_TOL
    return inside


# Relative slack at or below which a row is active at an LP's Chebyshev
# center; on the reference runs active rows sit below 1e-8, others above
# 1e-4.
_ACTIVE_SLACK = 1e-6

# Sets that one pass of ``shape_ratios`` certifies at most.
_WINDOW = 32


def _nnls(E, f):
    """min ||E u - f|| over u >= 0, by the active-set method of Lawson &
    Hanson (*Solving Least Squares Problems*, 1974, ch. 23)."""
    u, free = np.zeros(E.shape[1]), np.zeros(E.shape[1], dtype=bool)
    for _ in range(3 * E.shape[1]):
        r = f - E @ u
        w = np.where(free, -np.inf, E.T @ r)
        if np.max(w) <= 1e-13 or np.max(np.abs(r)) <= 1e-13:
            break
        free[np.argmax(w)] = True
        while True:
            s = np.zeros_like(u)
            s[free] = np.linalg.lstsq(E[:, free], f, rcond=None)[0]
            if np.min(s[free], initial=np.inf) > 0.0:
                break
            out = free & (s <= 0.0)
            u += np.min(u[out] / (u[out] - s[out])) * (s - u)
            free &= u > 1e-15
            u[~free] = 0.0
        u = s
    return u


def _least_distance(G, h):
    """min ||z|| s.t. G z >= h, or None when no z is feasible: the NNLS
    min ||E u - f|| over u >= 0, E = [G^T; h^T], f = e_last."""
    E = np.vstack([G.T, h])
    f = np.eye(len(E))[-1]
    r = E @ _nnls(E, f) - f
    return None if r[-1] > -1e-12 else r[:-1] / -r[-1]


class _DualVertices:
    """Dual vertices of the Chebyshev LPs max r s.t. a_i x + ||a_i|| r <= b_i.

    The LPs share the rows A, and so the dual feasible set
    {y >= 0 : A^T y = 0, ||a||.y = 1}, and r_c(b) = min b.y over its
    vertices (LP duality; Bertsimas & Tsitsiklis, *Introduction to Linear
    Optimization*, 1997, ch. 4-5). A vertex keeps its rows T, the
    pseudo-inverse of A_T and a basis of A_T's null space, all computed
    from T alone. The cache lives for one ``shape_ratios`` call.
    """

    def __init__(self, A, norms):
        self.A, self.norms = A, norms
        self.Y = np.zeros((0, A.shape[0]))
        self.rows, self.pinvs, self.nulls = [], [], []

    def learn(self, T):
        """Index of the vertex on the rows T, from [A_T ||a_T||]^T y_T = e;
        None unless y_T > 0 with a small residual."""
        T = T.tolist()
        if tuple(T) in self.rows:
            return self.rows.index(tuple(T))
        M = np.vstack([self.A[T].T, self.norms[T]])
        e = np.eye(len(M))[-1]
        y_T = np.linalg.lstsq(M, e, rcond=None)[0]
        if not T or np.min(y_T) <= 0.0 or np.max(np.abs(M @ y_T - e)) > 1e-9:
            return None
        self.Y = np.vstack([self.Y, np.zeros(self.A.shape[0])])
        self.Y[-1, T] = y_T
        self.rows.append(tuple(T))
        # The rows of a vertex are dependent (A_T^T y_T = 0): singular
        # values below 1e-10 of the largest are round-off.
        u, sv, vt = np.linalg.svd(self.A[T])
        rank = np.count_nonzero(sv > 1e-10 * sv[0])
        self.pinvs.append((vt[:rank].T / sv[:rank]) @ u[:, :rank].T)
        self.nulls.append(vt[rank:].T)
        return len(self.rows) - 1

    def least(self, B):
        """For every row b of B, the stored vertex with the least b.y, ties
        to the smaller row set; -1 while none is stored."""
        if not self.rows:
            return np.full(len(B), -1)
        vals = solver._mv(self.Y, B)
        tied = vals == vals.min(axis=1, keepdims=True)
        ks = np.argmax(tied, axis=1)
        for i in np.flatnonzero(tied.sum(axis=1) > 1):
            ks[i] = min(np.flatnonzero(tied[i]), key=self.rows.__getitem__)
        return ks

    def certify(self, B, ks):
        """Centers and radii that vertex ks[i] certifies for each row b of
        B, up to the first row it does not (or ks[i] < 0); that row and the
        rest get a NaN radius.

        Vertex k, with rows T, bounds r_c by U = b.y_k. Its center is the
        point nearest the origin of the face {A_T x + ||a_T|| U = b_T,
        A x + ||a|| U <= b}: the origin moved by least change onto the rows
        T or, where that point leaves another row, the least-distance
        point over A_T's null space. It depends only on b and T, and it is
        accepted when its inscribed radius, re-evaluated over every row, is
        at least (1 - FEAS_TOL) U. That radius is returned; it never
        overshoots.
        """
        A, norms = self.A, self.norms
        X = np.zeros((len(B), A.shape[1]))
        U = np.full(len(B), np.nan)
        for k in sorted(set(ks.tolist()) - {-1}):
            i, T = np.flatnonzero(ks == k), list(self.rows[k])
            U[i] = np.sum(B[i][:, T] * self.Y[k, T], axis=1)
            X[i] = solver._mv(self.pinvs[k], B[i][:, T] - norms[T] * U[i, None])
        radii = np.min((B - solver._mv(A, X)) / norms, axis=1)
        for i in np.flatnonzero(~(radii >= (1.0 - FEAS_TOL) * U)):
            N = self.nulls[ks[i]] if ks[i] >= 0 else np.zeros((0, 0))
            # Each row in units of U: (b - a.(x + U N z)) / (||a|| U) >= 1.
            z = _least_distance(-(A @ N) / norms[:, None],
                                1.0 - (B[i] - A @ X[i]) / (norms * U[i])) if N.size else None
            if z is not None:
                X[i] += U[i] * (N @ z)
                radii[i] = np.min((B[i] - A @ X[i]) / norms)
            if not radii[i] >= (1.0 - FEAS_TOL) * U[i]:
                radii[i:] = np.nan
                break
        return X, np.maximum(radii, 0.0)


def _chebyshev(A, norms, b, vertices):
    """Chebyshev center and radius of {x : A x <= b} from its own LP
    max r s.t. a_i x + ||a_i|| r <= b_i, r >= 0, solved alone: certified
    by the vertex on the LP's active rows, which joins ``vertices``, or
    else the LP's center with its radius re-evaluated over every row."""
    n = A.shape[1]
    rows = np.vstack([np.hstack([A, norms[:, None]]), -np.eye(n + 1)[-1:]])
    rep = solver.solve_lp_batch(np.eye(n + 1)[-1], rows, np.append(b, 0.0))[0]
    if rep.status == solver.Status.INFEASIBLE:
        raise EmptySetError("chebyshev center of an empty polytope")
    if rep.status != solver.Status.OPTIMAL:
        raise GeometryError(f"chebyshev LP failed: {rep.status}")
    center, r = rep.x[:n], rep.x[n]
    slack = b - A @ center - norms * r
    k = vertices.learn(np.flatnonzero(slack <= _ACTIVE_SLACK * (1.0 + np.max(np.abs(b)))))
    X, radii = vertices.certify(b[None], np.array([-1 if k is None else k]))
    if not np.isnan(radii[0]):
        return X[0], float(radii[0])
    return center, max(float(np.min((b - A @ center) / norms)), 0.0)


def shape_ratios(A, offsets):
    """Diagnostic r_c / r_o >= 1 of {x : A x <= b}, which must contain the
    origin, for every row b of ``offsets``.

    r_c is the Chebyshev radius, r_o the largest origin-centered inscribed
    ball radius min_i b_i / ||a_i||. A ratio is +inf when r_o == 0 (origin
    on the boundary). Values near 1 mean the set is spread evenly around
    the origin; large values flag directional sensitivity.

    One call serves a whole run (``cli.cmd_run`` passes every principal
    polytope of it). The Chebyshev LPs of all the sets share the rows A,
    and so one dual feasible set. The sets are taken in order, and every
    r_c comes from a certified vertex or from an interior-point solve:
    each set is first certified, where it can be, by the cached dual
    vertex with the least b.y (``_DualVertices.certify``); a set that no
    cached vertex certifies solves its own LP alone, and the LP's active
    rows add a vertex to the cache (``_chebyshev``). The cache lives for
    the call. A ratio depends on its b and on the rows of the vertex that
    certifies it, so it equals its batch of one wherever its LP has one
    optimal dual vertex. Returns a list of floats.
    """
    A = np.asarray(A, dtype=float)
    offsets = np.asarray(offsets, dtype=float).reshape(-1, A.shape[0])
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms == 0):
        raise GeometryError("zero facet normal")
    r_origin = np.min(offsets / norms, axis=1)
    if np.any(r_origin < -FEAS_TOL):
        raise GeometryError("origin lies outside the polytope")
    r_cheb = np.zeros(r_origin.size)
    vertices = _DualVertices(A, norms)
    todo = np.flatnonzero(r_origin > 0.0)
    while todo.size:
        # Certify the next sets in order up to the first miss, which solves
        # its LP and so may add the vertex that the later sets need. The
        # window bounds the memory of one pass.
        B = offsets[todo[:_WINDOW]]
        _, radii = vertices.certify(B, vertices.least(B))
        miss = np.isnan(radii)
        done = int(np.argmax(miss)) if miss.any() else len(B)
        r_cheb[todo[:done]] = radii[:done]
        if miss.any():
            r_cheb[todo[done]] = _chebyshev(A, norms, B[done], vertices)[1]
            done += 1
        todo = todo[done:]
    # r_c >= r_o holds mathematically; the clamp removes round-off.
    return [max(rc / ro, 1.0) if ro > 0.0 else np.inf
            for rc, ro in zip(r_cheb.tolist(), r_origin.tolist())]
