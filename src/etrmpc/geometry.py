"""H-representation polytope algebra.

All sets are carried as ``{x : A x <= b}``. A ``HyperRect`` is the
``Polytope`` with rows [I; -I] that also keeps its bounds. Axis-aligned
boxes admit closed-form support functions, draws and projections, which
keep the constraint-tightening chain exact; ``Polytope.as_box`` alone
decides whether a set is a box, from its rows, so a box written as rows
gets the same answers as a ``HyperRect``.

Weighted projections onto targets that share their rows go through one
``Projection``, which keeps what the rows and the weight fix: the
stacked box bounds, or the rows of a least-distance problem in the
weight's Cholesky coordinates. Support functions over a
polytope (``supports``) come from its vertex set
(``Polytope.vertices``), enumerated once from its rows. The origin
witnesses that a set with no negative offset is not empty; any other
set is empty exactly when ``solver.least_distance`` finds no point in it
(``are_empty``). A nonempty set is bounded exactly when its recession
cone is {0}, which one ``solver.simplex_batch`` call decides
(``Polytope.is_bounded``), so no verdict here runs an interior-point
loop. The shape diagnostic ``shape_ratios`` is one call over every
principal polytope of a run. The origin is in each of them, so each Chebyshev LP,
in split form, starts from a vertex, and ``solver.simplex_batch`` solves
it exactly, batched over windows of sets.

A polytope keeps its box, its vertices and its boundedness, each
computed once from its rows alone; everything else here is immutable
after construction and safe to share across workers.
"""

import itertools
import math

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
        self._vertices = None
        self._bounded = None

    def __repr__(self):
        return f"Polytope(m={self.A.shape[0]}, n={self.dim})"

    def membership_residual(self, x):
        """max_i (a_i x - b_i); <= 0 means inside. A point with a
        non-finite entry is outside: +inf."""
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            return np.inf
        return float(np.maximum.reduce(self.A @ x - self.b, axis=None))

    def contains(self, x, tol=FEAS_TOL):
        return self.membership_residual(x) <= tol

    def as_box(self):
        """Return an equivalent HyperRect when every facet is axis-aligned.

        Detection is structural: each row must touch exactly one coordinate.
        Returns None when the H-rep is not a (bounded, nonempty) box. Every
        operation whose answer depends on the set's shape asks this, and
        nothing else, so a box gets its closed forms however it is written.
        """
        if self._box_checked:
            return self._box
        self._box_checked = True
        bounds = _box_bounds(self.A, self.b[None])
        if bounds is not None and bounds[2][0]:
            self._box = HyperRect(bounds[0][0], bounds[1][0])
        return self._box

    def is_bounded(self):
        """Whether the set is nonempty and bounded, computed once and kept,
        as ``as_box`` is: a box, or a set that ``are_empty`` finds nonempty
        and whose recession cone holds no ray (``_recedes``)."""
        if self._bounded is None:
            self._bounded = self.as_box() is not None or (
                not are_empty(self.A, self.b)[0] and not _recedes(self.A))
        return self._bounded

    def vertices(self):
        """The vertices (k, n) of a nonempty, bounded polytope, computed once
        and kept, as ``as_box`` is.

        ``is_bounded`` (kept) decides that the set is both; where it is
        not, ``are_empty`` tells which fails. Vertex enumeration over the
        rows (Avis & Fukuda, *Discrete Comput. Geom.* 8, 1992): each
        subset of n rows of full rank meets in a point, kept where it lies
        in the polytope. The points are merged by their active rows T
        (slack at most ``_VERTEX_SLACK`` of the scale), and each vertex is
        computed from T alone (``_vertex_on_rows``, in index order),
        so its bits depend only on the rows. The vertices come in the
        order of their tuples T. Raises EmptySetError, UnboundedSupport,
        or GeometryError above ``_MAX_SUBSETS`` subsets or where a solve
        reaches its step cap.
        """
        if self._vertices is not None:
            return self._vertices
        A, b, (m, n) = self.A, self.b, self.A.shape
        if not self.is_bounded():
            if are_empty(A, b)[0]:
                raise EmptySetError("vertices of an empty polytope")
            raise UnboundedSupport("vertices of an unbounded polyhedron")
        count = math.comb(m, n)
        if count > _MAX_SUBSETS:
            raise GeometryError(f"vertex enumeration of {m} rows in {n} dimensions "
                                f"needs {count} subsets, above {_MAX_SUBSETS}")
        tol = _VERTEX_SLACK * (1.0 + np.max(np.abs(b)))
        live = np.linalg.norm(A, axis=1) > 0.0
        subsets, active = itertools.combinations(range(m), n), set()
        while chunk := list(itertools.islice(subsets, _CHUNK)):
            S = np.array(chunk)
            S = S[np.linalg.matrix_rank(A[S], tol=1e-10) == n]
            X = np.linalg.solve(A[S], b[S][:, :, None])[:, :, 0]
            slack = b - X @ A.T
            for rows in (slack[np.min(slack, axis=1) >= -tol] <= tol) & live:
                active.add(tuple(np.flatnonzero(rows).tolist()))
        V = [v for v in (_vertex_on_rows(A, b, T) for T in sorted(active))
             if v is not None and np.max(A @ v - b) <= tol]
        if not V:
            raise GeometryError("no vertex found in a nonempty, bounded polytope")
        self._vertices = _freeze(V)
        return self._vertices


class HyperRect(Polytope):
    """Axis-aligned box B(l, u) = {x : l <= x <= u}: the Polytope with
    rows [I; -I] and offsets [u; -l], which keeps its bounds and is its
    own ``as_box``.

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
        eye = np.eye(l.size)
        super().__init__(np.vstack([eye, -eye]), np.concatenate([u, -l]))
        self.lower = l
        self.upper = u

    def __repr__(self):
        return f"HyperRect(l={self.lower.tolist()}, u={self.upper.tolist()})"

    def as_box(self):
        return self

    def sample(self, rng, size=None):
        return rng.uniform(self.lower, self.upper, size=(size, self.dim) if size else self.dim)


def _box_bounds(A, B):
    """The box bounds (lower, upper), each (K, n), of {x : A x <= b} for
    every row b of B (K, m), and whether each is a bounded, nonempty box;
    None unless every row of A touches exactly one coordinate."""
    nz = np.abs(A) > 0
    if np.any(nz.sum(axis=1) != 1):
        return None
    # Rows in reverse: of equal bounds np.minimum.at keeps the later one,
    # so the first row's bound wins, signed zero included, as with min().
    col = np.argmax(nz[::-1], axis=1)
    coef = A[::-1][np.arange(len(A)), col]
    bound, up = B[:, ::-1] / coef, coef > 0
    lower = np.full((len(B), A.shape[1]), -np.inf)
    upper = np.full((len(B), A.shape[1]), np.inf)
    np.minimum.at(upper, (slice(None), col[up]), bound[:, up])
    np.maximum.at(lower, (slice(None), col[~up]), bound[:, ~up])
    return lower, upper, np.all(np.isfinite(lower) & np.isfinite(upper) & (lower <= upper),
                                axis=1)


# Relative slack at or below which a row is active at a vertex.
_VERTEX_SLACK = 1e-9

# Subsets of n rows that ``Polytope.vertices`` goes through at most, and in
# one stacked pass.
_MAX_SUBSETS = 100_000
_CHUNK = 4096


def _vertex_on_rows(M, rhs, order):
    """The point x with M_S x = rhs_S, where S takes each row of ``order``,
    in that order, that raises its rank, until S has n = M.shape[1] rows.
    None when S stays short of n rows or is singular. The point depends
    only on S, never on how ``order`` was found."""
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


def are_empty(A, offsets):
    """Whether {x : A x <= b} is empty, for every row b of ``offsets``
    (flagged, not raised). A row with no b_i < 0 holds the origin; each
    other one is empty exactly when ``solver.least_distance`` proves that
    its rows have no point (``_nearest``, which raises GeometryError at
    its step cap)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(offsets, dtype=float).reshape(-1, A.shape[0])
    empty = [False] * len(B)
    for k in np.flatnonzero(np.any(B < 0.0, axis=1)).tolist():
        empty[k] = _nearest(A, B[k]) is None
    return empty


def _nearest(A, b):
    """The point of {y : A y <= b} nearest the origin, or None when there
    is none (``solver.least_distance``). Raises GeometryError where the
    solve reaches its step cap, so no verdict is guessed."""
    y, steps = solver.least_distance(A, b)
    if y is None and steps == solver.MAX_ITER:
        raise GeometryError(f"least-distance solve reached its step cap of {steps}")
    return y


def _recedes(A):
    """Whether the cone {d : A d <= 0} holds a ray d != 0: exactly when
    max d_j or max -d_j over it is unbounded for some j. One
    ``solver.simplex_batch`` call solves the 2n LPs in split form
    d = d+ - d-: the rows [A, -A], offsets 0 and the objectives
    ±(e_j, -e_j). Raises GeometryError where a solve reaches its step
    cap."""
    eye = np.eye(A.shape[1])
    C = np.vstack([eye, -eye])
    reports = solver.simplex_batch(np.hstack([C, -C]), np.hstack([A, -A]),
                                   np.zeros((len(C), len(A))))
    if any(rep.status == solver.Status.MAXITER for rep in reports):
        raise GeometryError(f"recession-cone LP reached its step cap of {solver.MAX_ITER}")
    return any(rep.status == solver.Status.UNBOUNDED for rep in reports)


def supports(poly, etas):
    """Support function h_S(eta) = max <eta, s> over the set, along every
    row of ``etas`` (B, n).

    Exact closed form for a box B(l, u) (``Polytope.as_box``),
    sum_j max(eta_j * l_j, eta_j * u_j). Any other polytope gives eta.v at the
    first vertex v of ``Polytope.vertices`` that maximizes V eta, from
    stacked products (``solver._mv``, ``solver._dot``), so each value
    depends only on eta and the rows, and equals its batch of one.
    Raises what ``vertices`` raises: EmptySetError on an empty polytope
    and UnboundedSupport on an unbounded one, whatever the directions.
    """
    etas = np.atleast_2d(np.asarray(etas, dtype=float))
    box = poly.as_box()
    if box is not None:
        return np.sum(np.maximum(etas * box.lower, etas * box.upper), axis=1)
    V = poly.vertices()
    return solver._dot(etas, V[np.argmax(solver._mv(V, etas), axis=1)])


def pontryagin_diff(poly, sub, image=None):
    """Pontryagin difference ``poly ominus (image @ sub)``.

    Facet-wise: {z : a_i z <= b_i - h_sub(image^T a_i)}, by one
    ``supports`` call: closed-form offsets where ``sub`` is a box, else
    each offset from a vertex of the bounded polytope ``sub``. The result
    may be empty; callers detect that with ``are_empty`` and own the
    decision to abort.
    """
    A = poly.A
    dirs = A if image is None else A @ image
    return Polytope(A, poly.b - supports(sub, dirs))


class Projection:
    """Weighted projections onto the targets {x : A x <= b_k}, one per row
    b_k of ``offsets`` (K, m), which share their rows A: for each k,
    min (r-s)^T M (r-s) over s in target k, M = ``weight`` symmetric
    positive definite, a unique minimizer since the target is convex.

    What the rows and the weight fix is worked out here, once: the
    weight's check and, where M is diagonal and every row touches one
    coordinate, the K boxes' bounds, stacked (``_box_bounds``, as for
    ``Polytope.as_box``). Otherwise, and for a target whose bounds make
    no box, a projection is the point nearest the origin in the weight's
    Cholesky coordinates t = L^T (s - r), M = L L^T: one
    ``solver.least_distance`` over the rows A L^-T, kept here, and the
    offsets b_k - A r. ``RmpcQp`` keeps one per target family.
    """

    def __init__(self, A, offsets, weight):
        A = np.asarray(A, dtype=float)
        B = np.asarray(offsets, dtype=float).reshape(-1, A.shape[0])
        M = np.asarray(weight, dtype=float)
        w = np.diagonal(M)
        diag = np.count_nonzero(M) == np.count_nonzero(w)  # every off-diagonal entry is 0
        if not np.all((w if diag else np.linalg.eigvalsh(0.5 * (M + M.T))) > 0):
            raise ValueError("weight must be positive definite")
        self.A, self.B, self.w = A, B, w
        self.clamp = np.zeros(len(B), dtype=bool)  # targets projected by a clamp
        self.lower, self.upper = -np.inf, np.inf  # the others' bounds, which clamp nothing
        bounds = _box_bounds(A, B) if diag else None
        if bounds is not None:
            self.clamp = bounds[2]
            self.lower = np.where(self.clamp[:, None], bounds[0], -np.inf)
            self.upper = np.where(self.clamp[:, None], bounds[1], np.inf)
        self._solved = np.flatnonzero(~self.clamp).tolist()
        if self._solved:
            self._inv_lt = np.linalg.inv(np.linalg.cholesky(0.5 * (M + M.T))).T
            self._rows = A @ self._inv_lt

    def contains(self, R):
        """Whether R[k] lies in target k within FEAS_TOL, for every k: one
        stacked product, which gives each point the bits of
        ``Polytope.contains`` (``solver._mv``)."""
        return np.maximum.reduce(solver._mv(self.A, R) - self.B, axis=1) <= FEAS_TOL

    def __call__(self, points):
        """The squared distances (K,) and projections (K, n) of points[k]
        onto target k.

        A point inside its target within FEAS_TOL is its own projection,
        at distance 0 (``contains``). Box targets clamp their other points
        coordinatewise, all in one array pass (exact), so a point's bits
        do not depend on the batch; where every target is a box, that pass
        is all there is. A point outside any other target takes one
        least-distance solve, to the QP stop test's 1e-10, so that
        re-projected plan values agree with the QP value. Raises
        EmptySetError where such a target has no point, and GeometryError
        where the solve reaches its step cap.
        """
        R = np.array(points, dtype=float, ndmin=2)
        inside = self.contains(R)
        S = np.where(inside[:, None], R, R.clip(self.lower, self.upper))
        D = R - S
        d2 = np.add.reduce(D * self.w * D, axis=1)
        for k in self._solved:
            if inside[k]:
                continue
            t = _nearest(self._rows, self.B[k] - self.A @ R[k])
            if t is None:
                raise EmptySetError("projection target is empty")
            S[k] = R[k] + self._inv_lt @ t
            d2[k] = t @ t
        return d2, S


# Sets whose Chebyshev LPs one ``solver.simplex_batch`` call takes at
# most. A window shares each pivot's NumPy calls among its sets, and the
# ratios have the same bits at any window; on the benchmark workloads 128
# was faster than 32 and than one window for all of a run's sets.
_WINDOW = 128


def shape_ratios(A, offsets):
    """Diagnostic r_c / r_o >= 1 of {x : A x <= b}, which must contain the
    origin, for every row b of ``offsets``.

    r_c is the Chebyshev radius, r_o the largest origin-centered inscribed
    ball radius min_i b_i / ||a_i||. A ratio is +inf when r_o == 0 (origin
    on the boundary). Values near 1 mean the set is spread evenly around
    the origin; large values flag directional sensitivity.

    One call serves a whole run (``cli.cmd_run`` passes every principal
    polytope of it). r_c is the optimum of the set's Chebyshev LP
    max r s.t. a_i x + ||a_i|| r <= b_i, posed in split form: x = x+ - x-,
    so that v = (x+, x-, r) >= 0 over the rows [A, -A, ||a||], and v = 0,
    the origin with r = 0, is a vertex. ``solver.simplex_batch`` solves
    the LPs of up to ``_WINDOW`` sets per call, each exactly, from that
    vertex; r_c is the last entry of the optimal vertex. Each ratio
    depends only on its own b and the rows A, so it equals its batch of
    one. Raises GeometryError for a zero row, a set that does not hold
    the origin, or an LP that ends other than OPTIMAL. Returns a list of
    floats.
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
    rows = np.hstack([A, -A, norms[:, None]])
    c = np.eye(rows.shape[1])[-1]
    todo = np.flatnonzero(r_origin > 0.0)
    for start in range(0, todo.size, _WINDOW):
        sets = todo[start:start + _WINDOW]
        reports = solver.simplex_batch(c, rows, offsets[sets])
        for rep in reports:
            if rep.status != solver.Status.OPTIMAL:
                raise GeometryError(f"chebyshev LP failed: {rep.status}")
        r_cheb[sets] = [rep.x[-1] for rep in reports]
    # r_c >= r_o holds mathematically; the clamp removes round-off.
    return [max(rc / ro, 1.0) if ro > 0.0 else np.inf
            for rc, ro in zip(r_cheb.tolist(), r_origin.tolist())]
