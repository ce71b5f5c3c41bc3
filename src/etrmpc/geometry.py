"""H-representation polytope algebra.

All sets are carried as ``{x : A x <= b}``. Hyper-rectangles get their own
type because axis-aligned boxes admit closed-form support functions and
projections, which keeps the constraint-tightening chain exact.

Everything here is immutable after construction and safe to share across
workers.
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


def supports(poly, etas):
    """Support function h_S(eta) = max <eta, s> over the set, along every
    row of ``etas`` (B, n).

    Exact closed form for a HyperRect B(l, u),
    sum_j max(eta_j * l_j, eta_j * u_j). A general Polytope takes one
    batched LP solve for all directions; each value is bit-identical to
    that direction's LP solved alone. Raises UnboundedSupport /
    EmptySetError when an LP says so.
    """
    etas = np.atleast_2d(np.asarray(etas, dtype=float))
    if isinstance(poly, HyperRect):
        return np.sum(np.maximum(etas * poly.lower, etas * poly.upper), axis=1)
    reps = solver.solve_lp_batch(etas, poly.A, poly.b)
    for eta, rep in zip(etas, reps):
        if rep.status == solver.Status.UNBOUNDED:
            raise UnboundedSupport(f"support unbounded along {eta.tolist()}")
        if rep.status == solver.Status.INFEASIBLE:
            raise EmptySetError("support of an empty polytope")
        if rep.status != solver.Status.OPTIMAL:
            raise GeometryError(f"support LP did not converge: {rep.status}")
    return np.array([rep.objective for rep in reps])


def pontryagin_diff(poly, sub, image=None):
    """Pontryagin difference ``poly ominus (image @ sub)``.

    Facet-wise: {z : a_i z <= b_i - h_sub(image^T a_i)}. ``sub`` may be a
    HyperRect (closed-form offsets, exact) or a Polytope (LP offsets, one
    batched solve); it must be bounded along the mapped facet normals,
    unbounded subtrahends are not supported. The result may be empty;
    callers detect that with ``are_empty`` and own the decision to abort.
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
    projection, at distance 0. Fast path: a diagonal M and targets whose
    rows are a box (``Polytope.as_box``) clamp every point coordinatewise
    in one array pass (exact), so a
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

    inside = np.array([t.contains(r) for t, r in zip(targets, R)], dtype=bool)
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


def _chebyshev_lps(A, norms, offsets):
    """Chebyshev centers and radii (largest inscribed 2-norm balls) of
    {x : A x <= b} for every row b of ``offsets``, from one batched solve
    of the LPs max r s.t. a_i x + ||a_i|| r <= b_i. Each radius is
    re-evaluated exactly at its center, so it never overshoots."""
    n = A.shape[1]
    c = np.zeros(n + 1)
    c[-1] = 1.0
    G = np.hstack([A, norms[:, None]])
    G = np.vstack([G, -np.eye(n + 1)[-1:]])  # r >= 0
    h = np.hstack([offsets, np.zeros((offsets.shape[0], 1))])
    centers, radii = [], []
    for b, rep in zip(offsets, solver.solve_lp_batch(c, G, h)):
        if rep.status == solver.Status.INFEASIBLE:
            raise EmptySetError("chebyshev center of an empty polytope")
        if rep.status != solver.Status.OPTIMAL:
            raise GeometryError(f"chebyshev LP failed: {rep.status}")
        center = rep.x[:n]
        radius = float(np.min((b - A @ center) / norms))
        centers.append(center)
        radii.append(max(radius, 0.0))
    return centers, radii


def shape_ratios(A, offsets):
    """Diagnostic r_c / r_o >= 1 of {x : A x <= b}, which must contain the
    origin, for every row b of ``offsets``.

    r_c is the Chebyshev radius, r_o the largest origin-centered inscribed
    ball radius min_i b_i / ||a_i||. A ratio is +inf when r_o == 0 (origin
    on the boundary). Values near 1 mean the set is spread evenly around
    the origin; large values flag directional sensitivity. The Chebyshev
    LPs of all sets with the origin in the interior run as one batched
    solve; each ratio is bit-identical to its set's alone. Returns a list
    of floats.
    """
    A = np.asarray(A, dtype=float)
    offsets = np.asarray(offsets, dtype=float).reshape(-1, A.shape[0])
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms == 0):
        raise GeometryError("zero facet normal")
    r_origin = np.min(offsets / norms, axis=1)
    if np.any(r_origin < -FEAS_TOL):
        raise GeometryError("origin lies outside the polytope")
    ratios = [np.inf] * r_origin.size
    inner = np.flatnonzero(r_origin > 0.0)
    if inner.size:
        _, r_cheb = _chebyshev_lps(A, norms, offsets[inner])
        for i, r in zip(inner, r_cheb):
            # r_c >= r_o holds mathematically; the clamp removes LP round-off.
            ratios[i] = max(r / float(r_origin[i]), 1.0)
    return ratios
