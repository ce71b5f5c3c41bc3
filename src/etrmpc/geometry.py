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

    @property
    def widths(self):
        return self.upper - self.lower

    def support(self, eta):
        """h_B(eta) = sum_j max(eta_j * l_j, eta_j * u_j), exact."""
        eta = np.asarray(eta, dtype=float)
        return float(np.sum(np.maximum(eta * self.lower, eta * self.upper)))

    def contains(self, x, tol=FEAS_TOL):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

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

    @classmethod
    def from_box(cls, lower, upper):
        return HyperRect(lower, upper).to_polytope()

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
        A, b = self.A, self.b
        nz = np.abs(A) > 0
        if np.any(nz.sum(axis=1) != 1):
            return None
        n = self.dim
        lo = np.full(n, -np.inf)
        hi = np.full(n, np.inf)
        for i in range(A.shape[0]):
            j = int(np.flatnonzero(nz[i])[0])
            coef = A[i, j]
            bound = b[i] / coef
            if coef > 0:
                hi[j] = min(hi[j], bound)
            else:
                lo[j] = max(lo[j], bound)
        if np.any(~np.isfinite(lo)) or np.any(~np.isfinite(hi)) or np.any(lo > hi):
            return None
        self._box = HyperRect(lo, hi)
        return self._box

    def is_empty(self):
        """Feasibility LP; empty sets are flagged, never raised."""
        rep = solver.feasibility(self.A, self.b)
        return rep is None

    def is_bounded(self):
        """Finite support along all 2n axis directions."""
        for j in range(self.dim):
            for sgn in (1.0, -1.0):
                eta = np.zeros(self.dim)
                eta[j] = sgn
                rep = solver.solve_lp(solver.LpProblem(c=eta, A=self.A, b=self.b))
                if rep.status != solver.Status.OPTIMAL:
                    return False
        return True


def support(poly, eta):
    """Support function h_S(eta) = max <eta, s> over the set.

    Exact closed form for HyperRect; an LP for a general Polytope.
    Raises UnboundedSupport / EmptySetError when the LP says so.
    """
    eta = np.asarray(eta, dtype=float)
    if isinstance(poly, HyperRect):
        return poly.support(eta)
    rep = solver.solve_lp(solver.LpProblem(c=eta, A=poly.A, b=poly.b))
    if rep.status == solver.Status.OPTIMAL:
        return float(rep.objective)
    if rep.status == solver.Status.UNBOUNDED:
        raise UnboundedSupport(f"support unbounded along {eta.tolist()}")
    if rep.status == solver.Status.INFEASIBLE:
        raise EmptySetError("support of an empty polytope")
    raise GeometryError(f"support LP did not converge: {rep.status}")


def pontryagin_diff(poly, sub, image=None):
    """Pontryagin difference ``poly ominus (image @ sub)``.

    Facet-wise: {z : a_i z <= b_i - h_sub(image^T a_i)}. ``sub`` may be a
    HyperRect (closed-form offsets, exact) or a Polytope (LP offsets); it
    must be bounded along the mapped facet normals, unbounded subtrahends
    are not supported. The result may be empty; callers detect that with
    ``is_empty`` and own the decision to abort.
    """
    A = poly.A
    dirs = A if image is None else A @ image
    offs = np.array([support(sub, dirs[i]) for i in range(A.shape[0])])
    return Polytope(A, poly.b - offs)


class WeightedDistanceResult:
    """d_M(r, S)^2 together with the (unique) projection point."""

    def __init__(self, distance_sq, projection):
        self.distance_sq = float(distance_sq)
        self.projection = _freeze(projection)

    def __repr__(self):
        return f"WeightedDistanceResult(d2={self.distance_sq:.6g})"


def weighted_projection(point, target, weight):
    """min (r-s)^T M (r-s) over s in target, M symmetric positive definite.

    Fast path: diagonal M and a box target clamp coordinatewise (exact).
    General path: convex QP, unique minimizer since the target is convex,
    solved to the RMPC QP's 1e-10 so that re-projected plan values agree
    with the QP value.
    """
    r = np.asarray(point, dtype=float)
    M = np.asarray(weight, dtype=float)
    if np.any(np.linalg.eigvalsh(0.5 * (M + M.T)) <= 0):
        raise ValueError("weight must be positive definite")

    # Membership within the global tolerance counts as inside: distance 0.
    if target.contains(r):
        return WeightedDistanceResult(0.0, r)

    box = target if isinstance(target, HyperRect) else target.as_box()
    diag = np.allclose(M, np.diag(np.diag(M)), atol=0.0)
    if box is not None and diag:
        s = np.clip(r, box.lower, box.upper)
        d2 = float((r - s) @ M @ (r - s))
        return WeightedDistanceResult(d2, s)

    if isinstance(target, HyperRect):
        target = target.to_polytope()
    H = 2.0 * M
    g = -2.0 * (M @ r)
    rep = solver.solve_qp(solver.QpProblem(H=H, g=g, A_in=target.A, b_in=target.b),
                          tol=1e-10)
    if rep.status == solver.Status.INFEASIBLE:
        raise EmptySetError("projection target is empty")
    if rep.status != solver.Status.OPTIMAL:
        raise GeometryError(f"projection QP failed: {rep.status}")
    s = rep.x
    d2 = float((r - s) @ M @ (r - s))
    return WeightedDistanceResult(max(d2, 0.0), s)


def chebyshev_center(poly):
    """Center and radius of the largest inscribed 2-norm ball.

    The LP maximizes r subject to a_i x + ||a_i|| r <= b_i; the returned
    radius is re-evaluated exactly at the computed center so it never
    overshoots the true optimum.
    """
    A, b = poly.A, poly.b
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms == 0):
        raise GeometryError("zero facet normal")
    n = poly.dim
    c = np.zeros(n + 1)
    c[-1] = 1.0
    G = np.hstack([A, norms[:, None]])
    G = np.vstack([G, -np.eye(n + 1)[-1:]])  # r >= 0
    h = np.concatenate([b, [0.0]])
    rep = solver.solve_lp(solver.LpProblem(c=c, A=G, b=h))
    if rep.status == solver.Status.INFEASIBLE:
        raise EmptySetError("chebyshev center of an empty polytope")
    if rep.status != solver.Status.OPTIMAL:
        raise GeometryError(f"chebyshev LP failed: {rep.status}")
    center = rep.x[:n]
    radius = float(np.min((b - A @ center) / norms))
    return center, max(radius, 0.0)


def shape_ratio(poly):
    """Diagnostic r_c / r_o >= 1 for a polytope containing the origin.

    r_c is the Chebyshev radius, r_o the largest origin-centered inscribed
    ball radius min_i b_i / ||a_i||. Returns +inf when r_o == 0 (origin on
    the boundary). Values near 1 mean the set is spread evenly around the
    origin; large values flag directional sensitivity.
    """
    norms = np.linalg.norm(poly.A, axis=1)
    if np.any(norms == 0):
        raise GeometryError("zero facet normal")
    r_origin = float(np.min(poly.b / norms))
    if r_origin < -FEAS_TOL:
        raise GeometryError("origin lies outside the polytope")
    if r_origin <= 0.0:
        return np.inf
    _, r_cheb = chebyshev_center(poly)
    # r_c >= r_o holds mathematically; the clamp removes LP round-off.
    return max(r_cheb / r_origin, 1.0)
