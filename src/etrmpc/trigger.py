"""Triggering-set construction around an optimal plan.

For each step j of the horizon the controller builds an error box E_j
such that, as long as the measured state stays within E_j of the nominal
prediction, a feasible shifted plan is guaranteed to exist and the value
function keeps decaying. The box is the maximum-volume hyper-rectangle
(containing the origin) inscribed in a principal polytope whose rows
encode, per facet of every tightened set, how much constraint slack the
candidate plan leaves for prediction errors.

Two exact convex-program routes (CP1/CP2, one per volume definition) and
two linear-program relaxations (LP1/LP2) are provided.
"""

import numpy as np

from . import geometry, solver
from .geometry import FEAS_TOL, HyperRect, Polytope

CP1, CP2, LP1, LP2 = "CP1", "CP2", "LP1", "LP2"
METHODS = (CP1, CP2, LP1, LP2)

# Matrix blocks with Frobenius norm at or below the nilpotency tolerance
# contribute vacuous rows (validated, then dropped).
ZERO_BLOCK_TOL = 1e-8


class TriggerError(Exception):
    pass


class InfeasibleCandidate(TriggerError):
    """A candidate point violates a raw constraint row: upstream bug."""


class CandidateData:
    """Shifted-and-extended plan for splice index j.

    u_tilde concatenates the last N-j optimal inputs with the nominal
    feedback applied to the terminal state; phi_tilde is the matching
    state sequence; the slack sequences splice the optimal projections
    with tail self-projections (the tail lies inside the targets, so it
    projects onto itself).
    """

    def __init__(self, j, u_tilde, phi_tilde, sx_tilde, su_tilde):
        self.j = j
        self.u_tilde = u_tilde
        self.phi_tilde = phi_tilde
        self.sx_tilde = sx_tilde
        self.su_tilde = su_tilde


def build_candidates(setup, sol, j):
    """Candidate sequences for splice index j in [1, N-1]."""
    N = setup.N
    if not 1 <= j <= N - 1:
        raise IndexError(f"splice index {j} outside [1, {N - 1}]")
    A, B, F = setup.plant.A, setup.plant.B, setup.F

    phi = np.zeros((N + 1, setup.nx))
    u = np.zeros((N, setup.nu))
    phi[:N - j + 1] = sol.x[j:]
    u[:N - j] = sol.u[j:]
    for i in range(N - j, N):
        u[i] = F @ phi[i]
        phi[i + 1] = A @ phi[i] + B @ u[i]

    sx = np.zeros((N, setup.nx))
    su = np.zeros((N, setup.nu))
    sx[:N - j] = sol.sx[j:]
    su[:N - j] = sol.su[j:]
    sx[N - j:] = phi[N - j:N]
    su[N - j:] = u[N - j:]
    return CandidateData(j, u, phi, sx, su)


class PrincipalPolytope:
    """Constraint rows over the box-vertex parameters [vbar; vund].

    G holds the error-space normals (one per surviving row), W the lifted
    vertex-support rows, d the offsets b - a.xi, and meta the provenance
    of each row as (family, stage, facet).
    """

    def __init__(self, k, W, d, G, meta):
        self.k = k
        self.W = W
        self.d = d
        self.G = G
        self.meta = meta

    @classmethod
    def from_error_rows(cls, G, d):
        """Build directly from error-space rows G e <= d (origin inside)."""
        G = np.asarray(G, dtype=float)
        d = np.asarray(d, dtype=float).reshape(-1)
        if np.min(d, initial=0.0) < -FEAS_TOL:
            raise InfeasibleCandidate("origin outside the supplied rows")
        W = np.hstack([np.maximum(G, 0.0), np.maximum(-G, 0.0)])
        meta = [("raw", 0, r) for r in range(G.shape[0])]
        return cls(G.shape[1], W, np.maximum(d, 0.0), G, meta)

    @property
    def n_rows(self):
        return self.d.size

    def error_polytope(self):
        """The principal polytope in error coordinates, {e : G e <= d}."""
        return Polytope(self.G, self.d)

    def box_slack(self, box):
        """min over rows of d - w.[vbar; vund]; >= 0 certifies the box."""
        v = np.concatenate([box.upper, -box.lower])
        return float(np.min(self.d - self.W @ v)) if self.d.size else np.inf


class PrincipalRows:
    """G, W and meta of the principal rows, which depend on the setup only.

    ``blocks`` lists each (family, stage) as (family, candidate attribute,
    stage, set, indices of its surviving facets); a plan only moves the
    offsets, and every block is checked, even one whose rows all vanish.
    """

    def __init__(self, setup):
        families = (
            ("state", "phi_tilde", setup.Xseq, False),
            ("input", "u_tilde", setup.Useq, True),
            ("slack_state", "sx_tilde", setup.TXseq, False),
            ("slack_input", "su_tilde", setup.TUseq, True),
        )
        self.blocks, Gs, self.meta = [], [], []
        for name, attr, sets, via_gain in families:
            for i in range(setup.N):
                S = sets[i]
                Mhat = setup.Ktilde[i] @ setup.Ltilde[i] if via_gain else setup.Ltilde[i]
                # Blocks with a vanishing map (nilpotent tail) only check.
                if np.linalg.norm(Mhat, "fro") <= ZERO_BLOCK_TOL:
                    keep = np.zeros(0, dtype=int)
                else:
                    Gblock = S.A @ Mhat
                    keep = np.flatnonzero(np.any(Gblock != 0.0, axis=1))
                    Gs.append(Gblock[keep])
                    self.meta.extend((name, i, int(r)) for r in keep)
                self.blocks.append((name, attr, i, S, keep))
        self.G = np.vstack(Gs) if Gs else np.zeros((0, setup.nx))
        self.W = np.hstack([np.maximum(self.G, 0.0), np.maximum(-self.G, 0.0)])
        self.G.flags.writeable = self.W.flags.writeable = False


def assemble_principal(setup, cand):
    """Vertex-support rows for all 4N set constraints of splice index cand.j.

    Takes the rows from ``setup.principal_rows`` and computes the offsets
    b - a.xi. Rows whose mapped direction vanishes (nilpotent tail blocks)
    reduce to plain feasibility checks on the candidate: they are checked
    against the feasibility tolerance and dropped. Raises
    InfeasibleCandidate when any check fails.
    """
    rows = setup.principal_rows
    ds = []
    for name, attr, i, S, keep in rows.blocks:
        offs = S.b - S.A @ getattr(cand, attr)[i]
        bad = np.min(offs)
        if bad < -FEAS_TOL:
            raise InfeasibleCandidate(
                f"candidate j={cand.j}: {name}[{i}] violates facet by {-bad:.3e}")
        ds.append(offs[keep])
    if not rows.meta:
        raise TriggerError(f"no active rows at j={cand.j}: error space unconstrained")
    d = np.concatenate(ds)
    d[d < 0.0] = 0.0
    return PrincipalPolytope(setup.nx, rows.W, d, rows.G, rows.meta)


class BoxResult:
    def __init__(self, box, degenerate):
        self.box = box
        self.degenerate = list(degenerate)


def construct_box_cp(pp, q):
    """Maximum-volume box by the exact convex-program route.

    q=1 maximizes the product of total widths, q=2 the product of both
    one-sided widths. Coordinates with feasible width below 1e-9 come back
    clamped to zero width (excluded from the log objective); they are
    reported as degenerate.
    """
    return _cp_box(solver.maximize_log_volume(pp.W, pp.d, _cp_mode(q)), pp.k, q)


def _cp_mode(q):
    return solver.MODE_SUM_LOG_WIDTH if q == 1 else solver.MODE_SUM_LOG_BOTH


def _cp_box(rep, k, q):
    """The box of one log-volume report, as ``construct_box_cp`` returns it."""
    if rep.status == solver.Status.UNBOUNDED:
        raise TriggerError("principal polytope leaves a box coordinate unbounded")
    # A solve stopped at the iteration cap still returns its polished,
    # strictly feasible point; build_schedule certifies the box.
    accepted_at_cap = rep.status == solver.Status.MAXITER and rep.x is not None
    if rep.status != solver.Status.OPTIMAL and not accepted_at_cap:
        raise TriggerError(f"volume maximization failed: {rep.status}")
    vbar, vund = rep.x[:k], rep.x[k:]
    zero = (vbar + vund == 0) if q == 1 else (vbar == 0) | (vund == 0)
    return BoxResult(HyperRect(-vund, vbar), np.flatnonzero(zero).tolist())


def construct_box_lp(pp, q):
    """Maximum-volume r-constrained box by the linear-program relaxation.

    Both use the per-direction widths of the lifted polytope (single-
    variable LPs, solved in closed form by row ratios). q=1: one scaling
    LP over the segment profile, each coordinate's two widths summed.
    q=2: a scalar scaling step over the widths themselves.
    """
    if q == 1:
        return _lp1_box(pp)
    if q == 2:
        return _lp2_box(pp)
    raise ValueError(f"q must be 1 or 2, got {q}")


def _lp1_box(pp):
    k = pp.k
    G, d = pp.G, pp.d
    # Longest axis segment through the origin along e_j: with every other
    # coordinate pinned at zero it runs from -w[k+j] to w[j], the one-sided
    # widths of the lifted polytope. Segments below the degenerate-width
    # threshold collapse to zero-width coordinates.
    w = solver.coordinate_widths(pp.W, d)
    if np.any(np.isinf(w)):
        raise TriggerError("principal polytope leaves a box coordinate unbounded")
    r = w[:k] + w[k:]
    r[r <= 1e-9] = 0.0

    degenerate = np.flatnonzero(r == 0.0).tolist()
    act = r > 0.0
    if not np.any(act):
        return BoxResult(HyperRect(np.zeros(k), np.zeros(k)), degenerate)
    # Scaling LP over (z, lambda) for the non-degenerate coordinates: max
    # lambda with the r-profile box [z, z + lambda r] in the rows and
    # z <= 0 <= z + lambda r (zero-width coordinates pin z_j = 0).
    ka = int(np.sum(act))
    eye = np.eye(ka + 1)
    A = np.vstack([np.hstack([G[:, act], (np.maximum(G, 0.0) @ r)[:, None]]),
                   eye[:ka],
                   np.hstack([-eye[:ka, :ka], -r[act][:, None]]),
                   np.hstack([eye[ka, :ka], -1.0])])
    rep = solver.solve_lp(solver.LpProblem(
        c=eye[ka], A=A, b=np.concatenate([d, np.zeros(2 * ka + 1)])))
    # A near-converged iterate will do: the box is fit into the rows below.
    near = (rep.status == solver.Status.MAXITER and rep.x is not None
            and rep.kkt_residual <= 1e-6)
    if rep.status != solver.Status.OPTIMAL and not near:
        raise TriggerError(f"scaling LP failed: {rep.status}")
    z = np.zeros(k)
    z[act] = np.minimum(rep.x[:ka], 0.0)
    lam = max(rep.x[-1], 0.0)
    # No box end in the rows reaches past the one-sided width w of its
    # axis. Holding the LP point to w keeps its rounding (z_j = -3e-17
    # where w = 0, say) off rows with zero offset, which _fit_into_rows
    # would otherwise answer by shrinking the whole box to the origin.
    z = np.where(-z > w[k:], -w[k:], z)
    upper = np.minimum(np.maximum(z + lam * r, 0.0), w[:k])
    return BoxResult(_fit_into_rows(pp, HyperRect(z, upper)), degenerate)


def _fit_into_rows(pp, box):
    """Scale a box about the origin until every principal row holds.

    No-op for certified boxes; a near-converged LP iterate may stick out
    by its KKT residual, and any uniformly shrunk copy is still a valid
    (more conservative) trigger set.
    """
    v = np.concatenate([box.upper, -box.lower])
    prof = pp.W @ v
    mask = prof > pp.d
    if not np.any(mask):
        return box
    theta = float(np.min(pp.d[mask] / prof[mask]))
    theta = max(0.0, min(theta, 1.0)) * (1.0 - 1e-12)
    return HyperRect(theta * box.lower, theta * box.upper)


def _lp2_box(pp):
    k = pp.k
    W, d = pp.W, pp.d
    # Width of the axis segment from the origin in the lifted polytope:
    # single-variable LPs max {omega : omega W e_j <= d}, solved by ratios.
    r = solver.coordinate_widths(W, d)
    if np.any(np.isinf(r)):
        raise TriggerError("principal polytope leaves a box coordinate unbounded")
    r[r <= 1e-9] = 0.0
    prof = W @ r
    pos = prof > 0
    lam = float(np.min(d[pos] / prof[pos])) if np.any(pos) else 0.0
    lam = max(lam, 0.0)
    r_up, r_dn = r[:k], r[k:]
    box = _fit_into_rows(pp, HyperRect(-lam * r_dn, lam * r_up))
    degenerate = np.flatnonzero((r_up == 0.0) | (r_dn == 0.0)).tolist()
    return BoxResult(box, degenerate)


def volumes(box):
    """(vol_1, vol_2): product of total widths and of one-sided widths."""
    up = box.upper
    dn = -box.lower
    return float(np.prod(up + dn)), float(np.prod(up * dn))


class TriggerSchedule:
    """Error boxes E_1..E_{N-1} around a plan (E_0 is all of R^nx)."""

    def __init__(self, method, boxes, vol1, vol2, degenerate_coords, principals):
        self.method = method
        self.boxes = boxes
        self.vol1 = vol1
        self.vol2 = vol2
        self.degenerate_coords = degenerate_coords
        self.principals = principals

    def box(self, j):
        """E_j for j in [1, N-1]."""
        return self.boxes[j - 1]

    def to_dict(self):
        """The boxes with their shape ratios r_c/r_o, a diagnostic of each
        principal polytope that no trigger decision reads. The principal
        polytopes of a schedule share the setup's rows G, so all their
        Chebyshev LPs run as one batched solve."""
        pps = self.principals
        ratios = geometry.shape_ratios(pps[0].G, [pp.d for pp in pps]) if pps else []
        return {
            "method": self.method,
            "boxes": [{"j": j + 1,
                       "lower": b.lower.tolist(),
                       "upper": b.upper.tolist(),
                       "vol1": self.vol1[j],
                       "vol2": self.vol2[j],
                       "degenerate_coords": self.degenerate_coords[j],
                       "shape_ratio": ratios[j]}
                      for j, b in enumerate(self.boxes)],
        }


def build_schedule(setup, sol, method):
    """Construct E_1..E_{N-1} for an optimal solution with one method.

    Assembles every principal polytope first. They share the setup's
    rows W, so for CP1/CP2 their log-volume problems go to one batched
    solve. Certifies every built box against the principal rows before
    accepting it; failures carry the splice index.
    """
    if method not in METHODS:
        raise ValueError(f"unknown construction method {method!r}")
    q = 1 if method in (CP1, LP1) else 2
    exact = method in (CP1, CP2)
    pps = []
    for j in range(1, setup.N):
        try:
            pps.append(assemble_principal(setup, build_candidates(setup, sol, j)))
        except InfeasibleCandidate:
            raise
        except TriggerError as exc:
            raise TriggerError(f"j={j}: {exc}") from exc
    if exact:
        reports = solver.maximize_log_volume_batch(pps[0].W, np.array([pp.d for pp in pps]),
                                                   _cp_mode(q))
    boxes, v1s, v2s, degs = [], [], [], []
    for j, pp in enumerate(pps, start=1):
        try:
            res = _cp_box(reports[j - 1], pp.k, q) if exact else construct_box_lp(pp, q)
            slack = pp.box_slack(res.box)
            if slack < -FEAS_TOL:
                raise TriggerError(f"built box violates principal rows by {-slack:.3e}")
        except TriggerError as exc:
            raise TriggerError(f"j={j}: {exc}") from exc
        boxes.append(res.box)
        v1, v2 = volumes(res.box)
        v1s.append(v1)
        v2s.append(v2)
        degs.append(res.degenerate)
    return TriggerSchedule(method, boxes, v1s, v2s, degs, pps)
