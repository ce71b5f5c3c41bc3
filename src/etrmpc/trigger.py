"""Triggering-set construction around an optimal plan.

For each step j of the horizon the controller builds an error box E_j
such that, as long as the measured state stays within E_j of the nominal
prediction, a feasible shifted plan is guaranteed to exist and the value
function keeps decaying. The box is the maximum-volume hyper-rectangle
(containing the origin) inscribed in a principal polytope whose rows
encode, per facet of every tightened set, how much constraint slack the
candidate plan leaves for prediction errors.

The candidate plan of splice index j is the optimal plan shifted by j
steps and extended by the nominal feedback F. Every tail starts at x_N,
so the N-1 candidates of a trigger are windows of one extended plan, and
their offsets come from one array pass over it.

Two exact convex-program routes (CP1/CP2, one per volume definition) and
two linear-program relaxations (LP1/LP2) are provided.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import solver
from .geometry import FEAS_TOL, HyperRect

CP1, CP2, LP1, LP2 = "CP1", "CP2", "LP1", "LP2"
METHODS = (CP1, CP2, LP1, LP2)

# Matrix blocks with Frobenius norm at or below the nilpotency tolerance
# contribute vacuous rows (validated, then dropped).
ZERO_BLOCK_TOL = 1e-8


class TriggerError(Exception):
    pass


class InfeasibleCandidate(TriggerError):
    """A candidate point violates a raw constraint row: upstream bug."""


def extended_plan(setup, sol):
    """The optimal plan followed by N-1 nominal feedback steps from x_N.

    Returns the states x_0..x_N, T_1..T_{N-1}, the inputs u_0..u_{N-1},
    F T_0..F T_{N-2}, the slack states sx_0..sx_{N-1}, T_0..T_{N-2} and the
    slack inputs su_0..su_{N-1}, F T_0..F T_{N-2}, where T_0 = x_N and
    T_{i+1} = A T_i + B F T_i (the tail lies inside the targets, so it is
    its own projection). Candidate j is the window at index j of each.
    """
    N = setup.N
    A, B, F = setup.plant.A, setup.plant.B, setup.F
    tail = np.zeros((N, setup.nx))
    tail_u = np.zeros((N - 1, setup.nu))
    tail[0] = sol.x[N]
    for i in range(N - 1):
        tail_u[i] = F @ tail[i]
        tail[i + 1] = A @ tail[i] + B @ tail_u[i]
    return (np.concatenate([sol.x, tail[1:]]), np.concatenate([sol.u, tail_u]),
            np.concatenate([sol.sx, tail[:-1]]), np.concatenate([sol.su, tail_u]))


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

    def box_slack(self, box):
        """min over rows of d - w.[vbar; vund]; >= 0 certifies the box."""
        v = np.concatenate([box.upper, -box.lower])
        return float(np.min(self.d - self.W @ v)) if self.d.size else np.inf


class PrincipalRows:
    """G, W and meta of the principal rows, which depend on the setup only.

    ``families`` holds, in the order of ``extended_plan``'s arrays, each
    family's name, the rows its N tightened sets share and their offsets
    as an (N, m) array. A candidate's offsets b - a.x are laid out by
    family, stage and facet; ``starts`` marks where each (family, stage)
    block begins and ``keep`` gathers the surviving facets. A plan only
    moves the offsets, and every block is checked, even one whose rows
    all vanish.
    """

    def __init__(self, setup):
        families = (
            ("state", setup.Xseq, False),
            ("input", setup.Useq, True),
            ("slack_state", setup.TXseq, False),
            ("slack_input", setup.TUseq, True),
        )
        self.families, Gs, self.meta, keep, starts = [], [], [], [], [0]
        for name, sets, via_gain in families:
            A = sets[0].A
            self.families.append((name, A, np.array([S.b for S in sets])))
            for i in range(setup.N):
                Mhat = setup.Ktilde[i] @ setup.Ltilde[i] if via_gain else setup.Ltilde[i]
                # Blocks with a vanishing map (nilpotent tail) only check.
                if np.linalg.norm(Mhat, "fro") > ZERO_BLOCK_TOL:
                    Gblock = A @ Mhat
                    kept = np.flatnonzero(np.any(Gblock != 0.0, axis=1))
                    Gs.append(Gblock[kept])
                    self.meta.extend((name, i, int(r)) for r in kept)
                    keep.extend(starts[-1] + kept)
                starts.append(starts[-1] + A.shape[0])
        self.starts = np.array(starts[:-1])
        self.keep = np.array(keep, dtype=int)
        self.G = np.vstack(Gs) if Gs else np.zeros((0, setup.nx))
        self.W = np.hstack([np.maximum(self.G, 0.0), np.maximum(-self.G, 0.0)])
        self.G.flags.writeable = self.W.flags.writeable = False


def assemble_principal(setup, sol):
    """Offsets d of the principal rows, one row per splice index 1..N-1.

    The N sets of a family share their rows a, so one stacked product
    (with the bits of the single one) gives a.x at every point of the
    extended plan, and stage i of candidate j reads point j+i through a
    sliding window. Blocks whose map vanishes (nilpotent tail) are only
    checked. Raises InfeasibleCandidate for the first block that fails
    its check, in the order j, family, stage.
    """
    rows = setup.principal_rows
    N = setup.N
    offs = []
    for (_, A, b), points in zip(rows.families, extended_plan(setup, sol)):
        # Candidates 1..N-1 read the points 1..2N-2.
        P = np.matmul(A, points[1:2 * N - 1, :, None])[:, :, 0]
        offs.append((b - sliding_window_view(P, N, axis=0).transpose(0, 2, 1)).reshape(N - 1, -1))
    offs = np.concatenate(offs, axis=1)
    worst = np.minimum.reduceat(offs, rows.starts, axis=1)
    failed = worst < -FEAS_TOL
    if not rows.meta and not failed[0].any():
        raise TriggerError("j=1: no active rows at j=1: error space unconstrained")
    if failed.any():
        j, block = np.unravel_index(np.argmax(failed), failed.shape)
        name, A, _ = rows.families[block // N]
        start = rows.starts[block]
        r = int(np.argmin(offs[j, start:start + A.shape[0]]))
        raise InfeasibleCandidate(f"candidate j={j + 1}: {name}[{block % N}] violates "
                                  f"facet {r} by {-worst[j, block]:.3e}")
    d = offs[:, rows.keep]
    d[d < 0.0] = 0.0
    return d


class BoxResult:
    def __init__(self, box, degenerate):
        self.box = box
        self.degenerate = list(degenerate)


def construct_boxes(pps, method):
    """One certified BoxResult per principal polytope; all share rows W.

    CP1/CP2, the exact convex-program route, maximize the product of total
    widths (CP1) or of both one-sided widths (CP2) in one batched solve;
    coordinates with feasible width below solver.DEGENERATE_WIDTH get
    zero width and are reported as degenerate. LP1/LP2 relax over the
    per-direction widths of the lifted polytope (row ratios): LP1 by one
    scaling LP per polytope over the summed widths, batched per active
    mask, LP2 by a scalar scaling step over the widths themselves, and
    zero a width at or below that threshold. Each box is certified
    against its rows; failures carry the 1-based ``j=`` of the first.
    """
    if method not in METHODS:
        raise ValueError(f"unknown construction method {method!r}")
    W = pps[0].W
    if any(pp.W is not W and not np.array_equal(pp.W, W) for pp in pps):
        raise ValueError("principal polytopes must share their rows W")
    if method in (CP1, CP2):
        q = 1 if method == CP1 else 2
        mode = solver.MODE_SUM_LOG_WIDTH if q == 1 else solver.MODE_SUM_LOG_BOTH
        reports = solver.maximize_log_volume_batch(W, [pp.d for pp in pps], mode)
        built = (_cp_box(rep, pp.k, q) for rep, pp in zip(reports, pps))
    elif method == LP1:
        built = (_lp1_box(pp, *lp) for pp, lp in zip(pps, _lp1_solve(pps)))
    else:
        built = map(_lp2_box, pps)
    results = []
    for j, pp in enumerate(pps, start=1):
        try:
            res = next(built)  # built lazily: box j is certified before box j+1
            slack = pp.box_slack(res.box)
            if slack < -FEAS_TOL:
                raise TriggerError(f"built box violates principal rows by {-slack:.3e}")
        except TriggerError as exc:
            raise TriggerError(f"j={j}: {exc}") from exc
        results.append(res)
    return results


def _cp_box(rep, k, q):
    """The box of one log-volume report (q=1 for CP1, 2 for CP2)."""
    if rep.status == solver.Status.UNBOUNDED:
        raise TriggerError("principal polytope leaves a box coordinate unbounded")
    # A solve left undecided (at the iteration cap) still returns an
    # interior iterate, its best; construct_boxes certifies the box.
    accepted_at_cap = rep.status == solver.Status.MAXITER and rep.x is not None
    if rep.status != solver.Status.OPTIMAL and not accepted_at_cap:
        raise TriggerError(f"volume maximization failed: {rep.status}")
    vbar, vund = rep.x[:k], rep.x[k:]
    zero = (vbar + vund == 0) if q == 1 else (vbar == 0) | (vund == 0)
    return BoxResult(HyperRect(-vund, vbar), np.flatnonzero(zero).tolist())


def _lp1_scaling_lp(pp):
    """Segment profile and scaling LP of one polytope's LP1 box.

    Returns (w, r, A, b): the one-sided widths w, the segment lengths r,
    and the rows and offsets of the LP max lambda over (z, lambda), or
    None for both where no LP is needed (a coordinate is unbounded, or
    every one is degenerate). The LP has one column per coordinate with
    r > 0, so LPs of one active mask share their shape.
    """
    k = pp.k
    G, d = pp.G, pp.d
    # Longest axis segment through the origin along e_j: with every other
    # coordinate pinned at zero it runs from -w[k+j] to w[j], the one-sided
    # widths of the lifted polytope. Segments below the degenerate-width
    # threshold collapse to zero-width coordinates.
    w = solver.coordinate_widths(pp.W, d)
    r = w[:k] + w[k:]
    r[r <= solver.DEGENERATE_WIDTH] = 0.0
    act = r > 0.0
    if np.any(np.isinf(w)) or not np.any(act):
        return w, r, None, None
    # Scaling LP over (z, lambda) for the non-degenerate coordinates: max
    # lambda with the r-profile box [z, z + lambda r] in the rows and
    # z <= 0 <= z + lambda r (zero-width coordinates pin z_j = 0).
    ka = int(np.sum(act))
    eye = np.eye(ka + 1)
    A = np.vstack([np.hstack([G[:, act], (np.maximum(G, 0.0) @ r)[:, None]]),
                   eye[:ka],
                   np.hstack([-eye[:ka, :ka], -r[act][:, None]]),
                   np.hstack([eye[ka, :ka], -1.0])])
    return w, r, A, np.concatenate([d, np.zeros(2 * ka + 1)])


def _lp1_solve(pps):
    """The LP1 scaling LPs of every principal polytope. LPs of one active
    mask have one shape, and run in one ``solve_lp_batch`` call with
    per-problem rows. Returns (w, r, report) per polytope, with no report
    where no LP was needed."""
    lps = [_lp1_scaling_lp(pp) for pp in pps]
    groups = {}
    for i, (_, r, A, _) in enumerate(lps):
        if A is not None:
            groups.setdefault((r > 0.0).tobytes(), []).append(i)
    reports = [None] * len(pps)
    for members in groups.values():
        A = np.array([lps[i][2] for i in members])
        b = np.array([lps[i][3] for i in members])
        batch = solver.solve_lp_batch(np.eye(A.shape[-1])[-1], A, b)  # max lambda
        for i, rep in zip(members, batch):
            reports[i] = rep
    return [(w, r, rep) for (w, r, _, _), rep in zip(lps, reports)]


def _lp1_box(pp, w, r, rep):
    """The LP1 box of one scaling LP's report."""
    k = pp.k
    if np.any(np.isinf(w)):
        raise TriggerError("principal polytope leaves a box coordinate unbounded")
    degenerate = np.flatnonzero(r == 0.0).tolist()
    if rep is None:  # every coordinate degenerate
        return BoxResult(HyperRect(np.zeros(k), np.zeros(k)), degenerate)
    act = r > 0.0
    ka = int(np.sum(act))
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
    r[r <= solver.DEGENERATE_WIDTH] = 0.0
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

    def to_dict(self, ratios):
        """The boxes with the shape ratios r_c/r_o of their principal
        polytopes, a diagnostic that no trigger decision reads. ``ratios``
        holds one per box, this schedule's slice of the run's one
        ``geometry.shape_ratios`` call (``cli.cmd_run``). The values are
        JSON-safe: a ratio that is not finite (+inf where the origin is on
        the boundary) is None; boxes and volumes are finite."""
        return {
            "method": self.method,
            "boxes": [{"j": j + 1,
                       "lower": b.lower.tolist(),
                       "upper": b.upper.tolist(),
                       "vol1": self.vol1[j],
                       "vol2": self.vol2[j],
                       "degenerate_coords": self.degenerate_coords[j],
                       "shape_ratio": r if math.isfinite(r) else None}
                      for j, (b, r) in enumerate(zip(self.boxes, ratios))],
        }


def build_schedule(setup, sol, method):
    """Construct E_1..E_{N-1} for an optimal solution with one method.

    Assembles the offsets of every principal polytope in one call; the
    polytopes share the setup's rows, so ``construct_boxes`` builds and
    certifies all their boxes at once.
    """
    rows = setup.principal_rows
    pps = [PrincipalPolytope(setup.nx, rows.W, d, rows.G, rows.meta)
           for d in assemble_principal(setup, sol)]
    results = construct_boxes(pps, method)
    boxes = [res.box for res in results]
    vol1, vol2 = zip(*map(volumes, boxes))
    return TriggerSchedule(method, boxes, list(vol1), list(vol2),
                           [res.degenerate for res in results], pps)
