"""Triggering-set construction around an optimal plan.

For each step j of the horizon the controller builds an error box E_j
such that, as long as the measured state stays within E_j of the nominal
prediction, a feasible shifted plan is guaranteed to exist and the value
function keeps decaying. The box is the maximum-volume hyper-rectangle
(containing the origin) inscribed in a principal polytope whose rows
encode, per facet of every tightened set, how much constraint slack the
candidate plan leaves for prediction errors. Facets with the same normal
share one row, which keeps the least of their slacks.

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
    """One box's rows over the box-vertex parameters [vbar; vund].

    G holds the error-space normals (one per distinct normal), W the
    lifted vertex-support rows, d the offsets b - a.xi, and meta the
    provenance of each row: the (family, stage, facet) tags of the facets
    it merges.
    """

    def __init__(self, W, d, G, meta):
        self.W = W
        self.d = d
        self.G = G
        self.meta = meta


def _lifted(G):
    """The lifted rows W = [max(G, 0), max(-G, 0)] of the error-space rows
    G: w.[vbar; vund] is the largest g.e over the box [-vund, vbar]."""
    return np.hstack([np.maximum(G, 0.0), np.maximum(-G, 0.0)])


class PrincipalRows:
    """G, W and meta of the principal rows, which depend on the setup only.

    ``families`` holds, in the order of ``extended_plan``'s arrays, each
    family's name, its plant set's rows and the setup's (N, m) offsets.
    A candidate's offsets b - a.x are laid out by family, stage and
    facet, and ``starts`` marks where each (family, stage) block begins.
    A plan only moves the offsets, and every block is checked, even one
    whose rows all vanish.

    Surviving facets with bit-equal normals share one row (``_merge``)
    whose offset is the least of theirs (``least``), so the polytope is
    the same set with fewer rows. ``columns`` holds the offset column of
    each surviving facet, grouped by row, so ``least`` gathers a
    candidate's offsets once.
    """

    def __init__(self, setup):
        plant = setup.plant
        self.families = [("state", plant.X.A, setup.X_offsets),
                         ("input", plant.U.A, setup.U_offsets),
                         ("slack_state", plant.Tx.A, setup.TX_offsets),
                         ("slack_input", plant.Tu.A, setup.TU_offsets)]
        Gs, tags, keep, starts = [], [], [], [0]
        for name, A, _ in self.families:
            via_gain = name.endswith("input")  # input and slack_input
            for i in range(setup.N):
                Mhat = setup.Ktilde[i] @ setup.Ltilde[i] if via_gain else setup.Ltilde[i]
                # Blocks with a vanishing map (nilpotent tail) only check.
                if np.linalg.norm(Mhat, "fro") > ZERO_BLOCK_TOL:
                    Gblock = A @ Mhat
                    kept = np.flatnonzero(np.any(Gblock != 0.0, axis=1))
                    Gs.append(Gblock[kept])
                    tags.extend((name, i, int(r)) for r in kept)
                    keep.extend(starts[-1] + kept)
                starts.append(starts[-1] + A.shape[0])
        self.starts = np.array(starts[:-1])
        self._merge(np.vstack(Gs) if Gs else np.zeros((0, setup.nx)), tags,
                    np.array(keep, dtype=int))

    def _merge(self, G, tags, columns):
        """One row per distinct (bit-equal) normal of the source rows G, in
        first-occurrence order; meta[r] holds the tags of row r's sources.
        Source s reads the offset column columns[s]; ``columns`` becomes
        those columns grouped by row, and ``first`` marks where each row's
        group starts."""
        groups = {}
        for s, g in enumerate(G):
            groups.setdefault(g.tobytes(), []).append(s)
        sources = list(groups.values())
        order = np.array([s for grp in sources for s in grp], dtype=int)
        self.columns = columns[order]
        self.first = np.cumsum([0] + [len(grp) for grp in sources], dtype=int)[:-1]
        self.meta = [tuple(tags[s] for s in grp) for grp in sources]
        self.G = G[order[self.first]]
        self.W = _lifted(self.G)
        self.G.flags.writeable = self.W.flags.writeable = False

    def least(self, D):
        """The offsets of the rows from the offsets D, one row of D per
        polytope laid out as ``columns`` reads them: each the least of its
        sources', in one gather."""
        return np.minimum.reduceat(D[:, self.columns], self.first, axis=1)


def assemble_principal(setup, sol):
    """Offsets d of the principal rows, one row per splice index 1..N-1.

    The N sets of a family have the rows a of its plant set, so one
    stacked product (with the bits of the single one) gives a.x at every
    point of the extended plan, and stage i of candidate j reads point
    j+i through a sliding window. Every (family, stage) block is checked
    on its own offsets, and blocks whose map vanishes (nilpotent tail)
    are only checked. Raises InfeasibleCandidate for the first block that
    fails its check, in the order j, family, stage. Each row then takes
    the least offset of the facets it merges (``PrincipalRows.least``).
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
    d = rows.least(offs)
    d[d < 0.0] = 0.0
    return d


def construct_boxes(G, D, method):
    """The certified boxes of hand-written error-space rows G e <= d, one
    row d of D per polytope, as one TriggerSchedule (``_schedule``); row
    r of G has the provenance ("raw", 0, r). Rows with bit-equal normals
    merge as the setup's do (``PrincipalRows._merge``), each with the
    least of their offsets, and the schedule's rows and offsets, and the
    row an error names, are the merged ones."""
    rows = PrincipalRows.__new__(PrincipalRows)
    G = np.array(G, dtype=float)
    D = np.array(D, dtype=float, ndmin=2)
    if D.shape[1] != len(G):
        raise ValueError(f"offsets of width {D.shape[1]} for {len(G)} rows")
    rows._merge(G, [("raw", 0, r) for r in range(len(G))], np.arange(len(G)))
    return _schedule(method, rows, rows.least(D))


def _schedule(method, rows, D):
    """The TriggerSchedule of the offsets D (one row per polytope) over the
    shared G, W and meta of the PrincipalRows ``rows``.

    CP1/CP2, the exact convex-program route, maximize the product of total
    widths (CP1) or of both one-sided widths (CP2) in one batched solve;
    coordinates with feasible width below solver.DEGENERATE_WIDTH get
    zero width and are reported as degenerate. LP1/LP2 relax over the
    per-direction widths of the lifted polytope (row ratios): LP1 by one
    scaling LP per polytope over the summed widths, solved exactly by the
    simplex in one batch per active mask, then centred on the plan by one
    least-distance solve per polytope; LP2 by a scalar scaling step over
    the widths themselves. Both zero a width at or below that threshold.

    The offsets are checked once, before any solve: the origin must lie
    in every row to FEAS_TOL (InfeasibleCandidate), and a smaller
    negative offset counts as zero. The boxes are built, then checked and
    measured by the schedule, in array passes over the stacked offsets,
    one stacked product per step (``solver._mv``), so each box has the
    bits of its batch of one. A failure names the 1-based ``j=`` of the
    first polytope that fails.
    """
    if method not in METHODS:
        raise ValueError(f"unknown construction method {method!r}")
    out = D < -FEAS_TOL
    if out.any():
        j, r = np.unravel_index(np.argmax(out), out.shape)
        raise InfeasibleCandidate(f"j={j + 1}: origin outside principal row {r} "
                                  f"by {-D[j, r]:.3e}")
    D = np.maximum(D, 0.0)
    W, k = rows.W, rows.G.shape[1]
    if method in (CP1, CP2):
        lower, upper, degenerate, error = _cp_boxes(W, D, k, method)
    elif method == LP1:
        lower, upper, degenerate, error = _lp1_boxes(rows.G, W, D, k)
    else:
        lower, upper, degenerate, error = _lp2_boxes(W, D, k)
    # Boxes 1..n were built; box n+1, if any, failed with ``error``.
    schedule = TriggerSchedule(method, rows, D[:len(lower)], lower, upper, degenerate)
    if error is not None:
        raise TriggerError(f"j={len(lower) + 1}: {error}")
    return schedule


_UNBOUNDED = "principal polytope leaves a box coordinate unbounded"


def _bounded(w):
    """The number of leading rows of the widths w that are all finite, and
    the failure of the row after them (None when every row is)."""
    inf = np.isinf(w).any(axis=1)
    return (int(np.argmax(inf)), _UNBOUNDED) if inf.any() else (len(w), None)


def _coords(mask):
    """The indices of the True entries of each row of mask."""
    return [[j for j, m in enumerate(row) if m] for row in mask.tolist()]


def _cp_boxes(W, D, k, method):
    """The boxes of one batched log-volume solve, up to the first failed
    report: (lower, upper, degenerate, failure), as ``_lp2_boxes``. The
    loop's iterate is interior up to rounding, so each box goes through
    ``_fit_into_rows``, as LP1's and LP2's do; the degenerate
    coordinates are the reports' zero widths."""
    q = 1 if method == CP1 else 2
    mode = solver.MODE_SUM_LOG_WIDTH if q == 1 else solver.MODE_SUM_LOG_BOTH
    reports = solver.maximize_log_volume_batch(W, D, mode)
    n, error = len(reports), None
    for i, rep in enumerate(reports):
        # A solve left undecided (at the iteration cap) still returns an
        # interior iterate, its best; the schedule certifies the box.
        if rep.status == solver.Status.UNBOUNDED:
            error = _UNBOUNDED
        elif rep.status != solver.Status.OPTIMAL and not (
                rep.status == solver.Status.MAXITER and rep.x is not None):
            error = f"volume maximization failed: {rep.status}"
        if error is not None:
            n = i
            break
    X = np.array([rep.x for rep in reports[:n]]).reshape(n, 2 * k)
    vbar, vund = X[:, :k], X[:, k:]
    zero = (vbar + vund == 0) if q == 1 else (vbar == 0) | (vund == 0)
    return (*_fit_into_rows(W, D[:n], -vund, vbar), _coords(zero), error)


def _lp1_boxes(G, W, D, k):
    """LP1's boxes up to the first polytope that fails (a coordinate
    unbounded, its scaling LP or its centring): (lower, upper, degenerate,
    failure).

    A box is [z, z + lam r] with z <= 0 <= z + lam r (zero where r = 0).
    Its scaling LP, max lam over v = (-z, lam) >= 0 with the rows
    [-G_a, G+ r] v <= d and [I, -r_a] v <= 0, is solved exactly, one
    ``solver.simplex_batch`` call per active mask. Of its optimal boxes
    the one taken has the centre c = z + lam r / 2 nearest the plan (the
    origin) in units of its sides: min |t|^2 with t = c / r, one
    ``solver.least_distance`` over G_a diag(r_a) t <= d - lam G+ r +
    (lam / 2) G_a r_a and |r_j t_j| <= lam r_j / 2, every row in the
    state's units so that its stop tolerance weighs them alike. The
    minimizer is unique: the box depends on no solver path or row order.
    """
    # Longest axis segment through the origin along e_j: with every other
    # coordinate pinned at zero it runs from -w[k+j] to w[j], the one-sided
    # widths of the lifted polytope. Segments below the degenerate-width
    # threshold collapse to zero-width coordinates.
    w = solver.coordinate_widths(W, D)
    n, error = _bounded(w)
    w, D = w[:n], D[:n]
    r = w[:, :k] + w[:, k:]
    r[r <= solver.DEGENERATE_WIDTH] = 0.0
    act = r > 0.0
    groups = {}
    for i, mask in enumerate(act):
        if mask.any():  # every coordinate degenerate: no LP, the zero box
            groups.setdefault(mask.tobytes(), []).append(i)
    m, Gr = G.shape[0], solver._mv(np.maximum(G, 0.0), r)  # G+ r per polytope
    reports = [None] * n
    for members in groups.values():
        a = act[members[0]]
        ka = int(np.sum(a))
        A = np.zeros((len(members), m + ka, ka + 1))
        A[:, :m, :ka] = -G[:, a]
        A[:, :m, ka] = Gr[members]
        A[:, m:, :ka] = np.eye(ka)
        A[:, m:, ka] = -r[members][:, a]
        B = np.hstack([D[members], np.zeros((len(members), ka))])
        for i, rep in zip(members, solver.simplex_batch(np.eye(ka + 1)[-1], A, B)):
            reports[i] = rep  # max lambda
    z, lam = np.zeros((n, k)), np.zeros(n)
    for i, rep in enumerate(reports):
        if rep is None:
            continue
        if rep.status != solver.Status.OPTIMAL:
            n, error = i, f"scaling LP failed: {rep.status}"
            break
        a = act[i]
        lam[i] = max(rep.x[-1], 0.0)
        ra, Ga, half = r[i, a], G[:, a], 0.5 * lam[i]
        side = np.diag(ra)
        t, steps = solver.least_distance(
            np.vstack([Ga * ra, side, -side]),
            np.concatenate([D[i] - lam[i] * Gr[i] + half * (Ga @ ra), half * ra, half * ra]))
        if t is None:
            n, error = i, ("centring solve reached its step cap" if steps == solver.MAX_ITER
                           else "centring solve found no point")
            break
        z[i, a] = np.minimum(ra * (t - half), 0.0)
    w, D, r, z, lam = w[:n], D[:n], r[:n], z[:n], lam[:n]
    # No box end in the rows reaches past the one-sided width w of its
    # axis. Holding the box to w keeps its rounding (z_j = -3e-17 where
    # w = 0, say) off rows with zero offset, which _fit_into_rows would
    # otherwise answer by shrinking the whole box to the origin.
    z = np.where(-z > w[:, k:], -w[:, k:], z)
    upper = np.minimum(np.maximum(z + lam[:, None] * r, 0.0), w[:, :k])
    return (*_fit_into_rows(W, D, z, upper), _coords(r == 0.0), error)


def _lp2_boxes(W, D, k):
    """LP2's boxes up to the first polytope with an unbounded coordinate:
    (lower, upper) of the boxes built, their degenerate coordinates, and
    the failure of the next polytope (None when all were built)."""
    # Width of the axis segment from the origin in the lifted polytope:
    # single-variable LPs max {omega : omega W e_j <= d}, solved by ratios.
    r = solver.coordinate_widths(W, D)
    n, error = _bounded(r)
    r, D = r[:n], D[:n]
    r[r <= solver.DEGENERATE_WIDTH] = 0.0
    prof = solver._mv(W, r)
    pos = prof > 0
    lam = np.min(np.divide(D, prof, out=np.full(D.shape, np.inf), where=pos), axis=1,
                 initial=np.inf)
    lam = np.where(pos.any(axis=1) & ~(0.0 > lam), lam, 0.0)
    r_up, r_dn = r[:, :k], r[:, k:]
    lower, upper = _fit_into_rows(W, D, -lam[:, None] * r_dn, lam[:, None] * r_up)
    return lower, upper, _coords((r_up == 0.0) | (r_dn == 0.0)), error


def _fit_into_rows(W, D, lower, upper):
    """Scale each box [lower_i, upper_i] about the origin until every
    principal row d_i holds.

    No-op for certified boxes; LP1's centred box may stick out by the
    centring solve's stop tolerance, and a CP box by a rounding step of
    the log-volume loop, and any uniformly shrunk copy is still a valid
    (more conservative) trigger set.
    """
    prof = solver._mv(W, np.hstack([upper, -lower]))
    out = prof > D
    if not out.any():
        return lower, upper
    theta = np.min(np.divide(D, prof, out=np.full(D.shape, np.inf), where=out), axis=1,
                   initial=np.inf)
    theta = np.where(1.0 < theta, 1.0, theta)
    theta = np.where(theta > 0.0, theta, 0.0)[:, None] * (1.0 - 1e-12)
    shrink = out.any(axis=1)[:, None]
    return np.where(shrink, theta * lower, lower), np.where(shrink, theta * upper, upper)


def _slacks(W, D, lower, upper):
    """min over rows of d - W [u; -l] for each box [l, u] and offsets d;
    >= 0 certifies the box."""
    return np.min(D - solver._mv(W, np.hstack([upper, -lower])), axis=1, initial=np.inf)


def _volumes(lower, upper):
    """Per box: the product of total widths and of one-sided widths."""
    up, dn = upper, -lower
    return np.prod(up + dn, axis=1), np.prod(up * dn, axis=1)


class TriggerSchedule:
    """Error boxes E_1..E_{N-1} around a plan (E_0 is all of R^nx), stacked.

    Row j-1 of ``lower`` and ``upper`` (N-1, nx) bounds E_j; ``vol1`` and
    ``vol2`` hold the product of its total and of its one-sided widths,
    ``degenerate_coords`` its zero-width coordinates, and row j-1 of
    ``offsets`` the offsets of its principal polytope over the shared
    ``rows`` (G, W and meta, one row per distinct normal). The boxes are
    checked here, once for all: finite, lower <= upper and inside their
    principal rows; the first that is not raises TriggerError with its
    ``j=``.
    """

    def __init__(self, method, rows, offsets, lower, upper, degenerate_coords):
        ok = np.all(np.isfinite(lower) & np.isfinite(upper) & (lower <= upper), axis=1)
        n = int(np.argmin(ok)) if not ok.all() else len(ok)
        slack = _slacks(rows.W, offsets[:n], lower[:n], upper[:n])
        bad = np.flatnonzero(slack < -FEAS_TOL)
        if bad.size:
            raise TriggerError(f"j={bad[0] + 1}: built box violates principal rows "
                               f"by {-slack[bad[0]]:.3e}")
        if n < len(ok):
            raise TriggerError(f"j={n + 1}: built box is not finite with lower <= upper")
        self.method = method
        self.rows = rows
        self.offsets = offsets
        self.lower = lower
        self.upper = upper
        self.vol1, self.vol2 = _volumes(lower, upper)
        self.degenerate_coords = degenerate_coords

    def box(self, j):
        """E_j for j in [1, N-1]."""
        return HyperRect(self.lower[j - 1], self.upper[j - 1])

    @property
    def boxes(self):
        """E_1..E_{N-1} as HyperRects, built on access."""
        return [HyperRect(l, u) for l, u in zip(self.lower, self.upper)]

    @property
    def principals(self):
        """The principal polytope of each box, built on access."""
        return [PrincipalPolytope(self.rows.W, d, self.rows.G, self.rows.meta)
                for d in self.offsets]

    def to_dict(self, ratios):
        """The boxes with the shape ratios r_c/r_o of their principal
        polytopes, a diagnostic that no trigger decision reads. ``ratios``
        holds one per box, this schedule's slice of the run's one
        ``geometry.shape_ratios`` call (``cli.cmd_run``); each comes from
        its polytope's own Chebyshev LP, solved exactly, so it does not
        depend on the run's other polytopes. The values are
        JSON-safe: a ratio that is not finite (+inf where the origin is on
        the boundary) is None; boxes and volumes are finite."""
        return {
            "method": self.method,
            "boxes": [{"j": j, "lower": l, "upper": u, "vol1": v1, "vol2": v2,
                       "degenerate_coords": deg,
                       "shape_ratio": r if math.isfinite(r) else None}
                      for j, (l, u, v1, v2, deg, r) in enumerate(zip(
                          self.lower.tolist(), self.upper.tolist(), self.vol1.tolist(),
                          self.vol2.tolist(), self.degenerate_coords, ratios), start=1)],
        }


def build_schedule(setup, sol, method):
    """Construct E_1..E_{N-1} for an optimal solution with one method.

    Assembles the offsets of every principal polytope in one call; the
    polytopes share the setup's rows, so ``_schedule`` builds and
    certifies all their boxes at once.
    """
    return _schedule(method, setup.principal_rows, assemble_principal(setup, sol))
