"""Self-contained LP / convex-QP / log-concave maximization routines.

Two Mehrotra-style primal-dual interior-point loops. ``_ipm`` solves one
LP (H = 0) or convex QP over ``A_eq x = b_eq, A_in x <= b_in``, with at
least one inequality row. ``solve_qp`` is its one entry: the RMPC QP and
the min-erosion LP, an LP being a ``QpProblem`` with H = 0. A
``QpProblem`` eliminates variables from each Newton step by a Schur
complement, so only the rest is factorized: those that only one-entry
inequality rows touch, with a diagonal Hessian block and no equality row
(the RMPC QP's slacks), or else those that no equality row and no entry
of H touch, in the blocks that the inequality rows join them into (the
min-erosion LP's bound columns); the others take the plain Newton step.
``maximize_log_volume_batch`` poses the hyper-rectangle volume
objectives as ``-sum log(S v)`` over ``[W; -I] v <= [d; 0]``, and
``_log_volume_ipm`` solves them, one loop per set of live variables,
from a strictly interior start, with a step fraction that grows as the
gap closes and a Newton matrix formed as one product per problem. Two
solvers run outside these loops, each exact up to rounding.
``least_distance`` finds the point of a polyhedron nearest the origin
by Goldfarb and Idnani's dual active-set method (the RMPC QP's
least-norm plans of value 0, LP1's centred boxes and every emptiness
verdict). ``simplex_batch`` maximizes c.v over
{A v <= b, v >= 0} with b >= 0 by the primal simplex from the vertex
v = 0, A shared or one per problem (LP1's scaling LPs, the shape
diagnostic's Chebyshev LPs, every verdict that a recession cone holds
a ray). ``_ipm`` itself decides only OPTIMAL: an LP or QP that it
leaves undecided is INFEASIBLE, UNBOUNDED or MAXITER by these two,
never by a threshold, so an unbounded input runs until its iterate
diverges or the loop reaches its cap.
Batching belongs to ``_log_volume_ipm`` and ``simplex_batch`` alone:
each solves a batch of problems in one pass, and a problem's result
does not depend on the batch it is solved in. No external solver
dependencies; every run with the same inputs is bit-identical (fixed
step rules, no restarts).

Project-wide tolerances, one stop rule per objective: an LP or QP stops
when the scaled primal and dual residuals and the mean complementarity
z.s/m, relative to 1 + max|g| + max|H|, are all at most 1e-10; a
log-volume problem when its scaled residuals are at most 1e-8 and the
total gap z.s at most 1e-10; ``least_distance`` when no row exceeds its
offset by more than 1e-10 (1 + max|b|); ``simplex_batch`` when no dual
is negative beyond its round-off bound. At most 200 iterations
(active-set steps, pivots) per solve.
"""

import enum
from functools import partial
from itertools import repeat

import numpy as np

FEAS_TOL = 1e-8
GAP_TOL = 1e-10
MAX_ITER = 200

# QPs are solved tighter than FEAS_TOL, so that the RMPC plan's
# re-propagated states keep their tightened-set memberships within
# FEAS_TOL and re-projected stage costs match the QP value; and an LP's
# objective gap, up to its row count times this tolerance, stays small
# over the hundreds of rows of the min-erosion LP.
QP_TOL = 1e-10

# Feasible width at or below which a box coordinate is degenerate and
# gets zero width, on the CP and the LP routes alike.
DEGENERATE_WIDTH = 1e-9


class Status(enum.Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    MAXITER = "MaxIter"


class QpProblem:
    """minimize 0.5 x.H x + g.x  s.t.  A_eq x = b_eq, A_in x <= b_in, with
    the g and b_in of each solve (``solve_qp``).

    H is symmetrized, and must then be positive semidefinite (eigenvalue
    floor -1e-10; an all-zero H, an LP, takes no eigenvalue solve). A_in
    must have rows; A_eq and b_eq are given together or not at all. The
    split of its Newton step (``_Newton``), singleton or block, is made
    here once, with the rows it eliminates gathered.
    """

    def __init__(self, H, A_in, A_eq=None, b_eq=None):
        H = np.asarray(H, dtype=float)
        # Halved in place: a second temporary the size of the min-erosion
        # LP's H measurably slowed the setup.
        self.H = H + H.T
        self.H *= 0.5
        if self.H.any() and np.min(np.linalg.eigvalsh(self.H)) < -1e-10:
            raise ValueError("H must be positive semidefinite")
        n = len(self.H)
        if (A_eq is None) != (b_eq is None):
            raise ValueError("equality matrix and rhs must be given together")
        if A_eq is None:
            A_eq, b_eq = _empty(n)
        self.A_in = np.ascontiguousarray(A_in, dtype=float)
        self.A_eq = np.ascontiguousarray(A_eq, dtype=float)
        self.b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
        # The rows' shape and finiteness; each solve checks its own b_in.
        for mat, rhs, name in ((self.A_in, np.zeros(self.A_in.shape[:1]), "inequality"),
                               (self.A_eq, self.b_eq, "equality")):
            if mat.ndim != 2 or mat.shape[1] != n or mat.shape[0] != len(rhs):
                raise ValueError(f"{name} block has inconsistent dimensions")
            if not (np.all(np.isfinite(mat)) and np.all(np.isfinite(rhs))):
                raise ValueError(f"{name} block must be finite")
        if not self.A_in.shape[0]:
            raise ValueError("every problem needs inequality rows")
        self._newton = _Newton(self.H, self.A_eq, self.A_in)


class SolveReport:
    """Outcome of one problem: ``_ipm``'s one problem, or one problem of a
    ``_log_volume_ipm`` or ``simplex_batch`` batch. Immutable.

    For an LP or QP, OPTIMAL means that the scaled primal residual,
    dual residual and mean complementarity z.s/m are each at most the
    solve's tolerance; kkt_residual is the largest of them. The
    duality gap is m times the mean complementarity, so an LP objective
    can be off by about m * tol * scale_d. For a log-volume problem, its
    own loop applies its own rule (``_log_volume_ipm``), and kkt_residual
    is the largest of the scaled residuals and the total gap. ``iterations``
    counts the convergence checks the loop made on the problem: one more
    than its Newton steps when it converged, MAX_ITER at the cap, and
    fewer when it left undecided earlier (a diverged iterate, a Newton
    matrix that stayed singular). An LP or QP that the loop leaves
    undecided is INFEASIBLE, UNBOUNDED or MAXITER by an exact test of its
    rows and recession rays (``_undecided``), never by a threshold on its
    objective or residuals.
    """

    def __init__(self, status, x, objective, kkt_residual, iterations):
        self.status = status
        self.x = None if x is None else np.array(x, dtype=float)
        if self.x is not None:
            self.x.flags.writeable = False
        self.objective = None if objective is None else float(objective)
        self.kkt_residual = float(kkt_residual)
        self.iterations = int(iterations)

    def __repr__(self):
        return f"SolveReport({self.status.value}, obj={self.objective}, kkt={self.kkt_residual:.2e})"


def _empty(n):
    return np.zeros((0, n)), np.zeros(0)


def _mv(M, v):
    """M @ v[k] (or M[k] @ v[k] for a stack M) for every row k of v, for
    the batch solvers (``_log_volume_ipm``, ``simplex_batch``) and the
    array passes of the other modules. The stacked matmul makes the BLAS
    call, and so gives the bits, of the single product; one gemm would
    not. A batch of one makes that call directly, without the stacking
    overhead."""
    if len(v) == 1:
        return ((M[0] if M.ndim == 3 else M) @ v[0])[None]
    return np.matmul(M, v[:, :, None])[:, :, 0]


def _dot(u, v):
    """u[k] @ v[k] for every row k, with the bits of the single dot (for a
    batch of one, (1, n) @ (n,) is that dot), as ``_mv``."""
    if len(u) == 1:
        return u @ v[0]
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _kkt_matrix(M, A, reg, eyes):
    """[[M + reg I, A^T], [A, -reg I]], ``eyes`` being the identities of
    M's size and of A's rows."""
    n, p = M.shape[0], A.shape[0]
    top = M + reg * eyes[0]
    if not p:
        return top
    K = np.empty((n + p, n + p))
    K[:n, :n] = top
    K[:n, n:] = A.T
    K[n:, :n] = A
    K[n:, n:] = -reg * eyes[1]
    return K


def _rows_on(H, A, G):
    """For every inequality row of G (m, n), the variable it eliminates,
    or -1.

    A variable is eliminated (is in S) when inequality rows touch it and
    each of them touches nothing else, no equality row touches it, and H
    has a nonnegative diagonal entry there and couples it to no other such
    variable. A row on an S variable returns that variable; every other
    row touches only the rest, U.
    """
    nz = G != 0
    one = nz.sum(1) == 1
    S = nz.any(0) & ~(nz & ~one[:, None]).any(0)
    if not S.any():
        return np.full(G.shape[0], -1)
    S &= ~(A != 0).any(0) & (np.diagonal(H) >= 0)
    coupled = (H != 0) & ~np.eye(H.shape[0], dtype=bool)
    S &= ~(coupled & S).any(1)
    col = np.argmax(nz, axis=1)
    return np.where(one & S[col], col, -1)


def _blocks(H, A, G):
    """The variables S of the block split, with each one's block and each
    row's block (-1 for a row on no S variable), a block being named by its
    least place in S.

    S holds the variables that inequality rows touch and no equality row
    and no entry of H does. Two of them share a block when a row touches
    both, and blocks join along chains of such rows, so a row touches at
    most one block. The names spread over the rows in array passes until
    they settle, one pass per link of the longest chain.
    """
    nz = G != 0
    S = np.flatnonzero(nz.any(0) & ~(A != 0).any(0) & ~(H != 0).any(0))
    on, none = nz[:, S], S.size
    var = np.arange(none)
    while True:
        row = np.min(np.where(on, var, none), axis=1, initial=none)
        new = np.minimum(var, np.min(np.where(on, row[:, None], none), axis=0, initial=none))
        if (new == var).all():
            return S, var, np.where(row < none, row, -1)
        var = new


def _members(label, blocks):
    """For each name in ``blocks``, the places of ``label`` that hold it,
    ascending, padded to the longest such list by places that do not."""
    hit = label == blocks[:, None]
    return np.argsort(~hit, axis=1, kind="stable")[:, :hit.sum(1).max()]


class _Newton:
    """Newton step on H + G^T diag(d) G + reg I, with the equality rows A,
    of ``_ipm``'s one problem.

    Built with a QP's H and rows G (``QpProblem`` does, once), it
    eliminates a set S of variables by the Schur complement on the rest,
    U, so only U's matrix and the equality rows are factorized:

    - the singleton split: the variables that ``_rows_on`` finds. Their
      rows add a diagonal to H's diagonal S block, and only the rows on U,
      gathered here, are multiplied out, on U's columns (the RMPC QP).
    - the block split, for a problem that has no such variable: the
      variables that ``_blocks`` finds, which no equality row and no
      entry of H touch (the min-erosion LP's bound columns), unless that
      is every variable and leaves U empty. The rows on a block make its
      S block, and the blocks of one size are inverted in one stacked
      call; U's matrix takes every row on U's columns less each block's
      Schur term.

    Built without G (an ``_ipm`` call without a ``QpProblem``), or with
    S empty, it is the plain Newton matrix and solve over the Hessian and
    rows that ``matrix`` is given.

    ``matrix`` returns the factors of a step, a tuple with the matrix to
    solve with first; ``solve`` takes them.
    """

    def __init__(self, H, A, G=None):
        self.A = A
        self.n = A.shape[1]
        self.S = np.empty(0, dtype=int)  # S empty: the step is the plain one
        self._groups = ()  # the block split's blocks, one entry per block size
        self._eyes = np.eye(self.n), np.eye(A.shape[0])  # of the matrix's two blocks
        if G is None:
            return
        on = _rows_on(H, A, G)
        r1, r2 = np.flatnonzero(on >= 0), np.flatnonzero(on < 0)
        if not r1.size:
            self._block_split(H, A, G)
            return
        on1 = on[r1]
        eliminated = np.zeros(self.n, dtype=bool)
        eliminated[on1] = True
        self._split(H, A, eliminated)
        self.c1 = np.searchsorted(self.S, on1)  # each S row's place in S
        a = G[r1, on1]
        self.r1, self.r2, self.a2 = r1, r2, a * a
        self.G_U = G[r2[:, None], self.U]
        self.H_SS = np.diagonal(H)[self.S]
        self.H_US = H[np.ix_(self.U, self.S)]
        self.H_SU = H[np.ix_(self.S, self.U)]

    def _split(self, H, A, eliminated):
        self.S, self.U = np.flatnonzero(eliminated), np.flatnonzero(~eliminated)
        self.H_UU = H[np.ix_(self.U, self.U)]
        self.A_U = A[:, self.U]
        self._at = tuple(_as_slice(ix) for ix in (self.S, self.U))
        self._eyes = np.eye(self.U.size), self._eyes[1]

    def _block_split(self, H, A, G):
        S, var, row = _blocks(H, A, G)
        if S.size in (0, self.n):  # with every variable in S, U is empty
            return
        eliminated = np.zeros(self.n, dtype=bool)
        eliminated[S] = True
        self._split(H, A, eliminated)
        self.G_U = G[:, self.U]
        labels, size = np.unique(var, return_counts=True)
        groups = []
        for s in np.unique(size):
            blocks = labels[size == s]
            cols, rows = S[_members(var, blocks)], _members(row, blocks)
            # A padding row is another block's or U's, zero on this block's
            # columns, so it adds nothing to the block's products.
            groups.append((cols, rows, G[rows[:, :, None], cols[:, None, :]],
                           G[rows[:, :, None], self.U], np.eye(s)))
        self._groups = tuple(groups)
        self._order = np.concatenate([g[0].ravel() for g in groups])  # S, block by block

    def matrix(self, H, G, d, reg):
        """The factors of the step for the weights d (m,) and the ridge
        reg: the matrix to solve with, then for the singleton split the
        inverse of the S block's diagonal (|S|,), and for the block split
        T = the S block's inverse times M_SU (|S|, |U|) and each block
        size's inverses. The plain step multiplies out H and G; an
        eliminated step uses the blocks of H and the rows it gathered when
        built."""
        if not self.S.size:
            return (_kkt_matrix(H + G.T @ (d[:, None] * G), self.A, reg, self._eyes),)
        if self._groups:
            return self._block_matrix(d, reg)
        diag = np.bincount(self.c1, weights=d[self.r1] * self.a2, minlength=self.S.size)
        inv = 1.0 / (self.H_SS + diag + reg)
        M = (self.H_UU + self.G_U.T @ (d[self.r2][:, None] * self.G_U)
             - (self.H_US * inv) @ self.H_SU)
        return _kkt_matrix(M, self.A_U, reg, self._eyes), inv

    def _block_matrix(self, d, reg):
        nu = self.U.size
        M = self.H_UU + self.G_U.T @ (d[:, None] * self.G_U)
        invs, couplings, terms = [], [], []
        for _, rows, G_S, G_U, eye in self._groups:
            DG_S = d[rows, None] * G_S
            inv = np.linalg.inv(G_S.swapaxes(1, 2) @ DG_S + reg * eye)
            M_SU = DG_S.swapaxes(1, 2) @ G_U
            invs.append(inv)
            couplings.append(M_SU.reshape(-1, nu))
            terms.append((inv @ M_SU).reshape(-1, nu))
        T = np.concatenate(terms)  # rows in the blocks' order, ``_order``
        M -= np.concatenate(couplings).T @ T
        return (_kkt_matrix(M, self.A_U, reg, self._eyes), T, *invs)

    def solve(self, fac, rhs):
        """The step for the right-hand side rhs (n + p,), from ``matrix``'s
        factors."""
        K = fac[0]
        if not self.S.size:
            return np.linalg.solve(K, rhs)
        (S, U), n, nu = self._at, self.n, self.U.size
        if self._groups:
            T, S = fac[1], self._order
            v = np.concatenate([(inv @ rhs.take(cols)[..., None]).ravel()
                                for (cols, *_), inv in zip(self._groups, fac[2:])])
            reduced = rhs[U] - (rhs.take(S)[None] @ T)[0]  # T^T r_S
        else:
            inv = fac[1]
            v = inv * rhs[S]
            reduced = rhs[U] - self.H_US @ v
        if self.A.shape[0]:
            reduced = np.concatenate([reduced, rhs[n:]])
        sol = np.linalg.solve(K, reduced)
        out = np.empty_like(rhs)
        out[U] = sol[:nu]
        out[S] = v - (T @ sol[:nu] if self._groups else inv * (self.H_SU @ sol[:nu]))
        out[n:] = sol[nu:]
        return out


def _as_slice(ix):
    """A sorted index array as a slice when it is one contiguous run (a
    view, not a copy, when indexing), else the array itself."""
    if ix.size and ix[-1] - ix[0] == ix.size - 1:
        return slice(int(ix[0]), int(ix[-1]) + 1)
    return ix


def _ipm(H, g, A, b, G, h, tol, newton=None):
    """Mehrotra predictor-corrector on min 0.5 x.H x + g.x, Ax=b, G x<=h,
    one problem: g (n,), h (m,) with m >= 1, G (m, n).

    It stops when the primal residual over 1 + max(|b|, |h|), and the
    dual residual and mean complementarity z.s/m over 1 + max|g| +
    max|H|, are all at most tol. It leaves the loop OPTIMAL when it
    converges, and undecided otherwise: its iterate diverged
    (``_bounded_iterate``), its Newton matrix stayed singular through six
    regularizations, each 100 times the last (``_retried``), or it
    reached the cap. ``_undecided`` gives an undecided
    problem its status, so INFEASIBLE and UNBOUNDED come only from there,
    never from a threshold on the objective, and an unbounded problem
    runs until it diverges or reaches the cap; a MAXITER problem keeps
    its iterate of smallest residual.

    The start is the least-squares point of the equalities with unit
    slacks and duals. ``newton`` is the prebuilt step of a QP
    (``QpProblem`` keeps one), which eliminates the variables S of its
    singleton or block split (``_Newton``): one Schur complement on the
    other variables is formed per iteration and serves the predictor and
    the corrector. Without it the step is the plain Newton matrix and
    solve.

    The iterate keeps x beside y and s beside z, one array per pair, so
    a Newton step is two updates and s and z take their step lengths in
    one ``_max_step`` pass.

    The loop makes at most MAX_ITER convergence checks and takes a Newton
    step after each check but the last. Returns (status, x, kkt_residual,
    iterations), iterations being the checks made.
    """
    n, p, m = len(g), A.shape[0], G.shape[0]
    if newton is None:
        newton = _Newton(H, A)

    scale_p = 1.0 + max(np.max(np.abs(b), initial=0.0), np.max(np.abs(h), initial=0.0))
    scale_d = 1.0 + np.max(np.abs(g), initial=0.0) + (np.max(np.abs(H)) if H.size else 0.0)

    # Deterministic start: least-squares on the equalities, unit slacks.
    xy = np.zeros(n + p)
    sz = np.empty((2, m))
    x0 = np.linalg.lstsq(A, b, rcond=None)[0] if p > 0 else np.zeros(n)
    xy[:n] = x0
    sz[0] = np.maximum(h - G @ x0, 1.0)
    sz[1] = 1.0

    GT = G.T
    best_kkt, best_x = 0.0, xy[:n]  # the best iterate so far
    checks = MAX_ITER
    for it in range(1, MAX_ITER + 1):
        x, y, s, z = xy[:n], xy[n:], sz[0], sz[1]
        if not _bounded_iterate(x, sz):
            checks = it - 1  # diverged: to classification
            break
        rd = H @ x + g + (A.T @ y if p else 0.0) + GT @ z
        rp = A @ x - b
        rg = G @ x + s - h
        mu = (z[None] @ s)[0] / m  # a (1, m) @ (m,) product: z @ s may round otherwise
        res_p = np.maximum.reduce(np.abs(rg))
        if p:
            res_p = np.maximum(np.maximum.reduce(np.abs(rp)), res_p)
        kkt = np.maximum(np.maximum(res_p / scale_p, np.maximum.reduce(np.abs(rd)) / scale_d),
                         mu / scale_d)
        if it == 1 or kkt < best_kkt:  # ``_best``, without its array calls on scalars
            best_kkt, best_x = kkt, x
        if kkt <= tol:  # a NaN residual fails it
            return Status.OPTIMAL, x, kkt, it
        if it == MAX_ITER:
            break  # no later check would read the step's iterate

        d = z / s
        dgz = d * rg - z  # both right-hand sides share it

        # Affine scaling (predictor) direction; a singular Newton matrix is
        # retried with a larger regularization.
        rhs = -(rd + GT @ dgz)
        if p:
            rhs = np.concatenate([rhs, -rp])
        def step(reg):
            fac = newton.matrix(H, G, d, reg)
            return fac, newton.solve(fac, rhs)

        solved = _retried(step, 1e-12 * scale_d)
        if solved is None:
            checks = it  # stayed singular: to classification
            break
        fac, sol = solved
        nrg = -rg
        dsz_a = np.empty_like(sz)
        ds_a = np.subtract(nrg, G @ sol[:n], out=dsz_a[0])
        dz_a = np.subtract(-z, d * ds_a, out=dsz_a[1])

        # Corrector, with Mehrotra's centring term sigma mu as ``_centring``
        # forms it, written for scalars: its ``np.where`` alone would cost
        # more than the rest of the term.
        aff = sz + _max_step(sz, dsz_a)[:, None] * dsz_a
        mu_aff = (aff[1][None] @ aff[0])[0] / m
        sigma_mu = np.float_power(mu_aff / (mu if mu > 0.0 else np.inf), 3) * mu
        corr = (sigma_mu - ds_a * dz_a) / s
        rhs = -(rd + GT @ (dgz + corr))
        if p:
            rhs = np.concatenate([rhs, -rp])
        sol = newton.solve(fac, rhs)
        dsz = np.empty_like(sz)
        ds = np.subtract(nrg, G @ sol[:n], out=dsz[0])
        np.subtract(corr - z, d * ds, out=dsz[1])

        alpha = 0.995 * np.minimum.reduce(_max_step(sz, dsz))
        xy = xy + alpha * sol
        sz = sz + alpha * dsz

    # Not converged: an exact verdict (``_undecided``), never a guessed one.
    status = _undecided(H, A, b, G, h, g)
    return status, best_x if status == Status.MAXITER else None, best_kkt, checks


def _bounded_iterate(x, sz):
    """Whether the iterate x, s, z of one problem, or of every problem of
    a batch, passes the divergence test: x finite, s and z below 1e100
    and s above 1e-200, sz holding s and z on its second-to-last axis.
    The bounds on s also reject a non-finite s, and the one on z a NaN or
    +inf z; the step rules cannot make z -inf without a NaN. Both
    interior-point loops leave the loop on a failed test."""
    return bool(np.isfinite(x).all()
                and np.maximum.reduce(sz, axis=None, initial=-np.inf) < 1e100
                and np.minimum.reduce(sz[..., 0, :], axis=None, initial=np.inf) > 1e-200)


def _live(x, sz):
    """None when every problem of the batch x (B, n), sz (B, 2, m) passes
    ``_bounded_iterate``, else the mask of those that pass. The whole batch is
    tested first, each problem only when that fails."""
    if _bounded_iterate(x, sz):
        return None
    return np.array([_bounded_iterate(x_k, sz_k) for x_k, sz_k in zip(x, sz)], dtype=bool)


def _best(kkt, x, best_kkt, best_x):
    """Each problem's residual and iterate, where the residual is below
    its best so far, else that best."""
    better = kkt < best_kkt
    if better.all():
        return kkt, x
    return np.where(better, kkt, best_kkt), np.where(better[:, None], x, best_x)


def _retried(step, reg):
    """``step(reg)``, the factors and solution of one problem's Newton
    step at the regularization reg, tried up to six times, reg growing
    100-fold after each LinAlgError; None when every try failed."""
    for _ in range(6):
        try:
            return step(reg)
        except np.linalg.LinAlgError:
            reg *= 100.0
    return None


def _centring(sz, dsz_a, mu):
    """Mehrotra's centring term sigma mu per problem, a column: sigma =
    (mu_aff / mu)^3, 0 where mu = 0, mu_aff being the mean
    complementarity after the predictor's step dsz_a."""
    aff = sz + _max_step(sz, dsz_a)[:, :, None] * dsz_a  # s and z after the steps
    mu_aff = _dot(aff[:, 1], aff[:, 0]) / sz.shape[2]
    return (np.float_power(mu_aff / np.where(mu > 0.0, mu, np.inf), 3) * mu)[:, None]


def _undecided(H, A, b, G, h, g):
    """The status of min 0.5 x.H x + g.x over {A x = b, G x <= h} that the
    interior-point loop left undecided. INFEASIBLE when ``least_distance``
    proves the rows [G; A; -A] have no point. Else UNBOUNDED exactly when
    some ray d has G d <= 0, A d = 0, H d = 0 and g.d < 0 (Frank & Wolfe,
    *Naval Res. Logist. Q.* 3, 1956), which ``simplex_batch`` finds in
    split form d = d+ - d-, the rows +-H of H's nonzero rows joining the
    ray's rows (an LP has none). Else MAXITER, a step cap of either
    routine included.
    """
    rows = np.vstack([G, A, -A])
    point, steps = least_distance(rows, np.concatenate([h, b, -b]))
    if point is None:
        return Status.INFEASIBLE if steps < MAX_ITER else Status.MAXITER
    curved = H[H.any(axis=1)]
    rows = np.vstack([rows, curved, -curved])
    ray = simplex_batch(np.concatenate([-g, g]), np.hstack([rows, -rows]), np.zeros(len(rows)))[0]
    return Status.UNBOUNDED if ray.status == Status.UNBOUNDED else Status.MAXITER


def _max_step(v, dv):
    """Largest step in [0, 1] that keeps v + step * dv >= 0, over the last
    axis, for v without NaN: min(1, min of -v/dv where dv < 0). As
    -v/dv is -(v/dv) exactly, that is -max(-1, max of v/dv where dv < 0);
    every other entry gives -1."""
    neg = dv < 0.0
    q = np.where(neg, v, -1.0) / np.where(neg, dv, 1.0)
    return -np.maximum.reduce(q, axis=-1, initial=-1.0)


def solve_qp(p, g, b_in):
    """Minimize 0.5 x.H x + g.x subject to the problem's equality rows and
    A_in x <= b_in, to QP_TOL. g and b_in must keep the problem's sizes
    and be finite."""
    g, b_in = (np.asarray(v, dtype=float).reshape(-1) for v in (g, b_in))
    if g.shape != (len(p.H),) or b_in.shape != (len(p.A_in),):
        raise ValueError("linear term or row offsets have inconsistent dimensions")
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(b_in))):
        raise ValueError("linear term and row offsets must be finite")
    st, x, kkt, it = _ipm(p.H, g, p.A_eq, p.b_eq, p.A_in, b_in, QP_TOL, newton=p._newton)
    obj = float(0.5 * x @ p.H @ x + g @ x) if x is not None and st == Status.OPTIMAL else None
    return SolveReport(st, x, obj, kkt, it)


def least_distance(A, b):
    """The point y of {y : A y <= b} nearest the origin, with the number
    of active-set steps taken; (None, steps) when no point satisfies the
    rows or after MAX_ITER steps. A must have rows.

    Goldfarb & Idnani's dual active-set method on min 0.5 |y|^2, started
    at the origin, its unconstrained minimizer. Each step takes the most
    violated row p and moves the point and the multipliers of the active
    rows along the directions that keep those rows tight (from a QR
    factorization of the active rows): a full step puts p on its
    boundary and makes it active; a partial one drops the active row
    whose multiplier reaches zero first and keeps p's multiplier so far.
    A row in the span of the active rows (a zero row included) moves only
    the multipliers, and with no multiplier to drop it proves the rows
    infeasible. With no row active, as at the first step, the point moves
    along p's row, as an empty factorization would give, and no
    multiplier can block, so the step takes neither the QR nor the
    ratios: it is full, or the row is zero. The loop stops when no row
    exceeds its offset by more than QP_TOL (1 + max|b|), the primal
    residual of the QP stop test.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    tol = QP_TOL * (1.0 + np.maximum.reduce(np.abs(b)))
    y = np.zeros(A.shape[1])
    active, lam = [], np.zeros(0)
    p, steps = None, 0
    while True:
        if p is None:
            excess = A @ y - b
            p, lam_p = int(excess.argmax()), 0.0
            if excess[p] <= tol:
                return y, steps
        if steps == MAX_ITER:
            return None, steps
        steps += 1
        a = A[p]
        aa = a @ a
        if not active:  # z = a, and no ratio blocks the step
            full = (a @ y - b[p]) / aa if np.sqrt(aa) > QP_TOL * np.sqrt(aa) else np.inf
            if not full < np.inf:
                return None, steps
            y, active, lam, p = y - full * a, [p], np.array([lam_p + full]), None
            continue
        Q, R = np.linalg.qr(A[active].T)
        Qa = Q.T @ a
        z = a - Q @ Qa           # the point's direction, off the active rows
        r = np.linalg.solve(R, Qa)  # the active multipliers' direction
        zz = z @ z
        full = (a @ y - b[p]) / zz if np.sqrt(zz) > QP_TOL * np.sqrt(aa) else np.inf
        blocking = np.flatnonzero(r > 0.0)
        ratios = lam[blocking] / r[blocking]
        t = min(full, np.minimum.reduce(ratios, initial=np.inf))
        if t == np.inf:
            return None, steps
        if full < np.inf:
            y = y - t * z
        lam, lam_p = lam - t * r, lam_p + t
        if t == full:
            active.append(p)
            lam, p = np.append(lam, lam_p), None
        else:
            drop = int(blocking[ratios.argmin()])
            del active[drop]
            lam = np.delete(lam, drop)


def simplex_batch(c, A, B):
    """Maximize c_k.v s.t. A_k v <= b_k, v >= 0 for every row b_k >= 0 of
    B (K, m). c (n,) and A (m, n) are shared, or either has one row c_k
    (K, n) or matrix A_k (K, m, n) per problem, beside which one row b may
    serve all; one report per problem.

    The primal simplex in inequality form (Bertsimas & Tsitsiklis,
    *Introduction to Linear Optimization*, 1997, ch. 3), started at the
    vertex v = 0, which b >= 0 makes feasible. A basis is n rows of
    [A; -I], tight at its vertex; with M those rows, the vertex solves
    M v = b_M and the rows' duals M^T y = c_k. While a dual is negative,
    the lowest-index such row leaves: the vertex moves along the edge
    that loosens it, and the first row the edge meets enters, ties to the
    lowest index (Bland's rule, *Math. Oper. Res.* 2(2), 1977, so no
    basis repeats). A dual is negative below its round-off bound,
    n eps max|M| max|M^-1| max|y| (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, ch. 7), which the rounding of a zero
    dual, as the split x = x+ - x- of a free variable makes, stays
    under. A row blocks the edge only where its rate along it
    exceeds QP_TOL times the row's and the edge's largest entries, so a
    basis stays nonsingular. An edge that no row blocks is UNBOUNDED;
    after MAX_ITER pivots the vertex reached is MAXITER. ``iterations``
    counts the pivots and ``kkt_residual`` is the most negative dual's
    magnitude. Every step is stacked (``np.linalg.inv``, ``np.matmul``,
    ``_mv``), so each report has the bits of its batch of one.
    """
    c, A = np.asarray(c, dtype=float), np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float).reshape(-1, A.shape[-2])
    stacked = A.ndim == 3
    if stacked:
        B = np.broadcast_to(B, (len(A), B.shape[1]))  # one row per A_k, or one for all
    if not all(np.all(np.isfinite(a)) for a in (c, A, B)) or np.any(B < 0.0):
        raise ValueError("simplex_batch needs finite rows and offsets b >= 0")
    m, n = A.shape[-2:]
    C = np.broadcast_to(c, (len(B), n))
    R = np.concatenate([A, np.broadcast_to(-np.eye(n), A.shape[:-2] + (n, n))], axis=-2)
    row_scale = np.max(np.abs(R), axis=-1)
    idx, H = np.arange(len(B)), np.hstack([B, np.zeros((len(B), n))])
    basis = np.tile(np.arange(m, m + n), (len(B), 1))  # v = 0: the rows -v <= 0
    reports = [None] * len(B)
    for pivots in range(MAX_ITER + 1):
        M = np.take_along_axis(R, basis[:, :, None], axis=1) if stacked else R[basis]
        inv = np.linalg.inv(M)
        y = np.matmul(C[:, None, :], inv)[:, 0]
        v = _mv(inv, np.take_along_axis(H, basis, axis=1))
        bound = (n * np.finfo(float).eps * np.max(np.abs(M), axis=(1, 2))
                 * np.max(np.abs(inv), axis=(1, 2)) * np.max(np.abs(y), axis=1))
        leaving = y < -bound[:, None]
        p = np.argmin(np.where(leaving, basis, m + n), axis=1)  # its place in the basis
        d = -inv[np.arange(len(idx)), :, p]  # the edge off row p
        rate = _mv(R, d)
        blocks = rate > QP_TOL * row_scale * np.max(np.abs(d), axis=1)[:, None]
        np.put_along_axis(blocks, basis, False, axis=1)
        slack = np.maximum(H - _mv(R, v), 0.0)
        enter = np.argmin(np.where(blocks, slack, np.inf) / np.where(blocks, rate, 1.0), axis=1)
        optimal = ~leaving.any(axis=1)
        done = optimal | ~blocks.any(axis=1) | (pivots == MAX_ITER)
        residual = np.maximum(-np.min(y, axis=1), 0.0)
        for k in np.flatnonzero(done):
            if optimal[k] or pivots == MAX_ITER:
                status = Status.OPTIMAL if optimal[k] else Status.MAXITER
                reports[idx[k]] = SolveReport(status, v[k], C[k] @ v[k], residual[k], pivots)
            else:
                reports[idx[k]] = SolveReport(Status.UNBOUNDED, None, None, residual[k], pivots)
        live = ~done
        if not live.any():
            return reports
        idx, C, H, basis, p, enter = (a[live] for a in (idx, C, H, basis, p, enter))
        if stacked:
            R, row_scale = R[live], row_scale[live]
        basis[np.arange(len(idx)), p] = enter


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
    d = np.asarray(d, dtype=float)
    if np.min(W, initial=0.0) < -1e-12:
        raise ValueError("coordinate_widths expects a nonnegative constraint matrix")
    ratios = np.divide(d[..., None], W, out=np.full(d.shape + W.shape[1:], np.inf),
                       where=W > 0)
    return np.maximum(np.min(ratios, axis=-2, initial=np.inf), 0.0)


def _log_volume_ipm(S, G, h, v, sl):
    """Mehrotra predictor-corrector on min -sum log(S x) s.t. G x <= h[k],
    from the strictly interior x = v[k] with slacks sl[k] = h[k] - G v[k]
    and duals z = 1/s, for every row k of h (B, m); S (r, n), with
    nonnegative entries, and G (m, n) are shared.

    A problem stops when its primal residual over 1 + max|h[k]| and its
    dual residual over the gradient's largest entry are at most FEAS_TOL
    and the total gap z.s at most GAP_TOL. It leaves the loop OPTIMAL
    when it converges, and otherwise MAXITER with its iterate of smallest
    residual: its iterate diverged (``_live``), its Newton matrix stayed
    singular through six regularizations (``_retried``), or it reached
    the cap.

    Each step goes a fraction max(0.995, 1 - z.s/m) of the way to the
    boundary (Mehrotra, *SIAM J. Optim.* 2(4), 1992), held at or below
    0.998: at 0.999 the last step left some active slacks below one
    rounding step, and some CP boxes a rounding step outside their rows.

    The Newton matrix G^T diag(z/s) G + S^T diag(1/(S x)^2) S is one
    stacked product of the weights [z/s, 1/(S x)^2] with the rows'
    outer products, which are formed once per loop, and serves the
    predictor's and the corrector's solve. Every product is stacked
    (``_mv``, ``_dot``, ``np.matmul``, ``np.linalg.solve``), so each
    problem's result has the bits of its batch of one. Returns one
    (status, x, kkt_residual, iterations) tuple per problem, iterations
    being the convergence checks made on it, as ``_ipm`` counts them.
    """
    nb, n = v.shape
    m = G.shape[0]
    GT, ST = G.T, S.T
    rows = np.vstack([G, S])
    outer = (rows[:, :, None] * rows[:, None, :]).reshape(len(rows), n * n)
    eye = np.eye(n)
    scale_p = 1.0 + np.max(np.abs(h), axis=1, initial=0.0)
    x = v
    sz = np.empty((nb, 2, m))
    sz[:, 0] = sl
    np.divide(1.0, sl, out=sz[:, 1])

    out = [None] * nb
    idx = np.arange(nb)          # problems still iterating
    best_kkt, best_x = np.zeros(nb), x  # their best iterates so far
    stopped = []  # (problem, best kkt, best x, convergence checks) left undecided
    for it in range(1, MAX_ITER + 1):
        live = _live(x, sz)
        if live is not None:
            stopped.extend(zip(idx[~live], best_kkt[~live], best_x[~live], repeat(it - 1)))
            idx, x, sz, h, scale_p, best_kkt, best_x = (
                a[live] for a in (idx, x, sz, h, scale_p, best_kkt, best_x))
        if not idx.size:
            break
        s, z = sz[:, 0], sz[:, 1]
        sx = np.maximum(_mv(S, x), 1e-150)
        inv = 1.0 / sx
        grad = _mv(ST, inv)  # the objective's gradient is -grad
        scale_d = np.maximum.reduce(grad, axis=1)
        rd = _mv(GT, z) - grad
        rg = _mv(G, x) + s - h
        gap = _dot(z, s)
        mu = gap / m
        res = np.maximum(np.maximum.reduce(np.abs(rg), axis=1) / scale_p,
                         np.maximum.reduce(np.abs(rd), axis=1) / scale_d)
        kkt = np.maximum(res, gap)
        best_kkt, best_x = (kkt, x) if it == 1 else _best(kkt, x, best_kkt, best_x)
        converged = (res <= FEAS_TOL) & (gap <= GAP_TOL)  # a NaN residual fails it
        if converged.any():
            for k in np.flatnonzero(converged):
                out[idx[k]] = (Status.OPTIMAL, x[k], kkt[k], it)
            if converged.all():
                idx = idx[:0]
                break
            keep = ~converged
            idx, x, sz, s, z, h, scale_p, scale_d, best_kkt, best_x, rd, rg, mu, inv = (
                a[keep] for a in (idx, x, sz, s, z, h, scale_p, scale_d, best_kkt, best_x, rd,
                                  rg, mu, inv))
        if it == MAX_ITER:
            break  # no later check would read the step's iterate

        d = z / s
        dgz = d * rg - z  # both right-hand sides share it
        M = np.matmul(np.concatenate([d, inv * inv], axis=1)[:, None, :], outer)
        M = M.reshape(len(idx), n, n)
        reg = 1e-12 * scale_d

        # Affine scaling (predictor) direction; a singular Newton matrix is
        # retried with a larger regularization, problem by problem.
        rhs = -(rd + _mv(GT, dgz))
        K = M + reg[:, None, None] * eye
        try:
            dx = np.linalg.solve(K, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            def step(k, reg):
                K = M[k:k + 1] + reg * eye
                return K, np.linalg.solve(K, rhs[k:k + 1, :, None])[0, :, 0]

            steps = [_retried(partial(step, k), reg[k]) for k in range(len(idx))]
            solved = np.array([one is not None for one in steps], dtype=bool)
            if not solved.all():
                stopped.extend(zip(idx[~solved], best_kkt[~solved], best_x[~solved], repeat(it)))
                idx, x, sz, s, z, h, scale_p, best_kkt, best_x, rd, rg, mu, d, dgz = (
                    a[solved] for a in (idx, x, sz, s, z, h, scale_p, best_kkt, best_x, rd,
                                        rg, mu, d, dgz))
                if not idx.size:
                    break
            K = np.concatenate([one[0] for one in steps if one is not None])
            dx = np.array([one[1] for one in steps if one is not None])
        nrg = -rg
        dsz_a = np.empty_like(sz)
        ds_a = np.subtract(nrg, _mv(G, dx), out=dsz_a[:, 0])
        dz_a = np.subtract(-z, d * ds_a, out=dsz_a[:, 1])

        # Corrector.
        corr = (_centring(sz, dsz_a, mu) - ds_a * dz_a) / s
        dx = np.linalg.solve(K, -(rd + _mv(GT, dgz + corr))[:, :, None])[:, :, 0]
        dsz = np.empty_like(sz)
        ds = np.subtract(nrg, _mv(G, dx), out=dsz[:, 0])
        np.subtract(corr - z, d * ds, out=dsz[:, 1])

        alpha = (np.minimum(np.maximum(1.0 - mu, 0.995), 0.998)
                 * np.minimum.reduce(_max_step(sz, dsz), axis=1))
        x = x + alpha[:, None] * dx
        sz = sz + alpha[:, None, None] * dsz

    stopped.extend(zip(idx, best_kkt, best_x, repeat(MAX_ITER)))
    for i, kkt_i, x_i, checks in stopped:
        out[i] = (Status.MAXITER, x_i, kkt_i, checks)
    return out


def maximize_log_volume_batch(W, d, mode):
    """Maximize a log-volume objective over {v >= 0 : W v <= d[k]} for
    every row k of d (B, m); one report per row.

    The variable v stacks the upper widths vbar (first k) and lower widths
    vund (last k) of a box around the origin. ``mode`` selects f1
    (sum of log total widths) or f2 (sum of logs of both one-sided widths).

    A coordinate pair whose feasible width is at most DEGENERATE_WIDTH (in
    f1 the larger side, in f2 the smaller) is degenerate: it is pinned to
    zero width and left out of the objective. In f1 mode a pair may survive
    with one side forced to zero (one-sided box); that side is fixed rather
    than treated as degenerate. A report has Unbounded status when some
    width is infinite, and MaxIter when ``_log_volume_ipm`` leaves it
    undecided: at MAX_ITER iterations, or earlier when its iterate diverges
    or its Newton matrix stays singular. Each problem is passed to that
    loop as the rows ``[W; -I] v <= [d; 0]`` with the objective
    ``-sum log(S v)``, one row of S per log term, from a strictly interior
    start; its steps go a fraction max(0.995, 1 - z.s/m), at most 0.998,
    of the way to the boundary. The point of an
    Optimal report is the loop's last iterate, and of a MaxIter report
    its iterate with the smallest residual; either has every live
    variable positive. Problems with the same live variables (neither
    pinned nor degenerate) run in one loop; each report is bit-identical
    to that problem's batch of one.
    """
    W = np.asarray(W, dtype=float)
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[1] != W.shape[0]:
        raise ValueError("d must hold one row of offsets per problem")
    if W.shape[1] % 2 != 0:
        raise ValueError("variable count must be even (vbar/vund pairs)")
    k = W.shape[1] // 2
    if mode not in (MODE_SUM_LOG_WIDTH, MODE_SUM_LOG_BOTH):
        raise ValueError(f"unknown mode {mode!r}")
    if np.min(d, initial=0.0) < -FEAS_TOL:
        raise ValueError("polyhedron infeasible at v = 0")
    d = np.maximum(d, 0.0)

    widths = coordinate_widths(W, d)
    up, dn = widths[:, :k], widths[:, k:]
    pair_width = np.maximum(up, dn) if mode == MODE_SUM_LOG_WIDTH else np.minimum(up, dn)
    # Live variables: members of kept pairs with nonvanishing width.
    live = np.tile(pair_width > DEGENERATE_WIDTH, 2) & (widths > DEGENERATE_WIDTH)
    unbounded, none_live = np.isinf(widths).any(1), ~live.any(1)
    reports = [None] * len(d)
    groups = {}
    for i in range(len(d)):
        if unbounded[i]:
            reports[i] = SolveReport(Status.UNBOUNDED, None, None, np.inf, 0)
        elif none_live[i]:
            reports[i] = SolveReport(Status.OPTIMAL, np.zeros(2 * k), 0.0, 0.0, 0)
        else:
            groups.setdefault(live[i].tobytes(), []).append(i)

    eye = np.eye(2 * k)
    for members in map(np.array, groups.values()):
        mask = live[members[0]]
        # One row of S per log term: f2 logs each side of a pair, f1 their
        # sum. A pair is kept exactly when one of its sides is live.
        pairs = np.flatnonzero(mask[:k] | mask[k:])
        if mode == MODE_SUM_LOG_BOTH:
            S = eye[np.column_stack([pairs, k + pairs]).ravel()]
        else:
            S = eye[pairs] + eye[k + pairs]
        S = S[:, mask]
        Wa = W[:, mask]
        keep = np.max(np.abs(Wa), axis=1) > 0
        Wa, da = Wa[keep], d[members][:, keep]
        # A strictly interior start: 0.3 of each variable's feasible width,
        # halved until every row has slack.
        v = 0.3 * widths[members][:, mask]
        for _ in range(200):
            sl = da - _mv(Wa, v)
            inside = np.all(sl > 0, axis=1)
            if inside.all():
                break
            v[~inside] *= 0.5
        for i in members[~inside]:
            reports[i] = SolveReport(Status.MAXITER, None, None, np.inf, 0)
        # The rows W v <= d and -v <= 0, with the slacks [d - W v; v].
        nv = v.shape[1]
        h = np.concatenate([da, np.zeros(v.shape)], axis=1)[inside]
        start = (v[inside], np.concatenate([sl, v], axis=1)[inside])
        solved = _log_volume_ipm(S, np.vstack([Wa, -np.eye(nv)]), h, *start)
        for i, (status, x, kkt, iters) in zip(members[inside], solved):
            full = np.zeros(2 * k)
            full[mask] = x
            reports[i] = SolveReport(status, full, sum(np.log(S @ x).tolist()), kkt, iters)
    return reports
