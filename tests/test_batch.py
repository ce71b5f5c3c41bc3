"""Property tests: a batched LP, simplex or log-volume solve gives every
member the bits it gets alone."""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from etrmpc import solver  # noqa: E402
from etrmpc.solver import Status, maximize_log_volume_batch  # noqa: E402

from test_solver import ipm_lps, same_report  # noqa: E402


def shared_rows(rng, n, m):
    """Random rows, a box on every coordinate but the last, and a lower
    bound on x_last.

    The random rows never bound x_last from above, so e_last is a
    recession direction: an objective rising along it is unbounded.
    """
    R = rng.normal(size=(m, n))
    R[:, -1] = -np.abs(R[:, -1])
    eye = np.eye(n)
    return np.vstack([R, eye[:-1], -eye])


def member(rng, A, kind):
    """Objective and offsets of one bounded, infeasible or unbounded LP."""
    n = A.shape[1]
    m = A.shape[0] - (2 * n - 1)
    x0 = rng.normal(size=n) * 0.5
    b = A @ x0 + rng.uniform(0.1, 1.5, size=A.shape[0])
    c = rng.normal(size=n)
    c[-1] = -rng.uniform(0.1, 2.0) if kind == "bounded" else rng.uniform(0.1, 2.0)
    if kind == "infeasible":
        b[m] = b[m + n - 1] = -1.0  # x_0 <= -1 and x_0 >= 1
    return c, b


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**32 - 1),
                  n=st.integers(2, 4), m=st.integers(1, 8),
                  kinds=st.lists(st.sampled_from(["bounded", "infeasible", "unbounded"]),
                                 min_size=1, max_size=6))
def test_batch_member_matches_solo_solve(seed, n, m, kinds):
    rng = np.random.default_rng(seed)
    A = shared_rows(rng, n, m)
    members = [member(rng, A, kind) for kind in kinds]
    C = np.array([c for c, _ in members])
    B = np.array([b for _, b in members])
    batch = ipm_lps(C, A, B)
    assert len(batch) == len(kinds)
    for (c, b), rep in zip(members, batch):
        assert same_report(rep, ipm_lps(c, A, b)[0])


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), m=st.integers(1, 10),
                  bounded=st.booleans(), own_objectives=st.booleans(),
                  zeros=st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_simplex_member_matches_solo_solve(seed, n, m, bounded, own_objectives, zeros):
    # Shared rows, one offset row per member with some zero offsets
    # (degenerate vertices) and its own scale, and one shared objective or
    # one per member; without the box rows some draws are unbounded.
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n))
    if bounded:
        A = np.vstack([A, np.eye(n)])
    C = rng.normal(size=(len(zeros), n) if own_objectives else n)
    B = rng.uniform(0.0, 2.0, size=(len(zeros), len(A))) * 10.0 ** rng.uniform(-3, 3, (len(zeros), 1))
    for b, k in zip(B, zeros):
        b[rng.choice(len(A), size=min(k, len(A)), replace=False)] = 0.0
    batch = solver.simplex_batch(C, A, B)
    assert len(batch) == len(zeros)
    for c, b, rep in zip(np.broadcast_to(C, (len(B), n)), B, batch):
        assert same_report(rep, solver.simplex_batch(c, A, b)[0])


def own_rows_member(rng, n, m, kind, zeros):
    """Rows, objective and offsets b >= 0 of one simplex LP with rows of
    its own, ``zeros`` of its first m offsets 0 (degenerate vertices). A
    box row on every variable bounds it, and a slow member rises along
    every variable, so that v = 0 is not optimal. An unbounded member's
    rows cap no v_0 (its column is nonpositive), along which c rises."""
    A = np.vstack([rng.normal(size=(m, n)), np.eye(n)])
    c = rng.normal(size=n)
    if kind == "unbounded":
        A[:, 0] = -np.abs(A[:, 0])
        c[0] = abs(c[0]) + 0.1
    elif kind == "slow":
        c = np.abs(c) + 0.1
    b = rng.uniform(0.0, 2.0, size=m + n) * 10.0 ** rng.uniform(-3, 3)
    b[rng.choice(m, size=min(zeros, m), replace=False)] = 0.0
    return A, c, b


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**32 - 1),
                  n=st.integers(2, 5), m=st.integers(1, 10), zeros=st.integers(0, 3),
                  kinds=st.lists(st.sampled_from(["bounded", "unbounded", "slow"]),
                                 max_size=4))
def test_per_problem_rows_member_matches_solo_solve(seed, n, m, zeros, kinds):
    # Every member has rows of its own (a stacked A), as LP1's scaling LPs
    # of one active mask do. Every batch holds a bounded, an unbounded and
    # a slow member, in random order. Then the cap is patched to one less
    # than the slowest optimal member's pivot count, so that member stops
    # at MAX_ITER, after the members that leave earlier with their rows.
    rng = np.random.default_rng(seed)
    kinds = ["bounded", "unbounded", "slow"] + kinds
    members = [own_rows_member(rng, n, m, kinds[i], zeros) for i in rng.permutation(len(kinds))]
    free = [solver.simplex_batch(c, A, b)[0] for A, c, b in members]
    A, C, B = (np.array(v) for v in zip(*members))
    assert all(same_report(a, b) for a, b in zip(solver.simplex_batch(C, A, B), free))
    assert Status.UNBOUNDED in {r.status for r in free}
    cap = max(r.iterations for r in free if r.status == Status.OPTIMAL) - 1
    with mock.patch.object(solver, "MAX_ITER", cap):
        solo = [solver.simplex_batch(c, Ak, b)[0] for Ak, c, b in members]
        batch = solver.simplex_batch(C, A, B)
    assert len(batch) == len(members)
    assert all(same_report(a, b) for a, b in zip(batch, solo))
    capped = [k for k, r in enumerate(free) if r.status == Status.OPTIMAL and r.iterations > cap]
    assert capped and all(batch[k].iterations == cap and batch[k].status == Status.MAXITER
                          for k in capped)


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**32 - 1),
                  n=st.integers(3, 5), m=st.integers(1, 8), p=st.integers(1, 2),
                  kinds=st.lists(st.sampled_from(["bounded", "infeasible", "unbounded"]),
                                 max_size=4))
def test_equality_rows_member_matches_solo_solve(seed, n, m, p, kinds):
    # The min-erosion LP's route: shared equality rows beside the shared
    # inequality rows. The equality rows pass through one point x0, inside
    # every member's inequality rows but an infeasible member's box, and
    # leave x_last free, so e_last stays the unbounded members' ray. Every
    # batch holds a bounded, an infeasible and an unbounded member. Each
    # must equal its solo solve, at the full cap and with the cap one short
    # of the slowest optimal member.
    rng = np.random.default_rng(seed)
    A = shared_rows(rng, n, m)
    p = min(p, n - 2)
    A_eq = np.hstack([rng.normal(size=(p, n - 1)), np.zeros((p, 1))])
    x0 = rng.normal(size=n) * 0.5
    b_eq = A_eq @ x0
    kinds = ["bounded", "infeasible", "unbounded"] + kinds
    C, B = [], []
    for i in rng.permutation(len(kinds)):
        c, _ = member(rng, A, kinds[i])
        b = A @ x0 + rng.uniform(0.1, 1.5, size=A.shape[0])
        if kinds[i] == "infeasible":
            b[m] = b[m + n - 1] = -1.0  # x_0 <= -1 and x_0 >= 1
        C.append(c)
        B.append(b)
    C, B = np.array(C), np.array(B)
    free = [ipm_lps(c, A, b, A_eq, b_eq)[0] for c, b in zip(C, B)]
    batch = ipm_lps(C, A, B, A_eq, b_eq)
    assert len(batch) == len(kinds)
    assert all(same_report(a, b) for a, b in zip(batch, free))
    statuses = {r.status for r in free}
    assert {Status.OPTIMAL, Status.INFEASIBLE, Status.UNBOUNDED} <= statuses
    scale = 1.0 + max(np.max(np.abs(B)), np.max(np.abs(b_eq)))
    assert all(np.max(np.abs(A_eq @ r.x - b_eq)) <= 1e-8 * scale
               for r in free if r.status == Status.OPTIMAL)
    cap = max(r.iterations for r in free if r.status == Status.OPTIMAL) - 1
    with mock.patch.object(solver, "MAX_ITER", cap):
        solo = [ipm_lps(c, A, b, A_eq, b_eq)[0] for c, b in zip(C, B)]
        batch = ipm_lps(C, A, B, A_eq, b_eq)
    assert all(same_report(a, b) for a, b in zip(batch, solo))


def log_volume_rows(rng, k, extra):
    """Nonnegative rows over [vbar; vund] (2k variables), 3 + extra of them.

    Row 0 alone bounds the last variable, row 1 bounds only the first and
    row 2 bounds all but the last; the extra rows are sparse and random.
    """
    n = 2 * k
    W = rng.uniform(0.1, 1.0, size=(3 + extra, n)) * (rng.random((3 + extra, n)) < 0.5)
    W[:3] = 0.0
    W[:, -1] = 0.0
    W[0, -1] = rng.uniform(0.5, 1.5)
    W[1, 0] = rng.uniform(0.5, 1.5)
    W[2, :-1] = rng.uniform(0.1, 1.0, size=n - 1)
    return W


def log_volume_offsets(rng, W, kind):
    """Offsets of one member: an interior box, the first variable pinned to
    zero width (a different live mask), every width zero, or the last
    variable unbounded."""
    d = rng.uniform(0.2, 2.0, size=W.shape[0])
    if kind == "pinned":
        d[1] = 0.0
    elif kind == "degenerate":
        d[:] = 0.0
    elif kind == "unbounded":
        d[0] = np.inf
    return d


class SingularAt:
    """np.linalg.solve, except that a matrix equal to ``poison`` fails
    like a singular one (raises, or comes out NaN), alone or as a slice
    of a stacked solve. Counts the failures."""

    def __init__(self, poison, raises):
        self.poison, self.raises, self.hits = poison, raises, 0
        self.solve = np.linalg.solve

    def __call__(self, a, b):
        hit = [np.array_equal(s, self.poison) for s in np.reshape(a, (-1,) + a.shape[-2:])]
        if not any(hit):
            return self.solve(a, b)
        self.hits += 1
        if self.raises:
            raise np.linalg.LinAlgError("Singular matrix")
        out = self.solve(a, b)
        out[np.array(hit) if a.ndim == 3 else ...] = np.nan
        return out


def outcome(solve):
    """solve()'s result, or the RuntimeWarning it raises (this suite turns
    RuntimeWarnings into errors)."""
    try:
        return solve()
    except RuntimeWarning as exc:
        return exc


@pytest.mark.parametrize("mode", [solver.MODE_SUM_LOG_WIDTH, solver.MODE_SUM_LOG_BOTH])
@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 3),
                  extra=st.integers(0, 5), raises=st.booleans(),
                  kinds=st.lists(st.sampled_from(["interior", "pinned"]), max_size=4))
def test_log_volume_batch_member_matches_solo_solve(mode, seed, k, extra, raises, kinds):
    # Every batch holds two live masks (interior and pinned), an
    # all-degenerate member, an unbounded one, one capped at MAX_ITER and
    # one whose first Newton matrix fails. When that solve raises, the
    # member takes _ipm's regularization retry. When it comes out NaN,
    # nothing retries: the NaN step makes the iterate non-finite, and the
    # member leaves through _ipm's divergence filter with MaxIter.
    rng = np.random.default_rng(seed)
    W = log_volume_rows(rng, k, extra)
    kinds = ["interior", "pinned", "degenerate", "unbounded", "interior"] + kinds
    D = np.array([log_volume_offsets(rng, W, kinds[i]) for i in rng.permutation(len(kinds))])
    ridged = next(i for i, d in enumerate(D) if np.all(np.isfinite(d)) and d[1] > 0)

    class FirstSolve(Exception):
        pass

    def first_solve(a, b):
        raise FirstSolve(np.array(a[0]))

    with mock.patch.object(np.linalg, "solve", first_solve), pytest.raises(FirstSolve) as first:
        maximize_log_volume_batch(W, D[ridged:ridged + 1], mode)
    singular = SingularAt(first.value.args[0], raises)
    loops = []
    ipm = solver._ipm
    with mock.patch.object(np.linalg, "solve", singular):
        its = outcome(lambda: [maximize_log_volume_batch(W, [d], mode)[0].iterations for d in D])
        cap = max(its) - 1 if isinstance(its, list) else solver.MAX_ITER
        with mock.patch.object(solver, "MAX_ITER", cap):
            solo = outcome(lambda: [maximize_log_volume_batch(W, [d], mode)[0] for d in D])
            singular.hits = 0
            with mock.patch.object(solver, "_ipm",
                                   lambda *a, **k: loops.append(1) or ipm(*a, **k)):
                batch = outcome(lambda: maximize_log_volume_batch(W, D, mode))
    if isinstance(solo, RuntimeWarning):
        # Some f2 members never converge and overflow on the way; the
        # batch must meet the same overflow.
        assert isinstance(batch, RuntimeWarning)
        return
    assert len(batch) == len(D)
    assert all(same_report(a, b) for a, b in zip(batch, solo))
    statuses = [r.status for r in batch]
    assert Status.UNBOUNDED in statuses and Status.MAXITER in statuses
    assert any(r.status == Status.OPTIMAL and not r.x.any() for r in batch)
    assert len(loops) == 2 and singular.hits >= 1
