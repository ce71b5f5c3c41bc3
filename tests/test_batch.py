"""Property test: a batched LP solve gives every member the bits it gets alone."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from etrmpc.solver import LpProblem, solve_lp, solve_lp_batch  # noqa: E402

from test_solver import same_report  # noqa: E402


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
    batch = solve_lp_batch(C, A, B)
    assert len(batch) == len(kinds)
    for (c, b), rep in zip(members, batch):
        assert same_report(rep, solve_lp(LpProblem(c=c, A=A, b=b)))
