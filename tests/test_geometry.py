import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from etrmpc import geometry, solver
from etrmpc.geometry import (HyperRect, Polytope, Projection, pontryagin_diff,
                             shape_ratios, supports)
from etrmpc.sim import DisturbanceModel, run_closed_loop
from etrmpc.tightening import build_setup, synthesize_nominal_gain, synthesize_tightening_gains

from batch_reactor import (X0, batch_plant, batch_setup, benchmark_workloads,
                           cross_polytope_setup, stage_sets)
from oracles import (enumerate_vertices, grid_projection, highs_chebyshev, highs_max,
                     highs_verdicts)


# Two rows in R^4 of norm near 2e3 with offsets near 1e-3, one negative.
LARGE_ROWS = np.array([
    [-225.64627420288653, -1294.066153858121, -1181.5497186139082, -639.7846246546997],
    [288.5441453773337, 1418.820852421519, 2315.9151836428996, 562.736400657831]])
SMALL_OFFSETS = np.array([-0.0007284410137566201, 0.0023443348312595074])


@st.composite
def scaled_polytopes(draw):
    """Rows and offsets of {x : A x <= b} in R^2 to R^4 with 1 to 12 normal
    rows, the rows and the offsets each scaled by 1e-3, 1 or 1e3; the
    offsets take both signs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(2, 4)), draw(st.integers(1, 12))
    row_scale, offset_scale = (draw(st.sampled_from([1e-3, 1.0, 1e3])) for _ in range(2))
    return rng.normal(size=(m, n)) * row_scale, rng.normal(size=m) * offset_scale


def unit_box(n=2, half=1.0):
    return HyperRect(-half * np.ones(n), half * np.ones(n))


def project(point, target, weight):
    """(d2, s) of one point's weighted projection, as a batch of one."""
    d2, S = Projection(target.A, [target.b], weight)([point])
    return d2[0], S[0]


def project_each(points, targets, weight):
    """(d2, S) of points[k] projected onto targets[k], through one
    Projection over the targets' shared rows."""
    assert all(np.array_equal(t.A, targets[0].A) for t in targets)
    return Projection(targets[0].A, [t.b for t in targets], weight)(points)


def cross_polytope(n=4, radius=0.02):
    """{w : ||w||_1 <= radius} as one row per sign vector."""
    A = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    return Polytope(A, np.full(len(A), radius))


def random_polytope(rng, n, m, duplicates, cuts):
    """A bounded polytope with small integer normals (so ties and
    degenerate vertices are common), ``duplicates`` repeated rows and
    ``cuts`` rows through a vertex, each of which leaves that vertex with
    more than n active rows."""
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    A = A[np.any(A != 0.0, axis=1)]
    b = A @ (0.2 * rng.integers(-2, 3, size=n)) + rng.integers(1, 4, size=len(A))
    A = np.vstack([A, np.eye(n), -np.eye(n)])
    b = np.concatenate([b, np.full(2 * n, 4.0)])
    rows = rng.integers(0, len(A), size=duplicates)
    A, b = np.vstack([A, A[rows]]), np.concatenate([b, b[rows]])
    for _ in range(cuts):
        V = enumerate_vertices(A, b)
        v, a = V[rng.integers(len(V))], rng.integers(-3, 4, size=n).astype(float)
        if np.min(V @ a) < a @ v - 0.1:  # keeps an interior
            A, b = np.vstack([A, a]), np.append(b, a @ v)
    return Polytope(A, b)


def chebyshev(poly):
    """Chebyshev center and radius of a polytope that holds the origin,
    from the split-form LP that ``shape_ratios`` poses: the optimal vertex
    (x+, x-, r) of ``solver.simplex_batch`` over the rows [A, -A, ||a||]."""
    n = poly.dim
    rows = np.hstack([poly.A, -poly.A, np.linalg.norm(poly.A, axis=1)[:, None]])
    rep = solver.simplex_batch(np.eye(2 * n + 1)[-1], rows, poly.b)[0]
    assert rep.status == solver.Status.OPTIMAL
    return rep.x[:n] - rep.x[n:2 * n], rep.x[-1]


class TestSupport:
    def test_box_axis_direction(self):
        assert supports(unit_box(), [[1.0, 0.0]])[0] == pytest.approx(1.0, abs=1e-8)

    def test_box_vertex_direction(self):
        assert supports(unit_box(), [[1.0, 1.0]])[0] == pytest.approx(2.0, abs=1e-8)

    def test_hyperrect_closed_form_is_exact(self):
        box = HyperRect([-0.3, -1.0], [0.7, 2.0])
        assert supports(box, [[2.0, -1.0]])[0] == 2.0 * 0.7 + (-1.0) * (-1.0)

    def test_random_polytopes_match_vertex_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.integers(4, 8)
            A = rng.normal(size=(m, 2))
            b = A @ (0.2 * rng.normal(size=2)) + rng.uniform(0.3, 1.2, size=m)
            A = np.vstack([A, np.eye(2), -np.eye(2)])
            b = np.concatenate([b, np.full(4, 4.0)])
            poly = Polytope(A, b)
            eta = rng.normal(size=2)
            expected = np.max(enumerate_vertices(A, b) @ eta)
            assert supports(poly, [eta])[0] == pytest.approx(expected, abs=1e-9)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(9)
        poly = unit_box(3, 1.5)
        for _ in range(10):
            eta = rng.normal(size=3)
            lam = float(rng.uniform(0.1, 7.0))
            assert supports(poly, [lam * eta])[0] == pytest.approx(
                lam * supports(poly, [eta])[0], rel=1e-7, abs=1e-9)

    def test_cross_polytope_closed_form(self):
        # h(eta) = r ||eta||_inf at the vertex r sign(eta_j) e_j, for
        # random, zero and tied directions, in one call.
        rng = np.random.default_rng(3)
        etas = np.vstack([rng.normal(size=(200, 4)), np.zeros((3, 4)),
                          [[1.0, 1.0, 0.0, 0.0], [1.0, -1.0, 1.0, -1.0],
                           [0.0, 0.0, 0.0, 3.0], [-2.0, 2.0, -2.0, 1.0],
                           [0.0, -0.5, 0.5, 0.0]],
                          rng.integers(-2, 3, size=(40, 4))])
        np.testing.assert_allclose(supports(cross_polytope(), etas),
                                   0.02 * np.max(np.abs(etas), axis=1),
                                   rtol=1e-15, atol=0.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3), m=st.integers(2, 6),
           duplicates=st.integers(0, 3), cuts=st.integers(0, 2))
    def test_random_polytopes_match_highs(self, seed, n, m, duplicates, cuts):
        # Integer, zero, facet-normal and random directions. Every value
        # matches HiGHS and equals its batch of one bit for bit, ties
        # included.
        pytest.importorskip("scipy")
        rng = np.random.default_rng(seed)
        poly = random_polytope(rng, n, m, duplicates, cuts)
        etas = np.vstack([rng.integers(-2, 3, size=(8, n)), np.zeros((1, n)),
                          poly.A[rng.integers(0, len(poly.A), size=4)],
                          rng.normal(size=(8, n))])
        etas = etas[rng.permutation(len(etas))]
        values = supports(poly, etas)
        for eta, value in zip(etas, values):
            expected = highs_max(eta, poly.A, poly.b)
            assert abs(value - expected) <= 1e-9 * (1.0 + abs(expected))
            assert supports(poly, [eta]).tobytes() == value.tobytes()

    def test_empty_and_unbounded_raise_with_zero_directions(self):
        empty = Polytope([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0])
        for etas in ([[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]):
            with pytest.raises(geometry.EmptySetError):
                supports(empty, etas)
        # Half-plane x1 <= 1 and quadrant x >= 0: neither has a vertex set,
        # so every direction set raises, even one whose values are finite.
        half = Polytope([[1.0, 0.0]], [1.0])
        quadrant = Polytope([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
        for poly in (half, quadrant):
            for etas in ([[0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]],
                         [[-1.0, -2.0], [0.0, 0.0]], [[-1.0, -2.0], [0.0, 0.0], [1.0, 0.0]]):
                with pytest.raises(geometry.UnboundedSupport):
                    supports(poly, etas)

    def test_vertices_match_enumeration_and_are_kept(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            poly = random_polytope(rng, 3, 5, 2, 1)
            V = poly.vertices()
            expected = enumerate_vertices(poly.A, poly.b)
            assert len(V) == len(expected)
            assert max(np.min(np.linalg.norm(expected - v, axis=1)) for v in V) <= 1e-12
            assert poly.vertices() is V

    def test_vertex_enumeration_over_the_subset_cap_raises(self):
        # 40 rows in 5-D: C(40, 5) = 658,008 subsets, above the cap of 100,000.
        A = np.vstack([np.random.default_rng(2).normal(size=(30, 5)), np.eye(5), -np.eye(5)])
        poly = Polytope(A, np.ones(40))
        with pytest.raises(geometry.GeometryError, match="658008"):
            poly.vertices()
        with pytest.raises(geometry.GeometryError, match="658008"):
            supports(poly, [np.ones(5)])

    def test_unbounded_direction_raises(self):
        # Half-plane x1 <= 1: unbounded along +x2.
        poly = Polytope([[1.0, 0.0]], [1.0])
        with pytest.raises(geometry.UnboundedSupport):
            supports(poly, [[0.0, 1.0]])

    def test_unbounded_after_iteration_cap_raises(self):
        # Unbounded along +x_2: no vertex set, whatever the direction.
        poly = Polytope([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0, 0.3])
        with pytest.raises(geometry.UnboundedSupport):
            supports(poly, [[0.5, 1.0]])


class TestPontryagin:
    def test_box_erosion_closed_form(self):
        res = pontryagin_diff(unit_box(2, 2.0), HyperRect([-0.5, -0.5], [0.5, 0.5]))
        expect = unit_box(2, 1.5)
        assert np.array_equal(res.A, expect.A)
        assert np.allclose(res.b, expect.b, atol=1e-12)

    def test_zero_set_is_identity(self):
        poly = Polytope([[1.0, 2.0], [-1.0, 0.5], [0.0, -1.0]], [1.0, 2.0, 3.0])
        res = pontryagin_diff(poly, HyperRect([0.0, 0.0], [0.0, 0.0]))
        assert np.array_equal(res.b, poly.b)

    def test_over_erosion_flags_empty(self):
        res = pontryagin_diff(unit_box(2, 1.0), HyperRect([-2.0, -2.0], [2.0, 2.0]))
        assert geometry.are_empty(res.A, res.b)[0]
        box = unit_box(2, 1.0)
        assert not geometry.are_empty(box.A, box.b)[0]

    def test_image_operand(self):
        # poly ominus (M W) uses support along M^T a.
        M = np.array([[2.0, 0.0], [0.0, 0.5]])
        res = pontryagin_diff(unit_box(2, 1.0), HyperRect([-0.1, -0.1], [0.1, 0.1]),
                              image=M)
        assert np.allclose(res.b, [0.8, 0.95, 0.8, 0.95], atol=1e-12)

    def test_polytope_subtrahend_via_lp(self):
        box = HyperRect([-0.25, -0.25], [0.25, 0.25])
        sub = Polytope(box.A, box.b)
        res = pontryagin_diff(unit_box(2, 1.0), sub)
        assert np.allclose(res.b, 0.75 * np.ones(4), atol=1e-7)

    def test_polytope_offsets_match_single_supports(self):
        # Every offset has the bits of its direction's supports call alone.
        rng = np.random.default_rng(23)
        poly = Polytope(np.vstack([rng.normal(size=(6, 3)), np.eye(3), -np.eye(3)]),
                        np.concatenate([rng.uniform(0.8, 2.0, size=6), np.full(6, 3.0)]))
        sub = Polytope(np.vstack([rng.normal(size=(4, 3)), np.eye(3), -np.eye(3)]),
                       np.concatenate([rng.uniform(0.1, 0.3, size=4), np.full(6, 0.2)]))
        image = rng.normal(size=(3, 3))
        res = pontryagin_diff(poly, sub, image=image)
        dirs = poly.A @ image
        single = np.array([supports(sub, [a])[0] for a in dirs])
        assert res.b.tobytes() == (poly.b - single).tobytes()
        assert supports(sub, dirs).tobytes() == single.tobytes()

    def test_erode_then_sum_is_inner(self):
        # Pontryagin property: x in poly (-) box and w in box give x + w in poly.
        rng = np.random.default_rng(17)
        poly = Polytope(np.vstack([rng.normal(size=(5, 2)), np.eye(2), -np.eye(2)]),
                        np.concatenate([rng.uniform(0.8, 2.0, size=5), np.full(4, 3.0)]))
        box = HyperRect([-0.2, -0.3], [0.25, 0.1])
        eroded = pontryagin_diff(poly, box)
        pts = rng.uniform(-3, 3, size=(1000, 2))
        inside = [p for p in pts if eroded.contains(p, tol=0.0)]
        assert len(inside) > 50
        for p in inside:
            for w in box.sample(rng, size=5):
                assert poly.contains(p + w, tol=1e-9)


class TestWeightedProjection:
    def test_interior_point(self):
        d2, s = project([0.1, -0.2], unit_box(), np.eye(2))
        assert d2 == 0.0
        assert np.allclose(s, [0.1, -0.2])

    def test_box_clamp(self):
        d2, s = project([2.0, 0.0], unit_box(), np.eye(2))
        assert d2 == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(s, [1.0, 0.0], atol=1e-9)

    def test_matches_grid_oracle(self):
        # Non-diagonal weight exercises the least-distance path; expected
        # value frozen from the dense grid oracle (grid_projection, n=201).
        M = np.array([[2.0, 0.5], [0.5, 1.0]])
        r = np.array([1.7, -1.3])
        d2, s = project(r, unit_box(), M)
        d_grid, _ = grid_projection(r, [-1.0, -1.0], [1.0, 1.0], M)
        assert d2 == pytest.approx(d_grid, abs=1e-3)
        assert d2 <= d_grid + 1e-9  # solve at least as good as grid

    def test_random_against_grid(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            root = rng.normal(size=(2, 2))
            M = root @ root.T + 0.5 * np.eye(2)
            r = rng.uniform(-3, 3, size=2)
            d2, s = project(r, unit_box(), M)
            d_grid, _ = grid_projection(r, [-1.0, -1.0], [1.0, 1.0], M, n=301)
            assert abs(d2 - d_grid) <= 1e-3 * max(1.0, d_grid)

    def test_projection_inside_target(self):
        d2, s = project([5.0, 5.0], unit_box(), np.array([[1.0, 0.2], [0.2, 2.0]]))
        assert unit_box().membership_residual(s) <= 1e-8

    def test_idempotent(self):
        M = np.array([[1.0, 0.3], [0.3, 2.0]])
        d2, s = project([3.0, -2.0], unit_box(), M)
        d2_again, s_again = project(s, unit_box(), M)
        assert d2_again <= 1e-9
        assert np.allclose(s_again, s, atol=1e-9)

    def test_rejects_indefinite_weight(self):
        with pytest.raises(ValueError):
            project([0.0, 0.0], unit_box(), [[1.0, 0.0], [0.0, -1.0]])

    @pytest.mark.parametrize("weight", [[[1.0, 0.0], [0.0, 0.0]],    # diagonal, singular
                                        [[1.0, 2.0], [2.0, 1.0]]])   # eigenvalues 3, -1
    def test_rejects_weight_not_positive_definite(self, weight):
        with pytest.raises(ValueError):
            project([0.0, 0.0], unit_box(), weight)

    def test_non_diagonal_weight_takes_qp_path(self, monkeypatch):
        calls = []
        least_distance = solver.least_distance

        def counting(A, b):
            calls.append(b)
            return least_distance(A, b)

        monkeypatch.setattr(solver, "least_distance", counting)
        M = np.array([[2.0, 0.5], [0.5, 1.0]])
        d2, s = project([1.7, -1.3], unit_box(), M)
        assert len(calls) == 1
        assert unit_box().membership_residual(s) <= 1e-8
        project([1.7, -1.3], unit_box(), np.diag([2.0, 1.0]))
        assert len(calls) == 1  # a diagonal weight clamps

    def test_empty_target_and_step_cap_raise(self, monkeypatch):
        # x <= -1 and -x <= -1 meet nowhere. From (3, 0), the projection
        # onto |x|_1 <= 1 needs two active-set steps: it stops at a cap of one.
        empty = Polytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                         [-1.0, -1.0, 1.0, 1.0])
        with pytest.raises(geometry.EmptySetError):
            project([0.0, 0.0], empty, np.eye(2))
        diamond = Polytope([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], [1.0] * 4)
        assert np.allclose(project([3.0, 0.0], diamond, np.eye(2))[1], [1.0, 0.0], atol=1e-12)
        monkeypatch.setattr(solver, "MAX_ITER", 1)
        with pytest.raises(geometry.GeometryError, match="step cap of 1"):
            project([3.0, 0.0], diamond, np.eye(2))


def stage_points(rng, targets, kinds):
    """One point per target: strictly inside, inside within FEAS_TOL past
    an upper or a lower bound, or outside above, below or on both sides."""
    tol = geometry.FEAS_TOL
    points = []
    for target, kind in zip(targets, kinds):
        box = target.as_box()
        lo, hi = box.lower, box.upper
        r = rng.uniform(lo, hi)
        j = rng.integers(r.size)
        if kind == "tol_above":
            r[j] = hi[j] + 0.5 * tol
        elif kind == "tol_below":
            r[j] = lo[j] - 0.5 * tol
        elif kind == "above":
            r[j] = hi[j] + rng.uniform(1e-6, 1.0)
        elif kind == "below":
            r[j] = lo[j] - rng.uniform(1e-6, 1.0)
        elif kind == "both":
            r = np.where(rng.random(r.size) < 0.5, hi + rng.uniform(0.1, 1.0, r.size),
                         lo - rng.uniform(0.1, 1.0, r.size))
        points.append(r)
    return np.array(points)


KINDS = ["inside", "tol_above", "tol_below", "above", "below", "both"]


def same_projection(d2, s, alone):
    return d2.tobytes() == alone[0].tobytes() and s.tobytes() == alone[1].tobytes()


class TestWeightedProjections:
    def test_stage_batch_matches_per_stage_bits(self, monkeypatch):
        # The reference plant's tightened targets are boxes and Q, R are
        # diagonal: one clamp over all stages, no least-distance solve.
        monkeypatch.setattr(solver, "least_distance", None)
        setup = batch_setup()
        rng = np.random.default_rng(41)
        for targets, M in ((stage_sets(setup, "TX"), setup.Q),
                           (stage_sets(setup, "TU"), setup.R)):
            for _ in range(4):
                kinds = [KINDS[i % len(KINDS)] for i in rng.permutation(len(targets))]
                P = stage_points(rng, targets, kinds)
                d2, S = project_each(P, targets, M)
                for k, (t, kind) in enumerate(zip(targets, kinds)):
                    assert same_projection(d2[k], S[k], project(P[k], t, M))
                    if kind.startswith("tol") or kind == "inside":
                        # Inside within FEAS_TOL: the point itself, unclipped.
                        assert d2[k] == 0.0 and S[k].tobytes() == P[k].tobytes()
                    else:
                        assert d2[k] > 0.0 and t.contains(S[k])

    @pytest.mark.parametrize("case", ["non_diagonal_weight", "polytopic_target"])
    def test_qp_path_per_stage(self, case, monkeypatch):
        calls = []
        least_distance = solver.least_distance

        def counting(A, b):
            calls.append(b)
            return least_distance(A, b)

        monkeypatch.setattr(solver, "least_distance", counting)
        if case == "non_diagonal_weight":
            targets, box_targets = stage_sets(batch_setup(), "TX"), None
            M = np.diag([2.0, 2.0, 2.0, 2.0]) + 0.3 * (np.eye(4, k=1) + np.eye(4, k=-1))
        else:
            targets = stage_sets(cross_polytope_setup(), "TX")
            M = np.diag([2.0, 1.0, 2.0, 1.0])
            box_targets = stage_sets(batch_setup(), "TX")
        rng = np.random.default_rng(43)
        kinds = [KINDS[i % len(KINDS)] for i in range(len(targets))]
        P = stage_points(rng, box_targets or targets, kinds)
        if box_targets is not None:
            P[[k for k, kind in enumerate(kinds) if kind == "inside"]] = 0.0
        outside = sum(not t.contains(r) for t, r in zip(targets, P))
        assert outside >= 3
        d2, S = project_each(P, targets, M)
        assert len(calls) == outside
        for k, t in enumerate(targets):
            assert same_projection(d2[k], S[k], project(P[k], t, M))
            assert t.membership_residual(S[k]) <= 1e-8
        assert len(calls) == 2 * outside


@functools.lru_cache(maxsize=None)
def kept_projections(case):
    """(Projection, targets, weight) of the two target families of a
    setup's RmpcQp: box targets with diagonal weights, a polytopic state
    target, or a non-diagonal Q."""
    if case == "box_diagonal":
        setup = batch_setup()
    elif case == "polytopic_target":
        setup = cross_polytope_setup()
    else:
        plant = batch_plant()
        F = synthesize_nominal_gain(plant, 2.0 * np.eye(4), 10.0 * np.eye(2))
        K = synthesize_tightening_gains(plant, M=4, N=10)
        Q = 2.0 * np.eye(4) + 0.3 * (np.eye(4, k=1) + np.eye(4, k=-1))
        setup = build_setup(plant, N=10, M=4, F=F, K=K, Q=Q, R=np.eye(2))
    return ((setup.qp.project_x, stage_sets(setup, "TX"), setup.Q),
            (setup.qp.project_u, stage_sets(setup, "TU"), setup.R))


# Where a point lies on the way from the middle of its target to a vertex:
# 0 at the middle, 1 at the vertex (within rounding), outside beyond.
TOWARDS_VERTEX = (st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-10, 1.0 + 1e-7, 2.0])
                  | st.floats(0.0, 3.0))


def towards_vertex(data, target, t):
    """c + t (v - c), c the mean of the target's vertices and v a drawn one."""
    V = target.vertices()
    c = V.mean(axis=0)
    return c + t * (V[data.draw(st.integers(0, len(V) - 1))] - c)


class TestKeptProjection:
    @pytest.mark.parametrize("case", ["box_diagonal", "polytopic_target",
                                      "non_diagonal_weight"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_matches_batch_of_one(self, case, data):
        # The setup's Projection of each family against a Projection of one
        # point onto one target, bit for bit: a clamp where the
        # targets are boxes and the weight diagonal, else a solve per point
        # outside. Stage 0's point is outside, stage 1's on the boundary.
        families = kept_projections(case)
        for proj, targets, M in families:
            ts = [2.0, 1.0] + [data.draw(TOWARDS_VERTEX) for _ in targets[2:]]
            P = np.array([towards_vertex(data, tg, t) for tg, t in zip(targets, ts)])
            d2, S = proj(P)
            assert proj.contains(P).tolist() == [t.contains(p) for t, p in zip(targets, P)]
            assert d2[0] > 0.0
            for k, t in enumerate(targets):
                assert same_projection(d2[k], S[k], project(P[k], t, M))
        (proj_x, _, _), (proj_u, _, _) = families
        assert proj_u.clamp.all()
        assert proj_x.clamp.all() == (case == "box_diagonal")
        assert proj_x.clamp.any() == (case == "box_diagonal")


def facet_points(rng, target):
    """Points on a facet of the target and inside its other rows, then
    each moved 1e-8 inward and outward along the facet's unit normal."""
    V = enumerate_vertices(target.A, target.b)
    points = []
    for i in rng.permutation(len(target.A))[:4]:
        on = V[np.abs(V @ target.A[i] - target.b[i]) <= 1e-9]
        if not len(on):
            continue  # a redundant row
        p = np.mean(on, axis=0)
        unit = target.A[i] / np.linalg.norm(target.A[i])
        points += [p, p - 1e-8 * unit, p + 1e-8 * unit]
    return points


class TestStackedMembership:
    """A ``Projection`` tests each point against its target in one stacked
    product over the shared rows; each answer is ``contains``'s."""

    @pytest.mark.parametrize("kind", ["box", "polytope"])
    def test_matches_contains_at_facets(self, kind):
        rng = np.random.default_rng(47)
        if kind == "box":
            setup = batch_setup()
            targets = stage_sets(setup, "TX") + stage_sets(setup, "TU")
        else:
            polys = [random_polytope(rng, n, 5, 1, 1) for n in (2, 3, 3)]
            targets = [Polytope(q.A, q.b - 0.05 * k) for q in polys for k in range(4)]
        assert all((t.as_box() is not None) == (kind == "box") for t in targets)
        pairs = [(t, r) for t in targets for r in facet_points(rng, t)]
        order = rng.permutation(len(pairs))  # the shared rows interleave
        for dim in {t.dim for t in targets}:
            ts, P = zip(*[pairs[k] for k in order if pairs[k][0].dim == dim])
            want = [t.contains(r) for t, r in zip(ts, P)]
            assert 0 < sum(want) < len(want)
            for A in {t.A.tobytes(): t.A for t in ts}.values():
                ks = [k for k, t in enumerate(ts) if np.array_equal(t.A, A)]
                proj = geometry.Projection(A, [ts[k].b for k in ks], np.eye(dim))
                assert proj.contains(np.array(P)[ks]).tolist() == [want[k] for k in ks]


class TestNonFiniteMembership:
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("kind", ["box", "cross_polytope"])
    def test_non_finite_point_is_outside(self, kind, value):
        # +inf (outside) with no RuntimeWarning; pytest makes one an error.
        P = HyperRect(-2 * np.ones(4), 2 * np.ones(4)) if kind == "box" else cross_polytope()
        for j in range(4):
            x = np.zeros(4)
            x[j] = value
            assert P.membership_residual(x) == np.inf
            assert not P.contains(x)
        assert P.contains(np.zeros(4))


class TestChebyshev:
    def test_box_center(self):
        center, radius = chebyshev(unit_box(2, 1.5))
        assert np.allclose(center, [0.0, 0.0], atol=1e-6)
        assert radius == pytest.approx(1.5, abs=1e-8)

    def test_offset_box(self):
        center, radius = chebyshev(
            HyperRect([-0.1, -1.0], [1.9, 1.0]))
        assert radius == pytest.approx(1.0, abs=1e-8)
        assert center[0] == pytest.approx(0.9, abs=1e-6)

    def test_triangle_closed_form(self):
        # Right triangle with legs 3 and 4: inradius (3 + 4 - 5) / 2 = 1.
        poly = Polytope([[-1.0, 0.0], [0.0, -1.0], [4.0, 3.0]],
                        [0.0, 0.0, 12.0])
        _, radius = chebyshev(poly)
        assert radius == pytest.approx(1.0, abs=1e-7)

    def test_empty_raises(self):
        # An empty set does not hold the origin.
        with pytest.raises(geometry.GeometryError, match="origin lies outside"):
            shape_ratios([[1.0], [-1.0]], [-1.0, -1.0])

    def test_batched_radii_match_highs(self):
        # 30 polytopes with one G and random offsets, origin inside; the
        # batched ratio times r_o is the Chebyshev radius. One member has
        # the origin on its boundary.
        pytest.importorskip("scipy")
        rng = np.random.default_rng(17)
        G = np.vstack([rng.normal(size=(8, 3)), np.eye(3), -np.eye(3)])
        norms = np.linalg.norm(G, axis=1)
        D = rng.uniform(0.05, 2.0, size=(30, G.shape[0]))
        D[11, 4] = 0.0
        ratios = shape_ratios(G, D)
        assert ratios[11] == np.inf
        for k, (d, ratio) in enumerate(zip(D, ratios)):
            if k == 11:
                continue
            r_origin = np.min(d / norms)
            assert ratio * r_origin == pytest.approx(highs_chebyshev(G, d), rel=1e-7, abs=1e-7)


class TestShapeRatio:
    def test_batch_matches_single_bit_for_bit(self):
        # Every ratio of a batch is the single-polytope ratio, in any order.
        rng = np.random.default_rng(43)
        G = np.vstack([rng.normal(size=(5, 2)), np.eye(2), -np.eye(2)])
        D = rng.uniform(0.1, 2.0, size=(6, G.shape[0]))
        D[2, 0] = 0.0
        single = [shape_ratios(G, d)[0] for d in D]
        assert shape_ratios(G, D) == single
        assert shape_ratios(G, D[::-1]) == single[::-1]
        assert shape_ratios(G, D[:0]) == []

    def test_symmetric_box_exact_one(self):
        poly = unit_box()
        assert shape_ratios(poly.A, poly.b)[0] == 1.0

    def test_offset_box_closed_form(self):
        poly = HyperRect([-0.1, -1.0], [1.9, 1.0])
        assert shape_ratios(poly.A, poly.b)[0] == pytest.approx(10.0, abs=1e-6)

    def test_origin_on_boundary_infinite(self):
        poly = HyperRect([0.0, -1.0], [2.0, 1.0])
        assert shape_ratios(poly.A, poly.b)[0] == np.inf

    @pytest.mark.parametrize("method", ["LP2", "CP1"])
    def test_reference_run_matches_highs(self, method, monkeypatch):
        # One call over every principal polytope of a reference run: each
        # inner ratio times r_o is the HiGHS Chebyshev radius to 1e-8
        # relative, with no interior-point LP and every simplex optimal.
        pytest.importorskip("scipy")
        trace = run_closed_loop(batch_setup(), X0, method,
                                DisturbanceModel("uniform", seed=1234), T=60)
        pps = [pp for sch in trace.schedules.values() for pp in sch.principals]
        G, D = pps[0].G, np.array([pp.d for pp in pps])
        lps, reports, simplex = [], [], solver.simplex_batch

        def recorded(*args):
            out = simplex(*args)
            reports.extend(out)
            return out

        monkeypatch.setattr(solver, "_ipm", lambda *a, **k: lps.append(a))
        monkeypatch.setattr(solver, "simplex_batch", recorded)
        ratios = shape_ratios(G, D)
        assert lps == []
        assert {rep.status for rep in reports} == {solver.Status.OPTIMAL}
        r_origin = np.min(D / np.linalg.norm(G, axis=1), axis=1)
        inner = np.flatnonzero(r_origin > 0.0)
        assert inner.size > 100
        for k in inner:
            assert ratios[k] * r_origin[k] == pytest.approx(highs_chebyshev(G, D[k]), rel=1e-8)

    def test_always_at_least_one(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            A = np.vstack([rng.normal(size=(5, 2)), np.eye(2), -np.eye(2)])
            b = np.concatenate([rng.uniform(0.1, 2.0, size=5), np.full(4, 3.0)])
            assert shape_ratios(A, b)[0] >= 1.0


class TestSetDifferenceBound:
    def test_set_difference_lower_bound_sampled(self):
        # d_M(r + c, B) <= d_M(r, B ominus C) for all c in C.
        rng = np.random.default_rng(55)
        for _ in range(10):
            n = 2
            root = rng.normal(size=(n, n))
            M = root @ root.T + 0.3 * np.eye(n)
            B = HyperRect(-rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n))
            C = HyperRect(-rng.uniform(0.05, 0.3, n), rng.uniform(0.05, 0.3, n))
            BmC_poly = pontryagin_diff(B, C)
            assert not geometry.are_empty(BmC_poly.A, BmC_poly.b)[0]
            r = rng.uniform(-3, 3, size=n)
            d_diff, _ = project(r, BmC_poly, M)
            for _ in range(100):
                c = C.sample(rng)
                d_shift, _ = project(r + c, B, M)
                assert d_shift <= d_diff + 1e-9


class TestTypes:
    def test_box_invariants(self):
        with pytest.raises(ValueError):
            HyperRect([1.0], [0.0])
        box = HyperRect([0.0], [0.0])  # zero width allowed
        assert (box.upper - box.lower)[0] == 0.0

    def test_box_to_polytope_layout(self):
        box = HyperRect([-1.0, -2.0], [3.0, 4.0])
        assert isinstance(box, Polytope) and box.as_box() is box
        assert np.array_equal(box.A, np.vstack([np.eye(2), -np.eye(2)]))
        assert np.array_equal(box.b, [3.0, 4.0, 1.0, 2.0])

    def test_as_box_detection(self):
        poly = Polytope([[2.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -4.0]],
                        [4.0, 1.0, 3.0, 8.0])
        box = poly.as_box()
        assert box is not None
        assert np.allclose(box.lower, [-3.0, -2.0])
        assert np.allclose(box.upper, [2.0, 1.0])
        assert Polytope([[1.0, 1.0], [-1.0, -1.0]], [1.0, 1.0]).as_box() is None

    def test_as_box_matches_per_row_bounds(self):
        # Duplicate and redundant rows, zero offsets of either sign and
        # open or crossed coordinates, against the tightest bound per
        # coordinate, taken row by row; the first of equal bounds wins.
        rng = np.random.default_rng(41)
        for _ in range(300):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 9))
            A = np.zeros((m, n))
            A[np.arange(m), rng.integers(0, n, size=m)] = rng.choice([-2.0, -1.0, 0.5, 1.0], m)
            b = rng.choice([-0.0, 0.0, 1.0, 0.5, -0.5], m)
            lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
            for row, off in zip(A, b):
                j = int(np.flatnonzero(row)[0])
                if row[j] > 0:
                    hi[j] = min(hi[j], off / row[j])
                else:
                    lo[j] = max(lo[j], off / row[j])
            box = Polytope(A, b).as_box()
            if np.all(np.isfinite(lo) & np.isfinite(hi)) and np.all(lo <= hi):
                assert box.lower.tobytes() == lo.tobytes()
                assert box.upper.tobytes() == hi.tobytes()
            else:
                assert box is None

    def test_polytope_validation(self):
        with pytest.raises(ValueError):
            Polytope([[np.inf, 0.0]], [1.0])
        with pytest.raises(ValueError):
            Polytope([[1.0, 0.0]], [1.0, 2.0])

    def test_immutability(self):
        poly = unit_box()
        with pytest.raises(ValueError):
            poly.A[0, 0] = 99.0

    def test_boundedness_probe(self):
        assert unit_box().is_bounded()
        assert not Polytope([[1.0, 0.0]], [1.0]).is_bounded()

    def test_emptiness_batch_in_order(self, monkeypatch):
        # x_0 in [-b_1, b_0] and x_1 in [-b_3, b_2]: members 1 and 3 empty.
        # Members 0 and 2 hold the origin (-0.0 >= 0), so they take no
        # solve; member 4, x_0 in [0.5, 1], leaves it out. Members 1, 3 and
        # 4 take one least-distance solve each, in order.
        A = np.vstack([np.eye(2)[0], -np.eye(2)[0], np.eye(2)[1], -np.eye(2)[1]])
        offsets = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, 0.5, 1.0, 1.0],
                            [0.0, -0.0, 0.0, 0.0], [1.0, 1.0, -2.0, 1.0],
                            [1.0, -0.5, 1.0, 1.0]])
        expected = [False, True, False, True, False]
        solved, least_distance = [], solver.least_distance
        monkeypatch.setattr(solver, "least_distance",
                            lambda A, b: solved.append(np.array(b)) or least_distance(A, b))
        assert geometry.are_empty(A, offsets) == expected
        assert np.array_equal(solved, offsets[[1, 3, 4]])
        assert [geometry.are_empty(A, b)[0] for b in offsets] == expected

    def test_benchmark_cross_polytope_is_not_empty(self):
        # ||w||_1 <= 0.02 as 16 rows: the origin witnesses the set, with
        # no solve.
        A, b = benchmark_workloads().cross_polytope_rows(4, 0.02)
        assert geometry.are_empty(np.array(A), [b]) == [False]

    def test_translated_cross_polytope_is_not_empty(self):
        # The same set moved by (0.05, 0, 0, 0), so that it no longer holds
        # the origin: the least-distance solve finds its point nearest the
        # origin, (0.03, 0, 0, 0).
        A, b = (np.array(v) for v in benchmark_workloads().cross_polytope_rows(4, 0.02))
        assert geometry.are_empty(A, [b + A @ [0.05, 0.0, 0.0, 0.0]]) == [False]

    def test_two_large_rows_with_small_offsets_are_not_empty(self):
        # Two halfspaces whose normals are not opposed always meet.
        assert geometry.are_empty(LARGE_ROWS, [SMALL_OFFSETS]) == [False]

    @settings(max_examples=200, deadline=None)
    @given(poly=scaled_polytopes())
    @example(poly=(LARGE_ROWS, SMALL_OFFSETS))
    def test_verdicts_match_highs(self, poly):
        # Emptiness and boundedness agree with HiGHS (``highs_verdicts``)
        # on every draw, rows and offsets each scaled over six decades.
        pytest.importorskip("scipy")
        A, b = poly
        empty, bounded = highs_verdicts(A, b)
        assert geometry.are_empty(A, [b]) == [empty]
        assert Polytope(A, b).is_bounded() == bounded

    def test_boundedness_matches_axis_lps(self):
        # The batched probe agrees with one LP per axis direction.
        rng = np.random.default_rng(29)
        for k in range(12):
            n = 2 + k % 2
            A = rng.normal(size=(2 + k % 4, n))
            b = A @ rng.normal(size=n) + rng.uniform(0.1, 1.0, size=A.shape[0])
            poly = Polytope(A, b)
            lp = solver.QpProblem(np.zeros((n, n)), A)
            per_axis = all(
                solver.solve_qp(lp, -sgn * e, b).status
                == solver.Status.OPTIMAL for e in np.eye(n) for sgn in (1.0, -1.0))
            assert poly.is_bounded() == per_axis
