import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etrmpc import geometry, solver, trigger
from etrmpc.cli import ExperimentConfig, cmd_run
from etrmpc.geometry import HyperRect
from etrmpc.rmpc import MpcSolution, solve_rmpc
from etrmpc.sim import DisturbanceModel, run_closed_loop
from etrmpc.tightening import (PlantModel, build_setup, synthesize_nominal_gain,
                               synthesize_tightening_gains)
from etrmpc.trigger import (CP1, CP2, LP1, LP2, PrincipalPolytope,
                            assemble_principal, build_schedule, construct_boxes,
                            extended_plan)

from batch_reactor import (X0, batch_setup, cross_polytope_setup, polytope_worst_case_data,
                           stage_sets)
from oracles import (grid_box_volume, highs_chebyshev, highs_lp1_scaling, highs_segment_length,
                     slsqp_lp1_centre)
from test_rmpc import stage_cost as rmpc_stage

CONFIG_PATH = "configs/batch_reactor.json"


# Hand-verified 2D polytopes (rows are in error coordinates, origin inside).
# Offset wedge: CP1 fills [0,3]x[-0.5,0.5] (vol1 = 3); the LP1 r-profile
# (3.1, 1) cannot reach that, its best is 2.903...
FIG1_STYLE_G = np.array([[-1.0, 0.0], [1.0, 0.0], [-0.5, 1.0], [-0.5, -1.0]])
FIG1_STYLE_D = np.array([0.1, 3.0, 0.5, 0.5])

# Cross-coupled wedge: the width-maximizing constructions zero the short
# sides (symmetry 0) while the two-sided constructions keep them positive.
ILL_SHAPED_G = np.array([[1.0, -2.0], [-2.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
                         [1.0, 0.0], [0.0, 1.0]])
ILL_SHAPED_D = np.array([1.0, 1.0, 0.1, 0.1, 3.0, 3.0])


def small_setup():
    A = np.array([[1.1, 0.4], [0.0, 0.9]])
    B = np.array([[0.0], [1.0]])
    plant = PlantModel(
        A, B,
        X=HyperRect([-3.0, -3.0], [3.0, 3.0]),
        U=HyperRect([-3.0], [3.0]),
        W=HyperRect([-0.02, -0.02], [0.02, 0.02]),
        Tx=HyperRect([-1.0, -1.0], [1.0, 1.0]),
        Tu=HyperRect([-2.0], [2.0]),
        Xf=HyperRect([-0.3, -0.3], [0.3, 0.3]))
    F = synthesize_nominal_gain(plant, np.eye(2), np.eye(1))
    K = synthesize_tightening_gains(plant, M=2, N=6)
    return build_setup(plant, N=6, M=2, F=F, K=K, Q=np.eye(2), R=np.eye(1))


def _candidate(setup, sol, j):
    """Candidate plan of splice index j: states, inputs, slack states and
    slack inputs, as windows at index j of the extended plan."""
    x, u, sx, su = extended_plan(setup, sol)
    N = setup.N
    return x[j:j + N + 1], u[j:j + N], sx[j:j + N], su[j:j + N]


class TestCandidates:
    def test_splice_boundary(self):
        setup = small_setup()
        sol = solve_rmpc(setup, [1.0, -0.5])
        for j in (1, 3, setup.N - 1):
            phi, u, _, _ = _candidate(setup, sol, j)
            assert np.array_equal(u[0], sol.u[j])
            assert np.array_equal(phi[0], sol.x[j])
            assert np.array_equal(phi[setup.N - j], sol.x[setup.N])

    def test_tail_is_nominal_feedback(self):
        setup = small_setup()
        sol = solve_rmpc(setup, [1.0, -0.5])
        j = 3
        phi, u, _, _ = _candidate(setup, sol, j)
        for i in range(setup.N - j, setup.N):
            assert np.allclose(u[i], setup.F @ phi[i], atol=1e-12)

    def test_zero_terminal_state_zero_tail(self):
        setup = small_setup()
        sol = solve_rmpc(setup, [0.0, 0.0])
        _, u, _, _ = _candidate(setup, sol, 2)
        assert np.max(np.abs(u[setup.N - 2:])) <= 1e-6

    def test_dynamic_consistency_batch_reactor(self):
        setup = batch_setup()
        sol = solve_rmpc(setup, X0)
        phi, u, _, _ = _candidate(setup, sol, 3)
        A, B = setup.plant.A, setup.plant.B
        for i in range(setup.N):
            resid = phi[i + 1] - (A @ phi[i] + B @ u[i])
            assert np.max(np.abs(resid)) <= 1e-9

    def test_slack_splice(self):
        setup = small_setup()
        sol = solve_rmpc(setup, [1.0, -0.5])
        j = 2
        phi, u, sx, su = _candidate(setup, sol, j)
        N = setup.N
        assert np.array_equal(sx[:N - j], sol.sx[j:])
        assert np.array_equal(su[:N - j], sol.su[j:])
        # Tail self-projections: points already inside the targets.
        TX, TU = stage_sets(setup, "TX"), stage_sets(setup, "TU")
        for i in range(N - j, N):
            assert np.array_equal(sx[i], phi[i])
            assert np.array_equal(su[i], u[i])
            assert TX[i].membership_residual(sx[i]) <= 1e-8
            assert TU[i].membership_residual(su[i]) <= 1e-8

    def test_index_range(self):
        # The extended plan holds full windows for j <= N-1 only, and the
        # assembly gives one row of offsets per j in [1, N-1].
        setup = small_setup()
        sol = solve_rmpc(setup, [0.5, 0.0])
        N = setup.N
        x, u, sx, su = extended_plan(setup, sol)
        assert len(x) == 2 * N and len(u) == len(sx) == len(su) == 2 * N - 1
        assert len(x[N:]) < N + 1 and len(u[N:]) < N
        assert assemble_principal(setup, sol).shape[0] == N - 1


class TestPrincipal:
    def test_scalar_hand_expansion(self):
        # X = [-1, 1], mapped one-to-one, candidate at 0.2:
        # support rows become vbar <= 0.8 and vund <= 1.2.
        (pp,) = construct_boxes(np.array([[1.0], [-1.0]]),
                                [np.array([1.0 - 0.2, 1.0 + 0.2])], LP2).principals
        assert np.allclose(pp.W, [[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(pp.d, [0.8, 1.2])

    def test_nilpotent_tail_rows_dropped(self):
        setup = small_setup()
        # Ltilde vanishes beyond M, so no rows from those stages survive.
        stages = {(fam, i) for tags in setup.principal_rows.meta for fam, i, _ in tags}
        for fam, i in stages:
            if fam in ("state", "slack_state"):
                assert i <= setup.M
            else:
                assert i <= setup.M  # Ktilde_i Ltilde_i = 0 beyond as well

    def test_vertex_rows_nonnegative(self):
        setup = small_setup()
        sol = solve_rmpc(setup, [1.0, -0.5])
        assert np.min(setup.principal_rows.W) >= 0.0
        assert np.min(assemble_principal(setup, sol)) >= 0.0

    def test_infeasible_candidate_detected(self):
        for method in trigger.METHODS:
            with pytest.raises(trigger.InfeasibleCandidate):
                construct_boxes(np.array([[1.0]]), [np.array([-1.0])], method)

    def test_rows_match_per_row_build(self):
        # The rows are the per-row build's distinct rows, in first-occurrence
        # order, each with the tags of its sources and exactly the least of
        # their offsets.
        cases = ((batch_setup(), (X0, [0.1, 0.1, -0.1, 0.1])),
                 (small_setup(), ([1.0, -0.5], [0.2, 0.1])),
                 (cross_polytope_setup(), (X0, [0.1, 0.1, -0.1, 0.1])))
        for setup, states in cases:
            rows = setup.principal_rows
            for x0 in states:
                sol = solve_rmpc(setup, x0)
                d = assemble_principal(setup, sol)
                plan = extended_plan(setup, sol)
                for j in range(1, setup.N):
                    W, dj, G, meta = _merged(*_per_row_principal(setup, plan, j))
                    for got, want in ((rows.W, W), (d[j - 1], dj), (rows.G, G)):
                        assert got.shape == want.shape
                        assert got.tobytes() == want.tobytes()
                    assert list(rows.meta) == meta
            assert np.any(sol.x[setup.N] != 0.0)  # the later state has a tail

    @pytest.mark.parametrize("make, rows", [(batch_setup, 56), (cross_polytope_setup, 136)])
    def test_no_two_rows_equal(self, make, rows):
        # Rows with equal normals are merged: on the reference setup the
        # state and slack_state facets share theirs, as do the input and
        # slack_input ones, so 112 facets give 56 rows.
        G = make().principal_rows.G
        assert len(G) == rows
        assert len(np.unique(G, axis=0)) == len(G)

    def test_infeasible_candidate_message(self):
        setup = batch_setup()
        sol = solve_rmpc(setup, X0)
        u = sol.u.copy()
        u[5] += 5.0
        bad = MpcSolution(u, sol.x, sol.sx, sol.su, sol.value, sol.stage_costs,
                          sol.kkt_residual)
        plan = extended_plan(setup, bad)
        with pytest.raises(trigger.InfeasibleCandidate) as want:
            for j in range(1, setup.N):
                _per_row_principal(setup, plan, j)
        with pytest.raises(trigger.InfeasibleCandidate) as got:
            assemble_principal(setup, bad)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("candidate j=1: input[4] violates facet ")

    def test_offset_within_tolerance_clips_to_zero(self):
        # u_5 just past facet 0 of U_4 (u_0 <= b_0), by less than the
        # feasibility tolerance: candidate 1 passes its check, and the
        # offset of that row is 0, not negative.
        setup = batch_setup()
        sol = solve_rmpc(setup, X0)
        u = sol.u.copy()
        u[5, 0] = setup.U_offsets[4, 0] + 5e-9
        near = MpcSolution(u, sol.x, sol.sx, sol.su, sol.value, sol.stage_costs,
                           sol.kkt_residual)
        d = assemble_principal(setup, near)
        (row,) = [r for r, tags in enumerate(setup.principal_rows.meta)
                  if ("input", 4, 0) in tags]
        assert d[0, row] == 0.0
        plan = extended_plan(setup, near)
        assert d[0].tobytes() == _merged(*_per_row_principal(setup, plan, 1))[1].tobytes()

    def test_violation_above_tolerance_names_its_facet(self):
        # u_5 past facet 0 of U_4 by 1e-6: above the feasibility
        # tolerance, so candidate 1 fails its check, though by far less
        # than 1e-3.
        setup = batch_setup()
        sol = solve_rmpc(setup, X0)
        u = sol.u.copy()
        u[5, 0] = setup.U_offsets[4, 0] + 1e-6
        far = MpcSolution(u, sol.x, sol.sx, sol.su, sol.value, sol.stage_costs,
                          sol.kkt_residual)
        with pytest.raises(trigger.InfeasibleCandidate,
                           match=r"^candidate j=1: input\[4\] violates facet 0 by 1\.000e-06$"):
            assemble_principal(setup, far)

    def test_rows_built_once_per_setup(self, monkeypatch):
        built = []
        init = trigger.PrincipalRows.__init__

        def counting(self, setup):
            built.append(setup)
            init(self, setup)

        monkeypatch.setattr(trigger.PrincipalRows, "__init__", counting)
        setup = small_setup()
        assert len(built) == 1
        sol = solve_rmpc(setup, [1.0, -0.5])
        sch = build_schedule(setup, sol, LP2)
        assert len(built) == 1
        for pp in sch.principals:
            assert pp.G is setup.principal_rows.G and pp.W is setup.principal_rows.W

    def test_one_assembly_per_trigger(self, monkeypatch):
        setup = small_setup()
        sol = solve_rmpc(setup, [1.0, -0.5])
        calls = {"assemble_principal": 0, "extended_plan": 0}
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(trigger, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(trigger, name, counting)
        for method in trigger.METHODS:
            build_schedule(setup, sol, method)
        # One assembly and one tail propagation per schedule, not one per j.
        assert calls == {"assemble_principal": 4, "extended_plan": 4}


def _per_row_principal(setup, plan, j):
    """Reference build of the principal rows of splice index j, one facet
    row at a time, from the windows at index j of the extended plan."""
    N = setup.N
    x, u, sx, su = (a[j:j + N] for a in plan)
    families = (
        ("state", x, stage_sets(setup, "X"), lambda i: setup.Ltilde[i]),
        ("input", u, stage_sets(setup, "U"), lambda i: setup.Ktilde[i] @ setup.Ltilde[i]),
        ("slack_state", sx, stage_sets(setup, "TX"), lambda i: setup.Ltilde[i]),
        ("slack_input", su, stage_sets(setup, "TU"),
         lambda i: setup.Ktilde[i] @ setup.Ltilde[i]),
    )
    Wrows, ds, Gs, meta = [], [], [], []
    for name, points, sets, mat in families:
        for i in range(setup.N):
            S = sets[i]
            Mhat = mat(i)
            offs = S.b - S.A @ points[i]
            bad = np.min(offs)
            if bad < -1e-8:
                raise trigger.InfeasibleCandidate(
                    f"candidate j={j}: {name}[{i}] violates facet {np.argmin(offs)} "
                    f"by {-bad:.3e}")
            if np.linalg.norm(Mhat, "fro") <= 1e-8:
                continue
            Gblock = S.A @ Mhat
            for r in range(S.A.shape[0]):
                g = Gblock[r]
                if np.all(g == 0.0):
                    continue
                Wrows.append(np.concatenate([np.maximum(g, 0.0), np.maximum(-g, 0.0)]))
                ds.append(max(offs[r], 0.0))
                Gs.append(g)
                meta.append((name, i, r))
    return np.array(Wrows), np.array(ds), np.array(Gs), meta


def _merged(W, d, G, meta):
    """A per-row build with its rows of bit-equal normal merged, row by
    row: the distinct rows in first-occurrence order, each offset the least
    of its sources' and each tag list the tuple of its sources' tags."""
    merged = {}
    for w, dr, g, tag in zip(W, d, G, meta):
        row = merged.setdefault(g.tobytes(), [w, dr, g, ()])
        row[1] = min(row[1], dr)
        row[3] += (tag,)
    W, d, G, meta = zip(*merged.values())
    return np.array(W), np.array(d), np.array(G), list(meta)


class TestNewtonSplit:
    def test_lps_eliminate_no_variable(self, monkeypatch):
        # Only a QpProblem looks for variables to eliminate, and the one LP
        # posed as a QpProblem is the setup's min-erosion LP, so no LP here
        # calls _rows_on.
        # LP1's scaling LPs (the simplex) and its centring (one
        # least-distance solve per polytope with a live coordinate), the
        # Chebyshev LPs of the shape diagnostic and the emptiness tests
        # (here over the box rows of the tightened targets, moved by
        # (1, 1, 1, 1) so that none holds the origin and each takes a
        # least-distance solve) run no interior-point loop at all.
        setup = batch_setup()
        for x in (X0, [0.1, 0.1, -0.1, 0.1]):
            sol = solve_rmpc(setup, x)
            split, loops, nearest = [], [], []
            ipm, least_distance = solver._ipm, solver.least_distance
            with monkeypatch.context() as m:
                m.setattr(solver, "_rows_on", lambda *a: split.append(a))
                m.setattr(solver, "_ipm", lambda *a, **k: loops.append(a) or ipm(*a, **k))
                m.setattr(solver, "least_distance",
                          lambda *a: nearest.append(a) or least_distance(*a))
                sched = build_schedule(setup, sol, LP1)
                live = sum(len(deg) < setup.nx for deg in sched.degenerate_coords)
                assert len(nearest) == live
                nearest.clear()
                geometry.shape_ratios(setup.principal_rows.G, sched.offsets)
                shift = setup.plant.Tx.A @ np.ones(setup.nx)
                offsets = setup.TX_offsets + shift
                assert geometry.are_empty(setup.plant.Tx.A, offsets) == [False] * len(offsets)
                assert len(nearest) == len(offsets)
            assert loops == []
            assert split == []
        assert live > 0  # the later state has live boxes


@pytest.fixture(scope="module")
def reference_rows():
    """The reference setup's rows with the offsets of the trigger at X0."""
    setup = batch_setup()
    return setup.principal_rows.G, assemble_principal(setup, solve_rmpc(setup, X0))


class TestConstructBoxes:
    SQUARE = np.vstack([np.eye(2), -np.eye(2)])

    def test_equal_rows_in_other_arrays_are_shared(self):
        # A batch of two polytopes over one copy of the rows: each box is
        # its batch of one's, built over rows in another array.
        D = np.array([np.ones(4), 2.0 * np.ones(4)])
        for method in trigger.METHODS:
            pair = construct_boxes(self.SQUARE, D, method)
            for i, d in enumerate(D):
                alone = construct_boxes(self.SQUARE.copy(), [d], method)
                assert alone.rows.W is not pair.rows.W
                assert pair.lower[i].tobytes() == alone.lower[0].tobytes()
                assert pair.upper[i].tobytes() == alone.upper[0].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(["fig1", "ill_shaped", "square", "reference"]),
           pick=st.integers(0, 10**6),
           extra=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0)), min_size=9,
                          max_size=9))
    def test_appended_copy_of_a_row_changes_no_box(self, reference_rows, case, pick, extra):
        # A copy of row r with offsets at least row r's (per polytope) is the
        # same set, and it merges into row r: every method gives the same
        # bytes with the copy appended as without it.
        G, D = {"fig1": (FIG1_STYLE_G, [FIG1_STYLE_D]),
                "ill_shaped": (ILL_SHAPED_G, [ILL_SHAPED_D]),
                "square": (self.SQUARE, [np.ones(4), [0.5, 2.0, 1.0, 0.0]]),
                "reference": reference_rows}[case]
        G, D = np.asarray(G), np.asarray(D, dtype=float)
        r = pick % len(G)
        G2 = np.vstack([G, G[r]])
        D2 = np.hstack([D, D[:, r:r + 1] + np.array(extra[:len(D)])[:, None]])
        for method in trigger.METHODS:
            want, got = construct_boxes(G, D, method), construct_boxes(G2, D2, method)
            for name in ("lower", "upper", "vol1", "vol2"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert got.degenerate_coords == want.degenerate_coords
            assert got.rows.meta[r] == (("raw", 0, r), ("raw", 0, len(G)))

    def test_offsets_must_match_the_rows(self):
        with pytest.raises(ValueError, match="^offsets of width 3 for 4 rows$"):
            construct_boxes(self.SQUARE, [np.ones(3)], LP2)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="^unknown construction method 'CP3'$"):
            construct_boxes(self.SQUARE, [np.ones(4)], "CP3")

    @staticmethod
    def trigger_offsets(setup, x0):
        return assemble_principal(setup, solve_rmpc(setup, x0))

    @pytest.mark.parametrize("method", trigger.METHODS)
    def test_setup_rows_by_hand_match_build_schedule(self, method):
        # The setup's rows written by hand, with a trigger's offsets, give
        # build_schedule's boxes, volumes and degenerate lists.
        setup = batch_setup()
        for x0 in (X0, [0.1, 0.1, -0.1, 0.1]):
            sol = solve_rmpc(setup, x0)
            got = construct_boxes(setup.principal_rows.G, assemble_principal(setup, sol), method)
            want = build_schedule(setup, sol, method)
            for name in ("lower", "upper", "vol1", "vol2"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert got.degenerate_coords == want.degenerate_coords

    @pytest.mark.parametrize("method", trigger.METHODS)
    def test_each_box_equals_its_batch_of_one(self, method):
        # The N-1 boxes of a trigger from the reference state (CP2 leaves
        # some of them zero) and from states nearer the origin: every row
        # of the schedule (box, volumes, degenerate list) is its batch of
        # one's.
        setup = batch_setup()
        live = 0
        G = setup.principal_rows.G
        for x0 in (X0, [0.1, 0.1, -0.1, 0.1], 0.3 * X0, 0.05 * X0):
            D = self.trigger_offsets(setup, x0)
            sch = construct_boxes(G, D, method)
            assert len(sch.lower) == len(D)
            for i, d in enumerate(D):
                alone = construct_boxes(G, [d], method)
                for name in ("lower", "upper", "vol1", "vol2"):
                    got, want = getattr(sch, name)[i], getattr(alone, name)[0]
                    assert got.tobytes() == want.tobytes(), name
                assert sch.degenerate_coords[i] == alone.degenerate_coords[0]
            assert np.array_equal(sch.vol1, np.prod(sch.upper - sch.lower, axis=1))
            assert np.array_equal(sch.vol2, np.prod(-sch.upper * sch.lower, axis=1))
            live += np.count_nonzero(sch.vol1 > 0.0)
        assert 0 < live < 4 * (setup.N - 1)

    @pytest.mark.parametrize("method", trigger.METHODS)
    def test_corrupted_polytope_names_first_failing_j(self, method):
        # The polytopes of j=3 and j=6 lose every row (infinite offsets),
        # so no box coordinate of theirs is bounded: j=3 is named.
        setup = batch_setup()
        D = self.trigger_offsets(setup, [0.1, 0.1, -0.1, 0.1])
        for j in (3, 6):
            D[j - 1] = np.inf
        with pytest.raises(trigger.TriggerError,
                           match=r"^j=3: principal polytope leaves a box coordinate unbounded$"):
            construct_boxes(setup.principal_rows.G, D, method)

    @pytest.mark.parametrize("method", trigger.METHODS)
    def test_origin_outside_names_its_j_before_any_solve(self, method, monkeypatch):
        # Row 0 of j=3 and of j=6 holds the origin out by 1e-3: every
        # method names j=3 from the offsets, and no solver runs.
        setup = batch_setup()
        D = self.trigger_offsets(setup, [0.1, 0.1, -0.1, 0.1])
        for j in (3, 6):
            D[j - 1, 0] = -1e-3
        for name in ("maximize_log_volume_batch", "_ipm", "coordinate_widths"):
            monkeypatch.setattr(solver, name, None)
        with pytest.raises(trigger.TriggerError,
                           match=r"^j=3: origin outside principal row 0 by 1\.000e-03$") as err:
            construct_boxes(setup.principal_rows.G, D, method)
        assert isinstance(err.value, trigger.InfeasibleCandidate)

    @pytest.mark.parametrize("fault", ["nan", "inverted"])
    def test_unchecked_box_names_its_j(self, fault, monkeypatch):
        # LP2's builder returns box j=3 with a NaN bound or with lower above
        # upper (and j=5 doubled, outside its rows): j=3 is named.
        setup = batch_setup()
        D = self.trigger_offsets(setup, [0.1, 0.1, -0.1, 0.1])
        build = trigger._lp2_boxes

        def faulty(*args):
            lower, upper, degenerate, error = build(*args)
            lower, upper = lower.copy(), upper.copy()
            if fault == "nan":
                upper[2, 0] = np.nan
            else:
                lower[2] = upper[2] + 1.0
            lower[4], upper[4] = 2.0 * lower[4], 2.0 * upper[4]
            return lower, upper, degenerate, error

        monkeypatch.setattr(trigger, "_lp2_boxes", faulty)
        with pytest.raises(trigger.TriggerError,
                           match=r"^j=3: built box is not finite with lower <= upper$"):
            construct_boxes(setup.principal_rows.G, D, LP2)

    def test_schedule_builds_no_per_j_objects(self, monkeypatch):
        # A trigger's schedule is its stacked arrays: no HyperRect and no
        # PrincipalPolytope is constructed while it is built, only when a
        # reader asks for one.
        setup = batch_setup()
        sol = solve_rmpc(setup, [0.1, 0.1, -0.1, 0.1])
        built = []
        for cls in (HyperRect, PrincipalPolytope):
            def counting(self, *args, _init=cls.__init__):
                built.append(type(self).__name__)
                _init(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        for method in trigger.METHODS:
            sch = build_schedule(setup, sol, method)
            assert built == []
            sch.box(1)
            assert len(sch.boxes) == len(sch.principals) == setup.N - 1
            assert built.count("HyperRect") == setup.N
            assert built.count("PrincipalPolytope") == setup.N - 1
            built.clear()


class TestConstructCp:
    def test_symmetric_square_q2(self):
        res = construct_boxes(np.vstack([np.eye(2), -np.eye(2)]), [2.0 * np.ones(4)], CP2)
        assert np.allclose(res.box(1).lower, [-2.0, -2.0], atol=1e-6)
        assert np.allclose(res.box(1).upper, [2.0, 2.0], atol=1e-6)

    @pytest.mark.parametrize("q", [1, 2])
    def test_matches_grid_oracle(self, q):
        rng = np.random.default_rng(33)
        for _ in range(5):
            G = rng.normal(size=(5, 2))
            d = rng.uniform(0.4, 2.0, size=5)
            G = np.vstack([G, np.eye(2), -np.eye(2)])
            d = np.concatenate([d, np.full(4, 3.0)])
            res = construct_boxes(G, [d], (CP1, CP2)[q - 1])
            (pp,) = res.principals
            v1, v2 = volumes(res)
            got = v1 if q == 1 else v2
            mode = "sum_log_width" if q == 1 else "sum_log_both"
            best = grid_box_volume(pp.W, pp.d, mode, n=200)
            assert got >= 0.99 * best
            assert box_slack(pp, res.box(1)) >= -1e-8

    def test_cp1_width_volume_dominates_cp2(self):
        rng = np.random.default_rng(44)
        for _ in range(8):
            G = np.vstack([rng.normal(size=(4, 2)), np.eye(2), -np.eye(2)])
            d = np.concatenate([rng.uniform(0.3, 1.5, 4), np.full(4, 2.0)])
            v1_cp1, _ = volumes(construct_boxes(G, [d], CP1))
            v1_cp2, _ = volumes(construct_boxes(G, [d], CP2))
            assert v1_cp1 >= v1_cp2 - 1e-9

    def test_degenerate_coordinate_clamped(self):
        # Second coordinate has zero feasible width.
        G = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        d = np.array([1.0, 1.0, 0.0, 0.0])
        res = construct_boxes(G, [d], CP2)
        assert res.degenerate_coords[0] == [1]
        assert res.box(1).lower[1] == 0.0 and res.box(1).upper[1] == 0.0
        assert res.box(1).upper[0] == pytest.approx(1.0, abs=1e-6)

    def test_width_at_threshold_degenerate_for_cp_and_lp(self):
        # W = I: the one coordinate's upper side has a feasible width of
        # exactly DEGENERATE_WIDTH. CP2, whose pair width is the smaller
        # side, and LP2 both report the coordinate degenerate.
        for method in (CP2, LP2):
            sch = construct_boxes([[1.0], [-1.0]], [[1e-9, 1.0]], method)
            (pp,) = sch.principals
            assert np.array_equal(pp.W, np.eye(2)) and pp.d[0] == solver.DEGENERATE_WIDTH
            assert sch.degenerate_coords[0] == [0], method

    @pytest.mark.parametrize("method", [CP1, CP2])
    def test_reference_run_boxes_inside_rows_exactly(self, method):
        # The log-volume loop returns an interior iterate, so no nonzero box
        # of the seed-1234 reference run reaches past a principal row, not
        # even by rounding.
        trace = run_closed_loop(batch_setup(), X0, method,
                                DisturbanceModel("uniform", seed=1234), T=60)
        slacks = [box_slack(pp, box) for sch in trace.schedules.values()
                  for box, pp in zip(sch.boxes, sch.principals)
                  if box.lower.any() or box.upper.any()]
        assert len(slacks) > 100
        assert min(slacks) >= 0.0

    def test_iteration_cap_reported_and_box_accepted(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ITER", 5)
        res = construct_boxes(ILL_SHAPED_G, [ILL_SHAPED_D], CP2)
        (pp,) = res.principals
        (rep,) = solver.maximize_log_volume_batch(pp.W, [pp.d], solver.MODE_SUM_LOG_BOTH)
        assert rep.status == solver.Status.MAXITER
        assert rep.iterations == 5
        assert np.array_equal(res.box(1).upper, rep.x[:2])
        assert np.array_equal(res.box(1).lower, -rep.x[2:])
        assert res.degenerate_coords[0] == []
        assert box_slack(pp, res.box(1)) >= 0.0


class TestConstructLp:
    def test_symmetric_square_matches_cp(self):
        for method in (LP1, LP2):
            lp = construct_boxes(np.vstack([np.eye(2), -np.eye(2)]), [2.0 * np.ones(4)],
                                 method).box(1)
            assert np.allclose(lp.lower, [-2.0, -2.0], atol=1e-6)
            assert np.allclose(lp.upper, [2.0, 2.0], atol=1e-6)

    @pytest.mark.parametrize("q", [1, 2])
    def test_relaxation_dominance_random(self, q):
        rng = np.random.default_rng(55)
        for _ in range(10):
            G = np.vstack([rng.normal(size=(5, 2)), np.eye(2), -np.eye(2)])
            d = np.concatenate([rng.uniform(0.3, 1.8, 5), np.full(4, 2.5)])
            lp = construct_boxes(G, [d], (LP1, LP2)[q - 1])
            cp = construct_boxes(G, [d], (CP1, CP2)[q - 1])
            assert volumes(lp)[q - 1] <= volumes(cp)[q - 1] + 1e-9
            assert box_slack(lp.principals[0], lp.box(1)) >= -1e-8

    def test_fig1_style_lp1_strictly_below_cp1(self):
        cp = construct_boxes(FIG1_STYLE_G, [FIG1_STYLE_D], CP1)
        lp = construct_boxes(FIG1_STYLE_G, [FIG1_STYLE_D], LP1)
        # Hand-derived optima: CP1 fills [0,3]x[-0.5,0.5] (vol 3); the LP1
        # r-profile is (3.1, 1) and the scaling trade-off lambda(z1) =
        # min((3-z1)/3.1, 1+z1) peaks at z1 = -1/41, lambda = 40/41.
        assert volumes(cp)[0] == pytest.approx(3.0, rel=1e-6)
        assert volumes(lp)[0] == pytest.approx(3.1 * (40.0 / 41.0) ** 2, rel=1e-6)
        assert volumes(lp)[0] < volumes(cp)[0] - 1e-3

    def test_lp1_rounding_at_zero_offset_row_keeps_box(self, monkeypatch):
        # Row -e_0 <= 0 pins the lower end of coordinate 0 at the origin.
        # A centred point one ulp below t_0 = lam / 2, so z_0 = -6e-17
        # instead of 0, must not make the box shrink to the origin against
        # that row.
        G = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        least_distance = solver.least_distance

        def rounded(A, b):
            t, steps = least_distance(A, b)
            assert t[0] == 0.5  # lam = 1 and r_0 = 1: z_0 = r_0 (t_0 - lam / 2) = 0
            return np.array([np.nextafter(t[0], 0.0), t[1]]), steps

        monkeypatch.setattr(solver, "least_distance", rounded)
        sch = construct_boxes(G, [np.array([0.0, 1.0, 1.0, 1.0])], LP1)
        box = sch.box(1)
        assert box.lower[0] == 0.0
        assert volumes(sch)[0] == pytest.approx(2.0, rel=1e-6)
        assert box_slack(sch.principals[0], box) >= 0.0

    def test_lp1_centres_a_coordinate_of_tiny_side(self):
        # Four principal rows of the reference run (seed 1234, t=2, j=1,
        # one OpenBLAS thread). Coordinate 2 has a segment of 8e-9, so the
        # rows barely move with its t_2. With the bounds |t_j| <= lam / 2
        # in units of t, least_distance's active set became
        # ill-conditioned (cond 1e9) and it called the optimal face empty;
        # with the bounds in the state's units it finds the centre.
        pytest.importorskip("scipy")
        G = np.array([[-1.3874116639274961e-01, 1.3393228222008282e-02,
                       -5.0452193355143837e-02, 6.0081514323449832e-02],
                      [-1.0327909062412144e-09, 1.4565547323910466e-01,
                       3.8330387389763389e-02, 6.9761305283665764e-01],
                      [5.0180358642722722e-01, -4.1143768181930707e-01,
                       -4.5653790115596990e-02, -2.5398290437765443e+00],
                      [3.9930670489372311e+00, -2.2870350025874073e-01,
                       1.5505692474169985e+00, -7.2618756511953497e-01]])
        d = np.array([0.0, 3.0543356732692928e-10, 1.0143465328129413e+00,
                      1.5056807354388491e-01])
        sch = construct_boxes(G, [d], LP1)
        (pp,) = sch.principals
        r = _lp1_segments(pp)
        assert 1e-9 < r[2] < 1e-8 and sch.degenerate_coords == [[]]
        lam = highs_lp1_scaling(G, d, r, HIGHS_TIGHT)
        box = sch.box(1)
        assert np.allclose(box.upper - box.lower, lam * r, rtol=1e-9, atol=1e-12)
        assert np.allclose(0.5 * (box.lower + box.upper), slsqp_lp1_centre(G, d, r, lam),
                           rtol=0.0, atol=1e-7)

    def test_ill_shaped_symmetry_ordering(self):
        sym = {}
        boxes = {}
        for name, res in ((m, construct_boxes(ILL_SHAPED_G, [ILL_SHAPED_D], m))
                          for m in (CP1, CP2, LP1, LP2)):
            sym[name] = _symmetry(res.box(1))
            boxes[name] = res.box(1)
        # Hand-derived boxes: CP1/LP1 -> [0,1]^2, CP2 -> [-0.1,0.8]^2,
        # LP2 -> (1/1.2)*[-0.1,1]^2.
        assert np.allclose(boxes["CP1"].upper, [1.0, 1.0], atol=1e-5)
        assert np.allclose(boxes["CP2"].lower, [-0.1, -0.1], atol=1e-5)
        assert np.allclose(boxes["CP2"].upper, [0.8, 0.8], atol=1e-5)
        assert np.allclose(boxes["LP2"].upper, [1.0 / 1.2, 1.0 / 1.2], atol=1e-6)
        assert sym["CP2"] > sym["CP1"] + 0.05
        assert sym["LP2"] > sym["LP1"] + 0.05


def _random_lp1_polytope(rng, k):
    """Random bounded error rows with the origin inside; about one row in
    five has zero offset, and one coordinate is one-sided by an axis row
    with zero offset."""
    m = int(rng.integers(3, 8))
    G = rng.normal(size=(m, k))
    d = rng.uniform(0.2, 1.5, size=m) * (rng.random(m) > 0.2)
    side = np.zeros((1, k))
    side[0, rng.integers(k)] = rng.choice([-1.0, 1.0])
    G = np.vstack([G, side, np.eye(k), -np.eye(k)])
    d = np.concatenate([d, [0.0], np.full(2 * k, 2.0)])
    return G, d


@pytest.fixture(scope="module")
def lp1_polytopes(tmp_path_factory):
    """(G, d) of 30 random polytopes (``_random_lp1_polytope``) and of
    every polytope of the first 20 steps of the reference LP1 run."""
    rng = np.random.default_rng(78)
    polytopes = [_random_lp1_polytope(rng, int(rng.integers(2, 5))) for _ in range(30)]
    config = ExperimentConfig.from_file(CONFIG_PATH)
    trace, _ = cmd_run(config, out_dir=tmp_path_factory.mktemp("lp1"), method=LP1, steps=20,
                       out=io.StringIO())
    for sch in trace.schedules.values():
        polytopes.extend((sch.rows.G, d) for d in sch.offsets)
    return polytopes


class TestLpOracles:
    def test_segment_lengths_match_highs(self):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(66)
        for _ in range(30):
            k = int(rng.integers(2, 5))
            sch = construct_boxes(*_random_lp1_polytope(rng, k), LP1)
            (pp,) = sch.principals
            w = solver.coordinate_widths(pp.W, pp.d)
            omega = np.array([highs_segment_length(pp.G, pp.d, j) for j in range(k)])
            assert np.allclose(w[:k] + w[k:], omega, rtol=1e-9, atol=1e-12)
            degenerate = np.flatnonzero(omega <= 1e-9).tolist()
            assert sch.degenerate_coords[0] == degenerate

    def test_scaling_lp_matches_highs(self, lp1_polytopes):
        pytest.importorskip("scipy")
        for G, d in lp1_polytopes:
            sch = construct_boxes(G, [d], LP1)
            (pp,) = sch.principals
            r = _lp1_segments(pp)
            lam = highs_lp1_scaling(pp.G, pp.d, r, HIGHS_TIGHT) if np.any(r > 0) else 0.0
            box = sch.box(1)
            assert np.allclose(box.upper - box.lower, lam * r, rtol=1e-9, atol=1e-12)
            assert box_slack(pp, box) >= 0.0

    def test_centre_matches_slsqp(self, lp1_polytopes):
        # Each box's centre is the one nearest the origin in units of its
        # sides among the boxes of HiGHS's optimal scaling. On the random
        # polytopes the optimal box is unique; on most of the reference
        # run's it is not, and the centring picks one.
        pytest.importorskip("scipy")
        checked = 0
        for G, d in lp1_polytopes:
            sch = construct_boxes(G, [d], LP1)
            (pp,) = sch.principals
            r = _lp1_segments(pp)
            if not np.any(r > 0):
                continue
            lam = highs_lp1_scaling(pp.G, pp.d, r, HIGHS_TIGHT)
            box = sch.box(1)
            centre = slsqp_lp1_centre(pp.G, pp.d, r, lam)
            assert np.allclose(0.5 * (box.lower + box.upper), centre, rtol=0.0, atol=1e-7)
            checked += 1
        assert checked >= 80

    def test_bounds_do_not_depend_on_row_order(self, lp1_polytopes):
        rng = np.random.default_rng(79)
        for G, d in lp1_polytopes:
            base = construct_boxes(G, [d], LP1)
            for _ in range(3):
                perm = rng.permutation(len(G))
                sch = construct_boxes(G[perm], [d[perm]], LP1)
                assert np.allclose(sch.lower, base.lower, rtol=0.0, atol=1e-12)
                assert np.allclose(sch.upper, base.upper, rtol=0.0, atol=1e-12)


HIGHS_TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _lp1_segments(pp):
    """LP1's segment lengths r, zero below the degenerate threshold."""
    w = solver.coordinate_widths(pp.W, pp.d)
    k = pp.G.shape[1]
    r = w[:k] + w[k:]
    r[r <= 1e-9] = 0.0
    return r


def volumes(sch):
    """(vol_1, vol_2) of the one box of a schedule."""
    return float(sch.vol1[0]), float(sch.vol2[0])


def box_slack(pp, box):
    """min over rows of d - w.[vbar; vund]; >= 0 certifies the box."""
    return float(np.min(pp.d - pp.W @ np.concatenate([box.upper, -box.lower])))


def _symmetry(box):
    lo, hi = np.abs(box.lower), np.abs(box.upper)
    top = np.maximum(lo, hi)
    bot = np.minimum(lo, hi)
    vals = np.where(top > 0, bot / np.where(top > 0, top, 1.0), 1.0)
    return float(np.mean(vals))


@pytest.fixture(scope="module")
def sched_all():
    setup = batch_setup()
    sol = solve_rmpc(setup, X0)
    return setup, sol, {m: build_schedule(setup, sol, m) for m in trigger.METHODS}


class TestSchedule:

    def test_has_one_box_per_nonzero_step(self, sched_all):
        setup, _, schedules = sched_all
        for sch in schedules.values():
            assert len(sch.boxes) == setup.N - 1  # E_0 is all of R^nx

    def test_origin_in_every_box(self, sched_all):
        _, _, schedules = sched_all
        for sch in schedules.values():
            for box in sch.boxes:
                assert np.all(box.lower <= 0.0) and np.all(box.upper >= 0.0)

    def test_constraint_certification(self, sched_all):
        _, _, schedules = sched_all
        for sch in schedules.values():
            for j, box in enumerate(sch.boxes, start=1):
                assert box_slack(sch.principals[j - 1], box) >= -1e-8

    def test_relaxation_dominance_per_step(self, sched_all):
        _, _, s = sched_all
        for j in range(len(s["CP1"].boxes)):
            assert s["LP1"].vol1[j] <= s["CP1"].vol1[j] + 1e-9
            assert s["LP2"].vol2[j] <= s["CP2"].vol2[j] + 1e-9

    def test_boxes_open_up_near_convergence(self, sched_all):
        setup, _, schedules = sched_all
        sol_near = solve_rmpc(setup, [0.1, 0.1, -0.1, 0.1])
        sch = build_schedule(setup, sol_near, CP1)
        assert all(v > 1e-6 for v in sch.vol1)

    def test_candidate_feasibility_for_sampled_errors(self, sched_all):
        setup, sol, schedules = sched_all
        rng = np.random.default_rng(7)
        sch = schedules[CP1]
        U, X = stage_sets(setup, "U"), stage_sets(setup, "X")
        for j in range(1, setup.N):
            box = sch.box(j)
            phi, u, _, _ = _candidate(setup, sol, j)
            for _ in range(100):
                e = box.sample(rng)
                for i in range(setup.N):
                    u_c = u[i] + setup.Ktilde[i] @ setup.Ltilde[i] @ e
                    x_c = phi[i] + setup.Ltilde[i] @ e
                    assert U[i].membership_residual(u_c) <= 1e-7
                    assert X[i].membership_residual(x_c) <= 1e-7

    def test_lp1_box_kept_at_zero_offset_rows(self, sched_all):
        # At j=5 the LP1 scaling point meets principal rows with zero
        # offset; rounding there once shrank this box to the origin.
        _, _, schedules = sched_all
        assert schedules[LP1].vol1[4] == pytest.approx(4.809e-6, rel=1e-3)

    def test_no_shape_ratio_while_building(self, sched_all, monkeypatch, tmp_path):
        # No Chebyshev LP while boxes are built: the only simplex calls
        # there are LP1's scaling LPs, each with rows of its own, where the
        # Chebyshev LPs share theirs. One shape diagnostic call per
        # cmd_run, over every schedule of the run.
        setup, sol, _ = sched_all
        simplex, shape_ratios = solver.simplex_batch, geometry.shape_ratios
        lps, calls = [], []

        def forbidden(*args):
            raise AssertionError("shape diagnostic called while building boxes")

        monkeypatch.setattr(solver, "simplex_batch", lambda *a: lps.append(a) or simplex(*a))
        with monkeypatch.context() as m:
            m.setattr(geometry, "shape_ratios", forbidden)
            for method in trigger.METHODS:
                build_schedule(setup, sol, method)
                assert (len(lps) > 0) == (method == LP1)
                assert all(np.ndim(args[1]) == 3 for args in lps)
                lps.clear()
        monkeypatch.setattr(geometry, "shape_ratios",
                            lambda *a: calls.append(a) or shape_ratios(*a))
        config = ExperimentConfig.from_file(CONFIG_PATH)
        for n, method in enumerate(trigger.METHODS, start=1):
            trace, _ = cmd_run(config, out_dir=tmp_path / method, method=method, steps=3,
                               out=io.StringIO())
            assert len(calls) == n
            assert np.size(calls[-1][1]) == sum(s.offsets.size for s in trace.schedules.values())
        assert any(np.ndim(args[1]) == 2 for args in lps)

    def test_dict_shape_ratio_per_principal(self, tmp_path):
        # Every ratio cmd_run writes, from its one call over the run, equals
        # its polytope's batch of one, bit for bit.
        config = ExperimentConfig.from_file(CONFIG_PATH)
        for method in trigger.METHODS:
            trace, _ = cmd_run(config, out_dir=tmp_path / method, method=method, steps=10,
                               out=io.StringIO())
            written = json.loads((tmp_path / method / "schedules.json").read_text())
            for t, sch in trace.schedules.items():
                ratios = [b["shape_ratio"] for b in written["per_trigger"][str(t)]["boxes"]]
                single = [geometry.shape_ratios(pp.G, pp.d)[0] for pp in sch.principals]
                assert ratios == [None if r == np.inf else r for r in single]

    def test_polytopic_run_ratios_match_highs(self, tmp_path):
        # LP2 on the polytopic worst-case config past its t=1 trigger, whose
        # j=4 ratio a dual-vertex cache once left 5.4e-8 low: every finite
        # ratio written, times r_o, is the HiGHS Chebyshev radius to 1e-10.
        pytest.importorskip("scipy")
        path = tmp_path / "polytope.json"
        path.write_text(json.dumps(polytope_worst_case_data()))
        trace, _ = cmd_run(ExperimentConfig.from_file(path), out_dir=tmp_path / "out",
                           method=LP2, steps=3, out=io.StringIO())
        assert 1 in trace.schedules
        written = json.loads((tmp_path / "out" / "schedules.json").read_text())["per_trigger"]
        checked = 0
        for t, sch in trace.schedules.items():
            G = sch.rows.G
            for d, box in zip(sch.offsets, written[str(t)]["boxes"]):
                if box["shape_ratio"] is not None:
                    radius = box["shape_ratio"] * np.min(d / np.linalg.norm(G, axis=1))
                    assert radius == pytest.approx(highs_chebyshev(G, d), rel=1e-10, abs=0.0)
                    checked += 1
        assert checked >= 9

    def test_unknown_method_rejected(self, sched_all):
        setup, sol, _ = sched_all
        with pytest.raises(ValueError):
            build_schedule(setup, sol, "CP3")

    @pytest.mark.parametrize("method", [CP1, CP2, LP1])
    def test_one_batched_solve_matches_per_j_route(self, sched_all, method, monkeypatch):
        # CP makes one log-volume batch per trigger; LP1 one simplex call
        # per active mask, where each polytope of a trigger has its own LP
        # rows. Each box equals its polytope's built alone.
        setup, sol, _ = sched_all
        batched = "simplex_batch" if method == LP1 else "maximize_log_volume_batch"
        batch = getattr(solver, batched)
        calls = []

        def counting(*args):
            calls.append(args)
            return batch(*args)

        for s in (sol, solve_rmpc(setup, [0.1, 0.1, -0.1, 0.1])):
            plan = extended_plan(setup, s)
            pps = [PrincipalPolytope(*_per_row_principal(setup, plan, j))
                   for j in range(1, setup.N)]
            per_j = [construct_boxes(pp.G, [pp.d], method) for pp in pps]
            with monkeypatch.context() as m:
                m.setattr(solver, batched, counting)
                sch = build_schedule(setup, s, method)
            if method == LP1:
                masks = {tuple(r > 0.0) for r in map(_lp1_segments, pps) if np.any(r > 0.0)}
                assert len(masks) >= 1
                assert len(calls) == len(masks)
                assert all(args[1].ndim == 3 for args in calls)  # rows per problem
            else:
                assert len(calls) == 1
            calls.clear()
            for box, deg, res in zip(sch.boxes, sch.degenerate_coords, per_j):
                assert box.lower.tobytes() == res.box(1).lower.tobytes()
                assert box.upper.tobytes() == res.box(1).upper.tobytes()
                assert deg == res.degenerate_coords[0]
        assert any(v > 1e-6 for v in sch.vol1)  # the later state has live boxes

    @pytest.mark.parametrize("method, builder", [(CP1, "_cp_boxes"), (CP2, "_cp_boxes"),
                                                 (LP1, "_lp1_boxes"), (LP2, "_lp2_boxes")])
    def test_box_outside_rows_fails_certification(self, sched_all, method, builder,
                                                  monkeypatch):
        # The boxes of j=3 and j=5 come back scaled by 2, so they leave
        # their rows; the first of them is named.
        setup, _, _ = sched_all
        sol = solve_rmpc(setup, [0.1, 0.1, -0.1, 0.1])
        build = getattr(trigger, builder)

        def doubled_at_j3_and_j5(*args):
            lower, upper, degenerate, error = build(*args)
            scale = np.ones((len(lower), 1))
            scale[[2, 4]] = 2.0
            return scale * lower, scale * upper, degenerate, error

        monkeypatch.setattr(trigger, builder, doubled_at_j3_and_j5)
        with pytest.raises(trigger.TriggerError,
                           match=r"^j=3: built box violates principal rows by"):
            build_schedule(setup, sol, method)

    def test_failing_batch_member_keeps_its_splice_index(self, sched_all, monkeypatch):
        setup, sol, _ = sched_all
        batch = solver.maximize_log_volume_batch

        def unbounded_at_j4(W, d, mode):
            reports = batch(W, d, mode)
            reports[3] = solver.SolveReport(solver.Status.UNBOUNDED, None, None, np.inf, 0)
            return reports

        monkeypatch.setattr(solver, "maximize_log_volume_batch", unbounded_at_j4)
        with pytest.raises(trigger.TriggerError, match=r"^j=4: .*unbounded"):
            build_schedule(setup, sol, CP2)

    def test_failing_lp1_member_keeps_its_splice_index(self, sched_all, monkeypatch):
        # The scaling LP of j=4, found by its offsets, comes back at the
        # pivot cap from a batch shared with other splice indices (with its
        # vertex and a zero residual: only OPTIMAL builds a box), and the
        # polytope of j=6 leaves a coordinate unbounded. j=4 fails first,
        # as on a route that builds and solves one j at a time.
        setup, _, _ = sched_all
        sol = solve_rmpc(setup, [0.1, 0.1, -0.1, 0.1])
        d = assemble_principal(setup, sol)
        batch, widths = solver.simplex_batch, solver.coordinate_widths
        hits = []

        def infeasible_at_j4(c, A, b):
            reports = batch(c, A, b)
            for i, bk in enumerate(b):
                if np.array_equal(bk[:d.shape[1]], d[3]):
                    hits.append(len(b))
                    reports[i] = solver.SolveReport(solver.Status.MAXITER, reports[i].x,
                                                    reports[i].objective, 0.0, solver.MAX_ITER)
            return reports

        def unbounded_at_j6(W, D):
            w = widths(W, D)
            w[np.all(D == d[5], axis=-1), 0] = np.inf  # the row of j=6
            return w

        monkeypatch.setattr(solver, "simplex_batch", infeasible_at_j4)
        with pytest.raises(trigger.TriggerError, match=r"^j=4: scaling LP failed: "):
            build_schedule(setup, sol, LP1)
        assert len(hits) == 1 and hits[0] > 1
        monkeypatch.setattr(solver, "coordinate_widths", unbounded_at_j6)
        with pytest.raises(trigger.TriggerError, match=r"^j=4: scaling LP failed: "):
            build_schedule(setup, sol, LP1)
        monkeypatch.setattr(solver, "simplex_batch", batch)
        with pytest.raises(trigger.TriggerError, match=r"^j=6: .*unbounded"):
            build_schedule(setup, sol, LP1)

    def test_failing_lp1_centring_keeps_its_splice_index(self, sched_all, monkeypatch):
        # The centring solve of j=4 finds no point: j=4 fails, after the
        # centring of every earlier polytope with a live coordinate, and
        # nothing else takes over.
        setup, _, _ = sched_all
        sol = solve_rmpc(setup, [0.1, 0.1, -0.1, 0.1])
        sched = build_schedule(setup, sol, LP1)
        live = [j for j, deg in enumerate(sched.degenerate_coords, start=1)
                if len(deg) < setup.nx]
        at = live.index(4) + 1  # the call that centres j=4
        calls, least_distance = [], solver.least_distance

        def none_at_j4(A, b):
            calls.append(A)
            return (None, 0) if len(calls) == at else least_distance(A, b)

        monkeypatch.setattr(solver, "least_distance", none_at_j4)
        with pytest.raises(trigger.TriggerError, match=r"^j=4: centring solve found no point$"):
            build_schedule(setup, sol, LP1)
        assert len(calls) == at

    def test_candidate_cost_upper_bounds_resolve(self, sched_all):
        # Optimality: for an error inside E_j, V* at the disturbed state is
        # at most the cost of the shifted candidate plan, which in turn is
        # at most V*(x) minus the elapsed stage costs.
        setup, sol, schedules = sched_all
        rng = np.random.default_rng(3)
        sch = schedules[CP1]
        for j in (5, 7, 9):
            phi, u_tilde, _, _ = _candidate(setup, sol, j)
            e = sch.box(j).sample(rng)
            state = phi[0] + e
            cost = 0.0
            x = state.copy()
            for i in range(setup.N):
                u = u_tilde[i] + setup.Ktilde[i] @ setup.Ltilde[i] @ e
                cost += rmpc_stage(setup, x, u, i)
                x = setup.plant.A @ x + setup.plant.B @ u
            v = solve_rmpc(setup, state).value
            assert v <= cost + 1e-6
            assert cost <= sol.value - np.sum(sol.stage_costs[:j]) + 1e-6
