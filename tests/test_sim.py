import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etrmpc import rmpc, sim, solver, trigger
from etrmpc.cli import ExperimentConfig, cmd_run
from etrmpc.geometry import GeometryError, HyperRect, Polytope, supports
from etrmpc.rmpc import InfeasibleState, RmpcError, solve_rmpc
from etrmpc.sim import (DisturbanceModel, run_closed_loop, step_trigger_test,
                        trigger_statistics)
from etrmpc.tightening import PlantModel, TighteningError, build_setup
from etrmpc.trigger import TriggerError, TriggerSchedule, build_schedule

from batch_reactor import X0, batch_setup, polytope_worst_case_data


@pytest.fixture(scope="module")
def setup():
    return batch_setup()


@pytest.fixture(scope="module")
def uniform_trace(setup):
    return run_closed_loop(setup, X0, "CP1",
                           DisturbanceModel("uniform", seed=1234), T=60)


class TestDisturbanceModel:
    def test_zero(self, setup):
        w = DisturbanceModel("zero").realize(setup.plant.W, 5)
        assert np.all(w == 0.0)

    def test_uniform_in_set_and_seeded(self, setup):
        dm = DisturbanceModel("uniform", seed=42)
        w1 = dm.realize(setup.plant.W, 100)
        w2 = DisturbanceModel("uniform", seed=42).realize(setup.plant.W, 100)
        assert np.array_equal(w1, w2)
        assert np.max(np.abs(w1)) <= 0.02
        assert not np.array_equal(
            w1, DisturbanceModel("uniform", seed=43).realize(setup.plant.W, 100))

    def test_worst_case_sign_rule(self, setup):
        dm = DisturbanceModel("worst_case")
        xi = np.array([1.0, -2.0, 0.0, 3.0])
        w = dm.worst_case(setup.plant.W, xi)
        assert np.array_equal(w, [0.02, -0.02, 0.02, 0.02])  # tie -> +w_max

    def test_replay_validated(self, setup):
        seq = np.zeros((10, 4))
        seq[3, 2] = 1.0  # outside W
        with pytest.raises(ValueError):
            DisturbanceModel("replay", sequence=seq).realize(setup.plant.W, 10)
        dm = DisturbanceModel("replay", sequence=seq, allow_out_of_set=True)
        assert np.array_equal(dm.realize(setup.plant.W, 10), seq)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DisturbanceModel("gaussian")


class TestModelChecks:
    """Every rule on a disturbance model is the model's: each broken one
    raises ValueError from ``DisturbanceModel`` or from ``run_closed_loop``
    (``realize``) before the first solve."""

    T = 20

    @pytest.mark.parametrize("kwargs", [
        dict(impulses=[(0, 1, 0.1)]),
        dict(impulses=[(2.9, 1, 0.1)]),
        dict(impulses=[(T + 1, 1, 0.1)]),
        dict(impulses=[(3, -1, 0.1)]),
        dict(impulses=[(3, 1.7, 0.1)]),
        dict(impulses=[(3, 4, 0.1)]),
        dict(impulses=[(3, 1, float("nan"))]),
        dict(kind="uniform", seed=-1),
        dict(kind="uniform", seed=2**128),
        dict(kind="uniform", seed=True),
        dict(kind="uniform", seed=2.7),
        dict(kind="replay", sequence=np.zeros((T, 4)), allow_out_of_set="false"),
        dict(kind="replay", sequence=np.zeros((T - 1, 4))),
        dict(kind="replay", sequence=np.zeros((T, 3))),
        dict(kind="replay", sequence=np.full((T, 4), 0.5)),
        dict(kind="replay"),
        dict(kind="gusty"),
        dict(impulses=[(3, 1, "0.1")]),
        dict(impulses=[(3, 1, True)]),
        dict(impulses=[(3, 1, 10**400)]),
        dict(kind="replay", sequence=[["0.01", 0.0, 0.0, 0.0]] * T),
        dict(kind="replay", sequence=[[0.01, True, 0.0, 0.0]] * T, allow_out_of_set=True),
    ], ids=["impulse_time_0", "impulse_time_2.9", "impulse_time_T+1",
            "impulse_coordinate_-1", "impulse_coordinate_1.7", "impulse_coordinate_nx",
            "impulse_value_nan", "seed_-1", "seed_2**128", "seed_true", "seed_2.7",
            "allow_out_of_set_string", "replay_short", "replay_3_wide", "replay_leaves_W",
            "replay_no_sequence", "unknown_kind", "impulse_value_string", "impulse_value_true",
            "impulse_value_past_float",
            "replay_string_entry", "replay_true_entry"])
    def test_rejected_before_any_solve(self, setup, kwargs, monkeypatch):
        solves, solve = [], sim.rmpc.solve_rmpc

        def counted(*args):
            solves.append(1)
            return solve(*args)

        monkeypatch.setattr(sim.rmpc, "solve_rmpc", counted)
        with pytest.raises(ValueError):
            run_closed_loop(setup, X0, "LP2", DisturbanceModel(**kwargs), self.T)
        assert solves == []

    def test_numpy_and_python_reals_accepted(self, setup):
        seq = [[np.float32(0.01), 0, np.int64(0), -0.01]] * 10
        dm = DisturbanceModel("replay", impulses=[(3, 1, 1), (4, 0, np.float32(0.5))],
                              sequence=seq)
        assert dm.impulses == [(3, 1, 1.0), (4, 0, 0.5)]
        assert all(type(v) is float for _, _, v in dm.impulses)
        assert np.array_equal(dm.realize(setup.plant.W, 10), np.array(seq, dtype=float))

    def test_integral_floats_and_numpy_integers_accepted(self, setup):
        dm = DisturbanceModel("uniform", seed=np.uint64(42), impulses=[(np.int32(3), 2.0, 0.1)])
        assert dm.impulses == [(3, 2, 0.1)]
        assert all(type(v) is int for v in (dm.seed, *dm.impulses[0][:2]))
        w = dm.realize(setup.plant.W, 10)
        assert np.array_equal(w, DisturbanceModel("uniform", seed=42.0).realize(setup.plant.W, 10))

    def test_cli_provenance_seed_stays_an_int(self, tmp_path):
        cfg = ExperimentConfig.from_file("configs/batch_reactor.json")
        data = cfg.to_dict()
        data["seed"] = 1234.0
        cmd_run(ExperimentConfig(data), out_dir=tmp_path, steps=5, out=io.StringIO())
        text = (tmp_path / "summary.json").read_text()
        assert json.loads(text)["provenance"]["seed"] == 1234
        assert '"seed": 1234,' in text
        assert " seed=1234 " in (tmp_path / "trace.csv").read_text().splitlines()[0]


class TestTriggerTest:
    def test_zero_error_never_triggers(self, setup):
        sol = solve_rmpc(setup, X0)
        sch = build_schedule(setup, sol, "CP1")
        for k in range(1, setup.N):
            assert step_trigger_test(sch, sol.x, sol.x[k], k) == []

    def test_single_coordinate_exit(self, setup):
        sol = solve_rmpc(setup, [0.1, 0.1, -0.1, 0.1])
        sch = build_schedule(setup, sol, "CP1")
        k = 5
        box = sch.box(k)
        assert box.upper[2] > 1e-6
        xi = sol.x[k].copy()
        xi[2] += box.upper[2] + 1e-3
        assert step_trigger_test(sch, sol.x, xi, k) == [2]

    def test_run_keeps_the_sensors_that_fired(self, setup):
        # A CoordinateExit trigger keeps the coordinates that left their
        # box, as the test at that step gives them from the plan and boxes
        # of the trigger before; every other step keeps none.
        trace = run_closed_loop(setup, X0, "LP2", DisturbanceModel("uniform", seed=1234), 40)
        times = trace.trigger_times
        fired = [t for t in times if trace.cause[t] == sim.CAUSE_COORD]
        assert fired
        for t in range(41):
            assert bool(trace.coords[t]) == (t in fired)
        for t in fired:
            tau = max(s for s in times if s < t)
            sol = solve_rmpc(setup, trace.x[tau])
            assert trace.coords[t] == step_trigger_test(trace.schedules[tau], sol.x,
                                                        trace.x[t], t - tau)

    def test_step_range_checked(self, setup):
        sol = solve_rmpc(setup, X0)
        sch = build_schedule(setup, sol, "CP1")
        with pytest.raises(IndexError):
            step_trigger_test(sch, sol.x, sol.x[0], 0)


class TestZeroDisturbanceRun:
    def test_point_disturbance_set_setup(self):
        # W = {0}: no tightening at all, zero realized disturbance; the
        # loop triggers only at horizon multiples and the value strictly
        # decreases across triggers until the targets are reached.
        from etrmpc.tightening import (PlantModel, build_setup,
                                       synthesize_nominal_gain,
                                       synthesize_tightening_gains)
        A = np.array([[1.1, 0.4], [0.0, 0.9]])
        B = np.array([[0.0], [1.0]])
        plant = PlantModel(
            A, B,
            X=HyperRect([-3.0, -3.0], [3.0, 3.0]),
            U=HyperRect([-3.0], [3.0]),
            W=HyperRect([0.0, 0.0], [0.0, 0.0]),
            Tx=HyperRect([-1.0, -1.0], [1.0, 1.0]),
            Tu=HyperRect([-2.0], [2.0]),
            Xf=HyperRect([-0.3, -0.3], [0.3, 0.3]))
        F = synthesize_nominal_gain(plant, np.eye(2), np.eye(1))
        K = synthesize_tightening_gains(plant, M=2, N=6)
        st = build_setup(plant, N=6, M=2, F=F, K=K, Q=np.eye(2), R=np.eye(1))
        tr = run_closed_loop(st, [2.0, -1.0], "CP1",
                             DisturbanceModel("zero"), T=18)
        assert tr.trigger_times == [0, 6, 12]
        vs = [tr.v_star[t] for t in tr.trigger_times]
        for a, b in zip(vs, vs[1:]):
            assert b < a or a == 0.0

    def test_triggers_only_mandatory(self, setup):
        tr = run_closed_loop(setup, X0, "CP1", DisturbanceModel("zero"), T=30)
        assert tr.trigger_times == [0, 10, 20]
        assert tr.cause[0] == sim.CAUSE_INITIAL
        assert tr.cause[10] == tr.cause[20] == sim.CAUSE_MANDATORY
        stats = trigger_statistics(tr)
        assert stats["solves"] == 3
        assert sim.CAUSE_COORD not in stats["cause_histogram"]

    def test_value_nonincreasing_to_zero(self, setup):
        tr = run_closed_loop(setup, X0, "CP1", DisturbanceModel("zero"), T=30)
        vs = [tr.v_star[t] for t in tr.trigger_times]
        assert all(b <= a + 1e-9 for a, b in zip(vs, vs[1:]))
        assert vs[-1] < 1e-3


class TestUniformRun:
    def test_constraint_safety(self, setup, uniform_trace):
        tr = uniform_trace
        assert np.max(np.abs(tr.x)) <= 2.0 + 1e-8
        assert np.nanmax(np.abs(tr.u)) <= 2.0 + 1e-8

    def test_decay_certificate(self, uniform_trace):
        for _, _, lhs, rhs, _, exempt in uniform_trace.decay_checks:
            assert exempt or lhs <= rhs + 1e-6

    def test_event_saving(self, uniform_trace):
        stats = trigger_statistics(uniform_trace)
        assert stats["solves"] < 60

    def test_buffered_inputs_between_triggers(self, setup, uniform_trace):
        tr = uniform_trace
        sols = {}
        for t in range(60):
            tau = tr.tau[t]
            if tau not in sols:
                sols[tau] = solve_rmpc(setup, tr.x[tau])
            assert np.array_equal(tr.u[t], sols[tau].u[t - tau])

    def test_schedule_kept_per_trigger(self, uniform_trace):
        tr = uniform_trace
        assert list(tr.schedules) == tr.trigger_times
        assert all(isinstance(s, TriggerSchedule) and s.method == "CP1"
                   for s in tr.schedules.values())

    def test_replay_determinism(self, setup, uniform_trace):
        tr2 = run_closed_loop(setup, X0, "CP1",
                              DisturbanceModel("uniform", seed=1234), T=60)
        assert tr2.x.tobytes() == uniform_trace.x.tobytes()
        assert tr2.u.tobytes() == uniform_trace.u.tobytes()
        assert tr2.trigger_times == uniform_trace.trigger_times


class TestWorstCaseRun:
    def test_membership_and_convergence(self, setup):
        tr = run_closed_loop(setup, X0, "CP1", DisturbanceModel("worst_case"),
                             T=60)
        assert np.max(np.abs(tr.x)) <= 2.0 + 1e-8
        in_target = [t for t in range(61) if np.max(np.abs(tr.x[t])) <= 0.5 + 1e-8]
        assert in_target and in_target[0] < 60
        # Limit-cycle behavior: once inside, the tail of the run stays inside.
        assert np.max(np.abs(tr.x[40:])) <= 0.5 + 1e-8


class TestImpulseRun:
    def test_recovery(self, setup):
        dm = DisturbanceModel("uniform", seed=1234, impulses=[(25, 1, 1.7)])
        tr = run_closed_loop(setup, X0, "CP1", dm, T=60)
        assert tr.recovery_events == [25]
        assert tr.x[25, 1] == 1.7
        post = [t for t in tr.trigger_times if t >= 25]
        assert post  # the loop re-triggers
        pre_level = max(tr.v_star[t] for t in tr.trigger_times if 20 <= t < 25) \
            if any(20 <= t < 25 for t in tr.trigger_times) else 0.0
        rec = [t for t in post if tr.v_star[t] <= pre_level + 1e-9]
        assert rec and rec[0] <= 50

    def test_decay_window_exempt(self, setup):
        dm = DisturbanceModel("uniform", seed=1234, impulses=[(25, 1, 1.7)])
        tr = run_closed_loop(setup, X0, "CP1", dm, T=40)
        exempt_windows = [c for c in tr.decay_checks if c[5]]
        assert len(exempt_windows) >= 1
        assert all(a < 25 <= b for a, b, *_ in exempt_windows)


class TestErrorsNameTheirTime:
    def test_infeasible_start(self, setup):
        # The type and the state it carries stay; t=0 leads the message.
        with pytest.raises(InfeasibleState, match=r"^t=0: RMPC infeasible at x0=") as info:
            run_closed_loop(setup, [100.0] * 4, "LP2", DisturbanceModel("zero"), T=5)
        assert info.value.x0.tolist() == [100.0] * 4

    @pytest.mark.parametrize("module, name, error", [
        (trigger, "build_schedule", TriggerError),
        (rmpc, "solve_rmpc", GeometryError),
        (rmpc, "solve_rmpc", RmpcError),
    ])
    def test_second_trigger_names_its_time(self, setup, monkeypatch, module, name, error):
        # Without disturbance the second trigger is the mandatory one, at N.
        real, calls = getattr(module, name), []

        def second_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise error("j=3: the second trigger's failure")
            return real(*args)

        monkeypatch.setattr(module, name, second_fails)
        with pytest.raises(error, match=rf"^t={setup.N}: j=3: the second trigger's failure$"):
            run_closed_loop(setup, X0, "LP2", DisturbanceModel("zero"), T=30)


class TestPeriodicBaseline:
    def test_solves_every_step(self, setup):
        tr = run_closed_loop(setup, X0, "periodic",
                             DisturbanceModel("uniform", seed=7), T=20)
        assert trigger_statistics(tr)["solves"] == 20
        assert all(tr.cause[t] is not None for t in range(20))
        assert tr.schedules == {}


class TestOtherConstructions:
    @pytest.mark.parametrize("method", ["CP2", "LP2"])
    def test_closed_loop_smoke(self, setup, method):
        tr = run_closed_loop(setup, X0, method,
                             DisturbanceModel("uniform", seed=1234), T=30)
        assert np.max(np.abs(tr.x)) <= 2.0 + 1e-8
        for _, _, lhs, rhs, _, exempt in tr.decay_checks:
            assert exempt or lhs <= rhs + 1e-6
        assert trigger_statistics(tr)["solves"] <= 30

    def test_lp1_degenerate_scaling_regression(self, setup):
        # Seed 5 drives plans whose zero-offset slack rows pin the box
        # corner at the origin and give some coordinates a segment length
        # of exactly 0. (Interior-point segment LPs once reported 6e-9 to
        # 1.5e-8 there, two in one box, just above the degenerate
        # threshold.) The scaling step must handle those coordinates.
        tr = run_closed_loop(setup, X0, "LP1",
                             DisturbanceModel("uniform", seed=5), T=60)
        assert np.max(np.abs(tr.x)) <= 2.0 + 1e-8
        for _, _, lhs, rhs, _, exempt in tr.decay_checks:
            assert exempt or lhs <= rhs + 1e-6


class TestPolytopeDisturbanceSet:
    def test_uniform_and_worst_case_on_nonbox_set(self):
        # Diamond-shaped disturbance set: exercises the rejection sampler,
        # the support-LP erosion path and the worst-case LP.
        from etrmpc.geometry import Polytope
        from etrmpc.tightening import (PlantModel, build_setup,
                                       synthesize_nominal_gain,
                                       synthesize_tightening_gains)
        A = np.array([[1.1, 0.4], [0.0, 0.9]])
        B = np.array([[0.0], [1.0]])
        W = Polytope([[1, 1], [1, -1], [-1, 1], [-1, -1]], [0.03] * 4)
        plant = PlantModel(
            A, B,
            X=HyperRect([-3.0, -3.0], [3.0, 3.0]),
            U=HyperRect([-3.0], [3.0]),
            W=W,
            Tx=HyperRect([-1.0, -1.0], [1.0, 1.0]),
            Tu=HyperRect([-2.0], [2.0]),
            Xf=HyperRect([-0.3, -0.3], [0.3, 0.3]))
        F = synthesize_nominal_gain(plant, np.eye(2), np.eye(1))
        K = synthesize_tightening_gains(plant, M=2, N=6)
        st = build_setup(plant, N=6, M=2, F=F, K=K, Q=np.eye(2), R=np.eye(1))

        dm = DisturbanceModel("uniform", seed=11)
        w = dm.realize(W, 50)
        assert np.max(np.abs(w).sum(axis=1)) <= 0.03 + 1e-9

        wc = dm.worst_case(W, np.array([1.0, 0.2]))
        assert W.membership_residual(wc) <= 1e-7
        assert np.dot([1.0, 0.2], wc) >= 0.03 - 1e-6  # vertex (0.03, 0)

        tr = run_closed_loop(st, [1.5, -0.5], "CP1", dm, T=18)
        assert np.max(np.abs(tr.x)) <= 3.0 + 1e-8
        for _, _, lhs, rhs, _, exempt in tr.decay_checks:
            assert exempt or lhs <= rhs + 1e-6


def cross_polytope():
    """{w : ||w||_1 <= 0.02} as one row per sign vector."""
    rows = np.array(list(itertools.product((1.0, -1.0), repeat=4)))
    return Polytope(rows, np.full(16, 0.02))


class TestPolytopeWorstCase:
    def test_cross_polytope_closed_form_vertex(self):
        # On {w : ||w||_1 <= 0.02} the worst case for an untied xi is the
        # vertex 0.02 sign(xi_j) e_j, j = argmax |xi_j|.
        W = cross_polytope()
        dm = DisturbanceModel("worst_case")
        for xi in np.random.default_rng(8).normal(size=(100, 4)):
            j = int(np.argmax(np.abs(xi)))
            expected = np.zeros(4)
            expected[j] = 0.02 * np.sign(xi[j])
            assert np.array_equal(dm.worst_case(W, xi), expected)

    def test_tied_draw_is_a_vertex_that_other_draws_do_not_move(self):
        # The benchmark's x0 ties all four coordinates. A fresh model's draw
        # is a maximizing vertex 0.02 sign(xi_j) e_j, not a point inside a
        # face, and 100 other draws leave it as it was.
        xi = np.array([1.5, 1.5, -1.5, 1.5])
        W, dm = cross_polytope(), DisturbanceModel("worst_case")
        first = dm.worst_case(W, xi)
        assert np.count_nonzero(first) == 1
        assert np.max(np.abs(first)) == 0.02
        assert xi @ first == 0.02 * np.max(np.abs(xi))
        for other in np.random.default_rng(4).normal(size=(100, 4)):
            dm.worst_case(W, other)
        assert dm.worst_case(W, xi).tobytes() == first.tobytes()
        assert DisturbanceModel("worst_case").worst_case(
            cross_polytope(), xi).tobytes() == first.tobytes()

    @pytest.mark.parametrize("method", ["LP2", "periodic"])
    def test_run_solves_few_worst_case_lps(self, method, monkeypatch):
        # The benchmark's polytope_worst_case config: one draw per step, at
        # most 8 LPs per run (none: the setup has already enumerated W's
        # vertices, and W keeps them).
        cfg = ExperimentConfig(polytope_worst_case_data())
        setup = cfg.build()
        calls, per_draw = [], []
        lp, draw = solver._ipm, DisturbanceModel.worst_case

        def counted_lp(*args, **kwargs):
            calls.append(1)
            return lp(*args, **kwargs)

        def counted_draw(self, W, xi):
            before = len(calls)
            w = draw(self, W, xi)
            per_draw.append(len(calls) - before)
            return w

        monkeypatch.setattr(solver, "_ipm", counted_lp)
        monkeypatch.setattr(DisturbanceModel, "worst_case", counted_draw)
        run_closed_loop(setup, cfg.x0, method, cfg.disturbance_model(), cfg.steps)
        assert len(per_draw) == cfg.steps
        assert sum(per_draw) <= 8


def as_rows(S):
    """The set as plain rows, a Polytope that is not a HyperRect."""
    return Polytope(S.A, S.b)


def rows_plant(plant):
    """The plant with every set written as plain rows."""
    return PlantModel(plant.A, plant.B, X=as_rows(plant.X), U=as_rows(plant.U),
                      W=as_rows(plant.W), Tx=as_rows(plant.Tx), Tu=as_rows(plant.Tu),
                      Xf=as_rows(plant.Xf))


def box_bounds(dim, half):
    """(lower, upper) of a box holding the origin, half-widths up to ``half``."""
    side = st.lists(st.floats(0.0, half), min_size=dim, max_size=dim)
    return st.tuples(side.map(lambda v: -np.array(v)), side.map(np.array))


def directions(dim):
    """Directions with exact zero entries (ties in a worst-case draw)."""
    entry = st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)
    return st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=1, max_size=8)


class TestBoxWrittenAsRows:
    """A box given as a HyperRect and as its plain rows takes the same
    closed forms (``Polytope.as_box``), so every answer has the same bits."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4))
    def test_supports_draws_and_samples_match(self, data, dim):
        box = HyperRect(*data.draw(box_bounds(dim, 2.0)))
        rows = as_rows(box)
        etas = np.array(data.draw(directions(dim)))
        assert supports(rows, etas).tobytes() == supports(box, etas).tobytes()
        dm = DisturbanceModel("worst_case")
        for xi in etas:
            assert dm.worst_case(rows, xi).tobytes() == dm.worst_case(box, xi).tobytes()
        uniform = DisturbanceModel("uniform", seed=data.draw(st.integers(0, 2**32)))
        assert uniform.realize(rows, 20).tobytes() == uniform.realize(box, 20).tobytes()

    @settings(max_examples=10, deadline=None)
    @given(bounds=box_bounds(4, 0.03))
    def test_setup_report_matches(self, bounds):
        ref = batch_setup()
        plant = ref.plant
        reports = []
        for W in (HyperRect(*bounds), as_rows(HyperRect(*bounds))):
            p = PlantModel(plant.A, plant.B, X=plant.X, U=plant.U, W=W, Tx=plant.Tx,
                           Tu=plant.Tu, Xf=plant.Xf)
            try:
                reports.append(repr(build_setup(p, N=10, M=4, F=ref.F, K=ref.K,
                                                Q=ref.Q, R=ref.R).report))
            except TighteningError as exc:
                reports.append(repr(exc))
        assert reports[0] == reports[1]

    def test_plant_checks_rows_box_without_lps(self, monkeypatch):
        # A box written as rows is bounded by its rows alone (as_box).
        monkeypatch.setattr(solver, "_ipm", None)
        plant = rows_plant(batch_setup().plant)
        assert not any(isinstance(S, HyperRect)
                       for S in (plant.X, plant.U, plant.W, plant.Tx, plant.Tu, plant.Xf))

    @pytest.mark.parametrize("method", ["CP1", "LP2"])
    def test_run_builds_no_box(self, method, monkeypatch):
        # The trigger test reads the schedule's bounds; a run of a setup
        # whose sets are rows builds no HyperRect, and runs as the
        # HyperRect setup does, bit for bit.
        ref = batch_setup()
        setup = build_setup(rows_plant(ref.plant), N=10, M=4, F=ref.F, K=ref.K,
                            Q=ref.Q, R=ref.R)
        expected = run_closed_loop(ref, X0, method, DisturbanceModel("uniform", seed=1234), T=30)
        built, init = [], HyperRect.__init__

        def counted(self, *args):
            built.append(1)
            init(self, *args)

        monkeypatch.setattr(HyperRect, "__init__", counted)
        for s in (ref, setup):
            tr = run_closed_loop(s, X0, method, DisturbanceModel("uniform", seed=1234), T=30)
            assert tr.x.tobytes() == expected.x.tobytes()
            assert tr.trigger_times == expected.trigger_times
        assert built == []


class TestStatistics:
    def test_counts_and_gaps(self, setup):
        tr = run_closed_loop(setup, X0, "CP1", DisturbanceModel("zero"), T=30)
        st = trigger_statistics(tr)
        assert st["solves"] == 3
        assert st["mean_inter_execution"] == 10.0
        assert st["max_inter_execution"] == 10
        assert st["solves"] <= 30

    def test_solves_never_exceed_steps(self, setup, uniform_trace):
        assert trigger_statistics(uniform_trace)["solves"] <= 60


def vertex_failures(setup, trace, scale=1.0):
    """The paper's two guarantees at the box vertices of a run, each box
    E_k scaled by ``scale`` about the nominal state sol.x[k].

    V* is convex and its feasible states form a convex set, so every state
    of a box has a feasible plan with V* <= V*(x_tau) - sum of the first k
    stage costs when every vertex does. Returns the number of vertex
    solves and the failures (tau, k, vertex, margin), the margin scaled by
    1 + V*(vertex) and None where no plan exists. Each trigger's re-solve
    must give the run's V*.
    """
    solves, failures = 0, []
    for tau in trace.trigger_times:
        sol = solve_rmpc(setup, trace.x[tau])
        assert sol.value == trace.v_star[tau]
        sch = trace.schedules[tau]
        for k in range(1, setup.N):
            lower, upper = scale * sch.lower[k - 1], scale * sch.upper[k - 1]
            if not (upper - lower).any():
                continue
            bound = sol.value - float(np.sum(sol.stage_costs[:k]))
            for corner in set(itertools.product(*zip(lower.tolist(), upper.tolist()))):
                vertex = sol.x[k] + np.array(corner)
                solves += 1
                try:
                    value = solve_rmpc(setup, vertex).value
                except InfeasibleState:
                    failures.append((tau, k, vertex.tolist(), None))
                    continue
                margin = (bound - value) / (1.0 + value)
                if margin < -1e-9:
                    failures.append((tau, k, vertex.tolist(), margin))
    return solves, failures


class TestVertexCertificate:
    """Robust recursive feasibility and value decay hold at every vertex of
    every nonzero box of a reference run (uniform disturbance, T = 60)."""

    @pytest.mark.parametrize("seed", [1234, 1240])
    @pytest.mark.parametrize("method", ["CP1", "CP2", "LP1", "LP2"])
    def test_every_box_vertex_keeps_both_guarantees(self, setup, method, seed):
        trace = run_closed_loop(setup, X0, method, DisturbanceModel("uniform", seed=seed), T=60)
        solves, failures = vertex_failures(setup, trace)
        assert solves > 1000
        assert failures == []

    def test_boxes_scaled_past_the_construction_fail(self, setup):
        # Sharpness: CP1's boxes grown by 1% leave the guarantee at some
        # vertex (at tau = 0, k = 9 on this seed), so the check can fail.
        trace = run_closed_loop(setup, X0, "CP1", DisturbanceModel("uniform", seed=1234), T=60)
        _, failures = vertex_failures(setup, trace, scale=1.01)
        assert (0, 9) in {(tau, k) for tau, k, _, _ in failures}
