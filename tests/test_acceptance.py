"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from etrmpc.geometry import HyperRect, Polytope, Projection, pontryagin_diff, shape_ratios
from etrmpc.sim import DisturbanceModel, run_closed_loop, trigger_statistics
from etrmpc.tightening import (PlantModel, is_controllable,
                               synthesize_tightening_gains)
from etrmpc.trigger import CP1, CP2, LP1, LP2, construct_boxes

from batch_reactor import X0, batch_plant, batch_setup
from oracles import grid_box_volumes
from test_trigger import ILL_SHAPED_D, ILL_SHAPED_G, _symmetry, box_slack

REFERENCE_SEED = 1234


@pytest.fixture(scope="module")
def setup():
    return batch_setup()


@pytest.fixture(scope="module")
def reference_runs(setup):
    """CP1/LP1 under uniform and worst-case disturbances, T=60."""
    runs = {}
    for method in ("CP1", "LP1"):
        for kind in ("uniform", "worst_case"):
            t0 = time.time()
            trace = run_closed_loop(
                setup, X0, method,
                DisturbanceModel(kind, seed=REFERENCE_SEED), T=60)
            runs[(method, kind)] = (trace, time.time() - t0)
    return runs


def test_criterion_1_batch_reactor_reproduction(setup, reference_runs):
    for (method, kind), (trace, elapsed) in reference_runs.items():
        # Constraint safety at every step.
        assert np.max(np.abs(trace.x)) <= 2.0 + 1e-8, (method, kind)
        assert np.nanmax(np.abs(trace.u)) <= 2.0 + 1e-8, (method, kind)
        # Convergence into the target sets before the end of the run.
        t_x = [t for t in range(61) if np.max(np.abs(trace.x[t])) <= 0.5 + 1e-8]
        t_u = [t for t in range(60) if np.max(np.abs(trace.u[t])) <= 1.5 + 1e-8]
        assert t_x and t_x[0] < 60, (method, kind)
        assert t_u and t_u[0] < 60, (method, kind)
        # The decay certificate holds at every trigger.
        for _, _, lhs, rhs, _, exempt in trace.decay_checks:
            assert lhs <= rhs + 1e-6, (method, kind)
        assert elapsed < 60.0, (method, kind, elapsed)
    print("\n[criterion 1] PASS: CP1/LP1 x uniform/worst-case stay in X and U, "
          "enter the targets, and satisfy the decay inequality at every "
          "trigger (runtimes: "
          + ", ".join(f"{m}/{k}={dt:.1f}s" for (m, k), (_, dt) in reference_runs.items())
          + ")")


def test_criterion_2_event_saving(reference_runs):
    counts = {}
    for method in ("CP1", "LP1"):
        trace, _ = reference_runs[(method, "uniform")]
        counts[method] = trigger_statistics(trace)["solves"]
        assert counts[method] < 60
    print(f"\n[criterion 2] PASS: uniform-disturbance solve counts "
          f"CP1={counts['CP1']}, LP1={counts['LP1']} (periodic baseline: 60)")


def test_criterion_3_impulse_recovery(setup):
    dist = DisturbanceModel("uniform", seed=REFERENCE_SEED,
                            impulses=[(25, 1, 1.7)])
    trace = run_closed_loop(setup, X0, "CP1", dist, T=60)
    assert trace.recovery_events == [25]
    pre = [t for t in trace.trigger_times if t < 25]
    post = [t for t in trace.trigger_times if t >= 25]
    assert post, "loop must re-trigger after the impulse"
    pre_level = trace.v_star[pre[-1]]
    recovered = [t for t in post if trace.v_star[t] <= pre_level + 1e-9]
    assert recovered and recovered[0] <= 50, (pre_level, post)
    print(f"\n[criterion 3] PASS: impulse at t=25 re-triggers at t={post[0]}, "
          f"V* back below pre-impulse level {pre_level:.4g} at t={recovered[0]}")


def test_criterion_4_construction_vs_grid_oracle():
    rng = np.random.default_rng(2024)
    worst_low = 1.0
    for _ in range(20):
        m = int(rng.integers(4, 8))
        G = rng.normal(size=(m, 2))
        d = rng.uniform(0.4, 2.0, size=m)
        G = np.vstack([G, np.eye(2), -np.eye(2)])
        d = np.concatenate([d, rng.uniform(1.0, 3.0, size=4)])
        # CP1 and CP2 share one principal polytope, so one grid pass gives
        # both oracle maxima.
        sch = {m: construct_boxes(G, [d], m) for m in (CP1, CP2, LP1, LP2)}
        (pp,) = sch[CP1].principals
        steps = _grid_steps(pp)
        grids = grid_box_volumes(pp.W, pp.d, n=200)
        for q, cp, lp in ((1, sch[CP1], sch[LP1]), (2, sch[CP2], sch[LP2])):
            v_cp = (cp.vol1, cp.vol2)[q - 1][0]
            v_lp = (lp.vol1, lp.vol2)[q - 1][0]
            grid = grids["sum_log_width" if q == 1 else "sum_log_both"]
            # Within 1% of the oracle from below; the upper side carries the
            # oracle's certified resolution allowance (the floor-snapped CP
            # box is a grid point, so the oracle found at least its volume)
            # plus the CP feasibility certificate (cannot exceed the truth).
            assert v_cp >= 0.99 * grid
            assert grid >= _floor_snap_volume(cp.box(1), steps, q) - 1e-12
            assert box_slack(pp, cp.box(1)) >= -1e-8
            assert v_lp <= v_cp + 1e-9
            worst_low = min(worst_low, v_cp / grid if grid > 0 else 1.0)
    print(f"\n[criterion 4] PASS: 20 random principal polytopes, CP within 1% "
          f"of the 200^4 grid oracle (worst CP/grid = {worst_low:.4f}), "
          f"LP never above CP + 1e-9")


def _grid_steps(pp):
    from etrmpc.solver import coordinate_widths
    bounds = coordinate_widths(pp.W, pp.d)
    return bounds / 199.0


def _floor_snap_volume(box, steps, q):
    v = np.concatenate([box.upper, -box.lower])
    snapped = np.floor(v / steps) * steps
    up, dn = snapped[:2], snapped[2:]
    return float(np.prod(up + dn)) if q == 1 else float(np.prod(up * dn))


def test_criterion_5_geometry_suite():
    # Pontryagin box erosion closed forms, exact to 1e-12.
    outer = HyperRect([-2.0, -2.0], [2.0, 2.0])
    eroded = pontryagin_diff(outer, HyperRect([-0.5, -0.5], [0.5, 0.5]))
    assert np.max(np.abs(eroded.b - 1.5)) <= 1e-12
    eroded = pontryagin_diff(outer, HyperRect([-0.02] * 2, [0.02] * 2))
    assert np.max(np.abs(eroded.b - 1.98)) <= 1e-12

    # Sampled set-difference distance bound on 1e3 random instances.
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = 2
        root = rng.normal(size=(n, n))
        Mw = root @ root.T + 0.2 * np.eye(n)
        B = HyperRect(-rng.uniform(0.4, 1.5, n), rng.uniform(0.4, 1.5, n))
        C = HyperRect(-rng.uniform(0.02, 0.25, n), rng.uniform(0.02, 0.25, n))
        diff = pontryagin_diff(B, C)
        r = rng.uniform(-2.5, 2.5, size=n)
        (d_diff,), _ = Projection(diff.A, [diff.b], Mw)([r])
        c = C.sample(rng)
        (d_shift,), _ = Projection(B.A, [B.b], Mw)([r + c])
        assert d_shift <= d_diff + 1e-9

    # Deadbeat gains on the reference pair and 50 random controllable pairs.
    plant = batch_plant()
    K = synthesize_tightening_gains(plant, M=4, N=10)
    L = np.eye(4)
    for i in range(4):
        L = (plant.A + plant.B @ K[i]) @ L
    assert np.linalg.norm(L, "fro") <= 1e-8
    done = 0
    while done < 50:
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        B2 = rng.normal(size=(n, m))
        if not is_controllable(A, B2):
            continue
        big = 1e6 * np.ones(n)
        bigu = 1e6 * np.ones(m)
        p = PlantModel(A, B2, X=HyperRect(-big, big), U=HyperRect(-bigu, bigu),
                       W=HyperRect(-0.01 * np.ones(n), 0.01 * np.ones(n)),
                       Tx=HyperRect(-big, big), Tu=HyperRect(-bigu, bigu),
                       Xf=HyperRect(-np.ones(n), np.ones(n)))
        Kr = synthesize_tightening_gains(p, M=n)
        L = np.eye(n)
        for i in range(n):
            L = (A + B2 @ Kr[i]) @ L
        assert np.linalg.norm(L, "fro") <= 1e-8
        done += 1
    print("\n[criterion 5] PASS: exact box erosion, 1000 sampled "
          "set-difference bounds, deadbeat residual <= 1e-8 on the reference "
          "pair and 50 random controllable pairs")


def test_criterion_6_zero_disturbance(setup):
    trace = run_closed_loop(setup, X0, "CP1", DisturbanceModel("zero"), T=40)
    stats = trigger_statistics(trace)
    assert "CoordinateExit" not in stats["cause_histogram"]
    assert all(t % setup.N == 0 for t in trace.trigger_times)
    vs = [trace.v_star[t] for t in trace.trigger_times]
    assert all(b <= a + 1e-9 for a, b in zip(vs, vs[1:]))
    assert vs[-1] < 1e-3
    print(f"\n[criterion 6] PASS: zero-disturbance triggers at "
          f"{trace.trigger_times} (multiples of N), V* nonincreasing to "
          f"{vs[-1]:.2e} < 1e-3")


def test_criterion_7_shape_diagnostic():
    square = HyperRect([-1, -1], [1, 1])
    assert shape_ratios(square.A, square.b)[0] == 1.0
    cube = HyperRect([-0.3] * 3, [0.3] * 3)
    assert shape_ratios(cube.A, cube.b)[0] == 1.0
    offset = HyperRect([-0.1, -1.0], [1.9, 1.0])
    assert shape_ratios(offset.A, offset.b)[0] == pytest.approx(10.0, abs=1e-6)

    sym = {m: _symmetry(construct_boxes(ILL_SHAPED_G, [ILL_SHAPED_D], m).box(1))
           for m in (CP1, CP2, LP1, LP2)}
    assert sym["CP2"] > sym["CP1"]
    assert sym["LP2"] > sym["LP1"]
    ratio = shape_ratios(ILL_SHAPED_G, ILL_SHAPED_D)[0]
    assert ratio > 3.0  # ill-shaped: same order as the reported 8.07 example
    print(f"\n[criterion 7] PASS: symmetric boxes -> 1.0 exactly, offset box "
          f"-> 10.0; ill-shaped polytope (r_c/r_o = {ratio:.2f}) symmetry "
          f"CP2 {sym['CP2']:.3f} > CP1 {sym['CP1']:.3f}, "
          f"LP2 {sym['LP2']:.3f} > LP1 {sym['LP1']:.3f}")
