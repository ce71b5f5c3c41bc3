"""Event-triggered closed-loop simulation.

Between triggers the plant consumes buffered inputs from the last plan
while every sensor tests its own coordinate of the prediction error
against the current trigger box. A trigger (coordinate exit, or the
mandatory one when the buffer is exhausted) re-solves the optimal control
problem and rebuilds the boxes. The run verifies the value-function decay
certificate at every trigger instance.
"""

import hashlib

import numpy as np

from . import rmpc, trigger
from .geometry import FEAS_TOL, HyperRect

DECAY_TOL = 1e-6

CAUSE_INITIAL = "Initial"
CAUSE_MANDATORY = "Mandatory"
CAUSE_COORD = "CoordinateExit"
CAUSE_PERIODIC = "Periodic"
PERIODIC = "periodic"


class SimError(Exception):
    pass


class DecayViolation(SimError):
    """Decay certificate failed with in-set disturbances: a bug signal."""


class DisturbanceModel:
    """Realized disturbance policy.

    kind 'zero', 'uniform' (seeded, counter-based Philox stream over the
    disturbance set), 'worst_case' (argmax over W of xi.w at each step) or
    'replay' (explicit sequence). Impulses are (time, coordinate, value)
    state overrides applied after the dynamics update; they may leave the
    admissible set by design.
    """

    def __init__(self, kind="zero", seed=0, impulses=(), sequence=None,
                 allow_out_of_set=False):
        if kind not in ("zero", "uniform", "worst_case", "replay"):
            raise ValueError(f"unknown disturbance kind {kind!r}")
        self.kind = kind
        self.seed = int(seed)
        self.impulses = [(int(t), int(p), float(v)) for t, p, v in impulses]
        self.sequence = None if sequence is None else np.asarray(sequence, dtype=float)
        self.allow_out_of_set = bool(allow_out_of_set)
        if kind == "replay" and self.sequence is None:
            raise ValueError("replay disturbance needs a sequence")

    def realize(self, W, T):
        """Materialize w_0..w_{T-1} when state-independent, else None."""
        if self.kind == "zero":
            return np.zeros((T, W.dim))
        if self.kind == "uniform":
            rng = np.random.Generator(np.random.Philox(key=self.seed))
            return _uniform_samples(W, T, rng)
        if self.kind == "replay":
            if self.sequence.shape[0] < T:
                raise ValueError(f"replay sequence shorter than {T} steps")
            seq = self.sequence[:T]
            if not self.allow_out_of_set:
                for t in range(T):
                    if _residual(W, seq[t]) > FEAS_TOL:
                        raise ValueError(f"replay disturbance at t={t} leaves the set")
            return seq
        return None  # worst_case is state-dependent

    def worst_case(self, W, xi):
        """argmax over W of xi.w; ties on box sets resolve to +w_max."""
        if isinstance(W, HyperRect):
            w = np.where(xi >= 0.0, W.upper, W.lower)
            return w
        from . import solver
        rep = solver.solve_lp(solver.LpProblem(c=xi, A=W.A, b=W.b))
        if rep.status != solver.Status.OPTIMAL:
            raise SimError(f"worst-case disturbance LP failed: {rep.status}")
        return rep.x


def _residual(W, w):
    if isinstance(W, HyperRect):
        return max(np.max(w - W.upper), np.max(W.lower - w))
    return W.membership_residual(w)


def _uniform_samples(W, T, rng):
    if isinstance(W, HyperRect):
        return rng.uniform(W.lower, W.upper, size=(T, W.dim))
    box = W.as_box()
    if box is not None:
        return rng.uniform(box.lower, box.upper, size=(T, box.dim))
    # General polytope: rejection sampling from the support bounding box.
    from . import geometry
    n = W.dim
    lo = np.array([-geometry.support(W, -e) for e in np.eye(n)])
    hi = np.array([geometry.support(W, e) for e in np.eye(n)])
    out = np.zeros((T, n))
    for t in range(T):
        for _ in range(10_000):
            w = rng.uniform(lo, hi)
            if W.membership_residual(w) <= 0.0:
                out[t] = w
                break
        else:
            raise SimError("rejection sampling failed (set volume too small)")
    return out


class TriggerDecision:
    def __init__(self, triggered, cause, coords=()):
        self.triggered = triggered
        self.cause = cause
        self.coords = list(coords)


def step_trigger_test(boxes, nominal, xi, k):
    """Decentralized per-coordinate test of the prediction error at step k.

    Returns the violating coordinate set; any nonempty set means trigger.
    """
    if not 1 <= k <= len(boxes.boxes):
        raise IndexError(f"trigger test step {k} outside [1, N-1]")
    e = np.asarray(xi, dtype=float) - nominal[k]
    coords = boxes.box(k).violating_coords(e)
    if coords:
        return TriggerDecision(True, CAUSE_COORD, coords)
    return TriggerDecision(False, None)


class SimTrace:
    """Complete record of one closed-loop run."""

    def __init__(self, n_steps, nx, nu):
        self.t = np.arange(n_steps + 1)
        self.x = np.zeros((n_steps + 1, nx))
        self.u = np.full((n_steps, nu), np.nan)
        self.w = np.full((n_steps, nx), np.nan)
        self.tau = np.zeros(n_steps + 1, dtype=int)
        self.cause = [None] * (n_steps + 1)
        self.coords = [[] for _ in range(n_steps + 1)]
        self.v_star = np.full(n_steps + 1, np.nan)
        self.decay_bound = np.full(n_steps + 1, np.nan)
        self.box_lo = np.full((n_steps + 1, nx), np.nan)
        self.box_hi = np.full((n_steps + 1, nx), np.nan)
        self.decay_checks = []   # (tau_prev, tau_new, lhs, rhs, margin, exempt)
        self.recovery_events = []  # impulse application times
        self.schedules = {}      # trigger time -> schedule dict
        self.solve_count = 0

    @property
    def trigger_times(self):
        return [int(t) for t in range(len(self.cause)) if self.cause[t] is not None]

    def disturbance_hash(self):
        used = self.w[~np.isnan(self.w).any(axis=1)]
        return hashlib.sha256(used.tobytes()).hexdigest()


def run_closed_loop(setup, x0, method, dist, T, collect_schedules=False):
    """Simulate T steps of the event-triggered loop from x0.

    method is one of the four construction routes or 'periodic' (solve at
    every step, no trigger sets: the baseline). Raises on an infeasible
    re-solve when every applied disturbance was admissible; after an
    impulse override a recovery is attempted and failures surface with
    that context.
    """
    if method != PERIODIC and method not in trigger.METHODS:
        raise ValueError(f"unknown method {method!r}")
    x0 = np.asarray(x0, dtype=float).reshape(setup.nx)
    W = setup.plant.W
    prerealized = dist.realize(W, T)
    impulses = {}
    for t, p, v in dist.impulses:
        impulses.setdefault(t, []).append((p, v))

    trace = SimTrace(T, setup.nx, setup.nu)
    A, B = setup.plant.A, setup.plant.B

    xi = x0.copy()
    tau = 0
    sol = None
    schedule = None
    impulse_since_trigger = False

    for t in range(T):
        trace.x[t] = xi
        decision = None
        if t == 0:
            decision = TriggerDecision(True, CAUSE_INITIAL)
        elif method == PERIODIC:
            decision = TriggerDecision(True, CAUSE_PERIODIC)
        else:
            k = t - tau
            if k >= setup.N:
                decision = TriggerDecision(True, CAUSE_MANDATORY)
            else:
                decision = step_trigger_test(schedule, sol.x, xi, k)

        if decision.triggered:
            try:
                new_sol = rmpc.solve_rmpc(setup, xi)
            except rmpc.InfeasibleState:
                if impulse_since_trigger or trace.recovery_events:
                    raise SimError(
                        f"re-solve infeasible at t={t} after impulse override")
                raise
            if sol is not None:
                _check_decay(trace, setup, sol, tau, t, new_sol.value,
                             impulse_since_trigger)
            sol = new_sol
            if method != PERIODIC:
                schedule = trigger.build_schedule(setup, sol, method)
                if collect_schedules:
                    trace.schedules[t] = schedule.to_dict()
            tau = t
            impulse_since_trigger = False
            trace.v_star[t] = sol.value
            trace.solve_count += 1
            trace.cause[t] = decision.cause
            trace.coords[t] = decision.coords

        k = t - tau
        trace.tau[t] = tau
        trace.decay_bound[t] = sol.value - float(np.sum(sol.stage_costs[:k]))
        if method != PERIODIC and 1 <= k < setup.N:
            box = schedule.box(k)
            trace.box_lo[t] = sol.x[k] + box.lower
            trace.box_hi[t] = sol.x[k] + box.upper

        u = sol.u[k]
        trace.u[t] = u
        w = prerealized[t] if prerealized is not None else dist.worst_case(W, xi)
        trace.w[t] = w
        xi = A @ xi + B @ u + w
        if t + 1 in impulses:
            for p, v in impulses[t + 1]:
                xi[p] = v
            trace.recovery_events.append(t + 1)
            impulse_since_trigger = True

    trace.x[T] = xi
    trace.tau[T] = tau
    return trace


def _check_decay(trace, setup, sol, tau_prev, tau_new, v_new, exempt):
    """Value-decay certificate between consecutive triggers.

    V*(xi_new) - V*(xi_prev) must not exceed minus the sum of realized
    stage costs of the previous plan. Violations with admissible
    disturbances are hard errors; windows containing an impulse override
    are recorded as exempt.
    """
    steps = tau_new - tau_prev
    lhs = v_new - sol.value
    rhs = -float(np.sum(sol.stage_costs[:steps]))
    margin = rhs - lhs
    trace.decay_checks.append((tau_prev, tau_new, lhs, rhs, margin, exempt))
    if not exempt and lhs > rhs + DECAY_TOL:
        raise DecayViolation(
            f"decay failed at trigger t={tau_new}: lhs={lhs:.3e} rhs={rhs:.3e}")


def trigger_statistics(trace):
    """Counts, inter-execution times, cause histogram and decay margins."""
    times = trace.trigger_times
    if not times:
        raise ValueError("empty trace")
    gaps = np.diff(times)
    hist = {}
    for t in times:
        cause = trace.cause[t]
        hist[cause] = hist.get(cause, 0) + 1
    margins = [c[4] for c in trace.decay_checks if not c[5]]
    return {
        "solves": trace.solve_count,
        "trigger_times": times,
        "mean_inter_execution": float(np.mean(gaps)) if gaps.size else None,
        "max_inter_execution": int(np.max(gaps)) if gaps.size else None,
        "cause_histogram": hist,
        "decay_margins": margins,
        "min_decay_margin": float(np.min(margins)) if margins else None,
        "recovery_events": list(trace.recovery_events),
    }
