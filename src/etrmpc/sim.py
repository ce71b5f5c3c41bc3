"""Event-triggered closed-loop simulation.

Between triggers the plant consumes buffered inputs from the last plan
while every sensor tests its own coordinate of the prediction error
against the current trigger box. A trigger (coordinate exit, or the
mandatory one when the buffer is exhausted) re-solves the optimal control
problem and rebuilds the boxes. The run verifies the value-function decay
certificate at every trigger instance.
"""

import hashlib
import math

import numpy as np

from . import rmpc, solver, trigger
from .geometry import FEAS_TOL, GeometryError

DECAY_TOL = 1e-6

CAUSE_INITIAL = "Initial"
CAUSE_MANDATORY = "Mandatory"
CAUSE_COORD = "CoordinateExit"
CAUSE_PERIODIC = "Periodic"
PERIODIC = "periodic"
METHODS = trigger.METHODS + (PERIODIC,)


def integer(value, name):
    """value as an int: a Python or NumPy int, or a float with no
    fractional part, but never a bool; else ValueError."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer))
                                       or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name}: need an integer, got {value!r}")
    return int(value)


def _finite_real(value):
    """Whether value is a real number that a float holds finitely: a
    Python or NumPy int or float, never a bool or a str."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


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

    A model checks its arguments for every caller (ValueError); the rules
    that depend on W and the run's length are ``realize``'s.
    """

    def __init__(self, kind="zero", seed=0, impulses=(), sequence=None,
                 allow_out_of_set=False):
        if kind not in ("zero", "uniform", "worst_case", "replay"):
            raise ValueError(f"unknown disturbance kind {kind!r}")
        if not isinstance(allow_out_of_set, bool):
            raise ValueError(f"allow_out_of_set: need a bool, got {allow_out_of_set!r}")
        self.kind, self.allow_out_of_set = kind, allow_out_of_set
        self.seed = integer(seed, "seed")
        if not 0 <= self.seed < 2**128:  # the key range of the Philox stream
            raise ValueError(f"seed must lie in [0, 2**128), got {self.seed}")
        impulses = [(integer(t, "impulse time"), integer(p, "impulse coordinate"), v)
                    for t, p, v in impulses]
        if any(t < 1 or p < 0 or not _finite_real(v) for t, p, v in impulses):
            raise ValueError(f"impulses {impulses}: need times >= 1, "
                             "coordinates >= 0 and finite real values")
        self.impulses = [(t, p, float(v)) for t, p, v in impulses]
        if sequence is not None:
            sequence = np.array(sequence, object, ndmin=2)
            if not all(map(_finite_real, sequence.flat)):
                raise ValueError("replay disturbance needs a finite sequence of real numbers")
            sequence = sequence.astype(float)
        elif kind == "replay":
            raise ValueError("replay disturbance needs a finite sequence of real numbers")
        self.sequence = sequence

    def realize(self, W, T):
        """Materialize w_0..w_{T-1} when state-independent, else None (the
        worst case). A run calls this once, at its start. Raises ValueError
        for an impulse past T or on a coordinate >= W.dim, and for a replay
        shorter than T, not W.dim wide or, without ``allow_out_of_set``,
        leaving W (at the first such t, from one stacked product)."""
        if any(t > T or p >= W.dim for t, p, _ in self.impulses):
            raise ValueError(f"impulses {self.impulses}: need times <= {T} "
                             f"and coordinates < {W.dim}")
        if self.kind == "zero":
            return np.zeros((T, W.dim))
        if self.kind == "uniform":
            rng = np.random.Generator(np.random.Philox(key=self.seed))
            return _uniform_samples(W, T, rng)
        if self.kind == "replay":
            seq = self.sequence[:T]
            if seq.shape != (T, W.dim):
                raise ValueError(f"replay sequence of shape {self.sequence.shape}: shorter "
                                 f"than {T} steps or not {W.dim} wide")
            out = np.flatnonzero(np.max(solver._mv(W.A, seq) - W.b, axis=1) > FEAS_TOL)
            if out.size and not self.allow_out_of_set:
                raise ValueError(f"replay disturbance at t={out[0]} leaves the set")
            return seq
        return None  # worst_case is state-dependent

    def worst_case(self, W, xi):
        """argmax over W of xi.w; ties on box sets (``Polytope.as_box``)
        resolve to +w_max.

        Any other W answers from its vertex set (``Polytope.vertices``,
        a function of its rows alone): the first vertex that maximizes
        xi.w, so a tied draw is a vertex that depends only on xi and W.
        """
        box = W.as_box()
        if box is not None:
            return np.where(xi >= 0.0, box.upper, box.lower)
        try:
            V = W.vertices()
        except GeometryError as exc:
            raise SimError(f"worst-case disturbance failed: {exc}") from exc
        return V[np.argmax(V @ xi)]


def _uniform_samples(W, T, rng):
    box = W.as_box()
    if box is not None:
        return rng.uniform(box.lower, box.upper, size=(T, box.dim))
    # General polytope: rejection sampling from its vertices' bounding box.
    V = W.vertices()
    lo, hi = np.min(V, axis=0), np.max(V, axis=0)
    out = np.zeros((T, W.dim))
    for t in range(T):
        for _ in range(10_000):
            w = rng.uniform(lo, hi)
            if W.membership_residual(w) <= 0.0:
                out[t] = w
                break
        else:
            raise SimError("rejection sampling failed (set volume too small)")
    return out


def step_trigger_test(boxes, nominal, xi, k):
    """Decentralized per-coordinate test of the prediction error at step k.

    Returns the violating coordinates, ascending: the sensors that fire,
    each on its own coordinate of the error. An empty list means no
    trigger; a nonempty one means a CoordinateExit trigger.
    """
    if not 1 <= k <= len(boxes.lower):
        raise IndexError(f"trigger test step {k} outside [1, N-1]")
    e = np.asarray(xi, dtype=float) - nominal[k]
    return np.flatnonzero((e < boxes.lower[k - 1] - FEAS_TOL)
                          | (e > boxes.upper[k - 1] + FEAS_TOL)).tolist()


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
        self.schedules = {}      # trigger time -> TriggerSchedule
        self.qp_answers = []     # per solve: (path, IPM iterations, active-set steps)

    @property
    def solve_count(self):
        return len(self.qp_answers)

    @property
    def trigger_times(self):
        return [int(t) for t in range(len(self.cause)) if self.cause[t] is not None]

    def disturbance_hash(self):
        used = self.w[~np.isnan(self.w).any(axis=1)]
        return hashlib.sha256(used.tobytes()).hexdigest()


def run_closed_loop(setup, x0, method, dist, T):
    """Simulate T steps of the event-triggered loop from x0.

    method is one of the four construction routes or 'periodic' (solve at
    every step, no trigger sets: the baseline). Raises ValueError before
    the first step for an unknown method or a disturbance model that does
    not fit W and T (``DisturbanceModel.realize``); raises on an infeasible
    re-solve when every applied disturbance was admissible; after an
    impulse override a recovery is attempted and failures surface with
    that context (``SimError``). An ``RmpcError``, ``TriggerError`` or
    ``GeometryError`` of the re-solve or the boxes at time t keeps its
    type, with ``t=<t>: `` leading its message.
    """
    if method not in METHODS:
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
        coords = []
        if t == 0:
            cause = CAUSE_INITIAL
        elif method == PERIODIC:
            cause = CAUSE_PERIODIC
        elif t - tau >= setup.N:
            cause = CAUSE_MANDATORY
        else:
            coords = step_trigger_test(schedule, sol.x, xi, t - tau)
            cause = CAUSE_COORD if coords else None

        if cause is not None:
            try:
                new_sol = rmpc.solve_rmpc(setup, xi)
                if sol is not None:
                    _check_decay(trace, setup, sol, tau, t, new_sol.value,
                                 impulse_since_trigger)
                sol = new_sol
                if method != PERIODIC:
                    schedule = trace.schedules[t] = trigger.build_schedule(setup, sol, method)
            except (rmpc.RmpcError, trigger.TriggerError, GeometryError) as exc:
                if isinstance(exc, rmpc.InfeasibleState) and (
                        impulse_since_trigger or trace.recovery_events):
                    raise SimError(
                        f"re-solve infeasible at t={t} after impulse override")
                exc.args = (f"t={t}: {exc}",)  # its type and attributes stay
                raise
            tau = t
            impulse_since_trigger = False
            trace.v_star[t] = sol.value
            trace.qp_answers.append((sol.path, sol.iterations, sol.face_steps))
            trace.cause[t] = cause
            trace.coords[t] = coords

        k = t - tau
        trace.tau[t] = tau
        trace.decay_bound[t] = sol.value - float(np.sum(sol.stage_costs[:k]))
        if method != PERIODIC and 1 <= k < setup.N:
            trace.box_lo[t] = sol.x[k] + schedule.lower[k - 1]
            trace.box_hi[t] = sol.x[k] + schedule.upper[k - 1]

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
    """Counts, inter-execution times, cause histogram and decay margins.

    The RMPC QP's work (``MpcSolution.path``): ``qp_law_answers`` and
    ``qp_face_answers`` count the solves that the unconstrained law and
    the least-norm value-0 plan answered, ``qp_iterations`` sums the
    interior-point iterations of the others, and ``qp_face_steps`` the
    active-set steps of every solve that ran the projection.
    """
    times = trace.trigger_times
    if not times:
        raise ValueError("empty trace")
    gaps = np.diff(times)
    hist = {}
    for t in times:
        cause = trace.cause[t]
        hist[cause] = hist.get(cause, 0) + 1
    margins = [c[4] for c in trace.decay_checks if not c[5]]
    paths, iterations, steps = zip(*trace.qp_answers)
    return {
        "solves": trace.solve_count,
        "trigger_times": times,
        "mean_inter_execution": float(np.mean(gaps)) if gaps.size else None,
        "max_inter_execution": int(np.max(gaps)) if gaps.size else None,
        "cause_histogram": hist,
        "decay_margins": margins,
        "min_decay_margin": float(np.min(margins)) if margins else None,
        "recovery_events": list(trace.recovery_events),
        "qp_law_answers": paths.count(rmpc.LAW),
        "qp_iterations": sum(iterations),
        "qp_face_answers": paths.count(rmpc.FACE),
        "qp_face_steps": sum(steps),
    }
