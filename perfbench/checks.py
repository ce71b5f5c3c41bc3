"""Checks of `etrmpc run` outputs, computed apart from the program.

Each check returns a list of problems (empty means pass). The trace
checks read ``trace.csv`` and ``summary.json`` and recompute from the
config matrices alone: the dynamics with an independently regenerated
disturbance, the constraint sets, box containment between triggers, the
value decay at triggers and the solve counts. The box checks re-solve a
sample of maximum-volume box problems with scipy. ``self_test`` feeds the
constraint, dynamics and box checks one corrupted result each and reports
the corruptions they accept.
"""

import csv
import json

import numpy as np

STATE_TOL = 1e-9      # dynamics replay, absolute on states of size <= 2
SET_TOL = 1e-8        # membership, the program's feasibility tolerance
DECAY_TOL = 1e-6      # value decay, relative to max(1, |V|)
LOGVOL_TOL = 1e-6     # log-volume against the scipy optimum, absolute
DEGENERATE_WIDTH = 1e-9
TIE_TOL = 1e-12       # |x_t| entries this close make the worst case non-unique


class RunOutput:
    """Arrays parsed from one run's trace.csv and summary.json."""

    def __init__(self, directory):
        with open(directory / "trace.csv") as fh:
            self.header = fh.readline()
            rows = list(csv.DictReader(fh))
        with open(directory / "summary.json") as fh:
            self.summary = json.load(fh)
        nx = sum(1 for c in rows[0] if c.startswith("x"))
        nu = sum(1 for c in rows[0] if c.startswith("u"))

        def col(name, upto=None):
            vals = [r[name] for r in rows[:upto]]
            return np.array([float(v) if v != "" else np.nan for v in vals])

        T = len(rows) - 1
        self.x = np.stack([col(f"x{i}") for i in range(nx)], axis=1)
        self.u = np.stack([col(f"u{i}", T) for i in range(nu)], axis=1)
        self.cause = [r["trigger_cause"] for r in rows]
        self.v_star = col("V_star")
        self.decay = col("decay_bound")
        self.box_lo = np.stack([col(f"box_lo{i}") for i in range(nx)], axis=1)
        self.box_hi = np.stack([col(f"box_hi{i}") for i in range(nx)], axis=1)

    @property
    def triggers(self):
        return [t for t, c in enumerate(self.cause) if c]


def set_bounds(spec):
    return np.asarray(spec["box"]["lower"], float), np.asarray(spec["box"]["upper"], float)


def disturbances(config, seed, x, u):
    """w_0..w_{T-1} regenerated without the program.

    uniform: the seeded Philox stream over the box, in the documented
    draw order. worst_case: the closed-form argmax of x_t.w over the box
    or over the cross-polytope {||w||_1 <= r} (all sign-vector rows).
    ``u`` is needed only where that argmax is not unique.
    """
    kind = config["disturbance_model"]["kind"]
    spec = config["sets"]["disturbance"]
    T = x.shape[0] - 1
    if kind == "uniform":
        lo, hi = set_bounds(spec)
        rng = np.random.Generator(np.random.Philox(key=seed))
        return rng.uniform(lo, hi, size=(T, lo.size))
    if kind != "worst_case":
        raise ValueError(f"no independent generator for disturbance kind {kind!r}")
    A = np.asarray(config["plant"]["A"], float)
    B = np.asarray(config["plant"]["B"], float)
    xi = x[:T]
    implied = x[1:] - xi @ A.T - u @ B.T
    if "box" in spec:
        lo, hi = set_bounds(spec)
        w = np.where(xi >= 0.0, hi, lo)
        value = np.sum(np.maximum(xi * lo, xi * hi), axis=1)
        inside = np.max(np.maximum(implied - hi, lo - implied), axis=1) <= SET_TOL
        ties = np.min(np.abs(xi), axis=1) <= TIE_TOL
    else:
        radius = float(spec["b"][0])
        j = np.argmax(np.abs(xi), axis=1)
        w = np.zeros_like(xi)
        w[np.arange(T), j] = radius * np.sign(xi[np.arange(T), j])
        value = radius * np.max(np.abs(xi), axis=1)
        inside = np.sum(np.abs(implied), axis=1) <= radius + SET_TOL
        top2 = np.sort(np.abs(xi), axis=1)[:, -2:]
        ties = top2[:, 1] - top2[:, 0] <= TIE_TOL
    # Where the maximizer is not unique, any point of the optimal face is
    # a worst case: accept the applied one if it lies in W and attains
    # the closed-form support value.
    attains = np.sum(xi * implied, axis=1) >= value - SET_TOL
    use = ties & inside & attains
    w[use] = implied[use]
    return w


def check_dynamics(A, B, x, u, w):
    pred = x[:-1] @ A.T + u @ B.T + w
    err = float(np.max(np.abs(x[1:] - pred)))
    return [] if err <= STATE_TOL else [f"dynamics replay deviates by {err:.3e}"]


def check_constraints(config, x, u):
    problems = []
    for arr, key in ((x, "state"), (u, "input")):
        lo, hi = set_bounds(config["sets"][key])
        worst = float(np.max(np.maximum(arr - hi, lo - arr)))
        if worst > SET_TOL:
            problems.append(f"{key} leaves its set by {worst:.3e}")
    return problems


def check_boxes_hold(out, method):
    """Between triggers the state lies in the active box."""
    if method == "periodic":
        return []
    problems = []
    trig = set(out.triggers)
    for t in range(out.x.shape[0] - 1):
        if t in trig:
            continue
        lo, hi = out.box_lo[t], out.box_hi[t]
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            problems.append(f"no active box at non-trigger step {t}")
            continue
        worst = float(np.max(np.maximum(out.x[t] - hi, lo - out.x[t])))
        if worst > SET_TOL:
            problems.append(f"state leaves its box at t={t} by {worst:.3e}")
    return problems


def check_value(out):
    """V* at a trigger is at most the previous plan's decay bound at t-1."""
    problems = []
    for t in out.triggers[1:]:
        v, bound = out.v_star[t], out.decay[t - 1]
        if not v <= bound + DECAY_TOL * max(1.0, abs(bound)):
            problems.append(f"V*={v:.9g} at t={t} exceeds decay bound {bound:.9g}")
    return problems


def check_solves(out, method, steps):
    solves = out.summary["statistics"]["solves"]
    problems = []
    if solves != len(out.triggers):
        problems.append(f"summary says {solves} solves, trace has {len(out.triggers)}")
    if not out.cause[0]:
        problems.append("no trigger at t=0")
    if method == "periodic" and solves != steps:
        problems.append(f"periodic made {solves} solves in {steps} steps")
    if solves > steps:
        problems.append(f"{solves} solves exceed {steps} steps")
    return problems


def check_run(config, method, seed, out):
    """Every trace check for one run."""
    A = np.asarray(config["plant"]["A"], float)
    B = np.asarray(config["plant"]["B"], float)
    w = disturbances(config, seed, out.x, out.u)
    prov = out.summary["provenance"]
    problems = []
    if prov["seed"] != seed or prov["method"] != method:
        problems.append(f"provenance {prov['method']}/{prov['seed']} != {method}/{seed}")
    problems += check_dynamics(A, B, out.x, out.u, w)
    problems += check_constraints(config, out.x, out.u)
    problems += check_boxes_hold(out, method)
    problems += check_value(out)
    problems += check_solves(out, method, out.u.shape[0])
    return problems


# ---------------------------------------------------------------------------
# Maximum-volume boxes
# ---------------------------------------------------------------------------

def _groups(W, d, q):
    """Live variables and objective groups of max-volume problem q.

    Rebuilt from W and d alone: the feasible maximum of v_j is
    min_i d_i / W_ij (W is nonnegative, the set downward closed).
    Coordinates narrower than 1e-9 are pinned to zero width; for q=1 a
    pair keeps one side when only the other is that narrow.
    """
    k = W.shape[1] // 2
    with np.errstate(divide="ignore"):
        ratio = np.where(W > 0, d[:, None] / np.where(W > 0, W, 1.0), np.inf)
    widths = np.maximum(ratio.min(axis=0), 0.0)
    up, dn = widths[:k], widths[k:]
    if q == 1:
        active = np.maximum(up, dn) >= DEGENERATE_WIDTH
        live = np.concatenate([active, active]) & (widths >= DEGENERATE_WIDTH)
        groups = [[i for i in (j, k + j) if live[i]] for j in np.flatnonzero(active)]
    else:
        active = np.minimum(up, dn) >= DEGENERATE_WIDTH
        live = np.concatenate([active, active])
        groups = [[j] for j in np.flatnonzero(active)] + \
                 [[k + j] for j in np.flatnonzero(active)]
    return live, groups, widths


def has_volume(W, d, q):
    """True when problem q has a box of positive volume."""
    return bool(_groups(W, d, q)[1])


def log_volume(v, groups):
    sums = np.array([v[g].sum() for g in groups])
    return float(np.sum(np.log(sums))) if np.all(sums > 0) else -np.inf


def max_log_volume(W, d, q, starts=()):
    """Independent optimum of max sum log(group widths) over {v >= 0 : Wv <= d}.

    scipy SLSQP in variables scaled by the feasible widths (z = v / width,
    0 <= z <= 1), from an interior start of its own and from each of
    ``starts`` (v-space points, shrunk into the interior). The problem is
    concave, so every start has the same optimum; the best value found is
    returned with its point.
    """
    from scipy.optimize import minimize

    live, groups, widths = _groups(W, d, q)
    if not groups:
        return 0.0, np.zeros(W.shape[1])
    idx = np.flatnonzero(live)
    pos = {int(j): n for n, j in enumerate(idx)}
    S = np.zeros((len(groups), idx.size))
    for r, g in enumerate(groups):
        S[r, [pos[j] for j in g]] = 1.0
    scale = widths[idx]
    S = S * scale
    Wz = W[:, idx] * scale

    def f(z):
        s = S @ z
        if np.any(s <= 0):
            return np.inf, np.zeros_like(z)
        return -float(np.sum(np.log(s))), -(S.T @ (1.0 / s))

    # Each row sums at most nv terms W_ij v_j with W_ij * width_j <= d_i.
    z_starts = [np.full(idx.size, 1.0 / (4.0 * idx.size))]
    for v in starts:
        z = np.clip(0.999 * np.asarray(v)[idx] / scale, 1e-12, 1.0)
        if np.all(S @ z > 0):
            z_starts.append(z)
    best_val, best_v = -np.inf, np.zeros(W.shape[1])
    for z0 in z_starts:
        res = minimize(f, z0, jac=True, method="SLSQP",
                       bounds=[(0.0, 1.0)] * idx.size,
                       constraints=[{"type": "ineq", "fun": lambda z: d - Wz @ z,
                                     "jac": lambda z: -Wz}],
                       options={"ftol": 1e-15, "maxiter": 1000})
        v = np.zeros(W.shape[1])
        v[idx] = np.clip(res.x, 0.0, 1.0) * scale
        val = log_volume(v, groups)
        if val > best_val:
            best_val, best_v = val, v
    return best_val, best_v


def check_box(W, d, lower, upper, q, exact, optimum=None):
    """A built box against its principal rows and the scipy optimum.

    exact (CP): log-volume equal to the optimum within LOGVOL_TOL. Not
    exact (LP): never above the optimum. Either way the box contains the
    origin and satisfies W [upper; -lower] <= d.
    """
    v = np.concatenate([upper, -lower])
    if optimum is None:
        optimum = max_log_volume(W, d, q, starts=[v])[0]
    problems = []
    if np.min(v) < 0.0:
        problems.append("box does not contain the origin")
    scale = 1.0 + float(np.max(np.abs(d)))
    excess = float(np.max(W @ v - d))
    if excess > SET_TOL * scale:
        problems.append(f"box violates its principal rows by {excess:.3e}")
    _, groups, _ = _groups(W, d, q)
    got = log_volume(v, groups) if groups else 0.0
    if exact and not abs(got - optimum) <= LOGVOL_TOL:
        problems.append(f"CP log-volume {got:.9g} != scipy optimum {optimum:.9g}")
    if not exact and got > optimum + LOGVOL_TOL:
        problems.append(f"LP log-volume {got:.9g} above CP optimum {optimum:.9g}")
    return problems


def self_test(config, seed, out, box_sample):
    """Corrupt a checked result three ways; return the corruptions accepted.

    ``box_sample`` is (W, d, lower, upper, q, exact) of a checked box with
    positive volume. For an LP box the corrupted box is the scipy
    optimum presented as a CP box; for a CP box it is the box itself.
    """
    accepted = []
    x = out.x.copy()
    _, hi = set_bounds(config["sets"]["state"])
    x[x.shape[0] // 2, 0] = hi[0] + 0.01
    if not check_constraints(config, x, out.u):
        accepted.append("state moved outside X")

    A = np.asarray(config["plant"]["A"], float)
    B = np.asarray(config["plant"]["B"], float)
    w = disturbances(config, seed, out.x, out.u)
    t = np.flatnonzero(np.any(w[:-1] != w[1:], axis=1))[0]
    w[[t, t + 1]] = w[[t + 1, t]]
    if not check_dynamics(A, B, out.x, out.u, w):
        accepted.append("swapped disturbance")

    W, d, lower, upper, q, exact = box_sample
    optimum, v = max_log_volume(W, d, q)
    if not exact:
        k = W.shape[1] // 2
        lower, upper = -v[k:], v[:k]
    if not check_box(W, d, 1.01 * lower, 1.01 * upper, q, True, optimum):
        accepted.append("CP box scaled up by 1%")
    return accepted
