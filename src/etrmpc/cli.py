"""Configuration-driven command-line front end.

Verbs: ``validate`` (build the setup and report assumption margins),
``run`` (one closed-loop experiment, writing trace/summary/schedule/plot
files) and ``compare`` (several construction methods under the identical
disturbance replay). Configs are JSON with row-major matrices; every
output file carries the config hash and seed.
"""

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import geometry, rmpc, sim, solver, tightening, trigger
from .geometry import FEAS_TOL, HyperRect, Polytope
from .sim import METHODS, DisturbanceModel, integer, run_closed_loop, trigger_statistics
from .tightening import (PlantModel, build_setup, synthesize_nominal_gain,
                         synthesize_tightening_gains)

TRACE_VERSION = "etrmpc-trace-v1"


class ConfigError(Exception):
    """Config parse/validation failure with field context."""


class SetupError(ValueError):
    """A ValueError of the setup's build, reported as ``validate`` does."""


class ExperimentConfig:
    """Validated experiment description; round-trips through JSON."""

    def __init__(self, data):
        self._raw = data
        try:
            self.A = _matrix(data["plant"]["A"], "plant.A")
            self.B = _matrix(data["plant"]["B"], "plant.B")
            sets = data["sets"]
            self.X = _set_spec(sets["state"], "sets.state")
            self.U = _set_spec(sets["input"], "sets.input")
            self.W = _set_spec(sets["disturbance"], "sets.disturbance")
            self.Tx = _set_spec(sets["state_target"], "sets.state_target")
            self.Tu = _set_spec(sets["input_target"], "sets.input_target")
            self.Xf = _set_spec(sets["terminal"], "sets.terminal")
            self.N = integer(data["horizon"], "horizon")
            self.M = integer(data.get("nilpotency_steps", self.A.shape[0]), "nilpotency_steps")
            self.Q = _matrix(data["weights"]["Q"], "weights.Q")
            self.R = _matrix(data["weights"]["R"], "weights.R")
            gw = data.get("nominal_gain_weights")
            self.Qlqr = _matrix(gw["Q"], "nominal_gain_weights.Q") if gw else self.Q
            self.Rlqr = _matrix(gw["R"], "nominal_gain_weights.R") if gw else self.R
            gains = data.get("gains", {})
            self.F = _matrix(gains["F"], "gains.F") if "F" in gains else None
            self.K = [_matrix(k, f"gains.K[{i}]")
                      for i, k in enumerate(gains["K"])] if "K" in gains else None
            self.method = str(data.get("method", "CP1"))
            if self.method not in METHODS:
                raise ConfigError(f"method must be one of {METHODS}")
            dm = data.get("disturbance_model", {"kind": "zero"})
            self.disturbance = dict(  # DisturbanceModel's arguments, which it checks
                kind=dm.get("kind", "zero"), seed=data.get("seed", 0), sequence=dm.get("sequence"),
                impulses=[(s["time"], s["coordinate"], s["value"]) for s in dm.get("impulses", [])],
                allow_out_of_set=dm.get("allow_out_of_set", False))
            self.x0 = np.asarray(data["x0"], dtype=float)
            self.steps = integer(data["steps"], "steps")
            self.output_dir = str(data.get("output_dir", "out"))
        except ConfigError:
            raise
        except KeyError as exc:
            raise ConfigError(f"missing config field: {exc.args[0]}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc
        nx = self.A.shape[0]
        if self.x0.shape != (nx,) or not np.all(np.isfinite(self.x0)):
            raise ConfigError(f"x0: need {nx} finite entries, got {self.x0.tolist()}")

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}")
        except OSError as exc:
            raise ConfigError(f"{path}: {exc.strerror}")
        return cls(data)

    def to_dict(self):
        return json.loads(self.canonical_json())

    def canonical_json(self):
        return json.dumps(self._raw, sort_keys=True, separators=(",", ":"))

    def config_hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def __eq__(self, other):
        return (isinstance(other, ExperimentConfig)
                and self.canonical_json() == other.canonical_json())

    def disturbance_model(self, seed=None):
        return DisturbanceModel(**(self.disturbance if seed is None
                                   else {**self.disturbance, "seed": seed}))

    def build(self):
        """Construct the validated RmpcSetup (gains synthesized if absent)."""
        plant = PlantModel(self.A, self.B, X=self.X, U=self.U, W=self.W,
                           Tx=self.Tx, Tu=self.Tu, Xf=self.Xf)
        F = self.F if self.F is not None else synthesize_nominal_gain(
            plant, self.Qlqr, self.Rlqr)
        K = self.K if self.K is not None else synthesize_tightening_gains(
            plant, self.M, N=self.N)
        return build_setup(plant, N=self.N, M=self.M, F=F, K=K,
                           Q=self.Q, R=self.R)


def _checked_run(config, seed, steps):
    """The steps and disturbance model of a run, the model checked against
    W and the steps (``DisturbanceModel.realize``). A ValueError is a
    config error."""
    steps = config.steps if steps is None else steps
    if steps < 1:
        raise ConfigError(f"steps must be positive, got {steps}")
    try:
        dist = config.disturbance_model(seed)
        dist.realize(config.W, steps)
    except ValueError as exc:
        raise ConfigError(f"disturbance_model: {exc}") from exc
    return steps, dist


def _prepare(config, seed, steps):
    """The steps, disturbance model and setup of a run; a ValueError of
    the build is a SetupError."""
    steps, dist = _checked_run(config, seed, steps)
    try:
        return steps, dist, config.build()
    except ValueError as exc:
        raise SetupError(exc) from exc


def _matrix(rows, field):
    try:
        out = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field}: not a numeric matrix ({exc})")
    if out.ndim == 1:
        out = out[None, :]
    if out.ndim != 2 or not np.all(np.isfinite(out)):
        raise ConfigError(f"{field}: must be a finite 2-d row-major matrix")
    return out


def _set_spec(spec, field):
    if "box" in spec:
        box = spec["box"]
        try:
            return HyperRect(box["lower"], box["upper"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{field}.box: {exc}")
    if "A" in spec and "b" in spec:
        try:
            return Polytope(spec["A"], spec["b"])
        except ValueError as exc:
            raise ConfigError(f"{field}: {exc}")
    raise ConfigError(f"{field}: need either a box or an A/b pair")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_validate(config, out=sys.stdout):
    """Build the setup and print assumption margins; nonzero on violation.
    The steps and the disturbance model are checked first."""
    _checked_run(config, None, None)
    try:
        setup = config.build()
    except (tightening.TighteningError, ValueError) as exc:
        print(f"INVALID: {type(exc).__name__}: {exc}", file=out)
        return 1, None
    rep = setup.report
    print(f"config {config.config_hash()} valid", file=out)
    print(f"  nilpotency residual ||L_M||_F = {rep['nilpotency_residual']:.3e}", file=out)
    print(f"  closed-loop spectral radius  = {rep['closed_loop_spectral_radius']:.6f}",
          file=out)
    for name, margin in rep["margins"].items():
        print(f"  margin {name} = {margin:+.6f}", file=out)
    for name in ("X", "U", "TX", "TU"):
        offs = rep["tightened_offsets"][name]
        print(f"  tightened {name}: first {np.round(offs[0], 6).tolist()} "
              f"-> last {np.round(offs[-1], 6).tolist()}", file=out)
    return 0, setup


def cmd_run(config, out_dir=None, method=None, seed=None, steps=None,
            out=sys.stdout):
    """Run one experiment and write trace, summary, schedules and plot data."""
    method = method or config.method
    steps, dist, setup = _prepare(config, seed, steps)
    trace = run_closed_loop(setup, config.x0, method, dist, steps)
    stats = trigger_statistics(trace)

    directory = Path(out_dir or config.output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    X = setup.plant.X
    prov = {"trace_version": TRACE_VERSION, "config_sha256": config.config_hash(),
            "seed": dist.seed, "method": method}

    _write_trace_csv(directory / "trace.csv", trace, prov)
    summary = {
        "provenance": prov,
        "steps": steps,
        "statistics": {**stats, "decay_margins": _finite(stats["decay_margins"]),
                       "min_decay_margin": _finite(stats["min_decay_margin"])},
        "final_state": trace.x[-1].tolist(),
        "final_value": _finite(trace.v_star[trace.trigger_times[-1]]),
        "disturbance_hash": trace.disturbance_hash(),
        "state_bound_violations": int(np.count_nonzero(np.max(
            solver._mv(X.A, trace.x) - X.b, axis=1) > FEAS_TOL)),
    }
    (directory / "summary.json").write_text(json.dumps(summary, indent=2))
    # One shape diagnostic over every principal polytope of the run; each
    # schedule writes its slice.
    ratios = geometry.shape_ratios(setup.principal_rows.G, np.array(
        [s.offsets for s in trace.schedules.values()]))
    schedules, used = {}, 0
    for t, s in trace.schedules.items():
        schedules[t] = s.to_dict(ratios[used:used + len(s.offsets)])
        used += len(s.offsets)
    # The two large files are compact: with indent, json takes its
    # pure-Python encoder.
    (directory / "schedules.json").write_text(json.dumps(
        {"provenance": prov, "per_trigger": schedules}, separators=(",", ":")))
    (directory / "plot_data.json").write_text(json.dumps(
        {"provenance": prov, **_plot_data(trace)}, separators=(",", ":")))
    print(f"run {method}: {stats['solves']} solves in {steps} steps "
          f"-> {directory}", file=out)
    return trace, stats


def cmd_compare(config, methods, out_dir=None, seed=None, steps=None,
                out=sys.stdout):
    """Run several methods under one disturbance sequence; emit a table.

    Seed-driven disturbances are a fixed function of the seed, so every
    method sees the same sequence; the state-dependent worst case cannot
    be shared and runs per method (flagged in the report).
    """
    if not methods:
        raise ConfigError("no method to compare")
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}")
        if m in methods[:i]:
            raise ConfigError(f"method {m!r} given twice")
    steps, dist, setup = _prepare(config, seed, steps)

    rows = {}
    for method in methods:
        trace = run_closed_loop(setup, config.x0, method, dist, steps)
        stats = trigger_statistics(trace)
        rows[method] = {
            "solves": stats["solves"],
            "mean_inter_execution": stats["mean_inter_execution"],
            "final_value": _finite(trace.v_star[trace.trigger_times[-1]]),
            "min_decay_margin": stats["min_decay_margin"],
            "disturbance_hash": trace.disturbance_hash(),
        }

    table = {
        "provenance": {"config_sha256": config.config_hash(), "seed": dist.seed,
                       "steps": steps,
                       "shared_replay": dist.kind != "worst_case"},
        "methods": rows,
    }
    if out_dir:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "comparison.json").write_text(json.dumps(table, indent=2))
    header = f"{'method':>8} {'solves':>7} {'mean gap':>9} {'final V*':>10} {'min margin':>11}"
    print(header, file=out)
    for m in methods:
        r = rows[m]
        gap = "-" if r["mean_inter_execution"] is None else f"{r['mean_inter_execution']:.2f}"
        marg = "-" if r["min_decay_margin"] is None else f"{r['min_decay_margin']:.2e}"
        print(f"{m:>8} {r['solves']:>7} {gap:>9} {r['final_value']:>10.4g} {marg:>11}",
              file=out)
    return table


def _write_trace_csv(path, trace, prov):
    nx = trace.x.shape[1]
    nu = trace.u.shape[1]
    cols = (["t"] + [f"x{i}" for i in range(nx)] + [f"u{i}" for i in range(nu)]
            + ["tau", "trigger_cause", "V_star", "decay_bound"]
            + [f"box_lo{i}" for i in range(nx)] + [f"box_hi{i}" for i in range(nx)])
    # The float cells of every row t = 0..T, u padded by a NaN row at T;
    # a cell that is not finite (NaN where the run sets none) is blank.
    table = np.hstack([trace.x, np.vstack([trace.u, np.full((1, nu), np.nan)]),
                       trace.v_star[:, None], trace.decay_bound[:, None],
                       trace.box_lo, trace.box_hi])
    cells = [["" if v is None else repr(v) for v in row] for row in _finite(table)]
    with open(path, "w", newline="") as fh:
        fh.write(f"# {prov['trace_version']} config_sha256={prov['config_sha256']} "
                 f"seed={prov['seed']} method={prov['method']}\n")
        writer = csv.writer(fh)
        writer.writerow(cols)
        for t, (row, tau, cause) in enumerate(zip(cells, trace.tau.tolist(), trace.cause)):
            writer.writerow([t, *row[:nx + nu], tau, cause or "", *row[nx + nu:]])


def _plot_data(trace):
    T = trace.u.shape[0]
    return {
        "t": trace.t.tolist(),
        "states": trace.x.T.tolist(),
        "band_lower": _finite(trace.box_lo.T),
        "band_upper": _finite(trace.box_hi.T),
        "inputs": _finite(trace.u.T),
        "trigger_times": trace.trigger_times,
        "value_at_triggers": _finite(trace.v_star[trace.trigger_times]),
        "decay_bound": _finite(trace.decay_bound[:T]),
    }


def _finite(values):
    """An array, list or number as JSON: its nested lists, with every value
    that is not finite as None, in one pass over the array."""
    a = np.asarray(values, dtype=float)
    return np.where(np.isfinite(a), a, None).tolist()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="etrmpc",
        description="Event-triggered robust MPC: validate configs, run "
                    "closed-loop experiments, compare trigger constructions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="parse a config and check assumptions")
    p_run = sub.add_parser("run", help="run one closed-loop experiment")
    p_cmp = sub.add_parser("compare", help="run methods under a shared replay")
    for p in (p_val, p_run, p_cmp):
        p.add_argument("--config", required=True)
    for p in (p_run, p_cmp):
        p.add_argument("--out-dir", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--steps", type=int, default=None)
    p_run.add_argument("--method", default=None, choices=METHODS)
    p_cmp.add_argument("--methods", required=True,
                       help="comma-separated, e.g. CP1,LP1,periodic")

    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig.from_file(args.config)
        if args.command == "validate":
            return cmd_validate(config)[0]
        if args.command == "run":
            cmd_run(config, out_dir=args.out_dir, method=args.method,
                    seed=args.seed, steps=args.steps)
        else:
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            cmd_compare(config, methods, out_dir=args.out_dir,
                        seed=args.seed, steps=args.steps)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SetupError as exc:
        print(f"error: ValueError: {exc}", file=sys.stderr)
        return 1
    except (tightening.TighteningError, sim.SimError, rmpc.RmpcError,
            trigger.TriggerError, geometry.GeometryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
