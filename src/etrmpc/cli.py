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
import math
import sys
from pathlib import Path

import numpy as np

from . import geometry, rmpc, sim, tightening, trigger
from .geometry import HyperRect, Polytope
from .sim import DisturbanceModel, run_closed_loop, trigger_statistics
from .tightening import (PlantModel, build_setup, synthesize_nominal_gain,
                         synthesize_tightening_gains)

TRACE_VERSION = "etrmpc-trace-v1"
ALL_METHODS = trigger.METHODS + (sim.PERIODIC,)


class ConfigError(Exception):
    """Config parse/validation failure with field context."""


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
            self.N = int(data["horizon"])
            self.M = int(data.get("nilpotency_steps", self.A.shape[0]))
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
            if self.method not in ALL_METHODS:
                raise ConfigError(f"method must be one of {ALL_METHODS}")
            dm = data.get("disturbance_model", {"kind": "zero"})
            self.disturbance_kind = str(dm.get("kind", "zero"))
            self.impulses = [(int(s["time"]), int(s["coordinate"]), float(s["value"]))
                             for s in dm.get("impulses", [])]
            self.replay_sequence = (_matrix(dm["sequence"], "disturbance_model.sequence")
                                    if "sequence" in dm else None)
            self.allow_out_of_set = bool(dm.get("allow_out_of_set", False))
            self.x0 = np.asarray(data["x0"], dtype=float)
            self.steps = int(data["steps"])
            self.seed = int(data.get("seed", 0))
            self.output_dir = str(data.get("output_dir", "out"))
        except ConfigError:
            raise
        except KeyError as exc:
            raise ConfigError(f"missing config field: {exc.args[0]}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc
        if self.steps < 1:
            raise ConfigError("steps must be positive")

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
        return DisturbanceModel(
            kind=self.disturbance_kind,
            seed=self.seed if seed is None else seed,
            impulses=self.impulses,
            sequence=self.replay_sequence,
            allow_out_of_set=self.allow_out_of_set)

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
    """Build the setup and print assumption margins; nonzero on violation."""
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
    seed = config.seed if seed is None else seed
    steps = steps or config.steps
    setup = config.build()
    dist = config.disturbance_model(seed=seed)
    trace = run_closed_loop(setup, config.x0, method, dist, steps)
    stats = trigger_statistics(trace)

    directory = Path(out_dir or config.output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    prov = {"trace_version": TRACE_VERSION, "config_sha256": config.config_hash(),
            "seed": seed, "method": method}

    _write_trace_csv(directory / "trace.csv", trace, prov)
    summary = {
        "provenance": prov,
        "steps": steps,
        "statistics": _json_safe(stats),
        "final_state": trace.x[-1].tolist(),
        "final_value": _json_safe(trace.v_star[trace.trigger_times[-1]]),
        "disturbance_hash": trace.disturbance_hash(),
        "state_bound_violations": int(sum(
            setup.Xseq[0].membership_residual(trace.x[t]) > 1e-8
            for t in range(trace.x.shape[0]))),
    }
    (directory / "summary.json").write_text(json.dumps(summary, indent=2))
    # One shape diagnostic over every principal polytope of the run; each
    # schedule writes its slice.
    ratios = geometry.shape_ratios(setup.principal_rows.G, [
        pp.d for s in trace.schedules.values() for pp in s.principals])
    schedules, used = {}, 0
    for t, s in trace.schedules.items():
        schedules[t] = s.to_dict(ratios[used:used + len(s.principals)])
        used += len(s.principals)
    (directory / "schedules.json").write_text(json.dumps(
        {"provenance": prov, "per_trigger": _json_safe(schedules)}, indent=2))
    (directory / "plot_data.json").write_text(json.dumps(
        {"provenance": prov, **_plot_data(trace)}, indent=2))
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
    for m in methods:
        if m not in ALL_METHODS:
            raise ConfigError(f"unknown method {m!r}")
    seed = config.seed if seed is None else seed
    steps = steps or config.steps
    setup = config.build()
    dist = config.disturbance_model(seed=seed)

    rows = {}
    for method in methods:
        trace = run_closed_loop(setup, config.x0, method, dist, steps)
        stats = trigger_statistics(trace)
        rows[method] = {
            "solves": stats["solves"],
            "mean_inter_execution": stats["mean_inter_execution"],
            "final_value": _json_safe(trace.v_star[trace.trigger_times[-1]]),
            "min_decay_margin": stats["min_decay_margin"],
            "disturbance_hash": trace.disturbance_hash(),
        }

    table = {
        "provenance": {"config_sha256": config.config_hash(), "seed": seed,
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
    with open(path, "w", newline="") as fh:
        fh.write(f"# {prov['trace_version']} config_sha256={prov['config_sha256']} "
                 f"seed={prov['seed']} method={prov['method']}\n")
        writer = csv.writer(fh)
        writer.writerow(cols)
        T = trace.u.shape[0]
        for t in range(T + 1):
            row = [t]
            row += [repr(float(v)) for v in trace.x[t]]
            row += _maybe(trace.u[t]) if t < T else [""] * nu
            row += [int(trace.tau[t]), trace.cause[t] or ""]
            row += _maybe([trace.v_star[t]])
            row += _maybe([trace.decay_bound[t]]) if t < T else [""]
            row += _maybe(trace.box_lo[t]) + _maybe(trace.box_hi[t])
            writer.writerow(row)


def _maybe(values):
    return ["" if not np.isfinite(v) else repr(float(v)) for v in np.atleast_1d(values)]


def _plot_data(trace):
    T = trace.u.shape[0]
    return {
        "t": trace.t.tolist(),
        "states": trace.x.T.tolist(),
        "band_lower": _json_safe(trace.box_lo.T.tolist()),
        "band_upper": _json_safe(trace.box_hi.T.tolist()),
        "inputs": _json_safe(trace.u.T.tolist()),
        "trigger_times": trace.trigger_times,
        "value_at_triggers": [_json_safe(trace.v_star[t]) for t in trace.trigger_times],
        "decay_bound": _json_safe(trace.decay_bound[:T].tolist()),
    }


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="etrmpc",
        description="Event-triggered robust MPC: validate configs, run "
                    "closed-loop experiments, compare trigger constructions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="parse a config and check assumptions")
    p_val.add_argument("--config", required=True)

    p_run = sub.add_parser("run", help="run one closed-loop experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--method", default=None, choices=ALL_METHODS)
    p_run.add_argument("--steps", type=int, default=None)

    p_cmp = sub.add_parser("compare", help="run methods under a shared replay")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--methods", required=True,
                       help="comma-separated, e.g. CP1,LP1,periodic")
    p_cmp.add_argument("--out-dir", default=None)
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.add_argument("--steps", type=int, default=None)

    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig.from_file(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "validate":
            code, _ = cmd_validate(config)
            return code
        if args.command == "run":
            cmd_run(config, out_dir=args.out_dir, method=args.method,
                    seed=args.seed, steps=args.steps)
            return 0
        if args.command == "compare":
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            cmd_compare(config, methods, out_dir=args.out_dir,
                        seed=args.seed, steps=args.steps)
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (tightening.TighteningError, sim.SimError, rmpc.RmpcError,
            trigger.TriggerError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
