#!/usr/bin/env python3
"""Closed-loop benchmark of `etrmpc run`.

    python3 perfbench/run.py --workload cp_reference --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the program from
``src/``. A pass calls ``cli.cmd_run`` once per (method, seed) of the
workload, exactly as ``etrmpc run`` does; passes repeat until
``--seconds`` have elapsed (at least one). Times are scaled to a reference
machine speed (see calibration.py). Every run's outputs are checked apart
from the program (see checks.py). The last stdout line is one JSON
object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced pass and its overhead against an untraced
pass of the same runs. Spans, the environment record and per-run
figures go to ``.perfbench_out/<workload>-seed<n>-trace<t>/``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import environment  # noqa: E402  (must pin before numpy loads)

environment.pin_blas_threads()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5       # set-up timings before the first pass; one more per
                        # run of an untraced pass
SAMPLE_EVERY = 8        # box-check every 8th schedule of a run, from the 3rd
SAMPLE_SPLICES = (1, 5, 9)
BASE_CONFIG = ROOT / "configs" / "batch_reactor.json"
OUTPUT_FILES = ("trace.csv", "summary.json", "schedules.json", "plot_data.json")
PER_LAYER_CALLS = ("geometry.support", "geometry.shape_ratio",
                   "geometry.weighted_projection", "solver.solve_qp",
                   "solver.solve_lp", "solver.maximize_log_volume",
                   "rmpc.solve_rmpc", "trigger.build_schedule",
                   "trigger.assemble_principal", "sim.worst_case")
PER_LAYER_S = PER_LAYER_CALLS + ("tightening.synthesize_nominal_gain",
                                 "tightening.synthesize_tightening_gains",
                                 "tightening.build_setup", "trigger.build_candidates",
                                 "trigger.construct_box_cp", "trigger.construct_box_lp")
PER_LAYER_SELF = ("rmpc.solve_rmpc", "trigger.build_schedule",
                  "sim.run_closed_loop", "cli.cmd_run")
SHARE_METHODS = ("CP1", "CP2", "LP1", "LP2", "periodic")
SHARE_LAYERS = ("rmpc_qp", "assemble", "build_box", "shape_ratio")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    src = ROOT / "src"
    if not (src / "etrmpc" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {src}")
    if not BASE_CONFIG.is_file():
        raise BenchError(f"no reference config at {BASE_CONFIG}")
    sys.path.insert(0, str(src))
    import etrmpc
    from etrmpc import cli, rmpc, sim, solver, tightening, trigger, geometry  # noqa: F401
    if Path(etrmpc.__file__).resolve().parent != (src / "etrmpc").resolve():
        raise BenchError(f"imported etrmpc from {etrmpc.__file__}, not {src}")
    return etrmpc


class Bench:
    def __init__(self, pkg, workload, seed, out_root):
        self.pkg = pkg
        self.cli = pkg.cli
        self.out_root = out_root
        base = workloads.load_base_config(BASE_CONFIG)
        self.config_data = workload.make_config(base)
        path = out_root / "config.json"
        path.write_text(json.dumps(self.config_data, indent=2))
        self.config = self.cli.ExperimentConfig.from_file(path)
        self.runs = workload.runs(seed)
        self.setup_times = []       # at the reference speed
        self.kernel_times = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.hashes = {}            # (method, seed) -> trace.csv sha256
        self.box_samples = []       # (method, W, d, lower, upper, q, exact, dir)
        self.sampled = set()
        self.first_output = None    # (seed, RunOutput) for the self-test

    def kernel(self):
        self.kernel_times.append(calibration.kernel_seconds())
        return self.kernel_times[-1]

    def time_setup(self):
        """One set-up timing, scaled by the calibration kernel right after
        it; returns that kernel time."""
        t0 = time.perf_counter()
        self.config.build()
        elapsed = time.perf_counter() - t0
        kernel = self.kernel()
        self.setup_times.append(elapsed * calibration.REFERENCE_S / kernel)
        return kernel

    def calibrated_run(self, method, seed, timer, before):
        """one_run between two kernel timings (``before`` was just taken);
        times at the reference speed.

        Returns (scale, wall, solves, output bytes) with wall already
        scaled; latencies recorded by ``timer`` are to be scaled by scale.
        """
        wall, solves, out_bytes = self.one_run(method, seed, timer)
        scale = 2.0 * calibration.REFERENCE_S / (before + self.kernel())
        return scale, None if wall is None else wall * scale, solves, out_bytes

    def one_run(self, method, seed, timer):
        """cmd_run as `etrmpc run` calls it.

        Returns (wall seconds, solves, output bytes); wall is None when
        the run raised.
        """
        directory = self.out_root / "runs" / f"{method}-{seed}"
        self.attempted += 1
        if timer is not None:
            timer.start_run(method == "periodic")
        t0 = time.perf_counter()
        try:
            self.cli.cmd_run(self.config, out_dir=directory, method=method,
                             seed=seed, steps=workloads.STEPS, out=io.StringIO())
        except (self.pkg.sim.SimError, self.pkg.rmpc.RmpcError,
                self.pkg.trigger.TriggerError, self.pkg.tightening.TighteningError) as exc:
            self.failed += 1
            print(f"run {method} seed {seed} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return None, 0, 0
        wall = time.perf_counter() - t0
        out_bytes = sum((directory / f).stat().st_size for f in OUTPUT_FILES)
        solves = self.check(method, seed, directory, timer)
        return wall, solves, out_bytes

    def check(self, method, seed, directory, timer):
        out = checks.RunOutput(directory)
        problems = checks.check_run(self.config_data, method, seed, out)
        digest = hashlib.sha256((directory / "trace.csv").read_bytes()).hexdigest()
        if self.hashes.setdefault((method, seed), digest) != digest:
            problems.append("trace.csv differs from the first pass")
        for p in problems:
            self.problems.append(f"{method} seed {seed}: {p}")
        if self.first_output is None:
            self.first_output = (seed, out)
        if timer is not None and method != "periodic":
            self.sample_boxes(method, out, timer.schedules, directory)
        return out.summary["statistics"]["solves"]

    def sample_boxes(self, method, out, schedules, directory):
        """Keep W, d and the written box of a few principal polytopes
        (first pass only: later passes must reproduce it bit for bit)."""
        if directory in self.sampled:
            return
        self.sampled.add(directory)
        written = json.loads((directory / "schedules.json").read_text())["per_trigger"]
        q = 1 if method in ("CP1", "LP1") else 2
        exact = method.startswith("CP")
        for n in range(2, len(schedules), SAMPLE_EVERY):
            boxes = written[str(out.triggers[n])]["boxes"]
            for j in SAMPLE_SPLICES:
                pp = schedules[n].principals[j - 1]
                b = boxes[j - 1]
                self.box_samples.append((method, pp.W.copy(), pp.d.copy(),
                                         np.array(b["lower"]), np.array(b["upper"]),
                                         q, exact, directory))

    def untraced_pass(self):
        timer = tracing.TriggerTimer(self.pkg)
        timer.install()
        try:
            walls, latencies, solves = {}, {}, 0
            for method, seed in self.runs:
                before = self.time_setup()
                scale, wall, n, _ = self.calibrated_run(method, seed, timer, before)
                if wall is not None:
                    walls[method, seed] = wall
                    latencies[method, seed] = scale * np.array(timer.latencies)
                    solves += n
        finally:
            timer.restore()
        return {"walls": walls, "latencies": latencies, "solves": solves}

    def traced_pass(self):
        tracer = tracing.Tracer(self.pkg)
        tracer.install()
        try:
            walls, methods, out_bytes = {}, [], 0
            for method, seed in self.runs:
                _, wall, _, nbytes = self.calibrated_run(method, seed, None, self.kernel())
                if wall is not None:
                    walls[method, seed] = wall
                    methods.append(method)
                    out_bytes += nbytes
        finally:
            tracer.restore()
        traced = {"walls": walls, "spans": tracer.spans, "methods": methods,
                  "output_bytes": out_bytes}
        traced["metrics"] = layer_metrics(traced, self.pkg.solver.MAX_ITER)
        return traced

    def verify_boxes(self):
        for method, W, d, lower, upper, q, exact, directory in self.box_samples:
            for p in checks.check_box(W, d, lower, upper, q, exact):
                self.problems.append(f"{method} box sample ({directory.name}): {p}")

    def self_test(self):
        seed, out = self.first_output
        sample = next((s for s in self.box_samples if checks.has_volume(s[1], s[2], s[5])),
                      None)
        if sample is None:
            self.problems.append("no box with positive volume to corrupt")
            return
        accepted = checks.self_test(self.config_data, seed, out, sample[1:7])
        for what in accepted:
            self.problems.append(f"self-test: check accepted a corrupted result ({what})")


def best_run_s(passes):
    """Pass time with each run at its fastest repeat over the passes.

    Every pass repeats the same deterministic runs, and interference from
    other work on the machine only ever adds time, so the fastest repeat
    of a run is its least disturbed measurement.
    """
    return sum(min(p["walls"][key] for p in passes) for key in passes[0]["walls"])


def best_latencies(passes):
    """Per-trigger fastest repeat over the passes, all runs pooled."""
    out = []
    for key in passes[0]["latencies"]:
        out.extend(np.min([p["latencies"][key] for p in passes], axis=0))
    return np.array(out)


def layer_metrics(traced, max_iter):
    calls, incl, self_s, counters = tracing.aggregate(traced["spans"], max_iter)
    m = {}
    for name in PER_LAYER_CALLS:
        m[f"{name}.calls"] = (calls[name], "count")
    for name in PER_LAYER_S:
        m[f"{name}.s"] = (incl[name], "s")
    for name in PER_LAYER_SELF:
        m[f"{name}.self_s"] = (self_s[name], "s")
    for name in ("solver.solve_qp", "solver.solve_lp", "solver.maximize_log_volume"):
        m[f"{name}.iterations"] = (counters[f"{name}.iterations"], "count")
    for name in ("solver.solve_qp", "solver.solve_lp"):
        m[f"{name}.maxiter"] = (counters[f"{name}.maxiter"], "count")
    mlv = "solver.maximize_log_volume"
    m[f"{mlv}.degenerate"] = (counters[f"{mlv}.raised.DegenerateCoordinate"], "count")
    m[f"{mlv}.cap_hits"] = (counters[f"{mlv}.cap_hits"], "count")
    n_pp = calls["trigger.assemble_principal"]
    m["trigger.assemble_principal.rows"] = (
        counters["trigger.assemble_principal.rows"] / n_pp if n_pp else 0.0, "count")
    m["trigger.degenerate_coords"] = (counters["trigger.degenerate_coords"], "count")
    m["trigger.zero_boxes"] = (counters["trigger.zero_boxes"], "count")
    m["cli.output_bytes"] = (traced["output_bytes"], "B")
    shares = tracing.run_shares(traced["spans"], traced["methods"])
    for method in SHARE_METHODS:
        wall = shares[method]["wall"]
        for layer in SHARE_LAYERS:
            m[f"share.{method}.{layer}"] = (shares[method][layer] / wall if wall else 0.0,
                                            "ratio")
    return m


def median_metrics(per_pass, problems):
    """Median over passes of each timing; counts must repeat exactly."""
    out = {}
    for name, (value, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        if unit in ("s", "ratio"):
            out[name] = (statistics.median(values), unit)
        else:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            out[name] = (values[0], unit)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        env = environment.blas_record()
        pkg = import_program()
    except (environment.PinError, BenchError, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    out_root = ROOT / ".perfbench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    bench = Bench(pkg, workload, args.seed, out_root)

    for _ in range(SETUP_REPEATS):
        bench.time_setup()
    untraced, traced = [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        untraced.append(bench.untraced_pass())
        if args.trace:
            if traced:
                traced[-1]["spans"] = None   # folded into its metrics already
            traced.append(bench.traced_pass())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    solves = {p["solves"] for p in untraced}
    if len(solves) != 1:
        bench.problems.append(f"solve counts differ between passes: {sorted(solves)}")
    bench.verify_boxes()
    bench.self_test()

    n_trig = [sum(map(len, p["latencies"].values())) for p in untraced]
    if len(set(n_trig)) != 1:
        bench.problems.append(f"trigger counts differ between passes: {n_trig}")
        untraced = untraced[:1]
    run_s = best_run_s(untraced)
    if args.trace:
        metrics = median_metrics([p["metrics"] for p in traced], bench.problems)
        traced_run_s = best_run_s(traced)
        metrics["trace.untraced_run_s"] = (run_s, "s")
        metrics["trace.run_s"] = (traced_run_s, "s")
        metrics["trace.overhead_s"] = (traced_run_s - run_s, "s")
        write_spans(out_root / "spans.jsonl", traced[-1]["spans"])
    else:
        latencies_ms = 1e3 * best_latencies(untraced)
        metrics = {
            "run_s": (run_s, "s"),
            "trigger_ms_p50": (float(np.percentile(latencies_ms, 50)), "ms"),
            "trigger_ms_p90": (float(np.percentile(latencies_ms, 90)), "ms"),
            "setup_s": (statistics.median(bench.setup_times), "s"),
            "solves": (untraced[0]["solves"], "count"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    record = {
        "workload": workload.name, "seed": args.seed, "runs": bench.runs,
        "methods": list(workload.methods), "environment": env,
        "passes": len(untraced), "triggers_per_pass": n_trig,
        "kernel_s": bench.kernel_times,
        "pass_walls": [list(p["walls"].values()) for p in untraced],
        "problems": bench.problems,
    }
    (out_root / "record.json").write_text(json.dumps(record, indent=2))
    for p in bench.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({"environment": env, "passes": len(untraced),
                      "triggers_per_pass": n_trig}))
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_spans(path, spans):
    with open(path, "w") as fh:
        for i, (name, start, end, parent, _) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start,
                                 "end": end, "parent": parent}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
