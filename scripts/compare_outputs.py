#!/usr/bin/env python3
"""Compare the output files of this tree with those of BASE_REF.

    python3 scripts/compare_outputs.py BASE_REF

Exports BASE_REF of this repository into a temporary directory
(``git archive``) and runs, in both trees, the five methods on the
reference config and LP1, LP2 and periodic on the polytopic worst-case
config of ``perfbench/workloads.py``: seed 1234, one OpenBLAS thread.
Prints each output file as identical or moved and, for a moved
``trace.csv``, its first row that differs; for a moved
``schedules.json``, whether any field but the shape ratios moved
(bounds, volumes, degenerate coordinates) and, if not, how many ratios
moved and the largest relative move. For a run with a moved file it
also prints whether its trigger times and solve count held, from both
``summary.json`` files. Then it runs ``etrmpc validate`` on both configs
in both trees and prints its stdout as identical or moved, counted as
one more output. Last, it prints the line count of ``src/etrmpc/*.py``
(as ``wc -l`` counts it) in both trees. Exits 1 if any output moved, 2
if a command fails.

    python3 scripts/compare_outputs.py BASE_REF --seeds 1234-1245

also runs the five methods on the reference config for each seed of the
inclusive range, in both trees, and prints per method and seed the
solves at BASE_REF and here and the first trigger time that differs
(BASE_REF's, then this tree's; "-" where that run has no more
triggers), with each method's totals. A run whose trigger times or
solves moved counts as one more moved output.
"""

import argparse
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEED = 1234
METHODS = ("CP1", "CP2", "LP1", "LP2", "periodic")
RUNS = ([("reference", m) for m in METHODS]
        + [("polytope_worst_case", m) for m in ("LP1", "LP2", "periodic")])
FILES = ("trace.csv", "summary.json", "schedules.json", "plot_data.json")
MAIN = "import sys; from etrmpc.cli import main; sys.exit(main(sys.argv[1:]))"


def export(ref, dest):
    """The tree of ``ref`` under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def cli(tree, *args):
    """The stdout of the command line ``args`` in ``tree``; exits 2 if it fails."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", MAIN, *map(str, args)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{tree}: {' '.join(map(str, args))} failed:\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    return proc.stdout


def run(tree, config, method, out_dir, seed=SEED):
    cli(tree, "run", "--config", config, "--method", method, "--seed", seed,
        "--out-dir", out_dir)


def seed_range(text):
    """The seeds A..B of "A-B", or the one seed of "A"."""
    first, _, last = text.partition("-")
    try:
        seeds = range(int(first), int(last or first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"need A-B or A, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def src_lines(tree):
    """The lines of ``src/etrmpc/*.py``, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "etrmpc").glob("*.py"))


def first_moved_row(a, b):
    rows_a, rows_b = a.read_text().splitlines(), b.read_text().splitlines()
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if ra != rb:
            return f"row {i + 1}:\n      base: {ra}\n      this: {rb}"
    return f"{len(rows_a)} rows against {len(rows_b)}"


def ratio_moves(a, b):
    """For two schedules.json files, whether any field but the shape
    ratios moved (bounds, volumes, degenerate coordinates), how many
    ratios moved and the largest relative move, as a line to print."""
    base, this = (json.loads(p.read_text()) for p in (a, b))
    pop = [[box.pop("shape_ratio") for sch in doc["per_trigger"].values() for box in sch["boxes"]]
           for doc in (base, this)]
    if base != this:
        return "    fields other than shape_ratio moved"
    moves = [abs(y - x) / abs(x) if None not in (x, y) else math.inf
             for x, y in zip(*pop) if x != y]
    return (f"    only shape_ratio moved: {len(moves)} of {len(pop[0])} ratios, "
            f"largest relative move {max(moves, default=0.0):.3g}")


def statistics(out_dir):
    """The statistics of the summary.json in ``out_dir``."""
    return json.loads((out_dir / "summary.json").read_text())["statistics"]


def triggers_held(a, b):
    """Whether the runs in the output directories a and b give the same
    trigger times and solve count, as a line to print."""
    base, this = statistics(a), statistics(b)
    moved = [k for k in ("trigger_times", "solves") if base[k] != this[k]]
    if not moved:
        return f"    trigger times and solve count held ({this['solves']} solves)"
    return f"    moved: {' and '.join(moved)} ({base['solves']} -> {this['solves']} solves)"


def first_moved_trigger(base, this):
    """The first trigger time that differs between two runs, as "base ->
    this" ("-" where a run has no more triggers), or "held"."""
    for a, b in itertools.zip_longest(base, this):
        if a != b:
            return f"t={'-' if a is None else a} -> t={'-' if b is None else b}"
    return "held"


def seeds_table(tmp, base_ref, seeds):
    """Print, per reference method and seed, the solves in both trees and
    the first moved trigger time, then each method's totals. Returns the
    number of runs whose trigger times or solves moved."""
    print(f"reference config, seeds {seeds[0]}-{seeds[-1]}: solves at {base_ref} and here, "
          "first trigger time that differs")
    print(f"{'method':9s} {'seed':>5s} {'base':>5s} {'here':>5s}  first moved trigger")
    moved = 0
    for method in METHODS:
        totals, moved_seeds = [0, 0], 0
        for seed in seeds:
            stats = []
            for side, tree in (("base", tmp / "base"), ("this", ROOT)):
                out = tmp / "seeds" / side / f"{method}_{seed}"
                run(tree, tmp / "reference.json", method, out, seed)
                stats.append(statistics(out))
            solves = [st["solves"] for st in stats]
            first = first_moved_trigger(*(st["trigger_times"] for st in stats))
            totals = [t + n for t, n in zip(totals, solves)]
            moved_seeds += first != "held"
            print(f"{method:9s} {seed:5d} {solves[0]:5d} {solves[1]:5d}  {first}")
        print(f"{method:9s} {'total':>5s} {totals[0]:5d} {totals[1]:5d}  "
              f"{moved_seeds} of {len(seeds)} seeds moved")
        moved += moved_seeds
    return moved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_ref", help="commit, branch or tag to compare against")
    parser.add_argument("--seeds", type=seed_range, metavar="A-B",
                        help="also compare the solves and trigger times of the reference "
                             "runs for each seed from A to B")
    args = parser.parse_args(argv)
    base = workloads.load_base_config(ROOT / "configs" / "batch_reactor.json")
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        (tmp / "base").mkdir()
        export(args.base_ref, tmp / "base")
        configs = {"reference": workloads.reference_config(base),
                   "polytope_worst_case": workloads.polytope_config(base)}
        for name, data in configs.items():
            (tmp / f"{name}.json").write_text(json.dumps(data))
        moved = 0
        for name, method in RUNS:
            outs = {}
            for side, tree in (("base", tmp / "base"), ("this", ROOT)):
                outs[side] = tmp / "out" / side / name / method
                run(tree, tmp / f"{name}.json", method, outs[side])
            run_moved = False
            for f in FILES:
                a, b = outs["base"] / f, outs["this"] / f
                same = a.read_bytes() == b.read_bytes()
                run_moved |= not same
                moved += not same
                print(f"{name:20s} {method:9s} {f:15s} {'identical' if same else 'moved'}")
                if not same and f == "trace.csv":
                    print("    first moved " + first_moved_row(a, b))
                if not same and f == "schedules.json":
                    print(ratio_moves(a, b))
            if run_moved:
                print(triggers_held(outs["base"], outs["this"]))
        for name in configs:
            base_out, this_out = (cli(tree, "validate", "--config", tmp / f"{name}.json")
                                  for tree in (tmp / "base", ROOT))
            moved += base_out != this_out
            print(f"{name:20s} {'validate':9s} {'stdout':15s} "
                  f"{'identical' if base_out == this_out else 'moved'}")
        lines = src_lines(tmp / "base"), src_lines(ROOT)
        moved_seeds = seeds_table(tmp, args.base_ref, args.seeds) if args.seeds else 0
    total = len(RUNS) * len(FILES) + len(configs)
    print(f"{moved} of {total} outputs moved against {args.base_ref} "
          f"({len(RUNS) * len(FILES)} files and {len(configs)} validate stdouts)")
    if args.seeds:
        print(f"{moved_seeds} of {len(METHODS) * len(args.seeds)} seeded reference runs moved their "
              "trigger times or solves")
    print(f"src/etrmpc/*.py: {lines[0]} lines at {args.base_ref}, {lines[1]} here "
          f"({lines[1] - lines[0]:+d})")
    return 1 if moved or moved_seeds else 0


if __name__ == "__main__":
    sys.exit(main())
