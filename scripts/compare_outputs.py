#!/usr/bin/env python3
"""Compare the output files of this tree with those of BASE_REF.

    python3 scripts/compare_outputs.py BASE_REF

Exports BASE_REF of this repository into a temporary directory
(``git archive``) and runs, in both trees, each run of ``RUNS`` at seed
1234 and one OpenBLAS thread. There are three configs:

- ``reference``: the reference config of ``perfbench/workloads.py``;
  all five methods.
- ``polytope_worst_case``: the benchmark's polytopic W, a cross-polytope
  whose vertices give the worst-case draws and the tightened offsets;
  all five methods.
- ``polytope_target``: the reference config with the state target
  {x : ||x||_1 <= 1.6} (16 sign-vector rows, not a box), so every stage
  projection of the RMPC QP takes the least-distance path; periodic and
  LP2.

Prints each output file as identical or moved and, for a moved
``trace.csv``, its first row that differs; for a moved
``schedules.json``, whether any field but the shape ratios moved
(bounds, volumes, degenerate coordinates): if so, over the triggers both
runs hold, the largest absolute move of a box bound and the largest
relative move of ``vol1`` and of ``vol2``; if not, how many ratios moved
and the largest relative move. For a run with a moved file it
also prints whether its trigger times and solve count held, from both
``summary.json`` files. Then it runs ``etrmpc validate`` on each config
in both trees and prints its stdout as identical or moved, counted as
one more output each, and ``etrmpc compare`` of the five methods on the
reference config, whose ``comparison.json`` and printed table count as
two more. Last, it prints the line count of each ``src/etrmpc/*.py``
file and their total (as ``wc -l`` counts them) in both trees. Exits 1
if any output moved, 2 if a command fails (its stderr is printed).

    python3 scripts/compare_outputs.py HEAD

checks determinism: in a checkout whose files are those of HEAD, both
trees hold the same code, so every output must come out byte-identical
from two runs. CI runs it so, with RuntimeWarnings raised as errors.

    python3 scripts/compare_outputs.py --threads

checks the README's cross-thread rule instead: it runs each run of
``RUNS`` in this tree at one and at ``THREADS`` (2) OpenBLAS threads and
prints each of their output files as identical or moved, as above.
Exits 1 if any file moved, 2 if a run fails. CI runs it so.

    python3 scripts/compare_outputs.py BASE_REF --seeds 1234-1245

also runs the five methods on the reference config for each seed of the
inclusive range, in both trees, and prints per method and seed the
solves at BASE_REF and here and the first trigger time that differs
(BASE_REF's, then this tree's; "-" where that run has no more
triggers), with each method's totals. A run whose trigger times or
solves moved counts as one more moved output. Against a base commit,
this reports every behaviour change.
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
        + [("polytope_worst_case", m) for m in METHODS]
        + [("polytope_target", m) for m in ("periodic", "LP2")])
FILES = ("trace.csv", "summary.json", "schedules.json", "plot_data.json")
THREADS = 2  # the thread count of the README's cross-thread rule
MAIN = "import sys; from etrmpc.cli import main; sys.exit(main(sys.argv[1:]))"


def export(ref, dest):
    """The tree of ``ref`` under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def cli(tree, *args, threads=1):
    """The stdout of the command line ``args`` in ``tree`` at ``threads``
    OpenBLAS threads; exits 2 if it fails."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", MAIN, *map(str, args)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{tree}: {' '.join(map(str, args))} failed:\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    return proc.stdout


def run(tree, config, method, out_dir, seed=SEED, threads=1):
    cli(tree, "run", "--config", config, "--method", method, "--seed", seed,
        "--out-dir", out_dir, threads=threads)


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


def build_configs(base):
    """The configs of ``RUNS`` by name, built from the base config."""
    target = workloads.reference_config(base)
    A, b = workloads.cross_polytope_rows(len(target["x0"]), 1.6)
    target["sets"]["state_target"] = {"A": A, "b": b}
    return {"reference": workloads.reference_config(base),
            "polytope_worst_case": workloads.polytope_config(base),
            "polytope_target": target}


def src_lines(tree):
    """The lines of each ``src/etrmpc/*.py`` file, as ``wc -l`` counts them."""
    return {p.name: p.read_bytes().count(b"\n")
            for p in sorted((tree / "src" / "etrmpc").glob("*.py"))}


def print_src_lines(base_ref, base, this):
    """Print the line count of each module and the total in both trees
    ("-" for a module missing from one)."""
    print(f"src/etrmpc/*.py lines at {base_ref} and here:")
    for name in sorted(base.keys() | this.keys()):
        a, b = base.get(name), this.get(name)
        print(f"  {name:15s} {'-' if a is None else a:>5} {'-' if b is None else b:>5}  "
              f"{(b or 0) - (a or 0):+d}")
    a, b = sum(base.values()), sum(this.values())
    print(f"  {'total':15s} {a:5d} {b:5d}  {b - a:+d}")


def first_moved_row(a, b):
    rows_a, rows_b = a.read_text().splitlines(), b.read_text().splitlines()
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if ra != rb:
            return f"row {i + 1}:\n      base: {ra}\n      this: {rb}"
    return f"{len(rows_a)} rows against {len(rows_b)}"


def relative_move(x, y):
    """|y - x| / |x|: 0 when they agree, inf when only x is 0 or either
    is None."""
    if x == y:
        return 0.0
    return abs(y - x) / abs(x) if None not in (x, y) and x != 0 else math.inf


def schedule_moves(a, b):
    """For two schedules.json files, what moved, as lines to print: if
    only the shape ratios moved, how many and the largest relative move;
    else, over the triggers both hold, the largest absolute move of a box
    bound and the largest relative move of vol1 and of vol2."""
    base, this = (json.loads(p.read_text()) for p in (a, b))
    pop = [[box.pop("shape_ratio") for sch in doc["per_trigger"].values() for box in sch["boxes"]]
           for doc in (base, this)]
    if base == this:
        moves = [relative_move(x, y) for x, y in zip(*pop) if x != y]
        return (f"    only shape_ratio moved: {len(moves)} of {len(pop[0])} ratios, "
                f"largest relative move {max(moves, default=0.0):.3g}")
    shared = base["per_trigger"].keys() & this["per_trigger"].keys()
    pairs = [pq for t in shared
             for pq in zip(base["per_trigger"][t]["boxes"], this["per_trigger"][t]["boxes"])]
    bound = max((abs(y - x) for p, q in pairs for side in ("lower", "upper")
                 for x, y in zip(p[side], q[side])), default=0.0)
    vol1, vol2 = (max((relative_move(p[v], q[v]) for p, q in pairs), default=0.0)
                  for v in ("vol1", "vol2"))
    return ("    fields other than shape_ratio moved; over the "
            f"{len(shared)} triggers both hold, largest bound move {bound:.3g}, "
            f"largest relative move of vol1 {vol1:.3g} and of vol2 {vol2:.3g}")


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


def compare_run(name, method, a, b):
    """Print each output file of the runs in the directories a and b as
    identical or moved, with what moved, and whether the trigger times
    and solves held if any file moved. Returns the number of files
    moved."""
    moved = 0
    for f in FILES:
        same = (a / f).read_bytes() == (b / f).read_bytes()
        moved += not same
        print(f"{name:20s} {method:9s} {f:15s} {'identical' if same else 'moved'}")
        if not same and f == "trace.csv":
            print("    first moved " + first_moved_row(a / f, b / f))
        if not same and f == "schedules.json":
            print(schedule_moves(a / f, b / f))
    if moved:
        print(triggers_held(a, b))
    return moved


def compare_threads(tmp):
    """Run every run of ``RUNS`` in this tree at one and at ``THREADS``
    OpenBLAS threads and compare their output files. Returns the exit
    code: 1 if any file moved."""
    moved = 0
    for name, method in RUNS:
        outs = [tmp / "out" / f"threads{t}" / name / method for t in (1, THREADS)]
        for t, out in zip((1, THREADS), outs):
            run(ROOT, tmp / f"{name}.json", method, out, threads=t)
        moved += compare_run(name, method, *outs)
    print(f"{moved} of {len(RUNS) * len(FILES)} output files moved at {THREADS} OpenBLAS "
          "threads against 1")
    return 1 if moved else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_ref", nargs="?", help="commit, branch or tag to compare against")
    parser.add_argument("--seeds", type=seed_range, metavar="A-B",
                        help="also compare the solves and trigger times of the reference "
                             "runs for each seed from A to B")
    parser.add_argument("--threads", action="store_true",
                        help=f"instead of BASE_REF, compare this tree's runs at {THREADS} "
                             "OpenBLAS threads against one")
    args = parser.parse_args(argv)
    if (args.base_ref is None) != args.threads:
        parser.error("give either BASE_REF or --threads")
    if args.threads and args.seeds:
        parser.error("--seeds needs BASE_REF")
    base = workloads.load_base_config(ROOT / "configs" / "batch_reactor.json")
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        configs = build_configs(base)
        for name, data in configs.items():
            (tmp / f"{name}.json").write_text(json.dumps(data))
        if args.threads:
            return compare_threads(tmp)
        (tmp / "base").mkdir()
        export(args.base_ref, tmp / "base")
        moved = 0
        for name, method in RUNS:
            outs = {}
            for side, tree in (("base", tmp / "base"), ("this", ROOT)):
                outs[side] = tmp / "out" / side / name / method
                run(tree, tmp / f"{name}.json", method, outs[side])
            moved += compare_run(name, method, outs["base"], outs["this"])
        for name in configs:
            base_out, this_out = (cli(tree, "validate", "--config", tmp / f"{name}.json")
                                  for tree in (tmp / "base", ROOT))
            moved += base_out != this_out
            print(f"{name:20s} {'validate':9s} {'stdout':15s} "
                  f"{'identical' if base_out == this_out else 'moved'}")
        compared = {}
        for side, tree in (("base", tmp / "base"), ("this", ROOT)):
            out = tmp / "compare" / side
            table = cli(tree, "compare", "--config", tmp / "reference.json",
                        "--methods", ",".join(METHODS), "--seed", SEED, "--out-dir", out)
            compared[side] = ((out / "comparison.json").read_bytes(), table)
        for f, base_out, this_out in zip(("comparison.json", "stdout"), *compared.values()):
            moved += base_out != this_out
            print(f"{'reference':20s} {'compare':9s} {f:15s} "
                  f"{'identical' if base_out == this_out else 'moved'}")
        lines = src_lines(tmp / "base"), src_lines(ROOT)
        moved_seeds = seeds_table(tmp, args.base_ref, args.seeds) if args.seeds else 0
    total = len(RUNS) * len(FILES) + len(configs) + 2
    print_src_lines(args.base_ref, *lines)
    print(f"{moved} of {total} outputs moved against {args.base_ref} "
          f"({len(RUNS) * len(FILES)} files, {len(configs)} validate stdouts "
          "and compare's comparison.json and stdout)")
    if args.seeds:
        print(f"{moved_seeds} of {len(METHODS) * len(args.seeds)} seeded reference runs moved their "
              "trigger times or solves")
    return 1 if moved or moved_seeds else 0


if __name__ == "__main__":
    sys.exit(main())
