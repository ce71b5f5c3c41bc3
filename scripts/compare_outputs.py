#!/usr/bin/env python3
"""Compare the output files of this tree with those of BASE_REF.

    python3 scripts/compare_outputs.py BASE_REF

Exports BASE_REF of this repository into a temporary directory
(``git archive``) and runs, in both trees, the five methods on the
reference config and LP2 and periodic on the polytopic worst-case config
of ``perfbench/workloads.py``: seed 1234, one OpenBLAS thread. Prints
each output file as identical or moved and, for a moved ``trace.csv``,
its first row that differs. Exits 1 if any file moved, 2 if a run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEED = 1234
RUNS = ([("reference", m) for m in ("CP1", "CP2", "LP1", "LP2", "periodic")]
        + [("polytope_worst_case", m) for m in ("LP2", "periodic")])
FILES = ("trace.csv", "summary.json", "schedules.json", "plot_data.json")
MAIN = "import sys; from etrmpc.cli import main; sys.exit(main(sys.argv[1:]))"


def export(ref, dest):
    """The tree of ``ref`` under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run(tree, config, method, out_dir):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", MAIN, "run", "--config", str(config), "--method", method,
         "--seed", str(SEED), "--out-dir", str(out_dir)],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{tree}: {method} on {config.name} failed:\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)


def first_moved_row(a, b):
    rows_a, rows_b = a.read_text().splitlines(), b.read_text().splitlines()
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if ra != rb:
            return f"row {i + 1}:\n      base: {ra}\n      this: {rb}"
    return f"{len(rows_a)} rows against {len(rows_b)}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_ref", help="commit, branch or tag to compare against")
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
            for f in FILES:
                a, b = outs["base"] / f, outs["this"] / f
                same = a.read_bytes() == b.read_bytes()
                moved += not same
                print(f"{name:20s} {method:9s} {f:15s} {'identical' if same else 'moved'}")
                if not same and f == "trace.csv":
                    print("    first moved " + first_moved_row(a, b))
    print(f"{moved} of {len(RUNS) * len(FILES)} files moved against {args.base_ref}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
