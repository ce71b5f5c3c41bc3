#!/usr/bin/env python3
"""Reproduce the polytopic-target fault through `etrmpc run`.

    python3 perfbench/known_fault.py

Writes the reference config with the state target replaced by the
cross-polytope {x : ||x||_1 <= 1.6} (16 sign-vector rows, not a box) and
runs the periodic baseline on it. `solve_rmpc` raises RmpcError
("re-projected value deviates from QP value") partway through the run.
Exits 1 when the fault shows, 0 when the run completes.
"""

import io
import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import environment  # noqa: E402

environment.pin_blas_threads()
sys.path.insert(0, str(ROOT / "src"))

from etrmpc import cli, rmpc  # noqa: E402

import workloads  # noqa: E402


def main():
    data = workloads.reference_config(
        workloads.load_base_config(ROOT / "configs" / "batch_reactor.json"))
    rows = [list(s) for s in itertools.product((1.0, -1.0), repeat=4)]
    data["sets"]["state_target"] = {"A": rows, "b": [1.6] * len(rows)}
    out_dir = ROOT / ".perfbench_out" / "known_fault"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "config.json"
    path.write_text(json.dumps(data, indent=2))
    config = cli.ExperimentConfig.from_file(path)
    try:
        cli.cmd_run(config, out_dir=out_dir, method="periodic", out=io.StringIO())
    except rmpc.RmpcError as exc:
        print(f"fault reproduced: {type(exc).__name__}: {exc}")
        return 1
    print("run completed: the fault did not show")
    return 0


if __name__ == "__main__":
    sys.exit(main())
