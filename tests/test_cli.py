import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from etrmpc.cli import (ConfigError, ExperimentConfig, cmd_compare, cmd_run,
                        cmd_validate, main)

from batch_reactor import polytope_worst_case_data

CONFIG_PATH = "configs/batch_reactor.json"
OUTPUT_FILES = ("trace.csv", "summary.json", "schedules.json", "plot_data.json")


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig.from_file(CONFIG_PATH)


def _mutated(config, mutate):
    data = copy.deepcopy(config.to_dict())
    mutate(data)
    return ExperimentConfig(data)


class TestConfig:
    def test_round_trip_identity(self, config):
        again = ExperimentConfig(config.to_dict())
        assert again == config
        assert again.config_hash() == config.config_hash()

    def test_missing_field_context(self, config):
        data = copy.deepcopy(config.to_dict())
        del data["plant"]["B"]
        with pytest.raises(ConfigError, match="B"):
            ExperimentConfig(data)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"plant": [,]}')
        with pytest.raises(ConfigError, match="line"):
            ExperimentConfig.from_file(str(path))

    def test_unknown_method_rejected(self, config):
        with pytest.raises(ConfigError, match="method"):
            _mutated(config, lambda d: d.update(method="CP9"))

    def test_polytope_set_spec(self, config):
        def swap(d):
            d["sets"]["state"] = {
                "A": [[1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 0, 0],
                      [0, 0, 1, 0], [0, 0, -1, 0], [0, 0, 0, 1], [0, 0, 0, -1]],
                "b": [2, 2, 2, 2, 2, 2, 2, 2]}
        cfg = _mutated(config, swap)
        assert cfg.build().Xseq[0].A.shape == (8, 4)


class TestValidate:
    def test_batch_reactor_passes(self, config):
        out = io.StringIO()
        code, setup = cmd_validate(config, out=out)
        assert code == 0
        assert setup.report["nilpotency_residual"] <= 1e-8
        assert "margin terminal_in_tight_state" in out.getvalue()

    def test_oversized_disturbance_fails(self, config):
        cfg = _mutated(config, lambda d: d["sets"]["disturbance"].update(
            box={"lower": [-3, -3, -3, -3], "upper": [3, 3, 3, 3]}))
        out = io.StringIO()
        code, _ = cmd_validate(cfg, out=out)
        assert code == 1
        assert "EmptyTightenedSet" in out.getvalue()

    def test_short_horizon_fails(self, config):
        cfg = _mutated(config, lambda d: d.update(horizon=4, nilpotency_steps=4))
        out = io.StringIO()
        code, _ = cmd_validate(cfg, out=out)
        assert code == 1


class TestRun:
    def test_writes_all_outputs(self, config, tmp_path):
        out = io.StringIO()
        trace, stats = cmd_run(config, out_dir=tmp_path, steps=15, out=out)
        for name in ("trace.csv", "summary.json", "schedules.json",
                     "plot_data.json"):
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["provenance"]["config_sha256"] == config.config_hash()
        assert summary["provenance"]["seed"] == 1234
        assert summary["statistics"]["solves"] == stats["solves"]
        assert summary["state_bound_violations"] == 0

    def test_trace_csv_layout(self, config, tmp_path):
        cmd_run(config, out_dir=tmp_path, steps=12, out=io.StringIO())
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0].startswith("# etrmpc-trace-v1")
        header = lines[1].split(",")
        assert header[:6] == ["t", "x0", "x1", "x2", "x3", "u0"]
        assert "trigger_cause" in header and "decay_bound" in header
        assert len(lines) == 2 + 12 + 1  # provenance + header + steps + final state
        first = lines[2].split(",")
        assert first[header.index("trigger_cause")] == "Initial"
        # Floats round-trip exactly through repr.
        assert float(first[1]) == 1.5

    def test_rerun_is_byte_identical(self, config, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        cmd_run(config, out_dir=a, steps=15, out=io.StringIO())
        cmd_run(config, out_dir=b, steps=15, out=io.StringIO())
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_worst_case_runs_share_no_vertex_state(self, tmp_path):
        # Under a polytopic worst case, runs reuse one config, and so one W
        # object: LP2 then periodic, and the reverse. Each run's outputs
        # must equal, byte for byte, those of a run in a fresh process.
        path = tmp_path / "polytope.json"
        path.write_text(json.dumps(polytope_worst_case_data()))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        for method in ("LP2", "periodic"):
            subprocess.run([sys.executable, "-c",
                            "import sys; from etrmpc.cli import main; sys.exit(main(sys.argv[1:]))",
                            "run", "--config", str(path), "--method", method,
                            "--out-dir", str(tmp_path / f"fresh_{method}")],
                           env=env, check=True, capture_output=True, timeout=300)
        config = ExperimentConfig.from_file(str(path))
        for order in (("LP2", "periodic"), ("periodic", "LP2")):
            for method in order:
                out = tmp_path / f"{order[0]}_first_{method}"
                cmd_run(config, out_dir=out, method=method, out=io.StringIO())
                for name in OUTPUT_FILES:
                    fresh = tmp_path / f"fresh_{method}" / name
                    assert (out / name).read_bytes() == fresh.read_bytes(), (order, method, name)

    def test_plot_data_series_are_flat(self, config, tmp_path):
        cmd_run(config, out_dir=tmp_path, steps=12, out=io.StringIO())
        plot = json.loads((tmp_path / "plot_data.json").read_text())
        assert len(plot["decay_bound"]) == 12
        assert all(v is None or isinstance(v, float) for v in plot["decay_bound"])
        assert plot["decay_bound"][0] is not None
        assert len(plot["value_at_triggers"]) == len(plot["trigger_times"])

    def test_method_override(self, config, tmp_path):
        trace, _ = cmd_run(config, out_dir=tmp_path, steps=10,
                           method="periodic", out=io.StringIO())
        assert trace.solve_count == 10

    def test_schedule_dump_shape(self, config, tmp_path):
        cmd_run(config, out_dir=tmp_path, steps=10, out=io.StringIO())
        dump = json.loads((tmp_path / "schedules.json").read_text())
        first = next(iter(dump["per_trigger"].values()))
        assert first["method"] == "CP1"
        assert len(first["boxes"]) == 9
        box = first["boxes"][0]
        assert set(box) >= {"j", "lower", "upper", "vol1", "vol2",
                            "degenerate_coords", "shape_ratio"}

    def test_lp1_volumes_never_exceed_cp1(self, config, tmp_path):
        # Same config and seed; the initial-state schedules are built from
        # the identical solution, so the relaxation bound applies per step.
        for method in ("CP1", "LP1"):
            cmd_run(config, out_dir=tmp_path / method, steps=5, method=method,
                    out=io.StringIO())
        dumps = {m: json.loads((tmp_path / m / "schedules.json").read_text())
                 for m in ("CP1", "LP1")}
        cp = dumps["CP1"]["per_trigger"]["0"]["boxes"]
        lp = dumps["LP1"]["per_trigger"]["0"]["boxes"]
        for bc, bl in zip(cp, lp):
            assert bl["vol1"] <= bc["vol1"] + 1e-9


class TestCompare:
    def test_event_saving_vs_periodic(self, config, tmp_path):
        table = cmd_compare(config, ["CP1", "periodic"], out_dir=tmp_path,
                            steps=30, out=io.StringIO())
        rows = table["methods"]
        assert rows["CP1"]["solves"] <= rows["periodic"]["solves"]
        assert rows["periodic"]["solves"] == 30

    def test_shared_replay_hash(self, config):
        table = cmd_compare(config, ["CP1", "LP1"], steps=25, out=io.StringIO())
        rows = table["methods"]
        assert table["provenance"]["shared_replay"]
        assert rows["CP1"]["disturbance_hash"] == rows["LP1"]["disturbance_hash"]

    def test_zero_disturbance_identical_triggers(self, config):
        cfg = _mutated(config, lambda d: d.update(
            disturbance_model={"kind": "zero"}))
        table = cmd_compare(cfg, ["CP1", "LP1"], steps=30, out=io.StringIO())
        rows = table["methods"]
        assert rows["CP1"]["solves"] == rows["LP1"]["solves"] == 3

    def test_worst_case_reports_both(self, config):
        cfg = _mutated(config, lambda d: d.update(
            disturbance_model={"kind": "worst_case"}))
        table = cmd_compare(cfg, ["CP1", "LP1"], steps=20, out=io.StringIO())
        assert not table["provenance"]["shared_replay"]
        assert set(table["methods"]) == {"CP1", "LP1"}


class TestReplayConfig:
    def test_replay_sequence_through_run(self, config, tmp_path):
        seq = (0.015 * np.sin(np.arange(80) / 3.0))[:, None] * np.ones(4)
        cfg = _mutated(config, lambda d: d.update(disturbance_model={
            "kind": "replay", "sequence": seq.tolist()}))
        trace, _ = cmd_run(cfg, out_dir=tmp_path, steps=20, out=io.StringIO())
        assert np.allclose(trace.w[:20], seq[:20])

    def test_replay_too_short_rejected(self, config, tmp_path):
        cfg = _mutated(config, lambda d: d.update(disturbance_model={
            "kind": "replay", "sequence": np.zeros((3, 4)).tolist()}))
        with pytest.raises(ValueError, match="shorter"):
            cmd_run(cfg, out_dir=tmp_path, steps=20, out=io.StringIO())


class TestMain:
    def test_validate_exit_code(self):
        assert main(["validate", "--config", CONFIG_PATH]) == 0

    def test_missing_config_file(self):
        assert main(["validate", "--config", "/nonexistent.json"]) == 2

    def test_run_via_main(self, tmp_path):
        code = main(["run", "--config", CONFIG_PATH, "--out-dir",
                     str(tmp_path), "--steps", "8", "--method", "LP1"])
        assert code == 0
        assert (tmp_path / "trace.csv").exists()

    def test_run_from_state_outside_x_is_an_error(self, config, tmp_path, capsys):
        # An x0 outside X has no feasible RMPC plan: exit 1 with the error
        # named on one line, not a traceback.
        path = tmp_path / "far.json"
        path.write_text(_mutated(config, lambda d: d.update(x0=[100.0] * 4)).canonical_json())
        code = main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: InfeasibleState: ")

    def test_compare_via_main(self, tmp_path):
        code = main(["compare", "--config", CONFIG_PATH, "--methods",
                     "CP1,LP1", "--steps", "12", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "comparison.json").exists()
