"""CLI error paths and happy paths of the ``sweep`` subcommand."""

import json

import pytest

from repro.cli import main

GOOD_SPEC = {
    "name": "cli_test",
    "reference": "density_matrix",
    "grid": {
        "circuit": ["ghz_2"],
        "noise": [{"channel": "depolarizing", "parameter": 0.01, "count": 2}],
        "backend": ["density_matrix", "trajectories"],
        "samples": [100],
    },
}


def _write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_sweep_run_and_report_roundtrip(tmp_path, capsys):
    spec = _write_spec(tmp_path, GOOD_SPEC)
    out = tmp_path / "records.jsonl"
    assert main(["sweep", "run", str(spec), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "2 cells" in text and "TVD vs density_matrix" in text
    assert out.exists()

    assert main(["sweep", "report", str(out), "--pivot", "precision"]) == 0
    report = capsys.readouterr().out
    assert "Per-backend precision" in report

    # resume: everything already recorded
    assert main(["sweep", "run", str(spec), "--out", str(out)]) == 0
    assert "2 resumed" in capsys.readouterr().out


def test_sweep_run_failed_cells_exit_1(tmp_path, capsys, monkeypatch):
    import repro.sweeps.runner as runner_mod

    def boom(name, **options):
        raise RuntimeError("boom")

    monkeypatch.setattr(runner_mod, "get_backend", boom)
    spec = _write_spec(tmp_path, GOOD_SPEC)
    out = tmp_path / "records.jsonl"
    assert main(["sweep", "run", str(spec), "--out", str(out)]) == 1
    assert "2 cell(s) failed" in capsys.readouterr().err


def test_sweep_run_missing_spec_file_exits_2(tmp_path, capsys):
    assert main(["sweep", "run", str(tmp_path / "nope.yaml")]) == 2
    assert "not found" in capsys.readouterr().err


def test_sweep_run_malformed_yaml_exits_2(tmp_path, capsys):
    pytest.importorskip("yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("grid: [unclosed\n  - {")
    assert main(["sweep", "run", str(bad)]) == 2
    assert "invalid YAML" in capsys.readouterr().err


def test_sweep_run_unknown_backend_exits_2(tmp_path, capsys):
    data = json.loads(json.dumps(GOOD_SPEC))
    data["grid"]["backend"] = ["warp_drive"]
    spec = _write_spec(tmp_path, data)
    assert main(["sweep", "run", str(spec)]) == 2
    assert "unknown backend" in capsys.readouterr().err


def test_sweep_unknown_backend_option_rejected_before_any_cell(tmp_path, capsys):
    data = json.loads(json.dumps(GOOD_SPEC))
    data["grid"]["backend"] = [{"name": "tn", "options": {"max_intermediate": 5}}]
    spec = _write_spec(tmp_path, data)
    out = tmp_path / "records.jsonl"
    assert main(["sweep", "run", str(spec), "--out", str(out)]) == 2
    assert "max_intermediate_size" in capsys.readouterr().err
    assert not out.exists()
    assert main(["sweep", "list", str(spec)]) == 1
    assert "invalid" in capsys.readouterr().out


def test_sweep_run_unknown_key_exits_2(tmp_path, capsys):
    data = json.loads(json.dumps(GOOD_SPEC))
    data["grdi"] = data.pop("grid")
    spec = _write_spec(tmp_path, data)
    assert main(["sweep", "run", str(spec)]) == 2
    assert "unknown sweep spec key" in capsys.readouterr().err


def test_sweep_report_missing_records_exits_2(tmp_path, capsys):
    assert main(["sweep", "report", str(tmp_path / "none.jsonl")]) == 2
    assert "not found" in capsys.readouterr().err


def test_sweep_report_mentions_unrecorded_cells(tmp_path, capsys):
    spec = _write_spec(tmp_path, GOOD_SPEC)
    out = tmp_path / "records.jsonl"
    assert main(["sweep", "run", str(spec), "--out", str(out), "--max-cells", "1"]) == 0
    capsys.readouterr()
    assert main(["sweep", "report", str(out)]) == 0
    assert "1 cell(s) not recorded yet" in capsys.readouterr().out


def test_sweep_list_reports_invalid_specs(tmp_path, capsys):
    good = _write_spec(tmp_path, GOOD_SPEC, "good.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["sweep", "list", str(good), str(bad)]) == 1
    text = capsys.readouterr().out
    assert "cli_test" in text and "invalid" in text
    assert main(["sweep", "list", str(good)]) == 0


def test_sweep_list_no_specs_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "list"]) == 2
    assert "no sweep specs found" in capsys.readouterr().err
