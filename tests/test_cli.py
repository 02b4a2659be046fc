"""Command-line interface: exit codes, output routing, determinism."""

import json

import pytest

from qdata.cli import DEMOS, main

MINI = {
    "name": "cli-mini",
    "master_seed": 5,
    "box": {"family": "linear", "channel": {"kind": "identity"}},
    "parameter_grid": [{}],
    "detectors": [{"name": "helstrom", "settings": {"trials": 200}}],
}


@pytest.fixture
def mini_path(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(MINI))
    return str(path)


def drop_timestamp(text):
    return "\n".join(line for line in text.splitlines() if '"timestamp"' not in line)


def test_no_command_prints_usage(capsys):
    assert main([]) == 1
    captured = capsys.readouterr()
    assert "usage:" in captured.err


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_demo_gisin_prints_verdict_lines(capsys):
    assert main(["demo", "gisin"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if "ensemble-signalling" in l]
    assert len(lines) == 2
    assert "statistic=" in lines[0] and "threshold=" in lines[0]
    assert "verdict=quantum-consistent" in lines[0]
    assert "verdict=post-quantum" in lines[1]


# a grid cell binding a string where the box needs a number: that job
# records an error entry, its sibling cell runs
ERROR_CELL = {
    "name": "cli-error-cell",
    "master_seed": 5,
    "box": {"family": "nonlinear-bloch", "kappa": {"param": "k"}},
    "parameter_grid": {"k": [2, "oops"]},
    "detectors": [{"name": "ensemble-signalling"}],
}


def test_run_with_an_error_entry_writes_the_report_and_exits_1(tmp_path, capsys):
    path = tmp_path / "error_cell.json"
    path.write_text(json.dumps(ERROR_CELL))
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["summary"]["error_count"] == 1
    assert "error" in report["cells"][1]["results"][0]
    captured = capsys.readouterr()
    assert "errors: 1" in captured.out
    assert "1 job(s) recorded an error" in captured.err


def test_demo_with_an_error_entry_prints_its_lines_and_exits_1(tmp_path, capsys, monkeypatch):
    path = tmp_path / "error_cell.json"
    path.write_text(json.dumps(ERROR_CELL))
    monkeypatch.setitem(DEMOS, "error-cell", path)
    assert main(["demo", "error-cell"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 2
    assert "verdict=" in lines[0]
    assert "cell 1 (k=oops): ensemble-signalling error: ScenarioError" in lines[1]
    assert "1 job(s) recorded an error" in captured.err


def test_run_exits_1_before_any_job_on_a_constant_that_fails_to_build(tmp_path, capsys):
    bad = {
        **MINI,
        "detectors": [
            {
                "name": "composition-gap",
                "settings": {
                    "second_box": {
                        "family": "linear",
                        "channel": {"kind": "depolarizing", "p": 1.5},
                    }
                },
            }
        ],
    }
    path = tmp_path / "bad_constant.json"
    path.write_text(json.dumps(bad))
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "detectors[0].settings.second_box.channel: depolarizing strength must lie in [0, 1]" in err


def test_demo_names_match_packaged_files():
    assert set(DEMOS) == {
        "gisin",
        "helstrom",
        "basis-invariance",
        "ancilla",
        "qrac",
        "nsq-survey",
        "composition",
    }


def test_run_missing_file_diagnostic(capsys):
    assert main(["run", "/nonexistent/scenario.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qdata: ")
    assert "scenario file not found" in err


def test_run_emits_report_json(mini_path, capsys):
    assert main(["run", mini_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == 2
    assert report["scenario"]["name"] == "cli-mini"
    assert report["summary"]["cell_count"] == 1


def test_run_is_reproducible_modulo_timestamp(mini_path, capsys):
    assert main(["run", mini_path, "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["run", mini_path, "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert drop_timestamp(first) == drop_timestamp(second)
    assert json.loads(first)["provenance"]["seed"] == 7


def test_run_seed_validation(mini_path, capsys):
    assert main(["run", mini_path, "--seed", "-1"]) == 1
    assert "64 unsigned bits" in capsys.readouterr().err


def test_run_out_writes_file_and_prints_digest(mini_path, tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert main(["run", mini_path, "--out", str(out_file)]) == 0
    digest = capsys.readouterr().out
    assert "scenario: cli-mini" in digest
    report = json.loads(out_file.read_text())
    assert report["summary"]["error_count"] == 0


def test_run_out_unwritable_is_internal_error(mini_path, capsys):
    assert main(["run", mini_path, "--out", "/nonexistent/dir/report.json"]) == 2
    assert "Traceback" in capsys.readouterr().err


def test_report_summarize_round_trip(mini_path, tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert main(["run", mini_path, "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert main(["report", "summarize", str(out_file)]) == 0
    digest = capsys.readouterr().out
    assert "scenario: cli-mini" in digest
    assert "cells: 1" in digest


def test_report_summarize_missing_file(capsys):
    assert main(["report", "summarize", "/nonexistent/report.json"]) == 1
    assert "report file not found" in capsys.readouterr().err


def test_report_summarize_rejects_non_finite_numbers(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text('{"summary": {"error_count": NaN}}')
    assert main(["report", "summarize", str(path)]) == 1
    assert "not a report file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text", ['[{"summary": {}}]', '"a string"', '{"summary": "x"}', '{"schema_version": 1}']
)
def test_report_summarize_rejects_json_that_is_not_a_report(tmp_path, capsys, text):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["report", "summarize", str(path)]) == 1
    err = capsys.readouterr().err
    assert "not a report file" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("number", ["NaN", "Infinity", "1e400"])
def test_run_rejects_a_non_finite_grid_number_before_any_job(tmp_path, capsys, number):
    doc = json.dumps({**MINI, "parameter_grid": {"kappa": ["KAPPA", 2]}})
    path = tmp_path / "non_finite.json"
    path.write_text(doc.replace('"KAPPA"', number))
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert "parameter_grid.kappa[0]: number must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "changes, where",
    [
        ({"box": {"family": "nonlinear-bloch", "kappa": "HUGE"}}, "box.kappa"),
        ({"parameter_grid": {"kappa": ["HUGE"]}}, "parameter_grid.kappa[0]"),
        ({"detectors": [{"name": "helstrom", "settings": {"trials": "HUGE"}}]}, "detectors[0].settings.trials"),
    ],
)
def test_run_rejects_an_oversized_integer_literal_at_its_path(tmp_path, capsys, changes, where):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**MINI, **changes}).replace('"HUGE"', "1" + "0" * 400))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{where}: " in err
    assert "Traceback" not in err


def test_threads_flag_accepted(mini_path, capsys):
    assert main(["run", mini_path, "--threads", "2", "--seed", "7"]) == 0
    baseline = capsys.readouterr().out
    assert main(["run", mini_path, "--threads", "1", "--seed", "7"]) == 0
    assert drop_timestamp(capsys.readouterr().out) == drop_timestamp(baseline)


NSQ_PAIR = {"family": "nsq-channel", "channel": {"kind": "identity", "dim": 4}, "local_dims": [4, 1]}


@pytest.mark.parametrize(
    "doc, where",
    [
        (
            {**MINI, "detectors": [{"name": "nsq-survey", "settings": {"local_dims": [1, 4]}}]},
            "detectors[0].settings.local_dims[0]",
        ),
        (
            {
                "name": "pair-mini",
                "master_seed": 5,
                "pair": NSQ_PAIR,
                "parameter_grid": [{}],
                "detectors": [{"name": "nsq-survey"}],
            },
            "pair.local_dims[1]",
        ),
    ],
)
def test_run_rejects_a_local_dimension_of_1_before_any_job(tmp_path, capsys, doc, where):
    path = tmp_path / "dims.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert f"{where}: must be at least 2" in capsys.readouterr().err
    assert not out.exists()


def test_qrac_oracle_at_few_rounds_runs_without_an_error_entry(tmp_path, capsys):
    # at seed 2 the 15 kept rounds average to 1 + ulp before clamping
    path = tmp_path / "qrac.json"
    path.write_text(json.dumps({
        "name": "q",
        "pair": {"family": "qrac-oracle"},
        "parameter_grid": [{}],
        "detectors": [{"name": "qrac", "settings": {"rounds": 50}}],
        "master_seed": 1,
    }))
    assert main(["run", str(path), "--seed", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["error_count"] == 0
    verdict = report["cells"][0]["results"][0]["verdict"]
    assert verdict["verdict"] == "post-quantum"
    assert verdict["statistic"] <= 1.0
