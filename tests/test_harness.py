"""Scenario execution: report structure, determinism, crash isolation."""

import copy
import json
import math
from importlib import resources

import pytest

from qdata import (
    LinearBox,
    QuantumChannel,
    RngStream,
    Scenario,
    composition_gap_test,
    load_report,
    mix64,
    parse_scenario_dict,
    run_scenario,
    summarize_report,
    write_report,
)

IDENTITY_SWEEP = {
    "name": "identity-sweep",
    "master_seed": 404,
    "box": {"family": "linear", "channel": {"kind": "identity"}},
    "parameter_grid": {"theta": [0.1, 0.2, 0.3, 0.4]},
    "detectors": [
        {"name": "helstrom", "settings": {"trials": 4000}},
        {"name": "ensemble-signalling"},
        {"name": "basis-invariance", "settings": {"shots": 2000}},
        {"name": "ancilla-consistency", "settings": {"shots": 2000}},
        {
            "name": "composition-gap",
            "settings": {
                "shots": 2048,
                "second_box": {
                    "family": "linear",
                    "channel": {"kind": "amplitude-damping", "gamma": 0.2},
                },
            },
        },
    ],
}


def strip_timestamp(report):
    out = copy.deepcopy(report)
    out["provenance"].pop("timestamp")
    return out


@pytest.fixture(scope="module")
def identity_report():
    scenario = parse_scenario_dict(copy.deepcopy(IDENTITY_SWEEP))
    return run_scenario(scenario, threads=1)


def test_report_schema(identity_report):
    r = identity_report
    assert r["schema_version"] == 2
    assert r["scenario"] == IDENTITY_SWEEP
    assert set(r["provenance"]) == {"seed", "version", "timestamp"}
    assert r["provenance"]["seed"] == 404
    assert len(r["cells"]) == 4
    for i, cell in enumerate(r["cells"]):
        assert cell["cell_index"] == i
        assert cell["params"] == {"theta": IDENTITY_SWEEP["parameter_grid"]["theta"][i]}
        assert [res["detector"] for res in cell["results"]] == [
            "helstrom",
            "ensemble-signalling",
            "basis-invariance",
            "ancilla-consistency",
            "composition-gap",
        ]


def test_identity_box_never_flags(identity_report):
    for cell in identity_report["cells"]:
        for result in cell["results"]:
            assert "error" not in result
            assert result["verdict"]["verdict"] != "post-quantum"


def test_sample_accounting(identity_report):
    r = identity_report
    expected_per_detector = [4000, 0, 96000, 66000, 12288]
    for cell in r["cells"]:
        assert [res["samples"] for res in cell["results"]] == expected_per_detector
        assert cell["samples"] == 178288
    assert r["summary"]["total_samples"] == 713152
    assert r["summary"]["cell_count"] == 4
    assert r["summary"]["error_count"] == 0


def test_a_job_counts_the_samples_it_draws_with_a_cold_or_a_warm_calibration(monkeypatch):
    import qdata.detectors
    import qdata.tomography

    scenario = parse_scenario_dict(
        {
            "name": "counted",
            "master_seed": 3,
            "box": {"family": "nonlinear-bloch", "kappa": 2.0},
            "parameter_grid": [{}],
            "detectors": [{"name": "basis-invariance", "settings": {"shots": 96}}],
        }
    )
    monkeypatch.setattr(qdata.detectors, "_calibration_cache", {})
    cold = run_scenario(scenario)["cells"][0]["results"][0]["samples"]
    drawn = []
    keyed_multinomials = qdata.tomography._keyed_multinomials

    def counting(keys, n, pvals):
        drawn.append(len(keys) * n)
        return keyed_multinomials(keys, n, pvals)

    monkeypatch.setattr(qdata.tomography, "_keyed_multinomials", counting)
    warm = run_scenario(scenario)["cells"][0]["results"][0]["samples"]
    assert cold == warm == sum(drawn) > 0


def test_composition_gap_test_returns_the_figures_its_report_holds(identity_report):
    cell_index, det_index = 1, 4
    record = identity_report["cells"][cell_index]["results"][det_index]
    verdict = composition_gap_test(
        LinearBox(QuantumChannel.identity(2)),
        LinearBox(QuantumChannel.amplitude_damping(0.2)),
        2 * math.pi / 3,
        2048,
        rng=RngStream(IDENTITY_SWEEP["master_seed"], mix64(cell_index, det_index)),
    )
    assert verdict.statistic == record["verdict"]["statistic"]
    for name, matrix in verdict.reconstructions.items():
        data = [[z.real, z.imag] for z in matrix.reshape(-1).tolist()]
        assert record["reconstructions"][name] == {"shape": [2, 2], "data": data}
    # the evidence is written beside the verdict, never inside it
    fields = {"statistic", "threshold", "std_error", "n_trials", "verdict", "extras"}
    for cell in identity_report["cells"]:
        assert all(set(r["verdict"]) == fields for r in cell["results"])


def test_reruns_and_threads_agree(identity_report):
    scenario = parse_scenario_dict(copy.deepcopy(IDENTITY_SWEEP))
    again = run_scenario(scenario, threads=2)
    assert strip_timestamp(again) == strip_timestamp(identity_report)


def test_seed_override_is_recorded_and_material():
    scenario = parse_scenario_dict(
        {
            "name": "s",
            "master_seed": 1,
            "box": {"family": "linear", "channel": {"kind": "identity"}},
            "parameter_grid": [{}],
            "detectors": [{"name": "helstrom", "settings": {"trials": 500}}],
        }
    )
    r1 = run_scenario(scenario, seed=123)
    r2 = run_scenario(scenario, seed=124)
    assert r1["provenance"]["seed"] == 123
    s1 = r1["cells"][0]["results"][0]["verdict"]["statistic"]
    s2 = r2["cells"][0]["results"][0]["verdict"]["statistic"]
    assert s1 != s2


def test_crash_isolation():
    scenario = parse_scenario_dict(
        {
            "name": "crash",
            "master_seed": 9,
            "box": {"family": "nonlinear-bloch", "kappa": {"param": "kappa"}},
            "parameter_grid": {"kappa": [1, "bad"]},
            "detectors": [{"name": "ensemble-signalling"}],
        }
    )
    report = run_scenario(scenario, threads=1)
    good, bad = report["cells"]
    assert good["results"][0]["verdict"]["verdict"] == "quantum-consistent"
    failed = bad["results"][0]
    assert failed["error"] == (
        "ScenarioError: box.kappa: grid cell does not bind numeric parameter 'kappa'"
    )
    assert failed["samples"] == 0
    assert "verdict" not in failed
    assert report["summary"]["error_count"] == 1
    assert report["summary"]["verdict_counts"]["ensemble-signalling"]["error"] == 1


@pytest.mark.parametrize(
    "box, error",
    [
        (
            {"family": "linear", "channel": {"kind": "identity"}},
            "ScenarioError: second_box.channel.p: grid cell does not bind numeric parameter 'p'",
        ),
        (
            {"family": "nonlinear-bloch", "kappa": {"param": "p"}},
            "ScenarioError: box.kappa: grid cell does not bind numeric parameter 'p'",
        ),
    ],
)
def test_a_build_error_names_its_path_and_spares_a_detector_of_no_model(box, error):
    second_box = {"family": "linear", "channel": {"kind": "dephasing", "p": {"param": "p"}}}
    scenario = parse_scenario_dict(
        {
            "name": "build-error",
            "master_seed": 11,
            "box": box,
            "parameter_grid": [{"p": 0.1}, {"p": "x"}],
            "detectors": [
                {"name": "composition-gap", "settings": {"shots": 256, "second_box": second_box}},
                {"name": "nsq-survey", "settings": {"n_samples": 2}},
            ],
        }
    )
    good, bad = run_scenario(scenario, threads=1)["cells"]
    assert all("verdict" in result for result in good["results"])
    gap, survey = bad["results"]
    assert gap["error"] == error
    assert "error" not in survey
    assert survey["samples"] == 2


def test_packaged_helstrom_demo_grid():
    text = resources.files("qdata").joinpath("scenarios", "helstrom.json").read_text("utf-8")
    scenario = parse_scenario_dict(json.loads(text))
    report = run_scenario(scenario, threads=1)
    verdicts = {
        cell["params"]["kappa"]: cell["results"][0]["verdict"]["verdict"]
        for cell in report["cells"]
    }
    assert verdicts[1] != "post-quantum"
    assert verdicts[4] == "post-quantum"


def test_report_file_round_trip(tmp_path, identity_report):
    path = tmp_path / "report.json"
    write_report(identity_report, path)
    assert load_report(path) == identity_report
    # deterministic serialization: writing the same report twice is byte-equal
    path2 = tmp_path / "report2.json"
    write_report(identity_report, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_undefined_std_error_round_trips_as_null(tmp_path):
    # a single kept QRAC round leaves the standard error undefined (NaN);
    # a round is kept with probability 1/4, and master seed 1 keeps it under
    # the block stream layout of qrac_fidelity_estimate, so a change of that
    # layout may need a new seed here
    doc = {
        "name": "one-kept-round",
        "master_seed": 1,
        "pair": {"family": "qrac-measure-prepare"},
        "parameter_grid": [{}],
        "detectors": [{"name": "qrac", "settings": {"rounds": 1}}],
    }
    report = run_scenario(parse_scenario_dict(doc))
    verdict = report["cells"][0]["results"][0]["verdict"]
    assert verdict["n_trials"] == 1
    assert verdict["std_error"] is None
    assert verdict["verdict"] == "inconclusive"
    path = tmp_path / "report.json"
    write_report(report, path)
    text = path.read_text()
    assert '"std_error": null' in text
    assert "NaN" not in text
    assert load_report(path) == report


def test_qrac_reports_match_across_threads_at_block_boundaries():
    from qdata.detectors import QRAC_BLOCK

    doc = {
        "name": "qrac-blocks",
        "master_seed": 3,
        "pair": {"family": "qrac-measure-prepare"},
        "parameter_grid": {"k": [1, 2, 3]},
        "detectors": [{"name": "qrac", "settings": {"rounds": 2 * QRAC_BLOCK + 7}}],
    }
    reports = [
        strip_timestamp(run_scenario(parse_scenario_dict(copy.deepcopy(doc)), threads=t))
        for t in (1, 2)
    ]
    assert reports[0] == reports[1]
    for cell in reports[0]["cells"]:
        assert cell["results"][0]["samples"] == 2 * QRAC_BLOCK + 7


def test_report_io_rejects_non_finite_numbers(tmp_path, identity_report):
    bad = copy.deepcopy(identity_report)
    bad["cells"][0]["results"][0]["verdict"]["std_error"] = float("nan")
    with pytest.raises(ValueError):
        write_report(bad, tmp_path / "never.json")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(bad))  # the permissive encoder writes NaN
    with pytest.raises(ValueError, match="non-finite"):
        load_report(path)


def test_summarize_report_digest(identity_report):
    digest = summarize_report(identity_report)
    assert "scenario: identity-sweep" in digest
    assert "cells: 4  samples: 713152  errors: 0" in digest
    assert "helstrom:" in digest
    assert "post-quantum" not in digest


def test_thread_count_validation():
    scenario = parse_scenario_dict(copy.deepcopy(IDENTITY_SWEEP))
    with pytest.raises(ValueError, match="threads must be at least 1"):
        run_scenario(scenario, threads=0)


# one composition-gap detector with a constant second box, one whose second
# box reads the cell's parameter
MIXED_SECOND_BOXES = {
    "name": "mixed-second-boxes",
    "master_seed": 23,
    "box": {"family": "nonlinear-bloch", "kappa": {"param": "kappa"}},
    "parameter_grid": {"kappa": [1, 2.5], "p": [0.1, 0.7]},
    "detectors": [
        {
            "name": "composition-gap",
            "settings": {
                "shots": 256,
                "second_box": {"family": "linear", "channel": {"kind": "dephasing", "p": 0.3}},
            },
        },
        {
            "name": "composition-gap",
            "settings": {
                "shots": 256,
                "second_box": {
                    "family": "linear",
                    "channel": {"kind": "dephasing", "p": {"param": "p"}},
                },
            },
        },
    ],
}


def test_one_thread_runs_inline_through_execute_one(monkeypatch):
    import qdata.harness

    pools = []

    class CountingPool(qdata.harness.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    jobs = []
    execute_one = qdata.harness._execute_one

    def recording(scenario, cell_index, det_index, seed, build):
        jobs.append((cell_index, det_index))
        return execute_one(scenario, cell_index, det_index, seed, build)

    monkeypatch.setattr(qdata.harness, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(qdata.harness, "_execute_one", recording)
    scenario = parse_scenario_dict(copy.deepcopy(MIXED_SECOND_BOXES))
    inline = run_scenario(scenario, threads=1)
    assert pools == []
    assert jobs == [(cell, det) for cell in range(4) for det in range(2)]
    pooled = run_scenario(scenario, threads=2)
    assert pools == [{"max_workers": 2}]
    assert strip_timestamp(inline) == strip_timestamp(pooled)
    assert inline["summary"]["error_count"] == 0
    # the constant second box gives one output per kappa, the referenced one
    # moves with p as well
    staged = [
        [r["reconstructions"]["composed_output"]["data"] for r in cell["results"]]
        for cell in inline["cells"]
    ]
    assert staged[0][0] == staged[1][0] and staged[0][1] != staged[1][1]


# three detectors that run on the cell's model, one that needs none
CELL_SUITE = {
    "name": "cell-suite",
    "master_seed": 31,
    "box": {
        "family": "nonlinear-bloch",
        "kappa": {"param": "kappa"},
        "pre_rotation_y": {"param": "rot"},
    },
    "parameter_grid": {"kappa": [1, 2, 3.5], "rot": [0.0, 0.4]},
    "detectors": [
        {"name": "helstrom", "settings": {"trials": 2000}},
        {"name": "nsq-survey", "settings": {"n_samples": 2}},
        {"name": "ensemble-signalling"},
        {
            "name": "composition-gap",
            "settings": {
                "shots": 256,
                "second_box": {"family": "linear", "channel": {"kind": "dephasing", "p": 0.3}},
            },
        },
    ],
}


def _counting_builds(monkeypatch) -> list:
    built = []
    build = Scenario.build

    def counting(self, params):
        built.append(dict(params))
        return build(self, params)

    monkeypatch.setattr(Scenario, "build", counting)
    return built


def test_a_cell_builds_its_model_once_for_all_its_detectors(monkeypatch):
    built = _counting_builds(monkeypatch)
    scenario = parse_scenario_dict(copy.deepcopy(CELL_SUITE))
    report = run_scenario(scenario, threads=1)
    assert report["summary"]["error_count"] == 0
    assert built == list(scenario.grid)


def test_a_survey_only_scenario_never_builds_its_referenced_pair(monkeypatch):
    built = _counting_builds(monkeypatch)
    # a qubit channel does not factor over [2, 2], so a build would fail the job
    scenario = parse_scenario_dict(
        {
            "name": "survey-only",
            "master_seed": 5,
            "pair": {
                "family": "nsq-channel",
                "channel": {"kind": "depolarizing", "p": {"param": "p"}},
                "local_dims": [2, 2],
            },
            "parameter_grid": {"p": [0.1, 0.9]},
            "detectors": [{"name": "nsq-survey", "settings": {"n_samples": 2}}],
        }
    )
    report = run_scenario(scenario, threads=2)
    assert report["summary"]["error_count"] == 0
    assert built == []


def test_a_failing_build_fails_each_detector_that_needs_it_and_spares_the_rest():
    doc = copy.deepcopy(CELL_SUITE)
    doc["parameter_grid"] = [{"kappa": 2, "rot": 0.4}, {"kappa": "bad", "rot": 0.4}]
    report = run_scenario(parse_scenario_dict(doc), threads=1)
    good, bad = report["cells"]
    assert all("verdict" in result for result in good["results"])
    helstrom, survey, signalling, gap = bad["results"]
    error = "ScenarioError: box.kappa: grid cell does not bind numeric parameter 'kappa'"
    assert helstrom["error"] == signalling["error"] == gap["error"] == error
    assert "error" not in survey and survey["samples"] == 2
    assert report["summary"]["error_count"] == 3


def test_cells_with_several_model_detectors_agree_across_thread_counts():
    scenario = parse_scenario_dict(copy.deepcopy(CELL_SUITE))
    inline = strip_timestamp(run_scenario(scenario, threads=1))
    assert len(inline["cells"]) == 6
    for threads in (2, 4):
        assert strip_timestamp(run_scenario(scenario, threads=threads)) == inline
