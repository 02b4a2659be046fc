"""Scenario execution: report structure, determinism, crash isolation."""

import copy
import gc
import importlib.util
import json
import math
import pathlib
import weakref
from importlib import resources

import numpy as np
import pytest

from qdata import (
    CollapseNonlinear,
    ComposedBox,
    DensityMatrix,
    HelstromSetup,
    InvalidInputError,
    LinearBox,
    NonlinearBloch,
    PureState,
    QuantumChannel,
    RngStream,
    Scenario,
    TestVerdict,
    TomographyRun,
    ancilla_consistency_test,
    basis_invariance_test,
    canonical_ensemble_pair,
    compose_boxes,
    composition_gap_test,
    composition_gap_tests,
    concatenate_tests,
    diff_reports,
    eig_hermitian,
    ensemble_signalling_test,
    ensemble_signalling_tests,
    helstrom_test,
    helstrom_tests,
    ket,
    load_report,
    minus_state,
    mix64,
    parse_scenario_dict,
    plus_state,
    rotation_y,
    run_scenario,
    summarize_report,
    trace_distance,
    write_report,
)
from qdata import harness
from qdata.linalg import _project_to_density
from qdata.tomography import _raw_estimate

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


def test_a_report_file_holds_one_line_per_cell_and_the_rest_indented(tmp_path, identity_report):
    report = identity_report
    assert len(report["cells"]) > 1
    assert any("reconstructions" in r for cell in report["cells"] for r in cell["results"])
    path = tmp_path / "report.json"
    write_report(report, path)
    text = path.read_text()
    assert json.loads(text) == report
    lines = text.splitlines()
    start = lines.index('  "cells": [')
    end = start + 1 + len(report["cells"])
    # each cell is one line, the C encoder's, and then the array closes
    for line, cell in zip(lines[start + 1 : end], report["cells"]):
        assert line.startswith("    {")
        assert json.loads(line.rstrip(",")) == cell
        assert line.strip().rstrip(",") == json.dumps(cell, sort_keys=True)
    assert lines[end] == "  ],"
    # everything else is laid out as an indent of 2 lays it out
    rest = lines[:start] + ['  "cells": [],'] + lines[end + 1 :]
    assert "\n".join(rest) + "\n" == json.dumps({**report, "cells": []}, sort_keys=True, indent=2) + "\n"
    # the line that holds the timestamp holds nothing else
    stamps = [line for line in lines if '"timestamp"' in line]
    assert stamps == [f'    "timestamp": {json.dumps(report["provenance"]["timestamp"])},']
    bad = copy.deepcopy(report)
    bad["cells"][-1]["results"][0]["verdict"]["statistic"] = float("inf")
    with pytest.raises(ValueError):
        write_report(bad, tmp_path / "never.json")


def test_summarize_report_digest(identity_report):
    digest = summarize_report(identity_report)
    assert "scenario: identity-sweep" in digest
    assert "cells: 4  samples: 713152  errors: 0" in digest
    assert "helstrom:" in digest
    assert "post-quantum" not in digest


def _no_jobs(*args):
    raise AssertionError("a job ran")


def test_thread_count_validation(monkeypatch):
    monkeypatch.setattr(harness, "_execute_one", _no_jobs)
    scenario = parse_scenario_dict(copy.deepcopy(IDENTITY_SWEEP))
    with pytest.raises(ValueError, match="threads must be at least 1"):
        run_scenario(scenario, threads=0)
    for threads in (2.5, True):
        with pytest.raises(InvalidInputError, match="threads must be an integer"):
            run_scenario(scenario, threads=threads)


@pytest.mark.parametrize(
    "seed,message",
    [
        (2**64, "seed must fit in 64 unsigned bits"),
        (-1, "seed must be at least 0"),
        (1.5, "seed must be an integer"),
        (True, "seed must be an integer"),
    ],
    ids=["2**64", "-1", "1.5", "True"],
)
def test_seed_override_is_a_64_bit_unsigned_integer(seed, message, monkeypatch):
    monkeypatch.setattr(harness, "_execute_one", _no_jobs)
    scenario = parse_scenario_dict(copy.deepcopy(IDENTITY_SWEEP))
    with pytest.raises(InvalidInputError, match=message):
        run_scenario(scenario, seed=seed)


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

    def recording(scenario, cell_index, det_index, stream, rule):
        jobs.append((cell_index, det_index))
        return execute_one(scenario, cell_index, det_index, stream, rule)

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
    build_stack = Scenario.build_stack

    def counting(self, cells):
        built.extend(dict(params) for params in cells)
        return build_stack(self, cells)

    monkeypatch.setattr(Scenario, "build_stack", counting)
    return built


def _failing_builds_at(monkeypatch, kappa) -> None:
    """Each cell whose kappa is ``kappa`` builds a box that raises inside the stack."""
    build_stack = Scenario.build_stack

    def failing(self, cells):
        models = build_stack(self, cells)
        return [_FailingBox(QuantumChannel.identity(2)) if p["kappa"] == kappa else m for p, m in zip(cells, models)]

    monkeypatch.setattr(Scenario, "build_stack", failing)


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


def test_diff_of_a_rerun_is_empty_whatever_the_timestamp(identity_report):
    rerun = copy.deepcopy(identity_report)
    rerun["provenance"]["timestamp"] = "1999-01-01T00:00:00+00:00"
    assert diff_reports(identity_report, rerun) == []


def test_diff_names_a_flipped_verdict_an_added_error_and_the_largest_move(identity_report):
    changed = copy.deepcopy(identity_report)
    helstrom, signalling = changed["cells"][1]["results"][:2]
    before = helstrom["verdict"]["verdict"]
    after = "post-quantum" if before != "post-quantum" else "consistent"
    helstrom["verdict"]["verdict"] = after
    signalling["error"] = "RuntimeError: boom"
    threshold = changed["cells"][2]["results"][0]["verdict"]["threshold"]
    changed["cells"][2]["results"][0]["verdict"]["threshold"] = threshold + 1e-15
    assert diff_reports(identity_report, changed) == [
        ("changed", "cells[1].results[0].verdict.verdict", before, after),
        ("changed", "cells[1].results[1].error", None, "RuntimeError: boom"),
        ("number", "cells[2].results[0].verdict.threshold", threshold, threshold + 1e-15),
    ]


def test_diff_reports_what_is_not_a_number_move(identity_report):
    changed = copy.deepcopy(identity_report)
    changed["scenario"]["name"] = "renamed"
    del changed["cells"][0]["results"][0]["verdict"]["extras"]
    changed["cells"][3]["results"].pop()
    changed["provenance"]["seed"] = True  # a bool is not a number
    found = diff_reports(identity_report, changed)
    assert [(kind, where) for kind, where, _, _ in found] == [
        ("changed", "cells[0].results[0].verdict.extras"),
        ("changed", "cells[3].results"),
        ("changed", "provenance.seed"),
        ("changed", "scenario.name"),
    ]


# ---------------------------------------------------------------- composition-gap blocks


def _one_source_tomography(source, run, rng):
    # state_tomography as it ran before stacks: one source, projected alone
    return DensityMatrix._of(_project_to_density(_raw_estimate(source, run, rng)))


def _per_cell_gap(b1, second_box, probe_theta, shots, *, rng):
    """composition_gap_test as it ran one cell per call, with two one-source tomographies."""
    probe = PureState.from_bloch(probe_theta, 0.0)
    composed = compose_boxes(b1, second_box).ensemble_output_density(probe)
    run = TomographyRun(shots)
    first_hat = _one_source_tomography(b1.ensemble_output_density(probe), run, rng.child(0))
    second = second_box.ensemble_output_density(first_hat.eigen_ensemble())
    staged = _one_source_tomography(second, run, rng.child(1))
    recon = {"composed_output": composed.matrix, "staged_output": staged.matrix}
    return TestVerdict(trace_distance(composed, staged), 0.05, 0.0, shots, reconstructions=recon)


def _bits(matrix) -> bytes:
    return np.asarray(matrix, dtype=complex).tobytes()


# composition.json's second box: a strongly warped, pre-rotated Bloch box
NONLINEAR_SECOND = NonlinearBloch(4.0, rotation_y(math.pi / 4))


def test_stacked_composition_gaps_equal_the_per_cell_test_bit_for_bit():
    firsts = [
        NonlinearBloch(kappa, rotation_y(rot)) for kappa in (1.0, 2.5, 4.0) for rot in (0.0, 0.9)
    ] + [
        LinearBox(QuantumChannel.amplitude_damping(0.35)),
        LinearBox(QuantumChannel.identity(2)),
        NonlinearBloch(1.75),
        LinearBox(QuantumChannel.depolarizing(0.6)),
    ]
    for second in (LinearBox(QuantumChannel.dephasing(0.3)), NONLINEAR_SECOND):
        for shots, theta in ((1, 1.0), (97, 2 * math.pi / 3), (2048, 0.4)):
            streams = [RngStream(71, mix64(k, 2)) for k in range(len(firsts))]
            got = composition_gap_tests(firsts, second, theta, shots, rng=streams)
            assert len(got) == len(firsts)
            for k, (box, verdict) in enumerate(zip(firsts, got)):
                alone = RngStream(71, mix64(k, 2))
                want = _per_cell_gap(box, second, theta, shots, rng=alone)
                assert verdict.statistic.hex() == want.statistic.hex(), (shots, k)
                assert verdict.verdict == want.verdict
                for name in ("composed_output", "staged_output"):
                    assert _bits(verdict.reconstructions[name]) == _bits(want.reconstructions[name])
                # each cell's samples go onto its own stream's tally
                assert streams[k].samples == alone.samples == 2 * 3 * shots
            one = RngStream(71, mix64(0, 2))
            alone = composition_gap_test(firsts[0], second, theta, shots, rng=one)
            assert alone.statistic.hex() == got[0].statistic.hex() and one.samples == 6 * shots
            staged = concatenate_tests(firsts[0], second, PureState.from_bloch(theta, 0.0), shots,
                                       rng=RngStream(71, mix64(0, 2)))
            assert _bits(staged.matrix) == _bits(got[0].reconstructions["staged_output"])


def test_a_gap_stack_refuses_streams_of_several_seeds_before_any_draw():
    box, second = NonlinearBloch(2.0), LinearBox(QuantumChannel.dephasing(0.3))
    streams = [RngStream(1, 5), RngStream(2, 5)]
    # keyed from the first stream's seed, the second gap would read 0.14566711969949614
    with pytest.raises(InvalidInputError, match="one seed"):
        composition_gap_tests([box, box], second, 1.0, 97, rng=streams)
    assert [stream.samples for stream in streams] == [0, 0]
    alone = composition_gap_test(box, second, 1.0, 97, rng=RngStream(2, 5))
    assert alone.statistic == 0.12224422012634753


def test_a_gap_stack_of_no_boxes_is_refused():
    second = LinearBox(QuantumChannel.dephasing(0.3))
    with pytest.raises(InvalidInputError, match="one or more streams"):
        composition_gap_tests([], second, 1.0, 97, rng=[])


def _per_cell_helstrom(box, setup, trials, *, rng):
    """helstrom_test as it ran one box per call, with one eigensolve per box."""
    p1, p2 = setup.priors
    out1 = box.ensemble_output_density(setup.states[0])
    out2 = box.ensemble_output_density(setup.states[1])
    delta = p1 * out1.matrix - p2 * out2.matrix
    eigvals, eigvecs = eig_hermitian(delta)
    to_first = eigvals > 1e-12
    if p1 >= p2:
        to_first |= np.abs(eigvals) <= 1e-12
    chosen = eigvecs[:, to_first]
    pi1 = chosen @ chosen.conj().T if to_first.any() else np.zeros_like(delta)
    pi2 = np.eye(delta.shape[0]) - pi1
    q1 = float(np.clip(np.real(np.trace(pi1 @ out1.matrix)), 0.0, 1.0))
    q2 = float(np.clip(np.real(np.trace(pi2 @ out2.matrix)), 0.0, 1.0))
    gen = rng.generator
    n1 = int(gen.binomial(trials, p1))
    successes = int(gen.binomial(n1, q1)) + int(gen.binomial(trials - n1, q2))
    rng.tally(trials)
    p_hat = successes / trials
    std_error = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return TestVerdict(p_hat, setup.bound, std_error, trials, extras={"exact_success": p1 * q1 + p2 * q2})


def _per_cell_signalling(box, *, rng=None):
    """ensemble_signalling_test on the canonical pair as it ran one box per call."""
    e1, e2 = canonical_ensemble_pair()
    statistic = trace_distance(box.ensemble_output_density(e1), box.ensemble_output_density(e2))
    return TestVerdict(statistic, 1e-6, 0.0, 0)


def _setup(thetas, priors):
    return HelstromSetup(priors, tuple(PureState.from_bloch(theta, 0.0) for theta in thetas))


# the one-cell oracle of each stacked detector, called with the cell's settings
ORACLES = {
    "helstrom": lambda box, trials, thetas, priors, rng: _per_cell_helstrom(
        box, _setup(thetas, priors), trials, rng=rng
    ),
    "ensemble-signalling": _per_cell_signalling,
    "composition-gap": _per_cell_gap,
}


def _walked(value):
    """A report value made by walking it, the reference records are checked against: plain
    JSON values, a NaN or infinite float as None (null), a matrix as {shape, data}."""
    if isinstance(value, np.ndarray):
        flat = value.astype(complex).reshape(-1).tolist()
        return {"shape": list(value.shape), "data": [[z.real, z.imag] for z in flat]}
    if isinstance(value, dict):
        return {k: _walked(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_walked(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _walked_verdict(verdict) -> dict:
    """The reference record of a verdict: every field but its evidence, absent extras as an
    empty object, walked (:func:`_walked`)."""
    fields = {**vars(verdict), "extras": verdict.extras or {}}
    del fields["reconstructions"]
    return _walked(fields)


def _oracle_record(scenario, cell, det, seed) -> dict:
    """The report record of one job of a stacked detector, computed one cell per call."""
    stream = RngStream(seed, mix64(cell, det))
    record = {"detector": scenario.detectors[det].name}
    try:
        box = scenario.build(scenario.grid[cell])
        verdict = ORACLES[record["detector"]](box, rng=stream, **scenario._settings(cell, det))
    except Exception as exc:
        return {**record, "error": f"{type(exc).__name__}: {exc}", "samples": 0}
    record.update(verdict=_walked_verdict(verdict), samples=stream.samples)
    if verdict.reconstructions:
        record["reconstructions"] = _walked(verdict.reconstructions)
    return record


def test_a_record_equals_the_walk_of_its_verdicts_raw_values(monkeypatch):
    from qdata import detectors

    survey = parse_scenario_dict(
        {
            "name": "one-sample-survey",
            "master_seed": 3,
            "pair": {"family": "qrac-oracle"},
            "parameter_grid": [{}],
            "detectors": [{"name": "nsq-survey", "settings": {"n_samples": 1}}],
        }
    )
    box = NonlinearBloch(2.0)
    cases = {
        # one sample leaves the standard error undefined (NaN)
        "nan std_error": lambda: survey.run_stack([0], 0, [RngStream(3, 0)], [None])[0],
        "signed zero": lambda: TestVerdict(
            -0.0, 1e-6, 0.0, 0, extras={"gap": np.float32(-0.0), "count": np.int64(3), "ratio": np.float64(0.25)}
        ),
        # cptp_residuals is a tuple of numpy floats when the test makes it
        "tuple extras": lambda: basis_invariance_test(box, shots=64, deltas=(0.0, 0.4), rng=RngStream(3, 1)),
    }
    for name, make in cases.items():
        got = make()
        with monkeypatch.context() as m:
            m.setattr(detectors, "_plain", lambda value: value)
            raw = make()
        assert json.dumps(harness._verdict_dict(got), sort_keys=True) == json.dumps(
            _walked_verdict(raw), sort_keys=True
        ), name
    # each case holds what it covers: the verdict keeps its NaN, and the tuple was a tuple
    nan_case = cases["nan std_error"]()
    assert math.isnan(nan_case.std_error) and harness._verdict_dict(nan_case)["std_error"] is None
    assert isinstance(raw.extras["cptp_residuals"], tuple)
    assert got.extras["cptp_residuals"] == list(raw.extras["cptp_residuals"])


def _assert_records_match_the_oracle(scenario, report, cells=None):
    """Every record of a stacked detector in ``report`` (of ``cells``, default all) equals its oracle's."""
    seed = report["provenance"]["seed"]
    for entry in report["cells"]:
        cell = entry["cell_index"]
        if cells is not None and cell not in cells:
            continue
        for det, record in enumerate(entry["results"]):
            if record["detector"] in ORACLES:
                want = _oracle_record(scenario, cell, det, seed)
                # serialized, so a sign of zero counts too
                assert json.dumps(record, sort_keys=True) == json.dumps(want, sort_keys=True), (cell, det)


def _recording_stacks(monkeypatch) -> list:
    stacks = []
    run_stack = Scenario.run_stack

    def recording(self, cell_indices, det_index, streams, models):
        stacks.append((det_index, list(cell_indices)))
        return run_stack(self, cell_indices, det_index, streams, models)

    monkeypatch.setattr(Scenario, "run_stack", recording)
    return stacks


def _block_plus_one_sweep() -> dict:
    # one cell more than a block: a full stack of CELL_BLOCK cells, then a stack of one
    n = harness.CELL_BLOCK + 1
    return {
        "name": "block-plus-one",
        "master_seed": 37,
        "box": {"family": "linear", "channel": {"kind": "amplitude-damping", "gamma": {"param": "g"}}},
        "parameter_grid": {"g": [k / n for k in range(n)]},
        "detectors": [
            {"name": "ensemble-signalling"},
            {
                "name": "composition-gap",
                "settings": {
                    "shots": 64,
                    "second_box": {"family": "nonlinear-bloch", "kappa": 2.0},
                },
            },
        ],
    }


def test_composition_gap_blocks_equal_the_per_cell_test_at_1_2_and_4_threads(monkeypatch):
    stacks = _recording_stacks(monkeypatch)
    scenario = parse_scenario_dict(_block_plus_one_sweep())
    inline = run_scenario(scenario, threads=1)
    assert inline["summary"]["error_count"] == 0
    n = harness.CELL_BLOCK + 1
    # ensemble-signalling and the gap each rule on a full block, then on a stack of one
    block = list(range(n - 1))
    assert stacks == [(0, block), (1, block), (0, [n - 1]), (1, [n - 1])]
    _assert_records_match_the_oracle(scenario, inline)
    for threads in (2, 4):
        assert strip_timestamp(run_scenario(scenario, threads=threads)) == strip_timestamp(inline)


def test_the_packaged_composition_demo_equals_the_per_cell_test():
    text = resources.files("qdata").joinpath("scenarios", "composition.json").read_text("utf-8")
    scenario = parse_scenario_dict(json.loads(text))
    for seed in (None, 2, 7):
        _assert_records_match_the_oracle(scenario, run_scenario(scenario, seed=seed))


def test_a_constant_second_box_stacks_the_block_and_a_parametric_one_runs_cell_by_cell(monkeypatch):
    stacks = _recording_stacks(monkeypatch)
    signed = copy.deepcopy(MIXED_SECOND_BOXES)
    # the sign of a zero reaches the second box, and so the report
    signed["parameter_grid"] = [{"kappa": 2, "p": p} for p in (0.0, 1, -0.0, 1.0, 0.0)]
    for doc in (MIXED_SECOND_BOXES, signed):
        scenario = parse_scenario_dict(copy.deepcopy(doc))
        assert scenario.block_stacked == (True, False)
        cells = list(range(len(scenario.grid)))
        for threads in (1, 2, 4):
            stacks.clear()
            report = run_scenario(scenario, threads=threads)
            assert stacks == [(0, cells)] + [(1, [cell]) for cell in cells]
            _assert_records_match_the_oracle(scenario, report)


def _benchmark_documents(seed: int) -> dict:
    """``{name: scenario document}`` of every benchmark workload at ``seed``, read from bench/."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {
        f"{name}-{i}": doc for name, make in workloads.WORKLOADS.items() for i, doc in enumerate(make(seed))
    }


def test_every_declared_composition_gap_stacks_whole_blocks(monkeypatch):
    # a packaged scenario or benchmark document that binds its second box to
    # the grid would run its gaps cell by cell, several times slower
    packaged = resources.files("qdata").joinpath("scenarios").iterdir()
    documents = {f.name: json.loads(f.read_text("utf-8")) for f in packaged if f.name.endswith(".json")}
    documents.update(_benchmark_documents(1))
    declaring = set()
    for name, doc in documents.items():
        scenario = parse_scenario_dict(doc)
        for spec, flag in zip(scenario.detectors, scenario.block_stacked):
            if spec.name == "composition-gap":
                declaring.add(name)
                assert flag, name
    assert {"composition.json", "exact-sweep-0", "exact-sweep-1"} <= declaring
    stacks = _recording_stacks(monkeypatch)
    for name in ("exact-sweep-0", "exact-sweep-1"):
        scenario = parse_scenario_dict(documents[name])
        assert [spec.name for spec in scenario.detectors] == ["helstrom", "ensemble-signalling", "composition-gap"]
        stacks.clear()
        run_scenario(scenario, threads=1)
        # helstrom, ensemble-signalling and the gap each rule once per block
        assert [(det, len(cells)) for det, cells in stacks] == [
            (det, size) for size in (64, 64, 22) for det in range(3)
        ], name


def test_the_tomography_memo_holds_no_box_alive(monkeypatch):
    from qdata import canonical_probe_basis, detectors, process_tomography_direct, tomography

    monkeypatch.setattr(detectors, "_calibration_cache", {})
    gc.collect()
    before = len(tomography._kept_rows)
    probed = []
    probe_rows = tomography._probe_rows
    monkeypatch.setattr(tomography, "_probe_rows", lambda box, *a: probed.append(weakref.ref(box)) or probe_rows(box, *a))
    run_scenario(parse_scenario_dict(_benchmark_documents(1)["tomography-grid-0"]), threads=2)
    gc.collect()
    # every box the run tomographed, the calibrations' identity boxes among them, is gone
    assert probed and all(ref() is None for ref in probed)
    assert len(tomography._kept_rows) == before
    box = NonlinearBloch(2.0)
    process_tomography_direct(box, canonical_probe_basis(2), TomographyRun(64), RngStream(1, 1))
    assert len(tomography._kept_rows) == before + 1
    del box
    assert len(tomography._kept_rows) == before


class _FailingBox(LinearBox):
    def ensemble_output_density(self, inputs):
        raise RuntimeError("boom")


def test_a_failing_build_settings_or_stack_fails_its_own_job_and_spares_its_block(monkeypatch):
    doc = copy.deepcopy(MIXED_SECOND_BOXES)
    doc["detectors"] = [{"name": "helstrom", "settings": {"trials": 500}}] + doc["detectors"]
    doc["parameter_grid"] = [
        {"kappa": 1, "p": 0.1},
        {"kappa": "bad", "p": 0.1},  # the model fails to build
        {"kappa": 2, "p": 0.1},
        {"kappa": 2, "p": "x"},  # the referenced second box fails to build
        {"kappa": 3, "p": 0.1},  # the model builds but raises inside the stack
        {"kappa": 4, "p": 0.1},
    ]
    _failing_builds_at(monkeypatch, 3)
    stacks = _recording_stacks(monkeypatch)
    scenario = parse_scenario_dict(doc)
    report = run_scenario(scenario, threads=1)
    # cell 1 joins no stack; cell 4's box fails the helstrom and constant-gap
    # stacks, which run again cell by cell; the parametric gap runs cell by cell
    built = [0, 2, 3, 4, 5]
    alone = [[cell] for cell in built]
    assert stacks == [(0, built)] + [(0, c) for c in alone] + [(1, built)] + [(1, c) for c in alone] + [
        (2, c) for c in alone
    ]
    errors = {
        (entry["cell_index"], det): record["error"]
        for entry in report["cells"]
        for det, record in enumerate(entry["results"])
        if "error" in record
    }
    built = "ScenarioError: box.kappa: grid cell does not bind numeric parameter 'kappa'"
    setting = "ScenarioError: second_box.channel.p: grid cell does not bind numeric parameter 'p'"
    assert errors == {
        (1, 0): built,
        (1, 1): built,
        (1, 2): built,
        (3, 2): setting,
        (4, 0): "RuntimeError: boom",
        (4, 1): "RuntimeError: boom",
        (4, 2): "RuntimeError: boom",
    }
    for entry in report["cells"]:
        for record in entry["results"]:
            assert ("error" in record) == (record["samples"] == 0)
    _assert_records_match_the_oracle(scenario, report, cells={0, 2, 5})
    assert "verdict" in report["cells"][3]["results"][1]


# ---------------------------------------------------------------- helstrom and ensemble-signalling stacks


def _bound_stages_sweep(cells) -> dict:
    # a depolarizing stage then a warp, each binding a grid parameter, over a list grid
    return {
        "name": "bound-stages",
        "master_seed": 29,
        "box": {
            "family": "composed",
            "stages": [
                {"family": "linear", "channel": {"kind": "depolarizing", "p": {"param": "p"}}},
                {"family": "nonlinear-bloch", "kappa": {"param": "kappa"}, "post_rotation_y": {"param": "rot"}},
            ],
        },
        "parameter_grid": cells,
        "detectors": [
            {"name": "helstrom", "settings": {"trials": 500}},
            {"name": "ensemble-signalling"},
            {
                "name": "composition-gap",
                "settings": {
                    "shots": 128,
                    "second_box": {"family": "linear", "channel": {"kind": "dephasing", "p": 0.3}},
                },
            },
        ],
    }


def test_an_invalid_bound_value_fails_its_own_cell_and_its_neighbours_keep_their_records(monkeypatch):
    n = harness.CELL_BLOCK + 6
    clean = [{"p": round(k / (n - 1), 12), "kappa": 1 + k / 10, "rot": 0.5} for k in range(n)]
    depolarizing = "InvalidInputError: depolarizing strength must lie in [0, 1]"
    warp = "InvalidInputError: warp exponent must be positive"
    # each cell's error is its first failing field's, in the order a one-cell build meets them
    invalid = {
        3: ({"p": 1.5}, depolarizing),
        5: ({"kappa": 0}, warp),
        8: ({"p": "x"}, "ScenarioError: box.stages[0].channel.p: grid cell does not bind numeric parameter 'p'"),
        9: ({"p": -0.5, "kappa": 0}, depolarizing),
        12: ({"p": 2, "kappa": "y"}, depolarizing),
        13: ({"kappa": "y", "rot": "z"}, "ScenarioError: box.stages[1].kappa: grid cell does not bind numeric parameter 'kappa'"),
        n - 2: ({"kappa": -1}, warp),
    }
    cells = [{**cell, **invalid[k][0]} if k in invalid else cell for k, cell in enumerate(clean)]
    want = run_scenario(parse_scenario_dict(_bound_stages_sweep(clean)))
    stacks = _recording_stacks(monkeypatch)
    report = run_scenario(parse_scenario_dict(_bound_stages_sweep(cells)))
    for entry, other in zip(report["cells"], want["cells"]):
        cell = entry["cell_index"]
        if cell in invalid:
            error = invalid[cell][1]
            assert entry["results"] == [
                {"detector": name, "error": error, "samples": 0}
                for name in ("helstrom", "ensemble-signalling", "composition-gap")
            ], cell
        else:
            assert json.dumps(entry["results"], sort_keys=True) == json.dumps(other["results"], sort_keys=True)
    # every valid cell of a block stays in its block's one stack per detector
    blocks = [range(0, harness.CELL_BLOCK), range(harness.CELL_BLOCK, n)]
    assert stacks == [(d, [c for c in block if c not in invalid]) for block in blocks for d in range(3)]


class _SkewBox(LinearBox):
    """A linear box whose outputs carry a non-Hermitian off-diagonal entry."""

    def ensemble_output_density(self, inputs):
        matrix = super().ensemble_output_density(inputs).matrix.copy()
        matrix[0, 1] += 1e-6
        return DensityMatrix._of(matrix)


def _mixed_boxes() -> list:
    """Every box family in one stack, with Helstrom differences that have null directions."""
    damping = LinearBox(QuantumChannel.amplitude_damping(0.35))
    warped = NonlinearBloch(2.5, rotation_y(0.9))
    collapse = CollapseNonlinear((ket(0), ket(1)), kappa=3.0, pre_unitary=rotation_y(0.4))
    return [
        damping,
        LinearBox(QuantumChannel.identity(2)),
        LinearBox(QuantumChannel.depolarizing(1.0)),  # every output is I/2
        LinearBox(QuantumChannel.amplitude_damping(1.0)),  # every output is |0><0|
        warped,
        NonlinearBloch(1.0),
        collapse,
        CollapseNonlinear((plus_state(), minus_state()), kappa=1.75),
        ComposedBox([damping, warped]),
        compose_boxes(warped, LinearBox(QuantumChannel.dephasing(0.3))),
        ComposedBox([collapse, NonlinearBloch(4.0)]),
    ]


def _fields(verdict) -> str:
    # every ruled field, exact_success included, serialized so a sign of zero counts too
    return json.dumps(_walked_verdict(verdict), sort_keys=True)


# the default pair, an orthogonal pair and one state twice
THETAS = ((math.pi / 2 - math.pi / 8, math.pi / 2 + math.pi / 8), (0.0, math.pi), (0.4, 0.4))
PRIORS = ((0.5, 0.5), (0.3, 0.7), (0.7, 0.3))


def test_stacked_helstrom_and_signalling_equal_the_per_cell_tests_bit_for_bit():
    boxes = _mixed_boxes()
    for thetas in THETAS:
        for priors in PRIORS:
            setup = _setup(thetas, priors)
            streams = [RngStream(71, mix64(k, 0)) for k in range(len(boxes))]
            got = helstrom_tests(boxes, setup, 997, rng=streams)
            assert len(got) == len(boxes)
            for k, (box, verdict) in enumerate(zip(boxes, got)):
                alone = RngStream(71, mix64(k, 0))
                assert _fields(verdict) == _fields(_per_cell_helstrom(box, setup, 997, rng=alone)), k
                # each box's trials go onto its own stream's tally
                assert streams[k].samples == alone.samples == 997
            one = helstrom_test(boxes[-1], setup, 997, rng=RngStream(71, mix64(len(boxes) - 1, 0)))
            assert _fields(one) == _fields(got[-1])
    got = ensemble_signalling_tests(boxes, rng=[RngStream(71, k) for k in range(len(boxes))])
    for box, verdict in zip(boxes, got):
        assert _fields(verdict) == _fields(_per_cell_signalling(box))
        assert _fields(ensemble_signalling_test(box)) == _fields(verdict)
    assert helstrom_tests([], _setup(*THETAS[:1], PRIORS[0]), rng=[]) == []
    assert ensemble_signalling_tests([]) == []


# seeds and ids of every integer kind a stream may hold, negative and past 2**63 too
MIXED_STREAMS = [
    (5, 0),
    (np.int64(5), np.int64(3)),
    (np.uint64(2**63 + 1), np.uint64(2**64 - 1)),
    (np.int64(-7), 11),
    (2**64 - 1, np.int64(-1)),
    (0, np.uint64(2**63)),
    (np.uint64(17), 2**63 + 5),
]


def _helstrom_stack(boxes, setup, pairs):
    """helstrom_tests of ``boxes`` on fresh streams of ``pairs``, with the streams."""
    streams = [RngStream(seed, stream_id) for seed, stream_id in pairs]
    return helstrom_tests(boxes, setup, 997, rng=streams), streams


def test_helstrom_draws_on_the_rekeyed_generator_equal_each_streams_own_bit_for_bit():
    boxes = _mixed_boxes()[: len(MIXED_STREAMS)]
    setup = _setup(THETAS[0], (0.3, 0.7))
    got, streams = _helstrom_stack(boxes, setup, MIXED_STREAMS)
    for (seed, stream_id), box, verdict, stream in zip(MIXED_STREAMS, boxes, got, streams):
        alone = RngStream(seed, stream_id)
        # the oracle draws its binomials from the stream's own generator
        assert _fields(verdict) == _fields(_per_cell_helstrom(box, setup, 997, rng=alone))
        assert stream.samples == alone.samples == 997
        # the stream's own generator continues where helstrom's draws left off
        assert stream.generator.random() == alone.generator.random()
    # a stream with a generator of its own keeps drawing on it
    again = helstrom_tests(boxes, setup, 997, rng=streams)
    for (seed, stream_id), box, verdict in zip(MIXED_STREAMS, boxes, again):
        alone = RngStream(seed, stream_id)
        _per_cell_helstrom(box, setup, 997, rng=alone)
        alone.generator.random()
        assert _fields(verdict) == _fields(_per_cell_helstrom(box, setup, 997, rng=alone))
    # two draws in a row on fresh streams: the second continues the first
    twice = [RngStream(seed, stream_id) for seed, stream_id in MIXED_STREAMS]
    helstrom_tests(boxes, setup, 997, rng=twice)
    second = helstrom_tests(boxes, setup, 997, rng=twice)
    for (seed, stream_id), box, verdict in zip(MIXED_STREAMS, boxes, second):
        alone = RngStream(seed, stream_id)
        _per_cell_helstrom(box, setup, 997, rng=alone)
        assert _fields(verdict) == _fields(_per_cell_helstrom(box, setup, 997, rng=alone))


def test_helstrom_stacks_on_several_threads_at_once_equal_the_serial_stacks():
    import sys
    import threading

    boxes = _mixed_boxes()[: len(MIXED_STREAMS)]
    setup = _setup(THETAS[1], (0.5, 0.5))
    shifted = [(seed, int(stream_id) + 1) for seed, stream_id in MIXED_STREAMS]
    jobs = [MIXED_STREAMS, shifted] * 2
    want = [[_fields(v) for v in _helstrom_stack(boxes, setup, pairs)[0]] for pairs in jobs]
    got = [[] for _ in jobs]

    def run(k):
        for _ in range(20):
            got[k].append([_fields(v) for v in _helstrom_stack(boxes, setup, jobs[k])[0]])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[w] * 20 for w in want]


def test_a_stack_with_a_non_hermitian_difference_fails_as_its_box_does_alone():
    setup = _setup(THETAS[0], (0.3, 0.7))
    skewed = _SkewBox(QuantumChannel.identity(2))
    with pytest.raises(InvalidInputError, match="not Hermitian"):
        _per_cell_helstrom(skewed, setup, 997, rng=RngStream(71, 0))
    streams = [RngStream(71, k) for k in range(4)]
    with pytest.raises(InvalidInputError, match="not Hermitian"):
        helstrom_tests(_mixed_boxes()[:3] + [skewed], setup, 997, rng=streams)
    assert [stream.samples for stream in streams] == [0] * 4


def test_helstrom_and_signalling_blocks_equal_the_per_cell_tests_at_1_2_and_4_threads(monkeypatch):
    boxes = _mixed_boxes()
    n = harness.CELL_BLOCK + 1
    last = _SkewBox(QuantumChannel.identity(2))

    def mixed(self, params):
        # one stack mixes every family; the last cell, a stack of one, fails helstrom
        k = int(params["k"])
        return last if k == n - 1 else boxes[k % len(boxes)]

    monkeypatch.setattr(Scenario, "build_stack", lambda self, cells: [mixed(self, params) for params in cells])
    stacks = _recording_stacks(monkeypatch)
    scenario = parse_scenario_dict(
        {
            "name": "mixed-families",
            "master_seed": 43,
            "box": {"family": "nonlinear-bloch", "kappa": {"param": "k"}},
            "parameter_grid": {"k": list(range(n))},
            "detectors": [
                {"name": "helstrom", "settings": {"trials": 500, "priors": [0.3, 0.7]}},
                {"name": "helstrom", "settings": {"trials": 500, "thetas": [0.0, 3.0], "priors": [0.7, 0.3]}},
                {"name": "ensemble-signalling"},
            ],
        }
    )
    inline = run_scenario(scenario, threads=1)
    block = list(range(n - 1))
    assert stacks == [(d, block) for d in range(3)] + [(d, [n - 1]) for d in range(3)]
    errors = [(e["cell_index"], d) for e in inline["cells"] for d, r in enumerate(e["results"]) if "error" in r]
    assert errors == [(n - 1, 0), (n - 1, 1)]
    _assert_records_match_the_oracle(scenario, inline)
    for threads in (2, 4):
        assert strip_timestamp(run_scenario(scenario, threads=threads)) == strip_timestamp(inline)


def test_a_detector_that_rules_cell_by_cell_keeps_a_failing_cell_in_its_own_record(monkeypatch):
    build = Scenario.build
    _failing_builds_at(monkeypatch, 2)
    stacks = _recording_stacks(monkeypatch)
    scenario = parse_scenario_dict(
        {
            "name": "ancilla-block",
            "master_seed": 17,
            "box": {"family": "nonlinear-bloch", "kappa": {"param": "kappa"}},
            "parameter_grid": {"kappa": [1, 2, 3]},
            "detectors": [{"name": "ancilla-consistency", "settings": {"shots": 64}}],
        }
    )
    report = run_scenario(scenario, threads=1)
    # one stack, not run again: the failing cell keeps its error, its neighbours their verdicts
    assert stacks == [(0, [0, 1, 2])]
    records = [entry["results"][0] for entry in report["cells"]]
    assert records[1] == {"detector": "ancilla-consistency", "error": "RuntimeError: boom", "samples": 0}
    for cell in (0, 2):
        stream = RngStream(17, mix64(cell, 0))
        verdict = ancilla_consistency_test(build(scenario, scenario.grid[cell]), 64, rng=stream)
        assert records[cell]["verdict"] == harness._verdict_dict(verdict)
        assert records[cell]["samples"] == stream.samples > 0
