"""Scenario execution: grid sweeps, detector suites, reproducible reports.

Every (cell, detector) pair runs on its own random stream derived by a
stable 64-bit mix of (master seed, cell index, detector index), so reports
are byte-identical for any thread count and any execution order.  Failures
are captured per cell; sibling cells always complete.  Reports are strict
JSON with sorted keys, complex matrices flattened row-major as [re, im]
pairs, non-finite numbers (an undefined standard error) as null, and a
schema version that bumps on any breaking change.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._version import __version__
from .boxes import ClassicalParams, compose_boxes, concatenate_tests
from .detectors import (
    HelstromSetup,
    TestVerdict,
    ancilla_consistency_test,
    basis_invariance_test,
    canonical_ensemble_pair,
    decide,
    ensemble_signalling_test,
    helstrom_test,
    nsq_random_survey,
    qrac_fidelity_estimate,
    qrac_verdict,
)
from .linalg import trace_distance
from .rng import RngStream, mix64
from .scenario import Scenario
from .states import PureState
from .tomography import (
    TomographyRun,
    canonical_probe_basis,
    pauli_measurement_set,
    process_tomography_direct,
)

__all__ = [
    "SCHEMA_VERSION",
    "run_scenario",
    "dump_report",
    "write_report",
    "load_report",
    "summarize_report",
]

SCHEMA_VERSION = 2

# child index reserved for report-only reconstructions, clear of any
# per-delta or per-stage indices a detector uses internally
_RECON_CHILD = 1 << 20


def _flat_complex(matrix: np.ndarray) -> dict:
    flat = np.asarray(matrix, dtype=complex).reshape(-1)
    return {
        "shape": list(matrix.shape),
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def _json_safe(value):
    """Plain JSON values; a NaN or infinite float becomes None (null)."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _verdict_dict(v: TestVerdict) -> dict:
    return _json_safe(
        {
            "statistic": float(v.statistic),
            "threshold": float(v.threshold),
            "std_error": float(v.std_error),
            "n_trials": int(v.n_trials),
            "verdict": v.verdict,
            "extras": v.extras if v.extras is not None else {},
        }
    )


def _params_dict(params: ClassicalParams) -> dict:
    return {name: value for name, value in params.entries}


# ---------------------------------------------------------------------------
# detector runners: each returns (verdict, samples, reconstructions)


def _run_helstrom(scenario, spec, params, stream):
    box = scenario.build_box(params)
    t1, t2 = spec.settings["thetas"]
    setup = HelstromSetup(
        spec.settings["priors"],
        (PureState.from_bloch(t1, 0.0), PureState.from_bloch(t2, 0.0)),
    )
    verdict = helstrom_test(box, setup, params, spec.settings["trials"], stream)
    return verdict, spec.settings["trials"], {}


def _run_ensemble_signalling(scenario, spec, params, stream):
    box = scenario.build_box(params)
    e1, e2 = canonical_ensemble_pair()
    return ensemble_signalling_test(box, e1, e2, params), 0, {}


def _run_basis_invariance(scenario, spec, params, stream):
    box = scenario.build_box(params)
    shots = spec.settings["shots"]
    deltas = spec.settings["deltas"]
    run = TomographyRun(shots, pauli_measurement_set(1))
    verdict = basis_invariance_test(box, params, deltas, run, stream)
    recon = process_tomography_direct(
        box, params, canonical_probe_basis(2, 0.0), run, stream.child(_RECON_CHILD)
    )
    samples = (len(deltas) + 1) * 4 * 3 * shots
    return verdict, samples, {"choi": _flat_complex(recon.normalized_choi())}


def _run_ancilla_consistency(scenario, spec, params, stream):
    box = scenario.build_box(params)
    shots = spec.settings["shots"]
    run = TomographyRun(shots, pauli_measurement_set(1))
    verdict = ancilla_consistency_test(box, params, run, stream)
    recon = process_tomography_direct(
        box, params, canonical_probe_basis(2, 0.0), run, stream.child(_RECON_CHILD)
    )
    # direct stage 4 probes x 3 settings, joint stage 9 settings, plus the
    # reported reconstruction at 12 settings
    samples = (12 + 9 + 12) * shots
    return verdict, samples, {"choi": _flat_complex(recon.normalized_choi())}


def _run_qrac(scenario, spec, params, stream):
    pair = scenario.build_pair(params)
    rounds = spec.settings["rounds"]
    result = qrac_fidelity_estimate(pair, rounds, stream)
    verdict = qrac_verdict(result)
    return verdict, rounds, {}


def _run_nsq_survey(scenario, spec, params, stream):
    s = spec.settings
    verdict = nsq_random_survey(
        s["n_samples"],
        s["local_dims"],
        stream,
        env_dim=s["env_dim"],
        product_channels=s["product_channels"],
    )
    return verdict, s["n_samples"], {}


def _run_composition_gap(scenario, spec, params, stream):
    first = scenario.build_box(params)
    second = scenario.build_second_box(spec.settings["second_box"], params)
    shots = spec.settings["shots"]
    probe = PureState.from_bloch(spec.settings["probe_theta"], 0.0)
    composed_output = compose_boxes(first, second).ensemble_output_density(probe, params)
    staged_output = concatenate_tests(first, second, probe, params, shots=shots, rng=stream)
    statistic = trace_distance(composed_output, staged_output)
    # the 0.05 margin dominates tomography error at any sane shot budget,
    # so the gap statistic carries no separate error bar
    verdict = decide(statistic, 0.05, 0.0, shots)
    recon = {
        "composed_output": _flat_complex(composed_output.matrix),
        "staged_output": _flat_complex(staged_output.matrix),
    }
    return verdict, 2 * 3 * shots, recon


_RUNNERS = {
    "helstrom": _run_helstrom,
    "ensemble-signalling": _run_ensemble_signalling,
    "basis-invariance": _run_basis_invariance,
    "ancilla-consistency": _run_ancilla_consistency,
    "qrac": _run_qrac,
    "nsq-survey": _run_nsq_survey,
    "composition-gap": _run_composition_gap,
}


def _execute_one(scenario: Scenario, cell_index: int, det_index: int, seed: int) -> dict:
    spec = scenario.detectors[det_index]
    params = scenario.grid[cell_index]
    stream = RngStream(seed, mix64(cell_index, det_index))
    record: dict = {"detector": spec.name}
    try:
        verdict, samples, recon = _RUNNERS[spec.name](scenario, spec, params, stream)
        record["verdict"] = _verdict_dict(verdict)
        record["samples"] = int(samples)
        if recon:
            record["reconstructions"] = recon
    except Exception as exc:  # crash isolation: record, never propagate
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["samples"] = 0
    return record


def run_scenario(scenario: Scenario, threads: int = 1, seed: int | None = None) -> dict:
    """Execute the scenario and assemble the report document.

    The report is a pure function of (scenario, effective seed, package
    version) except for the provenance timestamp; thread count only changes
    wall-clock time.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    effective_seed = scenario.master_seed if seed is None else seed
    n_det = len(scenario.detectors)
    jobs = [
        (cell_index, det_index)
        for cell_index in range(len(scenario.grid))
        for det_index in range(n_det)
    ]
    slots: list = [None] * len(jobs)

    def work(flat_index: int) -> None:
        cell_index, det_index = jobs[flat_index]
        slots[flat_index] = _execute_one(scenario, cell_index, det_index, effective_seed)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, range(len(jobs))))

    cells = []
    for cell_index, params in enumerate(scenario.grid):
        results = [slots[cell_index * n_det + d] for d in range(n_det)]
        cells.append(
            {
                "cell_index": cell_index,
                "params": _params_dict(params),
                "results": results,
                "samples": sum(r["samples"] for r in results),
            }
        )

    counts: dict = {}
    errors = 0
    for cell in cells:
        for result in cell["results"]:
            per = counts.setdefault(result["detector"], {})
            if "error" in result:
                errors += 1
                per["error"] = per.get("error", 0) + 1
            else:
                verdict = result["verdict"]["verdict"]
                per[verdict] = per.get(verdict, 0) + 1

    timestamp = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario.raw,
        "provenance": {
            "seed": effective_seed,
            "version": __version__,
            "timestamp": timestamp,
        },
        "cells": cells,
        "summary": {
            "verdict_counts": counts,
            "total_samples": sum(c["samples"] for c in cells),
            "cell_count": len(cells),
            "error_count": errors,
        },
    }


def dump_report(report: dict, fh) -> None:
    """Serialize a report as strict JSON (sorted keys, fixed layout).

    Raises ValueError rather than write NaN or Infinity, which are not JSON.
    """
    json.dump(report, fh, sort_keys=True, indent=2, allow_nan=False)
    fh.write("\n")


def write_report(report: dict, path) -> None:
    """Write a report file with :func:`dump_report`."""
    with open(path, "w", encoding="utf-8") as fh:
        dump_report(report, fh)


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not valid JSON")


def load_report(path) -> dict:
    """Read a report file; NaN and Infinity are rejected (ValueError)."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def summarize_report(report: dict) -> str:
    """Human-readable digest of a report document."""
    lines = []
    scenario_name = report.get("scenario", {}).get("name", "<unnamed>")
    prov = report.get("provenance", {})
    lines.append(f"scenario: {scenario_name}")
    lines.append(
        "seed: {}  version: {}  timestamp: {}".format(
            prov.get("seed"), prov.get("version"), prov.get("timestamp")
        )
    )
    summary = report.get("summary", {})
    lines.append(
        "cells: {}  samples: {}  errors: {}".format(
            summary.get("cell_count"), summary.get("total_samples"), summary.get("error_count")
        )
    )
    for detector, per in sorted(summary.get("verdict_counts", {}).items()):
        tally = "  ".join(f"{k}={per[k]}" for k in sorted(per))
        lines.append(f"  {detector}: {tally}")
    return "\n".join(lines)
