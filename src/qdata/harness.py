"""Scenario execution: grid sweeps, detector suites, reproducible reports.

A grid cell is the unit of work: it runs its detectors in order and builds
its model once, when a detector first needs it (a build that raises fails
each job that needs it).  One thread runs the cells inline; more share them
through a pool.  Each (cell, detector) job draws from its own stream, a
stable 64-bit mix of (master seed, cell index, detector index), so reports
are byte-identical for any thread count and order.  A job records its
verdict, its evidence and its stream's sample tally.  A failing job is
recorded in place; the others complete.  Reports are strict JSON with
sorted keys, complex matrices flattened row-major as [re, im] pairs,
non-finite numbers (an undefined standard error) as null, and a schema
version that bumps on any breaking change.
"""

from __future__ import annotations

import datetime as _dt
import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._version import __version__
from .detectors import TestVerdict
from .rng import RngStream, mix64
from .scenario import Scenario

__all__ = [
    "SCHEMA_VERSION",
    "run_scenario",
    "dump_report",
    "write_report",
    "load_report",
    "summarize_report",
]

SCHEMA_VERSION = 2


def _json_safe(value):
    """Plain JSON values; a NaN or infinite float becomes None (null), a matrix {shape, data}."""
    if isinstance(value, np.ndarray):
        flat = value.astype(complex).reshape(-1).tolist()
        return {"shape": list(value.shape), "data": [[z.real, z.imag] for z in flat]}
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
    # every field of the verdict but its evidence; absent extras are written as an empty object
    fields = {**vars(v), "extras": v.extras or {}}
    del fields["reconstructions"]
    return _json_safe(fields)


def _execute_one(scenario: Scenario, cell_index: int, det_index: int, seed: int, build) -> dict:
    stream = RngStream(seed, mix64(cell_index, det_index))
    record: dict = {"detector": scenario.detectors[det_index].name}
    try:
        verdict = scenario.run_job(cell_index, det_index, stream, build)
        record["verdict"] = _verdict_dict(verdict)
        record["samples"] = stream.samples
        if verdict.reconstructions:
            record["reconstructions"] = _json_safe(verdict.reconstructions)
    except Exception as exc:  # crash isolation: record, never propagate
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["samples"] = 0
    return record


def _run_cell(scenario: Scenario, seed: int, cell_index: int) -> dict:
    """One cell's report entry; its detectors share one model, built when first needed."""
    params = scenario.grid[cell_index]
    build = functools.cache(functools.partial(scenario.build, params))
    results = [
        _execute_one(scenario, cell_index, d, seed, build) for d in range(len(scenario.detectors))
    ]
    samples = sum(r["samples"] for r in results)
    return {"cell_index": cell_index, "params": params, "results": results, "samples": samples}


def run_scenario(scenario: Scenario, threads: int = 1, seed: int | None = None) -> dict:
    """Execute the scenario and assemble the report document.

    The report is a pure function of (scenario, effective seed, package
    version) except for the provenance timestamp; thread count only changes
    wall-clock time.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    effective_seed = scenario.master_seed if seed is None else seed
    run_cell = functools.partial(_run_cell, scenario, effective_seed)
    if threads == 1:
        cells = list(map(run_cell, range(len(scenario.grid))))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            cells = list(pool.map(run_cell, range(len(scenario.grid))))
    records = [record for cell in cells for record in cell["results"]]

    counts: dict = {}
    for record in records:
        per = counts.setdefault(record["detector"], {})
        outcome = "error" if "error" in record else record["verdict"]["verdict"]
        per[outcome] = per.get(outcome, 0) + 1

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
            "error_count": sum("error" in record for record in records),
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
    """Read a report file; ValueError on NaN, Infinity or a document that is not a report."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh, parse_constant=_reject_constant)
    if not isinstance(report, dict) or report.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"expected an object with schema_version {SCHEMA_VERSION}")
    return report


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
