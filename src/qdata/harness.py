"""Scenario execution: grid sweeps, detector suites, reproducible reports.

A block of ``CELL_BLOCK`` consecutive grid cells is the unit of work (one
cell when every detector's settings bind a grid parameter).  If a detector
needs a model, the block builds its cells' models first, in one call
(:meth:`Scenario.build_stack`), each cell's once; a cell whose build raises
fails each job that needs it and joins no stack.  Every detector rules on
a stack of cells in one call: a detector whose settings bind no grid
parameter on the whole block, one whose settings do on each cell alone.
Then every (cell, detector) job gets its record, in grid order, made from
the verdict's plain values.  One thread runs the blocks inline, in grid
order; more share them through a pool.  Each job draws from its own
stream, a stable 64-bit mix of (master seed, cell index, detector index),
and a stack's cells each keep theirs, so reports are byte-identical for
any thread count, order and block.  A job records its verdict, its
evidence and its stream's sample tally.  A failing job is recorded in
place and the others complete: a detector that rules cell by cell hands
back a failing cell's error in its place, and a stack of several cells
that raises is run again one cell at a time, so each job records its own
error.  Reports are strict JSON with sorted keys, complex matrices
flattened row-major as [re, im] pairs, non-finite numbers (an undefined
standard error) as null, and a schema version that bumps on any breaking
change.  A report file is an indented header, one line per grid cell, and
the other sections indented.
``diff_reports`` lists what differs between two reports besides the
timestamp.
"""

from __future__ import annotations

import datetime as _dt
import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor

from ._version import __version__
from .detectors import TestVerdict
from .linalg import as_integer, as_seed
from .rng import RngStream, mix64
from .scenario import Scenario

__all__ = [
    "SCHEMA_VERSION",
    "run_scenario",
    "dump_report",
    "write_report",
    "load_report",
    "summarize_report",
    "diff_reports",
]

SCHEMA_VERSION = 2

# Grid cells per block.  It bounds how many cells' models are alive at once
# and how many cells a detector rules on in one call.
CELL_BLOCK = 64


def _json_safe(matrices: dict) -> dict:
    """Each matrix of ``matrices`` as {shape, data}, its entries row-major as [re, im] pairs."""
    out = {}
    for name, m in matrices.items():
        flat = m.astype(complex).reshape(-1).tolist()
        out[name] = {"shape": list(m.shape), "data": [[z.real, z.imag] for z in flat]}
    return out


def _finite_or_none(x: float):
    return x if math.isfinite(x) else None


def _verdict_dict(v: TestVerdict) -> dict:
    """Every field of the verdict but its evidence, a non-finite number as None (null) and
    absent extras as an empty object; the verdict's values are plain already."""
    return {
        "statistic": _finite_or_none(v.statistic),
        "threshold": _finite_or_none(v.threshold),
        "std_error": _finite_or_none(v.std_error),
        "n_trials": v.n_trials,
        "verdict": v.verdict,
        "extras": v.extras or {},
    }


def _execute_one(scenario: Scenario, cell_index: int, det_index: int, stream, outcome) -> dict:
    """The record of job (cell_index, det_index): its ``outcome``, a verdict drawn from the
    RngStream ``stream``, or the exception its ruling raised (recorded, never raised)."""
    record: dict = {"detector": scenario.detectors[det_index].name}
    if isinstance(outcome, Exception):
        record["error"] = f"{type(outcome).__name__}: {outcome}"
        record["samples"] = 0
        return record
    record["verdict"] = _verdict_dict(outcome)
    record["samples"] = stream.samples
    if outcome.reconstructions:
        record["reconstructions"] = _json_safe(outcome.reconstructions)
    return record


def _rule(scenario: Scenario, seed: int, det_index: int, cells: list, models: dict) -> dict:
    """``{cell: (stream, outcome)}`` of one detector on a stack of ``cells``, each on its own stream.

    A stack of several cells that raises is run again one cell at a time,
    on fresh streams, so each job records its own verdict or error.
    """
    streams = [RngStream(seed, mix64(cell, det_index)) for cell in cells]
    try:
        outcomes = scenario.run_stack(cells, det_index, streams, [models.get(cell) for cell in cells])
    except Exception as exc:
        if len(cells) == 1:
            outcomes = [exc]
        else:
            return {cell: _rule(scenario, seed, det_index, [cell], models)[cell] for cell in cells}
    return dict(zip(cells, zip(streams, outcomes)))


def _run_block(scenario: Scenario, seed: int, block: int, start: int) -> list:
    """The report entries of ``block`` cells from ``start``; each cell's detectors share one model.

    When a detector needs one, the cells' models are built first, as one
    stack (:meth:`Scenario.build_stack`); a cell whose build raises records
    that error in each job that needs the model and joins no stack.  Then
    each detector rules: one of
    ``scenario.block_stacked`` on all the block's other cells in one stack,
    any other on each cell alone (:func:`_rule`).  Then every job's record
    is made, in grid order.
    """
    cells = range(start, min(start + block, len(scenario.grid)))
    models: dict = {}
    failed: dict = {}
    if any(spec.entry.needs for spec in scenario.detectors):
        built = scenario.build_stack([scenario.grid[cell] for cell in cells])
        for cell, model in zip(cells, built):
            # an error is recorded in each job that needs the model
            (failed if isinstance(model, Exception) else models)[cell] = model
    ruled = []
    for d, spec in enumerate(scenario.detectors):
        unbuilt = failed if spec.entry.needs else {}
        ready = [cell for cell in cells if cell not in unbuilt]
        outcomes = {cell: (None, exc) for cell, exc in unbuilt.items()}
        stacks = [ready] if scenario.block_stacked[d] else [[cell] for cell in ready]
        for stack in filter(None, stacks):
            outcomes.update(_rule(scenario, seed, d, stack, models if spec.entry.needs else {}))
        ruled.append(outcomes)
    entries = []
    for cell in cells:
        results = [_execute_one(scenario, cell, d, *outcomes[cell]) for d, outcomes in enumerate(ruled)]
        samples = sum(r["samples"] for r in results)
        entries.append(
            {"cell_index": cell, "params": scenario.grid[cell], "results": results, "samples": samples}
        )
    return entries


def run_scenario(scenario: Scenario, threads: int = 1, seed: int | None = None) -> dict:
    """Execute the scenario and assemble the report document.

    ``threads`` is an integer of at least 1 and ``seed``, which overrides
    the scenario's master seed, an integer in [0, 2**64); bools and floats
    are rejected with :class:`InvalidInputError` before any job runs.  The
    report is a pure function of (scenario, effective seed, package
    version) except for the provenance timestamp; thread count only changes
    wall-clock time.
    """
    threads = as_integer(threads, "threads", least=1)
    effective_seed = scenario.master_seed if seed is None else as_seed(seed)
    block = CELL_BLOCK if any(scenario.block_stacked) else 1
    run_block = functools.partial(_run_block, scenario, effective_seed, block)
    starts = range(0, len(scenario.grid), block)
    if threads == 1:
        blocks = list(map(run_block, starts))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(run_block, starts))
    cells = [cell for entries in blocks for cell in entries]
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


# CPython's C encoder runs only for a one-shot encode with no indent, so each
# cell goes through it alone; the rest of a report is small.
_encode_cell = json.JSONEncoder(sort_keys=True, allow_nan=False).encode
# no JSON string holds a line break, so this opens the top-level key alone
_CELLS = '\n  "cells": ['


def dump_report(report: dict, fh) -> None:
    """Serialize a report as strict JSON with sorted keys, in a fixed line layout.

    Each grid cell is one line, with sorted keys and the default separators
    (``"std_error": null``).  Everything else is laid out with an indent of
    2: a header that opens ``"cells": [``, the cell lines, then provenance,
    scenario, schema version and summary, indented.  The ``"timestamp"``
    line holds the timestamp alone.  The cells are written to ``fh`` one at
    a time.  Raises ValueError rather than write NaN or Infinity, which are
    not JSON.
    """
    rest = json.dumps({**report, "cells": []}, sort_keys=True, indent=2, allow_nan=False)
    head, tail = rest.split(_CELLS + "]")
    fh.write(head + _CELLS)
    separator = "\n    "
    for cell in report["cells"]:
        fh.write(separator + _encode_cell(cell))
        separator = ",\n    "
    fh.write("\n  ]" + tail + "\n")


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
    for section in ("scenario", "provenance", "summary"):
        if not isinstance(report.get(section, {}), dict):
            raise ValueError(f"{section} must be an object")
    counts = report.get("summary", {}).get("verdict_counts", {})
    if not isinstance(counts, dict) or not all(isinstance(c, dict) for c in counts.values()):
        raise ValueError("summary.verdict_counts must map each detector to an object")
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


# the timestamp is the one field two runs of a scenario may differ in
_NOT_COMPARED = "provenance.timestamp"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def diff_reports(a: dict, b: dict) -> list:
    """What differs between two reports, as findings ``(kind, where, before, after)``.

    ``where`` is a JSON path such as ``cells[1].results[0].verdict.verdict``,
    which names the cell and the job.  ``provenance.timestamp`` is ignored.
    The kinds:

    * ``"changed"``, in report order: a value that is not a number differs
      (a verdict label, a string, a list length, a type), or a key is
      present on one side only, the other side None (an added error entry);
    * ``"number"``: last and at most one, the largest absolute move over the
      numbers both reports hold at one JSON path, with that path.

    Numbers compare by value, so ``1`` and ``1.0`` agree.  Identical reports
    give an empty list.
    """
    findings: list = []
    moves: list = []

    def walk(x, y, path: str) -> None:
        if _is_number(x) and _is_number(y):
            if x != y:
                moves.append((abs(x - y), path, x, y))
        elif isinstance(x, dict) and isinstance(y, dict):
            for key in sorted(x.keys() | y.keys()):
                inner = f"{path}.{key}" if path else key
                if inner == _NOT_COMPARED:
                    continue
                if key in x and key in y:
                    walk(x[key], y[key], inner)
                else:
                    findings.append(("changed", inner, x.get(key), y.get(key)))
        elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
            for i, (u, v) in enumerate(zip(x, y)):
                walk(u, v, f"{path}[{i}]")
        elif x != y:
            findings.append(("changed", path, x, y))

    walk(a, b, "")
    if moves:
        _, path, x, y = max(moves, key=lambda move: move[0])
        findings.append(("number", path, x, y))
    return findings
