"""Per-layer metrics from a traced run.

Layers are qdata's modules.  Every figure comes from the spans the
workload itself recorded.  A per-call time or self time of a layer the
workload never enters (tomography under ``pair-mc``, for instance) reads 0,
so a change to that layer cannot move that workload's figures.
"""

from __future__ import annotations

import os
import statistics
from collections import Counter, defaultdict

from tracer import layer_of, self_times, uncovered_share

# metric name -> traced span name, for call counts
COUNTS = {
    "rng.streams": "rng.RngStream.__post_init__",
    "states.density_matrices": "states.DensityMatrix.__post_init__",
    "states.pure_states": "states.PureState.__post_init__",
    "states.born_calls": "states.born_probabilities",
    "linalg.hermitian_basis_calls": "linalg.hermitian_basis",
    "linalg.eig_calls": "linalg.eig_hermitian",
    "channels.apply_calls": "channels.QuantumChannel.apply",
    "tomography.state_calls": "tomography.state_tomography",
    "tomography.process_direct_calls": "tomography.process_tomography_direct",
    "tomography.process_ancilla_calls": "tomography.process_tomography_ancilla",
    "tomography.run_constructions": "tomography.TomographyRun.__post_init__",
}

# metric name -> (span name, "*" matching any class; span tag or None), median µs per call
PER_CALL_US = {
    "rng.child_us": ("rng.RngStream.child", None),
    "states.pure_us": ("states.PureState.__post_init__", None),
    "states.density_us": ("states.DensityMatrix.__post_init__", None),
    "states.born_us": ("states.born_probabilities", None),
    "channels.compose_us": ("channels.QuantumChannel.compose", None),
    "channels.random_channel_us": ("channels.random_channel", None),
    "boxes.ensemble_output_us": ("boxes.*.ensemble_output_density", None),
    "tomography.state_us.q1": ("tomography.state_tomography", "q1"),
    "tomography.state_us.q2": ("tomography.state_tomography", "q2"),
    "tomography.process_direct_us": ("tomography.process_tomography_direct", None),
    "tomography.process_ancilla_us": ("tomography.process_tomography_ancilla", None),
    "detectors.nsq_scan_us": ("detectors.nsq_signalling_measure", None),
}

LAYERS = ("rng", "states", "linalg", "channels", "boxes", "tomography", "detectors", "harness")


def _matches(pattern: str, name: str) -> bool:
    if "*" not in pattern:
        return name == pattern
    head, tail = pattern.split("*")
    return name.startswith(head) and name.endswith(tail)


def _durations(spans, pattern, tag=None) -> list:
    return [
        end - start
        for _sid, name, start, end, _parent, span_tag in spans
        if _matches(pattern, name) and (tag is None or span_tag == tag)
    ]


def _median_us(values) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


def _calibrations(spans) -> dict:
    """Per budget key: durations of computing calls and of cache-hit calls."""
    by_key: dict = defaultdict(lambda: ([], []))
    for _sid, name, start, end, _parent, tag in spans:
        if name == "detectors._calibrated_null":
            key, evaluated = tag
            by_key[key][0 if evaluated else 1].append(end - start)
    return by_key


def calibration_cost(spans) -> float:
    """Median over keys of the first computing call minus a cache-hit call."""
    costs = [
        cold[0] - (statistics.median(warm) if warm else 0.0)
        for cold, warm in _calibrations(spans).values()
        if cold
    ]
    return statistics.median(costs) if costs else 0.0


def calibration_duplicates(spans) -> int:
    """Calibrations computed again for a key that was already being computed."""
    return sum(max(0, len(cold) - 1) for cold, _warm in _calibrations(spans).values())


def _qrac_round_us(spans) -> float:
    per_round = [
        (end - start) / tag
        for _sid, name, start, end, _parent, tag in spans
        if name == "detectors.qrac_fidelity_estimate"
    ]
    return _median_us(per_round)


def _layer_self(spans, self_of) -> dict:
    totals: dict = defaultdict(float)
    for sid, name, *_rest in spans:
        totals[layer_of(name)] += self_of[sid]
    return totals


def _p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def summarize(tracer, reports) -> dict:
    """Counts, per-call medians and self times for one traced process."""
    spans = tracer.spans
    calls = Counter(name for _sid, name, *_rest in spans)

    metrics: dict = {key: calls[span_name] for key, span_name in COUNTS.items()}
    metrics["boxes.ensemble_output_calls"] = sum(
        n for name, n in calls.items() if _matches("boxes.*.ensemble_output_density", name)
    )
    metrics["scenario.build_calls"] = sum(
        calls[f"scenario.Scenario.{m}"] for m in ("build_box", "build_pair", "build_second_box")
    )

    for key, (pattern, tag) in PER_CALL_US.items():
        metrics[key] = _median_us(_durations(spans, pattern, tag))
    metrics["detectors.qrac_round_us"] = _qrac_round_us(spans)
    metrics["detectors.calibration_s"] = calibration_cost(spans)
    metrics["detectors.calibration_dup_calls"] = calibration_duplicates(spans)

    jobs = _durations(spans, "harness._execute_one")
    metrics["detectors.job_us.p50"] = statistics.median(jobs) * 1e6
    metrics["detectors.job_us.p90"] = _p90(jobs) * 1e6

    own = _layer_self(spans, self_times(spans))
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = own.get(layer, 0.0)

    metrics["scenario.parse_s"] = sum(_durations(spans, "scenario.parse_scenario"))
    metrics["harness.run_s"] = sum(_durations(spans, "harness.run_scenario"))
    metrics["harness.write_s"] = sum(_durations(spans, "harness.write_report"))
    metrics["harness.report_bytes"] = sum(os.path.getsize(p) for p in reports)
    metrics["trace.unattributed_share"] = uncovered_share(spans, "harness.run_scenario")
    return {"metrics": metrics, "calls": dict(sorted(calls.items())), "spans": len(spans)}
