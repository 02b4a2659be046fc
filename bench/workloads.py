"""The benchmark's workloads: scenario documents and the checks on their reports.

Each workload is a list of scenario documents that one ``qdata run`` per
document executes back to back.  The seed given to the benchmark becomes
both the documents' ``master_seed`` and the ``--seed`` override, so one seed
fixes every input.  Grids and budgets are fixed; only the random draws move
with the seed.

Why these three:

* ``pair-mc``: per-round Monte Carlo (a stream, Haar draws, state
  validation and Born sampling per QRAC round) plus the no-signalling
  survey's random channels and kernel scans.  No tomography, no
  calibration.
* ``tomography-grid``: a three-cell kappa grid through both
  tomography-based detectors at one shot budget.  Cold runs are dominated
  by null calibration (50 process tomographies per budget key); warm runs
  by design-matrix rebuilds and linear inversion.
* ``exact-sweep``: hundreds of cells of exact and light detectors over one
  nonlinear-bloch and one linear-box scenario, so harness dispatch, box
  building, branch enumeration, ``QuantumChannel.compose``, many small
  one-qubit reconstructions and report serialization dominate.
"""

from __future__ import annotations

import math

# Null calibration replications per budget key (``detectors.NULL_REPLICATIONS``).
NULL_REPLICATIONS = 50
DEFAULT_DELTAS = 3  # basis-invariance default rotations: 0, pi/5, pi/3

QRAC_ORACLE_ROUNDS = 2500
QRAC_MP_ROUNDS = 2500
NSQ_SAMPLES = 60
TOMO_KAPPAS = [1, 2, 4]
TOMO_SHOTS = 4000
SWEEP_KAPPAS = [1, 1.25, 1.5, 1.75, 2, 2.5, 3, 3.5, 4, 5]
SWEEP_ROTATIONS = [round(k * math.pi / 28, 12) for k in range(15)]
SWEEP_GAMMAS = [round(k / 149, 12) for k in range(150)]
SWEEP_TRIALS = 20000
SWEEP_SHOTS = 2048


def _pair_mc(seed: int) -> list:
    return [
        {
            "name": "bench-qrac-oracle",
            "pair": {"family": "qrac-oracle"},
            "parameter_grid": [{}],
            "detectors": [{"name": "qrac", "settings": {"rounds": QRAC_ORACLE_ROUNDS}}],
            "master_seed": seed,
        },
        {
            "name": "bench-qrac-measure-prepare",
            "pair": {"family": "qrac-measure-prepare"},
            "parameter_grid": [{}],
            "detectors": [{"name": "qrac", "settings": {"rounds": QRAC_MP_ROUNDS}}],
            "master_seed": seed,
        },
        {
            "name": "bench-nsq-survey",
            "pair": {"family": "nsq-channel", "channel": {"kind": "swap"}, "local_dims": [2, 2]},
            "parameter_grid": [{}],
            "detectors": [
                {"name": "nsq-survey", "settings": {"n_samples": NSQ_SAMPLES, "env_dim": 16}}
            ],
            "master_seed": seed,
        },
    ]


def _tomography_grid(seed: int) -> list:
    return [
        {
            "name": "bench-tomography-grid",
            "box": {"family": "nonlinear-bloch", "kappa": {"param": "kappa"}},
            "parameter_grid": {"kappa": TOMO_KAPPAS},
            "detectors": [
                {"name": "basis-invariance", "settings": {"shots": TOMO_SHOTS}},
                {"name": "ancilla-consistency", "settings": {"shots": TOMO_SHOTS}},
            ],
            "master_seed": seed,
        }
    ]


def _sweep_detectors(second_box: dict) -> list:
    return [
        {"name": "helstrom", "settings": {"trials": SWEEP_TRIALS}},
        {"name": "ensemble-signalling"},
        {
            "name": "composition-gap",
            "settings": {"second_box": second_box, "shots": SWEEP_SHOTS},
        },
    ]


def _exact_sweep(seed: int) -> list:
    second = {"family": "linear", "channel": {"kind": "dephasing", "p": 0.3}}
    return [
        {
            "name": "bench-sweep-nonlinear",
            "box": {
                "family": "nonlinear-bloch",
                "kappa": {"param": "kappa"},
                "pre_rotation_y": {"param": "rot"},
            },
            "parameter_grid": {"kappa": SWEEP_KAPPAS, "rot": SWEEP_ROTATIONS},
            "detectors": _sweep_detectors(second),
            "master_seed": seed,
        },
        {
            "name": "bench-sweep-linear",
            "box": {
                "family": "linear",
                "channel": {"kind": "amplitude-damping", "gamma": {"param": "gamma"}},
            },
            "parameter_grid": {"gamma": SWEEP_GAMMAS},
            "detectors": _sweep_detectors(second),
            "master_seed": seed,
        },
    ]


WORKLOADS = {
    "pair-mc": _pair_mc,
    "tomography-grid": _tomography_grid,
    "exact-sweep": _exact_sweep,
}


# ---------------------------------------------------------------------------
# correctness checks on one run's reports


def _expect(cells, detector, where, verdicts, label) -> list:
    """Problems for cells matching ``where`` whose verdict is not in ``verdicts``."""
    problems = []
    for params, results in cells:
        if not where(params):
            continue
        for name, verdict in results:
            if name == detector and verdict not in verdicts:
                problems.append(f"{label}: {params} gave {verdict}")
    return problems


def frozen_verdict_problems(workload: str, index: int, cells: list) -> list:
    """Verdicts for cells well clear of their threshold, frozen per workload.

    ``cells`` is ``[(params, [(detector, verdict), ...]), ...]`` for the
    workload's ``index``-th scenario.  Only seed-independent outcomes are
    frozen: the kappa=1 basis-invariance cell is the identity box measured
    against its own null, so it may read inconclusive but never
    post-quantum; ensemble-signalling is exact, so its verdicts never move.
    """
    always = lambda params: True  # noqa: E731
    if workload == "pair-mc" and index == 0:
        return _expect(cells, "qrac", always, {"post-quantum"}, "qrac-oracle")
    if workload == "pair-mc" and index == 1:
        return _expect(cells, "qrac", always, {"quantum-consistent"}, "qrac-measure-prepare")
    if workload == "tomography-grid":
        return _expect(
            cells, "basis-invariance", lambda p: p["kappa"] == 1,
            {"quantum-consistent", "inconclusive"}, "identity basis-invariance",
        ) + _expect(
            cells, "basis-invariance", lambda p: p["kappa"] == 4,
            {"post-quantum"}, "kappa=4 basis-invariance",
        )
    if workload == "exact-sweep" and index == 0:
        # a quarter turn swaps the z and x halves of the maximally mixed
        # state, so the two ensembles stay indistinguishable at any kappa
        unwarped = lambda p: (  # noqa: E731
            p["kappa"] == 1 or p["rot"] == 0 or abs(p["rot"] - math.pi / 2) < 1e-9
        )
        return _expect(
            cells, "ensemble-signalling", unwarped, {"quantum-consistent"}, "unwarped cell"
        ) + _expect(
            cells, "ensemble-signalling", lambda p: not unwarped(p),
            {"post-quantum"}, "warped cell",
        )
    if workload == "exact-sweep" and index == 1:
        return _expect(
            cells, "ensemble-signalling", always, {"quantum-consistent"}, "linear box"
        )
    return []


def closed_form_counts(workload: str) -> dict:
    """Exact 1-thread call counts a fresh process must reproduce.

    basis-invariance reconstructs once per rotation and once more for the
    report; ancilla-consistency reconstructs directly once and once more for
    the report; each budget key's calibration repeats its statistic 50 times.
    """
    if workload != "tomography-grid":
        return {}
    cells = len(TOMO_KAPPAS)
    deltas = DEFAULT_DELTAS
    return {
        "tomography.process_tomography_direct": cells * (deltas + 1)
        + NULL_REPLICATIONS * deltas
        + 2 * cells
        + NULL_REPLICATIONS,
        "tomography.process_tomography_ancilla": cells + NULL_REPLICATIONS,
    }
