"""Densities wrapped by construction, without the eigensolve of ``check_densities``.

``PureState.density``, ``Ensemble.density``, the weighted branch sums of
``states._mixtures`` (every non-linear box output and every entangled-probe
output, of one box alone or stacked by ``output_densities``) and
``state_tomography`` skip the full check; these oracles put their outputs
through it over seeded inputs, and pin how many densities a sweep cell still
checks in full.
"""

import copy
import itertools
import math

import numpy as np
import pytest

from qdata import (
    CollapseNonlinear,
    ComposedBox,
    DensityMatrix,
    Ensemble,
    LinearBox,
    NonlinearBloch,
    PureState,
    RngStream,
    TomographyRun,
    max_entangled,
    minus_state,
    parse_scenario_dict,
    plus_state,
    random_channel,
    rotation_y,
    run_scenario,
    state_tomography,
)
from qdata import boxes, states
from qdata.states import check_densities
from qdata.tomography import _raw_estimate

KAPPAS = (0.3, 1.0, 2.0, 4.0, 7.5)
ROTATIONS = (0.0, 0.7, 2.1, math.pi)


def _checked(rho) -> None:
    assert isinstance(rho, DensityMatrix)
    check_densities(rho.matrix)


def _haar(dim: int, seed: int, i: int) -> PureState:
    return PureState.haar(dim, RngStream(seed, i))


def _ensemble(seed: int, size: int) -> Ensemble:
    w = RngStream(seed, 1000).generator.random(size)
    return Ensemble(tuple(w / w.sum()), tuple(_haar(2, seed, i) for i in range(size)))


def _boxes(seed: int) -> list:
    """Linear, warped and collapsing qubit boxes, plus 2- to 4-stage chains of them."""
    linear = [LinearBox(random_channel(2, 2, RngStream(seed, 2000 + i))) for i in range(2)]
    warped = [
        NonlinearBloch(kappa, pre_unitary=rotation_y(a), post_unitary=rotation_y(-2 * a))
        for kappa, a in itertools.product(KAPPAS, ROTATIONS)
    ]
    haar_basis = np.linalg.qr(_haar(2, seed, 3000).vector[:, None], mode="complete")[0].T
    collapse = [
        CollapseNonlinear((plus_state(), minus_state()), 3.0, pre_unitary=rotation_y(0.4)),
        CollapseNonlinear(tuple(PureState(v) for v in haar_basis), 0.5),
    ]
    gen = RngStream(seed, 4000).generator
    pool = linear + warped + collapse
    # each chain starts with a warp; its later stages come from the whole pool
    chains = [
        ComposedBox([warped[i], *(pool[k] for k in gen.integers(len(pool), size=n - 1))])
        for i, n in zip(gen.integers(len(warped), size=4), (2, 3, 4, 4))
    ]
    return pool + chains


@pytest.mark.parametrize("seed", [1, 2])
def test_pure_and_ensemble_densities_pass_the_full_check(seed):
    for i in range(8):
        _checked(_haar(1 + i % 4, seed, i).density())
        _checked(_ensemble(seed + 10 * i, 1 + i % 5).density())
    _checked(max_entangled(3).density())


@pytest.mark.parametrize("seed", [1, 2])
def test_box_outputs_pass_the_full_check(seed):
    inputs = [_haar(2, seed, 100 + i) for i in range(3)] + [plus_state()]
    ensembles = [_ensemble(seed, 3), _ensemble(seed + 1, 2)]
    probes = [max_entangled(2)] + [_haar(2 * r, seed, 200 + r) for r in (1, 2, 3)]
    for box in _boxes(seed):
        for source in inputs + ensembles:
            _checked(box.ensemble_output_density(source))
        # a density input goes through its eigen-ensemble
        _checked(box.ensemble_output_density(ensembles[0].density()))
        for joint in probes:
            _checked(box.probe_with_reference(joint))


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_projected_tomography_estimates_pass_the_full_check(n_qubits):
    run_sources = [_haar(2**n_qubits, 5, i).density() for i in range(4)]
    run_sources.append(DensityMatrix(np.eye(2**n_qubits) / 2**n_qubits))
    most_negative = 0.0
    for shots in (1, 3, 10):
        run = TomographyRun(shots, n_qubits)
        for k, source in enumerate(run_sources):
            raw = _raw_estimate(source, run, RngStream(6, 10 * shots + k))
            most_negative = min(most_negative, np.linalg.eigvalsh(raw).min())
            _checked(state_tomography(source, run, RngStream(6, 10 * shots + k)))
    # the projection has work to do: some raw estimates are far from positive
    assert most_negative < -0.3


SECOND_BOX = {"family": "linear", "channel": {"kind": "dephasing", "p": 0.3}}
SWEEP_CELL = {
    "parameter_grid": [{}],
    "detectors": [
        {"name": "helstrom", "settings": {"trials": 500}},
        {"name": "ensemble-signalling"},
        {"name": "composition-gap", "settings": {"second_box": SECOND_BOX, "shots": 200}},
    ],
    "master_seed": 3,
}
NONLINEAR_CELL = {
    "name": "one-nonlinear-cell",
    "box": {"family": "nonlinear-bloch", "kappa": 2.0, "pre_rotation_y": 0.3},
    **SWEEP_CELL,
}
LINEAR_CELL = {
    "name": "one-linear-cell",
    "box": {"family": "linear", "channel": {"kind": "amplitude-damping", "gamma": 0.4}},
    **SWEEP_CELL,
}


@pytest.mark.parametrize(
    "doc, full_checks",
    # nonlinear: the second box's channel output; linear: 2 helstrom, 2 ensemble
    # and 3 composition-gap channel outputs
    [(NONLINEAR_CELL, 1), (LINEAR_CELL, 7)],
    ids=["nonlinear-bloch", "linear"],
)
def test_a_sweep_cell_checks_only_the_densities_that_enter_it(monkeypatch, doc, full_checks):
    scenario = parse_scenario_dict(copy.deepcopy(doc))
    checked = []
    check = states.check_densities

    def counting(m):
        # a stack of densities, as the box layer checks its outputs, counts each matrix
        checked.append(m.size // m.shape[-1] ** 2)
        return check(m)

    for module in (states, boxes):
        monkeypatch.setattr(module, "check_densities", counting)
    report = run_scenario(scenario)
    results = report["cells"][0]["results"]
    assert [r.get("error") for r in results] == [None] * 3
    assert sum(checked) == full_checks
