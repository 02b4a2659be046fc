"""Declarative scenario files: strict JSON schema, validation, model building.

A scenario names a box (or a box pair), a grid of classical parameter
cells, a detector suite with per-detector settings, and a master seed.
Parsing is strict: unknown keys, duplicate keys, malformed values and
references to undeclared grid parameters are all rejected with the failing
field's path.  Complex numbers appear in files as [re, im] pairs.

The vocabulary is declared once, one table each for channel kinds, box
families, pair families and detectors (see :class:`Entry`).  One routine
parses every entry's fields; one build step resolves ``{"param": name}``
references per grid cell.  A channel, box or pair spec that references no
parameter is built once, when it is parsed, and a failure to build it is
a parse error at its path.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .boxes import (
    CollapseNonlinear,
    ComposedBox,
    LinearBox,
    NonlinearBloch,
    NsqChannelPair,
    QracOracle,
    measure_prepare_strategy,
)
from .channels import QuantumChannel
from .detectors import (
    HelstromSetup,
    ancilla_consistency_test,
    basis_invariance_test,
    composition_gap_test,
    ensemble_signalling_test,
    helstrom_test,
    nsq_random_survey,
    qrac_fidelity_estimate,
    qrac_verdict,
)
from .linalg import rotation_y
from .states import PureState

__all__ = [
    "GRID_LIMIT",
    "REQUIRED",
    "ScenarioError",
    "Entry",
    "CHANNEL_KINDS",
    "BOX_FAMILIES",
    "PAIR_FAMILIES",
    "DETECTORS",
    "Scenario",
    "parse_scenario",
    "parse_scenario_dict",
]

GRID_LIMIT = 10_000

# the default of a key that must be given
REQUIRED = object()

# the two-qubit swap: the identity with its middle rows exchanged
_SWAP_GATE = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


class ScenarioError(Exception):
    """A scenario file failed parsing or schema validation."""


@dataclass(frozen=True)
class Entry:
    """One name of the scenario vocabulary.

    ``keys`` maps each accepted key to ``(field parser, default)``; the
    default is ``REQUIRED`` for a key that must be given.  ``make`` takes
    the fields resolved for one grid cell, nested specs built, as keyword
    arguments: it returns the model, or for a detector it is the test
    ``make(*model, rng=stream, **settings)`` that returns a TestVerdict.
    ``needs`` is the scenario kind whose model a detector runs on: "box",
    "pair", or None for a detector called with no model.
    """

    keys: dict
    make: Callable
    needs: str | None = None


@dataclass(frozen=True)
class _ParamRef:
    name: str


@dataclass(frozen=True)
class _Spec:
    """A parsed channel, box, pair or detector: its name, table entry and parsed fields."""

    name: str
    entry: Entry
    fields: dict


def _fail(where: str, message: str) -> None:
    raise ScenarioError(f"{where}: {message}")


def _check_keys(node: dict, required: tuple, optional, where: str) -> None:
    if not isinstance(node, dict):
        _fail(where, f"expected an object, got {type(node).__name__}")
    for key in node:
        if key not in required and key not in optional:
            _fail(f"{where}.{key}", "unknown key")
    for key in required:
        if key not in node:
            _fail(where, f"missing required key {key!r}")


# ---------------------------------------------------------------------------
# field parsers: (node, where) -> parsed value


def _finite(node, where: str) -> float:
    """A JSON number as a finite float; an integer beyond the float range fails too."""
    try:
        value = float(node)
    except OverflowError:
        _fail(where, "number is beyond the float range")
    if not math.isfinite(value):
        _fail(where, "number must be finite")
    return value


def _scalar(node, where: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        _fail(where, f"expected a number, got {type(node).__name__}")
    return _finite(node, where)


def _count(node, where: str, least: int = 1) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        _fail(where, f"expected an integer, got {type(node).__name__}")
    if node < least:
        _fail(where, f"must be at least {least}")
    if node > 2**63 - 1:
        _fail(where, "must be at most 2**63 - 1")
    return node


def _flag(node, where: str) -> bool:
    if not isinstance(node, bool):
        _fail(where, "expected a boolean")
    return node


def _scalar_or_ref(node, where: str):
    """A numeric leaf, or a {"param": name} reference into the grid."""
    if isinstance(node, dict):
        _check_keys(node, ("param",), (), where)
        if not isinstance(node["param"], str):
            _fail(f"{where}.param", "parameter name must be a string")
        return _ParamRef(node["param"])
    return _scalar(node, where)


def _complex_entry(node, where: str) -> complex:
    if (
        not isinstance(node, list)
        or len(node) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in node)
    ):
        _fail(where, "complex entries are [re, im] pairs")
    return complex(node[0], node[1])


def _complex_matrix(node, where: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        _fail(where, "expected a non-empty list of rows")
    width = None
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or not row:
            _fail(f"{where}[{i}]", "expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(f"{where}[{i}]", "ragged rows")
        rows.append([_complex_entry(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)])
    return np.array(rows, dtype=complex)


def _list_of(item, message: str, least: int = 1, most: int | None = None):
    """Parser of a list of ``item``s, ``least`` to ``most`` long, as a tuple."""

    def parse(node, where: str) -> tuple:
        if not isinstance(node, list) or len(node) < least or (most is not None and len(node) > most):
            _fail(where, message)
        return tuple(item(x, f"{where}[{i}]") for i, x in enumerate(node))

    return parse


def _basis(node, where: str) -> np.ndarray:
    return np.eye(2) if node == "computational" else _complex_matrix(node, where)


# a local dimension of 1 has no traceless direction for the kernel scan
_dims = _list_of(partial(_count, least=2), "expected [dim_a, dim_b]", least=2, most=2)
_number_pair = _list_of(_scalar, "expected a pair of numbers", least=2, most=2)


# ---------------------------------------------------------------------------
# the one parse routine and the one build routine


def _parse_fields(entry: Entry, node: dict, where: str, foreign: str) -> dict:
    """Check ``node``'s keys against ``entry`` and parse each accepted field."""
    for key in node:
        if key not in entry.keys:
            _fail(f"{where}.{key}", foreign)
    for key, (_, default) in entry.keys.items():
        if default is REQUIRED and key not in node:
            _fail(where, f"missing required key {key!r}")
    return {
        key: parse(node[key], f"{where}.{key}") if key in node else default
        for key, (parse, default) in entry.keys.items()
    }


def _parse_spec(table: dict, tag: str, what: str, node, where: str) -> _Spec:
    _check_keys(node, (tag,), set().union(*(e.keys for e in table.values())), where)
    name = node[tag]
    if not isinstance(name, str) or name not in table:
        _fail(f"{where}.{tag}", f"unknown {what} {name!r}")
    fields = {key: value for key, value in node.items() if key != tag}
    foreign = f"key not accepted by {what} {name!r}"
    spec = _Spec(name, table[name], _parse_fields(table[name], fields, where, foreign))
    if _collect_refs(spec):
        return spec
    # a constant spec is built, and so checked, once, here
    try:
        return _build(spec, {}, where)
    except ValueError as exc:
        _fail(where, str(exc))


def _channel(node, where: str) -> _Spec:
    return _parse_spec(CHANNEL_KINDS, "kind", "channel kind", node, where)


def _box(node, where: str) -> _Spec:
    return _parse_spec(BOX_FAMILIES, "family", "box family", node, where)


def _pair(node, where: str) -> _Spec:
    return _parse_spec(PAIR_FAMILIES, "family", "pair family", node, where)


def _build_value(value, params: dict, where: str):
    """``value`` for one grid cell; a model built at parse time passes through as is."""
    if isinstance(value, _ParamRef):
        bound = params.get(value.name)
        if bound is None or isinstance(bound, str):
            _fail(where, f"grid cell does not bind numeric parameter {value.name!r}")
        return float(bound)
    if isinstance(value, _Spec):
        return _build(value, params, where)
    if isinstance(value, tuple):
        return tuple(_build_value(v, params, f"{where}[{i}]") for i, v in enumerate(value))
    return value


def _build(spec: _Spec, params: dict, where: str):
    """Build a parsed spec for one grid cell, nested specs first."""
    fields = {key: _build_value(v, params, f"{where}.{key}") for key, v in spec.fields.items()}
    return spec.entry.make(**fields)


def _collect_refs(node) -> set:
    if isinstance(node, _ParamRef):
        return {node.name}
    if isinstance(node, _Spec):
        node = node.fields
    if isinstance(node, dict):
        node = tuple(node.values())
    if isinstance(node, (list, tuple)):
        return set().union(*(_collect_refs(v) for v in node))
    return set()


# ---------------------------------------------------------------------------
# channel kinds, box families and pair families


def _rotation(angle):
    return None if angle is None else rotation_y(angle)


def _collapse(kappa, pre_rotation_y, post_rotation_y, basis) -> CollapseNonlinear:
    return CollapseNonlinear(
        tuple(PureState(row) for row in basis),
        kappa=kappa,
        pre_unitary=_rotation(pre_rotation_y),
        post_unitary=_rotation(post_rotation_y),
    )


_REF = (_scalar_or_ref, REQUIRED)
_WARP_KEYS = {
    "kappa": (_scalar_or_ref, 1.0),
    "pre_rotation_y": (_scalar_or_ref, None),
    "post_rotation_y": (_scalar_or_ref, None),
}

CHANNEL_KINDS = {
    "identity": Entry({"dim": (_count, 2)}, lambda dim: QuantumChannel.identity(dim)),
    "depolarizing": Entry({"p": _REF}, lambda p: QuantumChannel.depolarizing(p)),
    "amplitude-damping": Entry({"gamma": _REF}, lambda gamma: QuantumChannel.amplitude_damping(gamma)),
    "dephasing": Entry({"p": _REF}, lambda p: QuantumChannel.dephasing(p)),
    "swap": Entry({}, lambda: QuantumChannel.from_unitary(_SWAP_GATE)),
    "unitary": Entry({"matrix": (_complex_matrix, REQUIRED)}, lambda matrix: QuantumChannel.from_unitary(matrix)),
    "kraus": Entry(
        {
            "operators": (_list_of(_complex_matrix, "expected a non-empty list of matrices"), REQUIRED),
            "dim_in": (_count, REQUIRED),
            "dim_out": (_count, REQUIRED),
        },
        lambda operators, dim_in, dim_out: QuantumChannel.from_kraus(operators, dim_in, dim_out),
    ),
}

BOX_FAMILIES = {
    "linear": Entry({"channel": (_channel, REQUIRED)}, LinearBox),
    "nonlinear-bloch": Entry(
        _WARP_KEYS,
        lambda kappa, pre_rotation_y, post_rotation_y: NonlinearBloch(
            kappa, _rotation(pre_rotation_y), _rotation(post_rotation_y)
        ),
    ),
    "collapse": Entry({**_WARP_KEYS, "basis": (_basis, np.eye(2))}, _collapse),
    "composed": Entry(
        {"stages": (_list_of(_box, "expected a list of at least two box specs", least=2), REQUIRED)},
        lambda stages: ComposedBox(stages),
    ),
}

PAIR_FAMILIES = {
    "qrac-oracle": Entry({}, QracOracle),
    "qrac-measure-prepare": Entry({}, lambda: measure_prepare_strategy()),
    "nsq-channel": Entry(
        {"channel": (_channel, REQUIRED), "local_dims": (_dims, REQUIRED)},
        lambda channel, local_dims: NsqChannelPair(channel, local_dims),
    ),
}


# ---------------------------------------------------------------------------
# detectors: each is a test of qdata.detectors


_helstrom_setups: dict = {}


def _helstrom_setup(thetas, priors) -> HelstromSetup:
    """The setup of a (thetas, priors) pair, built once and shared by its jobs."""
    key = tuple(float(x).hex() for x in (*thetas, *priors))  # hex keeps -0.0 apart
    setup = _helstrom_setups.get(key)
    if setup is None:
        t1, t2 = thetas
        states = (PureState.from_bloch(t1, 0.0), PureState.from_bloch(t2, 0.0))
        setup = _helstrom_setups.setdefault(key, HelstromSetup(priors, states))
    return setup


DETECTORS = {
    "helstrom": Entry(
        {
            "trials": (_count, 10_000),
            "thetas": (_number_pair, (math.pi / 2 - math.pi / 8, math.pi / 2 + math.pi / 8)),
            "priors": (_number_pair, (0.5, 0.5)),
        },
        lambda box, trials, thetas, priors, rng: helstrom_test(
            box, _helstrom_setup(thetas, priors), trials, rng=rng
        ),
        needs="box",
    ),
    "ensemble-signalling": Entry({}, ensemble_signalling_test, needs="box"),
    "basis-invariance": Entry(
        {
            "shots": (_count, 10_000),
            "deltas": (
                _list_of(_scalar, "expected a non-empty list of angles"),
                (0.0, math.pi / 5, math.pi / 3),
            ),
        },
        basis_invariance_test,
        needs="box",
    ),
    "ancilla-consistency": Entry({"shots": (_count, 10_000)}, ancilla_consistency_test, needs="box"),
    "qrac": Entry(
        {"rounds": (_count, 20_000)},
        lambda pair, rounds, rng: qrac_verdict(qrac_fidelity_estimate(pair, rounds, rng)),
        needs="pair",
    ),
    "nsq-survey": Entry(
        {
            "n_samples": (_count, 100),
            "local_dims": (_dims, (2, 2)),
            "env_dim": (lambda node, where: None if node is None else _count(node, where), None),
            "product_channels": (_flag, False),
        },
        nsq_random_survey,
    ),
    "composition-gap": Entry(
        {
            "second_box": (_box, REQUIRED),
            "probe_theta": (_scalar, 2 * math.pi / 3),
            "shots": (_count, 4096),
        },
        composition_gap_test,
        needs="box",
    ),
}


def _parse_detector(node, where: str) -> _Spec:
    _check_keys(node, ("name",), ("settings",), where)
    name = node["name"]
    if not isinstance(name, str) or name not in DETECTORS:
        _fail(f"{where}.name", f"unknown detector {name!r}")
    raw = node.get("settings", {})
    if not isinstance(raw, dict):
        _fail(f"{where}.settings", "expected an object")
    foreign = f"unknown setting for detector {name!r}"
    entry = DETECTORS[name]
    return _Spec(name, entry, _parse_fields(entry, raw, f"{where}.settings", foreign))


# ---------------------------------------------------------------------------
# the scenario itself


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: grid cells, detector suite, and a ``model`` of ``kind`` "box" or "pair".

    ``model`` is the parsed spec, or the built model itself when the spec
    references no grid parameter.
    """

    name: str
    master_seed: int
    grid: tuple
    detectors: tuple
    kind: str
    model: object
    raw: dict

    def build(self, params: dict):
        """The declared box or pair, built for one grid cell."""
        return _build_value(self.model, params, self.kind)

    def run_job(self, cell_index: int, det_index: int, stream, build):
        """One detector's verdict on one grid cell, on ``build()`` if it needs the cell's model.

        The detector draws from ``stream`` and adds the samples it draws to its tally.
        """
        spec = self.detectors[det_index]
        params = self.grid[cell_index]
        model = (build(),) if spec.entry.needs else ()
        settings = {key: _build_value(v, params, key) for key, v in spec.fields.items()}
        return spec.entry.make(*model, rng=stream, **settings)


def _grid_value(v, where: str) -> None:
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        _fail(where, "grid values are numbers or strings")
    if not isinstance(v, str):
        _finite(v, where)


def _parse_grid(node, where: str) -> tuple:
    """Grid cells as plain dicts; the cell count is checked before an axes grid expands."""
    if isinstance(node, dict):
        names = list(node)
        axes = []
        for name in names:
            values = node[name]
            if not isinstance(values, list) or not values:
                _fail(f"{where}.{name}", "expected a non-empty list of values")
            for i, v in enumerate(values):
                _grid_value(v, f"{where}.{name}[{i}]")
            axes.append(values)
        size = math.prod(len(values) for values in axes)
        cells = (dict(zip(names, combo)) for combo in itertools.product(*axes))
    elif isinstance(node, list):
        for i, cell in enumerate(node):
            if not isinstance(cell, dict):
                _fail(f"{where}[{i}]", "expected an object of parameter bindings")
            for key, v in cell.items():
                _grid_value(v, f"{where}[{i}].{key}")
        size = len(node)
        cells = node
    else:
        _fail(where, "expected an axes object or a list of cells")
    if not size:
        _fail(where, "the grid is empty")
    if size > GRID_LIMIT:
        _fail(where, f"grid has {size} cells, limit is {GRID_LIMIT}")
    return tuple(cells)


def parse_scenario_dict(data: dict, source: str = "scenario") -> Scenario:
    """Validate an already-decoded scenario document."""
    _check_keys(data, ("name", "parameter_grid", "detectors", "master_seed"), ("box", "pair"), source)
    if not isinstance(data["name"], str) or not data["name"]:
        _fail(f"{source}.name", "expected a non-empty string")
    seed = data["master_seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        _fail(f"{source}.master_seed", "expected a 64-bit unsigned integer")
    grid = _parse_grid(data["parameter_grid"], f"{source}.parameter_grid")

    if "box" in data and "pair" in data:
        _fail(source, "declare either 'box' or 'pair', not both")
    if "box" not in data and "pair" not in data:
        _fail(source, "missing a 'box' or 'pair' declaration")
    kind = "box" if "box" in data else "pair"
    model = (_box if kind == "box" else _pair)(data[kind], f"{source}.{kind}")

    if not isinstance(data["detectors"], list) or not data["detectors"]:
        _fail(f"{source}.detectors", "expected a non-empty list")
    detectors = tuple(
        _parse_detector(d, f"{source}.detectors[{i}]") for i, d in enumerate(data["detectors"])
    )
    for i, det in enumerate(detectors):
        needs = det.entry.needs
        if needs not in (None, kind):
            _fail(f"{source}.detectors[{i}]", f"detector {det.name!r} needs a {needs} scenario")

    referenced = _collect_refs((model,) + detectors)
    # every cell binds every reference; an axes grid's cells share one set of names
    per_cell = isinstance(data["parameter_grid"], list)
    for i, cell in enumerate(grid):
        missing = sorted(referenced - cell.keys())
        if missing:
            where = f"{source}.parameter_grid[{i}]" if per_cell else f"{source}.parameter_grid"
            _fail(where, f"specs reference undeclared parameters: {', '.join(missing)}")

    return Scenario(
        name=data["name"],
        master_seed=seed,
        grid=grid,
        detectors=detectors,
        kind=kind,
        model=model,
        raw=data,
    )


def _reject_duplicates(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ScenarioError(f"duplicate key {key!r} in scenario file")
        seen.add(key)
    return dict(pairs)


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario file, with line diagnostics on bad JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_reject_duplicates)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read the scenario file ({exc.strerror})") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    return parse_scenario_dict(data, source=str(path))
