"""Scenario file parsing: grids, specs, references, and diagnostics."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qdata import (
    ComposedBox,
    LinearBox,
    NonlinearBloch,
    NsqChannelPair,
    PureState,
    QracOracle,
    QuantumChannel,
    ScenarioError,
    parse_scenario,
    parse_scenario_dict,
    run_scenario,
)
from qdata.scenario import BOX_FAMILIES, CHANNEL_KINDS, DETECTORS, PAIR_FAMILIES, REQUIRED, Entry


def base_scenario():
    return {
        "name": "t",
        "master_seed": 1,
        "box": {"family": "linear", "channel": {"kind": "identity"}},
        "parameter_grid": [{}],
        "detectors": [{"name": "ensemble-signalling"}],
    }


def variant(**changes):
    d = base_scenario()
    d.update(changes)
    return d


def test_minimal_scenario_parses():
    sc = parse_scenario_dict(base_scenario())
    assert sc.name == "t"
    assert sc.master_seed == 1
    assert len(sc.grid) == 1
    assert isinstance(sc.build(sc.grid[0]), LinearBox)


def test_grid_dict_expands_in_declaration_order():
    sc = parse_scenario_dict(variant(parameter_grid={"a": [1, 2, 3], "b": [10, 20]}))
    cells = list(sc.grid)
    assert len(cells) == 6
    assert cells[0] == {"a": 1, "b": 10}
    assert cells[1] == {"a": 1, "b": 20}
    assert cells[-1] == {"a": 3, "b": 20}


def test_grid_list_is_taken_verbatim():
    sc = parse_scenario_dict(variant(parameter_grid=[{"a": 1}, {"a": 9, "tag": "x"}]))
    assert list(sc.grid) == [{"a": 1}, {"a": 9, "tag": "x"}]


def test_grid_rejects_bools_and_empties():
    with pytest.raises(ScenarioError, match="grid values are numbers or strings"):
        parse_scenario_dict(variant(parameter_grid={"a": [True]}))
    with pytest.raises(ScenarioError, match="the grid is empty"):
        parse_scenario_dict(variant(parameter_grid=[]))


def test_grid_rejects_non_finite_numbers():
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ScenarioError, match=r"parameter_grid\.kappa\[0\]: number must be finite"):
            parse_scenario_dict(variant(parameter_grid={"kappa": [value, 2]}))
        with pytest.raises(ScenarioError, match=r"parameter_grid\[1\]\.kappa: number must be finite"):
            parse_scenario_dict(variant(parameter_grid=[{"kappa": 2}, {"kappa": value}]))


HUGE = 10**400  # an integer literal beyond the float range


def test_integer_literals_beyond_the_float_range_fail_parsing():
    beyond = "number is beyond the float range"
    with pytest.raises(ScenarioError, match=rf"scenario\.box\.kappa: {beyond}"):
        parse_scenario_dict(variant(box={"family": "nonlinear-bloch", "kappa": HUGE}))
    with pytest.raises(ScenarioError, match=rf"parameter_grid\.kappa\[1\]: {beyond}"):
        parse_scenario_dict(variant(parameter_grid={"kappa": [2, HUGE]}))
    with pytest.raises(ScenarioError, match=rf"parameter_grid\[0\]\.kappa: {beyond}"):
        parse_scenario_dict(variant(parameter_grid=[{"kappa": -HUGE}]))


def _with_first_entry(value):
    """A 2x2 complex matrix whose [0][0] real part is ``value``."""
    return [[[value, 0], [0, 0]], [[0, 0], [1, 0]]]


COMPLEX_FIELDS = {
    "matrix": (
        lambda m: {"family": "linear", "channel": {"kind": "unitary", "matrix": m}},
        "box.channel.matrix[0][0][0]",
    ),
    "operators": (
        lambda m: {
            "family": "linear",
            "channel": {"kind": "kraus", "operators": [m], "dim_in": 2, "dim_out": 2},
        },
        "box.channel.operators[0][0][0][0]",
    ),
    "basis": (lambda m: {"family": "collapse", "basis": m}, "box.basis[0][0][0]"),
}


@pytest.mark.parametrize("field", sorted(COMPLEX_FIELDS))
@pytest.mark.parametrize(
    "value, message",
    [
        (float("nan"), "number must be finite"),
        (float("inf"), "number must be finite"),
        (float("-inf"), "number must be finite"),
        (HUGE, "number is beyond the float range"),
    ],
    ids=["nan", "inf", "-inf", "huge"],
)
def test_complex_entries_must_be_finite(field, value, message):
    box, where = COMPLEX_FIELDS[field]
    with pytest.raises(ScenarioError, match=re.escape(f"scenario.{where}: {message}")):
        parse_scenario_dict(variant(box=box(_with_first_entry(value))))


def test_counts_beyond_64_bits_fail_parsing():
    detectors = [{"name": "helstrom", "settings": {"trials": 2**63}}]
    with pytest.raises(ScenarioError, match=r"detectors\[0\]\.settings\.trials: must be at most 2\*\*63 - 1"):
        parse_scenario_dict(variant(detectors=detectors))
    with pytest.raises(ScenarioError, match=r"detectors\[0\]\.settings\.trials: must be at most"):
        parse_scenario_dict(variant(detectors=[{"name": "helstrom", "settings": {"trials": HUGE}}]))
    detectors[0]["settings"]["trials"] = 2**63 - 1
    assert parse_scenario_dict(variant(detectors=detectors)).detectors[0].fields["trials"] == 2**63 - 1


def test_grid_cell_limit():
    with pytest.raises(ScenarioError, match="limit is 10000"):
        parse_scenario_dict(
            variant(parameter_grid={"a": list(range(101)), "b": list(range(101))})
        )
    # 10^9 cells: rejected from the axis lengths, before any cell is built
    axis = list(range(1000))
    with pytest.raises(ScenarioError, match="grid has 1000000000 cells, limit is 10000"):
        parse_scenario_dict(variant(parameter_grid={"a": axis, "b": axis, "c": axis}))


def test_unknown_detector_names_the_field():
    with pytest.raises(ScenarioError, match=r"scenario\.detectors\[0\]\.name: unknown detector 'bogus'"):
        parse_scenario_dict(variant(detectors=[{"name": "bogus"}]))


def test_unknown_keys_are_rejected_with_paths():
    with pytest.raises(ScenarioError, match=r"scenario\.extra: unknown key"):
        parse_scenario_dict(variant(extra=1))
    bad = base_scenario()
    bad["box"]["oops"] = 2
    with pytest.raises(ScenarioError, match=r"scenario\.box\.oops: unknown key"):
        parse_scenario_dict(bad)


def test_master_seed_must_be_u64():
    for seed in (-1, 2**64, 1.5):
        with pytest.raises(ScenarioError, match="master_seed"):
            parse_scenario_dict(variant(master_seed=seed))


def test_master_seed_follows_the_seed_rule():
    with pytest.raises(ScenarioError, match=r"scenario\.master_seed: master_seed must fit in 64 unsigned bits"):
        parse_scenario_dict(variant(master_seed=2**64))
    with pytest.raises(ScenarioError, match=r"scenario\.master_seed: master_seed must be an integer"):
        parse_scenario_dict(variant(master_seed=True))
    assert parse_scenario_dict(variant(master_seed=2**64 - 1)).master_seed == 2**64 - 1


def test_box_xor_pair():
    d = variant(pair={"family": "qrac-oracle"})
    with pytest.raises(ScenarioError, match="not both"):
        parse_scenario_dict(d)
    d2 = base_scenario()
    del d2["box"]
    with pytest.raises(ScenarioError, match="missing a 'box' or 'pair'"):
        parse_scenario_dict(d2)


def test_detector_family_requirements():
    with pytest.raises(ScenarioError, match="needs a pair scenario"):
        parse_scenario_dict(variant(detectors=[{"name": "qrac"}]))
    pair_scenario = {
        "name": "p",
        "master_seed": 3,
        "pair": {"family": "qrac-oracle"},
        "parameter_grid": [{}],
        "detectors": [{"name": "helstrom"}],
    }
    with pytest.raises(ScenarioError, match="needs a box scenario"):
        parse_scenario_dict(pair_scenario)


def test_param_references_must_be_declared():
    d = variant(box={"family": "nonlinear-bloch", "kappa": {"param": "zap"}})
    with pytest.raises(ScenarioError, match="undeclared parameters: zap"):
        parse_scenario_dict(d)


def test_list_grid_cells_each_bind_every_reference():
    # the union of the cells declares kappa, but cell 1 does not bind it
    d = variant(
        box={"family": "nonlinear-bloch", "kappa": {"param": "kappa"}},
        parameter_grid=[{"kappa": 2}, {"other": 3}],
    )
    with pytest.raises(
        ScenarioError, match=r"^scenario\.parameter_grid\[1\]: specs reference undeclared parameters: kappa$"
    ):
        parse_scenario_dict(d)


def test_param_references_resolve_per_cell():
    d = variant(
        box={"family": "nonlinear-bloch", "kappa": {"param": "kappa"}},
        parameter_grid={"kappa": [1.0, 4.0]},
    )
    sc = parse_scenario_dict(d)
    b0 = sc.build(sc.grid[0])
    b1 = sc.build(sc.grid[1])
    assert isinstance(b0, NonlinearBloch)
    assert b0.kappa == 1.0
    assert b1.kappa == 4.0


def test_string_cell_value_fails_at_build_time():
    d = variant(
        box={"family": "nonlinear-bloch", "kappa": {"param": "kappa"}},
        parameter_grid={"kappa": [1.0, "bad"]},
    )
    sc = parse_scenario_dict(d)
    sc.build(sc.grid[0])
    with pytest.raises(ScenarioError, match="does not bind numeric parameter 'kappa'"):
        sc.build(sc.grid[1])


def test_unitary_channel_from_complex_matrix():
    d = variant(
        box={
            "family": "linear",
            "channel": {
                "kind": "unitary",
                "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
            },
        }
    )
    sc = parse_scenario_dict(d)
    box = sc.build(sc.grid[0])
    u = box.channel.kraus_operators()[0]
    assert np.allclose(np.abs(u), [[0, 1], [1, 0]], atol=1e-12)


def test_composed_box_spec():
    d = variant(
        box={
            "family": "composed",
            "stages": [
                {"family": "linear", "channel": {"kind": "amplitude-damping", "gamma": 0.5}},
                {"family": "nonlinear-bloch", "kappa": 4.0},
            ],
        }
    )
    sc = parse_scenario_dict(d)
    box = sc.build(sc.grid[0])
    assert isinstance(box, ComposedBox)
    assert len(box.boxes) == 2
    with pytest.raises(ScenarioError, match="at least two box specs"):
        parse_scenario_dict(
            variant(box={"family": "composed", "stages": [{"family": "nonlinear-bloch", "kappa": 2.0}]})
        )


def test_pair_specs_build():
    oracle = {
        "name": "p",
        "master_seed": 3,
        "pair": {"family": "qrac-oracle"},
        "parameter_grid": [{}],
        "detectors": [{"name": "qrac", "settings": {"rounds": 100}}],
    }
    sc = parse_scenario_dict(oracle)
    assert isinstance(sc.build(sc.grid[0]), QracOracle)
    nsq = {
        "name": "n",
        "master_seed": 4,
        "pair": {
            "family": "nsq-channel",
            "channel": {"kind": "swap"},
            "local_dims": [2, 2],
        },
        "parameter_grid": [{}],
        "detectors": [{"name": "nsq-survey", "settings": {"n_samples": 5}}],
    }
    sc2 = parse_scenario_dict(nsq)
    assert isinstance(sc2.build(sc2.grid[0]), NsqChannelPair)


def test_param_references_resolve_in_second_box_and_stages():
    second_box = {"family": "linear", "channel": {"kind": "dephasing", "p": {"param": "p"}}}
    d = variant(
        box={
            "family": "composed",
            "stages": [
                {"family": "linear", "channel": {"kind": "amplitude-damping", "gamma": 0.5}},
                {"family": "nonlinear-bloch", "kappa": {"param": "kappa"}},
            ],
        },
        parameter_grid=[{"kappa": 2.0, "p": 0.1}, {"kappa": 4.0, "p": 0.6}],
        detectors=[{"name": "composition-gap", "settings": {"second_box": second_box}}],
    )
    sc = parse_scenario_dict(d)
    # run each cell as a stack of one, with a runner that keeps what the stack got
    built = []

    def keep(boxes, rng, **settings):
        built.extend((box, settings) for box in boxes)
        return [None] * len(boxes)

    spec = sc.detectors[0]
    entry = Entry(spec.entry.keys, keep, needs="box")
    sc = dataclasses.replace(sc, detectors=(dataclasses.replace(spec, entry=entry),))
    for cell_index in range(len(sc.grid)):
        sc.run_stack([cell_index], 0, [None], [sc.build(sc.grid[cell_index])])
    kappas = [box.boxes[1].kappa for box, _ in built]
    channels = [settings["second_box"].channel for _, settings in built]
    assert kappas == [2.0, 4.0]
    for cell, channel in zip(sc.grid, channels):
        expected = QuantumChannel.dephasing(cell["p"])
        assert np.allclose(channel.choi, expected.choi, atol=1e-12)
    assert not np.allclose(channels[0].choi, channels[1].choi)

    undeclared = {"family": "linear", "channel": {"kind": "dephasing", "p": {"param": "q"}}}
    with pytest.raises(ScenarioError, match="undeclared parameters: q"):
        parse_scenario_dict(
            variant(detectors=[{"name": "composition-gap", "settings": {"second_box": undeclared}}])
        )


def test_constant_specs_are_built_once_at_parse_time():
    second_box = {"family": "linear", "channel": {"kind": "dephasing", "p": 0.3}}
    d = variant(
        box={
            "family": "composed",
            "stages": [
                {"family": "linear", "channel": {"kind": "amplitude-damping", "gamma": 0.5}},
                {"family": "nonlinear-bloch", "kappa": {"param": "kappa"}},
            ],
        },
        parameter_grid={"kappa": [2.0, 4.0]},
        detectors=[{"name": "composition-gap", "settings": {"second_box": second_box}}],
    )
    sc = parse_scenario_dict(d)
    (second,) = (v for v in sc.detectors[0].fields.values() if isinstance(v, LinearBox))
    b0, b1 = (sc.build(cell) for cell in sc.grid)
    # the constant stage is one object in every cell, the referenced one is not
    assert b0.boxes[0] is b1.boxes[0]
    assert (b0.boxes[1].kappa, b1.boxes[1].kappa) == (2.0, 4.0)
    assert np.array_equal(second.channel.choi, QuantumChannel.dephasing(0.3).choi)
    constant = parse_scenario_dict(base_scenario())
    assert constant.build(constant.grid[0]) is constant.build({})


def test_a_constant_spec_that_fails_to_build_fails_parsing_at_its_path():
    d = variant(
        detectors=[
            {"name": "helstrom"},
            {
                "name": "composition-gap",
                "settings": {
                    "second_box": {"family": "linear", "channel": {"kind": "depolarizing", "p": 1.5}}
                },
            },
        ]
    )
    with pytest.raises(
        ScenarioError,
        match=re.escape("scenario.detectors[1].settings.second_box.channel: depolarizing strength"),
    ):
        parse_scenario_dict(d)
    with pytest.raises(ScenarioError, match=re.escape("scenario.box: warp exponent must be positive")):
        parse_scenario_dict(variant(box={"family": "nonlinear-bloch", "kappa": -1}))


def test_composition_gap_requires_second_box():
    with pytest.raises(ScenarioError, match="missing required key 'second_box'"):
        parse_scenario_dict(variant(detectors=[{"name": "composition-gap"}]))


def test_detector_settings_unknown_key():
    with pytest.raises(ScenarioError, match="unknown setting for detector 'helstrom'"):
        parse_scenario_dict(
            variant(detectors=[{"name": "helstrom", "settings": {"trails": 10}}])
        )


def _linear(channel):
    return {"box": {"family": "linear", "channel": channel}}


def _settings(name, **settings):
    return {"detectors": [{"name": name, "settings": settings}]}


def _without_name():
    d = base_scenario()
    del d["name"]
    return d


# (document, the whole message of the error it raises)
PARSE_ERRORS = {
    "box-not-object": (variant(box=[]), "scenario.box: expected an object, got list"),
    "box-no-family": (variant(box={}), "scenario.box: missing required key 'family'"),
    "no-name": (_without_name(), "scenario: missing required key 'name'"),
    "number-is-str": (
        variant(**_linear({"kind": "depolarizing", "p": "0.1"})),
        "scenario.box.channel.p: expected a number, got str",
    ),
    "count-is-float": (
        variant(**_settings("helstrom", trials=10.0)),
        "scenario.detectors[0].settings.trials: expected an integer, got float",
    ),
    "flag-not-bool": (
        variant(**_settings("nsq-survey", product_channels=1)),
        "scenario.detectors[0].settings.product_channels: expected a boolean",
    ),
    "param-not-str": (
        variant(**_linear({"kind": "depolarizing", "p": {"param": 1}})),
        "scenario.box.channel.p.param: parameter name must be a string",
    ),
    "ragged-rows": (
        variant(**_linear({"kind": "unitary", "matrix": [[[1, 0], [0, 0]], [[0, 0]]]})),
        "scenario.box.channel.matrix[1]: ragged rows",
    ),
    "unknown-family": (
        variant(box={"family": "bogus"}),
        "scenario.box.family: unknown box family 'bogus'",
    ),
    "settings-not-object": (
        variant(detectors=[{"name": "helstrom", "settings": []}]),
        "scenario.detectors[0].settings: expected an object",
    ),
    "empty-axis": (
        variant(parameter_grid={"k": []}),
        "scenario.parameter_grid.k: expected a non-empty list of values",
    ),
    "cell-not-object": (
        variant(parameter_grid=[1]),
        "scenario.parameter_grid[0]: expected an object of parameter bindings",
    ),
    "grid-not-axes-or-cells": (
        variant(parameter_grid="k"),
        "scenario.parameter_grid: expected an axes object or a list of cells",
    ),
    "empty-name": (variant(name=""), "scenario.name: expected a non-empty string"),
    "no-detectors": (variant(detectors=[]), "scenario.detectors: expected a non-empty list"),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_errors_name_their_path(case):
    document, message = PARSE_ERRORS[case]
    with pytest.raises(ScenarioError) as info:
        parse_scenario_dict(document)
    assert str(info.value) == message


def test_nsq_survey_product_channels_parse_and_run_fully_compatible():
    document = variant(**_settings("nsq-survey", n_samples=8, product_channels=True))
    scenario = parse_scenario_dict(document)
    assert scenario.detectors[0].fields["product_channels"] is True
    (result,) = run_scenario(scenario)["cells"][0]["results"]
    assert result["verdict"]["extras"]["compatible_fraction"] == 1.0


def test_parse_scenario_file_errors(tmp_path):
    with pytest.raises(ScenarioError, match="scenario file not found"):
        parse_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": ')
    with pytest.raises(ScenarioError, match="line 1 column"):
        parse_scenario(bad)
    dup = tmp_path / "dup.json"
    dup.write_text('{"name": "x", "name": "y"}')
    with pytest.raises(ScenarioError, match="duplicate key 'name'"):
        parse_scenario(dup)
    top = tmp_path / "top.json"
    top.write_text('[1, 2]')
    with pytest.raises(ScenarioError):
        parse_scenario(top)


def test_parse_scenario_round_trip(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(base_scenario()))
    sc = parse_scenario(path)
    assert sc.name == "t"
    assert sc.raw == base_scenario()


# ------------------------------------------------- README vocabulary

README = Path(__file__).resolve().parent.parent / "README.md"

LINEAR = {"family": "linear", "channel": {"kind": "identity"}}
BOX_SPECS = {
    "linear": LINEAR,
    "nonlinear-bloch": {"family": "nonlinear-bloch", "kappa": 2.0, "pre_rotation_y": 0.3},
    "collapse": {"family": "collapse", "kappa": 1.5, "post_rotation_y": 0.2},
    "composed": {"family": "composed", "stages": [LINEAR, LINEAR]},
}
_ONE = [1.0, 0.0]
_ZERO = [0.0, 0.0]
CHANNEL_SPECS = {
    "identity": {"kind": "identity", "dim": 2},
    "depolarizing": {"kind": "depolarizing", "p": 0.2},
    "amplitude-damping": {"kind": "amplitude-damping", "gamma": 0.3},
    "dephasing": {"kind": "dephasing", "p": 0.4},
    "swap": {"kind": "swap"},
    "unitary": {"kind": "unitary", "matrix": [[_ZERO, _ONE], [_ONE, _ZERO]]},
    "kraus": {"kind": "kraus", "operators": [[[_ONE, _ZERO], [_ZERO, _ONE]]], "dim_in": 2, "dim_out": 2},
}
PAIR_SPECS = {
    "qrac-oracle": {"family": "qrac-oracle"},
    "qrac-measure-prepare": {"family": "qrac-measure-prepare"},
    "nsq-channel": {"family": "nsq-channel", "channel": {"kind": "swap"}, "local_dims": [2, 2]},
}
DETECTOR_SPECS = {
    "helstrom": ("box", {"trials": 100}),
    "ensemble-signalling": ("box", {}),
    "basis-invariance": ("box", {"shots": 100}),
    "ancilla-consistency": ("box", {"shots": 100}),
    "composition-gap": ("box", {"second_box": LINEAR}),
    "qrac": ("pair", {"rounds": 10}),
    "nsq-survey": ("pair", {"n_samples": 2}),
}


def readme_names(label):
    """Backquoted names of the README scenario bullet starting with ``label``."""
    text = README.read_text(encoding="utf-8")
    bullet = re.search(rf"^- {label}:(.*?)(?=^- |^$)", text, re.M | re.S).group(1)
    # names are listed before the first full stop or semicolon; parentheses
    # hold their settings
    listing = re.split(r"[.;]", re.sub(r"\([^)]*\)", "", bullet))[0]
    return set(re.findall(r"`([^`]+)`", listing))


def test_readme_names_exactly_what_the_parser_accepts():
    assert readme_names("Box families") == set(BOX_SPECS)
    assert readme_names("Channel kinds") == set(CHANNEL_SPECS)
    assert readme_names("Pair families") == set(PAIR_SPECS)
    assert readme_names("Detectors") == set(DETECTOR_SPECS)
    # and the parser's tables hold exactly the documented names
    assert set(BOX_FAMILIES) == set(BOX_SPECS)
    assert set(CHANNEL_KINDS) == set(CHANNEL_SPECS)
    assert set(PAIR_FAMILIES) == set(PAIR_SPECS)
    assert set(DETECTORS) == set(DETECTOR_SPECS)


def pair_variant(pair, detectors):
    d = variant(pair=pair, detectors=detectors)
    del d["box"]
    return d


def test_every_documented_name_parses_and_builds():
    for family, box in BOX_SPECS.items():
        sc = parse_scenario_dict(variant(box=box))
        assert sc.build(sc.grid[0]).dim_in == 2, family
    for kind, channel in CHANNEL_SPECS.items():
        sc = parse_scenario_dict(variant(box={"family": "linear", "channel": channel}))
        assert isinstance(sc.build(sc.grid[0]), LinearBox), kind
    for family, pair in PAIR_SPECS.items():
        sc = parse_scenario_dict(pair_variant(pair, [{"name": "nsq-survey"}]))
        sc.build(sc.grid[0])
    for name, (kind, settings) in DETECTOR_SPECS.items():
        detectors = [{"name": name, "settings": settings}]
        if kind == "pair":
            doc = pair_variant(PAIR_SPECS["qrac-oracle"], detectors)
        else:
            doc = variant(detectors=detectors)
        assert parse_scenario_dict(doc).detectors[0].name == name


# ------------------------------------------------- every table entry's keys

# table label -> (table, documented nodes, key naming the entry, what the table names)
VOCABULARY = {
    "channel": (CHANNEL_KINDS, CHANNEL_SPECS, "kind", "channel kind"),
    "box": (BOX_FAMILIES, BOX_SPECS, "family", "box family"),
    "pair": (PAIR_FAMILIES, PAIR_SPECS, "family", "pair family"),
    "detector": (DETECTORS, None, "name", "detector"),
}
ENTRIES = [(label, name) for label, (table, *_) in VOCABULARY.items() for name in table]


def document_with(label, name, fields):
    """A scenario declaring the entry ``name`` of table ``label`` with ``fields``."""
    if label == "channel":
        return variant(box={"family": "linear", "channel": {"kind": name, **fields}})
    if label == "box":
        return variant(box={"family": name, **fields})
    if label == "pair":
        return pair_variant({"family": name, **fields}, [{"name": "nsq-survey"}])
    detectors = [{"name": name, "settings": fields}]
    if DETECTOR_SPECS[name][0] == "pair":
        return pair_variant(PAIR_SPECS["qrac-oracle"], detectors)
    return variant(detectors=detectors)


@pytest.mark.parametrize("label,name", ENTRIES, ids=[f"{l}-{n}" for l, n in ENTRIES])
def test_every_entry_rejects_foreign_keys_and_requires_its_keys(label, name):
    table, specs, tag, what = VOCABULARY[label]
    if label == "detector":
        fields = DETECTOR_SPECS[name][1]
        foreign = f"unknown setting for detector {name!r}"
    else:
        fields = {k: v for k, v in specs[name].items() if k != tag}
        foreign = f"key not accepted by {what} {name!r}"
    accepted = table[name].keys
    parse_scenario_dict(document_with(label, name, fields))

    # a key another entry of the same table accepts is foreign to this one
    others = {key for entry in table.values() for key in entry.keys} - set(accepted)
    if label == "detector":
        others.add("bogus")
    for key in sorted(others):
        with pytest.raises(ScenarioError, match=re.escape(f".{key}: {foreign}")):
            parse_scenario_dict(document_with(label, name, {**fields, key: 1}))
    if label != "detector":
        with pytest.raises(ScenarioError, match=r"\.bogus: unknown key"):
            parse_scenario_dict(document_with(label, name, {**fields, "bogus": 1}))

    for key, (_, default) in accepted.items():
        if default is not REQUIRED:
            continue
        assert key in fields, f"the documented {what} {name!r} lacks its required {key!r}"
        dropped = {k: v for k, v in fields.items() if k != key}
        with pytest.raises(ScenarioError, match=f"missing required key {key!r}"):
            parse_scenario_dict(document_with(label, name, dropped))


def test_helstrom_jobs_share_one_setup_per_settings():
    from qdata import scenario

    setup = scenario._helstrom_setup((1.0, 2.0), (0.25, 0.75))
    assert scenario._helstrom_setup((1.0, 2.0), (0.25, 0.75)) is setup
    assert setup.priors == (0.25, 0.75)
    assert np.array_equal(setup.states[1].vector, PureState.from_bloch(2.0, 0.0).vector)
    # -0.0 gives a state vector with a signed zero, so it keys its own setup
    signed = scenario._helstrom_setup((-0.0, 2.0), (0.25, 0.75))
    assert signed is not scenario._helstrom_setup((0.0, 2.0), (0.25, 0.75))
    assert np.signbit(signed.states[0].vector[1].real)


# ------------------------------------------------- a block's models as one stack


def _same(a, b) -> bool:
    """Bit for bit: equal shape, dtype and bytes, so a sign of zero counts too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _written_out_channel(kind, x):
    """The Choi matrix and Kraus operators (None for depolarizing) of a one-channel build, written out."""
    if kind == "depolarizing":
        eye = np.eye(2, dtype=complex)[None]
        ident = np.einsum("kai,kbj->iajb", eye, eye.conj()).reshape(4, 4)
        repl = np.einsum("ij,ab->iajb", np.eye(2), np.eye(2) / 2).reshape(4, 4)
        return (1.0 - x) * ident + x * repl, None
    if kind == "amplitude-damping":
        ks = [np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - x)]]), np.array([[0.0, np.sqrt(x)], [0.0, 0.0]])]
    else:
        ks = [np.sqrt(1.0 - x / 2.0) * np.eye(2), np.sqrt(x / 2.0) * np.diag([1.0, -1.0])]
    ks = np.array(ks, dtype=complex)
    return np.einsum("kai,kbj->iajb", ks, ks.conj()).reshape(4, 4), ks


def _written_out_rotation(angle):
    if angle is None:
        return None
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _assert_same_model(got, want):
    """Every field of two built boxes bit for bit, stage by stage."""
    assert type(got) is type(want)
    assert (got.dim_in, got.dim_out) == (want.dim_in, want.dim_out)
    if isinstance(got, ComposedBox):
        assert len(got.boxes) == len(want.boxes)
        for g, w in zip(got.boxes, want.boxes):
            _assert_same_model(g, w)
    elif isinstance(got, LinearBox):
        g, w = got.channel, want.channel
        assert (g.dim_in, g.dim_out) == (w.dim_in, w.dim_out)
        assert _same(g.choi, w.choi)
        assert (g.kraus is None) == (w.kraus is None)
        if g.kraus is not None:
            assert len(g.kraus) == len(w.kraus)
            assert all(_same(a, b) for a, b in zip(g.kraus, w.kraus))
    else:
        assert type(got.kappa) is float and got.kappa.hex() == want.kappa.hex()
        assert _same(got.pre_unitary, want.pre_unitary)
        assert _same(got.post_unitary, want.post_unitary)


# both endpoints, a subnormal and values that round
UNIT = [0.0, 1.0, 5e-324, 0.5] + [round(k / 37, 12) for k in range(1, 37)]
BOUND_KINDS = {"depolarizing": "p", "amplitude-damping": "gamma", "dephasing": "p"}


@pytest.mark.parametrize("kind", sorted(BOUND_KINDS))
def test_a_stack_of_bound_channels_equals_each_cell_built_alone_bit_for_bit(kind):
    channel = {"kind": kind, BOUND_KINDS[kind]: {"param": "x"}}
    sc = parse_scenario_dict(
        variant(box={"family": "linear", "channel": channel}, parameter_grid={"x": UNIT})
    )
    stack = sc.build_stack(sc.grid)
    assert len(stack) == len(sc.grid)
    for cell, model in zip(sc.grid, stack):
        _assert_same_model(model, sc.build(cell))
        choi, kraus = _written_out_channel(kind, float(cell["x"]))
        assert _same(model.channel.choi, choi), cell
        if kraus is None:
            assert model.channel.kraus is None
        else:
            assert len(model.channel.kraus) == len(kraus)
            assert all(_same(a, b) for a, b in zip(model.channel.kraus, kraus)), cell
    # every cell holds a channel of its own
    assert len({id(model.channel) for model in stack}) == len(stack)


def test_a_stack_of_warps_equals_each_cell_built_alone_bit_for_bit():
    rotated = {
        "family": "nonlinear-bloch",
        "kappa": {"param": "kappa"},
        "pre_rotation_y": {"param": "pre"},
        "post_rotation_y": {"param": "post"},
    }
    post_only = {"family": "nonlinear-bloch", "kappa": 2.0, "post_rotation_y": {"param": "post"}}
    grid = {"kappa": [0.5, 1, 2.5, 7], "pre": [0.0, -0.0, 0.7, 3.0, -2.2], "post": [-1.2, 2.6, 1e-9]}
    for box in (rotated, post_only):
        sc = parse_scenario_dict(variant(box=box, parameter_grid=grid))
        stack = sc.build_stack(sc.grid)
        assert len(stack) == len(sc.grid) == 60
        for cell, model in zip(sc.grid, stack):
            _assert_same_model(model, sc.build(cell))
            pre = cell["pre"] if box is rotated else None
            kappa = float(cell["kappa"]) if box is rotated else 2.0
            want = NonlinearBloch(kappa, _written_out_rotation(pre), _written_out_rotation(cell["post"]))
            _assert_same_model(model, want)


def test_a_stack_of_composed_boxes_builds_each_bound_stage_as_its_cell_alone():
    box = {
        "family": "composed",
        "stages": [
            {"family": "linear", "channel": {"kind": "amplitude-damping", "gamma": {"param": "g"}}},
            {"family": "nonlinear-bloch", "kappa": {"param": "kappa"}, "pre_rotation_y": {"param": "rot"}},
            {"family": "linear", "channel": {"kind": "dephasing", "p": {"param": "g"}}},
            {"family": "linear", "channel": {"kind": "depolarizing", "p": 0.25}},
        ],
    }
    sc = parse_scenario_dict(
        variant(box=box, parameter_grid={"g": [0, 0.3, 1], "kappa": [1, 3.5], "rot": [0.0, 1.1]})
    )
    stack = sc.build_stack(sc.grid)
    for cell, model in zip(sc.grid, stack):
        _assert_same_model(model, sc.build(cell))
        choi, _ = _written_out_channel("amplitude-damping", float(cell["g"]))
        assert _same(model.boxes[0].channel.choi, choi)
        choi, _ = _written_out_channel("dephasing", float(cell["g"]))
        assert _same(model.boxes[2].channel.choi, choi)
    # the constant stage, built at parse time, is one object in every cell
    assert len({id(model.boxes[3]) for model in stack}) == 1


def test_a_stack_checks_each_bound_column_once(monkeypatch):
    from qdata import channels, scenario

    calls = []
    check_chois, check_unitaries = channels._check_chois, scenario._check_unitaries

    def counting_chois(c, dim_in, dim_out):
        calls.append(("chois", c.shape))
        return check_chois(c, dim_in, dim_out)

    def counting_unitaries(m):
        calls.append(("unitaries", m.shape))
        return check_unitaries(m)

    monkeypatch.setattr(channels, "_check_chois", counting_chois)
    monkeypatch.setattr(scenario, "_check_unitaries", counting_unitaries)
    grid = {"x": [k / 63 for k in range(64)]}
    for kind, key in BOUND_KINDS.items():
        channel = {"kind": kind, key: {"param": "x"}}
        sc = parse_scenario_dict(variant(box={"family": "linear", "channel": channel}, parameter_grid=grid))
        calls.clear()
        sc.build_stack(sc.grid)
        assert calls == [("chois", (64, 4, 4))], kind
        # a value out of range fails its own cell before the stack is checked
        calls.clear()
        built = sc.build_stack([*sc.grid[:9], {"x": 1.5}, *sc.grid[10:]])
        assert calls == [("chois", (63, 4, 4))], kind
        assert isinstance(built[9], ValueError) and "must lie in [0, 1]" in str(built[9])
    box = {"family": "nonlinear-bloch", "kappa": 2.0, "pre_rotation_y": {"param": "x"}, "post_rotation_y": {"param": "x"}}
    sc = parse_scenario_dict(variant(box=box, parameter_grid=grid))
    calls.clear()
    sc.build_stack(sc.grid)
    assert calls == [("unitaries", (64, 2, 2))] * 2
