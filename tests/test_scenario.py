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
    # run each cell's job with a runner that keeps what the job built
    built = []

    def keep(box, rng, **settings):
        built.append((box, settings))

    spec = sc.detectors[0]
    entry = Entry(spec.entry.keys, keep, needs="box")
    sc = dataclasses.replace(sc, detectors=(dataclasses.replace(spec, entry=entry),))
    for cell_index in range(len(sc.grid)):
        sc.run_job(cell_index, 0, None, lambda: sc.build(sc.grid[cell_index]))
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
