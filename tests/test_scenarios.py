"""Built-in scenarios, YAML round-trips, result files."""
import copy
import dataclasses
import json
import math
import re

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fairband import (
    BUILTIN_NAMES,
    AccessPoint,
    Channel,
    Client,
    OptimizerPolicy,
    RadioModel,
    RateTier,
    ScenarioError,
    builtin,
    load_scenario,
    run,
    save_result,
    save_scenario,
)
from fairband.scenarios import SCENARIO_FORMAT, Scenario, _scenario_dict
from conftest import dense_reference


def test_all_builtins_compile():
    for name in BUILTIN_NAMES:
        net = builtin(name, seed=3).to_network()
        assert net.n_clients > 0 and net.n_vaps > 0
    with pytest.raises(ScenarioError):
        builtin("line9")


def test_micro_shape():
    net = builtin("micro").to_network()
    assert net.n_vaps == 2 and net.n_clients == 3 and net.n_channels == 2


def test_line3_shapes():
    net1 = builtin("line3-1ch").to_network()
    net2 = builtin("line3-2ch").to_network()
    assert net1.n_channels == 1 and net2.n_channels == 2
    assert net1.n_clients == 16 and net1.n_vaps == 3
    xs = [c.position[0] for c in net1.clients]
    assert xs == [40.0 + 5.0 * i for i in range(16)]


def test_grid16_shape_and_weights():
    net = builtin("grid16-weighted", seed=1).to_network()
    assert net.n_vaps == 32  # 16 dual-radio APs
    assert net.n_clients == 50
    assert net.n_channels == 7
    # west-side clients carry weight 1.5, east-side 0.5
    for cl in net.clients:
        assert cl.weight == (1.5 if cl.position[0] <= 300.0 else 0.5)


def test_grid16_positions_identical_across_weightings():
    a = builtin("grid16-unweighted", seed=42).to_network()
    b = builtin("grid16-weighted", seed=42).to_network()
    assert [c.position for c in a.clients] == [c.position for c in b.clients]
    assert [c.weight for c in a.clients] != [c.weight for c in b.clients]


def test_grid16_draws_depend_on_seed():
    a = builtin("grid16-unweighted", seed=1).to_network()
    b = builtin("grid16-unweighted", seed=2).to_network()
    assert [c.position for c in a.clients] != [c.position for c in b.clients]


def test_region_draws_match_one_scalar_draw_per_coordinate():
    # the documented order, region by region and x before y, as a loop of
    # scalar draws
    for seed in range(5):
        scenario = builtin("grid16-weighted", seed=seed)
        rng = np.random.default_rng(seed)
        expected = [
            (rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))
            for r in scenario.regions
            for xmin, ymin, xmax, ymax in [r.rect] * r.count
        ]
        assert [c.position for c in scenario.materialize_clients()] == expected


def test_grid16_clients_always_reachable():
    # worst case is a region-center client 212 m from the nearest AP; every
    # channel in the sub-GHz plan reaches past 300 m
    for seed in range(5):
        rates = dense_reference(builtin("grid16-unweighted", seed=seed).to_network()).rates
        assert (rates.max(axis=(1, 2)) > 0).all()
        assert ((rates > 0).all(axis=2).any(axis=1)).all()


def test_region_scenario_requires_seed():
    s = builtin("grid16-unweighted")
    with pytest.raises(ScenarioError):
        Scenario(
            name="x", channels=s.channels, aps=s.aps, regions=s.regions, seed=None
        )
    with pytest.raises(ScenarioError):
        Scenario(name="x", channels=s.channels, aps=s.aps)  # neither clients nor regions


@pytest.mark.parametrize("seed", [-1, True, 1.5, "3"])
def test_scenario_rejects_a_bad_seed(seed):
    s = builtin("grid16-unweighted")
    with pytest.raises(ScenarioError, match=r"^seed: "):
        Scenario(name="x", channels=s.channels, aps=s.aps, regions=s.regions, seed=seed)
    with pytest.raises(ScenarioError, match=r"^seed: "):
        s.reseeded(seed)


@pytest.mark.parametrize("base, change, field", [
    ("micro", {"channels": ("a",)}, "channels[0]"),
    ("micro", {"aps": (builtin("micro").aps[0], 1)}, "aps[1]"),
    ("micro", {"clients": ("x",)}, "clients[0]"),
    ("micro", {"radio_model": 3}, "radio_model"),
    ("grid16-weighted", {"regions": (1,)}, "regions[0]"),
    ("micro", {"channels": None}, "channels"),
])
def test_scenario_checks_its_members(base, change, field):
    with pytest.raises(ScenarioError, match="^" + re.escape(field) + ": expected"):
        dataclasses.replace(builtin(base), **change)


# values for any field of Scenario: the members of every section, a radio
# model, and values of no section
_MEMBERS = tuple(m for b in ("micro", "grid16-weighted")
                 for section in ("channels", "aps", "clients", "regions")
                 for m in getattr(builtin(b), section) or ())
_ANY = (st.sampled_from(_MEMBERS) | st.just(RadioModel()) | st.none() | st.booleans()
        | st.integers() | st.floats() | st.text(max_size=4))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["micro", "grid16-weighted"]),
       st.dictionaries(st.sampled_from([f.name for f in dataclasses.fields(Scenario)]),
                       _ANY | st.lists(_ANY, max_size=3).map(tuple), max_size=2))
def test_scenario_from_any_values_is_a_network_or_scenario_error(base, fields):
    try:
        net = dataclasses.replace(builtin(base), **fields).to_network()
    except ScenarioError:
        return
    assert net.n_clients and net.n_vaps and net.n_channels


def test_reseeded_changes_only_region_draws():
    s = builtin("grid16-unweighted", seed=1)
    assert s.reseeded(2).seed == 2
    micro = builtin("micro")
    assert micro.reseeded(99) is micro  # explicit clients: no-op


def test_yaml_round_trip(tmp_path):
    path = tmp_path / "scn.yaml"
    original = builtin("micro")
    save_scenario(path, original)
    loaded = load_scenario(path)
    assert loaded.digest() == original.digest()
    a = original.to_network()
    b = loaded.to_network()
    assert (dense_reference(a).rates == dense_reference(b).rates).all()
    assert (a.link_vap == b.link_vap).all() and (a.rates == b.rates).all()
    assert a.vap_ids == b.vap_ids


def test_yaml_round_trip_with_regions(tmp_path):
    path = tmp_path / "grid.yaml"
    original = builtin("grid16-weighted", seed=9)
    save_scenario(path, original)
    loaded = load_scenario(path)
    assert loaded.digest() == original.digest()
    assert [c.position for c in loaded.materialize_clients()] == [
        c.position for c in original.materialize_clients()
    ]


def test_yaml_error_diagnostics(tmp_path):
    p = tmp_path / "bad.yaml"

    p.write_text("name: x\n")
    with pytest.raises(ScenarioError, match="format"):
        load_scenario(p)

    p.write_text(f"format: {SCENARIO_FORMAT}\nname: x\nchannels:\n  - id: a\n")
    with pytest.raises(ScenarioError, match=r"channels\[0\]"):
        load_scenario(p)

    p.write_text(
        f"format: {SCENARIO_FORMAT}\nname: x\n"
        "channels:\n  - {id: a, center_frequency_mhz: 600, bandwidth_mhz: 6}\n"
        "aps:\n  - {id: ap0, position: [0, 0, 0]}\n"
    )
    with pytest.raises(ScenarioError, match=r"aps\[0\].position"):
        load_scenario(p)

    p.write_text(
        f"format: {SCENARIO_FORMAT}\nname: x\n"
        "channels:\n  - {id: a, center_frequency_mhz: 600, bandwidth_mhz: 6}\n"
        "aps:\n  - {id: ap0, position: [0, 0]}\n"
        "regions:\n  - {count: -3, rect: [0, 0, 1, 1]}\n"
    )
    with pytest.raises(ScenarioError, match=r"regions\[0\].count"):
        load_scenario(p)


_MINIMAL = {
    "format": SCENARIO_FORMAT,
    "name": "x",
    "channels": [{"id": "a", "center_frequency_mhz": 600, "bandwidth_mhz": 6}],
    "aps": [{"id": "ap0", "position": [0, 0]}],
    "clients": [{"id": "c1", "position": [10, 0]}],
}


@pytest.mark.parametrize("patch, field", [
    ({"channels": 3}, r"^channels: "),
    ({"aps": [[0, 0]]}, r"^aps\[0\]: "),
    ({"clients": ["c1"]}, r"^clients\[0\]: "),
    ({"regions": [7], "clients": None, "seed": 1}, r"^regions\[0\]: "),
    ({"aps": [{"id": "ap0", "position": [10**400, 0]}]}, r"^aps\[0\]\.position\[0\]: "),
    ({"radio_model": {1: 3.0, "alpha": 3.0}}, r"radio_model: unknown fields"),
    ({"aps": [{"id": "ap0", "position": [0, 0], "radios": True}]}, r"^aps\[0\]\.radios: "),
    ({"seed": -1}, r"^seed: "),
    ({"regions": [{"count": 2, "rect": [0, 0, 1, 1], "weight": 0}], "clients": None,
      "seed": 1}, r"^regions\[0\]\.weight: "),
    ({"regions": [{"count": 2, "rect": [10, 0, 0, 10]}], "clients": None, "seed": 1},
     r"^regions\[0\]\.rect: "),
    ({"clients": [{"id": "c", "position": [10, 0], "weight": -1}]},
     r"^clients\[0\]\.weight: "),
    ({"channels": [{"id": "a", "center_frequency_mhz": 600, "bandwidth_mhz": 0}]},
     r"^channels\[0\]\.bandwidth_mhz: "),
    ({"regions": [{"count": 2, "rect": [-1e308, 0, 1e308, 10]}], "clients": None,
      "seed": 1}, r"^regions\[0\]\.rect: "),
])
def test_yaml_wrong_shapes_name_the_field(tmp_path, patch, field):
    p = tmp_path / "bad.yaml"
    p.write_text(yaml.safe_dump({**_MINIMAL, **patch}))
    with pytest.raises(ScenarioError, match=field):
        load_scenario(p)



# (section, constructor argument, file key, value, the field a Python-built
# object names); from a file the error names section[0].<key> instead
_MALFORMED = [
    ("clients", "weight", "weight", math.inf, "weight"),
    ("aps", "position", "position", [math.nan, 0.0], "position[0]"),
    ("channels", "bandwidth_mhz", "bandwidth_mhz", math.inf, "bandwidth_mhz"),
    ("regions", "count", "count", 2.0, "count"),
    ("aps", "radio_count", "radios", 1.5, "radio_count"),
    ("aps", "radio_count", "radios", True, "radio_count"),
    ("radio_model", "path_loss_alpha", "path_loss_alpha", math.nan, "path_loss_alpha"),
    ("channels", "center_frequency_mhz", "center_frequency_mhz", "2400",
     "center_frequency_mhz"),
    ("clients", "id", "id", 7, "id"),
    ("aps", "position", "position", [0.0, 0.0, 0.0], "position"),
]


@pytest.mark.parametrize("section, arg, key, value, field", _MALFORMED)
def test_malformed_values_name_the_field_built_in_python_and_read_from_files(
        tmp_path, section, arg, key, value, field):
    base = builtin("grid16-weighted" if section == "regions" else "micro")

    def build_and_run():
        if section == "radio_model":
            changed = dataclasses.replace(base, radio_model=RadioModel(**{arg: value}))
        else:
            entries = list(getattr(base, section))
            entries[0] = dataclasses.replace(entries[0], **{arg: value})
            changed = dataclasses.replace(base, **{section: tuple(entries)})
        run(changed, OptimizerPolicy(iterations=50))

    with pytest.raises(ScenarioError, match="^" + re.escape(field) + ": "):
        build_and_run()

    raw = _scenario_dict(base)
    if section == "radio_model":
        raw[section] = {key: value}
        where = f"{section}.{key}"
    else:
        raw[section][0][key] = value
        where = f"{section}[0].{key}"
    p = tmp_path / "bad.yaml"
    p.write_text(yaml.safe_dump(raw))
    with pytest.raises(ScenarioError, match="^" + re.escape(where + field[len(arg):]) + ": "):
        load_scenario(p)


def test_yaml_unknown_fields_are_named(tmp_path):
    p = tmp_path / "bad.yaml"
    for section, key in (("aps", "radois"), ("clients", "wieght")):
        raw = copy.deepcopy(_MINIMAL)
        raw[section][0][key] = 2
        p.write_text(yaml.safe_dump(raw))
        with pytest.raises(ScenarioError,
                           match=rf"^{section}\[0\]: unknown fields \['{key}'\]"):
            load_scenario(p)
    p.write_text(yaml.safe_dump({**_MINIMAL, "sede": 4}))
    with pytest.raises(ScenarioError, match=re.escape(f"{p}: unknown fields ['sede']")):
        load_scenario(p)


def test_yaml_null_reads_as_the_default(tmp_path):
    p = tmp_path / "s.yaml"
    raw = copy.deepcopy(_MINIMAL)
    raw["aps"][0]["radios"] = None
    raw["clients"][0]["weight"] = None
    p.write_text(yaml.safe_dump({**raw, "regions": None, "seed": None,
                                 "radio_model": None}))
    scn = load_scenario(p)
    assert scn.aps[0].radio_count == 1 and scn.clients[0].weight == 1.0
    assert scn.regions is None and scn.seed is None and scn.radio_model == RadioModel()


_MICRO_YAML = """\
format: fairband-scenario/1
name: micro
channels:
- id: ch-2400
  center_frequency_mhz: 2400.0
  bandwidth_mhz: 22.0
- id: ch-4000
  center_frequency_mhz: 4000.0
  bandwidth_mhz: 44.0
aps:
- id: ap0
  position:
  - 0.0
  - 0.0
  radios: 1
- id: ap1
  position:
  - 150.0
  - 0.0
  radios: 1
clients:
- id: c01
  position:
  - 40.0
  - 0.0
  weight: 1.0
- id: c02
  position:
  - 75.0
  - 0.0
  weight: 1.0
- id: c03
  position:
  - 110.0
  - 0.0
  weight: 1.0
"""


def test_save_scenario_writes_the_file_format(tmp_path):
    p = tmp_path / "micro.yaml"
    save_scenario(p, builtin("micro"))
    assert p.read_text() == _MICRO_YAML


def test_yaml_round_trip_keeps_custom_tiers(tmp_path):
    model = RadioModel(base_tiers=((54.0, 30.0), (6.0, 100.0)))
    assert model.base_tiers == (RateTier(54.0, 30.0), RateTier(6.0, 100.0))
    original = dataclasses.replace(builtin("micro"), radio_model=model)
    path = tmp_path / "tiers.yaml"
    save_scenario(path, original)
    assert "base_tiers" in path.read_text()
    loaded = load_scenario(path)
    assert loaded == original
    assert loaded.digest() == original.digest() != builtin("micro").digest()
    a, b = original.to_network(), loaded.to_network()
    assert (a.link_vap == b.link_vap).all() and (a.rates == b.rates).all()
    assert not np.array_equal(a.rates, builtin("micro").to_network().rates)


@pytest.mark.parametrize("tiers, field", [
    ([[54, 30], [60, 100]], r"radio_model\.base_tiers\[1\]\.rate_mbps: "),
    ([[54, 30], [6, 20]], r"radio_model\.base_tiers\[1\]\.range_m: "),
    ([[54]], r"radio_model\.base_tiers\[0\]: "),
    ([[54, "far"]], r"radio_model\.base_tiers\[0\]\.range_m: "),
    ([], r"radio_model\.base_tiers: "),
    (7, r"radio_model\.base_tiers: "),
])
def test_yaml_bad_tiers_name_the_tier(tmp_path, tiers, field):
    p = tmp_path / "bad.yaml"
    p.write_text(yaml.safe_dump({**_MINIMAL, "radio_model": {"base_tiers": tiers}}))
    with pytest.raises(ScenarioError, match="^" + field):
        load_scenario(p)


_HEADER = (
    f"format: {SCENARIO_FORMAT}\nname: x\n"
    "channels:\n  - {id: a, center_frequency_mhz: 600, bandwidth_mhz: 6}\n"
)


def test_yaml_reads_exponent_floats(tmp_path):
    # YAML 1.1 reads 1e3 (no decimal point) as a string; scenarios read the
    # YAML 1.2 floats
    p = tmp_path / "exp.yaml"
    p.write_text(_HEADER + "aps:\n  - {id: ap0, position: [0, 0]}\nseed: 1\n"
                 "regions:\n  - {count: 2, rect: [0, 0, 1e3, 10]}\n"
                 "  - {count: 1, rect: [-1e308, 0, 0, 1E+1]}\n")
    scn = load_scenario(p)
    assert scn.regions[0].rect == (0.0, 0.0, 1000.0, 10.0)
    assert scn.regions[1].rect == (-1e308, 0.0, 0.0, 10.0)


def test_yaml_exponent_beyond_the_float_range_is_not_finite(tmp_path):
    p = tmp_path / "exp.yaml"
    p.write_text(_HEADER + "aps:\n  - {id: ap0, position: [1e999, 0]}\n"
                 "clients:\n  - {id: c1, position: [10, 0]}\n")
    with pytest.raises(ScenarioError, match=r"^aps\[0\]\.position\[0\]: must be finite"):
        load_scenario(p)


_TRICKY_IDS = ("1e3", "2.5e1", "007", "0x10", "true", "null", "1_000")


def test_yaml_round_trip_keeps_ids_that_read_as_other_types(tmp_path):
    # strings that YAML (or the loader's YAML 1.2 floats) reads as numbers,
    # booleans or null are quoted on save and read back as the same strings
    path = tmp_path / "ids.yaml"
    micro = builtin("micro")
    original = Scenario(
        name="ids",
        channels=tuple(Channel(k, c.center_frequency_mhz, c.bandwidth_mhz)
                       for k, c in zip(_TRICKY_IDS, micro.channels)),
        aps=tuple(AccessPoint(k, (40.0 * j, 0.0)) for j, k in enumerate(_TRICKY_IDS)),
        clients=tuple(Client(k, (40.0 * j + 5.0, 0.0)) for j, k in enumerate(_TRICKY_IDS)),
    )
    save_scenario(path, original)
    loaded = load_scenario(path)
    assert [c.id for c in loaded.channels] == list(_TRICKY_IDS[:len(micro.channels)])
    assert [a.id for a in loaded.aps] == list(_TRICKY_IDS)
    assert [c.id for c in loaded.clients] == list(_TRICKY_IDS)
    assert loaded.digest() == original.digest()


@pytest.mark.parametrize("raw", _TRICKY_IDS)
@pytest.mark.parametrize("field", ["channels", "aps", "clients"])
def test_yaml_unquoted_non_string_id_names_the_field(tmp_path, raw, field):
    ids = {"channels": "a", "aps": "ap0", "clients": "c1"}
    ids[field] = raw
    p = tmp_path / "ids.yaml"
    p.write_text(
        f"format: {SCENARIO_FORMAT}\nname: x\n"
        f"channels:\n  - {{id: {ids['channels']}, center_frequency_mhz: 600, "
        "bandwidth_mhz: 6}\n"
        f"aps:\n  - {{id: {ids['aps']}, position: [0, 0]}}\n"
        f"clients:\n  - {{id: {ids['clients']}, position: [10, 0]}}\n"
    )
    with pytest.raises(ScenarioError, match=rf"^{field}\[0\]\.id: expected a string"):
        load_scenario(p)


# field names of every level, so fuzzed mappings also reach nested checks
_KEYS = st.sampled_from([
    "id", "position", "weight", "radios", "count", "rect", "center_frequency_mhz",
    "bandwidth_mhz", "path_loss_alpha", "carrier_sense_factor",
]) | st.text(max_size=4) | st.integers()


def _nested(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=4)


_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    _nested,
    max_leaves=12,
)
_FIELDS = ("format", "name", "channels", "aps", "clients", "regions", "seed",
           "radio_model")


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(_FIELDS), _VALUES, min_size=1, max_size=3))
def test_yaml_fuzzed_fields_raise_only_scenario_error(tmp_path_factory, fields):
    p = tmp_path_factory.mktemp("fuzz") / "s.yaml"
    p.write_text(yaml.safe_dump({**_MINIMAL, **fields}))
    try:
        load_scenario(p)
    except ScenarioError:
        pass


def test_scenario_digest_tracks_content():
    a = builtin("grid16-unweighted", seed=1)
    b = builtin("grid16-unweighted", seed=2)
    c = builtin("grid16-weighted", seed=1)
    assert len({a.digest(), b.digest(), c.digest()}) == 3
    assert a.digest() == builtin("grid16-unweighted", seed=1).digest()


def test_save_result_json_is_finite(tmp_path):
    res = run(builtin("micro"), OptimizerPolicy(kind="greedy", iterations=50, seed=0))
    out = tmp_path / "res.json"
    save_result(out, res)
    payload = json.loads(out.read_text())
    assert payload["feasible"] is True
    assert isinstance(payload["final_energy"], float)
    assert set(payload["configuration"]) == {"association", "channel"}
    assert "Infinity" not in out.read_text()
    assert math.isfinite(payload["final_weighted_throughput"])
