import copy
import dataclasses
import hashlib
import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funnelnav.dynamics import AxisDisturbance, DisturbanceBatch, DisturbanceProfile
from funnelnav.errors import InvalidScenario
from funnelnav.geometry import inflate
from funnelnav.harness import write_json
from funnelnav.scenario import BUILTIN_NAMES, Scenario, _is_number, load_scenario
from oracles import table_oracle, with_seed_oracle


class TestSerialization:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_dict_round_trip(self, name):
        sc = load_scenario(name)
        data = sc.to_dict()
        again = Scenario.from_dict(data)
        assert again.to_dict() == data

    # sha256 of each builtin's json.dumps(to_dict(), indent=2) bytes, recorded while to_dict
    # still wrote every section key by key.
    _SAVED = {"benign": "9b4827aa1d007fa47fd93d1b73dd54cea494b9d8fb48fdb2675221afc4ec42af",
              "long-run": "c7ebdd5febd25c21d0b371e832dc42e92974f7a587ce8bd0c8ba614de0558b47",
              "trajectory-demo": "84c6bf3f366987a1120782a8daf9acb6d98671cfad40217a3d566773f6287a16"}

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_packaged_file_is_canonical(self, name):
        raw = (resources.files("funnelnav") / "scenarios" / f"{name}.json").read_bytes()
        saved = json.dumps(load_scenario(name).to_dict(), indent=2).encode("utf-8")
        assert raw == saved
        assert hashlib.sha256(saved).hexdigest() == self._SAVED[name]

    def test_builtin_names_are_the_packaged_files(self):
        files = (resources.files("funnelnav") / "scenarios").iterdir()
        assert sorted(BUILTIN_NAMES) == sorted(f.name.removesuffix(".json") for f in files)

    def test_json_file_round_trip(self, tmp_path):
        sc = load_scenario("long-run")
        path = tmp_path / "scenario.json"
        write_json(path, sc.to_dict())
        loaded = load_scenario(str(path))
        assert loaded.to_dict() == sc.to_dict()
        # the file is plain JSON with explicit sections
        raw = json.loads(path.read_text())
        assert {"workspace", "start", "goal", "vessel", "disturbance",
                "controller", "kinodynamic", "planner", "trajopt", "sim"} <= set(raw)

    def test_load_scenario_resolves_builtins_and_files(self, tmp_path):
        assert load_scenario("benign").name == "benign"
        path = tmp_path / "sc.json"
        write_json(path, load_scenario("benign").to_dict())
        assert load_scenario(str(path)).name == "benign"

    def test_directory_is_invalid_scenario(self, tmp_path):
        with pytest.raises(InvalidScenario, match="directory"):
            load_scenario(str(tmp_path))

    def test_with_seed_changes_disturbance(self):
        sc = load_scenario("long-run")
        other = sc.with_seed(99)
        assert other.seed == 99
        assert other.planner.seed == 99
        ts = np.linspace(0, 50, 100)
        diffs = [abs(sc.disturbance.value(t)[0] - other.disturbance.value(t)[0]) for t in ts]
        assert max(diffs) > 1e-6


class TestWithSeed:
    """with_seed is one replace call; the round trip through the schema it replaced is
    oracles.with_seed_oracle."""

    SEEDS = (0, 1, 99, 2**32 + 5)

    def test_skips_the_schema(self, monkeypatch):
        sc = load_scenario("long-run")

        def schema(*args):
            raise AssertionError("with_seed went through the schema")
        monkeypatch.setattr(Scenario, "to_dict", schema)
        monkeypatch.setattr(Scenario, "from_dict", schema)
        other = sc.with_seed(5)
        assert (other.seed, other.planner.seed, other.disturbance.seed) == (5, 5, 5)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_same_scenario_as_the_round_trip(self, name):
        sc = load_scenario(name)
        for seed in self.SEEDS:
            ours, oracle = sc.with_seed(seed), with_seed_oracle(sc, seed)
            assert ours.to_dict() == oracle.to_dict()
            assert json.dumps(ours.to_dict(), indent=2) == json.dumps(oracle.to_dict(), indent=2)

    def test_same_disturbance_tables_as_the_round_trip(self):
        sc = load_scenario("long-run")
        ts = np.linspace(0.0, sc.horizon, 4001)
        for seed in self.SEEDS:
            ours = table_oracle(DisturbanceBatch([sc.with_seed(seed).disturbance]), ts)
            oracle = table_oracle(DisturbanceBatch([with_seed_oracle(sc, seed).disturbance]), ts)
            assert ours.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_base_unchanged(self, name):
        sc = load_scenario(name)
        before, disturbance, planner = sc.to_dict(), sc.disturbance, sc.planner
        for seed in self.SEEDS:
            sc.with_seed(seed)
        assert sc.to_dict() == before
        assert sc.disturbance is disturbance and sc.planner is planner

    def test_seeded_copies_share_the_planner_workspace(self):
        sc = load_scenario("long-run")
        planner_ws = sc.planner_workspace()
        assert sc.with_seed(3).planner_workspace() is sc.with_seed(4).planner_workspace() is planner_ws
        assert planner_ws.clearance == sc.workspace.clearance * (1.0 + sc.planner_margin_frac)
        assert sc.with_seed(3).planner_workspace().edges() is planner_ws.edges()
        # A replaced workspace section, or another margin, gets its own.
        wider = dataclasses.replace(sc, workspace=dataclasses.replace(sc.workspace, clearance=5.0))
        assert wider.planner_workspace() is not planner_ws
        assert wider.planner_workspace().clearance == 5.0 * (1.0 + sc.planner_margin_frac)
        assert wider.planner_workspace().edges() is not planner_ws.edges()
        margin = dataclasses.replace(sc, planner_margin_frac=0.5)
        assert margin.planner_workspace() is not planner_ws
        assert margin.planner_workspace().clearance == sc.workspace.clearance * 1.5
        assert sc.planner_workspace() is planner_ws

    def test_negative_seed(self):
        with pytest.raises(InvalidScenario, match="-1"):
            load_scenario("benign").with_seed(-1)

    @pytest.mark.parametrize("path", [("seed",), ("planner", "seed"), ("disturbance", "seed")])
    def test_negative_seed_in_a_file(self, path):
        data = load_scenario("benign").to_dict()
        _parent(data, path)[path[-1]] = -2
        with pytest.raises(InvalidScenario, match="seed"):
            Scenario.from_dict(data)


class TestValidation:
    def test_clearance_must_exceed_funnel(self):
        sc = load_scenario("benign")
        sc.workspace = dataclasses.replace(sc.workspace, clearance=20.0)  # below rho_d0 = 28
        with pytest.raises(ValueError):
            sc.validate()

    def test_workspace_of_a_copy_cannot_change_its_base(self):
        sc = load_scenario("long-run")
        inflated = sc.workspace.inflated_obstacles()
        other = sc.with_seed(3)
        assert other.workspace is sc.workspace  # shared: sound only because it is frozen
        with pytest.raises(dataclasses.FrozenInstanceError):
            other.workspace.clearance = 5.0
        assert isinstance(other.workspace.obstacles, tuple)
        assert sc.workspace.clearance == 30.0 and sc.workspace.inflated_obstacles() is inflated
        # A changed copy inflates anew; its base keeps its own inflation.
        narrow = dataclasses.replace(sc.workspace, clearance=5.0)
        for raw, wide, tight in zip(sc.workspace.obstacles, inflated, narrow.inflated_obstacles()):
            assert np.array_equal(tight.vertices, inflate(raw, 5.0, narrow.inflation_k_gon).vertices)
            assert np.abs(tight.vertices).max() < np.abs(wide.vertices).max()
        assert sc.workspace.inflated_obstacles() is inflated

    def test_two_loads_inflate_their_own_obstacles(self):
        # No process-wide memo hands one inflated polygon to both loads: each workspace
        # inflates its own, the same bits, and editing one leaves the other as it was.
        first = load_scenario("long-run").workspace.inflated_obstacles()
        second = load_scenario("long-run").workspace.inflated_obstacles()
        assert len(first) == len(second) == 4
        for a, b in zip(first, second):
            assert a is not b and not np.shares_memory(a.vertices, b.vertices)
            assert np.array_equal(a.vertices.view(np.uint64), b.vertices.view(np.uint64))
        kept = second[0].vertices.copy()
        first[0].vertices[0] += 1.0
        assert np.array_equal(second[0].vertices, kept)

    def test_disturbance_of_a_copy_cannot_change_its_base(self):
        sc = load_scenario("long-run")
        before, at_zero = sc.to_dict(), np.array(sc.disturbance.value(0.0))
        other = sc.with_seed(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            other.disturbance.x = AxisDisturbance(bias=50.0)
        assert sc.to_dict() == before
        assert np.array(sc.disturbance.value(0.0)).tobytes() == at_zero.tobytes()
        # A changed copy draws its terms from its own fields.
        p = DisturbanceProfile(x=AxisDisturbance(bias=1.0))
        assert dataclasses.replace(p, x=AxisDisturbance(bias=50.0)).value(0.0)[0] == 50.0
        # Equal fields, equal profiles: built positionally (x, y, psi, seed) or by keyword.
        seeded, ts = other.disturbance, np.linspace(0.0, sc.horizon, 101)
        for again in (DisturbanceProfile(seeded.x, seeded.y, seeded.psi, 3),
                      DisturbanceProfile(x=seeded.x, y=seeded.y, psi=seeded.psi, seed=3)):
            assert again == seeded and hash(again) == hash(seeded) and again is not seeded
            assert again.value(ts).tobytes() == seeded.value(ts).tobytes()
        assert DisturbanceProfile(x=AxisDisturbance(bias=1.0)) == p and p != DisturbanceProfile(seed=1)

    @pytest.mark.parametrize("key", ["sway_bound", "planner_margin_frac"])
    def test_negative_range_rejected_at_load(self, key):
        # Each ended in numpy's or inflate's ValueError at use: check's sampler, plan's inflation.
        data = load_scenario("benign").to_dict()
        data[key] = -1.0
        with pytest.raises(InvalidScenario, match=key):
            Scenario.from_dict(data)
        data[key] = 0.0
        Scenario.from_dict(data).validate()

    @pytest.mark.parametrize("k_gon", [-8, 0, 3, 5, 7])
    def test_inflation_k_gon_below_inflate_minimum(self, k_gon):
        data = load_scenario("long-run").to_dict()
        data["workspace"]["inflation_k_gon"] = k_gon
        with pytest.raises(InvalidScenario, match="inflation_k_gon"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("k_gon", [4, 8])
    def test_inflation_k_gon_at_inflate_minimum(self, k_gon):
        data = load_scenario("long-run").to_dict()
        data["workspace"]["inflation_k_gon"] = k_gon
        sc = Scenario.from_dict(data)
        assert all(len(p) >= k_gon for p in sc.workspace.inflated_obstacles())

    def test_goal_on_the_start(self):
        # It ended in rrt's "degenerate path with zero length" ValueError.
        data = load_scenario("benign").to_dict()
        data["goal"]["position"] = [data["start"]["p_x"], data["start"]["p_y"]]
        sc = Scenario.from_dict(data)
        with pytest.raises(InvalidScenario, match="start"):
            sc.validate()

    def test_goal_in_free_space_required(self):
        sc = load_scenario("long-run")
        sc.goal = (120.0, -45.0)  # obstacle center
        with pytest.raises(ValueError):
            sc.validate()

    def test_builtin_scenarios_valid(self):
        for name in BUILTIN_NAMES:
            load_scenario(name).validate()

    def test_bad_fields_rejected(self):
        sc = load_scenario("benign")
        with pytest.raises(ValueError):
            Scenario.from_dict({**sc.to_dict(), "sim": {"dt": -1.0, "horizon": 10.0}})
        with pytest.raises(InvalidScenario, match="no tick"):  # round(0.5) is 0
            Scenario.from_dict({**sc.to_dict(), "sim": {"dt": 20.0, "horizon": 10.0}})


def _paths(node, path=()):
    """The path of every entry under a nested dict or list, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from _paths(value, (*path, key))


def _parent(data, path):
    for key in path[:-1]:
        data = data[key]
    return data


BUILTIN_DICTS = {name: load_scenario(name).to_dict() for name in BUILTIN_NAMES}
# (builtin, path) of every dict key, and of every leaf: a value that is no dict or list.
KEYS = [(name, p) for name, d in BUILTIN_DICTS.items() for p in _paths(d)
        if isinstance(_parent(d, p), dict)]
LEAVES = [(name, p) for name, d in BUILTIN_DICTS.items() for p in _paths(d)
          if not isinstance(_parent(d, p)[p[-1]], (dict, list))]
# The key paths a scenario must state; every other key may be left out.
REQUIRED = {
    "workspace", "workspace.bounds", "workspace.clearance",
    "start", "start.p_x", "start.p_y", "start.psi",
    "goal", "goal.position", "goal.radius",
    "vessel", "vessel.m", "vessel.Iz", "vessel.Delta_x",
    "controller", "controller.k_d", "controller.k_u", "controller.k_o", "controller.k_r",
    "controller.rho_d_min", "controller.F_T_max", "controller.alpha_r_max",
    "controller.funnels",
    *(f"controller.funnels.{name}{key}" for name in "duor" for key in ("", ".rho0", ".rho_inf")),
    "kinodynamic", "kinodynamic.v_max", "kinodynamic.a_max",
}


def _dotted(path) -> str:
    return ".".join(map(str, path))


def _at(data, path):
    return _parent(data, path)[path[-1]]


def _required_only(node, path=()):
    """node without the dict keys outside REQUIRED."""
    if not isinstance(node, dict):
        return node
    return {key: _required_only(value, (*path, key)) for key, value in node.items()
            if _dotted((*path, key)) in REQUIRED}


def _scenario_or_invalid(data):
    """from_dict's Scenario, or None when it raises InvalidScenario; nothing else may escape."""
    try:
        return Scenario.from_dict(data)
    except InvalidScenario:
        return None


class TestMalformed:
    def test_missing_key_wrong_type_and_bad_lead(self):
        data = load_scenario("benign").to_dict()
        del data["goal"]["radius"]
        with pytest.raises(InvalidScenario, match="radius"):
            Scenario.from_dict(data)
        data = load_scenario("benign").to_dict()
        data["start"]["p_x"] = "0.0"
        with pytest.raises(InvalidScenario, match="p_x"):
            Scenario.from_dict(data)
        data = load_scenario("benign").to_dict()
        data["reference_lead"] = "soon"
        with pytest.raises(InvalidScenario, match="reference_lead"):
            Scenario.from_dict(data)
        data["reference_lead"] = 2.5
        assert Scenario.from_dict(data).reference_lead == 2.5
        # Python's json reads NaN and Infinity, which every comparison lets through
        data = load_scenario("benign").to_dict()
        data["workspace"]["clearance"] = float("nan")
        with pytest.raises(InvalidScenario, match="clearance"):
            Scenario.from_dict(data)
        data = load_scenario("benign").to_dict()
        data["sim"]["horizon"] = float("inf")
        with pytest.raises(InvalidScenario, match="horizon"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("section, key", [("workspace", "bounds"), ("goal", "position"),
                                              ("trajopt", "dt_bounds")])
    def test_fixed_length_lists(self, section, key):
        good = BUILTIN_DICTS["long-run"][section][key]
        for value in (good[:-1], [*good, 1.0], [*good[:-1], [good[-1]]], good[0], []):
            data = copy.deepcopy(BUILTIN_DICTS["long-run"])
            data[section][key] = value
            with pytest.raises(InvalidScenario, match=key):
                Scenario.from_dict(data)

    def test_number_leaves(self):
        # finite ints and floats of any numeric type, never a bool
        accepted = (1, 1.0, -0.0, 2**70, np.float64(1.0), np.int64(1), np.float32(1.5))
        rejected = (True, False, np.True_, math.nan, math.inf, -math.inf, np.float64("nan"),
                    "1", None, [1.0])
        assert all(map(_is_number, accepted))
        assert not any(map(_is_number, rejected))

    def test_integers_within_float64s_exact_range(self):
        # numpy cannot take an int beyond 2**53 as a float: such a leaf fails at load, typed.
        # A seed is numpy's: any non-negative integer loads.
        for value in (2**53 + 1, -2**53 - 1, 2**70):
            for path in (("disturbance", "axes", "x", "bias"), ("goal", "position", 0),
                         ("planner", "max_iters")):
                data = copy.deepcopy(BUILTIN_DICTS["long-run"])
                _parent(data, path)[path[-1]] = value
                with pytest.raises(InvalidScenario, match="cannot be"):
                    Scenario.from_dict(data)
        data = copy.deepcopy(BUILTIN_DICTS["long-run"])
        data["disturbance"]["axes"]["x"]["bias"] = -2**53
        data["planner"]["max_iters"] = 2**53
        data["seed"] = data["planner"]["seed"] = 2**70
        sc = Scenario.from_dict(data)
        assert (sc.disturbance.x.bias, sc.planner.max_iters, sc.seed, sc.planner.seed) == (
            -2**53, 2**53, 2**70, 2**70)

    def test_tables_cover_the_builtins(self):
        assert {name for name, _ in KEYS} == {name for name, _ in LEAVES} == set(BUILTIN_NAMES)
        assert (len(KEYS), len(LEAVES)) == (315, 331)
        assert (sum(name == "long-run" for name, _ in KEYS), len(REQUIRED)) == (105, 38)

    def test_deleted_key(self):
        """Deleting a key in REQUIRED fails the load. Deleting any other key loads, and
        its field takes the value a file of only the required keys loads with: its
        dataclass's default, and for the planner's seed the scenario's seed."""
        defaults = {name: Scenario.from_dict(_required_only(d)).to_dict()
                    for name, d in BUILTIN_DICTS.items()}
        for name, path in KEYS:
            data = copy.deepcopy(BUILTIN_DICTS[name])
            del _parent(data, path)[path[-1]]
            out = _scenario_or_invalid(data)
            assert (out is None) == (_dotted(path) in REQUIRED), (name, path)
            if out is not None:
                expected = copy.deepcopy(defaults[name])
                expected["planner"]["seed"] = out.seed
                assert _at(out.to_dict(), path) == _at(expected, path), (name, path)

    def test_required_keys_alone_load_with_the_dataclass_defaults(self):
        sc = Scenario.from_dict(_required_only(BUILTIN_DICTS["long-run"]))
        parts = {"": sc, "workspace": sc.workspace, "start": sc.start, "vessel": sc.vessel,
                 "vessel.drag": sc.vessel.drag, "controller": sc.controller,
                 "planner": sc.planner, "trajopt": sc.trajopt,
                 **{f"disturbance.axes.{n}": a for n, a in zip("x y psi".split(), sc.disturbance.axes)}}
        for section, part in parts.items():
            for field in dataclasses.fields(part):
                if field.default is not dataclasses.MISSING:
                    default = field.default
                elif field.default_factory is not dataclasses.MISSING:
                    default = field.default_factory()
                else:
                    continue
                if not field.name.startswith("_") and f"{section}.{field.name}" not in REQUIRED:
                    assert getattr(part, field.name) == default, (section, field.name)
        assert sc.disturbance.seed == 0

    @pytest.mark.parametrize("section", sorted({_dotted(p[:-1]) for name, p in KEYS
                                                if name == "long-run"}),
                             ids=lambda section: section or "top")
    def test_unknown_key(self, section):
        """A key the schema does not have fails the load and is named. Its value is a
        copy of a subsection where the section has one (an axis or a funnel in
        their maps), else a number."""
        data = load_scenario("long-run").to_dict()
        node = _at(data, tuple(section.split("."))) if section else data
        node["max_outr"] = copy.deepcopy(next((v for v in node.values() if isinstance(v, dict)), 5))
        with pytest.raises(InvalidScenario, match="max_outr"):
            Scenario.from_dict(data)

    def test_integer_keys_and_numbers_in_place_of_sections(self):
        data = load_scenario("long-run").to_dict()
        data["trajopt"]["max_outer"] = 200.0
        with pytest.raises(InvalidScenario, match="max_outer"):
            Scenario.from_dict(data)
        for value in ([3.0], {}, {"bound": 3.0}):
            data = load_scenario("long-run").to_dict()
            data["sway_bound"] = value
            with pytest.raises(InvalidScenario, match="sway_bound"):
                Scenario.from_dict(data)
        # Sections written from their dataclass fields: trajopt and planner check
        # no field of their own, so only to_dict's uncopied values catch these.
        for path in (("trajopt", "w1"), ("planner", "goal_bias"), ("vessel", "drag", "d1_u"),
                     ("disturbance", "axes", "x", "bias"), ("controller", "funnels", "d", "rho0")):
            for value in ([3.0], {}, {"bound": 3.0}):
                data = load_scenario("long-run").to_dict()
                _parent(data, path)[path[-1]] = value
                with pytest.raises(InvalidScenario):
                    Scenario.from_dict(data)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(target=st.sampled_from(LEAVES),
           value=st.one_of(st.text(max_size=6), st.none(),
                           st.lists(st.one_of(st.floats(), st.text(max_size=3)), max_size=4)))
    def test_replaced_leaf(self, target, value):
        name, path = target
        data = copy.deepcopy(BUILTIN_DICTS[name])
        _parent(data, path)[path[-1]] = value
        out = _scenario_or_invalid(data)
        assert out is None or isinstance(out, Scenario)
