import copy
import dataclasses
import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funnelnav.errors import InvalidScenario
from funnelnav.scenario import BUILTIN_NAMES, Scenario, load_scenario


class TestSerialization:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_dict_round_trip(self, name):
        sc = load_scenario(name)
        data = sc.to_dict()
        again = Scenario.from_dict(data)
        assert again.to_dict() == data

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_packaged_file_is_canonical(self, name):
        raw = (resources.files("funnelnav") / "scenarios" / f"{name}.json").read_bytes()
        assert raw.decode("utf-8") == json.dumps(load_scenario(name).to_dict(), indent=2)

    def test_builtin_names_are_the_packaged_files(self):
        files = (resources.files("funnelnav") / "scenarios").iterdir()
        assert sorted(BUILTIN_NAMES) == sorted(f.name.removesuffix(".json") for f in files)

    def test_json_file_round_trip(self, tmp_path):
        sc = load_scenario("long-run")
        path = tmp_path / "scenario.json"
        sc.save_json(path)
        loaded = Scenario.load_json(path)
        assert loaded.to_dict() == sc.to_dict()
        # the file is plain JSON with explicit sections
        raw = json.loads(path.read_text())
        assert {"workspace", "start", "goal", "vessel", "disturbance",
                "controller", "kinodynamic", "planner", "trajopt", "sim"} <= set(raw)

    def test_load_scenario_resolves_builtins_and_files(self, tmp_path):
        assert load_scenario("benign").name == "benign"
        path = tmp_path / "sc.json"
        load_scenario("benign").save_json(path)
        assert load_scenario(str(path)).name == "benign"

    def test_with_seed_changes_disturbance(self):
        sc = load_scenario("long-run")
        other = sc.with_seed(99)
        assert other.seed == 99
        assert other.planner.seed == 99
        ts = np.linspace(0, 50, 100)
        diffs = [abs(sc.disturbance.value(t)[0] - other.disturbance.value(t)[0]) for t in ts]
        assert max(diffs) > 1e-6


class TestValidation:
    def test_clearance_must_exceed_funnel(self):
        sc = load_scenario("benign")
        sc.workspace.clearance = 20.0  # below rho_d0 = 28
        with pytest.raises(ValueError):
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
