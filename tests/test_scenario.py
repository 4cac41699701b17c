import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funnelnav.errors import InvalidScenario
from funnelnav.scenario import (
    BUILTIN_SCENARIOS,
    Scenario,
    benign_scenario,
    load_scenario,
    long_run_scenario,
)


class TestSerialization:
    @pytest.mark.parametrize("factory", list(BUILTIN_SCENARIOS.values()))
    def test_dict_round_trip(self, factory):
        sc = factory()
        data = sc.to_dict()
        again = Scenario.from_dict(data)
        assert again.to_dict() == data

    def test_json_file_round_trip(self, tmp_path):
        sc = long_run_scenario()
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
        benign_scenario().save_json(path)
        assert load_scenario(str(path)).name == "benign"

    def test_with_seed_changes_disturbance(self):
        sc = long_run_scenario()
        other = sc.with_seed(99)
        assert other.seed == 99
        assert other.planner.seed == 99
        ts = np.linspace(0, 50, 100)
        diffs = [abs(sc.disturbance.value(t)[0] - other.disturbance.value(t)[0]) for t in ts]
        assert max(diffs) > 1e-6


class TestValidation:
    def test_clearance_must_exceed_funnel(self):
        sc = benign_scenario()
        sc.workspace.clearance = 20.0  # below rho_d0 = 28
        with pytest.raises(ValueError):
            sc.validate()

    def test_goal_in_free_space_required(self):
        sc = long_run_scenario()
        sc.goal = (120.0, -45.0)  # obstacle center
        with pytest.raises(ValueError):
            sc.validate()

    def test_builtin_scenarios_valid(self):
        for factory in BUILTIN_SCENARIOS.values():
            factory().validate()

    def test_bad_fields_rejected(self):
        sc = benign_scenario()
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


BUILTIN_DICTS = {name: factory().to_dict() for name, factory in BUILTIN_SCENARIOS.items()}
# (builtin, path) of every dict key, and of every leaf: a value that is no dict or list.
KEYS = [(name, p) for name, d in BUILTIN_DICTS.items() for p in _paths(d)
        if isinstance(_parent(d, p), dict)]
LEAVES = [(name, p) for name, d in BUILTIN_DICTS.items() for p in _paths(d)
          if not isinstance(_parent(d, p)[p[-1]], (dict, list))]


def _scenario_or_invalid(data):
    """from_dict's Scenario, or None when it raises InvalidScenario; nothing else may escape."""
    try:
        return Scenario.from_dict(data)
    except InvalidScenario:
        return None


class TestMalformed:
    def test_missing_key_wrong_type_and_bad_lead(self):
        data = benign_scenario().to_dict()
        del data["goal"]["radius"]
        with pytest.raises(InvalidScenario, match="radius"):
            Scenario.from_dict(data)
        data = benign_scenario().to_dict()
        data["start"]["p_x"] = "0.0"
        with pytest.raises(InvalidScenario, match="p_x"):
            Scenario.from_dict(data)
        data = benign_scenario().to_dict()
        data["reference_lead"] = "soon"
        with pytest.raises(InvalidScenario, match="reference_lead"):
            Scenario.from_dict(data)
        data["reference_lead"] = 2.5
        assert Scenario.from_dict(data).reference_lead == 2.5

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(target=st.sampled_from(KEYS))
    def test_deleted_key(self, target):
        name, path = target
        data = copy.deepcopy(BUILTIN_DICTS[name])
        del _parent(data, path)[path[-1]]
        out = _scenario_or_invalid(data)
        assert out is None or isinstance(out, Scenario)

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
