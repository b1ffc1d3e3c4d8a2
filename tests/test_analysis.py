import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cascadekit import (
    Architecture,
    Cascade,
    ClassifierModel,
    Dataset,
    GainScenario,
    Instance,
    StageSpec,
    TrainConfig,
    ValidationError,
    empirical_gain,
    gain_report,
    gain_upper_bound,
    load_scenario,
    max_gain_bound,
    predict_gain,
    save_scenario,
    solve_original_exits,
)
from cascadekit.analysis import scenario_from_dict, scenario_to_dict


def worked_scenario():
    """100 instances, 6-layer model inserted between 2- and 12-layer stages."""
    return GainScenario(
        layer_counts=(2, 12),
        accuracies=(0.85, 0.94),
        insert_after=0,
        new_layers=6,
        new_accuracy=0.91,
        new_exits=(50, 30),
        new_model_exits=20,
    )


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    steps = draw(
        st.lists(st.integers(min_value=2, max_value=12), min_size=n, max_size=n)
    )
    layer_counts = tuple(np.cumsum(steps).tolist())
    insert_after = draw(st.integers(min_value=0, max_value=n - 2))
    lo, hi = layer_counts[insert_after], layer_counts[insert_after + 1]
    new_layers = draw(st.integers(min_value=lo + 1, max_value=hi - 1))
    accs = draw(
        st.lists(
            st.floats(min_value=0.3, max_value=1.0),
            min_size=n + 1,
            max_size=n + 1,
        )
    )
    # keep the insertion-relevant triple ordered so the tight bound applies
    triple = sorted(accs[insert_after : insert_after + 3])
    accuracies = list(accs[:n])
    accuracies[insert_after] = triple[0]
    accuracies[insert_after + 1] = triple[2]
    new_accuracy = triple[1]
    new_exits = tuple(
        draw(st.lists(st.integers(min_value=0, max_value=200), min_size=n, max_size=n))
    )
    new_model_exits = draw(st.integers(min_value=0, max_value=200))
    assume(sum(new_exits) + new_model_exits >= 1)
    return GainScenario(
        layer_counts=layer_counts,
        accuracies=tuple(accuracies),
        insert_after=insert_after,
        new_layers=new_layers,
        new_accuracy=new_accuracy,
        new_exits=new_exits,
        new_model_exits=new_model_exits,
    )


# --- scenario validation -------------------------------------------------------


def test_scenario_validation():
    worked_scenario()
    with pytest.raises(ValidationError, match="two original"):
        GainScenario((12,), (0.9,), 0, 6, 0.9, (10,), 5)
    with pytest.raises(ValidationError, match="align"):
        GainScenario((2, 12), (0.9,), 0, 6, 0.9, (10, 5), 5)
    with pytest.raises(ValidationError, match="ascending"):
        GainScenario((12, 2), (0.8, 0.9), 0, 6, 0.9, (10, 5), 5)
    with pytest.raises(ValidationError, match="strictly between"):
        GainScenario((2, 12), (0.8, 0.9), 0, 12, 0.9, (10, 5), 5)
    with pytest.raises(ValidationError, match="strictly between"):
        GainScenario((2, 12), (0.8, 0.9), 0, 2, 0.9, (10, 5), 5)
    with pytest.raises(ValidationError, match="insert_after"):
        GainScenario((2, 12), (0.8, 0.9), 1, 6, 0.9, (10, 5), 5)
    with pytest.raises(ValidationError, match="non-negative"):
        GainScenario((2, 12), (0.8, 0.9), 0, 6, 0.9, (-1, 5), 5)
    with pytest.raises(ValidationError, match="at least one instance"):
        GainScenario((2, 12), (0.8, 0.9), 0, 6, 0.9, (0, 0), 0)
    with pytest.raises(ValidationError, match="accuracies"):
        GainScenario((2, 12), (0.8, 1.2), 0, 6, 0.9, (10, 5), 5)


@pytest.mark.parametrize(
    "fields, name, value",
    [
        ({"layer_counts": (2.5, 12)}, "layer_counts", 2.5),
        ({"new_layers": 6.5}, "new_layers", 6.5),
        ({"new_exits": (True, 30)}, "new_exits", True),
        ({"new_exits": (50, 3.5)}, "new_exits", 3.5),
        ({"new_model_exits": 20.0}, "new_model_exits", 20.0),
        ({"insert_after": False}, "insert_after", False),
    ],
    ids=["layer-count", "new-layers", "bool-exits", "float-exits", "new-model-exits", "insert-after"],
)
def test_scenario_counts_must_be_integers(fields, name, value):
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        GainScenario(**{**scenario_to_dict(worked_scenario()), **fields})


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"new_exits": (10**400, 1)}, "new_exits"),
        ({"new_model_exits": 10**400}, "new_model_exits"),
        ({"new_exits": (10**308, 10**308), "new_model_exits": 0}, "num_instances"),
    ],
    ids=["exits", "new-model-exits", "total"],
)
def test_scenario_counts_a_float_cannot_hold_are_refused(fields, name):
    # solve_original_exits and predict_gain used to raise a raw OverflowError.
    with pytest.raises(ValidationError, match=f"^{name} must be a number, got [12]0000"):
        GainScenario(**{**scenario_to_dict(worked_scenario()), **fields})


def test_scenario_keeps_numpy_counts_as_python_ints(tmp_path):
    numpy_counts = {
        "layer_counts": [np.int64(2), np.int64(12)],
        "insert_after": np.int8(0),
        "new_layers": np.int32(6),
        "new_exits": (np.int64(50), 30),
        "new_model_exits": np.int64(20),
        "accuracies": (np.float64(0.85), np.float64(0.94)),
        "new_accuracy": np.float64(0.91),
    }
    scenario = GainScenario(**{**scenario_to_dict(worked_scenario()), **numpy_counts})
    assert scenario == worked_scenario()
    assert all(type(a) is float for a in (*scenario.accuracies, scenario.new_accuracy))
    save_scenario(scenario, tmp_path / "s.json")
    assert load_scenario(tmp_path / "s.json") == worked_scenario()


def test_num_instances():
    assert worked_scenario().num_instances == 100


# --- worked example -------------------------------------------------------------


def test_solve_original_exits_worked_example():
    # moved mass = (6/12) * (30 + 20) = 25
    exits = solve_original_exits(worked_scenario())
    np.testing.assert_allclose(exits.exits, (45.0, 55.0), atol=1e-12)
    assert exits.feasible


def test_worked_example_satisfies_both_constraints():
    scenario = worked_scenario()
    exits = solve_original_exits(scenario).exits
    # count: 45 + 55 == 50 + 30 + 20
    assert sum(exits) == pytest.approx(scenario.num_instances, abs=1e-9)
    # cost with cumulative per-exit charges: exits at the k-th model pay
    # every stage up to k, and the enlarged cascade pays the insert too
    assert 45 * 2 + 55 * (2 + 12) == pytest.approx(
        50 * 2 + 20 * (2 + 6) + 30 * (2 + 6 + 12), abs=1e-9
    )


def test_predict_gain_worked_example():
    # (20 * 0.06 - 25 * 0.09) / 100
    assert predict_gain(worked_scenario()) == pytest.approx(-0.0105, abs=1e-12)


def test_gain_upper_bound_worked_example():
    # 0.09 * (20 - (2/12) * 50) / 100
    assert gain_upper_bound(worked_scenario()) == pytest.approx(0.0105, abs=1e-12)


def test_max_gain_bound_worked_example():
    # mass (45 + 55)/100, gap 0.09, cost ratio 2/12
    value = max_gain_bound((2, 12), (0.85, 0.94), (45.0, 55.0))
    assert value == pytest.approx(0.09 * (1 - 2 / 12), abs=1e-12)


def test_gain_report_worked_example():
    report = gain_report(worked_scenario())
    assert report["predicted_gain"] == pytest.approx(-0.0105, abs=1e-12)
    np.testing.assert_allclose(report["original_exits"], (45.0, 55.0), atol=1e-12)
    assert report["feasible"] is True
    assert report["gain_upper_bound"] == pytest.approx(0.0105, abs=1e-12)
    assert report["max_gain_bound"] == pytest.approx(0.075, abs=1e-12)


def test_infeasible_scenario_is_flagged():
    # nearly everything exits deep while the insert sits just under the top:
    # matching cost forces a negative shallow exit count
    scenario = GainScenario(
        layer_counts=(2, 12),
        accuracies=(0.8, 0.9),
        insert_after=0,
        new_layers=10,
        new_accuracy=0.85,
        new_exits=(0, 100),
        new_model_exits=10,
    )
    exits = solve_original_exits(scenario)
    assert exits.exits[0] < 0
    assert not exits.feasible
    assert gain_report(scenario)["feasible"] is False


def test_gain_upper_bound_precondition():
    scenario = GainScenario(
        layer_counts=(2, 12),
        accuracies=(0.85, 0.94),
        insert_after=0,
        new_layers=6,
        new_accuracy=0.99,  # above both neighbors
        new_exits=(50, 30),
        new_model_exits=20,
    )
    with pytest.raises(ValidationError, match="between the neighboring"):
        gain_upper_bound(scenario)
    assert gain_report(scenario)["gain_upper_bound"] is None


def test_max_gain_bound_validation():
    with pytest.raises(ValidationError, match="two models"):
        max_gain_bound((2,), (0.9,), (10.0,))
    with pytest.raises(ValidationError, match="align"):
        max_gain_bound((2, 12), (0.9,), (10.0, 5.0))
    with pytest.raises(ValidationError, match="positive total"):
        max_gain_bound((2, 12), (0.8, 0.9), (0.0, 0.0))


# --- properties ------------------------------------------------------------------


@settings(max_examples=200)
@given(scenarios())
def test_solved_exits_satisfy_matched_cost(scenario):
    i = scenario.insert_after
    exits = solve_original_exits(scenario).exits
    cum = np.cumsum(scenario.layer_counts)
    # count is preserved
    assert sum(exits) == pytest.approx(scenario.num_instances, abs=1e-9)
    untouched = [k for k in range(len(exits)) if k not in (i, i + 1)]
    for k in untouched:
        assert exits[k] == scenario.new_exits[k]
    # the two adjusted stages absorb the insert's cost exactly
    lhs = exits[i] * cum[i] + exits[i + 1] * cum[i + 1]
    rhs = (
        scenario.new_exits[i] * cum[i]
        + scenario.new_model_exits * (cum[i] + scenario.new_layers)
        + scenario.new_exits[i + 1] * (cum[i + 1] + scenario.new_layers)
    )
    assert lhs == pytest.approx(rhs, rel=1e-9)


@settings(max_examples=200)
@given(scenarios())
def test_predict_gain_equals_direct_accuracy_difference(scenario):
    # recompute through the raw definition: mean accuracy of each cascade
    # under the fixed-subset-accuracy assumption
    exits = solve_original_exits(scenario).exits
    n = scenario.num_instances
    enlarged = (
        sum(a * s for a, s in zip(scenario.accuracies, scenario.new_exits))
        + scenario.new_accuracy * scenario.new_model_exits
    ) / n
    original = sum(a * s for a, s in zip(scenario.accuracies, exits)) / n
    assert predict_gain(scenario) == pytest.approx(enlarged - original, abs=1e-9)


@settings(max_examples=200)
@given(scenarios())
def test_bound_chain(scenario):
    gain = predict_gain(scenario)
    tight = gain_upper_bound(scenario)
    loose = max_gain_bound(
        scenario.layer_counts,
        scenario.accuracies,
        solve_original_exits(scenario).exits,
    )
    assert gain <= tight + 1e-9
    assert tight <= loose + 1e-9


@settings(max_examples=100)
@given(scenarios(), st.integers(min_value=2, max_value=7))
def test_gain_invariant_under_exit_scaling(scenario, factor):
    scaled = GainScenario(
        layer_counts=scenario.layer_counts,
        accuracies=scenario.accuracies,
        insert_after=scenario.insert_after,
        new_layers=scenario.new_layers,
        new_accuracy=scenario.new_accuracy,
        new_exits=tuple(s * factor for s in scenario.new_exits),
        new_model_exits=scenario.new_model_exits * factor,
    )
    assert predict_gain(scaled) == pytest.approx(predict_gain(scenario), abs=1e-9)
    assert gain_upper_bound(scaled) == pytest.approx(gain_upper_bound(scenario), abs=1e-9)


# --- measured counterpart -----------------------------------------------------------


def constant_stage(first_logit, layer_cost):
    """Stage whose prediction ignores the features entirely."""
    weights = {"w": np.zeros((1, 2)), "b": np.array([first_logit, 0.0])}
    model = ClassifierModel(Architecture("linear"), 1, 2, weights, TrainConfig())
    return StageSpec(model, layer_cost)


def test_empirical_gain_on_matched_cascades():
    # without: one 6-layer stage that always answers class 0 (all correct);
    # with: a 2-layer stage that never clears tau, then a 4-layer stage
    # that always answers class 1 (all wrong). Equal cost, gain -1.
    ds = Dataset(
        tuple(Instance(f"i{k}", np.array([1.0]), 0) for k in range(5)),
        num_classes=2,
        feature_dim=1,
    )
    without = Cascade((constant_stage(8.0, 6),), (), full_model_cost=12)
    with_extra = Cascade(
        (constant_stage(0.0, 2), constant_stage(-8.0, 4)),
        (0.9,),
        full_model_cost=12,
    )
    assert empirical_gain(without, with_extra, ds) == pytest.approx(-1.0)
    assert empirical_gain(without, without, ds) == 0.0


def test_empirical_gain_rejects_speedup_mismatch():
    ds = Dataset(
        tuple(Instance(f"i{k}", np.array([1.0]), 0) for k in range(5)),
        num_classes=2,
        feature_dim=1,
    )
    fast = Cascade((constant_stage(8.0, 2),), (), full_model_cost=12)
    slow = Cascade((constant_stage(8.0, 12),), (), full_model_cost=12)
    with pytest.raises(ValidationError, match="differ by more than"):
        empirical_gain(fast, slow, ds)


# --- serialization --------------------------------------------------------------------


def test_scenario_roundtrip(tmp_path):
    scenario = worked_scenario()
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    assert load_scenario(path) == scenario


def test_scenario_from_dict_rejects_malformed():
    with pytest.raises(ValidationError, match="malformed"):
        scenario_from_dict({"layer_counts": [2, 12]})
