import json
import math
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascadekit
from cascadekit import (
    Architecture,
    Cascade,
    ClassDistribution,
    ClassifierModel,
    Dataset,
    ExitTrace,
    Instance,
    NumericError,
    StageSpec,
    TraceTable,
    TrainConfig,
    ValidationError,
    calibrate_threshold,
    cascade_predict,
    load_cascade,
    load_traces,
    run_cascade,
    save_cascade,
    save_traces,
    speedup_ratio,
)
from cascadekit.cascade import trace_from_dict
from cascadekit.classifier import predict_batch


def linear_stage(weight_scale, layer_cost):
    """1-feature 2-class linear stage: confidence = sigmoid(2*scale*|x|)."""
    weights = {
        "w": np.array([[weight_scale, -weight_scale]]),
        "b": np.zeros(2),
    }
    model = ClassifierModel(Architecture("linear"), 1, 2, weights, TrainConfig())
    return StageSpec(model, layer_cost)


def planted_confidence_dataset(confs):
    """Instances whose stage-0 confidence (scale 1) is exactly each value."""
    instances = []
    for i, c in enumerate(confs):
        if not 0.5 <= c < 1.0:
            raise ValueError("two-class confidence lives in [0.5, 1)")
        x = 0.5 * math.log(c / (1.0 - c))
        instances.append(Instance(f"p{i}", np.array([x]), 0))
    return Dataset(tuple(instances), num_classes=2, feature_dim=1)


def two_stage_cascade(threshold=0.6, costs=(2, 10), full=12):
    return Cascade(
        stages=(linear_stage(1.0, costs[0]), linear_stage(20.0, costs[1])),
        thresholds=(threshold,),
        full_model_cost=full,
    )


# --- construction validation --------------------------------------------------


def test_cascade_validation():
    s2, s4 = linear_stage(1.0, 2), linear_stage(1.0, 4)
    Cascade((s2, s4), (0.5,))
    Cascade((s2, linear_stage(1.0, 2)), (0.5,))  # equal costs allowed
    with pytest.raises(ValidationError, match="ascending"):
        Cascade((s4, s2), (0.5,))
    with pytest.raises(ValidationError, match="threshold"):
        Cascade((s2, s4), ())
    with pytest.raises(ValidationError):
        Cascade((s2, s4), (1.5,))
    with pytest.raises(ValidationError):
        Cascade((s2, s4), (0.5,), full_model_cost=0)
    with pytest.raises(ValidationError):
        Cascade((), ())
    with pytest.raises(ValidationError):
        StageSpec(linear_stage(1.0, 2).model, 0)


def test_exit_trace_validation():
    dist = ClassDistribution(np.array([0.9, 0.1]))
    ExitTrace("a", 1, dist, 0.9, (2, 4), 6)
    with pytest.raises(ValidationError, match="executed_costs"):
        ExitTrace("a", 1, dist, 0.9, (2,), 2)
    with pytest.raises(ValidationError, match="total_cost"):
        ExitTrace("a", 1, dist, 0.9, (2, 4), 7)


def test_with_shared_threshold():
    cascade = Cascade(
        (linear_stage(1.0, 2), linear_stage(1.0, 4), linear_stage(1.0, 12)),
        (0.1, 0.9),
    )
    out = cascade.with_shared_threshold(0.7)
    assert out.thresholds == (0.7, 0.7)
    assert out.stages == cascade.stages
    assert out.full_model_cost == cascade.full_model_cost


# --- exit semantics -------------------------------------------------------------


def test_exit_costs_charge_every_executed_stage():
    # a miss at the 2-layer stage re-runs on the 4-layer stage: 6 layers total,
    # exactly 2x the 12-layer reference, not 3x
    stages = (linear_stage(1.0, 2), linear_stage(20.0, 4))
    cascade = Cascade(stages, (0.99,), full_model_cost=12)
    ds = planted_confidence_dataset([0.7])
    trace = cascade_predict(cascade, ds.instances[0])
    assert trace.exit_stage == 1
    assert trace.executed_costs == (2, 4)
    assert trace.total_cost == 6
    assert speedup_ratio([trace], 12) == pytest.approx(2.0)


def test_exit_requires_strictly_greater_confidence():
    # zero-weight stage gives confidence exactly 0.5; tau = 0.5 must not exit
    stages = (linear_stage(0.0, 2), linear_stage(20.0, 10))
    cascade = Cascade(stages, (0.5,), full_model_cost=12)
    inst = Instance("x", np.array([1.0]), 0)
    trace = cascade_predict(cascade, inst)
    assert trace.confidence == 1.0  # stage-1 confidence, sigmoid(40) to float
    assert trace.exit_stage == 1
    # any tau below 0.5 lets the same instance out at stage 0
    lower = cascade.with_shared_threshold(0.499)
    assert cascade_predict(lower, inst).exit_stage == 0


def test_threshold_one_sends_everything_to_the_last_stage():
    cascade = two_stage_cascade(threshold=1.0)
    ds = planted_confidence_dataset([0.55, 0.8, 0.99])
    traces = run_cascade(cascade, ds)
    assert [t.exit_stage for t in traces] == [1, 1, 1]
    assert all(t.total_cost == 12 for t in traces)
    assert speedup_ratio(traces, 12) == pytest.approx(1.0)


def test_threshold_zero_exits_everything_at_stage_zero():
    cascade = two_stage_cascade(threshold=0.0)
    ds = planted_confidence_dataset([0.55, 0.8, 0.99])
    traces = run_cascade(cascade, ds)
    assert [t.exit_stage for t in traces] == [0, 0, 0]
    assert speedup_ratio(traces, 12) == pytest.approx(6.0)


def test_single_stage_cascade_always_answers():
    cascade = Cascade((linear_stage(0.0, 5),), (), full_model_cost=10)
    trace = cascade_predict(cascade, Instance("x", np.array([3.0]), 0))
    assert trace.exit_stage == 0
    assert trace.confidence == 0.5
    assert trace.total_cost == 5


def test_traces_preserve_dataset_order():
    cascade = two_stage_cascade()
    ds = planted_confidence_dataset([0.9, 0.55, 0.7])
    traces = run_cascade(cascade, ds)
    assert [t.instance_id for t in traces] == ds.ids()


@settings(max_examples=60)
@given(
    tau_lo=st.floats(min_value=0.0, max_value=1.0),
    tau_hi=st.floats(min_value=0.0, max_value=1.0),
)
def test_raising_threshold_never_exits_earlier(tau_lo, tau_hi):
    if tau_lo > tau_hi:
        tau_lo, tau_hi = tau_hi, tau_lo
    ds = planted_confidence_dataset([0.5, 0.55, 0.62, 0.7, 0.8, 0.9, 0.97])
    cascade = two_stage_cascade()
    low = run_cascade(cascade.with_shared_threshold(tau_lo), ds)
    high = run_cascade(cascade.with_shared_threshold(tau_hi), ds)
    for a, b in zip(low, high):
        assert a.exit_stage <= b.exit_stage
        assert a.total_cost <= b.total_cost


def test_speedup_ratio_validation():
    with pytest.raises(ValidationError):
        speedup_ratio([], 12)
    dist = ClassDistribution(np.array([1.0, 0.0]))
    trace = ExitTrace("a", 0, dist, 1.0, (3,), 3)
    with pytest.raises(ValidationError):
        speedup_ratio([trace], 0)


@pytest.mark.parametrize("cost", [12.5, True, "12"], ids=["float", "bool", "string"])
def test_speedup_ratio_rejects_non_integer_cost(cost):
    dist = ClassDistribution(np.array([1.0, 0.0]))
    trace = ExitTrace("a", 0, dist, 1.0, (3,), 3)
    with pytest.raises(ValidationError, match="full_model_cost must be an integer"):
        speedup_ratio([trace], cost)
    assert speedup_ratio([trace], np.int64(12)) == 4.0


@pytest.mark.parametrize(
    "cost, total, full, message",
    [
        ((2**1100,), 2**1100, 12, "full_model_cost 12 over mean cost 1358"),
        ((1,), 1, 2**1100, "full_model_cost 1358"),
    ],
    ids=["cost-beyond-float", "full-cost-beyond-float"],
)
def test_speedup_ratio_beyond_float_range_is_a_numeric_error(cost, total, full, message):
    # Used to raise a raw OverflowError.
    trace = ExitTrace("a", 0, ClassDistribution(np.array([1.0, 0.0])), 1.0, cost, total)
    with pytest.raises(NumericError, match=f"^speed-up of {re.escape(message)}.* is not a finite float$"):
        speedup_ratio([trace], full)


@pytest.mark.parametrize("cost", [0, -1], ids=["no-cost", "negative-cost"])
def test_a_trace_costing_less_than_a_layer_is_refused(cost):
    # A zero cost used to reach speedup_ratio's ZeroDivisionError, and -1 gave a speed-up of -12.0.
    message = f"trace 'a': executed_costs must be an integer >= 1, got {cost}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        speedup_ratio(TraceTable(("a",), [0], np.array([[0.9, 0.1]]), ((cost,),), (cost,)), 12)


# --- threshold calibration -------------------------------------------------------


def test_calibration_hits_exact_operating_point():
    # stage-0 confidences 0.9, 0.75, 0.6 with costs (2, 10) against 12:
    # tau=0.6 exits two instances at cost 2, one pays 12 -> 12/(16/3) = 2.25
    ds = planted_confidence_dataset([0.9, 0.75, 0.6])
    cascade = two_stage_cascade()
    thresholds = calibrate_threshold(cascade, ds, target_speedup=2.25)
    assert len(thresholds) == 1
    assert thresholds[0] == pytest.approx(0.6, abs=1e-9)
    traces = run_cascade(cascade.with_shared_threshold(thresholds[0]), ds)
    assert speedup_ratio(traces, 12) == pytest.approx(2.25, abs=1e-12)


def test_calibration_picks_nearest_achievable():
    # achievable speedups here: 6 (tau=0), 2.25, 18/13, 1; target 2.3 is
    # within 4% of 2.25
    ds = planted_confidence_dataset([0.9, 0.75, 0.6])
    cascade = two_stage_cascade()
    thresholds = calibrate_threshold(cascade, ds, target_speedup=2.3)
    assert thresholds[0] == pytest.approx(0.6, abs=1e-9)


def test_calibration_rejects_unreachable_target():
    ds = planted_confidence_dataset([0.9, 0.75, 0.6])
    cascade = two_stage_cascade()
    with pytest.raises(ValidationError, match="achievable range"):
        calibrate_threshold(cascade, ds, target_speedup=4.0)


def test_calibration_rejects_target_outside_bounds():
    ds = planted_confidence_dataset([0.9])
    cascade = two_stage_cascade()
    with pytest.raises(ValidationError, match="outside achievable"):
        calibrate_threshold(cascade, ds, target_speedup=7.0)  # > 12/2
    with pytest.raises(ValidationError, match="outside achievable"):
        calibrate_threshold(cascade, ds, target_speedup=0.5)


def test_calibration_rejects_empty_or_bad_tolerance():
    ds = planted_confidence_dataset([0.9])
    cascade = two_stage_cascade()
    with pytest.raises(ValidationError, match="empty"):
        calibrate_threshold(
            cascade,
            Dataset((), num_classes=2, feature_dim=1),
            target_speedup=2.0,
        )
    with pytest.raises(ValidationError, match="tolerance"):
        calibrate_threshold(cascade, ds, target_speedup=2.0, tolerance=0.0)


@pytest.mark.parametrize(
    "tolerance, message",
    [(math.nan, "tolerance must be positive"), (0.001, "within relative tolerance 0.001: closest 6x")],
    ids=["nan", "tight"],
)
def test_calibration_tolerance_check(tolerance, message):
    # Achievable speed-ups are 6, 2.25, 18/13 and 1.  A NaN tolerance used to
    # switch the miss check off and return tau = 0; 0.001 printed as "0%".
    ds = planted_confidence_dataset([0.9, 0.75, 0.6])
    with pytest.raises(ValidationError, match=re.escape(message)):
        calibrate_threshold(two_stage_cascade(), ds, target_speedup=5.99, tolerance=tolerance)


@pytest.mark.parametrize("unit", [2**40, 2**62, 2**70], ids=["2^40", "2^62", "2^70"])
def test_calibration_is_exact_for_costs_beyond_int64(unit):
    # Costs were summed in int64: per-candidate totals beyond 2**63 wrapped
    # around (a cascade with layer_cost 2**62 reported "closest -100x") or
    # raised a raw OverflowError.  Speed-ups do not depend on the cost unit.
    ds = planted_confidence_dataset([0.9, 0.75, 0.6])
    scaled = two_stage_cascade(costs=(2 * unit, 10 * unit), full=12 * unit)
    for target in (1.0, 2.25, 6.0):
        want = calibrate_threshold(two_stage_cascade(), ds, target_speedup=target)
        assert calibrate_threshold(scaled, ds, target_speedup=target) == want
    with pytest.raises(ValidationError, match=r"closest 2\.25x, achievable range \[1x, 6x\]"):
        calibrate_threshold(scaled, ds, target_speedup=3.0)


@pytest.mark.parametrize(
    "costs, full, message",
    [
        ((2**1100, 2**1100), 2**1100, "total cost 8149"),  # 3 * 2 * 2**1100
        ((2**1022, 2**1022), 2**1023, "total cost 2696"),  # each cost fits, their total does not
        ((1, 2), 2**1100, "speed-up of full_model_cost 1358"),
    ],
    ids=["costs", "total", "full-cost"],
)
def test_calibration_beyond_float_range_is_a_numeric_error(costs, full, message):
    # float(n * costs[0]) and full_model_cost / costs[0] used to raise a raw OverflowError.
    ds = planted_confidence_dataset([0.9, 0.75, 0.6])
    with pytest.raises(NumericError, match=f"^{re.escape(message)}"):
        calibrate_threshold(two_stage_cascade(costs=costs, full=full), ds, target_speedup=1.0)


def test_calibration_measured_matches_requested_within_tolerance():
    rng = np.random.default_rng(0)
    confs = np.clip(rng.uniform(0.5, 1.0, size=400), 0.5, 0.999)
    ds = planted_confidence_dataset(confs)
    cascade = two_stage_cascade()
    for target in (1.5, 2.0, 3.0):
        thresholds = calibrate_threshold(cascade, ds, target_speedup=target)
        traces = run_cascade(cascade.with_shared_threshold(thresholds[0]), ds)
        measured = speedup_ratio(traces, 12)
        assert abs(measured - target) <= 0.04 * target


def test_calibration_agrees_with_sequential_execution():
    # every operating point sequential execution reaches, including at tau
    # equal to an observed confidence, is found exactly by calibration, and
    # cascade_predict reproduces it at the returned threshold
    ds = planted_confidence_dataset([0.9, 0.75, 0.6, 0.55])
    cascade = two_stage_cascade()
    for tau in [0.0, 0.55, 0.6, 0.7499999, 0.75, 0.9, 1.0]:
        expected = speedup_ratio(run_cascade(cascade.with_shared_threshold(tau), ds), 12)
        thresholds = calibrate_threshold(cascade, ds, expected, tolerance=1e-12)
        traces = run_cascade(cascade.with_shared_threshold(thresholds[0]), ds)
        assert speedup_ratio(traces, 12) == expected


def _loop_exit_stages(conf, tau):
    """Exit stage per instance under a shared tau, from a (stages, N) matrix."""
    if conf.shape[0] == 1:
        return np.zeros(conf.shape[1], dtype=np.int64)
    gated = conf[:-1] > tau
    return np.where(gated.any(axis=0), gated.argmax(axis=0), conf.shape[0] - 1)


def loop_calibration_oracle(cascade, calibration, target_speedup, tolerance=0.04):
    """The per-candidate search calibrate_threshold replaced: apply the exit
    rule to the whole set once per candidate tau and keep the first best."""
    if not calibration.instances:
        raise ValidationError("calibration dataset is empty")
    if not tolerance > 0:
        raise ValidationError("tolerance must be positive")
    costs = np.array([s.layer_cost for s in cascade.stages], dtype=np.float64)
    max_speedup = cascade.full_model_cost / costs[0]
    if not 1.0 <= target_speedup <= max_speedup:
        raise ValidationError(
            f"target speed-up {target_speedup:g} outside achievable range "
            f"[1, {max_speedup:g}] for this cascade"
        )
    X = calibration.feature_matrix()
    conf = np.stack([predict_batch(s.model, X).max(axis=1) for s in cascade.stages])
    cum_costs = np.cumsum(costs)
    candidates = np.unique(np.concatenate([conf[:-1].ravel(), [0.0, 1.0]]))
    best_tau, best_gap, best_measured = 0.0, np.inf, np.nan
    lo, hi = np.inf, -np.inf
    for tau in candidates:
        exit_stage = _loop_exit_stages(conf, tau)
        measured = cascade.full_model_cost / cum_costs[exit_stage].mean()
        lo, hi = min(lo, measured), max(hi, measured)
        gap = abs(measured - target_speedup)
        if gap < best_gap:
            best_gap, best_tau, best_measured = gap, float(tau), measured
    if best_gap > tolerance * target_speedup:
        raise ValidationError(
            f"no threshold reaches {target_speedup:g}x within "
            f"relative tolerance {tolerance:g}: closest {best_measured:g}x, achievable "
            f"range [{lo:g}x, {hi:g}x] on this calibration set"
        )
    return (best_tau,) * (len(cascade.stages) - 1)


# a small pool so that confidences tie within and across stages
CONFIDENCE_POOL = (0.5, 0.55, 0.6, 0.75, 0.9, 0.99)


@st.composite
def calibration_cases(draw):
    """A 1-4 stage cascade where stage s reads only feature s, so each
    instance's per-stage confidences are planted directly."""
    num_stages = draw(st.integers(min_value=1, max_value=4))
    costs = sorted(
        draw(st.lists(st.integers(1, 12), min_size=num_stages, max_size=num_stages))
    )
    full = draw(st.integers(min_value=costs[0], max_value=2 * sum(costs)))
    stages = []
    for s, cost in enumerate(costs):
        w = np.zeros((num_stages, 2))
        w[s] = [1.0, -1.0]
        model = ClassifierModel(
            Architecture("linear"), num_stages, 2, {"w": w, "b": np.zeros(2)}, TrainConfig()
        )
        stages.append(StageSpec(model, cost))
    cascade = Cascade(tuple(stages), (1.0,) * (num_stages - 1), full)
    rows = draw(
        st.lists(
            st.lists(
                st.sampled_from(CONFIDENCE_POOL), min_size=num_stages, max_size=num_stages
            ),
            min_size=1,
            max_size=12,
        )
    )
    instances = tuple(
        Instance(f"i{i}", np.array([0.5 * math.log(c / (1.0 - c)) for c in row]), 0)
        for i, row in enumerate(rows)
    )
    ds = Dataset(instances, num_classes=2, feature_dim=num_stages)
    ceiling = full / costs[0]
    target = draw(
        st.one_of(
            st.floats(min_value=1.0, max_value=ceiling),
            st.floats(min_value=0.5, max_value=2.0 * ceiling),
        )
    )
    tolerance = draw(st.sampled_from([0.01, 0.04, 0.25]))
    return cascade, ds, target, tolerance


def _outcome(search, *args):
    try:
        return search(*args)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


@settings(max_examples=300, deadline=None)
@given(case=calibration_cases())
def test_closed_form_calibration_matches_loop_oracle(case):
    assert _outcome(calibrate_threshold, *case) == _outcome(loop_calibration_oracle, *case)


def test_calibration_runs_only_the_stages_that_gate_an_exit(monkeypatch):
    calls = []

    def counted(model, X):
        calls.append(model)
        return predict_batch(model, X)

    monkeypatch.setattr(cascadekit.cascade, "predict_batch", counted)
    stages = (linear_stage(1.0, 2), linear_stage(4.0, 5), linear_stage(20.0, 10))
    ds = planted_confidence_dataset([0.9, 0.75, 0.6, 0.55])
    calibrate_threshold(Cascade(stages, (1.0, 1.0), 12), ds, 2.0, tolerance=1.0)
    assert [sum(model is s.model for model in calls) for s in stages] == [1, 1, 0]
    calls.clear()
    # One stage: nothing gates an exit, and the only operating point is 12 / 2.
    assert calibrate_threshold(Cascade(stages[:1], (), 12), ds, 6.0) == ()
    assert calls == []


def test_non_finite_confidence_is_a_numeric_error():
    weights = {"w": np.array([[0.0, -1.0]]), "b": np.zeros(2)}
    broken = ClassifierModel(Architecture("linear"), 1, 2, weights, TrainConfig())
    broken.weights["w"][0, 0] = np.nan  # the constructor refuses a NaN weight
    cascade = Cascade((StageSpec(broken, 2), linear_stage(20.0, 10)), (1.0,), 12)
    ds = planted_confidence_dataset([0.9, 0.6])
    with pytest.raises(NumericError, match="non-finite"):
        calibrate_threshold(cascade, ds, target_speedup=1.0)
    # NaN > tau is false, so execution must not fall through silently either.
    with pytest.raises(NumericError, match="non-finite"):
        run_cascade(cascade, ds)


# --- serialization -----------------------------------------------------------------


def test_trace_roundtrip(tmp_path):
    cascade = two_stage_cascade()
    ds = planted_confidence_dataset([0.9, 0.55])
    traces = run_cascade(cascade, ds)
    path = tmp_path / "traces.jsonl"
    save_traces(traces, path)
    back = load_traces(path)
    assert len(back) == 2
    for orig, loaded in zip(traces, back):
        assert loaded.instance_id == orig.instance_id
        assert loaded.exit_stage == orig.exit_stage
        assert loaded.confidence == orig.confidence
        assert loaded.total_cost == orig.total_cost
        np.testing.assert_array_equal(loaded.distribution.probs, orig.distribution.probs)


def test_trace_load_reports_bad_line(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_text("{broken\n")
    with pytest.raises(ValidationError, match="line 1"):
        load_traces(path)


def test_trace_from_dict_rejects_missing_fields():
    with pytest.raises(ValidationError, match="malformed"):
        trace_from_dict({"instance_id": "a"})


def test_trace_with_non_finite_probs_is_rejected(tmp_path):
    record = {
        "instance_id": "a",
        "exit_stage": 0,
        "probs": [math.nan, math.nan],
        "confidence": math.nan,
        "executed_costs": [2],
        "total_cost": 2,
    }
    with pytest.raises(ValidationError, match="probabilities"):
        trace_from_dict(record)
    # json.dumps writes NaN literals, which json.loads reads back as floats.
    path = tmp_path / "traces.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValidationError, match="probabilities"):
        load_traces(path)


@pytest.mark.parametrize(
    "bad_id", [None, [], {}, math.nan, True], ids=["null", "array", "object", "nan", "true"]
)
def test_trace_rejects_non_string_instance_id(tmp_path, bad_id):
    # str() used to load null as the id "None" and NaN as "nan".
    traces = run_cascade(two_stage_cascade(), planted_confidence_dataset([0.9, 0.55]))
    path = tmp_path / "traces.jsonl"
    save_traces(traces, path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record["instance_id"] = bad_id
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=r"traces\.jsonl: line 2: instance_id must be a string, got "):
        load_traces(path)


def test_trace_confidence_must_match_probs(tmp_path):
    # An edited confidence used to load and silently move DIS and ECE.
    traces = run_cascade(two_stage_cascade(), planted_confidence_dataset([0.9, 0.55]))
    path = tmp_path / "traces.jsonl"
    save_traces(traces, path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record["confidence"] = record["confidence"] - 0.01
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="confidence .* is not the largest of the probabilities"):
        trace_from_dict(record)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: line 2: confidence"):
        load_traces(path)


def test_cascade_bundle_roundtrip(tmp_path):
    cascade = two_stage_cascade(threshold=0.77)
    path = tmp_path / "cascade.json"
    save_cascade(cascade, path)
    assert (tmp_path / "stage0_model.json").exists()
    back = load_cascade(path)
    assert back.thresholds == (0.77,)
    assert back.full_model_cost == 12
    assert [s.layer_cost for s in back.stages] == [2, 10]
    ds = planted_confidence_dataset([0.9, 0.55])
    assert [t.exit_stage for t in run_cascade(back, ds)] == [
        t.exit_stage for t in run_cascade(cascade, ds)
    ]


def test_cascade_bundle_is_relocatable(tmp_path):
    cascade = two_stage_cascade()
    src = tmp_path / "bundle_a"
    src.mkdir()
    save_cascade(cascade, src / "cascade.json")
    dst = tmp_path / "bundle_b"
    shutil.copytree(src, dst, dirs_exist_ok=True)
    shutil.rmtree(src)
    back = load_cascade(dst / "cascade.json")
    assert len(back.stages) == 2


def test_cascade_load_rejects_malformed(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"stages": [{"layer_cost": 2}]}))
    with pytest.raises(ValidationError, match="malformed"):
        load_cascade(path)
