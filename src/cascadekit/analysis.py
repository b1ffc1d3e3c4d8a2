"""Expected accuracy gain from inserting an extra model into a cascade.

Given exit counts measured on the enlarged cascade, the original cascade's
exit counts at equal total cost are recovered in closed form (only the two
stages adjacent to the insertion move), and the expected accuracy change
follows under the assumption that each model's accuracy is the same on any
subset it answers.  Two successively looser upper bounds quantify the best
case.  :func:`empirical_gain` is the measured counterpart for real runs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .cascade import Cascade, run_batched, speedup_ratio
from .dataset import Dataset
from .errors import NumericError, ValidationError, instance_of, integer, real
from .jsonio import decoder, read_json, typed, write_json
from .metrics import accuracy, scored_from_traces

FEASIBILITY_SLACK = 1e-9
SPEEDUP_MATCH_TOLERANCE = 0.01


@dataclass(frozen=True)
class GainScenario:
    """An insertion of one new model into an existing cascade.

    ``insert_after`` is the 0-based index of the model directly below the
    new one, so costs satisfy
    ``layer_counts[insert_after] < new_layers < layer_counts[insert_after + 1]``.
    ``new_exits[k]`` counts instances exiting at original model k in the
    enlarged cascade; ``new_model_exits`` counts exits at the new model.
    """

    layer_counts: tuple[int, ...]
    accuracies: tuple[float, ...]
    insert_after: int
    new_layers: int
    new_accuracy: float
    new_exits: tuple[int, ...]
    new_model_exits: int

    def __post_init__(self) -> None:
        n = len(self.layer_counts)
        if n < 2:
            raise ValidationError("scenario needs at least two original models")
        if len(self.accuracies) != n or len(self.new_exits) != n:
            raise ValidationError("layer_counts, accuracies, new_exits must align")
        for name, rule in (("layer_counts", integer), ("accuracies", real), ("new_exits", integer)):
            object.__setattr__(self, name, tuple(rule(v, name) for v in getattr(self, name)))
        for name in ("insert_after", "new_layers", "new_accuracy", "new_model_exits"):
            rule = real if name == "new_accuracy" else integer
            object.__setattr__(self, name, rule(getattr(self, name), name))
        if any(c < 1 for c in self.layer_counts):
            raise ValidationError("layer counts must be >= 1")
        if any(a >= b for a, b in zip(self.layer_counts, self.layer_counts[1:])):
            raise ValidationError(f"layer counts must be strictly ascending, got {self.layer_counts}")
        if any(not 0.0 <= a <= 1.0 for a in (*self.accuracies, self.new_accuracy)):
            raise ValidationError("accuracies must lie in [0, 1]")
        if not 0 <= self.insert_after <= n - 2:
            raise ValidationError(f"insert_after must be in [0, {n - 2}], got {self.insert_after}")
        lo = self.layer_counts[self.insert_after]
        hi = self.layer_counts[self.insert_after + 1]
        if not lo < self.new_layers < hi:
            raise ValidationError(
                f"new_layers must fall strictly between {lo} and {hi}, got {self.new_layers}"
            )
        if any(s < 0 for s in self.new_exits) or self.new_model_exits < 0:
            raise ValidationError("exit counts must be non-negative")
        if self.num_instances < 1:
            raise ValidationError("scenario needs at least one instance")
        # The gain algebra runs over reals: a float must hold each count and their total.
        for s in self.new_exits:
            real(s, "new_exits")
        real(self.new_model_exits, "new_model_exits")
        real(self.num_instances, "num_instances")

    @property
    def num_instances(self) -> int:
        return sum(self.new_exits) + self.new_model_exits


@dataclass(frozen=True)
class OriginalExits:
    """Per-stage exit counts of the original cascade at matched cost.

    The algebra runs over reals, so counts may be fractional and, for
    scenarios no threshold setting can realize, negative; ``feasible``
    flags the latter rather than rounding it away.
    """

    exits: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "exits", tuple(real(s, "exits") for s in self.exits))

    @property
    def feasible(self) -> bool:
        return all(s >= -FEASIBILITY_SLACK for s in self.exits)


def _moved_mass(scenario: GainScenario) -> float:
    i = scenario.insert_after
    ratio = scenario.new_layers / scenario.layer_counts[i + 1]
    return ratio * (scenario.new_exits[i + 1] + scenario.new_model_exits)


def solve_original_exits(scenario: GainScenario) -> OriginalExits:
    """Original-cascade exit counts with total cost equal to the enlarged
    cascade's, moving instances only between the two insertion-adjacent
    stages."""
    i = scenario.insert_after
    moved = _moved_mass(scenario)
    exits = list(scenario.new_exits)
    exits[i] += scenario.new_model_exits - moved
    exits[i + 1] += moved
    return OriginalExits(tuple(exits))


def predict_gain(scenario: GainScenario) -> float:
    """Expected accuracy of the enlarged cascade minus the original's."""
    i = scenario.insert_after
    a = scenario.accuracies
    first = scenario.new_model_exits * (scenario.new_accuracy - a[i])
    second = _moved_mass(scenario) * (a[i + 1] - a[i])
    return (first - second) / scenario.num_instances


def gain_upper_bound(scenario: GainScenario) -> float:
    """Upper bound on the gain; needs the new model's accuracy to sit
    between its neighbors' accuracies."""
    i = scenario.insert_after
    a = scenario.accuracies
    if not a[i] <= scenario.new_accuracy <= a[i + 1]:
        raise ValidationError(
            "gain_upper_bound requires new_accuracy between the neighboring "
            f"accuracies ({a[i]:g}, {a[i + 1]:g}), got {scenario.new_accuracy:g}"
        )
    cost_ratio = scenario.layer_counts[i] / scenario.layer_counts[i + 1]
    mass = scenario.new_model_exits - cost_ratio * (
        scenario.new_exits[i + 1] + scenario.new_model_exits
    )
    return (a[i + 1] - a[i]) * mass / scenario.num_instances


def max_gain_bound(
    layer_counts: tuple[int, ...],
    accuracies: tuple[float, ...],
    exit_counts: tuple[float, ...],
) -> float:
    """Loosest bound, from the original cascade alone: no insertion point
    is specified, so each factor is taken at its worst adjacent pair."""
    layer_counts = [integer(c, "layer_counts", low=1) for c in layer_counts]
    accuracies = [real(a, "accuracies") for a in accuracies]
    exit_counts = [real(s, "exit_counts") for s in exit_counts]
    n = len(layer_counts)
    if n < 2:
        raise ValidationError("max_gain_bound needs at least two models")
    if len(accuracies) != n or len(exit_counts) != n:
        raise ValidationError("layer_counts, accuracies, exit_counts must align")
    total = sum(exit_counts)
    if total <= 0:
        raise ValidationError("exit counts must sum to a positive total")
    mass = max(exit_counts[j] + exit_counts[j + 1] for j in range(n - 1))
    gap = max(accuracies[j + 1] - accuracies[j] for j in range(n - 1))
    ratio = min(layer_counts[j] / layer_counts[j + 1] for j in range(n - 1))
    return (mass / total) * gap * (1.0 - ratio)


def empirical_gain(
    cascade_without: Cascade, cascade_with: Cascade, dataset: Dataset
) -> float:
    """Measured accuracy difference (with minus without the extra model).

    Both cascades must land within 1% of each other's measured speed-up on
    the dataset, otherwise the comparison confounds accuracy with cost.
    """
    cascade_without = instance_of(cascade_without, Cascade, "cascade_without")
    cascade_with = instance_of(cascade_with, Cascade, "cascade_with")
    dataset = instance_of(dataset, Dataset, "dataset")
    ids, X = dataset.ids(), dataset.feature_matrix()
    traces_without = run_batched(cascade_without, ids, X)
    traces_with = run_batched(cascade_with, ids, X)
    sp_without = speedup_ratio(traces_without, cascade_without.full_model_cost)
    sp_with = speedup_ratio(traces_with, cascade_with.full_model_cost)
    if abs(sp_with - sp_without) > SPEEDUP_MATCH_TOLERANCE * sp_without:
        raise ValidationError(
            f"speed-ups differ by more than 1%: {sp_without:g}x without vs "
            f"{sp_with:g}x with the extra model"
        )
    acc_without = accuracy(scored_from_traces(traces_without, dataset))
    acc_with = accuracy(scored_from_traces(traces_with, dataset))
    return acc_with - acc_without


def gain_report(scenario: GainScenario) -> dict:
    """Predicted gain, both bounds, and the recovered original exits.

    The tighter bound needs the new model's accuracy between its
    neighbors'; when that fails it is reported as null.  A number the
    algebra cannot hold in a float (a moved mass beyond float range) is a
    NumericError naming it, so no report holds NaN or Infinity.
    """
    exits = solve_original_exits(scenario)
    i = scenario.insert_after
    a = scenario.accuracies
    bound = None
    if a[i] <= scenario.new_accuracy <= a[i + 1]:
        bound = gain_upper_bound(scenario)
    report = {
        "predicted_gain": predict_gain(scenario),
        "original_exits": list(exits.exits),
        "feasible": exits.feasible,
        "gain_upper_bound": bound,
        "max_gain_bound": max_gain_bound(
            scenario.layer_counts, scenario.accuracies, exits.exits
        ),
    }
    for name, value in report.items():
        for k, number in enumerate(value) if isinstance(value, list) else [(None, value)]:
            if number is not None and not math.isfinite(number):
                where = name if k is None else f"{name}[{k}]"
                raise NumericError(f"gain report: {where} = {number!r} is not a finite number")
    return report


def scenario_to_dict(scenario: GainScenario) -> dict:
    return asdict(scenario)


@decoder("gain scenario")
def scenario_from_dict(payload: dict) -> GainScenario:
    return typed(payload, GainScenario, "")


def save_scenario(scenario: GainScenario, path) -> None:
    write_json(path, scenario_to_dict(scenario))


def load_scenario(path) -> GainScenario:
    return read_json(path, scenario_from_dict)
