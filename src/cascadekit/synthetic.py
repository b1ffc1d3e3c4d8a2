"""Synthetic binary tasks with controllable difficulty structure.

Both generators attach ground-truth difficulty flags to the instances they
plant as hard, so experiments can score confidence-difficulty ranking
against a known reference instead of a labeling heuristic.  Each writes
its draws, one instance at a time, straight into the dataset's columns.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset, InstanceColumns
from .errors import integer, string

# planted_hard_task
HARD_FRACTION = 0.2  # share of the instances planted hard
SEPARATION = 2.0  # distance between the two class blobs along feature 0
PLANTED_NOISE = 0.45  # standard deviation of features 0 and 1
MARKER_OFFSET = 0.7  # marker mean of a hard instance
MARKER_NOISE = 0.35  # standard deviation of the marker
MARKER_CLASS_PULL = 0.25  # marker mean of an easy instance, times its class sign
# tiered_task
EASY_FRACTION = 0.6  # share of the linearly separable instances
EASY_OFFSET = 1.5  # their distance from 0 along feature 0
XOR_OFFSET = 1.2  # corner distance of an XOR instance along each feature
TIERED_NOISE = 0.3  # standard deviation of both features


def planted_hard_task(num_instances: int, seed: int, id_prefix: str = "inst") -> Dataset:
    """Two separable blobs plus a planted unlearnable subpopulation.

    Easy instances (difficulty 0) are two class blobs split along feature
    0.  Hard instances (difficulty 1) sit on top of the class-1 blob with
    coin-flip labels, so no model can beat chance on them.

    Feature 2 is a confounded marker: among easy instances it leans
    toward the class sign (scaled by ``MARKER_CLASS_PULL``), while hard
    instances carry a larger offset ``MARKER_OFFSET`` regardless of label.
    The true class posterior is therefore non-monotone in the marker
    (rising through the easy range, falling back to chance in the hard
    range), which a linear logit cannot represent; a model that treats the
    marker as class evidence ends up systematically overconfident exactly
    on the hard group.
    """
    num_instances = integer(num_instances, "num_instances", low=1)
    rng = np.random.default_rng(integer(seed, "seed", low=0))
    num_hard = int(round(num_instances * HARD_FRACTION))
    hard = np.arange(num_instances) < num_hard
    features = np.empty((num_instances, 3))
    labels = np.empty(num_instances, dtype=np.int64)
    for i in range(num_instances):
        label = labels[i] = int(rng.integers(0, 2))
        if hard[i]:
            center = SEPARATION / 2.0
            marker_mean = MARKER_OFFSET
        else:
            center = (SEPARATION / 2.0) if label == 1 else (-SEPARATION / 2.0)
            marker_mean = MARKER_CLASS_PULL * (2 * label - 1)
        features[i] = (
            center + PLANTED_NOISE * rng.standard_normal(),
            PLANTED_NOISE * rng.standard_normal(),
            marker_mean + MARKER_NOISE * rng.standard_normal(),
        )
    columns = InstanceColumns(_ids(id_prefix, num_instances), features, labels, hard.astype(np.int64))
    return Dataset(columns, num_classes=2, feature_dim=3)


def tiered_task(num_instances: int, seed: int, id_prefix: str = "inst") -> Dataset:
    """A mix of linearly separable instances and corner-XOR instances.

    Easy instances (difficulty 0) split along feature 0 and any linear
    model handles them.  Hard instances (difficulty 1) occupy the four
    corners of feature space with labels given by the sign product, which
    no linear model can do better than chance on but a small hidden layer
    solves; they are what the expensive cascade stages are for.
    """
    num_instances = integer(num_instances, "num_instances", low=1)
    rng = np.random.default_rng(integer(seed, "seed", low=0))
    num_easy = int(round(num_instances * EASY_FRACTION))
    features = np.empty((num_instances, 2))
    labels = np.empty(num_instances, dtype=np.int64)
    for i in range(num_instances):
        if i < num_easy:
            label = int(rng.integers(0, 2))
            features[i] = (
                (EASY_OFFSET if label == 1 else -EASY_OFFSET) + TIERED_NOISE * rng.standard_normal(),
                TIERED_NOISE * rng.standard_normal(),
            )
        else:
            sx = 1 if rng.integers(0, 2) else -1
            sy = 1 if rng.integers(0, 2) else -1
            label = 1 if sx * sy > 0 else 0
            features[i] = (
                sx * XOR_OFFSET + TIERED_NOISE * rng.standard_normal(),
                sy * XOR_OFFSET + TIERED_NOISE * rng.standard_normal(),
            )
        labels[i] = label
    difficulty = (np.arange(num_instances) >= num_easy).astype(np.int64)
    columns = InstanceColumns(_ids(id_prefix, num_instances), features, labels, difficulty)
    return Dataset(columns, num_classes=2, feature_dim=2)


def _ids(id_prefix: str, num_instances: int) -> list[str]:
    id_prefix = string(id_prefix, "id_prefix")
    return [f"{id_prefix}{i:05d}" for i in range(num_instances)]
