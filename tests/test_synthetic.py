import hashlib

import numpy as np
import pytest

from cascadekit import planted_hard_task, tiered_task

# SHA-256 of each generated dataset, hashed as perfbench's dataset_digest
# hashes the benchmark inputs: per instance "id|label|difficulty|" and the
# little-endian float64 feature bytes.  A change to a generator's draw order
# or constants changes the benchmark's data, and these digests with it.
GOLDEN = {
    (planted_hard_task, 1, 0, "inst"): "9f027eb4b17ce085c31e5a2f8d9264ddeb0adeb94b25bb8ff6d6a11cd75cc1f9",
    (planted_hard_task, 97, 3, "x"): "03a21e17a6f377f4896e9b3a7a9a83307d374e3f509497b809302c2531764f83",
    (planted_hard_task, 500, 21, "tr"): "668fe7c63c84a030d1d93fb26c1aaef6ae8e5f4ddbd07352e8e5e32f6ec269af",
    (tiered_task, 1, 0, "inst"): "0a9acd008e79377bdd3601a4a8c8d40b0672885e610c22e3a3041bd703048307",
    (tiered_task, 97, 3, "x"): "b45f16b326b72b2c879743f9cc57083683c315547c4fae29e50f77ce571193ae",
    (tiered_task, 500, 21, "tr"): "5cfbd5a994fea7d306289ae0e9ae3e7505676f77eb06b928480ceffc87f1de44",
}


def digest(dataset):
    h = hashlib.sha256()
    for inst in dataset.instances:
        h.update(f"{inst.id}|{inst.label}|{inst.difficulty}|".encode())
        h.update(np.ascontiguousarray(inst.features, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "generator, n, seed, id_prefix",
    list(GOLDEN),
    ids=[f"{g.__name__}-{n}-{seed}-{p}" for g, n, seed, p in GOLDEN],
)
def test_generator_output_is_pinned(generator, n, seed, id_prefix):
    assert digest(generator(n, seed=seed, id_prefix=id_prefix)) == GOLDEN[
        (generator, n, seed, id_prefix)
    ]
