"""Measurement protocol: repeated set-up, rounds for the measured period, metrics.

Untraced run (``trace=False``): set-up runs ``SETUP_REPEATS`` times and
``setup_s`` is their median; rounds then repeat until ``seconds`` have
passed (at least ``MIN_ROUNDS``).  ``wall_s`` is the 90th percentile of the
rounds' timed program work, and ``op_p90_ms`` that of op latencies pooled
over every round (see :func:`p90`).

Traced run (``trace=True``): one traced set-up, then rounds alternate
untraced and traced.  Each per-layer value is the traced set-up plus the
mean traced round; ``trace.overhead_s`` is the median traced round minus
the median untraced round.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from bench_trace import KNOWN_COUNTS, KNOWN_LAYERS, Tracer
from bench_workloads import WORKLOADS

SETUP_REPEATS = 3
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None,
    }


def _result(workload, trace: bool, rounds, metrics: dict, problems: list[str], **extra) -> dict:
    """The result with its provenance; correct only if every op and check passed."""
    accuracies = {r.accuracy for r in rounds}
    if None in accuracies:
        problems.append("a round produced no accuracy")
    elif len(accuracies) != 1:
        problems.append(f"accuracy differs between identical rounds: {sorted(accuracies)}")
    failed = sum(r.failed for r in rounds)
    keys = sorted({k for r in rounds for k in r.counters})
    info = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": int(trace),
        "inputs_sha256": workload.inputs_sha256,
        "difficult_share": workload.difficult_share,
        "stage_accuracy": workload.stage_accuracy,
        **environment(),
        "rounds": len(rounds),
        "counters": {k: [r.counters.get(k, 0) for r in rounds] for k in keys},
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "errors": [e for r in rounds for e in r.errors][:5],
        "problems": problems,
        **extra,
    }
    return {"correct": not problems and failed == 0, "metrics": metrics, "info": info}


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path, **sizes) -> dict:
    """Run one workload and return its result; ``workdir`` is removed afterwards."""
    cls = WORKLOADS[name]
    workdir = Path(workdir)
    try:
        if trace:
            return _measure_traced(cls, seed, seconds, workdir, sizes)
        return _measure_plain(cls, seed, seconds, workdir, sizes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure_plain(cls, seed, seconds, workdir, sizes) -> dict:
    setup_s, digests = [], []
    for i in range(SETUP_REPEATS):
        workload = None  # free the previous set-up before building the next
        workload = cls(seed, workdir / f"setup{i}", **sizes)
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)
        digests.append(workload.inputs_sha256)

    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(workload.run_round(len(rounds)))

    problems = []
    if any(d != digests[0] for d in digests):
        problems.append("set-up generated different inputs for the same seed")
    latencies = [x for r in rounds for x in r.latencies]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": p90([r.work_s for r in rounds]),
        "op_p90_ms": p90(latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "accuracy": rounds[0].accuracy,
    }
    return _result(
        workload,
        False,
        rounds,
        metrics,
        problems,
        op_samples=len(latencies),
        op_p50_ms=statistics.median(latencies) * 1e3,
        setup_s_samples=setup_s,
        wall_s_samples=[r.work_s for r in rounds],
    )


def p90(values) -> float:
    """90th percentile, interpolated between samples.

    The CPU of the 2-core VM this was tuned on runs at its usual speed most
    of the time and about 1.5x faster in bursts of 10-15 s.  A median lands
    in either mode depending on how many bursts a run caught, so its spread
    over ten runs was 0.20-0.30; the 90th percentile stays in the usual
    mode and spread 0.07-0.10.
    """
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _measure_traced(cls, seed, seconds, workdir, sizes) -> dict:
    setup_tracer = Tracer()
    workload = cls(seed, workdir / "setup", tracer=setup_tracer, **sizes)
    with setup_tracer:
        workload.setup()

    tracer = Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while (
        len(traced) < MIN_TRACED_ROUNDS
        or len(plain) < MIN_TRACED_ROUNDS
        or time.perf_counter() < deadline
    ):
        index = len(plain) + len(traced)
        if index % 2 == 0:
            workload.tracer = None
            plain.append(workload.run_round(index))
        else:
            workload.tracer = tracer
            with tracer:
                traced.append(workload.run_round(index))

    layers = layer_metrics(setup_tracer, tracer, traced)
    plain_wall = statistics.median(r.work_s for r in plain)
    traced_wall = statistics.median(r.work_s for r in traced)
    round_self = sum(tracer.layer_self_s().values()) / len(traced)
    layers.update(
        {
            "trace.overhead_s": traced_wall - plain_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.untraced_wall_s": plain_wall,
            "trace.self_coverage": round_self / statistics.mean(r.work_s for r in traced),
        }
    )
    spans_path = workdir.parent / f"spans_{cls.name}_seed{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for phase, t in (("setup", setup_tracer), ("rounds", tracer)):
            for span in t.spans:
                fh.write(json.dumps({"phase": phase, **span}, sort_keys=True) + "\n")
    return _result(
        workload, True, plain + traced, layers, [], traced_rounds=len(traced), spans=str(spans_path)
    )


def layer_metrics(setup_tracer: Tracer, tracer: Tracer, traced_rounds) -> dict:
    """Per-layer values: the traced set-up plus the mean traced round."""
    n = len(traced_rounds)
    out: dict[str, float] = {}

    def add(key, setup_value, round_total):
        out[key] = setup_value + round_total / n

    setup_self, round_self = setup_tracer.layer_self_s(), tracer.layer_self_s()
    for layer in set(setup_tracer.calls) | set(tracer.calls) | set(KNOWN_LAYERS):
        add(f"{layer}.s", setup_tracer.total_s.get(layer, 0.0), tracer.total_s.get(layer, 0.0))
        add(f"{layer}.self_s", setup_self.get(layer, 0.0), round_self.get(layer, 0.0))
        add(f"{layer}.calls", setup_tracer.calls.get(layer, 0), tracer.calls.get(layer, 0))
        add(f"{layer}.errors", setup_tracer.errors.get(layer, 0), tracer.errors.get(layer, 0))
    for key in set(setup_tracer.counts) | set(tracer.counts) | set(KNOWN_COUNTS):
        add(key, setup_tracer.counts.get(key, 0.0), tracer.counts.get(key, 0.0))
    for key, counter in (
        ("analysis.empirical_gain.refused", "refused"),
        ("analysis.sign_agreement", "sign_agreement"),
    ):
        add(key, 0.0, sum(r.counters.get(counter, 0) for r in traced_rounds))
    out["cascade.trace_io.save_s"] = out["cascade.trace_io.save.s"]
    out["cascade.trace_io.load_s"] = out["cascade.trace_io.load.s"]
    evals = out["cascade.stage_evals"]
    out["cascade.miss_share"] = (evals - out["cascade.run_cascade.instances"]) / evals if evals else 0.0
    return out

