"""The benchmark's three workloads and the correctness checks run on every op.

Each workload is closed-loop and single-process: one client, and each op
starts when the previous one returns.  ``setup`` generates the seeded
inputs (the only use of ``cascadekit.synthetic``), writes them to files and
trains whatever the workload treats as fixed.  ``run_round`` then performs
the workload's fixed unit of work once; the runner repeats rounds for the
measured period.

Only program calls are timed.  Checks recompute the program's answers with
vectorized numpy from ``predict_batch`` and run with tracing paused, so
they add neither to ``wall_s`` nor to any layer.

All program calls go through module attributes (``ck.run_cascade``), so
the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cascadekit as ck
import cascadekit.cli

FULL_MODEL_COST = 12
TOLERANCE = ck.cascade.DEFAULT_CALIBRATION_TOLERANCE
REFUSAL = "speed-ups differ"
# Confidences from one-row and many-row products of the same float64
# weights agree far closer than this.
TIE_TOLERANCE = 1e-12


# -- round bookkeeping ----------------------------------------------------


@dataclass
class Round:
    """What one round of a workload did: op latencies, timed work, failures."""

    latencies: list[float] = field(default_factory=list)
    work_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    accuracy: float | None = None


class Workload:
    """Shared plumbing: seeded inputs, a work directory, timed and checked ops."""

    name = ""
    sizes: dict = {}

    def __init__(self, seed: int, workdir: Path, tracer=None, **sizes) -> None:
        if seed < 0:
            raise ValueError("seed must be non-negative")
        unknown = set(sizes) - set(self.sizes)
        if unknown:
            raise ValueError(f"unknown sizes for {self.name}: {sorted(unknown)}")
        self.size = {**self.sizes, **sizes}
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.tracer = tracer
        self.inputs_sha256: dict[str, str] = {}
        self.difficult_share: dict[str, float] = {}
        self.stage_accuracy: tuple[float, ...] = ()

    def data_seed(self, k: int) -> int:
        return self.seed * 100 + k

    def untraced(self):
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def run_op(self, rnd: Round, op_id: str, work, check, is_op: bool = True):
        """Time ``work()``, then check its result; a raise or a problem fails the op."""
        rnd.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = op_id
        start = time.perf_counter()
        try:
            result = work()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rnd.work_s += time.perf_counter() - start
            rnd.failed += 1
            rnd.errors.append(f"{op_id}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        rnd.work_s += elapsed
        if is_op:
            rnd.latencies.append(elapsed)
        with self.untraced():
            try:
                problems = check(result)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            rnd.failed += 1
            rnd.errors.append(f"{op_id}: {'; '.join(problems)}")
        return result

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, index: int) -> Round:
        raise NotImplementedError


def dataset_digest(dataset) -> str:
    h = hashlib.sha256()
    for inst in dataset.instances:
        h.update(f"{inst.id}|{inst.label}|{inst.difficulty}|".encode())
        h.update(np.ascontiguousarray(inst.features, dtype="<f8").tobytes())
    return h.hexdigest()


def difficult_share(dataset) -> float:
    return sum(inst.difficulty == 1 for inst in dataset.instances) / len(dataset)


def standalone_accuracy(model, dataset) -> float:
    preds = ck.predict_batch(model, dataset.feature_matrix()).argmax(axis=1)
    return float((preds == dataset.label_array()).mean())


# -- checks -----------------------------------------------------------------


def expected_exits(cascade, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exit stage per row by the strict rule, and the (stages, N) confidences."""
    conf = np.stack([ck.predict_batch(s.model, X).max(axis=1) for s in cascade.stages])
    last = len(cascade.stages) - 1
    if last == 0:
        return np.zeros(X.shape[0], dtype=np.int64), conf
    gated = conf[:-1] > np.asarray(cascade.thresholds)[:, None]
    return np.where(gated.any(axis=0), gated.argmax(axis=0), last), conf


def expected_exits_correct(cascade, X: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row correctness of the cascade's answer, recomputed from predict_batch."""
    exits, _ = expected_exits(cascade, X)
    probs = np.stack([ck.predict_batch(s.model, X) for s in cascade.stages])
    return probs[exits, np.arange(X.shape[0])].argmax(axis=1) == labels


def measured_speedup(cascade, exits: np.ndarray) -> float:
    cum = np.cumsum([s.layer_cost for s in cascade.stages])
    return cascade.full_model_cost / cum[exits].mean()


def speedup_problems(cascade, X: np.ndarray, target: float, tolerance: float = TOLERANCE):
    exits, _ = expected_exits(cascade, X)
    got = measured_speedup(cascade, exits)
    if abs(got - target) > tolerance * target:
        return [f"calibrated speed-up {got:.4f}x misses {target:g}x on the calibration set"]
    return []


def trace_problems(cascade, X: np.ndarray, ids: list[str], traces, counters) -> list[str]:
    """Cost accounting, last-stage answering and the strict exit rule.

    The exit stage's own confidence, as the trace records it, must clear
    the threshold strictly.  The other stages' confidences are recomputed
    with ``predict_batch``; it multiplies many rows at once where the
    cascade's ``predict`` multiplies one, so the two may differ in the last
    bits.  An exit that the rule explains only within ``TIE_TOLERANCE`` of
    the threshold counts in ``counters["exit_ties"]``, not as a failure.
    """
    problems = []
    if [t.instance_id for t in traces] != ids:
        return ["traces do not answer every instance once, in dataset order"]
    last = len(cascade.stages) - 1
    exits = np.array([t.exit_stage for t in traces], dtype=np.int64)
    if exits.min() < 0 or exits.max() > last:
        return [f"exit stage outside [0, {last}]"]
    cum = np.cumsum([s.layer_cost for s in cascade.stages])
    if not np.array_equal([t.total_cost for t in traces], cum[exits]):
        problems.append("total_cost != cumsum(layer_costs)[exit_stage]")
    expected, conf = expected_exits(cascade, X)
    rows = np.arange(len(ids))
    got_conf = np.array([t.confidence for t in traces])
    if not np.allclose(got_conf, conf[exits, rows], rtol=0, atol=TIE_TOLERANCE):
        problems.append("trace confidence differs from the exit stage's predict_batch")
    tau = np.append(np.asarray(cascade.thresholds, dtype=np.float64), np.inf)
    early = exits < last
    if not np.all(got_conf[early] > tau[exits[early]]):
        problems.append("an instance exited with confidence <= tau")
    mismatch = np.flatnonzero(exits != expected)
    if mismatch.size:
        stage = np.arange(len(cascade.stages))[:, None]
        before = (stage < exits[mismatch]) & (conf[:, mismatch] > tau[:, None] + TIE_TOLERANCE)
        at = early[mismatch] & (conf[exits[mismatch], mismatch] <= tau[exits[mismatch]] - TIE_TOLERANCE)
        broken = int(np.sum(before.any(axis=0) | at))
        if broken:
            problems.append(f"exit rule broken for {broken} instances")
        counters["exit_ties"] += mismatch.size - broken
    return problems


def traces_equal(a, b) -> bool:
    return len(a) == len(b) and all(
        x.instance_id == y.instance_id
        and x.exit_stage == y.exit_stage
        and x.confidence == y.confidence
        and x.executed_costs == y.executed_costs
        and x.total_cost == y.total_cost
        and np.array_equal(x.distribution.probs, y.distribution.probs)
        for x, y in zip(a, b)
    )


def correct_count(traces, labels: np.ndarray) -> int:
    return int(sum(t.predicted_label == int(y) for t, y in zip(traces, labels)))


def report_problems(report, traces, labels: np.ndarray, num_stages: int) -> list[str]:
    problems = []
    n = len(traces)
    if sum(report.exit_histogram) != n:
        problems.append("exit histogram does not sum to N")
    exits = np.bincount([t.exit_stage for t in traces], minlength=num_stages)
    if list(report.exit_histogram) != exits.tolist():
        problems.append("exit histogram disagrees with the traces")
    if report.accuracy != correct_count(traces, labels) / n:
        problems.append("accuracy differs from a recount of the traces")
    return problems


# -- workloads --------------------------------------------------------------


def train_stages(train_ds, seed: int):
    """The fixed stage lineup: linear/2, mlp h=4/6, mlp h=16/12.

    With 20-40 epochs at rate 0.1-0.2, mlp h=4 missed the XOR corners
    (accuracy ~0.85 instead of ~0.98) on about one seed in five, which moved
    the exit mix and with it every timing.  At 60 epochs and rate 0.3 it
    still does on about one seed in ten; the provenance line's stage
    accuracies show which.
    """
    specs = (
        (ck.Architecture("linear"), ck.TrainConfig(epochs=10, learning_rate=0.2, seed=seed), 2),
        (ck.Architecture("mlp", 4), ck.TrainConfig(epochs=60, learning_rate=0.3, seed=seed + 1), 6),
        (ck.Architecture("mlp", 16), ck.TrainConfig(epochs=60, learning_rate=0.3, seed=seed + 2), 12),
    )
    return tuple(ck.StageSpec(ck.train(train_ds, arch, cfg), cost) for arch, cfg, cost in specs)


def write_and_load(dataset, path: Path):
    ck.save_dataset(dataset, path)
    return ck.load_dataset(path)


class EvalStream(Workload):
    """Cascade inference in batches: the paper's deployment case.

    Per-instance cascade execution and per-batch trace IO do the work;
    training and calibration happen once, in set-up.
    """

    name = "eval-stream"
    sizes = {"train": 4000, "calibration": 1000, "eval": 20000, "batch": 500}

    def setup(self) -> None:
        s = self.size
        generated = {
            "train": ck.tiered_task(s["train"], seed=self.data_seed(1), id_prefix="tr"),
            "calibration": ck.tiered_task(s["calibration"], seed=self.data_seed(2), id_prefix="ca"),
            "eval": ck.tiered_task(s["eval"], seed=self.data_seed(3), id_prefix="ev"),
        }
        self.inputs_sha256 = {k: dataset_digest(v) for k, v in generated.items()}
        loaded = {k: write_and_load(v, self.workdir / f"{k}.jsonl") for k, v in generated.items()}
        del generated
        base = ck.Cascade(train_stages(loaded["train"], self.seed), (1.0, 1.0), FULL_MODEL_COST)
        ck.save_cascade(base, self.workdir / "cascade.json")
        base = ck.load_cascade(self.workdir / "cascade.json")
        calibration = loaded["calibration"]
        thresholds = ck.calibrate_threshold(base, calibration, 2.0)
        self.cascade = ck.Cascade(base.stages, thresholds, FULL_MODEL_COST)
        with self.untraced():
            problems = speedup_problems(self.cascade, calibration.feature_matrix(), 2.0)
        if problems:
            raise RuntimeError(f"{self.name} set-up: {problems[0]}")

        # Generator order puts every easy instance first, so batches are
        # cut from a seeded permutation to mix easy and difficult ones.
        eval_ds = loaded["eval"]
        perm = np.random.default_rng(self.data_seed(4)).permutation(len(eval_ds))
        self.batches = []
        with self.untraced():
            for start in range(0, len(eval_ds), s["batch"]):
                batch = eval_ds.subset(perm[start : start + s["batch"]])
                self.batches.append(
                    (
                        batch,
                        {inst.id: inst.difficulty for inst in batch.instances},
                        batch.feature_matrix(),
                        batch.ids(),
                        batch.label_array(),
                    )
                )
            self.stage_accuracy = tuple(standalone_accuracy(st.model, eval_ds) for st in base.stages)
        shares = [difficult_share(b[0]) for b in self.batches]
        self.difficult_share = {"eval": difficult_share(eval_ds), "batch_min": min(shares)}
        self.traces_path = self.workdir / "traces.jsonl"

    def run_round(self, index: int) -> Round:
        rnd = Round()
        correct = 0
        for k, (batch, difficulty, X, ids, labels) in enumerate(self.batches):

            def work():
                traces = ck.run_cascade(self.cascade, batch)
                report = ck.evaluate(
                    traces,
                    batch,
                    FULL_MODEL_COST,
                    dis_difficulty=difficulty,
                    positive_class=1,
                    num_stages=len(self.cascade.stages),
                )
                ck.save_traces(traces, self.traces_path)
                return traces, report, ck.load_traces(self.traces_path)

            def check(out):
                traces, report, loaded = out
                problems = trace_problems(self.cascade, X, ids, traces, rnd.counters)
                problems += report_problems(report, traces, labels, len(self.cascade.stages))
                if not traces_equal(traces, loaded):
                    problems.append("load_traces(save_traces(t)) != t")
                return problems

            out = self.run_op(rnd, f"{index}:{k}", work, check)
            if out is not None:
                correct += correct_count(out[0], labels)
        rnd.accuracy = correct / sum(len(b[0]) for b in self.batches)
        return rnd


class GainStudy(Workload):
    """Threshold search and insertion-gain analysis, then a threshold sweep.

    Mirrors scripts/cascade_gain_study.py per target and cmd_sweep at the
    end: calibration and re-running the cascade per threshold dominate.
    """

    name = "gain-study"
    sizes = {"train": 4000, "study": 2000, "targets": (1.5, 2.0, 2.5, 3.0), "sweep": 21}
    accuracy_target = 2.0

    def setup(self) -> None:
        s = self.size
        generated = {
            "train": ck.tiered_task(s["train"], seed=self.data_seed(1), id_prefix="tr"),
            "study": ck.tiered_task(s["study"], seed=self.data_seed(2), id_prefix="st"),
        }
        self.inputs_sha256 = {k: dataset_digest(v) for k, v in generated.items()}
        loaded = {k: write_and_load(v, self.workdir / f"{k}.jsonl") for k, v in generated.items()}
        small, middle, big = train_stages(loaded["train"], self.seed)
        study = self.study = loaded["study"]
        self.accuracies = tuple(standalone_accuracy(st.model, study) for st in (small, middle, big))
        self.stage_accuracy = self.accuracies
        self.two = ck.Cascade((small, big), (1.0,), FULL_MODEL_COST)
        self.three = ck.Cascade((small, middle, big), (1.0, 1.0), FULL_MODEL_COST)
        with self.untraced():
            self.X = study.feature_matrix()
            self.labels = study.label_array()
        self.ids = study.ids()
        self.difficulty = {inst.id: inst.difficulty for inst in study.instances}
        self.difficult_share = {"study": difficult_share(study)}
        self.taus = tuple(i / (s["sweep"] - 1) for i in range(s["sweep"]))

    def _target_op(self, target: float):
        study = self.study
        two = ck.Cascade(self.two.stages, ck.calibrate_threshold(self.two, study, target), FULL_MODEL_COST)
        three = ck.Cascade(
            self.three.stages, ck.calibrate_threshold(self.three, study, target), FULL_MODEL_COST
        )
        try:
            measured = ck.empirical_gain(two, three, study)
        except ck.ValidationError as exc:
            if REFUSAL not in str(exc):
                raise
            measured = None
        traces = ck.run_cascade(three, study)
        hist = [0, 0, 0]
        for trace in traces:
            hist[trace.exit_stage] += 1
        a = self.accuracies
        scenario = ck.GainScenario(
            layer_counts=(2, 12),
            accuracies=(a[0], a[2]),
            insert_after=0,
            new_layers=6,
            new_accuracy=a[1],
            new_exits=(hist[0], hist[2]),
            new_model_exits=hist[1],
        )
        return two, three, measured, traces, ck.gain_report(scenario)

    def run_round(self, index: int) -> Round:
        rnd = Round()
        n = len(self.ids)
        for target in self.size["targets"]:

            def check(out, target=target):
                two, three, measured, traces, report = out
                problems = speedup_problems(two, self.X, target)
                problems += speedup_problems(three, self.X, target)
                problems += trace_problems(three, self.X, self.ids, traces, rnd.counters)
                if measured is not None:
                    with_acc = np.mean(expected_exits_correct(three, self.X, self.labels))
                    without_acc = np.mean(expected_exits_correct(two, self.X, self.labels))
                    if not math.isclose(measured, with_acc - without_acc, abs_tol=1e-12):
                        problems.append("empirical_gain differs from a recount")
                if not math.isclose(sum(report["original_exits"]), n, rel_tol=1e-9):
                    problems.append("recovered original exits do not sum to N")
                if not math.isfinite(report["predicted_gain"]):
                    problems.append("predicted gain is not finite")
                return problems

            out = self.run_op(rnd, f"{index}:target{target:g}", lambda t=target: self._target_op(t), check)
            if out is None:
                continue
            _, three, measured, traces, report = out
            if measured is None:
                rnd.counters["refused"] += 1
            else:
                rnd.counters["sign_agreement"] += (report["predicted_gain"] > 0) == (measured > 0)
            if target == self.accuracy_target:
                rnd.accuracy = correct_count(traces, self.labels) / n

        for tau in self.taus:

            def work(tau=tau):
                cascade = self.three.with_shared_threshold(tau)
                traces = ck.run_cascade(cascade, self.study)
                report = ck.evaluate(
                    traces,
                    self.study,
                    FULL_MODEL_COST,
                    dis_difficulty=self.difficulty,
                    positive_class=1,
                    num_stages=3,
                )
                return cascade, traces, report

            def check(out):
                cascade, traces, report = out
                return trace_problems(cascade, self.X, self.ids, traces, rnd.counters) + report_problems(
                    report, traces, self.labels, 3
                )

            self.run_op(rnd, f"{index}:sweep{tau:g}", work, check, is_op=False)
        return rnd


# -- text-pipeline ------------------------------------------------------------

NOISE_WORDS = 3000
POOL_WORDS = 40
SIGNAL_SHARE = 0.7
SIGNAL_SLOPE = 4.0


def make_vocabulary(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` distinct lowercase word-like tokens of 3 to 12 letters."""
    words: dict[str, None] = {}
    while len(words) < count:
        lengths = rng.integers(3, 13, size=count)
        letters = rng.integers(0, 26, size=int(lengths.sum()))
        pos = 0
        for length in lengths:
            words.setdefault("".join(chr(97 + c) for c in letters[pos : pos + length]), None)
            pos += length
    return np.array(list(words)[:count])


def text_records(dataset, rng: np.random.Generator, vocab: np.ndarray, keep_difficulty: bool):
    """One document of 40-120 tokens per instance.

    About 70% of tokens are signal words: each picks a feature axis and
    comes from that axis's positive or negative pool with probability
    sigmoid(4 * feature), so the bag of words carries the instance's
    features.  The rest are noise words.  With 30% signal at slope 2.5 the
    run's accuracy spread 0.07 across ten seeds; at these values, 0.03.
    """
    X = dataset.feature_matrix()
    n, dim = X.shape
    lengths = rng.integers(40, 121, size=n)
    total = int(lengths.sum())
    owner = np.repeat(np.arange(n), lengths)
    axis = rng.integers(0, dim, size=total)
    positive = rng.random(total) < 1.0 / (1.0 + np.exp(-SIGNAL_SLOPE * X[owner, axis]))
    pool = 2 * axis + (~positive)
    signal = NOISE_WORDS + pool * POOL_WORDS + rng.integers(0, POOL_WORDS, size=total)
    noise = rng.integers(0, NOISE_WORDS, size=total)
    tokens = vocab[np.where(rng.random(total) < SIGNAL_SHARE, signal, noise)]
    records = []
    for inst, words in zip(dataset.instances, np.split(tokens, np.cumsum(lengths)[:-1])):
        record = {"id": inst.id, "label": inst.label, "text": " ".join(words)}
        if keep_difficulty:
            record["difficulty"] = inst.difficulty
        records.append(record)
    return records


class TextPipeline(Workload):
    """The file-based CLI loop on text: label, train with DAR, run, metrics.

    Featurizing, difficulty labeling, DAR training and model/trace file IO
    do the work; cascade execution is a small share.
    """

    name = "text-pipeline"
    sizes = {"train": 1500, "eval": 1500, "folds": 8, "seeds": 5, "epochs": 10}
    targets = (2.0, 3.0)

    def setup(self) -> None:
        s = self.size
        rng = np.random.default_rng(self.data_seed(3))
        vocab = make_vocabulary(rng, NOISE_WORDS + 6 * POOL_WORDS)
        train_src = ck.planted_hard_task(s["train"], seed=self.data_seed(1), id_prefix="tr")
        eval_src = ck.planted_hard_task(s["eval"], seed=self.data_seed(2), id_prefix="ev")
        self.difficult_share = {"train": difficult_share(train_src), "eval": difficult_share(eval_src)}
        files = {
            "train.jsonl": text_records(train_src, rng, vocab, keep_difficulty=False),
            "eval.jsonl": text_records(eval_src, rng, vocab, keep_difficulty=True),
        }
        for name, records in files.items():
            payload = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode()
            (self.workdir / name).write_bytes(payload)
            self.inputs_sha256[name] = hashlib.sha256(payload).hexdigest()
        config = {
            "train_dataset": "train.jsonl",
            "calibration_dataset": "eval.jsonl",
            "eval_dataset": "eval.jsonl",
            "output_dir": "out",
            "dataset_format": "jsonl_text",
            "feature_dim": 256,
            "num_classes": 2,
            "full_model_cost": FULL_MODEL_COST,
            "stages": [
                {"architecture": {"kind": "linear"}, "layer_cost": 2},
                {"architecture": {"kind": "mlp", "hidden_size": 16}, "layer_cost": 12},
            ],
            "train": {"epochs": s["epochs"], "learning_rate": 0.2, "seed": self.seed, "dar_weight": 0.5},
            "difficulty_folds": s["folds"],
            "difficulty_seeds": s["seeds"],
            "difficulty_report": "out/difficulty_report.json",
            "target_speedups": list(self.targets),
            "positive_class": 1,
        }
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        self.out = self.workdir / "out"
        with self.untraced():
            eval_ds = ck.load_dataset(self.workdir / "eval.jsonl", format="jsonl_text", feature_dim=256)
            self.X = eval_ds.feature_matrix()
            self.labels = eval_ds.label_array()
            self.ids = eval_ds.ids()
            with open(self.workdir / "train.jsonl", encoding="utf-8") as fh:
                self.train_ids = [json.loads(line)["id"] for line in fh]

    def _cli(self, *argv: str) -> None:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = ck.cli.main([argv[0], "--config", str(self.config_path), *argv[1:]])
        if code != 0:
            raise RuntimeError(f"cascadekit {argv[0]} exited {code}: {sink.getvalue().strip()}")

    def _check(self, counters) -> list[str]:
        out = self.out
        problems = []
        report = ck.load_report(out / "difficulty_report.json")
        if sorted(report.labels) != sorted(self.train_ids):
            problems.append("difficulty report does not cover the train split")
        models = [ck.load_model(out / f"stage{i}_model.json") for i in range(2)]
        for target in self.targets:
            label = f"{target:g}x"
            with open(out / f"cascade_{label}.json", encoding="utf-8") as fh:
                thresholds = tuple(json.load(fh)["thresholds"])
            cascade = ck.Cascade(
                tuple(ck.StageSpec(m, c) for m, c in zip(models, (2, 12))), thresholds, FULL_MODEL_COST
            )
            traces = ck.load_traces(out / f"traces_{label}.jsonl")
            metrics = ck.load_metrics(out / f"metrics_{label}.json")
            problems += speedup_problems(cascade, self.X, target)
            problems += [
                f"{label}: {p}" for p in trace_problems(cascade, self.X, self.ids, traces, counters)
            ]
            problems += [f"{label}: {p}" for p in report_problems(metrics, traces, self.labels, 2)]
        recomputed = ck.load_metrics(out / "metrics_recomputed.json")
        if recomputed != ck.load_metrics(out / "metrics_2x.json"):
            problems.append("metrics from reloaded traces differ from the run's metrics")
        return problems

    def run_round(self, index: int) -> Round:
        rnd = Round()
        shutil.rmtree(self.out, ignore_errors=True)

        def work():
            self._cli("label")
            self._cli("train")
            self._cli("run")
            self._cli("metrics", "--traces", str(self.out / "traces_2x.jsonl"))

        self.run_op(rnd, f"{index}:pipeline", work, lambda _: self._check(rnd.counters))
        with self.untraced():
            if (self.out / "metrics_recomputed.json").exists():
                rnd.accuracy = ck.load_metrics(self.out / "metrics_recomputed.json").accuracy
        return rnd


WORKLOADS = {cls.name: cls for cls in (EvalStream, GainStudy, TextPipeline)}
