"""Per-layer tracing for the benchmark's traced run.

The tracer replaces public cascadekit functions with timing wrappers in
every module namespace that holds them, so a call is seen whichever module
its caller looked it up from (``cascadekit.cli.run_cascade`` as well as
``cascadekit.cascade.run_cascade``).  Nothing under ``src/`` changes: the
wrappers live here and are removed again by :meth:`Tracer.uninstall`.

Each cold call becomes a span (name, start, end, parent span, op id) kept
in memory.  Hot per-instance functions (``predict``, ``cascade_predict``,
``hash_featurize``) keep only call counts and summed time, because a span
per call would cost more than the call.  Every call, hot or cold, charges
its duration to the enclosing call, so self time is a call's duration
minus the time its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import os
import time
from collections import defaultdict

import numpy as np

import cascadekit
import cascadekit.analysis
import cascadekit.cascade
import cascadekit.classifier
import cascadekit.cli
import cascadekit.dataset
import cascadekit.difficulty
import cascadekit.metrics

MODULES = (
    cascadekit,
    cascadekit.analysis,
    cascadekit.cascade,
    cascadekit.classifier,
    cascadekit.cli,
    cascadekit.dataset,
    cascadekit.difficulty,
    cascadekit.metrics,
)


KNOWN_LAYERS = (
    "dataset.load_dataset",
    "dataset.hash_featurize",
    "dataset.save_dataset",
    "dataset.feature_matrix",
    "classifier.train",
    "classifier.train_dar",
    "classifier.predict",
    "classifier.predict_batch",
    "classifier.model_io",
    "difficulty.label_difficulty",
    "difficulty.report_io",
    "cascade.run_cascade",
    "cascade.cascade_predict",
    "cascade.calibrate_threshold",
    "cascade.trace_io.save",
    "cascade.trace_io.load",
    "cascade.cascade_io",
    "metrics.evaluate",
    "analysis.empirical_gain",
    "analysis.gain_report",
    "cli.label",
    "cli.train",
    "cli.run",
    "cli.metrics",
)

KNOWN_COUNTS = (
    "dataset.load_dataset.records",
    "dataset.hash_featurize.bytes",
    "classifier.train.batches",
    "classifier.train_dar.batches",
    "classifier.predict_batch.rows",
    "difficulty.fold_models",
    "cascade.run_cascade.instances",
    "cascade.stage_evals",
    "cascade.calibrate_threshold.candidates",
    "cascade.trace_io.bytes",
    "metrics.evaluate.instances",
)


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _train_key(fn, args, kwargs):
    config = _bound(fn, args, kwargs)["config"]
    return "classifier.train_dar" if config.dar_weight > 0 else "classifier.train"


class Tracer:
    """Wraps the public functions of every layer and aggregates their calls."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id: str | None = None
        self._stack: list[list] = []
        self._span_ids = itertools.count(1)
        self._paused = False
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, key, hot=False, after=None):
        tracer = self
        key_of = key if callable(key) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if tracer._paused:
                return fn(*args, **kwargs)
            name = key_of(fn, args, kwargs) if key_of else key
            if stack:
                top = stack[-1]
                # A layer calling itself (train -> train_with_log) and the
                # cold internals of a hot call (predict -> predict_batch)
                # belong to the enclosing call.
                if top[0] == name or (top[2] and not hot):
                    return fn(*args, **kwargs)
            # [layer, time covered by children, hot, span id]
            frame = [name, 0.0, hot, None if hot else next(tracer._span_ids)]
            stack.append(frame)
            failed = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                if failed:
                    tracer.errors[name] += 1
                if hot:
                    tracer.self_s[name] += duration - frame[1]
                else:
                    tracer.spans.append(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": stack[-1][3] if stack else None,
                            "id": frame[3],
                            "op": tracer.op_id,
                            "child_s": frame[1],
                        }
                    )
                hook_s = 0.0
                if after is not None and not failed:
                    tracer._paused = True
                    hook_start = time.perf_counter()
                    try:
                        after(tracer, fn, args, kwargs, result)
                    finally:
                        tracer._paused = False
                        hook_s = time.perf_counter() - hook_start
                if stack:
                    # The hook is tracing overhead, not the parent's work.
                    stack[-1][1] += duration + hook_s
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function in every namespace that holds it."""
        for fn, key, hot, after in _traced_functions():
            wrapper = self._wrap(fn, key, hot, after)
            for module in MODULES:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)
        original = cascadekit.dataset.Dataset.feature_matrix
        self._patch(
            cascadekit.dataset.Dataset,
            "feature_matrix",
            self._wrap(original, "dataset.feature_matrix"),
        )

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Let calls through untraced, e.g. while the benchmark checks results."""
        previous, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = previous

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def span_self_times(self) -> dict[str, float]:
        """Self time per cold layer, derived from the recorded spans."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span["name"]] += span["end"] - span["start"] - span["child_s"]
        return out

    def layer_self_s(self) -> dict[str, float]:
        """Self time of every traced layer, hot and cold."""
        out = dict(self.self_s)
        out.update(self.span_self_times())
        return out


# -- per-layer counters ---------------------------------------------------


def _count_records(tracer, fn, args, kwargs, result):
    tracer.counts["dataset.load_dataset.records"] += len(result)


def _count_bytes(tracer, fn, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    tracer.counts["dataset.hash_featurize.bytes"] += len(text.encode("utf-8"))


def _count_batches(tracer, fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    config = bound["config"]
    per_epoch = -(-len(bound["dataset"]) // config.batch_size)
    key = _train_key(fn, args, kwargs)
    tracer.counts[f"{key}.batches"] += config.epochs * per_epoch


def _count_rows(tracer, fn, args, kwargs, result):
    tracer.counts["classifier.predict_batch.rows"] += result.shape[0]


def _count_fold_models(tracer, fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    tracer.counts["difficulty.fold_models"] += bound["num_folds"] * bound["num_seeds"]


def _count_stage_evals(tracer, fn, args, kwargs, result):
    tracer.counts["cascade.run_cascade.instances"] += len(result)
    tracer.counts["cascade.stage_evals"] += sum(t.exit_stage + 1 for t in result)


def _count_candidates(tracer, fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    cascade, calibration = bound["cascade"], bound["calibration"]
    X = calibration.feature_matrix()
    conf = [
        cascadekit.classifier.predict_batch(stage.model, X).max(axis=1)
        for stage in cascade.stages[:-1]
    ]
    candidates = np.unique(np.concatenate(conf + [np.array([0.0, 1.0])]))
    tracer.counts["cascade.calibrate_threshold.candidates"] += candidates.size


def _count_trace_bytes(tracer, fn, args, kwargs, result):
    tracer.counts["cascade.trace_io.bytes"] += os.path.getsize(_bound(fn, args, kwargs)["path"])


def _count_evaluated(tracer, fn, args, kwargs, result):
    tracer.counts["metrics.evaluate.instances"] += result.num_instances


def _traced_functions():
    """(function, layer key, hot, counter hook) for every traced call."""
    ck = cascadekit
    return (
        (ck.dataset.load_dataset, "dataset.load_dataset", False, _count_records),
        (ck.dataset.hash_featurize, "dataset.hash_featurize", True, _count_bytes),
        (ck.dataset.save_dataset, "dataset.save_dataset", False, None),
        (ck.classifier.train, _train_key, False, _count_batches),
        (ck.classifier.train_with_log, _train_key, False, _count_batches),
        (ck.classifier.predict, "classifier.predict", True, None),
        (ck.classifier.predict_batch, "classifier.predict_batch", False, _count_rows),
        (ck.classifier.save_model, "classifier.model_io", False, None),
        (ck.classifier.load_model, "classifier.model_io", False, None),
        (ck.difficulty.label_difficulty, "difficulty.label_difficulty", False, _count_fold_models),
        (ck.difficulty.save_report, "difficulty.report_io", False, None),
        (ck.difficulty.load_report, "difficulty.report_io", False, None),
        (ck.cascade.run_cascade, "cascade.run_cascade", False, _count_stage_evals),
        (ck.cascade.cascade_predict, "cascade.cascade_predict", True, None),
        (ck.cascade.calibrate_threshold, "cascade.calibrate_threshold", False, _count_candidates),
        (ck.cascade.save_traces, "cascade.trace_io.save", False, _count_trace_bytes),
        (ck.cascade.load_traces, "cascade.trace_io.load", False, None),
        (ck.cascade.save_cascade, "cascade.cascade_io", False, None),
        (ck.cascade.load_cascade, "cascade.cascade_io", False, None),
        (ck.metrics.evaluate, "metrics.evaluate", False, _count_evaluated),
        (ck.analysis.empirical_gain, "analysis.empirical_gain", False, None),
        (ck.analysis.gain_report, "analysis.gain_report", False, None),
        (ck.cli.cmd_label, "cli.label", False, None),
        (ck.cli.cmd_train, "cli.train", False, None),
        (ck.cli.cmd_run, "cli.run", False, None),
        (ck.cli.cmd_metrics, "cli.metrics", False, None),
    )
