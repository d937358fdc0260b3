"""Span tracing of catemeta's layers, applied from outside the package.

Every catemeta module binds its collaborators with ``from .x import y``, so a
layer is traced by replacing the name where it is imported (for example
``catemeta.simulate.fit_causal_forest`` and ``catemeta.cli.reml_theta2``),
never inside the layer itself.  Each call records a span (name, start, end,
parent) in memory; a span's self time is its duration minus the durations of
its child spans.  Counters are read from arguments and results after the span
closes, so counting costs nothing inside the span that is being timed.

The wrapper itself costs about a microsecond a call, part of it inside the
span it opens and part of it outside, where the caller's span pays for it.
``wrapper_cost`` measures both parts on a no-op function and the reported
self times have them taken off, so a layer that makes many wrapped calls
(``simulate.run_experiment``, ``cli.main``) is not charged for the tracer.
The counter callbacks, which run outside the spans, are not taken off; they
are cheap next to the calls they count.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
import types
from collections import defaultdict

import numpy as np


def _count_forest(counts, args, kwargs, model):
    for tree in model.trees:
        leaves = tree.feature < 0
        counts["forest.trees"] += 1
        counts["forest.nodes"] += tree.n_nodes
        counts["forest.leaves"] += int(leaves.sum())
        counts["forest.usable_leaves"] += int(np.isfinite(tree.leaf_tau[leaves]).sum())


def _count_bart(counts, args, kwargs, posterior):
    params = posterior.params
    counts["bart.tree_updates"] += params.n_trees * (params.n_burn + params.n_draws)


def _count_reml_scalar(counts, args, kwargs, theta2):
    counts["meta.theta2_estimates"] += 1
    counts["meta.theta2_zeros"] += int(theta2 == 0.0)


def _count_reml_batch(counts, args, kwargs, theta2):
    counts["meta.reml_batch.profiles"] += theta2.shape[0]
    counts["meta.theta2_estimates"] += theta2.shape[0]
    counts["meta.theta2_zeros"] += int((theta2 == 0.0).sum())


def _count_read(counts, args, kwargs, result):
    paths = args[0] if isinstance(args[0], list) else [args[0]]
    counts["io.read.bytes"] += sum(os.path.getsize(p) for p in paths)
    if isinstance(result, dict):  # aggregates, grouped by profile
        counts["io.read.rows"] += sum(len(rows) for rows in result.values())
    elif result and hasattr(result[0], "n_rows"):  # trial datasets
        counts["io.read.rows"] += sum(d.n_rows for d in result)
    else:  # profiles
        counts["io.read.rows"] += len(result)


def _count_write(counts, args, kwargs, result):
    counts["io.write.bytes"] += os.path.getsize(args[0])


def _count_svg(counts, args, kwargs, text):
    counts["svg.render.bytes"] += len(text.encode("utf-8"))


# (module, attribute, span name, counter).  A name imported into several
# modules is wrapped in each of them under one span name.
TARGETS = (
    ("catemeta.cli", "main", "cli.main", None),
    ("catemeta.simulate", "run_experiment", "simulate.run_experiment", None),
    ("catemeta.simulate", "gen_study", "simulate.gen_study", None),
    ("catemeta.simulate", "gen_target_profiles", "simulate.gen_target_profiles", None),
    ("catemeta.simulate", "substream", "rng.substream", None),
    ("catemeta.forest", "substream", "rng.substream", None),
    ("catemeta.bart", "substream", "rng.substream", None),
    ("catemeta.simulate", "fit_interaction_ols", "linear.fit", None),
    ("catemeta.cli", "fit_interaction_ols", "linear.fit", None),
    ("catemeta.simulate", "linear_cate", "linear.cate", None),
    ("catemeta.cli", "linear_cate", "linear.cate", None),
    ("catemeta.simulate", "fit_causal_forest", "forest.fit", _count_forest),
    ("catemeta.cli", "fit_causal_forest", "forest.fit", _count_forest),
    ("catemeta.simulate", "forest_cates", "forest.predict", None),
    ("catemeta.cli", "forest_cates", "forest.predict", None),
    ("catemeta.simulate", "fit_bart_slearner", "bart.fit", _count_bart),
    ("catemeta.cli", "fit_bart_slearner", "bart.fit", _count_bart),
    ("catemeta.simulate", "bart_cate_normal", "bart.cate", None),
    ("catemeta.cli", "bart_cate_normal", "bart.cate", None),
    ("catemeta.cli", "bart_cate_quantile", "bart.cate", None),
    ("catemeta.cli", "reml_theta2", "meta.reml_scalar", _count_reml_scalar),
    ("catemeta.simulate", "reml_theta2_batch", "meta.reml_batch", _count_reml_batch),
    ("catemeta.simulate", "pool_cate", "meta.pool", None),
    ("catemeta.cli", "pool_cate", "meta.pool", None),
    ("catemeta.simulate", "prediction_interval", "meta.interval", None),
    ("catemeta.cli", "prediction_interval", "meta.interval", None),
    ("catemeta.cli", "read_aggregates_csv", "io.read", _count_read),
    ("catemeta.cli", "read_trials_csv", "io.read", _count_read),
    ("catemeta.cli", "read_profiles_csv", "io.read", _count_read),
    ("catemeta.cli", "write_aggregates_csv", "io.write", _count_write),
    ("catemeta.cli", "write_predictions_csv", "io.write", _count_write),
    ("catemeta.cli", "prediction_intervals_svg", "svg.render", _count_svg),
    ("catemeta.cli", "validate_trial", "model.validate", None),
)

# Manifest phase of `catemeta estimate`/`predict` that encloses each layer's
# calls made directly from cli.main; used to cross-check the two clocks.
_PHASE_OF_LAYER = {
    "io.read": "read", "model.validate": "validate",
    "linear": "fit", "forest": "fit", "bart": "fit",
    "meta": "pool", "io.write": "write", "svg.render": "write",
}
CLI_PHASES = ("read", "validate", "fit", "pool", "write")
# Slack for the manifest rounding its timings to microseconds.
_PHASE_SLACK_S = 1e-5

# Spans reported as ``<name>.calls`` and ``<name>.self_s`` per pass; the
# ``cli.main`` span is reported as ``cli.self_s``.
SPAN_NAMES = (
    "simulate.run_experiment", "simulate.gen_study", "simulate.gen_target_profiles",
    "rng.substream", "linear.fit", "linear.cate", "forest.fit", "forest.predict",
    "bart.fit", "bart.cate", "meta.reml_scalar", "meta.reml_batch", "meta.pool",
    "meta.interval", "io.read", "io.write", "svg.render", "model.validate",
)


def _ratio(num, den):
    return num / den if den else 0.0


def wrapper_cost(calls: int = 5000, repeats: int = 5) -> tuple[float, float]:
    """Seconds one wrapped call adds ``(outside, inside)`` its span.

    Each is the least over ``repeats`` rounds of ``calls`` calls of a wrapped
    no-op, against the same loop calling the no-op directly.
    """
    target = types.SimpleNamespace(noop=lambda: None)
    plain = target.noop
    outside = inside = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            pass
        loop_s = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            plain()
        plain_s = time.perf_counter() - start
        with Tracer(calibrate=False) as probe:
            probe._wrap(target, "noop", "noop", None)
            traced = target.noop
            start = time.perf_counter()
            for _ in range(calls):
                traced()
            traced_s = time.perf_counter() - start
        spans_s = sum(end - begin for _, begin, end, _ in probe.spans)
        outside = min(outside, (traced_s - spans_s - loop_s) / calls)
        inside = min(inside, (spans_s - (plain_s - loop_s)) / calls)
    return outside, inside


class Tracer:
    """Records spans around the wrapped catemeta functions while installed.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original function.  Spans of one pass share a ``pass``
    root span opened by :meth:`pass_span`.
    """

    def __init__(self, calibrate: bool = True):
        self.spans: list[list] = []  # [name, start, end, parent index]
        # Wrapper cost per call (outside, inside its span); measured once,
        # on first entry, when calibrating.
        self.cost: tuple[float, float] | None = None if calibrate else (0.0, 0.0)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), math.nan, parent])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, module, attr, name, count):
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def __enter__(self):
        if self.cost is None:
            self.cost = wrapper_cost()
        for module_name, attr, name, count in TARGETS:
            self._wrap(importlib.import_module(module_name), attr, name, count)
        return self

    def __exit__(self, *exc):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        return False

    def pass_span(self, run):
        """Run ``run()`` under a root ``pass`` span and return its result."""
        span = self._open("pass")
        try:
            return run()
        finally:
            self._close(span)

    def self_times(self) -> list[float]:
        """Each span's duration less its children's and the wrapper's cost."""
        outside, inside = self.cost or (0.0, 0.0)
        own = [end - start - (inside if name != "pass" else 0.0)
               for name, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start + outside
        return own

    def phase_mismatches(self, manifests) -> list[str]:
        """Compare each pass's manifest phases with the spans inside them.

        ``manifests`` holds one ``timings_seconds`` dict per traced pass, in
        pass order.  Each phase must cover the spans of the layers it calls,
        and all phases together must fit inside the ``cli.main`` span.
        """
        mains = [i for i, span in enumerate(self.spans) if span[0] == "cli.main"]
        problems = []
        for main, phases in zip(mains, manifests):
            inside = defaultdict(float)
            for name, start, end, parent in self.spans:
                phase = _PHASE_OF_LAYER.get(name, _PHASE_OF_LAYER.get(name.split(".")[0]))
                if parent == main and phase is not None:
                    inside[phase] += end - start
            main_s = self.spans[main][2] - self.spans[main][1]
            for phase, span_s in inside.items():
                if phases.get(phase, 0.0) + _PHASE_SLACK_S < span_s:
                    problems.append(
                        f"phase {phase} {phases.get(phase, 0.0):.6f}s < spans {span_s:.6f}s"
                    )
            if sum(phases.values()) > main_s + _PHASE_SLACK_S * len(phases):
                problems.append(f"phases sum past cli.main {main_s:.6f}s")
        return problems

    def layer_metrics(self, n_passes: int) -> dict[str, float]:
        """Per-pass span counts, self times and counters, keyed by metric name."""
        own = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for (name, _, _, _), own_s in zip(self.spans, own):
            calls[name] += 1
            self_s[name] += own_s
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / n_passes
            out[f"{name}.self_s"] = self_s[name] / n_passes
        c = self.counts
        out["cli.self_s"] = self_s["cli.main"] / n_passes
        out["trace.wrapper_us"] = 1e6 * sum(self.cost or (0.0, 0.0))
        out["forest.trees_grown"] = c["forest.trees"] / n_passes
        out["forest.nodes_per_tree"] = _ratio(c["forest.nodes"], c["forest.trees"])
        out["forest.usable_leaf_frac"] = _ratio(c["forest.usable_leaves"], c["forest.leaves"])
        out["bart.tree_update_us"] = 1e6 * _ratio(self_s["bart.fit"], c["bart.tree_updates"])
        out["meta.reml_batch.profiles"] = c["meta.reml_batch.profiles"] / n_passes
        out["meta.theta2_zero_frac"] = _ratio(c["meta.theta2_zeros"], c["meta.theta2_estimates"])
        out["io.read.rows"] = c["io.read.rows"] / n_passes
        out["io.read.bytes"] = c["io.read.bytes"] / n_passes
        out["io.write.bytes"] = c["io.write.bytes"] / n_passes
        out["svg.render.bytes"] = c["svg.render.bytes"] / n_passes
        return out
