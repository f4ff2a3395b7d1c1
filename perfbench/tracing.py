"""Outside-in per-layer tracing for the benchmark's traced runs.

`Tracer.install` replaces hvforecast's public functions and layer
`__call__`s with wrappers that record a span (name, start, end, parent) per
call, in every module namespace that holds the same function object, so the
names `training`, `model` and `cli` import into their own namespaces are
traced too. `uninstall` restores the originals; nothing under `src/` is
modified and untraced runs never see a wrapper.

A layer's self time is its span's duration minus the durations of its
direct child spans. At entry to `numerics.backward` the wrapper also
replaces each graph node's backward closure with a timed one, keyed by op,
and counts the graph's nodes and computed bytes. Backward time per layer is
not visible from outside the program.

Spans stay in memory and are written out by `dump` when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

# Ops that numerics registers; any other op is reported as `other`.
BACKWARD_OPS = (
    "add", "sub", "mul", "maximum", "tanh", "sigmoid", "elu", "exp", "power",
    "matmul", "reshape", "transpose", "narrow", "concat", "stack", "add_bias",
    "scale_by_vector", "expand_last", "sum", "mean", "softmax")

# span name -> (module, attribute path) of the traced callables
SPAN_TARGETS = {
    "layers.bilstm": [("layers", "BiLstm.__call__")],
    "layers.mha": [("layers", "MultiHeadAttention.__call__")],
    "layers.grn": [("layers", "Grn.__call__")],
    "layers.dense": [("layers", "Dense.__call__")],
    "layers.glu": [("layers", "Glu.__call__")],
    "layers.layer_norm": [("layers", "LayerNorm.__call__")],
    "layers.dropout": [("layers", "dropout_apply")],
    "training.loss": [("training", "total_quantile_loss")],
    "training.clip": [("training", "clip_gradient_norm")],
    "training.adam": [("training", "adam_step")],
    "training.evaluate_loss": [("training", "evaluate_loss")],
    "pipeline.batch": [("pipeline", "WindowSet.batch")],
    "pipeline.build_windows": [("pipeline", "build_windows")],
    "building_sim.simulate": [("building_sim", "simulate")],
    "building_sim.excitation": [
        ("building_sim", "synth_weather"), ("building_sim", "generate_schedules"),
        ("building_sim", "generate_mprs_setpoints"),
        ("building_sim", "generate_prbs_windows")],
    "building_sim.save_csv": [("building_sim", "save_dataset_csv")],
    "building_sim.load_csv": [("building_sim", "load_dataset_csv")],
    "evaluation.write_dump": [("evaluation", "write_forecast_dump")],
    "evaluation.read_dump": [("evaluation", "read_forecast_dump")],
    "evaluation.metrics": [
        ("evaluation", "per_horizon_cvrmse"), ("evaluation", "interval_coverage"),
        ("evaluation", "pinball_scores"), ("evaluation", "plateau_step")],
    "evaluation.export": [("evaluation", "export_metrics")],
    "cli.main": [("cli", "main")],
}

# Per-layer time metrics: metric -> (span summed for self time, span whose
# call count divides it). Each reads as self milliseconds per call.
TIME_METRICS = {
    "numerics.backward_ms": ("numerics.backward", "numerics.backward"),
    "layers.bilstm_ms": ("layers.bilstm", "layers.bilstm"),
    "layers.mha_ms": ("layers.mha", "layers.mha"),
    "layers.grn_ms": ("layers.grn", "layers.grn"),
    "layers.dense_ms": ("layers.dense", "layers.dense"),
    "layers.glu_ms": ("layers.glu", "layers.glu"),
    "layers.layer_norm_ms": ("layers.layer_norm", "layers.layer_norm"),
    "layers.dropout_ms": ("layers.dropout", "layers.dropout"),
    "model.forward_ms": ("model.forward", "model.forward"),
    "model.forecast_ms": ("model.forecast", "model.forecast"),
    "training.loss_ms": ("training.loss", "training.loss"),
    "training.clip_ms": ("training.clip", "training.clip"),
    "training.adam_ms": ("training.adam", "training.adam"),
    "training.evaluate_loss_ms": ("training.evaluate_loss", "training.evaluate_loss"),
    "pipeline.batch_ms": ("pipeline.batch", "pipeline.batch"),
    "pipeline.build_windows_ms": ("pipeline.build_windows", "pipeline.build_windows"),
    "building_sim.simulate_ms": ("building_sim.simulate", "building_sim.simulate"),
    # the four excitation generators, per generated dataset
    "building_sim.excitation_ms": ("building_sim.excitation", "building_sim.simulate"),
    "building_sim.save_csv_ms": ("building_sim.save_csv", "building_sim.save_csv"),
    "building_sim.load_csv_ms": ("building_sim.load_csv", "building_sim.load_csv"),
    "evaluation.write_dump_ms": ("evaluation.write_dump", "evaluation.write_dump"),
    "evaluation.read_dump_ms": ("evaluation.read_dump", "evaluation.read_dump"),
    # the four metric functions, per dump read
    "evaluation.metrics_ms": ("evaluation.metrics", "evaluation.read_dump"),
    "evaluation.export_ms": ("evaluation.export", "evaluation.export"),
    "cli.self_ms": ("cli.main", "cli.main"),
}

# Per-layer count metrics: metric -> (counter, span whose call count divides it).
COUNT_METRICS = {
    "numerics.graph_nodes": ("graph_nodes", "numerics.backward"),
    "numerics.nodes.narrow": ("nodes.narrow", "numerics.backward"),
    "numerics.nodes.sigmoid": ("nodes.sigmoid", "numerics.backward"),
    "numerics.nodes.matmul": ("nodes.matmul", "numerics.backward"),
    "numerics.graph_mb": ("graph_mb", "numerics.backward"),
    **{f"numerics.bw_ms.{op}": (f"bw_ms.{op}", "numerics.backward")
       for op in BACKWARD_OPS + ("other",)},
    "training.clipped_frac": ("clipped", "training.clip"),
    "pipeline.batch_windows": ("batch_windows", "pipeline.batch"),
    "pipeline.clamped_inputs": ("clamped_inputs", "pipeline.build_windows"),
    "building_sim.inner_steps": ("inner_steps", "building_sim.simulate"),
    "building_sim.csv_mb": ("csv_mb", "building_sim.save_csv"),
    "evaluation.dump_rows": ("dump_rows", "evaluation.write_dump"),
}

_COUNT_UNITS = {"numerics.graph_mb": "MB", "building_sim.csv_mb": "MB",
                "training.clipped_frac": "fraction"}
PER_LAYER_UNITS = {
    **{metric: "ms" for metric in TIME_METRICS},
    **{metric: "ms" if metric.startswith("numerics.bw_ms.")
       else _COUNT_UNITS.get(metric, "count") for metric in COUNT_METRICS},
    "trace.overhead_pct": "%",
}


def self_times(spans) -> list[float]:
    """Self duration of each span: its duration minus the durations of the
    spans whose parent it is. Each span is (name, start, end, parent, ...)
    with parent = index of the enclosing span or -1."""
    out = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            out[span[3]] -= span[2] - span[1]
    return out


def graph_counts(order) -> dict[str, float]:
    """Node counts and computed bytes of an autodiff graph, given as
    `numerics.topological_order(loss)`."""
    ops = Counter(node.op for node in order)
    computed = sum(node.data.nbytes for node in order if node._backward is not None)
    return {"graph_nodes": len(order), "nodes.narrow": ops["narrow"],
            "nodes.sigmoid": ops["sigmoid"], "nodes.matmul": ops["matmul"],
            "graph_mb": computed / 1e6}


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Spans and counters of one traced run; `op` labels the stage whose
    calls are being recorded, so spans of one stage share an identifier."""

    def __init__(self, hv: dict):
        self.hv = hv                  # module name -> hvforecast module
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[idx][1] = start
        self.spans[idx][2] = end

    def _wrap(self, fn, name_of, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._enter(name_of(args, kwargs))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx, start, perf_counter())
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch_everywhere(self, module_name: str, path: str, make) -> None:
        owner, attr = _resolve(self.hv[module_name], path)
        original = getattr(owner, attr)
        wrapper = make(original)
        owners = [owner] if owner is not self.hv[module_name] else [
            mod for mod in self.hv.values() if getattr(mod, attr, None) is original]
        for target in owners:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            return
        after = {
            "training.clip": self._after_clip,
            "pipeline.batch": self._after_batch,
            "building_sim.simulate": self._after_simulate,
            "building_sim.save_csv": self._after_save_csv,
            "evaluation.write_dump": self._after_write_dump,
        }
        for span, targets in SPAN_TARGETS.items():
            for module_name, path in targets:
                self._patch_everywhere(
                    module_name, path,
                    lambda fn, span=span: self._wrap(
                        fn, lambda a, k, span=span: span, after.get(span)))
        self._patch_everywhere("model", "forward_batch", lambda fn: self._wrap(
            fn, lambda a, k: "model.forward" if k.get(
                "training", a[3] if len(a) > 3 else False) else "model.forecast"))
        self._patch_everywhere("numerics", "backward", self._wrap_backward)
        self._patch_everywhere("pipeline", "Scaler.scale", self._wrap_scale)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- counters ----------------------------------------------------------

    def _after_clip(self, args, kwargs, norm) -> None:
        max_norm = kwargs.get("max_norm", args[1] if len(args) > 1 else None)
        self.counts["clipped"] += float(norm > max_norm)

    def _after_batch(self, args, kwargs, result) -> None:
        self.counts["batch_windows"] += len(result[0])

    def _after_simulate(self, args, kwargs, dataset) -> None:
        inner = kwargs.get("inner_step_s", 60)
        self.counts["inner_steps"] += len(dataset) * (
            self.hv["building_sim"].SAMPLE_STEP_S // inner)

    def _after_save_csv(self, args, kwargs, result) -> None:
        self.counts["csv_mb"] += os.path.getsize(args[1]) / 1e6

    def _after_write_dump(self, args, kwargs, result) -> None:
        self.counts["dump_rows"] += int(getattr(args[1], "size", 0))

    def _wrap_scale(self, fn):
        tracer = self

        @functools.wraps(fn)
        def scale(scaler, values, feature):
            before = scaler.total_clamped()
            out = fn(scaler, values, feature)
            tracer.counts["clamped_inputs"] += scaler.total_clamped() - before
            return out

        return scale

    def _wrap_backward(self, fn):
        tracer = self
        nm = self.hv["numerics"]
        known = set(BACKWARD_OPS)

        def timed(closure, key):
            def run(g):
                start = perf_counter()
                grads = closure(g)
                tracer.counts[key] += (perf_counter() - start) * 1e3
                return grads
            return run

        @functools.wraps(fn)
        def backward(loss):
            if loss.requires_grad:
                order = nm.topological_order(loss)
                for key, value in graph_counts(order).items():
                    tracer.counts[key] += value
                for node in order:
                    if node._backward is not None:
                        op = node.op if node.op in known else "other"
                        node._backward = timed(node._backward, f"bw_ms.{op}")
            idx = tracer._enter("numerics.backward")
            start = perf_counter()
            try:
                return fn(loss)
            finally:
                tracer._exit(idx, start, perf_counter())

        return backward

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        self_ms: defaultdict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for (name, *_), own in zip(self.spans, self_times(self.spans)):
            self_ms[name] += own * 1e3
            calls[name] += 1
        out = {}
        for metric, (span, per) in TIME_METRICS.items():
            out[metric] = self_ms[span] / calls[per] if calls[per] else 0.0
        for metric, (counter, per) in COUNT_METRICS.items():
            out[metric] = self.counts[counter] / calls[per] if calls[per] else 0.0
        return out

    def dump(self, path) -> None:
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for i, ((name, start, end, parent, op), own) in enumerate(
                    zip(self.spans, self_times(self.spans))):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "op": op, "name": name,
                    "start_ms": round((start - origin) * 1e3, 4),
                    "dur_ms": round((end - start) * 1e3, 4),
                    "self_ms": round(own * 1e3, 4)}) + "\n")
