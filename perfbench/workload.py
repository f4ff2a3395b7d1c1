"""Run one benchmark workload in this process and print its result.

Started by `run.py`, which gives every workload a fresh interpreter with a
fixed BLAS thread count. Uses only hvforecast's public API: `cli.main`,
`training.fit`, `model.build_model` / `forward_batch`, and the
`building_sim`, `pipeline` and `evaluation` functions. Working files live in
`.perfbench_out/` under the checkout and are removed when the run ends.

The last stdout line is the JSON result; the lines before it are a
human-readable report (environment, each metric's value with its sample
count, median, min and max, the error rate, and any failed checks).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import Checker, all_finite, array_entries, digest, entry, load_reference
from specs import (DAYS, DEFAULT_SEED, MIN_ROUNDS, SETUP, STAGE_METRICS, START,
                   WORKLOADS, Workload)
from tracing import PER_LAYER_UNITS, Tracer, graph_counts

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Counts the ROADMAP baseline recorded at the seed commit: one tiny train
# step at B=32, and the parameter count of the reference geometry.
BASELINE_COUNTS = {"graph_nodes": 2968, "nodes.narrow": 667, "nodes.sigmoid": 438,
                   "reference_parameters": 8_701_635}

MODULES = ("numerics", "layers", "model", "training", "pipeline",
           "building_sim", "evaluation", "cli", "config")


def import_hvforecast() -> dict:
    """Import hvforecast from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "hvforecast" / "__init__.py").is_file():
        raise SystemExit(f"error: no hvforecast sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib
    hv = {name: importlib.import_module(f"hvforecast.{name}") for name in MODULES}
    if Path(hv["cli"].__file__).resolve().parent != SRC / "hvforecast":
        raise SystemExit(f"error: hvforecast imported from {hv['cli'].__file__}")
    return hv


def timed(fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - start


def evenly(count: int, total: int) -> list[int]:
    """`count` indices spread evenly over range(total)."""
    if count > total:
        raise ValueError(f"need {count} windows, the split has {total}")
    return [round(i * (total - 1) / max(count - 1, 1)) for i in range(count)]


def numeric_leaves(obj) -> list[float]:
    if isinstance(obj, dict):
        return [v for key in sorted(obj) for v in numeric_leaves(obj[key])]
    if isinstance(obj, list):
        return [v for item in obj for v in numeric_leaves(item)]
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return [float(obj)]
    return []


class Run:
    """State of one workload run: the dataset, model, window subsets and
    timing samples, plus the checker and (in traced runs) the tracer."""

    def __init__(self, spec: Workload, seed: int, hv: dict, workdir: Path,
                 checker: Checker):
        self.spec, self.seed, self.hv, self.checker = spec, seed, hv, checker
        config = hv["config"]
        paths = {"dataset": "dataset.csv", "manifest": "manifest.json",
                 "checkpoint": "model.ckpt", "train_log": "training.jsonl",
                 "forecast_dump": "forecasts.csv", "metrics_dir": "metrics"}
        paths = {key: str(workdir / name) for key, name in paths.items()}
        self.config_path = workdir / "run.json"
        self.config_path.write_text(json.dumps({"paths": paths}))
        self.cfg = config.apply_profile(
            config.RunConfig(seed=seed, paths=config.PathsSection(**paths)),
            spec.profile)
        self.tracer: Tracer | None = None
        self.samples: dict[str, list[float]] = {}   # stage -> seconds per execution

    # -- stages: each returns (seconds, observation) ------------------------

    def _cli(self, command: str, *extra: str) -> tuple[int, float]:
        argv = [command, "--config", str(self.config_path), "--profile",
                self.spec.profile, "--seed", str(self.seed), *extra]
        with contextlib.redirect_stdout(io.StringIO()):
            return timed(self.hv["cli"].main, argv)

    def stage_generate(self):
        rc, seconds = self._cli("generate", "--days", str(DAYS), "--start", START)
        data = Path(self.cfg.paths.dataset).read_bytes()
        return seconds, {
            "invariants": {"exit code 0": rc == 0,
                           "one row per 15 min": data.count(b"\n") == DAYS * 96 + 1},
            "digest": digest(data)}

    def stage_load(self):
        sim = self.hv["building_sim"]
        self.dataset, seconds = timed(sim.load_dataset_csv, self.cfg.paths.dataset)
        table = np.column_stack([self.dataset.columns[c] for c in sim.DATASET_COLUMNS])
        return seconds, {
            "invariants": {"rows": len(self.dataset) == DAYS * 96,
                           "finite": bool(np.isfinite(table).all())},
            "values": {"column_sums": entry(table.sum(axis=0)),
                       "column_squares": entry((table * table).sum(axis=0))}}

    def stage_windows(self):
        pipeline, p = self.hv["pipeline"], self.cfg.pipeline

        def split():
            windows = pipeline.build_windows(
                self.dataset, n_past=p.n_past, n_future=p.n_future,
                stride=p.stride, noise_sd=p.noise_sd, noise_seed=self.seed)
            return pipeline.split_chronological(windows, fractions=p.fractions)

        splits, seconds = timed(split)
        spec = self.spec
        self.train_set = splits.train.subset(
            splits.train.origins[evenly(spec.train_windows, len(splits.train))])
        self.val_set = splits.validation.subset(
            splits.validation.origins[evenly(spec.val_windows, len(splits.validation))])
        self.forecast_set = splits.test.subset(
            splits.test.origins[evenly(spec.forecast_windows, len(splits.test))])
        self.test_count = len(splits.test)
        sizes = [len(splits.train), len(splits.validation), len(splits.test)]
        return seconds, {"invariants": {"non-empty splits": min(sizes) > 0},
                         "values": {"split_sizes": entry(sizes)}}

    def stage_build(self):
        cfg, hv = self.cfg, self.hv
        mc = hv["model"].ModelConfig(
            n_past=cfg.pipeline.n_past, n_future=cfg.pipeline.n_future,
            past_feature_count=len(hv["pipeline"].PAST_FEATURES),
            future_feature_count=len(hv["pipeline"].FUTURE_FEATURES),
            zone_count=len(hv["pipeline"].TARGET_FEATURES),
            rnn_units=cfg.model.rnn_units, mha_heads=cfg.model.mha_heads,
            d_model=cfg.model.d_model, dropout_rate=cfg.model.dropout_rate,
            quantile_levels=tuple(cfg.model.quantile_levels), rng_seed=self.seed)
        self.params, seconds = timed(hv["model"].build_model, mc)
        self.initial = {n: p.data.copy() for n, p in self.params.named_parameters().items()}
        return seconds, {"invariants": {"has parameters": bool(self.initial)},
                         "values": {"parameters": entry([self.params.parameter_count()])}}

    def stage_ckpt(self):
        training = self.hv["training"]
        self.hv["model"].set_parameter_values(self.params, self.initial)
        _, seconds = timed(lambda: training.save_checkpoint(
            training.make_checkpoint(self.params), self.cfg.paths.checkpoint))
        return seconds, {"invariants": {
            "written": os.path.getsize(self.cfg.paths.checkpoint) > 0}}

    def stage_train(self):
        training, t = self.hv["training"], self.cfg.training
        self.hv["model"].set_parameter_values(self.params, self.initial)
        hyper = training.Hyperparameters(
            batch_size=self.spec.batch, learning_rate=t.learning_rate,
            max_epochs=1, patience=t.patience, grad_clip_norm=t.grad_clip_norm,
            shuffle_seed=self.seed)
        report, seconds = timed(training.fit, self.params, self.train_set,
                                self.val_set, hyper)
        losses = [report.epochs[0].val_loss] + [
            v for e in report.epochs[1:] for v in (e.train_loss, e.val_loss)]
        return seconds, {
            "invariants": {"one epoch": len(report.epochs) == 2,
                           "finite losses": all_finite(losses)},
            "digest": digest(json.dumps(losses).encode()),
            "values": {"losses": entry(losses)}}

    def stage_forecast(self):
        model, nm = self.hv["model"], self.hv["numerics"]
        n, batch = self.spec.forecast_windows, self.spec.batch

        def forecast():
            parts = []
            with nm.no_grad():
                for lo in range(0, n, batch):
                    past, future, _ = self.forecast_set.batch(range(lo, min(lo + batch, n)))
                    parts.append(model.forward_batch(self.params, past, future,
                                                     training=False).data)
            return np.concatenate(parts)

        values, seconds = timed(forecast)
        mc = self.params.cfg
        shape = (n, mc.n_future, mc.zone_count, len(mc.quantile_levels))
        return seconds, {
            "invariants": {"shape": values.shape == shape,
                           "finite": bool(np.isfinite(values).all())},
            "digest": digest(values.tobytes()),
            "values": array_entries(values)}

    def _instances(self) -> int:
        return min(self.spec.instances, self.test_count)

    def stage_predict(self):
        rc, seconds = self._cli("predict", "--instances", f"head:{self.spec.instances}")
        data = Path(self.cfg.paths.forecast_dump).read_bytes()
        mc = self.params.cfg
        rows = self._instances() * mc.n_future * mc.zone_count * len(mc.quantile_levels)
        return seconds, {
            "invariants": {"exit code 0": rc == 0,
                           "one row per value": data.count(b"\n") == rows + 1},
            "digest": digest(data)}

    def stage_evaluate(self):
        rc, seconds = self._cli("evaluate")
        metrics_dir = Path(self.cfg.paths.metrics_dir)
        outputs = b"".join((metrics_dir / name).read_bytes() for name in (
            "summary.json", "coverage.csv", "horizon_cvrmse.csv"))
        summary = json.loads((metrics_dir / "summary.json").read_text())
        flat = numeric_leaves(summary)
        return seconds, {
            "invariants": {"exit code 0": rc == 0,
                           "instances": summary.get("instances") == self._instances(),
                           "finite": all_finite(flat)},
            "digest": digest(outputs),
            "values": {"summary": entry(flat)}}

    # -- driving ----------------------------------------------------------

    def execute(self, stage: str, label: str, sample: bool = True) -> None:
        """Run and check one stage; with `sample`, a passing execution's time
        becomes a sample of its stage."""
        if self.tracer is not None:
            self.tracer.op = label
        try:
            seconds, obs = getattr(self, f"stage_{stage}")()
        except Exception as exc:  # a stage that raises is a counted failure
            self.checker.raised(stage, exc)
            return
        if self.checker.check(stage, obs) and sample:
            self.samples.setdefault(stage, []).append(seconds)

    def round(self, label: str, sample: bool = True) -> float:
        """One round: set-up, then the round stages. Returns the set-up's
        seconds."""
        start = perf_counter()
        for stage in SETUP:
            self.execute(stage, f"{label}/{stage}", sample)
        setup_s = perf_counter() - start
        for stage in self.spec.rounds:
            self.execute(stage, f"{label}/{stage}", sample)
        return setup_s

    def run(self, seconds: float, tracer: Tracer | None):
        """An untimed warm-up round, then rounds until `seconds` have passed
        (at least MIN_ROUNDS). With a tracer, every other round is traced;
        the untraced rounds give the tracing overhead."""
        self.tracer = tracer
        self.round("warmup", sample=False)
        setup_s = []
        round_s = {False: [], True: []}
        deadline = perf_counter() + seconds
        k = 0
        while k < MIN_ROUNDS or perf_counter() < deadline:
            traced = tracer is not None and k % 2 == 1
            if traced:
                tracer.install()
            start = perf_counter()
            setup_s.append(self.round(f"round{k}"))
            round_s[traced].append(perf_counter() - start)
            if traced:
                tracer.uninstall()
            k += 1
        return setup_s, round_s

    def stage_metrics(self) -> dict[str, list[float]]:
        """Samples of each end-to-end metric: one per execution of its stage,
        in seconds or, for a rate, work per second."""
        work = {"train": self.spec.train_windows, "forecast": self.spec.forecast_windows}
        out = {}
        for metric, (stage, unit) in STAGE_METRICS.items():
            seconds = self.samples.get(stage, [])
            out[metric] = [work[stage] / s for s in seconds] if unit == "1/s" else seconds
        return out


def selfcheck(hv: dict) -> dict[str, tuple[int, int]]:
    """Measured vs baseline counts: graph of one tiny train step at B=32,
    and the reference geometry's parameter count."""
    config, model, training = hv["config"], hv["model"], hv["training"]
    cfg = config.apply_profile(config.RunConfig(seed=DEFAULT_SEED), "tiny")
    mc = model.ModelConfig(n_past=cfg.pipeline.n_past, n_future=cfg.pipeline.n_future,
                           rnn_units=cfg.model.rnn_units, mha_heads=cfg.model.mha_heads,
                           d_model=cfg.model.d_model, dropout_rate=cfg.model.dropout_rate,
                           rng_seed=DEFAULT_SEED)
    params = model.build_model(mc)
    rng = np.random.default_rng(DEFAULT_SEED)
    batch = cfg.training.batch_size
    past = rng.uniform(-1, 1, (batch, mc.n_past, mc.past_feature_count))
    future = rng.uniform(-1, 1, (batch, mc.n_future, mc.future_feature_count))
    target = rng.uniform(-1, 1, (batch, mc.n_future, mc.zone_count))
    out = model.forward_batch(params, past, future, training=True, rng=rng)
    loss = training.total_quantile_loss(target, out, mc.quantile_levels)
    graph = graph_counts(hv["numerics"].topological_order(loss))
    measured = {k: int(v) for k, v in graph.items() if k in BASELINE_COUNTS}
    measured["reference_parameters"] = model.build_model(
        model.ModelConfig()).parameter_count()
    return {k: (measured[k], BASELINE_COUNTS[k]) for k in BASELINE_COUNTS}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    ram_mb = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                ram_mb = int(line.split()[1]) // 1024
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "ram_mb": ram_mb, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def summarize(name: str, samples: list[float]) -> float:
    """The reported value: the median of the set-ups; for a stage, the mean
    over all executions (a rate's harmonic mean is total work over total
    seconds, as every execution does the same work)."""
    if not samples:
        return 0.0
    if name == "setup_s":
        return statistics.median(samples)
    unit = STAGE_METRICS[name][1]
    return statistics.harmonic_mean(samples) if unit == "1/s" else statistics.fmean(samples)


def report_line(name: str, samples: list[float], unit: str) -> str:
    if not samples:
        return f"metric {name}: no samples"
    return (f"metric {name} = {summarize(name, samples):.6g} {unit} "
            f"(of {len(samples)} samples: median {statistics.median(samples):.6g}, "
            f"min {min(samples):.6g}, max {max(samples):.6g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    hv = import_hvforecast()

    if args.selfcheck:
        counts = selfcheck(hv)
        for name, (got, want) in counts.items():
            print(f"selfcheck {name}: {got} (baseline {want})")
        return 0 if all(got == want for got, want in counts.values()) else 1
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required")

    spec = WORKLOADS[args.workload]
    reference = load_reference(spec.name) if args.seed == DEFAULT_SEED else None
    checker = Checker(reference)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {spec.name} seed {args.seed} seconds {args.seconds} trace {args.trace}"
          f" checks {'fingerprints' if reference else 'invariants'}")

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{spec.name}-{os.getpid()}"
    workdir.mkdir()
    tracer = Tracer(hv) if args.trace else None
    try:
        run = Run(spec, args.seed, hv, workdir, checker)
        setup_s, round_s = run.run(args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = {"setup_s": setup_s, **run.stage_metrics()}
    units = {"setup_s": "s", **{m: u for m, (_, u) in STAGE_METRICS.items()}}
    for name, got in samples.items():
        print(report_line(name, got, units[name]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"metric peak_rss_mb = {peak_rss_mb:.6g} MB")
    rate = checker.failed / max(checker.attempted, 1)
    print(f"error_rate = {rate:.6g} ({checker.failed} of {checker.attempted} operations)")
    for message in checker.messages:
        print(f"FAILED {message}")

    if tracer is None:
        metrics = {name: {"value": summarize(name, got), "unit": units[name]}
                   for name, got in samples.items()}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    else:
        layer = tracer.metrics()
        untraced, traced = round_s[False], round_s[True]
        layer["trace.overhead_pct"] = (
            100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
            if traced and untraced else 0.0)
        trace_path = OUT / f"trace-{spec.name}-seed{args.seed}.jsonl"
        tracer.dump(trace_path)
        print(f"trace: {len(tracer.spans)} spans in {trace_path.relative_to(ROOT)}")
        for name, (got, want) in selfcheck(hv).items():
            print(f"selfcheck {name}: {got} (baseline {want})")
        metrics = {name: {"value": layer[name], "unit": PER_LAYER_UNITS[name]}
                   for name in PER_LAYER_UNITS}
    print(json.dumps({"correct": checker.failed == 0 and checker.attempted > 0,
                      "attempted": checker.attempted, "failed": checker.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
