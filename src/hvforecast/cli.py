"""Command-line entry point: generate a simulated dataset, train the
forecaster on it, emit probabilistic forecasts for test instances, and
evaluate them. One seed drives every stage, so a full
generate/train/predict/evaluate chain is reproducible end to end.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .building_sim import (
    load_dataset_csv,
    save_dataset_csv,
    simulate,
    simulator_inputs,
)
from .config import (
    PROFILES,
    RunConfig,
    apply_profile,
    load_config,
    with_changes,
)
from .errors import CheckpointError, ConfigurationError, ParseError
from .evaluation import (
    export_metrics,
    interval_coverage,
    per_horizon_cvrmse,
    pinball_scores,
    plateau_step,
    read_forecast_dump,
    write_forecast_dump,
)
from .model import build_model, forecast_windows
from .pipeline import (
    FUTURE_FEATURES,
    PAST_FEATURES,
    TARGET_FEATURES,
    build_windows,
    split_chronological,
)
from .training import (
    fit,
    load_checkpoint,
    make_checkpoint,
    save_checkpoint,
)


def cmd_generate(cfg: RunConfig, out_path: str | None) -> int:
    out = out_path or cfg.paths.dataset
    dataset = simulate(*simulator_inputs(
        cfg.seed, cfg.simulator.days, start=cfg.simulator.start_datetime()))
    save_dataset_csv(dataset, out)
    manifest = {
        "seed": cfg.seed,
        "config_sha256": cfg.config_hash(),
        "rows": len(dataset),
        "days": cfg.simulator.days,
        "start": cfg.simulator.start,
        "dataset": os.path.basename(out),
        "audit_max_rel_err": dataset.audit_max_rel_err,
        "t_in_min_c": {c: float(dataset.columns[c].min())
                       for c in TARGET_FEATURES},
        "t_in_max_c": {c: float(dataset.columns[c].max())
                       for c in TARGET_FEATURES},
    }
    with open(cfg.paths.manifest, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {len(dataset)} rows to {out} "
          f"(manifest: {cfg.paths.manifest})")
    return 0


def _windows_and_splits(cfg: RunConfig, dataset, n_past: int, n_future: int):
    windows = build_windows(dataset, n_past=n_past, n_future=n_future,
                            stride=cfg.pipeline.stride,
                            noise_sd=cfg.pipeline.noise_sd,
                            noise_seed=cfg.seed)
    return split_chronological(windows, fractions=cfg.pipeline.fractions)


def cmd_train(cfg: RunConfig, dataset_path: str | None,
              out_path: str | None) -> int:
    dataset = load_dataset_csv(dataset_path or cfg.paths.dataset)
    splits = _windows_and_splits(cfg, dataset, cfg.pipeline.n_past,
                                 cfg.pipeline.n_future)
    params = build_model(cfg.model_config())
    report = fit(params, splits.train, splits.validation,
                 cfg.hyperparameters(), log_path=cfg.paths.train_log)
    out = out_path or cfg.paths.checkpoint
    ckpt = make_checkpoint(params, metadata={
        "best_epoch": report.best_epoch,
        "best_val_loss": report.best_val_loss,
        "stopping_reason": report.stopping_reason,
        "epochs_run": len(report.epochs) - 1,
        "dataset_rows": len(dataset),
        "config_sha256": cfg.config_hash(),
    })
    save_checkpoint(ckpt, out)
    print(f"trained {len(report.epochs) - 1} epochs "
          f"(best epoch {report.best_epoch}, validation loss "
          f"{report.best_val_loss:.6g}); checkpoint: {out}")
    return 0


def select_instances(selector: str, count: int) -> list[int]:
    """Instance selectors: 'all-test', 'head:<n>' for the first n test
    instances, 'index:<i>' for a single one."""
    if selector == "all-test":
        return list(range(count))
    if selector.startswith("head:"):
        try:
            n = int(selector.split(":", 1)[1])
        except ValueError:
            raise ConfigurationError(
                f"bad instance selector {selector!r}") from None
        if n < 1:
            raise ConfigurationError("head selector needs n >= 1")
        return list(range(min(n, count)))
    if selector.startswith("index:"):
        try:
            i = int(selector.split(":", 1)[1])
        except ValueError:
            raise ConfigurationError(
                f"bad instance selector {selector!r}") from None
        if not 0 <= i < count:
            raise ConfigurationError(
                f"instance index {i} outside 0..{count - 1}")
        return [i]
    raise ConfigurationError(
        f"unknown instance selector {selector!r}; expected 'all-test', "
        f"'head:<n>', or 'index:<i>'")


def cmd_predict(cfg: RunConfig, checkpoint_path: str | None,
                dataset_path: str | None, selector: str,
                out_path: str | None) -> int:
    params = load_checkpoint(checkpoint_path or cfg.paths.checkpoint).params
    mc = params.cfg
    for name, features in (("past_feature_count", PAST_FEATURES),
                           ("future_feature_count", FUTURE_FEATURES),
                           ("zone_count", TARGET_FEATURES)):
        value = getattr(mc, name)
        if value != len(features):
            raise CheckpointError(f"checkpoint {name} is {value}, but the "
                                  f"pipeline has {len(features)}")
    if mc.quantile_levels != tuple(cfg.model.quantile_levels):
        raise CheckpointError(
            f"checkpoint quantile_levels are {list(mc.quantile_levels)}, but "
            f"the run config has {list(cfg.model.quantile_levels)}")
    dataset = load_dataset_csv(dataset_path or cfg.paths.dataset)
    test = _windows_and_splits(cfg, dataset, mc.n_past, mc.n_future).test
    chosen = select_instances(selector, len(test))
    values, actuals = forecast_windows(params, test, chosen,
                                       cfg.training.batch_size)
    out = out_path or cfg.paths.forecast_dump
    write_forecast_dump(out, values, actuals, mc.quantile_levels,
                        instance_ids=[int(test.origins[i]) for i in chosen])
    print(f"wrote {len(chosen)} forecast instances to {out}")
    return 0


def cmd_evaluate(cfg: RunConfig, dump_path: str | None,
                 out_dir: str | None) -> int:
    dump = read_forecast_dump(dump_path or cfg.paths.forecast_dump)
    horizon = per_horizon_cvrmse(dump.values, dump.actuals,
                                 dump.quantile_levels)
    coverage = interval_coverage(
        dump.values, dump.actuals, dump.quantile_levels,
        nominal_levels=cfg.evaluation.nominal_intervals)
    scores = pinball_scores(dump.values, dump.actuals, dump.quantile_levels)

    target_dir = out_dir or cfg.paths.metrics_dir
    os.makedirs(target_dir, exist_ok=True)
    horizon_path = os.path.join(target_dir, "horizon_cvrmse.csv")
    coverage_path = os.path.join(target_dir, "coverage.csv")
    export_metrics(horizon, horizon_path)
    export_metrics(coverage, coverage_path)

    summary = {
        "instances": len(dump.instance_ids),
        "steps": horizon.step_count,
        "zones": horizon.zone_count,
        "overall_cvrmse_pct": horizon.overall,
        "zone_cvrmse_pct": [float(v) for v in horizon.zone_aggregate],
        "coverage": {f"{lv:g}": coverage.coverage[lv]
                     for lv in coverage.nominal_levels},
        "crossing_freq": coverage.crossing_freq,
        "pinball": {f"{q:g}": scores[q] for q in dump.quantile_levels},
        "plateau_step_mean_curve": plateau_step(horizon.mean_curve),
        "plateau_step_by_zone": [plateau_step(horizon.zone_curves[z])
                                 for z in range(horizon.zone_count)],
    }
    summary_path = os.path.join(target_dir, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"overall CVRMSE {horizon.overall:.6g}% over "
          f"{len(dump.instance_ids)} instances; metrics in {target_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvforecast",
        description="Simulate, train, forecast, and evaluate multi-zone "
                    "indoor temperature under hybrid ventilation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--profile", choices=PROFILES, default="full",
                       help="model/pipeline size profile (default: full)")

    g = sub.add_parser("generate", help="simulate a building dataset")
    common(g)
    # An override flag's dest names the config key it sets.
    g.add_argument("--days", type=int, dest="simulator.days",
                   help="override simulated day count")
    g.add_argument("--start", dest="simulator.start",
                   help="override start date (YYYY-MM-DD)")
    g.add_argument("--out", help="dataset CSV path")

    t = sub.add_parser("train", help="train the forecaster on a dataset")
    common(t)
    t.add_argument("--dataset", help="dataset CSV path")
    t.add_argument("--epochs", type=int, dest="training.max_epochs",
                   help="override max epochs")
    t.add_argument("--batch-size", type=int, dest="training.batch_size",
                   help="override batch size")
    t.add_argument("--learning-rate", type=float,
                   dest="training.learning_rate",
                   help="override learning rate")
    t.add_argument("--patience", type=int, dest="training.patience",
                   help="override early-stopping patience")
    t.add_argument("--out", help="checkpoint output path")

    p = sub.add_parser("predict", help="forecast test instances from a "
                                       "checkpoint")
    common(p)
    p.add_argument("--checkpoint", help="checkpoint path")
    p.add_argument("--dataset", help="dataset CSV path")
    p.add_argument("--instances", default="all-test",
                   help="selector: all-test, head:<n>, or index:<i> "
                        "(default: all-test)")
    p.add_argument("--out", help="forecast dump CSV path")

    e = sub.add_parser("evaluate", help="compute metrics from a forecast "
                                        "dump")
    common(e)
    e.add_argument("--dump", help="forecast dump CSV path")
    e.add_argument("--out", help="metrics output directory")
    return parser


def assemble_config(args) -> RunConfig:
    """The config file, then the profile, then the override flags, each
    later layer winning; flag values are decoded like file values."""
    cfg = load_config(args.config) if args.config else RunConfig()
    cfg = apply_profile(cfg, args.profile)
    changes: dict = {} if args.seed is None else {"seed": args.seed}
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot and value is not None:
            changes.setdefault(section, {})[key] = value
    return with_changes(cfg, changes)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = assemble_config(args)
        if args.command == "generate":
            return cmd_generate(cfg, args.out)
        if args.command == "train":
            return cmd_train(cfg, args.dataset, args.out)
        if args.command == "predict":
            return cmd_predict(cfg, args.checkpoint, args.dataset,
                               args.instances, args.out)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.dump, args.out)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except (ConfigurationError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
