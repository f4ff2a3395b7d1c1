"""Tests for run configuration parsing/validation and the command-line
chain: generate, train, predict, evaluate."""

import csv
import dataclasses
import json
import math
import os
import re
import struct

import pytest

from hvforecast.building_sim import (load_dataset_csv, simulate,
                                     simulator_inputs)
from hvforecast import cli
from hvforecast.cli import assemble_config, build_parser, main, select_instances
from hvforecast.config import (
    PROFILES,
    RunConfig,
    apply_profile,
    config_from_dict,
    load_config,
)
from hvforecast.errors import ConfigurationError, ParseError
from hvforecast.model import ModelConfig, build_model
from hvforecast.pipeline import (
    FUTURE_FEATURES,
    PAST_FEATURES,
    TARGET_FEATURES,
    build_windows,
)
from hvforecast.training import (
    Hyperparameters,
    load_checkpoint,
    make_checkpoint,
    save_checkpoint,
)


class TestRunConfig:
    def test_defaults_follow_reference_hyperparameters(self):
        cfg = RunConfig()
        cfg.validate()
        assert cfg.pipeline.n_past == 672
        assert cfg.pipeline.n_future == 96
        assert cfg.model.rnn_units == 200
        assert cfg.model.mha_heads == 4
        assert cfg.model.dropout_rate == 0.3
        assert cfg.training.batch_size == 256
        assert cfg.simulator.days == 365

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="turbo"):
            config_from_dict({"turbo": True})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigurationError, match="width.*model"):
            config_from_dict({"model": {"width": 3}})

    def test_sections_parse_and_validate(self):
        cfg = config_from_dict({
            "seed": 42,
            "simulator": {"days": 30, "start": "2022-06-01"},
            "pipeline": {"n_past": 96, "n_future": 24},
            "model": {"rnn_units": 8, "mha_heads": 2},
            "training": {"batch_size": 16, "max_epochs": 5},
        })
        assert cfg.seed == 42
        assert cfg.simulator.days == 30
        assert cfg.pipeline.n_past == 96
        assert cfg.model.rnn_units == 8
        assert cfg.training.batch_size == 16

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError, match="days"):
            config_from_dict({"simulator": {"days": 0}})
        with pytest.raises(ConfigurationError, match="pipeline.fractions"):
            config_from_dict({"pipeline": {"fractions": [0.5, 0.5, 0.5]}})
        with pytest.raises(ConfigurationError, match="pipeline.noise_sd"):
            config_from_dict({"pipeline": {"noise_sd": -0.5}})
        with pytest.raises(ConfigurationError, match="divisible"):
            config_from_dict({"model": {"rnn_units": 5, "mha_heads": 4,
                                        "d_model": 10}})
        with pytest.raises(ConfigurationError, match="seed"):
            config_from_dict({"seed": -1})
        with pytest.raises(ConfigurationError, match="model.d_model"):
            config_from_dict({"model": {"d_model": 0}})
        with pytest.raises(ConfigurationError, match="training.batch_size"):
            config_from_dict({"training": {"batch_size": 0}})
        with pytest.raises(ConfigurationError, match="model.dropout_rate"):
            config_from_dict({"model": {"dropout_rate": 1.0}})

    @pytest.mark.parametrize("data, message", [
        ({"model": {"rnn_units": "8"}}, "model.rnn_units"),
        ({"training": {"batch_size": "16"}}, "training.batch_size"),
        ({"training": {"batch_size": True}}, "training.batch_size"),
        ({"training": {"learning_rate": "0.01"}}, "training.learning_rate"),
        ({"model": {"dropout_rate": False}}, "model.dropout_rate"),
        ({"pipeline": {"fractions": [0.6, "0.2", 0.2]}}, "pipeline.fractions"),
        ({"pipeline": {"noise_sd": float("nan")}}, "pipeline.noise_sd"),
        ({"training": {"grad_clip_norm": float("inf")}},
         "training.grad_clip_norm"),
    ])
    def test_wrongly_typed_value_exits_2(self, data, message, tmp_path,
                                         monkeypatch, capsys):
        with pytest.raises(ConfigurationError, match=message):
            config_from_dict(data)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--config", str(path), "--days", "1"]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_runtime_objects_follow_sections(self):
        cfg = config_from_dict({"seed": 7, "pipeline": {"n_past": 96},
                                "model": {"rnn_units": 8, "mha_heads": 2},
                                "training": {"batch_size": 16}})
        mc = cfg.model_config()
        assert (mc.n_past, mc.n_future, mc.rnn_units, mc.d_model) == (
            96, 96, 8, 16)
        assert (mc.past_feature_count, mc.future_feature_count,
                mc.zone_count) == (len(PAST_FEATURES), len(FUTURE_FEATURES),
                                   len(TARGET_FEATURES))
        assert mc.rng_seed == 7
        hyper = cfg.hyperparameters()
        assert (hyper.batch_size, hyper.shuffle_seed) == (16, 7)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 9,
                                    "simulator": {"days": 10}}))
        cfg = load_config(str(path))
        assert cfg.seed == 9
        assert cfg.simulator.days == 10

    def test_malformed_json_reports_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ParseError, match="JSON"):
            load_config(str(path))

    def test_missing_config_file(self):
        with pytest.raises(ConfigurationError, match="no-such"):
            load_config("/no-such/run.json")

    def test_tiny_profile_values(self):
        cfg = apply_profile(RunConfig(), "tiny")
        cfg.validate()
        assert cfg.pipeline.n_past == 48
        assert cfg.pipeline.n_future == 12
        assert cfg.model.rnn_units == 16
        assert cfg.model.mha_heads == 2
        assert cfg.model.d_model == 32
        assert cfg.model.dropout_rate == 0.1
        assert cfg.training.batch_size == 32

    def test_profile_dispatch(self):
        cfg = RunConfig()
        assert apply_profile(cfg, "full") is cfg
        assert apply_profile(cfg, "tiny").model.rnn_units == 16
        with pytest.raises(ConfigurationError, match="profile"):
            apply_profile(cfg, "huge")

    def test_profile_values_are_checked_like_file_values(self, monkeypatch):
        monkeypatch.setitem(PROFILES, "odd",
                            {"model": {"dropout_rate": float("nan")}})
        with pytest.raises(ConfigurationError, match="model.dropout_rate"):
            apply_profile(RunConfig(), "odd")
        monkeypatch.setitem(PROFILES, "odd", {"model": {"width": 3}})
        with pytest.raises(ConfigurationError, match="width.*model"):
            apply_profile(RunConfig(), "odd")

    def test_defaults_match_runtime_objects(self):
        assert RunConfig().model_config() == ModelConfig()
        assert RunConfig().hyperparameters() == Hyperparameters()

    def test_config_hash_tracks_content(self):
        a = RunConfig()
        b = config_from_dict({"seed": 1})
        assert a.config_hash() == RunConfig().config_hash()
        assert a.config_hash() != b.config_hash()


WRONG_VALUES = (True, "1", None, math.nan, 2.5, [1], {})
SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)
            if f.name != "seed"}


def wrong_values(default):
    """The values of WRONG_VALUES that a setting with this default must
    refuse: a number setting takes 2.5, a list setting [1], a path "1",
    and d_model None. A list setting also refuses each other wrong value
    as an entry."""
    if isinstance(default, tuple):
        return ([v for v in WRONG_VALUES if v != [1]]
                + [[v] for v in WRONG_VALUES if v != 2.5])
    valid = {float: [2.5], str: ["1"], type(None): [None]}.get(
        type(default), [])
    return [v for v in WRONG_VALUES if v not in valid]


def runtime_check(section, name):
    """(label, check) for the runtime object that owns a setting: the model
    and training settings belong to ModelConfig and Hyperparameters, which
    name them without their section, and the rest to their section."""
    owner = {"model": ModelConfig, "training": Hyperparameters}.get(section)
    if owner is None:
        return (f"{section}.{name}",
                lambda v: SECTIONS[section](**{name: v}).validate())
    return name, lambda v: owner(**{name: v}).validate()


SETTINGS = [(section, f.name) for section, cls in SECTIONS.items()
            for f in dataclasses.fields(cls)] + [(None, "seed")]


@pytest.mark.parametrize("section, name", SETTINGS,
                         ids=[f"{s}.{n}" if s else n for s, n in SETTINGS])
def test_wrongly_typed_setting_refused_by_name(section, name):
    """Every setting refuses a wrongly typed value with a ConfigurationError
    that names it, both from a config file and from the runtime object."""
    if section is None:
        default = RunConfig.seed
        cases = [(name, lambda v: config_from_dict({"seed": v})),
                 (name, lambda v: RunConfig(seed=v).validate())]
    else:
        default = getattr(SECTIONS[section](), name)
        cases = [(f"{section}.{name}",
                  lambda v: config_from_dict({section: {name: v}})),
                 runtime_check(section, name)]
    for value in wrong_values(default):
        for label, check in cases:
            with pytest.raises(ConfigurationError,
                               match=rf"^{re.escape(label)}\b"):
                check(value)


# Settings that library entry points take as arguments, with a valid value.
LIBRARY_SETTINGS = {"n_past": 4, "n_future": 4, "stride": 1, "noise_sd": 0.01,
                    "noise_seed": 0, "seed": 0, "days": 1}


@pytest.fixture(scope="module")
def one_day():
    return simulate(*simulator_inputs(seed=0, days=1))


@pytest.mark.parametrize("name", sorted(LIBRARY_SETTINGS))
def test_library_entry_point_refuses_wrong_type_by_name(name, one_day):
    """`simulator_inputs` and `build_windows` refuse a wrongly typed
    argument with the rule its config setting uses."""
    for value in wrong_values(LIBRARY_SETTINGS[name]):
        with pytest.raises(ConfigurationError,
                           match=rf"^{re.escape(name)}\b"):
            if name in ("seed", "days"):
                simulator_inputs(**{"seed": 0, "days": 1, name: value})
            else:
                build_windows(one_day, **{"n_past": 4, "n_future": 4,
                                          name: value})


class TestOverrideFlags:
    def test_precedence_file_then_profile_then_flags(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "pipeline": {"n_past": 96},
            "training": {"max_epochs": 7, "batch_size": 64, "patience": 4},
        }))
        cfg = assemble_config(build_parser().parse_args([
            "train", "--config", str(path), "--profile", "tiny",
            "--epochs", "3", "--batch-size", "8"]))
        assert cfg.pipeline.n_past == 48  # profile beats file
        assert cfg.training.max_epochs == 3  # flag beats file
        assert cfg.training.batch_size == 8  # flag beats profile and file
        assert cfg.training.patience == 4  # file beats default
        assert cfg.model.rnn_units == 16

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_exits_2(self, value, tmp_path,
                                              monkeypatch, capsys):
        def never_read(path):
            raise AssertionError(f"dataset {path} read")

        monkeypatch.setattr(cli, "load_dataset_csv", never_read)
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--profile", "tiny",
                     "--learning-rate", value]) == 2
        err = capsys.readouterr().err
        assert "training.learning_rate must be a finite number" in err
        assert list(tmp_path.iterdir()) == []


class TestSelectInstances:
    def test_all_test(self):
        assert select_instances("all-test", 4) == [0, 1, 2, 3]

    def test_head(self):
        assert select_instances("head:2", 5) == [0, 1]
        assert select_instances("head:9", 3) == [0, 1, 2]

    def test_index(self):
        assert select_instances("index:3", 5) == [3]
        with pytest.raises(ConfigurationError, match="outside"):
            select_instances("index:5", 5)

    def test_bad_selectors_rejected(self):
        for selector in ("everything", "head:x", "head:0", "index:"):
            with pytest.raises(ConfigurationError):
                select_instances(selector, 5)


CHAIN_ARGS = ["--profile", "tiny", "--seed", "5"]


def run_chain(root):
    """generate -> train -> predict -> evaluate inside `root`."""
    old = os.getcwd()
    os.chdir(root)
    try:
        assert main(["generate", *CHAIN_ARGS, "--days", "5"]) == 0
        assert main(["train", *CHAIN_ARGS, "--epochs", "2"]) == 0
        assert main(["predict", *CHAIN_ARGS, "--instances", "head:4"]) == 0
        assert main(["evaluate", *CHAIN_ARGS]) == 0
    finally:
        os.chdir(old)


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("chain")
    run_chain(root)
    return root


class TestGenerate:
    def test_dataset_row_count(self, chain_dir):
        lines = (chain_dir / "dataset.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 5 * 96

    def test_manifest_content(self, chain_dir):
        manifest = json.loads((chain_dir / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["rows"] == 480
        assert manifest["days"] == 5
        assert len(manifest["config_sha256"]) == 64

    def test_manifest_carries_audit_and_temperature_range(self, chain_dir):
        manifest = json.loads((chain_dir / "manifest.json").read_text())
        assert 0.0 < manifest["audit_max_rel_err"] < 1e-6
        dataset = load_dataset_csv(str(chain_dir / "dataset.csv"))
        for column in TARGET_FEATURES:
            lo = manifest["t_in_min_c"][column]
            hi = manifest["t_in_max_c"][column]
            assert math.isfinite(lo) and math.isfinite(hi)
            assert lo == dataset.columns[column].min()
            assert hi == dataset.columns[column].max()

    def test_same_seed_byte_identical(self, chain_dir, tmp_path,
                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", *CHAIN_ARGS, "--days", "5"]) == 0
        assert ((tmp_path / "dataset.csv").read_bytes()
                == (chain_dir / "dataset.csv").read_bytes())

    def test_zero_days_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--days", "0"]) == 2
        assert "days" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestTrain:
    def test_checkpoint_loads_and_carries_metadata(self, chain_dir):
        ckpt = load_checkpoint(str(chain_dir / "model.ckpt"))
        assert ckpt.params.cfg.n_past == 48
        assert ckpt.params.cfg.rnn_units == 16
        assert ckpt.metadata["epochs_run"] == 2
        assert ckpt.metadata["dataset_rows"] == 480
        assert ckpt.metadata["best_val_loss"] > 0

    def test_training_log_lines(self, chain_dir):
        lines = (chain_dir / "training.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3  # epoch 0 baseline + 2 epochs
        records = [json.loads(line) for line in lines]
        assert [r["epoch"] for r in records] == [0, 1, 2]
        assert records[0]["train_loss"] is None

    def test_missing_dataset_column_exits_2(self, chain_dir, tmp_path,
                                            monkeypatch, capsys):
        rows = (chain_dir / "dataset.csv").read_text().splitlines()
        header = rows[0].split(",")
        drop = header.index("t_in_3")
        tampered = [",".join(r.split(",")[:drop] + r.split(",")[drop + 1:])
                    for r in rows]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(tampered) + "\n")
        monkeypatch.chdir(tmp_path)
        assert main(["train", *CHAIN_ARGS, "--dataset", str(bad)]) == 2
        assert "t_in_3" in capsys.readouterr().err


    def test_non_finite_dataset_cell_exits_2(self, chain_dir, tmp_path,
                                             monkeypatch, capsys):
        rows = (chain_dir / "dataset.csv").read_text().splitlines()
        column = rows[0].split(",").index("occu_2")
        cells = rows[10].split(",")
        cells[column] = "nan"
        rows[10] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows) + "\n")
        monkeypatch.chdir(tmp_path)
        assert main(["train", *CHAIN_ARGS, "--dataset", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "row 11" in err and "occu_2" in err
        assert not (tmp_path / "model.ckpt").exists()


class TestPredict:
    def test_dump_shape(self, chain_dir):
        with open(chain_dir / "forecasts.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["instance", "step", "zone", "q_level",
                           "value_c", "actual_c"]
        assert len(rows) - 1 == 4 * 12 * 5 * 7

    def test_single_instance_row_count(self, chain_dir, tmp_path,
                                       monkeypatch):
        monkeypatch.chdir(chain_dir)
        out = str(tmp_path / "one.csv")
        assert main(["predict", *CHAIN_ARGS, "--instances", "index:0",
                     "--out", out]) == 0
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 1 + 12 * 5 * 7

    def test_repeat_prediction_identical(self, chain_dir, tmp_path,
                                         monkeypatch):
        monkeypatch.chdir(chain_dir)
        out = str(tmp_path / "again.csv")
        assert main(["predict", *CHAIN_ARGS, "--instances", "head:4",
                     "--out", out]) == 0
        assert (open(out, "rb").read()
                == open(chain_dir / "forecasts.csv", "rb").read())

    def test_bad_selector_exits_2(self, chain_dir, monkeypatch, capsys):
        monkeypatch.chdir(chain_dir)
        assert main(["predict", *CHAIN_ARGS, "--instances", "bogus"]) == 2
        assert "selector" in capsys.readouterr().err

    def test_moved_scaling_interval_refused(self, chain_dir, tmp_path,
                                            monkeypatch, capsys):
        blob = (chain_dir / "model.ckpt").read_bytes()
        end = 12 + struct.unpack("<Q", blob[4:12])[0]
        header = json.loads(blob[12:end])
        header["scaler_intervals"]["t_in_1"] = [5.0, 45.0]
        text = json.dumps(header).encode()
        moved = tmp_path / "moved.ckpt"
        moved.write_bytes(blob[:4] + struct.pack("<Q", len(text)) + text
                          + blob[end:])
        out = tmp_path / "forecasts.csv"
        monkeypatch.chdir(chain_dir)
        # the dataset does not exist: the refusal must come before loading it
        assert main(["predict", *CHAIN_ARGS, "--checkpoint", str(moved),
                     "--dataset", str(tmp_path / "absent.csv"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "scaling interval for t_in_1 is [5.0, 45.0]" in err
        assert not out.exists()

    def test_quantile_levels_mismatch_refused(self, chain_dir, tmp_path,
                                              monkeypatch, capsys):
        levels = tmp_path / "levels.json"
        levels.write_text(json.dumps(
            {"model": {"quantile_levels": [0.05, 0.5, 0.95]}}))
        out = tmp_path / "forecasts.csv"
        monkeypatch.chdir(chain_dir)
        # the dataset does not exist: the refusal must come before loading it
        assert main(["predict", *CHAIN_ARGS, "--config", str(levels),
                     "--dataset", str(tmp_path / "absent.csv"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint quantile_levels are [")
        assert "the run config has [0.05, 0.5, 0.95]" in err
        assert not out.exists()

    def test_corrupt_checkpoint_exits_1(self, chain_dir, tmp_path,
                                        monkeypatch, capsys):
        blob = (chain_dir / "model.ckpt").read_bytes()
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes(blob[:-32])
        monkeypatch.chdir(chain_dir)
        assert main(["predict", *CHAIN_ARGS, "--checkpoint",
                     str(bad)]) == 1
        assert "truncated" in capsys.readouterr().err

    def test_malformed_header_is_one_error_line(self, chain_dir, tmp_path,
                                                monkeypatch, capsys):
        blob = (chain_dir / "model.ckpt").read_bytes()
        end = 12 + struct.unpack("<Q", blob[4:12])[0]
        header = json.loads(blob[12:end])
        del header["config"]
        text = json.dumps(header).encode()
        bad = tmp_path / "no-config.ckpt"
        bad.write_bytes(blob[:4] + struct.pack("<Q", len(text)) + text
                        + blob[end:])
        monkeypatch.chdir(chain_dir)
        assert main(["predict", *CHAIN_ARGS, "--checkpoint",
                     str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: checkpoint header is missing ['config']"]
        assert "Traceback" not in err

    def test_invalid_checkpoint_config_exits_1(self, chain_dir, tmp_path,
                                               monkeypatch, capsys):
        blob = (chain_dir / "model.ckpt").read_bytes()
        end = 12 + struct.unpack("<Q", blob[4:12])[0]
        header = json.loads(blob[12:end])
        width = header["config"]["d_model"]
        header["config"]["mha_heads"] = width + 1
        text = json.dumps(header).encode()
        bad = tmp_path / "odd-heads.ckpt"
        bad.write_bytes(blob[:4] + struct.pack("<Q", len(text)) + text
                        + blob[end:])
        monkeypatch.chdir(chain_dir)
        assert main(["predict", *CHAIN_ARGS, "--checkpoint",
                     str(bad)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: checkpoint config: d_model ({width}) must be divisible "
            f"by mha_heads ({width + 1})"]

    def test_transposed_tensor_shape_exits_1(self, chain_dir, tmp_path,
                                             monkeypatch, capsys):
        blob = (chain_dir / "model.ckpt").read_bytes()
        end = 12 + struct.unpack("<Q", blob[4:12])[0]
        header = json.loads(blob[12:end])
        entry = next(t for t in header["tensors"] if t["name"] == "head/w")
        entry["shape"].reverse()
        text = json.dumps(header).encode()
        bad = tmp_path / "transposed.ckpt"
        bad.write_bytes(blob[:4] + struct.pack("<Q", len(text)) + text
                        + blob[end:])
        monkeypatch.chdir(chain_dir)
        assert main(["predict", *CHAIN_ARGS, "--checkpoint",
                     str(bad)]) == 1
        rows, cols = entry["shape"]
        assert capsys.readouterr().err.splitlines() == [
            f"error: checkpoint tensor head/w has shape [{rows}, {cols}], "
            f"but the model's is [{cols}, {rows}]"]

    def test_nan_weight_refused_naming_window(self, chain_dir, tmp_path,
                                              monkeypatch, capsys):
        ckpt = load_checkpoint(str(chain_dir / "model.ckpt"))
        ckpt.params.named_parameters()["head/b"].data[0] = math.nan
        nan_ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(ckpt, str(nan_ckpt))
        out = tmp_path / "forecasts.csv"
        monkeypatch.chdir(chain_dir)
        assert main(["predict", *CHAIN_ARGS, "--instances", "head:4",
                     "--checkpoint", str(nan_ckpt), "--out", str(out)]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("past_feature_count", 10),
                                              ("future_feature_count", 20),
                                              ("zone_count", 3)])
    def test_checkpoint_geometry_mismatch_refused(self, chain_dir, tmp_path,
                                                  monkeypatch, capsys, field,
                                                  value):
        config = load_checkpoint(str(chain_dir / "model.ckpt")).params.cfg
        odd = tmp_path / "odd.ckpt"
        save_checkpoint(make_checkpoint(build_model(
            dataclasses.replace(config, **{field: value}))), str(odd))
        out = tmp_path / "forecasts.csv"
        monkeypatch.chdir(chain_dir)
        # the dataset does not exist: the refusal must come before loading it
        assert main(["predict", *CHAIN_ARGS, "--checkpoint", str(odd),
                     "--dataset", str(tmp_path / "absent.csv"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {field} is {value}")
        assert not out.exists()


class TestEvaluate:
    def test_metrics_files_exist(self, chain_dir):
        metrics = chain_dir / "metrics"
        assert (metrics / "horizon_cvrmse.csv").exists()
        assert (metrics / "coverage.csv").exists()
        assert (metrics / "summary.json").exists()

    def test_horizon_rows_per_zone(self, chain_dir):
        with open(chain_dir / "metrics" / "horizon_cvrmse.csv",
                  newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 5 * 12
        for z in range(1, 6):
            assert sum(1 for r in rows if r[0] == str(z)) == 12

    def test_coverage_levels_present(self, chain_dir):
        with open(chain_dir / "metrics" / "coverage.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["0.9", "0.95", "0.99"]

    def test_summary_keys(self, chain_dir):
        summary = json.loads(
            (chain_dir / "metrics" / "summary.json").read_text())
        assert summary["instances"] == 4
        assert summary["steps"] == 12
        assert summary["zones"] == 5
        assert summary["overall_cvrmse_pct"] > 0
        assert set(summary["coverage"]) == {"0.9", "0.95", "0.99"}
        assert "crossing_freq" in summary
        assert "0.5" in summary["pinball"]
        assert 1 <= summary["plateau_step_mean_curve"] <= 12

    def test_malformed_dump_exits_2_with_row(self, chain_dir, tmp_path,
                                             monkeypatch, capsys):
        lines = (chain_dir / "forecasts.csv").read_text().splitlines()
        parts = lines[3].split(",")
        parts[4] = "oops"
        lines[3] = ",".join(parts)
        bad = tmp_path / "bad_dump.csv"
        bad.write_text("\n".join(lines) + "\n")
        monkeypatch.chdir(chain_dir)
        assert main(["evaluate", *CHAIN_ARGS, "--dump", str(bad)]) == 2
        assert "row 4" in capsys.readouterr().err


class TestEndToEndDeterminism:
    def test_chain_reproduces_byte_identical_outputs(self, chain_dir,
                                                     tmp_path_factory):
        rerun = tmp_path_factory.mktemp("rerun")
        run_chain(rerun)
        for rel in ("dataset.csv", "forecasts.csv", "model.ckpt",
                    "metrics/horizon_cvrmse.csv", "metrics/coverage.csv",
                    "metrics/summary.json"):
            a = (chain_dir / rel).read_bytes()
            b = (rerun / rel).read_bytes()
            assert a == b, f"{rel} differs between identical runs"


class TestHelp:
    @pytest.mark.parametrize("command,flags", [
        ("generate", ["--config", "--seed", "--profile", "--days",
                      "--start", "--out"]),
        ("train", ["--config", "--seed", "--profile", "--dataset",
                   "--epochs", "--batch-size", "--learning-rate",
                   "--patience", "--out"]),
        ("predict", ["--config", "--seed", "--profile", "--checkpoint",
                     "--dataset", "--instances", "--out"]),
        ("evaluate", ["--config", "--seed", "--profile", "--dump",
                      "--out"]),
    ])
    def test_help_lists_override_flags(self, command, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text
