"""Tests of the benchmark harness itself (not of hvforecast).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402
from specs import DEFAULT_SECONDS, DEFAULT_SEED, SETUP, STAGE_METRICS, WORKLOADS  # noqa: E402
from tracing import PER_LAYER_UNITS, Tracer, self_times  # noqa: E402

HV = workload.import_hvforecast()


def make_run(tmp_path, seed=DEFAULT_SEED, name="desk-train", reference=None):
    checker = checks.Checker(reference)
    return workload.Run(WORKLOADS[name], seed, HV, tmp_path, checker), checker


def test_self_time_subtracts_direct_children_only():
    spans = [("root", 0.0, 10.0, -1),
             ("a", 1.0, 4.0, 0),
             ("a.inner", 2.0, 3.0, 1),
             ("b", 5.0, 9.0, 0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_nests_layer_spans_and_restores_originals():
    layers, nm = HV["layers"], HV["numerics"]
    original_call = layers.Grn.__call__
    original_dropout = HV["model"].dropout_apply
    tracer = Tracer(HV)
    tracer.install()
    try:
        assert HV["model"].dropout_apply is layers.dropout_apply  # alias traced too
        grn = layers.Grn(4, np.random.default_rng(0), "g")
        x = nm.Tensor(np.ones((2, 3, 4)), requires_grad=True)
        nm.backward(nm.tsum(grn(x)))
    finally:
        tracer.uninstall()
    assert layers.Grn.__call__ is original_call
    assert HV["model"].dropout_apply is original_dropout
    names = [s[0] for s in tracer.spans]
    assert names[0] == "layers.grn" and names[-1] == "numerics.backward"
    children = {s[0] for s in tracer.spans if s[3] == 0}
    assert children == {"layers.dense", "layers.glu", "layers.layer_norm"}
    metrics = tracer.metrics()
    assert metrics["numerics.graph_nodes"] > 0
    assert sum(metrics[f"numerics.bw_ms.{op}"] for op in ("matmul", "add_bias")) > 0
    assert set(metrics) | {"trace.overhead_pct"} == set(PER_LAYER_UNITS)


def test_checker_counts_invariant_digest_and_fingerprint_failures():
    values = np.linspace(-1.0, 1.0, 840).reshape(2, 12, 5, 7)
    reference = {"forecast": checks.array_entries(values)}
    checker = checks.Checker(reference)
    ok = {"invariants": {"finite": True}, "digest": "d0",
          "values": checks.array_entries(values)}
    assert checker.check("forecast", ok)
    reordered = values * (1 + 1e-13)        # a reordered reduction still passes
    assert checker.check("forecast", dict(ok, values=checks.array_entries(reordered)))
    wrong = values.copy()
    wrong[1, 3, 2, 4] += 1e-4
    assert not checker.check("forecast", dict(ok, values=checks.array_entries(wrong)))
    assert not checker.check("forecast", dict(ok, digest="d1"))
    assert not checker.check("forecast", dict(ok, invariants={"finite": False}))
    assert (checker.attempted, checker.failed) == (5, 3)


def test_perturbed_forecast_is_counted_as_failure(tmp_path, monkeypatch):
    reference = checks.load_reference("desk-train")
    run, checker = make_run(tmp_path, reference=reference)
    for stage in ("generate", "load", "windows", "build", "train", "forecast"):
        run.execute(stage, stage)
    assert (checker.attempted, checker.failed) == (6, 0), checker.messages

    forward = HV["model"].forward_batch

    def perturbed(*args, **kwargs):
        out = forward(*args, **kwargs)
        out.data[0, 0, 0, 3] += 1e-3
        return out

    monkeypatch.setattr(HV["model"], "forward_batch", perturbed)
    run.execute("forecast", "forecast")
    assert (checker.attempted, checker.failed) == (7, 1)
    assert "forecast" in checker.messages[0]


def test_seed_changes_generated_inputs(tmp_path, monkeypatch):
    monkeypatch.setattr(workload, "DAYS", 2)
    digests = {}
    for label, seed in (("a", 1), ("b", 1), ("c", 2)):
        work = tmp_path / label
        work.mkdir()
        run, checker = make_run(work, seed=seed)
        _, obs = run.stage_generate()
        assert all(obs["invariants"].values())
        digests[label] = obs["digest"]
    assert digests["a"] == digests["b"]
    assert digests["a"] != digests["c"]


def test_selfcheck_matches_roadmap_baseline():
    counts = workload.selfcheck(HV)
    assert counts == {k: (v, v) for k, v in workload.BASELINE_COUNTS.items()}


def test_benchmark_json_matches_harness():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert bench["run_seconds"] == DEFAULT_SECONDS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "peak_rss_mb", *STAGE_METRICS}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER_UNITS
    units = {"setup_s": "s", "peak_rss_mb": "MB",
             **{m: u for m, (_, u) in STAGE_METRICS.items()}}
    assert all(m["unit"] == units[m["name"]] for m in bench["end_to_end"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_has_recorded_fingerprints(name):
    reference = checks.load_reference(name)
    assert reference is not None
    spec = WORKLOADS[name]
    checked = {"load", "windows", "build", "train", "forecast", "evaluate"}
    assert set(reference) == checked & set(SETUP + spec.rounds)


def test_reference_step_refuses_without_memory(monkeypatch, capsys):
    monkeypatch.setattr(run, "available_mb", lambda: 100)
    assert run.main(["--workload", "reference-step", "--seed", "1"]) == 3
    out, err = capsys.readouterr()
    assert json.loads(out.splitlines()[-1])["correct"] is False
    assert "refused" in err
