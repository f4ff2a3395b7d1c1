"""Workload definitions shared by the driver (`run.py`) and the workload
process (`workload.py`). Pure data: importing this module imports neither
numpy nor hvforecast, so the driver can validate arguments and check memory
before any work starts.

Every workload is a closed loop with one caller. A round runs the set-up
stages (timed together as one `setup_s` sample) and then the round stages,
each execution of which is one sample of its stage. A run makes one untimed
warm-up round, so first-call costs stay out of the samples, then rounds
until `--seconds` have passed (at least MIN_ROUNDS). A stage metric is the
mean over all of the run's executions of that stage (total work over total
time for a rate), and `setup_s` is the median of the rounds' set-ups. The
speed of a shared host changes in spells of seconds to minutes; every round
runs every stage, so each metric averages over the same spells of the whole
run rather than catching a few of them.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 23          # the README recipe; fingerprints are recorded for it
DEFAULT_SECONDS = 35       # `run_seconds` in BENCHMARK.json
DAYS = 60
START = "2020-12-15"
MIN_ROUNDS = 2
# reference-step refuses to start unless this multiple of its recorded peak
# RSS is available, so it is refused with a reason instead of OOM-killed
MEMORY_HEADROOM = 1.25

# Stages, in the order a workload may run them.
#   generate  `hvforecast generate` (simulate + dataset CSV)      -> generate_s
#   load      load_dataset_csv of the generated dataset
#   windows   build_windows + split_chronological
#   build     build_model at the workload geometry
#   ckpt      save the seeded, untrained checkpoint that predict reads
#   train     training.fit for one epoch on a fixed train subset -> train_samples_per_s
#   forecast  no-grad forward_batch over test windows             -> forecast_windows_per_s
#   predict   `hvforecast predict --instances head:<n>` from the
#             checkpoint                                          -> predict_s
#   evaluate  `hvforecast evaluate` on the forecast dump          -> evaluate_s
# In a round, every forecast follows a train (it forecasts with the trained
# parameters) and every evaluate follows a predict, so that each repeat of a
# stage reproduces the same output.
SETUP = ("generate", "load", "windows", "build", "ckpt")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    profile: str              # hvforecast size profile: "tiny" or "full"
    train_windows: int        # train subset, evenly spaced over the train split
    val_windows: int          # validation subset used by fit
    batch: int                # fit and forecast batch size
    forecast_windows: int     # test windows forecast in the forecast stage
    instances: int            # predict the first `instances` test windows
    rounds: tuple[str, ...]
    recorded_peak_mb: int = 0  # peak RSS measured at the seed commit


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="desk-train",
            why="README recipe at the tiny profile; fit time is mostly "
                "autodiff graph building and backward over ~3k small nodes",
            profile="tiny", train_windows=320, val_windows=64, batch=32,
            forecast_windows=512, instances=256,
            rounds=("train", "forecast", "predict", "evaluate",
                    "train", "forecast", "predict", "evaluate")),
        Workload(
            name="reference-step",
            why="paper geometry (672/96 steps, 8.7M parameters) at B=2: long "
                "recurrences, 672x672 attention, BLAS-bound GEMMs, ~1.1 GB",
            profile="full", train_windows=2, val_windows=1, batch=2,
            forecast_windows=2, instances=4,
            rounds=("predict", "evaluate", "train", "evaluate", "forecast",
                    "evaluate", "predict", "evaluate", "forecast", "evaluate"),
            recorded_peak_mb=1140),
    )
}

# End-to-end metrics: name -> (stage it comes from, unit).
STAGE_METRICS = {
    "train_samples_per_s": ("train", "1/s"),
    "forecast_windows_per_s": ("forecast", "1/s"),
    "generate_s": ("generate", "s"),
    "predict_s": ("predict", "s"),
    "evaluate_s": ("evaluate", "s"),
}
