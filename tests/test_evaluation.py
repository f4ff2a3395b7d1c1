"""Tests for CVRMSE metrics, interval coverage, pinball scores, metric
exports, and the forecast dump round trip."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvforecast.errors import (
    ConfigurationError,
    ContractViolation,
    DimensionError,
    ParseError,
)
from hvforecast.evaluation import (
    CoverageReport,
    ForecastDump,
    HorizonMetrics,
    cvrmse,
    export_metrics,
    interval_coverage,
    per_horizon_cvrmse,
    pinball_scores,
    plateau_step,
    read_forecast_dump,
    write_forecast_dump,
)

import rowwise_dump as ref

SEVEN_LEVELS = (0.005, 0.025, 0.05, 0.5, 0.95, 0.975, 0.995)

# standard normal quantiles for the seven levels above
Z_SCORES = {
    0.005: -2.5758293035489004,
    0.025: -1.959963984540054,
    0.05: -1.6448536269514722,
    0.5: 0.0,
    0.95: 1.6448536269514722,
    0.975: 1.959963984540054,
    0.995: 2.5758293035489004,
}


def constant_forecast(n, steps, zones, levels, median_value,
                      half_width=1.0):
    """Forecast whose quantile columns fan out symmetrically around a
    constant median."""
    values = np.empty((n, steps, zones, len(levels)))
    for k, q in enumerate(levels):
        values[..., k] = median_value + half_width * (q - 0.5) * 2.0
    return values


class TestCvrmse:
    def test_perfect_prediction_is_zero(self):
        series = np.array([19.0, 21.0, 20.0])
        assert cvrmse(series, series) == 0.0

    def test_hand_value(self):
        assert cvrmse([20.0, 20.0], [21.0, 19.0]) == 5.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(15, 25, size=50)
        p = a + rng.normal(0, 0.5, size=50)
        base = cvrmse(a, p)
        assert cvrmse(3.7 * a, 3.7 * p) == pytest.approx(base, abs=1e-12)

    def test_zero_mean_rejected(self):
        with pytest.raises(ContractViolation, match="zero mean"):
            cvrmse([1.0, -1.0], [0.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="lengths"):
            cvrmse([1.0, 2.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            cvrmse([], [])


class TestPerHorizonCvrmse:
    def test_perfect_median_gives_zero_curves(self):
        rng = np.random.default_rng(1)
        actuals = rng.uniform(18, 22, size=(4, 6, 3))
        values = rng.uniform(10, 30, size=(4, 6, 3, 3))
        values[..., 1] = actuals
        metrics = per_horizon_cvrmse(values, actuals, (0.1, 0.5, 0.9))
        assert np.all(metrics.zone_curves == 0.0)
        assert np.all(metrics.zone_aggregate == 0.0)
        assert metrics.overall == 0.0

    def test_constant_bias_closed_form(self):
        n, steps, zones = 5, 8, 2
        actuals = np.full((n, steps, zones), 20.0)
        values = constant_forecast(n, steps, zones, (0.5,), 20.5,
                                   half_width=0.0)
        metrics = per_horizon_cvrmse(values, actuals, (0.5,))
        assert metrics.zone_curves == pytest.approx(
            np.full((zones, steps), 100.0 * 0.5 / 20.0), abs=1e-12)

    def test_single_instance_reduces_to_pairwise(self):
        rng = np.random.default_rng(2)
        actuals = rng.uniform(18, 22, size=(1, 5, 2))
        values = rng.uniform(18, 22, size=(1, 5, 2, 1))
        metrics = per_horizon_cvrmse(values, actuals, (0.5,))
        for z in range(2):
            for h in range(5):
                assert metrics.zone_curves[z, h] == cvrmse(
                    actuals[:, h, z], values[:, h, z, 0])

    def test_final_step_matches_direct_computation(self):
        rng = np.random.default_rng(3)
        actuals = rng.uniform(18, 22, size=(7, 96, 5))
        values = actuals[..., None] + rng.normal(0, 0.3,
                                                 size=(7, 96, 5, 1))
        metrics = per_horizon_cvrmse(values, actuals, (0.5,))
        for z in range(5):
            direct = cvrmse(actuals[:, 95, z], values[:, 95, z, 0])
            assert metrics.zone_curves[z, 95] == direct

    def test_instance_order_invariance(self):
        rng = np.random.default_rng(4)
        actuals = rng.uniform(18, 22, size=(9, 4, 3))
        values = actuals[..., None] + rng.normal(0, 0.2, size=(9, 4, 3, 1))
        base = per_horizon_cvrmse(values, actuals, (0.5,))
        perm = rng.permutation(9)
        shuffled = per_horizon_cvrmse(values[perm], actuals[perm], (0.5,))
        assert np.allclose(base.zone_curves, shuffled.zone_curves,
                           rtol=0, atol=1e-10)

    def test_no_instances_rejected(self):
        with pytest.raises(ConfigurationError, match="no forecast"):
            per_horizon_cvrmse(np.empty((0, 4, 2, 1)),
                               np.empty((0, 4, 2)), (0.5,))

    def test_missing_median_rejected(self):
        with pytest.raises(ConfigurationError, match="median"):
            per_horizon_cvrmse(np.ones((2, 3, 2, 2)),
                               np.ones((2, 3, 2)), (0.1, 0.9))


class TestPlateauStep:
    def test_rising_then_flat(self):
        curve = np.array([0.5, 1.0, 1.8, 2.0, 2.0, 2.0])
        assert plateau_step(curve) == 4  # first value >= 0.95 * 2.0

    def test_flat_curve(self):
        assert plateau_step(np.ones(10)) == 1


class TestIntervalCoverage:
    def test_wide_intervals_cover_everything(self):
        rng = np.random.default_rng(6)
        actuals = rng.uniform(18, 22, size=(10, 5, 3))
        values = constant_forecast(10, 5, 3, SEVEN_LEVELS, 20.0,
                                   half_width=50.0)
        report = interval_coverage(values, actuals, SEVEN_LEVELS)
        assert all(report.coverage[lv] == 1.0
                   for lv in report.nominal_levels)
        assert report.crossing_freq == 0.0

    def test_degenerate_intervals_cover_nothing(self):
        actuals = np.full((4, 3, 2), 20.0)
        values = np.full((4, 3, 2, len(SEVEN_LEVELS)), 25.0)
        report = interval_coverage(values, actuals, SEVEN_LEVELS)
        assert all(report.coverage[lv] == 0.0
                   for lv in report.nominal_levels)

    def test_gaussian_toy_matches_nominal(self):
        rng = np.random.default_rng(7)
        n, steps, zones = 1000, 10, 10
        mu, sigma = 20.0, 1.5
        actuals = rng.normal(mu, sigma, size=(n, steps, zones))
        values = np.empty((n, steps, zones, len(SEVEN_LEVELS)))
        for k, q in enumerate(SEVEN_LEVELS):
            values[..., k] = mu + sigma * Z_SCORES[q]
        report = interval_coverage(values, actuals, SEVEN_LEVELS)
        for nominal in (0.90, 0.95, 0.99):
            assert abs(report.coverage[nominal] - nominal) < 0.02
        assert report.crossing_freq == 0.0

    def test_crossed_quantiles_reordered_and_counted(self):
        actuals = np.full((1, 1, 1), 20.0)
        values = np.array([[[[22.0, 18.0]]]])  # descending pair
        report = interval_coverage(values, actuals, (0.05, 0.95),
                                   nominal_levels=(0.90,))
        assert report.crossing_freq == 1.0
        assert report.coverage[0.90] == 1.0

    def test_widening_never_decreases_coverage(self):
        rng = np.random.default_rng(8)
        actuals = rng.normal(20, 2, size=(50, 4, 3))
        base = np.sort(rng.normal(20, 1, size=(50, 4, 3,
                                               len(SEVEN_LEVELS))), axis=-1)
        median = base[..., 3:4]
        widened = median + (base - median) * 3.0
        narrow_report = interval_coverage(base, actuals, SEVEN_LEVELS)
        wide_report = interval_coverage(widened, actuals, SEVEN_LEVELS)
        for nominal in narrow_report.nominal_levels:
            assert (wide_report.coverage[nominal]
                    >= narrow_report.coverage[nominal])

    def test_missing_paired_levels_rejected(self):
        with pytest.raises(ConfigurationError, match="0.05"):
            interval_coverage(np.ones((2, 2, 2, 2)), np.ones((2, 2, 2)),
                              (0.5, 0.95), nominal_levels=(0.90,))


class TestPinballScores:
    def test_median_score_is_half_mae(self):
        rng = np.random.default_rng(9)
        actuals = rng.normal(20, 1, size=(5, 6, 4))
        values = rng.normal(20, 1, size=(5, 6, 4, 1))
        scores = pinball_scores(values, actuals, (0.5,))
        mae = float(np.mean(np.abs(actuals - values[..., 0])))
        assert scores[0.5] == pytest.approx(0.5 * mae, abs=1e-12)

    def test_perfect_forecast_scores_zero(self):
        actuals = np.full((2, 3, 2), 20.0)
        values = np.repeat(actuals[..., None], 3, axis=-1)
        scores = pinball_scores(values, actuals, (0.1, 0.5, 0.9))
        assert all(v == 0.0 for v in scores.values())


@pytest.mark.parametrize("name", ["per_horizon_cvrmse", "interval_coverage",
                                  "pinball_scores", "write_forecast_dump"])
def test_levels_not_ascending_refused(tmp_path, name):
    # +-5 C intervals around the actual, the levels listed high to low
    levels = (0.95, 0.5, 0.05)
    values = constant_forecast(2, 3, 2, levels, 20.0, half_width=5.0 / 0.9)
    actuals = np.full((2, 3, 2), 20.0)
    calls = {
        "per_horizon_cvrmse": lambda: per_horizon_cvrmse(values, actuals,
                                                         levels),
        "interval_coverage": lambda: interval_coverage(
            values, actuals, levels, nominal_levels=(0.90,)),
        "pinball_scores": lambda: pinball_scores(values, actuals, levels),
        "write_forecast_dump": lambda: write_forecast_dump(
            str(tmp_path / "dump.csv"), values, actuals, levels),
    }
    with pytest.raises(ConfigurationError,
                       match=r"ascend, got \(0\.95, 0\.5, 0\.05\)"):
        calls[name]()


@pytest.mark.parametrize("levels, bad", [((float("nan"),), "nan"),
                                         ((0.0, 0.5), "0.0"),
                                         ((0.5, 1.5), "1.5")])
@pytest.mark.parametrize("name", ["per_horizon_cvrmse", "interval_coverage",
                                  "pinball_scores", "write_forecast_dump"])
def test_levels_outside_open_interval_refused(tmp_path, name, levels, bad):
    values = np.full((2, 3, 2, len(levels)), 20.0)
    actuals = np.full((2, 3, 2), 20.0)
    calls = {
        "per_horizon_cvrmse": lambda: per_horizon_cvrmse(values, actuals,
                                                         levels),
        "interval_coverage": lambda: interval_coverage(values, actuals,
                                                       levels),
        "pinball_scores": lambda: pinball_scores(values, actuals, levels),
        "write_forecast_dump": lambda: write_forecast_dump(
            str(tmp_path / "dump.csv"), values, actuals, levels),
    }
    with pytest.raises(ConfigurationError,
                       match=rf"^quantile level {bad} outside \(0, 1\), got "):
        calls[name]()


class TestExports:
    def make_metrics(self, zones=5, steps=96, seed=10):
        rng = np.random.default_rng(seed)
        actuals = rng.uniform(18, 22, size=(6, steps, zones))
        values = actuals[..., None] + rng.normal(
            0, 0.4, size=(6, steps, zones, 1))
        return per_horizon_cvrmse(values, actuals, (0.5,))

    def test_horizon_csv_has_96_rows_per_zone(self, tmp_path):
        metrics = self.make_metrics()
        path = str(tmp_path / "horizon.csv")
        export_metrics(metrics, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["zone", "step", "cvrmse_pct"]
        body = rows[1:]
        assert len(body) == 5 * 96
        for z in range(1, 6):
            zone_rows = [r for r in body if r[0] == str(z)]
            assert len(zone_rows) == 96
            assert [int(r[1]) for r in zone_rows] == list(range(1, 97))

    def test_csv_round_trip_at_printed_precision(self, tmp_path):
        metrics = self.make_metrics(zones=2, steps=4)
        path = str(tmp_path / "m.csv")
        export_metrics(metrics, path)
        with open(path, newline="") as fh:
            body = list(csv.reader(fh))[1:]
        for row in body:
            z, h = int(row[0]) - 1, int(row[1]) - 1
            assert row[2] == format(metrics.zone_curves[z, h], ".6g")
            assert float(row[2]) == pytest.approx(
                metrics.zone_curves[z, h], rel=1e-5)

    def test_coverage_csv_schema(self, tmp_path):
        report = CoverageReport(nominal_levels=(0.90, 0.95, 0.99),
                                coverage={0.90: 0.91, 0.95: 0.96,
                                          0.99: 0.985},
                                crossing_freq=0.0125)
        path = str(tmp_path / "coverage.csv")
        export_metrics(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["level", "coverage", "crossing_freq"]
        assert len(rows) == 4
        assert rows[1] == ["0.9", "0.91", "0.0125"]

    def test_unwritable_path_names_path(self, tmp_path):
        metrics = self.make_metrics(zones=1, steps=2)
        bad = str(tmp_path / "no-such-dir" / "m.csv")
        with pytest.raises(OSError, match="no-such-dir"):
            export_metrics(metrics, bad)


class TestForecastDump:
    def make_dump(self, tmp_path, n=3, steps=4, zones=2,
                  levels=(0.05, 0.5, 0.95), ids=None):
        rng = np.random.default_rng(12)
        values = rng.uniform(18, 22, size=(n, steps, zones, len(levels)))
        actuals = rng.uniform(18, 22, size=(n, steps, zones))
        path = str(tmp_path / "dump.csv")
        write_forecast_dump(path, values, actuals, levels,
                            instance_ids=ids)
        return values, actuals, path

    def test_lossless_round_trip(self, tmp_path):
        values, actuals, path = self.make_dump(tmp_path,
                                               ids=[100, 250, 777])
        dump = read_forecast_dump(path)
        assert np.array_equal(dump.values, values)
        assert np.array_equal(dump.actuals, actuals)
        for arr in (dump.values, dump.actuals):
            assert arr.dtype == np.float64 and arr.flags.c_contiguous
        assert dump.quantile_levels == (0.05, 0.5, 0.95)
        assert dump.instance_ids == [100, 250, 777]

    def test_row_count_is_shape_product(self, tmp_path):
        _, _, path = self.make_dump(tmp_path)
        lines = open(path).read().strip().splitlines()
        assert len(lines) == 1 + 3 * 4 * 2 * 3

    def test_tampered_header_rejected(self, tmp_path):
        _, _, path = self.make_dump(tmp_path)
        lines = open(path).read().splitlines()
        lines[0] = lines[0].replace("q_level", "quantile")
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="row 1"):
            read_forecast_dump(path)

    def test_bad_float_reports_row(self, tmp_path):
        _, _, path = self.make_dump(tmp_path)
        lines = open(path).read().splitlines()
        parts = lines[4].split(",")
        parts[4] = "not-a-number"
        lines[4] = ",".join(parts)
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="row 5"):
            read_forecast_dump(path)

    def test_missing_cell_rejected(self, tmp_path):
        _, _, path = self.make_dump(tmp_path)
        lines = open(path).read().splitlines()
        del lines[7]
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="row 8: expected instance=0 "
                           "step=2 zone=1 q=0.05, got instance=0 step=2"):
            read_forecast_dump(path)

    def test_duplicate_cell_rejected(self, tmp_path):
        _, _, path = self.make_dump(tmp_path)
        lines = open(path).read().splitlines()
        lines.append(lines[1])
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="row 74: instance 0 appears "
                           "twice"):
            read_forecast_dump(path)

    def test_metrics_from_dump_match_direct(self, tmp_path):
        rng = np.random.default_rng(13)
        values = rng.uniform(18, 22, size=(4, 6, 3, 7))
        values.sort(axis=-1)
        actuals = rng.uniform(18, 22, size=(4, 6, 3))
        path = str(tmp_path / "dump.csv")
        write_forecast_dump(path, values, actuals, SEVEN_LEVELS)
        dump = read_forecast_dump(path)
        direct = per_horizon_cvrmse(values, actuals, SEVEN_LEVELS)
        redone = per_horizon_cvrmse(dump.values, dump.actuals,
                                    dump.quantile_levels)
        assert np.array_equal(direct.zone_curves, redone.zone_curves)


def dump_arrays(rng, n, steps, zones, levels):
    values = rng.uniform(18, 22, size=(n, steps, zones, len(levels)))
    actuals = rng.uniform(18, 22, size=(n, steps, zones))
    return values, actuals


def set_field(line, j, text):
    fields = line.split(",")
    fields[j] = text
    return ",".join(fields)


def edit_field(lines, i, j, text):
    return lines[:i] + [set_field(lines[i], j, text)] + lines[i + 1:]


def swap_rows(lines, i, j):
    lines = list(lines)
    lines[i], lines[j] = lines[j], lines[i]
    return lines


def read_outcome(reader, path):
    """What a reader makes of a file: its dump, or its ParseError's
    message and row."""
    try:
        return reader(path)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.row)


def assert_same_dump(got, want):
    assert got.values.shape == want.values.shape
    assert np.array_equal(got.values.view(np.int64),
                          want.values.view(np.int64))
    assert np.array_equal(got.actuals.view(np.int64),
                          want.actuals.view(np.int64))
    assert got.quantile_levels == want.quantile_levels
    assert got.instance_ids == want.instance_ids


def assert_same_outcome(path):
    got = read_outcome(read_forecast_dump, path)
    want = read_outcome(ref.read_forecast_dump, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert_same_dump(got, want)


extreme_floats = st.floats(allow_nan=False, allow_infinity=True,
                          width=64)


class TestDumpCodec:
    """The columnar writer and reader against the row-at-a-time
    references in `rowwise_dump`."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 5), steps=st.integers(1, 6),
           zones=st.integers(1, 4),
           levels=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=5,
                           unique=True).map(sorted),
           ids=st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=5,
                        max_size=5, unique=True),
           seed=st.integers(0, 2 ** 32 - 1),
           extremes=st.lists(extreme_floats, max_size=8))
    def test_matches_reference(self, tmp_path_factory, n, steps, zones,
                               levels, ids, seed, extremes):
        rng = np.random.default_rng(seed)
        values, actuals = dump_arrays(rng, n, steps, zones, levels)
        flat = values.reshape(-1)
        flat[rng.integers(0, flat.size, len(extremes))] = extremes
        folder = tmp_path_factory.mktemp("dump")
        path, want = folder / "new.csv", folder / "ref.csv"
        write_forecast_dump(str(path), values, actuals, levels, ids[:n])
        ref.write_forecast_dump(str(want), values, actuals, levels, ids[:n])
        data = path.read_bytes()
        assert data == want.read_bytes()
        assert_same_dump(read_forecast_dump(str(path)),
                         ref.read_forecast_dump(str(path)))

        # Any other order is refused at a named row, unless it moves only
        # whole instances, which the writer could have written.
        header, *lines = data.split(b"\r\n")[:-1]
        shuffled = [lines[i] for i in rng.permutation(len(lines))]
        path.write_bytes(b"".join(line + b"\r\n"
                                  for line in [header] + shuffled))
        assert_same_outcome(str(path))
        size = len(lines) // n
        instances = [sorted(tuple(body[i:i + size])
                            for i in range(0, len(body), size))
                     for body in (lines, shuffled)]
        if instances[0] != instances[1]:
            with pytest.raises(ParseError, match=r"^row \d+: "):
                read_forecast_dump(str(path))

    def test_reference_writer_dump_loads(self, tmp_path):
        # the csv-module writer the columnar one replaced
        levels = (0.05, 0.5, 0.95)
        values, actuals = dump_arrays(np.random.default_rng(27), 3, 4, 2,
                                      levels)
        path = str(tmp_path / "dump.csv")
        ref.write_forecast_dump(path, values, actuals, levels, [9, 4, 6])
        dump = read_forecast_dump(path)
        assert_same_dump(dump, ForecastDump(values, actuals, levels,
                                            [9, 4, 6]))

    def test_byte_identical_at_desk_size(self, tmp_path):
        rng = np.random.default_rng(20)
        values, actuals = dump_arrays(rng, 256, 12, 5, SEVEN_LEVELS)
        ids = [int(i) for i in rng.permutation(4000)[:256]]
        path, want = tmp_path / "new.csv", tmp_path / "ref.csv"
        write_forecast_dump(str(path), values, actuals, SEVEN_LEVELS, ids)
        ref.write_forecast_dump(str(want), values, actuals, SEVEN_LEVELS, ids)
        assert path.read_bytes() == want.read_bytes()
        assert_same_dump(read_forecast_dump(str(path)),
                         ref.read_forecast_dump(str(path)))

    @pytest.mark.parametrize("n, steps, zones, levels", [
        (4, 3, 2, SEVEN_LEVELS), (4, 6, 1, (0.5,)), (4, 5, 3, (0.1, 0.5)),
    ])
    def test_byte_identical_to_per_row_writer(self, tmp_path, n, steps,
                                              zones, levels):
        values, actuals = dump_arrays(np.random.default_rng(31), n, steps,
                                      zones, levels)
        extremes = (-0.0, 1e-05, 1e16, -3.25, 5e-324, -1.7976931348623157e308)
        values.put(np.arange(0, values.size, 3)[:len(extremes)], extremes)
        actuals.put(np.arange(1, actuals.size, 2)[:len(extremes)], extremes)
        ids = [2 ** 63 - 1, -2 ** 63, 0, 12345]
        path, want = tmp_path / "new.csv", tmp_path / "ref.csv"
        write_forecast_dump(str(path), values, actuals, levels, ids)
        ref.write_forecast_dump_per_row(str(want), values, actuals, levels,
                                        ids)
        assert path.read_bytes() == want.read_bytes()
        assert_same_dump(read_forecast_dump(str(path)),
                         ForecastDump(values, actuals, levels, ids))

    def test_numpy_integer_ids_write_the_same_bytes(self, tmp_path):
        values, actuals = dump_arrays(np.random.default_rng(21), 3, 2, 2,
                                      (0.5,))
        path, want = tmp_path / "new.csv", tmp_path / "ref.csv"
        write_forecast_dump(str(path), values, actuals, (0.5,),
                            np.array([7, 3, 9], dtype=np.int64))
        ref.write_forecast_dump(str(want), values, actuals, (0.5,), [7, 3, 9])
        assert path.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("ids", [[1.0, 2.0], ["a", "b"], [0, 2 ** 63]])
    def test_ids_outside_int64_refused(self, tmp_path, ids):
        values, actuals = dump_arrays(np.random.default_rng(22), 2, 2, 2,
                                      (0.5,))
        with pytest.raises(ConfigurationError, match="64-bit integers"):
            write_forecast_dump(str(tmp_path / "d.csv"), values, actuals,
                                (0.5,), ids)

    def test_ids_outside_int64_unreadable(self, tmp_path):
        path = tmp_path / "dump.csv"
        path.write_text("instance,step,zone,q_level,value_c,actual_c\n"
                        "0,1,1,0.5,20.0,20.0\n"
                        f"{2 ** 63},1,1,0.5,20.0,20.0\n")
        with pytest.raises(ParseError, match="row 3: .*out of range"):
            read_forecast_dump(str(path))
        assert_same_outcome(str(path))

    # Each edit takes the body lines (without line ends) of a 3-instance,
    # 4-step, 2-zone, 3-level dump and returns them changed.
    EDITS = {
        "blank line": lambda b: b[:5] + [""] + b[5:],
        "trailing blank line": lambda b: b + [""],
        "five fields": lambda b: b[:3] + [b[3].rsplit(",", 1)[0]] + b[4:],
        "seven fields": lambda b: b[:3] + [b[3] + ",1.0"] + b[4:],
        "float in int column": lambda b: edit_field(b, 6, 1, "1.0"),
        "underscore instance": lambda b: edit_field(b, 6, 0, "1_0"),
        "underscore steps": lambda b: [
            set_field(line, 1, "0_" + line.split(",")[1]) for line in b],
        "bad float": lambda b: edit_field(b, 4, 4, "not-a-number"),
        "empty float": lambda b: edit_field(b, 4, 5, ""),
        "quoted field": lambda b: edit_field(b, 0, 0, '"0"'),
        "duplicate cell": lambda b: b + [b[0]],
        "two duplicate cells": lambda b: b + [b[5], b[0]],
        "duplicate before bad row": lambda b: (
            b[:3] + [b[0]] + edit_field(b[3:], 5, 0, "x")),
        "bad row before duplicate": lambda b: (
            edit_field(b[:8], 3, 0, "x") + [b[0]] + b[8:]),
        "missing cell": lambda b: b[:7] + b[8:],
        "missing instance cells": lambda b: b[:-2],
        "extra step": lambda b: b + [set_field(b[-1], 1, "5")],
        "step moved": lambda b: b[:-1] + [set_field(b[-1], 1, "9")],
        "step 0": lambda b: edit_field(b, 0, 1, "0"),
        "zone 3 in first instance": lambda b: edit_field(b, 5, 2, "3"),
        "level moved": lambda b: edit_field(b, 30, 3, "0.25"),
        "level off the grid": lambda b: edit_field(b, 31, 3, "0.25"),
        "header only": lambda b: [],
        "infinite values": lambda b: [
            set_field(set_field(line, 4, "inf"), 5, "-inf") for line in b],
        "rows reversed": lambda b: b[::-1],
        "first levels swapped": lambda b: swap_rows(b, 1, 2),
        "two rows swapped": lambda b: swap_rows(b, 30, 34),
        "instance changed mid-block": lambda b: edit_field(b, 30, 0, "7"),
        "instance repeated": lambda b: b + b[:24],
        "instance id reused": lambda b: b[:48] + [
            set_field(line, 0, "0") for line in b[48:]],
        "levels descending": lambda b: [
            line for i in range(0, len(b), 3) for line in b[i:i + 3][::-1]],
        "nan level": lambda b: edit_field(b, 1, 3, "nan"),
        "first level nan": lambda b: edit_field(b, 0, 3, "nan"),
        "first level 1.5": lambda b: edit_field(b, 0, 3, "1.5"),
        "first row at zone 2": lambda b: b[3:6] + b[:3] + b[6:],
        "zone 2**62": lambda b: edit_field(b, 23, 2, str(2 ** 62)),
        "step 2**62": lambda b: edit_field(b, 23, 1, str(2 ** 62)),
    }

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_faulty_body_matches_reference(self, tmp_path, edit):
        values, actuals = dump_arrays(np.random.default_rng(23), 3, 4, 2,
                                      (0.05, 0.5, 0.95))
        path = tmp_path / "dump.csv"
        write_forecast_dump(str(path), values, actuals, (0.05, 0.5, 0.95))
        header, *body = path.read_bytes().decode().split("\r\n")[:-1]
        body = self.EDITS[edit](body)
        path.write_bytes("".join(line + "\r\n"
                                 for line in [header] + body).encode())
        assert_same_outcome(str(path))

    @pytest.mark.parametrize("text", [
        "",
        "\r\n",
        "instance,step,zone,quantile,value_c,actual_c\r\n1,1,1,0.5,1.0,1.0\r\n",
        "instance,step,zone,q_level,value_c\r\n1,1,1,0.5,1.0\r\n",
        "instance,step,zone,q_level,value_c,actual_c\r\n",
        "instance,step,zone,q_level,value_c,actual_c",
        "instance,step,zone,q_level,value_c,actual_c\n1,1,1,0.5,1.0,1.0",
    ])
    def test_faulty_file_matches_reference(self, tmp_path, text):
        path = tmp_path / "dump.csv"
        path.write_bytes(text.encode())
        assert_same_outcome(str(path))

    @pytest.mark.parametrize("level", ["nan", "0.0", "1.5"])
    def test_only_level_outside_open_interval_names_row(self, tmp_path,
                                                         level):
        path = tmp_path / "dump.csv"
        path.write_text("instance,step,zone,q_level,value_c,actual_c\n"
                        f"0,1,1,{level},20.0,20.0\n")
        with pytest.raises(ParseError, match=rf"^row 2: quantile level "
                           rf"{level} outside \(0, 1\)$"):
            read_forecast_dump(str(path))
        assert_same_outcome(str(path))

    def test_error_names_row(self, tmp_path):
        values, actuals = dump_arrays(np.random.default_rng(24), 2, 3, 2,
                                      (0.5,))
        path = tmp_path / "dump.csv"
        write_forecast_dump(str(path), values, actuals, (0.5,))
        lines = path.read_bytes().split(b"\r\n")
        lines[6] = b"0,1,2,0.5,oops,20.0"
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ParseError, match="row 7: column value_c: not a "
                           "number") as info:
            read_forecast_dump(str(path))
        assert info.value.row == 7

    def test_actual_mismatch_across_levels_refused(self, tmp_path):
        levels = (0.05, 0.5, 0.95)
        values, actuals = dump_arrays(np.random.default_rng(25), 2, 3, 2,
                                      levels)
        path = tmp_path / "dump.csv"
        write_forecast_dump(str(path), values, actuals, levels)
        lines = path.read_bytes().split(b"\r\n")
        # row 15 is instance 0, step 3, zone 1, q 0.5
        fields = lines[14].split(b",")
        assert fields[:4] == [b"0", b"3", b"1", b"0.5"]
        fields[5] = repr(float(fields[5]) + 0.25).encode()
        lines[14] = b",".join(fields)
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ParseError, match="actual_c differs") as info:
            read_forecast_dump(str(path))
        assert info.value.row == 15
        assert "instance=0 step=3 zone=1" in str(info.value)
        assert_same_outcome(str(path))

    def test_huge_zone_count_names_its_row(self, tmp_path):
        # one step, so every row of the first instance before the last one
        # fits the grid its last row gives
        levels = (0.05, 0.5, 0.95)
        values, actuals = dump_arrays(np.random.default_rng(28), 2, 1, 2,
                                      levels)
        path = tmp_path / "dump.csv"
        write_forecast_dump(str(path), values, actuals, levels)
        lines = path.read_bytes().decode().split("\r\n")
        lines[6] = set_field(lines[6], 2, str(2 ** 62))
        path.write_bytes("\r\n".join(lines).encode())
        with pytest.raises(ParseError, match=(
                f"row 7: expected instance=0 step=1 zone=2 q=0.95, got "
                f"instance=0 step=1 zone={2 ** 62} q=0.95")):
            read_forecast_dump(str(path))
        assert_same_outcome(str(path))

    def test_read_peaks_below_reference(self, tmp_path):
        # desk-train size: 256 instances x 12 steps x 5 zones x 7 levels
        values, actuals = dump_arrays(np.random.default_rng(26), 256, 12, 5,
                                      SEVEN_LEVELS)
        path = tmp_path / "dump.csv"
        write_forecast_dump(str(path), values, actuals, SEVEN_LEVELS)
        assert path.read_bytes().count(b"\n") == 1 + 107_520
        peaks = []
        for reader in (read_forecast_dump, ref.read_forecast_dump):
            tracemalloc.start()
            try:
                reader(str(path))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1]
