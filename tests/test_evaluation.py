"""Tests for CVRMSE metrics, interval coverage, pinball scores, metric
exports, and the forecast dump round trip."""

import csv
import json

import numpy as np
import pytest

from hvforecast.errors import (
    ConfigurationError,
    ContractViolation,
    DimensionError,
    ParseError,
)
from hvforecast.evaluation import (
    CoverageReport,
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

    def test_jsonl_lines_parse_independently(self, tmp_path):
        metrics = self.make_metrics(zones=2, steps=3)
        path = str(tmp_path / "m.jsonl")
        export_metrics(metrics, path, fmt="jsonl")
        lines = open(path).read().strip().splitlines()
        assert len(lines) == 6
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"zone", "step", "cvrmse_pct"}

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

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="format"):
            export_metrics(self.make_metrics(zones=1, steps=2),
                           str(tmp_path / "x.bin"), fmt="bin")

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
        with pytest.raises(ParseError, match="missing|cells"):
            read_forecast_dump(path)

    def test_duplicate_cell_rejected(self, tmp_path):
        _, _, path = self.make_dump(tmp_path)
        lines = open(path).read().splitlines()
        lines.append(lines[1])
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="duplicate"):
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
