"""CSV ingestion, rolling weights, the regression oracle, and reports."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portinf import cli
from portinf import harness as hs
from portinf import oracles as orc
from portinf import simulate
from portinf.errors import EmptyPanel, ParseError, ZeroVolatilityWindow
from portinf.oracles import RankDeficientRegression


class TestLoadCsv:
    def test_plain_panel(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b,c\n" + "\n".join(
            ",".join(str(0.01 * (i + j)) for j in range(3)) for i in range(10)))
        loaded = hs.load_csv(str(path), ["a", "b", "c"])
        assert loaded.panel.values.shape == (10, 3)
        assert loaded.n_dropped == 0

    def test_missing_value_row_dropped_and_counted(self, tmp_path):
        path = tmp_path / "r.csv"
        rows = [f"{0.01 * i},{0.02 * i}" for i in range(10)]
        rows[4] = "NA,0.08"
        path.write_text("a,b\n" + "\n".join(rows))
        loaded = hs.load_csv(str(path), ["a", "b"])
        assert loaded.panel.values.shape == (9, 2)
        assert loaded.n_dropped == 1

    def test_round_trip(self, tmp_path, rng):
        path = tmp_path / "rt.csv"
        values = rng.standard_normal((12, 4)) * 0.02
        hs.write_csv(str(path), values, ["w", "x", "y", "z"])
        loaded = hs.load_csv(str(path), ["w", "x", "y", "z"])
        np.testing.assert_allclose(loaded.panel.values, values, atol=1e-12)

    def test_missing_column_raises(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\n0.1,0.2\n")
        with pytest.raises(ParseError):
            hs.load_csv(str(path), ["a", "zz"])

    def test_empty_panel_raises(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\nNA,NA\n")
        with pytest.raises(EmptyPanel):
            hs.load_csv(str(path), ["a", "b"])

    def test_dates_and_features_together(self, tmp_path, rng):
        path = tmp_path / "rf.csv"
        values = rng.standard_normal((15, 3)) * 0.02
        dates = [f"2021-{m + 1:02d}-01" for m in range(15)]
        hs.write_csv(str(path), values, ["a", "b", "f1"], dates)
        loaded = hs.load_csv(str(path), ["a", "b"], ["f1"], date_column="date")
        assert loaded.panel.values.shape == (15, 2)
        assert loaded.features.shape == (15, 1)
        assert loaded.panel.timestamps == dates
        np.testing.assert_allclose(loaded.features[:, 0], values[:, 2], atol=1e-12)

    def test_unsorted_dates_warn(self, tmp_path):
        path = tmp_path / "r.csv"
        body = "\n".join(f"2020-01-{d:02d},{0.01 * d},{0.02 * d}" for d in (3, 1, 2, 4, 5, 6))
        path.write_text("date,a,b\n" + body)
        with pytest.warns(RuntimeWarning):
            loaded = hs.load_csv(str(path), ["a", "b"], date_column="date")
        # order preserved, never silently sorted
        assert loaded.panel.timestamps[0] == "2020-01-03"


    # nan, inf, -inf, a blank cell and a non-numeric cell, in an asset column and in
    # the feature column, between rows that parse; then a blank line, a short row and
    # a row with a cell past the header
    MIXED = ["d01,0.01,0.02,0.5", "d02,nan,0.02,0.5", "d03,0.01,inf,0.5",
             "d04,-inf,0.01,0.5", "d05,,0.02,0.5", "d06,abc,0.02,0.5",
             "d07,-0.01,0.02,0.25", "d08,0.03,0.01,nan", "d09,0.04,0.03,inf",
             "d10,0.05,0.02,-inf", "d11,0.02,0.01,", "d12,0.04,0.03,x1",
             "d13,0.06,-0.03,1.5", "", "d14,0.01", "d15,0.07,0.08,2.5,9"]

    def test_non_finite_and_unparseable_cells(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("date,a,b,f\n" + "\n".join(self.MIXED) + "\n")
        loaded = hs.load_csv(str(path), ["a", "b"], ["f"], date_column="date")
        assert loaded.n_dropped == 11
        assert loaded.panel.timestamps == ["d01", "d07", "d13", "d15"]
        np.testing.assert_array_equal(
            loaded.panel.values, [[0.01, 0.02], [-0.01, 0.02], [0.06, -0.03], [0.07, 0.08]])
        np.testing.assert_array_equal(loaded.features, [[0.5], [0.25], [1.5], [2.5]])
        # unselected, the feature column drops nothing
        loaded = hs.load_csv(str(path), ["a", "b"], date_column="date")
        assert loaded.n_dropped == 6 and loaded.features is None
        assert loaded.panel.timestamps == ["d01", "d07", "d08", "d09", "d10", "d11", "d12",
                                           "d13", "d15"]
        np.testing.assert_array_equal(loaded.panel.values[:, 0],
                                      [0.01, -0.01, 0.03, 0.04, 0.05, 0.02, 0.04, 0.06, 0.07])

    def test_non_finite_rows_only_is_an_empty_panel(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\nnan,0.1\n0.2,inf\n-inf,0.3\n")
        with pytest.raises(EmptyPanel, match="r.csv: no usable rows"):
            hs.load_csv(str(path), ["a", "b"])

    def test_dropped_rows_are_reported(self, capsys, tmp_path, rng):
        path = tmp_path / "mixed.csv"
        good = [f"e{i:02d},{a:.6f},{b:.6f},{f:.6f}"
                for i, (a, b, f) in enumerate(0.01 + 0.02 * rng.standard_normal((40, 3)))]
        path.write_text("date,a,b,f\n" + "\n".join(self.MIXED + good) + "\n")
        code = cli.main(["infer", "--input", str(path), "--assets", "a,b", "--features", "f",
                         "--model", "biconditional", "--date-column", "date"])
        assert code == 0
        assert "dropped 11 rows with missing values" in capsys.readouterr().err

    def test_row_without_its_timestamp_is_dropped(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b,date\n0.1,0.2,d1\n0.3,0.4\n0.5,0.6,d3\n0.7,0.8,d4\n0.9,1.0,d5\n")
        loaded = hs.load_csv(str(path), ["a", "b"], date_column="date")
        assert loaded.n_dropped == 1 and loaded.panel.timestamps == ["d1", "d3", "d4", "d5"]


class TestRollingVolatility:
    def test_constant_magnitude(self):
        values = 0.02 * np.ones((30, 3)) * np.array([1, -1, 1])
        w = hs.rolling_volatility(values, hs.RollingVolSpec(window=5, lag=1))
        defined = np.isfinite(w)
        np.testing.assert_allclose(w[defined], 50.0)

    def test_window_one_is_reciprocal_previous(self, rng):
        x = np.abs(rng.standard_normal((20, 1))) + 0.1
        w = hs.rolling_volatility(x, hs.RollingVolSpec(window=1, lag=1))
        np.testing.assert_allclose(w[1:], 1.0 / np.abs(x[:-1, 0]))
        assert not np.isfinite(w[0])

    def test_brute_force_oracle(self, rng):
        values = rng.standard_normal((40, 3)) * 0.03
        spec = hs.RollingVolSpec(window=7, lag=2)
        w = hs.rolling_volatility(values, spec)
        med = [np.median(np.abs(values[i])) for i in range(40)]
        for i in range(40):
            src = i - spec.lag
            if src - spec.window + 1 < 0 or src >= 40:
                if i < spec.window + spec.lag - 1:
                    assert not np.isfinite(w[i])
                continue
            expect = 1.0 / np.mean(med[src - spec.window + 1 : src + 1])
            assert w[i] == pytest.approx(expect, rel=1e-15)

    def test_zero_window_raises(self):
        values = np.zeros((20, 2))
        with pytest.raises(ZeroVolatilityWindow):
            hs.rolling_volatility(values, hs.RollingVolSpec(window=3, lag=1))

    @pytest.mark.parametrize("lag", [1, 3])
    def test_first_zero_window_is_named_even_past_the_last_weight(self, lag):
        # the last window's weight would fall beyond the panel; it is still checked
        values = np.ones((20, 2))
        values[-1] = 0.0
        with pytest.raises(ZeroVolatilityWindow, match="window ending at row 19 is zero"):
            hs.rolling_volatility(values, hs.RollingVolSpec(window=1, lag=lag))
        values[[5, 6, 12]] = 0.0
        with pytest.raises(ZeroVolatilityWindow, match="window ending at row 6 is zero"):
            hs.rolling_volatility(values, hs.RollingVolSpec(window=2, lag=lag))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 250), st.integers(1, 5), st.integers(0, 10_000))
    def test_is_the_slice_means_bit_for_bit(self, window, lag, seed):
        rng = np.random.default_rng(seed)
        t = window + lag + int(rng.integers(1, 300))
        values = 0.02 * rng.standard_normal((t, 4))
        med = np.median(np.abs(values), axis=1)
        want = np.full(t, np.nan)
        for i in range(window - 1, t - lag):
            want[i + lag] = 1.0 / med[i - window + 1 : i + 1].mean()
        got = hs.rolling_volatility(values, hs.RollingVolSpec(window=window, lag=lag))
        np.testing.assert_array_equal(got, want)


class TestBrittenJones:
    def test_scalar_matches_explicit_ols(self, rng):
        x = rng.standard_normal((50, 1)) * 0.1 + 0.02
        t_stat = orc.britten_jones(x)
        xc = x[:, 0]
        b = (xc @ np.ones(50)) / (xc @ xc)
        resid = 1.0 - xc * b
        s2 = resid @ resid / 49
        np.testing.assert_allclose(t_stat, [b / np.sqrt(s2 / (xc @ xc))], rtol=1e-10)

    def test_duplicated_column_raises(self, rng):
        x = rng.standard_normal((30, 1))
        with pytest.raises(RankDeficientRegression):
            orc.britten_jones(np.hstack([x, x]))


class TestReports:
    def test_empty_table_is_header_only(self):
        tbl = hs.ReportTable("empty", ["a", "b"], [])
        text = hs.report([tbl], "tsv")
        assert "a\tb" in text
        assert text.count("\n") <= 3

    def test_json_round_trips(self):
        tbl = hs.ReportTable("t", ["x"], [[1.25], [float(np.float64(2.5))]],
                             {"seed": 7})
        parsed = json.loads(hs.report([tbl], "json"))
        assert parsed[0]["rows"] == [[1.25], [2.5]]
        assert parsed[0]["metadata"]["seed"] == 7


class TestSimulateDeterminism:
    def test_same_seed_same_bytes(self):
        r1 = simulate.simulate_suite("theorem1", seed=7, trials=150, sample_size=300)
        r2 = simulate.simulate_suite("theorem1", seed=7, trials=150, sample_size=300)
        assert r1.render() == r2.render()

    def test_different_seed_differs(self):
        r1 = simulate.simulate_suite("theorem1", seed=7, trials=150, sample_size=300)
        r2 = simulate.simulate_suite("theorem1", seed=8, trials=150, sample_size=300)
        assert r1.render() != r2.render()
