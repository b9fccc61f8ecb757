import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stylfacts.errors import (DataQualityError, InsufficientDataError,
                              RejectedInputError)
from stylfacts.series import (PriceSeries, SamplingGrid, aggregate_returns,
                              compute_log_returns, prices_from_returns,
                              read_csv, validate_and_gapfill, write_csv)

DAY = 86400


def make_series(n=10, step=DAY, volume=True, seed=0):
    rng = np.random.default_rng(seed)
    close = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(n)))
    open_ = np.concatenate(([100.0], close[:-1]))
    high = np.maximum(open_, close) * 1.01
    low = np.minimum(open_, close) * 0.99
    ts = step * np.arange(n)
    vol = rng.uniform(10, 20, n) if volume else None
    return PriceSeries(ts, open_, high, low, close, vol)


class TestPriceSeries:
    def test_rejects_nonpositive_price(self):
        with pytest.raises(RejectedInputError, match="non-positive"):
            PriceSeries([0, DAY], [1.0, -1.0], [2.0, 2.0], [0.5, 0.5], [1.0, 1.0])

    def test_rejects_nonfinite_price(self):
        with pytest.raises(RejectedInputError):
            PriceSeries([0, DAY], [1.0, np.nan], [2.0, 2.0], [0.5, 0.5], [1.0, 1.0])

    def test_rejects_high_below_low(self):
        with pytest.raises(RejectedInputError, match="high < low"):
            PriceSeries([0], [1.0], [1.0], [1.5], [1.2])

    def test_rejects_unsorted_timestamps(self):
        with pytest.raises(RejectedInputError, match="strictly increasing"):
            PriceSeries([DAY, 0], [1, 1], [1, 1], [1, 1], [1, 1])

    def test_rejects_duplicate_timestamps(self):
        with pytest.raises(RejectedInputError, match="strictly increasing"):
            PriceSeries([0, 0], [1, 1], [1, 1], [1, 1], [1, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(RejectedInputError, match="lengths differ"):
            PriceSeries([0, DAY], [1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(RejectedInputError, match="empty"):
            PriceSeries([], [], [], [], [])

    def test_rejects_negative_volume(self):
        with pytest.raises(RejectedInputError, match="negative volume"):
            PriceSeries([0], [1.0], [1.0], [1.0], [1.0], [-1.0])

    def test_missing_volume_is_nan(self):
        s = make_series(volume=False)
        assert np.all(np.isnan(s.volume))
        assert s.volume_present_fraction() == 0.0

    def test_volume_present_fraction_mixed(self):
        s = PriceSeries([0, DAY, 2 * DAY, 3 * DAY], [1] * 4, [1] * 4, [1] * 4,
                        [1] * 4, [1.0, np.nan, 2.0, np.nan])
        assert s.volume_present_fraction() == 0.5


class TestReturns:
    def test_log_returns_definition(self):
        s = make_series(n=50)
        r = compute_log_returns(s)
        np.testing.assert_allclose(r.values, np.diff(np.log(s.close)), rtol=0, atol=0)
        np.testing.assert_array_equal(r.timestamps, s.timestamps[1:])

    def test_needs_two_bars(self):
        s = make_series(n=1)
        with pytest.raises(InsufficientDataError):
            compute_log_returns(s)

    def test_aggregate_sums_blocks(self):
        s = make_series(n=13)
        r = compute_log_returns(s)  # 12 returns
        agg = aggregate_returns(r, 5)
        assert len(agg) == 2
        np.testing.assert_allclose(agg.values[0], r.values[:5].sum())
        np.testing.assert_allclose(agg.values[1], r.values[5:10].sum())
        # timestamp of a block is its last interval's end
        assert agg.timestamps[0] == r.timestamps[4]
        assert agg.timestamps[1] == r.timestamps[9]

    def test_aggregate_k1_is_identity(self):
        r = compute_log_returns(make_series(n=9))
        agg = aggregate_returns(r, 1)
        np.testing.assert_array_equal(agg.values, r.values)
        np.testing.assert_array_equal(agg.timestamps, r.timestamps)

    def test_aggregate_too_large_k(self):
        r = compute_log_returns(make_series(n=4))
        with pytest.raises(InsufficientDataError):
            aggregate_returns(r, 10)

    def test_aggregate_rejects_bad_k(self):
        r = compute_log_returns(make_series(n=4))
        with pytest.raises(ValueError):
            aggregate_returns(r, 0)

    @given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_additivity_property(self, n, k, seed):
        # summing aggregated returns must equal the total log move they span
        s = make_series(n=n, seed=seed)
        r = compute_log_returns(s)
        if len(r) < k:
            return
        agg = aggregate_returns(r, k)
        m = len(agg)
        total = np.log(s.close[m * k] / s.close[0])
        assert abs(agg.values.sum() - total) < 1e-12

    def test_prices_from_returns_roundtrip(self):
        s = make_series(n=30)
        r = compute_log_returns(s)
        path = prices_from_returns(r, float(s.close[0]))
        np.testing.assert_allclose(path, s.close, rtol=1e-12)


class TestGapfill:
    def grid(self):
        return SamplingGrid(step=DAY)

    def gappy(self):
        # bars at days 0,1,2,4,5 (day 3 missing)
        keep = [0, 1, 2, 4, 5]
        s = make_series(n=6)
        return PriceSeries(s.timestamps[keep], s.open[keep], s.high[keep],
                           s.low[keep], s.close[keep], s.volume[keep])

    def test_drop_keeps_bars_and_reports(self):
        out = validate_and_gapfill(self.gappy(), self.grid(), policy="drop")
        assert len(out) == 5
        gr = out.gap_report
        assert (gr.n_expected, gr.n_missing, gr.n_filled) == (6, 1, 0)
        assert gr.policy == "drop"

    def test_ffill_inserts_flat_bar(self):
        src = self.gappy()
        out = validate_and_gapfill(src, self.grid(), policy="ffill")
        assert len(out) == 6
        i = 3  # the filled slot
        prev_close = src.close[2]
        assert out.open[i] == out.high[i] == out.low[i] == out.close[i] == prev_close
        assert out.volume[i] == 0.0
        assert out.gap_report.n_filled == 1

    def test_idempotent(self):
        once = validate_and_gapfill(self.gappy(), self.grid(), policy="ffill")
        twice = validate_and_gapfill(once, self.grid(), policy="ffill")
        assert twice.gap_report.n_missing == 0
        np.testing.assert_array_equal(twice.close, once.close)

    def test_off_grid_rejected(self):
        s = make_series(n=4)
        shifted = PriceSeries(s.timestamps + 17, s.open, s.high, s.low, s.close)
        bad = PriceSeries(np.concatenate((s.timestamps[:2], shifted.timestamps[2:])),
                          s.open, s.high, s.low, s.close)
        with pytest.raises(RejectedInputError, match="off the sampling grid"):
            validate_and_gapfill(bad, self.grid())

    def test_too_many_missing(self):
        s = make_series(n=40)
        keep = [0, 1, 39]
        sparse = PriceSeries(s.timestamps[keep], s.open[keep], s.high[keep],
                             s.low[keep], s.close[keep])
        with pytest.raises(DataQualityError):
            validate_and_gapfill(sparse, self.grid())

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            validate_and_gapfill(make_series(), self.grid(), policy="interpolate")

    def test_session_mask_excludes_slots(self):
        # only even days expected: odd-day slots are neither missing nor filled
        s = make_series(n=6)
        keep = [0, 2, 4]
        even = PriceSeries(s.timestamps[keep], s.open[keep], s.high[keep],
                           s.low[keep], s.close[keep])
        grid = SamplingGrid(step=DAY, session=lambda t: (t // DAY) % 2 == 0)
        out = validate_and_gapfill(even, grid)
        assert out.gap_report.n_missing == 0


class TestCsv:
    def test_roundtrip_exact(self):
        s = make_series(n=7)
        buf = io.StringIO()
        write_csv(s, buf)
        back = read_csv(io.StringIO(buf.getvalue()))
        np.testing.assert_array_equal(back.timestamps, s.timestamps)
        for col in ("open", "high", "low", "close", "volume"):
            np.testing.assert_array_equal(getattr(back, col), getattr(s, col))

    def test_iso_timestamps(self):
        text = ("timestamp,open,high,low,close,volume\n"
                "2024-01-01T00:00:00Z,1,2,0.5,1.5,10\n"
                "2024-01-02T00:00:00+00:00,1.5,2,1,1.8,\n")
        s = read_csv(io.StringIO(text))
        assert s.timestamps[1] - s.timestamps[0] == DAY
        assert np.isnan(s.volume[1])

    def test_header_required(self):
        with pytest.raises(RejectedInputError, match="expected header"):
            read_csv(io.StringIO("time,o,h,l,c,v\n0,1,1,1,1,1\n"))

    def test_empty_file(self):
        with pytest.raises(RejectedInputError, match="empty"):
            read_csv(io.StringIO(""))

    def test_no_rows(self):
        with pytest.raises(RejectedInputError, match="no rows"):
            read_csv(io.StringIO("timestamp,open,high,low,close,volume\n"))

    def test_bad_field_count(self):
        with pytest.raises(RejectedInputError, match="expected 6 fields"):
            read_csv(io.StringIO("timestamp,open,high,low,close,volume\n0,1,1,1\n"))

    def test_unparseable_timestamp(self):
        with pytest.raises(RejectedInputError, match="unparseable timestamp"):
            read_csv(io.StringIO("timestamp,open,high,low,close,volume\nyesterday,1,1,1,1,1\n"))

    def test_file_path_io(self, tmp_path):
        s = make_series(n=5)
        p = tmp_path / "bars.csv"
        write_csv(s, str(p))
        back = read_csv(str(p))
        np.testing.assert_array_equal(back.close, s.close)
