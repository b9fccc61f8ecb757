import csv
import io
import math
import tracemalloc
import warnings
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stylfacts import series as series_module
from stylfacts.errors import (DataQualityError, InsufficientDataError,
                              RejectedInputError)
from stylfacts.report import write_curve_csv
from stylfacts.series import (PriceSeries, SamplingGrid, _read_epoch_columns, block_sums,
                              compute_log_returns, read_csv, validate_and_gapfill,
                              write_csv)
from stylfacts.simulate import GarchSpec, GbmSpec, GjrSpec, OuSpec, simulate

from _oracles import fmt_cell_loop

DAY = 86400


# Row-at-a-time writers: the cell-by-cell spelling of the formats that
# write_csv and write_curve_csv produce by whole-column passes
# (`kernels.csv_lines`).  They are the oracles the writers must match byte
# for byte.

def _write_csv_loop(series, f):
    w = csv.writer(f, lineterminator="\n")
    w.writerow(("timestamp", "open", "high", "low", "close", "volume"))
    for i in range(len(series)):
        v = series.volume[i]
        w.writerow([
            int(series.timestamps[i]),
            repr(float(series.open[i])),
            repr(float(series.high[i])),
            repr(float(series.low[i])),
            repr(float(series.close[i])),
            "" if np.isnan(v) else repr(float(v)),
        ])


def _write_curve_csv_loop(path, columns):
    names = list(columns)
    arrays = [np.asarray(columns[k]) for k in names]
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise ValueError("curve columns differ in length")
    lines = [",".join(names)]
    for i in range(n):
        lines.append(",".join(fmt_cell_loop(a[i]) for a in arrays))
    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n").encode("utf-8"))


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

    def test_rejects_timestamps_that_wrap_int64(self):
        # np.diff of these reads 2**62 at every step
        with pytest.raises(RejectedInputError, match="strictly increasing at row 3"):
            PriceSeries([0, 2**62, -2**63, -2**62], [1] * 4, [1] * 4, [1] * 4, [1] * 4)

    def test_increasing_timestamps_whose_difference_wraps_are_kept(self):
        ts = [-2**63 + 1, 2**63 - 1]
        np.testing.assert_array_equal(PriceSeries(ts, [1] * 2, [1] * 2, [1] * 2,
                                                  [1] * 2).timestamps, ts)

    def test_rejects_timestamp_beyond_int64(self):
        with pytest.raises(RejectedInputError, match="beyond int64 at row 2"):
            PriceSeries([0, 2**63, 2**63 + 1], [1] * 3, [1] * 3, [1] * 3, [1] * 3)

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
        agg = block_sums(r.values, 5)
        assert len(agg) == 2
        np.testing.assert_allclose(agg[0], r.values[:5].sum())
        np.testing.assert_allclose(agg[1], r.values[5:10].sum())

    def test_aggregate_k1_is_identity(self):
        r = compute_log_returns(make_series(n=9))
        np.testing.assert_array_equal(block_sums(r.values, 1), r.values)

    def test_aggregate_too_large_k(self):
        r = compute_log_returns(make_series(n=4))
        assert len(block_sums(r.values, 10)) == 0

    @given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_additivity_property(self, n, k, seed):
        # summing aggregated returns must equal the total log move they span
        s = make_series(n=n, seed=seed)
        r = compute_log_returns(s)
        if len(r) < k:
            return
        agg = block_sums(r.values, k)
        m = len(agg)
        total = np.log(s.close[m * k] / s.close[0])
        assert abs(agg.sum() - total) < 1e-12


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

    @pytest.mark.parametrize("seed", range(6))
    def test_ffill_matches_a_row_loop(self, seed):
        # about 15% of the slots missing, in runs of any length, and NaN
        # volumes on some kept bars
        rng = np.random.default_rng(seed)
        n = 300
        s = make_series(n=n, seed=seed)
        volume = np.where(rng.random(n) < 0.1, np.nan, s.volume)
        keep = np.flatnonzero(np.r_[True, rng.random(n - 1) < 0.85])
        src = PriceSeries(s.timestamps[keep], s.open[keep], s.high[keep], s.low[keep],
                          s.close[keep], volume[keep])
        out = validate_and_gapfill(src, self.grid(), policy="ffill")

        rows, j = [], 0
        for k in range(keep[-1] + 1):
            if src.timestamps[j] == k * DAY:
                rows.append([src.open[j], src.high[j], src.low[j], src.close[j],
                             src.volume[j]])
                j += 1
            else:
                rows.append([rows[-1][3]] * 4 + [0.0])
        want = np.array(rows)
        assert out.gap_report.n_filled == len(rows) - len(keep) > 0
        np.testing.assert_array_equal(out.timestamps, DAY * np.arange(len(rows)))
        got = np.column_stack((out.open, out.high, out.low, out.close, out.volume))
        assert got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("step,message", [(0, "step must be >= 1"),
                                              (86400.0, "step must be an int")])
    def test_grid_step_is_a_positive_int(self, step, message):
        with pytest.raises(ValueError, match=message):
            SamplingGrid(step)

    def test_sparse_span_is_rejected_before_the_grid_is_built(self):
        # two bars 2e6 days apart: the grid alone would take 16 MB
        s = PriceSeries([0, 2_000_000 * DAY], [1] * 2, [1] * 2, [1] * 2, [1] * 2)
        tracemalloc.start()
        try:
            with pytest.raises(DataQualityError, match="1999999/2000001 grid slots missing"):
                validate_and_gapfill(s, self.grid(), policy="ffill")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    @pytest.mark.parametrize("policy", ["drop", "ffill"])
    def test_grid_spanning_more_than_int64(self, policy):
        first, step = -2**63 + 1, 2**61
        src = PriceSeries([first + k * step for k in (0, 1, 2, 3, 4, 6, 7)],
                          *[np.arange(1.0, 8.0)] * 4)
        out = validate_and_gapfill(src, SamplingGrid(step), policy=policy)
        assert out.gap_report.n_expected == 8
        if policy == "ffill":
            np.testing.assert_array_equal(out.timestamps, [first + k * step for k in range(8)])
            np.testing.assert_array_equal(out.close, [1, 2, 3, 4, 5, 5, 6, 7])

    @pytest.mark.parametrize("step", [2**63, 2**64])
    def test_step_longer_than_int64_puts_later_bars_off_the_grid(self, step):
        with pytest.raises(RejectedInputError, match="1 bars off the sampling grid"):
            validate_and_gapfill(make_series(n=2), SamplingGrid(step))


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

    def test_fractional_second_is_rejected(self):
        # truncating would put 00:00:00.5 on the grid and 23:59:59.5 of 1969
        # on the epoch second; the epoch form 946684800.5 is unparseable too
        head = "timestamp,open,high,low,close,volume\n"
        for stamp, message in (("2000-01-01T00:00:00.5Z", "row 1: fractional second"),
                               ("1969-12-31T23:59:59.5Z", "row 1: fractional second"),
                               ("2000-01-01T00:00:00.000001+00:00", "row 1: fractional second"),
                               ("946684800.5", "row 1: unparseable timestamp")):
            with pytest.raises(RejectedInputError, match=message):
                read_csv(io.StringIO(f"{head}{stamp},1,1,1,1,1\n"))
        s = read_csv(io.StringIO(head + "2000-01-01T00:00:00.000Z,1,1,1,1,1\n"))
        assert s.timestamps[0] == 946_684_800

    def test_every_message_numbers_data_rows_alike(self):
        # the third data row, after a blank line, which is not counted
        head = "timestamp,open,high,low,close,volume\n0,1,1,1,1,1\n\n86400,1,1,1,1,1\n"
        for last, message in (("172800,1,1,1", "row 3: expected 6 fields"),
                              ("172800,1,one,1,1,1", "row 3: could not convert"),
                              ("yesterday,1,1,1,1,1", "row 3: unparseable timestamp"),
                              ("172800,1,1,2,1,1", "high < low at row 3"),
                              ("86400,1,1,1,1,1", "strictly increasing at row 3")):
            with pytest.raises(RejectedInputError, match=message):
                read_csv(io.StringIO(head + last + "\n"))
        s = read_csv(io.StringIO(head + "172801,1,1,1,1,1\n"))
        with pytest.raises(RejectedInputError, match=r"first at row 3\)"):
            validate_and_gapfill(s, SamplingGrid(DAY))

    def test_file_path_io(self, tmp_path):
        s = make_series(n=5)
        p = tmp_path / "bars.csv"
        write_csv(s, str(p))
        back = read_csv(str(p))
        np.testing.assert_array_equal(back.close, s.close)

    @pytest.mark.parametrize("iso", [False, True], ids=["epoch", "iso"])
    def test_a_byte_order_mark_is_dropped(self, tmp_path, iso):
        # spreadsheet "CSV UTF-8" exports start with the UTF-8 byte-order
        # mark EF BB BF, which read_csv once kept in the first header cell
        text = _perfbench_style(50, 4, iso=iso)
        want = _read_outcome(io.StringIO(text))
        assert isinstance(want, tuple)
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + text.encode())
        for source in (str(p), io.StringIO("\ufeff" + text), _Unseekable("\ufeff" + text)):
            assert _read_outcome(source) == want


class _Unseekable(io.StringIO):
    """A text stream that cannot seek, like a pipe: read_csv parses it with
    csv.reader, the path that owns every message."""

    def seekable(self):
        return False


_HEAD = "timestamp,open,high,low,close,volume\n"
_COLUMNS = ("timestamps", "open", "high", "low", "close", "volume")


# cells in the forms the two parsers might read differently: signs,
# padding (ASCII, Unicode and control whitespace), exponents, underscores,
# quotes, special values, bounds and non-numbers
_CELLS = ["1", "2", "+3", "-0", " 4 ", "5\t", "\u00a06", "7\u2003", "8\x1c", "9\x85",
          "0.5", ".5", "5.", "1e3", "1E+03", "1_0", "1,5", '"1"', "nan", "-inf", "Infinity",
          "1e999", "4.9e-324", "0x10", "\u0661", "", " ", "1.5e", "9223372036854775807",
          "9223372036854775808", "-9223372036854775809", "2024-01-01T00:00:00Z", "1d3"]


def _read_outcome(f):
    """read_csv's columns as (dtype, bytes) pairs, or its error's type and message."""
    try:
        s = read_csv(f)
    except Exception as e:  # the exception itself is the outcome compared
        return type(e), str(e)
    return tuple((getattr(s, c).dtype, getattr(s, c).tobytes()) for c in _COLUMNS)


def _assert_parsers_agree(text, c_parser):
    """numpy's C parser (seekable input) and csv.reader (unseekable input)
    give the same series or the same error, without a warning; c_parser says
    whether the C parser accepts the text or hands it to csv.reader."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (_read_epoch_columns(io.StringIO(text)) is not None) is c_parser
        fast, slow = _read_outcome(io.StringIO(text)), _read_outcome(_Unseekable(text))
    assert fast == slow
    return fast


def _perfbench_style(n, seed, volume=True, iso=False):
    """Bars written as the benchmark's generator writes them: epoch or ISO
    stamps, %.12g floats, an empty volume column when volume is False."""
    s = make_series(n=n, seed=seed)
    lines = [_HEAD.rstrip("\n")]
    for i in range(n):
        t = int(s.timestamps[i]) + 946_684_800
        stamp = (datetime.fromtimestamp(t, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
                 if iso else str(t))
        vol = "%.12g" % s.volume[i] if volume else ""
        lines.append("%s,%.12g,%.12g,%.12g,%.12g,%s" % (stamp, s.open[i], s.high[i],
                                                       s.low[i], s.close[i], vol))
    return "\n".join(lines) + "\n"


def _written(series):
    buf = io.StringIO()
    write_csv(series, buf)
    return buf.getvalue()


class TestCsvParsers:
    """The C parser takes files with an integer stamp and a number in every
    cell; anything else goes to csv.reader, whose result or message it is."""

    @pytest.mark.parametrize("text", [
        _written(make_series(n=7)),
        _written(make_series(n=1)),
        _written(simulate(GbmSpec(n_steps=2000, seed=11))),
        _written(simulate(OuSpec(n_steps=2000, seed=12))),
        _written(simulate(GarchSpec(n_steps=2000, seed=13, innovation="student_t", df=5.0))),
        _perfbench_style(500, 3),
        _HEAD + "1,+1.5,2,.5,1.,1e3\n2, 1 ,2,0.5,1.5,inf\n",
        _HEAD + "1,1,2,0.5,1.5,3\n\n2,1,2,0.5,1.5,4\n\n",
        _HEAD + "1,1,2,0.5,1.5,3\r\n2,1,2,0.5,1.5,4\r\n",
        _HEAD + "1,1,2,0.5,1.5,3",
        " Timestamp,OPEN,high,low,close,volume \n1,1,2,0.5,1.5,3\n",
        _HEAD + "1,1,2,0.5,1.5,3\n1,1,2,0.5,1.5,3\n",
        _HEAD + "1,1,2,0.5,1.5,-3\n",
        _HEAD + "1,1,0.5,2,1.5,3\n",
        _HEAD + "-9223372036854775808,1,2,0.5,1.5,3\n9223372036854775807,1,2,0.5,1.5,3\n",
    ], ids=["roundtrip", "one_row", "gbm", "ou", "garch_t", "perfbench_epoch", "number_forms",
            "blank_lines", "crlf", "no_final_newline", "header_case_and_space",
            "duplicate_stamp", "negative_volume", "high_below_low", "int64_extremes"])
    def test_c_parser_gives_the_csv_reader_result(self, text):
        _assert_parsers_agree(text, c_parser=True)

    @pytest.mark.parametrize("text", [
        _perfbench_style(300, 4, iso=True),
        _perfbench_style(300, 5, volume=False),
        _written(simulate(GjrSpec(n_steps=500, seed=14, volume_mode="none"))),
        _HEAD + "1,1,2,0.5,1.5,3\n2,1,2,0.5,1.5,\n",
        _HEAD + '"1",1,2,0.5,1.5,3\n2,"1",2,0.5,1.5,3\n',
        _HEAD + "1_000,1,2,0.5,1.5,3\n",
        _HEAD + "1,1_0,2,0.5,1.5,3\n",
        _HEAD + "1,1,2,0.5,1.5,3\n2,1,2,0.5\n",
        _HEAD + "1,1,2,0.5,1.5,3,\n",
        _HEAD + "9223372036854775808,1,2,0.5,1.5,3\n",
        _HEAD + "1,1,2,0.5,1.5,3\n-9223372036854775809,1,2,0.5,1.5,3\n",
        _HEAD + "1,1,2,0.5,1.5,3\n   \n2,1,2,0.5,1.5,4\n",
        _HEAD + "\n1,1,2,0.5,1.5,3\n",
        _HEAD + "1,1,2,0.5,1.5,3\r2,1,2,0.5,1.5,4\r",
        _HEAD + "#1,1,2,0.5,1.5,3\n",
        _HEAD + "5.0,1,2,0.5,1.5,3\n",
        _HEAD + "1,one,2,0.5,1.5,3\n",
        _HEAD + "\u0661,1,2,0.5,1.5,3\n",
        _HEAD,
        _HEAD + "\n\n",
        "",
        "time,o,h,l,c,v\n0,1,1,1,1,1\n",
        _HEAD + "1,8\x1c,8,1,1,1\n",
        _HEAD + "1,1,1,1,1,1\n2,1,1,1,1,1\x1f\n",
        'timestamp,open,high,low,close,"volume\n1,1,1,1,1,1\n"\n',
    ], ids=["iso", "empty_volume_column", "gjr_no_volume", "one_empty_volume", "quoted",
            "underscore_stamp", "underscore_price", "five_fields", "seven_fields",
            "int64_overflow", "int64_underflow", "whitespace_line", "blank_first_row",
            "cr_line_ends", "hash", "float_stamp", "word_price", "arabic_digit",
            "header_only", "header_and_blank_lines", "empty", "wrong_header",
            "separator_in_first_row", "separator_in_last_row", "quote_in_header"])
    def test_every_other_file_gets_the_csv_reader_outcome(self, text):
        _assert_parsers_agree(text, c_parser=False)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(_CELLS), min_size=5, max_size=7),
                    min_size=1, max_size=4))
    def test_any_cells_give_one_outcome(self, rows):
        text = _HEAD + "".join(",".join(r) + "\n" for r in rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _read_outcome(io.StringIO(text)) == _read_outcome(_Unseekable(text))

    @pytest.mark.parametrize("scan_chars", [1, 2, 3, 7, 1 << 20])
    @pytest.mark.parametrize("text", [
        _perfbench_style(2000, 9)[:-len("\n")].rsplit(",", 1)[0] + ",\n",
        _HEAD + "1,1,2,0.5,1.5,3\n2,1,,0.5,1.5,4\n",
        _HEAD + "1,1,2,0.5,1.5,3\n,1,2,0.5,1.5,4\n",
        _HEAD + "1,1,2,0.5,1.5,3\r\n2,1,2,0.5,1.5,\r\n",
        _HEAD + "1,1,2,0.5,1.5,3\n2,1,2,0.5,1.5,",
    ], ids=["last_volume", "middle", "first_cell", "crlf", "end_of_file"])
    def test_an_empty_cell_skips_the_c_parser(self, monkeypatch, tmp_path, text, scan_chars):
        # the body is scanned for empty cells before loadtxt runs, in chunks
        # of any size; the file reads as csv.reader reads it
        want = _read_outcome(_Unseekable(text))
        p = tmp_path / "bars.csv"
        p.write_text(text, newline="")

        def loadtxt(*args, **kwargs):
            raise AssertionError("np.loadtxt entered")

        monkeypatch.setattr(series_module, "_SCAN_CHARS", scan_chars)
        monkeypatch.setattr(series_module.np, "loadtxt", loadtxt)
        assert _read_outcome(str(p)) == want

    def test_messages_are_the_csv_readers(self):
        for text, message in ((_HEAD, "CSV has a header but no rows"),
                              (_HEAD + "1,1,2,0.5,1.5,3\n2,1,2\n", "row 2: expected 6 fields, got 3"),
                              (_HEAD + "9223372036854775808,1,2,0.5,1.5,3\n",
                               "timestamp beyond int64 at row 1")):
            assert _assert_parsers_agree(text, c_parser=False) == (RejectedInputError, message)

    def test_file_paths_take_the_c_parser(self, tmp_path):
        p = tmp_path / "bars.csv"
        p.write_text(_perfbench_style(400, 6), newline="")
        with open(p, newline="") as f:
            assert _read_epoch_columns(f) is not None
        with open(p, newline="") as f:
            want = _read_outcome(_Unseekable(f.read()))
        assert _read_outcome(str(p)) == want

    def test_fallback_reads_from_the_start_of_the_stream(self):
        # a stream positioned after some preamble is read from there
        text = "preamble\n" + _perfbench_style(50, 7, volume=False)
        f = io.StringIO(text)
        f.readline()
        want = _read_outcome(_Unseekable(text[len("preamble\n"):]))
        assert _read_outcome(f) == want

    def test_c_parser_keeps_no_row_lists(self, tmp_path):
        p = tmp_path / "bars.csv"
        p.write_text(_written(simulate(GbmSpec(n_steps=100_000, seed=8))), newline="")
        tracemalloc.start()
        try:
            s = read_csv(str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s) == 100_001
        # the six columns are 4.8 MB; csv.reader's row lists peak near 25 MB
        assert peak <= 12e6


# Values where repr's output changes shape: signed zeros, subnormals, the
# switch to exponent notation at 1e16 and below 1e-4, the float extremes.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.1125369292536007e-308, 1e-4, 1e-5, 9.999999999999999e-05,
                1e16, 9999999999999998.0, 1e15, 1.7976931348623157e308,
                -1.7976931348623157e308, 0.1, 1.0 / 3.0, float("inf"), float("-inf"),
                float("nan")]
_INT64 = st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1)


def _floats(width=64):
    big = float(np.finfo(f"float{width}").max)
    edges = [x for x in _EDGE_FLOATS if not math.isfinite(x) or abs(x) <= big]
    return st.one_of(st.floats(width=width), st.sampled_from(edges))


def _columns(n):
    """One curve column of length n, of a dtype a curve may carry."""
    return st.one_of(
        st.lists(_floats(), min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float)),
        st.lists(_floats(32), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.float32)),
        st.lists(_floats(), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.longdouble)),
        st.lists(st.one_of(_INT64, st.sampled_from([-2 ** 63, 2 ** 63 - 1, 0])),
                 min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.integers(0, 2 ** 64 - 1), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.uint64)),
        st.lists(st.booleans(), min_size=n, max_size=n).map(lambda v: np.array(v, dtype=bool)),
        st.lists(st.one_of(_INT64, _floats(), st.booleans()), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=object)),
        st.lists(st.one_of(st.integers(-10 ** 6, 10 ** 6), _floats()), min_size=n,
                 max_size=n),
    )


def _assert_same_text(got, want):
    """Equality, reported as the first differing line: pytest's own diff of
    two CSVs of a few thousand lines runs for minutes."""
    if got == want:
        return
    g, w = got.split("\n"), want.split("\n")
    k = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
    pytest.fail(f"line {k} differs: {g[k:k + 1]!r} != {w[k:k + 1]!r}")


@st.composite
def _curves(draw):
    n = draw(st.integers(0, 12))
    k = draw(st.integers(1, 4))
    return {f"c{j}": draw(_columns(n)) for j in range(k)}


@st.composite
def _price_series(draw):
    n = draw(st.integers(1, 12))
    # the int64 extremes: the first stamp, or the last after 11 steps of at most 2**40
    t0 = draw(st.one_of(st.integers(-2 ** 62, 2 ** 62),
                        st.sampled_from([-2 ** 63, 2 ** 63 - 1 - 11 * 2 ** 40])))
    steps = draw(st.lists(st.integers(1, 2 ** 40), min_size=n - 1, max_size=n - 1))
    ts = t0 + np.concatenate(([0], np.cumsum(np.array(steps, dtype=np.int64))))
    price = st.one_of(st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
                      st.sampled_from([x for x in _EDGE_FLOATS if x > 0 and math.isfinite(x)]))
    cols = [np.array(draw(st.lists(price, min_size=n, max_size=n))) for _ in range(4)]
    o, a, b, c = cols
    volume = draw(st.one_of(
        st.none(),
        st.lists(st.one_of(st.just(float("nan")), st.sampled_from([0.0, 5e-324, 1e16, 1e-5]),
                           st.floats(min_value=0.0, allow_nan=False)),
                 min_size=n, max_size=n)))
    return PriceSeries(ts, o, np.maximum(a, b), np.minimum(a, b), c, volume)


class TestWritersMatchRowOracles:
    @settings(max_examples=300, deadline=None)
    @given(_price_series())
    def test_write_csv_bytes(self, s):
        ref = io.StringIO()
        _write_csv_loop(s, ref)
        out = io.StringIO()
        write_csv(s, out)
        _assert_same_text(out.getvalue(), ref.getvalue())

    @settings(max_examples=300, deadline=None)
    @given(_curves())
    def test_write_curve_csv_bytes(self, tmp_path_factory, columns):
        d = tmp_path_factory.mktemp("curves")
        write_curve_csv(str(d / "new.csv"), columns)
        _write_curve_csv_loop(str(d / "ref.csv"), columns)
        new, ref = ((d / name).read_bytes().decode() for name in ("new.csv", "ref.csv"))
        _assert_same_text(new, ref)

    def test_zero_length_curve_is_the_header(self, tmp_path):
        write_curve_csv(str(tmp_path / "c.csv"), {"lag": np.array([], dtype=np.int64),
                                                 "value": np.array([])})
        assert (tmp_path / "c.csv").read_bytes() == b"lag,value\n"

    def test_all_nan_volume_is_empty_cells(self):
        s = make_series(n=3, volume=False)
        out = io.StringIO()
        write_csv(s, out)
        assert all(line.endswith(",") for line in out.getvalue().splitlines()[1:])

    def test_unequal_curve_columns_raise(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            write_curve_csv(str(tmp_path / "c.csv"), {"a": [1, 2], "b": [1.0]})
        assert list(tmp_path.iterdir()) == []

    def test_curve_rows_are_written_in_blocks(self, tmp_path):
        # volatility.csv's shape at 1e5 bars: whole-file cell lists and text
        # peak near 43 MB
        cols = {"timestamp": 946_684_800 + 86_400 * np.arange(100_000, dtype=np.int64)}
        for j, name in enumerate(("basic", "parkinson", "rogers_satchell")):
            cols[name] = np.abs(np.random.default_rng(j).standard_normal(100_000)) * 0.01
            cols[name][:20] = np.nan
        tracemalloc.start()
        try:
            write_curve_csv(str(tmp_path / "volatility.csv"), cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6
        _write_curve_csv_loop(str(tmp_path / "ref.csv"), cols)
        assert (tmp_path / "volatility.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_series_rows_are_written_in_blocks(self, tmp_path):
        # a 1e5-bar simulated series: the whole file as one string and its
        # cell lists peaked at 60 MB
        s = simulate(GbmSpec(n_steps=100_000))
        tracemalloc.start()
        try:
            write_csv(s, str(tmp_path / "gbm.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_write_csv_bytes_at_the_block_edge(self, extra):
        # write_csv's six columns: rows per block
        n = series_module._WRITE_BLOCK_CELLS // 6 + extra
        s = make_series(n=n)
        volume = s.volume.copy()
        volume[::3] = np.nan
        volume[n - 1] = np.nan
        s = PriceSeries(s.timestamps, s.open, s.high, s.low, s.close, volume)
        out = io.StringIO()
        write_csv(s, out)
        ref = io.StringIO()
        _write_csv_loop(s, ref)
        assert out.getvalue() == ref.getvalue()
        assert out.getvalue().count("\n") == n + 1

    def test_a_failed_curve_write_leaves_the_old_file(self, tmp_path):
        # the cell that cannot be formatted lies in the third block of rows
        path = tmp_path / "c.csv"
        path.write_bytes(b"old\n")
        bad = np.array([1.0] * 10_000 + ["x"], dtype=object)
        with pytest.raises(ValueError):
            write_curve_csv(str(path), {"lag": np.arange(10_001), "value": bad})
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.csv"]

    @pytest.mark.parametrize("spec", [
        GbmSpec(n_steps=2000, seed=11),
        OuSpec(n_steps=2000, seed=12),
        GarchSpec(n_steps=2000, seed=13, innovation="student_t", df=5.0),
        GjrSpec(n_steps=2000, seed=14, omega=1e-6, alpha=0.03, gamma=0.24, beta=0.80,
                volume_mode="none"),
    ], ids=["gbm", "ou", "garch_t", "gjr"])
    def test_simulated_roundtrip_is_bit_equal(self, spec):
        s = simulate(spec)
        out = io.StringIO()
        write_csv(s, out)
        ref = io.StringIO()
        _write_csv_loop(s, ref)
        _assert_same_text(out.getvalue(), ref.getvalue())
        back = read_csv(io.StringIO(out.getvalue()))
        for col in ("timestamps", "open", "high", "low", "close", "volume"):
            a, b = getattr(back, col), getattr(s, col)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), col
