"""Input checks at the edges: non-finite values and DFA scale ranges."""

import math

import numpy as np
import pytest

from groovekit import FormatError, Interval, Onset, OnsetSeries, ParameterError, read_onsets_csv
from groovekit.cli import main

HEADER = "index,time_s,amplitude,label,source\n"


def _annotation(tmp_path, bad_row_at, time_s="nan", amplitude="0.5"):
    """Twelve valid rows, with row ``bad_row_at`` (0-based) replaced."""
    rows = []
    for i in range(12):
        t, a = (time_s, amplitude) if i == bad_row_at else (f"{0.12 * i:.6f}", "0.5")
        rows.append(f"{i},{t},{a},hihat,auto\n")
    path = tmp_path / "onsets.csv"
    path.write_text(HEADER + "".join(rows))
    return path


class TestNonFiniteRejected:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_analyze_exit_2_names_line(self, tmp_path, capsys, value):
        path = _annotation(tmp_path, bad_row_at=5, time_s=value)
        code = main(["analyze", str(path), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert f"{path}:7: bad annotation row" in err  # header is line 1
        assert "finite" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_amplitude(self, tmp_path, value):
        path = _annotation(tmp_path, bad_row_at=2, time_s="0.240000", amplitude=value)
        with pytest.raises(FormatError, match=":4: bad annotation row: onset amplitude"):
            read_onsets_csv(path)

    def test_out_of_order_row_named(self, tmp_path):
        path = _annotation(tmp_path, bad_row_at=3, time_s="0.100000")
        with pytest.raises(FormatError, match=":5: bad annotation row: .*strictly increasing"):
            read_onsets_csv(path)

    def test_unknown_label_named(self, tmp_path):
        path = tmp_path / "onsets.csv"
        path.write_text(HEADER + "0,0.100000,0.5,hihat,auto\n1,0.200000,0.5,cowbell,auto\n")
        with pytest.raises(FormatError, match=":3: bad annotation row: unknown onset label 'cow"):
            read_onsets_csv(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rows_reject_non_finite(self, value):
        with pytest.raises(ParameterError):
            Onset(time_s=value, amplitude=0.5)
        with pytest.raises(ParameterError):
            Onset(time_s=1.0, amplitude=0.5, uncertainty_ms=value)
        with pytest.raises(ParameterError):
            Interval(tau_s=value, start_index=0, start_time_s=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_columns_reject_non_finite(self, value):
        times = np.array([0.1, 0.2, value, 0.4])
        with pytest.raises(ParameterError, match="onset 2: onset time must be finite"):
            OnsetSeries.from_columns(times, np.full(4, 0.5))
        with pytest.raises(ParameterError, match="onset 1: onset amplitude"):
            OnsetSeries.from_columns([0.1, 0.2], [0.5, value])

    def test_columns_reject_bad_names_and_lengths(self):
        with pytest.raises(ParameterError, match="unknown onset label"):
            OnsetSeries.from_columns([0.1, 0.2], [0.5, 0.5], labels=["hihat", "cowbell"])
        with pytest.raises(ParameterError, match="equal length"):
            OnsetSeries.from_columns([0.1, 0.2], [0.5])


class TestDfaRangeFlags:
    @pytest.mark.parametrize("flag", ["--dfa-short", "--dfa-long"])
    @pytest.mark.parametrize("value", ["16:4", "8:8", "0:16", "4", "a:b"])
    def test_reversed_or_empty_range_is_usage_error(self, tmp_path, capsys, flag, value):
        path = _annotation(tmp_path, bad_row_at=-1)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(path), "--out-dir", str(tmp_path / "out"), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "LO" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()
