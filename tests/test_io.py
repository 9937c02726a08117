"""File format round-trips and schema diagnostics."""

import json
import math

import numpy as np
import pytest

from perfeat.io import (
    InvalidScale,
    OutOfScale,
    SchemaError,
    format_number,
    load_annotations,
    load_calibration,
    load_config,
    load_ratings,
    load_table,
    load_tempos,
    write_csv,
)
from perfeat.smf import TrackCategory


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadRatings:
    def test_basic(self, tmp_path):
        path = write(
            tmp_path / "r.csv",
            "item,r1,r2,r3\nsong_a,1,5,9\nsong_b,2,,8\n",
        )
        matrix = load_ratings(path)
        assert matrix.rater_ids == ("r1", "r2", "r3")
        assert matrix.item_ids == ("song_a", "song_b")
        assert matrix.values[0].tolist() == [1.0, 5.0, 9.0]
        assert matrix.values[1][0] == 2.0
        assert math.isnan(matrix.values[1][1])

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write(
            tmp_path / "r.csv",
            "# scale=1..9\n\nitem,r1,r2\n# a note\ns1,3,4\ns2,5,6\n",
        )
        matrix = load_ratings(path)
        assert matrix.n_items == 2

    def test_out_of_scale(self, tmp_path):
        path = write(tmp_path / "r.csv", "item,r1,r2\ns1,1,10\n")
        with pytest.raises(OutOfScale) as err:
            load_ratings(path)
        assert ":2:" in str(err.value)
        assert "10.0" in str(err.value)

    def test_out_of_scale_names_first_cell_row_by_row(self, tmp_path):
        path = write(tmp_path / "r.csv", "item,r1,r2\ns1,5,0\ns2,10,5\n")
        with pytest.raises(OutOfScale, match=r":2: rating 0.0 for item 's1' by 'r2'"):
            load_ratings(path)

    @pytest.mark.parametrize("scale", [(math.nan, math.nan), (1.0, math.nan),
                                       (math.nan, 9.0), (9.0, 1.0)])
    def test_scale_that_is_not_an_interval(self, tmp_path, scale):
        # Every comparison with NaN is false, so a NaN bound would let every
        # rating through.
        path = write(tmp_path / "r.csv", "item,r1,r2\ns1,5,60\n")
        with pytest.raises(InvalidScale, match=r"is not an interval"):
            load_ratings(path, scale=scale)

    def test_non_finite_text_rejected(self, tmp_path):
        path = write(tmp_path / "r.csv", "item,r1,r2\ns1,3,4\ns2,nan,4\n")
        for scale in ((1.0, 9.0), None):
            with pytest.raises(SchemaError, match=r":3: 'nan' is not a finite number"):
                load_ratings(path, scale=scale)

    def test_scale_bounds_inclusive(self, tmp_path):
        path = write(tmp_path / "r.csv", "item,r1,r2\ns1,1,9\n")
        matrix = load_ratings(path)
        assert matrix.values[0].tolist() == [1.0, 9.0]

    def test_scale_none_disables_check(self, tmp_path):
        path = write(tmp_path / "r.csv", "item,r1,r2\ns1,-4,120\n")
        matrix = load_ratings(path, scale=None)
        assert matrix.values[0].tolist() == [-4.0, 120.0]

    def test_custom_scale(self, tmp_path):
        path = write(tmp_path / "r.csv", "item,r1,r2\ns1,0,100\n")
        matrix = load_ratings(path, scale=(0.0, 100.0))
        assert matrix.values[0][1] == 100.0

    def test_non_numeric_cell_carries_line(self, tmp_path):
        path = write(tmp_path / "r.csv", "item,r1,r2\ns1,3,4\ns2,high,4\n")
        with pytest.raises(SchemaError) as err:
            load_ratings(path)
        assert ":3:" in str(err.value)

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path / "r.csv", "item,r1,r2\ns1,3\n")
        with pytest.raises(SchemaError) as err:
            load_ratings(path)
        assert "2 cells" in str(err.value)

    def test_needs_two_raters(self, tmp_path):
        path = write(tmp_path / "r.csv", "item,r1\ns1,3\n")
        with pytest.raises(SchemaError):
            load_ratings(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "r.csv", "")
        with pytest.raises(SchemaError):
            load_ratings(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path / "r.csv", "item,r1,r2\n")
        with pytest.raises(SchemaError):
            load_ratings(path)

    def test_repeated_item_rejected(self, tmp_path):
        # One item on two rows would count twice in n_items but once in the means.
        path = write(tmp_path / "r.csv", "item,r1,r2,r3\ns1,3,4,3\ns2,5,5,5\ns1,7,8,7\n")
        with pytest.raises(SchemaError, match=r"r\.csv:4: item 's1' repeats line 2$"):
            load_ratings(path)

    def test_repeated_rater_id_is_named(self, tmp_path):
        path = write(tmp_path / "r.csv", "item,r1,r2,r1\ns1,3,4,3\ns2,5,5,6\n")
        with pytest.raises(SchemaError,
                           match=r"r\.csv: column 'r1' appears twice in the header$"):
            load_ratings(path)


class TestSidecarLoaders:
    def test_annotations(self, tmp_path):
        path = write(
            tmp_path / "a.csv",
            "song_id,track_id,category\n"
            "s1,0,melody\ns1,1,acc\ns1,2,BASS\ns2,3,dru\n",
        )
        annotations = load_annotations(path)
        assert annotations["s1"] == {
            0: TrackCategory.MELODY,
            1: TrackCategory.ACCOMPANIMENT,
            2: TrackCategory.BASS,
        }
        assert annotations["s2"] == {3: TrackCategory.DRUMS}

    def test_annotations_unknown_category(self, tmp_path):
        path = write(tmp_path / "a.csv", "song_id,track_id,category\ns1,0,lead\n")
        with pytest.raises(SchemaError) as err:
            load_annotations(path)
        assert "lead" in str(err.value)

    def test_annotations_repeated_track_rejected(self, tmp_path):
        path = write(
            tmp_path / "a.csv",
            "song_id,track_id,category\ns1,1,melody\ns2,1,bass\ns1,01,bass\n",
        )
        with pytest.raises(SchemaError, match=r":4: song 's1' track 1 repeats line 2$"):
            load_annotations(path)

    def test_annotations_bad_track_id(self, tmp_path):
        path = write(tmp_path / "a.csv", "song_id,track_id,category\ns1,first,melody\n")
        with pytest.raises(SchemaError) as err:
            load_annotations(path)
        assert ":2:" in str(err.value)

    def test_tempos(self, tmp_path):
        path = write(tmp_path / "t.csv", "song_id,beats_per_second\ns1,2.4\ns2,1.95\n")
        assert load_tempos(path) == {"s1": 2.4, "s2": 1.95}

    def test_tempos_repeated_song_rejected(self, tmp_path):
        path = write(tmp_path / "t.csv", "song_id,beats_per_second\ns1,2.0\ns1,3.0\n")
        with pytest.raises(SchemaError, match=r":3: song 's1' repeats line 2$"):
            load_tempos(path)

    def test_tempos_must_be_positive(self, tmp_path):
        path = write(tmp_path / "t.csv", "song_id,beats_per_second\ns1,0\n")
        with pytest.raises(SchemaError):
            load_tempos(path)

    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_tempos_non_finite_text_rejected(self, tmp_path, text):
        path = write(tmp_path / "t.csv", f"song_id,beats_per_second\ns1,{text}\n")
        with pytest.raises(SchemaError, match=f":2: '{text}' is not a finite number"):
            load_tempos(path)

    def test_calibration_non_finite_text_rejected(self, tmp_path):
        path = write(
            tmp_path / "c.csv",
            "velocity,volume,dB\n1,1,-60\n1,127,nan\n127,1,-30\n127,127,0\n",
        )
        with pytest.raises(SchemaError, match=r":3: 'nan' is not a finite number"):
            load_calibration(path)

    def test_calibration(self, tmp_path):
        lines = ["velocity,volume,dB"]
        for velocity in (1, 64, 127):
            for volume in (1, 64, 127):
                level = 20 * math.log10(velocity / 127) + 20 * math.log10(volume / 127)
                lines.append(f"{velocity},{volume},{level}")
        path = write(tmp_path / "c.csv", "\n".join(lines) + "\n")
        calibration = load_calibration(path)
        assert calibration(127, 127) == pytest.approx(0.0, abs=1e-12)
        assert calibration(64, 127) == pytest.approx(
            20 * math.log10(64 / 127), abs=1e-12
        )

    def test_calibration_repeated_cell_rejected(self, tmp_path):
        path = write(
            tmp_path / "c.csv",
            "velocity,volume,dB\n1,1,-60\n1,127,-30\n127,1,-30\n127,127,0\n127,127,-50\n",
        )
        with pytest.raises(SchemaError,
                           match=r"c\.csv: calibration repeats velocity=127 volume=127"):
            load_calibration(path)

    def test_calibration_incomplete_grid(self, tmp_path):
        path = write(
            tmp_path / "c.csv",
            "velocity,volume,dB\n1,1,-60\n1,127,-30\n127,1,-30\n",
        )
        with pytest.raises(SchemaError):
            load_calibration(path)


class TestLoadTable:
    def test_values_and_nan(self, tmp_path):
        path = write(
            tmp_path / "f.csv",
            "song_id,a,b\ns1,1.5,2\ns2,,3.25\n",
        )
        item_ids, names, values = load_table(path)
        assert item_ids == ("s1", "s2")
        assert names == ("a", "b")
        assert values[0].tolist() == [1.5, 2.0]
        assert math.isnan(values[1][0]) and values[1][1] == 3.25

    def test_roundtrip_with_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        original = np.array([[1.0 / 3.0, 2.0**-40], [math.pi, float("nan")]])
        write_csv(
            path,
            ["song_id", "x", "y"],
            [["s1", *original[0]], ["s2", *original[1]]],
            {"command": "test", "seed": 0},
        )
        item_ids, names, values = load_table(path)
        assert item_ids == ("s1", "s2")
        assert names == ("x", "y")
        assert values[0][0] == original[0][0]
        assert values[0][1] == original[0][1]
        assert values[1][0] == original[1][0]
        assert math.isnan(values[1][1])

    @pytest.mark.parametrize("text", ["inf", "-Infinity", "NaN", "1e999"])
    def test_non_finite_text_rejected(self, tmp_path, text):
        path = write(tmp_path / "f.csv", f"song_id,y,x\ns1,1,2\ns2,{text},3\n")
        with pytest.raises(SchemaError, match=f":3: '{text}' is not a finite number"):
            load_table(path)

    def test_needs_variable_column(self, tmp_path):
        path = write(tmp_path / "f.csv", "song_id\ns1\n")
        with pytest.raises(SchemaError):
            load_table(path)

    def test_repeated_column_name_rejected(self, tmp_path):
        path = write(tmp_path / "f.csv", "song_id,y,a,b,a\ns1,1,2,3,4\n")
        with pytest.raises(SchemaError,
                           match=r"f\.csv: column 'a' appears twice in the header$"):
            load_table(path)


@pytest.mark.parametrize("reader, text", [
    (load_ratings, "item,r1,r2\ns1,3,4\n"),
    (load_annotations, "song_id,track_id,category\ns1,0,melody\n"),
    (load_tempos, "song_id,beats_per_second\ns1,2.4\n"),
    (load_calibration, "velocity,volume,dB\n1,1,-60\n1,127,-30\n127,1,-30\n127,127,0\n"),
    (load_table, "song_id,a\ns1,1.5\n"),
    (load_config, '{"seed": 3}'),
], ids=["ratings", "annotations", "tempos", "calibration", "table", "config"])
def test_byte_order_mark_is_not_content(tmp_path, reader, text):
    # Spreadsheet exports often start with a UTF-8 byte-order mark; read as
    # text, it would join the first header cell.
    plain = write(tmp_path / "plain.csv", text)
    marked = tmp_path / "marked.csv"
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    expected, actual = reader(plain), reader(marked)
    if reader is load_calibration:
        expected, actual = expected(127, 1), actual(127, 1)
    assert repr(actual) == repr(expected)


class TestWriters:
    def test_format_number(self):
        assert format_number(None) == ""
        assert format_number(float("nan")) == ""
        assert format_number(0.1) == "0.1"
        assert float(format_number(1.0 / 3.0)) == 1.0 / 3.0
        assert format_number(2.0) == "2.0"

    def test_preamble_and_cells(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(
            path,
            ["id", "value", "flag"],
            [["a", 0.5, True], ["b", None, False]],
            {"command": "demo", "seed": 7},
        )
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# command=demo"
        assert lines[1] == "# seed=7"
        assert lines[2] == "id,value,flag"
        assert lines[3] == "a,0.5,true"
        assert lines[4] == "b,,false"

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.csv"
        write_csv(path, ["id"], [["a"]])
        assert path.is_file()


class TestLoadConfig:
    def test_flat_object(self, tmp_path):
        path = write(tmp_path / "c.json", json.dumps({"seed": 3, "folds": 5}))
        assert load_config(path) == {"seed": 3, "folds": 5}

    def test_invalid_json(self, tmp_path):
        path = write(tmp_path / "c.json", "{not json")
        with pytest.raises(SchemaError):
            load_config(path)

    def test_non_object(self, tmp_path):
        path = write(tmp_path / "c.json", "[1, 2, 3]")
        with pytest.raises(SchemaError):
            load_config(path)
