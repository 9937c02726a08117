"""End-to-end command tests on small generated corpora."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import note_on, note_off, pcm16, set_tempo, smf, track, wav
from perfeat import cli
from perfeat.io import load_table
from perfeat.midi_features import extract_midi_features
from perfeat.regress import Design, ols_fit
from perfeat.smf import TrackCategory, annotate_tracks, parse_smf
from perfeat.stats import pearson


def run(*argv):
    return cli.main([str(a) for a in argv])


def read_records(path):
    """CSV rows as dicts, skipping the # preamble."""
    lines = [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    ]
    rows = list(csv.reader(lines))
    header = rows[0]
    return [dict(zip(header, row)) for row in rows[1:]]


@pytest.fixture
def midi_corpus(tmp_path):
    corpus = tmp_path / "midi"
    corpus.mkdir()
    # 1 tick = 1 ms at the default tempo with this division.
    song_a = smf(
        track(
            note_on(0, 60, 100),
            note_off(250, 60),
            note_on(250, 64, 90),
            note_off(250, 64),
        ),
        track(
            note_on(0, 36, 100, channel=9),
            note_off(100, 36, channel=9),
            note_on(400, 42, 80, channel=9),
            note_off(100, 42, channel=9),
        ),
        division=500,
    )
    song_b = smf(
        track(
            set_tempo(0, 250_000),
            note_on(0, 48, 70),
            note_off(500, 48),
            note_on(0, 55, 70),
            note_off(500, 55),
        ),
        division=500,
    )
    (corpus / "song_a.mid").write_bytes(song_a)
    (corpus / "song_b.mid").write_bytes(song_b)
    annotations = tmp_path / "annotations.csv"
    annotations.write_text(
        "song_id,track_id,category\nsong_a,0,melody\nsong_b,0,bass\n",
        encoding="utf-8",
    )
    return corpus, annotations, {"song_a": song_a, "song_b": song_b}


@pytest.fixture
def wav_corpus(tmp_path):
    corpus = tmp_path / "wavs"
    corpus.mkdir()
    rate = 8000
    t = np.arange(rate) / rate
    for name, frequency in (("clip_low", 300.0), ("clip_high", 2500.0)):
        samples = pcm16(0.6 * np.sin(2 * np.pi * frequency * t))
        (corpus / f"{name}.wav").write_bytes(wav(samples, rate))
    return corpus


@pytest.fixture
def ratings_dir(tmp_path):
    rng = np.random.default_rng(11)
    directory = tmp_path / "ratings"
    directory.mkdir()
    truth = rng.uniform(2, 8, size=10)
    for feature in ("speed", "energy"):
        lines = ["item,r1,r2,r3,r4"]
        for i, value in enumerate(truth):
            cells = np.clip(value + rng.normal(0, 0.4, size=4), 1, 9)
            lines.append(f"item{i:02d}," + ",".join(f"{c:.2f}" for c in cells))
        (directory / f"{feature}.csv").write_text("\n".join(lines) + "\n")
        truth = rng.uniform(2, 8, size=10)
    return directory


@pytest.fixture
def feature_table(tmp_path):
    rng = np.random.default_rng(21)
    n = 16
    x = rng.normal(size=(n, 3))
    y = 1.0 + 2.0 * x[:, 0] - 1.0 * x[:, 1] + rng.normal(0, 0.3, size=n)
    path = tmp_path / "features.csv"
    lines = ["song_id,y,x1,x2,x3"]
    for i in range(n):
        cells = (float(y[i]), float(x[i, 0]), float(x[i, 1]), float(x[i, 2]))
        lines.append(f"s{i:02d}," + ",".join(repr(c) for c in cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, x, y


class TestExtractMidi:
    def test_matches_library(self, midi_corpus, tmp_path):
        corpus, annotations, raw = midi_corpus
        out = tmp_path / "out"
        status = run(
            "extract-midi", "--midi-dir", corpus,
            "--annotations", annotations, "--out-dir", out,
        )
        assert status == 0
        assert (out / "midi_features.txt").is_file()
        item_ids, names, values = load_table(out / "midi_features.csv")
        assert item_ids == ("song_a", "song_b")
        assert len(names) == 21

        from perfeat.io import load_annotations

        categories = load_annotations(annotations)
        for row, song_id in zip(values, item_ids):
            song = parse_smf(raw[song_id], song_id=song_id)
            song = annotate_tracks(song, categories[song_id])
            vector = extract_midi_features(song)
            for cell, expected in zip(row, vector.values()):
                if expected is None:
                    assert math.isnan(cell)
                else:
                    assert cell == pytest.approx(expected, rel=1e-12)

    def test_tempo_sidecar_fills_ann_tempo(self, midi_corpus, tmp_path):
        corpus, _, _ = midi_corpus
        tempos = tmp_path / "tempos.csv"
        tempos.write_text("song_id,beats_per_second\nsong_a,2.4\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(
            "extract-midi", "--midi-dir", corpus, "--tempos", tempos,
            "--out-dir", out,
        ) == 0
        _, names, values = load_table(out / "midi_features.csv")
        column = names.index("ann_tempo")
        assert values[0][column] == 2.4
        assert math.isnan(values[1][column])

    def test_missing_dir_flag_is_usage_error(self, capsys):
        assert run("extract-midi") == 2
        assert "--midi-dir" in capsys.readouterr().err

    def test_nonexistent_dir_is_data_error(self, tmp_path, capsys):
        assert run("extract-midi", "--midi-dir", tmp_path / "nope") == 1

    @pytest.mark.parametrize("window", ["-1", "nan", "inf"])
    def test_bad_merge_window_names_the_first_file(self, midi_corpus, tmp_path,
                                                   window, capsys):
        corpus, _, _ = midi_corpus
        out = tmp_path / "out"
        assert run("extract-midi", "--midi-dir", corpus, "--out-dir", out,
                   "--merge-window", window) == 1
        err = capsys.readouterr().err
        assert "song_a.mid" in err and "merge_window must be finite and at least 0" in err
        assert not (out / "midi_features.csv").exists()

    def test_zero_merge_window_is_accepted(self, midi_corpus, tmp_path):
        corpus, _, _ = midi_corpus
        out = tmp_path / "out"
        assert run("extract-midi", "--midi-dir", corpus, "--out-dir", out,
                   "--merge-window", "0") == 0
        assert "# merge_window=0.0" in (out / "midi_features.csv").read_text()

    def test_malformed_file_names_the_file(self, tmp_path, capsys):
        corpus = tmp_path / "midi"
        corpus.mkdir()
        (corpus / "broken.mid").write_bytes(b"MThd\x00\x00\x00\x06garbage")
        assert run("extract-midi", "--midi-dir", corpus, "--out-dir", tmp_path) == 1
        assert "broken.mid" in capsys.readouterr().err


class TestExtractAudio:
    def test_matches_library(self, wav_corpus, tmp_path):
        from perfeat.audio_features import extract_audio_features, read_wav

        out = tmp_path / "out"
        assert run("extract-audio", "--wav-dir", wav_corpus, "--out-dir", out) == 0
        item_ids, names, values = load_table(out / "audio_features.csv")
        assert item_ids == ("clip_high", "clip_low")  # sorted by file name
        for song_id, row in zip(item_ids, values):
            clip = read_wav((wav_corpus / f"{song_id}.wav").read_bytes())
            expected = extract_audio_features(clip).values()
            np.testing.assert_allclose(row, expected, rtol=1e-12)

    def test_custom_cutoffs_change_columns(self, wav_corpus, tmp_path):
        out = tmp_path / "out"
        assert run(
            "extract-audio", "--wav-dir", wav_corpus, "--out-dir", out,
            "--rolloff-fractions", "0.5", "--brightness-cutoffs", "2000",
        ) == 0
        _, names, _ = load_table(out / "audio_features.csv")
        assert "rolloff50" in names and "bright2000" in names
        assert "rolloff85" not in names

    @pytest.mark.parametrize("frame_length", ["0", "-8", "1"])
    def test_frame_length_below_two_names_the_file(self, wav_corpus, tmp_path,
                                                   frame_length, capsys):
        assert run(
            "extract-audio", "--wav-dir", wav_corpus, "--out-dir", tmp_path / "out",
            "--frame-length", frame_length,
        ) == 1
        err = capsys.readouterr().err
        assert "clip_high.wav" in err and "frame_length must be at least 2" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--brightness-cutoffs", "nan", "brightness cutoff nan is not finite"),
        ("--rolloff-fractions", "0.85,1.5", "rolloff fraction 1.5"),
    ])
    def test_bad_descriptor_argument_names_the_file(self, wav_corpus, tmp_path,
                                                    flag, value, message, capsys):
        out = tmp_path / "out"
        assert run("extract-audio", "--wav-dir", wav_corpus, "--out-dir", out,
                   flag, value) == 1
        err = capsys.readouterr().err
        assert "clip_high.wav" in err and message in err
        assert not (out / "audio_features.csv").exists()


class TestAgreement:
    def test_reports_per_feature(self, ratings_dir, tmp_path):
        out = tmp_path / "out"
        assert run("agreement", "--ratings", ratings_dir, "--out-dir", out) == 0
        records = read_records(out / "agreement.csv")
        assert [r["feature"] for r in records] == ["energy", "speed"]
        for record in records:
            assert record["n_raters"] == "4"
            assert record["n_items"] == "10"
            assert float(record["mean_r"]) > 0.5
            assert float(record["alpha"]) > 0.7
        means = read_records(out / "item_means.csv")
        assert len(means) == 10
        assert set(means[0]) == {"item_id", "energy", "speed"}

    def test_item_means_match_library(self, ratings_dir, tmp_path):
        from perfeat.io import load_ratings
        from perfeat.stats import item_mean_ratings

        out = tmp_path / "out"
        assert run("agreement", "--ratings", ratings_dir / "speed.csv",
                   "--out-dir", out) == 0
        matrix = load_ratings(ratings_dir / "speed.csv")
        expected = item_mean_ratings(matrix)
        means = read_records(out / "item_means.csv")
        for row, value in zip(means, expected):
            assert float(row["speed"]) == pytest.approx(value, rel=1e-12)

    def test_flagged_rater_reported(self, ratings_dir, tmp_path, capsys):
        # Append a rater who scores against the panel.
        path = ratings_dir / "speed.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] += ",r5"
        for i in range(1, len(lines)):
            panel_mean = np.mean([float(c) for c in lines[i].split(",")[1:]])
            lines[i] += f",{10.0 - panel_mean:.2f}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("agreement", "--ratings", path, "--out-dir", out) == 0
        record = read_records(out / "agreement.csv")[0]
        assert record["n_flagged"] == "1"
        assert record["flagged_raters"] == "r5"
        assert float(record["mean_r_trimmed"]) > float(record["mean_r"])

    def test_no_complete_item_leaves_alpha_empty(self, tmp_path):
        # 12 items x 5 raters, each item missing one rater: no item is
        # complete, but every rater pair shares enough items for r.
        rng = np.random.default_rng(31)
        lines = ["item,r0,r1,r2,r3,r4"]
        for i, value in enumerate(rng.uniform(2, 8, size=12)):
            cells = [f"{c:.2f}" for c in np.clip(value + rng.normal(0, 0.5, 5), 1, 9)]
            cells[i % 5] = ""
            lines.append(f"item{i:02d}," + ",".join(cells))
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("agreement", "--ratings", path, "--out-dir", out) == 0
        record = read_records(out / "agreement.csv")[0]
        assert record["n_complete_items"] == "0"
        assert float(record["mean_r"]) > 0.5
        assert record["alpha"] == "" and record["alpha_trimmed"] == ""
        text = (out / "agreement.txt").read_text(encoding="utf-8")
        assert "panel: alpha undefined: 0 complete items, need 3." in text

    @staticmethod
    def _panel_flagging_empties(tmp_path, kind):
        """A panel where flagging leaves fewer than two raters."""
        if kind == "none left":
            # 12 items x 5 raters, each item missing one rater; every
            # rater's mean r is negative, so all five are flagged.
            lines = ["item,r0,r1,r2,r3,r4"]
            for i in range(12):
                cells = ["" if j == i % 5 else str(1 + (3 * i + 2 * j) % 9)
                         for j in range(5)]
                lines.append(f"item{i:02d}," + ",".join(cells))
        else:
            # r1 = -r0 and r2 correlates 0.5 with r0: mean r is -0.25 for
            # r0, -0.75 for r1 and 0 for r2, so only r2 is left.
            x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
            z = np.array([2.0, -1.0, -2.0, -1.0, 2.0])
            columns = [5 + x, 5 - x, 5 + 0.5 * (x + math.sqrt(30 / 14) * z)]
            lines = ["item,r0,r1,r2"] + [
                f"item{i}," + ",".join(repr(float(c[i])) for c in columns)
                for i in range(5)
            ]
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("kind, flagged, note", [
        ("none left", "r0;r1;r2;r3;r4", "leaves 0 of 5 raters, need 2."),
        ("one left", "r0;r1", "leaves 1 of 3 raters, need 2."),
    ])
    def test_flagging_below_two_raters_leaves_trimmed_empty(self, tmp_path, kind,
                                                             flagged, note):
        path = self._panel_flagging_empties(tmp_path, kind)
        out = tmp_path / "out"
        assert run("agreement", "--ratings", path, "--out-dir", out) == 0
        record = read_records(out / "agreement.csv")[0]
        assert record["flagged_raters"] == flagged
        assert record["n_flagged"] == str(flagged.count(";") + 1)
        assert record["mean_r"] != "" and float(record["mean_r"]) < 0
        assert record["mean_r_trimmed"] == "" and record["alpha_trimmed"] == ""
        text = (out / "agreement.txt").read_text(encoding="utf-8")
        assert f"panel: trimmed statistics undefined: flagging {note}" in text
        assert "values in parentheses" not in text
        assert len(read_records(out / "item_means.csv")) >= 5

    def test_trim_with_every_rater_flagged_fails_naming_the_file(self, tmp_path,
                                                                 capsys):
        path = self._panel_flagging_empties(tmp_path, "none left")
        out = tmp_path / "out"
        assert run("agreement", "--ratings", path, "--out-dir", out,
                   "--trim") == 1
        err = capsys.readouterr().err
        assert "panel.csv" in err and "fewer than two raters" in err
        assert not (out / "agreement.csv").exists()

    def test_out_of_scale_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("item,r1,r2\ns1,3,11\n", encoding="utf-8")
        assert run("agreement", "--ratings", path, "--out-dir", tmp_path) == 1
        assert "bad.csv" in capsys.readouterr().err

    def test_no_scale_check_accepts(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(
            "item,r1,r2\ns1,3,11\ns2,4,12\ns3,6,13\n", encoding="utf-8"
        )
        assert run("agreement", "--ratings", path, "--no-scale-check",
                   "--out-dir", tmp_path / "out") == 0


class TestXcorr:
    def test_long_form_matches_library(self, feature_table, tmp_path):
        path, x, y = feature_table
        out = tmp_path / "out"
        assert run("xcorr", "--table", path, "--out-dir", out) == 0
        records = read_records(out / "xcorr.csv")
        assert len(records) == 4 * 3 // 2
        by_pair = {(r["var_a"], r["var_b"]): r for r in records}
        cell = by_pair[("x1", "y")]
        assert float(cell["r"]) == pytest.approx(pearson(x[:, 0], y), rel=1e-12)
        assert cell["n"] == "16"
        text = (out / "xcorr.txt").read_text(encoding="utf-8")
        assert "* p < .05" in text

    def test_undefined_pair_left_blank(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "id,a,b\nr1,1,1\nr2,2,1\nr3,3,1\nr4,4,1\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        assert run("xcorr", "--table", path, "--out-dir", out) == 0
        record = read_records(out / "xcorr.csv")[0]
        assert record["r"] == "" and record["stars"] == ""


class TestFit:
    def test_ols_matches_library(self, feature_table, tmp_path):
        path, x, y = feature_table
        out = tmp_path / "out"
        assert run("fit", "--table", path, "--target", "y", "--out-dir", out) == 0
        design = Design(X=x, y=y, names=("x1", "x2", "x3"))
        model = ols_fit(design)
        records = read_records(out / "fit_y_ols.csv")
        stats = {r["name"]: r["value"] for r in records if r["record"] == "stat"}
        assert float(stats["r2"]) == pytest.approx(model.r2, rel=1e-12)
        assert float(stats["adj_r2"]) == pytest.approx(model.adj_r2, rel=1e-12)
        coef = {r["name"]: r for r in records if r["record"] == "coef"}
        assert list(coef) == ["x1", "x2", "x3"]
        for i, name in enumerate(model.names):
            assert float(coef[name]["coef"]) == pytest.approx(model.coef[i], rel=1e-12)
            assert float(coef[name]["beta_std"]) == pytest.approx(
                model.beta_std[i], rel=1e-12
            )
            assert float(coef[name]["sr"]) == pytest.approx(model.sr[i], rel=1e-12)
            assert float(coef[name]["p"]) == pytest.approx(model.p[i], rel=1e-12)
        text = (out / "fit_y_ols.txt").read_text(encoding="utf-8")
        assert "adjusted R2" in text

    def test_predictor_subset(self, feature_table, tmp_path):
        path, x, y = feature_table
        out = tmp_path / "out"
        assert run(
            "fit", "--table", path, "--target", "y",
            "--predictors", "x1,x2", "--out-dir", out,
        ) == 0
        records = read_records(out / "fit_y_ols.csv")
        coef_names = [r["name"] for r in records if r["record"] == "coef"]
        assert coef_names == ["x1", "x2"]

    def test_pls_needs_components(self, feature_table, capsys):
        path, _, _ = feature_table
        assert run("fit", "--table", path, "--target", "y", "--method", "pls") == 2
        assert "--components" in capsys.readouterr().err

    def test_pls_reports_factor_count(self, feature_table, tmp_path):
        path, _, _ = feature_table
        out = tmp_path / "out"
        assert run(
            "fit", "--table", path, "--target", "y",
            "--method", "pls", "--components", "2", "--out-dir", out,
        ) == 0
        records = read_records(out / "fit_y_pls.csv")
        stats = {r["name"]: r["value"] for r in records if r["record"] == "stat"}
        assert stats["m"] == "2"
        assert stats["truncated"] == "false"
        assert 0.0 < float(stats["r2"]) <= 1.0

    def test_unknown_target_fails(self, feature_table, capsys):
        path, _, _ = feature_table
        assert run("fit", "--table", path, "--target", "loudness") == 1
        assert "loudness" in capsys.readouterr().err

    def test_empty_predictor_list_is_usage_error(self, feature_table, capsys):
        path, _, _ = feature_table
        assert run("fit", "--table", path, "--target", "y", "--predictors", ",") == 2
        assert "--predictors names no columns" in capsys.readouterr().err

    def test_target_as_predictor_is_usage_error(self, feature_table):
        path, _, _ = feature_table
        assert run(
            "fit", "--table", path, "--target", "y", "--predictors", "y,x1"
        ) == 2


class TestCv:
    def test_deterministic_output_bytes(self, feature_table, tmp_path):
        path, _, _ = feature_table
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(
                "cv", "--table", path, "--target", "y", "--folds", "4",
                "--repeats", "8", "--seed", "42", "--out-dir", out,
            ) == 0
        assert (out_a / "cv_y_ols.csv").read_bytes() == (
            out_b / "cv_y_ols.csv"
        ).read_bytes()
        assert (out_a / "cv_y_ols.txt").read_bytes() == (
            out_b / "cv_y_ols.txt"
        ).read_bytes()

    def test_seed_changes_partitions(self, feature_table, tmp_path):
        path, _, _ = feature_table
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run("cv", "--table", path, "--target", "y", "--folds", "4",
            "--repeats", "8", "--seed", "1", "--out-dir", out_a)
        run("cv", "--table", path, "--target", "y", "--folds", "4",
            "--repeats", "8", "--seed", "2", "--out-dir", out_b)
        assert (out_a / "cv_y_ols.csv").read_bytes() != (
            out_b / "cv_y_ols.csv"
        ).read_bytes()

    def test_zero_repeats_fails(self, feature_table, tmp_path, capsys):
        path, _, _ = feature_table
        out = tmp_path / "out"
        assert run("cv", "--table", path, "--target", "y", "--folds", "4",
                   "--repeats", "0", "--out-dir", out) == 1
        assert "at least one repeat is required" in capsys.readouterr().err
        assert not out.exists()

    def test_matches_library(self, feature_table, tmp_path):
        from perfeat.regress import repeated_kfold_cv

        path, x, y = feature_table
        out = tmp_path / "out"
        assert run(
            "cv", "--table", path, "--target", "y", "--folds", "4",
            "--repeats", "8", "--seed", "3", "--out-dir", out,
        ) == 0
        design = Design(X=x, y=y, names=("x1", "x2", "x3"))
        report = repeated_kfold_cv(design, "ols", folds=4, repeats=8, seed=3)
        records = read_records(out / "cv_y_ols.csv")
        stats = {r["name"]: r["value"] for r in records if r["record"] == "stat"}
        assert float(stats["r2_cv"]) == report.r2_cv
        mse_rows = [float(r["value"]) for r in records if r["record"] == "mse"]
        assert mse_rows == [pytest.approx(v, rel=1e-15) for v in report.mse_per_repeat]


class TestConfig:
    def test_config_supplies_options(self, feature_table, tmp_path):
        path, _, _ = feature_table
        out = tmp_path / "from_config"
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "table": str(path), "target": "y", "out_dir": str(out),
            "folds": 4, "repeats": 2, "seed": 5,
        }), encoding="utf-8")
        assert run("cv", "--config", config) == 0
        assert (out / "cv_y_ols.csv").is_file()

    def test_flag_overrides_config(self, feature_table, tmp_path):
        path, _, _ = feature_table
        config_out = tmp_path / "config_out"
        flag_out = tmp_path / "flag_out"
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "table": str(path), "target": "y", "out_dir": str(config_out),
            "folds": 4, "repeats": 2,
        }), encoding="utf-8")
        assert run("cv", "--config", config, "--out-dir", flag_out) == 0
        assert (flag_out / "cv_y_ols.csv").is_file()
        assert not config_out.exists()

    def test_unknown_config_key_fails(self, feature_table, tmp_path, capsys):
        path, _, _ = feature_table
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"table": str(path), "fold_count": 4}))
        assert run("cv", "--config", config, "--target", "y") == 1
        assert "fold_count" in capsys.readouterr().err

    def test_predictor_list(self, feature_table, tmp_path):
        path, _, _ = feature_table
        out = tmp_path / "out"
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "table": str(path), "target": "y", "predictors": ["x1", "x2"],
            "out_dir": str(out),
        }), encoding="utf-8")
        assert run("fit", "--config", config) == 0
        records = read_records(out / "fit_y_ols.csv")
        assert [r["name"] for r in records if r["record"] == "coef"] == ["x1", "x2"]

    @pytest.mark.parametrize("key, value", [
        ("folds", [4]), ("folds", 4.7), ("trim", "false"),
    ])
    def test_mistyped_value_names_the_key(self, feature_table, tmp_path, key, value,
                                          capsys):
        path, _, _ = feature_table
        out = tmp_path / "out"
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "table": str(path), "target": "y", "repeats": 2, "out_dir": str(out),
            key: value,
        }), encoding="utf-8")
        assert run("cv", "--config", config) == 1
        assert f"configuration key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["transmogrify"])
        assert err.value.code == 2


# Literal inputs, so the golden transcript does not depend on a random stream.
_GOLDEN_RATINGS = {
    "speed": "item,r1,r2,r3,r4\n" + "".join(
        f"i{i},{a},{b},{c},{d}\n" for i, (a, b, c, d) in enumerate(
            [(2, 3, 2, 8), (3, 3, 4, 7), (5, 4, 5, 5), (6, 7, 6, 4),
             (8, 7, 8, 2), (4, 5, 4, 6), (7, 6, 7, 3), (1, 2, 2, 9)])
    ),
    "energy": "item,r1,r2,r3\n" + "".join(
        f"i{i},{a},{b},{c}\n" for i, (a, b, c) in enumerate(
            [(5, 6, 5), (2, 2, ""), (7, 8, 7), (4, 3, 4), (6, 6, 5),
             (3, 4, 3), (8, 8, 9), (5, 4, "")])
    ),
}
_GOLDEN_TABLE = (
    "song_id,y,x1,x2,x3\n"
    "s0,3.1,1.0,0.5,2.0\ns1,4.0,1.5,0.1,1.0\ns2,2.2,0.5,0.9,3.0\n"
    "s3,5.3,2.0,0.2,1.5\ns4,1.9,0.2,0.8,2.5\ns5,4.4,1.8,0.6,0.5\n"
    "s6,3.6,1.2,0.3,2.2\ns7,2.8,0.8,0.7,1.1\ns8,,1.1,0.4,1.7\n"
)
_GOLDEN_COMMANDS = [
    ["extract-midi", "--midi-dir", "midi", "--annotations", "annotations.csv",
     "--tempos", "tempos.csv"],
    ["extract-audio", "--wav-dir", "wavs", "--brightness-cutoffs", "1000,3000"],
    ["agreement", "--ratings", "ratings"],
    ["agreement", "--ratings", "ratings/speed.csv", "--trim", "--out-dir", "trim"],
    ["xcorr", "--table", "features.csv"],
    ["fit", "--table", "features.csv", "--target", "y"],
    ["fit", "--table", "features.csv", "--target", "y", "--method", "pls",
     "--components", "2", "--predictors", "x1,x2"],
    ["cv", "--table", "features.csv", "--target", "y", "--folds", "3",
     "--repeats", "2", "--seed", "7"],
    ["cv", "--table", "features.csv", "--target", "y", "--method", "pls",
     "--components", "1", "--folds", "4", "--repeats", "3"],
    ["fit", "--table", "features.csv", "--target", "y", "--method", "pls"],
    ["extract-midi", "--midi-dir", "nowhere"],
]


def _golden_transcript(capsys) -> str:
    """Every command's exit code, stdout, stderr and outputs as one text.

    CSVs contribute their preamble, header and first column only: their
    full-precision numbers may differ in the last bits across BLAS builds.
    """
    lines = []
    for argv in _GOLDEN_COMMANDS:
        before = set(Path(".").rglob("*.*"))
        status = run(*argv)
        captured = capsys.readouterr()
        lines += [f"$ perfeat {' '.join(argv)}", f"exit {status}",
                  f"stdout: {captured.out}", f"stderr: {captured.err}"]
        for path in sorted(set(Path(".").rglob("*.*")) - before):
            text = path.read_text(encoding="utf-8")
            lines.append(f"--- {path}")
            if path.suffix == ".csv":
                rows = text.splitlines()
                preamble = [row for row in rows if row.startswith("#")]
                body = list(csv.reader(rows[len(preamble):]))
                text = "\n".join(
                    [*preamble, ",".join(body[0]), *(row[0] for row in body[1:])]
                ) + "\n"
            lines.append(text)
    return "\n".join(lines)


def test_golden_transcript(midi_corpus, wav_corpus, tmp_path, monkeypatch, capsys):
    (tmp_path / "tempos.csv").write_text(
        "song_id,beats_per_second\nsong_b,2.5\n", encoding="utf-8"
    )
    (tmp_path / "ratings").mkdir()
    for feature, text in _GOLDEN_RATINGS.items():
        (tmp_path / "ratings" / f"{feature}.csv").write_text(text, encoding="utf-8")
    (tmp_path / "features.csv").write_text(_GOLDEN_TABLE, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    expected = Path(__file__).with_name("golden_cli.txt").read_text(encoding="utf-8")
    assert _golden_transcript(capsys) == expected
