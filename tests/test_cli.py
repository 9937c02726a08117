"""End-to-end command tests on small generated corpora."""

import ast
import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import note_on, note_off, pcm16, set_tempo, smf, track, wav
import perfeat
from perfeat import cli, stats
from perfeat.io import load_table
from perfeat.midi_features import extract_midi_features
from perfeat.regress import Design, ols_fit
from perfeat.smf import annotate_tracks, parse_smf
from perfeat.stats import pearson
from test_smf import _damage, _valid_files


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


def add_deviant_rater(path):
    """Append a rater ``r5`` who scores against the panel's mean."""
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0] += ",r5"
    for i in range(1, len(lines)):
        panel_mean = np.mean([float(c) for c in lines[i].split(",")[1:]])
        lines[i] += f",{10.0 - panel_mean:.2f}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


NOT_UTF8 = b"\xff"


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

    def test_tempos_not_utf8_names_the_file(self, midi_corpus, tmp_path, capsys):
        corpus, _, _ = midi_corpus
        tempos = tmp_path / "tempos.csv"
        tempos.write_bytes(b"song_id,beats_per_second\nsong_a," + NOT_UTF8 + b"\n")
        assert run("extract-midi", "--midi-dir", corpus, "--tempos", tempos,
                   "--out-dir", tmp_path / "out") == 1
        assert f"{tempos}: not UTF-8 text" in capsys.readouterr().err

    def test_missing_dir_flag_is_usage_error(self, capsys):
        assert run("extract-midi") == 2
        assert "--midi-dir" in capsys.readouterr().err

    def test_nonexistent_dir_is_data_error(self, tmp_path, capsys):
        assert run("extract-midi", "--midi-dir", tmp_path / "nope") == 1

    @pytest.mark.parametrize("window", ["-1", "nan", "inf"])
    def test_bad_merge_window_names_no_file(self, midi_corpus, tmp_path, window, capsys):
        # The window is an argument, so its error blames none of the songs.
        corpus, _, _ = midi_corpus
        out = tmp_path / "out"
        assert run("extract-midi", "--midi-dir", corpus, "--out-dir", out,
                   "--merge-window", window) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: merge_window must be finite and at least 0")
        assert not any(path.stem in err for path in corpus.iterdir())
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

    @pytest.mark.parametrize("option, text, song", [
        ("--annotations", "song_id,track_id,category\nsong_a,0,melody\nsong_99,0,bass\n",
         "song_99"),
        ("--tempos", "song_id,beats_per_second\nsong_0,2.4\n", "song_0"),
    ], ids=["annotations", "tempos"])
    def test_sidecar_song_without_a_file_is_named(self, midi_corpus, tmp_path, monkeypatch,
                                                  capsys, option, text, song):
        corpus, _, _ = midi_corpus
        sidecar = tmp_path / "sidecar.csv"
        sidecar.write_text(text, encoding="utf-8")

        def unread(*args, **kwargs):
            raise AssertionError("a MIDI file was read")

        monkeypatch.setattr(cli, "parse_smf", unread)
        out = tmp_path / "out"
        assert run("extract-midi", "--midi-dir", corpus, option, sidecar,
                   "--out-dir", out) == 1
        assert capsys.readouterr().err == (
            f"error: {sidecar}: song {song!r} has no file in {corpus}\n")
        assert not out.exists()

    def test_two_files_with_one_stem_are_usage_error(self, midi_corpus, tmp_path, capsys):
        # Both would be rows named 'song_a', and a sidecar row would apply to both.
        corpus, annotations, raw = midi_corpus
        (corpus / "song_a.midi").write_bytes(raw["song_b"])
        out = tmp_path / "out"
        assert run("extract-midi", "--midi-dir", corpus, "--annotations", annotations,
                   "--out-dir", out) == 2
        assert capsys.readouterr().err == (
            f"usage error: {corpus / 'song_a.mid'} and {corpus / 'song_a.midi'}"
            " share the song id 'song_a'\n")
        assert not out.exists()

    def test_suffixes_match_in_any_case(self, midi_corpus, tmp_path):
        # On a case-sensitive file system a glob for *.mid skipped these two.
        corpus, _, raw = midi_corpus
        (corpus / "B.MID").write_bytes(raw["song_b"])
        (corpus / "c.Midi").write_bytes(raw["song_a"])
        (corpus / "notes.txt").write_bytes(raw["song_a"])
        out = tmp_path / "out"
        assert run("extract-midi", "--midi-dir", corpus, "--out-dir", out) == 0
        item_ids, _, values = load_table(out / "midi_features.csv")
        assert item_ids == ("B", "c", "song_a", "song_b")  # sorted by file name
        np.testing.assert_array_equal(values[0], values[3])
        np.testing.assert_array_equal(values[1], values[2])

    def test_stems_that_differ_only_in_suffix_case_clash(self, midi_corpus, tmp_path,
                                                           capsys):
        corpus, _, raw = midi_corpus
        (corpus / "song_a.MID").write_bytes(raw["song_b"])
        out = tmp_path / "out"
        assert run("extract-midi", "--midi-dir", corpus, "--out-dir", out) == 2
        assert capsys.readouterr().err == (
            f"usage error: {corpus / 'song_a.MID'} and {corpus / 'song_a.mid'}"
            " share the song id 'song_a'\n")
        assert not out.exists()

    def test_stems_compare_exactly(self, midi_corpus, tmp_path):
        # Ids compare as sidecar ids do, so SONG_A is a song of its own.
        corpus, _, raw = midi_corpus
        (corpus / "SONG_A.MID").write_bytes(raw["song_b"])
        out = tmp_path / "out"
        assert run("extract-midi", "--midi-dir", corpus, "--out-dir", out) == 0
        item_ids, _, _ = load_table(out / "midi_features.csv")
        assert item_ids == ("SONG_A", "song_a", "song_b")


@pytest.fixture
def four_songs(midi_corpus):
    """song_a .. song_d: positions 0 and 2 go to the caller, 1 and 3 to the helper."""
    corpus, _, raw = midi_corpus
    (corpus / "song_c.mid").write_bytes(raw["song_a"])
    (corpus / "song_d.mid").write_bytes(raw["song_b"])
    return corpus


@pytest.fixture
def four_clips(tmp_path):
    """clip_a .. clip_d: positions 0 and 2 go to the caller, 1 and 3 to the helper."""
    corpus = tmp_path / "clips"
    corpus.mkdir()
    for index, stem in enumerate(("clip_a", "clip_b", "clip_c", "clip_d")):
        (corpus / f"{stem}.wav").write_bytes(wav(pcm16(_wav_clip(index)), 8000))
    return corpus


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestExtractMidiHelperProcess:
    """The forked helper of extract-midi and extract-audio: the serial loop's rows
    and errors, and no trace left."""

    def test_odd_positions_run_in_one_helper_process(self, tmp_path):
        paths = [tmp_path / f"f{i}" for i in range(5)]
        outcomes = dict(cli._per_file(paths, lambda path: os.getpid(), helper=True))
        assert list(outcomes) == paths
        assert {outcomes[path] for path in paths[::2]} == {os.getpid()}
        assert len({outcomes[path] for path in paths[1::2]} - {os.getpid()}) == 1
        _no_child_left()

    def test_results_past_the_pipe_buffer(self, tmp_path):
        # The helper's 500 kB result fills the pipe long before the caller reads it.
        paths = [tmp_path / f"f{i}" for i in range(3)]
        results = list(cli._per_file(paths, lambda path: path.name * 250_000, helper=True))
        assert results == [(path, path.name * 250_000) for path in paths]
        _no_child_left()

    def test_an_interrupted_caller_stops_the_helper(self, tmp_path):
        caller = os.getpid()

        def work(path):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60)

        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            list(cli._per_file([tmp_path / "f0", tmp_path / "f1"], work, helper=True))
        assert time.monotonic() - started < 30
        _no_child_left()

    def test_another_thread_running_takes_the_serial_loop(self, tmp_path):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            pids = dict(cli._per_file([tmp_path / "f0", tmp_path / "f1"],
                                      lambda path: os.getpid(), helper=True))
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert set(pids.values()) == {os.getpid()}

    def test_summary_and_error_are_printed_once(self, four_songs, tmp_path, capfd):
        assert run("extract-midi", "--midi-dir", four_songs, "--out-dir", tmp_path / "a") == 0
        out, err = capfd.readouterr()
        assert out.count("extract-midi: 4 songs") == 1 and err == ""
        _no_child_left()
        (four_songs / "song_d.mid").write_bytes(b"MThd\x00\x00\x00\x06garbage")
        assert run("extract-midi", "--midi-dir", four_songs, "--out-dir", tmp_path / "b") == 1
        out, err = capfd.readouterr()
        assert out == "" and err.count("error:") == 1 and "song_d.mid" in err
        _no_child_left()

    @pytest.mark.parametrize("command, option, corpus, damaged, first", [
        ("extract-midi", "--midi-dir", "four_songs", ("song_b", "song_c"), "song_b.mid"),
        ("extract-midi", "--midi-dir", "four_songs", ("song_a", "song_d"), "song_a.mid"),
        ("extract-audio", "--wav-dir", "four_clips", ("clip_b", "clip_c"), "clip_b.wav"),
        ("extract-audio", "--wav-dir", "four_clips", ("clip_a", "clip_d"), "clip_a.wav"),
    ], ids=["helper-first", "caller-first", "audio-helper-first", "audio-caller-first"])
    def test_first_damaged_file_in_sorted_order_is_named(self, request, tmp_path, capsys,
                                                         command, option, corpus, damaged,
                                                         first):
        corpus = request.getfixturevalue(corpus)
        suffix = first[-4:]
        for stem in damaged:
            (corpus / f"{stem}{suffix}").write_bytes(b"MThd\x00\x00\x00\x06garbage")
        out = tmp_path / "out"
        assert run(command, option, corpus, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {first}: ") and err.count(suffix) == 1
        assert not out.exists()
        _no_child_left()

    def test_a_helper_that_dies_is_named_and_gives_no_table(self, four_songs, tmp_path,
                                                            monkeypatch, capsys):
        parse, caller = cli.parse_smf, os.getpid()

        def killed_on_song_b(data, song_id):
            if song_id == "song_b" and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return parse(data, song_id=song_id)

        monkeypatch.setattr(cli, "parse_smf", killed_on_song_b)
        out = tmp_path / "out"
        assert run("extract-midi", "--midi-dir", four_songs, "--out-dir", out) == 1
        assert capsys.readouterr().err == (
            "error: the helper process describing every second file from song_b.mid on"
            f" ended (signal {int(signal.SIGKILL)}) before reporting\n")
        assert not out.exists()
        _no_child_left()


class TestExtractAudio:
    def test_suffixes_match_in_any_case(self, wav_corpus, tmp_path):
        (wav_corpus / "clip_low.wav").rename(wav_corpus / "Clip_Low.WAV")
        (wav_corpus / "clip_mid.Wav").write_bytes((wav_corpus / "clip_high.wav").read_bytes())
        out = tmp_path / "out"
        assert run("extract-audio", "--wav-dir", wav_corpus, "--out-dir", out) == 0
        item_ids, _, values = load_table(out / "audio_features.csv")
        assert item_ids == ("Clip_Low", "clip_high", "clip_mid")
        np.testing.assert_array_equal(values[1], values[2])

    def test_stems_that_differ_only_in_suffix_case_clash(self, wav_corpus, tmp_path,
                                                           capsys):
        (wav_corpus / "clip_low.WAV").write_bytes((wav_corpus / "clip_low.wav").read_bytes())
        assert run("extract-audio", "--wav-dir", wav_corpus, "--out-dir", tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            f"usage error: {wav_corpus / 'clip_low.WAV'} and {wav_corpus / 'clip_low.wav'}"
            " share the song id 'clip_low'\n")

    def test_matches_library(self, wav_corpus, tmp_path):
        from perfeat.audio_features import extract_audio_features, read_wav

        out = tmp_path / "out"
        assert run("extract-audio", "--wav-dir", wav_corpus, "--out-dir", out) == 0
        item_ids, names, values = load_table(out / "audio_features.csv")
        assert item_ids == ("clip_high", "clip_low")  # sorted by file name
        for song_id, row in zip(item_ids, values):
            clip = read_wav((wav_corpus / f"{song_id}.wav").read_bytes())
            expected = list(extract_audio_features(clip).values())
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

    @pytest.mark.parametrize("option, values, column", [
        ("--rolloff-fractions", "0.85,0.8500000001", "rolloff85"),
        ("--brightness-cutoffs", "1000,1000.0000001", "bright1000"),
    ])
    def test_colliding_column_names_fail(self, wav_corpus, tmp_path, capsys,
                                         option, values, column):
        out = tmp_path / "out"
        assert run("extract-audio", "--wav-dir", wav_corpus, "--out-dir", out,
                   option, values) == 1
        assert f"both name column '{column}'" in capsys.readouterr().err
        assert not (out / "audio_features.csv").exists()

    BAD_SETTINGS = [
        ("--frame-length", "0", "frame_length must be at least 2 samples, got 0"),
        ("--frame-length", "-8", "frame_length must be at least 2 samples, got -8"),
        ("--frame-length", "1", "frame_length must be at least 2 samples, got 1"),
        ("--hop-length", "0", "hop must be positive"),
        ("--brightness-cutoffs", "nan", "brightness cutoff nan is not finite"),
        ("--brightness-cutoffs", "inf", "brightness cutoff inf is not finite"),
        ("--rolloff-fractions", "0.85,1.5", "rolloff fraction 1.5 is not strictly between"),
        ("--rolloff-fractions", "0.85,0.850", "rolloff fractions 0.85 and 0.85 both name"),
    ]

    @pytest.mark.parametrize("flag, value, message", BAD_SETTINGS,
                             ids=[f"{flag}={value}" for flag, value, _ in BAD_SETTINGS])
    def test_bad_argument_names_no_file(self, wav_corpus, tmp_path, flag, value, message,
                                        capsys):
        # A setting is an argument, so its error blames none of the clips.
        out = tmp_path / "out"
        assert run("extract-audio", "--wav-dir", wav_corpus, "--out-dir", out,
                   flag, value) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert not any(path.stem in err for path in wav_corpus.iterdir())
        assert not (out / "audio_features.csv").exists()

    def test_clip_shorter_than_a_frame_names_the_clip(self, wav_corpus, tmp_path, capsys):
        # Each clip holds 8,000 samples: too few for one frame is the clip's fault.
        assert run("extract-audio", "--wav-dir", wav_corpus, "--out-dir", tmp_path / "out",
                   "--frame-length", "8192") == 1
        assert capsys.readouterr().err == "error: clip_high.wav: 8000 samples, need 8192\n"


class TestAgreement:
    def test_directory_suffixes_match_in_any_case(self, ratings_dir, tmp_path):
        (ratings_dir / "speed.csv").rename(ratings_dir / "Speed.CSV")
        (ratings_dir / "notes.txt").write_text("not ratings\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("agreement", "--ratings", ratings_dir, "--out-dir", out) == 0
        assert [r["feature"] for r in read_records(out / "agreement.csv")] == \
            ["Speed", "energy"]

    def test_directory_stems_that_differ_only_in_suffix_case_clash(self, ratings_dir,
                                                                     tmp_path, capsys):
        (ratings_dir / "speed.CSV").write_bytes((ratings_dir / "speed.csv").read_bytes())
        assert run("agreement", "--ratings", ratings_dir, "--out-dir", tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            f"usage error: {ratings_dir / 'speed.CSV'} and {ratings_dir / 'speed.csv'}"
            " share the feature name 'speed'\n")

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

    @pytest.mark.parametrize("second", ["copy/speed.csv", "speed.csv"])
    def test_duplicate_feature_names_are_usage_error(self, ratings_dir, tmp_path,
                                                     capsys, second):
        (ratings_dir / "copy").mkdir()
        (ratings_dir / "copy" / "speed.csv").write_bytes(
            (ratings_dir / "speed.csv").read_bytes()
        )
        out = tmp_path / "out"
        assert run("agreement", "--ratings", ratings_dir / "speed.csv",
                   ratings_dir / second, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert str(ratings_dir / "speed.csv") in err and str(ratings_dir / second) in err
        assert not out.exists()

    def test_flagged_rater_reported(self, ratings_dir, tmp_path, capsys):
        path = ratings_dir / "speed.csv"
        add_deviant_rater(path)
        out = tmp_path / "out"
        assert run("agreement", "--ratings", path, "--out-dir", out) == 0
        record = read_records(out / "agreement.csv")[0]
        assert record["n_flagged"] == "1"
        assert record["flagged_raters"] == "r5"
        assert float(record["mean_r_trimmed"]) > float(record["mean_r"])

    def test_each_panel_computed_once(self, ratings_dir, tmp_path, monkeypatch):
        add_deviant_rater(ratings_dir / "speed.csv")
        kernel = stats._pairwise_r
        raters_per_call = []

        def counted(values):
            raters_per_call.append(values.shape[1])
            return kernel(values)

        monkeypatch.setattr(stats, "_pairwise_r", counted)
        out = tmp_path / "out"
        assert run("agreement", "--ratings", ratings_dir, "--out-dir", out) == 0
        flagged = {r["feature"]: r["n_flagged"] for r in read_records(out / "agreement.csv")}
        assert flagged == {"energy": "0", "speed": "1"}
        # energy's panel; speed's panel, then its trimmed re-run without r5.
        assert raters_per_call == [4, 5, 4]

    def test_damaged_file_is_named_alone(self, ratings_dir, tmp_path, capsys):
        good, bad = ratings_dir / "energy.csv", ratings_dir / "speed.csv"
        bad.write_bytes(bad.read_bytes().replace(b"item03,", b"item03" + NOT_UTF8 + b","))
        out = tmp_path / "out"
        assert run("agreement", "--ratings", good, bad, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert f"{bad}: not UTF-8 text" in err and good.name not in err
        assert not out.exists()

    @pytest.mark.parametrize("content, message", [
        (b"item,r1,r2\ns1,3," + NOT_UTF8 + b"\n", ": not UTF-8 text"),
        (b"item,r1,r2\ns1,3,4\ns2,12,5\n", ":3: rating 12.0 for item 's2'"),
    ], ids=["not-utf8", "out-of-scale"])
    def test_reader_error_names_the_file_once(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        assert run("agreement", "--ratings", path, "--out-dir", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}{message}")
        assert err.count(path.name) == 1

    def test_constant_row_sums_leave_alpha_empty(self, tmp_path):
        # Every row sums to 10: alpha is undefined, the pairwise r is -1.
        path = tmp_path / "const.csv"
        path.write_text("item,r1,r2\ns1,1,9\ns2,2,8\ns3,3,7\ns4,4,6\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("agreement", "--ratings", path, "--out-dir", out) == 0
        record = read_records(out / "agreement.csv")[0]
        assert record["n_complete_items"] == "4" and record["mean_r"] == "-1.0"
        assert record["alpha"] == ""
        text = (out / "agreement.txt").read_text(encoding="utf-8")
        assert ("const: alpha undefined: row sums are constant across the 4 complete items."
                in text)
        assert "need 3" not in text

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

    def test_repeated_rater_id_is_named(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_text("item,r1,r2,r1\ns1,3,4,3\ns2,5,5,6\ns3,7,6,7\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("agreement", "--ratings", path, "--out-dir", out) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: column 'r1' appears twice in the header\n")
        assert not out.exists()

    def test_out_of_scale_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("item,r1,r2\ns1,3,11\n", encoding="utf-8")
        assert run("agreement", "--ratings", path, "--out-dir", tmp_path) == 1
        assert "bad.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", [("nan", "nan"), ("9", "1")])
    def test_scale_that_is_not_an_interval_fails(self, tmp_path, capsys, bounds):
        path = tmp_path / "panel.csv"
        path.write_text("item,r1,r2\ns1,3,60\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("agreement", "--ratings", path, "--scale-min", bounds[0],
                   "--scale-max", bounds[1], "--out-dir", out) == 1
        assert "is not an interval" in capsys.readouterr().err
        assert not (out / "agreement.csv").exists()

    def test_scale_error_names_no_file(self, tmp_path, capsys):
        # The scale is an argument, so its error blames none of the panels.
        paths = [tmp_path / "speed.csv", tmp_path / "weight.csv"]
        for path in paths:
            path.write_text("item,r1,r2\ns1,3,4\ns2,5,6\n", encoding="utf-8")
        assert run("agreement", "--ratings", *paths, "--scale-min", "9", "--scale-max", "1",
                   "--out-dir", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == "error: scale [9.0, 1.0] is not an interval: need minimum <= maximum," \
                      " neither NaN\n"
        assert not any(path.stem in err for path in paths)

    def test_no_scale_check_accepts(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(
            "item,r1,r2\ns1,3,11\ns2,4,12\ns3,6,13\n", encoding="utf-8"
        )
        assert run("agreement", "--ratings", path, "--no-scale-check",
                   "--out-dir", tmp_path / "out") == 0


def _check_damaged_run(argv, paths, bad, expected):
    """argv exits 1 naming paths[bad] and no other file, raising expected's class."""
    sink = io.StringIO()
    with contextlib.redirect_stderr(sink):
        assert cli.main(argv) == 1
    text = sink.getvalue()
    assert paths[bad].name in text
    assert not any(path.name in text for path in paths if path != paths[bad])
    args = cli._build_parser()[0].parse_args(argv)
    with pytest.raises(ValueError) as raised:
        args.run(args)
    # The class the library raised for the file, through _per_file and, for
    # the odd positions of the extract commands, through the helper's pipe.
    assert type(raised.value) is type(expected)
    assert str(raised.value) in (str(expected), f"{paths[bad].name}: {expected}")
    assert text == f"error: {raised.value}\n"
    _no_child_left()


def _library_error(work, path):
    try:
        work(path)
    except ValueError as err:
        return err
    return None


def _wav_clip(index):
    t = np.arange(4096) / 8000
    return 0.5 * np.sin(2 * np.pi * (200.0 + 150.0 * index) * t)


def _ratings_text(index, cells=None):
    rng = np.random.default_rng(index)
    truth = rng.uniform(2, 8, size=8)
    rows = np.clip(truth[:, None] + rng.normal(0, 0.5, size=(8, 3)), 1, 9).round(1)
    text = [[f"{value:g}" for value in row] for row in rows]
    for (i, j), cell in (cells or {}).items():
        text[i][j] = cell
    return "item,r1,r2,r3\n" + "".join(
        f"item{i},{','.join(row)}\n" for i, row in enumerate(text))


class TestOneDamagedFile:
    """One damaged file among 2-5 valid ones, at any position, so on either side
    of the extract commands' split: exit 1, that file named alone, its error class kept."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_extract_midi(self, data):
        valid = _valid_files()
        files = data.draw(st.lists(st.sampled_from(valid), min_size=2, max_size=5))
        bad = data.draw(st.integers(0, len(files) - 1))
        files[bad] = _damage(data.draw, files[bad], valid)
        with tempfile.TemporaryDirectory() as directory:
            corpus = Path(directory)
            paths = [corpus / f"s{i}.mid" for i in range(len(files))]
            for path, body in zip(paths, files):
                path.write_bytes(body)
            expected = _library_error(lambda path: extract_midi_features(annotate_tracks(
                parse_smf(path.read_bytes(), song_id=path.stem), {})), paths[bad])
            assume(expected is not None)
            _check_damaged_run(["extract-midi", "--midi-dir", str(corpus),
                                "--out-dir", str(corpus / "out")], paths, bad, expected)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_extract_audio(self, data):
        from perfeat.audio_features import extract_audio_features, read_wav

        count = data.draw(st.integers(2, 5))
        bad = data.draw(st.integers(0, count - 1))
        files = [wav(pcm16(_wav_clip(i)), 8000) for i in range(count)]
        if data.draw(st.booleans()):
            files[bad] = files[bad][: data.draw(st.integers(0, len(files[bad]) - 1))]
        else:
            samples = _wav_clip(bad)
            samples[data.draw(st.integers(0, len(samples) - 1))] = np.nan
            files[bad] = wav(samples, 8000, fmt=3, bits=32)
        with tempfile.TemporaryDirectory() as directory:
            corpus = Path(directory)
            paths = [corpus / f"c{i}.wav" for i in range(count)]
            for path, body in zip(paths, files):
                path.write_bytes(body)
            expected = _library_error(
                lambda path: extract_audio_features(read_wav(path.read_bytes())), paths[bad])
            assert expected is not None
            _check_damaged_run(["extract-audio", "--wav-dir", str(corpus),
                                "--out-dir", str(corpus / "out")], paths, bad, expected)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(count=st.integers(2, 5), data=st.data())
    def test_agreement(self, count, data):
        from perfeat.io import load_ratings

        bad = data.draw(st.integers(0, count - 1))
        cell = (data.draw(st.integers(0, 7)), data.draw(st.integers(0, 2)))
        value = data.draw(st.sampled_from(["0", "9.5", "12", "-3", "x", "nan", "4..5"]))
        with tempfile.TemporaryDirectory() as directory:
            folder = Path(directory)
            paths = [folder / f"f{i}.csv" for i in range(count)]
            for i, path in enumerate(paths):
                path.write_text(_ratings_text(i, {cell: value} if i == bad else None),
                                encoding="utf-8")
            expected = _library_error(load_ratings, paths[bad])
            assert expected is not None
            _check_damaged_run(["agreement", "--ratings", *map(str, paths),
                                "--out-dir", str(folder / "out")], paths, bad, expected)


_CORPORA = {  # command: (input option, file suffix, the bytes of valid file i)
    "extract-midi": ("--midi-dir", ".mid", lambda i: _valid_files()[i]),
    "extract-audio": ("--wav-dir", ".wav", lambda i: wav(pcm16(_wav_clip(i)), 8000)),
    "agreement": ("--ratings", ".csv", lambda i: _ratings_text(i).encode("utf-8")),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(count=st.integers(2, 3), data=st.data())
def test_any_bad_argument_names_no_file(count, data):
    """A bad scale, merge window, rolloff fraction or brightness cutoff beside
    2-3 valid files: exit 1, and stderr names none of the files.  Argument
    checks run before the per-file walk, so no file can take the blame."""
    kind = data.draw(st.sampled_from(["scale", "merge window", "rolloff", "brightness"]))
    if kind == "scale":
        low, high = data.draw(st.tuples(st.floats(), st.floats()).filter(
            lambda bounds: not bounds[0] <= bounds[1]))
        command, arguments = "agreement", [f"--scale-min={low!r}", f"--scale-max={high!r}"]
    elif kind == "merge window":
        window = data.draw(st.floats().filter(lambda w: not (math.isfinite(w) and w >= 0)))
        command, arguments = "extract-midi", [f"--merge-window={window!r}"]
    else:
        flag, valid, bad = (
            ("--rolloff-fractions", [0.5, 0.85, 0.95],
             st.floats().filter(lambda f: not 0.0 < f < 1.0))
            if kind == "rolloff" else
            ("--brightness-cutoffs", [1000.0, 1500.0, 3000.0],
             st.sampled_from([math.nan, math.inf, -math.inf])))
        values = data.draw(st.lists(st.sampled_from(valid), max_size=2, unique=True))
        values.insert(data.draw(st.integers(0, len(values))), data.draw(bad))
        command, arguments = "extract-audio", [f"{flag}={','.join(map(repr, values))}"]
    option, suffix, body = _CORPORA[command]
    with tempfile.TemporaryDirectory() as directory:
        corpus = Path(directory)
        paths = [corpus / f"take_{i}{suffix}" for i in range(count)]
        for i, path in enumerate(paths):
            path.write_bytes(body(i))
        inputs = paths if command == "agreement" else [corpus]
        sink = io.StringIO()
        with contextlib.redirect_stderr(sink):
            assert cli.main([command, option, *map(str, inputs), *arguments,
                             "--out-dir", str(corpus / "out")]) == 1
        text = sink.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1
        assert "take_" not in text and directory not in text
        assert not (corpus / "out").exists()
    _no_child_left()


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

    def test_table_not_utf8_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_bytes(b"id,a,b\nr1,1,2\nr2," + NOT_UTF8 + b",3\n")
        assert run("xcorr", "--table", path, "--out-dir", tmp_path / "out") == 1
        assert f"{path}: not UTF-8 text (byte 0xff" in capsys.readouterr().err

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

    def test_distinct_targets_get_distinct_files(self, tmp_path):
        targets = ["a b", "a_b", "Speed", "speed"]
        values = np.random.default_rng(22).normal(size=(12, len(targets) + 1))
        path = tmp_path / "table.csv"
        lines = ["song_id," + ",".join(targets) + ",x1"]
        lines += [f"s{i:02d}," + ",".join(map(repr, row.tolist()))
                  for i, row in enumerate(values)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        for command, extra in (("fit", ()), ("cv", ("--folds", "3", "--repeats", "2"))):
            for target in targets:
                assert run(
                    command, "--table", path, "--target", target,
                    "--predictors", "x1", "--out-dir", out, *extra,
                ) == 0
            written = sorted(p.name for p in out.glob(f"{command}_*.csv"))
            assert len(written) == len(targets)
            # A name that is already a safe file name keeps it.
            assert f"{command}_speed_ols.csv" in written
            assert f"{command}_a_b_ols.csv" in written
        # Each file holds its own target's fit: a_b is column 1.
        records = read_records(out / "fit_a_b_ols.csv")
        r2 = {r["name"]: r["value"] for r in records if r["record"] == "stat"}["r2"]
        fit = ols_fit(Design(X=values[:, 4:], y=values[:, 1], names=("x1",)))
        assert float(r2) == pytest.approx(fit.r2, rel=1e-12)

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


@pytest.mark.parametrize("argv", [
    ("fit", "--target", "y"),
    ("fit", "--target", "y", "--predictors", "a"),
    ("xcorr",),
], ids=["fit", "fit-predictors", "xcorr"])
def test_repeated_column_name_is_named(tmp_path, capsys, argv):
    # Read by name, the first 'a' would stand for both columns: a false
    # rank deficiency, a silently unread column, or two 'a,y' rows.
    path = tmp_path / "t.csv"
    rng = np.random.default_rng(22)
    rows = [f"s{i},{y!r},{a!r},{b!r}"
            for i, (y, a, b) in enumerate(rng.normal(size=(8, 3)).tolist())]
    path.write_text("\n".join(["id,y,a,a", *rows]) + "\n", encoding="utf-8")
    assert run(argv[0], "--table", path, *argv[1:], "--out-dir", tmp_path / "out") == 1
    assert capsys.readouterr().err == f"error: {path}: column 'a' appears twice in the header\n"
    assert not (tmp_path / "out").exists()


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

    def test_too_many_components_names_no_fold(self, feature_table, tmp_path, capsys):
        path, _, _ = feature_table
        out = tmp_path / "out"
        assert run("cv", "--table", path, "--target", "y", "--method", "pls",
                   "--components", "22", "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert "22 factors requested" in err
        assert "repeat" not in err and "fold" not in err
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

    def test_config_not_utf8_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_bytes(b'{"table": "' + NOT_UTF8 + b'"}')
        assert run("cv", "--config", config, "--target", "y") == 1
        assert f"{config}: not UTF-8 text" in capsys.readouterr().err

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
        ("folds", [4]), ("folds", 4.7), ("trim", "false"), ("method", "PLS"),
        ("window", "hamming"), ("ratings", []),
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

    def test_seed_is_a_cv_option_and_a_config_key_of_every_command(self, midi_corpus,
                                                                    tmp_path):
        corpus, _, _ = midi_corpus
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run("extract-midi", "--midi-dir", corpus, "--seed", "1", "--out-dir", out)
        assert err.value.code == 2
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"midi_dir": str(corpus), "seed": 1,
                                      "out_dir": str(out)}), encoding="utf-8")
        assert run("extract-midi", "--config", config) == 0
        assert (out / "midi_features.csv").is_file()

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["transmogrify"])
        assert err.value.code == 2


def test_readme_synopses_name_exactly_each_commands_options():
    """README's "Command line" block documents every option and no other."""
    readme = Path(__file__).parents[1].joinpath("README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    documented = {}
    for line in block.replace("\\\n", " ").splitlines():
        words = line.split()
        if words[:1] == ["perfeat"]:
            documented[words[1]] = set(re.findall(r"--[a-z][a-z-]*", line))
    _, commands = cli._build_parser()
    assert set(documented) == set(commands)
    common = {"--help", "--config", "--out-dir"}
    for name, parser in commands.items():
        options = {o for o in parser._option_string_actions if o.startswith("--")}
        assert documented[name] - common == options - common, name


def test_readme_library_imports_only_exported_names():
    """README's "Library" block imports from perfeat only names in __all__,
    and every name in __all__ resolves on the package."""
    readme = Path(__file__).parents[1].joinpath("README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    imported = {alias.name for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "perfeat"
                for alias in node.names}
    assert imported and imported <= set(perfeat.__all__), imported - set(perfeat.__all__)
    assert [name for name in perfeat.__all__ if not hasattr(perfeat, name)] == []


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
    ["xcorr", "--table", "features.csv", "--out-dir", "features.csv"],
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
