"""Symbolic feature computations on hand-built note lists."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    cluster_onsets,
    mean_articulation,
    mean_pitch,
    mean_sound_level,
    note,
    note_density,
    notes as note_array,
)
from perfeat.midi_features import (
    IOI_LIMIT,
    MERGE_WINDOW,
    FIELDS,
    EmptyCategory,
    NonPositiveDuration,
    TableCalibration,
    default_calibration,
    extract_midi_features,
    filter_soft_notes,
    sound_levels,
)
from perfeat.smf import Song, TrackCategory


def song_of(notes, duration, annotations=None):
    notes = note_array(notes)
    return Song(
        id="test",
        notes=notes,
        duration=duration,
        n_tracks=1 + int(notes["track_id"].max(initial=0)),
        annotations=dict(annotations or {}),
    )


class TestCalibration:
    def test_full_scale_is_zero_db(self):
        assert default_calibration(127, 127) == pytest.approx(0.0, abs=1e-12)

    def test_half_velocity(self):
        assert default_calibration(64, 127) == pytest.approx(-5.95, abs=0.01)

    def test_half_velocity_half_volume(self):
        assert default_calibration(64, 64) == pytest.approx(-11.90, abs=0.01)

    def test_zero_volume_clamped_finite(self):
        level = default_calibration(100, 0)
        assert math.isfinite(level)
        assert level == default_calibration(100, 1)

    def test_monotone_in_both_controls(self):
        for v in range(2, 127):
            assert default_calibration(v + 1, 80) > default_calibration(v, 80)
            assert default_calibration(80, v + 1) > default_calibration(80, v)

    def test_table_exact_at_grid_points(self):
        table = TableCalibration(
            [(1, 1, -80.0), (1, 127, -40.0), (127, 1, -40.0), (127, 127, 0.0)]
        )
        assert table(1, 1) == pytest.approx(-80.0, abs=1e-12)
        assert table(127, 127) == pytest.approx(0.0, abs=1e-12)

    def test_table_bilinear_midpoint(self):
        table = TableCalibration(
            [(1, 1, -80.0), (1, 127, -40.0), (127, 1, -40.0), (127, 127, 0.0)]
        )
        assert table(64, 64) == pytest.approx(-40.0, abs=0.5)
        # Halfway along one axis is the average of the two edges.
        assert table(1, 64) == pytest.approx(
            (-80.0 + -40.0) / 2, abs=(40.0 / 126) / 2 + 1e-9
        )

    def test_table_clamps_outside_grid(self):
        table = TableCalibration(
            [(10, 10, -30.0), (10, 100, -20.0), (100, 10, -20.0), (100, 100, 0.0)]
        )
        assert table(0, 0) == pytest.approx(-30.0, abs=1e-12)
        assert table(127, 127) == pytest.approx(0.0, abs=1e-12)

    def test_table_with_descending_axes_reads_its_own_cells(self):
        # Triples in any order, descending ones included, read the same cells.
        triples = [(127, 127, 0.0), (127, 1, -30.0), (1, 127, -40.0), (1, 1, -70.0)]
        table = TableCalibration(triples)
        assert table.velocities == [1, 127] and table.volumes == [1, 127]
        assert table(127, 127) == 0.0
        assert table(127, 1) == -30.0
        assert table(1, 1) == -70.0
        for order in itertools.permutations(triples):
            assert TableCalibration(order).level_db == table.level_db

    def test_table_interior_against_scipy(self):
        # A 3 x 4 grid has interior brackets on both axes.  Between grid
        # points the table is linear interpolation on the grid clamped to
        # its edges; at grid points and outside the grid it reads the
        # cells exactly.
        interpolate = pytest.importorskip("scipy.interpolate")
        velocities, volumes = [10, 64, 127], [1, 40, 90, 127]
        rng = np.random.default_rng(5)
        levels = rng.uniform(-60.0, 0.0, size=(3, 4))
        table = TableCalibration([(v, w, levels[i, j]) for i, v in enumerate(velocities)
                                  for j, w in enumerate(volumes)])
        oracle = interpolate.RegularGridInterpolator((velocities, volumes), levels)
        for velocity, volume in rng.uniform(10, 127, size=(200, 2)).tolist():
            assert table(velocity, volume) == pytest.approx(
                oracle([velocity, volume])[0], abs=1e-12)
        for i, velocity in enumerate(velocities):
            for j, volume in enumerate(volumes):
                assert table(velocity, volume) == levels[i, j]
        clamped = {(0, 0): (0, 0), (200, 0): (2, 0), (0, 300): (0, 3), (127, 300): (2, 3),
                   (64, -5): (1, 0), (-5, 90): (0, 2)}
        for (velocity, volume), (i, j) in clamped.items():
            assert table(velocity, volume) == levels[i, j]

    def test_table_rejects_incomplete_grid(self):
        with pytest.raises(ValueError):
            TableCalibration(
                [(1, 1, -80.0), (1, 127, -40.0), (127, 1, -40.0)]
            )

    def test_note_sound_level_uses_curve(self):
        levels = sound_levels(note_array([note(0.0, 1.0, velocity=64, volume_cc=127)]))
        assert levels.tolist() == [pytest.approx(-5.95, abs=0.01)]


class CountingCalibration(TableCalibration):
    """A calibration table that counts its lookups per (velocity, volume) pair."""

    def __init__(self):
        super().__init__([(1, 0, -80.0), (1, 127, -40.0), (127, 0, -40.0), (127, 127, 0.0)])
        self.calls = Counter()

    def __call__(self, velocity, volume_cc):
        self.calls[(velocity, volume_cc)] += 1
        return super().__call__(velocity, volume_cc)


class TestCalibrationCalls:
    def test_sound_levels_calls_once_per_distinct_pair(self):
        curve = CountingCalibration()
        pairs = [(100, 90), (100, 90), (90, 100), (100, 90)]
        rows = note_array(
            [note(float(i), 0.5, velocity=v, volume_cc=c) for i, (v, c) in enumerate(pairs)]
        )
        levels = sound_levels(rows, curve)
        assert curve.calls == {(100, 90): 1, (90, 100): 1}
        assert levels.tolist() == [curve(v, c) for v, c in pairs]

    def test_extraction_calls_once_per_distinct_pair(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            song = _random_song(rng)
            curve = CountingCalibration()
            extract_midi_features(song, calibration=curve)
            pairs = set(zip(song.notes["velocity"].tolist(), song.notes["volume_cc"].tolist()))
            assert set(curve.calls) == pairs
            assert set(curve.calls.values()) == {1}


class TestSoftNoteFilter:
    def test_cutoff_relative_to_song_maximum(self):
        # Levels: 0 dB, -19.15 dB, -21.25 dB relative to the loudest note.
        notes = [
            note(0.0, 1.0, velocity=127),
            note(1.0, 1.0, velocity=14),
            note(2.0, 1.0, velocity=11),
        ]
        kept = filter_soft_notes(note_array(notes))
        assert kept["velocity"].tolist() == [127, 14]

    def test_boundary_is_strict(self):
        levels = {100: 0.0, 50: -20.0, 60: -19.999999}
        curve = lambda velocity, volume: levels[velocity]
        notes = [
            note(0.0, 1.0, velocity=100),
            note(1.0, 1.0, velocity=50),
            note(2.0, 1.0, velocity=60),
        ]
        kept = filter_soft_notes(note_array(notes), calibration=curve)
        assert kept["velocity"].tolist() == [100, 60]

    def test_equal_levels_all_kept(self):
        notes = [note(float(i), 0.5, velocity=64) for i in range(5)]
        assert len(filter_soft_notes(note_array(notes))) == 5

    def test_empty_input(self):
        assert len(filter_soft_notes(note_array())) == 0

    def test_volume_participates(self):
        # Same velocity, but a channel volume 20+ dB down drops the note.
        notes = [
            note(0.0, 1.0, velocity=100, volume_cc=127),
            note(1.0, 1.0, velocity=100, volume_cc=10),
        ]
        kept = filter_soft_notes(note_array(notes))
        assert len(kept) == 1
        assert kept[0]["volume_cc"] == 127


class TestOnsetDensity:
    def test_merge_window_example(self):
        notes = note_array([note(t, 0.1) for t in (0.0, 0.03, 1.0, 2.0)])
        assert note_density(notes, 10.0) == pytest.approx(0.3, abs=1e-12)

    def test_greedy_anchor_not_chain(self):
        # 0.04 joins the cluster at 0; 0.08 is beyond the anchor window.
        notes = note_array([note(t, 0.1) for t in (0.0, 0.04, 0.08)])
        assert note_density(notes, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_boundary_is_strict(self):
        # An onset exactly at anchor + window still joins the cluster.
        assert cluster_onsets([0.0, MERGE_WINDOW]) == 1
        assert cluster_onsets([0.0, MERGE_WINDOW + 1e-9]) == 2

    def test_empty_is_zero(self):
        assert note_density(note_array(), 10.0) == 0.0

    def test_zero_window_counts_distinct_onsets(self):
        notes = note_array([note(t, 0.1) for t in (0.0, 0.01, 0.02, 1.0)])
        assert note_density(notes, 1.0, merge_window=0.0) == pytest.approx(4.0)

    def test_non_positive_duration(self):
        with pytest.raises(NonPositiveDuration):
            note_density(note_array([note(0.0, 1.0)]), 0.0)

    def test_unsorted_input_handled(self):
        notes = note_array([note(t, 0.1) for t in (2.0, 0.0, 1.0, 0.03)])
        assert note_density(notes, 10.0) == pytest.approx(0.3, abs=1e-12)


class TestPitchAndLevel:
    def test_mean_pitch(self):
        notes = note_array([note(0.0, 1.0, key=k) for k in (60, 64, 67)])
        assert mean_pitch(notes) == pytest.approx(63.666666666667, abs=1e-9)

    def test_mean_pitch_empty(self):
        with pytest.raises(EmptyCategory):
            mean_pitch(note_array())

    def test_mean_sound_level(self):
        notes = note_array([
            note(0.0, 1.0, velocity=127, volume_cc=127),
            note(1.0, 1.0, velocity=64, volume_cc=127),
        ])
        expected = (0.0 + 20 * math.log10(64 / 127)) / 2
        assert mean_sound_level(notes) == pytest.approx(expected, abs=1e-12)


class TestArticulation:
    def test_three_note_example(self):
        notes = note_array([
            note(0.0, 0.25),
            note(0.5, 0.5),
            note(1.0, 0.2),  # last onset: no interval, excluded
        ])
        assert mean_articulation(notes) == pytest.approx(0.75, abs=1e-12)

    def test_chord_tones_share_interval(self):
        notes = note_array([
            note(0.0, 0.25, key=60),
            note(0.0, 0.5, key=64),
            note(0.5, 0.25, key=67),
        ])
        # Both chord tones run to the next distinct onset at 0.5.
        assert mean_articulation(notes) == pytest.approx((0.5 + 1.0) / 2, abs=1e-12)

    def test_long_gap_excluded(self):
        notes = note_array([note(0.0, 0.5), note(0.0 + IOI_LIMIT + 0.1, 0.5)])
        with pytest.raises(EmptyCategory):
            mean_articulation(notes)

    def test_gap_at_limit_included(self):
        notes = note_array([note(0.0, 0.4), note(IOI_LIMIT, 0.4)])
        assert mean_articulation(notes) == pytest.approx(0.4 / IOI_LIMIT, abs=1e-12)

    def test_intervals_do_not_cross_tracks(self):
        notes = note_array([
            note(0.0, 0.5, track_id=0),
            note(0.2, 0.5, track_id=1),  # not a successor of the track 0 note
        ])
        with pytest.raises(EmptyCategory):
            mean_articulation(notes)

    def test_legato_is_one(self):
        notes = note_array([note(0.5 * i, 0.5) for i in range(4)])
        assert mean_articulation(notes) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_can_exceed_one(self):
        notes = note_array([note(0.0, 1.0), note(0.5, 0.5)])
        assert mean_articulation(notes) == pytest.approx(2.0, abs=1e-12)

    def test_single_note_has_no_interval(self):
        with pytest.raises(EmptyCategory):
            mean_articulation(note_array([note(0.0, 1.0)]))


class TestExtract:
    def test_field_catalog(self):
        assert FIELDS == (
            "ann_tempo",
            "nps_all", "nps_mel", "nps_acc", "nps_bas", "nps_dru",
            "nps_dru_tom", "nps_dru_rest",
            "sl_all", "sl_mel", "sl_acc", "sl_bas", "sl_dru",
            "f0_all", "f0_mel", "f0_acc", "f0_bas",
            "art_all", "art_mel", "art_acc", "art_bas",
        )
        assert len(FIELDS) == 21

    @pytest.mark.parametrize("window", [-1.0, math.nan, math.inf, -math.inf])
    def test_merge_window_must_be_finite_and_non_negative(self, window):
        song = song_of([note(0.0, 0.4), note(0.01, 0.4, key=64)], 1.0)
        with pytest.raises(ValueError, match="merge_window must be finite and at least 0"):
            extract_midi_features(song, merge_window=window)

    def test_zero_merge_window_is_accepted(self):
        song = song_of([note(0.0, 0.4), note(0.01, 0.4, key=64)], 1.0)
        assert extract_midi_features(song, merge_window=0.0)["nps_all"] == 2.0

    def test_single_melody_track_degenerates(self):
        notes = [
            note(0.0, 0.4, key=60),
            note(0.5, 0.4, key=64),
            note(1.0, 0.4, key=67),
        ]
        v = extract_midi_features(
            song_of(notes, 2.0, annotations={0: TrackCategory.MELODY})
        )
        assert v["nps_all"] == v["nps_mel"] == pytest.approx(1.5, abs=1e-12)
        assert v["sl_all"] == v["sl_mel"]
        assert v["f0_all"] == v["f0_mel"] == pytest.approx(63.6667, abs=1e-3)
        assert v["art_all"] == v["art_mel"] == pytest.approx(0.8, abs=1e-12)
        for name in ("nps_acc", "nps_bas", "nps_dru", "nps_dru_tom",
                     "nps_dru_rest", "sl_acc", "sl_bas", "sl_dru",
                     "f0_acc", "f0_bas", "art_acc", "art_bas"):
            assert v[name] is None

    def test_percussion_split(self):
        notes = [
            note(0.0, 0.1, key=36, track_id=0),
            note(1.0, 0.1, key=36, track_id=0),
            note(0.5, 0.1, key=42, track_id=0),
        ]
        v = extract_midi_features(
            song_of(notes, 2.0, annotations={0: TrackCategory.DRUMS})
        )
        assert v["nps_dru"] == pytest.approx(1.5, abs=1e-12)
        assert v["nps_dru_tom"] == pytest.approx(1.0, abs=1e-12)
        assert v["nps_dru_rest"] == pytest.approx(0.5, abs=1e-12)
        assert v["f0_all"] is not None  # drums still count toward the pooled pitch
        assert v["f0_mel"] is None

    def test_soft_filter_runs_once_globally(self):
        # The drum note is within 20 dB of the loudest drum but not of the
        # song maximum, so it must disappear from every feature.
        notes = [
            note(0.0, 0.4, velocity=127),
            note(1.0, 0.4, velocity=127),
            note(0.0, 0.1, velocity=10, key=36, track_id=1),
        ]
        v = extract_midi_features(
            song_of(
                notes, 2.0,
                annotations={0: TrackCategory.MELODY, 1: TrackCategory.DRUMS},
            )
        )
        assert v["nps_dru"] is None
        assert v["sl_dru"] is None
        assert v["nps_all"] == pytest.approx(1.0, abs=1e-12)

    def test_unannotated_notes_count_in_pooled_only(self):
        notes = [
            note(0.0, 0.4, key=60),
            note(1.0, 0.4, key=72, track_id=1),
        ]
        v = extract_midi_features(
            song_of(notes, 2.0, annotations={0: TrackCategory.MELODY})
        )
        assert v["nps_all"] == pytest.approx(1.0, abs=1e-12)
        assert v["nps_mel"] == pytest.approx(0.5, abs=1e-12)
        assert v["f0_all"] == pytest.approx(66.0, abs=1e-12)
        assert v["f0_mel"] == pytest.approx(60.0, abs=1e-12)

    def test_annotated_tempo_passthrough(self):
        notes = [note(0.0, 0.5)]
        roles = {0: TrackCategory.MELODY}
        assert extract_midi_features(
            song_of(notes, 1.0, annotations=roles), tempo=3.0
        )["ann_tempo"] == 3.0
        assert extract_midi_features(
            song_of(notes, 1.0, annotations=roles)
        )["ann_tempo"] is None

    def test_notes_without_a_positive_duration(self):
        with pytest.raises(NonPositiveDuration):
            extract_midi_features(song_of([note(0.0, 0.4)], 0.0))

    def test_empty_song_all_absent(self):
        v = extract_midi_features(song_of([], 0.0))
        assert all(value is None for value in v.values())
        assert tuple(v) == FIELDS  # every key, in column order, even when all are absent


def _random_song(rng, n_tracks=3):
    categories = [
        TrackCategory.MELODY,
        TrackCategory.ACCOMPANIMENT,
        TrackCategory.BASS,
        TrackCategory.DRUMS,
    ]
    notes = []
    annotations = {}
    duration = 10.0
    for track_id in range(n_tracks):
        annotations[track_id] = categories[int(rng.integers(len(categories)))]
        count = int(rng.integers(3, 15))
        onsets = np.sort(rng.uniform(0, duration - 1.0, size=count))
        for onset in onsets:
            key = int(rng.integers(30, 90))
            notes.append(
                note(
                    float(onset),
                    float(rng.uniform(0.05, 0.9)),
                    key=key,
                    velocity=int(rng.integers(20, 128)),
                    volume_cc=int(rng.integers(60, 128)),
                    track_id=track_id,
                )
            )
    return song_of(notes, duration, annotations=annotations)


class TestExtractProperties:
    def test_velocity_scaling_shifts_levels_only(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            song = _random_song(rng)
            # Halving velocities (integer-exact) shifts every level by the
            # same amount and crosses no gate boundary when none is close.
            halved = song_of(
                [
                    note(
                        n["onset"], n["duration"], key=n["key"],
                        velocity=2 * int(n["velocity"]), volume_cc=n["volume_cc"],
                        track_id=n["track_id"],
                    )
                    for n in song.notes
                ],
                song.duration,
                annotations=song.annotations,
            )
            base = extract_midi_features(song)
            scaled = extract_midi_features(halved)
            shift = 20 * math.log10(2.0)
            for name in FIELDS:
                a, b = base[name], scaled[name]
                if name.startswith("sl_"):
                    if a is not None:
                        assert b == pytest.approx(a + shift, abs=1e-9)
                else:
                    if a is None:
                        assert b is None
                    else:
                        assert b == pytest.approx(a, abs=1e-12)

    def test_time_shift_invariance(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            song = _random_song(rng)
            shifted = song_of(
                [
                    note(
                        n["onset"] + 0.5, n["duration"], key=n["key"],
                        velocity=n["velocity"], volume_cc=n["volume_cc"],
                        track_id=n["track_id"],
                    )
                    for n in song.notes
                ],
                song.duration,
                annotations=song.annotations,
            )
            base = extract_midi_features(song)
            moved = extract_midi_features(shifted)
            for name in FIELDS:
                a, b = base[name], moved[name]
                if a is None:
                    assert b is None
                else:
                    assert b == pytest.approx(a, abs=1e-9)

    def test_duplicate_onset_near_anchor_never_changes_density(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            onsets = np.sort(rng.uniform(0, 9, size=12))
            base = cluster_onsets(onsets)
            pick = float(onsets[int(rng.integers(len(onsets)))])
            clone = pick + float(rng.uniform(0, MERGE_WINDOW * 0.99))
            # Cloning within the window of an existing onset's cluster anchor
            # cannot open a new cluster.
            anchored = cluster_onsets(np.append(onsets, min(clone, 9.0)))
            assert anchored >= base
            dup = cluster_onsets(np.append(onsets, pick))
            assert dup == base

    def test_zero_window_dominates(self):
        rng = np.random.default_rng(45)
        for _ in range(30):
            song = _random_song(rng)
            wide = extract_midi_features(song)
            sharp = extract_midi_features(song, merge_window=0.0)
            for name in FIELDS:
                if not name.startswith("nps_"):
                    continue
                a, b = wide[name], sharp[name]
                if a is not None:
                    assert b is not None and b >= a - 1e-12

    def test_mean_level_within_range(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            song = _random_song(rng)
            v = extract_midi_features(song)
            if v["sl_all"] is None:
                continue
            levels = sound_levels(filter_soft_notes(song.notes))
            assert levels.min() - 1e-12 <= v["sl_all"] <= levels.max() + 1e-12
            assert v["sl_all"] <= 0.0 + 1e-12


# Derandomized so that every run of the suite draws the same examples.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

GM_TOM_KEYS = frozenset({35, 36, 38, 40, 41, 43, 45, 47, 48, 50})
ROLE_FIELDS = {
    TrackCategory.MELODY: "mel",
    TrackCategory.ACCOMPANIMENT: "acc",
    TrackCategory.BASS: "bas",
}


@st.composite
def annotated_songs(draw):
    """Tracks whose notes sit on a few channels, channel 9 among the choices,
    with some tracks unannotated and any track, drums included, given any role.
    """
    n_tracks = draw(st.integers(1, 4))
    notes = []
    for track_id in range(n_tracks):
        channels = draw(st.lists(st.sampled_from([0, 1, 2, 9]), min_size=1, max_size=2))
        for _ in range(draw(st.integers(0, 8))):
            notes.append(
                note(
                    draw(st.integers(0, 128)) / 32,  # a grid, so chords and merges occur
                    draw(st.integers(1, 48)) / 32,
                    key=draw(st.integers(30, 90)),
                    velocity=draw(st.integers(1, 127)),
                    volume_cc=draw(st.integers(0, 127)),
                    track_id=track_id,
                    channel=draw(st.sampled_from(channels)),
                )
            )
    notes.sort(key=lambda n: (n["onset"], n["track_id"], n["key"]))
    roles = st.sampled_from(list(TrackCategory))
    annotations = draw(
        st.dictionaries(st.integers(0, n_tracks - 1), roles, max_size=n_tracks)
    )
    return song_of(notes, 5.0, annotations=annotations)


def _absent_or(statistic, notes):
    if not len(notes):
        return None
    try:
        return statistic(note_array(notes))
    except EmptyCategory:
        return None


def _oracle_features(song, merge_window=MERGE_WINDOW):
    """Every field from the per-group oracles, over note lists split row by row."""
    # The role of a note: its track's annotation if there is one, else
    # drums on channel 9 (MIDI channel 10), else none.
    def role(n):
        if n["track_id"] in song.annotations:
            return song.annotations[n["track_id"]]
        return TrackCategory.DRUMS if n["channel"] == 9 else None

    def density(g):
        return note_density(g, song.duration, merge_window)

    kept = filter_soft_notes(song.notes)
    drums = [n for n in kept if role(n) is TrackCategory.DRUMS]
    groups = {"all": kept}
    for category, name in ROLE_FIELDS.items():
        groups[name] = [n for n in kept if role(n) is category]
    expected = {"ann_tempo": None}
    for name, members in groups.items():
        expected[f"nps_{name}"] = _absent_or(density, members)
        expected[f"sl_{name}"] = _absent_or(mean_sound_level, members)
        expected[f"f0_{name}"] = _absent_or(mean_pitch, members)
        expected[f"art_{name}"] = _absent_or(mean_articulation, members)
    expected["nps_dru"] = _absent_or(density, drums)
    expected["sl_dru"] = _absent_or(mean_sound_level, drums)
    expected["nps_dru_tom"] = _absent_or(
        density, [n for n in drums if int(n["key"]) in GM_TOM_KEYS]
    )
    expected["nps_dru_rest"] = _absent_or(
        density, [n for n in drums if int(n["key"]) not in GM_TOM_KEYS]
    )
    return expected


@st.composite
def off_grid_songs(draw):
    """1-5 tracks of unsorted float onsets: chords within a track, onsets shared
    across tracks, and successors just below, at and just above IOI_LIMIT."""
    times = st.one_of(st.just(0.0), st.floats(0.0, 4.0, allow_nan=False))
    shared = draw(st.lists(times, min_size=1, max_size=3))
    n_tracks = draw(st.integers(1, 5))
    notes = []
    for track_id in range(n_tracks):
        channel = draw(st.sampled_from([0, 1, 9]))
        onsets = []
        for onset in draw(st.lists(st.one_of(times, st.sampled_from(shared)), max_size=6)):
            onsets.append(onset)
            follower = onset + IOI_LIMIT  # exactly IOI_LIMIT after an onset of 0.0
            onsets += draw(st.sampled_from([
                [], [onset], [follower],
                [math.nextafter(follower, -math.inf)], [math.nextafter(follower, math.inf)],
            ]))
        for onset in onsets:
            notes.append(
                note(
                    onset,
                    draw(st.floats(1e-3, 2.0)),
                    key=draw(st.integers(30, 90)),
                    velocity=draw(st.integers(1, 127)),
                    volume_cc=draw(st.integers(0, 127)),
                    track_id=track_id,
                    channel=channel,
                )
            )
    roles = st.sampled_from(list(TrackCategory))
    annotations = draw(
        st.dictionaries(st.integers(0, n_tracks - 1), roles, max_size=n_tracks)
    )
    return song_of(notes, 5.0, annotations=annotations)


class TestRoleResolution:
    @PROPERTY
    @given(song=annotated_songs())
    def test_fields_equal_statistics_over_track_channel_roles(self, song):
        expected = _oracle_features(song)
        assert set(expected) == set(FIELDS)

        v = extract_midi_features(song)
        assert v == expected

    @PROPERTY
    @given(
        song=off_grid_songs(),
        merge_window=st.one_of(st.sampled_from([0.0, MERGE_WINDOW]), st.floats(0.0, 1.0)),
    )
    def test_off_grid_fields_equal_the_per_group_oracles(self, song, merge_window):
        expected = _oracle_features(song, merge_window)
        assert extract_midi_features(song, merge_window=merge_window) == expected

    @PROPERTY
    @given(song=annotated_songs())
    def test_one_curve_call_per_distinct_pair_across_gate_and_levels(self, song):
        curve = CountingCalibration()
        v = extract_midi_features(song, calibration=curve)
        pairs = zip(song.notes["velocity"].tolist(), song.notes["volume_cc"].tolist())
        assert curve.calls == Counter(dict.fromkeys(pairs, 1))
        # The cached levels are the curve's own: sl_all is their mean over the kept notes.
        kept = filter_soft_notes(song.notes, CountingCalibration())
        assert v["sl_all"] == _absent_or(lambda g: mean_sound_level(g, curve), kept)


def articulation_by_loop(rows, ioi_limit=IOI_LIMIT):
    """The per-note reference for mean_articulation: next distinct onset by dict."""
    ratios = []
    for track_id in {int(n["track_id"]) for n in rows}:
        track = [n for n in rows if n["track_id"] == track_id]
        onsets = sorted({float(n["onset"]) for n in track})
        next_onset = dict(zip(onsets, onsets[1:]))
        for n in track:
            following = next_onset.get(float(n["onset"]))
            if following is not None and following - n["onset"] <= ioi_limit:
                ratios.append(float(n["duration"]) / (following - float(n["onset"])))
    return math.fsum(ratios) / len(ratios) if ratios else None


class TestArrayFormsMatchPerNoteLoops:
    @PROPERTY
    @given(song=annotated_songs())
    def test_articulation(self, song):
        assert _absent_or(mean_articulation, song.notes) == articulation_by_loop(song.notes)

    @PROPERTY
    @given(song=annotated_songs())
    def test_sound_levels(self, song):
        expected = [default_calibration(int(n["velocity"]), int(n["volume_cc"]))
                    for n in song.notes]
        assert sound_levels(song.notes).tolist() == expected
