"""MIDI file parsing against byte-built fixtures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    control,
    end_of_track,
    ev,
    note_off,
    note_on,
    oracle_parse_smf,
    set_tempo,
    smf,
    track,
    vlq,
)
from perfeat.midi_features import TOM_KEYS, extract_midi_features
from perfeat.smf import (
    NOTE_DTYPE,
    MalformedHeader,
    NonMonotoneTempoEvents,
    SmfError,
    TempoMap,
    TrackCategory,
    TruncatedChunk,
    UnknownTrackId,
    UnsupportedDivision,
    UnsupportedFormat,
    annotate_tracks,
    parse_smf,
)


class TestTempoMap:
    def test_default_tempo(self):
        tm = TempoMap([], 480)
        assert tm.seconds(480) == pytest.approx(0.5, abs=1e-12)
        assert tm.seconds(960) == pytest.approx(1.0, abs=1e-12)
        assert tm.seconds(0) == 0.0

    def test_single_change_at_zero(self):
        tm = TempoMap([(0, 1_000_000)], 480)
        assert tm.seconds(480) == pytest.approx(1.0, abs=1e-12)

    def test_two_segments(self):
        tm = TempoMap([(0, 500_000), (480, 1_000_000)], 480)
        assert tm.seconds(480) == pytest.approx(0.5, abs=1e-12)
        assert tm.seconds(960) == pytest.approx(1.5, abs=1e-12)

    def test_same_tick_last_wins(self):
        tm = TempoMap([(0, 250_000), (0, 1_000_000)], 480)
        assert tm.seconds(480) == pytest.approx(1.0, abs=1e-12)

    def test_non_monotone_raises(self):
        with pytest.raises(NonMonotoneTempoEvents):
            TempoMap([(480, 500_000), (240, 250_000)], 480)

    def test_non_positive_tempo_raises(self):
        with pytest.raises(ValueError):
            TempoMap([(0, 0)], 480)

    def test_strictly_increasing_property(self):
        rng = np.random.default_rng(100)
        for _ in range(50):
            ticks = np.sort(rng.integers(0, 10_000, size=5))
            tempi = rng.integers(100_000, 2_000_000, size=5)
            tm = TempoMap(list(zip(ticks.tolist(), tempi.tolist())), 480)
            probes = np.sort(rng.integers(0, 20_000, size=20))
            seconds = [tm.seconds(int(t)) for t in probes]
            for (t0, s0), (t1, s1) in zip(
                zip(probes, seconds), zip(probes[1:], seconds[1:])
            ):
                if t1 > t0:
                    assert s1 > s0

    def test_array_of_ticks_matches_scalars(self):
        tm = TempoMap([(0, 500_000), (480, 1_000_000), (1000, 250_000)], 480)
        ticks = np.array([0, 1, 479, 480, 481, 999, 1000, 5000])
        assert tm.seconds(ticks).tolist() == [float(tm.seconds(int(t))) for t in ticks]

    def test_negative_tick_raises(self):
        with pytest.raises(ValueError):
            TempoMap([], 480).seconds(np.array([0, -1]))


class TestParse:
    def test_single_note(self):
        data = smf(track(note_on(0, 60, 100), note_off(480, 60)))
        song = parse_smf(data, "one")
        assert song.id == "one"
        assert len(song.notes) == 1
        n = song.notes[0]
        assert (n["key"], n["velocity"], n["channel"], n["track_id"]) == (60, 100, 0, 0)
        assert n["onset"] == pytest.approx(0.0, abs=1e-12)
        assert n["duration"] == pytest.approx(0.5, abs=1e-12)
        assert song.duration == pytest.approx(0.5, abs=1e-12)

    def test_velocity_zero_is_note_off(self):
        data = smf(track(note_on(0, 60, 100), note_on(480, 60, 0)))
        song = parse_smf(data)
        assert len(song.notes) == 1
        assert song.notes[0]["duration"] == pytest.approx(0.5, abs=1e-12)

    def test_tempo_change_mid_file(self):
        # One quarter at 120 bpm then one at 60 bpm: onset 0.5 s, duration 1.0 s.
        data = smf(
            track(set_tempo(0, 500_000), set_tempo(480, 1_000_000)),
            track(note_on(480, 64, 80), note_off(480, 64)),
        )
        song = parse_smf(data)
        assert len(song.notes) == 1
        assert song.notes[0]["onset"] == pytest.approx(0.5, abs=1e-12)
        assert song.notes[0]["duration"] == pytest.approx(1.0, abs=1e-12)

    def test_tempo_map_merged_across_tracks(self):
        # The tempo lives in track 0; notes in track 1 must still honor it.
        data = smf(
            track(set_tempo(0, 1_000_000)),
            track(note_on(0, 60, 90), note_off(480, 60)),
        )
        assert parse_smf(data).notes[0]["duration"] == pytest.approx(1.0, abs=1e-12)

    def test_running_status(self):
        body = (
            b"\x00\x90\x3c\x64"  # note on C4
            b"\x00\x3e\x64"      # running status: note on D4
            b"\x81\x70\x3c\x00"  # delta 240: C4 off via velocity zero
            b"\x00\x3e\x00"      # D4 off
        )
        data = smf(track(body))
        song = parse_smf(data)
        assert len(song.notes) == 2
        assert set(song.notes["key"].tolist()) == {60, 62}
        np.testing.assert_allclose(song.notes["duration"], 0.25, rtol=0, atol=1e-12)

    def test_meta_event_cancels_running_status(self):
        body = (
            b"\x00\x90\x3c\x64"
            + set_tempo(0, 500_000)
            + b"\x00\x3e\x64"  # data bytes with canceled running status
        )
        with pytest.raises(TruncatedChunk):
            parse_smf(smf(track(body)))

    def test_overlapping_same_key_lifo(self):
        data = smf(
            track(
                note_on(0, 60, 100),
                note_on(240, 60, 50),
                note_off(240, 60),  # closes the second (inner) note
                note_off(240, 60),  # closes the first
            )
        )
        song = parse_smf(data)
        durations = sorted(song.notes["duration"].tolist())
        assert durations == pytest.approx([0.25, 0.75], abs=1e-12)
        by_velocity = {int(n["velocity"]): n for n in song.notes}
        assert by_velocity[50]["onset"] == pytest.approx(0.25, abs=1e-12)
        assert by_velocity[50]["duration"] == pytest.approx(0.25, abs=1e-12)
        assert by_velocity[100]["onset"] == pytest.approx(0.0, abs=1e-12)
        assert by_velocity[100]["duration"] == pytest.approx(0.75, abs=1e-12)

    def test_volume_sampled_at_onset(self):
        data = smf(
            track(
                control(0, 7, 40),
                note_on(0, 60, 100),
                control(240, 7, 120),   # change while the note sounds
                note_off(240, 60),
                note_on(0, 62, 100),    # second note sees the new volume
                note_off(240, 62),
            )
        )
        song = parse_smf(data)
        by_key = {int(n["key"]): n for n in song.notes}
        assert by_key[60]["volume_cc"] == 40
        assert by_key[62]["volume_cc"] == 120

    def test_default_volume_before_any_controller(self):
        song = parse_smf(smf(track(note_on(0, 60, 100), note_off(120, 60))))
        assert song.notes[0]["volume_cc"] == 100

    def test_unterminated_note_closed_at_end_of_track(self):
        data = smf(track(note_on(0, 60, 100), eot_delta=960))
        song = parse_smf(data)
        assert len(song.notes) == 1
        assert song.notes[0]["duration"] == pytest.approx(1.0, abs=1e-12)

    def test_zero_length_note_dropped(self):
        data = smf(track(note_on(0, 60, 100), note_off(0, 60)))
        assert len(parse_smf(data).notes) == 0

    def test_orphan_note_off_ignored(self):
        data = smf(track(note_off(0, 60), note_on(0, 62, 90), note_off(240, 62)))
        song = parse_smf(data)
        assert song.notes["key"].tolist() == [62]

    def test_notes_sorted_and_inside_duration(self):
        data = smf(
            track(note_on(480, 70, 90), note_off(480, 70)),
            track(note_on(0, 50, 90), note_off(1440, 50)),
        )
        song = parse_smf(data)
        onsets = song.notes["onset"].tolist()
        assert onsets == sorted(onsets)
        for n in song.notes:
            assert 0.0 <= n["onset"]
            assert n["onset"] + n["duration"] <= song.duration + 1e-9
            assert n["duration"] > 0

    def test_ties_ordered_by_track_then_key(self):
        # Same onset everywhere: track 1 sorts after track 0, keys ascend within.
        data = smf(
            track(note_on(0, 72, 90), note_on(0, 48, 90), note_off(480, 72), note_off(0, 48)),
            track(note_on(0, 30, 90), note_off(480, 30)),
        )
        notes = parse_smf(data).notes
        assert notes[["track_id", "key"]].tolist() == [(0, 48), (0, 72), (1, 30)]

    def test_duration_is_latest_track_end(self):
        data = smf(
            track(note_on(0, 60, 90), note_off(480, 60)),
            track(note_on(0, 40, 90), note_off(480, 40), eot_delta=1440),
        )
        assert parse_smf(data).duration == pytest.approx(2.0, abs=1e-12)

    def test_deterministic(self):
        data = smf(
            track(note_on(0, 60, 100), note_off(480, 60)),
            track(note_on(240, 45, 70, channel=9), note_off(240, 45, channel=9)),
        )
        a, b = parse_smf(data, "x"), parse_smf(data, "x")
        assert np.array_equal(a.notes, b.notes)
        assert (a.id, a.duration, a.n_tracks) == (b.id, b.duration, b.n_tracks)

    def test_format_zero_accepted(self):
        data = smf(track(note_on(0, 60, 100), note_off(480, 60)), fmt=0)
        assert len(parse_smf(data).notes) == 1

    def test_unknown_chunks_skipped(self):
        import struct as _struct

        body = track(note_on(0, 60, 100), note_off(480, 60))
        alien = b"XFIH" + _struct.pack(">I", 2) + b"ok"
        data = (
            b"MThd" + _struct.pack(">IHHH", 6, 1, 1, 480) + alien + body
        )
        assert len(parse_smf(data).notes) == 1


class TestHeaderErrors:
    def test_not_midi(self):
        with pytest.raises(MalformedHeader):
            parse_smf(b"RIFF....WAVE")

    def test_empty(self):
        with pytest.raises(MalformedHeader):
            parse_smf(b"")

    def test_format_two_rejected(self):
        data = smf(track(end_of_track()), fmt=2)
        with pytest.raises(UnsupportedFormat):
            parse_smf(data)

    def test_smpte_division_rejected(self):
        data = smf(track(note_on(0, 60, 100), note_off(480, 60)), division=0xE728)
        with pytest.raises(UnsupportedDivision):
            parse_smf(data)

    def test_truncated_track_chunk(self):
        data = smf(track(note_on(0, 60, 100), note_off(480, 60)))
        with pytest.raises(TruncatedChunk):
            parse_smf(data[:-4])

    def test_missing_track(self):
        import struct as _struct

        data = b"MThd" + _struct.pack(">IHHH", 6, 1, 2, 480)
        data += track(end_of_track())
        with pytest.raises(TruncatedChunk):
            parse_smf(data)

    def test_event_past_chunk_end(self):
        import struct as _struct

        body = b"\x00\x90\x3c"  # note-on missing its velocity byte
        chunk = b"MTrk" + _struct.pack(">I", len(body)) + body
        with pytest.raises(TruncatedChunk, match="ran past the end of its track chunk"):
            parse_smf(b"MThd" + _struct.pack(">IHHH", 6, 1, 1, 480) + chunk)

    def test_meta_payload_past_chunk_end(self):
        body = b"\x00\xff\x01\x05abc"  # text event declaring five bytes, holding three
        with pytest.raises(TruncatedChunk, match="ran past the end of its track chunk"):
            parse_smf(smf(track(body, append_eot=False)))

    @pytest.mark.parametrize(
        "event",
        [
            note_on(0, 200, 100),  # key
            note_on(0, 60, 150),  # velocity
            note_on(0, 200, 150, channel=9),
            control(0, 7, 0x80),
            ev(0, 0xC0, 0x90),  # program change
        ],
        ids=["key", "velocity", "drum-key-and-velocity", "controller-value", "program"],
    )
    def test_data_byte_above_0x7f_rejected(self, event):
        data = smf(track(end_of_track()), track(event, note_off(480, 60)))
        with pytest.raises(SmfError, match="data byte above 0x7f in track 1"):
            parse_smf(data)


class TestAnnotations:
    def _song(self):
        # Three half-second tracks, one onset each: a role present gives 2.0 nps.
        return parse_smf(
            smf(
                track(note_on(0, 60, 100), note_off(480, 60)),
                track(note_on(0, 40, 100), note_off(480, 40)),
                track(note_on(0, 45, 100, channel=9), note_off(480, 45, channel=9)),
            )
        )

    def test_roles_applied(self):
        roles = {0: TrackCategory.MELODY, 1: TrackCategory.BASS}
        song = annotate_tracks(self._song(), roles)
        assert song.annotations == roles
        v = extract_midi_features(song)
        assert v["nps_mel"] == v["nps_bas"] == v["nps_dru"] == pytest.approx(2.0, abs=1e-12)
        assert v["f0_mel"] == 60.0 and v["f0_bas"] == 40.0
        assert v["nps_acc"] is None

    def test_percussion_channel_defaults_to_drums(self):
        song = annotate_tracks(self._song(), {0: TrackCategory.MELODY})
        assert song.annotations == {0: TrackCategory.MELODY}
        v = extract_midi_features(song)
        assert v["nps_dru"] == pytest.approx(2.0, abs=1e-12)
        assert v["nps_dru_tom"] == pytest.approx(2.0, abs=1e-12)  # key 45 is a tom
        assert v["nps_bas"] is None and v["nps_acc"] is None  # track 1 stays unannotated
        assert v["f0_all"] == pytest.approx((60 + 40 + 45) / 3, abs=1e-12)

    def test_percussion_default_needs_no_annotation_call(self):
        song = self._song()
        assert extract_midi_features(song) == extract_midi_features(
            annotate_tracks(song, {})
        )
        assert extract_midi_features(song)["nps_dru"] == pytest.approx(2.0, abs=1e-12)

    def test_explicit_annotation_beats_channel_default(self):
        song = annotate_tracks(self._song(), {2: TrackCategory.ACCOMPANIMENT})
        assert song.annotations == {2: TrackCategory.ACCOMPANIMENT}
        v = extract_midi_features(song)
        assert v["nps_acc"] == pytest.approx(2.0, abs=1e-12)
        assert v["f0_acc"] == 45.0
        assert v["nps_dru"] is None and v["nps_dru_tom"] is None and v["sl_dru"] is None

    def test_notes_are_not_rebuilt(self):
        song = self._song()
        assert annotate_tracks(song, {0: TrackCategory.MELODY}).notes is song.notes

    def test_notes_are_read_only_and_shared(self):
        song = self._song()
        annotated = annotate_tracks(song, {1: TrackCategory.BASS})
        assert song.notes.dtype == NOTE_DTYPE
        assert not song.notes.flags.writeable
        assert np.shares_memory(annotated.notes, song.notes)
        with pytest.raises(ValueError):
            annotated.notes["key"][0] = 1

    def test_unknown_track_id(self):
        with pytest.raises(UnknownTrackId):
            annotate_tracks(self._song(), {7: TrackCategory.MELODY})


def _one_drum_hit(key):
    """The drum-split fields of a half-second song with one channel-10 hit."""
    data = smf(track(note_on(0, key, 100, channel=9), note_off(480, key, channel=9)))
    v = extract_midi_features(parse_smf(data))
    return v["nps_dru_tom"], v["nps_dru_rest"]


class TestPercussionClasses:
    def test_kick_snare_toms_are_tom(self):
        for key in (35, 36, 38, 40, 41, 43, 45, 47, 48, 50):
            assert _one_drum_hit(key) == (2.0, None)

    def test_cymbals_are_rest(self):
        for key in (42, 46, 49, 51, 39, 54, 70):
            assert _one_drum_hit(key) == (None, 2.0)

    def test_partition_is_total(self):
        for key in range(128):
            tom, rest = _one_drum_hit(key)
            assert (tom, rest) == ((2.0, None) if key in TOM_KEYS else (None, 2.0))
        assert all(0 <= key <= 127 for key in TOM_KEYS)

    def test_out_of_range(self):
        # Keys above 127 never reach the split: the parser rejects them.
        with pytest.raises(SmfError, match="data byte above 0x7f"):
            _one_drum_hit(128)


def _valid_files():
    """Byte-built files that parse, covering every event kind the parser reads."""
    return [
        smf(track(note_on(0, 60, 100), note_off(480, 60))),
        smf(
            track(set_tempo(0, 500_000), set_tempo(480, 1_000_000)),
            track(control(0, 7, 40), note_on(480, 64, 80), note_on(0, 67, 80),
                  note_off(480, 64), note_on(0, 67, 0)),
            track(note_on(0, 36, 110, channel=9), note_off(240, 36, channel=9),
                  ev(0, 0xF0, 0x02, 0x7E, 0xF7), ev(0, 0xC3, 0x05), eot_delta=960),
        ),
        smf(track(b"\x00\x90\x3c\x64\x00\x3e\x64\x81\x70\x3c\x00\x00\x3e\x00"), fmt=0),
    ]


# Deltas of one, two, three and four bytes, often zero so that events share a tick.
DELTAS = st.one_of(
    st.just(0),
    st.integers(0, 0x7F),
    st.integers(0x80, 0x3FFF),
    st.integers(0x4000, 0x1FFFFF),
    st.integers(0x200000, 0x0FFFFFFF),
)

# Channel messages as (status high nibble, number of data bytes).
CHANNEL_KINDS = {
    "on": (0x90, 2), "off": (0x80, 2), "on0": (0x90, 2), "cc7": (0xB0, 2),
    "cc": (0xB0, 2), "touch": (0xA0, 2), "bend": (0xE0, 2),
    "program": (0xC0, 1), "pressure": (0xD0, 1),
}
# Note events weighted up, so that most keys are struck again before their off.
EVENT_KINDS = ["on"] * 4 + ["off"] * 2 + [*CHANNEL_KINDS, "sysex", "escape", "text", "tempo"]


@st.composite
def track_bodies(draw):
    """One valid MTrk body.

    Few channels and keys, so same-key overlaps and orphan offs are common.
    Channel messages repeat their status byte or lean on running status;
    sysex and meta events (tempo among them) cancel it.  The track may end
    without an end-of-track event, or carry bytes after one.
    """
    body = bytearray()
    running = None
    for _ in range(draw(st.integers(0, 30))):
        body += vlq(draw(DELTAS))
        kind = draw(st.sampled_from(EVENT_KINDS))
        if kind in CHANNEL_KINDS:
            high, size = CHANNEL_KINDS[kind]
            status = high | draw(st.sampled_from([0, 1, 9]))
            if kind in ("on", "off", "on0"):
                d1 = draw(st.sampled_from([36, 60, 61]))
            else:
                d1 = 7 if kind == "cc7" else draw(st.integers(0, 127))
            d2 = 0 if kind == "on0" else draw(st.integers(1 if kind == "on" else 0, 127))
            data = bytes([d1, d2][:size])
            if status != running or draw(st.booleans()):
                data = bytes([status]) + data
            running = status
        elif kind == "tempo":
            data = b"\xff\x51\x03" + draw(st.integers(1, 0xFFFFFF)).to_bytes(3, "big")
            running = None
        else:
            payload = draw(st.binary(max_size=140))
            lead = {"sysex": b"\xf0", "escape": b"\xf7", "text": b"\xff\x01"}[kind]
            data = lead + vlq(len(payload)) + payload
            running = None
        body += data
    if draw(st.booleans()):
        body += vlq(draw(DELTAS)) + b"\xff\x2f\x00" + draw(st.binary(max_size=4))
    return bytes(body)


@st.composite
def scanned_files(draw):
    """A valid format 0 or 1 file of one to three generated tracks."""
    bodies = draw(st.lists(track_bodies(), min_size=1, max_size=3))
    return smf(
        *(track(body, append_eot=False) for body in bodies),
        division=draw(st.integers(1, 0x7FFF)),
        fmt=draw(st.sampled_from([0, 1])),
    )


def _damage(draw, data, donors):
    """A few byte replacements, truncations and splices of data."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["replace", "truncate", "splice"]))
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        if op == "replace" and data:
            data[at] = draw(st.integers(0, 255))
        elif op == "truncate":
            del data[at:]
        else:
            donor = draw(st.sampled_from(donors))
            start = draw(st.integers(0, len(donor) - 1))
            data[at:at] = donor[start : start + draw(st.integers(1, 12))]
    return bytes(data)


@st.composite
def damaged_files(draw):
    """A valid file after a few byte replacements, truncations and splices."""
    files = _valid_files()
    return _damage(draw, draw(st.sampled_from(files)), files)


@st.composite
def damaged_scanned_files(draw):
    """A generated valid file after a few replacements, truncations and splices."""
    data = draw(scanned_files())
    return _damage(draw, data, [data])


def _outcome(parse, data):
    """(note bytes, duration) of a parse, or the class and message of its SmfError."""
    try:
        notes, duration = parse(data)
    except SmfError as error:
        return type(error), str(error)
    return notes.tobytes(), duration


def _scan(data):
    song = parse_smf(data)
    return song.notes, song.duration


class TestOracleScan:
    """The track scan gives the notes and duration of the oracle scan in tests/helpers.py."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=scanned_files())
    def test_valid_files_equal_oracle(self, data):
        song = parse_smf(data)
        notes, duration = oracle_parse_smf(data)
        assert song.notes.tobytes() == notes.tobytes()
        assert song.duration == duration


class TestDamagedFiles:
    @pytest.mark.parametrize(
        "body",
        [
            b"\x00\x3c\x64",  # data byte with no running status
            b"\x00\x90\x3c\x64\x00\xf0\x00\x00\x3c\x00",  # sysex cancels running status
            b"\x00\xf2\x00\x00",  # system common message
            b"\x00\xfe",  # system real-time message
            b"\x00",  # delta with no event
            b"\x81",  # two-byte delta cut after one byte
            b"\x81\x80",  # three-byte delta cut after two bytes
            b"\x81\x80\x80\x80\x00",  # five-byte delta
            b"\x00\x90\x3c",  # note-on with no velocity
            b"\x00\xc0",  # program change with no program
            b"\x00\xff",  # meta event with no type
            b"\x00\xff\x01\x05abc",  # meta payload past the end
            b"\x00\xf0\x81",  # sysex length cut short
            b"\x00\xf7\x81\x80\x80\x80\x00",  # five-byte sysex length
            b"\x00\x90\x3c\x80",  # velocity above 0x7f
            b"\x00\xd0\x80",  # channel pressure above 0x7f
            set_tempo(0, 0),  # a tempo of zero
        ],
    )
    def test_each_error_matches_oracle(self, body):
        data = smf(track(end_of_track()), track(body, append_eot=False))
        outcome = _outcome(_scan, data)
        assert issubclass(outcome[0], SmfError)
        assert outcome == _outcome(oracle_parse_smf, data)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=damaged_files())
    def test_only_smf_errors_and_seven_bit_notes(self, data):
        try:
            song = parse_smf(data)
            assert song.notes["key"].max(initial=0) <= 127
            assert 1 <= song.notes["velocity"].min(initial=1)
            assert song.notes["velocity"].max(initial=1) <= 127
            extract_midi_features(song)
        except SmfError:
            pass

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=damaged_files())
    def test_same_outcome_as_oracle(self, data):
        assert _outcome(_scan, data) == _outcome(oracle_parse_smf, data)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=damaged_scanned_files())
    def test_generated_files_same_outcome_as_oracle(self, data):
        assert _outcome(_scan, data) == _outcome(oracle_parse_smf, data)
