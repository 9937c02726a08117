"""Standard MIDI File parsing into seconds-domain note events.

Reads format 0/1 files with tick-per-quarter division, resolves the merged
tempo map and emits one time-sorted note array per file.  Notes carry
the channel-7 volume in force at their onset so later sound-level estimates
can combine velocity and mixer volume.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Optional, Tuple

import numpy as np

DEFAULT_TEMPO = 500_000  # microseconds per quarter note until the first set-tempo
DEFAULT_VOLUME_CC = 100  # General MIDI power-on value for controller 7


class SmfError(ValueError):
    """Base class for unreadable or unsupported MIDI content."""


class MalformedHeader(SmfError):
    """File does not start with a valid MThd chunk."""


class UnsupportedFormat(SmfError):
    """SMF format 2 (independent sequences) is out of scope."""


class UnsupportedDivision(SmfError):
    """SMPTE time division is out of scope."""


class TruncatedChunk(SmfError):
    """A chunk or event ran past the end of its data."""


class NonMonotoneTempoEvents(SmfError):
    """Tempo events must be given in non-decreasing tick order."""


class UnknownTrackId(SmfError):
    """An annotation referenced a track the file does not have."""


class TrackCategory(Enum):
    MELODY = "melody"
    ACCOMPANIMENT = "accompaniment"
    BASS = "bass"
    DRUMS = "drums"


NOTE_DTYPE = np.dtype(
    [
        ("track_id", np.int32),  # zero-based index of the originating track chunk
        ("channel", np.uint8),  # MIDI channel 0..15
        ("key", np.uint8),  # note number 0..127
        ("onset", np.float64),  # seconds from the start of the file
        ("duration", np.float64),  # sounding length in seconds, always > 0
        ("velocity", np.uint8),  # note-on velocity 1..127
        ("volume_cc", np.uint8),  # channel volume (controller 7) in force at the onset
    ]
)
"""One row per sounded note."""


@dataclass(frozen=True, eq=False)
class Song:
    """A parsed file: one read-only :data:`NOTE_DTYPE` array plus file-level metadata."""

    id: str
    notes: np.ndarray
    duration: float
    n_tracks: int
    annotations: Mapping[int, TrackCategory] = field(default_factory=dict)


class TempoMap:
    """Piecewise-linear tick-to-seconds mapping.

    Built from (tick, microseconds-per-quarter) change points; the default
    tempo applies before the first change point.  The mapping is strictly
    increasing because every segment has a positive rate.
    """

    __slots__ = ("_ticks", "_seconds", "_rates")

    def __init__(self, events: Iterable[Tuple[int, int]], ticks_per_quarter: int):
        if ticks_per_quarter <= 0:
            raise ValueError("ticks per quarter must be positive")
        ticks = [0]
        seconds = [0.0]
        rates = [DEFAULT_TEMPO / (ticks_per_quarter * 1e6)]  # seconds per tick
        for tick, us_per_quarter in events:
            if tick < ticks[-1]:
                raise NonMonotoneTempoEvents(
                    f"tempo event at tick {tick} after tick {ticks[-1]}"
                )
            if us_per_quarter <= 0:
                raise SmfError(f"non-positive tempo at tick {tick}")
            rate = us_per_quarter / (ticks_per_quarter * 1e6)
            if tick == ticks[-1]:
                rates[-1] = rate  # same-tick changes: the last one wins
            else:
                seconds.append(seconds[-1] + (tick - ticks[-1]) * rates[-1])
                ticks.append(tick)
                rates.append(rate)
        self._ticks = np.array(ticks, dtype=np.int64)
        self._seconds = np.array(seconds)
        self._rates = np.array(rates)

    def seconds(self, ticks):
        """Seconds elapsed at absolute ticks: an int or an array of them."""
        ticks = np.asarray(ticks, dtype=np.int64)
        if (ticks < 0).any():
            raise ValueError("tick must be non-negative")
        i = np.searchsorted(self._ticks, ticks, side="right") - 1
        return self._seconds[i] + (ticks - self._ticks[i]) * self._rates[i]


_PAST_END = "event data ran past the end of its track chunk"


def _varint(data: bytes, pos: int) -> Tuple[int, int]:
    """Big-endian base-128 with a continuation bit, at most four bytes: (value, next pos)."""
    value = 0
    for pos in range(pos, pos + 4):
        byte = data[pos]
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos + 1
    raise TruncatedChunk("variable-length quantity longer than four bytes")


def _split_chunks(data: bytes) -> Tuple[int, int, list]:
    if len(data) < 8 or data[0:4] != b"MThd":
        raise MalformedHeader("file does not start with an MThd chunk")
    header_len = struct.unpack(">I", data[4:8])[0]
    if header_len < 6 or len(data) < 8 + header_len:
        raise MalformedHeader("MThd chunk shorter than six bytes")
    fmt, n_tracks, division = struct.unpack(">HHH", data[8:14])
    if fmt not in (0, 1):
        raise UnsupportedFormat(f"SMF format {fmt} is not supported")
    if division & 0x8000:
        raise UnsupportedDivision("SMPTE division is not supported")
    if division == 0:
        raise MalformedHeader("zero ticks per quarter note")
    bodies = []
    pos = 8 + header_len
    while len(bodies) < n_tracks:
        if pos + 8 > len(data):
            raise TruncatedChunk(
                f"expected {n_tracks} track chunks, found {len(bodies)}"
            )
        tag = data[pos : pos + 4]
        length = struct.unpack(">I", data[pos + 4 : pos + 8])[0]
        if pos + 8 + length > len(data):
            raise TruncatedChunk(f"chunk {tag!r} runs past the end of the file")
        if tag == b"MTrk":
            bodies.append(data[pos + 8 : pos + 8 + length])
        pos += 8 + length  # unknown chunk types are skipped
    return fmt, division, bodies


def _payload(body: bytes, pos: int) -> Tuple[int, int]:
    """Bounds of the length-prefixed payload of a meta or sysex event."""
    length, start = _varint(body, pos)
    if start + length > len(body):
        raise TruncatedChunk(_PAST_END)
    return start, start + length


def _parse_track(body: bytes, track_id: int):
    """One track chunk -> (closed notes in ticks, end tick, tempo events).

    Closed notes are one flat list, six ints per note: onset tick, off tick,
    channel, key, velocity, volume.
    """
    pos = 0
    tick = 0
    running: Optional[int] = None
    volume = [DEFAULT_VOLUME_CC] * 16  # controller 7 value per channel
    open_notes = {}  # channel << 7 | key -> stack of (onset_tick, velocity, volume)
    closed = []
    tempos = []
    end = len(body)
    try:
        while pos < end:
            delta = body[pos]
            if delta < 0x80:
                pos += 1
            elif body[pos + 1] < 0x80:
                delta = (delta & 0x7F) << 7 | body[pos + 1]
                pos += 2
            else:
                delta, pos = _varint(body, pos)
            tick += delta
            status = body[pos]
            if status < 0x80:
                if running is None:
                    raise TruncatedChunk(f"data byte with no running status in track {track_id}")
                status = running
            else:
                pos += 1
            if status < 0xF0:
                running = status
                kind = status & 0xF0
                d1 = body[pos]
                if kind == 0xC0 or kind == 0xD0:
                    d2 = 0
                    pos += 1
                else:
                    d2 = body[pos + 1]
                    pos += 2
                if (d1 | d2) & 0x80:
                    raise SmfError(f"data byte above 0x7f in track {track_id}")
                channel = status & 0x0F
                if kind == 0x90 and d2:
                    note = channel << 7 | d1
                    stack = open_notes.get(note)
                    if stack is None:
                        open_notes[note] = [(tick, d2, volume[channel])]
                    else:
                        stack.append((tick, d2, volume[channel]))
                elif kind <= 0x90:  # a note-off, or a note-on of velocity zero
                    stack = open_notes.get(channel << 7 | d1)
                    if stack:  # off with no matching on is ignored
                        onset, vel, vol = stack.pop()
                        closed += (onset, tick, channel, d1, vel, vol)
                elif kind == 0xB0 and d1 == 7:
                    volume[channel] = d2
            elif status == 0xFF:
                running = None
                meta_type = body[pos]
                start, pos = _payload(body, pos + 1)
                if meta_type == 0x51 and pos - start == 3:
                    tempos.append((tick, int.from_bytes(body[start:pos], "big")))
                elif meta_type == 0x2F:
                    break  # the end tick is the tick of end-of-track
            elif status == 0xF0 or status == 0xF7:
                running = None
                _, pos = _payload(body, pos)
            else:
                raise TruncatedChunk(f"system message {status:#x} is not valid in a track chunk")
    except IndexError:
        raise TruncatedChunk(_PAST_END) from None
    # Notes still sounding at end-of-track are closed there, in first-on order.
    for note, stack in open_notes.items():
        for onset, vel, vol in stack:
            closed += (onset, tick, note >> 7, note & 0x7F, vel, vol)
    return closed, tick, tempos


def parse_smf(data: bytes, song_id: str = "") -> Song:
    """Parse one file's bytes into a :class:`Song`.

    Notes are sorted by (onset, track, key), stably.  Overlapping same-key
    notes are matched last-on/first-off.  Note-ons with velocity zero are
    offs.  Notes whose on and off fall on the same tick carry no information
    and are dropped.  The song duration is the latest end-of-track time.
    """
    _, division, bodies = _split_chunks(data)
    closed, per_track, end_ticks, tempo_events = [], [], [], []
    for track_id, body in enumerate(bodies):
        track_closed, end_tick, tempos = _parse_track(body, track_id)
        closed += track_closed
        per_track.append(len(track_closed) // 6)
        end_ticks.append(end_tick)
        tempo_events += tempos
    tempo_events.sort(key=lambda event: event[0])
    tempo_map = TempoMap(tempo_events, division)
    closed = np.array(closed, dtype=np.int64).reshape(-1, 6)
    notes = np.empty(len(closed), dtype=NOTE_DTYPE)
    notes["track_id"] = np.repeat(np.arange(len(bodies)), per_track)
    notes["onset"] = tempo_map.seconds(closed[:, 0])
    notes["duration"] = tempo_map.seconds(closed[:, 1]) - notes["onset"]
    for column, name in enumerate(("channel", "key", "velocity", "volume_cc"), 2):
        notes[name] = closed[:, column]
    notes = notes[notes["duration"] > 0]
    notes = notes[np.lexsort((notes["key"], notes["track_id"], notes["onset"]))]
    notes.flags.writeable = False
    duration = float(tempo_map.seconds(end_ticks).max()) if end_ticks else 0.0
    return Song(id=song_id, notes=notes, duration=duration, n_tracks=len(bodies))


def annotate_tracks(song: Song, annotations: Mapping[int, TrackCategory]) -> Song:
    """Return a copy of the song carrying per-track roles.

    The notes are shared, not rebuilt.  Feature extraction reads each
    note's role from these annotations; there, a note of an unannotated
    track is drums when it is on the percussion channel.
    """
    for track_id in annotations:
        if not 0 <= track_id < song.n_tracks:
            raise UnknownTrackId(
                f"annotation for track {track_id}, file has {song.n_tracks} tracks"
            )
    return replace(song, annotations=dict(annotations))
