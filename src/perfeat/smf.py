"""Standard MIDI File parsing into seconds-domain note events.

Reads format 0/1 files with tick-per-quarter division, resolves the merged
tempo map and emits one flat, time-sorted note list per file.  Notes carry
the channel-7 volume in force at their onset so later sound-level estimates
can combine velocity and mixer volume.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence, Tuple

DEFAULT_TEMPO = 500_000  # microseconds per quarter note until the first set-tempo
DEFAULT_VOLUME_CC = 100  # General MIDI power-on value for controller 7

# General MIDI percussion keys heard as drum-skin hits: kicks, snares, toms.
# Everything else on the percussion channel (hi-hats, cymbals, shakers, ...)
# falls into the complementary class.
DEFAULT_TOM_KEYS = frozenset({35, 36, 38, 40, 41, 43, 45, 47, 48, 50})

PERCUSSION_CHANNEL = 9


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
    UNANNOTATED = "unannotated"


class PercussionClass(Enum):
    TOM = "tom"
    REST = "rest"


def classify_percussion_key(key: int, tom_keys: Optional[frozenset] = None) -> PercussionClass:
    """Split a percussion key number into the tom-like class and the rest."""
    if not 0 <= key <= 127:
        raise ValueError(f"percussion key out of range: {key}")
    table = DEFAULT_TOM_KEYS if tom_keys is None else tom_keys
    return PercussionClass.TOM if key in table else PercussionClass.REST


@dataclass(frozen=True)
class MidiNote:
    """One sounded note, in seconds.

    Attributes
    ----------
    track_id : int
        Zero-based index of the originating track chunk.
    channel : int
        MIDI channel 0..15.
    key : int
        Note number 0..127.
    onset : float
        Onset time in seconds from the start of the file.
    duration : float
        Sounding length in seconds, always > 0.
    velocity : int
        Note-on velocity 1..127.
    volume_cc : int
        Channel volume (controller 7) in force at the onset.
    """

    track_id: int
    channel: int
    key: int
    onset: float
    duration: float
    velocity: int
    volume_cc: int = DEFAULT_VOLUME_CC

    @property
    def offset(self) -> float:
        return self.onset + self.duration


@dataclass(frozen=True)
class Song:
    """A parsed file: flat note list plus file-level metadata."""

    id: str
    notes: Tuple[MidiNote, ...]
    duration: float
    n_tracks: int
    annotations: Mapping[int, TrackCategory] = field(default_factory=dict)
    annotated_tempo: Optional[float] = None  # beats per second, from a sidecar


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
        self._ticks = ticks
        self._seconds = seconds
        self._rates = rates

    def seconds(self, tick: int) -> float:
        """Seconds elapsed at an absolute tick."""
        if tick < 0:
            raise ValueError("tick must be non-negative")
        i = bisect_right(self._ticks, tick) - 1
        return self._seconds[i] + (tick - self._ticks[i]) * self._rates[i]


class _Reader:
    """Byte cursor with the integer codings used by SMF."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.data)

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedChunk("event data ran past the end of its track chunk")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def varint(self) -> int:
        # Big-endian base-128 with a continuation bit, at most four bytes.
        value = 0
        for _ in range(4):
            byte = self.u8()
            value = (value << 7) | (byte & 0x7F)
            if not byte & 0x80:
                return value
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


def _parse_track(body: bytes, track_id: int):
    """One track chunk -> (closed notes in ticks, end tick, tempo events)."""
    r = _Reader(body)
    tick = 0
    running: Optional[int] = None
    volume = {}  # channel -> controller 7 value
    open_notes = {}  # (channel, key) -> stack of (onset_tick, velocity, volume)
    closed = []
    tempos = []
    end_tick: Optional[int] = None
    while not r.exhausted:
        tick += r.varint()
        status = r.u8()
        if status < 0x80:
            if running is None:
                raise TruncatedChunk(
                    f"data byte with no running status in track {track_id}"
                )
            r.pos -= 1
            status = running
        if status == 0xFF:
            running = None
            meta_type = r.u8()
            payload = r.take(r.varint())
            if meta_type == 0x51 and len(payload) == 3:
                tempos.append((tick, int.from_bytes(payload, "big")))
            elif meta_type == 0x2F:
                end_tick = tick
                break
        elif status in (0xF0, 0xF7):
            running = None
            r.take(r.varint())
        elif status >= 0xF0:
            raise TruncatedChunk(
                f"system message {status:#x} is not valid in a track chunk"
            )
        else:
            running = status
            kind = status & 0xF0
            channel = status & 0x0F
            d1 = r.u8()
            d2 = r.u8() if kind not in (0xC0, 0xD0) else 0
            if kind == 0x90 and d2 > 0:
                stack = open_notes.setdefault((channel, d1), [])
                stack.append((tick, d2, volume.get(channel, DEFAULT_VOLUME_CC)))
            elif kind == 0x80 or (kind == 0x90 and d2 == 0):
                stack = open_notes.get((channel, d1))
                if stack:  # off with no matching on is ignored
                    onset, vel, vol = stack.pop()
                    closed.append((onset, tick, channel, d1, vel, vol))
            elif kind == 0xB0 and d1 == 7:
                volume[channel] = d2
    if end_tick is None:
        end_tick = tick
    # Notes still sounding at end-of-track are closed there.
    for (channel, key), stack in open_notes.items():
        for onset, vel, vol in stack:
            closed.append((onset, end_tick, channel, key, vel, vol))
    return closed, end_tick, tempos


def parse_smf(data: bytes, song_id: str = "") -> Song:
    """Parse one file's bytes into a :class:`Song`.

    Notes are sorted by (onset, track, key).  Overlapping same-key notes are
    matched last-on/first-off.  Note-ons with velocity zero are offs.  Notes
    whose on and off fall on the same tick carry no information and are
    dropped.  The song duration is the latest end-of-track time.
    """
    _, division, bodies = _split_chunks(data)
    per_track = []
    tempo_events = []
    end_ticks = []
    for track_id, body in enumerate(bodies):
        closed, end_tick, tempos = _parse_track(body, track_id)
        per_track.append((track_id, closed))
        end_ticks.append(end_tick)
        tempo_events.extend(tempos)
    tempo_events.sort(key=lambda event: event[0])
    tempo_map = TempoMap(tempo_events, division)
    notes = []
    for track_id, closed in per_track:
        for on_tick, off_tick, channel, key, velocity, vol in closed:
            onset = tempo_map.seconds(on_tick)
            offset = tempo_map.seconds(off_tick)
            if offset <= onset:
                continue
            notes.append(
                MidiNote(
                    track_id=track_id,
                    channel=channel,
                    key=key,
                    onset=onset,
                    duration=offset - onset,
                    velocity=velocity,
                    volume_cc=vol,
                )
            )
    notes.sort(key=lambda n: (n.onset, n.track_id, n.key))
    duration = max((tempo_map.seconds(t) for t in end_ticks), default=0.0)
    return Song(id=song_id, notes=tuple(notes), duration=duration, n_tracks=len(bodies))


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
