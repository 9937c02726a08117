"""Per-song symbolic features: onset density, sound level, pitch, articulation.

Features are computed per instrumental role (melody, accompaniment, bass,
drums) and over all notes together, after discarding notes too soft to be
heard against the loudest note of the song.  Each feature is a scalar per
song; roles with no qualifying notes leave the corresponding field absent.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, fields
from itertools import pairwise
from typing import Callable, ClassVar, Dict, Iterable, List, Optional, Sequence, Tuple

from .smf import (
    PERCUSSION_CHANNEL,
    MidiNote,
    PercussionClass,
    Song,
    TrackCategory,
    classify_percussion_key,
)

MERGE_WINDOW = 0.050
"""Seconds.  Onsets this close to a cluster anchor count as one event."""

SOFT_NOTE_CUTOFF_DB = 20.0
"""Notes this far below the loudest note of a song are dropped as inaudible."""

IOI_LIMIT = 0.800
"""Seconds.  Longer inter-onset gaps are phrase breaks, not articulation."""

CalibrationCurve = Callable[[int, int], float]


class EmptyCategory(ValueError):
    """No qualifying notes; the feature is absent rather than zero."""


class NonPositiveDuration(ValueError):
    """Densities need a positive song duration."""


def default_calibration(velocity: int, volume_cc: int) -> float:
    """Sound level in dB for a (velocity, channel volume) pair.

    Both controls attenuate logarithmically from a 0 dB reference at full
    scale; a zero volume is clamped to 1 so the level stays finite.
    """
    return 20.0 * math.log10(velocity / 127.0) + 20.0 * math.log10(
        max(volume_cc, 1) / 127.0
    )


class TableCalibration:
    """Calibration measured on a (velocity, volume) grid.

    Lookups between grid points are bilinear; lookups outside the grid clamp
    to the nearest edge.  The grid must be complete: one dB value for every
    velocity/volume combination.
    """

    def __init__(
        self,
        velocities: Sequence[int],
        volumes: Sequence[int],
        level_db: Sequence[Sequence[float]],
    ):
        self.velocities = sorted(set(int(v) for v in velocities))
        self.volumes = sorted(set(int(v) for v in volumes))
        if len(self.velocities) != len(velocities) or len(self.volumes) != len(volumes):
            raise ValueError("calibration axes contain duplicates")
        if len(self.velocities) < 2 or len(self.volumes) < 2:
            raise ValueError("calibration needs at least a 2 x 2 grid")
        self.level_db = [[float(x) for x in row] for row in level_db]
        if len(self.level_db) != len(self.velocities) or any(
            len(row) != len(self.volumes) for row in self.level_db
        ):
            raise ValueError("calibration grid shape does not match its axes")

    @classmethod
    def from_rows(cls, rows: Iterable[Tuple[int, int, float]]) -> "TableCalibration":
        """Build from (velocity, volume, dB) triples covering a full grid."""
        cells: Dict[Tuple[int, int], float] = {}
        for velocity, volume, db in rows:
            cells[(int(velocity), int(volume))] = float(db)
        velocities = sorted({v for v, _ in cells})
        volumes = sorted({v for _, v in cells})
        grid = []
        for velocity in velocities:
            row = []
            for volume in volumes:
                if (velocity, volume) not in cells:
                    raise ValueError(
                        f"calibration grid is missing velocity={velocity} volume={volume}"
                    )
                row.append(cells[(velocity, volume)])
            grid.append(row)
        return cls(velocities, volumes, grid)

    @staticmethod
    def _bracket(axis: Sequence[int], value: float) -> Tuple[int, int, float]:
        if value <= axis[0]:
            return 0, 0, 0.0
        if value >= axis[-1]:
            return len(axis) - 1, len(axis) - 1, 0.0
        hi = 1
        while axis[hi] < value:
            hi += 1
        lo = hi - 1
        frac = (value - axis[lo]) / (axis[hi] - axis[lo])
        return lo, hi, frac

    def __call__(self, velocity: int, volume_cc: int) -> float:
        i0, i1, fv = self._bracket(self.velocities, velocity)
        j0, j1, fw = self._bracket(self.volumes, volume_cc)
        top = self.level_db[i0][j0] * (1 - fw) + self.level_db[i0][j1] * fw
        bottom = self.level_db[i1][j0] * (1 - fw) + self.level_db[i1][j1] * fw
        return top * (1 - fv) + bottom * fv


def note_sound_level(note: MidiNote, calibration: CalibrationCurve = default_calibration) -> float:
    """Sound level of one note in dB under a calibration curve."""
    return calibration(note.velocity, note.volume_cc)


def filter_soft_notes(
    notes: Iterable[MidiNote],
    calibration: CalibrationCurve = default_calibration,
    cutoff_db: float = SOFT_NOTE_CUTOFF_DB,
) -> List[MidiNote]:
    """Keep notes strictly louder than the song maximum minus the cutoff.

    The threshold is relative to the loudest note of the whole song, so the
    filter is applied once, before any per-role split.
    """
    notes = list(notes)
    if not notes:
        return []
    levels = [note_sound_level(n, calibration) for n in notes]
    floor = max(levels) - cutoff_db
    return [n for n, level in zip(notes, levels) if level > floor]


def cluster_onsets(onsets: Iterable[float], merge_window: float = MERGE_WINDOW) -> int:
    """Count onset clusters under greedy left-to-right anchoring.

    Scanning onsets in ascending order, an onset starts a new cluster exactly
    when it is more than ``merge_window`` after the current cluster's first
    onset; otherwise it joins the cluster.  With a zero window every distinct
    onset is its own cluster.
    """
    count = 0
    anchor = -math.inf
    for t in sorted(onsets):
        if t - anchor > merge_window:
            count += 1
            anchor = t
    return count


def note_density(
    notes: Iterable[MidiNote],
    song_duration: float,
    merge_window: float = MERGE_WINDOW,
) -> float:
    """Onset clusters per second over the full song duration."""
    if song_duration <= 0:
        raise NonPositiveDuration("song duration must be positive")
    return cluster_onsets((n.onset for n in notes), merge_window) / song_duration


def mean_sound_level(
    notes: Iterable[MidiNote],
    calibration: CalibrationCurve = default_calibration,
) -> float:
    """Mean per-note sound level in dB."""
    levels = [note_sound_level(n, calibration) for n in notes]
    if not levels:
        raise EmptyCategory("no notes to average")
    return math.fsum(levels) / len(levels)


def mean_pitch(notes: Iterable[MidiNote]) -> float:
    """Mean note number."""
    keys = [n.key for n in notes]
    if not keys:
        raise EmptyCategory("no notes to average")
    return math.fsum(keys) / len(keys)


def mean_articulation(notes: Iterable[MidiNote], ioi_limit: float = IOI_LIMIT) -> float:
    """Mean duration-to-inter-onset-interval ratio.

    For each note the interval runs from its onset to the next distinct
    onset time within the same track, so chord tones share one interval.
    Notes at the last onset of their track have no interval and notes whose
    interval exceeds ``ioi_limit`` sit before a gap; both are excluded.
    """
    by_track: Dict[int, List[MidiNote]] = defaultdict(list)
    for note in notes:
        by_track[note.track_id].append(note)
    ratios = []
    for track_notes in by_track.values():
        onsets = sorted({n.onset for n in track_notes})
        next_onset = {a: b for a, b in pairwise(onsets)}
        for note in track_notes:
            following = next_onset.get(note.onset)
            if following is None:
                continue
            ioi = following - note.onset
            if ioi > ioi_limit:
                continue
            ratios.append(note.duration / ioi)
    if not ratios:
        raise EmptyCategory("no note has a usable inter-onset interval")
    return math.fsum(ratios) / len(ratios)


@dataclass
class MidiFeatureVector:
    """The per-song symbolic feature set.

    Field order is the canonical column order for tables.  ``None`` marks an
    absent value (no annotated tempo, or no qualifying notes for the role).
    """

    ann_tempo: Optional[float] = None
    nps_all: Optional[float] = None
    nps_mel: Optional[float] = None
    nps_acc: Optional[float] = None
    nps_bas: Optional[float] = None
    nps_dru: Optional[float] = None
    nps_dru_tom: Optional[float] = None
    nps_dru_rest: Optional[float] = None
    sl_all: Optional[float] = None
    sl_mel: Optional[float] = None
    sl_acc: Optional[float] = None
    sl_bas: Optional[float] = None
    sl_dru: Optional[float] = None
    f0_all: Optional[float] = None
    f0_mel: Optional[float] = None
    f0_acc: Optional[float] = None
    f0_bas: Optional[float] = None
    art_all: Optional[float] = None
    art_mel: Optional[float] = None
    art_acc: Optional[float] = None
    art_bas: Optional[float] = None

    FIELDS: ClassVar[Tuple[str, ...]] = ()

    def as_dict(self) -> Dict[str, Optional[float]]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def values(self) -> Tuple[Optional[float], ...]:
        return tuple(getattr(self, name) for name in self.FIELDS)


MidiFeatureVector.FIELDS = tuple(f.name for f in fields(MidiFeatureVector))

_ROLE_SUFFIX = {
    TrackCategory.MELODY: "mel",
    TrackCategory.ACCOMPANIMENT: "acc",
    TrackCategory.BASS: "bas",
    TrackCategory.DRUMS: "dru",
}


def extract_midi_features(
    song: Song,
    calibration: CalibrationCurve = default_calibration,
    tempo: Optional[float] = None,
    merge_window: float = MERGE_WINDOW,
    tom_keys: Optional[frozenset] = None,
) -> MidiFeatureVector:
    """Compute the full symbolic feature vector for one song.

    The soft-note filter runs first, once, against the loudest note of the
    song; every feature then sees the same filtered note list.  A note's
    role is its track's entry in ``song.annotations``.  Without one, a note
    on the percussion channel is drums and any other note counts toward
    the whole-song aggregates only.
    """
    kept = filter_soft_notes(song.notes, calibration)
    groups: Dict[str, List[MidiNote]] = defaultdict(list, all=kept)
    for note in kept:
        role = song.annotations.get(note.track_id)
        if role is None and note.channel == PERCUSSION_CHANNEL:
            role = TrackCategory.DRUMS
        suffix = _ROLE_SUFFIX.get(role)
        if suffix is None:
            continue
        groups[suffix].append(note)
        if suffix == "dru":
            tom = classify_percussion_key(note.key, tom_keys) is PercussionClass.TOM
            groups["dru_tom" if tom else "dru_rest"].append(note)

    # Field f"{prefix}_{suffix}" is the statistic over that group's notes.
    table = (
        ("nps", lambda notes: note_density(notes, song.duration, merge_window),
         ("all", "mel", "acc", "bas", "dru", "dru_tom", "dru_rest")),
        ("sl", lambda notes: mean_sound_level(notes, calibration),
         ("all", "mel", "acc", "bas", "dru")),
        ("f0", mean_pitch, ("all", "mel", "acc", "bas")),
        ("art", mean_articulation, ("all", "mel", "acc", "bas")),
    )
    out = MidiFeatureVector()
    out.ann_tempo = tempo if tempo is not None else song.annotated_tempo
    for prefix, statistic, suffixes in table:
        for suffix in suffixes:
            if groups[suffix]:
                try:
                    setattr(out, f"{prefix}_{suffix}", statistic(groups[suffix]))
                except EmptyCategory:
                    pass  # no qualifying notes: the field stays absent
    return out
