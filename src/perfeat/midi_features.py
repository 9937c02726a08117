"""Per-song symbolic features: onset density, sound level, pitch, articulation.

Features are computed per instrumental role (melody, accompaniment, bass,
drums) and over all notes together, after discarding notes too soft to be
heard against the loudest note of the song.  Each feature is a scalar per
song; roles with no qualifying notes leave the corresponding field absent.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .smf import Song, TrackCategory

MERGE_WINDOW = 0.050
"""Seconds.  Onsets this close to a cluster anchor count as one event."""

SOFT_NOTE_CUTOFF_DB = 20.0
"""Notes this far below the loudest note of a song are dropped as inaudible."""

IOI_LIMIT = 0.800
"""Seconds.  Longer inter-onset gaps are phrase breaks, not articulation."""

PERCUSSION_CHANNEL = 9
"""Channel index 9 (channel 10): notes of unannotated tracks on it are drums."""

TOM_KEYS = frozenset({35, 36, 38, 40, 41, 43, 45, 47, 48, 50})
"""General MIDI percussion keys heard as drum-skin hits: kicks, snares, toms.
Every other drum note (hi-hats, cymbals, shakers, ...) is ``dru_rest``."""

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

    Built from (velocity, volume, dB) triples, in any order, that cover every
    velocity/volume combination of the grid once.  Lookups between grid
    points are bilinear; lookups outside the grid clamp to the nearest edge.
    """

    def __init__(self, rows: Iterable[Tuple[int, int, float]]):
        cells: Dict[Tuple[int, int], float] = {}
        for velocity, volume, db in rows:
            cell = (int(velocity), int(volume))
            if cell in cells:
                raise ValueError(f"calibration repeats velocity={cell[0]} volume={cell[1]}")
            cells[cell] = float(db)
        self.velocities = sorted({v for v, _ in cells})
        self.volumes = sorted({v for _, v in cells})
        if len(self.velocities) < 2 or len(self.volumes) < 2:
            raise ValueError("calibration needs at least a 2 x 2 grid")
        missing = [(v, w) for v in self.velocities for w in self.volumes if (v, w) not in cells]
        if missing:
            velocity, volume = missing[0]
            raise ValueError(f"calibration grid is missing velocity={velocity} volume={volume}")
        self.level_db = [[cells[v, w] for w in self.volumes] for v in self.velocities]

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


def sound_levels(
    notes: np.ndarray, calibration: CalibrationCurve = default_calibration
) -> np.ndarray:
    """Sound level of each note in dB, one curve call per distinct (velocity, volume)."""
    # Both fields are uint8, so the code is one-to-one and indexes a lookup table.
    codes = notes["velocity"].astype(np.intp) * 256 + notes["volume_cc"]
    counts = np.bincount(codes)
    table = np.zeros(len(counts))
    for code in np.flatnonzero(counts).tolist():
        table[code] = calibration(*divmod(code, 256))
    return table[codes]


def filter_soft_notes(
    notes: np.ndarray, calibration: CalibrationCurve = default_calibration
) -> np.ndarray:
    """Keep notes strictly louder than the song maximum minus the cutoff.

    The cutoff is :data:`SOFT_NOTE_CUTOFF_DB`.  The threshold is relative to
    the loudest note of the whole song, so the filter is applied once,
    before any per-role split.
    """
    if not len(notes):
        return notes
    levels = sound_levels(notes, calibration)
    return notes[levels > levels.max() - SOFT_NOTE_CUTOFF_DB]


def cluster_onsets(onsets: Iterable[float], merge_window: float = MERGE_WINDOW) -> int:
    """Count onset clusters under greedy left-to-right anchoring.

    Scanning onsets in ascending order, an onset starts a new cluster exactly
    when it is more than ``merge_window`` after the current cluster's first
    onset; otherwise it joins the cluster.  With a zero window every distinct
    onset is its own cluster.
    """
    count = 0
    anchor = -math.inf
    for t in np.sort(np.asarray(onsets, dtype=float)).tolist():
        if t - anchor > merge_window:
            count += 1
            anchor = t
    return count


def note_density(
    notes: np.ndarray,
    song_duration: float,
    merge_window: float = MERGE_WINDOW,
) -> float:
    """Onset clusters per second over the full song duration."""
    if song_duration <= 0:
        raise NonPositiveDuration("song duration must be positive")
    return cluster_onsets(notes["onset"], merge_window) / song_duration


def _mean(values: np.ndarray, empty: str = "no notes to average") -> float:
    """Correctly rounded mean; EmptyCategory with the given message when empty."""
    if not len(values):
        raise EmptyCategory(empty)
    return math.fsum(values.tolist()) / len(values)


def mean_pitch(notes: np.ndarray) -> float:
    """Mean note number."""
    return _mean(notes["key"])


def mean_articulation(notes: np.ndarray) -> float:
    """Mean duration-to-inter-onset-interval ratio.

    For each note the interval runs from its onset to the next distinct
    onset time within the same track, so chord tones share one interval.
    Notes at the last onset of their track have no interval and notes whose
    interval exceeds :data:`IOI_LIMIT` sit before a gap; both are excluded.
    """
    ratios = [np.empty(0)]
    for track_id in set(notes["track_id"].tolist()):
        track = notes[notes["track_id"] == track_id]
        # The first sorted onset strictly after a note's own is the next distinct one.
        onsets = np.sort(track["onset"])
        following = np.searchsorted(onsets, track["onset"], side="right")
        usable = following < len(onsets)
        ioi = onsets[following[usable]] - track["onset"][usable]
        short = ioi <= IOI_LIMIT
        ratios.append(track["duration"][usable][short] / ioi[short])
    return _mean(np.concatenate(ratios), "no note has a usable inter-onset interval")


FIELDS = (
    "ann_tempo",
    *(f"nps_{suffix}" for suffix in ("all", "mel", "acc", "bas", "dru", "dru_tom", "dru_rest")),
    *(f"sl_{suffix}" for suffix in ("all", "mel", "acc", "bas", "dru")),
    *(f"f0_{suffix}" for suffix in ("all", "mel", "acc", "bas")),
    *(f"art_{suffix}" for suffix in ("all", "mel", "acc", "bas")),
)
"""The 21 symbolic features, in table column order.  Field ``f"{prefix}_{suffix}"``
is the prefix's statistic over one group of notes: all of them, a role by the
first three letters of its name (``mel`` ... ``dru``), or the drums' tom/rest split."""


def extract_midi_features(
    song: Song,
    calibration: CalibrationCurve = default_calibration,
    tempo: Optional[float] = None,
    merge_window: float = MERGE_WINDOW,
) -> Dict[str, Optional[float]]:
    """The symbolic features of one song: each name of :data:`FIELDS`, in order,
    with ``None`` for an absent value.

    The soft-note filter runs first, once, against the loudest note of the
    song; every feature then sees the same filtered note array.  A note's
    role is its track's entry in ``song.annotations``.  Without one, a note
    on the percussion channel is drums and any other note counts toward
    the whole-song aggregates only.  Drum notes split into ``dru_tom``
    (:data:`TOM_KEYS`) and ``dru_rest``.  ``tempo`` is the song's counted
    tempo in beats per second, reported as ``ann_tempo``.  A negative or
    non-finite ``merge_window`` raises ValueError.
    """
    if not (math.isfinite(merge_window) and merge_window >= 0):
        raise ValueError(f"merge_window must be finite and at least 0, got {merge_window:g}")
    # The gate and the sl_ means share one curve call per distinct pair.
    calibration = functools.lru_cache(maxsize=None)(calibration)
    kept = filter_soft_notes(song.notes, calibration)
    levels = sound_levels(kept, calibration)
    tracks = kept["track_id"]
    groups = {"all": np.ones(len(kept), dtype=bool)}
    for role in TrackCategory:
        role_tracks = [t for t, r in song.annotations.items() if r is role]
        groups[role.value[:3]] = np.isin(tracks, role_tracks)
    unannotated = ~np.isin(tracks, list(song.annotations))
    groups["dru"] |= unannotated & (kept["channel"] == PERCUSSION_CHANNEL)
    tom = np.isin(kept["key"], list(TOM_KEYS))
    groups["dru_tom"] = groups["dru"] & tom
    groups["dru_rest"] = groups["dru"] & ~tom

    statistics = {
        "nps": lambda group: note_density(kept[group], song.duration, merge_window),
        "sl": lambda group: _mean(levels[group]),
        "f0": lambda group: mean_pitch(kept[group]),
        "art": lambda group: mean_articulation(kept[group]),
    }
    out: Dict[str, Optional[float]] = dict.fromkeys(FIELDS)
    out["ann_tempo"] = tempo
    for name in FIELDS[1:]:
        prefix, suffix = name.split("_", 1)
        if groups[suffix].any():
            try:
                out[name] = statistics[prefix](groups[suffix])
            except EmptyCategory:
                pass  # no qualifying notes: the field stays absent
    return out
