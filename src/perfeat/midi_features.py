"""Per-song symbolic features: onset density, sound level, pitch, articulation.

Features are computed per instrumental role (melody, accompaniment, bass,
drums) and over all notes together, after discarding notes too soft to be
heard against the loudest note of the song.  Each feature is a scalar per
song; roles with no qualifying notes leave the corresponding field absent.
"""

from __future__ import annotations

import bisect
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

_IS_TOM_KEY = np.zeros(256, dtype=bool)
_IS_TOM_KEY[list(TOM_KEYS)] = True

_ROLE_CODES = {role: code for code, role in enumerate(TrackCategory, 1)}  # 0: no role

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
        hi = bisect.bisect_left(axis, value, 1)
        frac = (value - axis[hi - 1]) / (axis[hi] - axis[hi - 1])
        return hi - 1, hi, frac

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
    present = np.flatnonzero(counts)
    table = np.zeros(len(counts))
    table[present] = [calibration(*divmod(code, 256)) for code in present.tolist()]
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


def _count_clusters(onsets: np.ndarray, merge_window: float) -> int:
    """Onset clusters of non-empty ascending ``onsets`` under greedy left-to-right anchoring.

    An onset more than ``merge_window`` after the current cluster's first
    onset starts a new cluster; any other joins it.  A repeated onset always
    joins, so only distinct onsets are walked.
    """
    count = 0
    anchor = -math.inf
    for t in onsets[np.append(True, onsets[1:] != onsets[:-1])].tolist():
        if t - anchor > merge_window:
            count += 1
            anchor = t
    return count


def _mean(values: np.ndarray, empty: str = "no notes to average") -> float:
    """Correctly rounded mean; EmptyCategory with the given message when empty."""
    if not len(values):
        raise EmptyCategory(empty)
    return math.fsum(values.tolist()) / len(values)


def _inter_onset_intervals(notes: np.ndarray) -> np.ndarray:
    """Each note's interval to the next distinct onset of its track; inf at a track's last.

    Chord tones share one interval.  One sort by (track, onset) serves every
    track: a run of equal (track, onset) reaches the next run of its track.
    """
    order = np.lexsort((notes["onset"], notes["track_id"]))
    tracks, onsets = notes["track_id"][order], notes["onset"][order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (tracks[1:] != tracks[:-1]) | (onsets[1:] != onsets[:-1])
    starts = np.flatnonzero(first)
    gaps = np.where(tracks[starts[1:]] == tracks[starts[:-1]],
                    onsets[starts[1:]] - onsets[starts[:-1]], np.inf)
    ioi = np.empty(len(order))
    ioi[order] = np.append(gaps, np.inf)[np.cumsum(first) - 1]
    return ioi


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


def check_merge_window(merge_window: float) -> None:
    """ValueError unless the onset merge window is finite and at least 0."""
    if not (math.isfinite(merge_window) and merge_window >= 0):
        raise ValueError(f"merge_window must be finite and at least 0, got {merge_window:g}")


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
    non-finite ``merge_window`` raises ValueError, and a song with audible
    notes but no positive duration raises NonPositiveDuration.
    """
    check_merge_window(merge_window)
    # The gate and the sl_ means share one curve call per distinct pair.
    calibration = functools.lru_cache(maxsize=None)(calibration)
    kept = filter_soft_notes(song.notes, calibration)
    levels = sound_levels(kept, calibration)
    tracks, onsets, keys = kept["track_id"], kept["onset"], kept["key"]
    # One role code per note: an annotation wins over the percussion channel.
    codes = np.where(kept["channel"] == PERCUSSION_CHANNEL, _ROLE_CODES[TrackCategory.DRUMS], 0)
    for track_id, role in song.annotations.items():
        codes[tracks == track_id] = _ROLE_CODES[role]
    groups = {"all": np.ones(len(kept), dtype=bool)}
    for role, code in _ROLE_CODES.items():
        groups[role.value[:3]] = codes == code
    tom = _IS_TOM_KEY[keys]
    groups["dru_tom"] = groups["dru"] & tom
    groups["dru_rest"] = groups["dru"] & ~tom
    # Roles are whole tracks, so a note's ratio is the same in every group that holds it.
    ioi = _inter_onset_intervals(kept)
    ratios = kept["duration"] / ioi
    articulated = ioi <= IOI_LIMIT
    onset_order = np.argsort(onsets, kind="stable")
    by_onset = onsets[onset_order]
    if len(kept) and song.duration <= 0:
        raise NonPositiveDuration("song duration must be positive")

    statistics = {
        "nps": lambda group: (_count_clusters(by_onset[group[onset_order]], merge_window)
                              / song.duration),
        "sl": lambda group: _mean(levels[group]),
        "f0": lambda group: _mean(keys[group]),
        "art": lambda group: _mean(ratios[group & articulated]),
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
