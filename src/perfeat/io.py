"""Readers and writers for the study's file formats.

All inputs are plain CSV with a header row.  Rating files put item ids in
the first column and one rater per remaining column, with empty cells for
missing ratings.  Sidecar files carry per-song track annotations and manual
tempo counts.  Machine-readable outputs are full-precision CSV preceded by
``# key=value`` parameter lines so a run can be reproduced from its output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .midi_features import TableCalibration
from .smf import TrackCategory
from .stats import RatingMatrix

PathLike = Union[str, Path]


class SchemaError(ValueError):
    """A file does not match its expected layout; messages carry line numbers."""


class OutOfScale(ValueError):
    """A rating lies outside the declared response scale."""


class InvalidScale(ValueError):
    """A response scale with a NaN bound or a minimum above its maximum."""


# A role's name, its feature columns' suffix (the first three letters), or "drum".
_CATEGORY_ALIASES = {alias: role for role in TrackCategory
                     for alias in (role.value, role.value[:3])}
_CATEGORY_ALIASES["drum"] = TrackCategory.DRUMS


def _not_utf8(path: PathLike, err: UnicodeDecodeError) -> SchemaError:
    """The error for a file that is not UTF-8 text, naming the file and the byte."""
    return SchemaError(f"{path}: not UTF-8 text"
                       f" (byte 0x{err.object[err.start]:02x}: {err.reason})")


def _data_rows(path: PathLike):
    """Yield (line_number, row) for non-empty, non-comment CSV rows."""
    # utf-8-sig drops the byte-order mark that spreadsheet exports often
    # write, which would otherwise join the first header cell.
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            for row in reader:
                if not row or row[0].lstrip().startswith("#"):
                    continue
                yield reader.line_num, [cell.strip() for cell in row]
        except UnicodeDecodeError as err:
            raise _not_utf8(path, err) from None


def _parse_float(cell: str, path: PathLike, line: int) -> float:
    """A finite number; an empty cell, not ``nan`` text, is how a value goes missing."""
    try:
        value = float(cell)
    except ValueError:
        raise SchemaError(f"{path}:{line}: {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise SchemaError(f"{path}:{line}: {cell!r} is not a finite number")
    return value


def _read_grid(path: PathLike):
    """An id column plus named numeric columns, empty cells -> NaN.

    Returns (item ids, column names, values, line number of each row).  A
    column name is a lookup key or a rater id, so a repeat raises SchemaError.
    """
    rows = list(_data_rows(path))
    if not rows:
        raise SchemaError(f"{path}: empty file")
    header_line, header = rows[0]
    if len(header) < 2:
        raise SchemaError(f"{path}:{header_line}: need an id column and one value column")
    for index, name in enumerate(header[1:], 1):
        if name in header[1:index]:
            raise SchemaError(f"{path}: column {name!r} appears twice in the header")
    lines: List[int] = []
    item_ids: List[str] = []
    values: List[List[float]] = []
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise SchemaError(
                f"{path}:{line}: {len(row)} cells, header has {len(header)}"
            )
        lines.append(line)
        item_ids.append(row[0])
        values.append(
            [math.nan if cell == "" else _parse_float(cell, path, line) for cell in row[1:]]
        )
    if not values:
        raise SchemaError(f"{path}: file has a header but no rows")
    return tuple(item_ids), tuple(header[1:]), np.array(values, dtype=float), lines


def _records(path: PathLike, header: Tuple[str, ...]):
    """Yield (line_number, row) of a sidecar, skipping its header rows.

    Every other row must have one cell per header field.
    """
    for line, row in _data_rows(path):
        if row[0] == header[0]:
            continue
        if len(row) != len(header):
            raise SchemaError(f"{path}:{line}: expected {','.join(header)}")
        yield line, row


def _once(path: PathLike, seen: Dict[object, int], key, line: int, what: str) -> None:
    """Record ``key`` as read on ``line``; SchemaError when an earlier line had it."""
    if key in seen:
        raise SchemaError(f"{path}:{line}: {what} repeats line {seen[key]}")
    seen[key] = line


def check_scale(scale: Optional[Tuple[float, float]]) -> None:
    """InvalidScale unless ``scale`` is None or an interval: minimum <= maximum, no NaN."""
    if scale is not None and not scale[0] <= scale[1]:
        raise InvalidScale(f"scale [{scale[0]}, {scale[1]}] is not an interval:"
                           " need minimum <= maximum, neither NaN")


def load_ratings(
    path: PathLike, scale: Optional[Tuple[float, float]] = (1.0, 9.0)
) -> RatingMatrix:
    """Read an items-by-raters rating matrix.

    The header row is the rater ids (its first cell labels the item column
    and is ignored).  An item id on a second row raises SchemaError.  Empty
    cells are missing values.  With ``scale`` set, any value outside the
    closed interval raises :class:`OutOfScale` naming the first such cell,
    row by row; pass ``scale=None`` for unbounded responses.  A ``scale``
    that is not an interval (a NaN bound, or ``lo > hi``) raises
    :class:`InvalidScale` before the file is read.
    """
    check_scale(scale)
    item_ids, rater_ids, values, lines = _read_grid(path)
    if len(rater_ids) < 2:
        raise SchemaError(f"{path}: need an id column and two raters")
    seen: Dict[object, int] = {}
    for item_id, line in zip(item_ids, lines):
        _once(path, seen, item_id, line, f"item {item_id!r}")
    if scale is not None:
        outside = np.argwhere((values < scale[0]) | (values > scale[1]))
        if len(outside):
            i, j = outside[0]
            raise OutOfScale(
                f"{path}:{lines[i]}: rating {float(values[i, j])} for item "
                f"{item_ids[i]!r} by {rater_ids[j]!r} is outside [{scale[0]}, {scale[1]}]"
            )
    return RatingMatrix(values=values, item_ids=item_ids, rater_ids=rater_ids)


def load_annotations(path: PathLike) -> Dict[str, Dict[int, TrackCategory]]:
    """Read per-song track role annotations: song_id, track_id, category, one row per track."""
    out: Dict[str, Dict[int, TrackCategory]] = {}
    seen: Dict[object, int] = {}
    for line, (song_id, track_cell, category_cell) in _records(
        path, ("song_id", "track_id", "category")
    ):
        try:
            track_id = int(track_cell)
        except ValueError:
            raise SchemaError(
                f"{path}:{line}: track id {track_cell!r} is not an integer"
            ) from None
        category = _CATEGORY_ALIASES.get(category_cell.lower())
        if category is None:
            raise SchemaError(
                f"{path}:{line}: unknown category {category_cell!r}; expected one "
                f"of {sorted(set(_CATEGORY_ALIASES))}"
            )
        _once(path, seen, (song_id, track_id), line, f"song {song_id!r} track {track_id}")
        out.setdefault(song_id, {})[track_id] = category
    return out


def load_tempos(path: PathLike) -> Dict[str, float]:
    """Read manually counted tempi: song_id, beats_per_second, one row per song."""
    out: Dict[str, float] = {}
    seen: Dict[object, int] = {}
    for line, (song_id, cell) in _records(path, ("song_id", "beats_per_second")):
        _once(path, seen, song_id, line, f"song {song_id!r}")
        value = _parse_float(cell, path, line)
        if value <= 0:
            raise SchemaError(f"{path}:{line}: tempo must be positive")
        out[song_id] = value
    return out


def load_calibration(path: PathLike) -> TableCalibration:
    """Read a measured loudness grid: velocity, volume, dB."""
    triples = []
    for line, row in _records(path, ("velocity", "volume", "dB")):
        try:
            velocity = int(row[0])
            volume = int(row[1])
        except ValueError:
            raise SchemaError(
                f"{path}:{line}: velocity and volume must be integers"
            ) from None
        triples.append((velocity, volume, _parse_float(row[2], path, line)))
    if not triples:
        raise SchemaError(f"{path}: empty calibration file")
    try:
        return TableCalibration(triples)
    except ValueError as err:
        raise SchemaError(f"{path}: {err}") from None


def load_table(path: PathLike) -> Tuple[Tuple[str, ...], Tuple[str, ...], np.ndarray]:
    """Read a numeric table: id column, named columns, empty cells -> NaN.

    Returns (item ids, column names, values).  ``# key=value`` preamble
    lines written by this package's own outputs are skipped.  A column name
    that appears twice raises SchemaError.
    """
    return _read_grid(path)[:3]


def format_number(value) -> str:
    """Full-precision, round-tripping text for machine output; '' for absent."""
    if value is None:
        return ""
    value = float(value)
    if math.isnan(value):
        return ""
    return repr(value)


def write_csv(
    path: PathLike,
    header: Sequence[str],
    rows: Iterable[Sequence],
    parameters: Optional[Dict[str, object]] = None,
) -> None:
    """Write a machine-readable CSV with a ``# key=value`` preamble.

    Numeric cells are written at full precision; None and NaN become empty
    cells.  Parameter lines come first, in the given order, so outputs are
    byte-identical across runs with the same inputs.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        for key, value in (parameters or {}).items():
            handle.write(f"# {key}={value}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            cells = []
            for cell in row:
                if cell is None:
                    cells.append("")
                elif isinstance(cell, bool):
                    cells.append(str(cell).lower())
                elif isinstance(cell, float):
                    cells.append(format_number(cell))
                else:
                    cells.append(str(cell))
            writer.writerow(cells)


def load_config(path: PathLike) -> Dict[str, object]:
    """Read a JSON run configuration: one flat object of option values."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            config = json.load(handle)
        except json.JSONDecodeError as err:
            raise SchemaError(f"{path}: not valid JSON ({err})") from None
        except UnicodeDecodeError as err:
            raise _not_utf8(path, err) from None
    if not isinstance(config, dict):
        raise SchemaError(f"{path}: configuration must be a JSON object")
    return config
