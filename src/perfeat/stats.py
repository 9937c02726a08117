"""Rater agreement, deviant-rater flagging, and feature cross-correlation.

Ratings live in an items-by-raters matrix with NaN for missing cells.
Pairwise statistics use pairwise deletion; the internal-consistency
coefficient uses complete cases only.  Deviant raters are flagged, never
silently removed: trimming is the caller's explicit decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .tdist import student_t_two_tailed

MIN_PAIRS = 3
"""A correlation needs at least this many complete pairs."""

MIN_COMPLETE_ITEMS = 3
"""Internal consistency needs at least this many items rated by every rater."""

OUTLIER_SD_FACTOR = 2.5
"""Raters this many sample SDs below the mean agreement level are flagged."""

STAR_THRESHOLDS = ((0.001, "***"), (0.01, "**"), (0.05, "*"))


class TooFewPairs(ValueError):
    """Fewer complete pairs than a correlation needs."""


class ConstantInput(ValueError):
    """A correlation over a constant series is undefined."""


class TooFewItems(ValueError):
    """Too few complete rows for internal consistency."""


class AllDropped(ValueError):
    """Trimming would leave fewer than two raters."""


def _unit_scaled(values: np.ndarray, axis: Optional[int] = 0):
    """``values`` over the power of two of its peak along ``axis``, and the exponents.

    ``axis=0`` scales each column, ``axis=1`` each row and ``axis=None`` the
    whole array by one factor; an empty array is left as it is.  That
    division is exact (Higham 2002, 2.1), so a statistic keeps every bit
    while no sum of squares leaves the normal range; only what carries units
    is scaled back.
    """
    exponent = np.frexp(np.abs(values).max(axis=axis, initial=0.0, keepdims=True))[1]
    return np.ldexp(values, -exponent), exponent.squeeze(axis)


def stars_for_p(p: float) -> str:
    """Significance marker: strictly below .05, .01, .001."""
    for threshold, marker in STAR_THRESHOLDS:
        if p < threshold:
            return marker
    return ""


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation with pairwise deletion of missing values.

    Parameters
    ----------
    x, y : sequences of equal length; NaN marks a missing value.

    Returns
    -------
    float in [-1, 1].

    Raises
    ------
    TooFewPairs
        Fewer than :data:`MIN_PAIRS` complete pairs.
    ConstantInput
        Either series is constant over the complete pairs.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be one-dimensional and equally long")
    mask = np.isfinite(x) & np.isfinite(y)
    n = int(mask.sum())
    if n < MIN_PAIRS:
        raise TooFewPairs(f"{n} complete pairs, need {MIN_PAIRS}")
    xs = x[mask]
    ys = y[mask]
    x_max, x_min, y_max, y_min = xs.max(), xs.min(), ys.max(), ys.min()
    if x_max == x_min or y_max == y_min:
        raise ConstantInput("correlation of a constant series is undefined")
    # Each series divided by the power of two of its peak, which is exact and leaves r as
    # it is, so that no sum or sum of squares leaves the normal range.
    xs = np.ldexp(xs, -math.frexp(max(x_max, -x_min))[1])
    ys = np.ldexp(ys, -math.frexp(max(y_max, -y_min))[1])
    xc = xs - xs.sum() / n
    yc = ys - ys.sum() / n
    r = float(xc @ yc / math.sqrt(float(xc @ xc) * float(yc @ yc)))
    return max(-1.0, min(1.0, r))


def correlation_p_value(r: float, n: int) -> float:
    """Two-tailed p for a correlation of ``r`` over ``n`` pairs.

    Uses t = r sqrt((n - 2) / (1 - r^2)) with n - 2 degrees of freedom.
    |r| = 1 is an exact fit: p = 0.
    """
    if n < 3:
        raise TooFewPairs("a p-value needs at least three pairs")
    if abs(r) > 1:
        raise ValueError("correlation outside [-1, 1]")
    if abs(r) == 1.0:
        return 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return student_t_two_tailed(t, n - 2)


@dataclass(frozen=True)
class RatingMatrix:
    """Items-by-raters rating matrix with NaN for missing cells."""

    values: np.ndarray
    item_ids: Tuple[str, ...]
    rater_ids: Tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ValueError("ratings must form a two-dimensional matrix")
        if values.shape != (len(self.item_ids), len(self.rater_ids)):
            raise ValueError("rating matrix shape does not match its labels")
        if len(set(self.rater_ids)) != len(self.rater_ids):
            raise ValueError("duplicate rater ids")

    @property
    def n_items(self) -> int:
        return self.values.shape[0]

    @property
    def n_raters(self) -> int:
        return self.values.shape[1]

    def drop_raters(self, rater_ids: Sequence[str]) -> "RatingMatrix":
        """A copy without the named raters."""
        drop = set(rater_ids)
        unknown = drop - set(self.rater_ids)
        if unknown:
            raise ValueError(f"unknown rater ids: {sorted(unknown)}")
        keep = [j for j, rid in enumerate(self.rater_ids) if rid not in drop]
        if len(keep) < 2:
            raise AllDropped("fewer than two raters would remain")
        return RatingMatrix(
            values=self.values[:, keep],
            item_ids=self.item_ids,
            rater_ids=tuple(self.rater_ids[j] for j in keep),
        )


def cronbach_alpha(matrix: RatingMatrix) -> float:
    """Internal consistency of the rater panel over complete cases.

    alpha = k / (k - 1) * (1 - sum of per-rater variances / variance of row
    sums), with sample variances (ddof = 1) over rows where every rater is
    present.  Not clamped: strongly disagreeing panels go negative.  Fewer
    than :data:`MIN_COMPLETE_ITEMS` such rows raise :class:`TooFewItems`.
    Alpha is a ratio of variances across raters, so the panel is divided by
    one power of two, :func:`_unit_scaled` with ``axis=None``.
    """
    values = matrix.values
    complete = _unit_scaled(values[np.isfinite(values).all(axis=1)], axis=None)[0]
    if complete.shape[0] < MIN_COMPLETE_ITEMS:
        raise TooFewItems(
            f"{complete.shape[0]} complete items, need {MIN_COMPLETE_ITEMS}"
        )
    k = matrix.n_raters
    if k < 2:
        raise ValueError("internal consistency needs at least two raters")
    rater_variances = complete.var(axis=0, ddof=1)
    total_variance = complete.sum(axis=1).var(ddof=1)
    if total_variance == 0:
        raise ConstantInput("row sums are constant across items")
    return float(k / (k - 1) * (1.0 - rater_variances.sum() / total_variance))


@dataclass(frozen=True)
class AgreementReport:
    """Panel-level agreement summary for one rating matrix.

    ``alpha`` is None when fewer than :data:`MIN_COMPLETE_ITEMS` items are
    rated by every rater, or when their row sums are constant.
    ``per_rater_mean_r`` holds each rater's mean r over their defined pairs,
    in rater order (NaN with none); it is what :func:`flag_outlier_raters`
    reads, so flagging computes no correlation of its own.
    """

    mean_pairwise_r: float
    alpha: Optional[float]
    n_items: int
    n_complete_items: int
    n_raters: int
    per_rater_mean_r: Dict[str, float]
    skipped_pairs: Tuple[Tuple[str, str], ...]


def _pairwise_r(values: np.ndarray) -> np.ndarray:
    """Pearson matrix of the columns of ``values`` with pairwise deletion.

    Entry (a, b) equals ``pearson(values[:, a], values[:, b])`` up to
    rounding, and is NaN where that call raises: fewer than
    :data:`MIN_PAIRS` joint rows, or a column constant (by exact equality)
    over the joint rows.  Every pair comes from k x k products of n x k
    arrays, taken with ``einsum`` rather than BLAS so that the result does
    not depend on the BLAS thread count.  Each column is first divided by
    the power of two of its peak, which is exact and leaves r as it is, so
    that no sum or product overflows.  It is then centred by its own mean
    over its present rows, which Pearson's r ignores but which keeps the
    cancellation in ``sum x**2 - (sum x)**2 / n`` small: the error in r
    grows with a column's sum of squares about its own mean over the pair's
    joint rows, divided by its sum of squares about their mean.

    The constant test is exact, but it runs only for the columns that a
    rounding bound cannot clear.  A column constant over the n joint rows
    has one centred value d there, so its true spread ``squares - sums**2 / n``
    is 0 and the computed one is at most about 2(n + 1) eps ``squares``,
    in any summation order (gamma_n = nu / (1 - nu), Higham 2002, 4.2).  A
    pair whose spread exceeds 8(n + 2) eps ``squares`` is therefore not
    constant, and a term in the smallest normal number covers underflow.
    """
    present = np.isfinite(values)
    mask = present.astype(float)
    filled = np.where(present, values, 0.0)
    filled = _unit_scaled(filled)[0]
    counts = np.einsum("ia,ib->ab", mask, mask)
    x = np.where(present, filled - filled.sum(axis=0) / np.maximum(counts.diagonal(), 1.0), 0.0)
    sums = np.einsum("ia,ib->ab", x, mask)
    cross = np.einsum("ia,ib->ab", x, x)
    squares = np.einsum("ia,ib->ab", x * x, mask)
    n = np.maximum(counts, 1.0)
    spread = squares - sums * sums / n
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    uncleared = ~(spread > 8.0 * (counts + 2.0) * (eps * squares + tiny))
    constant = np.zeros(counts.shape, dtype=bool)
    for a in np.flatnonzero((uncleared & (counts >= MIN_PAIRS)).any(axis=1)):
        rows = present[:, a]
        column = values[rows, a][:, None]
        joint = present[rows]
        # pearson's equal extremes: every joint row equals the pair's first
        first = column[joint.argmax(axis=0), 0]
        constant[a] = ~(joint & (column != first)).any(axis=0)
    defined = (counts >= MIN_PAIRS) & ~constant & ~constant.T
    covariance = cross - sums * sums.T / n
    with np.errstate(invalid="ignore", divide="ignore"):
        r = covariance / np.sqrt(spread * spread.T)
    return np.where(defined, np.clip(r, -1.0, 1.0), np.nan)


def inter_rater_agreement(matrix: RatingMatrix) -> AgreementReport:
    """Mean pairwise correlation and internal consistency for a panel.

    Pairwise correlations use pairwise deletion; pairs that are undefined
    (constant rater, too much missingness) are skipped and reported.  The
    consistency coefficient uses complete cases and is absent (None) when
    there are too few of them or their row sums are constant.
    """
    r = _pairwise_r(matrix.values)
    ids = matrix.rater_ids
    a, b = np.triu_indices(matrix.n_raters, 1)  # the pairs in combinations order
    pairs = r[a, b]
    skipped = np.isnan(pairs)
    defined = pairs[~skipped]
    if not len(defined):
        raise ConstantInput("no rater pair has a defined correlation")
    # Rater j's row: r of each pair with j, NaN where undefined, all read off the
    # upper triangle so that no value depends on the kernel being symmetric to the bit.
    rows = np.full(r.shape, np.nan)
    rows[a, b] = rows[b, a] = pairs
    per_rater = [row[~np.isnan(row)] for row in rows]
    try:
        alpha = cronbach_alpha(matrix)
    except (TooFewItems, ConstantInput):
        alpha = None
    return AgreementReport(
        mean_pairwise_r=math.fsum(defined) / len(defined),
        alpha=alpha,
        n_items=matrix.n_items,
        n_complete_items=int(np.isfinite(matrix.values).all(axis=1).sum()),
        n_raters=matrix.n_raters,
        per_rater_mean_r={rid: math.fsum(rs) / len(rs) if len(rs) else math.nan
                          for rid, rs in zip(ids, per_rater)},
        skipped_pairs=tuple((ids[i], ids[j])
                            for i, j in zip(a[skipped].tolist(), b[skipped].tolist())),
    )


def flag_outlier_raters(report: AgreementReport) -> List[Tuple[str, float]]:
    """Raters whose mean correlation with the others marks them as deviant.

    Reads ``report.per_rater_mean_r``, in rater order.  A rater is flagged
    when their mean pairwise correlation is negative, undefined (no valid
    pair at all), or more than :data:`OUTLIER_SD_FACTOR` sample standard
    deviations below the across-rater mean.  Returns (rater id, mean r)
    pairs; callers decide whether to trim.
    """
    if report.n_raters < 3:
        raise ValueError("outlier flagging needs at least three raters")
    means = report.per_rater_mean_r
    defined = [m for m in means.values() if not math.isnan(m)]
    if defined:
        grand_mean = math.fsum(defined) / len(defined)
        sd = float(np.std(defined, ddof=1)) if len(defined) > 1 else 0.0
    else:
        grand_mean, sd = math.nan, 0.0
    flagged = []
    for rid, m in means.items():
        if math.isnan(m) or m < 0 or (sd > 0 and m < grand_mean - OUTLIER_SD_FACTOR * sd):
            flagged.append((rid, m))
    return flagged


def item_mean_ratings(
    matrix: RatingMatrix, drop_raters: Sequence[str] = ()
) -> np.ndarray:
    """Per-item mean over the raters present for that item.

    ``drop_raters`` removes flagged raters before averaging; at least two
    must remain.  Items no remaining rater scored come back as NaN.  Each
    item's sum runs on its ratings over one power of two, and its mean is
    scaled back, so no sum overflows.
    """
    sub = matrix.drop_raters(drop_raters) if drop_raters else matrix
    present = np.isfinite(sub.values)
    counts = present.sum(axis=1)
    filled, exponent = _unit_scaled(np.where(present, sub.values, 0.0), axis=1)
    means = np.ldexp(filled.sum(axis=1) / np.maximum(counts, 1), exponent)
    return np.where(counts > 0, means, np.nan)


@dataclass(frozen=True)
class CorrelationCell:
    """One entry of a correlation grid."""

    r: float
    n: int
    p: float
    stars: str


@dataclass(frozen=True)
class CrossCorrelation:
    """Symmetric correlation grid over named variables."""

    names: Tuple[str, ...]
    cells: Tuple[Tuple[Optional[CorrelationCell], ...], ...]

    def cell(self, row: str, col: str) -> Optional[CorrelationCell]:
        return self.cells[self.names.index(row)][self.names.index(col)]


def cross_correlation_matrix(
    table: np.ndarray, names: Sequence[str]
) -> CrossCorrelation:
    """All pairwise correlations among table columns, with significance.

    Each pair uses its own complete rows (pairwise deletion), so cell sample
    sizes differ when data are missing.  Pairs with too few rows or constant
    columns come back as None.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != len(names):
        raise ValueError("table shape does not match the variable names")
    k = len(names)
    present = np.isfinite(table).astype(float)
    counts = np.einsum("ia,ib->ab", present, present)  # joint rows of each pair
    grid: List[List[Optional[CorrelationCell]]] = [[None] * k for _ in range(k)]
    for i in range(k):
        grid[i][i] = CorrelationCell(r=1.0, n=int(counts[i, i]), p=0.0, stars="***")
    for i, j in combinations(range(k), 2):
        try:
            r = pearson(table[:, i], table[:, j])
        except (TooFewPairs, ConstantInput):
            continue
        n = int(counts[i, j])
        p = correlation_p_value(r, n)
        cell = CorrelationCell(r=r, n=n, p=p, stars=stars_for_p(p))
        grid[i][j] = cell
        grid[j][i] = cell
    return CrossCorrelation(
        names=tuple(names), cells=tuple(tuple(row) for row in grid)
    )
