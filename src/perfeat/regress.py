"""Linear models: OLS with semipartial correlations, PLS1, repeated k-fold CV.

OLS is solved by orthogonal (QR) decomposition, never the normal equations,
and reports standardized coefficients, signed semipartial correlations, and
t-based two-tailed p-values.  PLS1 runs the kernel algorithm on autoscaled
data: its factors come from the k x k cross-products, and the fitted model is
one regression vector.  Both model types predict with the same affine map.
Cross-validation averages the pooled mean-squared error over repeated random
fold splits and is fully determined by its seed.  Each of them first divides
every predictor column and the response by the power of two of its peak.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .stats import _unit_scaled
from .tdist import student_t_two_tailed

_RANK_RTOL = 1e-10
_RANK_MARGIN = 1e3  # the safety factor of both rank certificates, PLS's and OLS cv's
_CV_STACK_VALUES = 1 << 16  # training design values per cross-validation stack


class TooFewRows(ValueError):
    """Fewer rows than the model or fold layout needs."""


class RankDeficient(ValueError):
    """The design matrix does not have full column rank."""


class RankExceeded(ValueError):
    """More latent factors requested than the predictors can support."""


class ConstantResponse(ValueError):
    """R-squared is undefined when the response does not vary."""


class SchemaMismatch(ValueError):
    """Prediction input does not match the columns the model was fit on."""


class DegenerateDeflationWarning(UserWarning):
    """Deflation left nothing to extract; the model was truncated."""


@dataclass(frozen=True)
class Design:
    """A complete-case regression design.

    Construct directly from clean arrays, or with :meth:`from_arrays` to
    drop rows containing missing values first.  Validates shape, finiteness,
    minimum row count (n > k + 1) and that no column is constant.
    """

    X: np.ndarray
    y: np.ndarray
    names: Tuple[str, ...]

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "names", tuple(self.names))
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be n x k and y length n")
        if X.shape[1] != len(self.names):
            raise ValueError("one name per predictor column is required")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("design contains missing values; use from_arrays")
        _check_rows_and_predictors(X, self.names)

    @classmethod
    def from_arrays(
        cls, X, y, names: Sequence[str]
    ) -> Tuple["Design", np.ndarray]:
        """Drop incomplete rows; returns the design and the kept-row mask."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        mask = np.isfinite(X).all(axis=1) & np.isfinite(y)
        return cls(X[mask], y[mask], tuple(names)), mask

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]


def _check_rows_and_predictors(X: np.ndarray, names: Sequence[str]) -> None:
    """Require n > k + 1 rows and no constant column."""
    if X.shape[0] <= X.shape[1] + 1:
        raise TooFewRows(f"{X.shape[0]} rows cannot support {X.shape[1]} predictors")
    spans = X.max(axis=0) - X.min(axis=0)
    if np.any(spans == 0):
        j = int(np.argmin(spans))
        raise RankDeficient(f"predictor {names[j]!r} is constant")


def _check_response(y: np.ndarray) -> None:
    """Require a response that takes more than one value."""
    if np.ptp(y) == 0:
        raise ConstantResponse("response does not vary")


class _LinearModel:
    """A fitted affine map, ``intercept + X @ coef`` over the columns ``names``."""

    def predict(self, X_new, names: Optional[Sequence[str]] = None) -> np.ndarray:
        """Predict each row of ``X_new``; a row with a missing value gives NaN."""
        if names is not None and tuple(names) != self.names:
            raise SchemaMismatch(
                f"prediction columns {tuple(names)} != model columns {self.names}"
            )
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        if X_new.shape[1] != len(self.names):
            raise SchemaMismatch(
                f"{X_new.shape[1]} prediction columns, model has {len(self.names)}"
            )
        out = np.full(X_new.shape[0], np.nan)
        ok = np.isfinite(X_new).all(axis=1)
        out[ok] = self.intercept + X_new[ok] @ self.coef
        return out


@dataclass(frozen=True)
class OlsFit(_LinearModel):
    """Ordinary least squares results.

    Coefficient arrays exclude the intercept and follow ``names`` order.
    ``sr`` is the signed semipartial correlation: the signed square root of
    the R-squared drop when that predictor is removed.  Removal raises the
    SSE by b_j^2 / [(X'X)^-1]_jj, so sr_j = b_j / sqrt([(X'X)^-1]_jj * SST).
    """

    names: Tuple[str, ...]
    intercept: float
    coef: np.ndarray
    beta_std: np.ndarray
    sr: np.ndarray
    se: np.ndarray
    t: np.ndarray
    p: np.ndarray
    r2: float
    adj_r2: float
    n: int
    k: int


def adjusted_r2(r2: float, n: int, k: int) -> float:
    """Shrink R-squared for model size: 1 - (1 - R2)(n - 1)/(n - k - 1)."""
    if n - k - 1 <= 0:
        raise TooFewRows("adjustment needs n > k + 1")
    return 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1)


def _qr_solve(X: np.ndarray, y: np.ndarray):
    """Least squares of y on [1, X] by thin QR: coefficients, residuals, Q and R."""
    X1 = np.column_stack([np.ones(len(X)), X])
    q, r = np.linalg.qr(X1)
    # Each |R_jj| is weighed against its own column's norm, so units move no verdict.
    if np.any(np.abs(np.diag(r)) <= _RANK_RTOL * np.linalg.norm(X1, axis=0)):
        raise RankDeficient("design matrix is rank deficient")
    coef = np.linalg.solve(r, q.T @ y)
    return coef, y - X1 @ coef, q, r


def ols_fit(design: Design) -> OlsFit:
    """Fit y on X with an intercept by orthogonal decomposition.

    Returns raw and standardized coefficients, signed semipartial
    correlations, standard errors, t statistics and two-tailed p-values.
    An exact fit has zero standard errors; its t statistics are signed
    infinity and its p-values 0, or 0 and 1 for a zero coefficient.  The fit
    runs on :func:`_unit_scaled` values; only ``coef``, ``intercept`` and ``se`` are scaled back.
    """
    n, k = design.n, design.k
    (X, x_exponent), (y, y_exponent) = _unit_scaled(design.X), _unit_scaled(design.y)
    coef, resid, _, r_factor = _qr_solve(X, y)
    sse = float(resid @ resid)
    _check_response(y)
    sst = float(((y - y.mean()) ** 2).sum())
    if sse <= 1e-24 * sst:  # exact fit up to rounding noise
        sse = 0.0
    r2 = 1.0 - sse / sst
    df = n - k - 1
    r_inv = np.linalg.solve(r_factor, np.eye(k + 1))
    unscaled = (r_inv * r_inv).sum(axis=1)  # diagonal of (X'X)^-1
    sigma2 = sse / df
    slopes = coef[1:]
    se = np.sqrt(sigma2 * unscaled[1:])
    exact = np.where(slopes == 0.0, 0.0, np.copysign(np.inf, slopes))
    t = np.divide(slopes, se, out=exact, where=se != 0.0)
    p = np.array([student_t_two_tailed(value, df) for value in t.tolist()])
    beta_std = slopes * X.std(axis=0, ddof=1) / y.std(ddof=1)
    sr = slopes / np.sqrt(unscaled[1:] * sst)
    return OlsFit(
        names=design.names,
        intercept=float(np.ldexp(coef[0], y_exponent)),
        coef=np.ldexp(slopes, y_exponent - x_exponent),
        beta_std=beta_std,
        sr=sr,
        se=np.ldexp(se, y_exponent - x_exponent),
        t=t,
        p=p,
        r2=r2,
        adj_r2=adjusted_r2(r2, n, k),
        n=n,
        k=k,
    )


@dataclass(frozen=True)
class PlsModel(_LinearModel):
    """A fitted one-response partial least squares model.

    ``beta_std`` is the regression vector on autoscaled data (centered, unit
    sample variance); ``coef`` and ``intercept`` are the same map in the
    original units.  ``m`` is the number of factors actually kept, which is
    lower than requested when the model was ``truncated``.  ``r2`` is the
    training R-squared.
    """

    names: Tuple[str, ...]
    m: int
    beta_std: np.ndarray
    coef: np.ndarray
    intercept: float
    truncated: bool
    r2: float


class _Autoscaled(NamedTuple):
    """A stack of B designs, autoscaled along their rows, with X'X held as R'R."""

    x_mean: np.ndarray  # (B, k)
    x_scale: np.ndarray  # (B, k)
    y_mean: np.ndarray  # (B,)
    y_scale: np.ndarray  # (B,)
    gram_root: np.ndarray  # (B, k, k): R, the triangular QR factor of Xs
    xy: np.ndarray  # (B, k): Xs'ys
    rank: np.ndarray  # (B,): the rank of Xs, capped at the factor count asked for


def _autoscale(X: np.ndarray, y: np.ndarray, m: int) -> _Autoscaled:
    """Centre and scale each design of the stack ``X`` (B, n, k), ``y`` (B, n).

    Forming X'X would square the condition number; on an ill-conditioned
    design its rounding swamps the later factors.  So X'X is held as R'R,
    from one batched QR of the autoscaled designs (n >= k, so R is square).
    The callers pass :func:`_unit_scaled` values, so no mean or scale
    overflows.  A column or response whose scale reads 0 (constant, or with
    squared deviations that all underflow) is divided by 1, so that a
    degenerate design still gives finite numbers for the caller to reject.
    ``rank`` is min(rank, ``m``), with ``matrix_rank``'s tolerance for the
    n x k shape.  Singular values interlace, so sigma_m(R) >= sigma_min of
    R's leading m x m block >= 1/|R[:m, :m]^-1|_F, and sigma_max(R) <= |R|_F:
    one batched m x m inverse proves the rank at least m when the product
    of the two norms clears that tolerance by ``_RANK_MARGIN``.  Only the
    others, an overflowing product among them, have singular values counted.
    """
    def centre(values):  # the means, deviations and sample SDs along each design's rows
        mean = values.mean(axis=1)
        deviations = values - mean[:, None]
        return mean, deviations, np.sqrt((deviations**2).sum(axis=1) / (values.shape[1] - 1))

    x_mean, Xs, x_scale = centre(X)
    y_mean, ys, y_scale = centre(y)
    Xs /= np.where(x_scale > 0, x_scale, 1.0)[:, None]
    ys /= np.where(y_scale > 0, y_scale, 1.0)[:, None]
    gram_root = np.linalg.qr(Xs, mode="r")
    tolerance = max(X.shape[1:]) * np.finfo(float).eps
    rank = np.full(len(X), m)
    if m > 0:
        lead = gram_root[:, :m, :m]
        invertible = (np.diagonal(lead, axis1=1, axis2=2) != 0).all(axis=1)
        inverse = np.linalg.inv(np.where(invertible[:, None, None], lead, np.eye(m)))
        with np.errstate(over="ignore"):  # an overflowing bound clears nothing
            bound = np.linalg.norm(gram_root, axis=(1, 2)) * np.linalg.norm(inverse, axis=(1, 2))
        uncleared = ~(invertible & (bound * (_RANK_MARGIN * tolerance) < 1.0))
        if uncleared.any():
            singular_values = np.linalg.svd(gram_root[uncleared], compute_uv=False)
            cut = singular_values.max(axis=1) * tolerance
            rank[uncleared] = np.minimum((singular_values > cut[:, None]).sum(axis=1), m)
    xy = np.einsum("bnk,bn->bk", Xs, ys)
    return _Autoscaled(x_mean, x_scale, y_mean, y_scale, gram_root, xy, rank)


def _pls_kernel(scaled: _Autoscaled, m: int):
    """Fit ``m`` kernel-PLS factors to each design of an autoscaled stack.

    Each factor takes its weight from the current ``xy``, deflates ``xy``
    by the factor's share, and adds its term to the regression vector.  A
    design whose ``xy`` or factor score energy vanishes keeps the factors
    it has and takes no more.  Returns the regression vectors on the
    autoscaled scale (B, k), the same maps in original units as
    coefficients (B, k) and intercepts (B,), and the factor counts kept.
    Products are BLAS-free ``einsum``, so no thread count moves a bit.
    """
    gram_root, xy = scaled.gram_root, scaled.xy
    count, k = xy.shape
    rotations = np.zeros((count, k, m))  # r_a: the weights as applied to Xs itself
    loadings = np.zeros((count, k, m))
    beta_std = np.zeros((count, k))
    kept = np.zeros(count, dtype=int)
    active = np.ones(count, dtype=bool)
    for a in range(m):
        w_norm = np.sqrt(np.einsum("bk,bk->b", xy, xy))
        active &= w_norm >= 1e-12
        w = xy / np.where(active, w_norm, 1.0)[:, None]
        r = w - np.einsum(
            "bka,ba->bk", rotations[:, :, :a], np.einsum("bka,bk->ba", loadings[:, :, :a], w)
        )
        # The factor scores Xs r, rotated into k dimensions.
        scores = np.einsum("bij,bj->bi", gram_root, r)
        score_energy = np.einsum("bi,bi->b", scores, scores)
        active &= score_energy >= 1e-24
        energy = np.where(active, score_energy, 1.0)
        gram_r = np.einsum("bji,bj->bi", gram_root, scores)
        q = np.where(active, np.einsum("bk,bk->b", r, xy) / energy, 0.0)
        xy = xy - gram_r * q[:, None]
        beta_std += q[:, None] * r
        rotations[:, :, a] = r
        loadings[:, :, a] = gram_r / energy[:, None]
        kept += active
    coef = beta_std * scaled.y_scale[:, None] / np.where(scaled.x_scale > 0, scaled.x_scale, 1.0)
    intercept = scaled.y_mean - np.einsum("bk,bk->b", coef, scaled.x_mean)
    return beta_std, coef, intercept, kept


def pls_fit(design: Design, m: int) -> PlsModel:
    """Extract ``m`` latent factors by the kernel algorithm on autoscaled data.

    The m-factor regression vector is the least-squares solution restricted
    to the Krylov space K_m(X'X, X'y) (Helland 1988).  The kernel algorithm
    (Dayal & MacGregor 1997) builds it from the k x k cross-products alone,
    with X'X held as R'R, R the triangular QR factor of X.  This is the
    one-design case of the stacked kernel that cross-validation runs on all
    training folds of a repeat at once.  The factors are those of the
    one-response iterative algorithm (NIPALS), which the tests keep as the
    oracle.  ``m`` = 0 is the null model that predicts the training mean.
    With ``m`` equal to the predictor rank, fitted values match OLS.  If
    ``xy`` or a factor's score energy vanishes early, the model is
    truncated with a warning.  The fit needs a predictor rank of at least
    ``m`` and proves only that where it can; a ``RankExceeded`` names the
    rank the singular values count, also for an ``m`` outside 0..k.  The
    fit runs on :func:`_unit_scaled` values, as :func:`ols_fit` does.
    """
    _check_response(design.y)
    (X, x_exponent), (y, y_exponent) = _unit_scaled(design.X), _unit_scaled(design.y)
    scaled = _autoscale(X[None], y[None], m if 0 <= m <= design.k else design.k)
    if not 0 <= m <= scaled.rank[0]:
        raise RankExceeded(f"{m} factors requested, predictor rank is {scaled.rank[0]}")
    beta_std, coef, intercept, kept = _pls_kernel(scaled, m)
    truncated = bool(kept[0] < m)
    if truncated:
        warnings.warn(f"deflation degenerate after {kept[0]} of {m} factors; model truncated",
                      DegenerateDeflationWarning, stacklevel=2)
    residual = y - (float(intercept[0]) + X @ coef[0])
    sst = float(((y - y.mean()) ** 2).sum())
    return PlsModel(
        names=design.names,
        m=int(kept[0]),
        beta_std=beta_std[0],
        coef=np.ldexp(coef[0], y_exponent - x_exponent),
        intercept=float(np.ldexp(intercept[0], y_exponent)),
        truncated=truncated,
        r2=1.0 - float(residual @ residual) / sst,
    )


@dataclass(frozen=True)
class CvReport:
    """Repeated k-fold cross-validation summary.

    ``mse_per_repeat`` is in the response's units squared, so it reads inf
    or 0.0 where the true MSE lies outside the float range; ``r2_cv`` does not.
    """

    method: str
    m: Optional[int]
    folds: int
    repeats: int
    seed: int
    n: int
    mse_per_repeat: Tuple[float, ...]
    r2_cv: float


def _fold_stacks(permutations: np.ndarray, folds: int):
    """Split each permutation row into ``folds`` parts as ``np.array_split`` does.

    The first n % folds parts hold one row more than the rest, so the
    parts come in at most two sizes.  Yields, per size, the index of its
    first fold, its fold count per repeat, and the held-out rows (B, size)
    and training rows (B, n - size) of its folds in (repeat, fold) order,
    the training rows ascending as a boolean mask gives them.
    """
    n = permutations.shape[1]
    size, extra = divmod(n, folds)
    start = 0
    for first, count, rows in ((0, extra, size + 1), (extra, folds - extra, size)):
        if count == 0:
            continue
        held_out = permutations[:, start : start + count * rows].reshape(-1, rows)
        start += count * rows
        keep = np.ones((len(held_out), n), dtype=bool)
        keep[np.arange(len(held_out))[:, None], held_out] = False
        yield first, count, held_out, np.nonzero(keep)[1].reshape(-1, n - rows)


def repeated_kfold_cv(
    design: Design,
    method: str = "ols",
    m: Optional[int] = None,
    folds: int = 10,
    repeats: int = 50,
    seed: int = 0,
) -> CvReport:
    """Average out-of-fold error over repeated random fold splits.

    Each repeat draws one permutation of the rows, splits it into ``folds``
    nearly equal parts (sizes differ by at most one), and pools the held-out
    squared errors into one MSE.  The summary is the mean over repeats of
    1 - MSE / Var(y), with the population variance of the full response.
    Identical inputs and seed give bit-identical results.  Both methods run
    on :func:`_unit_scaled` values; only ``mse_per_repeat`` is scaled back.

    The training folds of as many repeats as fit in ``_CV_STACK_VALUES``
    design values, and at least one, are stacked by size for at most two
    batched solves per method.  No bit depends on the stacking, and the
    held-out errors equal those of per-fold refits up to rounding.  OLS
    takes them from one full-data fit: they are (I - Q_F Q_F')^-1 r_F, the
    block PRESS identity (Hastie, Tibshirani & Friedman, ESL 7.10).  The
    block's determinant is det(X_tr'X_tr) / det(X'X), singular exactly when
    the training design is, which an eigenvalue below ``_RANK_RTOL`` marks.
    A batched Cholesky of the blocks less ``_RANK_MARGIN * _RANK_RTOL`` I
    that completes proves every eigenvalue above that shift, up to rounding
    of order size * eps (Higham 2002, ch. 10), so no fold is singular.
    Only a stack where it fails is decomposed by ``eigh``, which flags its
    folds.  Every fold that passes takes its errors from one batched solve,
    whichever way its stack was judged.  PLS autoscales the
    stacked training rows and runs the kernel of :func:`pls_fit` on the
    whole stack.  It looks for a constant training column by exact equality
    only in the folds where a column's scale does not exceed 8 n eps |mean|,
    which a constant column's rounding residue never does.  A factor count
    outside 0..k is an argument error.  The first degenerate training fold
    in (repeat, fold) order raises its domain error with a message that
    names the repeat and the fold.  Folds whose PLS models truncate are
    counted in one warning.
    """
    if method not in ("ols", "pls"):
        raise ValueError(f"unknown method {method!r}")
    if method == "pls" and m is None:
        raise ValueError("pls needs a factor count")
    if method == "pls" and not 0 <= m <= design.k:
        raise RankExceeded(f"{m} factors requested, the design has {design.k} predictors")
    if folds < 2:
        raise ValueError("at least two folds are required")
    if repeats < 1:
        raise ValueError("at least one repeat is required")
    n, k = design.n, design.k
    if n < 2 * folds:
        raise TooFewRows(f"{n} rows cannot fill {folds} folds")
    (X, _), (y, y_exponent) = _unit_scaled(design.X), _unit_scaled(design.y)
    _check_response(y)
    y_variance = float(y.var())
    rng = np.random.default_rng(seed)
    if method == "ols":
        _, resid, q, _ = _qr_solve(X, y)
    fewest = n - -(-n // folds)  # fold 1 holds out the most rows
    if fewest <= k + 1:
        raise TooFewRows(f"repeat 1 of {repeats}, fold 1 of {folds}: {fewest} rows cannot"
                         f" support {k} predictors")
    per_stack = max(1, _CV_STACK_VALUES // ((folds - 1) * n * k))
    mse_per_repeat = []
    truncated = 0
    for start in range(0, repeats, per_stack):
        stack = range(start, min(start + per_stack, repeats))  # the stack's repeats
        permutations = np.array([rng.permutation(n) for _ in stack])
        squared_errors = np.empty(permutations.shape)
        failures = []
        for first, count, held_out, train in _fold_stacks(permutations, folds):
            y_train = y[train]
            constant_response = np.ptp(y_train, axis=1) == 0
            if method == "ols":
                # A column constant in training makes the block singular too.
                q_f = q[held_out]
                eye = np.eye(held_out.shape[1])
                block = eye - np.einsum("bik,bjk->bij", q_f, q_f)
                try:
                    np.linalg.cholesky(block - _RANK_MARGIN * _RANK_RTOL * eye)
                    singular = np.zeros(len(block), dtype=bool)
                except np.linalg.LinAlgError:
                    # eigh's eigenvalues define the verdict; eigvalsh's differ in the last bits.
                    singular = np.linalg.eigh(block)[0][:, 0] < _RANK_RTOL
            else:
                # Autoscaling can leave a constant column a scale of 1e-17 and full rank.
                # Constant at v over n rows, a column keeps a scale of at most about
                # 1.1 n u |v|, so np.ptp judges only the folds with a column whose scale
                # is not above 8 n eps |mean|.
                X_train = X[train]
                scaled = _autoscale(X_train, y_train, m)
                bound = 8.0 * X_train.shape[1] * np.finfo(float).eps * np.abs(scaled.x_mean)
                suspect = (scaled.x_scale <= bound).any(axis=1)
                singular = scaled.rank < m
                singular[suspect] |= (np.ptp(X_train[suspect], axis=1) == 0).any(axis=1)
            flagged = singular | constant_response
            if flagged.any():
                # The first flagged fold's checks in a per-fold refit's order; its
                # TooFewRows cannot fire, as every fold has more than k + 1 rows.
                b = int(np.argmax(flagged))
                try:
                    _check_rows_and_predictors(X[train[b]], design.names)
                    if singular[b] and method == "ols":
                        raise RankDeficient("training design is rank deficient")
                    _check_response(y[train[b]])
                    rank = scaled.rank[b]
                    raise RankExceeded(f"{m} factors requested, predictor rank is {rank}")
                except (RankDeficient, ConstantResponse, RankExceeded) as error:
                    failures.append((b // count, first + b % count, error))
                continue
            if method == "ols":
                errors = np.linalg.solve(block, resid[held_out][:, :, None])[:, :, 0]
            else:
                _, coef, intercept, kept = _pls_kernel(scaled, m)
                truncated += int((kept < m).sum())
                fitted = intercept[:, None] + np.einsum("bsk,bk->bs", X[held_out], coef)
                errors = y[held_out] - fitted
            squared_errors[np.arange(len(held_out))[:, None] // count, held_out] = errors ** 2
        if failures:
            repeat, fold, error = min(failures)
            raise type(error)(f"repeat {stack[repeat] + 1} of {repeats},"
                              f" fold {fold + 1} of {folds}: {error}")
        mse_per_repeat.extend(float(row.mean()) for row in squared_errors)
    if truncated:
        warnings.warn(f"deflation degenerate in {truncated} of {repeats * folds} training folds;"
                      " models truncated", DegenerateDeflationWarning, stacklevel=2)
    r2_cv = float(np.mean([1.0 - mse / y_variance for mse in mse_per_repeat]))
    with np.errstate(over="ignore", under="ignore"):
        mse_per_repeat = np.ldexp(mse_per_repeat, 2 * y_exponent).tolist()
    return CvReport(
        method=method,
        m=m if method == "pls" else None,
        folds=folds,
        repeats=repeats,
        seed=seed,
        n=n,
        mse_per_repeat=tuple(mse_per_repeat),
        r2_cv=r2_cv,
    )
