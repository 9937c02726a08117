"""Linear models: OLS with semipartial correlations, PLS1, repeated k-fold CV.

OLS is solved by orthogonal (QR) decomposition, never the normal equations,
and reports standardized coefficients, signed semipartial correlations, and
t-based two-tailed p-values.  PLS1 runs the classic one-response iterative
algorithm on autoscaled data.  Cross-validation averages the pooled
mean-squared error over repeated random fold splits and is fully determined
by its seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .tdist import student_t_two_tailed

_RANK_RTOL = 1e-10


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


@dataclass(frozen=True)
class OlsFit:
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
    df_residual: int

    def predict(self, X_new, names: Optional[Sequence[str]] = None) -> np.ndarray:
        X_new = _check_prediction_input(X_new, self.names, names)
        out = np.full(X_new.shape[0], np.nan)
        ok = np.isfinite(X_new).all(axis=1)
        out[ok] = self.intercept + X_new[ok] @ self.coef
        return out


def adjusted_r2(r2: float, n: int, k: int) -> float:
    """Shrink R-squared for model size: 1 - (1 - R2)(n - 1)/(n - k - 1)."""
    if n - k - 1 <= 0:
        raise TooFewRows("adjustment needs n > k + 1")
    return 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1)


def _qr_solve(X1: np.ndarray, y: np.ndarray):
    """Least squares via thin QR; returns coefficients and the Q and R factors."""
    q, r = np.linalg.qr(X1)
    diag = np.abs(np.diag(r))
    if diag.min() < _RANK_RTOL * max(diag.max(), 1.0):
        raise RankDeficient("design matrix is rank deficient")
    coef = np.linalg.solve(r, q.T @ y)
    return coef, q, r


def ols_fit(design: Design) -> OlsFit:
    """Fit y on X with an intercept by orthogonal decomposition.

    Returns raw and standardized coefficients, signed semipartial
    correlations, standard errors, t statistics and two-tailed p-values.
    An exact fit has zero standard errors; its t statistics are signed
    infinity (zero for zero coefficients) and its p-values are zero.
    """
    X, y = design.X, design.y
    n, k = design.n, design.k
    X1 = np.column_stack([np.ones(n), X])
    coef, _, r_factor = _qr_solve(X1, y)
    fitted = X1 @ coef
    resid = y - fitted
    sse = float(resid @ resid)
    sst = float(((y - y.mean()) ** 2).sum())
    if sst == 0:
        raise ConstantResponse("response does not vary")
    if sse <= 1e-24 * sst:  # exact fit up to rounding noise
        sse = 0.0
    r2 = 1.0 - sse / sst
    df = n - k - 1
    r_inv = np.linalg.solve(r_factor, np.eye(k + 1))
    unscaled = (r_inv * r_inv).sum(axis=1)  # diagonal of (X'X)^-1
    sigma2 = sse / df
    se = np.sqrt(sigma2 * unscaled)
    t = np.empty(k + 1)
    p = np.empty(k + 1)
    for i in range(k + 1):
        if se[i] == 0.0:
            t[i] = 0.0 if coef[i] == 0.0 else math.copysign(math.inf, coef[i])
            p[i] = 1.0 if coef[i] == 0.0 else 0.0
        else:
            t[i] = coef[i] / se[i]
            p[i] = student_t_two_tailed(t[i], df)
    slopes = coef[1:]
    beta_std = slopes * X.std(axis=0, ddof=1) / y.std(ddof=1)
    sr = slopes / np.sqrt(unscaled[1:] * sst)
    return OlsFit(
        names=design.names,
        intercept=float(coef[0]),
        coef=slopes,
        beta_std=beta_std,
        sr=sr,
        se=se[1:],
        t=t[1:],
        p=p[1:],
        r2=r2,
        adj_r2=adjusted_r2(r2, n, k),
        n=n,
        k=k,
        df_residual=df,
    )


@dataclass(frozen=True)
class PlsModel:
    """A fitted one-response partial least squares model.

    Data are autoscaled (centered, unit sample variance) before factor
    extraction; stored scalers undo this at prediction time.  ``m`` is the
    number of factors actually kept, which is lower than requested when
    deflation degenerates.
    """

    names: Tuple[str, ...]
    m: int
    weights: np.ndarray  # k x m
    loadings: np.ndarray  # k x m
    q: np.ndarray  # m
    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: float
    y_scale: float
    truncated: bool

    def predict(self, X_new, names: Optional[Sequence[str]] = None) -> np.ndarray:
        X_new = _check_prediction_input(X_new, self.names, names)
        out = np.full(X_new.shape[0], np.nan)
        ok = np.isfinite(X_new).all(axis=1)
        if ok.any():
            residual = (X_new[ok] - self.x_mean) / self.x_scale
            accumulated = np.zeros(int(ok.sum()))
            for a in range(self.m):
                scores = residual @ self.weights[:, a]
                accumulated += self.q[a] * scores
                residual = residual - np.outer(scores, self.loadings[:, a])
            out[ok] = accumulated * self.y_scale + self.y_mean
        return out

    @property
    def beta_std(self) -> np.ndarray:
        """Equivalent regression vector on autoscaled data.

        Prediction is affine in the input, so pushing the identity matrix
        through the per-factor deflation recovers the collapsed linear map.
        """
        k = len(self.names)
        residual = np.eye(k)
        collapsed = np.zeros(k)
        for a in range(self.m):
            scores = residual @ self.weights[:, a]
            collapsed += self.q[a] * scores
            residual = residual - np.outer(scores, self.loadings[:, a])
        return collapsed

    @property
    def coef(self) -> np.ndarray:
        """Regression vector in the original units."""
        return self.beta_std * self.y_scale / self.x_scale

    @property
    def intercept(self) -> float:
        return float(self.y_mean - self.coef @ self.x_mean)


def pls_fit(design: Design, m: int) -> PlsModel:
    """Extract ``m`` latent factors by the one-response iterative algorithm.

    Each factor takes its weight vector from the covariance of the current
    X residual with the current y residual, then deflates both.  ``m`` = 0
    is the null model that predicts the training mean.  With ``m`` equal to
    the predictor rank, fitted values match OLS.  If a residual degenerates
    early the model is truncated with a warning.
    """
    X, y = design.X, design.y
    n, k = design.n, design.k
    x_mean = X.mean(axis=0)
    x_scale = X.std(axis=0, ddof=1)
    y_mean = float(y.mean())
    y_scale = float(y.std(ddof=1))
    if y_scale == 0:
        raise ConstantResponse("response does not vary")
    Xs = (X - x_mean) / x_scale
    ys = (y - y_mean) / y_scale
    rank = int(np.linalg.matrix_rank(Xs))
    if m < 0 or m > rank:
        raise RankExceeded(f"{m} factors requested, predictor rank is {rank}")
    weights = np.zeros((k, m))
    loadings = np.zeros((k, m))
    q = np.zeros(m)
    x_resid = Xs.copy()
    y_resid = ys.copy()
    kept = 0
    truncated = False
    for a in range(m):
        w = x_resid.T @ y_resid
        w_norm = float(np.linalg.norm(w))
        if w_norm < 1e-12:
            truncated = True
            break
        w /= w_norm
        scores = x_resid @ w
        score_energy = float(scores @ scores)
        if score_energy < 1e-24:
            truncated = True
            break
        loading = x_resid.T @ scores / score_energy
        q_a = float(y_resid @ scores) / score_energy
        x_resid = x_resid - np.outer(scores, loading)
        y_resid = y_resid - q_a * scores
        weights[:, a] = w
        loadings[:, a] = loading
        q[a] = q_a
        kept += 1
    if truncated:
        warnings.warn(
            f"deflation degenerate after {kept} of {m} factors; model truncated",
            DegenerateDeflationWarning,
            stacklevel=2,
        )
    return PlsModel(
        names=design.names,
        m=kept,
        weights=weights[:, :kept],
        loadings=loadings[:, :kept],
        q=q[:kept],
        x_mean=x_mean,
        x_scale=x_scale,
        y_mean=y_mean,
        y_scale=y_scale,
        truncated=truncated,
    )


def _check_prediction_input(
    X_new, model_names: Tuple[str, ...], names: Optional[Sequence[str]]
) -> np.ndarray:
    if names is not None and tuple(names) != model_names:
        raise SchemaMismatch(
            f"prediction columns {tuple(names)} != model columns {model_names}"
        )
    X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
    if X_new.shape[1] != len(model_names):
        raise SchemaMismatch(
            f"{X_new.shape[1]} prediction columns, model has {len(model_names)}"
        )
    return X_new


@dataclass(frozen=True)
class CvReport:
    """Repeated k-fold cross-validation summary."""

    method: str
    m: Optional[int]
    folds: int
    repeats: int
    seed: int
    n: int
    mse_per_repeat: Tuple[float, ...]
    r2_cv: float


def _press_errors(
    design: Design, q: np.ndarray, resid: np.ndarray, held_out: np.ndarray, train: np.ndarray
) -> np.ndarray:
    """Held-out errors of the OLS refit on ``train``, from the full-data fit.

    They are (I - Q_F Q_F')^-1 r_F, the block PRESS identity (Hastie,
    Tibshirani & Friedman, ESL 7.10).  The block's determinant is
    det(X_tr'X_tr) / det(X'X): singular exactly when the training design is.
    """
    _check_rows_and_predictors(design.X[train], design.names)
    q_f = q[held_out]
    eigenvalues, vectors = np.linalg.eigh(np.eye(len(held_out)) - q_f @ q_f.T)
    if eigenvalues[0] < _RANK_RTOL:
        raise RankDeficient("training design is rank deficient")
    if np.ptp(design.y[train]) == 0:
        raise ConstantResponse("response does not vary")
    return vectors @ (vectors.T @ resid[held_out] / eigenvalues)


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
    Identical inputs and seed give bit-identical results.  OLS errors equal
    those of per-fold refits up to rounding; PLS refits each fold.  A
    degenerate training fold raises its domain error with a message that
    names the repeat and the fold.
    """
    if method not in ("ols", "pls"):
        raise ValueError(f"unknown method {method!r}")
    if method == "pls" and m is None:
        raise ValueError("pls needs a factor count")
    if folds < 2:
        raise ValueError("at least two folds are required")
    if repeats < 1:
        raise ValueError("at least one repeat is required")
    n = design.n
    if n < 2 * folds:
        raise TooFewRows(f"{n} rows cannot fill {folds} folds")
    y_variance = float(design.y.var())
    if y_variance == 0:
        raise ConstantResponse("response does not vary")
    rng = np.random.default_rng(seed)
    if method == "ols":
        X1 = np.column_stack([np.ones(n), design.X])
        coef, q, _ = _qr_solve(X1, design.y)
        resid = design.y - X1 @ coef
    mse_per_repeat = []
    for repeat in range(repeats):
        squared_errors = np.empty(n)
        for fold, held_out in enumerate(np.array_split(rng.permutation(n), folds)):
            train = np.ones(n, dtype=bool)
            train[held_out] = False
            try:
                if method == "ols":
                    errors = _press_errors(design, q, resid, held_out, train)
                else:
                    sub = Design(design.X[train], design.y[train], design.names)
                    errors = design.y[held_out] - pls_fit(sub, m).predict(design.X[held_out])
            except (TooFewRows, RankDeficient, RankExceeded, ConstantResponse) as err:
                raise type(err)(
                    f"repeat {repeat + 1} of {repeats}, fold {fold + 1} of {folds}: {err}"
                ) from err
            squared_errors[held_out] = errors ** 2
        mse_per_repeat.append(float(squared_errors.mean()))
    r2_cv = float(np.mean([1.0 - mse / y_variance for mse in mse_per_repeat]))
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
