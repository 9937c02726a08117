"""Regression models against closed forms, identities and external oracles."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import NipalsPls, press_cv_by_eigh, svd_rank
from perfeat import regress
from perfeat.regress import (
    ConstantResponse,
    DegenerateDeflationWarning,
    Design,
    RankDeficient,
    RankExceeded,
    SchemaMismatch,
    TooFewRows,
    adjusted_r2,
    ols_fit,
    pls_fit,
    repeated_kfold_cv,
)

NAMES6 = ("a", "b", "c", "d", "e", "f")

# Derandomized so that every run of the suite draws the same examples.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def random_design(rng, n=50, k=5, noise=1.0):
    X = rng.normal(size=(n, k))
    coefficients = rng.normal(size=k)
    y = X @ coefficients + rng.normal(scale=noise, size=n)
    return Design(X, y, NAMES6[:k])


class TestDesign:
    def test_complete_case_filter(self):
        X = np.array([[1.0, 2.0], [np.nan, 1.0], [2.0, 3.0], [0.0, 1.0],
                      [3.0, 5.0], [1.0, 0.0]])
        y = np.array([1.0, 2.0, 3.0, np.nan, 5.0, 6.0])
        design, mask = Design.from_arrays(X, y, ("a", "b"))
        assert design.n == 4
        assert mask.tolist() == [True, False, True, False, True, True]

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            Design(np.eye(3), np.arange(3.0), ("a", "b", "c"))

    def test_constant_column(self):
        X = np.column_stack([np.arange(6.0), np.full(6, 2.0)])
        with pytest.raises(RankDeficient):
            Design(X, np.arange(6.0), ("a", "b"))

    def test_missing_values_in_direct_constructor(self):
        X = np.arange(12.0).reshape(6, 2)
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            Design(X, np.arange(6.0), ("a", "b"))


class TestAdjustedR2:
    def test_published_shrinkage(self):
        assert adjusted_r2(0.94, 100, 9) == pytest.approx(0.934, abs=1e-9)

    def test_small_sample_shrinkage(self):
        value = adjusted_r2(0.91, 66, 9)
        assert value == pytest.approx(0.8955, abs=1e-4)

    def test_perfect_fit_unshrunk(self):
        assert adjusted_r2(1.0, 30, 4) == pytest.approx(1.0, abs=1e-15)

    def test_needs_spare_rows(self):
        with pytest.raises(TooFewRows):
            adjusted_r2(0.5, 10, 9)


class TestOls:
    def test_exact_line(self):
        x = np.arange(10.0)
        y = 3.0 * x - 2.0
        fit = ols_fit(Design(x[:, None], y, ("x",)))
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.coef[0] == pytest.approx(3.0, abs=1e-9)
        assert fit.intercept == pytest.approx(-2.0, abs=1e-9)
        assert fit.beta_std[0] == pytest.approx(1.0, abs=1e-9)
        assert fit.se[0] == 0.0
        assert math.isinf(fit.t[0]) and fit.t[0] > 0
        assert fit.p[0] == 0.0

    def test_exact_line_with_negative_slope(self):
        x = np.arange(10.0)
        fit = ols_fit(Design(x[:, None], 5.0 - 2.0 * x, ("x",)))
        assert fit.se[0] == 0.0
        assert fit.t[0] == -math.inf
        assert fit.p[0] == 0.0

    def test_orthogonal_design_variance_shares(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        y = np.array([2.0, 1.0, -2.0, -1.0])
        fit = ols_fit(Design(X, y, ("a", "b")))
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.sr[0] ** 2 == pytest.approx(0.8, abs=1e-12)
        assert fit.sr[1] ** 2 == pytest.approx(0.2, abs=1e-12)
        assert fit.sr[0] > 0 and fit.sr[1] > 0

    def test_sr_sign_follows_coefficient(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        y = np.array([2.0, -1.0, -2.0, 1.0])
        fit = ols_fit(Design(X, y, ("a", "b")))
        assert fit.sr[0] > 0 and fit.sr[1] < 0

    def test_semipartial_identity(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            design = random_design(rng, n=40, k=4)
            fit = ols_fit(design)
            df = design.n - design.k - 1
            for j in range(design.k):
                implied = fit.t[j] ** 2 * (1 - fit.r2) / df
                assert fit.sr[j] ** 2 == pytest.approx(implied, abs=1e-9)

    @PROPERTY
    @given(
        k=st.integers(1, 6),
        spare=st.integers(1, 40),
        noise=st.sampled_from([0.0, 0.1, 1.0, 10.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_semipartial_equals_drop_one_r2_loss(self, k, spare, noise, seed):
        rng = np.random.default_rng(seed)
        n = k + 1 + spare
        design = random_design(rng, n=n, k=k, noise=noise)
        fit = ols_fit(design)
        sst = float(((design.y - design.y.mean()) ** 2).sum())
        for j in range(k):
            X1 = np.column_stack([np.ones(n), np.delete(design.X, j, axis=1)])
            resid = design.y - X1 @ np.linalg.lstsq(X1, design.y, rcond=None)[0]
            loss = fit.r2 - (1.0 - float(resid @ resid) / sst)
            assert fit.sr[j] ** 2 == pytest.approx(loss, abs=1e-9)
            assert np.sign(fit.sr[j]) == np.sign(fit.coef[j])

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            design = random_design(rng)
            fit = ols_fit(design)
            residual = design.y - fit.predict(design.X)
            scale = np.linalg.norm(design.y)
            assert abs(residual.sum()) <= 1e-8 * scale
            assert np.abs(design.X.T @ residual).max() <= 1e-8 * scale

    def test_r2_matches_correlation_of_fitted(self):
        rng = np.random.default_rng(53)
        design = random_design(rng)
        fit = ols_fit(design)
        fitted = fit.predict(design.X)
        r = np.corrcoef(fitted, design.y)[0, 1]
        assert fit.r2 == pytest.approx(r * r, abs=1e-10)

    def test_response_scale_equivariance(self):
        rng = np.random.default_rng(54)
        design = random_design(rng)
        fit = ols_fit(design)
        scaled = ols_fit(Design(design.X, 3.0 * design.y, design.names))
        assert scaled.r2 == pytest.approx(fit.r2, abs=1e-12)
        assert scaled.adj_r2 == pytest.approx(fit.adj_r2, abs=1e-12)
        np.testing.assert_allclose(scaled.beta_std, fit.beta_std, atol=1e-10)
        np.testing.assert_allclose(scaled.sr, fit.sr, atol=1e-10)
        np.testing.assert_allclose(scaled.p, fit.p, atol=1e-10)
        np.testing.assert_allclose(scaled.coef, 3.0 * fit.coef, atol=1e-10)

    @pytest.mark.parametrize("power", [-600, 600])
    def test_power_of_two_response_scaling_moves_no_bit(self, power):
        # At 2**600 the response's sums of squares overflow, and at 2**-600
        # they fall below the normal range.  So do cv's squared errors: its
        # per-repeat MSEs read inf or 0.0, but r2_cv keeps every bit.
        design = random_design(np.random.default_rng(57), n=30, k=3)
        scaled = Design(design.X, np.ldexp(design.y, power), design.names)
        runs = [("ols", None), ("pls", 2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit, model = ols_fit(scaled), pls_fit(scaled, 2)
            reports = [repeated_kfold_cv(scaled, *run, folds=5, repeats=3) for run in runs]
        reference, reference_model = ols_fit(design), pls_fit(design, 2)
        for report, run in zip(reports, runs):
            expected = repeated_kfold_cv(design, *run, folds=5, repeats=3)
            assert report.r2_cv == expected.r2_cv
            with np.errstate(over="ignore", under="ignore"):
                mse = np.ldexp(expected.mse_per_repeat, 2 * power)
            assert report.mse_per_repeat == tuple(mse.tolist())
            assert set(report.mse_per_repeat) == {np.inf if power > 0 else 0.0}
        for name in ("r2", "adj_r2", "t", "p", "beta_std", "sr"):
            assert np.array_equal(getattr(fit, name), getattr(reference, name)), name
        for name in ("coef", "intercept", "se"):
            assert np.array_equal(getattr(fit, name), np.ldexp(getattr(reference, name), power))
        assert model.r2 == reference_model.r2
        assert model.beta_std.tolist() == reference_model.beta_std.tolist()
        assert model.coef.tolist() == np.ldexp(reference_model.coef, power).tolist()
        assert model.intercept == np.ldexp(reference_model.intercept, power)

    def test_predictor_shift_moves_intercept_only(self):
        rng = np.random.default_rng(55)
        design = random_design(rng)
        fit = ols_fit(design)
        shifted = ols_fit(Design(design.X + 5.0, design.y, design.names))
        np.testing.assert_allclose(shifted.coef, fit.coef, atol=1e-9)
        np.testing.assert_allclose(
            shifted.predict(design.X + 5.0), fit.predict(design.X), atol=1e-9
        )

    @PROPERTY
    @given(k=st.integers(1, 5), column=st.integers(0, 4), power=st.integers(-12, 12),
           seed=st.integers(0, 2**32 - 1))
    @example(k=2, column=1, power=-12, seed=0)
    @example(k=2, column=1, power=12, seed=0)
    def test_predictor_units_move_no_statistic(self, k, column, power, seed):
        # The rank test weighs each column against its own norm, so a
        # predictor in other units fits as before, and a copy still does not.
        design = random_design(np.random.default_rng(seed), k=k)
        j = column % k
        X = design.X.copy()
        X[:, j] *= 10.0 ** power
        scaled = Design(X, design.y, design.names)
        fit, refit = ols_fit(design), ols_fit(scaled)
        np.testing.assert_allclose(refit.t, fit.t, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(refit.p, fit.p, rtol=1e-12, atol=1e-12)
        assert refit.r2 == pytest.approx(fit.r2, rel=1e-12, abs=1e-12)
        cv, recv = (repeated_kfold_cv(d, "ols", folds=5, repeats=2) for d in (design, scaled))
        assert recv.r2_cv == pytest.approx(cv.r2_cv, rel=1e-12, abs=1e-12)
        copied = Design(np.column_stack([X, X[:, j]]), design.y, (*design.names, "copy"))
        with pytest.raises(RankDeficient):
            ols_fit(copied)

    def test_against_scipy_simple_regression(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(56)
        x = rng.normal(size=30)
        y = 2.0 * x + rng.normal(size=30)
        fit = ols_fit(Design(x[:, None], y, ("x",)))
        ref = scipy_stats.linregress(x, y)
        assert fit.coef[0] == pytest.approx(float(ref.slope), abs=1e-12)
        assert fit.intercept == pytest.approx(float(ref.intercept), abs=1e-12)
        assert fit.se[0] == pytest.approx(float(ref.stderr), abs=1e-12)
        assert fit.p[0] == pytest.approx(float(ref.pvalue), abs=1e-12)

    def test_duplicate_column_rank_deficient(self):
        rng = np.random.default_rng(57)
        x = rng.normal(size=12)
        X = np.column_stack([x, x])
        with pytest.raises(RankDeficient):
            ols_fit(Design(X, rng.normal(size=12), ("a", "b")))

    def test_constant_response(self):
        # 12 copies of 0.1 average to a value other than 0.1, so their
        # computed spread is about 1e-17 rather than 0.
        rng = np.random.default_rng(58)
        X = rng.normal(size=(12, 2))
        for value in (4.0, 0.1):
            design = Design(X, np.full(12, value), ("a", "b"))
            with pytest.raises(ConstantResponse):
                ols_fit(design)
            with pytest.raises(ConstantResponse):
                pls_fit(design, 1)
            for method in ("ols", "pls"):
                with pytest.raises(ConstantResponse, match="^response does not vary$"):
                    repeated_kfold_cv(design, method, m=1, folds=3, repeats=1)

    def test_prediction_schema(self):
        rng = np.random.default_rng(59)
        design = random_design(rng, k=3)
        fit = ols_fit(design)
        with pytest.raises(SchemaMismatch):
            fit.predict(design.X[:, :2])
        with pytest.raises(SchemaMismatch):
            fit.predict(design.X, names=("a", "b", "z"))
        ok = fit.predict(design.X, names=design.names)
        assert np.isfinite(ok).all()

    def test_prediction_with_missing_rows(self):
        rng = np.random.default_rng(60)
        design = random_design(rng, k=2)
        fit = ols_fit(design)
        X_new = design.X[:4].copy()
        X_new[2, 1] = np.nan
        out = fit.predict(X_new)
        assert np.isnan(out[2])
        assert np.isfinite(out[[0, 1, 3]]).all()


class TestPls:
    def test_single_predictor_equals_simple_regression(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=25)
        y = 1.5 * x + rng.normal(scale=0.3, size=25)
        design = Design(x[:, None], y, ("x",))
        np.testing.assert_allclose(
            pls_fit(design, 1).predict(design.X),
            ols_fit(design).predict(design.X),
            atol=1e-10,
        )

    def test_hand_example_first_factor(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        y = np.array([1.0, 0.0, -1.0, 0.0])
        oracle = NipalsPls(X, y, 1)
        np.testing.assert_allclose(oracle.weights[:, 0], [1.0, 0.0], atol=1e-12)
        assert oracle.q[0] == pytest.approx(1.0, abs=1e-12)
        model = pls_fit(Design(X, y, ("a", "b")), 1)
        np.testing.assert_allclose(model.beta_std, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-12)

    def test_full_rank_equals_ols(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            design = random_design(rng, n=40, k=5)
            pls_predictions = pls_fit(design, 5).predict(design.X)
            ols_predictions = ols_fit(design).predict(design.X)
            np.testing.assert_allclose(pls_predictions, ols_predictions, atol=1e-6)

    def test_scores_orthogonal(self):
        rng = np.random.default_rng(63)
        design = random_design(rng, n=30, k=4)
        X, y = design.X, design.y
        x_resid = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
        y_resid = (y - y.mean()) / y.std(ddof=1)
        model = NipalsPls(X, y, 4)
        scores = []
        for a in range(model.m):
            t = x_resid @ model.weights[:, a]
            scores.append(t)
            x_resid = x_resid - np.outer(t, model.loadings[:, a])
        scores = np.column_stack(scores)
        gram = scores.T @ scores
        off_diagonal = gram - np.diag(np.diag(gram))
        assert np.abs(off_diagonal).max() <= 1e-8 * np.abs(np.diag(gram)).max()

    def test_training_r2_monotone_in_m(self):
        rng = np.random.default_rng(64)
        design = random_design(rng, n=30, k=4)
        sse_previous = np.inf
        for m in range(5):
            fitted = pls_fit(design, m).predict(design.X)
            sse = float(((design.y - fitted) ** 2).sum())
            assert sse <= sse_previous + 1e-9
            sse_previous = sse

    def test_null_model_predicts_training_mean(self):
        rng = np.random.default_rng(65)
        design = random_design(rng)
        model = pls_fit(design, 0)
        np.testing.assert_allclose(
            model.predict(design.X), np.full(design.n, design.y.mean()), atol=1e-12
        )

    def test_rank_exceeded(self):
        rng = np.random.default_rng(66)
        design = random_design(rng, n=20, k=3)
        with pytest.raises(RankExceeded):
            pls_fit(design, 4)
        with pytest.raises(RankExceeded):
            pls_fit(design, -1)

    def test_degenerate_deflation_truncates_with_warning(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        y = np.array([1.0, 0.0, -1.0, 0.0])  # fully explained by one factor
        with pytest.warns(DegenerateDeflationWarning):
            model = pls_fit(Design(X, y, ("a", "b")), 2)
        assert model.m == 1
        assert model.truncated

    def test_against_sklearn(self):
        sklearn_pls = pytest.importorskip("sklearn.cross_decomposition")
        rng = np.random.default_rng(67)
        for _ in range(10):
            design = random_design(rng, n=40, k=6)
            for m in (1, 2, 4, 6):
                ours = pls_fit(design, m).predict(design.X)
                reference = (
                    sklearn_pls.PLSRegression(n_components=m, scale=True)
                    .fit(design.X, design.y)
                    .predict(design.X)
                    .ravel()
                )
                np.testing.assert_allclose(ours, reference, atol=1e-8)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_equals_nipals_oracle(self, seed):
        """The kernel fit is the NIPALS fit, up to the rounding the design allows.

        Each draw takes k, n, m in 0..k, an autoscaled condition number up
        to 1e8, column scales 1e-3..1e3, offsets up to 1e3 and a noise
        level uniformly from its seed, so that hypothesis's preference for
        small values does not pile the draws onto m = 0 and cond = 1.
        """
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 7))
        n = k + 2 + int(rng.integers(0, 31))
        u = np.linalg.qr(rng.normal(size=(n, k)))[0]
        v = np.linalg.qr(rng.normal(size=(k, k)))[0]
        Z = (u * np.logspace(0.0, -rng.uniform(0.0, 8.0), k)) @ v.T
        X = Z * 10.0 ** rng.uniform(-3, 3, size=k) + rng.uniform(-1e3, 1e3, size=k)
        Xs = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
        cond = float(np.linalg.cond(Xs))
        assume(cond <= 1e8)
        y = Xs @ rng.normal(size=k) + rng.choice([0.0, 1e-6, 0.1, 1.0]) * rng.normal(size=n)
        y = y * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-1e3, 1e3)
        m = int(rng.integers(0, k + 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = pls_fit(Design(X, y, NAMES6[:k]), m)
        warned = any(issubclass(w.category, DegenerateDeflationWarning) for w in caught)
        oracle = NipalsPls(X, y, m)
        assert (model.m, model.truncated, warned) == (
            oracle.m, oracle.truncated, oracle.truncated
        )
        # Two backward-stable fits of the same data differ by up to the
        # first-order perturbation bound of least squares,
        # eps * (cond * |y| + cond**2 * |residual|); NIPALS run on the rows
        # in another order moves that far too.  The 1e-10 term dominates up
        # to cond ~ 4e3 for an exact fit, ~ 70 for a residual as large as y.
        ys = (y - oracle.y_mean) / oracle.y_scale
        size = float(np.linalg.norm(ys))
        residual = float(np.linalg.norm(ys - Xs @ oracle.beta_std))
        eps = np.finfo(float).eps
        tolerance = 1e-10 * size + 100 * eps * (cond * size + cond**2 * residual)
        assert np.linalg.norm(Xs @ (model.beta_std - oracle.beta_std)) <= tolerance
        # intercept + X @ coef rounds on the scale of its terms.
        terms = abs(oracle.y_mean) + oracle.y_scale * (
            (np.abs(X) + np.abs(oracle.x_mean)) / oracle.x_scale
        ) @ np.abs(oracle.beta_std)
        gap = np.abs(model.predict(X) - oracle.predict(X))
        assert np.all(gap <= 1e-10 * terms + oracle.y_scale * tolerance)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_truncation_equals_nipals_oracle(self, m):
        """Exact early breakdowns truncate where NIPALS does, with the warning."""
        hand_X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        hand_y = np.array([1.0, 0.0, -1.0, 0.0])
        random_X = np.random.default_rng(69).normal(size=(12, 3))
        Xs = (random_X - random_X.mean(axis=0)) / random_X.std(axis=0, ddof=1)
        # A left singular vector of the autoscaled design: y is its own first factor.
        first_factor_y = 3.0 + 2.0 * np.linalg.svd(Xs)[0][:, 0]
        for X, y in ((hand_X, hand_y), (random_X, first_factor_y)):
            if m > X.shape[1]:
                continue
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                model = pls_fit(Design(X, y, NAMES6[: X.shape[1]]), m)
            oracle = NipalsPls(X, y, m)
            warned = any(issubclass(w.category, DegenerateDeflationWarning) for w in caught)
            assert (model.m, model.truncated, warned) == (oracle.m, oracle.truncated, m > 1)
            assert oracle.m == 1

    def test_rank_from_the_design_not_its_cross_products(self):
        rng = np.random.default_rng(70)
        X = rng.normal(size=(30, 2))
        design = Design(np.column_stack([X, X[:, 0] + X[:, 1]]), rng.normal(size=30), NAMES6[:3])
        assert pls_fit(design, 2).m == 2
        with pytest.raises(RankExceeded, match="predictor rank is 2"):
            pls_fit(design, 3)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 6))
    @example(seed=0, count=1)
    def test_rank_certificate_equals_svd_count(self, seed, count):
        """For every factor count m, the stack's ranks are the singular-value
        counts where those are below m, and m elsewhere, with or without an SVD.

        Each design is full rank, exactly collinear in its last column,
        constant in one column, or exactly collinear in its first two columns
        (rank k - 1, so that every leading block from m = 2 on is singular and
        only the SVD can show the rank), with an autoscaled condition number
        up to 1e17, column scales 1e-8..1e8 and offsets up to 1e3.
        """
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 22))
        n = k + 2 + int(rng.integers(0, 80))
        designs = []
        for kind in rng.integers(0, 4, size=count):
            u = np.linalg.qr(rng.normal(size=(n, k)))[0]
            v = np.linalg.qr(rng.normal(size=(k, k)))[0]
            Z = (u * np.logspace(0.0, -rng.uniform(0.0, 17.0), k)) @ v.T
            if kind == 1 and k > 1:
                Z[:, -1] = Z[:, 0] * rng.normal()
            elif kind == 2:
                Z[:, rng.integers(k)] = rng.normal()
            elif kind == 3 and k > 1:
                Z[:, 1] = Z[:, 0] * rng.normal()
            scales = 10.0 ** rng.uniform(-8, 8, size=k)
            designs.append(Z * scales + rng.uniform(-1e3, 1e3, size=k))
        X, y = np.array(designs), rng.normal(size=(count, n))
        for m in range(k + 1):
            scaled = regress._autoscale(X, y, m)
            counted = svd_rank(scaled.gram_root, n)
            assert scaled.rank.tolist() == np.minimum(counted, m).tolist(), m

    @pytest.mark.parametrize("power, offset", [
        pytest.param(-540, 0.0, id="-540"),
        pytest.param(540, 0.0, id="540"),
        pytest.param(1018, 5.0, id="1018"),
    ])
    def test_power_of_two_column_scaling_moves_no_bit(self, power, offset):
        # The squared deviations of a column scaled by 2**540 overflow, and
        # those of one scaled by 2**-540 fall below the normal range.  At
        # 2**1018, about 1e307 per value, the column's sum overflows too.
        design = random_design(np.random.default_rng(84), n=30, k=3)
        design = Design(design.X + [0.0, offset, 0.0], design.y, design.names)
        X = design.X.copy()
        X[:, 1] = np.ldexp(X[:, 1], power)
        scaled = Design(X, design.y, design.names)
        runs = [("pls", 2), ("ols", None)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, fit = pls_fit(scaled, 3), ols_fit(scaled)
            reports = [repeated_kfold_cv(scaled, *run, folds=5, repeats=3, seed=1) for run in runs]
        reference, reference_fit = pls_fit(design, 3), ols_fit(design)
        assert model.beta_std.tolist() == reference.beta_std.tolist()
        assert model.coef[1] == np.ldexp(reference.coef[1], -power)
        assert model.predict(X).tolist() == reference.predict(design.X).tolist()
        for name in ("t", "p", "r2", "sr", "beta_std"):
            assert np.array_equal(getattr(fit, name), getattr(reference_fit, name)), name
        for name in ("coef", "se"):
            expected = getattr(reference_fit, name).copy()
            expected[1] = np.ldexp(expected[1], -power)
            assert getattr(fit, name).tolist() == expected.tolist(), name
        for report, run in zip(reports, runs):
            assert report == repeated_kfold_cv(design, *run, folds=5, repeats=3, seed=1)

    def test_column_near_the_largest_double_fits_by_ols_too(self):
        # The squares of 1e307 overflowed the OLS rank test's column norms,
        # and the fit ended in "t statistic is NaN".
        rng = np.random.default_rng(86)
        X = np.column_stack([rng.normal(size=30), 1e307 * (5.0 + rng.uniform(size=30))])
        design = Design(X, X[:, 0] + 0.5 * rng.normal(size=30), ("a", "b"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit, model = ols_fit(design), pls_fit(design, 2)
        assert fit.r2 == pytest.approx(model.r2, abs=1e-12)
        assert np.isfinite(fit.p).all()

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_huge_or_tiny_column_keeps_its_rank(self, scale):
        # At 1e160 the column's squared deviations overflowed, and at
        # 1e-170 they underflowed to 0, so its scale read inf or 1 and the
        # design rank 1.
        rng = np.random.default_rng(85)
        X = rng.normal(size=(30, 2))
        y = X @ np.array([1.0, 2.0]) + 0.1 * rng.normal(size=30)
        reference = pls_fit(Design(X, y, ("a", "b")), 2)
        X[:, 1] *= scale
        design = Design(X, y, ("a", "b"))
        assert pls_fit(design, 2).r2 == pytest.approx(reference.r2, abs=1e-12)
        report = repeated_kfold_cv(design, "pls", 2, folds=5, repeats=2, seed=0)
        assert report.r2_cv > 0.99

    def test_full_rank_designs_need_no_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(a) or svd(*a, **kw))
        rng = np.random.default_rng(81)
        names = tuple(f"x{j}" for j in range(21))
        design = Design(rng.normal(size=(100, 21)), rng.normal(size=100), names)
        repeated_kfold_cv(design, "pls", m=3, folds=10, repeats=5, seed=0)
        pls_fit(design, 3)
        assert calls == []
        # A collinear design cannot be cleared, so its rank is counted.
        collinear = np.column_stack([design.X[:, :20], design.X[:, 0] + design.X[:, 1]])
        with pytest.raises(RankExceeded, match="predictor rank is 20"):
            pls_fit(Design(collinear, design.y, names), 21)
        assert len(calls) == 1

    def test_predict_missing_rows(self):
        rng = np.random.default_rng(68)
        design = random_design(rng, k=3)
        model = pls_fit(design, 2)
        X_new = design.X[:3].copy()
        X_new[1, 0] = np.nan
        out = model.predict(X_new)
        assert np.isnan(out[1]) and np.isfinite(out[[0, 2]]).all()


def test_stacked_cholesky_raises_when_one_matrix_is_not_positive_definite():
    """The numpy behaviour OLS ``cv``'s certificate relies on: one LinAlgError
    for the whole stack, from any matrix of it, and none for a definite stack.

    A NaN pivot need not raise, but a PRESS block of a finite
    design is finite.
    """
    stack = np.tile(np.eye(4), (5, 1, 1))
    np.linalg.cholesky(stack)
    for b, value in ((0, -1e-12), (2, 0.0), (4, -1.0)):
        broken = stack.copy()
        broken[b, 3, 3] = value
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(broken)


class TestCrossValidation:
    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_huge_or_tiny_response_keeps_r2_cv(self, scale):
        # The squared errors of a response at 1e160 overflowed, and those of
        # one at 1e-170 underflowed, so r2_cv read NaN or divided by zero.
        design = random_design(np.random.default_rng(88), n=30, k=2)
        scaled = Design(design.X, scale * design.y, design.names)
        for run in (("ols", None), ("pls", 1), ("pls", 2)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = repeated_kfold_cv(scaled, *run, folds=5, repeats=3)
            expected = repeated_kfold_cv(design, *run, folds=5, repeats=3)
            assert report.r2_cv == pytest.approx(expected.r2_cv, abs=1e-12), run

    def test_column_with_a_tiny_spread_in_one_training_fold(self):
        # Without its one row at 1.0, column b spreads over 1e-170: its
        # training-fold squared deviations underflow to 0, so its scale reads
        # 0 and its factor of R is far below the rank tolerance.
        rng = np.random.default_rng(87)
        X = np.column_stack([rng.normal(size=30), 1e-170 * rng.normal(size=30)])
        X[7, 1] = 1.0
        design = Design(X, X[:, 0] + 0.1 * rng.normal(size=30), ("a", "b"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankExceeded) as pls_error:
                repeated_kfold_cv(design, "pls", 2, folds=5, repeats=3)
            with pytest.raises(RankDeficient) as ols_error:
                repeated_kfold_cv(design, "ols", folds=5, repeats=3)
            report = repeated_kfold_cv(design, "pls", 1, folds=5, repeats=3)
        where = "repeat 1 of 3, fold 4 of 5: "
        assert str(pls_error.value) == where + "2 factors requested, predictor rank is 1"
        assert str(ols_error.value) == where + "training design is rank deficient"
        assert 0.9 < report.r2_cv < 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(71)
        design = random_design(rng, n=60, k=4)
        first = repeated_kfold_cv(design, "ols", folds=10, repeats=5, seed=42)
        second = repeated_kfold_cv(design, "ols", folds=10, repeats=5, seed=42)
        assert first == second
        assert first.mse_per_repeat == second.mse_per_repeat

    def test_seed_changes_folds(self):
        rng = np.random.default_rng(72)
        design = random_design(rng, n=60, k=4)
        a = repeated_kfold_cv(design, "ols", folds=10, repeats=3, seed=1)
        b = repeated_kfold_cv(design, "ols", folds=10, repeats=3, seed=2)
        assert a.mse_per_repeat != b.mse_per_repeat

    def test_exact_relationship_recovers_r2_one(self):
        rng = np.random.default_rng(73)
        X = rng.normal(size=(50, 3))
        y = X @ np.array([1.0, -2.0, 0.5])
        design = Design(X, y, ("a", "b", "c"))
        report = repeated_kfold_cv(design, "ols", folds=5, repeats=3, seed=0)
        assert report.r2_cv == pytest.approx(1.0, abs=1e-9)

    def test_fold_sizes_near_equal(self):
        # 47 rows in 10 folds: sizes 5,5,5,5,5,5,5,4,4,4.
        permutation = np.random.default_rng(0).permutation(47)
        sizes = [len(part) for part in np.array_split(permutation, 10)]
        assert max(sizes) - min(sizes) == 1
        assert sum(sizes) == 47

    def test_noise_target_scores_negative(self):
        rng = np.random.default_rng(74)
        X = rng.normal(size=(60, 5))
        y = rng.normal(size=60)  # unrelated to X
        design = Design(X, y, NAMES6[:5])
        report = repeated_kfold_cv(design, "ols", folds=10, repeats=10, seed=7)
        assert report.r2_cv < 0.0

    def test_pls_full_rank_close_to_ols(self):
        rng = np.random.default_rng(75)
        design = random_design(rng, n=60, k=4, noise=0.5)
        ols_report = repeated_kfold_cv(design, "ols", folds=6, repeats=4, seed=3)
        pls_report = repeated_kfold_cv(design, "pls", m=4, folds=6, repeats=4, seed=3)
        assert pls_report.r2_cv == pytest.approx(ols_report.r2_cv, abs=1e-6)

    def test_pls_needs_component_count(self):
        rng = np.random.default_rng(76)
        design = random_design(rng)
        with pytest.raises(ValueError):
            repeated_kfold_cv(design, "pls")

    def test_too_few_rows_for_folds(self):
        rng = np.random.default_rng(77)
        design = random_design(rng, n=15, k=2)
        with pytest.raises(TooFewRows):
            repeated_kfold_cv(design, "ols", folds=10)

    @pytest.mark.parametrize("method, folds, message", [
        ("ridge", 5, "unknown method 'ridge'"),
        ("ols", 1, "at least two folds are required"),
    ])
    def test_bad_method_or_fold_count(self, method, folds, message):
        design = random_design(np.random.default_rng(79), n=20, k=2)
        with pytest.raises(ValueError, match=f"^{message}$"):
            repeated_kfold_cv(design, method, folds=folds, repeats=2)

    def test_too_few_training_rows_for_the_predictors(self):
        # n = 20 in 10 folds: fold 1 holds out 2 rows and trains on 18,
        # too few for 17 predictors and an intercept.
        rng = np.random.default_rng(80)
        design = Design(rng.normal(size=(20, 17)), rng.normal(size=20),
                        tuple(f"x{j}" for j in range(17)))
        with pytest.raises(TooFewRows) as raised:
            repeated_kfold_cv(design, "ols", folds=10, repeats=3)
        assert str(raised.value) == (
            "repeat 1 of 3, fold 1 of 10: 18 rows cannot support 17 predictors")

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_needs_one_repeat(self, repeats):
        design = random_design(np.random.default_rng(78), n=20, k=2)
        with pytest.raises(ValueError, match="at least one repeat is required"):
            repeated_kfold_cv(design, "ols", folds=4, repeats=repeats)

    @pytest.mark.parametrize("m", [-1, 4])
    def test_factor_count_outside_the_design_names_no_fold(self, m):
        design = random_design(np.random.default_rng(82), n=20, k=3)
        with pytest.raises(RankExceeded) as raised:
            repeated_kfold_cv(design, "pls", m=m, folds=5, repeats=2)
        assert str(raised.value) == f"{m} factors requested, the design has 3 predictors"

    @PROPERTY
    @given(
        k=st.integers(1, 4),
        folds=st.integers(2, 7),
        extra=st.integers(0, 20),
        repeats=st.integers(2, 7),
        method=st.sampled_from(["ols", "pls"]),
        factors=st.integers(0, 4),
        cv_seed=st.integers(0, 2**32 - 1),
        data_seed=st.integers(0, 2**32 - 1),
        log_delta=st.one_of(st.none(), st.floats(-4.0, -3.4)),
    )
    @example(k=3, folds=5, extra=4, repeats=3, method="ols", factors=0, cv_seed=0,
             data_seed=0, log_delta=-4.0)
    def test_stack_layout_changes_no_bit(
        self, k, folds, extra, repeats, method, factors, cv_seed, data_seed, log_delta
    ):
        """One repeat per stack, two, or all of them give the same report.

        n % folds is never 0, so each stack holds folds of two sizes.  The
        first repeats of a longer run are those of a shorter run.  Where
        ``log_delta`` is drawn, a training fold of the last repeat holds a
        column within 10**log_delta of constant: its PRESS block is near
        singular but not singular, so a Cholesky of its stack can fail while
        no fold is flagged.
        """
        n = max(2 * folds, 2 * k + 4) + extra
        n += n % folds == 0
        if log_delta is None:
            design = random_design(np.random.default_rng(data_seed), n=n, k=k)
        else:
            design, cv_seed = self._near_singular_fold(
                data_seed, k, folds, extra, repeats, False, True, log_delta, repeat=repeats - 1)
        m = factors % (k + 1) if method == "pls" else None

        def run(count):
            return repeated_kfold_cv(design, method, m, folds, count, seed=cv_seed)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateDeflationWarning)
            report = run(repeats)
            for values in (1, 2 * (folds - 1) * n * k, 2**62):
                with mock.patch.object(regress, "_CV_STACK_VALUES", values):
                    assert run(repeats) == report
            assert run(repeats - 1).mse_per_repeat == report.mse_per_repeat[:-1]

    @staticmethod
    def _near_singular_fold(seed, k, folds, extra, repeats, collinear, larger, log_delta,
                            repeat=None):
        """A design whose training fold (r, f) holds one column near-constant
        or near-collinear with another: within 10**log_delta of it, exactly
        for log_delta = None.  n % folds is never 0, and ``larger`` puts the
        fold among the larger ones.  r is ``repeat``, or drawn where that is
        None.  Returns the design and the cv seed.
        """
        rng = np.random.default_rng(seed)
        n = max(2 * folds, 2 * k + 4) + extra
        n += n % folds == 0
        design = random_design(rng, n=n, k=k)
        cv_seed = int(rng.integers(2**32))
        cv_rng = np.random.default_rng(cv_seed)
        parts = [np.array_split(cv_rng.permutation(n), folds) for _ in range(repeats)]
        fold = int(rng.integers(*((0, n % folds) if larger else (n % folds, folds))))
        train = np.ones(n, dtype=bool)
        train[parts[int(rng.integers(repeats)) if repeat is None else repeat][fold]] = False
        delta = 0.0 if log_delta is None else 10.0 ** log_delta
        X = design.X.copy()
        column = int(rng.integers(k))
        base = X[train, (column + 1) % k] * rng.normal() if collinear and k > 1 else 3.0
        X[train, column] = base + delta * rng.normal(size=int(train.sum()))
        return Design(X, design.y, design.names), cv_seed

    def _assert_ols_cv_matches_eigh(self, design, folds, repeats, cv_seed):
        """The Cholesky certificate flags the folds the per-fold eigh flags, and
        its errors are eigh's up to what a block's conditioning allows.

        Both forms are backward stable, so their errors may differ by about
        eps / lambda_min relative; in 1,500 random draws the largest gap was
        5.4 eps / lambda_min.  Returns the smallest PRESS eigenvalue of the
        run, or 0 where a fold is degenerate.
        """
        try:
            expected, smallest = press_cv_by_eigh(design, folds, repeats, cv_seed)
        except (RankDeficient, ConstantResponse) as error:
            with pytest.raises(type(error)) as raised:
                repeated_kfold_cv(design, "ols", folds=folds, repeats=repeats, seed=cv_seed)
            assert str(raised.value) == str(error)
            return 0.0
        report = repeated_kfold_cv(design, "ols", folds=folds, repeats=repeats, seed=cv_seed)
        eps = np.finfo(float).eps
        gap = np.abs(np.array(report.mse_per_repeat) - expected)
        assert np.all(gap <= (1e-12 + 100 * eps / np.array(smallest)) * np.array(expected))
        return min(smallest)

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 5),
        folds=st.integers(3, 8),
        extra=st.integers(1, 20),
        repeats=st.integers(1, 4),
        collinear=st.booleans(),
        larger=st.booleans(),
        log_delta=st.one_of(st.none(), st.floats(-8.0, -1.0)),
    )
    @example(seed=1, k=3, folds=5, extra=4, repeats=2, collinear=False, larger=True,
             log_delta=None)
    @example(seed=2, k=3, folds=5, extra=4, repeats=2, collinear=True, larger=False,
             log_delta=-7.0)
    @example(seed=3, k=4, folds=7, extra=9, repeats=3, collinear=True, larger=True,
             log_delta=-4.5)
    @example(seed=4, k=2, folds=4, extra=3, repeats=2, collinear=False, larger=False,
             log_delta=-3.0)
    def test_ols_certificate_flags_what_eigh_flags(
        self, seed, k, folds, extra, repeats, collinear, larger, log_delta
    ):
        """Near-singular training folds, at PRESS eigenvalues from about 1e-16
        to 1e-2, in a fold of either size: the same verdict, repeat, fold and
        message as the per-fold eigh, and the same errors."""
        design, cv_seed = self._near_singular_fold(
            seed, k, folds, extra, repeats, collinear, larger, log_delta)
        self._assert_ols_cv_matches_eigh(design, folds, repeats, cv_seed)

    @pytest.mark.parametrize("larger", [True, False])
    @pytest.mark.parametrize("collinear", [True, False])
    def test_ols_certificate_sweep_crosses_both_thresholds(self, collinear, larger):
        """One design, its fold made ever closer to singular: the sweep passes
        the certificate's shift (1e-7) and the eigh threshold (1e-10)."""
        seen = []
        for log_delta in np.linspace(-8.0, -1.0, 29):
            design, cv_seed = self._near_singular_fold(
                11, 3, 6, 5, 2, collinear, larger, float(log_delta))
            seen.append(self._assert_ols_cv_matches_eigh(design, 6, 2, cv_seed))
        seen = np.array(seen)
        assert (seen == 0.0).any()
        assert ((seen > 1e-10) & (seen < 1e-7)).any()
        assert ((seen > 1e-7) & (seen < 1e-5)).any()

    @pytest.mark.parametrize("method", ["ols", "pls"])
    def test_first_degenerate_fold_in_a_stack_names_the_earliest_repeat(self, method):
        """Repeat 2 of a stack raises, though repeat 3 fails in a lower-numbered fold.

        Rows 0 and 1 are the only ones of 'pair', so a training fold that
        lacks both holds it constant.  The seed is the first whose repeat 1
        splits the two rows, whose repeat 2 holds them out together in fold
        f2 and whose repeat 3 in a fold before f2.
        """
        n, folds = 21, 4

        def pair_fold(permutation):
            parts = np.array_split(permutation, folds)
            return next((f for f, part in enumerate(parts) if {0, 1} <= set(part)), None)

        for seed in range(1000):
            rng = np.random.default_rng(seed)
            f1, f2, f3 = (pair_fold(rng.permutation(n)) for _ in range(3))
            if f1 is None and f2 is not None and f3 is not None and f3 < f2:
                break
        # The three repeats share one stack.
        assert regress._CV_STACK_VALUES // ((folds - 1) * n * 2) >= 3
        rng = np.random.default_rng(83)
        X = np.column_stack([rng.normal(size=n), np.eye(n)[0] + np.eye(n)[1]])
        design = Design(X, rng.normal(size=n), ("x1", "pair"))
        with pytest.raises(RankDeficient) as raised:
            repeated_kfold_cv(design, method, m=1, folds=folds, repeats=3, seed=seed)
        assert str(raised.value) == (
            f"repeat 2 of 3, fold {f2 + 1} of {folds}: predictor 'pair' is constant"
        )

    @PROPERTY
    @given(
        k=st.integers(1, 5),
        folds=st.integers(2, 10),
        extra=st.integers(0, 30),
        repeats=st.integers(1, 4),
        cv_seed=st.integers(0, 2**32 - 1),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_ols_equals_per_fold_refit(self, k, folds, extra, repeats, cv_seed, data_seed):
        # n >= 2k + 4 leaves every training fold more than k + 1 rows.
        n = max(2 * folds, 2 * k + 4) + extra
        design = random_design(np.random.default_rng(data_seed), n=n, k=k)
        report = repeated_kfold_cv(design, "ols", folds=folds, repeats=repeats, seed=cv_seed)
        rng = np.random.default_rng(cv_seed)
        permutations = [rng.permutation(n) for _ in range(repeats)]
        refit_mse = []
        for permutation in permutations:
            squared_errors = np.empty(n)
            for held_out in np.array_split(permutation, folds):
                train = np.ones(n, dtype=bool)
                train[held_out] = False
                fit = ols_fit(Design(design.X[train], design.y[train], design.names))
                predictions = fit.predict(design.X[held_out])
                squared_errors[held_out] = (predictions - design.y[held_out]) ** 2
            refit_mse.append(squared_errors.mean())
        np.testing.assert_allclose(report.mse_per_repeat, refit_mse, rtol=1e-10, atol=0)

    @PROPERTY
    @given(
        k=st.integers(1, 5),
        folds=st.integers(2, 10),
        extra=st.integers(0, 30),
        repeats=st.integers(1, 4),
        factors=st.integers(0, 5),
        cv_seed=st.integers(0, 2**32 - 1),
        data_seed=st.integers(0, 2**32 - 1),
    )
    @example(k=4, folds=7, extra=3, repeats=2, factors=4, cv_seed=1, data_seed=2)
    @example(k=3, folds=4, extra=1, repeats=1, factors=0, cv_seed=3, data_seed=4)
    def test_pls_equals_per_fold_refit(
        self, k, folds, extra, repeats, factors, cv_seed, data_seed
    ):
        # The @examples pin uneven fold sizes (17 rows in 7 folds, 11 in 4)
        # with m at the rank and at 0.
        n = max(2 * folds, 2 * k + 4) + extra
        m = factors % (k + 1)
        design = random_design(np.random.default_rng(data_seed), n=n, k=k)
        report = repeated_kfold_cv(design, "pls", m, folds=folds, repeats=repeats, seed=cv_seed)
        rng = np.random.default_rng(cv_seed)
        refit_mse = []
        for _ in range(repeats):
            squared_errors = np.empty(n)
            for held_out in np.array_split(rng.permutation(n), folds):
                train = np.ones(n, dtype=bool)
                train[held_out] = False
                model = pls_fit(Design(design.X[train], design.y[train], design.names), m)
                errors = model.predict(design.X[held_out]) - design.y[held_out]
                squared_errors[held_out] = errors ** 2
            refit_mse.append(squared_errors.mean())
        np.testing.assert_allclose(report.mse_per_repeat, refit_mse, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("method", ["ols", "pls"])
    @pytest.mark.parametrize("first_error", ["flag", "response"])
    def test_first_degenerate_fold_across_fold_sizes(self, method, first_error):
        """Of degenerate folds of both sizes, the first in loop order raises.

        23 rows in 5 folds give sizes 5, 5, 5, 4, 4.  Holding out row ``i``
        leaves the predictor 'flag' constant in training, row ``third``
        leaves 'flag2' constant, and row ``j`` leaves the response constant.
        Row ``third`` sits in fold 3.  Of ``i`` and ``j``, one sits in fold
        2, the other in fold 4, the first fold of the 4-row size.
        """
        parts = np.array_split(np.random.default_rng(5).permutation(23), 5)
        second, third, fourth = (int(parts[f][0]) for f in (1, 2, 3))
        i, j = (second, fourth) if first_error == "flag" else (fourth, second)
        rng = np.random.default_rng(80)
        X = np.column_stack([rng.normal(size=(23, 2)), np.eye(23)[i], np.eye(23)[third]])
        design = Design(X, np.eye(23)[j], ("x1", "x2", "flag", "flag2"))
        error, text = (
            (RankDeficient, "predictor 'flag' is constant")
            if first_error == "flag"
            else (ConstantResponse, "response does not vary")
        )
        with pytest.raises(error) as raised:
            repeated_kfold_cv(design, method, m=1, folds=5, repeats=2, seed=5)
        assert str(raised.value) == f"repeat 1 of 2, fold 2 of 5: {text}"

    def test_truncated_folds_warn_once_with_their_count(self):
        """A training fold whose response is one factor of its design truncates.

        Ten copies of four rows, and y is the first column.  Where a fold
        holds out as many (1, 0) as (-1, 0) rows, or as many (0, 1) as
        (0, -1), the columns are uncorrelated in training and one factor
        fits y exactly.  The warning counts the folds whose per-fold refit
        truncates, and the errors are the refits'.
        """
        X = np.tile([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], (10, 1))
        design = Design(X, X[:, 0].copy(), ("a", "b"))
        rng = np.random.default_rng(6)
        refit_mse, truncated = [], 0
        for _ in range(3):
            squared_errors = np.empty(40)
            for held_out in np.array_split(rng.permutation(40), 10):
                train = np.ones(40, dtype=bool)
                train[held_out] = False
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    model = pls_fit(Design(X[train], design.y[train], design.names), 2)
                truncated += len(caught)
                squared_errors[held_out] = (model.predict(X[held_out]) - design.y[held_out]) ** 2
            refit_mse.append(squared_errors.mean())
        assert 0 < truncated < 30
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = repeated_kfold_cv(design, "pls", m=2, folds=10, repeats=3, seed=6)
        assert [str(w.message) for w in caught] == [
            f"deflation degenerate in {truncated} of 30 training folds; models truncated"
        ]
        assert all(issubclass(w.category, DegenerateDeflationWarning) for w in caught)
        np.testing.assert_allclose(report.mse_per_repeat, refit_mse, rtol=1e-10, atol=1e-30)

    @pytest.mark.parametrize("method", ["ols", "pls"])
    def test_rare_binary_predictor_names_repeat_and_fold(self, method):
        # One positive in 40 rows: the fold that holds it out leaves the
        # predictor constant in training.
        rng = np.random.default_rng(7)
        flag = np.zeros(40)
        flag[17] = 1.0
        X = np.column_stack([rng.normal(size=(40, 2)), flag])
        y = X @ np.array([1.0, -0.5, 0.3]) + rng.normal(0.0, 0.2, 40)
        design = Design(X, y, ("x1", "x2", "flag"))
        permutation = np.random.default_rng(0).permutation(40)
        fold = next(
            f for f, part in enumerate(np.array_split(permutation, 10)) if 17 in part
        )
        with pytest.raises(RankDeficient) as raised:
            repeated_kfold_cv(design, method, m=2, folds=10, repeats=3, seed=0)
        message = str(raised.value)
        assert f"repeat 1 of 3, fold {fold + 1} of 10" in message
        assert "'flag' is constant" in message

    @PROPERTY
    @given(
        k=st.integers(1, 4),
        folds=st.integers(2, 8),
        extra=st.integers(1, 30),
        repeats=st.integers(1, 4),
        factors=st.integers(0, 4),
        constant=st.sampled_from([0.0, 1e8, -1e8, 0.1, -7.3]),
        larger=st.booleans(),
        near=st.booleans(),
        cv_seed=st.integers(0, 2**32 - 1),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_pls_column_constant_in_one_training_fold_is_named(
        self, k, folds, extra, repeats, factors, constant, larger, near, cv_seed, data_seed
    ):
        """A column constant in one training fold is named with its repeat and fold.

        The column holds ``constant`` on every row but those one fold holds
        out, in a fold of the larger or the smaller size.  With ``near`` it
        holds constant * (1 + 1e-9 z) there instead (1e-9 z for 0), a relative
        spread that the scale screen clears and no fold may be flagged for.
        """
        n = max(2 * folds, 2 * k + 4) + extra
        n += n % folds == 0  # folds of two sizes
        rng = np.random.default_rng(data_seed)
        design = random_design(rng, n=n, k=k)
        cv_rng = np.random.default_rng(cv_seed)
        parts = [np.array_split(cv_rng.permutation(n), folds) for _ in range(repeats)]
        repeat = int(rng.integers(repeats))
        sizes = (0, n % folds) if larger else (n % folds, folds)
        fold = int(rng.integers(*sizes))
        column = int(rng.integers(k))
        X = design.X.copy()
        X[:, column] = constant
        if near:
            X[:, column] = constant * (1.0 + 1e-9 * rng.normal(size=n)) if constant else \
                1e-9 * rng.normal(size=n)
        held = parts[repeat][fold]
        X[held, column] = constant + max(1.0, abs(constant)) * (1.0 + rng.random(len(held)))
        design = Design(X, design.y, design.names)
        m = factors % (k + 1)
        constant_folds = []
        for r, split in enumerate(parts):
            for f, part in enumerate(split):
                train = np.ones(n, dtype=bool)
                train[part] = False
                if np.ptp(X[train], axis=0).min() == 0:
                    constant_folds.append((r, f))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateDeflationWarning)
            if near:
                assert constant_folds == []
                report = repeated_kfold_cv(design, "pls", m, folds, repeats, seed=cv_seed)
                assert len(report.mse_per_repeat) == repeats
                return
            assume(constant_folds == [(repeat, fold)])
            with pytest.raises(RankDeficient) as raised:
                repeated_kfold_cv(design, "pls", m, folds, repeats, seed=cv_seed)
        assert str(raised.value) == (f"repeat {repeat + 1} of {repeats}, fold {fold + 1} of"
                                     f" {folds}: predictor {design.names[column]!r} is constant")

    @pytest.mark.parametrize("value", [1e300, -3e299])
    def test_pls_column_constant_near_overflow_is_named(self, value):
        # The training fold's squared deviations from the mean overflow, so
        # the column's scale is inf although the column is constant there.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 3))
        held = np.array_split(np.random.default_rng(0).permutation(20), 5)[2]
        X[:, 1] = value
        X[held, 1] = 2.0 * value
        design = Design(X, rng.normal(size=20), ("a", "b", "c"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(RankDeficient) as raised:
                repeated_kfold_cv(design, "pls", 1, folds=5, repeats=2, seed=0)
        assert str(raised.value) == "repeat 1 of 2, fold 3 of 5: predictor 'b' is constant"

    @pytest.mark.parametrize("method", ["ols", "pls"])
    def test_fold_constant_response_names_repeat_and_fold(self, method):
        rng = np.random.default_rng(79)
        design = Design(rng.normal(size=(30, 2)), np.eye(30)[11], ("a", "b"))
        permutation = np.random.default_rng(2).permutation(30)
        fold = next(f for f, part in enumerate(np.array_split(permutation, 3)) if 11 in part)
        with pytest.raises(ConstantResponse, match=f"repeat 1 of 1, fold {fold + 1} of 3"):
            repeated_kfold_cv(design, method, m=1, folds=3, repeats=1, seed=2)

    def test_fold_collinear_predictors_rank_deficient(self):
        # b equals a except in row 5, so the training fold without row 5 is
        # collinear although no predictor in it is constant.
        rng = np.random.default_rng(78)
        a = rng.normal(size=30)
        b = a.copy()
        b[5] += 1.0
        X = np.column_stack([a, b])
        design = Design(X, X @ np.array([1.0, 2.0]) + rng.normal(size=30), ("a", "b"))
        permutation = np.random.default_rng(4).permutation(30)
        fold = next(f for f, part in enumerate(np.array_split(permutation, 5)) if 5 in part)
        for method, error, text in (
            ("ols", RankDeficient, "training design is rank deficient"),
            ("pls", RankExceeded, "2 factors requested, predictor rank is 1"),
        ):
            with pytest.raises(error) as raised:
                repeated_kfold_cv(design, method, m=2, folds=5, repeats=2, seed=4)
            assert str(raised.value) == f"repeat 1 of 2, fold {fold + 1} of 5: {text}"

    def test_frozen_regression_value(self):
        # Pinned output for one fixed configuration; any change to fold
        # layout, estimator or aggregation shows up here first.
        rng = np.random.default_rng(123)
        X = rng.normal(size=(40, 3))
        y = X @ np.array([0.8, -0.5, 0.3]) + rng.normal(scale=0.7, size=40)
        design = Design(X, y, ("a", "b", "c"))
        report = repeated_kfold_cv(design, "ols", folds=5, repeats=4, seed=9)
        assert report.r2_cv == pytest.approx(0.7089456951226505, abs=1e-12)
