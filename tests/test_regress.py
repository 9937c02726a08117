"""Regression models against closed forms, identities and external oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfeat.regress import (
    ConstantResponse,
    CvReport,
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

    def test_predictor_shift_moves_intercept_only(self):
        rng = np.random.default_rng(55)
        design = random_design(rng)
        fit = ols_fit(design)
        shifted = ols_fit(Design(design.X + 5.0, design.y, design.names))
        np.testing.assert_allclose(shifted.coef, fit.coef, atol=1e-9)
        np.testing.assert_allclose(
            shifted.predict(design.X + 5.0), fit.predict(design.X), atol=1e-9
        )

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
        rng = np.random.default_rng(58)
        X = rng.normal(size=(10, 2))
        with pytest.raises(ConstantResponse):
            ols_fit(Design(X, np.full(10, 4.0), ("a", "b")))

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
        model = pls_fit(Design(X, y, ("a", "b")), 1)
        np.testing.assert_allclose(model.weights[:, 0], [1.0, 0.0], atol=1e-12)
        assert model.q[0] == pytest.approx(1.0, abs=1e-12)
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
        model = pls_fit(design, 4)
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

    def test_predict_missing_rows(self):
        rng = np.random.default_rng(68)
        design = random_design(rng, k=3)
        model = pls_fit(design, 2)
        X_new = design.X[:3].copy()
        X_new[1, 0] = np.nan
        out = model.predict(X_new)
        assert np.isnan(out[1]) and np.isfinite(out[[0, 2]]).all()


class TestCrossValidation:
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

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_needs_one_repeat(self, repeats):
        design = random_design(np.random.default_rng(78), n=20, k=2)
        with pytest.raises(ValueError, match="at least one repeat is required"):
            repeated_kfold_cv(design, "ols", folds=4, repeats=repeats)

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
        with pytest.raises(RankDeficient, match=f"repeat 1 of 2, fold {fold + 1} of 5"):
            repeated_kfold_cv(design, "ols", folds=5, repeats=2, seed=4)

    def test_frozen_regression_value(self):
        # Pinned output for one fixed configuration; any change to fold
        # layout, estimator or aggregation shows up here first.
        rng = np.random.default_rng(123)
        X = rng.normal(size=(40, 3))
        y = X @ np.array([0.8, -0.5, 0.3]) + rng.normal(scale=0.7, size=40)
        design = Design(X, y, ("a", "b", "c"))
        report = repeated_kfold_cv(design, "ols", folds=5, repeats=4, seed=9)
        assert report.r2_cv == pytest.approx(0.7089456951226505, abs=1e-12)
