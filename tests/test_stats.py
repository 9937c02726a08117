"""Agreement statistics against hand-computed fixtures and invariances."""

import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import agreement_by_pairs, pairwise_r_unscreened, pearson_wrapped
from perfeat.stats import (
    AllDropped,
    ConstantInput,
    RatingMatrix,
    TooFewItems,
    TooFewPairs,
    _pairwise_r,
    correlation_p_value,
    cronbach_alpha,
    cross_correlation_matrix,
    flag_outlier_raters,
    inter_rater_agreement,
    item_mean_ratings,
    pearson,
    stars_for_p,
)

scipy_stats = pytest.importorskip("scipy.stats")

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True)


def matrix(values, rater_ids=None, item_ids=None):
    values = np.asarray(values, dtype=float)
    rater_ids = rater_ids or tuple(f"r{j}" for j in range(values.shape[1]))
    item_ids = item_ids or tuple(f"i{j}" for j in range(values.shape[0]))
    return RatingMatrix(values=values, item_ids=tuple(item_ids), rater_ids=tuple(rater_ids))


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-15)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0, abs=1e-15)

    def test_hand_value(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_pairwise_deletion(self):
        x = [1.0, 2.0, math.nan, 3.0, 4.0]
        y = [1.0, 3.0, 9.0, 2.0, 4.0]
        assert pearson(x, y) == pytest.approx(0.8, abs=1e-12)

    def test_too_few_pairs(self):
        with pytest.raises(TooFewPairs):
            pearson([1.0, 2.0, math.nan], [1.0, 2.0, 3.0])

    def test_constant_series(self):
        # 0.0 and -0.0 are equal, as they are to np.all(xs == xs[0]).
        for x in ([1.0, 1.0, 1.0], [0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]):
            with pytest.raises(ConstantInput):
                pearson(x, [1.0, 2.0, 3.0])
            with pytest.raises(ConstantInput):
                pearson([1.0, 2.0, 3.0], x)

    def test_constant_after_deletion(self):
        # Constant over the complete pairs only: the extremes of the whole
        # series (5 and -5, or 7) lie in rows the other series is missing.
        for x, y in (([1.0, 1.0, 1.0, 5.0], [1.0, 2.0, 3.0, math.nan]),
                     ([-5.0, 1.0, 1.0, 1.0, 5.0], [math.nan, 1.0, 2.0, 3.0, math.nan]),
                     ([math.nan, 1.0, 2.0, 3.0, 4.0], [7.0, -2.0, -2.0, -2.0, math.nan])):
            with pytest.raises(ConstantInput):
                pearson(x, y)

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.normal(size=20)
            y = rng.normal(size=20)
            r = pearson(x, y)
            assert pearson(3.0 * x + 1.0, y) == pytest.approx(r, abs=1e-12)
            assert pearson(-2.0 * x, y) == pytest.approx(-r, abs=1e-12)
            assert -1.0 <= r <= 1.0

    def test_against_scipy(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.normal(size=15)
            y = 0.5 * x + rng.normal(size=15)
            ours = pearson(x, y)
            ref = scipy_stats.pearsonr(x, y)
            assert ours == pytest.approx(float(ref.statistic), abs=1e-12)
            n = 15
            assert correlation_p_value(ours, n) == pytest.approx(
                float(ref.pvalue), abs=1e-10
            )

    @PROPERTY
    @given(
        n=st.integers(3, 300),
        scale=st.floats(1e-5, 1e5),
        offset=st.sampled_from([0.0, 1.0, -1e3, 1e6, 1e12]),
        missing=st.floats(0.0, 0.6),
        levels=st.sampled_from([2, 5, 0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_match_the_numpy_wrapper_form(self, n, scale, offset, missing, levels,
                                               seed):
        """``pearson`` is the kernel's oracle, so it must not move: it equals
        the ``np.all`` / ``ndarray.mean`` form bit for bit, errors included.

        ``levels`` of 2 or 5 draws integer series, which are sometimes
        constant over the complete pairs; 0 draws continuous ones.
        """
        rng = np.random.default_rng(seed)
        if levels:
            x, y = (rng.integers(0, levels, size=n) * scale + offset for _ in range(2))
        else:
            x, y = (rng.normal(size=n) * scale + offset for _ in range(2))
        x[rng.random(n) < missing] = np.nan
        y[rng.random(n) < missing] = np.nan
        try:
            expected = pearson_wrapped(x, y)
        except (TooFewPairs, ConstantInput) as error:
            with pytest.raises(type(error), match=str(error)):
                pearson(x, y)
            return
        assert pearson(x, y).hex() == expected.hex()


    @pytest.mark.parametrize("scale", [1e160, 1e-170, 1e300, 4e307, 2.0**540, 2.0**-540])
    def test_huge_or_tiny_series_keep_their_r_without_a_warning(self, scale):
        # Squared deviations overflow (1e160, 2**540), underflow (1e-170,
        # 2**-540) or centre near the largest float (1e300); the sum
        # overflows (4e307).
        x = np.array([1.0, 2.0, 3.0, 4.0]) * scale
        y = np.array([4.0, 1.0, 3.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = pearson(x, y)
            kernel = _pairwise_r(np.column_stack([x, y]))[0, 1]
        assert r == pytest.approx(-0.4, abs=1e-15)
        assert kernel == pytest.approx(-0.4, abs=1e-15)

    @PROPERTY
    @given(
        n=st.integers(3, 300),
        x_power=st.sampled_from([-500, 0, 500]),
        y_power=st.sampled_from([-500, 0, 500]),
        offset=st.sampled_from([0.0, 1.0, -1e3, 1e6]),
        missing=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_power_of_two_scaling_moves_no_bit(self, n, x_power, y_power, offset, missing,
                                               seed):
        """r of x 2**a and y 2**b is r of x and y, bit for bit, for a, b in
        {-500, 0, 500}: each series is divided by the power of two of its
        peak before any sum, which is exact."""
        rng = np.random.default_rng(seed)
        x, y = (rng.normal(size=n) + offset for _ in range(2))
        x[rng.random(n) < missing] = np.nan
        y[rng.random(n) < missing] = np.nan
        try:
            expected = pearson(x, y)
        except (TooFewPairs, ConstantInput) as error:
            with pytest.raises(type(error)):
                pearson(np.ldexp(x, x_power), np.ldexp(y, y_power))
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pearson(np.ldexp(x, x_power), np.ldexp(y, y_power)).hex() == expected.hex()


class TestCorrelationP:
    def test_example(self):
        assert correlation_p_value(0.8, 4) == pytest.approx(0.2, abs=1e-12)

    def test_zero_r_is_one(self):
        assert correlation_p_value(0.0, 10) == pytest.approx(1.0, abs=1e-14)

    def test_exact_fit_is_zero(self):
        assert correlation_p_value(1.0, 5) == 0.0
        assert correlation_p_value(-1.0, 5) == 0.0

    def test_monotone_in_abs_r(self):
        previous = 1.1
        for r in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95, 0.999):
            p = correlation_p_value(r, 20)
            assert p < previous
            previous = p

    def test_needs_three_pairs(self):
        with pytest.raises(TooFewPairs):
            correlation_p_value(0.5, 2)


class TestAlpha:
    def test_identical_raters(self):
        m = matrix([[1, 1], [2, 2], [3, 3], [4, 4]])
        assert cronbach_alpha(m) == pytest.approx(1.0, abs=1e-12)

    def test_hand_fixture_two_thirds(self):
        # Columns [1,2,3] and [1,3,2]: variances 1 and 1, row sums [2,5,5]
        # with variance 3, so alpha = 2 (1 - 2/3) = 2/3.
        m = matrix([[1, 1], [2, 3], [3, 2]])
        assert cronbach_alpha(m) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_hand_fixture_eight_ninths(self):
        # Columns [1,2,3] and [2,4,6]: variances 1 and 4, row sums [3,6,9]
        # with variance 9, so alpha = 2 (1 - 5/9) = 8/9.
        m = matrix([[1, 2], [2, 4], [3, 6]])
        assert cronbach_alpha(m) == pytest.approx(8.0 / 9.0, abs=1e-12)

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            base = rng.normal(size=(12, 5))
            a = cronbach_alpha(matrix(base))
            b = cronbach_alpha(matrix(base * 2.5 - 7.0))
            assert b == pytest.approx(a, abs=1e-12)

    def test_at_most_one(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            values = rng.normal(size=(10, 4))
            assert cronbach_alpha(matrix(values)) <= 1.0 + 1e-12

    def test_negative_for_opposing_raters(self):
        m = matrix([[1, 4], [2, 3], [3, 2], [4, 1.5]])
        assert cronbach_alpha(m) < 0.0

    def test_duplicate_rater_raises_consistency(self):
        rng = np.random.default_rng(13)
        signal = rng.normal(size=12)
        noise = lambda: rng.normal(scale=0.5, size=12)
        panel = np.column_stack([signal + noise() for _ in range(4)])
        extended = np.column_stack([panel, panel[:, 0]])
        assert cronbach_alpha(matrix(extended)) > cronbach_alpha(matrix(panel))

    def test_complete_cases_only(self):
        values = np.array(
            [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, np.nan], [9.0, 1.0]]
        )
        dropped = values[[0, 1, 2, 4]]
        assert cronbach_alpha(matrix(values)) == pytest.approx(
            cronbach_alpha(matrix(dropped)), abs=1e-15
        )

    def test_too_few_complete_items(self):
        values = np.array([[1.0, 2.0], [2.0, np.nan], [np.nan, 3.0], [4.0, 4.0]])
        with pytest.raises(TooFewItems):
            cronbach_alpha(matrix(values))

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_huge_or_tiny_panel_keeps_its_alpha_without_a_warning(self, scale):
        # Variances of the raw panel overflow at 1e160; at 1e-170 they
        # underflow to zero, which read as constant row sums.
        rng = np.random.default_rng(21)
        values = rng.normal(size=(30, 1)) + rng.normal(scale=0.8, size=(30, 4))
        expected = cronbach_alpha(matrix(values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cronbach_alpha(matrix(values * scale)) == pytest.approx(expected, abs=1e-12)


def _agreement_cells(values, power):
    """Everything agreement.csv and item_means.csv are built from, for ``values`` times 2**power."""
    m = matrix(np.ldexp(values, power))
    report = inter_rater_agreement(m)
    flagged = flag_outlier_raters(report) if report.n_raters >= 3 else []
    drop = [rid for rid, _ in flagged]
    trimmed = inter_rater_agreement(m.drop_raters(drop)) if len(drop) <= m.n_raters - 2 else None
    means = item_mean_ratings(m, drop if trimmed else [])
    return report, flagged, trimmed, np.ldexp(means, -power)


class TestAgreementUnderScaling:
    @PROPERTY
    @given(
        n=st.integers(2, 60),
        k=st.integers(2, 6),
        missing=st.floats(0.0, 0.3),
        offset=st.sampled_from([0.0, 5.0, 1e3]),
        power=st.sampled_from([-600, 600]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_power_of_two_scaling_moves_no_bit(self, n, k, missing, offset, power, seed):
        """A panel times 2**-600 or 2**600 gives every agreement cell bit for
        bit, and every item mean once scaled back: the panel is divided by
        one power of two of its peak before any sum."""
        rng = np.random.default_rng(seed)
        values = offset + rng.normal(size=(n, 1)) + rng.normal(size=(n, k))
        values[rng.random((n, k)) < missing] = np.nan
        values[0, 0] = offset  # so no panel is all missing
        try:
            expected = _agreement_cells(values, 0)
        except ConstantInput:
            with pytest.raises(ConstantInput):
                _agreement_cells(values, power)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, flagged, trimmed, means = _agreement_cells(values, power)
        assert repr((report, flagged, trimmed)) == repr(expected[:3])
        assert means.tobytes() == expected[3].tobytes()

    def test_item_means_near_the_largest_float_stay_finite(self):
        values = np.full((4, 3), 1.5e308)
        values[1] = [1.2e308, 1.6e308, 1.7e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            means = item_mean_ratings(matrix(values))
        assert means.tolist() == pytest.approx([1.5e308, 1.5e308, 1.5e308, 1.5e308], rel=1e-15)

    def test_items_far_apart_in_magnitude_keep_their_means(self):
        # One factor for the whole panel would flush the 1e-300 item to zero.
        values = np.array([[1e300, 2e300, 3e300], [1e-300, 2e-300, 6e-300], [1.0, 2.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            means = item_mean_ratings(matrix(values))
        assert means.tolist() == [values[i].sum() / 3 for i in range(3)]


class TestAgreementReport:
    def test_identical_panel(self):
        m = matrix([[1, 1, 1], [2, 2, 2], [3, 3, 3], [4, 4, 4]])
        report = inter_rater_agreement(m)
        assert report.mean_pairwise_r == pytest.approx(1.0, abs=1e-12)
        assert report.alpha == pytest.approx(1.0, abs=1e-12)
        assert report.n_raters == 3 and report.n_items == 4
        assert report.skipped_pairs == ()

    def test_pairwise_uses_pairwise_deletion(self):
        # One missing cell: the pair correlations still use four raters'
        # overlapping rows while alpha sees only complete rows.
        values = np.array(
            [
                [1.0, 1.0, 2.0],
                [2.0, 2.0, 1.0],
                [3.0, 3.0, 4.0],
                [4.0, np.nan, 3.0],
                [5.0, 5.0, 6.0],
            ]
        )
        report = inter_rater_agreement(matrix(values))
        assert report.n_complete_items == 4
        r01 = pearson(values[:, 0], values[:, 1])
        r02 = pearson(values[:, 0], values[:, 2])
        r12 = pearson(values[:, 1], values[:, 2])
        assert report.mean_pairwise_r == pytest.approx(
            (r01 + r02 + r12) / 3.0, abs=1e-12
        )

    def test_constant_rater_pair_skipped_and_reported(self):
        values = np.array(
            [[1.0, 1.0, 5.0], [2.0, 2.0, 5.0], [3.0, 3.0, 5.0], [4.0, 4.0, 5.0]]
        )
        report = inter_rater_agreement(matrix(values))
        assert report.mean_pairwise_r == pytest.approx(1.0, abs=1e-12)
        assert len(report.skipped_pairs) == 2
        assert all("r2" in pair for pair in report.skipped_pairs)

    def test_too_few_complete_items_leave_alpha_absent(self):
        # Two complete rows: alpha is undefined, pairwise r is not.
        values = np.array(
            [
                [1.0, 1.0, 2.0],
                [2.0, np.nan, 1.0],
                [3.0, 3.0, np.nan],
                [np.nan, 4.0, 3.0],
                [5.0, 5.0, 6.0],
                [6.0, 7.0, np.nan],
            ]
        )
        report = inter_rater_agreement(matrix(values))
        assert report.alpha is None
        assert report.n_complete_items == 2
        r01 = pearson(values[:, 0], values[:, 1])
        r02 = pearson(values[:, 0], values[:, 2])
        r12 = pearson(values[:, 1], values[:, 2])
        assert report.mean_pairwise_r == pytest.approx(
            (r01 + r02 + r12) / 3.0, abs=1e-12
        )

    @PROPERTY
    @given(
        n=st.integers(3, 30),
        k=st.integers(3, 12),
        missing=st.floats(0.0, 0.6),
        constant=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_per_rater_means_and_skipped_pairs_match_pearson(self, n, k, missing,
                                                             constant, seed):
        """Each rater's mean r is the fsum mean of ``pearson`` over their
        defined pairs, NaN with none; the skipped pairs are where it raises."""
        rng = np.random.default_rng(seed)
        values = rng.integers(1, 10, size=(n, k)).astype(float)
        if constant:
            values[:, -1] = 5.0  # a rater with no defined pair
        values[rng.random((n, k)) < missing] = np.nan
        m = matrix(values)
        defined, skipped = {}, []
        for a, b in combinations(range(k), 2):
            try:
                defined[a, b] = pearson(values[:, a], values[:, b])
            except (TooFewPairs, ConstantInput):
                skipped.append((m.rater_ids[a], m.rater_ids[b]))
        if not defined:
            with pytest.raises(ConstantInput):
                inter_rater_agreement(m)
            return
        report = inter_rater_agreement(m)
        assert report.skipped_pairs == tuple(skipped)
        assert list(report.per_rater_mean_r) == list(m.rater_ids)
        for j, rid in enumerate(m.rater_ids):
            rs = [r for pair, r in defined.items() if j in pair]
            mean = report.per_rater_mean_r[rid]
            if rs:
                assert abs(mean - math.fsum(rs) / len(rs)) <= 1e-12, (rid, mean)
            else:
                assert math.isnan(mean), (rid, mean)


    @PROPERTY
    @given(
        n=st.integers(1, 30),
        k=st.integers(2, 14),
        missing=st.floats(0.0, 0.7),
        integer=st.booleans(),
        constant=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pairs_match_the_pair_loop_exactly(self, n, k, missing, integer, constant,
                                                seed):
        """The mean r, each rater's mean r and the skipped pairs equal, bit for
        bit, those of a loop over the pairs of the same kernel matrix."""
        rng = np.random.default_rng(seed)
        values = rng.integers(1, 10, size=(n, k)).astype(float)
        if not integer:
            values += rng.normal(0.0, 0.3, size=(n, k))
        values[:, k - constant:] = 5.0  # raters with no defined pair
        values[rng.random((n, k)) < missing] = np.nan
        m = matrix(values)
        expected = agreement_by_pairs(_pairwise_r(values), m.rater_ids)
        if expected is None:
            with pytest.raises(ConstantInput):
                inter_rater_agreement(m)
            return
        report = inter_rater_agreement(m)
        mean_r, per_rater, skipped = expected
        assert report.mean_pairwise_r.hex() == mean_r.hex()
        assert report.skipped_pairs == skipped
        assert [v.hex() for v in report.per_rater_mean_r.values()] == \
            [v.hex() for v in per_rater.values()]
        assert list(report.per_rater_mean_r) == list(per_rater)

    def test_constant_row_sums_leave_alpha_absent(self):
        # Every row sums to 10: alpha's denominator is zero, r is -1.
        m = matrix([[1, 9], [2, 8], [3, 7], [4, 6]])
        with pytest.raises(ConstantInput):
            cronbach_alpha(m)
        report = inter_rater_agreement(m)
        assert report.alpha is None
        assert report.n_complete_items == 4
        assert report.mean_pairwise_r == pytest.approx(-1.0, abs=1e-12)


def joint_row_conditioning(values, a, b):
    """Sum of squares about each column's own mean over its squares about the joint-row mean.

    The pairwise kernel centres a column once, by its mean over all its
    present rows, so its error in r grows with this ratio; the larger of
    the pair's two columns is returned.
    """
    joint = np.isfinite(values[:, a]) & np.isfinite(values[:, b])
    ratio = 1.0
    for c in (a, b):
        rows = values[joint, c]
        column_mean = values[np.isfinite(values[:, c]), c].mean()
        about_column = float(((rows - column_mean) ** 2).sum())
        about_joint = float(((rows - rows.mean()) ** 2).sum())
        ratio = max(ratio, about_column / about_joint)
    return ratio


class TestPairwiseKernel:
    @PROPERTY
    @given(
        n=st.integers(1, 40),
        k=st.integers(2, 40),
        missing=st.floats(0.0, 0.9),
        integer=st.booleans(),
        offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
        planted=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_pearson(self, n, k, missing, integer, offset, planted, seed):
        """Same undefined pairs as ``pearson``, and r within 1e-12.

        Integer ratings, offset or not, stay within 1e-12 absolute.
        Continuous values with near-ties over a pair's joint rows are held
        to 1e-14 times the joint-row conditioning when that is larger (the
        kernel's error measured at most about 5 eps times it).
        """
        rng = np.random.default_rng(seed)
        if integer:
            values = rng.integers(1, 10, size=(n, k)).astype(float)
        else:
            values = rng.normal(size=(n, k))
        values += offset * rng.uniform(-1.0, 1.0, size=k)
        values[rng.random((n, k)) < missing] = np.nan
        for _ in range(planted):
            # Column a repeats one of its own values on a random half of
            # the rows and column b keeps only those rows, so a is constant
            # over the pair's joint rows but not over all of its own.
            a, b = rng.choice(k, size=2, replace=False)
            rows = rng.random(n) < 0.5
            held = values[np.isfinite(values[:, a]), a]
            values[rows, a] = held[0] if held.size else np.nan
            values[~rows, b] = np.nan
        r = _pairwise_r(values)
        for a, b in combinations(range(k), 2):
            try:
                expected = pearson(values[:, a], values[:, b])
            except (TooFewPairs, ConstantInput):
                assert math.isnan(r[a, b]), (a, b)
                continue
            error = abs(r[a, b] - expected)
            if not error <= 1e-12:
                assert not integer, (a, b, error)
                bound = 1e-14 * joint_row_conditioning(values, a, b)
                assert error <= bound, (a, b, error, bound)

    @PROPERTY
    @given(
        n=st.integers(3, 40),
        k=st.integers(2, 30),
        missing=st.floats(0.0, 0.6),
        integer=st.booleans(),
        offset=st.sampled_from([0.0, 1.0, 1e3, 1e6, 1e9, 1e12]),
        planted=st.lists(st.sampled_from(["own", "zero", "mean"]), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_screen_changes_no_bit(self, n, k, missing, integer, offset, planted, seed):
        """The rounding screen leaves every bit of the unscreened kernel.

        Each planted column a is constant over the rows it shares with a
        partner b, but not over all of its own rows.  Its constant is one of
        its own values ("own", which leaves a rounding residue as its
        centred spread when the offset is large), 0 ("zero", far from the
        column's mean when the offset is large), or its own mean exactly
        ("mean": an integer column whose other rows pair off around the
        constant, so the centred value and the spread are exactly 0).
        """
        rng = np.random.default_rng(seed)
        if integer:
            values = rng.integers(1, 10, size=(n, k)).astype(float)
        else:
            values = rng.normal(size=(n, k))
        values += offset * rng.uniform(-1.0, 1.0, size=k)
        values[rng.random((n, k)) < missing] = np.nan
        for kind in planted:
            a, b = rng.choice(k, size=2, replace=False)
            rows = rng.random(n) < 0.6
            values[~rows, b] = np.nan
            held = values[np.isfinite(values[:, a]), a]
            if kind == "own":
                values[rows, a] = held[0] if held.size else np.nan
            elif kind == "zero":
                values[rows, a] = 0.0
            else:
                centre = float(round(offset * rng.uniform(-1.0, 1.0)))
                others = np.flatnonzero(~rows)
                steps = np.arange(1, len(others) // 2 + 1, dtype=float)
                values[rows, a] = centre
                values[others, a] = centre
                values[others[: len(steps)], a] = centre + steps
                values[others[len(steps) : 2 * len(steps)], a] = centre - steps
        r = _pairwise_r(values)
        assert r.view(np.uint64).tolist() == pairwise_r_unscreened(values).view(np.uint64).tolist()

    @PROPERTY
    @given(
        n=st.integers(3, 300),
        k=st.integers(2, 8),
        missing=st.floats(0.0, 0.5),
        offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_power_of_two_scaling_moves_no_bit(self, n, k, missing, offset, seed):
        """Each column scaled by 2**-500, 1 or 2**500 leaves every r as it is.

        Each column is divided by the power of two of its peak before any
        sum or product is formed.
        """
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, k)) + offset * rng.uniform(-1.0, 1.0, size=k)
        values[rng.random((n, k)) < missing] = np.nan
        scaled = np.ldexp(values, rng.choice([-500, 0, 500], size=k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = _pairwise_r(scaled)
        assert r.view(np.uint64).tolist() == _pairwise_r(values).view(np.uint64).tolist()

    def test_underflowed_spread_is_not_cleared(self):
        # Column 0 is 0 over the three rows it shares with column 1, and its
        # centred value there is about 1e-161, whose square is subnormal.
        # Its spread is then 5e-324, one subnormal step, and a bound
        # relative to its sum of squares alone underflows to 0.
        values = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0],
                           [-3 * 1.4461152882205516e-161, np.nan]])
        with pytest.raises(ConstantInput):
            pearson(values[:, 0], values[:, 1])
        r = _pairwise_r(values)
        assert math.isnan(r[0, 1]) and math.isnan(r[1, 0])

    def test_constant_rater_is_undefined_not_zero_variance(self):
        # Column 0 is constant over the three rows it shares with column 1
        # but not overall; after centring by its overall mean, its sum of
        # squares over those rows is a rounding residue, not an exact zero.
        values = np.array(
            [[1e6 + 0.1, 1.0], [1e6 + 0.1, 2.0], [1e6 + 0.1, 4.0],
             [1e6 + 0.7, np.nan], [1e6 + 0.3, np.nan]]
        )
        r = _pairwise_r(values)
        assert math.isnan(r[0, 1]) and math.isnan(r[1, 0])
        assert r[0, 0] == pytest.approx(1.0) and r[1, 1] == pytest.approx(1.0)


def flag(values):
    return flag_outlier_raters(inter_rater_agreement(matrix(values)))


class TestOutlierFlagging:
    def test_negated_rater_flagged(self):
        column = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        values = np.column_stack([column, column, column, -column])
        flagged = flag(values)
        assert [rid for rid, _ in flagged] == ["r3"]
        assert flagged[0][1] == pytest.approx(-1.0, abs=1e-12)

    def test_identical_panel_unflagged(self):
        column = np.array([1.0, 2.0, 3.0, 4.0])
        values = np.column_stack([column] * 5)
        assert flag(values) == []

    def test_noise_rater_flagged_far_below_panel(self):
        rng = np.random.default_rng(21)
        signal = rng.normal(size=40)
        panel = np.column_stack(
            [signal + rng.normal(scale=0.2, size=40) for _ in range(9)]
        )
        lone = rng.normal(size=40)  # rates independently of everyone
        values = np.column_stack([panel, lone])
        flagged = flag(values)
        assert "r9" in [rid for rid, _ in flagged]
        coherent = {f"r{j}" for j in range(9)}
        assert not coherent & {rid for rid, _ in flagged}

    def test_flagging_does_not_mutate(self):
        column = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        values = np.column_stack([column, column, -column])
        report = inter_rater_agreement(matrix(values))
        before = dict(report.per_rater_mean_r)
        assert [rid for rid, _ in flag_outlier_raters(report)] == ["r2"]
        assert report.per_rater_mean_r == before

    def test_needs_three_raters(self):
        report = inter_rater_agreement(matrix([[1, 2], [2, 3], [3, 4]]))
        with pytest.raises(ValueError):
            flag_outlier_raters(report)


class TestItemMeans:
    def test_simple(self):
        m = matrix([[1, 3], [2, 4]])
        assert item_mean_ratings(m) == pytest.approx([2.0, 3.0], abs=1e-15)

    def test_missing_cells_use_present_raters(self):
        m = matrix([[5.0, np.nan, 7.0], [1.0, 2.0, 3.0]])
        assert item_mean_ratings(m) == pytest.approx([6.0, 2.0], abs=1e-15)

    def test_drop_raters(self):
        m = matrix([[1.0, 1.0, 10.0], [2.0, 2.0, 20.0]])
        trimmed = item_mean_ratings(m, drop_raters=["r2"])
        assert trimmed == pytest.approx([1.0, 2.0], abs=1e-15)

    def test_drop_to_below_two_raters(self):
        m = matrix([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(AllDropped):
            item_mean_ratings(m, drop_raters=["r1"])

    def test_all_missing_item_is_nan(self):
        m = matrix([[np.nan, np.nan], [1.0, 2.0], [3.0, 4.0]])
        means = item_mean_ratings(m)
        assert math.isnan(means[0])
        assert means[1] == pytest.approx(1.5)


class TestCrossCorrelation:
    def test_grid_against_pairwise(self):
        rng = np.random.default_rng(31)
        table = rng.normal(size=(25, 4))
        table[3, 1] = np.nan
        grid = cross_correlation_matrix(table, ["a", "b", "c", "d"])
        cell = grid.cell("a", "b")
        assert cell.r == pytest.approx(pearson(table[:, 0], table[:, 1]), abs=1e-14)
        assert cell.n == 24
        assert cell.p == pytest.approx(correlation_p_value(cell.r, cell.n), abs=1e-15)

    def test_counts_are_each_pairs_joint_rows(self):
        rng = np.random.default_rng(34)
        table = rng.normal(size=(20, 4))
        for column, rows in enumerate(([0, 1], [1, 2, 3], [7], [])):
            table[rows, column] = np.nan
        grid = cross_correlation_matrix(table, ["a", "b", "c", "d"])
        for i in range(4):
            for j in range(4):
                x, y = table[:, i], table[:, j]
                assert grid.cells[i][j].n == int((np.isfinite(x) & np.isfinite(y)).sum())

    def test_symmetric(self):
        rng = np.random.default_rng(32)
        table = rng.normal(size=(15, 3))
        grid = cross_correlation_matrix(table, ["a", "b", "c"])
        for i in range(3):
            for j in range(3):
                assert grid.cells[i][j] == grid.cells[j][i] or (
                    i != j and grid.cells[i][j] is grid.cells[j][i]
                )

    def test_diagonal(self):
        rng = np.random.default_rng(33)
        grid = cross_correlation_matrix(rng.normal(size=(10, 2)), ["a", "b"])
        assert grid.cell("a", "a").r == 1.0

    def test_undefined_cell_is_none(self):
        table = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
        grid = cross_correlation_matrix(table, ["x", "const"])
        assert grid.cell("x", "const") is None

    def test_stars_attached(self):
        x = np.arange(30.0)
        y = x + np.concatenate([np.zeros(15), np.ones(15)])  # near-perfect
        grid = cross_correlation_matrix(np.column_stack([x, y]), ["x", "y"])
        assert grid.cell("x", "y").stars == "***"


class TestStars:
    def test_thresholds_strict(self):
        assert stars_for_p(0.051) == ""
        assert stars_for_p(0.05) == ""
        assert stars_for_p(0.049) == "*"
        assert stars_for_p(0.01) == "*"
        assert stars_for_p(0.009) == "**"
        assert stars_for_p(0.001) == "**"
        assert stars_for_p(0.0009) == "***"
        assert stars_for_p(0.0) == "***"
