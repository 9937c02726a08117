"""Tail probabilities against quadrature, closed forms and scipy."""

import math

import pytest

from helpers import t_two_tailed_quadrature
from perfeat.tdist import (
    log_beta,
    regularized_incomplete_beta,
    student_t_two_tailed,
)

scipy_stats = pytest.importorskip("scipy.stats")
scipy_special = pytest.importorskip("scipy.special")

GRID_T = (0.1, 0.5, 1.0, 1.8856180831641267, 2.0, 3.5, 5.0, 10.0)
GRID_DF = (1, 2, 3, 5, 10, 30, 100)


class TestIncompleteBeta:
    def test_bounds(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetry_identity(self):
        for a, b, x in [(0.5, 2.5, 0.3), (3.0, 1.5, 0.7), (5.0, 0.5, 0.9)]:
            direct = regularized_incomplete_beta(a, b, x)
            mirrored = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert direct == pytest.approx(mirrored, abs=1e-14)

    def test_uniform_case(self):
        # I_x(1, 1) is the identity.
        for x in (0.1, 0.25, 0.5, 0.9):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(
                x, abs=1e-14
            )

    def test_against_scipy(self):
        for a in (0.5, 1.0, 2.5, 7.0, 15.0):
            for b in (0.5, 1.0, 2.5, 7.0):
                for x in (0.05, 0.3, 0.5, 0.8, 0.99):
                    ours = regularized_incomplete_beta(a, b, x)
                    ref = float(scipy_special.betainc(a, b, x))
                    assert ours == pytest.approx(ref, abs=1e-12)

    def test_monotone_in_x(self):
        previous = 0.0
        for i in range(1, 50):
            value = regularized_incomplete_beta(2.5, 0.5, i / 50.0)
            assert value >= previous
            previous = value

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            log_beta(-1.0, 2.0)

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.inf)])
    def test_log_beta_of_nan_is_named(self, a, b):
        with pytest.raises(ValueError, match=f"^beta function arguments must be positive,"
                                             f" got a={a}, b={b}$"):
            log_beta(a, b)

    @pytest.mark.parametrize("a, b", [(math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf),
                                      (math.inf, 1e-300)])
    def test_log_beta_at_infinity_is_its_limit(self, a, b):
        # B(a, b) falls to 0 as either argument grows without bound.
        assert log_beta(a, b) == -math.inf
        assert log_beta(b, a) == -math.inf

    @pytest.mark.parametrize("a, b, x, message", [
        (2.0, 3.0, math.nan, "x is NaN"),
        (math.inf, 0.5, 0.5, "shape parameter a must be positive and finite, got inf"),
        (math.nan, 1.0, 0.5, "shape parameter a must be positive and finite, got nan"),
        (1.0, math.inf, 0.5, "shape parameter b must be positive and finite, got inf"),
        (1.0, -math.inf, 0.5, "shape parameter b must be positive and finite, got -inf"),
    ])
    def test_nan_and_infinite_arguments_are_named(self, a, b, x, message):
        # Rejected before the continued fraction, which would otherwise run
        # every iteration and report only that it did not converge.
        with pytest.raises(ValueError, match=f"^{message}$"):
            regularized_incomplete_beta(a, b, x)


class TestStudentT:
    def test_quadrature_grid(self):
        for t in GRID_T:
            for df in GRID_DF:
                ours = student_t_two_tailed(t, df)
                oracle = t_two_tailed_quadrature(t, df)
                assert abs(ours - oracle) <= 1e-8, (t, df, ours, oracle)

    def test_scipy_grid(self):
        for t in GRID_T:
            for df in GRID_DF:
                ours = student_t_two_tailed(t, df)
                ref = float(2.0 * scipy_stats.t.sf(t, df))
                assert abs(ours - ref) <= 1e-12, (t, df, ours, ref)

    def test_df2_closed_form(self):
        # For two degrees of freedom the CDF is 1/2 + t / (2 sqrt(2 + t^2)).
        for t in (0.5, 1.0, 1.8856180831641267, 4.0):
            expected = 2.0 * (0.5 - t / (2.0 * math.sqrt(2.0 + t * t)))
            assert student_t_two_tailed(t, 2) == pytest.approx(expected, abs=1e-14)

    def test_correlation_example(self):
        # r = 0.8 over four pairs: t = 0.8 sqrt(2 / 0.36), p = 0.2 exactly.
        t = 0.8 * math.sqrt(2.0 / (1.0 - 0.64))
        assert student_t_two_tailed(t, 2) == pytest.approx(0.2, abs=1e-12)

    def test_zero_statistic(self):
        # x = df / (df + t^2) is exactly 1 at t = 0 of either sign.
        for df in (*GRID_DF, 0.5, 2.5, 1e6):
            assert student_t_two_tailed(0.0, df) == 1.0
            assert student_t_two_tailed(-0.0, df) == 1.0

    def test_symmetric_in_t(self):
        for t in (0.7, 2.3):
            assert student_t_two_tailed(t, 7) == pytest.approx(
                student_t_two_tailed(-t, 7), abs=1e-15
            )

    def test_infinite_statistic(self):
        assert student_t_two_tailed(math.inf, 3) == 0.0
        assert student_t_two_tailed(-math.inf, 3) == 0.0

    def test_monotone_decreasing_in_t(self):
        previous = 1.1
        for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
            value = student_t_two_tailed(t, 6)
            assert value < previous
            previous = value

    def test_invalid_df(self):
        with pytest.raises(ValueError):
            student_t_two_tailed(1.0, 0)
        # x = df / (df + t^2) would be NaN, and the continued fraction never converge.
        for df in (math.inf, math.nan):
            for t in (1.0, math.inf):
                with pytest.raises(ValueError, match="positive and finite"):
                    student_t_two_tailed(t, df)
        with pytest.raises(ValueError, match="^t statistic is NaN$"):
            student_t_two_tailed(math.nan, 3)
