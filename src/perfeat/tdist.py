"""Student-t tail probabilities from the regularized incomplete beta function.

The two-tailed probability for a t statistic with nu degrees of freedom is

    P(|T| >= |t|) = I_x(nu / 2, 1 / 2),   x = nu / (nu + t^2),

where I is the regularized incomplete beta function, evaluated here with the
standard continued-fraction expansion (Lentz's algorithm) on whichever of
I_x(a, b) and 1 - I_{1-x}(b, a) converges fast.
"""

from __future__ import annotations

import math

_MAX_ITERATIONS = 400
_EPS = 3e-16
_TINY = 1e-300


def log_beta(a: float, b: float) -> float:
    """log of the beta function B(a, b) for positive arguments.

    An infinite argument gives -inf, the limit of log B there.  ValueError
    for an argument that is not positive, NaN included.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"beta function arguments must be positive, got a={a}, b={b}")
    if math.isinf(a) or math.isinf(b):
        return -math.inf
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta integral at (a, b, x)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITERATIONS + 1):
        m2 = 2 * m
        # One Lentz step for the even term, then one for the odd term.
        for numerator in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                          -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + numerator * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + numerator / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), monotone in x from 0 at x = 0 to 1 at x = 1.

    ValueError for a shape that is not positive and finite, or a NaN x.
    """
    for name, shape in (("a", a), ("b", b)):
        if not 0 < shape < math.inf:
            raise ValueError(f"shape parameter {name} must be positive and finite, got {shape}")
    if math.isnan(x):
        raise ValueError("x is NaN")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    front = math.exp(log_front)
    # Use the expansion on the side of the split point where it converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_two_tailed(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom: 0 at t = ±inf."""
    if not 0 < df < math.inf:
        raise ValueError(f"degrees of freedom must be positive and finite, got {df}")
    if math.isnan(t):
        raise ValueError("t statistic is NaN")
    x = df / (df + t * t)
    return regularized_incomplete_beta(0.5 * df, 0.5, x)

