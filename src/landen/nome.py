"""Transformation coefficients from the nome, in exact decimal arithmetic.

Every coefficient of a p-term transformation depends on (family, p, m)
alone, and all of them follow from the nome q = exp(-pi K'/K) of m:

    m~      = (theta2(q^p) / theta3(q^p))^4      (DLMF 22.2.2)
    K(m~)   = (pi / 2) theta3(q^p)^2             (DLMF 20.9.2)
    s       = K(m) / (p K(m~))                   the argument scale

with K = pi / (2 AGM(1, sqrt(1 - m))) and K' = pi / (2 AGM(1, sqrt(m)))
(DLMF 19.8.5, 22.2.1); the second chain starts from sqrt(m), so 1 - m is
never formed for q.  This module runs that route at 34 significant digits
with the standard library's ``decimal`` (the AGM with its correctly
rounded ``sqrt``, the theta series with its correctly rounded ``exp``), so
the float64 values it hands out are correctly rounded whatever the width
of numpy's longdouble, and it imports no numpy: ``landen coeffs``,
``landen table`` and ``landen eval --fn K`` run on it alone.  What the
three families share at one (p, m), m~, K(m~) and s, is cached.

It also holds the types that name a transformation (Family, LandenSpec,
LandenCoefficients) and the one m-range check, ``_validate_m``, which
imports numpy only for an array m.  :mod:`landen.general` re-exports the
public names and rounds m~, K(m~) and s to np.longdouble for its p-term
evaluations.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from enum import Enum

__all__ = [
    "Family",
    "LandenSpec",
    "LandenCoefficients",
    "AlternatingSumDegenerateError",
    "CN_EVEN_MIN_M",
    "coefficients",
    "quarter_period",
]

# Below this parameter the alternating sum behind the even cn family
# underflows toward zero (every dn tends to 1) and its reciprocal is
# noise; the operation refuses rather than fabricate a value.
CN_EVEN_MIN_M = 1e-8

# The nome route's own limit: m~ = 16 q^p (1 + O(q^p)) must stay a normal
# float64, which holds up to p = 141 at m = 0.1.
_TINY = Decimal(sys.float_info.min)

# 34 digits (IEEE decimal128) leave about 18 guard digits over float64 and
# 15 over an 80-bit longdouble; the exponent range never under- or
# overflows on the way to a normal float64.
_CTX = Context(prec=34, Emin=-999_999, Emax=999_999)
_PI = Decimal("3.14159265358979323846264338327950288419716939937511")
# The AGM stops when a and b agree to this relative distance: one more
# mean is then exact to the working precision (quadratic convergence).
_AGM_RTOL = Decimal("1e-32")
# Theta-series terms below this add nothing to a sum that starts at 1.
_SERIES_TOL = Decimal("1e-36")


class Family(str, Enum):
    DN = "dn"
    CN = "cn"
    SN = "sn"


class AlternatingSumDegenerateError(ValueError):
    """Alternating-sum normalization degenerate (even cn family, m -> 0)."""


@dataclass(frozen=True)
class LandenSpec:
    """Transformation selector: function family and term count p >= 2."""

    family: Family
    p: int

    def __post_init__(self):
        if not isinstance(self.p, numbers.Integral) or self.p < 2:
            raise ValueError(f"term count p must be an integer >= 2, got {self.p!r}")
        object.__setattr__(self, "family", Family(self.family))

    @property
    def odd(self) -> bool:
        return self.p % 2 == 1


@dataclass(frozen=True)
class LandenCoefficients:
    """Normalization, cubic-sum/product constant, transformed parameter,
    and the multiplier applied to x inside the right-hand side.

    `a_sum` is None for the odd sn family, whose parameter map
    m~ = m a1^2 / a3^2 involves no cubic sum or product constant.
    """

    alpha: float
    a_sum: float | None
    m_tilde: float
    arg_scale: float


@dataclass(frozen=True)
class _CoefficientSet:
    """The coefficients of one family at m and the quarter period K(m~) of
    the single function: Decimal values in _limit_set, np.longdouble in
    general._raw_coefficients."""

    alpha: object
    a_sum: object
    m_tilde: object
    arg_scale: object
    big_k_tilde: object


def _validate_m(m, *, below_one=False, above_zero=False, what="parameter m"):
    """m as a float (an array m as a float64 array), or ValueError unless
    every value lies in [0, 1].

    below_one and above_zero open the interval at that end; `what` names
    the quantity in the message, which quotes the first value outside it.
    NaN and +-inf fail every interval.  Only an m that is not a real
    number (an array, a list) imports numpy.
    """
    if not isinstance(m, numbers.Real):
        import numpy as np

        if np.ndim(m):
            values = np.asarray(m, dtype=np.float64)
            ok = ((values > 0.0 if above_zero else values >= 0.0)
                  & (values < 1.0 if below_one else values <= 1.0))
            if ok.all():
                return values
            m = values[~ok][0]
    m = float(m)
    low_ok = m > 0.0 if above_zero else m >= 0.0
    high_ok = m < 1.0 if below_one else m <= 1.0
    if not (low_ok and high_ok):
        interval = f"{'(' if above_zero else '['}0, 1{')' if below_one else ']'}"
        raise ValueError(f"{what} must lie in {interval}, got {m!r}")
    return m


def _agm(b):
    """AGM(1, b) for 0 < b <= 1, in the active 34-digit context."""
    a = Decimal(1)
    while abs(a - b) > _AGM_RTOL * a:
        a, b = (a + b) / 2, (a * b).sqrt()
    return (a + b) / 2


def _big_k(m):
    """K(m) = pi / (2 AGM(1, sqrt(1 - m))) for 0 <= m < 1, as a Decimal."""
    with localcontext(_CTX):
        return _PI / (2 * _agm((1 - Decimal(m)).sqrt()))


def quarter_period(m) -> float:
    """The complete elliptic integral K(m), 0 <= m < 1, from the 34-digit
    AGM, correctly rounded to float64: the value ``landen eval --fn K``
    prints.  K diverges at m = 1, which is rejected."""
    m = _validate_m(m, below_one=True, what="the parameter m of K(m) (divergent at m = 1)")
    return float(_big_k(m))


@functools.lru_cache(maxsize=1024)
def _nome_route(p, m):
    """(m~, K(m~), s) as Decimals for term count p and 0 < m < 1: the part
    of the coefficients that the three families share.

    log q^p = -p pi K'/K; m~ = 16 q^p (sum_{n>=0} q^(p n(n+1)) / theta3)^4
    and theta3 = 1 + 2 sum_{n>=1} q^(p n^2) (DLMF 20.2.2-3), each term one
    exp, the series stopped once a term falls below 1e-36.
    s = K(m) / (p K(m~)) is the argument scale of every family.
    """
    big_k = _big_k(m)
    with localcontext(_CTX):
        big_k_prime = _PI / (2 * _agm(Decimal(m).sqrt()))
        log_qp = -p * _PI * big_k_prime / big_k
        theta2_reduced, theta3 = Decimal(1), Decimal(1)
        n = 1
        while True:
            term3 = (n * n * log_qp).exp()
            if term3 < _SERIES_TOL:
                break
            theta2_reduced += (n * (n + 1) * log_qp).exp()
            theta3 += 2 * term3
            n += 1
        m_tilde = 16 * log_qp.exp() * (theta2_reduced / theta3) ** 4
        big_k_tilde = _PI / 2 * theta3 * theta3
        return m_tilde, big_k_tilde, big_k / (p * big_k_tilde)


def _checked_m(spec, m):
    """m as a float in [0, 1], or ValueError; AlternatingSumDegenerateError
    for the even cn family below CN_EVEN_MIN_M."""
    m = _validate_m(m)
    if spec.family is Family.CN and not spec.odd and m < CN_EVEN_MIN_M:
        raise AlternatingSumDegenerateError(
            f"alternating-sum degenerate: for m = {m!r} < {CN_EVEN_MIN_M} every dn "
            "tends to 1 and the alternating normalization underflows")
    return m


def _route(spec, m):
    """_nome_route at a checked 0 < m < 1, or ArithmeticError where m~ is
    below float64's smallest normal value (16 q^p underflows), past the
    route's range."""
    m_tilde, big_k_tilde, s = _nome_route(int(spec.p), m)
    if m_tilde < _TINY:
        raise ArithmeticError(
            f"{spec.family.value} p = {spec.p} is beyond the nome route at m = {m!r}: "
            f"m~ = 16 q^p = {float(m_tilde)!r} is below the smallest normal "
            f"float64 {float(_TINY)!r}")
    return m_tilde, big_k_tilde, s


def _limit_set(spec, m):
    """The family's coefficients at a checked m = 0 or m = 1, as Decimals:
    the analytic limits."""
    family, p, odd = spec.family, int(spec.p), spec.odd
    one, inf = Decimal(1), Decimal("Infinity")
    if m == 1.0:
        # Hyperbolic limit: only the unshifted term survives (all shifted
        # arguments run off to infinity where sech vanishes, tanh -> 1).
        a_sum = None if (family is Family.SN and odd) else one
        return _CoefficientSet(one, a_sum, one, one, inf)

    with localcontext(_CTX):
        big_k, inv_p, zero = _big_k(0.0), one / p, Decimal(0)
        if family is Family.DN:
            return _CoefficientSet(inv_p, Decimal(p), zero, inv_p, big_k)
        if family is Family.SN and not odd:
            return _CoefficientSet(inv_p, Decimal(p) / 2 ** (p - 1), zero, inv_p, big_k)
    if family is Family.SN:
        # sum of equally spaced cosines vanishes, so a3 diverges; the
        # parameter map still has the clean limit m~ = 0 and the inner
        # scale a1 -> 1/p.
        return _CoefficientSet(inf, None, zero, inv_p, big_k)
    # odd cn: the normalization diverges as for odd sn, and the inner
    # scale b = a3 sqrt(m~/m) has no closed limit worth fabricating.
    # The cubic sum is sum_i cos^3(2 pi i/p) = (3/4) sum_i cos(2 pi i/p)
    # + (1/4) sum_i cos(6 pi i/p): 3/4 at p = 3 and exactly 0 for every
    # odd p >= 5.
    cubes = Decimal("0.75") if p == 3 else zero
    return _CoefficientSet(inf, cubes, zero, Decimal("NaN"), big_k)


def _sum_constant(family, p, m, m_tilde, alpha):
    """The family's sum constant solved from its m~ formula, in the
    arithmetic of m, m_tilde and alpha (Decimal in :func:`coefficients`,
    np.longdouble in general._raw_coefficients): A1..A4 from
    m~ = (m - 2) a^2 + 2 a^3 A and its cn forms, A5 from
    m~ = m^p a2^4 A5^4 for even sn, and None for odd sn, whose
    m~ = m a1^2 / a3^2 involves no sum constant."""
    odd = p % 2 == 1
    if family is Family.DN:
        return (m_tilde - (m - 2) * alpha ** 2) / (2 * alpha ** 3)
    if family is Family.CN and odd:
        return (m / m_tilde - (1 - 2 * m) * alpha ** 2) / (2 * m * alpha ** 3)
    if family is Family.CN:
        return (1 / m_tilde - (m - 2) * alpha ** 2) / (2 * alpha ** 3)
    if odd:
        return None
    ratio = m_tilde / (m ** p * alpha ** 4)
    return ratio ** type(ratio)("0.25")


def _require_finite(spec, m, alpha, arg_scale, a_sum):
    """ArithmeticError unless every coefficient is a finite float64."""
    if not all(math.isfinite(value) for value in (alpha, arg_scale, a_sum or 0)):
        raise ArithmeticError(
            f"{spec.family.value} p = {spec.p} coefficients are not finite at m = {m!r}: "
            f"alpha = {float(alpha)!r}, arg_scale = {float(arg_scale)!r}")


def coefficients(spec: LandenSpec, m) -> LandenCoefficients:
    """Normalization alpha, constant A (or A5), transformed parameter m~,
    and argument scale for one family at parameter m.

    For 0 < m < 1 every value comes from the nome q of m and two AGM
    chains: m~ = (theta2(q^p) / theta3(q^p))^4, K(m~) = (pi/2) theta3^2,
    the argument scale s = K(m) / (p K(m~)), alpha from s, and the sum
    constant from the family's m~ formula solved for it.  All of it runs
    at 34 decimal digits and each value is rounded to float64 once, so it
    is correctly rounded but for a one-in-1e16 tie.  The paper's shifted
    sums are not evaluated here; :func:`landen.general.sum_route_m_tilde`
    keeps them as verify's second route.

    m = 0 and m = 1 return the analytic limits (the quarter period
    diverges at m = 1; several normalizations diverge at m = 0).  The even
    cn family raises AlternatingSumDegenerateError below ``CN_EVEN_MIN_M``.
    A cell past the nome route's range, where m~ = 16 q^p underflows
    float64's smallest normal value (about p = 140 at m = 0.1), raises
    ArithmeticError.
    """
    m = _checked_m(spec, m)
    if m in (0.0, 1.0):
        limit = _limit_set(spec, m)
        alpha, a_sum, m_tilde, s = limit.alpha, limit.a_sum, limit.m_tilde, limit.arg_scale
    else:
        # alpha as in general._raw_coefficients, there in np.longdouble
        m_tilde, _, s = _route(spec, m)
        family, md = spec.family, Decimal(m)
        with localcontext(_CTX):
            if family is Family.DN or (family is Family.SN and not spec.odd):
                alpha = s
            elif spec.odd:
                alpha = s * (md / m_tilde).sqrt()
            else:
                alpha = s / m_tilde.sqrt()
            a_sum = _sum_constant(family, spec.p, md, m_tilde, alpha)
        _require_finite(spec, m, alpha, s, a_sum)
    return LandenCoefficients(alpha=float(alpha),
                              a_sum=None if a_sum is None else float(a_sum),
                              m_tilde=float(m_tilde), arg_scale=float(s))
