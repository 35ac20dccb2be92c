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
rounded ``sqrt``, one correctly rounded ``exp`` for q^p and the theta
series as running products), so the float64 values it hands out are
correctly rounded whatever the width of numpy's longdouble, and it
imports no numpy.  What the three families share at one (p, m), m~,
K(m~) and s, is cached, and so are K and K' per m.

The same nome gives sn, cn and dn at one point as theta quotients
(DLMF 22.2.4-6), :func:`jacobi_nome`, at 34 digits plus the decimal
exponent of a large argument.  ``landen coeffs``, ``landen table`` and
``landen eval`` run on this module alone.

It also holds the types that name a transformation (Family, LandenSpec,
LandenCoefficients) and the one m-range check, ``_validate_m``, which
imports numpy only for an array m.  The records are
``collections.namedtuple`` subclasses, the one record idiom of the
package: they cost no import that the interpreter has not already made,
where a record library that loads ``inspect`` would be a sizeable share
of a cold ``landen coeffs``.  :mod:`landen.general` re-exports the
public names.

One procedure, ``_coefficient_set``, turns the route into a family's
coefficients: the m check, the limits at m = 0 and m = 1, the family's
alpha and its sum constant.  It works in the arithmetic its caller hands
it, a converter and a sqrt: :func:`coefficients` runs it in Decimal and
rounds to float64, and the p-term evaluations of :mod:`landen.general`
run it in np.longdouble.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from collections import namedtuple
from decimal import Context, Decimal, getcontext, localcontext
from enum import Enum

__all__ = [
    "Family",
    "LandenSpec",
    "LandenCoefficients",
    "AlternatingSumDegenerateError",
    "CN_EVEN_MIN_M",
    "coefficients",
    "jacobi_nome",
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
# 15 over an 80-bit longdouble.
_DIGITS = 34


def _context(prec=_DIGITS):
    """A decimal context of prec digits whose exponent range never under-
    or overflows on the way to a normal float64."""
    return Context(prec=prec, Emin=-999_999, Emax=999_999)


def _ulps(shift):
    """10^(shift - prec): `shift` digits above the last one the active
    context keeps (below it for a negative shift)."""
    return Decimal(f"1e{shift - getcontext().prec}")


class Family(str, Enum):
    DN = "dn"
    CN = "cn"
    SN = "sn"


class AlternatingSumDegenerateError(ValueError):
    """Alternating-sum normalization degenerate (even cn family, m -> 0)."""


class LandenSpec(namedtuple("LandenSpec", "family p")):
    """Transformation selector: function family and term count p >= 2."""

    __slots__ = ()

    def __new__(cls, family, p):
        if not isinstance(p, numbers.Integral) or p < 2:
            raise ValueError(f"term count p must be an integer >= 2, got {p!r}")
        return super().__new__(cls, Family(family), p)

    @classmethod
    def _make(cls, iterable):
        # _replace builds its copy here: check the fields as __new__ does
        return cls(*iterable)

    @property
    def odd(self) -> bool:
        return self.p % 2 == 1


def _open_at_zero(spec):
    """Whether the family's p-term side takes m in (0, 1) rather than
    [0, 1): odd cn and odd sn, whose normalization diverges at m = 0
    (_limit_set).  Callers pass it to _validate_m as above_zero."""
    return spec.odd and spec.family is not Family.DN


class LandenCoefficients(namedtuple("LandenCoefficients", "alpha a_sum m_tilde arg_scale")):
    """Normalization, cubic-sum/product constant, transformed parameter,
    and the multiplier applied to x inside the right-hand side, as floats.

    `a_sum` is None for the odd sn family, whose parameter map
    m~ = m a1^2 / a3^2 involves no cubic sum or product constant.
    """

    __slots__ = ()


class _CoefficientSet(namedtuple("_CoefficientSet",
                                 "alpha a_sum m_tilde arg_scale big_k_tilde")):
    """The coefficients of one family at m and the quarter period K(m~) of
    the single function, in the arithmetic of _coefficient_set's caller."""

    __slots__ = ()


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


@functools.lru_cache(maxsize=64)
def _pi_digits(digits):
    """pi to `digits` significant digits from the Gauss-Legendre AGM,
    worked with 10 guard digits."""
    with localcontext(_context(digits + 10)):
        a, b, t, weight, tol = Decimal(1), Decimal("0.5").sqrt(), Decimal("0.25"), 1, _ulps(2)
        while abs(a - b) > tol:
            a, b, t, weight = (a + b) / 2, (a * b).sqrt(), t - weight * ((a - b) / 2) ** 2, 2 * weight
        pi = (a + b) ** 2 / (4 * t)
    return _context(digits).plus(pi)


def _pi():
    """pi with 17 digits over the active context's, so that a product or
    quotient with it rounds as one with the exact pi would."""
    return _pi_digits(getcontext().prec + 17)


def _agm(b):
    """AGM(1, b) for 0 < b <= 1, in the active context.  It stops when a
    and b agree to 100 units of the last digit relative; one more mean is
    then exact to the working precision (quadratic convergence)."""
    a, tol = Decimal(1), _ulps(2)
    while abs(a - b) > tol * a:
        a, b = (a + b) / 2, (a * b).sqrt()
    return (a + b) / 2


def _quarter(b):
    """pi / (2 AGM(1, b)) in the active context: K(m) at b = sqrt(1 - m),
    K'(m) = K(1 - m) at b = sqrt(m) (DLMF 19.8.5)."""
    return _pi() / (2 * _agm(b))


def _big_k(m):
    """K(m) for 0 <= m < 1, as a 34-digit Decimal."""
    with localcontext(_context()):
        return _quarter((1 - Decimal(m)).sqrt())


def quarter_period(m) -> float:
    """The complete elliptic integral K(m), 0 <= m < 1, from the 34-digit
    AGM, correctly rounded to float64: the value ``landen eval --fn K``
    prints.  K diverges at m = 1, which is rejected."""
    m = _validate_m(m, below_one=True, what="the parameter m of K(m) (divergent at m = 1)")
    return float(_big_k(m))


@functools.lru_cache(maxsize=1024)
def _periods(m, prec=_DIGITS):
    """K(m) and K'(m) for 0 < m < 1 at prec digits.  The chain of K'
    starts from sqrt(m), so 1 - m is never formed for it."""
    with localcontext(_context(prec)):
        m = Decimal(m)
        return _quarter((1 - m).sqrt()), _quarter(m.sqrt())


def _theta_terms(q):
    """(n, q^(n^2), q^(n(n+1))) for n = 1, 2, ... while q^(n^2) is at
    least 10^(-2 - prec), for 0 < q < 1: the terms of theta3 and of
    theta2 / (2 q^(1/4)) (DLMF 20.2.2-3).  Both powers are running
    products, their ratios q^(2n+1) and q^(2n+2) stepped by q^2."""
    q2, tol = q * q, _ulps(-2)
    square, oblong, step_square, step_oblong = q, q2, q2 * q, q2 * q2
    n = 1
    while square >= tol:
        yield n, square, oblong
        square, oblong = square * step_square, oblong * step_oblong
        step_square, step_oblong = step_square * q2, step_oblong * q2
        n += 1


def _taylor(r, sign):
    """(cos r, sin r) for sign -1, (cosh r, sinh r) for sign +1, for
    |r| <= 1 in the active context: the even and odd terms of one Taylor
    series, summed until a term falls below 10^(-2 - prec) |r|."""
    parts, term, j, tol = [Decimal(0), Decimal(0)], Decimal(1), 0, _ulps(-2) * abs(r)
    while abs(term) > tol:
        parts[j % 2] += term
        j += 1
        term = term * r / j
        if j % 2 == 0:
            term *= sign
    return parts


def _sin_cos(z):
    """sin z and cos z in the active context: z less its nearest multiple
    k pi/2, the Taylor series at the remainder |r| <= pi/4, and the
    quadrant k mod 4."""
    half_pi = _pi() / 2
    k = (z / half_pi).to_integral_value()
    cos, sin = _taylor(z - k * half_pi, -1)
    return ((sin, cos), (cos, -sin), (-sin, -cos), (-cos, sin))[int(k) % 4]


def _tanh_sech(x):
    """tanh x and sech x in the active context: sn and cn = dn at m = 1.
    The series below |x| = 1, where 1 - exp(-2|x|) would cancel; above it
    h = exp(-|x|), which underflows to 0 far past the float64 range."""
    t = abs(x)
    if t < 1:
        cosh, sinh = _taylor(t, 1)
        tanh, sech = sinh / cosh, 1 / cosh
    else:
        h = (-t).exp()
        h2 = h * h
        tanh, sech = (1 - h2) / (1 + h2), 2 * h / (1 + h2)
    return tanh.copy_sign(x), sech


def _sn_cn_dn(x, m):
    """sn, cn and dn as Decimals at a nonzero Decimal x, taken as it is,
    and a float 0 <= m <= 1, worked at 34 digits plus the decimal
    exponent of |x| >= 1 (see :func:`jacobi_nome`)."""
    with localcontext(_context(_DIGITS + max(0, x.adjusted()))) as ctx:
        if m == 0.0:
            sin, cos = _sin_cos(x)
            return sin, cos, Decimal(1)
        if m == 1.0:
            tanh, sech = _tanh_sech(x)
            return tanh, sech, sech
        big_k, big_k_prime = _periods(m, ctx.prec)
        pi = _pi()
        sin, cos = _sin_cos(pi * x / (2 * big_k))
        cos2 = (cos - sin) * (cos + sin)
        twice_cos2 = 2 * cos2
        # sin and cos of (2n+1) z and cos 2nz by the Chebyshev recurrence
        # in steps of 2z, each held with its value one step back
        sin_odd, cos_odd, cos_even = (sin, -sin), (cos, cos), (Decimal(1), cos2)
        # theta1 and theta2 reduced by 2 q^(1/4), which cancels in sn and cn
        theta1, theta2, theta3, theta4 = sin, cos, Decimal(1), Decimal(1)
        null2, null3, null4 = Decimal(1), Decimal(1), Decimal(1)
        for n, square, oblong in _theta_terms((-pi * big_k_prime / big_k).exp()):
            sin_odd = (twice_cos2 * sin_odd[0] - sin_odd[1], sin_odd[0])
            cos_odd = (twice_cos2 * cos_odd[0] - cos_odd[1], cos_odd[0])
            cos_even = (twice_cos2 * cos_even[0] - cos_even[1], cos_even[0])
            sign, square2 = (-1 if n % 2 else 1), 2 * square
            theta1 += sign * oblong * sin_odd[0]
            theta2 += oblong * cos_odd[0]
            theta3 += square2 * cos_even[0]
            theta4 += sign * square2 * cos_even[0]
            null2 += oblong
            null3 += square2
            null4 += sign * square2
        return (null3 / null2 * theta1 / theta4, null4 / null2 * theta2 / theta4,
                null4 / null3 * theta3 / theta4)


def jacobi_nome(x, m) -> tuple[float, float, float]:
    """(sn, cn, dn) at a finite real x and 0 <= m <= 1, each correctly
    rounded to float64 (but for a one-in-1e16 tie): the values
    ``landen eval`` prints.

    For 0 < m < 1 they are theta quotients (DLMF 22.2.4-6) at
    z = pi x / (2K) and the nome q = exp(-pi K'/K):

        sn = (theta3 / theta2) theta1(z) / theta4(z)
        cn = (theta4 / theta2) theta2(z) / theta4(z)
        dn = (theta4 / theta3) theta3(z) / theta4(z)

    with theta_j = theta_j(0, q).  K and K' come from the AGM chains of
    the nome route, sin z and cos z from one Taylor series after reducing
    z by multiples of pi/2, and the multiple angles of the theta series
    (DLMF 20.2.1-4) from the Chebyshev recurrence.  m = 0 gives sin x,
    cos x, 1 and m = 1 gives tanh x, sech x, sech x.  The working
    precision is 34 digits plus the decimal exponent of |x| >= 1, with pi
    to match, so the reduction leaves 34 digits for every finite x.

    This is the scalar route of the package, next to the array kernel
    :func:`landen.elliptic.jacobi_eval`.  A call takes 0.1 to 0.3 ms, and
    a few ms at |x| = 1e300.
    """
    m = _validate_m(m)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("argument x must be finite")
    if x == 0.0:
        return 0.0, 1.0, 1.0
    sn, cn, dn = _sn_cn_dn(Decimal(x), m)
    return float(sn), float(cn), float(dn)


@functools.lru_cache(maxsize=1024)
def _nome_route(p, m):
    """(m~, K(m~), s) as Decimals for term count p and 0 < m < 1: the part
    of the coefficients that the three families share.

    log q^p = -p pi K'/K; m~ = 16 q^p (sum_{n>=0} q^(p n(n+1)) / theta3)^4
    and theta3 = 1 + 2 sum_{n>=1} q^(p n^2) (DLMF 20.2.2-3), with one exp
    for q^p and the terms as running products (_theta_terms).
    s = K(m) / (p K(m~)) is the argument scale of every family.
    """
    big_k, big_k_prime = _periods(m)
    with localcontext(_context()):
        q_p = (-p * _pi() * big_k_prime / big_k).exp()
        theta2_reduced, theta3 = Decimal(1), Decimal(1)
        for _, square, oblong in _theta_terms(q_p):
            theta2_reduced += oblong
            theta3 += 2 * square
        m_tilde = 16 * q_p * (theta2_reduced / theta3) ** 4
        big_k_tilde = _pi() / 2 * theta3 * theta3
        return m_tilde, big_k_tilde, big_k / (p * big_k_tilde)


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

    with localcontext(_context()):
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
    arithmetic of m, m_tilde and alpha: A1..A4 from
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


def _coefficient_set(spec, m, convert, sqrt):
    """The _CoefficientSet of one family at m, in the arithmetic of
    `convert` (a float m or a Decimal to a number of that arithmetic) and
    its `sqrt`: the one procedure behind :func:`coefficients` (Decimal, in
    the 34-digit context) and general._raw_coefficients (np.longdouble).

    m = 0 and m = 1 give the analytic limits of _limit_set.  Otherwise
    m~, K(m~) and the argument scale s of the nome route are each
    converted once, and alpha (s, s sqrt(m/m~) for odd cn and sn, or
    s / sqrt(m~) for even cn) and the sum constant are formed from them in
    that arithmetic, so that the paper's combinations of them (the
    sine-Gordon constant C, the even-sn product side) reproduce m~ to its
    last bit.

    ValueError for m outside [0, 1]; AlternatingSumDegenerateError for the
    even cn family below CN_EVEN_MIN_M; ArithmeticError where m~ is below
    float64's smallest normal value (16 q^p underflows, past the route's
    range) or a coefficient is not finite.
    """
    family, p, odd = spec.family, spec.p, spec.odd
    m = _validate_m(m)
    if family is Family.CN and not odd and m < CN_EVEN_MIN_M:
        raise AlternatingSumDegenerateError(
            f"alternating-sum degenerate: for m = {m!r} < {CN_EVEN_MIN_M} every dn "
            "tends to 1 and the alternating normalization underflows")
    if m in (0.0, 1.0):
        return _CoefficientSet._make(None if value is None else convert(value)
                                     for value in _limit_set(spec, m))
    m_tilde, big_k_tilde, s = _nome_route(int(p), m)
    if m_tilde < _TINY:
        raise ArithmeticError(
            f"{family.value} p = {p} is beyond the nome route at m = {m!r}: "
            f"m~ = 16 q^p = {float(m_tilde)!r} is below the smallest normal "
            f"float64 {float(_TINY)!r}")
    m_tilde, big_k_tilde, s, md = map(convert, (m_tilde, big_k_tilde, s, m))
    if family is Family.DN or (family is Family.SN and not odd):
        alpha = s
    elif odd:
        alpha = s * sqrt(md / m_tilde)
    else:
        alpha = s / sqrt(m_tilde)
    a_sum = _sum_constant(family, p, md, m_tilde, alpha)
    if not all(math.isfinite(value) for value in (alpha, s, a_sum or 0)):
        raise ArithmeticError(
            f"{family.value} p = {p} coefficients are not finite at m = {m!r}: "
            f"alpha = {float(alpha)!r}, arg_scale = {float(s)!r}")
    return _CoefficientSet(alpha, a_sum, m_tilde, s, big_k_tilde)


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
    keeps them as verify's second route.  This is the Decimal run of
    _coefficient_set, the procedure that the p-term evaluations of
    :mod:`landen.general` run in np.longdouble.

    m = 0 and m = 1 return the analytic limits (the quarter period
    diverges at m = 1; several normalizations diverge at m = 0).  The even
    cn family raises AlternatingSumDegenerateError below ``CN_EVEN_MIN_M``.
    A cell past the nome route's range, where m~ = 16 q^p underflows
    float64's smallest normal value (about p = 140 at m = 0.1), raises
    ArithmeticError.
    """
    with localcontext(_context()):
        coefficient_set = _coefficient_set(spec, m, Decimal, Decimal.sqrt)
    return LandenCoefficients._make(None if value is None else float(value)
                                    for value in coefficient_set[:4])
