"""Multi-term modulus transformations for sn, cn and dn.

Each family relates a single Jacobi function at a transformed parameter
m~ to a p-term combination of functions at parameter m, the terms shifted
by equal fractions of the period (4K/p for odd p, 2K/p for even p):

    dn, p odd   dn(x, m~) = a1 * sum_i dn(a1 x + 4(i-1)K/p, m)
    dn, p even  same shape with a2 and 2(i-1)K/p shifts
    cn, p odd   cn(x, m~) = a3 * sum_i cn(b x + 4(i-1)K/p, m)
    cn, p even  cn(x, m~) = a4 * sum_i (-1)^(i-1) dn(a4 sqrt(m~) x + ..., m)
    sn, p odd   sn(x, m~) = a3 * sum_i sn(a1 x + 4(i-1)K/p, m)
    sn, p even  A5 a2 sn(x, m~) = prod_i sn(a2 x + 2(i-1)K/p, m)

In the paper the normalization constants are reciprocals of the sums of
shifted function values at x = 0, and m~ follows from cubic sums (A1..A4)
or the shift product A5.  Those sums cancel at small m and large p, so
:func:`coefficients` (defined in :mod:`landen.nome`, re-exported here with
the types that name a transformation) takes every value from the nome
instead: with q = exp(-pi K'/K) from two AGM chains,
m~ = (theta2(q^p)/theta3(q^p))^4, K(m~) = (pi/2) theta3(q^p)^2, and the
argument scale K(m) / (p K(m~)) fixes the rest.  The paper's sums stay as
a second route, :func:`sum_route_m_tilde`, which verify checks against the
first.  For p = 2 every family collapses to the classical quadratic map of
:mod:`landen.classic`.

The shifted combination itself (signed sum or product of the p terms) is
built in one place, used both for the right-hand sides here and for the
superposed solutions psi of :mod:`landen.sine_gordon`, which are the same
combinations with other scale factors.

Batches: the argument scale, the shift step and m~ depend on (p, m) alone,
and jacobi_eval takes an array m.  So verify's family scope checks each p
for many m and all three families in two jacobi_eval calls
(_identity_residuals), and the paper's sums (_sum_routes) read its
right-hand sides at x = 0, the p shift points.  :func:`verify_identity`
and :func:`sum_route_m_tilde` are the one-cell case of the same code, and
every batched value is bit-identical to it.

Numerics: the p-term side cancels for large p and small m (the
normalizations grow like 1e5 and beyond), which in pure binary64 leaves
identity residuals near 1e-9.  The coefficients come from the nome route
at 34 decimal digits (stdlib decimal, see landen.nome), so they do not
depend on the width of np.longdouble.  Here m~, K(m~) and the argument
scale are each rounded once to np.longdouble, and alpha and the sum
constant are formed from them in that precision, by the procedure that
:func:`coefficients` runs in Decimal (landen.nome._coefficient_set).  The
shifted terms and their sums run in that extended precision, sums with
compensated accumulation, and results are rounded to float64 at the API
boundary.
The nome route holds its relative accuracy while m~ = 16 q^p
(1 + O(q^p)) stays a normal float64; beyond that the coefficients raise
ArithmeticError.
"""

from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

from .elliptic import complete_elliptic_k, jacobi_eval
from .nome import (CN_EVEN_MIN_M, AlternatingSumDegenerateError, Family,
                   LandenCoefficients, LandenSpec, _coefficient_set, _open_at_zero,
                   _validate_m, coefficients)

__all__ = [
    "Family",
    "LandenSpec",
    "LandenCoefficients",
    "IdentityResidual",
    "AlternatingSumDegenerateError",
    "coefficients",
    "transform_rhs",
    "verify_identity",
    "m_tilde_closed_p3",
    "m_tilde_closed_p4",
    "a5_product",
    "sum_route_m_tilde",
]

_LD = np.dtype(np.longdouble)


class IdentityResidual(namedtuple("IdentityResidual", "max_abs mean_abs grid_points x_span")):
    """Absolute residual statistics of one identity over a uniform grid."""

    __slots__ = ()


def _csum(terms):
    """Compensated sum of a sequence of same-shape terms.

    Each step adds the rounding error of acc + t from Knuth's branch-free
    TwoSum to the compensation.  That error is exact, as is the one
    Neumaier's sum takes from its |acc| >= |t| branch, and neither is ever
    -0, so the result is Neumaier's sum bit for bit.  comp starts at +0,
    which keeps the sum of all -0 terms at Neumaier's +0.
    """
    acc, comp = terms[0], 0.0
    for t in terms[1:]:
        s = acc + t
        bb = s - acc
        comp = comp + ((acc - (s - bb)) + (t - bb))
        acc = s
    return acc + comp


def _longdouble(value):
    """np.longdouble of a float m, exactly, or of a Decimal, through its
    digits."""
    return _LD.type(value if isinstance(value, float) else str(value))


@functools.lru_cache(maxsize=1024)
def _raw_coefficients(spec, m):
    """The coefficients of :func:`coefficients` at m in np.longdouble, the
    working precision of the p-term evaluations, with K(m~): the procedure
    of :func:`coefficients` (landen.nome._coefficient_set) run in that
    precision.  It raises what that raises.

    Cached for the last 1024 cells (spec, m), so every layer that reads a
    cell (the family scope, the sine-Gordon solutions) shares one build.
    """
    return _coefficient_set(spec, m, _longdouble, np.sqrt)


def sum_route_m_tilde(spec: LandenSpec, m) -> float:
    """m~ by the paper's own route, the second one behind the nome route.

    The p shifted terms at x = 0 give the normalization and the cubic sum
    (A1..A4) or, for even sn, the shift product A5, and m~ follows from
    the printed formulas.  These cancel at small m and large p (dn at
    p = 7, m = 0.1 is 6.5e-7 relative off), so verify compares them with
    the nome route instead of using them.  Needs 0 < m < 1.  This is the
    one-cell case of _sum_routes, on _shifted_eval's terms at x = 0.

    Where a normalizing sum cancels to exactly 0 (the alternating dn sum of
    even cn at small m and large p) it raises ArithmeticError.
    """
    m = _validate_m(m, below_one=True, above_zero=True, what="sum-route parameter m")
    terms = _shifted_eval(_LD.type(0), spec.p, m)
    try:
        with np.errstate(divide="raise", invalid="raise"):
            return _sum_routes(spec.p, [m], terms, (spec.family,))[spec.family][0]
    except FloatingPointError:
        raise ArithmeticError(
            f"sum route of {spec.family.value} p = {spec.p} at m = {m!r}: the shifted "
            "sums cancel to 0, so m~ has no value on this route") from None


def _sum_routes(p, ms, terms, families):
    """{family: [m~ by the paper's sums at each m of ms]} at term count p.

    terms are (sn, cn, dn) at the p shift points, one column per m of ms
    (0 < m < 1): _identity_residuals' x = 0 column.  The sums run along the
    term axis, so each value is bit-identical to a one-cell evaluation.
    """
    odd = p % 2 == 1
    one, two, md = _LD.type(1), _LD.type(2), _LD.type(ms)
    sn, cn, dn = terms

    routes = {}
    for family in families:
        if family is Family.DN:
            alpha = one / _csum(dn)
            m_tilde = (md - two) * alpha ** 2 + two * alpha ** 3 * _csum(dn ** 3)
        elif family is Family.CN and odd:
            alpha = one / _csum(cn)
            a_sum = _csum(cn ** 3)
            m_tilde = md / ((one - two * md) * alpha ** 2 + two * md * alpha ** 3 * a_sum)
        elif family is Family.CN:
            alpha = one / _csum(_alternate(dn))
            a_sum = _csum(_alternate(dn ** 3))
            m_tilde = one / ((md - two) * alpha ** 2 + two * alpha ** 3 * a_sum)
        elif odd:
            a1, a3 = one / _csum(dn), one / _csum(cn)
            m_tilde = md * a1 ** 2 / a3 ** 2
        else:
            a2 = one / _csum(dn)
            m_tilde = md ** p * a2 ** 4 * np.prod(sn[1:], axis=0) ** 4
        routes[family] = [float(value) for value in m_tilde]
    return routes


def _shifted_eval(args, p, m):
    """(sn, cn, dn) at args + i step for i = 0..p-1, in one jacobi_eval call.

    The step, 4K/p for odd p and 2K/p for even p, is formed here alone, from
    jacobi_eval's own K(m): so the p shifts add up to exactly the period the
    kernel folds by.  Shifts of the exact K would miss it by the kernel's
    rounding of K, and the cancelling sums (odd cn at small m~) show it.

    Row i of each returned array (shape ``(p,) + args.shape``) is the i-th
    shifted term, so row-ordered sums and products keep the term order.
    m (0 <= m < 1) is a scalar or an array that broadcasts against args, one
    value per parameter of a batch, each element bit-identical to its call.
    """
    step = _LD.type(4 if p % 2 else 2) * complete_elliptic_k(m, dtype=_LD) / _LD.type(p)
    shifts = np.arange(p, dtype=_LD).reshape((-1,) + (1,) * np.ndim(args)) * step
    return jacobi_eval(args + shifts, m, dtype=_LD)


def _alternate(rows):
    """Rows with every odd-indexed one negated: the (-1)^i term signs."""
    return [-row if i % 2 else row for i, row in enumerate(rows)]


def _combine(spec, terms, m, derivative=False):
    """The family's combination of the shifted terms (sn, cn, dn) from
    _shifted_eval, along the term axis.

    Even sn multiplies its sn terms; every other family takes their
    compensated sum, of dn (dn, and even cn with alternating signs), cn
    (odd cn) or sn (odd sn).  With derivative=True the derivative in the
    argument comes back too; the product's derivative costs O(p^2), so it
    is left out unless asked for.  m broadcasts against one term.
    """
    family, p, odd = spec.family, spec.p, spec.odd
    sn, cn, dn = terms

    if family is Family.SN and not odd:
        prod = np.ones_like(sn[0])
        for row in sn:
            prod = prod * row
        if not derivative:
            return prod
        dterms = []
        for j in range(p):
            term = cn[j] * dn[j]
            for k in range(p):
                if k != j:
                    term = term * sn[k]
            dterms.append(term)
        return prod, _csum(dterms)

    if family is Family.SN:
        rows, slope = sn, lambda: cn * dn
    elif family is Family.CN and odd:
        rows, slope = cn, lambda: (-sn) * dn
    else:
        rows, slope = dn, lambda: (-_LD.type(m)) * sn * cn
    signed = _alternate if family is Family.CN and not odd else list
    if not derivative:
        return _csum(signed(rows))
    return _csum(signed(rows)), _csum(signed(slope()))


def _normalised(raw, spec, combo):
    """The combination scaled to compare with the single function at m~."""
    if spec.family is Family.SN and not spec.odd:
        return combo / (raw.a_sum * raw.alpha)
    return raw.alpha * combo


def _rhs_from_raw(raw, spec, m, x):
    terms = _shifted_eval(raw.arg_scale * np.asarray(x, dtype=_LD), spec.p, m)
    return _normalised(raw, spec, _combine(spec, terms, m))


def transform_rhs(spec: LandenSpec, m, x):
    """Evaluate the p-term side of the identity, normalized so it compares
    directly against the single function at (x, m~).

    For the even sn family this is the shifted product divided by A5 a2;
    for every other family the compensated alpha-weighted sum.  Accepts a
    scalar or array x; returns float64.  m lies in [0, 1), as the shift
    step diverges with K(m) at m = 1, and in (0, 1) for odd cn and sn,
    whose normalization diverges at m = 0.
    """
    m = _validate_m(m, below_one=True, above_zero=_open_at_zero(spec),
                    what="parameter m of a right-hand side (its shift step diverges at m = 1)")
    scalar = np.ndim(x) == 0
    raw = _raw_coefficients(spec, m)
    value = _rhs_from_raw(raw, spec, m, x)
    value = np.asarray(value, dtype=np.float64)
    return value[()] if scalar else value


def verify_identity(spec: LandenSpec, m, grid_points: int = 128) -> IdentityResidual:
    """Residual |lhs - rhs| of one identity over a uniform grid.

    The grid spans one full period of the left-hand side: [0, 2 K(m~)] for
    the dn family, [0, 4 K(m~)] for cn and sn.  Since the coefficients come
    from the nome route, not from the shifted sums, the residual tests the
    identity itself, at x = 0 too.  m lies in [0, 1), and in (0, 1) for odd
    cn and sn, as for :func:`transform_rhs`.  This is the one-cell case of
    _identity_residuals.
    """
    if grid_points < 16:
        raise ValueError(f"grid_points must be at least 16, got {grid_points}")
    m = _validate_m(m, below_one=True, above_zero=_open_at_zero(spec),
                    what="parameter m of an identity (its period diverges at m = 1)")
    residuals, _, _ = _identity_residuals(spec.p, [m], grid_points, (spec.family,))
    return residuals[spec.family][0]


def _period_width(family):
    return 2.0 if family is Family.DN else 4.0


def _identity_residuals(p, ms, grid_points, families):
    """verify_identity for `families` at term count p and every m of ms
    (validated: 0 <= m < 1, and m > 0 for odd cn and sn), with the nome m~
    of each m.

    Returns ({family: [IdentityResidual per m]}, [m~ per m], (sn, cn, dn)
    at x = 0: the p shift points, shape (p, m)).  The arg scale s, the shift
    step and m~ depend on (p, m) alone, so all families share one grid per
    period width (dn's [0, 2 K~], and cn's and sn's [0, 4 K~]).  One
    jacobi_eval over (p, m, grid, x) gives every right-hand side and one
    over (m, grid, x) at the m~ values every left-hand side; each residual
    is bit-identical to the cell's own scalar-m evaluation.
    """
    specs = [LandenSpec(family, p) for family in families]
    raws = {spec: [_raw_coefficients(spec, m) for m in ms] for spec in specs}

    shared = raws[specs[0]]
    m_tildes = [float(raw.m_tilde) for raw in shared]
    widths = sorted({_period_width(family) for family in families})
    spans = [[width * float(raw.big_k_tilde) for width in widths] for raw in shared]
    xs = np.array([[np.linspace(0.0, span, grid_points) for span in row] for row in spans],
                  dtype=_LD)

    def per_m(values):
        return np.array(values).reshape(-1, 1, 1)

    scale = per_m([raw.arg_scale for raw in shared]).astype(_LD)
    rhs_terms = _shifted_eval(scale * xs, p, per_m(ms))
    lhs = jacobi_eval(xs, per_m(m_tildes), dtype=_LD)

    residuals = {}
    for spec in specs:
        g = widths.index(_period_width(spec.family))
        combo = _combine(spec, [t[:, :, g] for t in rhs_terms], m=None)
        single = getattr(lhs, spec.family.value)[:, g]
        residuals[spec.family] = [
            _residual(_normalised(raw, spec, combo[j]), single[j], span[g])
            for j, (raw, span) in enumerate(zip(raws[spec], spans))]
    return residuals, m_tildes, [t[:, :, 0, 0] for t in rhs_terms]


def _residual(rhs, lhs, span):
    diff = np.abs(np.asarray(lhs - rhs, dtype=np.float64))
    return IdentityResidual(max_abs=float(diff.max()), mean_abs=float(diff.mean()),
                            grid_points=diff.size, x_span=span)


def m_tilde_closed_p3(m):
    """Closed-form transformed parameter for p = 3.

    Returns m (1-q)^2 / [(1+q)^2 (1+2q)^2] with q = dn(2K/3, m), after
    checking the quartic q^4 + 2q^3 - 2(1-m)q - (1-m) = 0 that q must
    satisfy (residual below 1e-12, else ArithmeticError).
    """
    m = _validate_m(m, below_one=True, above_zero=True, what="closed-form parameter m")
    big_k = complete_elliptic_k(m, dtype=_LD)
    q = jacobi_eval(2 * big_k / 3, m, dtype=_LD).dn
    mp1 = _LD.type(1.0 - m)
    quartic = q ** 4 + 2 * q ** 3 - 2 * mp1 * q - mp1
    if abs(float(quartic)) >= 1e-12:
        raise ArithmeticError(
            f"quartic consistency check failed at m = {m!r}: residual {float(quartic):.3e}")
    one = _LD.type(1)
    return float(_LD.type(m) * (one - q) ** 2 / ((one + q) ** 2 * (one + 2 * q) ** 2))


def m_tilde_closed_p4(m):
    """Closed-form transformed parameter for p = 4: (1-t)^4 / (1+t)^4 with
    t = (1-m)^(1/4).

    Checks dn(K/2) = dn(3K/2) = t and dn(K) = t^2 to 1e-12 first.
    """
    m = _validate_m(m, below_one=True, above_zero=True, what="closed-form parameter m")
    t = _LD.type(1.0 - m) ** _LD.type(0.25)
    _, half, full, three_half = _shifted_eval(_LD.type(0), 4, m).dn
    worst = max(abs(float(half - t)), abs(float(three_half - t)),
                abs(float(full - t * t)))
    if worst >= 1e-12:
        raise ArithmeticError(
            f"quarter-period dn consistency check failed at m = {m!r}: {worst:.3e}")
    one = _LD.type(1)
    return float((one - t) ** 4 / (one + t) ** 4)


def a5_product(p: int, m):
    """Product of sn over the interior even-p shift points,
    prod_{i=1}^{p-1} sn(2iK/p, m).

    At m = 0 this is the classical sine product sin(pi/p) ... and equals
    p / 2^(p-1) to rounding.  p must be even and pass LandenSpec's check.
    """
    if LandenSpec(Family.SN, p).odd:
        raise ValueError(f"a5_product requires an even p, got {p!r}")
    m = _validate_m(m, below_one=True, what="a5_product parameter m")
    return float(np.prod(_shifted_eval(_LD.type(0), p, m).sn[1:]))
