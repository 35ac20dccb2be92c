"""Superposed periodic solutions of the sine-Gordon reductions and the
first-integral route that identifies them with single elliptic functions.

Static fields obey phi_xx = sin(phi); the superluminal traveling reduction
obeys phi_ee = -sin(phi) in the comoving coordinate.  Writing
psi = sin(phi/2), one integration gives the constant

    static     C =  2 - 4 psi^2 + 4 psi_x^2 / (1 - psi^2)
    traveling  C = -2 + 4 psi^2 + 4 psi_e^2 / (1 - psi^2)

and solutions with equal C coincide.  The basic solutions are

    psi = sech x                        C = 2
    psi = dn(x, m~)                     C = 4 m~ - 2        (static)
    psi = cn(x / sqrt(m~), m~)          C = 4 / m~ - 2      (static)
    psi = tanh e                        C = 2
    psi = sqrt(m~) sn(e, m~)            C = 4 m~ - 2        (traveling)
    psi = sn(e / sqrt(m~), m~)          C = 4 / m~ - 2      (traveling)

Six equally-shifted superpositions of p elliptic-function terms solve the
same equations; measuring their C and matching it against the basic
solutions reproduces exactly the parameter maps of :mod:`landen.general`.
That consistency (constancy of C, range, closed forms, implied m~) is what
this module makes checkable.

Each superposition is the p-term side of one (family, parity) cell of
:mod:`landen.general`: :func:`solution_kind` names it, and psi is that
side's shifted sum or product with its own prefactor and inner scale.  The
static kinds are the dn and cn families, the traveling ones the sn family.

Derivatives of psi are analytic (termwise d/dx of sn, cn, dn), not finite
differences, so the reported C carries no step-size error.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from enum import Enum

import numpy as np

from .elliptic import _PI, jacobi_eval
from .general import (_LD, Family, LandenSpec, _combine, _period_width, _raw_coefficients,
                      _shifted_eval)
from .nome import _open_at_zero, _validate_m

__all__ = [
    "SolutionKind",
    "solution_kind",
    "SolutionFamily",
    "SignConvention",
    "FirstIntegralValue",
    "Branch",
    "BranchClassification",
    "NoClosedFormError",
    "NotMeasurableError",
    "psi_value",
    "psi_derivative",
    "solution_period",
    "default_samples",
    "first_integral_samples",
    "first_integral",
    "first_integrals",
    "closed_form_c",
    "classify",
    "OdeResidual",
    "ode_residual",
]

class SolutionKind(Enum):
    DN_ODD = "dn-odd"
    DN_EVEN = "dn-even"
    CN_ODD = "cn-odd"
    CN_EVEN_ALT = "cn-even-alt"
    SN_ODD = "sn-odd"
    SN_EVEN_PROD = "sn-even-prod"


# The one (family, p odd) <-> kind table: each superposition is the
# p-term side of that family's modulus identity.
_KIND_OF = {
    (Family.DN, True): SolutionKind.DN_ODD,
    (Family.DN, False): SolutionKind.DN_EVEN,
    (Family.CN, True): SolutionKind.CN_ODD,
    (Family.CN, False): SolutionKind.CN_EVEN_ALT,
    (Family.SN, True): SolutionKind.SN_ODD,
    (Family.SN, False): SolutionKind.SN_EVEN_PROD,
}
_FAMILY_PARITY = {kind: key for key, kind in _KIND_OF.items()}


def solution_kind(family, p) -> SolutionKind:
    """The superposition whose psi is the p-term side of `family`'s identity."""
    return _KIND_OF[(Family(family), p % 2 == 1)]


class SignConvention(Enum):
    STATIC = "static"
    TRAVELING = "traveling"


class SolutionFamily(namedtuple("SolutionFamily", "kind p m")):
    """One superposed solution: kind, term count p, parameter m.

    A plain value: its coefficients are general._raw_coefficients of its
    cell, which that function caches, so equal solutions share one build."""

    __slots__ = ()

    def __new__(cls, kind, p, m):
        family, odd = _FAMILY_PARITY[kind]
        if LandenSpec(family, p).odd != odd:
            raise ValueError(
                f"{kind.value} requires {'odd' if odd else 'even'} "
                f"p, got p = {p}")
        return super().__new__(cls, kind, p, _validate_m(m))

    @classmethod
    def _make(cls, iterable):
        # _replace builds its copy here: check the fields as __new__ does
        return cls(*iterable)

    @property
    def family(self) -> Family:
        return _FAMILY_PARITY[self.kind][0]

    @property
    def spec(self) -> LandenSpec:
        return LandenSpec(self.family, self.p)

    @property
    def _raw(self):
        """The family's coefficients at m, built once per cell."""
        return _raw_coefficients(self.spec, self.m)

    @property
    def m_tilde(self) -> float:
        """The transformed parameter m~(p, m) of the family's identity."""
        return float(self._raw.m_tilde)

    @property
    def sign_convention(self) -> SignConvention:
        return (SignConvention.TRAVELING if self.family is Family.SN
                else SignConvention.STATIC)


class FirstIntegralValue(namedtuple("FirstIntegralValue", "c sign_convention spread",
                                    defaults=(0.0,))):
    """Mean C over the samples and its spread (max - min; 0 for a bare C)."""

    __slots__ = ()


class Branch(Enum):
    SECH_KINK = "sech-kink"
    DN_BRANCH = "dn-branch"
    CN_BRANCH = "cn-branch"
    NO_REAL_SOLUTION = "no-real-solution"


class BranchClassification(namedtuple("BranchClassification", "branch m_tilde")):
    """Basic-solution branch for a first-integral value, with the implied
    transformed parameter (None when no real solution exists)."""

    __slots__ = ()


class NoClosedFormError(ValueError):
    """The paper gives this kind's C only a range, no formula; verify writes
    no c-closed-form record for it."""


class NotMeasurableError(ValueError):
    """Fewer than two samples have |psi| < 1: where m~ is tiny, a dn kind's
    |psi| rounds to 1 or above almost everywhere, and there the C formula's
    1 - psi^2 is not positive."""


class OdeResidual(namedtuple("OdeResidual", "max_abs step")):
    __slots__ = ()


def _pieces(fam: SolutionFamily):
    """(prefactor, inner) of psi = prefactor * combo(inner x), where combo
    is the family's combination of the p shifted terms (general._combine
    of general._shifted_eval)."""
    m, raw = fam.m, fam._raw
    if fam.family is Family.SN and fam.spec.odd:
        # only the inner scale a1 and the prefactor sqrt(m) a1 enter; at
        # m = 0 the prefactor vanishes and psi degenerates to 0 cleanly
        prefactor, inner = np.sqrt(_LD.type(m)) * raw.arg_scale, raw.arg_scale
    elif fam.family is Family.SN:
        prefactor = _LD.type(m) ** (_LD.type(fam.p) / 2) * raw.alpha * raw.a_sum
        inner = raw.alpha
    elif fam.family is Family.CN and fam.spec.odd:
        prefactor = raw.alpha
        inner = raw.alpha / np.sqrt(_LD.type(m)) if m > 0 else math.nan
    else:
        # dn kinds and the alternating cn kind.  Even cn takes the inner
        # scale alpha4, not the plain-sum alpha2: with alpha2 inside, the
        # alternating superposition fails the field equation (C is not
        # constant along x), while alpha4 reproduces cn(x/sqrt(m~), m~).
        prefactor, inner = raw.alpha, raw.alpha
    if not (np.isfinite(float(prefactor)) and np.isfinite(float(inner))):
        raise ValueError(
            f"{fam.kind.value} superposition degenerates at m = {m!r}: "
            "normalization diverges")
    return prefactor, inner


def _psi_rows(fams, xs):
    """[(psi, dpsi) of fams[j] at xs[j]], in extended precision, for
    solutions of one p and of any kinds.

    The xs share one shape.  The shifted terms of every solution with m < 1
    come from one _shifted_eval call with an array m, and each solution's
    row combines its own terms (_combine), bit-identical to a call for that
    solution alone.  At the separatrix m = 1, jacobi_eval gives (tanh, sech,
    sech): psi = tanh, psi' = sech^2 for the sn kinds, psi = sech,
    psi' = -sech tanh for the others.
    """
    xs = [np.asarray(x, dtype=_LD) for x in xs]
    rows = [None] * len(fams)
    batch = []
    for j, (fam, x) in enumerate(zip(fams, xs)):
        if fam.m != 1.0:
            batch.append(j)
            continue
        tanh, _, sech = jacobi_eval(x, 1.0, dtype=_LD)
        rows[j] = (tanh, sech * sech) if fam.family is Family.SN else (sech, -sech * tanh)
    if batch:
        prefactors, inners = zip(*(_pieces(fams[j]) for j in batch))

        def per_solution(values):
            return np.array(values).reshape((-1,) + (1,) * xs[0].ndim)

        args = per_solution(inners).astype(_LD) * np.stack([xs[j] for j in batch])
        terms = _shifted_eval(args, fams[0].p, per_solution([fams[j].m for j in batch]))
        for i, j in enumerate(batch):
            combo, slope = _combine(fams[j].spec, [t[:, i] for t in terms], fams[j].m,
                                    derivative=True)
            rows[j] = prefactors[i] * combo, prefactors[i] * inners[i] * slope
    return rows


def psi_value(fam: SolutionFamily, x):
    """sin(phi/2) of the superposed solution at x (scalar or array)."""
    scalar = np.ndim(x) == 0
    [(psi, _)] = _psi_rows([fam], [x])
    psi = np.asarray(psi, dtype=np.float64)
    return psi[()] if scalar else psi


def psi_derivative(fam: SolutionFamily, x):
    """Analytic d(psi)/dx of the superposed solution at x."""
    scalar = np.ndim(x) == 0
    [(_, dpsi)] = _psi_rows([fam], [x])
    dpsi = np.asarray(dpsi, dtype=np.float64)
    return dpsi[()] if scalar else dpsi


def solution_period(fam: SolutionFamily) -> float:
    """Period of psi in the solution's own coordinate (inf at m = 1)."""
    if fam.m == 1.0:
        return math.inf
    period = _period_width(fam.family) * float(fam._raw.big_k_tilde)
    # psi of a cn kind is cn(x / sqrt(m~), m~): its period carries sqrt(m~)
    return period * math.sqrt(fam.m_tilde) if fam.family is Family.CN else period


def default_samples(fam: SolutionFamily, n: int = 33):
    """Deterministic sample grid over one period, offset so the endpoints
    and the |psi| = 1 touch points are avoided."""
    period = solution_period(fam)
    if math.isfinite(period):
        return (np.arange(n) + 0.37) * period / n
    return np.linspace(0.25, 6.0, n)


def first_integral_samples(fam: SolutionFamily, x_samples):
    """Per-sample first-integral values at the samples with |psi| < 1.

    Where |psi| rounds to 1 or above the C formula's 1 - psi^2 is not
    positive; those samples are dropped, every other one counts.
    """
    [(psi, dpsi)] = _psi_rows([fam], [np.atleast_1d(np.asarray(x_samples, dtype=_LD))])
    return _c_samples(fam, psi, dpsi)


def _c_samples(fam, psi, dpsi):
    """Per-sample C from psi and dpsi where |psi| < 1: there 1 - psi^2
    cannot round to 0, so no sample divides by zero."""
    keep = np.abs(psi) < 1
    psi, dpsi = psi[keep], dpsi[keep]
    one = _LD.type(1)
    ratio = 4 * dpsi * dpsi / (one - psi * psi)
    if fam.sign_convention is SignConvention.STATIC:
        c = 2 - 4 * psi * psi + ratio
    else:
        c = -2 + 4 * psi * psi + ratio
    return np.asarray(c, dtype=np.float64)


def first_integral(fam: SolutionFamily, x_samples) -> FirstIntegralValue:
    """Mean first-integral constant over the samples with |psi| < 1, with
    the spread (max - min) of the per-sample values.

    The spread is reported, not judged here: verify's c-constancy record,
    spread / max(1, |C|) against --tol, is the one constancy gate.  Fewer
    than two samples with |psi| < 1 raise NotMeasurableError.
    """
    return first_integrals([fam], [x_samples])[0]


def first_integrals(fams, x_rows):
    """first_integral(fams[j], x_rows[j]) for solutions of one p, of any
    kinds, from one evaluation of all their psi (the x_rows share one
    shape).

    Raises NotMeasurableError, naming the solution, where first_integral
    would.
    """
    xs = [np.atleast_1d(np.asarray(x, dtype=_LD)) for x in x_rows]
    values = []
    for fam, x, (psi, dpsi) in zip(fams, xs, _psi_rows(fams, xs)):
        samples = _c_samples(fam, psi, dpsi)
        if samples.size < 2:
            raise NotMeasurableError(
                f"{fam.kind.value} p = {fam.p} at m = {fam.m!r}: |psi| rounds to 1 or "
                f"above at {np.size(x) - samples.size} of {np.size(x)} samples; "
                "the first integral needs two with |psi| < 1")
        values.append(FirstIntegralValue(c=float(samples.mean()),
                                         sign_convention=fam.sign_convention,
                                         spread=float(samples.max() - samples.min())))
    return values


def closed_form_c(fam: SolutionFamily) -> float:
    """First-integral constant of the basic solution at the family's m~:
    4 m~ - 2 for the dn and sn kinds, 4 / m~ - 2 for the cn kinds.

    The paper prints C for the dn-odd, cn-odd, sn-odd and sn-even-product
    kinds as combinations of the coefficients (dn odd: -2 + 4 (m - 2) a1^2
    + 8 a1^3 A1).  With each sum constant solved from its family's m~
    formula those reduce to the forms above, to the last bit.  The odd cn
    and sn kinds need m > 0.  The even dn and alternating cn kinds, which
    the paper gives only a range, raise NoClosedFormError.
    """
    family, spec = fam.family, fam.spec
    if not spec.odd and family is not Family.SN:
        raise NoClosedFormError(
            f"no closed-form C for {fam.kind.value}; only the range is known")
    _validate_m(fam.m, above_zero=_open_at_zero(spec),
                what=f"m of the closed-form C for {fam.kind.value}")
    m_tilde = fam._raw.m_tilde
    return float(4 / m_tilde - 2 if family is Family.CN else 4 * m_tilde - 2)


_BOUNDARY_BAND = 1e-9


def classify(value) -> BranchClassification:
    """Map a first-integral constant to its basic-solution branch.

    Accepts a FirstIntegralValue or a bare float; the map is the same for
    both sign conventions.  The implied transformed parameter is
    (C + 2) / 4 on the bounded branch and 4 / (C + 2) on the unbounded
    one; the C = +-2 boundaries are assigned to the limiting branch within
    a 1e-9 band.  A NaN raises ValueError.
    """
    c = value.c if isinstance(value, FirstIntegralValue) else float(value)
    if math.isnan(c):
        raise ValueError("cannot classify a first-integral value of NaN")
    if c < -2.0 - _BOUNDARY_BAND:
        return BranchClassification(Branch.NO_REAL_SOLUTION, None)
    if abs(c - 2.0) <= _BOUNDARY_BAND:
        return BranchClassification(Branch.SECH_KINK, 1.0)
    if c < 2.0:
        m_tilde = min(1.0, max(0.0, (c + 2.0) / 4.0))
        return BranchClassification(Branch.DN_BRANCH, m_tilde)
    return BranchClassification(Branch.CN_BRANCH, 4.0 / (c + 2.0))


def _reconstruct_phi(fam, psi, dpsi):
    """Unwrap phi = 2 arcsin(psi) into a smooth branch along the grid.

    The arcsin branch (sign of cos(phi/2)) flips exactly where psi touches
    +-1: at every psi maximum for the dn kinds, at every extremum for the
    cn kinds (which sweep [-1, 1]), and never for the sn kinds, whose
    amplitude sqrt(m~) stays below 1.  Grids from ode_residual start half a
    step past x = 0, so the touch at the origin lies between samples.  The
    unwrap is theta = cand + 2 pi k, k the running sum from 0 of the whole
    turns round((cand[i-1] - cand[i]) / 2 pi) between neighbouring samples.
    """
    d = np.asarray(dpsi)
    if fam.family is Family.DN:
        flips = (d[:-1] > 0) & (d[1:] <= 0)
        sigma0 = -1.0
    elif fam.family is Family.CN:
        flips = ((d[:-1] > 0) & (d[1:] < 0)) | ((d[:-1] < 0) & (d[1:] > 0))
        sigma0 = -1.0
    else:
        flips = np.zeros(len(d) - 1, dtype=bool)
        sigma0 = 1.0

    for i in np.nonzero(flips)[0]:
        if max(abs(float(psi[i])), abs(float(psi[i + 1]))) < 0.9:
            warnings.warn(
                f"branch tracking: flip between samples {i} and {i + 1} with "
                f"|psi| = {abs(float(psi[i])):.3g}; psi does not reach 1 smoothly "
                "there and the reconstruction may be unreliable", stacklevel=3)

    sigma = sigma0 * np.concatenate(([1.0], (-1.0) ** np.cumsum(flips)))
    base = np.arcsin(np.clip(psi, _LD.type(-1), _LD.type(1)))
    cand = np.where(sigma > 0, base, _PI[_LD] - base)
    two_pi = 2 * _PI[_LD]
    turns = np.cumsum(np.round((cand[:-1] - cand[1:]) / two_pi))
    return 2 * (cand + two_pi * np.concatenate(([0], turns)))


def ode_residual(fam: SolutionFamily, grid_points: int = 256) -> OdeResidual:
    """Max |phi'' -+ sin(phi)| of the reconstructed field on a period grid.

    phi'' comes from the fourth-order five-point central stencil; the
    three-point stencil's O(h^2) error is ~2e-4 for the rotating (cn-kind)
    solutions at any parameter and would swamp the check.  Expected
    magnitude is O(h^4), well under 1e-6 at 256 points.

    The step is period / grid_points, and rounding noise in phi enters the
    stencil as ~eps_eff / h^2.  For the cn kinds the period shrinks like
    sqrt(m~), so at very small transformed parameters (m~ below ~1e-5,
    e.g. p = 6 at m = 0.75) the 256-point grid is already past the
    truncation/noise optimum and the residual bottoms out near 1e-6;
    coarser grids are then the more faithful check.
    """
    if grid_points < 64:
        raise ValueError(f"grid_points must be at least 64, got {grid_points}")
    _validate_m(fam.m, below_one=True, what="m (the period diverges at the separatrix m = 1)")
    span = solution_period(fam)
    if fam.family is Family.DN:
        span *= 2.0  # phi librates over two psi periods
    h = span / grid_points
    xs = (np.arange(grid_points, dtype=_LD) + _LD.type(0.5)) * _LD.type(h)
    [(psi, dpsi)] = _psi_rows([fam], [xs])
    phi = _reconstruct_phi(fam, psi, dpsi)

    d2 = (-phi[:-4] + 16 * phi[1:-3] - 30 * phi[2:-2] + 16 * phi[3:-1] - phi[4:]) \
        / (12 * _LD.type(h) ** 2)
    rhs = np.sin(phi[2:-2])
    if fam.sign_convention is SignConvention.STATIC:
        residual = np.abs(d2 - rhs)
    else:
        residual = np.abs(d2 + rhs)
    return OdeResidual(max_abs=float(residual.max()), step=float(h))
