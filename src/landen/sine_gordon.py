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

Derivatives of psi are analytic (termwise d/dx of sn, cn, dn), not finite
differences, so the reported C carries no step-size error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .elliptic import complete_elliptic_k
from .general import (Family, LandenSpec, _alternate, _csum, _raw_coefficients,
                      _shifted_eval)

__all__ = [
    "SolutionKind",
    "SolutionFamily",
    "SignConvention",
    "FirstIntegralValue",
    "Branch",
    "BranchClassification",
    "NoClosedFormError",
    "psi_value",
    "psi_derivative",
    "solution_period",
    "default_samples",
    "first_integral_samples",
    "first_integral",
    "closed_form_c",
    "classify",
    "OdeResidual",
    "ode_residual",
]

_LD = np.dtype(np.longdouble)
_PI_LD = np.longdouble("3.14159265358979323846264338327950288420")

# Samples this close to |psi| = 1 hit the removable 0/0 of the C formula
# and are skipped rather than special-cased.
PSI_SINGULAR_BAND = 1e-6


class SolutionKind(Enum):
    DN_ODD = "dn-odd"
    DN_EVEN = "dn-even"
    CN_ODD = "cn-odd"
    CN_EVEN_ALT = "cn-even-alt"
    SN_ODD = "sn-odd"
    SN_EVEN_PROD = "sn-even-prod"


_ODD_KINDS = {SolutionKind.DN_ODD, SolutionKind.CN_ODD, SolutionKind.SN_ODD}
_TRAVELING_KINDS = {SolutionKind.SN_ODD, SolutionKind.SN_EVEN_PROD}

_KIND_FAMILY = {
    SolutionKind.DN_ODD: Family.DN,
    SolutionKind.DN_EVEN: Family.DN,
    SolutionKind.CN_ODD: Family.CN,
    SolutionKind.CN_EVEN_ALT: Family.CN,
    SolutionKind.SN_ODD: Family.SN,
    SolutionKind.SN_EVEN_PROD: Family.SN,
}


class SignConvention(Enum):
    STATIC = "static"
    TRAVELING = "traveling"


@dataclass(frozen=True)
class SolutionFamily:
    """One superposed solution: kind, term count p, parameter m."""

    kind: SolutionKind
    p: int
    m: float

    def __post_init__(self):
        odd = self.p % 2 == 1
        if (self.kind in _ODD_KINDS) != odd:
            raise ValueError(
                f"{self.kind.value} requires {'odd' if self.kind in _ODD_KINDS else 'even'} "
                f"p, got p = {self.p}")
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        m = float(self.m)
        if not np.isfinite(m) or m < 0.0 or m > 1.0:
            raise ValueError(f"parameter m must lie in [0, 1], got {self.m!r}")
        object.__setattr__(self, "m", m)

    @property
    def spec(self) -> LandenSpec:
        return LandenSpec(_KIND_FAMILY[self.kind], self.p)

    @property
    def sign_convention(self) -> SignConvention:
        return (SignConvention.TRAVELING if self.kind in _TRAVELING_KINDS
                else SignConvention.STATIC)


@dataclass(frozen=True)
class FirstIntegralValue:
    c: float
    sign_convention: SignConvention


class Branch(Enum):
    SECH_KINK = "sech-kink"
    DN_BRANCH = "dn-branch"
    CN_BRANCH = "cn-branch"
    NO_REAL_SOLUTION = "no-real-solution"


@dataclass(frozen=True)
class BranchClassification:
    """Basic-solution branch for a first-integral value, with the implied
    transformed parameter (None when no real solution exists)."""

    branch: Branch
    m_tilde: float | None


class NoClosedFormError(ValueError):
    """No closed-form C exists for this kind; only its range is known."""


@dataclass(frozen=True)
class OdeResidual:
    max_abs: float
    step: float


@dataclass(frozen=True)
class _Pieces:
    mode: str                 # 'sum' | 'product' | 'kink'
    term: str                 # 'sn' | 'cn' | 'dn' for sums; 'sech'/'tanh' for kink
    prefactor: object
    inner: object
    shifts: object
    alternating: bool


def _pieces(fam: SolutionFamily) -> _Pieces:
    m = fam.m
    if m == 1.0:
        term = "tanh" if fam.kind in _TRAVELING_KINDS else "sech"
        return _Pieces("kink", term, _LD.type(1), _LD.type(1), None, False)
    raw = _raw_coefficients(fam.spec, m)
    shifts = raw.step * np.arange(fam.p, dtype=_LD)
    kind = fam.kind
    if kind is SolutionKind.DN_ODD or kind is SolutionKind.DN_EVEN:
        pieces = _Pieces("sum", "dn", raw.alpha, raw.alpha, shifts, False)
    elif kind is SolutionKind.CN_ODD:
        inner = raw.alpha / np.sqrt(_LD.type(m)) if m > 0 else math.nan
        pieces = _Pieces("sum", "cn", raw.alpha, inner, shifts, False)
    elif kind is SolutionKind.CN_EVEN_ALT:
        # Inner scale alpha4, not the plain-sum alpha2: with alpha2 inside,
        # the alternating superposition fails the field equation (C is not
        # constant along x), while alpha4 reproduces cn(x/sqrt(m~), m~).
        pieces = _Pieces("sum", "dn", raw.alpha, raw.alpha, shifts, True)
    elif kind is SolutionKind.SN_ODD:
        # only the inner scale a1 and the prefactor sqrt(m) a1 enter; at
        # m = 0 the prefactor vanishes and psi degenerates to 0 cleanly
        a1 = raw.arg_scale
        pieces = _Pieces("sum", "sn", np.sqrt(_LD.type(m)) * a1, a1, shifts, False)
    else:  # SN_EVEN_PROD
        pref = _LD.type(m) ** (_LD.type(fam.p) / 2) * raw.alpha * raw.a_sum
        pieces = _Pieces("product", "sn", pref, raw.alpha, shifts, False)
    if not (np.isfinite(float(pieces.prefactor)) and np.isfinite(float(pieces.inner))):
        raise ValueError(
            f"{fam.kind.value} superposition degenerates at m = {m!r}: "
            "normalization diverges")
    return pieces


def _psi_and_derivative(fam, x):
    """psi and its analytic x-derivative, in extended precision."""
    pieces = _pieces(fam)
    x = np.asarray(x, dtype=_LD)
    if pieces.mode == "kink":
        if pieces.term == "sech":
            sech = 1 / np.cosh(x)
            return sech, -sech * np.tanh(x)
        sech = 1 / np.cosh(x)
        return np.tanh(x), sech * sech

    m, p = fam.m, fam.p
    sn, cn, dn = _shifted_eval(pieces.inner * x, pieces.shifts, m)

    if pieces.mode == "product":
        prod = np.ones_like(x)
        for row in sn:
            prod = prod * row
        dterms = []
        for j in range(p):
            term = cn[j] * dn[j]
            for k in range(p):
                if k != j:
                    term = term * sn[k]
            dterms.append(term)
        return pieces.prefactor * prod, pieces.prefactor * pieces.inner * _csum(dterms)

    if pieces.term == "dn":
        vals, derivs = dn, (-_LD.type(m)) * sn * cn
    elif pieces.term == "cn":
        vals, derivs = cn, (-sn) * dn
    else:
        vals, derivs = sn, cn * dn
    if pieces.alternating:
        vals, derivs = _alternate(vals), _alternate(derivs)
    psi = pieces.prefactor * _csum(vals)
    dpsi = pieces.prefactor * pieces.inner * _csum(derivs)
    return psi, dpsi


def psi_value(fam: SolutionFamily, x):
    """sin(phi/2) of the superposed solution at x (scalar or array)."""
    scalar = np.ndim(x) == 0
    psi, _ = _psi_and_derivative(fam, x)
    psi = np.asarray(psi, dtype=np.float64)
    return psi[()] if scalar else psi


def psi_derivative(fam: SolutionFamily, x):
    """Analytic d(psi)/dx of the superposed solution at x."""
    scalar = np.ndim(x) == 0
    _, dpsi = _psi_and_derivative(fam, x)
    dpsi = np.asarray(dpsi, dtype=np.float64)
    return dpsi[()] if scalar else dpsi


def solution_period(fam: SolutionFamily) -> float:
    """Period of psi in the solution's own coordinate (inf at m = 1)."""
    if fam.m == 1.0:
        return math.inf
    m_tilde = float(_raw_coefficients(fam.spec, fam.m).m_tilde)
    kind = fam.kind
    if kind in (SolutionKind.DN_ODD, SolutionKind.DN_EVEN):
        return 2.0 * float(complete_elliptic_k(m_tilde))
    if kind in (SolutionKind.CN_ODD, SolutionKind.CN_EVEN_ALT):
        return 4.0 * float(complete_elliptic_k(m_tilde)) * math.sqrt(m_tilde)
    return 4.0 * float(complete_elliptic_k(m_tilde))


def default_samples(fam: SolutionFamily, n: int = 33):
    """Deterministic sample grid over one period, offset so the endpoints
    and the |psi| = 1 touch points are avoided."""
    period = solution_period(fam)
    if math.isfinite(period):
        return (np.arange(n) + 0.37) * period / n
    return np.linspace(0.25, 6.0, n)


def first_integral_samples(fam: SolutionFamily, x_samples):
    """Per-sample first-integral values at the admissible samples.

    Samples with |psi| >= 1 - 1e-6 sit on the removable singularity of the
    C formula and are dropped.
    """
    xs = np.atleast_1d(np.asarray(x_samples, dtype=float))
    psi, dpsi = _psi_and_derivative(fam, xs.astype(_LD))
    keep = np.abs(psi) < _LD.type(1.0 - PSI_SINGULAR_BAND)
    psi, dpsi = psi[keep], dpsi[keep]
    one = _LD.type(1)
    ratio = 4 * dpsi * dpsi / (one - psi * psi)
    if fam.sign_convention is SignConvention.STATIC:
        c = 2 - 4 * psi * psi + ratio
    else:
        c = -2 + 4 * psi * psi + ratio
    return np.asarray(c, dtype=np.float64)


def first_integral(fam: SolutionFamily, x_samples) -> FirstIntegralValue:
    """Mean first-integral constant over the admissible samples.

    Raises ArithmeticError if the per-sample values are not constant to
    within max(1e-8, |C| * 1e-11); a genuine solution of the reduction has
    a constant C, so a spread beyond rounding noise means the superposition
    is wrong, not that the tolerance is tight.
    """
    values = first_integral_samples(fam, x_samples)
    if values.size < 2:
        raise ValueError("need at least two admissible samples (|psi| < 1 - 1e-6)")
    c = float(values.mean())
    spread = float(values.max() - values.min())
    if spread > max(1e-8, abs(c) * 1e-11):
        raise ArithmeticError(
            f"first integral not constant for {fam.kind.value} p={fam.p} m={fam.m}: "
            f"spread {spread:.3e} about C = {c:.6g}")
    return FirstIntegralValue(c=c, sign_convention=fam.sign_convention)


def closed_form_c(fam: SolutionFamily) -> float:
    """First-integral constant from the printed coefficient combinations.

    Available for the dn-odd, cn-odd, sn-odd and sn-even-product kinds:

        dn odd    C = -2 + 4 (m - 2) a1^2 + 8 a1^3 A1
        cn odd    C = -2 + 4 (1 - 2m) a3^2 / m + 8 a3^3 A3
        sn odd    C = -2 + 4 m a1^2 / a3^2
        sn even   C = -2 + 4 m^p a2^4 A5^4

    The even dn and alternating cn kinds carry only a range, not a formula;
    they raise NoClosedFormError and must be measured via
    :func:`first_integral`.
    """
    kind = fam.kind
    if kind in (SolutionKind.DN_EVEN, SolutionKind.CN_EVEN_ALT):
        raise NoClosedFormError(
            f"no closed-form C for {kind.value}; only the range is known")
    if fam.m == 0.0 and kind in (SolutionKind.CN_ODD, SolutionKind.SN_ODD):
        raise ValueError(f"closed-form C for {kind.value} needs m > 0")
    raw = _raw_coefficients(fam.spec, fam.m)
    md = _LD.type(fam.m)
    if kind is SolutionKind.DN_ODD:
        c = -2 + 4 * (md - 2) * raw.alpha ** 2 + 8 * raw.alpha ** 3 * raw.a_sum
    elif kind is SolutionKind.CN_ODD:
        c = (-2 + 4 * (1 - 2 * md) * raw.alpha ** 2 / md
             + 8 * raw.alpha ** 3 * raw.a_sum)
    elif kind is SolutionKind.SN_ODD:
        c = -2 + 4 * md * raw.arg_scale ** 2 / raw.alpha ** 2
    else:
        c = -2 + 4 * md ** fam.p * raw.alpha ** 4 * raw.a_sum ** 4
    return float(c)


_BOUNDARY_BAND = 1e-9


def classify(value) -> BranchClassification:
    """Map a first-integral constant to its basic-solution branch.

    Accepts a FirstIntegralValue or a bare float; the map is the same for
    both sign conventions.  The implied transformed parameter is
    (C + 2) / 4 on the bounded branch and 4 / (C + 2) on the unbounded
    one; the C = +-2 boundaries are assigned to the limiting branch within
    a 1e-9 band.
    """
    c = value.c if isinstance(value, FirstIntegralValue) else float(value)
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
    step past x = 0, so the touch at the origin lies between samples.
    """
    kind = fam.kind
    d = np.asarray(dpsi)
    if kind in (SolutionKind.DN_ODD, SolutionKind.DN_EVEN):
        flips = (d[:-1] > 0) & (d[1:] <= 0)
        sigma0 = -1.0
    elif kind in (SolutionKind.CN_ODD, SolutionKind.CN_EVEN_ALT):
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
    cand = np.where(sigma > 0, base, _PI_LD - base)
    theta = np.empty_like(cand)
    theta[0] = cand[0]
    two_pi = 2 * _PI_LD
    for i in range(1, len(cand)):
        theta[i] = cand[i] + two_pi * np.round((theta[i - 1] - cand[i]) / two_pi)
    return 2 * theta


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
    if fam.m == 1.0:
        raise ValueError("separatrix (m = 1): the period diverges; no period grid")
    kind = fam.kind
    span = solution_period(fam)
    if kind in (SolutionKind.DN_ODD, SolutionKind.DN_EVEN):
        span *= 2.0  # phi librates over two psi periods
    h = span / grid_points
    xs = (np.arange(grid_points, dtype=_LD) + _LD.type(0.5)) * _LD.type(h)
    psi, dpsi = _psi_and_derivative(fam, xs)
    phi = _reconstruct_phi(fam, psi, dpsi)

    d2 = (-phi[:-4] + 16 * phi[1:-3] - 30 * phi[2:-2] + 16 * phi[3:-1] - phi[4:]) \
        / (12 * _LD.type(h) ** 2)
    rhs = np.sin(phi[2:-2])
    if fam.sign_convention is SignConvention.STATIC:
        residual = np.abs(d2 - rhs)
    else:
        residual = np.abs(d2 + rhs)
    return OdeResidual(max_abs=float(residual.max()), step=float(h))
