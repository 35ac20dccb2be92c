"""The three classical quadratic (two-term) modulus transformations.

These relate each Jacobi function at parameter m to a rational combination
of functions at the smaller parameter

    m~ = (1 - k')^2 / (1 + k')^2,      k' = sqrt(1 - m),

and serve as the fixed reference against which the general multi-term
machinery is regression-tested.  Each operation returns both sides of its
identity so callers pick their own tolerance.  All three read one shared
evaluation at (u, m) and ((1 + k') u, m~); m may be an array that
broadcasts against u, and each element is bit for bit its scalar call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import complete_elliptic_k, jacobi_eval
from .nome import _validate_m

__all__ = [
    "ClassicLandenResult",
    "classic_m_tilde",
    "classic_sn",
    "classic_cn",
    "classic_dn",
    "classic_dn_two_term",
]


@dataclass(frozen=True)
class ClassicLandenResult:
    """Left side (function at m~), right side (combination at m), and m~."""

    lhs: float
    rhs: float
    m_tilde: float


def _parameters(m):
    """(m, k', m~) of a valid m; arrays of m's shape for array m."""
    # m~ -> 1 and the quarter period diverges at m = 1
    m = _validate_m(m, below_one=True, what="two-term transformation parameter m")
    kp = np.sqrt(1.0 - m)
    ratio = (1.0 - kp) / (1.0 + kp)
    # a product, not ratio ** 2: a scalar power goes through pow(), which
    # misses the correctly rounded square in the last bit now and then
    m_tilde = ratio * ratio
    return m, kp, float(m_tilde) if np.ndim(m_tilde) == 0 else m_tilde


def classic_m_tilde(m):
    """Transformed parameter (1 - k')^2 / (1 + k')^2 of the two-term maps."""
    return _parameters(m)[2]


def _classic_sides(u, m):
    """ClassicLandenResults of the sn, cn and dn identities at u, from one
    jacobi_eval call at (u, m) and one at ((1 + k') u, m~)."""
    m, kp, m_tilde = _parameters(m)
    sn, cn, dn = jacobi_eval(u, m)
    lhs = jacobi_eval((1.0 + kp) * np.asarray(u, dtype=float), m_tilde)
    return (ClassicLandenResult(lhs.sn, (1.0 + kp) * sn * cn / dn, m_tilde),
            ClassicLandenResult(lhs.cn, (1.0 - (1.0 + kp) * sn * sn) / dn, m_tilde),
            ClassicLandenResult(lhs.dn, (1.0 - (1.0 - kp) * sn * sn) / dn, m_tilde))


def classic_sn(u, m):
    """sn((1+k')u, m~) versus (1+k') sn cn / dn evaluated at (u, m)."""
    return _classic_sides(u, m)[0]


def classic_cn(u, m):
    """cn((1+k')u, m~) versus [1 - (1+k') sn^2] / dn evaluated at (u, m)."""
    return _classic_sides(u, m)[1]


def classic_dn(u, m):
    """dn((1+k')u, m~) versus [1 - (1-k') sn^2] / dn evaluated at (u, m)."""
    return _classic_sides(u, m)[2]


def classic_dn_two_term(x, m):
    """The two-term rewrite of the dn transformation.

    lhs is dn(x, m~); rhs is the normalized sum of dn at arguments
    x/(1+k') and x/(1+k') + K(m), i.e. two terms a quarter period apart,
    evaluated in one stacked call.  Equivalent to :func:`classic_dn` under
    x = (1+k') u.
    """
    m, kp, m_tilde = _parameters(m)
    x = np.asarray(x, dtype=float)
    lhs = jacobi_eval(x, m_tilde).dn
    u = x / (1.0 + kp)
    dn = jacobi_eval(np.stack([u, u + complete_elliptic_k(m)]), m).dn
    rhs = (dn[0] + dn[1]) / (1.0 + kp)
    return ClassicLandenResult(lhs=lhs, rhs=rhs, m_tilde=m_tilde)
