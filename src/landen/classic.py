"""The three classical quadratic (two-term) modulus transformations.

These relate each Jacobi function at parameter m to a rational combination
of functions at the smaller parameter

    m~ = (1 - k')^2 / (1 + k')^2,      k' = sqrt(1 - m),

and serve as the fixed reference against which the general multi-term
machinery is regression-tested.  Each operation returns both sides of its
identity so callers pick their own tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import _validate_m, complete_elliptic_k, jacobi_eval

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


def classic_m_tilde(m):
    """Transformed parameter (1 - k')^2 / (1 + k')^2 of the two-term maps."""
    m = _check(m)
    kp = np.sqrt(1.0 - m)
    return float(((1.0 - kp) / (1.0 + kp)) ** 2)


def _check(m):
    # m~ -> 1 and the quarter period diverges at m = 1
    return _validate_m(m, below_one=True, what="two-term transformation parameter m")


def classic_sn(u, m):
    """sn((1+k')u, m~) versus (1+k') sn cn / dn evaluated at (u, m)."""
    m = _check(m)
    kp = np.sqrt(1.0 - m)
    mt = classic_m_tilde(m)
    sn, cn, dn = jacobi_eval(u, m)
    lhs = jacobi_eval((1.0 + kp) * np.asarray(u, dtype=float), mt).sn
    rhs = (1.0 + kp) * sn * cn / dn
    return ClassicLandenResult(lhs=lhs, rhs=rhs, m_tilde=mt)


def classic_cn(u, m):
    """cn((1+k')u, m~) versus [1 - (1+k') sn^2] / dn evaluated at (u, m)."""
    m = _check(m)
    kp = np.sqrt(1.0 - m)
    mt = classic_m_tilde(m)
    sn, _, dn = jacobi_eval(u, m)
    lhs = jacobi_eval((1.0 + kp) * np.asarray(u, dtype=float), mt).cn
    rhs = (1.0 - (1.0 + kp) * sn * sn) / dn
    return ClassicLandenResult(lhs=lhs, rhs=rhs, m_tilde=mt)


def classic_dn(u, m):
    """dn((1+k')u, m~) versus [1 - (1-k') sn^2] / dn evaluated at (u, m)."""
    m = _check(m)
    kp = np.sqrt(1.0 - m)
    mt = classic_m_tilde(m)
    sn, _, dn = jacobi_eval(u, m)
    lhs = jacobi_eval((1.0 + kp) * np.asarray(u, dtype=float), mt).dn
    rhs = (1.0 - (1.0 - kp) * sn * sn) / dn
    return ClassicLandenResult(lhs=lhs, rhs=rhs, m_tilde=mt)


def classic_dn_two_term(x, m):
    """The two-term rewrite of the dn transformation.

    lhs is dn(x, m~); rhs is the normalized sum of dn at arguments
    x/(1+k') and x/(1+k') + K(m), i.e. two terms a quarter period apart.
    Equivalent to :func:`classic_dn` under x = (1+k') u.
    """
    m = _check(m)
    kp = np.sqrt(1.0 - m)
    mt = classic_m_tilde(m)
    big_k = complete_elliptic_k(m)
    x = np.asarray(x, dtype=float)
    lhs = jacobi_eval(x, mt).dn
    u = x / (1.0 + kp)
    rhs = (jacobi_eval(u, m).dn + jacobi_eval(u + big_k, m).dn) / (1.0 + kp)
    return ClassicLandenResult(lhs=lhs, rhs=rhs, m_tilde=mt)
