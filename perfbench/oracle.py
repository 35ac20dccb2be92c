"""Reference values that share no code with ``landen``.

* ``sn, cn, dn`` and ``K`` come from ``scipy.special.ellipj`` / ``ellipk``.
* ``m~(p, m)`` comes from the nome route (DLMF 20.2, 22.2):
  ``q = exp(-pi K(1 - m) / K(m))`` and ``m~ = (theta2(q^p) / theta3(q^p))^4``,
  with both theta functions summed as short series.  The route has no
  cancellation, so it keeps its relative accuracy where ``m~`` is tiny.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ellipj, ellipk, ellipkm1

# Terms kept in each theta series.  q^p <= 0.93 on every cell the
# benchmark asks for (largest at m = 1 - 1e-5, p = 2), where the n^2 powers
# fall below 1e-17 of the leading term by n = 24.
_THETA_TERMS = 40


def jacobi(x, m):
    """(sn, cn, dn) of real argument(s) x at parameter m, from scipy."""
    sn, cn, dn, _ = ellipj(x, m)
    return sn, cn, dn


def big_k(m):
    """Complete elliptic integral of the first kind K(m), from scipy."""
    return float(ellipk(m))


def m_tilde(p, m):
    """Transformed parameter m~(p, m) by the nome route, in float64.

    m = 0 and m = 1 are the exact limits m~ = m (the nome is 0 or 1 there).
    """
    m = float(m)
    if m == 0.0 or m == 1.0:
        return m
    # ellipkm1(m) = K(1 - m) without forming 1 - m
    log_q = -math.pi * float(ellipkm1(m)) / float(ellipk(m))
    qp = math.exp(p * log_q)
    n = np.arange(_THETA_TERMS, dtype=np.float64)
    # theta2(q) = 2 q^(1/4) sum q^(n(n+1)), theta3(q) = 1 + 2 sum_{n>=1} q^(n^2)
    theta2_reduced = float(np.sum(qp ** (n * (n + 1))))
    theta3 = 1.0 + 2.0 * float(np.sum(qp ** (n[1:] ** 2)))
    return 16.0 * qp * (theta2_reduced / theta3) ** 4
