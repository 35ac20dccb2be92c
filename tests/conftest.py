"""Shared test oracle: the nome route in 50-digit mpmath.

It shares no code with ``landen``.  Tests that use it skip where mpmath is
not installed (it is a test oracle, not a dependency).
"""

import pytest


@pytest.fixture(scope="session")
def nome_route():
    """(m~, K(m) / (p K(m~))) for (p, m) with 0 < m < 1, as floats.

    m~ = (theta2(q^p)/theta3(q^p))^4 with q = exp(-pi K(1-m)/K(m)) (DLMF
    22.2.1-2), at 50 digits.
    """
    mpmath = pytest.importorskip("mpmath")
    cache = {}

    def route(p, m):
        if (p, m) not in cache:
            with mpmath.workdps(50):
                mm = mpmath.mpf(m)
                big_k = mpmath.ellipk(mm)
                q_p = mpmath.exp(-mpmath.pi * mpmath.ellipk(1 - mm) / big_k) ** p
                m_tilde = (mpmath.jtheta(2, 0, q_p) / mpmath.jtheta(3, 0, q_p)) ** 4
                cache[p, m] = (float(m_tilde), float(big_k / (p * mpmath.ellipk(m_tilde))))
        return cache[p, m]

    return route
