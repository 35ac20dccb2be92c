"""The benchmark's oracle against mpmath at 50 digits."""

import pytest

import oracle
import workloads

mpmath = pytest.importorskip("mpmath")
mpmath.mp.dps = 50

# measured worst case 1.2e-14 (m = 0.99999); the checks it serves gate at
# 1e-11
NOME_REL_TOL = 3e-14


def _nome_m_tilde(p, m):
    m = mpmath.mpf(m)
    q_p = mpmath.exp(-mpmath.pi * mpmath.ellipk(1 - m) / mpmath.ellipk(m)) ** p
    return (mpmath.jtheta(2, 0, q_p) / mpmath.jtheta(3, 0, q_p)) ** 4


GRID = sorted({(p, m) for p in workloads.TABLE_P for m in workloads.TABLE_M}
              | {(p, m) for p in workloads.COEFF_P for m in workloads.COEFF_M}
              | {(p, m) for _, p, m in workloads.SG_CELLS})


@pytest.mark.parametrize("p, m", GRID)
def test_m_tilde_matches_50_digit_nome_route(p, m):
    value = oracle.m_tilde(p, m)
    if m in (0.0, 1.0):
        assert value == m
        return
    ref = _nome_m_tilde(p, m)
    assert abs((value - ref) / ref) <= NOME_REL_TOL


@pytest.mark.parametrize("m", [1e-6, 0.1, 0.5, 0.9, 0.9999, 1 - 1e-5])
def test_jacobi_and_k_match_mpmath(m):
    big_k = mpmath.ellipk(m)
    assert abs(oracle.big_k(m) - big_k) <= 1e-15 * big_k
    for x in (0.3, -2.0, 7.5 * float(big_k)):
        sn, cn, dn = oracle.jacobi(x, m)
        for name, value in (("sn", sn), ("cn", cn), ("dn", dn)):
            assert abs(value - mpmath.ellipfun(name, x, m=m)) <= 1e-14
