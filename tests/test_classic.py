"""Tests for the classical two-term (quadratic) transformations."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from landen.classic import (classic_cn, classic_dn, classic_dn_two_term,
                            classic_m_tilde, classic_sn)
from landen.elliptic import complete_elliptic_k
from landen.general import Family, LandenSpec, coefficients

M_GRID = (0.1, 0.5, 0.75, 0.9, 0.99)


def _period_grid(m, op, n=128):
    """u values whose transformed argument covers one period of the lhs."""
    mt = classic_m_tilde(m)
    kp = np.sqrt(1.0 - m)
    width = 2.0 if op is classic_dn else 4.0
    span = width * complete_elliptic_k(mt)
    return np.linspace(0.0, span, n) / (1.0 + kp)


@pytest.mark.parametrize("m", M_GRID)
@pytest.mark.parametrize("op", [classic_sn, classic_cn, classic_dn])
def test_identity_residual_over_period(op, m):
    res = op(_period_grid(m, op), m)
    assert np.max(np.abs(res.lhs - res.rhs)) <= 1e-11


@pytest.mark.parametrize("m", M_GRID)
def test_two_term_rewrite_matches_ratio_form(m):
    kp = np.sqrt(1.0 - m)
    u = _period_grid(m, classic_dn)
    ratio = classic_dn(u, m)
    two = classic_dn_two_term((1.0 + kp) * u, m)
    assert np.max(np.abs(two.rhs - ratio.rhs)) <= 1e-12
    assert np.max(np.abs(two.lhs - two.rhs)) <= 1e-11


def test_zero_argument_values():
    assert classic_sn(0.0, 0.4).lhs == 0.0
    assert classic_sn(0.0, 0.4).rhs == 0.0
    assert classic_cn(0.0, 0.4).lhs == 1.0
    assert classic_cn(0.0, 0.4).rhs == 1.0
    assert classic_dn(0.0, 0.4).rhs == 1.0


def test_circular_limit_is_double_angle():
    # at m = 0 the three identities collapse to double-angle formulas
    u = np.linspace(0.0, np.pi, 41)
    sn = classic_sn(u, 0.0)
    assert_allclose(sn.lhs, np.sin(2 * u), atol=4e-16)
    assert_allclose(sn.rhs, 2 * np.sin(u) * np.cos(u), atol=4e-16)
    cn = classic_cn(u, 0.0)
    assert_allclose(cn.rhs, 1.0 - 2.0 * np.sin(u) ** 2, atol=4e-16)
    dn = classic_dn(u, 0.0)
    assert np.max(np.abs(dn.lhs - 1.0)) == 0.0
    assert np.max(np.abs(dn.rhs - 1.0)) <= 4e-16


def test_known_transformed_parameter():
    # k' = 0.5 at m = 0.75, so m~ = (0.5/1.5)^2 = 1/9
    res = classic_sn(0.7, 0.75)
    assert_allclose(res.m_tilde, 1.0 / 9.0, rtol=1e-15)
    assert abs(res.lhs - res.rhs) < 1e-12


@pytest.mark.parametrize("u,m", [(1.1, 0.5), (2.3, 0.9)])
def test_point_residuals(u, m):
    for op in (classic_sn, classic_cn, classic_dn):
        res = op(u, m)
        assert abs(res.lhs - res.rhs) < 1e-12
    kp = np.sqrt(1.0 - m)
    two = classic_dn_two_term((1.0 + kp) * u, m)
    assert abs(two.lhs - two.rhs) < 1e-12
    assert abs(two.rhs - classic_dn(u, m).rhs) < 1e-12


@pytest.mark.parametrize("m", M_GRID)
def test_ascending_property(m):
    mt = classic_m_tilde(m)
    assert 0.0 < mt < m


@pytest.mark.parametrize("m", M_GRID)
def test_matches_general_machinery_at_p2(m):
    for family in (Family.DN, Family.CN, Family.SN):
        general_mt = coefficients(LandenSpec(family, 2), m).m_tilde
        assert abs(general_mt - classic_m_tilde(m)) < 1e-12


def test_degenerate_parameter_rejected():
    with pytest.raises(ValueError):
        classic_m_tilde(1.0)
    for op in (classic_sn, classic_cn, classic_dn):
        with pytest.raises(ValueError):
            op(0.3, 1.0)


def test_array_m_equals_scalar_calls():
    # a batch with one parameter per row gives every row the bits of its
    # scalar call
    ms = np.array(M_GRID)
    u = np.linspace(0.0, 3.0, 57) * (1.0 + ms)[:, None]
    ops = (classic_sn, classic_cn, classic_dn, classic_dn_two_term)
    batches = [op(u, ms[:, None]) for op in ops]
    for j, m in enumerate(M_GRID):
        for op, batch in zip(ops, batches):
            want = op(u[j], m)
            assert np.array_equal(batch.lhs[j], want.lhs)
            assert np.array_equal(batch.rhs[j], want.rhs)
            assert batch.m_tilde[j] == want.m_tilde == classic_m_tilde(m)


def test_array_m_tilde_equals_scalar_calls():
    # a scalar square through pow() would miss the array's in the last bit
    # for about one m in a thousand
    ms = np.random.default_rng(12).random(4000)
    assert np.array_equal(classic_m_tilde(ms), [classic_m_tilde(m) for m in ms])
    with pytest.raises(ValueError):
        classic_m_tilde(np.array([0.5, 1.0]))
