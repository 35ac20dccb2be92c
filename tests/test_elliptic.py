"""Tests for the elliptic core: K(m), the fast triple, the slow oracle."""

import os
import subprocess
import sys
import threading
import time
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

from landen import elliptic, nome
from landen.elliptic import complete_elliptic_k, jacobi_eval, jacobi_oracle

M_GRID = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
EPS = float(np.finfo(float).eps)
DTYPES = (np.float64, np.longdouble)
FRAC = st.floats(-8.0, 8.0)  # x / K(m) for the property tests

# Derived with the quadrature oracle below before the AGM path existed.
K_HALF = 1.8540746773013719
K_QUARTER = 1.6857503548125963
K_NINE_TENTHS = 2.578092113348173


def k_by_quadrature(m):
    """Independent K(m): adaptive quadrature of the defining integral."""
    value, _ = quad(lambda t: 1.0 / np.sqrt(1.0 - m * np.sin(t) ** 2),
                    0.0, 0.5 * np.pi, epsabs=1e-15, epsrel=1e-13, limit=200)
    return value


class TestCompleteK:
    def test_circular_value(self):
        assert complete_elliptic_k(0.0) == np.pi / 2

    @pytest.mark.parametrize("m,frozen", [(0.5, K_HALF), (0.25, K_QUARTER),
                                          (0.9, K_NINE_TENTHS)])
    def test_frozen_values(self, m, frozen):
        assert_allclose(k_by_quadrature(m), frozen, rtol=1e-14)
        assert_allclose(complete_elliptic_k(m), frozen, rtol=1e-15)

    @pytest.mark.parametrize("m", list(M_GRID) + [1e-8, 0.999, 0.9999])
    def test_matches_quadrature(self, m):
        assert_allclose(complete_elliptic_k(m), k_by_quadrature(m), rtol=5e-14)

    def test_monotone_and_finite_near_one(self):
        k1 = complete_elliptic_k(0.99)
        k2 = complete_elliptic_k(0.9999)
        assert np.isfinite(k2) and k2 > k1

    def test_lower_bound(self):
        for m in M_GRID:
            assert complete_elliptic_k(m) > np.pi / 2

    @pytest.mark.parametrize("m", [-0.1, 1.0, 1.5, np.nan])
    def test_domain(self, m):
        with pytest.raises(ValueError):
            complete_elliptic_k(m)


class TestJacobiEval:
    def test_circular_limit_exact(self):
        x = np.linspace(-7.0, 7.0, 41)
        sn, cn, dn = jacobi_eval(x, 0.0)
        assert_array_equal(sn, np.sin(x))
        assert_array_equal(cn, np.cos(x))
        assert_array_equal(dn, np.ones_like(x))

    def test_hyperbolic_limit_exact(self):
        x = np.linspace(-5.0, 5.0, 21)
        sn, cn, dn = jacobi_eval(x, 1.0)
        assert_array_equal(sn, np.tanh(x))
        assert_array_equal(cn, 1.0 / np.cosh(x))
        assert_array_equal(dn, 1.0 / np.cosh(x))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("size", (elliptic._SPLIT_MIN - 1, elliptic._SPLIT_MIN + 3))
    def test_exact_parameters_run_no_kernel(self, size, dtype, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("the Landen kernel ran for exact parameters only")

        monkeypatch.setattr(elliptic, "_landen_kernel", no_kernel)
        x = np.linspace(-7.0, 7.0, size, dtype=dtype)
        sech = 1 / np.cosh(x)
        circular = jacobi_eval(x, 0.0, dtype=dtype)
        hyperbolic = jacobi_eval(x, 1.0, dtype=dtype)
        both = jacobi_eval(x[:, None], np.array([0.0, 1.0]), dtype=dtype)
        assert both.sn.shape == (size, 2)
        for triple, want in ((circular, (np.sin(x), np.cos(x), np.ones_like(x))),
                             (hyperbolic, (np.tanh(x), sech, sech))):
            for got, ref in zip(triple, want):
                assert got.dtype == dtype
                assert_array_equal(got, ref)
        for got, c, h in zip(both, circular, hyperbolic):
            assert_array_equal(got, np.stack([c, h], axis=1))

    @pytest.mark.parametrize("m", M_GRID)
    def test_quarter_period_table(self, m):
        big_k = complete_elliptic_k(m)
        at0 = jacobi_eval(0.0, m)
        assert at0 == (0.0, 1.0, 1.0)
        atk = jacobi_eval(big_k, m)
        assert abs(atk.sn - 1.0) < 1e-13
        assert abs(atk.cn) < 1e-13
        assert abs(atk.dn - np.sqrt(1.0 - m)) < 1e-13

    @pytest.mark.parametrize("m", list(M_GRID) + [1e-6, 0.9999])
    def test_pythagorean_identities_ulp(self, m):
        for dtype in (np.float64, np.longdouble):
            eps = np.finfo(dtype).eps
            big_k = complete_elliptic_k(m, dtype=dtype)
            x = np.linspace(-4 * big_k, 4 * big_k, 257)
            sn, cn, dn = jacobi_eval(x, m, dtype=dtype)
            assert np.max(np.abs(sn * sn + cn * cn - 1)) <= 8 * eps, dtype
            assert np.max(np.abs(dn * dn + m * sn * sn - 1)) <= 8 * eps, dtype

    @pytest.mark.parametrize("m", M_GRID)
    def test_range_bounds(self, m):
        big_k = complete_elliptic_k(m)
        x = np.linspace(-4 * big_k, 4 * big_k, 257)
        sn, cn, dn = jacobi_eval(x, m)
        slack = 4 * EPS
        assert np.all(np.abs(sn) <= 1.0 + slack)
        assert np.all(np.abs(cn) <= 1.0 + slack)
        assert np.all(dn <= 1.0 + slack)
        assert np.all(dn >= np.sqrt(1.0 - m) * (1.0 - 4 * EPS))

    @pytest.mark.parametrize("m", list(M_GRID) + [1e-6, 0.9999])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dtype=st.sampled_from(DTYPES), frac=FRAC)
    @example(dtype=np.float64, frac=8.0)
    @example(dtype=np.longdouble, frac=-8.0)
    def test_periodicity(self, m, dtype, frac):
        # sn and cn have period 4K, dn 2K.  The reduction modulo 4K carries
        # K's rounding times |x| / K, so the limit scales with 1 + |x|.
        # 200k points per m read at most 1.1 eps (1 + |x|) for 4K and 3.3
        # for dn's 2K (m = 0.9999).
        eps = np.finfo(dtype).eps
        big_k = complete_elliptic_k(m, dtype=dtype)
        x = dtype(frac) * big_k
        base = jacobi_eval(x, m, dtype=dtype)
        for shift, names in ((4, ("sn", "cn", "dn")), (2, ("dn",))):
            moved_x = x + shift * big_k
            moved = jacobi_eval(moved_x, m, dtype=dtype)
            for name in names:
                err = abs(getattr(moved, name) - getattr(base, name))
                assert err <= 8 * eps * (1 + abs(moved_x)), (name, shift)

    @pytest.mark.parametrize("m", M_GRID)
    def test_dn_at_half_quarter_periods(self, m):
        big_k = complete_elliptic_k(m)
        t = (1.0 - m) ** 0.25
        assert abs(jacobi_eval(big_k / 2, m).dn - t) < 1e-12
        assert abs(jacobi_eval(3 * big_k / 2, m).dn - t) < 1e-12

    @pytest.mark.parametrize("m", M_GRID)
    def test_two_thirds_quarter_period_relation(self, m):
        big_k = complete_elliptic_k(m)
        q = jacobi_eval(2 * big_k / 3, m).dn
        assert abs(jacobi_eval(4 * big_k / 3, m).cn + q / (1.0 + q)) < 1e-12

    def test_two_thirds_frozen_values(self):
        # oracle-derived at m = 0.5
        big_k = complete_elliptic_k(0.5)
        assert_allclose(jacobi_eval(2 * big_k / 3, 0.5).dn,
                        0.7712298784187062, atol=1e-13)
        assert_allclose(jacobi_eval(4 * big_k / 3, 0.5).cn,
                        -0.43542054468233904, atol=1e-13)

    def test_frozen_point(self):
        # oracle-derived triple at (1.0, 0.5)
        triple = jacobi_eval(1.0, 0.5)
        assert_allclose(triple.sn, 0.8030018248956439, atol=1e-13)
        assert_allclose(triple.cn, 0.5959765676721407, atol=1e-13)
        assert_allclose(triple.dn, 0.8231610016315963, atol=1e-13)

    def test_scalar_and_array_agree(self):
        arr = jacobi_eval(np.array([0.3, 1.7]), 0.6)
        one = jacobi_eval(1.7, 0.6)
        assert np.ndim(one.sn) == 0
        assert one.sn == arr.sn[1] and one.dn == arr.dn[1]

    @pytest.mark.parametrize("dtype", (np.float64, np.longdouble))
    @pytest.mark.parametrize("m", (0.0, 0.3, 0.9, 0.999999, 1.0))
    def test_2d_argument_equals_row_by_row(self, m, dtype):
        big_k = complete_elliptic_k(min(m, 0.999999))
        x = np.random.default_rng(7).uniform(-8 * big_k, 8 * big_k, (5, 37))
        grid = jacobi_eval(x, m, dtype=dtype)
        for i, row in enumerate(x):
            one = jacobi_eval(row, m, dtype=dtype)
            for name in ("sn", "cn", "dn"):
                assert np.array_equal(getattr(grid, name)[i], getattr(one, name))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("m", (0.0, 0.5, 1.0, [0.0, 0.5, 1.0]))
    def test_negative_zero_keeps_its_sign(self, m, dtype):
        # sn(-0) is -0 on every branch, the kernel's as well as the limits'
        triple = jacobi_eval(-0.0, m, dtype=dtype)
        assert np.all(triple.sn == 0.0) and np.all(np.signbit(triple.sn))
        assert np.all(triple.cn == 1.0) and np.all(triple.dn == 1.0)

    def test_large_argument_consistent_with_periodicity(self):
        m = 0.75
        big_k = complete_elliptic_k(m)
        a = jacobi_eval(8 * big_k - 0.7, m)
        b = jacobi_eval(-0.7, m)
        assert abs(a.sn - b.sn) < 1e-12
        assert abs(a.dn - b.dn) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            jacobi_eval(np.inf, 0.5)
        with pytest.raises(ValueError):
            jacobi_eval(np.array([0.0, np.nan]), 0.5)
        with pytest.raises(ValueError):
            jacobi_eval(1.0, -0.2)
        with pytest.raises(ValueError):
            jacobi_eval(1.0, 1.2)

    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9, 1e-6, 0.9999, 1 - 1e-5])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(frac=FRAC)
    @example(frac=8.0)
    @example(frac=-8.0)
    def test_against_scipy(self, m, frac):
        # 200k points per m read at most 3.3e-14 (dn at m = 1 - 1e-5)
        from scipy.special import ellipj
        x = frac * complete_elliptic_k(m)
        for got, want in zip(jacobi_eval(x, m), ellipj(x, m)):
            assert abs(got - want) <= 1e-13


# ---------------------------------------------------------------- accuracy

def ellipfun_errors(x, m, got, mpmath):
    """|got - ellipfun| of sn, cn, dn at each point, a (3, n) float array.

    Every x and m is taken at its exact binary value, so the 40-digit
    reference sees the same inputs as the kernel.
    """
    def exact(v):
        num, den = v.as_integer_ratio()
        return mpmath.mpf(num) / den

    err = np.zeros((3, x.size))
    with mpmath.workdps(40):
        for i in range(x.size):
            u, mm = exact(x[i]), exact(m[i])
            for j, name in enumerate(("sn", "cn", "dn")):
                ref = mpmath.ellipfun(name, u, m=mm)
                err[j, i] = float(abs(exact(got[j][i]) - ref))
    return err


@pytest.mark.parametrize("dtype", DTYPES)
def test_against_mpmath(dtype):
    # m log-uniform in m on [1e-6, 0.5] or in 1 - m on [1e-4, 0.5], |x| <= 8K;
    # the first 100 points lie within 1e-6 relative of K, the zero of cn.
    # The fold carries K's rounding times |x| / K, so each point is held to
    # 16 eps (1 + |x| / K).  40000 seeded points of this kind read at most
    # 8.2 / 4.5 / 4.2 (sn/cn/dn) of eps (1 + |x| / K), in both dtypes.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2024)
    n, near_k = 600, 100
    low = rng.uniform(size=n) < 0.5
    m = np.where(low, 10 ** rng.uniform(-6, np.log10(0.5), n),
                 1 - 10 ** rng.uniform(-4, np.log10(0.5), n))
    frac = rng.uniform(-8, 8, n)
    frac[:near_k] = 1 + rng.uniform(-1e-6, 1e-6, near_k)
    big_k = complete_elliptic_k(m, dtype=dtype)
    x = frac.astype(dtype) * big_k
    err = ellipfun_errors(x, m, jacobi_eval(x, m, dtype=dtype), mpmath)
    limit = 16 * np.finfo(dtype).eps * (1 + np.abs(x / big_k)).astype(float)
    worst = np.argmax(np.max(err / limit, axis=0))
    assert np.all(err <= limit), (m[worst], frac[worst], err[:, worst] / limit[worst])


@pytest.mark.parametrize("dtype", DTYPES)
def test_against_mpmath_near_one(dtype):
    # 1 - m log-uniform on [2^-53, 1e-12], both ends pinned, |x| <= 8K with
    # a quarter of the points at |x| <= 0.1 K.  The kernel runs there as
    # everywhere in 0 < m < 1 and warns of nothing.  50000 seeded points of
    # this kind per dtype read at most 27 eps (1 + |x| / K), so each point is
    # held to 64 eps (1 + |x| / K); the worst float64 error was 4.9e-14
    # absolute.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2053)
    n, pinned = 600, 40
    gap = 10 ** rng.uniform(-53 * np.log10(2), -12, n)
    gap[:pinned] = 2.0 ** -53
    gap[pinned:2 * pinned] = 1e-12
    m = 1 - gap
    frac = rng.uniform(-8, 8, n)
    near_zero = rng.uniform(size=n) < 0.25
    frac[near_zero] = rng.uniform(-0.1, 0.1, np.count_nonzero(near_zero))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big_k = complete_elliptic_k(m, dtype=dtype)
        x = frac.astype(dtype) * big_k
        got = jacobi_eval(x, m, dtype=dtype)
    err = ellipfun_errors(x, m, got, mpmath)
    limit = 64 * np.finfo(dtype).eps * (1 + np.abs(x / big_k)).astype(float)
    worst = np.argmax(np.max(err / limit, axis=0))
    assert np.all(err <= limit), (gap[worst], frac[worst], err[:, worst] / limit[worst])
    assert err.max() < 1e-13


def exact_decimal(v):
    """A float64 or longdouble value as the Decimal it is, digit for digit."""
    num, den = v.as_integer_ratio()
    k = den.bit_length() - 1  # den is 2^k
    return Decimal((int(num < 0), tuple(map(int, str(abs(num) * 5 ** k))), -k))


@pytest.mark.parametrize("dtype", DTYPES)
def test_against_theta_route(dtype):
    # The second route of test_against_mpmath, with no mpmath: the theta
    # quotients of landen.nome at 34 decimal digits, which share no
    # arithmetic with the kernel, at the same per-point bound
    # 16 eps (1 + |x| / K) on points drawn as there.
    rng = np.random.default_rng(2026)
    n, near_k = 2000, 300
    low = rng.uniform(size=n) < 0.5
    m = np.where(low, 10 ** rng.uniform(-6, np.log10(0.5), n),
                 1 - 10 ** rng.uniform(-4, np.log10(0.5), n))
    frac = rng.uniform(-8, 8, n)
    frac[:near_k] = 1 + rng.uniform(-1e-6, 1e-6, near_k)
    big_k = complete_elliptic_k(m, dtype=dtype)
    x = frac.astype(dtype) * big_k
    got = jacobi_eval(x, m, dtype=dtype)
    err = np.zeros((3, n))
    for i in range(n):
        want = nome._sn_cn_dn(exact_decimal(x[i]), float(m[i]))
        for j in range(3):
            err[j, i] = float(abs(exact_decimal(got[j][i]) - want[j]))
    limit = 16 * np.finfo(dtype).eps * (1 + np.abs(x / big_k)).astype(float)
    worst = np.argmax(np.max(err / limit, axis=0))
    assert np.all(err <= limit), (m[worst], frac[worst], err[:, worst] / limit[worst])


@pytest.mark.parametrize("dtype", DTYPES)
def test_chain_without_levels(dtype):
    # parameters so small that AGM(1, sqrt(1 - m)) has converged at level 0:
    # the half-angle start alone gives the triple, and dn is exactly 1
    x = np.linspace(-7.0, 7.0, 57).astype(dtype)
    eps = np.finfo(dtype).eps
    for m in (1e-300, 1e-25):
        assert elliptic._agm_chain(m, np.dtype(dtype))[2] == 0
        sn, cn, dn = jacobi_eval(x, m, dtype=dtype)
        assert sn.dtype == dtype and dn.dtype == dtype
        assert np.array_equal(dn, np.ones_like(x))
        assert np.max(np.abs(sn - np.sin(x))) <= 8 * eps
        assert np.max(np.abs(cn - np.cos(x))) <= 8 * eps


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dtype=st.sampled_from(DTYPES), m=st.floats(0.0, 0.9999), a=FRAC, b=FRAC)
@example(dtype=np.float64, m=0.9999, a=8.0, b=8.0)
@example(dtype=np.longdouble, m=0.9999, a=-8.0, b=7.999)
@example(dtype=np.longdouble, m=5e-324, a=8.0, b=-8.0)
def test_addition_theorem(dtype, m, a, b):
    # sn(u + v) (1 - m sn^2 u sn^2 v) = sn u cn v dn v + sn v cn u dn u
    # (DLMF 22.8.1), without the division that is ill-conditioned near m = 1.
    # w = u + v carries the reduction's error, so the limit scales with
    # 1 + |w|.  800k seeded points read at most 13.3 eps (1 + |w|), and
    # |a| or |b| at 8 with m = 0.9999, 0 or subnormal below 3.
    eps = np.finfo(dtype).eps
    big_k = complete_elliptic_k(m, dtype=dtype)
    u, v = dtype(a) * big_k, dtype(b) * big_k
    su, cu, du = jacobi_eval(u, m, dtype=dtype)
    sv, cv, dv = jacobi_eval(v, m, dtype=dtype)
    w = u + v
    sw = jacobi_eval(w, m, dtype=dtype).sn
    lhs = sw * (1 - m * su * su * sv * sv)
    rhs = su * cv * dv + sv * cu * du
    assert abs(lhs - rhs) <= 32 * eps * (1 + abs(w))


def test_agm_chain_depth_is_bounded():
    # A stopping tolerance below the dtype's epsilon never holds once a and
    # b settle an ulp apart, and the chain ran to its 32-level cap.
    grid = np.concatenate([np.linspace(0.0, 1.0 - 1e-12, 4001),
                           1.0 - np.geomspace(1e-12, 1e-2, 400),
                           np.geomspace(1e-300, 1e-2, 400), [0.5, 0.9]])
    for dtype, bound in ((np.float64, 7), (np.longdouble, 8)):
        depth = max(elliptic._agm_chain(m, np.dtype(dtype))[2] for m in grid)
        assert depth <= bound, (dtype, depth)


def serial(x, m, dtype):
    """The unsplit kernel on the whole array: the split path's reference."""
    x = np.asarray(x, dtype=dtype)
    return elliptic._landen_kernel(x, *elliptic._agm_chain(m, np.dtype(dtype)))


def assert_triples_equal(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.array_equal(g, w)


class TestSplitEvaluation:
    SIZES = (elliptic._SPLIT_MIN - 1, elliptic._SPLIT_MIN, elliptic._SPLIT_MIN + 1,
             3 * elliptic._CHUNK + 1000, 100_000)

    @pytest.mark.parametrize("dtype", (np.float64, np.longdouble))
    @pytest.mark.parametrize("m", M_GRID)
    def test_bit_identical_to_serial(self, m, dtype, monkeypatch):
        splits = []
        split_eval = elliptic._split_eval
        monkeypatch.setattr(elliptic, "_split_eval",
                            lambda x, chain: splits.append(x.size) or split_eval(x, chain))
        big_k = complete_elliptic_k(m)
        rng = np.random.default_rng(11)
        for size in self.SIZES:
            x = rng.uniform(-8 * big_k, 8 * big_k, size)
            assert_triples_equal(jacobi_eval(x, m, dtype=dtype), serial(x, m, dtype))
        assert splits == [n for n in self.SIZES if n >= elliptic._SPLIT_MIN]
        for shape in ((250, 400), (7, 3 * elliptic._CHUNK // 7 + 5)):
            x = rng.uniform(-8 * big_k, 8 * big_k, shape)
            assert_triples_equal(jacobi_eval(x, m, dtype=dtype), serial(x, m, dtype))
            # a non-contiguous view takes the flatten-copy
            assert_triples_equal(jacobi_eval(x.T, m, dtype=dtype), serial(x.T, m, dtype))

    @pytest.mark.parametrize("dtype", (np.float64, np.longdouble))
    @pytest.mark.parametrize("m", M_GRID)
    def test_quadrant_edges(self, m, dtype):
        # x = jK and its neighbours a few ulp away, where the float64 quotient
        # floor(x / 4K) can round across an integer.
        from scipy.special import ellipj
        a, _, n = elliptic._agm_chain(m, np.dtype(dtype))
        big_k = elliptic._PI[np.dtype(dtype)] / (2 * a[n])
        x = []
        for j in range(-16, 17):
            lo = hi = dtype(j) * big_k
            x.append(lo)
            for _ in range(4):
                lo, hi = np.nextafter(lo, dtype(-np.inf)), np.nextafter(hi, dtype(np.inf))
                x += [lo, hi]
        x = np.array(x, dtype=dtype)
        four_k = 4 * big_k
        exact_q = np.floor(x.astype(np.longdouble) / np.longdouble(four_k))
        rounded_q = np.floor(x.astype(np.float64) / np.float64(four_k))
        assert np.any(exact_q != rounded_q)  # the grid reaches the rounding case

        got = jacobi_eval(x, m, dtype=dtype)
        want = ellipj(x.astype(np.float64), m)
        shifted = jacobi_eval(x + four_k, m, dtype=dtype)
        for name, ref, per in zip(("sn", "cn", "dn"), want, shifted):
            value = getattr(got, name)
            assert np.max(np.abs(value - ref)) < 2e-14, name
            assert np.max(np.abs(value - per)) < 2e-14, name

    @pytest.mark.parametrize("dtype", (np.float64, np.longdouble))
    @pytest.mark.parametrize("size", (5, elliptic._SPLIT_MIN + 3))
    def test_huge_arguments_stay_bounded(self, size, dtype):
        x = np.resize(np.array([1e300, -1e300, 3.7e299, -1e200]), size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in M_GRID:
                for value in jacobi_eval(x, m, dtype=dtype):
                    assert np.all(np.isfinite(value))
                    assert np.all(np.abs(value) <= 1)

    @pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
                        reason="longdouble has no range beyond float64")
    @pytest.mark.parametrize("size", (3, elliptic._SPLIT_MIN + 3))
    def test_extended_argument_beyond_float64_range_raises(self, size):
        x = np.zeros(size, dtype=np.longdouble)
        x[1] = np.longdouble("1e400")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float64 range"):
                jacobi_eval(x, 0.5, dtype=np.longdouble)

    @pytest.mark.parametrize("where", ("caller", "helper"))
    def test_worker_exception_reaches_caller(self, where, monkeypatch):
        # The failing chunk runs on the named thread; the others are slowed so
        # that the helper takes chunks even on one CPU.
        kernel = elliptic._landen_kernel
        caller = threading.get_ident()
        failed = []

        def flaky(x, *chain):
            on_caller = threading.get_ident() == caller
            if on_caller == (where == "caller") and not failed:
                failed.append(True)
                raise ArithmeticError("chunk failed")
            time.sleep(0.002)
            return kernel(x, *chain)

        monkeypatch.setattr(elliptic, "_worker_count", lambda: 2)
        monkeypatch.setattr(elliptic, "_landen_kernel", flaky)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="chunk failed"):
            jacobi_eval(np.linspace(0.0, 50.0, 100_000), 0.5)
        assert failed and threading.active_count() == before

    def test_failed_thread_start_joins_the_started_helpers(self, monkeypatch):
        real_thread = threading.Thread
        started = []

        class SecondStartFails(real_thread):
            def start(self):
                if started:
                    raise RuntimeError("can't start new thread")
                started.append(self)
                super().start()

        monkeypatch.setattr(elliptic, "_worker_count", lambda: 3)
        monkeypatch.setattr(threading, "Thread", SecondStartFails)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            jacobi_eval(np.linspace(0.0, 50.0, 100_000), 0.5, dtype=np.longdouble)
        assert len(started) == 1 and not started[0].is_alive()

    def test_one_worker_starts_no_thread(self, monkeypatch):
        class NoThread:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a thread was started with one worker")

        x = np.random.default_rng(5).uniform(-30.0, 30.0, 3 * elliptic._CHUNK + 17)
        want = [serial(x, 0.75, dt) for dt in (np.float64, np.longdouble)]
        monkeypatch.setattr(elliptic, "_worker_count", lambda: 1)
        monkeypatch.setattr(threading, "Thread", NoThread)
        for dtype, ref in zip((np.float64, np.longdouble), want):
            assert_triples_equal(jacobi_eval(x, 0.75, dtype=dtype), ref)

    def test_worker_count_is_the_affinity_mask(self):
        if hasattr(os, "sched_getaffinity"):
            assert elliptic._worker_count() == len(os.sched_getaffinity(0))
        else:
            assert elliptic._worker_count() == (os.cpu_count() or 1)

    def test_workers_run_in_callers_context(self, monkeypatch):
        kernel = elliptic._landen_kernel
        seen = []

        def recording(x, *chain):
            seen.append((threading.get_ident(), np.geterr()["over"], np.geterr()["under"]))
            time.sleep(0.002)
            return kernel(x, *chain)

        monkeypatch.setattr(elliptic, "_worker_count", lambda: 3)
        monkeypatch.setattr(elliptic, "_landen_kernel", recording)
        with np.errstate(over="raise", under="ignore"):
            jacobi_eval(np.linspace(0.0, 50.0, 10 * elliptic._CHUNK), 0.5)
        assert len(seen) == 10 and len({ident for ident, _, _ in seen}) == 3
        assert {(over, under) for _, over, under in seen} == {("raise", "ignore")}

    def test_more_workers_than_cores_cover_every_chunk_once(self, monkeypatch):
        # Stress the shared chunk counter: a lost or doubled hand-out changes
        # the call count, and a chunk left unwritten breaks the equality.
        kernel = elliptic._landen_kernel
        calls = []
        lock = threading.Lock()

        def counting(x, *chain):
            with lock:
                calls.append(x.size)
            return kernel(x, *chain)

        x = np.random.default_rng(9).uniform(-40.0, 40.0, 23 * elliptic._CHUNK + 5)
        want = serial(x, 0.9, np.float64)
        monkeypatch.setattr(elliptic, "_worker_count", lambda: 8)
        monkeypatch.setattr(elliptic, "_landen_kernel", counting)
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: result.append(jacobi_eval(x, 0.9)))
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive() and len(result) == 1
        assert sorted(calls) == [5] + [elliptic._CHUNK] * 23
        assert_triples_equal(result[0], want)


# Parameters whose AGM chains run 1 to 8 levels deep (in float64 and in
# longdouble), with the exact branches m = 0 and m = 1 and three values
# within 1e-12 of 1, the last double below 1 among them.
ARRAY_M = np.array([0.3, 1e-8, 0.0, 1e-12, 0.01, 0.1, 0.5, 1.0, 0.9, 0.999, 1 - 1e-13,
                    0.99999, 1 - 1e-8, 1e-5, 0.75, 1 - 2 ** -53, 1 - 5e-13])


def stacked(x_rows, ms, dtype):
    """Per-m scalar calls, row j of x at ms[j], stacked: the reference for
    an array m."""
    rows = [jacobi_eval(x, m, dtype=dtype) for x, m in zip(x_rows, ms)]
    return tuple(np.stack([getattr(row, name) for row in rows]) for name in ("sn", "cn", "dn"))


def assert_bitwise(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.array_equal(g, w)
        assert np.array_equal(np.signbit(g), np.signbit(w))


class TestArrayM:
    @pytest.mark.parametrize("dtype", (np.float64, np.longdouble))
    def test_equals_stacked_scalar_calls(self, dtype):
        depths = {elliptic._agm_chain(m, np.dtype(dtype))[2] for m in ARRAY_M
                  if 0.0 < m < 1.0}
        assert set(range(1, 9)) <= depths
        x = np.linspace(-30.0, 30.0, 97)  # through 0, so signed zeros occur
        got = jacobi_eval(x, ARRAY_M[:, None], dtype=dtype)
        assert_bitwise(got, stacked([x] * len(ARRAY_M), ARRAY_M, dtype))

    @pytest.mark.parametrize("dtype", (np.float64, np.longdouble))
    def test_broadcast_shapes(self, dtype):
        rng = np.random.default_rng(3)
        ms = np.array([0.1, 0.5, 0.9, 0.99])
        x = rng.uniform(-20.0, 20.0, (4, 33))
        assert_bitwise(jacobi_eval(x, ms[:, None], dtype=dtype), stacked(x, ms, dtype))
        # verify's layout: (term, m, grid, x) against m of shape (1, M, 1, 1)
        x = rng.uniform(-20.0, 20.0, (3, 4, 2, 16))
        got = jacobi_eval(x, ms.reshape(1, -1, 1, 1), dtype=dtype)
        assert got.sn.shape == x.shape
        want = stacked(np.moveaxis(x, 1, 0), ms, dtype)
        assert_bitwise(tuple(np.moveaxis(g, 1, 0) for g in got), want)
        # a scalar x against an array m gives an array
        point = jacobi_eval(1.25, ms, dtype=dtype)
        assert point.sn.shape == ms.shape
        assert_bitwise(point, stacked([1.25] * len(ms), ms, dtype))

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("dtype", (np.float64, np.longdouble))
    def test_split_path_matches_serial_kernel(self, dtype, workers, monkeypatch):
        # An array m runs one serial kernel pass at any size and worker count.
        splits = []
        split_eval = elliptic._split_eval
        monkeypatch.setattr(elliptic, "_split_eval",
                            lambda x, chain: splits.append(x.size) or split_eval(x, chain))
        monkeypatch.setattr(elliptic, "_worker_count", lambda: workers)
        ms = np.array([0.1, 0.9, 0.5, 0.0, 0.99999, 1.0])
        x = np.random.default_rng(8).uniform(-40.0, 40.0, (len(ms), 3 * elliptic._CHUNK + 11))
        got = jacobi_eval(x, ms[:, None], dtype=dtype)
        assert x.size >= elliptic._SPLIT_MIN and splits == []
        kernel = [serial(row, m, dtype) for row, m in zip(x, ms) if 0.0 < m < 1.0]
        want = tuple(np.stack([k[i] for k in kernel]) for i in range(3))
        regular = (ms > 0.0) & (ms < 1.0)
        assert_bitwise(tuple(g[regular] for g in got), want)
        assert_bitwise(got, stacked(x, ms, dtype))

    @pytest.mark.parametrize("bad", (np.nan, 1.5, -0.25))
    def test_bad_element_raises(self, bad):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got"):
            jacobi_eval(np.linspace(0.0, 1.0, 5), np.array([0.5, bad, 0.25])[:, None])
        with pytest.raises(ValueError, match=r"m of K\(m\).*\[0, 1\)"):
            complete_elliptic_k(np.array([0.5, bad]))

    def test_complete_k_elementwise(self):
        ms = ARRAY_M[ARRAY_M < 1.0]
        for dtype in (np.float64, np.longdouble):
            got = complete_elliptic_k(ms.reshape(2, -1), dtype=dtype)
            assert got.shape == (2, len(ms) // 2) and got.dtype == dtype
            want = [complete_elliptic_k(m, dtype=dtype) for m in ms]
            assert np.array_equal(got.reshape(-1), np.array(want, dtype=dtype))
            # no chain has a Landen level here, and K still takes m's shape
            for levelless in ([0.0, 0.0], [1e-300, 1e-20], np.zeros((2, 3)), []):
                levelless = np.asarray(levelless, dtype=np.float64)
                got = complete_elliptic_k(levelless, dtype=dtype)
                assert isinstance(got, np.ndarray)
                assert got.shape == levelless.shape and got.dtype == dtype
                want = [complete_elliptic_k(m, dtype=dtype) for m in levelless.reshape(-1)]
                assert np.array_equal(got.reshape(-1), np.array(want, dtype=dtype))
        with pytest.raises(ValueError, match="divergent at m = 1"):
            complete_elliptic_k(np.array([0.5, 1.0]))


class TestParity:
    """sn is odd and cn, dn are even, bit for bit, the sign of zero included:
    the kernel folds |x| and gives sn the sign of x."""

    @staticmethod
    def assert_odd_even(x, m, dtype):
        x = np.asarray(x, dtype=dtype)
        pos, neg = (map(np.asarray, jacobi_eval(v, m, dtype=dtype)) for v in (x, -x))
        sn, cn, dn = pos
        assert_bitwise(tuple(neg), (-sn, cn, dn))

    @staticmethod
    def points(m, dtype):
        # seeded x over |x| <= 8K, +-0 and the neighbours of +-jK, where the
        # float64 quadrant quotient can round across an integer
        big_k = complete_elliptic_k(0.5 if m == 1.0 else m, dtype=dtype)  # K(1) diverges
        x = list(np.random.default_rng(17).uniform(-8, 8, 400).astype(dtype) * big_k)
        x += [dtype(0.0), dtype(-0.0)]
        for j in range(-8, 9):
            lo = hi = dtype(j) * big_k
            x.append(lo)
            for _ in range(3):
                lo, hi = np.nextafter(lo, dtype(-np.inf)), np.nextafter(hi, dtype(np.inf))
                x += [lo, hi]
        return np.array(x, dtype=dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("m", (0.0, 1e-8, 0.1, 0.5, 0.9, 0.99, 1 - 1e-14, 1.0))
    def test_scalar_m(self, m, dtype):
        x = self.points(m, dtype)
        self.assert_odd_even(x, m, dtype)
        for value in x[-60:]:
            self.assert_odd_even(value, m, dtype)  # scalar x and m

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_array_m(self, dtype):
        x = np.stack([self.points(0.5, dtype)] * len(ARRAY_M))
        self.assert_odd_even(x, ARRAY_M[:, None], dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_split_path(self, dtype, monkeypatch):
        splits = []
        split_eval = elliptic._split_eval
        monkeypatch.setattr(elliptic, "_split_eval",
                            lambda x, chain: splits.append(x.size) or split_eval(x, chain))
        x = np.resize(self.points(0.75, dtype), elliptic._SPLIT_MIN + 5)
        self.assert_odd_even(x, 0.75, dtype)
        assert splits == [x.size, x.size]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("m", (0.5, 1 - 1e-14))
    def test_small_negative_argument_against_mpmath(self, m, dtype):
        # the fold of x itself formed -0.0175 as a difference near 4K: sn
        # was 17.7 eps off at m = 0.5 and 442 eps at m = 1 - 1e-14 (float64)
        mpmath = pytest.importorskip("mpmath")
        x = np.array([-0.0175], dtype=dtype)
        got = jacobi_eval(x, m, dtype=dtype)
        err = ellipfun_errors(x, np.array([m]), got, mpmath)[:, 0]
        relative = err / np.abs(np.array(got, dtype=float)[:, 0])
        assert np.all(relative <= 4 * np.finfo(dtype).eps), relative / np.finfo(dtype).eps


class TestJacobiOracle:
    @pytest.mark.parametrize("m", M_GRID)
    def test_origin(self, m):
        assert jacobi_oracle(0.0, m) == (0.0, 1.0, 1.0)

    @pytest.mark.parametrize("m", M_GRID)
    def test_quarter_period(self, m):
        big_k = complete_elliptic_k(m)
        sn, cn, dn = jacobi_oracle(big_k, m)
        assert abs(sn - 1.0) < 1e-11
        assert abs(cn) < 1e-11
        assert abs(dn - np.sqrt(1.0 - m)) < 1e-11

    def test_limits(self):
        assert jacobi_oracle(0.7, 0.0).sn == np.sin(0.7)
        assert jacobi_oracle(0.7, 1.0).sn == np.tanh(0.7)

    @pytest.mark.parametrize("m", M_GRID)
    def test_oracle_vs_eval(self, m):
        big_k = complete_elliptic_k(m)
        worst = 0.0
        for x in np.linspace(-4 * big_k, 4 * big_k, 64):
            a = jacobi_oracle(x, m)
            b = jacobi_eval(x, m)
            worst = max(worst, abs(a.sn - b.sn), abs(a.cn - b.cn), abs(a.dn - b.dn))
        assert worst < 1e-11

    def test_cross_check_point(self):
        a = jacobi_oracle(1.0, 0.5)
        b = jacobi_eval(1.0, 0.5)
        assert max(abs(a.sn - b.sn), abs(a.cn - b.cn), abs(a.dn - b.dn)) < 1e-11

    def test_domain(self):
        with pytest.raises(ValueError):
            jacobi_oracle(np.nan, 0.5)
        with pytest.raises(ValueError):
            jacobi_oracle(1.0, -1.0)

    def test_refuses_what_the_fold_cannot_reduce(self):
        # past |x| = K / eps (8.3e15 at m = 0.5) x - n 2K keeps no correct
        # digit
        for x in (1e16, 1e17, 1e300, 1.7e308):
            for signed in (x, -x):
                with pytest.raises(ValueError, match="K / eps"):
                    jacobi_oracle(signed, 0.5)
        sn, cn, dn = jacobi_oracle(0.999 * complete_elliptic_k(0.5) / EPS, 0.5)
        assert abs(sn * sn + cn * cn - 1) < 4 * EPS
        assert abs(dn * dn + 0.5 * sn * sn - 1) < 4 * EPS
        # m = 0 and m = 1 do not fold
        for x in (1e17, 1e300, 1.7e308):
            assert jacobi_oracle(x, 0.0) == (np.sin(x), np.cos(x), 1.0)
            assert jacobi_oracle(x, 1.0) == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("m", (0.0,) + M_GRID + (1.0,))
    def test_signed_zero_matches_eval(self, m):
        for x in (-0.0, 0.0):
            got, want = jacobi_oracle(x, m), jacobi_eval(x, m)
            assert got == want == (0.0, 1.0, 1.0)
            assert np.signbit(got.sn) == np.signbit(want.sn) == np.signbit(x)

    def test_against_mpmath(self):
        # |x| <= 30 with m log-dense to 1e-8 and to 1 - 1e-8, both ends
        # pinned; K's rounding carried through the fold sets the scale, so
        # each point is held to 16 eps (1 + |x| / K).  40000 seeded points
        # of this kind read at most 14 of eps (1 + |x| / K), median 0.4.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(1995)
        n = 240
        low = rng.uniform(size=n) < 0.5
        m = np.where(low, 10 ** rng.uniform(-8, np.log10(0.5), n),
                     1 - 10 ** rng.uniform(-8, np.log10(0.5), n))
        m[:40] = 1e-8
        m[40:80] = 1 - 1e-8
        x = rng.uniform(-30.0, 30.0, n)
        got = [np.array(v) for v in zip(*(jacobi_oracle(a, b) for a, b in zip(x, m)))]
        err = ellipfun_errors(x, m, got, mpmath)
        limit = 16 * EPS * (1 + np.abs(x) / complete_elliptic_k(m))
        worst = np.argmax(np.max(err / limit, axis=0))
        assert np.all(err <= limit), (m[worst], x[worst], err[:, worst] / limit[worst])


def test_separatrix_far_out_is_exact_without_warning():
    # at m = 1 cosh overflows past |x| ~ 710 (11357 in an 80-bit
    # longdouble); sech = 1/inf = 0 is the exact limit and no warning is due
    from landen.sine_gordon import SolutionFamily, SolutionKind, psi_value

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (800.0, -800.0):
            sign = np.copysign(1.0, x)
            assert jacobi_eval(x, 1.0) == (sign, 0.0, 0.0)
            assert jacobi_oracle(x, 1.0) == (sign, 0.0, 0.0)
            row = jacobi_eval(x, [0.5, 1.0])
            assert (row.sn[1], row.cn[1], row.dn[1]) == (sign, 0.0, 0.0)
            far = np.longdouble(15 * x)
            assert jacobi_eval(far, 1.0, dtype=np.longdouble) == (sign, 0.0, 0.0)
            fam = SolutionFamily(SolutionKind.DN_ODD, 3, 1.0)
            assert psi_value(fam, 15 * x) == 0.0


def test_cold_import_loads_no_scipy():
    # no module of the package imports scipy, the oracle included; the split
    # evaluation uses bare threads, not an executor or a process pool
    script = (
        "import sys\n"
        "import landen, landen.cli, landen.elliptic\n"
        "roots = ('scipy', 'concurrent', 'multiprocessing')\n"
        "loaded = [k for k in sys.modules if k.split('.')[0] in roots]\n"
        "assert not loaded, loaded[:5]\n"
        "from landen.elliptic import jacobi_eval, jacobi_oracle\n"
        "a, b = jacobi_oracle(0.7, 0.5), jacobi_eval(0.7, 0.5)\n"
        "assert max(abs(u - v) for u, v in zip(a, b)) < 1e-13, (a, b)\n"
        "assert 'scipy' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run([sys.executable, "-c", script],
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
