"""Tests for the multi-term transformation machinery."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from landen import general, nome
from landen.classic import classic_dn_two_term, classic_m_tilde
from landen.elliptic import complete_elliptic_k, jacobi_eval
from landen.general import (CN_EVEN_MIN_M, AlternatingSumDegenerateError, Family,
                            LandenSpec, _csum, _p_term_rows, _raw_coefficients,
                            a5_product, coefficients,
                            m_tilde_closed_p3, m_tilde_closed_p4, sum_route_m_tilde,
                            transform_rhs, verify_identity)

ALL_FAMILIES = (Family.DN, Family.CN, Family.SN)
M_GRID = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
LD = np.longdouble


def spec(family, p):
    return LandenSpec(family, p)


class TestCoefficients:
    # spot values known to 4 significant figures
    @pytest.mark.parametrize("family,p,m,expected", [
        (Family.DN, 3, 0.9, 0.04311),
        (Family.SN, 4, 0.5, 0.5580e-4),
        (Family.CN, 5, 0.99, 0.01963),
        (Family.DN, 2, 0.75, 0.1111),
        (Family.SN, 7, 0.99, 0.1362e-2),
    ])
    def test_m_tilde_reference_values(self, family, p, m, expected):
        assert_allclose(coefficients(spec(family, p), m).m_tilde, expected, rtol=5e-4)

    def test_circular_boundary(self):
        for p in (3, 5):
            co = coefficients(spec(Family.DN, p), 0.0)
            assert co.alpha == 1.0 / p
            assert co.m_tilde == 0.0
        co = coefficients(spec(Family.SN, 4), 0.0)
        assert co.m_tilde == 0.0 and co.a_sum == 4 / 8
        # a limit, not a cancelled sum: odd cn keeps its divergent alpha
        co = coefficients(spec(Family.CN, 3), 0.0)
        assert co.alpha == np.inf and np.isnan(co.arg_scale)

    def test_odd_cn_cubic_sum_exact_at_zero(self):
        # sum_i cos^3(2 pi i/p) = 3/4 at p = 3 and exactly 0 for odd p >= 5,
        # not the rounding residue of the p cubes
        for p in range(3, 16, 2):
            assert coefficients(spec(Family.CN, p), 0.0).a_sum == (0.75 if p == 3 else 0.0)

    def test_alpha_approaches_inverse_p(self):
        co = coefficients(spec(Family.DN, 5), 1e-9)
        assert_allclose(co.alpha, 0.2, rtol=1e-7)

    def test_hyperbolic_boundary(self):
        for family in ALL_FAMILIES:
            for p in (3, 4):
                co = coefficients(spec(family, p), 1.0)
                assert co.alpha == 1.0 and co.m_tilde == 1.0

    def test_alternating_sum_guard(self):
        with pytest.raises(AlternatingSumDegenerateError):
            coefficients(spec(Family.CN, 4), 1e-12)
        # just above the guard the computation goes through
        co = coefficients(spec(Family.CN, 4), 1e-7)
        assert np.isfinite(co.alpha)

    def test_sn_odd_has_no_sum_constant(self):
        assert coefficients(spec(Family.SN, 3), 0.5).a_sum is None
        assert coefficients(spec(Family.SN, 4), 0.5).a_sum is not None

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("p", range(2, 8))
    @pytest.mark.parametrize("m", (0.1, 0.5, 0.9))
    def test_ascending_property(self, family, p, m):
        mt = coefficients(spec(family, p), m).m_tilde
        assert 0.0 < mt < m

    @pytest.mark.parametrize("p", range(2, 8))
    @pytest.mark.parametrize("m", (0.1, 0.5, 0.9))
    def test_positive_normalizations(self, p, m):
        # plain-sum normalizations are positive; the alternating one (even
        # cn) is only required finite
        assert coefficients(spec(Family.DN, p), m).alpha > 0
        assert coefficients(spec(Family.SN, p), m).alpha > 0
        cn_alpha = coefficients(spec(Family.CN, p), m).alpha
        assert np.isfinite(cn_alpha)
        if p % 2 == 1:
            assert cn_alpha > 0

    def test_p2_reduces_to_classic(self):
        for m in (0.1, 0.5, 0.75, 0.9, 0.99):
            for family in ALL_FAMILIES:
                mt = coefficients(spec(family, 2), m).m_tilde
                assert abs(mt - classic_m_tilde(m)) < 1e-12

    def test_even_cn_arg_scale_equals_plain_sum_normalization(self):
        # period matching forces alpha4 sqrt(m~) = alpha2
        for p in (2, 4, 6):
            for m in (0.1, 0.5, 0.9):
                a2 = coefficients(spec(Family.DN, p), m).alpha
                sc = coefficients(spec(Family.CN, p), m).arg_scale
                assert_allclose(sc, a2, rtol=1e-13)

    def test_monotonic_in_m_and_p(self):
        ms = (0.25, 0.5, 0.75, 0.9, 0.99, 0.999)
        for p in range(2, 8):
            col = [coefficients(spec(Family.DN, p), m).m_tilde for m in ms]
            assert np.all(np.diff(col) > 0)
        for m in ms:
            row = [coefficients(spec(Family.DN, p), m).m_tilde for p in range(2, 8)]
            assert np.all(np.diff(row) < 0)

    def test_domain_and_spec_validation(self):
        for p in (1, 0, -3, 2.0, 3.5, "3", None):
            with pytest.raises(ValueError, match="integer >= 2"):
                LandenSpec(Family.DN, p)
        with pytest.raises(ValueError):
            coefficients(spec(Family.DN, 3), -0.5)
        with pytest.raises(ValueError):
            coefficients(spec(Family.DN, 3), 1.5)

    def test_spec_is_a_value(self):
        # _identity_residuals keys a dict on specs
        cn5 = LandenSpec("cn", 5)
        assert cn5.family is Family.CN and cn5.p == 5 and cn5.odd
        assert cn5 == LandenSpec(Family.CN, p=5) and hash(cn5) == hash(LandenSpec(Family.CN, 5))
        assert cn5 != LandenSpec(Family.CN, 7) and cn5 != LandenSpec(Family.DN, 5)
        assert {cn5: "cn5"}[LandenSpec(Family.CN, 5)] == "cn5"
        assert repr(cn5) == "LandenSpec(family=<Family.CN: 'cn'>, p=5)"
        with pytest.raises(AttributeError):
            cn5.p = 7
        assert cn5._replace(family="sn") == LandenSpec(Family.SN, 5)
        with pytest.raises(ValueError, match="integer >= 2"):
            cn5._replace(p=1)


class TestTransformRhs:
    @pytest.mark.parametrize("p", (3, 4, 5))
    def test_dn_at_zero_is_one(self, p):
        assert abs(transform_rhs(spec(Family.DN, p), 0.5, 0.0) - 1.0) < 4e-15

    @pytest.mark.parametrize("p,m", [(3, 0.5), (5, 0.75)])
    def test_sn_odd_at_zero_cancels(self, p, m):
        assert abs(transform_rhs(spec(Family.SN, p), m, 0.0)) < 1e-12

    def test_sn_even_at_zero_exact(self):
        assert transform_rhs(spec(Family.SN, 4), 0.5, 0.0) == 0.0

    def test_cn_even_point_matches_lhs(self):
        s = spec(Family.CN, 4)
        mt = coefficients(s, 0.75).m_tilde
        lhs = jacobi_eval(1.3, mt).cn
        assert abs(transform_rhs(s, 0.75, 1.3) - lhs) < 1e-10

    def test_degenerate_boundary_rejected(self):
        with pytest.raises(ValueError):
            transform_rhs(spec(Family.SN, 3), 0.0, 0.3)
        with pytest.raises(ValueError):
            transform_rhs(spec(Family.DN, 3), 1.0, 0.3)


class TestNomeRoute:
    # the four cells the cubic sums cancelled on (dn p = 4 gave m~ = -1.4e-20,
    # odd cn p = 9 an alpha of -3.4e18), and the cell whose m~ was once
    # forged past m: the nome route gets each right
    @pytest.mark.parametrize("family,p,m", [(Family.DN, 4, 1e-6), (Family.DN, 4, 1e-12),
                                            (Family.DN, 8, 1e-12), (Family.CN, 9, 1e-4),
                                            (Family.DN, 3, 0.5)])
    def test_m_tilde_matches_nome_route(self, nome_route, family, p, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mt = coefficients(spec(family, p), m).m_tilde
        want = nome_route(p, m)[0]
        assert abs(mt - want) <= 1e-12 * want
        assert 0.0 < mt < m

    @pytest.mark.parametrize("m", (1e-6, 0.05, 0.1, 0.25, 0.5, 0.9, 0.99, 0.9999))
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_all_kinds_match_nome_route(self, nome_route, family, m):
        # p 2..12 covers both parities, so all six kinds
        for p in range(2, 13):
            co = coefficients(spec(family, p), m)
            mt, s = nome_route(p, m)
            assert abs(co.m_tilde - mt) <= 1e-12 * mt, (p, co.m_tilde, mt)
            assert abs(co.arg_scale - s) <= 1e-12 * s, (p, co.arg_scale, s)
            if family is Family.CN and p % 2 == 0:
                alpha = s / np.sqrt(mt)
            elif family is Family.DN or p % 2 == 0:
                alpha = s
            else:
                alpha = s * np.sqrt(m / mt)
            assert abs(co.alpha - alpha) <= 1e-12 * alpha, (p, co.alpha, alpha)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_correctly_rounded(self, nome_route, family):
        # one rounding from 34 decimal digits: m~ and the argument scale are
        # the 50-digit values rounded to float64, to the last bit
        for p in range(2, 13):
            for m in (1e-6, 1e-3, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999):
                co = coefficients(spec(family, p), m)
                assert (co.m_tilde, co.arg_scale) == nome_route(p, m), (p, m)

    def test_no_jacobi_eval_inside(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("jacobi_eval called on the coefficient path")

        monkeypatch.setattr(general, "jacobi_eval", forbidden)
        _raw_coefficients.cache_clear()  # build every set here, none from the cache
        for family in ALL_FAMILIES:
            for p in range(2, 13):
                for m in (1e-6,) + M_GRID + (1 - 1e-9,):
                    _raw_coefficients(spec(family, p), m)

    @pytest.mark.skipif(np.finfo(LD).eps >= np.finfo(np.float64).eps,
                        reason="np.longdouble is float64: alpha and the sum constant "
                               "carry float64 rounding")
    def test_longdouble_set_agrees_with_decimal(self):
        # the one coefficient procedure in np.longdouble and in Decimal: each
        # longdouble value rounded to float64 is within 1 ulp of the Decimal
        # value rounded once (double rounding can cost that ulp), the limits
        # (None, inf, nan) match alike, and a refusal is the same in both
        rng = np.random.default_rng(1804)
        ms = [0.0, 1.0, 1e-8, 1 - 1e-12] + [float(m) for m in rng.uniform(size=100)]
        for p in range(2, 41):
            for m in ms:
                for family in ALL_FAMILIES:
                    cell = spec(family, p)
                    try:
                        want = coefficients(cell, m)
                    except (ValueError, ArithmeticError) as exc:
                        with pytest.raises(type(exc)) as info:
                            _raw_coefficients(cell, m)
                        assert type(info.value) is type(exc), (family, p, m)
                        assert str(info.value) == str(exc), (family, p, m)
                        continue
                    raw = _raw_coefficients(cell, m)
                    for name in ("alpha", "a_sum", "m_tilde", "arg_scale"):
                        w, g = getattr(want, name), getattr(raw, name)
                        where = (family, p, m, name, w, g)
                        if w is None or g is None:
                            assert w is g, where
                        elif math.isnan(w):
                            assert math.isnan(g), where
                        else:
                            assert float(g) == w or abs(float(g) - w) <= math.ulp(w), where

    def test_pi_from_gauss_legendre(self):
        # the 34-digit route works with pi to 51 digits; jacobi_nome at a
        # large argument takes a few hundred
        assert str(nome._pi_digits(51)) == "3.14159265358979323846264338327950288419716939937511"
        mpmath = pytest.importorskip("mpmath")
        for digits in (120, 400):
            with mpmath.workdps(digits + 20):
                want = mpmath.nstr(mpmath.pi, digits, strip_zeros=False)
            assert str(nome._pi_digits(digits)) == want, digits

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_beyond_the_nome_route_refused(self, nome_route, family):
        # 16 q^p falls below float64's smallest normal value from p = 142 at
        # m = 0.1; p = 141 is the last cell served
        mt = coefficients(spec(family, 141), 0.1).m_tilde
        assert abs(mt - nome_route(141, 0.1)[0]) <= 1e-12 * mt
        for p in (142, 400):
            with pytest.raises(ArithmeticError, match="beyond the nome route"):
                coefficients(spec(family, p), 0.1)
            with pytest.raises(ArithmeticError, match="beyond the nome route"):
                transform_rhs(spec(family, p), 0.1, 0.3)

    def test_no_numpy_warning_on_the_coefficient_grid(self):
        # the benchmark's 297-cell coeffs grid plus three small parameters;
        # odd cn at p = 9, m = 1e-4 used to print an invalid-sqrt warning
        ms = (1e-12, 1e-6, 1e-4, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for family in ALL_FAMILIES:
                for p in range(2, 13):
                    for m in ms:
                        if family is Family.CN and p % 2 == 0 and m < CN_EVEN_MIN_M:
                            with pytest.raises(AlternatingSumDegenerateError):
                                coefficients(spec(family, p), m)
                            continue
                        co = coefficients(spec(family, p), m)
                        assert 0.0 < co.m_tilde < m
                        assert np.isfinite(co.alpha) and np.isfinite(co.arg_scale)


M_RANGE = st.floats(1e-6, 0.9999)


@settings(max_examples=200, deadline=None)
@given(a=st.integers(2, 5), b=st.integers(2, 5), m=M_RANGE)
def test_composition_law(a, b, m):
    # q(m~(b, m)) = q(m)^b, so mapping by b and then by a is mapping by ab
    inner = coefficients(spec(Family.DN, b), m).m_tilde
    composed = coefficients(spec(Family.DN, a), inner).m_tilde
    direct = coefficients(spec(Family.DN, a * b), m).m_tilde
    assert abs(composed - direct) <= 1e-12 * direct


@settings(max_examples=200, deadline=None)
@given(m1=M_RANGE, m2=M_RANGE, p=st.integers(2, 12))
def test_m_tilde_increasing_in_m(m1, m2, p):
    lo, hi = sorted((m1, m2))
    assume(hi - lo > 1e-9 * hi)
    assert (coefficients(spec(Family.DN, p), lo).m_tilde
            < coefficients(spec(Family.DN, p), hi).m_tilde)


@settings(max_examples=200, deadline=None)
@given(m=M_RANGE, p=st.integers(2, 40))
def test_m_tilde_decreasing_in_p(m, p):
    assert (coefficients(spec(Family.DN, p + 1), m).m_tilde
            < coefficients(spec(Family.DN, p), m).m_tilde)


def shift_points(p, m):
    """The p shift points i 4K/p (odd p) or i 2K/p (even p), i = 0..p-1,
    with K = complete_elliptic_k(m) in longdouble: the reference for the
    step that general._p_term_rows forms."""
    step = (4 if p % 2 else 2) * complete_elliptic_k(m, dtype=LD) / LD(p)
    return step * np.arange(p, dtype=LD)


def rhs_per_term(s, m, x):
    """The extended-precision p-term side with one jacobi_eval call per
    shifted term, summed and multiplied in term order: the reference for
    the broadcast evaluation."""
    raw = _raw_coefficients(s, m)
    x = np.asarray(x, dtype=LD)
    args = raw.arg_scale * x
    shifts = shift_points(s.p, m)
    triples = [jacobi_eval(args + shifts[i], m, dtype=LD) for i in range(s.p)]
    if s.family is Family.SN and not s.odd:
        prod = np.ones_like(x)
        for t in triples:
            prod = prod * t.sn
        value = prod / (raw.a_sum * raw.alpha)
    else:
        terms = []
        for i, t in enumerate(triples):
            if s.family is Family.DN:
                terms.append(t.dn)
            elif s.family is Family.CN and s.odd:
                terms.append(t.cn)
            elif s.family is Family.CN:
                terms.append(t.dn if i % 2 == 0 else -t.dn)
            else:
                terms.append(t.sn)
        value = raw.alpha * _csum(terms)
    return value


def rhs_row(s, m, x):
    """transform_rhs before its rounding to float64: the cell as one row of
    _p_term_rows."""
    raw = _raw_coefficients(s, m)
    [combo], _ = _p_term_rows(s.p, [raw.arg_scale], [m], [x], [(s, 0)])
    return general._normalised(raw, s, combo)


def neumaier_sum(terms):
    """Neumaier's compensated sum, its error from the |acc| >= |t| branch:
    the reference _csum matches bit for bit."""
    acc = terms[0] * 0
    comp = acc
    for t in terms:
        s = acc + t
        comp = comp + np.where(np.abs(acc) >= np.abs(t), (acc - s) + t, (t - s) + acc)
        acc = s
    return acc + comp


def csum_columns(p, dtype, n=3000):
    """(p, columns) terms: random signs and magnitudes from 1e-300 to
    1e300, terms of one scale, exact cancellation and signed zeros."""
    rng = np.random.default_rng(1000 + p)
    wide = rng.choice([-1.0, 1.0], (p, n)) * 10.0 ** rng.uniform(-300, 300, (p, n))
    narrow = rng.uniform(-1.0, 1.0, (p, n)) * 10.0 ** rng.integers(-300, 300, n)
    # / 3 fills every bit of a longdouble significand
    columns = [np.asarray(wide, dtype=dtype) / dtype(3),
               np.asarray(narrow, dtype=dtype) / dtype(3)]
    # each term cancelled exactly by its negation, with one small term
    # left that only the compensation keeps: big, small, -big, ...
    big = np.asarray(rng.uniform(0.5, 1.0, n) * 10.0 ** rng.uniform(-300, 300, n), dtype=dtype)
    small = big * np.asarray(rng.uniform(1e-30, 1e-17, n), dtype=dtype)
    cancel = np.zeros((p, n), dtype=dtype)
    cancel[0] = big
    cancel[1 % p] += small
    if p > 2:
        cancel[2] = -big
    columns.append(cancel)
    # signed zeros: all -0, all +0, zeros mixed with each other and with
    # a term and its negation
    zeros = np.zeros((p, 4), dtype=dtype)
    zeros[:, 0] = -0.0
    zeros[::2, 2] = -0.0
    zeros[0, 3], zeros[-1, 3] = 1.5, -1.5
    zeros[1:-1, 3] = -0.0
    columns.append(zeros)
    return np.concatenate(columns, axis=1)


class TestCompensatedSum:
    @pytest.mark.parametrize("dtype", [np.float64, LD])
    @pytest.mark.parametrize("p", range(1, 10))
    def test_bitwise_equals_neumaier(self, p, dtype):
        terms = csum_columns(p, dtype)
        want = neumaier_sum(list(terms))
        for got in (_csum(list(terms)), _csum(terms)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_transform_rhs_bitwise_equals_per_term_loop(family):
    xs = np.linspace(-5.0, 9.0, 23)
    for p in range(2, 8):
        for m in M_GRID:
            s = spec(family, p)
            for x in (xs, 0.37):
                ref = rhs_per_term(s, m, x)
                assert np.array_equal(rhs_row(s, m, x), ref)
                assert np.array_equal(transform_rhs(s, m, x),
                                      np.asarray(ref, dtype=np.float64))


class TestVerifyIdentity:
    def test_p2_dn_matches_classic_two_term(self):
        s = spec(Family.DN, 2)
        m = 0.75
        res = verify_identity(s, m, 128)
        assert res.max_abs < 1e-11
        xs = np.linspace(0.0, res.x_span, 64)
        two = classic_dn_two_term(xs, m)
        assert np.max(np.abs(transform_rhs(s, m, xs) - two.rhs)) < 1e-12

    @pytest.mark.parametrize("family,p,m", [
        (Family.SN, 6, 0.5),
        (Family.CN, 3, 0.25),
        (Family.CN, 7, 0.1),   # worst conditioned cell of the whole matrix
        (Family.DN, 7, 0.9),
    ])
    def test_residual_spots(self, family, p, m):
        assert verify_identity(spec(family, p), m, 128).max_abs < 1e-10

    def test_statistics_shape(self):
        res = verify_identity(spec(Family.DN, 3), 0.5, 200)
        assert res.grid_points == 200
        assert res.max_abs >= res.mean_abs >= 0.0
        assert_allclose(res.x_span,
                        2 * complete_elliptic_k(coefficients(spec(Family.DN, 3), 0.5).m_tilde))

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            verify_identity(spec(Family.DN, 3), 0.5, 8)


def identity_per_cell(s, m, grid_points):
    """(max, mean) of verify_identity's residual from scalar-m calls, one
    cell at a time: the reference for the batch over m and families."""
    raw = _raw_coefficients(s, m)
    width = 2.0 if s.family is Family.DN else 4.0
    xs = np.linspace(0.0, width * float(raw.big_k_tilde), grid_points)
    rhs = rhs_row(s, m, xs)
    single = jacobi_eval(xs.astype(LD), float(raw.m_tilde), dtype=LD)
    diff = np.abs(np.asarray(getattr(single, s.family.value) - rhs, dtype=np.float64))
    return float(diff.max()), float(diff.mean())


def sum_route_per_cell(s, m):
    """The paper's sums at one m with a scalar-m jacobi_eval call, term by
    term: the reference for the batch over m."""
    one, two, md = LD(1), LD(2), LD(m)
    sn, cn, dn = jacobi_eval(shift_points(s.p, m), m, dtype=LD)
    alt = [-v if i % 2 else v for i, v in enumerate(dn)]
    if s.family is Family.DN:
        alpha = one / _csum(list(dn))
        m_tilde = (md - two) * alpha ** 2 + two * alpha ** 3 * _csum(list(dn ** 3))
    elif s.family is Family.CN and s.odd:
        alpha = one / _csum(list(cn))
        m_tilde = md / ((one - two * md) * alpha ** 2
                        + two * md * alpha ** 3 * _csum(list(cn ** 3)))
    elif s.family is Family.CN:
        alpha = one / _csum(alt)
        m_tilde = one / ((md - two) * alpha ** 2
                         + two * alpha ** 3 * _csum([v ** 3 for v in alt]))
    elif s.odd:
        a1, a3 = one / _csum(list(dn)), one / _csum(list(cn))
        m_tilde = md * a1 ** 2 / a3 ** 2
    else:
        prod = sn[1]
        for v in sn[2:]:
            prod = prod * v
        m_tilde = md ** s.p * (one / _csum(list(dn))) ** 4 * prod ** 4
    return float(m_tilde)


def assert_terms_at_shift_points(terms, p, ms):
    """The identity batch's x = 0 column holds each m's p terms at its
    shift points, bit for bit as a scalar-m jacobi_eval call."""
    for j, m in enumerate(ms):
        for got, want in zip(terms, jacobi_eval(shift_points(p, m), m, dtype=LD)):
            assert np.array_equal(got[:, j], want)


class TestBatches:
    """verify's family scope evaluates each p for all of M_GRID and the
    three families at once; every value is the one-cell value exactly."""

    @pytest.mark.parametrize("p", range(2, 8))
    def test_identity_batch_equals_per_cell(self, p):
        residuals, m_tildes, terms = general._identity_residuals(p, M_GRID, 128,
                                                                 ALL_FAMILIES)
        for j, m in enumerate(M_GRID):
            for family in ALL_FAMILIES:
                s = spec(family, p)
                got = residuals[family][j]
                assert got == verify_identity(s, m, 128)
                assert (got.max_abs, got.mean_abs) == identity_per_cell(s, m, 128)
                assert m_tildes[j] == coefficients(s, m).m_tilde
        assert_terms_at_shift_points(terms, p, M_GRID)

    @pytest.mark.parametrize("p", range(2, 8))
    def test_sum_route_batch_equals_per_cell(self, p):
        # the sums read the identity batch's right-hand sides at x = 0
        _, _, terms = general._identity_residuals(p, M_GRID, 128, ALL_FAMILIES)
        routes = general._sum_routes(p, M_GRID, terms, ALL_FAMILIES)
        for j, m in enumerate(M_GRID):
            for family in ALL_FAMILIES:
                s = spec(family, p)
                assert routes[family][j] == sum_route_m_tilde(s, m)
                assert routes[family][j] == sum_route_per_cell(s, m)

    def test_sum_route_refuses_sums_that_cancel(self):
        # the alternating dn sum of even cn is exactly 0 at p = 14, m = 1e-8:
        # the one-cell route names the cell instead of returning nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError,
                               match="cn p = 14 at m = 1e-08: the shifted sums cancel"):
                sum_route_m_tilde(spec(Family.CN, 14), 1e-8)

    def test_one_family_at_the_boundary_m(self):
        # m = 0 has its own coefficients; a batch of one family holds only
        # that family's grid
        for family in (Family.DN, Family.SN):
            s = spec(family, 4)
            residuals, _, terms = general._identity_residuals(4, [0.0, 0.5], 64, (family,))
            assert residuals[family] == [verify_identity(s, 0.0, 64),
                                         verify_identity(s, 0.5, 64)]
            assert_terms_at_shift_points(terms, 4, (0.0, 0.5))
            assert (residuals[family][0].max_abs,
                    residuals[family][0].mean_abs) == identity_per_cell(s, 0.0, 64)

    def test_family_records_equal_the_public_functions(self):
        from landen.cli import SUM_ROUTE_RTOL, _family_records
        records = _family_records(128, 1e-9)
        assert len(records) == 7 * 6 * len(M_GRID)
        for r in records:
            p, m = r["p"], r["m"]
            sums = [sum_route_m_tilde(spec(f, p), m) for f in ALL_FAMILIES]
            kind, _, family = r["check"].rpartition("-")
            if kind == "identity":
                assert r["max_abs"] == verify_identity(spec(Family(family), p), m).max_abs
            elif kind == "sum-route":
                value = sum_route_m_tilde(spec(Family(family), p), m)
                nome = coefficients(spec(Family(family), p), m).m_tilde
                rel = abs(value - nome) / nome
                assert r.get("max_abs", r.get("rel_err")) == rel
                assert ("pass" in r) == (rel <= SUM_ROUTE_RTOL)
            else:
                assert r["check"] == "m-tilde-agreement"
                assert r["max_abs"] == max(abs(a - b) for a in sums for b in sums)

    def test_family_scope_kernel_call_budget(self, tmp_path, monkeypatch):
        # two jacobi_eval calls per p: right-hand sides, whose x = 0 column
        # the sums read, and left-hand sides (324 kernel calls before
        # batching)
        from landen import elliptic
        from landen.cli import main
        calls = []
        kernel = elliptic._landen_kernel
        monkeypatch.setattr(elliptic, "_landen_kernel",
                            lambda x, *chain: calls.append(x.size) or kernel(x, *chain))
        assert main(["verify", "--scope", "family", "--out", str(tmp_path / "v.json")]) == 0
        assert len(calls) <= 12


class TestClosedForms:
    @pytest.mark.parametrize("m,expected", [(0.9, 0.04311), (0.25, 0.9288e-4)])
    def test_p3_reference_values(self, m, expected):
        assert_allclose(m_tilde_closed_p3(m), expected, rtol=5e-4)

    def test_p3_matches_all_families(self):
        for m in (0.25, 0.5, 0.9):
            closed = m_tilde_closed_p3(m)
            for family in ALL_FAMILIES:
                assert abs(closed - coefficients(spec(family, 3), m).m_tilde) < 1e-12

    @pytest.mark.parametrize("m", (0.1, 0.25, 0.5, 0.75, 0.9))
    def test_p3_internals(self, m):
        big_k = complete_elliptic_k(m)
        q = jacobi_eval(2 * big_k / 3, m).dn
        assert abs(q ** 4 + 2 * q ** 3 - 2 * (1 - m) * q - (1 - m)) < 1e-12
        assert abs(jacobi_eval(4 * big_k / 3, m).cn + q / (1 + q)) < 1e-12

    @pytest.mark.parametrize("m,expected", [(0.75, 0.8666e-3), (0.9999, 0.4481)])
    def test_p4_reference_values(self, m, expected):
        assert_allclose(m_tilde_closed_p4(m), expected, rtol=5e-4)

    def test_p4_matches_all_families(self):
        for m in (0.25, 0.5, 0.9):
            closed = m_tilde_closed_p4(m)
            for family in ALL_FAMILIES:
                assert abs(closed - coefficients(spec(family, 4), m).m_tilde) < 1e-12

    def test_domain(self):
        for fn in (m_tilde_closed_p3, m_tilde_closed_p4):
            with pytest.raises(ValueError):
                fn(0.0)
            with pytest.raises(ValueError):
                fn(1.0)

    def test_composition_of_orders(self):
        # a 6-term map is a 2-term map applied after a 3-term map
        for m in (0.5, 0.9):
            m3 = coefficients(spec(Family.DN, 3), m).m_tilde
            composed = classic_m_tilde(m3)
            direct = coefficients(spec(Family.DN, 6), m).m_tilde
            assert abs(composed - direct) < 1e-12


class TestA5Product:
    def test_circular_values_exact(self):
        assert a5_product(2, 0.0) == 1.0
        assert a5_product(4, 0.0) == 0.5
        assert abs(a5_product(6, 0.0) - 6 / 32) < 1e-15

    def test_interior_product_value(self):
        big_k = complete_elliptic_k(0.5)
        direct = np.prod([jacobi_eval(2 * i * big_k / 6, 0.5).sn for i in range(1, 6)])
        value = a5_product(6, 0.5)
        assert 0.0 < value < 1.0
        assert_allclose(value, direct, rtol=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            a5_product(3, 0.5)
        with pytest.raises(ValueError):
            a5_product(4, 1.0)
        # p is checked as LandenSpec checks it
        with pytest.raises(ValueError, match="term count p must be an integer"):
            a5_product(4.0, 0.5)


@pytest.mark.parametrize("p", (3, 4))
@pytest.mark.parametrize("m", (0.25, 0.75))
def test_cross_family_agreement_smoke(p, m):
    values = [coefficients(spec(f, p), m).m_tilde for f in ALL_FAMILIES]
    assert max(values) - min(values) < 1e-12


def test_identities_hold_at_arbitrary_arguments():
    # the formulas are periodic in x; spot-check well outside [0, period]
    # and at negative arguments
    xs = np.array([-13.7, -7.3, -0.9, 0.61, 3.7, 9.42])
    for family in ALL_FAMILIES:
        for p, m in ((3, 0.5), (4, 0.75), (6, 0.9), (7, 0.1)):
            mt = coefficients(spec(family, p), m).m_tilde
            lhs = getattr(jacobi_eval(xs, mt), family.value)
            rhs = transform_rhs(spec(family, p), m, xs)
            assert np.max(np.abs(lhs - rhs)) < 1e-10
