"""Tests for the superposed solutions and the first-integral route."""

import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from landen import general, sine_gordon
from landen.elliptic import _PI, complete_elliptic_k, jacobi_eval
from landen.general import (AlternatingSumDegenerateError, Family, LandenSpec, _csum,
                            _raw_coefficients, coefficients)
from landen.sine_gordon import (Branch, FirstIntegralValue, NoClosedFormError,
                                NotMeasurableError, SignConvention, SolutionFamily, SolutionKind,
                                _pieces, _psi_rows, _reconstruct_phi,
                                classify, closed_form_c,
                                default_samples, first_integral, first_integral_samples,
                                first_integrals,
                                ode_residual, psi_derivative, psi_value,
                                solution_kind, solution_period)

LD = np.longdouble
LD_DTYPE = np.dtype(LD)

# one moderate (p, m) cell per kind; transformed parameters stay large
# enough that the removable |psi| = 1 singularity leaves plenty of samples
CELLS = {
    SolutionKind.DN_ODD: (3, 0.75),
    SolutionKind.DN_EVEN: (4, 0.9),
    SolutionKind.CN_ODD: (3, 0.9),
    SolutionKind.CN_EVEN_ALT: (4, 0.9),
    SolutionKind.SN_ODD: (3, 0.5),
    SolutionKind.SN_EVEN_PROD: (4, 0.5),
}


def fam_for(kind, p=None, m=None):
    p0, m0 = CELLS[kind]
    return SolutionFamily(kind, p if p is not None else p0,
                          m if m is not None else m0)


class TestPsi:
    def test_dn_odd_normalized_at_origin(self):
        assert abs(psi_value(fam_for(SolutionKind.DN_ODD), 0.0) - 1.0) < 4e-15

    def test_sn_odd_cancels_at_origin(self):
        # individual shifted terms are nonzero; their sum is not
        assert abs(psi_value(fam_for(SolutionKind.SN_ODD), 0.0)) < 1e-12

    def test_sn_even_product_zero_at_origin(self):
        assert psi_value(fam_for(SolutionKind.SN_EVEN_PROD), 0.0) == 0.0

    def test_array_input(self):
        fam = fam_for(SolutionKind.DN_EVEN)
        xs = np.linspace(0.0, 2.0, 7)
        vals = psi_value(fam, xs)
        assert vals.shape == xs.shape
        assert vals[0] == psi_value(fam, 0.0)

    @pytest.mark.parametrize("kind", list(CELLS))
    def test_derivative_against_finite_difference(self, kind):
        # Richardson-extrapolated central difference as a cross-check on
        # the analytic derivative
        fam = fam_for(kind)
        h = 1e-5
        for x in (0.31, 0.93):
            d_h = (psi_value(fam, x + h) - psi_value(fam, x - h)) / (2 * h)
            d_h2 = (psi_value(fam, x + h / 2) - psi_value(fam, x - h / 2)) / h
            fd = (4 * d_h2 - d_h) / 3
            assert abs(psi_derivative(fam, x) - fd) < 1e-8

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            SolutionFamily(SolutionKind.DN_ODD, 4, 0.5)
        with pytest.raises(ValueError):
            SolutionFamily(SolutionKind.SN_EVEN_PROD, 5, 0.5)
        with pytest.raises(ValueError):
            SolutionFamily(SolutionKind.DN_EVEN, 4, 1.5)

    def test_term_count_checked_as_landen_spec(self):
        # p is checked when the solution is built, not at first use
        for kind, p in ((SolutionKind.DN_ODD, 3.0), (SolutionKind.DN_EVEN, 0)):
            with pytest.raises(ValueError, match="term count p must be an integer >= 2"):
                SolutionFamily(kind, p, 0.5)

    def test_kind_given_by_name(self):
        # the kind is coerced as LandenSpec coerces the family
        assert SolutionFamily("dn-odd", 3, 0.5) == SolutionFamily(SolutionKind.DN_ODD, 3, 0.5)
        assert SolutionFamily("sn-even-prod", 4, 0.5).kind is SolutionKind.SN_EVEN_PROD
        with pytest.raises(ValueError, match="'dn-bogus' is not a valid SolutionKind"):
            SolutionFamily("dn-bogus", 3, 0.5)

    def test_solution_is_a_value_built_once(self, monkeypatch):
        # a plain value: two equal solutions built apart share one
        # coefficient build (general._raw_coefficients caches per cell), and
        # there is no __dict__ to hold anything else
        built = []
        coefficient_set = general._coefficient_set

        def counted(spec, m, *args):
            built.append((spec, m))
            return coefficient_set(spec, m, *args)

        monkeypatch.setattr(general, "_coefficient_set", counted)
        _raw_coefficients.cache_clear()
        fam = SolutionFamily(SolutionKind.DN_ODD, 3, 1)
        assert type(fam.m) is float and fam.spec == LandenSpec(Family.DN, 3)
        same = SolutionFamily(SolutionKind.DN_ODD, 3, 1.0)
        assert same == fam and hash(same) == hash(fam)
        assert fam.m_tilde == same.m_tilde == 1.0
        assert solution_period(same) == math.inf and closed_form_c(same) == 2.0
        assert built == [(LandenSpec(Family.DN, 3), 1.0)]
        with pytest.raises(AttributeError):
            fam.extra = 1
        assert repr(fam) == "SolutionFamily(kind=<SolutionKind.DN_ODD: 'dn-odd'>, p=3, m=1.0)"
        with pytest.raises(AttributeError):
            fam.m = 0.5
        assert fam._replace(m=0.5) == SolutionFamily(SolutionKind.DN_ODD, 3, 0.5)
        with pytest.raises(ValueError, match="requires odd p"):
            fam._replace(p=4)

    def test_first_integral_value_defaults_to_no_spread(self):
        bare = FirstIntegralValue(2.0, SignConvention.STATIC)
        assert bare.spread == 0.0 and bare == FirstIntegralValue(2.0, SignConvention.STATIC, 0.0)
        assert bare._replace(spread=1e-3).spread == 1e-3 and bare.spread == 0.0

    def test_degenerate_parameter_propagates(self):
        with pytest.raises(AlternatingSumDegenerateError):
            psi_value(SolutionFamily(SolutionKind.CN_EVEN_ALT, 4, 1e-12), 0.3)
        with pytest.raises(ValueError):
            psi_value(SolutionFamily(SolutionKind.CN_ODD, 3, 0.0), 0.3)

    def test_sn_kinds_degenerate_cleanly_at_circular_boundary(self):
        # prefactor sqrt(m) a1 (resp. m^(p/2) a2 A5) vanishes: psi = 0 is
        # the trivial solution, C = -2 exactly, implied parameter 0
        for kind, p in ((SolutionKind.SN_ODD, 5), (SolutionKind.SN_EVEN_PROD, 4)):
            fam = SolutionFamily(kind, p, 0.0)
            assert psi_value(fam, 0.7) == 0.0
            value = first_integral(fam, default_samples(fam))
            assert value.c == -2.0
            assert classify(value).m_tilde == 0.0
            assert ode_residual(fam, 256).max_abs == 0.0


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("p", range(2, 8))
def test_solution_kind_round_trips(family, p):
    kind = solution_kind(family, p)
    assert solution_kind(family.value, p) is kind
    fam = SolutionFamily(kind, p, 0.5)
    assert fam.family is family
    assert fam.spec == LandenSpec(family, p)
    expected = SignConvention.TRAVELING if family is Family.SN else SignConvention.STATIC
    assert fam.sign_convention is expected


@pytest.mark.parametrize("p", [1, 3.0, -1])
def test_solution_kind_checks_p(p):
    with pytest.raises(ValueError, match="term count p must be an integer >= 2"):
        solution_kind("dn", p)


def test_solution_kind_names_each_kind_once():
    kinds = [solution_kind(f, p) for f in Family for p in (2, 3)]
    assert sorted(k.value for k in kinds) == sorted(k.value for k in SolutionKind)


def psi_per_term(fam, x):
    """Extended-precision psi and d(psi)/dx with one jacobi_eval call per
    shifted term, summed and multiplied in term order: the reference for
    the broadcast evaluation."""
    prefactor, inner = _pieces(fam)
    step = (4 if fam.p % 2 else 2) * complete_elliptic_k(fam.m, dtype=LD) / LD(fam.p)
    shifts = step * np.arange(fam.p, dtype=LD)
    x = np.asarray(x, dtype=LD)
    args = inner * x
    triples = [jacobi_eval(args + shifts[i], fam.m, dtype=LD)
               for i in range(fam.p)]
    if fam.kind is SolutionKind.SN_EVEN_PROD:
        prod = np.ones_like(x)
        for t in triples:
            prod = prod * t.sn
        dterms = []
        for j in range(fam.p):
            term = triples[j].cn * triples[j].dn
            for k in range(fam.p):
                if k != j:
                    term = term * triples[k].sn
            dterms.append(term)
        psi, dpsi = prefactor * prod, prefactor * inner * _csum(dterms)
    else:
        md = LD(fam.m)
        alternating = fam.kind is SolutionKind.CN_EVEN_ALT
        term = {SolutionKind.CN_ODD: "cn", SolutionKind.SN_ODD: "sn"}.get(fam.kind, "dn")
        vals, derivs = [], []
        for i, t in enumerate(triples):
            sign = LD(-1 if (alternating and i % 2 == 1) else 1)
            if term == "dn":
                vals.append(sign * t.dn)
                derivs.append(sign * (-md) * t.sn * t.cn)
            elif term == "cn":
                vals.append(sign * t.cn)
                derivs.append(sign * (-t.sn) * t.dn)
            else:
                vals.append(sign * t.sn)
                derivs.append(sign * t.cn * t.dn)
        psi = prefactor * _csum(vals)
        dpsi = prefactor * inner * _csum(derivs)
    return psi, dpsi


def _same_bits(a, b):
    """Equal values with equal sign bits: array_equal alone takes -0 for +0."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("kind", list(SolutionKind))
def test_psi_bitwise_equals_per_term_loop(kind):
    odd = kind in (SolutionKind.DN_ODD, SolutionKind.CN_ODD, SolutionKind.SN_ODD)
    # the circular limit m = 0 where the kind admits it: odd cn divides by
    # sqrt(m), and even cn's alternating sum degenerates below CN_EVEN_MIN_M
    circular = () if kind in (SolutionKind.CN_ODD, SolutionKind.CN_EVEN_ALT) else (0.0,)
    for p in (3, 5, 7) if odd else (2, 4, 6):
        for m in circular + (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            fam = SolutionFamily(kind, p, m)
            for x in (default_samples(fam), 0.37):
                psi, dpsi = psi_per_term(fam, x)
                [(new_psi, new_dpsi)] = _psi_rows([fam], [x])
                assert _same_bits(new_psi, psi) and _same_bits(new_dpsi, dpsi)
                f64 = np.float64
                assert _same_bits(psi_value(fam, x), np.asarray(psi, dtype=f64))
                assert _same_bits(psi_derivative(fam, x), np.asarray(dpsi, dtype=f64))


SG_M_GRID = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


@pytest.mark.parametrize("kind", list(SolutionKind))
def test_psi_rows_equal_per_term_loop(kind):
    # one evaluation for all m of a (kind, p), the separatrix m = 1 included
    p = 5 if kind in (SolutionKind.DN_ODD, SolutionKind.CN_ODD, SolutionKind.SN_ODD) else 4
    fams = [SolutionFamily(kind, p, m) for m in SG_M_GRID + (1.0,)]
    xs = [default_samples(fam) for fam in fams]
    rows = _psi_rows(fams, xs)
    for fam, x, (psi, dpsi) in zip(fams, xs, rows):
        want = psi_per_term(fam, x) if fam.m < 1.0 else _psi_rows([fam], [x])[0]
        assert np.array_equal(psi, want[0]) and np.array_equal(dpsi, want[1])
    # and in one batch with the other two kinds of p, as verify evaluates
    # them: every row bitwise the per-kind row
    mixed = [SolutionFamily(solution_kind(family, p), p, fam.m)
             for fam in fams for family in Family]
    mixed_rows = _psi_rows(mixed, [x for x in xs for _ in Family])
    mine = [row for fam, row in zip(mixed, mixed_rows) if fam.kind is kind]
    assert len(mine) == len(rows)
    for (psi, dpsi), (want_psi, want_dpsi) in zip(mine, rows):
        assert np.array_equal(psi, want_psi) and np.array_equal(dpsi, want_dpsi)


@pytest.mark.parametrize("kind", list(SolutionKind))
def test_separatrix_rows_are_tanh_and_sech(kind):
    # m = 1: psi = tanh x, psi' = sech^2 x for the sn kinds and psi = sech x,
    # psi' = -sech x tanh x for the others, bit for bit, signed zeros
    # included, and with no overflow warning where cosh overflows
    p = 3 if kind in (SolutionKind.DN_ODD, SolutionKind.CN_ODD, SolutionKind.SN_ODD) else 4
    fam = SolutionFamily(kind, p, 1.0)
    x = np.array([0.0, -0.0, 0.3, -2.5, 700.0, 711.0, -800.0, 12000.0, 1e300], dtype=LD)
    tanh = np.tanh(x)
    with np.errstate(over="ignore"):
        sech = 1 / np.cosh(x)
    want = ((tanh, sech * sech) if fam.family is Family.SN else (sech, -sech * tanh))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _psi_rows([fam], [x])[0]
    for g, w in zip(got, want):
        assert g.dtype == LD_DTYPE
        assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))


class TestBatches:
    """verify's sine-Gordon scope evaluates each p for all of its kinds and
    m at once; every value is the one-cell value exactly."""

    @pytest.mark.parametrize("family", list(Family))
    def test_first_integrals_equal_per_cell(self, family):
        for p in range(2, 8):
            fams = [SolutionFamily(solution_kind(family, p), p, m) for m in SG_M_GRID]
            values = first_integrals(fams, [default_samples(fam) for fam in fams])
            for fam, value in zip(fams, values):
                samples = first_integral_samples(fam, default_samples(fam))
                # every sample counts, however close |psi| comes to 1
                assert samples.size == default_samples(fam).size == 33
                assert value == first_integral(fam, default_samples(fam))
                assert value.c == float(samples.mean())
                assert value.spread == float(samples.max() - samples.min())

    def test_sine_gordon_records_equal_the_public_functions(self):
        from landen.cli import _sine_gordon_records
        records = _sine_gordon_records(1e-9)
        for r in records:
            p, m = r["p"], r["m"]
            fam = next(SolutionFamily(solution_kind(f, p), p, m) for f in Family
                       if r["check"].endswith("-" + solution_kind(f, p).value))
            kind = r["check"][:-len(fam.kind.value) - 1]
            value = first_integral(fam, default_samples(fam))
            scale = max(1.0, abs(value.c))
            if kind == "c-constancy":
                assert r["max_abs"] == value.spread / scale
            elif kind == "c-closed-form":
                assert r["max_abs"] == abs(value.c - closed_form_c(fam)) / scale
            elif kind == "implied-m-tilde":
                assert r["max_abs"] == abs(classify(value).m_tilde - fam.m_tilde)
            else:
                assert kind == "c-range"
                c = value.c
                assert r["max_abs"] == (max(0.0, 2.0 - c) if fam.family is Family.CN
                                        else max(0.0, -2.0 - c, c - 2.0))

    def test_sine_gordon_scope_kernel_call_budget(self, tmp_path, monkeypatch):
        # one psi evaluation per p over its three kinds and six m: 6 kernel
        # calls, where one per solution would make 108
        from landen import elliptic
        from landen.cli import main
        calls = []
        kernel = elliptic._landen_kernel
        monkeypatch.setattr(elliptic, "_landen_kernel",
                            lambda x, *chain: calls.append(x.size) or kernel(x, *chain))
        target = tmp_path / "v.json"
        assert main(["verify", "--scope", "sine-gordon", "--out", str(target)]) == 0
        assert len(calls) <= 6


class TestFirstIntegral:
    @pytest.mark.parametrize("kind", list(CELLS))
    def test_constancy(self, kind):
        fam = fam_for(kind)
        xs = default_samples(fam, 65)
        values = first_integral_samples(fam, xs)
        assert values.size > 30
        value = first_integral(fam, xs)
        assert value.c == float(values.mean())
        assert value.spread == float(values.max() - values.min()) <= 1e-8

    @pytest.mark.parametrize("kind", [SolutionKind.DN_ODD, SolutionKind.CN_ODD,
                                      SolutionKind.SN_ODD, SolutionKind.SN_EVEN_PROD])
    def test_matches_closed_form(self, kind):
        fam = fam_for(kind)
        measured = first_integral(fam, default_samples(fam)).c
        assert abs(measured - closed_form_c(fam)) < 1e-8

    def test_closed_form_unavailable(self):
        for kind in (SolutionKind.DN_EVEN, SolutionKind.CN_EVEN_ALT):
            with pytest.raises(NoClosedFormError):
                closed_form_c(fam_for(kind))

    def test_sign_conventions(self):
        fam = fam_for(SolutionKind.SN_ODD)
        assert first_integral(fam, default_samples(fam)).sign_convention \
            is SignConvention.TRAVELING
        fam = fam_for(SolutionKind.DN_ODD)
        assert first_integral(fam, default_samples(fam)).sign_convention \
            is SignConvention.STATIC

    def test_hyperbolic_limit_c_is_two(self):
        fam = SolutionFamily(SolutionKind.DN_ODD, 3, 1.0)
        assert first_integral(fam, default_samples(fam)).c == 2.0
        fam = SolutionFamily(SolutionKind.SN_ODD, 3, 1.0)
        assert first_integral(fam, default_samples(fam)).c == 2.0

    def test_circular_limit_c_approaches_minus_two(self):
        cs = []
        for m in (0.1, 0.5, 0.9):
            fam = SolutionFamily(SolutionKind.DN_ODD, 3, m)
            cs.append(first_integral(fam, default_samples(fam)).c)
        assert -2.0 < cs[0] < cs[1] < cs[2] < 2.0
        assert cs[0] + 2.0 < 1e-4

    def test_sn_even_formula_value(self):
        fam = fam_for(SolutionKind.SN_EVEN_PROD)
        co = coefficients(fam.spec, fam.m)
        expected = -2.0 + 4.0 * fam.m ** fam.p * co.alpha ** 4 * co.a_sum ** 4
        measured = first_integral(fam, default_samples(fam)).c
        assert_allclose(measured, expected, atol=1e-10)
        assert_allclose(closed_form_c(fam), expected, rtol=1e-14)

    @pytest.mark.parametrize("p,kinds,ms", [
        (3, (SolutionKind.DN_ODD, SolutionKind.CN_ODD, SolutionKind.SN_ODD),
         (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)),
        (2, (SolutionKind.DN_EVEN, SolutionKind.CN_EVEN_ALT,
             SolutionKind.SN_EVEN_PROD),
         (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)),
        (5, (SolutionKind.DN_ODD, SolutionKind.CN_ODD, SolutionKind.SN_ODD),
         (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)),
        (4, (SolutionKind.DN_EVEN, SolutionKind.CN_EVEN_ALT,
             SolutionKind.SN_EVEN_PROD),
         (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)),
    ])
    def test_c_ranges(self, p, kinds, ms):
        for m in ms:
            for kind in kinds:
                fam = SolutionFamily(kind, p, m)
                c = first_integral(fam, default_samples(fam)).c
                if kind in (SolutionKind.CN_ODD, SolutionKind.CN_EVEN_ALT):
                    assert c >= 2.0
                else:
                    assert -2.0 <= c <= 2.0

    @pytest.mark.parametrize("kind,p", [(SolutionKind.CN_EVEN_ALT, 6),
                                        (SolutionKind.CN_ODD, 7)])
    def test_spread_is_reported_not_judged(self, kind, p):
        # rounding noise at tiny m~ puts these spreads past max(1e-8, 1e-11 |C|),
        # the rule first_integral once raised on, but inside verify's relative
        # gate at its default --tol 1e-9
        fam = SolutionFamily(kind, p, 0.1)
        value = first_integral(fam, default_samples(fam))
        assert value.spread > max(1e-8, 1e-11 * abs(value.c))
        assert value.spread / max(1.0, abs(value.c)) <= 1e-9

    def test_needs_admissible_samples(self):
        # m~ = 2.4e-52: psi = dn(x, m~) rounds to 1 at every sample, where
        # the C formula's 1 - psi^2 vanishes
        fam = SolutionFamily(SolutionKind.DN_EVEN, 4, 1e-12)
        assert first_integral_samples(fam, default_samples(fam)).size == 0
        with pytest.raises(NotMeasurableError, match=re.escape(
                "dn-even p = 4 at m = 1e-12: |psi| rounds to 1 or above at 33 of 33 "
                "samples; the first integral needs two with |psi| < 1")):
            first_integral(fam, default_samples(fam))

    def test_longdouble_samples_are_taken_as_given(self):
        # each C is the one at the x passed in: a longdouble x is not
        # rounded to float64 on its way to psi
        fam = SolutionFamily(SolutionKind.CN_ODD, 5, 0.75)
        xs = (np.arange(33) + LD("0.37")) * LD(solution_period(fam)) / 33
        assert np.any(xs != xs.astype(np.float64))
        psi, dpsi = _psi_rows([fam], [xs])[0]
        want = sine_gordon._c_samples(fam, psi, dpsi)
        got = first_integral_samples(fam, xs)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_samples_near_one_count(self):
        # m~ = 3.7e-19: psi rounds to 1 at 13 of 33 samples; the other 20
        # give C = -2 + 4 m~, with no warning from the 1 - psi^2 near 0
        fam = SolutionFamily(SolutionKind.DN_ODD, 9, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = first_integral_samples(fam, default_samples(fam))
            value = first_integral(fam, default_samples(fam))
        assert samples.size == 20 and np.all(np.isfinite(samples))
        assert value.c == -2.0 and value.spread == 0.0
        assert classify(value).branch is Branch.DN_BRANCH


def paper_c(fam):
    """C as the paper prints it for the four kinds it gives a formula for,
    from the coefficients in working precision."""
    raw, md = fam._raw, LD(fam.m)
    if fam.kind is SolutionKind.DN_ODD:
        c = -2 + 4 * (md - 2) * raw.alpha ** 2 + 8 * raw.alpha ** 3 * raw.a_sum
    elif fam.kind is SolutionKind.CN_ODD:
        c = -2 + 4 * (1 - 2 * md) * raw.alpha ** 2 / md + 8 * raw.alpha ** 3 * raw.a_sum
    elif fam.kind is SolutionKind.SN_ODD:
        c = -2 + 4 * md * raw.arg_scale ** 2 / raw.alpha ** 2
    else:
        c = -2 + 4 * md ** fam.p * raw.alpha ** 4 * raw.a_sum ** 4
    return float(c)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("p", range(2, 13))
def test_closed_form_c_equals_the_printed_formulas(family, p):
    # closed_form_c reads C from m~ alone; with the sum constants solved from
    # each family's m~ formula the printed combinations give the same float
    for m in (0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999999, 1.0):
        if m == 0.0 and solution_kind(family, p) is SolutionKind.CN_ODD:
            # odd cn has no solution at m = 0 to ask for its C
            with pytest.raises(ValueError, match=re.escape("must lie in (0, 1], got 0.0")):
                SolutionFamily(SolutionKind.CN_ODD, p, m)
            continue
        fam = SolutionFamily(solution_kind(family, p), p, m)
        if fam.kind in (SolutionKind.DN_EVEN, SolutionKind.CN_EVEN_ALT):
            with pytest.raises(NoClosedFormError):
                closed_form_c(fam)
        elif m == 0.0 and fam.kind is SolutionKind.SN_ODD:
            # psi = 0: the measured C is -2 exactly, as is the closed form
            value = first_integral(fam, default_samples(fam))
            assert closed_form_c(fam) == -2.0 == value.c
        else:
            assert closed_form_c(fam) == paper_c(fam)


class TestClassify:
    def test_branches(self):
        assert classify(FirstIntegralValue(2.0, SignConvention.STATIC)).branch \
            is Branch.SECH_KINK
        res = classify(FirstIntegralValue(-2.0 + 4 * 0.04311, SignConvention.STATIC))
        assert res.branch is Branch.DN_BRANCH
        assert_allclose(res.m_tilde, 0.04311, rtol=1e-12)
        res = classify(FirstIntegralValue(100.0, SignConvention.TRAVELING))
        assert res.branch is Branch.CN_BRANCH
        assert_allclose(res.m_tilde, 4.0 / 102.0, rtol=1e-12)
        res = classify(FirstIntegralValue(-3.0, SignConvention.STATIC))
        assert res.branch is Branch.NO_REAL_SOLUTION and res.m_tilde is None

    def test_boundary_band(self):
        assert classify(2.0 + 5e-10).branch is Branch.SECH_KINK
        assert classify(2.0 + 5e-10).m_tilde == 1.0
        low = classify(-2.0 - 5e-10)
        assert low.branch is Branch.DN_BRANCH and low.m_tilde == 0.0

    def test_nan_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            classify(math.nan)
        with pytest.raises(ValueError, match="NaN"):
            classify(FirstIntegralValue(math.nan, SignConvention.STATIC))

    @pytest.mark.parametrize("kind", list(CELLS))
    def test_route_recovers_transformed_parameter(self, kind):
        fam = fam_for(kind)
        implied = classify(first_integral(fam, default_samples(fam))).m_tilde
        target = coefficients(fam.spec, fam.m).m_tilde
        assert abs(implied - target) < 1e-8


class TestOdeResidual:
    @pytest.mark.parametrize("kind", list(CELLS))
    def test_residual_at_256(self, kind):
        res = ode_residual(fam_for(kind), 256)
        assert res.max_abs < 1e-6
        assert res.step > 0

    def test_spec_cells(self):
        assert ode_residual(SolutionFamily(SolutionKind.DN_ODD, 3, 0.5), 256).max_abs < 1e-6
        assert ode_residual(SolutionFamily(SolutionKind.CN_ODD, 5, 0.75), 256).max_abs < 1e-6

    def test_degenerate_circular_limit(self):
        # psi is identically 1 and phi sits at the constant branch
        res = ode_residual(SolutionFamily(SolutionKind.DN_ODD, 3, 0.0), 256)
        assert res.max_abs < 1e-12

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            ode_residual(fam_for(SolutionKind.DN_ODD), 32)

    def test_separatrix_rejected(self):
        with pytest.raises(ValueError):
            ode_residual(SolutionFamily(SolutionKind.DN_ODD, 3, 1.0), 256)

    def test_refinement_improves_residual(self):
        fam = fam_for(SolutionKind.CN_ODD)
        coarse = ode_residual(fam, 128).max_abs
        fine = ode_residual(fam, 512).max_abs
        assert fine < coarse

    @pytest.mark.parametrize("kind,p,m", [
        (SolutionKind.DN_ODD, 3, 0.1), (SolutionKind.DN_ODD, 7, 0.99),
        (SolutionKind.DN_EVEN, 6, 0.99), (SolutionKind.CN_ODD, 7, 0.9),
        (SolutionKind.CN_ODD, 3, 0.99), (SolutionKind.CN_EVEN_ALT, 2, 0.99),
        (SolutionKind.SN_ODD, 7, 0.9), (SolutionKind.SN_EVEN_PROD, 2, 0.5),
        (SolutionKind.SN_EVEN_PROD, 6, 0.25),
    ])
    def test_extended_cells(self, kind, p, m):
        assert ode_residual(SolutionFamily(kind, p, m), 256).max_abs < 1e-6

    def test_noise_floor_at_tiny_transformed_parameter(self):
        # cn kinds at very small m~ have a tiny grid step; past the
        # truncation/noise optimum the residual grows like 1/h^2
        fam = SolutionFamily(SolutionKind.CN_EVEN_ALT, 6, 0.75)
        assert ode_residual(fam, 128).max_abs < 5e-6
        assert ode_residual(fam, 1024).max_abs > ode_residual(fam, 192).max_abs


def phi_per_sample(psi, dpsi):
    """phi of a cn kind, unwrapped one sample at a time: the branch flips at
    every extremum of psi, and each sample takes the whole turns that bring
    it nearest the value just before it."""
    flips = ((dpsi[:-1] > 0) & (dpsi[1:] < 0)) | ((dpsi[:-1] < 0) & (dpsi[1:] > 0))
    sigma = -np.concatenate(([1.0], (-1.0) ** np.cumsum(flips)))
    base = np.arcsin(np.clip(psi, LD(-1), LD(1)))
    cand = np.where(sigma > 0, base, _PI[LD_DTYPE] - base)
    theta = np.empty_like(cand)
    theta[0] = cand[0]
    two_pi = 2 * _PI[LD_DTYPE]
    for i in range(1, len(cand)):
        theta[i] = cand[i] + two_pi * np.round((theta[i - 1] - cand[i]) / two_pi)
    assert np.any(theta != cand), "the cell never wraps"
    return 2 * theta


@pytest.mark.parametrize("kind,p,m", [(SolutionKind.CN_ODD, 5, 0.75),
                                      (SolutionKind.CN_ODD, 7, 0.9),
                                      (SolutionKind.CN_EVEN_ALT, 4, 0.9)])
@pytest.mark.parametrize("grid", [128, 256, 512])
def test_unwrap_equals_per_sample_loop(kind, p, m, grid):
    # the grid ode_residual samples
    fam = SolutionFamily(kind, p, m)
    h = solution_period(fam) / grid
    xs = (np.arange(grid, dtype=LD) + LD(0.5)) * LD(h)
    [(psi, dpsi)] = _psi_rows([fam], [xs])
    assert np.array_equal(_reconstruct_phi(fam, psi, dpsi), phi_per_sample(psi, dpsi))


def test_solution_period_values():
    fam = fam_for(SolutionKind.DN_ODD)
    mt = coefficients(fam.spec, fam.m).m_tilde
    from landen.elliptic import complete_elliptic_k
    assert_allclose(solution_period(fam), 2 * complete_elliptic_k(mt), rtol=1e-14)
    assert solution_period(SolutionFamily(SolutionKind.DN_ODD, 3, 1.0)) == np.inf
