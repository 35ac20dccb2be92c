"""The m-domain contract of every public entry point that takes m.

Each entry point accepts the interior of its interval and the ends it
includes, and rejects NaN, +-inf, -0.5, 1.5 and the ends it excludes with
a ValueError that names the interval.
"""

import math
import re

import pytest

from landen import (Family, LandenSpec, SolutionFamily, SolutionKind, a5_product,
                    classic_cn, classic_dn, classic_dn_two_term, classic_m_tilde,
                    classic_sn, coefficients, complete_elliptic_k, jacobi_eval,
                    jacobi_oracle, m_tilde_closed_p3, m_tilde_closed_p4, sum_route_m_tilde,
                    transform_rhs, verify_identity)

CLOSED, BELOW_ONE, OPEN = "[0, 1]", "[0, 1)", "(0, 1)"

ENTRY_POINTS = {
    "jacobi_eval": (lambda m: jacobi_eval(0.3, m), CLOSED),
    "jacobi_oracle": (lambda m: jacobi_oracle(0.3, m), CLOSED),
    "complete_elliptic_k": (complete_elliptic_k, BELOW_ONE),
    "classic_m_tilde": (classic_m_tilde, BELOW_ONE),
    "classic_sn": (lambda m: classic_sn(0.3, m), BELOW_ONE),
    "classic_cn": (lambda m: classic_cn(0.3, m), BELOW_ONE),
    "classic_dn": (lambda m: classic_dn(0.3, m), BELOW_ONE),
    "classic_dn_two_term": (lambda m: classic_dn_two_term(0.3, m), BELOW_ONE),
    "coefficients": (lambda m: coefficients(LandenSpec(Family.DN, 3), m), CLOSED),
    "a5_product": (lambda m: a5_product(4, m), BELOW_ONE),
    "transform_rhs": (lambda m: transform_rhs(LandenSpec(Family.DN, 3), m, 0.3), BELOW_ONE),
    "verify_identity": (lambda m: verify_identity(LandenSpec(Family.DN, 3), m), BELOW_ONE),
    # odd cn and sn have no finite normalization at m = 0; even sn has
    "transform_rhs cn p = 3": (lambda m: transform_rhs(LandenSpec(Family.CN, 3), m, 0.3), OPEN),
    "transform_rhs sn p = 3": (lambda m: transform_rhs(LandenSpec(Family.SN, 3), m, 0.3), OPEN),
    "transform_rhs sn p = 4": (lambda m: transform_rhs(LandenSpec(Family.SN, 4), m, 0.3),
                               BELOW_ONE),
    "verify_identity cn p = 3": (lambda m: verify_identity(LandenSpec(Family.CN, 3), m), OPEN),
    "verify_identity sn p = 3": (lambda m: verify_identity(LandenSpec(Family.SN, 3), m), OPEN),
    "verify_identity sn p = 4": (lambda m: verify_identity(LandenSpec(Family.SN, 4), m),
                                 BELOW_ONE),
    "sum_route_m_tilde": (lambda m: sum_route_m_tilde(LandenSpec(Family.DN, 3), m), OPEN),
    "m_tilde_closed_p3": (m_tilde_closed_p3, OPEN),
    "m_tilde_closed_p4": (m_tilde_closed_p4, OPEN),
    "SolutionFamily": (lambda m: SolutionFamily(SolutionKind.DN_ODD, 3, m), CLOSED),
}

# which of the ends m = 0 and m = 1 each interval includes
ENDS = {CLOSED: {0.0, 1.0}, BELOW_ONE: {0.0}, OPEN: set()}


@pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf, -0.5, 1.5, 0.0, 1.0, 0.5])
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_accepts_exactly_its_interval(name, m):
    call, interval = ENTRY_POINTS[name]
    if m == 0.5 or m in ENDS[interval]:
        call(m)
    else:
        with pytest.raises(ValueError, match=re.escape(f"must lie in {interval}, got")):
            call(m)
