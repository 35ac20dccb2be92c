"""Jacobi elliptic functions and multi-term modulus transformations.

The package evaluates sn, cn, dn and K(m) from first principles
(:mod:`landen.elliptic`), implements the classical two-term quadratic
transformation (:mod:`landen.classic`) and its p-term generalizations for
all six function/parity families (:mod:`landen.general`), and makes the
sine-Gordon first-integral derivation of those identities executable and
checkable (:mod:`landen.sine_gordon`).  A CLI (``landen`` or
``python -m landen``) exposes evaluation, coefficient, table and
verification commands.
"""

__version__ = "0.1.0"

from .elliptic import (EllipticTriple, ModulusClampWarning, complete_elliptic_k,
                       jacobi_eval, jacobi_oracle)
from .classic import (ClassicLandenResult, classic_cn, classic_dn,
                      classic_dn_two_term, classic_m_tilde, classic_sn)
from .general import (AlternatingSumDegenerateError, Family, IdentityResidual,
                      LandenCoefficients, LandenSpec, a5_product, coefficients,
                      m_tilde_closed_p3, m_tilde_closed_p4, sum_route_m_tilde,
                      transform_rhs, verify_identity)
from .sine_gordon import (Branch, BranchClassification, FirstIntegralValue,
                          NoClosedFormError, NotMeasurableError, OdeResidual, SignConvention,
                          SolutionFamily, SolutionKind, classify, closed_form_c,
                          default_samples, first_integral, first_integral_samples,
                          ode_residual, psi_derivative, psi_value,
                          solution_kind, solution_period)

__all__ = [
    "__version__",
    "EllipticTriple", "ModulusClampWarning",
    "complete_elliptic_k", "jacobi_eval", "jacobi_oracle",
    "ClassicLandenResult", "classic_cn", "classic_dn", "classic_dn_two_term",
    "classic_m_tilde", "classic_sn",
    "AlternatingSumDegenerateError", "Family", "IdentityResidual",
    "LandenCoefficients", "LandenSpec", "a5_product", "coefficients",
    "m_tilde_closed_p3", "m_tilde_closed_p4", "sum_route_m_tilde", "transform_rhs",
    "verify_identity",
    "Branch", "BranchClassification", "FirstIntegralValue", "NoClosedFormError",
    "NotMeasurableError", "OdeResidual", "SignConvention", "SolutionFamily", "SolutionKind",
    "classify", "closed_form_c", "default_samples", "first_integral",
    "first_integral_samples", "ode_residual", "psi_derivative", "psi_value",
    "solution_kind", "solution_period",
]
