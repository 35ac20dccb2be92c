"""Jacobi elliptic functions and multi-term modulus transformations.

The package evaluates sn, cn, dn and K(m) from first principles
(:mod:`landen.elliptic`), implements the classical two-term quadratic
transformation (:mod:`landen.classic`) and its p-term generalizations for
all six function/parity families (:mod:`landen.general`, with the
coefficients from :mod:`landen.nome`), and makes the sine-Gordon
first-integral derivation of those identities executable and checkable
(:mod:`landen.sine_gordon`).  A CLI (``landen`` or ``python -m landen``)
exposes evaluation, coefficient, table and verification commands.

The names of ``__all__`` resolve on first access (PEP 562): importing the
package loads none of its modules, so a command that needs only the
coefficients never imports numpy.
"""

import importlib

__version__ = "0.1.0"

# The module that defines each public name.
_HOMES = {
    "elliptic": ("EllipticTriple", "complete_elliptic_k", "jacobi_eval", "jacobi_oracle"),
    "classic": ("ClassicLandenResult", "classic_cn", "classic_dn", "classic_dn_two_term",
                "classic_m_tilde", "classic_sn"),
    "nome": ("AlternatingSumDegenerateError", "Family", "LandenCoefficients",
             "LandenSpec", "coefficients"),
    "general": ("IdentityResidual", "a5_product", "m_tilde_closed_p3", "m_tilde_closed_p4",
                "sum_route_m_tilde", "transform_rhs", "verify_identity"),
    "sine_gordon": ("Branch", "BranchClassification", "FirstIntegralValue",
                    "NoClosedFormError", "NotMeasurableError", "OdeResidual",
                    "SignConvention", "SolutionFamily", "SolutionKind", "classify",
                    "closed_form_c", "default_samples", "first_integral",
                    "first_integral_samples", "ode_residual", "psi_derivative",
                    "psi_value", "solution_kind", "solution_period"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
