"""The field-equation route: measure C, classify, recover m~.

Each multi-term identity is the statement that a p-term superposition of
shifted elliptic functions solves a pendulum-type field equation with the
same first-integral constant C as one of the basic single-function
solutions.  This demo measures C along each superposition with its spread
over one period (constant up to rounding), classifies the branch, and
compares the implied transformed parameter with the coefficient machinery.

Run:  python demos/05_field_equation_route.py
"""

from landen import (SolutionFamily, SolutionKind, classify, closed_form_c,
                    coefficients, default_samples, first_integral,
                    NoClosedFormError, ode_residual)

CELLS = [
    (SolutionKind.DN_ODD, 3, 0.75),
    (SolutionKind.DN_EVEN, 4, 0.9),
    (SolutionKind.CN_ODD, 3, 0.9),
    (SolutionKind.CN_EVEN_ALT, 4, 0.9),
    (SolutionKind.SN_ODD, 3, 0.5),
    (SolutionKind.SN_EVEN_PROD, 4, 0.5),
]

for kind, p, m in CELLS:
    fam = SolutionFamily(kind, p, m)
    value = first_integral(fam, default_samples(fam, 65))
    verdict = classify(value)
    target = coefficients(fam.spec, m).m_tilde
    try:
        closed = f"{closed_form_c(fam):+.10f}"
    except NoClosedFormError:
        closed = "none (range only)"
    ode = ode_residual(fam, 256)
    print(f"{kind.value}  (p = {p}, m = {m}, {value.sign_convention.value})")
    print(f"  measured C        = {value.c:+.10f}   "
          f"spread over period = {value.spread:.2e}")
    print(f"  closed-form C     = {closed}")
    print(f"  branch            = {verdict.branch.value}")
    print(f"  implied m~        = {verdict.m_tilde:.12e}")
    print(f"  coefficient m~    = {target:.12e}   "
          f"(diff {abs(verdict.m_tilde - target):.1e})")
    print(f"  field-equation residual (256 pts) = {ode.max_abs:.2e}")
    print()

print("Limits of the dn-odd C as m sweeps its range (expected -2 .. 2):")
for m in (0.1, 0.5, 0.9, 0.99, 1.0):
    fam = SolutionFamily(SolutionKind.DN_ODD, 3, m)
    c = first_integral(fam, default_samples(fam)).c
    print(f"  m = {m:<5}: C = {c:+.10f}")
