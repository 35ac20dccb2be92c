"""The transformed-parameter table and the p = 3, 4 closed forms.

The map m -> m~ depends only on p, not on the function family.  For p = 3
it collapses to m (1-q)^2 / [(1+q)^2 (1+2q)^2] with q = dn(2K/3, m), and
for p = 4 to (1-t)^4 / (1+t)^4 with t = (1-m)^(1/4).

Run:  python demos/04_parameter_table.py
"""

from landen import (Family, LandenSpec, a5_product, coefficients,
                    m_tilde_closed_p3, m_tilde_closed_p4)
from landen.commands import TABLE_M_DEFAULT, format_sig4

print("m~ as a function of m and p (4 significant figures):")
print("      m " + "".join(f"  {('p=' + str(p)):>10}" for p in range(2, 8)))
for m in TABLE_M_DEFAULT:
    cells = [format_sig4(coefficients(LandenSpec(Family.DN, p), m).m_tilde)
             for p in range(2, 8)]
    print(f"{m:>8}" + "".join(f"  {c:>10}" for c in cells))

print("\nClosed forms against the general machinery:")
for m in (0.25, 0.5, 0.9):
    p3 = m_tilde_closed_p3(m)
    p4 = m_tilde_closed_p4(m)
    g3 = coefficients(LandenSpec(Family.DN, 3), m).m_tilde
    g4 = coefficients(LandenSpec(Family.DN, 4), m).m_tilde
    print(f"  m = {m:<5}: p3 closed {p3:.12e} (diff {abs(p3 - g3):.1e}), "
          f"p4 closed {p4:.12e} (diff {abs(p4 - g4):.1e})")

print("\nShift product A5 at the circular limit equals p / 2^(p-1):")
for p in (2, 4, 6):
    print(f"  p = {p}: A5(p, 0) = {a5_product(p, 0.0):.15f}  "
          f"(p / 2^(p-1) = {p / 2 ** (p - 1):.15f})")
