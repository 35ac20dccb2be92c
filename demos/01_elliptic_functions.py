"""Tour of the elliptic core: K(m), the (sn, cn, dn) triple, and limits.

Run:  python demos/01_elliptic_functions.py
"""

import numpy as np

from landen import complete_elliptic_k, jacobi_eval, jacobi_oracle

print("Quarter period K(m) = pi / (2 AGM(1, k'))")
for m in (0.0, 0.25, 0.5, 0.9, 0.99, 0.9999):
    print(f"  K({m:<7}) = {complete_elliptic_k(m):.15f}")

print("\nAt m = 0 the functions are circular, at m = 1 hyperbolic:")
x = 1.2
print(f"  m=0: {jacobi_eval(x, 0.0)}  vs (sin, cos, 1) = "
      f"({np.sin(x):.6f}, {np.cos(x):.6f}, 1)")
print(f"  m=1: {jacobi_eval(x, 1.0)}  vs (tanh, sech, sech) = "
      f"({np.tanh(x):.6f}, {1 / np.cosh(x):.6f}, {1 / np.cosh(x):.6f})")

m = 0.75
big_k = complete_elliptic_k(m)
print(f"\nQuarter-period landmarks at m = {m} (K = {big_k:.6f}):")
for label, xv in [("0", 0.0), ("K/2", big_k / 2), ("K", big_k),
                  ("3K/2", 1.5 * big_k), ("2K", 2 * big_k)]:
    sn, cn, dn = jacobi_eval(xv, m)
    print(f"  x = {label:>4}: sn = {sn: .12f}  cn = {cn: .12f}  dn = {dn: .12f}")
print(f"  dn(K)   should be k'        = {np.sqrt(1 - m):.12f}")
print(f"  dn(K/2) should be (1-m)^1/4 = {(1 - m) ** 0.25:.12f}")

print("\nAlgebraic identities on a random grid (max deviation):")
rng = np.random.default_rng(7)
xs = rng.uniform(-4 * big_k, 4 * big_k, 500)
sn, cn, dn = jacobi_eval(xs, m)
print(f"  sn^2 + cn^2 - 1     : {np.max(np.abs(sn ** 2 + cn ** 2 - 1)):.3e}")
print(f"  dn^2 + m sn^2 - 1   : {np.max(np.abs(dn ** 2 + m * sn ** 2 - 1)):.3e}")

print("\nFast AGM path vs slow Carlson R_F inversion oracle:")
worst = 0.0
for xv in np.linspace(-2 * big_k, 2 * big_k, 9):
    a = jacobi_eval(xv, m)
    b = jacobi_oracle(xv, m)
    worst = max(worst, abs(a.sn - b.sn), abs(a.cn - b.cn), abs(a.dn - b.dn))
print(f"  max |fast - oracle| over 9 points: {worst:.3e}")
