"""Jacobi elliptic functions and the complete elliptic integral, from scratch.

The complete integral of the first kind is computed as
``K(m) = pi / (2 * AGM(1, k'))`` and the triple ``(sn, cn, dn)`` by a
descending Landen recursion driven by the same arithmetic-geometric mean
chain.  The recursion starts at the deepest level, where the modulus has
vanished, from one half-angle tangent per point.  Both are quadratically
convergent and carry no tabulated data.

A structurally independent slow path, :func:`jacobi_oracle`, inverts
``F(phi|m)`` in Carlson's form R_F by Newton's method, so that the fast
path can be cross-validated without trusting shared code.  Importing this
module loads numpy alone; the oracle needs only stdlib ``math``.

Conventions: the parameter is ``m = k^2`` with ``0 <= m <= 1``; arguments
are real.  m = 0 and m = 1 are the exact circular and hyperbolic limits,
and every m between them, however close to 1, runs the one AGM/Landen
kernel.  Everything here is a pure function and safe to call from any
thread.

Large kernel runs at a scalar m are split over short-lived threads, one
per CPU (see :func:`jacobi_eval`), bit-identical to serial evaluation.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from collections import namedtuple

import numpy as np

from .nome import _validate_m

__all__ = [
    "EllipticTriple",
    "complete_elliptic_k",
    "jacobi_eval",
    "jacobi_oracle",
]

_AGM_MAX_ITER = 32

# numpy's float64 pi is fine for the double path; the extended path needs
# pi to long-double precision.
_PI = {np.dtype(np.float64): np.float64(np.pi),
       np.dtype(np.longdouble): np.longdouble("3.14159265358979323846264338327950288420")}

# Stopping at machine epsilon, not below it: a tighter tolerance never
# holds once a and b settle an ulp apart, and the chain would run to the cap.
_AGM_RTOL = {dt: float(np.finfo(dt).eps) for dt in _PI}

# Arrays of at least _SPLIT_MIN points at a scalar m are evaluated in
# _CHUNK-point pieces spread over the CPUs: 8192 points keep a piece's
# temporaries in cache, and smaller calls stay on the plain serial path.
_CHUNK = 8192
_SPLIT_MIN = 2 * _CHUNK

# R_F's series is exact to the unit roundoff u once the arguments lie
# within (3 u)^(1/6) of their mean (Carlson 1995).  Newton stops once phi
# moves less than 4 ulp; 40000 seeded points took at most 12 steps.
_RF_TOL = (3 * 2.0 ** -53) ** (1 / 6)
_NEWTON_RTOL, _NEWTON_MAX_ITER = 2.0 ** -50, 64


class EllipticTriple(namedtuple("EllipticTriple", "sn cn dn")):
    """Values of sn, cn, dn at a common argument and parameter.

    Fields hold scalars for scalar input and arrays for array input.
    """

    __slots__ = ()


def _agm_chain(m, dtype):
    """AGM(1, sqrt(1 - m)): means a[0..n] and half-differences c[0..n].

    Returns (a, c, n) with a[0] = 1, c[0] = sqrt(m), a[n] the converged
    mean and c[i] = (a[i-1] - b[i-1]) / 2, b[0] = sqrt(1 - m).  Iteration
    stops when |a - b| drops below the dtype's resolution relative to a,
    with a hard cap of 32 levels (quadratic convergence reaches it in
    <= 10 for any parameter representable away from 1).

    Every level has m's shape, a scalar for a scalar m, and one loop
    builds them all.  An array m runs every chain to the depth of the
    longest one.  On the levels past some chain's convergence, that chain
    is padded: its mean repeats and its c is 0, so a padded Landen level
    (k1 = 0) leaves sn and cn unchanged and dn at 1, and each element
    comes out bit-identical to its own scalar chain (DLMF 22.20).
    """
    rtol = _AGM_RTOL[dtype]
    one, two = dtype.type(1), dtype.type(2)
    md = dtype.type(m)
    b = np.sqrt(one - md)
    a, c = [one + 0 * b], [np.sqrt(md)]
    live = abs(a[0] - b) > rtol * a[0]
    n_live = np.count_nonzero(live)
    while n_live and len(c) <= _AGM_MAX_ITER:
        a_prev = a[-1]
        a.append((a_prev + b) / two)
        c.append((a_prev - b) / two)
        if n_live < live.size:
            a[-1] = np.where(live, a[-1], a_prev)
            c[-1] = np.where(live, c[-1], 0)
        b = np.sqrt(a_prev * b)
        live = live & (abs(a[-1] - b) > rtol * a[-1])
        n_live = np.count_nonzero(live)
    return a, c, len(c) - 1


def complete_elliptic_k(m, *, dtype=np.float64):
    """Complete elliptic integral of the first kind, K(m) = pi/(2 AGM(1, k')).

    Parameters
    ----------
    m : float or array_like
        Parameter(s), 0 <= m < 1.  K diverges at m = 1 and that input is
        rejected rather than returned as inf.
    dtype : numpy dtype, optional
        Working precision; float64 by default, np.longdouble for callers
        that need extra headroom in downstream cancellations.

    Returns
    -------
    scalar of `dtype` (a float for float64) for scalar m, an array of m's
    shape for array m (also where no m has a Landen level, as at m = 0),
    accurate to a few ulp.  Each element equals the scalar call at that m:
    one AGM chain serves every m (see _agm_chain).
    """
    m = _validate_m(m, below_one=True, array=True,
                    what="the parameter m of K(m) (divergent at m = 1)")
    dtype = np.dtype(dtype)
    a, _, n = _agm_chain(m, dtype)
    value = _PI[dtype] / (dtype.type(2) * a[n])
    return float(value) if dtype == np.float64 and np.ndim(m) == 0 else value


def jacobi_eval(x, m, *, dtype=np.float64):
    """Evaluate (sn, cn, dn) at real argument(s) x and parameter(s) m.

    The argument is folded into [0, K] with the exact quarter- and
    half-period symmetries, then the triple is built by running the AGM
    chain backwards through the descending Landen maps

        sn <- (1 + k1) s / (1 + k1 s^2),
        cn <- c d / (1 + k1 s^2),
        dn <- (1 - k1 s^2) / (1 + k1 s^2),

    starting at the deepest (vanishing-modulus) level from the half-angle
    tangent t = tan(z / 2) of z = a_n r, r the folded argument:
    sn = 2t / (1 + t^2), cn = (1 - t)(1 + t) / (1 + t^2), dn = 1.  The
    quarter period K = pi / (2 a_n) that folds the argument comes from the
    same AGM chain, so each call builds the chain once.  Measured absolute
    error stays below 1e-13 on |x| <= 8 K(m) for the whole admissible
    range.  Against 40-digit mpmath on 20000 seeded points with m from
    1e-6 to 0.9999 it is at most 57 eps in float64 and 76 eps in
    longdouble.  Most of it is K's rounding carried through the fold, so
    it grows with |x| / K: per point it stays below about 8.3 eps (1 + |x| /
    K) of the dtype.  Within 1e-12 of 1, down to m = 1 - 2^-53, 50000
    seeded points per dtype read at most 27 eps (1 + |x| / K) and at most
    4.9e-14 absolute in float64.

    m = 0 and m = 1 are exact branches (circular and hyperbolic limits);
    every 0 < m < 1 runs the kernel.  On every branch jacobi_eval(-x, m) is
    (-sn, cn, dn) of x, bit for bit, the sign of zero included.

    Scalar and array m take one path.  m (a scalar as a 0-d array)
    broadcasts against x, one AGM chain is built for all its values (padded
    to the longest depth, see _agm_chain) and one kernel run covers every
    point.  Elements at m = 0 or m = 1 run there as m = 1/2 and are then
    overwritten by their exact branch; when every element is exact, the
    kernel does not run.  So an array m gives, element by element, the
    bits of the call at its own scalar m.

    At a scalar m, kernel runs of 16384 points or more are split into
    8192-point chunks that the calling thread and one extra thread per
    further CPU evaluate side by side, joined before the call returns; an
    array m runs in one pass.  Every step is elementwise, so the result is
    bit-for-bit the one a single serial pass gives.

    Parameters
    ----------
    x : float or array_like
        Finite real argument(s).  Where the kernel runs (some m in
        0 < m < 1) in the extended dtype they must also lie within the
        float64 range, where the quadrant quotient is taken.
    m : float or array_like
        Parameter(s) in [0, 1], broadcast against x.
    dtype : numpy dtype, optional
        Working precision (float64 or np.longdouble).

    Returns
    -------
    EllipticTriple
        Scalars for scalar x and m, arrays of the broadcast shape otherwise.
    """
    m = np.asarray(_validate_m(m, array=True))
    dtype = np.dtype(dtype)
    scalar = np.ndim(x) == 0 and m.ndim == 0
    x = np.asarray(x, dtype=dtype)
    if not np.all(np.isfinite(x)):
        raise ValueError("argument x must be finite")

    circular = m == 0.0
    hyperbolic = m == 1.0
    exact = circular | hyperbolic
    full = np.broadcast_to(x, np.broadcast_shapes(x.shape, m.shape))
    if exact.all():  # nothing for the kernel: every element is overwritten below
        sn = cn = dn = full
    else:
        chain = _agm_chain(np.where(exact, 0.5, m), dtype)
        if m.ndim or full.size < _SPLIT_MIN:
            sn, cn, dn = _landen_kernel(full, *chain)
        else:
            sn, cn, dn = _split_eval(full, chain)
    one = dtype.type(1)
    if circular.any():
        sn = np.where(circular, np.sin(x), sn)
        cn = np.where(circular, np.cos(x), cn)
        dn = np.where(circular, one, dn)
    if hyperbolic.any():
        # cosh overflows past |x| ~ 710 (11357 in an 80-bit longdouble),
        # where 1/inf = 0 is the exact limit of sech
        with np.errstate(over="ignore"):
            sech = one / np.cosh(x)
        sn = np.where(hyperbolic, np.tanh(x), sn)
        cn = np.where(hyperbolic, sech, cn)
        dn = np.where(hyperbolic, sech, dn)

    if scalar:
        if dtype == np.float64:
            return EllipticTriple(float(sn[()]), float(cn[()]), float(dn[()]))
        return EllipticTriple(sn[()], cn[()], dn[()])
    return EllipticTriple(sn, cn, dn)


def _landen_kernel(x, a, c, n):
    """(sn, cn, dn) at x (any shape) from the AGM chain (a, c, n) of m.

    It folds |x|, so sn is odd and cn, dn even, bit for bit, and a small
    negative x is not formed as a difference near 4K.  The quadrant
    quotient floor(|x| / 4K) is taken in float64, where floor is cheap; the
    reduction itself stays in the working dtype.  A quotient that rounds
    across an integer leaves r a rounding error outside [0, 4K), where the
    folds and the recursion are still exact.

    The folded r lies in [0, K], so z = a_n r lies in [0, pi/2] and its
    half-angle tangent t in [0, 1].  At the deepest level the modulus has
    vanished and (sn, cn, dn) = (sin z, cos z, 1), which t gives by one
    tangent instead of a sine and a cosine (the dominant cost in
    longdouble).  cn is formed as (1 - t)(1 + t), not 1 - t^2, which keeps
    its relative accuracy near t = 1, where cn vanishes.  The folds' signs
    are applied by mask at the end: sn is negated where exactly one of x's
    sign and the shift of r down by 2K applies, cn where exactly one of
    that shift and the reflection about K applied.
    """
    dtype = x.dtype
    one, two, four = dtype.type(1), dtype.type(2), dtype.type(4)
    big_k = _PI[dtype] / (two * a[n])
    two_k, four_k = two * big_k, four * big_k
    ax = np.abs(x)
    x64 = ax
    if dtype != np.float64:
        with np.errstate(over="ignore"):
            x64 = ax.astype(np.float64)
        if not np.all(np.isfinite(x64)):
            raise ValueError("argument x must lie within the float64 range")
    q = np.floor(x64 / np.float64(four_k))
    r = ax - four_k * q
    upper = r >= two_k
    r = np.where(upper, r - two_k, r)
    refl = r > big_k
    r = np.where(refl, two_k - r, r)

    t = np.tan(a[n] * r / two)
    den = one + t * t
    sn = two * t / den
    cn = (one - t) * (one + t) / den
    if n == 0:  # no Landen level: dn stays the deepest level's 1
        dn = np.ones_like(t)
    for i in range(n, 0, -1):
        k1 = c[i] / a[i]
        num = k1 * sn * sn
        den = one + num
        sn = (one + k1) * sn / den
        # dn is exactly 1 at the deepest level, where cn * dn is cn
        cn = (cn if i == n else cn * dn) / den
        dn = (one - num) / den
    sn = np.where(upper != np.signbit(x), -sn, sn)
    return sn, np.where(upper != refl, -cn, cn), dn


def _worker_count():
    """CPUs this process may run on (the affinity mask where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _split_eval(x, chain):
    """_landen_kernel over x in _CHUNK-point pieces on up to one thread per CPU.

    Chunks are handed out from a shared counter to the calling thread and
    its helpers, each of which runs in a copy of the caller's context (so
    np.errstate applies to it).  numpy releases the GIL inside its loops,
    so the helpers compute in parallel.  The first exception raised in any
    chunk stops the hand-out and is re-raised here once every helper has
    been joined, so partly written output is never returned.
    """
    flat = x.reshape(-1)
    sn, cn, dn = (np.empty_like(flat) for _ in range(3))
    n_chunks = -(-flat.size // _CHUNK)
    lock = threading.Lock()
    issued = [0]
    errors = []

    def work():
        try:
            while True:
                with lock:
                    i = issued[0]
                    if errors or i == n_chunks:
                        return
                    issued[0] = i + 1
                piece = slice(i * _CHUNK, (i + 1) * _CHUNK)
                sn[piece], cn[piece], dn[piece] = _landen_kernel(flat[piece], *chain)
        except BaseException as exc:  # handed to the caller below
            with lock:
                errors.append(exc)

    helpers = []
    try:
        for _ in range(min(_worker_count(), n_chunks) - 1):
            helper = threading.Thread(target=contextvars.copy_context().run, args=(work,))
            helper.start()
            helpers.append(helper)
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return sn.reshape(x.shape), cn.reshape(x.shape), dn.reshape(x.shape)


def _carlson_rf(x, y, z):
    """Carlson's R_F(x, y, z) in float64 by duplication (DLMF 19.36.i).

    x, y, z >= 0, at most one of them 0.  Each step maps every argument v
    to (v + lam) / 4, lam = sqrt(xy) + sqrt(xz) + sqrt(yz), which keeps R_F
    and quarters the spread about the mean (DLMF 19.26.18); the series in
    E2, E3 of DLMF 19.36.1 (to fifth order) finishes it.
    """
    a = (x + y + z) / 3.0
    spread = max(abs(a - x), abs(a - y), abs(a - z))
    while spread > _RF_TOL * a:
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x, y, z, a = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4, (a + lam) / 4
        spread /= 4
    dx, dy = 1.0 - x / a, 1.0 - y / a  # and dz = -dx - dy
    e2, e3 = dx * dy - (dx + dy) ** 2, -dx * dy * (dx + dy)
    return (1.0 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / math.sqrt(a)


def jacobi_oracle(x, m):
    """Slow, independent (sn, cn, dn) from Carlson's R_F and Newton's method.

    K = R_F(0, 1 - m, 1).  x is folded into [-K, K] by the multiple n of 2K
    nearest to it, and sn and cn take the sign (-1)^n (DLMF Table 22.4.3).
    Newton then solves F(phi|m) = sin phi R_F(cos^2 phi, Delta^2, 1) = r
    (DLMF 19.25.5), dF/dphi = 1/Delta, for phi in [-pi/2, pi/2] (+-pi/2
    where |r| >= K), and (sn, cn, dn) = (sin phi, cos phi, Delta).  Delta^2
    is formed as cos^2 phi + (1 - m) sin^2 phi, not 1 - m sin^2 phi, which
    cancels near m = 1.  F lies below its chord on [0, pi/2], so from the
    start phi = (pi/2) r / K the iterates overshoot once, then close in
    monotonically.

    Stdlib math only; no code shared with the AGM, the Landen kernel or
    the theta route (the exact m = 0, 1 branches use numpy as jacobi_eval
    does).  About 0.03 ms a call.  Against 40-digit mpmath on 40000 seeded
    points, |x| <= 30 and m log-dense to 1e-8 and 1 - 1e-8: at most
    14 eps (1 + |x| / K), median 0.4, mostly K's rounding through the fold.

    For 0 < m < 1, |x| must stay below K / eps (8.3e15 at m = 0.5), past
    which x - n 2K keeps no correct digit; m = 0 and 1 take any finite x.
    """
    m = _validate_m(m)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("argument x must be finite")
    if m == 0.0:
        return EllipticTriple(float(np.sin(x)), float(np.cos(x)), 1.0)
    if m == 1.0:
        with np.errstate(over="ignore"):  # 1/inf = 0 past |x| ~ 710
            sech = 1.0 / np.cosh(x)
        return EllipticTriple(float(np.tanh(x)), float(sech), float(sech))

    m1 = 1.0 - m
    big_k = _carlson_rf(0.0, m1, 1.0)
    if abs(x) * 2.0 ** -52 >= big_k:
        raise ValueError(f"|x| must be below K / eps = {big_k * 2.0 ** 52:.6g}, got {x!r}")
    n = round(x / (2.0 * big_k))
    r = x - n * (2.0 * big_k)  # n = 0 leaves x = -0.0 as it is
    half_pi = 0.5 * math.pi
    phi = min(max(half_pi * r / big_k, -half_pi), half_pi)
    for _ in range(_NEWTON_MAX_ITER):  # where |r| >= K, the clamp holds phi at +-pi/2
        sn, cn = math.sin(phi), math.cos(phi)
        delta2 = cn * cn + m1 * sn * sn
        step = (sn * _carlson_rf(cn * cn, delta2, 1.0) - r) * math.sqrt(delta2)
        phi, last = min(max(phi - step, -half_pi), half_pi), phi
        if abs(phi - last) <= _NEWTON_RTOL * abs(phi):
            break
    sn, cn = math.sin(phi), math.cos(phi)
    sign = -1.0 if n % 2 else 1.0
    return EllipticTriple(sign * sn, sign * cn, math.sqrt(cn * cn + m1 * sn * sn))
