"""The outputs that define parity between two landen trees.

    python tools/parity.py dump OUT   # JSON group -> key -> output of the tree on PYTHONPATH
    python tools/parity.py diff A B   # how many outputs of each group differ; 1 if any do

An output is [result, stdout, stderr, warnings] of one call.  Only public
names and landen.cli.main are read, so one copy dumps any tree.
"""

import contextlib
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np

SCOPES = ("classic", "family", "sine-gordon", "all")
FAMILIES = ("dn", "cn", "sn")
SG_CELLS = ([(f, p, m) for f in FAMILIES for p in range(2, 8)
             for m in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)]
            + [(f, p, m) for f in FAMILIES for p in (2, 3, 4, 7) for m in (0.0, 1.0, 1e-300)])
# verify's M_GRID and m = 0
GENERAL_M = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
COEFFS_M = (0.0, 1e-12, 1e-6, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999, 1.0)
# tests/test_elliptic.py's ARRAY_M: chains 1 to 8 levels deep, m = 0 and 1
ARRAY_M = np.array([0.3, 1e-8, 0.0, 1e-12, 0.01, 0.1, 0.5, 1.0, 0.9, 0.999, 1 - 1e-13,
                    0.99999, 1 - 1e-8, 1e-5, 0.75, 1 - 2 ** -53, 1 - 5e-13])


def _exact(value):
    """value in full: a tuple item by item, an array by type, dtype, shape and
    bits (a longdouble by its digits: its padding is no part of it), an int
    (an exit code) as it is, anything else by its repr."""
    if isinstance(value, tuple):
        return [type(value).__name__, *map(_exact, value)]
    if isinstance(value, (np.ndarray, np.generic)):
        array = np.asarray(value)
        bits = (array.tobytes().hex() if array.dtype.itemsize <= 8 else
                [np.format_float_scientific(v, unique=True) for v in array.flat])
        return [type(value).__name__, array.dtype.str, array.shape, bits]
    return value if isinstance(value, int) else repr(value)


def capture(call):
    """[result, stdout, stderr, warnings] of call(); the result is an exit
    code, a value in full or the repr of the exception raised."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        try:
            result = _exact(call())
        except Exception as exc:
            result = repr(exc)
    return [result, out.getvalue(), err.getvalue(),
            [f"{w.category.__name__}: {w.message}" for w in caught]]


def dump():
    import landen
    from landen import (Family, LandenSpec, SolutionFamily, a5_product, closed_form_c,
                        complete_elliptic_k, default_samples, first_integral, jacobi_eval,
                        m_tilde_closed_p3, m_tilde_closed_p4, psi_derivative, psi_value,
                        solution_kind, solution_period, sum_route_m_tilde, transform_rhs,
                        verify_identity)
    from landen.cli import main

    def cli(*commands):
        return {command: capture(lambda: main(command.split())) for command in commands}
    verify = cli(*(f"verify --scope {scope}{grid}" for scope in SCOPES
                   for grid in ("", " --grid 16 --tol 1e-15")))
    cell = (lambda spec, m: transform_rhs(spec, m, np.linspace(-5, 9, 23)),
            lambda spec, m: transform_rhs(spec, m, 0.37),
            lambda spec, m: verify_identity(spec, m, 16),
            lambda spec, m: verify_identity(spec, m, 128), sum_route_m_tilde)
    general = {f"{f} {p} {m!r}": [capture(lambda: call(LandenSpec(Family(f), p), m))
                                  for call in cell]
               for f in FAMILIES for p in range(2, 8) for m in GENERAL_M}
    general |= {f"a5_product {p} {m!r}": capture(lambda: a5_product(p, m))
                for p in (2, 4, 6) for m in GENERAL_M}
    general |= {f"{fn.__name__} {m!r}": capture(lambda: fn(m))
                for fn in (m_tilde_closed_p3, m_tilde_closed_p4) for m in GENERAL_M}
    functions = (lambda fam: psi_value(fam, np.linspace(-3, 3, 17)),
                 lambda fam: psi_derivative(fam, np.linspace(-3, 3, 17)),
                 lambda fam: first_integral(fam, default_samples(fam, 65)), solution_period,
                 closed_form_c)
    elliptic = {}
    for dtype in (np.float64, np.longdouble):
        x = np.append(np.random.default_rng(25).uniform(-20, 20, 200), [0.0, -0.0]).astype(dtype)
        calls = {"x[:, None], ARRAY_M": (jacobi_eval, x[:, None], ARRAY_M),
                 "K(ARRAY_M < 1)": (complete_elliptic_k, ARRAY_M[ARRAY_M < 1.0]),
                 "K([0, 0])": (complete_elliptic_k, np.zeros(2))}
        for m in (0.0, 1e-300, 1e-8, 0.5, 0.99, 1 - 2 ** -53, 1.0):
            calls |= {f"{arg}, {m!r}": (jacobi_eval, arg, m) for arg in (0.7, -0.0)}
            calls |= {f"x, {m!r}": (jacobi_eval, x, m), f"K({m!r})": (complete_elliptic_k, m)}
        elliptic |= {f"{key} {dtype.__name__}": capture(lambda: fn(*args, dtype=dtype))
                     for key, (fn, *args) in calls.items()}
    return {
        "verify": verify,
        "verify-records": {json.dumps([r["check"], r.get("p"), r["m"]]): r for r in
                           json.loads(verify["verify --scope all"][1] or "{}").get("results", [])},
        "general": general,
        "sg-check": cli(*(f"sg-check --family {f} --p {p} --m {m!r}" for f, p, m in SG_CELLS)),
        "sine-gordon": {f"{f} {p} {m!r}": [
            capture(lambda: call(SolutionFamily(solution_kind(f, p), p, m))) for call in functions]
            for f, p, m in SG_CELLS},
        "coeffs-table": cli(*(f"coeffs --family {f} --p {p} --m {m!r}" for f in FAMILIES
                              for p in range(2, 13) for m in COEFFS_M),
                            "coeffs --family dn --p 142 --m 0.1", "table", "table --format full"),
        "elliptic": elliptic,
        "demos": {demo.name: capture(lambda: exec(demo.read_text(), {"__name__": "__main__"}))
                  for demo in sorted((Path(landen.__file__).parents[2] / "demos").glob("*.py"))},
    }


def diff(base, change):
    """Print what differs between two dumps; 1 if any output does, else 0."""
    differ = False
    for group in {**base, **change}:
        a, b = base.get(group, {}), change.get(group, {})
        keys = [key for key in {**b, **a} if json.dumps(a.get(key)) != json.dumps(b.get(key))]
        print(f"{group}: {len(keys)} of {len(b)} outputs differ ({len(a)} in base)"
              + "".join(f"\n  {key}" for key in keys[:3]))
        differ = differ or bool(keys)
    for side, outputs in (("base", base), ("change", change)):
        count = [output[0] for output in outputs.get("sg-check", {}).values()].count
        print(f"sg-check exit codes 0/1/2 in {side}: {count(0)}/{count(1)}/{count(2)}")
    return int(differ)


def main(argv):
    if argv[:1] == ["dump"] and len(argv) == 2:
        Path(argv[1]).write_text(json.dumps(dump(), indent=1))
        return 0
    if argv[:1] == ["diff"] and len(argv) == 3:
        return diff(*(json.loads(Path(path).read_text()) for path in argv[1:]))
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
