"""Child process of the benchmark: a fresh interpreter that imports landen.

    worker.py SRC import MODULE
        import MODULE, print the seconds it took as JSON, exit
    worker.py SRC serve MODULE
        import MODULE, print the seconds it took, then run the operations
        sent as JSON lines on stdin, one result line each; at end of input
        print the recorded spans and memory peaks
    worker.py SRC cli TRACE_FILE MODE -- ARGS...
        run landen.cli.main(ARGS) with a tracer of MODE ('spans' or
        'memory') installed, write what it recorded to TRACE_FILE, exit with
        main's code

SRC is the directory that must hold the imported landen package.  Only
`sys` and `time` are imported before MODULE, so the measured import is the
one a user pays.  Run with `-X importtime` to have the imports itemized:
marker lines on stderr set them apart from interpreter start-up and from
imports made later by the operation.
"""

import sys
import time


def _import(src, module):
    sys.stderr.write("perfbench: import starts\n")
    sys.stderr.flush()
    start = time.perf_counter()
    __import__(module)
    elapsed = time.perf_counter() - start
    sys.stderr.write("perfbench: import ends\n")
    sys.stderr.flush()
    import os
    landen_dir = os.path.dirname(os.path.abspath(sys.modules["landen"].__file__))
    if landen_dir != os.path.join(os.path.abspath(src), "landen"):
        sys.exit(f"perfbench worker: imported landen from {landen_dir}, not {src}")
    return elapsed


def _emit(obj):
    import json
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _bulk(op, jacobi_eval):
    import numpy as np
    import workloads
    x = workloads.bulk_block(op)
    m = op["m"]
    start = time.perf_counter()
    f64 = jacobi_eval(x, m)
    ext = jacobi_eval(x, m, dtype=np.longdouble)
    elapsed = time.perf_counter() - start
    pick = workloads.bulk_subsample(op)
    sub, prop = {}, {}
    for dtype, (sn, cn, dn) in (("float64", f64), ("longdouble", ext)):
        one = np.asarray(1, dtype=sn.dtype)
        prop[dtype] = float(max(np.max(np.abs(sn * sn + cn * cn - one)),
                                np.max(np.abs(dn * dn + m * (sn * sn) - one))))
        sub[dtype] = [[float(v) for v in arr[pick]] for arr in (sn, cn, dn)]
    return {"s": elapsed, "sub": sub, "property": prop, "bytes": 0}


def _verify(op, main):
    import contextlib
    import io
    start = time.perf_counter()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", "--scope", "all"])
    verify = (code, buf.getvalue())
    sg = []
    for family, p, m in op["sg"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["sg-check", "--family", family, "--p", str(p), "--m", repr(m)])
        sg.append((code, buf.getvalue()))
    elapsed = time.perf_counter() - start
    size = len(verify[1].encode()) + sum(len(text.encode()) for _, text in sg)
    return {"s": elapsed, "verify": verify, "sg": sg, "bytes": size}


def serve(src, module):
    setup_s = _import(src, module)
    import json
    import tracing
    _emit({"setup_s": setup_s})
    landen = sys.modules["landen"]
    tracers = {"spans": tracing.Tracer("spans"), "memory": tracing.Tracer("memory")}
    active = None
    for n, line in enumerate(sys.stdin):
        request = json.loads(line)
        mode = request["mode"]
        if active is not None and active.mode != mode:
            active.uninstall()
            active = None
        if active is None and mode != "off":
            active = tracers[mode]
            active.install()
        if active is not None:
            active.op = n
        op = request["op"]
        start = time.perf_counter()
        try:
            # looked up on every call: an installed tracer replaces them
            if op["kind"] == "bulk":
                result = _bulk(op, landen.elliptic.jacobi_eval)
            else:
                result = _verify(op, landen.cli.main)
        except Exception as exc:  # the parent counts the operation as wrong
            result = {"s": time.perf_counter() - start, "bytes": 0, "error": repr(exc)}
        _emit(result)
    if active is not None:
        active.uninstall()
    _emit({"spans": tracers["spans"].spans, "peaks": tracers["memory"].peaks})


def cli(src, trace_file, mode, args):
    _import(src, "landen.cli")
    import json
    import tracing
    tracer = tracing.Tracer(mode)
    tracer.op = 0
    tracer.install()
    try:
        code = sys.modules["landen.cli"].main(args)
    finally:
        tracer.uninstall()
        with open(trace_file, "w") as fh:
            json.dump({"spans": tracer.spans, "peaks": tracer.peaks}, fh)
    return code


if __name__ == "__main__":
    src, command, *rest = sys.argv[1:]
    if command == "import":
        _emit({"setup_s": _import(src, rest[0])})
    elif command == "serve":
        serve(src, rest[0])
    elif command == "cli":
        trace_file, mode, dashes, *args = rest
        sys.exit(cli(src, trace_file, mode, args))
    else:
        sys.exit(f"perfbench worker: unknown command {command!r}")
