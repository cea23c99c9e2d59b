"""Run each op in its own process, forked from the benchmark's process.

That process has imported ``chirotri`` and generated the inputs; nothing in
it has run the program's counting code, so every op starts with the program's
caches empty, as a real ``chirotri`` invocation does. One child runs at a
time. The op is timed inside the child, around the call; fork and result
transfer are outside the timed region.
"""

from __future__ import annotations

import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from contextlib import nullcontext

from chirotri import cli, compose, expr, oracle, polynomials

OP_TIMEOUT_S = 60  # a child still running after this is killed by SIGALRM
# nominal time of reference_loop(): about its time on a 2-core Intel Xeon VM
# with Python 3.11, so that scaled times read close to milliseconds there
REFERENCE_MS = 10.0


def reference_loop() -> float:
    """Milliseconds taken by a fixed loop of dict updates and big-integer
    arithmetic. It runs none of the program, so its time tracks only the
    speed of the host, which drifts by tens of percent from minute to minute
    on a shared machine."""
    t0 = time.perf_counter()
    counts = {}
    big = 3 ** 2000
    acc = 0
    for i in range(8000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
        acc += big * (i + 1) % 1000003
    return (time.perf_counter() - t0) * 1e3


def verify_job(job: dict) -> dict:
    """Merge two rooted point sets and check the calculus against the oracle.

    Loads both operands, merges them with join or meet, scans the merged
    chirotope's axioms, enumerates the weak-triangulation polynomial of both
    operands and of the result, and compares the last with the merge
    recursion applied to the first two.
    """
    # names are looked up at call time so that traced runs see the wrappers
    rc1 = expr.load_rooted(job["a"], job["ra"])
    rc2 = expr.load_rooted(job["b"], job["rb"])
    merge = compose.join if job["op"] == "join" else compose.meet
    merged, _ = merge(rc1, rc2)
    axioms_ok = merged.chi.check_axioms().ok
    p1, p2, p3 = (oracle.brute_P(rc) for rc in (rc1, rc2, merged))
    recursion = polynomials.join_P if job["op"] == "join" else polynomials.meet_P
    calc = recursion(p1, p2)
    return {"n1": rc1.chi.n, "n2": rc2.chi.n, "n3": merged.chi.n,
            "axioms_ok": axioms_ok, "p1": p1, "p2": p2, "p3": p3,
            "calc": calc, "equal": p3 == calc}


def _execute(op):
    """Run the op; returns (exit code, job result)."""
    if op.kind == "verify":
        return 0, verify_job(op.job)
    return cli.run_cli(list(op.argv)), None


def _child(op, tracer, wfd):
    signal.alarm(OP_TIMEOUT_S)
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    rec = {"pid": os.getpid(), "exit": None, "exc": None, "result": None}
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        with tracer.span("op") if tracer is not None else nullcontext():
            rec["exit"], result = _execute(op)
    except BaseException as exc:  # a raw traceback is an outcome to report
        result = None
        rec["exc"] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    t1 = time.perf_counter()
    rec["ms"] = (t1 - t0) * 1e3
    rec["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rec["stdout"], rec["stderr"] = out.getvalue(), err.getvalue()
    if result is not None:
        rec["result"] = {k: (v.to_json() if hasattr(v, "to_json") else v)
                         for k, v in result.items()}
    if tracer is not None:
        rec["spans"] = tracer.spans
    data = json.dumps(rec).encode()
    view = memoryview(data)
    while view:
        view = view[os.write(wfd, view):]


def run_op(op, tracer=None) -> dict:
    """Fork, run one op in the child, and return the child's record.

    A child that dies without reporting yields a record with ``exc`` set
    to its wait status, which the checker counts as a failure.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(rfd)
            _child(op, tracer, wfd)
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    os.close(wfd)
    try:
        with os.fdopen(rfd, "rb") as fh:
            data = fh.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"pid": pid, "exit": None, "ms": None, "rss_kb": 0,
                "stdout": "", "stderr": "", "result": None,
                "exc": f"child ended without a result (wait status {status})"}
    return json.loads(data)
