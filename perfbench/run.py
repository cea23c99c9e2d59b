"""Benchmark entry point for chirotri.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload poly-compose --seed 1 --seconds 20 --trace 0

Workloads: poly-compose, oracle-verify, dc-asymptotics, search-db (see
``workloads.py`` and BENCHMARK.json for why each exists).

This process imports ``chirotri`` from ``src/`` once, generates the seeded
inputs into a work directory, and runs each op in a process forked from that
state, one at a time, until ``--seconds`` have passed and the current deck is
complete. Every output is then checked (``checks.py``). With ``--trace 0`` it
reports the end-to-end metrics. Their times are scaled to a reference speed
of the host: a fixed loop that runs none of the program is timed between ops,
and times are multiplied by ``runner.REFERENCE_MS`` over its median (the
summary line also prints them as timed). With ``--trace 1`` each op runs
twice, once untraced and once with spans around every layer's public
functions (``tracing.py``), and it reports the per-layer metrics and writes
the spans to ``.bench_out/``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# no BLAS thread pools: ops run in forked children, and the benchmark keeps
# to one computing process at a time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("poly-compose", "oracle-verify", "dc-asymptotics", "search-db")
SETUP_PROBES = 3  # fresh interpreters timed per run; setup_s is their median
REFERENCE_EVERY_S = 0.25  # how often the reference loop runs between ops


def _import_program():
    """Import chirotri from this checkout's src/, or exit with code 2."""
    if not (SRC / "chirotri" / "__init__.py").is_file():
        sys.exit(f"error: no chirotri sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import chirotri
    if not Path(chirotri.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: chirotri imported from {chirotri.__file__}, not {SRC}")


def _setup_seconds(args, work: Path) -> float:
    """Median wall time of fresh interpreters that import and generate."""
    times = []
    for i in range(SETUP_PROBES):
        probe = work / f"probe{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only", str(probe)]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)  # a timeout would poll
        times.append(time.perf_counter() - t0)
        shutil.rmtree(probe)
    return statistics.median(times)


def _measure(decks, seconds, trace):
    """Run whole decks until ``seconds`` have passed.

    Returns (op, untraced record, traced record or None) triples, and the
    times of the reference loop run between ops. Traced and untraced runs
    of one op alternate which goes first.
    """
    from perfbench import runner, tracing

    out, reference = [], []
    start = last = time.perf_counter()
    d = 0
    while d == 0 or time.perf_counter() - start < seconds:
        for op in decks[d % len(decks)]:
            if time.perf_counter() - last >= REFERENCE_EVERY_S:
                reference.append(runner.reference_loop())
                last = time.perf_counter()
            if not trace:
                out.append((op, runner.run_op(op), None))
                continue
            if len(out) % 2:
                traced = runner.run_op(op, tracing.Tracer())
                plain = runner.run_op(op)
            else:
                plain = runner.run_op(op)
                traced = runner.run_op(op, tracing.Tracer())
            out.append((op, plain, traced))
        d += 1
    return out, reference


def _same_output(a, b):
    keys = ("exit", "exc", "stdout", "stderr", "result")
    return all(a[k] == b[k] for k in keys)


def _percentile(values, q):
    """Linear-interpolation percentile, q in (0, 100)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _write_spans(path: Path, runs):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for op_id, (_, _, rec) in enumerate(runs):
            for i, (name, parent, t0, t1, _) in enumerate(rec.get("spans", [])):
                fh.write(json.dumps({"op": op_id, "span": i, "parent": parent,
                                     "name": name, "start": t0, "end": t1}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR",
                    help="only import the program and generate inputs into DIR")
    args = ap.parse_args(argv)

    _import_program()
    from perfbench import checks, runner, tracing, workloads

    if args.setup_only:
        workloads.generate(args.workload, args.seed, Path(args.setup_only))
        return 0

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = _setup_seconds(args, work)
        decks = workloads.generate(args.workload, args.seed, work / "inputs")
        runs, reference = _measure(decks, args.seconds, args.trace)
        checker = checks.Checker(op for deck in decks for op in deck)
        outcomes = []
        for op, plain, traced in runs:
            rec = traced if args.trace else plain
            status, detail = checker.outcome(op, rec)
            if args.trace and status == "ok" and not _same_output(plain, traced):
                status, detail = "wrong", "traced output differs from untraced"
            outcomes.append((status, detail))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(runs)
    wrong = [(op, d) for (op, *_), (s, d) in zip(runs, outcomes) if s == "wrong"]
    known = [d for s, d in outcomes if s == "known-defect"]
    failed = len(wrong) + len(known)
    for op, detail in wrong[:10]:
        print(f"wrong: {op.argv or op.job}: {detail}", file=sys.stderr)

    if args.trace:
        ok = [(p, t) for (_, p, t), (s, _) in zip(runs, outcomes) if s == "ok"]
        plain_s = sum(p["ms"] for p, _ in ok) / 1e3
        traced_s = sum(t["ms"] for _, t in ok) / 1e3
        values = tracing.aggregate(
            [t.get("spans", []) for _, _, t in runs],
            sum(t["ms"] for _, _, t in runs if t["ms"] is not None) / 1e3,
            traced_s / plain_s - 1 if plain_s else 0.0)
        units = dict(tracing.per_layer_metrics())
        _write_spans(ROOT / ".bench_out" /
                     f"trace-{args.workload}-seed{args.seed}.jsonl", runs)
        shares = ", ".join(f"{k} {values[k]:.3f}" for k in units
                           if k.endswith(".share") and values[k] >= 0.005)
        print(f"{args.workload} seed {args.seed}: {attempted} traced ops, "
              f"overhead {values['trace.overhead_frac']:.3f}; shares: {shares}")
    else:
        good = [(op, rec) for (op, rec, _), (s, _) in zip(runs, outcomes)
                if s == "ok"]
        times = [rec["ms"] for op, rec in good if op.valid]
        summed_s = sum(rec["ms"] for _, rec, _ in runs if rec["ms"] is not None) / 1e3
        raw = {
            "setup_s": setup_s,
            "op_ms.p50": statistics.median(times),
            "op_ms.p90": _percentile(times, 90),
            "ops_per_s": len(good) / summed_s,
        }
        # times at the reference speed of the host (see runner.reference_loop)
        speed = runner.REFERENCE_MS / statistics.median(reference)
        values = {k: v / speed if k == "ops_per_s" else v * speed
                  for k, v in raw.items()}
        values["peak_rss_mb"] = max(rec["rss_kb"] for _, rec, _ in runs) / 1024
        units = {"setup_s": "s", "op_ms.p50": "ms", "op_ms.p90": "ms",
                 "ops_per_s": "1/s", "peak_rss_mb": "MB"}
        defects = {k: known.count(k) for k in sorted(set(known))}
        print(f"{args.workload} seed {args.seed}: {attempted} ops, "
              f"{len(times)} timed, {failed} failed "
              f"(known defects {defects or 'none'}, {len(wrong)} wrong)")
        print(" | ".join([f"{k} {v:.4g} {units[k]}" for k, v in values.items()]
                         + [f"fail_frac {failed / attempted:.4f} ratio"]))
        print(f"as timed, before scaling by {speed:.4f} to the reference "
              f"speed: " + " | ".join(f"{k} {v:.4g}" for k, v in raw.items()))
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
