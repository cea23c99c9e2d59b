"""Output checker: every op's outcome against an independent route.

Runs in the benchmark's own process after all ops of a run have finished,
outside the timed region; its own use of the program (and so of the
program's caches) never reaches an op's process.

Routes: committed ``koch(1..7)`` counts, Catalan numbers for ``convex(n)``,
``QkTable`` polynomials for ``chik(k)``, the enumeration oracle for results
of at most 11 elements, the merge recursion recomputed from the oracle's
operand polynomials, ``QkTable`` rows and oracle counts for ``dc-table``,
exact partial sums plus a series-tail bound for ``kernel-report``, and direct
``seed_score`` calls over independently computed hulls for ``search``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

import mpmath as mp

from chirotri import (BivarPoly, EvalMode, PointSet, QkTable, RootedChirotope,
                      UnivarPoly, brute_Q, chirotope_from_points,
                      convex_hull_labels, count_triangulations, double_circle,
                      eval_expr, join_P, meet_P, parse_expr, seed_score)

from .workloads import ORACLE_MAX

# Triangulation counts of the rooted Koch chains koch(1..7), from the
# polynomial pipeline; levels 1-3 agree with the enumeration oracle (see the
# benchmark's tests). They do not depend on the seed.
KOCH_COUNTS = {
    1: 2,
    2: 8,
    3: 1464,
    4: 11628988272,
    5: 334222371438348928705984,
    6: 296153136437977087287604179946674663451663241359348864,
    7: int("665150087828400841869144832661041167784106937891425652045644"
           "28629146489263094093499618509754012950578077268062720"),
}

# Known program defects that inputs of the benchmark hit on purpose. An op
# carrying one of these labels that fails with exactly this signature counts
# as failed; any other failure means the checker found something unexpected.
KNOWN_DEFECTS = {
    # count/poly on load() of a missing file raises a raw FileNotFoundError
    "missing-file": lambda rec: (rec["exc"] or "").startswith("FileNotFoundError"),
    # kernel-report at --precision 15 or 20 trips the fixed 1e-30 tolerance
    "low-precision": lambda rec: (
        rec["exc"] is None and rec["exit"] == 1
        and rec["stderr"].strip() == "error: kernel root residual above tolerance"),
}


class Mismatch(Exception):
    """An op's output disagrees with the independent route."""


def _expect(cond, msg):
    if not cond:
        raise Mismatch(msg)


def theorem_constant():
    """9 c2 / (2 sqrt(pi)) with c2 = 6 sqrt(21) / 49, from its surd form."""
    r21 = mp.sqrt(21)
    return 54 / (7 * mp.sqrt(mp.pi)) * r21 * (5 - r21) / (7 - r21) ** 2


class Checker:
    """Checks op records; caches every reference value it computes."""

    def __init__(self, ops=()):
        # one QkTable deep enough for every op this checker will see
        need = [op.check.get(key, 0) for op in ops
                for key in ("k", "kmax", "terms")]
        self._table = QkTable(max([1, *need]))
        self._oracle_q = {}
        self._dc_oracle = {}
        self._scores = {}

    def table(self, k):
        if self._table.kmax < k:
            self._table = QkTable(k)
        return self._table

    def outcome(self, op, rec):
        """("ok" | "known-defect" | "wrong", detail)."""
        try:
            if rec["exc"] is not None:
                raise Mismatch(f"raw exception: {rec['exc']}")
            if op.valid:
                _expect(rec["exit"] == 0,
                        f"exit {rec['exit']}: {rec['stderr'].strip()}")
                getattr(self, "_" + op.check["route"].replace("-", "_"))(op, rec)
            else:
                _expect(rec["exit"] == 1, f"exit {rec['exit']} on a bad input")
                _expect(rec["stderr"].startswith("error: ")
                        and rec["stdout"] == "", "bad input without 'error: ...'")
        except (Mismatch, ValueError, KeyError, TypeError, IndexError) as exc:
            if op.defect is not None and KNOWN_DEFECTS[op.defect](rec):
                return "known-defect", op.defect
            return "wrong", str(exc)
        return "ok", ""

    # -- poly-compose ---------------------------------------------------------

    def _poly_output(self, op, rec):
        """(Q or None, count) from a ``count`` or ``poly --which Q`` op."""
        text = rec["stdout"]
        if op.check["output"] == "count":
            return None, int(text.strip())
        q = UnivarPoly.from_json(text)
        _expect(q.min_exp >= 2, "Q has a term below u^2")
        return q, q(1)

    def _koch(self, op, rec):
        _, count = self._poly_output(op, rec)
        _expect(count == KOCH_COUNTS[op.check["level"]],
                f"koch({op.check['level']}) count {count}")

    def _catalan(self, op, rec):
        _, count = self._poly_output(op, rec)
        m = op.check["n"] - 2
        _expect(count == comb(2 * m, m) // (m + 1), f"convex count {count}")

    def _qk(self, op, rec):
        q, count = self._poly_output(op, rec)
        k = op.check["k"]
        table = self.table(k)
        if q is None:
            _expect(count == table.total(k), f"chik({k}) count {count}")
        else:
            _expect(q == table.q(k), f"chik({k}) Q differs from QkTable")

    def _oracle(self, op, rec):
        q, count = self._poly_output(op, rec)
        expr = op.check["expr"]
        ref = self._oracle_q.get(expr)
        if ref is None:
            rc = eval_expr(parse_expr(expr), EvalMode.MATERIALIZE,
                           oracle_cap=ORACLE_MAX)
            ref = self._oracle_q[expr] = brute_Q(rc, cap=ORACLE_MAX)
        if q is None:
            _expect(count == ref(1), f"count {count}, oracle {ref(1)}")
        else:
            _expect(q == ref, "Q differs from the oracle")

    # -- oracle-verify ----------------------------------------------------------

    def _verify(self, op, rec):
        res = rec["result"]
        _expect(res["n3"] == res["n1"] + res["n2"] - 2 == op.check["n3"],
                "merged size law")
        _expect(res["axioms_ok"], "merged chirotope fails the axiom scan")
        _expect(res["equal"] and res["p3"] == res["calc"],
                "merge recursion disagrees with the oracle")
        p1, p2, p3 = (BivarPoly.from_json(res[k]) for k in ("p1", "p2", "p3"))
        recursion = join_P if op.job["op"] == "join" else meet_P
        _expect(recursion(p1, p2) == p3, "reported polynomials inconsistent")

    # -- dc-asymptotics ---------------------------------------------------------

    def _dc_oracle_count(self, k):
        if k not in self._dc_oracle:
            self._dc_oracle[k] = count_triangulations(double_circle(k).chi)
        return self._dc_oracle[k]

    def _dc_table(self, op, rec):
        kmax = op.check["kmax"]
        text = rec["stdout"]
        if op.check["format"] == "csv":
            lines = text.strip().split("\n")
            _expect(lines[0] == "k,exact,estimate,ratio", "csv header")
            rows = [line.split(",") for line in lines[1:]]
        else:
            rows = [(r["k"], r["exact"], r["estimate"], r["ratio"])
                    for r in json.loads(text)]
        _expect([int(r[0]) for r in rows] == list(range(3, kmax + 1)), "row ks")
        table = self.table(kmax)
        with mp.workdps(40):
            const = theorem_constant()
            for k, exact, est, ratio in rows:
                k, exact = int(k), int(exact)
                _expect(exact == table.total(k - 1) - table.coeff2(k - 1),
                        f"dc count k={k} differs from QkTable")
                if k <= 5:
                    _expect(exact == self._dc_oracle_count(k),
                            f"dc count k={k} differs from the oracle")
                ref = const * mp.mpf(12) ** (k - 2) * mp.mpf(k) ** mp.mpf(-1.5)
                _expect(abs(mp.mpf(est) / ref - 1) < mp.mpf("1e-9"),
                        f"estimate k={k}")
                _expect(abs(mp.mpf(ratio) / (exact / ref) - 1) < mp.mpf("1e-7"),
                        f"ratio k={k}")

    def _kernel(self, op, rec):
        c = op.check
        x = Fraction(c["p"], c["q"])
        terms, dps = c["terms"], c["dps"]
        digits = min(dps, 30)
        out = json.loads(rec["stdout"])
        _expect(out["x"] == str(x), "x")
        table = self.table(terms)
        p, q = x.numerator, x.denominator
        exact_f = Fraction(sum(table.total(k) * p ** k * q ** (terms - k)
                               for k in range(1, terms + 1)), q ** terms)
        exact_df = Fraction(sum(table.deriv(k) * p ** k * q ** (terms - k)
                                for k in range(1, terms + 1)), q ** terms)
        with mp.workdps(digits + 30):
            xm = mp.mpf(x.numerator) / x.denominator
            u1, u2 = mp.mpf(out["u1"]), mp.mpf(out["u2"])
            _expect(1 < u1 < 2 and 0 < u2 < 1, "kernel roots out of range")
            for u in (u1, u2):
                k_val = (u - 1) ** 2 * (1 - xm * u * u) - xm * u ** 3
                _expect(abs(k_val) < mp.mpf(10) ** (2 - digits),
                        "kernel root residual")
            # totals_k <= 12^k and deriv_k <= (2k+1) totals_k bound the tails
            r = 12 * xm
            tail_f = r ** (terms + 1) / (1 - r)
            tail_df = r ** (terms + 1) * ((2 * terms + 3) / (1 - r)
                                          + 2 * r / (1 - r) ** 2)
            noise = mp.mpf(10) ** (6 - dps)
            read = mp.mpf(10) ** (2 - digits)
            for name, exact, tail in (("F", exact_f, tail_f),
                                      ("dF", exact_df, tail_df)):
                ref = mp.mpf(exact.numerator) / exact.denominator
                series = mp.mpf(out[f"{name}_series"])
                closed = mp.mpf(out[f"{name}_closed"])
                _expect(abs(series - ref) <= read * ref, f"{name} series sum")
                _expect(abs(closed - ref) <= tail + noise + read * ref,
                        f"{name} closed form beyond the series tail")
                _expect(mp.mpf(out["residuals"][name]) <= tail + noise,
                        f"{name} residual above the tolerance")

    # -- search-db ----------------------------------------------------------------

    def _search(self, op, rec):
        levels, top = op.check["levels"], op.check["top"]
        expected = []
        for idx, coords in enumerate(op.check["records"]):
            ps = PointSet(coords)
            chi = chirotope_from_points(ps)
            for root in sorted(convex_hull_labels(ps)):
                key = (tuple(map(tuple, coords)), root, levels)
                if key not in self._scores:
                    self._scores[key] = seed_score(RootedChirotope(chi, root), levels)
                expected.append((-self._scores[key], idx, root))
        expected.sort()
        if top:
            expected = expected[:top]
        lines = ["record,root,score"] + [f"{i},{r},{-s}" for s, i, r in expected]
        _expect(rec["stdout"] == "\n".join(lines) + "\n", "search ranking")
        _expect(rec["stderr"] == "", "unexpected notes on stderr")
