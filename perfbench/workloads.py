"""Seeded inputs for the benchmark workloads.

Every input the program receives is generated here from the workload seed:
``.pts`` files, order-type ``.bin`` databases, expression strings and argv
lists. A workload is a list of *decks*. A deck has a fixed composition (how
many ops of each shape and size, which known-defect inputs) while the seed
draws the contents: point sets, expression shapes, rationals, subcommands,
output formats and the op order. Runs execute whole decks, so every run holds
the same mix whatever the seed.

Sizes are fixed per deck because op cost follows size steeply (a 10-element
oracle merge costs ~5x a 9-element one). Point files are written in a
canonical order, root first and the rest counterclockwise around it, and
database records sorted by coordinates: the oracle's search order follows
the labels, and relabeling one configuration at random swings its time by up
to 4x.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cmp_to_key
from pathlib import Path

from chirotri import (OrderTypeRecord, PointSet, chirotope_from_points,
                      serialize_order_types)

# decks generated per run, about 1.5 runs' worth at the time of writing; a
# run that outlives them starts over
DECKS = {"poly-compose": 6, "oracle-verify": 20, "dc-asymptotics": 10,
         "search-db": 18}


@dataclass
class Op:
    """One benchmark operation and what the checker expects of it.

    ``kind`` is "cli" (``run_cli(argv)``) or "verify" (the oracle
    verification job in ``runner.verify_job``). ``valid`` ops must succeed;
    invalid ones must end in ``error: ...`` with exit code 1. ``defect``
    names a known program defect this input hits at the time of writing.
    """

    kind: str
    argv: list = field(default_factory=list)
    job: dict = field(default_factory=dict)
    check: dict = field(default_factory=dict)
    valid: bool = True
    defect: str | None = None


def _general_position(pts):
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                (ax, ay), (bx, by), (cx, cy) = pts[i], pts[j], pts[k]
                if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) == 0:
                    return False
    return True


def random_points(rng, n, span):
    """n distinct integer points in [0, span)^2 in general position."""
    while True:
        pts = [(rng.randrange(span), rng.randrange(span)) for _ in range(n)]
        if len(set(pts)) == n and _general_position(pts):
            return pts


def radial(pts, root):
    """The points relabeled: the extreme ``root`` first, then the others
    counterclockwise around it (they lie in an open half-plane)."""
    rx, ry = pts[root]

    def order(p, q):
        return -1 if (p[0] - rx) * (q[1] - ry) - (p[1] - ry) * (q[0] - rx) > 0 else 1

    return [pts[root]] + sorted((p for i, p in enumerate(pts) if i != root),
                                key=cmp_to_key(order))


class InputFiles:
    """Writes generated input files into the run's work directory."""

    def __init__(self, workdir: Path):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def path(self, suffix):
        self.count += 1
        return str(self.dir / f"in{self.count:05d}{suffix}")

    def pts(self, rng, n, span=64):
        """A .pts file of n seeded points; returns (path, root label 0)."""
        pts = random_points(rng, n, span)
        chi = chirotope_from_points(PointSet(pts))
        pts = radial(pts, rng.choice(sorted(chi.extreme_elements())))
        path = self.path(".pts")
        Path(path).write_text("".join(f"{x} {y}\n" for x, y in pts))
        return path, 0

    def text(self, suffix, content):
        path = self.path(suffix)
        Path(path).write_text(content)
        return path

    def db(self, records):
        path = self.path(".bin")
        Path(path).write_bytes(serialize_order_types(records))
        return path


# -- poly-compose --------------------------------------------------------------

# The deck's costliest ops: koch(7) and chik(110) (~1.5 s each), then four
# of ~0.4-0.5 s (chik(72) and convex(200), twice each). The 90th percentile
# of a run of whole decks falls inside that group of four, not on the edge
# between two ops of very different cost.
KOCH_LADDER = (4, 5, 6, 7)
CHIK_SIZES = (6, 12, 24, 40, 56, 72, 72, 110)
CONVEX_SIZES = (15, 40, 80, 130, 200, 200)
KOCH_TREE_LEVELS = (4, 4, 5, 5, 6, 6)
SMALL_TREE_LOADS = (0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2)
# atom -> element count, for the small trees the oracle can check
SMALL_ATOMS = {"triangle": 3, "chi1": 4, "convex(4)": 4, "convex(5)": 5,
               "convex(6)": 6, "koch(1)": 4, "koch(2)": 6, "dc(3)": 6,
               "dc(4)": 8}
ORACLE_MAX = 11  # largest result the checker enumerates


def _poly_op(rng, expr, check, **kw):
    if rng.random() < 0.5:
        argv = ["count", "--method", "poly", expr]
        out = "count"
    else:
        argv = ["poly", expr, "--which", "Q"]
        out = "Q"
    return Op("cli", argv, check=dict(check, output=out, expr=expr), **kw)


def koch_tree(rng, level):
    """Text of an expression whose value equals koch(level).

    koch(i) is the join (odd i) or meet (even i) of two copies of koch(i-1),
    so any subtree may be written out one level down; identical operands
    make shared subtrees.
    """
    if level == 2 or (level <= 5 and rng.random() < 0.35):
        return f"koch({level})"
    op = "join" if level % 2 else "meet"
    left = koch_tree(rng, level - 1)
    right = left if rng.random() < 0.5 else koch_tree(rng, level - 1)
    if rng.random() < 0.5:
        return f"{op}({left}, {right})"
    return f"({left} {'v' if op == 'join' else '^'} {right})"


def small_tree(rng, files, loads):
    """A random join/meet/twist/flip tree of at most ORACLE_MAX elements.

    With ``loads`` > 0 that many leaves are ``load(...)`` of seeded 5-9
    point files, which makes the merge take the non-split path.
    """
    leaves = []
    size = 2
    for _ in range(loads):
        # leave room for the other loads: every operand has at least 5 points
        room = ORACLE_MAX - size + 2 - 3 * (loads - 1 - len(leaves))
        n = rng.randint(5, min(9, room))
        path, root = files.pts(rng, n)
        leaves.append((f'load("{path}", {root})', n))
        size += n - 2
    fits = [(a, n) for a, n in SMALL_ATOMS.items() if size + n - 2 <= ORACLE_MAX]
    if fits and (not leaves or rng.random() < 0.6):
        leaves.append(rng.choice(fits))
        if len(leaves) == 1:  # a tree of atoms only: add a second one
            size = leaves[0][1]
            leaves.append(rng.choice([(a, n) for a, n in SMALL_ATOMS.items()
                                      if size + n - 2 <= ORACLE_MAX]))
    rng.shuffle(leaves)
    text, _ = leaves[0]
    for leaf, _ in leaves[1:]:
        op = rng.choice(["join", "meet"])
        text = f"{op}({text}, {leaf})"
        if rng.random() < 0.2:
            text = f"{rng.choice(['twist', 'flip'])}({text})"
    return text


# ill-formed requests, one per deck in turn; None stands for a malformed file
MALFORMED = ("koch(3", "kock(3)", "convex(2)", "join(koch(2))", None,
             "koch(2) v koch(2) ^ koch(2)", "dc(2)")


def _malformed(rng, files, d):
    """The known-defect missing-file request and one ill-formed request."""
    missing = str(files.dir / f"missing-{d}.pts")
    expr = MALFORMED[d % len(MALFORMED)]
    if expr is None:
        expr = f'load("{files.text(".pts", "0 0 0")}", 0)'
    return [_poly_op(rng, f'join(load("{missing}", 0), koch(2))',
                     {"route": "error"}, valid=False, defect="missing-file"),
            _poly_op(rng, expr, {"route": "error"}, valid=False)]


def poly_compose_deck(rng, files, d):
    ops = [_poly_op(rng, f"koch({i})", {"route": "koch", "level": i})
           for i in KOCH_LADDER]
    for k in CHIK_SIZES:
        ops.append(_poly_op(rng, f"chik({k})", {"route": "qk", "k": k}))
    for n in CONVEX_SIZES:
        ops.append(_poly_op(rng, f"convex({n})", {"route": "catalan", "n": n}))
    for level in KOCH_TREE_LEVELS:
        expr = koch_tree(rng, level)
        if rng.random() < 0.2:
            expr = f"flip({expr})"
        ops.append(_poly_op(rng, expr, {"route": "koch", "level": level}))
    for loads in SMALL_TREE_LOADS:
        ops.append(_poly_op(rng, small_tree(rng, files, loads),
                            {"route": "oracle"}))
    ops.extend(_malformed(rng, files, d))
    return ops


# -- oracle-verify -----------------------------------------------------------

# merged sizes, one job each per deck: brute_P takes ~5 ms at 8 elements,
# ~30 ms at 9, ~150 ms at 10 and ~1 s at 11 (left out: one such job swung a
# run's throughput by its 15x spread between configurations). Below 9
# elements loading, merging and the axiom scan cost as much as brute_P.
VERIFY_SIZES = (7, 8) + (9,) * 10 + (10,) * 8


def oracle_verify_deck(rng, files, d):
    ops = []
    for n3 in VERIFY_SIZES:
        n1 = rng.randint(max(4, n3 - 6), min(8, n3 - 2))
        a, ra = files.pts(rng, n1)
        b, rb = files.pts(rng, n3 + 2 - n1)
        job = {"a": a, "ra": ra, "b": b, "rb": rb,
               "op": rng.choice(["join", "meet"])}
        ops.append(Op("verify", job=job, check={"route": "verify", "n3": n3}))
    return ops


# -- dc-asymptotics -------------------------------------------------------------

PRECISIONS = (15, 20, 30, 50, 100, 300, 1000)
LOW_PRECISION_DEFECT = (15, 20)  # "kernel root residual above tolerance"
# (precision, --kmax) of the deck's dc-table ops and (precision, --terms) of
# its kernel-report ops; one 1000-digit kernel report costs ~1.4 s
DC_TABLES = tuple(zip(PRECISIONS * 2, (100, 250, 120, 300, 145, 210, 175,
                                       175, 145, 210, 120, 250, 100, 300)))
KERNEL_REPORTS = tuple(zip(PRECISIONS + (30, 50, 100, 30, 50, 100, 300),
                           (80, 95, 115, 140, 170, 205, 80,
                            250, 205, 170, 140, 115, 95, 250)))


def dc_deck(rng, files, d):
    ops = []
    for dps, kmax in DC_TABLES:
        fmt = rng.choice(["csv", "json"])
        argv = ["--precision", str(dps), "dc-table", "--kmax", str(kmax),
                "--format", fmt]
        ops.append(Op("cli", argv, check={"route": "dc-table", "kmax": kmax,
                                          "format": fmt}))
    for dps, terms in KERNEL_REPORTS:
        p = rng.randint(1, 2)
        q = rng.randint(12 * p + 1, 150)
        argv = ["--precision", str(dps), "kernel-report", "--x", f"{p}/{q}",
                "--terms", str(terms)]
        defect = "low-precision" if dps in LOW_PRECISION_DEFECT else None
        ops.append(Op("cli", argv, check={"route": "kernel", "p": p, "q": q,
                                          "terms": terms, "dps": dps},
                      defect=defect))
    return ops


# -- search-db --------------------------------------------------------------------

# (n, records, levels, --top values) per database of a deck. Each database is
# searched at one level with several --top values, so the checker's
# seed_score calls are shared by the ops on it. Level 7 is left out: one
# level-7 job (1-3 s) outweighed the rest of a deck and made its throughput
# swing; level 6 already runs the non-split meet_P at level 5.
SEARCH_PLAN = (
    (8, 1, 5, (0, 1, 2, 3)),
    (8, 1, 5, (0, 1, 2, 3)),
    (8, 1, 5, (0, 1, 2, 3)),
    (8, 1, 5, (0, 1, 2, 3)),
    (8, 2, 5, (0, 2)),
    (9, 1, 5, (0, 2)),
    (8, 1, 6, (0, 1, 3)),
)
SEARCH_SPANS = {8: 256, 9: 1024}  # 8-bit coordinates for n <= 8


def search_deck(rng, files, d):
    ops = []
    for n, count, levels, tops in SEARCH_PLAN:
        records = [OrderTypeRecord(i, n, tuple(sorted(random_points(
            rng, n, SEARCH_SPANS[n])))) for i in range(count)]
        path = files.db(records)
        check = {"route": "search", "levels": levels,
                 "records": [list(map(list, r.coords)) for r in records]}
        for top in tops:
            argv = ["search", "--db", path, "--n", str(n),
                    "--levels", str(levels)]
            if top:
                argv += ["--top", str(top)]
            ops.append(Op("cli", argv, check=dict(check, top=top)))
    return ops


DECK_BUILDERS = {
    "poly-compose": poly_compose_deck,
    "oracle-verify": oracle_verify_deck,
    "dc-asymptotics": dc_deck,
    "search-db": search_deck,
}


def generate(workload: str, seed: int, workdir) -> list[list[Op]]:
    """Decks of ops for one workload; the same seed gives the same inputs."""
    build = DECK_BUILDERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    files = InputFiles(workdir)
    decks = []
    for d in range(DECKS[workload]):
        ops = build(rng, files, d)
        rng.shuffle(ops)
        decks.append(ops)
    return decks
