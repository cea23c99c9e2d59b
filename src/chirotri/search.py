"""Search harness: grow database seeds through the alternating merge pipeline.

Each candidate rooted chirotope becomes the level-3 stage of the alternating
construction (join at odd levels, meet at even levels, both operands the
previous level). The levels below the last two carry full weak-triangulation
polynomials. A weak count at level L only needs the totals of level L - 1
per root degree of the last merge; they are summed in one binomial form
from the rows of level L - 2, so neither of the last two polynomials is
built. A database search tries every extreme element of every record as
the root. Candidates are scored one after another in one process: the
merges are pure-Python big-integer work that threads cannot overlap, and
one score takes milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chirotope import RootedChirotope, chirotope_from_points
from .errors import OutOfRange
from .oracle import brute_P
from .polynomials import (binomial_form, count_weak_join, join_P, meet_P,
                          q_from_p, self_merge_totals)

SEED_LEVEL = 3


@dataclass(frozen=True)
class SearchRow:
    record: object  # record index or candidate name
    root: int
    score: int


def check_pipeline(levels: int, metric: str) -> None:
    """Raise OutOfRange unless ``seed_score`` can run these arguments."""
    if levels < SEED_LEVEL + 1 or levels > 8:
        raise OutOfRange(
            f"levels must be in 4..8, got {levels}: level 3 is the seed, and "
            "level 9 would build a level-7 polynomial, about 0.7 s per root of "
            "a 9-point seed, 20 times level 8")
    if metric not in ("weak", "count"):
        raise OutOfRange(f"metric must be 'weak' or 'count', got {metric!r}")


def _kind(level: int) -> str:
    """The merge that builds a level: a join at odd levels, a meet at even."""
    return "join" if level % 2 == 1 else "meet"


def seed_score(rc: RootedChirotope, levels: int, metric: str = "weak",
               cap: int | None = None) -> int:
    """Score of a seed after growing it from level 3 to the given level.

    metric="weak" counts weak triangulations of the final level from the
    per-root-degree totals of the level before it, which are read off the
    level before that (``self_merge_totals``); metric="count" counts true
    triangulations and needs the final polynomial in full. cap is the
    oracle's element cap for the seed; None means the oracle default.
    """
    check_pipeline(levels, metric)
    p = brute_P(rc, cap=cap)
    built = levels if metric == "count" else levels - 2
    for level in range(SEED_LEVEL + 1, built + 1):
        p = join_P(p, p) if _kind(level) == "join" else meet_P(p, p)
    if metric == "count":
        return q_from_p(p)(1)
    if built < SEED_LEVEL:  # levels == 4: the seed is the level before
        return count_weak_join(p, p, _kind(levels))
    totals = self_merge_totals(p, _kind(levels - 1))
    return binomial_form(totals, totals)


def rank_candidates(candidates, levels: int, metric: str = "weak",
                    cap: int | None = None):
    """Rank (key, root, rooted chirotope) candidates by descending score.

    Ties break on (key, root), so the ranking does not depend on the order
    of the candidates.
    """
    rows = [SearchRow(key, root, seed_score(rc, levels, metric, cap))
            for key, root, rc in candidates]
    rows.sort(key=lambda r: (-r.score, r.record, r.root))
    return rows


def koch_variant_search(records, levels: int, metric: str = "weak",
                        cap: int | None = None):
    """Run the pipeline over database records, one candidate per extreme root.

    Returns the ranked rows (see ``rank_candidates``).
    """
    candidates = []
    for rec in records:
        chi = chirotope_from_points(rec.point_set())
        for root in sorted(chi.extreme_elements()):
            candidates.append((rec.index, root, RootedChirotope(chi, root)))
    return rank_candidates(candidates, levels, metric, cap)
