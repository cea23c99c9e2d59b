"""Search harness: grow database seeds through the alternating merge pipeline.

Each candidate rooted chirotope becomes the level-3 stage of the alternating
construction (join at odd levels, meet at even levels, both operands the
previous level). Intermediate levels carry full weak-triangulation
polynomials; the final level is scored through the marginal count only, so
the last bivariate polynomial is never built. A database search tries every
extreme element of every record as the root. Candidates are scored one
after another in one process: the merges are pure-Python big-integer work
that threads cannot overlap, and one score takes milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chirotope import RootedChirotope, chirotope_from_points
from .errors import OutOfRange
from .oracle import brute_P
from .polynomials import count_weak_join, join_P, meet_P, q_from_p

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
            f"level 9 would build a level-8 polynomial, about 46 s for a "
            f"9-point seed")
    if metric not in ("weak", "count"):
        raise OutOfRange(f"metric must be 'weak' or 'count', got {metric!r}")


def seed_score(rc: RootedChirotope, levels: int, metric: str = "weak",
               cap: int | None = None) -> int:
    """Score of a seed after growing it from level 3 to the given level.

    metric="weak" counts weak triangulations of the final level (marginal
    trick); metric="count" counts true triangulations and needs the final
    polynomial in full. cap is the oracle's element cap for the seed;
    None means the oracle default.
    """
    check_pipeline(levels, metric)
    p = brute_P(rc, cap=cap)
    for level in range(SEED_LEVEL + 1, levels):
        p = join_P(p, p) if level % 2 == 1 else meet_P(p, p)
    final_kind = "join" if levels % 2 == 1 else "meet"
    if metric == "weak":
        return count_weak_join(p, p, final_kind)
    full = join_P(p, p) if final_kind == "join" else meet_P(p, p)
    return q_from_p(full)(1)


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
