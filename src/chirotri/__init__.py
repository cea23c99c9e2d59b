"""Exact combinatorics of planar chirotopes.

Core objects: exact orientation tables (chirotopes) with a distinguished
extreme root, merge operations (join, meet, twist) on them, brute-force
triangulation enumeration as a ground-truth oracle, the recursive
weak-triangulation polynomial calculus that counts triangulations of merged
configurations, the double-circle counting pipeline with its asymptotic law,
and a CLI workbench with a composition expression language.
"""

from .chirotope import (AxiomReport, Chirotope, RootedChirotope,
                        chirotope_from_points, read_chi, segments_cross,
                        write_chi)
from .compose import (LabelMap, chi1, chi_k, convex, double_circle,
                      double_circle_points, join, koch, meet, triangle, twist)
from .errors import (ChirotriError, ConstructionFailed, EmptyInput,
                     ExprSyntaxError, GeneralPositionViolation,
                     InternalInvariantViolation, InvalidTriple, MalformedFile,
                     NotARootedChirotope, NumericalInstability, OracleTooLarge,
                     OutOfRange, SharedEndpoint, TooLarge, TooSmall,
                     WriteFailed)
from .expr import EvalMode, eval_expr, load_rooted, parse_expr, print_expr
from .geometry import PointSet, convex_hull_labels, orient
from .oracle import (DEFAULT_ORACLE_CAP, brute_P, brute_Q,
                     count_triangulations, enumerate_triangulations,
                     enumerate_weak)
from .orderdb import (OrderTypeRecord, iter_order_types, read_order_types,
                      serialize_order_types)
from .polynomials import (BivarPoly, UnivarPoly, chain_P, count_weak_join,
                          join_P, join_Q, meet_P, q_from_p, swap_vars,
                          try_split)
from .search import SearchRow, koch_variant_search, rank_candidates, seed_score

__version__ = "0.1.0"

# the double-circle names load their module, and with it mpmath, on first use
_DOUBLE_CIRCLE = frozenset((
    "AsymptoticConstants", "KernelPoint", "QkTable", "asymptotic_report",
    "constants", "dc_count", "df_series", "f_closed", "f_series", "kernel",
    "qk_step", "small_roots"))


def __getattr__(name):
    if name in _DOUBLE_CIRCLE:
        from . import doublecircle
        return getattr(doublecircle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
