"""Composition expression language: parser, printer, and two-mode evaluator.

Grammar::

    expr    := term { ('v' | '^') term }          # infix join / meet
    term    := IDENT [ '(' [ arg { ',' arg } ] ')' ] | '(' expr ')'
    arg     := expr for join/meet/twist/flip, else value

``join``/``meet`` calls take two or more arguments and fold left; ``twist``
and ``flip`` take exactly one. Infix ``v`` and ``^`` share one precedence
level and may not be mixed without parentheses. Atom builtins: ``triangle``,
``convex(n)``, ``chi1``, ``chik(k)``, ``koch(i)``, ``dc(k)``,
``load("path"[, root])``.

One table, ``_ATOMS``, says what each builtin atom is: its arity, its
builder, the element count it will build and, for the generators, its
polynomial route through small leaves. One tree walk evaluates an
expression under one of two operation tables keyed by node type. The
materializing table builds the rooted chirotope with ``compose`` and
refuses any result beyond the oracle cap, and any generator that would
build one. The polynomial table propagates weak-triangulation polynomials
without ever materializing a large chirotope, so any level is reachable:
``koch(i)`` is rewritten into shared self-merges of one triangle, and
``convex(n)`` and ``chik(k)``, chains of one triangle or chi1 leaf, run as
one row recurrence (``polynomials.chain_P``). A chain spelled out by hand,
``join(chi1, chi1, ...)`` or ``chi1 v chi1 v ...``, takes the general
path, one ``join_P`` per link, and so is a second route to the generators.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, fields
from functools import reduce
from pathlib import Path
from typing import NamedTuple

from . import compose
from .chirotope import (Chirotope, RootedChirotope, chirotope_from_points,
                        read_chi)
from .errors import (ExprSyntaxError, MalformedFile, NotARootedChirotope,
                     OutOfRange, TooLarge, cannot_access, clip)
from .geometry import PointSet
from .oracle import DEFAULT_ORACLE_CAP, brute_P
from .polynomials import chain_P, exact_str, join_P, meet_P, swap_vars


# -- AST ----------------------------------------------------------------------


def _hash_once(self):
    key = tuple([getattr(self, name) for name in self._field_names])
    object.__setattr__(self, "_hash", hash((type(self).__name__, key)))


def _cached_hash(self):
    return self._hash


def _spine_eq(self, other):
    """Field-wise equality that loops down Join/Meet left children."""
    if type(other) is not type(self):
        return NotImplemented
    a, b = self, other
    while a is not b:
        if type(a) is not type(b) or a._hash != b._hash:
            return False
        if not isinstance(a, (Join, Meet)):
            return all(getattr(a, name) == getattr(b, name)
                       for name in a._field_names)
        if a.right != b.right:
            return False
        a, b = a.left, b.left
    return True


def _node(cls):
    """Frozen dataclass that hashes its subtree once, when it is built.

    The evaluation memo hashes every node it visits; a generated dataclass
    hash would recurse through the whole subtree each time, which is O(k^2)
    over a left-nested chain of k joins. For the same reason equality loops
    down left children: the generated one recurses, and two equal chains of
    a thousand joins would exceed the recursion limit. The field names are
    read once per class, not once per node.
    """
    cls.__post_init__ = _hash_once
    cls.__hash__ = _cached_hash
    cls.__eq__ = _spine_eq
    cls = dataclass(frozen=True)(cls)
    cls._field_names = tuple(f.name for f in fields(cls))
    return cls


@_node
class Atom:
    name: str
    args: tuple = ()


@_node
class Join:
    left: object
    right: object


@_node
class Meet:
    left: object
    right: object


@_node
class Twist:
    inner: object


@_node
class Flip:
    inner: object


# -- tokenizer / parser -------------------------------------------------------


class _Tok(NamedTuple):  # a frozen dataclass takes twice as long to build
    kind: str  # IDENT NUMBER STRING ( ) , ^ EOF
    text: str
    line: int
    col: int


# leading whitespace, then one token or nothing: nothing means the end of
# the text or a character that starts no token
_TOKEN = re.compile(r'\s*(?:(?P<PUNCT>[(),^])|(?P<STRING>"[^"]*")'
                    r'|(?P<NUMBER>\d+)|(?P<IDENT>[^\W\d]\w*))?')


def _tokenize(src: str):
    """Tokens of ``src``; a token's line counts every newline before it,
    one inside a quoted string too."""
    toks, pos, seen, line, line_start = [], 0, 0, 1, 0
    while True:
        m = _TOKEN.match(src, pos)
        kind, pos = m.lastgroup, m.end()
        start = m.start(kind) if kind else pos
        if (nl := src.count("\n", seen, start)):
            line += nl
            line_start = src.rfind("\n", seen, start) + 1
        seen, col = start, start - line_start + 1
        if kind is None:
            if pos == len(src):
                toks.append(_Tok("EOF", "", line, col))
                return toks
            ch = src[pos]
            raise ExprSyntaxError("unterminated string" if ch == '"' else
                                  f"unexpected character {ch!r}", line, col)
        text = m[kind]
        toks.append(_Tok(text if kind == "PUNCT" else kind,
                         text[1:-1] if kind == "STRING" else text, line, col))


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found "
                                  f"{clip(t.text or t.kind)}", t.line, t.col)
        return self.next()

    def expr(self):
        node = self.term()
        seen_op = None
        while True:
            t = self.peek()
            if t.kind == "^":
                op = "^"
            elif t.kind == "IDENT" and t.text == "v":
                op = "v"
            else:
                return node
            if seen_op is None:
                seen_op = op
            elif op != seen_op:
                raise ExprSyntaxError(
                    "parentheses required to mix infix join and meet",
                    t.line, t.col)
            self.next()
            rhs = self.term()
            node = Join(node, rhs) if op == "v" else Meet(node, rhs)

    def term(self):
        t = self.next()
        if t.kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if t.kind != "IDENT":
            raise ExprSyntaxError(f"expected an expression, found "
                                  f"{clip(t.text or t.kind)}", t.line, t.col)
        name = t.text
        call = _CALLS.get(name)
        if call is None and name not in _ATOMS:
            raise ExprSyntaxError(f"unknown identifier {clip(name)}", t.line, t.col)
        # entries parse in this frame: a nested call adds 2 stack frames, not 3
        parse, args = (self.value if call is None else self.expr), []
        for _ in self.args():
            args.append(parse())
        lo, hi = (call or _ATOMS[name])[:2]
        if len(args) < lo or hi is not None and len(args) > hi:
            most = "" if hi == lo else " or more" if hi is None else f" to {hi}"
            raise ExprSyntaxError(f"{name} takes {lo}{most} argument(s), got "
                                  f"{len(args)}", t.line, t.col)
        if call is not None:
            return call[2](*args) if hi == 1 else reduce(call[2], args)
        if name == "load":
            if not isinstance(args[0], str):
                raise ExprSyntaxError("load needs a quoted path", t.line, t.col)
            if len(args) == 2 and not isinstance(args[1], int):
                raise ExprSyntaxError("load root must be an integer", t.line, t.col)
        elif any(not isinstance(a, int) for a in args):
            raise ExprSyntaxError(f"{name} takes integer arguments", t.line, t.col)
        return Atom(name, tuple(args))

    def args(self):
        """Yield at each entry of a parenthesized, comma-separated list, for
        the caller to parse it; nothing when no parenthesis follows."""
        if self.peek().kind != "(":
            return
        self.next()
        if self.peek().kind != ")":
            yield
            while self.peek().kind == ",":
                self.next()
                yield
        self.expect(")")

    def value(self):
        t = self.peek()
        if t.kind == "NUMBER":
            self.next()
            try:
                return int(t.text)
            except ValueError:  # more digits than Python's int-from-str limit
                raise ExprSyntaxError(
                    f"cannot read an integer from {len(t.text)} digit "
                    f"character(s)", t.line, t.col) from None
        if t.kind == "STRING":
            self.next()
            return t.text
        raise ExprSyntaxError(f"expected a number or string, found "
                              f"{clip(t.text or t.kind)}", t.line, t.col)


def parse_expr(src: str):
    p = _Parser(_tokenize(src))
    try:
        node = p.expr()
    except RecursionError:
        t = p.peek()
        raise ExprSyntaxError("expression nested too deeply", t.line,
                              t.col) from None
    t = p.peek()
    if t.kind != "EOF":
        raise ExprSyntaxError(f"trailing input {clip(t.text)}", t.line, t.col)
    return node


def print_expr(e) -> str:
    """Canonical text form; reparsing reproduces the identical tree.

    A left spine of one operator prints as one flat call, ``join(a, b, c)``
    for Join(Join(a, b), c), which the grammar folds back to the left; the
    spine is walked with a loop, so a long infix chain neither recurses
    deeply here nor nests deeply in the text.
    """
    if isinstance(e, Atom):
        if not e.args:
            return e.name
        rendered = ", ".join(f'"{a}"' if isinstance(a, str) else str(a)
                             for a in e.args)
        return f"{e.name}({rendered})"
    if isinstance(e, (Join, Meet)):
        op = type(e)
        operands = []
        while type(e) is op:
            operands.append(e.right)
            e = e.left
        operands.append(e)
        rendered = ", ".join(map(print_expr, reversed(operands)))
        return f"{'join' if op is Join else 'meet'}({rendered})"
    if isinstance(e, Twist):
        return f"twist({print_expr(e.inner)})"
    return f"flip({print_expr(e.inner)})"


# -- evaluation ----------------------------------------------------------------


class EvalMode(enum.Enum):
    MATERIALIZE = "materialize"
    POLYNOMIAL = "polynomial"


def load_chirotope(path: str) -> tuple[Chirotope, int | None]:
    """Load a ``.chi`` or ``.pts`` file; returns (chirotope, root or None).

    A ``.pts`` file names no root; a ``.chi`` file may.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedFile(cannot_access("read", path, exc)) from exc
    if str(path).endswith(".pts"):
        return chirotope_from_points(PointSet.from_text(text)), None
    return read_chi(text)


def load_rooted(path: str, root: int | None = None) -> RootedChirotope:
    """Load a rooted chirotope from a ``.chi`` or ``.pts`` file."""
    chi, file_root = load_chirotope(path)
    root = file_root if root is None else root
    if root is None:
        raise NotARootedChirotope(f"{path}: no root given and none in the file")
    return RootedChirotope(chi, root)


def _koch_tree(level: int):
    """koch(level) as alternate self-joins and self-meets of one triangle."""
    node = Atom("triangle")
    for i in range(1, level + 1):
        node = Join(node, node) if i % 2 == 1 else Meet(node, node)
    return node


# combinator name -> (fewest args, most args or None for no most, node type)
_CALLS = {"join": (2, None, Join), "meet": (2, None, Meet),
          "twist": (1, 1, Twist), "flip": (1, 1, Flip)}

# name -> (fewest args, most args, builder, element count, polynomial route).
# The builder is named, not stored: a function of ``compose``, or
# ``load_rooted`` of this module, looked up at each call, so that rebinding
# it takes effect. The element count and the route take the atom's
# arguments and give None outside the generator's domain, where the builder
# raises its own typed error. The route is (tree, links): the atom's
# polynomial is that of a chain of ``links`` copies of ``tree``. koch has no
# element count: the materializing table compares 2**i + 2 with the cap
# from the level alone.
_ATOMS = {
    "triangle": (0, 0, "triangle", None, None),
    "chi1": (0, 0, "chi1", None, None),
    "convex": (1, 1, "convex", lambda n: n if n >= 3 else None,
               lambda n: (Atom("triangle"), n - 2) if n >= 3 else None),
    "chik": (1, 1, "chi_k", lambda k: 2 * k + 2 if k >= 1 else None,
             lambda k: (Atom("chi1"), k) if k >= 1 else None),
    "koch": (1, 1, "koch", None,
             lambda i: (_koch_tree(i), 1) if i >= 0 else None),
    "dc": (1, 1, "double_circle", None, None),
    "load": (1, 2, "load_rooted", None, None),
}


def _build(e: Atom) -> RootedChirotope:
    name = _ATOMS[e.name][2]
    build = load_rooted if name == "load_rooted" else getattr(compose, name)
    return build(*e.args)


def _materialize_ops(cap: int) -> dict:
    """Node type -> compose operation; every result above ``cap`` elements,
    and every generator that would build one, is refused."""
    def refuse(size):
        raise TooLarge(
            f"materialized result has {size} elements, above the oracle "
            f"cap {exact_str(cap)}; use the polynomial mode")

    def fit(n):
        if n is not None and n > cap:
            refuse(exact_str(n))

    def capped(rc):
        fit(rc.chi.n)
        return rc

    def atom(e, memo):
        if e.name == "koch" and (i := e.args[0]) >= max(cap - 2, 0).bit_length():
            refuse(f"2^{i} + 2")  # exactly when 2**i + 2 > cap
        size = _ATOMS[e.name][3]
        fit(size and size(*e.args))
        return capped(_build(e))

    return {Atom: atom,
            Join: lambda a, b: capped(compose.join(a, b)[0]),
            Meet: lambda a, b: capped(compose.meet(a, b)[0]),
            Twist: lambda rc: capped(compose.twist(rc)),
            Flip: lambda rc: capped(RootedChirotope(rc.chi.flipped(), rc.root))}


def _polynomial_ops(cap: int) -> dict:
    """Node type -> weak-triangulation polynomial operation. A generator
    atom is evaluated by its route through small leaves; any other atom is
    built and enumerated by the oracle under ``cap``."""
    def atom(e, memo):
        make_route = _ATOMS[e.name][4]
        route = make_route and make_route(*e.args)
        if route is None:
            return brute_P(_build(e), cap=cap)
        tree, links = route
        if links > 1:  # one leaf for all chains of the expression
            memo.setdefault(tree, None)
        return chain_P(_eval(tree, ops, memo), links)

    # a flip reverses every orientation, which leaves crossings unchanged
    ops = {Atom: atom, Join: join_P, Meet: meet_P, Twist: swap_vars,
           Flip: lambda p: p}
    return ops


def eval_expr(e, mode: EvalMode = EvalMode.MATERIALIZE,
              oracle_cap: int | None = None):
    """Evaluate an expression tree; see EvalMode for the two strategies.

    The operation table is built at each call, so a function rebound since
    import (by a test or a tracer) takes effect.
    """
    cap = DEFAULT_ORACLE_CAP if oracle_cap is None else oracle_cap
    make_ops = {EvalMode.MATERIALIZE: _materialize_ops,
                EvalMode.POLYNOMIAL: _polynomial_ops}.get(mode)
    if make_ops is None:
        raise OutOfRange(f"unknown mode {mode!r}")
    return _eval(e, make_ops(cap), {})


def _shared(e) -> set:
    """The nodes that the tree of ``e`` reaches more than once; equal
    subtrees count as one node."""
    seen, shared = set(), set()
    stack = [e]
    while stack:
        node = stack.pop()
        if node in seen:
            shared.add(node)
            continue
        seen.add(node)
        if isinstance(node, (Join, Meet)):
            stack += (node.left, node.right)
        elif isinstance(node, (Twist, Flip)):
            stack.append(node.inner)
    return shared


def _eval(e, ops: dict, memo: dict):
    """Value of ``e`` under ``ops``; a node that the tree of ``e`` reaches
    more than once is computed once.

    ``memo`` holds a key for every such node, with its value, or None until
    that is computed. Other nodes are not kept, so a chain keeps none of its
    intermediate values alive. Each level of a koch rewrite is reached
    twice, so it is kept: ``koch(3)`` and ``koch(4)`` in one expression
    compute the levels of ``koch(3)`` once.
    """
    for node in _shared(e):
        memo.setdefault(node, None)
    return _walk(e, ops, memo)


def _walk(e, ops: dict, memo: dict):
    """A chain of k infix merges nests k deep on the left, so the walk loops
    down Join/Meet left children to a memo hit or another node, then merges
    back up the spine; only right and Twist/Flip operands recurse."""
    spine = []
    while (value := memo.get(e)) is None and isinstance(e, (Join, Meet)):
        spine.append(e)
        e = e.left
    if value is None:
        op = ops.get(type(e))
        if op is None:
            raise OutOfRange(f"not an expression node: {e!r}")
        value = op(e, memo) if type(e) is Atom else op(_walk(e.inner, ops, memo))
        if e in memo:
            memo[e] = value
    for node in reversed(spine):
        value = ops[type(node)](value, _walk(node.right, ops, memo))
        if node in memo:
            memo[node] = value
    return value
