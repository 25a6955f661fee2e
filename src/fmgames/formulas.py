"""Formula ASTs in negation normal form, with parser, classifier and checker.

Negation is not a node: the parser dualizes ``!f`` on the fly, so every tree
it produces is already in NNF and the four fragment-mode checks are purely
syntactic.  Concrete syntax::

    true | false | R(x1,x2) | x1=x2 | !R(x1,x2) | !(x1=x2)
    (f & g) | (f | g) | E x1. f | A x1. f | p | !p | <R> f | [R] f

Variables are ``x`` followed by a positive integer.  ``&`` and ``|`` are
left-associative inside one pair of parentheses and may not be mixed there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .structures import Structure, StructureError


class FormulaError(ValueError):
    pass


class Formula:
    def __str__(self) -> str:
        return serialize_formula(self)


@dataclass(frozen=True)
class TrueC(Formula):
    pass


@dataclass(frozen=True)
class FalseC(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    rel: str
    vars: tuple[int, ...]


@dataclass(frozen=True)
class NegAtom(Formula):
    rel: str
    vars: tuple[int, ...]


@dataclass(frozen=True)
class Eq(Formula):
    left: int
    right: int


@dataclass(frozen=True)
class NegEq(Formula):
    left: int
    right: int


@dataclass(frozen=True)
class And(Formula):
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class Exists(Formula):
    var: int
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: int
    body: Formula


@dataclass(frozen=True)
class Prop(Formula):
    name: str


@dataclass(frozen=True)
class NegProp(Formula):
    name: str


@dataclass(frozen=True)
class Dia(Formula):
    rel: str
    body: Formula


@dataclass(frozen=True)
class Box(Formula):
    rel: str
    body: Formula


TRUE = TrueC()
FALSE = FalseC()


def and_(parts: Iterable[Formula]) -> Formula:
    """Conjunction with flattening, duplicate pruning and unit laws."""
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, And):
            sub = p.parts
        else:
            sub = (p,)
        for q in sub:
            if isinstance(q, TrueC):
                continue
            if isinstance(q, FalseC):
                return FALSE
            if q not in flat:
                flat.append(q)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def or_(parts: Iterable[Formula]) -> Formula:
    flat: list[Formula] = []
    for p in parts:
        sub = p.parts if isinstance(p, Or) else (p,)
        for q in sub:
            if isinstance(q, FalseC):
                continue
            if isinstance(q, TrueC):
                return TRUE
            if q not in flat:
                flat.append(q)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def dualize(phi: Formula) -> Formula:
    """Negation by dualization; the result is again in NNF."""
    match phi:
        case TrueC():
            return FALSE
        case FalseC():
            return TRUE
        case Atom(rel, vs):
            return NegAtom(rel, vs)
        case NegAtom(rel, vs):
            return Atom(rel, vs)
        case Eq(l, r):
            return NegEq(l, r)
        case NegEq(l, r):
            return Eq(l, r)
        case And(parts):
            return Or(tuple(dualize(p) for p in parts))
        case Or(parts):
            return And(tuple(dualize(p) for p in parts))
        case Exists(v, body):
            return Forall(v, dualize(body))
        case Forall(v, body):
            return Exists(v, dualize(body))
        case Prop(name):
            return NegProp(name)
        case NegProp(name):
            return Prop(name)
        case Dia(rel, body):
            return Box(rel, dualize(body))
        case Box(rel, body):
            return Dia(rel, dualize(body))
    raise FormulaError(f"unknown node {phi!r}")


def free_vars(phi: Formula) -> frozenset[int]:
    match phi:
        case Atom(_, vs) | NegAtom(_, vs):
            return frozenset(vs)
        case Eq(l, r) | NegEq(l, r):
            return frozenset((l, r))
        case And(parts) | Or(parts):
            out: frozenset[int] = frozenset()
            for p in parts:
                out |= free_vars(p)
            return out
        case Exists(v, body) | Forall(v, body):
            return free_vars(body) - {v}
        case _:
            return frozenset()


def is_modal(phi: Formula) -> bool:
    """True iff the formula contains a modal node (Prop/NegProp/Dia/Box)."""
    match phi:
        case Prop(_) | NegProp(_) | Dia(_, _) | Box(_, _):
            return True
        case And(parts) | Or(parts):
            return any(is_modal(p) for p in parts)
        case Exists(_, body) | Forall(_, body):
            return is_modal(body)
        case _:
            return False


def is_first_order(phi: Formula) -> bool:
    match phi:
        case Prop(_) | NegProp(_) | Dia(_, _) | Box(_, _):
            return False
        case And(parts) | Or(parts):
            return all(is_first_order(p) for p in parts)
        case Exists(_, body) | Forall(_, body):
            return is_first_order(body)
        case _:
            return True


@dataclass(frozen=True)
class Classification:
    rank: int
    var_count: int
    modal_depth: Optional[int]
    in_mode: Mapping[str, bool]


MODES = ("full", "existential", "positive", "ep")


def _node_kinds(phi: Formula, acc: set):
    acc.add(type(phi).__name__)
    match phi:
        case And(parts) | Or(parts):
            for p in parts:
                _node_kinds(p, acc)
        case Exists(_, body) | Forall(_, body) | Dia(_, body) | Box(_, body):
            _node_kinds(body, acc)
        case _:
            pass


def classify(phi: Formula) -> Classification:
    """Quantifier rank, distinct-variable count, modal depth, mode membership."""

    def rank(f: Formula) -> int:
        match f:
            case Exists(_, body) | Forall(_, body):
                return 1 + rank(body)
            case And(parts) | Or(parts):
                return max((rank(p) for p in parts), default=0)
            case Dia(_, body) | Box(_, body):
                return rank(body)
            case _:
                return 0

    def all_vars(f: Formula) -> frozenset[int]:
        match f:
            case Atom(_, vs) | NegAtom(_, vs):
                return frozenset(vs)
            case Eq(l, r) | NegEq(l, r):
                return frozenset((l, r))
            case And(parts) | Or(parts):
                out: frozenset[int] = frozenset()
                for p in parts:
                    out |= all_vars(p)
                return out
            case Exists(v, body) | Forall(v, body):
                return all_vars(body) | {v}
            case _:
                return frozenset()

    def depth(f: Formula) -> int:
        match f:
            case Dia(_, body) | Box(_, body):
                return 1 + depth(body)
            case And(parts) | Or(parts):
                return max((depth(p) for p in parts), default=0)
            case Exists(_, body) | Forall(_, body):
                return depth(body)
            case _:
                return 0

    kinds: set = set()
    _node_kinds(phi, kinds)
    negs = kinds & {"NegAtom", "NegEq", "NegProp"}
    universal = kinds & {"Forall", "Box"}
    in_mode = {
        "full": True,
        "existential": not universal,
        "positive": not negs,
        "ep": not universal and not negs,
    }
    md = depth(phi) if is_modal(phi) else None
    return Classification(rank(phi), len(all_vars(phi)), md, in_mode)


# ---------------------------------------------------------------------------
# Model checking

def model_check(phi: Formula, a: Structure, assignment: Mapping[int, object] | None = None,
                *, world=None) -> bool:
    """Standard satisfaction; modal nodes use Kripke semantics at a world.

    For modal formulas the evaluation world is, in order of preference, the
    explicit ``world``, the single binding of ``assignment``, or the point of
    the structure.
    """
    assignment = dict(assignment or {})
    modal, first_order, free, vocab_error = _scan(phi, a)
    if modal:
        if first_order:
            raise FormulaError("modal and first-order constructs mixed in one formula")
        if not a.vocab.modal_flag:
            raise FormulaError("modal formula on non-modal vocabulary")
        if vocab_error:
            raise FormulaError(vocab_error)
        if world is None:
            if len(assignment) == 1:
                world = next(iter(assignment.values()))
            else:
                world = a.point
        if world is None:
            raise FormulaError("modal formula needs a point or an evaluation world")
        if world not in a.index:
            raise StructureError(f"world {world!r} not in universe")
        return _check_modal(phi, a, world)
    if vocab_error:
        raise FormulaError(vocab_error)
    missing = free - set(assignment)
    if missing:
        raise FormulaError(f"unbound free variable x{min(missing)}")
    return _check_fo(phi, a, assignment)


def _scan(phi: Formula, a: Structure) -> tuple:
    """One walk over ``phi``: whether it has modal nodes, whether it has nodes
    outside modal logic, its free variables, and the first atom or
    proposition that does not fit ``a.vocab`` (a message, or None)."""
    modal = first_order = False
    free: set = set()
    error = None
    stack = [(phi, frozenset())]
    while stack:
        f, bound = stack.pop()
        match f:
            case And(parts) | Or(parts):
                stack.extend((p, bound) for p in parts)
                continue
            case Dia(_, body) | Box(_, body):
                modal = True
                stack.append((body, bound))
                continue
            case Exists(v, body) | Forall(v, body):
                first_order = True
                stack.append((body, bound | {v}))
                continue
            case Eq(l, r) | NegEq(l, r):
                first_order = True
                free.update({l, r} - bound)
                continue
            case Atom(name, vs) | NegAtom(name, vs):
                first_order = True
                free.update(set(vs) - bound)
                arity = len(vs)
            case Prop(name) | NegProp(name):
                modal = True
                arity = 1
            case TrueC() | FalseC():
                continue
            case _:
                first_order = True
                continue
        if error is None:
            if name not in a.vocab.arities:
                error = f"unknown relation {name!r}"
            elif a.vocab.arities[name] != arity:
                error = f"{name} has arity {a.vocab.arities[name]}, used with {arity}"
    return modal, first_order, free, error


def _check_modal(phi: Formula, a: Structure, w) -> bool:
    match phi:
        case TrueC():
            return True
        case FalseC():
            return False
        case Prop(name):
            return (w,) in a.interp[name]
        case NegProp(name):
            return (w,) not in a.interp[name]
        case And(parts):
            return all(_check_modal(p, a, w) for p in parts)
        case Or(parts):
            return any(_check_modal(p, a, w) for p in parts)
        case Dia(rel, body):
            return any(_check_modal(body, a, v) for v in a.successors(rel, w))
        case Box(rel, body):
            return all(_check_modal(body, a, v) for v in a.successors(rel, w))
    raise FormulaError(f"unexpected node {phi!r}")


def _check_fo(phi: Formula, a: Structure, env: dict) -> bool:
    match phi:
        case TrueC():
            return True
        case FalseC():
            return False
        case Atom(rel, vs):
            return tuple(env[v] for v in vs) in a.interp[rel]
        case NegAtom(rel, vs):
            return tuple(env[v] for v in vs) not in a.interp[rel]
        case Eq(l, r):
            return env[l] == env[r]
        case NegEq(l, r):
            return env[l] != env[r]
        case And(parts):
            return all(_check_fo(p, a, env) for p in parts)
        case Or(parts):
            return any(_check_fo(p, a, env) for p in parts)
        case Exists(v, body):
            old = env.get(v)
            for e in a.universe:
                env[v] = e
                if _check_fo(body, a, env):
                    env[v] = old
                    return True
            if old is None:
                env.pop(v, None)
            else:
                env[v] = old
            return False
        case Forall(v, body):
            old = env.get(v)
            for e in a.universe:
                env[v] = e
                if not _check_fo(body, a, env):
                    env[v] = old
                    return False
            if old is None:
                env.pop(v, None)
            else:
                env[v] = old
            return True
    raise FormulaError(f"unexpected node {phi!r}")


def standard_translation(phi: Formula, var: int = 1) -> Formula:
    """First-order translation of a modal formula, one free variable ``x<var>``.

    Boxes are emitted in NNF as  A y. (!R(x,y) | tr(f)_y).
    """

    def tr(f: Formula, x: int) -> Formula:
        y = x + 1
        match f:
            case TrueC() | FalseC():
                return f
            case Prop(name):
                return Atom(name, (x,))
            case NegProp(name):
                return NegAtom(name, (x,))
            case And(parts):
                return and_(tr(p, x) for p in parts)
            case Or(parts):
                return or_(tr(p, x) for p in parts)
            case Dia(rel, body):
                return Exists(y, and_([Atom(rel, (x, y)), tr(body, y)]))
            case Box(rel, body):
                return Forall(y, or_([NegAtom(rel, (x, y)), tr(body, y)]))
        raise FormulaError("standard translation expects a purely modal formula")

    return tr(phi, var)


# ---------------------------------------------------------------------------
# Concrete syntax

_TOKEN_RE = re.compile(r"\s*(?:(?P<id>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[()&|!=.<>\[\],]))")
_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")


def _tokenize(text: str) -> list[str]:
    tokens, i = [], 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m or m.end() == i:
            if text[i:].strip():
                raise FormulaError(f"unexpected character {text[i:].lstrip()[0]!r}")
            break
        tokens.append(m.group("id") or m.group("sym"))
        i = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of formula")
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            raise FormulaError(f"expected {tok!r}, got {got!r}")

    def variable(self) -> int:
        tok = self.next()
        m = _VAR_RE.match(tok)
        if not m:
            raise FormulaError(f"expected a variable (x1, x2, ...), got {tok!r}")
        return int(m.group(1))

    def formula(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of formula")
        if tok == "!":
            self.next()
            return dualize(self.formula())
        if tok == "(":
            self.next()
            first = self.formula()
            op = self.peek()
            if op == ")":
                self.next()
                return first
            if op not in ("&", "|"):
                raise FormulaError(f"expected '&', '|' or ')', got {op!r}")
            parts = [first]
            while self.peek() == op:
                self.next()
                parts.append(self.formula())
            if self.peek() in ("&", "|"):
                raise FormulaError("mixed '&' and '|' inside one group")
            self.expect(")")
            return and_(parts) if op == "&" else or_(parts)
        if tok == "<":
            self.next()
            rel = self.next()
            self.expect(">")
            return Dia(rel, self.formula())
        if tok == "[":
            self.next()
            rel = self.next()
            self.expect("]")
            return Box(rel, self.formula())
        self.next()
        if tok == "true":
            return TRUE
        if tok == "false":
            return FALSE
        if tok in ("E", "A") and self.peek() is not None and _VAR_RE.match(self.peek() or ""):
            var = self.variable()
            self.expect(".")
            body = self.formula()
            return Exists(var, body) if tok == "E" else Forall(var, body)
        m = _VAR_RE.match(tok)
        if m:
            self.expect("=")
            right = self.variable()
            return Eq(int(m.group(1)), right)
        if self.peek() == "(":
            self.next()
            vars_: list[int] = []
            if self.peek() != ")":
                vars_.append(self.variable())
                while self.peek() == ",":
                    self.next()
                    vars_.append(self.variable())
            self.expect(")")
            return Atom(tok, tuple(vars_))
        return Prop(tok)


def parse_formula(text: str) -> Formula:
    parser = _Parser(_tokenize(text))
    phi = parser.formula()
    if parser.peek() is not None:
        raise FormulaError(f"trailing input at {parser.peek()!r}")
    return phi


def serialize_formula(phi: Formula) -> str:
    match phi:
        case TrueC():
            return "true"
        case FalseC():
            return "false"
        case Atom(rel, vs):
            return f"{rel}(" + ",".join(f"x{v}" for v in vs) + ")"
        case NegAtom(rel, vs):
            return f"!{rel}(" + ",".join(f"x{v}" for v in vs) + ")"
        case Eq(l, r):
            return f"x{l}=x{r}"
        case NegEq(l, r):
            return f"!(x{l}=x{r})"
        case And(parts):
            return "(" + " & ".join(serialize_formula(p) for p in parts) + ")"
        case Or(parts):
            return "(" + " | ".join(serialize_formula(p) for p in parts) + ")"
        case Exists(v, body):
            return f"E x{v}. {serialize_formula(body)}"
        case Forall(v, body):
            return f"A x{v}. {serialize_formula(body)}"
        case Prop(name):
            return name
        case NegProp(name):
            return f"!{name}"
        case Dia(rel, body):
            return f"<{rel}> {serialize_formula(body)}"
        case Box(rel, body):
            return f"[{rel}] {serialize_formula(body)}"
    raise FormulaError(f"unknown node {phi!r}")
