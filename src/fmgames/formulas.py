"""Formula ASTs in negation normal form, with parser, classifier and checker.

Negation is not a node: the parser dualizes ``!f`` on the fly, so every tree
it produces is already in NNF and the four fragment-mode checks are purely
syntactic.  Concrete syntax::

    true | false | R(x1,x2) | x1=x2 | !R(x1,x2) | !(x1=x2)
    (f & g) | (f | g) | E x1. f | A x1. f | p | !p | <R> f | [R] f

Variables are ``x`` followed by a positive integer.  ``&`` and ``|`` are
left-associative inside one pair of parentheses and may not be mixed there.

``classify``, ``free_vars`` and ``model_check`` read a formula's syntactic
facts (node kinds, free and all variables, quantifier rank, modal depth and
the symbols of its atoms) off one walk with an explicit stack, ``_walk``,
made once per formula object and kept on it outside its dataclass fields.
``model_check`` then evaluates first-order and modal formulas alike with a
second explicit stack, ``_evaluate``, so all three answer on formulas of any
depth.  The parser, ``serialize_formula``, ``dualize`` and the dataclass
``hash`` and ``==`` of a formula still recurse.

``MODES`` is the one table of the four modes: per mode, whether its
sentences may use negated atoms and whether they may use universal
quantifiers and boxes.  ``classify`` reads mode membership off it, and the
games (partial isomorphism or homomorphism, forth-only or back-and-forth),
the oracle engines and the coalgebra routes read their mode from it too;
``canonical_mode`` maps the aliases onto it and refuses unknown names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional

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


# ---------------------------------------------------------------------------
# Syntactic facts

_MODAL_NODES = frozenset((Prop, NegProp, Dia, Box))
_NOT_FIRST_ORDER = _MODAL_NODES | {TrueC, FalseC, And, Or}
_NEGATIONS = frozenset((NegAtom, NegEq, NegProp))
_UNIVERSALS = frozenset((Forall, Box))


def _walk(phi: Formula) -> tuple:
    """Every syntactic fact ``classify``, ``free_vars`` and ``model_check``
    read, from one walk with an explicit stack: the node classes that occur,
    the free and all variables, quantifier rank, modal depth, and the
    (relation or proposition, arity) of each atom in walk order.

    A stack entry holds a node, the variables bound above it and the numbers
    of quantifier and modal nodes above it.  The body of a modal node gets
    None for its bound set and yields no variables: Kripke semantics gives
    it none of its own.
    """
    kinds: set = set()
    free: set = set()
    quantified: set = set()
    symbols: list = []
    rank = depth = 0
    stack = [(phi, frozenset(), 0, 0)]
    push = stack.append
    while stack:
        f, bound, q, m = stack.pop()
        t = type(f)
        kinds.add(t)
        if t is And or t is Or:
            for p in f.parts:
                push((p, bound, q, m))
        elif t is Atom or t is NegAtom or t is Eq or t is NegEq:
            if t is Atom or t is NegAtom:
                vs = f.vars
                symbols.append((f.rel, len(vs)))
            else:
                vs = (f.left, f.right)
            if bound is not None:
                for v in vs:
                    if v not in bound:
                        free.add(v)
        elif t is Exists or t is Forall:
            q += 1
            if q > rank:
                rank = q
            if bound is not None:
                quantified.add(f.var)
                bound = bound | {f.var}
            push((f.body, bound, q, m))
        elif t is Dia or t is Box:
            m += 1
            if m > depth:
                depth = m
            push((f.body, None, q, m))
        elif t is Prop or t is NegProp:
            symbols.append((f.name, 1))
    # a variable of an atom is free there or bound by a quantifier above it
    free = frozenset(free)
    return frozenset(kinds), free, free | quantified, rank, depth, tuple(symbols)


def _facts(phi: Formula) -> tuple:
    """``_walk(phi)``, walked once per formula object: the facts are kept in
    the object's ``__dict__``, which the dataclass ``==``, ``hash`` and
    ``repr`` do not read, and a formula never changes."""
    facts = phi.__dict__.get("_facts")
    if facts is None:
        facts = _walk(phi)
        object.__setattr__(phi, "_facts", facts)  # past the frozen dataclass guard
    return facts


def free_vars(phi: Formula) -> frozenset[int]:
    """The variables that occur free outside modal nodes."""
    return _facts(phi)[1]


@dataclass(frozen=True)
class Classification:
    rank: int
    var_count: int
    modal_depth: Optional[int]
    in_mode: Mapping[str, bool]


class Mode(NamedTuple):
    negations: bool   # negated atoms: the partial-isomorphism condition
    universals: bool  # universal quantifiers and boxes: Duplicator's back moves


#: What the sentences of each mode may use, read by every engine: without
#: universals the comparison is forth-only, and without negations partial
#: isomorphism weakens to partial homomorphism.
MODES = {
    "full": Mode(negations=True, universals=True),
    "existential": Mode(negations=True, universals=False),
    "positive": Mode(negations=False, universals=True),
    "ep": Mode(negations=False, universals=False),
}

_MODE_ALIASES = {"existential-positive": "ep", "exists": "existential"}


def canonical_mode(mode: str) -> str:
    mode = _MODE_ALIASES.get(mode, mode)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def classify(phi: Formula) -> Classification:
    """Quantifier rank, distinct-variable count, modal depth, mode membership."""
    kinds, _, variables, rank, depth, _ = _facts(phi)
    negated = not kinds.isdisjoint(_NEGATIONS)
    universal = not kinds.isdisjoint(_UNIVERSALS)
    in_mode = {name: (m.negations or not negated) and (m.universals or not universal)
               for name, m in MODES.items()}
    return Classification(rank, len(variables),
                          None if kinds.isdisjoint(_MODAL_NODES) else depth, in_mode)


# ---------------------------------------------------------------------------
# Model checking

def model_check(phi: Formula, a: Structure, assignment: Mapping[int, object] | None = None,
                *, world=None) -> bool:
    """Standard satisfaction; modal nodes use Kripke semantics at a world.

    For modal formulas the evaluation world is, in order of preference, the
    explicit ``world``, the single binding of ``assignment``, or the point of
    the structure.  A world or binding outside the universe raises
    ``StructureError``.
    """
    assignment = dict(assignment or {})
    kinds, free, _, _, _, symbols = _facts(phi)
    vocab_error = _vocab_error(symbols, a.vocab.arities)
    if not kinds.isdisjoint(_MODAL_NODES):
        if not kinds <= _NOT_FIRST_ORDER:
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
        return _evaluate(phi, a, assignment, world)
    if vocab_error:
        raise FormulaError(vocab_error)
    missing = free - set(assignment)
    if missing:
        raise FormulaError(f"unbound free variable x{min(missing)}")
    for var, e in sorted(assignment.items()):
        if e not in a.index:
            raise StructureError(f"x{var} bound to {e!r}, not in universe")
    return _evaluate(phi, a, assignment, None)


def _vocab_error(symbols: list, arities: Mapping[str, int]) -> Optional[str]:
    """The first symbol that does not fit the vocabulary, as a message."""
    for name, arity in symbols:
        if name not in arities:
            return f"unknown relation {name!r}"
        if arities[name] != arity:
            return f"{name} has arity {arities[name]}, used with {arity}"
    return None


# in ``_evaluate``: an unbound variable's old binding, a frame slot left
# empty, and the end of an iterator
_UNBOUND = object()


def _evaluate(phi: Formula, a: Structure, env: dict, w) -> bool:
    """Whether ``phi`` holds in ``a`` under the assignment ``env`` at the
    world ``w``, by a walk with an explicit stack.

    Each And, Or, quantifier and modal node under evaluation has a frame:
    the value that decides it (True for Or, Exists and Dia, False for And,
    Forall and Box), an iterator over what is left to try (its parts, the
    universe or the successors of the current world), its body and variable
    (both ``_UNBOUND`` for a connective, the variable for a modal node), and
    what to restore on exit (the variable's old binding, or the old world).
    A node's value is handed up until a frame has something left to try; a
    decided or exhausted frame pops, so And and Or short-circuit and an
    empty one is its own unit.
    """
    interp = a.interp
    stack: list = []
    push, pop = stack.append, stack.pop
    f = phi
    while True:
        t = type(f)
        if t is Atom or t is NegAtom:
            vs = f.vars
            # binary atoms, the common case, skip building a tuple by map
            held = ((env[vs[0]], env[vs[1]]) if len(vs) == 2
                    else tuple(map(env.__getitem__, vs))) in interp[f.rel]
            val = held if t is Atom else not held
        elif t is And or t is Or:
            val = t is And
            push((not val, iter(f.parts), _UNBOUND, _UNBOUND, None))
        elif t is Eq:
            val = env[f.left] == env[f.right]
        elif t is NegEq:
            val = env[f.left] != env[f.right]
        elif t is Exists or t is Forall:
            val = t is Forall
            push((not val, iter(a.universe), f.body, f.var, env.get(f.var, _UNBOUND)))
        elif t is TrueC:
            val = True
        elif t is FalseC:
            val = False
        elif t is Prop:
            val = (w,) in interp[f.name]
        elif t is NegProp:
            val = (w,) not in interp[f.name]
        elif t is Dia or t is Box:
            val = t is Box
            push((not val, iter(a.successors(f.rel, w)), f.body, _UNBOUND, w))
        else:
            raise FormulaError(f"unexpected node {f!r}")
        while stack:
            decisive, it, body, var, old = stack[-1]
            if val is not decisive:
                nxt = next(it, _UNBOUND)
                if nxt is not _UNBOUND:
                    if body is _UNBOUND:
                        f = nxt
                    elif var is _UNBOUND:
                        w, f = nxt, body
                    else:
                        env[var] = nxt
                        f = body
                    break
            pop()
            if var is not _UNBOUND:
                if old is _UNBOUND:
                    env.pop(var, None)
                else:
                    env[var] = old
            elif body is not _UNBOUND:
                w = old
        else:
            return val


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
