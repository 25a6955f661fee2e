"""Finite relational vocabularies and structures.

Structures are immutable after construction and safe to share across
concurrent queries.  Each keeps a ``memo`` of what is built from it alone;
two queries that fill the same entry at once build equal values.  Element
ids are opaque hashable tokens; the canonical element order is declaration
order, which makes every search and serializer in this package
deterministic.

Structure file grammar (UTF-8, line oriented, ``#`` starts a comment)::

    vocab E/2 P/1
    structure A
    elems a b c
    rel E a b
    rel E b c
    point a
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, Iterator, Mapping, Optional

ElementId = Hashable

#: Reserved binary relation name used as the equality surrogate.  User
#: structures may not declare it; only :func:`expand_i` introduces it.
EQUALITY_SYMBOL = "I"


class StructureError(ValueError):
    """Invalid structure, vocabulary or map between structures."""


class ParseError(StructureError):
    """Structure/coalgebra text that does not conform to the grammar."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Vocabulary:
    """A finite relational vocabulary: relation names with arities."""

    relations: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.relations]
        if len(set(names)) != len(names):
            raise StructureError(f"duplicate relation names in vocabulary: {names}")
        for name, arity in self.relations:
            if arity < 0:
                raise StructureError(f"negative arity for {name}")

    @cached_property
    def arities(self) -> dict[str, int]:
        return dict(self.relations)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.relations)

    def arity(self, name: str) -> int:
        try:
            return self.arities[name]
        except KeyError:
            raise StructureError(f"unknown relation {name!r}") from None

    @cached_property
    def modal_flag(self) -> bool:
        """True iff every arity is 1 or 2, i.e. the vocabulary is modal."""
        return all(arity in (1, 2) for _, arity in self.relations)

    @cached_property
    def unary(self) -> tuple[str, ...]:
        return tuple(n for n, a in self.relations if a == 1)

    @cached_property
    def binary(self) -> tuple[str, ...]:
        return tuple(n for n, a in self.relations if a == 2)

    def with_equality_symbol(self) -> "Vocabulary":
        if EQUALITY_SYMBOL in self.arities:
            raise StructureError(f"vocabulary already contains {EQUALITY_SYMBOL}")
        return Vocabulary(self.relations + ((EQUALITY_SYMBOL, 2),))

    def without_equality_symbol(self) -> "Vocabulary":
        return Vocabulary(tuple(r for r in self.relations if r[0] != EQUALITY_SYMBOL))


@dataclass(frozen=True)
class Structure:
    """A finite structure: universe plus an interpretation per relation.

    ``point`` marks a pointed (Kripke) structure; modal operations require
    it.  ``name`` is cosmetic and excluded from equality.
    """

    vocab: Vocabulary
    universe: tuple
    interp: Mapping[str, frozenset]
    point: Optional[ElementId] = None
    name: str = field(default="A", compare=False)

    def __post_init__(self):
        elems = set(self.universe)
        if len(elems) != len(self.universe):
            raise StructureError("duplicate elements in universe")
        for rel, arity in self.vocab.relations:
            tuples = self.interp.get(rel, frozenset())
            for tup in tuples:
                if len(tup) != arity:
                    raise StructureError(f"tuple {tup!r} has wrong arity for {rel}/{arity}")
                for x in tup:
                    if x not in elems:
                        raise StructureError(f"tuple {tup!r} of {rel} uses element outside universe")
        extra = set(self.interp) - set(self.vocab.names)
        if extra:
            raise StructureError(f"interpretation for undeclared relations: {sorted(map(str, extra))}")
        if self.point is not None and self.point not in elems:
            raise StructureError(f"point {self.point!r} not in universe")

    @classmethod
    def make(cls, vocab, universe, interp=None, point=None, name="A") -> "Structure":
        """Normalising constructor: fills missing relations with empty sets."""
        if isinstance(vocab, (list, tuple)) and not isinstance(vocab, Vocabulary):
            vocab = Vocabulary(tuple((n, a) for n, a in vocab))
        interp = dict(interp or {})
        full = {rel: frozenset(map(tuple, interp.get(rel, ()))) for rel, _ in vocab.relations}
        return cls(vocab, tuple(universe), full, point, name)

    @cached_property
    def index(self) -> dict:
        return {e: i for i, e in enumerate(self.universe)}

    @cached_property
    def memo(self) -> dict:
        """What builders derive from this structure alone, built once: the
        EF cofree coalgebras (``coalgebras.build_ef``), the oracle's
        assignment tables and literal descriptors (``oracle._fo_engine``)
        and the atomic types of the ordered pairs of elements that the
        pebble attractor compares (``games._pair_types``).  It lives as long
        as the structure and is sound because a structure is never mutated."""
        return {}

    @property
    def size(self) -> int:
        return len(self.universe)

    def successors(self, rel: str, elem: ElementId) -> list:
        """R-successors of ``elem`` in canonical order (binary relations)."""
        if self.vocab.arity(rel) != 2:
            raise StructureError(f"{rel} is not binary")
        succ = {b for a, b in self.interp[rel] if a == elem}
        return [e for e in self.universe if e in succ]

    def __repr__(self):
        pt = f", point={self.point!r}" if self.point is not None else ""
        return f"Structure({self.name}, |U|={self.size}{pt})"


def same_vocab(a: Structure, b: Structure) -> bool:
    return a.vocab.relations == b.vocab.relations


def _require_same_vocab(a: Structure, b: Structure):
    if not same_vocab(a, b):
        raise StructureError(f"vocabulary mismatch: {a.vocab.relations} vs {b.vocab.relations}")


def is_homomorphism(f: Mapping, a: Structure, b: Structure) -> bool:
    """True iff ``f`` maps every related tuple of ``a`` to a related tuple of ``b``.

    ``f`` must be total on the universe of ``a`` with values in ``b``.  When
    both structures are pointed the point must be preserved as well.
    """
    _require_same_vocab(a, b)
    b_elems = set(b.universe)
    for x in a.universe:
        if x not in f:
            raise StructureError(f"map not total: {x!r} unmapped")
        if f[x] not in b_elems:
            raise StructureError(f"image {f[x]!r} of {x!r} not in target universe")
    if a.point is not None and b.point is not None and f[a.point] != b.point:
        return False
    for rel, _ in a.vocab.relations:
        b_rel = b.interp[rel]
        for tup in a.interp[rel]:
            if tuple(map(f.__getitem__, tup)) not in b_rel:
                return False
    return True


def is_embedding(f: Mapping, a: Structure, b: Structure) -> bool:
    """True iff ``f`` is an injective homomorphism that also reflects relations."""
    if not is_homomorphism(f, a, b):
        return False
    values = [f[x] for x in a.universe]
    if len(set(values)) != len(values):
        return False
    inverse = {f[x]: x for x in a.universe}
    for rel, _ in a.vocab.relations:
        a_rel = a.interp[rel]
        for tup in b.interp[rel]:
            if all(y in inverse for y in tup):
                if tuple(inverse[y] for y in tup) not in a_rel:
                    return False
    return True


def gaifman(a: Structure) -> frozenset:
    """Gaifman adjacency: unordered pairs of distinct co-occurring elements.

    Returned as a frozenset of ordered pairs closed under swapping, so the
    relation is symmetric by construction and irreflexive by the distinctness
    requirement.
    """
    edges = set()
    for rel, _ in a.vocab.relations:
        for tup in a.interp[rel]:
            for x, y in itertools.combinations(set(tup), 2):
                edges.add((x, y))
                edges.add((y, x))
    return frozenset(edges)


def expand_i(a: Structure) -> Structure:
    """Adjoin the equality surrogate ``I`` interpreted as the diagonal."""
    vocab = a.vocab.with_equality_symbol()
    interp = dict(a.interp)
    interp[EQUALITY_SYMBOL] = frozenset((x, x) for x in a.universe)
    return Structure(vocab, a.universe, interp, a.point, a.name)


def collapse_i(a: Structure) -> Structure:
    """Quotient the ``I``-free reduct by the equivalence closure of ``I``."""
    if EQUALITY_SYMBOL not in a.vocab.arities:
        raise StructureError(f"vocabulary does not contain {EQUALITY_SYMBOL}")
    parent = {x: x for x in a.universe}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            # keep the earlier element as representative
            if a.index[rx] > a.index[ry]:
                rx, ry = ry, rx
            parent[ry] = rx

    for x, y in a.interp[EQUALITY_SYMBOL]:
        union(x, y)
    universe = []
    for x in a.universe:
        r = find(x)
        if r not in universe:
            universe.append(r)
    vocab = a.vocab.without_equality_symbol()
    interp = {}
    for rel, _ in vocab.relations:
        interp[rel] = frozenset(tuple(find(x) for x in tup) for tup in a.interp[rel])
    point = find(a.point) if a.point is not None else None
    return Structure(vocab, tuple(universe), interp, point, a.name)


# ---------------------------------------------------------------------------
# Homomorphism search (backtracking, canonical order)

def iter_homomorphisms(a: Structure, b: Structure, *, injective: bool = False,
                       rng=None) -> Iterator[dict]:
    """Yield homomorphisms ``a -> b`` by backtracking in canonical order.

    With ``rng`` the candidate order is shuffled, which gives a cheap seeded
    sampler for law tests.  Points are respected when both are present.
    """
    _require_same_vocab(a, b)
    order = list(a.universe)
    tuples_by_last: dict = {x: [] for x in a.universe}
    pos = a.index
    for rel, _ in a.vocab.relations:
        for tup in a.interp[rel]:
            if tup:
                last = max(tup, key=lambda e: pos[e])
                tuples_by_last[last].append((rel, tup))

    def candidates(x):
        elems = list(b.universe)
        if rng is not None:
            rng.shuffle(elems)
        return elems

    assignment: dict = {}

    def extend(i) -> Iterator[dict]:
        if i == len(order):
            yield dict(assignment)
            return
        x = order[i]
        for y in candidates(x):
            if injective and y in assignment.values():
                continue
            if a.point is not None and b.point is not None and x == a.point and y != b.point:
                continue
            assignment[x] = y
            ok = True
            for rel, tup in tuples_by_last[x]:
                if all(e in assignment for e in tup):
                    if tuple(assignment[e] for e in tup) not in b.interp[rel]:
                        ok = False
                        break
            if ok:
                yield from extend(i + 1)
            del assignment[x]

    yield from extend(0)


def are_isomorphic(a: Structure, b: Structure) -> bool:
    """Isomorphism check by backtracking; intended for desk-scale structures."""
    if not same_vocab(a, b) or a.size != b.size:
        return False
    if (a.point is None) != (b.point is None):
        return False
    for f in iter_homomorphisms(a, b, injective=True):
        if is_embedding(f, a, b):
            return True
    return False


# ---------------------------------------------------------------------------
# Parsing and serialization

def _strip_comment(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def parse_structure(text: str, *, allow_reserved: bool = False) -> Structure:
    """Parse the structure file grammar.  See the module docstring."""
    vocab = None
    name = None
    universe: list = []
    seen: set = set()
    interp: dict = {}
    point = None
    body_started = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        words = line.split()
        head, args = words[0], words[1:]
        if vocab is None:
            if head != "vocab":
                raise ParseError("expected 'vocab' line first", lineno)
            rels = []
            for spec in args:
                if "/" not in spec:
                    raise ParseError(f"bad relation spec {spec!r}, expected name/arity", lineno)
                rel, _, ar = spec.rpartition("/")
                if not ar.isdigit():
                    raise ParseError(f"bad arity in {spec!r}", lineno)
                if not rel:
                    raise ParseError(f"missing relation name in {spec!r}", lineno)
                if int(ar) == 0:
                    raise ParseError(f"arity 0 relation {rel!r} rejected", lineno)
                if rel == EQUALITY_SYMBOL and not allow_reserved:
                    raise ParseError(f"relation name {EQUALITY_SYMBOL!r} is reserved", lineno)
                if rel in dict(rels):
                    raise ParseError(f"duplicate relation declaration {rel!r}", lineno)
                rels.append((rel, int(ar)))
            vocab = Vocabulary(tuple(rels))
            continue
        if head == "structure":
            if name is not None:
                raise ParseError("duplicate 'structure' line", lineno)
            if len(args) != 1:
                raise ParseError("expected 'structure <name>'", lineno)
            name = args[0]
            body_started = True
            continue
        if not body_started:
            raise ParseError("expected 'structure <name>' before body", lineno)
        if head == "elems":
            for e in args:
                if e in seen:
                    raise ParseError(f"duplicate element {e!r}", lineno)
                seen.add(e)
                universe.append(e)
        elif head == "rel":
            if not args:
                raise ParseError("expected 'rel <name> <id> ...'", lineno)
            rel = args[0]
            if rel not in vocab.arities:
                raise ParseError(f"undeclared relation {rel!r}", lineno)
            tup = tuple(args[1:])
            if len(tup) != vocab.arity(rel):
                raise ParseError(f"arity mismatch for {rel!r}: got {len(tup)}, "
                                 f"expected {vocab.arity(rel)}", lineno)
            for e in tup:
                if e not in seen:
                    raise ParseError(f"undeclared element {e!r}", lineno)
            interp.setdefault(rel, set()).add(tup)
        elif head == "point":
            if point is not None:
                raise ParseError("duplicate 'point' line", lineno)
            if len(args) != 1 or args[0] not in seen:
                raise ParseError("expected 'point <declared id>'", lineno)
            point = args[0]
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if vocab is None:
        raise ParseError("empty input, expected 'vocab' line", 1)
    if name is None:
        raise ParseError("missing 'structure' line", 1)
    return Structure.make(vocab, universe, interp, point, name)


def _token_safe(e) -> bool:
    return isinstance(e, str) and e != "" and "#" not in e and not any(c.isspace() for c in e)


def element_tokens(universe: Iterable) -> dict:
    """Printable token per element: identity for safe strings, else ``e<i>``."""
    universe = list(universe)
    if all(_token_safe(e) for e in universe):
        return {e: e for e in universe}
    return {e: f"e{i}" for i, e in enumerate(universe)}


def serialize_structure(a: Structure) -> str:
    """Emit the structure grammar; canonical order, one tuple per rel line."""
    tok = element_tokens(a.universe)
    lines = ["vocab " + " ".join(f"{rel}/{ar}" for rel, ar in a.vocab.relations)]
    lines.append(f"structure {a.name}")
    if a.universe:
        lines.append("elems " + " ".join(tok[e] for e in a.universe))
    for rel, _ in a.vocab.relations:
        for tup in sorted(a.interp[rel], key=lambda t: tuple(a.index[e] for e in t)):
            lines.append(f"rel {rel} " + " ".join(tok[e] for e in tup))
    if a.point is not None:
        lines.append(f"point {tok[a.point]}")
    return "\n".join(lines) + "\n"
