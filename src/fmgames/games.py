"""One game core for the twelve game variants (3 families x 4 modes).

Each family is a small rules object: its positional keys, winning condition,
Spoiler moves, Duplicator responses and the position a move leads to.  The
families differ only there; existential modes are the forth-only game and
positive modes trade the partial-isomorphism condition for partial
homomorphism, which the rules read off the spec.

Two solvers serve every family.  Round-bounded games (EF, modal, bounded
pebble) are solved by memoized backward induction over
``(state, remaining)`` keys with the maintain-condition formulation; this is
sound because both winning conditions are hereditary (every sub-relation of
a partial isomorphism or partial homomorphism is again one).  The unbounded
pebble game is a safety game on the finite placement space, solved as a
backward attractor: Spoiler's winning region grows layer by layer from the
positions that violate the condition, and the layer at which a position
joins it is its death stage.  Because the positions where Duplicator
survives s rounds are closed under restriction, a placement's death stage
is that of its set of placed pairs, so the attractor runs over the partial
maps of at most k pairs that satisfy the condition, not over the
placements.  The condition has one definition, ``violated_literal``
finding no literal over the pairs (``pairs_condition``).  It is local: it
fails on a pair set iff it fails on a subset of at most max(2, largest
arity) pairs, the empty subset covering 0-ary relations, so those sets are
enumerated level by level and the condition is tested only up to that size,
up to two pairs by bit tests on per-structure pair types.  The stage table
is keyed by those pair sets.
The same ``placement_cap`` bounds the attractor's work (candidate sets
tried and counter rows) and the positions the backward induction memoizes.

EF states are sets of chosen pairs, which collapses the sequence blowup;
modal states are pairs of current worlds; pebble states are placements,
which the unbounded game's stage table reads at their sets of placed pairs,
while the synthesis that walks the table works on pair-set masks.  Every
strategy lookup takes a key: the winning conditions are hereditary, so a
strategy need only read the position.
Points of the structures are ignored by the EF and pebble families; the
modal family requires them.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .formulas import (MODES, Atom, Eq, Formula, NegAtom, NegEq, NegProp, Prop,
                       canonical_mode)
from .structures import Structure, StructureError, same_vocab

FAMILIES = ("ef", "pebble", "modal")


class GameResourceError(RuntimeError):
    """Search space beyond the configured cap; not a verdict."""


class IllegalMoveError(ValueError):
    def __init__(self, message: str, round_no: int):
        super().__init__(f"round {round_no}: {message}")
        self.round_no = round_no


@dataclass(frozen=True)
class GameSpec:
    """Game family x mode x resource bound.

    ``k`` counts rounds for EF/modal and pebbles for the pebble family.  The
    optional ``rounds`` selects the bounded-round pebble variant; without it
    the pebble game is the unbounded one, solved as an attractor.
    """

    family: str
    mode: str
    k: int
    rounds: Optional[int] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "mode", canonical_mode(self.mode))
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if self.rounds is not None:
            if self.family != "pebble":
                raise ValueError("rounds applies to the pebble family only")
            if self.rounds < 1:
                raise ValueError("rounds must be a positive integer")

    @property
    def forth_only(self) -> bool:
        return not MODES[self.mode].universals

    @property
    def iso_condition(self) -> bool:
        return MODES[self.mode].negations


def _check_same_vocab(a: Structure, b: Structure):
    if not same_vocab(a, b):
        raise StructureError("vocabulary mismatch between the two structures")


def pairs_condition(pairs, a: Structure, b: Structure, iso: bool) -> bool:
    """The partial-homomorphism (or, iso, partial-isomorphism) condition on
    a set of ``(a, b)`` pairs: no literal over them is violated
    (``violated_literal``).  Structures over different vocabularies raise
    ``StructureError``."""
    _check_same_vocab(a, b)
    return _pairs_hold(pairs, a, b, iso)


def _pairs_hold(pairs, a: Structure, b: Structure, iso: bool) -> bool:
    """``pairs_condition`` once the vocabularies are known to agree."""
    bindings = [(n, x, y) for n, (x, y) in enumerate(pairs)]
    return violated_literal(bindings, a, b, iso) is None


def modal_literal(x, y, a: Structure, b: Structure, iso: bool) -> Optional[Formula]:
    """The proposition the worlds x of a and y of b violate, or None.

    Per unary relation in vocabulary order: ``Prop(rel)`` when x has it and
    y has not, and (iso) ``NegProp(rel)`` when y has it and x has not.
    """
    for rel in a.vocab.unary:
        in_a = (x,) in a.interp[rel]
        in_b = (y,) in b.interp[rel]
        if in_a and not in_b:
            return Prop(rel)
        if iso and in_b and not in_a:
            return NegProp(rel)
    return None


#: Relations of larger arity get no word bits in the pair types: 2^arity
#: bits per pair would not fit in memory.  ``violated_literal`` tests them
#: on their tuples, and the attractor asks it from one pair up.
_TYPE_ARITY = 8


def _pair_types(st: Structure) -> list:
    """The atomic type of every ordered pair ``(x1, x2)`` of ``st`` as one
    int, at ``i1 * |U| + i2`` for the elements' indices: bit 0 when
    x1 = x2, then per relation of arity r <= ``_TYPE_ARITY``, in vocabulary
    order, 2^r bits, one per word over {x1, x2} of length r (bit c of the
    word set: position c holds x2), set when the tuple the word spells is in
    the relation.  The map x1 -> y1, x2 -> y2 is a partial homomorphism iff
    the type of (x1, x2) is a subset of that of (y1, y2), and a partial
    isomorphism iff they are equal, up to the relations left out.  Built
    once per structure, from the tuples over at most two elements."""
    types = st.memo.get("pair types")
    if types is not None:
        return types
    n, index = st.size, st.index
    types = [0] * (n * n)
    for u in range(n):
        types[u * n + u] = 1
    offset = 1
    for rel, arity in st.vocab.relations:
        if arity > _TYPE_ARITY:
            continue
        top = (1 << arity) - 1  # the word of x2 only
        for tup in st.interp[rel]:
            held = list(dict.fromkeys(index[x] for x in tup))
            if not held:  # a true 0-ary relation: every pair spells ()
                types = [t | 1 << offset for t in types]
            elif len(held) == 1:
                u = held[0]
                for x in range(n):
                    types[u * n + x] |= 1 << offset
                    types[x * n + u] |= 1 << (offset + top)
                types[u * n + u] |= ((1 << (top + 1)) - 1) << offset  # every word
            elif len(held) == 2:
                u, w = held
                word = sum(1 << c for c, x in enumerate(tup) if index[x] == w)
                types[u * n + w] |= 1 << (offset + word)
                types[w * n + u] |= 1 << (offset + (top ^ word))
        offset += top + 1
    st.memo["pair types"] = types
    return types


def _compatibility(a: Structure, b: Structure, iso: bool) -> tuple:
    """The pair-type test over the pairs of A x B, pair (x, y) at
    ``ix * |B| + iy``: the mask of the pairs i whose singleton {i} passes,
    and a function giving per pair i the mask of the pairs j for which
    {i, j} passes.  The test is the type of (x, x') equal to (iso) or a
    subset of (hom) the type of (y, y'), singletons comparing (x, x) with
    (y, y)."""
    ta, tb = _pair_types(a), _pair_types(b)
    na, nb = a.size, b.size
    lift = 0 if iso else -1  # s | (t & lift) == t: s == t, or s a subset of t
    singles = 0
    for x in range(na):
        s = ta[x * na + x]
        for y in range(nb):
            t = tb[y * nb + y]
            if s | (t & lift) == t:
                singles |= 1 << (x * nb + y)

    def compatible(i: int) -> int:
        x, y = divmod(i, nb)
        row = tb[y * nb:(y + 1) * nb]
        mask, bit = 0, 1
        for s in ta[x * na:(x + 1) * na]:
            for t in row:
                if s | (t & lift) == t:
                    mask |= bit
                bit <<= 1
        return mask

    return singles, compatible


def violated_literal(bindings, a: Structure, b: Structure, iso: bool) -> Optional[Formula]:
    """A literal refuting the condition at a first-order position, over its
    ``(variable, a, b)`` bindings, or None when the condition holds there.
    This is the one definition of the first-order condition: the game
    solvers read it through ``_pairs_hold`` (``pairs_condition`` without its
    vocabulary check, which ``solve`` makes once), synthesis for its leaves.
    A binding of an element outside A or B raises ``StructureError``.

    Scan order is fixed: functionality, then (iso) injectivity, then per
    relation the preserved atoms and (iso) the reflected ones, over the
    tuples of bindings in ``itertools.product`` order.  A binary atom over
    bindings p, q is a bit of the pair types (see ``_pair_types``) of
    ``(x_p, x_q)`` in A and ``(y_p, y_q)`` in B, a unary one over p a bit of
    those of ``(x_p, x_p)`` and ``(y_p, y_p)``; 0-ary relations and larger
    arities are tested on tuples by ``_violated_tuple``.
    """
    # once per game state: the sizes and pair types are read without a call
    ia, ib = a.index, b.index
    na, nb = len(ia), len(ib)
    try:
        cells = [(v, ia[x], ib[y]) for v, x, y in bindings]  # elements by index
    except KeyError as err:
        raise StructureError(f"pair element {err.args[0]!r} is outside its structure") from None
    non_injective = None  # the first NegEq, returned only if no Eq is violated
    for n, (i, xi, yi) in enumerate(cells):
        for j, xj, yj in cells[n + 1:]:
            if xi == xj:
                if yi != yj:
                    return Eq(i, j)
            elif yi == yj and non_injective is None:
                non_injective = NegEq(i, j)
    if iso and non_injective is not None:
        return non_injective
    ta = a.memo.get("pair types") or _pair_types(a)
    tb = b.memo.get("pair types") or _pair_types(b)
    offset = 1
    for rel, arity in a.vocab.relations:
        if arity == 2:
            bit = 1 << (offset + 2)  # the word x1 x2
            for i, xi, yi in cells:
                row_a, row_b = xi * na, yi * nb
                for j, xj, yj in cells:
                    held = ta[row_a + xj] & bit
                    if held != tb[row_b + yj] & bit:
                        if held:
                            return Atom(rel, (i, j))
                        if iso:
                            return NegAtom(rel, (i, j))
        elif arity == 1:
            bit = 1 << offset  # the word x1
            for i, xi, yi in cells:
                held = ta[xi * na + xi] & bit
                if held != tb[yi * nb + yi] & bit:
                    if held:
                        return Atom(rel, (i,))
                    if iso:
                        return NegAtom(rel, (i,))
        else:
            literal = _violated_tuple(rel, arity, bindings, a.interp[rel], b.interp[rel], iso)
            if literal is not None:
                return literal
        if arity <= _TYPE_ARITY:
            offset += 1 << arity
    return None


def _violated_tuple(rel: str, arity: int, bindings, rel_a, rel_b, iso: bool):
    """The first tuple of ``bindings`` in ``itertools.product`` order that
    ``rel_a`` holds and ``rel_b`` does not, as an ``Atom``, or (iso) the
    reverse, as a ``NegAtom``; None if there is none.

    Scans the relations' tuples, never the product.  The bindings are
    functional (and, iso, injective) here, so the tuples of bindings that
    spell one tuple of a relation all spell one image: the first of them,
    binding by binding, stands for them all.
    """
    first_a: dict = {}
    first_b: dict = {}
    for n, (_, x, y) in enumerate(bindings):
        first_a.setdefault(x, n)
        first_b.setdefault(y, n)
    found = []
    sides = ((rel_a, rel_b, first_a, 2, Atom), (rel_b, rel_a, first_b, 1, NegAtom))
    for src, dst, first, image, literal in sides[:1 + iso]:
        for tup in src:
            if all(e in first for e in tup):
                combo = tuple(first[e] for e in tup)
                if tuple(bindings[n][image] for n in combo) not in dst:
                    found.append((combo, literal))
    if not found:
        return None
    combo, literal = min(found, key=lambda f: f[0])
    return literal(rel, tuple(bindings[n][0] for n in combo))


class _Rules:
    """The positions, moves and winning condition of one game family.

    Solvers and strategies work on positional keys ``(state, remaining)``:
    the state holds everything the winning condition and the available moves
    depend on, and ``remaining`` counts the rounds left (None in the
    unbounded pebble game).
    ``root`` is the starting key, ``cond`` the winning condition (memoized
    per state), ``moves`` Spoiler's moves, ``responses`` Duplicator's answers
    to one, and ``step`` the resulting state.  Every move ends with
    ``(side, element)`` and is answered by an element of the other structure.

    ``bindings`` lists a position's pairs under their variables and
    ``label`` names the variable or relation a move binds; ``played``, the
    ``(a, b)`` pairs placed so far in play order, is all they need beyond
    the key.
    """

    def __init__(self, spec: GameSpec, a: Structure, b: Structure):
        self.a, self.b = a, b
        self.k = spec.k
        self.iso = spec.iso_condition
        self.sides = ("A",) if spec.forth_only else ("A", "B")
        self._answers = {"A": list(b.universe), "B": list(a.universe)}
        self._cond: dict = {}

    def cond(self, state) -> bool:
        res = self._cond.get(state)
        if res is None:
            res = self._cond[state] = self._holds(state)
        return res

    def _holds(self, pairs) -> bool:
        return _pairs_hold(pairs, self.a, self.b, self.iso)  # solve checked the vocabularies

    def moves(self, state) -> list:
        return self._moves

    def responses(self, state, move) -> list:
        return self._answers[move[-2]]

    def legal(self, state, move) -> bool:
        """Whether ``move`` is one of ``moves(state)``."""
        return move in self.moves(state)

    def bindings(self, key, played) -> list:
        """``(variable, a, b)`` per pair of ``played``, numbered from 1."""
        return [(i, x, y) for i, (x, y) in enumerate(played, start=1)]

    def label(self, key, move):
        return move[0]

    def _spoiler_elements(self) -> list:
        """``(side, element)`` for every element Spoiler may pebble."""
        return [(side, e) for side in self.sides
                for e in (self.a if side == "A" else self.b).universe]

    @staticmethod
    def pair(move, response) -> tuple:
        """The (A, B) element pair a move and its response place."""
        side, e = move[-2:]
        return (e, response) if side == "A" else (response, e)


class _EFRules(_Rules):
    """EF: the state is the set of chosen pairs.  A pair chosen twice is
    one pair of the state but two rounds of ``played``, so the bindings
    number the rounds."""

    def __init__(self, spec: GameSpec, a: Structure, b: Structure):
        super().__init__(spec, a, b)
        self.root = (frozenset(), spec.k)
        self._moves = self._spoiler_elements()

    def step(self, state, move, response):
        side, e = move
        return state | {(e, response) if side == "A" else (response, e)}

    def label(self, key, move):
        """The round number."""
        return self.k - key[1] + 1


class _ModalRules(_Rules):
    """Modal: the state is the pair of current worlds; the bindings are the
    worlds visited, the points first."""

    def __init__(self, spec: GameSpec, a: Structure, b: Structure):
        if not a.vocab.modal_flag:
            raise StructureError("modal game needs a modal vocabulary")
        if a.point is None or b.point is None:
            raise StructureError("modal game needs pointed structures on both sides")
        super().__init__(spec, a, b)
        self.root = ((a.point, b.point), spec.k)
        self._binary = a.vocab.binary
        self._succ: dict = {}

    def _holds(self, state) -> bool:
        x, y = state
        return modal_literal(x, y, self.a, self.b, self.iso) is None

    def _successors(self, side, rel, w) -> list:
        out = self._succ.get((side, rel, w))
        if out is None:
            src = self.a if side == "A" else self.b
            out = self._succ[side, rel, w] = src.successors(rel, w)
        return out

    def moves(self, state) -> list:
        return [(rel, side, e) for side, cur in zip(self.sides, state)
                for rel in self._binary for e in self._successors(side, rel, cur)]

    def responses(self, state, move) -> list:
        rel, side, _ = move
        if side == "A":
            return self._successors("B", rel, state[1])
        return self._successors("A", rel, state[0])

    def step(self, state, move, response):
        _, side, e = move
        return (e, response) if side == "A" else (response, e)

    def bindings(self, key, played) -> list:
        return super().bindings(key, (self.root[0], *played))


class _PebbleRules(_Rules):
    """Pebble: the state is the placement, a frozenset of ``(pebble, (a, b))``,
    which alone gives the bindings.  The condition is memoized on the set of
    placed pairs, which placements share.
    ``elements`` lists the ``(side, element)`` pairs Spoiler may pebble,
    the same for every pebble."""

    def __init__(self, spec: GameSpec, a: Structure, b: Structure):
        super().__init__(spec, a, b)
        self.root = (frozenset(), spec.rounds)
        self.elements = self._spoiler_elements()

    pairs_cond = _Rules.cond

    def moves(self, state):
        """Spoiler's k x (|A| + |B|) moves ``(pebble, side, element)`` in
        canonical order, yielded one at a time: a strategy lookup usually
        stops after a few, and k is not bounded by any cap."""
        return ((p, side, e) for p in range(1, self.k + 1) for side, e in self.elements)

    def legal(self, state, move) -> bool:
        """Tested without listing the k x (|A| + |B|) moves."""
        return (isinstance(move, tuple) and len(move) == 3
                and move[0] in range(1, self.k + 1) and move[1:] in self.elements)

    def cond(self, state) -> bool:
        return self.pairs_cond(frozenset(pair for _, pair in state))

    def step(self, state, move, response):
        p, side, e = move
        pair = (e, response) if side == "A" else (response, e)
        return frozenset(item for item in state if item[0] != p) | {(p, pair)}

    def bindings(self, key, played) -> list:
        """The placement's pairs by pebble index."""
        return [(p, x, y) for p, (x, y) in sorted(key[0])]


_RULES = {"ef": _EFRules, "modal": _ModalRules, "pebble": _PebbleRules}


class Verdict:
    """Solver outcome plus positional strategies for both players.

    Every lookup takes a positional key ``(state, remaining)``: the play
    starts at ``root`` and ``child`` takes it one round on.  ``alive``, set
    by the solver, tells whether Duplicator survives from a key.
    """

    def __init__(self, spec: GameSpec, a: Structure, b: Structure):
        self.spec = spec
        self.a = a
        self.b = b
        self.rules = _RULES[spec.family](spec, a, b)
        self.root = self.rules.root
        self.duplicator_wins: bool = False
        self.stage: _StageTable | None = None
        self.alive = None

    def condition_at(self, key) -> bool:
        return self.rules.cond(key[0])

    # -- moves --------------------------------------------------------------

    def moves(self, key):
        """Spoiler's moves from ``key``, in canonical order."""
        state, rem = key
        return [] if rem is not None and rem <= 0 else self.rules.moves(state)

    def is_legal(self, key, move) -> bool:
        """Whether ``move`` is one of ``moves(key)``, without listing them."""
        state, rem = key
        return (rem is None or rem > 0) and self.rules.legal(state, move)

    def responses(self, key, move) -> list:
        return list(self.rules.responses(key[0], move))

    def child(self, key, move, response):
        """The key ``move`` and Duplicator's ``response`` lead to."""
        state, rem = key
        return self.rules.step(state, move, response), None if rem is None else rem - 1

    def children(self, key, move) -> list:
        """``(response, key it leads to)`` for Duplicator's responses to a
        move from ``key``, in canonical order."""
        return [(r, self.child(key, move, r)) for r in self.rules.responses(key[0], move)]

    # -- strategies ----------------------------------------------------------

    def duplicator_response(self, key, move):
        """First response (canonical order) keeping the position alive."""
        for r, child in self.children(key, move):
            if self.alive(child):
                return r
        return None

    def spoiler_move_at(self, key):
        """A winning Spoiler move: every response leads to a dead position.

        EF, modal and bounded pebble verdicts return the first such move in
        canonical order.  Unbounded pebble verdicts read the move off the
        stage table (``_StageTable.move``, which synthesis calls too): the
        lowest worst death stage among the responses wins, then canonical
        order; the stage bound is what keeps synthesized distinguishing
        formulas within rank = death stage.
        """
        if self.stage is not None:
            return self.stage.spoiler_move(key[0], self.rules.elements)
        for move in self.moves(key):
            if not any(self.alive(child) for _, child in self.children(key, move)):
                return move
        return None

    def duplicator_wins_within(self, rounds: int) -> bool:
        """Verdict for another round budget, read off the same solve tables.

        EF and modal positions are memoized by remaining rounds, so one
        backward induction answers every smaller (or larger) budget too.  A
        budget of 0 asks about the root condition; a negative one is refused.
        """
        if self.spec.family == "pebble":
            raise ValueError("round-budget reuse applies to EF and modal verdicts")
        if rounds < 0:
            raise ValueError(f"round budget {rounds} is negative")
        return self.alive((self.root[0], rounds))


def solve(spec: GameSpec, a: Structure, b: Structure,
          *, placement_cap: int = 200_000) -> Verdict:
    """Decide the game and extract positional strategies.

    ``placement_cap`` bounds the attractor's work in the unbounded pebble
    game (candidate pair sets and counter rows, see ``_solve_attractor``)
    and the positions the round-bounded solver memoizes (also while
    strategies are read off later); beyond it ``GameResourceError`` is
    raised instead of a verdict.
    """
    _check_same_vocab(a, b)
    verdict = Verdict(spec, a, b)
    if verdict.rules.root[1] is None:
        _solve_attractor(verdict, placement_cap)
    else:
        _solve_backward(verdict, placement_cap)
    return verdict


def _solve_backward(v: Verdict, cap: int):
    """Memoized backward induction over ``(state, remaining)`` keys.

    The memo also serves the strategy lookups after the solve; memoizing
    more than ``cap`` positions raises ``GameResourceError``.
    """
    v.alive = _Backward(v.rules, cap, v.spec.family).alive
    v.duplicator_wins = v.alive(v.root)


class _Backward:
    """The memo of ``_solve_backward`` and the recursion over it.  A method,
    not a recursive closure: a closure holds itself through its cell, and
    that cycle would leave the memo and the rules to the cyclic garbage
    collector.  It must not refer to the Verdict either, which holds it."""

    __slots__ = ("rules", "cap", "family", "memo")

    def __init__(self, rules: _Rules, cap: int, family: str):
        self.rules = rules
        self.cap = cap
        self.family = family
        self.memo: dict = {}

    def alive(self, key) -> bool:
        memo = self.memo
        res = memo.get(key)
        if res is not None:
            return res
        if len(memo) >= self.cap:
            raise GameResourceError(f"{self.family} game: memoized positions exceed cap {self.cap}")
        rules = self.rules
        state, rem = key
        res = rules.cond(state)
        if res and rem > 0:
            for move in rules.moves(state):
                for r in rules.responses(state, move):
                    if self.alive((rules.step(state, move, r), rem - 1)):
                        break
                else:
                    res = False
                    break
        memo[key] = res
        return res


class _StageTable:
    """Death stages of the unbounded pebble game, keyed by the sets of placed
    pairs the attractor solves over.

    A placement's stage is the stage of its set of placed pairs (see
    ``_solve_attractor``).  So ``stages`` holds one stage per pair set that
    satisfies the condition (-1 while alive), keyed by its bit mask over
    ``pairs``; every other pair set fails the condition and has stage 0.
    ``pair_sets`` lists the kept sets and ``[]`` reads a set's stage.
    Spoiler's move is read off the masks (``move``), and ``replies`` gives
    the bits a move's responses place, so synthesis walks Spoiler's
    strategy on masks alone.
    The length counts the dead placements without walking them: the
    placements whose pairs are exactly an alive set of j pairs are the maps
    from the k pebbles onto that set plus "off the board", counted by
    inclusion-exclusion (``_onto``) from the alive sets per level, and
    every other placement is dead.  The index of the pairs is built when a
    non-empty set is first looked up.
    """

    def __init__(self, stages: dict, levels: array, start: list, pairs: list, k: int):
        self.stages = stages
        self.pairs = pairs
        self._levels = levels  # the stages in level order, level j at start[j]..start[j + 1] - 1
        self._start = start
        self._k = k

    @functools.cached_property
    def _index(self) -> dict:
        return {pair: i for i, pair in enumerate(self.pairs)}

    @functools.cached_property
    def replies(self) -> dict:
        """Per Spoiler move ``(side, element)``, the bits of the pairs its
        responses place, in response order."""
        replies: dict = {}
        for i, (x, y) in enumerate(self.pairs):
            replies.setdefault(("A", x), []).append(1 << i)
            replies.setdefault(("B", y), []).append(1 << i)
        return replies

    def pair_sets(self) -> dict:
        """Every pair set the attractor kept, a frozenset of ``(a, b)`` pairs,
        mapped to its death stage (-1 while alive).  A set of at most k
        pairs that is not listed fails the condition: its stage is 0."""
        pairs = self.pairs
        return {frozenset(pair for i, pair in enumerate(pairs) if mask >> i & 1): s
                for mask, s in self.stages.items()}

    def __getitem__(self, pairs) -> int:
        """The death stage of a set of ``(a, b)`` pairs: -1 while it is alive,
        0 when the attractor did not keep it.  A pair outside A x B raises
        ``KeyError``."""
        # distinct pairs have distinct bits, so the sum is the set's mask
        return self.stages.get(sum(1 << self._index[pair] for pair in pairs), 0)

    @staticmethod
    def placed(bits) -> tuple:
        """``(full, shared)``: the OR of ``bits``, and the bits that at least
        two of them set."""
        full = shared = 0
        for bit in bits:
            shared |= full & bit
            full |= bit
        return full, shared

    def spoiler_move(self, placement, elements):
        """``move`` from a placement ``{(pebble, (a, b)), ...}``."""
        held = {p: 1 << self._index[pair] for p, pair in placement}
        return self.move(held, *self.placed(held.values()), elements)

    def move(self, held: dict, full: int, shared: int, elements):
        """Spoiler's best move ``(pebble, side, element)`` from the position
        where pebble p holds the pair of bit ``held[p]`` (the other pebbles
        are off the board), or None when each move has an alive response.
        ``full`` is the mask of the placed pairs and ``shared`` that of the
        pairs two pebbles hold.  The moves are taken in canonical order,
        pebble by pebble over the ``(side, element)`` pairs of ``elements``;
        a move's tuple is built only when it becomes the best so far.

        Moving pebble p leaves the pairs of the other pebbles, and each
        response adds one pair, so a response's stage is the stage filed
        under that mask OR the pair's bit.  The move whose worst response
        has the lowest stage wins (0 when there is no response), ties going
        to the first in canonical order.  A move is dropped as soon as a
        response is alive or dies no sooner than the best move so far.  No
        move does better than stage max(s - 1, 0) from a position of stage s,
        or the position would have died earlier, so the first move reaching
        it is returned at once.
        """
        stages, replies = self.stages, self.replies
        floor = max(stages.get(full, 0) - 1, 0)
        best, cutoff = None, math.inf
        for p in range(1, self._k + 1):
            base = full ^ (held.get(p, 0) & ~shared)
            for side, e in elements:
                worst = 0
                for bit in replies.get((side, e), ()):
                    s = stages.get(base | bit, 0)
                    if not 0 <= s < cutoff:
                        break
                    if s > worst:
                        worst = s
                else:
                    if worst <= floor:
                        return p, side, e
                    best, cutoff = (p, side, e), worst
        return best

    def __len__(self) -> int:
        """The number of dead placements, counted per call from the alive
        sets of each level; nothing is kept, as the count has about k
        digits."""
        k, levels, start = self._k, self._levels, self._start
        if k <= _SMALL_K:
            onto = _onto_row(k)
        else:  # terms only up to the top level that has an alive set
            onto = _onto(k, max((j for j in range(len(start) - 1)
                                 if -1 in levels[start[j]:start[j + 1]]), default=0))
        dead = (len(self.pairs) + 1) ** k
        for j in range(len(start) - 1):
            alive = levels[start[j]:start[j + 1]].count(-1)
            if alive:
                dead -= alive * onto[j]
        return dead

    def __bool__(self) -> bool:
        """Some placement is dead: fewer sets are alive than there are sets
        of at most k pairs, each the pair set of some placement.  ``len``
        overflows past sys.maxsize and its count has about k digits; the
        partial sums of binomials here stop as soon as they pass the alive
        count."""
        alive = self._levels.count(-1)
        n = len(self.pairs)
        total = 0
        for j in range(min(n, self._k) + 1):
            total += math.comb(n, j)
            if total > alive:
                return True
        return False


def _onto(k: int, top: int) -> tuple:
    """Per j in 0..top, the maps from k pebbles onto a set of j pairs plus
    "off the board", by inclusion-exclusion."""
    return tuple(sum((-1) ** i * math.comb(j, i) * (j - i + 1) ** k for i in range(j + 1))
                 for j in range(top + 1))


# An alive set has at most k pairs.  At k <= _SMALL_K the terms have at most
# a few hundred bits, so one row per k is kept; a larger k computes its
# terms afresh, as they have about k digits.
_SMALL_K = 64
_onto_row = functools.lru_cache(maxsize=None)(lambda k: _onto(k, k))


def _solve_attractor(v: Verdict, cap: int):
    """Spoiler's attractor to the condition-violating positions, run over
    the sets of placed pairs instead of the placements.

    Which pebble holds which pair does not matter.  Let W_s be the
    placements from which Duplicator survives s more rounds (W_0: the
    condition holds).  By induction on s, whether a placement is in W_s
    depends only on its set S of placed pairs, and W_s is closed under
    restriction: every subset of a pair set in W_s is in W_s (for s = 0
    because the condition is hereditary).  If |S| < k, some pebble is off
    the board or doubles another, and moving it adds a pair: Spoiler
    reaches S + {new} for every Spoiler element, and a move that replaces a
    pair reaches a subset of such a position, which by closure never serves
    Spoiler better.  If |S| = k, every move replaces one pair x of S:
    (S - {x}) + {new}.  So S's moves are the rows ``(T, Spoiler element)``
    with base T = S if |S| < k and T = S - {x} for each x in S if |S| = k,
    and a row's responses lead to T + {pair}.  W_s is closed under
    restriction too: a proper subset S' of S lies in one of S's bases (in S
    itself, or in S - {x} for an x not in S'), and the responses that keep
    that base's rows in W_(s-1) keep those of S' there as well.  Hence a
    placement's death stage is the stage of its pair set, and a doubled
    pebble acts like an off-board one.

    The sets of at most k pairs that satisfy the condition are enumerated
    level by level as bit masks over the pairs, each set extended only by
    pairs above its last one.  The condition is local: it fails on a pair
    set iff it fails on a subset of at most m = max(2, largest arity) pairs
    (two pairs witness a non-function or a non-injection; otherwise the
    pairs form a map, and a tuple of arity r that it fails to preserve or
    reflect uses at most r of them; a false 0-ary relation fails already on
    the empty set, the one set ``pairs_cond`` always decides; ``pairs_cond``
    is ``violated_literal``'s answer, memoized per pair set).  The subsets
    of at most two pairs are decided by bit tests: ``_pair_types`` gives
    each ordered pair of elements of a structure its atomic type, once per
    structure, and ``_compatibility`` gives, per query, the mask of the
    pairs whose singleton passes and per pair i the mask of the pairs j for
    which {i, j} does (type of the A elements equal to, or a subset of,
    that of the B elements), built when a base first ends with i.  A kept
    set carries the AND of its members' masks, so a candidate passes its
    two-pair subsets on one bit test.  When m > 2, ``pairs_cond`` decides
    the candidates of 3..m pairs, and above m a candidate is kept only if
    all its (j-1)-subsets were, since every subset of at most m pairs lies
    in one of them.  A relation of arity above ``_TYPE_ARITY`` has no bits
    in the types, so then ``pairs_cond`` decides every candidate from one
    pair up to m.

    One counter row per base (a kept set of fewer than k pairs) holds, per
    element of A (and of B when Spoiler may play there), how many responses
    to that move lead to a kept set.  A kept set C answers, for each pair
    (x, y) in it, the entries of x and y in the row of C - {(x, y)} and, if
    |C| < k, in its own row (a doubled pebble).  A set with an empty entry in
    one of its rows dies at stage 1.  Later deaths are processed layer by
    layer: each decrements the entries it answers, and an entry reaching 0
    kills the alive sets that use its row, the base and the k-sets over it,
    in the next layer.  So a set's layer is its death stage, every stage-s
    death sees only stage-<s deaths, death stages decrease strictly along
    Spoiler's strategy, and synthesized formulas stay within rank = death
    stage.

    ``placement_cap`` bounds this work: every candidate set the level
    enumeration tries, plus a row of |A| + |B| counters per kept set of
    fewer than k pairs.  A level's bases are charged before it is
    enumerated: a set kept with last pair i adds its row and the
    len(pairs) - i - 1 candidates above i to the next level's total.  The
    count only grows within a level, so a refusal names the same cap on the
    same inputs as a charge per base would, and comes before any set of the
    refused level is kept.  A compatibility mask (|A||B| type comparisons)
    is built only after the cap has counted a base ending with its pair.
    The levels stop at the first empty one (at most |A||B| + 1), so past
    that the work does not grow with k.
    """
    rules, k = v.rules, v.spec.k
    na, nb = len(v.a.universe), len(v.b.universe)
    pairs = [(x, y) for x in v.a.universe for y in v.b.universe]
    m = max(2, max((r for _, r in v.a.vocab.relations), default=0))
    # pairs_cond decides the sets of lo..m pairs; the types decide up to two
    lo = 3 if m <= _TYPE_ARITY else 1
    singles, compatible = _compatibility(v.a, v.b, rules.iso)
    # per pair, its compatibility mask, built when a base first ends with
    # it, so the base's work count covers it
    compat = [None] * len(pairs)
    # per kept set, in level order: its mask, its pair indices in ascending
    # order and the AND of the compatibility masks of all but its last
    masks = [0] if rules.pairs_cond(frozenset()) else []
    members = [()] * len(masks)
    carry = [singles] * len(masks)
    ids = {mask: c for c, mask in enumerate(masks)}
    start = [0, len(masks)]  # the sets of j pairs have ids start[j] .. start[j + 1] - 1
    # a base's work: one counter row, and the candidates above its last pair
    row = na + nb + len(pairs)
    work, level = 0, row * len(masks)
    for j in range(1, k + 1):
        if start[j - 1] == start[j]:
            break  # no set of j - 1 pairs, so none of j or more
        work, level = work + level, 0
        if work > cap:
            raise GameResourceError(f"pebble game: attractor work exceeds cap {cap}")
        for c in range(start[j - 1], start[j]):
            mask, idx, fit = masks[c], members[c], carry[c]
            first = idx[-1] + 1 if idx else 0
            if idx:
                if compat[idx[-1]] is None:
                    compat[idx[-1]] = compatible(idx[-1])
                fit &= compat[idx[-1]]
            cand = fit >> first << first
            while cand:
                low = cand & -cand
                cand ^= low
                i = low.bit_length() - 1
                new = mask | low
                if lo <= j <= m:
                    if not rules.pairs_cond(frozenset(pairs[b] for b in (*idx, i))):
                        continue
                elif j > m > 2 and not all((new ^ 1 << b) in ids for b in idx):
                    continue
                ids[new] = len(masks)
                level += row - i - 1
                masks.append(new)
                members.append((*idx, i))
                carry.append(fit)
        start.append(len(masks))
    bases = start[k] if k < len(start) else len(masks)
    back = not v.spec.forth_only
    width = na + nb if back else na
    # the entries pair i answers in a row: its A-element's, then its B-element's
    entries = [(i // nb, na + i % nb) if back else (i // nb,) for i in range(len(pairs))]
    users = [[t] for t in range(bases)]  # the sets that move by a base's rows
    answers = []  # per set, the counter offsets it answers
    for c, (mask, idx) in enumerate(zip(masks, members)):
        offsets = []
        for i in idx:
            t = ids[mask ^ 1 << i]
            offsets += [t * width + e for e in entries[i]]
            if c < bases:
                offsets += [c * width + e for e in entries[i]]
            else:
                users[t].append(c)
        answers.append(offsets)
    counts = array("i", [0]) * (bases * width)
    for offsets in answers:
        for o in offsets:
            counts[o] += 1
    stages = array("i", [-1]) * len(masks)
    layer = []
    for t in range(bases):
        if 0 in counts[t * width:(t + 1) * width]:
            for u in users[t]:
                if stages[u] < 0:
                    stages[u] = 1
                    layer.append(u)
    s = 1
    while layer:
        s += 1
        nxt = []
        for c in layer:
            for o in answers[c]:
                counts[o] -= 1
                if not counts[o]:
                    for u in users[o // width]:
                        if stages[u] < 0:
                            stages[u] = s
                            nxt.append(u)
        layer = nxt
    filed = dict(zip(masks, stages))
    table = _StageTable(filed, stages, start, pairs, k)
    v.alive = lambda key: table[frozenset(pair for _, pair in key[0])] < 0
    v.stage = table
    v.duplicator_wins = filed.get(0, 0) < 0  # the empty pair set has mask 0


# ---------------------------------------------------------------------------
# Replay

@dataclass
class Transcript:
    spec: GameSpec
    rounds: list = field(default_factory=list)
    winner: str = "Duplicator"
    note: str = ""

    def lines(self) -> list[str]:
        out = [f"game {self.spec.family}/{self.spec.mode} k={self.spec.k}"]
        for i, r in enumerate(self.rounds, start=1):
            out.append(f"round {i}: spoiler {r['move']} -> duplicator {r['response']}"
                       f" [{'ok' if r['condition'] else 'violated'}]")
        if self.note:
            out.append(self.note)
        out.append(f"winner: {self.winner}")
        return out


def _check_verdict(verdict: Verdict, spec: GameSpec, a: Structure, b: Structure):
    """Refuse (``ValueError``) a verdict solved for another game."""
    if (verdict.spec, verdict.a, verdict.b) != (spec, a, b):
        raise ValueError("verdict does not match the given spec and structures")


def _validate_move(verdict: Verdict, key, move, round_no: int):
    if verdict.is_legal(key, move):
        return move
    if verdict.spec.family == "ef" and not isinstance(move, tuple):
        # bare element shorthand for forth-only play
        move = ("A", move)
        if verdict.is_legal(key, move):
            return move
    raise IllegalMoveError(f"illegal move {move!r}", round_no)


def replay(spec: GameSpec, a: Structure, b: Structure, verdict: Verdict,
           moves_script: Sequence) -> Transcript:
    """Play the engine's Duplicator strategy against a Spoiler move script.

    If the solver declared Duplicator the winner, reaching a lost position
    raises ``RuntimeError`` (a bug sentinel).
    """
    _check_verdict(verdict, spec, a, b)
    transcript = Transcript(spec)
    key = verdict.root
    if not verdict.condition_at(key):
        transcript.winner = "Spoiler"
        transcript.note = "initial position violates the winning condition"
        return transcript
    for i, move in enumerate(moves_script, start=1):
        move = _validate_move(verdict, key, move, i)
        response = verdict.duplicator_response(key, move)
        doomed_note = ""
        if response is None:
            options = verdict.responses(key, move)
            if not options:
                transcript.rounds.append({"move": move, "response": None, "condition": False})
                transcript.note = f"no response available at round {i}"
                break
            response = options[0]
            doomed_note = " (best effort)"
        key = verdict.child(key, move, response)
        ok = verdict.condition_at(key)
        transcript.rounds.append({"move": move, "response": response, "condition": ok})
        if not ok:
            transcript.note = f"condition violated at round {i}{doomed_note}"
            break
    else:
        if verdict.duplicator_wins and not verdict.alive(key):
            raise RuntimeError("replay left the winning region under Duplicator's strategy "
                               "(bug sentinel)")
        return transcript
    if verdict.duplicator_wins:
        raise RuntimeError("replay lost a game the solver declared won by Duplicator "
                           "(bug sentinel)")
    transcript.winner = "Spoiler"
    return transcript
