"""Preorder-refinement oracle for fragment preservation.

Fix a layer (a quantifier rank, a modal depth, or "any number of rounds")
and a set of points: the assignments of some variables into A and into B,
or the worlds of A and B.  The sets of points a fragment defines there are
closed under arbitrary conjunction and disjunction and contain the empty
set (false) and every point (true).  By Birkhoff's representation theorem
such a family is exactly the family of up-sets of one preorder on the
points: x <= y iff every defined set that holds x holds y.  The preorder is
fixed by any generating family G, and two sets per point describe it:

    up(x)   = the AND of the generators that contain x   (the least up-set at x)
    coup(x) = the OR of the generators that miss x        (the greatest one without x)

Every defined set is a union of up(x)'s and an intersection of coup(x)'s.
Existential quantification (E, <R>) distributes over unions and universal
quantification (A, [R]) over intersections, so the generators of the next
layer are the literals plus E up(x) and A coup(x) along every quantifier
edge; nothing else is needed.  A quantifier edge is an extension map:
ext[p] is the bitmask of body points that extend p, E keeps p iff ext[p]
meets the body, A keeps p iff ext[p] lies inside it.  Sentences live on
the key with no free variables, and preservation fails iff B's point is
not in up(A's point) there.  Full mode is closed under complement, so its
preorder is an equivalence and the run is colour refinement
(Cai-Fuerer-Immerman); the one-sided modes give the existential k-pebble
preorder of Kolaitis-Vardi.

The three families are data for one engine:

* ``ml_depth``: one key, the worlds of A then B; an edge per binary
  relation maps a world to its successors; depth layers 0..k.
* ``fo_rank``: a key per free-variable set S of x1..xk, its points the
  S-assignments into A then into B; for every j an edge from S u {j} to S
  maps an S-assignment to its extensions (j in S re-binds x_j).  A formula
  of rank r inside a sentence of rank <= k sits under at most k - r
  quantifiers, each binding one variable, so every free variable set it
  can have has at most k - r members: layer r keeps only the keys with
  |S| <= k - r.
* ``l_vars``: every S, rounds repeated until no preorder changes.

The key with S empty has one point per structure, the empty assignment,
even when the universe is empty.  There every ext is empty, so E-steps are
false and A-steps true, and a 0-ary literal keeps its value: the semantics
of an empty structure, with no special case.

A literal is kept as a descriptor, a ``functools.partial`` that builds its
formula when called; for ``fo_rank`` and ``l_vars`` the descriptors of a key
depend on the vocabulary and S only and are built once per S and kept in
the memo of A, so they live as long as the structure.
A run stops at the first round whose preorder puts B's point outside A's
up-set; the witness is explained from the kept rounds only when the
result's ``witness`` is first read, so a caller that reads ``preserved``
alone builds no formula.

Witnesses are read off the generators' back-pointers by a greedy
minimizer that carries a pair (must hold C, must miss E) down the formula.
At a conjunction it picks generators that contain C until E is covered,
literals first; at a disjunction it picks generators that miss E until C
is covered.  Below E it keeps one extension in the body per point of C and
all extensions of the points of E; below A, all extensions of C and one
extension outside the body per point of E.  It only leaves nodes out, so
the rank, variable count, modal depth and mode of the witness stay those
of its layer.

``cap`` bounds the points of a key, the distinct generators of a key in
one round and, for ``fo_rank`` and ``l_vars``, the literal positions of the
key of all variables (the sum of ``k ** arity`` over the relations, checked
once per run before any table is built); exceeding it raises
``OracleResourceError``.

For ``fo_rank`` and ``l_vars``, what depends on one structure alone is
built once and kept in ``Structure.memo`` by assignment length: the tuples,
their coordinate, literal and equality masks, and the extension groups of
every edge, all numbered from 0 (``_Assignments``).  A pair only shifts B's
masks past A's points and lists A's groups first, so keys, generators and
witnesses do not depend on what the memos already hold.  The points cap is
checked before any table is read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Optional

from .formulas import (MODES, Atom, Eq, FalseC, Formula, NegAtom, NegEq, NegProp, Prop,
                       TrueC, Exists, Forall, Dia, Box, and_, canonical_mode, or_)
from .structures import Structure, StructureError, same_vocab

FAMILIES = ("fo_rank", "l_vars", "ml_depth")

_FAMILY_ALIASES = {
    "FOrank": "fo_rank", "forank": "fo_rank", "fo": "fo_rank",
    "Lvars": "l_vars", "lvars": "l_vars",
    "MLdepth": "ml_depth", "mldepth": "ml_depth", "ml": "ml_depth",
}

DEFAULT_SIGNATURE_CAP = 2 ** 20


class OracleResourceError(RuntimeError):
    """A key's points, generators or literal positions exceeded the
    configured cap; reported distinctly from a verdict, never silently
    approximated."""


@dataclass(frozen=True)
class FragmentSpec:
    """Logic fragment: family (rank / variables / modal depth), bound, mode."""

    family: str
    k: int
    mode: str

    def __post_init__(self):
        family = _FAMILY_ALIASES.get(self.family, self.family)
        if family not in FAMILIES:
            raise ValueError(f"unknown fragment family {self.family!r}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "mode", canonical_mode(self.mode))
        if self.k < 0 or (family == "l_vars" and self.k < 1):
            raise ValueError("k out of range for fragment family")


class OracleResult:
    """A verdict and, when preservation fails, a witness sentence: true in A,
    false in B.  ``explain`` builds the witness the first time ``witness`` is
    read; the result then lets go of it (and of the engine it reads)."""

    __slots__ = ("preserved", "_witness", "_explain")

    def __init__(self, preserved: bool, witness: Optional[Formula] = None, explain=None):
        self.preserved = preserved
        self._witness = witness
        self._explain = explain

    @property
    def witness(self) -> Optional[Formula]:
        explain = self._explain
        if explain is not None:  # the witness is stored before explain is dropped
            self._witness = explain()
            self._explain = None
        return self._witness

    def __repr__(self) -> str:
        return f"OracleResult(preserved={self.preserved!r}, witness={self.witness!r})"


_TRUE, _FALSE = partial(TrueC), partial(FalseC)


def _preorder(gens, full: int, with_co: bool) -> dict:
    """The classes of points that lie in the same generators, each mapped
    to (up, coup) of its points (coup 0 without universals)."""
    classes = [full]
    for g in gens:
        split = []
        for c in classes:
            inside = c & g
            if inside and inside != c:
                split += (inside, c & ~g)
            else:
                split.append(c)
        classes = split
    out = {}
    for c in classes:
        bit = c & -c
        u = full
        co = 0
        for g in gens:
            if g & bit:
                u &= g
            elif with_co:
                co |= g
        out[c] = (u, co)
    return out


def _pick(pairs, points: int, inside: int) -> int:
    """One extension inside ``inside`` for every point of ``points``."""
    out = 0
    for ext, dst in pairs:
        if dst & points and not ext & inside & out:
            m = ext & inside
            out |= m & -m
    return out


def _spread(pairs, points: int) -> int:
    """Every extension of every point of ``points``."""
    out = 0
    for ext, dst in pairs:
        if dst & points:
            out |= ext
    return out


class _Refinement:
    """Keys with their points, literals and incoming quantifier edges.

    ``keys[key] = (full, literals)``: the mask of the key's points,
    numbered A first, and a dict mask -> literal descriptor (a ``partial``
    that builds the literal's formula).
    ``edges_of(key)`` lists the edges into a key, built on first use, as
    ``(source key, label, pairs)`` where pairs groups the points of the key
    by extension map, ``(ext over the source's points, points)``.  Each
    round stores, per key, its generators (mask -> literal descriptor or
    ``(universal, label, source, body mask, pairs)``) and its preorder.
    """

    def __init__(self, quantifiers, mode: str, cap: int, root: tuple[int, int, int],
                 edges_of):
        self.exists, self.forall = quantifiers
        self.universals = MODES[mode].universals
        self.cap = cap
        self.root = root   # (key, A's point, B's point) of the sentences
        self.keys: dict = {}
        self.edges_of = edges_of
        self.edges: dict = {}
        self.rounds: list = []

    def round(self, keys) -> None:
        prev = self.rounds[-1] if self.rounds else None
        cur = {}
        for key in keys:
            full, literals = self.keys[key]
            gens = dict(literals)
            if prev and key not in self.edges:
                self.edges[key] = self.edges_of(key)
            for src, label, pairs in (self.edges[key] if prev else ()):
                bodies = prev[src][1].values()
                for body, _ in bodies:
                    m = 0
                    for ext, dst in pairs:
                        if ext & body:
                            m |= dst
                    gens.setdefault(m, (False, label, src, body, pairs))
                for _, body in (bodies if self.universals else ()):
                    m = 0
                    for ext, dst in pairs:
                        if ext & body == ext:
                            m |= dst
                    gens.setdefault(m, (True, label, src, body, pairs))
            if len(gens) > self.cap:
                raise OracleResourceError(f"oracle cap {self.cap} exceeded by a key's generators")
            cur[key] = (gens, _preorder(gens, full, self.universals))
        self.rounds.append(cur)

    def violated(self) -> bool:
        """B's point lies outside A's up-set in the last round."""
        key, pa, pb = self.root
        up = next(u for c, (u, _) in self.rounds[-1][key][1].items() if c >> pa & 1)
        return not up >> pb & 1

    def witness(self) -> Formula:
        """A sentence of the last round true in A and false in B; the last
        round must be violated."""
        key, pa, pb = self.root
        return self._explain(len(self.rounds) - 1, key, True, 1 << pa, 1 << pb)

    def _explain(self, r: int, key, conj: bool, must: int, avoid: int) -> Formula:
        gens = self.rounds[r][key][0]
        if conj:
            cands = [(g, how) for g, how in gens.items() if g & must == must and avoid & ~g]
            need = avoid
        else:
            cands = [(g, how) for g, how in gens.items() if g & must and not g & avoid]
            need = must

        def hits(g: int) -> int:
            return need & ~g if conj else need & g

        parts = []
        while need:
            g, how = max(cands, key=lambda c: (hits(c[0]) != 0 and isinstance(c[1], partial),
                                               hits(c[0]).bit_count()))
            hit = hits(g)
            if not hit:
                raise RuntimeError("internal error: oracle generators do not cover")
            need &= ~hit
            if isinstance(how, partial):
                parts.append(how())
                continue
            universal, label, src, body, pairs = how
            sub_must, sub_avoid = (must, hit) if conj else (hit, avoid)
            if universal:
                part = self.forall(label, self._explain(
                    r - 1, src, False, _spread(pairs, sub_must), _pick(pairs, sub_avoid, ~body)))
            else:
                part = self.exists(label, self._explain(
                    r - 1, src, True, _pick(pairs, sub_must, body), _spread(pairs, sub_avoid)))
            parts.append(part)
        return and_(parts) if conj else or_(parts)

    def run(self, keys_of, layers: Optional[int]) -> tuple[int, bool]:
        """Rounds 0, 1, ... over ``keys_of(round)`` until a violation, the
        round ``layers`` or a round that changes no preorder.  Returns the
        last round and whether it is violated (if not, preservation holds
        up to that round)."""
        r = 0
        while True:
            self.round(keys_of(r))
            violated = self.violated()
            if violated or r == layers or (r and self._stable()):
                return r, violated
            r += 1

    def _stable(self) -> bool:
        """The last round's keys have the preorders of the round before.
        Their generators in the next round then repeat this round's (the
        keys of a round are among those of the round before), and so on."""
        last, before = self.rounds[-1], self.rounds[-2]
        return all(last[key][1] == before[key][1] for key in last)


class _Assignments:
    """The m-tuples over one structure's universe, numbered from 0, and what
    the FO engine reads off them: ``coord[p][e]``, the tuples with e at
    position p; ``literals``, the tuples each positive literal holds on, in
    the order of ``_literal_descriptors``: per relation and per tuple of
    positions (in ``itertools.product`` order) the tuples it holds on, then
    per pair of positions (in ``itertools.combinations`` order) the tuples
    equal there; and ``groups``, the extension groups of an edge, by
    ``(S, j)``."""

    def __init__(self, st: Structure, m: int):
        self.tuples = list(itertools.product(st.universe, repeat=m))
        self.full = (1 << len(self.tuples)) - 1
        self.coord = coord = [dict.fromkeys(st.universe, 0) for _ in range(m)]
        for i, t in enumerate(self.tuples):
            for c, e in zip(coord, t):
                c[e] |= 1 << i
        self.literals = []
        for rel, arity in st.vocab.relations:
            for ps in itertools.product(range(m), repeat=arity):
                mask = 0
                for t in st.interp[rel]:
                    m_t = self.full
                    for p, e in zip(ps, t):
                        m_t &= coord[p][e]
                    mask |= m_t
                self.literals.append(mask)
        # the masks summed are disjoint: one per element at both positions
        self.literals += [sum(coord[p][e] & coord[q][e] for e in st.universe)
                          for p, q in itertools.combinations(range(m), 2)]
        self.groups: dict = {}


def _assignments(st: Structure, s: int) -> _Assignments:
    """The S-assignments into ``st``, built once per structure and size of S."""
    m = s.bit_count()
    table = st.memo.get(("fo", m))
    if table is None:
        table = st.memo["fo", m] = _Assignments(st, m)
    return table


def _variables(s: int) -> list:
    return [v for v in range(1, s.bit_length() + 1) if s >> (v - 1) & 1]


def _groups(st: Structure, s: int, j: int) -> list:
    """The S-assignments into ``st`` grouped by their extension maps into
    S u {j}, as ``(ext, assignments)`` masks numbered from 0 per key."""
    dst = _assignments(st, s)
    out = dst.groups.get((s, j))
    if out is None:
        src_s = s | 1 << (j - 1)
        src = _assignments(st, src_s)
        src_pos = {v: q for q, v in enumerate(_variables(src_s))}
        common = [(p, src_pos[v]) for p, v in enumerate(_variables(s)) if v != j]
        group: dict = {}
        for i, t in enumerate(dst.tuples):
            ext = src.full
            for p, q in common:
                ext &= src.coord[q][t[p]]
            group[ext] = group.get(ext, 0) | 1 << i
        out = dst.groups[s, j] = list(group.items())
    return out


def _literal_descriptors(st: Structure, s: int) -> tuple:
    """The (positive, negative) descriptors of the literals over the
    variables of S, in the order of ``_Assignments.literals``, built once
    per structure and S and kept in its memo."""
    out = st.memo.get(("descriptors", s))
    if out is None:
        vs = _variables(s)
        atoms = [(partial(Atom, rel, vars_), partial(NegAtom, rel, vars_))
                 for rel, arity in st.vocab.relations
                 for vars_ in itertools.product(vs, repeat=arity)]
        eqs = [(partial(Eq, i, j), partial(NegEq, i, j)) for i, j in itertools.combinations(vs, 2)]
        out = st.memo["descriptors", s] = tuple(atoms + eqs)
    return out


def _fo_engine(a: Structure, b: Structure, k: int, mode: str, cap: int) -> _Refinement:
    """Keys are the bitmasks S of free variables x1..xk.  Literal masks and
    edges come from the ``_Assignments`` of A and of B, which each structure
    keeps in its memo; a key numbers A's points first, then B's."""
    negations = MODES[mode].negations
    shifts = {}

    def edges_of(s: int) -> list:
        edges = []
        for j in range(1, k + 1):
            src = s | 1 << (j - 1)
            group = dict(_groups(a, s, j))
            for ext, dst in _groups(b, s, j):
                ext <<= shifts[src]
                group[ext] = group.get(ext, 0) | dst << shifts[s]
            edges.append((src, j, list(group.items())))
        return edges

    eng = _Refinement((Exists, Forall), mode, cap, (0, 0, 1), edges_of)
    for s in range(1 << k):
        m = s.bit_count()
        if a.size ** m + b.size ** m > cap:
            raise OracleResourceError(f"oracle cap {cap} exceeded by a key's points")
        shifts[s] = a.size ** m
    if sum(k ** arity for _, arity in a.vocab.relations) > cap:  # the key of all k
        raise OracleResourceError(f"oracle cap {cap} exceeded by a key's literal positions")
    for s, shift in shifts.items():
        ta, tb = _assignments(a, s), _assignments(b, s)
        full = ta.full | tb.full << shift
        literals = {full: _TRUE}
        literals.setdefault(0, _FALSE)
        for (pos, neg), ma, mb in zip(_literal_descriptors(a, s),
                                      ta.literals, tb.literals):
            mask = ma | mb << shift
            literals.setdefault(mask, pos)
            if negations:
                literals.setdefault(full & ~mask, neg)
        eng.keys[s] = (full, literals)
    return eng


def _modal_engine(a: Structure, b: Structure, mode: str, cap: int) -> _Refinement:
    """One key: the worlds of A, then of B."""
    sides = ((a, 0), (b, a.size))
    full = (1 << (a.size + b.size)) - 1
    literals = {full: _TRUE}
    literals.setdefault(0, _FALSE)
    for rel in a.vocab.unary:
        m = 0
        for s, shift in sides:
            for (x,) in s.interp[rel]:
                m |= 1 << (s.index[x] + shift)
        literals.setdefault(m, partial(Prop, rel))
        if MODES[mode].negations:
            literals.setdefault(full & ~m, partial(NegProp, rel))
    edges = []
    for rel in a.vocab.binary:
        group: dict = {}
        for s, shift in sides:
            succ = dict.fromkeys(s.universe, 0)
            for x, y in s.interp[rel]:
                succ[x] |= 1 << (s.index[y] + shift)
            for x, ext in succ.items():
                group[ext] = group.get(ext, 0) | 1 << (s.index[x] + shift)
        edges.append((0, rel, list(group.items())))
    eng = _Refinement((Dia, Box), mode, cap,
                      (0, a.index[a.point], a.size + b.index[b.point]), lambda key: edges)
    eng.keys[0] = (full, literals)
    return eng


def _profile(eng: _Refinement, k: int, keys_of) -> list[OracleResult]:
    """Verdicts for the layers 0..k; a violation holds for every later
    layer, which all share one result and so one witness."""
    r, violated = eng.run(keys_of, k)
    if not violated:
        return [OracleResult(True)] * (k + 1)
    return [OracleResult(True)] * r + [OracleResult(False, explain=eng.witness)] * (k + 1 - r)


def fo_rank_profile(a: Structure, b: Structure, k: int, mode: str,
                    cap: int = DEFAULT_SIGNATURE_CAP) -> list[OracleResult]:
    """Preservation verdicts for every rank 0..k in a single layered run."""
    if k < 0:
        raise ValueError(f"rank k must be >= 0, got {k}")
    if not same_vocab(a, b):
        raise StructureError("vocabulary mismatch")
    eng = _fo_engine(a, b, k, canonical_mode(mode), cap)
    return _profile(eng, k, lambda r: [s for s in eng.keys if s.bit_count() <= k - r])


def ml_depth_profile(a: Structure, b: Structure, k: int, mode: str,
                     cap: int = DEFAULT_SIGNATURE_CAP) -> list[OracleResult]:
    if k < 0:
        raise ValueError(f"modal depth k must be >= 0, got {k}")
    if not same_vocab(a, b):
        raise StructureError("vocabulary mismatch")
    if not a.vocab.modal_flag:
        raise StructureError("modal fragment needs a modal vocabulary")
    if a.point is None or b.point is None:
        raise StructureError("modal fragment needs pointed structures")
    return _profile(_modal_engine(a, b, canonical_mode(mode), cap), k, lambda r: (0,))


def oracle_preserves(frag: FragmentSpec, a: Structure, b: Structure,
                     cap: int = DEFAULT_SIGNATURE_CAP) -> OracleResult:
    """Decide whether every sentence of the fragment true in a is true in b.

    The witness, when preservation fails, is a sentence of the fragment
    true in a and false in b; soundness (true in a, false in b,
    in-fragment, within bounds) is part of the contract and exercised by
    the test suite.
    """
    if frag.family == "fo_rank":
        return fo_rank_profile(a, b, frag.k, frag.mode, cap)[frag.k]
    if frag.family == "ml_depth":
        return ml_depth_profile(a, b, frag.k, frag.mode, cap)[frag.k]
    if not same_vocab(a, b):
        raise StructureError("vocabulary mismatch")
    eng = _fo_engine(a, b, frag.k, frag.mode, cap)
    if eng.run(lambda r: eng.keys, None)[1]:
        return OracleResult(False, explain=eng.witness)
    return OracleResult(True)
