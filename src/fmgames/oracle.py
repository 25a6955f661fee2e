"""Exact signature-closure oracle for fragment preservation.

A signature is the pair of truth tables of a formula over all total
assignments of x_1..x_k into the two fixed structures, together with the
free-variable set of a generating formula.  Only finitely many signatures
exist, so closing a set of them under binary meet/join to a fixpoint
realizes arbitrary (even infinitary) conjunction and disjunction exactly.

The closure is kept in disjunctive-normal-form bases: every element of the
lattice generated by a set G of signatures is a join of meets of members of
G, existential quantification distributes over joins, and universal
quantification over meets.  It therefore suffices to maintain the
meet-closure M and (for modes with universal constructs) the join-closure
J, feeding ``E xj m`` for m in M and ``A xj u`` for u in J to the next rank
layer as fresh generators.  A violating sentence is a join of sentence
meets, hence is witnessed by a single meet whose A-table is constant true
and whose B-table is constant false; that meet has one fixed packed
encoding, so the violation test is a set-membership check.

Each signature is packed into one integer  (tableA | tableB | freeVars) so
meets and joins are a couple of machine operations; generating formulas are
reconstructed on demand from construction back-pointers.  For rank-layered
runs, entries whose free-variable set is larger than the number of
remaining quantifier layers can never reach a sentence (meets and joins
only grow free-variable sets) and are discarded, which is what keeps the
closure small.

A structure with an empty universe is handled by a one-bit table holding
the value a sentence context would take there: literals are false,
existential steps yield constant false and universal steps constant true.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .formulas import (Atom, Eq, Formula, NegAtom, NegEq, NegProp, Prop,
                       Exists, Forall, Dia, Box, TRUE, FALSE, and_, or_)
from .games import canonical_mode
from .structures import Structure, StructureError, same_vocab

FAMILIES = ("fo_rank", "l_vars", "ml_depth")

_FAMILY_ALIASES = {
    "FOrank": "fo_rank", "forank": "fo_rank", "fo": "fo_rank",
    "Lvars": "l_vars", "lvars": "l_vars",
    "MLdepth": "ml_depth", "mldepth": "ml_depth", "ml": "ml_depth",
}

DEFAULT_SIGNATURE_CAP = 2 ** 20


class OracleResourceError(RuntimeError):
    """Signature count exceeded the configured cap; reported distinctly
    from a verdict, never silently approximated."""


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


@dataclass(frozen=True)
class OracleResult:
    preserved: bool
    witness: Optional[Formula] = None


def _negations_allowed(mode: str) -> bool:
    return mode in ("full", "existential")


def _universals_allowed(mode: str) -> bool:
    return mode in ("full", "positive")


class _FoSide:
    """Assignment tables for one structure: one bit per total assignment."""

    def __init__(self, struct: Structure, k: int):
        self.struct = struct
        self.k = k
        self.empty = struct.size == 0
        if self.empty:
            self.width = 1
            self.full = 1
            self.groups = {j: [] for j in range(1, k + 1)}
            self.assignments = []
            return
        self.assignments = list(itertools.product(struct.universe, repeat=k))
        self.width = len(self.assignments)
        self.full = (1 << self.width) - 1
        n = struct.size
        self.groups = {}
        for j in range(1, k + 1):
            stride = n ** (k - j)
            buckets: dict = {}
            for idx in range(self.width):
                digit = (idx // stride) % n
                buckets.setdefault(idx - digit * stride, 0)
            for base in buckets:
                mask = 0
                for t in range(n):
                    mask |= 1 << (base + t * stride)
                buckets[base] = mask
            self.groups[j] = list(buckets.values())

    def literal(self, rel: str, vars_: tuple[int, ...], *, negated: bool) -> int:
        if self.empty:
            return 0
        rel_set = self.struct.interp[rel]
        mask = 0
        for idx, alpha in enumerate(self.assignments):
            inside = tuple(alpha[v - 1] for v in vars_) in rel_set
            if inside != negated:
                mask |= 1 << idx
        return mask

    def equality(self, i: int, j: int, *, negated: bool) -> int:
        if self.empty:
            return 0
        mask = 0
        for idx, alpha in enumerate(self.assignments):
            if (alpha[i - 1] == alpha[j - 1]) != negated:
                mask |= 1 << idx
        return mask

    def exists(self, mask: int, j: int) -> int:
        if self.empty:
            return 0
        out = 0
        for g in self.groups[j]:
            if mask & g:
                out |= g
        return out

    def forall(self, mask: int, j: int) -> int:
        if self.empty:
            return 1
        out = 0
        for g in self.groups[j]:
            if mask & g == g:
                out |= g
        return out


class _Basis:
    """Insertion-ordered closure of packed signatures under meet or join.

    A packed signature is  (tableA << (widthB + k)) | (tableB << k) | fv,
    with fv a bitmask of free variables.  For meets the table parts combine
    by AND and the fv part by OR; joins are a plain OR.  Construction
    back-pointers (``hows``) allow lazy formula reconstruction.
    """

    def __init__(self, meet: bool, k: int, hi_mask: int, cap: int):
        self.meet = meet
        self.k = k
        self.fv_mask = (1 << k) - 1
        self.hi_mask = hi_mask << k
        self.cap = cap
        self.keys: list[int] = []
        self.hows: list = []
        self.index: dict[int, int] = {}
        self.fv_limit: Optional[int] = None
        self._popcnt = [bin(m).count("1") for m in range(1 << k)]

    def add(self, packed: int, how) -> int:
        """Insert if new; returns the entry index or -1 when not inserted."""
        pos = self.index.get(packed)
        if pos is not None:
            return -1
        if self.fv_limit is not None and self._popcnt[packed & self.fv_mask] > self.fv_limit:
            return -1
        if len(self.keys) >= self.cap:
            raise OracleResourceError(f"signature cap {self.cap} exceeded")
        pos = len(self.keys)
        self.index[packed] = pos
        self.keys.append(packed)
        self.hows.append(how)
        return pos

    def close(self, start: int):
        keys = self.keys
        hows = self.hows
        index = self.index
        fv_mask = self.fv_mask
        hi_mask = self.hi_mask
        cap = self.cap
        limit = self.fv_limit
        popcnt = self._popcnt
        meet = self.meet
        tag = "and" if meet else "or"
        i = start
        while i < len(keys):
            x = keys[i]
            for j in range(i):
                y = keys[j]
                if meet:
                    z = (x & y & hi_mask) | ((x | y) & fv_mask)
                else:
                    z = x | y
                if z in index:
                    continue
                if limit is not None and popcnt[z & fv_mask] > limit:
                    continue
                if len(keys) >= cap:
                    raise OracleResourceError(f"signature cap {cap} exceeded")
                index[z] = len(keys)
                keys.append(z)
                hows.append((tag, i, j))
            i += 1


class _FoOracle:
    """Shared engine for the rank-layered and variable-fixpoint closures."""

    def __init__(self, a: Structure, b: Structure, k: int, mode: str, cap: int):
        self.mode = mode
        self.k = k
        self.side_a = _FoSide(a, k)
        self.side_b = _FoSide(b, k)
        self.shift_b = k
        self.shift_a = k + self.side_b.width
        hi_mask = (self.side_a.full << self.side_b.width) | self.side_b.full
        self.meets = _Basis(True, k, hi_mask, cap)
        self.joins = _Basis(False, k, hi_mask, cap) if _universals_allowed(mode) else None
        #: the unique packed value of a violating sentence signature
        self.violation_key = self.side_a.full << self.shift_a
        self.violation: Optional[int] = None  # index into meets
        self._literals(a)

    def _pack(self, ma: int, mb: int, fv: int) -> int:
        return (ma << self.shift_a) | (mb << self.shift_b) | fv

    def _gen(self, ma: int, mb: int, fv: int, how) -> bool:
        packed = self._pack(ma, mb, fv)
        pos = self.meets.add(packed, how)
        if self.joins is not None:
            self.joins.add(packed, how)
        if pos >= 0 and packed == self.violation_key and self.violation is None:
            self.violation = pos
        return pos >= 0

    def _literals(self, a: Structure):
        k, sa, sb = self.k, self.side_a, self.side_b
        self._gen(sa.full, sb.full, 0, ("lit", TRUE))
        self._gen(0, 0, 0, ("lit", FALSE))
        for rel, arity in a.vocab.relations:
            for vars_ in itertools.product(range(1, k + 1), repeat=arity):
                fv = 0
                for v in vars_:
                    fv |= 1 << (v - 1)
                self._gen(sa.literal(rel, vars_, negated=False),
                          sb.literal(rel, vars_, negated=False),
                          fv, ("lit", Atom(rel, vars_)))
                if _negations_allowed(self.mode):
                    self._gen(sa.literal(rel, vars_, negated=True),
                              sb.literal(rel, vars_, negated=True),
                              fv, ("lit", NegAtom(rel, vars_)))
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                fv = (1 << (i - 1)) | (1 << (j - 1))
                self._gen(sa.equality(i, j, negated=False),
                          sb.equality(i, j, negated=False), fv, ("lit", Eq(i, j)))
                if _negations_allowed(self.mode):
                    self._gen(sa.equality(i, j, negated=True),
                              sb.equality(i, j, negated=True), fv, ("lit", NegEq(i, j)))

    def _unpack(self, packed: int) -> tuple[int, int, int]:
        return (packed >> self.shift_a,
                (packed >> self.shift_b) & self.side_b.full,
                packed & self.meets.fv_mask)

    def _quantifier_gens(self, budget: Optional[int]) -> list:
        out = []
        sa, sb = self.side_a, self.side_b
        for idx in range(len(self.meets.keys)):
            ma, mb, fv = self._unpack(self.meets.keys[idx])
            for j in range(1, self.k + 1):
                nfv = fv & ~(1 << (j - 1))
                if budget is not None and bin(nfv).count("1") > budget:
                    continue
                out.append((sa.exists(ma, j), sb.exists(mb, j), nfv, ("E", j, "M", idx)))
        if self.joins is not None:
            for idx in range(len(self.joins.keys)):
                ma, mb, fv = self._unpack(self.joins.keys[idx])
                for j in range(1, self.k + 1):
                    nfv = fv & ~(1 << (j - 1))
                    if budget is not None and bin(nfv).count("1") > budget:
                        continue
                    out.append((sa.forall(ma, j), sb.forall(mb, j), nfv, ("A", j, "J", idx)))
        return out

    def _set_limits(self, limit: Optional[int]):
        self.meets.fv_limit = limit
        if self.joins is not None:
            self.joins.fv_limit = limit

    def _close_all(self, m_mark: int, j_mark: int):
        self.meets.close(m_mark)
        if self.joins is not None:
            self.joins.close(j_mark)
        if self.violation is None:
            self.violation = self.meets.index.get(self.violation_key)

    def run_rank_layers(self) -> list[Optional[Formula]]:
        """Close layer by layer; entry i of the result is a violating
        sentence of rank <= i when one exists, else None."""
        per_layer: list[Optional[Formula]] = []
        m_mark = j_mark = 0
        for layer in range(self.k + 1):
            self._set_limits(self.k - layer)
            if layer > 0:
                gens = self._quantifier_gens(self.k - layer)
                m_mark = len(self.meets.keys)
                j_mark = len(self.joins.keys) if self.joins is not None else 0
                for ma, mb, fv, how in gens:
                    self._gen(ma, mb, fv, how)
            self._close_all(m_mark, j_mark)
            per_layer.append(self.witness_formula())
        return per_layer

    def run_variable_fixpoint(self) -> Optional[Formula]:
        """Iterate quantification and closure to a fixpoint (no rank bound)."""
        self._set_limits(None)
        m_mark = j_mark = 0
        while True:
            self._close_all(m_mark, j_mark)
            if self.violation is not None:
                # monotone: once a violating sentence exists it stays
                return self.witness_formula()
            gens = self._quantifier_gens(None)
            m_mark = len(self.meets.keys)
            j_mark = len(self.joins.keys) if self.joins is not None else 0
            added = False
            for ma, mb, fv, how in gens:
                added |= self._gen(ma, mb, fv, how)
            if not added:
                return None

    def realize(self, basis_tag: str, idx: int, memo: dict) -> Formula:
        key = (basis_tag, idx)
        if key in memo:
            return memo[key]
        basis = self.meets if basis_tag == "M" else self.joins
        how = basis.hows[idx]
        if how[0] == "lit":
            out = how[1]
        elif how[0] == "and":
            out = and_([self.realize(basis_tag, how[1], memo),
                        self.realize(basis_tag, how[2], memo)])
        elif how[0] == "or":
            out = or_([self.realize(basis_tag, how[1], memo),
                       self.realize(basis_tag, how[2], memo)])
        elif how[0] == "E":
            out = Exists(how[1], self.realize(how[2], how[3], memo))
        else:
            out = Forall(how[1], self.realize(how[2], how[3], memo))
        memo[key] = out
        return out

    def witness_formula(self) -> Optional[Formula]:
        if self.violation is None:
            return None
        return self.realize("M", self.violation, {})


class _ModalOracle:
    """Depth-layered closure over world tables; diamonds from the meet
    basis, boxes from the join basis, no free variables to track."""

    def __init__(self, a: Structure, b: Structure, k: int, mode: str, cap: int):
        self.a, self.b, self.k, self.mode = a, b, k, mode
        self.width_b = b.size
        hi_mask = (((1 << a.size) - 1) << b.size) | ((1 << b.size) - 1)
        self.meets = _Basis(True, 0, hi_mask, cap)
        self.joins = _Basis(False, 0, hi_mask, cap) if _universals_allowed(mode) else None
        self.full_a = (1 << a.size) - 1
        self.full_b = (1 << b.size) - 1
        self.point_bit_a = 1 << (a.index[a.point] + b.size)
        self.point_bit_b = 1 << b.index[b.point]
        self.succ_a = self._succ_masks(a)
        self.succ_b = self._succ_masks(b)
        self.violation: Optional[int] = None
        self._literals()

    @staticmethod
    def _succ_masks(s: Structure) -> dict:
        out = {}
        for rel in s.vocab.binary:
            masks = [0] * s.size
            for x, y in s.interp[rel]:
                masks[s.index[x]] |= 1 << s.index[y]
            out[rel] = masks
        return out

    @staticmethod
    def _prop_mask(s: Structure, rel: str) -> int:
        mask = 0
        for (x,) in s.interp[rel]:
            mask |= 1 << s.index[x]
        return mask

    def _gen(self, ma: int, mb: int, how) -> bool:
        packed = (ma << self.width_b) | mb
        pos = self.meets.add(packed, how)
        if self.joins is not None:
            self.joins.add(packed, how)
        return pos >= 0

    def _literals(self):
        self._gen(self.full_a, self.full_b, ("lit", TRUE))
        self._gen(0, 0, ("lit", FALSE))
        for rel in self.a.vocab.unary:
            pa, pb = self._prop_mask(self.a, rel), self._prop_mask(self.b, rel)
            self._gen(pa, pb, ("lit", Prop(rel)))
            if _negations_allowed(self.mode):
                self._gen(self.full_a & ~pa, self.full_b & ~pb, ("lit", NegProp(rel)))

    def _dia(self, succ, size, mask):
        out = 0
        for w in range(size):
            if succ[w] & mask:
                out |= 1 << w
        return out

    def _box(self, succ, size, mask):
        out = 0
        for w in range(size):
            if succ[w] & ~mask == 0:
                out |= 1 << w
        return out

    def _scan_violation(self, start: int) -> Optional[int]:
        if self.violation is not None:
            return self.violation
        pa, pb = self.point_bit_a, self.point_bit_b
        for idx in range(start, len(self.meets.keys)):
            key = self.meets.keys[idx]
            if key & pa and not key & pb:
                self.violation = idx
                return idx
        return None

    def run_depth_layers(self) -> list[Optional[Formula]]:
        per_layer: list[Optional[Formula]] = []
        m_mark = j_mark = v_mark = 0
        for layer in range(self.k + 1):
            if layer > 0:
                gens = []
                for rel in self.a.vocab.binary:
                    sa, sb = self.succ_a[rel], self.succ_b[rel]
                    for idx in range(len(self.meets.keys)):
                        key = self.meets.keys[idx]
                        ma, mb = key >> self.width_b, key & self.full_b
                        gens.append((self._dia(sa, self.a.size, ma),
                                     self._dia(sb, self.b.size, mb),
                                     ("dia", rel, "M", idx)))
                    if self.joins is not None:
                        for idx in range(len(self.joins.keys)):
                            key = self.joins.keys[idx]
                            ma, mb = key >> self.width_b, key & self.full_b
                            gens.append((self._box(sa, self.a.size, ma),
                                         self._box(sb, self.b.size, mb),
                                         ("box", rel, "J", idx)))
                m_mark = len(self.meets.keys)
                j_mark = len(self.joins.keys) if self.joins is not None else 0
                for ma, mb, how in gens:
                    self._gen(ma, mb, how)
            self.meets.close(m_mark)
            if self.joins is not None:
                self.joins.close(j_mark)
            self._scan_violation(v_mark)
            v_mark = len(self.meets.keys)
            per_layer.append(self.witness_formula())
        return per_layer

    def realize(self, basis_tag: str, idx: int, memo: dict) -> Formula:
        key = (basis_tag, idx)
        if key in memo:
            return memo[key]
        basis = self.meets if basis_tag == "M" else self.joins
        how = basis.hows[idx]
        if how[0] == "lit":
            out = how[1]
        elif how[0] == "and":
            out = and_([self.realize(basis_tag, how[1], memo),
                        self.realize(basis_tag, how[2], memo)])
        elif how[0] == "or":
            out = or_([self.realize(basis_tag, how[1], memo),
                       self.realize(basis_tag, how[2], memo)])
        elif how[0] == "dia":
            out = Dia(how[1], self.realize(how[2], how[3], memo))
        else:
            out = Box(how[1], self.realize(how[2], how[3], memo))
        memo[key] = out
        return out

    def witness_formula(self) -> Optional[Formula]:
        if self.violation is None:
            return None
        return self.realize("M", self.violation, {})


def _fresh_result(witness: Optional[Formula]) -> OracleResult:
    return OracleResult(witness is None, witness)


def fo_rank_profile(a: Structure, b: Structure, k: int, mode: str,
                    cap: int = DEFAULT_SIGNATURE_CAP) -> list[OracleResult]:
    """Preservation verdicts for every rank 0..k in a single layered run."""
    if not same_vocab(a, b):
        raise StructureError("vocabulary mismatch")
    engine = _FoOracle(a, b, k, canonical_mode(mode), cap)
    return [_fresh_result(w) for w in engine.run_rank_layers()]


def ml_depth_profile(a: Structure, b: Structure, k: int, mode: str,
                     cap: int = DEFAULT_SIGNATURE_CAP) -> list[OracleResult]:
    if not same_vocab(a, b):
        raise StructureError("vocabulary mismatch")
    if not a.vocab.modal_flag:
        raise StructureError("modal fragment needs a modal vocabulary")
    if a.point is None or b.point is None:
        raise StructureError("modal fragment needs pointed structures")
    engine = _ModalOracle(a, b, k, canonical_mode(mode), cap)
    return [_fresh_result(w) for w in engine.run_depth_layers()]


def oracle_preserves(frag: FragmentSpec, a: Structure, b: Structure,
                     cap: int = DEFAULT_SIGNATURE_CAP) -> OracleResult:
    """Decide whether every sentence of the fragment true in a is true in b.

    The witness, when preservation fails, realizes the first violating
    sentence signature; soundness (true in a, false in b, in-fragment,
    within bounds) is part of the contract and exercised by the test suite.
    """
    if frag.family == "fo_rank":
        return fo_rank_profile(a, b, frag.k, frag.mode, cap)[frag.k]
    if frag.family == "ml_depth":
        return ml_depth_profile(a, b, frag.k, frag.mode, cap)[frag.k]
    if not same_vocab(a, b):
        raise StructureError("vocabulary mismatch")
    engine = _FoOracle(a, b, frag.k, frag.mode, cap)
    return _fresh_result(engine.run_variable_fixpoint())
