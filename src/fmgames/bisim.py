"""Positive bisimulations, symmetric bisimulations, back-and-forth systems.

All three are read off the branch-pair fixpoint ``morphisms.BranchPairs``
between the cofree coalgebras, with the homomorphism pair condition for
positive and the embedding one for full; no game is played.  The span set
W starts at the root pair and takes, for each child on either side, its
first live partner.  Its pairs are numbered 0..n-1 breadth-first, and the
numbers are the elements of both spans.  Z1 holds a tuple of numbers on one
branch of W when their first components are related in the cofree
coalgebra over A, Z2 dually; with the product order this yields the span

    Z1 --h--> Z2      with p, q the projections, h the identity.
     |         |
     p         q
     v         v
     X         Y

Every constructed witness is re-verified before being returned; a failure
there is a bug sentinel, never an expected outcome.  :func:`back_forth`
returns every live pair reached through live pairs: the largest
back-and-forth system, which is strong (closed under simultaneous
predecessors) as built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .coalgebras import (BOTTOM, CoalgebraError, ForestCoalgebra, build_ef,
                         build_modal, validate_coalgebra)
from .formulas import MODES, canonical_mode
from .games import Verdict
from .morphisms import (BranchPairs, chain_map_ok, check_bijection,
                        check_coalgebra_morphism, verify_morphism)
from .structures import Structure

BISIM_FAMILIES = ("ef_i", "modal")


class BisimVerificationError(RuntimeError):
    """A constructed witness failed its own verification (bug sentinel)."""


@dataclass(frozen=True)
class BackForthSystem:
    """Compatible path pairs closed under forth/back and under simultaneous
    predecessors (strong)."""

    pairs: frozenset


@dataclass(frozen=True, eq=False)
class PositiveBisimWitness:
    z1: ForestCoalgebra
    z2: ForestCoalgebra
    h: Mapping
    p: Mapping
    q: Mapping


@dataclass(frozen=True, eq=False)
class BisimWitness:
    z: ForestCoalgebra
    p: Mapping
    q: Mapping


# ---------------------------------------------------------------------------
# Back-and-forth systems on path trees

def back_forth(mode: str, x: ForestCoalgebra, y: ForestCoalgebra
               ) -> Optional[BackForthSystem]:
    """Largest (strong) back-and-forth system between two coalgebras, or None.

    Per ``formulas.MODES``, modes with universals go back and forth on the
    path trees, the others forth only, and modes with negations strengthen
    the homomorphism pair condition to chain-map-is-isomorphism.  An unknown
    mode is a ``ValueError``.
    """
    iso, back = MODES[canonical_mode(mode)]
    if validate_coalgebra(x) or validate_coalgebra(y):
        raise CoalgebraError("back_forth needs validated coalgebras")
    pairs = BranchPairs(x, y, iso, back).reached()
    return None if pairs is None else BackForthSystem(frozenset(pairs))


def validate_back_forth(system: BackForthSystem, x: ForestCoalgebra, y: ForestCoalgebra,
                        mode: str = "positive") -> list[str]:
    """Check conditions (root pair, forth, back, pair compatibility, strength).

    A pair whose first node is neither ``BOTTOM`` nor an element of ``x``,
    or whose second is neither ``BOTTOM`` nor an element of ``y``, is
    reported, and the other conditions are checked on the remaining pairs.
    """
    iso, back = MODES[canonical_mode(mode)]
    out = []
    if (BOTTOM, BOTTOM) not in system.pairs:
        out.append("root pair missing")
    pairs = []
    for xn, yn in system.pairs:
        if xn in x.children and yn in y.children:
            pairs.append((xn, yn))
        else:
            out.append(f"pair ({xn!r}, {yn!r}) names a node outside the coalgebras")
    for xn, yn in pairs:
        if not chain_map_ok(x, y, x.chain(xn), y.chain(yn), iso):
            out.append(f"pair ({xn!r}, {yn!r}) fails the chain-map condition")
    for xn, yn in pairs:
        for xc in x.children[xn]:
            if not any((xc, yc) in system.pairs for yc in y.children[yn]):
                out.append(f"forth fails at ({xn!r}, {yn!r}) on {xc!r}")
        if back:
            for yc in y.children[yn]:
                if not any((xc, yc) in system.pairs for xc in x.children[xn]):
                    out.append(f"back fails at ({xn!r}, {yn!r}) on {yc!r}")
    for xn, yn in pairs:
        if xn is BOTTOM or yn is BOTTOM:
            continue
        if (x.parent.get(xn, BOTTOM), y.parent.get(yn, BOTTOM)) not in system.pairs:
            out.append(f"strength fails below ({xn!r}, {yn!r})")
    return out


# ---------------------------------------------------------------------------
# Spans

def _spans(a: Structure, b: Structure, family: str, k: int, iso: bool,
           verdict: Verdict | None, names: tuple):
    """The cofree pair, the span set W and the spans Z1, Z2, or None.

    Returns ``x, y, z1, p, z2, q``.  The elements of Z1 and Z2 are the
    numbers of W's pairs, ordered by parent pairs; ``p`` and ``q`` send a
    number to its pair's first and second component.  A branch of W maps
    depth for depth onto the branch of each component, so a tuple on it is
    in Z1 when its projection is related in ``x``: the ``(relation,
    depths)`` entries of the first component's signature, lifted to the
    branch, and ``BOTTOM``'s 0-ary facts.  Z2 is read off ``y`` alike.  A
    game verdict of the pair only saves work: a Spoiler win returns None
    at once, and a Duplicator win that the fixpoint does not confirm is a
    bug sentinel.
    """
    if verdict is not None and not verdict.duplicator_wins:
        return None
    if family == "ef_i":
        x, y = build_ef(a, k, with_i=True), build_ef(b, k, with_i=True)
    elif family == "modal":
        x, y = build_modal(a, k), build_modal(b, k)
    else:
        raise ValueError(f"unknown bisimulation family {family!r}; use one of {BISIM_FAMILIES}")
    pairs = BranchPairs(x, y, iso, back=True).reached(first=True)
    if pairs is None:
        if verdict is not None:
            raise BisimVerificationError("the game verdict has no back-and-forth system (bug sentinel)")
        return None
    pairs = pairs[1:]
    number = {(None, None): -1}
    number.update((w, i) for i, w in enumerate(pairs))
    parent: dict = {}
    chains = {-1: (BOTTOM,)}  # BOTTOM, then the branch of each pair: depth d at [d]
    for i, w in enumerate(pairs):  # breadth-first, so a parent pair precedes its children
        j = number[x.parent.get(w[0]), y.parent.get(w[1])]
        if j >= 0:
            parent[i] = j
        chains[i] = chains[j] + (i,)
    point = 0 if x.kind == "modal" else None
    out = [x, y]
    for which, cofree, name in ((0, x, names[0]), (1, y, names[1])):
        proj = dict(enumerate(w[which] for w in pairs))
        sig, interp = cofree.signatures[0], {rel: set() for rel in cofree.carrier.vocab.names}
        for chain, node in zip(chains.values(), (BOTTOM, *proj.values())):
            for rel, depths in sig[node]:
                interp[rel].add(tuple(map(chain.__getitem__, depths)))
        carrier = Structure(cofree.carrier.vocab, tuple(proj),
                            {rel: frozenset(tuples) for rel, tuples in interp.items()}, point, name)
        out += [ForestCoalgebra(carrier, parent, cofree.k_bound, cofree.kind), proj]
    return out


def build_positive_bisim(a: Structure, b: Structure, family: str, k: int,
                         verdict: Verdict | None = None) -> Optional[PositiveBisimWitness]:
    """Construct and verify a positive bisimulation between the cofree coalgebras.

    None when there is none; otherwise a witness that has passed all five
    verifier checks.
    """
    found = _spans(a, b, family, k, False, verdict,
                   (f"Z1({a.name},{b.name})", f"Z2({a.name},{b.name})"))
    if found is None:
        return None
    x, y, z1, p, z2, q = found
    witness = PositiveBisimWitness(z1, z2, {i: i for i in p}, p, q)
    ok, reasons = verify_positive_bisim(witness, x, y)
    if not ok:
        raise BisimVerificationError(f"constructed witness failed verification: {reasons}")
    return witness


def verify_positive_bisim(w: PositiveBisimWitness, x: ForestCoalgebra, y: ForestCoalgebra
                          ) -> tuple[bool, list[str]]:
    """The five checks: both spans validate, h is a bijective coalgebra
    morphism, p and q are open pathwise embeddings."""
    reasons = []
    for label, cone in (("Z1", w.z1), ("Z2", w.z2)):
        for v in validate_coalgebra(cone):
            reasons.append(f"{label}: {v.message} at {v.witness!r}")
    bad_h = check_coalgebra_morphism(w.h, w.z1, w.z2) + check_bijection(w.h, w.z1, w.z2)
    reasons += [f"h: {r}" for r in bad_h]
    reasons += [f"p: {r}" for r in verify_morphism(w.p, w.z1, x, "open_pathwise_embedding")]
    reasons += [f"q: {r}" for r in verify_morphism(w.q, w.z2, y, "open_pathwise_embedding")]
    return not reasons, reasons


def build_bisim(a: Structure, b: Structure, family: str, k: int,
                verdict: Verdict | None = None) -> Optional[BisimWitness]:
    """Symmetric-span bisimulation between the cofree coalgebras, verified, or None."""
    found = _spans(a, b, family, k, True, verdict, (f"Z({a.name},{b.name})",) * 2)
    if found is None:
        return None
    x, y, z1, p, z2, q = found
    if z1.carrier.interp != z2.carrier.interp:
        raise BisimVerificationError("full span is not symmetric (bug sentinel)")
    witness = BisimWitness(z1, p, q)
    ok, reasons = verify_bisim(witness, x, y)
    if not ok:
        raise BisimVerificationError(f"constructed bisimulation failed verification: {reasons}")
    return witness


def verify_bisim(w: BisimWitness, x: ForestCoalgebra, y: ForestCoalgebra
                 ) -> tuple[bool, list[str]]:
    """Span of open pathwise embeddings out of a common validated vertex."""
    reasons = [f"Z: {v.message} at {v.witness!r}" for v in validate_coalgebra(w.z)]
    reasons += [f"p: {r}" for r in verify_morphism(w.p, w.z, x, "open_pathwise_embedding")]
    reasons += [f"q: {r}" for r in verify_morphism(w.q, w.z, y, "open_pathwise_embedding")]
    return not reasons, reasons


def extract_back_forth(w: PositiveBisimWitness) -> BackForthSystem:
    """The pair set induced by a witness: images of Z1's paths under p and q∘h.

    Simultaneous predecessors of every pair are present because p and q∘h
    are forest morphisms, so the system is strong as built.
    """
    pairs = {(BOTTOM, BOTTOM)}
    for z in w.z1.universe:
        pairs.add((w.p[z], w.q[w.h[z]]))
    return BackForthSystem(frozenset(pairs))
