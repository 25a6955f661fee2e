"""Positive bisimulations, symmetric bisimulations, back-and-forth systems.

The constructive route goes through the set W of valid plays under the
extracted Duplicator winning strategy of the matching (positive or full)
game.  W carries two structures: Z1 holds a tuple when the second components
are pairwise comparable and the first components are related in the cofree
coalgebra over A, Z2 dually; with the product order this yields the span

    Z1 --h--> Z2      with p, q the projections, h the identity of W.
     |         |
     p         q
     v         v
     X         Y

Every constructed witness is re-verified before being returned; a failure
there is a bug sentinel, never an expected outcome.

The back-and-forth engine works on path trees directly: pairs of equal
height whose unique height-preserving chain map is a homomorphism (or an
isomorphism, for the forth-only existential variant) of induced
substructures, pruned to the greatest fixpoint of the forth/back
conditions, then filtered to the reachable, hence strong, subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .coalgebras import (BOTTOM, CoalgebraError, ForestCoalgebra, build_ef,
                         build_modal, node_chain, path_tree, pull_back,
                         validate_coalgebra)
from .games import GameSpec, Verdict, solve
from .morphisms import (chain_map_ok, check_bijection, check_coalgebra_morphism,
                        verify_morphism)
from .structures import Structure

BISIM_FAMILIES = ("ef_i", "modal")


class BisimVerificationError(RuntimeError):
    """A constructed witness failed its own verification (bug sentinel)."""


@dataclass(frozen=True)
class BackForthSystem:
    """Compatible path pairs closed under forth/back; strong when closed
    under simultaneous predecessors."""

    pairs: frozenset
    strong: bool


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

def back_forth(spec: GameSpec | str, x: ForestCoalgebra, y: ForestCoalgebra
               ) -> Optional[BackForthSystem]:
    """Largest (strong) back-and-forth system between two coalgebras, or None.

    ``spec`` supplies the mode: ``positive`` is the back-and-forth game on
    path trees with the homomorphism pair condition; ``existential`` runs
    the same engine forth-only with the condition strengthened to
    chain-map-is-isomorphism; ``full`` is back-and-forth with the
    isomorphism condition; ``ep`` forth-only with the homomorphism one.
    """
    mode = spec.mode if isinstance(spec, GameSpec) else spec
    if validate_coalgebra(x) or validate_coalgebra(y):
        raise CoalgebraError("back_forth needs validated coalgebras")
    iso = mode in ("full", "existential")
    back = mode in ("full", "positive")
    tx, ty = path_tree(x), path_tree(y)
    chains_x = {n: node_chain(x, n) for n in tx.nodes}
    chains_y = {n: node_chain(y, n) for n in ty.nodes}
    alive = set()
    for xn, cx in chains_x.items():
        for yn, cy in chains_y.items():
            if tx.height[xn] == ty.height[yn] and chain_map_ok(x, y, cx, cy, iso):
                alive.add((xn, yn))
    changed = True
    while changed:
        changed = False
        for pair in list(alive):
            kids_x, kids_y = tx.children[pair[0]], ty.children[pair[1]]
            ok = all(any((xc, yc) in alive for yc in kids_y) for xc in kids_x)
            if ok and back:
                ok = all(any((xc, yc) in alive for xc in kids_x) for yc in kids_y)
            if not ok:
                alive.discard(pair)
                changed = True
    if (BOTTOM, BOTTOM) not in alive:
        return None

    def reachable(pair) -> bool:
        cx = (BOTTOM,) + chains_x[pair[0]]
        cy = (BOTTOM,) + chains_y[pair[1]]
        return all((a, b) in alive for a, b in zip(cx, cy))

    strong_pairs = frozenset(p for p in alive if reachable(p))
    return BackForthSystem(strong_pairs, strong=True)


def validate_back_forth(system: BackForthSystem, x: ForestCoalgebra, y: ForestCoalgebra,
                        mode: str = "positive") -> list[str]:
    """Check conditions (root pair, forth, back, pair compatibility, strength)."""
    iso = mode in ("full", "existential")
    back = mode in ("full", "positive")
    out = []
    tx, ty = path_tree(x), path_tree(y)
    if (BOTTOM, BOTTOM) not in system.pairs:
        out.append("root pair missing")
    for xn, yn in system.pairs:
        if not chain_map_ok(x, y, node_chain(x, xn), node_chain(y, yn), iso):
            out.append(f"pair ({xn!r}, {yn!r}) fails the chain-map condition")
    for xn, yn in system.pairs:
        for xc in tx.children[xn]:
            if not any((xc, yc) in system.pairs for yc in ty.children[yn]):
                out.append(f"forth fails at ({xn!r}, {yn!r}) on {xc!r}")
        if back:
            for yc in ty.children[yn]:
                if not any((xc, yc) in system.pairs for xc in tx.children[xn]):
                    out.append(f"back fails at ({xn!r}, {yn!r}) on {yc!r}")
    if system.strong:
        for xn, yn in system.pairs:
            if xn is BOTTOM or yn is BOTTOM:
                continue
            if (tx.parent[xn], ty.parent[yn]) not in system.pairs:
                out.append(f"strength fails below ({xn!r}, {yn!r})")
    return out


# ---------------------------------------------------------------------------
# Winning plays under the extracted strategy

def _winning_plays(verdict: Verdict) -> list:
    """All plays reachable when Duplicator follows the positional strategy.

    The plays are the verdict's histories, pairs of cofree-coalgebra
    elements: (sequence, sequence) for the EF family, (labelled path,
    labelled path) for modal.  The modal list includes the zero-length root
    play; the EF comonad has no empty sequence, so its root play is dropped.
    """
    root = verdict.initial_history()
    seen = {root}
    order = [root]
    for hist in order:  # appending while iterating walks the plays breadth-first
        for move in verdict.legal_moves(hist):
            resp = verdict.duplicator_response(hist, move)
            if resp is None:
                raise BisimVerificationError("winning strategy has no response (bug sentinel)")
            child = verdict.extend(hist, move, resp)
            if child not in seen:
                seen.add(child)
                order.append(child)
    return order if verdict.spec.family == "modal" else order[1:]


def _build_spans(plays: list, x: ForestCoalgebra, y: ForestCoalgebra, names: tuple
                 ) -> tuple[ForestCoalgebra, ForestCoalgebra]:
    """Z1 and Z2: the plays ordered by prefix pairs, a tuple of plays on one
    branch related when its projection to ``x`` (for Z1) or ``y`` (for Z2)
    is related there.

    Tuples of comparable play pairs all lie on one branch of W, so the
    relations are the pull back of the cofree coalgebras along the branches
    of W, which are built once and pulled back once per projection.
    """
    parent: dict = {}
    chains: dict = {}
    for w in plays:  # breadth-first, so a parent play precedes its children
        pw = (w[0][:-1], w[1][:-1])
        if pw in chains:
            parent[w] = pw
            chains[w] = chains[pw] + (w,)
        else:
            chains[w] = (w,)
    point = None
    if x.kind == "modal":
        roots = [w for w in plays if w not in parent]
        if len(roots) != 1:
            raise BisimVerificationError(f"modal span has {len(roots)} roots (bug sentinel)")
        point = roots[0]
    spans = []
    for which, cofree, name in ((0, x, names[0]), (1, y, names[1])):
        interp = pull_back(chains.values(), lambda w: w[which], cofree.carrier)
        carrier = Structure(cofree.carrier.vocab, tuple(plays), interp, point, name)
        spans.append(ForestCoalgebra(carrier, parent, cofree.k_bound, cofree.kind))
    return spans[0], spans[1]


def _cofree_pair(a: Structure, b: Structure, family: str, k: int):
    if family == "ef_i":
        return build_ef(a, k, with_i=True), build_ef(b, k, with_i=True)
    if family == "modal":
        return build_modal(a, k), build_modal(b, k)
    raise ValueError(f"unknown bisimulation family {family!r}; use one of {BISIM_FAMILIES}")


def _game_spec(family: str, mode: str, k: int) -> GameSpec:
    return GameSpec("modal" if family == "modal" else "ef", mode, k)


def build_positive_bisim(a: Structure, b: Structure, family: str, k: int,
                         verdict: Verdict | None = None) -> Optional[PositiveBisimWitness]:
    """Construct and verify a positive bisimulation from the positive game.

    None when Duplicator loses the positive game; otherwise a witness that
    has passed all five verifier checks.
    """
    if verdict is None:
        verdict = solve(_game_spec(family, "positive", k), a, b)
    if not verdict.duplicator_wins:
        return None
    x, y = _cofree_pair(a, b, family, k)
    plays = _winning_plays(verdict)
    z1, z2 = _build_spans(plays, x, y, (f"Z1({a.name},{b.name})", f"Z2({a.name},{b.name})"))
    h = {w: w for w in plays}
    p = {w: w[0] for w in plays}
    q = {w: w[1] for w in plays}
    witness = PositiveBisimWitness(z1, z2, h, p, q)
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
    """Symmetric-span bisimulation from the full game, verified, or None."""
    if verdict is None:
        verdict = solve(_game_spec(family, "full", k), a, b)
    if not verdict.duplicator_wins:
        return None
    x, y = _cofree_pair(a, b, family, k)
    plays = _winning_plays(verdict)
    z1, z2 = _build_spans(plays, x, y, (f"Z({a.name},{b.name})",) * 2)
    if z1.carrier.interp != z2.carrier.interp:
        raise BisimVerificationError("full-game span is not symmetric (bug sentinel)")
    witness = BisimWitness(z1, {w: w[0] for w in plays}, {w: w[1] for w in plays})
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
    return BackForthSystem(frozenset(pairs), strong=True)
