"""Morphism search and verification between forest coalgebras.

The search assigns images level by level (roots to roots, covers to covers,
pebbling and points preserved where the kind demands it), with the extra
obligations of the requested kind checked incrementally:

* pathwise embeddings also reflect every relation on tuples drawn from a
  single branch (injectivity on branches is automatic, forest morphisms are
  height preserving);
* open pathwise embeddings additionally satisfy the concrete p-morphism
  conditions on path trees: every root of the target is hit by a root of the
  source, and covers of images lift to covers.

Openness is normally decided through the cover-lifting route; the
square-enumeration formulation of the lifting property is implemented
independently in :func:`check_open_by_squares` so the two can be played
against each other.

Branch relations come from the branch layer of :mod:`fmgames.coalgebras`
(``pull_back``).  :func:`chain_map_ok`, the test whether the map between two
branches is a homomorphism or an embedding of induced substructures, is
shared by the squares check and the back-and-forth engine of
:mod:`fmgames.bisim`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional

from .coalgebras import (CoalgebraError, ForestCoalgebra, node_chain, path_tree,
                         pull_back)
from .structures import EQUALITY_SYMBOL, is_homomorphism

MORPHISM_KINDS = ("hom", "i_morphism", "pathwise_embedding", "open_pathwise_embedding")

_KIND_TAGS = {
    "hom": frozenset({"hom", "forest"}),
    "i_morphism": frozenset({"hom", "forest", "I-morphism"}),
    "pathwise_embedding": frozenset({"hom", "forest", "pathwiseEmbedding"}),
    "open_pathwise_embedding": frozenset({"hom", "forest", "pathwiseEmbedding", "open"}),
}


@dataclass(frozen=True)
class MorphismWitness:
    """A map between coalgebra universes tagged with verified properties."""

    mapping: Mapping
    tags: frozenset

    def __contains__(self, tag: str) -> bool:
        return tag in self.tags


def _require_like(x: ForestCoalgebra, y: ForestCoalgebra):
    if x.kind != y.kind:
        raise CoalgebraError(f"coalgebra kind mismatch: {x.kind} vs {y.kind}")
    if x.carrier.vocab.relations != y.carrier.vocab.relations:
        raise CoalgebraError("vocabulary mismatch between coalgebras")


# ---------------------------------------------------------------------------
# Verification checkers

def check_forest_morphism(f: Mapping, x: ForestCoalgebra, y: ForestCoalgebra) -> list[str]:
    out = []
    for e in x.universe:
        if e not in f or f[e] not in y.carrier.index:
            return [f"map not total into the target at {e!r}"]
    for e in x.universe:
        p = x.parent.get(e)
        if p is None:
            if f[e] in y.parent:
                out.append(f"root {e!r} not sent to a root")
        elif y.parent.get(f[e]) != f[p]:
            out.append(f"cover {p!r} -> {e!r} not preserved")
    return out


def check_structure_hom(f: Mapping, x: ForestCoalgebra, y: ForestCoalgebra) -> list[str]:
    if is_homomorphism(f, x.carrier, y.carrier):
        return []
    return ["not a homomorphism of carriers"]


def check_pebble_preserving(f: Mapping, x: ForestCoalgebra, y: ForestCoalgebra) -> list[str]:
    if x.kind != "pebble":
        return []
    bad = [e for e in x.universe if x.pebble_fn[e] != y.pebble_fn[f[e]]]
    return [f"pebbling not preserved at {bad[0]!r}"] if bad else []


def check_coalgebra_morphism(f: Mapping, x: ForestCoalgebra, y: ForestCoalgebra) -> list[str]:
    return (check_forest_morphism(f, x, y) + check_structure_hom(f, x, y)
            + check_pebble_preserving(f, x, y))


def check_pathwise(f: Mapping, x: ForestCoalgebra, y: ForestCoalgebra) -> list[str]:
    """Reflection of relations on every branch (the path-embedding condition)."""
    out, chains = [], []
    for e in x.universe:
        chain = x.chain(e)
        if len({f[c] for c in chain}) != len(chain):
            out.append(f"branch of {e!r} not mapped injectively")
        else:
            chains.append(chain)
    for rel, pulled in pull_back(chains, f.__getitem__, y.carrier).items():
        for combo in sorted(pulled - x.carrier.interp[rel], key=repr):
            out.append(f"relation {rel} not reflected at {combo!r}")
    return out


def check_open_cover_lifting(f: Mapping, x: ForestCoalgebra, y: ForestCoalgebra) -> list[str]:
    out = []
    hit_roots = {f[r] for r in x.roots}
    for r in y.roots:
        if r not in hit_roots:
            out.append(f"target root {r!r} not hit")
    for e in x.universe:
        image_children = {f[c] for c in x.children[e]}
        for yc in y.children[f[e]]:
            if yc not in image_children:
                out.append(f"open violated at {e!r}: cover {yc!r} does not lift")
    return out


def chain_map_ok(x: ForestCoalgebra, y: ForestCoalgebra, cx: tuple, cy: tuple,
                 iso: bool) -> bool:
    """Is the map ``cx[i] -> cy[i]`` between two branches a homomorphism of the
    induced substructures, or an embedding when ``iso``?

    Branches have distinct nodes, so the map is injective; pebble kinds must
    also agree on the pebbling function (embeddings are category morphisms).
    """
    if len(cx) != len(cy):
        return False
    m = dict(zip(cx, cy))
    if x.kind == "pebble":
        if any(x.pebble_fn[a] != y.pebble_fn[m[a]] for a in cx):
            return False
    for rel, arity in x.carrier.vocab.relations:
        x_rel, y_rel = x.carrier.interp[rel], y.carrier.interp[rel]
        for combo in itertools.product(cx, repeat=arity):
            holds = combo in x_rel
            image_holds = tuple(m[c] for c in combo) in y_rel
            if holds and not image_holds:
                return False
            if iso and image_holds and not holds:
                return False
    return True


def check_open_by_squares(f: Mapping, x: ForestCoalgebra, y: ForestCoalgebra) -> list[str]:
    """Openness by enumerating lifting squares of path embeddings.

    For each pair of paths P into x (the branch of a node, or the empty
    path) and Q into y extending the image of P, a diagonal filler is an
    extension of P in x mapped isomorphically onto Q.  Independent of the
    cover-lifting route on purpose.
    """
    out = []
    x_chain = {n: node_chain(x, n) for n in path_tree(x).nodes}
    y_chain = {n: node_chain(y, n) for n in path_tree(y).nodes}
    for xn, cx in x_chain.items():
        image_chain = tuple(f[c] for c in cx)
        for yn, cy in y_chain.items():
            if len(cy) < len(cx) or cy[: len(cx)] != image_chain:
                continue
            # the top square leg i must itself be an embedding of paths
            if not chain_map_ok(x, y, cx, cy[: len(cx)], iso=True):
                continue
            filler = False
            for cx2 in x_chain.values():
                if len(cx2) != len(cy) or cx2[: len(cx)] != cx:
                    continue
                if tuple(f[c] for c in cx2) != cy:
                    continue
                if chain_map_ok(y, x, cy, cx2, iso=True):
                    filler = True
                    break
            if not filler:
                out.append(f"no diagonal filler for square ({xn!r}, {yn!r})")
    return out


def check_bijection(f: Mapping, x: ForestCoalgebra, y: ForestCoalgebra) -> list[str]:
    values = [f[e] for e in x.universe]
    if len(set(values)) != len(values):
        return ["h not injective"]
    if set(values) != set(y.universe):
        return ["h not surjective"]
    return []


def verify_morphism(f: Mapping, x: ForestCoalgebra, y: ForestCoalgebra, kind: str) -> list[str]:
    """All failure reasons of a given map for the requested morphism kind."""
    if kind not in MORPHISM_KINDS:
        raise CoalgebraError(f"unknown morphism kind {kind!r}")
    _require_like(x, y)
    out = check_coalgebra_morphism(f, x, y)
    if kind == "i_morphism" and EQUALITY_SYMBOL not in x.carrier.vocab.arities:
        out.append("vocabulary has no I relation")
    if kind in ("pathwise_embedding", "open_pathwise_embedding") and not out:
        out += check_pathwise(f, x, y)
    if kind == "open_pathwise_embedding" and not out:
        out += check_open_cover_lifting(f, x, y)
    return out


# ---------------------------------------------------------------------------
# Search

def find_morphism(kind: str, x: ForestCoalgebra, y: ForestCoalgebra) -> Optional[MorphismWitness]:
    """First morphism of the kind in canonical order, with verified tags."""
    if kind not in MORPHISM_KINDS:
        raise CoalgebraError(f"unknown morphism kind {kind!r}")
    _require_like(x, y)
    if kind == "i_morphism" and EQUALITY_SYMBOL not in x.carrier.vocab.arities:
        raise CoalgebraError("I-morphism search needs the I relation in the vocabulary")
    pathwise = kind in ("pathwise_embedding", "open_pathwise_embedding")
    open_kind = kind == "open_pathwise_embedding"

    order = sorted(x.universe, key=lambda e: (x.height[e], x.carrier.index[e]))
    # tuples checked once their deepest element is assigned; branch-compatible
    # coalgebras guarantee all other components are ancestors
    tuples_by_deepest: dict = {e: [] for e in x.universe}
    for rel, _ in x.carrier.vocab.relations:
        for tup in x.carrier.interp[rel]:
            if not tup:
                if tup not in y.carrier.interp[rel]:
                    return None
                continue
            deepest = max(tup, key=lambda e: x.height[e])
            for e in tup:
                if not x.comparable(e, deepest):
                    raise CoalgebraError("invalid coalgebra: related tuple across branches")
            tuples_by_deepest[deepest].append((rel, tup))

    assignment: dict = {}

    def candidates(e):
        p = x.parent.get(e)
        pool = y.roots if p is None else y.children[assignment[p]]
        if x.kind == "pebble":
            pool = [c for c in pool if y.pebble_fn[c] == x.pebble_fn[e]]
        if x.kind == "modal" and p is None:
            pool = [c for c in pool if c == y.carrier.point]
        return pool

    def local_ok(e) -> bool:
        for rel, tup in tuples_by_deepest[e]:
            if tuple(assignment[c] for c in tup) not in y.carrier.interp[rel]:
                return False
        if pathwise:
            pulled = pull_back([x.chain(e)], assignment.__getitem__, y.carrier)
            return all(pulled[rel] <= x.carrier.interp[rel] for rel in pulled)
        return True

    def search(i: int) -> bool:
        if i == len(order):
            return not open_kind or not check_open_cover_lifting(assignment, x, y)
        e = order[i]
        for c in candidates(e):
            assignment[e] = c
            if local_ok(e) and search(i + 1):
                return True
            del assignment[e]
        return False

    if not search(0):
        return None
    reasons = verify_morphism(assignment, x, y, kind)
    if reasons:
        raise RuntimeError(f"search produced an unverified morphism: {reasons}")
    tags = _KIND_TAGS[kind]
    if x.kind == "pebble":
        tags = tags | {"pebblePreserving"}
    if not check_bijection(assignment, x, y):
        tags = tags | {"bijection"}
    return MorphismWitness(dict(assignment), tags)


# ---------------------------------------------------------------------------
# Factoring a morphism through a relation pullback

def factor_xo(f: Mapping, x: ForestCoalgebra, y: ForestCoalgebra
              ) -> tuple[dict, ForestCoalgebra, MorphismWitness]:
    """Factor a coalgebra morphism as identity-carried quotient then pathwise embedding.

    The middle object keeps the universe, order and pebbling of ``x`` and
    holds a tuple exactly when its components lie on one branch and their
    images are related in ``y``; relations only grow, so the identity is a
    homomorphism, and the same underlying function becomes a pathwise
    embedding out of the enriched object.
    """
    reasons = check_coalgebra_morphism(f, x, y)
    if reasons:
        raise CoalgebraError(f"not a coalgebra morphism: {reasons[0]}")
    interp = pull_back([x.chain(e) for e in x.universe], f.__getitem__, y.carrier)
    carrier = x.carrier
    x0_carrier = carrier.__class__(carrier.vocab, carrier.universe, interp,
                                   carrier.point, carrier.name + "°")
    x0 = ForestCoalgebra(x0_carrier, x.parent, x.k_bound, x.kind, x.pebble_fn)
    e_map = {e: e for e in x.universe}
    if check_structure_hom(e_map, x, x0):
        raise RuntimeError("identity failed to be a homomorphism")
    reasons = verify_morphism(dict(f), x0, y, "pathwise_embedding")
    if reasons:
        raise RuntimeError(f"factorization failed: {reasons}")
    g = MorphismWitness(dict(f), _KIND_TAGS["pathwise_embedding"])
    return e_map, x0, g
