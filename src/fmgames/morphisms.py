"""Morphisms between forest coalgebras: verification and the branch-pair fixpoint.

The checkers verify a map for each kind: a forest morphism that is a
homomorphism (pebbling preserved for pebble kinds); pathwise embeddings
also reflect every relation on tuples from a single branch; open pathwise
embeddings also hit every target root and lift covers of images to covers.
Read on the coalgebras as their own path trees (``BOTTOM`` below the
roots), these are the p-morphism conditions, so ``verify_morphism(f, x, y,
"open_pathwise_embedding")`` is the p-morphism test.  Openness by cover
lifting is checked independently by enumerating lifting squares in
:func:`check_open_by_squares`.

:class:`BranchPairs` is the greatest fixpoint on pairs of branches (the
arboreal back-and-forth systems of Abramsky and Reggio).  It decides
:func:`find_morphism`, which reads the canonical-first map off it, and the
back-and-forth systems and bisimulation spans of :mod:`fmgames.bisim`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping, Optional

from .coalgebras import BOTTOM, CoalgebraError, ForestCoalgebra, pull_back
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
    """Is the map ``cx[i] -> cy[i]`` between two root-first branches a
    homomorphism of the induced substructures, or an embedding when ``iso``?

    Branches have distinct nodes, so the map is injective; pebble kinds must
    also agree on the pebbling function (embeddings are category morphisms).
    Decided element by element on the signatures.
    """
    sx, sy, fits = x.signatures[0], y.signatures[0], operator.eq if iso else operator.le
    return len(cx) == len(cy) and all(
        fits(sx[a], sy[b]) for a, b in zip((BOTTOM,) + cx, (BOTTOM,) + cy))


def check_open_by_squares(f: Mapping, x: ForestCoalgebra, y: ForestCoalgebra) -> list[str]:
    """Openness by enumerating lifting squares of path embeddings.

    For each pair of paths P into x (the branch of a node, or the empty
    path) and Q into y extending the image of P, a diagonal filler is an
    extension of P in x mapped isomorphically onto Q.  Independent of the
    cover-lifting route on purpose.
    """
    out = []
    x_chain = {n: x.chain(n) for n in (BOTTOM, *x.universe)}
    y_chain = {n: y.chain(n) for n in (BOTTOM, *y.universe)}
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
# The branch-pair fixpoint

def _onto(partners: Mapping, targets) -> bool:
    """Can every target get a key of its own among the keys listing it?

    Kuhn's matching on ``partners`` (key -> its targets), each augmenting
    path searched breadth-first.
    """
    owner: dict = {}  # target -> its key
    for t in targets:
        holder = {key: u for u, key in owner.items()}
        via: dict = {}  # key -> the target it would move to
        queue = [t]
        for u in queue:
            for key, ts in partners.items():
                if key not in via and u in ts:
                    via[key] = u
                    if key not in holder:  # free: shift the keys along the path
                        while key is not None:
                            u = via[key]
                            owner[u], key = key, owner.get(u)
                        break
                    queue.append(holder[key])
            else:
                continue
            break
        else:
            return False
    return True


class BranchPairs:
    """The greatest fixpoint on pairs of branches, one engine for every route.

    A pair ``(a, b)`` of path-tree nodes of equal height stands for the map
    of the branch of ``a`` onto that of ``b``.  Pairs are reached from
    ``(BOTTOM, BOTTOM)`` through child pairs whose signatures fit: the chain
    map stays a homomorphism, or an embedding when ``iso``.  A pair is alive
    when every child of ``a`` has a live partner below ``b`` (forth), with
    ``back`` also every child of ``b`` one below ``a``, and with ``onto`` the
    children of ``a`` map onto those of ``b``.  Each pair has one parent
    pair, so the pairs with children on both sides are built breadth-first
    and decided in reverse order, without recursion; the others are decided
    when asked.  Roots of a modal target are restricted to its point.
    """

    def __init__(self, x: ForestCoalgebra, y: ForestCoalgebra, iso: bool,
                 back: bool = False, onto: bool = False):
        sx, across = x.signatures
        if across:
            raise CoalgebraError("invalid coalgebra: related tuple across branches")
        sy, fits = y.signatures[0], operator.eq if iso else operator.le
        self.fits = lambda a, b: fits(sx[a], sy[b])
        self.back, self.onto = back or onto, onto
        self.kx = kx = x.children
        self.ky = ky = y.children
        if y.kind == "modal":
            self.ky = ky = {**ky, BOTTOM: [r for r in y.roots if r == y.carrier.point]}
        order = [(BOTTOM, BOTTOM)] if kx[BOTTOM] and ky[BOTTOM] and self.fits(BOTTOM, BOTTOM) else []
        for a, b in order:  # appending while iterating walks the pairs breadth-first
            order += [(xc, yc) for xc in kx[a] if kx[xc]
                      for yc in ky[b] if ky[yc] and self.fits(xc, yc)]
        self.alive, live = set(), self.live
        for a, b in reversed(order):
            kids, targets = kx[a], ky[b]
            if (all(any(live(xc, yc) for yc in targets) for xc in kids)
                    and (not self.back or all(any(live(xc, yc) for xc in kids) for yc in targets))
                    and (not onto or _onto(self._partners(kids, targets), targets))):
                self.alive.add((a, b))

    def live(self, a, b) -> bool:
        """Is the pair, the root pair or a child of a live pair, alive?"""
        if self.kx[a] and self.ky[b]:
            return (a, b) in self.alive
        return not self.kx[a] and not (self.back and self.ky[b]) and self.fits(a, b)

    def _partners(self, kids, targets) -> dict:
        return {xc: [yc for yc in targets if self.live(xc, yc)] for xc in kids}

    def reached(self, first: bool = False) -> Optional[list]:
        """The live pairs reached from the root pair through live pairs,
        breadth-first, or None when the root pair is dead.  With ``first``
        each child on either side takes only its first live partner: the
        span of a positive bisimulation.
        """
        if not self.live(BOTTOM, BOTTOM):
            return None
        out = [(BOTTOM, BOTTOM)]
        for a, b in out:  # appending while iterating walks the pairs breadth-first
            partners = self._partners(self.kx[a], self.ky[b])
            if not first:
                out += [(xc, yc) for xc, ys in partners.items() for yc in ys]
                continue
            step = [(xc, ys[0]) for xc, ys in partners.items()]
            if self.back:
                step += [(next(xc for xc, ys in partners.items() if yc in ys), yc)
                         for yc in self.ky[b]]
            out += dict.fromkeys(step)
        return out

    def morphism(self) -> Optional[dict]:
        """The first map in the order of nodes by height, then index, or None.

        Siblings take in index order their first live partner below the
        parent's image; with ``onto``, the first that leaves the later
        siblings able to cover the targets not yet hit.  Subtrees are
        independent once the parent's image is fixed, so this is the
        lexicographically first map.
        """
        if not self.live(BOTTOM, BOTTOM):
            return None
        f = {BOTTOM: BOTTOM}
        queue = [BOTTOM]
        for a in queue:
            kids, targets = self.kx[a], self.ky[f[a]]
            later = self._partners(kids, targets) if self.onto else {}
            hit: set = set()
            for xc in kids:
                later.pop(xc, None)
                f[xc] = next(yc for yc in targets if self.live(xc, yc) and (not self.onto or _onto(
                    later, [t for t in targets if t != yc and t not in hit])))
                hit.add(f[xc])
            queue += kids
        del f[BOTTOM]
        return f


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
    f = BranchPairs(x, y, iso=pathwise, onto=kind == "open_pathwise_embedding").morphism()
    if f is None:
        return None
    reasons = verify_morphism(f, x, y, kind)
    if reasons:
        raise RuntimeError(f"search produced an unverified morphism: {reasons}")
    tags = _KIND_TAGS[kind]
    if x.kind == "pebble":
        tags = tags | {"pebblePreserving"}
    if not check_bijection(f, x, y):
        tags = tags | {"bijection"}
    return MorphismWitness(f, tags)


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
