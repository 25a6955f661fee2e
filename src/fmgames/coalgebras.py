"""Concrete game-comonad machinery: cofree coalgebras, counit, coextension.

A forest coalgebra is a structure whose universe carries a forest order
(given by a partial parent map) and, depending on the kind, a pebbling
function or a distinguished root.  The builders materialize the cofree
objects: all nonempty sequences for the EF comonad, labelled paths for the
modal one, and a depth-truncated slice of the pebbling comonad (the full
pebbling coalgebra is infinite; decision procedures for finite-variable
logic go through the game fixpoint, never through this object).

Equality handling: building "with I" is building over the diagonal
expansion of the base structure, which interprets I on sequences exactly as
comparability plus equal last elements.

The branch layer (:func:`branch_tuples`, :func:`pull_back`) is the one scan of
tuples over a branch: the builders and the morphism checks obtain their
branch relations from it.  The branch-pair fixpoint and the bisimulation
spans read ``ForestCoalgebra.signatures`` instead, which files each related
tuple once, under its deepest component.  ``build_modal`` files an
unravelling's ``children``, branches and ``signatures`` in the walk that
creates its nodes; every other coalgebra (the EF and pebble cofree ones,
bisimulation spans, parsed files) derives them on first use from its
parent map and carrier.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

from .structures import (EQUALITY_SYMBOL, ParseError, Structure, StructureError,
                         element_tokens, expand_i, gaifman, is_homomorphism, parse_structure,
                         serialize_structure)

KINDS = ("ef", "pebble", "modal")


class CoalgebraError(ValueError):
    pass


class CoalgebraSizeError(CoalgebraError):
    """Requested cofree coalgebra beyond the configured carrier cap."""


DEFAULT_CARRIER_CAP = 100_000


def _heights(nodes, parent: Mapping) -> dict:
    """Distance to the root per node of a parent map; raises on a cycle."""
    out: dict = {}
    for e in nodes:
        trail = []
        while e not in out and parent.get(e) is not None:
            trail.append(e)
            if len(trail) > len(nodes):
                raise CoalgebraError("parent map has a cycle")
            e = parent[e]
        h = out.setdefault(e, 0)
        for x in reversed(trail):
            h += 1
            out[x] = h
    return out


@dataclass(frozen=True, eq=False)
class ForestCoalgebra:
    """A structure with a forest order; concretely a coalgebra of its kind."""

    carrier: Structure
    parent: Mapping
    k_bound: int
    kind: str = "ef"
    pebble_fn: Optional[Mapping] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise CoalgebraError(f"unknown coalgebra kind {self.kind!r}")
        if self.kind == "pebble" and self.pebble_fn is None:
            raise CoalgebraError("pebble coalgebra needs a pebbling function")

    @property
    def universe(self) -> tuple:
        return self.carrier.universe

    @cached_property
    def children(self) -> dict:
        """The children of each element, and the roots under ``BOTTOM``."""
        out: dict = {e: [] for e in (BOTTOM, *self.universe)}
        for c in self.universe:
            out[self.parent.get(c, BOTTOM)].append(c)
        return out

    @property
    def roots(self) -> list:
        return self.children[BOTTOM]

    @cached_property
    def height(self) -> dict:
        """Distance to the root per element; raises on a parent cycle."""
        return _heights(self.universe, self.parent)

    @cached_property
    def _branches(self) -> dict:
        """The branch of each element, root first (``BOTTOM``'s is empty),
        built once per coalgebra; raises on a parent cycle."""
        out: dict = {BOTTOM: ()}
        queue = [BOTTOM]
        for p in queue:  # appending while iterating walks the forest top-down
            for c in self.children[p]:
                out[c] = out[p] + (c,)
                queue.append(c)
        if len(out) <= len(self.universe):
            raise CoalgebraError("parent map has a cycle")
        return out

    def chain(self, x) -> tuple:
        """The branch from the root down to ``x`` (inclusive); raises on a parent cycle."""
        return self._branches[x]

    @cached_property
    def signatures(self) -> tuple[dict, bool]:
        """Per element, what it adds to its branch; and whether some related
        tuple lies across branches.

        An element's signature holds its pebble number and the
        ``(relation, component depths)`` of the related tuples on its branch
        whose deepest component it is; ``BOTTOM`` holds the 0-ary facts.  The
        map between two branches of equal height is a homomorphism (an
        embedding) of the induced substructures iff each element's signature
        is included in (equal to) its image's, so these decide the
        ``chain_map_ok`` condition one element at a time.
        """
        sig: dict = {e: set() for e in (BOTTOM, *self.universe)}
        if self.kind == "pebble":
            for e in self.universe:
                sig[e].add((None, self.pebble_fn[e]))
        branches, across = self._branches, False
        for rel, tuples in self.carrier.interp.items():
            for tup in tuples:
                if len(tup) == 1:  # a unary fact lies on its element's branch
                    sig[tup[0]].add((rel, (len(branches[tup[0]]),)))
                    continue
                chains = list(map(branches.__getitem__, tup))
                top = max(chains, key=len, default=())
                if all(map(top.__contains__, tup)):
                    sig[top[-1] if top else BOTTOM].add((rel, tuple(map(len, chains))))
                else:
                    across = True
        return sig, across

    def comparable(self, x, y) -> bool:
        return x in self.chain(y) or y in self.chain(x)


@dataclass(frozen=True)
class Violation:
    code: str
    witness: tuple
    message: str


def _repr_key(pair) -> tuple:
    """The order violations over Gaifman pairs are reported in."""
    return repr(pair[0]), repr(pair[1])


def validate_coalgebra(x: ForestCoalgebra) -> list[Violation]:
    """Every violated coalgebra invariant, each with a witness tuple."""
    out: list[Violation] = []
    elems = set(x.universe)
    for c, p in x.parent.items():
        if c not in elems or p not in elems:
            out.append(Violation("parent-domain", (c, p), "parent map leaves the universe"))
            return out
    seen_cycle = set()
    for e in x.universe:
        trail = []
        cur = e
        while cur is not None and cur not in seen_cycle:
            if cur in trail:
                out.append(Violation("forest-cycle", tuple(trail), "parent map has a cycle"))
                return out
            trail.append(cur)
            cur = x.parent.get(cur)
        seen_cycle.update(trail)

    if x.kind in ("ef", "modal"):
        for e in x.universe:
            if x.height[e] > x.k_bound:
                out.append(Violation("height", (e,), f"height {x.height[e]} exceeds bound {x.k_bound}"))

    if x.kind in ("ef", "pebble"):
        # a tuple's elements are pairwise comparable iff they all lie on the
        # branch of its deepest one, so only the other tuples can split a pair
        branches, split = x._branches, set()
        for tuples in x.carrier.interp.values():
            for tup in tuples:
                top = max(map(branches.__getitem__, tup), key=len, default=())
                if not all(map(top.__contains__, tup)):
                    split.update((a, b) for a in tup for b in tup if not x.comparable(a, b))
        for a, b in sorted(split, key=_repr_key):
            out.append(Violation("branch-compat", (a, b),
                                 "Gaifman-adjacent elements on different branches"))

    if x.kind == "pebble":
        pf = x.pebble_fn
        for e in x.universe:
            if e not in pf or not (1 <= pf[e] <= x.k_bound):
                out.append(Violation("pebble-range", (e,), "pebbling function out of range"))
                return out
        reused = []
        for a, b in gaifman(x.carrier):
            chain_b = x.chain(b)
            if a in chain_b and a != b:
                after = chain_b[chain_b.index(a) + 1:]
                reused += [(a, mid, b) for mid in after if pf[a] == pf[mid]]
        # a stable sort on (a, b) keeps each pair's witnesses in chain order
        for a, mid, b in sorted(reused, key=lambda t: _repr_key((t[0], t[2]))):
            out.append(Violation("pebble-reuse", (a, mid, b),
                                 "pebble index reused between adjacent elements"))

    if x.kind == "modal":
        if not x.carrier.vocab.modal_flag:
            out.append(Violation("modal-vocab", (), "carrier vocabulary is not modal"))
            return out
        if x.carrier.point is None:
            out.append(Violation("modal-point", (), "modal coalgebra needs a pointed carrier"))
            return out
        if len(x.roots) != 1 or x.roots[0] != x.carrier.point:
            out.append(Violation("modal-root", tuple(x.roots), "tree root must be the point"))
        binaries = x.carrier.vocab.binary
        for c in x.universe:
            p = x.parent.get(c)
            if p is None:
                continue
            holding = [r for r in binaries if (p, c) in x.carrier.interp[r]]
            if len(holding) != 1:
                out.append(Violation("modal-cover", (p, c),
                                     f"cover must be related by exactly one relation, got {holding}"))
        for r in binaries:
            for (u, v) in x.carrier.interp[r]:
                if x.parent.get(v) != u:
                    out.append(Violation("modal-edge", (r, u, v),
                                         "binary relation off the covering relation"))
    return out


# ---------------------------------------------------------------------------
# Branches

def branch_tuples(chain, arity: int):
    """The ``arity``-tuples over a root-first branch that use its last element.

    Every tuple over a branch of a forest is found exactly once when the
    branches of all elements are scanned: at its deepest component.
    """
    last = chain[-1]
    return [t for t in itertools.product(chain, repeat=arity) if last in t]


def pull_back(chains, image, target: Structure, cap: int = DEFAULT_CARRIER_CAP) -> dict:
    """For each relation of ``target``, the branch tuples whose image is related there.

    ``chains`` is a collection of root-first branches and ``image`` maps
    their elements into ``target``.  This is condition (E) of the cofree EF
    and pebbling coalgebras, the reflection check of pathwise embeddings,
    and the middle object of a pathwise-embedding factorization.  A branch
    with more tuples of a relation's arity through its last element than
    ``cap`` is refused before any tuple is built.  Each branch is mapped
    through ``image`` once, and its tuples are read by position getters
    built per branch length and arity for this call only.
    """
    longest = max(map(len, chains), default=0)
    for _, arity in target.vocab.relations:
        count = longest ** arity - (longest - 1) ** arity
        if count > cap:
            raise CoalgebraSizeError(f"a branch of {longest} elements has {count} {arity}-tuples "
                                     f"through its last one, cap {cap}")
    # the empty tuple lies on no branch, and its image is itself
    found = {rel: set() if arity else target.interp[rel] & {()}
             for rel, arity in target.vocab.relations}
    related = [(found[rel], target.interp[rel], arity)
               for rel, arity in target.vocab.relations if arity]
    getters: dict = {}  # (branch length, arity) -> the position getters of its tuples
    for chain in chains:
        images = tuple(map(image, chain))
        for out, rel_set, arity in related:
            key = (len(chain), arity)
            if key not in getters:
                getters[key] = [operator.itemgetter(*pos) if arity > 1
                                else operator.itemgetter(slice(pos[0], None))
                                for pos in branch_tuples(range(len(chain)), arity)]
            out.update(get(chain) for get in getters[key] if get(images) in rel_set)
    return {rel: frozenset(tuples) for rel, tuples in found.items()}


# ---------------------------------------------------------------------------
# Builders

def _prefixes(s: tuple) -> tuple:
    """The branch of a sequence in a cofree carrier: its nonempty prefixes."""
    return tuple(s[:i] for i in range(1, len(s) + 1))


#: The counit per kind: last element of a sequence, or endpoint of a path.
_LAST = {
    "ef": lambda s: s[-1],
    "pebble": lambda s: s[-1][1],
    "modal": lambda s: s[-1][1] if len(s) > 1 else s[0],
}


def build_ef(a: Structure, k: int, with_i: bool = False,
             cap: int = DEFAULT_CARRIER_CAP) -> ForestCoalgebra:
    """The cofree EF coalgebra: nonempty sequences of length <= k.

    ``with_i`` builds over the diagonal I-expansion of ``a``.  The result
    is built once per ``(k, with_i)`` and kept in ``a.memo``, so repeated
    calls return the same object.  ``cap`` bounds the carrier, checked on
    every call first, and the tuples through the last element of a branch,
    checked when the coalgebra is built.
    """
    if k < 1:
        raise CoalgebraError("k must be >= 1")
    if with_i and EQUALITY_SYMBOL in a.vocab.arities:
        raise StructureError(f"vocabulary already contains {EQUALITY_SYMBOL}")
    n = a.size
    total = sum(n ** i for i in range(1, k + 1))
    if total > cap:
        raise CoalgebraSizeError(f"carrier would have {total} elements, cap {cap}")
    key = ("ef", k, bool(with_i))
    c = a.memo.get(key)
    if c is None:
        c = a.memo[key] = _build_ef(expand_i(a) if with_i else a, k, cap)
    return c


def _build_ef(a: Structure, k: int, cap: int) -> ForestCoalgebra:
    universe: list[tuple] = []
    for length in range(1, k + 1):
        universe.extend(itertools.product(a.universe, repeat=length))
    parent = {s: s[:-1] for s in universe if len(s) > 1}
    interp = pull_back([_prefixes(s) for s in universe], _LAST["ef"], a, cap)
    carrier = Structure(a.vocab, tuple(universe), interp, None, f"F{k}({a.name})")
    return ForestCoalgebra(carrier, parent, k, "ef")


def build_modal(a: Structure, k: int, cap: int = DEFAULT_CARRIER_CAP) -> ForestCoalgebra:
    """The k-unravelling of a pointed Kripke model, a synchronization tree.

    Unlike ``build_ef`` it is not kept in ``a.memo``, so every call builds
    a new one.  An unravelling grows with the model's branching, not only
    with its size, and a memo would keep one per model and depth for as
    long as the model lives: on the modal cross-check benchmark (the pointed
    models of ``all_pointed_kripke(3)`` at depths 1 and 2) a memoizing copy
    answered 7779 queries per second against about 6660 without the memo,
    but its peak memory rose from about 33.5 to 56.1 MB.

    Instead, the walk that creates the nodes also files their ``children``
    (in creation order), ``_branches`` and ``signatures``, which every
    reader of an unravelling asks for: on trees of a few nodes, deriving
    them afterwards from the parent map and the carrier took longer than
    building the tree.  The tests check them against the derived ones.
    """
    if k < 0:
        raise CoalgebraError(f"modal depth k must be >= 0, got {k}")
    if not a.vocab.modal_flag:
        raise CoalgebraError("modal coalgebra needs a modal vocabulary")
    if a.point is None:
        raise CoalgebraError("modal coalgebra needs a pointed structure")
    succ: dict = {}  # (relation, world) -> its successors in universe order, for this call
    root = (a.point,)
    universe = [root]
    frontier = [root]
    parent: dict = {}
    children: dict = {BOTTOM: [root], root: []}
    branches: dict = {BOTTOM: (), root: (root,)}
    sig: dict = {BOTTOM: set(), root: set()}
    for d in range(2, k + 2):  # the depth of the new nodes; the root's is 1
        new_frontier = []
        depths = (d - 1, d)
        for s in frontier:
            cur, kids, branch = _LAST["modal"](s), children[s], branches[s]
            for rel in a.vocab.binary:
                nxts = succ.get((rel, cur))
                if nxts is None:
                    edges = a.interp[rel]
                    nxts = succ[rel, cur] = [v for v in a.universe if (cur, v) in edges]
                for nxt in nxts:
                    t = s + ((rel, nxt),)
                    parent[t] = s
                    kids.append(t)
                    children[t] = []
                    branches[t] = branch + (t,)
                    sig[t] = {(rel, depths)}
                    new_frontier.append(t)
                    if len(universe) + len(new_frontier) > cap:
                        raise CoalgebraSizeError(f"unravelling exceeds cap {cap}")
        universe.extend(new_frontier)
        frontier = new_frontier
    interp: dict = {}
    for rel in a.vocab.unary:
        interp[rel] = frozenset((s,) for s in universe if (_LAST["modal"](s),) in a.interp[rel])
        for (s,) in interp[rel]:  # a path's length is its depth
            sig[s].add((rel, (len(s),)))
    for rel in a.vocab.binary:
        interp[rel] = frozenset((parent[t], t) for t in parent if t[-1][0] == rel)
    carrier = Structure(a.vocab, tuple(universe), interp, root, f"M{k}({a.name})")
    c = ForestCoalgebra(carrier, parent, k, "modal")
    # the instance dict is where the cached properties look first
    c.__dict__.update(children=children, _branches=branches, signatures=(sig, False))
    return c


def build_pebble_truncated(a: Structure, k: int, n: int, with_i: bool = False,
                           cap: int = DEFAULT_CARRIER_CAP) -> ForestCoalgebra:
    """Depth-n slice of the pebbling comonad; for inspection and law tests.

    The cofree pebbling coalgebra itself is infinite, so this object is never
    used to decide finite-variable preservation.
    """
    if k < 1 or n < 1:
        raise CoalgebraError("k and n must be >= 1")
    if with_i:
        a = expand_i(a)
    moves = [(p, e) for p in range(1, k + 1) for e in a.universe]
    total = sum(len(moves) ** i for i in range(1, n + 1))
    if total > cap:
        raise CoalgebraSizeError(f"carrier would have {total} elements, cap {cap}")
    universe: list[tuple] = []
    for length in range(1, n + 1):
        universe.extend(itertools.product(moves, repeat=length))
    parent = {s: s[:-1] for s in universe if len(s) > 1}

    def suffix_ok(combo) -> bool:
        for u in combo:
            for v in combo:
                if len(u) <= len(v) and u == v[: len(u)]:
                    p_last = u[-1][0]
                    if any(v[i][0] == p_last for i in range(len(u), len(v))):
                        return False
        return True

    pulled = pull_back([_prefixes(s) for s in universe], _LAST["pebble"], a, cap)
    interp = {rel: frozenset(filter(suffix_ok, tuples)) for rel, tuples in pulled.items()}
    carrier = Structure(a.vocab, tuple(universe), interp, None, f"P{k}@{n}({a.name})")
    pebble_fn = {s: s[-1][0] for s in universe}
    return ForestCoalgebra(carrier, parent, k, "pebble", pebble_fn)


def build_cofree(a: Structure, kind: str, k: int, n: int | None = None,
                 with_i: bool = False, cap: int = DEFAULT_CARRIER_CAP) -> ForestCoalgebra:
    if kind == "ef":
        return build_ef(a, k, with_i, cap)
    if kind == "modal":
        return build_modal(a, k, cap)
    if kind == "pebble":
        if n is None:
            raise CoalgebraError("pebble builder needs a truncation depth n")
        return build_pebble_truncated(a, k, n, with_i, cap)
    raise CoalgebraError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Counit and coextension

def _require_built(c: ForestCoalgebra, s):
    if s not in c.carrier.index:
        raise CoalgebraError(f"{s!r} is not an element of the carrier")
    if not isinstance(s, tuple):
        raise CoalgebraError("counit/coextension apply to built cofree coalgebras only")


def counit(c: ForestCoalgebra, s):
    """Last element of a sequence, or endpoint of a path."""
    _require_built(c, s)
    return _LAST[c.kind](s)


def counit_map(c: ForestCoalgebra) -> dict:
    return {s: counit(c, s) for s in c.universe}


def coextend(c: ForestCoalgebra, f: Mapping, b: Structure) -> tuple[dict, ForestCoalgebra]:
    """Coextension f*: prefixes of each element mapped pointwise through f.

    ``f`` must be a homomorphism from the carrier of ``c`` to ``b`` (checked);
    the result is a map into the cofree coalgebra of the same kind over ``b``
    together with that coalgebra, and is itself checked to be a homomorphism.
    """
    if not is_homomorphism(f, c.carrier, b):
        raise CoalgebraError("coextension needs a homomorphism from the carrier")
    depth = max((len(s) for s in c.universe), default=1) if c.kind == "pebble" else None
    target = build_cofree(b, c.kind, c.k_bound, depth)
    out: dict = {}
    for s in c.universe:
        if c.kind == "ef":
            out[s] = tuple(f[s[: i + 1]] for i in range(len(s)))
        elif c.kind == "pebble":
            out[s] = tuple((s[i][0], f[s[: i + 1]]) for i in range(len(s)))
        else:
            img = (f[s[:1]],)
            for i in range(1, len(s)):
                img = img + ((s[i][0], f[s[: i + 1]]),)
            out[s] = img
        if out[s] not in target.carrier.index:
            raise CoalgebraError(f"coextension image {out[s]!r} missing from target carrier")
    if not is_homomorphism(out, c.carrier, target.carrier):
        raise CoalgebraError("coextension failed to be a homomorphism (bug sentinel)")
    return out, target


def check_comonad_laws(c: ForestCoalgebra, base: Structure, f: Mapping, b: Structure,
                       g: Mapping, d: Structure) -> list[str]:
    """Check the three comonad laws on concrete data.

    ``c`` is a cofree coalgebra over ``base``; ``f`` a homomorphism from its
    carrier to ``b``; ``g`` one from the carrier of the cofree coalgebra over
    ``b`` to ``d``.  Returns a list of violated laws, empty when all hold.
    """
    failures = []
    eps = counit_map(c)
    eps_star, target_same = coextend(c, eps, base)
    if any(eps_star[s] != s for s in c.universe):
        failures.append("counit coextension is not the identity")
    f_star, fb = coextend(c, f, b)
    eps_b = counit_map(fb)
    if any(eps_b[f_star[s]] != f[s] for s in c.universe):
        failures.append("counit after coextension differs from the map")
    g_star, gd = coextend(fb, g, d)
    gf = {s: g[f_star[s]] for s in c.universe}
    gf_star, _ = coextend(c, gf, d)
    for s in c.universe:
        if gf_star[s] != g_star[f_star[s]]:
            failures.append("coextension does not commute with composition")
            break
    return failures


# ---------------------------------------------------------------------------
# Path trees

class _Bottom:
    __slots__ = ()

    def __repr__(self):
        return "⊥"


#: Synthetic least path, kept outside every carrier.
BOTTOM = _Bottom()


@dataclass(frozen=True, eq=False)
class PathTree:
    """The tree of paths of a forest coalgebra: a synthetic root below the forest."""

    nodes: tuple
    parent: Mapping

    @cached_property
    def children(self) -> dict:
        out: dict = {n: [] for n in self.nodes}
        for c in self.nodes:
            p = self.parent.get(c)
            if p is not None:
                out[p].append(c)
        return out

    @cached_property
    def height(self) -> dict:
        """Distance to the synthetic root per node; raises on a parent cycle."""
        return _heights(self.nodes, self.parent)

    @property
    def root(self):
        return self.nodes[0]


def path_tree(x: ForestCoalgebra) -> PathTree:
    parent = {BOTTOM: None}
    parent.update({e: x.parent.get(e, BOTTOM) for e in x.universe})
    del parent[BOTTOM]
    return PathTree((BOTTOM,) + x.universe, parent)


def is_forest_morphism_tree(tmap: Mapping, t1: PathTree, t2: PathTree) -> bool:
    for n in t1.nodes:
        if n not in tmap or tmap[n] not in t2.children:
            return False
    if tmap[t1.root] != t2.root:
        return False
    for c in t1.nodes:
        p = t1.parent.get(c)
        if p is not None and t2.parent.get(tmap[c]) != tmap[p]:
            return False
    return True


def is_p_morphism(tmap: Mapping, t1: PathTree, t2: PathTree) -> bool:
    """Root preservation plus cover lifting, for a forest morphism of path trees."""
    if not is_forest_morphism_tree(tmap, t1, t2):
        raise CoalgebraError("map is not a forest morphism of path trees")
    for n in t1.nodes:
        image_children = {tmap[c] for c in t1.children[n]}
        for yc in t2.children[tmap[n]]:
            if yc not in image_children:
                return False
    return True


def forest_shape(nodes, children: Mapping, roots) -> str:
    """Canonical label-free shape of a forest; equal shapes = order isomorphic.

    The shape is the AHU encoding: a node is ``(`` + its children's shapes
    in sorted order + ``)``, and the forest its sorted root shapes.  Built
    bottom-up without recursion, and compared as flat strings, so forests of
    any depth work.
    """
    shape: dict = {}
    stack = list(roots)
    while stack:
        n = stack[-1]
        pending = [c for c in children[n] if c not in shape]
        if pending:
            stack += pending
        else:
            stack.pop()
            shape[n] = "(" + "".join(sorted(shape[c] for c in children[n])) + ")"
    return "".join(sorted(shape[r] for r in roots))


# ---------------------------------------------------------------------------
# Coalgebra files: the structure grammar plus a forest section

def serialize_coalgebra(x: ForestCoalgebra) -> str:
    """Emit the coalgebra file grammar: the carrier in the structure grammar,
    then the forest section; bit-exact round trip for canonical order."""
    tok = element_tokens(x.universe)
    lines = ["forest"]
    for e in x.universe:
        if e not in x.parent:
            lines.append(f"root {tok[e]}")
    for e in x.universe:
        if e in x.parent:
            lines.append(f"parent {tok[e]} {tok[x.parent[e]]}")
    if x.kind == "pebble":
        for e in x.universe:
            lines.append(f"pebble {tok[e]} {x.pebble_fn[e]}")
    return serialize_structure(x.carrier) + "\n".join(lines) + "\n"


def parse_coalgebra(text: str) -> ForestCoalgebra:
    """Parse a coalgebra file.

    The kind is inferred: pebble lines make it a pebble coalgebra, otherwise
    a point makes it modal, otherwise it is EF-kind.  The height bound is
    the observed forest height (the pebble bound is the largest index seen).
    """
    lines = text.splitlines()
    split = None
    for i, raw in enumerate(lines):
        stripped = raw.split("#")[0].strip()
        if stripped == "forest":
            split = i
            break
    if split is None:
        raise ParseError("missing 'forest' section")
    carrier = parse_structure("\n".join(lines[:split]), allow_reserved=True)
    roots: list = []
    parent: dict = {}
    pebble: dict = {}
    elems = set(carrier.universe)
    for lineno, raw in enumerate(lines[split + 1:], start=split + 2):
        stripped = raw.split("#")[0].strip()
        if not stripped:
            continue
        words = stripped.split()
        head, args = words[0], words[1:]
        if head == "root" and len(args) == 1 and args[0] in elems:
            roots.append(args[0])
        elif head == "parent" and len(args) == 2 and set(args) <= elems:
            if args[0] in parent:
                raise ParseError(f"duplicate parent for {args[0]!r}", lineno)
            parent[args[0]] = args[1]
        elif head == "pebble" and len(args) == 2 and args[0] in elems and args[1].isdigit():
            pebble[args[0]] = int(args[1])
        else:
            raise ParseError(f"bad forest directive {stripped!r}", lineno)
    for e in carrier.universe:
        if (e in parent) == (e in roots):
            raise ParseError(f"element {e!r} must be either a root or have a parent")
    if pebble:
        kind = "pebble"
        k_bound = max(pebble.values())
    elif carrier.point is not None:
        kind = "modal"
        k_bound = 0
    else:
        kind = "ef"
        k_bound = 0
    try:
        depth = max(_heights(carrier.universe, parent).values(), default=0)
    except CoalgebraError:  # a parent cycle, which validate_coalgebra reports
        depth = 0
    k_bound = max(k_bound, depth, 1)
    return ForestCoalgebra(carrier, parent, k_bound, kind, pebble or None)
