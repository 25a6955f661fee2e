"""Exhaustive desk-scale corpora: all small structures up to isomorphism.

A digraph on n elements is its edge mask, bit ``i * n + j`` set iff
``E(i, j)``; a pointed model adds its proposition mask (bit i iff ``P(i)``)
and its point.  The representative of an isomorphism class is its least
encoding: the least edge mask, then the least proposition mask, then the
least point, over all permutations of the universe.  The corpora list the
representatives by size, then in increasing encoding order, so they are
deterministic and stable across runs.

``_orbit_tables(n)`` gives, per permutation p of the n elements, the
image under p of every edge mask and of every proposition mask.  Each table
is filled in one pass by doubling: with ``high`` the highest set bit of a
mask m, ``image[m] = image[m ^ high] | image[high]``, so the images of the
masks below ``2 * high`` are those below ``high`` with one more bit ORed in.
A digraph is kept iff no table maps its mask lower.  For a pointed model,
a permutation that moves the (least) edge mask maps it strictly higher, so
only the automorphisms of the edge mask (the permutations that fix it) can
lower the proposition mask or the point; those are the only ones tested
(orderly generation: Read, "Every one a winner", 1978; McKay, "Isomorph-free
exhaustive generation", 1998).  So exactly the encodings least in their
orbits are kept, visited in increasing order: the representatives and their
order do not depend on how the minimum is found.  The tables live for one
call: nothing is cached between calls.
"""

from __future__ import annotations

import itertools

from .structures import Structure, Vocabulary

DIGRAPH_VOCAB = Vocabulary((("E", 2),))
KRIPKE_VOCAB = Vocabulary((("R", 2), ("P", 1)))

_NAMES = "abcdefgh"


def _image_table(bits) -> list:
    """The image of every mask over ``len(bits)`` bits when bit b maps to
    ``bits[b]``, at the mask's index."""
    table = [0]
    for bit in bits:
        table += [image | bit for image in table]
    return table


def _orbit_tables(n: int) -> tuple:
    """The permutations of ``range(n)`` and, per permutation, the image
    tables of the n*n-bit edge masks and of the n-bit proposition masks."""
    perms = list(itertools.permutations(range(n)))
    edges = [_image_table([1 << (p[i] * n + p[j]) for i in range(n) for j in range(n)])
             for p in perms]
    props = [_image_table([1 << p[i] for i in range(n)]) for p in perms]
    return perms, edges, props


def _least_edge_masks(edge_tables) -> list:
    """The edge masks that no permutation maps lower, in increasing order."""
    return [mask for mask, least in enumerate(map(min, zip(*edge_tables))) if least == mask]


def _edges(elems, mask: int) -> list:
    n = len(elems)
    return [(elems[i], elems[j]) for i in range(n) for j in range(n) if mask >> (i * n + j) & 1]


def all_digraphs(max_size: int = 3, include_empty: bool = True) -> list[Structure]:
    """All structures with one binary relation, up to isomorphism."""
    out: list[Structure] = []
    if include_empty:
        out.append(Structure.make(DIGRAPH_VOCAB, [], {}, name="D0"))
    for n in range(1, max_size + 1):
        elems = list(_NAMES[:n])
        for mask in _least_edge_masks(_orbit_tables(n)[1]):
            out.append(Structure.make(DIGRAPH_VOCAB, elems, {"E": _edges(elems, mask)},
                                      name=f"D{n}_{mask}"))
    return out


def all_pointed_kripke(max_size: int = 3) -> list[Structure]:
    """All pointed models with one binary plus one unary symbol, up to
    isomorphism (isomorphisms must fix the point)."""
    out: list[Structure] = []
    for n in range(1, max_size + 1):
        perms, edge_tables, prop_tables = _orbit_tables(n)
        elems = list(_NAMES[:n])
        for mask in _least_edge_masks(edge_tables):
            autos = [(p, prop_image) for p, edge_image, prop_image
                     in zip(perms, edge_tables, prop_tables) if edge_image[mask] == mask]
            edges = _edges(elems, mask)
            for pmask in range(1 << n):
                props = [(elems[i],) for i in range(n) if pmask >> i & 1]
                for point in range(n):
                    if all((image[pmask], p[point]) >= (pmask, point) for p, image in autos):
                        out.append(Structure.make(
                            KRIPKE_VOCAB, elems, {"R": edges, "P": props},
                            point=elems[point], name=f"M{n}_{mask}_{pmask}_{point}"))
    return out


def linear_order(m: int, rel: str = "L") -> Structure:
    """Strict linear order on m elements (one binary relation)."""
    elems = [f"a{i}" for i in range(m)]
    vocab = Vocabulary(((rel, 2),))
    tuples = [(elems[i], elems[j]) for i in range(m) for j in range(m) if i < j]
    return Structure.make(vocab, elems, {rel: tuples}, name=f"L{m}")


def clique(m: int) -> Structure:
    """Loop-free complete digraph on m elements."""
    elems = [f"c{i}" for i in range(m)]
    tuples = [(x, y) for x in elems for y in elems if x != y]
    return Structure.make(DIGRAPH_VOCAB, elems, {"E": tuples}, name=f"K{m}")


def edge_structure() -> Structure:
    return Structure.make(DIGRAPH_VOCAB, ["v", "w"], {"E": [("v", "w")]}, name="edge")


def loop_structure() -> Structure:
    return Structure.make(DIGRAPH_VOCAB, ["u"], {"E": [("u", "u")]}, name="loop")
