"""The corpora: the same structures, names and order as a scan of every
permutation, the orbit counts Burnside's lemma gives, and no image table
left behind by a call."""

from __future__ import annotations

import gc
import itertools
import math
import os
import time
import tracemalloc
from collections import Counter

import pytest

from fmgames import serialize_structure
from fmgames.corpus import all_digraphs, all_pointed_kripke

from conftest import reference_all_digraphs, reference_all_pointed_kripke

#: Isomorphism classes per size 0, 1, 2, ...: digraphs (OEIS A000595) and
#: pointed models with one binary and one unary relation.
DIGRAPH_ORBITS = (1, 2, 10, 104, 3044)
POINTED_ORBITS = (0, 4, 64, 2112, 178944)


def _text(corpus):
    return [(s.name, serialize_structure(s)) for s in corpus]


@pytest.mark.parametrize("max_size", range(4))
def test_corpora_match_the_permutation_scan(max_size):
    for include_empty in (True, False):
        assert _text(all_digraphs(max_size, include_empty)) == \
            _text(reference_all_digraphs(max_size, include_empty))
    assert _text(all_pointed_kripke(max_size)) == _text(reference_all_pointed_kripke(max_size))


def _cycles(perm, points) -> int:
    """The number of cycles of ``perm`` (a dict) on ``points``."""
    seen, count = set(), 0
    for start in points:
        if start not in seen:
            count += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = perm[x]
    return count


def burnside(n: int, pointed: bool) -> int:
    """The number of isomorphism classes of digraphs (or pointed models) on
    n elements: the mean over the permutations p of the encodings p fixes.
    An edge mask is fixed iff it is constant on each cycle of p on the
    ordered pairs, a proposition mask iff it is constant on each cycle on
    the elements, and a point iff p fixes it."""
    pairs = [(i, j) for i in range(n) for j in range(n)]
    total = 0
    for p in itertools.permutations(range(n)):
        fixed = 2 ** _cycles({(i, j): (p[i], p[j]) for i, j in pairs}, pairs)
        if pointed:
            fixed *= 2 ** _cycles(dict(enumerate(p)), range(n))
            fixed *= sum(p[i] == i for i in range(n))
        total += fixed
    return total // math.factorial(n)


def _sizes(corpus, max_size):
    count = Counter(s.size for s in corpus)
    return tuple(count[n] for n in range(max_size + 1))


def test_burnside_counts_the_orbits():
    assert tuple(burnside(n, False) for n in range(5)) == DIGRAPH_ORBITS
    assert tuple(burnside(n, True) for n in range(5)) == POINTED_ORBITS
    assert _sizes(all_digraphs(3), 3) == DIGRAPH_ORBITS[:4]
    assert _sizes(all_pointed_kripke(3), 3) == POINTED_ORBITS[:4]


def test_all_digraphs_of_size_four_within_budget():
    start = time.perf_counter()
    graphs = all_digraphs(4)
    assert time.perf_counter() - start < 3
    assert _sizes(graphs, 4) == DIGRAPH_ORBITS


@pytest.mark.skipif(os.environ.get("FMGAMES_ACCEPTANCE_FULL") != "1",
                    reason="about 4 s and 340 MB of peak RSS; set FMGAMES_ACCEPTANCE_FULL=1")
def test_all_pointed_models_of_size_four():
    assert _sizes(all_pointed_kripke(4), 4) == POINTED_ORBITS


def test_no_table_outlives_its_call():
    """The image tables are built per call and dropped with it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpora = [all_pointed_kripke(3), all_digraphs(4)]
        del corpora
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 100_000
