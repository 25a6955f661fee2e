import gc
import random
import time
import weakref

import pytest

from fmgames import (DuplicatorWinsError, GameSpec, Verdict, classify, distinguish,
                     model_check, serialize_formula, solve)
from fmgames import synthesis

from fmgames.corpus import all_digraphs, clique, linear_order

from conftest import kripke, small_structures

MODES = ("full", "existential", "positive", "ep")


def test_edge_loop_witness(edge, loop):
    spec = GameSpec("ef", "existential", 2)
    phi = distinguish(spec, edge, loop)
    assert model_check(phi, edge)
    assert not model_check(phi, loop)
    c = classify(phi)
    assert c.rank <= 2 and c.in_mode["existential"]


def test_rank2_distinguisher_for_l2_l3(orders):
    spec = GameSpec("ef", "full", 2)
    phi = distinguish(spec, orders[2], orders[3])
    assert classify(phi).rank <= 2
    assert model_check(phi, orders[2]) != model_check(phi, orders[3])


def test_modal_base_case():
    a = kripke(["a", "s"], [("a", "s")], [], "a")
    b = kripke(["b"], [], [], "b")
    phi = distinguish(GameSpec("modal", "existential", 1), a, b)
    assert str(phi) == "<R> true"
    assert model_check(phi, a) and not model_check(phi, b)


def test_error_when_duplicator_wins(edge):
    with pytest.raises(DuplicatorWinsError):
        distinguish(GameSpec("ef", "full", 2), edge, edge)


def test_deterministic_output(edge, loop):
    spec = GameSpec("ef", "existential", 2)
    assert str(distinguish(spec, edge, loop)) == str(distinguish(spec, edge, loop))


def test_soundness_random_sweep_ef():
    pool = small_structures(2)
    rnd = random.Random(41)
    checked = 0
    for _ in range(80):
        a, b = rnd.choice(pool), rnd.choice(pool)
        mode = rnd.choice(MODES)
        k = rnd.choice((1, 2))
        spec = GameSpec("ef", mode, k)
        v = solve(spec, a, b)
        if v.duplicator_wins:
            continue
        phi = distinguish(spec, a, b, v)
        assert model_check(phi, a), (str(phi), a.name, b.name)
        assert not model_check(phi, b)
        c = classify(phi)
        assert c.rank <= k and c.in_mode[mode]
        checked += 1
    assert checked > 10


def test_soundness_pebble_with_stage_bound():
    pool = [s for s in small_structures(2) if s.size]
    rnd = random.Random(43)
    checked = 0
    for _ in range(40):
        a, b = rnd.choice(pool), rnd.choice(pool)
        mode = rnd.choice(MODES)
        spec = GameSpec("pebble", mode, 2)
        v = solve(spec, a, b)
        if v.duplicator_wins:
            continue
        phi = distinguish(spec, a, b, v)
        assert model_check(phi, a) and not model_check(phi, b)
        c = classify(phi)
        assert c.var_count <= 2
        assert c.rank <= v.stage[frozenset()]
        assert c.in_mode[mode]
        checked += 1
    assert checked > 5


def test_soundness_modal_sweep():
    models = []
    for bits in range(0, 64, 2):
        edges = [(x, y) for i, (x, y) in enumerate(
            [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]) if bits >> i & 1]
        props = [p for i, p in enumerate(["a", "b"]) if bits >> (4 + i) & 1]
        models.append(kripke(["a", "b"], edges, props, "a"))
    checked = 0
    for a in models[:10]:
        for b in models[:10]:
            for mode in MODES:
                spec = GameSpec("modal", mode, 2)
                v = solve(spec, a, b)
                if v.duplicator_wins:
                    continue
                phi = distinguish(spec, a, b, v)
                assert model_check(phi, a) and not model_check(phi, b)
                c = classify(phi)
                assert c.modal_depth <= 2 and c.in_mode[mode]
                checked += 1
    assert checked > 20


def test_empty_b_gives_exists_true(edge):
    from fmgames import Structure
    empty = Structure.make(edge.vocab, [], {})
    phi = distinguish(GameSpec("ef", "ep", 1), edge, empty)
    assert str(phi) == "E x1. true"


@pytest.mark.parametrize("spec, pair", [
    (GameSpec("ef", "full", 2), "orders"),
    (GameSpec("pebble", "full", 3), "cliques"),
    (GameSpec("pebble", "full", 3, 3), "cliques"),
    (GameSpec("modal", "full", 2), "kripke"),
], ids=["ef", "pebble", "pebble-rounds", "modal"])
def test_verdict_is_freed_without_the_cycle_collector(spec, pair):
    # solve and distinguish leave no reference cycle: once the last
    # reference goes, the verdict with its memo and rules is freed at once
    a, b = {"orders": (linear_order(2), linear_order(3)),
            "cliques": (clique(3), clique(2)),
            "kripke": (kripke(["a", "b"], [("a", "b")], ["b"], "a"),
                       kripke(["a", "b"], [("a", "b")], [], "a"))}[pair]
    gc.collect()
    gc.disable()
    try:
        v = solve(spec, a, b)
        assert not v.duplicator_wins
        distinguish(spec, a, b, v)
        ref = weakref.ref(v)
        del v
        assert ref() is None
    finally:
        gc.enable()


def _key_walk(spec, a, b, v):
    """The formula ``_Synthesis`` reads off the verdict's strategy lookups."""
    return synthesis._Synthesis(spec, a, b, v).formula(v.root, ())


def test_unbounded_pebble_distinguish_walks_the_stage_table(monkeypatch):
    # the formula of the mask walk is the key walk's, byte for byte, and it
    # answers with the verdict's strategy lookups refusing to run
    rnd = random.Random(89)
    graphs = all_digraphs(3)
    cases = []
    for mode in MODES:
        for k in (1, 2, 3):
            for _ in range(4):
                a, b = rnd.choice(graphs), rnd.choice(graphs)
                spec = GameSpec("pebble", mode, k)
                v = solve(spec, a, b)
                if not v.duplicator_wins:
                    cases.append((spec, a, b, v, serialize_formula(_key_walk(spec, a, b, v))))
    assert len(cases) > 20

    def refuse(self, key):
        raise AssertionError("a strategy lookup was read")
    monkeypatch.setattr(Verdict, "spoiler_move_at", refuse)
    monkeypatch.setattr(Verdict, "condition_at", refuse)
    for spec, a, b, v, expected in cases:
        assert serialize_formula(distinguish(spec, a, b, v)) == expected
    # a node holds only the placed pebbles, never a structure of length k
    spec = GameSpec("pebble", "full", 200_000)
    start = time.perf_counter()
    small = distinguish(spec, clique(1), clique(2))
    phi = distinguish(spec, clique(2), clique(3))
    elapsed = time.perf_counter() - start
    assert serialize_formula(small) == "E x1. A x2. x1=x2"
    assert model_check(phi, clique(2)) and not model_check(phi, clique(3))
    assert classify(phi).var_count == 3 and classify(phi).rank == 3
    assert elapsed < 0.5, elapsed
    # the bounded game still walks its keys
    with pytest.raises(AssertionError, match="strategy lookup"):
        distinguish(GameSpec("pebble", "full", 3, 3), clique(3), clique(2))
