import itertools
import random
import time
import tracemalloc

import pytest

from fmgames import (GameSpec, IllegalMoveError, StructureError, Structure,
                     Vocabulary, distinguish, pairs_condition, replay,
                     serialize_structure, solve)
from fmgames.corpus import (DIGRAPH_VOCAB, all_digraphs, all_pointed_kripke, clique,
                            linear_order)
from fmgames.formulas import Atom, Eq, NegAtom, NegEq, serialize_formula
from fmgames.games import Verdict, violated_literal
from conftest import _partial_map_ok, brute_force_game, kripke, small_structures

MODES = ("full", "existential", "positive", "ep")


def test_spec_validation():
    with pytest.raises(ValueError):
        GameSpec("ef", "full", 0)
    with pytest.raises(ValueError):
        GameSpec("ef", "full", 2, rounds=3)
    with pytest.raises(ValueError):
        GameSpec("chess", "full", 2)
    assert GameSpec("ef", "existential-positive", 1).mode == "ep"


def test_linear_order_thresholds(orders):
    # the classical 2^k - 1 boundary for rank-2 equivalence
    assert solve(GameSpec("ef", "full", 2), orders[3], orders[4]).duplicator_wins
    assert not solve(GameSpec("ef", "full", 2), orders[2], orders[3]).duplicator_wins


def test_edge_loop_existential_vs_ep(edge, loop):
    assert not solve(GameSpec("ef", "existential", 2), edge, loop).duplicator_wins
    for k in (1, 2, 3):
        assert solve(GameSpec("ef", "ep", k), edge, loop).duplicator_wins


def test_clique_pebbles(cliques):
    assert solve(GameSpec("pebble", "full", 2), cliques[2], cliques[3]).duplicator_wins
    assert not solve(GameSpec("pebble", "full", 3), cliques[2], cliques[3]).duplicator_wins


def test_copy_strategy_on_identical(edge, orders):
    for spec in (GameSpec("ef", "full", 2), GameSpec("pebble", "positive", 2)):
        assert solve(spec, edge, edge).duplicator_wins
        assert solve(spec, orders[3], orders[3]).duplicator_wins


def test_modal_no_successor():
    a = kripke(["a", "s"], [("a", "s")], [], "a")
    b = kripke(["b"], [], [], "b")
    assert not solve(GameSpec("modal", "existential", 1), a, b).duplicator_wins
    # and the other way round Spoiler has no move at all
    assert solve(GameSpec("modal", "existential", 1), b, a).duplicator_wins


def test_modal_requires_points(edge):
    with pytest.raises(StructureError):
        solve(GameSpec("modal", "full", 1), edge, edge)


def test_vocabulary_mismatch(edge):
    other = Structure.make(Vocabulary((("F", 2),)), ["v"], {})
    with pytest.raises(StructureError):
        solve(GameSpec("ef", "full", 1), edge, other)


def test_empty_structure_corners(edge):
    empty = Structure.make(edge.vocab, [], {})
    for mode in ("existential", "ep"):
        assert solve(GameSpec("ef", mode, 2), empty, edge).duplicator_wins
        assert not solve(GameSpec("ef", mode, 2), edge, empty).duplicator_wins
    for mode in ("full", "positive"):
        assert not solve(GameSpec("ef", mode, 1), empty, edge).duplicator_wins
    assert solve(GameSpec("ef", "full", 3), empty, empty).duplicator_wins


def test_against_brute_force_ef_and_modal():
    pool = small_structures(2)
    rnd = random.Random(13)
    for _ in range(60):
        a, b = rnd.choice(pool), rnd.choice(pool)
        mode = rnd.choice(MODES)
        k = rnd.choice((1, 2))
        assert solve(GameSpec("ef", mode, k), a, b).duplicator_wins == \
            brute_force_game("ef", mode, k, a, b)
    models = []
    for bits in range(0, 64, 3):
        edges = [(x, y) for i, (x, y) in enumerate(
            [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]) if bits >> i & 1]
        props = [p for i, p in enumerate(["a", "b"]) if bits >> (4 + i) & 1]
        models.append(kripke(["a", "b"], edges, props, "a"))
    for a, b in itertools.product(models[:8], models[:8]):
        for mode in MODES:
            assert solve(GameSpec("modal", mode, 2), a, b).duplicator_wins == \
                brute_force_game("modal", mode, 2, a, b)


def test_bounded_pebble_against_brute_force():
    pool = [s for s in small_structures(2) if s.size]
    rnd = random.Random(5)
    for _ in range(25):
        a, b = rnd.choice(pool), rnd.choice(pool)
        mode = rnd.choice(MODES)
        spec = GameSpec("pebble", mode, 1, rounds=2)
        assert solve(spec, a, b).duplicator_wins == \
            brute_force_game("pebble", mode, 1, a, b, rounds=2)


def test_unbounded_pebble_is_bounded_limit():
    pool = [s for s in small_structures(2) if s.size]
    rnd = random.Random(3)
    for _ in range(10):
        a, b = rnd.choice(pool), rnd.choice(pool)
        unbounded = solve(GameSpec("pebble", "full", 2), a, b).duplicator_wins
        n_positions = (a.size * b.size + 1) ** 2
        bounded = solve(GameSpec("pebble", "full", 2, rounds=n_positions + 1), a, b)
        assert unbounded == bounded.duplicator_wins


def test_hereditarity_of_conditions():
    # every subset of a condition-satisfying pair set satisfies it too
    pool = small_structures(2)
    rnd = random.Random(11)
    for _ in range(100):
        a, b = rnd.choice(pool), rnd.choice(pool)
        if not a.size or not b.size:
            continue
        pairs = {(rnd.choice(a.universe), rnd.choice(b.universe)) for _ in range(3)}
        for iso in (True, False):
            if pairs_condition(frozenset(pairs), a, b, iso):
                for r in range(len(pairs)):
                    for sub in itertools.combinations(pairs, r):
                        assert pairs_condition(frozenset(sub), a, b, iso)


def test_determinacy_strategy_presence():
    pool = small_structures(2)
    rnd = random.Random(2)
    for _ in range(30):
        a, b = rnd.choice(pool), rnd.choice(pool)
        v = solve(GameSpec("ef", rnd.choice(MODES), 2), a, b)
        start = v.root
        if v.duplicator_wins:
            for move in v.moves(start):
                assert v.duplicator_response(start, move) is not None
        else:
            assert v.spoiler_move_at(start) is not None or not v.condition_at(start)


def _play(v, moves):
    """The key and ``played`` after ``moves``, each answered by its first
    response."""
    key, played = v.root, ()
    for move in moves:
        r = v.responses(key, move)[0]
        key = v.child(key, move, r)
        played += (v.rules.pair(move, r),)
    return key, played


def test_ef_bindings_keep_a_repeated_element_as_two_rounds(edge):
    v = solve(GameSpec("ef", "full", 2), edge, edge)
    key, played = _play(v, [("A", "v"), ("A", "v")])
    assert key == (frozenset({("v", "v")}), 0)
    assert v.rules.bindings(key, played) == [(1, "v", "v"), (2, "v", "v")]
    assert v.rules.label(v.root, ("A", "v")) == 1
    assert v.rules.label(v.child(v.root, ("A", "v"), "w"), ("B", "v")) == 2


def test_modal_bindings_start_at_the_points(chain_ab):
    b = kripke(["p", "q"], [("p", "q")], ["q"], "p")
    v = solve(GameSpec("modal", "full", 2), chain_ab, b)
    key, played = _play(v, [("R", "A", "b")])
    assert key == (("b", "q"), 1)
    assert v.rules.bindings(v.root, ()) == [(1, "a", "p")]
    assert v.rules.bindings(key, played) == [(1, "a", "p"), (2, "b", "q")]
    assert v.rules.label(v.root, ("R", "B", "q")) == "R"


def test_pebble_bindings_follow_the_pebble_index_after_a_move():
    v = solve(GameSpec("pebble", "full", 2), clique(3), clique(3))
    key, played = _play(v, [(2, "A", "c1"), (1, "A", "c0"), (2, "B", "c2")])
    assert key == (frozenset({(1, ("c0", "c0")), (2, ("c0", "c2"))}), None)
    assert v.rules.bindings(key, played) == [(1, "c0", "c0"), (2, "c0", "c2")]
    assert v.rules.label(key, (2, "A", "c1")) == 2


def _reachable(v):
    """Every key reached from the root, by any move and response."""
    seen, todo = {v.root}, [v.root]
    while todo:
        key = todo.pop()
        yield key
        for move in v.moves(key):
            for _, child in v.children(key, move):
                if child not in seen:
                    seen.add(child)
                    todo.append(child)


def _seeded_verdicts(family, seed, count):
    rnd = random.Random(seed)
    pool = all_pointed_kripke(2) if family == "modal" else small_structures(2)
    for _ in range(count):
        a, b = rnd.choice(pool), rnd.choice(pool)
        mode, k = rnd.choice(MODES), rnd.choice((1, 2))
        if family == "pebble":
            spec = GameSpec("pebble", mode, k, rounds=rnd.choice((1, 2, 3)))
        else:
            spec = GameSpec(family, mode, k)
        yield solve(spec, a, b)


@pytest.mark.parametrize("family", ["ef", "modal", "pebble"])
def test_strategies_at_every_reachable_position(family):
    # child agrees with children, and wherever Duplicator is alive its
    # response keeps it alive, not only at the root
    seen = {"alive": 0, "dead": 0, "spoiler wins": 0}
    for v in _seeded_verdicts(family, 97, 40):
        seen["spoiler wins"] += not v.duplicator_wins
        for key in _reachable(v):
            alive = v.alive(key)
            seen["alive" if alive else "dead"] += 1
            if alive:
                assert v.condition_at(key), key
            elif v.condition_at(key):
                move = v.spoiler_move_at(key)
                assert not any(v.alive(c) for _, c in v.children(key, move)), key
            for move in v.moves(key):
                assert v.is_legal(key, move)
                children = v.children(key, move)
                assert [r for r, _ in children] == v.responses(key, move)
                for r, child in children:
                    assert v.child(key, move, r) == child and child[1] == key[1] - 1
                if alive:
                    r = v.duplicator_response(key, move)
                    assert r is not None and v.alive(v.child(key, move, r)), (key, move)
    assert min(seen.values()) >= 3, seen


def test_mode_lattice_and_resource_monotonicity():
    pool = small_structures(2)
    rnd = random.Random(23)
    for _ in range(40):
        a, b = rnd.choice(pool), rnd.choice(pool)
        wins = {(m, k): solve(GameSpec("ef", m, k), a, b).duplicator_wins
                for m in MODES for k in (1, 2)}
        for k in (1, 2):
            assert not wins[("full", k)] or wins[("existential", k)]
            assert not wins[("full", k)] or wins[("positive", k)]
            assert not wins[("existential", k)] or wins[("ep", k)]
            assert not wins[("positive", k)] or wins[("ep", k)]
        for m in MODES:
            assert not wins[(m, 2)] or wins[(m, 1)]


def test_replay_copy_strategy(orders):
    spec = GameSpec("ef", "full", 2)
    a = orders[3]
    v = solve(spec, a, a)
    t = replay(spec, a, a, v, [("A", "a0"), ("B", "a2")])
    assert t.winner == "Duplicator"
    assert all(r["condition"] for r in t.rounds)


def test_replay_edge_loop_script(edge, loop):
    spec = GameSpec("ef", "existential", 2)
    v = solve(spec, edge, loop)
    t = replay(spec, edge, loop, v, ["v", "w"])
    assert t.winner == "Spoiler"
    assert "condition violated" in t.note
    assert any("winner: Spoiler" in line for line in t.lines())


def test_replay_exhaustive_scripts_linear_orders(orders):
    spec = GameSpec("ef", "full", 2)
    a, b = orders[3], orders[4]
    v = solve(spec, a, b)
    assert v.duplicator_wins
    for m1 in [("A", e) for e in a.universe] + [("B", e) for e in b.universe]:
        t1 = replay(spec, a, b, v, [m1])
        assert t1.winner == "Duplicator"
        for e in a.universe:
            t2 = replay(spec, a, b, v, [m1, ("A", e)])
            assert t2.winner == "Duplicator"


def test_replay_rejects_illegal_moves(edge, loop):
    spec = GameSpec("ef", "existential", 1)
    v = solve(spec, edge, loop)
    with pytest.raises(IllegalMoveError, match="round 1"):
        replay(spec, edge, loop, v, [("B", "u")])  # Spoiler must play in A
    with pytest.raises(IllegalMoveError):
        replay(spec, edge, loop, v, [("A", "zzz")])


def test_pebble_stage_table(cliques):
    spec = GameSpec("pebble", "full", 3)
    v = solve(spec, cliques[2], cliques[3])
    assert not v.duplicator_wins
    assert v.stage[frozenset()] >= 1
    # stages are finite on dead positions and absent on alive ones
    stage = reference_pebble(spec, cliques[2], cliques[3])
    assert all(v.stage[pl] == s for pl, s in stage.items())
    assert len(v.stage) == len(stage)


def test_replay_truly_exhaustive_scripts(orders):
    spec = GameSpec("ef", "full", 2)
    a, b = orders[3], orders[4]
    v = solve(spec, a, b)
    moves = [("A", e) for e in a.universe] + [("B", e) for e in b.universe]
    for m1 in moves:
        for m2 in moves:
            assert replay(spec, a, b, v, [m1, m2]).winner == "Duplicator"


def test_pebble_placement_cap(cliques):
    from fmgames import GameResourceError
    # the cap counts candidate pair sets and counter rows, not the 10^9
    # placements: 34 partial isomorphisms of K3, each a row of 6 counters
    # and at most 9 candidates
    spec = GameSpec("pebble", "full", 9)
    assert solve(spec, cliques[3], cliques[3], placement_cap=1000).duplicator_wins
    with pytest.raises(GameResourceError, match="attractor work exceeds cap 100"):
        solve(spec, cliques[3], cliques[3], placement_cap=100)
    for k in (3, 4):
        start = time.perf_counter()
        with pytest.raises(GameResourceError, match="exceeds cap 200000"):
            solve(GameSpec("pebble", "full", k), linear_order(15), linear_order(16))
        assert time.perf_counter() - start < 2
    # 10,100 pairs: the per-pair compatibility masks are built only for the
    # bases the cap lets through, not all 10^8 comparisons up front
    start = time.perf_counter()
    with pytest.raises(GameResourceError, match="exceeds cap 200000"):
        solve(GameSpec("pebble", "full", 3), linear_order(100), linear_order(101))
    assert time.perf_counter() - start < 2


def test_pebble_placement_cap_refuses_before_keeping_a_level():
    from fmgames import GameResourceError
    # charged per base, this refusal first kept about 173k candidate sets
    # of the level it refused: 1.42 s and a 146 MB tracemalloc peak
    a, b = linear_order(100), linear_order(101)
    tracemalloc.start()
    try:
        with pytest.raises(GameResourceError, match="exceeds cap 200000"):
            solve(GameSpec("pebble", "full", 3), a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20, peak


def test_round_bounded_solver_caps_memoized_positions(orders):
    from fmgames import GameResourceError
    # rank 4 on orders of 15 and 16 elements ran for minutes without a cap
    for spec in (GameSpec("ef", "full", 4), GameSpec("pebble", "full", 4, rounds=4)):
        start = time.perf_counter()
        with pytest.raises(GameResourceError, match="exceed cap 200000"):
            solve(spec, linear_order(15), linear_order(16))
        assert time.perf_counter() - start < 60
    spec = GameSpec("ef", "full", 2)
    with pytest.raises(GameResourceError):
        solve(spec, orders[3], orders[4], placement_cap=10)
    assert solve(spec, orders[3], orders[4], placement_cap=1000).duplicator_wins


# ---------------------------------------------------------------------------
# Unbounded pebble game: the attractor against a plain synchronous sweep

MIXED = Vocabulary((("Z", 0), ("U", 1), ("E", 2), ("T", 3)))
UNARY = Vocabulary((("Z", 0), ("U", 1)))


def random_mixed(rnd, size, name, density, vocab=MIXED):
    elems = [f"{name}{i}" for i in range(size)]
    interp = {rel: [t for t in itertools.product(elems, repeat=arity) if rnd.random() < density]
              for rel, arity in vocab.relations}
    return Structure.make(vocab, elems, interp, name=name)


def mixed_pairs(seed, count, largest=3):
    """Seeded pairs over a vocabulary with 0-ary, unary, binary and ternary
    relations, sizes 0 to ``largest``.  Half of the B sides are copies of A
    with some ternary tuples of three distinct elements flipped: there a
    placement can pass every test on two pairs and fail only on three."""
    rnd = random.Random(seed)
    out = []
    for _ in range(count):
        a = random_mixed(rnd, rnd.randint(0, largest), "a", rnd.choice((0.3, 0.5, 0.7)))
        if rnd.random() < 0.5:
            b = random_mixed(rnd, rnd.randint(0, largest), "b", rnd.choice((0.3, 0.5, 0.7)))
        else:
            rename = dict(zip(a.universe, (f"b{i}" for i in itertools.count())))
            interp = {rel: {tuple(map(rename.get, t)) for t in a.interp[rel]}
                      for rel, _ in MIXED.relations}
            for t in itertools.permutations(rename.values(), 3):
                if rnd.random() < 0.2:
                    interp["T"] ^= {t}
            b = Structure.make(MIXED, list(rename.values()), interp, name="b")
        out.append((a, b))
    return out


def reference_pebble(spec, a, b):
    """Death stage of every dead frozenset placement, by re-sweeping the whole
    placement space until nothing changes (one sweep per stage)."""
    pairs = [(x, y) for x in a.universe for y in b.universe]
    placements = {frozenset((p, pair) for p, pair in enumerate(combo, 1) if pair)
                  for combo in itertools.product([None, *pairs], repeat=spec.k)}
    sides = ("A",) if spec.forth_only else ("A", "B")
    moves = [(p, side, e) for p in range(1, spec.k + 1) for side in sides
             for e in (a if side == "A" else b).universe]

    def children(pl, move):
        p, side, e = move
        rest = frozenset(item for item in pl if item[0] != p)
        if side == "A":
            return [rest | {(p, (e, y))} for y in b.universe]
        return [rest | {(p, (x, e))} for x in a.universe]

    stage = {pl: 0 for pl in placements
             if not pairs_condition({pair for _, pair in pl}, a, b, spec.iso_condition)}
    for s in itertools.count(1):
        killed = [pl for pl in placements if pl not in stage
                  and any(all(c in stage for c in children(pl, m)) for m in moves)]
        if not killed:
            return stage
        stage.update(dict.fromkeys(killed, s))


class ReferenceVerdict(Verdict):
    """An unbounded pebble verdict over a plain dict of dead placements, read
    child by child: the condition from ``pairs_condition`` and Spoiler's move
    from the stage of every response's placement, the lowest worst stage
    winning and ties going to the first move."""

    def __init__(self, spec, a, b, stage):
        super().__init__(spec, a, b)
        self.stage, self.duplicator_wins = stage, frozenset() not in stage
        self.alive = lambda key: key[0] not in stage

    def condition_at(self, key) -> bool:
        return self.rules.cond(key[0])

    def spoiler_move_at(self, key):
        best = best_stage = None
        for move in self.moves(key):
            stages = [self.stage.get(child[0], -1) for _, child in self.children(key, move)]
            if -1 in stages:
                continue
            worst = max(stages, default=0)
            if best is None or worst < best_stage:
                best, best_stage = move, worst
        return best


def assert_matches_reference(spec, a, b):
    """Check the stage table, Spoiler's strategy and the synthesized formula
    against ``reference_pebble`` and ``ReferenceVerdict``."""
    v = solve(spec, a, b)
    stage = reference_pebble(spec, a, b)
    assert v.duplicator_wins == (frozenset() not in stage)
    # the same dead placements with the same stages: each one the reference
    # lists, and no more
    assert all(v.stage[pl] == s for pl, s in stage.items())
    assert len(v.stage) == len(stage)
    ref = ReferenceVerdict(spec, a, b, stage)
    # every position distinguish visits, the violating ones included
    todo = [v.root]
    while todo:
        key = todo.pop()
        move = v.spoiler_move_at(key)
        assert move == ref.spoiler_move_at(key), (spec, key)
        holds = v.condition_at(key)
        assert holds == ref.condition_at(key), (spec, key)
        if holds and move is not None:
            todo += [child for _, child in v.children(key, move)]
    if not v.duplicator_wins:
        assert serialize_formula(distinguish(spec, a, b, v)) == \
            serialize_formula(distinguish(spec, a, b, ref))
    return v


def test_pebble_attractor_matches_sweep_on_small_digraphs():
    graphs = all_digraphs(2)
    for a, b in itertools.product(graphs, graphs):
        for mode in MODES:
            for k in (1, 2, 3):
                assert_matches_reference(GameSpec("pebble", mode, k), a, b)


def test_pebble_attractor_matches_sweep_on_size_three_sample():
    graphs = [g for g in all_digraphs(3) if g.size == 3]
    rnd = random.Random(41)
    for _ in range(30):
        a, b = rnd.choice(graphs), rnd.choice(graphs)
        spec = GameSpec("pebble", rnd.choice(MODES), rnd.choice((1, 2, 3)))
        assert_matches_reference(spec, a, b)


def test_pebble_attractor_matches_sweep_at_four_pebbles():
    graphs = all_digraphs(2)
    rnd = random.Random(43)
    for _ in range(30):
        a, b = rnd.choice(graphs), rnd.choice(graphs)
        for mode in MODES:
            assert_matches_reference(GameSpec("pebble", mode, 4), a, b)


def test_pebble_attractor_matches_sweep_on_mixed_arities():
    # without a binary relation only the floor of 2 pairs on the condition's
    # locality catches a non-function or a non-injection
    urnd = random.Random(61)
    unary = [tuple(random_mixed(urnd, urnd.randint(0, 3), name, 0.5, UNARY) for name in "ab")
             for _ in range(40)]
    rnd = random.Random(47)
    for a, b in mixed_pairs(53, 150) + unary:
        spec = GameSpec("pebble", rnd.choice(MODES), rnd.choice((1, 2, 3)))
        assert_matches_reference(spec, a, b)


def test_pebble_spoiler_move_matches_reference_at_every_visited_position():
    rnd = random.Random(67)
    seen = {"spoiler wins": 0, "violated root": 0, "empty side": 0}
    for a, b in mixed_pairs(71, 120):
        spec = GameSpec("pebble", rnd.choice(MODES), rnd.choice((1, 2, 3)))
        v = assert_matches_reference(spec, a, b)
        seen["spoiler wins"] += not v.duplicator_wins
        seen["violated root"] += v.stage.get(frozenset()) == 0
        seen["empty side"] += (a.size == 0) != (b.size == 0)
    assert min(seen.values()) >= 5, seen


def random_digraph(rnd, n, name):
    """A digraph shaped like the benchmark's pebble-scale ones: round(0.4 n^2)
    edges, round(0.4 n) of them loops."""
    elems = [f"{name}{i}" for i in range(n)]
    loops = round(0.4 * n)
    edges = rnd.sample([(x, x) for x in elems], loops)
    edges += rnd.sample([(x, y) for x in elems for y in elems if x != y],
                        round(0.4 * n * n) - loops)
    return Structure.make(DIGRAPH_VOCAB, elems, {"E": edges}, name=name)


def test_pebble_attractor_matches_sweep_at_benchmark_sizes():
    rnd = random.Random(59)
    for n, k in ((4, 3), (5, 2)):
        for mode in MODES:
            for _ in range(2):
                a, b = random_digraph(rnd, n, "a"), random_digraph(rnd, n, "b")
                assert_matches_reference(GameSpec("pebble", mode, k), a, b)


def test_pebble_spoiler_move_matches_reference_at_every_placement():
    # includes placements that fail the condition where every move has a
    # response of stage >= 1, so the lowest worst stage decides among them
    rnd = random.Random(73)
    for n, k in ((3, 2), (3, 3), (4, 2)):
        for mode in MODES:
            a, b = random_digraph(rnd, n, "a"), random_digraph(rnd, n, "b")
            spec = GameSpec("pebble", mode, k)
            v = solve(spec, a, b)
            ref = ReferenceVerdict(spec, a, b, reference_pebble(spec, a, b))
            pairs = [(x, y) for x in a.universe for y in b.universe]
            for combo in itertools.product([None, *pairs], repeat=k):
                key = frozenset((p, pair) for p, pair in enumerate(combo, 1) if pair), None
                assert v.spoiler_move_at(key) == ref.spoiler_move_at(key), (spec, key)


def test_pebble_attractor_empty_universes(edge):
    empty = Structure.make(edge.vocab, [], {})
    for mode in MODES:
        for k in (1, 2):
            spec = GameSpec("pebble", mode, k)
            # Spoiler pebbles an element of A that has no answer in B
            assert assert_matches_reference(spec, edge, empty).stage[frozenset()] == 1
            assert assert_matches_reference(spec, empty, empty).duplicator_wins
            v = assert_matches_reference(spec, empty, edge)
            if spec.forth_only:
                # Spoiler has no move at all
                assert v.duplicator_wins and not v.stage
            else:
                assert v.stage[frozenset()] == 1


def test_pebble_stage_table_lookups_are_read_only(cliques):
    v = solve(GameSpec("pebble", "full", 2), cliques[2], cliques[3])
    assert v.duplicator_wins and v.stage
    alive = frozenset({(1, ("c0", "c1"))})
    dead = frozenset({(1, ("c0", "c1")), (2, ("c1", "c1"))})
    assert v.stage.get(alive) is None and v.stage.get(alive, -1) == -1
    assert v.stage.death_stage(alive) == -1
    with pytest.raises(KeyError):
        v.stage[alive]
    assert v.stage[dead] == 0 and v.stage.get(dead) == 0
    with pytest.raises(TypeError):
        v.stage[dead] = 1
    for bad in (frozenset({(3, ("c0", "c1"))}), frozenset({(1, ("c0", "c9"))}),
                frozenset({(1, ("c0", "c1")), (1, ("c1", "c0"))})):
        assert v.stage.get(bad, "absent") == "absent"
        with pytest.raises(KeyError):
            v.stage[bad]


def assert_pair_sets(spec, a, b, placements=True):
    """The listed pair sets are exactly those of at most k pairs that satisfy
    the condition, and (``placements``) a placement's stage is its pair
    set's listed stage, or 0 when the set is not listed."""
    pairs = [(x, y) for x in a.universe for y in b.universe]
    v = solve(spec, a, b)
    listed = v.stage.pair_sets()
    kept = {frozenset(chosen) for j in range(spec.k + 1)
            for chosen in itertools.combinations(pairs, j)
            if pairs_condition(chosen, a, b, spec.iso_condition)}
    assert set(listed) == kept, (spec, serialize_structure(a), serialize_structure(b))
    for combo in itertools.product([None, *pairs], repeat=spec.k if placements else 0):
        placement = frozenset((p, pair) for p, pair in enumerate(combo, 1) if pair)
        expected = listed.get(frozenset(pair for _, pair in placement), 0)
        assert v.stage.death_stage(placement) == expected, (spec, placement)


def test_pebble_stage_table_by_pair_set():
    graphs = all_digraphs(2)
    rnd = random.Random(79)
    for _ in range(40):
        a, b = rnd.choice(graphs), rnd.choice(graphs)
        for mode in MODES:
            for k in (1, 2, 3):
                assert_pair_sets(GameSpec("pebble", mode, k), a, b)


def test_pebble_pair_sets_on_mixed_arities_and_benchmark_sizes():
    # the pair types decide the sets of up to two pairs; with a ternary
    # relation ``pairs_condition`` still decides those of three, and the
    # unary-only vocabulary has no relation to catch a non-function
    rnd = random.Random(83)
    urnd = random.Random(89)
    unary = [tuple(random_mixed(urnd, urnd.randint(0, 3), name, 0.5, UNARY) for name in "ab")
             for _ in range(40)]
    for a, b in mixed_pairs(97, 120) + unary:
        for mode in MODES:
            assert_pair_sets(GameSpec("pebble", mode, rnd.choice((1, 2, 3))), a, b)
    # four pairs over four elements of A: a set whose three-pair subsets are
    # not all kept must be refused although its pairs are compatible
    for a, b in mixed_pairs(109, 30, largest=4):
        for mode in MODES:
            assert_pair_sets(GameSpec("pebble", mode, 4), a, b, placements=False)
    for _ in range(3):
        a, b = random_digraph(rnd, 4, "a"), random_digraph(rnd, 4, "b")
        for mode in MODES:
            assert_pair_sets(GameSpec("pebble", mode, 3), a, b)


def test_pebble_pair_sets_past_the_pair_type_arity():
    """A relation of arity above ``_TYPE_ARITY`` gets no bits in the pair
    types, so ``pairs_condition`` decides every set up to the arity; at
    arity 40 the types would need 2^40 bits per pair."""
    rnd = random.Random(101)
    for arity in (9, 40):
        vocab = Vocabulary((("U", 1), ("R", arity)))
        for _ in range(12):
            side = []
            for name in "ab":
                elems = [f"{name}{i}" for i in range(rnd.randint(1, 3))]
                # tuples over one, two and three elements
                tuples = [tuple(rnd.choice(elems[:rnd.randint(1, len(elems))]) for _ in range(arity))
                          for _ in range(rnd.randint(0, 4))]
                units = [(e,) for e in elems if rnd.random() < 0.5]
                side.append(Structure.make(vocab, elems, {"R": tuples, "U": units}, name=name))
            for mode in MODES:
                assert_pair_sets(GameSpec("pebble", mode, rnd.choice((1, 2, 3))), *side)


def reference_violated_literal(bindings, a, b, iso):
    """The literal scan ``games.violated_literal`` replaced: tuple tests in
    the same order (functionality, injectivity, then per relation the
    preserved and reflected atoms over ``itertools.product``)."""
    items = list(bindings)
    for (i, ai, bi), (j, aj, bj) in itertools.combinations(items, 2):
        if ai == aj and bi != bj:
            return Eq(i, j)
    if iso:
        for (i, ai, bi), (j, aj, bj) in itertools.combinations(items, 2):
            if ai != aj and bi == bj:
                return NegEq(i, j)
    for rel, arity in a.vocab.relations:
        for combo in itertools.product(items, repeat=arity):
            idx = tuple(i for i, _, _ in combo)
            ta = tuple(x for _, x, _ in combo)
            tb = tuple(y for _, _, y in combo)
            if ta in a.interp[rel] and tb not in b.interp[rel]:
                return Atom(rel, idx)
            if iso and ta not in a.interp[rel] and tb in b.interp[rel]:
                return NegAtom(rel, idx)
    return None


def test_violated_literal_matches_the_tuple_scan():
    """Over 0-ary to ternary relations, and past ``_TYPE_ARITY`` where a
    relation has no bits and the offsets of the later ones must skip it."""
    rnd = random.Random(113)
    wide = Vocabulary((("U", 1), ("W", 9), ("E", 2)))
    pairs = mixed_pairs(127, 150)
    pairs += [tuple(random_mixed(rnd, rnd.randint(1, 3), name, 0.5, wide) for name in "ab")
              for _ in range(60)]
    checked = 0
    for a, b in pairs:
        if not a.universe or not b.universe:
            continue
        for _ in range(8):
            bindings = [(v, rnd.choice(a.universe), rnd.choice(b.universe))
                        for v in rnd.sample(range(1, 6), rnd.randint(0, 4))]
            for iso in (False, True):
                if pairs_condition([(x, y) for _, x, y in bindings], a, b, iso):
                    continue
                assert violated_literal(bindings, a, b, iso) == \
                    reference_violated_literal(bindings, a, b, iso), (a, b, bindings, iso)
                checked += 1
    assert checked > 1000


def test_violated_literal_scans_sparse_relations_in_product_order():
    """Relations that hold far fewer tuples than the bindings' product, over
    arities 0, 3 and 9: the literal found by scanning their tuples is the
    first one of the product scan."""
    rnd = random.Random(131)
    vocab = Vocabulary((("Z", 0), ("T", 3), ("W", 9)))

    def sparse(name):
        elems = [f"{name}{i}" for i in range(rnd.randint(1, 3))]
        interp = {rel: [tuple(rnd.choice(elems) for _ in range(arity))
                        for _ in range(rnd.randint(0, 3))]
                  for rel, arity in vocab.relations}
        return Structure.make(vocab, elems, interp, name=name)

    checked = 0
    for _ in range(400):
        a, b = sparse("a"), sparse("b")
        bindings = [(v, rnd.choice(a.universe), rnd.choice(b.universe))
                    for v in rnd.sample(range(1, 6), rnd.randint(1, 3))]
        for iso in (False, True):
            if pairs_condition([(x, y) for _, x, y in bindings], a, b, iso):
                continue
            assert violated_literal(bindings, a, b, iso) == \
                reference_violated_literal(bindings, a, b, iso), (a, b, bindings, iso)
            checked += 1
    assert checked > 300


def test_violated_literal_on_a_wide_relation():
    """2^24 tuples of bindings, of which the relations hold one, the last
    but 2^23 in product order (``tests/test_fuzz.py`` takes arity 40
    through the command line)."""
    vocab = Vocabulary((("R", 24),))
    a = Structure.make(vocab, ["a", "b"], {"R": [("b",) + ("a",) * 23]}, name="A")
    b = Structure.make(vocab, ["c", "d"], {}, name="B")
    start = time.perf_counter()
    for iso in (False, True):
        assert violated_literal([(1, "a", "c"), (2, "b", "d")], a, b, iso) == \
            Atom("R", (2,) + (1,) * 23)
    assert violated_literal([(1, "c", "a"), (2, "d", "b")], b, a, True) == \
        NegAtom("R", (2,) + (1,) * 23)
    assert time.perf_counter() - start < 1


def test_pebble_pair_types_are_built_once_per_structure():
    rnd = random.Random(103)
    a, b = random_digraph(rnd, 4, "a"), random_digraph(rnd, 4, "b")
    solve(GameSpec("pebble", "full", 2), a, b)
    types = a.memo["pair types"], b.memo["pair types"]
    solve(GameSpec("pebble", "positive", 3), a, b)
    solve(GameSpec("pebble", "ep", 2), b, a)
    assert a.memo["pair types"] is types[0] and b.memo["pair types"] is types[1]


def test_pebble_clique_calibration_at_four_pebbles():
    start = time.perf_counter()
    assert solve(GameSpec("pebble", "full", 4), clique(4), clique(5)).duplicator_wins
    v = solve(GameSpec("pebble", "full", 4), clique(3), clique(4))
    # and one pebble more: 4,084,101 placements, which the cap refused when
    # it counted them
    w = solve(GameSpec("pebble", "full", 5), clique(4), clique(5))
    assert time.perf_counter() - start < 2
    assert not v.duplicator_wins
    assert v.stage[frozenset()] >= 1
    assert not w.duplicator_wins
    assert w.stage[frozenset()] == 5


def test_pebble_many_pebbles_on_small_cliques():
    """Past |A||B| pebbles no new pair set arises, so the attractor's work
    stops growing with k, and Spoiler's moves are yielded one at a time;
    only the count of dead placements, an integer of about k digits, still
    grows with k."""
    start = time.perf_counter()
    for k in (1000, 20000):
        v = solve(GameSpec("pebble", "full", k), clique(1), clique(2))
        assert not v.duplicator_wins and v.stage[frozenset()] == 2
        assert v.stage  # more dead placements than fit an index
        v = solve(GameSpec("pebble", "full", k), clique(2), clique(3))
        assert not v.duplicator_wins and v.stage[frozenset()] == 3
        assert solve(GameSpec("pebble", "full", k), clique(3), clique(3)).duplicator_wins
    assert time.perf_counter() - start < 2


def test_pebble_stage_table_truth_does_not_count_placements():
    """``bool`` compares the alive pair sets with the sets of at most k
    pairs; counting the dead placements (about k digits) took 0.39 s here."""
    v = solve(GameSpec("pebble", "full", 4 * 10 ** 6), clique(1), clique(2))
    start = time.perf_counter()
    assert v.stage
    assert time.perf_counter() - start < 0.05
    pool = small_structures(2)
    rnd = random.Random(61)
    for _ in range(40):
        a, b = rnd.choice(pool), rnd.choice(pool)
        for mode, k in itertools.product(("full", "ep"), (1, 2, 5)):
            v = solve(GameSpec("pebble", mode, k), a, b)
            assert "_index" not in vars(v.stage)  # built on the first lookup
            assert bool(v.stage) == (len(v.stage) > 0)
    assert not solve(GameSpec("pebble", "full", 3), clique(1), clique(1)).stage  # all alive


def test_pebble_move_list_does_not_grow_with_k():
    # the k x (|A| + |B|) moves were once built as a list before any cap ran:
    # a 58 MB tracemalloc peak and 1.13 s here
    spec = GameSpec("pebble", "full", 200_000)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        phi = distinguish(spec, clique(1), clique(2), solve(spec, clique(1), clique(2)))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert serialize_formula(phi) == "E x1. A x2. x1=x2"
    assert peak < 5 * 2 ** 20 and elapsed < 0.5, (peak, elapsed)


def test_pebble_replay_tests_moves_without_listing_them():
    # each round once built the k x (|A| + |B|) legal moves: 4.5 s and a
    # 237 MB tracemalloc peak for these two moves
    spec = GameSpec("pebble", "full", 10 ** 6)
    a, b = clique(1), clique(2)
    v = solve(spec, a, b)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        t = replay(spec, a, b, v, [(1, "A", "c0"), (10 ** 6, "B", "c1")])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r["move"] for r in t.rounds] == [(1, "A", "c0"), (10 ** 6, "B", "c1")]
    assert t.winner == "Spoiler"
    assert peak < 2 ** 20 and elapsed < 1, (peak, elapsed)
    for move in [(0, "A", "c0"), (10 ** 6 + 1, "A", "c0"), (1, "A", "c1"), (1, "C", "c0"),
                 [1, "A", "c0"], (1, "A"), "c0"]:
        assert not v.is_legal(v.root, move)
        with pytest.raises(IllegalMoveError, match="round 2"):
            replay(spec, a, b, v, [(2, "A", "c0"), move])


def test_pebble_solve_does_not_count_dead_placements_up_front():
    # the count, (|A||B| + 1)^k less the alive placements, took 0.65 s here
    start = time.perf_counter()
    v = solve(GameSpec("pebble", "full", 4 * 10 ** 6), clique(1), clique(2))
    elapsed = time.perf_counter() - start
    assert not v.duplicator_wins and v.stage[frozenset()] == 2
    assert elapsed < 0.1, elapsed


# ---------------------------------------------------------------------------
# The condition bytes against the condition, placement by placement

def sparse_wide(rnd, vocab, name):
    """Up to three elements, up to four tuples per relation over one, two
    or three of them."""
    elems = [f"{name}{i}" for i in range(rnd.randint(1, 3))]
    interp = {rel: [tuple(rnd.choice(elems[:rnd.randint(1, len(elems))]) for _ in range(arity))
                    for _ in range(rnd.randint(0, 4))]
              for rel, arity in vocab.relations}
    return Structure.make(vocab, elems, interp, name=name)


def test_pairs_condition_matches_reference_on_mixed_arities():
    """Over 0-ary to ternary relations, a dense W/9 past ``_TYPE_ARITY`` and
    a sparse R/40."""
    rnd = random.Random(17)
    wide = Vocabulary((("U", 1), ("W", 9), ("E", 2)))
    pairs = mixed_pairs(19, 150)
    pairs += [tuple(random_mixed(rnd, rnd.randint(1, 2), name, 0.5, wide) for name in "ab")
              for _ in range(40)]
    forty = Vocabulary((("U", 1), ("R", 40)))
    pairs += [(sparse_wide(rnd, forty, "a"), sparse_wide(rnd, forty, "b")) for _ in range(40)]
    outcomes = set()
    for a, b in pairs:
        for _ in range(20):
            placed = {(rnd.choice(a.universe), rnd.choice(b.universe))
                      for _ in range(rnd.randint(0, 4))} if a.size and b.size else set()
            for iso in (True, False):
                holds = pairs_condition(placed, a, b, iso)
                assert holds == _partial_map_ok(placed, a, b, iso), (a, b, placed, iso)
                outcomes.add((a.vocab, holds))
    assert len(outcomes) == 6  # each vocabulary both ways
    a = Structure.make(MIXED, ["a"], {}, name="A")
    b = Structure.make(MIXED, ["c"], {}, name="B")
    for pair in (("zz", "c"), ("a", "zz")):
        with pytest.raises(StructureError, match="'zz'"):
            pairs_condition({("a", "c"), pair}, a, b, True)


def test_pairs_condition_rejects_a_vocabulary_mismatch():
    """B's pair types are not read at A's offsets: like ``solve``, the
    condition refuses structures over different vocabularies."""
    a = Structure.make(DIGRAPH_VOCAB, ["a"], {"E": [("a", "a")]}, name="A")
    b = Structure.make(Vocabulary((("U", 1),)), ["b"], {"U": [("b",)]}, name="B")
    for iso in (True, False):
        with pytest.raises(StructureError, match="vocabulary mismatch"):
            pairs_condition({("a", "b")}, a, b, iso)
    with pytest.raises(StructureError, match="vocabulary mismatch"):
        solve(GameSpec("ef", "full", 1), a, b)


def test_stage_zero_iff_pairs_condition_fails_per_placement():
    """A placement has stage 0 iff ``pairs_condition`` fails on its pairs, for
    every placement id, k <= 4 and every mode."""
    rnd = random.Random(29)
    checked = 0
    for a, b in mixed_pairs(31, 80):
        k = rnd.choice((1, 2, 3, 4, 4))
        pairs = [(x, y) for x in a.universe for y in b.universe]
        n = len(pairs) + 1
        for mode in MODES:
            spec = GameSpec("pebble", mode, k)
            v = solve(spec, a, b)
            for x in range(n ** k):
                placement = set()
                for p in range(1, k + 1):
                    x, d = divmod(x, n)     # digit d of slot p
                    if d:
                        placement.add((p, pairs[d - 1]))
                fails = not pairs_condition({pair for _, pair in placement}, a, b,
                                            spec.iso_condition)
                assert (v.stage.get(frozenset(placement)) == 0) == fails, \
                    (serialize_structure(a), serialize_structure(b), mode, k, placement)
                checked += 1
    assert checked > 400_000
