import dataclasses
import itertools
import random

import pytest

from fmgames import (CoalgebraError, CoalgebraSizeError, ForestCoalgebra,
                     Structure, StructureError, Vocabulary, build_cofree, build_ef, build_modal,
                     build_pebble_truncated, check_comonad_laws, coextend,
                     counit, counit_map, expand_i, forest_shape, iter_homomorphisms,
                     parse_coalgebra, serialize_coalgebra, validate_coalgebra)

from fmgames.coalgebras import branch_tuples, pull_back
from fmgames.corpus import all_pointed_kripke
from fmgames.oracle import fo_rank_profile, ml_depth_profile
from fmgames.structures import gaifman

from conftest import E2, kripke, reference_branch_compat, reference_pull_back


def test_build_ef_loop(loop):
    c = build_ef(loop, 2)
    assert c.universe == (("u",), ("u", "u"))
    assert c.carrier.interp["E"] == frozenset(
        itertools.product(c.universe, repeat=2))
    assert validate_coalgebra(c) == []


def test_build_ef_edge_k1_no_tuples(edge):
    c = build_ef(edge, 1)
    assert set(c.universe) == {("v",), ("w",)}
    assert c.carrier.interp["E"] == frozenset()  # distinct singletons incomparable


def test_build_ef_with_i_reflexive(edge):
    c = build_ef(edge, 2, with_i=True)
    for s in c.universe:
        assert (s, s) in c.carrier.interp["I"]
    assert validate_coalgebra(c) == []


def test_build_ef_matches_expandi_build(edge):
    direct = build_ef(edge, 2, with_i=True)
    via_expansion = build_ef(expand_i(edge), 2)
    assert direct.carrier == via_expansion.carrier


def test_build_modal_chain(chain_ab):
    c = build_modal(chain_ab, 2)
    assert len(c.universe) == 2  # one path of each length 0,1
    assert validate_coalgebra(c) == []


def test_build_modal_loop_unravels():
    la = kripke(["a"], [("a", "a")], [], "a")
    c = build_modal(la, 2)
    assert len(c.universe) == 3  # a, a->a, a->a->a
    assert len(c.chain(max(c.universe, key=len))) - 1 == 2


def test_build_modal_pointless_successor_free():
    single = kripke(["a"], [], ["a"], "a")
    assert len(build_modal(single, 5).universe) == 1


TWO_BY_TWO = Vocabulary((("R", 2), ("S", 2), ("P", 1), ("Q", 1)))


def _random_pointed_model(rnd: random.Random, name: str) -> Structure:
    """4-5 worlds over two binary and two unary relations, pointed at w0."""
    worlds = [f"w{i}" for i in range(rnd.choice((4, 5)))]
    interp = {rel: [(u, v) for u in worlds for v in worlds if rnd.random() < 0.3]
              for rel in ("R", "S")}
    interp.update({rel: [(w,) for w in worlds if rnd.random() < 0.5] for rel in ("P", "Q")})
    return Structure.make(TWO_BY_TWO, worlds, interp, point="w0", name=name)


def test_build_modal_files_the_generic_indexes():
    # the walk files children, branches and signatures; the properties
    # derived from the parent map and the carrier are the reference
    rnd = random.Random(2025)
    models = [(a, k) for a in all_pointed_kripke(3) for k in range(4)]
    models += [(_random_pointed_model(rnd, f"G{i}"), rnd.randint(0, 3)) for i in range(200)]
    models += [(kripke(["a", "b"], [("b", "a")], ["a"], "a"), 3),  # no successors
               (kripke(["a", "b"], [("a", "a"), ("a", "b")], ["b"], "a"), 3)]  # a self-loop
    for a, k in models:
        c = build_modal(a, k)
        reference = ForestCoalgebra(c.carrier, c.parent, c.k_bound, "modal")
        assert c.children == reference.children, (a.name, k)
        assert c._branches == reference._branches, (a.name, k)
        assert c.signatures == reference.signatures, (a.name, k)


def test_build_modal_builds_a_new_unravelling_per_call(chain_ab):
    # not memoized: a memo would keep an unravelling per model and depth
    first, second = build_modal(chain_ab, 2), build_modal(chain_ab, 2)
    assert first is not second
    assert not any(isinstance(v, ForestCoalgebra) for v in chain_ab.memo.values())


@pytest.mark.parametrize("build, error", [
    (build_modal, CoalgebraError),
    (lambda a, k: ml_depth_profile(a, a, k, "full"), ValueError),
    (lambda a, k: fo_rank_profile(a, a, k, "full"), ValueError),
], ids=["build_modal", "ml_depth_profile", "fo_rank_profile"])
def test_negative_depth_or_rank_is_refused(chain_ab, build, error):
    with pytest.raises(error, match="k must be >= 0, got -1"):
        build(chain_ab, -1)
    assert build(chain_ab, 0)  # k = 0 stays valid


def test_build_pebble_truncated_example(loop):
    c = build_pebble_truncated(loop, 1, 2)
    u1, u2 = ((1, "u"),), ((1, "u"), (1, "u"))
    assert set(c.universe) == {u1, u2}
    # reusing pebble 1 in the suffix kills the mixed pair, keeps the reflexive ones
    assert c.carrier.interp["E"] == frozenset({(u1, u1), (u2, u2)})
    assert c.pebble_fn[u2] == 1
    assert validate_coalgebra(c) == []


def test_pebble_universe_count(edge):
    c = build_pebble_truncated(edge, 2, 1)
    assert len(c.universe) == 2 * 2  # k * |A| at depth 1


def test_size_cap(loop):
    with pytest.raises(CoalgebraSizeError):
        build_ef(loop, 30, cap=10)


def test_build_ef_is_memoized_per_structure(edge):
    c = build_ef(edge, 2, with_i=True)
    assert build_ef(edge, 2, with_i=True) is c
    assert build_cofree(edge, "ef", 2, with_i=True) is c
    plain = build_ef(edge, 2)
    assert plain is not c and "I" not in plain.carrier.vocab.arities
    assert build_ef(edge, 2) is plain
    # an equal but distinct structure builds its own, identical coalgebra
    twin = Structure(edge.vocab, edge.universe, dict(edge.interp), edge.point, edge.name)
    assert twin == edge
    other = build_ef(twin, 2, with_i=True)
    assert other is not c
    assert serialize_coalgebra(other) == serialize_coalgebra(c)


def test_build_ef_memo_keeps_carrier_names(edge):
    renamed = dataclasses.replace(edge, name="Other")
    assert build_ef(edge, 1).carrier.name == f"F1({edge.name})"
    assert build_ef(renamed, 1).carrier.name == "F1(Other)"
    assert build_ef(edge, 1).carrier.name == f"F1({edge.name})"


def test_size_cap_on_a_memo_hit(loop):
    c = build_ef(loop, 3, with_i=True)
    assert len(c.universe) == 3
    with pytest.raises(CoalgebraSizeError):
        build_ef(loop, 3, with_i=True, cap=2)
    assert build_ef(loop, 3, with_i=True, cap=3) is c
    # a second I is refused before the size is looked at, as without the memo
    with pytest.raises(StructureError):
        build_ef(expand_i(loop), 30, with_i=True, cap=10)


def test_counit(loop, edge):
    c = build_ef(loop, 2)
    assert counit(c, ("u", "u")) == "u"
    m = build_modal(kripke(["a", "b"], [("a", "b")], [], "a"), 2)
    long_path = max(m.universe, key=len)
    assert counit(m, long_path) == "b"
    p = build_pebble_truncated(edge, 2, 2)
    assert counit(p, ((1, "v"), (2, "w"))) == "w"


def test_coextension_laws_small(edge, loop):
    for base in (edge, loop, expand_i(edge)):
        c = build_ef(base, 2)
        eps = counit_map(c)
        # f ranges over a couple of homomorphisms carrier -> base
        fs = [eps]
        for h in itertools.islice(iter_homomorphisms(base, base), 2):
            fs.append({s: h[eps[s]] for s in c.universe})
        for f in fs:
            assert check_comonad_laws(c, base, f, base, eps, base) == []


def test_comonad_laws_exhaustive_generated_homs():
    # every search-generated hom on a small pair, all three laws
    a = Structure.make(Vocabulary((("E", 2),)), ["x", "y"], {"E": [("x", "y")]})
    b = Structure.make(Vocabulary((("E", 2),)), ["u"], {"E": [("u", "u")]})
    ca, cb = build_ef(a, 2), build_ef(b, 2)
    eps_b = counit_map(cb)
    homs = list(itertools.islice(iter_homomorphisms(ca.carrier, b), 4))
    assert homs
    for f in homs:
        for g in (eps_b,):
            assert check_comonad_laws(ca, a, f, b, g, b) == []


def test_validate_detects_branch_violation(edge):
    # two roots that are Gaifman-adjacent
    c = ForestCoalgebra(edge, {}, 1, "ef")
    codes = {v.code for v in validate_coalgebra(c)}
    assert "branch-compat" in codes


def test_validate_detects_modal_double_relation():
    vocab = Vocabulary((("R", 2), ("S", 2), ("P", 1)))
    carrier = Structure.make(vocab, ["a", "b"], {"R": [("a", "b")], "S": [("a", "b")]},
                             point="a")
    c = ForestCoalgebra(carrier, {"b": "a"}, 2, "modal")
    codes = {v.code for v in validate_coalgebra(c)}
    assert "modal-cover" in codes


def test_validate_detects_pebble_reuse(loop):
    c = build_pebble_truncated(loop, 2, 2)
    bad = ForestCoalgebra(c.carrier, c.parent, c.k_bound, "pebble",
                          {e: 1 for e in c.universe})
    codes = {v.code for v in validate_coalgebra(bad)}
    assert "pebble-reuse" in codes


def test_validate_reports_gaifman_violations_in_pair_order():
    """Violations over Gaifman pairs come sorted by the reprs of the pair,
    each pair's pebble-reuse witnesses in chain order, as when every pair
    was sorted before testing."""
    c = build_pebble_truncated(Structure.make(E2, ["u", "v"], {"E": [("u", "v"), ("v", "v")]},
                                              name="uv"), 2, 3)
    # edges between branches, on top of the carrier's own
    cross = {(x, y) for x, y in itertools.combinations(c.universe[::3], 2)
             if not c.comparable(x, y)}
    carrier = Structure.make(E2, c.carrier.universe, {"E": c.carrier.interp["E"] | cross})
    bad = ForestCoalgebra(carrier, c.parent, c.k_bound, "pebble", {e: 1 for e in c.universe})
    expected = []
    pairs = sorted(gaifman(carrier), key=lambda p: (repr(p[0]), repr(p[1])))
    for x, y in pairs:
        if not bad.comparable(x, y):
            expected.append(("branch-compat", (x, y)))
    for x, y in pairs:
        chain = bad.chain(y)
        if x in chain and x != y:
            expected += [("pebble-reuse", (x, mid, y)) for mid in chain[chain.index(x) + 1:]
                         if bad.pebble_fn[x] == bad.pebble_fn[mid]]
    got = [(v.code, v.witness) for v in validate_coalgebra(bad)]
    assert got == expected
    assert {"branch-compat", "pebble-reuse"} <= {code for code, _ in got}
    assert len(got) > 10


def test_coalgebra_file_roundtrip(edge, loop):
    for c in (build_ef(edge, 2, with_i=True), build_pebble_truncated(loop, 2, 2),
              build_modal(kripke(["a", "b"], [("a", "b")], ["b"], "a"), 2)):
        text = serialize_coalgebra(c)
        c2 = parse_coalgebra(text)
        assert serialize_coalgebra(c2) == text
        assert c2.kind == c.kind
        assert validate_coalgebra(c2) == []


def test_coextension_into_checked_target(edge, loop):
    c = build_ef(edge, 2)
    h = next(iter_homomorphisms(edge, loop))
    f = {s: h[counit(c, s)] for s in c.universe}
    f_star, target = coextend(c, f, loop)
    assert set(f_star.values()) <= set(target.universe)
    with pytest.raises(CoalgebraError):
        coextend(c, {s: "v" for s in c.universe}, edge)  # not a homomorphism


def test_counit_is_verified_homomorphism(edge, loop, chain_ab):
    from fmgames import is_homomorphism
    for base, c in ((edge, build_ef(edge, 2)),
                    (expand_i(loop), build_ef(loop, 2, with_i=True)),
                    (chain_ab, build_modal(chain_ab, 2)),
                    (edge, build_pebble_truncated(edge, 2, 2))):
        assert is_homomorphism(counit_map(c), c.carrier, base)


def _chain_coalgebra(depth: int) -> ForestCoalgebra:
    elems = [f"n{i}" for i in range(depth)]
    carrier = Structure.make(Vocabulary((("E", 2),)), elems, {})
    return ForestCoalgebra(carrier, dict(zip(elems[1:], elems)), depth)


def test_deep_chain_height_and_shape():
    deep = _chain_coalgebra(3000)
    assert len(deep.chain("n2999")) - 1 == 2999
    assert validate_coalgebra(deep) == []
    shape = forest_shape(deep.children, deep.roots)
    assert shape == "(" * 3000 + ")" * 3000
    assert shape == forest_shape(deep.children, deep.roots)


def test_forest_shape_ignores_child_order():
    children = {"r": ["x", "y"], "x": ["z"], "y": [], "z": []}
    swapped = {**children, "r": ["y", "x"]}
    shape = forest_shape(children, ["r"])
    assert shape == forest_shape(swapped, ["r"])
    assert shape != forest_shape(children, ["x", "y"])


@pytest.mark.parametrize("text", [
    "vocab E/2\nstructure C\nelems a b\nforest\nparent a b\nparent b a\n",
    "vocab E/2\nstructure C\nelems a\nforest\nparent a a\n",
])
def test_parse_coalgebra_with_parent_cycle_reports_it(text):
    c = parse_coalgebra(text)
    assert [v.code for v in validate_coalgebra(c)] == ["forest-cycle"]
    with pytest.raises(CoalgebraError, match="cycle"):
        c.chain("a")


@pytest.mark.parametrize("text", [
    "vocab E/2\nstructure C\nelems a b\nforest\nparent a b\nparent b a\n",
    "vocab E/2\nstructure C\nelems a\nforest\nparent a a\n",
])
def test_branch_walks_raise_on_parent_cycle(text):
    c = parse_coalgebra(text)
    for walk in (lambda: c.chain("a"), lambda: c.comparable("a", "a")):
        with pytest.raises(CoalgebraError, match="cycle"):
            walk()


def test_branch_tuples_use_the_last_element():
    assert list(branch_tuples(("r", "s"), 2)) == [("r", "s"), ("s", "r"), ("s", "s")]
    assert list(branch_tuples(("r",), 0)) == []


def test_pull_back_beyond_the_cap_is_refused_before_enumeration():
    """2^17 - 1 tuples through the last element of a 2-element branch, past
    the carrier cap of 100,000 (``tests/test_fuzz.py`` takes arity 40
    through the command line)."""
    r17 = Vocabulary((("R", 17),))
    loop = Structure.make(r17, ["a"], {"R": [("a",) * 17]}, name="A")
    with pytest.raises(CoalgebraSizeError, match="131071 17-tuples"):
        pull_back([("r",), ("r", "s")], lambda e: "a", loop)
    assert pull_back([("r",)], lambda e: "a", loop) == {"R": {("r",) * 17}}
    assert build_ef(loop, 1).carrier.interp["R"] == {(("a",),) * 17}
    with pytest.raises(CoalgebraSizeError, match="cap 100000"):
        build_ef(loop, 2)
    # the builder's own cap reaches the branch bound, both ways
    assert len(build_ef(loop, 2, cap=200_000).carrier.interp["R"]) == 2 ** 17
    with pytest.raises(CoalgebraSizeError, match="tuples through its last one, cap 2"):
        pull_back([("r",), ("r", "s")], lambda e: "a", Structure.make(
            Vocabulary((("R", 2),)), ["a"], {"R": [("a", "a")]}, name="A"), cap=2)


def test_pull_back_is_condition_e(edge):
    c = build_ef(edge, 2)
    chains = [c.chain(s) for s in c.universe]
    assert pull_back(chains, lambda s: s[-1], edge) == c.carrier.interp


ARITIES_0_TO_3 = Vocabulary((("Z", 0), ("P", 1), ("E", 2), ("T", 3)))


def _random_structure(rnd, vocab, size, density=0.4):
    elems = [f"t{i}" for i in range(size)]
    interp = {rel: [t for t in itertools.product(elems, repeat=arity) if rnd.random() < density]
              for rel, arity in vocab.relations}
    return Structure.make(vocab, elems, interp, name="T")


def test_pull_back_matches_the_reference_on_random_branches():
    """Random branches of mixed lengths, random images and relations of
    arities 0 to 3: the same relations as mapping every tuple one at a time."""
    rnd = random.Random(2024)
    for _ in range(60):
        target = _random_structure(rnd, ARITIES_0_TO_3, rnd.randint(1, 3))
        elems = list(range(rnd.randint(1, 8)))
        chains = [tuple(rnd.sample(elems, rnd.randint(1, min(4, len(elems)))))
                  for _ in range(rnd.randint(1, 6))]
        image = {e: rnd.choice(target.universe) for e in elems}
        assert (pull_back(chains, image.__getitem__, target)
                == reference_pull_back(chains, image.__getitem__, target))


def test_pull_back_refuses_where_the_reference_does():
    target = _random_structure(random.Random(7), ARITIES_0_TO_3, 2, density=1.0)
    chains = [("r",), ("r", "s", "t")]
    for cap in (0, 3, 7):  # refused on P, E and T in turn
        messages = []
        for scan in (pull_back, reference_pull_back):
            with pytest.raises(CoalgebraSizeError) as err:
                scan(chains, lambda e: "t0", target, cap)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
    assert (pull_back(chains, lambda e: "t0", target, 19)
            == reference_pull_back(chains, lambda e: "t0", target, 19))


def test_branch_compat_matches_the_gaifman_reference():
    """EF and pebble forests with related tuples added within and across
    branches report the Gaifman pairs on different branches in one order."""
    rnd = random.Random(97)
    vocab = Vocabulary((("E", 2), ("T", 3)))
    seen_split = 0
    for _ in range(30):
        base = _random_structure(rnd, vocab, 2, density=0.3)
        if rnd.random() < 0.5:
            c = build_ef(base, 2)
        else:
            c = build_pebble_truncated(base, 2, 2)
        extra = {rel: {tuple(rnd.choice(c.universe) for _ in range(arity))
                       for _ in range(rnd.randint(0, 6))} for rel, arity in vocab.relations}
        carrier = Structure.make(vocab, c.universe,
                                 {rel: c.carrier.interp[rel] | extra[rel] for rel in vocab.names})
        bad = ForestCoalgebra(carrier, c.parent, c.k_bound, c.kind, c.pebble_fn)
        expected = reference_branch_compat(bad)
        got = [v.witness for v in validate_coalgebra(bad) if v.code == "branch-compat"]
        assert got == expected
        seen_split += bool(expected)
    assert seen_split > 10
