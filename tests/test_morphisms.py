import random
import time

import pytest

from fmgames import (CoalgebraError, ForestCoalgebra, GameSpec, Structure, build_ef,
                     build_modal, build_pebble_truncated, check_open_by_squares,
                     check_open_cover_lifting, factor_xo, find_morphism,
                     is_embedding, is_homomorphism, path_tree, is_p_morphism,
                     solve, validate_coalgebra, verify_morphism)
from fmgames.cli import main
from fmgames.corpus import (all_digraphs, all_pointed_kripke, edge_structure,
                            loop_structure)
from fmgames.morphisms import chain_map_ok

from conftest import E2, SIX, kripke, small_structures

KINDS = ("hom", "i_morphism", "pathwise_embedding", "open_pathwise_embedding")


def test_identity_qualifies_for_every_kind(edge):
    c = build_ef(edge, 2, with_i=True)
    for kind in KINDS:
        w = find_morphism(kind, c, c)
        assert w is not None
        assert all(w.mapping[e] == e for e in c.universe) or kind == "hom"


def test_hom_exists_from_coextension(edge, loop):
    fa, fb = build_ef(edge, 2), build_ef(loop, 2)
    w = find_morphism("hom", fa, fb)
    assert w is not None
    assert verify_morphism(w.mapping, fa, fb, "hom") == []


def test_pathwise_none_edge_loop(edge, loop):
    fia, fib = build_ef(edge, 2, with_i=True), build_ef(loop, 2, with_i=True)
    assert find_morphism("i_morphism", fia, fib) is not None
    assert find_morphism("pathwise_embedding", fia, fib) is None


def test_i_morphism_requires_i(edge):
    c = build_ef(edge, 1)
    with pytest.raises(CoalgebraError):
        find_morphism("i_morphism", c, c)


def test_kind_mismatch_rejected(edge):
    a = build_ef(edge, 1)
    b = build_pebble_truncated(edge, 1, 1)
    with pytest.raises(CoalgebraError):
        find_morphism("hom", a, b)


def test_morphism_kind_implications():
    pool = [s for s in small_structures(2) if s.size]
    rnd = random.Random(47)
    for _ in range(25):
        a, b = rnd.choice(pool), rnd.choice(pool)
        x, y = build_ef(a, 2, with_i=True), build_ef(b, 2, with_i=True)
        for stronger, weaker in (("open_pathwise_embedding", "pathwise_embedding"),
                                 ("pathwise_embedding", "hom")):
            w = find_morphism(stronger, x, y)
            if w is not None:
                assert verify_morphism(w.mapping, x, y, weaker) == []


def test_pathwise_search_matches_existential_game():
    pool = [s for s in small_structures(2) if s.size]
    rnd = random.Random(53)
    for _ in range(30):
        a, b = rnd.choice(pool), rnd.choice(pool)
        found = find_morphism("pathwise_embedding",
                              build_ef(a, 2, with_i=True),
                              build_ef(b, 2, with_i=True)) is not None
        game = solve(GameSpec("ef", "existential", 2), a, b).duplicator_wins
        assert found == game


def test_factor_xo_identity_when_already_pathwise(edge):
    c = build_ef(edge, 2, with_i=True)
    w = find_morphism("pathwise_embedding", c, c)
    e_map, x0, g = factor_xo(w.mapping, c, c)
    assert x0.carrier.interp == c.carrier.interp  # no tuples added
    assert g.mapping == w.mapping


def test_factor_xo_adds_relations_along_branches(loop):
    from fmgames import Structure
    chain = Structure.make(loop.vocab, ["x", "y"], {})
    x = build_ef(chain, 2)
    # x has no tuples at all; map everything into F_2(loop)
    y = build_ef(loop, 2)
    f = find_morphism("hom", x, y).mapping
    e_map, x0, g = factor_xo(f, x, y)
    assert x0.carrier.interp["E"]  # pulled back along comparable pairs
    assert validate_coalgebra(x0) == []
    assert verify_morphism(g.mapping, x0, y, "pathwise_embedding") == []
    assert all(e_map[s] == s for s in x.universe)
    assert all(g.mapping[s] == f[s] for s in x.universe)


def test_factor_xo_pebble_kind_stays_valid(edge, loop):
    x = build_pebble_truncated(edge, 2, 2)
    y = build_pebble_truncated(loop, 2, 2)
    f = find_morphism("hom", x, y)
    assert f is not None
    _, x0, g = factor_xo(f.mapping, x, y)
    assert validate_coalgebra(x0) == []


def test_open_formulations_agree_on_found_embeddings():
    pool = [s for s in small_structures(2) if s.size]
    rnd = random.Random(59)
    agree = 0
    for _ in range(120):
        a, b = rnd.choice(pool), rnd.choice(pool)
        x, y = build_ef(a, 2, with_i=True), build_ef(b, 2, with_i=True)
        w = find_morphism("pathwise_embedding", x, y)
        if w is None:
            continue
        lifting = not check_open_cover_lifting(w.mapping, x, y)
        squares = not check_open_by_squares(w.mapping, x, y)
        assert lifting == squares
        # and the path-tree p-morphism check is the same thing
        tx, ty = path_tree(x), path_tree(y)
        from fmgames import BOTTOM
        tmap = {BOTTOM: BOTTOM, **w.mapping}
        assert is_p_morphism(tmap, tx, ty) == lifting
        agree += 1
    assert agree > 5


def test_modal_morphisms_respect_points():
    a = kripke(["a", "b"], [("a", "b")], [], "a")
    b = kripke(["x", "y"], [("x", "y")], [], "x")
    w = find_morphism("hom", build_modal(a, 2), build_modal(b, 2))
    assert w is not None
    ua = build_modal(a, 2)
    assert w.mapping[ua.carrier.point] == build_modal(b, 2).carrier.point


def _induced(c, chain) -> Structure:
    elems = set(chain)
    return Structure.make(c.carrier.vocab, chain,
                          {rel: [t for t in ts if set(t) <= elems]
                           for rel, ts in c.carrier.interp.items()})


def _chain_map_reference(x, y, xn, yn, iso: bool) -> bool:
    """The chain map judged by the structure-level checkers on induced substructures."""
    cx, cy = x.chain(xn), y.chain(yn)
    m = dict(zip(cx, cy))
    if x.kind == "pebble" and any(x.pebble_fn[a] != y.pebble_fn[m[a]] for a in cx):
        return False
    check = is_embedding if iso else is_homomorphism
    return check(m, _induced(x, cx), _induced(y, cy))


def _chain_map_agreement(coalgebras) -> set:
    seen = set()
    for x in coalgebras:
        tx = path_tree(x)
        for y in coalgebras:
            ty = path_tree(y)
            for xn in tx.nodes:
                for yn in ty.nodes:
                    if tx.height[xn] != ty.height[yn]:
                        continue
                    cx, cy = x.chain(xn), y.chain(yn)
                    for iso in (False, True):
                        got = chain_map_ok(x, y, cx, cy, iso)
                        assert got == _chain_map_reference(x, y, xn, yn, iso), (xn, yn, iso)
                        seen.add((iso, got))
    return seen


@pytest.mark.parametrize("build", [
    lambda: [build_ef(a, 2, with_i=True) for a in all_digraphs(2)],
    lambda: [build_modal(a, 2) for a in all_pointed_kripke(2)],
    lambda: [build_pebble_truncated(a, 2, 2) for a in (edge_structure(), loop_structure())],
], ids=["ef_i", "modal", "pebble"])
def test_chain_map_ok_matches_induced_substructure_checks(build):
    seen = _chain_map_agreement(build())
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


# ---------------------------------------------------------------------------
# Wall budgets

def _timed(call, *args):
    start = time.perf_counter()
    out = call(*args)
    return out, time.perf_counter() - start


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", ["i_morphism", "pathwise_embedding"])
def test_six_element_search_within_budget(k, kind):
    x = build_ef(SIX, k, with_i=True)
    w, took = _timed(find_morphism, kind, x, x)
    assert w is not None and verify_morphism(w.mapping, x, x, kind) == []
    assert took < 2.0, took


def test_six_element_check_via_coalgebra_k4_within_budget(tmp_path, capsys):
    path = tmp_path / "six.fms"
    path.write_text("vocab E/2\nstructure six\nelems a b c d e f\nrel E a b\n")
    code, took = _timed(main, ["check", "--family", "ef", "--via", "coalgebra", "--mode", "ep",
                               "-k", "4", "--both", str(path), str(path)])
    assert code == 0 and capsys.readouterr().out.endswith("equivalent\n")
    assert took < 20.0, took


def test_hom_on_wide_forest_without_recursion():
    """F2 of a 40-element edgeless digraph has 1640 nodes: a search that
    recurses once per node dies with RecursionError."""
    edgeless = Structure.make(E2, [f"v{i}" for i in range(40)], {}, name="edgeless40")
    x = build_ef(edgeless, 2)
    w = find_morphism("hom", x, x)
    assert w is not None and verify_morphism(w.mapping, x, x, "hom") == []


def test_target_tuple_across_branches_is_not_an_image():
    """The target's only E tuple joins a root to a node of another branch, at
    the heights of the source's tuple; no forest morphism can hit it."""
    x = ForestCoalgebra(Structure.make(E2, ["r", "c"], {"E": [("r", "c")]}), {"c": "r"}, 2)
    y = ForestCoalgebra(Structure.make(E2, ["u", "u1", "v", "w"], {"E": [("u", "w")]}),
                        {"u1": "u", "w": "v"}, 2)
    assert y.signatures[1]
    for kind in ("hom", "pathwise_embedding", "open_pathwise_embedding"):
        assert find_morphism(kind, x, y) is None
    with pytest.raises(CoalgebraError, match="across branches"):
        find_morphism("hom", y, x)


def test_open_pebble_morphism_within_budget(cliques):
    """Checked on complete maps only, openness makes these searches run past
    10 s; the fixpoint needs a matching onto the children per pair instead."""
    for a, b in ((cliques[2], cliques[3]), (cliques[3], cliques[2])):
        x, y = build_pebble_truncated(a, 2, 2), build_pebble_truncated(b, 2, 2)
        w, took = _timed(find_morphism, "open_pathwise_embedding", x, y)
        if w is not None:
            assert verify_morphism(w.mapping, x, y, "open_pathwise_embedding") == []
        assert took < 2.0, took
