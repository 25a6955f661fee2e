import dataclasses
import random

import pytest

from fmgames import (EQUALITY_SYMBOL, ParseError, Structure, StructureError,
                     Vocabulary, are_isomorphic, collapse_i, expand_i,
                     gaifman, is_embedding, is_homomorphism, iter_homomorphisms,
                     parse_structure, serialize_structure)

from conftest import small_structures


def test_parse_loop():
    a = parse_structure("vocab E/2\nstructure A\nelems u\nrel E u u")
    assert a.universe == ("u",)
    assert a.interp["E"] == frozenset({("u", "u")})


def test_parse_edge():
    a = parse_structure("vocab E/2\nstructure A\nelems v w\nrel E v w")
    assert a.universe == ("v", "w")
    assert a.interp["E"] == frozenset({("v", "w")})


def test_parse_undeclared_element():
    with pytest.raises(ParseError, match="undeclared element 'w'"):
        parse_structure("vocab E/2\nstructure A\nelems v\nrel E v w")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 4"):
        parse_structure("vocab E/2\nstructure A\nelems v\nrel E v")


def test_parse_rejects_duplicate_relation():
    with pytest.raises(ParseError, match="duplicate relation"):
        parse_structure("vocab E/2 E/1\nstructure A")


def test_parse_rejects_arity_zero_and_reserved_i():
    with pytest.raises(ParseError, match="arity 0"):
        parse_structure("vocab C/0\nstructure A")
    with pytest.raises(ParseError, match="reserved"):
        parse_structure("vocab I/2\nstructure A")


def test_parse_comments_and_point():
    text = "vocab R/2 P/1  # modal\nstructure M\nelems a b  # worlds\nrel R a b\npoint a\n"
    a = parse_structure(text)
    assert a.point == "a"
    assert a.vocab.modal_flag


def test_empty_universe_allowed():
    a = parse_structure("vocab E/2\nstructure A")
    assert a.size == 0
    assert parse_structure(serialize_structure(a)) == a


def test_roundtrip_parse_serialize(edge, loop):
    for a in (edge, loop):
        assert parse_structure(serialize_structure(a)) == a
    # and on a batch of machine-made structures
    for a in small_structures(2)[:40]:
        assert parse_structure(serialize_structure(a)) == a


def test_is_homomorphism(edge, loop):
    assert is_homomorphism({"u": "u"}, loop, loop)
    assert is_homomorphism({"v": "u", "w": "u"}, edge, loop)
    assert not is_homomorphism({"u": "v"}, loop, edge)
    with pytest.raises(StructureError):
        is_homomorphism({"u": "u"}, loop, Structure.make(Vocabulary((("F", 2),)), ["u"]))


def test_point_preservation_checked():
    a = Structure.make(Vocabulary((("R", 2),)), ["a", "b"], {}, point="a")
    b = dataclasses.replace(a, point="b")
    assert not is_homomorphism({"a": "a", "b": "b"}, a, b)
    assert is_homomorphism({"a": "b", "b": "b"}, a, b)


def test_is_embedding(edge, loop):
    assert is_embedding({"v": "v", "w": "w"}, edge, edge)
    assert not is_embedding({"v": "u", "w": "u"}, edge, loop)
    sub = Structure.make(edge.vocab, ["v"], {})
    assert is_embedding({"v": "v"}, sub, edge)  # induced substructure inclusion
    assert not is_embedding({"v": "u"}, sub, loop)  # E(u,u) not reflected
    with_loop = Structure.make(edge.vocab, ["v"], {"E": [("v", "v")]})
    assert is_embedding({"v": "u"}, with_loop, loop)


def test_embedding_implies_homomorphism():
    pool = small_structures(2)
    rnd = random.Random(0)
    for _ in range(200):
        a, b = rnd.choice(pool), rnd.choice(pool)
        if a.size == 0 or b.size == 0:
            continue
        f = {x: rnd.choice(b.universe) for x in a.universe}
        if is_embedding(f, a, b):
            assert is_homomorphism(f, a, b)


def test_gaifman(edge, loop):
    assert gaifman(loop) == frozenset()
    assert gaifman(edge) == frozenset({("v", "w"), ("w", "v")})
    mixed = Structure.make(Vocabulary((("E", 2), ("P", 1))), ["a", "b", "c"],
                           {"E": [("a", "b")], "P": [("c",)]})
    g = gaifman(mixed)
    assert g == frozenset({("a", "b"), ("b", "a")})  # c isolated


def test_gaifman_symmetric_irreflexive():
    for a in small_structures(2):
        g = gaifman(a)
        assert all((y, x) in g for x, y in g)
        assert all(x != y for x, y in g)


def test_expand_i(edge):
    e = expand_i(edge)
    assert e.interp[EQUALITY_SYMBOL] == frozenset({("v", "v"), ("w", "w")})
    assert e.vocab.arities[EQUALITY_SYMBOL] == 2
    with pytest.raises(StructureError):
        expand_i(e)


def test_collapse_expand_is_identity():
    for a in small_structures(2):
        assert are_isomorphic(collapse_i(expand_i(a)), a)


def test_collapse_merges_classes(edge):
    e = expand_i(edge)
    merged = Structure.make(e.vocab, ["v", "w"],
                            {"E": [("v", "w")], EQUALITY_SYMBOL: [("v", "w")]})
    q = collapse_i(merged)
    assert q.size == 1
    assert q.interp["E"] == frozenset({("v", "v")})


def test_collapse_requires_i(edge):
    with pytest.raises(StructureError):
        collapse_i(edge)


def test_find_homomorphism(edge, loop):
    assert next(iter_homomorphisms(edge, loop), None) == {"v": "u", "w": "u"}
    assert next(iter_homomorphisms(loop, edge), None) is None


def test_are_isomorphic():
    a = parse_structure("vocab E/2\nstructure A\nelems x y\nrel E x y")
    b = parse_structure("vocab E/2\nstructure B\nelems p q\nrel E q p")
    assert are_isomorphic(a, b)
    c = parse_structure("vocab E/2\nstructure C\nelems p q\nrel E p p")
    assert not are_isomorphic(a, c)
