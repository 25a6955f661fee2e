import itertools
import random

import pytest

from fmgames import (And, Atom, Box, Dia, Eq, Exists, FALSE, FalseC, Forall,
                     FormulaError, FragmentSpec, GameSpec, NegAtom, NegEq,
                     NegProp, Or, Prop, Structure, StructureError, TRUE, TrueC,
                     Vocabulary, and_, classify, distinguish, dualize, free_vars,
                     model_check, oracle_preserves, or_, parse_formula,
                     serialize_formula, solve, standard_translation)
from fmgames import formulas
from fmgames.corpus import all_digraphs, all_pointed_kripke

from conftest import (E2, kripke, reference_classify, reference_free_vars,
                      reference_model_check, small_structures)

MODES = ("full", "existential", "positive", "ep")


def test_parse_basic_shapes():
    assert parse_formula("true") == TRUE
    assert parse_formula("E(x1,x2)") == Atom("E", (1, 2))
    assert parse_formula("!E(x1,x2)") == NegAtom("E", (1, 2))
    assert parse_formula("x1=x2") == Eq(1, 2)
    assert parse_formula("!(x1=x2)") == NegEq(1, 2)
    assert parse_formula("E x1. p") == Exists(1, Prop("p"))
    assert parse_formula("A x2. q") == Forall(2, Prop("q"))
    assert parse_formula("<R> p") == Dia("R", Prop("p"))
    assert parse_formula("[R] !p") == Box("R", NegProp("p"))


def test_parse_binary_left_assoc_flattened():
    phi = parse_formula("(p & q & r)")
    assert phi == And((Prop("p"), Prop("q"), Prop("r")))
    with pytest.raises(FormulaError, match="mixed"):
        parse_formula("(p & q | r)")


def test_parse_general_negation_dualizes():
    phi = parse_formula("!E x1. (E(x1,x1) & p)")
    assert phi == Forall(1, Or((NegAtom("E", (1, 1)), NegProp("p"))))


def test_quantifier_vs_relation_named_E():
    assert parse_formula("E(x1,x1)") == Atom("E", (1, 1))
    assert parse_formula("E x1. E(x1,x1)") == Exists(1, Atom("E", (1, 1)))


def test_roundtrip():
    samples = [
        "E x1. E x2. (E(x1,x2) & !(x1=x2))",
        "A x1. (E(x1,x1) | !E(x1,x1))",
        "<R> (p & [R] q)",
        "(x1=x2 | !(x1=x3))",
        "false",
    ]
    for text in samples:
        phi = parse_formula(text)
        again = parse_formula(serialize_formula(phi))
        assert phi == again
        assert classify(phi).rank == classify(again).rank


def test_smart_constructors():
    assert and_([]) == TRUE
    assert or_([]) == FALSE
    assert and_([Prop("p"), TRUE, Prop("p")]) == Prop("p")
    assert and_([Prop("p"), FALSE]) == FALSE
    assert or_([Or((Prop("p"), Prop("q"))), Prop("p")]) == Or((Prop("p"), Prop("q")))


def test_dualize_involution():
    phi = parse_formula("E x1. (E(x1,x1) | !(x1=x2))")
    assert dualize(dualize(phi)) == phi


def test_free_vars():
    phi = parse_formula("E x2. (E(x1,x2) & !(x1=x3))")
    assert free_vars(phi) == frozenset({1, 3})


def test_classify_examples():
    c = classify(parse_formula("E x1. E x2. (E(x1,x2) & !(x1=x2))"))
    assert (c.rank, c.var_count) == (2, 2)
    assert c.in_mode["existential"] and not c.in_mode["positive"]
    c = classify(parse_formula("A x1. E x2. E(x1,x2)"))
    assert c.rank == 2 and c.in_mode["positive"] and not c.in_mode["existential"]
    c = classify(parse_formula("<R> (p & [R] q)"))
    assert c.modal_depth == 2 and not c.in_mode["existential"]
    assert classify(parse_formula("E(x1,x2)")).modal_depth is None


def test_model_check_fo(edge, loop):
    phi = parse_formula("E x1. E(x1,x1)")
    assert model_check(phi, loop)
    assert not model_check(phi, edge)
    psi = parse_formula("E x1. E x2. (E(x1,x2) & !(x1=x2))")
    assert model_check(psi, edge)
    assert not model_check(psi, loop)


def test_model_check_assignment_and_errors(edge):
    phi = parse_formula("E(x1,x2)")
    assert model_check(phi, edge, {1: "v", 2: "w"})
    assert not model_check(phi, edge, {1: "w", 2: "v"})
    with pytest.raises(FormulaError, match="unbound"):
        model_check(phi, edge, {1: "v"})


@pytest.mark.parametrize("text, bind, match", [
    ("!E(x1,x2)", {1: "v", 2: "zz"}, "^x2 bound to 'zz', not in universe$"),
    ("x1=x1", {1: "zz"}, "^x1 bound to 'zz'"),
    ("E x2. E(x1,x2)", {1: "zz"}, "^x1 bound to 'zz'"),
    ("E x1. E(x1,x1)", {2: "zz"}, "^x2 bound to 'zz'"),
])
def test_model_check_rejects_a_binding_outside_the_universe(edge, text, bind, match):
    with pytest.raises(StructureError, match=match):
        model_check(parse_formula(text), edge, bind)


def test_model_check_modal(chain_ab):
    assert model_check(parse_formula("<R> P"), chain_ab)
    assert not model_check(parse_formula("[R] !P"), chain_ab)
    assert model_check(parse_formula("P"), chain_ab, world="b")
    with pytest.raises(FormulaError, match="non-modal"):
        model_check(parse_formula("<R> p"),
                    Structure.make(Vocabulary((("T", 3),)), ["a"], {}))


@pytest.mark.parametrize("text, bind, match", [
    ("E x1. Q(x1)", {}, "unknown relation 'Q'"),
    ("!E(x1,x1,x1)", {1: "v"}, "E has arity 2, used with 3"),
    ("A x1. (x1=x1 | E(x1))", {}, "E has arity 2, used with 1"),
])
def test_model_check_rejects_atoms_outside_the_vocabulary(edge, text, bind, match):
    with pytest.raises(FormulaError, match=match):
        model_check(parse_formula(text), edge, bind)


@pytest.mark.parametrize("text, match", [
    ("!q", "unknown relation 'q'"),
    ("!R", "R has arity 2, used with 1"),
    ("<R> (P & [R] R)", "R has arity 2, used with 1"),
])
def test_model_check_rejects_propositions_outside_the_vocabulary(chain_ab, text, match):
    with pytest.raises(FormulaError, match=match):
        model_check(parse_formula(text), chain_ab)


def test_standard_translation_shapes():
    assert standard_translation(parse_formula("P")) == Atom("P", (1,))
    assert standard_translation(parse_formula("<R> P")) == \
        Exists(2, And((Atom("R", (1, 2)), Atom("P", (2,)))))
    assert standard_translation(parse_formula("[R] P")) == \
        Forall(2, Or((NegAtom("R", (1, 2)), Atom("P", (2,)))))


def test_standard_translation_agrees_with_kripke_semantics():
    # every depth<=2 shape over one proposition, on a batch of small models
    shapes = [parse_formula(t) for t in
              ("P", "!P", "<R> P", "[R] P", "<R> !P", "[R] !P",
               "(P & <R> P)", "(<R> [R] P | P)", "[R] <R> P", "<R> (P & [R] P)")]
    models = []
    for bits in range(64):
        edges = [(x, y) for i, (x, y) in enumerate(
            [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]) if bits >> i & 1]
        props = [p for i, p in enumerate(["a", "b"]) if bits >> (4 + i) & 1]
        models.append(kripke(["a", "b"], edges, props, "a"))
    for phi in shapes:
        tr = standard_translation(phi)
        assert classify(tr).modal_depth is None
        for m in models:
            assert model_check(phi, m) == model_check(tr, m, {1: m.point})


def test_modal_fo_mixing_rejected(chain_ab):
    mixed = And((Prop("P"), Atom("R", (1, 2))))
    with pytest.raises(FormulaError, match="mixed"):
        model_check(mixed, chain_ab, {1: "a", 2: "b"})


def test_model_check_restores_a_binding_to_the_element_none():
    # the inner quantifier rebinds x1, which was bound to the element None
    a = Structure.make(Vocabulary((("P", 1), ("Q", 1))), [None, "b"],
                       {"P": [(None,)], "Q": [("b",)]})
    phi = parse_formula("E x1. (P(x1) & (E x1. (Q(x1) & P(x1)) | P(x1)))")
    assert model_check(phi, a)


@pytest.mark.parametrize("text, match", [
    ("(Q(x1) & E(x1))", "^E has arity 2, used with 1$"),
    ("A x1. (E(x1,x1,x1) | (x1=x1 & R(x1)))", "^unknown relation 'R'$"),
])
def test_model_check_reports_the_first_symbol_outside_the_vocabulary(edge, text, match):
    with pytest.raises(FormulaError, match=match):
        model_check(parse_formula(text), edge, {1: "v"})


def _random_tree(rnd, height):
    """A seeded tree over every node class, modal and first-order mixed."""
    if height == 0 or rnd.random() < 0.2:
        return rnd.choice([
            TRUE, FALSE, Prop("p"), NegProp("p"),
            Atom("E", (rnd.randint(1, 3), rnd.randint(1, 3))),
            NegAtom("E", (rnd.randint(1, 3), rnd.randint(1, 3))),
            Eq(rnd.randint(1, 3), rnd.randint(1, 3)),
            NegEq(rnd.randint(1, 3), rnd.randint(1, 3))])
    kind = rnd.choice([And, Or, Exists, Forall, Dia, Box])
    if kind in (And, Or):
        return kind(tuple(_random_tree(rnd, height - 1) for _ in range(rnd.randint(0, 3))))
    if kind in (Exists, Forall):
        return kind(rnd.randint(1, 3), _random_tree(rnd, height - 1))
    return kind("R", _random_tree(rnd, height - 1))


def _comparison_formulas():
    """Synthesized and oracle witnesses, their standard translations, hand-built
    edge cases and seeded mixed trees."""
    rnd = random.Random(2718)
    digraphs = all_digraphs(2)
    models = all_pointed_kripke(2)
    out = [Exists(1, And(())), Dia("R", Or(())), Forall(2, Exists(1, Or(()))),
           And((Prop("p"), Atom("E", (1, 2)))), Exists(1, Dia("R", Atom("E", (1, 2)))),
           Box("R", Forall(2, Or((NegProp("p"), NegEq(2, 3))))),
           Forall(1, And((Dia("R", Prop("p")), NegEq(1, 3)))), TrueC(), FalseC()]
    out += [_random_tree(rnd, 5) for _ in range(300)]
    games = [("ef", k, digraphs) for k in (1, 2)] + [("pebble", k, digraphs) for k in (1, 2, 3)]
    games += [("modal", k, models) for k in (1, 2)]
    for family, k, pool in games:
        for mode in MODES:
            spec = GameSpec(family, mode, k)
            for _ in range(6):
                a, b = rnd.choice(pool), rnd.choice(pool)
                v = solve(spec, a, b)
                if not v.duplicator_wins:
                    out.append(distinguish(spec, a, b, v))
    fragments = [("fo_rank", digraphs), ("l_vars", digraphs), ("ml_depth", models)]
    for family, pool in fragments:
        for mode in MODES:
            for _ in range(6):
                a, b = rnd.choice(pool), rnd.choice(pool)
                res = oracle_preserves(FragmentSpec(family, rnd.choice((1, 2)), mode), a, b)
                if res.witness is not None:
                    out.append(res.witness)
    for phi in list(out):
        try:
            out.append(standard_translation(phi, rnd.randint(1, 3)))
        except FormulaError:  # not purely modal
            pass
    return out


def test_single_walk_matches_the_recursive_walkers():
    formulas = _comparison_formulas()
    assert len(formulas) > 500
    for phi in formulas:
        assert classify(phi) == reference_classify(phi), str(phi)
        assert free_vars(phi) == reference_free_vars(phi), str(phi)


def test_classify_and_free_vars_answer_on_deep_formulas():
    chain = Atom("E", (1, 2))
    for _ in range(5000):
        chain = Exists(1, chain)
    c = classify(chain)
    assert (c.rank, c.var_count, c.modal_depth) == (5000, 2, None)
    assert free_vars(chain) == frozenset({2})
    diamonds = NegProp("p")
    for _ in range(5000):
        diamonds = Dia("R", diamonds)
    c = classify(diamonds)
    assert (c.rank, c.var_count, c.modal_depth) == (0, 0, 5000)
    assert c.in_mode["existential"] and not c.in_mode["positive"]
    assert free_vars(diamonds) == frozenset()


#: Z/0, P/1, E/2 and T/3: every arity the evaluator reads an atom at.
MIXED = Vocabulary((("Z", 0), ("P", 1), ("E", 2), ("T", 3)))


def _random_fo(rnd, height, vocab):
    """A seeded first-order tree over the relations of ``vocab`` and x1..x3."""
    if height == 0 or rnd.random() < 0.25:
        rel, arity = rnd.choice(vocab.relations)
        vs = tuple(rnd.randint(1, 3) for _ in range(arity))
        return rnd.choice([TRUE, FALSE, Atom(rel, vs), NegAtom(rel, vs),
                           Eq(rnd.randint(1, 3), rnd.randint(1, 3)),
                           NegEq(rnd.randint(1, 3), rnd.randint(1, 3))])
    kind = rnd.choice([And, Or, Exists, Forall])
    if kind in (And, Or):
        return kind(tuple(_random_fo(rnd, height - 1, vocab) for _ in range(rnd.randint(0, 3))))
    return kind(rnd.randint(1, 3), _random_fo(rnd, height - 1, vocab))


def _random_modal(rnd, height):
    if height == 0 or rnd.random() < 0.25:
        return rnd.choice([TRUE, FALSE, Prop("P"), NegProp("P")])
    kind = rnd.choice([And, Or, Dia, Box])
    if kind in (And, Or):
        return kind(tuple(_random_modal(rnd, height - 1) for _ in range(rnd.randint(0, 3))))
    return kind("R", _random_modal(rnd, height - 1))


def _random_structure(rnd, vocab, elems):
    interp = {rel: [t for t in itertools.product(elems, repeat=arity) if rnd.random() < 0.4]
              for rel, arity in vocab.relations}
    return Structure.make(vocab, elems, interp)


# quantifiers that rebind a bound variable, and empty connectives under them
_FO_EDGE_CASES = [And(()), Or(()), Exists(1, And(())), Forall(1, Or(())),
                  Exists(1, And((Atom("E", (1, 2)), Exists(1, NegAtom("E", (1, 1))),
                                 Eq(1, 2)))),
                  Forall(2, Or((Exists(2, Forall(2, Eq(1, 2))), NegEq(1, 2)))),
                  And((Exists(1, Or(())), Atom("E", (1, 1))))]


def _assignments(phi, a):
    """Every assignment of the free variables, and one binding x1..x3 too."""
    free = sorted(free_vars(phi))
    out = [dict(zip(free, es)) for es in itertools.product(a.universe, repeat=len(free))]
    if a.universe:
        out.append({v: a.universe[v % a.size] for v in (1, 2, 3)})
    return out


def test_evaluation_matches_the_recursive_reference():
    rnd = random.Random(31415)
    e2 = small_structures()  # every digraph on at most 2 elements, the empty one too
    mixed = [_random_structure(rnd, MIXED, list("abc"[:n])) for n in (0, 1, 2, 3) for _ in range(4)]
    mixed.append(_random_structure(rnd, MIXED, [None, "b"]))  # an element named None
    sweeps = [(_FO_EDGE_CASES + [_random_fo(rnd, 5, E2) for _ in range(150)], e2),
              ([_random_fo(rnd, 5, MIXED) for _ in range(150)], mixed)]
    checked = 0
    for formulas, pool in sweeps:
        for phi in formulas:
            for a in pool:
                for env in _assignments(phi, a):
                    assert model_check(phi, a, env) == reference_model_check(phi, a, env), \
                        (str(phi), a, env)
                    checked += 1
    modal = [And(()), Or(()), Dia("R", And(())), Box("R", Or(())), Box("R", Dia("R", TRUE))]
    modal += [_random_modal(rnd, 5) for _ in range(150)]
    for phi in modal:
        for m in all_pointed_kripke(2):  # worlds with no successors among them
            for w in m.universe:
                assert model_check(phi, m, world=w) == reference_model_check(phi, m, world=w), \
                    (str(phi), m, w)
                checked += 1
    assert checked > 20000


def _counting_walks(monkeypatch) -> list:
    """Patch ``formulas._walk`` to record each formula it walks."""
    walked = []
    walk = formulas._walk
    monkeypatch.setattr(formulas, "_walk", lambda phi: walked.append(phi) or walk(phi))
    return walked


def test_one_walk_per_witness_across_its_checks(monkeypatch):
    # re-verifying a witness: model_check on A, on B, then classify
    walked = _counting_walks(monkeypatch)
    graphs = all_digraphs(2)
    rnd = random.Random(1618)
    checked = 0
    for family, k in (("ef", 2), ("pebble", 2), ("pebble", 3)):
        for mode in MODES:
            spec = GameSpec(family, mode, k)
            for _ in range(8):
                a, b = rnd.choice(graphs), rnd.choice(graphs)
                v = solve(spec, a, b)
                if v.duplicator_wins:
                    continue
                phi = distinguish(spec, a, b, v)
                del walked[:]
                assert model_check(phi, a) and not model_check(phi, b)
                c = classify(phi)
                assert free_vars(phi) == frozenset()
                assert walked == [phi] and walked[0] is phi
                assert c == reference_classify(phi), str(phi)
                checked += 1
    assert checked > 20
    # the kept facts are no field: an equal formula built afresh compares,
    # hashes, prints and serializes alike, and is walked once itself
    twin = parse_formula(serialize_formula(phi))
    assert twin == phi and hash(twin) == hash(phi) and repr(twin) == repr(phi)
    assert serialize_formula(twin) == serialize_formula(phi)
    assert classify(twin) == c and len(walked) == 2


def test_kept_facts_match_the_recursive_references(monkeypatch):
    # each formula object is walked at most once (TRUE and FALSE may have
    # been walked before) however often it is checked, and every answer
    # after the first still matches the references
    walked = _counting_walks(monkeypatch)
    rnd = random.Random(2236)
    phis = _FO_EDGE_CASES + [_random_fo(rnd, 5, E2) for _ in range(120)]
    pool = small_structures()
    for phi in phis:
        for _ in range(2):
            assert classify(phi) == reference_classify(phi), str(phi)
            assert free_vars(phi) == reference_free_vars(phi), str(phi)
            for a in pool:
                for env in _assignments(phi, a):
                    assert model_check(phi, a, env) == reference_model_check(phi, a, env), \
                        (str(phi), a, env)
    assert len({id(phi) for phi in walked}) == len(walked) > 100
    modal = [_random_modal(rnd, 5) for _ in range(60)]
    for phi in modal:
        for _ in range(2):
            assert classify(phi) == reference_classify(phi), str(phi)
            for m in all_pointed_kripke(2):
                for w in m.universe:
                    assert model_check(phi, m, world=w) == reference_model_check(phi, m, world=w)
    assert len({id(phi) for phi in walked}) == len(walked) > 150


def test_model_check_answers_on_deep_chains():
    """Built with constructors: the parser, ``str`` and ``hash`` still recurse."""
    loop = Structure.make(E2, ["u"], {"E": [("u", "u")]})
    bare = Structure.make(E2, ["u"], {})
    chain = Atom("E", (1, 2))
    for i in range(10_000):
        v = 1 + i % 2
        chain = Exists(v, And((Eq(v, v), chain)))
    assert model_check(chain, loop) and not model_check(chain, bare)
    forall = NegAtom("E", (1, 1))
    for _ in range(10_000):
        forall = Forall(1, Or((FALSE, forall)))
    assert model_check(forall, bare) and not model_check(forall, loop)
    m = kripke(["a"], [("a", "a")], ["a"], "a")
    dia, box = Prop("P"), NegProp("P")
    for _ in range(10_000):
        dia, box = Dia("R", dia), Box("R", And((TRUE, box)))
    assert model_check(dia, m) and not model_check(box, m)
