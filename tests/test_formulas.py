import pytest

from fmgames import (And, Atom, Box, Dia, Eq, Exists, FALSE, Forall, FormulaError,
                     NegAtom, NegEq, NegProp, Or, Prop, Structure, TRUE,
                     Vocabulary, and_, classify, dualize, free_vars,
                     model_check, or_, parse_formula, serialize_formula,
                     standard_translation)
from fmgames.formulas import is_modal

from conftest import kripke


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
        assert not is_modal(tr)
        for m in models:
            assert model_check(phi, m) == model_check(tr, m, {1: m.point})


def test_modal_fo_mixing_rejected(chain_ab):
    mixed = And((Prop("P"), Atom("R", (1, 2))))
    with pytest.raises(FormulaError, match="mixed"):
        model_check(mixed, chain_ab, {1: "a", 2: "b"})
