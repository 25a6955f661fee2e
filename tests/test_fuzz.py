"""Seeded mutation fuzzing of the parsers and of ``modelcheck``.

Valid inputs (the serialized calibration structures, built coalgebra files
and a formula corpus) are mutated at random with the standard library only.
Every input must end in a result or in a ``ValueError`` diagnostic, which the
command line turns into exit 2; any other exception is a defect.  Whatever
parses must survive its serialize -> parse round trip unchanged.

Seeded structures of size 5-6 also go through ``check --via coalgebra`` and
``morphism``, and seeded small structures over relations of arities 0 to 40
through every route of ``check`` and through ``distinguish``, each run
within a wall budget, so that an exponential search fails the suite instead
of hanging it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import signal
import time

import pytest

from fmgames import (Structure, Vocabulary, build_ef, build_modal,
                     build_pebble_truncated, classify, model_check,
                     parse_coalgebra, parse_formula, parse_structure,
                     serialize_coalgebra, serialize_formula,
                     serialize_structure, validate_coalgebra)
from fmgames.cli import main
from fmgames.corpus import clique, edge_structure, linear_order, loop_structure

from conftest import E2, MODAL, kripke

SEED = 20240607
ROUNDS = 1500
MODELCHECKS = 600
SNIPPETS = ("(", ")", ",", ".", "!", "&", "|", "=", "<", ">", "[", "]", " ", "\n",
            "#", "E", "R", "P", "I", "x1", "x0", "x9", "a", "b", "u", "1", "2", "/",
            "vocab ", "elems ", "rel ", "point ", "root ", "parent ", "pebble ",
            "forest", "E x1. ", "A x2. ", "<R> ", "[R] ", "true", "false")

FORMULAS = (
    "true", "false", "E x1. E(x1,x1)", "A x1. E x2. E(x1,x2)",
    "E x1. E x2. (E(x1,x2) & !(x1=x2))", "A x1. (!E(x1,x1) | x1=x1)",
    "E x1. A x2. (L(x1,x2) | x1=x2)", "E x1. E x2. E x3. (E(x1,x2) & E(x2,x3))",
    "P", "!P", "<R> P", "[R] !P", "(<R> [R] P | P)", "<R> (P & [R] false)",
)


def _structures():
    modal = kripke(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")], ["c"], "a", "MC")
    return [edge_structure(), loop_structure(), linear_order(3), clique(3), modal]


def _coalgebra_texts():
    edge, modal = edge_structure(), _structures()[-1]
    return [serialize_coalgebra(c) for c in
            (build_ef(edge, 2, with_i=True), build_modal(modal, 2),
             build_pebble_truncated(edge, 2, 2))]


def _mutate(rnd: random.Random, text: str) -> str:
    for _ in range(rnd.randint(1, 3)):
        i = rnd.randrange(len(text) + 1)
        j = min(len(text), i + rnd.randint(1, 4))
        lines = text.split("\n")
        op = rnd.randrange(6)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:i] + rnd.choice(SNIPPETS) + text[i:]
        elif op == 2:
            text = text[:i] + rnd.choice(SNIPPETS) + text[j:]
        elif op == 3:
            text = text[:i]
        elif op == 4:
            k = rnd.randrange(len(lines))
            lines.insert(rnd.randrange(len(lines) + 1), lines[k])
            text = "\n".join(lines)
        else:
            rnd.shuffle(lines)
            text = "\n".join(lines)
    return text


def _parse_or_diagnose(parse, text):
    """The parsed value, or None when ``parse`` rejects ``text`` with a diagnostic."""
    try:
        return parse(text)
    except ValueError as exc:
        assert str(exc), f"empty diagnostic for {text!r}"
        return None


def test_structure_parser_fuzz():
    rnd = random.Random(SEED)
    seeds = [serialize_structure(s) for s in _structures()]
    parsed = 0
    for _ in range(ROUNDS):
        a = _parse_or_diagnose(parse_structure, _mutate(rnd, rnd.choice(seeds)))
        if a is not None:
            parsed += 1
            assert parse_structure(serialize_structure(a)) == a
    assert 0 < parsed < ROUNDS


def test_coalgebra_parser_fuzz():
    rnd = random.Random(SEED + 1)
    seeds = _coalgebra_texts()
    parsed = 0
    for _ in range(ROUNDS):
        c = _parse_or_diagnose(parse_coalgebra, _mutate(rnd, rnd.choice(seeds)))
        if c is None:
            continue
        parsed += 1
        if not validate_coalgebra(c):
            back = parse_coalgebra(serialize_coalgebra(c))
            assert back.carrier == c.carrier and dict(back.parent) == dict(c.parent)
            assert back.kind == c.kind and back.pebble_fn == c.pebble_fn
    assert 0 < parsed < ROUNDS


def test_formula_parser_fuzz():
    rnd = random.Random(SEED + 2)
    parsed = 0
    for _ in range(ROUNDS):
        phi = _parse_or_diagnose(parse_formula, _mutate(rnd, rnd.choice(FORMULAS)))
        if phi is not None:
            parsed += 1
            assert parse_formula(serialize_formula(phi)) == phi
    assert 0 < parsed < ROUNDS


@pytest.fixture
def structure_files(tmp_path):
    paths = []
    for a in _structures():
        path = tmp_path / f"{a.name}.fms"
        path.write_text(serialize_structure(a))
        paths.append(str(path))
    return paths


def test_modelcheck_fuzz_keeps_the_exit_code_contract(structure_files):
    rnd = random.Random(SEED + 3)
    codes = set()
    for _ in range(MODELCHECKS):
        formula = rnd.choice(FORMULAS)
        if rnd.random() < 0.8:
            formula = _mutate(rnd, formula)
        argv = ["modelcheck", "--", formula, rnd.choice(structure_files)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.getvalue().startswith("error: "), argv
        else:
            assert out.getvalue() == ("true\n" if code == 0 else "false\n"), argv
        codes.add(code)
    assert codes == {0, 1, 2}


BUDGET_S = 5.0


def _random_structure(rnd: random.Random, modal: bool, name: str) -> Structure:
    """A seeded digraph, or pointed Kripke model, with 5 or 6 elements."""
    elems = [f"e{i}" for i in range(rnd.choice((5, 6)))]
    edges = [(u, v) for u in elems for v in elems if rnd.random() < 0.15]
    if not modal:
        return Structure.make(E2, elems, {"E": edges}, name=name)
    props = [(u,) for u in elems if rnd.random() < 0.4]
    return Structure.make(MODAL, elems, {"R": edges, "P": props}, point=elems[0], name=name)


class OverBudget(Exception):
    """A command ran past ``BUDGET_S``; not caught by the command line."""


def _run(argv: list) -> tuple:
    """Exit code, wall time, stdout and stderr of a command stopped after
    ``BUDGET_S``."""
    def expire(signum, frame):
        raise OverBudget(f"{argv} ran over {BUDGET_S} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, time.perf_counter() - start, out.getvalue(), err.getvalue()


def test_check_via_coalgebra_fuzz_within_budget(tmp_path):
    """The coalgebra route agrees with the game on seeded pairs of size 5-6."""
    rnd = random.Random(SEED + 4)
    for i in range(16):
        family = ("ef", "modal")[i % 2]
        paths = []
        for side in "ab":
            path = tmp_path / f"{i}{side}.fms"
            path.write_text(serialize_structure(_random_structure(rnd, family == "modal", side)))
            paths.append(str(path))
        k = str(rnd.choice((2, 3)))
        for mode in ("full", "existential", "positive", "ep"):
            argv = ["check", "--family", family, "--mode", mode, "-k", k, "--both", *paths]
            code, took, _, _ = _run(argv + ["--via", "coalgebra"])
            assert took < BUDGET_S, (argv, took)
            assert code == _run(argv)[0], argv


def test_morphism_fuzz_within_budget(tmp_path):
    """``morphism`` on built coalgebras of seeded structures of size 5-6."""
    rnd = random.Random(SEED + 5)
    for i in range(16):
        modal = i % 2 == 1
        paths = []
        for side in "ab":
            a = _random_structure(rnd, modal, side)
            c = build_modal(a, 3) if modal else build_ef(a, 2, with_i=True)
            path = tmp_path / f"{i}{side}.fmc"
            path.write_text(serialize_coalgebra(c))
            paths.append(str(path))
        if rnd.random() < 0.3:
            paths[1] = paths[0]
        kinds = ("hom", "pathwise", "open") + (() if modal else ("i-morphism",))
        for kind in kinds:
            code, took, out, _ = _run(["morphism", "--kind", kind, *paths])
            assert took < BUDGET_S, (kind, paths, took)
            assert code in (0, 1) and out.startswith("morphism" if code == 0 else "none")


#: Vocabularies whose arities reach past the pair types (8) and the product
#: scans a relation of arity 40 would take.
WIDE_VOCABS = (
    Vocabulary((("Z", 0), ("U", 1), ("E", 2))),
    Vocabulary((("E", 2), ("T", 3))),
    Vocabulary((("U", 1), ("W", 9))),
    Vocabulary((("Z", 0), ("R", 40))),
)
BOUND_OF_FAMILY = {"ef": "rank", "pebble": "var_count", "modal": "modal_depth"}


def _random_wide(rnd: random.Random, vocab: Vocabulary, name: str, modal: bool) -> Structure:
    """A structure of 1-3 elements: dense relations of arity <= 2, a few
    random tuples in the wider ones."""
    elems = [f"{name}{i}" for i in range(rnd.randint(1, 3))]
    interp = {}
    for rel, arity in vocab.relations:
        if arity <= 2:
            interp[rel] = [t for t in itertools.product(elems, repeat=arity) if rnd.random() < 0.4]
        else:
            interp[rel] = [tuple(rnd.choice(elems) for _ in range(arity))
                           for _ in range(rnd.randint(0, 3))]
    return Structure.make(vocab, elems, interp, point=elems[0] if modal else None, name=name)


def _check_witness(text: str, a: Structure, b: Structure, family: str, mode: str, k: int):
    phi = parse_formula(text)
    assert model_check(phi, a) and not model_check(phi, b), text
    c = classify(phi)
    bound = getattr(c, BOUND_OF_FAMILY[family])
    assert c.in_mode[mode] and bound is not None and bound <= k, text


def test_wide_relations_end_in_a_verdict_or_a_diagnostic(monkeypatch):
    """Seeded pairs over relations of arity 0, 1, 2, 3, 9 and 40, plus the
    arity-40 pair whose product scans used to hang, through ``check --via
    game|oracle|coalgebra --both`` and ``distinguish`` for every family
    that applies.  Each command exits 0, 1 or 2 within the budget, exit 2
    with a diagnostic; every printed witness passes ``model_check`` and
    ``classify``; and the routes that answer agree.  The structures are
    handed to the command line by name: ``.fms`` text cannot hold a 0-ary
    relation."""
    rnd = random.Random(SEED + 6)
    r40 = Vocabulary((("R", 40),))
    a40 = Structure.make(r40, ["a", "b"], {"R": [("b",) + ("a",) * 39]}, name="A")
    b40 = Structure.make(r40, ["c", "d"], {}, name="B")
    pairs = [(a40, b40, "ef", mode, 2) for mode in ("full", "ep")]
    pairs += [(a40, b40, "pebble", mode, 2) for mode in ("full", "ep")]
    for i in range(96):
        family = ("ef", "pebble", "modal")[i % 3]
        vocab = MODAL if family == "modal" else WIDE_VOCABS[i // 3 % 4]
        pairs.append((_random_wide(rnd, vocab, "a", family == "modal"),
                      _random_wide(rnd, vocab, "b", family == "modal"), family,
                      rnd.choice(("full", "existential", "positive", "ep")), rnd.choice((1, 2))))
    codes = set()
    for n, (a, b, family, mode, k) in enumerate(pairs):
        loaded = {f"{n}a": a, f"{n}b": b}
        monkeypatch.setattr("fmgames.cli._load_structure", loaded.__getitem__)
        common = ["--family", family, "--mode", mode, "-k", str(k), f"{n}a", f"{n}b"]
        verdicts = {}
        vias = ("game", "oracle") + (() if family == "pebble" else ("coalgebra",))
        for via in vias:
            argv = ["check", "--via", via, "--both", "--format", "json", *common]
            code, took, out, err = _run(argv)
            assert code in (0, 1, 2), argv
            codes.add(code)
            if code == 2:
                assert err.startswith("error: ") and "internal error" not in err, (argv, err)
                continue
            verdicts[via] = code
            report = json.loads(out)
            for key, x, y in (("forward", a, b), ("backward", b, a)):
                if report[key]["witness"] is not None:
                    _check_witness(report[key]["witness"], x, y, family, mode, k)
        assert len(set(verdicts.values())) <= 1, (family, mode, k, a, b, verdicts)
        code, took, out, err = _run(["distinguish", *common])
        assert code in (0, 1), (common, err)
        if code == 0:
            _check_witness(out.strip(), a, b, family, mode, k)
        else:
            assert out.startswith("none"), out
    assert codes == {0, 1, 2}
