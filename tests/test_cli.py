import json

import pytest

from fmgames import (FALSE, TRUE, And, Atom, Box, Dia, Exists, NegEq, OracleResult, model_check,
                     parse_formula, parse_structure)
from fmgames.cli import main
from fmgames.corpus import clique, linear_order
from fmgames.structures import serialize_structure


@pytest.fixture
def files(tmp_path):
    paths = {}
    paths["edge"] = tmp_path / "edge.fms"
    paths["edge"].write_text("vocab E/2\nstructure edge\nelems v w\nrel E v w\n")
    paths["loop"] = tmp_path / "loop.fms"
    paths["loop"].write_text("vocab E/2\nstructure loop\nelems u\nrel E u u\n")
    for m in (2, 3, 4):
        paths[f"L{m}"] = tmp_path / f"L{m}.fms"
        paths[f"L{m}"].write_text(serialize_structure(linear_order(m)))
    paths["empty"] = tmp_path / "empty.fms"
    paths["empty"].write_text("vocab E/2\nstructure empty\nelems\n")
    paths["modal_a"] = tmp_path / "ma.fms"
    paths["modal_a"].write_text(
        "vocab R/2 P/1\nstructure MA\nelems a s\nrel R a s\npoint a\n")
    paths["modal_b"] = tmp_path / "mb.fms"
    paths["modal_b"].write_text("vocab R/2 P/1\nstructure MB\nelems b\npoint b\n")
    return {k: str(v) for k, v in paths.items()}


def test_check_equivalence_exit_zero(files, capsys):
    code = main(["check", "--family", "ef", "--mode", "full", "-k", "2",
                 "--both", files["L3"], files["L4"]])
    assert code == 0
    assert "equivalent" in capsys.readouterr().out


def test_check_failure_reports_witness(files, capsys):
    code = main(["check", "--family", "ef", "--mode", "existential", "-k", "2",
                 files["edge"], files["loop"]])
    assert code == 1
    out = capsys.readouterr().out
    assert "not preserved" in out and "witness:" in out


def test_check_bad_file_exit_two(files, tmp_path, capsys):
    bad = tmp_path / "bad.fms"
    bad.write_text("structure X\n")
    code = main(["check", "--family", "ef", "-k", "1", files["edge"], str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("game", [["--family", "ef"], ["--family", "pebble", "-n", "4"]])
def test_check_beyond_the_position_cap_exit_two(game, tmp_path, capsys):
    paths = []
    for m in (15, 16):
        paths.append(tmp_path / f"L{m}.fms")
        paths[-1].write_text(serialize_structure(linear_order(m)))
    code = main(["check", *game, "--mode", "full", "-k", "4", *map(str, paths)])
    assert code == 2
    assert "memoized positions exceed cap" in capsys.readouterr().err


def test_check_vocab_mismatch_exit_two(files, tmp_path, capsys):
    other = tmp_path / "other.fms"
    other.write_text("vocab F/2\nstructure O\nelems a\n")
    code = main(["check", "--family", "ef", "-k", "1", files["edge"], str(other)])
    assert code == 2


def test_vias_agree_and_reports_stable(files, capsys):
    outputs = {}
    for via in ("game", "oracle", "coalgebra"):
        code = main(["check", "--family", "ef", "--mode", "ep", "-k", "2",
                     "--via", via, "--format", "json", files["edge"], files["loop"]])
        assert code == 0
        outputs[via] = json.loads(capsys.readouterr().out)
        assert outputs[via]["forward"]["preserved"] is True
    # byte-identical across repeated runs
    main(["check", "--family", "ef", "--mode", "ep", "-k", "2",
          "--via", "game", "--format", "json", files["edge"], files["loop"]])
    first = capsys.readouterr().out
    main(["check", "--family", "ef", "--mode", "ep", "-k", "2",
          "--via", "game", "--format", "json", files["edge"], files["loop"]])
    assert capsys.readouterr().out == first


def test_distinguish_prints_verified_formula(files, capsys):
    code = main(["distinguish", "--family", "ef", "--mode", "existential",
                 "-k", "2", files["edge"], files["loop"]])
    assert code == 0
    formula = capsys.readouterr().out.strip()
    assert "E x1." in formula
    code = main(["distinguish", "--family", "ef", "--mode", "full", "-k", "2",
                 files["L3"], files["L4"]])
    assert code == 1
    assert "none" in capsys.readouterr().out


def test_modelcheck_and_bindings(files, capsys):
    assert main(["modelcheck", "E x1. E(x1,x1)", files["loop"]]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["modelcheck", "E(x1,x2)", files["edge"],
                 "--bind", "x1=v", "--bind", "x2=w"]) == 0
    assert main(["modelcheck", "E(x1,x2)", files["edge"],
                 "--bind", "x1=w", "--bind", "x2=v"]) == 1


@pytest.mark.parametrize("formula, binds, culprit", [
    ("!E(x1,x2)", ["x1=v", "x2=zz"], "x2"),
    ("x1=x1", ["x1=zz"], "x1"),
    ("E x2. E(x1,x2)", ["x1=zz"], "x1"),
])
def test_modelcheck_binding_outside_the_universe_exit_two(files, capsys, formula, binds,
                                                          culprit):
    argv = ["modelcheck", formula, files["edge"]]
    for bind in binds:
        argv += ["--bind", bind]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {culprit} bound to 'zz', not in universe\n"


def test_memory_error_exits_two_without_a_traceback(files, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("fmgames.cli.solve", exhausted)
    assert main(["check", "--family", "ef", "-k", "2", files["L3"], files["L4"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


@pytest.mark.parametrize("argv", [
    ["E x1. Q(x1)", "edge"],
    ["!E(x1,x1,x1)", "edge", "--bind", "x1=v"],
    ["!q", "modal_a"],
    ["!R", "modal_a"],
])
def test_modelcheck_vocabulary_mismatch_exit_two(files, capsys, argv):
    formula, name, *rest = argv
    assert main(["modelcheck", formula, files[name], *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_build_validate_morphism_pipeline(files, tmp_path, capsys):
    fa = tmp_path / "edgeF.fmc"
    fb = tmp_path / "loopF.fmc"
    assert main(["build", "--family", "ef", "-k", "2", "--with-I",
                 files["edge"], "-o", str(fa)]) == 0
    assert main(["build", "--family", "ef", "-k", "2", "--with-I",
                 files["loop"], "-o", str(fb)]) == 0
    assert main(["validate", str(fa)]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    assert main(["morphism", "--kind", "pathwise", str(fa), str(fb)]) == 1
    assert capsys.readouterr().out.strip() == "none"
    assert main(["morphism", "--kind", "i-morphism", str(fa), str(fb)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("morphism\n") and "map " in out and "tags" in out


def test_build_to_stdout_deterministic(files, capsys):
    main(["build", "--family", "modal", "-k", "2", files["modal_a"]])
    first = capsys.readouterr().out
    main(["build", "--family", "modal", "-k", "2", files["modal_a"]])
    assert capsys.readouterr().out == first
    assert first.startswith("vocab R/2 P/1")


def test_laws_command(files, capsys):
    runs = [("ef", [], files["loop"]), ("modal", [], files["modal_a"]),
            ("pebble", ["-n", "2"], files["loop"])]
    # the empty structure, whose pebble coalgebra has an empty carrier
    runs += [(family, extra + with_i, files["empty"])
             for family, extra in (("ef", []), ("pebble", ["-n", "1"]))
             for with_i in ([], ["--with-I"])]
    for family, extra, target in runs:
        code = main(["laws", "--family", family, "-k", "2", *extra, target])
        assert code == 0, (family, extra, target)
        assert capsys.readouterr().out.strip() == "all laws hold"


@pytest.mark.parametrize("command", ["build", "laws"])
@pytest.mark.parametrize("family,extra,message", [
    ("ef", ["-n", "3"], "truncation depth n applies to the pebble kind only, not 'ef'"),
    ("modal", ["-n", "3"], "truncation depth n applies to the pebble kind only, not 'modal'"),
    ("modal", ["--with-I"], "with_i (the I-expansion) does not apply to the modal kind"),
])
def test_build_and_laws_refuse_options_outside_their_kind(files, capsys, command,
                                                          family, extra, message):
    target = files["modal_a"] if family == "modal" else files["edge"]
    code = main([command, "--family", family, "-k", "1", *extra, target])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_oracle_command(files, capsys):
    code = main(["oracle", "--family", "modal", "--mode", "existential",
                 "-k", "1", files["modal_a"], files["modal_b"]])
    assert code == 1
    assert "witness" in capsys.readouterr().out
    code = main(["oracle", "--family", "ef", "--mode", "ep", "-k", "2",
                 files["edge"], files["loop"]])
    assert code == 0


E_XY = Atom("E", (1, 2))
DISTINCT_EDGE = Exists(1, Exists(2, And((E_XY, NegEq(1, 2)))))


@pytest.mark.parametrize("command, family, mode, k, files_ab, result", [
    # true in both structures
    ("oracle", "ef", "existential", 2, ("edge", "loop"),
     OracleResult(False, Exists(1, Exists(2, E_XY)))),
    # rank 3 above k = 2
    ("oracle", "ef", "existential", 2, ("edge", "loop"),
     OracleResult(False, Exists(3, DISTINCT_EDGE))),
    # a negation outside ep
    ("check", "ef", "ep", 2, ("edge", "loop"),
     OracleResult(False, Exists(1, Exists(2, NegEq(1, 2))))),
    # two variables above k = 1
    ("check", "pebble", "existential", 1, ("edge", "loop"), OracleResult(False, DISTINCT_EDGE)),
    # modal depth 2 above k = 1
    ("oracle", "modal", "full", 1, ("modal_a", "modal_b"),
     OracleResult(False, Dia("R", Box("R", FALSE)))),
    # a verdict with no witness, and a witness with a positive verdict
    ("oracle", "ef", "existential", 2, ("edge", "loop"), OracleResult(False)),
    ("oracle", "ef", "existential", 2, ("edge", "loop"), OracleResult(True, TRUE)),
])
def test_oracle_witness_is_verified_before_printing(files, capsys, monkeypatch, command,
                                                     family, mode, k, files_ab, result):
    monkeypatch.setattr("fmgames.cli.oracle_preserves", lambda frag, a, b: result)
    args = [command, "--family", family, "--mode", mode, "-k", str(k),
            *(files[f] for f in files_ab)]
    if command == "check":
        args.append("--via=oracle")
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal error: ")


@pytest.mark.parametrize("family, mode, k, n, files_ab, witness", [
    # rank 3 above k = 2
    ("ef", "existential", 2, None, ("edge", "loop"), "E x1. E x2. E x3. !E(x1,x1)"),
    # a universal outside existential
    ("ef", "existential", 2, None, ("edge", "loop"), "A x1. E x1. !E(x1,x1)"),
    # a negation outside ep
    ("ef", "ep", 1, None, ("loop", "edge"), "E x1. (E(x1,x1) & (x1=x1 | !(x1=x1)))"),
    # modal depth 2 above k = 1, and a first-order formula with no modal depth
    ("modal", "full", 1, None, ("modal_a", "modal_b"), "<R> [R] false"),
    ("modal", "full", 1, None, ("modal_a", "modal_b"), "E x1. E x2. R(x1,x2)"),
    # two variables above k = 1 (the death stage is 1)
    ("pebble", "existential", 1, None, ("edge", "loop"), "E x1. E x2. (E(x1,x2) & !(x1=x2))"),
    # rank 2 above the death stage 1, inside k = 2 variables
    ("pebble", "full", 2, None, ("edge", "loop"), "E x1. E x1. !E(x1,x1)"),
    # a universal outside ep
    ("pebble", "ep", 1, None, ("loop", "edge"), "A x1. E(x1,x1)"),
    # -n: rank 2 above n = 1, and three variables above k = 2 at rank n = 3
    ("pebble", "full", 2, 1, ("edge", "loop"), "E x1. E x1. !E(x1,x1)"),
    ("pebble", "full", 2, 3, ("edge", "loop"), "E x1. E x2. E x3. !E(x1,x1)"),
])
@pytest.mark.parametrize("command", ["check", "distinguish"])
def test_game_witness_is_verified_before_printing(files, capsys, monkeypatch, command,
                                                  family, mode, k, n, files_ab, witness):
    # each witness is true in A and false in B, so only its mode or its
    # bound can refuse it
    a, b = (parse_structure(open(files[f]).read()) for f in files_ab)
    phi = parse_formula(witness)
    assert model_check(phi, a) and not model_check(phi, b)
    monkeypatch.setattr("fmgames.cli.distinguish", lambda spec, a, b, verdict: phi)
    args = [command, "--family", family, "--mode", mode, "-k", str(k),
            *(files[f] for f in files_ab)]
    if n is not None:
        args += ["-n", str(n)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal error: distinguishing formula lies outside")


def test_bounded_pebble_via_oracle_exit_two(tmp_path, capsys):
    # the oracle has no bounded-round pebble fragment; it must not answer
    # the unbounded question in its place (K2/K3 at k=3, n=1 is preserved)
    paths = []
    for m in (2, 3):
        path = tmp_path / f"K{m}.fms"
        path.write_text(serialize_structure(clique(m)))
        paths.append(str(path))
    args = ["check", "--family", "pebble", "--mode", "full", "-k", "3", "-n", "1", *paths]
    assert main(args) == 0
    capsys.readouterr()
    assert main([*args, "--via", "oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "-n" in captured.err


def test_play_scripted_session(files, capsys, monkeypatch):
    lines = iter(["move v", "move w", "quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    code = main(["play", "--family", "ef", "--mode", "existential", "-k", "2",
                 "--as", "spoiler", files["edge"], files["loop"]])
    assert code == 0
    out = capsys.readouterr().out
    assert "you are spoiler" in out
    assert "Spoiler wins" in out


def test_play_mirror_on_identical(files, capsys, monkeypatch):
    lines = iter(["move v", "status", "move w"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    code = main(["play", "--family", "ef", "--mode", "existential", "-k", "2",
                 "--as", "spoiler", files["edge"], files["edge"]])
    assert code == 0
    out = capsys.readouterr().out
    assert "Duplicator wins" in out
    assert "condition: holds" in out


def test_play_side_switch_full_mode(files, capsys, monkeypatch):
    lines = iter(["side B", "move a0", "move a1"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    code = main(["play", "--family", "ef", "--mode", "full", "-k", "2",
                 "--as", "spoiler", files["L3"], files["L4"]])
    assert code == 0
    out = capsys.readouterr().out
    assert "next move in B" in out
    assert "Duplicator wins" in out


def test_play_as_duplicator(files, capsys, monkeypatch):
    # engine is Spoiler on edge -> loop existential: it has a winning move
    lines = iter(["u", "u", "quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    code = main(["play", "--family", "ef", "--mode", "existential", "-k", "2",
                 "--as", "duplicator", files["edge"], files["loop"]])
    assert code == 0
    out = capsys.readouterr().out
    assert "engine (Spoiler) plays" in out
    assert "Spoiler wins" in out


def test_play_rejects_illegal_side_in_forth_only(files, capsys, monkeypatch):
    lines = iter(["side B", "move v", "move v"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    code = main(["play", "--family", "ef", "--mode", "existential", "-k", "2",
                 "--as", "spoiler", files["edge"], files["edge"]])
    assert code == 0
    assert "only in A" in capsys.readouterr().out


@pytest.mark.parametrize("prompt_side", ["spoiler", "duplicator"])
def test_play_ends_on_end_of_input(files, capsys, monkeypatch, prompt_side):
    def closed(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", closed)
    code = main(["play", "--family", "ef", "--mode", "existential", "-k", "2",
                 "--as", prompt_side, files["edge"], files["loop"]])
    assert code == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("via", ["game", "oracle", "coalgebra"])
def test_check_rejects_k_zero_on_every_route(files, capsys, via):
    code = main(["check", "--family", "ef", "-k", "0", "--via", via,
                 files["edge"], files["loop"]])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "k must be a positive integer" in captured.err


@pytest.mark.parametrize("command", ["check", "distinguish", "play"])
@pytest.mark.parametrize("family,a,b", [("ef", "L3", "L4"), ("modal", "modal_a", "modal_b")])
def test_rounds_outside_the_pebble_family_exit_two(files, capsys, monkeypatch,
                                                   command, family, a, b):
    monkeypatch.setattr("builtins.input", lambda prompt="": "quit")
    code = main([command, "--family", family, "-k", "2", "-n", "3", files[a], files[b]])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rounds applies to the pebble family only" in captured.err


def test_check_stage_table_by_pair_set(tmp_path, capsys):
    # K4/K5 at k=5 covers 4,084,101 placements but only 501 pair sets
    paths = []
    for m in (4, 5):
        paths.append(tmp_path / f"K{m}.fms")
        paths[-1].write_text(serialize_structure(clique(m)))
    code = main(["check", "--family", "pebble", "--mode", "full", "-k", "5",
                 "--format", "json", *map(str, paths)])
    out = capsys.readouterr().out
    assert code == 1 and len(out) < 100_000
    report = json.loads(out)
    assert report["schemaVersion"] == 2
    table = report["forward"]["stageTable"]
    assert len(table) == 501 and table["[]"] == 5
    assert table["[('c0', 'c0')]"] == 4
    assert report["forward"]["witness"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_pebble_many_pebbles(tmp_path, capsys, fmt):
    # K2/K3 at k=40 has about 7^40 dead placements and 13 pair sets
    paths = []
    for m in (2, 3):
        paths.append(tmp_path / f"K{m}.fms")
        paths[-1].write_text(serialize_structure(clique(m)))
    code = main(["check", "--family", "pebble", "-k", "40", "--format", fmt, *map(str, paths)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    if fmt == "json":
        table = json.loads(captured.out)["forward"]["stageTable"]
        assert len(table) == 13 and table["[]"] == 3
    else:
        assert "not preserved" in captured.out and "witness: " in captured.out


def test_all_vias_agree_on_regression_corpus(files):
    cases = [
        ("ef", m, k, files[a], files[b])
        for m in ("full", "existential", "positive", "ep")
        for k in ("1", "2")
        for a, b in (("edge", "loop"), ("loop", "edge"), ("L2", "L3"), ("L3", "L4"))
    ] + [
        ("modal", m, "1", files["modal_a"], files["modal_b"])
        for m in ("full", "existential", "positive", "ep")
    ]
    for family, mode, k, fa, fb in cases:
        codes = set()
        for via in ("game", "oracle", "coalgebra"):
            codes.add(main(["check", "--family", family, "--mode", mode,
                            "-k", k, "--via", via, fa, fb]))
        assert len(codes) == 1, (family, mode, k, fa, fb, codes)


def test_validate_parent_cycle_is_a_verdict(tmp_path, capsys):
    cyclic = tmp_path / "cyclic.fmc"
    cyclic.write_text("vocab E/2\nstructure C\nelems a b\nforest\nparent a b\nparent b a\n")
    assert main(["validate", str(cyclic)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("forest-cycle:")
    assert captured.err == ""


def test_morphism_on_an_invalid_coalgebra_exit_two(tmp_path, capsys):
    # t has no pebble number, which the search cannot read
    bad = tmp_path / "bad.fmc"
    bad.write_text("vocab E/2\nstructure C\nelems s t\nforest\nroot s\nroot t\npebble s 1\n")
    assert main(["morphism", "--kind", "hom", str(bad), str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: pebble-range: pebbling function out of range at ('t',)\n"
