"""Golden CLI regression: exact stdout, stderr and exit code per command.

Every case runs ``fmgames.cli.main`` on the calibration inputs written by
``write_inputs`` and compares the captured streams with the pinned values in
``golden_cli.json``; replay cases compare ``Transcript.lines()``.  A diff
here means the observable behaviour of the command line changed.

To re-pin after an intended change of output, run this file as a script:
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import builtins
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from fmgames import (GameSpec, build_cofree, parse_structure, replay,
                     serialize_coalgebra, solve)
from fmgames.cli import main
from fmgames.corpus import (clique, edge_structure, linear_order,
                            loop_structure)
from fmgames.structures import serialize_structure

GOLDEN = Path(__file__).with_name("golden_cli.json")
MODES = ("full", "existential", "positive", "ep")

_MODAL_TEXT = {
    "MA": "vocab R/2 P/1\nstructure MA\nelems a s\nrel R a s\npoint a\n",
    "MB": "vocab R/2 P/1\nstructure MB\nelems b\npoint b\n",
    "MC": ("vocab R/2 P/1\nstructure MC\nelems a b c\nrel R a b\nrel R a c\n"
           "rel R b c\nrel P c\npoint a\n"),
}


#: Coalgebra files as ``build`` writes them: name -> (structure, family, k, n, with_i).
_COALGEBRAS = {
    "Fedge": ("edge", "ef", 2, None, True), "Floop": ("loop", "ef", 2, None, True),
    "FL3": ("L3", "ef", 2, None, True), "FL4": ("L4", "ef", 2, None, True),
    "MMA": ("MA", "modal", 2, None, False), "MMC": ("MC", "modal", 2, None, False),
    "PK2": ("K2", "pebble", 2, 2, False), "PK3": ("K3", "pebble", 2, 2, False),
}


def write_inputs(root: Path) -> dict:
    structures = {"edge": edge_structure(), "loop": loop_structure(),
                  "L3": linear_order(3), "L4": linear_order(4),
                  "K2": clique(2), "K3": clique(3)}
    structures.update({name: parse_structure(text) for name, text in _MODAL_TEXT.items()})
    texts = {name: serialize_structure(s) for name, s in structures.items()}
    texts.update(_MODAL_TEXT)
    for name, (base, family, k, n, with_i) in _COALGEBRAS.items():
        texts[name] = serialize_coalgebra(build_cofree(structures[base], family, k, n, with_i))
    paths = {}
    for name, text in texts.items():
        path = root / f"{name}.fms"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def _check_cases() -> list:
    cases = []
    configs = [("ef", "2", "L3", "L4"), ("ef", "3", "L3", "L4"),
               ("ef", "2", "edge", "loop"), ("modal", "2", "MA", "MB"),
               ("modal", "2", "MA", "MC"), ("pebble", "2", "K2", "K3"),
               ("pebble", "3", "K2", "K3")]
    for family, k, a, b in configs:
        for mode in MODES:
            for fmt in ("text", "json"):
                cases.append((f"check {family} k={k} {a}/{b} {mode} {fmt}",
                              ["check", "--family", family, "--mode", mode, "-k", k,
                               "--both", "--format", fmt, a, b], []))
    for mode in MODES:
        for fmt in ("text", "json"):
            cases.append((f"check pebble k=2 n=3 K3/K2 {mode} {fmt}",
                          ["check", "--family", "pebble", "--mode", mode, "-k", "2",
                           "-n", "3", "--both", "--format", fmt, "K3", "K2"], []))
        for via in ("oracle", "coalgebra"):
            cases.append((f"check ef via {via} edge/loop {mode}",
                          ["check", "--family", "ef", "--mode", mode, "-k", "2",
                           "--via", via, "--both", "edge", "loop"], []))
    cases.append(("check pebble via coalgebra",
                  ["check", "--family", "pebble", "-k", "2", "--via", "coalgebra",
                   "K2", "K3"], []))
    return cases


def _distinguish_cases() -> list:
    runs = [("ef", "existential", "2", [], "edge", "loop"),
            ("ef", "full", "3", [], "L3", "L4"),
            ("ef", "full", "2", [], "L3", "L4"),
            ("modal", "existential", "2", [], "MA", "MB"),
            ("modal", "full", "2", [], "MC", "MA"),
            ("modal", "positive", "2", [], "MB", "MA"),
            ("pebble", "full", "3", [], "K3", "K2"),
            ("pebble", "existential", "3", [], "K3", "K2"),
            ("pebble", "full", "2", ["-n", "3"], "K3", "K2"),
            ("pebble", "full", "3", ["-n", "2"], "K3", "K2")]
    return [(f"distinguish {family} {mode} k={k}{' n=' + extra[1] if extra else ''} {a}/{b}",
             ["distinguish", "--family", family, "--mode", mode, "-k", k, *extra, a, b], [])
            for family, mode, k, extra, a, b in runs]


def _play_cases() -> list:
    def play(family, mode, k, side, a, b, lines, extra=()):
        return (f"play {family} {mode} k={k} as {side} {a}/{b} {' '.join(lines)}",
                ["play", "--family", family, "--mode", mode, "-k", k, *extra,
                 "--as", side, a, b], lines)

    return [
        play("modal", "full", "2", "spoiler", "MA", "MB", ["status", "move s"]),
        play("modal", "full", "2", "spoiler", "MB", "MA",
             ["move s", "side B", "move R s", "quit"]),
        play("modal", "full", "2", "spoiler", "MC", "MC",
             ["move x", "move R b", "status", "side B", "move c", "move c"]),
        play("modal", "existential", "2", "spoiler", "MC", "MA",
             ["side B", "move a b c", "move b", "move c"]),
        play("modal", "full", "2", "duplicator", "MC", "MA", ["t", "s", "quit"]),
        play("modal", "positive", "2", "duplicator", "MC", "MC", ["b", "c", "c"]),
        play("pebble", "full", "3", "spoiler", "K3", "K2",
             ["move 1 c0", "status", "move 2 c1", "move c2", "move 9 c2",
              "move 3 c2"]),
        play("pebble", "full", "2", "spoiler", "K3", "K2",
             ["move 1 c0", "side B", "move 2 c1", "status", "move 1 c9", "quit"]),
        play("pebble", "full", "2", "spoiler", "K2", "K3",
             ["move 1 c0", "move 2 c1", "move 1 c1"], ["-n", "3"]),
        play("pebble", "existential", "3", "duplicator", "K3", "K2",
             ["c0", "c1", "c0", "quit"]),
        play("pebble", "full", "2", "duplicator", "K2", "K3",
             ["c0", "c1", "c0", "quit"]),
    ]


def _morphism_cases() -> list:
    pairs = [("Fedge", "Fedge"), ("Fedge", "Floop"), ("Floop", "Fedge"), ("FL3", "FL4"),
             ("FL4", "FL3"), ("MMA", "MMC"), ("MMC", "MMA"), ("MMC", "MMC"),
             ("PK2", "PK3"), ("PK3", "PK2")]
    return [(f"morphism {kind} {a}/{b}", ["morphism", "--kind", kind, a, b], [])
            for a, b in pairs for kind in ("hom", "i-morphism", "pathwise", "open")]


CASES = _check_cases() + _distinguish_cases() + _play_cases() + _morphism_cases()

REPLAYS = [
    ("ef", "existential", 2, None, "edge", "loop", ["v", "w"]),
    ("ef", "full", 2, None, "L3", "L4", [("A", "a0"), ("B", "a3")]),
    ("ef", "full", 3, None, "L3", "L4", [("A", "a1"), ("B", "a0"), ("B", "a2")]),
    ("modal", "full", 2, None, "MA", "MB", [("R", "A", "s")]),
    ("modal", "full", 2, None, "MC", "MC", [("R", "A", "b"), ("R", "B", "c")]),
    ("modal", "existential", 2, None, "MC", "MA", [("R", "A", "c")]),
    ("pebble", "full", 3, None, "K3", "K2",
     [(1, "A", "c0"), (2, "A", "c1"), (3, "A", "c2")]),
    ("pebble", "full", 2, None, "K2", "K3",
     [(1, "B", "c0"), (2, "B", "c1"), (1, "B", "c2"), (2, "A", "c0")]),
    ("pebble", "positive", 2, 3, "K3", "K2", [(1, "A", "c0"), (2, "A", "c1")]),
]


def run_case(argv: list, lines: list, paths: dict) -> dict:
    argv = [paths.get(word, word) for word in argv]
    feed = iter(lines)
    out, err = io.StringIO(), io.StringIO()
    saved = builtins.input
    builtins.input = lambda prompt="": next(feed)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        builtins.input = saved
    return {"exit": code, "stdout": out.getvalue().splitlines(),
            "stderr": err.getvalue().splitlines()}


def run_replay(case, paths: dict) -> list:
    family, mode, k, rounds, a_name, b_name, script = case
    a = parse_structure(Path(paths[a_name]).read_text())
    b = parse_structure(Path(paths[b_name]).read_text())
    spec = GameSpec(family, mode, k, rounds)
    return replay(spec, a, b, solve(spec, a, b), script).lines()


def replay_name(case) -> str:
    family, mode, k, rounds, a, b, script = case
    return f"replay {family} {mode} k={k} n={rounds} {a}/{b} {script!r}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


def test_golden_covers_every_case(golden):
    names = [name for name, _, _ in CASES] + [replay_name(c) for c in REPLAYS]
    assert len(set(names)) == len(names)
    assert sorted(golden) == sorted(names)


@pytest.mark.parametrize("name,argv,lines", CASES, ids=[c[0] for c in CASES])
def test_cli_output_is_pinned(golden, paths, name, argv, lines):
    assert run_case(argv, lines, paths) == golden[name]


@pytest.mark.parametrize("case", REPLAYS, ids=[replay_name(c) for c in REPLAYS])
def test_replay_transcript_is_pinned(golden, paths, case):
    assert run_replay(case, paths) == golden[replay_name(case)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        where = write_inputs(Path(tmp))
        pinned = {name: run_case(argv, lines, where) for name, argv, lines in CASES}
        pinned.update({replay_name(c): run_replay(c, where) for c in REPLAYS})
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(pinned)} cases in {GOLDEN}", file=sys.stderr)
