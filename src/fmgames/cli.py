"""Command-line surface: check, distinguish, modelcheck, build, validate,
morphism, laws, oracle, play.

Exit codes follow one contract everywhere: 0 = preserved / equivalent /
valid / true, 1 = the negative verdict, 2 = error with a diagnostic on
stderr.  Reports are plain text or stable key-sorted JSON and are
byte-identical across repeated runs on identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bisim import build_bisim, build_positive_bisim
from .coalgebras import (ForestCoalgebra, build_cofree, check_comonad_laws,
                         counit_map, parse_coalgebra, serialize_coalgebra,
                         validate_coalgebra)
from .formulas import MODES, classify, model_check, parse_formula, serialize_formula
from .games import GameSpec, IllegalMoveError, solve
from .morphisms import find_morphism
from .oracle import FragmentSpec, oracle_preserves
from .structures import (Structure, element_tokens, expand_i, iter_homomorphisms,
                         parse_structure)
from .synthesis import distinguish

SCHEMA_VERSION = 2

_FRAGMENT_OF_FAMILY = {"ef": "fo_rank", "pebble": "l_vars", "modal": "ml_depth"}

# the ``classify`` field a fragment family bounds by k
_BOUNDED_BY_FAMILY = {"fo_rank": "rank", "l_vars": "var_count", "ml_depth": "modal_depth"}

_MORPHISM_KIND_FLAGS = {
    "hom": "hom",
    "i-morphism": "i_morphism",
    "pathwise": "pathwise_embedding",
    "open": "open_pathwise_embedding",
}


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_structure(path: str) -> Structure:
    return parse_structure(_read(path))


def _load_coalgebra(path: str) -> ForestCoalgebra:
    return parse_coalgebra(_read(path))


def _formula_arg(text: str):
    if text.startswith("@"):
        text = _read(text[1:])
    return parse_formula(text)


def _emit(report: dict, fmt: str, text_lines):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _spec_from_args(args) -> GameSpec:
    return GameSpec(args.family, args.mode, args.k, args.n)


def _game_direction(spec: GameSpec, fmt: str, a: Structure, b: Structure) -> dict:
    verdict = solve(spec, a, b)
    out = {"preserved": verdict.duplicator_wins, "witness": None}
    if fmt == "json" and verdict.stage:  # ``bool`` counts the dead placements
        out["stageTable"] = {repr(sorted(pairs)): s
                             for pairs, s in verdict.stage.pair_sets().items()}
    if not verdict.duplicator_wins:
        out["witness"] = _game_witness(spec, a, b, verdict)
    return out


def _game_witness(spec: GameSpec, a: Structure, b: Structure, verdict) -> str:
    """The distinguishing formula of a Spoiler win, verified and serialized.
    Its bounds: rank <= k (EF), modal depth <= k (modal), and k variables
    with rank <= n (``-n``) or <= the empty placement's death stage."""
    phi = distinguish(spec, a, b, verdict)
    if spec.family == "ef":
        bounds = {"rank": spec.k}
    elif spec.family == "modal":
        bounds = {"modal_depth": spec.k}
    else:
        rounds = verdict.stage[frozenset()] if spec.rounds is None else spec.rounds
        bounds = {"var_count": spec.k, "rank": rounds}
    _verify_witness(phi, a, b, spec.mode, bounds, "distinguishing formula")
    return serialize_formula(phi)


def _verify_witness(phi, a: Structure, b: Structure, mode: str, bounds: dict, what: str):
    """Exit 2 unless ``phi`` is true in ``a``, false in ``b``, inside ``mode``
    and within ``bounds``, a limit per ``classify`` field."""
    if not model_check(phi, a) or model_check(phi, b):
        raise CliError(f"internal error: {what} failed verification")
    c = classify(phi)
    values = {field: getattr(c, field) for field in bounds}
    if not c.in_mode[mode] or any(v is None or v > bounds[f] for f, v in values.items()):
        raise CliError(f"internal error: {what} lies outside mode {mode} or its bounds: "
                       + ", ".join(f"{f} {v}, bound {bounds[f]}" for f, v in values.items()))


def _oracle_direction(args, a: Structure, b: Structure) -> dict:
    if getattr(args, "n", None) is not None:
        raise CliError("the oracle decides the unbounded k-variable fragment; "
                       "-n (bounded rounds) needs --via game")
    frag = FragmentSpec(_FRAGMENT_OF_FAMILY[args.family], args.k, args.mode)
    res = oracle_preserves(frag, a, b)
    phi = res.witness
    if res.preserved != (phi is None):
        raise CliError("internal error: oracle verdict and witness disagree")
    if phi is None:
        return {"preserved": True, "witness": None}
    _verify_witness(phi, a, b, frag.mode, {_BOUNDED_BY_FAMILY[frag.family]: frag.k},
                    "oracle witness")
    return {"preserved": False, "witness": serialize_formula(phi)}


def _coalgebra_direction(args, a: Structure, b: Structure) -> dict:
    family = args.family
    if family == "pebble":
        raise CliError("coalgebra route is available for the ef and modal families only")
    k = args.k
    if family == "ef":
        bisim_family = "ef_i"
        build = lambda s: build_cofree(s, "ef", k, with_i=True)
        hom_kind = "i_morphism"
    else:
        bisim_family = "modal"
        build = lambda s: build_cofree(s, "modal", k)
        hom_kind = "hom"
    negations, universals = MODES[args.mode]
    if universals:  # back and forth: a bisimulation of the cofree coalgebras
        found = (build_bisim if negations else build_positive_bisim)(a, b, bisim_family, k)
    else:  # forth only: a morphism between them
        found = find_morphism("pathwise_embedding" if negations else hom_kind,
                              build(a), build(b))
    return {"preserved": found is not None, "witness": None}


_DIRECTIONS = {"oracle": _oracle_direction, "coalgebra": _coalgebra_direction}


def cmd_check(args) -> int:
    spec = _spec_from_args(args)  # -k and -n are checked alike for every route
    a, b = _load_structure(args.file_a), _load_structure(args.file_b)
    if args.via == "game":
        direction = lambda x, y: _game_direction(spec, args.format, x, y)
    else:
        direction = lambda x, y: _DIRECTIONS[args.via](args, x, y)
    forward = direction(a, b)
    report = {
        "schemaVersion": SCHEMA_VERSION, "command": "check",
        "family": args.family, "mode": args.mode, "k": args.k,
        "via": args.via, "structures": [a.name, b.name],
        "forward": forward,
    }
    lines = [f"{a.name} => {b.name} [{args.family}/{args.mode}, k={args.k}, via {args.via}]: "
             + ("preserved" if forward["preserved"] else "not preserved")]
    if forward.get("witness"):
        lines.append(f"witness: {forward['witness']}")
    ok = forward["preserved"]
    if args.both:
        backward = direction(b, a)
        report["backward"] = backward
        report["equivalent"] = forward["preserved"] and backward["preserved"]
        lines.append(f"{b.name} => {a.name}: "
                     + ("preserved" if backward["preserved"] else "not preserved"))
        if backward.get("witness"):
            lines.append(f"witness: {backward['witness']}")
        lines.append("equivalent" if report["equivalent"] else "not equivalent")
        ok = report["equivalent"]
    _emit(report, args.format, lines)
    return 0 if ok else 1


def cmd_distinguish(args) -> int:
    a, b = _load_structure(args.file_a), _load_structure(args.file_b)
    spec = _spec_from_args(args)
    verdict = solve(spec, a, b)
    if verdict.duplicator_wins:
        print("none (Duplicator wins; the structures are not distinguishable here)")
        return 1
    print(_game_witness(spec, a, b, verdict))
    return 0


def cmd_modelcheck(args) -> int:
    phi = _formula_arg(args.formula)
    a = _load_structure(args.file)
    assignment = {}
    for binding in args.bind or ():
        var, _, val = binding.partition("=")
        if not var.startswith("x") or not var[1:].isdigit() or not val:
            raise CliError(f"bad binding {binding!r}, expected x<i>=<element>")
        assignment[int(var[1:])] = val
    result = model_check(phi, a, assignment)
    print("true" if result else "false")
    return 0 if result else 1


def cmd_build(args) -> int:
    a = _load_structure(args.file)
    c = build_cofree(a, args.family, args.k, args.n, args.with_i)
    text = serialize_coalgebra(c)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def cmd_validate(args) -> int:
    c = _load_coalgebra(args.file)
    violations = validate_coalgebra(c)
    report = {"schemaVersion": SCHEMA_VERSION, "command": "validate",
              "valid": not violations,
              "violations": [{"code": v.code, "witness": repr(v.witness),
                              "message": v.message} for v in violations]}
    lines = (["valid"] if not violations else
             [f"{v.code}: {v.message} at {v.witness!r}" for v in violations])
    _emit(report, args.format, lines)
    return 0 if not violations else 1


def cmd_morphism(args) -> int:
    x, y = _load_coalgebra(args.file_a), _load_coalgebra(args.file_b)
    for path, c in ((args.file_a, x), (args.file_b, y)):
        violations = validate_coalgebra(c)
        if violations:
            v = violations[0]
            raise CliError(f"{path}: {v.code}: {v.message} at {v.witness!r}")
    witness = find_morphism(_MORPHISM_KIND_FLAGS[args.kind], x, y)
    if witness is None:
        print("none")
        return 1
    tok_x = element_tokens(x.universe)
    tok_y = element_tokens(y.universe)
    lines = ["morphism", f"kind {args.kind}",
             "tags " + " ".join(sorted(witness.tags))]
    for e in x.universe:
        lines.append(f"map {tok_x[e]} {tok_y[witness.mapping[e]]}")
    print("\n".join(lines))
    return 0


def cmd_laws(args) -> int:
    a = _load_structure(args.file)
    c = build_cofree(a, args.family, args.k, args.n, args.with_i)
    base = a
    if args.with_i:
        base = expand_i(a)
    eps = counit_map(c)
    maps_f = [eps]
    maps_f += [{s: h[eps[s]] for s in c.universe} for h in _few_endos(base)]
    failures = []
    for f in maps_f:
        failures += check_comonad_laws(c, base, f, base, eps, base)
    if failures:
        for msg in sorted(set(failures)):
            print(msg)
        return 1
    print("all laws hold")
    return 0


def _few_endos(a: Structure, limit: int = 2) -> list[dict]:
    out = []
    for h in iter_homomorphisms(a, a):
        out.append(h)
        if len(out) >= limit:
            break
    return out


def cmd_oracle(args) -> int:
    a, b = _load_structure(args.file_a), _load_structure(args.file_b)
    forward = _oracle_direction(args, a, b)
    report = {"schemaVersion": SCHEMA_VERSION, "command": "oracle",
              "family": args.family, "mode": args.mode, "k": args.k,
              "forward": forward}
    lines = ["preserved" if forward["preserved"] else "not preserved"]
    if forward.get("witness"):
        lines.append(f"witness: {forward['witness']}")
    _emit(report, args.format, lines)
    return 0 if forward["preserved"] else 1


# ---------------------------------------------------------------------------
# Interactive play

def _parse_move(words, spec: GameSpec, verdict, side):
    family = spec.family
    if family == "ef":
        if len(words) != 1:
            raise IllegalMoveError("expected 'move <element>'", 0)
        return (side, words[0])
    if family == "pebble":
        if len(words) != 2 or not words[0].isdigit():
            raise IllegalMoveError("expected 'move <pebble> <element>'", 0)
        return (int(words[0]), side, words[1])
    if len(words) == 2:
        return (words[0], side, words[1])
    if len(words) == 1:
        rels = verdict.a.vocab.binary
        if len(rels) != 1:
            raise IllegalMoveError("ambiguous relation; use 'move <R> <element>'", 0)
        return (rels[0], side, words[0])
    raise IllegalMoveError("expected 'move [<R>] <element>'", 0)


def _status_lines(spec: GameSpec, verdict, key, played) -> list[str]:
    ok = verdict.condition_at(key)
    bindings = verdict.rules.bindings(key, played)
    if spec.family == "pebble":
        pos = ", ".join(f"{p}:({x},{y})" for p, x, y in bindings)
        head = f"pebbles [{pos}]"
    else:
        head = f"played A={[x for _, x, _ in bindings]} B={[y for _, _, y in bindings]}"
    return [head, f"condition: {'holds' if ok else 'violated'}"]


def _read_line(prompt: str) -> str:
    """One line of play input; the end of input reads as ``quit``."""
    try:
        return input(prompt).strip()
    except EOFError:
        return "quit"


def cmd_play(args) -> int:
    a, b = _load_structure(args.file_a), _load_structure(args.file_b)
    spec = _spec_from_args(args)
    verdict = solve(spec, a, b)
    human_spoiler = args.as_side == "spoiler"
    print(f"playing {spec.family}/{spec.mode} k={spec.k}; you are {args.as_side}; "
          f"engine {'Duplicator' if human_spoiler else 'Spoiler'}"
          f" ({'winning' if verdict.duplicator_wins == human_spoiler else 'losing'} position)")
    key, played = verdict.root, ()
    if not verdict.condition_at(key):
        print("initial position violates the winning condition: Spoiler wins")
        return 0
    side = "A"
    round_no = 0
    limit = spec.rounds if spec.family == "pebble" else spec.k
    while True:
        if limit is not None and round_no >= limit:
            print(f"all {limit} rounds survived: Duplicator wins")
            return 0
        if not human_spoiler:
            move = verdict.spoiler_move_at(key)
            if move is None and limit is None:
                print("Spoiler has no winning move: Duplicator wins the unbounded game")
                return 0
            if move is None:
                move = next(iter(verdict.moves(key)), None)
            if move is None:
                print("Spoiler has no move: Duplicator wins the remaining rounds")
                return 0
            print(f"engine (Spoiler) plays {move}")
            line = _read_line("your response> ")
            if line in ("quit", "q"):
                return 0
            responses = verdict.responses(key, move)
            if line not in map(str, responses):
                print(f"illegal response; options: {responses}")
                continue
            response = next(r for r in responses if str(r) == line)
        else:
            line = _read_line("spoiler> ")
            if not line:
                continue
            words = line.split()
            if words[0] in ("quit", "q"):
                return 0
            if words[0] == "status":
                for s in _status_lines(spec, verdict, key, played):
                    print(s)
                continue
            if words[0] == "side":
                if spec.forth_only:
                    print("this mode lets Spoiler play only in A")
                elif len(words) == 2 and words[1] in ("A", "B"):
                    side = words[1]
                    print(f"next move in {side}")
                else:
                    print("usage: side A|B")
                continue
            if words[0] != "move":
                print("commands: move, side A|B, status, quit")
                continue
            try:
                move = _parse_move(words[1:], spec, verdict, side)
            except IllegalMoveError as exc:
                print(exc)
                continue
            if not verdict.is_legal(key, move):
                print("illegal move (element unknown, wrong side, or no such transition)")
                continue
            response = verdict.duplicator_response(key, move)
            if response is None:
                options = verdict.responses(key, move)
                if not options:
                    print("Duplicator has no response: Spoiler wins")
                    return 0
                response = options[0]
            print(f"engine (Duplicator) answers {response}")
        key = verdict.child(key, move, response)
        played += (verdict.rules.pair(move, response),)
        round_no += 1
        if not verdict.condition_at(key):
            print(f"condition violated at round {round_no}: Spoiler wins")
            return 0
        print(f"round {round_no} complete; condition holds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fmgames",
                                     description="model-comparison games, coalgebras "
                                                 "and a preservation oracle on finite structures")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, mode=True, k=True):
        p.add_argument("--family", choices=("ef", "pebble", "modal"), required=True)
        if mode:
            p.add_argument("--mode", choices=tuple(MODES), default="full")
        if k:
            p.add_argument("-k", type=int, required=True)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="decide preservation/equivalence between two structures")
    add_common(p)
    p.add_argument("--via", choices=("game", "oracle", "coalgebra"), default="game")
    p.add_argument("--both", action="store_true", help="decide both directions (equivalence)")
    p.add_argument("-n", type=int, default=None, help="bounded-round pebble variant")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("distinguish", help="synthesize a distinguishing formula")
    add_common(p)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("modelcheck", help="evaluate a formula on a structure")
    p.add_argument("formula", help="formula text, or @file")
    p.add_argument("file")
    p.add_argument("--bind", action="append", metavar="x1=elem")
    p.set_defaults(func=cmd_modelcheck)

    p = sub.add_parser("build", help="build a cofree coalgebra file")
    p.add_argument("--family", choices=("ef", "pebble", "modal"), required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, default=None, help="pebble truncation depth")
    p.add_argument("--with-I", dest="with_i", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("file")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("validate", help="validate a coalgebra file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("morphism", help="search a morphism between two coalgebras")
    p.add_argument("--kind", choices=tuple(_MORPHISM_KIND_FLAGS), default="hom")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_morphism)

    p = sub.add_parser("laws", help="check the comonad laws over a structure")
    p.add_argument("--family", choices=("ef", "pebble", "modal"), required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--with-I", dest="with_i", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=cmd_laws)

    p = sub.add_parser("oracle", help="preservation verdict of the refinement oracle")
    add_common(p)
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("play", help="interactive game against the engine")
    add_common(p)
    p.add_argument("--as", dest="as_side", choices=("spoiler", "duplicator"),
                   default="spoiler")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_play)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
