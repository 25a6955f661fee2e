import itertools
import random
import time

import pytest

import fmgames
from fmgames import (BOTTOM, BisimVerificationError, ForestCoalgebra, GameSpec, Structure,
                     back_forth, build_bisim, build_ef, build_modal, build_positive_bisim,
                     extract_back_forth, find_morphism, solve, validate_back_forth,
                     verify_bisim, verify_positive_bisim)
from fmgames.bisim import BisimWitness, PositiveBisimWitness, _spans
from fmgames.corpus import all_digraphs, all_pointed_kripke

from conftest import (SIX, kripke, reference_back_forth, reference_pull_back,
                      small_structures)

MODES = ("full", "existential", "positive", "ep")


def test_backforth_diagonal_on_identical(edge):
    x = build_ef(edge, 2, with_i=True)
    system = back_forth("positive", x, x)
    assert system is not None
    assert all((n, n) in system.pairs for n in (BOTTOM,) + x.universe)
    assert validate_back_forth(system, x, x, "positive") == []


def test_backforth_point_vs_loop_example(loop):
    pt = Structure.make(loop.vocab, ["p"], {}, name="pt")
    ptloop = Structure.make(loop.vocab, ["q"], {"E": [("q", "q")]}, name="ptloop")
    x = build_ef(pt, 1, with_i=True)
    y = build_ef(ptloop, 1, with_i=True)
    system = back_forth("positive", x, y)
    assert system is not None
    assert system.pairs == frozenset({(BOTTOM, BOTTOM), (("p",), ("q",))})
    assert back_forth("positive", y, x) is None  # loop tuple not preserved


def test_positive_bisim_construction(loop):
    pt = Structure.make(loop.vocab, ["p"], {}, name="pt")
    ptloop = Structure.make(loop.vocab, ["q"], {"E": [("q", "q")]}, name="ptloop")
    w = build_positive_bisim(pt, ptloop, "ef_i", 2)
    assert w is not None
    # h is a non-embedding bijective homomorphism: Z2 carries strictly more tuples
    z1_tuples = {r: t for r, t in w.z1.carrier.interp.items()}
    z2_tuples = {r: t for r, t in w.z2.carrier.interp.items()}
    assert z1_tuples != z2_tuples
    assert all(z1_tuples[r] <= z2_tuples[r] for r in z1_tuples)
    x = build_ef(pt, 2, with_i=True)
    y = build_ef(ptloop, 2, with_i=True)
    ok, reasons = verify_positive_bisim(w, x, y)
    assert ok, reasons
    assert build_positive_bisim(ptloop, pt, "ef_i", 2) is None


def test_positive_bisim_identity(edge):
    w = build_positive_bisim(edge, edge, "ef_i", 2)
    assert w is not None
    assert w.z1.carrier.interp == w.z2.carrier.interp  # diagonal plays


def test_verify_rejects_broken_witness(loop):
    pt = Structure.make(loop.vocab, ["p"], {}, name="pt")
    ptloop = Structure.make(loop.vocab, ["q"], {"E": [("q", "q")]}, name="ptloop")
    w = build_positive_bisim(pt, ptloop, "ef_i", 1)
    x = build_ef(pt, 1, with_i=True)
    y = build_ef(ptloop, 1, with_i=True)
    bad_h = dict(w.h)
    first = next(iter(bad_h))
    bad_h[first] = first  # identity already; break bijectivity instead
    if len(bad_h) > 1:
        other = [k for k in bad_h if k != first][0]
        bad_h[other] = bad_h[first]
    from fmgames.bisim import PositiveBisimWitness
    broken = PositiveBisimWitness(w.z1, w.z2, bad_h, w.p, w.q)
    ok, reasons = verify_positive_bisim(broken, x, y)
    if len(w.h) > 1:
        assert not ok
        assert any("bijective" in r or "injective" in r for r in reasons)


def test_verify_bisim_detects_missing_child(edge):
    w = build_bisim(edge, edge, "ef_i", 2)
    assert w is not None
    x = build_ef(edge, 2, with_i=True)
    ok, reasons = verify_bisim(w, x, x)
    assert ok, reasons
    # drop a maximal element of Z: the projection stops lifting covers
    drop = max(w.z.universe, key=lambda e: len(w.p[e]))
    keep = tuple(e for e in w.z.universe if e != drop)
    carrier = Structure.make(w.z.carrier.vocab, keep,
                             {r: {t for t in w.z.carrier.interp[r]
                                  if drop not in t}
                              for r in w.z.carrier.vocab.names})
    smaller = ForestCoalgebra(carrier, {c: p for c, p in w.z.parent.items()
                                        if c != drop and p != drop},
                              w.z.k_bound, w.z.kind)
    pruned = BisimWitness(smaller, {k: v for k, v in w.p.items() if k != drop},
                          {k: v for k, v in w.q.items() if k != drop})
    ok, reasons = verify_bisim(pruned, x, x)
    assert not ok
    assert any("open" in r or "not hit" in r for r in reasons)


def test_roundtrip_backforth_and_positive_bisim():
    pool = [s for s in small_structures(2) if s.size]
    rnd = random.Random(61)
    seen_win = seen_loss = 0
    for _ in range(30):
        a, b = rnd.choice(pool), rnd.choice(pool)
        w = build_positive_bisim(a, b, "ef_i", 2)
        x = build_ef(a, 2, with_i=True)
        y = build_ef(b, 2, with_i=True)
        system = back_forth("positive", x, y)
        assert (w is None) == (system is None)
        if w is None:
            seen_loss += 1
            continue
        seen_win += 1
        extracted = extract_back_forth(w)
        assert validate_back_forth(extracted, x, y, "positive") == []
    assert seen_win and seen_loss


def test_existential_backforth_matches_pathwise_search():
    pool = [s for s in small_structures(2) if s.size]
    rnd = random.Random(67)
    for _ in range(25):
        a, b = rnd.choice(pool), rnd.choice(pool)
        x, y = build_ef(a, 2, with_i=True), build_ef(b, 2, with_i=True)
        system = back_forth("existential", x, y)
        assert (None if system is None else system.pairs) == reference_back_forth("existential", x, y)
        via_search = find_morphism("pathwise_embedding", x, y) is not None
        assert (system is not None) == via_search


def _route(mode, family, a, b, x, y, hom_kind):
    """The coalgebra route of each mode, as in ``cli._coalgebra_direction``."""
    if mode == "ep":
        return find_morphism(hom_kind, x, y) is not None
    if mode == "existential":
        return find_morphism("pathwise_embedding", x, y) is not None
    if mode == "positive":
        return build_positive_bisim(a, b, family, x.k_bound) is not None
    return build_bisim(a, b, family, x.k_bound) is not None


def test_fixpoint_matches_reference_back_forth_in_every_mode():
    """The branch-pair fixpoint against the all-pairs reference: the same
    pair set from ``back_forth`` and the same existence on every route."""
    digraphs = [s for s in small_structures(2) if s.size]
    models = all_pointed_kripke(2)
    rnd = random.Random(73)
    seen = set()
    for _ in range(150):
        modal = rnd.random() < 0.5
        k = rnd.choice((1, 2))
        if modal:
            a, b = rnd.choice(models), rnd.choice(models)
            x, y, family, hom_kind = build_modal(a, k), build_modal(b, k), "modal", "hom"
        else:
            a, b = rnd.choice(digraphs), rnd.choice(digraphs)
            x, y = build_ef(a, k, with_i=True), build_ef(b, k, with_i=True)
            family, hom_kind = "ef_i", "i_morphism"
        for mode in MODES:
            expected = reference_back_forth(mode, x, y)
            system = back_forth(mode, x, y)
            assert (None if system is None else system.pairs) == expected, (a, b, mode)
            assert _route(mode, family, a, b, x, y, hom_kind) == (expected is not None)
            seen.add((mode, expected is not None))
    assert len(seen) == 2 * len(MODES)


def test_mode_aliases_answer_as_their_canonical_mode():
    """``back_forth`` and ``validate_back_forth`` accept the aliases that
    ``GameSpec`` accepts, answer for them as for the canonical mode in every
    mode, and refuse an unknown mode instead of running it as another."""
    xs = [build_ef(s, 2) for s in all_digraphs(2) if s.size]
    aliases = {"exists": "existential", "existential-positive": "ep"}
    pairs = lambda system: None if system is None else system.pairs
    for x in xs:
        for y in xs:
            for alias, mode in aliases.items():
                assert pairs(back_forth(alias, x, y)) == pairs(back_forth(mode, x, y))
            system = back_forth("ep", x, y)
            if system is None:
                continue
            for alias, mode in aliases.items():
                assert (validate_back_forth(system, x, y, alias)
                        == validate_back_forth(system, x, y, mode))
    x = xs[0]
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        back_forth("bogus", x, x)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        validate_back_forth(back_forth("full", x, x), x, x, "bogus")


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("build", [build_positive_bisim, build_bisim])
def test_six_element_bisimulation_within_budget(build, k):
    start = time.perf_counter()
    assert build(SIX, SIX, "ef_i", k) is not None
    assert time.perf_counter() - start < 2.0


def test_duplicator_verdict_of_another_pair_is_a_bug_sentinel(loop, edge):
    pt = Structure.make(loop.vocab, ["p"], {}, name="pt")
    ptloop = Structure.make(loop.vocab, ["q"], {"E": [("q", "q")]}, name="ptloop")
    other = solve(GameSpec("ef", "positive", 2), edge, edge)
    assert other.duplicator_wins
    with pytest.raises(BisimVerificationError):
        build_positive_bisim(ptloop, pt, "ef_i", 2, other)
    spoiler = solve(GameSpec("ef", "positive", 2), ptloop, pt)
    assert build_positive_bisim(edge, edge, "ef_i", 2, spoiler) is None


def test_builders_play_no_game(monkeypatch, loop, edge):
    def no_game(*args, **kwargs):
        raise AssertionError("a game was solved")

    monkeypatch.setattr(fmgames.games, "solve", no_game)
    monkeypatch.setattr(fmgames, "solve", no_game)
    pt = Structure.make(loop.vocab, ["p"], {}, name="pt")
    ptloop = Structure.make(loop.vocab, ["q"], {"E": [("q", "q")]}, name="ptloop")
    assert build_positive_bisim(pt, ptloop, "ef_i", 2) is not None
    assert build_bisim(edge, edge, "ef_i", 2) is not None
    assert build_bisim(edge, loop, "ef_i", 2) is None


def test_modal_positive_bisim(chain_ab):
    w = build_positive_bisim(chain_ab, chain_ab, "modal", 2)
    assert w is not None
    x = build_modal(chain_ab, 2)
    ok, reasons = verify_positive_bisim(w, x, x)
    assert ok, reasons
    richer = kripke(["a", "b"], [("a", "b")], ["a", "b"], "a")
    assert build_positive_bisim(chain_ab, richer, "modal", 2) is not None
    assert build_positive_bisim(richer, chain_ab, "modal", 2) is None


def test_full_bisim_matches_full_game():
    pool = [s for s in small_structures(2) if s.size]
    rnd = random.Random(71)
    for _ in range(25):
        a, b = rnd.choice(pool), rnd.choice(pool)
        wins = solve(GameSpec("ef", "full", 2), a, b).duplicator_wins
        w = build_bisim(a, b, "ef_i", 2)
        assert (w is not None) == wins
        if w is not None:
            x, y = build_ef(a, 2, with_i=True), build_ef(b, 2, with_i=True)
            ok, reasons = verify_bisim(w, x, y)
            assert ok, reasons


def test_nullary_facts_reach_the_coalgebra_route():
    # the empty tuple lies on no branch; pull_back used to drop Z, and every
    # route then found a system where Spoiler wins by the sentence Z
    vocab = [("Z", 0), ("E", 2)]
    without = Structure.make(vocab, ["a"], {}, name="A")
    with_z = Structure.make(vocab, ["b"], {"Z": [()]}, name="B")
    for a, b in ((without, with_z), (with_z, without)):
        for k in (1, 2):
            x, y = build_ef(a, k, with_i=True), build_ef(b, k, with_i=True)
            routes = {
                "ep": find_morphism("i_morphism", x, y),
                "existential": find_morphism("pathwise_embedding", x, y),
                "positive": build_positive_bisim(a, b, "ef_i", k),
                "full": build_bisim(a, b, "ef_i", k),
            }
            for mode in MODES:
                wins = solve(GameSpec("ef", mode, k), a, b).duplicator_wins
                assert (back_forth(mode, build_ef(a, k), build_ef(b, k)) is not None) == wins
                assert (routes[mode] is not None) == wins, (a.name, b.name, k, mode)


def test_signature_spans_match_the_pulled_back_spans():
    """Z1 and Z2 read off the signatures, mapped back to W's pairs, are the
    cofree relations pulled back along the branches of W."""
    digraphs = [s for s in small_structures(2) if s.size]
    models = all_pointed_kripke(2)
    rnd = random.Random(83)
    built = 0
    for _ in range(120):
        family, pool = rnd.choice((("ef_i", digraphs), ("modal", models)))
        a, b, k, iso = rnd.choice(pool), rnd.choice(pool), rnd.choice((1, 2)), rnd.random() < 0.5
        found = _spans(a, b, family, k, iso, None, ("Z1", "Z2"))
        if found is None:
            continue
        built += 1
        x, y, z1, p, z2, q = found
        pair = {i: (p[i], q[i]) for i in p}
        parent = {w: (x.parent.get(w[0]), y.parent.get(w[1])) for w in pair.values()}
        assert {pair[c]: pair[j] for c, j in z1.parent.items()} == {
            w: v for w, v in parent.items() if v != (None, None)}
        chains = []
        for w in pair.values():
            chain = [w]
            while chain[0] in parent and parent[chain[0]] != (None, None):
                chain.insert(0, parent[chain[0]])
            chains.append(tuple(chain))
        for which, z, cofree in ((0, z1, x), (1, z2, y)):
            lifted = {rel: {tuple(pair[i] for i in t) for t in tuples}
                      for rel, tuples in z.carrier.interp.items()}
            assert lifted == reference_pull_back(chains, lambda w: w[which], cofree.carrier)
    assert built > 40


def _mutated(z: ForestCoalgebra, drop=None, add=None, parent=None) -> ForestCoalgebra:
    """``z`` with one tuple dropped or added, or with another parent map."""
    interp = {rel: set(tuples) for rel, tuples in z.carrier.interp.items()}
    if drop is not None:
        interp[drop[0]].discard(drop[1])
    if add is not None:
        interp[add[0]].add(add[1])
    carrier = Structure(z.carrier.vocab, z.universe,
                        {rel: frozenset(t) for rel, t in interp.items()}, z.carrier.point,
                        z.carrier.name)
    return ForestCoalgebra(carrier, z.parent if parent is None else parent, z.k_bound, z.kind)


def _dropped(z: ForestCoalgebra) -> ForestCoalgebra:
    rel, tup = min((rel, t) for rel, tuples in z.carrier.interp.items() for t in tuples)
    return _mutated(z, drop=(rel, tup))


def _added(z: ForestCoalgebra, q, y: ForestCoalgebra) -> ForestCoalgebra:
    """``z`` with a tuple on one branch whose image under ``q`` is not related in ``y``."""
    return _mutated(z, add=next(
        (rel, t) for e in z.universe for rel, arity in z.carrier.vocab.relations
        for t in itertools.product(z.chain(e), repeat=arity)
        if tuple(q[c] for c in t) not in y.carrier.interp[rel]))


def _reparented(z: ForestCoalgebra) -> ForestCoalgebra:
    """``z`` with one element moved under another element of its parent's height."""
    e, other = next((e, o) for e, p in z.parent.items() for o in z.universe
                    if o != p and z.height[o] == z.height[p])
    return _mutated(z, parent={**z.parent, e: other})


@pytest.mark.parametrize("family, a, b", [
    ("ef_i", Structure.make([("E", 2)], ["v", "w"], {"E": [("v", "w")]}, name="edge"),
     Structure.make([("E", 2)], ["v", "w"], {"E": [("v", "w")]}, name="edge")),
    ("ef_i", Structure.make([("E", 2)], ["p", "r"], {}, name="two"),
     Structure.make([("E", 2)], ["q", "s"], {"E": [("q", "q"), ("s", "s")]}, name="loops")),
    ("modal", kripke(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c"), ("c", "c")], ["b"], "a"),
     kripke(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c"), ("c", "c")], ["b", "c"], "a")),
])
def test_verification_rejects_each_mutation_of_a_built_witness(family, a, b):
    """Every witness the builders return passes its verifier; dropping a
    tuple, adding an unrelated one or re-parenting an element is rejected."""
    x, y = (build_ef(s, 2, with_i=True) if family == "ef_i" else build_modal(s, 2) for s in (a, b))
    w = build_positive_bisim(a, b, family, 2)
    assert verify_positive_bisim(w, x, y) == (True, [])
    mutated = [PositiveBisimWitness(_dropped(w.z1), w.z2, w.h, w.p, w.q),
               PositiveBisimWitness(w.z1, _added(w.z2, w.q, y), w.h, w.p, w.q),
               PositiveBisimWitness(_reparented(w.z1), w.z2, w.h, w.p, w.q)]
    assert [verify_positive_bisim(m, x, y)[0] for m in mutated] == [False] * 3
    full = build_bisim(a, a, family, 2)
    assert verify_bisim(full, x, x) == (True, [])
    mutated = [_dropped(full.z), _added(full.z, full.q, x), _reparented(full.z)]
    assert [verify_bisim(BisimWitness(z, full.p, full.q), x, x)[0] for z in mutated] == [False] * 3
