import gc
import itertools
import random
import tracemalloc

import pytest

from fmgames import (FragmentSpec, GameSpec, OracleResourceError, Structure,
                     StructureError, Vocabulary, classify, model_check, oracle_preserves,
                     solve)
from fmgames.corpus import (all_digraphs, all_pointed_kripke, clique, edge_structure,
                            linear_order, loop_structure)
from fmgames.formulas import serialize_formula
from fmgames.oracle import _Refinement, fo_rank_profile, ml_depth_profile

from conftest import kripke, reference_oracle_witness, small_structures

MODES = ("full", "existential", "positive", "ep")


def test_fragment_spec_validation():
    assert FragmentSpec("FOrank", 2, "existential-positive").family == "fo_rank"
    with pytest.raises(ValueError):
        FragmentSpec("l_vars", 0, "full")
    with pytest.raises(ValueError):
        FragmentSpec("propositional", 1, "full")


def test_edge_loop_examples(edge, loop):
    assert oracle_preserves(FragmentSpec("fo_rank", 2, "ep"), edge, loop).preserved
    res = oracle_preserves(FragmentSpec("fo_rank", 2, "existential"), edge, loop)
    assert not res.preserved
    assert model_check(res.witness, edge) and not model_check(res.witness, loop)
    c = classify(res.witness)
    assert c.rank <= 2 and c.in_mode["existential"]


def test_identity_always_preserved(edge, loop, orders):
    for a in (edge, loop, orders[3]):
        for mode in MODES:
            assert oracle_preserves(FragmentSpec("fo_rank", 2, mode), a, a).preserved
            assert oracle_preserves(FragmentSpec("l_vars", 2, mode), a, a).preserved


def test_positive_monotone_under_added_tuples(edge):
    pt = Structure.make(edge.vocab, ["p"], {}, name="pt")
    ptloop = Structure.make(edge.vocab, ["q"], {"E": [("q", "q")]}, name="ptloop")
    for k in (1, 2, 3):
        assert oracle_preserves(FragmentSpec("fo_rank", k, "positive"), pt, ptloop).preserved
    assert not oracle_preserves(FragmentSpec("fo_rank", 1, "positive"), ptloop, pt).preserved


def test_rank_profile_monotone(edge, loop):
    pool = small_structures(2)
    rnd = random.Random(17)
    for _ in range(30):
        a, b = rnd.choice(pool), rnd.choice(pool)
        for mode in MODES:
            profile = fo_rank_profile(a, b, 3, mode)
            for lo, hi in zip(profile, profile[1:]):
                assert not (hi.preserved and not lo.preserved)


def test_mode_monotonicity():
    pool = small_structures(2)
    rnd = random.Random(19)
    for _ in range(30):
        a, b = rnd.choice(pool), rnd.choice(pool)
        res = {m: oracle_preserves(FragmentSpec("fo_rank", 2, m), a, b).preserved
               for m in MODES}
        assert not res["existential"] or res["ep"]
        assert not res["positive"] or res["ep"]
        assert not res["full"] or (res["existential"] and res["positive"])


def test_transitivity_sampled():
    pool = small_structures(2)
    rnd = random.Random(29)
    for _ in range(25):
        a, b, c = (rnd.choice(pool) for _ in range(3))
        for mode in ("ep", "full"):
            frag = FragmentSpec("fo_rank", 2, mode)
            ab = oracle_preserves(frag, a, b).preserved
            bc = oracle_preserves(frag, b, c).preserved
            if ab and bc:
                assert oracle_preserves(frag, a, c).preserved


def _sound(res, a, b, mode):
    """The classification of a witness true in a and false in b, in mode."""
    assert model_check(res.witness, a)
    assert not model_check(res.witness, b)
    c = classify(res.witness)
    assert c.in_mode[mode]
    return c


def test_witness_soundness_sweep():
    pool = small_structures(2)
    rnd = random.Random(31)
    for _ in range(40):
        a, b = rnd.choice(pool), rnd.choice(pool)
        for mode in MODES:
            for k, res in enumerate(fo_rank_profile(a, b, 2, mode)):
                if res.witness is not None:
                    assert _sound(res, a, b, mode).rank <= k
            for k in (1, 2):
                res = oracle_preserves(FragmentSpec("l_vars", k, mode), a, b)
                if res.witness is not None:
                    assert _sound(res, a, b, mode).var_count <= k
    models = all_pointed_kripke(2)
    for _ in range(200):
        a, b = rnd.choice(models), rnd.choice(models)
        for mode in MODES:
            for depth, res in enumerate(ml_depth_profile(a, b, 3, mode)):
                if res.witness is not None:
                    assert _sound(res, a, b, mode).modal_depth <= depth


def test_lvars_witness_uses_k_variables(cliques):
    res = oracle_preserves(FragmentSpec("l_vars", 3, "full"), cliques[2], cliques[3])
    assert not res.preserved
    c = classify(res.witness)
    assert c.var_count <= 3
    assert model_check(res.witness, cliques[2]) and not model_check(res.witness, cliques[3])


@pytest.mark.parametrize("family, k, mode, a, b, chars", [
    ("l_vars", 3, "full", "K2", "K3", 41),
    ("l_vars", 3, "positive", "K2", "K3", 33),
    ("l_vars", 2, "full", "L3", "L2", 39),
    ("l_vars", 2, "existential", "L3", "L2", 39),
    ("l_vars", 2, "full", "loop", "edge", 14),
    ("fo_rank", 3, "full", "L3", "L4", 57),
])
def test_witness_size_regression(family, k, mode, a, b, chars):
    # chars: the length the signature-closure oracle printed for this case
    named = {"K2": clique(2), "K3": clique(3), "L2": linear_order(2), "L3": linear_order(3),
             "L4": linear_order(4), "loop": loop_structure(), "edge": edge_structure()}
    a, b = named[a], named[b]
    res = oracle_preserves(FragmentSpec(family, k, mode), a, b)
    _sound(res, a, b, mode)
    assert len(serialize_formula(res.witness)) <= 3 * chars


def test_lvars_clique_thresholds(cliques):
    assert oracle_preserves(FragmentSpec("l_vars", 2, "full"), cliques[2], cliques[3]).preserved
    assert not oracle_preserves(FragmentSpec("l_vars", 3, "full"), cliques[2], cliques[3]).preserved


def test_ml_depth_examples(chain_ab):
    dead = kripke(["b"], [], [], "b")
    res = oracle_preserves(FragmentSpec("ml_depth", 1, "existential"), chain_ab, dead)
    assert not res.preserved
    assert model_check(res.witness, chain_ab) and not model_check(res.witness, dead)
    assert classify(res.witness).modal_depth <= 1
    assert oracle_preserves(FragmentSpec("ml_depth", 2, "ep"), dead, chain_ab).preserved


def test_ml_requires_points_and_modal_vocab(edge, chain_ab):
    with pytest.raises(StructureError):
        oracle_preserves(FragmentSpec("ml_depth", 1, "full"), edge, edge)
    with pytest.raises(StructureError):
        oracle_preserves(FragmentSpec("ml_depth", 1, "full"),
                         chain_ab.with_point(None), chain_ab)


def test_empty_universe_conventions(edge):
    empty = Structure.make(edge.vocab, [], {})
    for mode in ("ep", "existential"):
        assert oracle_preserves(FragmentSpec("fo_rank", 2, mode), empty, edge).preserved
        assert not oracle_preserves(FragmentSpec("fo_rank", 1, mode), edge, empty).preserved
    for mode in ("positive", "full"):
        res = oracle_preserves(FragmentSpec("fo_rank", 1, mode), empty, edge)
        assert not res.preserved  # "A x1. false" holds only in the empty structure
    assert oracle_preserves(FragmentSpec("fo_rank", 3, "full"), empty, empty).preserved


def test_nullary_relation_with_empty_universe():
    # the empty assignment is a point even of an empty structure, so a
    # 0-ary literal takes its real value there
    vocab = Vocabulary((("Z", 0), ("E", 2)))
    structs = [Structure.make(vocab, elems, {"Z": z}) for elems in ([], ["a"]) for z in ([], [()])]
    for a, b in itertools.product(structs, repeat=2):
        for mode in MODES:
            for family, game in (("fo_rank", "ef"), ("l_vars", "pebble")):
                res = oracle_preserves(FragmentSpec(family, 1, mode), a, b)
                assert res.preserved == solve(GameSpec(game, mode, 1), a, b).duplicator_wins
                if res.witness is not None:
                    _sound(res, a, b, mode)


def test_rank_zero_never_distinguishes(edge, loop):
    for mode in MODES:
        assert oracle_preserves(FragmentSpec("fo_rank", 0, mode), loop, edge).preserved


def test_resource_cap_is_an_error_not_a_verdict(cliques):
    with pytest.raises(OracleResourceError):
        oracle_preserves(FragmentSpec("fo_rank", 2, "full"), cliques[3], cliques[3], cap=5)


def test_resource_cap_on_a_warm_memo(cliques):
    k3 = cliques[3]
    for family in ("fo_rank", "l_vars"):
        assert oracle_preserves(FragmentSpec(family, 2, "full"), k3, k3).preserved
        assert k3.memo
        with pytest.raises(OracleResourceError, match="points"):
            oracle_preserves(FragmentSpec(family, 2, "full"), k3, k3, cap=5)


def test_literal_positions_beyond_the_cap_are_refused_before_enumeration():
    """R/21 over two free variables has 2^21 literal positions, past the cap
    of 2^20 (``tests/test_fuzz.py`` takes arity 40 through the command
    line)."""
    r21 = Vocabulary((("R", 21),))
    a = Structure.make(r21, ["a", "b"], {"R": [("b",) + ("a",) * 20]}, name="A")
    b = Structure.make(r21, ["c", "d"], {}, name="B")
    assert oracle_preserves(FragmentSpec("fo_rank", 1, "full"), a, b).preserved
    for family in ("fo_rank", "l_vars"):
        with pytest.raises(OracleResourceError, match="literal positions"):
            oracle_preserves(FragmentSpec(family, 2, "full"), a, b)


def test_literal_descriptors_die_with_their_structures():
    """A k=3 run over U/1 W/9 (3^9 positions per 3-variable key) keeps its
    literal descriptors in the memo of A, so nothing of them stays once both
    structures are dropped; a process-wide cache once held 11.9 MB here."""
    wide = Vocabulary((("U", 1), ("W", 9)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        a = Structure.make(wide, ["a", "b"], {"U": [("a",)], "W": [("b",) + ("a",) * 8]}, name="A")
        b = Structure.make(wide, ["c", "d"], {"U": [("d",)]}, name="B")
        assert not oracle_preserves(FragmentSpec("fo_rank", 3, "full"), a, b).preserved
        del a, b
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2 ** 20, held


def _fresh(s):
    """An equal structure with an empty memo."""
    return Structure(s.vocab, s.universe, s.interp, s.point, s.name)


def _answers(a, b, mode, copy=lambda s: s):
    """Verdicts and witnesses of the FO families; ``copy=_fresh`` builds
    every table anew."""
    results = fo_rank_profile(copy(a), copy(b), 2, mode)
    results += [oracle_preserves(FragmentSpec("l_vars", k, mode), copy(a), copy(b))
                for k in (1, 2)]
    return [(r.preserved, r.witness and serialize_formula(r.witness)) for r in results]


def test_memoized_tables_give_the_cold_answers():
    pool = small_structures(2)
    empty, full = pool[0], pool[-1]
    assert empty.size == 0 and full.size == 2
    rnd = random.Random(43)
    pairs = [(rnd.choice(pool), rnd.choice(pool)) for _ in range(25)]
    pairs += [(a, a) for a in rnd.sample(pool, 5)]
    pairs += [(empty, empty), (empty, full), (full, empty)]
    for a, b in pairs:
        for mode in MODES:
            cold = _answers(a, b, mode, _fresh)
            _answers(b, a, mode)  # warms both memos, each in the other role
            assert a.memo and b.memo
            assert _answers(a, b, mode) == cold
            assert _answers(a, b, mode, lambda s: s if s is a else _fresh(s)) == cold
            assert _answers(a, b, mode, lambda s: s if s is b else _fresh(s)) == cold


def test_generator_cap_is_an_error_not_a_verdict(chain_ab):
    with pytest.raises(OracleResourceError, match="generators"):
        ml_depth_profile(chain_ab, chain_ab, 1, "full", cap=3)


# ---------------------------------------------------------------------------
# The refinement engine against the signature closure it replaced

def _reference_closure(base, gens, op, limit):
    """Close base | gens under op, dropping results with more than limit
    free variables (the old meet/join bases; entries are (tableA, tableB, fv))."""
    out = set(base)
    frontier = [g for g in gens if g not in out]
    out.update(frontier)
    while frontier:
        new = []
        for x in frontier:
            for y in list(out):
                z = op(x, y)
                if z not in out and (limit is None or bin(z[2]).count("1") <= limit):
                    out.add(z)
                    new.append(z)
        frontier = new
    return out


def _meet(x, y):
    return (x[0] & y[0], x[1] & y[1], x[2] | y[2])


def _join(x, y):
    return (x[0] | y[0], x[1] | y[1], x[2] | y[2])


def _reference_run(literals, quantify, violated, universals, layers):
    """Verdicts per layer 0..layers (layers=None: at the fixpoint only).

    Each layer closes the literals and the previous layer's quantified
    meets (and joins) under meet and join, keeping earlier entries."""
    meets, joins, gens = set(), set(), literals
    verdicts = []
    layer = 0
    while True:
        limit = None if layers is None else layers - layer
        keep = [g for g in gens if limit is None or bin(g[2]).count("1") <= limit]
        grew = any(g not in meets or (universals and g not in joins) for g in keep)
        meets = _reference_closure(meets, keep, _meet, limit)
        if universals:
            joins = _reference_closure(joins, keep, _join, limit)
        if layers is None:
            if violated(meets):
                return False
            if layer and not grew:
                return True
        else:
            verdicts.append(not violated(meets))
            if layer == layers:
                return verdicts
        gens = quantify(meets, joins)
        layer += 1


def reference_fo(a, b, k, mode, layered):
    """The signature closure over total assignments of x1..xk; an empty
    structure gets a one-bit table (literals and E false, A true)."""
    tables = []
    for s in (a, b):
        alphas = list(itertools.product(s.universe, repeat=k))
        full = (1 << len(alphas)) - 1 if s.size else 1

        def table(pred, s=s, alphas=alphas):
            return sum(1 << i for i, al in enumerate(alphas) if pred(s, al))

        def quant(mask, j, universal, s=s, alphas=alphas, full=full):
            if not s.size:
                return int(universal)
            out = 0
            for i, al in enumerate(alphas):
                group = [al[:j - 1] + (e,) + al[j:] for e in s.universe]
                bits = [mask >> alphas.index(g) & 1 for g in group]
                out |= (all(bits) if universal else any(bits)) << i
            return out
        tables.append((full, table, quant))
    neg = mode in ("full", "existential")
    literals = {(tables[0][0], tables[1][0], 0), (0, 0, 0)}

    def lit(pred, fv):
        pos = (tables[0][1](pred), tables[1][1](pred), fv)
        literals.add(pos)
        if neg:
            literals.add((tables[0][1](lambda s, al: not pred(s, al)),
                          tables[1][1](lambda s, al: not pred(s, al)), fv))

    for rel, arity in a.vocab.relations:
        for vs in itertools.product(range(1, k + 1), repeat=arity):
            lit(lambda s, al, rel=rel, vs=vs: tuple(al[v - 1] for v in vs) in s.interp[rel],
                sum(1 << (v - 1) for v in set(vs)))
    for i, j in itertools.combinations(range(1, k + 1), 2):
        lit(lambda s, al, i=i, j=j: al[i - 1] == al[j - 1], (1 << (i - 1)) | (1 << (j - 1)))

    def quantify(meets, joins):
        out = set()
        for base, universal in ((meets, False), (joins, True)):
            for ma, mb, fv in base:
                for j in range(1, k + 1):
                    out.add((tables[0][2](ma, j, universal), tables[1][2](mb, j, universal),
                             fv & ~(1 << (j - 1))))
        return out

    violation = (tables[0][0], 0, 0)
    return _reference_run(literals, quantify, lambda meets: violation in meets,
                          mode in ("full", "positive"), k if layered else None)


def reference_ml(a, b, k, mode):
    """The signature closure over the worlds of A and B, per depth 0..k."""
    def worlds(pred):
        return tuple(sum(1 << s.index[w] for w in s.universe if pred(s, w)) for s in (a, b))

    literals = {worlds(lambda s, w: True) + (0,), (0, 0, 0)}
    for p in a.vocab.unary:
        literals.add(worlds(lambda s, w: (w,) in s.interp[p]) + (0,))
        if mode in ("full", "existential"):
            literals.add(worlds(lambda s, w: (w,) not in s.interp[p]) + (0,))

    def quantify(meets, joins):
        out = set()
        for base, universal in ((meets, False), (joins, True)):
            for ma, mb, _ in base:
                for rel in a.vocab.binary:
                    out.add(worlds(lambda s, w: (all if universal else any)(
                        (ma if s is a else mb) >> s.index[v] & 1
                        for v in s.successors(rel, w))) + (0,))
        return out

    pa, pb = 1 << a.index[a.point], 1 << b.index[b.point]
    return _reference_run(literals, quantify,
                          lambda meets: any(m[0] & pa and not m[1] & pb for m in meets),
                          mode in ("full", "positive"), k)


def _agrees_with_reference_fo(a, b, k_lv=(1, 2)):
    for mode in MODES:
        assert [r.preserved for r in fo_rank_profile(a, b, 2, mode)] == \
            reference_fo(a, b, 2, mode, layered=True), (a, b, mode)
        for k in k_lv:
            assert oracle_preserves(FragmentSpec("l_vars", k, mode), a, b).preserved == \
                reference_fo(a, b, k, mode, layered=False), (a, b, mode, k)


def test_fo_families_match_reference_closure():
    pool = all_digraphs(2)
    for a, b in itertools.product(pool, repeat=2):
        _agrees_with_reference_fo(a, b)


def test_ml_depth_matches_reference_closure():
    pool = all_pointed_kripke(2)
    for a, b in itertools.product(pool, repeat=2):
        for mode in MODES:
            assert [r.preserved for r in ml_depth_profile(a, b, 3, mode)] == \
                reference_ml(a, b, 3, mode), (a, b, mode)


def test_size3_sample_matches_reference_closure():
    pool = all_digraphs(3)
    rnd = random.Random(41)
    for _ in range(30):
        _agrees_with_reference_fo(rnd.choice(pool), rnd.choice(pool), k_lv=(1,))


def test_lvars_variable_monotonicity():
    pool = [s for s in small_structures(2) if s.size]
    rnd = random.Random(37)
    for _ in range(10):
        a, b = rnd.choice(pool), rnd.choice(pool)
        for mode in MODES:
            hi = oracle_preserves(FragmentSpec("l_vars", 2, mode), a, b).preserved
            lo = oracle_preserves(FragmentSpec("l_vars", 1, mode), a, b).preserved
            assert not hi or lo


# ---------------------------------------------------------------------------
# Witnesses explained on first read

PU = Vocabulary((("P", 1), ("E", 2), ("Z", 0)))


def _spoiler_win_sweep(seed, n):
    """Seeded pairs of every family: FO pairs over ``E/2`` and over a mixed
    vocabulary, and pointed Kripke models."""
    rnd = random.Random(seed)
    fo = [small_structures(2), small_structures(2, PU), all_digraphs(3)]
    models = all_pointed_kripke(2)
    for _ in range(n):
        pool = rnd.choice(fo)
        yield "fo", rnd.choice(pool), rnd.choice(pool)
        yield "ml", rnd.choice(models), rnd.choice(models)


def test_preserved_builds_no_witness(monkeypatch):
    def explain(*args):
        raise AssertionError("a witness was explained for .preserved")

    monkeypatch.setattr(_Refinement, "_explain", explain)
    refuted = 0
    for kind, a, b in _spoiler_win_sweep(53, 40):
        for mode in MODES:
            if kind == "ml":
                verdicts = [r.preserved for r in ml_depth_profile(a, b, 2, mode)]
                verdicts.append(oracle_preserves(FragmentSpec("ml_depth", 2, mode), a, b).preserved)
            else:
                verdicts = [r.preserved for r in fo_rank_profile(a, b, 2, mode)]
                verdicts += [oracle_preserves(FragmentSpec(family, k, mode), a, b).preserved
                             for family in ("fo_rank", "l_vars") for k in (1, 2)]
            refuted += verdicts.count(False)
    assert refuted > 100  # the sweep does reach Spoiler wins


def test_lazy_witness_matches_the_eager_path():
    refuted = 0
    for kind, a, b in _spoiler_win_sweep(59, 40):
        families = (("ml_depth", (1, 2)),) if kind == "ml" else (("fo_rank", (1, 2)),
                                                                  ("l_vars", (1, 2)))
        for (family, ks), mode in itertools.product(families, MODES):
            for k in ks:
                frag = FragmentSpec(family, k, mode)
                res = oracle_preserves(frag, a, b)
                eager = reference_oracle_witness(frag, a, b)
                assert res.preserved == (eager is None), (frag, a, b)
                if eager is not None:
                    refuted += 1
                    assert serialize_formula(res.witness) == serialize_formula(eager)
                    assert res.witness is res.witness  # explained once, then kept
    assert refuted > 100


def test_a_violated_profile_shares_one_witness(edge, loop):
    profile = fo_rank_profile(edge, loop, 3, "existential")
    assert [r.preserved for r in profile] == [True, False, False, False]
    assert profile[1] is profile[2] is profile[3]
    assert serialize_formula(profile[3].witness) == serialize_formula(
        reference_oracle_witness(FragmentSpec("fo_rank", 3, "existential"), edge, loop))
