"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Corpora.  Digraphs: all structures with one binary relation and universe
size <= 3 up to isomorphism (117 classes, both orderings of every pair =
13689 ordered pairs, identity pairs included).  Pointed models: one binary
plus one unary symbol, size <= 3, up to isomorphism (2180 classes).

Scale.  Everything is exhaustive except the 2180^2 = 4.75M ordered
pointed-model pairs, whose single-core cost is hours: they run exhaustively
over the size<=2 sub-corpus plus a large seeded sample, and
FMGAMES_ACCEPTANCE_FULL=1 removes the sampling.  The sample size can be
tuned with FMGAMES_SAMPLE_MODAL.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS lines.
"""

from __future__ import annotations

import itertools
import os
import random

import pytest

from fmgames import (BOTTOM, GameSpec, FragmentSpec, build_ef, build_modal,
                     build_pebble_truncated, build_bisim, build_positive_bisim,
                     check_comonad_laws, check_open_by_squares,
                     check_open_cover_lifting, classify, counit_map,
                     distinguish, extract_back_forth, find_morphism,
                     forest_shape, model_check, oracle_preserves, solve,
                     validate_back_forth)
from fmgames.corpus import (all_digraphs, all_pointed_kripke, clique,
                            edge_structure, linear_order, loop_structure)
from fmgames.oracle import fo_rank_profile, ml_depth_profile
from fmgames.structures import Structure, iter_homomorphisms

from conftest import ACCEPTANCE_LINES


def _report(line: str):
    print("\n" + line)
    ACCEPTANCE_LINES.append(line)

MODES = ("full", "existential", "positive", "ep")
KS = (1, 2)

FULL_SWEEP = os.environ.get("FMGAMES_ACCEPTANCE_FULL") == "1"
SAMPLE_MODAL = int(os.environ.get("FMGAMES_SAMPLE_MODAL", "20000"))

DIGRAPHS = all_digraphs(3)
KRIPKES = all_pointed_kripke(3)


def _ordered_pairs(n):
    return [(i, j) for i in range(n) for j in range(n)]


def _seeded_sample(pairs, size, seed):
    if FULL_SWEEP or size >= len(pairs):
        return list(pairs)
    rnd = random.Random(seed)
    return rnd.sample(pairs, size)


class SweepData:
    def __init__(self):
        self.game = {}        # (engine, mode, k) -> {pair: bool}
        self.oracle = {}      # (engine, mode, k) -> {pair: bool}
        self.route = {}       # (mode, k) -> {pair: bool}   (coalgebra route)
        self.mismatches = []
        self.crit5_failures = []
        self.crit5_wins = 0
        self.crit5_losses = 0


def _run_ef_sweep():
    """Games, oracles and the EF-I coalgebra route over every ordered
    digraph pair."""
    data = SweepData()
    n = len(DIGRAPHS)
    pairs = _ordered_pairs(n)
    for key in itertools.product(("ef", "pebble", "fo", "lv"), MODES, KS):
        data.game.setdefault(key, {})
        data.oracle.setdefault(key, {})
    for mode, k in itertools.product(MODES, KS):
        data.route[(mode, k)] = {}

    for i, j in pairs:
        a, b = DIGRAPHS[i], DIGRAPHS[j]
        for mode in MODES:
            v2 = solve(GameSpec("ef", mode, 2), a, b)
            data.game[("ef", mode, 2)][(i, j)] = v2.duplicator_wins
            data.game[("ef", mode, 1)][(i, j)] = v2.duplicator_wins_within(1)
            profile = fo_rank_profile(a, b, 2, mode)
            for k in KS:
                data.oracle[("fo", mode, k)][(i, j)] = profile[k].preserved
            for k in KS:
                data.game[("pebble", mode, k)][(i, j)] = \
                    solve(GameSpec("pebble", mode, k), a, b).duplicator_wins
                data.oracle[("lv", mode, k)][(i, j)] = \
                    oracle_preserves(FragmentSpec("l_vars", k, mode), a, b).preserved

        for k in KS:
            x = build_ef(a, k, with_i=True)
            y = build_ef(b, k, with_i=True)
            data.route[("ep", k)][(i, j)] = find_morphism("i_morphism", x, y) is not None
            data.route[("existential", k)][(i, j)] = \
                find_morphism("pathwise_embedding", x, y) is not None
            wit = build_positive_bisim(a, b, "ef_i", k)
            data.route[("positive", k)][(i, j)] = wit is not None
            if wit is None:
                data.crit5_losses += 1
            else:
                data.crit5_wins += 1
                system = extract_back_forth(wit)
                problems = validate_back_forth(system, x, y, "positive")
                if problems:
                    data.crit5_failures.append((a.name, b.name, k, problems))
            data.route[("full", k)][(i, j)] = build_bisim(a, b, "ef_i", k) is not None

    for mode, k in itertools.product(MODES, KS):
        for pair, game in data.game[("ef", mode, k)].items():
            if game != data.oracle[("fo", mode, k)][pair]:
                data.mismatches.append(("ef/fo", mode, k, pair))
            if data.route[(mode, k)][pair] != game:
                data.mismatches.append(("ef/coalgebra", mode, k, pair))
        for pair, game in data.game[("pebble", mode, k)].items():
            if game != data.oracle[("lv", mode, k)][pair]:
                data.mismatches.append(("pebble/lv", mode, k, pair))
    return data


@pytest.fixture(scope="session")
def ef_sweep():
    return _run_ef_sweep()


class ModalSweepData:
    def __init__(self):
        self.pairs = []
        self.game = {}
        self.oracle = {}
        self.route = {}
        self.mismatches = []
        self.crit5_failures = []
        self.crit5_wins = 0
        self.crit5_losses = 0
        self.crit2_failures = []
        self.crit2_checked = 0


def _run_modal_sweep():
    data = ModalSweepData()
    n = len(KRIPKES)
    small = [i for i, s in enumerate(KRIPKES) if s.size <= 2]
    pair_set = {(i, j) for i in small for j in small}
    pair_set |= set(_seeded_sample(_ordered_pairs(n), SAMPLE_MODAL, seed=4096))
    data.pairs = sorted(pair_set)
    for key in itertools.product(MODES, KS):
        data.game[key] = {}
        data.oracle[key] = {}
        data.route[key] = {}
    unravel_cache = {}

    def unravel(i, k):
        if (i, k) not in unravel_cache:
            unravel_cache[(i, k)] = build_modal(KRIPKES[i], k)
        return unravel_cache[(i, k)]

    for i, j in data.pairs:
        a, b = KRIPKES[i], KRIPKES[j]
        for mode in MODES:
            v2 = solve(GameSpec("modal", mode, 2), a, b)
            wins = {2: v2.duplicator_wins, 1: v2.duplicator_wins_within(1)}
            profile = ml_depth_profile(a, b, 2, mode)
            for k in KS:
                data.game[(mode, k)][(i, j)] = wins[k]
                data.oracle[(mode, k)][(i, j)] = profile[k].preserved
                if wins[k] != profile[k].preserved:
                    data.mismatches.append(("modal/ml", mode, k, (i, j)))
                if not wins[k]:
                    spec = GameSpec("modal", mode, k)
                    phi = distinguish(spec, a, b, v2 if k == 2 else None)
                    c = classify(phi)
                    ok = (model_check(phi, a) and not model_check(phi, b)
                          and c.modal_depth is not None and c.modal_depth <= k
                          and c.in_mode[mode])
                    data.crit2_checked += 1
                    if not ok:
                        data.crit2_failures.append((mode, k, i, j, str(phi)))
        for k in KS:
            x, y = unravel(i, k), unravel(j, k)
            data.route[("ep", k)][(i, j)] = find_morphism("hom", x, y) is not None
            data.route[("existential", k)][(i, j)] = \
                find_morphism("pathwise_embedding", x, y) is not None
            wit = build_positive_bisim(a, b, "modal", k)
            data.route[("positive", k)][(i, j)] = wit is not None
            if wit is None:
                data.crit5_losses += 1
            else:
                data.crit5_wins += 1
                system = extract_back_forth(wit)
                problems = validate_back_forth(system, x, y, "positive")
                if problems:
                    data.crit5_failures.append((a.name, b.name, k, problems))
            data.route[("full", k)][(i, j)] = build_bisim(a, b, "modal", k) is not None
            for mode in MODES:
                if data.route[(mode, k)][(i, j)] != data.game[(mode, k)][(i, j)]:
                    data.mismatches.append(("modal/coalgebra", mode, k, (i, j)))
    return data


@pytest.fixture(scope="session")
def modal_sweep():
    return _run_modal_sweep()


def test_criterion_1_three_engine_agreement(ef_sweep, modal_sweep):
    checked = sum(len(t) for t in ef_sweep.oracle.values()) \
        + sum(len(t) for t in ef_sweep.route.values()) \
        + sum(len(t) for t in modal_sweep.oracle.values()) \
        + sum(len(t) for t in modal_sweep.route.values())
    mismatches = ef_sweep.mismatches + modal_sweep.mismatches
    status = "PASS" if not mismatches else "FAIL"
    _report(f"criterion 1 (three-engine agreement): {status} — "
          f"{checked} verdict comparisons over {len(DIGRAPHS)} digraph classes "
          f"({len(DIGRAPHS)**2} ordered pairs, exhaustive) and {len(KRIPKES)} pointed "
          f"classes ({len(modal_sweep.pairs)} ordered pairs"
          f"{', exhaustive' if FULL_SWEEP else ', size<=2 exhaustive + seeded sample'}); "
          f"{len(mismatches)} mismatches")
    assert not mismatches, mismatches[:10]


def test_criterion_2_distinguishing_formulas(ef_sweep, modal_sweep):
    failures = list(modal_sweep.crit2_failures)
    checked = modal_sweep.crit2_checked
    for (engine, family) in (("ef", "ef"), ("pebble", "pebble")):
        for mode, k in itertools.product(MODES, KS):
            for (i, j), wins in ef_sweep.game[(engine, mode, k)].items():
                if wins:
                    continue
                a, b = DIGRAPHS[i], DIGRAPHS[j]
                spec = GameSpec(family, mode, k)
                verdict = solve(spec, a, b)
                phi = distinguish(spec, a, b, verdict)
                c = classify(phi)
                ok = model_check(phi, a) and not model_check(phi, b) and c.in_mode[mode]
                if family == "ef":
                    ok = ok and c.rank <= k
                else:
                    ok = ok and c.var_count <= k and c.rank <= verdict.stage[frozenset()]
                checked += 1
                if not ok:
                    failures.append((family, mode, k, a.name, b.name, str(phi)))
    status = "PASS" if not failures else "FAIL"
    _report(f"criterion 2 (distinguishing-formula soundness): {status} — "
          f"{checked} synthesized formulas verified, {len(failures)} failures")
    assert not failures, failures[:5]


def _random_structure(rnd, vocab, max_size, pointed=False):
    n = rnd.randint(1, max_size)
    elems = [f"e{t}" for t in range(n)]
    interp = {}
    for rel, ar in vocab:
        cells = list(itertools.product(elems, repeat=ar))
        interp[rel] = {c for c in cells if rnd.random() < 0.4}
    return Structure.make(vocab, elems, interp,
                          point=rnd.choice(elems) if pointed else None)


def test_criterion_3_comonad_laws():
    rnd = random.Random(90125)
    failures = []
    done = 0
    specs = [("ef", None), ("modal", None), ("pebble", 2), ("pebble", 3)]
    while done < 200:
        family, depth = specs[done % len(specs)]
        k = rnd.randint(1, 3)
        pointed = family == "modal"
        vocab = (("R", 2), ("P", 1)) if pointed else (("E", 2),)
        a = _random_structure(rnd, vocab, 4, pointed)
        b = _random_structure(rnd, vocab, 4, pointed)
        c = _random_structure(rnd, vocab, 4, pointed)
        h1 = next(iter_homomorphisms(a, b, rng=rnd), None)
        h2 = next(iter_homomorphisms(b, c, rng=rnd), None)
        if h1 is None or h2 is None:
            continue
        if family == "ef":
            cofree = build_ef(a, k)
            cofree_b = build_ef(b, k)
        elif family == "modal":
            cofree = build_modal(a, k)
            cofree_b = build_modal(b, k)
        else:
            cofree = build_pebble_truncated(a, k, depth)
            cofree_b = build_pebble_truncated(b, k, depth)
        eps_a = counit_map(cofree)
        eps_b = counit_map(cofree_b)
        f = {s: h1[eps_a[s]] for s in cofree.universe}
        g = {s: h2[eps_b[s]] for s in cofree_b.universe}
        bad = check_comonad_laws(cofree, a, f, b, g, c)
        if bad:
            failures.append((family, k, depth, bad))
        done += 1
    status = "PASS" if not failures else "FAIL"
    _report(f"criterion 3 (comonad laws): {status} — 200 random instances, "
          f"{len(failures)} failures")
    assert not failures, failures[:3]


def test_criterion_4_classical_calibration():
    notes = []
    l2, l3, l4 = linear_order(2), linear_order(3), linear_order(4)
    spec = GameSpec("ef", "full", 2)
    assert solve(spec, l3, l4).duplicator_wins and solve(spec, l4, l3).duplicator_wins
    assert oracle_preserves(FragmentSpec("fo_rank", 2, "full"), l3, l4).preserved
    notes.append("L3 ==_FO2 L4")
    v = solve(spec, l2, l3)
    assert not v.duplicator_wins
    phi = distinguish(spec, l2, l3, v)
    assert classify(phi).rank <= 2
    assert model_check(phi, l2) != model_check(phi, l3)
    notes.append(f"L2 !=_FO2 L3 via {phi}")
    k2, k3 = clique(2), clique(3)
    assert solve(GameSpec("pebble", "full", 2), k2, k3).duplicator_wins
    assert solve(GameSpec("pebble", "full", 2), k3, k2).duplicator_wins
    assert not solve(GameSpec("pebble", "full", 3), k2, k3).duplicator_wins
    notes.append("K2 ==_L2 K3, K2 !=_L3 K3")
    edge, loop = edge_structure(), loop_structure()
    assert next(iter_homomorphisms(edge, loop), None) is not None
    for k in (1, 2, 3, 4):
        assert solve(GameSpec("ef", "ep", k), edge, loop).duplicator_wins
        assert oracle_preserves(FragmentSpec("fo_rank", k, "ep"), edge, loop).preserved
    notes.append("hom(edge->loop) gives ep-preservation, k<=4")
    _report(f"criterion 4 (classical calibration): PASS — {'; '.join(notes)}")


def test_criterion_5_positive_bisim_round_trip(ef_sweep, modal_sweep):
    failures = ef_sweep.crit5_failures + modal_sweep.crit5_failures
    wins = ef_sweep.crit5_wins + modal_sweep.crit5_wins
    losses = ef_sweep.crit5_losses + modal_sweep.crit5_losses
    status = "PASS" if not failures else "FAIL"
    _report(f"criterion 5 (positive bisimulation round trip): {status} — "
          f"{wins} witnesses built+verified+re-extracted, {losses} losses returned none, "
          f"{len(failures)} failures")
    assert not failures, failures[:5]


def test_criterion_6_path_tree_correspondence():
    """The paths of a coalgebra, the branches ``chain(e)`` ordered by prefix,
    form the forest of its parent map, with the empty path at the bottom."""
    bad = []
    coalgebras = []
    for s in DIGRAPHS:
        for k in KS:
            coalgebras.append(build_ef(s, k))
            coalgebras.append(build_ef(s, k, with_i=True))
    for s in KRIPKES:
        coalgebras.append(build_modal(s, 2))
    for c in coalgebras:
        paths = {c.chain(e): e for e in c.universe}
        covers, roots = {p: [] for p in paths}, []
        for q in paths:
            below = [q[:i] for i in range(1, len(q)) if q[:i] in paths]
            (covers[below[-1]] if below else roots).append(q)
        if (c.chain(BOTTOM) != () or len(paths) != len(c.universe)
                or any(q[-1] != e for q, e in paths.items())
                or forest_shape(covers, roots) != forest_shape(c.children, c.roots)):
            bad.append(c.carrier.name)
    status = "PASS" if not bad else "FAIL"
    _report(f"criterion 6 (path-tree correspondence): {status} — "
          f"{len(coalgebras)} coalgebras checked, {len(bad)} failures")
    assert not bad, bad[:5]


def test_criterion_7_open_iff_tree_open(ef_sweep, modal_sweep):
    checked = 0
    bad = []

    def compare(x, y):
        nonlocal checked
        w = find_morphism("pathwise_embedding", x, y)
        if w is None:
            return
        lifting = not check_open_cover_lifting(w.mapping, x, y)
        squares = not check_open_by_squares(w.mapping, x, y)
        checked += 1
        if lifting != squares:
            bad.append((x.carrier.name, y.carrier.name, lifting, squares))

    for (i, j), preserved in ef_sweep.route[("existential", 2)].items():
        if not preserved:
            continue
        x = build_ef(DIGRAPHS[i], 2, with_i=True)
        y = build_ef(DIGRAPHS[j], 2, with_i=True)
        if len(x.universe) <= 30 and len(y.universe) <= 30:
            compare(x, y)
    for (i, j), preserved in modal_sweep.route[("existential", 2)].items():
        if not preserved:
            continue
        x, y = build_modal(KRIPKES[i], 2), build_modal(KRIPKES[j], 2)
        if len(x.universe) <= 30 and len(y.universe) <= 30:
            compare(x, y)
    status = "PASS" if not bad else "FAIL"
    _report(f"criterion 7 (open iff tree-open): {status} — "
          f"{checked} pathwise embeddings cross-checked, {len(bad)} disagreements")
    assert not bad, bad[:5]


def test_criterion_8_monotonicity(ef_sweep, modal_sweep):
    violations = []

    def check_tables(tables, label):
        for k in KS:
            for pair, full in tables[("full", k)].items():
                ex = tables[("existential", k)][pair]
                po = tables[("positive", k)][pair]
                ep = tables[("ep", k)][pair]
                if full and not (ex and po):
                    violations.append((label, "mode", k, pair))
                if (ex or po) and not ep:
                    violations.append((label, "mode", k, pair))
        for mode in MODES:
            for pair, hi in tables[(mode, 2)].items():
                if hi and not tables[(mode, 1)][pair]:
                    violations.append((label, "resource", mode, pair))

    check_tables({(m, k): ef_sweep.game[("ef", m, k)] for m in MODES for k in KS}, "ef")
    check_tables({(m, k): ef_sweep.game[("pebble", m, k)] for m in MODES for k in KS},
                 "pebble")
    check_tables(modal_sweep.game, "modal")
    total = (len(ef_sweep.game[("ef", "full", 1)]) * 2 + len(modal_sweep.game[("full", 1)]))
    status = "PASS" if not violations else "FAIL"
    _report(f"criterion 8 (mode/resource monotonicity): {status} — "
          f"{total} pair tables checked, {len(violations)} violations")
    assert not violations, violations[:5]
