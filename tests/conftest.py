"""Shared fixtures and independent reference implementations.

``brute_force_game`` evaluates games by plain recursion over move sequences
with the literal end-of-play winning condition, no memoization and no
maintain-formulation shortcut; it exists so solver verdicts are checked
against an implementation that shares no code path with the engine.
``reference_back_forth`` does the same for the branch-pair fixpoint: it
prunes all pairs of equal-height branches at once, judging each pair on
every tuple over the two branches, with no signatures and no pair tree.
``reference_classify`` and ``reference_free_vars`` are the recursive
walkers that ``formulas._walk`` replaced, one walk per fact, and
``reference_model_check`` the recursive evaluation ``formulas._evaluate``
replaced.  ``reference_oracle_witness`` is the oracle's eager witness path:
literal formulas built per pair and a witness explained at every round.
``reference_all_digraphs`` and ``reference_all_pointed_kripke`` build the
corpora as ``fmgames.corpus`` did before its orbit tables: every encoding is
compared with its image under every permutation.  ``reference_pull_back``
maps every tuple over every branch through the image one at a time, and
``reference_branch_compat`` tests every Gaifman pair for comparability.
"""

from __future__ import annotations

import itertools

import pytest

from fmgames import (FALSE, TRUE, And, Atom, BOTTOM, Box, Dia, Eq, Exists, FalseC, Forall,
                     Formula, FormulaError, NegAtom, NegEq, NegProp, Or, Prop, Structure,
                     TrueC, Vocabulary, and_, or_, path_tree)
from fmgames import oracle as _oracle
from fmgames.coalgebras import DEFAULT_CARRIER_CAP, CoalgebraSizeError, branch_tuples
from fmgames.formulas import Classification
from fmgames.corpus import (DIGRAPH_VOCAB, KRIPKE_VOCAB, clique, edge_structure,
                            linear_order, loop_structure)
from fmgames.structures import gaifman

E2 = Vocabulary((("E", 2),))
MODAL = Vocabulary((("R", 2), ("P", 1)))

#: Six elements and the single edge E(a, b): its cofree EF-I coalgebras are
#: where a search that backtracks over whole maps blows up (seconds at k=2,
#: no answer from k=3 on), so the coalgebra route is timed on it.
SIX = Structure.make(E2, list("abcdef"), {"E": [("a", "b")]}, name="six")


@pytest.fixture
def edge():
    return edge_structure()


@pytest.fixture
def loop():
    return loop_structure()


@pytest.fixture
def orders():
    return {m: linear_order(m) for m in (2, 3, 4)}


@pytest.fixture
def cliques():
    return {m: clique(m) for m in (2, 3)}


def kripke(elems, edges, props, point, name="M"):
    return Structure.make(MODAL, elems, {"R": edges, "P": [(p,) for p in props]},
                          point=point, name=name)


@pytest.fixture
def chain_ab():
    # a -> b, with P at b
    return kripke(["a", "b"], [("a", "b")], ["b"], "a", "chain")


# ---------------------------------------------------------------------------
# Independent game evaluation (reference oracle for solver verdicts)

def _partial_map_ok(pairs, a, b, iso):
    fwd = {}
    for x, y in pairs:
        if fwd.setdefault(x, y) != y:
            return False
    if iso:
        bwd = {}
        for x, y in pairs:
            if bwd.setdefault(y, x) != x:
                return False
    for rel, _ in a.vocab.relations:
        for tup in a.interp[rel]:
            if all(t in fwd for t in tup):
                if tuple(fwd[t] for t in tup) not in b.interp[rel]:
                    return False
        if iso:
            inv = {y: x for x, y in pairs}
            for tup in b.interp[rel]:
                if all(t in inv for t in tup):
                    if tuple(inv[t] for t in tup) not in a.interp[rel]:
                        return False
    return True


def brute_force_game(family, mode, k, a, b, rounds=None):
    """Duplicator-wins by full game-tree recursion, end-condition checked
    along the whole play (pebble: at every round, per the game rules)."""
    iso = mode in ("full", "existential")
    forth_only = mode in ("existential", "ep")

    if family == "ef":
        def wins(pa, pb):
            if len(pa) == k:
                return _partial_map_ok(set(zip(pa, pb)), a, b, iso)
            moves = [("A", e) for e in a.universe]
            if not forth_only:
                moves += [("B", e) for e in b.universe]
            for side, e in moves:
                resp = b.universe if side == "A" else a.universe
                ok = False
                for r in resp:
                    pa2 = pa + [e if side == "A" else r]
                    pb2 = pb + [r if side == "A" else e]
                    if wins(pa2, pb2):
                        ok = True
                        break
                if not ok:
                    return False
            return True

        return wins([], [])

    if family == "modal":
        def pcond(x, y):
            for rel in a.vocab.unary:
                ia, ib = (x,) in a.interp[rel], (y,) in b.interp[rel]
                if iso and ia != ib:
                    return False
                if not iso and ia and not ib:
                    return False
            return True

        def wins(x, y, r):
            if not pcond(x, y):
                return False
            if r == k:
                return True
            sides = ("A",) if forth_only else ("A", "B")
            for side in sides:
                src, cur, dst, other = (a, x, b, y) if side == "A" else (b, y, a, x)
                for rel in src.vocab.binary:
                    for e in src.successors(rel, cur):
                        if not any(wins(e if side == "A" else r2,
                                        r2 if side == "A" else e, r + 1)
                                   for r2 in dst.successors(rel, other)):
                            return False
            return True

        return wins(a.point, b.point, 0)

    assert family == "pebble" and rounds is not None

    def wins(placement, r):
        if not _partial_map_ok(set(placement.values()), a, b, iso):
            return False
        if r == rounds:
            return True
        for p in range(1, k + 1):
            sides = ("A",) if forth_only else ("A", "B")
            for side in sides:
                src, dst = (a, b) if side == "A" else (b, a)
                for e in src.universe:
                    ok = False
                    for resp in dst.universe:
                        new = dict(placement)
                        new[p] = (e, resp) if side == "A" else (resp, e)
                        if wins(new, r + 1):
                            ok = True
                            break
                    if not ok:
                        return False
        return True

    return wins({}, 0)


# ---------------------------------------------------------------------------
# Independent back-and-forth systems (reference for the branch-pair fixpoint)

def _reference_chain_map(x, y, cx, cy, iso) -> bool:
    """Every tuple over the branch ``cx`` against its image over ``cy``."""
    if len(cx) != len(cy):
        return False
    m = dict(zip(cx, cy))
    if x.kind == "pebble" and any(x.pebble_fn[a] != y.pebble_fn[m[a]] for a in cx):
        return False
    for rel, arity in x.carrier.vocab.relations:
        for combo in itertools.product(cx, repeat=arity):
            holds = combo in x.carrier.interp[rel]
            image_holds = tuple(m[c] for c in combo) in y.carrier.interp[rel]
            if (holds and not image_holds) or (iso and image_holds and not holds):
                return False
    return True


def reference_back_forth(mode, x, y):
    """The strong pairs of the largest back-and-forth system, or None.

    All pairs of equal height whose chain map passes are pruned together
    until the forth (and, for positive and full, back) conditions hold;
    the pairs whose every prefix pair survived are returned.
    """
    iso = mode in ("full", "existential")
    back = mode in ("full", "positive")
    tx, ty = path_tree(x), path_tree(y)
    chains_x = {n: x.chain(n) for n in tx.nodes}
    chains_y = {n: y.chain(n) for n in ty.nodes}
    alive = {(xn, yn) for xn, cx in chains_x.items() for yn, cy in chains_y.items()
             if tx.height[xn] == ty.height[yn] and _reference_chain_map(x, y, cx, cy, iso)}
    changed = True
    while changed:
        changed = False
        for pair in list(alive):
            kids_x, kids_y = tx.children[pair[0]], ty.children[pair[1]]
            ok = all(any((xc, yc) in alive for yc in kids_y) for xc in kids_x)
            if ok and back:
                ok = all(any((xc, yc) in alive for xc in kids_x) for yc in kids_y)
            if not ok:
                alive.discard(pair)
                changed = True
    if (BOTTOM, BOTTOM) not in alive:
        return None
    return frozenset(p for p in alive
                     if all(q in alive for q in zip((BOTTOM,) + chains_x[p[0]],
                                                    (BOTTOM,) + chains_y[p[1]])))


# ---------------------------------------------------------------------------
# Branch scans (reference for coalgebras.pull_back and validate_coalgebra)

def reference_pull_back(chains, image, target, cap=DEFAULT_CARRIER_CAP):
    """``coalgebras.pull_back`` before its position getters."""
    longest = max(map(len, chains), default=0)
    interp = {}
    for rel, arity in target.vocab.relations:
        rel_set = target.interp[rel]
        if arity == 0:
            interp[rel] = rel_set & {()}
            continue
        count = longest ** arity - (longest - 1) ** arity
        if count > cap:
            raise CoalgebraSizeError(f"a branch of {longest} elements has {count} {arity}-tuples "
                                     f"through its last one, cap {cap}")
        interp[rel] = frozenset(t for chain in chains for t in branch_tuples(chain, arity)
                                if tuple(map(image, t)) in rel_set)
    return interp


def reference_branch_compat(x):
    """The Gaifman pairs on different branches, in the order
    ``validate_coalgebra`` reports them."""
    split = [(a, b) for a, b in gaifman(x.carrier) if not x.comparable(a, b)]
    return sorted(split, key=lambda p: (repr(p[0]), repr(p[1])))


# ---------------------------------------------------------------------------
# Recursive formula walkers (reference for formulas._walk)

def reference_free_vars(phi):
    match phi:
        case Atom(_, vs) | NegAtom(_, vs):
            return frozenset(vs)
        case Eq(l, r) | NegEq(l, r):
            return frozenset((l, r))
        case And(parts) | Or(parts):
            out = frozenset()
            for p in parts:
                out |= reference_free_vars(p)
            return out
        case Exists(v, body) | Forall(v, body):
            return reference_free_vars(body) - {v}
        case _:
            return frozenset()


def _reference_is_modal(phi):
    match phi:
        case Prop(_) | NegProp(_) | Dia(_, _) | Box(_, _):
            return True
        case And(parts) | Or(parts):
            return any(_reference_is_modal(p) for p in parts)
        case Exists(_, body) | Forall(_, body):
            return _reference_is_modal(body)
        case _:
            return False


def _reference_node_kinds(phi, acc):
    acc.add(type(phi).__name__)
    match phi:
        case And(parts) | Or(parts):
            for p in parts:
                _reference_node_kinds(p, acc)
        case Exists(_, body) | Forall(_, body) | Dia(_, body) | Box(_, body):
            _reference_node_kinds(body, acc)


def reference_classify(phi):
    """Rank, variable count and modal depth each from its own recursion."""

    def rank(f):
        match f:
            case Exists(_, body) | Forall(_, body):
                return 1 + rank(body)
            case And(parts) | Or(parts):
                return max((rank(p) for p in parts), default=0)
            case Dia(_, body) | Box(_, body):
                return rank(body)
            case _:
                return 0

    def all_vars(f):
        match f:
            case Atom(_, vs) | NegAtom(_, vs):
                return frozenset(vs)
            case Eq(l, r) | NegEq(l, r):
                return frozenset((l, r))
            case And(parts) | Or(parts):
                out = frozenset()
                for p in parts:
                    out |= all_vars(p)
                return out
            case Exists(v, body) | Forall(v, body):
                return all_vars(body) | {v}
            case _:
                return frozenset()

    def depth(f):
        match f:
            case Dia(_, body) | Box(_, body):
                return 1 + depth(body)
            case And(parts) | Or(parts):
                return max((depth(p) for p in parts), default=0)
            case Exists(_, body) | Forall(_, body):
                return depth(body)
            case _:
                return 0

    kinds = set()
    _reference_node_kinds(phi, kinds)
    negs = kinds & {"NegAtom", "NegEq", "NegProp"}
    universal = kinds & {"Forall", "Box"}
    in_mode = {
        "full": True,
        "existential": not universal,
        "positive": not negs,
        "ep": not universal and not negs,
    }
    md = depth(phi) if _reference_is_modal(phi) else None
    return Classification(rank(phi), len(all_vars(phi)), md, in_mode)


# ---------------------------------------------------------------------------
# Recursive evaluation (reference for formulas._evaluate)

_UNBOUND = object()


def _reference_check_modal(phi, a, w):
    match phi:
        case TrueC():
            return True
        case FalseC():
            return False
        case Prop(name):
            return (w,) in a.interp[name]
        case NegProp(name):
            return (w,) not in a.interp[name]
        case And(parts):
            return all(_reference_check_modal(p, a, w) for p in parts)
        case Or(parts):
            return any(_reference_check_modal(p, a, w) for p in parts)
        case Dia(rel, body):
            return any(_reference_check_modal(body, a, v) for v in a.successors(rel, w))
        case Box(rel, body):
            return all(_reference_check_modal(body, a, v) for v in a.successors(rel, w))
    raise FormulaError(f"unexpected node {phi!r}")


def _reference_check_fo(phi, a, env):
    match phi:
        case TrueC():
            return True
        case FalseC():
            return False
        case Atom(rel, vs):
            return tuple(env[v] for v in vs) in a.interp[rel]
        case NegAtom(rel, vs):
            return tuple(env[v] for v in vs) not in a.interp[rel]
        case Eq(l, r):
            return env[l] == env[r]
        case NegEq(l, r):
            return env[l] != env[r]
        case And(parts):
            return all(_reference_check_fo(p, a, env) for p in parts)
        case Or(parts):
            return any(_reference_check_fo(p, a, env) for p in parts)
        case Exists(v, body) | Forall(v, body):
            decisive = type(phi) is Exists
            holds = not decisive
            old = env.get(v, _UNBOUND)
            for e in a.universe:
                env[v] = e
                if _reference_check_fo(body, a, env) == decisive:
                    holds = decisive
                    break
            if old is _UNBOUND:
                env.pop(v, None)
            else:
                env[v] = old
            return holds
    raise FormulaError(f"unexpected node {phi!r}")


def reference_model_check(phi, a, assignment=None, *, world=None):
    """Satisfaction by plain recursion: at ``world`` with Kripke semantics
    when it is given, else first-order under ``assignment``.  It assumes
    the checks ``model_check`` makes before evaluating have passed."""
    if world is not None:
        return _reference_check_modal(phi, a, world)
    return _reference_check_fo(phi, a, dict(assignment or {}))


# ---------------------------------------------------------------------------
# Eager oracle witnesses (reference for the lazy ``OracleResult.witness``)

def _reference_fo_literals(a, b, s, full, negations):
    """Key S's literals as formulas, built for this pair."""
    shift = a.size ** s.bit_count()
    ta, tb = _oracle._assignments(a, s), _oracle._assignments(b, s)
    literals = {full: TRUE}
    literals.setdefault(0, FALSE)

    def add(mask, positive, negative):
        literals.setdefault(mask, positive)
        if negations:
            literals.setdefault(full & ~mask, negative)

    vs = _oracle._variables(s)
    masks = zip(ta.literals, tb.literals)  # the atoms' masks, then the equalities'
    for rel, arity in a.vocab.relations:
        for vars_ in itertools.product(vs, repeat=arity):
            ma, mb = next(masks)
            add(ma | mb << shift, Atom(rel, vars_), NegAtom(rel, vars_))
    for (i, j), (ma, mb) in zip(itertools.combinations(vs, 2), masks):
        add(ma | mb << shift, Eq(i, j), NegEq(i, j))
    return literals


def _reference_modal_literals(a, b, full, negations):
    literals = {full: TRUE}
    literals.setdefault(0, FALSE)
    for rel in a.vocab.unary:
        m = 0
        for st, shift in ((a, 0), (b, a.size)):
            for (x,) in st.interp[rel]:
                m |= 1 << (st.index[x] + shift)
        literals.setdefault(m, Prop(rel))
        if negations:
            literals.setdefault(full & ~m, NegProp(rel))
    return literals


def _reference_explain(eng, r, key, conj, must, avoid):
    gens = eng.rounds[r][key][0]
    if conj:
        cands = [(g, how) for g, how in gens.items() if g & must == must and avoid & ~g]
        need = avoid
    else:
        cands = [(g, how) for g, how in gens.items() if g & must and not g & avoid]
        need = must

    def hits(g):
        return need & ~g if conj else need & g

    parts = []
    while need:
        g, how = max(cands, key=lambda c: (hits(c[0]) != 0 and isinstance(c[1], Formula),
                                           hits(c[0]).bit_count()))
        hit = hits(g)
        assert hit, "oracle generators do not cover"
        need &= ~hit
        if isinstance(how, Formula):
            parts.append(how)
            continue
        universal, label, src, body, pairs = how
        sub_must, sub_avoid = (must, hit) if conj else (hit, avoid)
        if universal:
            part = eng.forall(label, _reference_explain(
                eng, r - 1, src, False, _oracle._spread(pairs, sub_must),
                _oracle._pick(pairs, sub_avoid, ~body)))
        else:
            part = eng.exists(label, _reference_explain(
                eng, r - 1, src, True, _oracle._pick(pairs, sub_must, body),
                _oracle._spread(pairs, sub_avoid)))
        parts.append(part)
    return and_(parts) if conj else or_(parts)


def reference_oracle_witness(frag, a, b):
    """The witness of ``oracle_preserves(frag, a, b)``, or None, as the eager
    path found it: the engine's keys and edges, but formula literals built
    for the pair and a witness explained after every round until one
    exists."""
    negations = frag.mode in ("full", "existential")
    cap = _oracle.DEFAULT_SIGNATURE_CAP
    if frag.family == "ml_depth":
        eng = _oracle._modal_engine(a, b, frag.mode, cap)
        full = eng.keys[0][0]
        eng.keys[0] = (full, _reference_modal_literals(a, b, full, negations))
    else:
        eng = _oracle._fo_engine(a, b, frag.k, frag.mode, cap)
        for s, (full, _) in eng.keys.items():
            eng.keys[s] = (full, _reference_fo_literals(a, b, s, full, negations))
    if frag.family == "fo_rank":
        keys_of, layers = (lambda r: [s for s in eng.keys if s.bit_count() <= frag.k - r]), frag.k
    else:
        keys_of, layers = (lambda r: list(eng.keys)), (frag.k if frag.family == "ml_depth" else None)
    key, pa, pb = eng.root
    r = 0
    while True:
        eng.round(keys_of(r))
        up = next(u for c, (u, _) in eng.rounds[-1][key][1].items() if c >> pa & 1)
        phi = None if up >> pb & 1 else _reference_explain(eng, r, key, True, 1 << pa, 1 << pb)
        if phi is not None or r == layers or (r and eng._stable()):
            return phi
        r += 1


# ---------------------------------------------------------------------------
# Permutation scans (reference for the corpora's orbit tables)

def _reference_edge_bits(n, perm, mask):
    out = 0
    for i in range(n):
        for j in range(n):
            if mask >> (i * n + j) & 1:
                out |= 1 << (perm[i] * n + perm[j])
    return out


def reference_all_digraphs(max_size=3, include_empty=True):
    """``corpus.all_digraphs``: the masks least under every permutation."""
    out = []
    if include_empty:
        out.append(Structure.make(DIGRAPH_VOCAB, [], {}, name="D0"))
    for n in range(1, max_size + 1):
        perms = list(itertools.permutations(range(n)))
        elems = list("abcdefgh"[:n])
        for mask in range(1 << (n * n)):
            if min(_reference_edge_bits(n, p, mask) for p in perms) == mask:
                edges = [(elems[i], elems[j]) for i in range(n) for j in range(n)
                         if mask >> (i * n + j) & 1]
                out.append(Structure.make(DIGRAPH_VOCAB, elems, {"E": edges},
                                          name=f"D{n}_{mask}"))
    return out


def reference_all_pointed_kripke(max_size=3):
    """``corpus.all_pointed_kripke``: the (edges, props, point) encodings
    least under every permutation."""
    out = []
    for n in range(1, max_size + 1):
        perms = list(itertools.permutations(range(n)))
        elems = list("abcdefgh"[:n])
        for mask in range(1 << (n * n)):
            for pmask in range(1 << n):
                for point in range(n):
                    best = min(
                        (_reference_edge_bits(n, p, mask),
                         sum(1 << p[i] for i in range(n) if pmask >> i & 1),
                         p[point])
                        for p in perms)
                    if best != (mask, pmask, point):
                        continue
                    edges = [(elems[i], elems[j]) for i in range(n) for j in range(n)
                             if mask >> (i * n + j) & 1]
                    props = [(elems[i],) for i in range(n) if pmask >> i & 1]
                    out.append(Structure.make(
                        KRIPKE_VOCAB, elems, {"R": edges, "P": props},
                        point=elems[point], name=f"M{n}_{mask}_{pmask}_{point}"))
    return out


def small_structures(max_size=2, vocab=E2):
    """All structures over the vocabulary up to the size, not deduplicated."""
    out = []
    names = "xyz"
    for n in range(max_size + 1):
        elems = list(names[:n])
        cells = [(r, tup) for r, ar in vocab.relations
                 for tup in itertools.product(elems, repeat=ar)]
        for bits in range(1 << len(cells)):
            interp = {}
            for i, (r, tup) in enumerate(cells):
                if bits >> i & 1:
                    interp.setdefault(r, set()).add(tup)
            out.append(Structure.make(vocab, elems, interp, name=f"S{n}_{bits}"))
    return out


# collected by the acceptance suite; shown after the run even under capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
