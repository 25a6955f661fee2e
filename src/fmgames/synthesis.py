"""Distinguishing-formula synthesis from Spoiler winning strategies.

The recursion mirrors the game: a Spoiler move in A becomes an existential
quantifier over the conjunction of the subformulas obtained for every
Duplicator response; a Spoiler move in B becomes a universal quantifier over
the disjunction.  At positions whose winning condition already fails, a
violated literal is emitted.  EF rounds reuse variable indices 1..k in play
order, the pebble game reuses the pebble index, and the modal game uses
diamonds and boxes (over an empty response family these degenerate to
``<R> true`` and ``[R] false``).

EF, modal and bounded pebble verdicts are walked through their positional
keys (``_Synthesis``).  An unbounded pebble verdict is walked on its stage
table's own data instead (``_PebbleSynthesis``): a node is the pair bit each
placed pebble holds and the mask of the placed pairs, a leaf is a mask of
stage 0, Spoiler's move is ``_StageTable.move`` and a move's responses are
the bits of ``_StageTable.replies``, so no placement or key is built.
"""

from __future__ import annotations

from .formulas import Box, Dia, Formula, Exists, Forall, and_, or_
from .games import GameSpec, Verdict, _StageTable, modal_literal, solve, violated_literal
from .structures import Structure


class DuplicatorWinsError(ValueError):
    """distinguish() called on a pair where Duplicator wins."""


def distinguish(spec: GameSpec, a: Structure, b: Structure,
                verdict: Verdict | None = None) -> Formula:
    """Synthesize a formula of the matching fragment separating a from b.

    Requires a Spoiler win.  The result is true in ``a`` and false in ``b``,
    stays inside the mode, and respects the resource bound (rank <= k for EF,
    variables <= k and rank <= death stage for pebble, depth <= k for modal).
    """
    if verdict is None:
        verdict = solve(spec, a, b)
    if verdict.duplicator_wins:
        raise DuplicatorWinsError("Duplicator wins; nothing to distinguish")
    if isinstance(verdict.stage, _StageTable):
        return _PebbleSynthesis(a, b, verdict).formula({}, 0)
    return _Synthesis(spec, a, b, verdict).formula(verdict.root, ())


def _leaf(literal: Formula | None) -> Formula:
    """The literal of a condition-violating position, which must exist."""
    if literal is None:
        raise RuntimeError("no violated literal at a condition-violating position")
    return literal


class _Synthesis:
    """The recursion of ``distinguish`` along Spoiler's strategy.  A method,
    not a recursive closure: a closure holds itself through its cell, and
    that cycle would leave the verdict to the cyclic garbage collector.
    Each node carries its positional key and ``played``, the pairs placed
    on the way to it, which an EF leaf binds to the rounds' variables."""

    def __init__(self, spec: GameSpec, a: Structure, b: Structure, verdict: Verdict):
        self.a, self.b, self.verdict = a, b, verdict
        self.iso = spec.iso_condition
        self.modal = spec.family == "modal"
        self.forth, self.back = (Dia, Box) if self.modal else (Exists, Forall)

    def formula(self, key, played) -> Formula:
        verdict = self.verdict
        rules = verdict.rules
        if not verdict.condition_at(key):
            if self.modal:
                x, y = key[0]
                return _leaf(modal_literal(x, y, self.a, self.b, self.iso))
            bindings = rules.bindings(key, played)
            return _leaf(violated_literal(bindings, self.a, self.b, self.iso))
        move = verdict.spoiler_move_at(key)
        if move is None:
            raise RuntimeError("dead position without a winning move")
        parts = [self.formula(child, (*played, rules.pair(move, r)))
                 for r, child in verdict.children(key, move)]
        label = rules.label(key, move)
        if move[-2] == "A":
            return self.forth(label, and_(parts))
        return self.back(label, or_(parts))


class _PebbleSynthesis:
    """The recursion of ``distinguish`` on an unbounded pebble verdict's
    stage table.  A node is ``held``, pebble -> bit of the pair it holds
    (only the placed pebbles, so nothing grows with k), and ``mask``, the
    OR of those bits; the table files its stage under the mask."""

    def __init__(self, a: Structure, b: Structure, verdict: Verdict):
        self.a, self.b = a, b
        self.iso = verdict.spec.iso_condition
        self.table = verdict.stage
        self.elements = verdict.rules.elements

    def formula(self, held: dict, mask: int) -> Formula:
        table = self.table
        if table.stages.get(mask, 0) == 0:
            pairs = table.pairs
            bindings = [(p, *pairs[bit.bit_length() - 1]) for p, bit in sorted(held.items())]
            return _leaf(violated_literal(bindings, self.a, self.b, self.iso))
        shared = table.placed(held.values())[1]
        move = table.move(held, mask, shared, self.elements)
        if move is None:
            raise RuntimeError("dead position without a winning move")
        p, side, e = move
        base = mask ^ (held.get(p, 0) & ~shared)  # the pairs of the other pebbles
        parts = []
        for bit in table.replies.get((side, e), ()):
            child = dict(held)
            child[p] = bit
            parts.append(self.formula(child, base | bit))
        if side == "A":
            return Exists(p, and_(parts))
        return Forall(p, or_(parts))
