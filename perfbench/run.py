#!/usr/bin/env python3
"""fmgames benchmark: one client in a closed loop, one thread, one process.

    python3 perfbench/run.py --workload ef-crosscheck --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ``fmgames`` from ``src/``.
Each workload turns ``--seed`` into a list of queries over generated
``Structure``s (one *pass*).  The run repeats whole passes, starting each
query only after the previous one has finished, until ``--seconds`` have
elapsed.  Every query cross-checks the engines and re-verifies every
synthesized formula; a wrong answer fails the run (exit 1).

The lines printed before the last one give each metric with its unit, the
digest of the query list and the digest of the verdicts.  The last line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
which holds the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``
and its per-layer metrics with ``--trace 1``.

With ``--trace 1`` a span is recorded around every call the benchmark makes
into a layer (a module of ``src/fmgames``), and every query also runs
untraced, to measure the tracing overhead.  Spans are kept in memory and
written to ``perfbench/traces/`` when the run ends.  A layer's span covers
whatever that call does inside the library, so the ``bisim`` spans include
that module's own cofree builds and witness verification.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = Path(__file__).resolve().parent / "traces"

MODES = ("full", "existential", "positive", "ep")
STRATA = tuple((mode, k) for k in (1, 2) for mode in MODES)

SETUPS = 7          # set-ups per run; setup_s is their median
TAIL_BEYOND = 10    # samples that must lie beyond the reported tail latency

# Pass sizes.  A pass holds enough queries that one seed's sample costs
# about what another's does.  On a shared 2-core machine a pass takes 4 to
# 8 s (13 s for fv-crosscheck), so a 20 s run completes two or more, and a
# query's median latency over the passes damps garbage-collector pauses.
EF_PASS = 2560
MODAL_PASS = 12288
PEBBLE_BLOCKS = 5
# pebble-scale strata (size, k, pairs per mode in a block).  The solve costs
# fall into clusters: size 4 at k=2, size 5 at k=2, then size 4 at k=3 in
# modes full and existential, positive, ep.  Three pairs per mode at k=3
# put the median query inside the full/existential cluster rather than in
# the gap between two clusters, where it would jump from seed to seed.
PEBBLE_STRATA = ((4, 2, 1), (5, 2, 1), (4, 3, 3))
# fv-crosscheck: at k=2 one query of the l_vars oracle costs 1 ms to 3.5 s
# depending on the pair, so a run holds too few of them to average a seeded
# sample.  The k=2 pairs are therefore one fixed sample, drawn with
# FV_SAMPLE_SEED; the run seed only renames their elements (element order
# moves their cost by about 10%, so it is kept).  The k=1 pairs are drawn
# from the run seed.  This also puts the tail latency on a fixed pair, well
# above every k=1 query.
FV_SAMPLE_SEED = 2503
FV_FIXED_DRAWS = 64       # 8 pairs in each k=2 stratum
FV_SEEDED_DRAWS = 2048    # 256 pairs in each k=1 stratum

LAYERS = (
    "games.solve", "synthesis.distinguish",
    "formulas.model_check", "formulas.classify",
    "oracle.fo_rank_profile", "oracle.ml_depth_profile", "oracle.oracle_preserves",
    "coalgebras.build_ef", "coalgebras.build_modal",
    "morphisms.find_morphism",
    "bisim.build_positive_bisim", "bisim.build_bisim",
)
SETUP_LAYERS = ("corpus.all_digraphs", "corpus.all_pointed_kripke", "corpus.clique")
# ratio metric -> (counter of successes, layer whose calls are the base)
RATIOS = {
    "games.solve.dup_win_ratio": ("games.solve.dup_wins", "games.solve"),
    "oracle.fo_rank_profile.preserved_ratio":
        ("oracle.fo_rank_profile.preserved", "oracle.fo_rank_profile"),
    "oracle.ml_depth_profile.preserved_ratio":
        ("oracle.ml_depth_profile.preserved", "oracle.ml_depth_profile"),
    "oracle.oracle_preserves.preserved_ratio":
        ("oracle.oracle_preserves.preserved", "oracle.oracle_preserves"),
    "morphisms.find_morphism.found_ratio":
        ("morphisms.find_morphism.found", "morphisms.find_morphism"),
}
# work counters, summed over one pass
WORK_COUNTERS = (
    "games.solve.pebble_dead_placements",
    "synthesis.distinguish.formula_nodes",
    "coalgebras.build_ef.carrier_elems",
    "coalgebras.build_modal.carrier_elems",
    "bisim.build_positive_bisim.witness_elems",
    "bisim.build_bisim.witness_elems",
)


class WrongAnswer(Exception):
    """The engines disagree, or a verdict or witness fails its check."""


@dataclass(frozen=True)
class Query:
    a: Any
    b: Any
    mode: str
    k: int
    known: bool | None = None   # the verdict a calibration pair must get

    def __str__(self):
        return f"{self.a.name} vs {self.b.name}, mode {self.mode}, k={self.k}"


class Trace:
    """Layer calls go through ``call``.  Untraced, it calls straight through.

    Traced, it records one span per call as ``(name, start, end, parent,
    query_id, error)``, where ``parent`` indexes the enclosing query or
    set-up span, and ``count`` adds up counters read off the results.
    """

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self.errors: tuple = ()     # typed resource errors, known after import
        self.parent = None
        self.query_id = None

    def begin(self, name: str, query_id):
        if self.tracing:
            self.parent, self.query_id = len(self.spans), query_id
            self.spans.append([name, time.perf_counter(), None, None, query_id, False])

    def end(self, error: bool = False):
        if self.tracing:
            span = self.spans[self.parent]
            span[2], span[5] = time.perf_counter(), error
            self.parent = self.query_id = None

    def call(self, name: str, fn: Callable, *args):
        if not self.tracing:
            return fn(*args)
        start = time.perf_counter()
        try:
            out = fn(*args)
        except self.errors:
            self.spans.append((name, start, time.perf_counter(), self.parent, self.query_id, True))
            raise
        self.spans.append((name, start, time.perf_counter(), self.parent, self.query_id, False))
        return out

    def count(self, key: str, value):
        if self.tracing:
            self.counters[key] += value


# ---------------------------------------------------------------------------
# Query generation

def stratified_pairs(structures, rnd, n):
    return [Query(rnd.choice(structures), rnd.choice(structures), *STRATA[i % len(STRATA)])
            for i in range(n)]


def ef_queries(fm, corpus, rnd, t):
    digraphs = t.call("corpus.all_digraphs", corpus.all_digraphs, 3)
    return stratified_pairs(digraphs, rnd, EF_PASS)


def modal_queries(fm, corpus, rnd, t):
    models = t.call("corpus.all_pointed_kripke", corpus.all_pointed_kripke, 3)
    return stratified_pairs(models, rnd, MODAL_PASS)


def rename(fm, s, rnd):
    """An isomorphic copy with shuffled element names, in the same order."""
    names = [f"v{i}" for i in range(s.size)]
    rnd.shuffle(names)
    new = dict(zip(s.universe, names))
    interp = {rel: [tuple(new[x] for x in tup) for tup in tuples]
              for rel, tuples in s.interp.items()}
    return fm.Structure.make(s.vocab, [new[x] for x in s.universe], interp, name=s.name)


def fv_queries(fm, corpus, rnd, t):
    digraphs = t.call("corpus.all_digraphs", corpus.all_digraphs, 3)
    fixed = [q for q in stratified_pairs(digraphs, random.Random(FV_SAMPLE_SEED), FV_FIXED_DRAWS)
             if q.k == 2]
    queries = [Query(rename(fm, q.a, rnd), rename(fm, q.b, rnd), q.mode, q.k) for q in fixed]
    queries += [q for q in stratified_pairs(digraphs, rnd, FV_SEEDED_DRAWS) if q.k == 1]
    rnd.shuffle(queries)
    return queries


def random_digraph(fm, corpus, rnd, n, name):
    """A digraph on n elements with round(0.4 n^2) edges, round(0.4 n) of
    them loops.  Fixing both counts keeps the solve cost of one seed's
    sample close to another's."""
    elems = [f"e{i}" for i in range(n)]
    loops = round(0.4 * n)
    edges = rnd.sample([(x, x) for x in elems], loops)
    edges += rnd.sample([(x, y) for x in elems for y in elems if x != y], round(0.4 * n * n) - loops)
    return fm.Structure.make(corpus.DIGRAPH_VOCAB, elems, {"E": edges}, name=name)


def pebble_queries(fm, corpus, rnd, t):
    k2, k3, k4 = (t.call("corpus.clique", corpus.clique, m) for m in (2, 3, 4))
    queries = [Query(k2, k3, "full", 2, True), Query(k2, k3, "full", 3, False),
               Query(k3, k4, "full", 3, True), Query(k3, k4, "full", 4, False)]
    for block in range(PEBBLE_BLOCKS):
        for n, k, copies in PEBBLE_STRATA:
            for mode in MODES:
                for c in range(copies):
                    a = random_digraph(fm, corpus, rnd, n, f"R{n}_{block}{mode}{c}a")
                    b = random_digraph(fm, corpus, rnd, n, f"R{n}_{block}{mode}{c}b")
                    queries.append(Query(a, b, mode, k))
    return queries


# ---------------------------------------------------------------------------
# Queries: each returns its verdict, or raises WrongAnswer

def wrong(q: Query, what: str):
    raise WrongAnswer(f"{q}: {what}")


def agree(q: Query, **verdicts):
    if len(set(verdicts.values())) != 1:
        wrong(q, f"engines disagree: {verdicts}")


def solve(fm, t, q: Query, family: str):
    spec = fm.GameSpec(family, q.mode, q.k)
    v = t.call("games.solve", fm.solve, spec, q.a, q.b)
    t.count("games.solve.dup_wins", v.duplicator_wins)
    if v.stage is not None:
        t.count("games.solve.pebble_dead_placements", len(v.stage))
    return spec, v


def formula_nodes(phi) -> int:
    nodes, stack = 0, [phi]
    while stack:
        f = stack.pop()
        nodes += 1
        stack.extend(getattr(f, "parts", ()))
        if hasattr(f, "body"):
            stack.append(f.body)
    return nodes


def synthesize(fm, t, q: Query, spec, v):
    """Distinguishing formula from Spoiler's strategy, re-verified."""
    phi = t.call("synthesis.distinguish", fm.distinguish, spec, q.a, q.b, v)
    if t.tracing:
        t.count("synthesis.distinguish.formula_nodes", formula_nodes(phi))
    if not t.call("formulas.model_check", fm.model_check, phi, q.a):
        wrong(q, f"synthesized {phi} is false in A")
    if t.call("formulas.model_check", fm.model_check, phi, q.b):
        wrong(q, f"synthesized {phi} is true in B")
    c = t.call("formulas.classify", fm.classify, phi)
    if not c.in_mode[q.mode]:
        wrong(q, f"synthesized {phi} is outside mode {q.mode}")
    return phi, c


def coalgebra_route(fm, t, q: Query, v, family: str) -> bool:
    """The coalgebra verdict for the query's mode, reusing the game verdict."""
    if q.mode == "positive":
        w = t.call("bisim.build_positive_bisim", fm.build_positive_bisim,
                   q.a, q.b, family, q.k, v)
        t.count("bisim.build_positive_bisim.witness_elems", 0 if w is None else len(w.z1.universe))
        return w is not None
    if q.mode == "full":
        w = t.call("bisim.build_bisim", fm.build_bisim, q.a, q.b, family, q.k, v)
        t.count("bisim.build_bisim.witness_elems", 0 if w is None else len(w.z.universe))
        return w is not None
    if family == "ef_i":
        layer, build, args, ep_kind = "coalgebras.build_ef", fm.build_ef, (q.k, True), "i_morphism"
    else:
        layer, build, args, ep_kind = "coalgebras.build_modal", fm.build_modal, (q.k,), "hom"
    x = t.call(layer, build, q.a, *args)
    y = t.call(layer, build, q.b, *args)
    t.count(f"{layer}.carrier_elems", len(x.universe) + len(y.universe))
    kind = ep_kind if q.mode == "ep" else "pathwise_embedding"
    found = t.call("morphisms.find_morphism", fm.find_morphism, kind, x, y) is not None
    t.count("morphisms.find_morphism.found", found)
    return found


def ef_query(fm, t, q: Query):
    spec, v = solve(fm, t, q, "ef")
    profile = t.call("oracle.fo_rank_profile", fm.fo_rank_profile, q.a, q.b, q.k, q.mode)
    oracle = profile[q.k].preserved
    t.count("oracle.fo_rank_profile.preserved", oracle)
    route = coalgebra_route(fm, t, q, v, "ef_i")
    agree(q, game=v.duplicator_wins, oracle=oracle, coalgebra=route)
    if not v.duplicator_wins:
        phi, c = synthesize(fm, t, q, spec, v)
        if c.rank > q.k:
            wrong(q, f"synthesized {phi} has rank {c.rank} > {q.k}")
    return v.duplicator_wins


def modal_query(fm, t, q: Query):
    spec, v = solve(fm, t, q, "modal")
    profile = t.call("oracle.ml_depth_profile", fm.ml_depth_profile, q.a, q.b, q.k, q.mode)
    oracle = profile[q.k].preserved
    t.count("oracle.ml_depth_profile.preserved", oracle)
    route = coalgebra_route(fm, t, q, v, "modal")
    agree(q, game=v.duplicator_wins, oracle=oracle, coalgebra=route)
    if not v.duplicator_wins:
        phi, c = synthesize(fm, t, q, spec, v)
        if c.modal_depth is None or c.modal_depth > q.k:
            wrong(q, f"synthesized {phi} has modal depth {c.modal_depth}, bound {q.k}")
    return v.duplicator_wins


def pebble_verdict(fm, t, q: Query, spec, v):
    """Verdict and death stage; on a Spoiler win the formula is verified
    to use at most k variables and rank at most the death stage."""
    if v.duplicator_wins:
        return True, None
    stage = v.stage[frozenset()]
    phi, c = synthesize(fm, t, q, spec, v)
    if c.var_count > q.k or c.rank > stage:
        wrong(q, f"synthesized {phi} has {c.var_count} variables and rank {c.rank}, "
                 f"bounds {q.k} and stage {stage}")
    return False, stage


def fv_query(fm, t, q: Query):
    spec, v = solve(fm, t, q, "pebble")
    frag = fm.FragmentSpec("l_vars", q.k, q.mode)
    oracle = t.call("oracle.oracle_preserves", fm.oracle_preserves, frag, q.a, q.b).preserved
    t.count("oracle.oracle_preserves.preserved", oracle)
    agree(q, game=v.duplicator_wins, oracle=oracle)
    return pebble_verdict(fm, t, q, spec, v)


def pebble_query(fm, t, q: Query):
    spec, v = solve(fm, t, q, "pebble")
    if q.known is not None and v.duplicator_wins != q.known:
        wrong(q, f"calibration verdict {v.duplicator_wins}, known {q.known}")
    return pebble_verdict(fm, t, q, spec, v)


@dataclass(frozen=True)
class Workload:
    queries: Callable
    run: Callable


WORKLOADS = {
    "ef-crosscheck": Workload(ef_queries, ef_query),
    "modal-crosscheck": Workload(modal_queries, modal_query),
    "fv-crosscheck": Workload(fv_queries, fv_query),
    "pebble-scale": Workload(pebble_queries, pebble_query),
}


# ---------------------------------------------------------------------------
# Running

def set_up(workload: Workload, seed: int, t: Trace):
    """Import fmgames afresh, then build the corpus and the query list."""
    for name in [m for m in sys.modules if m.split(".")[0] == "fmgames"]:
        del sys.modules[name]
    fm = importlib.import_module("fmgames")
    corpus = importlib.import_module("fmgames.corpus")
    return fm, workload.queries(fm, corpus, random.Random(seed), t)


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(repr(line).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def query_digest(fm, queries) -> str:
    return digest((q.mode, q.k, q.known, fm.serialize_structure(q.a), fm.serialize_structure(q.b))
                  for q in queries)


def run_passes(fm, workload: Workload, queries, seconds: float, traces: list, answers: list):
    """Whole passes until ``seconds`` have elapsed.  In a pass every query
    runs once under each of ``traces``, in an order that rotates with the
    query, so that a change in machine speed lands on all of them alike.
    Returns each query's latency under ``traces[0]`` in every pass (None
    where it ended in a typed resource error), the time spent in queries
    under each trace, the number of passes and the wall time."""
    n = len(traces)
    times = [[] for _ in queries]
    busy = [0.0] * n
    passes = 0
    start = time.perf_counter()
    while True:
        for i, q in enumerate(queries):
            for j in [(i + r) % n for r in range(n)]:
                t = traces[j]
                t.begin("query", i)
                q_start = time.perf_counter()
                try:
                    answer = workload.run(fm, t, q)
                except t.errors as exc:
                    latency = None
                    answer = type(exc).__name__
                else:
                    latency = time.perf_counter() - q_start
                busy[j] += time.perf_counter() - q_start
                t.end(error=latency is None)
                if j == 0:
                    times[i].append(latency)
                if answers[i] is None:
                    answers[i] = answer
                elif answers[i] != answer:
                    raise WrongAnswer(f"{q}: answer {answer} differs from an earlier run, {answers[i]}")
        passes += 1
        wall = time.perf_counter() - start
        if wall >= seconds:
            return times, busy, passes, wall


def end_to_end(setup_s, times, completed, wall):
    """A query's latency is its median over the passes; a query that failed
    counts as missing every latency limit."""
    latency = sorted(float("inf") if None in ts else statistics.median(ts) for ts in times)
    n = len(latency)
    beyond = min(TAIL_BEYOND, n - 1)
    print(f"query latency: median over {len(times[0])} passes of each of {n} queries; "
          f"query_tail_ms is p{100.0 * (n - beyond) / n:.2f}, {beyond} queries beyond it")
    return {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (completed / wall, "1/s"),
        "query_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "query_tail_ms": (latency[n - beyond - 1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(t: Trace, wall, passes, setup_s, traced_qps, untraced_qps):
    calls, busy, errors = defaultdict(int), defaultdict(float), defaultdict(int)
    setup_busy = defaultdict(lambda: defaultdict(float))
    query_s = 0.0
    for name, start, end, parent, query_id, error in t.spans:
        if name == "query":
            query_s += end - start
            continue
        if name == "setup":
            continue
        calls[name] += 1
        errors[name] += error
        if name in SETUP_LAYERS:
            setup_busy[name][query_id] += end - start
        else:
            busy[name] += end - start
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.busy_s"] = (busy[layer], "s")
        out[f"{layer}.share"] = (busy[layer] / wall, "frac")
        out[f"{layer}.errors"] = (errors[layer], "count")
    for layer in SETUP_LAYERS:
        per_setup = statistics.median(setup_busy[layer].values()) if setup_busy[layer] else 0.0
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.busy_s"] = (per_setup, "s")
        out[f"{layer}.share"] = (per_setup / setup_s, "frac")
    for ratio, (hits, layer) in RATIOS.items():
        out[ratio] = (t.counters[hits] / calls[layer] if calls[layer] else 0.0, "frac")
    for counter in WORK_COUNTERS:
        out[counter] = (t.counters[counter] / passes, "count/pass")
    self_s = query_s - sum(busy.values())
    out["query.self_s"] = (self_s, "s")
    out["query.self_share"] = (self_s / wall, "frac")
    out["trace.queries_per_s"] = (traced_qps, "1/s")
    out["trace.untraced_queries_per_s"] = (untraced_qps, "1/s")
    out["trace.overhead_frac"] = (1.0 - traced_qps / untraced_qps, "frac")
    return out


def write_spans(t: Trace, workload_name: str, seed: int) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload_name}-seed{seed}.jsonl"
    with path.open("w") as f:
        f.write('["id", "name", "start", "end", "parent", "query", "error"]\n')
        for i, span in enumerate(t.spans):
            f.write(json.dumps([i, *span]) + "\n")
    return path


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fmgames" / "__init__.py").is_file():
        print(f"error: no fmgames sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    t = Trace(bool(args.trace))

    setup_times = []
    for r in range(SETUPS):
        fm = queries = None
        gc.collect()    # every set-up starts from the same heap
        t.begin("setup", f"setup{r}")
        start = time.perf_counter()
        fm, queries = set_up(workload, args.seed, t)
        setup_times.append(time.perf_counter() - start)
        t.end()
        if r == 0:
            first_digest = query_digest(fm, queries)
    setup_s = statistics.median(setup_times)
    queries_digest = query_digest(fm, queries)
    if queries_digest != first_digest:
        print("error: the query list differs between set-ups of one seed", file=sys.stderr)
        return 1
    t.errors = (fm.GameResourceError, fm.OracleResourceError, fm.CoalgebraSizeError)
    print(f"workload {args.workload}, seed {args.seed}: {len(queries)} queries per pass, "
          f"query_digest {queries_digest}")

    answers = [None] * len(queries)
    traces = [t]
    if args.trace:
        traces.append(Trace(False))     # the untraced side of the overhead
        traces[1].errors = t.errors
    gc.collect()
    try:
        times, busy, passes, wall = run_passes(fm, workload, queries, args.seconds, traces, answers)
    except WrongAnswer as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        return 1
    attempted = passes * len(queries)
    failed = sum(ts.count(None) for ts in times)
    print(f"{passes} passes, {attempted} queries in {wall:.3f} s, "
          f"verdict_digest {digest(answers)}")
    print(f"failed_frac = {failed / attempted:.6f} ({failed} of {attempted} queries)")

    if args.trace:
        qps = [attempted / b for b in busy]
        metrics = per_layer(t, busy[0], passes, setup_s, *qps)
        print(f"spans written to {write_spans(t, args.workload, args.seed).relative_to(ROOT)}")
    else:
        metrics = end_to_end(setup_s, times, attempted - failed, wall)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    declared = declared_metrics(bool(args.trace))
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        print(f"error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(produced.items()) ^ set(declared.items()))}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
