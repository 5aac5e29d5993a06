"""Deterministic test corpora.

Three families: strongly stable ideals (single-seed exchange closures in
up to four variables, degree at most three), cointerval edge ideals
(d <= 3 on up to six vertices, enumerated constructively and re-filtered
through the recursive definition), and the two worked examples used
throughout the tests.  A seeded generator of random linear-quotient
ideals backs the property suite.
"""

import random
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement

from .cointerval import DGraph, edge_ideal, is_cointerval
from .ideals import (
    OrderedIdeal,
    check_regularity,
    find_linear_quotient_order,
    minimalize,
    parse_ideal,
)
from .monomial import Monomial

EXAMPLE1_GENS = ["x1*x3*x4", "x1*x3*x5", "x1*x2*x4", "x1*x4*x5", "x2*x3*x4", "x2*x3*x5"]
RUNNING_GENS = ["x1*x2", "x1*x3", "x1*x5", "x2*x3", "x2*x5", "x3*x5", "x4*x5"]


@dataclass
class CorpusItem:
    name: str
    kind: str  # "stable" | "cointerval" | "example"
    ideal: OrderedIdeal
    tags: dict = field(default_factory=dict)


def borel_closure(seed):
    """Smallest-variable exchange closure: close under x_i * w / x_j for
    every x_j dividing w and i < j."""
    todo = [seed]
    seen = {seed}
    while todo:
        w = todo.pop()
        for j in w.support():
            for i in range(1, j):
                swapped = w.times_var(i) // Monomial.variable(j, w.n)
                if swapped not in seen:
                    seen.add(swapped)
                    todo.append(swapped)
    return seen


def _ordered(n, gens):
    """Generators sorted with the lex-largest exponent vector first; that
    order gives linear quotients on the whole corpus and is re-verified
    downstream."""
    return OrderedIdeal(n, sorted(gens, key=lambda m: m.e, reverse=True))


def _seed_monomials(n, max_deg):
    for deg in range(1, max_deg + 1):
        for vs in combinations_with_replacement(range(1, n + 1), deg):
            e = [0] * n
            for v in vs:
                e[v - 1] += 1
            yield Monomial(e)


def stable_corpus(max_n=4, max_deg=3):
    """Minimalized exchange closures of single seed monomials."""
    items = []
    seen = set()
    for n in range(1, max_n + 1):
        for seed in _seed_monomials(n, max_deg):
            gens = frozenset(minimalize(borel_closure(seed)))
            key = (n, gens)
            if key in seen:
                continue
            seen.add(key)
            ideal = _ordered(n, gens)
            items.append(
                CorpusItem(
                    name="stable/n%d/%s" % (n, str(seed)),
                    kind="stable",
                    ideal=ideal,
                    tags={
                        "stable": True,
                        "strongly_stable": True,
                        "linear_quotients": True,
                        "seed": str(seed),
                    },
                )
            )
    return items


def _mask_key(d, universe):
    """Sort key putting edge sets in bitmask order: bit i marks the i-th
    d-subset of `universe` in `combinations` order."""
    bit = {e: 1 << i for i, e in enumerate(combinations(universe, d))}
    return lambda edges: sum(bit[e] for e in edges)


def _cointerval_edge_sets(d, universe):
    """Every cointerval d-graph edge set on the sorted tuple `universe`,
    the empty one included.

    d = 1: every vertex subset, by size.  d > 1: choose the layer of each
    vertex in order, from the cointerval (d-1)-graphs on the later
    vertices.  A vertex with edges below its layer choice is part of the
    support, so later support layers must shrink; vertices outside the
    support are invisible to the nesting condition.
    """
    if d == 1:
        return [
            frozenset((v,) for v in vs)
            for size in range(len(universe) + 1)
            for vs in combinations(universe, size)
        ]
    layer_options = []
    for i in range(len(universe)):
        later = universe[i + 1 :]
        layer_options.append(
            sorted(_cointerval_edge_sets(d - 1, later), key=_mask_key(d - 1, later))
        )
    results = []

    def walk(i, bound, in_support, edges):
        if i == len(universe):
            results.append(frozenset(edges))
            return
        v = universe[i]
        for layer in layer_options[i]:
            if bound is not None and not layer <= bound:
                continue
            if layer:
                new_bound = layer
            elif v in in_support:
                new_bound = frozenset()
            else:
                new_bound = bound
            support2 = in_support | {u for e in layer for u in e}
            walk(
                i + 1,
                new_bound,
                support2,
                edges + [(v,) + e for e in layer],
            )

    walk(0, None, set(), [])
    return results


# Cointerval d-graphs are listed for d up to this; a larger max_d is capped.
MAX_COINTERVAL_D = 3


def cointerval_corpus(max_d=MAX_COINTERVAL_D, max_n=6):
    """Every cointerval d-graph edge ideal with d <= min(max_d,
    MAX_COINTERVAL_D) on [max_n]: 1-graphs by size, 2-graphs in bitmask
    order, 3-graphs in walk order.  The order is part of the corpus: tests
    sample it by stride.

    Each instance is passed back through the recursive definition as a
    guard against enumeration bugs.
    """
    universe = tuple(range(1, max_n + 1))
    graphs = []
    for d in range(1, min(max_d, MAX_COINTERVAL_D) + 1):
        edge_sets = _cointerval_edge_sets(d, universe)
        if d == 2:
            edge_sets.sort(key=_mask_key(2, universe))
        graphs += [DGraph.from_edges(d, edges) for edges in edge_sets if edges]
    items = []
    for g in graphs:
        if not is_cointerval(g):
            raise AssertionError("enumeration produced a non-cointerval graph")
        ideal = edge_ideal(g, n=max(g.vertices))
        items.append(
            CorpusItem(
                name="cointerval/d%d/%s" % (g.d, ",".join(map(str, sorted(g.edges)))),
                kind="cointerval",
                ideal=ideal,
                tags={
                    "cointerval": True,
                    "d": g.d,
                    "linear_quotients": True,
                    "edges": sorted(g.edges),
                },
            )
        )
    return items


def example_corpus():
    ex1 = parse_ideal(", ".join(EXAMPLE1_GENS))
    run = parse_ideal(", ".join(RUNNING_GENS))
    return [
        CorpusItem(
            name="example/six-generators",
            kind="example",
            ideal=ex1,
            tags={
                "linear_quotients": True,
                "regular": True,
                "stable": False,
                "cointerval": False,
            },
        ),
        CorpusItem(
            name="example/running",
            kind="example",
            ideal=run,
            tags={
                "linear_quotients": True,
                "regular": True,
                "stable": False,
                "cointerval": True,
            },
        ),
    ]


def gen_corpus(max_n=4, max_deg=3, max_d=MAX_COINTERVAL_D, cointerval_n=6):
    """The full deterministic corpus: stable closures, cointerval edge
    ideals, and the worked examples."""
    return stable_corpus(max_n, max_deg) + cointerval_corpus(max_d, cointerval_n) + example_corpus()


def random_linear_quotient_ideals(count, seed, max_n=6, max_k=8, max_deg=3):
    """Seeded stream of ideals with a verified linear-quotient order and a
    regular decomposition function.

    Candidates are random monomial sets, minimalized; an order is searched
    for and b's regularity checked; rejects are skipped.
    """
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count:
            raise RuntimeError("rejection sampling is not converging")
        n = rng.randint(2, max_n)
        k = rng.randint(2, max_k)
        cands = set()
        squarefree = rng.random() < 0.5
        for _ in range(k):
            deg = rng.randint(1, max_deg)
            e = [0] * n
            for _ in range(deg):
                e[rng.randrange(n)] += 1
            if squarefree:
                e = [min(1, a) for a in e]
            if any(e):
                cands.add(Monomial(e))
        gens = minimalize(sorted(cands, key=lambda m: m.e))
        if len(gens) < 2:
            continue
        ideal = OrderedIdeal(n, gens)
        order = find_linear_quotient_order(ideal)
        if order is None:
            continue
        ordered = ideal.reordered(order)
        if not check_regularity(ordered).regular:
            continue
        out.append(ordered)
    return out
