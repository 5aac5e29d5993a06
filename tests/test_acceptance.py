"""Acceptance suite: one test per criterion, each printing a verdict line.

The corpus-wide criteria (3, 4, 5, 6) share a single pipeline pass over
the generated corpus; its per-phase timers are reported on the matching
criterion lines.  Every tolerance here is exact: all arithmetic is
integer or rational, so "pass" means equality, not closeness.
"""

import time
from math import comb

import pytest

from cellres.betti import (
    TAYLOR_BOUND,
    TaylorSupport,
    betti_from_resolution,
    check_cellular_resolution,
    multigraded_betti,
)
from cellres.chain import (
    BRule,
    check_dd_zero,
    check_minimal,
    compare_up_to_degree_signs,
    ht_resolution,
)
from cellres.cointerval import (
    CRule,
    build_hom_complex,
    cointerval_discrepancy,
    dgraph_of_ideal,
    edge_ideal,
    face_of_symbol,
    hom_chain_complex,
    homcone_resolution,
    is_cointerval,
    symbol_of_face,
)
from cellres.corpus import gen_corpus, random_linear_quotient_ideals
from cellres.ekcells import (
    affinely_independent,
    build_ek_cw,
    cell_is_ball,
    cellular_chain_complex,
    classify_facet,
)
from cellres.errors import NotRegular
from cellres.ideals import check_regularity, parse_ideal
from cellres.monomial import parse_monomial
from cellres.poset import complex_fingerprint
from cellres.rules import enumerate_regular_rules, rule_family
from reference import is_squarefree_strongly_stable

EXAMPLE1 = "x1*x3*x4, x1*x3*x5, x1*x2*x4, x1*x4*x5, x2*x3*x4, x2*x3*x5"
RUNNING = "x1*x2, x1*x3, x1*x5, x2*x3, x2*x5, x3*x5, x4*x5"


def verdict(num, ok, detail):
    line = "ACCEPTANCE %2d: %s  %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    return gen_corpus()


@pytest.fixture(scope="module")
def pipeline(corpus):
    """One pass over the corpus collecting everything criteria 3-6 need."""
    stats = {
        "ideals": 0,
        "regular": 0,
        "irregular_guarded": 0,
        "ek_mismatches": 0,
        "hom_mismatches": 0,
        "hom_roundtrip_failures": 0,
        "facet_violations": 0,
        "dependence_violations": 0,
        "ball_failures": 0,
        "balls": 0,
        "acyclic_failures": 0,
        "taylor_checked": 0,
        "t_ek": 0.0,
        "t_hom": 0.0,
        "t_facets": 0.0,
        "t_acyclic": 0.0,
    }
    for item in corpus:
        ideal = item.ideal
        stats["ideals"] += 1
        assert ideal.has_linear_quotients(), item.name
        regular = check_regularity(ideal).regular
        X = None
        if regular:
            stats["regular"] += 1
            t0 = time.monotonic()
            X = build_ek_cw(ideal)
            cellular = cellular_chain_complex(X)
            algebraic = ht_resolution(ideal)
            ok, _ = compare_up_to_degree_signs(cellular, algebraic)
            okdd, _ = check_dd_zero(algebraic)
            if not (ok and okdd and check_minimal(algebraic)):
                stats["ek_mismatches"] += 1
            stats["t_ek"] += time.monotonic() - t0

            t0 = time.monotonic()
            for cell in X.cells.values():
                if cell.dim <= 3:
                    stats["balls"] += 1
                    if not cell_is_ball(cell):
                        stats["ball_failures"] += 1
                members = [set(s.vertices) for s in cell.simplices]
                for chain in cell.simplices:
                    pts = [ideal.gen(v).e for v in chain.vertices]
                    if not affinely_independent(pts):
                        stats["dependence_violations"] += 1
                    for drop in range(len(chain.vertices)):
                        facet = set(
                            chain.vertices[:drop] + chain.vertices[drop + 1 :]
                        )
                        count = sum(1 for m in members if facet <= m)
                        kind = classify_facet(ideal, chain, drop).kind
                        expected = 2 if kind == "interior" else 1
                        if count != expected:
                            stats["facet_violations"] += 1
            stats["t_facets"] += time.monotonic() - t0
        else:
            with pytest.raises(NotRegular):
                ht_resolution(ideal)
            stats["irregular_guarded"] += 1

        H = None
        if item.tags.get("cointerval"):
            t0 = time.monotonic()
            H = build_hom_complex(dgraph_of_ideal(ideal), ideal.n)
            hom_cell = hom_chain_complex(H, ideal)
            hom_alg = homcone_resolution(ideal)
            ok, _ = compare_up_to_degree_signs(hom_cell, hom_alg)
            okdd, _ = check_dd_zero(hom_alg)
            if not (ok and okdd and check_minimal(hom_alg)):
                stats["hom_mismatches"] += 1
            for cell, _, _ in H.cells_with_labels():
                sym = symbol_of_face(ideal, cell)
                if face_of_symbol(ideal, sym.gen, sym.alpha) != cell:
                    stats["hom_roundtrip_failures"] += 1
            stats["t_hom"] += time.monotonic() - t0

        t0 = time.monotonic()
        if X is not None:
            ok, _ = check_cellular_resolution(X, ideal)
            if not ok:
                stats["acyclic_failures"] += 1
        if H is not None:
            ok, _ = check_cellular_resolution(H, ideal)
            if not ok:
                stats["acyclic_failures"] += 1
        if ideal.k <= TAYLOR_BOUND:
            ok, _ = check_cellular_resolution(TaylorSupport(ideal), ideal)
            if not ok:
                stats["acyclic_failures"] += 1
            stats["taylor_checked"] += 1
        stats["t_acyclic"] += time.monotonic() - t0
    return stats


def test_criterion_1_example1_check():
    t0 = time.monotonic()
    ideal = parse_ideal(EXAMPLE1)
    colon = sorted(ideal.colon_by_generator(6), key=lambda m: m.support())
    lq = ideal.has_linear_quotients()
    regular = check_regularity(ideal).regular
    cointerval = is_cointerval(dgraph_of_ideal(ideal))
    elapsed = time.monotonic() - t0
    ok = (
        lq
        and [str(m) for m in colon] == ["x1", "x4"]
        and regular
        and cointerval is False
        and elapsed < 1.0
    )
    verdict(
        1,
        ok,
        "six-generator example: linear quotients, colon j=6 = {x1,x4}, "
        "regular, not cointerval (%.2fs < 1s)" % elapsed,
    )


def test_criterion_2_running_example_resolutions():
    t0 = time.monotonic()
    ideal = parse_ideal(RUNNING)
    ht = ht_resolution(ideal)
    hom = homcone_resolution(ideal)
    oracle = multigraded_betti(ideal)
    ok = ht.ranks() == (1, 7, 11, 6, 1)
    ok = ok and hom.ranks() == (1, 7, 11, 6, 1)
    for cx in (ht, hom):
        okdd, _ = check_dd_zero(cx)
        ok = ok and okdd and check_minimal(cx)
        ok = ok and betti_from_resolution(cx) == oracle
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    verdict(
        2,
        ok,
        "running example: both resolutions rank (7,11,6,1), dd=0, minimal, "
        "Betti tables = Taylor oracle (%.2fs < 5s)" % elapsed,
    )


def test_criterion_3_ek_equals_ht_on_corpus(pipeline):
    ok = pipeline["ek_mismatches"] == 0 and pipeline["regular"] > 1500
    verdict(
        3,
        ok,
        "cellular = algebraic entrywise on all %d regular-b corpus ideals; "
        "%d irregular-b ideals correctly refuse (NotRegular) (%.1fs)"
        % (pipeline["regular"], pipeline["irregular_guarded"], pipeline["t_ek"]),
    )


def test_criterion_4_hom_equals_cone_on_corpus(pipeline, corpus):
    n_coint = sum(1 for it in corpus if it.tags.get("cointerval"))
    ok = (
        pipeline["hom_mismatches"] == 0
        and pipeline["hom_roundtrip_failures"] == 0
        and n_coint > 3000
    )
    verdict(
        4,
        ok,
        "hom complex = iterated cone entrywise and the face/symbol bijection "
        "round-trips on all %d cointerval ideals (%.1fs)"
        % (n_coint, pipeline["t_hom"]),
    )


def test_criterion_5_facets_and_simplices(pipeline):
    ok = (
        pipeline["facet_violations"] == 0
        and pipeline["dependence_violations"] == 0
        and pipeline["ball_failures"] == 0
    )
    verdict(
        5,
        ok,
        "interior facets lie in exactly 2 simplices, exterior in exactly 1, "
        "all chains affinely independent, %d low-dim cells certified as balls "
        "(brute force, %.1fs)" % (pipeline["balls"], pipeline["t_facets"]),
    )


def test_criterion_6_acyclicity(pipeline):
    ok = pipeline["acyclic_failures"] == 0
    ok = ok and pipeline["t_acyclic"] < 600.0
    verdict(
        6,
        ok,
        "all lcm-lattice strands acyclic for every cell complex and %d Taylor "
        "complexes (%.1fs < 600s)"
        % (pipeline["taylor_checked"], pipeline["t_acyclic"]),
    )


def test_criterion_7_c_counterexample():
    from itertools import combinations

    graph_edges = list(combinations(range(1, 6), 3))
    from cellres.cointerval import DGraph

    ideal = edge_ideal(DGraph.from_edges(3, graph_edges))
    m = parse_monomial("x3*x4*x5", n=5)
    j = ideal.index_of(m)
    ok = set(ideal.set_of(j)) == {1, 2}
    # a product missing from c's table stays put, which the values refuse
    c = CRule(ideal)
    left = ideal.gen(c.apply(c.apply(j, 1), 2))
    right = ideal.gen(c.apply(c.apply(j, 2), 1))
    ok = ok and str(left) == "x1*x2*x5" and str(right) == "x1*x4*x5"
    ok = ok and left != right
    verdict(
        7,
        ok,
        "complete 3-graph on [5]: set(x3x4x5) = {1,2} and "
        "c(x2 c(x1 m)) = %s != %s = c(x1 c(x2 m))" % (left, right),
    )


def test_criterion_8_rule_family():
    t0 = time.monotonic()
    running = parse_ideal(RUNNING)
    enriched, types = rule_family(running)
    fp = {rule.key(): f for rule, _, f in enriched}
    b_fp = fp[BRule(running).key()]
    c_fp = fp[CRule(running).key()]
    H = build_hom_complex(dgraph_of_ideal(running), running.n)
    ok = len(types) >= 2 and b_fp != c_fp
    ok = ok and c_fp == complex_fingerprint(H)
    for n in (2, 3, 4):
        ideal = parse_ideal(", ".join("x%d" % i for i in range(1, n + 1)))
        ok = ok and len(enumerate_regular_rules(ideal)) == 1
    verdict(
        8,
        ok,
        "rule family of the running example has %d rules, %d combinatorial "
        "types including both realizations; maximal ideals give exactly one "
        "rule (%.1fs)" % (len(enriched), len(types), time.monotonic() - t0),
    )


def test_criterion_9_oracle_equivalence():
    t0 = time.monotonic()
    ideals = random_linear_quotient_ideals(200, seed=20260810, max_n=6, max_k=8)
    mismatches = 0
    for ideal in ideals:
        sizes = [len(s) for s in ideal.set_table()]
        top = max(sizes, default=0) + 1
        expected = tuple(
            [1] + [sum(comb(s, i - 1) for s in sizes) for i in range(1, top + 1)]
        )
        if multigraded_betti(ideal).totals() != expected:
            mismatches += 1
    ok = mismatches == 0 and len(ideals) == 200
    verdict(
        9,
        ok,
        "200 seeded random linear-quotient ideals: symbol counts match the "
        "Taylor-strand oracle in every degree, %d mismatches (%.1fs)"
        % (mismatches, time.monotonic() - t0),
    )


def test_criterion_10_discrepancy_surfacing(corpus):
    running = parse_ideal(RUNNING)
    disc = cointerval_discrepancy(dgraph_of_ideal(running))
    ok = disc["recursive"] is True and disc["exchange"] is False and not disc["agree"]
    agree_failures = 0
    sss = 0
    for item in corpus:
        if item.kind != "cointerval":
            continue
        graph = dgraph_of_ideal(item.ideal)
        if not is_squarefree_strongly_stable(graph):
            continue
        sss += 1
        if not cointerval_discrepancy(graph)["agree"]:
            agree_failures += 1
    ok = ok and agree_failures == 0 and sss > 50
    verdict(
        10,
        ok,
        "exchange reading disagrees on the running example (reported, not "
        "reconciled); agrees on all %d squarefree strongly stable corpus "
        "instances" % sss,
    )
