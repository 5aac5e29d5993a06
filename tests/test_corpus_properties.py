"""Spec-level invariants exercised over corpus samples and a seeded random
stream; the full-corpus sweeps live in the acceptance suite."""

from collections import Counter
from itertools import combinations
from math import comb

import pytest

from cellres.betti import multigraded_betti
from cellres import ekcells
from cellres.chain import BRule, check_dd_zero, ht_resolution, mapping_cone, ChainMap, LabeledChainComplex
from cellres.cointerval import (
    CRule,
    DGraph,
    build_hom_complex,
    dgraph_of_ideal,
    edge_ideal,
    is_cointerval,
    partition_A,
)
from cellres.corpus import (
    _cointerval_edge_sets,
    borel_closure,
    cointerval_corpus,
    gen_corpus,
    random_linear_quotient_ideals,
    stable_corpus,
)
from cellres.ekcells import (
    _greedy_shelling,
    _homology_ball,
    _simplicial_chain_data,
    build_cell,
    build_ek_cw,
    cell_is_ball,
)
from cellres.exact import homology_ranks
from cellres.ideals import check_regularity, minimalize
from cellres.monomial import Monomial, parse_monomial


def is_stable_ideal(ideal):
    gens = list(ideal.gens)
    for m in gens:
        top = max(m.support())
        for i in range(1, top):
            swapped = m.times_var(i) // Monomial.variable(top, ideal.n)
            if not any(g.divides(swapped) for g in gens):
                return False
    return True


def is_strongly_stable_ideal(ideal):
    gens = list(ideal.gens)
    for m in gens:
        for j in m.support():
            for i in range(1, j):
                swapped = m.times_var(i) // Monomial.variable(j, ideal.n)
                if not any(g.divides(swapped) for g in gens):
                    return False
    return True


@pytest.fixture(scope="module")
def corpus():
    return gen_corpus()


@pytest.fixture(scope="module")
def sample(corpus):
    return corpus[::37] + corpus[-2:]  # deterministic spread plus the examples


def _is_shelling(order):
    """Each simplex after the first meets the earlier ones in a pure
    complex of one dimension less: every face of it lying in an earlier
    simplex lies in one of its facets that does."""
    for k, s in enumerate(order[1:], start=1):
        earlier = order[:k]
        old = [
            frozenset(f)
            for size in range(len(s))
            for f in combinations(s, size)
            if any(t >= set(f) for t in earlier)
        ]
        walls = [s - {v} for v in s if any(t >= s - {v} for t in earlier)]
        if not walls or any(not any(f <= w for w in walls) for f in old):
            return False
    return True


def test_borel_closure_example():
    seed = parse_monomial("x2*x3", n=3)
    closure = minimalize(borel_closure(seed))
    names = sorted(str(m) for m in closure)
    assert names == ["x1*x2", "x1*x3", "x1^2", "x2*x3", "x2^2"]


def test_stable_corpus_is_stable():
    for item in stable_corpus(max_n=3, max_deg=2):
        assert is_stable_ideal(item.ideal)
        assert is_strongly_stable_ideal(item.ideal)
        assert item.ideal.has_linear_quotients()


def test_cointerval_corpus_has_lex_linear_quotients():
    for item in cointerval_corpus(max_d=2, max_n=5):
        assert item.ideal.has_linear_quotients(), item.name



def test_cointerval_walker_is_complete():
    # the walk against a brute-force filter through the recursive definition
    for d in (1, 2, 3):
        for n in range(6):
            universe = tuple(range(1, n + 1))
            pool = list(combinations(universe, d))
            accepted = set()
            for mask in range(1 << len(pool)):
                edges = frozenset(e for i, e in enumerate(pool) if mask >> i & 1)
                if is_cointerval(DGraph.from_edges(d, edges, vertices=universe)):
                    accepted.add(edges)
            walked = _cointerval_edge_sets(d, universe)
            assert len(walked) == len(set(walked)), (d, n)
            assert set(walked) == accepted, (d, n)
            assert frozenset() in accepted

def test_complete_graph_in_corpus():
    items = cointerval_corpus(max_d=2, max_n=3)
    complete = {(1, 2), (1, 3), (2, 3)}
    assert any(set(i.tags["edges"]) == complete for i in items)


def test_corpus_examples_tagged():
    items = gen_corpus(max_n=1, max_deg=1, max_d=1, cointerval_n=1)
    examples = [i for i in items if i.kind == "example"]
    assert len(examples) == 2
    assert examples[0].tags["cointerval"] is False
    assert examples[1].tags["cointerval"] is True
    assert not is_stable_ideal(examples[0].ideal)
    assert is_cointerval(dgraph_of_ideal(examples[1].ideal))


def test_set_table_matches_colon_variables(sample):
    for item in sample:
        ideal = item.ideal
        table = ideal.set_table()
        for j in range(1, ideal.k + 1):
            colon = ideal.colon_by_generator(j)
            assert set(table[j - 1]) == {m.support()[0] for m in colon}


def test_decomp_b_contract(sample):
    for item in sample:
        ideal = item.ideal
        equigen = len({g.degree() for g in ideal.gens}) == 1
        for j in range(1, ideal.k + 1):
            mj = ideal.gen(j)
            for t in ideal.set_of(j):
                b = ideal.decomp_b(mj.times_var(t))
                assert b < j
                assert ideal.gen(b).divides(mj.times_var(t))
                if equigen:
                    assert ideal.gen(b).degree() == mj.degree()


def test_star_commutation_follows_containment(sample):
    for item in sample:
        report = check_regularity(item.ideal)
        if report.regular:
            assert report.star_commutes, item.name


def test_lemma_counts_against_oracle(sample):
    for item in sample:
        ideal = item.ideal
        if ideal.k > 10:
            continue
        sizes = [len(s) for s in ideal.set_table()]
        totals = multigraded_betti(ideal).totals()
        for i in range(1, len(totals)):
            assert totals[i] == sum(comb(s, i - 1) for s in sizes)


def test_hom_f_vector_equals_symbol_counts(sample):
    for item in sample:
        if not item.tags.get("cointerval"):
            continue
        ideal = item.ideal
        X = build_hom_complex(dgraph_of_ideal(ideal), ideal.n)
        sizes = [len(s) for s in ideal.set_table()]
        fv = X.f_vector()
        for dim in range(len(fv)):
            assert fv[dim] == sum(comb(s, dim) for s in sizes)


def test_c_rule_blocks_partition(sample):
    for item in sample:
        if not item.tags.get("cointerval"):
            continue
        ideal = item.ideal
        for j in range(1, ideal.k + 1):
            blocks = partition_A(ideal, j)
            flat = [a for b in blocks for a in b]
            assert tuple(sorted(flat)) == ideal.set_of(j)


def test_low_dimensional_cells_are_balls(sample):
    # on every cell of two or more simplices the greedy search finds a
    # shelling, so the homology fallback is never taken, and the homology
    # certificate agrees; the chains' yield order is often no shelling
    multi = yield_order_shells = 0
    for item in sample:
        ideal = item.ideal
        if not check_regularity(ideal).regular:
            continue
        X = build_ek_cw(ideal)
        for cell in X.cells.values():
            if cell.dim > 3:
                continue
            assert cell_is_ball(cell), (item.name, cell.key)
            tops = [frozenset(s.vertices) for s in cell.simplices]
            if len(tops) == 1:
                continue
            order = _greedy_shelling(tops)
            assert order is not None, (item.name, cell.key)
            assert len(order) == len(tops) and set(order) == set(tops)
            assert _is_shelling(order), (item.name, cell.key)
            assert _homology_ball(tops, cell.dim), (item.name, cell.key)
            multi += 1
            yield_order_shells += _is_shelling(tops)
    assert 0 < yield_order_shells < multi


def test_homology_fallback_accepts_corpus_cells(sample, monkeypatch):
    cells = {}
    for item in sample:
        if check_regularity(item.ideal).regular:
            for cell in build_ek_cw(item.ideal).cells.values():
                if cell.dim in (2, 3) and len(cell.simplices) > 1:
                    cells.setdefault(cell.dim, cell)
    calls = []
    real = ekcells._homology_ball
    monkeypatch.setattr(ekcells, "_greedy_shelling", lambda tops: None)
    monkeypatch.setattr(
        ekcells, "_homology_ball", lambda tops, p: calls.append(p) or real(tops, p)
    )
    assert cell_is_ball(cells[2]) and cell_is_ball(cells[3])
    assert calls == [2, 3]


def test_multi_simplex_cells_are_shellable_in_every_dimension(corpus):
    # b on every 4th regular corpus ideal, c on every 4th cointerval one,
    # and b on K2 on [8]: cells of dimension 2 to 6
    cases = []
    for item in corpus[::4]:
        if check_regularity(item.ideal).regular:
            cases.append(("b", item.ideal, BRule(item.ideal)))
        if item.tags.get("cointerval"):
            cases.append(("c", item.ideal, CRule(item.ideal)))
    k2 = edge_ideal(DGraph.from_edges(2, combinations(range(1, 9), 2)))
    cases.append(("K2 on [8]", k2, BRule(k2)))
    seen, dims = Counter(), set()
    for kind, ideal, rule in cases:
        for j in range(1, ideal.k + 1):
            sj = ideal.set_of(j)
            for size in range(2, len(sj) + 1):
                for alpha in combinations(sj, size):
                    cell = build_cell(ideal, j, alpha, rule)
                    tops = [frozenset(s.vertices) for s in cell.simplices]
                    if len(tops) == 1:
                        continue
                    assert _greedy_shelling(tops) is not None, (kind, ideal, cell.key)
                    assert cell_is_ball(cell), (kind, ideal, cell.key)
                    seen[kind] += 1
                    dims.add(cell.dim)
    assert seen == {"b": 2101, "c": 3821, "K2 on [8]": 303}
    assert max(dims) == 6


def test_one_simplex_cells_pass_the_general_certificate(sample):
    # cell_is_ball accepts a lone simplex outright; the full certificate
    # must agree: an acyclic cell whose p-faces each lie in it once and
    # span a homology (p-1)-sphere in which each ridge lies twice
    seen = 0
    for item in sample:
        ideal = item.ideal
        if not check_regularity(ideal).regular:
            continue
        for cell in build_ek_cw(ideal).cells.values():
            p = cell.dim
            if not 1 <= p <= 3 or len(cell.simplices) != 1:
                continue
            top = tuple(sorted(cell.simplices[0].vertices))
            assert len(top) == p + 1, (item.name, cell.key)
            assert homology_ranks(_simplicial_chain_data([top])) == {}
            bfacets = list(combinations(top, p))
            assert homology_ranks(_simplicial_chain_data(bfacets)) == {p - 1: 1}
            ridges = [r for f in bfacets for r in combinations(f, p - 1)]
            assert all(ridges.count(r) == 2 for r in ridges)
            assert cell_is_ball(cell)
            seen += 1
    assert seen


def test_random_stream_is_deterministic():
    a = random_linear_quotient_ideals(5, seed=7)
    b = random_linear_quotient_ideals(5, seed=7)
    assert [i.gens for i in a] == [i.gens for i in b]
    c = random_linear_quotient_ideals(5, seed=8)
    assert [i.gens for i in a] != [i.gens for i in c]


def test_random_stream_contract():
    for ideal in random_linear_quotient_ideals(25, seed=3):
        assert ideal.has_linear_quotients()
        assert check_regularity(ideal).regular
        cx = ht_resolution(ideal)
        ok, _ = check_dd_zero(cx)
        assert ok


def test_cone_of_zero_complexes():
    zero = LabeledChainComplex(1, [[]], [[]], [{}])
    cone = mapping_cone(ChainMap(zero, zero, [{}]))
    assert all(r == 0 for r in cone.ranks())
