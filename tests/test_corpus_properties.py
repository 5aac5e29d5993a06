"""Spec-level invariants exercised over corpus samples and a seeded random
stream; the full-corpus sweeps live in the acceptance suite."""

from itertools import combinations
from math import comb

import pytest

from cellres.betti import multigraded_betti
from cellres.chain import check_dd_zero, ht_resolution, mapping_cone, ChainMap, LabeledChainComplex
from cellres.cointerval import (
    DGraph,
    build_hom_complex,
    dgraph_of_ideal,
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
from cellres.ekcells import _simplicial_chain_data, build_ek_cw, cell_is_ball
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
def sample():
    items = gen_corpus()
    return items[::37] + items[-2:]  # deterministic spread plus the examples


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
    for item in sample:
        ideal = item.ideal
        if not check_regularity(ideal).regular:
            continue
        X = build_ek_cw(ideal)
        for cell in X.cells.values():
            if cell.dim <= 3:
                assert cell_is_ball(cell), (item.name, cell.key)


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
