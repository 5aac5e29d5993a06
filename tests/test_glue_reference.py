"""The gluing on vertex-set bitmasks against the earlier gluing on vertex
tuples (reference.build_ek_cw): equal boundaries, labels and
coefficients, and per cell equal simplices, signs, surviving facets and
vertex sets, for BRule, CRule and admitted rules."""

from itertools import combinations

import pytest

import reference
from cellres.cointerval import CRule, DGraph, _require_lex_cointerval, edge_ideal
from cellres.corpus import gen_corpus
from cellres.ekcells import build_ek_cw
from cellres.errors import CellresError, SearchSpaceTooLarge
from cellres.ideals import OrderedIdeal, check_regularity
from cellres.monomial import Monomial
from cellres.rules import enumerate_regular_rules


@pytest.fixture(scope="module")
def corpus():
    return [item.ideal for item in gen_corpus()]


def _complete(d, n):
    return edge_ideal(DGraph.from_edges(d, combinations(range(1, n + 1), d)), n=n)


def _maximal(k):
    return OrderedIdeal(k, [Monomial.from_support((i,), k) for i in range(1, k + 1)])


def _same_gluing(ideal, rule=None):
    """Compare the two builds, or the errors that both raise."""
    try:
        cells, boundary, labels, coefficients = reference.build_ek_cw(ideal, rule)
    except CellresError as err:
        with pytest.raises(type(err)) as new_err:
            build_ek_cw(ideal, rule)
        assert str(new_err.value) == str(err)
        return False
    X = build_ek_cw(ideal, rule)
    assert list(X.cells) == list(cells)
    for key, old in cells.items():
        new = X.cells[key]
        assert new.key == old.key and new.dim == len(old.alpha)
        assert new.simplices == old.simplices, key
        assert new.eps == old.eps, key
        assert new.facets == old.facets, key
        assert new.vertex_set() == old.vertex_set(), key
        assert X.topo_boundary(key) == tuple(boundary[key]), key
        assert X.label(key) == labels[key], key
        assert X.coefficients(key) == tuple(coefficients[key]), key
    return True


def test_regular_corpus_ideals(corpus):
    compared = 0
    for ideal in corpus[::8]:
        if ideal.has_linear_quotients() and check_regularity(ideal).regular:
            compared += _same_gluing(ideal)
    assert compared > 200


@pytest.mark.parametrize(
    "make, size",
    [
        (lambda n: _complete(2, n), 7),
        (lambda n: _complete(2, n), 8),
        (lambda n: _complete(3, n), 7),
        (_maximal, 7),
        (_maximal, 8),
    ],
    ids=["K2_7", "K2_8", "K3_7", "max7", "max8"],
)
def test_ladder_inputs(make, size):
    _same_gluing(make(size))


def test_crule_on_lex_cointerval_ideals(corpus):
    compared = 0
    for ideal in corpus[::16]:
        try:
            _require_lex_cointerval(ideal)
        except CellresError:  # not a d-graph's edge ideal, or not lex cointerval
            continue
        compared += _same_gluing(ideal, CRule(ideal))
    assert compared > 200


def test_every_admitted_rule_on_a_few_ideals(corpus):
    # every 97th ideal with linear quotients and at most 2,000 candidate
    # tables; some of its admitted rules fail to glue, with one message
    rules = failed = 0
    for ideal in corpus[::97]:
        if not ideal.has_linear_quotients():
            continue
        try:
            family = enumerate_regular_rules(ideal, bound=2000)
        except SearchSpaceTooLarge:
            continue
        for rule in family:
            rules += 1
            failed += not _same_gluing(ideal, rule)
    assert rules > 200 and failed
