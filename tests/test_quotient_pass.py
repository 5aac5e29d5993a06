"""The one-pass decision of linear quotients, set(m_j) and b against its
exact references: the minimalized colons of colon_by_generator,
decomp_b on every product x_t m_j, and the order search that minimalized
the colon of every candidate (tests/reference.py).

The ideals are every gen_corpus() ideal, random_linear_quotient_ideals
(400, 1), and one seeded shuffle of each corpus ideal, most of them
orders without linear quotients."""

import random

import pytest

import reference
from cellres.corpus import gen_corpus, random_linear_quotient_ideals
from cellres.errors import NotLinearQuotients
from cellres.ideals import OrderedIdeal, find_linear_quotient_order


@pytest.fixture(scope="module")
def families():
    corpus = [item.ideal for item in gen_corpus()]
    rng = random.Random(33)
    shuffled = []
    for ideal in corpus:
        gens = list(ideal.gens)
        rng.shuffle(gens)
        shuffled.append(OrderedIdeal(ideal.n, gens))
    return {
        "corpus": corpus,
        "random": random_linear_quotient_ideals(400, 1),
        "shuffled": shuffled,
    }


def _fresh(ideal):
    """The same ordered ideal with every memo empty."""
    return OrderedIdeal(ideal.n, ideal.gens)


def _exact_failure(ideal):
    for j in range(1, ideal.k + 1):
        bad = [q for q in ideal.colon_by_generator(j) if q.degree() != 1]
        if bad:
            return j, min(bad)
    return None


def _exact_sets(ideal):
    return tuple(
        tuple(sorted(q.support()[0] for q in ideal.colon_by_generator(j)))
        for j in range(1, ideal.k + 1)
    )


def _exact_b(ideal, sets):
    return [
        ((j, t), ideal.decomp_b(ideal.gen(j).times_var(t)))
        for j, sj in enumerate(sets, start=1)
        for t in sj
    ]


@pytest.mark.parametrize("family", ["corpus", "random", "shuffled"])
def test_the_pass_matches_the_exact_colons_and_b(families, family):
    ideals = families[family]
    failing = 0
    for ideal in ideals:
        fast, exact = _fresh(ideal), _fresh(ideal)
        failure = _exact_failure(exact)
        assert fast.linear_quotient_failure() == failure, str(ideal)
        if failure is not None:
            failing += 1
            with pytest.raises(NotLinearQuotients):
                fast.set_table()
            with pytest.raises(NotLinearQuotients):
                fast.b_table()
            continue
        sets = _exact_sets(exact)
        assert fast.set_table() == sets, str(ideal)
        # the same entries in the same order
        assert list(fast.b_table().items()) == _exact_b(exact, sets), str(ideal)
    if family == "shuffled":
        assert 0 < failing < len(ideals)
    else:
        assert failing == 0


@pytest.mark.parametrize("family", ["corpus", "random", "shuffled"])
def test_the_order_search_matches_the_exact_search(families, family):
    found = [find_linear_quotient_order(ideal) for ideal in families[family]]
    assert found == [reference.find_linear_quotient_order(i) for i in families[family]]
    assert None not in found


@pytest.mark.parametrize(
    "gens",
    [
        [(1, 1, 0, 0), (0, 0, 1, 1)],
        [(1, 1, 0, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1)],
    ],
)
def test_the_search_refuses_what_the_exact_search_refuses(gens):
    # x1*x2 and x3*x4 share no variable: whichever comes later has the
    # other, of degree 2, as its colon's only generator
    ideal = OrderedIdeal(len(gens[0]), gens)
    assert find_linear_quotient_order(ideal) is None
    assert reference.find_linear_quotient_order(ideal) is None
