import pytest

from cellres.errors import (
    DuplicateGenerator,
    IndexOutOfRange,
    MalformedMonomial,
    NonMinimalGenerators,
    NotInIdeal,
    NotLinearQuotients,
)
from cellres.ekcells import build_cell, ch_simplex
from cellres.ideals import (
    OrderedIdeal,
    check_regularity,
    find_linear_quotient_order,
    minimalize,
    parse_ideal,
)
from cellres.monomial import Monomial, parse_monomial


def test_parse_preserves_order(example1):
    assert example1.n == 5
    assert example1.k == 6
    assert example1.gen(1).e == (1, 0, 1, 1, 0)
    assert example1.gen(2).e == (1, 0, 1, 0, 1)


def test_parse_two_gens():
    ideal = parse_ideal("x1*x3*x4, x1*x3*x5")
    assert ideal.n == 5
    assert [g.e for g in ideal.gens] == [(1, 0, 1, 1, 0), (1, 0, 1, 0, 1)]


def test_parse_rejects_nonminimal():
    with pytest.raises(NonMinimalGenerators):
        parse_ideal("x1*x2, x1*x2*x3")


def test_parse_rejects_duplicates_and_junk():
    with pytest.raises(DuplicateGenerator):
        parse_ideal("x1*x2, x1*x2")
    with pytest.raises(MalformedMonomial):
        parse_ideal("x1*x2, blah")
    with pytest.raises(MalformedMonomial):
        parse_ideal("")


@pytest.mark.parametrize("text", ["[1,0], [0,1]", "[1,0]\n[0,1]"])
def test_parse_keeps_bracket_tuples_whole(text):
    assert parse_ideal(text) == parse_ideal("x1, x2")


@pytest.mark.parametrize("text", ["[1,0", "[1,0], [0,1", "x1, 0]"])
def test_parse_refuses_unbalanced_brackets(text):
    with pytest.raises(MalformedMonomial):
        parse_ideal(text)


def test_duplicates_are_found_before_non_minimal_pairs():
    # x1 divides x1*x2 earlier in the list than x3 repeats
    with pytest.raises(DuplicateGenerator, match="^x3$"):
        parse_ideal("x1, x1*x2, x3, x3")
    m = parse_monomial("x1*x2", n=2)
    with pytest.raises(DuplicateGenerator, match="^x1\\*x2$"):
        OrderedIdeal(2, [m, m])
    with pytest.raises(NonMinimalGenerators, match="^x1 divides x1\\*x2$"):
        parse_ideal("x1*x2, x3, x1")
    ideal = parse_ideal("x2*x3, x1, x3^2")
    assert [ideal.index_of(g) for g in ideal.gens] == [1, 2, 3]


def test_minimalize():
    ms = [parse_monomial(s, n=3) for s in ["x1*x2", "x1", "x2*x3", "x1*x3"]]
    out = minimalize(ms)
    assert set(out) == {parse_monomial("x1", n=3), parse_monomial("x2*x3", n=3)}


# -- colon ideals and set tables -----------------------------------------


def test_colon_paper_value(example1):
    colon = example1.colon_by_generator(6)
    assert colon == {Monomial.variable(1, 5), Monomial.variable(4, 5)}


def test_colon_first_generator_empty(example1):
    assert example1.colon_by_generator(1) == set()


def test_colon_simple():
    ideal = parse_ideal("x1*x2, x1*x3")
    assert ideal.colon_by_generator(2) == {Monomial.variable(2, 3)}


def test_colon_is_immutable_and_the_memo_unchanged():
    ideal = parse_ideal("x1*x2, x1*x3")
    colon = ideal.colon_by_generator(2)
    assert isinstance(colon, frozenset)
    with pytest.raises(AttributeError):
        colon.add(Monomial.variable(1, 3))
    assert ideal.colon_by_generator(2) is colon
    assert colon == {Monomial.variable(2, 3)}
    assert ideal.has_linear_quotients()
    assert ideal.set_table() == ((), (2,))


def test_colon_range_checks_j(running):
    ideal = parse_ideal("x1*x2, x1*x3")
    for j in (0, 3):
        with pytest.raises(IndexOutOfRange):
            ideal.colon_by_generator(j)
    # set(m_j) is read for j in 1..k only, and so is every cell built on it
    for j in (0, -6, running.k + 1):
        with pytest.raises(IndexOutOfRange):
            running.set_of(j)
    with pytest.raises(IndexOutOfRange):
        build_cell(running, 0, ())
    with pytest.raises(IndexOutOfRange):
        ch_simplex(running, 0, (1, 2), (2, 1))
    assert running.set_of(running.k) == running.set_table()[-1]


def test_index_of(example1):
    for j, g in enumerate(example1.gens, start=1):
        assert example1.index_of(g) == j
    assert example1.index_of(Monomial.one(5)) is None
    assert example1.index_of(example1.gen(1) * Monomial.variable(2, 5)) is None


def test_set_table_example1(example1):
    assert example1.set_table() == ((), (4,), (3,), (2, 3), (1,), (1, 4))


def test_set_table_names_the_linear_quotient_witness():
    # j=2 is fine; both colon generators at j=3 have degree 2, and the
    # message names the first in sorted order
    ideal = parse_ideal("x1*x2, x2*x3, x4*x5*x6")
    assert ideal.linear_quotient_failure() == (3, parse_monomial("x2*x3", 6))
    with pytest.raises(NotLinearQuotients) as err:
        ideal.set_table()
    assert str(err.value) == "colon at j=3 has non-variable generator x2*x3"


def test_set_table_running(running):
    table = running.set_table()
    assert table == ((), (2,), (2, 3), (1,), (1, 3), (1, 2), (1, 2, 3))
    # the two values quoted in the worked example
    assert table[4] == (1, 3)  # set(x2x5)
    assert table[5] == (1, 2)  # set(x3x5)


def test_linear_quotient_failure():
    ideal = parse_ideal("x1*x2, x3*x4")
    fail = ideal.linear_quotient_failure()
    assert fail is not None
    j, witness = fail
    assert j == 2
    assert witness == parse_monomial("x1*x2", n=4)


@pytest.mark.parametrize("text", ["x1*x2, x1*x3, x2*x3", "x1*x2, x3*x4"])
def test_linear_quotient_failure_is_computed_once(monkeypatch, text):
    ideal = parse_ideal(text)
    first = ideal.linear_quotient_failure()
    calls = []
    colon = ideal.colon_by_generator

    def counted(j):
        calls.append(j)
        return colon(j)

    monkeypatch.setattr(ideal, "colon_by_generator", counted)
    for _ in range(3):
        assert ideal.has_linear_quotients() is (first is None)
        assert ideal.linear_quotient_failure() == first
    assert calls == []


def test_find_order_recovers_certificate(example1):
    shuffled = OrderedIdeal(5, list(reversed(example1.gens)))
    assert shuffled.linear_quotient_failure() == (3, parse_monomial("x2*x3", n=5))
    order = find_linear_quotient_order(shuffled)
    assert order is not None
    assert shuffled.reordered(order).has_linear_quotients()


def test_find_order_single_generator():
    ideal = parse_ideal("x1*x2*x3")
    assert find_linear_quotient_order(ideal) == (1,)


def test_find_order_none():
    ideal = parse_ideal("x1*x2, x3*x4")
    assert find_linear_quotient_order(ideal) is None


def test_find_order_lex_smallest(running):
    # the given order already works, so the identity is the lex-smallest
    assert find_linear_quotient_order(running) == tuple(range(1, 8))


# -- decomposition function b --------------------------------------------


def test_decomp_b_paper_values(example1):
    # b(x2 * x1x4x5) = x1x2x4 and b(x3 * x1x2x4) = x1x3x4
    m = parse_monomial("x1*x2*x4*x5", n=5)
    assert example1.gen(example1.decomp_b(m)) == parse_monomial("x1*x2*x4", n=5)
    m = parse_monomial("x1*x2*x3*x4", n=5)
    assert example1.gen(example1.decomp_b(m)) == parse_monomial("x1*x3*x4", n=5)


def test_decomp_b_fixes_generators(example1):
    for j in range(1, example1.k + 1):
        assert example1.decomp_b(example1.gen(j)) == j


def test_decomp_b_not_in_ideal(example1):
    with pytest.raises(NotInIdeal):
        example1.decomp_b(Monomial.variable(1, 5))


def test_decomp_b_moves_down(example1):
    # for t in set(m_j), b(x_t m_j) is strictly earlier than m_j
    for j in range(1, example1.k + 1):
        for t in example1.set_of(j):
            assert example1.decomp_b(example1.gen(j).times_var(t)) < j


# -- regularity ------------------------------------------------------------


def test_example1_regular(example1):
    report = check_regularity(example1)
    assert report.regular
    assert report.star_commutes
    assert report.witnesses == [] and report.star_witnesses == []


def test_running_regular(running):
    report = check_regularity(running)
    assert report.regular and report.star_commutes


def test_single_generator_vacuously_regular():
    report = check_regularity(parse_ideal("x1*x2*x3"))
    assert report.regular


def test_star_follows_from_containment_on_small_corpus():
    # every tested regular ideal also commutes; the report keeps the two
    # conditions independent so this implication stays observable
    for text in [
        "x1, x2, x3",
        "x1*x1, x1*x2, x2*x2",
        "x1*x2, x1*x3, x2*x3",
        "x1*x2, x1*x3, x1*x4, x2*x3",
    ]:
        report = check_regularity(parse_ideal(text))
        if report.regular:
            assert report.star_commutes
