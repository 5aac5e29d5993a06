import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellres.cointerval import parse_dgraph
from cellres.errors import InputError, MalformedMonomial
from cellres.monomial import MAX_VARIABLES, Monomial, parse_monomial
from reference import lcm_of

exponents = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=6)


def test_parse_factor_form():
    m = parse_monomial("x1*x3*x4")
    assert m.e == (1, 0, 1, 1)
    assert parse_monomial("x2*x2").e == (0, 2)
    assert parse_monomial("x2^3", n=3).e == (0, 3, 0)


def test_parse_tuple_form():
    assert parse_monomial("[1,0,2]").e == (1, 0, 2)
    assert parse_monomial("[1, 0]", n=4).e == (1, 0, 0, 0)


@pytest.mark.parametrize("bad", ["", "y2", "x0", "x1**x2", "x1*", "[1,a]", "[1,-2]"])
def test_parse_rejects(bad):
    with pytest.raises(MalformedMonomial):
        parse_monomial(bad)


def test_variable_bound_at_parse_time():
    assert MAX_VARIABLES == 1000
    assert parse_monomial("x1*x1000").n == 1000
    assert parse_monomial("[%s]" % ",".join(["1"] * 1000)).n == 1000
    assert parse_monomial("x1", n=1000).n == 1000
    assert len(parse_dgraph("2 1000\n1 1000").vertices) == 1000
    too_many = "^1001 variables exceed the bound 1000$"
    zeros = "[%s]" % ",".join(["0"] * 1001)
    for text, n in (("x1*x1001", None), (zeros, None), ("x1", 1001), ("1", 1001)):
        with pytest.raises(MalformedMonomial, match=too_many):
            parse_monomial(text, n)
    with pytest.raises(InputError, match=too_many):
        parse_dgraph("2 1001\n1 2")


def test_divides_quotient_lcm():
    a = Monomial((1, 0, 1))
    b = Monomial((1, 1, 1))
    assert a.divides(b) and not b.divides(a)
    assert (b // a).e == (0, 1, 0)
    assert a.lcm(b).e == (1, 1, 1)
    assert a.gcd(b).e == (1, 0, 1)
    assert (a * b).e == (2, 1, 2)


def test_support_and_squarefree():
    m = Monomial((2, 0, 1, 0))
    assert m.support() == (1, 3)
    assert not m.is_squarefree()
    assert Monomial.from_support((2, 4), 4).e == (0, 1, 0, 1)


@given(exponents, exponents)
def test_lcm_gcd_product_identity(e1, e2):
    size = max(len(e1), len(e2))
    a = Monomial(e1).extended(size)
    b = Monomial(e2).extended(size)
    assert a.lcm(b) * a.gcd(b) == a * b
    assert a.divides(a.lcm(b)) and b.divides(a.lcm(b))
    assert a.gcd(b).divides(a)


@given(exponents)
def test_roundtrip_through_str(e):
    m = Monomial(e)
    assert parse_monomial(str(m), n=m.n) == m


def test_lcm_of_empty_needs_n():
    assert lcm_of([], n=3).is_one()
    with pytest.raises(ValueError):
        lcm_of([])
