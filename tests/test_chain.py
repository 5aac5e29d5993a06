import pytest

from cellres.chain import (
    BRule,
    ChainMap,
    LabeledChainComplex,
    Symbol,
    UNIT,
    _homogeneous,
    check_dd_zero,
    check_minimal,
    compare_up_to_degree_signs,
    ht_resolution,
    iterated_cone_resolution,
    koszul_complex,
    mapping_cone,
    resolution_from_rule,
    symbol_basis,
)
from cellres.errors import NonCommutingChainMap, NotLinearQuotients
from cellres.ideals import parse_ideal
from cellres.monomial import Monomial, parse_monomial


def lemma_counts(ideal):
    """Expected rank of F_i: sum over generators of C(|set(m_j)|, i-1)."""
    from math import comb

    table = ideal.set_table()
    top = 1 + max((len(s) for s in table), default=0)
    return tuple(
        [1] + [sum(comb(len(s), i - 1) for s in table) for i in range(1, top + 1)]
    )


# -- Koszul ---------------------------------------------------------------


def test_koszul_small():
    shift = parse_monomial("x2*x3*x5", n=5)
    kos = koszul_complex((1, 4), shift)
    assert kos.ranks() == (1, 2, 1)
    kos.validate()
    ok, _ = check_dd_zero(kos)
    assert ok
    # d({1,4}) = x1*{4} - x4*{1}
    c = kos.index[2][(1, 4)]
    r1 = kos.index[1][(4,)]
    r4 = kos.index[1][(1,)]
    assert kos.diff[2][(r1, c)] == (1, Monomial.variable(1, 5))
    assert kos.diff[2][(r4, c)] == (-1, Monomial.variable(4, 5))


def test_koszul_empty_and_full():
    kos = koszul_complex((), parse_monomial("x1*x2", n=2))
    assert kos.ranks() == (1,)
    kos3 = koszul_complex((1, 2, 3), Monomial.one(3))
    assert kos3.ranks() == (1, 3, 3, 1)
    ok, _ = check_dd_zero(kos3)
    assert ok


# -- mapping cone ---------------------------------------------------------


def _rank1(n, label, mdeg):
    return LabeledChainComplex(n, [[label]], [[mdeg]], [{}])


def test_cone_of_identity_is_contractible():
    one = Monomial.one(2)
    F = _rank1(2, "a", one)
    psi = ChainMap(F, F, [{(0, 0): (1, one)}])
    cone = mapping_cone(psi)
    assert cone.ranks() == (1, 1)
    assert not check_minimal(cone)
    ok, _ = check_dd_zero(cone)
    assert ok


def test_cone_rejects_noncommuting():
    one = Monomial.one(1)
    x = Monomial.variable(1, 1)
    # F: R --x--> R ; G = R in degrees 0,1 with zero differential
    F = LabeledChainComplex(1, [["f0"], ["f1"]], [[one], [x]], [{}, {(0, 0): (1, x)}])
    G = LabeledChainComplex(1, [["g0"], ["g1"]], [[one], [x]], [{}, {}])
    bad = ChainMap(G, F, [{(0, 0): (1, one)}, {(0, 0): (1, one)}])
    with pytest.raises(NonCommutingChainMap):
        mapping_cone(bad)


def test_complex_refuses_repeated_labels_and_short_multidegrees():
    one, x = Monomial.one(1), Monomial.variable(1, 1)
    with pytest.raises(ValueError, match="repeated basis label in degree 1"):
        LabeledChainComplex(1, [["f"], ["a", "a"]], [[one], [x, x]], [])
    with pytest.raises(ValueError, match="degree 1 has 1 multidegrees for 2 labels"):
        LabeledChainComplex(1, [["f"], ["a", "b"]], [[one], [x]], [])
    # the default relabelling of a cone can collide with a label of F
    F = LabeledChainComplex(1, [["f"], [("cone", "a")]], [[one], [x]], [{}, {(0, 0): (1, x)}])
    G = _rank1(1, "a", x)
    with pytest.raises(ValueError, match="repeated basis label in degree 1"):
        mapping_cone(ChainMap(G, F, [{}]))


def test_cone_step_on_running_example(running):
    # resolve the first six generators, then cone the Koszul complex of
    # set(m_7) = {1,2,3} shifted by x4x5 onto it
    prefix = parse_ideal("x1*x2, x1*x3, x1*x5, x2*x3, x2*x5, x3*x5")
    six = ht_resolution(prefix)
    assert six.ranks() == (1, 6, 8, 3)
    full = iterated_cone_resolution(running)
    assert full.ranks() == (1, 7, 11, 6, 1)


# -- symbol basis and the rule-driven differential -------------------------


def test_symbol_basis_counts(example1, running):
    for ideal in (example1, running):
        basis, mdeg = symbol_basis(ideal)
        assert tuple(len(b) for b in basis) == lemma_counts(ideal)
        assert basis[0] == [UNIT]


def test_ht_resolution_ranks(example1, running):
    assert ht_resolution(example1).ranks() == (1, 6, 7, 2)
    assert ht_resolution(running).ranks() == (1, 7, 11, 6, 1)


def test_ht_degree_one_row(example1):
    cx = ht_resolution(example1)
    # d(x2x3x5; {1}) = -x1 (x2x3x5; {}) + x2 (x1x3x5; {})
    col = cx.index[2][Symbol(6, (1,))]
    r_self = cx.index[1][Symbol(6, ())]
    r_b = cx.index[1][Symbol(2, ())]
    assert cx.diff[2][(r_self, col)] == (-1, Monomial.variable(1, 5))
    assert cx.diff[2][(r_b, col)] == (1, Monomial.variable(2, 5))


def test_ht_drops_inadmissible_targets(example1):
    cx = ht_resolution(example1)
    # d(x1x4x5; {2,3}): the b(x3 x1x4x5) = x1x3x4 target would need
    # {2} inside set(x1x3x4) = {} and is dropped
    col = cx.index[3][Symbol(4, (2, 3))]
    rows = {cx.basis[2][r] for (r, c), _ in cx.diff[3].items() if c == col}
    assert rows == {Symbol(4, (3,)), Symbol(4, (2,)), Symbol(3, (3,))}


def test_ht_dd_zero_minimal_homogeneous(example1, running):
    for ideal in (example1, running):
        cx = ht_resolution(ideal)
        cx.validate()
        ok, witness = check_dd_zero(cx)
        assert ok, witness
        assert check_minimal(cx)


def test_ht_on_maximal_ideal_is_koszul(maximal4):
    cx = ht_resolution(maximal4)
    assert cx.ranks() == (1, 4, 6, 4, 1)
    ok, _ = check_dd_zero(cx)
    assert ok
    assert check_minimal(cx)


def test_ht_requires_linear_quotients():
    with pytest.raises(NotLinearQuotients):
        ht_resolution(parse_ideal("x1*x2, x3*x4"))


def test_iterated_cone_matches_direct(example1, running, maximal4):
    for ideal in (example1, running, maximal4):
        direct = resolution_from_rule(ideal, BRule(ideal))
        cone = iterated_cone_resolution(ideal)
        assert direct.ranks() == cone.ranks()
        for i in range(len(direct.basis)):
            assert direct.basis[i] == cone.basis[i]
            assert direct.diff[i] == cone.diff[i]


def test_check_dd_zero_detects_flip(running):
    cx = ht_resolution(running)
    (r, c), (s, m) = next(iter(cx.diff[2].items()))
    cx.diff[2][(r, c)] = (-s, m)
    ok, witness = check_dd_zero(cx)
    assert not ok and witness is not None



def _one_entry(sign, coeff, col_degree):
    """R <- R(-col_degree) on three variables, one degree-1 entry."""
    one = Monomial.one(3)
    return LabeledChainComplex(
        3, [[UNIT], [(1,)]], [[one], [col_degree]], [{}, {(0, 0): (sign, coeff)}]
    )


def test_validate_accepts_homogeneous_entry():
    x1 = Monomial.variable(1, 3)
    assert _one_entry(-1, x1, x1).validate()


def test_validate_rejects_short_exponent_vectors():
    # (1, 0) * (0, 0, 0) == (1, 0) if the vectors were zipped
    cx = _one_entry(1, Monomial((1, 0)), Monomial((1, 0)))
    with pytest.raises(ValueError, match=r"entry \(0,0\) in degree 1 is inhomogeneous"):
        cx.validate()
    assert not _homogeneous(cx, 1)  # the test check_dd_zero uses


def test_validate_rejects_bad_sign_and_inhomogeneous_entry():
    x1, x2 = Monomial.variable(1, 3), Monomial.variable(2, 3)
    with pytest.raises(ValueError, match=r"sign 2 at degree 1"):
        _one_entry(2, x1, x1).validate()
    with pytest.raises(ValueError, match=r"entry \(0,0\) in degree 1 is inhomogeneous"):
        _one_entry(1, x2, x1).validate()

def test_compare_up_to_degree_signs(running):
    a = ht_resolution(running)
    assert compare_up_to_degree_signs(a, ht_resolution(running)) == (True, None)
    # a whole degree flipped is refused: no sign is forgiven per degree
    b = ht_resolution(running)
    b.diff[2] = {key: (-s, m) for key, (s, m) in b.diff[2].items()}
    ok, why = compare_up_to_degree_signs(a, b)
    assert not ok
    assert why.startswith("signs differ") and why.endswith("in degree 2")
    # and so is a single flipped entry
    c = ht_resolution(running)
    key = min(c.diff[3])
    s, m = c.diff[3][key]
    c.diff[3][key] = (-s, m)
    assert compare_up_to_degree_signs(a, c) == (
        False,
        "signs differ at %s in degree 3" % (key,),
    )
