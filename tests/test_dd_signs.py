"""check_dd_zero sums only signs where both differentials are homogeneous;
the Monomial-sum check it replaced is kept here as the reference."""

from collections import defaultdict

from cellres.betti import taylor_complex
from cellres.chain import (
    UNIT,
    LabeledChainComplex,
    Symbol,
    check_dd_zero,
    ht_resolution,
    iterated_cone_resolution,
)
from cellres.cointerval import homcone_resolution
from cellres.corpus import gen_corpus
from cellres.ideals import check_regularity
from cellres.monomial import Monomial


def _reference_dd_zero(cx):
    for i in range(2, len(cx.basis)):
        by_col = defaultdict(list)
        for (r, c), e in cx.diff[i].items():
            by_col[c].append((r, e))
        lower_by_col = defaultdict(list)
        for (r2, c2), e in cx.diff[i - 1].items():
            lower_by_col[c2].append((r2, e))
        acc = defaultdict(lambda: defaultdict(int))
        for c, terms in by_col.items():
            for mid, (s1, m1) in terms:
                for r2, (s2, m2) in lower_by_col.get(mid, ()):
                    acc[(r2, c)][(m1 * m2).e] += s1 * s2
        bad = sorted(
            (r, c)
            for (r, c), poly in acc.items()
            if any(v for v in poly.values())
        )
        if bad:
            r, c = bad[0]
            return False, (i, cx.basis[i - 2][r], cx.basis[i][c])
    return True, None


def _sample_complexes():
    for item in gen_corpus()[::97]:
        ideal = item.ideal
        if not check_regularity(ideal).regular:
            continue
        yield item.name + " ht", ht_resolution(ideal)
        yield item.name + " cone", iterated_cone_resolution(ideal)
        if ideal.k <= 10:
            yield item.name + " taylor", taylor_complex(ideal)
        if item.kind == "cointerval":
            yield item.name + " homcone", homcone_resolution(ideal)


def test_matches_reference_on_corpus_complexes():
    kinds = set()
    for name, cx in _sample_complexes():
        assert check_dd_zero(cx) == _reference_dd_zero(cx), name
        kinds.add(name.rsplit(" ", 1)[1])
    assert kinds == {"ht", "cone", "taylor", "homcone"}


def _with_entry(cx, i, key, value):
    diff = [dict(d) for d in cx.diff]
    diff[i][key] = value
    return LabeledChainComplex(cx.n, cx.basis, cx.mdeg, diff)


def test_matches_reference_on_every_sign_flip(running):
    cx = ht_resolution(running)
    flips = 0
    for i in range(1, len(cx.diff)):
        for key, (sign, coeff) in cx.diff[i].items():
            bad = _with_entry(cx, i, key, (-sign, coeff))
            got = check_dd_zero(bad)
            assert got == _reference_dd_zero(bad)
            assert got[0] is False
            flips += 1
    assert flips == sum(len(d) for d in cx.diff)


def _x(*e):
    return Monomial(e)


def _koszul_square(upper):
    """d(c) = the upper entries onto b1, b2, with d(b1) = x1, d(b2) = x2
    and c in degree x1*x2."""
    basis = [[UNIT], [Symbol(1, ()), Symbol(2, ())], [Symbol(2, (1,))]]
    mdeg = [[_x(0, 0, 0)], [_x(1, 0, 0), _x(0, 1, 0)], [_x(1, 1, 0)]]
    diff = [{}, {(0, 0): (1, _x(1, 0, 0)), (0, 1): (1, _x(0, 1, 0))}, upper]
    return LabeledChainComplex(3, basis, mdeg, diff)


def test_homogeneous_square_passes():
    cx = _koszul_square({(0, 0): (1, _x(0, 1, 0)), (1, 0): (-1, _x(1, 0, 0))})
    assert check_dd_zero(cx) == (True, None)


def test_signs_that_cancel_on_different_monomials_fail():
    # paths c -> b1 -> 1 (+x2*x1) and c -> b2 -> 1 (-x3*x2): the signs
    # sum to zero but the monomials differ
    cx = _koszul_square({(0, 0): (1, _x(0, 1, 0)), (1, 0): (-1, _x(0, 0, 1))})
    assert check_dd_zero(cx) == _reference_dd_zero(cx)
    assert check_dd_zero(cx) == (False, (2, UNIT, Symbol(2, (1,))))


def test_inhomogeneous_paths_whose_monomials_cancel_pass():
    # a homogeneous square with c's degree planted wrong: no entry into c
    # is homogeneous, yet the path monomials cancel exactly
    cx = _koszul_square({(0, 0): (1, _x(0, 1, 0)), (1, 0): (-1, _x(1, 0, 0))})
    cx.mdeg[2] = [_x(1, 1, 1)]
    assert check_dd_zero(cx) == (True, None)
    cx.mdeg[1] = [_x(1, 0, 0), _x(0, 0, 1)]
    assert check_dd_zero(cx) == (True, None)


def test_inhomogeneous_entry_with_cancelling_signs_fails():
    # degree-2 entries homogeneous, degree-1 entry onto b2 planted
    # inhomogeneous (x3 instead of x2): the signs of the two paths still
    # cancel, the monomials x1*x2 and x1*x3 do not
    cx = _koszul_square({(0, 0): (1, _x(0, 1, 0)), (1, 0): (-1, _x(1, 0, 0))})
    cx.diff[1][(0, 1)] = (1, _x(0, 0, 1))
    assert check_dd_zero(cx) == _reference_dd_zero(cx)
    assert check_dd_zero(cx)[0] is False
