"""ChainMap.commutes sums paths through the column-indexed helper it
shares with check_dd_zero; the scan-every-entry check it replaced is kept
here as the reference."""

from collections import defaultdict

from cellres import chain
from cellres.chain import ChainMap, iterated_cone_resolution
from cellres.corpus import gen_corpus
from cellres.ideals import check_regularity, parse_ideal
from cellres.monomial import Monomial

RUNNING = "x1*x2, x1*x3, x1*x5, x2*x3, x2*x5, x3*x5, x4*x5"


def _reference_commutes(psi):
    src, tgt = psi.source, psi.target
    for i in range(1, len(src.basis)):
        acc = defaultdict(lambda: defaultdict(int))
        for (r, c), (s1, m1) in src.diff[i].items():
            for (tr, sc), (s2, m2) in psi.maps[i - 1].items():
                if sc == r:
                    acc[(tr, c)][(m1 * m2).e] += s1 * s2
        for (tr, sc), (s1, m1) in psi.maps[i].items():
            if i < len(tgt.basis):
                for (r2, c2), (s2, m2) in tgt.diff[i].items():
                    if c2 == tr:
                        acc[(r2, sc)][(m1 * m2).e] -= s1 * s2
        for poly in acc.values():
            if any(poly.values()):
                return False
    return True


def _cone_steps(monkeypatch, ideals):
    """The chain map of every mapping cone iterated_cone_resolution builds."""
    steps = []
    real = chain.mapping_cone

    def recording(psi, relabel_shifted=None):
        steps.append(psi)
        return real(psi, relabel_shifted)

    monkeypatch.setattr(chain, "mapping_cone", recording)
    for ideal in ideals:
        iterated_cone_resolution(ideal)
    return steps


def _sample_ideals():
    ideals = [parse_ideal(RUNNING)]
    for item in gen_corpus()[::97]:
        if item.ideal.k <= 10 and check_regularity(item.ideal).regular:
            ideals.append(item.ideal)
    return ideals


def _planted(psi):
    """Copies of psi with one entry changed: its sign flipped, its
    coefficient times x_1, or the entry dropped."""
    for i, m in enumerate(psi.maps):
        for key in sorted(m)[:3]:
            sign, coeff = m[key]
            x1 = Monomial.variable(1, coeff.n)
            for changed in ((-sign, coeff), (sign, coeff * x1), None):
                maps = [dict(mp) for mp in psi.maps]
                if changed is None:
                    del maps[i][key]
                else:
                    maps[i][key] = changed
                yield ChainMap(psi.source, psi.target, maps)


def test_commutes_matches_reference_on_cone_steps(monkeypatch):
    steps = _cone_steps(monkeypatch, _sample_ideals())
    assert len(steps) > 50
    for psi in steps:
        assert psi.commutes() is True
        assert _reference_commutes(psi) is True


def test_commutes_matches_reference_on_planted_maps(monkeypatch):
    steps = _cone_steps(monkeypatch, [parse_ideal(RUNNING)])
    verdicts = []
    for psi in steps:
        for bad in _planted(psi):
            verdicts.append(bad.commutes())
            assert verdicts[-1] == _reference_commutes(bad)
    assert verdicts.count(False) > 20


def test_commutes_sums_cancelling_paths_on_their_monomials():
    # two paths into one entry with opposite signs cancel only on equal
    # monomials
    n = 2
    one, x, y = Monomial.one(n), Monomial.variable(1, n), Monomial.variable(2, n)
    d1 = {(0, 0): (1, x), (1, 0): (-1, x)}
    src = chain.LabeledChainComplex(n, [["a", "b"], ["c"]], [[one, one], [x]], [{}, d1])
    tgt = chain.LabeledChainComplex(n, [["t"]], [[one]], [{}])
    for coeff, want in ((one, True), (y, False)):
        psi = ChainMap(src, tgt, [{(0, 0): (1, one), (0, 1): (1, coeff)}])
        assert psi.commutes() is want
        assert _reference_commutes(psi) is want
