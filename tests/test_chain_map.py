"""ChainMap.commutes sums paths through the column-indexed helper it
shares with check_dd_zero, reading only the target columns psi names,
from the column index a cone keeps.
Two checks it replaced are the references: the scan-every-entry check
here, and the one that grouped the whole target differential in
reference.py.  The cone that lists G[1] first, and the re-sort the
iterated cone needed after it, are the reference for today's cone (F
first) and its unsorted iterated result, which cones every generator
onto R, m_1 included."""

from collections import defaultdict
from itertools import accumulate

import reference
from cellres import chain
from cellres.chain import (
    UNIT,
    ChainMap,
    Symbol,
    iterated_cone_resolution,
    koszul_complex,
    mapping_cone,
    resolution_from_rule,
)
from cellres.cointerval import CRule
from cellres.corpus import cointerval_corpus, gen_corpus
from cellres.ideals import check_regularity, parse_ideal
from cellres.monomial import Monomial, parse_monomial

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
        assert reference.commutes(psi) is True


def test_commutes_matches_reference_on_planted_maps(monkeypatch):
    steps = _cone_steps(monkeypatch, [parse_ideal(RUNNING)])
    verdicts = []
    for psi in steps:
        for bad in _planted(psi):
            verdicts.append(bad.commutes())
            assert verdicts[-1] == _reference_commutes(bad)
            assert verdicts[-1] == reference.commutes(bad)
    assert verdicts.count(False) > 20


def test_cone_keeps_its_columns_and_commutes_reads_only_them(monkeypatch):
    steps = _cone_steps(monkeypatch, _sample_ideals())
    indexed = 0
    for psi in steps:
        cone = mapping_cone(psi)
        assert [
            {c: sorted(es) for c, es in cols.items()} for cols in cone._columns
        ] == [{c: sorted(es) for c, es in chain._by_col(d).items()} for d in cone.diff]
        tgt = psi.target
        if tgt._columns is None:
            continue
        # a target with its entries gone but its column index kept: the
        # check reads d_target only through the index
        blind = chain.LabeledChainComplex(tgt.n, tgt.basis, tgt.mdeg, [{} for _ in tgt.diff])
        blind._columns = tgt._columns
        assert ChainMap(psi.source, blind, psi.maps).commutes() is True
        for bad in _planted(psi):
            assert ChainMap(bad.source, blind, bad.maps).commutes() == bad.commutes()
        indexed += 1
    assert indexed > 50


def test_one_cone_per_generator_starting_from_r(monkeypatch):
    # the first cone is K(empty) m_1 onto R: (m_1; {}) with d = m_1
    ideals = _sample_ideals()
    steps = _cone_steps(monkeypatch, ideals)
    ks = [ideal.k for ideal in ideals]
    assert len(steps) == sum(ks)
    starts = [p for p, psi in enumerate(steps) if psi.target.basis == [[UNIT]]]
    assert starts == list(accumulate([0] + ks[:-1]))
    for ideal, start in zip(ideals, starts):
        cone = mapping_cone(steps[start], lambda beta: Symbol(1, beta))
        m1 = ideal.gen(1)
        assert cone.basis == [[UNIT], [Symbol(1, ())]]
        assert cone.mdeg == [[Monomial.one(ideal.n)], [m1]]
        assert cone.diff == [{}, {(0, 0): (1, m1)}]


def test_chain_map_keeps_its_maps():
    n = 1
    one = Monomial.one(n)
    cx = chain.LabeledChainComplex(n, [["a"], ["b"]], [[one], [one]], [])
    maps = [{(0, 0): (1, one)}]
    psi = ChainMap(cx, cx, maps)
    assert psi.maps is maps
    assert maps == [{(0, 0): (1, one)}, {}]


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
        assert reference.commutes(psi) is want


# -- the cone lists F first; the cone that listed G[1] first is the reference


def _swapped_blocks(ref, F):
    """ref's bases, multidegrees and entries with each degree's G[1] block
    moved behind F's block."""
    perms = []
    for i, level in enumerate(ref.basis):
        f = len(F.basis[i]) if i < len(F.basis) else 0
        g = len(level) - f
        perms.append([f + p if p < g else p - g for p in range(len(level))])
    basis, mdeg = [], []
    for perm, level, ms in zip(perms, ref.basis, ref.mdeg):
        basis.append([None] * len(level))
        mdeg.append([None] * len(ms))
        for p, q in enumerate(perm):
            basis[-1][q], mdeg[-1][q] = level[p], ms[p]
    diff = [
        {(perms[i - 1][r], perms[i][c]): e for (r, c), e in d.items()} if i else dict(d)
        for i, d in enumerate(ref.diff)
    ]
    return basis, mdeg, diff


def test_cone_is_the_reference_cone_with_blocks_swapped(monkeypatch):
    steps = _cone_steps(monkeypatch, _sample_ideals())
    assert len(steps) > 50
    for psi in steps:
        cone, ref = mapping_cone(psi), reference.mapping_cone(psi)
        assert (cone.basis, cone.mdeg, cone.diff) == _swapped_blocks(ref, psi.target)


def test_iterated_cone_is_the_sorted_reference(monkeypatch):
    cases = [(ideal, None) for ideal in _sample_ideals()]
    cases += [
        (item.ideal, CRule(item.ideal))
        for item in cointerval_corpus(max_d=2, max_n=4)
    ]
    assert len(cases) > 60
    results = [iterated_cone_resolution(ideal, rule) for ideal, rule in cases]
    monkeypatch.setattr(chain, "mapping_cone", reference.mapping_cone)
    for (ideal, rule), new in zip(cases, results):
        old = reference.sorted_symbol_complex(iterated_cone_resolution(ideal, rule))
        assert (new.basis, new.mdeg, new.diff) == (old.basis, old.mdeg, old.diff)


# -- complexes keep what they are handed, so no builder may hand over an
# -- input's table


def _tables(cx):
    return (
        [list(b) for b in cx.basis],
        [list(m) for m in cx.mdeg],
        [dict(d) for d in cx.diff],
    )


def _scribble(cx):
    """Append to every basis and multidegree list and add a key to every
    differential dict of cx, and one more degree to each."""
    for tables in (cx.basis, cx.mdeg):
        for level in tables:
            level.append("scribble")
        tables.append([])
    for d in cx.diff:
        d[("scribble", 0)] = None
    cx.diff.append({})


def test_cone_shares_no_table_with_its_inputs(monkeypatch):
    steps = _cone_steps(monkeypatch, [parse_ideal(RUNNING)])
    steps.append(ChainMap(steps[-1].target, steps[-1].target, []))
    for psi in steps:
        before = [_tables(psi.source), _tables(psi.target), [dict(m) for m in psi.maps]]
        _scribble(mapping_cone(psi))
        after = [_tables(psi.source), _tables(psi.target), [dict(m) for m in psi.maps]]
        assert after == before


def test_builders_share_no_table_between_calls():
    running = parse_ideal(RUNNING)
    builders = [
        (koszul_complex, ((1, 2, 3), parse_monomial("x4*x5", n=5))),
        (koszul_complex, ((), parse_monomial("x4*x5", n=5))),
        (resolution_from_rule, (running, chain.BRule(running))),
        (resolution_from_rule, (running, CRule(running))),
    ]
    for build, args in builders:
        first = build(*args)
        before = _tables(first)
        _scribble(first)
        assert _tables(build(*args)) == before
