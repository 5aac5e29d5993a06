from collections import defaultdict
from itertools import combinations
from math import comb

import pytest

from cellres import betti
from cellres.betti import (
    BettiTable,
    LabeledCellComplex,
    TaylorSupport,
    betti_from_resolution,
    check_cellular_resolution,
    lcm_lattice,
    multigraded_betti,
    taylor_complex,
)
from cellres.chain import (
    UNIT,
    LabeledChainComplex,
    check_dd_zero,
    check_minimal,
    ht_resolution,
)
from cellres.cointerval import build_hom_complex, homcone_resolution
from cellres.corpus import gen_corpus
from cellres.ekcells import build_ek_cw
from cellres.errors import NonMonotoneLabels, TooManyGenerators
from cellres.exact import bareiss_rank, homology_ranks, is_exact
from cellres.ideals import parse_ideal
from cellres.monomial import Monomial, parse_monomial
from reference import chain_data, lcm_of


# -- exact rank -------------------------------------------------------------


def test_ranks_basic():
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert bareiss_rank(identity) == 3
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    assert bareiss_rank([]) == 0


def test_rank_hollow_triangle_boundary():
    # vertices 1,2,3; edges 12,13,23
    d1 = [
        [-1, -1, 0],
        [1, 0, -1],
        [0, 1, 1],
    ]
    assert bareiss_rank(d1) == 2


def test_rank_mod_p_can_drop_but_q_wins():
    # rank 1 modulo 2 and modulo 3; over Q the rank stays full
    M = [[2, 0], [0, 3]]
    assert bareiss_rank(M) == 2


def test_homology_of_circle():
    cells = {0: ["a", "b"], 1: ["ab1", "ab2"]}
    boundary = {
        "ab1": {"a": 1, "b": -1},
        "ab2": {"a": 1, "b": -1},
    }
    h = homology_ranks(chain_data(cells, boundary))
    assert h == {0: 1, 1: 1}


def test_multiplication_by_two_is_exact_over_q():
    # not exact over GF(2); the collapse cannot pair f with e, so the core
    # is ranked over Q
    chain = chain_data({1: ["e"], 2: ["f"]}, {"f": {"e": 2}})
    assert is_exact(chain) == (True, {})


# -- Taylor complex -----------------------------------------------------------


def test_taylor_variable_ideal():
    cx = taylor_complex(parse_ideal("x1, x2"))
    assert cx.ranks() == (1, 2, 1)
    assert check_minimal(cx)
    ok, _ = check_dd_zero(cx)
    assert ok


def test_taylor_running(running):
    cx = taylor_complex(running)
    assert cx.ranks() == (1, 7, 21, 35, 35, 21, 7, 1)
    cx.validate()
    ok, _ = check_dd_zero(cx)
    assert ok
    assert not check_minimal(cx)


def test_taylor_single_generator():
    cx = taylor_complex(parse_ideal("x1*x2*x3"))
    assert cx.ranks() == (1, 1)


def test_taylor_bound(monkeypatch):
    # stand-ins record every face build, so a builder past the bound is
    # seen to refuse before its first face, and one at the bound to start
    built = []

    def no_faces(X):
        built.append(X.ideal.k)
        return iter(())

    monkeypatch.setattr(TaylorSupport, "cells_with_labels", no_faces)
    monkeypatch.setattr(betti, "cell_chain_complex", lambda X, *_: no_faces(X))

    def maximal(k):
        return parse_ideal(", ".join("x%d" % i for i in range(1, k + 1)))

    for build in (taylor_complex, TaylorSupport, multigraded_betti):
        seen = len(built)
        with pytest.raises(TooManyGenerators, match="^17 generators exceed the bound 16"):
            build(maximal(17))
        assert len(built) == seen
        build(maximal(16))
    assert built == [16, 16]  # taylor_complex and multigraded_betti


# -- multigraded Betti --------------------------------------------------------


def test_betti_running(running):
    table = multigraded_betti(running)
    assert table.totals() == (1, 7, 11, 6, 1)


def test_betti_maximal_ideals():
    for n in (2, 3, 4):
        ideal = parse_ideal(", ".join("x%d" % i for i in range(1, n + 1)))
        table = multigraded_betti(ideal)
        assert table.totals() == tuple(comb(n, i) for i in range(n + 1))


def test_betti_example1_matches_set_table(example1):
    table = multigraded_betti(example1)
    sizes = [len(s) for s in example1.set_table()]
    top = max(sizes) + 1
    expected = tuple(
        [1] + [sum(comb(s, i - 1) for s in sizes) for i in range(1, top + 1)]
    )
    assert table.totals() == expected


def test_betti_equals_resolution_tables(running, example1):
    for ideal in (running, example1):
        oracle = multigraded_betti(ideal)
        res = betti_from_resolution(ht_resolution(ideal))
        assert oracle == res


def test_betti_specific_multidegree(running):
    table = multigraded_betti(running)
    b = parse_monomial("x1*x2*x3", n=5).e
    assert table.data[(2, b)] == 2


# -- lcm lattice --------------------------------------------------------------


def test_lcm_lattice_small():
    ideal = parse_ideal("x1*x2, x2*x3, x1*x3")
    lattice = lcm_lattice(ideal)
    assert parse_monomial("x1*x2*x3", n=3) in lattice
    assert len(lattice) == 4


# -- cellular resolution criterion -------------------------------------------


def test_taylor_strands_pass(running, example1):
    for ideal in (running, example1):
        ok, witness = check_cellular_resolution(TaylorSupport(ideal), ideal)
        assert ok, witness


def test_taylor_generic_path_matches_fast_path(running, example1):
    support = TaylorSupport(running)
    cells = {key: (dim, label) for key, dim, label in support.cells_with_labels()}
    boundary = {key: support.topo_boundary(key) for key in cells}
    copy = LabeledCellComplex(cells, boundary)
    for X in (support, copy):
        assert check_cellular_resolution(X, running) == (True, None)
        # the vertices carry another ideal's generators
        assert check_cellular_resolution(X, example1) == (False, Monomial.one(5))


def test_ek_and_hom_strands_pass(running, example1):
    for ideal in (running, example1):
        X = build_ek_cw(ideal)
        ok, witness = check_cellular_resolution(X, ideal)
        assert ok, witness
    from tests.test_cointerval import running_graph

    H = build_hom_complex(running_graph())
    ok, witness = check_cellular_resolution(H, running)
    assert ok, witness


def hollow_triangle():
    n = 3
    lab = lambda s: parse_monomial(s, n=n)
    cells = {
        "v12": (0, lab("x1*x2")),
        "v13": (0, lab("x1*x3")),
        "v23": (0, lab("x2*x3")),
        "e1": (1, lab("x1*x2*x3")),
        "e2": (1, lab("x1*x2*x3")),
        "e3": (1, lab("x1*x2*x3")),
    }
    boundary = {
        "e1": [("v12", 1), ("v13", -1)],
        "e2": [("v12", 1), ("v23", -1)],
        "e3": [("v13", 1), ("v23", -1)],
    }
    return LabeledCellComplex(cells, boundary)


def test_hollow_triangle_fails_at_top_multidegree():
    ideal = parse_ideal("x1*x2, x1*x3, x2*x3")
    ok, witness = check_cellular_resolution(hollow_triangle(), ideal)
    assert not ok
    assert witness == parse_monomial("x1*x2*x3", n=3)


@pytest.mark.parametrize(
    "edge, want",
    [(None, "x2*x3"), ((2, 3), "x1*x3"), ((1, 2), "x2*x3")],
    ids=["no-edge", "edge-2-3", "edge-1-2"],
)
def test_failing_strands_of_one_count_report_the_str_least(edge, want):
    # three vertices, at most one edge: every strand of two vertices and
    # no edge is disconnected, so two or three strands of two cells fail.
    # The lattice lists x2*x3 before x1*x3 before x1*x2; the verdict names
    # the failing b met first in that order, not the least as a string.
    ideal = parse_ideal("x1, x2, x3")
    assert [str(b) for b in lcm_lattice(ideal) if b.degree() == 2] == [
        "x2*x3",
        "x1*x3",
        "x1*x2",
    ]
    cells = {(j,): (0, ideal.gen(j)) for j in (1, 2, 3)}
    boundary = {}
    if edge is not None:
        s, t = edge
        cells[edge] = (1, ideal.gen(s).lcm(ideal.gen(t)))
        boundary[edge] = [((s,), -1), ((t,), 1)]
    X = LabeledCellComplex(cells, boundary)
    assert check_cellular_resolution(X, ideal) == (False, parse_monomial(want, n=3))


def test_nonmonotone_labels_detected():
    n = 3
    cells = {
        "v": (0, parse_monomial("x1*x2", n=n)),
        "w": (0, parse_monomial("x1*x3", n=n)),
        "e": (1, parse_monomial("x1*x2", n=n)),
    }
    boundary = {"e": [("v", 1), ("w", -1)]}
    bad = LabeledCellComplex(cells, boundary)
    with pytest.raises(NonMonotoneLabels):
        check_cellular_resolution(bad, parse_ideal("x1*x2, x1*x3"))


def test_hom_resolution_strands(running):
    cx = homcone_resolution(running)
    assert betti_from_resolution(cx) == multigraded_betti(running)


# -- the Taylor complex and the Taylor Betti oracle, as they were ---------------


def _old_taylor_complex(ideal, bound=16):
    k = ideal.k
    if k > bound:
        raise TooManyGenerators("%d generators exceed the bound %d" % (k, bound))
    n = ideal.n
    lcms = {(): Monomial.one(n)}
    basis = [[UNIT]]
    mdeg = [[Monomial.one(n)]]
    diff = [dict()]
    for size in range(1, k + 1):
        level = list(combinations(range(1, k + 1), size))
        for S in level:
            lcms[S] = lcm_of([ideal.gen(j) for j in S])
        basis.append(list(level))
        mdeg.append([lcms[S] for S in level])
        diff.append({})
    for size in range(1, k + 1):
        lower = {S: i for i, S in enumerate(basis[size - 1])}
        for c, S in enumerate(basis[size]):
            for pos, g in enumerate(S, start=1):
                rest = tuple(x for x in S if x != g)
                row = lower[rest] if size > 1 else 0
                sign = 1 if pos % 2 == 1 else -1
                diff[size][(row, c)] = (sign, lcms[S] // lcms[rest])
    return LabeledChainComplex(n, basis, mdeg, diff)


def _old_multigraded_betti(ideal, bound=16):
    k = ideal.k
    if k > bound:
        raise TooManyGenerators("%d generators exceed the bound %d" % (k, bound))
    buckets = defaultdict(list)
    lcms = {(): Monomial.one(ideal.n)}
    for size in range(1, k + 1):
        for S in combinations(range(1, k + 1), size):
            lcms[S] = lcms[S[:-1]].lcm(ideal.gen(S[-1])) if size > 1 else ideal.gen(
                S[0]
            )
            buckets[lcms[S]].append(S)
    data = defaultdict(int)
    data[(0, Monomial.one(ideal.n).e)] = 1
    for b, faces in buckets.items():
        members = set(faces)
        cells_by_deg = defaultdict(list)
        boundary = {}
        for S in faces:
            cells_by_deg[len(S)].append(S)
            entries = {}
            for pos, g in enumerate(S, start=1):
                rest = tuple(x for x in S if x != g)
                if rest in members:
                    entries[rest] = 1 if pos % 2 == 1 else -1
            boundary[S] = entries
        h = homology_ranks(chain_data(cells_by_deg, boundary))
        for i, v in h.items():
            data[(i, b.e)] += v
    return BettiTable(dict(data), ideal.n)


@pytest.fixture(scope="module")
def small_ideals(running, example1):
    """The running example, example 1, every stable corpus ideal and every
    53rd cointerval one, all with at most 12 generators."""
    items = [it for it in gen_corpus() if it.ideal.k <= 12]
    cointerval = [it for it in items if it.kind == "cointerval"]
    others = [it for it in items if it.kind != "cointerval"]
    return [running, example1] + [it.ideal for it in others + cointerval[::53]]


def test_taylor_complex_matches_old_construction(small_ideals):
    assert len(small_ideals) > 120
    for ideal in small_ideals:
        got, want = taylor_complex(ideal), _old_taylor_complex(ideal)
        assert got.basis == want.basis, ideal
        assert got.mdeg == want.mdeg, ideal
        assert [list(d.items()) for d in got.diff] == [
            list(d.items()) for d in want.diff
        ], ideal


def test_multigraded_betti_matches_old_oracle(small_ideals):
    for ideal in small_ideals:
        got, want = multigraded_betti(ideal), _old_multigraded_betti(ideal)
        assert got == want, ideal
        assert got.n == want.n and got.rows() == want.rows(), ideal


def test_taylor_labels_are_lcms():
    ideal = next(it.ideal for it in gen_corpus() if it.ideal.k == 10)
    want = {
        S: lcm_of([ideal.gen(j) for j in S])
        for size in range(1, 11)
        for S in combinations(range(1, 11), size)
    }
    assert len(want) == 2**10 - 1
    cells = list(TaylorSupport(ideal).cells_with_labels())
    assert [(S, dim) for S, dim, _ in cells] == [(S, len(S) - 1) for S in want]
    assert all(label == want[S] for S, _, label in cells)
    # asked largest first, so every prefix is filled in on demand
    support = TaylorSupport(ideal)
    for S in sorted(want, key=len, reverse=True):
        assert support.label(S) == want[S], S

