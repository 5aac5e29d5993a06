from itertools import combinations

import pytest

from cellres import cointerval
from cellres.chain import (
    BRule,
    Symbol,
    check_dd_zero,
    check_minimal,
    compare_up_to_degree_signs,
    ht_resolution,
)
from cellres.cointerval import (
    CRule,
    DGraph,
    build_hom_complex,
    c_realizes_hom,
    cointerval_discrepancy,
    decomp_c,
    dgraph_of_ideal,
    edge_ideal,
    face_of_symbol,
    hom_boundary,
    hom_chain_complex,
    homcone_resolution,
    is_cointerval,
    is_cointerval_exchange,
    parse_dgraph,
    partition_A,
    symbol_of_face,
    v_layer,
)
from cellres.corpus import gen_corpus, random_linear_quotient_ideals
from cellres.ekcells import build_ek_cw
from cellres.errors import (
    NotCointerval,
    NotInSet,
    SymbolNotInComplex,
    VerificationError,
)
from cellres.ideals import parse_ideal
from cellres.monomial import Monomial, parse_monomial
from reference import b_of, is_squarefree_strongly_stable


@pytest.fixture(scope="module")
def cointerval_items():
    return [item for item in gen_corpus() if item.tags.get("cointerval")]


def running_graph():
    return DGraph.from_edges(
        2, [(1, 2), (1, 3), (1, 5), (2, 3), (2, 5), (3, 5), (4, 5)]
    )


def complete_graph(d, n):
    return DGraph.from_edges(d, combinations(range(1, n + 1), d))


def test_parse_dgraph():
    g = parse_dgraph("2 5\n1 2\n1 3\n4 5\n")
    assert g.d == 2 and (1, 2) in g.edges and (4, 5) in g.edges
    assert g.vertices == (1, 2, 3, 4, 5)


def test_v_layer_running():
    g = running_graph()
    assert v_layer(g, 1).edges == {(2,), (3,), (5,)}
    assert v_layer(g, 5).edges == frozenset()
    k = complete_graph(3, 5)
    assert v_layer(k, 1).edges == {e for e in combinations(range(2, 6), 2)}


def test_is_cointerval_running_and_complete():
    assert is_cointerval(running_graph())
    assert is_cointerval(complete_graph(2, 4))
    assert is_cointerval(complete_graph(3, 5))


def test_is_cointerval_rejects_disjoint_pair():
    g = DGraph.from_edges(2, [(1, 2), (3, 4)])
    assert not is_cointerval(g)


def _inline_layer_recursion(d, edges):
    """The recursive definition written out in full: one scan of all edges
    per support vertex, and every pair of support vertices nested."""
    if d == 1:
        return True
    support = sorted({v for e in edges for v in e})
    layers = {v: frozenset(e[1:] for e in edges if e[0] == v) for v in support}
    for layer in layers.values():
        if not _inline_layer_recursion(d - 1, layer):
            return False
    for a, i in enumerate(support):
        for j in support[a + 1 :]:
            if not layers[j] <= layers[i]:
                return False
    return True


def test_verdicts_and_layers_match_the_inline_recursion():
    # every nonempty 2-graph and 3-graph edge set on [5]: 2 x 1,023 sets
    checked = 0
    for d in (2, 3):
        possible = list(combinations(range(1, 6), d))
        for mask in range(1, 1 << len(possible)):
            edges = frozenset(e for i, e in enumerate(possible) if mask >> i & 1)
            g = DGraph.from_edges(d, edges, vertices=range(1, 6))
            assert is_cointerval(g) == _inline_layer_recursion(d, edges), edges
            for v in g.vertices:
                rest = tuple(u for u in g.vertices if u != v)
                layer = frozenset(e[1:] for e in edges if e[0] == v)
                assert v_layer(g, v) == DGraph(d - 1, rest, layer)
            checked += 1
    assert checked == 2046


def test_verdict_cache_is_bounded():
    # a long-lived process asks about ever new graphs; the kept verdicts
    # stay bounded however many it has seen
    try:
        for mask in range(1, 8301):
            edges = [(v,) for v in range(1, 15) if mask >> (v - 1) & 1]
            assert is_cointerval(DGraph.from_edges(1, edges))
        assert cointerval._cointerval_cached.cache_info().currsize <= 8192
    finally:
        cointerval._cointerval_cached.cache_clear()


def test_example1_not_cointerval(example1):
    assert not is_cointerval(dgraph_of_ideal(example1))


def test_exchange_disagrees_on_running_example():
    g = running_graph()
    report = cointerval_discrepancy(g)
    assert report["recursive"] is True
    assert report["exchange"] is False
    assert not report["agree"]


def test_exchange_on_complete():
    assert is_cointerval_exchange(complete_graph(2, 4))
    assert is_cointerval_exchange(complete_graph(3, 5))


def test_exchange_agrees_on_squarefree_strongly_stable():
    # shifted families are downward closed under single swaps; there the
    # two readings coincide
    graphs = [
        complete_graph(2, 5),
        DGraph.from_edges(2, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]),
        DGraph.from_edges(3, [(1, 2, 3), (1, 2, 4), (1, 3, 4)]),
    ]
    for g in graphs:
        assert is_squarefree_strongly_stable(g)
        assert is_cointerval(g) == is_cointerval_exchange(g)


# -- hom complex -------------------------------------------------------------


def test_hom_complex_running_f_vector(running):
    X = build_hom_complex(running_graph())
    assert X.f_vector() == (7, 11, 6, 1)
    assert X.by_dim[3] == [((1, 2, 3, 4), (5,))]


def test_hom_complex_single_edge():
    X = build_hom_complex(DGraph.from_edges(2, [(2, 4)]))
    assert X.f_vector() == (1,)


def test_hom_complex_complete_on_3():
    X = build_hom_complex(complete_graph(2, 3))
    assert X.f_vector() == (3, 2)
    assert set(X.by_dim[1]) == {((1, 2), (3,)), ((1,), (2, 3))}


def test_hom_boundary_top_cell():
    faces = hom_boundary(((1, 2, 3), (5,)))
    assert len(faces) == 3
    targets = {f for f, _ in faces}
    assert targets == {
        ((2, 3), (5,)),
        ((1, 3), (5,)),
        ((1, 2), (5,)),
    }


def test_hom_boundary_dd_zero():
    acc = {}
    for face, s1 in hom_boundary(((1, 2, 3, 4), (5,))):
        for sub, s2 in hom_boundary(face):
            acc[sub] = acc.get(sub, 0) + s1 * s2
    assert all(v == 0 for v in acc.values())


def test_hom_boundary_edge():
    faces = hom_boundary(((1, 2), (5,)))
    assert sorted(f for f, _ in faces) == [((1,), (5,)), ((2,), (5,))]
    signs = {f: s for f, s in faces}
    assert signs[((1,), (5,))] == -signs[((2,), (5,))]


# -- bijection ----------------------------------------------------------------


def test_symbol_of_face_examples(running):
    assert symbol_of_face(running, ((1, 2, 3), (5,))) == Symbol(6, (1, 2))
    assert symbol_of_face(running, ((4,), (5,))) == Symbol(7, ())


def test_face_of_symbol_examples(running):
    assert face_of_symbol(running, 6, (1, 2)) == ((1, 2, 3), (5,))
    assert face_of_symbol(running, 7, ()) == ((4,), (5,))


def test_bijection_roundtrip(running):
    X = build_hom_complex(running_graph())
    for cell, _, _ in X.cells_with_labels():
        sym = symbol_of_face(running, cell)
        assert face_of_symbol(running, sym.gen, sym.alpha) == cell
    for j in range(1, running.k + 1):
        for size in range(len(running.set_of(j)) + 1):
            for alpha in combinations(running.set_of(j), size):
                cell = face_of_symbol(running, j, alpha)
                assert symbol_of_face(running, cell) == Symbol(j, alpha)


def test_hom_labels_are_cached():
    X = build_hom_complex(running_graph())
    for cell, _, label in X.cells_with_labels():
        support = sorted(v for block in cell for v in block)
        assert label == Monomial.from_support(support, X.n)
        assert X.label(cell) is label


def test_hom_memo_matches_references(cointerval_items):
    for item in cointerval_items[::7]:
        H = build_hom_complex(dgraph_of_ideal(item.ideal), item.ideal.n)
        for cell in H.cells:
            faces = H.topo_boundary(cell)
            assert isinstance(faces, tuple)
            assert list(faces) == hom_boundary(cell), (item.name, cell)
            assert H.topo_boundary(cell) is faces
            support = [v for block in cell for v in block]
            assert H.label(cell) == Monomial.from_support(support, H.n)


def test_face_of_symbol_rejects(running):
    with pytest.raises(SymbolNotInComplex):
        face_of_symbol(running, 1, (3,))


def test_face_of_symbol_rejects_repeated_elements(running):
    doubled = [(j, (a, a)) for j in range(1, running.k + 1) for a in running.set_of(j)]
    assert len(doubled) == 11
    for j, alpha in doubled:
        with pytest.raises(SymbolNotInComplex, match="repeats an element"):
            face_of_symbol(running, j, alpha)


@pytest.mark.parametrize(
    "cell",
    [
        ((1,), (2,), (9,)),  # a third block, and 9 outside 1..5
        ((1,), (2, 2)),  # 2 repeated
        ((2,), (1,)),  # blocks out of order
        ((), (1,)),  # an empty block
    ],
)
def test_symbol_of_face_rejects_non_cells(running, cell):
    with pytest.raises(SymbolNotInComplex) as err:
        symbol_of_face(running, cell)
    assert str(err.value) == (
        "%s is not a cell: blocks must be nonempty and strictly increasing "
        "inside 1..5" % (cell,)
    )


# -- A-partition, T, c --------------------------------------------------------


def test_partition_A_running(running):
    tset = CRule(running).tset
    j6 = running.index_of(parse_monomial("x3*x5", n=5))
    assert partition_A(running, j6) == ((1, 2), ())
    assert tset(j6, (1, 2)) == (2,)
    j5 = running.index_of(parse_monomial("x2*x5", n=5))
    assert partition_A(running, j5) == ((1,), (3,))
    assert tset(j5, (1, 3)) == (1, 3)
    j7 = running.index_of(parse_monomial("x4*x5", n=5))
    assert partition_A(running, j7) == ((1, 2, 3), ())
    assert tset(j7, (1, 2, 3)) == (3,)


def test_crule_tset_is_blockwise_maxima(cointerval_items):
    # T(alpha): the largest element of alpha in each A-block it meets
    for item in cointerval_items[::7]:
        ideal = item.ideal
        rule = CRule(ideal)
        for j in range(1, ideal.k + 1):
            blocks = partition_A(ideal, j)
            for size in range(len(ideal.set_of(j)) + 1):
                for alpha in combinations(ideal.set_of(j), size):
                    hits = [set(b) & set(alpha) for b in blocks]
                    want = tuple(sorted(max(h) for h in hits if h))
                    assert tuple(rule.tset(j, alpha)) == want, (item.name, j, alpha)


def test_decomp_c_values(running):
    m = parse_monomial("x4*x5", n=5)
    assert decomp_c(running, m, 3) == parse_monomial("x3*x5", n=5)
    m = parse_monomial("x2*x5", n=5)
    assert decomp_c(running, m, 1) == parse_monomial("x1*x5", n=5)
    # b picks x1x2 here, so c differs from b
    assert b_of(running, m.times_var(1)) == parse_monomial("x1*x2", n=5)


def test_decomp_c_requires_membership(running):
    with pytest.raises(NotInSet):
        decomp_c(running, parse_monomial("x1*x2", n=5), 1)


def test_c_noncommutation_on_complete_3_graph():
    ideal = edge_ideal(complete_graph(3, 5))
    m = parse_monomial("x3*x4*x5", n=5)
    j = ideal.index_of(m)
    assert set(ideal.set_of(j)) >= {1, 2}
    c1 = decomp_c(ideal, m, 1)
    left = decomp_c(ideal, c1, 2)
    c2 = decomp_c(ideal, m, 2)
    right = decomp_c(ideal, c2, 1)
    assert c1 == parse_monomial("x1*x4*x5", n=5)
    assert left == parse_monomial("x1*x2*x5", n=5)
    assert right == parse_monomial("x1*x4*x5", n=5)
    assert left != right


def test_c_same_block_absorption(running):
    # for s < t in the same block, c(x_s c(x_t m)) = c(x_s m)
    rule = CRule(running)
    for j in range(1, running.k + 1):
        blocks = partition_A(running, j)
        for block in blocks:
            for s, t in combinations(block, 2):
                g = rule.apply(j, t)
                assert rule.apply(g, s) == rule.apply(j, s)


# -- the resolution -----------------------------------------------------------


def test_homcone_ranks_and_checks(running):
    cx = homcone_resolution(running)
    assert cx.ranks() == (1, 7, 11, 6, 1)
    cx.validate()
    ok, witness = check_dd_zero(cx)
    assert ok, witness
    assert check_minimal(cx)
    ht = ht_resolution(running)
    assert cx.ranks() == ht.ranks()
    assert cx.betti_by_multidegree() == ht.betti_by_multidegree()


def test_homcone_differential_row(running):
    cx = homcone_resolution(running)
    j6 = running.index_of(parse_monomial("x3*x5", n=5))
    j5 = running.index_of(parse_monomial("x2*x5", n=5))
    col = cx.index[3][Symbol(j6, (1, 2))]
    entries = {
        cx.basis[2][r]: (s, str(m))
        for (r, c), (s, m) in cx.diff[3].items()
        if c == col
    }
    assert entries == {
        Symbol(j6, (2,)): (-1, "x1"),
        Symbol(j6, (1,)): (1, "x2"),
        Symbol(j5, (1,)): (-1, "x3"),
    }


def test_homcone_requires_cointerval(example1):
    with pytest.raises(NotCointerval):
        homcone_resolution(example1)
    with pytest.raises(NotCointerval):
        homcone_resolution(parse_ideal("x1*x2, x3*x4"))


def test_crule_refuses_an_undefined_c_as_not_cointerval():
    # c(x_t m_2) needs a support variable of m_2 at or above x_t
    for text, t in (("x5, x3, x1", 5), ("x1*x2, x1^2", 2)):
        with pytest.raises(NotCointerval, match="of m_2 lies at or above x_%d" % t):
            CRule(parse_ideal(text))
    ideals = [item.ideal for item in gen_corpus()]
    ideals += random_linear_quotient_ideals(800, seed=1)
    outcomes = set()
    for ideal in ideals:
        if not ideal.has_linear_quotients():
            continue
        try:
            CRule(ideal)
            outcomes.add("built")
        except (NotCointerval, VerificationError) as e:
            # VerificationError: partition_A's A-blocks miss set(m_j)
            outcomes.add(type(e).__name__)
    assert outcomes == {"built", "NotCointerval", "VerificationError"}


def test_hom_chain_complex_matches_homcone(running):
    X = build_hom_complex(running_graph())
    cellular = hom_chain_complex(X, running)
    cellular.validate()
    algebraic = homcone_resolution(running)
    ok, why = compare_up_to_degree_signs(cellular, algebraic)
    assert ok, why


def test_c_rule_top_cell(running):
    j7 = running.index_of(parse_monomial("x4*x5", n=5))
    cell = build_ek_cw(running, CRule(running)).cells[(j7, (1, 2, 3))]
    # single descending chain: the tetrahedron on x4x5, x3x5, x2x5, x1x5
    assert len(cell.simplices) == 1
    assert cell.vertex_set() == {
        running.index_of(parse_monomial(s, n=5))
        for s in ("x4*x5", "x3*x5", "x2*x5", "x1*x5")
    }


def test_c_realizes_hom_running(running):
    assert c_realizes_hom(running) == (True, None)


def test_c_realizes_hom_on_cointerval_corpus_sample(cointerval_items):
    for item in cointerval_items[::7]:
        assert c_realizes_hom(item.ideal) == (True, None), item.name


def test_c_realizes_hom_rejects_rule_b(monkeypatch, running):
    monkeypatch.setattr(cointerval, "CRule", BRule)
    assert c_realizes_hom(running) == (False, "supports differ in degree 2")


def test_c_realizes_hom_checks_cell_vertices(monkeypatch, running):
    # the same faces with the two blocks' vertices shifted: the glued
    # cells no longer span the product vertices
    real = cointerval.face_of_symbol

    def shifted(ideal, j, alpha):
        return tuple(tuple(v + 1 for v in block) for block in real(ideal, j, alpha))

    monkeypatch.setattr(cointerval, "face_of_symbol", shifted)
    ok, why = c_realizes_hom(running)
    assert not ok
    assert why.startswith("cell (m_1; ()) does not span the product cell")


def test_c_realizes_hom_requires_cointerval(example1):
    with pytest.raises(NotCointerval):
        c_realizes_hom(example1)
    with pytest.raises(NotCointerval):
        c_realizes_hom(parse_ideal("x1*x2, x3*x4"))


def test_homcone_is_an_iterated_cone(running):
    # the c-rule chain maps commute, so building generator by generator
    # through explicit mapping cones reproduces the resolution exactly
    from cellres.chain import iterated_cone_resolution
    from cellres.corpus import cointerval_corpus

    direct = homcone_resolution(running)
    cones = iterated_cone_resolution(running, CRule(running))
    assert direct.basis == cones.basis and direct.diff == cones.diff
    for item in cointerval_corpus(max_d=2, max_n=4):
        d = homcone_resolution(item.ideal)
        c = iterated_cone_resolution(item.ideal, CRule(item.ideal))
        assert d.basis == c.basis and d.diff == c.diff
