from itertools import combinations, permutations

import pytest

import reference
from cellres import ekcells
from cellres.chain import (
    TableRule,
    check_dd_zero,
    check_minimal,
    compare_up_to_degree_signs,
    ht_resolution,
)
from cellres.ekcells import (
    GlueCell,
    affinely_independent,
    build_cell,
    build_ek_cw,
    cell_is_ball,
    cell_label,
    cellular_chain_complex,
    ch_simplex,
    classify_facet,
    nondegenerate_lift,
    orientation_sign,
)
from cellres.errors import (
    AlphaNotInSet,
    DegenerateChain,
    NotDegenerate,
    OrientationClash,
    VerificationError,
)
from cellres.ideals import parse_ideal
from cellres.monomial import parse_monomial


def gen_index(ideal, text):
    return ideal.index_of(parse_monomial(text, n=ideal.n))


# -- chains ---------------------------------------------------------------


def test_ch_simplex_degenerate_and_not(example1):
    j = gen_index(example1, "x1*x4*x5")
    # applying x3 first stalls at x1x3x4
    chain = ch_simplex(example1, j, (2, 3), (3, 2))
    assert chain.degenerate
    names = [str(example1.gen(v)) for v in chain.vertices]
    assert names == ["x1*x4*x5", "x1*x3*x4", "x1*x3*x4"]
    # applying x2 first walks x1x4x5 -> x1x2x4 -> x1x3x4
    chain = ch_simplex(example1, j, (2, 3), (2, 3))
    assert not chain.degenerate
    names = [str(example1.gen(v)) for v in chain.vertices]
    assert names == ["x1*x4*x5", "x1*x2*x4", "x1*x3*x4"]


def test_ch_simplex_empty_alpha(example1):
    chain = ch_simplex(example1, 3, (), ())
    assert chain.vertices == (3,) and not chain.degenerate


def test_ch_simplex_alpha_not_in_set(example1):
    with pytest.raises(AlphaNotInSet):
        ch_simplex(example1, 1, (2,), (2,))


def test_nondegenerate_lift_example(example1):
    j = gen_index(example1, "x1*x4*x5")
    lifted = nondegenerate_lift(example1, j, (2, 3), (3, 2))
    assert lifted == (2, 3)
    with pytest.raises(NotDegenerate):
        nondegenerate_lift(example1, j, (2, 3), (2, 3))


def test_nondegenerate_lift_exhaustive(example1, running):
    # every degenerate chain lifts, and its vertices embed in the lift
    for ideal in (example1, running):
        for j in range(1, ideal.k + 1):
            s = ideal.set_of(j)
            for size in range(1, len(s) + 1):
                from itertools import combinations

                for alpha in combinations(s, size):
                    for sigma in permutations(alpha):
                        chain = ch_simplex(ideal, j, alpha, sigma)
                        if chain.degenerate:
                            sig2 = nondegenerate_lift(ideal, j, alpha, sigma)
                            lifted = ch_simplex(ideal, j, alpha, sig2)
                            assert not lifted.degenerate


# -- orientation ----------------------------------------------------------


def test_orientation_sign_basics():
    assert orientation_sign((1, 2)) == 1
    assert orientation_sign((2, 1)) == -1
    assert orientation_sign(()) == 1
    assert orientation_sign((5,)) == 1
    for sigma in permutations((1, 2, 3)):
        flipped = (sigma[1], sigma[0], sigma[2])
        assert orientation_sign(sigma) == -orientation_sign(flipped)


def test_orientation_sign_is_the_rank_table_sign():
    values = (2, 3, 5, 8, 13, 21)
    checked = 0
    for size in range(len(values) + 1):
        for subset in combinations(values, size):
            for sigma in permutations(subset):
                p = len(sigma)
                want = reference.orientation_sign(sigma) * (-1) ** (p * (p - 1) // 2)
                assert orientation_sign(sigma) == want
                checked += 1
    assert checked == 1957


# -- facet classification ---------------------------------------------------


def test_classify_facet_paper_case(example1):
    j = gen_index(example1, "x1*x4*x5")
    chain = ch_simplex(example1, j, (2, 3), (2, 3))
    # dropping the middle vertex: set(b(x3 x1x4x5)) = set(x1x3x4) = {} so
    # the facet is exterior
    assert classify_facet(example1, chain, 1).kind == "exterior"
    # dropping the source vertex is always exterior
    assert classify_facet(example1, chain, 0).kind == "exterior"
    assert classify_facet(example1, chain, 2).kind == "exterior"


def test_classify_facet_interior_with_partner(running):
    j = gen_index(running, "x4*x5")
    chain = ch_simplex(running, j, (1, 2, 3), (3, 2, 1))
    fc = classify_facet(running, chain, 1)
    assert fc.kind == "interior"
    assert fc.partner == (2, 3, 1)
    partner_chain = ch_simplex(running, j, (1, 2, 3), fc.partner)
    assert not partner_chain.degenerate
    dropped = chain.vertices[:1] + chain.vertices[2:]
    assert dropped == partner_chain.vertices[:1] + partner_chain.vertices[2:]


def test_classify_facet_rejects_degenerate(example1):
    j = gen_index(example1, "x1*x4*x5")
    chain = ch_simplex(example1, j, (2, 3), (3, 2))
    with pytest.raises(DegenerateChain):
        classify_facet(example1, chain, 1)


def test_classify_facet_matches_brute_force(example1, running):
    # interior iff exactly two nondegenerate simplices of the cell contain
    # the facet, exterior iff exactly one
    from itertools import combinations

    for ideal in (example1, running):
        for j in range(1, ideal.k + 1):
            s = ideal.set_of(j)
            for size in range(1, len(s) + 1):
                for alpha in combinations(s, size):
                    cell = build_cell(ideal, j, alpha)
                    for chain in cell.simplices:
                        for drop in range(len(chain.vertices)):
                            facet = set(
                                chain.vertices[:drop] + chain.vertices[drop + 1 :]
                            )
                            count = sum(
                                1
                                for other in cell.simplices
                                if facet <= set(other.vertices)
                            )
                            fc = classify_facet(ideal, chain, drop)
                            assert count == (2 if fc.kind == "interior" else 1)


# -- glued cells -----------------------------------------------------------


def test_build_cell_one_triangle(example1):
    j = gen_index(example1, "x1*x4*x5")
    cell = build_cell(example1, j, (2, 3))
    assert len(cell.simplices) == 1
    assert cell.dim == 2


def test_build_cell_vertex(example1):
    cell = build_cell(example1, 2, ())
    assert cell.dim == 0 and len(cell.simplices) == 1


def test_build_cell_quadrilateral(example1):
    # U(x2x3x5, {1,4}) glues two triangles along an interior edge
    j = gen_index(example1, "x2*x3*x5")
    cell = build_cell(example1, j, (1, 4))
    assert len(cell.simplices) == 2


def test_build_cell_refuses_alpha_outside_set(example1):
    # refused before any order is walked, also where no order would survive
    for j, alpha in ((1, (2,)), (5, (1, 3))):
        with pytest.raises(AlphaNotInSet, match="not inside set"):
            build_cell(example1, j, alpha)


def test_a_step_to_a_later_generator_is_refused_where_it_is_walked(running):
    # m_6 = x3*x5 divides x_3 m_3 = x1*x3*x5; the b table sends it to m_2
    table = dict(running.b_table())
    table[(3, 3)] = 6
    with pytest.raises(VerificationError) as err:
        build_ek_cw(running, TableRule(running, table))
    assert type(err.value) is VerificationError
    assert str(err.value) == "x_3 m_3 steps to the later generator m_6"


def test_build_cell_solid_3cell(running):
    j = gen_index(running, "x4*x5")
    cell = build_cell(running, j, (1, 2, 3))
    assert cell.dim == 3
    assert len(cell.simplices) >= 2
    for chain in cell.simplices:
        pts = [running.gen(v).e for v in chain.vertices]
        assert affinely_independent(pts)


def test_affine_independence_on_all_chains(example1, running):
    from itertools import combinations

    for ideal in (example1, running):
        for j in range(1, ideal.k + 1):
            s = ideal.set_of(j)
            for size in range(1, len(s) + 1):
                for alpha in combinations(s, size):
                    for chain in build_cell(ideal, j, alpha).simplices:
                        pts = [ideal.gen(v).e for v in chain.vertices]
                        assert affinely_independent(pts)


def test_affinely_independent_basics():
    assert affinely_independent([(0, 0), (1, 0), (0, 1)])
    assert not affinely_independent([(0, 0), (1, 1), (2, 2)])
    assert not affinely_independent([(1, 2), (1, 2)])
    assert affinely_independent([(5, 5)])


# -- cell boundaries ---------------------------------------------------------


def test_segment_boundary(example1):
    j = gen_index(example1, "x1*x3*x5")
    X = build_ek_cw(example1)
    targets = dict(X.topo_boundary((j, (4,))))
    b = example1.decomp_b(example1.gen(j).times_var(4))
    assert set(targets) == {(b, ()), (j, ())}
    assert targets[(b, ())] == -targets[(j, ())]


def test_triangle_boundary_coefficients(example1):
    j = gen_index(example1, "x1*x4*x5")
    X = build_ek_cw(example1)
    key = (j, (2, 3))
    by_target = {
        t: (s, X.label(key) // X.label(t)) for t, s in X.topo_boundary(key)
    }
    m3 = gen_index(example1, "x1*x2*x4")
    assert set(by_target) == {(j, (2,)), (j, (3,)), (m3, (3,))}
    assert str(by_target[(m3, (3,))][1]) == "x5"
    assert str(by_target[(j, (3,))][1]) == "x2"
    assert str(by_target[(j, (2,))][1]) == "x3"


def test_boundary_of_boundary_zero(running):
    X = build_ek_cw(running)
    cx = cellular_chain_complex(X)
    ok, witness = check_dd_zero(cx)
    assert ok, witness


# -- the assembled complex ---------------------------------------------------


def test_f_vector_running(running):
    X = build_ek_cw(running)
    assert X.f_vector() == (7, 11, 6, 1)


def test_f_vector_example1(example1):
    X = build_ek_cw(example1)
    assert X.f_vector() == (6, 7, 2)


def test_f_vector_maximal(maximal4):
    X = build_ek_cw(maximal4)
    assert X.f_vector() == (4, 6, 4, 1)


def test_cellular_equals_algebraic(example1, running, maximal4):
    for ideal in (example1, running, maximal4):
        X = build_ek_cw(ideal)
        cell_cx = cellular_chain_complex(X)
        cell_cx.validate()
        alg = ht_resolution(ideal)
        ok, why = compare_up_to_degree_signs(cell_cx, alg)
        assert ok, why
        assert check_minimal(cell_cx)


def test_labels_monotone(running):
    X = build_ek_cw(running)
    for key, entries in X.boundary.items():
        for target, _ in entries:
            assert X.label(target).divides(X.label(key))


def test_boundary_labels_must_properly_divide(running, monkeypatch):
    original = ekcells._boundary_from_cell

    def with_extra_face(extra):
        def boundary(cell, cache):
            out = original(cell, cache)
            return out + [(extra(cell.key), 1)] if cell.alpha else out

        return boundary

    # the cell itself as a face: equal labels, a unit coefficient
    itself = with_extra_face(lambda key: key)
    monkeypatch.setattr(ekcells, "_boundary_from_cell", itself)
    with pytest.raises(VerificationError, match="unit coefficient"):
        build_ek_cw(running)

    def stranger(key):
        label = cell_label(running, *key)
        return next(
            (g, ())
            for g in range(1, running.k + 1)
            if not running.gen(g).divides(label)
        )

    monkeypatch.setattr(ekcells, "_boundary_from_cell", with_extra_face(stranger))
    with pytest.raises(VerificationError, match="does not divide"):
        build_ek_cw(running)


def test_a_vertex_off_the_label_is_refused():
    # x_1 m_3 = x1*x3 goes to m_2 = x2, which does not divide it: the
    # edge of U(m_3, {1}) runs from x3 to x2, and its vertices' lcm
    # x2*x3 misses the label x1*x3
    ideal = parse_ideal("x1, x2, x3")
    table = dict(ideal.b_table())
    table[(3, 1)] = 2
    with pytest.raises(VerificationError) as err:
        TableRule(ideal, table)
    assert str(err.value) == "x_1 m_3 steps to m_2, which does not divide it"
    with pytest.raises(VerificationError) as err:
        build_ek_cw(ideal, reference.UncheckedRule(table))
    assert str(err.value) == "label of U(3, (1,)) is not the lcm of its vertices"


def _mask(vertices):
    return sum(1 << v for v in vertices)


def _face_and_cell(*facets):
    """A 1-cell U(m_4, {1}) glued from the two edges (4, 2) and (3, 2),
    and a 2-cell U(m_4, {1, 2}) over it with the given surviving facets,
    each dropping the last vertex of the order (1, 2), so that each names
    the face (m_4, {1})."""
    edges = tuple(((1,), v) for v in ((4, 2), (3, 2)))
    signs = {_mask(v): 1 for _, v in edges}
    face = GlueCell(4, (1,), edges, signs, (), _mask((4, 3, 2)))
    survivors = sorted((_mask(f), c, (1, 2), 2) for f, c in facets)
    cell = GlueCell(4, (1, 2), (), {}, tuple(survivors), 0)
    return cell, {face.key: face, cell.key: cell}


def test_a_boundary_must_cover_its_face():
    cell, cache = _face_and_cell(((4, 2), 1))
    with pytest.raises(VerificationError) as err:
        ekcells._boundary_from_cell(cell, cache)
    assert str(err.value) == "boundary of U(4, (1, 2)) covers only part of U(4, (1,))"
    cell, cache = _face_and_cell(((4, 2), 1), ((3, 2), 1))
    assert ekcells._boundary_from_cell(cell, cache) == [((4, (1,)), 1)]


def test_a_facet_off_its_face_is_named_by_its_vertices():
    cell, cache = _face_and_cell(((4, 2), 1), ((4, 1), 1))
    with pytest.raises(VerificationError) as err:
        ekcells._boundary_from_cell(cell, cache)
    assert str(err.value) == "facet (4, 1) is not a chain of (m_4, (1,))"
    del cache[(4, (1,))]
    with pytest.raises(VerificationError) as err:
        ekcells._boundary_from_cell(cell, cache)
    assert str(err.value) == "facet (4, 1) wants the non-cell (m_4, (1,))"


def test_a_face_met_with_two_signs_is_refused():
    cell, cache = _face_and_cell(((4, 2), 1), ((3, 2), -1))
    with pytest.raises(OrientationClash) as err:
        ekcells._boundary_from_cell(cell, cache)
    assert str(err.value) == "incoherent incidence of U(4, (1,)) under U(4, (1, 2))"


class _Listed:
    """A stand-in rule that lists the given (sigma, vertices) pairs."""

    def __init__(self, pairs):
        self.pairs = pairs

    def permutations(self, j, alpha):
        return iter(self.pairs)


def test_the_first_clashing_facet_met_is_named(running):
    # the edges of (7, 4, 2), listed twice, do not cancel, and those of
    # (7, 3, 1), listed three times, lie in three simplices; the facet
    # named is the first met, chains in the rule's order and the facets of
    # each by dropped position: (4, 2), or (3, 1) when its chains lead,
    # though (3, 1) is the least tuple of all six either way
    twice, thrice = [((1, 2), (7, 4, 2))] * 2, [((2, 1), (7, 3, 1))] * 3
    with pytest.raises(OrientationClash) as err:
        build_cell(running, 7, (1, 2), _Listed(twice + thrice))
    assert str(err.value) == "interior facet (4, 2) of U(m_7,(1, 2)) does not cancel"
    with pytest.raises(OrientationClash) as err:
        build_cell(running, 7, (1, 2), _Listed(thrice + twice))
    assert str(err.value) == "facet (3, 1) lies in 3 simplices of U(m_7,(1, 2))"


def test_labels_are_cached(running):
    X = build_ek_cw(running)
    for key, _, label in X.cells_with_labels():
        assert label == cell_label(running, key[0], key[1])
        assert X.label(key) is label


def test_cells_are_balls(example1, running, maximal4):
    for ideal in (example1, running, maximal4):
        X = build_ek_cw(ideal)
        for cell in X.cells.values():
            if cell.dim <= 3:
                assert cell_is_ball(cell), cell.key


MOBIUS = ((1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 1), (5, 1, 2))
ANNULUS = ((1, 2, 4), (2, 4, 5), (2, 3, 5), (3, 5, 6), (3, 1, 6), (1, 6, 4))
TETRAHEDRON_BOUNDARY = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))


def _glued(dim, *vertex_tuples):
    alpha = tuple(range(1, dim + 1))
    chains = tuple((alpha, v) for v in vertex_tuples)
    return GlueCell(1, alpha, chains, {}, (), _mask({v for t in vertex_tuples for v in t}))


@pytest.mark.parametrize(
    "cell",
    [
        _glued(2, (1, 2, 3), (1, 4, 5)),  # two triangles on one vertex
        _glued(2, (1, 2, 3), (1, 2, 4), (1, 2, 5)),  # three on one edge
        _glued(1, (1, 2), (3, 4)),  # two disjoint edges
        _glued(2, (1, 2, 2)),  # one simplex with a repeated vertex
        _glued(2, *MOBIUS),
        _glued(2, *ANNULUS),
        _glued(2, *TETRAHEDRON_BOUNDARY),  # no boundary facet
        _glued(2, (1, 2, 3), (3, 2, 1)),  # two simplices on one vertex set
    ],
)
def test_cell_is_ball_negative_controls(cell):
    assert not cell_is_ball(cell)


@pytest.mark.parametrize("tops", [MOBIUS, ANNULUS])
def test_greedy_stall_falls_back_to_homology(tops):
    # pseudomanifolds with boundary that are no balls: the refusals pass
    # them, no greedy shelling exists, and the homology certificate refuses
    tops = [frozenset(t) for t in tops]
    assert ekcells._boundary_facets(tops, 2)
    assert ekcells._greedy_shelling(tops) is None
    assert not ekcells._homology_ball(tops, 2)


@pytest.mark.parametrize(
    "cell",
    [
        _glued(2, (1, 2, 3), (3, 2, 1), (1, 4, 5)),  # two simplices on {1, 2, 3}
        _glued(2, (1, 2, 2, 3)),  # four vertices, one repeated, in a 2-cell
    ],
)
def test_malformed_cells_the_homology_certificate_accepts_are_refused(cell):
    # read as vertex sets, the first is two triangles joined at a vertex,
    # which the homology certificate accepts, and the second a triangle;
    # only the refusals catch them
    tops = [frozenset(s.vertices) for s in cell.simplices]
    assert len(tops) == 1 or ekcells._homology_ball(tops, 2)
    assert not cell_is_ball(cell)


def test_a_shellable_sphere_is_refused_for_want_of_boundary():
    tops = [frozenset(t) for t in TETRAHEDRON_BOUNDARY]
    assert ekcells._greedy_shelling(tops) is not None
    assert ekcells._boundary_facets(tops, 2) == []
