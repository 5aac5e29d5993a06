"""One labeled cell complex: the EK and hom complexes are
LabeledCellComplexes, every complex lists its cells by (dim, key), and
the incidence coefficients they store are the quotients of the labels."""

from itertools import combinations

import pytest

from cellres.betti import LabeledCellComplex, TaylorSupport
from cellres.chain import Symbol, cell_chain_complex, compare_up_to_degree_signs
from cellres.cointerval import (
    DGraph,
    HomComplex,
    dgraph_of_ideal,
    edge_ideal,
    hom_chain_complex,
    homcone_resolution,
    symbol_of_face,
)
from cellres.corpus import gen_corpus
from cellres.ekcells import CWComplexEK, build_ek_cw
from cellres.ideals import check_regularity, parse_ideal
from cellres.monomial import Monomial, parse_monomial


def _listed(X):
    return [(key, dim) for key, dim, _ in X.cells_with_labels()]


def _assert_dim_key_order(X):
    listed = _listed(X)
    assert listed == sorted(listed, key=lambda cell: (cell[1], cell[0]))
    assert len(set(listed)) == len(listed)
    counts = {}
    for _, dim in listed:
        counts[dim] = counts.get(dim, 0) + 1
    return counts


def test_ek_and_hom_complexes_are_labeled_cell_complexes():
    for cls in (CWComplexEK, HomComplex):
        assert issubclass(cls, LabeledCellComplex)
        for name in ("label", "cells_with_labels", "topo_boundary", "f_vector"):
            assert name not in vars(cls), (cls.__name__, name)


def test_cells_are_listed_by_dim_then_key(running, example1, maximal4):
    complexes = [build_ek_cw(ideal) for ideal in (running, example1, maximal4)]
    complexes.append(HomComplex(dgraph_of_ideal(running), running.n))
    complexes.append(HomComplex(dgraph_of_ideal(parse_ideal("x1*x2*x3, x1*x2*x4"))))
    for X in complexes:
        counts = _assert_dim_key_order(X)
        top = max(counts)
        assert X.f_vector() == tuple(counts.get(i, 0) for i in range(top + 1))
    # by key alone, the edge (2, (2,)) of the running example would come
    # before the vertex (3, ())
    assert _listed(complexes[0])[: running.k] == [((j, ()), 0) for j in range(1, 8)]


def test_labeled_cell_complex_and_taylor_support_order():
    lab = lambda s: parse_monomial(s, n=3)
    X = LabeledCellComplex(
        {
            "t": (2, lab("x1*x2*x3")),
            "a": (1, lab("x1*x2")),
            "c": (0, lab("x3")),
            "b": (1, lab("x1*x3")),
            "z": (0, lab("x1")),
            "y": (0, lab("x2")),
        },
        {"a": [("z", 1), ("y", -1)]},
    )
    assert _listed(X) == [
        ("c", 0), ("y", 0), ("z", 0), ("a", 1), ("b", 1), ("t", 2)
    ]
    assert X.f_vector() == (3, 2, 1)
    assert X.topo_boundary("a") == (("z", 1), ("y", -1))
    assert X.topo_boundary("c") == ()
    counts = _assert_dim_key_order(TaylorSupport(parse_ideal("x1*x2, x2*x3, x3*x4, x1*x4")))
    assert counts == {0: 4, 1: 6, 2: 4, 3: 1}


# -- incidence coefficients ----------------------------------------------------


def _ladder_ideals():
    """The inputs of `cellres verify` in the ladder benchmark: K2 on [7]
    and [8], K3 on [7], and the maximal ideals with 7 and 8 generators."""
    graphs = [
        DGraph.from_edges(d, combinations(range(1, n + 1), d))
        for d, n in ((2, 7), (2, 8), (3, 7))
    ]
    ideals = [edge_ideal(g) for g in graphs]
    return ideals + [parse_ideal(", ".join("x%d" % i for i in range(1, k + 1))) for k in (7, 8)]


def _complexes(ideal, cointerval):
    """(complex, name_of) for the EK complex of b and the hom complex, where
    each exists."""
    out = []
    if ideal.has_linear_quotients() and check_regularity(ideal).regular:
        out.append((build_ek_cw(ideal), lambda key: Symbol(*key)))
    if cointerval:
        H = HomComplex(dgraph_of_ideal(ideal), ideal.n)
        out.append((H, lambda cell, ideal=ideal: symbol_of_face(ideal, cell)))
    return out


@pytest.fixture(scope="module")
def coefficient_cases():
    cases = [
        (item.ideal, bool(item.tags.get("cointerval"))) for item in gen_corpus()[::5]
    ]
    cases += [(ideal, True) for ideal in _ladder_ideals()]
    return cases


def test_stored_coefficients_are_label_quotients(coefficient_cases):
    entries = {CWComplexEK: 0, HomComplex: 0}
    for ideal, cointerval in coefficient_cases:
        for X, _ in _complexes(ideal, cointerval):
            assert X._coefficients is not None
            for cell, _, label in X.cells_with_labels():
                faces = X.topo_boundary(cell)
                coefficients = X.coefficients(cell)
                assert len(coefficients) == len(faces)
                for (face, _), coeff in zip(faces, coefficients):
                    assert coeff == label // X.label(face), (ideal, cell, face)
                entries[type(X)] += len(faces)
    assert min(entries.values()) > 20000, entries


def test_a_copy_without_the_table_gives_the_same_chain_complex(coefficient_cases):
    for ideal, cointerval in coefficient_cases[::4]:
        for X, name_of in _complexes(ideal, cointerval):
            bare = LabeledCellComplex(
                {key: (dim, label) for key, dim, label in X.cells_with_labels()},
                X.boundary,
            )
            assert bare._coefficients is None
            want = cell_chain_complex(X, ideal, name_of)
            got = cell_chain_complex(bare, ideal, name_of)
            assert got.basis == want.basis and got.mdeg == want.mdeg
            assert got.diff == want.diff


def test_a_wrong_stored_coefficient_fails_the_comparison(running, monkeypatch):
    H = HomComplex(dgraph_of_ideal(running), running.n)
    algebraic = homcone_resolution(running)
    assert compare_up_to_degree_signs(hom_chain_complex(H, running), algebraic)[0]
    cell = next(cell for cell in H.cells if H.topo_boundary(cell))
    right = H.coefficients(cell)
    wrong = next(
        Monomial.variable(v, running.n)
        for v in range(1, running.n + 1)
        if Monomial.variable(v, running.n) != right[0]
    )
    monkeypatch.setitem(H._coefficients, cell, (wrong,) + right[1:])
    ok, why = compare_up_to_degree_signs(hom_chain_complex(H, running), algebraic)
    assert not ok
    assert why.startswith("coefficients differ")
