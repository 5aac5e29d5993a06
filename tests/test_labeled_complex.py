"""One labeled cell complex: the EK and hom complexes are
LabeledCellComplexes, and every complex lists its cells by (dim, key)."""

from cellres.betti import LabeledCellComplex, TaylorSupport
from cellres.cointerval import HomComplex, dgraph_of_ideal
from cellres.ekcells import CWComplexEK, build_ek_cw
from cellres.ideals import parse_ideal
from cellres.monomial import parse_monomial


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
