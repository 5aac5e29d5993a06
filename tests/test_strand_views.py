"""Strand checks on one indexed complex against the per-strand rebuild they
replace, kept here as the reference; the indexed collapse's guards; and
the corpus's 2-graph block against the brute force it replaced."""

import random
import subprocess
import sys
from collections import defaultdict
from itertools import combinations

import pytest

from cellres.betti import (
    LabeledCellComplex,
    _strands,
    check_cellular_resolution,
    lcm_lattice,
)
from cellres.cointerval import (
    DGraph,
    build_hom_complex,
    dgraph_of_ideal,
    edge_ideal,
    is_cointerval,
)
from cellres.corpus import cointerval_corpus, example_corpus, gen_corpus, stable_corpus
from cellres.ekcells import _simplicial_chain_data, build_ek_cw
from cellres.errors import NonMonotoneLabels, VerificationError
from cellres.exact import _collapse, bareiss_rank, homology_ranks, is_exact
from cellres.ideals import check_regularity, parse_ideal
from cellres.monomial import Monomial, parse_monomial
from reference import chain_data


# -- the per-strand rebuild, as it was -----------------------------------------


def _strand_chain(cells, boundaries, member):
    cells_by_deg = defaultdict(list)
    boundary = {}
    aug = ("",)
    cells_by_deg[-1].append(aug)
    for (key, dim, _), bit in zip(cells, bin(member)[:1:-1]):
        if bit == "0":
            continue
        cells_by_deg[dim].append(key)
        if dim == 0:
            boundary[key] = {aug: 1}
        else:
            boundary[key] = boundaries[key]
    return chain_data(cells_by_deg, boundary)


def _reference_check(X, ideal):
    cells = list(X.cells_with_labels())
    labels = {key: label for key, _, label in cells}
    boundaries = {}
    for key, dim, label in cells:
        faces = {}
        for face, sign in X.topo_boundary(key):
            if face not in labels:
                raise NonMonotoneLabels(face)
            if not labels[face].divides(label):
                raise NonMonotoneLabels(face)
            faces[face] = sign
        boundaries[key] = faces
    vertex_labels = sorted(label.e for key, dim, label in cells if dim == 0)
    if vertex_labels != sorted(g.e for g in ideal.gens):
        return False, Monomial.one(ideal.n)
    strands, _ = _strands([label.e for _, _, label in cells], lcm_lattice(ideal))
    for member in sorted(strands, key=lambda m: (m.bit_count(), str(strands[m]))):
        ok, _ = is_exact(_strand_chain(cells, boundaries, member))
        if not ok:
            return False, strands[member]
    return True, None


def _dense_homology(cells_by_deg, boundary):
    """Homology over Q from the full boundary matrices, without collapse."""
    rank = {}
    for d, cs in cells_by_deg.items():
        lower = cells_by_deg.get(d - 1, [])
        rows = [[boundary.get(c, {}).get(f, 0) for c in cs] for f in lower]
        rank[d] = bareiss_rank(rows) if lower and cs else 0
    h = {}
    for d, cs in cells_by_deg.items():
        hd = len(cs) - rank[d] - rank.get(d + 1, 0)
        if hd:
            h[d] = hd
    return h


def _as_labeled(X, drop=()):
    """X as a LabeledCellComplex, without the cells in `drop`."""
    cells = {key: (dim, label) for key, dim, label in X.cells_with_labels()}
    for key in drop:
        del cells[key]
    boundary = {key: X.topo_boundary(key) for key in cells}
    return LabeledCellComplex(cells, boundary)


@pytest.fixture(scope="module")
def complexes():
    """(name, complex, ideal) for EK and hom complexes of a corpus sample
    and LabeledCellComplex copies of them, some with a top cell removed so
    that a strand fails."""
    items = gen_corpus()
    out = []
    for item in items[::41] + items[-2:]:
        ideal = item.ideal
        if check_regularity(ideal).regular:
            X = build_ek_cw(ideal)
            out.append((item.name + "/ek", X, ideal))
            top = max(X.cells, key=lambda key: (len(key[1]), key))
            out.append((item.name + "/labeled", _as_labeled(X), ideal))
            if top[1]:
                out.append((item.name + "/labeled-minus-top", _as_labeled(X, [top]), ideal))
        if item.tags.get("cointerval"):
            H = build_hom_complex(dgraph_of_ideal(ideal), ideal.n)
            out.append((item.name + "/hom", H, ideal))
    return out


def test_strand_views_match_per_strand_rebuild(complexes):
    kinds = defaultdict(int)
    failures = 0
    for name, X, ideal in complexes:
        got = check_cellular_resolution(X, ideal)
        assert got == _reference_check(X, ideal), name
        kinds[name.rsplit("/", 1)[1]] += 1
        failures += not got[0]
    assert set(kinds) == {"ek", "hom", "labeled", "labeled-minus-top"}
    assert failures >= kinds["labeled-minus-top"] > 5


def _ladder_complexes():
    """EK and hom complexes of the complete 2-graph on [7] and of the
    maximal ideal in 7 variables, where a strand is a small part of the
    complex."""
    K2 = DGraph.from_edges(2, list(combinations(range(1, 8), 2)))
    for name, ideal in (
        ("K2_7", edge_ideal(K2, n=7)),
        ("max7", parse_ideal(", ".join("x%d" % i for i in range(1, 8)))),
    ):
        yield name + "/ek", build_ek_cw(ideal), ideal
        yield name + "/hom", build_hom_complex(dgraph_of_ideal(ideal), ideal.n), ideal


def test_ladder_strands_match_per_strand_rebuild():
    failing = set()
    for name, X, ideal in _ladder_complexes():
        assert check_cellular_resolution(X, ideal) == (True, None), name
        assert _reference_check(X, ideal) == (True, None), name
        # without a top cell some strand fails; both find the same one
        cells = list(X.cells_with_labels())
        top = max(cells, key=lambda cell: (cell[1], cell[0]))[0]
        Y = _as_labeled(X, [top])
        got = check_cellular_resolution(Y, ideal)
        assert got == _reference_check(Y, ideal), name
        assert not got[0], name
        failing.add(got[1])
    # the removed cell's label, x1*...*x7 in every one of the four
    assert failing == {Monomial((1,) * 7)}


def _hollow_triangle():
    lab = lambda s: parse_monomial(s, n=3)
    top = lab("x1*x2*x3")
    cells = {
        "v12": (0, lab("x1*x2")),
        "v13": (0, lab("x1*x3")),
        "v23": (0, lab("x2*x3")),
        "e1": (1, top),
        "e2": (1, top),
        "e3": (1, top),
    }
    boundary = {
        "e1": [("v12", 1), ("v13", -1)],
        "e2": [("v12", 1), ("v23", -1)],
        "e3": [("v13", 1), ("v23", -1)],
    }
    return LabeledCellComplex(cells, boundary), top


def test_hollow_triangle_goes_through_the_core():
    X, top = _hollow_triangle()
    ideal = parse_ideal("x1*x2, x1*x3, x2*x3")
    assert check_cellular_resolution(X, ideal) == (False, top)
    # the top strand is the whole circle: no face is free, so the ranks of
    # the core find its reduced H_1
    chain = chain_data(
        {-1: ["-"], 0: ["v12", "v13", "v23"], 1: ["e1", "e2", "e3"]},
        {
            "v12": {"-": 1},
            "v13": {"-": 1},
            "v23": {"-": 1},
            **{key: dict(X.topo_boundary(key)) for key in ("e1", "e2", "e3")},
        },
    )
    strand = chain.restrict(0b1111111)
    assert _collapse(strand) == ([0, 1, 2, 3, 4, 5, 6], 0)
    assert is_exact(strand) == (False, {1: 1})
    # without the third edge (cell 6) the strand is a path, and collapses away
    path = chain.restrict(0b0111111)
    assert _collapse(path) == ([], 6)
    assert is_exact(path) == (True, {})


_DD_NONZERO = """
from cellres.betti import LabeledCellComplex, check_cellular_resolution
from cellres.errors import VerificationError
from cellres.ideals import parse_ideal
from cellres.monomial import parse_monomial

x1 = parse_monomial("x1", n=1)
# d(y) = v and d(v) = the empty cell, so dd(y) != 0
X = LabeledCellComplex(
    {"v": (0, x1), "y": (1, x1), "z": (2, x1)},
    {"y": [("v", 1)], "z": [("y", 2)]},
)
try:
    check_cellular_resolution(X, parse_ideal("x1"))
except VerificationError:
    print("refused")
else:
    print("verified")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_strand_check_refuses_dd_nonzero(flags):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _DD_NONZERO], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "refused"


def test_restrict_requires_closure_under_faces():
    # numbered a = 0, b = 1, e = 2, t = 3; bit i of a mask is cell i
    chain = chain_data(
        {0: ["a", "b"], 1: ["e"], 2: ["t"]},
        {"e": {"a": 1, "b": -1}, "t": {"e": 0}},
    )
    with pytest.raises(VerificationError):
        chain.restrict(0b101)  # a, e
    with pytest.raises(VerificationError):
        chain.restrict(0b100)  # e
    sub = chain.restrict(0b111)
    assert sub.members == [0, 1, 2]
    assert homology_ranks(sub) == {0: 1}
    # a zero coefficient is no face, so t alone is closed
    assert homology_ranks(chain.restrict(0b1000)) == {2: 1}
    # a restriction of a restriction shares the same numbering
    assert chain.restrict(0b1).restrict(0b1).members == [0]
    assert chain.restrict(0).members == []
    for outside in (0b10000, -1):
        with pytest.raises(ValueError):
            chain.restrict(outside)


def _two_vertices():
    """Cells and boundary of an edge e from v1 to v2 labeled for the
    ideal (x1, x2)."""
    lab = lambda s: parse_monomial(s, n=2)
    cells = {"v1": (0, lab("x1")), "v2": (0, lab("x2")), "e": (1, lab("x1*x2"))}
    return cells, {"e": [("v1", 1), ("v2", -1)]}, parse_ideal("x1, x2")


def test_zero_coefficient_face_is_no_face_in_a_strand_check():
    cells, boundary, ideal = _two_vertices()
    top = parse_monomial("x1*x2", n=2)
    # f lists both vertices with coefficient 0, so it is a cycle: H_1 of the
    # top strand is Q
    cells["f"] = (1, top)
    boundary["f"] = [("v1", 0), ("v2", 0)]
    X = LabeledCellComplex(cells, boundary)
    assert check_cellular_resolution(X, ideal) == (False, top)
    # g bounds f; e listed with coefficient 0 is not a face of g, so dd = 0
    cells["g"] = (2, top)
    boundary["g"] = [("f", 1), ("e", 0)]
    X = LabeledCellComplex(cells, boundary)
    assert check_cellular_resolution(X, ideal) == (True, None)


def test_face_two_degrees_down_is_refused_in_a_strand_check():
    cells, boundary, ideal = _two_vertices()
    cells["t"] = (2, parse_monomial("x1*x2", n=2))
    boundary["t"] = [("v1", 1)]
    with pytest.raises(ValueError, match="not one degree lower"):
        check_cellular_resolution(LabeledCellComplex(cells, boundary), ideal)


def test_face_missing_from_the_complex_is_refused_in_a_strand_check():
    cells, boundary, ideal = _two_vertices()
    # e keeps both its vertices, so without the check dd = 0 would hold and
    # the strands would pass
    boundary["e"] = [("v1", 1), ("v2", -1), ("v3", 1)]
    X = LabeledCellComplex(cells, boundary)
    with pytest.raises(NonMonotoneLabels, match="missing from the complex"):
        check_cellular_resolution(X, ideal)


def _facet_families():
    yield [(0, 1, 2, 3)]
    yield [f for f in combinations(range(5), 4)]  # the 3-sphere's boundary
    yield [(0, 1), (1, 2), (2, 0)]
    yield [(0,), (1,), (2, 3)]
    # the 6-vertex real projective plane: H_1 = Z/2, so Q sees nothing
    yield [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
    ]
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(3, 7)
        yield [
            tuple(rng.sample(range(n), rng.randint(1, min(n, 4))))
            for _ in range(rng.randint(1, 6))
        ]


@pytest.mark.parametrize("facets", list(_facet_families()))
def test_homology_ranks_match_dense_reference(facets):
    chain = _simplicial_chain_data(facets)
    cells_by_deg = defaultdict(list)
    for c, d in enumerate(chain.deg):
        cells_by_deg[d].append(c)
    boundary = dict(enumerate(chain.faces))
    want = _dense_homology(dict(cells_by_deg), boundary)
    assert homology_ranks(chain) == want
    assert is_exact(chain) == (not want, want)


def test_is_exact_without_prime_is_exact_q_only(complexes):
    """is_exact is (not h, h) for h = homology_ranks on every strand of a
    corpus sample and on simplicial complexes, some not exact."""
    chains = []
    for _, X, ideal in complexes:
        cells = list(X.cells_with_labels())
        boundaries = {key: dict(X.topo_boundary(key)) for key, _, _ in cells}
        strands, _ = _strands([label.e for _, _, label in cells], lcm_lattice(ideal))
        chains += [_strand_chain(cells, boundaries, member) for member in strands]
    chains += [_simplicial_chain_data(facets) for facets in _facet_families()]
    nonexact = 0
    for x in chains:
        h = homology_ranks(x)
        assert is_exact(x) == (not h, h)
        nonexact += bool(h)
    assert nonexact > 5


# -- the corpus's 2-graph block ------------------------------------------------


def _brute_force_2graphs(n):
    pairs = list(combinations(range(1, n + 1), 2))
    out = []
    for mask in range(1, 1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = DGraph.from_edges(2, edges)
        if is_cointerval(g):
            out.append(g)
    return out


def test_gen_corpus_matches_brute_force_2graphs():
    two = []
    for g in _brute_force_2graphs(6):
        ideal = edge_ideal(g, n=max(g.vertices))
        name = "cointerval/d2/%s" % ",".join(map(str, sorted(g.edges)))
        two.append((name, ideal.n, ideal.gens))
    three = [item for item in cointerval_corpus(3, 6) if item.tags["d"] == 3]
    reference = (
        [(i.name, i.ideal.n, i.ideal.gens) for i in stable_corpus() + cointerval_corpus(1, 6)]
        + two
        + [(i.name, i.ideal.n, i.ideal.gens) for i in three + example_corpus()]
    )
    assert [(i.name, i.ideal.n, i.ideal.gens) for i in gen_corpus()] == reference
    assert len(two) > 100


def test_edge_with_one_endpoint_is_refused():
    # d(e) = v1 and d(v1) = the empty cell, so dd(e) != 0; the collapse
    # pairs v2 with the empty cell and e with v1 without noticing
    cells, _, ideal = _two_vertices()
    X = LabeledCellComplex(cells, {"e": [("v1", 1)]})
    with pytest.raises(VerificationError, match="boundary of a boundary"):
        check_cellular_resolution(X, ideal)
