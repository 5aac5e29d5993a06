"""Strands checked relative to the exact strands below them: the verdicts
and failing b of the whole-strand check kept in reference.py, the union
rule's negative controls, the quotient that `restrict` returns, and the
work the collapse is handed on the ladder complexes."""

import random
from itertools import combinations

import pytest

import reference
from cellres import exact
from cellres.betti import (
    LabeledCellComplex,
    _exact_base,
    _strands,
    check_cellular_resolution,
    lcm_lattice,
)
from cellres.cointerval import DGraph, build_hom_complex, dgraph_of_ideal, edge_ideal
from cellres.corpus import gen_corpus
from cellres.ekcells import build_ek_cw
from cellres.errors import CellresError, VerificationError
from cellres.exact import ChainData, _collapse, is_exact
from cellres.ideals import check_regularity, parse_ideal
from cellres.monomial import Monomial, parse_monomial


def _ladder_ideals():
    """The ideals `cellres verify` runs on in the ladder benchmark."""
    ideals = [
        edge_ideal(DGraph.from_edges(d, list(combinations(range(1, n + 1), d))), n=n)
        for d, n in ((2, 7), (2, 8), (3, 7))
    ]
    ideals += [parse_ideal(", ".join("x%d" % i for i in range(1, k + 1))) for k in (7, 8)]
    return ideals


@pytest.fixture(scope="module")
def ladder():
    """(name, complex, ideal): the EK and hom complex of each ladder ideal."""
    out = []
    for ideal in _ladder_ideals():
        name = "%d gens on %d vars" % (ideal.k, ideal.n)
        out.append((name + "/ek", build_ek_cw(ideal), ideal))
        H = build_hom_complex(dgraph_of_ideal(ideal), ideal.n)
        out.append((name + "/hom", H, ideal))
    return out


def _copy(X, drop=(), relabel=None):
    """X as a LabeledCellComplex without the cells in `drop`, and with
    the labels in `relabel` ({key: Monomial}) changed."""
    relabel = relabel or {}
    cells = {
        key: (dim, relabel.get(key, label))
        for key, dim, label in X.cells_with_labels()
        if key not in drop
    }
    return LabeledCellComplex(cells, {key: X.topo_boundary(key) for key in cells})


def _broken(name, X, ideal, rng):
    """Seeded breakages of X: a top cell dropped, a random cell dropped and
    a vertex relabeled, by a generator's label or times a variable."""
    cells = list(X.cells_with_labels())
    top = max(dim for _, dim, _ in cells)
    tops = [key for key, dim, _ in cells if dim == top]
    vertices = [(key, label) for key, dim, label in cells if dim == 0]
    key, label = rng.choice(vertices)
    yield name + "-top", _copy(X, drop=[rng.choice(tops)]), ideal
    yield name + "-cell", _copy(X, drop=[rng.choice(cells)[0]]), ideal
    other = rng.choice(ideal.gens)
    yield name + "-vertex=gen", _copy(X, relabel={key: other}), ideal
    x = Monomial.variable(rng.randrange(1, ideal.n + 1), ideal.n)
    yield name + "-vertex*x", _copy(X, relabel={key: label * x}), ideal


def _outcome(check, X, ideal):
    try:
        return check(X, ideal)
    except CellresError as exc:
        return type(exc)


def _corpus_sample():
    items = gen_corpus()
    for item in items[::53] + items[-2:]:
        ideal = item.ideal
        if check_regularity(ideal).regular:
            yield item.name + "/ek", build_ek_cw(ideal), ideal
        if item.tags.get("cointerval"):
            yield item.name + "/hom", build_hom_complex(dgraph_of_ideal(ideal), ideal.n), ideal


def test_relative_check_matches_whole_strands(ladder):
    rng = random.Random(30)
    cases = list(_corpus_sample())
    intact = len(cases)
    for name, X, ideal in cases[::4] + ladder:
        cases += _broken(name, X, ideal, rng)
    cases += ladder
    seen = {"ok": 0, "fail": 0, "raise": 0}
    for name, X, ideal in cases:
        got = _outcome(check_cellular_resolution, X, ideal)
        assert got == _outcome(reference.check_cellular_resolution, X, ideal), name
        kind = "raise" if isinstance(got, type) else "ok" if got[0] else "fail"
        seen[kind] += 1
    assert seen["ok"] >= intact + len(ladder)
    assert seen["fail"] > 20 and seen["raise"] > 10


# -- negative controls of the union rule ----------------------------------------


def _four_cycle():
    """Vertices x1x2, x2x3, x3x4, x1x4 and the four edges between them,
    each labeled by the lcm of its ends, with no 2-cell."""
    lab = lambda s: parse_monomial(s, n=4)
    vertices = ("x1*x2", "x2*x3", "x3*x4", "x1*x4")
    cells = {v: (0, lab(v)) for v in vertices}
    boundary = {}
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        edge = a + "-" + b
        cells[edge] = (1, lab(a).lcm(lab(b)))
        boundary[edge] = [(a, 1), (b, -1)]
    ideal = parse_ideal(", ".join(vertices))
    return LabeledCellComplex(cells, boundary), ideal


def _named(X, mask):
    """The keys of X's cells on the set bits of a member mask."""
    return {key for c, (key, _, _) in enumerate(X.cells_with_labels()) if mask >> c & 1}


def test_four_cycle_joins_only_strands_that_meet():
    X, ideal = _four_cycle()
    top = parse_monomial("x1*x2*x3*x4", n=4)
    assert check_cellular_resolution(X, ideal) == (False, top)
    assert reference.check_cellular_resolution(X, ideal) == (False, top)
    labels = [label.e for _, _, label in X.cells_with_labels()]
    strands, within = _strands(labels, lcm_lattice(ideal))
    member = max(strands)
    assert strands[member] == top
    verified = set(strands) - {member}
    # x2x3x4 and x1x3x4 meet in the vertex x3x4 and join; x1x2x4 meets
    # x2x3x4 in no vertex, and x1x2x3 meets x1x3x4 in none, so neither joins
    base = _exact_base(member, top, within, verified)
    assert _named(X, base) == {
        "x2*x3", "x3*x4", "x1*x4", "x2*x3-x3*x4", "x3*x4-x1*x4"
    }
    # without the strand of the vertex x3x4, x1x3x4 may not join, and
    # x1x2x3, meeting x2x3x4 in the vertex x2x3, does
    vertex = 1 << labels.index((0, 0, 1, 1))
    other = _exact_base(member, top, within, verified - {vertex})
    assert _named(X, other) == {
        "x1*x2", "x2*x3", "x3*x4", "x1*x2-x2*x3", "x2*x3-x3*x4"
    }


def test_lower_set_that_is_no_verified_strand_never_joins():
    # ideal (x1^2, x2): the cells dividing x1*x2 are the vertex x2 and a
    # 1-cell c with no faces, labeled x1*x2.  That set is no strand of the
    # lattice {x2, x1^2, x1^2*x2} and is not exact; taken as a base it
    # would carry the whole H_1 of the top strand and hide it.
    lab = lambda s: parse_monomial(s, n=2)
    cells = {
        "v1": (0, lab("x1^2")),
        "v2": (0, lab("x2")),
        "c": (1, lab("x1*x2")),
        "e": (1, lab("x1^2*x2")),
    }
    X = LabeledCellComplex(cells, {"e": [("v1", 1), ("v2", -1)]})
    ideal = parse_ideal("x1^2, x2")
    top = lab("x1^2*x2")
    assert check_cellular_resolution(X, ideal) == (False, top)
    assert reference.check_cellular_resolution(X, ideal) == (False, top)
    labels = [label.e for _, _, label in X.cells_with_labels()]
    strands, within = _strands(labels, lcm_lattice(ideal))
    member = max(strands)
    verified = set(strands) - {member}
    assert _named(X, _exact_base(member, top, within, verified)) == {"v1"}


def test_quotient_core_is_ranked_without_its_base_faces(monkeypatch):
    # the top strand of the 4-cycle relative to the path x2x3 - x3x4 - x1x4
    # leaves the vertex x1x2 and its two edges, whose other ends are in
    # the base: no face is free, and the core is one row of two units
    ranked = []
    real = exact.bareiss_rank

    def recording(rows):
        ranked.append([list(r) for r in rows])
        return real(rows)

    monkeypatch.setattr(exact, "bareiss_rank", recording)
    X, ideal = _four_cycle()
    assert not check_cellular_resolution(X, ideal)[0]
    assert len(ranked) == 1
    (rows,) = ranked
    assert len(rows) == 1 and sorted(map(abs, rows[0])) == [1, 1]


def _square():
    """A filled square: vertices 0-3 (numbers 1-4 over the empty cell 0),
    edges 5-8 around it and the 2-cell 9."""
    deg = [-1, 0, 0, 0, 0, 1, 1, 1, 1, 2]
    faces = [{}, {0: 1}, {0: 1}, {0: 1}, {0: 1}]
    faces += [{a: 1, b: -1} for a, b in ((1, 2), (2, 3), (3, 4), (4, 1))]
    faces.append({5: 1, 6: 1, 7: 1, 8: 1})
    return ChainData(deg, faces)


def test_restrict_quotient_members_and_refusals():
    chain = _square()
    whole = (1 << 10) - 1
    # the square relative to the path 1 - 2 - 3: vertex 4, edges 7, 8, cell 9
    path = 0b1 | 0b1110 | 1 << 5 | 1 << 6
    sub = chain.restrict(whole, path)
    assert sub.members == [4, 7, 8, 9]
    assert _collapse(sub) == ([], 4)
    assert is_exact(sub) == (True, {})
    assert chain.restrict(whole).members == list(range(10))
    # a base cell outside the mask
    with pytest.raises(ValueError, match="outside the mask"):
        chain.restrict(path, path | 1 << 9)
    # the relative members' faces must lie in the mask: edge 7 needs
    # vertices 3 and 4, which neither the base (the edge 5 from 1 to 2)
    # nor the rest holds
    edge = 0b111 | 1 << 5
    with pytest.raises(VerificationError, match="not closed"):
        chain.restrict(edge | 1 << 7, edge)
    # relative to the boundary circle the quotient is the 2-cell alone
    circle = whole ^ 1 << 9
    assert is_exact(chain.restrict(whole, circle)) == (False, {2: 1})
    assert all(not any(a) for a in chain._scratch)
    # the scratch arrays are zero again after a collapse that fails too
    bad = ChainData([0, 1, 2], [{}, {0: 1}, {1: 2}])
    with pytest.raises(VerificationError):
        is_exact(bad)
    assert all(not any(a) for a in bad._scratch)


# -- the work handed to the collapse ---------------------------------------------


def test_ladder_cells_handed_to_the_collapse(monkeypatch, ladder):
    """The cells of X that check_cellular_resolution hands to the collapse
    over the ten ladder complexes, the empty cell of each strand not
    counted: 49,316 when each strand was collapsed whole."""
    handed = []
    real = ChainData.restrict

    def counted(self, mask, base=0):
        sub = real(self, mask, base)
        handed.append(sum(1 for c in sub.members if c))
        return sub

    monkeypatch.setattr(ChainData, "restrict", counted)
    for name, X, ideal in ladder:
        assert check_cellular_resolution(X, ideal) == (True, None), name
    assert len(handed) == 1696
    assert sum(handed) == 9290
