"""`cellres verify` numbers each resolution once, as a NumberedComplex,
and reads every line off that table: the work it saves, the negative
controls of each line, and the fact that lets "cellular = algebraic"
compare labels and signs only (every cellular incidence coefficient is
the quotient of two labels)."""

import random
from itertools import combinations

import pytest

from cellres import betti, chain, cli, cointerval, ekcells
from cellres.betti import (
    LabeledCellComplex,
    NumberedComplex,
    TaylorSupport,
    check_cellular_resolution,
)
from cellres.chain import LabeledChainComplex, Symbol, ht_resolution
from cellres.cointerval import (
    build_hom_complex,
    dgraph_of_ideal,
    hom_chain_complex,
    homcone_resolution,
    symbol_of_face,
)
from cellres.corpus import gen_corpus
from cellres.ekcells import build_ek_cw, cellular_chain_complex
from cellres.errors import NonMonotoneLabels, VerificationError
from cellres.ideals import check_regularity, parse_ideal
from cellres.monomial import Monomial

RUNNING = "x1*x2, x1*x3, x1*x5, x2*x3, x2*x5, x3*x5, x4*x5"
K2_ON_7 = "2 7\n" + "".join("%d %d\n" % e for e in combinations(range(1, 8), 2))
MAXIMAL_7 = ", ".join("x%d" % i for i in range(1, 8))


def verify(text, capsys):
    code = cli.main(["verify", text])
    out = capsys.readouterr()
    return code, out.out.splitlines(), out.err


def line(name, verdict):
    return "%-34s %s" % (name, verdict)


# -- the work verify saves -----------------------------------------------------


def _counting(monkeypatch, module, name, counts):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize(
    "text, strands", [(K2_ON_7, 240), (MAXIMAL_7, 254)], ids=["K2-on-7", "maximal-7"]
)
def test_verify_checks_each_table_once(monkeypatch, capsys, text, strands):
    """dd = 0 runs once on each of the two distinct tables, the EK
    resolution and the hom resolution; no symbol-basis copy of a cell
    complex is built and no complex is checked entry by entry; the
    strands are the 240 (K2 on [7]) and 254 (maximal ideal, k = 7)
    homology computations they were before the tables were shared."""
    counts = {}
    _counting(monkeypatch, betti, "require_dd_zero", counts)
    _counting(monkeypatch, betti, "is_exact", counts)
    for module, names in (
        (chain, ("check_dd_zero", "compare_up_to_degree_signs", "cell_chain_complex")),
        (cli, ("check_dd_zero",)),
        (ekcells, ("cell_chain_complex",)),
        (cointerval, ("cell_chain_complex", "compare_up_to_degree_signs")),
        (betti, ("cell_chain_complex",)),
    ):
        for name in names:
            _counting(monkeypatch, module, name, counts)
    code, out, _ = verify(text, capsys)
    assert code == 0
    assert line("hom strands acyclic", "ok") in out
    assert counts == {"require_dd_zero": 2, "is_exact": strands}


# -- negative controls ---------------------------------------------------------


def _flip_one_sign(X):
    """X with the sign of the first face of its last cell flipped."""
    key = X.by_dim[max(X.by_dim)][-1]
    (face, sign), *rest = X.boundary[key]
    X.boundary[key] = ((face, -sign), *rest)
    return X


def _raise_one_label(X):
    """X with the label of its last cell multiplied by x_1; the labels
    stay monotone, as nothing lies above a top cell."""
    key = X.by_dim[max(X.by_dim)][-1]
    e = X.label(key).e
    X._labels[key] = Monomial((e[0] + 1,) + e[1:])
    return X


def _bend_one_coefficient(cx):
    """cx with one entry of its degree-2 differential multiplied by x_1."""
    d = cx.diff[2]
    key = min(d)
    sign, coeff = d[key]
    d[key] = (sign, Monomial((coeff.e[0] + 1,) + coeff.e[1:]))
    return cx


@pytest.mark.parametrize(
    "builder, names",
    [
        ("build_ek_cw", ("cellular = algebraic", "cell complex strands acyclic")),
        ("build_hom_complex", ("hom cellular = algebraic", "hom strands acyclic")),
    ],
)
def test_a_flipped_cellular_sign_fails_and_is_checked_on_its_own(
    monkeypatch, capsys, builder, names
):
    """The tables differ, so the strands are checked on the cell complex,
    whose dd = 0 fails there: a property failure, not a strand verdict
    read off the resolution's checked table."""
    real = getattr(cli, builder)
    monkeypatch.setattr(cli, builder, lambda *a: _flip_one_sign(real(*a)))
    code, out, err = verify(RUNNING, capsys)
    assert code == 1
    assert line(names[0], "FAIL") in out
    assert not any(ln.startswith(names[1]) for ln in out)
    assert err.startswith("property failure: VerificationError: the boundary")


def test_a_changed_cell_label_fails_cellular_equals_algebraic(monkeypatch, capsys):
    real = cli.build_ek_cw
    monkeypatch.setattr(cli, "build_ek_cw", lambda *a: _raise_one_label(real(*a)))
    code, out, _ = verify(RUNNING, capsys)
    assert code == 1
    assert line("cellular = algebraic", "FAIL") in out
    assert line("hom cellular = algebraic", "ok") in out


@pytest.mark.parametrize(
    "builder, names",
    [
        ("ht_resolution", ("dd = 0 (mapping cone)", "cellular = algebraic")),
        (
            "homcone_resolution",
            ("dd = 0 (hom complex cone)", "hom cellular = algebraic"),
        ),
    ],
)
def test_an_inhomogeneous_coefficient_fails_dd_zero(
    monkeypatch, capsys, builder, names
):
    """The resolution has no numbered table; the cell complex, checked on
    its own numbering, still supports a resolution."""
    real = getattr(cli, builder)
    monkeypatch.setattr(cli, builder, lambda *a: _bend_one_coefficient(real(*a)))
    code, out, err = verify(RUNNING, capsys)
    assert (code, err) == (1, "")
    assert line(names[0], "FAIL") in out
    assert line(names[1], "FAIL") in out
    assert sum(ln.endswith("FAIL") for ln in out) == 2


# -- the numbered complex itself -------------------------------------------------


def test_numbered_complex_is_made_by_its_builders_only(running):
    with pytest.raises(TypeError):
        NumberedComplex([-1], [{}])
    table = NumberedComplex.of_resolution(ht_resolution(running))
    assert isinstance(table.faces, tuple)
    with pytest.raises(TypeError):
        table.faces[1][0] = -1


def test_of_resolution_numbers_as_of_cells(running):
    """The resolution's table is the EK complex's, cell for cell, and its
    names are the symbols; number 0 is the ring as the empty cell."""
    cx = ht_resolution(running)
    table = NumberedComplex.of_resolution(cx)
    cells = NumberedComplex.of_cells(build_ek_cw(running), running)
    assert table.difference(cells) is None
    assert table.names[0] == chain.UNIT and table.deg[0] == -1
    assert table.deg == tuple(i - 1 for i, level in enumerate(cx.basis) for _ in level)
    assert list(table.names[1:]) == [s for level in cx.basis[1:] for s in level]
    assert all(isinstance(s, Symbol) for s in table.names)


def test_of_resolution_refuses_a_sign_off_one(running):
    cx = ht_resolution(running)
    key = min(cx.diff[2])
    sign, coeff = cx.diff[2][key]
    cx.diff[2][key] = (2 * sign, coeff)
    with pytest.raises(VerificationError, match="label quotient"):
        NumberedComplex.of_resolution(cx)


def test_difference_names_the_first_difference(running):
    X = build_ek_cw(running)
    cells = NumberedComplex.of_cells(X, running)
    assert cells.difference(cells) is None
    renamed = NumberedComplex.of_cells(X, running, lambda key: ("cell",) + key)
    assert renamed.difference(cells) == "names differ at cell 1, ('cell', 1, ())"
    top = max(X.by_dim)
    lower = LabeledCellComplex(
        {key: (dim, label) for key, dim, label in X.cells_with_labels() if dim < top},
        X.boundary,
    )
    size = len(cells.deg)
    shorter = NumberedComplex.of_cells(lower, running)
    assert shorter.difference(cells) == "%d cells, not %d" % (
        size - len(X.by_dim[top]),
        size,
    )
    raised = NumberedComplex.of_cells(_raise_one_label(build_ek_cw(running)), running)
    assert raised.difference(cells).startswith("labels differ at cell %d" % (size - 1))
    flipped = NumberedComplex.of_cells(_flip_one_sign(build_ek_cw(running)), running)
    assert flipped.difference(cells).startswith("boundaries differ at cell")


def test_difference_reads_the_degrees():
    """Two complexes with no entries, the same names and labels: one has
    b in degree 2, the other in degree 1."""
    one = Monomial.one(2)
    labels = [Monomial((1, 0)), Monomial((0, 1))]
    stacked = LabeledChainComplex(
        2, [[chain.UNIT], ["a"], ["b"]], [[one], labels[:1], labels[1:]], []
    )
    flat = LabeledChainComplex(2, [[chain.UNIT], ["a", "b"]], [[one], labels], [])
    a, b = map(NumberedComplex.of_resolution, (stacked, flat))
    assert a.names == b.names and a.labels == b.labels and a.faces == b.faces
    assert a.difference(b) == "degrees differ at cell 2, b"


def test_of_cells_refuses_a_label_that_does_not_divide(running):
    X = build_ek_cw(running)
    key = X.by_dim[0][0]
    X._labels[key] = Monomial((9,) + X.label(key).e[1:])
    with pytest.raises(NonMonotoneLabels):
        NumberedComplex.of_cells(X, running)


def test_dd_zero_is_checked_once_per_numbered_complex(monkeypatch, running):
    """check_cellular_resolution reads a NumberedComplex as it is: its
    dd = 0 is summed on the first call, and a bare complex is numbered
    and checked afresh each time."""
    calls = []
    real = betti.require_dd_zero
    monkeypatch.setattr(betti, "require_dd_zero", lambda c: calls.append(c) or real(c))
    H = build_hom_complex(dgraph_of_ideal(running), running.n)
    table = NumberedComplex.of_cells(H, running, lambda c: symbol_of_face(running, c))
    for _ in range(2):
        assert check_cellular_resolution(table, running) == (True, None)
        assert check_cellular_resolution(H, running) == (True, None)
    assert len(calls) == 3 and calls.count(table) == 1
    flipped = NumberedComplex.of_cells(_flip_one_sign(H), running)
    for _ in range(2):
        with pytest.raises(VerificationError):
            check_cellular_resolution(flipped, running)


def test_taylor_support_needs_no_numbered_complex(running):
    assert check_cellular_resolution(TaylorSupport(running), running) == (True, None)


# -- the coefficients the numbered tables leave out --------------------------------


def test_cellular_coefficients_are_label_quotients():
    """Every entry of the symbol-basis complex of an EK or a hom complex
    has the coefficient label(col) // label(row), on a seeded sample of
    the corpus: so a numbered table, which keeps labels and signs only,
    loses nothing that the entrywise comparison reads."""
    items = random.Random(31).sample(gen_corpus(), 120)
    seen = 0
    for item in items:
        ideal = item.ideal
        complexes = []
        if check_regularity(ideal).regular:
            complexes.append(cellular_chain_complex(build_ek_cw(ideal)))
        if item.tags.get("cointerval"):
            H = build_hom_complex(dgraph_of_ideal(ideal), ideal.n)
            complexes.append(hom_chain_complex(H, ideal))
        for cx in complexes:
            for i in range(1, len(cx.basis)):
                for (r, c), (sign, coeff) in cx.diff[i].items():
                    assert sign in (1, -1)
                    assert coeff == cx.mdeg[i][c] // cx.mdeg[i - 1][r], item.name
                    seen += 1
    assert seen > 1000


def test_hom_complex_numbered_in_symbol_order_is_the_hom_resolution(running):
    H = build_hom_complex(dgraph_of_ideal(running), running.n)
    cells = NumberedComplex.of_cells(H, running, lambda c: symbol_of_face(running, c))
    table = NumberedComplex.of_resolution(homcone_resolution(running))
    assert cells.difference(table) is None
    # in the hom complex's own order the cells are not in symbol order
    assert NumberedComplex.of_cells(H, running).difference(table) is not None
