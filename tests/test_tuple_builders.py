"""The symbol and cointerval builders on exponent tuples, checked against
the Monomial versions they replace, kept here as references: the old
minimality loop, symbol basis and rule differential, c, the A-blocks,
the c-table, the hom cells and symbol_of_face."""

import random
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellres import rules
from cellres.chain import (
    UNIT,
    BRule,
    LabeledChainComplex,
    Symbol,
    TableRule,
    resolution_from_rule,
    symbol_basis,
)
from cellres.cli import main
from cellres.cointerval import (
    CRule,
    DGraph,
    _c_exponents,
    _enumerate_hom_cells,
    build_hom_complex,
    dgraph_of_ideal,
    face_of_symbol,
    partition_A,
    symbol_of_face,
)
from cellres.corpus import gen_corpus
from cellres.errors import (
    DuplicateGenerator,
    NonMinimalGenerators,
    NotCointerval,
    SymbolNotInComplex,
    VerificationError,
)
from cellres.ideals import OrderedIdeal, parse_ideal
from cellres.monomial import Monomial, parse_monomial

import reference

RUNNING = "x1*x2, x1*x3, x1*x5, x2*x3, x2*x5, x3*x5, x4*x5"


@pytest.fixture(scope="module")
def corpus():
    return gen_corpus()


def _outcome(f, *args):
    """f's result, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as e:  # the references raise whatever the old code did
        return type(e).__name__, str(e)


# -- the old builders ---------------------------------------------------------


def _old_minimality(gens):
    for g in gens:
        for h in gens:
            if g is not h and g.divides(h):
                raise NonMinimalGenerators("%s divides %s" % (g, h))


def _old_index_of(ideal, m):
    return {g: j for j, g in enumerate(ideal.gens, start=1)}.get(m)


def _old_symbol_basis(ideal):
    table = ideal.set_table()
    top = 1 + max((len(s) for s in table), default=0)
    basis = [[UNIT]]
    mdeg = [[Monomial.one(ideal.n)]]
    for i in range(1, top + 1):
        level = []
        for j in range(1, ideal.k + 1):
            for alpha in combinations(table[j - 1], i - 1):
                level.append(Symbol(j, alpha))
        basis.append(level)
        mdeg.append(
            [ideal.gen(s.gen) * Monomial.from_support(s.alpha, ideal.n) for s in level]
        )
    return basis, mdeg


def _old_symbol_differential(ideal, rule, sym):
    j, alpha = sym.gen, sym.alpha
    mj = ideal.gen(j)
    if not alpha:
        return {UNIT: (1, mj)}
    table = ideal.set_table()
    out = {}
    tset = set(rule.tset(j, alpha))
    for i, t in enumerate(alpha, start=1):
        rest = tuple(x for x in alpha if x != t)
        sign = 1 if i % 2 == 0 else -1
        out[Symbol(j, rest)] = (sign, Monomial.variable(t, ideal.n))
        if t in tset:
            g = rule.apply(j, t)
            if set(rest) <= set(table[g - 1]):
                coeff = mj.times_var(t) // ideal.gen(g)
                out[Symbol(g, rest)] = (-sign, coeff)
    return out


def _old_resolution_from_rule(ideal, rule):
    basis, mdeg = _old_symbol_basis(ideal)
    diff = [dict() for _ in basis]
    for i in range(1, len(basis)):
        idx_lower = {s: p for p, s in enumerate(basis[i - 1])}
        for c, sym in enumerate(basis[i]):
            for target, entry in _old_symbol_differential(ideal, rule, sym).items():
                diff[i][(idx_lower[target], c)] = entry
    return LabeledChainComplex(ideal.n, basis, mdeg, diff)


def _old_decomp_c(ideal, m, i):
    """c(x_i m) for a generator m and i in set(m), as first written."""
    above = [s for s in m.support() if s >= i]
    jk = min(above)
    return m.times_var(i) // Monomial.variable(jk, ideal.n)


def _old_partition_A(ideal, j):
    m = ideal.gen(j)
    gens = set(ideal.gens)
    prev = 0
    blocks = []
    for i_ell in m.support():
        block = []
        for a in range(prev + 1, i_ell):
            swapped = (m // Monomial.variable(i_ell, ideal.n)) * Monomial.variable(
                a, ideal.n
            )
            if swapped in gens:
                block.append(a)
        blocks.append(tuple(block))
        prev = i_ell
    flat = tuple(sorted(a for b in blocks for a in b))
    if flat != tuple(ideal.set_of(j)):
        raise VerificationError(
            "A-blocks %s do not partition set(m_%d) = %s"
            % (blocks, j, ideal.set_of(j))
        )
    return tuple(blocks)


def _old_c_table(ideal):
    table = {}
    for j in range(1, ideal.k + 1):
        m = ideal.gen(j)
        for t in ideal.set_of(j):
            target = _old_decomp_c(ideal, m, t)
            g = _old_index_of(ideal, target)
            if g is None:
                raise NotCointerval(
                    "c(x_%d m_%d) = %s is not a generator" % (t, j, str(target))
                )
            table[(j, t)] = g
    return table


def _old_crule(ideal):
    """(table, absorbing) as the old CRule built them."""
    table = _old_c_table(ideal)
    absorbing = frozenset(
        (j, s, t)
        for j in range(1, ideal.k + 1)
        for block in _old_partition_A(ideal, j)
        for s, t in combinations(block, 2)
    )
    return table, absorbing


def _old_symbol_of_face(ideal, cell):
    maxima = tuple(max(block) for block in cell)
    j = _old_index_of(ideal, Monomial.from_support(maxima, ideal.n))
    if j is None:
        raise SymbolNotInComplex("block maxima %s are not a generator" % (maxima,))
    alpha = tuple(sorted(v for block in cell for v in block if v != max(block)))
    if not set(alpha) <= set(ideal.set_of(j)):
        raise SymbolNotInComplex(
            "alpha %s escapes set(m_%d); not a resolution cell" % (alpha, j)
        )
    return Symbol(j, alpha)


def _old_hom_cells(graph):
    d = graph.d
    verts = sorted({v for e in graph.edges for v in e})
    cells = []
    for size in range(d, len(verts) + 1):
        for subset in combinations(verts, size):
            for cuts in combinations(range(1, size), d - 1):
                bounds = (0,) + cuts + (size,)
                cell = tuple(tuple(subset[bounds[i] : bounds[i + 1]]) for i in range(d))
                if all(tuple(sorted(c)) in graph.edges for c in product(*cell)):
                    cells.append(cell)
    return sorted(cells)


# -- the generator index and the minimality loop ------------------------------


def test_one_index_keyed_by_exponent_tuples(example1):
    assert example1.exponent_index == {
        g.e: j for j, g in enumerate(example1.gens, start=1)
    }
    assert not hasattr(example1, "_position")
    for j, g in enumerate(example1.gens, start=1):
        assert example1.index_of(Monomial(g.e)) == j
        assert example1.index_of(g) == _old_index_of(example1, g)
    assert example1.index_of(Monomial((1, 0, 1, 1))) is None  # too few variables


def _ideal_outcome(n, gens):
    try:
        return OrderedIdeal(n, gens).gens
    except (DuplicateGenerator, NonMinimalGenerators) as e:
        return type(e).__name__, str(e)


def _old_ideal_outcome(n, gens):
    if len(set(gens)) != len(gens):
        return _ideal_outcome(n, gens)  # duplicates are found before this loop
    try:
        _old_minimality(gens)
    except NonMinimalGenerators as e:
        return type(e).__name__, str(e)
    return tuple(gens)


def test_minimality_matches_old_loop_on_mixed_degrees():
    rng = random.Random(2026)
    refused = accepted = 0
    for _ in range(400):
        n = rng.randint(2, 4)
        gens = [
            Monomial([rng.randint(0, 2) for _ in range(n)]) for _ in range(rng.randint(2, 7))
        ]
        gens = [g for g in gens if not g.is_one()]
        if len({g.degree() for g in gens}) < 2:
            continue
        got = _ideal_outcome(n, gens)
        assert got == _old_ideal_outcome(n, gens), gens
        if got[0] == "NonMinimalGenerators":
            refused += 1
        elif not isinstance(got[0], str):
            accepted += 1
    assert refused > 50 and accepted > 20


def test_minimality_names_the_first_pair_of_the_old_order():
    # the pair (x3, x3*x4) comes first in the old (g, h) order, although
    # x1 | x1*x2 is found at an earlier h
    text = "x3, x1*x2, x1, x3*x4"
    with pytest.raises(NonMinimalGenerators, match=r"^x3 divides x3\*x4$"):
        parse_ideal(text)
    gens = [parse_monomial(m, n=4) for m in text.split(", ")]
    assert _ideal_outcome(4, gens) == _old_ideal_outcome(4, gens)


# -- symbol basis and rule differential --------------------------------------


def _assert_same_complex(new, old, name):
    assert new.basis == old.basis, name
    assert new.mdeg == old.mdeg, name
    # same entries in the same order, so serializers see the same complex
    assert [list(d.items()) for d in new.diff] == [
        list(d.items()) for d in old.diff
    ], name


def test_resolution_from_rule_matches_old(corpus):
    seen = {"b": 0, "c": 0}
    for item in corpus[::5]:
        ideal = item.ideal
        if not ideal.has_linear_quotients():
            continue
        assert symbol_basis(ideal) == _old_symbol_basis(ideal)
        rule = BRule(ideal)
        _assert_same_complex(
            resolution_from_rule(ideal, rule),
            _old_resolution_from_rule(ideal, rule),
            item.name,
        )
        seen["b"] += 1
        if item.tags.get("cointerval"):
            rule = CRule(ideal)
            _assert_same_complex(
                resolution_from_rule(ideal, rule),
                _old_resolution_from_rule(ideal, rule),
                item.name,
            )
            seen["c"] += 1
    assert seen["b"] > 300 and seen["c"] > 100


def test_rule_to_a_non_divisor_is_refused_like_old(running):
    # x_2 m_2 = x1*x2*x3 is not divisible by m_3 = x1*x5: a TableRule
    # refuses the entry when it is built, and the builder still refuses a
    # rule object that sends x_2 m_2 there, as the old builder did
    with pytest.raises(VerificationError) as err:
        TableRule(running, {(2, 2): 3})
    assert str(err.value) == "x_2 m_2 steps to the later generator m_3"
    rule = reference.UncheckedRule({(2, 2): 3})
    got = _outcome(resolution_from_rule, running, rule)
    assert got == ("ValueError", "x1*x5 does not divide x1*x2*x3")
    assert got == _outcome(_old_resolution_from_rule, running, rule)


# -- c, the A-blocks and the c-table ------------------------------------------


def test_crule_table_and_absorbing_match_old(corpus):
    seen = 0
    for item in corpus[::3]:
        if not item.tags.get("cointerval"):
            continue
        rule = CRule(item.ideal)
        assert (rule.table, rule.absorbing) == _old_crule(item.ideal), item.name
        seen += 1
    assert seen > 300


def test_decomp_c_and_partition_A_match_old(corpus):
    # c is computed by cointerval._c_exponents, which CRule reads; where
    # no support element lies at or above t it returns None and the old
    # code raised a bare ValueError from min()
    refusals = set()
    for item in corpus[::7]:
        ideal = item.ideal
        if not ideal.has_linear_quotients():
            continue
        for j in range(1, ideal.k + 1):
            blocks = _outcome(partition_A, ideal, j)
            assert blocks == _outcome(_old_partition_A, ideal, j), (item.name, j)
            m = ideal.gen(j)
            for t in ideal.set_of(j):
                got = _c_exponents(m.e, t)
                old = _outcome(_old_decomp_c, ideal, m, t)
                if got is None:
                    assert old == ("ValueError", "min() arg is an empty sequence")
                else:
                    assert Monomial._raw(got) == old, (item.name, j, t)
            if isinstance(blocks[0], str):
                refusals.add(blocks[0])
    assert refusals == {"VerificationError"}


def test_c_refusals_keep_type_and_message():
    ideal = parse_ideal("x2, x1")
    got = _outcome(partition_A, ideal, 2)
    assert isinstance(got, tuple) and isinstance(got[0], str)
    assert got == _outcome(_old_partition_A, ideal, 2)
    # no j_k: the old code raised a bare ValueError from min(); c is
    # undefined there, so the ideal is refused as not cointerval
    assert _outcome(_old_crule, ideal) == ("ValueError", "min() arg is an empty sequence")
    assert _c_exponents(ideal.gen(2).e, 2) is None
    assert _outcome(CRule, ideal) == (
        "NotCointerval",
        "no support variable of m_2 lies at or above x_2",
    )


def test_crule_on_non_cointerval_ideals_matches_old(corpus):
    # the old CRule raised VerificationError where partition_A's blocks
    # miss set(m_j); the new one reads its pairs off its c table and
    # builds there, with the old table
    refused = set()
    built = non_squarefree = 0
    for item in corpus:
        ideal = item.ideal
        if item.tags.get("cointerval") or not ideal.has_linear_quotients():
            continue
        got = _outcome(CRule, ideal)
        old = _outcome(_old_crule, ideal)
        if old[0] == "VerificationError":
            assert isinstance(got, CRule), item.name
            assert got.table == _old_c_table(ideal), item.name
            built += 1
        elif isinstance(old[0], str):
            assert got == old, item.name
            refused.add(old[0])
        else:
            assert (got.table, got.absorbing) == old, item.name
        non_squarefree += not all(g.is_squarefree() for g in ideal.gens)
    assert refused == {"NotCointerval"} and built
    assert non_squarefree > 40


# -- faces <-> symbols --------------------------------------------------------


def test_hom_cells_and_bijection_match_old(corpus):
    cells = 0
    for item in corpus[::2]:
        if not item.tags.get("cointerval"):
            continue
        ideal = item.ideal
        graph = dgraph_of_ideal(ideal)
        found = _enumerate_hom_cells(graph)
        assert found == _old_hom_cells(graph), item.name
        for cell in build_hom_complex(graph, ideal.n).cells:
            sym = symbol_of_face(ideal, cell)
            assert sym == _old_symbol_of_face(ideal, cell)
            assert face_of_symbol(ideal, sym.gen, sym.alpha) == cell
            cells += 1
    assert cells > 10000


def _small_graphs():
    """Every nonempty 1-, 2- and 3-graph edge set on [5], cointerval or not."""
    for d in (1, 2, 3):
        possible = list(combinations(range(1, 6), d))
        for size in range(1, len(possible) + 1):
            for edges in combinations(possible, size):
                yield DGraph.from_edges(d, edges)


def test_pruned_hom_walk_matches_exhaustive_reference():
    graphs = list(_small_graphs())
    assert len(graphs) == 2077
    graphs += [
        DGraph.from_edges(d, combinations(range(1, n + 1), d))
        for d, n in ((2, 8), (3, 7), (4, 9))
    ]
    for graph in graphs:
        assert _enumerate_hom_cells(graph) == _old_hom_cells(graph), sorted(graph.edges)
    # in a complete d-graph on [n] every subset of size s cut into d runs
    # is a cell: sum over s of C(n, s) C(s - 1, d - 1) cells
    for graph, n in zip(graphs[-3:], (8, 7, 9)):
        d = graph.d
        want = sum(comb(n, s) * comb(s - 1, d - 1) for s in range(d, n + 1))
        assert len(_enumerate_hom_cells(graph)) == want


def test_face_symbol_refusals_keep_type_and_message(running):
    cases = [
        (symbol_of_face, (running, ((1,), (4,)))),  # x1*x4 is not an edge
        (symbol_of_face, (running, ((1,), (4, 5)))),  # 4 escapes set(x1*x5)
        (face_of_symbol, (running, 3, (1,))),  # 1 escapes set(x1*x5)
        (face_of_symbol, (parse_ideal("x2, x1"), 2, (2,))),  # 2 lies above x1
        (face_of_symbol, (parse_ideal("x1^2, x1*x2"), 2, (1,))),  # 1 is x1 itself
    ]
    got = [_outcome(f, *args) for f, args in cases]
    assert got[:2] == [_outcome(_old_symbol_of_face, *args) for _, args in cases[:2]]
    assert got == [
        ("SymbolNotInComplex", "block maxima (1, 4) are not a generator"),
        ("SymbolNotInComplex", "alpha (4,) escapes set(m_3); not a resolution cell"),
        ("SymbolNotInComplex", "alpha (1,) escapes set(m_3)"),
        ("SymbolNotInComplex", "alpha (2,) does not fit the gaps of x1"),
        ("SymbolNotInComplex", "alpha (1,) does not fit the gaps of x1*x2"),
    ]


# Ideals for face_of_symbol: squarefree (cointerval or not), non-squarefree
# with a set(m_j) element on a support variable of m_j, a set(m_j) element
# above the support of m_j, and no linear quotients at all.
FACE_IDEALS = [
    parse_ideal(text)
    for text in (
        RUNNING,
        "x1*x3*x4, x1*x3*x5, x1*x2*x4, x1*x4*x5, x2*x3*x4, x2*x3*x5",
        "x2*x3*x4, x2*x3*x5, x2*x3*x6, x2*x4*x5, x2*x4*x6, x3*x4*x5, x3*x4*x6",
        "x1^3, x1^2*x2, x1*x2^2, x2^3",
        "x1^2, x1*x2, x1*x3, x2^2, x2*x3, x3^2",
        "x2, x1",
        "x1*x2, x3*x4",
    )
]


@st.composite
def face_cases(draw):
    """(ideal, j, alpha): alpha inside set(m_j), escaping it, repeating an
    element, or hitting a support variable of m_j."""
    ideal = draw(st.sampled_from(FACE_IDEALS))
    j = draw(st.integers(1, ideal.k))
    inside = ideal.set_of(j) if ideal.has_linear_quotients() else ()
    alpha = draw(st.lists(st.sampled_from(inside), unique=True)) if inside else []
    kind = draw(st.sampled_from(["inside", "escape", "repeat", "support"]))
    if kind == "escape":
        alpha.append(draw(st.integers(0, ideal.n + 1).filter(lambda a: a not in inside)))
    elif kind == "repeat" and alpha:
        alpha.append(draw(st.sampled_from(alpha)))
    elif kind == "support":  # one in set(m_j) when m_j has one
        support = ideal.gen(j).support()
        alpha.append(draw(st.sampled_from([v for v in support if v in inside] or support)))
    return ideal, j, draw(st.permutations(alpha))


def test_face_of_symbol_keeps_every_answer_and_refusal():
    seen = Counter()

    @settings(derandomize=True, max_examples=600, deadline=None, database=None)
    @given(face_cases())
    def check(case):
        got = _outcome(face_of_symbol, *case)
        assert got == _outcome(reference.face_of_symbol, *case), case
        if isinstance(got[0], tuple):
            seen["cell"] += 1
        else:  # a refusal, named by its message
            seen[next((w for w in ("repeats", "escapes", "gaps") if w in got[1]), got[0])] += 1

    check()
    assert set(seen) == {"cell", "repeats", "escapes", "gaps", "NotLinearQuotients"}
    assert min(seen.values()) >= 10, seen


# -- one resolution per admitted rule -----------------------------------------


def test_enumerate_rules_builds_each_resolution_once(monkeypatch, capsys):
    calls = []
    original = rules.resolution_from_rule

    def counted(ideal, rule):
        calls.append(rule)
        return original(ideal, rule)

    monkeypatch.setattr(rules, "resolution_from_rule", counted)
    assert main(["enumerate-rules", RUNNING]) == 0
    capsys.readouterr()
    assert len(calls) == 6


def test_complex_for_rule_builds_only_a_missing_resolution(monkeypatch, running):
    admitted = rules.enumerate_regular_rules(running)
    calls = []
    original = rules.resolution_from_rule

    def counted(ideal, rule):
        calls.append(rule)
        return original(ideal, rule)

    monkeypatch.setattr(rules, "resolution_from_rule", counted)
    for rule in admitted:
        assert rule.resolution is not None
        rules.complex_for_rule(parse_ideal(RUNNING), rule)  # an equal ideal
    assert calls == []
    b = BRule(running)
    assert b.resolution is None
    rules.complex_for_rule(running, b)
    assert calls == [b]
    # x5 never enters a set(m_j), so the rule also applies with x5 renamed
    # to x6; the carried resolution lives in 5 variables and is not reused
    renamed = parse_ideal(RUNNING.replace("x5", "x6"))
    X = rules.complex_for_rule(renamed, admitted[0])
    assert calls == [b, admitted[0]]
    assert X.f_vector() == (7, 11, 6, 1)
