"""The enumeration and lattice fast paths against the plain loops they
replace, kept here as the reference, plus a work-count guard."""

import random
from itertools import combinations, permutations

import pytest

from cellres import betti
from cellres.betti import (
    LabeledCellComplex,
    TaylorSupport,
    _strands,
    check_cellular_resolution,
    lcm_lattice,
)
from cellres.chain import BRule, TableRule
from cellres.cointerval import (
    CRule,
    DGraph,
    build_hom_complex,
    dgraph_of_ideal,
    edge_ideal,
    partition_A,
)
from cellres.corpus import gen_corpus
from cellres.ekcells import build_ek_cw, ch_simplex
from cellres.errors import AlphaNotInSet, VerificationError
from cellres.exact import is_exact
from cellres.ideals import OrderedIdeal, check_regularity, parse_ideal
from cellres.monomial import Monomial
from cellres.rules import enumerate_regular_rules
import reference

MAX_ALPHA = 6  # keeps the |alpha|! reference loop small


@pytest.fixture(scope="module")
def sample():
    items = gen_corpus()
    return items[::53] + items[-2:]


def _admissible(sigma, j, bad):
    """The pair filter the rules used before: no s < t with s before t
    and bad(j, s, t)."""
    for a in range(len(sigma)):
        for b in range(a + 1, len(sigma)):
            if sigma[a] < sigma[b] and bad(j, sigma[a], sigma[b]):
                return False
    return True


def _reference_orders(ideal, rule, j, alpha, bad):
    return [
        sigma
        for sigma in permutations(alpha)
        if (bad is None or _admissible(sigma, j, bad))
        and not ch_simplex(ideal, j, alpha, sigma, rule).degenerate
    ]


def _absorbing(rule):
    """The absorb law on rule.apply: s < t absorb when s after t lands
    where s alone does, whether or not the two orders also agree."""

    def bad(j, s, t):
        return rule.apply(rule.apply(j, t), s) == rule.apply(j, s)

    return bad


def _same_block(rule):
    """s and t in one block of partition_A(ideal, j)."""

    def bad(j, s, t):
        return any(
            s in block and t in block for block in partition_A(rule.ideal, j)
        )

    return bad


def _rules_of(item):
    """(rule, pair constraint) for every rule that applies to the item."""
    ideal = item.ideal
    b = BRule(ideal)
    table = TableRule(ideal, dict(b.table))
    out = [(b, _absorbing(b)), (table, _absorbing(table))]
    if item.tags.get("cointerval"):
        c = CRule(ideal)
        ctable = TableRule(ideal, dict(c.table))
        out += [(c, _same_block(c)), (ctable, _absorbing(ctable))]
    return out


def test_chain_orders_match_reference(sample):
    compared = set()
    for item in sample:
        ideal = item.ideal
        for rule, bad in _rules_of(item):
            # the pairs the rule reads are those the old lazy reader read
            assert rule.absorbing == reference.absorbing(ideal, rule.table)
            for j in range(1, ideal.k + 1):
                sj = ideal.set_of(j)
                for size in range(min(len(sj), MAX_ALPHA) + 1):
                    for alpha in combinations(sj, size):
                        want = _reference_orders(ideal, rule, j, alpha, bad)
                        got = list(rule.permutations(j, alpha))
                        where = (item.name, type(rule).__name__, j, alpha)
                        assert [sigma for sigma, _ in got] == want, where
                        for sigma, vertices in got:
                            chain = ch_simplex(ideal, j, alpha, sigma, rule)
                            assert vertices == chain.vertices, where
            compared.add(type(rule).__name__)
    assert compared == {"BRule", "TableRule", "CRule"}


def test_chain_orders_on_running_example(running):
    rule = BRule(running)
    j = running.k  # x4*x5, set = (1, 2, 3)
    alpha = running.set_of(j)
    kept = [(1, 3, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    pairs = list(reference.chain_orders(rule, j, alpha))
    assert [sigma for sigma, _ in pairs] == kept
    for sigma, vertices in pairs:
        assert vertices == ch_simplex(running, j, alpha, sigma, rule).vertices
    assert list(reference.chain_orders(rule, j, alpha[::-1])) == pairs
    # a conflict on every pair leaves only the descending order
    everything = {t: {s for s in alpha if s < t} for t in alpha}
    only = list(reference.chain_orders(rule, j, alpha, everything))
    assert [sigma for sigma, _ in only] == [(3, 2, 1)]


def _cells(ideal):
    """Every (j, alpha) with alpha inside set(m_j), as build_ek_cw visits them."""
    for j in range(1, ideal.k + 1):
        sj = ideal.set_of(j)
        for size in range(len(sj) + 1):
            for alpha in combinations(sj, size):
                yield j, alpha


def _walked(rule, j, alpha):
    """What the reference walk gives: its pairs, or its refusal."""
    try:
        return list(reference.chain_orders(rule, j, alpha, rule._absorbed.get(j)))
    except VerificationError as err:
        return type(err), str(err)


def _read(rule, j, alpha):
    """What the rule's subset DP gives: its pairs, or its refusal."""
    try:
        return list(rule.permutations(j, alpha))
    except VerificationError as err:
        return type(err), str(err)


def test_subset_dp_equals_the_walk_on_every_cell(sample):
    # b, c on the cointerval items, and every admitted table for k <= 10
    kinds = set()
    for item in sample:
        ideal = item.ideal
        rules = [BRule(ideal)]
        if item.tags.get("cointerval"):
            rules.append(CRule(ideal))
        if ideal.k <= 10:
            rules += enumerate_regular_rules(ideal)
        for rule in rules:
            kinds.add(type(rule).__name__)
            for j, alpha in _cells(ideal):
                want = _walked(rule, j, alpha)
                assert _read(rule, j, alpha) == want, (item.name, j, alpha)
    assert kinds == {"BRule", "CRule", "TableRule"}


def test_subset_dp_refuses_as_the_walk_does(running):
    # a table is checked when the rule is built: a step to a later
    # generator keeps the walk's message, and every other bad entry is
    # refused too, where the walk would fail on it or never notice it
    k, n = running.k, running.n
    b = running.b_table()
    cases = {
        (7, 3, 0): "x_3 m_7 steps to m_0, which is not a generator",
        (7, 3, -1): "x_3 m_7 steps to m_-1, which is not a generator",
        (7, 3, k + 1): "x_3 m_7 steps to m_8, which is not a generator",
        (7, 3, 9): "x_3 m_7 steps to m_9, which is not a generator",
        (3, 3, 6): "x_3 m_3 steps to the later generator m_6",
        (7, 3, 1): "x_3 m_7 steps to m_1, which does not divide it",
        (0, 1, 1): "table entry (0, 1) names no x_t m_j",
        (k + 1, 1, 1): "table entry (8, 1) names no x_t m_j",
        (7, 0, 1): "table entry (7, 0) names no x_t m_j",
        (7, n + 1, 1): "table entry (7, 6) names no x_t m_j",
    }
    for (j, t, g), message in cases.items():
        with pytest.raises(VerificationError) as err:
            TableRule(running, {**b, (j, t): g})
        assert type(err.value) is VerificationError
        assert str(err.value) == message, (j, t, g)
    # of several bad entries, the least key is named, whatever the order
    with pytest.raises(VerificationError) as err:
        TableRule(running, {**b, (7, 3): 1, (4, 2): 0, (3, 3): 6})
    assert str(err.value) == "x_3 m_3 steps to the later generator m_6"
    # an entry that stays put passes, wherever it is
    assert TableRule(running, {**b, (7, 3): 7, (7, 4): 7}).apply(7, 4) == 7


def test_table_entries_that_are_not_ints_are_refused(running):
    # a key that is not a pair of ints, or a target that is not an int, is
    # refused before any entry is checked by value, wherever it would sort
    b = running.b_table()
    cases = [
        ({(7, 3): None}, "table entry (7, 3) -> None is not (j, t) -> g in ints"),
        ({(7, 3): 2.0}, "table entry (7, 3) -> 2.0 is not (j, t) -> g in ints"),
        ({(7, 3): True}, "table entry (7, 3) -> True is not (j, t) -> g in ints"),
        ({7: 1}, "table entry 7 -> 1 is not (j, t) -> g in ints"),
        ({(7, 3, 1): 1}, "table entry (7, 3, 1) -> 1 is not (j, t) -> g in ints"),
        ({(7.5, 3): 1}, "table entry (7.5, 3) -> 1 is not (j, t) -> g in ints"),
    ]
    for entries, message in cases:
        for table in (entries, {**b, **entries}, {**entries, (3, 3): 6}):
            with pytest.raises(VerificationError) as err:
                TableRule(running, table)
            assert type(err.value) is VerificationError
            assert str(err.value) == message, table


def test_seeded_tables_read_as_the_walk_does():
    # every product goes to a random admissible target, or stays put when
    # its entry is dropped: every cell reads as the walk reads it
    rng = random.Random(2026)
    tables = 0
    for item in gen_corpus()[::97]:
        ideal = item.ideal
        if not ideal.has_linear_quotients():
            continue
        slots = {}
        for j, sj in enumerate(ideal.set_table(), start=1):
            mj = ideal.gen(j)
            for t in sj:
                slots[(j, t)] = [
                    g for g in range(1, j) if ideal.gen(g).divides(mj.times_var(t))
                ]
        for _ in range(2):
            table = {
                key: rng.choice(cands)
                for key, cands in slots.items()
                if rng.random() < 0.8
            }
            rule = TableRule(ideal, table)
            for j, alpha in _cells(ideal):
                want = _walked(rule, j, alpha)
                assert list(rule.permutations(j, alpha)) == want, (item.name, table, j)
            tables += 1
    assert tables > 20


def test_rules_on_one_ideal_keep_their_own_orders(running):
    b = BRule(running)
    twin = CRule(running)  # c's table differs from b's at (6, 2)
    assert (b.table[(6, 2)], twin.table[(6, 2)]) == (4, 5)
    differ = 0
    for cell in _cells(running):  # the two rules read each cell in turn
        mine, theirs = list(b.permutations(*cell)), list(twin.permutations(*cell))
        assert mine == _walked(b, *cell), cell
        assert theirs == _walked(twin, *cell), cell
        differ += mine != theirs
    assert differ


@pytest.mark.parametrize(
    "alpha",
    [(4,), (1, 4), (3, 4, 1), (2, 2), (1, 2, 3, 5), (6, 7)],
    ids=["outside", "one-outside", "unsorted", "repeated", "superset", "past-n"],
)
def test_permutations_outside_set_is_the_walk(running, alpha):
    # alpha not a subset of set(m_7) = (1, 2, 3) is refused, as build_cell
    # and ch_simplex refuse it; set(m_7) itself still reads as the walk
    rule = BRule(running)
    j = running.k
    assert running.set_of(j) == (1, 2, 3)
    with pytest.raises(AlphaNotInSet, match=r"not inside set\(m_7\)"):
        rule.permutations(j, alpha)
    assert list(rule.permutations(j, running.set_of(j))) == _walked(
        rule, j, running.set_of(j)
    )


def _pairwise_closure(ideal):
    """lcm_lattice as it was first written: close the generators under
    pairwise lcm until nothing new appears."""
    current = set(ideal.gens)
    frontier = set(current)
    while frontier:
        fresh = set()
        for a in frontier:
            for b in list(current):
                m = a.lcm(b)
                if m not in current and m not in fresh:
                    fresh.add(m)
        current |= fresh
        frontier = fresh
    return sorted(current)


def test_lcm_lattice_matches_pairwise_closure(sample):
    for item in sample:
        assert lcm_lattice(item.ideal) == _pairwise_closure(item.ideal), item.name
    ideal = parse_ideal("x1^2*x2, x1*x2^3, x2*x3^2, x3^4")
    assert lcm_lattice(ideal) == _pairwise_closure(ideal)


def _direct_strands(labels, lattice):
    """_strands by testing every label against every lattice point."""
    strands = {}
    for b in lattice:
        member = 0
        for c, e in enumerate(labels):
            if all(x <= y for x, y in zip(e, b.e)):
                member |= 1 << c
        strands.setdefault(member, b)
    return strands


def _ideal(n, *gens):
    """The ideal on the given exponent tuples; a set is a 1-based support."""
    return OrderedIdeal(
        n,
        [
            Monomial.from_support(g, n) if isinstance(g, set) else Monomial(g)
            for g in gens
        ],
    )


@pytest.mark.parametrize(
    "ideal",
    [
        # x2 and x5 appear in no generator: fields of zero exponent
        _ideal(5, (2, 0, 1, 0, 0), (1, 0, 0, 3, 0), (0, 0, 2, 1, 0)),
        # exponents of 5 and more, some past one byte of the unary code
        _ideal(3, (5, 8, 0), (9, 0, 1), (0, 17, 0), (1, 9, 2), (6, 6, 6)),
        # n = 17: five squarefree generators and two with a square or more
        _ideal(
            17,
            {1, 2, 3},
            {3, 4, 5, 6},
            {6, 7, 8},
            {9, 10, 11},
            {13, 14, 15, 16, 17},
            (1,) + (0,) * 15 + (6,),
            (0,) * 11 + (1, 2) + (0,) * 4,
        ),
        # exponents past one byte, where the strand masks take the other path
        _ideal(2, (300, 0), (4, 1), (0, 255)),
    ],
    ids=["unused-variables", "large-exponents", "n17", "past-a-byte"],
)
def test_unary_code_edge_cases(ideal):
    lattice = lcm_lattice(ideal)
    assert lattice == _pairwise_closure(ideal)
    top = lattice[-1].e
    # labels of every kind: lattice points, and monomials off the lattice,
    # two of them above the top
    labels = [b.e for b in lattice[::3]] + [g.e for g in ideal.gens]
    labels += [(0,) * ideal.n, tuple(a + 1 for a in top), top[:-1] + (top[-1] + 1,)]
    assert _strands(labels, lattice)[0] == _direct_strands(labels, lattice)


def test_strand_check_call_counts(monkeypatch, running):
    # one lcm_lattice per ideal and one is_exact per distinct strand:
    # the calls behind the traced betti.lattice_points,
    # exact.is_exact_calls and betti.strands_checked
    lattices, exact_calls = [], []

    def counted_lattice(ideal):
        lattices.append(ideal)
        return lcm_lattice(ideal)

    def counted_exact(chain):
        exact_calls.append(chain)
        return is_exact(chain)

    monkeypatch.setattr(betti, "lcm_lattice", counted_lattice)
    monkeypatch.setattr(betti, "is_exact", counted_exact)
    maximal = parse_ideal(", ".join("x%d" % i for i in range(1, 6)))
    cases = ((running, True), (_complete_2graph(5), True), (maximal, False))
    for ideal, cointerval in cases:
        ideal = OrderedIdeal(ideal.n, ideal.gens)  # no lattice kept yet
        complexes = [build_ek_cw(ideal)]
        if cointerval:
            complexes.append(build_hom_complex(dgraph_of_ideal(ideal), ideal.n))
        for X in complexes:
            del exact_calls[:]
            assert check_cellular_resolution(X, ideal) == (True, None)
            cells = [label for _, _, label in X.cells_with_labels()]
            distinct = {
                frozenset(c for c, label in enumerate(cells) if label.divides(b))
                for b in lcm_lattice(ideal)
            }
            assert len(exact_calls) == len(distinct)
        del exact_calls[:]
        assert check_cellular_resolution(TaylorSupport(ideal), ideal) == (True, None)
        assert exact_calls == []
        assert lattices == [ideal]
        del lattices[:]


def _complete_2graph(n):
    return edge_ideal(DGraph.from_edges(2, list(combinations(range(1, n + 1), 2))), n=n)


def test_ek_and_hom_checks_build_one_lattice(monkeypatch):
    built = []

    def counted(ideal):
        built.append(ideal)
        return lcm_lattice(ideal)

    monkeypatch.setattr(betti, "lcm_lattice", counted)
    ideal = _complete_2graph(5)
    H = build_hom_complex(dgraph_of_ideal(ideal), ideal.n)
    assert check_cellular_resolution(build_ek_cw(ideal), ideal) == (True, None)
    assert check_cellular_resolution(H, ideal) == (True, None)
    assert built == [ideal]
    # an equal ideal is another object, with a lattice of its own
    assert check_cellular_resolution(H, OrderedIdeal(ideal.n, ideal.gens)) == (True, None)
    assert len(built) == 2


def test_kept_lattice_is_out_of_callers_reach():
    ideal = _complete_2graph(5)
    X = build_ek_cw(ideal)
    top = max(X.cells, key=lambda key: (len(key[1]), key))
    cells = {key: (dim, label) for key, dim, label in X.cells_with_labels() if key != top}
    Y = LabeledCellComplex(cells, {key: X.topo_boundary(key) for key in cells})
    want = check_cellular_resolution(Y, OrderedIdeal(ideal.n, ideal.gens))
    assert not want[0]
    # a returned lattice cut down before the first check, and after it
    lattice = lcm_lattice(ideal)
    del lattice[:-1]
    assert check_cellular_resolution(Y, ideal) == want
    lattice = lcm_lattice(ideal)
    assert lattice == _pairwise_closure(ideal)
    lattice.clear()
    assert check_cellular_resolution(Y, ideal) == want
    assert check_cellular_resolution(X, ideal) == (True, None)
    assert lcm_lattice(ideal) == _pairwise_closure(ideal)


def test_strand_masks_match_divisibility(sample):
    checked = 0
    for item in sample:
        ideal = item.ideal
        if not check_regularity(ideal).regular:
            continue
        cells = list(build_ek_cw(ideal).cells_with_labels())
        lattice = lcm_lattice(ideal)
        want = {}
        for b in lattice:
            member = frozenset(key for key, _, label in cells if label.divides(b))
            want.setdefault(member, b)
        got = {
            frozenset(key for c, (key, _, _) in enumerate(cells) if mask >> c & 1): b
            for mask, b in _strands([label.e for _, _, label in cells], lattice)[0].items()
        }
        assert got == want, item.name
        checked += 1
    assert checked > 10


def test_monomial_public_constructor_still_validates():
    with pytest.raises(ValueError):
        Monomial((1, -1))
    a, b = Monomial((2, 0, 1)), Monomial((1, 1, 0))
    for m in (a * b, a.lcm(b), a.gcd(b), a.times_var(2), (a * b) // b):
        assert m == Monomial(m.e)
        assert all(type(x) is int and x >= 0 for x in m.e)
    with pytest.raises(ValueError):
        a // b


def test_maximal_ideal_enumerates_only_kept_chains():
    # Counts, not times: every order the rule yields is glued into a cell.
    # Enumerating all |alpha|! orders would yield
    # sum_j sum_p C(j-1, p) p! = 16072 instead of 255.
    ideal = parse_ideal(", ".join("x%d" % i for i in range(1, 9)))
    rule = BRule(ideal)
    X = build_ek_cw(ideal, rule)
    assert len(X.cells) == 255
    yielded = sum(len(list(rule.permutations(j, alpha))) for (j, alpha) in X.cells)
    kept = sum(len(cell.simplices) for cell in X.cells.values())
    assert yielded == kept == 255
