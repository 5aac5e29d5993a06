"""One rule type, one pair law and one cells-to-symbols path, checked
against the classes and functions they replace, kept here as references:
the old BRule / CRule, a per-query TableRule reading its absorbing pairs
by the absorb law, the old regularity loop, the two old copies of the
pair law (in tests/reference.py), and the two old cell-complex-to-symbol
functions with their own sign normalization."""

from itertools import combinations

import pytest

from cellres import ekcells, ideals
from cellres.chain import (
    BRule,
    LabeledChainComplex,
    Symbol,
    TableRule,
    UNIT,
    compare_up_to_degree_signs,
    ht_resolution,
    resolution_from_rule,
)
from cellres.cointerval import (
    CRule,
    DGraph,
    _c_exponents,
    _hom_faces,
    build_hom_complex,
    dgraph_of_ideal,
    edge_ideal,
    hom_chain_complex,
    partition_A,
    symbol_of_face,
)
from cellres.corpus import gen_corpus
from cellres.ekcells import build_ek_cw, cellular_chain_complex, classify_facet
from cellres.errors import NotCointerval, VerificationError
from cellres.ideals import OrderedIdeal, RegularityReport, check_regularity, parse_ideal
from cellres.monomial import Monomial
from cellres import rules
from cellres.rules import enumerate_regular_rules
import reference
from reference import b_of


@pytest.fixture(scope="module")
def corpus():
    return gen_corpus()


@pytest.fixture(scope="module")
def sample(corpus):
    return corpus[::13] + corpus[-2:]


# -- the rule classes, as they were --------------------------------------------


class OldBRule:
    def __init__(self, ideal):
        self.ideal = ideal

    def apply(self, j, t):
        return self.ideal.decomp_b(self.ideal.gen(j).times_var(t))

    def tset(self, j, alpha):
        return alpha

    def permutations(self, j, alpha):
        return reference.chain_orders(self, j, alpha)


class OldCRule:
    def __init__(self, ideal):
        self.ideal = ideal

    def apply(self, j, t):
        if t not in self.ideal.set_of(j):
            return j
        m = self.ideal.gen(j)
        target = _c_exponents(m.e, t)
        if target is None:
            raise NotCointerval(
                "no support variable of %s lies at or above x_%d" % (m, t)
            )
        g = self.ideal.exponent_index.get(target)
        if g is None:
            raise NotCointerval(
                "c(x_%d m_%d) = %s is not a generator" % (t, j, Monomial._raw(target))
            )
        return g

    def tset(self, j, alpha):
        out = []
        for block in partition_A(self.ideal, j):
            hit = set(alpha) & set(block)
            if hit:
                out.append(max(hit))
        return tuple(sorted(out))

    def permutations(self, j, alpha):
        same_block = {
            t: {s for s in block if s < t}
            for block in partition_A(self.ideal, j)
            for t in block
        }
        return reference.chain_orders(self, j, alpha, same_block)


class OldTableRule:
    def __init__(self, ideal, table):
        self.ideal = ideal
        self.table = dict(table)

    def apply(self, j, t):
        return self.table.get((j, t), j)

    def absorbs(self, j, s, t):
        return self.apply(self.apply(j, t), s) == self.apply(j, s)

    def tset(self, j, alpha):
        return tuple(
            t
            for t in alpha
            if not any(t2 > t and self.absorbs(j, t, t2) for t2 in alpha)
        )

    def permutations(self, j, alpha):
        conflict = {
            t: {s for s in alpha if s < t and self.absorbs(j, s, t)} for t in alpha
        }
        return reference.chain_orders(self, j, alpha, conflict)


def _assert_same_rule(ideal, new, old, name):
    for j in range(1, ideal.k + 1):
        for t in range(1, ideal.n + 1):
            assert new.apply(j, t) == old.apply(j, t), (name, j, t)
        sj = ideal.set_of(j)
        for size in range(len(sj) + 1):
            for alpha in combinations(sj, size):
                assert tuple(new.tset(j, alpha)) == tuple(old.tset(j, alpha)), (
                    name,
                    j,
                    alpha,
                )
                assert list(new.permutations(j, alpha)) == list(
                    old.permutations(j, alpha)
                ), (name, j, alpha)


def test_one_class_defines_the_rule_protocol():
    for name in ("apply", "tset", "permutations"):
        assert name in vars(TableRule)
    assert "apply" not in vars(BRule) and "tset" not in vars(BRule)
    assert "apply" not in vars(CRule) and "tset" not in vars(CRule)
    assert BRule.permutations is TableRule.permutations
    assert CRule.permutations is TableRule.permutations
    assert rules.TableRule is TableRule


def test_brule_matches_old(sample):
    # b now carries the pairs its table absorbs, which the old b did not;
    # the resolution and the glued complex stay the same, also on max7,
    # where every pair of b absorbs, and on K2 on [7] (70 of 105 pairs)
    K2 = DGraph.from_edges(2, combinations(range(1, 8), 2))
    named = [("max7", parse_ideal(", ".join("x%d" % i for i in range(1, 8))))]
    named.append(("K2_7", edge_ideal(K2, n=7)))
    regular = 0
    for name, ideal in [(item.name, item.ideal) for item in sample] + named:
        new, old = BRule(ideal), OldBRule(ideal)
        for j in range(1, ideal.k + 1):
            for t in range(1, ideal.n + 1):
                assert new.apply(j, t) == old.apply(j, t), (name, j, t)
        _assert_same_complex(
            resolution_from_rule(ideal, new), resolution_from_rule(ideal, old), name
        )
        if check_regularity(ideal).regular:
            X, Y = build_ek_cw(ideal, new), build_ek_cw(ideal, old)
            assert X.cells == Y.cells and X.boundary == Y.boundary, name
            regular += 1
    assert 2 < regular < len(sample)  # regular and irregular b both covered
    assert BRule(named[0][1]).absorbing == {
        (j, s, t) for j in range(1, 8) for s, t in combinations(range(1, j), 2)
    }


def test_crule_matches_old(sample):
    seen = 0
    for item in sample:
        if item.tags.get("cointerval"):
            ideal = item.ideal
            _assert_same_rule(ideal, CRule(ideal), OldCRule(ideal), item.name)
            seen += 1
    assert seen > 10


def test_tabulated_rules_match_old_tables(sample):
    for item in sample:
        ideal = item.ideal
        pairs = [(BRule(ideal), OldBRule(ideal))]
        if item.tags.get("cointerval"):
            pairs.append((CRule(ideal), OldCRule(ideal)))
        for rule, old in pairs:
            table = TableRule(ideal, dict(rule.table))
            tabulated = {
                (j, t): old.apply(j, t)
                for j in range(1, ideal.k + 1)
                for t in ideal.set_of(j)
            }
            reference = OldTableRule(ideal, tabulated)
            assert table.key() == tuple(sorted(reference.table.items()))
            _assert_same_rule(ideal, table, reference, item.name)


def _old_law(table, j, s, t):
    """(commutes, absorbs) as the old admission read them: commute wins."""
    kind = reference.pair_kind(table, j, s, t)
    return kind == "commute", kind == "absorb"


def test_enumerated_rules_match_old_tables(running, example1, monkeypatch):
    # the `3 6` d-graph of test_cli.py, whose 5 rules glue by the absorb law
    edges = [(1, 2, 3), (1, 2, 6), (1, 3, 6), (1, 5, 6), (2, 5, 6), (3, 5, 6), (4, 5, 6)]
    graph = edge_ideal(DGraph.from_edges(3, edges), n=6)
    for ideal in (running, example1, graph):
        found = enumerate_regular_rules(ideal)
        assert found
        for rule in found:
            _assert_same_rule(ideal, rule, OldTableRule(ideal, rule.table), str(ideal))
            assert rule.absorbing == reference.absorbing(ideal, rule.table)
        with monkeypatch.context() as m:
            m.setattr(rules, "_pair_law", _old_law)
            old = enumerate_regular_rules(ideal)
        assert [r.key() for r in found] == [r.key() for r in old], str(ideal)
    assert len(found) == 5


def test_brule_shares_one_b_table(running, corpus, monkeypatch):
    table = running.b_table()
    assert BRule(running).table is table
    # x_3 m_3 -> m_2 -> x_2 m_2 -> m_1 = b(x_2 m_3), and likewise on m_5
    assert BRule(running).absorbing == {(3, 2, 3), (5, 1, 3)}
    for (j, t), g in table.items():
        assert g == running.decomp_b(running.gen(j).times_var(t))
    # b's pairs are read once per ideal, however many BRules the callers
    # build: count every evaluation of the pair law on a fresh ideal
    name, ideal = next(
        (item.name, OrderedIdeal(item.ideal.n, item.ideal.gens))
        for item in corpus
        if item.ideal.has_linear_quotients()
        and check_regularity(item.ideal).regular
        and len(BRule(item.ideal).absorbing) > 3
    )
    reads = []
    law = ideals._pair_law

    def counted(table, j, s, t):
        reads.append((j, s, t))
        return law(table, j, s, t)

    monkeypatch.setattr(ideals, "_pair_law", counted)
    b_rules = [BRule(ideal) for _ in range(3)]
    ht_resolution(ideal)  # its regularity star test reads every pair too
    X = build_ek_cw(ideal)
    chain = X.cells[(ideal.k, ideal.set_of(ideal.k))].simplices[0]
    for dropped in range(len(chain.vertices)):
        classify_facet(ideal, chain, dropped)
    pairs = [
        (j, s, t)
        for j, sj in enumerate(ideal.set_table(), start=1)
        for s, t in combinations(sj, 2)
    ]
    assert sorted(reads) == sorted(pairs + pairs), name
    assert all(rule._absorbed is ideal.b_absorbed() for rule in b_rules)


def test_crule_absorbs_same_block_pairs(running):
    want = {
        (j, s, t)
        for j in range(1, running.k + 1)
        for block in partition_A(running, j)
        for s, t in combinations(block, 2)
    }
    assert CRule(running).absorbing == want


def test_absorb_law_on_the_c_table_is_partition_A(corpus):
    # partition_A is an independent oracle for the absorb law on the c
    # table, wherever its blocks partition set(m_j)
    checked = missed = 0
    for item in corpus:
        ideal = item.ideal
        if not ideal.has_linear_quotients():
            continue
        try:
            pairs = CRule(ideal).absorbing
        except NotCointerval:
            continue
        for j in range(1, ideal.k + 1):
            try:
                blocks = partition_A(ideal, j)
            except VerificationError:
                missed += 1
                continue
            got = {(s, t) for i, s, t in pairs if i == j}
            assert got == {p for b in blocks for p in combinations(b, 2)}, item.name
            checked += 1
    assert checked > 30000 and missed > 100


def test_a_bare_c_table_is_the_c_rule(corpus):
    # read "commute wins", a bare copy of the c table lost pairs on most
    # cointerval ideals and failed to glue on some
    glued = 0
    for i, item in enumerate(c for c in corpus if c.tags.get("cointerval")):
        ideal = item.ideal
        c = CRule(ideal)
        bare = TableRule(ideal, dict(c.table))
        assert bare.absorbing == c.absorbing, item.name
        if i % 4 == 0:
            assert c.absorbing == reference.absorbing(ideal, c.table), item.name
        if i % 8 == 0:
            cellular = cellular_chain_complex(build_ek_cw(ideal, bare))
            assert compare_up_to_degree_signs(
                cellular, resolution_from_rule(ideal, c)
            ) == (True, None), item.name
            glued += 1
    assert glued > 400


def _outcome(rule_class, ideal, *args):
    """The rule's c-table and tsets, or the error it raises on the way:
    the old rule raised lazily, the new one raises when it is built."""
    try:
        rule = rule_class(ideal, *args)
        table = [
            rule.apply(j, t) for j in range(1, ideal.k + 1) for t in ideal.set_of(j)
        ]
        tsets = [rule.tset(j, ideal.set_of(j)) for j in range(1, ideal.k + 1)]
        return table, tsets
    except (NotCointerval, VerificationError) as e:
        return type(e).__name__, str(e)


def test_crule_refuses_like_old(sample):
    # where partition_A's blocks miss set(m_j) the old rule raised
    # VerificationError; the new one reads its pairs off its c table and
    # builds, with the old table
    refused, built = set(), 0
    for item in sample:
        ideal = item.ideal
        if item.tags.get("cointerval") or not ideal.has_linear_quotients():
            continue
        if len({g.degree() for g in ideal.gens}) != 1:
            continue
        old = _outcome(OldCRule, ideal)
        got = _outcome(CRule, ideal)
        if old[0] == "VerificationError":
            c = OldCRule(ideal)
            table = {
                (j, t): c.apply(j, t)
                for j in range(1, ideal.k + 1)
                for t in ideal.set_of(j)
            }
            assert got == _outcome(OldTableRule, ideal, table), item.name
            built += 1
            continue
        assert got == old, item.name
        if isinstance(old[0], str):
            refused.add(old[0])
    assert refused == {"NotCointerval"} and built


# -- regularity through the shared b-table ------------------------------------


def _old_check_regularity(ideal):
    table = ideal.set_table()
    witnesses = []
    star_witnesses = []
    for j in range(1, ideal.k + 1):
        mj = ideal.gen(j)
        sj = set(table[j - 1])
        for t in table[j - 1]:
            bt = ideal.decomp_b(mj.times_var(t))
            if not set(table[bt - 1]) <= sj:
                witnesses.append((j, t))
        for a_idx, s in enumerate(table[j - 1]):
            for t in table[j - 1][a_idx + 1 :]:
                bt = b_of(ideal, mj.times_var(t))
                bs = b_of(ideal, mj.times_var(s))
                left = ideal.decomp_b(bt.times_var(s))
                right = ideal.decomp_b(bs.times_var(t))
                if left != right:
                    star_witnesses.append((j, s, t))
    return RegularityReport(
        regular=not witnesses,
        witnesses=witnesses,
        star_commutes=not star_witnesses,
        star_witnesses=star_witnesses,
    )


def test_regularity_matches_old_loop(corpus):
    irregular = star_failures = 0
    for item in corpus[::5]:
        new = check_regularity(item.ideal)
        assert new == _old_check_regularity(item.ideal), item.name
        irregular += not new.regular
        star_failures += not new.star_commutes
    assert irregular and star_failures
    # on b of every 4th linear-quotient corpus ideal, regular or not, the
    # one pair law reads what its two old copies read: star witnesses and
    # absorbing pairs (a regular b has no star witness)
    lq = [item for item in corpus if item.ideal.has_linear_quotients()]
    regular = star_failures = 0
    for item in lq[::4]:
        ideal = item.ideal
        report = check_regularity(ideal)
        assert report.star_witnesses == reference.star_witnesses(ideal), item.name
        assert BRule(ideal).absorbing == reference.absorbing(ideal, ideal.b_table())
        regular += report.regular
        star_failures += not report.star_commutes
    assert regular > 400 and star_failures > 100


# -- cells to symbols, as it was -----------------------------------------------


def _old_cellular_chain_complex(X):
    ideal = X.ideal
    n = ideal.n
    by_dim = {}
    for (j, alpha) in X.cells:
        by_dim.setdefault(len(alpha), []).append((j, alpha))
    top = max(by_dim) if by_dim else 0
    basis = [[UNIT]]
    mdeg = [[Monomial.one(n)]]
    for dim in range(top + 1):
        level = sorted(by_dim.get(dim, []))
        basis.append([Symbol(j, alpha) for (j, alpha) in level])
        mdeg.append([X.label(key) for key in level])
    diff = [dict() for _ in basis]
    index = [{s: i for i, s in enumerate(level)} for level in basis]
    for c, sym in enumerate(basis[1]):
        diff[1][(0, c)] = (1, ideal.gen(sym.gen))
    for dim in range(1, top + 1):
        deg = dim + 1
        raw = {}
        for (j, alpha) in by_dim.get(dim, []):
            col = index[deg][Symbol(j, alpha)]
            for target, sign in X.boundary[(j, alpha)]:
                row = index[deg - 1][Symbol(target[0], target[1])]
                raw[(row, col)] = (sign, X.label((j, alpha)) // X.label(target))
        flip = 1
        for (j, alpha) in sorted(by_dim.get(dim, [])):
            tmax = alpha[-1]
            ref = (j, tuple(x for x in alpha if x != tmax))
            col = index[deg][Symbol(j, alpha)]
            row = index[deg - 1][Symbol(ref[0], ref[1])]
            if (row, col) in raw:
                want = 1 if len(alpha) % 2 == 0 else -1
                flip = want * raw[(row, col)][0]
                break
        for key, (sign, coeff) in raw.items():
            diff[deg][key] = (flip * sign, coeff)
    return LabeledChainComplex(n, basis, mdeg, diff)


def _old_hom_chain_complex(X, ideal):
    n = ideal.n
    top = max(X.by_dim)
    basis = [[UNIT]]
    mdeg = [[Monomial.one(n)]]
    face_of = {}
    for dim in range(top + 1):
        level = []
        for cell in X.by_dim.get(dim, ()):
            sym = symbol_of_face(ideal, cell)
            face_of[sym] = cell
            level.append(sym)
        level.sort()
        basis.append(level)
        mdeg.append([X.label(face_of[s]) for s in level])
    index = [{s: i for i, s in enumerate(level)} for level in basis]
    diff = [dict() for _ in basis]
    for c, sym in enumerate(basis[1]):
        diff[1][(0, c)] = (1, ideal.gen(sym.gen))
    for dim in range(1, top + 1):
        deg = dim + 1
        raw = {}
        for sym in basis[deg]:
            cell = face_of[sym]
            col = index[deg][sym]
            label = X.label(cell)
            for face, sign, _ in _hom_faces(cell):
                fsym = symbol_of_face(ideal, face)
                raw[(index[deg - 1][fsym], col)] = (sign, label // X.label(face))
        flip = 1
        for sym in basis[deg]:
            tmax = sym.alpha[-1]
            ref = Symbol(sym.gen, tuple(x for x in sym.alpha if x != tmax))
            key = (index[deg - 1][ref], index[deg][sym])
            if key in raw:
                want = 1 if len(sym.alpha) % 2 == 0 else -1
                flip = want * raw[key][0]
                break
        for key, (sign, coeff) in raw.items():
            diff[deg][key] = (flip * sign, coeff)
    return LabeledChainComplex(n, basis, mdeg, diff)


def _assert_same_complex(new, old, name):
    assert new.basis == old.basis, name
    assert new.mdeg == old.mdeg, name
    # same entries in the same order, so serializers see the same complex
    assert [list(d.items()) for d in new.diff] == [
        list(d.items()) for d in old.diff
    ], name


def test_symbol_paths_match_old(sample, running):
    items = [(item.name, item.ideal, item.tags.get("cointerval")) for item in sample]
    items.append(("running", running, True))
    ek = hom = 0
    for name, ideal, cointerval in items:
        if check_regularity(ideal).regular:
            X = build_ek_cw(ideal)
            _assert_same_complex(
                cellular_chain_complex(X), _old_cellular_chain_complex(X), name
            )
            ek += 1
        if cointerval:
            H = build_hom_complex(dgraph_of_ideal(ideal), ideal.n)
            _assert_same_complex(
                hom_chain_complex(H, ideal), _old_hom_chain_complex(H, ideal), name
            )
            hom += 1
    assert ek > 10 and hom > 10


# -- one label per cell --------------------------------------------------------


def test_build_ek_cw_computes_each_label_once(monkeypatch):
    calls = []
    original = ekcells.cell_label

    def counted(ideal, j, alpha):
        calls.append((j, alpha))
        return original(ideal, j, alpha)

    monkeypatch.setattr(ekcells, "cell_label", counted)
    for k in (7, 8):
        del calls[:]
        ideal = parse_ideal(", ".join("x%d" % i for i in range(1, k + 1)))
        X = build_ek_cw(ideal)
        cellular_chain_complex(X)
        assert len(X.cells) == 2**k - 1
        assert len(calls) == len(X.cells)
        assert sorted(calls) == sorted(X.cells)
