import pytest

from cellres.betti import check_cellular_resolution
from cellres.chain import BRule, TableRule, compare_up_to_degree_signs
from cellres.cointerval import CRule
from cellres.corpus import gen_corpus
from cellres.ekcells import build_ek_cw, cellular_chain_complex
from cellres.errors import OrientationClash, SearchSpaceTooLarge
from cellres.ideals import parse_ideal
from cellres.poset import complex_fingerprint, poset_fingerprint
from cellres.rules import complex_for_rule, enumerate_regular_rules, rule_family


def test_poset_fingerprint_relabeling_invariance():
    tri1 = {"T": ["a", "b", "c"], "a": ["u", "v"], "b": ["v", "w"], "c": ["u", "w"]}
    tri2 = {"X": ["p", "q", "r"], "p": ["s", "t"], "q": ["t", "z"], "r": ["s", "z"]}
    assert poset_fingerprint(tri1) == poset_fingerprint(tri2)


def test_poset_fingerprint_distinguishes():
    path = {"e1": ["a", "b"], "e2": ["b", "c"]}
    fork = {"e1": ["a", "b"], "e2": ["a", "c"]}
    # path and fork on three vertices are isomorphic as posets (both are
    # two edges sharing one vertex); a triangle is not
    assert poset_fingerprint(path) == poset_fingerprint(fork)
    cycle = {"e1": ["a", "b"], "e2": ["b", "c"], "e3": ["a", "c"]}
    assert poset_fingerprint(path) != poset_fingerprint(cycle)


def test_b_and_c_rules_are_enumerated(running):
    rules = enumerate_regular_rules(running)
    keys = {rule.key() for rule in rules}
    assert BRule(running).key() in keys
    assert CRule(running).key() in keys


def test_enumeration_maximal_ideal(maximal4):
    rules = enumerate_regular_rules(maximal4)
    assert len(rules) == 1


def test_enumeration_single_generator():
    rules = enumerate_regular_rules(parse_ideal("x1*x2*x3"))
    assert len(rules) == 1
    assert rules[0].table == {}


def test_enumeration_bound():
    with pytest.raises(SearchSpaceTooLarge):
        enumerate_regular_rules(parse_ideal("x1*x2, x1*x3, x2*x3"), bound=1)


def test_family_contains_both_types(running):
    enriched, types = rule_family(running)
    assert len(types) >= 2
    b_key = BRule(running).key()
    c_key = CRule(running).key()
    fp = {}
    for rule, X, fingerprint in enriched:
        fp[rule.key()] = fingerprint
    assert fp[b_key] != fp[c_key]
    # same f-vector (Betti numbers), different combinatorial type
    for _, X, _ in enriched:
        assert X.f_vector() == (7, 11, 6, 1)


def test_every_enumerated_rule_verifies(running):
    for rule in enumerate_regular_rules(running):
        X = complex_for_rule(running, rule)
        ok, witness = check_cellular_resolution(X, running)
        assert ok, witness


def test_c_complex_is_hom_complex_type(running):
    from cellres.cointerval import build_hom_complex, dgraph_of_ideal

    c_table = TableRule(running, dict(CRule(running).table))
    Xc = complex_for_rule(running, c_table)
    H = build_hom_complex(dgraph_of_ideal(running))
    assert complex_fingerprint(Xc) == complex_fingerprint(H)
    Xb = build_ek_cw(running)
    assert complex_fingerprint(Xb) != complex_fingerprint(H)


def test_every_glued_rule_complex_equals_its_resolution_exactly():
    """Each admitted rule of a corpus sample either cannot be glued or
    glues a complex whose cellular chain complex is the rule's own
    resolution, signs included."""
    glued = 0
    for item in gen_corpus()[::17]:
        ideal = item.ideal
        if ideal.k > 10:
            continue
        rules = enumerate_regular_rules(ideal)
        if len(rules) < 2:
            continue
        for rule in rules:
            try:
                X = complex_for_rule(ideal, rule)
            except OrientationClash:  # raised by build_ek_cw
                continue
            cellular = cellular_chain_complex(X)
            assert compare_up_to_degree_signs(cellular, rule.resolution) == (True, None)
            assert cellular.basis == rule.resolution.basis
            assert cellular.diff == rule.resolution.diff
            glued += 1
    assert glued > 600
