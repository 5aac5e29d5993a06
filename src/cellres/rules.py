"""The space of decomposition rules for a fixed linear-quotient order.

A rule is a finite table sending each admissible product x_t m_j (t in
set(m_j)) to an earlier generator dividing it, and nothing more: its
absorbing pairs are read off the table by the one pair law of ideals.
A table is admitted when every pair s < t in every set(m_j) either
commutes (the two application orders agree) or absorbs (applying s
after t lands where applying s alone does, i.e. the later variable's
effect is overwritten); the canonical first-divisor rule b and the
cointerval replacement rule c are two of them.  Admitted tables are
final-filtered by d o d = 0 of the differential they induce.

Absorbing pairs shape both the algebra and the geometry: an absorbed
variable contributes no rule term to the differential, and the glued
cells use only the chain orders that apply the larger variable of an
absorbing pair first.
"""

from itertools import combinations
from math import prod

from .chain import (
    TableRule,
    _steps_down,
    check_dd_zero,
    check_minimal,
    compare_up_to_degree_signs,
    resolution_from_rule,
)
from .ekcells import build_ek_cw, cellular_chain_complex
from .errors import (
    MismatchWithAlgebraicDifferential,
    SearchSpaceTooLarge,
)
from .ideals import _pair_law
from .poset import complex_fingerprint


def enumerate_regular_rules(ideal, bound=100000):
    """All admitted rule tables, in lexicographic table order.

    Entries are searched depth-first by (generator, variable); the
    pairwise commute-or-absorb law is enforced as soon as all four table
    entries it mentions are fixed, and completed tables are kept only if
    the differential they induce squares to zero and is minimal.  Each
    kept rule carries that checked complex as its `resolution`.

    Despite the name, regularity (set(g) a subset of set(m_j) for every
    entry (j, t) -> g) is not one of the admission tests, so irregular
    tables are admitted too.
    """
    table = ideal.set_table()
    # t in set(m_j) makes x_t = m_g / gcd(m_g, m_j) for some g < j, and
    # that m_g divides x_t m_j: no candidate list is empty
    slots = [
        ((j, t), [g for g in range(1, j) if _steps_down(ideal.gens, j, t, g)])
        for j in range(1, ideal.k + 1)
        for t in table[j - 1]
    ]
    if prod(len(cands) for _, cands in slots) > bound:
        raise SearchSpaceTooLarge("rule space has more than %d candidates" % bound)
    gen_end = {j: pos for pos, ((j, _), _) in enumerate(slots)}
    out = []

    def pairs_ok(assignment, j):
        return all(
            any(_pair_law(assignment, j, s, t))
            for s, t in combinations(table[j - 1], 2)
        )

    def search(pos, assignment):
        if pos == len(slots):
            rule = TableRule(ideal, dict(assignment))
            cx = resolution_from_rule(ideal, rule)
            ok, _ = check_dd_zero(cx)
            if ok and check_minimal(cx):
                rule.resolution = cx
                out.append(rule)
            return
        (j, t), cands = slots[pos]
        for g in cands:
            assignment[(j, t)] = g
            if gen_end[j] != pos or pairs_ok(assignment, j):
                search(pos + 1, assignment)
            del assignment[(j, t)]

    search(0, {})
    return out


def complex_for_rule(ideal, rule):
    """Run the full geometric pipeline with the rule in place of the
    canonical one and verify that the cellular complex equals the
    algebraic differential entry by entry, signs included; the algebraic
    side is the rule's own `resolution` when it carries one."""
    X = build_ek_cw(ideal, rule)
    cellular = cellular_chain_complex(X)
    algebraic = rule.resolution
    if algebraic is None or rule.ideal != ideal:
        algebraic = resolution_from_rule(ideal, rule)
    ok, why = compare_up_to_degree_signs(cellular, algebraic)
    if not ok:
        raise MismatchWithAlgebraicDifferential(str(why))
    return X


def rule_family(ideal, bound=100000):
    """Admitted rules with their complexes and fingerprints, grouped by
    combinatorial type; `cellres enumerate-rules` prints this family.

    Returns (rules, types) where types maps fingerprint -> sorted list of
    rule positions in first-seen order, and rules[i] is (TableRule,
    CWComplexEK, fingerprint).  A lone rule is its own type: when the
    family has one rule its fingerprint is None and no canonical form is
    computed.
    """
    rules = enumerate_regular_rules(ideal, bound)
    enriched = []
    types = {}
    for i, rule in enumerate(rules):
        X = complex_for_rule(ideal, rule)
        fp = complex_fingerprint(X) if len(rules) > 1 else None
        enriched.append((rule, X, fp))
        types.setdefault(fp, []).append(i)
    return enriched, types
