"""The space of decomposition rules for a fixed linear-quotient order.

A rule is a finite table sending each admissible product x_t m_j (t in
set(m_j)) to an earlier generator dividing it.  A rule is admitted when
every pair s < t in every set(m_j) either commutes (the two application
orders agree) or absorbs (applying s after t lands where applying s alone
does, i.e. the later variable's effect is overwritten); the canonical
first-divisor rule is all-commuting, the cointerval replacement rule
absorbs within blocks.  Admitted tables are final-filtered by d o d = 0
of the differential they induce.

Absorbing pairs shape both the algebra and the geometry: an absorbed
variable contributes no rule term to the differential, and the glued
cells use only the chain orders that apply the larger variable of an
absorbing pair first.
"""

from itertools import combinations

from .chain import (
    TableRule,
    check_dd_zero,
    check_minimal,
    compare_up_to_degree_signs,
    resolution_from_rule,
)
from .ekcells import build_ek_cw, cellular_chain_complex
from .errors import (
    MismatchWithAlgebraicDifferential,
    SearchSpaceTooLarge,
    VerificationError,
)
from .ideals import _pair_kind
from .poset import complex_fingerprint


def _table_rule(ideal, table):
    """The rule of a bare table, its absorbing pairs read off the
    commute-or-absorb classification."""
    absorbing = [
        (j, s, t)
        for j in range(1, ideal.k + 1)
        for s, t in combinations(ideal.set_of(j), 2)
        if _pair_kind(table, j, s, t) == "absorb"
    ]
    return TableRule(ideal, table, absorbing)


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
    slots = []
    for j in range(1, ideal.k + 1):
        mj = ideal.gen(j)
        for t in table[j - 1]:
            target = mj.times_var(t)
            cands = [
                g for g in range(1, j) if ideal.gen(g).divides(target)
            ]
            if not cands:
                raise VerificationError(
                    "no earlier generator divides x_%d m_%d" % (t, j)
                )
            slots.append(((j, t), cands))
    size = 1
    for _, cands in slots:
        size *= len(cands)
        if size > bound:
            raise SearchSpaceTooLarge(
                "rule space has more than %d candidates" % bound
            )
    gen_end = {}
    for pos, ((j, _), _) in enumerate(slots):
        gen_end[j] = pos
    out = []

    def pairs_ok(assignment, j):
        return all(
            _pair_kind(assignment, j, s, t) is not None
            for s, t in combinations(table[j - 1], 2)
        )

    def search(pos, assignment):
        if pos == len(slots):
            rule = _table_rule(ideal, dict(assignment))
            cx = resolution_from_rule(ideal, rule)
            ok, _ = check_dd_zero(cx)
            if ok and check_minimal(cx):
                rule.resolution = cx
                out.append(rule)
            return
        (j, t), cands = slots[pos]
        for g in cands:
            assignment[(j, t)] = g
            if gen_end[j] == pos and not pairs_ok(assignment, j):
                del assignment[(j, t)]
                continue
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


def combinatorial_type(X):
    """Canonical fingerprint of the face poset; equal iff isomorphic."""
    return complex_fingerprint(X)


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
        fp = combinatorial_type(X) if len(rules) > 1 else None
        enriched.append((rule, X, fp))
        types.setdefault(fp, []).append(i)
    return enriched, types
