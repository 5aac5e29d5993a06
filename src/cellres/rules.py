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

from .chain import (
    BRule,
    chain_orders,
    check_dd_zero,
    check_minimal,
    resolution_from_rule,
)
from .ekcells import build_ek_cw, cellular_chain_complex
from .errors import (
    MismatchWithAlgebraicDifferential,
    SearchSpaceTooLarge,
    VerificationError,
)
from .poset import complex_fingerprint


class TableRule:
    """Rule protocol (apply / tset / permutations) backed by a finite table."""

    def __init__(self, ideal, table):
        self.ideal = ideal
        self.table = dict(table)
        self._pairs = {}

    def key(self):
        return tuple(sorted(self.table.items()))

    def apply(self, j, t):
        return self.table.get((j, t), j)

    def _pair_kind(self, j, s, t):
        """'commute' | 'absorb' | None for s < t in set(m_j)."""
        if (j, s, t) not in self._pairs:
            st = self.apply(self.apply(j, t), s)
            ts = self.apply(self.apply(j, s), t)
            if st == ts:
                kind = "commute"
            elif st == self.apply(j, s):
                kind = "absorb"
            else:
                kind = None
            self._pairs[(j, s, t)] = kind
        return self._pairs[(j, s, t)]

    def admissible(self):
        for j in range(1, self.ideal.k + 1):
            sj = self.ideal.set_of(j)
            for a, s in enumerate(sj):
                for t in sj[a + 1 :]:
                    if self._pair_kind(j, s, t) is None:
                        return False
        return True

    def tset(self, j, alpha):
        """alpha elements not absorbed by a larger alpha element."""
        out = []
        for t in alpha:
            if any(
                t2 > t and self._pair_kind(j, t, t2) == "absorb" for t2 in alpha
            ):
                continue
            out.append(t)
        return tuple(out)

    def permutations(self, j, alpha):
        """Nondegenerate chain orders where the larger member of each
        absorbing pair comes first."""
        return chain_orders(
            self, j, alpha, lambda s, t: self._pair_kind(j, s, t) == "absorb"
        )


def rule_from_function(ideal, rule):
    """Tabulate a rule object (e.g. BRule or CRule) on its domain."""
    table = {}
    for j in range(1, ideal.k + 1):
        for t in ideal.set_of(j):
            table[(j, t)] = rule.apply(j, t)
    return TableRule(ideal, table)


def enumerate_regular_rules(ideal, bound=100000):
    """All admitted rule tables, in lexicographic table order.

    Entries are searched depth-first by (generator, variable); the
    pairwise commute-or-absorb law is enforced as soon as all four table
    entries it mentions are fixed, and completed tables are kept only if
    the differential they induce squares to zero.
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

    def pairs_ok(rule, j):
        sj = table[j - 1]
        for a, s in enumerate(sj):
            for t in sj[a + 1 :]:
                if rule._pair_kind(j, s, t) is None:
                    return False
        return True

    def search(pos, assignment):
        if pos == len(slots):
            rule = TableRule(ideal, assignment)
            cx = resolution_from_rule(ideal, rule)
            ok, _ = check_dd_zero(cx)
            if ok and check_minimal(cx):
                out.append(rule)
            return
        (j, t), cands = slots[pos]
        for g in cands:
            assignment[(j, t)] = g
            if gen_end[j] == pos:
                trial = TableRule(ideal, assignment)
                if not pairs_ok(trial, j):
                    del assignment[(j, t)]
                    continue
            search(pos + 1, assignment)
            del assignment[(j, t)]

    search(0, {})
    return out


def complex_for_rule(ideal, rule):
    """Run the full geometric pipeline with the rule in place of the
    canonical one and verify the cellular complex against the algebraic
    differential."""
    X = build_ek_cw(ideal, rule)
    cellular = cellular_chain_complex(X)
    algebraic = resolution_from_rule(ideal, rule)
    from .chain import compare_up_to_degree_signs

    ok, why = compare_up_to_degree_signs(cellular, algebraic)
    if not ok:
        raise MismatchWithAlgebraicDifferential(str(why))
    return X


def combinatorial_type(X):
    """Canonical fingerprint of the face poset; equal iff isomorphic."""
    return complex_fingerprint(X)


def rule_family(ideal, bound=100000):
    """Admitted rules with their complexes, fingerprints and f-vectors,
    deduplicated by combinatorial type.

    Returns (rules, types) where types maps fingerprint -> sorted list of
    rule positions, and rules[i] is (TableRule, CWComplexEK, fingerprint).
    """
    rules = enumerate_regular_rules(ideal, bound)
    enriched = []
    types = {}
    for i, rule in enumerate(rules):
        X = complex_for_rule(ideal, rule)
        fp = combinatorial_type(X)
        enriched.append((rule, X, fp))
        types.setdefault(fp, []).append(i)
    return enriched, types
