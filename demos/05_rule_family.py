"""Varying the decomposition rule: a family of distinct cellular
realizations over one linear-quotient order.

Every admissible table (send x_t m_j to an earlier generator dividing it,
pairwise commute-or-absorb, d o d = 0) glues the Koszul simplices
differently; the complexes share their f-vector but not their face
posets.

Run:  python3 demos/05_rule_family.py
"""

from cellres.chain import BRule
from cellres.cointerval import CRule, build_hom_complex, dgraph_of_ideal
from cellres.ideals import parse_ideal
from cellres.poset import complex_fingerprint
from cellres.rules import rule_family

ideal = parse_ideal("x1*x2, x1*x3, x1*x5, x2*x3, x2*x5, x3*x5, x4*x5")
enriched, types = rule_family(ideal)
print("admitted rules: %d, distinct combinatorial types: %d" % (len(enriched), len(types)))

b_key = BRule(ideal).key()
c_key = CRule(ideal).key()
for rule, X, fingerprint in enriched:
    marks = []
    if rule.key() == b_key:
        marks.append("first-divisor rule")
    if rule.key() == c_key:
        marks.append("replacement rule")
    top = X.cells[(7, (1, 2, 3))]
    print(
        "  f=%s, top cell from %d tetrahedra  %s"
        % (X.f_vector(), len(top.simplices), ", ".join(marks))
    )

# The replacement rule's complex is exactly the homomorphism complex.
H = build_hom_complex(dgraph_of_ideal(ideal), ideal.n)
c_fp = next(fp for rule, _, fp in enriched if rule.key() == c_key)
print("replacement-rule complex is poset-isomorphic to the hom complex:",
      c_fp == complex_fingerprint(H))

# At the other extreme a variable ideal leaves no choice at all.
maximal = parse_ideal("x1, x2, x3, x4")
only, _ = rule_family(maximal)
print("rules for <x1..x4>:", len(only))
