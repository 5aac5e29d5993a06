"""The exact-arithmetic verification layer.

The Taylor complex resolves every monomial ideal, so its multidegree
strands compute Betti numbers; and a labeled complex supports a
resolution iff all its lcm-lattice strands are acyclic.  Everything runs
over Q, by integer elimination; no other field is used.

Run:  python3 demos/06_verification_oracles.py
"""

from cellres.betti import (
    LabeledCellComplex,
    TaylorSupport,
    check_cellular_resolution,
    lcm_lattice,
    multigraded_betti,
    taylor_complex,
)
from cellres.chain import check_minimal
from cellres.ekcells import build_ek_cw
from cellres.ideals import parse_ideal
from cellres.monomial import parse_monomial

ideal = parse_ideal("x1*x2, x1*x3, x1*x5, x2*x3, x2*x5, x3*x5, x4*x5")

taylor = taylor_complex(ideal)
print("Taylor ranks:", taylor.ranks(), "- minimal:", check_minimal(taylor))

table = multigraded_betti(ideal)
print("Betti totals:", table.totals())
b = parse_monomial("x1*x2*x3", n=5)
print("beta_{2, x1x2x3} =", table.data[(2, b.e)])

print("lcm lattice size:", len(lcm_lattice(ideal)))
ok, _ = check_cellular_resolution(TaylorSupport(ideal), ideal)
print("Taylor strands acyclic:", ok)
ok, _ = check_cellular_resolution(build_ek_cw(ideal), ideal)
print("CW complex strands acyclic:", ok)

# Negative control: a hollow triangle labeled by <x1x2, x1x3, x2x3> has a
# 1-cycle in its top strand and is rightly rejected.
lab = lambda s: parse_monomial(s, n=3)
hollow = LabeledCellComplex(
    cells={
        "v12": (0, lab("x1*x2")),
        "v13": (0, lab("x1*x3")),
        "v23": (0, lab("x2*x3")),
        "e1": (1, lab("x1*x2*x3")),
        "e2": (1, lab("x1*x2*x3")),
        "e3": (1, lab("x1*x2*x3")),
    },
    boundary={
        "e1": [("v12", 1), ("v13", -1)],
        "e2": [("v12", 1), ("v23", -1)],
        "e3": [("v13", 1), ("v23", -1)],
    },
)
triangle = parse_ideal("x1*x2, x1*x3, x2*x3")
ok, witness = check_cellular_resolution(hollow, triangle)
print("hollow triangle passes:", ok, "- fails at multidegree", witness)
