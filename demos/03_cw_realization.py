"""The regular CW complex underneath the mapping-cone resolution.

Each symbol (m; alpha) becomes a cell: the union of the simplices spanned
by the chains of generators reached by applying the decomposition
function in every order.  Degenerate chains (a stalled application) are
faces of nondegenerate ones and contribute nothing.

Run:  python3 demos/03_cw_realization.py
"""

from cellres.chain import compare_up_to_degree_signs, ht_resolution
from cellres.ekcells import (
    build_cell,
    build_ek_cw,
    cellular_chain_complex,
    ch_simplex,
    nondegenerate_lift,
)
from cellres.export import ek_complex_to_off
from cellres.ideals import parse_ideal
from cellres.monomial import parse_monomial

ideal = parse_ideal("x1*x3*x4, x1*x3*x5, x1*x2*x4, x1*x4*x5, x2*x3*x4, x2*x3*x5")
j = ideal.index_of(parse_monomial("x1*x4*x5", n=5))
print("working over", ideal)
print("set(x1x4x5) =", ideal.set_of(j))

# Applying x3 first stalls (the chain repeats a generator); applying x2
# first walks through three distinct generators.
for sigma in [(3, 2), (2, 3)]:
    chain = ch_simplex(ideal, j, (2, 3), sigma)
    print(
        "  order %s: %s %s"
        % (
            sigma,
            " -> ".join(str(ideal.gen(v)) for v in chain.vertices),
            "(degenerate)" if chain.degenerate else "",
        )
    )
print("lift of the degenerate order:", nondegenerate_lift(ideal, j, (2, 3), (3, 2)))

# The glued 2-cell here is a single triangle; a second ideal below glues
# two triangles into a quadrilateral.
cell = build_cell(ideal, j, (2, 3))
print("U(x1x4x5, {2,3}) built from %d simplex(es)" % len(cell.simplices))

running = parse_ideal("x1*x2, x1*x3, x1*x5, x2*x3, x2*x5, x3*x5, x4*x5")
X = build_ek_cw(running)
print("running example f-vector:", X.f_vector())
top = X.cells[(7, (1, 2, 3))]
print("top cell is a union of %d tetrahedra" % len(top.simplices))

# The labeled chain complex of the CW complex IS the algebraic resolution.
ok, _ = compare_up_to_degree_signs(cellular_chain_complex(X), ht_resolution(running))
print("cellular complex equals the algebraic one:", ok)

# Low-dimensional geometry can be exported for a mesh viewer.
off = ek_complex_to_off(X)
print("OFF header:", off.splitlines()[2], "(vertices faces edges)")
