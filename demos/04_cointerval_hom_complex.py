"""Cointerval hypergraphs and the homomorphism complex of their edge ideal.

Run:  python3 demos/04_cointerval_hom_complex.py
"""

from cellres.chain import compare_up_to_degree_signs
from cellres.cointerval import (
    CRule,
    DGraph,
    build_hom_complex,
    cointerval_discrepancy,
    edge_ideal,
    face_of_symbol,
    hom_chain_complex,
    homcone_resolution,
    partition_A,
    symbol_of_face,
    v_layer,
)
from cellres.monomial import parse_monomial

H = DGraph.from_edges(2, [(1, 2), (1, 3), (1, 5), (2, 3), (2, 5), (3, 5), (4, 5)])
print("edges:", sorted(H.edges))

# Layers: the edges below each vertex, with the vertex removed; the graph
# is cointerval when the layers are nested and recursively cointerval.
for v in H.vertices:
    print("  %d-layer:" % v, sorted(v_layer(H, v).edges))
report = cointerval_discrepancy(H)
print("cointerval (recursive):", report["recursive"])
# The literal prefix-exchange reading rejects this graph (it demands the
# edge x1x4); the two verdicts are surfaced side by side, never merged.
print("cointerval (exchange reading):", report["exchange"], "- agree:", report["agree"])

ideal = edge_ideal(H)
X = build_hom_complex(H)
print("hom complex f-vector:", X.f_vector())
print("top cell:", X.by_dim[3][0], "-- a single tetrahedron")

# Faces correspond to symbols (m; alpha): the block maxima multiply to m.
cell = ((1, 2, 3), (5,))
sym = symbol_of_face(ideal, cell)
print("face", cell, "<->", sym, "<->", face_of_symbol(ideal, sym.gen, sym.alpha))

# The replacement rule c and the blocks of set(m).
m = parse_monomial("x2*x5", n=5)
j = ideal.index_of(m)
print("set(x2x5) blocks:", partition_A(ideal, j))
print("c(x1 * x2x5) =", ideal.gen(CRule(ideal).apply(j, 1)), " (b picks x1x2 instead)")

# The same complex as an iterated mapping cone with c in place of b.
algebraic = homcone_resolution(ideal)
cellular = hom_chain_complex(X, ideal)
ok, _ = compare_up_to_degree_signs(cellular, algebraic)
print("hom complex chain complex equals the c-cone resolution:", ok)
