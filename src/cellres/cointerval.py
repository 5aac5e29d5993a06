"""Cointerval d-graphs and the homomorphism complex of their edge ideals.

A d-graph is a d-uniform hypergraph on integer vertices.  Cointervality
is the recursive nested-layer condition; the edge ideal of a cointerval
d-graph has linear quotients in lexicographic order, and its minimal
resolution is carried by the polyhedral complex whose cells are tuples
(s_1 < s_2 < ... < s_d) of vertex sets all of whose product vertices are
edges.  The alternative decomposition function c (replace the smallest
support variable bounding t from above) realizes that complex as an
iterated mapping cone.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .chain import Symbol, TableRule, resolution_from_rule, symbol_complex
from .errors import (
    InputError,
    NotCointerval,
    NotInSet,
    SymbolNotInComplex,
    VerificationError,
)
from .ideals import OrderedIdeal
from .monomial import Monomial


@dataclass(frozen=True)
class DGraph:
    d: int
    vertices: tuple
    edges: frozenset  # of sorted d-tuples

    def __post_init__(self):
        vs = set(self.vertices)
        for e in self.edges:
            if len(e) != self.d or len(set(e)) != self.d:
                raise InputError("edge %s is not a %d-set" % (e, self.d))
            if tuple(sorted(e)) != e:
                raise InputError("edge %s is not sorted" % (e,))
            if not set(e) <= vs:
                raise InputError("edge %s leaves the vertex set" % (e,))

    @classmethod
    def from_edges(cls, d, edges, vertices=None):
        es = frozenset(tuple(sorted(e)) for e in edges)
        if vertices is None:
            vs = sorted({v for e in es for v in e})
        else:
            vs = sorted(vertices)
        return cls(d, tuple(vs), es)


def parse_dgraph(text):
    """Header "d n" then one edge per line as sorted vertex integers."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty d-graph input")
    try:
        d, n = map(int, lines[0].split())
    except ValueError:
        raise InputError("bad header %r; expected 'd n'" % lines[0]) from None
    edges = []
    for ln in lines[1:]:
        try:
            e = tuple(int(x) for x in ln.split())
        except ValueError:
            raise InputError("bad edge line %r" % ln) from None
        if any(not 1 <= v <= n for v in e):
            raise InputError("edge %s outside 1..%d" % (e, n))
        edges.append(e)
    return DGraph.from_edges(d, edges, vertices=range(1, n + 1))


def v_layer(graph, v):
    """Edges containing v as their minimum, with v removed."""
    if graph.d < 2:
        raise InputError("layers need d >= 2")
    edges = frozenset(e[1:] for e in graph.edges if e[0] == v)
    verts = tuple(u for u in graph.vertices if u != v)
    return DGraph(graph.d - 1, verts, edges)


@lru_cache(maxsize=None)
def _cointerval_cached(d, edges):
    if d == 1:
        return True
    support = sorted({v for e in edges for v in e})
    layers = {
        v: frozenset(e[1:] for e in edges if e[0] == v) for v in support
    }
    for lay in layers.values():
        if not _cointerval_cached(d - 1, lay):
            return False
    for a, i in enumerate(support):
        for j in support[a + 1 :]:
            if not layers[j] <= layers[i]:
                return False
    return True


def is_cointerval(graph):
    """Recursive definition: every layer cointerval and layers nested
    downwards along the vertex order.

    Isolated vertices carry no information, so the recursion runs on the
    vertices that actually appear in edges; otherwise a complete d-graph
    would fail its own layer check one level down.
    """
    return _cointerval_cached(graph.d, frozenset(graph.edges))


def is_cointerval_exchange(graph):
    """The literal prefix-exchange reading: for every edge (i_1 < ... < i_d)
    and every t <= d, every increasing replacement (j_1 <= i_1, ...,
    j_t <= i_t) keeping the tuple sorted must again be an edge.

    Diagnostic only; see cointerval_discrepancy.  The recursive definition
    is authoritative.
    """
    universe = graph.vertices
    for e in sorted(graph.edges):
        for t in range(1, graph.d + 1):
            tail = e[t:]
            ceiling = e[t - 1] if not tail else min(e[t - 1], tail[0] - 1)
            pool = [v for v in universe if v <= ceiling]
            for js in combinations(pool, t):
                if all(js[l] <= e[l] for l in range(t)):
                    if js + tail not in graph.edges:
                        return False
    return True


def cointerval_discrepancy(graph):
    """Both cointervality verdicts, surfaced side by side."""
    rec = is_cointerval(graph)
    exch = is_cointerval_exchange(graph)
    return {"recursive": rec, "exchange": exch, "agree": rec == exch}


def is_squarefree_strongly_stable(graph):
    """Single-swap downward closedness of the edge set."""
    for e in graph.edges:
        for v in e:
            for u in range(1, v):
                if u in e:
                    continue
                if tuple(sorted(set(e) - {v} | {u})) not in graph.edges:
                    return False
    return True


def edge_ideal(graph, n=None):
    """Edge ideal with generators in lexicographic order."""
    if not graph.edges:
        raise InputError("edge ideal of an empty graph")
    n = n or max(graph.vertices)
    gens = [Monomial.from_support(e, n) for e in sorted(graph.edges)]
    return OrderedIdeal(n, gens)


def dgraph_of_ideal(ideal):
    """Inverse of edge_ideal for squarefree equigenerated ideals."""
    degrees = {g.degree() for g in ideal.gens}
    if len(degrees) != 1 or not all(g.is_squarefree() for g in ideal.gens):
        raise InputError("not the edge ideal of a d-graph")
    d = degrees.pop()
    return DGraph.from_edges(d, [g.support() for g in ideal.gens])


def _require_lex_cointerval(ideal):
    graph = dgraph_of_ideal(ideal)
    if [g.support() for g in ideal.gens] != sorted(graph.edges):
        raise NotCointerval("generators are not in lexicographic order")
    if not is_cointerval(graph):
        raise NotCointerval(str(ideal))
    return graph


# -- the homomorphism complex --------------------------------------------


class HomComplex:
    """Cells (s_1 < ... < s_d) with every product vertex an edge.

    A cell is stored as a tuple of sorted vertex tuples; its dimension is
    the total size minus d and its label the squarefree monomial on the
    union of the blocks.
    """

    def __init__(self, graph, n=None):
        self.graph = graph
        self.n = n or max(graph.vertices)
        self.cells = _enumerate_hom_cells(graph)
        self.by_dim = {}
        for cell in self.cells:
            self.by_dim.setdefault(_cell_dim(cell), []).append(cell)
        for cells in self.by_dim.values():
            cells.sort()
        self._labels = {}

    def f_vector(self):
        top = max(self.by_dim)
        return tuple(len(self.by_dim.get(i, ())) for i in range(top + 1))

    def label(self, cell):
        label = self._labels.get(cell)
        if label is None:
            support = [v for block in cell for v in block]
            label = self._labels[cell] = Monomial.from_support(support, self.n)
        return label

    def cells_with_labels(self):
        for dim in sorted(self.by_dim):
            for cell in self.by_dim[dim]:
                yield cell, dim, self.label(cell)

    def topo_boundary(self, cell):
        return hom_boundary(cell)


def _cell_dim(cell):
    return sum(len(block) for block in cell) - len(cell)


def _enumerate_hom_cells(graph):
    """All blockwise increasing tuples whose products are edges.

    A cell is a sorted vertex subset cut into d consecutive nonempty runs,
    so enumeration is over (subset, composition) pairs.
    """
    d = graph.d
    verts = sorted({v for e in graph.edges for v in e})
    cells = []
    for size in range(d, len(verts) + 1):
        for subset in combinations(verts, size):
            for cuts in combinations(range(1, size), d - 1):
                bounds = (0,) + cuts + (size,)
                cell = tuple(
                    tuple(subset[bounds[i] : bounds[i + 1]]) for i in range(d)
                )
                # blocks are increasing runs, so every choice is sorted
                if all(choice in graph.edges for choice in product(*cell)):
                    cells.append(cell)
    return sorted(cells)


def hom_boundary(cell):
    """Signed faces: remove one element from every block of size >= 2.

    For the j-th element (1-based) of block ell the sign is
    (-1)^(ell - 1 + j + |s_1| + ... + |s_{ell-1}|).
    """
    out = []
    offset = 0
    for ell, block in enumerate(cell, start=1):
        if len(block) >= 2:
            for j, v in enumerate(block, start=1):
                face = (
                    cell[: ell - 1]
                    + (tuple(u for u in block if u != v),)
                    + cell[ell:]
                )
                sign = -1 if (ell - 1 + j + offset) % 2 else 1
                out.append((face, sign))
        offset += len(block)
    return out


# -- faces <-> symbols -----------------------------------------------------


def symbol_of_face(ideal, cell):
    """(m; alpha) for a cell: m is the product of the block maxima and
    alpha collects everything below them."""
    maxima = tuple(max(block) for block in cell)
    e = [0] * ideal.n
    for v in maxima:
        if 0 < v <= ideal.n:
            e[v - 1] = 1
    j = ideal.exponent_index.get(tuple(e))
    if j is None:
        raise SymbolNotInComplex("block maxima %s are not a generator" % (maxima,))
    alpha = tuple(
        sorted(v for block, top in zip(cell, maxima) for v in block if v != top)
    )
    if not set(ideal.set_of(j)).issuperset(alpha):
        raise SymbolNotInComplex(
            "alpha %s escapes set(m_%d); not a resolution cell" % (alpha, j)
        )
    return Symbol(j, alpha)


def face_of_symbol(ideal, j, alpha):
    """Inverse of symbol_of_face: block ell is {i_ell} together with the
    alpha elements strictly between i_{ell-1} and i_ell."""
    m = ideal.gen(j)
    supp = m.support()
    alpha = tuple(sorted(alpha))
    if not set(alpha) <= set(ideal.set_of(j)):
        raise SymbolNotInComplex("alpha %s escapes set(m_%d)" % (alpha, j))
    prev = 0
    blocks = []
    used = set()
    for i_ell in supp:
        block = tuple(a for a in alpha if prev < a < i_ell) + (i_ell,)
        used.update(block[:-1])
        blocks.append(block)
        prev = i_ell
    if used != set(alpha):
        raise SymbolNotInComplex(
            "alpha %s does not fit the gaps of %s" % (alpha, str(m))
        )
    return tuple(blocks)


# -- the A-partition, T(alpha), and the decomposition function c ----------


def partition_A(ideal, j):
    """Blocks A_1, ..., A_d of set(m_j) by the gap intervals of the support
    of m_j, keeping only the variables whose swap stays in the ideal.

    Verifies that the blocks partition set(m_j) exactly, which is what the
    lex-cointerval theory promises.
    """
    m = ideal.gen(j)
    index = ideal.exponent_index
    prev = 0
    blocks = []
    for i_ell in m.support():
        block = []
        swapped = list(m.e)
        swapped[i_ell - 1] -= 1
        for a in range(prev + 1, i_ell):
            swapped[a - 1] += 1
            if tuple(swapped) in index:
                block.append(a)
            swapped[a - 1] -= 1
        blocks.append(tuple(block))
        prev = i_ell
    flat = tuple(sorted(a for b in blocks for a in b))
    if flat != tuple(ideal.set_of(j)):
        raise VerificationError(
            "A-blocks %s do not partition set(m_%d) = %s"
            % (blocks, j, ideal.set_of(j))
        )
    return tuple(blocks)


def compute_T(ideal, j, alpha):
    """Blockwise maxima of alpha; blocks missing from alpha contribute
    nothing."""
    alpha = set(alpha)
    out = []
    for block in partition_A(ideal, j):
        hit = alpha & set(block)
        if hit:
            out.append(max(hit))
    return tuple(sorted(out))


def decomp_c(ideal, m, i):
    """c(x_i m) = x_i m / x_{j_k} where j_k is the smallest support element
    of m with i <= j_k."""
    j = ideal.index_of(m)
    if j is None:
        raise NotInSet("%s is not a generator" % str(m))
    if i not in ideal.set_of(j):
        raise NotInSet("%d is not in set(%s)" % (i, str(m)))
    return Monomial._raw(_c_exponents(m.e, i))


def _c_exponents(e, i):
    """Exponents of x_i m / x_{j_k} for the monomial m with exponents e,
    j_k the smallest support element of m with i <= j_k."""
    jk = min(s for s in range(i, len(e) + 1) if e[s - 1])
    c = list(e)
    c[i - 1] += 1
    c[jk - 1] -= 1
    return tuple(c)


class CRule(TableRule):
    """Decomposition rule for lex-ordered cointerval edge ideals: the
    table of c, with every pair inside one A-block absorbing, so tset
    keeps the blockwise maxima of alpha and the glued cells list larger
    same-block elements first."""

    def __init__(self, ideal):
        table = {}
        index = ideal.exponent_index
        for j, (m, sj) in enumerate(zip(ideal.gens, ideal.set_table()), start=1):
            for t in sj:
                target = _c_exponents(m.e, t)
                g = index.get(target)
                if g is None:
                    raise NotCointerval(
                        "c(x_%d m_%d) = %s is not a generator"
                        % (t, j, Monomial._raw(target))
                    )
                table[(j, t)] = g
        absorbing = [
            (j, s, t)
            for j in range(1, ideal.k + 1)
            for block in partition_A(ideal, j)
            for s, t in combinations(block, 2)
        ]
        super().__init__(ideal, table, absorbing)

    # bound per class: the traced benchmark wraps vars(cls)["permutations"]
    permutations = TableRule.permutations


def homcone_resolution(ideal):
    """The resolution of a lex-ordered cointerval edge ideal whose
    differential mirrors the face structure of the homomorphism complex."""
    _require_lex_cointerval(ideal)
    return resolution_from_rule(ideal, CRule(ideal))


def admissible_perm_cells(rule, j, alpha):
    """The glued cell of (m_j, alpha) built from the c-chains of `rule`, a
    CRule, over the admissible permutations; cross-checked against the
    product cell."""
    from .ekcells import build_cell

    ideal = rule.ideal
    cell = build_cell(ideal, j, alpha, rule)
    want = {
        ideal.index_of(Monomial.from_support(e, ideal.n))
        for e in product(*face_of_symbol(ideal, j, alpha))
    }
    if cell.vertex_set() != want:
        raise VerificationError(
            "c-chains of (m_%d, %s) do not span the product cell" % (j, alpha)
        )
    return cell


def hom_chain_complex(X, ideal):
    """The labeled chain complex of the homomorphism complex, written on
    the symbol basis through the face <-> symbol bijection and normalized
    per degree like the algebraic resolution."""
    return symbol_complex(X, ideal, lambda cell: symbol_of_face(ideal, cell))


def build_hom_complex(graph, n=None):
    return HomComplex(graph, n)
