"""Geometric realization of the mapping-cone resolution.

For a generator m and alpha inside set(m), each permutation sigma of
alpha determines a chain of generators

    m,  rule(x_{s1} m),  rule(x_{s2} rule(x_{s1} m)),  ...

whose exponent vectors span a simplex ch(m, alpha, sigma) in R^n (possibly
degenerate when the chain stalls).  The glued cell U(m, alpha) is the
union of the nondegenerate chains, oriented so interior facets cancel in
pairs.  Assembling all cells gives a regular CW complex whose labeled
chain complex is the resolution built in chain.py; the equality of the
two is checked entry by entry, never assumed.

Every rule step goes to an earlier generator or stays put (a TableRule
checks its table when it is built), and the rule's one subset DP per
generator that lists the chains (TableRule.permutations) keeps only
steps down, so generator indices strictly decrease along a
nondegenerate chain and its vertex order is recoverable from its vertex
set.  build_cell groups facets by that set.
"""

from dataclasses import dataclass, field
from itertools import combinations
from operator import sub
from typing import NamedTuple

from .betti import LabeledCellComplex
from .chain import BRule, Symbol, cell_chain_complex
from .errors import (
    AlphaNotInSet,
    DegenerateChain,
    IndexOutOfRange,
    NotDegenerate,
    OrientationClash,
    VerificationError,
)
from .exact import ChainData, bareiss_rank, homology_ranks
from .monomial import Monomial


def affinely_independent(points):
    """Exact test on integer exponent vectors."""
    pts = [tuple(p) for p in points]
    if len(pts) <= 1:
        return True
    base = pts[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in pts[1:]]
    return bareiss_rank(diffs) == len(pts) - 1


def orientation_sign(sigma):
    """Sign of the permutation carrying sigma to ascending order.

    sigma is a sequence of distinct comparable values; the sign is (-1) to
    the number of inversions, pairs i < j with sigma[i] > sigma[j], so the
    ascending order gets +1.  With it the labeled cellular complex equals
    the algebraic resolution entry by entry, signs included.
    """
    p = len(sigma)
    inversions = sum(1 for i in range(p) for j in range(i + 1, p) if sigma[i] > sigma[j])
    return -1 if inversions % 2 else 1


@dataclass(frozen=True)
class SimplexChain:
    source: int
    alpha: tuple
    sigma: tuple
    vertices: tuple  # generator indices, strictly decreasing when nondegenerate
    degenerate: bool


class FacetClass(NamedTuple):
    kind: str  # "interior" | "exterior"
    partner: tuple  # transposed permutation for interior facets, else None


def ch_simplex(ideal, j, alpha, sigma, rule=None):
    """The chain simplex for generator j, alpha in set(m_j), and a
    permutation sigma of alpha."""
    rule = rule or BRule(ideal)
    alpha = tuple(sorted(alpha))
    if not set(alpha) <= set(ideal.set_of(j)):
        raise AlphaNotInSet("%s not inside set(m_%d)" % (alpha, j))
    if tuple(sorted(sigma)) != alpha:
        raise AlphaNotInSet("sigma %s is not a permutation of %s" % (sigma, alpha))
    vertices = [j]
    for t in sigma:
        vertices.append(rule.apply(vertices[-1], t))
    vertices = tuple(vertices)
    return SimplexChain(
        source=j,
        alpha=alpha,
        sigma=tuple(sigma),
        vertices=vertices,
        degenerate=len(set(vertices)) < len(vertices),
    )


def nondegenerate_lift(ideal, j, alpha, sigma, rule=None):
    """For a degenerate chain, push the first stalled variable backwards
    (adjacent transpositions) until the chain is nondegenerate.

    Returns the new permutation; the degenerate chain's distinct vertices
    are a face of the lifted chain, which is verified before returning.
    """
    rule = rule or BRule(ideal)
    original = ch_simplex(ideal, j, alpha, sigma, rule)
    if not original.degenerate:
        raise NotDegenerate("chain %s is already nondegenerate" % (sigma,))
    sig = list(sigma)
    p = len(sig)
    for _ in range(p * p + 1):
        chain = ch_simplex(ideal, j, alpha, sig, rule)
        if not chain.degenerate:
            lifted = chain
            break
        stall = next(
            i for i in range(1, p + 1) if chain.vertices[i] == chain.vertices[i - 1]
        )
        if stall < 2:
            raise VerificationError(
                "first chain step stalled; decomposition rule is inconsistent"
            )
        sig[stall - 2], sig[stall - 1] = sig[stall - 1], sig[stall - 2]
    else:
        raise VerificationError("nondegenerate lift did not terminate")
    old = set(original.vertices)
    if not old <= set(lifted.vertices):
        raise VerificationError("lift lost vertices of the degenerate chain")
    return tuple(sig)


def classify_facet(ideal, chain, dropped, rule=None):
    """Interior/exterior classification of the facet of a nondegenerate
    chain simplex obtained by removing the vertex at `dropped`.

    Dropping the source (position 0) or the last vertex (position p) gives
    an exterior facet.  A middle facet is interior exactly when the rule
    still acts by the skipped variable after the transposed application,
    in which case the unique second simplex through the facet is the
    adjacent transposition of sigma.
    """
    rule = rule or BRule(ideal)
    if chain.degenerate:
        raise DegenerateChain(str(chain))
    p = len(chain.sigma)
    if not 0 <= dropped <= p:
        raise IndexOutOfRange(dropped)
    if dropped == 0 or dropped == p:
        return FacetClass("exterior", None)
    ell = dropped
    before = chain.vertices[ell - 1]
    w = rule.apply(before, chain.sigma[ell])  # apply the (ell+1)-th variable first
    if rule.apply(w, chain.sigma[ell - 1]) != w:
        partner = list(chain.sigma)
        partner[ell - 1], partner[ell] = partner[ell], partner[ell - 1]
        return FacetClass("interior", tuple(partner))
    return FacetClass("exterior", None)


@dataclass
class GlueCell:
    """The cell U(m_source, alpha); eps_by_vertices is its sign per vertex tuple."""

    source: int
    alpha: tuple
    simplices: tuple  # nondegenerate SimplexChains
    eps: tuple  # orientation sign per simplex
    facets: tuple  # surviving (vertex tuple, coefficient, sigma, dropped)
    eps_by_vertices: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.eps_by_vertices = {s.vertices: e for s, e in zip(self.simplices, self.eps)}

    @property
    def dim(self):
        return len(self.alpha)

    @property
    def key(self):
        return (self.source, self.alpha)

    def vertex_set(self):
        out = set()
        for s in self.simplices:
            out.update(s.vertices)
        return out


def build_cell(ideal, j, alpha, rule=None):
    """Glue the nondegenerate chain simplices for (m_j, alpha).

    alpha must lie inside set(m_j).  The rule yields exactly the
    admissible nondegenerate orders, each with its chain's vertex tuple;
    each becomes a simplex with orientation eps(sigma).  Check that every
    facet shared by two simplices cancels; every other facet survives with
    its one simplex's coefficient eps(sigma) (-1)^i = +-1 as the boundary.
    A facet in three or more simplices, or in two that do not cancel, raises
    OrientationClash for the first such facet met: chains in the rule's
    order, the facets of each by dropped position.
    """
    rule = rule or BRule(ideal)
    alpha = tuple(sorted(alpha))
    if not set(alpha) <= set(ideal.set_of(j)):
        raise AlphaNotInSet("%s not inside set(m_%d)" % (alpha, j))
    chains = [
        SimplexChain(j, alpha, sigma, vertices, degenerate=False)
        for sigma, vertices in rule.permutations(j, alpha)
    ]
    if not chains:
        raise VerificationError(
            "no nondegenerate chain for (m_%d, %s)" % (j, alpha)
        )
    eps = tuple(orientation_sign(c.sigma) for c in chains)

    # oriented boundary, grouped by facet vertex set as a bitmask: vertex
    # tuples strictly decrease, so the set fixes the tuple
    prov = {}
    for chain, sign in zip(chains, eps):
        bits = [1 << v for v in chain.vertices]
        whole = sum(bits)
        coeff = sign
        for i, bit in enumerate(bits):
            prov.setdefault(whole ^ bit, []).append((chain, i, coeff))
            coeff = -coeff
    survivors = []
    for occurrences in prov.values():
        chain, dropped, coeff = occurrences[0]
        if len(occurrences) == 2 and not coeff + occurrences[1][2]:
            continue  # an interior facet that cancels
        verts = chain.vertices
        facet = verts[:dropped] + verts[dropped + 1 :]
        if len(occurrences) > 2:
            raise OrientationClash(
                "facet %s lies in %d simplices of U(m_%d,%s)"
                % (facet, len(occurrences), j, alpha)
            )
        if len(occurrences) == 2:
            raise OrientationClash(
                "interior facet %s of U(m_%d,%s) does not cancel" % (facet, j, alpha)
            )
        survivors.append((facet, coeff, chain.sigma, dropped))
    survivors.sort()
    return GlueCell(
        source=j,
        alpha=alpha,
        simplices=tuple(chains),
        eps=eps,
        facets=tuple(survivors),
    )


def _boundary_from_cell(cell, cell_cache):
    """Signed incidences of the codimension-one cells under a glued cell.

    Each surviving facet must name a key of `cell_cache`, which holds
    exactly the cells (j, alpha inside set(m_j)), and be a vertex tuple in
    that target's `eps_by_vertices`; full coverage of the target's
    simplices and a consistent incidence sign are enforced.
    """
    alpha = cell.alpha
    if not alpha:
        return []
    faces = {t: alpha[:i] + alpha[i + 1 :] for i, t in enumerate(alpha)}
    hits = {}
    for facet, coeff, sigma, dropped in cell.facets:
        if dropped == 0:
            target = (facet[0], faces[sigma[0]])
        else:
            target = (cell.source, faces[sigma[dropped - 1]])
        if target not in cell_cache:
            raise VerificationError(
                "facet %s wants the non-cell (m_%d, %s)" % (facet, target[0], target[1])
            )
        hits.setdefault(target, []).append((facet, coeff))

    out = []
    for target in sorted(hits):
        signs = cell_cache[target].eps_by_vertices
        seen = set()
        incidence = None
        for facet, coeff in hits[target]:
            if facet not in signs:
                raise VerificationError(
                    "facet %s is not a chain of (m_%d, %s)"
                    % (facet, target[0], target[1])
                )
            value = coeff * signs[facet]
            if incidence is None:
                incidence = value
            elif incidence != value:
                raise OrientationClash(
                    "incoherent incidence of U%s under U%s" % (target, cell.key)
                )
            seen.add(facet)
        if len(seen) != len(signs):  # seen lies inside signs
            raise VerificationError(
                "boundary of U%s covers only part of U%s" % (cell.key, target)
            )
        out.append((target, incidence))
    return out


def cell_label(ideal, j, alpha):
    """m_j * x_alpha, built on the exponent tuple."""
    e = list(ideal.gen(j).e)
    for t in alpha:
        e[t - 1] += 1
    return Monomial._raw(tuple(e))


class CWComplexEK(LabeledCellComplex):
    """The regular CW complex carrying the mapping-cone resolution.

    Cells are keyed by (generator index, alpha), of dimension |alpha|; the
    label of a cell is m * x_alpha, which is verified to equal the lcm of
    its vertex labels.  A face's coefficient is the ratio of the two
    labels, which makes the labeled cellular complex multigraded-homogeneous;
    build_ek_cw stores it with the boundary.
    """

    def __init__(self, ideal, cells, boundary, labels, coefficients):
        super().__init__(
            {key: (len(key[1]), labels[key]) for key in cells}, boundary, coefficients
        )
        self.ideal = ideal
        self.cells = cells  # {(j, alpha): GlueCell}

    def vertex_coordinates(self):
        """Exponent vectors of the generators, keyed by generator index."""
        return {j: self.ideal.gen(j).e for j in range(1, self.ideal.k + 1)}


def build_ek_cw(ideal, rule=None):
    """Assemble every glued cell (m_j, alpha) with its boundary.

    Verifies, cell by cell: orientation coherence, the lcm property of the
    labels, and that each face's label properly divides the cell's.  The
    quotient is the face's incidence coefficient and is stored with the
    boundary, one Monomial per distinct quotient.  The global d o d = 0
    of the labeled complex is checked by check_cellular_resolution.
    """
    rule = rule or BRule(ideal)
    table = ideal.set_table()
    cache = {}
    labels = {}
    for j in range(1, ideal.k + 1):
        for size in range(len(table[j - 1]) + 1):
            for alpha in combinations(table[j - 1], size):
                cache[(j, alpha)] = build_cell(ideal, j, alpha, rule)
                labels[(j, alpha)] = cell_label(ideal, j, alpha)
    gens = (None,) + tuple(g.e for g in ideal.gens)  # m_j's exponents at j
    boundary, coefficients, quotients = {}, {}, {}
    for key in sorted(cache):
        cell = cache[key]
        label = labels[key]
        vertex_lcm = tuple(map(max, zip(*(gens[v] for v in cell.vertex_set()))))
        if vertex_lcm != label.e:
            raise VerificationError(
                "label of U%s is not the lcm of its vertices" % (key,)
            )
        entries = _boundary_from_cell(cell, cache)
        coeffs = []
        for target, _ in entries:
            q = tuple(map(sub, label.e, labels[target].e))
            coeff = quotients.get(q)
            if coeff is None:  # a quotient seen before has passed these
                if min(q) < 0:
                    raise VerificationError(
                        "label of U%s does not divide label of U%s" % (target, key)
                    )
                if not any(q):
                    raise VerificationError(
                        "unit coefficient between U%s and U%s" % (key, target)
                    )
                coeff = quotients[q] = Monomial._raw(q)
            coeffs.append(coeff)
        boundary[key] = entries
        coefficients[key] = coeffs
    return CWComplexEK(ideal, cache, boundary, labels, coefficients)


def cellular_chain_complex(X):
    """The labeled chain complex of the CW complex, as a resolution of R/I:
    cell (m_j, alpha) becomes the symbol (m_j; alpha).  Its signs are the
    cells' own, so it equals the algebraic resolution entry by entry."""
    return cell_chain_complex(X, X.ideal, lambda key: Symbol(*key))


# -- topological sanity of low-dimensional cells -------------------------


def _simplicial_chain_data(facet_sets):
    """ChainData of the simplicial complex generated by the given facets,
    with an augmentation cell so homology is reduced: cell 0 is the empty
    face, the others follow sorted by (size, tuple)."""
    faces = {()}
    for fs in facet_sets:
        fs = tuple(sorted(fs))
        for size in range(1, len(fs) + 1):
            faces.update(combinations(fs, size))
    cells = sorted(faces, key=lambda f: (len(f), f))
    number = {f: i for i, f in enumerate(cells)}
    return ChainData(
        [len(f) - 1 for f in cells],
        [
            {number[f[:i] + f[i + 1 :]]: -1 if i % 2 else 1 for i in range(len(f))}
            for f in cells
        ],
    )


def _boundary_facets(tops, p):
    """The (p-1)-faces lying in exactly one of the p-simplices `tops`, or
    None when some face lies in three or more."""
    counts = {}
    for t in tops:
        for facet in combinations(sorted(t), p):
            counts[facet] = counts.get(facet, 0) + 1
    if any(c > 2 for c in counts.values()):
        return None
    return [f for f, c in counts.items() if c == 1]


def _greedy_shelling(tops):
    """A shelling order of the p-simplices `tops` (vertex frozensets), or
    None when the greedy search stalls.

    Each step places the first remaining simplex S whose restriction
    R(S) = {v : S - v is a face of an earlier simplex} lies in no
    earlier simplex (so is nonempty); then the faces of S new to the
    complex are exactly those containing R(S).  A stall proves nothing:
    another order may still shell.
    """
    order = [tops[0]]
    rest = list(tops[1:])
    placed = {tops[0] - {v} for v in tops[0]}  # faces of size p
    while rest:
        for i, s in enumerate(rest):
            r = frozenset(v for v in s if s - {v} in placed)
            if not any(r <= t for t in order):
                break
        else:
            return None
        del rest[i]
        order.append(s)
        placed.update(s - {v} for v in s)
    return order


def _homology_ball(tops, p):
    """The homology certificate of a ball, for p >= 1: the simplicial
    complex spanned by `tops` has trivial reduced homology, every
    (p-1)-face lies in at most two top simplices, and the boundary faces
    (those in exactly one) form a pseudomanifold with the reduced
    homology of a (p-1)-sphere."""
    if homology_ranks(_simplicial_chain_data(tops)):
        return False
    bfacets = _boundary_facets(tops, p)
    if not bfacets:
        return False
    if p == 1:
        return len(bfacets) == 2
    ridge = {}
    for f in bfacets:
        for r in combinations(f, p - 1):
            ridge[r] = ridge.get(r, 0) + 1
    if any(c != 2 for c in ridge.values()):
        return False
    h = homology_ranks(_simplicial_chain_data(bfacets))
    return h == {p - 1: 1}


def cell_is_ball(cell):
    """Certificate that a glued cell is a topological ball.

    A cell made of a single p-simplex is a ball outright.  Otherwise the
    chains' vertex sets must form a pseudomanifold with boundary: p + 1
    distinct vertices per simplex, no two simplices on one vertex set,
    every (p-1)-face in at most two simplices and some face in exactly
    one; anything else is refused.  Such a complex that is shellable is
    a PL ball (Danaraj and Klee, Shellings of spheres and polytopes,
    1974; Bjorner, Topological methods, 1995), so a greedy shelling
    (_greedy_shelling) proves it one.  When the greedy search stalls,
    the verdict is the homology certificate (_homology_ball): an acyclic
    cell whose boundary is a pseudomanifold with the homology of a
    sphere.
    """
    p = cell.dim
    tops = [frozenset(s.vertices) for s in cell.simplices]
    if any(len(s.vertices) != p + 1 for s in cell.simplices):
        return False  # a simplex of the wrong size
    if any(len(t) != p + 1 for t in tops):
        return False  # a repeated vertex
    if len(tops) == 1:
        return True  # a p-simplex is a p-ball
    if len(set(tops)) != len(tops) or not _boundary_facets(tops, p):
        return False
    return _greedy_shelling(tops) is not None or _homology_ball(tops, p)
