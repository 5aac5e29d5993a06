"""Helpers that only tests call, kept out of the package: the single-swap
closedness of an edge set, the decomposition function b as a monomial,
the two copies of the rule pair law that ideals._pair_law replaced, the
earlier face_of_symbol that the one-pass version replaced, the earlier
mapping cone (G[1] first) with the re-sort the iterated cone needed after
it, the earlier ChainMap.commutes that grouped the whole target
differential, the earlier orientation_sign on a rank table, and the
lcm_of on Monomials that build_ek_cw's vertex-lcm check used before it
compared exponent tuples, the recursive walk of a rule's chain orders
that TableRule.permutations ran once per cell before its subset DP, a
stand-in rule on a table that TableRule refuses, chain_data, which
numbers named cells for ChainData, check_cellular_resolution as it was
before it checked each strand relative to the exact strands below it:
one whole strand collapsed per distinct cell set, and the gluing of the
EK cells (GlueCell, build_cell, boundary_from_cell, build_ek_cw) as it
was before it kept vertex sets as bitmasks: SimplexChains, and signs
and facets keyed by vertex tuples, and find_linear_quotient_order as it
was before it decided each position in one pass over exponent tuples:
the exact colon minimalized for every candidate."""

from dataclasses import dataclass, field
from itertools import combinations, islice
from operator import le, sub

from cellres.betti import TaylorSupport, _strands, lcm_lattice
from cellres.chain import BRule, LabeledChainComplex, _by_col, _path_sums
from cellres.ekcells import SimplexChain
from cellres.errors import (
    AlphaNotInSet,
    NonCommutingChainMap,
    NonMonotoneLabels,
    OrientationClash,
    SymbolNotInComplex,
    VerificationError,
)
from cellres.exact import ChainData, is_exact, require_dd_zero
from cellres.ideals import _colon_gens
from cellres.monomial import Monomial


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


def b_of(ideal, m):
    """b(m): the first generator in order dividing m."""
    return ideal.gen(ideal.decomp_b(m))


def pair_kind(table, j, s, t):
    """ideals._pair_kind, the copy of the pair law that the regularity
    star test and rule admission read: 'commute' | 'absorb' | None for
    s < t in set(m_j) under a bare rule table, whose missing entries stay
    put; a pair that does both counts as commuting."""
    get = table.get
    after_t = get((j, t), j)
    after_s = get((j, s), j)
    st = get((after_t, s), after_t)
    if st == get((after_s, t), after_s):
        return "commute"
    if st == after_s:
        return "absorb"
    return None


def absorbed_at(ideal, table, j):
    """TableRule._absorbed_at, the copy of the pair law that rules read
    lazily, one generator at a time: {t: the s < t in set(m_j) whose pair
    (s, t) absorbs}."""

    def apply(a, t):
        return table.get((a, t), a)

    out = {}
    for s, t in combinations(ideal.set_of(j), 2):
        if apply(apply(j, t), s) == apply(j, s):
            out.setdefault(t, set()).add(s)
    return out


def absorbing(ideal, table):
    """Every absorbing pair (j, s, t) of a table, read by absorbed_at."""
    return {
        (j, s, t)
        for j in range(1, ideal.k + 1)
        for t, below in absorbed_at(ideal, table, j).items()
        for s in below
    }


def star_witnesses(ideal):
    """check_regularity's star witnesses, read by pair_kind."""
    b = ideal.b_table()
    return [
        (j, s, t)
        for j, sj in enumerate(ideal.set_table(), start=1)
        for s, t in combinations(sj, 2)
        if pair_kind(b, j, s, t) != "commute"
    ]


def face_of_symbol(ideal, j, alpha):
    """cointerval.face_of_symbol as it was before its one-pass rewrite:
    one scan of alpha per support element of m_j."""
    m = ideal.gen(j)
    supp = m.support()
    alpha = tuple(sorted(alpha))
    members = set(alpha)
    if len(members) != len(alpha):
        raise SymbolNotInComplex("alpha %s repeats an element" % (alpha,))
    if not members <= set(ideal.set_of(j)):
        raise SymbolNotInComplex("alpha %s escapes set(m_%d)" % (alpha, j))
    prev = 0
    blocks = []
    used = set()
    for i_ell in supp:
        block = tuple(a for a in alpha if prev < a < i_ell) + (i_ell,)
        used.update(block[:-1])
        blocks.append(block)
        prev = i_ell
    if used != members:
        raise SymbolNotInComplex(
            "alpha %s does not fit the gaps of %s" % (alpha, str(m))
        )
    return tuple(blocks)


def mapping_cone(psi, relabel_shifted=None):
    """chain.mapping_cone as it was before F's block came first: each
    degree lists G[1]'s basis, then F's, and every entry of F is shifted
    by the G[1] block sizes."""
    if not psi.commutes():
        raise NonCommutingChainMap("chain map does not commute with differentials")
    G, F = psi.source, psi.target
    if relabel_shifted is None:
        relabel_shifted = lambda lbl: ("cone", lbl)
    top = max(len(F.basis), len(G.basis) + 1)
    basis, mdeg, diff = [], [], []
    g_off = []  # number of G[1] elements in each cone degree
    for i in range(top):
        g_part = G.basis[i - 1] if 1 <= i <= len(G.basis) else []
        f_part = F.basis[i] if i < len(F.basis) else []
        g_off.append(len(g_part))
        basis.append([relabel_shifted(l) for l in g_part] + list(f_part))
        mdeg.append(
            (G.mdeg[i - 1] if 1 <= i <= len(G.basis) else [])
            + (F.mdeg[i] if i < len(F.basis) else [])
        )
        diff.append({})
    for i in range(1, top):
        d = diff[i]
        if i - 1 < len(G.diff) and i >= 2:
            for (r, c), (s, m) in G.diff[i - 1].items():
                d[(r, c)] = (-s, m)
        if i - 1 < len(psi.maps):
            for (tr, sc), (s, m) in psi.maps[i - 1].items():
                d[(g_off[i - 1] + tr, sc)] = (s, m)
        if i < len(F.diff):
            for (r, c), (s, m) in F.diff[i].items():
                d[(g_off[i - 1] + r, g_off[i] + c)] = (s, m)
    return LabeledChainComplex(F.n, basis, mdeg, diff)


def commutes(psi):
    """ChainMap.commutes as it was before it grouped only the target
    columns psi names: every column of d_target is grouped."""
    src, tgt = psi.source, psi.target
    for i in range(1, len(src.basis)):
        acc = _path_sums(src.diff[i], _by_col(psi.maps[i - 1]))
        if i < len(tgt.basis):
            _path_sums(psi.maps[i], _by_col(tgt.diff[i]), acc, sign=-1)
        if any(any(poly.values()) for poly in acc.values()):
            return False
    return True


def sorted_symbol_complex(cx):
    """Reorder each degree's basis into canonical Symbol order."""
    perms = []
    for i, level in enumerate(cx.basis):
        order = sorted(range(len(level)), key=lambda p: level[p])
        perms.append(order)
    basis = [[cx.basis[i][p] for p in perm] for i, perm in enumerate(perms)]
    mdeg = [[cx.mdeg[i][p] for p in perm] for i, perm in enumerate(perms)]
    inv = [
        {old: new for new, old in enumerate(perm)} for perm in perms
    ]
    diff = [dict() for _ in basis]
    for i in range(1, len(basis)):
        for (r, c), e in cx.diff[i].items():
            diff[i][(inv[i - 1][r], inv[i][c])] = e
    return LabeledChainComplex(cx.n, basis, mdeg, diff)


def orientation_sign(sigma):
    """ekcells.orientation_sign as it was before it counted ascents (and
    later inversions): the inversions of sigma's rank pattern, plus
    p(p-1)/2."""
    seq = list(sigma)
    p = len(seq)
    ranks = {v: i + 1 for i, v in enumerate(sorted(seq))}
    pattern = [ranks[v] for v in seq]
    inv = sum(
        1
        for i in range(p)
        for j in range(i + 1, p)
        if pattern[i] > pattern[j]
    )
    return -1 if (inv + p * (p - 1) // 2) % 2 else 1


def lcm_of(monomials, n=None):
    """lcm of an iterable of monomials; 1 for an empty iterable (needs n)."""
    acc = None
    for m in monomials:
        acc = m if acc is None else acc.lcm(m)
    if acc is None:
        if n is None:
            raise ValueError("lcm of empty collection needs ambient n")
        return Monomial.one(n)
    return acc


def chain_orders(rule, j, alpha, conflict=None):
    """The walk TableRule.permutations ran once per cell: pairs (sigma,
    vertices) for the orders sigma of alpha whose chain vertices = (j,
    rule(x_{s1} m_j), ...) never repeats a vertex and that respect the
    rule's pairwise order constraint.

    `conflict` maps t to the s < t that may not precede t.  A rule step
    goes to an earlier generator or stays put, so the vertices decrease
    until a step stays put; a step x_t m_j -> m_v to a later generator
    that the constraint allows raises VerificationError naming x_t, m_j
    and m_v.  The orders are built one variable at a time: a prefix whose
    last step stays put, or breaks the constraint, is cut there, whatever
    follows.  The survivors come in itertools.permutations(sorted alpha)
    order.
    """
    alpha = tuple(sorted(alpha))
    conflict = conflict or {}
    sigma = []
    vertices = [j]

    def extend():
        if len(sigma) == len(alpha):
            yield tuple(sigma), tuple(vertices)
            return
        last = vertices[-1]
        for t in alpha:
            if t in sigma:
                continue
            v = rule.apply(last, t)
            if v == last:
                continue
            blocked = conflict.get(t)
            if blocked and not blocked.isdisjoint(sigma):
                continue
            if v > last:
                raise VerificationError(
                    "x_%d m_%d steps to the later generator m_%d" % (t, last, v)
                )
            sigma.append(t)
            vertices.append(v)
            yield from extend()
            vertices.pop()
            sigma.pop()

    return extend()


class UncheckedRule:
    """A rule on a bare table, checked by no one, so that a table that
    TableRule refuses still reaches the builders: every variable gives a
    rule term, and the chain orders are those of the walk."""

    def __init__(self, table):
        self.table = table

    def apply(self, j, t):
        return self.table.get((j, t), j)

    def tset(self, j, alpha):
        return alpha

    def permutations(self, j, alpha):
        return chain_orders(self, j, alpha)


def chain_data(cells_by_deg, boundary):
    """ChainData of named cells, numbered in the order given.

    cells_by_deg: {degree: cell ids}; boundary: {cell id: {face id:
    coefficient}}.  A zero coefficient is no face, and a face that is not
    a cell gets a number out of range, which ChainData refuses."""
    deg, number = [], {}
    for d, cs in cells_by_deg.items():
        for c in cs:
            number[c] = len(deg)
            deg.append(d)
    faces = [{} for _ in deg]
    for c, fs in boundary.items():
        faces[number[c]] = {number.get(f, -1): v for f, v in fs.items() if v}
    return ChainData(deg, faces)


def check_cellular_resolution(X, ideal):
    """betti.check_cellular_resolution as it was before it checked each
    strand relative to the exact strands below it: every distinct strand
    is restricted whole, `restrict(member << 1 | 1)`, and collapsed."""
    full_simplices = isinstance(X, TaylorSupport)
    if full_simplices:
        cells = list(islice(X.cells_with_labels(), X.ideal.k))
    else:
        cells = list(X.cells_with_labels())
    number = {}
    deg = [-1]
    exps = [()]
    for key, dim, label in cells:
        number[key] = len(deg)
        deg.append(dim)
        exps.append(label.e)
    faces = [{}]
    for (key, dim, _), e in zip(cells, exps[1:]):
        row = {}
        for face, sign in X.topo_boundary(key):
            f = number.get(face)
            if f is None:
                raise NonMonotoneLabels("face %r missing from the complex" % (face,))
            if not all(map(le, exps[f], e)):
                raise NonMonotoneLabels(
                    "label of %r does not divide label of %r" % (face, key)
                )
            if sign:
                row[f] = sign
        faces.append(row if dim else {0: 1})
    vertex_labels = sorted(e for d, e in zip(deg, exps) if d == 0)
    gen_labels = sorted(g.e for g in ideal.gens)
    if vertex_labels != gen_labels:
        return False, Monomial.one(ideal.n)
    if full_simplices:
        return True, None
    chain = ChainData(deg, faces)
    require_dd_zero(chain)
    strands, _ = _strands(exps[1:], lcm_lattice(ideal))
    for member, b in strands.items():
        if not is_exact(chain.restrict(member << 1 | 1))[0]:
            return False, b
    return True, None


@dataclass
class GlueCell:
    """ekcells.GlueCell as it was before it kept ints: the cell
    U(m_source, alpha); eps_by_vertices is its sign per vertex tuple."""

    source: int
    alpha: tuple
    simplices: tuple  # nondegenerate SimplexChains
    eps: tuple  # orientation sign per simplex
    facets: tuple  # surviving (vertex tuple, coefficient, sigma, dropped)
    eps_by_vertices: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.eps_by_vertices = {s.vertices: e for s, e in zip(self.simplices, self.eps)}

    @property
    def key(self):
        return (self.source, self.alpha)

    def vertex_set(self):
        out = set()
        for s in self.simplices:
            out.update(s.vertices)
        return out


def _sign(sigma):
    """The orientation sign of sigma, from the rank-table sign above."""
    p = len(sigma)
    return orientation_sign(sigma) * (-1) ** (p * (p - 1) // 2)


def build_cell(ideal, j, alpha, rule=None):
    """ekcells.build_cell as it was before it kept ints: one SimplexChain
    per order the rule yields, facets grouped by vertex-set bitmask and
    kept as vertex tuples, sorted."""
    rule = rule or BRule(ideal)
    alpha = tuple(sorted(alpha))
    if not set(alpha) <= set(ideal.set_of(j)):
        raise AlphaNotInSet("%s not inside set(m_%d)" % (alpha, j))
    chains = [
        SimplexChain(j, alpha, sigma, vertices, degenerate=False)
        for sigma, vertices in rule.permutations(j, alpha)
    ]
    if not chains:
        raise VerificationError("no nondegenerate chain for (m_%d, %s)" % (j, alpha))
    eps = tuple(_sign(c.sigma) for c in chains)
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
            continue
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
    return GlueCell(j, alpha, tuple(chains), eps, tuple(survivors))


def boundary_from_cell(cell, cell_cache):
    """ekcells._boundary_from_cell as it was before it kept ints: facets
    matched to faces by vertex tuple."""
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
                    "facet %s is not a chain of (m_%d, %s)" % (facet, target[0], target[1])
                )
            value = coeff * signs[facet]
            if incidence is None:
                incidence = value
            elif incidence != value:
                raise OrientationClash(
                    "incoherent incidence of U%s under U%s" % (target, cell.key)
                )
            seen.add(facet)
        if len(seen) != len(signs):
            raise VerificationError(
                "boundary of U%s covers only part of U%s" % (cell.key, target)
            )
        out.append((target, incidence))
    return out


def build_ek_cw(ideal, rule=None):
    """ekcells.build_ek_cw as it was before it glued on ints, returning
    its tables ({key: cell}, {key: boundary}, {key: label}, {key:
    coefficients}) instead of a CWComplexEK; labels are built from the
    generators' Monomials."""
    rule = rule or BRule(ideal)
    cells, labels = {}, {}
    for j in range(1, ideal.k + 1):
        for size in range(len(ideal.set_of(j)) + 1):
            for alpha in combinations(ideal.set_of(j), size):
                cells[(j, alpha)] = build_cell(ideal, j, alpha, rule)
                label = ideal.gen(j)
                for t in alpha:
                    label = label.times_var(t)
                labels[(j, alpha)] = label
    boundary, coefficients = {}, {}
    for key in sorted(cells):
        label = labels[key]
        if lcm_of(ideal.gen(v) for v in cells[key].vertex_set()) != label:
            raise VerificationError("label of U%s is not the lcm of its vertices" % (key,))
        entries = boundary_from_cell(cells[key], cells)
        coeffs = []
        for target, _ in entries:
            q = tuple(map(sub, label.e, labels[target].e))
            if min(q) < 0:
                raise VerificationError(
                    "label of U%s does not divide label of U%s" % (target, key)
                )
            if not any(q):
                raise VerificationError("unit coefficient between U%s and U%s" % (key, target))
            coeffs.append(Monomial(q))
        boundary[key] = entries
        coefficients[key] = coeffs
    return cells, boundary, labels, coefficients


def find_linear_quotient_order(ideal):
    """The lexicographically smallest 1-based generator order with linear
    quotients, or None: a depth-first search that minimalizes the colon
    of every candidate, with failed prefix sets memoized."""
    k = ideal.k
    gens = ideal.gens
    dead = set()

    def extend(order, used):
        if len(order) == k:
            return order
        key = frozenset(used)
        if key in dead:
            return None
        placed = [gens[i - 1] for i in order]
        for j in range(1, k + 1):
            if j in used:
                continue
            if all(q.degree() == 1 for q in _colon_gens(placed, gens[j - 1])):
                res = extend(order + [j], used | {j})
                if res is not None:
                    return res
        dead.add(key)
        return None

    res = extend([], set())
    return tuple(res) if res is not None else None
