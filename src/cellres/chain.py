"""Graded free chain complexes with monomial-entry differentials.

Basis elements are hashable labels; the resolutions built here use
Symbol(gen, alpha) labels, where alpha is a sorted subset of set(m_gen)
and the homological degree is |alpha| + 1.  Degree 0 always has the
single basis element UNIT (the ring itself), so the complexes resolve
R/I with d(m; {}) = m.

Every differential entry is a pair (sign, monomial); multidegree
homogeneity (column degree = coefficient * row degree) is checked by
validate() and d o d = 0 is checked, never assumed.
"""

from collections import defaultdict
from itertools import combinations
from operator import add, sub
from typing import NamedTuple

from .errors import (
    NonCommutingChainMap,
    NotLinearQuotients,
    NotRegular,
    VerificationError,
)
from .ideals import check_regularity
from .monomial import Monomial


class Symbol(NamedTuple):
    gen: int  # 1-based generator index; 0 marks the ring itself
    alpha: tuple

    def __str__(self):
        if self.gen == 0:
            return "(1)"
        return "(m%d;{%s})" % (self.gen, ",".join(map(str, self.alpha)))


UNIT = Symbol(0, ())


class LabeledChainComplex:
    """Free modules F_0, F_1, ... with sparse monomial differentials.

    diff[i] maps (row, col) index pairs of F_{i-1} x F_i to (sign, coeff)
    with sign in {+1, -1} and coeff a Monomial.  diff[0] is empty.

    The complex owns the lists and dicts it is handed: it keeps them, not
    copies, and pads `diff` with empty degrees in place.  index[i] is the
    one label -> position table of degree i, so a label repeated within a
    degree, or a degree whose multidegrees and basis differ in length, is
    refused with ValueError.
    """

    def __init__(self, n, basis, mdeg, diff):
        self.n = n
        self.basis = basis
        self.mdeg = mdeg
        self.diff = diff
        while len(diff) < len(basis):
            diff.append({})
        self.index = [{label: i for i, label in enumerate(b)} for b in basis]
        for i, b in enumerate(basis):
            if len(self.index[i]) != len(b):
                raise ValueError("repeated basis label in degree %d" % i)
            m = mdeg[i] if i < len(mdeg) else ()
            if len(m) != len(b):
                raise ValueError(
                    "degree %d has %d multidegrees for %d labels" % (i, len(m), len(b))
                )

    def ranks(self):
        return tuple(len(b) for b in self.basis)

    def entries(self, i):
        """Sorted items of diff[i] for deterministic traversal."""
        return sorted(self.diff[i].items())

    def validate(self):
        """Multidegree homogeneity at every nonzero entry."""
        for i, d in enumerate(self.diff):
            for (r, c), (sign, coeff) in d.items():
                if sign not in (1, -1):
                    raise ValueError("sign %r at degree %d" % (sign, i))
                if not _homogeneous_entry(coeff, self.mdeg[i - 1][r], self.mdeg[i][c]):
                    raise ValueError(
                        "entry (%d,%d) in degree %d is inhomogeneous" % (r, c, i)
                    )
        return True

    def betti_by_multidegree(self):
        """Counts of basis elements per (degree, multidegree); for a minimal
        resolution these are the graded Betti numbers of R/I."""
        out = defaultdict(int)
        for i, ms in enumerate(self.mdeg):
            for m in ms:
                out[(i, m.e)] += 1
        return dict(out)


def _homogeneous_entry(coeff, row, col):
    """coeff * row == col, on exponent vectors of one length."""
    return len(coeff.e) == len(row.e) and tuple(map(add, coeff.e, row.e)) == col.e


def _homogeneous(cx, i):
    """True iff every entry of diff[i] is homogeneous."""
    try:
        rows, cols = cx.mdeg[i - 1], cx.mdeg[i]
        return all(
            _homogeneous_entry(coeff, rows[r], cols[c])
            for (r, c), (_, coeff) in cx.diff[i].items()
        )
    except IndexError:
        return False


def _by_col(d):
    """Entries of a differential or map grouped by column:
    col -> [(row, (sign, coeff))]."""
    out = defaultdict(list)
    for (r, c), e in d.items():
        out[c].append((r, e))
    return out


def _path_sums(upper, lower_by_col, acc=None, sign=1):
    """Add sign times the composite lower o upper to acc (a new one by
    default) and return it, exactly: every path col -> mid -> row adds its
    sign to acc[(row, col)][exponent vector of the path monomial]."""
    if acc is None:
        acc = defaultdict(lambda: defaultdict(int))
    for (mid, c), (s1, m1) in upper.items():
        for r, (s2, m2) in lower_by_col.get(mid, ()):
            acc[(r, c)][(m1 * m2).e] += sign * s1 * s2
    return acc


def check_dd_zero(cx):
    """Exact check that consecutive differentials compose to zero.

    Returns (True, None) or (False, (degree, row label, col label)) with the
    first failing entry in deterministic order.

    Where diff[i] and diff[i-1] are both homogeneous, every path col ->
    row has the coefficient mdeg(col) / mdeg(row), so only the signs are
    summed; elsewhere the path monomials are summed exactly.
    """
    lower_homogeneous = _homogeneous(cx, 1)
    for i in range(2, len(cx.basis)):
        homogeneous = _homogeneous(cx, i)
        lower_by_col = _by_col(cx.diff[i - 1])
        if homogeneous and lower_homogeneous:
            signs = defaultdict(int)
            for (mid, c), (s1, _) in cx.diff[i].items():
                for r2, (s2, _) in lower_by_col.get(mid, ()):
                    signs[(r2, c)] += s1 * s2
            bad = sorted(key for key, v in signs.items() if v)
        else:
            acc = _path_sums(cx.diff[i], lower_by_col)
            bad = sorted(key for key, poly in acc.items() if any(poly.values()))
        if bad:
            r, c = bad[0]
            return False, (i, cx.basis[i - 2][r], cx.basis[i][c])
        lower_homogeneous = homogeneous
    return True, None


def check_minimal(cx):
    """True iff no differential entry has a unit coefficient."""
    for d in cx.diff:
        for (_, _), (_, coeff) in d.items():
            if coeff.is_one():
                return False
    return True


def compare_up_to_degree_signs(c1, c2):
    """Exact entrywise equality of two complexes on the same bases: every
    differential entry must agree in sign and coefficient.  No sign is
    forgiven, despite the name; the name stays until the benchmark that
    calls it may be edited too (ROADMAP item 7).

    Returns (True, None) or (False, reason).
    """
    if c1.ranks() != c2.ranks():
        return False, "ranks differ: %s vs %s" % (c1.ranks(), c2.ranks())
    for i in range(len(c1.basis)):
        if c1.basis[i] != c2.basis[i]:
            return False, "bases differ in degree %d" % i
        if c1.mdeg[i] != c2.mdeg[i]:
            return False, "multidegrees differ in degree %d" % i
    for i in range(1, len(c1.basis)):
        d1, d2 = c1.diff[i], c2.diff[i]
        if d1.keys() != d2.keys():
            return False, "supports differ in degree %d" % i
        for key in sorted(d1):
            s1, m1 = d1[key]
            s2, m2 = d2[key]
            if m1 != m2:
                return False, "coefficients differ at %s in degree %d" % (key, i)
            if s1 != s2:
                return False, "signs differ at %s in degree %d" % (key, i)
    return True, None


# -- Koszul complexes ---------------------------------------------------


def koszul_complex(variables, shift):
    """Exterior-algebra complex on the given variable indices, all
    multidegrees multiplied by `shift`.

    Basis labels in degree i are the sorted i-subsets of `variables`;
    d(beta) = sum over positions p (1-based) of (-1)^(p-1) x_{beta_p}
    (beta minus beta_p).
    """
    variables = tuple(sorted(variables))
    n = shift.n
    basis = [list(combinations(variables, i)) for i in range(len(variables) + 1)]
    mdeg = [[shift * Monomial.from_support(beta, n) for beta in level] for level in basis]
    cx = LabeledChainComplex(n, basis, mdeg, [])
    x = {t: Monomial.variable(t, n) for t in variables}
    for i in range(1, len(basis)):
        rows, d = cx.index[i - 1], cx.diff[i]
        for c, beta in enumerate(basis[i]):
            for p, t in enumerate(beta):
                sign = 1 if p % 2 == 0 else -1
                d[(rows[beta[:p] + beta[p + 1 :]], c)] = (sign, x[t])
    return cx


# -- chain maps and mapping cones ---------------------------------------


class ChainMap:
    """A degree-preserving map of complexes with (sign, monomial) entries.

    maps[i] sends F^source_i to F^target_i; keys are (target row index,
    source column index).  It keeps the list it is handed and pads it in
    place.
    """

    def __init__(self, source, target, maps):
        self.source = source
        self.target = target
        self.maps = maps
        while len(maps) < len(source.basis):
            maps.append({})

    def commutes(self):
        """Exact check of d_target o psi = psi o d_source."""
        src, tgt = self.source, self.target
        for i in range(1, len(src.basis)):
            acc = _path_sums(src.diff[i], _by_col(self.maps[i - 1]))
            if i < len(tgt.basis):
                _path_sums(self.maps[i], _by_col(tgt.diff[i]), acc, sign=-1)
            if any(any(poly.values()) for poly in acc.values()):
                return False
        return True


def mapping_cone(psi, relabel_shifted=None):
    """The cone of psi: G -> F, i.e. F (+) G[1] with differential
    d(g, f) = (-d_G g, psi g + d_F f).

    Each degree lists F's basis first, then G[1]'s, so F's entries keep
    their positions and only the -d_G and psi blocks are offset, by F's
    size in that degree.  The cone copies F's differential and builds
    new lists; it shares no table with psi, F or G.  Basis labels from G
    are passed through `relabel_shifted` (default wraps them as
    ("cone", label)) so the two parts stay distinguishable.
    """
    if not psi.commutes():
        raise NonCommutingChainMap("chain map does not commute with differentials")
    G, F = psi.source, psi.target
    if relabel_shifted is None:
        relabel_shifted = lambda lbl: ("cone", lbl)
    top = max(len(F.basis), len(G.basis) + 1)
    basis, mdeg, diff = [], [], []
    f_size = []  # number of F elements in each cone degree
    for i in range(top):
        has_f, has_g = i < len(F.basis), 1 <= i <= len(G.basis)
        f_size.append(len(F.basis[i]) if has_f else 0)
        basis.append(
            (F.basis[i] if has_f else [])
            + ([relabel_shifted(l) for l in G.basis[i - 1]] if has_g else [])
        )
        mdeg.append((F.mdeg[i] if has_f else []) + (G.mdeg[i - 1] if has_g else []))
        # F columns: d_F at its own positions
        diff.append(dict(F.diff[i]) if i < len(F.diff) else {})
    for i in range(1, top):
        d, r_off, c_off = diff[i], f_size[i - 1], f_size[i]
        # G[1] columns: -d_G into the G[1] block, psi into the F block
        if 2 <= i <= len(G.diff):
            for (r, c), (s, m) in G.diff[i - 1].items():
                d[(r_off + r, c_off + c)] = (-s, m)
        if i - 1 < len(psi.maps):
            for (tr, sc), (s, m) in psi.maps[i - 1].items():
                d[(tr, c_off + sc)] = (s, m)
    return LabeledChainComplex(F.n, basis, mdeg, diff)


# -- resolutions from decomposition rules --------------------------------


def chain_orders(rule, j, alpha, conflict=None):
    """Pairs (sigma, vertices) for the orders sigma of alpha whose chain
    vertices = (j, rule(x_{s1} m_j), ...) never repeats a vertex and that
    respect the rule's pairwise order constraint.

    `conflict(s, t)` for s < t is true when s may not precede t.  A rule
    step goes to an earlier generator or stays put, so the vertices
    decrease until a step stays put; a step x_t m_j -> m_v to a later
    generator raises VerificationError naming x_t, m_j and m_v.  The
    orders are built one variable at a time: a prefix whose last step
    stays put, or breaks the constraint, is cut there, whatever follows.
    The survivors come in itertools.permutations(sorted alpha) order.
    """
    alpha = tuple(sorted(alpha))
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
            if conflict is not None and any(
                s < t and conflict(s, t) for s in sigma
            ):
                continue
            v = rule.apply(last, t)
            if v == last:
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


class TableRule:
    """A decomposition rule: a table (j, t) -> g sending x_t m_j to the
    earlier generator m_g, plus the absorbing pairs (j, s, t), s < t in
    set(m_j), where the later variable's effect is overwritten.

    Products missing from the table stay put (g = j).  An absorbed
    variable contributes no rule term to the differential, and the glued
    cells use only the chain orders that apply the larger variable of an
    absorbing pair first.  The table is shared, not copied.

    `resolution` is the rule's symbol-basis complex once a caller has
    built and checked it (enumerate_regular_rules does), else None.
    """

    resolution = None

    def __init__(self, ideal, table, absorbing):
        self.ideal = ideal
        self.table = table
        self.absorbing = frozenset(absorbing)
        self._absorbing_at = {}
        for j, s, t in self.absorbing:
            self._absorbing_at.setdefault(j, set()).add((s, t))

    def key(self):
        return tuple(sorted(self.table.items()))

    def apply(self, j, t):
        """Index of rule(x_t m_j)."""
        return self.table.get((j, t), j)

    def tset(self, j, alpha):
        """Elements of alpha contributing rule terms: those not absorbed
        by a larger element of alpha."""
        pairs = self._absorbing_at.get(j)
        if not pairs:
            return alpha
        return tuple(
            t for t in alpha if not any(t < u and (t, u) in pairs for u in alpha)
        )

    def permutations(self, j, alpha):
        """Chain orders glued into the cell of (m_j, alpha), as chain_orders
        pairs (sigma, vertices): those whose chain is nondegenerate and
        that put the larger member of each absorbing pair first."""
        pairs = self._absorbing_at.get(j)
        conflict = (lambda s, t: (s, t) in pairs) if pairs else None
        return chain_orders(self, j, alpha, conflict)


class BRule(TableRule):
    """The canonical decomposition function b (first generator dividing),
    with no absorbing pairs."""

    def __init__(self, ideal):
        super().__init__(ideal, ideal.b_table(), ())

    # bound per class: the traced benchmark wraps vars(cls)["permutations"]
    permutations = TableRule.permutations


def symbol_basis(ideal):
    """Symbols (m; alpha), alpha a subset of set(m), graded by |alpha| + 1,
    with their multidegrees m * x_alpha.

    Degree 0 is the ring itself (UNIT).
    """
    table = ideal.set_table()
    top = 1 + max((len(s) for s in table), default=0)
    exponents = [g.e for g in ideal.gens]
    basis = [[UNIT]]
    mdeg = [[Monomial.one(ideal.n)]]
    for i in range(1, top + 1):
        level, degrees = [], []
        for j, (sj, e) in enumerate(zip(table, exponents), start=1):
            for alpha in combinations(sj, i - 1):
                level.append(Symbol(j, alpha))
                up = list(e)
                for t in alpha:
                    up[t - 1] += 1
                degrees.append(Monomial._raw(tuple(up)))
        basis.append(level)
        mdeg.append(degrees)
    return basis, mdeg


def resolution_from_rule(ideal, rule):
    """The full symbol-basis complex with the rule-driven differential.

    d(m; {}) = m.  For alpha = (j_1 < ... < j_p):
        d(m;alpha) = sum_i (-1)^i x_{j_i} (m; alpha - j_i)
                   - sum_{j_i in tset} (-1)^i (x_{j_i} m / m_g) (m_g; alpha - j_i)
    with m_g = rule(x_{j_i} m); a rule term whose target (m_g; alpha - j_i)
    is not a symbol (alpha - j_i not inside set(m_g)) is dropped.  Each
    column lists its entries in that order, i ascending.  A rule
    coefficient depends on (j, j_i) alone and is computed once per call.
    """
    basis, mdeg = symbol_basis(ideal)
    cx = LabeledChainComplex(ideal.n, basis, mdeg, [])
    gens = ideal.gens
    variables = [Monomial.variable(t, ideal.n) for t in range(1, ideal.n + 1)]
    sets = [frozenset(s) for s in ideal.set_table()]
    cx.diff[1] = {(0, c): (1, gens[j - 1]) for c, (j, _) in enumerate(basis[1])}
    coefficients = {}  # (j, t) -> x_t m_j / m_g
    for i in range(2, len(basis)):
        # Symbols hash and compare as plain (gen, alpha) tuples
        rows, d = cx.index[i - 1], cx.diff[i]
        for c, (j, alpha) in enumerate(basis[i]):
            tset = rule.tset(j, alpha)
            for p, t in enumerate(alpha):
                rest = alpha[:p] + alpha[p + 1 :]
                sign = 1 if p % 2 else -1
                d[(rows[(j, rest)], c)] = (sign, variables[t - 1])
                if t in tset:
                    g = rule.apply(j, t)
                    if sets[g - 1].issuperset(rest):
                        coeff = coefficients.get((j, t))
                        if coeff is None:
                            coeff = coefficients[(j, t)] = _rule_coefficient(gens, j, t, g)
                        d[(rows[(g, rest)], c)] = (-sign, coeff)
    return cx


def _rule_coefficient(gens, j, t, g):
    """x_t m_j / m_g, on exponent tuples."""
    q = list(map(sub, gens[j - 1].e, gens[g - 1].e))
    q[t - 1] += 1
    if min(q) < 0:
        raise ValueError("%s does not divide %s" % (gens[g - 1], gens[j - 1].times_var(t)))
    return Monomial._raw(tuple(q))


def ht_resolution(ideal):
    """Minimal free resolution of R/I for an ideal with linear quotients and
    a regular decomposition function, on the symbol basis."""
    if not ideal.has_linear_quotients():
        raise NotLinearQuotients(str(ideal))
    report = check_regularity(ideal)
    if not report.regular:
        raise NotRegular("witnesses: %s" % report.witnesses[:3])
    return resolution_from_rule(ideal, BRule(ideal))


def iterated_cone_resolution(ideal, rule=None):
    """Rebuild the resolution one generator at a time, as an explicit
    mapping cone of a Koszul complex onto the previous stage.

    It starts from R (UNIT alone in degree 0), so m_1 is coned like every
    other generator.  Step j lists the previous stage first and appends
    Symbol(j, beta) after the symbols of every earlier generator, beta in
    the Koszul complex's (combinations, lex) order, so the result is in
    symbol order.  Must agree entrywise with resolution_from_rule;
    exercised by tests.
    """
    if rule is None:
        rule = BRule(ideal)
    table = ideal.set_table()
    current = LabeledChainComplex(ideal.n, [[UNIT]], [[Monomial.one(ideal.n)]], [])
    for step in range(1, ideal.k + 1):
        mj = ideal.gen(step)
        variables = table[step - 1]
        kos = koszul_complex(variables, mj)
        maps = []
        for i in range(len(kos.basis)):
            mp = {}
            for c, beta in enumerate(kos.basis[i]):
                if not beta:
                    mp[(current.index[0][UNIT], c)] = (1, mj)
                    continue
                tset = set(rule.tset(step, beta))
                for pos, t in enumerate(beta, start=1):
                    if t not in tset:
                        continue
                    g = rule.apply(step, t)
                    rest = tuple(x for x in beta if x != t)
                    if not set(rest) <= set(table[g - 1]):
                        continue
                    sign = 1 if pos % 2 == 1 else -1
                    coeff = mj.times_var(t) // ideal.gen(g)
                    target = Symbol(g, rest)
                    mp[(current.index[i][target], c)] = (sign, coeff)
            maps.append(mp)
        psi = ChainMap(kos, current, maps)
        current = mapping_cone(
            psi, relabel_shifted=lambda beta, s=step: Symbol(s, beta)
        )
    return current


# -- labeled cell complexes ----------------------------------------------


def cell_chain_complex(X, ideal, name_of):
    """The labeled chain complex of a cell complex, as a resolution of R/I.

    X offers cells_with_labels() -> (cell, dim, label),
    topo_boundary(cell) -> [(face, sign)] and coefficients(cell), the
    faces' incidence coefficients in the same order; name_of(cell) is the
    cell's basis element.  Degree 0 is the ring; degree i >= 1 holds the
    cells of dimension i-1 sorted by name.  A vertex maps to the ring by
    its label, and a face enters with the coefficient X gives it: the
    stored table of a complex that has one, else label // face label
    (betti.LabeledCellComplex.coefficients).  They are read, not checked
    here.
    """
    labels, names, by_dim = {}, {}, {}
    for cell, dim, label in X.cells_with_labels():
        labels[cell] = label
        names[cell] = name_of(cell)
        by_dim.setdefault(dim, []).append(cell)
    top = max(by_dim) if by_dim else 0
    levels = [sorted(by_dim.get(dim, []), key=names.get) for dim in range(top + 1)]
    cx = LabeledChainComplex(
        ideal.n,
        [[UNIT]] + [[names[cell] for cell in level] for level in levels],
        [[Monomial.one(ideal.n)]] + [[labels[cell] for cell in level] for level in levels],
        [],
    )
    cx.diff[1] = {(0, c): (1, labels[cell]) for c, cell in enumerate(levels[0])}
    for deg in range(2, top + 2):
        rows, entries = cx.index[deg - 1], cx.diff[deg]
        for col, cell in enumerate(levels[deg - 1]):
            for (face, sign), coeff in zip(X.topo_boundary(cell), X.coefficients(cell)):
                entries[(rows[names[face]], col)] = (sign, coeff)
    return cx

