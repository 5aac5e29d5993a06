"""Monomial ideals with an ordered generating set.

The central objects are OrderedIdeal (generators in a candidate
linear-quotient order) and the combinatorics attached to that order: the
colon ideals (m_1,..,m_{j-1}) : m_j, the variable sets set(m_j) they are
generated by, the decomposition function b (first generator in order
dividing a monomial), and the regularity test on b.  Linear quotients,
set(m_j) and b are decided together, in one pass over exponent tuples
per generator; the minimalized colons stay as their exact reference.

Generators and variables are 1-based everywhere.
"""

import re
from dataclasses import dataclass, field
from itertools import combinations
from operator import sub

from .errors import (
    DuplicateGenerator,
    IndexOutOfRange,
    MalformedMonomial,
    NonMinimalGenerators,
    NotInIdeal,
    NotLinearQuotients,
)
from .monomial import Monomial, parse_monomial


def minimalize(monomials):
    """Minimal elements of a set of monomials under divisibility.

    Keeps first occurrence order of the survivors.
    """
    ms = list(dict.fromkeys(monomials))
    out = []
    for m in ms:
        if any(other != m and other.divides(m) for other in ms):
            continue
        out.append(m)
    return out


def _colon_gens(placed, m):
    """Minimal generators of (placed) : m, the minimalization of
    { g / gcd(g, m) : g in placed }, as a frozenset."""
    return frozenset(minimalize([g // g.gcd(m) for g in placed]))


def _variable_quotients(placed, m):
    """Whether (placed) : m is generated by variables, in one pass over
    exponent tuples: None if not, else {t: the 0-based position in
    `placed` of the first g with g / gcd(g, m) = x_t}, whose keys are
    set(m).

    The quotients q = g / gcd(g, m) generate the colon, so its minimal
    generators lie among them, and none is 1 while the tuples are
    pairwise minimal and distinct.  The colon is variable-generated
    exactly when every q is divisible by some q of degree 1.  A g divides
    x_t m exactly when its q is x_t, so the first such g is b(x_t m)
    among `placed`.
    """
    first = {}
    wider = []
    for i, g in enumerate(placed):
        # g - m: q = x_t exactly when its one positive entry is a 1 at t
        d = tuple(map(sub, g, m))
        if max(d) == 1 and d.count(1) == 1:
            t = d.index(1) + 1
            if t not in first:
                first[t] = i
        else:
            wider.append(d)
    for d in wider:
        for t in first:
            if d[t - 1] > 0:
                break
        else:
            return None
    return first


def _pair_law(table, j, s, t):
    """(commutes, absorbs) for s < t in set(m_j) under a bare rule table,
    whose missing entries stay put: with T(a, t) = table.get((a, t), a),
    the pair commutes when T(T(j, t), s) == T(T(j, s), t) and absorbs
    when T(T(j, t), s) == T(j, s).  A pair may do both."""
    get = table.get
    after_t = get((j, t), j)
    after_s = get((j, s), j)
    ts = get((after_t, s), after_t)
    return ts == get((after_s, t), after_s), ts == after_s


def _absorbed_pairs(table, sets):
    """{j: {t: the s < t in set(m_j) whose pair absorbs}} under a bare
    rule table, for the variable sets `sets` (set(m_j) at j - 1); a
    generator without an absorbing pair has no entry."""
    out = {}
    for j, sj in enumerate(sets, start=1):
        for s, t in combinations(sj, 2):
            if _pair_law(table, j, s, t)[1]:
                out.setdefault(j, {}).setdefault(t, set()).add(s)
    return out


class OrderedIdeal:
    """A monomial ideal with a fixed order on its minimal generators.

    `exponent_index` maps each generator's exponent tuple to its 1-based
    index; it is the one generator lookup, read but never changed by the
    builders that compute generators as exponent tuples.
    """

    def __init__(self, n, gens):
        gens = tuple(g if isinstance(g, Monomial) else Monomial(g) for g in gens)
        if not gens:
            raise MalformedMonomial("an ideal needs at least one generator")
        for g in gens:
            if g.n != n:
                raise MalformedMonomial(
                    "generator %s does not live in %d variables" % (g, n)
                )
            if g.is_one():
                raise MalformedMonomial("the unit monomial cannot be a generator")
        index = {}
        for j, g in enumerate(gens, start=1):
            if g.e in index:
                raise DuplicateGenerator(str(g))
            index[g.e] = j
        # generators are now pairwise unequal, and of two distinct
        # monomials only one of smaller degree can divide the other
        degrees = [g.degree() for g in gens]
        for g, dg in zip(gens, degrees):
            for h, dh in zip(gens, degrees):
                if dg < dh and g.divides(h):
                    raise NonMinimalGenerators("%s divides %s" % (g, h))
        self.n = n
        self.gens = gens
        self.exponent_index = index
        self._colons = {}
        self._quotients = None  # (failure, set table, b table), see _decide
        self._b_absorbed = None
        self._lattice = None  # betti's lcm lattice, built on first use

    @property
    def k(self):
        return len(self.gens)

    def gen(self, j):
        """The j-th generator, 1-based."""
        if not 1 <= j <= self.k:
            raise IndexOutOfRange(j)
        return self.gens[j - 1]

    def index_of(self, m):
        """1-based index of a generator equal to m, or None."""
        return self.exponent_index.get(m.e)

    def reordered(self, order):
        """New OrderedIdeal with generators permuted by `order` (1-based)."""
        return OrderedIdeal(self.n, [self.gen(j) for j in order])

    # -- colon ideals and set(m_j) -------------------------------------

    def colon_by_generator(self, j):
        """Minimal generators of (m_1,..,m_{j-1}) : m_j, as a frozenset.

        Computed once per j, as the minimalization of
        { m_i / gcd(m_i, m_j) : i < j }, and shared.  Empty for j = 1.
        The exact colon, independent of the one-pass decision below; the
        decision reads it only to name a failure's witness.
        """
        if not 1 <= j <= self.k:
            raise IndexOutOfRange(j)
        colon = self._colons.get(j)
        if colon is None:
            colon = self._colons[j] = _colon_gens(self.gens[: j - 1], self.gens[j - 1])
        return colon

    def _decide(self):
        """(failure, set table, b table), decided in one pass of
        _variable_quotients per generator and kept in `_quotients`; both
        tables are None on failure.  Readers take the memo as
        `self._quotients or self._decide()`: the tables are read per cell."""
        es = [g.e for g in self.gens]
        sets = []
        b = {}
        for j in range(1, self.k + 1):
            first = _variable_quotients(es[: j - 1], es[j - 1])
            if first is None:
                bad = [q for q in self.colon_by_generator(j) if q.degree() != 1]
                self._quotients = (j, min(bad)), None, None
                return self._quotients
            sj = tuple(sorted(first))
            sets.append(sj)
            for t in sj:
                b[(j, t)] = first[t] + 1
        self._quotients = None, tuple(sets), b
        return self._quotients

    def linear_quotient_failure(self):
        """None if the order has linear quotients, else (j, witness monomial)
        for the smallest j whose colon has a non-variable minimal generator,
        the witness the least such generator of the exact colon.  Computed
        once per ideal and kept."""
        return (self._quotients or self._decide())[0]

    def set_table(self):
        """set(m_j) for every j, as a tuple of sorted variable-index tuples.

        Raises NotLinearQuotients when some colon is not variable-generated.
        """
        failure, table, _ = self._quotients or self._decide()
        if failure is not None:
            raise NotLinearQuotients(
                "colon at j=%d has non-variable generator %s" % failure
            )
        return table

    def set_of(self, j):
        """set(m_j), 1-based."""
        if not 1 <= j <= self.k:
            raise IndexOutOfRange(j)
        return self.set_table()[j - 1]

    def has_linear_quotients(self):
        return self.linear_quotient_failure() is None

    # -- decomposition function b --------------------------------------

    def decomp_b(self, m):
        """Index of the first generator in order dividing m.

        This is the canonical decomposition function: b(m) = m_j for the
        smallest j with m_j | m.  Raises NotInIdeal if no generator divides.
        """
        for j, g in enumerate(self.gens, start=1):
            if g.divides(m):
                return j
        raise NotInIdeal(str(m))

    def b_table(self):
        """{(j, t): index of b(x_t m_j)} for every t in set(m_j), computed
        once and shared.

        Under linear quotients x_t m_j lies in (m_1,..,m_{j-1}) exactly
        when t is in set(m_j), so b(x_t m_j) = m_j for every other t and
        table.get((j, t), j) is b on all products x_t m_j.  Read off the
        same pass as set_table: b(x_t m_j) is the first m_i, i < j, with
        m_i / gcd(m_i, m_j) = x_t; decomp_b is its exact reference.
        """
        failure, _, table = self._quotients or self._decide()
        if failure is not None:
            self.set_table()  # raises NotLinearQuotients
        return table

    def b_absorbed(self):
        """b's absorbing pairs, {j: {t: the s < t whose pair absorbs}},
        read off b_table once and shared by every BRule."""
        if self._b_absorbed is None:
            self._b_absorbed = _absorbed_pairs(self.b_table(), self.set_table())
        return self._b_absorbed

    def __str__(self):
        return "<" + ", ".join(str(g) for g in self.gens) + ">"

    def __repr__(self):
        return "OrderedIdeal(n=%d, gens=%s)" % (self.n, list(self.gens))

    def __eq__(self, other):
        return (
            isinstance(other, OrderedIdeal)
            and self.n == other.n
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.n, self.gens))


# One generator on a line: a run of non-commas in which a closed bracket
# tuple counts as one character, so the commas inside it do not split it.
_GENERATOR_RE = re.compile(r"(?:\[[^\[\]]*\]|[^,])+")


def parse_ideal(text, n=None):
    """Parse a comma- or newline-separated list of monomials.

    Each monomial is `x<i>` factors joined by `*` (an optional `^k` power is
    accepted) or a bracketed exponent tuple such as `[1,0,2]`, whose commas
    separate exponents, not generators.  The textual order is kept.
    Raises MalformedMonomial / DuplicateGenerator / NonMinimalGenerators.
    """
    pieces = [p for line in text.splitlines() for p in _GENERATOR_RE.findall(line)]
    pieces = [p.strip() for p in pieces if p.strip()]
    if not pieces:
        raise MalformedMonomial("no generators given")
    raw = [parse_monomial(p) for p in pieces]
    if n is None:
        n = max(m.n for m in raw)
    elif any(m.n > n for m in raw):
        raise MalformedMonomial("generator exceeds ambient n=%d" % n)
    return OrderedIdeal(n, [m.extended(n) for m in raw])


# -- linear quotient order search --------------------------------------


def find_linear_quotient_order(ideal):
    """Search for a permutation of the generators with linear quotients.

    Returns the lexicographically smallest 1-based index sequence that
    works, or None.  Validity of position j depends only on the *set* of
    earlier generators, so failed prefix sets are memoized.
    """
    k = ideal.k
    es = [g.e for g in ideal.gens]
    dead = set()

    def extend(order, used):
        if len(order) == k:
            return order
        key = frozenset(used)
        if key in dead:
            return None
        placed = [es[i - 1] for i in order]
        for j in range(1, k + 1):
            if j in used:
                continue
            if _variable_quotients(placed, es[j - 1]) is not None:
                res = extend(order + [j], used | {j})
                if res is not None:
                    return res
        dead.add(key)
        return None

    res = extend([], set())
    return tuple(res) if res is not None else None


# -- regularity of b ----------------------------------------------------


@dataclass
class RegularityReport:
    """Outcome of the exhaustive regularity check of b.

    witnesses: (j, t) pairs with set(b(x_t m_j)) not contained in set(m_j).
    star_witnesses: (j, s, t) with b(x_s b(x_t m_j)) != b(x_t b(x_s m_j)).
    """

    regular: bool
    witnesses: list = field(default_factory=list)
    star_commutes: bool = True
    star_witnesses: list = field(default_factory=list)


def check_regularity(ideal):
    """Test set(b(x_t m)) <= set(m) for all generators m and t in set(m),
    and, independently, the commutation b(x_s b(x_t m)) = b(x_t b(x_s m))
    for all pairs s, t in set(m)."""
    table = ideal.set_table()  # raises NotLinearQuotients when not LQ
    b = ideal.b_table()
    witnesses = []
    star_witnesses = []
    for j, sj in enumerate(table, start=1):
        members = set(sj)
        for t in sj:
            if not members.issuperset(table[b[(j, t)] - 1]):
                witnesses.append((j, t))
        for s, t in combinations(sj, 2):
            if not _pair_law(b, j, s, t)[0]:
                star_witnesses.append((j, s, t))
    return RegularityReport(
        regular=not witnesses,
        witnesses=witnesses,
        star_commutes=not star_witnesses,
        star_witnesses=star_witnesses,
    )
