"""Monomial ideals with an ordered generating set.

The central objects are OrderedIdeal (generators in a candidate
linear-quotient order) and the combinatorics attached to that order: the
colon ideals (m_1,..,m_{j-1}) : m_j, the variable sets set(m_j) they are
generated by, the decomposition function b (first generator in order
dividing a monomial), and the regularity test on b.

Generators and variables are 1-based everywhere.
"""

from dataclasses import dataclass, field

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
        self._set_table = None
        self._b_table = None

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
        """Minimal generators of (m_1,..,m_{j-1}) : m_j.

        Computed as the minimalization of { m_i / gcd(m_i, m_j) : i < j }.
        Empty for j = 1.
        """
        if not 1 <= j <= self.k:
            raise IndexOutOfRange(j)
        return set(self._colon(j))

    def _colon(self, j):
        """colon_by_generator(j), computed once per j and shared."""
        colon = self._colons.get(j)
        if colon is None:
            mj = self.gens[j - 1]
            quotients = [mi // mi.gcd(mj) for mi in self.gens[: j - 1]]
            colon = self._colons[j] = frozenset(minimalize(quotients))
        return colon

    def linear_quotient_failure(self):
        """None if the order has linear quotients, else (j, witness monomial)
        for the smallest j whose colon has a non-variable minimal generator."""
        for j in range(1, self.k + 1):
            for q in sorted(self._colon(j)):
                if q.degree() != 1:
                    return j, q
        return None

    def set_table(self):
        """set(m_j) for every j, as a tuple of sorted variable-index tuples.

        Raises NotLinearQuotients when some colon is not variable-generated.
        """
        if self._set_table is None:
            failure = self.linear_quotient_failure()
            if failure is not None:
                raise NotLinearQuotients(
                    "colon at j=%d has non-variable generator %s" % failure
                )
            self._set_table = tuple(
                tuple(sorted(q.support()[0] for q in self._colon(j)))
                for j in range(1, self.k + 1)
            )
        return self._set_table

    def set_of(self, j):
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

    def b_of(self, m):
        return self.gens[self.decomp_b(m) - 1]

    def b_table(self):
        """{(j, t): index of b(x_t m_j)} for every t in set(m_j), computed
        once and shared.

        Under linear quotients x_t m_j lies in (m_1,..,m_{j-1}) exactly
        when t is in set(m_j), so b(x_t m_j) = m_j for every other t and
        table.get((j, t), j) is b on all products x_t m_j.
        """
        if self._b_table is None:
            table = {}
            for j, sj in enumerate(self.set_table(), start=1):
                mj = self.gens[j - 1]
                for t in sj:
                    table[(j, t)] = self.decomp_b(mj.times_var(t))
            self._b_table = table
        return self._b_table

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


def parse_ideal(text, n=None):
    """Parse a comma- or newline-separated list of monomials.

    Each monomial is `x<i>` factors joined by `*` (an optional `^k` power is
    accepted) or a bracketed exponent tuple.  The textual order is kept.
    Raises MalformedMonomial / DuplicateGenerator / NonMinimalGenerators.
    """
    pieces = [p for chunk in text.splitlines() for p in chunk.split(",")]
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


def _prefix_ok(n, placed_gens, candidate):
    """Is the colon of `candidate` by the ideal of `placed_gens` generated
    by variables?  Depends only on the set of placed generators."""
    quotients = [g // g.gcd(candidate) for g in placed_gens]
    return all(q.degree() == 1 for q in minimalize(quotients))


def find_linear_quotient_order(ideal):
    """Search for a permutation of the generators with linear quotients.

    Returns the lexicographically smallest 1-based index sequence that
    works, or None.  Validity of position j depends only on the *set* of
    earlier generators, so failed prefix sets are memoized.
    """
    k = ideal.k
    gens = ideal.gens
    dead = set()

    def extend(order, used):
        if len(order) == k:
            return order
        key = frozenset(used)
        if key in dead:
            return None
        for j in range(1, k + 1):
            if j in used:
                continue
            if _prefix_ok(ideal.n, [gens[i - 1] for i in order], gens[j - 1]):
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
    for j in range(1, ideal.k + 1):
        sj = set(table[j - 1])
        for t in table[j - 1]:
            if not set(table[b[(j, t)] - 1]) <= sj:
                witnesses.append((j, t))
        for a_idx, s in enumerate(table[j - 1]):
            for t in table[j - 1][a_idx + 1 :]:
                bt, bs = b[(j, t)], b[(j, s)]
                if b.get((bt, s), bt) != b.get((bs, t), bs):
                    star_witnesses.append((j, s, t))
    return RegularityReport(
        regular=not witnesses,
        witnesses=witnesses,
        star_commutes=not star_witnesses,
        star_witnesses=star_witnesses,
    )
