"""Monomials as exponent vectors over a fixed set of variables x1..xn.

All arithmetic is componentwise and exact.  Variables are numbered from 1
in every public interface; position i-1 of the exponent tuple belongs to
variable x_i.
"""

import re
from operator import add, le, sub

from .errors import MalformedMonomial

_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")

# The most variables an input may name, checked before anything of that
# size is built; far above the n <= 17 of every corpus, bench and test input.
MAX_VARIABLES = 1000


def _check_variables(n):
    if n > MAX_VARIABLES:
        raise MalformedMonomial(
            "%d variables exceed the bound %d" % (n, MAX_VARIABLES)
        )


class Monomial:
    """An exponent vector (a_1, ..., a_n), i.e. x1^a1 * ... * xn^an."""

    __slots__ = ("e",)

    def __init__(self, exponents):
        e = tuple(int(a) for a in exponents)
        if any(a < 0 for a in e):
            raise ValueError("negative exponent: %r" % (e,))
        self.e = e

    @classmethod
    def _raw(cls, e):
        """Wrap an exponent tuple known to be nonnegative, unvalidated.

        For arithmetic results only; every outside value goes through the
        validating constructor.
        """
        m = object.__new__(cls)
        m.e = e
        return m

    @classmethod
    def one(cls, n):
        return cls._raw((0,) * n)

    @classmethod
    def variable(cls, i, n):
        """x_i inside k[x1..xn] (1-based i)."""
        if not 1 <= i <= n:
            raise ValueError("variable index %d out of range 1..%d" % (i, n))
        return cls._raw(tuple(1 if j == i - 1 else 0 for j in range(n)))

    @classmethod
    def from_support(cls, support, n):
        """Squarefree monomial with the given 1-based support."""
        s = set(support)
        return cls._raw(tuple(1 if j + 1 in s else 0 for j in range(n)))

    @property
    def n(self):
        return len(self.e)

    def degree(self):
        return sum(self.e)

    def is_one(self):
        return not any(self.e)

    def is_squarefree(self):
        return all(a <= 1 for a in self.e)

    def support(self):
        """Sorted tuple of 1-based variable indices with positive exponent."""
        return tuple(i + 1 for i, a in enumerate(self.e) if a)

    def divides(self, other):
        return all(map(le, self.e, other.e))

    def __mul__(self, other):
        return Monomial._raw(tuple(map(add, self.e, other.e)))

    def __floordiv__(self, other):
        if not other.divides(self):
            raise ValueError("%s does not divide %s" % (other, self))
        return Monomial._raw(tuple(map(sub, self.e, other.e)))

    def lcm(self, other):
        return Monomial._raw(tuple(map(max, self.e, other.e)))

    def gcd(self, other):
        return Monomial._raw(tuple(map(min, self.e, other.e)))

    def times_var(self, i):
        """Multiply by x_i (1-based)."""
        e = list(self.e)
        e[i - 1] += 1
        return Monomial._raw(tuple(e))

    def extended(self, n):
        """The same monomial viewed in k[x1..xn] for n >= self.n."""
        if n < len(self.e):
            raise ValueError("cannot shrink ambient ring")
        return Monomial(self.e + (0,) * (n - len(self.e)))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.e == other.e

    def __hash__(self):
        return hash(self.e)

    def __lt__(self, other):
        # lex order on exponent vectors; used only for deterministic sorting
        return self.e < other.e

    def __le__(self, other):
        return self.e <= other.e

    def __str__(self):
        if self.is_one():
            return "1"
        parts = []
        for i, a in enumerate(self.e):
            if a == 1:
                parts.append("x%d" % (i + 1))
            elif a > 1:
                parts.append("x%d^%d" % (i + 1, a))
        return "*".join(parts)

    def __repr__(self):
        return "Monomial(%r)" % (self.e,)


def _factor_int(digits, factor):
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise MalformedMonomial(
            "number too long in a factor of %d characters" % len(factor)
        ) from None


def parse_monomial(text, n=None):
    """Parse one monomial in the grammar ``x<i>[^k]`` factors joined by ``*``,
    or a bracketed exponent tuple like ``[1,0,2]``.

    When n is None the ambient size is inferred (max index seen); callers
    that parse several monomials should re-extend to a common n afterwards.
    More than MAX_VARIABLES variables raise MalformedMonomial.
    """
    text = text.strip()
    if not text:
        raise MalformedMonomial("empty monomial")
    if n is not None:
        _check_variables(n)
    if text.startswith("["):
        if not text.endswith("]"):
            raise MalformedMonomial("unterminated exponent tuple: %r" % text)
        body = text[1:-1].strip()
        try:
            exps = [int(p) for p in body.split(",")] if body else []
        except ValueError:
            raise MalformedMonomial("bad exponent tuple: %r" % text) from None
        if any(a < 0 for a in exps):
            raise MalformedMonomial("negative exponent in %r" % text)
        _check_variables(len(exps))
        m = Monomial(exps)
        return m if n is None else m.extended(n)
    if text == "1":
        return Monomial.one(n or 0)
    exps = {}
    for factor in text.split("*"):
        factor = factor.strip()
        match = _FACTOR_RE.match(factor)
        if not match:
            raise MalformedMonomial("bad factor %r in %r" % (factor, text))
        idx = _factor_int(match.group(1), factor)
        if idx < 1:
            raise MalformedMonomial("variable index must be >= 1: %r" % factor)
        exps[idx] = exps.get(idx, 0) + _factor_int(match.group(2) or "1", factor)
    size = n if n is not None else max(exps)
    _check_variables(size)
    if max(exps) > size:
        raise MalformedMonomial("variable x%d exceeds ambient n=%d" % (max(exps), size))
    return Monomial(tuple(exps.get(i, 0) for i in range(1, size + 1)))
