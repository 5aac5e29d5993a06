"""Exact linear algebra over the integers and homology of chain complexes.

No floating point anywhere: ranks over Q are computed by fraction-free
(Bareiss) elimination on integer matrices, optionally preceded by a rank
computation over GF(p) used strictly as a sound pre-filter.

The homology engine works on an abstract chain complex given by cells
(grouped by integer degree) and integer boundary coefficients.  It first
splits off acyclic pairs (a cell with a unique coface, incidence +-1);
this "collapse" phase is homology-preserving over every field, creates no
fill-in, and usually empties the complex entirely.  Whatever core remains
is handed to the dense rank routines.
"""

import logging
from collections import defaultdict, deque
from functools import lru_cache

from .errors import InputError, VerificationError

log = logging.getLogger("cellres")

# Smallest prime above 2**20; large enough that accidental rank drops
# modulo p are rare.  Override via RESOLVE_PRIME in the CLI.
DEFAULT_PRIME = 1048583

# Miller-Rabin with these bases decides primality for every n < 3.3e24,
# so for every modulus accepted here (below 2**64).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_LIMIT = 1 << 64


@lru_cache(maxsize=64)
def _is_prime(n):
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p):
    """Return p if it is a prime below 2**64; raise InputError otherwise.

    The GF(p) routines invert by Fermat's little theorem, so a composite
    modulus would overstate ranks and could certify a non-exact complex.
    """
    if not isinstance(p, int) or isinstance(p, bool):
        raise InputError("prime must be an integer, got %r" % (p,))
    if not 2 <= p < PRIME_LIMIT or not _is_prime(p):
        raise InputError("%d is not a prime below 2^64" % p)
    return p


def bareiss_rank(rows):
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    M = [list(map(int, r)) for r in rows]
    if not M or not M[0]:
        return 0
    nrows, ncols = len(M), len(M[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if M[r][col]:
                piv = r
                break
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        p = M[row][col]
        for r in range(row + 1, nrows):
            mr = M[r]
            if not any(mr[col:]):
                continue
            f = mr[col]
            top = M[row]
            for c in range(col, ncols):
                mr[c] = (mr[c] * p - f * top[c]) // prev
        prev = p
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def rank_mod_p(rows, p):
    """Rank of an integer matrix over GF(p); p must be prime."""
    check_prime(p)
    M = [[int(x) % p for x in r] for r in rows]
    if not M or not M[0]:
        return 0
    nrows, ncols = len(M), len(M[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if M[r][col]:
                piv = r
                break
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        inv = pow(M[row][col], p - 2, p)
        top = M[row]
        for r in range(row + 1, nrows):
            f = M[r][col]
            if f:
                mr = M[r]
                fi = f * inv % p
                for c in range(col, ncols):
                    if top[c]:
                        mr[c] = (mr[c] - fi * top[c]) % p
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def exact_rank(rows, prime=None):
    """Rank over Q.  When `prime` is given, GF(prime) is tried first and the
    answer is confirmed over Q only if elimination mod p might have lost
    rank; a genuine disagreement is logged and Q wins."""
    if prime is None:
        return bareiss_rank(rows)
    rp = rank_mod_p(rows, prime)
    full = min(len(rows), len(rows[0]) if rows else 0)
    if rp == full:
        # rank mod p is a lower bound for the rank over Q
        return rp
    rq = bareiss_rank(rows)
    if rq != rp:
        log.warning("GF(%d) rank %d disagrees with Q rank %d", prime, rp, rq)
    return rq


# -- chain complexes ----------------------------------------------------


class ChainData:
    """A chain complex of free modules given by explicit cells.

    cells_by_deg: {degree: iterable of cell ids}, ids hashable and unique
    across degrees.  boundary: {cell id: {face id: integer coefficient}};
    faces must live one degree lower.
    """

    def __init__(self, cells_by_deg, boundary):
        self.cells = {d: list(cs) for d, cs in cells_by_deg.items() if cs}
        self.deg_of = {}
        for d, cs in self.cells.items():
            for c in cs:
                if c in self.deg_of:
                    raise ValueError("duplicate cell id %r" % (c,))
                self.deg_of[c] = d
        self.boundary = {
            c: {f: int(v) for f, v in faces.items() if v}
            for c, faces in boundary.items()
            if c in self.deg_of
        }
        for c, faces in self.boundary.items():
            for f in faces:
                if self.deg_of.get(f) != self.deg_of[c] - 1:
                    raise ValueError(
                        "face %r of %r is not one degree lower" % (f, c)
                    )

    def dims(self):
        return {d: len(cs) for d, cs in self.cells.items()}


def _collapse(chain):
    """Split off acyclic (face, coface) pairs with unit incidence.

    Returns (remaining cell set, removed count).  Requires dd = 0, which is
    checked on the fly: when a face's unique coface is removed, nothing
    above may still be attached to that coface, else VerificationError.
    """
    bdry = {c: dict(fs) for c, fs in chain.boundary.items()}
    cofaces = defaultdict(set)
    for c, faces in bdry.items():
        for f in faces:
            cofaces[f].add(c)
    alive = set(chain.deg_of)

    def is_free(f):
        if f not in alive or len(cofaces[f]) != 1:
            return False
        (c,) = cofaces[f]
        return abs(bdry[c][f]) == 1

    queue = deque(f for f in alive if is_free(f))
    removed = 0
    while queue:
        f = queue.popleft()
        if not is_free(f):
            continue
        (c,) = cofaces[f]
        if cofaces[c]:
            raise VerificationError("collapse hit a non-complex (dd != 0?)")
        alive.discard(f)
        alive.discard(c)
        removed += 2
        for f2 in bdry.get(c, ()):
            if f2 != f and f2 in alive:
                cofaces[f2].discard(c)
                if is_free(f2):
                    queue.append(f2)
        del bdry[c]
        cofaces.pop(f, None)
        cofaces.pop(c, None)
        if f in bdry:
            for f2 in bdry[f]:
                cofaces[f2].discard(f)
                if is_free(f2):
                    queue.append(f2)
            del bdry[f]
    return alive, removed


def _core_matrices(chain, alive):
    """Dense boundary matrices of the subcomplex on `alive` cells."""
    by_deg = defaultdict(list)
    for d in sorted(chain.cells):
        for c in chain.cells[d]:
            if c in alive:
                by_deg[d].append(c)
    index = {}
    for d, cs in by_deg.items():
        for i, c in enumerate(cs):
            index[c] = i
    mats = {}
    for d, cs in by_deg.items():
        if d - 1 not in by_deg:
            continue
        rows = [[0] * len(cs) for _ in by_deg[d - 1]]
        nonzero = False
        for j, c in enumerate(cs):
            for f, v in chain.boundary.get(c, {}).items():
                if f in alive:
                    rows[index[f]][j] = v
                    nonzero = True
        if nonzero:
            mats[d] = rows
    return by_deg, mats


def homology_ranks(chain, prime=None):
    """Dimensions of H_d for every degree, over Q (prime=None) or GF(prime).

    The collapse phase is field-independent; only the residual core needs
    actual rank computations.
    """
    if prime is not None:
        check_prime(prime)
    alive, _ = _collapse(chain)
    by_deg, mats = _core_matrices(chain, alive)
    rank = {}
    for d, rows in mats.items():
        rank[d] = bareiss_rank(rows) if prime is None else rank_mod_p(rows, prime)
    h = {}
    for d, cs in by_deg.items():
        hd = len(cs) - rank.get(d, 0) - rank.get(d + 1, 0)
        if hd:
            h[d] = hd
    return h


def is_exact(chain, prime=None, prefilter=True):
    """True iff the chain complex has zero homology in every degree.

    With `prefilter`, homology is first computed over GF(prime): zero
    homology mod p certifies zero homology over Q.  A nonzero mod-p answer
    triggers the exact computation over Q; if Q then says "exact", the
    discrepancy (p-torsion) is logged and the Q verdict stands.
    """
    if prime is not None:
        check_prime(prime)
    alive, _ = _collapse(chain)
    if not alive:
        return True, {}
    by_deg, mats = _core_matrices(chain, alive)

    def ranks(field_prime):
        rk = {}
        for d, rows in mats.items():
            rk[d] = (
                bareiss_rank(rows)
                if field_prime is None
                else rank_mod_p(rows, field_prime)
            )
        h = {}
        for d, cs in by_deg.items():
            hd = len(cs) - rk.get(d, 0) - rk.get(d + 1, 0)
            if hd:
                h[d] = hd
        return h

    if prefilter:
        p = prime or DEFAULT_PRIME
        h_p = ranks(p)
        if not h_p:
            return True, {}
        h_q = ranks(None)
        if not h_q:
            log.warning(
                "GF(%d) saw homology %r but Q is exact; keeping Q verdict", p, h_p
            )
            return True, {}
        return False, h_q
    h_q = ranks(None)
    return not h_q, h_q
