"""Exact linear algebra over the integers and homology of chain complexes.

No floating point anywhere: ranks over Q are computed by fraction-free
(Bareiss) elimination on integer matrices, the only arithmetic used.

The homology engine works on an abstract chain complex of numbered
cells: cell i has an integer degree and a boundary of nonzero integer
coefficients on cells one degree lower.  Callers with named cells number
them first; a set of cells is then a bitmask of their numbers, and a
subcomplex, or its quotient by a smaller subcomplex, is read off two
masks.  The engine first splits off acyclic pairs (a cell with a unique
coface, incidence +-1); this "collapse" phase is homology-preserving
over every field, creates no fill-in, and usually empties the complex
entirely.  Whatever core remains is ranked densely over Q.
"""

from collections import defaultdict, deque

from .errors import VerificationError


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


# -- chain complexes ----------------------------------------------------


class ChainData:
    """A chain complex of free modules on numbered cells.

    deg[i] is the integer degree of cell i and faces[i] its boundary as
    {face number: nonzero integer coefficient}; the lists are kept, not
    copied.  A face number out of range or not exactly one degree lower
    raises ValueError, and so do lists of unequal length.  A set of cells
    is a bitmask of their numbers, bit i for cell i.  A complex may be a
    restriction or a quotient of a larger one (`restrict`); it then shares
    those tables and `members` lists the numbers of its own cells in
    increasing order.  The complex and all its restrictions share one set
    of scratch arrays for the collapse, each as long as the complex, so
    they are collapsed one at a time.
    """

    def __init__(self, deg, faces):
        n = len(deg)
        for i, (d, row) in enumerate(zip(deg, faces, strict=True)):
            for k in row:
                if not 0 <= k < n or deg[k] != d - 1:
                    raise ValueError(
                        "face %r of %r is not one degree lower" % (k, i)
                    )
        self.deg = deg
        self.faces = faces
        self.members = range(n)
        self._face_masks = None
        # coface counts and XORs of coface numbers: zero between collapses
        self._scratch = ([0] * n, [0] * n)

    def restrict(self, mask, base=0):
        """The quotient C(K)/C(A) of the subcomplex K on the set bits of
        `mask` by the subcomplex A on the set bits of `base`, sharing this
        complex's numbering.  Its members are the cells of K outside A,
        and a face of a member that lies in A is no face of it; with no
        base it is K itself.  By the long exact sequence of
        0 -> C(A) -> C(K) -> C(K)/C(A) -> 0, an exact A makes K exact iff
        the quotient is exact.  The caller vouches that A is closed under
        faces.  A base outside the mask raises ValueError, and
        VerificationError is raised unless every face of a member is in
        K.

        Costs time in the number of members: the members are read off the
        set bits of mask & ~base, top bit first, and closure is the OR of
        their face masks (one per cell, built on the first restriction and
        shared by every restriction).
        """
        if mask >> len(self.deg):
            raise ValueError("mask %#x names cells outside the complex" % mask)
        if base & ~mask:
            raise ValueError("base %#x names cells outside the mask" % base)
        face_masks = self._face_masks
        if face_masks is None:
            face_masks = self._face_masks = [
                sum(1 << f for f in fs) for fs in self.faces
            ]
        members = []
        closure = 0
        rest = mask ^ base
        while rest:
            c = rest.bit_length() - 1
            members.append(c)
            closure |= face_masks[c]
            rest ^= 1 << c
        members.reverse()
        if closure & ~mask:
            raise VerificationError("subcomplex is not closed under faces")
        sub = ChainData.__new__(ChainData)
        sub.deg, sub.faces = self.deg, self.faces
        sub._face_masks = face_masks
        sub._scratch = self._scratch
        sub.members = members
        return sub


def require_dd_zero(chain):
    """Raise VerificationError unless the boundary of every boundary in
    the complex is zero, summed exactly over the integers."""
    faces = chain.faces
    for c in chain.members:
        dd = {}
        for f, v in faces[c].items():
            for g, w in faces[f].items():
                dd[g] = dd.get(g, 0) + v * w
        if any(dd.values()):
            raise VerificationError("the boundary of a boundary is not zero")


def _collapse(chain):
    """Split off acyclic (face, coface) pairs with unit incidence.

    Returns (numbers of the remaining cells, removed count).  Only faces
    that are members count: in a quotient C(K)/C(A) the faces in A are
    dropped, and removing a pair there leaves the homology of the
    quotient unchanged just as in a subcomplex.  A live member's count is
    one more than its number of live cofaces, and 0 marks a cell that is
    no member or is removed; with the XOR of the live cofaces' numbers,
    the only coface of a free face is read off directly.  The counts live
    in the complex's scratch arrays and only members' entries are
    touched: a collapse that removes every member leaves them zero, and
    any other is zeroed on the way out, so a strand costs its own size,
    not the whole complex's.  Requires dd = 0, which is checked here only
    in part: when a face's unique coface is removed, nothing above may
    still be attached to that coface, else VerificationError.  A pair
    whose dd != 0 reaches no such coface is removed unnoticed;
    require_dd_zero is the full check.
    """
    faces, members = chain.faces, chain.members
    count, xor = chain._scratch
    for c in members:
        count[c] = 1
    removed = 0
    try:
        for c in members:
            for f in faces[c]:
                if count[f]:
                    count[f] += 1
                    xor[f] ^= c
        queue = deque(
            f for f in members if count[f] == 2 and abs(faces[xor[f]][f]) == 1
        )
        while queue:
            f = queue.popleft()
            # counts only fall, so a face still at 2 is alive and keeps the
            # unit coface it was queued with
            if count[f] != 2:
                continue
            c = xor[f]
            if count[c] != 1:
                raise VerificationError("collapse hit a non-complex (dd != 0?)")
            count[f] = count[c] = xor[f] = 0
            removed += 2
            for cell in (c, f):
                for g in faces[cell]:
                    if count[g]:
                        count[g] -= 1
                        xor[g] ^= cell
                        if count[g] == 2 and abs(faces[xor[g]][g]) == 1:
                            queue.append(g)
    finally:
        if removed != len(members):
            core = [c for c in members if count[c]]
            for c in members:
                count[c] = xor[c] = 0
    if removed == len(members):
        return [], removed
    return core, removed


def _core_matrices(chain, alive):
    """Cells by degree and dense boundary matrices of the subcomplex on the
    `alive` cell numbers."""
    by_deg = defaultdict(list)
    for c in alive:
        by_deg[chain.deg[c]].append(c)
    by_deg = {d: by_deg[d] for d in sorted(by_deg)}
    index = {}
    for cs in by_deg.values():
        for i, c in enumerate(cs):
            index[c] = i
    mats = {}
    for d, cs in by_deg.items():
        if d - 1 not in by_deg:
            continue
        rows = [[0] * len(cs) for _ in by_deg[d - 1]]
        nonzero = False
        for j, c in enumerate(cs):
            for f, v in chain.faces[c].items():
                if f in index:
                    rows[index[f]][j] = v
                    nonzero = True
        if nonzero:
            mats[d] = rows
    return by_deg, mats


def homology_ranks(chain):
    """{degree: dim H_d} over Q, for every degree with nonzero homology.

    The collapse phase needs no arithmetic; only the residual core is
    ranked, by Bareiss elimination.
    """
    alive, _ = _collapse(chain)
    if not alive:
        return {}
    by_deg, mats = _core_matrices(chain, alive)
    rank = {d: bareiss_rank(rows) for d, rows in mats.items()}
    h = {}
    for d, cs in by_deg.items():
        hd = len(cs) - rank.get(d, 0) - rank.get(d + 1, 0)
        if hd:
            h[d] = hd
    return h


def is_exact(chain):
    """(True iff the chain complex has zero homology in every degree over
    Q, the homology_ranks dict)."""
    h = homology_ranks(chain)
    return not h, h
