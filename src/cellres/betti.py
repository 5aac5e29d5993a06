"""Ground-truth oracles: the Taylor complex, multigraded Betti numbers,
and the acyclicity criterion for labeled complexes.

The Taylor complex (full simplex on the generators, lcm labels) resolves
R/I for every monomial ideal, so the homology of its multidegree strands
computes Tor exactly; that is the arbiter every construction in this
package is compared against.

A labeled complex X supports a resolution of R/I iff for every b in the
lcm lattice the subcomplex of cells whose label divides b has vanishing
reduced homology.  Homology is computed over Q, exactly.
"""

from collections import defaultdict
from functools import reduce
from itertools import accumulate, combinations, islice
from operator import add, and_, getitem, itemgetter, le
from types import MappingProxyType

from .chain import UNIT, cell_chain_complex
from .errors import NonMonotoneLabels, TooManyGenerators, VerificationError
from .exact import ChainData, homology_ranks, is_exact, require_dd_zero
from .monomial import Monomial

TAYLOR_BOUND = 16

# Strands of fewer cells are collapsed whole: finding a base costs more
# than it saves on them.
_BASE_MIN_CELLS = 6

# _UNARY[2**a - 1] == a for a <= 8: a byte of a unary code back to its exponent
_UNARY = bytes.maketrans(bytes((1 << a) - 1 for a in range(9)), bytes(range(9)))
# byte 0 or 1 to the ASCII digit
_DIGIT = bytes.maketrans(b"\x00\x01", b"01")


class TaylorSupport:
    """The Taylor complex: the full simplex on the generators, each face
    labeled by the lcm of its generators.

    Cells are the nonempty generator subsets, in order of size and then
    lexicographically.  Every divisibility strand is the full simplex on
    the generators dividing b: lcm(S) | b iff each member divides b.  The
    strand checker uses that to certify acyclicity without eliminating
    anything.  More than TAYLOR_BOUND generators raise TooManyGenerators.
    """

    def __init__(self, ideal):
        if ideal.k > TAYLOR_BOUND:
            raise TooManyGenerators(
                "%d generators exceed the bound %d" % (ideal.k, TAYLOR_BOUND)
            )
        self.ideal = ideal
        self._lcms = {(): Monomial.one(ideal.n)}

    def label(self, key):
        """lcm of the generators in key, one generator more than its prefix."""
        label = self._lcms.get(key)
        if label is None:
            label = self.label(key[:-1]).lcm(self.ideal.gen(key[-1]))
            self._lcms[key] = label
        return label

    def cells_with_labels(self):
        for size in range(1, self.ideal.k + 1):
            for S in combinations(range(1, self.ideal.k + 1), size):
                yield S, size - 1, self.label(S)

    def topo_boundary(self, key):
        if len(key) == 1:
            return []
        return [(key[:i] + key[i + 1 :], -1 if i % 2 else 1) for i in range(len(key))]

    def coefficients(self, key):
        """label // face label for each face, in topo_boundary order."""
        label = self.label(key)
        return [label // self.label(face) for face, _ in self.topo_boundary(key)]


def taylor_complex(ideal):
    """The Taylor complex as a labeled chain complex: face S in degree |S|.

    Resolves R/I; minimal only when no face's lcm equals a facet's.
    """
    return cell_chain_complex(TaylorSupport(ideal), ideal, tuple)


class LabeledCellComplex:
    """A labeled cell complex: each cell has a dimension, a monomial label
    and a signed boundary, all stored once.

    cells: {key: (dim, Monomial)}; boundary: {key: [(face, sign)]}, a
    missing key meaning no faces.  `by_dim` lists the keys per dimension,
    dimensions ascending and keys sorted within each, and every reader
    (cells_with_labels, f_vector, the writers in export) follows it.  A
    boundary is kept as a tuple, so no caller can change it.

    coefficients: {key: [Monomial]}, the incidence coefficient of each
    face, aligned with the cell's boundary, as the builder of the complex
    computed it.  Without that table (the default) a face's coefficient
    is its cell's label divided by the face's label.
    """

    def __init__(self, cells, boundary, coefficients=None):
        self._labels = {}
        by_dim = {}
        for key, (dim, label) in cells.items():
            self._labels[key] = label
            by_dim.setdefault(dim, []).append(key)
        self.by_dim = {dim: sorted(by_dim[dim]) for dim in sorted(by_dim)}
        self.boundary = {key: tuple(boundary.get(key, ())) for key in cells}
        if coefficients is not None:
            coefficients = {key: tuple(coefficients.get(key, ())) for key in cells}
        self._coefficients = coefficients

    def label(self, key):
        return self._labels[key]

    def cells_with_labels(self):
        for dim, keys in self.by_dim.items():
            for key in keys:
                yield key, dim, self._labels[key]

    def topo_boundary(self, key):
        return self.boundary[key]

    def coefficients(self, key):
        """The incidence coefficients of key's faces, in topo_boundary order."""
        if self._coefficients is not None:
            return self._coefficients[key]
        label = self._labels[key]
        return tuple(label // self._labels[face] for face, _ in self.boundary[key])

    def f_vector(self):
        top = max(self.by_dim)
        return tuple(len(self.by_dim.get(i, ())) for i in range(top + 1))


def lcm_lattice(ideal):
    """All lcms of nonempty generator subsets, sorted.

    Closed on unary codes, with lcm as int OR: exponent a of x_i is a run
    of a set bits at the low end of x_i's field.  The field has as many
    bytes as x_i's largest exponent among the generators needs (8
    exponents a byte, at least one byte), and x_1's field is the highest,
    so the codes sort as the exponent tuples do.  The lcms of subsets of
    the first i generators are those of the first i - 1, the i-th
    generator itself, and its lcm with each of them.  Each code is decoded
    once, byte by byte, into a Monomial.
    """
    widths = [(max(col) + 7) // 8 or 1 for col in zip(*(g.e for g in ideal.gens))]
    lattice = set()
    for g in ideal.gens:
        code = 0
        for a, width in zip(g.e, widths):
            code = (code << 8 * width) | ((1 << a) - 1)
        lattice |= {code | b for b in lattice}
        lattice.add(code)
    size = sum(widths)
    raw = [code.to_bytes(size, "big").translate(_UNARY) for code in sorted(lattice)]
    if size > len(widths):  # some field spans bytes: add each field's up
        ends = list(accumulate(widths))
        raw = [tuple(sum(r[e - w : e]) for e, w in zip(ends, widths)) for r in raw]
    return [Monomial._raw(tuple(r)) for r in raw]


def _strands(labels, lattice):
    """({member mask: first lattice point selecting it}, the per-variable
    masks), where bit c of a mask is set when labels[c] divides the
    lattice point.  The masks are listed in lattice order of the points
    that select them first.

    The last lattice point is the top, the lcm of all generators, so no
    lattice point's exponent of x_i exceeds top_i.  Per variable, entry v
    of a list holds the mask of the cells whose exponent of x_i is at most
    v, for v up to top_i; the cells dividing b are the AND, over the
    variables, of the entries at b's exponents.  Each mask is read in one
    pass, as a string of binary digits with cell 0 last, so the masks take
    time linear in the cells.
    """
    within = []
    for column, top in zip(zip(*reversed(labels)), lattice[-1].e):
        if top < 256 and max(column) < 256:  # a byte a cell: one translate a mask
            raw = bytes(column)
            masks = [
                int(raw.translate(b"1" * (v + 1) + b"0" * (255 - v)), 2)
                for v in range(top + 1)
            ]
        else:
            masks = [
                int(bytes(map(v.__ge__, column)).translate(_DIGIT), 2)
                for v in range(top + 1)
            ]
        within.append(masks)
    strands = {}
    for b in lattice:
        strands.setdefault(reduce(and_, map(getitem, within, b.e), -1), b)
    return strands, within


def _exact_base(member, b, within, verified):
    """The member mask of a union of strands below b, all in `verified`,
    whose union is exact too; 0 if there is none.

    The candidates are the strands X_{<=b-e_i}, member & within[i][b_i-1]
    for x_i in supp b, that are verified strand masks, largest first.  A
    candidate joins if it adds a cell and its intersection with every
    intersection of the strands already joined is a verified mask too.
    Then every intersection of joined strands is exact, and by
    Mayer-Vietoris, with induction on their number (the homological
    nerve lemma), so is their union.  An empty intersection is the empty
    cell alone, never exact, so strands that meet in no cell never share
    a base.
    """
    lower = []
    for masks, v in zip(within, b.e):
        if v:
            a = member & masks[v - 1]
            if a in verified and a not in lower:
                lower.append(a)
    lower.sort(key=int.bit_count, reverse=True)
    base = 0
    met = set()  # intersections of the joined strands, every one verified
    for a in lower:
        if not a & ~base:
            continue
        cuts = {a & r for r in met}
        if cuts <= verified:
            base |= a
            met |= cuts
            met.add(a)
    return base


class NumberedComplex(ChainData):
    """A labeled complex on numbered cells, augmented by the empty cell,
    in the layout the strand check reads.

    Number 0 is the empty cell, in degree -1, named UNIT and labeled 1;
    the cells of each dimension follow in turn, dimensions ascending.
    `names[c]`, `deg[c]` and `labels[c]` are cell c's name, degree and
    label exponents, and `faces[c]` its boundary {face number: sign}.  A
    face's incidence coefficient is not kept: it is the quotient of the
    two labels, by the builder's check.

    Made only by its two builders, each of which checks that every face
    lies one degree lower and that its label divides its cell's:
    - `of_cells(X, ideal, name_of)` numbers a labeled cell complex;
    - `of_resolution(cx)` numbers a labeled chain complex whose every
      entry is +-1 times the quotient of its column's multidegree by its
      row's.

    Its tables are tuples and its boundaries read-only views, so a check
    made on it holds for as long as it lives: `require_dd_zero` sums the
    signs on its first call only, and check_cellular_resolution reads a
    NumberedComplex as it is, without numbering or checking it again.
    (check_cellular_resolution numbers a bare complex for that call
    alone, and leaves its tables lists and its boundaries dicts.)
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a NumberedComplex is made by of_cells or of_resolution")

    @classmethod
    def _made(cls, names, deg, faces, labels):
        """A complex on the lists it is handed: a builder hands it out
        only after _frozen."""
        self = cls.__new__(cls)
        ChainData.__init__(self, deg, faces)
        self.names = names
        self.labels = labels
        self._dd_zero = False
        return self

    def _frozen(self):
        self.names, self.deg, self.labels = map(
            tuple, (self.names, self.deg, self.labels)
        )
        self.faces = tuple(map(MappingProxyType, self.faces))
        return self

    @classmethod
    def of_cells(cls, X, ideal, name_of=None):
        """The labeled cell complex X, numbered: its cells in X's order
        (cells_with_labels), which lists them by dimension, each cell its
        own name; or, given name_of, sorted by dimension and then by
        name_of(cell), which is then the cell's name.  A vertex's only
        face is the empty cell, with sign +1, and a face listed with sign
        0 is no face.  NonMonotoneLabels names the first face met that is
        not a cell or whose label does not divide its cell's; ValueError,
        one not one dimension lower.
        """
        return cls._of_cells(X, ideal, name_of)._frozen()

    @classmethod
    def _of_cells(cls, X, ideal, name_of=None):
        cells = X.cells_with_labels()
        if name_of is not None:
            named = sorted(
                ((dim, name_of(key), key, label) for key, dim, label in cells),
                key=itemgetter(0, 1),
            )
            cells = [(key, dim, label) for dim, _, key, label in named]
        number, deg, exps = {}, [-1], [(0,) * ideal.n]
        for key, dim, label in cells:
            number[key] = len(deg)
            deg.append(dim)
            exps.append(label.e)
        names = [UNIT, *(number if name_of is None else (cell[1] for cell in named))]
        faces = [{}]
        for key, dim, e in zip(number, islice(deg, 1, None), islice(exps, 1, None)):
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
        return cls._made(names, deg, faces, exps)

    @classmethod
    def of_resolution(cls, cx):
        """The labeled chain complex cx, numbered: its degree 0, the ring
        alone, is the empty cell, and degree i >= 1 lists its basis in
        order, in degree i - 1.  A cell's name is its basis element and
        its label the exponents of its multidegree.  An entry (sign,
        coeff) of diff[i] is a face with that sign, and VerificationError
        names the first entry met whose sign is not +-1 or whose coeff
        times its row's multidegree is not its column's: every coefficient
        is then the quotient of the two labels, and the numbered complex
        holds all of cx.
        """
        basis = cx.basis
        if len(basis[0]) != 1:
            raise VerificationError("degree 0 has %d basis elements" % len(basis[0]))
        names, deg, exps, start = [], [], [], []
        for i, level in enumerate(basis):
            start.append(len(deg))
            names += level
            deg += [i - 1] * len(level)
            if level:
                exps += [m.e for m in cx.mdeg[i]]
        faces = [{} for _ in deg]
        for i in range(1, len(basis)):
            r0, c0 = start[i - 1], start[i]
            for (r, c), (sign, coeff) in cx.diff[i].items():
                row, col = exps[r0 + r], exps[c0 + c]
                if sign not in (1, -1) or tuple(map(add, coeff.e, row)) != col:
                    raise VerificationError(
                        "entry (%d,%d) in degree %d is not +-1 times a label quotient"
                        % (r, c, i)
                    )
                faces[c0 + c][r0 + r] = sign
        return cls._made(names, deg, faces, exps)._frozen()

    def require_dd_zero(self):
        """exact.require_dd_zero on this complex, on the first call only."""
        if not self._dd_zero:
            require_dd_zero(self)
            self._dd_zero = True

    def difference(self, other):
        """None if other is this complex, cell by cell: names, degrees,
        labels, and faces with their signs.  Else the first difference,
        in that order and then by cell number, as text."""
        if len(self.deg) != len(other.deg):
            return "%d cells, not %d" % (len(self.deg), len(other.deg))
        for what, mine, theirs in (
            ("names", self.names, other.names),
            ("degrees", self.deg, other.deg),
            ("labels", self.labels, other.labels),
            ("boundaries", self.faces, other.faces),
        ):
            if mine != theirs:
                c = next(c for c, (a, b) in enumerate(zip(mine, theirs)) if a != b)
                return "%s differ at cell %d, %s" % (what, c, self.names[c])
        return None


def check_cellular_resolution(X, ideal):
    """Does the labeled complex X support a resolution of R/I?

    Checks that labels are monotone under the boundary, that the 0-cells
    are labeled exactly by the generators, that the boundary squares to
    zero (else VerificationError), and that for every b in the lcm
    lattice the subcomplex of labels dividing b has zero reduced
    homology.  Returns (ok, failing multidegree or None); the failing b
    is the first one met, in lattice order.

    X is numbered as NumberedComplex.of_cells numbers it, augmented by
    the empty cell: the cell X lists at position c (from 0) is number
    c + 1 and bit c of a strand's member mask, so each strand K is
    `restrict(member << 1 | 1)` of it.  A NumberedComplex is read as it
    is: its builder checked its labels, and dd = 0 is checked on it once
    for as long as it lives, so a complex `cellres verify` has already
    checked and compared is not checked again.  Distinct lattice points
    selecting the same cell set share one homology computation, and the
    lattice is built once per ideal.  Strands are checked in the order
    _strands lists them, and the first that is not acyclic is reported
    by the lattice point that selects it first.

    Lattice order extends divisibility, so every strand below b that is
    a lattice strand has been checked before b, and was exact, since the
    check stops at the first failure.  Each strand K is checked relative
    to a union A of such strands that is exact too (_exact_base): only
    the quotient C(K)/C(A) is collapsed, the cells of K outside A.  A
    strand of fewer than _BASE_MIN_CELLS cells is collapsed whole.  By
    the long exact sequence of 0 -> C(A) -> C(K) -> C(K)/C(A) -> 0, K is
    exact iff the quotient is, so each strand's verdict, and with it the
    answer and the failing b, is the one the whole strand gives.
    """
    if isinstance(X, TaylorSupport):
        # Every strand is the full simplex on the generators dividing b
        # (lcm(S) | b iff every member of S divides b), hence acyclic.
        # Only the vertex layer needs checking; it is emitted first.
        chain = None
        vertices = islice(X.cells_with_labels(), X.ideal.k)
        vertex_labels = sorted(label.e for _, _, label in vertices)
    else:
        chain = X
        if not isinstance(X, NumberedComplex):
            # numbered for this call only: its boundaries stay dicts,
            # which the collapse reads faster than read-only views
            chain = NumberedComplex._of_cells(X, ideal)
        vertex_labels = sorted(e for d, e in zip(chain.deg, chain.labels) if d == 0)
    gen_labels = sorted(g.e for g in ideal.gens)
    if vertex_labels != gen_labels:
        return False, Monomial.one(ideal.n)
    if chain is None:
        return True, None
    # every strand is a restriction, so dd = 0 on the whole complex
    # covers every strand
    chain.require_dd_zero()
    if ideal._lattice is None:
        # kept as a tuple: no caller can change what later checks read
        ideal._lattice = tuple(lcm_lattice(ideal))
    strands, within = _strands(chain.labels[1:], ideal._lattice)
    verified = set()
    for member, b in strands.items():
        base = 0
        if member.bit_count() >= _BASE_MIN_CELLS:
            base = _exact_base(member, b, within, verified)
        # with no base the whole strand is collapsed, its empty cell too
        quotient = chain.restrict(member << 1 | 1, base << 1 | 1 if base else 0)
        if not is_exact(quotient)[0]:
            return False, b
        verified.add(member)
    return True, None


class BettiTable:
    """Finitely supported table (homological degree, multidegree) -> rank."""

    def __init__(self, data, n):
        self.n = n
        self.data = {k: v for k, v in data.items() if v}

    def total(self, i):
        return sum(v for (d, _), v in self.data.items() if d == i)

    def totals(self):
        top = max((d for d, _ in self.data), default=0)
        return tuple(self.total(i) for i in range(top + 1))

    def rows(self):
        """Deterministic (i, exponent tuple, value) rows."""
        return [
            (i, exps, self.data[(i, exps)])
            for (i, exps) in sorted(self.data)
        ]

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.data == other.data

    def __repr__(self):
        return "BettiTable(totals=%s)" % (self.totals(),)


def multigraded_betti(ideal):
    """Tor of R/I against the residue field, from the Taylor complex.

    Tensoring the Taylor resolution with k keeps, in multidegree b, the
    faces whose lcm is exactly b; the surviving differential drops a
    generator only when the lcm is unchanged.  The homology of that strand
    is computed exactly over Q, bucket by bucket.
    """
    X = TaylorSupport(ideal)
    buckets = defaultdict(list)
    for S, _, label in X.cells_with_labels():
        buckets[label].append(S)
    data = defaultdict(int)
    data[(0, Monomial.one(ideal.n).e)] = 1
    for b, cells in buckets.items():
        # a face's number is its position in the bucket, its degree |S|
        number = {S: i for i, S in enumerate(cells)}
        faces = [
            {number[F]: sign for F, sign in X.topo_boundary(S) if F in number}
            for S in cells
        ]
        h = homology_ranks(ChainData([len(S) for S in cells], faces))
        for i, v in h.items():
            data[(i, b.e)] += v
    return BettiTable(dict(data), ideal.n)


def betti_from_resolution(cx):
    """Read Betti numbers off a (minimal) resolution's basis."""
    return BettiTable(cx.betti_by_multidegree(), cx.n)
