"""Dense exact linear algebra over GF(q^2).

Matrices store their entries as integer display codes (see galois) in a
flat row-major tuple.  There is one packed layout and one reduction,
ColumnSpan's: a column is two ints, the GF(q) coordinates of 1 and of x
of its entries in lanes of L bits, and a row operation is a few big-int
multiplies by FieldSpec.mul_map entries over a per-lane offset, then one
exact multiply-shift quotient per coordinate that reduces every lane mod
q at once, _Lanes.mod (the lane bounds are in the ColumnSpan docstring,
and why the quotient is exact in _quotient's, whose constants the batch
stream encoder's word lanes take too).
G packs its columns (Matrix.packed_cols) and its rows (Matrix.packed_rows)
in those lanes, once each.  vec_mul adds each symbol times its packed row
by the row operation and reduces once: it is the encoding map and
decode_message's decode maps, and the online stream encoder
(StreamState.push) keeps its diagonals in the same lanes.  The one elimination, ColumnSpan, grows a fully reduced column basis
with first-nonzero pivoting: deterministic, and with no stability
considerations in an exact field.  Each add returns the pivots whose
basis columns it set, the only ones that can have newly become unit
vectors.  is_mds and the decoder's unit-vector membership and decode
maps (columns with identity tails, ColumnSpan.tagged, as in
_dual_columns) all rest on it.  G holds decode_message's table of decode
maps (Matrix.decode_maps).  is_mds packs each column of a block once and
checks the side with fewer rows: a k x n code is MDS exactly when its
dual is, so a tall matrix (2k > n) is brought to systematic form [I | A]
by the span's own reduction, ColumnSpan._reduce, and its dual [-A^T | I],
of n - k rows, is checked.  On that side it walks the tree of column selections depth
first, one span per shared prefix, and tests each full selection by
whether the span's own reduction of its last column leaves a zero head.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Optional, Sequence

from .galois import FieldSpec


@dataclass(frozen=True)
class Matrix:
    rows: int
    cols: int
    field: FieldSpec
    data: tuple[int, ...]  # row-major display codes

    def __post_init__(self):
        if len(self.data) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        # exactly int, as codespec.load and vec_mul ask: a float or bool
        # breaks the packed kernels and the JSON dump
        order = self.field.order
        for e in self.data:
            if type(e) is not int:
                raise ValueError(f"matrix entry is not an int: {e!r}")
            if not 0 <= e < order:
                raise ValueError(f"entry out of field range: {e}")

    @staticmethod
    def from_rows(field: FieldSpec, rows: Sequence[Sequence[int]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return Matrix(r, c, field, tuple(e for row in rows for e in row))

    def entry(self, i: int, j: int) -> int:
        return self.data[i * self.cols + j]

    def row(self, i: int) -> list[int]:
        return list(self.data[i * self.cols : (i + 1) * self.cols])

    def col(self, j: int) -> list[int]:
        return [self.data[i * self.cols + j] for i in range(self.rows)]

    def submatrix(self, rows: Iterable[int], cols: Iterable[int]) -> "Matrix":
        rows, cols = list(rows), list(cols)
        data = tuple(self.data[i * self.cols + j] for i in rows for j in cols)
        return Matrix(len(rows), len(cols), self.field, data)

    @cached_property
    def packed_rows(self) -> tuple[tuple[int, int], ...]:
        """Each row packed by ColumnSpan.pack, for a span of dim `rows` and
        length `cols`: the row version of packed_cols, so a row and a column
        share a lane width and offset.  Built on the first encode, not with
        the matrix: most matrices (submatrix, is_mds blocks) never encode.
        A decode map of decode_message is a Matrix too: the decode that
        finds it packs it here, and every later decode of its pattern reuses
        the packing.
        """
        span = ColumnSpan(self.field, self.rows, self.cols)
        return tuple(span.pack(self.row(i)) for i in range(self.rows))

    @cached_property
    def packed_cols(self) -> tuple[tuple[int, int], ...]:
        """Each column packed for a ColumnSpan of dim `rows` (ColumnSpan.pack).

        Built on first use, like packed_rows, so G packs its columns once
        for every walk, check_pattern and decode_message on it.  A lane's
        width and offset depend only on (q, dim), so a span of greater
        length takes these columns as they are, its extra lanes zero.
        """
        span = ColumnSpan(self.field, self.rows)
        return tuple(span.pack(self.col(j)) for j in range(self.cols))

    @cached_property
    def decode_maps(self) -> dict:
        """decoder.decode_message's table: erased slots -> decode map.

        Empty on first use; decode_message fills it and bounds it.  Like
        packed_cols it lives on the instance, so two equal matrices, such
        as two loads of one spec, share no entry.
        """
        return {}

    def vec_mul(self, vec: Sequence[int]) -> list[int]:
        """Row vector times matrix: vec . M, the encoding map.

        Each nonzero symbol c adds c times its packed row by the row
        operation of ColumnSpan._reduce, four multiplies by the entries of
        FieldSpec.mul_map(c), and _Lanes.mod reduces the sum once: a lane
        sums at most 2*rows products of at most (q-1)^2, which lanes of dim
        `rows` are sized for.  Symbols are ints, reduced mod q^2; anything
        else raises ValueError.
        """
        if len(vec) != self.rows:
            raise ValueError("vector length must equal row count")
        f = self.field
        mul_map, order = f.mul_map, f.order
        lo = hi = 0
        for v, (r0, r1) in zip(vec, self.packed_rows):
            if type(v) is not int:
                raise ValueError(f"message symbol is not an int: {v!r}")
            c = v % order
            if c:
                m00, m01, m10, m11 = mul_map(c)
                lo += m00 * r0 + m01 * r1
                hi += m10 * r0 + m11 * r1
        lanes = _lanes(f.q, self.cols, self.rows)
        return lanes.codes((lanes.mod(lo), lanes.mod(hi)))

    def to_dump(self) -> dict:
        """Matrix dump format: JSON-ready dict with integer display codes."""
        return {
            "q": self.field.q,
            "ext_poly": list(self.field.ext_poly()),
            "rows": self.rows,
            "cols": self.cols,
            "entries": list(self.data),
        }


def is_mds(g: Matrix) -> bool:
    """True iff every selection of `rows` columns is linearly independent.

    A k x n code is MDS exactly when its dual is, so the check runs on the
    side with fewer rows: G itself when 2k <= n, else the dual generator
    [-A^T | I] of G's systematic form [I | A] (see _dual_columns).  G is
    not MDS when its first k columns are dependent.  A 0-row matrix is
    vacuously MDS (degenerate sub-blocks of short codes), and so is a k x k
    one with independent columns, whose dual has 0 rows.

    On the side chosen, of dim rows, the selections are the leaves of a
    tree walked depth first, children in increasing column order.  A node
    holds the span of its prefix, and a child is a copy of it with one
    more column added, so a prefix is reduced once for every selection
    that shares it.  A dependent prefix decides: every selection that
    extends it is dependent, so the walk ends at once with False.  At the
    last level the span has rank dim - 1, and a leaf is one more column c:
    the basis is fully reduced, so c lies in the span exactly when its
    residue, ColumnSpan._reduce(c), is zero on the head.  Every column of
    the block is packed once.
    """
    if g.rows > g.cols:
        raise ValueError("is_mds requires rows <= cols")
    dim, cols = g.rows, [g.col(j) for j in range(g.cols)]
    if 2 * dim > g.cols:
        dim, cols = g.cols - dim, _dual_columns(g.field, dim, cols)
        if cols is None:
            return False
    if not dim:
        return True
    root = ColumnSpan(g.field, dim)
    head, n = root.lanes.head, len(cols)
    packed = [root.pack(c) for c in cols]

    def walk(span: ColumnSpan, start: int) -> bool:
        depth = len(span.basis)
        if depth < dim - 1:
            for c in range(start, n - dim + depth + 1):
                child = span.copy()
                if not child.add(packed[c]) or not walk(child, c + 1):
                    return False
            return True
        for c in range(start, n):
            r0, r1 = span._reduce(packed[c])
            if not (r0 | r1) & head:
                return False
        return True

    return walk(root, 0)


def _dual_columns(f: FieldSpec, k: int, cols: list[list[int]]) -> Optional[list[list[int]]]:
    """The columns of [-A^T | I], where [I | A] is the systematic form of
    the k-row matrix with these columns; None when its first k columns are
    dependent.

    The first k columns enter a span with identity tails, so the basis
    column of pivot p carries column p of the inverse of their block in
    its tail.  Reducing column k+i, packed with its k tail lanes zero,
    against that basis (ColumnSpan._reduce, the reduction of every add)
    clears its head and leaves column i of -A in its tail: row i of the
    dual, before its e_i.
    """
    span = ColumnSpan(f, k, 2 * k)
    for t in range(k):
        if not span.add(span.tagged(span.pack(cols[t]), t)):
            return None
    n_k = len(cols) - k
    rows = [span.lanes.codes(span._reduce(span.pack(c)), k) + [int(i == j) for j in range(n_k)]
            for i, c in enumerate(cols[k:])]
    return [list(col) for col in zip(*rows)]


class _Lanes:
    """The lane layout of ColumnSpan for one (q, length, dim); see _lanes."""

    __slots__ = ("q", "width", "mask", "length", "head", "offset", "mod")

    def __init__(self, q: int, width: int, mask: int, length: int, head: int, offset: int,
                 mod: Callable[[int], int]):
        self.q = q  # the prime of GF(q)
        self.width = width  # L, bits per lane
        self.mask = mask  # one lane of ones
        self.length = length  # lanes per packed coordinate
        self.head = head  # ones over the first dim lanes
        self.offset = offset  # the per-lane offset, in every lane
        self.mod = mod  # every lane, each in [0, 2^a) of _quotient, reduced mod q

    def codes(self, col: tuple[int, int], start: int = 0) -> list[int]:
        """The display codes of lanes start.. of a packed column with reduced
        lanes.  A code is below q^2 <= 2^L, so hi*q + lo holds every
        entry's code in its lane with no carry, and each is read with one
        shift."""
        L, mask = self.width, self.mask
        x = col[1] * self.q + col[0] >> start * L
        return [x >> i & mask for i in range(0, (self.length - start) * L, L)]


def _quotient(q: int, bound: int) -> tuple[int, int, int]:
    """(s, M, L) of the exact lane quotient by q: for every y in [0, bound],
    y*M >> s is y // q, and y*M < 2^L.  So in lanes of at least L bits,
    multiplying a packed int by M carries nothing between lanes, and
    x - q*((x*M >> s) & mask), with mask the width - s low bits of every
    lane, reduces every lane of x mod q with one multiply-shift quotient.

    - a = bit_length(bound): every lane lies in [0, 2^a);
    - s = a + bit_length(q-1) and M = ceil(2^s / q): for y in [0, 2^a),
      floor(y*M / 2^s) = floor(y/q) (Granlund and Montgomery, "Division by
      Invariant Integers using Multiplication", 1994).  y*M/2^s exceeds
      y/q by less than y*q/(q*2^s) < 2^(a-s) <= 1/q, as q <= 2^(s-a), and
      y/q lies at least 1/q below the next integer;
    - L = bit_length((2^a - 1)*M).  Shifted right by s, each lane's
      quotient lies in its low width - s bits, under the s low bits of the
      lane above, which the mask drops.

    M >= 2^a, so L >= 2a: lanes that hold the product hold two halves of
    a bits each.  ColumnSpan's lanes (_lanes) and the batch stream
    encoder's word lanes (stream_encode) both take their constants here.
    """
    a = bound.bit_length()
    s = a + (q - 1).bit_length()
    M = -(-(1 << s) // q)
    L = (((1 << a) - 1) * M).bit_length()
    return s, M, L


def _ones(width: int, length: int) -> int:
    """A 1 at the bottom of each of `length` lanes of `width` bits."""
    return ((1 << width * length) - 1) // ((1 << width) - 1)


@lru_cache(maxsize=None)
def _lanes(q: int, length: int, dim: int) -> _Lanes:
    """The lane layout of ColumnSpan, built on first use, once per
    (q, length, dim); the bounds are in the ColumnSpan docstring and why
    mod is exact in _quotient's."""
    offset = q * -(-2 * dim * (q - 1) ** 2 // q)
    s, M, L = _quotient(q, offset + q - 1)
    ones = _ones(L, length)
    mask = (1 << L) - 1
    head = mask * _ones(L, dim)

    # the constants are defaults, so that each call reads them as locals
    def mod(x: int, M: int = M, s: int = s, quotient: int = ((1 << L - s) - 1) * ones) -> int:
        return x - (x * M >> s & quotient) * q

    return _Lanes(q, L, mask, length, head, offset * ones, mod)


class ColumnSpan:
    """Incrementally grown span of columns in GF(q^2)^dim.

    The basis is fully reduced: the basis column of pivot p has a 1 at p
    and a 0 at every other pivot.  So e_j lies in the span exactly when j
    is a pivot whose basis column is zero off the pivots, a masked compare
    with no field operations.

    A column may be longer than dim, up to the length given.  Its entries
    past dim are carried through every reduction but never chosen as
    pivots.  A basis column that equals e_j on its first dim coordinates
    therefore carries the tails of the added columns combined with the
    same coefficients that combine their heads into e_j.

    Lane layout.  A column is two ints (lo, hi): the GF(q) coordinates of
    1 and of x of its entries, entry i in the lane of L bits at bit i*L
    (pack; _Lanes.codes reads them back).  Columns are packed once (G's in
    Matrix.packed_cols) and added packed.  L and the offset depend only
    on (q, dim), so a column packed for dim lanes is one of a longer span
    with its extra lanes zero.  A stored column has every lane in [0, q).

    Row operations.  y - c*b, for c with FieldSpec.mul_map (m00, m01, m10,
    m11), is lo: y0 - m00*b0 - m01*b1 and hi: y1 - m10*b0 - m11*b1, whole
    ints at a time; when c lies in GF(q) it is y0 - c*b0 and y1 - c*b1,
    and an x part that is zero stays zero.  The basis is fully reduced, so
    _reduce reads the coefficient of each pivot from the added column's
    own lanes and sums the products before it reduces once.  A lane so
    loses at most dim products, each two terms of at most (q-1)^2: at
    most 2*dim*(q-1)^2.  The bounds, built by _lanes once per
    (q, length, dim): offset, the least multiple of q >= 2*dim*(q-1)^2,
    is added to every lane, so no lane goes negative and each keeps its
    value mod q; every lane then lies in [0, offset + q - 1], and L is
    _quotient's lane width for that bound.  So _Lanes.mod,
    x - q*((x*M >> s) & mask), reduces every lane mod q with one
    multiply-shift quotient per coordinate, exactly, at any q: the lanes
    widen with q and dim, with no fixed word size.

    add reduces a column against the basis (_reduce, which the dual of
    is_mds shares), scales it and clears its pivot, the lowest nonzero
    lane of its head, from the basis.  It returns the pivots whose basis
    columns it set: the new pivot, then each pivot rebound in
    back-substitution.  Only these can have newly become unit vectors; a
    basis column that already is one has a 0 at the new pivot, so it is
    never rebound.
    """

    __slots__ = ("field", "dim", "lanes", "basis")

    def __init__(self, field: FieldSpec, dim: int, length: Optional[int] = None):
        self.field = field
        self.dim = dim
        self.lanes = _lanes(field.q, dim if length is None else length, dim)
        self.basis: dict[int, tuple[int, int]] = {}  # pivot -> packed basis column

    def pack(self, col: Sequence[int]) -> tuple[int, int]:
        """The packed (lo, hi) of a column of display codes."""
        q, L = self.field.q, self.lanes.width
        lo = hi = 0
        for e in reversed(col):
            lo = lo << L | e % q
            hi = hi << L | e // q
        return lo, hi

    def tagged(self, col: tuple[int, int], t: int) -> tuple[int, int]:
        """col with e_t in its tail: a 1 in lane dim + t, which must be
        zero in col.  Columns added tagged carry an identity tail, so a
        basis column's tail holds the coefficients of the added columns
        that combine into it (_dual_columns, decoder._decode_times)."""
        lo, hi = col
        return lo | 1 << (self.dim + t) * self.lanes.width, hi

    def copy(self) -> "ColumnSpan":
        """An independent span.  Packed columns are ints, never mutated, so
        a shallow copy of the basis suffices."""
        other = ColumnSpan.__new__(ColumnSpan)
        other.field, other.dim, other.lanes = self.field, self.dim, self.lanes
        other.basis = dict(self.basis)
        return other

    def _reduce(self, col: tuple[int, int]) -> tuple[int, int]:
        """col less its part along the basis: zero at every pivot.  The
        basis is fully reduced, so the coefficient of pivot p is col's own
        entry at p, and the products are summed before one reduction."""
        lanes, f = self.lanes, self.field
        L, mask, offset, mod = lanes.width, lanes.mask, lanes.offset, lanes.mod
        q = f.q
        lo, hi = col
        s0 = s1 = 0
        for p, (b0, b1) in self.basis.items():
            sh = p * L
            c1 = hi and hi >> sh & mask
            if c1:
                m00, m01, m10, m11 = f.mul_map(c1 * q + (lo >> sh & mask))
                s0 += m00 * b0 + m01 * b1
                s1 += m10 * b0 + m11 * b1
            else:
                c = lo >> sh & mask
                if c:
                    s0 += c * b0
                    if b1:
                        s1 += c * b1
        if not (s0 or s1):
            return col
        x1 = hi - s1
        return mod(offset + lo - s0), x1 and mod(offset + x1)

    def add(self, col: tuple[int, int]) -> list[int]:
        """Append a packed column; the pivots whose basis columns it set,
        the new pivot first, or [] if the column was already in the span."""
        f, basis, lanes = self.field, self.basis, self.lanes
        L, mask, offset, mod = lanes.width, lanes.mask, lanes.offset, lanes.mod
        q = f.q
        r0, r1 = self._reduce(col)
        h = (r0 | r1) & lanes.head
        if not h:
            return []
        p = ((h & -h).bit_length() - 1) // L  # the lowest nonzero lane
        sh = p * L
        lead = (r1 >> sh & mask) * q + (r0 >> sh & mask)
        if lead >= q:
            m00, m01, m10, m11 = f.mul_map(f.inv(lead))
            r0, r1 = mod(m00 * r0 + m01 * r1), mod(m10 * r0 + m11 * r1)
        elif lead != 1:
            c = f.inv(lead)
            r0, r1 = mod(c * r0), r1 and mod(c * r1)
        changed = [p]
        for t, (b0, b1) in basis.items():
            c1 = b1 and b1 >> sh & mask
            if c1:
                m00, m01, m10, m11 = f.mul_map(c1 * q + (b0 >> sh & mask))
                x0 = b0 - m00 * r0 - m01 * r1
                x1 = b1 - m10 * r0 - m11 * r1
            else:
                c = b0 >> sh & mask
                if not c:
                    continue
                x0 = b0 - c * r0
                x1 = b1 - c * r1 if r1 else b1
            changed.append(t)
            basis[t] = (mod(offset + x0), x1 and mod(offset + x1))
        basis[p] = (r0, r1)
        return changed

    def contains_unit(self, j: int) -> bool:
        """True iff e_j lies in the span: j is a pivot whose basis column
        is e_j on the head.  That column keeps its 1 at j (back-substitution
        subtracts multiples of columns that are 0 at every earlier pivot),
        so one masked compare of each coordinate decides."""
        b = self.basis.get(j)
        lanes = self.lanes
        return b is not None and b[0] & lanes.head == 1 << j * lanes.width and not b[1] & lanes.head
