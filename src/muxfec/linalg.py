"""Dense exact linear algebra over GF(q^2).

Matrices store their entries as integer display codes (see galois) in a
flat row-major tuple.  The one encoding kernel is Matrix.packed_rows: a
codeword is one int packing the unreduced GF(q) coordinates of 1 and x
of each symbol in fixed-width bit fields, and a symbol a0 + a1*q adds
a0*P0 + a1*P1 of its row, two big-int multiplies with no loop over the
entries.  vec_mul and the stream encoder both accumulate with it and
reduce each output symbol once, with Matrix.lane_codes.  The one
elimination is ColumnSpan.  Its row operations are inlined list
comprehensions, one (x - c*y) % q per entry when the scalar and both
columns lie in GF(q), and through the scalar's FieldSpec.mul_map
otherwise; no field method is called per entry.  It grows a fully
reduced column basis with first-nonzero pivoting: deterministic, and
with no stability considerations in an exact field.  Each add returns
the pivots whose basis columns it set, the only ones that can have newly
become unit vectors.  is_mds and the decoder's unit-vector membership
and value recovery all rest on it.  is_mds checks the side with fewer
rows: a k x n code is MDS exactly when its dual is, so a tall matrix
(2k > n) is brought to systematic form [I | A] by the span's own
reduction, ColumnSpan._reduce, and its dual [-A^T | I], of n - k rows,
is checked.  On that side it walks the tree of column selections depth
first, one span per shared prefix, and tests each full selection by
the one coordinate of its last column's residue that the span has no
pivot at.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

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
        order = self.field.order
        if any(not 0 <= e < order for e in self.data):
            raise ValueError("entry out of field range")

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
    def packed_rows(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(lane_bits, per row i the pair (P0, P1)): the encoding kernel.

        A packed codeword is one int in which symbol j occupies the lane
        of lane_bits = 2w bits at bit j*lane_bits: the unreduced GF(q)
        coordinate of 1 in its low w bits, that of x in its high w bits.
        P0 and P1 pack FieldSpec.mul_map of row i's entries, so that
        a0*P0 + a1*P1 is (a0 + a1*x) . (row i) with no carry between
        fields: every map entry and every a0, a1 lies in [0, q), so a
        field summing at most `rows` rows stays below 2*rows*(q-1)^2 < 2^w.
        Built on the first encode, not with the matrix: most matrices
        (submatrix, is_mds blocks) never encode.
        """
        q, mul_map = self.field.q, self.field.mul_map
        w = (2 * self.rows * (q - 1) ** 2).bit_length() or 1  # a 0-row matrix packs zeros
        packed = []
        for i in range(self.rows):
            p0 = p1 = 0
            for j, e in enumerate(self.row(i)):
                if e:
                    m00, m01, m10, m11 = mul_map(e)
                    p0 |= (m10 << w | m00) << 2 * j * w
                    p1 |= (m11 << w | m01) << 2 * j * w
            packed.append((p0, p1))
        return 2 * w, tuple(packed)

    def lane_codes(self, packed: Iterable[int]) -> list[int]:
        """The display code of the lowest lane of each packed codeword."""
        w = self.packed_rows[0] // 2
        q, mask = self.field.q, (1 << w) - 1
        return [(x >> w & mask) % q * q + (x & mask) % q for x in packed]

    def vec_mul(self, vec: Sequence[int]) -> list[int]:
        """Row vector times matrix: vec . M, the encoding map.

        Symbols are ints, reduced mod q^2; anything else raises ValueError.
        """
        if len(vec) != self.rows:
            raise ValueError("vector length must equal row count")
        q, order = self.field.q, self.field.order
        lane_bits, packed = self.packed_rows
        acc = 0
        for v, (p0, p1) in zip(vec, packed):
            if type(v) is not int:
                raise ValueError(f"message symbol is not an int: {v!r}")
            c = v % order
            acc += c % q * p0 + c // q * p1
        return self.lane_codes(acc >> s for s in range(0, lane_bits * self.cols, lane_bits))

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
    last level the span has rank dim - 1 and so exactly one coordinate z
    that is not a pivot.  The basis is fully reduced, so a column c less
    its part along the span, sum_p c[p]*b_p over the pivots p, is zero at
    every pivot and c[z] - sum_p b_p[z]*c[p] at z: c lies in the span iff
    that one coordinate is zero, its 1 and x parts both.  Each leaf
    computes only it, with FieldSpec.mul_map of the b_p[z] taken once per
    node.
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
    f, n = g.field, len(cols)
    q = f.q

    def walk(span: ColumnSpan, start: int) -> bool:
        depth = len(span.basis)
        if depth < dim - 1:
            for c in range(start, n - dim + depth + 1):
                child = span.copy()
                if not child.add(cols[c]) or not walk(child, c + 1):
                    return False
            return True
        z = next(i for i in range(dim) if i not in span.basis)
        maps = [(p, f.mul_map(b[z])) for p, b in span.basis.items() if b[z]]
        for col in cols[start:]:
            lo, hi = col[z] % q, col[z] // q
            for p, (m00, m01, m10, m11) in maps:
                a0, a1 = col[p] % q, col[p] // q
                lo -= m00 * a0 + m01 * a1
                hi -= m10 * a0 + m11 * a1
            if not (lo % q or hi % q):
                return False
        return True

    return walk(ColumnSpan(f, dim), 0)


def _dual_columns(f: FieldSpec, k: int, cols: list[list[int]]) -> Optional[list[list[int]]]:
    """The columns of [-A^T | I], where [I | A] is the systematic form of
    the k-row matrix with these columns; None when its first k columns are
    dependent.

    The first k columns enter a span with identity tails, so the basis
    column of pivot p carries column p of the inverse of their block in
    its tail.  Reducing column k+i with a zero tail against that basis
    (ColumnSpan._reduce, the reduction of every add) clears its head and
    leaves column i of -A in its tail: row i of the dual, before its e_i.
    """
    span = ColumnSpan(f, k)
    for t in range(k):
        if not span.add(cols[t] + [int(i == t) for i in range(k)]):
            return None
    n_k = len(cols) - k
    rows = [span._reduce(c + [0] * k)[0][k:] + [int(i == j) for j in range(n_k)]
            for i, c in enumerate(cols[k:])]
    return [list(col) for col in zip(*rows)]


def _minus_times(x: list[int], c: int, y: list[int], f: FieldSpec) -> list[int]:
    """x - c*y entrywise on display codes, with no field method per entry.

    For y = y0 + y1*x, c*y goes through c's FieldSpec.mul_map, or scales
    y0 and y1 alone when c lies in GF(q); y0 may be replaced by the code
    y itself, since y = y0 (mod q).
    """
    q = f.q
    if c < q:
        return [(a // q - c * (b // q)) % q * q + (a - c * b) % q for a, b in zip(x, y)]
    m00, m01, m10, m11 = f.mul_map(c)
    return [(a // q - m10 * b - m11 * (b // q)) % q * q + (a - m00 * b - m01 * (b // q)) % q
            for a, b in zip(x, y)]


def _times(c: int, y: list[int], f: FieldSpec) -> list[int]:
    """c*y entrywise on display codes, by the rule of _minus_times."""
    q = f.q
    if c < q:
        return [c * (b // q) % q * q + c * b % q for b in y]
    m00, m01, m10, m11 = f.mul_map(c)
    return [(m10 * b + m11 * (b // q)) % q * q + (m00 * b + m01 * (b // q)) % q for b in y]


class ColumnSpan:
    """Incrementally grown span of columns in GF(q^2)^dim.

    The basis is fully reduced: the basis column of pivot p has a 1 at p
    and a 0 at every other pivot.  So e_j lies in the span exactly when j
    is a pivot whose basis column is zero off the pivots, a lookup with no
    field operations.

    A column may be longer than dim.  Its entries past dim are carried
    through every reduction but never chosen as pivots.  A basis column
    that equals e_j on its first dim coordinates therefore carries the
    tails of the added columns combined with the same coefficients that
    combine their heads into e_j.

    add reduces a column against the basis (_reduce, which the dual of
    is_mds shares), scales it and clears its pivot from the basis.  Each
    basis column carries a flag, True when it is known to lie in GF(q)^len,
    so that a row operation between base columns is one (x - c*y) % q per
    entry (98% of the build's); a column that met an extension element
    stays False.  The other paths' calls per seed-0 benchmark round, with
    the scalar in GF(q) / not: _minus_times build 1,699/299, stream
    31,436/88; _times build 232/150, stream 5,445/56; FieldSpec.inv build
    17,164/150, stream 7,357/56.  Every branch is taken, so each stays.

    add returns the pivots whose basis columns it set: the new pivot, then
    each pivot rebound in back-substitution.  Only these can have newly
    become unit vectors; a basis column that already is one has a 0 at the
    new pivot, so it is never rebound.
    """

    def __init__(self, field: FieldSpec, dim: int):
        self.field = field
        self.dim = dim
        self.basis: dict[int, list[int]] = {}  # pivot -> basis column
        self._base: dict[int, bool] = {}  # pivot -> basis column lies in GF(q)

    def copy(self) -> "ColumnSpan":
        """An independent span.  add rebinds basis columns and never
        mutates one in place, so a shallow copy of the basis suffices."""
        other = ColumnSpan(self.field, self.dim)
        other.basis = dict(self.basis)
        other._base = dict(self._base)
        return other

    def _reduce(self, col: Sequence[int]) -> tuple[Sequence[int], bool]:
        """(residue, residue in GF(q)): col less its part along the basis,
        zero at every pivot, and whether it is known to lie in GF(q)."""
        f, base = self.field, self._base
        q = f.q
        r = col  # never mutated: every step below builds a new list
        r_base = max(r, default=0) < q
        for p, b in self.basis.items():
            c = r[p]
            if c:
                if r_base and base[p]:
                    r = [(x - c * y) % q for x, y in zip(r, b)]
                else:
                    r_base = False
                    r = _minus_times(r, c, b, f)
        return r, r_base

    def add(self, col: Sequence[int]) -> list[int]:
        """Append a column; the pivots whose basis columns it set, the new
        pivot first, or [] if the column was already in the span."""
        f, basis, base = self.field, self.basis, self._base
        q = f.q
        r, r_base = self._reduce(col)
        head = r[: self.dim]
        lead = next(filter(None, head), 0)
        if not lead:
            return []
        p = head.index(lead)
        pinv = f.inv(lead)
        r = [pinv * x % q for x in r] if r_base else _times(pinv, r, f)
        changed = [p]
        # rebind, never mutate, a basis column: copy() shares them
        for s, b in basis.items():
            c = b[p]
            if c:
                changed.append(s)
                if r_base and base[s]:
                    basis[s] = [(x - c * y) % q for x, y in zip(b, r)]
                else:
                    base[s] = False
                    basis[s] = _minus_times(b, c, r, f)
        basis[p] = r
        base[p] = r_base
        return changed

    def contains_unit(self, j: int) -> bool:
        """True iff e_j lies in the span: j is a pivot whose basis column
        has a 0 at every other coordinate of the head.  That column keeps
        its 1 at j (back-substitution subtracts multiples of columns that
        are 0 at every earlier pivot), so one count of zeros decides."""
        b = self.basis.get(j)
        return b is not None and b[: self.dim].count(0) == self.dim - 1
