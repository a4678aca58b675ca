"""Dense exact linear algebra over GF(q^2).

Matrices store their entries as integer display codes (see galois) in a
flat row-major tuple.  The one encoding kernel is Matrix.add_row
((lo, hi) += c . row i): it accumulates a codeword as two lists of
unreduced integers, the GF(q) coordinates of 1 and x, and calls no field
method per entry.  vec_mul and the stream encoder both accumulate with
it and reduce each output symbol once, with FieldSpec.code.  The one
elimination is ColumnSpan, whose arithmetic goes through the FieldSpec
code methods.  It grows a fully reduced column basis with first-nonzero
pivoting: deterministic, and with no stability considerations in an
exact field.  rank, is_mds and the decoder's unit-vector membership and
value recovery all rest on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

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

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        return Matrix.from_rows(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

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
    def _row_maps(self) -> tuple[tuple[tuple[int, int, int, int, int], ...], ...]:
        """Per row, (j, *FieldSpec.mul_map(e)) for each nonzero entry e at column j.

        Built on the first add_row, not with the matrix: most matrices
        (submatrix, is_mds blocks) never encode.
        """
        mul_map = self.field.mul_map
        return tuple(
            tuple((j, *mul_map(e)) for j, e in enumerate(self.row(i)) if e)
            for i in range(self.rows)
        )

    def add_row(self, lo: list[int], hi: list[int], i: int, c: int) -> None:
        """(lo, hi) += c . (row i), unreduced: the one encoding kernel.

        lo[j] and hi[j] are integer sums whose residues mod q are the
        coordinates of 1 and x of symbol j; FieldSpec.code reduces them.
        """
        q = self.field.q
        a0, a1 = c % q, c // q
        for j, m00, m01, m10, m11 in self._row_maps[i]:
            lo[j] += a0 * m00 + a1 * m01
            hi[j] += a0 * m10 + a1 * m11

    def vec_mul(self, vec: Sequence[int]) -> list[int]:
        """Row vector times matrix: vec . M, the encoding map."""
        if len(vec) != self.rows:
            raise ValueError("vector length must equal row count")
        lo, hi = [0] * self.cols, [0] * self.cols
        for i, v in enumerate(vec):
            if v:
                self.add_row(lo, hi, i, v)
        return list(map(self.field.code, lo, hi))

    def to_dump(self) -> dict:
        """Matrix dump format: JSON-ready dict with integer display codes."""
        return {
            "q": self.field.q,
            "ext_poly": list(self.field.ext_poly()),
            "rows": self.rows,
            "cols": self.cols,
            "entries": list(self.data),
        }

    @staticmethod
    def from_dump(d: dict) -> "Matrix":
        field = FieldSpec(d["q"], d["ext_poly"][0], d["ext_poly"][1])
        return Matrix(d["rows"], d["cols"], field, tuple(d["entries"]))


def rank(m: Matrix) -> int:
    """Column rank, which equals the row rank."""
    span = ColumnSpan(m.field, m.rows)
    for j in range(m.cols):
        span.add(m.col(j))
    return span.dimension


def is_mds(g: Matrix) -> bool:
    """True iff every selection of `rows` columns is linearly independent.

    A selection is rejected at its first column that does not enlarge the
    span of the ones before it.  A 0-row matrix is vacuously MDS
    (degenerate sub-blocks of short codes).
    """
    if g.rows > g.cols:
        raise ValueError("is_mds requires rows <= cols")
    cols = [g.col(j) for j in range(g.cols)]
    for sel in itertools.combinations(cols, g.rows):
        span = ColumnSpan(g.field, g.rows)
        if not all(span.add(c) for c in sel):
            return False
    return True


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
    """

    def __init__(self, field: FieldSpec, dim: int):
        self.field = field
        self.dim = dim
        self.basis: dict[int, list[int]] = {}  # pivot -> basis column

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def copy(self) -> "ColumnSpan":
        """An independent span.  add rebinds basis columns and never
        mutates one in place, so a shallow copy of the basis suffices."""
        other = ColumnSpan(self.field, self.dim)
        other.basis = dict(self.basis)
        return other

    def add(self, col: Sequence[int]) -> bool:
        """Append a column; True if it enlarged the span."""
        f = self.field
        sub, mul = f.sub, f.mul
        r = list(col)
        for p, b in self.basis.items():
            c = r[p]
            if c:
                r = [sub(x, mul(c, y)) for x, y in zip(r, b)]
        p = next((i for i in range(self.dim) if r[i]), None)
        if p is None:
            return False
        pinv = f.inv(r[p])
        r = [mul(pinv, x) for x in r]
        basis = self.basis
        # rebind, never mutate, a basis column: copy() shares them
        for q, b in basis.items():
            c = b[p]
            if c:
                basis[q] = [sub(x, mul(c, y)) for x, y in zip(b, r)]
        basis[p] = r
        return True

    def contains_unit(self, j: int) -> bool:
        """True iff e_j lies in the span."""
        b = self.basis.get(j)
        return b is not None and not any(b[:j]) and not any(b[j + 1 : self.dim])
