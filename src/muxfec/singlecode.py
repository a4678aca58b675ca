"""Single-stream rate-optimal block codes for the (W, B, N) channel.

A (T, B, N) code has k = T - N + 1 message symbols and n = k + B codeword
symbols, meeting the sliding-window capacity (T-N+1)/(T-N+1+B).  The
generator template:

  * first k columns unit upper triangular, so the erasure-free channel
    decodes sequentially with zero extra delay;
  * top rows j <= B-N carry free entries only up to column B-1, then a
    zero gap, then a single rescue entry at column j+T.  The gap is what
    lets post-burst columns be cleaned down to the tail rows, and the
    rescue column is the one through which s[j] re-enters the codeword
    exactly at its deadline;
  * remaining rows are free across the whole row past the diagonal.

  The upper-left k x (k+N-1) block and the lower-right
  (k-(B-N+1)) x (n-(B-N+1)) block must both be MDS; free entries are
  drawn uniformly from GF(q) minus zero and redrawn until the MDS checks and
  an exhaustive achievability verification (every admissible pattern on
  the n slots, W = T + 1) all pass.  One designated entry, the rescue
  coefficient of row N-1, is the code's "special" element: depending on
  the variant it is drawn from the base field or from GF(q^2) outside GF(q).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

from .channel import ChannelModel
from .decoder import block_deadlines, verify_matrix
from .galois import FieldSpec, field_sizes, field_spec, next_prime
from .linalg import Matrix, is_mds

BASE_SPECIAL = "base-field-special"
EXTENSION_SPECIAL = "extension-special"


@dataclass(frozen=True)
class BlockCode:
    T: int
    B: int
    N: int
    G: Matrix
    seed: int
    variant: str

    @property
    def k(self) -> int:
        return self.G.rows

    @property
    def n(self) -> int:
        return self.G.cols

    @property
    def field(self) -> FieldSpec:
        return self.G.field

    @property
    def special_pos(self) -> tuple[int, int]:
        return special_position(self.T, self.B, self.N)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.n)

    def g1_sub(self) -> Matrix:
        """Upper-left k x (k+N-1) sub-block.

        Certified MDS on every built code by verify_single_structure.
        """
        return self.G.submatrix(range(self.k), range(self.k + self.N - 1))

    def g2_sub(self) -> Matrix:
        """Lower-right (k-(B-N+1)) x (n-(B-N+1)) sub-block.

        Certified MDS on every built code by verify_single_structure.
        """
        cut = self.B - self.N + 1
        return self.G.submatrix(range(cut, self.k), range(cut, self.n))

    def symbol_deadlines(self):
        return block_deadlines(self.k, self.n, self.T)

    def verification_channel(self) -> ChannelModel:
        return ChannelModel(self.T + 1, self.B, self.N)

    def encode(self, message: list[int]) -> list[int]:
        return self.G.vec_mul(message)


@dataclass(frozen=True)
class StructureReport:
    g1_mds: bool
    g2_mds: bool
    special_field_ok: bool

    @property
    def passed(self) -> bool:
        return self.g1_mds and self.g2_mds and self.special_field_ok


def special_position(T: int, B: int, N: int) -> tuple[int, int]:
    """Row and column of the designated special entry.

    Row N-1's rescue column N-1+T when that row has one (B >= 2N-1);
    otherwise the last column of the row, clamped to existing rows.
    """
    k, n = T - N + 1, T - N + 1 + B
    if N - 1 <= B - N:
        return (N - 1, N - 1 + T)
    return (min(N - 1, k - 1), n - 1)


def _draw_matrix(
    field: FieldSpec, T: int, B: int, N: int, variant: str, rng: random.Random
) -> Matrix:
    k, n = T - N + 1, T - N + 1 + B
    q = field.q

    def base_nonzero() -> int:
        return rng.randrange(1, q)

    rows = []
    for j in range(k):
        row = [0] * n
        row[j] = 1
        if j <= B - N:
            for c in range(j + 1, min(B, n)):
                row[c] = base_nonzero()
            row[j + T] = base_nonzero()
        else:
            for c in range(j + 1, n):
                row[c] = base_nonzero()
        rows.append(row)
    r, c = special_position(T, B, N)
    if variant == EXTENSION_SPECIAL:
        rows[r][c] = field.code(rng.randrange(q), rng.randrange(1, q))
    else:
        rows[r][c] = base_nonzero()
    return Matrix.from_rows(field, rows)


def verify_single_structure(code: BlockCode) -> StructureReport:
    """One boolean per structural invariant; overall pass = all true.

    The unit upper-triangular prefix and the k x n shape (hence the rate)
    are not checked: _draw_matrix builds them into every draw, so no
    check of them could fail.
    """
    g1_ok = is_mds(code.g1_sub())
    g2_ok = is_mds(code.g2_sub())
    sp = code.G.entry(*code.special_pos)
    if code.variant == EXTENSION_SPECIAL:
        special_ok = not code.field.is_base(sp)
    else:
        special_ok = code.field.is_base(sp) and sp != 0
    return StructureReport(g1_ok, g2_ok, special_ok)


def build_single_code(
    T: int,
    B: int,
    N: int,
    variant: str = EXTENSION_SPECIAL,
    seed: int = 0,
    q: Optional[int] = None,
    max_tries: int = 64,
) -> BlockCode:
    """Randomized construction over the template, gated by verification.

    Deterministic for a fixed seed.  When q is not given, it starts at the
    smallest prime >= k+N = T+1 (headroom for the longest MDS sub-block) and
    moves to the next prime every few failed draws; an explicit q is never
    bumped.  Raises RuntimeError naming the failing property if the retry
    budget runs out.
    """
    if not (T >= B > N >= 1):
        raise ValueError(f"need T >= B > N >= 1, got T={T} B={B} N={N}")
    if variant not in (BASE_SPECIAL, EXTENSION_SPECIAL):
        raise ValueError(f"unknown variant {variant!r}")
    rng = random.Random(seed)
    sizes = [q] * max_tries if q is not None else field_sizes(next_prime(T + 1), max_tries)
    last_failure = "no attempts made"
    for cur_q in sizes:
        g = _draw_matrix(field_spec(cur_q), T, B, N, variant, rng)
        code = BlockCode(T, B, N, g, seed, variant)
        structure = verify_single_structure(code)
        if not structure.passed:
            bad = [f.name for f in fields(structure) if not getattr(structure, f.name)]
            last_failure = f"structure check failed: {', '.join(bad)}"
            continue
        result = verify_matrix(code.G, code.symbol_deadlines(), code.verification_channel())
        if not result.passed:
            last_failure = result.failure_text()
            continue
        return code
    raise RuntimeError(
        f"single-code search exhausted {max_tries} tries for (T={T}, B={B}, N={N}); "
        f"last failure: {last_failure}"
    )
