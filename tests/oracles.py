"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's Gaussian elimination
and field internals: arithmetic is done longhand on (lo, hi) coordinate
pairs, determinants by permutation expansion, rank by maximal nonzero
minor search, and inverses by the extended Euclidean algorithm over the
polynomial ring.  ReferenceSpan, the slow path that the packed
linalg.ColumnSpan must match, is built from these pair oracles too, so
a fault in FieldSpec's arithmetic cannot hide in it.  The one exception
is reference_decode_message, the value decoder that the decode-map
table replaced: one received-lane elimination per call, on the
library's ColumnSpan, which ReferenceSpan checks.  KERNEL_FIELDS are the
fields the field arithmetic, the packed encoder and the packed span are
tested over.

The paper's statements that the pipeline never evaluates live here too:
the case analysis of short merges (m <= N-1; select_parameters always
merges with m = B), the overlap-add that merged encoding must equal, and
the closed-form count of admissible patterns on a short horizon.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

from muxfec.decoder import _add_column, _report
from muxfec.galois import FieldSpec, field_spec
from muxfec.linalg import ColumnSpan

# c1 != 0 in the first three exercises the x-term of x^2 = -c1*x - c0,
# which the default fields of odd q (c1 = 0) never do
KERNEL_FIELDS = [FieldSpec(5, 1, 2), FieldSpec(2, 1, 1), FieldSpec(7, 3, 5), field_spec(11),
                 field_spec(65521)]


def is_prime_trial(n):
    """Primality by trial division up to sqrt(n)."""
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


# -- coordinate-pair arithmetic in GF(q)[x]/(x^2 + c1 x + c0) -------------

def o_add(a, b, q):
    return ((a[0] + b[0]) % q, (a[1] + b[1]) % q)


def o_mul(a, b, q, c1, c0):
    a0, a1 = a
    b0, b1 = b
    # (a0 + a1 x)(b0 + b1 x), with x^2 = -c1 x - c0
    t = a1 * b1
    return ((a0 * b0 - t * c0) % q, (a0 * b1 + a1 * b0 - t * c1) % q)


def o_sub(a, b, q):
    return ((a[0] - b[0]) % q, (a[1] - b[1]) % q)


def poly_divmod(num, den, q):
    """Division with remainder in GF(q)[x]; polynomials as low-first coeff lists."""
    num = list(num)
    out = [0] * max(1, len(num) - len(den) + 1)
    dlead = den[-1]
    dinv = pow(dlead, q - 2, q)
    for shift in range(len(num) - len(den), -1, -1):
        coef = num[shift + len(den) - 1] * dinv % q
        out[shift] = coef
        for i, d in enumerate(den):
            num[shift + i] = (num[shift + i] - coef * d) % q
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return out, num


def ext_euclid_inverse(a, q, c1, c0):
    """Inverse of a = (lo, hi) via extended Euclid over GF(q)[x]."""
    mod = [c0, c1, 1]
    r0, r1 = mod, [a[0], a[1]]
    while len(r1) > 1 and r1[-1] == 0:
        r1.pop()
    s0, s1 = [0], [1]
    while r1 != [0]:
        quo, rem = poly_divmod(r0, r1, q)
        r0, r1 = r1, rem if rem else [0]
        # s_next = s0 - quo * s1
        prod = [0] * (len(quo) + len(s1) - 1)
        for i, qc in enumerate(quo):
            for j, sc in enumerate(s1):
                prod[i + j] = (prod[i + j] + qc * sc) % q
        ln = max(len(s0), len(prod))
        s_next = [((s0[i] if i < len(s0) else 0) - (prod[i] if i < len(prod) else 0)) % q for i in range(ln)]
        while len(s_next) > 1 and s_next[-1] == 0:
            s_next.pop()
        s0, s1 = s1, s_next
    # r0 is the gcd, a unit for invertible a
    unit_inv = pow(r0[0], q - 2, q)
    res = [(c * unit_inv) % q for c in s0]
    _, res = poly_divmod(res + [0] * 3, mod, q) if len(res) > 2 else (None, res)
    res = (res + [0, 0])[:2]
    return (res[0], res[1])


# -- matrix oracles over coordinate pairs ---------------------------------

def det_bruteforce(rows, q, c1, c0):
    """Determinant by signed permutation expansion; entries are (lo, hi) pairs."""
    n = len(rows)
    total = (0, 0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = (1, 0)
        for i in range(n):
            term = o_mul(term, rows[i][perm[i]], q, c1, c0)
        if inversions % 2:
            term = ((-term[0]) % q, (-term[1]) % q)
        total = o_add(total, term, q)
    return total


def rank_bruteforce(rows, q, c1, c0):
    """Largest r with a nonzero r x r minor."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    for r in range(min(nr, nc), 0, -1):
        for rsel in combinations(range(nr), r):
            for csel in combinations(range(nc), r):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if det_bruteforce(sub, q, c1, c0) != (0, 0):
                    return r
    return 0


def unit_in_span_bruteforce(rows, j, q, c1, c0):
    """e_j in the column span of rows  <=>  rank([rows | e_j]) = rank(rows)."""
    aug = [row + [(1, 0) if i == j else (0, 0)] for i, row in enumerate(rows)]
    return rank_bruteforce(aug, q, c1, c0) == rank_bruteforce(rows, q, c1, c0)


def is_mds_bruteforce(rows, q, c1, c0):
    """Every maximal minor nonzero, by permutation-expansion determinants."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    if nr == 0:
        return True
    for csel in combinations(range(nc), nr):
        sub = [[rows[i][j] for j in csel] for i in rsel_all(nr)]
        if det_bruteforce(sub, q, c1, c0) == (0, 0):
            return False
    return True


def rsel_all(n):
    return list(range(n))


def code_pairs(codes, q):
    """Display codes -> (lo, hi) pairs, through the display-code contract only."""
    return [(e % q, e // q) for e in codes]


def pair_code(pair, q):
    """A reduced (lo, hi) pair -> its display code hi*q + lo."""
    return pair[1] * q + pair[0]


def codes_to_pairs(matrix):
    """Library Matrix -> (lo, hi) pair rows."""
    return [code_pairs(matrix.row(i), matrix.field.q) for i in range(matrix.rows)]


def mat_vec(rows, vec, q, c1, c0):
    """Matrix times column vector, longhand over (lo, hi) pairs."""
    out = []
    for row in rows:
        acc = (0, 0)
        for e, v in zip(row, vec):
            acc = o_add(acc, o_mul(e, v, q, c1, c0), q)
        out.append(acc)
    return out


def worst_case_entry(q, c1, c0):
    """The GF(q^2) element e whose multiplication map sends (q-1, q-1) to
    the largest possible unreduced coordinate of 1, 2(q-1)^2: e = e0 + e1*x
    with e0 = q-1 and -c0*e1 = q-1 (mod q).  c0 != 0 for an irreducible
    quadratic, so e1 = 1/c0 exists and e lies outside GF(q).
    """
    return pow(c0, q - 2, q) * q + q - 1


# -- reference elimination -------------------------------------------------

class ReferenceSpan:
    """The column-span elimination spelled out entry by entry in the pair
    oracles (o_sub, o_mul, ext_euclid_inverse), with no FieldSpec
    arithmetic: the slow path that linalg.ColumnSpan replaced.  Same
    contract on display codes: add(col) -> enlarged?, reduce(col) is col
    less its part along the span, and basis maps each pivot to its fully
    reduced basis column.
    """

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim
        self.basis = {}

    def _times(self, c, y):
        q, c1, c0 = self.field.q, self.field.c1, self.field.c0
        return [o_mul(c, b, q, c1, c0) for b in code_pairs(y, q)]

    def _minus_times(self, x, c, y):
        q = self.field.q
        cy = self._times(code_pairs([c], q)[0], y)
        return [pair_code(o_sub(a, b, q), q) for a, b in zip(code_pairs(x, q), cy)]

    def reduce(self, col):
        r = list(col)
        for p, b in self.basis.items():
            if r[p]:
                r = self._minus_times(r, r[p], b)
        return r

    def add(self, col):
        q, c1, c0 = self.field.q, self.field.c1, self.field.c0
        r = self.reduce(col)
        p = next((i for i in range(self.dim) if r[i]), None)
        if p is None:
            return False
        pinv = ext_euclid_inverse(code_pairs([r[p]], q)[0], q, c1, c0)
        r = [pair_code(e, q) for e in self._times(pinv, r)]
        for s, b in self.basis.items():
            if b[p]:
                self.basis[s] = self._minus_times(b, b[p], r)
        self.basis[p] = r
        return True


# -- decoding oracle -------------------------------------------------------

def sequential_substitution(matrix, received):
    """Erasure-free prefix decoder for a unit-upper-triangular prefix.

    Solves s[i] from x[i] by subtracting the already-known symbols, the
    way the erasure-free channel is meant to be decoded; returns the list
    of message symbols (display codes).
    """
    q, c1, c0 = matrix.field.q, matrix.field.c1, matrix.field.c0
    out = []
    for i in range(matrix.rows):
        acc = code_pairs([received[i]], q)[0]
        for j in range(i):
            coef = code_pairs([matrix.entry(j, i)], q)[0]
            acc = o_sub(acc, o_mul(out[j], coef, q, c1, c0), q)
        out.append(acc)  # diagonal entry is 1
    return [pair_code(a, q) for a in out]


def reference_decode_message(g, received, p, symbols):
    """decoder.decode_message by a fresh elimination per call, the path
    the table of decode maps replaced: each packed column of G carries
    its received symbol in one more lane, g.rows, before it enters the
    span, so the basis column that becomes e_j carries x_j there.  The
    span is linalg.ColumnSpan, itself checked against ReferenceSpan.  No
    input checks: received must be consistent with p and hold display
    codes."""
    k, q = g.rows, g.field.q
    span = ColumnSpan(g.field, k, k + 1)
    sh, mask = k * span.lanes.width, span.lanes.mask
    times = {}
    for t, (lo, hi) in enumerate(g.packed_cols):
        if t not in p:
            y = received[t]
            _add_column(span, (lo | y % q << sh, hi | y // q << sh), t, times)
        if len(times) == k:
            break
    values = {j: (b1 >> sh & mask) * q + (b0 >> sh & mask) for j, (b0, b1) in span.basis.items()}
    return _report(times, symbols, values)


def admissible_bruteforce(horizon, W, B, N, erased):
    """Definition-style admissibility check over all windows, from scratch."""
    erased = set(erased)
    for i in range(horizon):
        window = [t for t in range(i, i + W) if t in erased]
        cnt = len(window)
        if cnt <= N:
            continue
        if cnt > B:
            return False
        if window[-1] - window[0] + 1 != cnt:
            return False
    return True


def det_laplace(rows, q, c1, c0):
    """Determinant by first-column Laplace expansion, memoized on the live
    row set; independent of elimination, usable up to ~15x15."""
    n = len(rows)
    memo = {}

    def go(rowmask, col):
        if col == n:
            return (1, 0)
        key = rowmask
        if key in memo:
            return memo[key]
        total = (0, 0)
        sign = 0
        for i in range(n):
            bit = 1 << i
            if not rowmask & bit:
                continue
            entry = rows[i][col]
            if entry != (0, 0):
                sub = go(rowmask & ~bit, col + 1)
                term = o_mul(entry, sub, q, c1, c0)
                if sign % 2:
                    term = ((-term[0]) % q, (-term[1]) % q)
                total = o_add(total, term, q)
            sign += 1
        memo[key] = total
        return total

    return go((1 << n) - 1, 0)


def is_mds_laplace(rows, q, c1, c0):
    """MDS check with the memoized-expansion determinant (for wider blocks)."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    if nr == 0:
        return True
    for csel in combinations(range(nc), nr):
        sub = [[rows[i][j] for j in csel] for i in range(nr)]
        if det_laplace(sub, q, c1, c0) == (0, 0):
            return False
    return True


# -- statements of the paper that the pipeline never evaluates ------------

def merge_codewords(field, xv, xu, m):
    """Overlap-add of two codewords of display codes on their middle m
    positions, added longhand on (lo, hi) pairs."""
    if not 0 <= m <= min(len(xv), len(xu)):
        raise ValueError(f"merge length {m} out of range")
    q, split = field.q, len(xv) - m
    overlap = [pair_code(o_add(a, b, q), q)
               for a, b in zip(code_pairs(xv[split:], q), code_pairs(xu[:m], q))]
    return list(xv[:split]) + overlap + list(xu[m:])


def case_m_small_bound(T_v, B, N):
    """Sum-rate bound for merge lengths 1 <= m <= N-1: (T_v-2N+3)/(T_v-3N+4+2B),
    strictly below the merged rate in both regimes.  Defined where the merged
    rates are: B > N >= 1 and T_v >= 2B+2."""
    if not (B > N >= 1 and T_v >= 2 * B + 2):
        raise ValueError(f"need B > N >= 1 and T_v >= 2B+2, got T_v={T_v} B={B} N={N}")
    return Fraction(T_v - 2 * N + 3, T_v - 3 * N + 4 + 2 * B)


@dataclass(frozen=True)
class BoundCheck:
    allowed: bool
    rule: str
    reason: str


def check_merge_bounds(T_v, T_v_prime, T_u_prime, m, B, N):
    """Feasibility of a merge length against the deadline budget.

    Merge lengths in [1, N-1] must keep T_v' + T_u' - N + m <= T_v; in
    [N, B] the budget is T_v' + T_u' <= T_v when B >= 2N-1, otherwise
    T_v' + B - N + k_u <= T_v with k_u = T_u' - N + 1.  m > B always
    fails: removing the worst burst would leave fewer columns than
    message symbols.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    if m > B:
        return BoundCheck(False, "merge-length", f"m={m} > B={B}")
    if m <= N - 1:
        lhs, rule, text = T_v_prime + T_u_prime - N + m, "short-merge", "T_v'+T_u'-N+m"
    elif B >= 2 * N - 1:
        lhs, rule, text = T_v_prime + T_u_prime, "burst-dominant", "T_v'+T_u'"
    else:
        lhs, rule, text = T_v_prime + B - N + T_u_prime - N + 1, "random-dominant", "T_v'+B-N+k_u"
    ok = lhs <= T_v
    return BoundCheck(ok, rule, f"{text} = {lhs} {'<=' if ok else '>'} T_v = {T_v}")


def pattern_count_closed_form(horizon, W, B, N):
    """Admissible-pattern count for W >= horizon: N-subsets plus longer bursts."""
    if W < horizon:
        raise ValueError(f"the closed form needs W >= horizon, got W={W} horizon={horizon}")
    total = sum(comb(horizon, j) for j in range(N + 1))
    return total + sum(max(0, horizon - blen + 1) for blen in range(N + 1, B + 1))
