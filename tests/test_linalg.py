import itertools
import math
import random
from pathlib import Path

import pytest

from muxfec import codespec, linalg
from muxfec.decoder import _add_column, verify_achievable
from muxfec.galois import FieldSpec, field_sizes, field_spec
from muxfec.linalg import ColumnSpan, Matrix, is_mds
from muxfec.muxcode import MAX_ATTEMPTS
from muxfec.singlecode import BASE_SPECIAL, EXTENSION_SPECIAL, BlockCode, _draw_matrix

from oracles import (
    KERNEL_FIELDS,
    ReferenceSpan,
    code_pairs,
    codes_to_pairs,
    det_bruteforce,
    is_mds_bruteforce,
    mat_vec,
    o_add,
    o_mul,
    rank_bruteforce,
    unit_in_span_bruteforce,
    worst_case_entry,
)

GF11 = field_spec(11)
GF5 = field_spec(5)
# the span's kernel also at lanes wider than 64 bits, and at the top of
# (20,6,2)'s field-size schedule
SPAN_FIELDS = [*KERNEL_FIELDS, field_spec(2**61 - 1), field_spec(12539)]
STREAM_SPEC = Path(__file__).resolve().parents[1] / "perfbench/specs/stream_20_10_6_2.json"


def vandermonde(field, rows, nodes):
    return Matrix.from_rows(
        field, [[pow(x, i, field.q) for x in nodes] for i in range(rows)]
    )


def unit(dim, j):
    return [1 if i == j else 0 for i in range(dim)]


def identity(field, n):
    return Matrix.from_rows(field, [unit(n, i) for i in range(n)])


def rank(m):
    """Column rank, which equals the row rank: the size of the span's basis."""
    span = ColumnSpan(m.field, m.rows)
    for j in range(m.cols):
        span.add(span.pack(m.col(j)))
    return len(span.basis)


def times_vector(m, h):
    """M.h by the pair-arithmetic oracle, as display codes."""
    f = m.field
    out = mat_vec(codes_to_pairs(m), code_pairs(h, f.q), f.q, f.c1, f.c0)
    return [f.code(lo, hi) for lo, hi in out]


def solve_for_unit(m, j):
    """Coefficients h with M.h = e_j, or None when e_j is outside the span.

    Column t enters the span carrying e_t, so the basis column that equals
    e_j on the first m.rows coordinates carries the coefficients h.
    """
    span = ColumnSpan(m.field, m.rows, m.rows + m.cols)
    for t in range(m.cols):
        span.add(span.pack(m.col(t) + unit(m.cols, t)))
    if not span.contains_unit(j):
        return None
    return span.lanes.codes(span.basis[j], m.rows)


def test_rank_identity():
    assert rank(identity(GF11, 3)) == 3


def test_rank_zero_row():
    m = Matrix.from_rows(GF11, [[1, 2, 3], [0, 0, 0], [4, 5, 6]])
    assert rank(m) < m.rows


def test_rank_vandermonde_2x3():
    m = vandermonde(GF11, 2, [1, 2, 3])
    # hand oracle: the 2x2 minor on nodes {1,2} is 2-1 = 1, nonzero
    assert (m.entry(0, 0) * m.entry(1, 1) - m.entry(0, 1) * m.entry(1, 0)) % 11 != 0
    assert rank(m) == 2


def test_rank_against_bruteforce_minor_oracle():
    rng = random.Random(20240317)
    spec = GF5
    for _ in range(1000):
        r = rng.randint(1, 5)
        c = rng.randint(1, 7)
        data = [rng.randrange(spec.q) for _ in range(r * c)]
        m = Matrix(r, c, spec, tuple(data))
        assert rank(m) == rank_bruteforce(codes_to_pairs(m), spec.q, spec.c1, spec.c0)


def test_solve_for_unit_identity():
    h = solve_for_unit(identity(GF11, 3), 1)
    assert h == [0, 1, 0]


def test_solve_for_unit_zero_row_unsolvable():
    m = Matrix.from_rows(GF11, [[1, 2, 3], [0, 0, 0]])
    assert solve_for_unit(m, 1) is None
    assert not unit_in_span_bruteforce(codes_to_pairs(m), 1, 11, GF11.c1, GF11.c0)


def test_solve_for_unit_remultiplies():
    rng = random.Random(7)
    for _ in range(200):
        r = rng.randint(1, 5)
        c = rng.randint(1, 6)
        m = Matrix(r, c, GF5, tuple(rng.randrange(25) for _ in range(r * c)))
        j = rng.randrange(r)
        h = solve_for_unit(m, j)
        assert (h is not None) == unit_in_span_bruteforce(codes_to_pairs(m), j, 5, GF5.c1, GF5.c0)
        if h is not None:
            assert times_vector(m, h) == unit(r, j)


def test_solve_for_unit_example_pattern(example_code):
    # restricted to the unerased columns <= 11 under erasures {0, 5},
    # the urgent stream's first symbol is solvable
    g = example_code.G
    cols = [t for t in range(12) if t not in (0, 5)]
    sub = g.submatrix(range(g.rows), cols)
    h = solve_for_unit(sub, example_code.params.k_v)
    assert h is not None
    assert times_vector(sub, h) == unit(g.rows, example_code.params.k_v)


def test_is_mds_identity_and_zero_column():
    assert is_mds(identity(GF11, 3)) is True
    m = Matrix.from_rows(GF11, [[1, 0, 0, 2], [0, 1, 0, 3]])  # zero third column
    assert is_mds(m) is False


def test_is_mds_vandermonde_2x4():
    m = vandermonde(GF11, 2, [1, 2, 3, 4])
    assert is_mds_bruteforce(codes_to_pairs(m), 11, GF11.c1, GF11.c0) is True
    assert is_mds(m) is True


def test_is_mds_requires_wide():
    with pytest.raises(ValueError):
        is_mds(Matrix.from_rows(GF11, [[1], [2]]))


def test_is_mds_matches_rank_definition():
    rng = random.Random(99)
    for _ in range(150):
        r = rng.randint(1, 3)
        c = rng.randint(r, 5)
        m = Matrix(r, c, GF5, tuple(rng.randrange(5) for _ in range(r * c)))
        by_rank = all(
            rank(m.submatrix(range(r), sel)) == r for sel in itertools.combinations(range(c), r)
        )
        assert is_mds(m) == by_rank
        assert is_mds(m) == is_mds_bruteforce(codes_to_pairs(m), GF5.q, GF5.c1, GF5.c0)


def mds_case(rng, spec, k, n, kind):
    """A k x n matrix over all of GF(q^2): "random" (30% zeros), "dense" (no
    zeros), "base" (no zeros, every entry in GF(q), so that a tall block's
    dual takes the base-field path of the reduction), "vandermonde" (rows
    x^i at distinct nodes, MDS when n <= q^2), "lead" (first k columns
    dependent: column k-1 is a combination of the ones before it, the zero
    column when k = 1) or "pair" (dense, with column 1 a multiple of
    column 0: on a wide block the walk's first prefix is dependent)."""
    q, c1, c0 = spec.q, spec.c1, spec.c0
    if kind == "vandermonde":
        nodes = rng.sample(range(spec.order), n)
        rows, power = [], [(1, 0)] * n
        for _ in range(k):
            rows.append([spec.code(*e) for e in power])
            power = [o_mul(e, (x % q, x // q), q, c1, c0) for e, x in zip(power, nodes)]
    else:
        top = {"dense": spec.order, "pair": spec.order, "base": q}.get(kind)
        rows = [[rng.randrange(1, top) if top else random_entry(rng, spec) for _ in range(n)]
                for _ in range(k)]
    if kind == "pair":
        a = (rng.randrange(1, q), rng.randrange(q))
        for row in rows:
            row[1] = spec.code(*o_mul(a, (row[0] % q, row[0] // q), q, c1, c0))
    if kind == "lead":
        coef = [(rng.randrange(q), rng.randrange(q)) for _ in range(k - 1)]
        for row in rows:
            acc = (0, 0)
            for a, e in zip(coef, row):
                acc = o_add(acc, o_mul(a, (e % q, e // q), q, c1, c0), q)
            row[k - 1] = spec.code(*acc)
    return Matrix.from_rows(spec, rows) if k else Matrix(0, n, spec, ())


MDS_SHAPES = [
    (0, 0), (0, 3),  # no rows: vacuously MDS
    (1, 1), (2, 2), (3, 3),  # k = n: MDS iff invertible, a dual with 0 rows
    (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6),  # tall, 2k > n: the dual side
    (1, 3), (2, 4), (2, 5), (3, 6),  # wide, 2k <= n: G itself
    (3, 7), (4, 8), (5, 9), (4, 7),  # three or more levels of the subset tree
]


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=str)
def test_is_mds_both_sides_match_bruteforce(spec, monkeypatch):
    """is_mds on both sides of 2k = n, with entries from all of GF(q^2),
    against every maximal minor by permutation expansion and by
    rank_bruteforce; and the selections it checks have min(k, n-k) rows."""

    class LoggedSpan(ColumnSpan):
        def add(self, col):
            if self.lanes.length == self.dim:  # a selection's span; the systematic form's span carries tails
                dims.append(self.dim)
            return super().add(col)

    monkeypatch.setattr(linalg, "ColumnSpan", LoggedSpan)
    rng = random.Random(spec.q * 7 + spec.c1)
    q, c1, c0 = spec.q, spec.c1, spec.c0
    verdicts = set()
    for k, n in MDS_SHAPES:
        kinds = ["random", "dense", "dense", "base", "base", "lead", "lead", "pair"]
        if n <= spec.order:
            kinds += ["vandermonde", "vandermonde"]
        for kind in kinds * 2:
            if kind == "lead" and k == 0 or kind == "pair" and k < 2:
                continue
            m = mds_case(rng, spec, k, n, kind)
            pairs = codes_to_pairs(m)
            want = is_mds_bruteforce(pairs, q, c1, c0)
            by_rank = all(
                rank_bruteforce([[row[j] for j in sel] for row in pairs], q, c1, c0) == k
                for sel in itertools.combinations(range(n), k)
            )
            dims = []
            got = is_mds(m)
            assert got == want == by_rank, (k, n, kind, m.data)
            assert set(dims) <= {min(k, n - k)}
            if kind in ("lead", "pair"):
                assert got is False
            if kind == "vandermonde":
                assert got is True
            verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("T,B,N", [(6, 4, 3), (7, 4, 3)])
def test_is_mds_on_template_blocks_matches_bruteforce(T, B, N):
    """The blocks builds certify, g1_sub and g2_sub of template draws at
    the fields the search starts from: (4,6) and (2,6) at (6,4,3), (5,7)
    and (3,7) at (7,4,3), with a base-field or an extension special entry."""
    rng = random.Random(T * 100 + B * 10 + N)
    verdicts = set()
    for q in (7, 11, 13):
        spec = field_spec(q)
        for variant in (BASE_SPECIAL, EXTENSION_SPECIAL):
            for _ in range(12):
                code = BlockCode(T, B, N, _draw_matrix(spec, T, B, N, variant, rng), 0, variant)
                for block in (code.g1_sub(), code.g2_sub()):
                    want = is_mds_bruteforce(codes_to_pairs(block), q, spec.c1, spec.c0)
                    assert is_mds(block) == want, (T, B, N, q, block.data)
                    verdicts.add(want)
    assert verdicts == {True, False}


def dependent_selections(m):
    """The column selections of m whose maximal minor is zero, in order."""
    pairs, f = codes_to_pairs(m), m.field
    return [sel for sel in itertools.combinations(range(m.cols), m.rows)
            if det_bruteforce([[row[j] for j in sel] for row in pairs], f.q, f.c1, f.c0) == (0, 0)]


@pytest.mark.parametrize("k,n", [(2, 5), (3, 7), (4, 8)])
def test_is_mds_reaches_the_last_selection(k, n):
    """A wide matrix whose only dependent selection is the lexicographically
    last one: the walk must reach the last prefix and its last leaf."""
    spec = GF11
    rng = random.Random(k * 31 + n)
    for _ in range(50):  # redraw until no other selection is dependent by chance
        m = mds_case(rng, spec, k, n, "dense")
        rows = codes_to_pairs(m)
        coef = [(rng.randrange(1, spec.q), rng.randrange(spec.q)) for _ in range(k - 1)]
        for row in rows:  # the last column: a combination of the k - 1 before it
            acc = (0, 0)
            for a, e in zip(coef, row[n - k : n - 1]):
                acc = o_add(acc, o_mul(a, e, spec.q, spec.c1, spec.c0), spec.q)
            row[n - 1] = acc
        m = Matrix.from_rows(spec, [[spec.code(*e) for e in row] for row in rows])
        if dependent_selections(m) == [tuple(range(n - k, n))]:
            break
    else:
        pytest.fail("no draw had the last selection as its only dependent one")
    assert is_mds(m) is False


@pytest.mark.parametrize("k,n", [(1, 4), (2, 6), (3, 7), (4, 8), (4, 9), (5, 10)])
def test_is_mds_shares_each_prefix(k, n, monkeypatch):
    """On an MDS wide k x n block the walk adds each prefix's last column
    once: a prefix of length l ends at or before column n-k+l-1, so there
    are C(n-k+l, l) of them, l = 1..k-1; a leaf adds nothing.  One span
    per selection would add k*C(n,k) columns."""
    adds = []

    class CountedSpan(ColumnSpan):
        def add(self, col):
            adds.append(len(self.basis))
            return super().add(col)

    monkeypatch.setattr(linalg, "ColumnSpan", CountedSpan)
    m = mds_case(random.Random(k * n), GF11, k, n, "vandermonde")
    assert is_mds(m) is True
    assert len(adds) == sum(math.comb(n - k + l, l) for l in range(1, k))
    assert set(adds) <= set(range(k - 1))  # never into a span of rank k - 1: no leaf adds


def test_rank_with_extension_entries():
    spec = field_spec(5)
    rng = random.Random(4)
    for _ in range(300):
        r = rng.randint(1, 4)
        c = rng.randint(1, 5)
        m = Matrix(r, c, spec, tuple(rng.randrange(spec.order) for _ in range(r * c)))
        assert rank(m) == rank_bruteforce(codes_to_pairs(m), spec.q, spec.c1, spec.c0)


def test_column_span_tracks_rank():
    """GF5 has c1 = 0; the other fields exercise the x-term of x^2 = -c1*x - c0."""
    for spec in (GF5, FieldSpec(5, 1, 2), FieldSpec(2, 1, 1), FieldSpec(7, 3, 5)):
        rng = random.Random(11 + spec.c1)
        for _ in range(100):
            r = rng.randint(1, 5)
            c = rng.randint(1, 8)
            m = Matrix(r, c, spec, tuple(rng.randrange(spec.order) for _ in range(r * c)))
            pairs = codes_to_pairs(m)
            span = ColumnSpan(spec, r)
            for j in range(c):
                if j == c // 2:  # the verifier's walk relies on add never rebinding a copy's column
                    snapshot = span.copy()
                    frozen = dict(snapshot.basis)
                span.add(span.pack(m.col(j)))
            assert snapshot.basis == frozen
            assert len(span.basis) == rank_bruteforce(pairs, spec.q, spec.c1, spec.c0)
            for j in range(r):
                want = unit_in_span_bruteforce(pairs, j, spec.q, spec.c1, spec.c0)
                assert span.contains_unit(j) == want


def random_entry(rng, spec):
    """Zero with probability 0.3; otherwise a base-field or an extension entry, evenly."""
    pick = rng.random()
    if pick < 0.3:
        return 0
    return rng.randrange(1, spec.q) if pick < 0.65 else rng.randrange(spec.q, spec.order)


def display(span):
    """The span's basis, read as display codes."""
    return {p: span.lanes.codes(b) for p, b in span.basis.items()}


@pytest.mark.parametrize("spec", SPAN_FIELDS, ids=str)
def test_lane_reduction_is_exact_at_its_bounds(spec):
    """_Lanes.mod takes every lane in [0, 2^a) to its value mod q, on
    lanes holding 0, q-1, q, kq - 1, kq + 1 and 2^a - 1, in every lane
    position; and the offset is a multiple of q that covers the 2*dim*(q-1)^2
    a row operation can subtract, with offset + q - 1 < 2^a."""
    q = spec.q
    rng = random.Random(q)
    for length, dim in [(1, 1), (2, 1), (6, 6), (12, 6), (25, 25), (26, 25)]:
        lanes = linalg._lanes(q, length, dim)
        offset = lanes.offset & lanes.mask
        a = (offset + q - 1).bit_length()
        assert offset % q == 0 and offset >= 2 * dim * (q - 1) ** 2
        top = (1 << a) - 1
        ks = sorted({1, 2, top // q, rng.randrange(1, top // q + 1)})
        values = [0, q - 1, q, top] + [v for k in ks for v in (k * q - 1, k * q + 1) if v <= top]
        for shift in range(len(values)):
            lane_values = [values[(i + shift) % len(values)] for i in range(length)]
            for lv in (lane_values, [top] * length):
                x = sum(v << i * lanes.width for i, v in enumerate(lv))
                got = lanes.mod(x)
                assert [got >> i * lanes.width & lanes.mask for i in range(length)] == [
                    v % q for v in lv]


def fill_to_bound(rng, spec, dim, tail):
    """A span of rank dim whose basis columns are e_p with every tail entry
    q^2 - 1, and a column of worst_case_entry on its head: reducing it
    subtracts dim products of 2(q-1)^2 from the coordinate of 1 of each
    tail lane, the bound the lane offset is sized for."""
    top, worst = spec.order - 1, worst_case_entry(spec.q, spec.c1, spec.c0)
    cols = [[int(i == p) for i in range(dim)] + [top] * tail for p in range(dim)]
    rng.shuffle(cols)
    return cols, [worst] * dim + [rng.choice([0, top]) for _ in range(tail)]


@pytest.mark.parametrize("spec", SPAN_FIELDS, ids=str)
def test_column_span_matches_reference(spec):
    """The packed elimination against the pair-oracle one: the same verdict
    on every add and the same basis after it, read as display codes, on
    columns with tails, all in GF(q) or not, and on copies taken midway;
    at dims up to 25 with tails up to twice dim, the shapes of
    _dual_columns, decode_message's tagged sweep and the reference
    decoder; and with columns of worst_case_entry, whose residue
    (_reduce, as _dual_columns reads it) drives the lanes to their
    unreduced bound.  add returns exactly the pivots whose basis columns it
    created or rebound, told apart by identity, with the new pivot first,
    and [] exactly where the reference finds the column already in the
    span."""
    rng = random.Random(spec.q * 10 + spec.c1)

    def step(span, ref, col):
        before = dict(span.basis)
        got = span.add(span.pack(col))
        assert (got == []) == (not ref.add(col))
        assert display(span) == ref.basis
        assert sorted(got) == sorted(p for p, b in span.basis.items() if b is not before.get(p))
        assert not got or got[0] not in before

    shapes = [(rng.randint(1, 6), rng.randint(0, 3)) for _ in range(150)]
    shapes += [(12, 12), (12, 24), (25, 0), (25, 1), (25, 25)]
    for trial, (dim, tail) in enumerate(shapes):
        base_only = trial % 3 == 0  # every column in GF(q)
        span, ref = ColumnSpan(spec, dim, dim + tail), ReferenceSpan(spec, dim)
        adds = rng.randint(1, 2 * dim + 2) if dim < 12 else dim + 2
        for j in range(adds):
            col = [random_entry(rng, spec) for _ in range(dim + tail)]
            if base_only:
                col = [e % spec.q for e in col]
            if j == adds // 2:
                snapshot, ref_snapshot = span.copy(), ReferenceSpan(spec, dim)
                ref_snapshot.basis = dict(ref.basis)
            step(span, ref, col)
        # the copy keeps growing on its own, still equal to the reference
        for _ in range(dim + 1):
            step(snapshot, ref_snapshot, [random_entry(rng, spec) for _ in range(dim + tail)])
    for dim, tail in [(1, 1), (3, 2), (6, 6), (25, 1), (25, 25)]:
        span, ref = ColumnSpan(spec, dim, dim + tail), ReferenceSpan(spec, dim)
        cols, worst = fill_to_bound(rng, spec, dim, tail)
        for col in cols:
            step(span, ref, col)
        assert span.lanes.codes(span._reduce(span.pack(worst))) == ref.reduce(worst)
        step(span, ref, worst)


def reference_units(ref):
    """The pivots whose basis column is e_j on the head: a full scan."""
    return {j for j, b in ref.basis.items() if not any(b[:j]) and not any(b[j + 1 : ref.dim])}


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=str)
def test_add_column_stamps_what_a_full_scan_finds(spec):
    """The sweep step checks only the basis columns an add set; the rows it
    stamps must be exactly the undecoded ones that a full scan of the
    reference span finds to be units, on columns with and without tails,
    and on a copy taken midway."""
    rng = random.Random(spec.q * 13 + spec.c1)

    def step(state, ref, col, t):
        span, times = state
        before = dict(times)
        _add_column(span, span.pack(col), t, times)
        ref.add(col)
        new = times.keys() - before.keys()
        assert new == reference_units(ref) - before.keys()
        assert all(times[j] == t for j in new)
        assert {j: times[j] for j in before} == before

    for trial in range(150):
        dim, tail = rng.randint(1, 6), rng.choice([0, 0, 1, 3])
        state = (ColumnSpan(spec, dim, dim + tail), {})
        ref = ReferenceSpan(spec, dim)
        adds = rng.randint(1, 2 * dim + 2)
        for t in range(adds):
            col = [random_entry(rng, spec) for _ in range(dim + tail)]
            if trial % 3 == 0:
                col = [e % spec.q for e in col]
            if t == adds // 2:
                copied = (state[0].copy(), dict(state[1]))
                ref_copy = ReferenceSpan(spec, dim)
                ref_copy.basis = dict(ref.basis)
            step(state, ref, col, t)
        for t in range(adds, adds + dim + 1):  # the copy grows on its own
            step(copied, ref_copy, [random_entry(rng, spec) for _ in range(dim + tail)], t)


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=str)
def test_vec_mul_matches_pair_oracle(spec):
    """The encoding kernel against longhand pair arithmetic: vec . M = M^T . vec."""
    rng = random.Random(spec.q * 100 + spec.c1)
    for _ in range(200):
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.randrange(spec.order) for _ in range(c)] for _ in range(r)]
        rows[rng.randrange(r)] = [0] * c
        vec = [rng.randrange(spec.order) for _ in range(r)]
        vec[rng.randrange(r)] = 0
        m = Matrix.from_rows(spec, rows)
        assert "packed_rows" not in vars(m)  # built on first use only
        transpose = [list(col) for col in zip(*codes_to_pairs(m))]
        want = mat_vec(transpose, code_pairs(vec, spec.q), spec.q, spec.c1, spec.c0)
        assert m.vec_mul(vec) == [spec.code(lo, hi) for lo, hi in want]
        # any int symbol, negative or past q^2, is reduced mod q^2 first
        assert m.vec_mul([v + rng.randint(-3, 3) * spec.order for v in vec]) == m.vec_mul(vec)


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=str)
def test_vec_mul_at_worst_case_packing_width(spec):
    """Every symbol q^2-1 (a0 = a1 = q-1) times a matrix whose entries all
    lie outside GF(q), so that every lane sums every row; with the
    worst_case_entry matrix each coordinate of 1 reaches exactly the
    2*rows*(q-1)^2 that the lanes of dim `rows` are sized for."""
    rng = random.Random(spec.q)
    top, worst = spec.order - 1, worst_case_entry(spec.q, spec.c1, spec.c0)
    for r, c in [(1, 1), (2, 3), (5, 4), (9, 7)]:
        for entry in (lambda: worst, lambda: rng.randrange(spec.q, spec.order)):
            m = Matrix.from_rows(spec, [[entry() for _ in range(c)] for _ in range(r)])
            lanes = linalg._lanes(spec.q, c, r)  # the lanes of m.packed_rows
            a = ((lanes.offset & lanes.mask) + spec.q - 1).bit_length()
            assert 2 * r * (spec.q - 1) ** 2 < 2**a  # the largest lane sum, within _Lanes.mod's range
            transpose = [list(col) for col in zip(*codes_to_pairs(m))]
            want = mat_vec(transpose, code_pairs([top] * r, spec.q), spec.q, spec.c1, spec.c0)
            assert m.vec_mul([top] * r) == [spec.code(lo, hi) for lo, hi in want]


@pytest.mark.parametrize("bad", [2.5, None, True, False, "3"], ids=repr)
def test_vec_mul_rejects_non_int_symbols(bad):
    m = Matrix.from_rows(GF11, [[1, 12, 3], [0, 120, 6]])
    with pytest.raises(ValueError, match="not an int"):
        m.vec_mul([4, bad])


def test_spec_load_builds_no_packed_rows():
    """codespec.load (timed in the benchmark's setup) leaves the encoding
    kernel to the first encode."""
    code = codespec.load(STREAM_SPEC)
    assert "packed_rows" not in vars(code.G)
    code.encode([0] * code.params.k_v, [0] * code.params.k_u)
    assert "packed_rows" in vars(code.G)


def test_spec_load_builds_no_packed_cols():
    """codespec.load leaves G's packed columns to the first walk or
    decode, which caches them on G for every later one."""
    code = codespec.load(STREAM_SPEC)
    assert "packed_cols" not in vars(code.G)
    verify_achievable(code)
    cols = vars(code.G)["packed_cols"]
    span = ColumnSpan(code.field, code.G.rows)
    assert cols == tuple(span.pack(code.G.col(j)) for j in range(code.G.cols))


@pytest.mark.parametrize("dim", range(1, 31))
def test_one_more_lane_keeps_width_and_offset(dim):
    """decode_message's tagged sweep puts G's packed columns, laid out for
    dim lanes, in a span of dim + cols lanes, and the reference decoder in
    one of dim + 1: every such layout has the lane width and per-lane
    offset of dim lanes, at every field size of the draw schedule."""
    for q in [*sorted(set(field_sizes(2, MAX_ATTEMPTS))), 2**61 - 1]:
        short = linalg._lanes(q, dim, dim)
        for extra in (1, dim, 3 * dim):
            long = linalg._lanes(q, dim + extra, dim)
            assert long.width == short.width, (q, extra)
            assert long.offset & long.mask == short.offset & short.mask, (q, extra)
            assert long.head == short.head, (q, extra)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, None], ids=repr)
def test_matrix_rejects_entries_that_are_not_ints(bad):
    """A float or None entry would fail deep in the packed kernels, and a
    float or bool would be dumped as a JSON float or true: rejected when
    the matrix is made, as codespec.load rejects them in a spec file."""
    with pytest.raises(ValueError, match=f"matrix entry is not an int: {bad!r}"):
        Matrix.from_rows(GF5, [[1, bad, 3], [0, 1, 2]])
    with pytest.raises(ValueError, match="not an int"):
        Matrix(2, 3, GF5, (1, 2, 3, 0, 1, bad))


def test_matrix_rejects_ragged_rows_and_wrong_vector_length():
    with pytest.raises(ValueError, match="ragged rows"):
        Matrix.from_rows(GF11, [[1, 2, 3], [4, 5]])
    m = Matrix.from_rows(GF11, [[1, 12, 3], [0, 120, 6]])
    for vec in ([4], [4, 5, 6]):
        with pytest.raises(ValueError, match="vector length must equal row count"):
            m.vec_mul(vec)


def test_matrix_dump_round_trip():
    m = Matrix.from_rows(GF11, [[1, 12, 3], [0, 120, 6]])
    d = m.to_dump()
    assert d["q"] == 11 and d["rows"] == 2 and d["cols"] == 3
    assert Matrix(d["rows"], d["cols"], FieldSpec(d["q"], *d["ext_poly"]), tuple(d["entries"])) == m


def test_determinant_oracle_self_check():
    # permutation expansion agrees with the textbook 2x2 formula
    rows = [[(3, 0), (4, 0)], [(1, 0), (2, 0)]]
    assert det_bruteforce(rows, 11, 0, 9) == ((3 * 2 - 4 * 1) % 11, 0)
