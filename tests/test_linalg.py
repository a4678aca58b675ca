import random

import pytest

from muxfec.galois import FieldSpec, field_spec
from muxfec.linalg import ColumnSpan, Matrix, is_mds, rank

from oracles import (
    code_pairs,
    codes_to_pairs,
    det_bruteforce,
    is_mds_bruteforce,
    mat_vec,
    rank_bruteforce,
    unit_in_span_bruteforce,
)

GF11 = field_spec(11)
GF5 = field_spec(5)


def vandermonde(field, rows, nodes):
    return Matrix.from_rows(
        field, [[pow(x, i, field.q) for x in nodes] for i in range(rows)]
    )


def unit(dim, j):
    return [1 if i == j else 0 for i in range(dim)]


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
    span = ColumnSpan(m.field, m.rows)
    for t in range(m.cols):
        span.add(m.col(t) + unit(m.cols, t))
    if not span.contains_unit(j):
        return None
    return span.basis[j][m.rows :]


def test_rank_identity():
    assert rank(Matrix.identity(GF11, 3)) == 3


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
    h = solve_for_unit(Matrix.identity(GF11, 3), 1)
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
    assert is_mds(Matrix.identity(GF11, 3)) is True
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
    import itertools

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


def test_rank_with_extension_entries():
    spec = field_spec(5)
    rng = random.Random(4)
    for _ in range(300):
        r = rng.randint(1, 4)
        c = rng.randint(1, 5)
        m = Matrix(r, c, spec, tuple(rng.randrange(spec.order) for _ in range(r * c)))
        assert rank(m) == rank_bruteforce(codes_to_pairs(m), spec.q, spec.c1, spec.c0)


def test_column_span_tracks_rank():
    rng = random.Random(11)
    for _ in range(100):
        r = rng.randint(1, 5)
        c = rng.randint(1, 8)
        m = Matrix(r, c, GF5, tuple(rng.randrange(25) for _ in range(r * c)))
        pairs = codes_to_pairs(m)
        span = ColumnSpan(GF5, r)
        for j in range(c):
            if j == c // 2:  # the verifier's walk relies on add never mutating a basis column
                snapshot = span.copy()
                frozen = {p: list(b) for p, b in snapshot.basis.items()}
            span.add(m.col(j))
        assert snapshot.basis == frozen
        assert span.dimension == rank_bruteforce(pairs, GF5.q, GF5.c1, GF5.c0)
        for j in range(r):
            want = unit_in_span_bruteforce(pairs, j, GF5.q, GF5.c1, GF5.c0)
            assert span.contains_unit(j) == want


@pytest.mark.parametrize("spec", [FieldSpec(5, 1, 2), FieldSpec(2, 1, 1), FieldSpec(7, 3, 5),
                                  GF11], ids=str)
def test_vec_mul_matches_pair_oracle(spec):
    """The encoding kernel against longhand pair arithmetic: vec . M = M^T . vec.

    c1 != 0 exercises the x-term of x^2 = -c1*x - c0, which the default
    fields of odd q (c1 = 0) never do.
    """
    rng = random.Random(spec.q * 100 + spec.c1)
    for _ in range(200):
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.randrange(spec.order) for _ in range(c)] for _ in range(r)]
        rows[rng.randrange(r)] = [0] * c
        vec = [rng.randrange(spec.order) for _ in range(r)]
        vec[rng.randrange(r)] = 0
        m = Matrix.from_rows(spec, rows)
        assert "_row_maps" not in vars(m)  # built on first use only
        transpose = [list(col) for col in zip(*codes_to_pairs(m))]
        want = mat_vec(transpose, code_pairs(vec, spec.q), spec.q, spec.c1, spec.c0)
        assert m.vec_mul(vec) == [spec.code(lo, hi) for lo, hi in want]


def test_matrix_dump_round_trip():
    m = Matrix.from_rows(GF11, [[1, 12, 3], [0, 120, 6]])
    d = m.to_dump()
    assert d["q"] == 11 and d["rows"] == 2 and d["cols"] == 3
    assert Matrix.from_dump(d) == m


def test_determinant_oracle_self_check():
    # permutation expansion agrees with the textbook 2x2 formula
    rows = [[(3, 0), (4, 0)], [(1, 0), (2, 0)]]
    assert det_bruteforce(rows, 11, 0, 9) == ((3 * 2 - 4 * 1) % 11, 0)
