import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from muxfec.channel import ChannelModel
from muxfec.decoder import verify_achievable
from muxfec.galois import FieldSpec, field_spec
from muxfec.linalg import Matrix, is_mds
from muxfec.singlecode import (
    BASE_SPECIAL,
    EXTENSION_SPECIAL,
    _draw_matrix,
    build_single_code,
    special_position,
    verify_single_structure,
)

from oracles import codes_to_pairs, is_mds_bruteforce


@pytest.fixture(scope="module")
def code_956():
    # (T=6, B=4, N=2) -> the (9, 5, 6) building block
    return build_single_code(6, 4, 2, EXTENSION_SPECIAL, seed=0)


def test_dimensions_example(code_956):
    assert (code_956.k, code_956.n) == (5, 9)
    assert code_956.rate == Fraction(5, 9)


def test_dimensions_trivial():
    code = build_single_code(2, 2, 1, seed=1)
    assert (code.k, code.n) == (2, 4)


def test_rate_equals_capacity(code_956):
    from muxfec.analysis import capacity

    assert code_956.rate == capacity(6, 4, 2)


def test_achievable_with_window_seven(code_956):
    # the (9,5,6) code survives every admissible pattern under (7, 4, 2)
    result = verify_achievable(code_956, ChannelModel(7, 4, 2))
    assert result.passed


def test_structure_report_all_true(code_956):
    report = verify_single_structure(code_956)
    assert report.passed
    assert dataclasses.asdict(report) == {
        "g1_mds": True,
        "g2_mds": True,
        "special_field_ok": True,
    }


def test_g2_sub_is_6_2_mds(code_956):
    sub = code_956.g2_sub()
    assert (sub.rows, sub.cols) == (2, 6)
    assert is_mds(sub)
    f = code_956.field
    assert is_mds_bruteforce(codes_to_pairs(sub), f.q, f.c1, f.c0)


def test_g1_sub_is_mds_bruteforce(code_956):
    sub = code_956.g1_sub()
    assert (sub.rows, sub.cols) == (5, 6)
    f = code_956.field
    assert is_mds_bruteforce(codes_to_pairs(sub), f.q, f.c1, f.c0)


def test_zeroed_column_fails_g1_flag(code_956):
    g = code_956.G
    rows = [g.row(i) for i in range(g.rows)]
    for i in range(g.rows):
        rows[i][2] = 0  # a column inside the upper-left MDS block
    broken = dataclasses.replace(code_956, G=Matrix.from_rows(g.field, rows))
    report = verify_single_structure(broken)
    assert report.g1_mds is False
    assert report.passed is False


def test_variant_controls_special_membership():
    ext = build_single_code(6, 4, 2, EXTENSION_SPECIAL, seed=3)
    base = build_single_code(6, 4, 2, BASE_SPECIAL, seed=3)
    assert not ext.field.is_base(ext.G.entry(*ext.special_pos))
    assert base.field.is_base(base.G.entry(*base.special_pos))
    # base variant keeps the whole matrix inside GF(q)
    assert all(base.field.is_base(e) for e in base.G.data)


def test_special_entry_in_the_wrong_field_fails_its_flag(code_956):
    """The special entry must lie outside GF(q) under the extension variant
    and be a nonzero element of GF(q) under the base variant."""
    r, c = code_956.special_pos
    for variant, wrong in ((EXTENSION_SPECIAL, 1), (BASE_SPECIAL, 0)):
        rows = [code_956.G.row(i) for i in range(code_956.G.rows)]
        rows[r][c] = wrong
        broken = dataclasses.replace(code_956, G=Matrix.from_rows(code_956.field, rows),
                                     variant=variant)
        report = verify_single_structure(broken)
        assert report.special_field_ok is False, variant
        assert report.passed is False


def test_draw_matches_template():
    # the invariants verify_single_structure does not check, entry by entry
    for T, B, N, variant, q, seed in itertools.product(
        range(2, 11), range(2, 11), range(1, 10), (BASE_SPECIAL, EXTENSION_SPECIAL),
        (2, 3, 7, 101), range(3),
    ):
        if not T >= B > N:
            continue
        f = field_spec(q)
        g = _draw_matrix(f, T, B, N, variant, random.Random(seed))
        k, n = T - N + 1, T - N + 1 + B
        assert (g.rows, g.cols) == (k, n)
        special = special_position(T, B, N)
        for i, c in itertools.product(range(k), range(n)):
            e = g.entry(i, c)
            if c <= i:
                assert e == (c == i)
            elif (i, c) == special:
                assert f.is_base(e) == (variant == BASE_SPECIAL) and e != 0
            elif i <= B - N and c >= B and c != i + T:
                assert e == 0  # the gap before, and the zeros after, the rescue entry
            else:
                assert f.is_base(e) and e != 0


def test_special_position_rules():
    assert special_position(6, 4, 2) == (1, 7)   # row N-1, column T+N-1
    assert special_position(6, 4, 3) == (2, 7)   # B < 2N-1: last column
    assert special_position(7, 4, 3) == (2, 8)


def test_unit_triangular_sequential_decode(code_956):
    from oracles import sequential_substitution

    rng = random.Random(0)
    for _ in range(20):
        msg = [rng.randrange(code_956.field.q) for _ in range(code_956.k)]
        word = code_956.encode(msg)
        assert sequential_substitution(code_956.G, word) == msg


def test_deterministic_per_seed():
    a = build_single_code(6, 4, 2, seed=5)
    b = build_single_code(6, 4, 2, seed=5)
    assert a.G == b.G
    c = build_single_code(6, 4, 2, seed=6)
    assert c.G != a.G


def test_parameter_validation():
    with pytest.raises(ValueError):
        build_single_code(3, 4, 2, seed=0)  # T < B
    with pytest.raises(ValueError):
        build_single_code(6, 4, 4, seed=0)  # B = N
    with pytest.raises(ValueError):
        build_single_code(6, 4, 0, seed=0)  # N < 1
    with pytest.raises(ValueError):
        build_single_code(6, 4, 2, variant="bogus", seed=0)


def test_fixed_field_respected():
    code = build_single_code(6, 4, 2, seed=0, q=13)
    assert code.field.q == 13


def test_exhaustion_reports_failing_property():
    # q=5 is far too small for the (9,5,6) structure; the search must fail loudly
    with pytest.raises(RuntimeError, match="last failure: structure check failed: g2_mds$"):
        build_single_code(6, 4, 2, seed=0, q=5, max_tries=4)


def test_random_dominant_single_builds():
    code = build_single_code(7, 4, 3, seed=0)
    assert (code.k, code.n) == (5, 9)
    assert verify_single_structure(code).passed
    assert verify_achievable(code, ChannelModel(8, 4, 3)).passed


def test_spec_dict_round_trips_matrix(code_956):
    d = code_956.G.to_dump()
    field = FieldSpec(d["q"], *d["ext_poly"])
    assert Matrix(d["rows"], d["cols"], field, tuple(d["entries"])) == code_956.G
    rebuilt = build_single_code(
        code_956.T, code_956.B, code_956.N, code_956.variant,
        seed=code_956.seed, q=code_956.field.q,
    )
    assert rebuilt.G == code_956.G
