import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from muxfec import codespec, muxcode
from muxfec.decoder import verify_achievable
from muxfec.galois import field_spec
from muxfec.linalg import is_mds
from muxfec.muxcode import (
    BURST_DOMINANT,
    RANDOM_DOMINANT,
    assemble_merged_matrix,
    build_mux_code,
    select_parameters,
)
from muxfec.singlecode import BASE_SPECIAL, EXTENSION_SPECIAL, build_single_code

from oracles import check_merge_bounds, merge_codewords

STREAM_SPEC = Path(__file__).resolve().parents[1] / "perfbench/specs/stream_20_10_6_2.json"


def test_select_parameters_example():
    p = select_parameters(12, 6, 4, 2)
    assert p.regime == BURST_DOMINANT
    assert (p.k_v, p.k_u, p.n, p.m) == (5, 5, 14, 4)
    assert p.h == 5
    assert p.T_u_prime == 6 and p.T_v_prime == 6
    assert p.W == 13


def test_select_parameters_random_dominant():
    p = select_parameters(12, 6, 4, 3)
    assert p.regime == RANDOM_DOMINANT  # 4 < 2*3-1
    assert (p.k_u, p.k_v, p.n) == (4, 5, 13)


def test_select_parameters_tie_is_burst_dominant():
    """At B = 2N-1 both k_v formulas agree, but the regime decides the
    spec's regime field and whether the left block must be MDS: the tie
    is burst-dominant."""
    p = select_parameters(10, 5, 3, 2)
    assert p.regime == BURST_DOMINANT  # 3 == 2*2-1
    assert (p.k_v, p.k_u, p.n) == (4, 4, 11)
    assert is_mds(build_mux_code(p, seed=0).left_mds_sub())


def test_column_count_identity():
    p = select_parameters(12, 6, 4, 2)
    assert p.n - (p.k_u + p.k_v + 2 * p.B - p.m) == 0


def test_select_parameters_validation():
    with pytest.raises(ValueError):
        select_parameters(10, 6, 4, 2)  # T_v = T_u + B
    with pytest.raises(ValueError):
        select_parameters(12, 4, 4, 2)  # T_u = B
    with pytest.raises(ValueError):
        select_parameters(12, 6, 2, 2)  # B = N
    with pytest.raises(ValueError):
        select_parameters(12, 6, 4, 2, T_u_prime=4)  # T_u' <= B
    with pytest.raises(ValueError):
        select_parameters(12, 6, 4, 2, T_u_prime=7)  # T_u' > T_u


def test_tu_prime_monotonicity():
    base = select_parameters(12, 6, 4, 2)
    for tup in range(5, 7):
        p = select_parameters(12, 6, 4, 2, T_u_prime=tup)
        assert p.k_u == tup - 2 + 1
        assert p.k_u <= base.k_u


def test_merge_concatenation_at_zero():
    f = field_spec(11)
    assert merge_codewords(f, [1, 2, 3], [4, 5], 0) == [1, 2, 3, 4, 5]


def test_merge_example_gf11():
    f = field_spec(11)
    assert merge_codewords(f, [1, 2, 3], [4, 5], 1) == [1, 2, 7, 5]


def test_merge_range_errors():
    f = field_spec(11)
    with pytest.raises(ValueError):
        merge_codewords(f, [1, 2], [3, 4], 3)
    with pytest.raises(ValueError):
        merge_codewords(f, [1, 2], [3, 4], -1)


def test_merge_equals_merged_generator(example_code):
    """[v u] . G == merge(v . G1, u . G2, m) for random messages."""
    p = example_code.params
    f = example_code.field
    rng = random.Random(1)
    for _ in range(100):
        v = [rng.randrange(f.q) for _ in range(p.k_v)]
        u = [rng.randrange(f.q) for _ in range(p.k_u)]
        via_g = example_code.encode(v, u)
        via_merge = merge_codewords(
            f, example_code.g1.encode(v), example_code.g2.encode(u), p.m
        )
        assert via_g == via_merge


def test_merge_linearity():
    f = field_spec(11)
    rng = random.Random(2)
    for _ in range(50):
        xv1 = [rng.randrange(11) for _ in range(6)]
        xv2 = [rng.randrange(11) for _ in range(6)]
        xu = [rng.randrange(11) for _ in range(5)]
        zero_u = [0] * 5
        m = rng.randint(0, 5)
        sum_xv = [f.add(a, b) for a, b in zip(xv1, xv2)]
        lhs = merge_codewords(f, sum_xv, xu, m)
        rhs1 = merge_codewords(f, xv1, xu, m)
        rhs2 = merge_codewords(f, xv2, zero_u, m)
        assert lhs == [f.add(a, b) for a, b in zip(rhs1, rhs2)]


def test_build_example_rates(example_code):
    p = example_code.params
    assert p.sum_rate == Fraction(10, 14)
    assert example_code.sum_rate == Fraction(5, 7)


def test_build_example_left_submatrix_mds(example_code):
    sub = example_code.left_mds_sub()
    assert (sub.rows, sub.cols) == (10, 11)
    assert is_mds(sub)


def test_build_example_field_memberships(example_code):
    f = example_code.field
    assert all(f.is_base(e) for e in example_code.g1.G.data)
    beta = example_code.g2.G.entry(*example_code.g2.special_pos)
    assert not f.is_base(beta)


def test_build_random_dominant_rate(random_dominant_code):
    assert random_dominant_code.sum_rate == Fraction(9, 13)
    # the random-dominant closed form (T_v - B + 1)/(T_v + 1)
    assert random_dominant_code.sum_rate == Fraction(12 - 4 + 1, 12 + 1)


def test_sum_rate_matches_bound_formula():
    from muxfec.analysis import mux_sum_rate

    for (tv, tu, b, n) in [(12, 6, 4, 2), (12, 6, 4, 3), (14, 7, 5, 2), (16, 7, 5, 4)]:
        p = select_parameters(tv, tu, b, n)
        assert p.sum_rate == mux_sum_rate(tv, b, n)


def test_build_deterministic(example_code):
    again = build_mux_code_cached()
    assert again.G == example_code.G
    assert again.field == example_code.field
    # pinned spec bytes for (12,6,4,2) at seed 0
    digest = hashlib.sha256(codespec.dumps(example_code).encode()).hexdigest()
    assert digest == "a6941654653876bf6a2aa5eef7e96b43bcbba085a18321e3964d62baff73e1f4"


def test_build_pins_bytes_where_is_mds_rejects_draws(random_dominant_code):
    """Seed -> bytes at points whose search discards draws on is_mds verdicts."""
    digest = hashlib.sha256(codespec.dumps(random_dominant_code).encode()).hexdigest()
    assert digest == "bc1f08d4c267ec8eb39459b27057549b0b9b001d25551645cf32e00c1e30ffc2"
    rebuilt = build_mux_code(select_parameters(20, 10, 6, 2), seed=0)
    assert codespec.dumps(rebuilt) == STREAM_SPEC.read_text(encoding="utf-8")


def build_mux_code_cached():
    from muxfec.muxcode import build_mux_code, select_parameters

    return build_mux_code(select_parameters(12, 6, 4, 2), seed=0)


@pytest.mark.parametrize("name", ["example_code", "random_dominant_code"])
def test_spec_round_trip_keeps_constituents(request, tmp_path, name):
    code = request.getfixturevalue(name)
    path = tmp_path / "code.json"
    codespec.save(code, path)
    loaded = codespec.load(path)
    assert loaded == code
    assert (loaded.g1, loaded.g2) == (code.g1, code.g2)
    assert assemble_merged_matrix(code.g1.G, code.g2.G, code.params.m) == code.G
    # the constituents read off G are the ones the builder drew from their seeds
    p, q = code.params, code.field.q
    assert code.g1 == build_single_code(
        p.T_v_prime, p.B, p.N, BASE_SPECIAL, seed=code.g1_seed, q=q, max_tries=16
    )
    assert code.g2 == build_single_code(
        p.T_u_prime, p.B, p.N, EXTENSION_SPECIAL, seed=code.g2_seed, q=q, max_tries=16
    )
    assert verify_achievable(code.g1).passed and verify_achievable(code.g2).passed


def test_assemble_layout():
    f = field_spec(11)
    from muxfec.linalg import Matrix

    g1 = Matrix.from_rows(f, [[1, 2, 3, 4]])
    g2 = Matrix.from_rows(f, [[5, 6, 7]])
    merged = assemble_merged_matrix(g1, g2, 2)
    # h = 4 - 2 = 2; n = 2 + 3 = 5
    assert [merged.row(i) for i in range(merged.rows)] == [[1, 2, 3, 4, 0], [0, 0, 5, 6, 7]]
    with pytest.raises(ValueError):
        assemble_merged_matrix(g1, Matrix.from_rows(field_spec(7), [[1, 2, 3]]), 1)
    for m in (-1, 4):  # the overlap must fit in the shorter constituent, 3 columns
        with pytest.raises(ValueError, match=f"merge length {m} out of range"):
            assemble_merged_matrix(g1, g2, m)


def test_encode_rejects_wrong_message_lengths(example_code):
    for v, u in (([1] * 4, [1] * 5), ([1] * 5, [1] * 6), ([], [])):
        with pytest.raises(ValueError, match=r"message lengths must be \(k_v, k_u\)"):
            example_code.encode(v, u)


def test_check_merge_bounds_examples():
    ok = check_merge_bounds(12, 6, 6, 4, 4, 2)
    assert ok.allowed and ok.rule == "burst-dominant"
    bad = check_merge_bounds(12, 7, 6, 4, 4, 2)
    assert not bad.allowed and "13 > " in bad.reason
    over = check_merge_bounds(12, 6, 6, 5, 4, 2)
    assert not over.allowed and over.rule == "merge-length"


def test_check_merge_bounds_short_merge():
    # m <= N-1 branch: T_v' + T_u' - N + m <= T_v
    allowed = check_merge_bounds(12, 6, 6, 1, 4, 3)
    assert allowed.rule == "short-merge"
    assert allowed.allowed == (6 + 6 - 3 + 1 <= 12)
    denied = check_merge_bounds(12, 9, 6, 1, 4, 3)
    assert not denied.allowed  # 9 + 6 - 3 + 1 = 13 > 12


def test_check_merge_bounds_random_branch():
    # B < 2N-1, m in [N, B]: T_v' + B - N + k_u <= T_v with k_u = T_u'-N+1
    res = check_merge_bounds(12, 8, 6, 4, 4, 3)
    assert res.rule == "random-dominant"
    assert res.allowed == (8 + 4 - 3 + 4 <= 12)
    worse = check_merge_bounds(12, 9, 6, 4, 4, 3)
    assert not worse.allowed


def test_check_merge_bounds_m_validation():
    with pytest.raises(ValueError):
        check_merge_bounds(12, 6, 6, 0, 4, 2)


@given(
    tv=st.integers(11, 30),
    tu=st.integers(4, 12),
    b=st.integers(2, 6),
    n=st.integers(1, 5),
    delta=st.integers(0, 3),
)
@settings(max_examples=200, deadline=None)
def test_tu_prime_never_increases_ku(tv, tu, b, n, delta):
    if not (n < b < tu and tu + b < tv):
        return
    tu_prime = tu - delta
    if tu_prime <= b:
        return
    p_small = select_parameters(tv, tu, b, n, T_u_prime=tu_prime)
    p_full = select_parameters(tv, tu, b, n)
    assert p_small.k_u <= p_full.k_u


def test_build_exhaustion_reports_failure(monkeypatch):
    # an unbuildable setup: single attempt at the smallest field
    monkeypatch.setattr(muxcode, "MAX_ATTEMPTS", 1)
    p = select_parameters(12, 6, 4, 3)
    with pytest.raises(RuntimeError, match="last failure"):
        build_mux_code(p, seed=1)


def test_merge_identity_random_dominant(random_dominant_code):
    p = random_dominant_code.params
    f = random_dominant_code.field
    rng = random.Random(6)
    for _ in range(100):
        v = [rng.randrange(f.q) for _ in range(p.k_v)]
        u = [rng.randrange(f.q) for _ in range(p.k_u)]
        assert random_dominant_code.encode(v, u) == merge_codewords(
            f, random_dominant_code.g1.encode(v), random_dominant_code.g2.encode(u), p.m
        )


def test_build_second_burst_geometry():
    # a different burst-dominant shape: (T_v, T_u, B, N) = (14, 7, 5, 2)
    p = select_parameters(14, 7, 5, 2)
    assert (p.k_v, p.k_u, p.n) == (6, 6, 17)
    code = build_mux_code(p, seed=0)
    from muxfec.decoder import verify_achievable

    assert verify_achievable(code).passed
    left = code.left_mds_sub()
    assert (left.rows, left.cols) == (12, 13)
    assert is_mds(left)


def test_left_mds_check_gates_only_the_burst_regime(monkeypatch, random_dominant_code):
    """With every left block refused, a burst-dominant build runs out on
    the left-MDS check, and a random-dominant one, which has no such
    check, builds the same bytes."""
    monkeypatch.setattr(muxcode, "is_mds", lambda g: False)
    with pytest.raises(RuntimeError, match="last failure: left submatrix MDS check failed"):
        build_mux_code(select_parameters(12, 6, 4, 2), seed=0)
    rebuilt = build_mux_code(random_dominant_code.params, seed=random_dominant_code.seed)
    assert codespec.dumps(rebuilt) == codespec.dumps(random_dominant_code)


def test_spec_without_constituent_seeds_takes_the_master_seed(tmp_path):
    """A spec with no g1_seed or g2_seed loads with both set to its seed."""
    d = json.loads(STREAM_SPEC.read_text(encoding="utf-8"))
    del d["g1_seed"], d["g2_seed"]
    d["seed"] = 5
    path = tmp_path / "no_constituent_seeds.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    code = codespec.load(path)
    assert (code.seed, code.g1_seed, code.g2_seed) == (5, 5, 5)
