"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines; every tolerance and runtime budget is asserted in place.
"""

import itertools
import random
import time
from fractions import Fraction

from muxfec.analysis import (
    fmt_decimal,
    gain_table,
    mux_sum_rate,
    rate_report,
    separate_sum_rate,
)
from muxfec.channel import ChannelModel, ErasurePattern, random_erasure_sequence
from muxfec.decoder import check_pattern, mux_deadlines, verify_matrix
from muxfec.galois import field_spec
from muxfec.linalg import is_mds
from muxfec.muxcode import (
    assemble_merged_matrix,
    build_mux_code,
    select_parameters,
)
from muxfec.singlecode import BASE_SPECIAL, EXTENSION_SPECIAL, build_single_code
from muxfec.stream import simulate_stream

from oracles import (
    case_m_small_bound,
    check_merge_bounds,
    codes_to_pairs,
    is_mds_bruteforce,
    is_mds_laplace,
    rank_bruteforce,
)

SEED = 0


def report(num, text, elapsed=None):
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"[PASS] criterion {num}: {text}{suffix}")


def test_criterion_1_example_reproduction():
    t0 = time.time()
    params = select_parameters(12, 6, 4, 2)
    code = build_mux_code(params, seed=SEED)
    assert params.n == 14
    assert params.k_v == 5 and params.k_u == 5
    assert code.sum_rate == Fraction(10, 14)
    disp = rate_report(12, 6, 4, 2)
    assert disp["mux_sum_rate"] == "0.7143"
    assert disp["separate_sum_rate"] == "0.6444"
    assert disp["gain_percent"] == "10.9"
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, "build (12,6,4,2): n=14, k_v=k_u=5, rate 10/14 -> 0.7143, sep 0.6444, gain 10.9%", elapsed)


def test_criterion_2_exhaustive_achievability(example_code):
    t0 = time.time()
    result = verify_matrix(example_code.G, example_code.symbol_deadlines(), ChannelModel(13, 4, 2))
    elapsed = time.time() - t0
    assert result.passed
    assert result.counterexample is None
    assert elapsed < 10.0
    report(2, f"(12,6,4,2) achievable for W=13: {result.patterns_checked} admissible patterns, zero misses", elapsed)


def test_criterion_3_random_dominant_regime():
    t0 = time.time()
    params = select_parameters(12, 6, 4, 3)
    code = build_mux_code(params, seed=SEED)
    assert params.n == 13
    assert code.sum_rate == Fraction(9, 13)
    result = verify_matrix(code.G, code.symbol_deadlines(), code.verification_channel())
    elapsed = time.time() - t0
    assert result.passed
    assert elapsed < 10.0
    report(3, f"(12,6,4,3): n=13, rate 9/13, achievable ({result.patterns_checked} patterns)", elapsed)


def test_criterion_4_decode_time_anchors(example_code):
    g, deadlines = example_code.G, example_code.symbol_deadlines()
    burst = check_pattern(g, ErasurePattern(14, (0, 1, 2, 3)), deadlines)
    rand = check_pattern(g, ErasurePattern(14, (0, 5)), deadlines)
    assert burst.result_for("u", 0).decode_time == 11
    assert rand.result_for("u", 0).decode_time == 11
    for rep in (burst, rand):
        for i in range(example_code.params.k_v):
            t = rep.result_for("v", i).decode_time
            assert t is not None and t <= i + 12
    report(4, "u[0] decodes at slot 11 under burst {0..3} and under {0,5}; v[i] by gen+12")


def test_criterion_5_mds_structure(example_code):
    t0 = time.time()
    g1s = example_code.g1.g1_sub()
    g2s = example_code.g1.g2_sub()
    assert is_mds(g1s) and is_mds(g2s)
    assert is_mds(example_code.g2.g1_sub()) and is_mds(example_code.g2.g2_sub())
    left = example_code.left_mds_sub()
    assert (left.rows, left.cols) == (10, 11)
    assert is_mds(left)  # all C(11,10) = 11 maximal minors nonzero
    f = example_code.field
    assert is_mds_laplace(codes_to_pairs(left), f.q, f.c1, f.c0)
    elapsed = time.time() - t0
    report(5, "constituent MDS sub-blocks true; left 10x11 submatrix MDS (11/11 minors nonzero)", elapsed)


def test_criterion_6_gain_table_reproduction():
    t0 = time.time()
    published = {
        (20, 10): 12.55,
        (21, 10): 12.60, (21, 11): 11.95,
        (22, 10): 12.56, (22, 11): 12.08, (22, 12): 11.31,
        (23, 10): 12.46, (23, 11): 12.11, (23, 12): 11.50, (23, 13): 10.67,
        (24, 10): 12.31, (24, 11): 12.08, (24, 12): 11.60, (24, 13): 10.90, (24, 14): 10.04,
        (25, 10): 12.14, (25, 11): 12.00, (25, 12): 11.62, (25, 13): 11.05, (25, 14): 10.31,
        (25, 15): 9.44,
    }
    table = gain_table(9, 3, range(20, 26), range(10, 16))
    populated = [c for c in table.cells if c.gain_percent is not None]
    assert len(populated) == len(published) == 21
    for (tv, tu), want in published.items():
        got = float(table.cell(tv, tu).printed())
        assert abs(got - want) <= 0.01 + 1e-12, f"cell ({tv},{tu}): {got} vs {want}"
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(6, "all 21 populated gain cells within 0.01 of the published table (incl. 12.55/12.60/10.90/9.44)", elapsed)


def test_criterion_7_bound_strictness_sweep():
    t0 = time.time()
    checked = 0
    for tv in range(1, 41):
        for b in range(2, 11):
            for n in range(1, b):
                if tv >= 2 * b + 2:
                    assert case_m_small_bound(tv, b, n) < mux_sum_rate(tv, b, n)
                for tu in range(b + 1, tv - b):
                    assert separate_sum_rate(tv, tu, b, n) < mux_sum_rate(tv, b, n)
                    checked += 1
    elapsed = time.time() - t0
    assert checked > 1000
    assert elapsed < 10.0
    report(7, f"separate < merged and short-merge bound < merged over {checked} valid parameter sets", elapsed)


def _overreach_fails(T_v, T_u, B, N, seed):
    """Assemble a merged matrix whose parameters exceed the merge bound by one
    and return the verifier's counterexample (None if it unexpectedly passed)."""
    legal = select_parameters(T_v, T_u, B, N)
    k_v = legal.k_v + 1
    T_v_prime = k_v + N - 1
    g1 = g2 = None
    for q in (31, 61, 127, 251, 509):
        try:
            g1 = build_single_code(T_v_prime, B, N, BASE_SPECIAL, seed=seed, q=q, max_tries=24)
            g2 = build_single_code(legal.T_u_prime, B, N, EXTENSION_SPECIAL, seed=seed + 1, q=q, max_tries=24)
            break
        except RuntimeError:
            continue
    assert g1 is not None and g2 is not None
    merged = assemble_merged_matrix(g1.G, g2.G, B)
    h = k_v + B - B
    n = k_v + legal.k_u + B
    deadlines = mux_deadlines(k_v, legal.k_u, h, n, T_v, T_u)
    result = verify_matrix(merged, deadlines, ChannelModel(T_v + 1, B, N))
    return None if result.passed else result


def test_criterion_8_converse_falsification():
    t0 = time.time()
    cases = []
    # burst-dominant overreach: T_v' + T_u' = T_v + 1 at m = B
    for (tv, tu, b, n) in [(12, 6, 4, 2), (14, 7, 5, 2)]:
        bc = check_merge_bounds(tv, tv - tu + 1, tu, b, b, n)
        assert not bc.allowed and f"{tv + 1} >" in bc.reason
        result = _overreach_fails(tv, tu, b, n, seed=17)
        assert result is not None, f"overreached ({tv},{tu},{b},{n}) unexpectedly verified"
        cases.append(((tv, tu, b, n), list(result.counterexample.erased)))
    # random-dominant overreach: T_v' + B - N + k_u = T_v + 1
    tv, tu, b, n = 12, 6, 4, 3
    legal = select_parameters(tv, tu, b, n)
    over_tvp = legal.k_v + 1 + n - 1
    bc = check_merge_bounds(tv, over_tvp, tu, b, b, n)
    assert not bc.allowed
    result = _overreach_fails(tv, tu, b, n, seed=29)
    assert result is not None
    cases.append(((tv, tu, b, n), list(result.counterexample.erased)))
    # m > B: any length-B burst leaves fewer columns than message symbols
    code = build_mux_code(select_parameters(12, 6, 4, 2), seed=SEED)
    m = 5
    merged = assemble_merged_matrix(code.g1.G, code.g2.G, m)
    h = 5 + 4 - m
    deadlines = mux_deadlines(5, 5, h, merged.cols, 12, 6)
    result = verify_matrix(merged, deadlines, ChannelModel(13, 4, 2))
    assert not result.passed
    cases.append((("m=B+1", 12, 6, 4, 2), list(result.counterexample.erased)))
    elapsed = time.time() - t0
    report(8, f"{len(cases)} over-bound merges all fail verification, e.g. counterexamples {cases[0][1]}, {cases[-1][1]}", elapsed)


def test_criterion_9_streaming_lift(example_code):
    t0 = time.time()
    ch = example_code.verification_channel()
    seq = random_erasure_sequence(10_000, ch, seed=SEED)
    rep = simulate_stream(example_code, seq)
    assert rep.passed and rep.diagonals_checked == 10_000 - 14 + 1
    rng = random.Random(SEED)
    for _ in range(5):
        start = rng.randrange(0, 10_000 - 4)
        planted = ErasurePattern(10_000, tuple(range(start, start + 4)))
        assert simulate_stream(example_code, planted).passed
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(9, f"10k-slot random run ({len(seq.erased)} erasures) and 5 planted bursts: zero violations", elapsed)


def test_criterion_10_oracle_suites(example_code):
    t0 = time.time()
    # field axioms, exhaustively for q in {5, 11}
    for q in (5, 11):
        spec = field_spec(q)
        add, mul = spec.add, spec.mul
        for a, b, c in itertools.product(range(q), repeat=3):
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        for a in range(spec.order):
            assert mul(a, 1) == a
            if a:
                assert mul(a, spec.inv(a)) == 1
        for a, b in itertools.product(range(40), repeat=2):
            assert mul(a, b) == mul(b, a)

    # rank / is_mds vs brute-force minor oracles on >= 1000 random matrices
    from muxfec.linalg import ColumnSpan, Matrix, is_mds as lib_is_mds

    spec = field_spec(5)
    rng = random.Random(123)
    n_rank = 0
    for _ in range(1000):
        r, c = rng.randint(1, 4), rng.randint(1, 5)
        m = Matrix(r, c, spec, tuple(rng.randrange(spec.q) for _ in range(r * c)))
        span = ColumnSpan(spec, r)
        for j in range(c):
            span.add(span.pack(m.col(j)))
        assert len(span.basis) == rank_bruteforce(codes_to_pairs(m), spec.q, spec.c1, spec.c0)
        n_rank += 1
    n_mds = 0
    for _ in range(200):
        r = rng.randint(1, 3)
        c = rng.randint(r, 5)
        m = Matrix(r, c, spec, tuple(rng.randrange(spec.q) for _ in range(r * c)))
        assert lib_is_mds(m) == is_mds_bruteforce(codes_to_pairs(m), spec.q, spec.c1, spec.c0)
        n_mds += 1

    # decoder round trip on >= 100 random messages per pattern family
    from muxfec.channel import apply_erasure
    from muxfec.decoder import decode_message

    g = example_code.G
    deadlines = example_code.symbol_deadlines()
    families = {
        "bursts": [ErasurePattern(14, tuple(range(s, s + 4))) for s in (0, 4, 8, 10)],
        "random": [ErasurePattern(14, (0, 5)), ErasurePattern(14, (2, 9)),
                   ErasurePattern(14, (0, 6, 13)), ErasurePattern(14)],
    }
    rng = random.Random(7)
    per_family = 0
    for name, pats in families.items():
        per_family = 0
        for p in pats:
            for _ in range(30):
                v = [rng.randrange(example_code.field.q) for _ in range(5)]
                u = [rng.randrange(example_code.field.q) for _ in range(5)]
                word = example_code.encode(v, u)
                rep = decode_message(g, apply_erasure(word, p), p, deadlines)
                assert rep.passed
                assert [s.value for s in rep.symbols] == v + u
                per_family += 1
        assert per_family >= 100
    elapsed = time.time() - t0
    report(10, f"field axioms q in {{5,11}}; {n_rank} rank + {n_mds} MDS oracle matches; round trips per family >= 100", elapsed)
