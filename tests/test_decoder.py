import dataclasses
import random
from pathlib import Path

import pytest

from muxfec import codespec
from muxfec.channel import (
    ERASURE_MARK,
    ChannelModel,
    ErasurePattern,
    apply_erasure,
    enumerate_admissible_patterns,
)
from muxfec.decoder import (
    DECODE_MAPS,
    SymbolDeadline,
    block_deadlines,
    check_pattern,
    decode_message,
    miss_table,
    mux_deadlines,
    verify_achievable,
    verify_matrix,
)
from muxfec.linalg import Matrix
from muxfec.muxcode import build_mux_code, select_parameters
from muxfec.singlecode import build_single_code

from oracles import (
    KERNEL_FIELDS,
    codes_to_pairs,
    reference_decode_message,
    sequential_substitution,
    unit_in_span_bruteforce,
)

STREAM_SPEC = Path(__file__).resolve().parents[1] / "perfbench/specs/stream_20_10_6_2.json"


def decode_time(g, p, j):
    """Row j's earliest decode time under p, None if never, read through check_pattern."""
    return check_pattern(g, p, [SymbolDeadline("s", j, j, 0, g.cols)]).symbols[0].decode_time


@pytest.fixture(scope="module")
def single_code():
    return build_single_code(6, 4, 2, seed=0)


def test_no_erasures_first_symbol_at_zero(single_code):
    p = ErasurePattern(single_code.n)
    assert decode_time(single_code.G, p, 0) == 0


def test_no_erasures_sequential_times(single_code):
    # unit upper-triangular prefix: s[i] decodes exactly at slot i
    p = ErasurePattern(single_code.n)
    for i in range(single_code.k):
        assert decode_time(single_code.G, p, i) == i


def test_example_urgent_anchor_burst(example_code):
    """u[0] becomes decodable exactly at slot 11 after the opening burst."""
    g = example_code.G
    u0 = example_code.params.k_v
    assert decode_time(g, ErasurePattern(14, (0, 1, 2, 3)), u0) == 11


def test_example_urgent_anchor_random(example_code):
    g = example_code.G
    u0 = example_code.params.k_v
    assert decode_time(g, ErasurePattern(14, (0, 5)), u0) == 11


def test_example_burst_chain_times(example_code):
    """The hand decode chain: u[1] by 12, the tail v symbols before u[0]."""
    g = example_code.G
    p = ErasurePattern(14, (0, 1, 2, 3))
    k_v = example_code.params.k_v
    t_u0 = decode_time(g, p, k_v)
    t_u1 = decode_time(g, p, k_v + 1)
    t_v3 = decode_time(g, p, 3)
    t_v4 = decode_time(g, p, 4)
    assert t_u1 is not None and t_u1 <= 12
    assert t_v3 <= 12 and t_v4 <= 12
    assert t_v3 <= t_u0 and t_v4 <= t_u0


def test_every_v_symbol_within_gen_plus_tv(example_code):
    g = example_code.G
    p = ErasurePattern(14, (0, 1, 2, 3))
    for i in range(example_code.params.k_v):
        t = decode_time(g, p, i)
        assert t is not None and t <= i + 12


def test_zero_message_decodes_to_zero(example_code):
    p = ErasurePattern(14, (0, 1, 2, 3))
    word = example_code.encode([0] * 5, [0] * 5)
    received = apply_erasure(word, p)
    report = decode_message(example_code.G, received, p, example_code.symbol_deadlines())
    assert report.passed
    assert all(s.value == 0 for s in report.symbols)


def test_round_trip_empty_pattern_matches_substitution_oracle(single_code):
    rng = random.Random(3)
    p = ErasurePattern(single_code.n)
    for _ in range(100):
        msg = [rng.randrange(single_code.field.q) for _ in range(single_code.k)]
        word = single_code.encode(msg)
        g = single_code.G
        report = decode_message(g, word, p, block_deadlines(g.rows, g.cols, g.cols - 1))
        assert [s.value for s in report.symbols] == msg
        assert sequential_substitution(single_code.G, word) == msg
        # v-prefix decode happens at generation times
        assert [s.decode_time for s in report.symbols] == list(range(single_code.k))


def test_round_trip_all_pattern_families(example_code):
    """Exact value recovery for random messages across burst and random patterns."""
    rng = random.Random(9)
    g = example_code.G
    deadlines = example_code.symbol_deadlines()
    patterns = [ErasurePattern(14, tuple(range(s, s + 4))) for s in range(0, 11, 5)]
    patterns += [ErasurePattern(14, (0, 5)), ErasurePattern(14, (2, 9)), ErasurePattern(14)]
    for p in patterns:
        for _ in range(25):
            v = [rng.randrange(example_code.field.q) for _ in range(5)]
            u = [rng.randrange(example_code.field.q) for _ in range(5)]
            word = example_code.encode(v, u)
            report = decode_message(g, apply_erasure(word, p), p, deadlines)
            assert report.passed
            got_v = [s.value for s in report.symbols if s.kind == "v"]
            got_u = [s.value for s in report.symbols if s.kind == "u"]
            assert got_v == v and got_u == u


def test_received_consistency_checked(example_code):
    g = example_code.G
    word = example_code.encode([1] * 5, [1] * 5)
    with pytest.raises(ValueError):
        decode_message(g, word, ErasurePattern(14, (0,)),
                       block_deadlines(g.rows, g.cols, g.cols - 1))
    for received in (word[:-1], word + [0]):
        with pytest.raises(ValueError, match="received length must equal codeword length"):
            decode_message(g, received, ErasurePattern(14), example_code.symbol_deadlines())


def test_single_pattern_decoders_reject_a_pattern_that_does_not_fit_the_codeword():
    """An erasure past the codeword is an error, not dropped: the pattern's
    horizon must equal the codeword length n = 24."""
    code = codespec.load(STREAM_SPEC)
    g, deadlines = code.G, code.symbol_deadlines()
    word = code.encode([0] * code.params.k_v, [0] * code.params.k_u)
    for p in (ErasurePattern(100, (50, 51)), ErasurePattern(100), ErasurePattern(23, (0,))):
        received = [ERASURE_MARK if t in p else y for t, y in enumerate(word)]
        for decode in (lambda: check_pattern(g, p, deadlines),
                       lambda: decode_message(g, received, p, deadlines)):
            with pytest.raises(ValueError, match=f"horizon {p.horizon} != codeword length 24"):
                decode()
    assert check_pattern(g, ErasurePattern(24, (20, 21)), deadlines).passed


def test_result_for_finds_a_symbol_or_raises(example_code):
    report = check_pattern(example_code.G, ErasurePattern(14, (0, 1, 2, 3)),
                           example_code.symbol_deadlines())
    got = report.result_for("u", 0)
    assert (got.kind, got.index) == ("u", 0) and got in report.symbols
    with pytest.raises(KeyError, match=r"no symbol u\[5\]"):
        report.result_for("u", 5)
    with pytest.raises(KeyError, match=r"no symbol s\[0\]"):
        report.result_for("s", 0)


def test_decode_rejects_received_symbols_outside_the_field(example_code):
    """A non-erased entry must be an int display code in [0, q^2); a bool is not an int."""
    g = example_code.G
    p = ErasurePattern(14, (0, 1))
    word = apply_erasure(example_code.encode([1] * 5, [2] * 5), p)
    for bad in (-1, example_code.field.order, 2.5, True, None, "x"):
        received = list(word)
        received[5] = bad
        with pytest.raises(ValueError, match="slot 5 is not a display code"):
            decode_message(g, received, p, example_code.symbol_deadlines())


def test_decode_monotonic_in_erasures(example_code):
    """Removing an erasure never delays any symbol."""
    rng = random.Random(17)
    g = example_code.G
    for _ in range(40):
        erased = tuple(sorted(rng.sample(range(14), rng.randint(1, 4))))
        p = ErasurePattern(14, erased)
        drop = rng.randrange(len(erased))
        smaller = ErasurePattern(14, erased[:drop] + erased[drop + 1 :])
        for row in range(g.rows):
            t_full = decode_time(g, p, row)
            t_less = decode_time(g, smaller, row)
            if t_full is not None:
                assert t_less is not None and t_less <= t_full


def test_erasure_free_u_decode_time_is_h(example_code):
    p = ErasurePattern(14)
    h = example_code.params.h
    assert decode_time(example_code.G, p, example_code.params.k_v) == h


def test_never_decodable_recorded_without_abort(single_code):
    # erase everything: nothing decodes, but every symbol is still reported
    p = ErasurePattern(single_code.n, tuple(range(single_code.n)))
    report = check_pattern(single_code.G, p, single_code.symbol_deadlines())
    assert len(report.symbols) == single_code.k
    assert all(s.decode_time is None and not s.met for s in report.symbols)
    assert not report.passed


def test_verify_achievable_example(example_code):
    result = verify_achievable(example_code, ChannelModel(13, 4, 2))
    assert result.passed
    assert result.counterexample is None


def test_verify_tightened_deadline_fails_with_burst_counterexample(example_code):
    """One slot less for u[0] and the opening burst becomes a counterexample."""
    p = example_code.params
    deadlines = list(mux_deadlines(p.k_v, p.k_u, p.h, p.n, p.T_v, p.T_u))
    u0 = deadlines[p.k_v]
    deadlines[p.k_v] = type(u0)(u0.kind, u0.index, u0.row, u0.gen_time, u0.deadline - 1)
    result = verify_matrix(example_code.G, deadlines, ChannelModel(13, 4, 2))
    assert not result.passed
    assert result.counterexample.erased == (0, 1, 2, 3)
    miss = result.report.misses()[0]
    assert (miss.kind, miss.index) == ("u", 0)
    assert result.failure_text() == (
        "achievability failed under pattern [0, 1, 2, 3]: u[0] decode_time=11 > deadline=10"
    )


def test_verify_single_code_against_block_deadlines(single_code):
    result = verify_matrix(
        single_code.G,
        block_deadlines(single_code.k, single_code.n, single_code.T),
        ChannelModel(7, 4, 2),
    )
    assert result.passed


def test_decoder_times_never_beat_span_rank():
    """Decode time reported only when the unit vector truly enters the span."""
    code = build_single_code(6, 4, 2, seed=2)
    f = code.field
    rng = random.Random(1)

    def in_span(cols, j):
        pairs = codes_to_pairs(code.G.submatrix(range(code.k), cols))
        return unit_in_span_bruteforce(pairs, j, f.q, f.c1, f.c0)

    for _ in range(25):
        erased = tuple(sorted(rng.sample(range(code.n), rng.randint(0, 4))))
        p = ErasurePattern(code.n, erased)
        for j in range(code.k):
            t = decode_time(code.G, p, j)
            if t is None:
                assert not in_span([c for c in range(code.n) if c not in p], j)
            else:
                assert in_span([c for c in range(t + 1) if c not in p], j)
                assert not in_span([c for c in range(t) if c not in p], j)


def test_decode_message_recovers_every_maximal_pattern(example_code):
    """Random GF(q^2) messages come back exactly under every admissible pattern."""
    rng = random.Random(5)
    g = example_code.G
    order = example_code.field.order
    deadlines = example_code.symbol_deadlines()
    patterns = enumerate_admissible_patterns(g.cols, example_code.verification_channel())
    assert patterns
    for p in patterns:
        for _ in range(3):
            msg = [rng.randrange(order) for _ in range(g.rows)]
            report = decode_message(g, apply_erasure(g.vec_mul(msg), p), p, deadlines)
            assert report.passed
            assert [s.value for s in report.symbols] == msg


def test_decode_message_on_columns_a_walk_cached(example_code):
    """G packs its columns once: after a verify_matrix walk has cached
    them, decode_message reports exactly what it reports on a fresh copy
    of G, values and all, and each decoded value is the message's."""
    rng = random.Random(9)
    g = example_code.G
    walked = Matrix(g.rows, g.cols, g.field, g.data)
    assert verify_matrix(walked, example_code.symbol_deadlines(),
                         example_code.verification_channel()).passed
    assert "packed_cols" in vars(walked)
    deadlines = example_code.symbol_deadlines()
    patterns = enumerate_admissible_patterns(g.cols, example_code.verification_channel())
    for p in [*patterns[::7], ErasurePattern(g.cols, tuple(range(0, g.cols, 2)))]:
        msg = [rng.randrange(g.field.order) for _ in range(g.rows)]
        received = apply_erasure(g.vec_mul(msg), p)
        fresh = Matrix(g.rows, g.cols, g.field, g.data)
        assert "packed_cols" not in vars(fresh)
        report = decode_message(walked, received, p, deadlines)
        assert report == decode_message(fresh, received, p, deadlines)
        assert [s.value for s in report.symbols if s.decode_time is not None] == \
            [x for x, s in zip(msg, report.symbols) if s.decode_time is not None]


def random_generator(spec, k, n, rng):
    """A k x n Matrix of random display codes over spec, about half of them zero."""
    return Matrix(k, n, spec, tuple(rng.choice((0, rng.randrange(spec.order)))
                                    for _ in range(k * n)))


@pytest.mark.parametrize("spec", [*KERNEL_FIELDS, None],
                         ids=lambda spec: "example_code" if spec is None else str(spec))
def test_decode_message_matches_reference(example_code, spec):
    """The table of decode maps against one elimination per call: on
    random generators over each kernel field, where some rows never
    decode, and on the example code; under admissible patterns, arbitrary
    ones, none erased and all erased; for codewords and for arbitrary
    display codes.  The first decode of a pattern on G is a miss, its
    repeat and the arbitrary word a hit, and an equal fresh Matrix misses
    again: every DecodeReport equals reference_decode_message's, values
    and decode times included."""
    rng = random.Random(str(spec))
    if spec is None:
        g0 = example_code.G
        g = Matrix(g0.rows, g0.cols, g0.field, g0.data)  # no earlier test's maps
        ch, symbols = example_code.verification_channel(), example_code.symbol_deadlines()
    else:
        g = random_generator(spec, 4, 9, rng)
        ch, symbols = ChannelModel(5, 3, 1), block_deadlines(4, 9, 3)
    n, order = g.cols, g.field.order
    admissible = enumerate_admissible_patterns(n, ch)
    patterns = [ErasurePattern(n), ErasurePattern(n, tuple(range(n))), *rng.sample(admissible, 20)]
    patterns += [ErasurePattern(n, tuple(t for t in range(n) if rng.random() < 0.4))
                 for _ in range(20)]
    for p in dict.fromkeys(patterns):
        msg = [rng.randrange(order) for _ in range(g.rows)]
        codeword = apply_erasure(g.vec_mul(msg), p)
        arbitrary = apply_erasure([rng.randrange(order) for _ in range(n)], p)
        assert p.erased not in g.decode_maps
        for received in (codeword, codeword, arbitrary):
            want = reference_decode_message(g, received, p, symbols)
            assert decode_message(g, received, p, symbols) == want, (p, received)
            assert p.erased in g.decode_maps
        want = reference_decode_message(g, codeword, p, symbols)
        assert decode_message(Matrix(g.rows, g.cols, g.field, g.data), codeword, p, symbols) == want
        assert [s.value for s in want.symbols if s.decode_time is not None] == \
            [x for x, s in zip(msg, want.symbols) if s.decode_time is not None]


def test_decode_maps_stay_within_their_bound(example_code):
    """More distinct patterns than DECODE_MAPS: the table never holds more,
    the oldest patterns go first, and an evicted pattern decodes again,
    equal to the reference."""
    rng = random.Random(23)
    g0 = example_code.G
    g = Matrix(g0.rows, g0.cols, g0.field, g0.data)
    n, order, symbols = g.cols, g.field.order, example_code.symbol_deadlines()
    patterns = [ErasurePattern(n, tuple(t for t in range(n) if mask >> t & 1))
                for mask in rng.sample(range(1 << n), DECODE_MAPS + 40)]
    words = [apply_erasure([rng.randrange(order) for _ in range(n)], p) for p in patterns]
    for p, received in zip(patterns, words):
        decode_message(g, received, p, symbols)
        assert len(g.decode_maps) <= DECODE_MAPS
    assert list(g.decode_maps) == [p.erased for p in patterns[40:]]
    for p, received in zip(patterns[:40], words):
        assert decode_message(g, received, p, symbols) == \
            reference_decode_message(g, received, p, symbols)
    assert len(g.decode_maps) == DECODE_MAPS


def test_report_serialization(example_code):
    p = ErasurePattern(14, (0, 5))
    report = check_pattern(example_code.G, p, example_code.symbol_deadlines())
    d = report.to_dict()
    assert d["passed"] is True
    assert {s["kind"] for s in d["symbols"]} == {"v", "u"}
    assert all(set(s) >= {"kind", "index", "gen_time", "deadline", "decode_time", "met"} for s in d["symbols"])


@pytest.fixture(scope="module")
def committed_size_code():
    """(T_v, T_u, B, N) = (20, 10, 6, 2), the size of the benchmark's committed spec."""
    return build_mux_code(select_parameters(20, 10, 6, 2), seed=0)


def _verifier_variants(code):
    """(matrix, channel, deadline lists): the code's own gate with each deadline
    tightened by one, then a zeroed column, then the first symbol's row
    zeroed, so that it never decodes and must miss even a deadline of n,
    then a window W < n."""
    g, symbols, ch = code.G, list(code.symbol_deadlines()), code.verification_channel()
    tightened = [symbols]
    for i, s in enumerate(symbols):
        tight = symbols[:]
        tight[i] = SymbolDeadline(s.kind, s.index, s.row, s.gen_time, s.deadline - 1)
        tightened.append(tight)
    yield g, ch, tightened
    zero = g.cols // 2
    data = tuple(0 if j % g.cols == zero else e for j, e in enumerate(g.data))
    yield Matrix(g.rows, g.cols, g.field, data), ch, [symbols]
    first = symbols[0]
    late = [SymbolDeadline(first.kind, first.index, first.row, first.gen_time, g.cols), *symbols[1:]]
    data = tuple(0 if j // g.cols == first.row else e for j, e in enumerate(g.data))
    yield Matrix(g.rows, g.cols, g.field, data), ch, [symbols, late]
    yield g, ChannelModel(max(g.cols - 4, ch.B + 1), ch.B, ch.N), [symbols]


def walk_matches_bruteforce(code) -> tuple[int, int]:
    """The walk against check_pattern over every enumerated admissible
    pattern, on the code's gate and each variant of _verifier_variants:
    the verdict, patterns_checked, and a counterexample that is admissible
    and misses under check_pattern too.  Returns the patterns decoded by
    brute force and the walks run; CI runs it at the paper point."""
    verdicts, patterns = [], 0
    for g, ch, deadline_lists in _verifier_variants(code):
        # brute-force decode times per row, one check_pattern per pattern
        rows = block_deadlines(g.rows, g.cols, g.cols - 1)
        brute = {
            p: [s.decode_time for s in check_pattern(g, p, rows).symbols]
            for p in enumerate_admissible_patterns(g.cols, ch)
        }
        patterns += len(brute)
        for symbols in deadline_lists:
            result = verify_matrix(g, symbols, ch)
            expect = all(
                times[s.row] is not None and times[s.row] <= s.deadline
                for times in brute.values() for s in symbols
            )
            assert result.passed == expect
            if result.passed:
                assert result.patterns_checked == len(brute)
                assert result.counterexample is None and result.report is None
            else:
                assert result.counterexample in brute  # admissible, on the code's horizon
                report = check_pattern(g, result.counterexample, symbols)
                assert not report.passed and report == result.report
                assert 1 <= result.patterns_checked <= len(brute)
            verdicts.append(result.passed)
    assert verdicts[0] and not all(verdicts)
    return patterns, len(verdicts)


@pytest.mark.parametrize("name", ["example", "single_6_4_2", "single_8_4_3", "committed_size"])
def test_verifier_matches_bruteforce(request, name):
    """The walk against check_pattern over every enumerated admissible pattern."""
    code = {
        "example": lambda: request.getfixturevalue("example_code"),
        "single_6_4_2": lambda: build_single_code(6, 4, 2, seed=0),
        "single_8_4_3": lambda: build_single_code(8, 4, 3, seed=0),
        "committed_size": lambda: request.getfixturevalue("committed_size_code"),
    }[name]()
    walk_matches_bruteforce(code)


def test_committed_spec_walk_is_pinned():
    """The benchmark's committed (20,10,6,2) spec, k = 18 rows at n = 24:
    the gate passes after 523 patterns, and miss_table over the same
    admissible patterns finds no missed symbol."""
    code = codespec.load(STREAM_SPEC)
    result = verify_achievable(code)
    assert (result.passed, result.patterns_checked) == (True, 523)
    assert (code.G.rows, code.G.cols) == (18, 24)
    admissible = [p.erased for p in enumerate_admissible_patterns(code.G.cols, code.verification_channel())]
    assert len(admissible) == 523
    table = miss_table(code.G, code.symbol_deadlines(), admissible)
    assert table.keys() == set(admissible) and not any(table.values())


def _miss_table_variants(code):
    """(matrix, deadlines): the code itself, a zeroed column, and T_u lowered by two."""
    p, deadlines = code.params, code.symbol_deadlines()
    zero = p.n - 3
    data = tuple(0 if j % p.n == zero else e for j, e in enumerate(code.G.data))
    tight = dataclasses.replace(code, params=dataclasses.replace(p, T_u=p.T_u - 2))
    yield code.G, deadlines
    yield Matrix(code.G.rows, p.n, code.field, data), deadlines
    yield code.G, tight.symbol_deadlines()


@pytest.mark.parametrize("name", ["example_code", "random_dominant_code"])
def test_miss_table_matches_check_pattern(request, name):
    """The prefix walk against check_pattern: every admissible pattern,
    random subsets that are not prefix-closed, and an inadmissible key."""
    code = request.getfixturevalue(name)
    n = code.params.n
    admissible = [p.erased for p in enumerate_admissible_patterns(n, code.verification_channel())]
    rng = random.Random(3)
    subsets = [admissible + [(0, 3, 6)]]
    subsets += [rng.sample(admissible, 25) for _ in range(4)]
    assert all(any(k and k[:-1] not in sub for k in sub) for sub in subsets[1:])
    subsets += [[(0, 3, 6)], []]
    missed = 0
    for g, deadlines in _miss_table_variants(code):
        for sub in subsets:
            table = miss_table(g, deadlines, sub)
            expect = {k: check_pattern(g, ErasurePattern(n, k), deadlines).misses() for k in sub}
            assert table == expect
            missed += sum(map(len, table.values()))
    assert missed  # the variants do miss deadlines
    for bad in [(3, 1)], [(2, 2)], [(n,)], [(-1,)]:
        with pytest.raises(ValueError, match="increasing tuple"):
            miss_table(code.G, code.symbol_deadlines(), bad)
