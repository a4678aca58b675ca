import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from muxfec import codespec, stream
from muxfec.channel import ChannelModel, ErasurePattern, is_admissible, random_erasure_sequence
from muxfec.decoder import check_pattern, verify_achievable
from muxfec.galois import field_spec
from muxfec.linalg import Matrix
from muxfec.muxcode import build_mux_code, select_parameters
from muxfec.stream import (
    StreamReport,
    StreamState,
    StreamViolation,
    _distinct_keys,
    _expand,
    _runs,
    simulate_stream,
    stream_encode,
)

from oracles import KERNEL_FIELDS, code_pairs, codes_to_pairs, mat_vec, worst_case_entry

STREAM_SPEC = Path(__file__).resolve().parents[1] / "perfbench/specs/stream_20_10_6_2.json"


def zero_messages(code, slots):
    p = code.params
    return [([0] * p.k_v, [0] * p.k_u) for _ in range(slots)]


def test_zero_messages_zero_packets(example_code):
    packets = stream_encode(zero_messages(example_code, 30), example_code)
    assert len(packets) == 30
    assert all(all(x == 0 for x in pkt) for pkt in packets)


def test_single_nonzero_message_traces_one_diagonal(example_code):
    """A lone message at slot 0 only feeds the diagonal starting there:
    nonzero packet entries sit exactly on lane == slot positions."""
    p = example_code.params
    msgs = zero_messages(example_code, p.n + 5)
    msgs[0] = ([3] + [4] * (p.k_v - 1), [5] * p.k_u)
    packets = stream_encode(msgs, example_code)
    nonzero = {(t, lane) for t, pkt in enumerate(packets) for lane, x in enumerate(pkt) if x}
    assert nonzero  # something was transmitted
    assert all(t == lane for t, lane in nonzero)
    # the active lanes are exactly the support of the v[0] generator row
    row0 = example_code.G.row(0)
    expect = {(j, j) for j, e in enumerate(row0) if e}
    # only coordinate v[0] of diagonal 0 is fed: later coordinates arrive
    # with later messages, which are zero here
    assert nonzero == {(j, j) for j, e in enumerate(row0) if e and example_code.field.mul(3, e)}
    assert nonzero == expect


@pytest.fixture(scope="module")
def short_urgent_code():
    """(12, 6, 4, 2) with T_u' = 5 < T_u: k_v = 6, k_u = 4, h = 6."""
    return build_mux_code(select_parameters(12, 6, 4, 2, T_u_prime=5), seed=0)


def test_packet_values_match_block_encoding(example_code, random_dominant_code,
                                            short_urgent_code):
    """Each complete diagonal carries the block encoding of the message
    symbols it collected across slots."""
    for code in (example_code, random_dominant_code, short_urgent_code):
        p = code.params
        rng = random.Random(5)
        slots = p.n * 3
        msgs = [
            (
                [rng.randrange(code.field.order) for _ in range(p.k_v)],
                [rng.randrange(code.field.order) for _ in range(p.k_u)],
            )
            for _ in range(slots)
        ]
        packets = stream_encode(msgs, code)
        for d in range(slots - p.n + 1):  # every diagonal fully inside the horizon
            block_msg = [msgs[d + i][0][i] for i in range(p.k_v)]
            block_msg += [msgs[d + p.h + i][1][i] for i in range(p.k_u)]
            word = code.G.vec_mul(block_msg)
            got = [packets[d + j][j] for j in range(p.n)]
            assert got == word, f"diagonal {d}"


def seeded_messages(code, slots, seed, extreme=False):
    """Seeded message lanes: GF(q^2) symbols, zeros, and symbols >= q^2,
    which the encoders reduce mod q^2; with extreme, also negative
    symbols and symbols of either sign past 2^64."""
    p, order = code.params, code.field.order
    rng = random.Random(seed)

    def symbol():
        if extreme and rng.random() < 0.25:
            past_word = rng.choice((-1, 1)) * 2**64 + rng.randrange(order)
            return rng.choice((-rng.randrange(1, 3 * order), past_word))
        return rng.choice((0, rng.randrange(order), rng.randrange(order, 3 * order)))

    return [([symbol() for _ in range(p.k_v)], [symbol() for _ in range(p.k_u)])
            for _ in range(slots)]


# sha256 of json.dumps(packets), computed with the earlier encoder whose
# add_row reduced every product and sum through FieldSpec.mul and .add
PACKET_SHA256 = {
    "example_code": "bbc9d8c03d01eaa9a1fa3087f2552ce45d3f46f2473e0f1753c961874415cf2a",
    "random_dominant_code": "4e44140cf777ad8dd0161be3282adeebd9dced9ce38f62f13fb55c8dd20f5cc0",
}


@pytest.mark.parametrize("name", sorted(PACKET_SHA256))
def test_packet_bytes_pinned(request, name):
    code = request.getfixturevalue(name)
    packets = stream_encode(seeded_messages(code, 3 * code.params.n, 2024), code)
    assert hashlib.sha256(json.dumps(packets).encode()).hexdigest() == PACKET_SHA256[name]


@pytest.mark.parametrize("name", ["example_code", "random_dominant_code", "short_urgent_code"])
def test_stream_encode_matches_push(request, name):
    """The batch encoder sends exactly the packets of StreamState.push,
    slot by slot: on seeded messages with zeros, symbols >= q^2, negative
    symbols and symbols past 2^64, and on the same symbols mod 2^64, which
    all fit a word and take negative ones to just below 2^64; at horizons
    0, 1, n-1, n and 3n, and with the messages given as a generator."""
    code = request.getfixturevalue(name)
    n = code.params.n
    for slots in (0, 1, n - 1, n, 3 * n):
        extreme = seeded_messages(code, slots, slots, extreme=True)
        in_word = [([s % 2**64 for s in v_t], [s % 2**64 for s in u_t]) for v_t, u_t in extreme]
        for msgs in (extreme, in_word):
            state = StreamState(code)
            want = [state.push(v_t, u_t) for v_t, u_t in msgs]
            assert stream_encode(msgs, code) == want, slots
            assert stream_encode((m for m in msgs), code) == want, slots


@pytest.mark.parametrize("q", [10369, 2**32 - 5])
def test_stream_encode_matches_push_on_wider_lanes(example_code, q):
    """example_code's G over GF(q^2) for a q whose lanes take two words
    (10369) or three (2^32 - 5), where every entry, a code below 11^2, lies
    in GF(q) and costs one multiply of a multi-word lane: the batch encoder
    sends push's packets on seeded messages and on their symbols mod 2^64."""
    g = example_code.G
    code = dataclasses.replace(example_code, G=Matrix(g.rows, g.cols, field_spec(q), g.data))
    extreme = seeded_messages(code, 3 * code.params.n, q, extreme=True)
    in_word = [([s % 2**64 for s in v_t], [s % 2**64 for s in u_t]) for v_t, u_t in extreme]
    for msgs in (extreme, in_word):
        state = StreamState(code)
        assert stream_encode(msgs, code) == [state.push(v_t, u_t) for v_t, u_t in msgs]


# At example_code's k = 10, stream_encode's lanes take one 64-bit word up
# to q = 10357, two from 10369 to 679093949, and three from 679093963 up to
# 2^32 - 5, the last prime below 2^32; past it a display code does not fit
# a word (q^2 > 2^64), and push encodes: 2^32 + 15 and 2^61 - 1.
STEP_FIELDS = [field_spec(q) for q in (10357, 10369, 679093949, 679093963, 2**32 - 5, 2**32 + 15,
                                       2**61 - 1)]


@pytest.mark.parametrize("spec", [*KERNEL_FIELDS, *STEP_FIELDS], ids=str)
def test_stream_at_worst_case_packing_width(example_code, spec):
    """Every symbol q^2-1 through a causal G whose every entry from a row's
    generation time on is the worst_case_entry: the last lanes sum every
    row at the largest coordinates the lanes are sized for.  Each
    complete diagonal must still send its block encoding, on each side of
    every step of the encoder's lane width and of its hand-over to push."""
    p = example_code.params
    gen_time = {s.row: s.gen_time for s in example_code.symbol_deadlines()}
    worst, top = worst_case_entry(spec.q, spec.c1, spec.c0), spec.order - 1
    rows = [[worst if j >= gen_time[r] else 0 for j in range(p.n)] for r in range(len(gen_time))]
    code = dataclasses.replace(example_code, G=Matrix.from_rows(spec, rows))
    block = [top] * len(rows)
    transpose = [list(col) for col in zip(*codes_to_pairs(code.G))]
    want = [spec.code(lo, hi)
            for lo, hi in mat_vec(transpose, code_pairs(block, spec.q), spec.q, spec.c1, spec.c0)]
    assert code.G.vec_mul(block) == want
    packets = stream_encode([([top] * p.k_v, [top] * p.k_u)] * (3 * p.n), code)
    for d in range(2 * p.n + 1):
        assert [packets[d + j][j] for j in range(p.n)] == want, f"diagonal {d}"


def test_stream_encode_hands_a_big_endian_host_to_push(example_code, monkeypatch):
    """On a big-endian host the words of an array are not the little-endian
    lanes int.from_bytes reads, so stream_encode sends push's packets
    without packing a lane (_word_lanes, which every batch encode calls)."""
    msgs = seeded_messages(example_code, 3 * example_code.params.n, 7)
    state = StreamState(example_code)
    want = [state.push(v_t, u_t) for v_t, u_t in msgs]
    monkeypatch.setattr(stream.sys, "byteorder", "big")
    monkeypatch.setattr(stream, "_word_lanes", None)
    assert stream_encode(msgs, example_code) == want


def test_stream_rejects_a_generator_that_is_not_causal(tmp_path):
    """An entry of G before its row's arrival slot would reach a packet
    before its symbol arrives.  Such a spec still loads, but the encoder
    refuses it, naming the row and its arrival slot: v[2] arrives at 2."""
    d = json.loads(STREAM_SPEC.read_text(encoding="utf-8"))
    n = codespec.load(STREAM_SPEC).params.n
    assert d["matrix"][2 * n] == 0
    d["matrix"][2 * n] = 1
    path = tmp_path / "not_causal.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    code = codespec.load(path)
    with pytest.raises(ValueError, match=r"row 2 \(v\[2\]\) is nonzero before its arrival slot 2"):
        StreamState(code)
    with pytest.raises(ValueError, match="not causal"):
        stream_encode(zero_messages(code, 72), code)


@pytest.mark.parametrize("bad", [2.5, None, True, False, "3"], ids=repr)
def test_push_rejects_non_int_symbols(example_code, bad):
    p = example_code.params
    st = StreamState(example_code)
    with pytest.raises(ValueError, match="not an int"):
        st.push([0] * (p.k_v - 1) + [bad], [0] * p.k_u)
    with pytest.raises(ValueError, match="not an int"):
        stream_encode([([0] * p.k_v, [bad] + [0] * (p.k_u - 1))], example_code)
    with pytest.raises(ValueError, match="not an int"):
        example_code.encode([bad] + [0] * (p.k_v - 1), [0] * p.k_u)
    # a rejected slot leaves the encoder untouched
    assert st.clock == 0
    assert st.push([1] * p.k_v, [0] * p.k_u) == StreamState(example_code).push([1] * p.k_v,
                                                                               [0] * p.k_u)


def test_rate_accounting(example_code):
    p = example_code.params
    slots = 1000
    consumed = slots * (p.k_v + p.k_u)  # one codeword starts per slot
    transmitted = slots * p.n
    from fractions import Fraction

    assert Fraction(consumed, transmitted) == p.sum_rate


def test_stream_state_validates_lane_width(example_code):
    st = StreamState(example_code)
    with pytest.raises(ValueError, match=r"must be \(k_v, k_u\) wide"):
        st.push([0], [0])
    p = example_code.params
    with pytest.raises(ValueError, match=r"must be \(k_v, k_u\) wide"):
        stream_encode([([0] * p.k_v, [0] * p.k_u), ([0], [0])], example_code)
    # stream_encode raises push's first error: a slot's width, then its symbols
    with pytest.raises(ValueError, match="not an int"):
        stream_encode([([0.5] * p.k_v, [0] * p.k_u), ([0], [0])], example_code)
    with pytest.raises(ValueError, match="wide"):
        stream_encode([([0], [0]), ([0.5] * p.k_v, [0] * p.k_u)], example_code)


def test_erasure_free_run_no_violations(example_code):
    report = simulate_stream(example_code, ErasurePattern(300))
    assert report.passed
    assert report.diagonals_checked == 300 - example_code.params.n + 1
    assert report.erased_slots == 0


def test_planted_burst_offsets_no_violations(example_code):
    p = example_code.params
    rng = random.Random(11)
    for _ in range(5):
        start = rng.randrange(0, 400 - p.B)
        seq = ErasurePattern(400, tuple(range(start, start + p.B)))
        report = simulate_stream(example_code, seq)
        assert report.passed, f"burst at {start} caused violations"


def test_induced_patterns_admissible(example_code):
    ch = example_code.verification_channel()
    seq = random_erasure_sequence(600, ch, seed=4)
    p = example_code.params
    for d in range(0, 600 - p.n + 1):
        assert is_admissible(seq.restrict(d, p.n), ch)


def test_random_sequence_simulation(example_code):
    ch = example_code.verification_channel()
    seq = random_erasure_sequence(2000, ch, seed=8)
    assert seq.erased  # the channel actually dropped something
    report = simulate_stream(example_code, seq)
    assert report.passed
    assert report.erased_slots == len(seq.erased)


def test_block_pass_implies_stream_pass(random_dominant_code):
    """The lift preserves achievability: verified block -> clean stream run."""
    assert verify_achievable(random_dominant_code).passed
    ch = random_dominant_code.verification_channel()
    seq = random_erasure_sequence(1500, ch, seed=21)
    assert simulate_stream(random_dominant_code, seq).passed


def simulate_reference(code, erasures):
    """simulate_stream spelled out: restrict and decode every diagonal."""
    n = code.params.n
    deadlines = code.symbol_deadlines()
    violations = []
    for d in range(erasures.horizon - n + 1):
        local = erasures.restrict(d, n)
        for miss in check_pattern(code.G, local, deadlines).misses():
            decode_slot = None if miss.decode_time is None else d + miss.decode_time
            violations.append(
                StreamViolation(d + miss.deadline, d, miss.kind, miss.index, decode_slot, local.erased)
            )
    diagonals = max(0, erasures.horizon - n + 1)
    return StreamReport(erasures.horizon, diagonals, len(erasures.erased), tuple(violations))


def violating_variants(code):
    """The code with column n-3 zeroed, and the code with T_u lowered by two."""
    p = code.params
    rows = [code.G.row(i) for i in range(code.G.rows)]
    for row in rows:
        row[p.n - 3] = 0  # a zeroed column delays whatever it carried
    zeroed = dataclasses.replace(code, G=Matrix.from_rows(code.field, rows))
    tight = dataclasses.replace(code, params=dataclasses.replace(p, T_u=p.T_u - 2))
    return {"zeroed": zeroed, "tight": tight}


def test_simulate_matches_per_diagonal_reference(example_code, random_dominant_code):
    """The prefix-walk screen equals decoding every restricted diagonal, also
    on codes that miss deadlines: random sequences, horizons below and at n,
    an erasure-free run and a burst of B at every offset."""
    for code in (example_code, random_dominant_code):
        n, B = code.params.n, code.params.B
        ch = code.verification_channel()
        zeroed, tight = violating_variants(code).values()
        sequences = [random_erasure_sequence(400, ch, seed=seed, erasure_prob=0.1)
                     for seed in range(3)]
        sequences += [ErasurePattern(n - 1), ErasurePattern(n, (1, 2)), ErasurePattern(3 * n)]
        sequences += [ErasurePattern(3 * n, tuple(range(s, s + B))) for s in range(2 * n + 1)]
        for variant in (code, zeroed, tight):
            for seq in sequences:
                assert simulate_stream(variant, seq) == simulate_reference(variant, seq)
        # the variants do miss deadlines, so violations are compared too
        assert simulate_stream(zeroed, sequences[0]).violations
        assert simulate_stream(tight, sequences[0]).violations
        assert simulate_stream(code, ErasurePattern(n - 1)).diagonals_checked == 0
        assert simulate_stream(code, ErasurePattern(n)).diagonals_checked == 1


def grouping_cases(n, B):
    """Erasure sequences at the edges of the run grouping, on horizons
    n-1, n, n+1 and 3n: none; slots 0 and horizon-1; a B-burst at every
    offset, across both ends; two erasures exactly n-1 and n apart."""
    for horizon in (n - 1, n, n + 1, 3 * n):
        yield ErasurePattern(horizon)
        yield ErasurePattern(horizon, (0, horizon - 1)[: horizon])
        for s in range(1 - B, horizon):
            yield ErasurePattern(horizon, tuple(t for t in range(s, s + B) if 0 <= t < horizon))
        for gap in (n - 1, n):
            for a in range(horizon - gap):
                yield ErasurePattern(horizon, (a, a + gap))


@pytest.mark.parametrize("n,B", [(1, 2), (2, 2), (5, 3), (9, 4)])
def test_runs_expand_to_every_restricted_diagonal(n, B):
    """The runs cover the diagonals 0..horizon-n in order, each exactly
    once, and expand to restrict(d, n).erased of every diagonal d; the
    first pass's key set is exactly the set of those patterns, checked
    here directly, since simulate_stream only looks a key up when some
    other key misses a deadline."""
    sequences = [*grouping_cases(n, B),
                 *(random_erasure_sequence(200, ChannelModel(n + B, B, 1), seed=s, erasure_prob=0.2)
                   for s in range(3))]
    for seq in sequences:
        stop = max(0, seq.horizon - n + 1)
        runs = list(_runs(seq.erased, n, stop))
        patterns = [seq.restrict(d, n).erased for d in range(stop)]
        assert list(_expand(runs, n)) == list(enumerate(patterns)), seq
        assert _distinct_keys(runs, n) == set(patterns), seq


# sha256 of json.dumps(simulate_stream(...).to_dict()) over a seeded 2000-slot
# sequence, computed with the earlier simulate_stream that decoded each
# distinct induced pattern with its own check_pattern call
SIMULATE_SHA256 = {
    ("example_code", "zeroed"): "9fa56c9c3937f406ce79a2b57a425af8236a0def2202b9831f09e61620a31105",
    ("example_code", "tight"): "2f942f541db1826c2f31f5507f87f66c0ea30c034449be573ffa7a502b03350e",
    ("random_dominant_code", "zeroed"):
        "bceb5a839d4d31ebfb642e4227d9d6ab31a446b18db48eb63d14fe0b17728548",
    ("random_dominant_code", "tight"):
        "30e89c2a4fabfbbc0cef80f7f020607d5c49f245b1f147179cc205e18331fdae",
}


@pytest.mark.parametrize("name,variant", sorted(SIMULATE_SHA256))
def test_simulate_report_pinned(request, name, variant):
    code = request.getfixturevalue(name)
    seq = random_erasure_sequence(2000, code.verification_channel(), seed=2024, erasure_prob=0.1)
    report = simulate_stream(violating_variants(code)[variant], seq)
    assert report.violations
    digest = hashlib.sha256(json.dumps(report.to_dict()).encode()).hexdigest()
    assert digest == SIMULATE_SHA256[(name, variant)]


def test_inadmissible_sequence_rejected(example_code):
    bad = ErasurePattern(100, (0, 3, 6))  # 3 scattered in one window, N = 2
    with pytest.raises(ValueError, match="not admissible"):
        simulate_stream(example_code, bad)


def test_report_serialization(example_code):
    seq = ErasurePattern(50, (10, 11, 12, 13))
    d = simulate_stream(example_code, seq).to_dict()
    assert d["passed"] is True
    assert d["slots"] == 50
    assert d["violations"] == []
