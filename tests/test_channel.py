import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from muxfec.channel import (
    ChannelModel,
    ErasurePattern,
    apply_erasure,
    enumerate_admissible_patterns,
    is_admissible,
    random_erasure_sequence,
    write_trace,
    ERASURE_MARK,
    _extend,
    _last_ok,
)

from oracles import admissible_bruteforce, pattern_count_closed_form


def test_channel_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(3, 3, 1)
    with pytest.raises(ValueError):
        ChannelModel(5, 2, 2)
    ChannelModel(7, 4, 2)


def test_erasure_pattern_validation_and_normalisation():
    with pytest.raises(ValueError, match="horizon must be >= 0"):
        ErasurePattern(-1)
    for erased in ((10,), (-1, 3), (2, 12)):
        with pytest.raises(ValueError, match="erased indices out of horizon"):
            ErasurePattern(10, erased)
    p = ErasurePattern(10, (7, 2, 7, 0, 2))  # unsorted, with repeats
    assert p.erased == (0, 2, 7)
    assert p == ErasurePattern(10, (0, 2, 7))
    assert ErasurePattern(0).as_bits() == []


def test_erasure_pattern_reads_a_one_shot_iterable_once():
    """A generator, iterator or map is read once: its erasures are kept,
    sorted, and its slots are still type-checked."""
    want = ErasurePattern(10, (1, 2, 3))
    for erased in ((t for t in [2, 1, 3]), iter([3, 1, 2, 1]), map(int, "312")):
        p = ErasurePattern(10, erased)
        assert p == want and p.erased == (1, 2, 3)
    with pytest.raises(ValueError, match="erased slot is not an int"):
        ErasurePattern(10, (t for t in [1, 2.0]))


@pytest.mark.parametrize("erased", [(2.5,), (3, 2.0), (True,), (1, False), ("3",)], ids=repr)
def test_erasure_pattern_rejects_slots_that_are_not_ints(erased):
    """A float slot matches no slot of the codeword, so it would decode as
    if nothing were erased: rejected, like a bool or a string."""
    with pytest.raises(ValueError, match="erased slot is not an int"):
        ErasurePattern(24, erased)


@pytest.mark.parametrize("horizon", [24.0, True, "24", None], ids=repr)
def test_erasure_pattern_rejects_a_horizon_that_is_not_an_int(horizon):
    with pytest.raises(ValueError, match="horizon is not an int"):
        ErasurePattern(horizon, (2,))


def test_generators_reject_empty_horizons():
    ch = ChannelModel(7, 4, 2)
    for horizon in (0, -3):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            enumerate_admissible_patterns(horizon, ch)
        with pytest.raises(ValueError, match="length must be >= 1"):
            random_erasure_sequence(horizon, ch, seed=0)


def test_empty_pattern_admissible():
    assert is_admissible(ErasurePattern(10), ChannelModel(7, 4, 2)) is True


def test_full_burst_admissible():
    ch = ChannelModel(10, 4, 2)
    for start in range(6):
        p = ErasurePattern(10, tuple(range(start, start + 4)))
        assert is_admissible(p, ch) is True


def test_overlong_burst_inadmissible():
    ch = ChannelModel(10, 4, 2)
    p = ErasurePattern(10, tuple(range(5)))
    assert is_admissible(p, ch) is False


def test_scattered_above_n_inadmissible():
    ch = ChannelModel(10, 4, 2)
    assert is_admissible(ErasurePattern(10, (0, 3, 6)), ch) is False
    assert is_admissible(ErasurePattern(10, (0, 3)), ch) is True


CHANNELS = [(6, 3, 1), (4, 2, 1), (5, 4, 2), (9, 4, 3), (13, 4, 2)]  # (W, B, N)


def test_admissibility_matches_bruteforce():
    rng = random.Random(5)
    for W, B, N in CHANNELS:
        ch = ChannelModel(W, B, N)
        for _ in range(2000):
            horizon = rng.randint(1, 16)  # W < horizon for most draws
            erased = tuple(sorted(rng.sample(range(horizon), rng.randint(0, min(6, horizon)))))
            p = ErasurePattern(horizon, erased)
            assert is_admissible(p, ch) == admissible_bruteforce(horizon, W, B, N, erased)


@pytest.mark.parametrize("W,B,N", CHANNELS)
def test_new_erasure_rule_matches_bruteforce(W, B, N):
    """The rule every pattern grows by: every one-slot extension of every
    admissible pattern, against the definition.  _extend agrees, and
    rolls a rejected slot back."""
    ch = ChannelModel(W, B, N)
    verdicts = set()
    for horizon in range(1, 11):
        for p in enumerate_admissible_patterns(horizon, ch):
            for t in range(p.erased[-1] + 1 if p.erased else 0, horizon):
                want = admissible_bruteforce(horizon, W, B, N, (*p.erased, t))
                assert _last_ok([*p.erased, t], ch) == want, (horizon, p.erased, t)
                erased = list(p.erased)
                assert _extend(erased, (t,), ch) == want
                assert erased == ([*p.erased, t] if want else list(p.erased))
                verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("W,B,N", CHANNELS)
def test_multi_slot_extend_matches_bruteforce(W, B, N):
    """The sampler's burst path: every admissible pattern extended by a run
    of 1..B+1 slots, and by two separated slots, past its last erasure.
    The verdict is the definition's, and a reject leaves the list as it
    was, whichever slot of the extension broke the rule."""
    ch = ChannelModel(W, B, N)
    verdicts = set()
    for horizon in range(1, 11):
        for p in enumerate_admissible_patterns(horizon, ch):
            first = p.erased[-1] + 1 if p.erased else 0
            runs = [tuple(range(t, t + r)) for t in range(first, horizon)
                    for r in range(1, B + 2) if t + r <= horizon]
            pairs = [(t, u) for t in range(first, horizon) for u in range(t + 2, horizon)]
            for extra in runs + pairs:
                want = admissible_bruteforce(horizon, W, B, N, (*p.erased, *extra))
                erased = list(p.erased)
                assert _extend(erased, extra, ch) == want, (horizon, p.erased, extra)
                assert erased == ([*p.erased, *extra] if want else list(p.erased))
                verdicts.add((len(extra) > 1, want))
    assert verdicts == {(False, True), (False, False), (True, True), (True, False)}


def test_enumerate_horizon3_exact():
    got = enumerate_admissible_patterns(3, ChannelModel(3, 2, 1))
    assert sorted(p.erased for p in got) == [(), (0,), (0, 1), (1,), (1, 2), (2,)]


def test_enumerate_matches_subset_filter():
    from itertools import combinations

    for (W, B, N), horizon in [((5, 3, 1), 7), *((ch, 9) for ch in CHANNELS)]:
        expect = []
        for k in range(horizon + 1):
            for sel in combinations(range(horizon), k):
                if admissible_bruteforce(horizon, W, B, N, sel):
                    expect.append(sel)
        got = [p.erased for p in enumerate_admissible_patterns(horizon, ChannelModel(W, B, N))]
        assert got == sorted(expect)  # lexicographic order, as documented


def test_enumerate_closed_form_count():
    for horizon, B, N in [(6, 3, 1), (7, 4, 2), (8, 5, 3)]:
        ch = ChannelModel(horizon + 1, B, N)  # W >= horizon
        got = enumerate_admissible_patterns(horizon, ch)
        assert len(got) == pattern_count_closed_form(horizon, ch.W, ch.B, ch.N)


def test_prefix_closure():
    """Dropping the largest erasure keeps a pattern admissible (the DFS invariant)."""
    ch = ChannelModel(6, 4, 2)
    for p in enumerate_admissible_patterns(7, ch):
        if p.erased:
            assert is_admissible(ErasurePattern(7, p.erased[:-1]), ch)


def test_middle_deletion_can_break_admissibility():
    # dropping a burst's middle turns it into scattered erasures above N
    ch = ChannelModel(5, 3, 1)
    assert is_admissible(ErasurePattern(6, (0, 1, 2)), ch)
    assert not is_admissible(ErasurePattern(6, (0, 2)), ch)


def test_apply_erasure():
    word = [5, 6, 7, 8]
    assert apply_erasure(word, ErasurePattern(4)) == word
    assert apply_erasure(word, ErasurePattern(4, (0, 1, 2, 3))) == [ERASURE_MARK] * 4
    got = apply_erasure(word, ErasurePattern(4, (1,)))
    assert got == [5, ERASURE_MARK, 7, 8]
    with pytest.raises(ValueError):
        apply_erasure([1, 2], ErasurePattern(3))


def test_example_burst_erases_first_four(example_code):
    word = example_code.encode([1, 2, 3, 4, 5], [6, 7, 8, 9, 10])
    got = apply_erasure(word, ErasurePattern(14, (0, 1, 2, 3)))
    assert got[:4] == [ERASURE_MARK] * 4
    assert got[4:] == word[4:]


def test_random_sequence_deterministic():
    ch = ChannelModel(13, 4, 2)
    a = random_erasure_sequence(200, ch, seed=3)
    b = random_erasure_sequence(200, ch, seed=3)
    assert a == b
    assert random_erasure_sequence(200, ch, seed=4) != a
    # pinned trace: a change that moves the sampler's draws fails here
    long = random_erasure_sequence(5000, ch, seed=2)
    digest = hashlib.sha256(",".join(map(str, long.erased)).encode()).hexdigest()
    assert len(long.erased) == 299
    assert digest == "d309e65c4dd0ee84481434c774818e62f9c29292ee4941256dfaea849acd3240"


def test_random_sequence_zero_probability_empty():
    ch = ChannelModel(13, 4, 2)
    p = random_erasure_sequence(100, ch, seed=1, erasure_prob=0.0, burst_prob=0.0)
    assert p.erased == ()


def test_random_sequences_always_admissible_many_draws():
    ch = ChannelModel(13, 4, 2)
    for seed in range(10_000):
        p = random_erasure_sequence(30, ch, seed=seed)
        assert is_admissible(p, ch)


def test_random_sequence_exercises_bursts():
    ch = ChannelModel(13, 4, 2)
    p = random_erasure_sequence(5000, ch, seed=2)
    erased = p.erased
    runs = []
    run = 1
    for a, b in zip(erased, erased[1:]):
        if b == a + 1:
            run += 1
        else:
            runs.append(run)
            run = 1
    runs.append(run)
    assert max(runs) > ch.N  # the burst branch fired somewhere


@given(st.integers(0, 2**30))
@settings(max_examples=60, deadline=None)
def test_random_sequence_admissible_property(seed):
    ch = ChannelModel(9, 4, 3)
    p = random_erasure_sequence(40, ch, seed=seed, erasure_prob=0.15, burst_prob=0.05)
    assert is_admissible(p, ch)


def test_trace_round_trip(tmp_path):
    p = ErasurePattern(6, (1, 4))
    path = tmp_path / "trace.txt"
    write_trace(path, p)
    assert path.read_text() == "0\n1\n0\n0\n1\n0\n"


def test_restrict_reindexes():
    p = ErasurePattern(20, (3, 7, 11))
    assert p.restrict(5, 10).erased == (2, 6)
    assert p.restrict(0, 4).erased == (3,)
