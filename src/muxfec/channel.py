"""The (W, B, N) sliding-window erasure channel.

Every window of W consecutive slots may lose either one burst of at most
B consecutive packets or at most N packets at arbitrary positions; only
windows that start at an erasure can break this rule.  Slots outside the
modelled horizon count as unerased: a block codeword is a finite excerpt
of the infinite packet stream, and unconstrained padding would forbid
nothing.

The admissible patterns of a horizon form a tree (drop the last erasure
and a pattern stays admissible), so a pattern is checked one erasure at
a time: _last_ok decides whether an admissible pattern stays admissible
with one more erasure past its last.  It is the one rule: the
verifier's walk, the enumerator, the sampler and is_admissible all
grow their patterns through it.  enumerate_admissible_patterns lists the
tree; it is the reference the walk's tests compare against.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Sequence

ERASURE_MARK = "*"


@dataclass(frozen=True)
class ChannelModel:
    W: int
    B: int
    N: int

    def __post_init__(self):
        if not (self.W > self.B > self.N >= 1):
            raise ValueError(f"need W > B > N >= 1, got W={self.W} B={self.B} N={self.N}")


@dataclass(frozen=True)
class ErasurePattern:
    horizon: int
    erased: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        # exactly int: a float slot would match no slot, a bool passes isinstance
        if type(self.horizon) is not int:
            raise ValueError(f"horizon is not an int: {self.horizon!r}")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        erased = tuple(self.erased)  # read once: a generator is used up by one pass
        bad = next((t for t in erased if type(t) is not int), None)
        if bad is not None:
            raise ValueError(f"erased slot is not an int: {bad!r}")
        ordered = tuple(sorted(set(erased)))
        if ordered != self.erased:
            object.__setattr__(self, "erased", ordered)
        if self.erased and not (0 <= self.erased[0] and self.erased[-1] < self.horizon):
            raise ValueError("erased indices out of horizon")

    def __contains__(self, t: int) -> bool:
        i = bisect_left(self.erased, t)
        return i < len(self.erased) and self.erased[i] == t

    def as_bits(self) -> list[int]:
        bits = [0] * self.horizon
        for t in self.erased:
            bits[t] = 1
        return bits

    def restrict(self, start: int, length: int) -> "ErasurePattern":
        """Pattern induced on the window [start, start+length), re-indexed from 0."""
        lo = bisect_left(self.erased, start)
        hi = bisect_right(self.erased, start + length - 1)
        return ErasurePattern(length, tuple(t - start for t in self.erased[lo:hi]))


def _last_ok(erased: Sequence[int], ch: ChannelModel) -> bool:
    """The window rule for the newest erasure t = erased[-1], given that
    erased[:-1] is admissible.

    Only the windows holding t can change, and of those only the ones
    that start at an erasure in [t-W+1, t] need checking (see
    is_admissible).  t is the last erasure, so each of them holds every
    erasure from its start up to t: the first holds the cnt erasures of
    [t-W+1, t], and the others hold suffixes of them, with fewer
    erasures and no gap the first lacks.  So the first decides: at most N
    erasures, or at most B that run up to t with no gap.
    """
    t = erased[-1]
    cnt = len(erased) - bisect_left(erased, t - ch.W + 1)
    return cnt <= ch.N or (cnt <= ch.B and erased[-cnt] == t - cnt + 1)


def _extend(erased: list[int], extra: Sequence[int], ch: ChannelModel) -> bool:
    """Append extra, sorted and past erased[-1], to an admissible sorted
    list if it stays admissible.

    The slots go in one at a time, each checked by _last_ok; on a reject
    the whole of extra is rolled back and False returned.
    """
    n = len(erased)
    for t in extra:
        erased.append(t)
        if not _last_ok(erased, ch):
            del erased[n:]
            return False
    return True


def is_admissible(p: ErasurePattern, ch: ChannelModel) -> bool:
    """Window rule over the windows that start at an erasure, checked one
    erasure at a time, left to right, by _last_ok.

    These are the only windows that need checking.  A window [i, i+W)
    that breaks the rule holds an erasure; let e be its first.  [e, e+W)
    keeps every erasure of [i, i+W), since they lie in [e, i+W), so the
    count cannot fall.  The erasures it adds lie past i+W-1, beyond the
    old ones, so a gap between the old ones cannot close.  So [e, e+W)
    breaks the rule too.
    """
    return _extend([], p.erased, ch)


def enumerate_admissible_patterns(horizon: int, ch: ChannelModel) -> list[ErasurePattern]:
    """All admissible patterns on [0, horizon), in lexicographic order.

    Depth-first search adding indices in increasing order is exhaustive
    because dropping the largest erasure of an admissible pattern keeps it
    admissible (window counts only fall, and a burst shortened from the
    right stays consecutive).  The verifier walks the same tree without
    listing it; this list is the reference its tests compare against.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    out: list[ErasurePattern] = []
    current: list[int] = []  # extended and popped in place

    def visit(start: int):
        out.append(ErasurePattern(horizon, tuple(current)))
        for t in range(start, horizon):
            current.append(t)
            if _last_ok(current, ch):
                visit(t + 1)
            current.pop()

    visit(0)
    return out


def apply_erasure(codeword: Sequence, p: ErasurePattern) -> list:
    """Received sequence: original symbols where unerased, ERASURE_MARK elsewhere."""
    if len(codeword) != p.horizon:
        raise ValueError(f"codeword length {len(codeword)} != pattern horizon {p.horizon}")
    return [ERASURE_MARK if t in p else s for t, s in enumerate(codeword)]


def random_erasure_sequence(
    length: int,
    ch: ChannelModel,
    seed: int,
    erasure_prob: float = 0.05,
    burst_prob: float = 0.01,
) -> ErasurePattern:
    """Sample an admissible pattern of the given length, deterministically per seed.

    Walks the slots proposing per-slot erasures (probability erasure_prob)
    and occasional bursts (probability burst_prob, length uniform in
    [N+1, B]); proposals that would break admissibility are rejected, so
    the result is always admissible.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = random.Random(seed)
    erased: list[int] = []  # grown in increasing order
    t = 0
    while t < length:
        roll = rng.random()
        if roll < burst_prob:
            blen = rng.randint(ch.N + 1, ch.B)
            burst = list(range(t, min(t + blen, length)))
            if _extend(erased, burst, ch):
                t += len(burst)
                continue
        elif roll < burst_prob + erasure_prob:
            _extend(erased, (t,), ch)
        t += 1
    return ErasurePattern(length, tuple(erased))


def write_trace(path, p: ErasurePattern):
    """Channel trace file: one 0/1 line per slot."""
    with open(path, "w", encoding="utf-8") as fh:
        for b in p.as_bits():
            fh.write(f"{b}\n")
