"""Lifting a merged block code to an infinite packet stream.

Diagonal embedding: one block codeword starts per slot, and the codeword
started at slot d places its symbol j into lane j of the packet sent at
slot d+j.  Message symbols feed the diagonals at their first codeword
appearance (v-lane i of the message arriving at slot d+i becomes block
coordinate v[i] of diagonal d; u-lane i arriving at slot d+h+i becomes
u[i]: the generation times of decoder.mux_deadlines), so encoding stays
causal.  A symbol with block generation time g
arrives at slot d+g of diagonal d and is due at slot d + min(g+T, n-1):
T slots after it arrived, or sooner where the clamp to the diagonal's
last slot binds.  The clamp decides no verdict, since a block decode
time never exceeds n-1, but it is the slot a violation reports.

So a known message sequence is encoded by one fixed linear map, G,
applied to every diagonal.  There are two encoders of it, with the same
packets and the same errors.  stream_encode, the batch encoder, takes
the whole sequence at once, with time packed into lanes of w 64-bit
words, w computed from (q, k): block coordinate r of every diagonal is
one int, each codeword column is a sum of G's nonzero entries times
those ints, reduced mod q by linalg._quotient's multiply-shift, and one
strided array assignment per column skews the diagonals into packets.
Where a display code does not fit one word (q^2 > 2^64), push encodes.
StreamState.push, the online encoder, takes one slot at a time, as a
sender must: it keeps each live diagonal as a (lo, hi) pair, its codeword
so far in the lanes of Matrix.packed_rows, adds a symbol times its
packed row of G to it when the symbol arrives, and reduces a lane to its
display code once, when the packet carrying it is emitted: a mask and
% q on each coordinate.  The tests hold the batch encoder to push, slot
by slot.

During warm-up only diagonals starting at slot 0 or later transmit, so
the first n-1 packets are partially filled with zeros and message
coordinates that would belong to earlier diagonals are not carried;
violations are therefore only assessed for diagonals fully inside the
simulated horizon.

simulate_stream decodes each distinct induced pattern once, and finds
them without building one per diagonal.  Every diagonal d whose first
erasure is t has the pattern "the erasures of [t, t+n), less t, shifted
up by t - d and cut at n".  So one pass over the erasures groups the
diagonals into runs (d0, d1, t, rel), and the distinct patterns are the
expansions of the runs' distinct (rel, offset range) signatures; a run
of diagonals with no erasure adds () once, however long it is.  Memory
grows with the distinct runs, not with the horizon.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from itertools import chain
from operator import countOf
from typing import Iterable, Iterator, Optional, Sequence

from .channel import ErasurePattern, is_admissible
from .decoder import miss_table
from .linalg import ColumnSpan, _lanes, _ones, _quotient
from .muxcode import MuxCode


@dataclass(frozen=True)
class StreamViolation:
    slot: int  # deadline slot d + min(g+T, n-1), clamped to the diagonal's last slot
    diagonal: int
    kind: str
    index: int
    decode_slot: Optional[int]
    pattern_excerpt: tuple[int, ...]  # induced intra-block pattern of the diagonal

    def to_dict(self) -> dict:
        return {
            "slot": self.slot,
            "diagonal": self.diagonal,
            "kind": self.kind,
            "index": self.index,
            "decode_slot": self.decode_slot,
            "pattern_excerpt": list(self.pattern_excerpt),
        }


@dataclass(frozen=True)
class StreamReport:
    slots: int
    diagonals_checked: int
    erased_slots: int
    violations: tuple[StreamViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "slots": self.slots,
            "diagonals_checked": self.diagonals_checked,
            "erased_slots": self.erased_slots,
            "passed": self.passed,
            "violations": [v.to_dict() for v in self.violations],
        }


@dataclass
class StreamState:
    """The online encoder's state: the unreduced codewords of the last n diagonals.

    push encodes one slot as it arrives; stream_encode, the batch encoder,
    sends the same packets for a whole known sequence at once.

    A diagonal is a (lo, hi) pair in the lanes of Matrix.packed_rows: the
    GF(q) coordinates of 1 and x of its codeword so far, unreduced.  After
    the push of slot t, diagonals[j] is the diagonal started at slot t-j,
    shifted down by j lanes, so that its lowest lane is lane j, the one
    slot t sent.  An arriving symbol a0 + a1*x adds a0 times its packed
    row of G and a1 times x times that row (packed once, with the row, so
    a symbol costs four multiplies and no FieldSpec.mul_map call), shifted
    down by its generation time, to its diagonal.  A lane so sums at most
    2k products of at most (q-1)^2, which the lanes are sized for, and the
    packet reduces the lowest lane of each diagonal once, % q on each
    coordinate.  Lane j of a diagonal is sent j slots after the diagonal
    starts, so it holds every symbol that has arrived by then.
    G must be causal (row r zero before its symbol's arrival slot), so that
    this is every symbol with a nonzero entry in lane j, and a complete
    diagonal sends exactly its block encoding; a G that is not raises
    ValueError here, since its packets would not.
    """

    code: MuxCode
    clock: int = 0
    # diagonals[j]: packed (lo, hi) codeword so far of the diagonal started
    # at slot clock-1-j, shifted down by j lanes; zero before slot 0
    diagonals: list[tuple[int, int]] = field(init=False)
    # message lane (v lanes, then u lanes) -> (gen_time, r0, r1, x0, x1): the
    # lane's symbol at slot t feeds diagonal t - gen_time with its packed row
    # of G and x times it, shifted down by gen_time lanes, like that diagonal
    routes: list[tuple[int, int, int, int, int]] = field(init=False, repr=False)

    def __post_init__(self):
        g = self.code.G
        f = g.field
        self.diagonals = [(0, 0)] * self.code.params.n
        span = ColumnSpan(f, g.rows, g.cols)  # the lanes of g.packed_rows
        L = span.lanes.width
        self.routes = []
        for s in self.code.symbol_deadlines():
            row = g.row(s.row)
            if any(row[: s.gen_time]):
                raise ValueError(f"G is not causal: row {s.row} ({s.kind}[{s.index}]) is nonzero"
                                 f" before its arrival slot {s.gen_time}")
            packed = (*g.packed_rows[s.row], *span.pack([f.mul(f.q, e) for e in row]))  # f.q: x
            self.routes.append((s.gen_time, *(r >> s.gen_time * L for r in packed)))

    def push(self, v_t: Sequence[int], u_t: Sequence[int]) -> list[int]:
        """Consume one slot's message symbols and emit one packet.

        Symbols are ints, reduced mod q^2; anything else raises ValueError.
        """
        p = self.code.params
        if len(v_t) != p.k_v or len(u_t) != p.k_u:
            raise ValueError("message lanes must be (k_v, k_u) wide")
        t, g = self.clock, self.code.G
        q, order = g.field.q, g.field.order
        lanes = _lanes(q, g.cols, g.rows)  # the lanes of g.packed_rows
        L, mask = lanes.width, lanes.mask
        # age every diagonal by one slot; the oldest one is complete
        live = [(0, 0), *[(lo >> L, hi >> L) for lo, hi in self.diagonals[:-1]]]
        for (gen_time, r0, r1, x0, x1), sym in zip(self.routes, [*v_t, *u_t]):
            if type(sym) is not int:
                raise ValueError(f"message symbol is not an int: {sym!r}")
            c = sym % order
            if c and gen_time <= t:
                a1, a0 = divmod(c, q)
                lo, hi = live[gen_time]
                live[gen_time] = lo + a0 * r0 + a1 * x0, hi + a0 * r1 + a1 * x1
        self.diagonals = live
        self.clock += 1
        return [(hi & mask) % q * q + (lo & mask) % q for lo, hi in live]


# diagonals per chunk of stream_encode, so that a chunk's ints stay in a core's cache
_CHUNK = 2048


def stream_encode(
    messages: Iterable[tuple[Sequence[int], Sequence[int]]], code: MuxCode
) -> list[list[int]]:
    """Encode a message sequence; one n-wide packet per slot.

    The batch encoder: the same packets as StreamState.push slot by slot,
    and the same errors, from lane arithmetic over the whole horizon.  Time
    is packed into lanes of w 64-bit words.  Block coordinate r becomes
    one int whose lane d holds diagonal d's symbol, the one in lane r of
    slot d + gen_time(r) (zero past the horizon, where causality of G makes
    it reach no emitted lane), as a0 + a1*2^(32w): its GF(q) coordinates
    in the two halves of the lane.  Column j of every diagonal's codeword
    is then sum_r G[r][j] times that int, over G's nonzero entries: an
    entry in GF(q) scales both halves with one multiply, any other adds
    a0 and a1 times the columns of its mul_map.  A half so sums at most
    2k(q-1)^2.  w is the least number of words whose lanes hold
    linalg._quotient's product for that bound, and for the split of a
    code below q^2 into its coordinates, so each half is reduced mod q by
    one multiply-shift quotient; packet t, lane j is then lane t - j of
    column j, written into the packets by one strided array assignment.
    The horizon runs in chunks of _CHUNK diagonals.

    Symbols are reduced mod q^2.  array('Q') takes each symbol in
    [0, 2^64), and a masked check of each lane finds any at or past q^2;
    symbols outside those ranges are reduced one at a time.  The type
    check runs first, since array would take a bool.  Where a display code
    does not fit one word, q^2 > 2^64, push encodes, which is exact at
    every q; so it does on a big-endian host, where the words of an array
    are not the little-endian lanes int.from_bytes reads.
    """
    state = StreamState(code)  # refuses a G that is not causal
    p, g = code.params, code.G
    f = g.field
    q, order, n, k = f.q, f.order, p.n, g.rows
    if order > 1 << 64 or sys.byteorder != "little":
        return [state.push(v_t, u_t) for v_t, u_t in messages]
    msgs = list(messages)
    # push's first error: a slot's width is checked before its symbols
    short = next((t for t, (v_t, u_t) in enumerate(msgs)
                  if len(v_t) != p.k_v or len(u_t) != p.k_u), len(msgs))
    flat = list(chain.from_iterable(chain.from_iterable(msgs[:short])))
    if countOf(map(type, flat), int) < len(flat):
        bad = next(sym for sym in flat if type(sym) is not int)
        raise ValueError(f"message symbol is not an int: {bad!r}")
    if short < len(msgs):
        raise ValueError("message lanes must be (k_v, k_u) wide")
    slots = len(msgs)
    if not slots:
        return []
    try:
        codes = array("Q", flat)
    except OverflowError:  # a symbol below 0 or past 2^64: reduce each one first
        codes = array("Q", map(order.__rmod__, flat))
    s, M, L = _quotient(q, 2 * k * (q - 1) ** 2)  # a half of a codeword lane
    s1, M1, L1 = _quotient(q, order - 1)  # a code, split into its coordinates
    words = -(-max(L, L1) // 64)
    width, half = 64 * words, 32 * words
    ones = _ones(width, min(slots, _CHUNK))
    low = ((1 << half) - 1) * ones
    quot, quot1 = ((1 << width - s) - 1) * ones, ((1 << width - s1) - 1) * ones
    top = (order - 1).bit_length()  # x & high: a code of 2^top or more
    high, over = ((1 << width) - (1 << top)) * ones, ((1 << top) - order) * ones
    # per message lane: the index in codes of its symbol on diagonal 0, and its
    # row's nonzero entries, (j, e) for e in GF(q), else (j, a0's and a1's multipliers)
    rows = []
    for lane, sd in enumerate(code.symbol_deadlines()):
        base, ext = [], []
        for j, e in enumerate(g.row(sd.row)):
            if 0 < e < q:
                base.append((j, e))
            elif e:
                m00, m01, m10, m11 = f.mul_map(e)
                ext.append((j, m00 + (m10 << half), m01 + (m11 << half)))
        rows.append((sd.gen_time * k + lane, base, ext))
    out = array("Q", [0]) * ((slots + n) * n)  # packets past the horizon are dropped
    for d0 in range(0, slots, _CHUNK):
        d1 = min(d0 + _CHUNK, slots)
        cols = [0] * n
        for first, base, ext in rows:
            sym = codes[first + d0 * k : first + d1 * k : k]
            x = _word_lanes(sym, words)
            if x & high or x + over & high:  # a symbol in [q^2, 2^64): reduce each one
                x = _word_lanes(array("Q", map(order.__rmod__, sym)), words)
            a1 = x * M1 >> s1 & quot1
            both = x + a1 * ((1 << half) - q)  # a0 + a1*2^half
            for j, e in base:
                cols[j] += e * both
            if ext:
                a0 = x - a1 * q
                for j, m0, m1 in ext:
                    cols[j] += a0 * m0 + a1 * m1
        for j, y in enumerate(cols):
            lo, hi = y & low, y >> half & low
            lo -= (lo * M >> s & quot) * q
            hi -= (hi * M >> s & quot) * q
            col = array("Q", (hi * q + lo).to_bytes(8 * words * (d1 - d0), "little"))
            out[(d0 + j) * n + j : (d1 + j) * n + j : n] = col[::words]
    return memoryview(out)[: slots * n].cast("B").cast("Q", [slots, n]).tolist()


def _word_lanes(symbols: array, words: int) -> int:
    """The int whose lane d, of `words` 64-bit words, holds symbols[d]."""
    if words > 1:
        wide = array("Q", bytes(8 * words * len(symbols)))
        wide[::words] = symbols
        symbols = wide
    return int.from_bytes(symbols, "little")


# (d0, d1, t, rel): the diagonals d0 <= d < d1 whose first erasure is t; see _runs
_Run = tuple[int, int, int, tuple[int, ...]]


def _runs(erased: Sequence[int], n: int, stop: int) -> Iterator[_Run]:
    """The diagonals 0 <= d < stop grouped by their first erasure, in order.

    A run (d0, d1, t, rel) covers the diagonals d0 <= d < d1, whose first
    erasure is t: rel holds the erasures of [t, t+n), less t, and the
    induced pattern of d is rel shifted up by t - d and cut at n
    (_shifted).  A run of diagonals with no erasure has rel = (), and t is
    the slot past the run's last window.  One pass over the sorted
    erasures: t's run starts after the previous erasure and at the first
    diagonal whose window holds t, t - n + 1, and ends with d = t.
    """
    d = hi = 0  # d: the first diagonal not yet in a run; erased[hi]: the first at or past t + n
    m = len(erased)
    for i, t in enumerate(erased):
        if d >= stop:
            return
        first = t - n + 1
        if first > d:
            yield d, first, t, ()
            d = first
        while hi < m and erased[hi] < t + n:
            hi += 1
        end = t + 1 if t < stop else stop
        yield d, end, t, tuple([e - t for e in erased[i:hi]])
        d = end
    if d < stop:
        yield d, stop, stop + n - 1, ()


def _shifted(rel: tuple[int, ...], offset: int, n: int) -> tuple[int, ...]:
    """rel shifted up by offset and cut at n: one diagonal's induced pattern."""
    return tuple([offset + r for r in rel if offset + r < n])


def _expand(runs: Iterable[_Run], n: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(d, induced pattern of d) for every diagonal of the runs, in order."""
    for d0, d1, t, rel in runs:
        for d in range(d0, d1):
            yield d, _shifted(rel, t - d, n)


def _distinct_keys(runs: Iterable[_Run], n: int) -> set[tuple[int, ...]]:
    """The distinct induced patterns of the runs.

    A run's patterns are rel at the offsets t - d of its diagonals, the
    range [t - d1 + 1, t - d0 + 1).  So the runs reduce to their distinct
    signatures (rel, offset range), every run of empty diagonals to one
    signature of () however long it is, and each distinct rel is expanded
    once at every offset that some signature of it covers.
    """
    sigs = {(rel, t - d1 + 1, t - d0 + 1) if rel else ((), 0, 1) for d0, d1, t, rel in runs}
    offsets: dict[tuple[int, ...], set[int]] = {}
    for rel, lo, hi in sigs:
        offsets.setdefault(rel, set()).update(range(lo, hi))
    return {_shifted(rel, o, n) for rel, offs in offsets.items() for o in offs}


def simulate_stream(code: MuxCode, erasures: ErasurePattern) -> StreamReport:
    """Check every due symbol of every complete diagonal against its deadline.

    Decodability is a property of the induced intra-block pattern alone.
    A first pass over the erasures groups the diagonals into runs by
    their first erasure (_runs) and collects the distinct induced
    patterns (keys) from the runs' distinct signatures; one
    decoder.miss_table walk over their prefixes decodes them all.  Only
    when some key misses a deadline does a second pass expand every run,
    diagonal by diagonal, and report the violations, in diagonal order.
    Memory grows with the distinct runs, not with the horizon.
    """
    ch = code.verification_channel()
    if not is_admissible(erasures, ch):
        raise ValueError(f"erasure sequence not admissible for (W={ch.W}, B={ch.B}, N={ch.N})")
    erased, n = erasures.erased, code.params.n
    stop = max(0, erasures.horizon - n + 1)
    table = miss_table(code.G, code.symbol_deadlines(), _distinct_keys(_runs(erased, n, stop), n))
    violations: list[StreamViolation] = []
    if any(table.values()):
        for d, key in _expand(_runs(erased, n, stop), n):
            for miss in table[key]:
                violations.append(
                    StreamViolation(
                        slot=d + miss.deadline,
                        diagonal=d,
                        kind=miss.kind,
                        index=miss.index,
                        decode_slot=None if miss.decode_time is None else d + miss.decode_time,
                        pattern_excerpt=key,
                    )
                )
    return StreamReport(erasures.horizon, stop, len(erased), tuple(violations))
