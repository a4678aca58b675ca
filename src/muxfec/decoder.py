"""Deadline-aware linear decoding and exhaustive achievability verification.

For a linear code, message symbol j is recoverable from the received
positions S exactly when the unit vector e_j lies in the column span of
the generator restricted to S.  One sweep over time per erasure pattern,
growing a ColumnSpan of the received columns, gives every symbol's
earliest decode time; check_pattern and decode_message both read it.
The decode times are a dict from row to slot that holds only the rows
decoded so far, so its size says when every row has decoded.  G packs
its columns once (Matrix.packed_cols), and every sweep and walk on it
adds those.  The sweep's columns carry identity tails, so it also gives
the linear map from the received symbols to the decoded values.
decode_message keeps that map as a Matrix.  The map depends on the
erased slots alone, so it is found once per pattern on G and kept in G's
table (Matrix.decode_maps, at most DECODE_MAPS patterns, the oldest
dropped first).  A repeated pattern then decodes with one Matrix.vec_mul
and no elimination: on a stream the diagonals fall under few distinct
patterns.

One depth-first walk of an erasure-pattern tree (_walk) decodes as it
goes, so a pattern shares the sweep of its parent up to its last erasure.
A node of the walk holds its span and its decode times, nothing else.
It has two callers.  verify_matrix realises the achievability quantifier
"for every admissible erasure sequence" directly: it walks the
admissible-pattern tree and checks every pattern's decode times against
the deadlines.  miss_table walks only the prefixes of a given set of
patterns, such as the distinct induced patterns of a stream simulation,
and returns each pattern's missed symbols.  check_pattern decodes one
pattern from scratch; it is the single-pattern reference the walk is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .channel import ERASURE_MARK, ChannelModel, ErasurePattern, _last_ok
from .linalg import ColumnSpan, Matrix


@dataclass(frozen=True)
class SymbolDeadline:
    """Generation time and decoding deadline of one message symbol (matrix row)."""

    kind: str  # "v" | "u" | "s"
    index: int
    row: int
    gen_time: int
    deadline: int


@dataclass(frozen=True)
class SymbolResult:
    kind: str
    index: int
    gen_time: int
    deadline: int
    decode_time: Optional[int]  # None = never decodable
    met: bool
    value: Optional[int] = None  # display code, when decoding actual data

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "index": self.index,
            "gen_time": self.gen_time,
            "deadline": self.deadline,
            "decode_time": self.decode_time,
            "met": self.met,
        }
        if self.value is not None:
            d["value"] = self.value
        return d


@dataclass(frozen=True)
class DecodeReport:
    symbols: tuple[SymbolResult, ...]

    @property
    def passed(self) -> bool:
        return all(s.met for s in self.symbols)

    def misses(self) -> list[SymbolResult]:
        return [s for s in self.symbols if not s.met]

    def result_for(self, kind: str, index: int) -> SymbolResult:
        for s in self.symbols:
            if s.kind == kind and s.index == index:
                return s
        raise KeyError(f"no symbol {kind}[{index}]")

    def to_dict(self) -> dict:
        return {"passed": self.passed, "symbols": [s.to_dict() for s in self.symbols]}


@dataclass(frozen=True)
class VerificationResult:
    passed: bool
    patterns_checked: int  # up to and including the counterexample, if any
    counterexample: Optional[ErasurePattern]
    report: Optional[DecodeReport]  # report for the counterexample pattern

    def failure_text(self) -> str:
        """The counterexample and its first missed symbol, as one line."""
        s = self.report.misses()[0]
        return (f"achievability failed under pattern {list(self.counterexample.erased)}:"
                f" {s.kind}[{s.index}] decode_time={s.decode_time} > deadline={s.deadline}")

    def to_dict(self) -> dict:
        d = {"passed": self.passed, "patterns_checked": self.patterns_checked}
        if self.counterexample is not None:
            d["counterexample"] = list(self.counterexample.erased)
            d["report"] = self.report.to_dict()
        return d


def block_deadlines(k: int, n: int, T: int) -> list[SymbolDeadline]:
    """Single-stream map: s[i] generated at i, due at min(i+T, n-1)."""
    return [SymbolDeadline("s", i, i, i, min(i + T, n - 1)) for i in range(k)]


def mux_deadlines(k_v: int, k_u: int, h: int, n: int, T_v: int, T_u: int) -> list[SymbolDeadline]:
    """Two-stream map.

    v[i] is generated at slot i.  u[i] first enters the codeword at slot
    h+i (the overlap start), so its generation time is h+i and its
    deadline h+i+T_u; both deadlines clamp to the last slot n-1.
    """
    out = [SymbolDeadline("v", i, i, i, min(i + T_v, n - 1)) for i in range(k_v)]
    out += [
        SymbolDeadline("u", i, k_v + i, h + i, min(h + i + T_u, n - 1)) for i in range(k_u)
    ]
    return out


def _decode_times(g: Matrix, p: ErasurePattern) -> tuple[dict[int, int], ColumnSpan]:
    """Earliest decode time of each row of g that decodes under p, and the span.

    Row j decodes at the slot whose column brings e_j into the span; a row
    that never decodes has no entry.  The sweep stops once every row has
    one.  The span has g.rows + g.cols lanes and column t of g.packed_cols
    enters tagged with e_t (ColumnSpan.tagged), so a decoded row's basis
    column holds in its tail the coefficients that combine the received
    symbols into that row's value (_decode_map reads them).  A tag is never
    a pivot, so the times are those of an untagged sweep.  p must cover
    exactly the codeword's slots.
    """
    if p.horizon != g.cols:
        raise ValueError(f"pattern horizon {p.horizon} != codeword length {g.cols}")
    k = g.rows
    span = ColumnSpan(g.field, k, k + g.cols)
    times: dict[int, int] = {}
    for t, col in enumerate(g.packed_cols):
        if t not in p:
            _add_column(span, span.tagged(col, t), t, times)
        if len(times) == k:
            break
    return times, span


def _add_column(span: ColumnSpan, col: tuple[int, int], t: int, times: dict[int, int]) -> None:
    """The sweep step: add the packed column of slot t, stamp the rows it decodes.

    Only the basis columns the add set can have newly become unit vectors,
    so only the undecoded rows among the pivots it returns are checked.
    """
    for j in span.add(col):
        if j not in times and span.contains_unit(j):
            times[j] = t


def _report(
    times: dict[int, int],
    symbols: Sequence[SymbolDeadline],
    values: Optional[dict[int, int]] = None,
) -> DecodeReport:
    """Decode times checked against deadlines; a decoded symbol's value is values[row], if given."""
    results = []
    for s in symbols:
        t = times.get(s.row)
        met = t is not None and t <= s.deadline
        value = None if values is None or t is None else values[s.row]
        results.append(SymbolResult(s.kind, s.index, s.gen_time, s.deadline, t, met, value))
    return DecodeReport(tuple(results))


def check_pattern(
    g: Matrix, p: ErasurePattern, symbols: Sequence[SymbolDeadline]
) -> DecodeReport:
    """Decode times of all symbols under one pattern, checked against deadlines.

    This is the single-pattern reference: one sweep from scratch, sharing
    nothing with other patterns, the sweep of a decode_message miss.
    verify_matrix and miss_table get the same times from one walk over
    many patterns.
    """
    return _report(_decode_times(g, p)[0], symbols)


# decode maps kept per G (Matrix.decode_maps); the oldest goes first.  1024
# holds all 523 admissible patterns of the (20,10,6,2) code; an entry takes
# about 10 KB there and 16 KB at (24,12,9,3), whose 7738 would take 120 MB,
# so the cap holds a G's table to about 16 MB
DECODE_MAPS = 1024


def _decode_map(g: Matrix, p: ErasurePattern) -> tuple[dict[int, int], list[int], Matrix]:
    """The linear map from the symbols received under p to the decoded rows.

    (times, slots, m): the decode times, the received slots whose symbols
    some decoded row reads, and the len(slots) x len(times) Matrix whose
    column i holds, for the i-th row j of times, the coefficients c_jt
    over t in slots of x_j = sum_t c_jt*y_t.  One tagged sweep
    (_decode_times) leaves them in the tail of row j's basis column.  So
    m.vec_mul of the symbols read is the decoded values in times' order.
    """
    times, span = _decode_times(g, p)
    coeffs = [span.lanes.codes(span.basis[j], g.rows) for j in times]
    slots = [t for t in range(g.cols) if any(c[t] for c in coeffs)]
    m = Matrix(len(slots), len(coeffs), g.field, tuple(c[t] for t in slots for c in coeffs))
    return times, slots, m


def decode_message(
    g: Matrix, received: Sequence, p: ErasurePattern, symbols: Sequence[SymbolDeadline]
) -> DecodeReport:
    """Decode actual symbol values from a received sequence.

    Since received = x . G is linear, each decoded row's value is a fixed
    GF(q^2) combination of the received symbols, which depends on the
    erased slots alone.  The first decode of a pattern on g (a miss) finds
    the decode times and that map in one tagged sweep (_decode_map) and
    keeps both in g.decode_maps, keyed by p.erased; every later decode of
    the pattern (a hit) is one Matrix.vec_mul of the symbols the map
    reads, with no elimination.  The table keeps at most DECODE_MAPS
    patterns and drops the oldest first.  On a 2-vCPU x86 host a miss
    took about 0.40 ms at the (20,10,6,2) code and 0.61 ms at
    (24,12,9,3), and a hit 45 and 52 us, of which vec_mul is about 15 us
    and the input checks and the report the rest.
    Symbols that never decode are still reported (no early abort), to
    support falsification tests.  A received symbol must be a display
    code: an int (not a bool) in [0, q^2).
    """
    if len(received) != g.cols:
        raise ValueError("received length must equal codeword length")
    order = g.field.order
    for t, y in enumerate(received):
        erased = t in p
        if erased != (y == ERASURE_MARK):
            raise ValueError(f"received sequence inconsistent with pattern at slot {t}")
        if not erased and not (type(y) is int and 0 <= y < order):
            raise ValueError(f"received symbol at slot {t} is not a display code: {y!r}")
    if p.horizon != g.cols:
        raise ValueError(f"pattern horizon {p.horizon} != codeword length {g.cols}")
    maps, key = g.decode_maps, p.erased
    entry = maps.get(key)
    if entry is None:
        if len(maps) >= DECODE_MAPS:
            del maps[next(iter(maps))]
        entry = maps[key] = _decode_map(g, p)
    times, slots, m = entry
    values = dict(zip(times, m.vec_mul([received[t] for t in slots])))
    return _report(times, symbols, values)


def _walk(
    g: Matrix,
    admits: Callable[[list[int]], bool],
    visit: Callable[[list[int], dict[int, int]], object],
):
    """Depth-first walk of a prefix-closed erasure-pattern tree, decoding as it goes.

    A node is a pattern e1 < ... < ek holding its span and decode times at
    slot ek; the root is the empty pattern.  For each later slot t in
    order, the node appends t to erased and asks admits(erased) whether
    that child is in the tree.  If so it walks the child from copies of the
    span and the times; either way it pops t, then adds column t itself
    while some row is undecoded.  At the last slot its decode times are
    complete, and visit(erased, times) gets them.  So children are visited
    before their parent, in increasing order of the added slot.  A truthy
    return of visit stops the walk and is returned; otherwise None is.
    """
    n, k, cols = g.cols, g.rows, g.packed_cols
    root = ColumnSpan(g.field, k)
    erased: list[int] = []  # the current node's pattern, extended and popped in place

    def walk(span: ColumnSpan, times: dict[int, int], start: int):
        for t in range(start, n):
            erased.append(t)
            stop = admits(erased) and walk(span.copy(), dict(times), t + 1)
            erased.pop()
            if stop:
                return stop
            if len(times) < k:
                _add_column(span, cols[t], t, times)
        return visit(erased, times)

    return walk(root, {}, 0)


def _late(times: dict[int, int], due: Sequence[tuple[int, int]]) -> bool:
    """Whether a row of due (row, deadline) decodes after its deadline or never."""
    return any(row not in times or times[row] > deadline for row, deadline in due)


def verify_matrix(
    g: Matrix, symbols: Sequence[SymbolDeadline], ch: ChannelModel
) -> VerificationResult:
    """Check every admissible pattern on [0, cols); the first failure wins.

    One _walk over the admissible-pattern tree: channel._last_ok, the
    window rule for the newest erasure, admits a child, and each visited
    pattern's decode times are checked against the deadlines; a row with
    no decode time misses every deadline, however late.  So every
    admissible pattern is checked once, the counterexample is the first
    failing pattern in walk order (children before their parent, in
    increasing order of the added slot), and patterns_checked counts the
    patterns checked up to and including it.
    """
    n = g.cols
    due = [(s.row, s.deadline) for s in symbols]
    checked = 0

    def visit(erased: list[int], times: dict[int, int]):
        nonlocal checked
        checked += 1
        if _late(times, due):
            return ErasurePattern(n, tuple(erased)), _report(times, symbols)
        return None

    miss = _walk(g, lambda erased: _last_ok(erased, ch), visit)
    if miss:
        return VerificationResult(False, checked, *miss)
    return VerificationResult(True, checked, None, None)


def miss_table(
    g: Matrix, symbols: Sequence[SymbolDeadline], patterns: Iterable[tuple[int, ...]]
) -> dict[tuple[int, ...], list[SymbolResult]]:
    """Missed symbols of each pattern, from one _walk over the patterns' prefixes.

    patterns are increasing tuples of erased slots on [0, cols), read once
    into a set, so a repeated pattern costs nothing more.  The walk
    admits a child exactly when it is a prefix of some pattern, so it needs
    no channel and no admissibility; each pattern's entry equals
    check_pattern(g, ErasurePattern(cols, pattern), symbols).misses().
    The deadlines are checked first, by verify_matrix's _late, and a report
    is built only for a pattern that misses one.
    """
    wanted = set(patterns)
    prefixes = {p[:i] for p in wanted for i in range(1, len(p) + 1)}
    due = [(s.row, s.deadline) for s in symbols]
    table: dict[tuple[int, ...], list[SymbolResult]] = {}

    def visit(erased: list[int], times: dict[int, int]) -> None:
        key = tuple(erased)
        if key in wanted:
            table[key] = _report(times, symbols).misses() if _late(times, due) else []

    _walk(g, lambda erased: tuple(erased) in prefixes, visit)
    if len(table) != len(wanted):
        bad = sorted(wanted - table.keys())[0]
        raise ValueError(f"pattern {bad} is not an increasing tuple of slots on [0, {g.cols})")
    return table


def verify_achievable(code, ch: Optional[ChannelModel] = None) -> VerificationResult:
    """Exhaustive achievability check of a built BlockCode or MuxCode."""
    if ch is None:
        ch = code.verification_channel()
    return verify_matrix(code.G, code.symbol_deadlines(), ch)
