"""Deadline-aware linear decoding and exhaustive achievability verification.

For a linear code, message symbol j is recoverable from the received
positions S exactly when the unit vector e_j lies in the column span of
the generator restricted to S.  One sweep over time per erasure pattern,
growing a ColumnSpan of the received columns, gives every symbol's
earliest decode time; check_pattern, earliest_decode_time and
decode_message all read it.  decode_message extends each column by its
received symbol, so the sweep also yields the decoded values.

The verifier realises the achievability quantifier "for every admissible
erasure sequence": it walks all maximal admissible patterns (decoding can
only get easier when an erasure is removed, so maximal patterns dominate)
and asserts every symbol's earliest decode time meets its deadline.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .channel import ERASURE_MARK, ChannelModel, ErasurePattern, enumerate_admissible_patterns
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
    patterns_checked: int
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


def _decode_times(
    span: ColumnSpan, columns: Iterable[list[int]], p: ErasurePattern
) -> list[Optional[int]]:
    """Earliest decode time per coordinate of span, None where never.

    columns yields the column of every slot in time order; erased slots
    are skipped.  Coordinate j decodes at the slot whose column brings e_j
    into the span.
    """
    times: list[Optional[int]] = [None] * span.dim
    pending = set(range(span.dim))
    for t, col in enumerate(columns):
        if t in p or not span.add(col):
            continue
        for j in [j for j in pending if span.contains_unit(j)]:
            times[j] = t
            pending.discard(j)
        if not pending:
            break
    return times


def earliest_decode_time(g: Matrix, p: ErasurePattern, j: int) -> Optional[int]:
    """Smallest t with e_j in the span of unerased columns <= t; None if never."""
    if not 0 <= j < g.rows:
        raise ValueError(f"symbol index {j} out of range")
    return _decode_times(ColumnSpan(g.field, g.rows), map(g.col, range(g.cols)), p)[j]


def check_pattern(
    g: Matrix, p: ErasurePattern, symbols: Sequence[SymbolDeadline]
) -> DecodeReport:
    """Decode times of all symbols under one pattern, checked against deadlines."""
    times = _decode_times(ColumnSpan(g.field, g.rows), map(g.col, range(g.cols)), p)
    results = []
    for s in symbols:
        t = times[s.row]
        met = t is not None and t <= s.deadline
        results.append(SymbolResult(s.kind, s.index, s.gen_time, s.deadline, t, met))
    return DecodeReport(tuple(results))


def decode_message(
    g: Matrix,
    received: Sequence,
    p: ErasurePattern,
    symbols: Optional[Sequence[SymbolDeadline]] = None,
) -> DecodeReport:
    """Decode actual symbol values from a received sequence.

    Each generator column is extended by its received symbol before it
    enters the span.  Since received = x . G is linear, the basis column
    that becomes e_j carries x_j in that extra entry, and keeps it as
    later columns arrive.  Symbols that never decode are still reported
    (no early abort), to support falsification tests.
    """
    if len(received) != g.cols:
        raise ValueError("received length must equal codeword length")
    for t in range(g.cols):
        if (t in p) != (received[t] == ERASURE_MARK):
            raise ValueError(f"received sequence inconsistent with pattern at slot {t}")
    if symbols is None:
        symbols = block_deadlines(g.rows, g.cols, g.cols - 1)
    span = ColumnSpan(g.field, g.rows)
    times = _decode_times(span, (g.col(t) + [y] for t, y in enumerate(received)), p)
    results = []
    for s in symbols:
        t = times[s.row]
        value = None if t is None else span.basis[s.row][g.rows]
        met = t is not None and t <= s.deadline
        results.append(SymbolResult(s.kind, s.index, s.gen_time, s.deadline, t, met, value))
    return DecodeReport(tuple(results))


def verify_matrix(
    g: Matrix,
    symbols: Sequence[SymbolDeadline],
    ch: ChannelModel,
    jobs: int = 1,
) -> VerificationResult:
    """Check every maximal admissible pattern on [0, cols); first failure wins.

    Patterns are enumerated in deterministic lexicographic order, and the
    reported counterexample is the first in that order regardless of the
    worker count.
    """
    patterns = enumerate_admissible_patterns(g.cols, ch, maximal_only=True)
    if jobs > 1 and len(patterns) > 1:
        failures: list[tuple[int, DecodeReport]] = []
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, len(patterns) // (jobs * 4))
            futures = {}
            for start in range(0, len(patterns), chunk):
                batch = patterns[start : start + chunk]
                futures[pool.submit(_check_batch, g, batch, tuple(symbols))] = start
            for fut, start in futures.items():
                for offset, report in fut.result():
                    failures.append((start + offset, report))
        if failures:
            idx, report = min(failures, key=lambda x: x[0])
            return VerificationResult(False, len(patterns), patterns[idx], report)
        return VerificationResult(True, len(patterns), None, None)
    for p in patterns:
        report = check_pattern(g, p, symbols)
        if not report.passed:
            return VerificationResult(False, len(patterns), p, report)
    return VerificationResult(True, len(patterns), None, None)


def _check_batch(g, patterns, symbols):
    out = []
    for i, p in enumerate(patterns):
        report = check_pattern(g, p, symbols)
        if not report.passed:
            out.append((i, report))
    return out


def default_jobs() -> int:
    return os.cpu_count() or 1


def verify_achievable(code, ch: Optional[ChannelModel] = None, jobs: int = 1) -> VerificationResult:
    """Exhaustive achievability check of a built BlockCode or MuxCode."""
    if ch is None:
        ch = code.verification_channel()
    return verify_matrix(code.G, code.symbol_deadlines(), ch, jobs=jobs)
