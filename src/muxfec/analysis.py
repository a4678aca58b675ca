"""Closed-form rate quantities and the gain tables.

Everything is computed in exact rational arithmetic; decimals appear
only at the display layer, rounded half-up to the printed precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .muxcode import select_parameters


def _check_channel(B: int, N: int):
    if not B > N >= 1:
        raise ValueError(f"need B > N >= 1, got B={B} N={N}")


def _check_merged(T_v: int, B: int, N: int):
    """The merged rates need T_v > T_u + B for some T_u > B, that is T_v >= 2B+2."""
    _check_channel(B, N)
    if T_v < 2 * B + 2:
        raise ValueError(f"need T_v > T_u + B with T_u > B, got T_v={T_v} B={B}")


def capacity(T: int, B: int, N: int) -> Fraction:
    """Single-stream sliding-window capacity (T-N+1)/(T-N+1+B)."""
    _check_channel(B, N)
    if not T >= B:
        raise ValueError(f"need T >= B, got T={T} B={B}")
    return Fraction(T - N + 1, T - N + 1 + B)


def mux_sum_rate(T_v: int, B: int, N: int) -> Fraction:
    """Best achievable sum rate of the merging strategy.

    max((T_v-2N+2)/(T_v-2N+2+B), (T_v-B+1)/(T_v+1)); the first branch
    attains the max exactly when B >= 2N-1 (they tie at B = 2N-1).
    """
    _check_merged(T_v, B, N)
    burst = Fraction(T_v - 2 * N + 2, T_v - 2 * N + 2 + B)
    rand = Fraction(T_v - B + 1, T_v + 1)
    return max(burst, rand)


def separate_sum_rate(T_v: int, T_u: int, B: int, N: int) -> Fraction:
    """Time-sharing baseline at the merged code's k_v : k_u proportions.

    (k_v/(k_u+k_v)) C(T_v,B,N) + (k_u/(k_u+k_v)) C(T_u,B,N).
    """
    p = select_parameters(T_v, T_u, B, N)
    total = p.k_v + p.k_u
    return Fraction(p.k_v, total) * capacity(T_v, B, N) + Fraction(p.k_u, total) * capacity(
        T_u, B, N
    )


def gain_fraction(T_v: int, T_u: int, B: int, N: int) -> Fraction:
    """Exact relative sum-rate gain (mux - separate) / separate."""
    mux = mux_sum_rate(T_v, B, N)
    sep = separate_sum_rate(T_v, T_u, B, N)
    return (mux - sep) / sep


def round_half_up(x: Fraction, ndigits: int) -> Fraction:
    """Round to ndigits decimals with ties away from zero (as the tables print)."""
    scale = 10**ndigits
    shifted = x * scale
    if shifted >= 0:
        rounded = (shifted.numerator * 2 + shifted.denominator) // (2 * shifted.denominator)
    else:
        rounded = -((-shifted.numerator * 2 + shifted.denominator) // (2 * shifted.denominator))
    return Fraction(rounded, scale)


def fmt_decimal(x: Fraction, ndigits: int) -> str:
    r = round_half_up(x, ndigits)
    sign = "-" if r < 0 else ""
    r = abs(r)
    scaled = r.numerator * 10**ndigits // r.denominator
    whole, frac = divmod(scaled, 10**ndigits)
    return f"{sign}{whole}.{frac:0{ndigits}d}" if ndigits else f"{sign}{whole}"


def rate_report(T_v: int, T_u: int, B: int, N: int) -> dict:
    """Printed rates: capacities and sum rates at 4 decimals, gain at 1 decimal.

    The displayed gain is recomputed from the two 4-decimal rates so the
    printed numbers stay mutually consistent, then rounded half-up
    through 2 decimals to 1.
    """
    cap_v, cap_u = capacity(T_v, B, N), capacity(T_u, B, N)
    mux, sep = mux_sum_rate(T_v, B, N), separate_sum_rate(T_v, T_u, B, N)
    mux4, sep4 = round_half_up(mux, 4), round_half_up(sep, 4)
    gain = round_half_up(round_half_up((mux4 - sep4) / sep4 * 100, 2), 1)
    return {
        "capacity_v": fmt_decimal(cap_v, 4),
        "capacity_u": fmt_decimal(cap_u, 4),
        "mux_sum_rate": fmt_decimal(mux, 4),
        "separate_sum_rate": fmt_decimal(sep, 4),
        "gain_percent": fmt_decimal(gain, 1),
    }


@dataclass(frozen=True)
class GainCell:
    T_v: int
    T_u: int
    gain_percent: Optional[Fraction]  # None where T_v <= T_u + B or T_u <= B

    def printed(self) -> str:
        if self.gain_percent is None:
            return ""
        return fmt_decimal(self.gain_percent, 2)


@dataclass(frozen=True)
class GainTable:
    B: int
    N: int
    tv_values: tuple[int, ...]
    tu_values: tuple[int, ...]
    cells: tuple[GainCell, ...]

    def cell(self, T_v: int, T_u: int) -> GainCell:
        """The cell at (T_v, T_u); cells are row-major over tv_values x tu_values."""
        try:
            i, j = self.tv_values.index(T_v), self.tu_values.index(T_u)
        except ValueError:
            raise KeyError(f"no cell ({T_v}, {T_u})") from None
        return self.cells[i * len(self.tu_values) + j]

    def to_csv(self, exact: bool = False) -> str:
        """One row per T_v: the gain cells, C(T_v, B, N) and the merged bound,
        each empty where undefined (outside the regime, T_v < B, T_v < 2B+2)."""
        rate = _rate_format(exact)
        lines = ["T_v/T_u," + ",".join(str(t) for t in self.tu_values) + ",capacity_v,sum_rate_bound"]
        for tv in self.tv_values:
            row = [str(tv)]
            for tu in self.tu_values:
                c = self.cell(tv, tu)
                row.append(str(c.gain_percent) if exact and c.gain_percent is not None else c.printed())
            for x in (_where_defined(capacity, tv, self.B, self.N),
                      _where_defined(mux_sum_rate, tv, self.B, self.N)):
                row.append("" if x is None else rate(x))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_dict(self, exact: bool = False) -> dict:
        rate = _rate_format(exact)
        cells = [
            {
                "T_v": c.T_v,
                "T_u": c.T_u,
                "gain_percent": str(c.gain_percent) if exact else float(c.printed()),
                "mux_sum_rate": rate(mux_sum_rate(c.T_v, self.B, self.N)),
                "separate_sum_rate": rate(separate_sum_rate(c.T_v, c.T_u, self.B, self.N)),
            }
            for c in self.cells
            if c.gain_percent is not None
        ]
        return {
            "B": self.B,
            "N": self.N,
            "tv_values": list(self.tv_values),
            "tu_values": list(self.tu_values),
            "cells": cells,
        }


def _rate_format(exact: bool) -> Callable[[Fraction], str]:
    """How a table prints a rate: the exact p/q, or 4 decimals."""
    return str if exact else (lambda x: fmt_decimal(x, 4))


def _where_defined(rate: Callable[..., Fraction], *args: int) -> Optional[Fraction]:
    """rate(*args), or None where its own precondition rejects the arguments."""
    try:
        return rate(*args)
    except ValueError:
        return None


def gain_table(B: int, N: int, tv_range: range, tu_range: range) -> GainTable:
    """Percent gain of merging over separate encoding per (T_v, T_u) cell.

    A cell is empty where gain_fraction's own preconditions reject it:
    outside the regime (T_v <= T_u + B, or T_u <= B).
    """
    _check_channel(B, N)
    cells = []
    for tv in tv_range:
        for tu in tu_range:
            gain = _where_defined(gain_fraction, tv, tu, B, N)
            cells.append(GainCell(tv, tu, None if gain is None else gain * 100))
    return GainTable(B, N, tuple(tv_range), tuple(tu_range), tuple(cells))
