from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from muxfec.analysis import (
    capacity,
    fmt_decimal,
    gain_fraction,
    gain_table,
    mux_sum_rate,
    rate_report,
    round_half_up,
    separate_sum_rate,
)

from oracles import case_m_small_bound

# the published gain table for B=9, N=3 (percent, 2 decimals)
GAIN_TABLE_B9_N3 = {
    (20, 10): "12.55",
    (21, 10): "12.60", (21, 11): "11.95",
    (22, 10): "12.56", (22, 11): "12.08", (22, 12): "11.31",
    (23, 10): "12.46", (23, 11): "12.11", (23, 12): "11.50", (23, 13): "10.67",
    (24, 10): "12.31", (24, 11): "12.08", (24, 12): "11.60", (24, 13): "10.90",
    (24, 14): "10.04",
    (25, 10): "12.14", (25, 11): "12.00", (25, 12): "11.62", (25, 13): "11.05",
    (25, 14): "10.31", (25, 15): "9.44",
}


def test_capacity_examples():
    assert capacity(6, 4, 2) == Fraction(5, 9)
    assert capacity(12, 4, 2) == Fraction(11, 15)


def test_capacity_burst_only_form():
    for T, B in [(6, 4), (10, 3), (20, 9)]:
        assert capacity(T, B, 1) == Fraction(T, T + B)


def test_capacity_validation():
    with pytest.raises(ValueError):
        capacity(3, 4, 2)
    with pytest.raises(ValueError):
        capacity(6, 2, 2)


def test_capacity_monotone_grid():
    for B in range(2, 8):
        for N in range(1, B):
            for T in range(B, 30):
                assert capacity(T + 1, B, N) > capacity(T, B, N)
    for N in range(1, 5):
        for B in range(N + 1, 10):
            for T in range(12, 30):
                assert capacity(T, B + 1, N) < capacity(T, B, N)


def test_mux_sum_rate_examples():
    assert mux_sum_rate(12, 4, 2) == Fraction(10, 14)
    assert mux_sum_rate(12, 4, 3) == Fraction(9, 13)


def test_mux_sum_rate_branch_selection():
    # first branch wins exactly when B >= 2N-1; both tie at B = 2N-1
    for tv in range(14, 30):
        for n in range(1, 5):
            for b in range(n + 1, 7):
                if tv < 2 * b + 2:
                    continue
                burst = Fraction(tv - 2 * n + 2, tv - 2 * n + 2 + b)
                rand = Fraction(tv - b + 1, tv + 1)
                got = mux_sum_rate(tv, b, n)
                if b >= 2 * n - 1:
                    assert got == burst
                else:
                    assert got == rand
                if b == 2 * n - 1:
                    assert burst == rand


def test_case_m_small_examples():
    # short-merge closed form (T_v-2N+3)/(T_v-3N+4+2B)
    assert case_m_small_bound(12, 4, 2) == Fraction(11, 18)
    assert case_m_small_bound(20, 9, 3) == Fraction(17, 33)
    assert case_m_small_bound(12, 4, 2) < mux_sum_rate(12, 4, 2)
    assert case_m_small_bound(20, 9, 3) < mux_sum_rate(20, 9, 3)


def test_case_m_small_strictly_below_grid():
    for tv in range(10, 61):
        for b in range(2, 13):
            for n in range(1, b):
                if tv < 2 * b + 2:
                    continue
                assert case_m_small_bound(tv, b, n) < mux_sum_rate(tv, b, n)


def test_separate_rate_example_prints_4dp():
    sep = separate_sum_rate(12, 6, 4, 2)
    assert sep == Fraction(29, 45)
    assert fmt_decimal(sep, 4) == "0.6444"


def test_separate_rate_strict_inequality_example():
    assert separate_sum_rate(12, 6, 4, 2) < mux_sum_rate(12, 4, 2)


def test_separate_rate_degenerate_convexity():
    # equal capacities collapse the convex combination to the common value
    c = capacity(12, 4, 2)
    p = Fraction(5, 10)
    assert p * c + (1 - p) * c == c


def test_example_report_display(example_code):
    disp = rate_report(12, 6, 4, 2)
    assert disp["mux_sum_rate"] == "0.7143"
    assert disp["separate_sum_rate"] == "0.6444"
    assert disp["gain_percent"] == "10.9"
    assert mux_sum_rate(12, 4, 2) == example_code.sum_rate


def test_gain_table_reproduction():
    table = gain_table(9, 3, range(20, 26), range(10, 16))
    populated = [c for c in table.cells if c.gain_percent is not None]
    assert len(populated) == 21
    for (tv, tu), want in GAIN_TABLE_B9_N3.items():
        got = table.cell(tv, tu)
        assert abs(float(got.printed()) - float(want)) <= 0.01 + 1e-12
        # exact rationals actually reproduce the printed table dead-on
        assert got.printed() == want


def test_gain_table_empty_cells():
    table = gain_table(9, 3, range(20, 26), range(10, 16))
    for tv in range(20, 26):
        for tu in range(10, 16):
            cell = table.cell(tv, tu)
            if tv <= tu + 9:
                assert cell.gain_percent is None
                assert cell.printed() == ""
            else:
                assert cell.gain_percent is not None
    for tv, tu in ((19, 10), (20, 16), (26, 9)):  # outside the ranges: no cell at all
        with pytest.raises(KeyError, match=rf"no cell \({tv}, {tu}\)"):
            table.cell(tv, tu)


def test_gain_table_excludes_tu_at_or_below_b():
    table = gain_table(4, 2, range(12, 13), range(3, 7))
    assert table.cell(12, 3).gain_percent is None
    assert table.cell(12, 4).gain_percent is None
    assert table.cell(12, 6).gain_percent is not None


def test_bound_strictness_sweep():
    """Appendix inequality and the short-merge inequality over the full grid."""
    for tv in range(1, 41):
        for b in range(2, 11):
            for n in range(1, b):
                for tu in range(b + 1, tv - b):
                    if not tv > tu + b:
                        continue
                    sep = separate_sum_rate(tv, tu, b, n)
                    mux = mux_sum_rate(tv, b, n)
                    assert sep < mux
                assert not (tv >= 2 * b + 2) or case_m_small_bound(tv, b, n) < mux_sum_rate(tv, b, n)


def test_table_one_row_identities():
    # proposed-code sum rates match the closed forms in both regimes,
    # and at N = 1 the burst branch collapses to T_v/(T_v+B)
    for tv, b, n in [(12, 4, 2), (18, 5, 2), (16, 4, 3)]:
        if b >= 2 * n - 1:
            assert mux_sum_rate(tv, b, n) == Fraction(tv - 2 * n + 2, tv - 2 * n + 2 + b)
        else:
            assert mux_sum_rate(tv, b, n) == Fraction(tv - b + 1, tv + 1)
    for tv, b in [(12, 4), (20, 9), (15, 5)]:
        assert mux_sum_rate(tv, b, 1) == Fraction(tv, tv + b)


def test_round_half_up():
    assert round_half_up(Fraction(1085, 100), 1) == Fraction(109, 10)
    assert round_half_up(Fraction(1084, 100), 1) == Fraction(108, 10)
    assert round_half_up(Fraction(25, 1000), 2) == Fraction(3, 100)  # ties away from zero
    assert fmt_decimal(Fraction(5, 7), 4) == "0.7143"
    assert fmt_decimal(Fraction(2, 1), 0) == "2"
    assert fmt_decimal(Fraction(-1, 8), 2) == "-0.13"


def test_csv_shape():
    table = gain_table(9, 3, range(20, 22), range(10, 12))
    csv = table.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "T_v/T_u,10,11,capacity_v,sum_rate_bound"
    assert lines[1].startswith("20,12.55,,")
    assert lines[2].startswith("21,12.60,11.95,")


def test_exact_mode_emits_rationals():
    table = gain_table(9, 3, range(20, 21), range(10, 11))
    csv = table.to_csv(exact=True)
    assert "/" in csv.split("\n")[1]
    d = table.to_dict(exact=True)
    assert d["cells"][0]["mux_sum_rate"] == "16/25"


@given(
    tv=st.integers(12, 50),
    tu=st.integers(4, 20),
    b=st.integers(2, 9),
    n=st.integers(1, 8),
)
@settings(max_examples=300, deadline=None)
def test_gain_positive_property(tv, tu, b, n):
    if not (n < b < tu and tu + b < tv):
        return
    assert gain_fraction(tv, tu, b, n) > 0
