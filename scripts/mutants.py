#!/usr/bin/env python3
"""Mutation table: every mutant of src/muxfec must make its named tests fail.

Usage, from the repository root:

    python scripts/mutants.py

Each row of MUTANTS gives a file under src/muxfec, an exact text that
occurs once in it, the text that replaces it, and the pytest node ids
expected to fail.  For each mutant the script copies src/ to a temporary
directory, applies the mutant there and runs the named tests against the
copy.  A test counts as failed when it fails or errors, and a
parametrized one when any of its cases does.
pyproject.toml puts the checkout's src/ first on pytest's path, so the
copy is put there instead (``-o pythonpath=``) as well as on PYTHONPATH.
Nothing in the checkout changes.

The script exits 1 if a mutant's old text no longer occurs exactly once,
if an expected test passes (the mutant survives it), or if pytest errors
or times out.  A change that claims a test catches a bug adds the
mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600
ACCEPTANCE, ANALYSIS, CHANNEL, CLI, DECODER, GALOIS, LINALG, MUXCODE, SINGLECODE, STREAM = (
    f"tests/test_{m}.py::" for m in ("acceptance", "analysis", "channel", "cli", "decoder", "galois",
                                     "linalg", "muxcode", "singlecode", "stream"))


class Mutant(NamedTuple):
    name: str
    file: str  # under src/muxfec
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # -- the packed encoding kernel and the GF(q^2) product ----------------------
    Mutant(
        "vec_mul reduces in lanes sized for one row fewer", "linalg.py",
        "lanes = _lanes(f.q, self.cols, self.rows)",
        "lanes = _lanes(f.q, self.cols, self.rows - 1)",
        (f"{LINALG}test_vec_mul_at_worst_case_packing_width", f"{LINALG}test_vec_mul_matches_pair_oracle"),
    ),
    Mutant(
        "vec_mul with m00 and m01 swapped", "linalg.py",
        "lo += m00 * r0 + m01 * r1",
        "lo += m01 * r0 + m00 * r1",
        (f"{LINALG}test_vec_mul_matches_pair_oracle", f"{DECODER}test_decode_message_matches_reference"),
    ),
    Mutant(
        "vec_mul accepts any int subclass", "linalg.py",
        "            if type(v) is not int:",
        "            if not isinstance(v, int):",
        (f"{LINALG}test_vec_mul_rejects_non_int_symbols",),
    ),
    Mutant(
        "vec_mul without the mod-q^2 reduction", "linalg.py",
        "            c = v % order",
        "            c = v",
        (f"{LINALG}test_vec_mul_matches_pair_oracle",),
    ),
    Mutant(
        "mul_map without its c1 term", "galois.py",
        "return e0, -self.c0 * e1 % q, e1, (e0 - self.c1 * e1) % q",
        "return e0, -self.c0 * e1 % q, e1, e0 % q",
        (f"{GALOIS}test_single_element_api_matches_pair_oracles",
         f"{LINALG}test_column_span_matches_reference", f"{LINALG}test_vec_mul_matches_pair_oracle"),
    ),
    Mutant(
        "mul with m01 and m10 swapped", "galois.py",
        "return (m10 * b0 + m11 * b1) % q * q + (m00 * b0 + m01 * b1) % q",
        "return (m01 * b0 + m11 * b1) % q * q + (m00 * b0 + m10 * b1) % q",
        (f"{GALOIS}test_mul_examples", f"{GALOIS}test_single_element_api_matches_pair_oracles"),
    ),
    Mutant(
        "stream encoder takes a symbol one slot before its arrival", "stream.py",
        "            if c and gen_time <= t:",
        "            if c and gen_time <= t + 1:",
        (f"{STREAM}test_stream_encode_matches_push",),
    ),
    Mutant(
        "push reads each diagonal's lowest lane one lane high", "stream.py",
        "return [(hi & mask) % q * q + (lo & mask) % q for lo, hi in live]",
        "return [(hi >> L & mask) % q * q + (lo >> L & mask) % q for lo, hi in live]",
        (f"{STREAM}test_stream_encode_matches_push", f"{STREAM}test_stream_at_worst_case_packing_width"),
    ),
    Mutant(
        "push adds the row itself in place of x times the row", "stream.py",
        "span.pack([f.mul(f.q, e) for e in row])",
        "span.pack(row)",
        (f"{STREAM}test_stream_encode_matches_push", f"{STREAM}test_stream_at_worst_case_packing_width"),
    ),
    Mutant(
        "stream encoder accepts any int subclass", "stream.py",
        "            if type(sym) is not int:",
        "            if not isinstance(sym, int):",
        (f"{STREAM}test_push_rejects_non_int_symbols",),
    ),
    # -- the batch stream encoder ------------------------------------------------
    Mutant(
        "batch encoder skews one lane off", "stream.py",
        "codes[np.arange(n, slots + n)[:, None] - lanes, lanes]",
        "codes[np.arange(n, slots + n)[:, None] - lanes - 1, lanes]",
        (f"{STREAM}test_stream_encode_matches_push", f"{STREAM}test_packet_bytes_pinned"),
    ),
    Mutant(
        "batch encoder gathers a symbol one slot after its arrival", "stream.py",
        "x[np.arange(slots)[:, None] + gen, np.arange(k)]",
        "x[np.arange(slots)[:, None] + gen + 1, np.arange(k)]",
        (f"{STREAM}test_stream_encode_matches_push",
         f"{STREAM}test_single_nonzero_message_traces_one_diagonal"),
    ),
    Mutant(
        "batch encoder in int64 at every q", "stream.py",
        "    if 2 * k * (q - 1) ** 2 >= 2**63:\n",
        "    if False:\n",
        (f"{STREAM}test_stream_at_worst_case_packing_width",),
    ),
    Mutant(
        "batch encoder without the mod-q^2 reduction", "stream.py",
        "np.fromiter(map(order.__rmod__, flat), np.int64",
        "np.fromiter(flat, np.int64",
        (f"{STREAM}test_stream_encode_matches_push",),
    ),
    Mutant(
        "Matrix accepts entries that are not ints", "linalg.py",
        "            if type(e) is not int:\n                raise ValueError(f\"matrix entry",
        "            if False:\n                raise ValueError(f\"matrix entry",
        (f"{LINALG}test_matrix_rejects_entries_that_are_not_ints",),
    ),
    # -- the packed ColumnSpan elimination ---------------------------------------
    Mutant(
        "lane quotient multiplier rounded down", "linalg.py",
        "    M = -(-(1 << s) // q)",
        "    M = (1 << s) // q",
        (f"{LINALG}test_lane_reduction_is_exact_at_its_bounds",
         f"{LINALG}test_column_span_matches_reference"),
    ),
    Mutant(
        "lane one bit narrower", "linalg.py",
        "    L = (((1 << a) - 1) * M).bit_length()",
        "    L = (((1 << a) - 1) * M).bit_length() - 1",
        (f"{LINALG}test_lane_reduction_is_exact_at_its_bounds",),
    ),
    Mutant(
        "lane offset one q short", "linalg.py",
        "    offset = q * -(-2 * dim * (q - 1) ** 2 // q)",
        "    offset = q * -(-2 * dim * (q - 1) ** 2 // q) - q",
        (f"{LINALG}test_lane_reduction_is_exact_at_its_bounds",
         f"{LINALG}test_column_span_matches_reference"),
    ),
    Mutant(
        "pivot taken from the highest nonzero lane", "linalg.py",
        "        p = ((h & -h).bit_length() - 1) // L",
        "        p = (h.bit_length() - 1) // L",
        (f"{LINALG}test_column_span_matches_reference",),
    ),
    Mutant(
        "contains_unit ignores the x coordinate", "linalg.py",
        " == 1 << j * lanes.width and not b[1] & lanes.head",
        " == 1 << j * lanes.width",
        (f"{LINALG}test_column_span_tracks_rank",
         f"{LINALG}test_add_column_stamps_what_a_full_scan_finds"),
    ),
    Mutant(
        "codes reads the x coordinate without its factor q", "linalg.py",
        "x = col[1] * self.q + col[0] >> start * L",
        "x = col[1] + col[0] >> start * L",
        (f"{LINALG}test_column_span_matches_reference", f"{LINALG}test_is_mds_both_sides_match_bruteforce",
         f"{DECODER}test_decode_message_matches_reference"),
    ),
    Mutant(
        "copy shares the basis dict", "linalg.py",
        "        other.basis = dict(self.basis)",
        "        other.basis = self.basis",
        (f"{LINALG}test_column_span_tracks_rank", f"{LINALG}test_column_span_matches_reference",
         f"{DECODER}test_verifier_matches_bruteforce"),
    ),
    Mutant(
        "_reduce GF(q) coefficient drops the x coordinate", "linalg.py",
        "                    if b1:\n                        s1 += c * b1\n",
        "",
        (f"{LINALG}test_column_span_matches_reference",),
    ),
    Mutant(
        "GF(q) back-substitution drops the x coordinate", "linalg.py",
        "                x1 = b1 - c * r1 if r1 else b1\n",
        "                x1 = b1\n",
        (f"{LINALG}test_column_span_matches_reference",),
    ),
    Mutant(
        "add returns only the new pivot", "linalg.py",
        "        return changed\n",
        "        return changed[:1]\n",
        (f"{LINALG}test_column_span_matches_reference",
         f"{LINALG}test_add_column_stamps_what_a_full_scan_finds",
         f"{DECODER}test_verifier_matches_bruteforce"),
    ),
    Mutant(
        "add does not record rebound pivots", "linalg.py",
        "            changed.append(t)\n",
        "",
        (f"{LINALG}test_column_span_matches_reference",
         f"{LINALG}test_add_column_stamps_what_a_full_scan_finds"),
    ),
    Mutant(
        "add skips back-substitution", "linalg.py",
        "        for t, (b0, b1) in basis.items():",
        "        for t, (b0, b1) in ():",
        (f"{LINALG}test_column_span_tracks_rank", f"{LINALG}test_column_span_matches_reference"),
    ),
    # -- is_mds on the side with fewer rows --------------------------------------
    Mutant(
        "is_mds side condition flipped", "linalg.py",
        "    if 2 * dim > g.cols:",
        "    if 2 * dim < g.cols:",
        (f"{LINALG}test_is_mds_both_sides_match_bruteforce",),
    ),
    Mutant(
        "is_mds never takes the dual", "linalg.py",
        "    if 2 * dim > g.cols:",
        "    if False:",
        (f"{LINALG}test_is_mds_both_sides_match_bruteforce",),
    ),
    Mutant(
        "_dual_columns goes on past dependent leading columns", "linalg.py",
        "            return None\n    n_k",
        "            pass\n    n_k",
        (f"{LINALG}test_is_mds_matches_rank_definition",
         f"{LINALG}test_is_mds_both_sides_match_bruteforce"),
    ),
    Mutant(
        "_dual_columns reads the head instead of the tail", "linalg.py",
        "rows = [span.lanes.codes(span._reduce(span.pack(c)), k) + ",
        "rows = [span.lanes.codes(span._reduce(span.pack(c)))[:k] + ",
        (f"{LINALG}test_is_mds_matches_rank_definition",
         f"{LINALG}test_is_mds_both_sides_match_bruteforce"),
    ),
    Mutant(
        "is_mds leaf test ignores the x coordinate", "linalg.py",
        "            if not (r0 | r1) & head:",
        "            if not r0 & head:",
        (f"{LINALG}test_is_mds_both_sides_match_bruteforce",),
    ),
    Mutant(
        "is_mds leaf test masks only lane 0", "linalg.py",
        "            if not (r0 | r1) & head:",
        "            if not (r0 | r1) & root.lanes.mask:",
        (f"{LINALG}test_is_mds_both_sides_match_bruteforce",),
    ),
    Mutant(
        "is_mds subset range stops one column early", "linalg.py",
        "for c in range(start, n - dim + depth + 1):",
        "for c in range(start, n - dim + depth):",
        (f"{LINALG}test_is_mds_reaches_the_last_selection", f"{LINALG}test_is_mds_shares_each_prefix",
         f"{LINALG}test_is_mds_both_sides_match_bruteforce"),
    ),
    Mutant(
        "is_mds siblings share one span", "linalg.py",
        "                child = span.copy()",
        "                child = span",
        (f"{LINALG}test_is_mds_shares_each_prefix", f"{LINALG}test_is_mds_both_sides_match_bruteforce"),
    ),
    # -- erasure patterns and the window rule -------------------------------------
    Mutant(
        "ErasurePattern accepts slots that are not ints", "channel.py",
        "        bad = next((t for t in erased if type(t) is not int), None)",
        "        bad = None",
        (f"{CHANNEL}test_erasure_pattern_rejects_slots_that_are_not_ints",),
    ),
    Mutant(
        "ErasurePattern reads a one-shot iterable twice", "channel.py",
        "        erased = tuple(self.erased)",
        "        erased = self.erased",
        (f"{CHANNEL}test_erasure_pattern_reads_a_one_shot_iterable_once",),
    ),
    Mutant(
        "new-erasure window rule starts one window late", "channel.py",
        "bisect_left(erased, t - ch.W + 1)",
        "bisect_left(erased, t + 1)",
        (f"{CHANNEL}test_new_erasure_rule_matches_bruteforce",
         f"{CHANNEL}test_enumerate_matches_subset_filter"),
    ),
    Mutant(
        "new-erasure window rule starts one slot late", "channel.py",
        "bisect_left(erased, t - ch.W + 1)",
        "bisect_left(erased, t - ch.W + 2)",
        (f"{CHANNEL}test_new_erasure_rule_matches_bruteforce",
         f"{CHANNEL}test_enumerate_matches_subset_filter"),
    ),
    Mutant(
        "new-erasure rule refuses N arbitrary erasures", "channel.py",
        "return cnt <= ch.N or",
        "return cnt < ch.N or",
        (f"{CHANNEL}test_new_erasure_rule_matches_bruteforce",
         f"{CHANNEL}test_admissibility_matches_bruteforce"),
    ),
    Mutant(
        "new-erasure rule refuses a burst of B", "channel.py",
        "(cnt <= ch.B and",
        "(cnt < ch.B and",
        (f"{CHANNEL}test_new_erasure_rule_matches_bruteforce", f"{CHANNEL}test_full_burst_admissible"),
    ),
    Mutant(
        "new-erasure burst test off by one slot", "channel.py",
        "erased[-cnt] == t - cnt + 1",
        "erased[-cnt] == t - cnt",
        (f"{CHANNEL}test_new_erasure_rule_matches_bruteforce",
         f"{CHANNEL}test_multi_slot_extend_matches_bruteforce"),
    ),
    Mutant(
        "_extend rolls back one slot short", "channel.py",
        "            del erased[n:]",
        "            del erased[n + 1 :]",
        (f"{CHANNEL}test_new_erasure_rule_matches_bruteforce",
         f"{CHANNEL}test_multi_slot_extend_matches_bruteforce"),
    ),
    # -- the decode sweep and the verifier's walk ---------------------------------
    Mutant(
        "_decode_times stamps one slot late", "decoder.py",
        "_add_column(span, span.tagged(col, t), t, times)",
        "_add_column(span, span.tagged(col, t), t + 1, times)",
        (f"{DECODER}test_no_erasures_sequential_times", f"{DECODER}test_example_urgent_anchor_burst",
         f"{DECODER}test_decoder_times_never_beat_span_rank",
         f"{ACCEPTANCE}test_criterion_4_decode_time_anchors"),
    ),
    Mutant(
        "_walk does not pop when admits is false", "decoder.py",
        "            erased.pop()\n            if stop:",
        "            if stop is not False:\n                erased.pop()\n            if stop:",
        (f"{DECODER}test_verifier_matches_bruteforce", f"{DECODER}test_miss_table_matches_check_pattern"),
    ),
    Mutant(
        "_walk shares the parent's span", "decoder.py",
        "walk(span.copy(), dict(times), t + 1)",
        "walk(span, dict(times), t + 1)",
        (f"{DECODER}test_verifier_matches_bruteforce",),
    ),
    Mutant(
        "a row that never decodes counts as met (default time)", "decoder.py",
        "return any(row not in times or times[row] > deadline for row, deadline in due)",
        "return any(times.get(row, -1) > deadline for row, deadline in due)",
        (f"{DECODER}test_verifier_matches_bruteforce",),
    ),
    Mutant(
        "a row that never decodes counts as met (skipped)", "decoder.py",
        "return any(row not in times or times[row] > deadline for row, deadline in due)",
        "return any(row in times and times[row] > deadline for row, deadline in due)",
        (f"{DECODER}test_verifier_matches_bruteforce",),
    ),
    # -- decode_message's table of decode maps ------------------------------------
    Mutant(
        "decoded values paired with the rows one off", "decoder.py",
        "values = dict(zip(times, m.vec_mul(",
        "values = dict(zip([*times][1:] + [*times][:1], m.vec_mul(",
        (f"{DECODER}test_decode_message_matches_reference",
         f"{DECODER}test_decode_message_recovers_every_maximal_pattern",
         f"{DECODER}test_decode_message_on_columns_a_walk_cached"),
    ),
    Mutant(
        "decode map tag one lane off", "linalg.py",
        "return lo | 1 << (self.dim + t) * self.lanes.width, hi",
        "return lo | 1 << (self.dim + t + 1) * self.lanes.width, hi",
        (f"{DECODER}test_decode_message_matches_reference",
         f"{DECODER}test_decode_message_recovers_every_maximal_pattern",
         f"{LINALG}test_is_mds_both_sides_match_bruteforce"),
    ),
    Mutant(
        "decode map coefficients read from the head, not the tail", "decoder.py",
        "coeffs = [span.lanes.codes(span.basis[j], g.rows) for j in times]",
        "coeffs = [span.lanes.codes(span.basis[j])[:g.cols] for j in times]",
        (f"{DECODER}test_decode_message_matches_reference",
         f"{DECODER}test_decode_message_recovers_every_maximal_pattern"),
    ),
    Mutant(
        "decode map slot filter drops the last slot", "decoder.py",
        "if any(c[t] for c in coeffs)]",
        "if any(c[t] for c in coeffs)][:-1]",
        (f"{DECODER}test_decode_message_matches_reference",
         f"{DECODER}test_round_trip_all_pattern_families"),
    ),
    Mutant(
        "decode map keyed without the last erasure", "decoder.py",
        "maps, key = g.decode_maps, p.erased",
        "maps, key = g.decode_maps, p.erased[:-1]",
        (f"{DECODER}test_decode_message_matches_reference",),
    ),
    Mutant(
        "decode map hit skips the last received slot", "decoder.py",
        "m.vec_mul([received[t] for t in slots])",
        "m.vec_mul([received[t] for t in slots][:-1] + [0])",
        (f"{DECODER}test_decode_message_matches_reference",
         f"{DECODER}test_round_trip_all_pattern_families"),
    ),
    Mutant(
        "decode maps never evicted", "decoder.py",
        "        if len(maps) >= DECODE_MAPS:",
        "        if False:",
        (f"{DECODER}test_decode_maps_stay_within_their_bound",),
    ),
    # -- the stream's diagonals grouped into runs by their first erasure ----------
    Mutant(
        "a run's lower bound one slot off", "stream.py",
        "first = t - n + 1",
        "first = t - n + 2",
        (f"{STREAM}test_runs_expand_to_every_restricted_diagonal",),
    ),
    Mutant(
        "a diagonal's pattern cut at n inclusive", "stream.py",
        "if offset + r < n",
        "if offset + r <= n",
        (f"{STREAM}test_runs_expand_to_every_restricted_diagonal",
         f"{STREAM}test_simulate_matches_per_diagonal_reference"),
    ),
    Mutant(
        "a signature's last offset not expanded", "stream.py",
        "update(range(lo, hi))",
        "update(range(lo, hi - 1))",
        (f"{STREAM}test_runs_expand_to_every_restricted_diagonal",),
    ),
    Mutant(
        "miss_table skips a pattern one slot late", "decoder.py",
        "if _late(times, due) else []",
        "if _late(times, [(row, deadline + 1) for row, deadline in due]) else []",
        (f"{DECODER}test_miss_table_matches_check_pattern",
         f"{STREAM}test_simulate_matches_per_diagonal_reference", f"{STREAM}test_simulate_report_pinned"),
    ),
    # -- parameters, constituents, the merge and its checks ------------------------
    Mutant(
        "the regime tie B = 2N-1 taken as random-dominant", "muxcode.py",
        "    if B >= 2 * N - 1:",
        "    if B > 2 * N - 1:",
        (f"{MUXCODE}test_select_parameters_tie_is_burst_dominant",),
    ),
    Mutant(
        "initial_prime without the left block's size", "muxcode.py",
        "        need = max(need, params.T_v - params.N + 1)\n",
        "        pass\n",
        (f"{MUXCODE}test_build_deterministic", f"{STREAM}test_packet_bytes_pinned"),
    ),
    Mutant(
        "no left-MDS check", "muxcode.py",
        "        if params.regime == BURST_DOMINANT and not is_mds(code.left_mds_sub()):",
        "        if False:",
        (f"{MUXCODE}test_left_mds_check_gates_only_the_burst_regime",),
    ),
    Mutant(
        "left-MDS check in both regimes", "muxcode.py",
        "        if params.regime == BURST_DOMINANT and not is_mds(code.left_mds_sub()):",
        "        if not is_mds(code.left_mds_sub()):",
        (f"{MUXCODE}test_left_mds_check_gates_only_the_burst_regime",),
    ),
    Mutant(
        "the rescue entry one column early", "singlecode.py",
        "            row[j + T] = base_nonzero()",
        "            row[j + T - 1] = base_nonzero()",
        (f"{SINGLECODE}test_draw_matches_template", f"{DECODER}test_verifier_matches_bruteforce"),
    ),
    Mutant(
        "g1_sub one column short", "singlecode.py",
        "range(self.k + self.N - 1))",
        "range(self.k + self.N - 2))",
        (f"{SINGLECODE}test_g1_sub_is_mds_bruteforce",),
    ),
    Mutant(
        "special entry never checked", "singlecode.py",
        "    return StructureReport(g1_ok, g2_ok, special_ok)",
        "    return StructureReport(g1_ok, g2_ok, True)",
        (f"{SINGLECODE}test_special_entry_in_the_wrong_field_fails_its_flag",),
    ),
    Mutant(
        "mux_sum_rate takes the worse branch", "analysis.py",
        "    return max(burst, rand)",
        "    return min(burst, rand)",
        (f"{ANALYSIS}test_mux_sum_rate_examples", f"{ANALYSIS}test_mux_sum_rate_branch_selection"),
    ),
    Mutant(
        "round_half_up rounds ties down", "analysis.py",
        "rounded = (shifted.numerator * 2 + shifted.denominator) // (2 * shifted.denominator)",
        "rounded = (shifted.numerator * 2 + shifted.denominator - 1) // (2 * shifted.denominator)",
        (f"{ANALYSIS}test_round_half_up",),
    ),
    # -- spec files ----------------------------------------------------------------
    Mutant(
        "constituent seeds default to 0, not the master seed", "codespec.py",
        'd.get("g1_seed", seed), d.get("g2_seed", seed)',
        'd.get("g1_seed", 0), d.get("g2_seed", 0)',
        (f"{MUXCODE}test_spec_without_constituent_seeds_takes_the_master_seed",),
    ),
    Mutant(
        "spec regime never checked", "codespec.py",
        "        if d[\"regime\"] != params.regime:\n",
        "        if False:\n",
        (f"{CLI}test_verify_malformed_spec",),
    ),
    # -- output paths are checked before any work ---------------------------------
    Mutant(
        "verify --report checked only after the walk", "cli.py",
        "    if args.report:\n        _check_out(args.report)\n",
        "",
        (f"{CLI}test_build_rejects_unusable_out_before_building",),
    ),
    Mutant(
        "simulate --trace checked only after sampling", "cli.py",
        "    if args.trace:\n        _check_out(args.trace)\n",
        "",
        (f"{CLI}test_build_rejects_unusable_out_before_building",),
    ),
)


def failed_ids(output: str) -> list[str]:
    """The node ids of pytest's FAILED and ERROR summary lines (-rfE)."""
    return [line.split(" ", 1)[1].split(" - ")[0] for line in output.splitlines()
            if line.startswith(("FAILED ", "ERROR "))]


def caught_by(test: str, failed: list[str]) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def run_mutant(m: Mutant, scratch: Path) -> tuple[bool, str]:
    """(caught by every named test, detail) for one mutant in a fresh copy of src/."""
    copy = Path(tempfile.mkdtemp(dir=scratch))
    shutil.copytree(ROOT / "src", copy / "src")
    target = copy / "src" / "muxfec" / m.file
    text = target.read_text(encoding="utf-8")
    if text.count(m.old) != 1:
        return False, f"old text occurs {text.count(m.old)} times in {m.file}"
    target.write_text(text.replace(m.old, m.new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no", "-p", "no:cacheprovider",
           "-o", f"pythonpath={copy / 'src'}", *m.tests]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"pytest timed out after {TIMEOUT_S} s"
    if proc.returncode not in (0, 1):
        return False, f"pytest exited {proc.returncode}: {proc.stdout[-500:]}{proc.stderr[-500:]}"
    failed = failed_ids(proc.stdout)
    survived = [t for t in m.tests if not caught_by(t, failed)]
    if survived:
        return False, f"survives {', '.join(survived)}"
    return True, f"caught by {len(failed)} failing test(s)"


def main() -> int:
    start, bad = time.perf_counter(), 0
    with tempfile.TemporaryDirectory(prefix="muxfec-mutants-") as tmp:
        for m in MUTANTS:
            t0 = time.perf_counter()
            ok, detail = run_mutant(m, Path(tmp))
            bad += not ok
            print(f"{'caught' if ok else 'FAILED'}  {m.name}: {detail} "
                  f"[{time.perf_counter() - t0:.1f} s]", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants caught "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
