#!/usr/bin/env python3
"""End-to-end demo: build the (12,6,4,2) merged code, verify it, decode
through a burst, and stream-simulate a random lossy channel.

Usage: python scripts/run_workflow.py [seed]
"""

import sys
import time

sys.path.insert(0, "src")

from muxfec.analysis import rate_report
from muxfec.channel import ErasurePattern, apply_erasure, random_erasure_sequence
from muxfec.decoder import decode_message, verify_achievable
from muxfec.muxcode import build_mux_code, select_parameters
from muxfec.stream import simulate_stream


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    params = select_parameters(T_v=12, T_u=6, B=4, N=2)
    print(f"parameters: regime={params.regime}, k_v={params.k_v}, k_u={params.k_u}, "
          f"n={params.n}, overlap m={params.m}")

    t0 = time.time()
    code = build_mux_code(params, seed=seed)
    print(f"built over GF({code.field.q}^2) in {time.time() - t0:.2f}s")

    rates = rate_report(12, 6, 4, 2)
    print(f"sum rate {rates['mux_sum_rate']} vs separate {rates['separate_sum_rate']} "
          f"(+{rates['gain_percent']}%)")

    result = verify_achievable(code)
    print(f"achievability: {'pass' if result.passed else 'FAIL'} "
          f"over {result.patterns_checked} admissible patterns (W={params.W})")

    # decode a message through the worst burst
    v, u = [3, 1, 4, 1, 5], [9, 2, 6, 5, 3]
    burst = ErasurePattern(params.n, (0, 1, 2, 3))
    received = apply_erasure(code.encode(v, u), burst)
    report = decode_message(code.G, received, burst, code.symbol_deadlines())
    got_u0 = report.result_for("u", 0)
    print(f"after burst {{0..3}}: u[0]={got_u0.value} recovered at slot {got_u0.decode_time} "
          f"(deadline {got_u0.deadline}); all met: {report.passed}")

    seq = random_erasure_sequence(10_000, code.verification_channel(), seed=seed)
    t0 = time.time()
    stream = simulate_stream(code, seq)
    print(f"stream: {stream.diagonals_checked} codewords through {stream.erased_slots} "
          f"erasures, violations={len(stream.violations)} ({time.time() - t0:.2f}s)")


if __name__ == "__main__":
    main()
