"""Merging two single-stream codes into one multiplexed flow.

The two constituent codewords overlap on their middle m positions:

    [ xv[0] .. xv[h-1] | xv[h]+xu[0] .. xv[h+m-1]+xu[m-1] | xu[m] .. ]

with h = k_v + B - m, which is the same as encoding [v u] by the merged
block generator

    G = [ G1[:, :h]   G1[:, h:]   0          ]
        [ 0           G2[:, :m]   G2[:, m:]  ]

Parameter selection depends on which loss mode dominates the channel:
with B >= 2N-1 (burst-dominant) the sum rate meets
(T_v-2N+2)/(T_v-2N+2+B); with B < 2N-1 (random-dominant) it meets
(T_v-B+1)/(T_v+1).  Both constructions use the full overlap m = B.

Following the structural requirement that the left
(T_v-2N+2) x (T_v-N+1) submatrix be MDS over the base field, the
less-urgent constituent G1 keeps every entry (special included) in
GF(q), while the urgent constituent G2 keeps its special element in
GF(q^2) outside GF(q).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .channel import ChannelModel
from .decoder import mux_deadlines, verify_matrix
from .galois import FieldSpec, field_sizes, next_prime
from .linalg import Matrix, is_mds
from .singlecode import BASE_SPECIAL, EXTENSION_SPECIAL, BlockCode, build_single_code

BURST_DOMINANT = "burst-dominant"
RANDOM_DOMINANT = "random-dominant"
MAX_ATTEMPTS = 64  # constituent pairs build_mux_code draws before it gives up


@dataclass(frozen=True)
class MuxParams:
    T_v: int
    T_u: int
    B: int
    N: int
    W: int
    T_u_prime: int
    T_v_prime: int
    k_v: int
    k_u: int
    m: int
    h: int
    n: int
    regime: str

    @property
    def sum_rate(self) -> Fraction:
        return Fraction(self.k_v + self.k_u, self.n)


def select_parameters(
    T_v: int,
    T_u: int,
    B: int,
    N: int,
    T_u_prime: Optional[int] = None,
    W: Optional[int] = None,
) -> MuxParams:
    """Regime-dependent message lengths and merged codeword size.

    T_u_prime defaults to T_u, which maximizes k_u.  W defaults to
    T_v + 1, the strictest window the deadline structure is analyzed
    under.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got N={N}")
    if not B > N:
        raise ValueError(f"need B > N, got B={B} N={N}")
    if not T_u > B:
        raise ValueError(f"need T_u > B, got T_u={T_u} B={B}")
    if not T_v > T_u + B:
        raise ValueError(f"need T_v > T_u + B, got T_v={T_v} T_u={T_u} B={B}")
    if T_u_prime is None:
        T_u_prime = T_u
    if not B < T_u_prime <= T_u:
        raise ValueError(f"need B < T_u_prime <= T_u, got T_u_prime={T_u_prime}")
    if W is None:
        W = T_v + 1
    if not W > T_v:
        raise ValueError(f"need W > T_v, got W={W} T_v={T_v}")
    k_u = T_u_prime - N + 1
    if B >= 2 * N - 1:
        regime = BURST_DOMINANT
        k_v = T_v - T_u_prime - N + 1
    else:
        regime = RANDOM_DOMINANT
        k_v = T_v - T_u_prime + N - B
    m = B
    h = k_v + B - m
    n = k_v + k_u + 2 * B - m
    T_v_prime = k_v + N - 1
    return MuxParams(T_v, T_u, B, N, W, T_u_prime, T_v_prime, k_v, k_u, m, h, n, regime)


@dataclass(frozen=True)
class MuxCode:
    params: MuxParams
    G: Matrix
    seed: int
    g1_seed: int
    g2_seed: int

    @property
    def field(self) -> FieldSpec:
        return self.G.field

    @property
    def g1(self) -> BlockCode:
        """The less-urgent constituent: the v rows over the first h + m columns."""
        p = self.params
        g = self.G.submatrix(range(p.k_v), range(p.h + p.m))
        return BlockCode(p.T_v_prime, p.B, p.N, g, self.g1_seed, BASE_SPECIAL)

    @property
    def g2(self) -> BlockCode:
        """The urgent constituent: the u rows over the last n - h columns."""
        p = self.params
        g = self.G.submatrix(range(p.k_v, p.k_v + p.k_u), range(p.h, p.n))
        return BlockCode(p.T_u_prime, p.B, p.N, g, self.g2_seed, EXTENSION_SPECIAL)

    @property
    def sum_rate(self) -> Fraction:
        return self.params.sum_rate

    def symbol_deadlines(self):
        p = self.params
        return mux_deadlines(p.k_v, p.k_u, p.h, p.n, p.T_v, p.T_u)

    def verification_channel(self) -> ChannelModel:
        p = self.params
        return ChannelModel(p.W, p.B, p.N)

    def left_mds_sub(self) -> Matrix:
        """The left (T_v-2N+2) x (T_v-N+1) submatrix, MDS in the burst regime."""
        p = self.params
        return self.G.submatrix(range(self.G.rows), range(p.T_v - p.N + 1))

    def encode(self, v: Sequence[int], u: Sequence[int]) -> list[int]:
        p = self.params
        if len(v) != p.k_v or len(u) != p.k_u:
            raise ValueError("message lengths must be (k_v, k_u)")
        return self.G.vec_mul(list(v) + list(u))


def assemble_merged_matrix(g1: Matrix, g2: Matrix, m: int) -> Matrix:
    """The merged block generator: encoding with it is the overlap-add of
    the two constituent codewords on m positions (module docstring)."""
    if g1.field != g2.field:
        raise ValueError("constituent codes must share one field")
    if not 0 <= m <= min(g1.cols, g2.cols):
        raise ValueError(f"merge length {m} out of range")
    h = g1.cols - m
    n = h + g2.cols
    rows = [g1.row(i) + [0] * (n - g1.cols) for i in range(g1.rows)]
    rows += [[0] * h + g2.row(i) for i in range(g2.rows)]
    return Matrix.from_rows(g1.field, rows)


def initial_prime(params: MuxParams) -> int:
    """Field headroom: the longest MDS block the construction must certify."""
    need = max(params.k_v + params.N, params.k_u + params.N)
    if params.regime == BURST_DOMINANT:
        need = max(need, params.T_v - params.N + 1)
    return next_prime(need)


def build_mux_code(params: MuxParams, seed: int = 0) -> MuxCode:
    """Build both constituents, merge, and gate on the full verification.

    The less-urgent code g1 is sized k_v x (k_v+B) with its special entry
    demoted to the base field; the urgent code g2 is k_u x (k_u+B) with
    the extension-field special.  A built code has passed: both
    constituent structural checks, the left-submatrix MDS property
    (burst-dominant regime), and exhaustive achievability of the merged
    matrix under (W, B, N).  Deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    last_failure = "no attempts made"
    for q in field_sizes(initial_prime(params), MAX_ATTEMPTS):
        s1 = rng.randrange(2**63)
        s2 = rng.randrange(2**63)
        try:
            g1 = build_single_code(
                params.T_v_prime, params.B, params.N, BASE_SPECIAL, seed=s1, q=q, max_tries=16
            )
            g2 = build_single_code(
                params.T_u_prime, params.B, params.N, EXTENSION_SPECIAL, seed=s2, q=q, max_tries=16
            )
        except RuntimeError as exc:
            last_failure = str(exc)
            continue
        merged = assemble_merged_matrix(g1.G, g2.G, params.m)
        code = MuxCode(params, merged, seed, g1.seed, g2.seed)
        if params.regime == BURST_DOMINANT and not is_mds(code.left_mds_sub()):
            last_failure = "left submatrix MDS check failed"
            continue
        result = verify_matrix(code.G, code.symbol_deadlines(), code.verification_channel())
        if not result.passed:
            last_failure = result.failure_text()
            continue
        return code
    raise RuntimeError(
        f"mux-code search exhausted {MAX_ATTEMPTS} tries for "
        f"(T_v={params.T_v}, T_u={params.T_u}, B={params.B}, N={params.N}); "
        f"last failure: {last_failure}"
    )
