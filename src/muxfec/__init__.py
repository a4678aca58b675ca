"""Multiplexed streaming erasure codes for two deadline classes.

An urgent stream (deadline T_u) and a less urgent stream (deadline T_v,
T_v > T_u + B) are jointly encoded into one packet flow that survives either
one burst erasure of length <= B or up to N arbitrary erasures per sliding
window of length W.  The package provides the code constructions, a generic
deadline-aware linear decoder, exhaustive achievability verification, rate
analysis against the separate-encoding baseline, and a streaming simulator.
"""

__version__ = "0.1.0"

from .galois import FieldSpec
from .linalg import Matrix, is_mds
from .channel import (
    ChannelModel,
    ErasurePattern,
    apply_erasure,
    enumerate_admissible_patterns,
    is_admissible,
    random_erasure_sequence,
)
from .singlecode import BlockCode, build_single_code, verify_single_structure
from .muxcode import (
    MuxCode,
    MuxParams,
    build_mux_code,
    select_parameters,
)
from .decoder import DecodeReport, decode_message, verify_achievable
from .analysis import (
    capacity,
    gain_table,
    mux_sum_rate,
    rate_report,
    separate_sum_rate,
)
from .stream import simulate_stream, stream_encode

__all__ = [
    "BlockCode",
    "ChannelModel",
    "DecodeReport",
    "ErasurePattern",
    "FieldSpec",
    "Matrix",
    "MuxCode",
    "MuxParams",
    "apply_erasure",
    "build_mux_code",
    "build_single_code",
    "capacity",
    "decode_message",
    "enumerate_admissible_patterns",
    "gain_table",
    "is_admissible",
    "is_mds",
    "mux_sum_rate",
    "random_erasure_sequence",
    "rate_report",
    "select_parameters",
    "separate_sum_rate",
    "simulate_stream",
    "stream_encode",
    "verify_achievable",
    "verify_single_structure",
]
