"""Code-spec files: the on-disk JSON form of a built merged code.

A spec file carries everything needed to reuse the code (field, merged
matrix) and to reproduce the build bit-for-bit (parameters plus the
master seed).  Serialization is canonical (sorted keys, fixed
separators) so identical builds give byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from . import __version__
from .galois import FieldSpec
from .linalg import Matrix
from .muxcode import MuxCode, MuxParams, select_parameters


def spec_dict(code: MuxCode) -> dict:
    p = code.params
    return {
        "T_v": p.T_v,
        "T_u": p.T_u,
        "B": p.B,
        "N": p.N,
        "W": p.W,
        "T_u_prime": p.T_u_prime,
        "regime": p.regime,
        "seed": code.seed,
        "g1_seed": code.g1_seed,
        "g2_seed": code.g2_seed,
        "q": code.field.q,
        "ext_poly": list(code.field.ext_poly()),
        "matrix": list(code.G.data),
        "provenance": {"tool": "muxfec", "version": __version__},
    }


def dumps(code: MuxCode) -> str:
    return json.dumps(spec_dict(code), sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def save(code: MuxCode, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps(code), encoding="utf-8")


def params_from_dict(d: dict) -> MuxParams:
    return select_parameters(
        d["T_v"], d["T_u"], d["B"], d["N"], T_u_prime=d.get("T_u_prime"), W=d.get("W")
    )


def load(path: Union[str, Path]) -> MuxCode:
    """Rehydrate a MuxCode from a spec file (matrix taken as stored)."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        d = json.loads(text)
    except RecursionError as exc:
        raise ValueError("malformed code spec: JSON nested too deeply") from exc
    try:
        # exactly int: a bool passes isinstance(e, int), a float breaks the field ops
        seed = d["seed"]
        g1_seed, g2_seed = d.get("g1_seed", seed), d.get("g2_seed", seed)
        ints = [d[k] for k in ("T_v", "T_u", "B", "N", "q")] + [seed, g1_seed, g2_seed]
        ints += [d[k] for k in ("W", "T_u_prime") if d.get(k) is not None]
        if any(type(e) is not int for e in [*ints, *d["ext_poly"], *d["matrix"]]):
            raise ValueError("malformed code spec: entries must be integers")
        params = params_from_dict(d)
        if d["regime"] != params.regime:
            raise ValueError(f"malformed code spec: regime should be {params.regime!r}")
        if len(d["ext_poly"]) != 2:
            raise ValueError("malformed code spec: ext_poly must be [c1, c0]")
        field = FieldSpec(d["q"], *d["ext_poly"])
        merged = Matrix(params.k_v + params.k_u, params.n, field, tuple(d["matrix"]))
        return MuxCode(params, merged, seed, g1_seed, g2_seed)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed code spec: {exc}") from exc
