#!/usr/bin/env python3
"""Regenerate the fixed spec file that the stream workload reads.

Each spec is built in-process through ``muxfec build`` at a fixed seed and
written to ``perfbench/specs/``; the sha256 of every file is printed in the
form of ``specs/SHA256SUMS``, which the benchmark checks before each use.
The specs are committed, so a change to the code construction does not
silently change the inputs of the stream workload.

Usage (from the repository root): python3 perfbench/make_specs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from muxfec import cli  # noqa: E402

# name -> (T_v, T_u, B, N, seed)
SPECS = {
    "stream_20_10_6_2.json": (20, 10, 6, 2, 0),
}


def main() -> int:
    out_dir = HERE / "specs"
    out_dir.mkdir(exist_ok=True)
    lines = []
    for name, (tv, tu, b, n, seed) in SPECS.items():
        path = out_dir / name
        argv = ["build", "--tv", str(tv), "--tu", str(tu), "--b", str(b), "--n", str(n),
                "--seed", str(seed), "--out", str(path)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            print(f"build of {name} failed with exit code {rc}", file=sys.stderr)
            return 1
        lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}")
    (out_dir / "SHA256SUMS").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
