#!/usr/bin/env python3
"""muxfec benchmark: the build and stream workloads, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload {build,stream} --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` beside this directory; nothing needs
installing.  One caller in one process runs the workload's operations in a
closed loop, each starting when the previous one returns.  A *round* is
one pass over the workload's operations, with inputs derived from
``--seed`` and the round number; rounds repeat until the next one would
overrun ``--seconds`` (at least one round runs).

Every output is checked, and an operation whose output is wrong counts as
failed.  Stdout gets one ``op`` line per operation with its deterministic
counts, ``metric`` lines with the workload's own figures, and, as the last
line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_DIR = HERE / "specs"
OUT_DIR = ROOT / ".perfbench"  # build outputs and span files; git-ignored

WORKLOADS = ("build", "stream")
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919  # a later gain claim must also hold on this seed


@dataclass(frozen=True)
class Sizes:
    """How much work one round of each workload does."""

    build_points: tuple = ((12, 6, 4, 2), (12, 6, 4, 3))
    stream_spec: str = "stream_20_10_6_2.json"  # build verifies it too: fixed work at n=20
    simulate_slots: int = 300_000
    encode_slots: int = 20_000
    decode_diagonals: int = 300
    setup_samples: int = 41


FULL = Sizes()
SMOKE = Sizes(
    build_points=((12, 6, 4, 2),),
    simulate_slots=3_000,
    encode_slots=400,
    decode_diagonals=20,
    setup_samples=3,
)

END_TO_END = {"round_s": "s", "setup_s": "s"}

# per-layer metrics of a traced run, each per traced round unless a ratio
CALL_COUNTS = (
    "linalg.is_mds", "linalg.rank", "linalg.span_add", "linalg.contains_unit",
    "linalg.solve_for_unit", "channel.enumerate", "channel.is_admissible",
    "channel.restrict", "singlecode.build", "decoder.verify_matrix",
    "decoder.check_pattern", "stream.push",
)
TOTAL_TIMES = (
    "linalg.is_mds", "linalg.span_add", "linalg.contains_unit", "linalg.solve_for_unit",
    "channel.enumerate", "channel.is_admissible", "channel.random_sequence",
    "channel.restrict", "decoder.verify_matrix", "decoder.check_pattern",
    "stream.simulate", "stream.push", "codespec.load", "codespec.save",
    "analysis.rate_report",
)
SELF_TIMES = (
    "singlecode.build", "muxcode.build", "decoder.verify_matrix", "decoder.decode_message",
)
SEARCH_COUNTS = (
    "channel.patterns_maximal", "singlecode.draws", "singlecode.reject.g1_mds",
    "singlecode.reject.g2_mds", "singlecode.reject.special_field",
    "singlecode.reject.achievability", "muxcode.attempts", "muxcode.reject.constituent",
    "muxcode.reject.left_mds", "muxcode.reject.achievability", "decoder.patterns_checked",
)


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in output order."""
    units = {f"galois.{op}.calls": "count" for op in ("mul", "addsub", "inv")}
    units.update({f"{n}.calls": "count" for n in CALL_COUNTS})
    units.update({f"{n}.s": "s" for n in TOTAL_TIMES})
    units.update({f"{n}.self_s": "s" for n in SELF_TIMES})
    units.update({n: "count" for n in SEARCH_COUNTS})
    units.update({
        "singlecode.structure_pass_ratio": "ratio",
        "muxcode.attempt_pass_ratio": "ratio",
        "muxcode.final_q": "q",
        "stream.cache_miss_ratio": "ratio",
    })
    for layer in LAYERS[1:]:
        units.update({f"{layer}.calls": "count", f"{layer}.s": "s", f"{layer}.self_s": "s"})
    units["trace.overhead_ratio"] = "ratio"
    return units


class SetupError(Exception):
    """The benchmark cannot run here: no sources, or inputs that do not load."""


@dataclass
class Op:
    kind: str
    seconds: float
    ok: bool
    counts: dict = field(default_factory=dict)


def derive(seed: int, *labels) -> int:
    """A 32-bit seed for one input, derived from the workload seed."""
    text = ":".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def import_package() -> dict:
    """Import muxfec from the checkout's src/, never from anywhere else."""
    init = SRC / "muxfec" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"muxfec sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {layer: importlib.import_module(f"muxfec.{layer}") for layer in LAYERS}
    if Path(sys.modules["muxfec"].__file__).resolve() != init.resolve():
        raise SetupError("muxfec was imported from outside the checkout's src/")
    return mods


_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import muxfec.cli
from muxfec import codespec
for path in sys.argv[2:]:
    codespec.load(path)
print(time.perf_counter() - t0)
"""


class SetupTimer:
    """Package import plus loading the specs, timed in fresh interpreters.

    The samples are spread over the run, and the figure is the fastest of
    them: host noise only ever adds time to a ~40 ms sample, and a slow
    stretch of a few seconds would hold back every sample taken inside it.
    """

    def __init__(self, spec_paths: list):
        self.argv = [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC), *map(str, spec_paths)]
        self.times: list[float] = []

    def sample_until(self, count: int) -> None:
        while len(self.times) < count:
            try:
                proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=120,
                                      check=True)
            except subprocess.CalledProcessError as exc:
                raise SetupError(f"set-up failed: {exc.stderr.strip()}") from exc
            self.times.append(float(proc.stdout.split()[-1]))

    def value(self) -> float:
        return min(self.times)


def read_digests(spec_dir: Path) -> dict:
    digests = {}
    for line in (spec_dir / "SHA256SUMS").read_text(encoding="utf-8").splitlines():
        if line.strip():
            digest, name = line.split()
            digests[name] = digest
    return digests


def expected_params(tv: int, tu: int, b: int, n: int) -> tuple:
    """(k_v, k_u, n) of the merged code, from the paper's rate formulas."""
    k_u = tu - n + 1
    k_v = tv - tu - n + 1 if b >= 2 * n - 1 else tv - tu + n - b
    return k_v, k_u, k_v + k_u + b


class Bench:
    """One workload's rounds, their checks, and the figures they give."""

    def __init__(self, workload: str, seed: int, sizes: Sizes, spec_dir: Path, mods: dict,
                 tmp: Path):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.spec_dir = spec_dir
        self.mods = mods
        self.tmp = tmp
        self.ops: list[Op] = []
        self.tracer: Optional[Tracer] = None
        self.spec_names = (sizes.stream_spec,)
        digests = read_digests(spec_dir)
        self.digest_ok = {
            name: digests.get(name) == sha256_file(spec_dir / name) for name in self.spec_names
        }
        try:
            self.codes = {n: mods["codespec"].load(spec_dir / n) for n in self.spec_names}
        except (OSError, ValueError) as exc:
            raise SetupError(f"cannot load a spec: {exc}") from exc

    # -- calling the program ----------------------------------------------------

    def _call(self, kind: str, layer: str, attr: str, *args) -> tuple:
        """Time layer.attr(*args); with a tracer, as one traced operation.

        The function is looked up after patching, so a traced call goes
        through its wrapper.
        """
        if self.tracer is None:
            fn = getattr(self.mods[layer], attr)
            t0 = time.perf_counter()
            result = fn(*args)
            return result, time.perf_counter() - t0
        self.tracer.patch()
        try:
            fn = getattr(self.mods[layer], attr)
            t0 = time.perf_counter()
            result = self.tracer.run_op(f"bench.{kind}", fn, *args)
            return result, time.perf_counter() - t0
        finally:
            self.tracer.unpatch()

    def _cli(self, kind: str, argv: list) -> tuple:
        """(exit code, stdout, seconds) of one in-process muxfec command."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc, dt = self._call(kind, "cli", "main", argv)
        return rc, out.getvalue(), dt

    def _record(self, kind: str, seconds: float, ok: bool, counts: dict) -> Op:
        op = Op(kind, seconds, ok, counts)
        self.ops.append(op)
        print("op " + json.dumps({"kind": kind, "ok": ok, "seconds": seconds, **counts}))
        return op

    def _guarded(self, kind: str, fn: Callable, *args):
        """Run one operation with its check; an exception is a failed operation."""
        try:
            return fn(*args)
        except Exception:  # the round must go on; the traceback goes to stderr
            traceback.print_exc()
            self._record(kind, 0.0, False, {"error": True})
            return None

    # -- rounds -----------------------------------------------------------------

    def round(self, r: int) -> list:
        """One pass over the workload's operations; returns the Op records it made."""
        start = len(self.ops)
        getattr(self, f"_round_{self.workload}")(r)
        return self.ops[start:]

    def _round_build(self, r: int) -> None:
        for point in self.sizes.build_points:
            self._guarded("build", self._build, point, r)
        name = self.sizes.stream_spec
        self._guarded("verify", self._verify, self.spec_dir / name, self.digest_ok[name])

    def _build(self, point: tuple, r: int) -> None:
        tv, tu, b, n = point
        s = derive(self.seed, "build", *point, r)
        out = self.tmp / f"build-{tv}-{tu}-{b}-{n}-{s}.json"
        argv = ["build", "--tv", str(tv), "--tu", str(tu), "--b", str(b), "--n", str(n),
                "--seed", str(s), "--out", str(out)]
        before = self.tracer.search_counts() if self.tracer else {}
        rc, stdout, dt = self._cli("build", argv)
        counts = {"point": list(point), "seed": s}
        if self.tracer:
            after = self.tracer.search_counts()
            counts.update({k: after[k] - before.get(k, 0) for k in sorted(after)
                           if after[k] != before.get(k, 0)})
        ok = rc == 0
        if ok:
            report = json.loads(stdout)
            k_v, k_u, nn = expected_params(*point)
            code = self.mods["codespec"].load(out)
            counts.update(q=report["q"], sha256=sha256_file(out))
            ok = (
                (report["k_v"], report["k_u"], report["n"], report["seed"]) == (k_v, k_u, nn, s)
                and (code.params.k_v, code.params.k_u, code.params.n) == (k_v, k_u, nn)
                and code.field.q == report["q"]
            )
        self._record("build", dt, ok, counts)
        if rc == 0:
            self._guarded("verify", self._verify, out, True)

    def _verify(self, spec: Path, digest_ok: bool) -> None:
        """Verify a spec exhaustively, as ``muxfec verify`` in one process."""
        rc, stdout, dt = self._cli("verify", ["verify", str(spec), "--jobs", "1"])
        p = self.mods["codespec"].load(spec).params
        counts = {"point": [p.T_v, p.T_u, p.B, p.N]}
        if rc in (0, 2):
            report = json.loads(stdout)
            counts["patterns_checked"] = report["patterns_checked"]
        self._record("verify", dt, digest_ok and rc == 0 and report["passed"] is True, counts)

    def _round_stream(self, r: int) -> None:
        name = self.sizes.stream_spec
        code = self.codes[name]
        self._guarded("simulate", self._simulate, name, code, r)
        msgs = self._messages(code, derive(self.seed, "messages", r))
        packets = self._guarded("encode", self._encode, name, code, msgs)
        if packets is not None and len(packets) == len(msgs):
            self._guarded("decode", self._decode, name, code, msgs, packets, r)

    def _simulate(self, name: str, code, r: int) -> None:
        slots = self.sizes.simulate_slots
        s = derive(self.seed, "simulate", r)
        argv = ["simulate", str(self.spec_dir / name), "--slots", str(slots), "--seed", str(s)]
        before = self.tracer.search_counts() if self.tracer else {}
        rc, stdout, dt = self._cli("simulate", argv)
        counts = {"seed": s}
        ok = rc == 0 and self.digest_ok[name]
        if rc in (0, 2):
            rep = json.loads(stdout)
            counts.update(erased_slots=rep["erased_slots"],
                          diagonals_checked=rep["diagonals_checked"],
                          violations=len(rep["violations"]))
            ok = ok and rep["passed"] is True and rep["slots"] == slots and not rep["violations"] \
                and rep["diagonals_checked"] == slots - code.params.n + 1
        if self.tracer:
            key = "stream.distinct_patterns"
            after = self.tracer.search_counts()
            counts["distinct_patterns"] = after.get(key, 0) - before.get(key, 0)
        self._record("simulate", dt, ok, counts)

    def _messages(self, code, s: int) -> list:
        p = code.params
        order = code.field.order
        rng = random.Random(s)
        return [
            ([rng.randrange(order) for _ in range(p.k_v)],
             [rng.randrange(order) for _ in range(p.k_u)])
            for _ in range(self.sizes.encode_slots)
        ]

    def _encode(self, name: str, code, msgs: list) -> list:
        packets, dt = self._call("encode", "stream", "stream_encode", msgs, code)
        digest = hashlib.sha256(json.dumps(packets).encode()).hexdigest()
        ok = self.digest_ok[name] and len(packets) == len(msgs) and all(
            len(pk) == code.params.n for pk in packets
        )
        self._record("encode", dt, ok, {"packets": len(packets), "sha256": digest})
        return packets

    def _decode(self, name: str, code, msgs: list, packets: list, r: int) -> None:
        """Decode evenly spaced complete diagonals and check every value against the message."""
        p = code.params
        n, order = p.n, code.field.order
        channel = self.mods["channel"]
        erasures = channel.random_erasure_sequence(
            len(packets), code.verification_channel(), derive(self.seed, "erasures", r)
        )
        deadlines = code.symbol_deadlines()
        last = len(packets) - n  # the last diagonal whose n slots were all sent
        count = min(self.sizes.decode_diagonals, last + 1)
        starts = sorted({round(i * last / max(1, count - 1)) for i in range(count)})
        first, erased_lanes, seconds = len(self.ops), 0, 0.0
        for d in starts:
            local = erasures.restrict(d, n)
            erased_lanes += len(local.erased)
            received = [channel.ERASURE_MARK if j in local else packets[d + j][j] for j in range(n)]
            report, dt = self._call("decode", "decoder", "decode_message", code.G, received, local,
                                    deadlines)
            seconds += dt
            sent = {("v", i): msgs[d + i][0][i] % order for i in range(p.k_v)}
            sent.update({("u", i): msgs[d + p.h + i][1][i] % order for i in range(p.k_u)})
            ok = self.digest_ok[name] and len(report.symbols) == len(sent) and all(
                s.met and s.value == sent[(s.kind, s.index)] for s in report.symbols
            )
            self.ops.append(Op("decode", dt, ok))  # no line each: 300 would swamp stdout
        summary = {"kind": "decode", "round": r, "seconds": seconds, "diagonals": len(starts),
                   "erased_lanes": erased_lanes,
                   "failed": sum(not op.ok for op in self.ops[first:])}
        print("op " + json.dumps(summary))


def workload_figures(workload: str, sizes: Sizes, rounds: list) -> dict:
    """The workload's own end-to-end figures: name -> (value, unit)."""
    ops = [op for ops in rounds for op in ops]
    by_kind: dict[str, list] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op.seconds)
    out = {}
    if workload == "build":
        for kind in ("build", "verify"):
            points = sorted({tuple(op.counts["point"]) for op in ops
                             if op.kind == kind and "point" in op.counts})
            for point in points:
                times = [op.seconds for op in ops
                         if op.kind == kind and op.counts.get("point") == list(point)]
                out[f"{kind}_{'_'.join(map(str, point))}_mean_s"] = (statistics.mean(times), "s")
            if kind in by_kind:
                out[f"{kind}_per_round_s"] = (sum(by_kind[kind]) / len(rounds), "s")
    else:
        if "simulate" in by_kind:
            out["simulate_slots_per_s"] = (
                sizes.simulate_slots / statistics.median(by_kind["simulate"]), "1/s")
        if "encode" in by_kind:
            out["encode_slots_per_s"] = (sizes.encode_slots / statistics.median(by_kind["encode"]),
                                         "1/s")
        if "decode" in by_kind:
            ms = [s * 1e3 for s in by_kind["decode"]]
            out["decode_ms_p50"] = (statistics.median(ms), "ms")
            out["decode_ms_p90"] = (statistics.quantiles(ms, n=10, method="inclusive")[-1], "ms")
            out["decode_samples"] = (len(ms), "count")
    out["round_s"] = (round_figure(workload, rounds), "s")
    out["fail_ratio"] = (sum(not op.ok for op in ops) / max(1, len(ops)), "ratio")
    return out


def round_seconds(rounds: list) -> list:
    return [sum(op.seconds for op in ops) for ops in rounds]


def round_figure(workload: str, rounds: list) -> float:
    """The mean round for build, whose rounds differ by their seeds' draw luck,
    and the median round for stream, whose rounds repeat the same work."""
    average = statistics.mean if workload == "build" else statistics.median
    return average(round_seconds(rounds))


def layer_metrics(tr: Tracer, rounds: int, overhead: float) -> dict:
    """Per-layer metrics from a tracer's totals, per traced round."""
    units = per_layer_units()
    c = tr.search_counts()
    attempts = c["muxcode.attempts"]
    draws = c.get("singlecode.draws", 0)
    values = {f"galois.{op}.calls": tr.galois[op] for op in ("mul", "addsub", "inv")}
    values.update({f"{n}.calls": tr.calls[n] for n in CALL_COUNTS})
    values.update({f"{n}.s": tr.total_s[n] for n in TOTAL_TIMES})
    values.update({f"{n}.self_s": tr.self_s[n] for n in SELF_TIMES})
    values.update({n: c.get(n, 0) for n in SEARCH_COUNTS})
    for layer in LAYERS[1:]:
        mine = [n for n in tr.calls if n.split(".", 1)[0] == layer]
        values[f"{layer}.calls"] = sum(tr.calls[n] for n in mine)
        values[f"{layer}.s"] = tr.layer_total_s[layer]
        values[f"{layer}.self_s"] = sum(tr.self_s[n] for n in mine)
    values = {k: v / rounds for k, v in values.items()}
    values["singlecode.structure_pass_ratio"] = (
        c.get("singlecode.structure_pass", 0) / max(1, draws))
    values["muxcode.attempt_pass_ratio"] = c.get("muxcode.built", 0) / max(1, attempts)
    values["muxcode.final_q"] = c.get("muxcode.q_sum", 0) / max(1, c.get("muxcode.built", 0))
    values["stream.cache_miss_ratio"] = c.get("stream.distinct_patterns", 0) / max(
        1, c.get("stream.diagonals", 0))
    values["trace.overhead_ratio"] = overhead
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL,
        spec_dir: Path = SPEC_DIR, mods: Optional[dict] = None) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    if workload not in WORKLOADS:
        raise SetupError(f"unknown workload {workload!r}")
    mods = mods or import_package()
    OUT_DIR.mkdir(exist_ok=True)
    start = time.perf_counter()  # set-up counts against --seconds
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="run-") as tmp:
        bench = Bench(workload, seed, sizes, spec_dir, mods, Path(tmp))
        setup = SetupTimer([spec_dir / n for n in bench.spec_names])
        setup.sample_until(max(1, sizes.setup_samples // 8))
        print("info " + json.dumps({
            "workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "digests_ok": bench.digest_ok,
        }))
        tracer = Tracer({layer: mods[layer] for layer in LAYERS}) if trace else None
        plain, traced, walls = [], [], []
        r = 0
        while True:
            w0 = time.perf_counter()
            bench.tracer = None
            plain.append(bench.round(r))
            if tracer is not None:
                bench.tracer = tracer
                traced.append(bench.round(r))
                bench.tracer = None
                _compare_passes(plain[-1], traced[-1])
            walls.append(time.perf_counter() - w0)
            r += 1
            share = (time.perf_counter() - start) / seconds if seconds > 0 else 1.0
            setup.sample_until(min(sizes.setup_samples, int(sizes.setup_samples * share)))
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
        setup.sample_until(sizes.setup_samples)
        for name, (value, unit) in workload_figures(workload, sizes, plain).items():
            print(f"metric {name} {value:.6g} {unit}")
        if tracer is not None:
            spans_path = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
            n_spans = tracer.write_spans(spans_path)
            print("info " + json.dumps({"spans": n_spans, "traced_rounds": len(traced),
                                        "spans_file": str(spans_path.relative_to(ROOT))}))
            overhead = sum(round_seconds(traced)) / max(1e-12, sum(round_seconds(plain)))
            metrics = layer_metrics(tracer, len(traced), overhead)
        else:
            metrics = {
                "round_s": {"value": round_figure(workload, plain), "unit": "s"},
                "setup_s": {"value": setup.value(), "unit": "s"},
            }
    failed = sum(not op.ok for op in bench.ops)
    return {"correct": failed == 0, "attempted": len(bench.ops), "failed": failed,
            "metrics": metrics}


def _compare_passes(plain: list, traced: list) -> None:
    """Tracing must not change any output: a traced op whose counts differ fails."""
    for a, b in zip(plain, traced):
        shared = {k for k in a.counts if k in b.counts}
        if any(a.counts[k] != b.counts[k] for k in shared):
            b.ok = False
            print("op " + json.dumps({"kind": b.kind, "ok": False, "traced_output_differs": True}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; a gain claim must also hold"
                         f" on the held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
