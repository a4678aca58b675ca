"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def mods():
    return run.import_package()


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def op_lines(text: str) -> list:
    """The deterministic part of the printed op lines: everything but timings."""
    out = []
    for line in text.splitlines():
        if line.startswith("op "):
            rec = json.loads(line[3:])
            rec.pop("seconds", None)
            out.append(rec)
    return out


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_named_with_unit(mods, workload, trace):
    res = run.run(workload, SEED, 0, trace, sizes=run.SMOKE, mods=mods)
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    want = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in res["metrics"].items()} == want
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())
    else:  # a layer each workload must reach through the wrappers
        busy = {"build": "muxcode.attempts", "stream": "decoder.decode_message.self_s"}
        assert res["metrics"][busy[workload]]["value"] > 0
        if workload == "stream":
            assert res["metrics"]["stream.push.calls"]["value"] == run.SMOKE.encode_slots


def test_benchmark_lists_the_metrics_the_code_emits():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.per_layer_units()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload,trace", [("build", False), ("build", True), ("stream", True)])
def test_deterministic_counts_repeat(mods, capsys, workload, trace):
    runs = []
    for _ in range(2):
        run.run(workload, SEED, 0, trace, sizes=run.SMOKE, mods=mods)
        runs.append(op_lines(capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0], "no op lines printed"
    if workload == "build":
        # the last of each kind: with tracing, the traced pass carries the search counters
        build = [op for op in runs[0] if op["kind"] == "build"][-1]
        verify = [op for op in runs[0] if op["kind"] == "verify"][-1]
        keys = ["q", "sha256"]
        if trace:
            keys += ["muxcode.attempts", "singlecode.draws", "decoder.verify_matrix.calls"]
        assert all(key in build for key in keys)
        assert verify["ok"] and verify["patterns_checked"] > 0


def _corrupt(spec_dir: Path, name: str) -> None:
    """Change one matrix entry to another field element; the spec still loads."""
    path = spec_dir / name
    d = json.loads(path.read_text(encoding="utf-8"))
    i = next(i for i, e in enumerate(d["matrix"]) if 0 < e < d["q"] - 1)
    d["matrix"][i] += 1
    path.write_text(json.dumps(d, sort_keys=True, indent=1) + "\n", encoding="utf-8")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_digest_mismatch_fails_every_operation_on_the_spec(mods, tmp_path, workload):
    shutil.copytree(run.SPEC_DIR, tmp_path / "specs")
    _corrupt(tmp_path / "specs", run.SMOKE.stream_spec)
    res = run.run(workload, SEED, 0, False, sizes=run.SMOKE, spec_dir=tmp_path / "specs",
                  mods=mods)
    assert res["correct"] is False
    # build's own builds and their verifies do not read the spec; its verify of the spec does
    on_spec = 1 if workload == "build" else res["attempted"]
    assert res["failed"] == on_spec >= 1


def test_flipped_decoded_value_fails_the_operation(mods, monkeypatch):
    original = mods["decoder"].decode_message

    def flipping(*args, **kwargs):
        report = original(*args, **kwargs)
        first = report.symbols[0]
        flipped = dataclasses.replace(first, value=first.value + 1)
        return dataclasses.replace(report, symbols=(flipped,) + report.symbols[1:])

    monkeypatch.setattr(mods["decoder"], "decode_message", flipping)
    res = run.run("stream", SEED, 0, False, sizes=run.SMOKE, mods=mods)
    assert res["correct"] is False
    assert res["failed"] == run.SMOKE.decode_diagonals
    assert res["attempted"] == run.SMOKE.decode_diagonals + 2  # plus simulate and encode


def test_tracer_restores_every_patched_name(mods):
    def snapshot():
        out = {}
        for layer, mod in mods.items():
            for attr, val in vars(mod).items():
                out[(layer, attr)] = val
                if inspect.isclass(val):
                    out.update({(layer, attr, k): v for k, v in vars(val).items()})
        return out

    before = snapshot()
    run.run("stream", SEED, 0, True, sizes=run.SMOKE, mods=mods)
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_fails_without_the_package_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "build", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
