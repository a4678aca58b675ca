import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from muxfec import cli, codespec, muxcode
from muxfec.cli import main
from muxfec.galois import PRIME_LIMIT
from muxfec.muxcode import build_mux_code


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "example.json"
    rc = main(["build", "--tv", "12", "--tu", "6", "--b", "4", "--n", "2",
               "--seed", "0", "--out", str(path)])
    assert rc == 0
    return path


def test_build_report_contents(capsys, tmp_path):
    out_path = tmp_path / "code.json"
    rc, out, err = run_cli(
        capsys, "build", "--tv", "12", "--tu", "6", "--b", "4", "--n", "2",
        "--seed", "0", "--out", str(out_path),
    )
    assert rc == 0
    report = json.loads(out)
    assert report["n"] == 14
    assert report["k_v"] == 5 and report["k_u"] == 5
    assert report["sum_rate"] == "10/14"
    assert report["sum_rate_decimal"] == "0.7143"
    assert report["separate_rate_decimal"] == "0.6444"
    assert report["gain_percent"] == "10.9"
    assert out_path.exists()


def test_build_usage_error(capsys):
    # T_v <= T_u + B
    rc, out, err = run_cli(capsys, "build", "--tv", "11", "--tu", "6", "--b", "5", "--n", "2")
    assert rc == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "usage"
    assert "T_u + B" in payload["detail"]


def test_build_deterministic_bytes(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        rc = main(["build", "--tv", "12", "--tu", "6", "--b", "4", "--n", "2",
                   "--seed", "3", "--out", str(p)])
        assert rc == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_spec_round_trip_reproduces_matrix(spec_file):
    code = codespec.load(spec_file)
    d = json.loads(spec_file.read_text())
    rebuilt = build_mux_code(codespec.params_from_dict(d), seed=d["seed"])
    assert rebuilt.G == code.G
    assert rebuilt.field == code.field


def test_verify_pass(capsys, spec_file):
    rc, out, err = run_cli(capsys, "verify", str(spec_file), "--jobs", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["W"] == 13
    assert payload["patterns_checked"] > 0


def test_verify_larger_window_still_passes(capsys, spec_file):
    # a larger W only weakens the adversary
    rc, out, _ = run_cli(capsys, "verify", str(spec_file), "--w", "20", "--jobs", "1")
    assert rc == 0


def test_verify_detects_mutated_spec(capsys, spec_file, tmp_path):
    d = json.loads(spec_file.read_text())
    code = codespec.load(spec_file)
    # zero one entry inside the left MDS submatrix: column 6 of the v rows
    d["matrix"][0 * code.params.n + 6] = 0
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(d))
    rc, out, err = run_cli(capsys, "verify", str(broken), "--jobs", "1")
    assert rc == 2
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["counterexample"]
    assert payload["report"]["symbols"]


def test_verify_malformed_spec(capsys, spec_file, tmp_path):
    good = json.loads(spec_file.read_text())
    bad = tmp_path / "bad.json"
    for d in (
        {"T_v": 12},
        {**good, "ext_poly": good["ext_poly"] + [1]},  # only [c1, c0] is read
        {**good, "ext_poly": good["ext_poly"][:1]},
        {**good, "regime": "random-dominant"},  # (12,6,4,2) is burst-dominant
    ):
        bad.write_text(json.dumps(d))
        with pytest.raises(ValueError, match="malformed code spec"):
            codespec.load(bad)
        rc, out, err = run_cli(capsys, "verify", str(bad))
        assert rc == 1 and out == ""
        assert json.loads(err)["error"] == "usage"


def test_verify_rejects_undecided_field_size(capsys, spec_file, tmp_path):
    d = json.loads(spec_file.read_text())
    d["q"] = PRIME_LIMIT  # composite, but passes every Miller-Rabin base used
    bad = tmp_path / "huge_q.json"
    bad.write_text(json.dumps(d))
    rc, out, err = run_cli(capsys, "verify", str(bad))
    assert rc == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "usage" and "only decided below" in payload["detail"]


@pytest.mark.parametrize("key,index,value", [
    ("matrix", 0, 1.0),
    ("matrix", 5, True),
    ("matrix", 7, "3"),
    ("ext_poly", 1, 2.0),
    ("W", None, 13.0),
    ("T_u", None, 6.0),
    ("seed", None, "x"),
    ("g1_seed", None, 1.5),
    ("g2_seed", None, True),
    ("g2_seed", None, None),
])
def test_spec_entries_must_be_int(capsys, spec_file, tmp_path, key, index, value):
    d = json.loads(spec_file.read_text())
    if index is None:
        d[key] = value
    else:
        d[key][index] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="must be integers"):
        codespec.load(bad)
    rc, out, err = run_cli(capsys, "verify", str(bad), "--jobs", "1")
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize("edit,reason", [
    (lambda d: {**d, "matrix": [d["q"] ** 2] + d["matrix"][1:]}, "entry out of field range"),
    (lambda d: {**d, "matrix": [-1] + d["matrix"][1:]}, "entry out of field range"),
    (lambda d: {**d, "matrix": d["matrix"][:-1]}, "entry count does not match"),
    (lambda d: {**d, "ext_poly": [d["q"], d["ext_poly"][1]]}, "must be reduced mod q"),
    (lambda d: {**d, "ext_poly": [0, 0]}, "not irreducible"),
    (lambda d: {**d, "q": 15}, "q must be prime"),
    (lambda d: {**d, "W": d["T_v"]}, "need W > T_v"),
    (lambda d: {**d, "N": 0}, "need N >= 1"),
    (lambda d: {**d, "T_u_prime": d["T_u"] + 1}, "need B < T_u_prime <= T_u"),
], ids=["entry-too-large", "entry-negative", "entry-missing", "ext-poly-unreduced",
        "ext-poly-reducible", "q-composite", "w-equals-tv", "n-zero", "tu-prime-above-tu"])
def test_verify_rejects_invalid_spec_values(capsys, spec_file, tmp_path, edit, reason):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(json.loads(spec_file.read_text()))))
    rc, out, err = run_cli(capsys, "verify", str(bad))
    assert rc == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "usage" and reason in payload["detail"]


def test_verify_report_file(capsys, spec_file, tmp_path):
    report = tmp_path / "report.json"
    rc, out, _ = run_cli(capsys, "verify", str(spec_file), "--report", str(report), "--jobs", "1")
    assert rc == 0
    assert json.loads(report.read_text())["passed"] is True


@pytest.mark.parametrize("argv", [
    ["build", "--tv", "12", "--tu", "6", "--b", "4", "--n", "2", "--seed", "0", "--out"],
    ["verify", "{spec}", "--report"],
    ["simulate", "{spec}", "--slots", "100", "--trace"],
], ids=lambda argv: argv[0])
def test_unwritable_output_path(capsys, spec_file, tmp_path, argv):
    target = tmp_path / "missing" / "out.json"
    argv = [a.format(spec=spec_file) for a in argv] + [str(target)]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "usage" and str(target) in payload["detail"]
    assert not target.parent.exists()


@pytest.mark.parametrize("where", ["missing_parent", "directory"])
def test_build_rejects_unusable_out_before_building(capsys, spec_file, tmp_path, monkeypatch,
                                                    where):
    """Every output path is checked before the command's work starts:
    build --out, verify --report and simulate --trace."""
    commands = [
        ("build_mux_code", ["build", "--tv", "12", "--tu", "6", "--b", "4", "--n", "2",
                            "--seed", "0", "--out"]),
        ("verify_achievable", ["verify", str(spec_file), "--report"]),
        ("random_erasure_sequence", ["simulate", str(spec_file), "--slots", "100", "--trace"]),
    ]
    target = tmp_path / "missing" / "out.json" if where == "missing_parent" else tmp_path
    for work, argv in commands:
        def no_work(*args, work=work, **kwargs):
            raise AssertionError(f"{work} ran before the output path was checked")

        monkeypatch.setattr(cli, work, no_work)
        rc, out, err = run_cli(capsys, *argv, str(target))
        assert rc == 1 and out == "", argv[0]
        payload = json.loads(err)
        assert payload["error"] == "usage" and str(target) in payload["detail"]


def test_deeply_nested_spec_is_malformed(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    for text in ("[" * 100_000, '{"a": ' * 100_000):
        deep.write_text(text)
        with pytest.raises(ValueError, match="malformed code spec"):
            codespec.load(deep)
        for command in ("verify", "simulate", "dump"):
            rc, out, err = run_cli(capsys, command, str(deep))
            assert rc == 1 and out == ""
            payload = json.loads(err)
            assert payload["error"] == "usage" and "malformed code spec" in payload["detail"]


def test_rates_table_reproduction_csv(capsys):
    rc, out, _ = run_cli(
        capsys, "rates", "--b", "9", "--n", "3",
        "--tv-range", "20:25", "--tu-range", "10:15", "--csv",
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("T_v/T_u,10,11,12,13,14,15")
    assert lines[1].startswith("20,12.55,,,,,")
    assert "12.60" in lines[2]
    assert "9.44" in lines[6]


def test_rates_single_cell_json(capsys):
    rc, out, _ = run_cli(
        capsys, "rates", "--b", "4", "--n", "2", "--tv-range", "12:12", "--tu-range", "6:6",
    )
    assert rc == 0
    payload = json.loads(out)
    [cell] = payload["cells"]
    # exact-rational gain for the worked example (the prose's 10.9 comes
    # from recomputing with 4-decimal rounded rates; see the build report)
    assert cell["gain_percent"] == 10.84
    assert cell["mux_sum_rate"] == "0.7143"


def test_rates_exact_flag(capsys):
    rc, out, _ = run_cli(
        capsys, "rates", "--b", "4", "--n", "2", "--tv-range", "12:12", "--tu-range", "6:6",
        "--exact",
    )
    payload = json.loads(out)
    [cell] = payload["cells"]
    assert cell["mux_sum_rate"] == "5/7"
    assert cell["separate_sum_rate"] == "29/45"


def test_rates_empty_cell_regime_boundary(capsys):
    rc, out, _ = run_cli(
        capsys, "rates", "--b", "4", "--n", "2", "--tv-range", "10:10", "--tu-range", "6:6",
        "--csv",
    )
    assert rc == 0
    assert out.strip().split("\n")[1].startswith("10,,")


@pytest.mark.parametrize("b,n,tv_lo,tv_hi,tu_range,flags", [
    (4, 2, 9, 12, "5:6", ["--csv"]),
    (9, 3, 5, 25, "10:15", ["--csv", "--exact"]),
], ids=["decimal", "exact"])
def test_rates_csv_leaves_undefined_rates_empty(capsys, b, n, tv_lo, tv_hi, tu_range, flags):
    """capacity_v needs T_v >= B and sum_rate_bound T_v >= 2B+2; elsewhere the field is empty."""
    def csv_lines(tv_range):
        rc, out, err = run_cli(capsys, "rates", "--b", str(b), "--n", str(n),
                               "--tv-range", tv_range, "--tu-range", tu_range, *flags)
        assert rc == 0 and err == ""
        return out.splitlines()

    header, *rows = csv_lines(f"{tv_lo}:{tv_hi}")
    assert header.endswith(",capacity_v,sum_rate_bound")
    assert [row.split(",")[0] for row in rows] == [str(tv) for tv in range(tv_lo, tv_hi + 1)]
    for tv, row in zip(range(tv_lo, tv_hi + 1), rows):
        *_, cap, bound = row.split(",")
        assert (cap == "") == (tv < b) and (bound == "") == (tv < 2 * b + 2)
    # the rows where every rate is defined are the table of that range alone
    lo = 2 * b + 2
    assert [header, *rows[lo - tv_lo:]] == csv_lines(f"{lo}:{tv_hi}")


def test_rates_bad_range(capsys):
    rc, out, err = run_cli(capsys, "rates", "--b", "9", "--n", "3",
                           "--tv-range", "25:20", "--tu-range", "10:15")
    assert rc == 1
    assert json.loads(err)["error"] == "usage"


def test_rates_bad_channel(capsys):
    rc, _, err = run_cli(capsys, "rates", "--b", "2", "--n", "2",
                         "--tv-range", "12:12", "--tu-range", "6:6")
    assert rc == 1


def usage_detail(rc, out, err) -> str:
    """The detail of a usage error: exit 1, nothing on stdout, one JSON object on stderr."""
    assert rc == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "usage"
    return payload["detail"]


@pytest.mark.parametrize("argv,named", [
    (["build", "--tv", "abc"], "'abc'"),
    (["build", "--tu", "6", "--b", "4", "--n", "2"], "--tv"),
    (["verify"], "spec"),
    (["rates", "--b", "9", "--n", "3", "--tv-range", "20:25", "--tu-range", "10:15",
      "--csv", "--json"], "--csv"),
], ids=["bad-int", "missing-tv", "verify-no-spec", "csv-and-json"])
def test_argument_errors_are_json(capsys, argv, named):
    detail = usage_detail(*run_cli(capsys, *argv))
    assert detail.startswith(f"muxfec {argv[0]}: ") and named in detail


def test_help_and_version_print_to_stdout(capsys):
    rc, out, err = run_cli(capsys, "--version")
    assert rc == 0 and out.startswith("muxfec ") and err == ""
    rc, out, err = run_cli(capsys, "build", "--help")
    assert rc == 0 and out.startswith("usage: muxfec build") and err == ""


def test_env_seed_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("MUXFEC_SEED", "abc")
    rc, out, err = run_cli(capsys, "build", "--tv", "12", "--tu", "6", "--b", "4", "--n", "2")
    assert usage_detail(rc, out, err) == "MUXFEC_SEED is not an integer: 'abc'"


def test_rates_single_value_range(capsys):
    argv = ["rates", "--b", "4", "--n", "2", "--tv-range", "12", "--tu-range", "6"]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["tv_values"] == [12] and payload["tu_values"] == [6]
    assert run_cli(capsys, *argv[:6], "12:12", "--tu-range", "6:6") == (0, out, "")


@pytest.mark.parametrize("text", ["a:b", "1:2:3", ""])
def test_rates_malformed_range(capsys, text):
    rc, out, err = run_cli(capsys, "rates", "--b", "9", "--n", "3",
                           "--tv-range", text, "--tu-range", "10:15")
    assert usage_detail(rc, out, err) == f"bad range {text!r}, expected LO:HI"


@pytest.mark.parametrize("w", ["4", "3"])
def test_verify_window_must_exceed_burst(capsys, spec_file, w):
    rc, out, err = run_cli(capsys, "verify", str(spec_file), "--w", w)
    assert usage_detail(rc, out, err) == "--w must exceed B=4"


def test_simulate_slots_below_codeword_length(capsys, spec_file):
    rc, out, err = run_cli(capsys, "simulate", str(spec_file), "--slots", "13")
    assert usage_detail(rc, out, err) == "--slots must be at least n=14"


def test_build_search_exhausted_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(muxcode, "MAX_ATTEMPTS", 1)
    target = tmp_path / "never.json"
    rc, out, err = run_cli(capsys, "build", "--tv", "12", "--tu", "6", "--b", "4", "--n", "3",
                           "--seed", "1", "--out", str(target))
    assert rc == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "verification"
    assert "mux-code search exhausted 1 tries" in payload["detail"]
    assert not target.exists()


def test_dump_matrix(capsys, spec_file):
    rc, out, _ = run_cli(capsys, "dump", str(spec_file))
    assert rc == 0
    payload = json.loads(out)
    assert payload["rows"] == 10 and payload["cols"] == 14
    assert payload["q"] == 11
    assert len(payload["entries"]) == 140


def test_simulate_smoke(capsys, spec_file, tmp_path):
    trace = tmp_path / "trace.txt"
    rc, out, _ = run_cli(
        capsys, "simulate", str(spec_file), "--slots", "300", "--seed", "5",
        "--trace", str(trace),
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    lines = trace.read_text().strip().split("\n")
    assert len(lines) == 300
    assert set(lines) <= {"0", "1"}


def test_env_seed_fallback(capsys, tmp_path, monkeypatch):
    out1 = tmp_path / "env.json"
    monkeypatch.setenv("MUXFEC_SEED", "3")
    rc = main(["build", "--tv", "12", "--tu", "6", "--b", "4", "--n", "2", "--out", str(out1)])
    assert rc == 0
    capsys.readouterr()
    out2 = tmp_path / "flag.json"
    monkeypatch.delenv("MUXFEC_SEED")
    rc = main(["build", "--tv", "12", "--tu", "6", "--b", "4", "--n", "2",
               "--seed", "3", "--out", str(out2)])
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_stdout_data_only(capsys, tmp_path):
    rc, out, err = run_cli(
        capsys, "build", "--tv", "12", "--tu", "6", "--b", "4", "--n", "2",
        "--seed", "0",
    )
    assert rc == 0
    json.loads(out)  # stdout parses as a single JSON document
    assert err == ""


def test_build_with_tu_prime(capsys, tmp_path):
    out = tmp_path / "tp.json"
    rc, stdout, _ = run_cli(
        capsys, "build", "--tv", "14", "--tu", "7", "--b", "4", "--n", "2",
        "--tu-prime", "6", "--seed", "0", "--out", str(out),
    )
    assert rc == 0
    report = json.loads(stdout)
    assert report["k_u"] == 5 and report["k_v"] == 7
    reloaded = codespec.load(out)
    assert reloaded.params.T_u_prime == 6


def test_random_dominant_spec_round_trip(capsys, tmp_path):
    out = tmp_path / "rd.json"
    rc = main(["build", "--tv", "12", "--tu", "6", "--b", "4", "--n", "3",
               "--seed", "0", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    code = codespec.load(out)
    assert code.params.regime == "random-dominant"
    d = json.loads(out.read_text())
    rebuilt = build_mux_code(codespec.params_from_dict(d), seed=d["seed"])
    assert rebuilt.G == code.G
    rc, stdout, _ = run_cli(capsys, "verify", str(out), "--jobs", "1")
    assert rc == 0 and json.loads(stdout)["passed"]


def run_quiet(*argv):
    """cli.main with its own stdout/stderr buffers (hypothesis rejects capsys)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def assert_clean_exit(rc, out, err, data_codes):
    """Data on stdout for the exit codes in data_codes; else exit 1 with one JSON usage error."""
    if rc in data_codes:
        assert out and err == ""
    else:
        assert rc == 1 and out == ""
        assert json.loads(err)["error"] == "usage"


def span(lo: int, hi: int):
    """A LO:HI range argument, reversed (a usage error) now and then."""
    return st.builds(lambda a, w: f"{a}:{a + w}", st.integers(lo, hi), st.integers(-1, 8))


@settings(max_examples=80, deadline=None)
@given(
    b=st.integers(0, 6),
    n=st.integers(0, 4),
    tv=span(-2, 20),
    tu=span(-2, 12),
    fmt=st.sampled_from([[], ["--json"], ["--csv"]]),
    exact=st.booleans(),
)
@example(b=4, n=2, tv="9:12", tu="5:6", fmt=["--csv"], exact=False)
def test_rates_fuzz_exits_cleanly(b, n, tv, tu, fmt, exact):
    """T_v and T_u ranges reach below B, where the gain and the bound are undefined."""
    rc, out, err = run_quiet("rates", "--b", str(b), "--n", str(n), "--tv-range", tv,
                             "--tu-range", tu, *fmt, *(["--exact"] if exact else []))
    assert_clean_exit(rc, out, err, {0})
    if rc == 0 and "--csv" not in fmt:
        assert set(json.loads(out)) == {"B", "N", "tv_values", "tu_values", "cells"}


JUNK = [None, True, False, -1, -(2**70), 2**70, 0.5, "7", [1], {"a": 1}]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_verify_fuzz_mutated_spec_exits_cleanly(spec_file, data):
    """Drop a key, or set a key or one matrix entry to junk: exit 0/2 with a report, or 1."""
    d = json.loads(spec_file.read_text())
    key = data.draw(st.sampled_from(sorted(d)), label="key")
    action = data.draw(st.sampled_from(["drop", "set", "entry"]), label="action")
    junk = data.draw(st.sampled_from(JUNK), label="junk")
    if action == "drop":
        del d[key]
    elif action == "set":
        d[key] = junk
    else:
        d["matrix"][data.draw(st.integers(0, len(d["matrix"]) - 1), label="index")] = junk
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(d, fh)
        rc, out, err = run_quiet("verify", path)
    assert_clean_exit(rc, out, err, {0, 2})
    if rc in (0, 2):
        assert json.loads(out)["passed"] is (rc == 0)
