"""Command-line interface: flags, formats, exit codes."""

import contextlib
import hashlib
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import powerbalance
from powerbalance import cli, decider, equation, filters, powersum
from powerbalance.cli import SWEEP_CSV_COLUMNS, main
from powerbalance.decider import certificate_json, decide
from powerbalance.filters import FAIL, FilterReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_decide_json(capsys):
    code, out = run(capsys, "decide", "--ell", "8")
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "NO_SOLUTION"
    assert cert["candidates"][0]["k"] == "1"
    assert cert["candidates"][0]["ws"] == []
    # JSON is the default, so decide has no --json flag to ask for it
    assert main(["decide", "--ell", "8", "--json"]) == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_decide_summary_family(capsys):
    code, out = run(capsys, "decide", "--ell", "2", "--summary")
    assert code == 0
    assert "FAMILY w=2k(k+1)" in out


def test_decide_summary_counts(capsys):
    code, out = run(capsys, "decide", "--ell", "27", "--summary")
    assert code == 0
    assert out == "NO_SOLUTION (ell=27, candidate k values: 6, integer candidates: 6)\n"


def test_decide_rejects_bad_ell(capsys):
    assert main(["decide", "--ell", "0"]) == 2
    assert main(["decide", "--ell", "5", "--mode", "quick"]) == 2
    capsys.readouterr()


def test_verify_true(capsys):
    code, out = run(capsys, "verify", "--n", "21", "--k", "3", "--ell", "2")
    assert code == 0 and out.strip() == "TRUE"
    code, out = run(capsys, "verify", "--n", "1", "--k", "1", "--ell", "1")
    assert code == 0 and out.strip() == "TRUE"


def test_verify_false(capsys):
    code, out = run(capsys, "verify", "--n", "1", "--k", "1", "--ell", "3")
    assert code == 1 and out.strip() == "FALSE"


def test_verify_rejects_nonpositive(capsys):
    assert main(["verify", "--n", "0", "--k", "1", "--ell", "1"]) == 2
    capsys.readouterr()


def test_sweep_csv(capsys):
    code, out = run(capsys, "sweep", "--ell-min", "1", "--ell-max", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(SWEEP_CSV_COLUMNS)
    assert len(lines) == 13
    assert lines[1].startswith("1,FAMILY,")
    assert lines[3].startswith("3,NO_SOLUTION,")
    ells = [int(line.split(",")[0]) for line in lines[1:]]
    assert ells == list(range(1, 13))


def test_sweep_csv_counts_every_window_under_the_sharp_cap(capsys):
    # num_candidate_k counts the windows the certificate text lists, empty
    # ones included; the rows of 3..200 without elapsed_ms are pinned as
    # they were when every such window was a record
    code, out = run(capsys, "sweep", "--ell-min", "3", "--ell-max", "200")
    assert code == 0
    rows = [line.rsplit(",", 1)[0] for line in out.splitlines()]
    text = "".join(row + "\n" for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "46fd720ed2d371a949a7082a537a50b87541147ef53c483936c8843a00fbca23")
    for row in rows[1:]:
        ell, _, n_k, n_w = row.split(",")
        data = json.loads(certificate_json(decide(int(ell)), include_timing=False))
        assert int(n_k) == len(data["candidates"]), ell
        assert int(n_w) == sum(len(rec["ws"]) for rec in data["candidates"]), ell


def test_sweep_jsonl(capsys):
    code, out = run(capsys, "sweep", "--ell-min", "3", "--ell-max", "9", "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["ell"] for r in rows] == list(range(3, 10))
    assert all(set(r) == set(SWEEP_CSV_COLUMNS) for r in rows)
    assert all(r["verdict"] == "NO_SOLUTION" for r in rows)


def test_sweep_certificate_stream(capsys):
    code, out = run(capsys, "sweep", "--ell-min", "7", "--ell-max", "9", "--format", "certs")
    assert code == 0
    certs = [json.loads(line) for line in out.strip().splitlines()]
    assert [c["ell"] for c in certs] == [7, 8, 9]
    assert all(c["schema"] == "1" for c in certs)


def test_sweep_to_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, _ = run(capsys, "sweep", "--ell-min", "3", "--ell-max", "5", "--out", str(target))
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == ",".join(SWEEP_CSV_COLUMNS) and len(lines) == 4


def test_sweep_rejects_bad_range(capsys):
    assert main(["sweep", "--ell-min", "5", "--ell-max", "3"]) == 2
    assert main(["sweep", "--ell-min", "3", "--ell-max", "5", "--workers", "0"]) == 2
    capsys.readouterr()


def test_sweep_rejects_bad_range_before_opening_the_output(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    assert main(["sweep", "--ell-min", "5", "--ell-max", "3", "--out", str(target)]) == 2
    assert main(["sweep", "--ell-min", "3", "--ell-max", "5", "--workers", "0", "--out", str(target)]) == 2
    assert not target.exists()
    capsys.readouterr()


def test_sweep_reports_an_output_it_cannot_open_as_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    assert main(["sweep", "--ell-min", "3", "--ell-max", "5", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert "cannot open --out" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_usage_errors_name_the_subcommand(tmp_path, capsys):
    bad = [
        ["sweep", "--ell-min", "5", "--ell-max", "3"],
        ["sweep", "--ell-min", "3", "--ell-max", "5", "--workers", "0"],
        ["sweep", "--ell-min", "3", "--ell-max", "5", "--out", str(tmp_path / "missing" / "x.csv")],
        ["decide", "--ell", "0"],
        ["verify", "--n", "0", "--k", "1", "--ell", "1"],
        ["lemmas", "--k-max", "0"],
        ["oracle", "--ell", "1", "--n-max", "0", "--k-max", "2"],
    ]
    for argv in bad:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"usage: powerbalance {argv[0]} "), err


def test_sweep_ends_quietly_when_the_reader_closes_stdout():
    env = {**os.environ, "PYTHONPATH": str(Path(powerbalance.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "powerbalance.cli", "sweep", "--ell-min", "3", "--ell-max", "1000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().decode().strip() == ",".join(SWEEP_CSV_COLUMNS)
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 141, stderr
    assert "Traceback" not in stderr, stderr


def test_parallel_sweep_stops_soon_after_the_reader_closes_stdout():
    # the exponents still queued for the workers are dropped, not decided
    env = {**os.environ, "PYTHONPATH": str(Path(powerbalance.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "powerbalance.cli", "sweep", "--ell-min", "3", "--ell-max", "12000",
         "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, start_new_session=True,
    )
    try:
        assert proc.stdout.readline().decode().strip() == ",".join(SWEEP_CSV_COLUMNS)
        assert proc.stdout.readline().decode().startswith("3,")
        proc.stdout.close()
        code = proc.wait(timeout=30)
    finally:
        # the workers hold stderr open; should the sweep outlive the wait, end them too
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    with proc.stderr:
        stderr = proc.stderr.read().decode()
    assert code == 141, stderr
    assert "Traceback" not in stderr, stderr


def test_lemmas_pass(capsys):
    code, out = run(
        capsys, "lemmas", "--lemma", "macmillan-sondow", "--k-max", "50", "--m-max", "19"
    )
    assert code == 0
    assert "macmillan-sondow: PASS" in out


LEMMAS = ("carlitz-von-staudt", "macmillan-sondow", "sandwich", "appendix", "modular-collapse")
SMALL_LEMMA_RANGES = ("--k-max", "12", "--m-max", "9", "--ell-max", "12", "--samples", "20")


def test_lemmas_all(capsys):
    code, out = run(capsys, "lemmas", *SMALL_LEMMA_RANGES)
    assert code == 0
    for name in LEMMAS:
        assert f"{name}: PASS" in out


# what each runner reads through cli (its predicate, the Kummer valuation
# the collapse runner checks, or the direct sums the power-sum runners hand
# the lemma routines the decision shares), a point it reaches under
# SMALL_LEMMA_RANGES, what it returns there when planted to fail, and the
# line printed
FAILING_POINTS = [
    # S_5(3) = 276; 284 keeps nu_2 = 2 but 6 does not divide it
    ("carlitz-von-staudt", "powersum_direct", (3, 5), 284,
     "k=3, m=5: k(k+1)/2 does not divide S_m(k)"),
    # S_7(4) = 18700; doubled, 10 still divides it but nu_2 is 3, not 2
    ("macmillan-sondow", "powersum_direct", (4, 7), 37400,
     "k=4, m=7: nu_2(S_m(k)) breaks MacMillan-Sondow"),
    ("sandwich", "check_sandwich", (5, 2), False, "ell=5, k=2: root escapes the exact window"),
    ("appendix", "check_appendix_identity", (Fraction(8), Fraction(2)), False,
     "ell=8, K=2: inequality chain lines disagree"),
    # (ell, k, g) of the fixed point w = 54
    ("modular-collapse", "check_modular_collapse", (9, 2, 1),
     FilterReport("modular_collapse", FAIL, "planted"), "ell=9, k=2, w=54: planted"),
    # nu_2(C(10, 9)) = e = 1 at even ell's top_m = 9; 2 breaks only that fact
    ("modular-collapse", "nu2_binomial", (10, 9), 2,
     "ell=10, m=9: nu_2(C(ell, m)) = 2 against e = 1"),
    # S_1(4) = 10; doubled, 10 still divides it but nu_2 is 2, not f - 1 = 1
    ("macmillan-sondow", "powersum_direct", (4, 1), 20,
     "k=4, m=1: nu_2(S_m(k)) breaks MacMillan-Sondow"),
]


@pytest.mark.parametrize("name, predicate, point, failed, message", FAILING_POINTS)
def test_lemmas_report_a_planted_failure(capsys, monkeypatch, name, predicate, point, failed, message):
    real = getattr(cli, predicate)

    def planted(*args):
        return failed if args[:len(point)] == point else real(*args)

    monkeypatch.setattr(cli, predicate, planted)
    code, out = run(capsys, "lemmas", "--lemma", name, *SMALL_LEMMA_RANGES)
    assert (code, out) == (1, f"{name}: FAIL: {message}\n")
    # the other four still run and pass
    code, out = run(capsys, "lemmas", "--lemma", "all", *SMALL_LEMMA_RANGES)
    expected = [f"{n}: FAIL: {message}" if n == name else f"{n}: PASS" for n in LEMMAS]
    assert (code, out.splitlines()) == (1, expected)


def test_lemma_collapse_builds_no_batch(capsys, monkeypatch):
    # the replay takes its power-sum valuations from MacMillan-Sondow, which
    # --lemma macmillan-sondow checks on direct sums, so no batch is built
    def forbidden(*args, **kwargs):
        raise AssertionError("the collapse lemma must build no power-sum batch")

    for module in (cli, decider, equation, filters, powersum):
        if hasattr(module, "powersum_batch"):
            monkeypatch.setattr(module, "powersum_batch", forbidden)
    replays = []
    real_replay = cli.check_modular_collapse

    def replay(ell, k, g):
        replays.append((ell, k))
        return real_replay(ell, k, g)

    monkeypatch.setattr(cli, "check_modular_collapse", replay)
    fixed = {(8, 1), (5, 1), (9, 2)}
    # the default flags, then a range where a window holds two radical passes
    for flags in ((), ("--ell-max", "316", "--k-max", "1")):
        replays.clear()
        code, out = run(capsys, "lemmas", "--lemma", "modular-collapse", *flags)
        assert (code, out) == (0, "modular-collapse: PASS\n")
        assert set(replays) - fixed, flags  # window integers, not the fixed points alone
    assert len(replays) > len(set(replays))  # both passes of one window replayed


def test_lemmas_rejects_unknown_name(capsys):
    assert main(["lemmas", "--lemma", "nosuch"]) == 2
    capsys.readouterr()


def test_lemmas_help_names_every_lemma(capsys):
    code, out = run(capsys, "lemmas", "--help")
    assert code == 0
    for name in LEMMAS:
        assert name in out


def test_lemmas_rejects_ranges_that_check_nothing(capsys):
    smallest = ["lemmas", "--k-max", "1", "--m-max", "3", "--ell-max", "3", "--samples", "0"]
    code, out = run(capsys, *smallest)
    assert code == 0 and out.count(": PASS") == 5
    assert main(["lemmas", "--k-max", "0", "--m-max", "0", "--ell-max", "0"]) == 2
    for flag, value in [("--k-max", "0"), ("--m-max", "2"), ("--ell-max", "2"), ("--samples", "-1")]:
        code, out = run(capsys, *smallest, flag, value)
        assert code == 2 and "PASS" not in out, flag


def test_oracle_search(capsys):
    code, out = run(capsys, "oracle", "--ell", "2", "--n-max", "25", "--k-max", "3", "--json")
    assert code == 0
    assert json.loads(out) == [[3, 1], [10, 2], [21, 3]]
    code, out = run(capsys, "oracle", "--ell", "3", "--n-max", "20", "--k-max", "5")
    assert code == 0
    assert "0 solution(s)" in out
    assert main(["oracle", "--ell", "1", "--n-max", "0", "--k-max", "2"]) == 2
    capsys.readouterr()
