import contextlib
import errno
import hashlib
import itertools
import json
import os
import signal
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quadunit import cli, contfrac, progressions, quadfield, survey
from quadunit.arith import UnfactoredError, factor_budget
from quadunit.cli import main


def run_cli(*args, capsys=None):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_cf_command(capsys):
    code, out, _ = run_cli("cf", "13", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["a0"] == 2 and doc["period"] == 1 and doc["quotients"] == [3]
    assert doc["epsilon"] == {"a": 1, "b": 1}
    assert doc["norm_epsilon"] == -1


def test_cf_matches_the_benchmark_reference(capsys):
    # every cf query of the benchmark's recorded outputs, in process: the
    # sha256 of each output starts with the digest recorded for it
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    digests = {key: digest for key, digest in json.loads(reference.read_text())["sha256"].items()
               if key.startswith("cf ")}
    assert len(digests) == 1193
    for key, digest in digests.items():
        code, out, _ = run_cli(*key.split(), capsys=capsys)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest().startswith(digest), key


def test_unit_command(capsys):
    code, out, _ = run_cli("unit", "71", capsys=capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["epsilon"] == {"a": 3480, "b": 413}
    assert doc["epsilon_text"] == "3480+413*w[71]"


def test_unit_beyond_the_int_digit_limit(capsys):
    # eps of Q(sqrt(100000039)) has coefficients of about 7,790 digits, past
    # CPython's default int/str limit: main lifts it for its own call only
    get_digits = getattr(sys, "get_int_max_str_digits", None)
    before = get_digits() if get_digits else None
    code, out, err = run_cli("unit", "100000039", capsys=capsys)
    assert (code, err) == (0, "")
    if get_digits:
        assert get_digits() == before
        sys.set_int_max_str_digits(0)
    try:
        doc = json.loads(out)
        digits = len(str(doc["epsilon"]["a"]))
    finally:
        if get_digits:
            sys.set_int_max_str_digits(before)
    eps = contfrac.fundamental_unit(quadfield.field_context(100000039))
    assert doc["epsilon"] == {"a": eps.a, "b": eps.b} and digits > 4300


def test_progression_command(capsys):
    code, out, _ = run_cli("progression", "2", "0", "7", "3", "--k-max", "3", capsys=capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["t"] == 71 and doc["exceptions"] == [2]
    assert doc["elements"] == [71, 238, 503]
    assert doc["squarefree_flags"] == [True, True, True]
    assert doc["n0"] == 1


def test_pairs_command(capsys):
    code, out, _ = run_cli("pairs", "2", "0", "7", capsys=capsys)
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert rows == [{"y": 1, "x": 0}, {"y": 7, "x": 3}, {"y": 7, "x": 4}]


def test_ideals_command(capsys):
    code, out, _ = run_cli("ideals", "61", "3", capsys=capsys)
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert len(rows) == 2 and all(r["reduced"] for r in rows)
    assert all(r["a"] == 3 and r["c"] == 1 for r in rows)


def test_density_csv(capsys):
    code, out, _ = run_cli("--format", "csv", "--cutoff", "1000", "density", "2", "0", "7", "3",
                           "--k-max", "500", capsys=capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pair,predicted,empirical,k_max,cutoff"
    assert lines[1].startswith("mu=2;j=0;y=7;x=3,")


def test_hensel_command(capsys):
    code, out, _ = run_cli("hensel", "1", "0", "-5", "11", "2", capsys=capsys)
    assert code == 0
    assert json.loads(out)["solvable"] is True


@pytest.mark.parametrize("p", [9, 15, 21, 25])
def test_hensel_rejects_composite_p(p, capsys):
    # the Jacobi symbol decides squares only modulo a prime: 2 is no square
    # mod 9, yet the symbol (2/9) is 1
    from quadunit.progressions import hensel_quadratic

    with pytest.raises(ValueError, match="odd prime"):
        hensel_quadratic(1, 0, -2, p, 1)
    code, out, err = run_cli("hensel", "1", "0", "-2", str(p), "1", capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"usage error: p must be an odd prime, got {p}\n"


def test_survey_pell(capsys):
    code, out, _ = run_cli("--format", "csv", "survey", "pell", "--limit", "30", capsys=capsys)
    assert code == 0
    assert out.splitlines() == ["d", "2", "5", "10", "13", "17", "26", "29"]


def test_survey_f_mu(capsys):
    code, out, _ = run_cli("survey", "f-mu", "--mu", "2", "--limit", "10", capsys=capsys)
    assert code == 0
    assert json.loads(out)["count"] == 6


def test_survey_e_mu(capsys):
    code, out, _ = run_cli("survey", "e-mu", "--mu", "2", "--limit", "5", capsys=capsys)
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and len(rows) == 5


def test_survey_e_mu_reads_the_sieve_under_a_tiny_budget(capsys):
    # the negative-trace discriminants m^2 + 4 mu come from the trace sieve,
    # not from trial division: 997997 = 7 * 142571 no longer needs the budget
    argv = ("--format", "csv", "survey", "e-mu", "--mu", "997", "--limit", "50")
    default = run_cli(*argv, capsys=capsys)
    assert default[0] == 0 and default[1].startswith("trace,signed_norm,d,sqrt_coeff,value\n-995,-997,994013,")
    assert run_cli("--factor-budget", "10", *argv, capsys=capsys) == default


def test_coverage_command(capsys):
    code, out, _ = run_cli("coverage", "2", "--t-max", "10", "--y-max", "50", capsys=capsys)
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert {r["d"] for r in rows} == {2, 7, 14, 17, 23, 41, 73}
    assert [r["status"] for r in rows if r["d"] == 2] == ["exception"]


def test_usage_errors(monkeypatch, capsys):
    assert run_cli("ideals", "12", "3", capsys=capsys)[0] == 2  # not square-free
    assert run_cli("ideals", "61", "12", capsys=capsys)[0] == 2  # mu not square-free
    # one usage line and no output, before any scan or sweep runs
    def no_sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(survey, "_bound_rows", no_sweep)
    bound = ("survey", "bound", "--mu", "2", "--limit", "20")
    cases = [
        (("coverage", "0"), "mu must be a nonzero square-free integer, got 0"),
        (("coverage", "9", "--y-max", "0", "--t-max", "12"), "mu must be a nonzero square-free integer, got 9"),
        (("survey", "f-mu", "--mu", "0"), "mu must be nonzero, got 0"),
        ((*bound, "--probe-constant", "nan"), "probe_constant must be finite, got nan"),
        ((*bound, "--probe-constant=inf"), "probe_constant must be finite, got inf"),
        (("--jobs", "2", *bound, "--probe-constant=-inf"), "probe_constant must be finite, got -inf"),
    ]
    # only survey bound reads --probe-constant
    for kind in ("e-mu", "f-mu", "pell"):
        for value in ("0.5", "nan"):
            argv = ("survey", kind, "--mu", "2", "--limit", "5", "--probe-constant", value)
            cases.append((argv, f"--probe-constant applies only to survey bound, not {kind}"))
    cases.append((("survey", "pell", "--mu", "7", "--limit", "5"),
                  "--mu applies only to survey e-mu, f-mu and bound, not pell"))
    # e-mu checks mu before its header is written
    for mu in ("4", "0"):
        cases.append((("survey", "e-mu", "--mu", mu, "--limit", "10"),
                      f"mu must be a positive square-free integer, got {mu}"))
    # pairs checks mu as coverage does, also when y_max leaves nothing to scan
    for mu, y_max in (("4", "0"), ("0", "0"), ("4", "3"), ("-12", "5")):
        cases.append((("pairs", mu, "0", y_max), f"mu must be a nonzero square-free integer, got {mu}"))
    # a negative --k-max is rejected before any scan, as density rejects 0
    cases.append((("coverage", "2", "--t-max", "10", "--k-max", "-1"), "k_max must be >= 0, got -1"))
    cases.append((("progression", "2", "0", "7", "3", "--k-max", "-1"), "k_max must be >= 0, got -1"))
    # a scan limit below 1 and a negative y_max are usage errors, not budget
    # errors or empty tables
    for limit in ("-3", "0"):
        cases.append((("progression", "2", "0", "7", "3", "--scan-limit", limit),
                      f"scan_limit must be >= 1, got {limit}"))
    cases.append((("coverage", "2", "--y-max", "-1"), "y_max must be >= 0, got -1"))
    # a negative --limit is refused by e-mu and f-mu, as by bound and pell,
    # e-mu before its header is written
    for kind in ("e-mu", "f-mu"):
        cases.append((("survey", kind, "--mu", "2", "--limit", "-5"), "bound must be >= 0, got -5"))
    cases.append((("pairs", "2", "0", "-5"), "y_max must be >= 0, got -5"))
    monkeypatch.setattr(progressions, "_candidate", no_sweep)
    monkeypatch.setattr(progressions, "trace_kernels", no_sweep)
    for argv, message in cases:
        assert run_cli(*argv, capsys=capsys) == (2, "", f"usage error: {message}\n"), argv
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()
    for value in ("1", "0", "-1"):  # rejected before any factoring
        with pytest.raises(SystemExit) as exc:
            main(["--factor-budget", value, "unit", "13"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("quadunit: error: --factor-budget must be >= 2\n")
    for value in ("0", "-3"):  # rejected before any sweep, not run serially
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", value, *bound])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("quadunit: error: --jobs must be >= 1\n")


def test_budget_error_exit_code(capsys):
    # scan budget exhausted inside build_progression -> exit 1
    code, _, err = run_cli("progression", "2", "0", "7", "3", "--scan-limit", "1", capsys=capsys)
    assert code == 1
    assert "budget" in err


def test_output_file_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli("--output", str(out1), "cf", "71", capsys=capsys)[0] == 0
    assert run_cli("--output", str(out2), "cf", "71", capsys=capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert run_cli("--output", "/nonexistent-dir/x.json", "cf", "5", capsys=capsys)[0] == 2


class _FailingWrite:
    """A file whose writes fail as on a full disk, from the fail_at-th on;
    the writes before it reach the file."""

    def __init__(self, fh, fail_at=1):
        self.fh, self.fail_at, self.writes = fh, fail_at, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, text):
        self.writes += 1
        if self.writes >= self.fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(text)


def test_output_is_atomic(tmp_path, monkeypatch, capsys):
    target = tmp_path / "out.json"
    target.write_bytes(b"old bytes\n")
    argv = ("--output", str(target), "cf", "13")
    message = f"usage error: cannot write {target}: [Errno {{}}] {{}}: {str(target)!r}\n"

    def failing_replace(src, dst):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, dst)

    for module, attr, fake, code in (
        (cli, "open", lambda path, mode: _FailingWrite(open(path, mode)), errno.ENOSPC),
        (os, "replace", failing_replace, errno.EXDEV),
    ):
        with monkeypatch.context() as m:
            m.setattr(module, attr, fake, raising=False)
            assert run_cli(*argv, capsys=capsys) == (2, "", message.format(code, os.strerror(code)))
        assert target.read_bytes() == b"old bytes\n", attr
        assert os.listdir(tmp_path) == ["out.json"], attr  # no temp file left
    assert run_cli(*argv, capsys=capsys)[0] == 0
    assert target.read_text() == run_cli("cf", "13", capsys=capsys)[1]
    assert os.listdir(tmp_path) == ["out.json"]
    # a symlink is written through and stays a symlink
    link = tmp_path / "link.json"
    link.symlink_to(target.name)
    assert run_cli("--output", str(link), "cf", "2", capsys=capsys)[0] == 0
    assert link.is_symlink() and target.read_text() == run_cli("cf", "2", capsys=capsys)[1]
    assert sorted(os.listdir(tmp_path)) == ["link.json", "out.json"]
    # a pipe is written in place, never renamed over
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run_cli("--output", str(fifo), "cf", "13", capsys=capsys)[0] == 0
        assert os.read(fd, 4096).decode() == run_cli("cf", "13", capsys=capsys)[1]
    finally:
        os.close(fd)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_output_streams_rows_atomically(tmp_path, monkeypatch, capsys):
    # rows are written as they are made: a write failing after the header
    # and a row still leaves the old target whole and no temp file behind
    target = tmp_path / "out.csv"
    target.write_bytes(b"old bytes\n")
    message = f"usage error: cannot write {target}: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: {str(target)!r}\n"
    files = []

    def failing_open(path, mode):
        files.append(_FailingWrite(open(path, mode), fail_at=3))
        return files[-1]

    for fmt in ("csv", "json"):
        argv = ("--output", str(target), "--format", fmt, "survey", "e-mu", "--mu", "2", "--limit", "50")
        with monkeypatch.context() as m:
            m.setattr(cli, "open", failing_open, raising=False)
            assert run_cli(*argv, capsys=capsys) == (2, "", message), fmt
        assert files.pop().writes == 3, fmt  # two writes went through before the third failed
        assert target.read_bytes() == b"old bytes\n", fmt
        assert os.listdir(tmp_path) == ["out.csv"], fmt  # no temp file left
    # a row that fails to be made leaves the target as whole, but stdout
    # keeps the rows written before it
    real_stream = cli.e_mu_stream

    def failing_stream(mu, limit):
        yield from itertools.islice(real_stream(mu, limit), 2)
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "e_mu_stream", failing_stream)
    argv = ("--format", "csv", "survey", "e-mu", "--mu", "2", "--limit", "50")
    assert run_cli("--output", str(target), *argv, capsys=capsys) == (3, "", "internal error: RuntimeError: boom\n")
    assert target.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["out.csv"]
    code, out, _ = run_cli(*argv, capsys=capsys)
    assert code == 3 and out == "trace,signed_norm,d,sqrt_coeff,value\n0,-2,2,2,1.414213562\n2,-2,3,2,2.732050808\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_file_matches_stdout(fmt, tmp_path, capsys):
    # every table command writes the same bytes to --output as to stdout
    commands = [
        ("survey", "e-mu", "--mu", "2", "--limit", "50"),
        ("survey", "bound", "--mu", "2", "--limit", "60"),
        ("survey", "pell", "--limit", "30"),
        ("pairs", "2", "0", "7"),
        ("coverage", "2", "--t-max", "10", "--y-max", "50"),
        ("ideals", "61", "3"),
        ("density", "2", "0", "7", "3", "--k-max", "50"),
    ]
    path = tmp_path / "out"
    for argv in commands:
        code, out, err = run_cli("--format", fmt, *argv, capsys=capsys)
        assert code == 0 and out and err == "", argv
        assert run_cli("--format", fmt, "--output", str(path), *argv, capsys=capsys) == (0, "", ""), argv
        assert path.read_bytes() == out.encode(), argv


def test_closed_stdout_is_not_a_fault(tmp_path):
    # a reader that stops early (``| head -1``) ends the run with exit 0 and
    # nothing on stderr; the table is far larger than the pipe buffer, so
    # the writer is still writing when the pipe closes.  A pipe at --output
    # that closes early stays a write failure (exit 2).
    argv = [sys.executable, "-m", "quadunit.cli", "--format", "csv", "survey", "e-mu", "--mu", "3", "--limit", "20000"]
    header = b"trace,signed_norm,d,sqrt_coeff,value\n"
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == header
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")

    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    proc = subprocess.Popen([*argv[:3], "--output", str(fifo), *argv[3:]], stderr=subprocess.PIPE)
    with open(fifo, "rb") as reader:
        assert reader.readline() == header
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2 and err.startswith(f"usage error: cannot write {fifo}: ".encode())


def test_env_budget_override(tmp_path):
    env = dict(os.environ, QUADUNIT_FACTOR_BUDGET="10")
    # kernel of a semiprime beyond the tiny budget: exit 1
    proc = subprocess.run(
        [sys.executable, "-m", "quadunit.cli", "unit", str(10007 * 10009)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert "budget" in proc.stderr


# one quick call of every subcommand
SUBCOMMANDS = [
    ("cf", "13"),
    ("unit", "13"),
    ("ideals", "61", "3"),
    ("progression", "2", "0", "7", "3", "--k-max", "3"),
    ("pairs", "2", "0", "7"),
    ("density", "2", "0", "7", "3", "--k-max", "50"),
    ("coverage", "2", "--t-max", "10", "--y-max", "50"),
    ("hensel", "1", "0", "-5", "11", "2"),
    ("survey", "e-mu", "--limit", "5"),
    ("survey", "f-mu", "--limit", "10"),
    ("survey", "pell", "--limit", "30"),
    ("survey", "bound", "--limit", "30"),
    ("verify",),
]


def test_env_budget_validated_for_every_subcommand(monkeypatch, capsys):
    # the variable is read once, before the subcommand runs: hensel, which
    # factors nothing, used to ignore a malformed value and exit 0
    for value, message in (
        ("abc", "invalid literal for int() with base 10: 'abc'"),
        ("1", "QUADUNIT_FACTOR_BUDGET must be >= 2, got 1"),
        ("-1", "QUADUNIT_FACTOR_BUDGET must be >= 2, got -1"),
    ):
        monkeypatch.setenv("QUADUNIT_FACTOR_BUDGET", value)
        for argv in SUBCOMMANDS:
            assert run_cli(*argv, capsys=capsys) == (2, "", f"usage error: {message}\n"), (value, argv)
        # the flag wins over the variable
        assert run_cli("--factor-budget", "1000", "cf", "13", capsys=capsys)[0] == 0


def test_parallel_bound_sweep_keeps_the_budget(monkeypatch, capsys):
    # the --jobs workers obey the call's budget, whether the flag or the
    # variable set it, and take it from their task, not from inherited state
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ("--format", "csv", "survey", "bound", "--mu", "2", "--limit", "200")
    serial = run_cli("--factor-budget", "10", *argv, capsys=capsys)
    assert serial[:2] == (1, "") and serial[2].startswith("budget error: ")
    assert run_cli("--factor-budget", "10", "--jobs", "2", *argv, capsys=capsys) == serial
    monkeypatch.setenv("QUADUNIT_FACTOR_BUDGET", "10")
    assert run_cli(*argv, capsys=capsys) == serial
    assert run_cli("--jobs", "2", *argv, capsys=capsys) == serial
    with pytest.raises(UnfactoredError):
        survey._run_chunk((survey._bound_rows, (2,), 2, 200, 10))
    assert survey._run_chunk((survey._bound_rows, (2,), 2, 200, 10**6)) == survey._bound_rows(2, 2, 200)


def test_parallel_pell_keeps_the_budget(monkeypatch, capsys):
    # as for survey bound: every pell chunk runs under the call's budget
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ("--format", "csv", "survey", "pell", "--limit", "2000")
    serial = run_cli("--factor-budget", "10", *argv, capsys=capsys)
    assert serial == (1, "", "budget error: cofactor 1009 of 1009 not resolved within budget 10\n")
    assert run_cli("--factor-budget", "10", "--jobs", "2", *argv, capsys=capsys) == serial
    monkeypatch.setenv("QUADUNIT_FACTOR_BUDGET", "10")
    assert run_cli(*argv, capsys=capsys) == serial
    assert run_cli("--jobs", "2", *argv, capsys=capsys) == serial
    with pytest.raises(UnfactoredError):
        survey._run_chunk((survey._pell_chunk, ("progression", survey._pell_flags("progression", 2000)), 2, 2000, 10))


def test_factor_budget_flag_does_not_leak(capsys):
    # --factor-budget holds for its own call only, in both directions: it
    # does not fail a later call, and a context cached by an unbudgeted call
    # does not let a later budgeted call pass
    quadfield.field_context.cache_clear()  # 1000003 must be factored afresh
    before = dict(os.environ)
    code, _, err = run_cli("--factor-budget", "10", "unit", "1000003", capsys=capsys)
    assert code == 1 and "budget" in err
    assert dict(os.environ) == before
    code, out, _ = run_cli("unit", "1000003", capsys=capsys)
    assert code == 0 and json.loads(out)["d"] == 1000003
    assert dict(os.environ) == before
    assert run_cli("--factor-budget", "10", "unit", "1000003", capsys=capsys) == (1, "", err)


@pytest.mark.parametrize("first", ["budgeted", "default"])
def test_field_context_budget_per_thread(first):
    # two threads query one radicand, one under a budget that cannot factor
    # it: each sees its own budget, whichever reaches the cache first
    quadfield.field_context.cache_clear()
    barrier = threading.Barrier(2, timeout=5)
    gate = threading.Event()
    results = {}

    def query(name):
        with factor_budget(10) if name == "budgeted" else contextlib.nullcontext():
            barrier.wait()
            if name != first:
                gate.wait(5)
            try:
                results[name] = quadfield.field_context(1000003).d
            except UnfactoredError as exc:
                results[name] = exc
            finally:
                gate.set()

    threads = [threading.Thread(target=query, args=(name,)) for name in ("budgeted", "default")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert isinstance(results["budgeted"], UnfactoredError)
    assert results["default"] == 1000003


def _fresh_run(argv):
    proc = subprocess.run([sys.executable, "-m", "quadunit.cli", *argv],
                          capture_output=True, text=True,
                          env={k: v for k, v in os.environ.items() if k != "QUADUNIT_FACTOR_BUDGET"})
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_repeated_calls_match_fresh_runs(capsys):
    # one process, one parser: repeated, interleaved calls give the bytes and
    # exit codes of fresh interpreters
    quadfield.field_context.cache_clear()
    commands = [
        ("cf", "9949"),
        ("cf", str(10007 * 10009)),
        ("--factor-budget", "10", "cf", str(10007 * 10009)),  # budget: exit 1
        ("unit", "71"),
        ("cf",),  # argparse usage error: exit 2
        ("ideals", "61", "3"),
        ("--format", "csv", "ideals", "94", "5"),
        ("ideals", "12", "3"),  # not square-free: exit 2
        ("--precision", "80", "unit", "9949"),
    ]
    fresh = {argv: _fresh_run(argv) for argv in commands}
    assert sorted(code for code, _, _ in fresh.values()) == [0, 0, 0, 0, 0, 0, 1, 2, 2]
    for argv in commands + commands[::-1] + commands:
        assert _in_process(argv, capsys) == fresh[argv], argv
    assert cli.build_parser.cache_info().currsize == 1


def test_internal_error_exit_code(monkeypatch, capsys):
    def broken(cfg):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "cf", broken)
    code, out, err = run_cli("cf", "13", capsys=capsys)
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_parallel_bound_sweep_matches_serial(monkeypatch, capsys):
    code, serial, _ = run_cli("--format", "csv", "survey", "bound", "--mu", "2",
                              "--limit", "120", capsys=capsys)
    assert code == 0
    code, par, _ = run_cli("--format", "csv", "--jobs", "2", "survey", "bound", "--mu", "2",
                           "--limit", "120", capsys=capsys)
    assert code == 0
    assert serial == par
    # more shards than traces, so some shards hold one trace or none
    # (--limit 3 has no admissible trace at all: exit 2 either way)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for limit in ("3", "17", "120"):
        argv = ("--format", "csv", "survey", "bound", "--mu", "2", "--limit", limit)
        serial = run_cli(*argv, capsys=capsys)
        for jobs in ("2", "3"):
            assert run_cli("--jobs", jobs, *argv, capsys=capsys) == serial, (limit, jobs)


def test_parallel_pell_matches_serial(monkeypatch, capsys):
    # --limit 2, 3 and 17 give more chunks than radicands, so some chunks
    # hold one radicand or none
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for fmt in ("csv", "json"):
        for limit in ("2", "3", "17", "500", "2000"):
            argv = ("--format", fmt, "survey", "pell", "--limit", limit)
            serial = run_cli(*argv, capsys=capsys)
            assert serial[0] == 0
            for jobs in ("2", "3"):
                assert run_cli("--jobs", jobs, *argv, capsys=capsys) == serial, (fmt, limit, jobs)


@pytest.mark.parametrize("mu", [-2, 0, 1, 4])
def test_parallel_bound_sweep_rejects_mu_as_serial(monkeypatch, capsys, mu):
    # the --jobs workers run the same mu check as the serial sweep, also
    # when the trace range is empty
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for limit in ("30", "1"):
        argv = ("survey", "bound", "--mu", str(mu), "--limit", limit)
        serial = run_cli(*argv, capsys=capsys)
        assert serial == (2, "", f"usage error: mu must be a square-free integer >= 2, got {mu}\n")
        for jobs in ("1", "2"):
            assert run_cli("--jobs", jobs, *argv, capsys=capsys) == serial, (limit, jobs)


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 300))
def test_parallel_bound_sweep_matches_serial_property(monkeypatch, capsys, mu, limit):
    # two processes at most, whatever the host reports
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ("--format", "csv", "survey", "bound", "--mu", str(mu), "--limit", str(limit))
    assert run_cli("--jobs", "2", *argv, capsys=capsys) == run_cli(*argv, capsys=capsys)


def test_rerun_byte_identical(capsys):
    a = run_cli("survey", "bound", "--mu", "2", "--limit", "60", capsys=capsys)[1]
    b = run_cli("survey", "bound", "--mu", "2", "--limit", "60", capsys=capsys)[1]
    assert a == b
    a = run_cli("coverage", "3", "--t-max", "30", "--y-max", "60", capsys=capsys)[1]
    b = run_cli("coverage", "3", "--t-max", "30", "--y-max", "60", capsys=capsys)[1]
    assert a == b


def test_cf_step_budget_exit_code(monkeypatch, capsys):
    # 1000099 has period 2174; nothing else in the suite expands it.  unit
    # builds no expansion, but its half-period walk keeps the same budget
    monkeypatch.setattr(contfrac, "MAX_CF_STEPS", 100)
    for command in ("cf", "unit"):
        code, out, err = run_cli(command, "1000099", capsys=capsys)
        assert code == 1 and out == "", command
        assert err == "budget error: period of w[1000099] not closed within 100 steps\n"


def _assert_no_children():
    # every sweep worker has been reaped: this process has no child left
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_jobs_clamped_to_cpu_count(monkeypatch, capsys):
    # --jobs N forks at most min(N, cpu_count) - 1 workers: the caller runs
    # one share itself.  forks records the calls this process makes
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    argv = ("--format", "csv", "survey", "bound", "--mu", "2", "--limit", "40")
    serial = run_cli(*argv, capsys=capsys)
    assert run_cli("--jobs", "1000", *argv, capsys=capsys) == serial
    assert len(forks) == 2
    _assert_no_children()
    pell = ("--format", "csv", "survey", "pell", "--limit", "300")
    pell_serial = run_cli(*pell, capsys=capsys)
    assert run_cli("--jobs", "1", *pell, capsys=capsys) == pell_serial
    assert len(forks) == 2
    assert run_cli("--jobs", "1000", *pell, capsys=capsys) == pell_serial
    assert len(forks) == 4
    _assert_no_children()
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one worker, no fork
    assert run_cli("--jobs", "4", *argv, capsys=capsys) == serial
    assert run_cli("--jobs", "4", *pell, capsys=capsys) == pell_serial
    assert len(forks) == 4


def test_pell_rejects_bad_input_before_any_pool(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def no_chunk(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(survey, "_pell_chunk", no_chunk)
    with pytest.raises(ValueError, match=r"^jobs must be >= 1, got 0$"):
        survey.negative_pell(10, jobs=0)
    with pytest.raises(ValueError, match=r"^unknown route 'x'$"):
        survey.negative_pell(10, route="x", jobs=2)
    assert run_cli("--jobs", "2", "survey", "pell", "--limit", "1", capsys=capsys) == (
        2, "", "usage error: bound must be >= 2\n")


@pytest.mark.parametrize("jobs", ["2", "3"])
def test_parallel_sweep_budget_error_as_serial(monkeypatch, capsys, jobs):
    # w[193] is the first radicand whose half walk needs more than 6 steps.
    # Its chunk, the fourth of 16 (--jobs 2) or the fifth of 24 (--jobs 3),
    # runs in a worker, and later chunks of the caller's share fail too
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(contfrac, "MAX_CF_STEPS", 6)
    argv = ("--format", "csv", "survey", "pell", "--limit", "1000")
    serial = run_cli(*argv, capsys=capsys)
    assert serial == (1, "", "budget error: period of w[193] not closed within 6 steps\n")
    assert run_cli("--jobs", jobs, *argv, capsys=capsys) == serial
    _assert_no_children()


def test_parallel_sweep_raises_the_lowest_failing_chunk(monkeypatch, capsys):
    # --limit 321 at --jobs 2 makes 16 chunks of 20 radicands, [2, 21],
    # [22, 41], ...: the caller runs the 1st, 3rd, ..., one worker the 2nd,
    # 4th, ...  A chunk fails at its lowest radicand in failing, as a real
    # chunk fails at its first bad radicand, whatever the chunk sizes
    real_chunk = survey._pell_chunk

    def chunk(route, flags, lo, hi):
        bad = [d for d in failing if lo <= d <= hi]
        if bad:
            raise RuntimeError(f"radicand {min(bad)}")
        return real_chunk(route, flags, lo, hi)

    monkeypatch.setattr(survey, "_pell_chunk", chunk)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ("--format", "csv", "survey", "pell", "--limit", "321")
    # lowest in the worker; lowest in the caller; both in the worker's share
    for failing in ({30, 50}, {50, 70}, {70, 310}):
        serial = run_cli(*argv, capsys=capsys)
        assert serial == (3, "", f"internal error: RuntimeError: radicand {min(failing)}\n")
        assert run_cli("--jobs", "2", *argv, capsys=capsys) == serial, failing
        _assert_no_children()


def _interrupt():
    raise KeyboardInterrupt


@pytest.mark.parametrize("end, how", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {signal.SIGKILL.value}"),
    (lambda: os._exit(0), "exit status 0"),
    (_interrupt, "exit status 1"),
])
def test_worker_without_a_result_is_an_internal_error(monkeypatch, capsys, end, how):
    caller = os.getpid()
    real_chunk = survey._pell_chunk

    def chunk(route, flags, lo, hi):
        if os.getpid() != caller:
            end()
        return real_chunk(route, flags, lo, hi)

    monkeypatch.setattr(survey, "_pell_chunk", chunk)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run_cli("--jobs", "2", "--format", "csv", "survey", "pell", "--limit", "321", capsys=capsys)
    ranges = ", ".join(f"[{lo}, {lo + 19}]" for lo in range(22, 322, 40))
    assert (code, out) == (3, "")
    assert err == f"internal error: RuntimeError: sweep worker for chunks {ranges} ended without a result ({how})\n"
    _assert_no_children()


def test_interrupted_sweep_kills_its_workers(monkeypatch):
    # the caller is interrupted in its first chunk while its worker sleeps:
    # the worker is killed and reaped before the interrupt propagates
    caller = os.getpid()

    def chunk(route, flags, lo, hi):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(10)  # per chunk: a worker not killed holds the test past its limit
        return []

    monkeypatch.setattr(survey, "_pell_chunk", chunk)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        survey.negative_pell(321, jobs=2)
    _assert_no_children()
    assert time.monotonic() - start < 5


def test_pell_flags_are_sieved_once_per_sweep(monkeypatch, capsys, tmp_path):
    # the sweep sieves its flags once, before any chunk runs, and its chunks
    # and forked workers read them: one call in the caller, none in a worker
    # (a file records the calls of every process)
    calls = tmp_path / "calls"
    real_sieve = survey.squarefree_integers_upto

    def sieve(n):
        with open(calls, "a") as fh:
            fh.write(f"{os.getpid()} {n}\n")
        return real_sieve(n)

    monkeypatch.setattr(survey, "squarefree_integers_upto", sieve)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ("--format", "csv", "survey", "pell", "--limit", "2000")
    serial = run_cli(*argv, capsys=capsys)
    assert calls.read_text() == f"{os.getpid()} 2000\n"
    calls.unlink()
    assert run_cli("--jobs", "2", *argv, capsys=capsys) == serial
    assert calls.read_text() == f"{os.getpid()} 2000\n"
    assert serial[0] == 0 and serial[1].split() == ["d", *map(str, survey.negative_pell(2000, route="cf"))]
    _assert_no_children()


def test_sweep_without_fork_runs_serially(monkeypatch, capsys):
    # where os.fork does not exist, --jobs 2 runs every chunk in this
    # process (a worker's chunks would be recorded in its own copy of ran)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ("--format", "csv", "survey", "pell", "--limit", "2000")
    serial = run_cli(*argv, capsys=capsys)
    real_chunk = survey._pell_chunk
    ran = []

    def chunk(route, flags, lo, hi):
        ran.append(lo)
        return real_chunk(route, flags, lo, hi)

    monkeypatch.setattr(survey, "_pell_chunk", chunk)
    monkeypatch.delattr(os, "fork")
    assert run_cli("--jobs", "2", *argv, capsys=capsys) == serial
    assert len(ran) == 2 * survey.SHARDS_PER_JOB
    _assert_no_children()
