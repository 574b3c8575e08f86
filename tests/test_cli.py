import json
import os
import subprocess
import sys

import pytest

from quadunit import cli, contfrac, quadfield
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


def test_unit_command(capsys):
    code, out, _ = run_cli("unit", "71", capsys=capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["epsilon"] == {"a": 3480, "b": 413}
    assert doc["epsilon_text"] == "3480+413*w[71]"


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


def test_coverage_command(capsys):
    code, out, _ = run_cli("coverage", "2", "--t-max", "10", "--y-max", "50", capsys=capsys)
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert {r["d"] for r in rows} == {2, 7, 14, 17, 23, 41, 73}
    assert [r["status"] for r in rows if r["d"] == 2] == ["exception"]


def test_usage_errors(capsys):
    assert run_cli("ideals", "12", "3", capsys=capsys)[0] == 2  # not square-free
    assert run_cli("ideals", "61", "12", capsys=capsys)[0] == 2  # mu not square-free
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


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


def test_env_budget_override(tmp_path):
    env = dict(os.environ, QUADUNIT_FACTOR_BUDGET="10")
    # kernel of a semiprime beyond the tiny budget: exit 1
    proc = subprocess.run(
        [sys.executable, "-m", "quadunit.cli", "unit", str(10007 * 10009)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert "budget" in proc.stderr


def test_factor_budget_flag_does_not_leak(capsys):
    # --factor-budget used to stay in os.environ and fail every later call
    quadfield.field_context.cache_clear()  # 1000003 must be factored afresh
    before = dict(os.environ)
    code, _, err = run_cli("--factor-budget", "10", "unit", "1000003", capsys=capsys)
    assert code == 1 and "budget" in err
    assert dict(os.environ) == before
    code, out, _ = run_cli("unit", "1000003", capsys=capsys)
    assert code == 0 and json.loads(out)["d"] == 1000003
    assert dict(os.environ) == before


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


def test_rerun_byte_identical(capsys):
    a = run_cli("survey", "bound", "--mu", "2", "--limit", "60", capsys=capsys)[1]
    b = run_cli("survey", "bound", "--mu", "2", "--limit", "60", capsys=capsys)[1]
    assert a == b
    a = run_cli("coverage", "3", "--t-max", "30", "--y-max", "60", capsys=capsys)[1]
    b = run_cli("coverage", "3", "--t-max", "30", "--y-max", "60", capsys=capsys)[1]
    assert a == b


def test_cf_step_budget_exit_code(monkeypatch, capsys):
    # 1000099 has period 2174; nothing else in the suite expands it
    monkeypatch.setattr(contfrac, "MAX_CF_STEPS", 100)
    code, out, err = run_cli("cf", "1000099", capsys=capsys)
    assert code == 1 and out == ""
    assert err == "budget error: period of w[1000099] not closed within 100 steps\n"


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    def __init__(self, workers, max_workers):
        workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_jobs_clamped_to_cpu_count(monkeypatch, capsys):
    workers = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(workers, max_workers))
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    argv = ("--format", "csv", "survey", "bound", "--mu", "2", "--limit", "40")
    serial = run_cli(*argv, capsys=capsys)
    assert run_cli("--jobs", "1000", *argv, capsys=capsys) == serial
    assert run_cli("--jobs", "0", *argv, capsys=capsys) == serial
    assert workers == [3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one worker, no pool
    assert run_cli("--jobs", "4", *argv, capsys=capsys) == serial
    assert workers == [3]
