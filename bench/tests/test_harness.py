"""Tests of the benchmark harness itself: python -m pytest bench/tests"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_nested_span_tree():
    #   root [0, 10]
    #     a [1, 4]        a1 [2, 3]
    #     b [5, 9]        b1 [6, 7], b2 [7, 8.5]
    names = ["root", "a", "a1", "b", "b1", "b2"]
    parent = [-1, 0, 1, 0, 3, 3]
    start = [0.0, 1.0, 2.0, 5.0, 6.0, 7.0]
    end = [10.0, 4.0, 3.0, 9.0, 7.0, 8.5]
    assert tracer.self_times(parent, start, end) == [3.0, 2.0, 1.0, 1.5, 1.0, 1.5]
    summary = tracer.summarize(names, list(range(6)), parent, start, end)
    assert summary["self_s"]["b"] == 1.5
    assert summary["edges"][("b", "b2")] == 1
    assert summary["edges"][("", "root")] == 1


def test_wrapped_calls_nest_and_self_times_add_up(tmp_path):
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    leaf = tr.wrap("m.leaf", lambda: None)
    mid = tr.wrap("m.mid", lambda: (leaf(), leaf()))
    top = tr.wrap("m.top", lambda: (mid(), leaf()))
    top()
    summary = tr.summary()
    assert summary["calls"] == {"m.top": 1, "m.mid": 1, "m.leaf": 3}
    assert summary["edges"][("m.mid", "m.leaf")] == 2
    total = summary["total_s"]["m.top"]
    assert sum(summary["self_s"].values()) == total
    path = tmp_path / "spans.bin"
    tr.write(str(path))
    names, name, parent, request, start, end = tracer.read_spans(str(path))
    assert [names[i] for i in name] == ["m.top", "m.mid", "m.leaf", "m.leaf", "m.leaf"]
    assert list(parent) == [-1, 0, 1, 1, 0]
    assert set(request) == {0}


def _callables():
    """Every callable module attribute of the package (data such as the
    primes cache may legitimately change during a run)."""
    modules = [importlib.import_module("quadunit")] + [
        importlib.import_module(f"quadunit.{layer}") for layer in tracer.LAYERS]
    return {(m.__name__, attr): obj for m in modules for attr, obj in vars(m).items() if callable(obj)}


def test_traced_run_restores_every_wrapped_attribute(capsys):
    from quadunit import cli, contfrac, survey

    before = _callables()
    regulator = contfrac.regulator
    tr = tracer.Tracer()
    tr.install()
    try:
        # rebound at the import sites too, not only where it is defined
        assert survey.regulator is not regulator and cli.regulator is survey.regulator
        patched = list(tr.patched)
        cli.main(["--format", "csv", "survey", "bound", "--mu", "3", "--limit", "200"])
    finally:
        tr.uninstall()
    assert len(patched) > 50
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
    after = _callables()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tr.summary()["calls"]["contfrac.regulator"] > 100


def test_digest_mismatch_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    first = next(workloads.plan("pell_sweep", 0))[0]
    checker = run.Checker({" ".join(first): "0" * 32})
    with open(tmp_path / "stderr.log", "ab") as log, run.Runner(log) as runner:
        result = run.run_workload("pell_sweep", 0, 0, False, runner, checker)
    # the serial run misses its reference digest; the --jobs 2 run matches
    # the serial bytes and passes
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert result["record"]["error_rate"]["value"] == 0.5
    assert result["record"]["failures"][0]["error"] == "sha256 differs from the reference digest"


def test_output_checks_catch_a_changed_row():
    argv = ["--format", "csv", "survey", "e-mu", "--mu", "3", "--limit", "10"]
    good = b"trace,signed_norm,d,sqrt_coeff,value\n1,-3,13,1,2.302775638\n"
    assert workloads.check_output(argv, good) is None
    assert workloads.check_output(argv, good.replace(b",13,", b",17,")) is not None


def test_plans_repeat_for_a_seed_and_differ_across_seeds():
    def first_two(workload, seed):
        plan = workloads.plan(workload, seed)
        return [next(plan), next(plan)]

    for workload in workloads.WORKLOADS:
        assert first_two(workload, 3) == first_two(workload, 3)
        assert first_two(workload, 3) != first_two(workload, 4)


def test_timings_scale_each_process_by_its_own_slowdown():
    # two iterations, each one serial step of 100 items; the second ran at
    # half speed, so in reference seconds both take one second
    steps = [{"iteration": i, "mode": "serial", "items": 100, "wall_s": w, "slowdown": k}
             for i, (w, k) in enumerate([(1.0, 1.0), (2.0, 2.0)])]
    steps += [dict(s, mode="jobs2") for s in steps]
    ops = [{"mode": "serial", "latency_s": s["wall_s"], "slowdown": s["slowdown"]} for s in steps[:2]]
    setup = [{"wall_s": 0.2, "slowdown": 2.0}, {"wall_s": 0.1, "slowdown": 1.0}, {"wall_s": 0.15, "slowdown": 1.5}]
    reference = run.timings(steps, ops, setup, reference=True)
    assert reference["items_per_s"] == reference["parallel_items_per_s"] == 100.0
    assert reference["latency_p50_ms"] == reference["latency_p90_ms"] == 1000.0
    assert reference["setup_s"] == 0.1
    measured = run.timings(steps, ops, setup, reference=False)
    assert measured["items_per_s"] == 75.0
    assert measured["latency_p90_ms"] == 2000.0
    assert measured["setup_s"] == 0.15
