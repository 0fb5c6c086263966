"""Tests of the benchmark harness itself (not of the program it measures).

Run explicitly — this directory is outside tier-1's ``testpaths``::

    python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
from tracer import SpanStack, StackTracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- span-stack arithmetic ------------------------------------------------------


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    spans = SpanStack(clock=clock)
    spans.push("engine", "execute")      # 0..10
    clock.now = 1.0
    spans.push("netsim", "run")          # 1..9
    clock.now = 2.0
    spans.push("sched", "on_message")    # 2..5
    clock.now = 5.0
    spans.pop()
    clock.now = 6.0
    spans.push("sched", "on_message")    # 6..8
    clock.now = 8.0
    spans.pop()
    clock.now = 9.0
    spans.pop()
    clock.now = 10.0
    spans.pop()
    assert spans.self_seconds("engine") == pytest.approx(2.0)
    assert spans.self_seconds("netsim") == pytest.approx(3.0)
    assert spans.self_seconds("sched") == pytest.approx(5.0)
    assert spans.calls("sched") == 2
    assert spans.totals[("sched", "on_message", "netsim")] == [2, 5.0, 5.0]
    assert spans.root_seconds() == pytest.approx(10.0)


def test_self_times_partition_the_root_when_a_layer_reenters_itself():
    # up-call netsim -> sched -> mapping, then the down-call re-enters
    # sched and netsim underneath mapping
    clock = FakeClock()
    spans = SpanStack(clock=clock)
    path = [("netsim", "run"), ("sched", "on_message"), ("mapping", "on_message"),
            ("sched", "send"), ("netsim", "send")]
    for layer, name in path:
        spans.push(layer, name)
        clock.now += 1.0
    for _ in path:
        clock.now += 1.0
        spans.pop()
    # every span is open one second before its child opens and one second
    # after it closes, except the innermost, which has no child
    assert spans.self_seconds("netsim") == pytest.approx(2.0 + 2.0)
    assert spans.self_seconds("sched") == pytest.approx(2.0 + 2.0)
    assert spans.self_seconds("mapping") == pytest.approx(2.0)
    total = sum(spans.self_seconds(layer) for layer in spans.layers())
    assert total == pytest.approx(spans.root_seconds()) == pytest.approx(10.0)
    assert spans.total_seconds("netsim", "send") == pytest.approx(2.0)


def test_one_trace_id_per_root_span_and_raw_spans_of_the_first():
    clock = FakeClock()
    spans = SpanStack(clock=clock, keep_raw=True)
    for _ in range(2):
        spans.push("engine", "execute")
        spans.push("netsim", "run")
        clock.now += 1.0
        spans.pop()
        spans.pop()
    assert spans.trace_id == 2
    assert [(s["layer"], s["parent"]) for s in spans.raw] == [("netsim", 1), ("engine", None)]
    assert {s["trace"] for s in spans.raw} == {1}


def test_wrap_closes_the_span_when_the_call_raises():
    spans = SpanStack()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        spans.wrap("apps", "resume", boom)()
    assert spans.calls("apps") == 1
    assert not spans._open


# -- wrappers -------------------------------------------------------------------


def test_every_wrapper_is_removed_after_a_traced_pass():
    cases = WORKLOADS["sat_lossy"].build(5, True)
    tracer = StackTracer()
    with tracer:
        patched = list(tracer.patched)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
        _wall, results = run.run_pass(cases, observed=False, spans=tracer.spans)
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} left patched"
    assert not tracer.patched
    assert all(not isinstance(r, Exception) and r.completed for r in results)
    # the traced run crossed every layer of a protected SAT run
    assert {"engine", "netsim", "reliability", "sched", "mapping", "recursion",
            "apps"} <= set(tracer.spans.layers())
    # and an untraced pass afterwards gives the same schedules
    _wall, again = run.run_pass(cases, observed=False)
    assert [r.schedule_digest() for r in again] == [r.schedule_digest() for r in results]


def test_tally_counts_exceptions_wrong_results_and_digest_changes():
    cases = WORKLOADS["fib_rr"].build(1, True)
    _wall, results = run.run_pass(cases, observed=False)
    tally = run.Tally()
    reference = tally.check_pass("first", cases, results)
    assert (tally.attempted, tally.failed) == (1, 0)
    tally.check_pass("raised", cases, [RuntimeError("boom")], reference)
    tally.check_pass("moved", cases, results, ["not-the-digest"])
    results[0].verdict["value"] += 1
    tally.check_pass("wrong", cases, results)
    assert (tally.attempted, tally.failed) == (4, 3)
    assert "RuntimeError" in tally.errors[0]
    assert "digest differs" in tally.errors[1]
    assert "sequential reference" in tally.errors[2]


# -- the whole command at toy size ------------------------------------------------


def test_smoke_run_emits_every_metric_once_per_workload(tmp_path):
    out = tmp_path / "smoke.json"
    spans_out = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "11",
         "--out", str(out), "--trace-out", str(spans_out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    first_words = [line.split()[0] for line in done.stdout.splitlines() if line.split()]
    for name in list(run.END_TO_END) + list(run.PER_LAYER):
        assert first_words.count(name) == len(WORKLOADS), name
    report = json.loads(out.read_text())
    assert report["claim"] is None and report["schema"] == run.SCHEMA
    assert list(report["workloads"]) == list(WORKLOADS)
    for name, entry in report["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] > 0, name
        assert set(entry["end_to_end"]) == set(run.END_TO_END), name
        assert set(run.PER_LAYER) <= set(entry["per_layer"]), name
        assert entry["end_to_end"]["failed_frac"]["value"] == 0
    layers = report["workloads"]
    assert layers["sat_rr"]["per_layer"]["mapping.status_msgs"]["value"] == 0
    assert layers["sat_lbn"]["per_layer"]["mapping.status_msgs"]["value"] > 0
    assert layers["sat_lossy"]["per_layer"]["reliability.self_s"]["value"] > 0
    assert layers["sat_observed"]["per_layer"]["telemetry.events"]["value"] > 0
    assert layers["sat_shard2"]["per_layer"]["sharded.coord_step_s"]["value"] > 0
    assert layers["fib_rr"]["per_layer"]["apps.cnf_assign_calls"]["value"] == 0
    raw = json.loads(spans_out.read_text())
    assert raw and {"trace", "id", "parent", "layer", "name", "start", "end"} == set(raw[0])
    # a report agrees with itself, row for row
    rows, differing = compare.compare(report, report)
    assert not differing
    assert {row[5] for row in rows} <= {"same", "unresolved"}
    assert not compare.mismatches(report, report)


def test_one_workload_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fib_rr", "--seed", "4",
         "--seconds", "0.1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == set(run.CONTRACT_END_TO_END)
    assert all(m["value"] > 0 for m in last["metrics"].values())


# -- compare.py verdicts ----------------------------------------------------------


def _metric(value, samples=None):
    return {"value": value, "unit": "x", "samples": samples or []}


def test_judge_timed_metrics():
    quiet_a = _metric(1.00, [0.99, 1.00, 1.00, 1.01, 1.00])
    assert compare.judge(quiet_a, _metric(1.02, [1.01, 1.02, 1.02, 1.03, 1.02]),
                         0.10, "lower") == "same"
    assert compare.judge(quiet_a, _metric(1.20, [1.19, 1.20, 1.20, 1.21, 1.20]),
                         0.10, "lower") == "worse"
    assert compare.judge(quiet_a, _metric(0.80, [0.79, 0.80, 0.80, 0.81, 0.80]),
                         0.10, "lower") == "better"
    # higher-is-better flips the direction
    assert compare.judge(quiet_a, _metric(0.80, [0.79, 0.80, 0.80, 0.81, 0.80]),
                         0.10, "higher") == "worse"


def test_judge_reports_noise_as_unresolved_unless_every_run_wins():
    noisy_a = _metric(1.0, [0.8, 0.9, 1.0, 1.1, 1.2])
    assert compare.judge(noisy_a, _metric(1.05, [0.85, 0.95, 1.05, 1.15, 1.25]),
                         0.10, "lower") == "unresolved"
    assert compare.judge(noisy_a, _metric(0.5, [0.4, 0.45, 0.5, 0.55, 0.6]),
                         0.10, "lower") == "better"


def test_judge_exact_and_single_reading_metrics():
    assert compare.judge(_metric(804), _metric(804), 0.0, "lower") == "same"
    assert compare.judge(_metric(804), _metric(700), 0.0, "lower") == "better"
    assert compare.judge(_metric(804), _metric(805), 0.0, "lower") == "worse"
    # one reading a side: only a move past the bound is a verdict
    assert compare.judge(_metric(50.0), _metric(52.0), 0.10, "lower") == "same"
    assert compare.judge(_metric(50.0), _metric(48.0), 0.10, "lower") == "same"
    assert compare.judge(_metric(50.0), _metric(56.0), 0.10, "lower") == "worse"
    assert compare.judge(_metric(50.0), _metric(40.0), 0.10, "lower") == "better"


def _report(**changes):
    report = {
        "schema": run.SCHEMA, "seed": 1, "seconds": 8.0, "smoke": False,
        "host": {"fingerprint": {"python": "3.11", "platform": "p", "nproc": 2}},
        "workloads": {"w": {
            "definition": "d", "schedule_digest": "s",
            "end_to_end": {"sim_steps": _metric(10), "wall_s": _metric(1.0, [1.0, 1.0])},
            "per_layer": {"sched.calls": {"value": 5, "unit": "count"},
                          "sched.self_s": {"value": 0.3, "unit": "s"}},
        }},
    }
    report.update(changes)
    return report


def test_compare_marks_schedule_changes_and_differing_counts():
    a, b = _report(), _report()
    wb = b["workloads"]["w"]
    wb["schedule_digest"] = "t"
    wb["end_to_end"]["sim_steps"] = _metric(12)
    wb["per_layer"]["sched.calls"]["value"] = 6
    wb["per_layer"]["sched.self_s"]["value"] = 0.4
    rows, differing = compare.compare(a, b)
    by_metric = {row[1]: row for row in rows}
    assert by_metric["sim_steps"][5:] == ("worse", "schedule changed")
    assert by_metric["wall_s"][5:] == ("same", "")
    assert differing == ["w sched.calls: 5 -> 6 count"]


def test_compare_refuses_mismatched_reports(tmp_path, capsys):
    a = _report()
    assert compare.mismatches(a, _report()) == []
    assert any("seed" in m for m in compare.mismatches(a, _report(seed=2)))
    other_host = _report(host={"fingerprint": {"python": "3.12", "platform": "p", "nproc": 2}})
    assert any("host" in m for m in compare.mismatches(a, other_host))
    redefined = _report()
    redefined["workloads"]["w"]["definition"] = "e"
    assert any("defined differently" in m for m in compare.mismatches(a, redefined))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(_report(seed=2)))
    assert compare.main([str(pa), str(pb)]) == 2
    assert compare.main([str(pa), str(pb), "--force"]) == 0
    assert "refusing" in capsys.readouterr().out


# -- BENCHMARK.json agrees with the code --------------------------------------------


def test_benchmark_json_matches_the_tables():
    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [m["name"] for m in contract["end_to_end"]] == list(run.CONTRACT_END_TO_END)
    for m in contract["end_to_end"]:
        unit, better, bound = run.END_TO_END[m["name"]]
        assert (m["unit"], m["better"], m["bound"]) == (unit, better, bound)
        assert 0 < m["bound"] <= 0.25
    assert {m["name"]: (m["unit"], m["better"]) for m in contract["per_layer"]} == run.PER_LAYER
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    for m in contract["end_to_end"] + contract["per_layer"]:
        assert name_re.match(m["name"]) and unit_re.match(m["unit"]), m
    for w in contract["workloads"]:
        assert name_re.match(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 2 <= len(contract["workloads"]) <= 8 and len(contract["per_layer"]) <= 128
