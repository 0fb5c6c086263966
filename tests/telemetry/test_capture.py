"""Packaged traced workloads and the ``repro trace`` CLI command."""

import dataclasses
import json

import pytest

import repro.telemetry
from repro.cli import main
from repro.telemetry import capture, capture_workload
from repro.workloads import WORKLOADS


class TestCaptureWorkload:
    def test_sumrec_capture(self, tmp_path):
        out = tmp_path / "trace.json"
        summary = capture_workload("sumrec", out, topology="torus2d:5x5")
        assert summary["workload"] == "sumrec"
        assert summary["topology"] == "torus2d(5x5)"
        assert summary["events"] > 0
        assert summary["layers"] == [1, 2, 3, 4]
        data = json.loads(out.read_text())
        assert data["traceEvents"]

    def test_metrics_dump(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        summary = capture_workload(
            "traversal", tmp_path / "t.json", metrics_path=metrics
        )
        assert summary["layers"] == [1]
        data = json.loads(metrics.read_text())
        assert data["l1.send"]["value"] == summary["result"]["sent"]

    def test_example_path_accepted(self, tmp_path):
        summary = capture_workload(
            "examples/quickstart.py", tmp_path / "q.json", topology="torus2d:4x4"
        )
        assert summary["workload"] == "sumrec"

    def test_every_workload_has_description_and_topology(self, tmp_path, monkeypatch):
        # every record but 'custom' has a demo, and the capture reads it
        # from the registry: there is no second workload table
        assert WORKLOADS["custom"].demo is None
        for record in WORKLOADS.values():
            if record.name != "custom":
                description, make_fields = record.demo
                assert description and ":" in make_fields(2017)["topology"]
        demo = ("patched", lambda _: {"workload_params": {"n": 3}, "topology": "ring:5"})
        monkeypatch.setitem(
            WORKLOADS, "sumrec", dataclasses.replace(WORKLOADS["sumrec"], demo=demo)
        )
        summary = capture_workload("sumrec", tmp_path / "t.json")
        assert (summary["description"], summary["result"]["result"]) == ("patched", "6")
        assert getattr(capture, "WORKLOADS", WORKLOADS) is WORKLOADS
        assert "WORKLOADS" not in repro.telemetry.__all__


class TestTraceCli:
    def test_trace_command(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.csv"
        rc = main([
            "trace", "sumrec",
            "--out", str(out),
            "--metrics", str(metrics),
            "--topology", "torus2d:5x5",
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "perfetto" in stdout.lower()
        assert out.exists() and metrics.exists()
        assert metrics.read_text().startswith("name,kind,field,value")

    def test_trace_command_unknown_workload(self, tmp_path, capsys):
        rc = main(["trace", "bogus", "--out", str(tmp_path / "t.json")])
        assert rc == 2
        assert "unknown trace workload" in capsys.readouterr().err
