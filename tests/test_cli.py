"""Tests for the command-line interface.

Ends with an end-to-end smoke pass (``TestEndToEnd``) that drives every
subcommand through :func:`repro.cli.main` exactly as a shell would —
checking exit codes and that the machine-readable outputs parse.
"""

import argparse
import json
from pathlib import Path

import pytest

from repro.apps.sat import load_dimacs, dpll_solve
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.topology == "torus2d:14x14"
        assert args.mapper == "lbn"

    def test_bad_mapper_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--mapper", "psychic"])

    def test_figure_jobs_and_json_flags(self):
        for figure in ("figure4", "figure5"):
            args = build_parser().parse_args([figure])
            assert args.jobs is None and args.json is None
            args = build_parser().parse_args(
                [figure, "-j", "4", "--json", "out.json"]
            )
            assert args.jobs == 4 and args.json == "out.json"


class TestTopoCommand:
    def test_torus(self, capsys):
        assert main(["topo", "torus2d:4x4"]) == 0
        out = capsys.readouterr().out
        assert "nodes      16" in out
        assert "diameter   4" in out
        assert "symmetric  yes" in out

    def test_star_not_symmetric(self, capsys):
        main(["topo", "star:5"])
        assert "symmetric  no" in capsys.readouterr().out


class TestGenerateCommand:
    def test_writes_satisfiable_files(self, tmp_path, capsys):
        rc = main([
            "generate", str(tmp_path), "--count", "2",
            "--vars", "12", "--clauses", "50", "--seed", "5",
        ])
        assert rc == 0
        files = sorted(tmp_path.glob("*.cnf"))
        assert len(files) == 2
        for f in files:
            cnf = load_dimacs(f)
            assert cnf.num_vars == 12
            assert cnf.num_clauses == 50
            assert dpll_solve(cnf).satisfiable

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["generate", str(a), "--count", "1", "--seed", "9"])
        main(["generate", str(b), "--count", "1", "--seed", "9"])
        fa, fb = next(a.glob("*.cnf")), next(b.glob("*.cnf"))
        assert fa.read_text() == fb.read_text()

    def test_planted_variant(self, tmp_path):
        rc = main(["generate", str(tmp_path), "--count", "1", "--planted"])
        assert rc == 0


class TestSolveCommand:
    def test_generated_instance(self, capsys):
        rc = main(["solve", "--topology", "torus2d:6x6", "--quiet", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("s SATISFIABLE")
        assert "v " in out

    def test_dimacs_file(self, tmp_path, capsys):
        path = tmp_path / "p.cnf"
        path.write_text("p cnf 2 2\n1 0\n-1 2 0\n")
        rc = main(["solve", str(path), "--topology", "ring:6", "--quiet"])
        assert rc == 0
        assert "s SATISFIABLE" in capsys.readouterr().out

    def test_unsat_file(self, tmp_path, capsys):
        path = tmp_path / "u.cnf"
        path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        rc = main(["solve", str(path), "--topology", "ring:6", "--quiet"])
        assert rc == 0
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_profile_output(self, capsys):
        rc = main(["solve", "--topology", "torus2d:4x4", "--seed", "2",
                   "--simplify", "fixpoint"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "c computation time" in out
        assert "c node activity heatmap:" in out

    def test_model_printed_in_dimacs_style(self, tmp_path, capsys):
        path = tmp_path / "p.cnf"
        path.write_text("p cnf 2 1\n1 2 0\n")
        main(["solve", str(path), "--topology", "ring:4", "--quiet"])
        out = capsys.readouterr().out
        vline = [l for l in out.splitlines() if l.startswith("v ")][0]
        assert vline.endswith(" 0")


class TestSolveFaultFlags:
    def test_reliable_solve_over_lossy_links(self, tmp_path, capsys):
        path = tmp_path / "p.cnf"
        path.write_text("p cnf 2 2\n1 0\n-1 2 0\n")
        rc = main(["solve", str(path), "--topology", "ring:6", "--seed", "5",
                   "--drop", "0.05", "--dup", "0.02", "--reliable"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "s SATISFIABLE" in out
        assert "reliable delivery on" in out
        assert "c reliability" in out and "retransmits" in out

    def test_unprotected_faults_flagged_in_profile(self, tmp_path, capsys):
        path = tmp_path / "p.cnf"
        path.write_text("p cnf 2 1\n1 2 0\n")
        rc = main(["solve", str(path), "--topology", "ring:4", "--seed", "4",
                   "--drop", "0.01"])
        # the run may still agree with the sequential solver (rc 0) or lose
        # a decisive sub-problem (rc 2); either way the banner must warn
        assert rc in (0, 2)
        assert "UNPROTECTED" in capsys.readouterr().out or rc == 2

    def test_retry_limit_implies_reliable(self, tmp_path, capsys):
        path = tmp_path / "p.cnf"
        path.write_text("p cnf 2 2\n1 0\n-1 2 0\n")
        rc = main(["solve", str(path), "--topology", "ring:6", "--seed", "5",
                   "--drop", "0.05", "--retry-limit", "20"])
        assert rc == 0
        assert "reliable delivery on" in capsys.readouterr().out


class TestSolveCheckpointFlags:
    def test_checkpoint_and_resume_round_trip(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        base = ["solve", "--topology", "torus2d:4x4", "--seed", "7",
                "--simplify", "none"]
        rc = main(base + ["--checkpoint-every", "5",
                          "--checkpoint-dir", str(ckpt_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "s SATISFIABLE" in out
        assert "c state digest" in out
        assert f"every 5 steps -> {ckpt_dir}" in out
        digest = [l for l in out.splitlines() if "state digest" in l][0].split()[-1]
        files = sorted(ckpt_dir.glob("checkpoint-*.ckpt"))
        assert files, "no checkpoint files written"

        # resume from the earliest checkpoint: same verdict, same digest,
        # no solver flags needed (the workload header is authoritative)
        rc = main(["solve", "--resume", str(files[0])])
        assert rc == 0
        out2 = capsys.readouterr().out
        assert "c resuming from" in out2
        assert "s SATISFIABLE" in out2
        digest2 = [l for l in out2.splitlines() if "state digest" in l][0].split()[-1]
        assert digest2 == digest

    def test_resume_rejects_non_checkpoint_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_text("this is not a checkpoint\n")
        rc = main(["solve", "--resume", str(bogus)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["sched-version-1", "missing-class", "no-runspec"])
    def test_resume_from_an_unrestorable_checkpoint_exits_2(
        self, tmp_path, capsys, edit
    ):
        import pickle

        from repro.netsim.digest import payload_digest
        from repro.state import StackCheckpoint, load_checkpoint, save_checkpoint

        ckpt_dir = tmp_path / "ckpts"
        assert main(["solve", "--topology", "torus2d:4x4", "--seed", "7",
                     "--quiet", "--checkpoint-every", "20",
                     "--checkpoint-dir", str(ckpt_dir)]) == 0
        capsys.readouterr()
        ckpt = load_checkpoint(sorted(ckpt_dir.glob("checkpoint-*.ckpt"))[0])
        if edit == "sched-version-1":
            layers = ckpt.layers()
            layers["sched"].version = 1
            payload, expected = pickle.dumps(layers), "snapshot version 1"
        elif edit == "missing-class":
            assert ckpt.payload.count(b"LayerState") >= 1
            payload = ckpt.payload.replace(b"LayerState", b"LayerStatX")
            expected = "cannot be read by this build"
        else:
            payload, expected = ckpt.payload, "carries no runspec header"
        meta = dict(ckpt.meta, payload_len=len(payload),
                    payload_sha256=payload_digest(payload))
        if edit == "no-runspec":
            del meta["runspec"]
        edited = save_checkpoint(tmp_path / "edited.ckpt",
                                 StackCheckpoint(meta, payload))
        assert main(["solve", "--resume", str(edited)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expected in err
        assert "Traceback" not in err

    def test_checkpoint_parser_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.checkpoint_every is None
        assert args.checkpoint_dir == "checkpoints"
        assert args.resume is None


class TestSolveShardsFlags:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.shards is None

    def test_sharded_solve_matches_serial(self, tmp_path, capsys):
        base = ["solve", "--topology", "torus2d:4x4", "--mapper", "rr",
                "--seed", "7", "--simplify", "none"]
        assert main(base) == 0
        serial_out = capsys.readouterr().out
        assert main(base + ["--shards", "2"]) == 0
        sharded_out = capsys.readouterr().out
        assert "c sharded backend    2 worker processes\n" in sharded_out
        # identical verdict, model and profile — only the backend banner
        # distinguishes the two runs
        strip = lambda txt: [l for l in txt.splitlines()
                             if not l.startswith("c sharded backend")]
        assert strip(sharded_out) == strip(serial_out)

    def test_sharded_checkpoint_resumes_serially(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        base = ["solve", "--topology", "torus2d:4x4", "--mapper", "rr",
                "--seed", "7", "--simplify", "none"]
        rc = main(base + ["--shards", "2", "--checkpoint-every", "40",
                          "--checkpoint-dir", str(ckpt_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        digest = [l for l in out.splitlines() if "state digest" in l][0].split()[-1]
        files = sorted(ckpt_dir.glob("checkpoint-*.ckpt"))
        assert files, "no checkpoint files written"
        # the checkpoint carries no shard count: resume serially
        assert main(["solve", "--resume", str(files[0])]) == 0
        out2 = capsys.readouterr().out
        digest2 = [l for l in out2.splitlines() if "state digest" in l][0].split()[-1]
        assert digest2 == digest


class TestReadmeFlagParity:
    """Every argparse flag must be documented in README.md.

    This is the drift guard: a new CLI flag that is not mentioned in the
    README fails here, not in a future doc audit.
    """

    def collect_flags(self, parser):
        flags = set()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    flags |= self.collect_flags(sub)
                continue
            for opt in action.option_strings:
                if opt.startswith("--") and opt != "--help":
                    flags.add(opt)
        return flags

    def test_every_flag_appears_in_readme(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        missing = sorted(f for f in self.collect_flags(build_parser())
                         if f not in text)
        assert not missing, f"CLI flags missing from README.md: {missing}"


class TestEndToEnd:
    """Every subcommand, driven exactly as a shell would."""

    def test_topo(self, capsys):
        assert main(["topo", "hypercube:4"]) == 0
        assert "nodes      16" in capsys.readouterr().out

    def test_generate_then_solve(self, tmp_path, capsys):
        assert main(["generate", str(tmp_path), "--count", "1",
                     "--vars", "10", "--clauses", "30", "--seed", "3"]) == 0
        cnf_file = capsys.readouterr().out.strip()
        assert main(["solve", cnf_file, "--topology", "torus2d:4x4",
                     "--quiet"]) == 0
        assert "s SATISFIABLE" in capsys.readouterr().out

    def test_solve_with_faults_and_reliability(self, capsys):
        rc = main(["solve", "--topology", "torus2d:4x4", "--seed", "11",
                   "--drop", "0.02", "--dup", "0.01", "--reliable"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "s SATISFIABLE" in out
        assert "c reliability" in out

    def test_figure4_json_and_seed(self, tmp_path, capsys):
        path = tmp_path / "f4.json"
        rc = main(["figure4", "--preset", "quick", "-j", "0",
                   "--seed", "99", "--json", str(path)])
        assert rc == 0
        data = json.loads(path.read_text())
        assert data["figure"] == "figure4"
        assert data["preset"]["seed"] == 99
        assert "2D Torus + RR" in data["series"]

    def test_figure5_json_and_seed(self, tmp_path, capsys):
        path = tmp_path / "f5.json"
        rc = main(["figure5", "--preset", "quick", "-j", "0",
                   "--seed", "99", "--json", str(path)])
        assert rc == 0
        data = json.loads(path.read_text())
        assert data["figure"] == "figure5"
        assert data["preset"]["seed"] == 99
        assert set(data["mappers"]) == {"rr", "lbn"}

    def test_trace_workload(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        rc = main(["trace", "sumrec", "--out", str(out),
                   "--metrics", str(metrics), "--topology", "torus2d:4x4"])
        assert rc == 0
        events = json.loads(out.read_text())
        assert events, "empty trace"
        assert json.loads(metrics.read_text())


class TestFuzzCommand:
    """The differential conformance fuzzer CLI (``repro fuzz``)."""

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.seed == 9
        assert args.budget == 200
        assert args.replay is None
        assert args.modes is None
        assert args.shard_backend == "inline"

    def test_small_run_is_clean(self, tmp_path, capsys):
        rc = main(["fuzz", "--seed", "1", "--budget", "3",
                   "--artifact-dir", str(tmp_path / "artifacts")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "configs    3/3 checked" in out
        assert "all execution modes agree" in out
        # no discrepancies means no artifact directory is ever created
        assert not (tmp_path / "artifacts").exists()

    def test_modes_restriction_applies(self, capsys):
        rc = main(["fuzz", "--seed", "1", "--budget", "3",
                   "--modes", "reference"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sharded=" not in out

    def test_unknown_mode_exits_2(self, capsys):
        rc = main(["fuzz", "--modes", "serial,warp"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown modes warp" in err

    def test_zero_budget_exits_2(self, capsys):
        rc = main(["fuzz", "--budget", "0"])
        assert rc == 2
        assert "--budget must be >= 1" in capsys.readouterr().err

    def test_replay_missing_artifact_exits_2(self, tmp_path, capsys):
        rc = main(["fuzz", "--replay", str(tmp_path / "nope.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot read artifact" in err

    def test_replay_corrupt_artifact_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{this is not json")
        rc = main(["fuzz", "--replay", str(bad)])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_replay_wrong_format_exits_2(self, tmp_path, capsys):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"format": "not-an-artifact"}))
        rc = main(["fuzz", "--replay", str(other)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_of_stale_artifact_reports_no_repro(self, tmp_path, capsys):
        # an artifact whose config is actually conformant replays cleanly:
        # exit 0 and an explicit "did NOT reproduce" verdict
        from repro.conformance import DEFAULT_CONFIG, Discrepancy, save_artifact

        path = save_artifact(
            tmp_path / "stale.json",
            Discrepancy(DEFAULT_CONFIG.with_(shards=2), "sharded",
                        "counters", "fixed long ago"),
        )
        rc = main(["fuzz", "--replay", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "did NOT reproduce" in out
        assert "serial, sharded" in out


class TestSolveUsageErrors:
    """Contradictory or malformed solve invocations exit 2, cleanly."""

    def test_invalid_shards_value_exits_2(self, capsys):
        rc = main(["solve", "--shards", "bananas"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "bananas" in err

    def test_random_heuristic_with_shards_exits_2(self, capsys):
        # the random branching heuristic draws from one shared RNG, which
        # a sharded run cannot replicate — contradictory flags, not a crash
        rc = main(["solve", "--topology", "torus2d:3x3", "--shards", "2",
                   "--heuristic", "random"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "random" in err

    @pytest.mark.parametrize("argv", [
        "solve --topology bogus",                # TopologyError
        "solve --topology torus2d:1x1",          # MappingError: no neighbours
        "trace sat --topology bogus",
        "trace sumrec --topology torus2d:1x1",
    ])
    def test_library_errors_exit_2_without_a_traceback(self, tmp_path, capsys, argv):
        if argv.startswith("trace"):
            argv += f" --out {tmp_path / 't.json'}"
        rc = main(argv.split())
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error:") and "Traceback" not in err
