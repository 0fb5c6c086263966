"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``     solve a DIMACS CNF file (or a generated instance) on a
              simulated machine and print the verdict, model and profile;
``generate``  write uf20-91-style DIMACS benchmark files;
``topo``      describe a topology spec (nodes, links, diameter, ...);
``figure4``   regenerate the paper's Figure 4 scalability table;
``figure5``   regenerate the paper's Figure 5 traces and heatmaps;
``trace``     run a packaged workload with full telemetry and write a
              Chrome/Perfetto trace (open at https://ui.perfetto.dev);
``fuzz``      differential conformance fuzzing: sample seeded configs and
              assert every execution mode (serial / sharded / resume /
              fault-free / sequential reference) agrees (docs/testing.md).
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path
from typing import List, Optional

from .errors import ReproError
from .mapping.mappers import MAPPERS

__all__ = ["main", "build_parser"]


class _Names:
    """The names of a registry, read only when an argument or the help
    needs them: importing the conformance package costs every other
    command 0.1-0.3 s."""

    def __init__(self, module: str, registry: str) -> None:
        self.module, self.registry = module, registry

    def _names(self) -> tuple:
        module = importlib.import_module(self.module, __package__)
        return tuple(getattr(module, self.registry))

    def __iter__(self):
        return iter(self._names())

    def __contains__(self, name: object) -> bool:
        return name in self._names()

    def __str__(self) -> str:
        return ",".join(self._names())


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Hyperspace-computer combinatorial solver stack "
            "(reproduction of Tarawneh et al., ICPP Workshops 2017)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a SAT problem on a simulated machine")
    solve.add_argument("cnf", nargs="?", help="DIMACS file (default: generated uf20-91)")
    solve.add_argument("--topology", default="torus2d:14x14", help="machine spec")
    solve.add_argument(
        "--mapper", default="lbn", choices=MAPPERS, metavar="NAME",
        help="layer-3 mapper: %(choices)s (default %(default)s)",
    )
    solve.add_argument("--status", type=int, default=None, help="LBN status threshold")
    solve.add_argument("--heuristic", default="max_occurrence")
    solve.add_argument("--simplify", default="none", choices=["none", "single", "fixpoint"])
    solve.add_argument("--seed", type=int, default=2017)
    solve.add_argument("--quiet", action="store_true", help="verdict only")
    solve.add_argument(
        "--drop", type=float, default=0.0, metavar="P",
        help="per-send link drop probability (default 0: reliable links)",
    )
    solve.add_argument(
        "--dup", type=float, default=0.0, metavar="P",
        help="per-send link duplication probability (default 0)",
    )
    solve.add_argument(
        "--reliable", action="store_true",
        help="enable the layer-1.5 reliable-delivery protocol "
             "(sequence numbers + acks + retransmission; docs/robustness.md)",
    )
    solve.add_argument(
        "--retry-limit", type=int, default=None, metavar="N",
        help="retransmissions per frame before giving up (implies --reliable)",
    )
    solve.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="K",
        help="checkpoint the whole stack every K simulation steps "
             "(docs/checkpointing.md)",
    )
    solve.add_argument(
        "--checkpoint-dir", default="checkpoints", metavar="DIR",
        help="where --checkpoint-every writes checkpoint-<step>.ckpt "
             "files (default: ./checkpoints)",
    )
    solve.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume a checkpointed solve; the workload (formula, machine, "
             "solver flags) is rebuilt from the checkpoint header, so other "
             "solver flags are ignored",
    )
    solve.add_argument(
        "--shards", default=None, metavar="N",
        help="run node handlers in N worker processes (0 or 'auto' = all "
             "cores; default: REPRO_SHARDS env var, else serial); the "
             "schedule, verdict and digests are identical for any shard "
             "count (docs/parallelism.md)",
    )

    gen = sub.add_parser("generate", help="write random 3-SAT benchmark files")
    gen.add_argument("out_dir", help="output directory")
    gen.add_argument("--count", type=int, default=20)
    gen.add_argument("--vars", type=int, default=20)
    gen.add_argument("--clauses", type=int, default=91)
    gen.add_argument("--seed", type=int, default=2017)
    gen.add_argument("--planted", action="store_true",
                     help="planted-solution instances (faster for large sweeps)")

    topo = sub.add_parser("topo", help="describe a topology spec")
    topo.add_argument("spec", help='e.g. "torus2d:14x14", "hypercube:6"')

    fig4 = sub.add_parser("figure4", help="regenerate paper Figure 4")
    fig4.add_argument("--preset", default="quick", choices=["quick", "full"])
    fig4.add_argument("--status", type=int, default=16)

    fig5 = sub.add_parser("figure5", help="regenerate paper Figure 5")
    fig5.add_argument("--preset", default="quick", choices=["quick", "full"])

    for fig in (fig4, fig5):
        fig.add_argument(
            "--seed", type=int, default=None, metavar="S",
            help="override the preset's base seed (default: the preset's "
                 "pinned seed, which reproduces the committed baselines)",
        )
        fig.add_argument(
            "--jobs", "-j", type=int, default=None, metavar="N",
            help="worker processes for the sweep (0 = all cores; default: "
                 "REPRO_JOBS env var, else serial); results are identical "
                 "for any job count",
        )
        fig.add_argument(
            "--json", metavar="PATH", default=None,
            help="also write the figure data as JSON to PATH",
        )
        fig.add_argument(
            "--trace", metavar="PATH", default=None,
            help="also capture one representative sweep cell with full "
                 "telemetry and write a Chrome/Perfetto trace to PATH",
        )

    trace = sub.add_parser(
        "trace",
        help="capture a Chrome/Perfetto trace of a packaged workload",
        description=(
            "Run one packaged workload with the telemetry bus enabled and "
            "write a Chrome trace-event JSON file (load it at "
            "https://ui.perfetto.dev).  WORKLOAD is a registry name (sat, "
            "sumrec, fib, nqueens, traversal) or the path of an example "
            "script (examples/sat_solver.py)."
        ),
    )
    trace.add_argument("workload", help="workload name or examples/ script path")
    trace.add_argument("--out", default="trace.json", metavar="PATH",
                       help="trace output path (default: trace.json)")
    trace.add_argument("--metrics", default=None, metavar="PATH",
                       help="also dump aggregated metrics (.json or .csv)")
    trace.add_argument("--topology", default=None, help="override machine spec")
    trace.add_argument("--seed", type=int, default=2017)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential conformance fuzzing across execution modes",
        description=(
            "Sample seeded configurations (topology x workload x mapper x "
            "heuristic x faults x reliability x shards x checkpoint point) "
            "and run each through every applicable execution mode, "
            "asserting verdict, state-digest, schedule-digest and "
            "telemetry-counter parity.  Discrepancies are shrunk to a "
            "minimal config and written as replayable artifacts "
            "(docs/testing.md)."
        ),
    )
    fuzz.add_argument("--seed", type=int, default=9,
                      help="sampler seed (same seed = same configs everywhere)")
    fuzz.add_argument("--budget", type=int, default=200, metavar="N",
                      help="number of configurations to sample (default 200)")
    fuzz.add_argument(
        "--replay", default=None, metavar="PATH",
        help="re-run the oracle on a saved discrepancy artifact instead of "
             "sampling; exits 1 while the discrepancy still reproduces",
    )
    modes = fuzz.add_argument(
        "--modes", default=None, metavar="M[,M...]",
        help="restrict the compared modes (comma-separated subset of "
             "%(known)s; the serial baseline always runs)",
    )
    modes.known = _Names(".conformance", "MODE_NAMES")
    fuzz.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="stop sampling early after this many seconds (bounded CI "
             "smoke runs)",
    )
    fuzz.add_argument(
        "--artifact-dir", default="fuzz_artifacts", metavar="DIR",
        help="where shrunk discrepancy artifacts are written "
             "(default: ./fuzz_artifacts)",
    )
    fuzz.add_argument(
        "--shard-backend", default="inline", choices=["inline", "process"],
        help="worker backend for the sharded comparison runs (default "
             "inline: identical semantics without process spawn cost)",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="record discrepancies as sampled, without minimization",
    )

    return parser


def _cmd_solve(args) -> int:
    from .apps.sat import dpll_solve, load_dimacs, uf20_91_suite
    from .bench import heatmap_ascii, sparkline
    from .engine import RunSpec, cnf_of, execute
    from .errors import CheckpointError, SpecError
    from .netsim import resolve_shards
    from .state import load_checkpoint
    from .topology import topology_from_spec

    resume_ckpt = None
    header_spec = None
    if args.resume is not None:
        # the checkpoint header embeds the canonical RunSpec: formula,
        # machine and solver flags all come from the original run
        resume_ckpt = load_checkpoint(args.resume)
        header = resume_ckpt.meta.get("runspec")
        if not header:
            raise CheckpointError(
                f"{args.resume} carries no runspec header "
                "(was it written by `repro solve --checkpoint-every`?)"
            )
        try:
            header_spec = RunSpec.from_dict(header)
        except SpecError as exc:
            print(f"error: {args.resume}: {exc}", file=sys.stderr)
            return 2
        if header_spec.workload != "sat":
            raise CheckpointError(
                f"{args.resume} checkpoints a {header_spec.workload!r} "
                "workload; `repro solve --resume` resumes only 'sat' runs"
            )
        if header_spec.topology is None or header_spec.heuristic == "custom":
            raise CheckpointError(
                f"{args.resume} was checkpointed from a run with a "
                "non-serialisable topology or heuristic; resume it "
                "programmatically via repro.engine.execute"
            )
        cnf = cnf_of(header_spec.workload_params)
        if not args.quiet:
            print(
                f"c resuming from      {args.resume} "
                f"(step {resume_ckpt.step}, digest {resume_ckpt.state_digest})"
            )
    elif args.cnf:
        cnf = load_dimacs(args.cnf)
    else:
        cnf = uf20_91_suite(1, seed=args.seed)[0]

    topo = topology_from_spec(
        header_spec.topology if header_spec is not None else args.topology
    )
    n_shards = min(resolve_shards(args.shards), topo.n_nodes)
    if header_spec is not None:
        # --shards is honoured on --resume too: checkpoints carry no shard
        # count, so a run may be checkpointed sharded and resumed serially
        spec = header_spec.with_(
            shards=n_shards,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir if args.checkpoint_every else None,
        )
    else:
        spec = RunSpec(
            workload="sat",
            workload_params=cnf.to_params(),
            topology=args.topology,
            mapper=args.mapper,
            status=args.status,
            heuristic=args.heuristic,
            simplify=args.simplify,
            seed=args.seed,
            drop=args.drop,
            duplicate=args.dup,
            reliable=args.reliable or args.retry_limit is not None,
            retry_limit=args.retry_limit,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir if args.checkpoint_every else None,
            shards=n_shards,
        )
    run = execute(spec, topology=topo, resume_from=resume_ckpt)
    satisfiable = run.verdict["sat"]
    seq = dpll_solve(cnf)
    if satisfiable != seq.satisfiable:
        print("ERROR: distributed and sequential solvers disagree", file=sys.stderr)
        return 2
    if satisfiable:
        model = dict(sorted(dict(run.verdict["assignment"]).items()))
        lits = " ".join(str(v if val else -v) for v, val in model.items())
        print(f"s SATISFIABLE\nv {lits} 0")
    else:
        print("s UNSATISFIABLE")
    if not args.quiet:
        rep = run.report
        print(f"c machine            {topo.describe()} ({spec.mapper})")
        if n_shards > 1:
            print(f"c sharded backend    {n_shards} worker processes")
        if spec.drop or spec.duplicate:
            guard = (
                "reliable delivery on"
                if spec.reliable or spec.retry_limit is not None
                else "UNPROTECTED"
            )
            print(
                f"c link faults        drop={spec.drop} dup={spec.duplicate} "
                f"({guard})"
            )
        if run.link_stats is not None:
            ls = run.link_stats
            print(
                f"c reliability        {ls.retransmits} retransmits, "
                f"{ls.dups_suppressed} dups suppressed, "
                f"{ls.frames_lost} frames lost, {ls.exhausted} exhausted"
            )
        if run.state_digest is not None:
            print(f"c state digest       {run.state_digest}")
        if args.checkpoint_every:
            print(
                f"c checkpoints        every {args.checkpoint_every} steps "
                f"-> {args.checkpoint_dir}"
            )
        print(f"c computation time   {rep.computation_time} steps")
        print(f"c messages           {rep.sent_total}")
        print(f"c peak queued        {rep.peak_queued}")
        print(f"c active nodes       {rep.active_node_count}/{topo.n_nodes}")
        print(f"c activity |{sparkline(rep.interconnect_activity, 50)}|")
        if len(topo.shape) in (2, 3):
            print("c node activity heatmap:")
            for line in heatmap_ascii(rep.heatmap()).splitlines():
                print(f"c   {line}")
    return 0


def _cmd_generate(args) -> int:
    from .apps.sat import save_dimacs, uf20_91_suite
    from .apps.sat.generator import planted_random_ksat, satisfiable_random_ksat
    from .rng import SeedSequence

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = SeedSequence(args.seed)
    gen = planted_random_ksat if args.planted else satisfiable_random_ksat
    for i, rng in enumerate(seeds.indexed("cli-generate", args.count)):
        cnf = gen(args.vars, args.clauses, 3, rng)
        path = out / f"uf{args.vars}-{args.clauses}-{i:03d}.cnf"
        save_dimacs(
            cnf,
            path,
            comments=[
                f"uniform random 3-SAT, {args.vars} vars, {args.clauses} clauses",
                f"seed={args.seed} index={i} satisfiable=yes",
            ],
        )
        print(path)
    return 0


def _cmd_topo(args) -> int:
    from .topology import topology_from_spec

    topo = topology_from_spec(args.spec)
    degrees = [topo.degree(n) for n in topo.nodes()]
    print(f"topology   {topo.describe()}")
    print(f"nodes      {topo.n_nodes}")
    print(f"links      {topo.n_links()}")
    print(f"degree     min {min(degrees)} / max {max(degrees)}")
    print(f"diameter   {topo.diameter()}")
    print(f"symmetric  {'yes' if topo.is_node_symmetric() else 'no'}")
    return 0


def _cmd_figure4(args) -> int:
    from .bench import (
        FULL,
        QUICK,
        assert_figure4_shape,
        figure4_to_dict,
        render_figure4,
        run_figure4,
        write_json,
    )

    preset = FULL if args.preset == "full" else QUICK
    result = run_figure4(
        preset,
        status_threshold=args.status,
        verbose=True,
        jobs=args.jobs,
        trace_path=args.trace,
        seed=args.seed,
    )
    print(render_figure4(result))
    if args.json:
        print(f"\nJSON written to {write_json(args.json, figure4_to_dict(result))}")
    if result.trace_summary is not None:
        print(f"\nPerfetto trace written to {result.trace_summary['trace_path']}")
    assert_figure4_shape(result)
    print("\nall Figure-4 qualitative claims hold")
    return 0


def _cmd_figure5(args) -> int:
    from .bench import (
        FULL,
        QUICK,
        assert_figure5_shape,
        figure5_to_dict,
        render_figure5,
        run_figure5,
        write_json,
    )

    preset = FULL if args.preset == "full" else QUICK
    result = run_figure5(
        preset, jobs=args.jobs, trace_path=args.trace, seed=args.seed
    )
    print(render_figure5(result))
    if args.json:
        print(f"\nJSON written to {write_json(args.json, figure5_to_dict(result))}")
    if result.trace_summary is not None:
        print(f"\nPerfetto trace written to {result.trace_summary['trace_path']}")
    assert_figure5_shape(result)
    print("\nall Figure-5 qualitative claims hold")
    return 0


def _cmd_trace(args) -> int:
    from .telemetry import LAYER_NAMES, capture_workload

    summary = capture_workload(
        args.workload,
        args.out,
        metrics_path=args.metrics,
        topology=args.topology,
        seed=args.seed,
    )
    print(f"workload   {summary['workload']} — {summary['description']}")
    print(f"machine    {summary['topology']}")
    for key, value in summary["result"].items():
        print(f"{key:10s} {value}")
    layers = ", ".join(LAYER_NAMES[n] for n in summary["layers"])
    print(f"events     {summary['events']} across {layers}")
    print(f"trace      {summary['trace_path']} (open at https://ui.perfetto.dev)")
    if "metrics_path" in summary:
        print(f"metrics    {summary['metrics_path']}")
    return 0


def _cmd_fuzz(args) -> int:
    from .conformance import MODE_NAMES, replay_artifact, run_fuzz
    from .errors import SpecError

    modes = None
    if args.modes is not None:
        modes = [m.strip() for m in args.modes.split(",") if m.strip()]
        unknown = sorted(set(modes) - set(MODE_NAMES))
        if unknown:
            raise SpecError(
                f"unknown modes {', '.join(unknown)} (known: {', '.join(MODE_NAMES)})"
            )

    if args.replay is not None:
        result = replay_artifact(args.replay, shard_backend=args.shard_backend)
        print(f"replayed   {args.replay}")
        print(f"config     {result.config.describe()}")
        print(f"modes run  {', '.join(result.modes_run)}")
        if result.ok:
            print("verdict    discrepancy did NOT reproduce (all modes agree)")
            return 0
        d = result.discrepancy
        print(f"verdict    discrepancy reproduces: {d.mode}/{d.kind}")
        print(f"detail     {d.detail}")
        return 1

    if args.budget < 1:
        raise SpecError(f"--budget must be >= 1, got {args.budget}")
    report = run_fuzz(
        args.seed,
        args.budget,
        modes=modes,
        shard_backend=args.shard_backend,
        artifact_dir=args.artifact_dir,
        time_limit=args.time_limit,
        shrink=not args.no_shrink,
        progress=print,
    )
    print(f"seed       {args.seed}")
    print(f"configs    {report.configs_checked}/{args.budget} checked "
          f"in {report.elapsed:.1f}s")
    runs = ", ".join(f"{m}={n}" for m, n in sorted(report.mode_runs.items()))
    print(f"mode runs  {runs}")
    if report.ok:
        print("verdict    all execution modes agree on every sampled config")
        return 0
    print(f"verdict    {len(report.discrepancies)} DISCREPANCIES", file=sys.stderr)
    for disc, path in zip(
        report.discrepancies,
        report.artifact_paths or [None] * len(report.discrepancies),
    ):
        print(f"  {disc.mode}/{disc.kind}: {disc.config.describe()}", file=sys.stderr)
        if path is not None:
            print(f"    artifact: {path} (re-run: repro fuzz --replay {path})",
                  file=sys.stderr)
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Every library error is a usage error at this boundary: a bad topology
    spec, a machine the mapper cannot use, a contradictory flag combination
    (the same message here, in library calls and in the fuzzer, because
    all of them reject through ``engine.validate``), a checkpoint or
    artifact this build cannot read.  It prints as ``error: ...`` and
    exits 2; commands only catch what they can add context to.
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "generate": _cmd_generate,
        "topo": _cmd_topo,
        "figure4": _cmd_figure4,
        "figure5": _cmd_figure5,
        "trace": _cmd_trace,
        "fuzz": _cmd_fuzz,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
