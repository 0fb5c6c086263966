"""The workload table: one record per thing :func:`repro.engine.execute` runs.

Everything that differs from one workload to the next — what its params
must look like, how its program is built, how a raw result becomes a
comparable verdict, what the sequential reference says, how the fuzzer
samples and shrinks it, what ``repro trace`` runs — is one
:class:`Workload` record in :data:`WORKLOADS`.  The engine, the
conformance fuzzer and the trace capture look records up by name; none
of them compares workload names.  Adding a workload is adding one record — see
``docs/writing-a-solver.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .apps.fib import fib, sequential_fib
from .apps.nqueens import (
    QueensProblem,
    is_valid_placement,
    nqueens,
    sequential_nqueens,
)
from .apps.sat.cnf import CNF
from .apps.sat.distributed import SatProblem, make_solve_sat
from .apps.sat.cdcl import cdcl_solve
from .apps.sat.generator import uf20_91_suite, uniform_random_ksat
from .apps.sat.heuristics import HEURISTIC_NAMES
from .apps.sumrec import calculate_sum, closed_form_sum
from .apps.traversal import traversal_program
from .errors import SpecError
from .netsim import ShardProgramSpec

__all__ = ["Program", "WORKLOADS", "Workload", "cnf_of"]

Params = Dict[str, Any]


class Program(NamedTuple):
    """What a workload's builder hands the engine to run.

    Either a layer-5 program for the full stack — ``fn``, a generator
    function (or a picklable recipe for one when it is a closure), and
    its root argument ``args`` — or a bare layer-1 ``node_program`` recipe
    plus the ``read_node`` callback (see
    :meth:`~repro.netsim.Machine.map_nodes`) that reads each node's share
    of the raw result.
    """

    fn: Any = None
    args: Any = None
    node_program: Optional[ShardProgramSpec] = None
    read_node: Optional[Callable[[Any, Any, Any], Any]] = None


def _same(verdict: Any) -> Any:
    return verdict


def _nothing(*_args: Any) -> None:
    return None


@dataclass(frozen=True)
class Workload:
    """One workload, as the callables the rest of the library looks up.

    Only ``name``, ``default_params``, ``build`` and ``verdict`` are
    required; every other field defaults to "nothing special about this
    workload".
    """

    name: str
    #: canonical params: the shrinker's target, the table test's fixture
    default_params: Params
    #: ``(spec, **runtime attachments) -> Program``
    build: Callable[..., Program]
    #: raw result -> verdict fields (``kind`` is added by :meth:`verdict_of`)
    verdict: Callable[[Any], Dict[str, Any]]
    #: ``params -> error message or None``
    check_params: Callable[[Params], Optional[str]] = _nothing
    #: verdict -> its schedule-independent part (which model or placement
    #: a run finds depends on the schedule; whether one exists does not)
    coarse: Callable[[Any], Any] = _same
    #: ``(params, topology) -> coarse verdict`` from a sequential solver
    reference: Optional[Callable[[Params, Any], Any]] = None
    #: ``(params, verdict) -> error or None``: is the witness itself valid?
    check_witness: Callable[[Params, Any], Optional[str]] = _nothing
    #: ``rng -> params`` for the conformance sampler (None: never sampled)
    sample_params: Optional[Callable[[random.Random], Params]] = None
    #: ``(params, fails) -> smaller params`` still satisfying ``fails``
    shrink_params: Optional[Callable[[Params, Callable[[Params], bool]], Params]] = None
    #: ``spec -> error or None`` for spec fields only this workload reads
    check_knobs: Callable[[Any], Optional[str]] = _nothing
    #: ``spec -> reason or None``: why it cannot checkpoint / run sharded
    checkpoint_blocker: Callable[[Any], Optional[str]] = _nothing
    shard_blocker: Callable[[Any], Optional[str]] = _nothing
    #: ``(description, seed -> RunSpec fields)`` for ``repro trace``; the
    #: fields are a plain dict, ``topology`` included (None: not traceable)
    demo: Optional[Tuple[str, Callable[[int], Params]]] = None

    def verdict_of(self, raw: Any) -> Dict[str, Any]:
        """Plain comparable data from the raw result, tagged with ``kind``."""
        return {"kind": self.name, **self.verdict(raw)}

    def verify(self, params: Params, topology: Any, verdict: Any) -> Optional[str]:
        """Check a completed run against the sequential reference.

        Returns an error string, or None when the verdict agrees with the
        reference and its witness is valid (or no reference applies).
        """
        if self.reference is None:
            return None
        want = self.reference(params, topology)
        got = self.coarse(verdict)
        if got != want:
            return f"verdict {got!r} disagrees with sequential reference {want!r}"
        return self.check_witness(params, verdict)


# -- integer-argument workloads (fib, nqueens, sumrec) ----------------------


def _needs_n(name: str) -> Callable[[Params], Optional[str]]:
    def check(params: Params) -> Optional[str]:
        n = params.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            return (
                f"workload {name!r} needs workload_params"
                f"['n'] (a non-negative int), got {params!r}"
            )
        return None

    return check


def _walk_n_down(floor: int) -> Callable[[Params, Callable[[Params], bool]], Params]:
    """Shrinker: the smallest ``n >= floor`` that still fails."""

    def shrink(params: Params, fails: Callable[[Params], bool]) -> Params:
        for n in range(floor, params["n"]):
            candidate = {**params, "n": n}
            if fails(candidate):
                return candidate
        return params

    return shrink


def _check_queens(params: Params, verdict: Any) -> Optional[str]:
    if verdict["placement"] is None:
        return None
    placement = tuple(verdict["placement"])
    if not is_valid_placement(params["n"], placement):
        return f"claimed {params['n']}-queens placement is invalid: {placement!r}"
    return None


# -- sat --------------------------------------------------------------------

#: why the 'random' SAT heuristic cannot be checkpointed (shared RNG stream)
_RANDOM_CKPT_MSG = (
    "the 'random' branching heuristic shares one RNG stream across "
    "invocations and cannot be checkpointed/resumed deterministically; "
    "use a deterministic heuristic (e.g. 'max_occurrence')"
)
#: why the 'random' SAT heuristic cannot run sharded (per-worker RNG copies)
_RANDOM_SHARD_MSG = (
    "the 'random' branching heuristic shares one RNG stream across "
    "invocations; under the sharded backend each worker would hold "
    "its own copy and the draws would diverge from a serial run — "
    "use a deterministic heuristic (e.g. 'max_occurrence')"
)
_SIMPLIFY_NAMES = ("none", "single", "fixpoint")
_HINT_MODES = (None, "clauses", "vars")


def cnf_of(params: Params) -> CNF:
    """Materialise a ``sat`` spec's CNF formula from its workload params.

    Either an explicit formula (``{"clauses": [[...]], "num_vars": N}``,
    used verbatim — what :meth:`CNF.to_params` writes) or a generator
    recipe (``{"num_vars", "num_clauses", "formula_seed"}`` through
    :func:`~repro.apps.sat.generator.uniform_random_ksat`, unfiltered so
    both SAT and UNSAT instances occur).  Deterministic: the formula is a
    pure function of the params.
    """
    if "clauses" in params:
        return CNF([tuple(c) for c in params["clauses"]], params["num_vars"])
    rng = random.Random(params["formula_seed"])
    k = min(3, params["num_vars"])
    return uniform_random_ksat(params["num_vars"], params["num_clauses"], k, rng)


def _check_sat_params(params: Params) -> Optional[str]:
    explicit = "clauses" in params and "num_vars" in params
    recipe = all(k in params for k in ("num_vars", "num_clauses", "formula_seed"))
    if not (explicit or recipe):
        return (
            "workload 'sat' needs workload_params {'clauses', 'num_vars'} "
            "(explicit formula) or {'num_vars', 'num_clauses', "
            "'formula_seed'} (generator recipe), got "
            f"{sorted(params)!r}"
        )
    return None


def _check_sat_knobs(spec: Any) -> Optional[str]:
    if spec.heuristic not in HEURISTIC_NAMES + ("custom",):
        return (
            f"unknown heuristic {spec.heuristic!r}; expected one of "
            f"{HEURISTIC_NAMES} (or 'custom' with execute(heuristic_fn=...))"
        )
    if spec.simplify not in _SIMPLIFY_NAMES:
        return (
            f"unknown simplify mode {spec.simplify!r}; "
            f"expected one of {_SIMPLIFY_NAMES}"
        )
    if spec.hint_mode not in _HINT_MODES:
        return f"unknown hint_mode {spec.hint_mode!r}; expected one of {_HINT_MODES}"
    return None


def _build_sat(spec: Any, *, heuristic_fn: Any = None, **_unused: Any) -> Program:
    heuristic: Any = spec.heuristic
    if heuristic == "custom":
        if heuristic_fn is None:
            raise SpecError("heuristic 'custom' needs execute(heuristic_fn=...)")
        heuristic = heuristic_fn
    # the solver is a closure: a recipe lets shard workers rebuild it
    solver = ShardProgramSpec(
        make_solve_sat,
        heuristic,
        rng=random.Random(spec.seed),
        hint_mode=spec.hint_mode,
        simplify=spec.simplify,
    )
    return Program(fn=solver, args=SatProblem(cnf_of(spec.workload_params)))


def _sat_verdict(raw: Any) -> Dict[str, Any]:
    return {
        "sat": raw is not None,
        "assignment": sorted(dict(raw).items()) if raw is not None else None,
    }


def _sat_reference(params: Params, _topology: Any) -> Dict[str, Any]:
    # CDCL keeps its own trail and never calls CNF.assign: a fault in the
    # formula code that the distributed solver and DPLL share cannot make
    # this reference agree with them
    result = cdcl_solve(cnf_of(params))
    return {"kind": "sat", "sat": bool(result.satisfiable)}


def _check_model(params: Params, verdict: Any) -> Optional[str]:
    if not verdict["sat"]:
        return None
    model = dict(verdict["assignment"])
    if not cnf_of(params).is_satisfied_by(model):
        return f"claimed SAT model does not satisfy the formula: {model!r}"
    return None


def _sample_sat(rng: random.Random) -> Params:
    num_vars = rng.randrange(5, 10)
    # straddle the satisfiability threshold (~4.27 clauses/var for 3-SAT)
    ratio = rng.choice((3.0, 4.3, 5.5))
    return {
        "num_vars": num_vars,
        "num_clauses": max(1, round(num_vars * ratio)),
        "formula_seed": rng.randrange(1_000_000),
    }


def _explicit(clauses: Sequence[Tuple[int, ...]]) -> Params:
    num_vars = max((abs(l) for c in clauses for l in c), default=1)
    return CNF(clauses, num_vars).to_params()


def _ddmin_clauses(
    clauses: List[Tuple[int, ...]], fails: Callable[[Params], bool]
) -> List[Tuple[int, ...]]:
    """Zeller's ddmin over the clause list (complements first)."""
    n = 2
    while len(clauses) >= 2:
        chunk = max(1, len(clauses) // n)
        reduced = False
        for start in range(0, len(clauses), chunk):
            complement = clauses[:start] + clauses[start + chunk:]
            if complement and fails(_explicit(complement)):
                clauses = complement
                n = max(2, n - 1)
                reduced = True
                break
        if not reduced:
            if n >= len(clauses):
                break
            n = min(len(clauses), n * 2)
    return clauses


def _shrink_sat(params: Params, fails: Callable[[Params], bool]) -> Params:
    # materialise the generator recipe so single clauses become removable
    if "clauses" not in params:
        explicit = _explicit(cnf_of(params).clauses)
        if not fails(explicit):
            return params  # materialisation changed behaviour; keep recipe
        params = explicit
    clauses = _ddmin_clauses([tuple(c) for c in params["clauses"]], fails)
    params = _explicit(clauses)
    # compact variable names so num_vars reflects what the formula uses
    used = sorted({abs(l) for c in clauses for l in c})
    renumber = {v: i + 1 for i, v in enumerate(used)}
    if renumber != {v: v for v in used}:
        renamed = _explicit([
            tuple(renumber[abs(l)] * (1 if l > 0 else -1) for l in c)
            for c in clauses
        ])
        if fails(renamed):
            params = renamed
    return params


def _random_heuristic(message: str) -> Callable[[Any], Optional[str]]:
    return lambda spec: message if spec.heuristic == "random" else None


# -- traversal (a bare layer-1 program) -------------------------------------

#: why traversal cannot be checkpointed (bare layer-1 program)
_TRAVERSAL_CKPT_MSG = (
    "the 'traversal' workload is a bare layer-1 program: node program "
    "state lives outside the layer-2 snapshot protocol, so it cannot be "
    "checkpointed or resumed"
)


def _read_visited(_program: Any, ctx: Any, _arg: Any) -> bool:
    return bool(ctx.state["visited"])


def _build_traversal(_spec: Any, **_unused: Any) -> Program:
    return Program(
        node_program=ShardProgramSpec(traversal_program), read_node=_read_visited
    )


# -- custom (the program is a runtime attachment) ---------------------------


def _build_custom(
    _spec: Any, *, fn: Any = None, args: Any = None, **_unused: Any
) -> Program:
    if fn is None:
        raise SpecError("workload 'custom' needs execute(fn=...)")
    # an unpicklable fn reaches sharded workers as a ShardProgramSpec recipe
    return Program(fn=fn, args=args)


# -- the table --------------------------------------------------------------

#: name -> record, in the order error messages list the names.  ``custom``
#: marks a run whose function is a runtime attachment (``execute(fn=...)``);
#: such specs execute but their checkpoint headers cannot rebuild them.
WORKLOADS: Dict[str, Workload] = {
    record.name: record
    for record in (
        Workload(
            name="sat",
            default_params={"num_vars": 6, "num_clauses": 14, "formula_seed": 0},
            check_params=_check_sat_params,
            build=_build_sat,
            verdict=_sat_verdict,
            coarse=lambda v: {"kind": "sat", "sat": v["sat"]},
            reference=_sat_reference,
            check_witness=_check_model,
            sample_params=_sample_sat,
            shrink_params=_shrink_sat,
            check_knobs=_check_sat_knobs,
            checkpoint_blocker=_random_heuristic(_RANDOM_CKPT_MSG),
            shard_blocker=_random_heuristic(_RANDOM_SHARD_MSG),
            demo=("distributed DPLL on one uf20-91 instance (all 5 layers + probes)",
                  lambda seed: {
                      "workload_params": uf20_91_suite(1, seed=seed)[0].to_params(),
                      "topology": "torus2d:14x14", "mapper": "lbn", "status": 16,
                  }),
        ),
        Workload(
            name="fib",
            default_params={"n": 5},
            check_params=_needs_n("fib"),
            # module-level generator function: pickles by reference
            build=lambda spec, **_: Program(fn=fib, args=spec.workload_params["n"]),
            verdict=lambda raw: {"value": raw},
            reference=lambda params, _topo: {
                "kind": "fib", "value": sequential_fib(params["n"]),
            },
            sample_params=lambda rng: {"n": rng.randrange(3, 10)},
            shrink_params=_walk_n_down(0),
            demo=("fork-join Fibonacci (layers 1-4, fixed fan-out)", lambda seed: {
                "workload_params": {"n": 13}, "topology": "torus2d:8x8", "drain": False,
            }),
        ),
        Workload(
            name="nqueens",
            default_params={"n": 4},
            check_params=_needs_n("nqueens"),
            build=lambda spec, **_: Program(
                fn=nqueens, args=QueensProblem(spec.workload_params["n"])
            ),
            verdict=lambda raw: {
                "placement": list(raw) if raw is not None else None,
            },
            coarse=lambda v: {"kind": "nqueens", "found": v["placement"] is not None},
            reference=lambda params, _topo: {
                "kind": "nqueens",
                "found": sequential_nqueens(params["n"]) is not None,
            },
            check_witness=_check_queens,
            # n=2/3 have no solution, n=1/4/5/6 do — both verdicts get coverage
            sample_params=lambda rng: {"n": rng.randrange(2, 7)},
            shrink_params=_walk_n_down(1),
            demo=("6-queens via non-deterministic choice (layers 1-4)", lambda seed: {
                "workload_params": {"n": 6}, "topology": "torus2d:8x8",
                "mapper": "lbn", "drain": False,
            }),
        ),
        Workload(
            name="sumrec",
            default_params={"n": 10},
            check_params=_needs_n("sumrec"),
            build=lambda spec, **_: Program(
                fn=calculate_sum, args=spec.workload_params["n"]
            ),
            verdict=lambda raw: {"value": raw},
            reference=lambda params, _topo: {
                "kind": "sumrec", "value": closed_form_sum(params["n"]),
            },
            sample_params=lambda rng: {"n": rng.randrange(1, 13)},
            shrink_params=_walk_n_down(0),
            demo=("the paper's Listing-3 recursive sum (layers 1-4)", lambda seed: {
                "workload_params": {"n": 60}, "topology": "torus2d:8x8", "drain": False,
            }),
        ),
        Workload(
            name="traversal",
            default_params={},
            build=_build_traversal,
            # raw = {node: visited?} gathered by read_node
            verdict=lambda raw: {"visited": [n for n in sorted(raw) if raw[n]]},
            # a flood fill of a connected topology reaches every node
            reference=lambda _params, topology: {
                "kind": "traversal", "visited": list(topology.nodes()),
            },
            sample_params=lambda rng: {},
            checkpoint_blocker=lambda spec: _TRAVERSAL_CKPT_MSG,
            demo=("Listing-1 mesh flood fill (layer 1 only)",
                  lambda seed: {"workload_params": {}, "topology": "torus2d:20x20"}),
        ),
        Workload(
            name="custom",
            default_params={},
            build=_build_custom,
            verdict=lambda raw: {"value": raw},
        ),
    )
}
