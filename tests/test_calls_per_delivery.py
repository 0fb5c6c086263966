"""Exact Python calls per delivery, ratcheted: a rise fails.

Host time on a shared machine wobbles by tens of percent, but the number
of Python calls a fixed batch makes is exact: ``cProfile`` counts every
call, and the same batch gives the same counts in every process.  This
test runs the smoke batches of four end-to-end benchmark workloads
(``benchmarks/e2e/workloads.py``) under ``cProfile`` and checks, per
``repro`` package, the calls of ``repro``'s own named functions against
the ceilings below.

* A change that adds calls on a message's path fails here.  If the rise
  is meant, raise the ceiling in the same commit and say why.
* A change that removes calls lowers the ceiling in the same commit, so
  the gain is on record.

Comprehension frames (``<listcomp>``, ``<dictcomp>``, ``<setcomp>``) are
not counted: Python 3.12 inlines them (PEP 709).  Builtin calls differ by
version, so they are gated on Python 3.11 only.  Each batch runs once to
warm every cache and import, then once under the profiler with the cycle
collector off.
"""

import cProfile
import gc
import importlib.util
import os
import sys
from pathlib import Path
from typing import Dict, Tuple

import pytest

import repro
from repro.engine import execute

_WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "workloads.py"
_PACKAGE = str(Path(repro.__file__).resolve().parent) + os.sep
_INLINED = {"<listcomp>", "<dictcomp>", "<setcomp>"}
SEED = 2017

#: workload -> (deliveries of its smoke batch, calls per repro package
#: (a subpackage, or a top-level module without ``.py``), builtin calls)
CEILINGS: Dict[str, Tuple[int, Dict[str, int], int]] = {
    "fib_rr": (353, {
        "apps": 618, "declared": 65, "domains": 89, "engine": 38,
        "mapping": 2277, "netsim": 1376, "recursion": 2047, "rng": 193,
        "sched": 1701, "stack": 73, "topology": 250, "workloads": 5,
    }, 8045),
    "sat_lbn": (2501, {
        "apps": 11853, "declared": 37, "domains": 89, "engine": 38,
        "mapping": 14050, "netsim": 8138, "recursion": 11397, "rng": 109,
        "sched": 7865, "stack": 45, "telemetry": 1024, "topology": 159,
        "workloads": 9,
    }, 58377),
    "sparse_chain": (601, {
        "apps": 1202, "declared": 17, "domains": 89, "engine": 38,
        "mapping": 3133, "netsim": 8479, "recursion": 3655, "rng": 49,
        "sched": 1965, "stack": 25, "topology": 99, "workloads": 5,
    }, 18046),
    # the reliability path: drops, duplicates and ack/retransmit frames
    "sat_lossy": (2049, {
        "apps": 11845, "declared": 38, "domains": 95, "engine": 38,
        "mapping": 10533, "netsim": 14599, "recursion": 11389,
        "reliability": 15900, "rng": 111, "sched": 6509, "stack": 45,
        "telemetry": 1024, "topology": 159, "workloads": 9,
    }, 91137),
}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("e2e_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def count_calls(name: str) -> Tuple[int, Dict[str, int], int]:
    """(deliveries, repro calls per package, builtin calls) of one
    profiled pass over the workload's smoke batch."""
    cases = _load_workloads()[name].build(SEED, True)
    for case in cases:
        execute(case.spec)
    # garbage left by earlier tests could be collected (and its __del__
    # counted) inside the window: collect it first, and collect nothing
    # while profiling
    gc.collect()
    gc.disable()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        results = [execute(case.spec) for case in cases]
    finally:
        profiler.disable()
        gc.enable()
    calls: Dict[str, int] = {}
    builtins = 0
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            builtins += entry.callcount
        elif code.co_filename.startswith(_PACKAGE) and code.co_name not in _INLINED:
            package = code.co_filename[len(_PACKAGE):].split(os.sep)[0]
            package = package[:-3] if package.endswith(".py") else package
            calls[package] = calls.get(package, 0) + entry.callcount
    deliveries = sum(result.report.delivered_total for result in results)
    return deliveries, calls, builtins


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_calls_stay_under_their_ceilings(name):
    deliveries, calls, builtins = count_calls(name)
    want_deliveries, ceilings, builtin_ceiling = CEILINGS[name]
    # a different batch makes every count meaningless
    assert deliveries == want_deliveries
    over = {
        package: f"{n} > {ceilings.get(package, 0)} "
                 f"({n / deliveries:.2f} calls per delivery)"
        for package, n in sorted(calls.items()) if n > ceilings.get(package, 0)
    }
    assert not over, f"{name}: calls rose: {over}"
    if sys.version_info[:2] == (3, 11):
        assert builtins <= builtin_ceiling, (
            f"{name}: builtin calls rose: {builtins} > {builtin_ceiling}"
        )
