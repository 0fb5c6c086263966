"""Two independent layer-3 applications co-residing on one machine.

The paper's layer 2 exists so that "processes [can be] more numerous than
hardware threads"; this exercises that end to end: a SAT solver at pid 0
and an unrelated fib solver at pid 1 run on the *same* simulated machine,
interleaved by the scheduler, without perturbing each other's answers.
"""

import pytest

from repro.apps.fib import fib, sequential_fib
from repro.apps.sat import SatProblem, make_solve_sat
from repro.mapping import MappingService
from repro.netsim import Machine
from repro.recursion import RecursionEngine
from repro.sched import SchedulerProgram
from repro.topology import Torus


def build_two_app_machine(topology, seed=0):
    sat_engine = RecursionEngine(make_solve_sat(simplify="single"))
    fib_engine = RecursionEngine(fib)
    sat_service = MappingService(sat_engine, "rr", seed=seed)
    fib_service = MappingService(fib_engine, "lbn", seed=seed + 1)
    scheduler = SchedulerProgram([sat_service, fib_service])
    machine = Machine(topology, scheduler)
    return machine, scheduler


class TestCoResidentApplications:
    def test_both_apps_complete_correctly(self, small_sat_suite):
        topo = Torus((5, 5))
        machine, scheduler = build_two_app_machine(topo)
        # NOTE: raw injections go to pid 0 (the SAT app); the fib app is
        # triggered via an explicit scheduler packet to pid 1.
        from repro.sched import Packet

        machine.inject(0, SatProblem(small_sat_suite[0]))
        machine.inject(7, Packet(dst_pid=1, src_pid=0, payload=12))
        machine.run()

        sat_results = MappingService.results_of(scheduler.process_state(machine, 0, 0))
        fib_results = MappingService.results_of(scheduler.process_state(machine, 7, 1))
        assert len(sat_results) == 1
        model = sat_results[0]
        assert model is not None
        assert small_sat_suite[0].is_satisfied_by(dict(model))
        assert fib_results == [sequential_fib(12)]

    def test_apps_use_independent_mapper_state(self, small_sat_suite):
        topo = Torus((4, 4))
        machine, scheduler = build_two_app_machine(topo, seed=3)
        from repro.sched import Packet

        machine.inject(0, SatProblem(small_sat_suite[1]))
        machine.inject(0, Packet(dst_pid=1, src_pid=0, payload=8))
        machine.run()
        # each pid keeps its own layer-3 activity view
        sat_view = MappingService.view_of(scheduler.process_state(machine, 0, 0))
        fib_view = MappingService.view_of(scheduler.process_state(machine, 0, 1))
        assert sat_view is not fib_view
        assert sat_view.received_count > 0
        assert fib_view.received_count > 0

    def test_answer_matches_isolated_runs(self, small_sat_suite):
        from repro import HyperspaceStack

        topo = Torus((5, 5))
        # isolated verdict
        stack = HyperspaceStack(topo, seed=0)
        solo, _ = stack.run_recursive(
            make_solve_sat(simplify="single"), SatProblem(small_sat_suite[2])
        )
        # co-resident verdict
        machine, scheduler = build_two_app_machine(topo)
        from repro.sched import Packet

        machine.inject(0, SatProblem(small_sat_suite[2]))
        machine.inject(3, Packet(dst_pid=1, src_pid=0, payload=10))
        machine.run()
        shared = MappingService.results_of(scheduler.process_state(machine, 0, 0))[0]
        assert (solo is not None) == (shared is not None)
