"""Property: snapshot -> restore is an identity for every stateful layer.

The checkpoint protocol composes per-layer hooks (``docs/state.md``); the
whole-stack round trip is covered elsewhere.  Here each layer's hook pair
is exercised *individually* against a mid-run machine — live queues,
suspended generators, in-flight reliability windows — with the full-stack
``state_digest_of`` as the identity witness: restoring a layer's own
snapshot must not move the digest, and must not disturb any other layer.
"""

import copy

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import HyperspaceStack
from repro.apps.fib import fib
from repro.mapping import MappingService
from repro.recursion import RecursionEngine
from repro.state import state_digest_of
from repro.topology import Torus

#: layer name -> needs a reliability-protected faulty stack
LAYERS = {
    "netsim": False,        # L1: queues, RNG, step counter, fault state
    "reliability": True,    # L1.5: retry windows, seqnos, dedup sets
    "sched": False,         # L2: per-node process state via the template
    "mapping": False,       # L3: mapper/status/forward tables (hosts L4-5)
    "recursion": False,     # L4: live generators via sent-log replay
}


def mid_run(seed, reliable):
    """A stack stopped mid-computation, live state on every layer."""
    kwargs = dict(seed=seed)
    if reliable:
        kwargs.update(drop=0.08, duplicate=0.04, reliable=True)
    stack = HyperspaceStack(Torus((3, 3)), **kwargs)
    stack.run_recursive(fib, 12, max_steps=25, strict=False,
                        halt_on_result=False)
    run = stack.last_run
    return stack, run.machine, run.scheduler


def digest(stack, machine, scheduler):
    return state_digest_of(stack._compose_layers(machine, scheduler))


def live_invocations(machine, scheduler):
    service = scheduler._templates[0]
    total = 0
    for node in machine.topology.nodes():
        pstate = scheduler.process_state(machine, node)
        total += RecursionEngine.live_invocations_of(service.app_state_of(pstate))
    return total


def roundtrip(layer, machine, scheduler):
    """Snapshot ``layer``, detach the data, restore it over itself."""
    if layer == "netsim":
        machine.restore(copy.deepcopy(machine.snapshot()))
    elif layer == "reliability":
        machine.reliability.restore(copy.deepcopy(machine.reliability.snapshot()))
    elif layer == "sched":
        scheduler.restore(machine, copy.deepcopy(scheduler.snapshot(machine)))
    elif layer == "mapping":
        service = scheduler._templates[0]
        for node in machine.topology.nodes():
            pstate = scheduler.process_state(machine, node)
            data = copy.deepcopy(service.snapshot_process_state(pstate))
            service.restore_process_state(
                machine.state_of(node).proc_ctxs[0], data)
    elif layer == "recursion":
        service = scheduler._templates[0]
        engine = service.app
        for node in machine.topology.nodes():
            pstate = scheduler.process_state(machine, node)
            app_state = MappingService.app_state_of(pstate)
            data = copy.deepcopy(engine.snapshot_app_state(app_state))
            engine.restore_app_state(pstate.mctx, data)
    else:  # pragma: no cover - parametrization typo guard
        raise AssertionError(layer)


@pytest.mark.parametrize("layer", sorted(LAYERS))
@given(seed=st.integers(0, 30))
@settings(max_examples=6, deadline=None)
def test_layer_roundtrip_preserves_the_stack_digest(layer, seed):
    stack, machine, scheduler = mid_run(seed, reliable=LAYERS[layer])
    # the property is vacuous on a drained machine: demand live work
    assert live_invocations(machine, scheduler) > 0
    if layer == "reliability":
        assert machine.reliability is not None
    before = digest(stack, machine, scheduler)
    roundtrip(layer, machine, scheduler)
    assert digest(stack, machine, scheduler) == before


@given(seed=st.integers(0, 30))
@settings(max_examples=4, deadline=None)
def test_roundtripped_stack_still_finishes_correctly(seed):
    # identity of the digest is necessary; this adds sufficiency — after
    # round-tripping every layer in place, the run completes as if
    # nothing happened
    stack, machine, scheduler = mid_run(seed, reliable=True)
    for layer in sorted(LAYERS):
        roundtrip(layer, machine, scheduler)
    machine.run(max_steps=5000)
    state = scheduler.process_state(machine, 0)
    assert list(MappingService.results_of(state)) == [144]  # fib(12)
