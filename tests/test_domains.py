"""One judge per knob: ``repro.domains`` rows refuse the same values in
``validate()``, in ``HyperspaceStack`` at construction, and in the layers.

Each row gets one value outside its domain (a bool for an int, a string or
an int for a bool, a value below the floor, an unknown name).  The run
engine refuses it with ``SpecError``, the stack with the row's own class,
and both with the same text.
"""

import inspect

import pytest

from repro import HyperspaceStack
from repro.conformance.space import SPACE
from repro.domains import DOMAINS, describe, judge, problem
from repro.engine import RULES, RunSpec, validate
from repro.reliability import ReliabilityConfig
from repro.errors import (
    MappingError,
    RecursionLayerError,
    ReliabilityError,
    SchedulingError,
    SimulationError,
    SpecError,
)
from repro.topology import Ring

#: one value outside each row's domain
OUTSIDE = {
    "workload": "bogus",
    "seed": True,
    "mapper": "bogus",
    "status": 0,
    "cancellation": "yes",
    "share_load": "bogus",
    "queue_policy": "bogus",
    "queue_capacity": 0,
    "record_queue_depths": "x",
    "scheduler_budget": 0,
    "share_threshold": True,
    "forward_hops": -1,
    "latency": 2.5,
    "max_steps": 0,
    "drain": 0,
    "strict": "no",
    "drop": 2.0,
    "duplicate": True,
    "reliable": "no",
    "retry_limit": -1,
    "checkpoint_every": 0,
    "shards": True,
    "partitioner": "grid",
    "shard_backend": "bogus",
    "sat_sizing": 1,
}

#: the stack's keywords that have a row; ``shards`` also takes None and
#: "auto" there (``resolve_shards`` judges it)
STACK_KNOBS = sorted(
    (set(inspect.signature(HyperspaceStack).parameters) & set(DOMAINS)) - {"shards"}
)


def test_every_row_has_an_outside_value():
    assert sorted(OUTSIDE) == sorted(DOMAINS)


def test_every_row_is_a_rule():
    docs = {r.code: r.doc for r in RULES}
    for name in DOMAINS:
        code = name.replace("_", "-")
        # retry_limit's rule also asks for reliable=True: it is hand-written
        assert docs[code] == describe(name) or code == "retry-limit"


@pytest.mark.parametrize("name", sorted(OUTSIDE))
def test_validate_refuses_with_the_row_text(name):
    value = OUTSIDE[name]
    text = problem(name, value)
    assert text is not None and repr(value) in text
    with pytest.raises(SpecError) as exc:
        validate(RunSpec(topology="ring:4", **{name: value}))
    assert str(exc.value) == text


@pytest.mark.parametrize("name", STACK_KNOBS)
def test_the_stack_refuses_at_construction_with_the_same_text(name):
    value = OUTSIDE[name]
    with pytest.raises(DOMAINS[name].error) as exc:
        HyperspaceStack(Ring(4), **{name: value})
    assert str(exc.value) == problem(name, value)


#: the classes each knob raised before the table, and the classes of the
#: bool knobs nothing refused: a changed class would break a caller's except
STACK_CLASSES = {
    "queue_policy": SimulationError,
    "queue_capacity": SimulationError,
    "latency": SimulationError,
    "scheduler_budget": SchedulingError,
    "shard_backend": SimulationError,
    "forward_hops": MappingError,
    "drop": SimulationError,
    "mapper": MappingError,
    "seed": SimulationError,
    "status": MappingError,
    "share_load": MappingError,
    "share_threshold": MappingError,
    "cancellation": RecursionLayerError,
    "reliable": ReliabilityError,
}


@pytest.mark.parametrize("name", sorted(STACK_CLASSES))
def test_row_classes(name):
    assert DOMAINS[name].error is STACK_CLASSES[name]


def test_retry_limit_needs_reliable_at_construction():
    with pytest.raises(ReliabilityError, match="retry_limit needs reliable=True"):
        HyperspaceStack(Ring(4), retry_limit=3)
    stack = HyperspaceStack(Ring(4), reliable=True, retry_limit=3)
    assert stack.reliable.retry_limit == 3


#: layer constructors judged by a row: (name, build, value outside the row)
LAYER_REFUSALS = [
    ("retry_limit", lambda v: ReliabilityConfig(retry_limit=v), True),
    ("retry_limit", lambda v: ReliabilityConfig(retry_limit=v), -1),
]


@pytest.mark.parametrize("name, build, value", LAYER_REFUSALS)
def test_a_layer_refuses_like_the_stack(name, build, value):
    with pytest.raises(DOMAINS[name].error) as layer:
        build(value)
    with pytest.raises(DOMAINS[name].error) as stack:
        HyperspaceStack(Ring(4), reliable=True, **{name: value})
    assert str(layer.value) == str(stack.value) == problem(name, value)


def test_retry_limit_none_is_the_default_cap():
    assert ReliabilityConfig(retry_limit=None).retry_limit == 12
    assert ReliabilityConfig().retry_limit == 12


@pytest.mark.parametrize("name", sorted(set(SPACE) & set(DOMAINS)))
def test_every_sampled_value_passes_its_row(name):
    for value in set(SPACE[name]):
        assert problem(name, value) is None, (name, value)


def test_a_bool_row_takes_exactly_the_bools():
    assert problem("reliable", True) is None
    assert problem("reliable", False) is None
    for other in (0, 1, "yes", "no", None, 1.0):
        with pytest.raises(ReliabilityError, match="reliable must be a bool"):
            judge("reliable", other)
