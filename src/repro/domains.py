"""The value domains of the run knobs: one row per field, one judge.

A knob is judged by the :class:`~repro.engine.RunSpec` rule table, by
:class:`~repro.stack.HyperspaceStack` at construction and by the
constructor of the layer that uses it.  All three read its row here, so a
value is refused everywhere or nowhere, with one text: the layers raise
the row's error class, :func:`repro.engine.validate` raises ``SpecError``.

A row is a ``bool`` (``"no"`` or ``0`` is refused: either would read as
some bool), an ``int`` at or above ``floor`` (None also, when
``optional``; a bool is no int), a ``probability`` in ``[0, 1]``, or a
``choice`` from a tuple or from a registry named ``"module:NAME"``,
imported on first use so that this module imports only the errors.
Cross-field rules stay hand-written in :data:`repro.engine.RULES`.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, NamedTuple, Optional, Tuple, Type, Union

from .errors import (
    MappingError,
    RecursionLayerError,
    ReliabilityError,
    ReproError,
    SchedulingError,
    SimulationError,
    SpecError,
)

__all__ = ["DOMAINS", "Domain", "describe", "judge", "problem"]


class Domain(NamedTuple):
    """The values one field takes, and the error class that refuses others."""

    kind: str
    error: Type[ReproError]
    floor: Optional[int] = None
    optional: bool = False
    choices: Union[Tuple[str, ...], str] = ()


#: field -> domain, for every RunSpec field judged one value at a time
DOMAINS: Dict[str, Domain] = {
    "workload": Domain("choice", SpecError, choices="repro.workloads:WORKLOADS"),
    "seed": Domain("int", SimulationError),
    "mapper": Domain("choice", MappingError, choices="repro.mapping.mappers:MAPPERS"),
    "status": Domain("int", MappingError, floor=1, optional=True),
    "cancellation": Domain("bool", RecursionLayerError),
    "share_load": Domain("choice", MappingError, choices=("queue", "invocations")),
    "queue_policy": Domain("choice", SimulationError, choices=("fifo", "lifo", "random")),
    "queue_capacity": Domain("int", SimulationError, floor=1, optional=True),
    "record_queue_depths": Domain("bool", SimulationError),
    "scheduler_budget": Domain("int", SchedulingError, floor=1, optional=True),
    "share_threshold": Domain("int", MappingError, floor=1, optional=True),
    "forward_hops": Domain("int", MappingError, floor=0),
    "latency": Domain("int", SimulationError, floor=0),
    "max_steps": Domain("int", SimulationError, floor=1),
    "drain": Domain("bool", SpecError),
    "strict": Domain("bool", SpecError),
    "drop": Domain("probability", SimulationError),
    "duplicate": Domain("probability", SimulationError),
    "reliable": Domain("bool", ReliabilityError),
    "retry_limit": Domain("int", ReliabilityError, floor=0, optional=True),
    "checkpoint_every": Domain("int", SimulationError, floor=1, optional=True),
    "shards": Domain("int", SimulationError, floor=1),
    "partitioner": Domain("choice", SpecError, choices=("strip",)),
    "shard_backend": Domain("choice", SimulationError, choices=("auto", "process", "inline")),
    "sat_sizing": Domain("bool", SpecError),
}


def _allowed(row: Domain) -> Tuple[str, ...]:
    if isinstance(row.choices, tuple):
        return row.choices
    module, registry = row.choices.split(":")
    return tuple(getattr(importlib.import_module(module), registry))


def _words(row: Domain) -> str:
    """A bool, int or probability row's domain, as the texts say it."""
    if row.kind != "int":
        return "a bool" if row.kind == "bool" else "a probability in [0, 1]"
    kind = "an int" if row.floor is None else f"an int >= {row.floor}"
    return f"None or {kind}" if row.optional else kind


def describe(name: str) -> str:
    """The row as one line of the validation table."""
    row = DOMAINS[name]
    if row.kind != "choice":
        return f"{name} is {_words(row)}"
    if isinstance(row.choices, tuple):
        return f"{name} is {'/'.join(row.choices)}"
    return f"{name} is a known registry name"


def problem(name: str, value: Any) -> Optional[str]:
    """Why ``value`` is outside ``name``'s domain, or None when it is inside."""
    row = DOMAINS[name]
    if row.kind == "choice":
        allowed = _allowed(row)
        if isinstance(value, str) and value in allowed:
            return None
        return f"unknown {name} {value!r}; expected one of {allowed}"
    if row.kind == "bool":
        inside = type(value) is bool
    elif row.kind == "probability":
        inside = (isinstance(value, (int, float)) and type(value) is not bool
                  and 0.0 <= value <= 1.0)
    else:
        inside = (value is None and row.optional or type(value) is int
                  and (row.floor is None or value >= row.floor))
    return None if inside else f"{name} must be {_words(row)}, got {value!r}"


def judge(name: str, value: Any) -> None:
    """Raise the row's error class when ``value`` is outside its domain."""
    message = problem(name, value)
    if message is not None:
        raise DOMAINS[name].error(message)
