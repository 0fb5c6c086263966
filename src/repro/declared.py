"""Declared state: what digests and checkpoints see of an object.

:func:`repro.state.normalize` digests an object through its class's own
``__getstate__``; pickling (checkpoints) goes through the same pair.  A
:class:`Declared` class names its state fields in ``STATE``.  Its other
slots are storage, such as a cache, which no digest or checkpoint sees.
The state is the ``(name, value)`` pairs sorted by name, which normalize
like the slot walk of an object with only those slots, so declaring a
class's state moves none of its digests.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

__all__ = ["Counters", "Declared"]


class Declared:
    """A slotted class whose state is the fields ``STATE`` names.

    Restoring runs ``__init__()``, which rebuilds every slot, then sets the
    declared fields given.  A field not given keeps its fresh value and a
    field no longer declared is ignored, so checkpoints outlive storage
    changes.
    """

    __slots__ = ()

    #: the slots that are state, in the class's own order
    STATE: Tuple[str, ...] = ()

    def __getstate__(self) -> Tuple[Tuple[str, Any], ...]:
        return tuple([(name, getattr(self, name)) for name in sorted(self.STATE)])

    def __setstate__(self, state: Any) -> None:
        # (None, {slot: value}) is what default pickling of slots wrote
        given = dict(state[1] if state and state[0] is None else state)
        self.__init__()
        for name in self.STATE:
            if name in given:
                object.__setattr__(self, name, given[name])


class Counters(Declared):
    """Int counters, all zero at construction; a subclass declares
    ``__slots__ = STATE = (...)`` in report order.

    Such a subclass gets an ``__init__`` of one plain assignment per field,
    compiled once per class: a record is built per node and run, and a
    ``setattr`` call per field showed on the message path.  A subclass
    that defines its own ``__init__`` zeroes its fields itself.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "STATE" in cls.__dict__ and "__init__" not in cls.__dict__:
            body = "".join(f"\n    self.{name} = 0" for name in cls.STATE)
            namespace: Dict[str, Any] = {}
            exec(compile(f"def __init__(self):{body or ' pass'}", __file__, "exec"),
                 namespace)
            cls.__init__ = namespace["__init__"]

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for reports and tests."""
        return {name: getattr(self, name) for name in self.STATE}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({body})"
