"""Explicit layer state: the snapshot/restore protocol and checkpoint format.

Every stateful layer of the stack exposes a uniform pair of methods::

    snapshot() -> LayerState      # capture all mutable state (live objects)
    restore(state: LayerState)    # install a previously captured state

(template-style layers whose per-node state lives in machine slots — the
layer-2 scheduler — take the machine as an explicit handle:
``snapshot(machine)`` / ``restore(machine, state)``).

:class:`~repro.stack.HyperspaceStack` composes the per-layer states into a
:class:`StackCheckpoint`: a versioned, self-describing unit that
:func:`save_checkpoint` / :func:`load_checkpoint` move to and from disk.
The headline invariant (pinned by ``tests/test_checkpoint.py`` and the CI
smoke job): restoring a checkpoint taken at any step *k* onto an
identically configured stack and running to completion produces a
bit-identical schedule, verdict, stats and *state digest* versus the
uninterrupted run — including under link faults, the reliability layer and
adaptive (LBN) mapping.

On-disk format (stdlib-only)
----------------------------

::

    line 1   REPRO-CKPT 1\\n                  magic + schema version (ASCII)
    line 2   {...json meta...}\\n             self-describing header
    rest     <pickle payload bytes>           the composed layer states

The meta header carries the step, topology description, layer names, an
optional application ``workload`` blob (used by ``repro solve --resume`` to
rebuild the stack), the payload's length and sha256 (integrity), and the
semantic ``state_digest``.  :func:`load_checkpoint` verifies magic, schema
and payload digest and raises :class:`~repro.errors.CheckpointError` on any
mismatch.

Two digests, two jobs:

* the **payload digest** (full sha256 of the pickle bytes) detects file
  corruption or truncation;
* the **state digest** (:func:`canonical_digest` of the :func:`normalize`-d
  layer states) is *semantic*: it is identical for equal states regardless
  of how the in-memory objects are shared or what order they were created
  in, which is what makes it comparable between a resumed run and a
  straight-through run.

.. warning::
   The payload is a pickle: load checkpoints only from trusted sources
   (the same caveat as any pickle-based format).
"""

from __future__ import annotations

import json
import pickle
import random
from collections import deque
from pathlib import Path
from types import BuiltinFunctionType, FunctionType, MethodType
from typing import Any, Dict, Optional, Union

from .errors import CheckpointError
from .netsim.digest import canonical_digest, payload_digest

__all__ = [
    "MAGIC",
    "SCHEMA_VERSION",
    "LayerState",
    "StackCheckpoint",
    "normalize",
    "digest_of_normalized",
    "state_digest_of",
    "save_checkpoint",
    "load_checkpoint",
]

#: file magic, first token of line 1
MAGIC = "REPRO-CKPT"
#: on-disk schema version, second token of line 1
SCHEMA_VERSION = 1

#: the default ``__getstate__`` (Python >= 3.11; None before)
_OBJECT_GETSTATE = getattr(object, "__getstate__", None)


class LayerState:
    """One layer's captured mutable state.

    ``layer`` names the owner (``"netsim"``, ``"reliability"``, ``"sched"``,
    ``"telemetry"`` — layers 3-5 ride inside the scheduler's per-process
    states), ``version`` is the layer's own snapshot-schema version, and
    ``data`` is a plain (picklable) structure that may hold live objects:
    it is a view of the run until a :class:`StackCheckpoint` pickles it,
    and ``restore`` installs it without copying.
    """

    __slots__ = ("layer", "version", "data")

    def __init__(self, layer: str, version: int, data: Any) -> None:
        self.layer = layer
        self.version = version
        self.data = data

    def require(self, layer: str, version: int) -> Any:
        """Validate provenance and return ``data`` (restore-side guard)."""
        if self.layer != layer:
            raise CheckpointError(
                f"layer state belongs to {self.layer!r}, expected {layer!r}"
            )
        if self.version != version:
            raise CheckpointError(
                f"layer {layer!r} snapshot version {self.version} not supported "
                f"(this build reads version {version})"
            )
        return self.data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LayerState({self.layer!r}, v{self.version})"


def normalize(obj: Any) -> Any:
    """Recursively convert ``obj`` into canonical plain data.

    The output is JSON-encodable and independent of object identity,
    sharing and memory layout, so :func:`canonical_digest` of it compares
    *state* rather than pickling accidents:

    * containers become (tagged) lists — dicts keep iteration order (which
      the deterministic simulator reproduces run-for-run), sets are sorted;
    * an object whose class defines its own ``__getstate__`` becomes
      ``["obj", classname, normalize(obj.__getstate__())]``;
    * other slotted / ``__dict__`` objects become
      ``["obj", classname, fields]`` with fields sorted by name;
    * :class:`random.Random` becomes its ``getstate()`` tuple;
    * functions and methods are named, not serialized.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (bytes, bytearray)):
        return ["bytes", payload_digest(bytes(obj))]
    if isinstance(obj, (list, tuple, deque)):
        return [normalize(v) for v in obj]
    if isinstance(obj, dict):
        return ["dict", [[normalize(k), normalize(v)] for k, v in obj.items()]]
    if isinstance(obj, (set, frozenset)):
        items = [normalize(v) for v in obj]
        items.sort(key=lambda v: json.dumps(v, sort_keys=True, default=str))
        return ["set", items]
    if isinstance(obj, random.Random):
        return ["rng", normalize(obj.getstate())]
    if isinstance(obj, (FunctionType, BuiltinFunctionType, MethodType)):
        return ["fn", f"{getattr(obj, '__module__', '?')}.{obj.__qualname__}"]
    # a class that says what its state is (pickling honours it too) is
    # digested by that, so a cache it leaves out does not count
    if getattr(type(obj), "__getstate__", None) is not _OBJECT_GETSTATE:
        return ["obj", type(obj).__name__, normalize(obj.__getstate__())]
    # generic object: collect __dict__ plus every slot along the MRO
    fields: Dict[str, Any] = {}
    d = getattr(obj, "__dict__", None)
    if d is not None:
        fields.update(d)
    for klass in type(obj).__mro__:
        slots = getattr(klass, "__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if hasattr(obj, name):
                fields[name] = getattr(obj, name)
    return [
        "obj",
        type(obj).__name__,
        [[name, normalize(fields[name])] for name in sorted(fields)],
    ]


def digest_of_normalized(normalized: Dict[str, Any]) -> str:
    """:func:`state_digest_of` for layer states that are already
    :func:`normalize`-d (so one walk can serve several digests)."""
    return canonical_digest(
        ["ckpt", [[name, normalized[name]] for name in sorted(normalized)]]
    )


def state_digest_of(layers: Dict[str, "LayerState"]) -> str:
    """Semantic digest of a composed layer-state dict (resume parity)."""
    return digest_of_normalized({name: normalize(layers[name]) for name in layers})


class StackCheckpoint:
    """A composed, serialized snapshot of every layer of one stack run.

    Built via :meth:`build` — which pickles the layer states *immediately*
    (one pickle, so intra-state sharing such as a frame referenced by both
    a retransmit buffer and a timer bucket survives the round trip, and the
    captured bytes can never alias live mutable state) — or reconstituted
    from disk by :func:`load_checkpoint`.
    """

    __slots__ = ("meta", "payload")

    def __init__(self, meta: Dict[str, Any], payload: bytes) -> None:
        self.meta = meta
        self.payload = payload

    @classmethod
    def build(
        cls, layers: Dict[str, LayerState], meta: Optional[Dict[str, Any]] = None
    ) -> "StackCheckpoint":
        """Compose per-layer states into one self-describing checkpoint."""
        try:
            payload = pickle.dumps(layers, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # unpicklable closure/generator leaked in
            raise CheckpointError(
                f"layer state is not serializable: {exc}"
            ) from exc
        full_meta: Dict[str, Any] = dict(meta or {})
        full_meta["schema"] = SCHEMA_VERSION
        full_meta["layers"] = sorted(layers)
        full_meta["payload_len"] = len(payload)
        full_meta["payload_sha256"] = payload_digest(payload)
        return cls(full_meta, payload)

    def layers(self) -> Dict[str, LayerState]:
        """Unpickle a *fresh* copy of the layer states (safe to restore
        from the same checkpoint any number of times)."""
        try:
            return pickle.loads(self.payload)
        except Exception as exc:  # not a pickle, or names a class this build lacks
            raise CheckpointError(
                f"checkpoint payload cannot be read by this build: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    @property
    def step(self) -> Optional[int]:
        """Simulation step the snapshot was taken after (from the meta)."""
        return self.meta.get("step")

    @property
    def state_digest(self) -> str:
        """The semantic state digest, worked out from the payload on the
        first read and kept in the meta (a loaded file's header has it)."""
        digest = self.meta.get("state_digest")
        if digest is None:
            digest = self.meta["state_digest"] = state_digest_of(self.layers())
        return digest

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StackCheckpoint(step={self.step}, layers={self.meta.get('layers')}, "
            f"digest={self.meta.get('state_digest')})"
        )


def save_checkpoint(path: Union[str, Path], ckpt: StackCheckpoint) -> Path:
    """Write ``ckpt`` in the on-disk format, its state digest in the
    header; returns the path written."""
    path = Path(path)
    header = f"{MAGIC} {SCHEMA_VERSION}\n".encode("ascii")
    meta = {**ckpt.meta, "state_digest": ckpt.state_digest}
    meta_line = json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(meta_line)
        fh.write(ckpt.payload)
    return path


def load_checkpoint(path: Union[str, Path]) -> StackCheckpoint:
    """Read and verify a checkpoint file (magic, schema, payload digest)."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    magic_end = blob.find(b"\n")
    if magic_end < 0:
        raise CheckpointError(f"{path} is not a checkpoint (no header line)")
    parts = blob[:magic_end].decode("ascii", "replace").split()
    if len(parts) != 2 or parts[0] != MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic {parts!r})")
    try:
        schema = int(parts[1])
    except ValueError:
        raise CheckpointError(f"{path}: malformed schema version {parts[1]!r}")
    if schema != SCHEMA_VERSION:
        raise CheckpointError(
            f"{path}: schema version {schema} not supported "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    meta_end = blob.find(b"\n", magic_end + 1)
    if meta_end < 0:
        raise CheckpointError(f"{path}: truncated (no meta line)")
    try:
        meta = json.loads(blob[magic_end + 1 : meta_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: malformed meta header: {exc}") from exc
    payload = blob[meta_end + 1 :]
    if meta.get("payload_len") != len(payload):
        raise CheckpointError(
            f"{path}: payload truncated "
            f"({len(payload)} bytes, header declares {meta.get('payload_len')})"
        )
    if meta.get("payload_sha256") != payload_digest(payload):
        raise CheckpointError(f"{path}: payload integrity digest mismatch")
    return StackCheckpoint(meta, payload)
