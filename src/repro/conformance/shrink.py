"""Automatic shrinking of a failing config to a minimal repro.

Given a configuration on which the oracle found a discrepancy and a
``failing`` predicate (``config -> bool``, True while the failure still
reproduces), :func:`shrink_config` delta-debugs in two phases:

1. **Dimension sweep** — repeatedly try moving each config dimension to
   its :data:`~repro.conformance.space.DEFAULT_CONFIG` value (workload
   first: collapsing it deletes heuristic/simplify/hint riders in one
   move), keeping any change under which the failure persists, until a
   full pass changes nothing.  The result reads as "default everything
   except ...".
2. **Size minimisation** — shrink the workload argument itself with the
   ``shrink_params`` of the workload's record (:mod:`repro.workloads`):
   fib and N-queens ``n`` walk down to the smallest still-failing value;
   a SAT generator recipe is first materialised into explicit clauses,
   then classic ddmin removes clause subsets, then unreferenced variables
   are compacted away.  (If the workload's canonical default parameters
   already fail, they win outright — a canonical repro beats a merely
   small one.)

The predicate is injectable precisely so the shrinker can be tested with
a deliberately-broken oracle stub; ``max_evals`` bounds the number of
predicate calls, since each real call replays several full simulations.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..engine import RunSpec
from ..workloads import WORKLOADS
from .space import DEFAULT_CONFIG, DIMENSIONS

__all__ = ["shrink_config"]


class _Budget:
    """Counts predicate evaluations; the shrinker stops when exhausted."""

    def __init__(self, failing: Callable[[RunSpec], bool], max_evals: int) -> None:
        self._failing = failing
        self.remaining = max_evals

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 0

    def fails(self, config: RunSpec) -> bool:
        if self.exhausted:
            return False
        self.remaining -= 1
        return bool(self._failing(config))


def _default_candidate(config: RunSpec, dim: str) -> Optional[RunSpec]:
    """``config`` with ``dim`` moved to its default, or None if already there."""
    default = getattr(DEFAULT_CONFIG, dim)
    if getattr(config, dim) == default:
        return None
    changes: Dict[str, Any] = {dim: default}
    if dim == "workload":
        # the params travel with the workload they parameterise
        changes["workload_params"] = dict(WORKLOADS[default].default_params)
    return config.with_(**changes)


def _sweep_dimensions(config: RunSpec, budget: _Budget) -> RunSpec:
    changed = True
    while changed and not budget.exhausted:
        changed = False
        for dim in DIMENSIONS:
            candidate = _default_candidate(config, dim)
            if candidate is not None and budget.fails(candidate):
                config = candidate
                changed = True
    return config


# -- size minimisation ------------------------------------------------------


def _shrink_size(config: RunSpec, budget: _Budget) -> RunSpec:
    # a canonical repro beats a merely small one: params already at (or
    # movable to) the workload default end the size phase right there
    record = WORKLOADS[config.workload]
    if config.workload_params == record.default_params:
        return config
    candidate = config.with_(workload_params=dict(record.default_params))
    if budget.fails(candidate):
        return candidate
    if record.shrink_params is None:
        return config  # e.g. traversal carries no size parameter
    smaller = record.shrink_params(
        config.workload_params,
        lambda params: budget.fails(config.with_(workload_params=params)),
    )
    return config.with_(workload_params=smaller)


def shrink_config(
    config: RunSpec,
    failing: Callable[[RunSpec], bool],
    *,
    max_evals: int = 400,
) -> RunSpec:
    """Reduce ``config`` to a minimal configuration still satisfying
    ``failing``.

    ``failing(config) -> bool`` must return True while the original
    failure reproduces (for the fuzzer this wraps
    :func:`~repro.conformance.oracle.check_config`; tests inject stubs).
    The input config is required to fail; if it does not, it is returned
    unchanged.  At most ``max_evals`` predicate calls are spent.
    """
    budget = _Budget(failing, max_evals)
    if not budget.fails(config):
        return config
    config = _sweep_dimensions(config, budget)
    config = _shrink_size(config, budget)
    # size changes can unlock further dimension collapses (and vice versa
    # is already covered by the sweep's fixpoint loop)
    return _sweep_dimensions(config, budget)
