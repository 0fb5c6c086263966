"""Send-side fault injection (extension; not part of the paper's model).

The paper assumes perfectly reliable links.  :class:`FaultModel` lets tests
and ablations probe the stack's behaviour under message loss and duplication,
which layer 1's Figure-2 concerns ("buffering and reliability") would handle
on a real machine.
"""

from __future__ import annotations

import random
from typing import Optional

from ..domains import judge
from ..errors import SimulationError

__all__ = ["FaultModel", "ReliableLinks"]


class FaultModel:
    """Bernoulli drop/duplicate faults applied to every send.

    Parameters
    ----------
    drop_probability:
        Chance that a sent message silently disappears.
    duplicate_probability:
        Chance that a sent message is delivered twice.
    rng:
        Seeded random stream; required when either probability is non-zero
        so runs stay reproducible.

    Sampling order
    --------------
    Each call to :meth:`copies_to_deliver` draws the *drop* decision first
    and the *duplicate* decision second, and both draws are made whenever
    the corresponding probability is non-zero — even when the other
    decision already settled the outcome.  The two decisions are therefore
    independent Bernoulli variables, the per-message rng consumption is a
    constant of the configuration (not of the outcomes), and a dropped
    message can simultaneously be a would-be duplicate (the drop wins:
    zero copies).  Earlier revisions skipped the duplicate draw after a
    drop, which entangled the two streams — changing the duplicate rate
    perturbed *which* messages got dropped under the same seed.
    """

    __slots__ = ("drop_probability", "duplicate_probability", "_rng")

    def __init__(
        self,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        judge("drop", drop_probability)
        judge("duplicate", duplicate_probability)
        if (drop_probability or duplicate_probability) and rng is None:
            raise SimulationError("a seeded rng is required for non-zero fault rates")
        self.drop_probability = drop_probability
        self.duplicate_probability = duplicate_probability
        self._rng = rng

    def copies_to_deliver(self) -> int:
        """How many copies of the next sent message reach the inbox (0/1/2).

        Draws are independent and the drop decision dominates; see the
        class docstring ("Sampling order") for the exact contract.
        """
        rng = self._rng
        if rng is None:
            return 1
        dropped = self.drop_probability > 0.0 and rng.random() < self.drop_probability
        duplicated = (
            self.duplicate_probability > 0.0
            and rng.random() < self.duplicate_probability
        )
        if dropped:
            return 0
        return 2 if duplicated else 1

    @property
    def is_reliable(self) -> bool:
        """True if this model never perturbs messages."""
        return self.drop_probability == 0.0 and self.duplicate_probability == 0.0


#: Shared no-fault model (the paper's assumption).
ReliableLinks = FaultModel()
