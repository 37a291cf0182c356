"""MCTWorld: the model registry.

"A lightweight model registry that defines the MPI processes on which a
module resides, and a process ID look-up table that obviates the need
for inter-communicators between concurrently executing modules."

Models are rank subsets of one world communicator (MCT's concurrent
coupling layout); the registry is built collectively and then answers
model→ranks lookups locally.
"""

from __future__ import annotations

from repro.errors import MCTError
from repro.simmpi.communicator import Communicator


class MCTWorld:
    """Process registry for a multi-model coupled application."""

    def __init__(self, world: Communicator, my_model: str):
        self.world = world
        self.my_model = my_model
        pairs = world.allgather((my_model, world.rank))
        self._ranks: dict[str, list[int]] = {}
        for model, rank in pairs:
            self._ranks.setdefault(model, []).append(rank)
        for ranks in self._ranks.values():
            ranks.sort()
        # Per-model communicator (split by model name order).
        names = sorted(self._ranks)
        self.model_comm = world.split(color=names.index(my_model),
                                      key=world.rank)

    def ranks_of(self, model: str) -> list[int]:
        """World ranks hosting ``model`` — the process ID look-up table."""
        try:
            return list(self._ranks[model])
        except KeyError:
            raise MCTError(f"no model {model!r} registered") from None

    def size_of(self, model: str) -> int:
        return len(self.ranks_of(model))

    @property
    def my_model_rank(self) -> int:
        return self.model_comm.rank

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{m}:{len(r)}" for m, r in sorted(self._ranks.items()))
        return f"MCTWorld({parts})"
