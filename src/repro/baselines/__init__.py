"""Baseline comparators for the paper's scalability claims.

The paper's §3 scalability criterion: "communications between the
components is not serialized through a single data management process".
These baselines *are* the serialized designs, so the benchmarks can show
the shape of the win; :mod:`~repro.baselines.per_region` is the
uncoalesced one-message-per-region wire protocol the packed engine is
measured against (A5).
"""

from repro.baselines.serial_gather import redistribute_via_root
from repro.baselines.elementwise import redistribute_elementwise
from repro.baselines.per_region import redistribute_per_region

__all__ = ["redistribute_via_root", "redistribute_elementwise",
           "redistribute_per_region"]
