"""Linearizations of non-array structures: graphs and trees.

The paper singles this out as linearization's key advantage:
"Linearization simplifies the task of matching a variety of data
structures, from multidimensional arrays to trees or graphs."  These
classes let a field stored on graph nodes couple to anything else that
shares the linear space — including a dense array on a different
process count (see ``examples`` and the integration tests).

``networkx`` is imported where a graph algorithm runs, not at module
import: ``import repro`` would otherwise load it for every user.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Mapping, Sequence

import numpy as np

from repro.errors import DistributionError, ScheduleError
from repro.linearize.linearization import Linearization, Run, coalesce_runs

if TYPE_CHECKING:
    import networkx as nx


class GraphLinearization(Linearization):
    """Linearization of per-node values of a distributed graph.

    Parameters
    ----------
    graph:
        The (undirected or directed) networkx graph.
    owners:
        Mapping node -> owning rank.
    order:
        Node ordering defining linear positions.  Defaults to a BFS
        order from the lexicographically smallest node, which keeps
        neighbourhoods nearby in the linear space (locality matters for
        run coalescing).
    """

    def __init__(self, graph: nx.Graph, owners: Mapping[Hashable, int],
                 order: Sequence[Hashable] | None = None):
        self.graph = graph
        if set(owners) != set(graph.nodes):
            raise DistributionError(
                "owner map must cover exactly the graph's nodes")
        self.owners = dict(owners)
        self.nranks = max(self.owners.values()) + 1 if self.owners else 1
        if order is None:
            order = bfs_order(graph)
        order = list(order)
        if set(order) != set(graph.nodes) or len(order) != len(graph.nodes):
            raise DistributionError(
                "order must be a permutation of the graph's nodes")
        self.order = order
        self.position = {node: i for i, node in enumerate(order)}
        self._runs_cache: dict[int, list[Run]] = {}

    @property
    def total(self) -> int:
        return len(self.order)

    def runs(self, rank: int) -> list[Run]:
        if rank not in self._runs_cache:
            positions = sorted(
                self.position[n] for n, r in self.owners.items() if r == rank)
            self._runs_cache[rank] = coalesce_runs(
                [Run(p, p + 1) for p in positions])
        return self._runs_cache[rank]

    # Storage for a graph field is a plain dict node -> float value,
    # holding only the rank's owned nodes.

    def extract(self, rank: int, run: Run, storage: Mapping) -> np.ndarray:
        out = np.empty(run.length, dtype=np.float64)
        for i, pos in enumerate(range(run.lo, run.hi)):
            node = self.order[pos]
            if node not in storage:
                raise ScheduleError(
                    f"rank {rank} asked to extract unowned node {node!r}")
            out[i] = storage[node]
        return out

    def inject(self, rank: int, run: Run, values: np.ndarray,
               storage: dict) -> None:
        for i, pos in enumerate(range(run.lo, run.hi)):
            node = self.order[pos]
            if node not in storage:
                raise ScheduleError(
                    f"rank {rank} asked to inject unowned node {node!r}")
            storage[node] = float(values[i])


class TreeLinearization(GraphLinearization):
    """DFS-preorder linearization of a rooted tree.

    Preorder keeps every subtree contiguous in the linear space, so
    subtree ownership produces single runs — the compact case.
    """

    def __init__(self, tree: nx.Graph, root: Hashable,
                 owners: Mapping[Hashable, int]):
        import networkx as nx

        if not nx.is_tree(tree):
            raise DistributionError("TreeLinearization requires a tree")
        order = list(nx.dfs_preorder_nodes(tree, root))
        super().__init__(tree, owners, order)
        self.root = root


def bfs_order(graph: nx.Graph) -> list:
    """Deterministic BFS ordering covering all components."""
    import networkx as nx

    order: list = []
    seen: set = set()
    for start in sorted(graph.nodes, key=repr):
        if start in seen:
            continue
        order.append(start)
        seen.add(start)
        for _, node in nx.bfs_edges(graph, start):
            if node not in seen:
                order.append(node)
                seen.add(node)
    return order
