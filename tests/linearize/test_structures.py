"""Graph/tree linearization tests."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import DistributionError
from repro.linearize import GraphLinearization, Run, TreeLinearization


@pytest.fixture
def path_graph():
    return nx.path_graph(8)


class TestGraphLinearization:
    def test_bfs_order_positions(self, path_graph):
        owners = {n: n % 2 for n in path_graph}
        lin = GraphLinearization(path_graph, owners)
        assert lin.total == 8
        # path graph BFS from node 0 is 0..7 in order
        assert [lin.order[i] for i in range(8)] == list(range(8))

    def test_runs_compress_contiguous_ownership(self, path_graph):
        owners = {n: 0 if n < 4 else 1 for n in path_graph}
        lin = GraphLinearization(path_graph, owners)
        assert lin.runs(0) == [Run(0, 4)]
        assert lin.runs(1) == [Run(4, 8)]

    def test_runs_fragment_interleaved_ownership(self, path_graph):
        owners = {n: n % 2 for n in path_graph}
        lin = GraphLinearization(path_graph, owners)
        assert len(lin.runs(0)) == 4

    def test_extract_inject_roundtrip(self, path_graph):
        owners = {n: 0 if n < 5 else 1 for n in path_graph}
        lin = GraphLinearization(path_graph, owners)
        values = {n: float(n * 10) for n in path_graph}
        store0 = {n: values[n] for n in range(5)}
        out = lin.extract(0, Run(2, 5), store0)
        np.testing.assert_array_equal(out, [20.0, 30.0, 40.0])
        lin.inject(0, Run(0, 2), np.array([5.0, 6.0]), store0)
        assert store0[0] == 5.0 and store0[1] == 6.0

    def test_extract_unowned_node_raises(self, path_graph):
        owners = {n: 0 if n < 5 else 1 for n in path_graph}
        lin = GraphLinearization(path_graph, owners)
        store1 = {n: 0.0 for n in range(5, 8)}
        from repro.errors import ScheduleError
        with pytest.raises(ScheduleError):
            lin.extract(1, Run(0, 2), store1)

    def test_owner_map_must_cover_graph(self, path_graph):
        with pytest.raises(DistributionError):
            GraphLinearization(path_graph, {0: 0})

    def test_custom_order(self, path_graph):
        order = list(reversed(range(8)))
        owners = {n: 0 for n in path_graph}
        lin = GraphLinearization(path_graph, owners, order=order)
        assert lin.position[7] == 0

    def test_bad_order_rejected(self, path_graph):
        with pytest.raises(DistributionError):
            GraphLinearization(path_graph, {n: 0 for n in path_graph},
                               order=[0, 1])

    def test_partition_validates(self, path_graph):
        owners = {n: n % 3 for n in path_graph}
        GraphLinearization(path_graph, owners).validate_partition()


class TestTreeLinearization:
    def _tree(self):
        t = nx.Graph()
        t.add_edges_from([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
        return t

    @staticmethod
    def _subtree_run(lin, node):
        """The positions of ``node``'s subtree, as one run."""
        sub = {node} | nx.descendants(nx.bfs_tree(lin.graph, lin.root), node)
        positions = sorted(lin.position[n] for n in sub)
        return Run(positions[0], positions[-1] + 1), len(positions)

    def test_preorder_contiguous_subtrees(self):
        tree = self._tree()
        owners = {n: 0 for n in tree}
        lin = TreeLinearization(tree, 0, owners)
        run, size = self._subtree_run(lin, 1)
        # subtree {1,3,4} occupies a contiguous interval
        assert run.length == size == 3
        nodes = {lin.order[p] for p in range(run.lo, run.hi)}
        assert nodes == {1, 3, 4}

    def test_subtree_ownership_gives_single_run(self):
        tree = self._tree()
        lin0 = TreeLinearization(tree, 0, {n: 0 for n in tree})
        sub, _ = self._subtree_run(lin0, 1)
        owners = {n: (1 if lin0.position[n] in range(sub.lo, sub.hi) else 0)
                  for n in tree}
        lin = TreeLinearization(tree, 0, owners)
        assert len(lin.runs(1)) == 1

    def test_non_tree_rejected(self):
        g = nx.cycle_graph(4)
        with pytest.raises(DistributionError):
            TreeLinearization(g, 0, {n: 0 for n in g})
