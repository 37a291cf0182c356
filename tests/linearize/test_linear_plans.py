"""Linear schedules are 1-D region schedules: every rank plan compiles
from a layout (owned runs + local offsets), equals the per-run
reference element for element, and is compiled without building a
per-item object; the MCT Router rides the same plans."""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dad import BlockCyclic, CartesianTemplate, DistArrayDescriptor
from repro.dad.template import block_template
from repro.linearize import (DenseLinearization, GraphLinearization, Run,
                             TreeLinearization)
from repro.linearize.linearization import run_layout
from repro.mct import AttrVect, GlobalSegMap, MCTWorld, Router, Segment
from repro.mct.router import _GsmapLinearization
from repro.schedule import build_linear_schedule
from repro.schedule.indexplan import LocalIndexer, PairPlan
from repro.simmpi import run_spmd
from repro.util.regions import Region
from repro.verify.schedule import verify_linear_schedule


def _bc2d(rows, cols, p0, b0, p1, b1):
    return DenseLinearization(DistArrayDescriptor(CartesianTemplate(
        [BlockCyclic(rows, p0, b0), BlockCyclic(cols, p1, b1)])))


# -- one side of a linear space: how it builds, lays out and is referenced ----

class _Side:
    """A linearization for the builder, the layout its plans compile
    against, and the per-run reference of its flat local indices."""

    def __init__(self, lin, layout, reference):
        self.lin, self.layout, self.reference = lin, layout, reference


def _dense(lin):
    return _Side(lin, lambda r: LocalIndexer(*lin.layout(r)),
                 lambda r, a, b: lin.run_indices(r, Run(a, b)))


def _stored_in_order(lin, positions_of):
    """A side whose local storage holds ``positions_of(rank)`` in order
    (a GlobalSegMap's AttrVect rows, a staged graph / tree buffer)."""
    def reference(rank, a, b):
        local = np.full(lin.total, -1, dtype=np.int64)
        pos = positions_of(rank)
        local[pos] = np.arange(len(pos))
        return local[a:b]
    return reference


def _gsmap(gsmap):
    lin = _GsmapLinearization(gsmap)
    return _Side(lin, lambda r: LocalIndexer(*run_layout(gsmap.runs(r))),
                 _stored_in_order(lin, gsmap.global_indices))


def _staged(lin):
    def positions(rank):
        runs = lin.runs(rank)
        return np.concatenate([np.arange(r.lo, r.hi) for r in runs]) \
            if runs else np.empty(0, dtype=np.int64)
    return _Side(lin, lambda r: LocalIndexer(*lin.layout(r)),
                 _stored_in_order(lin, positions))


@st.composite
def sides(draw, rows, cols):
    total = rows * cols
    kind = draw(st.sampled_from(["dense", "gsmap", "graph", "tree"]))
    if kind == "dense":    # several patches per rank: storage != linear order
        p0, p1 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        return _dense(_bc2d(rows, cols, p0, draw(st.integers(1, rows)),
                            p1, draw(st.integers(1, cols))))
    nranks = draw(st.integers(1, 3))
    owners = draw(st.lists(st.integers(0, nranks - 1), min_size=total,
                           max_size=total))
    if kind == "gsmap":    # gapped runs, regular or not
        if draw(st.booleans()):
            return _gsmap(GlobalSegMap.cyclic(total, nranks,
                                              draw(st.integers(1, 4))))
        segments, start = [], 0
        for pe, run in itertools.groupby(owners):
            n = len(list(run))
            segments.append(Segment(start, n, pe))
            start += n
        return _gsmap(GlobalSegMap(total, segments, nranks))
    if kind == "graph":
        graph = nx.path_graph(total)
        return _staged(GraphLinearization(graph, dict(enumerate(owners))))
    tree = nx.Graph()
    tree.add_nodes_from(range(total))
    tree.add_edges_from((n, draw(st.integers(0, n - 1)))
                        for n in range(1, total))
    return _staged(TreeLinearization(tree, 0, dict(enumerate(owners))))


@st.composite
def linear_pairs(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    return draw(sides(rows, cols)), draw(sides(rows, cols))


@settings(max_examples=120, deadline=None)
@given(linear_pairs())
def test_every_compiled_pair_is_the_per_run_reference(pair):
    src, dst = pair
    sched = build_linear_schedule(src.lin, dst.lin)
    assert sched.lo.shape[1] == 1
    verify_linear_schedule(sched, src.lin, dst.lin)
    for side, who in (("send", src), ("recv", dst)):
        for r in range(who.lin.nranks):
            plan = sched.rank_plan(side, r, who.layout(r))
            groups = (sched.send_groups(r) if side == "send"
                      else sched.recv_groups(r))
            assert [pp.peer for pp in plan.pairs] == [g[0] for g in groups]
            for pp, (_peer, regions, offsets) in zip(plan.pairs, groups):
                want = np.concatenate([who.reference(r, reg.lo[0], reg.hi[0])
                                       for reg in regions])
                assert pp.size == offsets[-1] == want.size
                np.testing.assert_array_equal(pp.indices(), want)


def test_runs_crossing_patches_are_cut_where_storage_jumps():
    """Column blocks of 2 over one column rank: the rank's one run
    [0, 8) crosses a patch edge every 2 positions, where local storage
    (patch by patch) jumps — cut there, the pieces fold back into one
    strided box."""
    lin = _bc2d(2, 4, 1, 2, 1, 2)
    assert lin.runs(0) == [Run(0, 8)]
    whole = DenseLinearization(DistArrayDescriptor(block_template((2, 4),
                                                                  (1, 1))))
    sched = build_linear_schedule(lin, whole)
    (pp,) = sched.send_plan(0, LocalIndexer(*lin.layout(0))).pairs
    np.testing.assert_array_equal(pp.indices(), [0, 1, 4, 5, 2, 3, 6, 7])
    assert pp.idx is None and len(pp.boxes) == 1


# -- no object per item ------------------------------------------------------

def test_compiling_constructs_no_run_and_no_region(monkeypatch):
    src = DistArrayDescriptor(block_template((64, 64), (1, 4)))
    dst = DistArrayDescriptor(block_template((64, 64), (4, 1)))
    sched = build_linear_schedule(DenseLinearization(src),
                                  DenseLinearization(dst))
    assert len(sched.items) == 4 * 64
    # fresh linearizations: their layouts are built inside the count
    fresh = {"send": DenseLinearization(src), "recv": DenseLinearization(dst)}
    counts = {"Run": 0, "Region": 0}
    for cls in (Run, Region):
        def counted(self, _init=cls.__post_init__, _name=cls.__name__):
            counts[_name] += 1
            _init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    for side, lin in fresh.items():
        for r in range(lin.nranks):
            sched.rank_plan(side, r, LocalIndexer(*lin.layout(r)))
    assert counts == {"Run": 0, "Region": 0}
    sched.items[0]   # the counters are live: this materialises
    assert counts == {"Run": 0, "Region": 4 * 64}


# -- MCT on a gapped GlobalSegMap ---------------------------------------------

GSIZE = 24
_GAPPED = GlobalSegMap.cyclic(GSIZE, 2, block=3)    # rank 0: [0,3) [6,9) ...
_BLOCKS = GlobalSegMap.block(GSIZE, 2)


def _fields(gsmap, pe):
    g = gsmap.global_indices(pe).astype(float)
    return AttrVect.from_arrays({"a": g * 2 + 1, "b": np.sin(g)})


@pytest.fixture
def indices_calls(monkeypatch):
    calls = []
    expand = PairPlan.indices

    def counted(self):
        calls.append(self.peer)
        return expand(self)

    monkeypatch.setattr(PairPlan, "indices", counted)
    return calls


def test_router_gapped_gsmap_byte_identical(indices_calls):
    def main(comm):
        model = "atm" if comm.rank < 2 else "ocn"
        world = MCTWorld(comm, model)
        router = Router(world, "atm", "ocn", _BLOCKS, _GAPPED)
        pe = world.my_model_rank
        for _ in range(3):
            if model == "atm":
                router.transfer(av_send=_fields(_BLOCKS, pe))
            else:
                av = AttrVect(["a", "b"], _GAPPED.local_size(pe))
                router.transfer(av_recv=av)
        return None if model == "atm" else (av, _fields(_GAPPED, pe))

    for got, want in run_spmd(4, main)[2:]:
        assert got.data.tobytes() == want.data.tobytes()
    # each atm rank's Router expands each of its 2 pairs once
    assert len(indices_calls) == 2 * 2
