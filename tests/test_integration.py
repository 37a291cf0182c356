"""Cross-subsystem integration tests: multiple connections, multiple
fields, and failure injection."""

import time

import numpy as np
import pytest

from repro.dad import AccessMode, DistArrayDescriptor, DistributedArray
from repro.dad.template import block_template
from repro.errors import DeadlockError, SpmdError
from repro.icomm import (
    CoordinationSpec,
    Exporter,
    Importer,
    MatchRule,
    Matching,
)
from repro.highlevel import Coupler
from repro.mxn import (ConnectionKind, ConnectionSpec, MxNComponent,
                       MxNConnection)
from repro.pubsub import Publisher, Subscriber, SubscriptionBoard
from repro.schedule import GLOBAL_CACHE, PLAN_STATS
from repro.simmpi import NameService, run_coupled


class TestMultipleConnections:
    def test_two_fields_two_connections_one_pair(self):
        """One component pair moving two different fields through two
        simultaneous M×N connections (distinct connection ids)."""
        shape = (8, 8)
        src_t = DistArrayDescriptor(block_template(shape, (2, 1)))
        dst_t = DistArrayDescriptor(block_template(shape, (1, 2)))
        g_t = np.arange(64.0).reshape(shape)
        g_p = np.arange(64.0).reshape(shape) * -1.0
        spec_t = ConnectionSpec(src_t, dst_t, ConnectionKind.PERSISTENT,
                                period=1, connection_id=1)
        spec_p = ConnectionSpec(src_t, dst_t, ConnectionKind.PERSISTENT,
                                period=1, connection_id=2)
        ns = NameService()

        def left(comm):
            inter = ns.accept("multi", comm)
            mxn = MxNComponent(comm)
            mxn.register("temp", DistributedArray.from_global(
                src_t, comm.rank, g_t), AccessMode.READ)
            mxn.register("pres", DistributedArray.from_global(
                src_t, comm.rank, g_p), AccessMode.READ)
            c1 = mxn.connect_with_spec(inter, "source", "temp", spec_t)
            c2 = mxn.connect_with_spec(inter, "source", "pres", spec_p)
            for _ in range(2):
                # interleave the two channels' cycles
                c1.data_ready()
                c2.data_ready()
            return True

        def right(comm):
            inter = ns.connect("multi", comm)
            mxn = MxNComponent(comm)
            da_t = DistributedArray.allocate(dst_t, comm.rank)
            da_p = DistributedArray.allocate(dst_t, comm.rank)
            mxn.register("temp", da_t, AccessMode.WRITE)
            mxn.register("pres", da_p, AccessMode.WRITE)
            c1 = mxn.connect_with_spec(inter, "destination", "temp", spec_t)
            c2 = mxn.connect_with_spec(inter, "destination", "pres", spec_p)
            for _ in range(2):
                c1.data_ready()
                c2.data_ready()
            return da_t, da_p

        out = run_coupled([("left", 2, left, ()), ("right", 2, right, ())])
        np.testing.assert_array_equal(
            DistributedArray.assemble([r[0] for r in out["right"]]), g_t)
        np.testing.assert_array_equal(
            DistributedArray.assemble([r[1] for r in out["right"]]), g_p)

    def test_icomm_two_fields_different_rules(self):
        """One exporter/importer pair, two fields, two matching rules."""
        shape = (6,)
        src = DistArrayDescriptor(block_template(shape, (2,)))
        dst = DistArrayDescriptor(block_template(shape, (2,)))
        fields = {"fast": (src, dst), "slow": (src, dst)}
        spec = CoordinationSpec([
            MatchRule("fast", Matching.EXACT),
            MatchRule("slow", Matching.REGULAR, interval=3),
        ])
        ns = NameService()

        def producer(comm):
            inter = ns.accept("if", comm)
            exp = Exporter(comm, inter, spec, fields, total_imports=2)
            for ts in range(7):
                snap = DistributedArray.from_function(
                    src, comm.rank, lambda i, ts=ts: float(ts) + 0 * i)
                exp.export("fast", ts, snap)
                exp.export("slow", ts, snap)
            exp.finalize()
            return exp.transfers

        def consumer(comm):
            inter = ns.connect("if", comm)
            imp = Importer(comm, inter, spec, fields)
            da1 = DistributedArray.allocate(dst, comm.rank)
            m1 = imp.import_("fast", 5, da1)
            da2 = DistributedArray.allocate(dst, comm.rank)
            m2 = imp.import_("slow", 5, da2)
            return (m1, float(da1.get((0,)) if comm.rank == 0 else -1),
                    m2, float(da2.get((0,)) if comm.rank == 0 else -1))

        out = run_coupled([("producer", 2, producer, ()),
                           ("consumer", 2, consumer, ())])
        m1, v1, m2, v2 = out["consumer"][0]
        assert (m1, v1) == (5, 5.0)     # EXACT hit
        assert (m2, v2) == (3, 3.0)     # REGULAR/3 snapped down


class TestOneScheduleLifecycle:
    def test_subsystems_share_one_schedule_per_template_pair(self):
        """§2.3: a schedule serves "different arrays as long as they
        conform to the same distribution template".  A coupling channel,
        an M×N connection and a pub/sub topic over one template pair in
        one process are one cache entry, built once, each (side, rank)
        plan compiled once."""
        shape, m, n = (8, 6), 2, 3
        src = DistArrayDescriptor(block_template(shape, (m, 1)))
        dst = DistArrayDescriptor(block_template(shape, (1, n)))
        g = np.arange(48.0).reshape(shape)
        ns, board = NameService(), SubscriptionBoard()

        def producer(comm):
            da = DistributedArray.from_global(src, comm.rank, g)
            chan = Coupler("field", ns).open(comm, "source", da)
            chan.push()
            chan.close()
            conn = MxNConnection(ConnectionSpec(src, dst),
                                 ns.accept("mxn", comm), "source", da)
            conn.data_ready()
            pub = Publisher(comm, ns, board, "topic", src)
            while comm.rank == 0 and not board.active("topic"):
                time.sleep(0.01)
            comm.barrier()
            served = pub.publish(da)
            pub.close()
            return served

        def consumer(comm):
            chan = Coupler("field", ns).open(comm, "destination", dst)
            via_channel = chan.pull()
            chan.close()
            via_mxn = DistributedArray.allocate(dst, comm.rank)
            MxNConnection(ConnectionSpec(src, dst), ns.connect("mxn", comm),
                          "destination", via_mxn).data_ready()
            via_topic = Subscriber(comm, ns, board, "topic", dst).receive()
            return via_channel, via_mxn, via_topic

        out = run_coupled([("prod", m, producer, ()),
                           ("cons", n, consumer, ())])
        assert out["prod"] == [1] * m
        for parts in zip(*out["cons"]):
            assert DistributedArray.assemble(parts).tobytes() == g.tobytes()
        stats = GLOBAL_CACHE.stats()
        assert (stats["entries"], stats["misses"]) == (1, 1)
        assert PLAN_STATS.get("rank_plans") == m + n


class TestFailureInjection:
    def test_crash_mid_transfer_unblocks_peer(self):
        """A producer that dies mid-protocol must not hang the consumer:
        the watchdog aborts the coupled run with diagnostics."""
        shape = (8,)
        src = DistArrayDescriptor(block_template(shape, (2,)))
        dst = DistArrayDescriptor(block_template(shape, (2,)))
        ns = NameService()

        def producer(comm):
            inter = ns.accept("crash", comm)
            if comm.rank == 1:
                raise RuntimeError("simulated node failure")
            # rank 0 sends its part; rank 1 never does
            from repro.schedule import build_region_schedule, execute_inter
            sched = build_region_schedule(src, dst)
            da = DistributedArray.allocate(src, comm.rank)
            execute_inter(sched, inter, "src", da)
            return True

        def consumer(comm):
            from repro.schedule import build_region_schedule, execute_inter
            inter = ns.connect("crash", comm)
            sched = build_region_schedule(src, dst)
            da = DistributedArray.allocate(dst, comm.rank)
            execute_inter(sched, inter, "dst", da)  # rank 1's data never comes
            return True

        with pytest.raises(SpmdError) as exc_info:
            run_coupled([("producer", 2, producer, ()),
                         ("consumer", 2, consumer, ())],
                        deadlock_timeout=1.0)
        failures = exc_info.value.failures
        kinds = {type(e) for e in failures.values()}
        assert RuntimeError in kinds          # the injected fault
        assert DeadlockError in kinds         # the stranded peers

    def test_mismatched_connection_counts_detected(self):
        """Consumer expects two transfers, producer sends one: the
        second receive can never complete and is diagnosed."""
        shape = (4,)
        desc = DistArrayDescriptor(block_template(shape, (1,)))
        ns = NameService()

        def producer(comm):
            from repro.schedule import build_region_schedule, execute_inter
            inter = ns.accept("mm", comm)
            sched = build_region_schedule(desc, desc)
            da = DistributedArray.allocate(desc, comm.rank)
            execute_inter(sched, inter, "src", da)   # only one transfer
            return True

        def consumer(comm):
            from repro.schedule import build_region_schedule, execute_inter
            inter = ns.connect("mm", comm)
            sched = build_region_schedule(desc, desc)
            da = DistributedArray.allocate(desc, comm.rank)
            execute_inter(sched, inter, "dst", da)
            execute_inter(sched, inter, "dst", da)   # never satisfied
            return True

        with pytest.raises(SpmdError):
            run_coupled([("producer", 1, producer, ()),
                         ("consumer", 1, consumer, ())],
                        deadlock_timeout=1.0)

    def test_watchdog_reports_blocked_state(self):
        """DeadlockError carries a usable dump of who waited for what."""
        ns = NameService()

        def a(comm):
            inter = ns.accept("dump", comm)
            inter.recv(source=0, tag=777)

        def b(comm):
            ns.connect("dump", comm)

        with pytest.raises(SpmdError) as exc_info:
            run_coupled([("a", 1, a, ()), ("b", 1, b, ())],
                        deadlock_timeout=0.5)
        err = next(e for e in exc_info.value.failures.values()
                   if isinstance(e, DeadlockError))
        assert "tag=777" in str(err.blocked) or "tag=777" in str(err)
