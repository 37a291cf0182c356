"""M×N component tests: registration, connections, dataReady protocol."""

import numpy as np
import pytest

from repro.dad import AccessMode, DistArrayDescriptor, DistributedArray
from repro.dad.template import block_template
from repro.errors import ConnectionError_, RegistrationError, SpmdError
from repro.mxn import ConnectionKind, ConnectionSpec, MxNComponent
from repro.simmpi import NameService, run_coupled, run_spmd
from repro.simmpi.intercomm import default_nameservice

SHAPE = (8, 6)
G = np.arange(48.0).reshape(SHAPE)


def make_sides(m, n):
    src_desc = DistArrayDescriptor(block_template(SHAPE, (m, 1)), G.dtype)
    dst_desc = DistArrayDescriptor(block_template(SHAPE, (1, n)), G.dtype)
    return src_desc, dst_desc


class TestRegistration:
    def test_register_and_query(self):
        def main(comm):
            desc = DistArrayDescriptor(block_template(SHAPE, (2, 1)), G.dtype)
            mxn = MxNComponent(comm)
            da = DistributedArray.from_global(desc, comm.rank, G)
            mxn.register("temperature", da, AccessMode.READ)
            assert mxn.field("temperature") is da
            assert mxn.descriptor("temperature").shape == SHAPE
            return True

        assert all(run_spmd(2, main))

    def test_duplicate_rejected(self):
        def main(comm):
            desc = DistArrayDescriptor(block_template(SHAPE, (1, 1)), G.dtype)
            mxn = MxNComponent(comm)
            da = DistributedArray.allocate(desc, 0)
            mxn.register("f", da)
            with pytest.raises(RegistrationError):
                mxn.register("f", da)
            return True

        assert all(run_spmd(1, main))

    def test_wrong_rank_storage_rejected(self):
        def main(comm):
            desc = DistArrayDescriptor(block_template(SHAPE, (2, 1)), G.dtype)
            mxn = MxNComponent(comm)
            da = DistributedArray.allocate(desc, 1 - comm.rank)
            with pytest.raises(RegistrationError):
                mxn.register("f", da)
            return True

        assert all(run_spmd(2, main))



def run_transfer(m, n, kind=ConnectionKind.ONE_SHOT, period=1, cycles=1,
                 src_mode=AccessMode.READ, dst_mode=AccessMode.WRITE):
    src_desc, dst_desc = make_sides(m, n)
    ns = NameService()

    def source(comm):
        inter = ns.accept("mxn", comm)
        mxn = MxNComponent(comm)
        da = DistributedArray.from_global(src_desc, comm.rank, G)
        mxn.register("field", da, src_mode)
        conn = mxn.connect(inter, "source", "field", kind, period)
        fired = []
        for c in range(cycles):
            # evolve the data each cycle so transfers are distinguishable
            for _, arr in da.iter_patches():
                arr += 0 if c == 0 else 1000
            fired.append(conn.data_ready())
        return fired, comm.counters.snapshot()

    def dest(comm):
        inter = ns.connect("mxn", comm)
        mxn = MxNComponent(comm)
        da = DistributedArray.allocate(dst_desc, comm.rank)
        mxn.register("field", da, dst_mode)
        conn = mxn.connect(inter, "destination", "field", kind, period)
        snapshots = []
        for _c in range(cycles):
            if conn.data_ready():
                snapshots.append(
                    {r: a.copy() for r, a in da.iter_patches()})
        return da, snapshots

    out = run_coupled([("src", m, source, ()), ("dst", n, dest, ())])
    return out


class TestOneShot:
    @pytest.mark.parametrize("m,n", [(2, 3), (4, 2), (1, 4), (3, 1)])
    def test_transfer_correct(self, m, n):
        out = run_transfer(m, n)
        parts = [r[0] for r in out["dst"]]
        np.testing.assert_array_equal(DistributedArray.assemble(parts), G)

    def test_one_shot_cannot_repeat(self):
        with pytest.raises(SpmdError):
            run_transfer(2, 2, cycles=2)

    def test_no_barriers_used(self):
        """§4.1: 'no additional synchronization barriers are required'."""
        out = run_transfer(3, 2)
        src_counters = out["src"][0][1]
        assert src_counters.get("barriers", 0) == 0


class TestPersistent:
    def test_periodic_fires_on_period(self):
        out = run_transfer(2, 2, kind=ConnectionKind.PERSISTENT,
                           period=3, cycles=7)
        fired = out["src"][0][0]
        assert fired == [True, False, False, True, False, False, True]

    def test_updates_propagate(self):
        out = run_transfer(2, 2, kind=ConnectionKind.PERSISTENT,
                           period=1, cycles=3)
        _, snapshots = out["dst"][0]
        assert len(snapshots) == 3
        # source added 1000 per cycle after the first
        first = next(iter(snapshots[0].values()))
        last = next(iter(snapshots[2].values()))
        np.testing.assert_array_equal(last, first + 2000)


class TestAccessModes:
    def test_read_only_field_cannot_be_destination(self):
        with pytest.raises(SpmdError) as exc_info:
            run_transfer(1, 1, dst_mode=AccessMode.READ)
        assert any(isinstance(e, ConnectionError_)
                   for e in exc_info.value.failures.values())

    def test_write_only_field_cannot_be_source(self):
        with pytest.raises(SpmdError):
            run_transfer(1, 1, src_mode=AccessMode.WRITE)


class TestThirdParty:
    def test_spec_built_without_either_side(self):
        """A third party builds the connection from descriptors alone."""
        m, n = 2, 3
        src_desc, dst_desc = make_sides(m, n)
        spec = ConnectionSpec(src_desc, dst_desc,
                              ConnectionKind.ONE_SHOT, connection_id=7)
        ns = NameService()

        def source(comm):
            inter = ns.accept("tp", comm)
            mxn = MxNComponent(comm)
            mxn.register("f", DistributedArray.from_global(
                src_desc, comm.rank, G))
            conn = mxn.connect_with_spec(inter, "source", "f", spec)
            conn.data_ready()
            return True

        def dest(comm):
            inter = ns.connect("tp", comm)
            mxn = MxNComponent(comm)
            da = DistributedArray.allocate(dst_desc, comm.rank)
            mxn.register("f", da)
            conn = mxn.connect_with_spec(inter, "destination", "f", spec)
            conn.data_ready()
            return da

        out = run_coupled([("src", m, source, ()), ("dst", n, dest, ())])
        np.testing.assert_array_equal(
            DistributedArray.assemble(out["dst"]), G)

    def test_spec_mismatch_rejected(self):
        src_desc, dst_desc = make_sides(1, 1)
        other_desc = DistArrayDescriptor(
            block_template(SHAPE, (1, 1)), np.float32)
        spec = ConnectionSpec(other_desc, dst_desc)
        ns = NameService()

        def source(comm):
            inter = ns.accept("mm", comm)
            mxn = MxNComponent(comm)
            mxn.register("f", DistributedArray.from_global(
                src_desc, comm.rank, G))
            with pytest.raises(ConnectionError_):
                mxn.connect_with_spec(inter, "source", "f", spec)
            return True

        def dest(comm):
            ns.connect("mm", comm)
            return True

        out = run_coupled([("src", 1, source, ()), ("dst", 1, dest, ())])
        assert all(out["src"])

    def test_spec_validates_parameters(self):
        src_desc, dst_desc = make_sides(1, 1)
        with pytest.raises(ConnectionError_):
            ConnectionSpec(src_desc, dst_desc, period=0)
        bad_desc = DistArrayDescriptor(block_template((3, 3), (1, 1)))
        with pytest.raises(ConnectionError_):
            ConnectionSpec(src_desc, bad_desc)


def test_connection_parameter_mismatch_detected():
    src_desc, dst_desc = make_sides(1, 1)
    ns = NameService()

    def source(comm):
        inter = ns.accept("pm", comm)
        mxn = MxNComponent(comm)
        mxn.register("f", DistributedArray.from_global(src_desc, 0, G))
        with pytest.raises(ConnectionError_):
            mxn.connect(inter, "source", "f", ConnectionKind.ONE_SHOT)
        return True

    def dest(comm):
        inter = ns.connect("pm", comm)
        mxn = MxNComponent(comm)
        mxn.register("f", DistributedArray.allocate(dst_desc, 0))
        try:
            mxn.connect(inter, "destination", "f",
                        ConnectionKind.PERSISTENT, period=5)
        except ConnectionError_:
            pass
        return True

    out = run_coupled([("src", 1, source, ()), ("dst", 1, dest, ())])
    assert all(out["src"]) and all(out["dst"])


def _connect_timed(comm, ns, role, desc, period):
    """Try one persistent connection; return (seconds until the typed
    error, its message), or None if the connection opened."""
    import time

    inter = (ns.accept("pm23", comm) if role == "source"
             else ns.connect("pm23", comm))
    mxn = MxNComponent(comm)
    mxn.register("f", DistributedArray.allocate(desc, comm.rank))
    t0 = time.perf_counter()
    try:
        mxn.connect(inter, role, "f", ConnectionKind.PERSISTENT, period=period)
    except ConnectionError_ as exc:
        return time.perf_counter() - t0, str(exc)
    return None


def test_period_mismatch_raises_on_every_rank_of_both_jobs():
    """The handshake result is broadcast before it is compared, so a
    mismatch is a ``ConnectionError_`` on all 2 + 3 ranks — not on rank 0
    only, with the others dying as aborts."""
    src_desc, dst_desc = make_sides(2, 3)
    ns = NameService()
    out = run_coupled(
        [("src", 2, _connect_timed, (ns, "source", src_desc, 2)),
         ("dst", 3, _connect_timed, (ns, "destination", dst_desc, 5))])
    for job in ("src", "dst"):
        assert len(out[job]) == (2 if job == "src" else 3)
        for result in out[job]:
            assert result is not None, f"{job} opened a mismatched connection"
            seconds, message = result
            assert seconds < 1.0
            assert "period" in message


# -- connections sharing one intercommunicator stay independent ---------------

def _two_fields(comm, role, order):
    """Connect fields ``a`` then ``b`` over ONE intercommunicator, then
    fire them in ``order`` — the two sides use opposite orders."""
    source = role == "source"
    src_desc, dst_desc = make_sides(2, 3)
    inter = (default_nameservice.accept("two-fields", comm) if source
             else default_nameservice.connect("two-fields", comm))
    mxn = MxNComponent(comm)
    for k, name in enumerate("ab"):
        mxn.register(name, DistributedArray.from_global(
            src_desc, comm.rank, G + 1000.0 * k) if source
            else DistributedArray.allocate(dst_desc, comm.rank))
    conns = {name: mxn.connect(inter, role, name) for name in "ab"}
    fired = [conns[name].data_ready() for name in order]
    return fired, conns["a"].spec.connection_id, \
        conns["b"].spec.connection_id, mxn.field("a"), mxn.field("b")


@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_connections_on_one_intercomm_do_not_cross(backend):
    """§4.1: "independent asynchronous point-to-point transfers, no
    additional synchronization" — two handshaken connections get
    distinct ids (tags), so firing them in different orders on the two
    sides cannot deliver one field's bytes into the other's array."""
    out = run_coupled([("src", 2, _two_fields, ("source", "ab")),
                       ("dst", 3, _two_fields, ("destination", "ba"))],
                      backend=backend)
    for k, field in enumerate((3, 4)):
        got = DistributedArray.assemble([r[field] for r in out["dst"]])
        assert got.tobytes() == (G + 1000.0 * k).tobytes()
    for fired, id_a, id_b, _, _ in out["src"] + out["dst"]:
        assert fired == [True, True]
        assert (id_a, id_b) == (0, 1)


def _connect_under(comm, role, desc, tier):
    """One persistent connection with this job's ``REPRO_TIER`` set to
    ``tier`` (each procs rank is its own process); returns the typed
    error's message, or None if the connection opened."""
    import os

    os.environ["REPRO_TIER"] = tier
    inter = (default_nameservice.accept("tiers", comm) if role == "source"
             else default_nameservice.connect("tiers", comm))
    mxn = MxNComponent(comm)
    mxn.register("f", DistributedArray.allocate(desc, comm.rank))
    try:
        mxn.connect(inter, role, "f", ConnectionKind.PERSISTENT).close()
    except ConnectionError_ as exc:
        return str(exc)
    return None


def test_tier_mismatch_raises_on_every_rank_of_both_jobs():
    """Both jobs compute the transfer on their own, so a persistent
    connection whose jobs resolve different tiers is refused at the
    handshake instead of stalling until the deadlock watchdog."""
    src_desc, dst_desc = make_sides(2, 3)
    out = run_coupled(
        [("src", 2, _connect_under, ("source", src_desc, "rma")),
         ("dst", 3, _connect_under, ("destination", dst_desc, "two_sided"))],
        backend="procs")
    for message in out["src"] + out["dst"]:
        assert message is not None and "REPRO_TIER" in message
