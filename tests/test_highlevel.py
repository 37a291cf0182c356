"""High-level convenience API tests (§6 simplifications)."""

import numpy as np
import pytest

from repro.dad import DistArrayDescriptor, DistributedArray
from repro.dad.template import block_template
from repro.errors import ConnectionError_
from repro.highlevel import Coupler, redistribute
from repro.simmpi import NameService, run_coupled


class TestRedistribute:
    def test_roundtrip(self):
        g = np.arange(60.0).reshape(6, 10)
        out = redistribute(g, (2, 1), (1, 5))
        np.testing.assert_array_equal(out, g)

    def test_3d_fig1(self):
        g = np.random.default_rng(0).random((6, 6, 6))
        out = redistribute(g, (2, 2, 2), (3, 3, 3))
        np.testing.assert_array_equal(out, g)

    def test_dtype_preserved(self):
        g = np.arange(12, dtype=np.int64).reshape(3, 4)
        out = redistribute(g, (3, 1), (1, 2))
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, g)


class TestCoupler:
    def test_publish_subscribe(self):
        g = np.arange(48.0).reshape(8, 6)
        src_desc = DistArrayDescriptor(block_template((8, 6), (2, 1)))
        dst_desc = DistArrayDescriptor(block_template((8, 6), (1, 3)))
        ns = NameService()

        def producer(comm):
            coupler = Coupler("temp", ns)
            da = DistributedArray.from_global(src_desc, comm.rank, g)
            return coupler.publish(comm, da)

        def consumer(comm):
            coupler = Coupler("temp", ns)
            return coupler.subscribe(comm, dst_desc)

        out = run_coupled([("p", 2, producer, ()), ("c", 3, consumer, ())])
        np.testing.assert_array_equal(
            DistributedArray.assemble(out["c"]), g)
        assert sum(out["p"]) == 48

    def test_persistent_channel(self):
        src_desc = DistArrayDescriptor(block_template((6,), (2,)))
        dst_desc = DistArrayDescriptor(block_template((6,), (3,)))
        ns = NameService()
        steps = 4

        def producer(comm):
            coupler = Coupler("wave", ns)
            da = DistributedArray.allocate(src_desc, comm.rank)
            chan = coupler.open(comm, "source", da)
            for step in range(steps):
                da.fill(float(step))
                chan.push()
            return chan.transfers

        def consumer(comm):
            coupler = Coupler("wave", ns)
            chan = coupler.open(comm, "destination", dst_desc)
            seen = []
            for _ in range(steps):
                da = chan.pull()
                seen.append(float(next(iter(da.patches.values()))[0]))
            return seen

        out = run_coupled([("p", 2, producer, ()), ("c", 3, consumer, ())])
        assert out["p"] == [steps, steps]
        assert out["c"][0] == [0.0, 1.0, 2.0, 3.0]

    def test_channel_role_enforcement(self):
        src_desc = DistArrayDescriptor(block_template((4,), (1,)))
        ns = NameService()

        def producer(comm):
            coupler = Coupler("x", ns)
            da = DistributedArray.allocate(src_desc, comm.rank)
            chan = coupler.open(comm, "source", da)
            with pytest.raises(ConnectionError_):
                chan.pull()
            chan.push()
            return True

        def consumer(comm):
            coupler = Coupler("x", ns)
            chan = coupler.open(comm, "destination", src_desc)
            with pytest.raises(ConnectionError_):
                chan.push()
            chan.pull()
            return True

        out = run_coupled([("p", 1, producer, ()), ("c", 1, consumer, ())])
        assert all(out["p"]) and all(out["c"])

    def test_bad_role(self):
        ns = NameService()

        def one(comm):
            with pytest.raises(ConnectionError_):
                Coupler("y", ns).open(comm, "middle", None)
            return True

        from repro.simmpi import run_spmd
        assert all(run_spmd(1, one))


_MISMATCH_SRC = DistArrayDescriptor(block_template((4096,), (2,)))
_MISMATCH_DST = DistArrayDescriptor(block_template((4096,), (3,)))


def _open_and_step(comm, role, kwargs):
    """Open one side of the 'mismatch' coupling and try one transfer;
    return (seconds until the typed error, its message)."""
    import time

    from repro.simmpi.intercomm import default_nameservice

    held = (DistributedArray.allocate(_MISMATCH_SRC, comm.rank)
            if role == "source" else _MISMATCH_DST)
    t0 = time.perf_counter()
    try:
        chan = Coupler("mismatch", default_nameservice).open(
            comm, role, held, **kwargs)
        chan.push() if role == "source" else chan.pull()
    except ConnectionError_ as exc:
        return time.perf_counter() - t0, str(exc)
    return None


@pytest.mark.parametrize("backend", ["threads", "procs"],
                         ids=["backend-threads", "backend-procs"])
@pytest.mark.parametrize("prod, cons", [
    ("rma", "two_sided"), ("two_sided", "rma"),
], ids=["rma-vs-two_sided", "two_sided-vs-rma"])
def test_mismatched_requests_fail_typed_on_both_jobs(backend, prod, cons):
    """Two jobs that request different tiers raise ``ConnectionError_``
    naming the knob on every rank of both, at the handshake — not a
    one-sided ``DeadlockError`` after the stall watchdog.  The request
    is compared, not the resolved tier, so they raise on threads too,
    where both would run two-sided."""
    out = run_coupled(
        [("prod", 2, _open_and_step, ("source", {"tier": prod})),
         ("cons", 3, _open_and_step, ("destination", {"tier": cons}))],
        backend=backend)
    for job, mine, theirs in (("prod", prod, cons), ("cons", cons, prod)):
        for result in out[job]:
            assert result is not None, f"{job} opened a mismatched channel"
            seconds, message = result
            assert seconds < 1.0
            assert "tier" in message and "REPRO_TIER" in message
            assert message.index(repr(mine)) < message.index(repr(theirs))


def test_open_takes_tier_or_one_sided_not_both():
    def one(comm):
        with pytest.raises(TypeError, match="not both"):
            Coupler("both", NameService()).open(
                comm, "source", None, tier="rma", one_sided=True)
        return True

    from repro.simmpi import run_spmd
    assert all(run_spmd(1, one))


def _one_shot_under(comm, role, tier):
    """One-shot publish / subscribe of the 'mismatch' coupling with this
    job's ``REPRO_TIER`` set to ``tier`` (each procs rank is its own
    process, so the two jobs may differ); returns the subscribed patch
    sums, or the typed error's message."""
    import os

    from repro.simmpi.intercomm import default_nameservice

    os.environ["REPRO_TIER"] = tier
    coupler = Coupler("mismatch", default_nameservice)
    try:
        if role == "source":
            g = np.arange(4096.0)
            coupler.publish(comm, DistributedArray.from_global(
                _MISMATCH_SRC, comm.rank, g))
            return None
        da = coupler.subscribe(comm, _MISMATCH_DST)
        return sum(float(p.sum()) for p in da.patches.values())
    except ConnectionError_ as exc:
        return str(exc)


@pytest.mark.parametrize("prod, cons", [
    ("rma", "two_sided"), ("two_sided", "rma"),
], ids=["rma-vs-two_sided", "two_sided-vs-rma"])
def test_one_shots_couple_whatever_tier_each_job_requests(prod, cons):
    """A one-shot never takes RMA, so ``rma`` on one job and
    ``two_sided`` on the other couple as before: a one-shot handshake
    carries no tier at all (it could only ever compare ``two_sided``
    with ``two_sided``)."""
    out = run_coupled(
        [("prod", 2, _one_shot_under, ("source", prod)),
         ("cons", 3, _one_shot_under, ("destination", cons))],
        backend="procs")
    assert out["prod"] == [None, None]
    assert sum(out["cons"]) == float(np.arange(4096.0).sum())


def _one_shot_against_open(comm, role):
    """Publish one-shot against a persistent ``open`` of the same
    coupling; returns the typed error's message."""
    from repro.simmpi.intercomm import default_nameservice

    coupler = Coupler("mixed", default_nameservice)
    try:
        if role == "source":
            coupler.publish(comm, DistributedArray.from_global(
                _MISMATCH_SRC, comm.rank, np.arange(4096.0)))
        else:
            coupler.open(comm, "destination", _MISMATCH_DST).pull()
    except ConnectionError_ as exc:
        return str(exc)
    return None


def test_a_one_shot_and_a_persistent_side_refuse_each_other():
    """The persistent side sends its tier and the one-shot side none:
    every rank of both jobs raises at the handshake, naming the knob."""
    out = run_coupled(
        [("prod", 2, _one_shot_against_open, ("source",)),
         ("cons", 3, _one_shot_against_open, ("destination",))],
        backend="threads")
    for message in out["prod"] + out["cons"]:
        assert message is not None and "REPRO_TIER" in message


@pytest.mark.parametrize("one_sided, mode", [(True, "rma"),
                                             (False, "two_sided")])
def test_one_sided_spelling_maps_to_a_tier(monkeypatch, one_sided, mode):
    """``Coupler.open(one_sided=...)`` is ``tier="rma"`` / ``"two_sided"``
    and so overrides ``REPRO_TIER``, set here to the other tier; the
    procs transport honours RMA."""
    monkeypatch.setenv("REPRO_TIER", "two_sided" if mode == "rma" else "rma")
    src_desc = DistArrayDescriptor(block_template((8,), (2,)))
    dst_desc = DistArrayDescriptor(block_template((8,), (1,)))

    def producer(comm):
        from repro.simmpi.intercomm import default_nameservice
        chan = Coupler("spelling", default_nameservice).open(
            comm, "source", DistributedArray.allocate(src_desc, comm.rank),
            one_sided=one_sided)
        chan.push()
        chan.close()
        return chan.mode

    def consumer(comm):
        from repro.simmpi.intercomm import default_nameservice
        chan = Coupler("spelling", default_nameservice).open(
            comm, "destination", dst_desc, one_sided=one_sided)
        chan.pull()
        chan.close()
        return chan.mode

    out = run_coupled([("p", 2, producer, ()), ("c", 1, consumer, ())],
                      backend="procs")
    assert out["p"] + out["c"] == [mode] * 3
