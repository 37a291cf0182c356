"""Zero-copy transport: borrow payload semantics, preposted
recv-into-destination slots, and event-driven abort wakeups."""

import threading
import time

import numpy as np
import pytest

from repro.errors import DeadlockError
from repro.simmpi import payload
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG
from repro.simmpi.matching import AbortFlag, Envelope, Mailbox
from repro.simmpi.intercomm import couple_jobs
from repro.simmpi.runner import Job
from repro.util.counters import TRANSPORT_STATS


def _mailbox():
    return Mailbox(0, AbortFlag())


class TestBorrowed:
    def test_snapshot_isolates_without_prepost(self):
        job = Job(2)
        src, dst = couple_jobs(job, job)
        store = np.arange(10.0)
        src[0].send(payload.Borrowed(store[::2]), dest=1, tag=1)
        store[:] = -1.0  # sender may mutate right after send returns
        got = dst[1].recv(source=0, tag=1)
        np.testing.assert_array_equal(got, [0.0, 2.0, 4.0, 6.0, 8.0])
        assert not np.shares_memory(got, store)

    def test_prepost_writes_directly_into_destination(self):
        job = Job(2)
        src, dst = couple_jobs(job, job)
        dest = np.zeros(4)

        def sink(values):
            dest[:] = values
            return dest.size

        before = TRANSPORT_STATS.get("direct_deliveries")
        slot = dst[1].prepost_recv(sink, source=0, tag=9)
        src[0].send(payload.Borrowed(np.arange(4.0)), dest=1, tag=9)
        assert slot.wait(timeout=5) == 4
        np.testing.assert_array_equal(dest, np.arange(4.0))
        assert TRANSPORT_STATS.get("direct_deliveries") == before + 1
        # nothing was queued: the bytes went straight through the sink
        assert job.transport.mailboxes[1].pending_count() == 0


class TestPrepost:
    def test_queued_message_consumed_at_arm_time_fifo(self):
        mbox = _mailbox()
        mbox.deliver(Envelope(1, 0, 5, np.array([1.0]), 8))
        mbox.deliver(Envelope(1, 0, 5, np.array([2.0]), 8))
        got = []
        slot = mbox.prepost(1, 0, 5, lambda v: got.append(v) or 1)
        assert slot.done and slot.wait(timeout=1) == 1
        assert got[0][0] == 1.0  # the older message, not the newer
        assert mbox.pending_count() == 1

    def test_unmatched_tag_stays_queued(self):
        mbox = _mailbox()
        mbox.prepost(1, 0, 5, lambda v: 1)
        mbox.deliver(Envelope(1, 0, 6, np.array([3.0]), 8))  # other tag
        assert mbox.pending_count() == 1

    def test_slot_wait_timeout(self):
        mbox = _mailbox()
        slot = mbox.prepost(1, 0, 5, lambda v: 1)
        with pytest.raises(TimeoutError):
            slot.wait(timeout=0.05)


class TestAbortNotification:
    def test_blocked_recv_wakes_immediately_on_abort(self):
        """No poll loop: a blocked receive must raise within
        notification latency of AbortFlag.set, not a poll tick."""
        abort = AbortFlag()
        mbox = Mailbox(0, abort)
        woke = {}

        def blocked():
            t0 = time.monotonic()
            try:
                mbox.wait_match(1, ANY_SOURCE, ANY_TAG)
            except DeadlockError:
                woke["latency"] = time.monotonic() - t0

        t = threading.Thread(target=blocked)
        t.start()
        time.sleep(0.05)  # let the receiver block
        t0 = time.monotonic()
        abort.set("test abort", {0: "recv"})
        t.join(timeout=5)
        assert not t.is_alive()
        assert "latency" in woke
        assert time.monotonic() - t0 < 0.5

    def test_blocked_prepost_wait_wakes_on_abort(self):
        abort = AbortFlag()
        mbox = Mailbox(0, abort)
        slot = mbox.prepost(1, 0, 5, lambda v: 1)
        err = {}

        def blocked():
            try:
                slot.wait()
            except DeadlockError as e:
                err["e"] = e

        t = threading.Thread(target=blocked)
        t.start()
        time.sleep(0.05)
        abort.set("test abort", {0: "prepost"})
        t.join(timeout=5)
        assert not t.is_alive()
        assert "e" in err
