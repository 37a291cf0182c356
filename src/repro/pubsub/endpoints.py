"""Publisher and Subscriber endpoints (XChangemxn model).

Channel lifecycle: a subscriber registers on the board and blocks in
``accept`` on its private service name; the publisher polls the board
at each ``publish``, connects to newcomers, redistributes (and
transforms, per subscription) the topic data to every live channel, and
closes channels whose subscribers flagged departure.  Data still moves
as schedule point-to-point messages — the board carries control only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConnectionError_
from repro.dad.darray import DistributedArray
from repro.dad.descriptor import DistArrayDescriptor
from repro.pubsub.board import Subscription, SubscriptionBoard
from repro.schedule.builder import GLOBAL_CACHE
from repro.schedule.executor import allocate_dst, execute_inter
from repro.simmpi import payload as _payload
from repro.simmpi.communicator import Communicator
from repro.simmpi.intercomm import Intercommunicator, NameService

HELLO_TAG = 190
CTRL_TAG = 191
DATA_TAG = 192


@dataclass
class _Channel:
    sub: Subscription
    inter: Intercommunicator
    schedule: object


class Publisher:
    """The producing side of one topic."""

    def __init__(self, comm: Communicator, ns: NameService,
                 board: SubscriptionBoard, topic: str,
                 src_descriptor: DistArrayDescriptor):
        self.comm = comm
        self.ns = ns
        self.board = board
        self.topic = topic
        self.src_descriptor = src_descriptor
        self._channels: dict[int, _Channel] = {}
        self.publishes = 0

    # -- board synchronization --------------------------------------------

    def _poll_board(self) -> tuple[list[Subscription], list[int]]:
        """Rank 0 reads the board; everyone gets the same decisions."""
        if self.comm.rank == 0:
            active = self.board.active(self.topic)
            new = [s for s in active if s.sub_id not in self._channels]
            leaving = [s.sub_id for s in active
                       if s.sub_id in self._channels
                       and self.board.is_leaving(s)]
            decision = (sorted(new, key=lambda s: s.sub_id),
                        sorted(leaving))
        else:
            decision = None
        got = self.comm.bcast(
            _payload.Raw(decision) if decision is not None else None,
            root=0)
        return got.value if isinstance(got, _payload.Raw) else got

    def _open_channel(self, sub: Subscription) -> None:
        inter = self.ns.connect(sub.service, self.comm)
        if self.comm.rank == 0:
            inter.send(self.src_descriptor, dest=0, tag=HELLO_TAG)
        schedule = GLOBAL_CACHE.get(self.src_descriptor, sub.layout)
        self._channels[sub.sub_id] = _Channel(sub, inter, schedule)

    def _close_channel(self, sub_id: int) -> None:
        channel = self._channels.pop(sub_id)
        if self.comm.rank == 0:
            for r in range(channel.inter.remote_size):
                channel.inter.send("bye", dest=r, tag=CTRL_TAG)
            self.board.remove(channel.sub)

    # -- publishing -------------------------------------------------------------

    def publish(self, darray: DistributedArray) -> int:
        """Push one snapshot to every live subscriber; collective over
        the publishing cohort.  Returns the number of channels served."""
        new, leaving = self._poll_board()
        for sub in new:
            self._open_channel(sub)
        for sub_id in leaving:
            self._close_channel(sub_id)

        served = 0
        for sub_id in sorted(self._channels):
            channel = self._channels[sub_id]
            outgoing = darray
            if channel.sub.transform is not None:
                # In-flight transformation: a transformed copy leaves;
                # the publisher's own data is untouched.
                outgoing = DistributedArray(
                    self.src_descriptor, self.comm.rank,
                    {region: channel.sub.transform.apply(arr)
                     for region, arr in darray.patches.items()})
            if self.comm.rank == 0:
                for r in range(channel.inter.remote_size):
                    channel.inter.send("data", dest=r, tag=CTRL_TAG)
            execute_inter(channel.schedule, channel.inter, "src",
                          outgoing, tag=DATA_TAG)
            served += 1
        self.publishes += 1
        return served

    def close(self) -> None:
        """Shut the topic down: every remaining channel gets a bye."""
        for sub_id in sorted(self._channels):
            self._close_channel(sub_id)


class Subscriber:
    """The consuming side: one subscription on one topic."""

    def __init__(self, comm: Communicator, ns: NameService,
                 board: SubscriptionBoard, topic: str,
                 layout: DistArrayDescriptor, transform=None):
        self.comm = comm
        self.board = board
        self.layout = layout
        if comm.rank == 0:
            sub = board.subscribe(topic, layout, transform)
        else:
            sub = None
        got = comm.bcast(_payload.Raw(sub) if sub is not None else None,
                         root=0)
        self.sub = got.value if isinstance(got, _payload.Raw) else got
        self.inter = ns.accept(self.sub.service, comm)
        if comm.rank == 0:
            src_desc = self.inter.recv(source=0, tag=HELLO_TAG)
        else:
            src_desc = None
        self.src_descriptor = comm.bcast(src_desc, root=0)
        self.schedule = GLOBAL_CACHE.get(self.src_descriptor, layout)
        self._open = True
        self.received = 0

    def receive(self) -> DistributedArray | None:
        """Block for the next publish; returns the local piece, or None
        when the channel was closed (publisher shutdown or our own
        departure completing)."""
        if not self._open:
            raise ConnectionError_("subscription channel already closed")
        ctrl = self.inter.recv(source=0, tag=CTRL_TAG)
        if ctrl == "bye":
            self._open = False
            return None
        darray = allocate_dst(self.schedule, self.layout, self.comm.rank)
        execute_inter(self.schedule, self.inter, "dst", darray,
                      tag=DATA_TAG)
        self.received += 1
        return darray

    def leave(self) -> None:
        """Depart gracefully — XChangemxn's "dynamic ... departures of
        components" (§5): flag the board, then drain until the
        publisher's bye arrives."""
        if self.comm.rank == 0:
            self.board.unsubscribe(self.sub)
        self.comm.barrier()
        while self._open:
            self.receive()
