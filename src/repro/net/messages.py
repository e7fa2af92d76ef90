"""Request and call-tree types shared by the communication substrate.

A *request class* (e.g. ``upload-post``, ``object-detect``) is executed as
a **call tree**: each node names a microservice and how its parent invokes
it (§III's three communication methods):

* ``CallMode.RPC`` -- nested (synchronous) RPC: the parent holds its worker
  thread while waiting for the child's response.
* ``CallMode.EVENT`` -- event-driven RPC: the parent acknowledges its own
  caller immediately after dispatching the child call to a daemon thread;
  the daemon waits for the child's response.
* ``CallMode.MQ`` -- message queue: the parent publishes a message and
  continues; the child consumes it when a worker frees up.  No thread of
  the parent is ever held on the child.

End-to-end latency of a request is the time until its *entire* tree has
completed (for synchronous trees this equals the root's response time; for
MQ pipelines it is the pipeline completion time, which is what the paper's
SLAs for e.g. ``object-detect`` refer to).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import TopologyError

__all__ = ["CallMode", "Call", "Request"]


class CallMode(enum.Enum):
    RPC = "rpc"
    EVENT = "event"
    MQ = "mq"


#: Derived per-mode child tuples of :class:`Call`, by mode.
_CHILDREN_BY_MODE = (
    (CallMode.MQ, "mq_children"),
    (CallMode.RPC, "rpc_children"),
    (CallMode.EVENT, "event_children"),
)


@dataclass(frozen=True)
class Call:
    """One node of a request class's call tree.

    ``repeat`` models a service accessed multiple times by its parent; the
    accesses happen sequentially and their latencies accumulate (§IV treats
    the cumulative latency as the latency of that service).

    ``mq_children``, ``rpc_children`` and ``event_children`` are derived
    at construction (not constructor arguments): the children of each
    mode in tree order, each repeated ``repeat`` times -- the order a
    hop invokes them in, so the runtime never rescans ``children``.
    """

    service: str
    mode: CallMode = CallMode.RPC
    children: tuple["Call", ...] = ()
    repeat: int = 1
    mq_children: tuple["Call", ...] = field(init=False, repr=False, compare=False)
    rpc_children: tuple["Call", ...] = field(init=False, repr=False, compare=False)
    event_children: tuple["Call", ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.service:
            raise TopologyError("call must name a service")
        if self.repeat < 1:
            raise TopologyError(f"repeat must be >= 1, got {self.repeat}")
        children = tuple(self.children)
        object.__setattr__(self, "children", children)
        for mode, attr in _CHILDREN_BY_MODE:
            expanded = tuple(
                child
                for child in children
                if child.mode is mode
                for _ in range(child.repeat)
            )
            object.__setattr__(self, attr, expanded)

    def services(self) -> list[str]:
        """All service names in this subtree, preorder, with duplicates."""
        names = [self.service]
        for child in self.children:
            names.extend(child.services())
        return names

    def walk(self) -> list["Call"]:
        """All calls in this subtree, preorder."""
        nodes = [self]
        for child in self.children:
            nodes.extend(child.walk())
        return nodes

    def depth(self) -> int:
        """Length of the longest service chain in this subtree."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)


@dataclass
class Request:
    """One in-flight user request.

    ``request_id`` is assigned by :meth:`repro.apps.topology.Application.submit`
    from a per-application counter, so ids are deterministic *within a
    run* and identical across ``--jobs 1`` / ``--jobs N`` executions.  A
    process-global counter here would diverge between sequential and
    pooled runs (each pool worker counts from its own fork point); the
    whole-program lint rule PAR002 guards against reintroducing one.
    ``-1`` marks a request constructed outside an application
    (ad-hoc unit-test requests that never cross a run boundary).
    """

    request_class: str
    arrival_time: float
    priority: int = 0
    request_id: int = -1
    #: Filled by the runtime when the whole call tree has completed.
    completion_time: float | None = None

    @property
    def latency(self) -> float:
        """End-to-end latency; only valid after completion."""
        if self.completion_time is None:
            raise ValueError(f"request {self.request_id} has not completed")
        return self.completion_time - self.arrival_time
