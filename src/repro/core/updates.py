"""Object update propagation and rack-aware placement (Sections 4.1, 4.9.2).

:func:`update_replicas` is the replica-choice rule the simulated
deployment charges an object update to: the ``r`` alive nodes clockwise
from the object's ring position.  Both the per-query reference path
(``Deployment.apply_update``) and the batched engine's update column call
it, so the rule lives in one place.

Three replication transports are modelled, matching the deployment options
the paper lists for getting an object onto all servers whose range
intersects its replication arc:

* ``ring-forward`` -- push to the first server, then hop successor to
  successor around the ring (the peer-to-peer option).  With rack-aware
  layout almost all hops stay inside a rack.
* ``backend-push`` -- a back-end update server that knows the topology sends
  one copy to every replica holder directly.
* ``shared-fs`` -- servers poll a shared filesystem; one upload to the
  filesystem plus one download per replica holder (the implementation's NFS
  option).

:class:`RackLayout` assigns ring-adjacent servers to the same rack (the
Section 4.9.2 optimisation) or scatters them, and the propagation functions
account cross-rack bytes so the cross-sectional-bandwidth comparison can be
reproduced.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

from .ids import Arc
from .objects import DataObject, replication_range
from .ring import Ring, RingNode

__all__ = [
    "RackLayout",
    "PropagationReport",
    "propagate_update",
    "propagate_many",
    "update_replicas",
]


def update_replicas(
    starts: Sequence[float],
    at: float,
    r: int,
    alive: Sequence[bool] | None = None,
) -> list[int]:
    """Ring indices of the nodes an update at position *at* lands on.

    *starts* are a ring's sorted node start positions and *alive* their
    liveness flags (``None``: all alive).  The result is the first
    ``min(r, alive count)`` alive nodes of
    ``sorted(alive nodes, key=lambda nd: (nd.start - at) % 1.0)``, in that
    order -- the clockwise walk from *at*, found by one bisection instead
    of a sort.  The key is monotone along the clockwise walk, so the walk
    is the sorted order except where float rounding ties the last node
    before the wrap with the first node after it (the stable sort then
    puts the lower ring index first); that case, and positions outside
    ``[0, 1)``, take the sort itself.

    Example -- four nodes, an update just past the last start wraps::

        >>> update_replicas([0.0, 0.25, 0.5, 0.75], 0.8, 2)
        [0, 1]
        >>> update_replicas([0.0, 0.25, 0.5, 0.75], 0.25, 3, [True, False, True, True])
        [2, 3, 0]
    """
    n = len(starts)
    if not 0.0 <= at < 1.0:
        return _sorted_replicas(starts, at, r, alive)
    i0 = bisect_left(starts, at)
    if alive is None:
        count = min(r, n)
        stop = i0 + count
        if stop <= n:
            out = list(range(i0, stop))
        else:
            out = list(range(i0, n))
            out.extend(range(stop - n))
        # the walk reaches the wrap when it takes node n - 1: node 0 is
        # then taken too, or is the next candidate
        if (
            0 < i0 < n
            and stop >= n
            and (starts[n - 1] - at) % 1.0 == (starts[0] - at) % 1.0
        ):
            return _sorted_replicas(starts, at, r, alive)
        return out
    out = []
    last_pre = -1  # last alive node walked before the wrap
    first_post = -1  # first alive node walked (or next) after it
    j = i0
    for _ in range(n):
        if j == n:
            j = 0
        if alive[j]:
            if len(out) == r:
                if j < i0 and first_post < 0:
                    first_post = j
                break
            if j >= i0:
                last_pre = j
            elif first_post < 0:
                first_post = j
            out.append(j)
        j += 1
    if (
        last_pre >= 0
        and first_post >= 0
        and (starts[last_pre] - at) % 1.0 == (starts[first_post] - at) % 1.0
    ):
        return _sorted_replicas(starts, at, r, alive)
    return out


def _sorted_replicas(starts, at, r, alive) -> list[int]:
    """The defining sort of :func:`update_replicas` (its slow path)."""
    idx = [i for i in range(len(starts)) if alive is None or alive[i]]
    idx.sort(key=lambda i: (starts[i] - at) % 1.0)
    return idx[:r]


@dataclass
class RackLayout:
    """Assignment of servers to racks.

    ``aligned=True`` places ring-consecutive nodes in the same rack, so a
    replication arc spans the minimum number of racks (the paper's
    placement); ``aligned=False`` stripes nodes across racks round-robin
    (the pessimal baseline).
    """

    ring: Ring
    rack_size: int
    aligned: bool = True
    rack_of: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        if self.rack_size < 1:
            raise ValueError("rack_size must be >= 1")
        nodes = self.ring.nodes()  # ring (start) order
        self.rack_of = {}
        for i, node in enumerate(nodes):
            if self.aligned:
                rack = i // self.rack_size
            else:
                rack = i % max(1, math.ceil(len(nodes) / self.rack_size))
            self.rack_of[node.name] = rack

    def n_racks(self) -> int:
        return len(set(self.rack_of.values())) if self.rack_of else 0

    def same_rack(self, a: RingNode, b: RingNode) -> bool:
        return self.rack_of[a.name] == self.rack_of[b.name]

    def racks_spanned(self, nodes: Sequence[RingNode]) -> int:
        return len({self.rack_of[n.name] for n in nodes})


@dataclass
class PropagationReport:
    """Traffic generated by replicating updates."""

    replicas_written: int = 0
    total_bytes: int = 0
    cross_rack_bytes: int = 0
    hops: int = 0

    def merged(self, other: "PropagationReport") -> "PropagationReport":
        return PropagationReport(
            replicas_written=self.replicas_written + other.replicas_written,
            total_bytes=self.total_bytes + other.total_bytes,
            cross_rack_bytes=self.cross_rack_bytes + other.cross_rack_bytes,
            hops=self.hops + other.hops,
        )


Strategy = Literal["ring-forward", "backend-push", "shared-fs"]


def propagate_update(
    ring: Ring,
    layout: RackLayout,
    obj: DataObject,
    p: float,
    strategy: Strategy = "ring-forward",
) -> PropagationReport:
    """Replicate one object update to every holder; returns the traffic.

    The update source (back-end server / filesystem / client) is assumed to
    sit outside the racks, so its first copy always crosses the core.
    """
    arc = replication_range(obj, p)
    holders = [n for n in ring.nodes_covering(arc) if n.alive]
    if not holders:
        return PropagationReport()
    # Holders in ring order starting at the arc's first owner.
    holders.sort(key=lambda n: (n.start - arc.start) % 1.0)
    report = PropagationReport(
        replicas_written=len(holders),
        total_bytes=obj.size * len(holders),
    )

    if strategy == "ring-forward":
        # Source -> first holder (crosses the core), then successor hops.
        report.hops = len(holders)
        report.cross_rack_bytes += obj.size  # the injection hop
        for prev, nxt in zip(holders, holders[1:]):
            if not layout.same_rack(prev, nxt):
                report.cross_rack_bytes += obj.size
    elif strategy == "backend-push":
        # One unicast per holder, each crossing the core once.
        report.hops = len(holders)
        report.cross_rack_bytes += obj.size * len(holders)
    elif strategy == "shared-fs":
        # One upload plus one download per holder, all through the core.
        report.hops = len(holders) + 1
        report.total_bytes += obj.size  # the upload
        report.cross_rack_bytes += obj.size * (len(holders) + 1)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return report


def propagate_many(
    ring: Ring,
    layout: RackLayout,
    objects: Iterable[DataObject],
    p: float,
    strategy: Strategy = "ring-forward",
) -> PropagationReport:
    """Aggregate propagation traffic over a batch of updates."""
    total = PropagationReport()
    for obj in objects:
        total = total.merged(propagate_update(ring, layout, obj, p, strategy))
    return total
