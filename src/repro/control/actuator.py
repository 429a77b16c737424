"""Actuation: controller intents become deployment edits.

:class:`DeploymentActuator` is the
:class:`~repro.control.controllers.ControlTarget` the scenario runner
hands its controllers.  It owns the live ``pq`` setting, grows and
shrinks the server set, and walks the stored partitioning level online
through :func:`schedule_repartition` -- the one routine that spreads a
:class:`~repro.core.reconfig.Reconfigurator`'s per-node steps over
simulated time (Section 4.5, "change p without downtime").
"""

from __future__ import annotations

import math
from functools import partial

from ..cluster.deployment import Deployment
from ..cluster.models import MODEL_CATALOGUE
from ..core.reconfig import ReconfigPhase
from ..sim.engine import Simulation

__all__ = ["DeploymentActuator", "schedule_repartition"]


def schedule_repartition(
    deployment: Deployment,
    sim: Simulation,
    p_new: int,
    grow_seconds: float,
    drop_seconds: float,
) -> bool:
    """Request stored level *p_new* and schedule the per-node steps.

    Node steps run in name order, evenly spread over *drop_seconds* when
    the change only drops replicas (p increase) and over *grow_seconds*
    when it downloads them (p decrease).  Returns False -- and schedules
    nothing -- when the deployment has no object stores, a change is
    already in flight, or *p_new* is the current target.
    """
    rc = deployment.reconfig
    if rc is None or rc.phase != ReconfigPhase.STABLE or p_new == rc.p_target:
        return False
    status = rc.request_p(p_new)
    span = (
        drop_seconds
        if status.phase == ReconfigPhase.SHRINKING_REPLICAS
        else grow_seconds
    )
    names = sorted(node.name for node in rc.ring)
    for i, name in enumerate(names):
        sim.schedule(span * (i + 1) / len(names), partial(rc.node_step, name))
    return True


class DeploymentActuator:
    """:class:`~repro.control.controllers.ControlTarget` over a Deployment.

    Owns the live ``pq`` setting (initially *p0*, never below the stored
    level) and translates controller intents into deployment edits; replica
    movement for level changes is spread across simulated time by
    :func:`schedule_repartition`.  Servers added by elasticity are of
    catalogue model *growth_model*.
    """

    def __init__(
        self,
        deployment: Deployment,
        sim: Simulation,
        p0: int,
        grow_seconds: float = 20.0,
        drop_seconds: float = 4.0,
        growth_model: str = "dell-1950",
    ) -> None:
        self.deployment = deployment
        self.sim = sim
        self.grow_seconds = grow_seconds
        self.drop_seconds = drop_seconds
        self.growth_model = growth_model
        self.pq = max(p0, int(math.ceil(deployment.p_store - 1e-9)))

    # -- ControlTarget surface ---------------------------------------------
    @property
    def n_servers(self) -> int:
        return len(self.deployment.servers)

    @property
    def p_store(self) -> float:
        return self.deployment.p_store

    @property
    def reconfig_stable(self) -> bool:
        rc = self.deployment.reconfig
        return rc is None or rc.phase == ReconfigPhase.STABLE

    @property
    def p_safety_cap(self) -> int | None:
        worst = self.deployment.max_dead_range()
        if worst <= 0.0:
            return None
        return max(1, int(1.0 / worst - 1e-6))

    def set_pq(self, pq: int) -> None:
        floor = int(math.ceil(self.deployment.p_store - 1e-9))
        self.pq = max(int(pq), floor, 1)

    def request_p(self, p_new: int) -> bool:
        return schedule_repartition(
            self.deployment, self.sim, p_new, self.grow_seconds, self.drop_seconds
        )

    def add_server(self) -> str:
        model = MODEL_CATALOGUE[self.growth_model]
        return self.deployment.add_server(model, now=self.sim.now)

    def remove_server(self) -> str | None:
        ring = self.deployment.rings[0]
        if len(ring) <= 1:
            return None
        cool = self.deployment.membership.coolest_node(ring)
        if cool is None:
            return None
        self.deployment.remove_server(cool.name, now=self.sim.now)
        return cool.name
