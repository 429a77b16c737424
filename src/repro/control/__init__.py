"""Closed-loop control plane: live metrics, SLO elasticity, online re-partitioning.

The paper's mechanisms (ring edits, :mod:`repro.core.reconfig`, the heap
scheduler) make ROAR *able* to change shape online; this subpackage adds the
thing that *decides* to.  It observes a running deployment through sliding
metric windows (:mod:`~repro.control.metrics`), drives the two elastic
knobs -- the server set and the partitioning level -- from SLO-style
policies (:mod:`~repro.control.controllers`), and applies their intents
through a :class:`DeploymentActuator`.  Scenarios close the loop by
carrying a :class:`~repro.scenarios.spec.ControlSpec`; ``repro control``
runs the builtin flash-crowd, diurnal and rack-failure scenarios with one.
"""

from .actuator import DeploymentActuator, schedule_repartition
from .controllers import (
    ControlAction,
    Controller,
    FrontendElasticityController,
    RepartitionController,
    SLOElasticityController,
)
from .metrics import (
    LatencyHistogram,
    MetricsCollector,
    MetricsSnapshot,
    SlidingWindow,
)

__all__ = [
    "ControlAction",
    "Controller",
    "DeploymentActuator",
    "FrontendElasticityController",
    "LatencyHistogram",
    "MetricsCollector",
    "MetricsSnapshot",
    "RepartitionController",
    "SLOElasticityController",
    "SlidingWindow",
    "schedule_repartition",
]
