"""Closed-loop scenario runner: workload -> metrics -> controller -> actuation.

This wires the pieces into one simulated elastic system:

* a :class:`~repro.cluster.Deployment` (real scheduler, Definition 8
  servers, reconfigurator-backed object stores) serves queries;
* a dynamic workload (flash crowd, compressed diurnal cycle, or a
  correlated rack failure under steady load) perturbs it;
* a :class:`~repro.control.metrics.MetricsCollector` watches latency and
  load over sliding windows;
* controllers react on a periodic tick through a
  :class:`DeploymentActuator`, growing/shrinking the server set and
  walking ``p`` online via :class:`~repro.core.reconfig.Reconfigurator`
  -- replica downloads/drops are spread over simulated time, exactly the
  "change p without downtime" story of Section 4.5.

Queries are served through the **batched engine**
(:func:`~repro.sim.fastpath.run_queries_fast`): the whole arrival trace
is one engine call, and every stimulus -- control tick, rack failure,
delayed rebuild -- is compiled to an exact-time
:class:`~repro.sim.fastpath.Action` bound to the precise query index
where its timestamp falls, the same scheme the scenario-matrix runner
uses.  That replaces the old per-query ``Simulation`` loop (one event +
one ``run_query`` per arrival) for the engine's ~15-50x win; discrete
background work (reconfiguration node steps, delayed grows) is pumped at
every action instant, i.e. at least once per control interval.

The run produces a :class:`ScenarioReport` with the action audit trail and
the before/crisis/after p99 comparison the benchmarks assert on.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..analysis.planner import recommend_from_metrics
from ..cluster.deployment import Deployment, DeploymentConfig
from ..cluster.models import MODEL_CATALOGUE, ServerModel, hen_testbed
from ..core.reconfig import ReconfigPhase
from ..sim.engine import Simulation
from ..sim.fastpath import Action
from ..telemetry.records import DelayLog, percentile
from ..obs.audit import DecisionLog
from ..sim.workload import DiurnalTrace, FlashCrowdTrace, arrivals_from_rate_fn
from .controllers import (
    ControlAction,
    Controller,
    RepartitionController,
    SLOElasticityController,
)
from .metrics import MetricsCollector, MetricsSnapshot

__all__ = [
    "SCENARIOS",
    "ScenarioConfig",
    "ScenarioReport",
    "DeploymentActuator",
    "ScenarioRunner",
    "run_scenario",
]

SCENARIOS = ("flash-crowd", "diurnal", "rack-failure")


@dataclass
class ScenarioConfig:
    """Everything one closed-loop run needs."""

    scenario: str = "flash-crowd"
    n_servers: int = 16
    p0: int = 4
    duration: float = 240.0
    #: queries/sec before the stimulus; None auto-calibrates to ~35% load.
    base_rate: float | None = None
    slo_p99: float = 1.0
    seed: int = 1
    control_interval: float = 5.0
    metrics_window: float = 20.0
    dataset_size: float = 2_000_000.0
    #: which policies close the loop.
    policies: tuple[str, ...] = ("elasticity", "repartition")
    #: repartition policy consults the live-metrics planner instead of
    #: thresholds (analysis layer in the loop).
    use_planner: bool = False
    min_servers: int | None = None  # default max(2, n_servers // 2)
    max_servers: int | None = None  # default 2 * n_servers
    p_min: int | None = None  # default max(1, p0 - 2)
    p_max: int | None = None  # default min(4 * p0, n_servers)
    growth_model: str = "dell-1950"
    #: flash-crowd stimulus.
    surge_factor: float = 4.0
    #: rack-failure stimulus: how many co-failing servers.
    rack_size: int = 3
    #: seconds after a rack failure before membership declares the nodes
    #: permanently dead and redistributes their ranges (Section 4.9).
    rebuild_delay: float = 45.0
    #: seconds a replica-grow (p decrease) takes across the ring.
    grow_seconds: float = 20.0
    #: seconds background replica drops (p increase) take.
    drop_seconds: float = 4.0
    n_objects_stored: int = 240

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; pick one of {SCENARIOS}"
            )
        known = {"elasticity", "repartition"}
        unknown = [p for p in self.policies if p not in known]
        if unknown or not self.policies:
            raise ValueError(
                f"unknown policies {unknown!r}; pick from {sorted(known)}"
            )
        if self.n_servers < 3:
            raise ValueError("need at least 3 servers")
        if not 1 <= self.p0 <= self.n_servers:
            raise ValueError("need 1 <= p0 <= n_servers")
        if self.min_servers is None:
            self.min_servers = max(2, self.n_servers // 2)
        if self.max_servers is None:
            self.max_servers = 2 * self.n_servers
        if self.p_min is None:
            self.p_min = max(1, self.p0 - 2)
        if self.p_max is None:
            self.p_max = max(self.p0, min(4 * self.p0, self.n_servers))


@dataclass
class ScenarioReport:
    """Outcome of one closed-loop run."""

    config: ScenarioConfig
    stimulus_time: float
    actions: list[ControlAction]
    #: (time, pq, p_store, n_servers) at every control tick.
    timeline: list[tuple[float, int, float, int]]
    snapshots: list[MetricsSnapshot]
    p99_before: float
    p99_crisis: float
    p99_after: float
    log: DelayLog
    #: the run's :class:`~repro.obs.audit.DecisionLog` -- one structured
    #: record per controller tick (actions and holds) with the window
    #: inputs and the exact query index each tick landed at.
    decisions: DecisionLog | None = None

    @property
    def adapted(self) -> bool:
        """Did the control plane change p or the server set mid-run?"""
        return bool(self.actions)

    @property
    def recovered(self) -> bool:
        """Did tail latency come back down after adaptation?"""
        if math.isnan(self.p99_after):
            return False
        if not math.isnan(self.p99_crisis) and self.p99_after < self.p99_crisis:
            return True
        return self.p99_after <= self.config.slo_p99

    def summary(self) -> str:
        cfg = self.config
        lines = [
            f"scenario       : {cfg.scenario}",
            f"servers        : {cfg.n_servers} initially, "
            f"{self.timeline[-1][3] if self.timeline else cfg.n_servers} finally",
            f"p / pq         : {cfg.p0} initially, "
            f"{self.timeline[-1][2]:g} / {self.timeline[-1][1]} finally"
            if self.timeline
            else f"p              : {cfg.p0}",
            f"queries run    : {len(self.log.records)}",
            f"SLO (p99)      : {cfg.slo_p99 * 1000:.0f} ms",
            f"p99 before     : {self.p99_before * 1000:.0f} ms",
            f"p99 crisis     : {self.p99_crisis * 1000:.0f} ms",
            f"p99 after      : {self.p99_after * 1000:.0f} ms",
            f"adapted        : {self.adapted} ({len(self.actions)} actions)",
            f"recovered      : {self.recovered}",
        ]
        if self.actions:
            lines.append("control actions:")
            for act in self.actions:
                lines.append(
                    f"  t={act.time:7.1f}s  [{act.controller}] "
                    f"{act.kind}: {act.detail}"
                )
        return "\n".join(lines)


class DeploymentActuator:
    """:class:`~repro.control.controllers.ControlTarget` over a Deployment.

    Owns the live ``pq`` setting and translates controller intents into
    deployment edits; replica movement for level changes is spread across
    simulated time via scheduled per-node reconfiguration steps.
    """

    def __init__(
        self, deployment: Deployment, sim: Simulation, config: ScenarioConfig
    ) -> None:
        self.deployment = deployment
        self.sim = sim
        self.config = config
        self.pq = max(config.p0, int(math.ceil(deployment.p_store - 1e-9)))
        #: (time, event) trail of reconfiguration lifecycle moments.
        self.reconfig_trail: list[tuple[float, str]] = []

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
        rc = self.deployment.reconfig
        if rc is None or rc.phase != ReconfigPhase.STABLE:
            return False
        if p_new == rc.p_target:
            return False
        status = rc.request_p(p_new)
        span = (
            self.config.drop_seconds
            if status.phase == ReconfigPhase.SHRINKING_REPLICAS
            else self.config.grow_seconds
        )
        names = sorted(node.name for node in rc.ring)
        self.reconfig_trail.append((self.sim.now, f"p->{p_new} begin"))
        for i, name in enumerate(names):
            self.sim.schedule(
                span * (i + 1) / len(names), self._make_node_step(rc, name)
            )
        return True

    def _make_node_step(self, rc, name: str) -> Callable[[], None]:
        def step() -> None:
            rc.node_step(name)
            if rc.phase == ReconfigPhase.STABLE and (
                not self.reconfig_trail
                or not self.reconfig_trail[-1][1].endswith("complete")
            ):
                self.reconfig_trail.append(
                    (self.sim.now, f"p={rc.p_store:g} complete")
                )

        return step

    def add_server(self) -> str:
        model = MODEL_CATALOGUE[self.config.growth_model]
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


def _auto_base_rate(
    models: Sequence[ServerModel], cfg: ScenarioConfig, target_util: float = 0.30
) -> float:
    """Arrival rate putting the initial pool at ~*target_util* utilisation."""
    mean_speed = sum(m.speed(True) for m in models) / len(models)
    mean_fixed = sum(m.fixed_overhead for m in models) / len(models)
    service = mean_fixed + (cfg.dataset_size / cfg.p0) / mean_speed
    return target_util * cfg.n_servers / (cfg.p0 * service)


class ScenarioRunner:
    """Builds and executes one closed-loop scenario."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.sim = Simulation()
        models = hen_testbed(config.n_servers)
        self.deployment = Deployment(
            DeploymentConfig(
                models=models,
                p=config.p0,
                dataset_size=config.dataset_size,
                seed=config.seed,
                store_objects=True,
                n_objects_stored=config.n_objects_stored,
            )
        )
        self.collector = MetricsCollector(window=config.metrics_window).attach(
            self.deployment
        )
        self.actuator = DeploymentActuator(self.deployment, self.sim, config)
        self.decision_log = DecisionLog()
        self.controllers: list[Controller] = self._build_controllers(models)
        for controller in self.controllers:
            controller.decision_log = self.decision_log
        self.base_rate = (
            config.base_rate
            if config.base_rate is not None
            else _auto_base_rate(models, config)
        )
        self.rate_fn, self.max_rate, self.stimulus_time = self._build_workload()
        self.timeline: list[tuple[float, int, float, int]] = []

    # -- assembly ----------------------------------------------------------
    def _build_controllers(self, models: Sequence[ServerModel]) -> list[Controller]:
        cfg = self.config
        out: list[Controller] = []
        if "elasticity" in cfg.policies:
            out.append(
                SLOElasticityController(
                    self.actuator,
                    slo_p99=cfg.slo_p99,
                    min_servers=cfg.min_servers,
                    max_servers=cfg.max_servers,
                    cooldown=2 * cfg.control_interval,
                )
            )
        if "repartition" in cfg.policies:
            planner = self._planner_fn(models) if cfg.use_planner else None
            out.append(
                RepartitionController(
                    self.actuator,
                    slo_p99=cfg.slo_p99,
                    p_min=cfg.p_min,
                    p_max=cfg.p_max,
                    cooldown=3 * cfg.control_interval,
                    planner=planner,
                )
            )
        return out

    def _planner_fn(
        self, models: Sequence[ServerModel]
    ) -> Callable[[MetricsSnapshot], int | None]:
        cfg = self.config
        mean_fixed = sum(m.fixed_overhead for m in models) / len(models)

        def recommend(snapshot: MetricsSnapshot) -> int | None:
            speeds = [
                s.speed
                for s in self.deployment.servers.values()
                if not s.failed
            ]
            if not speeds:
                return None
            rec = recommend_from_metrics(
                snapshot,
                dataset_size=cfg.dataset_size,
                speeds=speeds,
                # the advisor targets *mean* delay; mean ~ half the tail SLO
                target_delay=cfg.slo_p99 / 2.0,
                fixed_overhead=mean_fixed,
            )
            return rec.chosen.p if rec.chosen is not None else None

        return recommend

    def _build_workload(self):
        cfg = self.config
        if cfg.scenario == "flash-crowd":
            trace = FlashCrowdTrace(
                base_rate=self.base_rate,
                surge_factor=cfg.surge_factor,
                surge_start=0.25 * cfg.duration,
                surge_duration=0.30 * cfg.duration,
                decay=0.05 * cfg.duration,
            )
            return trace.rate, trace.peak_rate, trace.surge_start
        if cfg.scenario == "diurnal":
            trace = DiurnalTrace(
                base_rate=self.base_rate,
                period=cfg.duration,
                peak_to_trough=3.0,
                phase=-math.pi / 2.0,  # start at the trough, peak mid-run
            )
            peak = self.base_rate * (1.0 + trace.amplitude)
            return trace.rate, peak, 0.5 * cfg.duration
        # rack-failure: steady load, correlated fail-stop mid-run.
        rate = self.base_rate
        return (lambda t: rate), rate, 0.40 * cfg.duration

    # -- execution ---------------------------------------------------------
    def _fail_rack(self, now: float) -> list[str]:
        """Fail one rack: a contiguous block of machine indices.

        Rack-mates are physically adjacent but scattered around the ring by
        the balanced layout, so coverage survives and the failure fall-back
        (Section 4.4) reroutes their sub-queries.  Returns the victims so
        the rebuild action knows which ranges to give up on later.
        """
        names = sorted(
            self.deployment.servers,
            key=lambda n: int(n.split("-")[-1]),
        )[: self.config.rack_size]
        for name in names:
            self.deployment.fail_node(name, now)
        return names

    def _rebuild_after(self, names: Sequence[str], now: float) -> None:
        """Membership gives up on the rack: redistribute the dead ranges."""
        for name in names:
            if name in self.deployment.servers and self.deployment.servers[name].failed:
                self.deployment.handle_long_term_failure(name, now=now)

    def _tick(self, now: float, query_index: int = -1) -> None:
        self.collector.sample_servers(now, self.deployment.servers)
        snapshot = self.collector.snapshot(now)
        for controller in self.controllers:
            controller.step(now, snapshot, query_index=query_index)
        self.timeline.append(
            (
                now,
                self.actuator.pq,
                self.deployment.p_store,
                len(self.deployment.servers),
            )
        )

    def run(self) -> ScenarioReport:
        """One batched-engine call over the whole trace, stimuli as actions.

        Every stimulus lands between the last query arriving at or before
        its timestamp and the first one after it -- the exact event-time
        semantics of the scenario-matrix runner.  Each action's callback
        pumps the discrete-event simulation up to its instant first, so
        background reconfiguration steps fire at least once per control
        interval (exactly as often as the old per-query loop observed
        them between ticks).
        """
        cfg = self.config
        arrivals = arrivals_from_rate_fn(
            self.rate_fn,
            horizon=cfg.duration,
            max_rate=self.max_rate,
            seed=cfg.seed + 101,
        )
        actions: list[Action] = []

        def at(t: float, fn, scope: str, pass_index: bool = False) -> None:
            if t > cfg.duration:
                # beyond the horizon: the old Simulation loop never ran
                # events past `until=duration` (e.g. a rebuild_delay that
                # outlives the run) -- keep that semantics exactly
                return

            index = bisect_right(arrivals, t)

            def fire(now: float) -> int:
                self.sim.run(until=now)
                if pass_index:
                    fn(now, query_index=index)
                else:
                    fn(now)
                return self.actuator.pq

            actions.append(Action(index=index, time=t, fn=fire, scope=scope))

        if cfg.scenario == "rack-failure":
            victims: list[str] = []

            def fail(now: float) -> None:
                victims.extend(self._fail_rack(now))

            at(self.stimulus_time, fail, "values")
            # the delayed give-up redistributes the dead ranges: membership
            at(
                self.stimulus_time + cfg.rebuild_delay,
                lambda now: self._rebuild_after(victims, now),
                "membership",
            )
        # control ticks can grow/shrink the fleet and pump reconfiguration:
        # conservatively membership-scoped, exactly like the matrix runner
        t = cfg.control_interval
        while t <= cfg.duration:
            at(t, self._tick, "membership", pass_index=True)
            t += cfg.control_interval

        actions.sort(key=lambda a: a.index)
        self.deployment.run_queries_fast(
            arrivals, self.actuator.pq, actions=actions
        )
        self.sim.run(until=cfg.duration)  # drain trailing background work
        return self._report()

    # -- reporting ---------------------------------------------------------
    def _p99_between(self, t0: float, t1: float) -> float:
        delays = [
            r.delay
            for r in self.deployment.log.records
            if t0 <= r.arrival < t1
        ]
        return percentile(delays, 99) if delays else math.nan

    def _report(self) -> ScenarioReport:
        cfg = self.config
        t_s = self.stimulus_time
        crisis_span = 0.25 * cfg.duration
        actions = [a for c in self.controllers for a in c.actions]
        actions.sort(key=lambda a: a.time)
        return ScenarioReport(
            config=cfg,
            stimulus_time=t_s,
            actions=actions,
            timeline=self.timeline,
            snapshots=self.collector.snapshots,
            p99_before=self._p99_between(0.0, t_s),
            p99_crisis=self._p99_between(t_s, t_s + crisis_span),
            p99_after=self._p99_between(
                cfg.duration - 0.20 * cfg.duration, cfg.duration + math.inf
            ),
            log=self.deployment.log,
            decisions=self.decision_log,
        )


def run_scenario(config: ScenarioConfig | None = None, **kwargs) -> ScenarioReport:
    """One-call convenience: build a runner from kwargs and execute it."""
    if config is None:
        config = ScenarioConfig(**kwargs)
    elif kwargs:
        raise TypeError("pass either a config or kwargs, not both")
    return ScenarioRunner(config).run()
