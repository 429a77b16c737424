"""Tests for the closed-loop presets behind ``repro control``.

``repro control`` runs a builtin battery scenario with a
:class:`~repro.scenarios.spec.ControlSpec` attached
(:func:`~repro.scenarios.control_scenario`) through the one scenario
runner, :func:`~repro.scenarios.execute_scenario`; controllers actuate
through :class:`~repro.control.DeploymentActuator`.
"""

import math

import numpy as np
import pytest

from repro.cluster.deployment import Deployment, DeploymentConfig
from repro.cluster.models import MODEL_CATALOGUE, hen_testbed
from repro.control import DeploymentActuator
from repro.scenarios import (
    CONTROL_SCENARIOS,
    ControlSpec,
    Scenario,
    WorkloadSpec,
    build_deployment,
    control_scenario,
    execute_scenario,
    phase_p99,
)
from repro.scenarios.runner import _vector_rate_fn
from repro.sim.engine import Simulation
from repro.telemetry.listeners import ChunkListener
from repro.telemetry.records import percentile

BOTH = ("elasticity", "repartition")


def small_preset(name="flash-crowd", policies=BOTH, duration=80.0, **control):
    return control_scenario(
        name,
        ControlSpec(policies=policies, **control),
        n_servers=8,
        p=3,
        duration=duration,
        seed=3,
    )


def run(name="flash-crowd", engine="batched", **kw):
    return execute_scenario(small_preset(name, **kw), engine=engine)


def _sim_columns(ex):
    """The delay log's simulated-time columns.  ``scheduling`` holds the
    measured scheduler wall-clock, which scenarios record but never charge
    into the delays."""
    cols = ex.deployment.log.columns()
    return {k: v.copy() for k, v in cols.items() if k != "scheduling"}


class TestWorkloadTraces:
    """The surge and ramp shapes, as the runner's vectorised rate
    functions draw them."""

    @staticmethod
    def rate_fn(**kw):
        fn, peak = _vector_rate_fn(Scenario(name="t", workload=WorkloadSpec(**kw)))
        return (lambda t: float(fn(np.array([t]))[0])), peak

    def test_flash_crowd_phases(self):
        # surge over [100, 150] s with a 10 s decay constant
        rate, peak = self.rate_fn(
            kind="flash-crowd", rate=10.0, duration=400.0, surge_factor=4.0,
            surge_start_frac=0.25, surge_duration_frac=0.125, decay_frac=0.025,
        )
        assert peak == 40.0
        assert rate(0.0) == 10.0
        assert rate(120.0) == 40.0
        # one decay constant after the surge: base + (peak-base)/e
        assert rate(160.0) == pytest.approx(10.0 + 30.0 / math.e)

    def test_flash_crowd_instant_drop(self):
        rate, _ = self.rate_fn(
            kind="flash-crowd", rate=5.0, duration=40.0,
            surge_start_frac=0.25, surge_duration_frac=0.125, decay_frac=0.0,
        )
        assert rate(15.1) == 5.0

    def test_flash_crowd_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="flash-crowd", rate=0.0)
        with pytest.raises(ValueError):
            WorkloadSpec(kind="flash-crowd", rate=1.0, duration=0.0)

    def test_ramp(self):
        rate, peak = self.rate_fn(
            kind="ramp", rate=10.0, end_rate=30.0, duration=100.0
        )
        assert peak == 30.0
        assert rate(0.0) == 10.0
        assert rate(50.0) == pytest.approx(20.0)
        assert rate(999.0) == 30.0

    def test_ramp_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="ramp", rate=1.0, end_rate=2.0, duration=0.0)


class TestDeploymentElasticity:
    def make(self, n=8, p=3):
        return Deployment(
            DeploymentConfig(
                models=hen_testbed(n),
                p=p,
                dataset_size=1e6,
                seed=2,
                store_objects=True,
                n_objects_stored=100,
            )
        )

    def test_add_server_joins_ring_and_downloads(self):
        dep = self.make()
        before_moved = dep.reconfig.bytes_moved
        name = dep.add_server(MODEL_CATALOGUE["dell-1950"], now=5.0)
        assert name in dep.servers
        assert name in dep.stores
        assert dep.n == 9
        dep.rings[0].validate()
        assert dep.reconfig.bytes_moved > before_moved
        # new server can serve queries immediately
        rec = dep.run_query(6.0, 3)
        assert rec is not None

    def test_remove_server_predecessor_absorbs(self):
        dep = self.make()
        ring = dep.rings[0]
        victim = ring.nodes()[3]
        pred = ring.predecessor(victim)
        pred_range = ring.range_of(pred).length
        dep.remove_server(victim.name, now=1.0)
        assert victim.name not in dep.servers
        assert victim.name in dep.retired
        assert dep.n == 7
        ring.validate()
        assert ring.range_of(pred).length > pred_range
        assert dep.run_query(2.0, 3) is not None

    def test_remove_last_node_refused(self):
        dep = self.make(n=8)
        names = list(dep.servers)
        for name in names[:-1]:
            if len(dep.rings[0]) > 1:
                dep.remove_server(name)
        with pytest.raises(ValueError):
            dep.remove_server(next(iter(dep.servers)))

    def test_long_term_failure_redistributes(self):
        dep = self.make()
        victim = dep.rings[0].nodes()[0].name
        dep.fail_node(victim, 1.0)
        assert dep.max_dead_range() > 0.0
        dep.handle_long_term_failure(victim, now=2.0)
        assert dep.max_dead_range() == 0.0
        assert victim not in dep.servers
        dep.rings[0].validate()

    def test_query_listeners_invoked(self):
        """The per-query path feeds chunk listeners one record at a time."""
        dep = self.make()
        seen = []

        class Recorder(ChunkListener):
            def observe_record(self, record, breakdown=None):
                seen.append(record)

        dep.chunk_listeners.append(Recorder())
        dep.run_query(0.0, 3)
        assert len(seen) == 1
        assert seen[0].delay > 0


class TestScenarioRunner:
    def test_flash_crowd_adapts_and_reports(self):
        ex = run()
        assert ex.actions  # the controller acted at least once mid-run
        kinds = {a.kind for a in ex.actions}
        assert kinds & {"add_server", "remove_server", "request_p", "set_pq"}
        assert len(ex.decisions) > 0, "control ticks recorded"
        before, _, after = phase_p99(ex)
        assert not math.isnan(before)
        assert not math.isnan(after)
        assert len(ex.deployment.log) > 100
        assert ex.scenario.name == "flash-crowd"

    def test_phase_p99_windows(self):
        # before the surge, the quarter horizon after it, the last fifth,
        # recomputed record by record
        ex = run()
        w = ex.scenario.workload
        start, horizon = w.surge_start_frac * w.duration, ex.horizon
        records = list(ex.deployment.log.records)

        def p99_between(t0, t1):
            return percentile(
                [r.delay for r in records if t0 <= r.arrival < t1], 99
            )

        assert phase_p99(ex) == (
            p99_between(0.0, start),
            p99_between(start, start + 0.25 * horizon),
            p99_between(0.8 * horizon, math.inf),
        )

    def test_runs_are_deterministic(self):
        # scenarios do not charge measured scheduling wall-clock into the
        # delays, so two runs agree exactly, delays included
        a, b = run(), run()
        assert [(x.time, x.kind, x.detail) for x in a.actions] == [
            (x.time, x.kind, x.detail) for x in b.actions
        ]
        for name, col in _sim_columns(a).items():
            assert np.array_equal(col, b.deployment.log.column(name)), name
        assert phase_p99(a) == phase_p99(b)

    def test_repartition_changes_p_mid_run(self):
        ex = run(policies=("repartition",), duration=100.0)
        assert "request_p" in {a.kind for a in ex.actions}
        pq_levels = set(ex.deployment.log.column("pq").tolist())
        assert len(pq_levels) > 1, "pq never moved"

    def test_rack_failure_scenario_survives(self):
        # Adjacent rack-mates act as one combined hole for the fall-back
        # (Section 4.4, contiguous-run semantics): queries overlapping a
        # hole wider than the replication arc *drop* into the yield
        # accounting, so the bar is honest yield across the crisis plus
        # full service after the rebuild.  Cap p so replacement windows
        # stay wider than the dead ranges.
        ex = run("rack-failure", duration=100.0, p_max=4)
        assert ex.actions
        log = ex.deployment.log
        # membership eventually redistributed the dead ranges
        assert log.yield_fraction() > 0.85
        # after the rebuild the system serves everything again
        rebuild = next(e.at for e in ex.scenario.events if e.action == "rebuild")
        arrivals = log.column("arrival")
        assert (arrivals > rebuild + 5.0).any(), "no queries served after the rebuild"
        assert arrivals[-1] > 0.9 * 100.0

    def test_diurnal_scenario(self):
        ex = run("diurnal", duration=100.0)
        assert ex.actions
        min_servers = max(2, ex.scenario.n_servers // 2)
        assert len(ex.deployment.servers) >= min_servers

    def test_planner_mode_runs(self):
        ex = run(policies=("repartition",), planner=True)
        (controller,) = ex.controllers
        assert controller.planner is not None
        assert len(ex.decisions) > 0  # ran to completion with the advisor in loop

    def test_bad_scenario_rejected(self):
        with pytest.raises(ValueError):
            control_scenario("nope", ControlSpec())

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            small_preset(policies=("magic",))


def _run_record(ex):
    return (
        _sim_columns(ex),
        ex.decisions.columns(),
        [(a.time, a.controller, a.kind, a.detail, a.value) for a in ex.actions],
    )


class TestPresetEngines:
    """Each preset runs byte-identically on both engines."""

    @pytest.mark.parametrize("name", CONTROL_SCENARIOS)
    def test_batched_matches_reference(self, name):
        sc = control_scenario(
            name, ControlSpec(policies=BOTH), n_servers=10, p=3, duration=60.0,
            seed=5,
        )
        log_b, dec_b, act_b = _run_record(execute_scenario(sc, engine="batched"))
        log_r, dec_r, act_r = _run_record(execute_scenario(sc, engine="reference"))
        assert act_b and act_b == act_r
        assert log_b.keys() == log_r.keys()
        for key in log_b:
            assert log_b[key].tobytes() == log_r[key].tobytes(), key
        assert dec_b.keys() == dec_r.keys()
        for key in dec_b:
            assert dec_b[key].tobytes() == dec_r[key].tobytes(), key


class TestActuator:
    def make(self):
        sc = small_preset()
        sim = Simulation()
        act = DeploymentActuator(
            build_deployment(sc), sim, sc.p, grow_seconds=20.0, drop_seconds=4.0
        )
        return act, sim

    def test_pq_floor_follows_p_store(self):
        act, _ = self.make()
        act.set_pq(1)
        assert act.pq == act.deployment.config.p  # clamped to the floor

    def test_request_p_schedules_background_steps(self):
        act, sim = self.make()
        assert act.request_p(act.deployment.config.p + 1)
        assert not act.reconfig_stable
        sim.run(until=act.drop_seconds + 1.0)
        assert act.reconfig_stable
        assert act.p_store == act.deployment.config.p + 1

    def test_request_p_refused_while_unstable(self):
        act, _ = self.make()
        assert act.request_p(act.deployment.config.p + 1)
        assert not act.request_p(act.deployment.config.p + 2)

    def test_safety_cap_reflects_dead_ranges(self):
        act, _ = self.make()
        assert act.p_safety_cap is None
        victim = act.deployment.rings[0].nodes()[0].name
        act.deployment.fail_node(victim, 0.0)
        cap = act.p_safety_cap
        assert cap is not None and cap >= 1
