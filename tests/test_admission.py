"""Admission control: registry, policies, invariants, bit-identity.

Three layers of hardening for the admission subsystem (ISSUE-10):

* unit tests over the registry/policy vocabulary and the ShedLog
  round-trip through the archive layer;
* hypothesis property tests for the four admission invariants (AIMD
  rate clamping, no sheds below the queue cap, delay_gated honouring
  the SLO, admitted backlog bounded by the cap on any seed);
* differential bit-identity tests: ``admission="none"`` must be
  byte-identical to the pre-admission seed -- BatchResult arrays,
  telemetry columns, and rng stream states, on both engines, on every
  exact kernel, including the ``REPRO_NO_COMPILED_KERNEL`` fallback
  subprocess;
* differential tests of the batched engine's block-booked ``queue-cap``
  shed runs against the reference path's one ``admit`` per arrival:
  per-query arrays, every shed/tick column of the ShedLog, the policy
  counters and the deployment state, with runs cut by an update, a
  tick, an action and the span end, inside a failure window, and off
  under a callable ``pq_fn``.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_fastpath import _build, assert_deployments_identical

from repro._rng import capture_streams
from repro.admission import (
    AIMDAdmission,
    DelayGatedAdmission,
    NoneAdmission,
    ShedLog,
    admission_from_archive,
    build_admission,
    canonical_spec,
    explain_admission,
    get_policy,
    is_known_policy,
    policy_names,
    policy_specs,
    render_admission,
    resolve_admission,
)
from repro.cluster import Deployment, DeploymentConfig, hen_testbed
from repro.kernels.compiled import compiled_available
from repro.scenarios import AdmissionSpec, builtin_scenarios
from repro.sim import PoissonArrivals, fastpath
from repro.sim.fastpath import Action, run_queries_reference


def _deployment(n=8, seed=3):
    return Deployment(
        DeploymentConfig(
            models=hen_testbed(n), p=4, dataset_size=1e6, seed=seed,
            charge_scheduling=False,
        )
    )


# -- registry -------------------------------------------------------------


class TestRegistry:
    def test_policy_names(self):
        names = policy_names()
        assert {"none", "aimd", "delay_gated"} <= set(names)

    def test_aliases_resolve(self):
        assert canonical_spec("accept-all") == "none"
        assert canonical_spec("delay") == "delay_gated"
        assert canonical_spec("delay:slo=2") == "delay_gated:slo=2"

    def test_none_is_passthrough(self):
        policy = get_policy("none")
        assert policy.passthrough
        assert resolve_admission("none") is None
        assert resolve_admission(None) is None
        assert resolve_admission("accept-all") is None

    def test_active_policies_resolve_to_instances(self):
        assert isinstance(resolve_admission("aimd"), AIMDAdmission)
        assert isinstance(resolve_admission("delay_gated"), DelayGatedAdmission)

    def test_spec_parameters(self):
        policy = get_policy("aimd:floor=2,capacity=40,slo=0.5")
        assert policy.slo == 0.5
        assert policy.floor == 2.0
        assert policy.capacity == 40.0

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            get_policy("bogus")
        assert not is_known_policy("bogus")
        assert is_known_policy("aimd:floor=2")

    def test_instance_passthrough(self):
        inst = DelayGatedAdmission()
        assert get_policy(inst) is inst
        assert resolve_admission(inst) is inst
        assert resolve_admission(NoneAdmission()) is None

    def test_policy_specs_rows(self):
        rows = {r["name"]: r for r in policy_specs()}
        assert rows["none"]["passthrough"] is True
        assert rows["aimd"]["passthrough"] is False
        assert all(r["description"] for r in rows.values())

    def test_build_admission_from_spec(self):
        spec = AdmissionSpec(policy="aimd", slo=0.5, floor=2.0, capacity=40.0)
        policy = build_admission(spec)
        assert isinstance(policy, AIMDAdmission)
        assert policy.slo == 0.5
        assert policy.floor == 2.0
        assert build_admission(None) is None
        assert build_admission(AdmissionSpec(policy="none")) is None

    def test_admission_spec_validates(self):
        with pytest.raises(ValueError):
            AdmissionSpec(policy="bogus")
        with pytest.raises(ValueError):
            AdmissionSpec(slo=0.0)
        with pytest.raises(ValueError):
            AdmissionSpec(tick=-1.0)


# -- ShedLog --------------------------------------------------------------


class TestShedLog:
    def test_roundtrip_through_archive(self, tmp_path):
        from repro.telemetry.archive import read_archive, write_archive_columns

        log = ShedLog()
        log.record_shed(1.0, 10, "rate", backlog=0.5, signal=0.0)
        log.record_shed(2.0, 20, "queue-cap", backlog=3.0, signal=1.0)
        log.record_shed(2.5, 21, "rate", backlog=0.2, signal=0.0)
        log.record_tick(3.0, 25, rate=8.0, p99=1.5, backlog_hwm=3.0,
                        accepted=23, shed=3, cap_queries=16.0)
        path = tmp_path / "shed.npz"
        write_archive_columns(
            str(path), log.columns(), meta={"admission": log.meta(policy="aimd")}
        )
        sheds, ticks, meta = admission_from_archive(read_archive(str(path)))
        assert [s.reason for s in sheds] == ["rate", "queue-cap", "rate"]
        assert sheds[1].query_index == 20
        assert ticks[0].accepted == 23 and ticks[0].shed == 3
        assert meta["policy"] == "aimd"

    def test_chunk_rows_are_deltas(self):
        log = ShedLog()
        log.record_chunk(0, 10, 4)
        log.record_chunk(10, 6, 9)  # running shed total 9 -> delta 5
        cols = log.columns()
        assert cols["shedchunk_shed"].tolist() == [4, 5]
        assert cols["shedchunk_accepted"].tolist() == [10, 6]

    def test_no_admission_columns_raises(self, tmp_path):
        from repro.telemetry.archive import read_archive, write_archive_columns

        path = tmp_path / "plain.npz"
        write_archive_columns(
            str(path), {"log_arrival": np.array([1.0])}, meta={}
        )
        with pytest.raises(ValueError):
            admission_from_archive(read_archive(str(path)))

    def test_render_admission(self):
        log = ShedLog()
        log.record_shed(1.0, 5, "p99", backlog=0.4, signal=2.0)
        log.record_tick(2.0, 9, rate=math.nan, p99=2.0, backlog_hwm=0.4,
                        accepted=8, shed=1, cap_queries=12.0)
        sheds, ticks = log.records(log.meta(policy="delay_gated", slo=1.0))
        text = render_admission(sheds, ticks, meta=log.meta(policy="delay_gated"))
        assert "policy=delay_gated" in text
        assert "p99=1" in text
        assert "shed: 1" in text


# -- property tests: the four admission invariants ------------------------

tick_inputs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),  # p99 seen at the tick
        st.floats(min_value=0.0, max_value=20.0),  # backlog before the tick
    ),
    min_size=1,
    max_size=40,
)


class TestAdmissionInvariants:
    @given(ticks=tick_inputs,
           floor=st.floats(min_value=0.5, max_value=5.0),
           capacity=st.floats(min_value=5.0, max_value=200.0))
    @settings(max_examples=60, deadline=None)
    def test_aimd_rate_stays_within_floor_and_capacity(
        self, ticks, floor, capacity
    ):
        policy = AIMDAdmission(
            slo=1.0, floor=floor, capacity=capacity, increase=7.0, decrease=0.5
        )
        now = 0.0
        for p99, backlog in ticks:
            now += 1.0
            # drive the windowed p99 through observed delays and the
            # backlog through an admit, exactly like the engine does
            policy.observe(now, p99)
            policy.admit(0, now, min(backlog, policy.queue_cap * 0.99))
            policy.tick(now)
            assert floor <= policy.current_rate() <= capacity

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           backlogs=st.lists(st.floats(min_value=0.0, max_value=100.0),
                             min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_no_policy_sheds_on_queue_cap_below_the_cap(self, seed, backlogs):
        """Below the cap, a shed can only come from the policy's own gate."""
        for spec in ("aimd:floor=1,capacity=10,rate=1,burst=1",
                     "delay_gated"):
            policy = get_policy(spec)
            now = 0.0
            for backlog in backlogs:
                now += 0.01
                reason = policy.admit(0, now, backlog)
                if backlog < policy.queue_cap:
                    assert reason != "queue-cap"
                else:
                    assert reason == "queue-cap"

    @given(backlogs=st.lists(
        st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=60
    ))
    @settings(max_examples=60, deadline=None)
    def test_accept_all_none_policy_never_sheds(self, backlogs):
        policy = NoneAdmission()
        now = 0.0
        for backlog in backlogs:
            now += 0.5
            assert policy.admit(0, now, backlog) is None
        assert policy.shed == 0
        assert policy.accepted == len(backlogs)

    @given(delays=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=50
    ))
    @settings(max_examples=60, deadline=None)
    def test_delay_gated_never_sheds_while_p99_within_slo(self, delays):
        policy = DelayGatedAdmission(slo=1.0, window=100.0)
        now = 0.0
        for d in delays:  # every observed delay is <= the 1.0s SLO
            now += 0.1
            policy.observe(now, d)
        for _ in range(10):
            now += 0.1
            reason = policy.admit(0, now, 0.5 * policy.queue_cap)
            assert reason is None
        assert policy.shed == 0

    @given(delays=st.lists(
        st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=50
    ))
    @settings(max_examples=60, deadline=None)
    def test_delay_gated_sheds_iff_windowed_p99_over_slo(self, delays):
        policy = DelayGatedAdmission(slo=1.0, window=100.0)
        now = 0.0
        for d in delays:
            now += 0.1
            policy.observe(now, d)
        p99 = policy.window.percentile(99, now)
        reason = policy.admit(0, now, 0.0)
        assert (reason == "p99") == (p99 > 1.0)

    @given(seed=st.integers(min_value=0, max_value=1000),
           spec=st.sampled_from([
               "aimd:slo=0.5,cap_multiple=2",
               "aimd:slo=1,cap_multiple=4,floor=5,capacity=60",
               "delay_gated:slo=0.5,cap_multiple=2",
               "delay_gated:slo=1,cap_multiple=1",
           ]))
    @settings(max_examples=25, deadline=None)
    def test_admitted_backlog_never_exceeds_cap_on_any_seed(self, seed, spec):
        """Engine-level: under overload, accepted queries always found the
        busiest-server backlog below the configured cap (>= cap sheds)."""
        policy = get_policy(spec)
        dep = _deployment(n=6, seed=seed % 7 + 1)
        arrivals = PoissonArrivals(120.0, seed=seed).times(300)
        result = dep.run_queries_fast(arrivals, 4, admission=policy)
        assert policy.max_admitted_backlog < policy.queue_cap
        assert result.shed == policy.shed
        assert result.completed == policy.accepted


# -- differential bit-identity: admission="none" is the seed --------------


def _run_batch(engine, admission, seed=5, kernel=None):
    dep = _deployment(seed=seed)
    arrivals = PoissonArrivals(80.0, seed=seed).times(400)
    if engine == "reference":
        result = run_queries_reference(dep, arrivals, 4, admission=admission)
    else:
        result = dep.run_queries_fast(
            arrivals, 4, admission=admission, kernel=kernel
        )
    return dep, result


def _assert_batches_identical(a, b, pol_a=None, pol_b=None):
    """Same per-query arrays and counts; with the two runs' policies, also
    the same shed/tick log and policy counters."""
    assert a.latencies.tobytes() == b.latencies.tobytes()
    assert a.finishes.tobytes() == b.finishes.tobytes()
    assert a.query_ids.tobytes() == b.query_ids.tobytes()
    assert a.pqs.tobytes() == b.pqs.tobytes()
    assert (a.completed, a.dropped, a.shed) == (b.completed, b.dropped, b.shed)
    if pol_a is None and pol_b is None:
        return
    cols_a, cols_b = pol_a.log.columns(), pol_b.log.columns()
    assert cols_a.keys() == cols_b.keys()
    for name in cols_a:
        if name.startswith("shedchunk_"):  # engine granularity
            continue
        assert cols_a[name].dtype == cols_b[name].dtype, name
        assert cols_a[name].tobytes() == cols_b[name].tobytes(), name
    assert pol_a.log.meta()["reasons"] == pol_b.log.meta()["reasons"]
    assert (pol_a.accepted, pol_a.shed) == (pol_b.accepted, pol_b.shed)
    assert pol_a.max_admitted_backlog == pol_b.max_admitted_backlog
    assert pol_a.shed == a.shed


class TestNonePolicyBitIdentity:
    @pytest.mark.parametrize("engine", ["batched", "reference"])
    def test_engine_arrays_and_streams_identical(self, engine):
        from repro._rng import reset_default_streams

        reset_default_streams()
        base_dep, base = _run_batch(engine, admission=None)
        base_streams = capture_streams()
        reset_default_streams()
        dep, run = _run_batch(engine, admission="none")
        assert run.shed == 0
        _assert_batches_identical(base, run)
        assert dep.log.delays() == base_dep.log.delays()
        assert capture_streams() == base_streams

    def test_exact_kernels_identical(self):
        from repro.kernels import kernel_specs

        _, base = _run_batch("batched", admission=None)
        for row in kernel_specs():
            if not row["available"] or row["exact"] is not True:
                continue
            _, run = _run_batch("batched", admission="none", kernel=row["name"])
            assert run.shed == 0, row["name"]
            _assert_batches_identical(base, run)

    def test_scenario_archives_identical(self, tmp_path):
        """Scenario runs with an explicit policy="none" AdmissionSpec are
        column-identical to runs with no admission block at all."""
        from repro.scenarios import run_scenario_spec
        from repro.telemetry.archive import archive_diff, read_archive

        scens = {
            s.name: s
            for s in builtin_scenarios(n_servers=10, duration=8.0, p=4, seed=2)
        }
        for name in ("steady", "sustained-overload"):
            scenario = scens[name]
            bare = dataclasses.replace(scenario, admission=None)
            spec = AdmissionSpec(policy="none")
            explicit = dataclasses.replace(scenario, admission=spec)
            path_a = tmp_path / f"{name}-bare.npz"
            path_b = tmp_path / f"{name}-none.npz"
            ra = run_scenario_spec(bare, archive_path=str(path_a))
            rb = run_scenario_spec(explicit, archive_path=str(path_b))
            assert rb.shed == 0 and ra.shed == 0
            assert ra.p99_delay == rb.p99_delay
            diff = archive_diff(
                read_archive(str(path_a)), read_archive(str(path_b))
            )
            assert diff["gated_identical"], diff

    def test_no_compiled_kernel_subprocess_identical(self):
        """The pure-python fallback build agrees byte for byte too."""
        code = """
import json, sys
from repro.cluster import Deployment, DeploymentConfig, hen_testbed
from repro.sim import PoissonArrivals

def run(admission):
    dep = Deployment(DeploymentConfig(
        models=hen_testbed(8), p=4, dataset_size=1e6, seed=5,
        charge_scheduling=False,
    ))
    arrivals = PoissonArrivals(80.0, seed=5).times(300)
    res = dep.run_queries_fast(arrivals, 4, admission=admission)
    return res.latencies.tobytes().hex(), res.shed

base, _ = run(None)
none_run, shed = run("none")
print(json.dumps({"identical": base == none_run, "shed": shed}))
"""
        env = {
            "REPRO_NO_COMPILED_KERNEL": "1",
            "PYTHONPATH": "src",
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        }
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120,
            cwd=Path(__file__).resolve().parents[1], env=env,
        )
        assert proc.returncode == 0, proc.stderr
        import json

        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        assert payload == {"identical": True, "shed": 0}


# -- active policies: engine parity + explain reconstruction --------------


class TestActivePolicyBehaviour:
    @pytest.mark.parametrize("spec", [
        "aimd:slo=0.5,cap_multiple=2,floor=20,capacity=300",
        "delay_gated:slo=0.5,cap_multiple=2",
    ])
    def test_engines_agree_under_overload(self, spec):
        pol_fast, pol_ref = get_policy(spec), get_policy(spec)
        _, fast = _run_batch("batched", admission=pol_fast)
        _, ref = _run_batch("reference", admission=pol_ref)
        assert fast.shed > 0
        _assert_batches_identical(fast, ref, pol_fast, pol_ref)

    def test_shed_queries_consume_no_rng_and_no_log_rows(self):
        dep, run = _run_batch(
            "batched", admission=get_policy("delay_gated:slo=0.2,cap_multiple=1")
        )
        assert run.shed > 0
        assert dep.log.n_records == run.completed
        # shed slots: NaN latency, -1 query id, pq recorded
        nan_slots = int(np.isnan(run.latencies).sum())
        assert nan_slots == run.shed + run.dropped
        assert int((run.query_ids == -1).sum()) == run.shed + run.dropped

    def test_explain_checks_pass_on_archived_run(self, tmp_path):
        from repro.scenarios import run_scenario_spec
        from repro.telemetry.archive import read_archive

        scens = {
            s.name: s
            for s in builtin_scenarios(n_servers=10, duration=8.0, p=4, seed=2)
        }
        scenario = scens["sustained-overload"]
        scenario = dataclasses.replace(
            scenario,
            admission=dataclasses.replace(scenario.admission, policy="aimd"),
        )
        path = tmp_path / "aimd.npz"
        result = run_scenario_spec(scenario, archive_path=str(path))
        assert result.shed > 0
        archive = read_archive(str(path))
        sheds, ticks, meta = admission_from_archive(archive)
        assert len(sheds) == result.shed
        assert meta["policy"] == "aimd"
        checks = explain_admission(archive)
        assert checks and all(ok for _, ok, _, _ in checks)
        # every shed decision carries its exact arrival-stream index
        assert all(0 <= s.query_index < result.offered for s in sheds)

    def test_goodput_ordering_on_sustained_overload(self):
        """The ISSUE-10 acceptance bar: under 2x overload both active
        policies beat accept-all on goodput AND p99."""
        from repro.scenarios import run_scenario_spec

        scens = {
            s.name: s
            for s in builtin_scenarios(n_servers=10, duration=10.0, p=4, seed=2)
        }
        base = scens["sustained-overload"]
        results = {}
        for policy in ("none", "aimd", "delay_gated"):
            scenario = dataclasses.replace(
                base, admission=dataclasses.replace(base.admission, policy=policy)
            )
            results[policy] = run_scenario_spec(scenario)
        for policy in ("aimd", "delay_gated"):
            assert results[policy].goodput > results["none"].goodput
            assert results[policy].p99_delay < results["none"].p99_delay


# -- queue-cap shed runs: block booking == one admit per arrival -----------


class TestShedRunBookkeeping:
    @pytest.mark.parametrize("spec", [
        "aimd:slo=0.25,cap_multiple=1,floor=5,capacity=60,rate=30,burst=2",
        "delay_gated:slo=0.25,cap_multiple=1",
    ])
    def test_shed_run_equals_per_arrival_admits(self, spec):
        per_arrival, block = get_policy(spec), get_policy(spec)
        for pol in (per_arrival, block):
            pol.observe(0.5, 0.1)
            pol.observe(0.6, 0.9)
            pol.admit(0, 0.7, 0.0)
        times = [0.8, 0.8, 0.85, 1.0, 1.3]
        backlogs = [2.0, 2.0, 1.95, 1.8, 1.5]
        for k, (t, b) in enumerate(zip(times, backlogs)):
            assert per_arrival.admit(1 + k, t, b) == "queue-cap"
        block.shed_run(1, times, backlogs)
        cols_a, cols_b = per_arrival.log.columns(), block.log.columns()
        for name in cols_a:
            assert cols_a[name].tobytes() == cols_b[name].tobytes(), name
        assert per_arrival.log.meta() == block.log.meta()
        assert vars(per_arrival).keys() == vars(block).keys()
        for name, value in vars(per_arrival).items():
            if name not in ("log", "window"):
                assert value == vars(block)[name], name
        # the next tick sees the same high-water mark, counts and window
        per_arrival.tick(1.5, 6)
        block.tick(1.5, 6)
        assert (
            per_arrival.log.columns()["adm_backlog_hwm"].tobytes()
            == block.log.columns()["adm_backlog_hwm"].tobytes()
        )

    def test_record_sheds_equals_record_shed(self):
        one, bulk = ShedLog(), ShedLog()
        one.record_shed(0.5, 3, "rate", 0.1, 0.0)
        bulk.record_shed(0.5, 3, "rate", 0.1, 0.0)
        rows = [(1.0, 9.0, 0.5), (1.5, 8.5, 0.25), (2.0, 8.0, math.nan)]
        for k, (t, b, sig) in enumerate(rows):
            one.record_shed(t, 7 + k, "queue-cap", b, sig)
        times, backlogs, signals = (list(col) for col in zip(*rows))
        bulk.record_sheds(7, times, "queue-cap", backlogs, signals)
        cols_a, cols_b = one.columns(), bulk.columns()
        for name in cols_a:
            assert cols_a[name].dtype == cols_b[name].dtype, name
            assert cols_a[name].tobytes() == cols_b[name].tobytes(), name
        assert one.meta() == bulk.meta()


# -- queue-cap shed runs on the batched engine == the reference path -----

KERNELS = ["exact_numpy"] + (["compiled"] if compiled_available() else [])

#: every shed of these runs is queue-cap or the policy's own gate
RUN_SPECS = [
    "aimd:slo=0.25,cap_multiple=1,floor=5,capacity=60,rate=30,burst=2",
    "delay_gated:slo=0.25,cap_multiple=1,slo_multiple=2",
]


@pytest.fixture
def shed_runs(monkeypatch):
    """``(start, stop, length)`` of every shed run the batched engine booked."""
    seen = []
    book = fastpath._Engine._shed_run

    def spy(self, start, stop, maxb, pq):
        n = book(self, start, stop, maxb, pq)
        seen.append((start, stop, n))
        return n

    monkeypatch.setattr(fastpath._Engine, "_shed_run", spy)
    return seen


def _arrivals(n=600, rate=200.0):
    return PoissonArrivals(rate, seed=5).times(n)


def _shed_run_pair(spec, kernel, arrivals, pq=4, actions=None, updates=None):
    """Batched and reference runs of one overload setting, each with its own
    deployment and policy; *actions* builds the actions from (dep, policy)."""
    out = []
    for engine in ("batched", "reference"):
        dep = _build(n=12, seed=3)
        policy = get_policy(spec)
        acts = actions(dep, policy) if actions is not None else None
        kw = dict(record_assignments=True, actions=acts, admission=policy,
                  updates=updates)
        if engine == "batched":
            result = dep.run_queries_fast(arrivals, pq, kernel=kernel, **kw)
        else:
            result = run_queries_reference(dep, arrivals, pq, **kw)
        out.append((dep, result, policy))
    return out


def _assert_shed_pair_identical(pair):
    (dep_f, fast, pol_f), (dep_r, ref, pol_r) = pair
    assert fast.shed > 0
    _assert_batches_identical(fast, ref, pol_f, pol_r)
    assert_deployments_identical(dep_r, dep_f)
    # shed slots record no server on either engine; otherwise the
    # reference lists the executors, the batched engine the selection
    assert len(fast.assignments) == len(ref.assignments) == len(fast.arrivals)
    assert [set(a) for a in fast.assignments] == [set(a) for a in ref.assignments]


def _long_run(arrivals, spec, kernel, shed_runs, min_len=6):
    """A shed run of at least *min_len* arrivals on the plain workload."""
    _shed_run_pair(spec, kernel, arrivals)
    runs = [r for r in shed_runs if r[2] >= min_len and r[0] > 50]
    assert runs, "the workload lost its long shed runs"
    shed_runs.clear()
    return runs[0]


def _tick(policy, arrivals, k):
    """An admission tick before query *k*, as the scenario runner compiles it."""

    def fire(now):
        policy.tick(now, query_index=k)

    return Action(k, arrivals[k - 1], fire, "none")


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("spec", RUN_SPECS)
class TestShedRunDifferential:
    def test_runs_with_ticks(self, spec, kernel, shed_runs):
        arrivals = _arrivals()
        pair = _shed_run_pair(
            spec, kernel, arrivals,
            actions=lambda dep, pol: [
                _tick(pol, arrivals, k) for k in range(40, len(arrivals), 40)
            ],
        )
        assert sum(n for _, _, n in shed_runs) > 100
        assert pair[0][2].log.n_ticks == len(range(40, len(arrivals), 40))
        _assert_shed_pair_identical(pair)

    def test_run_ends_at_an_update_index(self, spec, kernel, shed_runs):
        arrivals = _arrivals()
        start, _, n = _long_run(arrivals, spec, kernel, shed_runs)
        cut = start + n // 2
        updates = [(cut, arrivals[cut - 1], 0.3), (cut, arrivals[cut - 1], 0.8)]
        pair = _shed_run_pair(spec, kernel, arrivals, updates=updates)
        assert (start, cut, cut - start) in shed_runs
        assert pair[0][1].updates_applied == 2
        _assert_shed_pair_identical(pair)

    def test_run_ends_at_a_tick(self, spec, kernel, shed_runs):
        arrivals = _arrivals()
        start, _, n = _long_run(arrivals, spec, kernel, shed_runs)
        cut = start + n // 2
        pair = _shed_run_pair(
            spec, kernel, arrivals,
            actions=lambda dep, pol: [_tick(pol, arrivals, cut)],
        )
        assert (start, cut, cut - start) in shed_runs
        _assert_shed_pair_identical(pair)

    def test_run_ends_at_an_exact_time_action(self, spec, kernel, shed_runs):
        arrivals = _arrivals()
        start, _, n = _long_run(arrivals, spec, kernel, shed_runs)
        cut = start + n // 2
        pair = _shed_run_pair(
            spec, kernel, arrivals,
            actions=lambda dep, pol: [
                Action(cut, arrivals[cut - 1], lambda now: None, "busy")
            ],
        )
        assert (start, cut, cut - start) in shed_runs
        _assert_shed_pair_identical(pair)

    def test_run_ends_at_the_span_end(self, spec, kernel, shed_runs):
        arrivals = _arrivals()
        start, _, n = _long_run(arrivals, spec, kernel, shed_runs)
        arrivals = arrivals[: start + n // 2]
        pair = _shed_run_pair(spec, kernel, arrivals)
        end = len(arrivals)
        assert (start, end, end - start) in shed_runs
        _assert_shed_pair_identical(pair)

    def test_run_inside_a_failure_window(self, spec, kernel, shed_runs):
        arrivals = _arrivals()
        k1, k2 = 100, 400

        def window(dep, pol):
            names = [node.name for node in dep.rings[0].nodes()[:2]]

            def fail(now):
                for name in names:
                    dep.fail_node(name, now)

            def recover(now):
                for name in names:
                    dep.recover_node(name, now)

            return [
                Action(k1, arrivals[k1 - 1], fail, "values"),
                Action(k2, arrivals[k2 - 1], recover, "values"),
                _tick(pol, arrivals, 250),
            ]

        pair = _shed_run_pair(spec, kernel, arrivals, actions=window)
        assert pair[0][1].failover > 0
        assert any(k1 <= s and s + n <= k2 and n > 1 for s, _, n in shed_runs)
        _assert_shed_pair_identical(pair)

    def test_callable_pq_fn_stays_per_arrival(self, spec, kernel, shed_runs):
        arrivals = _arrivals()
        pair = _shed_run_pair(
            spec, kernel, arrivals, pq=lambda now: 4 if now < 1.5 else 6
        )
        assert shed_runs == []
        _assert_shed_pair_identical(pair)
