"""The object-update column of the batched engine.

``run_queries_fast(..., updates=[(index, time, position), ...])`` applies
each update in place -- staged into the bulk chunk for the kernel's
``commit_batch``, or between queries on the per-query path -- instead of
one flush + materialise + mirror refresh action per update.  These tests
hold it to the reference path, bit for bit, on every exact kernel (the CI
kernel job reruns them with ``REPRO_NO_COMPILED_KERNEL=1``): delay logs,
server counters and ordered traces, node statistics (``busy_until``
included), the traffic ledger, recorded assignments, and the next draws
of the rng streams.  Two oracles are used: ``run_queries_reference`` with
the same column (``Deployment.apply_update`` at each slot), and the
pre-column form, one ``"busy"``-scoped action per update.

The replica-choice rule itself (:func:`repro.core.updates.update_replicas`)
is pinned against the sort it replaces.
"""

import math

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from test_fastpath import _build, _trace_sets, assert_deployments_identical

from repro.core.updates import update_replicas
from repro.kernels.compiled import compiled_available
from repro.scenarios import builtin_scenarios
from repro.scenarios.runner import execute_scenario
from repro.scenarios.spec import EventSpec, UpdateSpec
from repro.sim import PoissonArrivals
from repro.sim import fastpath
from repro.sim.fastpath import Action, run_queries_reference

KERNELS = ["exact_numpy"] + (["compiled"] if compiled_available() else [])


# -- the replica rule ----------------------------------------------------------
def _sorted_rule(starts, at, r, alive):
    """The rule as Deployment.apply_update wrote it before the helper."""
    nodes = [i for i in range(len(starts)) if alive is None or alive[i]]
    return sorted(nodes, key=lambda i: (starts[i] - at) % 1.0)[:r]


_NEAR_ONE = [1.0 - k * 2.0**-53 for k in range(1, 4)]


@st.composite
def _ring_and_update(draw):
    starts = draw(
        st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                st.sampled_from([0.0, 2.0**-60] + _NEAR_ONE),
            ),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    starts.sort()
    n = len(starts)
    alive = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n)))
    pick = draw(st.sampled_from(starts))
    at = draw(
        st.one_of(
            st.just(pick),  # exactly on a node start
            st.just(max(0.0, math.nextafter(pick, -1.0))),  # one ulp below
            st.sampled_from(_NEAR_ONE + [0.0]),  # arcs that wrap
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        )
    )
    r = draw(st.integers(min_value=1, max_value=n + 3))  # r may exceed alive
    return starts, at, r, alive


class TestReplicaRule:
    @settings(max_examples=400, deadline=None)
    @given(case=_ring_and_update())
    def test_matches_the_sort_it_replaces(self, case):
        starts, at, r, alive = case
        assert update_replicas(starts, at, r, alive) == _sorted_rule(
            starts, at, r, alive
        )

    @pytest.mark.parametrize(
        "starts, at, r, alive",
        [
            ([0.1, 0.4, 0.7], 0.4, 2, None),  # on a start
            ([0.1, 0.4, 0.7], math.nextafter(0.4, 0.0), 2, None),  # ulp below
            ([0.1, 0.4, 0.7], 0.8, 2, None),  # wraps past the last node
            ([0.1, 0.4, 0.7], 0.5, 7, None),  # r beyond the ring
            ([0.1, 0.4, 0.7, 0.9], 0.3, 3, [True, False, False, True]),
            ([0.1, 0.4, 0.7, 0.9], 0.3, 9, [False, True, False, True]),
        ],
    )
    def test_named_cases(self, starts, at, r, alive):
        assert update_replicas(starts, at, r, alive) == _sorted_rule(
            starts, at, r, alive
        )

    def test_key_tie_at_the_wrap_boundary(self):
        # (start - at) % 1.0 rounds the last node before the wrap and the
        # first one after it to the same key; the sort puts the lower ring
        # index first, which a plain clockwise walk would not
        starts = [0.0, 0.03346092038940529, 0.2948192679408499, 0.9999999999999999]
        at = 0.29481926794084984
        assert (starts[3] - at) % 1.0 == (starts[0] - at) % 1.0
        for alive in (None, [True] * 4):
            for r in (2, 3, 4):
                got = update_replicas(starts, at, r, alive)
                assert got == _sorted_rule(starts, at, r, alive)
        assert update_replicas(starts, at, 2) == [2, 0]

    def test_apply_update_uses_the_rule(self):
        dep = _build(n=12, p=4)
        dep.fail_node("node-3", 0.0)
        nodes = dep.rings[0].nodes()
        alive = [nd.alive for nd in nodes]
        r = max(1, round(dep.n / dep.p_store))
        want = {
            nodes[i].name
            for i in _sorted_rule([nd.start for nd in nodes], 0.93, r, alive)
        }
        dep.apply_update(1.0, at=0.93)
        ran = {name for name, s in dep.servers.items() if s.tasks_run}
        assert ran == want
        assert dep.ledger.update_messages == r


# -- differential harness -----------------------------------------------------
def _ordered_traces(dep):
    return {
        name: [(t.query_id, t.arrival, t.start, t.finish, t.work) for t in s.trace]
        for name, s in dep.servers.items()
    }


def _assert_same(ref, fast, r_ref, r_fast):
    assert_deployments_identical(ref, fast)
    assert _ordered_traces(ref) == _ordered_traces(fast)
    for name, s_ref in ref.servers.items():
        s_fast = fast.servers[name]
        assert s_ref.objects_matched == s_fast.objects_matched
        assert s_ref.busy_time == s_fast.busy_time
    assert r_ref.latencies.tobytes() == r_fast.latencies.tobytes()
    assert r_ref.finishes.tobytes() == r_fast.finishes.tobytes()
    assert r_ref.query_ids.tobytes() == r_fast.query_ids.tobytes()
    assert (r_ref.completed, r_ref.dropped) == (r_fast.completed, r_fast.dropped)
    assert r_ref.updates_applied == r_fast.updates_applied
    assert ref.frontend.rng.random() == fast.frontend.rng.random()
    assert ref.network.rng.random() == fast.network.rng.random()
    assert ref.rng.random() == fast.rng.random()


def _column(arrivals, n_updates, seed, extra=()):
    """A reproducible column: index from the arrival slot, position Zipf-ish."""
    rng = np.random.default_rng(seed)
    n_q = len(arrivals)
    out = []
    for _ in range(n_updates):
        i = int(rng.integers(0, n_q + 1))
        lo = arrivals[i - 1] if i else 0.0
        hi = arrivals[i] if i < n_q else lo + 1.0
        t = float(lo + (hi - lo) * rng.random())
        out.append((i, t, float(rng.random() ** 2)))
    return out + list(extra)


def _update_actions(dep, updates):
    """The pre-column form: one busy-scoped action per update."""
    return [
        Action(i, t, lambda now, t=t, x=x: dep.apply_update(t, at=x) or None, "busy")
        for i, t, x in sorted(updates, key=lambda u: (u[0], u[1]))
    ]


def _pair(kernel, arrivals, pq, updates, mk_actions=None, build=None, **kw):
    """(reference, batched) deployments and results for one column."""
    build = build or (lambda: _build(n=16, p=4, seed=5))
    ref, fast = build(), build()
    acts_ref = mk_actions(ref) if mk_actions else None
    acts_fast = mk_actions(fast) if mk_actions else None
    r_ref = run_queries_reference(
        ref, arrivals, pq, actions=acts_ref, updates=updates, **kw
    )
    r_fast = fast.run_queries_fast(
        arrivals, pq, actions=acts_fast, updates=updates, kernel=kernel, **kw
    )
    return ref, fast, r_ref, r_fast


@pytest.mark.parametrize("kernel", KERNELS)
class TestColumnDifferential:
    def test_matches_reference_and_action_form(self, kernel):
        arrivals = PoissonArrivals(40.0, seed=3).times(500)
        updates = _column(arrivals, 400, seed=1)
        ref, fast, r_ref, r_fast = _pair(kernel, arrivals, 4, updates)
        _assert_same(ref, fast, r_ref, r_fast)
        assert r_fast.updates_applied == 400
        assert r_fast.actions_applied == 0
        assert len(r_fast.chunk_sizes) == 1
        # the column is what one busy action per update did before
        old = _build(n=16, p=4, seed=5)
        r_old = old.run_queries_fast(
            arrivals, 4, actions=_update_actions(old, updates), kernel=kernel
        )
        assert_deployments_identical(old, fast)
        assert _ordered_traces(old) == _ordered_traces(fast)
        assert r_old.latencies.tobytes() == r_fast.latencies.tobytes()

    def test_before_first_and_after_last_query(self, kernel):
        arrivals = PoissonArrivals(30.0, seed=8).times(120)
        n_q = len(arrivals)
        edges = [(0, 0.0, 0.3), (0, 0.001, 0.9), (n_q, arrivals[-1] + 0.5, 0.2)]
        edges += [(n_q + 7, arrivals[-1] + 1.0, 0.6)]
        ref, fast, r_ref, r_fast = _pair(kernel, arrivals, 4, edges)
        _assert_same(ref, fast, r_ref, r_fast)
        # the trailing updates moved queues after the last query, but
        # NodeStats.busy_until still holds what that query's sync read
        moved = [
            name
            for name, s in fast.servers.items()
            if s.trace and s.trace[-1].query_id == -1
        ]
        assert moved
        assert any(
            fast.frontend.stats[name].busy_until != fast.servers[name].busy_until
            for name in moved
        )

    @pytest.mark.parametrize("event", ["fail", "recover", "rebalance"])
    def test_same_index_as_an_action(self, kernel, event):
        arrivals = PoissonArrivals(30.0, seed=12).times(200)
        k, k2 = 80, 140
        t_a = (arrivals[k - 1] + arrivals[k]) / 2.0

        def mk_actions(dep):
            def fire(now):
                if event == "fail":
                    dep.fail_node("node-5", now)
                elif event == "recover":
                    dep.recover_node("node-5", now)
                else:
                    dep.membership.move_cool_to_hot(0)

            acts = [Action(k, t_a, fire, "membership")]
            if event == "recover":
                acts.insert(0, Action(20, arrivals[19], lambda now: dep.fail_node("node-5", now), "values"))
            return acts + [Action(k2, arrivals[k2 - 1], lambda now: None, "none")]

        # same index as the action: earlier, equal and later timestamps,
        # plus one sharing the no-op action's index and time
        updates = [
            (k, t_a - 0.001, 0.11),
            (k, t_a, 0.47),
            (k, t_a + 0.001, 0.83),
            (k2, arrivals[k2 - 1], 0.5),
        ] + _column(arrivals, 60, seed=2)
        ref, fast, r_ref, r_fast = _pair(kernel, arrivals, 4, updates, mk_actions)
        _assert_same(ref, fast, r_ref, r_fast)

        # order matters: the action-form oracle with the merge spelled out
        old = _build(n=16, p=4, seed=5)
        acts = mk_actions(old)
        merged = sorted(
            [(a.index, a.time, 1, j, a) for j, a in enumerate(acts)]
            + [
                (i, t, 0, j, Action(i, t, lambda now, t=t, x=x: old.apply_update(t, at=x) or None, "busy"))
                for j, (i, t, x) in enumerate(sorted(updates, key=lambda u: (u[0], u[1])))
            ],
            key=lambda e: e[:4],
        )
        r_old = old.run_queries_fast(
            arrivals, 4, actions=[e[4] for e in merged], kernel=kernel
        )
        assert_deployments_identical(old, fast)
        assert _ordered_traces(old) == _ordered_traces(fast)
        assert r_old.latencies.tobytes() == r_fast.latencies.tobytes()

    def test_inside_a_failure_window(self, kernel):
        arrivals = PoissonArrivals(25.0, seed=13).times(300)
        k1, k2 = 90, 210
        dead = ("node-3", "node-4", "node-9")

        def mk_actions(dep):
            def fail(now):
                for name in dead:
                    dep.fail_node(name, now)

            def recover(now):
                for name in dead:
                    dep.recover_node(name, now)

            return [
                Action(k1, arrivals[k1 - 1], fail, "values"),
                Action(k2, arrivals[k2 - 1], recover, "values"),
            ]

        updates = _column(arrivals, 300, seed=4)
        ref, fast, r_ref, r_fast = _pair(
            kernel, arrivals, 5, updates, mk_actions, record_assignments=True
        )
        _assert_same(ref, fast, r_ref, r_fast)
        assert r_fast.failover > 0
        # dead replicas skipped, the ledger still charged r per update
        assert fast.ledger.update_messages == 300 * round(16 / 4)

    def test_failed_server_on_an_alive_node(self, kernel):
        # SimServer.fail() alone leaves the ring node alive: the update
        # still picks it as a replica, and skips it at submit time.  (No
        # queries: the reference path cannot route around such a server.)
        updates = [(0, 0.1 * j, 0.05 * j) for j in range(20)]

        def build():
            dep = _build(n=16, p=4, seed=5)
            dep.servers["node-6"].fail()
            return dep

        ref, fast, r_ref, r_fast = _pair(kernel, [], 4, updates, build=build)
        _assert_same(ref, fast, r_ref, r_fast)
        assert fast.rings[0].get("node-6").alive
        assert fast.servers["node-6"].tasks_run == 0
        assert fast.ledger.update_messages == 20 * 4

    def test_two_rings(self, kernel):
        arrivals = PoissonArrivals(30.0, seed=21).times(250)
        updates = _column(arrivals, 200, seed=5)
        ref, fast, r_ref, r_fast = _pair(
            kernel,
            arrivals,
            5,
            updates,
            build=lambda: _build(n=20, p=4, seed=7, n_rings=2),
        )
        _assert_same(ref, fast, r_ref, r_fast)

    def test_partial_tracing_and_assignments(self, kernel):
        arrivals = PoissonArrivals(30.0, seed=11).times(300)
        updates = _column(arrivals, 250, seed=6)

        def build():
            dep = _build(n=16, p=4, seed=3)
            for i, server in enumerate(dep.servers.values()):
                server.keep_trace = i % 3 != 0
            return dep

        ref, fast, r_ref, r_fast = _pair(
            kernel, arrivals, 4, updates, build=build, record_assignments=True
        )
        _assert_same(ref, fast, r_ref, r_fast)
        # an update's record sits at its slot, query_id -1, arrival = time
        upd = [t for s in fast.servers.values() for t in s.trace if t.query_id == -1]
        assert upd and {t.arrival for t in upd} <= {u[1] for u in updates}
        # assignments list each query's servers, update replicas excluded
        assert len(r_fast.assignments) == len(arrivals)
        assert all(len(a) == 4 for a in r_fast.assignments)

    def test_per_query_path_with_admission_and_pq_fn(self, kernel):
        arrivals = PoissonArrivals(60.0, seed=2).times(400)
        updates = _column(arrivals, 400, seed=7)
        ref, fast, r_ref, r_fast = _pair(
            kernel, arrivals, lambda t: 4 if t < 3.0 else 5, updates
        )
        _assert_same(ref, fast, r_ref, r_fast)
        ref, fast, r_ref, r_fast = _pair(
            kernel, arrivals, 4, updates, admission="delay_gated"
        )
        _assert_same(ref, fast, r_ref, r_fast)
        assert r_fast.shed > 0

    def test_chunks_cut_by_the_row_budget(self, kernel, monkeypatch):
        # 16 servers, p=4: r = 4 rows per update.  A 16-query cap gives a
        # 128-row budget; 40 updates before one query cannot fit in it
        monkeypatch.setattr(fastpath, "CHUNK_CAP", 16)
        arrivals = PoissonArrivals(30.0, seed=5).times(200)
        burst = [(100, arrivals[99] + 1e-6 * j, 0.01 * j) for j in range(40)]
        updates = _column(arrivals, 500, seed=8, extra=burst)
        ref, fast, r_ref, r_fast = _pair(kernel, arrivals, 4, updates)
        _assert_same(ref, fast, r_ref, r_fast)
        assert max(r_fast.chunk_sizes) <= 16
        assert sum(r_fast.chunk_sizes) == 200
        # update rows cut chunks shorter than the query cap
        assert min(r_fast.chunk_sizes[:-1]) < 16

    def test_snapshot_restore_mid_run(self, kernel):
        from repro.telemetry.snapshot import capture_deployment, restore_deployment

        arrivals = PoissonArrivals(40.0, seed=11).times(400)
        k = 173
        t_a = arrivals[k - 1]
        updates = _column(arrivals, 300, seed=9, extra=[(k, t_a, 0.5), (k, t_a + 1e-4, 0.7)])
        box = {}
        full = _build(n=16, p=4, seed=3)
        full_result = full.run_queries_fast(
            arrivals,
            4,
            actions=[
                Action(k, t_a, lambda now: box.update(snap=capture_deployment(full)), "none")
            ],
            updates=updates,
            kernel=kernel,
        )
        before = [u for u in updates if (u[0], u[1]) <= (k, t_a)]
        after = [(i - k, t, x) for i, t, x in updates if (i, t) > (k, t_a)]
        assert len(before) + len(after) == len(updates)
        resumed = restore_deployment(box["snap"])
        for server in resumed.servers.values():
            server.keep_trace = True
        tail = resumed.run_queries_fast(
            arrivals[k:], 4, updates=after, kernel=kernel
        )
        assert full_result.latencies[k:].tobytes() == tail.latencies.tobytes()
        assert_deployments_identical(full, resumed)
        for name, s in full.servers.items():
            assert s.objects_matched == resumed.servers[name].objects_matched
        assert _trace_sets(full) == _trace_sets(resumed)

    def test_rejects_negative_index(self, kernel):
        dep = _build(n=8)
        with pytest.raises(ValueError, match="update index"):
            dep.run_queries_fast([0.1], 4, updates=[(-1, 0.0, 0.5)], kernel=kernel)


# -- the scenario runner ------------------------------------------------------
@pytest.fixture
def engine_updates(monkeypatch):
    """The updates= argument every engine call of a scenario received."""
    seen = []
    fast, ref = fastpath.run_queries_fast, fastpath.run_queries_reference

    def spy_fast(*args, **kwargs):
        seen.append(kwargs.get("updates"))
        return fast(*args, **kwargs)

    def spy_ref(*args, **kwargs):
        seen.append(kwargs.get("updates"))
        return ref(*args, **kwargs)

    monkeypatch.setattr(fastpath, "run_queries_fast", spy_fast)
    monkeypatch.setattr(
        "repro.scenarios.runner.run_queries_reference", spy_ref
    )
    return seen


def _scenario(name, **changes):
    base = {
        s.name: s for s in builtin_scenarios(n_servers=16, p=4, duration=30.0)
    }[name]
    return base.with_(**changes)


@pytest.mark.parametrize("kernel", KERNELS)
def test_runner_passes_a_column_when_the_pump_is_idle(kernel, engine_updates):
    scenario = _scenario("zipf-updates")
    ref = execute_scenario(scenario, engine="reference")
    fast = execute_scenario(scenario, engine="batched", kernel=kernel)
    assert [u is not None for u in engine_updates] == [True, True]
    assert fast.batch.actions_applied == 1  # the rebalance event only
    assert fast.updates_applied == ref.updates_applied == len(engine_updates[0])
    assert ref.batch.latencies.tobytes() == fast.batch.latencies.tobytes()
    assert_deployments_identical(ref.deployment, fast.deployment)
    assert ref.deployment.rng.random() == fast.deployment.rng.random()
    assert ref.deployment.network.rng.random() == fast.deployment.network.rng.random()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("pump", ["control", "repartition"])
def test_runner_keeps_update_actions_when_the_pump_runs(kernel, pump, engine_updates):
    # every update instant is also a pump instant that may finish a
    # repartition (p_store, and with it r, changes mid-run)
    updates = UpdateSpec(rate=20.0, zipf_s=1.1)
    if pump == "control":
        scenario = _scenario("crowd-x-rack", updates=updates)
    else:
        scenario = _scenario(
            "steady",
            updates=updates,
            events=(EventSpec(at=10.0, action="repartition", value=3),),
        )
    ref = execute_scenario(scenario, engine="reference")
    fast = execute_scenario(scenario, engine="batched", kernel=kernel)
    assert engine_updates == [None, None]
    assert fast.batch.updates_applied == 0
    assert fast.updates_applied == ref.updates_applied > 0
    assert fast.batch.actions_applied == ref.batch.actions_applied
    assert ref.batch.latencies.tobytes() == fast.batch.latencies.tobytes()
    assert_deployments_identical(ref.deployment, fast.deployment)
