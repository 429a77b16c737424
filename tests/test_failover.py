"""Differential tests for the batched engine's inline failure fall-back.

A query whose schedule touches a failed server is committed by the
engine itself: each dead piece is split around its dead run, or the query
is dropped when the run is wider than ``1/p`` (Section 4.4).  These tests
pin that path to the per-query reference path on every exact kernel, bit
for bit: delay logs, drops, per-server traces in order, scheduler
counters, node statistics (``outstanding`` included), the traffic ledger,
recorded assignments, and the next draws of both rng streams.  Since
every kernel is held to the reference, ``compiled`` and ``exact_numpy``
agree with each other too.
"""

import collections

import pytest

np = pytest.importorskip("numpy")

from test_fastpath import _build, assert_deployments_identical

from repro.core import failures
from repro.core.frontend import FrontEnd
from repro.kernels.compiled import compiled_available
from repro.scenarios import builtin_scenarios
from repro.scenarios.runner import execute_scenario
from repro.sim import PoissonArrivals
from repro.sim import fastpath
from repro.sim.fastpath import Action, run_queries_reference

KERNELS = ["exact_numpy"] + (["compiled"] if compiled_available() else [])


def _ordered_traces(dep):
    return {
        name: [(t.query_id, t.arrival, t.start, t.finish, t.work) for t in s.trace]
        for name, s in dep.servers.items()
    }


@pytest.fixture
def failover_idx(monkeypatch):
    """Arrival indices of the queries the engine sent through the fall-back."""
    seen = []
    commit = fastpath._Engine._failover

    def spy(self, q_i, *args):
        seen.append(q_i)
        return commit(self, q_i, *args)

    monkeypatch.setattr(fastpath._Engine, "_failover", spy)
    return seen


def _assert_same(ref, fast, r_ref, r_fast, failover_idx):
    assert_deployments_identical(ref, fast)
    assert _ordered_traces(ref) == _ordered_traces(fast)
    assert r_ref.latencies.tobytes() == r_fast.latencies.tobytes()
    assert r_ref.query_ids.tobytes() == r_fast.query_ids.tobytes()
    assert r_ref.pqs.tobytes() == r_fast.pqs.tobytes()
    assert (r_ref.completed, r_ref.dropped) == (r_fast.completed, r_fast.dropped)
    assert r_ref.dropped == ref.log.dropped == fast.log.dropped
    # ordinary queries record the selected servers, the reference path
    # the tracing executors in deployment order; fall-back queries follow
    # the reference contract exactly
    assert len(failover_idx) == r_fast.failover
    tracing = {name for name, s in fast.servers.items() if s.keep_trace}
    for a_ref, a_fast in zip(r_ref.assignments, r_fast.assignments):
        assert set(a_ref) == tracing.intersection(a_fast)
    for i in failover_idx:
        assert r_ref.assignments[i] == r_fast.assignments[i]
    assert ref.frontend.rng.random() == fast.frontend.rng.random()
    assert ref.network.rng.random() == fast.network.rng.random()


def _window_actions(dep, dead, arrivals, k1, k2):
    """Fail *dead* before query k1 and recover it before query k2."""

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


def _window_run(dep, kernel, dead, pq, arrivals, k1, k2, extra=()):
    acts = _window_actions(dep, dead, arrivals, k1, k2) + list(extra)
    if kernel is None:
        return run_queries_reference(
            dep, arrivals, pq, record_assignments=True, actions=acts
        )
    return dep.run_queries_fast(
        arrivals, pq, record_assignments=True, actions=acts, kernel=kernel
    )


def _ring_run(dep, first, count):
    """Names of *count* ring-adjacent primary-ring nodes from index *first*."""
    nodes = dep.rings[0].nodes()
    return [nodes[(first + i) % len(nodes)].name for i in range(count)]


@pytest.mark.parametrize("kernel", KERNELS)
class TestInlineFallback:
    def test_wide_dead_run_drops_after_partial_submission(self, kernel, failover_idx):
        # five ring-adjacent nodes cover ~0.31 of the ring > 1/p = 0.25:
        # every rotation of the four query points hits the run, and no
        # replacement can reach across it, so every window query drops
        arrivals = PoissonArrivals(20.0, seed=4).times(300)
        k1, k2 = 100, 220
        ref, fast = _build(n=24, p=4, seed=5), _build(n=24, p=4, seed=5)
        dead = _ring_run(ref, 4, 5)
        r_ref = _window_run(ref, None, dead, 4, arrivals, k1, k2)
        r_fast = _window_run(fast, kernel, dead, 4, arrivals, k1, k2)
        _assert_same(ref, fast, r_ref, r_fast, failover_idx)
        assert r_fast.delegated == 0
        assert r_fast.failover == r_fast.dropped == k2 - k1
        assert np.isnan(r_fast.latencies[k1:k2]).all()
        # pieces popped before the dead one ran and stay accounted
        traced = {t.query_id for s in fast.servers.values() for t in s.trace}
        logged = set(fast.log.column("query_id").tolist())
        assert traced - logged

    def test_adjacent_dead_runs_recurse(self, kernel, monkeypatch, failover_idx):
        # a dead run whose replacement window is almost all dead too: the
        # alive-placement retries often fail, a replacement lands on the
        # second run, and split_failed recurses (some queries then drop)
        calls = collections.Counter()
        replace = failures.replacement_subqueries
        resolve = FrontEnd.resolve_failures

        def count_replace(*args, **kwargs):
            calls["replace"] += 1
            return replace(*args, **kwargs)

        def count_resolve(self, *args, **kwargs):
            calls["resolve"] += 1
            return resolve(self, *args, **kwargs)

        monkeypatch.setattr(failures, "replacement_subqueries", count_replace)
        monkeypatch.setattr(FrontEnd, "resolve_failures", count_resolve)
        arrivals = PoissonArrivals(10.0, seed=21).times(400)
        k1, k2 = 50, 350
        ref, fast = _build(n=24, p=4, seed=5), _build(n=24, p=4, seed=5)
        # runs node-9 .. node-20 and node-22 .. node-11 (wrapping), with
        # tiny alive node-21 between them
        dead = _ring_run(ref, 13, 8) + _ring_run(ref, 22, 4)
        r_ref = _window_run(ref, None, dead, 4, arrivals, k1, k2)
        calls.clear()
        r_fast = _window_run(fast, kernel, dead, 4, arrivals, k1, k2)
        assert calls["replace"] > calls["resolve"] > 0
        _assert_same(ref, fast, r_ref, r_fast, failover_idx)
        assert r_fast.failover > 0
        assert 0 < r_fast.dropped < r_fast.failover

    def test_multi_ring_ring1_node_failed(self, kernel, failover_idx):
        # a dead ring-1 target resolves on the primary ring: the piece
        # passes through to the ring-0 owner of its point, no split
        arrivals = PoissonArrivals(25.0, seed=13).times(300)
        k1, k2 = 60, 260
        ref = _build(n=20, seed=7, n_rings=2)
        fast = _build(n=20, seed=7, n_rings=2)
        dead = [n.name for n in ref.rings[1].nodes()[:2]]
        r_ref = _window_run(ref, None, dead, 5, arrivals, k1, k2)
        r_fast = _window_run(fast, kernel, dead, 5, arrivals, k1, k2)
        _assert_same(ref, fast, r_ref, r_fast, failover_idx)
        assert r_fast.failover > 0
        assert r_fast.dropped == 0

    def test_traces_and_assignments_with_partial_tracing(self, kernel, failover_idx):
        # splits complete; assignments list only tracing executors, in
        # deployment order, exactly as the reference path reconstructs
        arrivals = PoissonArrivals(30.0, seed=11).times(400)
        k1, k2 = 120, 330
        ref, fast = _build(n=16, seed=3), _build(n=16, seed=3)
        for dep in (ref, fast):
            for i, server in enumerate(dep.servers.values()):
                server.keep_trace = i % 3 != 0
        dead = ["node-3", "node-7"]
        r_ref = _window_run(ref, None, dead, 5, arrivals, k1, k2)
        r_fast = _window_run(fast, kernel, dead, 5, arrivals, k1, k2)
        _assert_same(ref, fast, r_ref, r_fast, failover_idx)
        assert r_fast.failover > 0 and r_fast.dropped == 0
        # replacement pieces were sent on top of the planned ones
        assert fast.ledger.query_messages > 5 * len(arrivals)

    def test_drop_only_chunk_is_accounted(self, kernel, failover_idx):
        # an action right after a dropped query cuts a chunk that holds
        # only the drop's submitted pieces and its counters
        arrivals = PoissonArrivals(20.0, seed=4).times(120)
        ref, fast = _build(n=24, p=4, seed=5), _build(n=24, p=4, seed=5)
        dead = _ring_run(ref, 4, 5)
        noop = [
            Action(k, arrivals[k - 1], lambda now: None, "none")
            for k in range(41, 60)
        ]
        r_ref = _window_run(ref, None, dead, 4, arrivals, 40, 80, noop)
        r_fast = _window_run(fast, kernel, dead, 4, arrivals, 40, 80, noop)
        _assert_same(ref, fast, r_ref, r_fast, failover_idx)
        assert r_fast.dropped == 40
        assert sum(r_fast.chunk_sizes) == r_fast.completed


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", ["rack-failure", "crowd-x-rack"])
def test_builtin_failure_scenarios(name, kernel):
    # at this size rack-failure's dead run is wider than 1/p (its window
    # queries drop) and crowd-x-rack's narrower one is split around
    scenario = {
        s.name: s for s in builtin_scenarios(n_servers=16, p=4, duration=30.0)
    }[name]
    ref = execute_scenario(scenario, engine="reference")
    fast = execute_scenario(scenario, engine="batched", kernel=kernel)
    assert fast.batch.delegated == 0
    assert fast.batch.failover > 0
    assert ref.batch.delegated == len(ref.batch.latencies)
    assert ref.batch.latencies.tobytes() == fast.batch.latencies.tobytes()
    assert ref.batch.dropped == fast.batch.dropped
    assert_deployments_identical(ref.deployment, fast.deployment)
    assert ref.deployment.frontend.rng.random() == fast.deployment.frontend.rng.random()
    assert ref.deployment.network.rng.random() == fast.deployment.network.rng.random()
