"""Tests for the control plane's observation layer (repro.control.metrics)."""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.control.metrics import (
    LatencyHistogram,
    MetricsCollector,
    SlidingWindow,
    SortedWindow,
)
from repro.sim.server import SimServer
from repro.telemetry.records import QueryRecord


def record(qid, arrival, delay):
    return QueryRecord(query_id=qid, arrival=arrival, finish=arrival + delay)


class TestSlidingWindow:
    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            SlidingWindow(0.0)

    def test_prunes_old_samples(self):
        w = SlidingWindow(10.0)
        for t in range(20):
            w.add(float(t), float(t))
        assert w.values(19.0) == [float(t) for t in range(9, 20)]

    def test_rejects_out_of_order(self):
        w = SlidingWindow(10.0)
        w.add(5.0, 1.0)
        with pytest.raises(ValueError):
            w.add(4.0, 1.0)

    def test_mean_and_percentile(self):
        w = SlidingWindow(100.0)
        for i in range(1, 101):
            w.add(float(i), float(i))
        assert w.mean(100.0) == pytest.approx(50.5)
        assert w.percentile(50, 100.0) == pytest.approx(50.5)

    def test_empty_stats_are_nan(self):
        w = SlidingWindow(5.0)
        assert math.isnan(w.mean())
        assert math.isnan(w.percentile(99))

    def test_rate(self):
        w = SlidingWindow(10.0)
        for t in range(10):
            w.add(float(t), 1.0)
        # 10 samples over the trailing 10-second window.
        assert w.rate(9.0) == pytest.approx(1.0)
        assert SlidingWindow(10.0).rate(5.0) == 0.0

    def test_rate_single_straggler_not_inflated(self):
        # One sample that just arrived must read as ~0.1/s, not 1000/s.
        w = SlidingWindow(10.0)
        w.add(59.999, 0.2)
        assert w.rate(60.0) == pytest.approx(0.1)


def _bits(x):
    return struct.pack("<d", x)


def _assert_windows_agree(inc, ref, q, now):
    """Same percentile bits (NaN for both when empty), rate and size."""
    p_inc = inc.percentile(q, now)
    p_ref = ref.percentile(q, now)
    assert _bits(p_inc) == _bits(p_ref) or (math.isnan(p_inc) and math.isnan(p_ref))
    assert inc.rate(now) == ref.rate(now)
    assert len(inc) == len(ref)


#: clock steps: 0 gives equal timestamps; dyadic steps and durations put
#: samples exactly on the ``now - duration`` prune boundary
window_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "prune", "query"]),
        st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.0]),
        st.sampled_from([0.1, 0.1, 0.2, 0.3])
        | st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        st.sampled_from([0, 1, 50, 90, 99, 99.9, 100]),
    ),
    max_size=80,
)


class TestSortedWindow:
    """The admission window: an incremental order statistic that must read
    exactly what the ``np.partition`` window reads."""

    @given(ops=window_ops, duration=st.sampled_from([0.5, 1.0, 2.5, 4.0]))
    @settings(max_examples=200, deadline=None)
    def test_matches_sliding_window_bit_for_bit(self, ops, duration):
        inc, ref = SortedWindow(duration), SlidingWindow(duration)
        now = 0.0
        for op, dt, value, q in ops:
            now += dt
            if op == "add":
                inc.add(now, value)
                ref.add(now, value)
            elif op == "prune":
                inc.prune(now)
                ref.prune(now)
            else:
                _assert_windows_agree(inc, ref, q, now)
        for q in (0, 50, 99, 100):
            _assert_windows_agree(inc, ref, q, now)
            _assert_windows_agree(inc, ref, q, now + duration)

    def test_empty_window_is_nan(self):
        w = SortedWindow(5.0)
        assert math.isnan(w.percentile(99, 1.0))
        assert w.rate(1.0) == 0.0 and len(w) == 0

    def test_one_sample(self):
        inc, ref = SortedWindow(5.0), SlidingWindow(5.0)
        inc.add(1.0, 0.7)
        ref.add(1.0, 0.7)
        for q in (0, 50, 99, 100):
            _assert_windows_agree(inc, ref, q, 1.0)

    def test_sample_exactly_at_the_boundary_is_kept(self):
        inc, ref = SortedWindow(2.0), SlidingWindow(2.0)
        for t, v in ((1.0, 0.4), (2.0, 0.1), (3.0, 0.9)):
            inc.add(t, v)
            ref.add(t, v)
        _assert_windows_agree(inc, ref, 99, 3.0)  # 3 - 2 == 1.0: kept
        assert len(inc) == 3
        _assert_windows_agree(inc, ref, 99, 3.5)  # 1.0 < 1.5: dropped
        assert len(inc) == 2

    def test_duplicates_and_equal_timestamps(self):
        inc, ref = SortedWindow(1.0), SlidingWindow(1.0)
        for t, v in ((0.5, 0.2), (0.5, 0.2), (0.5, 0.3), (1.0, 0.2), (1.0, 0.1)):
            inc.add(t, v)
            ref.add(t, v)
            _assert_windows_agree(inc, ref, 99, t)
        # pruning removes exactly one copy per dropped sample
        _assert_windows_agree(inc, ref, 50, 1.75)
        assert len(inc) == 2

    def test_percentile_cache_follows_q_adds_and_prunes(self):
        w = SortedWindow(10.0)
        for i in range(1, 101):
            w.add(float(i) / 10.0, float(i))
        p99 = w.percentile(99)
        assert w.percentile(50) == 50.5 and w.percentile(99) == p99
        w.add(10.0, 1000.0)
        assert w.percentile(99) > p99
        w.prune(30.0)
        assert math.isnan(w.percentile(99))

    def test_rejects_out_of_order_and_nan(self):
        w = SortedWindow(10.0)
        w.add(5.0, 1.0)
        with pytest.raises(ValueError):
            w.add(4.0, 1.0)
        with pytest.raises(ValueError):
            w.add(6.0, math.nan)
        with pytest.raises(ValueError):
            SortedWindow(0.0)


class TestLatencyHistogram:
    def test_quantiles_roughly_exact(self):
        h = LatencyHistogram(lo=1e-3, hi=10.0, buckets_per_decade=20)
        for i in range(1, 1001):
            h.record(i / 1000.0)  # uniform on (0, 1]
        assert h.quantile(50) == pytest.approx(0.5, rel=0.1)
        assert h.quantile(99) == pytest.approx(0.99, rel=0.1)

    def test_overflow_underflow(self):
        h = LatencyHistogram(lo=0.01, hi=1.0)
        h.record(0.0001)
        h.record(50.0)
        assert h.total == 2
        assert h.counts[0] == 1 and h.counts[-1] == 1
        assert h.quantile(1) == h.bounds[0]
        assert h.quantile(100) == h.bounds[-1]

    def test_empty_quantile_nan(self):
        assert math.isnan(LatencyHistogram().quantile(50))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            LatencyHistogram(lo=1.0, hi=0.5)


class TestMetricsCollector:
    def test_observe_query_feeds_window_and_histogram(self):
        c = MetricsCollector(window=10.0)
        for i in range(5):
            c.observe_query(record(i, float(i), 0.2))
        assert c.queries_seen == 5
        snap = c.snapshot(4.0)
        assert snap.n_queries == 5
        assert snap.p50 == pytest.approx(0.2)
        assert c.histogram.total == 5

    def test_attach_subscribes_to_listeners(self):
        class Host:
            chunk_listeners = []

        host = Host()
        c = MetricsCollector().attach(host)
        assert host.chunk_listeners == [c]
        # the per-query path feeds subscribers one record at a time
        host.chunk_listeners[0].observe_record(record(1, 0.0, 0.1))
        assert c.queries_seen == 1

    def test_first_sample_has_no_utilisation(self):
        """The first tick only sets the baseline -- it must not report an
        idle pool (a fabricated 0% reading would trigger scale-in)."""
        c = MetricsCollector()
        server = SimServer("s0", speed=100.0)
        server.submit(0.0, 300.0)
        c.sample_servers(0.0, {"s0": server})
        snap = c.snapshot(0.0, record=False)
        assert snap.utilisation == {}
        assert math.isnan(snap.mean_utilisation)
        assert snap.load_imbalance == 1.0

    def test_utilisation_is_interval_delta(self):
        c = MetricsCollector()
        server = SimServer("s0", speed=100.0)
        servers = {"s0": server}
        c.sample_servers(0.0, servers)
        server.submit(0.0, 500.0)  # 5 seconds of work
        c.sample_servers(10.0, servers)
        snap = c.snapshot(10.0, record=False)
        assert snap.utilisation["s0"] == pytest.approx(0.5)
        # no new work in the next interval -> utilisation drops to 0
        c.sample_servers(20.0, servers)
        assert c.snapshot(20.0, record=False).utilisation["s0"] == 0.0

    def test_queue_depth_and_imbalance(self):
        c = MetricsCollector()
        fast = SimServer("fast", speed=100.0)
        slow = SimServer("slow", speed=100.0)
        slow.submit(0.0, 1000.0)  # 10s backlog
        c.sample_servers(0.0, {"fast": fast, "slow": slow})
        slow.submit(1.0, 100.0)
        c.sample_servers(2.0, {"fast": fast, "slow": slow})
        snap = c.snapshot(2.0, record=False)
        assert snap.max_queue_depth > 5.0
        assert snap.load_imbalance == pytest.approx(2.0)  # all load on slow

    def test_snapshot_records_history(self):
        c = MetricsCollector()
        c.observe_query(record(1, 0.0, 0.1))
        c.snapshot(1.0)
        c.snapshot(2.0)
        assert [s.time for s in c.snapshots] == [1.0, 2.0]

    def test_empty_snapshot_is_nan_percentiles(self):
        snap = MetricsCollector().snapshot(0.0, record=False)
        assert snap.n_queries == 0
        assert math.isnan(snap.p99)
        assert snap.qps == 0.0
        assert snap.load_imbalance == 1.0
