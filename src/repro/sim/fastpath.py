"""The batched query execution path over a :class:`~repro.cluster.Deployment`.

``Deployment.run_query`` costs milliseconds of interpreter time per query:
it re-syncs every node's statistics, rebuilds owner views, and walks the
rotation sweep heap with a Python estimator closure.  PR 2 replaced the
sweep with a precomputed :class:`~repro.core.covertable.CoverTable`, which
made *scheduling* nearly free but left ~70 us/query of per-query Python in
the accounting loop (reserve/submit/EWMA).  This module removes that loop:

* **Always-fresh mirrors.**  Every quantity scheduling depends on lives in
  flat arrays ordered by ring position: ``busy`` (live server queues) and
  ``speed`` (EWMA speed estimates), shadowed by plain Python lists so the
  per-query closed-form updates cost scalar float arithmetic, not numpy
  scalar boxing.  The next query's estimates are therefore always exact --
  freshness is what makes the batched schedule provably bit-identical.

* **Chunked accounting.**  The expensive half of the old loop -- writing
  ``SimServer``/``NodeStats`` objects, building ``QueryRecord``s, feeding
  listeners and the traffic ledger -- commutes into per-server reductions.
  Queries accumulate into flat chunk buffers; a chunk is flushed with a
  handful of numpy ops (``np.add.at`` preserves per-server float addition
  order, so even busy-time sums are bit-exact) whenever an action fires,
  the buffer cap is reached, or the batch ends.  The topological cut
  points of the arrival order are exactly the points where some consumer
  could observe intermediate state.

* **Pluggable scheduling kernels.**  The per-query decision itself --
  estimate evaluation, the precomputed rotation sweep, the final
  assignment -- is delegated to a :class:`~repro.kernels.base.SweepKernel`
  selected by the ``kernel=`` parameter.  The default ``exact_numpy`` is
  this engine's original inline code and stays the bit-identical oracle;
  ``compiled`` runs the same arithmetic as one fused C call, and
  ``approx_topk`` trades a documented deviation bound for a smaller sweep
  (see :mod:`repro.kernels`).  Accounting, mirrors, actions, and the
  failure fall-back are shared across kernels.

* **The bulk commit seam.**  Between two cut points (exact-time actions,
  failure windows, the chunk cap) the engine hands the kernel a whole
  span of queries at once through
  :meth:`~repro.kernels.base.SweepKernel.commit_batch`: the kernel runs
  sweep *and* commit -- widths, reserve, queue submit, EWMA observation,
  write-through -- for every query of the chunk, advancing the live
  mirrors in place and returning the per-sub-query rows in bulk, which
  :meth:`_Engine._flush_bulk` turns into the same numpy reductions the
  buffered path uses.  The default ``commit_batch`` is the reference
  python loop (so every kernel takes the seam); the compiled kernel
  fuses the whole span into one C call, which removes the last
  per-query python from the hot path.  Failure windows and per-query
  ``pq_fn`` callables stay on the inline per-query loop, where the
  failure fall-back and its rng draw order live.

* **Inline failure fall-back.**  A query whose schedule touches a failed
  server is committed by :meth:`_Engine._failover`, still inside the
  inline loop and off the kernel's own decision: it builds the query's
  sub-queries with the reference plan code, reserves every planned
  sub-query (dead ones included), and walks the pieces as a LIFO stack,
  resolving each dead piece with the reference
  :meth:`~repro.core.frontend.FrontEnd.resolve_failures` (Section 4.4:
  split around the dead run, or drop the query when the run is wider
  than ``1/p``).  Executed pieces land in the same chunk buffers as any
  other sub-query, so a failure window costs no flush, no materialise
  and no heap re-schedule.

* **Exact-time action queue.**  :class:`Action` schedules a callback to run
  *between two specific queries* (before ``arrival_times[index]``).  The
  engine flushes and materialises full object state before each callback --
  so a mid-batch failure, membership change, or control tick sees
  precisely the state the per-query reference path would have produced, and
  is visible to the very next query.

* **Admission at the arrival seam.**  An active admission policy
  (:mod:`repro.admission`) decides each arrival on the inline per-query
  path, before any scheduling work or rng draw.  The backlog it sees is
  a running max of the ``busy`` mirror (set at span start and after
  updates and fail-overs, raised at every write-through), and its p99
  window is an incremental sorted list, so an admitted query costs
  O(log W).  After a ``queue-cap`` shed the engine finds, with numpy,
  the maximal run of following arrivals the cap also sheds (the mirrors
  stand still while nothing is admitted) and books the whole run in one
  step through ``AdmissionPolicy.shed_run``.

* **The update column.**  Object updates (Section 4.1, Fig 7.4) are a
  stimulus column, not actions: ``updates=`` holds ``(index, time,
  position)`` triples, each applied exactly as
  ``Deployment.apply_update(time, at=position)`` immediately before
  ``arrival_times[index]``.  The engine finds the replicas with the
  shared :func:`~repro.core.updates.update_replicas` rule and advances
  each replica's queue on the ``busy`` mirror, writing one ``(g, service,
  work, finish, start)`` row per replica into the chunk buffers beside the
  query rows -- so per-server sums keep the reference addition order and
  an update-heavy span stays one fused chunk.  On the bulk seam the rows
  are staged for ``commit_batch`` (CSR offsets per query, cut to the
  chunk's row budget); the per-query path applies them between queries.

The batched path is only landable because it is *provably the same system*:
for equal seeds it produces bit-identical per-query server sets, latencies,
traces, statistics, and scheduler work counters as the per-query reference
path -- ``tests/test_fastpath.py`` holds that line.  The failure fall-back
follows ``Deployment.run_query`` statement for statement and calls the
same ``split_failed`` code, so the rng-consuming splits stay the single
source of truth and draw in the same order.

Requires the deployment's front-end to run the default configuration
(``method="heap"``, no range adjustment, no splitting); other configurations
raise and should use :meth:`Deployment.run_queries`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Callable, Optional, Sequence

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

from ..core.adjust import PlannedSub
from ..core.covertable import CoverTableCache, require_numpy
from ..core.failures import FailureCoverageError
from ..core.ids import cw_distance, frac
from ..core.updates import update_replicas
from ..kernels.base import (
    CommitBuffers,
    CommitPlan,
    PqEntry,
    SweepKernel,
    SweepState,
)
from ..kernels.registry import get_kernel
from ..obs.profiler import resolve_profile
from ..telemetry.listeners import ChunkArrays
from .server import TaskRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.deployment import Deployment

__all__ = [
    "Action",
    "ACTION_SCOPES",
    "BatchResult",
    "run_queries_fast",
    "run_queries_reference",
]


#: Queries buffered before a chunk is force-flushed (bounds buffer memory;
#: the flush itself is O(chunk) numpy work, so larger is mildly better).
#: Also the span size of one bulk ``commit_batch`` call, so chunk cuts are
#: identical between the buffered and bulk paths.
CHUNK_CAP = 8192

#: Minimum span length for which a python-commit kernel is routed through
#: the bulk seam; shorter spans use the inline per-query loop (results are
#: bit-identical either way -- the bulk machinery just carries fixed
#: per-span costs that want amortising).  Kernels with
#: ``fused_commit = True`` (one C call per span) always take the seam.
BULK_MIN_SPAN = 32

#: First block a queue-cap shed run probes (the block doubles while every
#: arrival in it is still over the cap).
SHED_PROBE = 32

#: How much of the deployment an action callback may have touched, from the
#: engine's point of view -- picks the cheapest sufficient mirror refresh.
ACTION_SCOPES = ("none", "busy", "values", "membership")


@dataclass
class Action:
    """A callback scheduled between two specific queries of a batch.

    Fires immediately before ``arrival_times[index]`` (an index of
    ``len(arrival_times)`` or beyond fires after the last query).  The
    engine flushes pending accounting and materialises exact object state
    first, so ``fn`` observes precisely what the reference path would show
    at that point in the arrival order.  ``fn`` receives ``time`` and may
    return an ``int`` to change the partitioning level ``pq`` for
    subsequent queries (honoured when ``pq_fn`` is not a callable).

    ``scope`` declares what ``fn`` may have mutated so the engine can
    refresh its mirrors minimally:

    * ``"none"``       -- nothing the engine mirrors (e.g. pure logging);
    * ``"busy"``       -- server queues/work counters and the stored
      partitioning level (e.g. object updates, set-pq with a possible
      in-flight repartition completing under the sim pump);
    * ``"values"``     -- per-server values: queues, failure flags, speed
      estimates, counters (e.g. fail/recover, estimate perturbation);
    * ``"membership"`` -- anything, including ring membership (default).
    """

    index: int
    time: float
    fn: Callable[[float], Optional[int]]
    scope: str = "membership"

    def __post_init__(self) -> None:
        if self.scope not in ACTION_SCOPES:
            raise ValueError(
                f"unknown action scope {self.scope!r}; pick one of {ACTION_SCOPES}"
            )
        if self.index < 0:
            raise ValueError("action index must be >= 0")


@dataclass
class BatchResult:
    """Array-backed account of one batched run.

    ``latencies`` holds NaN for dropped queries (failure fall-back could not
    re-cover a dead range); ``query_ids`` holds -1 there.
    """

    arrivals: "np.ndarray"
    latencies: "np.ndarray"
    finishes: "np.ndarray"
    query_ids: "np.ndarray"
    pqs: "np.ndarray"
    completed: int
    dropped: int
    #: per-query server name tuples, populated when record_assignments=True.
    assignments: Optional[list[tuple[str, ...]]]
    #: queries scheduled through the cover table vs. run by the per-query
    #: reference path (always 0 on the batched path, every query on
    #: :func:`run_queries_reference`).
    fast_scheduled: int
    delegated: int
    wall_seconds: float
    #: completed queries per flushed accounting chunk (cut at actions, the
    #: buffer cap, and batch end).
    chunk_sizes: list[int] = field(default_factory=list)
    #: actions fired from the exact-time queue during this run.
    actions_applied: int = 0
    #: the run's :class:`~repro.obs.profiler.PhaseProfiler` when profiling
    #: was enabled (``profile=`` / ``REPRO_PROFILE``); None otherwise.
    profile: Optional[object] = None
    #: queries refused by the admission controller (``latencies`` holds
    #: NaN and ``query_ids`` -1 there, like drops -- but sheds never
    #: reached the scheduler, and the per-shed reasons live in the
    #: controller's :class:`~repro.admission.records.ShedLog`).
    shed: int = 0
    #: failure-window queries the batched engine resolved itself
    #: (Section 4.4 split or drop), completed or dropped; also counted in
    #: ``fast_scheduled``.
    failover: int = 0
    #: entries of the ``updates=`` column applied during this run.
    updates_applied: int = 0

    def completed_latencies(self) -> "np.ndarray":
        return self.latencies[~np.isnan(self.latencies)]

    def mean_latency(self) -> float:
        done = self.completed_latencies()
        return float(done.mean()) if done.size else float("nan")

    def percentile_latency(self, q: float) -> float:
        done = self.completed_latencies()
        return float(np.percentile(done, q)) if done.size else float("nan")


def _update_column(updates) -> tuple[list[int], list[float], list[float]]:
    """Normalise an ``updates=`` column to parallel (index, time, position)
    lists, ordered by (index, time) -- stably, so equal pairs keep the
    caller's order."""
    rows = [(int(i), float(t), float(x)) for i, t, x in (updates or ())]
    for row in rows:
        if row[0] < 0:
            raise ValueError("update index must be >= 0")
    rows.sort(key=lambda row: (row[0], row[1]))
    return [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]


def _updates_due(idx: list[int], times: list[float], k: int, index, time) -> int:
    """Advance cursor *k* past every update ordered before an action at
    (*index*, *time*): a lower index, or the same index at an equal or
    earlier time (an update precedes a same-time action)."""
    n = len(idx)
    while k < n and (idx[k] < index or (idx[k] == index and times[k] <= time)):
        k += 1
    return k


def _sorted_actions(actions) -> list[Action]:
    acts = list(actions or ())
    for a in acts:
        if not isinstance(a, Action):
            raise TypeError(f"actions must be Action instances, got {a!r}")
    # stable: equal indices keep caller order
    acts.sort(key=lambda a: a.index)
    return acts


class _Engine:
    """One batched run: mirrors, chunk buffers, the action queue, and a
    pluggable :class:`~repro.kernels.base.SweepKernel` doing the per-query
    scheduling decision."""

    def __init__(
        self,
        deployment: "Deployment",
        arrivals: "np.ndarray",
        pq_fn,
        record_assignments: bool,
        actions: Sequence[Action],
        kernel: SweepKernel,
        profiler=None,
        admission=None,
        updates=None,
    ) -> None:
        self.dep = deployment
        #: admission controller, or None (the default).  Like the
        #: profiler, every site below guards on ``is not None``, and the
        #: bulk-seam gate requires None -- so an admission-free run takes
        #: exactly the pre-admission code path, bit for bit.
        self.admission = admission
        #: phase profiler, or None (the default).  Every instrumentation
        #: site below guards on ``is not None`` so an unprofiled run makes
        #: no profiler calls at all, and profiling only ever reads the
        #: monotonic clock -- results stay bit-identical either way.
        self.prof = profiler
        self.fe = deployment.frontend
        self.cfg = deployment.config
        self.network = deployment.network
        self.ledger = deployment.ledger
        self.log = deployment.log
        self.servers = deployment.servers
        self.charge = self.cfg.charge_scheduling
        self.dataset = self.fe.dataset_size
        self.fe_fixed = self.fe.config.fixed_overhead
        self.alpha = self.fe.config.ewma_alpha
        self.one_minus_alpha = 1.0 - self.alpha
        self.pq_fn = pq_fn
        self.pq_override: Optional[int] = None
        self.record_assignments = record_assignments
        self.actions = actions
        self.kernel = kernel
        #: the update column, ordered by (index, time); ``ui`` is the first
        #: update not applied yet.
        self.upd_idx, self.upd_t, self.upd_pos = _update_column(updates)
        self.ui = 0
        self.updates_applied = 0
        #: pre-update queue values of servers an update moved after the
        #: last committed query (qid ``stale_qid``): NodeStats.busy_until
        #: still holds what that query's sync read.
        self.stale: dict[int, float] = {}
        self.stale_qid = -1

        if deployment.cover_tables is None:
            deployment.cover_tables = CoverTableCache()
        self.cache: CoverTableCache = deployment.cover_tables

        n_q = len(arrivals)
        self.arrivals = arrivals
        self.arr_l = arrivals.tolist()
        self.latencies = np.full(n_q, np.nan, dtype=np.float64)
        self.finishes = np.full(n_q, np.nan, dtype=np.float64)
        self.query_ids = np.full(n_q, -1, dtype=np.int64)
        self.pqs = np.zeros(n_q, dtype=np.int64)
        self.assignments: Optional[list[tuple[str, ...]]] = (
            [] if record_assignments else None
        )

        self.completed = 0
        self.dropped = 0
        self.shed_n = 0
        self.fast_scheduled = 0
        self.failover = 0
        self.actions_applied = 0
        self.chunk_sizes: list[int] = []

        #: NodeStats.busy_until reservation of the *last* fast query -- the
        #: one piece of front-end state the reference path leaves holding a
        #: prediction rather than a synced server value.
        self.last_res: Optional[list[tuple[int, float]]] = None
        self.st_sync_pending = False

        #: per-pq bulk-commit out buffers (stable objects, so compiled
        #: kernels can cache raw pointers against them for the whole run).
        self.commit_bufs: dict[int, CommitBuffers] = {}
        self.bulk_cap = min(CHUNK_CAP, max(1, n_q))

        self._build()
        self._reset_buffers()

    # -- mirrors -----------------------------------------------------------
    def _build(self) -> None:
        """(Re)build every mirror from live objects (membership scope)."""
        dep, fe = self.dep, self.fe
        self.rings = dep.rings
        nodes_flat = []
        self.ring_lo: list[int] = []
        self.ring_hi: list[int] = []
        self.ring_starts: list[list[float]] = []
        for ring in self.rings:
            nodes = ring.nodes()
            self.ring_lo.append(len(nodes_flat))
            nodes_flat.extend(nodes)
            self.ring_hi.append(len(nodes_flat))
            self.ring_starts.append([nd.start for nd in nodes])
        self.nodes_flat = nodes_flat
        self.names_flat = [nd.name for nd in nodes_flat]
        #: global index of a node name (failure replacements name nodes)
        self.g_of = {name: g for g, name in enumerate(self.names_flat)}
        self.stats_flat = [fe.stats_for(nd) for nd in nodes_flat]
        self.servers_flat = [dep.servers[nd.name] for nd in nodes_flat]
        self.single_ring = len(self.rings) == 1
        self.trace_any = any(s.keep_trace for s in dep.servers.values())
        self.multi_lane = any(s.cores != 1 for s in self.servers_flat)

        n = len(nodes_flat)
        self.busy_l = [s.busy_until for s in self.servers_flat]
        self.spd_l = [st.speed_estimate for st in self.stats_flat]
        self.srv_speed_l = [s.speed for s in self.servers_flat]
        self.srv_fixed_l = [s.fixed_overhead for s in self.servers_flat]
        self.failed_l = [s.failed for s in self.servers_flat]
        self.busy = np.array(self.busy_l, dtype=np.float64)
        self.spd = np.array(self.spd_l, dtype=np.float64)
        self.est = np.empty(n, dtype=np.float64)
        # absolute per-server accumulator mirrors (flushed chunks land here,
        # materialise copies them back onto the objects)
        self.bt = np.array([s.busy_time for s in self.servers_flat])
        self.om = np.array([s.objects_matched for s in self.servers_flat])
        self.tasks = np.array(
            [s.tasks_run for s in self.servers_flat], dtype=np.int64
        )
        self.cc = np.array(
            [st.completed for st in self.stats_flat], dtype=np.int64
        )
        self.ls = np.array([st.last_seen for st in self.stats_flat])
        self.touched = np.zeros(n, dtype=bool)

        #: the kernel-facing view of the mirrors; a fresh instance per
        #: membership epoch so kernels can cache derived data against it.
        self.state = SweepState(
            self.busy,
            self.est,
            self.fe_fixed,
            self.ring_lo,
            self.ring_hi,
            self.ring_starts,
        )
        self.kernel.bind(self.state)

        #: the kernel-facing commit constants + mirrors (paired with
        #: ``state``: a fresh instance per membership epoch).
        self.plan = CommitPlan(
            self.arrivals,
            self.arr_l,
            self.spd,
            self.srv_fixed_l,
            self.srv_speed_l,
            self.alpha,
            self.one_minus_alpha,
            self.dataset,
        )

        self.tables: dict[int, PqEntry] = {}
        self.any_failed = any(s.failed for s in dep.servers.values())
        self.p_store_cur = dep.p_store
        if self.upd_idx:
            # an update charges each replica update_cost seconds of work
            # through SimServer.submit: work = cost * speed, service =
            # fixed + work / speed (same float ops, per server)
            cost = self.cfg.update_cost
            self.upd_work_l = [cost * v for v in self.srv_speed_l]
            self.upd_svc_l = [
                f + w / v
                for f, w, v in zip(
                    self.srv_fixed_l, self.upd_work_l, self.srv_speed_l
                )
            ]
            self.upd_work = np.array(self.upd_work_l)
            self.upd_svc = np.array(self.upd_svc_l)
            self._refresh_update_rule()
        self.qid_last = fe._query_counter
        self.it_acc = 0
        self.est_acc = 0
        self.qs_acc = 0
        self.wall_acc = 0.0
        self.led_qmsg = 0
        self.led_rmsg = 0

    def _refresh_busy(self) -> None:
        """Re-read server queues *and* execution counters (a "busy"-scoped
        action submits work, which moves busy_time/tasks_run/objects too).
        Also re-reads p_store: any action may pump the discrete-event
        simulation, which can complete an in-flight repartition."""
        self.busy_l = [s.busy_until for s in self.servers_flat]
        self.busy[:] = self.busy_l
        self.bt[:] = [s.busy_time for s in self.servers_flat]
        self.om[:] = [s.objects_matched for s in self.servers_flat]
        self.tasks[:] = [s.tasks_run for s in self.servers_flat]
        self.p_store_cur = self.dep.p_store
        if self.upd_idx:
            self._refresh_update_rule()

    def _refresh_update_rule(self) -> None:
        """Re-derive what the replica rule reads: r, ring-0 liveness."""
        self.upd_r = max(1, round(len(self.nodes_flat) / self.p_store_cur))
        alive = [nd.alive for nd in self.nodes_flat[: self.ring_hi[0]]]
        #: ring-0 liveness flags, None while every node is alive
        self.alive0 = None if all(alive) else alive
        #: no alive primary node: an update is a no-op (not even charged)
        self.upd_noop = not any(alive)

    def _refresh_values(self) -> None:
        self._refresh_busy()
        self.spd_l = [st.speed_estimate for st in self.stats_flat]
        self.spd[:] = self.spd_l
        self.failed_l = [s.failed for s in self.servers_flat]
        self.cc[:] = [st.completed for st in self.stats_flat]
        self.ls[:] = [st.last_seen for st in self.stats_flat]
        for entry in self.tables.values():
            np.divide(entry.wd, self.spd, out=entry.Q)
        self.any_failed = any(s.failed for s in self.dep.servers.values())
        self.p_store_cur = self.dep.p_store

    # -- chunk buffers -----------------------------------------------------
    def _reset_buffers(self) -> None:
        #: per sub-query rows ``(g, service, work, finish, start)``,
        #: flattened across the chunk's queries in submit order.
        self.subs: list[tuple] = []
        #: per query rows ``(q_i, now, pq, qid, rtt, sched, total, mw, ms)``
        #: of the completed queries; a dropped query leaves sub rows only.
        self.qrows: list[tuple] = []
        #: trace segments ``(qid, arrival, n_rows)`` covering ``subs`` in
        #: order; only kept when some server records a trace.
        self.tsegs: list[tuple] = []
        #: ``[lo, hi)`` ranges of ``subs`` holding update rows (they count
        #: as server tasks, not as NodeStats completions).
        self.upd_rows: list[tuple[int, int]] = []

    def _flush(self) -> None:
        """Account the buffered chunk with array reductions + one record pass."""
        # qs_acc counts every query committed since the last flush, dropped
        # ones included; with no query pending, update rows may still be
        if self.qs_acc == 0 and not self.subs:
            return
        prof = self.prof
        if prof is not None:
            prof.begin("flush")
        if self.subs:
            sg_t, ssv_t, swk_t, sf_t, sst_t = zip(*self.subs)
            sg = np.array(sg_t, dtype=np.intp)
            # np.add.at applies unbuffered, element-by-element in index
            # order, so repeated-server float sums keep the reference
            # addition order.
            np.add.at(self.bt, sg, np.array(ssv_t))
            np.add.at(self.om, sg, np.array(swk_t))
            counts = np.bincount(sg, minlength=len(self.tasks))
            self.tasks += counts
            sf = np.array(sf_t)
            if self.upd_rows:
                qmask = np.ones(len(sg), dtype=bool)
                for lo, hi in self.upd_rows:
                    qmask[lo:hi] = False
                self._account_queries(sg[qmask], sf[qmask])
            else:
                self._account_queries(sg, sf, counts)
            self.touched[sg] = True

        nq = len(self.qrows)
        if nq:
            qidx_t, qnow_t, qpq_t, qqid_t, qrtt_t, qsched_t, qtotal_t, qmw_t, qms_t = (
                zip(*self.qrows)
            )
            qidx = np.array(qidx_t, dtype=np.intp)
            qnow = np.array(qnow_t)
            qtotal = np.array(qtotal_t)
            fr = qnow + qtotal
            delay = fr - qnow
            self.latencies[qidx] = delay
            self.finishes[qidx] = fr
            qqid = np.array(qqid_t, dtype=np.int64)
            qpq = np.array(qpq_t, dtype=np.int64)
            self.query_ids[qidx] = qqid
            self.pqs[qidx] = qpq

            self._emit_records(
                qqid,
                qnow,
                fr,
                qpq,
                np.array(qrtt_t),
                np.array(qsched_t),
                qtotal,
                np.array(qmw_t),
                np.array(qms_t),
            )
            self.chunk_sizes.append(nq)
        if self.trace_any and self.subs:
            self._emit_trace(self.tsegs, sg_t, sst_t, sf_t, swk_t)

        dep = self.dep
        fe = self.fe
        fe.total_iterations += self.it_acc
        fe.total_estimates += self.est_acc
        fe.queries_scheduled += self.qs_acc
        fe._query_counter = self.qid_last
        self.it_acc = self.est_acc = self.qs_acc = 0
        dep.scheduling_wallclock += self.wall_acc
        self.wall_acc = 0.0
        # accumulate through the ledger's own methods so the per-message
        # byte constants live in exactly one place (network.py)
        self.ledger.record_query(self.led_qmsg)
        self.ledger.record_result(self.led_rmsg)
        self.led_qmsg = self.led_rmsg = 0

        self._reset_buffers()
        if prof is not None:
            prof.end()

    def _account_queries(self, sg, sf, counts=None) -> None:
        """NodeStats completions + last_seen of a chunk's query rows."""
        self.cc += (
            counts if counts is not None else np.bincount(sg, minlength=len(self.cc))
        )
        # per-server finishes are monotone, so last-in-order == max
        np.maximum.at(self.ls, sg, sf)

    def _emit_records(
        self,
        qqid,
        qnow,
        fr,
        qpq,
        qrtt,
        qsched,
        qtotal,
        qmw,
        qms,
    ) -> None:
        """Land one chunk's per-query telemetry as columns.

        All ``q*`` arguments are equal-length per-query float64/int64
        arrays; they append to the deployment's columnar logs in a
        handful of array copies -- zero per-query python on listener-free
        runs.  Chunk listeners receive the arrays directly (one
        ``observe_chunk`` call per flushed chunk).  Shared by the buffered
        flush (tuple rows) and the bulk flush (kernel out buffers), so the
        two paths cannot drift in what they record.
        """
        dep = self.dep
        nq = len(qnow)
        log_start = self.log.n_records
        self.log.append_columns(qqid, qnow, fr, qpq, qpq, qsched)
        dep.breakdowns.append_columns(qsched, qrtt, qmw, qms, qtotal)
        if self.admission is not None:
            self.admission.log.record_chunk(log_start, nq, self.admission.shed)

        if not dep.chunk_listeners:
            return
        prof = self.prof
        if prof is not None:
            prof.begin("listeners")
        chunk = ChunkArrays(
            query_ids=qqid,
            arrivals=qnow,
            finishes=fr,
            pqs=qpq,
            subqueries=qpq,
            scheduling=qsched,
            network=qrtt,
            queueing=qmw,
            service=qms,
            total=qtotal,
        )
        for chunk_listener in dep.chunk_listeners:
            chunk_listener.observe_chunk(chunk, log_start, nq)
        if prof is not None:
            prof.end()

    def _emit_trace(self, segs, sg_l, sst_l, sf_l, swk_l) -> None:
        """Append one chunk's trace records to the tracing servers.

        ``s*`` are flat per-sub-query sequences in submit order; *segs*
        covers them in order as ``(qid, arrival, n_rows)`` runs -- ``pq``
        rows at ``now + rtt/2`` for an ordinary query, one row per executed
        piece of a failure-window query (replacements arrive at
        ``detect_at + rtt/2``).  Exactly the records ``SimServer.submit``
        appends on the reference path.
        """
        servers_flat = self.servers_flat
        off = 0
        for qid, arr_t, n_rows in segs:
            for j in range(off, off + n_rows):
                server = servers_flat[sg_l[j]]
                if server.keep_trace:
                    server.trace.append(
                        TaskRecord(qid, arr_t, sst_l[j], sf_l[j], swk_l[j])
                    )
            off += n_rows

    def _materialise(self) -> None:
        """Flush, then write exact object state (servers + node stats)."""
        prof = self.prof
        if prof is not None:
            prof.begin("materialise")
        self._flush()
        self.fe._query_counter = self.qid_last
        idx = np.nonzero(self.touched)[0]
        if idx.size:
            for g in idx.tolist():
                server = self.servers_flat[g]
                server._lane_busy_until[0] = self.busy_l[g]
                server.busy_time = float(self.bt[g])
                server.tasks_run = int(self.tasks[g])
                server.objects_matched = float(self.om[g])
                st = self.stats_flat[g]
                st.speed_estimate = self.spd_l[g]
                st.completed = int(self.cc[g])
                st.last_seen = float(self.ls[g])
            self.touched[:] = False
        # NodeStats.busy_until parity: after the last fast query, every node
        # reads the live server value except that query's reservations,
        # which keep the reserve prediction (reference-path behaviour).
        if self.st_sync_pending and self.last_res is not None:
            for g, st in enumerate(self.stats_flat):
                st.busy_until = self.busy_l[g]
            if self.stale_qid == self.qid_last:
                # updates after that query moved these queues; its sync
                # read them before
                for g, val in self.stale.items():
                    self.stats_flat[g].busy_until = val
            for g, val in self.last_res:
                self.stats_flat[g].busy_until = val
            self.st_sync_pending = False
        if prof is not None:
            prof.end()

    # -- actions -----------------------------------------------------------
    def _fire(self, action: Action) -> None:
        prof = self.prof
        if prof is not None:
            prof.begin("actions")
        self._materialise()
        new_pq = action.fn(action.time)
        if new_pq is not None:
            self.pq_override = int(new_pq)
        if action.scope == "membership":
            self._build()
        elif action.scope == "values":
            self._refresh_values()
        elif action.scope == "busy":
            self._refresh_busy()
        self.actions_applied += 1
        if prof is not None:
            prof.end()

    # -- tables ------------------------------------------------------------
    def _table_for(self, pq: int) -> PqEntry:
        entry = self.tables.get(pq)
        if entry is None:
            prof = self.prof
            if prof is not None:
                prof.begin("tables")
            table = self.cache.get(self.rings, pq)
            for lo, hi, rt in zip(self.ring_lo, self.ring_hi, table.ring_tables):
                if self.names_flat[lo:hi] != [
                    n.name for n in rt.nodes
                ]:  # pragma: no cover
                    raise RuntimeError(
                        "ring structure changed mid-batch; schedule membership "
                        "edits through the action queue, not around it"
                    )
            entry = PqEntry(table, pq, self.dataset, self.spd)
            self.tables[pq] = entry
            if prof is not None:
                prof.end()
        return entry

    # -- the hot loop ------------------------------------------------------
    def run(self) -> BatchResult:
        """Drive the batch as spans between cut points.

        A span is a maximal run of queries with no exact-time action
        inside it.  Spans outside failure windows (and without a
        per-query ``pq_fn`` callable) go through the kernel's bulk
        sweep+commit seam (:meth:`_run_span_bulk`); everything else takes
        the inline per-query path (:meth:`_run_span`), which owns the
        failure fall-back.  Both produce bit-identical state.
        """
        wall_start = time.perf_counter()
        n_q = len(self.arr_l)
        acts = self.actions
        n_act = len(acts)
        ai = 0
        pq_callable = callable(self.pq_fn)
        upd_idx, upd_t = self.upd_idx, self.upd_t
        pos = 0
        while pos < n_q:
            while ai < n_act and acts[ai].index <= pos:
                act = acts[ai]
                self._apply_updates(
                    _updates_due(upd_idx, upd_t, self.ui, act.index, act.time)
                )
                self._fire(act)
                ai += 1
            end = n_q if ai >= n_act else min(n_q, acts[ai].index)
            if (
                not pq_callable
                and not self.any_failed
                and self.admission is None
                and (self.kernel.fused_commit or end - pos >= BULK_MIN_SPAN)
            ):
                pos = self._run_span_bulk(pos, end)
            else:
                pos = self._run_span(pos, end)
        while ai < n_act:
            act = acts[ai]
            self._apply_updates(
                _updates_due(upd_idx, upd_t, self.ui, act.index, act.time)
            )
            self._fire(act)
            ai += 1
        self._apply_updates(len(upd_idx))
        self._materialise()

        wall = time.perf_counter() - wall_start
        if self.prof is not None:
            self.prof.add_wall(wall)
        return BatchResult(
            arrivals=self.arrivals,
            latencies=self.latencies,
            finishes=self.finishes,
            query_ids=self.query_ids,
            pqs=self.pqs,
            completed=self.completed,
            dropped=self.dropped,
            assignments=self.assignments,
            fast_scheduled=self.fast_scheduled,
            delegated=0,
            wall_seconds=wall,
            chunk_sizes=self.chunk_sizes,
            actions_applied=self.actions_applied,
            profile=self.prof,
            shed=self.shed_n,
            failover=self.failover,
            updates_applied=self.updates_applied,
        )

    # -- updates -----------------------------------------------------------
    def _replicas(self, at: float) -> list[int]:
        """Servers an update at ring position *at* runs on (ring 0 comes
        first in the global order, so its ring indices are global)."""
        reps = update_replicas(self.ring_starts[0], at, self.upd_r, self.alive0)
        if self.any_failed:
            failed_l = self.failed_l
            reps = [g for g in reps if not failed_l[g]]
        return reps

    def _apply_updates(self, stop: int) -> None:
        """Apply column entries ``ui .. stop`` one by one into the chunk
        buffers, exactly as ``Deployment.apply_update`` submits them.

        The per-query path and the gaps between spans use this; the bulk
        seam stages its updates into the kernel's buffers instead
        (:meth:`_stage_updates`).
        """
        k = self.ui
        if k >= stop:
            return
        prof = self.prof
        if prof is not None:
            prof.begin("updates")
        if self.stale_qid != self.qid_last:
            self.stale = {}
            self.stale_qid = self.qid_last
        stale_set = self.stale.setdefault
        busy_l = self.busy_l
        busy_np = self.busy
        svc_l = self.upd_svc_l
        work_l = self.upd_work_l
        subs = self.subs
        for k in range(k, stop):
            self.updates_applied += 1
            if self.upd_noop:
                continue
            t = self.upd_t[k]
            lo = len(subs)
            for g in self._replicas(self.upd_pos[k]):
                b = busy_l[g]
                stale_set(g, b)
                start = t if t > b else b
                f = start + svc_l[g]
                busy_l[g] = f
                busy_np[g] = f
                subs.append((g, svc_l[g], work_l[g], f, start))
            if len(subs) > lo:
                self.upd_rows.append((lo, len(subs)))
                if self.trace_any:
                    self.tsegs.append((-1, t, len(subs) - lo))
            self.ledger.record_update(self.upd_r)
        self.ui = stop
        if prof is not None:
            prof.end()
        if len(subs) >= CHUNK_CAP * self.cfg.p:
            self._flush()

    def _stage_updates(self, pos: int, nq: int, pq: int, bufs: CommitBuffers):
        """Stage the updates of the bulk chunk starting at query *pos*.

        The chunk takes every pending update that precedes one of its
        queries.  Update rows share the buffers' ``rows`` budget with the
        query rows, so the chunk is cut short when they would overflow it.
        Writes each replica's ``(g, service, work)`` and the update time
        into the sub-query buffers at the rows the kernel will fill (the
        kernel replaces the time with the start), and the per-query CSR
        offsets into ``bufs.upd_off``.  Returns ``(nq, staged, rows)``:
        *staged* lists ``(query offset, time, replicas)`` per update of the
        chunk (``None`` when there is none), *rows* the buffer positions of
        their rows (``None`` when there is none).
        """
        idx_l = self.upd_idx
        k = self.ui
        n_upd = len(idx_l)
        if k >= n_upd or idx_l[k] >= pos + nq:
            return nq, None, None
        nq_max = nq
        budget = bufs.rows
        t_l = self.upd_t
        pos_l = self.upd_pos
        noop = self.upd_noop
        staged: list[tuple[int, float, list[int]]] = []
        g_flat: list[int] = []
        while k < n_upd and idx_l[k] < pos + nq:
            q = idx_l[k] - pos
            reps = [] if noop else self._replicas(pos_l[k])
            if (q + 1) * pq + len(g_flat) + len(reps) > budget:
                # cut before query q: updates preceding a cut-off query
                # move to the next chunk with it
                nq = min(q, (budget - len(g_flat)) // pq)
                while staged and staged[-1][0] >= nq:
                    del g_flat[len(g_flat) - len(staged.pop()[2]) :]
                break
            staged.append((q, t_l[k], reps))
            g_flat.extend(reps)
            k += 1
        else:
            nq = min(nq, (budget - len(g_flat)) // pq)
        rows = len(g_flat)
        if nq == 0:
            # the first query's updates alone overflow the budget: apply
            # them one by one, flushed ahead of the chunk's bulk rows
            self.busy_l = self.busy.tolist()
            self._apply_updates(_updates_due(idx_l, t_l, self.ui, pos, math.inf))
            self._flush()
            return self._stage_updates(pos, nq_max, pq, bufs)
        self.ui += len(staged)
        self.updates_applied += len(staged)
        if not noop:
            self.ledger.record_update(self.upd_r * len(staged))
        if not rows:
            return nq, staged, None
        lens = np.array([len(u[2]) for u in staged], dtype=np.intp)
        row_q = np.repeat(np.array([u[0] for u in staged], dtype=np.intp), lens)
        g_all = np.array(g_flat, dtype=np.intp)
        bufs.upd_off[0] = 0
        np.cumsum(np.bincount(row_q, minlength=nq), out=bufs.upd_off[1 : nq + 1])
        at = np.arange(rows) + row_q * pq
        bufs.sub_g[at] = g_all
        bufs.sub_service[at] = self.upd_svc[g_all]
        bufs.sub_work[at] = self.upd_work[g_all]
        bufs.sub_start[at] = np.repeat(
            np.array([u[1] for u in staged], dtype=np.float64), lens
        )
        return nq, staged, at

    # -- the bulk seam -----------------------------------------------------
    def _bufs_for(self, pq: int) -> CommitBuffers:
        bufs = self.commit_bufs.get(pq)
        if bufs is None:
            # update rows share the CHUNK_CAP * pq row budget (a chunk is
            # cut short when they would overflow it); a run with updates
            # gets twice its query rows, within that budget, so update-
            # heavy chunks still hold many queries
            rows = None
            if self.upd_idx:
                rows = min(CHUNK_CAP, 2 * self.bulk_cap) * pq
            bufs = CommitBuffers(self.bulk_cap, pq, rows)
            self.commit_bufs[pq] = bufs
        return bufs

    def _run_span_bulk(self, span_start: int, span_end: int) -> int:
        """Process ``[span_start, span_end)`` through the fused seam.

        Chunks of up to :data:`CHUNK_CAP` queries, with the updates that
        precede them (:meth:`_stage_updates`), go to the kernel's
        ``commit_batch`` (the span is failure-free and pq-constant by the
        caller's checks), which advances the live mirror arrays in place;
        each chunk is flushed straight from the bulk out buffers.  After
        the span the scalar list shadows and any sibling pq tables are
        re-derived from the arrays.
        """
        pq = self.pq_override if self.pq_override is not None else self.pq_fn
        pq = pq or self.cfg.p
        if pq < self.p_store_cur - 1e-9:
            self._materialise()
            raise ValueError(
                f"pq={pq} below stored partitioning level "
                f"{self.p_store_cur}; reconfigure first (Section 4.5)"
            )
        entry = self._table_for(pq)
        plan = self.plan
        bufs = self._bufs_for(pq)
        commit = self.kernel.commit_batch
        sample_rtt = self.network.sample_rtt
        perf = time.perf_counter
        perf_ns = time.perf_counter_ns
        prof = self.prof
        cap = bufs.cap
        stage = self._stage_updates
        pos = span_start
        while pos < span_end:
            nq = min(span_end - pos, cap)
            if prof is None:
                nq, staged, at = stage(pos, nq, pq, bufs)
                n_rows = 0 if at is None else len(at)
                # pre-draw the span's RTTs in arrival order: the rng stream
                # must advance exactly as the per-query path would
                rtt_l = [sample_rtt() for _ in range(nq)]
                bufs.rtts[:nq] = rtt_l
                t0 = perf()
                commit(self.state, entry, plan, bufs, pos, nq, n_rows)
                chunk_wall = perf() - t0
                self._flush_bulk(
                    pos, nq, pq, rtt_l, chunk_wall, entry, bufs, staged, at
                )
            else:
                # same statements bracketed by clock reads only -- the rng
                # stream and the float sequence are untouched
                if self.ui < len(self.upd_idx):
                    prof.begin("updates")
                    nq, staged, at = stage(pos, nq, pq, bufs)
                    prof.end()
                else:
                    staged = at = None
                n_rows = 0 if at is None else len(at)
                c0 = perf_ns()
                rtt_l = [sample_rtt() for _ in range(nq)]
                draw_ns = perf_ns() - c0
                prof.add_ns("arrival_draw", draw_ns)
                bufs.rtts[:nq] = rtt_l
                t0 = perf()
                commit(self.state, entry, plan, bufs, pos, nq, n_rows)
                chunk_wall = perf() - t0
                prof.add_s("sweep_commit", chunk_wall)
                prof.begin("flush")
                self._flush_bulk(
                    pos, nq, pq, rtt_l, chunk_wall, entry, bufs, staged, at
                )
                flush_ns = prof.end()
                prof.record_chunk(
                    pos, nq, c0, draw_ns, int(chunk_wall * 1e9), flush_ns
                )
            pos += nq
        # re-derive the scalar shadows and sibling pq tables from the
        # arrays the kernel advanced in place (elementwise division is
        # pure, so a full recompute matches the scatter updates bit-wise)
        self.busy_l = self.busy.tolist()
        self.spd_l = self.spd.tolist()
        for tb in self.tables.values():
            if tb is not entry:
                np.divide(tb.wd, self.spd, out=tb.Q)
        rn = int(bufs.res_n[0])
        self.last_res = list(
            zip(bufs.res_g[:rn].tolist(), bufs.res_v[:rn].tolist())
        )
        self.st_sync_pending = True
        return span_end

    def _flush_bulk(
        self,
        pos: int,
        nq: int,
        pq: int,
        rtt_l: list,
        chunk_wall: float,
        entry: PqEntry,
        bufs: CommitBuffers,
        staged,
        at,
    ) -> None:
        """Account one bulk chunk straight from the kernel's out buffers.

        The same reductions as :meth:`_flush`, minus the tuple-buffer
        transposition: the kernel already delivered flat arrays in submit
        order.  Per-query ``scheduling_delay`` is the chunk's kernel wall
        time amortised over its queries (the fused call does not observe
        per-query boundaries; with ``charge_scheduling`` the amortised
        value is what lands in the latency).  *staged* and *at* are the
        chunk's updates and their row positions
        (:meth:`_stage_updates`).
        """
        m = nq * pq
        if at is not None:
            m += len(at)
        sg = bufs.sub_g[:m]
        np.add.at(self.bt, sg, bufs.sub_service[:m])
        np.add.at(self.om, sg, bufs.sub_work[:m])
        counts = np.bincount(sg, minlength=len(self.tasks))
        self.tasks += counts
        if at is None:
            self._account_queries(sg, bufs.sub_finish[:m], counts)
            sg_q = sg
        else:
            qmask = np.ones(m, dtype=bool)
            qmask[at] = False
            sg_q = sg[qmask]
            self._account_queries(sg_q, bufs.sub_finish[:m][qmask])
        self.touched[sg] = True

        qnow = self.arrivals[pos : pos + nq]
        qtotal = bufs.q_total[:nq]
        sched_each = chunk_wall / nq
        if self.charge:
            qtotal = qtotal + sched_each
        fr = qnow + qtotal
        delay = fr - qnow
        self.latencies[pos : pos + nq] = delay
        self.finishes[pos : pos + nq] = fr
        qid0 = self.qid_last
        qqid = np.arange(qid0 + 1, qid0 + nq + 1, dtype=np.int64)
        self.query_ids[pos : pos + nq] = qqid
        self.qid_last = qid0 + nq
        self.pqs[pos : pos + nq] = pq

        self._emit_records(
            qqid,
            qnow,
            fr,
            np.full(nq, pq, dtype=np.int64),
            bufs.rtts[:nq],
            np.full(nq, sched_each),
            qtotal,
            bufs.q_mw[:nq],
            bufs.q_ms[:nq],
        )
        if self.trace_any:
            # each update's rows precede its query's, in column order
            upd_segs = [(q, (-1, t, len(reps))) for q, t, reps in staged or () if reps]
            segs = []
            u = 0
            for k, (qid, now, rtt) in enumerate(
                zip(qqid.tolist(), qnow.tolist(), rtt_l)
            ):
                while u < len(upd_segs) and upd_segs[u][0] == k:
                    segs.append(upd_segs[u][1])
                    u += 1
                segs.append((qid, now + rtt / 2.0, pq))
            self._emit_trace(
                segs,
                sg.tolist(),
                bufs.sub_start[:m].tolist(),
                bufs.sub_finish[:m].tolist(),
                bufs.sub_work[:m].tolist(),
            )

        dep = self.dep
        if self.assignments is not None:
            names = self.names_flat
            # sub rows are in submit (LIFO) order; assignments record the
            # selection (point) order, so reverse each query's row
            for row in sg_q.reshape(nq, pq)[:, ::-1].tolist():
                self.assignments.append(tuple(names[g] for g in row))

        fe = self.fe
        fe.total_iterations += nq * entry.iterations
        fe.total_estimates += nq * entry.estimates
        fe.queries_scheduled += nq
        fe._query_counter = self.qid_last
        dep.scheduling_wallclock += chunk_wall
        self.ledger.record_query(nq * pq)
        self.ledger.record_result(nq * pq)
        self.completed += nq
        self.fast_scheduled += nq
        self.chunk_sizes.append(nq)

    # -- the per-query path ------------------------------------------------
    def _run_span(self, span_start: int, span_end: int) -> int:
        """Process ``[span_start, span_end)`` one query at a time.

        This is the path that owns the failure fall-back (select first,
        check the schedule against the failed set, hand the query to
        :meth:`_failover` when it hits) and per-query ``pq_fn`` evaluation;
        it is also what short spans use when the kernel's bulk commit is a
        python loop anyway.  Commit arithmetic here, the kernel's default
        ``commit_batch``, and ``roar_commit_batch`` in ``csrc/sweep.c``
        are three copies of the same float-op sequence, pinned together by
        the differential tests.
        """
        cfg = self.cfg
        dataset = self.dataset
        fe_fixed = self.fe_fixed
        alpha = self.alpha
        om_alpha = self.one_minus_alpha
        fmod = math.fmod
        perf = time.perf_counter
        pq_fn = self.pq_fn
        pq_callable = callable(pq_fn)
        charge = self.charge
        sample_rtt = self.network.sample_rtt
        record_assignments = self.assignments is not None
        select = self.kernel.select
        arr = self.arr_l
        admission = self.admission
        trace_any = self.trace_any
        # the fall-back updates these mirrors in place, so the aliases
        # stay valid for the whole span
        busy_l = self.busy_l
        spd_l = self.spd_l
        busy_np = self.busy
        spd_np = self.spd
        state = self.state
        srv_fixed_l = self.srv_fixed_l
        srv_speed_l = self.srv_speed_l
        any_failed = self.any_failed
        failed_l = self.failed_l
        last_pq = -1
        entry = None
        prof = self.prof
        span_sched = 0.0
        upd_idx = self.upd_idx
        upd_t = self.upd_t
        n_upd = len(upd_idx)
        # index of the next query an update precedes
        next_u = upd_idx[self.ui] if self.ui < n_upd else span_end
        # the busiest server's queue end, kept running for admission: set
        # here and after updates / fail-overs, raised at every write-through
        maxb = max(busy_l) if admission is not None else 0.0
        if prof is not None:
            prof.begin("commit")

        queries = iter(range(span_start, span_end))
        for q_i in queries:
            if q_i >= next_u:
                self._apply_updates(
                    _updates_due(upd_idx, upd_t, self.ui, q_i, math.inf)
                )
                next_u = upd_idx[self.ui] if self.ui < n_upd else span_end
                if admission is not None:
                    maxb = max(busy_l)
            now = arr[q_i]
            if pq_callable:
                pq = pq_fn(now)
            else:
                pq = self.pq_override if self.pq_override is not None else pq_fn
            pq = pq or cfg.p

            # -- admission: decide before any scheduling work or rng draw,
            # off the busiest-server backlog the queue mirror exposes -----
            if admission is not None:
                if prof is not None:
                    prof.begin("admission")
                backlog = maxb - now
                if backlog < 0.0:
                    backlog = 0.0
                reason = admission.admit(q_i, now, backlog)
                if reason is not None:
                    self.pqs[q_i] = pq
                    self.shed_n += 1
                    if record_assignments:
                        self.assignments.append(())
                    if reason == "queue-cap" and not pq_callable:
                        run = self._shed_run(q_i + 1, min(span_end, next_u), maxb, pq)
                        if run:
                            next(islice(queries, run, run), None)  # skip them
                if prof is not None:
                    prof.end()
                if reason is not None:
                    continue

            if pq != last_pq:
                if pq < self.p_store_cur - 1e-9:
                    self._materialise()
                    raise ValueError(
                        f"pq={pq} below stored partitioning level "
                        f"{self.p_store_cur}; reconfigure first (Section 4.5)"
                    )
                entry = self._table_for(pq)
                last_pq = pq

            # -- the scheduling decision: estimates + sweep + assignment,
            # delegated to the pluggable kernel (exact_numpy by default;
            # see repro.kernels for the ABI and the alternatives) ----------
            t0 = perf()
            g_list, pts, start_id = select(state, entry, now)
            sched_wall = perf() - t0
            if prof is not None:
                span_sched += sched_wall

            # -- failure window: the Section 4.4 fall-back, inline ---------
            if any_failed and any(failed_l[g] for g in g_list):
                self._failover(q_i, now, pq, entry, g_list, start_id, sched_wall)
                if admission is not None:
                    maxb = max(busy_l)
                continue

            # -- commit (identical arithmetic to run_query) ----------------
            self.qid_last += 1
            qid = self.qid_last
            self.wall_acc += sched_wall
            rtt = sample_rtt()

            # widths + reserve (FIFO over sub-queries, first occurrence
            # syncs the live queue, repeats accumulate)
            v = fmod(start_id + entry.off0, 1.0)
            if v < 0.0:
                v += 1.0
            if v >= 1.0:
                v -= 1.0
            prev = v
            w_list = []
            res: dict[int, float] = {}
            res_get = res.get
            for i in range(pq):
                d = pts[i]
                w = fmod(d - prev, 1.0)
                if w < 0.0:
                    w += 1.0
                if w >= 1.0:
                    w -= 1.0
                w_list.append(w)
                prev = d
                g = g_list[i]
                spd_g = spd_l[g]
                service = fe_fixed + (w * dataset) / (
                    spd_g if spd_g > 1e-9 else 1e-9
                )
                base = res_get(g)
                if base is None:
                    base = busy_l[g]
                res[g] = (base if base > now else now) + service
            self.last_res = list(res.items())
            self.st_sync_pending = True

            finish = now
            mw = 0.0
            ms = 0.0
            half = rtt / 2.0
            arr_t = now + half
            subs = self.subs
            subs_append = subs.append
            # submit + EWMA observe (LIFO: the reference path pops)
            for i in range(pq - 1, -1, -1):
                g = g_list[i]
                work = w_list[i] * dataset
                b = busy_l[g]
                wait = b - now
                if wait < 0.0:
                    wait = 0.0
                start = arr_t if arr_t > b else b
                service = srv_fixed_l[g] + work / srv_speed_l[g]
                f = start + service
                busy_l[g] = f
                subs_append((g, service, work, f, start))
                eff = service - fe_fixed
                if eff > 0.0 and work > 0.0:
                    spd_l[g] = om_alpha * spd_l[g] + alpha * (work / eff)
                fh = f + half
                if fh > finish:
                    finish = fh
                if wait > mw:
                    mw = wait
                if service > ms:
                    ms = service
            if trace_any:
                self.tsegs.append((qid, arr_t, pq))

            # write-through the final per-server values (only the last
            # value per server matters to the next query's estimates)
            tables = self.tables
            one_table = entry if len(tables) == 1 else None
            for g in res:
                b = busy_l[g]
                busy_np[g] = b
                if b > maxb:
                    maxb = b
                s_g = spd_l[g]
                if spd_np[g] != s_g:
                    spd_np[g] = s_g
                    if one_table is not None:
                        one_table.Q[g] = one_table.wd / s_g
                    else:
                        for tb in tables.values():
                            tb.Q[g] = tb.wd / s_g

            total = finish - now + (sched_wall if charge else 0.0)
            self.qrows.append(
                (q_i, now, pq, qid, rtt, sched_wall, total, mw, ms)
            )
            if admission is not None:
                # same delay the reference path's QueryRecord carries
                # (wall-free unless charge_scheduling is on)
                admission.observe(now, total)
            self.completed += 1
            self.fast_scheduled += 1
            self.led_qmsg += pq
            self.led_rmsg += pq
            self.it_acc += entry.iterations
            self.est_acc += entry.estimates
            self.qs_acc += 1
            if record_assignments:
                names = self.names_flat
                self.assignments.append(tuple(names[g] for g in g_list))
            if len(self.qrows) >= CHUNK_CAP:
                self._flush()

        if prof is not None:
            # the kernel's select time goes to sweep_commit; the rest of
            # the inline loop (reserve/submit/EWMA python) is "commit"
            prof.add_s("sweep_commit", span_sched)
            prof.end()
        return span_end

    def _shed_run(self, start: int, stop: int, maxb: float, pq: int) -> int:
        """Shed, as one block, the arrivals from *start* the queue cap sheds.

        Called after a ``queue-cap`` shed.  While no query is admitted the
        queue mirrors stand still, so arrival ``i`` sees the backlog
        ``max(maxb - arrivals[i], 0)``; the run is the maximal prefix of
        ``[start, stop)`` at or over the cap (*stop* is the span end or the
        next update), found by probing blocks of doubling size.  The
        policy's side of the bookkeeping is ``AdmissionPolicy.shed_run``.
        Returns the run's length.
        """
        cap = self.admission.queue_cap
        arr = self.arrivals
        end = start
        step = SHED_PROBE
        while end < stop:
            hi = min(stop, end + step)
            over = np.maximum(maxb - arr[end:hi], 0.0) >= cap
            if not over.all():
                end += int(over.argmin())
                break
            end = hi
            step *= 2
        n = end - start
        if n:
            backlogs = np.maximum(maxb - arr[start:end], 0.0).tolist()
            self.admission.shed_run(start, self.arr_l[start:end], backlogs)
            self.pqs[start:end] = pq
            self.shed_n += n
            if self.assignments is not None:
                self.assignments.extend([()] * n)
        return n

    def _failover(
        self,
        q_i: int,
        now: float,
        pq: int,
        entry: PqEntry,
        g_list: list[int],
        start_id: float,
        sched_wall: float,
    ) -> None:
        """Commit one failure-window query with the Section 4.4 fall-back.

        Follows ``Deployment.run_query`` statement for statement from the
        kernel's decision: the qid and scheduler counters are charged, every
        planned sub-query is reserved (dead ones included), one rtt is
        drawn, and the pieces run as a LIFO stack.  A piece on a failed
        server is re-sent at its detection time through the reference
        :meth:`~repro.core.frontend.FrontEnd.resolve_failures` (same
        ``split_failed`` code, same ``frontend.rng`` draws), replacements
        pushed on top; a :class:`FailureCoverageError` drops the query,
        leaving the pieces already submitted in place.  Executed pieces go
        to the chunk buffers like any other sub-query; ``NodeStats
        .outstanding`` is written on the objects directly, since after a
        split or a drop it no longer nets to zero.
        """
        prof = self.prof
        if prof is not None:
            prof.begin("failover")
        dataset = self.dataset
        fe_fixed = self.fe_fixed
        alpha = self.alpha
        om_alpha = self.one_minus_alpha
        busy_l = self.busy_l
        spd_l = self.spd_l
        failed_l = self.failed_l
        srv_fixed_l = self.srv_fixed_l
        srv_speed_l = self.srv_speed_l
        stats_flat = self.stats_flat
        trace_any = self.trace_any
        self.qid_last += 1
        qid = self.qid_last
        self.wall_acc += sched_wall
        self.it_acc += entry.iterations
        self.est_acc += entry.estimates
        self.qs_acc += 1
        self.fast_scheduled += 1
        self.failover += 1
        self.pqs[q_i] = pq

        # the reference plan's windows (plan_from_schedule): sub-query i
        # matches (pts[i], pts[i + 1]] and is addressed to pts[i + 1]
        pts = [frac(start_id + i / pq) for i in range(-1, pq)]
        widths = [cw_distance(pts[i], pts[i + 1]) for i in range(pq)]
        res: dict[int, float] = {}
        for w, g in zip(widths, g_list):
            spd_g = spd_l[g]
            service = fe_fixed + (w * dataset) / (spd_g if spd_g > 1e-9 else 1e-9)
            base = res.get(g)
            if base is None:
                base = busy_l[g]
            res[g] = (base if base > now else now) + service
            stats_flat[g].outstanding += 1
        self.led_qmsg += pq

        rtt = self.network.sample_rtt()
        half = rtt / 2.0
        finish = now
        mw = 0.0
        ms = 0.0
        ran: set[int] = set()
        # queue values of replacement servers outside the plan, as the
        # reference path's start-of-query sync left them in NodeStats
        synced: dict[int, float] = {}
        dropped = False
        # (sub-query, server, submit time, plan index); planned pieces
        # carry no SubQuery until one is needed
        pieces: list[tuple] = [(None, g, now, i) for i, g in enumerate(g_list)]
        while pieces:
            sub, g, submit_at, i = pieces.pop()
            if failed_l[g]:
                if sub is None:
                    sub = PlannedSub(
                        self.nodes_flat[g], pts[i + 1], pts[i], pts[i + 1]
                    ).to_subquery(qid, i)
                detect_at = self.dep.detected_at(self.names_flat[g], submit_at)
                try:
                    replacements = self.fe.resolve_failures([sub], self.p_store_cur)
                except FailureCoverageError:
                    dropped = True
                    break
                self.led_qmsg += len(replacements)
                g_of = self.g_of
                for rep_sub, rep_node in replacements:
                    pieces.append((rep_sub, g_of[rep_node.name], detect_at, -1))
                continue
            # a planned piece's dedup and locality widths are both its
            # window width, so this is its work_fraction()
            work = (widths[i] if sub is None else sub.work_fraction()) * dataset
            b = busy_l[g]
            if g not in res:
                synced.setdefault(g, b)
            wait = b - submit_at
            if wait < 0.0:
                wait = 0.0
            arr_t = submit_at + half
            start = arr_t if arr_t > b else b
            service = srv_fixed_l[g] + work / srv_speed_l[g]
            f = start + service
            busy_l[g] = f
            self.subs.append((g, service, work, f, start))
            if trace_any:
                self.tsegs.append((qid, arr_t, 1))
            st = stats_flat[g]
            st.outstanding = max(0, st.outstanding - 1)
            eff = service - fe_fixed
            if eff > 0.0 and work > 0.0:
                spd_l[g] = om_alpha * spd_l[g] + alpha * (work / eff)
            ran.add(g)
            fh = f + half
            if fh > finish:
                finish = fh
            if wait > mw:
                mw = wait
            if service > ms:
                ms = service
            self.led_rmsg += 1
        self.last_res = list(res.items()) + list(synced.items())
        self.st_sync_pending = True

        # write-through, submitted pieces of a dropped query included
        busy_np = self.busy
        spd_np = self.spd
        tables = self.tables.values()
        for g in ran.union(res):
            busy_np[g] = busy_l[g]
            s_g = spd_l[g]
            if spd_np[g] != s_g:
                spd_np[g] = s_g
                for tb in tables:
                    tb.Q[g] = tb.wd / s_g

        if dropped:
            # the dead run is wider than the replication arc: the data is
            # unavailable until re-replication (Section 4.4)
            self.log.dropped += 1
            self.dropped += 1
        else:
            total = finish - now + (sched_wall if self.charge else 0.0)
            self.qrows.append((q_i, now, pq, qid, rtt, sched_wall, total, mw, ms))
            if self.admission is not None:
                # the reference path feeds back its QueryRecord's delay
                self.admission.observe(now, (now + total) - now)
            self.completed += 1
        if self.assignments is not None:
            # the reference contract: the executors are only observable
            # through server traces, listed in deployment order
            executed = {self.names_flat[g] for g in ran}
            self.assignments.append(
                ()
                if dropped
                else tuple(
                    name
                    for name, server in self.servers.items()
                    if server.keep_trace and name in executed
                )
            )
        if self.qs_acc >= CHUNK_CAP:
            self._flush()
        if prof is not None:
            prof.end()


def _check_frontend(deployment: "Deployment") -> None:
    fecfg = deployment.frontend.config
    if fecfg.method != "heap" or fecfg.adjust_ranges or fecfg.max_splits > 0:
        raise ValueError(
            "the batched path supports the default front-end configuration "
            "(method='heap', adjust_ranges=False, max_splits=0); use "
            "Deployment.run_queries for other configurations"
        )


def run_queries_fast(
    deployment: "Deployment",
    arrival_times: Sequence[float],
    pq_fn: Callable[[float], int] | int | None = None,
    record_assignments: bool = False,
    actions: Sequence[Action] | None = None,
    kernel: SweepKernel | str | None = None,
    profile=None,
    admission=None,
    updates=None,
) -> BatchResult:
    """Run a whole arrival trace through the batched path.

    Mirrors :meth:`Deployment.run_queries` (including per-query ``pq_fn``
    support) and leaves the deployment in the same state the reference path
    would have.  *actions* schedules callbacks at exact query indices; see
    :class:`Action`.  *kernel* picks the scheduling kernel by registry name
    (or instance); the default ``exact_numpy`` is bit-identical to the
    reference path, others trade exactness or portability for speed (see
    :mod:`repro.kernels`).  Failure-window queries run the Section 4.4
    fall-back inline with every kernel, through the reference failure
    resolution, so fall-back semantics stay exact everywhere.

    *profile* enables the engine-phase profiler: pass ``True`` (or a
    :class:`~repro.obs.profiler.PhaseProfiler` to accumulate across runs);
    the default ``None`` defers to the ``REPRO_PROFILE`` environment
    variable.  When on, the result's ``profile`` attribute carries
    per-phase totals and per-chunk samples; results are bit-identical to
    an unprofiled run either way (see :mod:`repro.obs.profiler`).

    *admission* installs an admission controller at the arrival seam: a
    policy name/spec, an :class:`~repro.admission.base.AdmissionPolicy`
    instance, or ``None``/``"none"`` for accept-all.  Passthrough specs
    resolve to ``None`` before the engine sees them, so the default run
    is bit-identical to the pre-admission engine.  An active policy runs
    on the inline per-query path (the bulk seam cannot shed mid-chunk),
    with ``queue-cap`` shed runs booked as one block (see "Admission at
    the arrival seam" in the module docstring).

    *updates* is the object-update column: ``(index, time, position)``
    triples, each applied exactly as ``Deployment.apply_update(time,
    at=position)`` immediately before ``arrival_times[index]`` (an index
    of ``len(arrival_times)`` or beyond applies after the last query).
    Updates with one index apply in time order; against an action of the
    same index an update goes first when its time is not later than the
    action's.  The engine applies them in place -- inside the bulk
    chunk, or between queries on the per-query path -- so they cost no
    action, flush or materialise.  The column does not pump anything:
    pass updates as actions instead when each update instant must also
    run other work (see ``repro.scenarios.runner``).
    """
    require_numpy()
    _check_frontend(deployment)
    from ..admission.registry import resolve_admission

    arrivals = np.asarray(arrival_times, dtype=np.float64)
    acts = _sorted_actions(actions)
    prof = resolve_profile(profile)
    adm = resolve_admission(admission)
    engine = _Engine(
        deployment,
        arrivals,
        pq_fn,
        record_assignments,
        acts,
        get_kernel(kernel),
        profiler=prof,
        admission=adm,
        updates=updates,
    )
    if engine.multi_lane:
        # Multi-lane SimServers fall outside the closed-form queue mirror;
        # run the reference path with the same exact-time action semantics
        # (the kernel knob is moot there -- the reference path schedules
        # through the original heap).
        return run_queries_reference(
            deployment,
            arrival_times,
            pq_fn,
            record_assignments=record_assignments,
            actions=acts,
            profile=prof,
            admission=adm,
            updates=updates,
        )
    return engine.run()


def run_queries_reference(
    deployment: "Deployment",
    arrival_times: Sequence[float],
    pq_fn: Callable[[float], int] | int | None = None,
    record_assignments: bool = False,
    actions: Sequence[Action] | None = None,
    profile=None,
    admission=None,
    updates=None,
) -> BatchResult:
    """The per-query reference path with the same exact-time action queue.

    Semantically interchangeable with :func:`run_queries_fast` -- the
    scenario runner uses it as the ``engine="reference"`` backend so both
    engines share one definition of *when* an action lands.  *profile* is
    the same knob as on the batched path; here the per-query work lands
    in a single ``reference`` phase (plus ``actions``, ``updates`` and
    ``admission``).  *admission* is
    the same knob too, with the same backlog/delay signals (the busiest
    server's queued seconds, completed delays by arrival), so shed
    decisions are engine-independent.  *updates* is the same column too,
    applied through ``Deployment.apply_update`` at each update's slot:
    this is the oracle the batched engine's in-place updates match.
    """
    require_numpy()
    from ..admission.registry import resolve_admission

    prof = resolve_profile(profile)
    admission = resolve_admission(admission)
    perf_ns = time.perf_counter_ns
    wall_start = time.perf_counter()
    arrivals = np.asarray(arrival_times, dtype=np.float64)
    acts = _sorted_actions(actions)
    n_q = len(arrivals)
    latencies = np.full(n_q, np.nan, dtype=np.float64)
    finishes = np.full(n_q, np.nan, dtype=np.float64)
    query_ids = np.full(n_q, -1, dtype=np.int64)
    pqs = np.zeros(n_q, dtype=np.int64)
    assignments: Optional[list[tuple[str, ...]]] = (
        [] if record_assignments else None
    )
    cfg = deployment.config
    servers = deployment.servers
    completed = dropped = shed = 0
    pq_override: Optional[int] = None
    actions_applied = 0
    ai = 0
    arr_l = arrivals.tolist()
    upd_idx, upd_t, upd_pos = _update_column(updates)
    ui = 0

    def apply_updates(stop: int) -> int:
        if ui >= stop:
            return ui
        u0 = perf_ns()
        for k in range(ui, stop):
            deployment.apply_update(upd_t[k], at=upd_pos[k])
        if prof is not None:
            prof.add_ns("updates", perf_ns() - u0)
        return stop

    for q_i in range(n_q):
        while ai < len(acts) and acts[ai].index <= q_i:
            ui = apply_updates(
                _updates_due(upd_idx, upd_t, ui, acts[ai].index, acts[ai].time)
            )
            if prof is None:
                new_pq = acts[ai].fn(acts[ai].time)
            else:
                a0 = perf_ns()
                new_pq = acts[ai].fn(acts[ai].time)
                prof.add_ns("actions", perf_ns() - a0)
            if new_pq is not None:
                pq_override = int(new_pq)
            actions_applied += 1
            ai += 1
        ui = apply_updates(_updates_due(upd_idx, upd_t, ui, q_i, math.inf))
        now = arr_l[q_i]
        if callable(pq_fn):
            pq = pq_fn(now)
        else:
            pq = pq_override if pq_override is not None else pq_fn
        pq = pq or cfg.p
        pqs[q_i] = pq
        if admission is not None:
            if prof is not None:
                d0 = perf_ns()
            backlog = max(s.busy_until for s in servers.values()) - now
            if backlog < 0.0:
                backlog = 0.0
            reason = admission.admit(q_i, now, backlog)
            if prof is not None:
                prof.add_ns("admission", perf_ns() - d0)
            if reason is not None:
                shed += 1
                if assignments is not None:
                    assignments.append(())
                continue
        pre_lens = None
        if assignments is not None:
            pre_lens = {
                name: len(s.trace) for name, s in servers.items() if s.keep_trace
            }
        if prof is None:
            record = deployment.run_query(now, pq)
        else:
            r0 = perf_ns()
            record = deployment.run_query(now, pq)
            prof.add_ns("reference", perf_ns() - r0)
        if record is None:
            dropped += 1
        else:
            completed += 1
            query_ids[q_i] = record.query_id
            finishes[q_i] = record.finish
            latencies[q_i] = record.delay
            if admission is not None:
                admission.observe(now, record.delay)
        if pre_lens is not None:
            if record is not None:
                executed = tuple(
                    name
                    for name, before in pre_lens.items()
                    if len(servers[name].trace) > before
                )
            else:
                executed = ()
            assignments.append(executed)
    while ai < len(acts):
        ui = apply_updates(
            _updates_due(upd_idx, upd_t, ui, acts[ai].index, acts[ai].time)
        )
        if prof is None:
            new_pq = acts[ai].fn(acts[ai].time)
        else:
            a0 = perf_ns()
            new_pq = acts[ai].fn(acts[ai].time)
            prof.add_ns("actions", perf_ns() - a0)
        if new_pq is not None:
            pq_override = int(new_pq)
        actions_applied += 1
        ai += 1
    ui = apply_updates(len(upd_idx))
    wall = time.perf_counter() - wall_start
    if prof is not None:
        prof.add_wall(wall)
    if admission is not None:
        # no chunks on this path: one whole-run summary row keeps the
        # shedchunk_* column totals comparable across engines
        admission.log.record_chunk(0, completed, admission.shed)
    return BatchResult(
        arrivals=arrivals,
        latencies=latencies,
        finishes=finishes,
        query_ids=query_ids,
        pqs=pqs,
        completed=completed,
        dropped=dropped,
        assignments=assignments,
        fast_scheduled=0,
        delegated=n_q,
        wall_seconds=wall,
        chunk_sizes=[],
        actions_applied=actions_applied,
        profile=prof,
        shed=shed,
        updates_applied=ui,
    )
