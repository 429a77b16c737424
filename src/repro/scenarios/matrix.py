"""Scenario grids: sweep many environments, emit one comparable table.

This is the "Contracts" discipline applied to ROAR: a mechanism's
guarantees only mean something across a *matrix* of environments, so the
default battery stresses every axis the paper claims ROAR handles --
steady load, extreme heterogeneity, Zipf write skew, flash crowds, diurnal
cycles, correlated rack failures, membership churn, online re-partitioning
under a closed loop, and adversarial compositions of the above.

``repro matrix`` is the CLI veneer; tests sweep reduced grids.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..traces.spec import TraceSpec
from .runner import ScenarioResult, auto_rate, build_models, run_scenario_spec
from .spec import (
    AdmissionSpec,
    ChurnSpec,
    ControlSpec,
    EventSpec,
    Scenario,
    UpdateSpec,
    WorkloadSpec,
)

__all__ = [
    "CONTROL_SCENARIOS",
    "MatrixResult",
    "builtin_scenarios",
    "control_scenario",
    "render_table",
    "run_matrix",
    "trace_scenario",
]


def builtin_scenarios(
    n_servers: int = 20,
    duration: float = 40.0,
    p: int = 4,
    dataset_size: float = 2_000_000.0,
    seed: int = 1,
    rate: float | None = None,
) -> list[Scenario]:
    """The default battery: ten environments over one cluster shape.

    *rate* defaults to ~35% pool utilisation so differences between
    scenarios come from their stimuli, not from baseline overload.  The
    two ``*-overload`` scenarios deliberately exceed pool capacity and
    carry an :class:`~repro.scenarios.spec.AdmissionSpec` (default policy
    ``none``, so they stay bit-identical accept-all runs) whose tuning
    knobs are shared across policies -- ``repro matrix --admission
    none,aimd,delay_gated`` compares shedding policies Contracts-style on
    identical stimuli.
    """
    probe = Scenario(name="_probe", n_servers=n_servers, p=p, dataset_size=dataset_size)
    hen_models = build_models(probe)
    base_rate = rate if rate is not None else auto_rate(hen_models, p, dataset_size)
    # hetero-extreme keeps the hen pool's mean speed but with a 4x spread,
    # so its stress is the *heterogeneity*, not a miscalibrated load.
    mean_speed = sum(m.speed(True) for m in hen_models) / len(hen_models)
    pattern = [4.0 if i % 4 == 0 else 1.0 for i in range(n_servers)]
    scale = mean_speed / (sum(pattern) / len(pattern))
    hetero_speeds = tuple(scale * x for x in pattern)

    def wl(kind: str, **kw) -> WorkloadSpec:
        return WorkloadSpec(kind=kind, rate=base_rate, duration=duration, **kw)

    common = dict(
        n_servers=n_servers, p=p, dataset_size=dataset_size, seed=seed
    )
    t = duration  # shorthand for event timing
    # pool capacity (100% utilisation) anchors the overload scenarios and
    # the AIMD rate knobs, so "2x overload" means 2x regardless of shape
    cap_rate = auto_rate(hen_models, p, dataset_size, target_util=1.0)
    overload_admission = AdmissionSpec(
        policy="none",  # accept-all default; --admission swaps the policy
        slo=1.0,
        window=5.0,
        cap_multiple=0.5,
        tick=1.0,
        floor=0.25 * cap_rate,
        capacity=1.25 * cap_rate,
        rate=0.75 * cap_rate,
        increase=0.05 * cap_rate,
        decrease=0.5,
        burst=4.0,
    )
    return [
        Scenario(
            name="steady",
            description="Poisson baseline on the heterogeneous hen fleet",
            workload=wl("poisson"),
            **common,
        ),
        Scenario(
            name="hetero-extreme",
            description="4x speed spread; scheduler must exploit fast nodes",
            workload=wl("poisson"),
            fleet="custom",
            speeds=hetero_speeds,
            **common,
        ),
        Scenario(
            name="zipf-updates",
            description="steady queries + Zipf-1.1 update skew on hot arcs",
            workload=wl("poisson"),
            updates=UpdateSpec(rate=4.0 * base_rate, zipf_s=1.1),
            events=(EventSpec(at=0.6 * t, action="rebalance"),),
            **common,
        ),
        Scenario(
            name="flash-crowd",
            description="4x surge for 30% of the run, exponential decay",
            workload=wl("flash-crowd"),
            **common,
        ),
        Scenario(
            name="diurnal",
            description="one 3:1 peak-to-trough sinusoidal period",
            workload=wl("diurnal"),
            **common,
        ),
        Scenario(
            name="rack-failure",
            description="a quarter of the fleet fail-stops under ~65% load",
            # ~65% baseline load: the survivors absorb the dead quarter's
            # work, so the failure is visible as queueing, not just yield.
            workload=WorkloadSpec(
                kind="poisson", rate=1.8 * base_rate, duration=duration
            ),
            events=(
                EventSpec(at=0.4 * t, action="fail-rack", count=max(2, n_servers // 4)),
                EventSpec(at=0.7 * t, action="rebuild"),
            ),
            **common,
        ),
        Scenario(
            name="churn",
            description="a server joins and one drains every few seconds",
            workload=wl("poisson"),
            churn=ChurnSpec(interval=max(2.0, duration / 10.0), add=1, remove=1),
            **common,
        ),
        Scenario(
            name="crowd-x-rack",
            description="flash crowd AND rack failure mid-surge, SLO loop on",
            workload=wl("flash-crowd"),
            events=(
                EventSpec(at=0.45 * t, action="fail-rack", count=max(2, n_servers // 8)),
                EventSpec(at=0.8 * t, action="recover"),
            ),
            control=ControlSpec(
                policies=("elasticity",),
                slo_p99=1.0,
                interval=max(2.0, duration / 16.0),
            ),
            **common,
        ),
        Scenario(
            name="sustained-overload",
            description="Poisson at 2x pool capacity; shed or drown",
            workload=WorkloadSpec(
                kind="poisson", rate=2.0 * cap_rate, duration=duration
            ),
            admission=overload_admission,
            **common,
        ),
        Scenario(
            name="flash-overload",
            description="flash crowd surging 5x past 60% baseline load",
            workload=WorkloadSpec(
                kind="flash-crowd",
                rate=0.6 * cap_rate,
                duration=duration,
                surge_factor=5.0,
            ),
            admission=overload_admission,
            **common,
        ),
    ]


#: builtin scenarios ``repro control`` closes the loop over.
CONTROL_SCENARIOS = ("flash-crowd", "diurnal", "rack-failure")


def control_scenario(
    name: str,
    control: ControlSpec,
    n_servers: int = 16,
    duration: float = 240.0,
    p: int = 4,
    seed: int = 1,
    rate: float | None = None,
) -> Scenario:
    """Builtin scenario *name* with the closed loop *control* attached.

    What ``repro control`` runs: the battery's stimulus (flash crowd,
    diurnal cycle or rack failure, at ~35% base load unless *rate* is
    given) plus object stores, so the repartition policy can move
    replicas.
    """
    if name not in CONTROL_SCENARIOS:
        raise ValueError(
            f"unknown control scenario {name!r}; pick one of {CONTROL_SCENARIOS}"
        )
    battery = builtin_scenarios(
        n_servers=n_servers, duration=duration, p=p, seed=seed, rate=rate
    )
    base = next(s for s in battery if s.name == name)
    return base.with_(control=control, store_objects=True)


def trace_scenario(
    source: str,
    loader: str | None = None,
    name: str = "trace",
    n_servers: int = 20,
    p: int = 4,
    dataset_size: float = 2_000_000.0,
    seed: int = 1,
    time_scale: float = 1.0,
    limit: int | None = None,
) -> Scenario:
    """A scenario replaying the external request log *source*.

    The trace's arrivals (and any update rows) drive the engines through
    the exact-time action queue, so a real log is a first-class matrix
    row alongside the synthetic battery (``repro matrix --trace``).
    """
    return Scenario(
        name=name,
        description=f"replay of {source}",
        workload=TraceSpec(
            source=str(source), loader=loader,
            time_scale=time_scale, limit=limit,
        ),
        n_servers=n_servers,
        p=p,
        dataset_size=dataset_size,
        seed=seed,
    )


@dataclass
class MatrixResult:
    """Results of one grid sweep, renderable as an aligned table or CSV."""

    results: list[ScenarioResult] = field(default_factory=list)

    COLUMNS = (
        "scenario",
        "engine",
        "kernel",
        "servers",
        "p/pq",
        "queries",
        "yield%",
        "mean_ms",
        "p99_ms",
        "qps",
        "util%",
        "updates",
        "events",
        "ctl",
        "adm",
        "goodput",
        "shed%",
        "plan_p",
        "wall_s",
    )

    def rows(self) -> list[list[str]]:
        out = []
        for r in self.results:
            srv = (
                f"{r.servers_start}"
                if r.servers_start == r.servers_end
                else f"{r.servers_start}->{r.servers_end}"
            )
            out.append(
                [
                    r.scenario.name,
                    r.engine,
                    r.kernel,
                    srv,
                    f"{r.p_store_end:g}/{r.pq_end}",
                    str(r.offered),
                    f"{100.0 * r.yield_fraction:.1f}",
                    _ms(r.mean_delay),
                    _ms(r.p99_delay),
                    f"{r.throughput:.1f}",
                    f"{100.0 * r.mean_utilisation:.0f}",
                    str(r.updates_applied),
                    str(r.events_applied),
                    str(r.control_actions),
                    (
                        r.scenario.admission.policy.partition(":")[0]
                        if r.scenario.admission is not None
                        else "-"
                    ),
                    "-" if math.isnan(r.goodput) else f"{r.goodput:.1f}",
                    f"{100.0 * r.shed_rate:.1f}",
                    "-" if r.planned_p is None else str(r.planned_p),
                    f"{r.wall_seconds:.2f}",
                ]
            )
        return out

    def table(self) -> str:
        return render_table(self.COLUMNS, self.rows())

    def to_csv(self) -> str:
        lines = [",".join(self.COLUMNS)]
        for row in self.rows():
            lines.append(",".join(str(c) for c in row))
        return "\n".join(lines) + "\n"


def _ms(x: float) -> str:
    if math.isnan(x):
        return "-"
    return f"{1000.0 * x:.1f}"


def render_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(str(h)) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def run_matrix(
    scenarios: Sequence[Scenario],
    engine: str = "batched",
    kernel: str | None = None,
    progress: Optional[Callable[[Scenario, ScenarioResult], None]] = None,
    archive_dir: str | None = None,
) -> MatrixResult:
    """Run every scenario and collect the comparable table.

    *kernel* overrides every scenario's ``kernel:`` field (batched engine
    only; the reference engine schedules through the original heap).
    *archive_dir* writes one compressed telemetry archive
    (``<scenario>.npz``; see :mod:`repro.telemetry.archive`) per scenario.
    """
    if archive_dir is not None:
        os.makedirs(archive_dir, exist_ok=True)
    out = MatrixResult()
    for scenario in scenarios:
        archive_path = (
            os.path.join(archive_dir, f"{scenario.name}.npz")
            if archive_dir is not None
            else None
        )
        result = run_scenario_spec(
            scenario, engine=engine, kernel=kernel, archive_path=archive_path
        )
        out.results.append(result)
        if progress is not None:
            progress(scenario, result)
    return out
