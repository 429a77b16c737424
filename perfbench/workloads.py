"""The benchmark's four workloads, each a builtin scenario at a fixed size.

Importing this module does not import ``repro``: the orchestrator
(``run.py``) only needs the names and sizes, and the package import is
part of what each worker process times as set-up.

Every workload is an open loop: Poisson arrivals drawn from the scenario
seed, with simulated queues free to grow.  Each workload is built so that
one layer dominates its host time and the others do little (see
``README.md`` for the layer -> metric -> workload prediction map).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

#: the scheduling kernel every timed run pins; never the oracle.
KERNEL = "compiled"
#: the oracle the correctness check compares against.
ORACLE_KERNEL = "exact_numpy"
#: completed queries with simulated delay <= this count towards goodput;
#: the SLO the builtin overload and control scenarios already use.
SLO_S = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: builtin scenario the workload is taken from.
    builtin: str
    n_servers: int
    p: int
    #: simulated horizon of one timed run, per size preset.
    duration: dict
    #: simulated horizon of the shortened copy the oracle check runs.
    oracle_duration: dict
    #: distinct scenario seeds pooled into the simulated metrics.
    subseeds: dict
    pq: int | None = None
    admission: str | None = None
    #: update rate as a multiple of the query rate (None: no updates).
    update_multiple: float | None = None
    #: replace the builtin's rebuild event with a recovery.
    recover_instead_of_rebuild: bool = False


SIZES = ("full", "small")

WORKLOADS = {
    w.name: w
    for w in (
        # Table 7.3's point: n = 1000, p = pq = 100.  No actions, failures
        # or admission, so the kernel's sweep+commit dominates; the no-change
        # control for every other optimisation.
        Workload(
            name="steady-t73",
            builtin="steady",
            n_servers=1000,
            p=100,
            pq=100,
            duration={"full": 60.0, "small": 4.0},
            oracle_duration={"full": 5.0, "small": 2.0},
            subseeds={"full": 12, "small": 2},
        ),
        # Zipf-1.1 updates beside the reads: Deployment.apply_update and the
        # busy-scope materialise each update forces dominate.  Updates arrive
        # at 1x (not the builtin's 4x) the query rate: at 4x the hot replica
        # arcs overload and simulated delays grow without bound at a
        # seed-dependent slope, which no spread bound can hold.
        Workload(
            name="zipf-updates",
            builtin="zipf-updates",
            n_servers=200,
            p=4,
            update_multiple=1.0,
            duration={"full": 15.0, "small": 4.0},
            oracle_duration={"full": 5.0, "small": 3.0},
            subseeds={"full": 32, "small": 2},
        ),
        # A quarter of the fleet fail-stops at 0.4 T and returns at 0.7 T.
        # At p = 20 every query in the window is delegated to the per-query
        # path (Deployment.run_query, core failure resolution) and dropped.
        # Recovery replaces the builtin's rebuild: after a rebuild the
        # predecessors that absorbed the dead ranges overload, and the delay
        # tail grows without bound at a seed-dependent slope.
        Workload(
            name="rack-failure",
            builtin="rack-failure",
            n_servers=200,
            p=20,
            recover_instead_of_rebuild=True,
            duration={"full": 20.0, "small": 4.0},
            oracle_duration={"full": 5.0, "small": 3.0},
            subseeds={"full": 12, "small": 2},
        ),
        # Poisson at 2x pool capacity with an active admission policy: the
        # bulk path is off, so the inline per-query commit and
        # AdmissionPolicy.admit dominate; the only workload that sheds.
        Workload(
            name="overload-delay-gated",
            builtin="sustained-overload",
            n_servers=200,
            p=4,
            admission="delay_gated",
            duration={"full": 80.0, "small": 5.0},
            oracle_duration={"full": 20.0, "small": 3.0},
            subseeds={"full": 12, "small": 2},
        ),
    )
}


def scenario_seed(seed: int, subseed: int) -> int:
    """The scenario seed of sub-run *subseed* of benchmark seed *seed*."""
    return 1000 * seed + subseed


def build_scenario(workload: Workload, seed: int, duration: float):
    """The workload's scenario for one scenario *seed* and horizon."""
    from repro.scenarios import builtin_scenarios

    scenario = {
        s.name: s
        for s in builtin_scenarios(
            n_servers=workload.n_servers,
            p=workload.p,
            duration=duration,
            seed=seed,
        )
    }[workload.builtin]
    changes = {"name": workload.name, "kernel": KERNEL}
    if workload.pq is not None:
        changes["pq"] = workload.pq
    if workload.admission is not None:
        changes["admission"] = dataclasses.replace(
            scenario.admission, policy=workload.admission
        )
    if workload.update_multiple is not None:
        changes["updates"] = dataclasses.replace(
            scenario.updates,
            rate=workload.update_multiple * scenario.workload.rate,
        )
    if workload.recover_instead_of_rebuild:
        changes["events"] = tuple(
            dataclasses.replace(e, action="recover") if e.action == "rebuild" else e
            for e in scenario.events
        )
    return scenario.with_(**changes)
