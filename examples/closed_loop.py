"""Closed-loop control plane walkthrough.

Runs the three builtin control scenarios and shows what the controllers
did: a flash crowd absorbed by elastic scale-out, a compressed diurnal
cycle tracked by re-partitioning, and a correlated rack failure survived
via membership rebuild.  Each is a builtin battery scenario with a
``ControlSpec`` attached, run by the one scenario runner -- the same
thing ``repro control`` prints.

Run with::

    PYTHONPATH=src python examples/closed_loop.py
"""

import math

from repro.scenarios import (
    CONTROL_SCENARIOS,
    ControlSpec,
    control_scenario,
    execute_scenario,
    phase_p99,
)


def main() -> None:
    control = ControlSpec(policies=("elasticity", "repartition"))
    for name in CONTROL_SCENARIOS:
        ex = execute_scenario(control_scenario(name, control, duration=240.0))
        log = ex.deployment.log
        print("=" * 64)
        print(f"scenario       : {name}")
        print(f"servers        : {ex.servers_start} -> {len(ex.deployment.servers)}")
        print(f"p_store / pq   : {ex.deployment.p_store:g} / {ex.pq_end} finally")
        print(f"yield          : {log.yield_fraction():.1%}")
        for label, p99 in zip(("before", "crisis", "after"), phase_p99(ex)):
            # NaN: every query arriving in that span dropped
            shown = "-" if math.isnan(p99) else f"{p99 * 1000:.0f} ms"
            print(f"p99 {label:10s} : {shown}")
        print(f"control actions: {len(ex.actions)}")
        for act in ex.actions[:8]:
            print(f"  t={act.time:7.1f}s  [{act.controller}] {act.kind}: {act.detail}")
        print()


if __name__ == "__main__":
    main()
