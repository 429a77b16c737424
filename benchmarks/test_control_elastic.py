"""Closed-loop elasticity under a flash crowd (control-plane benchmark).

Beyond-paper scenario built from Section 4.5/4.9's machinery: a 4x query
surge hits a comfortable 16-server deployment; the SLO elasticity and
re-partitioning controllers react through live metrics.  The assertion is
the whole point of the control plane: tail latency blows through the SLO
during the crowd and *recovers after adaptation*.
"""

from conftest import print_series

from repro.scenarios import (
    ControlSpec,
    control_scenario,
    execute_scenario,
    phase_p99,
)


def run_flash_crowd():
    return execute_scenario(
        control_scenario(
            "flash-crowd",
            ControlSpec(policies=("elasticity", "repartition"), slo_p99=1.0),
            n_servers=16,
            p=4,
            duration=240.0,
            seed=1,
        )
    )


def test_flash_crowd_p99_recovers(once, series_printer):
    execution = once(run_flash_crowd)
    p99_before, p99_crisis, p99_after = phase_p99(execution)
    slo_p99 = execution.scenario.control.slo_p99
    actions = execution.actions

    series_printer(
        "Closed loop: flash crowd, SLO p99 = 1000 ms",
        ["phase", "p99 (ms)"],
        [
            ("before", p99_before * 1000),
            ("crisis", p99_crisis * 1000),
            ("after", p99_after * 1000),
        ],
    )
    series_printer(
        "Control actions (every 5th)",
        ["t (s)", "controller", "kind"],
        [(a.time, a.controller, a.kind) for i, a in enumerate(actions) if i % 5 == 0],
    )

    # The controller acted at least once mid-run (p and the server set).
    assert actions
    kinds = {a.kind for a in actions}
    assert "add_server" in kinds
    assert "request_p" in kinds

    # The crowd hurt: tail latency blew through the SLO.
    assert p99_crisis > slo_p99

    # Adaptation worked: p99 recovered after the controller reacted --
    # back under the SLO, far below the crisis tail.
    assert p99_after < 0.25 * p99_crisis
    assert p99_after <= slo_p99
    # and no query was dropped along the way
    assert execution.deployment.log.yield_fraction() == 1.0
