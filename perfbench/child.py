"""One scenario run in a fresh interpreter (started by ``run.py``).

Times its own set-up (package import, compiled-kernel load from the
on-disk cache, scenario construction, ``build_deployment`` and the
stimulus draw), runs the scenario once through the public scenario API,
checks conservation, and prints one JSON row as the last line of its
standard output.  The per-query latencies go to ``<out>/<tag>.npy`` for
the orchestrator's pooled metrics and oracle comparison.

With ``--traced`` it also records spans around the public calls of each
layer and turns on the engine's phase profiler (``REPRO_PROFILE``, set by
the orchestrator), then derives the per-layer metrics.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

#: exit code when the pinned kernel cannot be loaded.
EXIT_NO_KERNEL = 3


def _wrap_layers(rec, runner, traced: bool) -> None:
    """Spans around the public calls of each layer.

    Untraced runs wrap only the calls that run once per scenario and
    belong to set-up (build, stimulus draw) plus the capture of the
    execution; traced runs wrap every per-layer boundary as well.
    """
    rec.wrap(runner, "run_scenario_spec", "scenarios.run_scenario_spec")
    rec.wrap(runner, "execute_scenario", "scenarios.execute_scenario", keep=True)
    rec.wrap(runner, "build_deployment", "cluster.build_deployment")
    rec.wrap(runner, "generate_arrivals", "scenarios.generate_arrivals", keep=True)
    rec.wrap(runner, "zipf_update_times", "scenarios.zipf_update_times")
    if not traced:
        return
    from repro.admission.base import AdmissionPolicy
    from repro.cluster.deployment import Deployment
    from repro.core.frontend import FrontEnd

    rec.wrap(Deployment, "run_queries_fast", "sim.run_queries_fast")
    rec.wrap(Deployment, "apply_update", "cluster.apply_update")
    rec.wrap(Deployment, "run_query", "cluster.run_query")
    for op in (
        "fail_node",
        "recover_node",
        "handle_long_term_failure",
        "add_server",
        "remove_server",
    ):
        rec.wrap(Deployment, op, "cluster.membership")
    rec.wrap(FrontEnd, "resolve_failures", "core.resolve_failures")
    rec.wrap(AdmissionPolicy, "admit", "admission.admit")
    rec.wrap(AdmissionPolicy, "observe", "admission.observe")
    rec.wrap(AdmissionPolicy, "tick", "admission.tick")


def layer_metrics(totals: dict, execution, offered: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (see README.md for definitions)."""
    per_q = 1e6 / max(offered, 1)  # seconds -> us per offered query
    ns_per_q = 1e-3 / max(offered, 1)  # nanoseconds -> us per offered query

    def span(name: str) -> dict:
        return totals.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    out: dict[str, float] = {
        "scenarios.stimulus_s": span("scenarios.generate_arrivals")["incl_s"]
        + span("scenarios.zipf_update_times")["incl_s"],
        "scenarios.self_us_per_query": span("scenarios.execute_scenario")["self_s"]
        * per_q,
        "scenarios.summary_us_per_query": span("scenarios.run_scenario_spec")[
            "self_s"
        ]
        * per_q,
        "cluster.build_s": span("cluster.build_deployment")["incl_s"],
    }
    for name in ("cluster.apply_update", "cluster.run_query"):
        s = span(name)
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.us_per_query"] = s["self_s"] * per_q
        out[f"{name}.us_per_call"] = 1e6 * s["self_s"] / max(s["calls"], 1)
    for name in ("cluster.membership", "core.resolve_failures"):
        s = span(name)
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.us_per_query"] = s["self_s"] * per_q

    batch = execution.batch
    prof = batch.profile
    phase_ns = prof.totals_ns
    for phase in (
        "arrival_draw",
        "commit",
        "flush",
        "listeners",
        "actions",
        "delegate",
        "materialise",
    ):
        out[f"sim.{phase}_us_per_query"] = phase_ns.get(phase, 0) * ns_per_q
    out["sim.other_us_per_query"] = (prof.wall_ns - prof.total_ns()) * ns_per_q
    for phase in ("actions", "materialise", "delegate"):
        out[f"sim.{phase}_count"] = prof.counts.get(phase, 0)
    out["sim.chunks"] = len(batch.chunk_sizes)
    out["sim.queries_per_chunk"] = (
        sum(batch.chunk_sizes) / len(batch.chunk_sizes) if batch.chunk_sizes else 0.0
    )
    attempted = batch.fast_scheduled + batch.delegated
    out["sim.fast_fraction"] = batch.fast_scheduled / max(attempted, 1)
    out["sim.profile_coverage"] = prof.coverage()
    out["kernels.sweep_commit_us_per_query"] = phase_ns.get("sweep_commit", 0) * ns_per_q
    out["kernels.scheduling_us_per_query"] = (
        execution.deployment.scheduling_wallclock * per_q
    )

    admit = span("admission.admit")
    out["admission.admit.calls"] = admit["calls"]
    out["admission.admit.us_per_call"] = 1e6 * admit["self_s"] / max(admit["calls"], 1)
    out["admission.admit.us_per_query"] = admit["self_s"] * per_q
    out["admission.observe.us_per_query"] = span("admission.observe")["self_s"] * per_q
    out["admission.tick.calls"] = span("admission.tick")["calls"]
    policy = execution.admission
    out["admission.admit_ratio"] = (
        policy.accepted / admit["calls"] if policy is not None and admit["calls"] else 1.0
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--scenario-seed", type=int, required=True)
    ap.add_argument("--duration", type=float, required=True)
    ap.add_argument("--kernel", required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", required=True, help="directory for latencies and spans")
    ap.add_argument("--tag", required=True, help="file stem of this run's outputs")
    args = ap.parse_args(argv)

    # -- set-up: import, kernel load, scenario, build + stimulus (below) ----
    import numpy as np

    from repro.kernels import get_kernel
    from repro.kernels.base import KernelUnavailableError
    from repro.scenarios import runner

    from calibrate import calibration_s
    from checks import conservation_problems, digest
    from tracing import SpanRecorder
    from workloads import SLO_S, WORKLOADS, build_scenario

    try:
        get_kernel(args.kernel)
    except KernelUnavailableError as exc:
        print(f"perfbench: kernel {args.kernel!r} unavailable: {exc}", file=sys.stderr)
        return EXIT_NO_KERNEL
    scenario = build_scenario(
        WORKLOADS[args.workload], args.scenario_seed, args.duration
    )
    pre_run_s = time.perf_counter() - T0

    calibration_before = calibration_s()
    rec = SpanRecorder()
    _wrap_layers(rec, runner, args.traced)
    t0 = time.perf_counter()
    result = runner.run_scenario_spec(scenario, kernel=args.kernel)
    wall_s = time.perf_counter() - t0
    rec.restore()
    calibration_after = calibration_s()

    totals = rec.totals()
    in_run_setup_s = (
        totals["cluster.build_deployment"]["incl_s"]
        + totals["scenarios.generate_arrivals"]["incl_s"]
        + totals.get("scenarios.zipf_update_times", {"incl_s": 0.0})["incl_s"]
    )
    execution = rec.returned["scenarios.execute_scenario"]
    arrivals = rec.returned["scenarios.generate_arrivals"]
    latencies = np.asarray(execution.batch.latencies, dtype=np.float64)
    problems = conservation_problems(
        result.offered,
        result.completed,
        result.dropped,
        result.shed,
        len(arrivals),
        latencies,
    )
    if result.kernel != args.kernel:
        problems.append(f"ran kernel {result.kernel!r}, pinned {args.kernel!r}")

    out = Path(args.out)
    np.save(out / f"{args.tag}.npy", latencies)
    finite = latencies[~np.isnan(latencies)]
    row = {
        "workload": args.workload,
        "scenario_seed": args.scenario_seed,
        "kernel": result.kernel,
        "traced": args.traced,
        "setup_s": pre_run_s + in_run_setup_s,
        "run_s": wall_s - in_run_setup_s,
        "calibration_s": 0.5 * (calibration_before + calibration_after),
        "offered": result.offered,
        "completed": result.completed,
        "dropped": result.dropped,
        "shed": result.shed,
        "slo_met": int(np.count_nonzero(finite <= SLO_S)),
        "delay_p50_s": float(np.percentile(finite, 50)) if finite.size else None,
        "delay_p99_s": float(np.percentile(finite, 99)) if finite.size else None,
        "horizon_s": execution.horizon,
        "fast_scheduled": execution.batch.fast_scheduled,
        "delegated": execution.batch.delegated,
        "digest": digest(latencies),
        "problems": problems,
    }
    if args.traced:
        row["layers"] = layer_metrics(totals, execution, result.offered)
        # spans and the profiler's per-chunk samples, dumped once at the end
        rec.dump(out / f"{args.tag}-trace.npz", execution.batch.profile.columns())
    row["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from repro.obs.manifest import build_manifest

    row["manifest"] = build_manifest(
        kernel=result.kernel,
        seeds={"scenario": args.scenario_seed},
        extra={"workload": args.workload, "profiled": args.traced},
    )
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
