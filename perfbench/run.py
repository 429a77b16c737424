"""ROAR scenario benchmark: host cost and simulated outcome per workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload steady-t73 --seed 1 --seconds 15 --trace 0

Each invocation runs one workload.  Every scenario run happens in a fresh
interpreter (``child.py``), one at a time:

1. the correctness oracle: a shortened copy of the workload (sub-seed 0)
   runs once on the pinned ``compiled`` kernel -- which also warms the
   kernel's on-disk build cache -- and once on the ``exact_numpy`` oracle;
   their per-query latencies must be bit-identical;
2. timed runs, cycling over the workload's sub-seeds, until ``--seconds``
   have passed and every sub-seed has run at least once.  Each run checks
   conservation (offered = completed + dropped + shed = stimulus
   arrivals), and runs that repeat a sub-seed must repeat its latencies
   bit for bit.

With ``--trace 0`` the last line of standard output is one JSON object
holding the end-to-end metrics; with ``--trace 1`` untraced and traced
runs alternate and it holds the per-layer metrics.  Any failed check
exits 1 (the JSON still reports it); a checkout without the program
exits 2, and a ``compiled`` kernel that cannot be built or loaded exits
3 with the registry's reason.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S  # noqa: E402
from checks import bit_mismatch  # noqa: E402
from workloads import KERNEL, ORACLE_KERNEL, SIZES, WORKLOADS, scenario_seed  # noqa: E402

#: wall-clock budget of one invocation; a run still going at the end of
#: it is killed and the invocation fails, so it never overruns 180 s.
BUDGET_S = 170.0
EXIT_CHECK_FAILED = 1
EXIT_NO_PROGRAM = 2
EXIT_NO_KERNEL = 3


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class CheckFailed(Exception):
    """A run's output failed a correctness check."""


class KernelUnavailable(Exception):
    """The pinned kernel cannot be built or loaded here."""


class Runner:
    """Starts child runs one at a time, each in a fresh interpreter."""

    def __init__(self, workload: str, seed: int, out: Path, trace_dir: Path) -> None:
        self.deadline = time.perf_counter() + BUDGET_S
        self.workload = workload
        self.seed = seed
        self.out = out
        self.trace_dir = trace_dir
        self.env = dict(os.environ)
        self.env.pop("REPRO_PROFILE", None)
        # users import from a bytecode cache; the oracle-check runs fill it,
        # so the timed runs' set-up does not include compiling the package
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.update(
            PYTHONPATH=os.pathsep.join(
                p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
            ),
            REPRO_KERNEL_CACHE=str(ROOT / ".bench_build" / "kernels"),
            # the manifest's git lookup stays inside the checkout
            GIT_CEILING_DIRECTORIES=str(ROOT.parent),
            # the simulator is single-threaded: no BLAS thread pools
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        #: runs started so far, including any that crashed.
        self.started = 0

    def run(self, subseed: int, duration: float, kernel: str, traced: bool) -> dict:
        tag = f"run{self.started:03d}"
        self.started += 1
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise CheckFailed(f"out of time before run {tag}")
        env = dict(self.env)
        if traced:
            env["REPRO_PROFILE"] = "1"
        cmd = [
            sys.executable,
            str(HERE / "child.py"),
            "--workload", self.workload,
            "--scenario-seed", str(scenario_seed(self.seed, subseed)),
            "--duration", repr(duration),
            "--kernel", kernel,
            "--out", str(self.out),
            "--tag", tag,
        ]  # fmt: skip
        if traced:
            cmd.append("--traced")
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=remaining,
        )  # fmt: skip
        if proc.returncode == EXIT_NO_KERNEL:
            raise KernelUnavailable(proc.stderr.strip())
        if proc.returncode != 0:
            raise CheckFailed(
                f"run {tag} exited {proc.returncode}:\n{proc.stderr.strip()}"
            )
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        row.update(tag=tag, subseed=subseed, benchmark_seed=self.seed)
        row["manifest"]["seeds"]["benchmark"] = self.seed
        print(json.dumps({"row": row}), flush=True)
        if traced:
            shutil.move(
                self.out / f"{tag}-trace.npz",
                self.trace_dir / f"{self.workload}-seed{self.seed}-{tag}.npz",
            )
        if row["problems"]:
            raise CheckFailed(f"run {tag}: " + "; ".join(row["problems"]))
        return row

    def latencies(self, row: dict) -> np.ndarray:
        return np.load(self.out / f"{row['tag']}.npy")


def oracle_check(runner: Runner, workload, size: str) -> None:
    """Compiled and oracle runs of a shortened copy must agree bit for bit."""
    duration = workload.oracle_duration[size]
    fast = runner.run(0, duration, KERNEL, traced=False)
    oracle = runner.run(0, duration, ORACLE_KERNEL, traced=False)
    problems = bit_mismatch(
        "latencies", runner.latencies(fast), runner.latencies(oracle)
    )
    for key in ("offered", "completed", "dropped", "shed"):
        if fast[key] != oracle[key]:
            problems.append(f"{key}: {fast[key]} != oracle {oracle[key]}")
    if problems:
        raise CheckFailed("oracle check: " + "; ".join(problems))


def repeat_check(rows: list[dict], first: dict[int, dict]) -> None:
    """Runs of one sub-seed must repeat its simulated results exactly."""
    for row in rows:
        ref = first[row["subseed"]]
        for key in ("digest", "offered", "completed", "dropped", "shed"):
            if row[key] != ref[key]:
                raise CheckFailed(
                    f"run {row['tag']} ({'traced' if row['traced'] else 'untraced'})"
                    f" {key} {row[key]} != run {ref['tag']} {ref[key]} on the same"
                    " scenario seed"
                )


def _scale(row: dict) -> float:
    """Host seconds of *row* -> seconds on the reference host."""
    return REFERENCE_S / row["calibration_s"]


def end_to_end(rows: list[dict], first: dict[int, dict]) -> dict:
    """Host metrics: medians over runs, in reference-host time.

    Simulated metrics come from one run of each sub-seed: delay
    percentiles are the median over those runs of each run's percentile
    (a run has >= 1000 completed queries); goodput and the served
    fraction pool their counts.
    """
    sims = [first[k] for k in sorted(first)]
    return {
        "us_per_query": statistics.median(
            1e6 * r["run_s"] * _scale(r) / r["offered"] for r in rows
        ),
        "setup_s": statistics.median(r["setup_s"] * _scale(r) for r in rows),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rows),
        "sim_delay_p50_s": statistics.median(r["delay_p50_s"] for r in sims),
        "sim_delay_p99_s": statistics.median(r["delay_p99_s"] for r in sims),
        "sim_goodput_qps": sum(r["slo_met"] for r in sims)
        / sum(r["horizon_s"] for r in sims),
        "served_fraction": sum(r["completed"] for r in sims)
        / sum(r["offered"] for r in sims),
    }


def per_layer(untraced: list[dict], traced: list[dict], units: dict) -> dict:
    """Medians of each layer metric over the traced runs.

    Times are medians over every traced run, in reference-host time like
    the end-to-end host metrics.  Counts and fractions are medians over the
    first traced run of each sub-seed, so they repeat exactly for a seed.
    """
    first: dict[int, dict] = {}
    for row in traced:
        first.setdefault(row["subseed"], row)
    out = {}
    for name, unit in units.items():
        if name == "trace.overhead":
            continue
        if unit in ("us", "s"):
            values = [r["layers"][name] * _scale(r) for r in traced]
        else:
            values = [r["layers"][name] for r in first.values()]
        out[name] = statistics.median(values)
    out["trace.overhead"] = (
        statistics.median(r["run_s"] * _scale(r) for r in traced)
        / statistics.median(r["run_s"] * _scale(r) for r in untraced)
        - 1.0
    )
    return out


def measure(
    runner: Runner, workload, size: str, seconds: float, trace: bool, units: dict
) -> dict:
    """The timed loop; returns the metrics named in *units*."""
    n_sub = workload.subseeds[size]
    duration = workload.duration[size]
    start = time.perf_counter()
    untraced: list[dict] = []
    traced: list[dict] = []
    first: dict[int, dict] = {}
    i = 0
    while i < n_sub or time.perf_counter() - start < seconds:
        k = i % n_sub
        row = runner.run(k, duration, KERNEL, traced=False)
        first.setdefault(k, row)
        untraced.append(row)
        if trace:
            traced.append(runner.run(k, duration, KERNEL, traced=True))
        i += 1
    repeat_check(untraced + traced, first)
    if trace:
        return per_layer(untraced, traced, units)
    return end_to_end(untraced, first)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size",
        choices=SIZES,
        default="full",
        help="'small' shrinks every run to a smoke-test size",
    )
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {ROOT / 'src'}; run from the "
            "root of a full checkout",
            file=sys.stderr,
        )
        return EXIT_NO_PROGRAM

    workload = WORKLOADS[args.workload]
    build = ROOT / ".bench_build" / "perfbench"
    trace_dir = build / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    out = build / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    runner = Runner(args.workload, args.seed, out, trace_dir)
    failure = None
    metrics: dict = {}
    try:
        oracle_check(runner, workload, args.size)
        metrics = measure(
            runner, workload, args.size, args.seconds, bool(args.trace), units
        )
    except KernelUnavailable as exc:
        print(f"perfbench: refusing to run without {KERNEL!r}: {exc}", file=sys.stderr)
        return EXIT_NO_KERNEL
    except (CheckFailed, subprocess.TimeoutExpired) as exc:
        failure = str(exc)
        print(f"perfbench: FAILED: {failure}", file=sys.stderr)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    print(
        json.dumps(
            {
                "correct": failure is None,
                "attempted": max(runner.started, 1),
                "failed": 0 if failure is None else 1,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if name in metrics
                },
            }
        )
    )
    return 0 if failure is None else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
