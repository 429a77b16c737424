"""Tests of the benchmark itself: output contract, checks, failure modes.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args, cwd=ROOT, env=None, timeout=300):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smallest_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", trace, "--size", "small",
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = run.metric_units("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for value in result["metrics"].values():
        assert np.isfinite(value["value"])
    if trace == "0":
        for name in units:
            assert result["metrics"][name]["value"] > 0, name


def test_same_seed_repeats_simulated_metrics_exactly():
    a, b = (
        _last_json(
            _bench(
                "--workload", "rack-failure", "--seed", "5", "--seconds", "0",
                "--size", "small",
            ).stdout
        )["metrics"]
        for _ in range(2)
    )  # fmt: skip
    for name in ("sim_delay_p50_s", "sim_delay_p99_s", "sim_goodput_qps", "served_fraction"):
        assert a[name]["value"] == b[name]["value"], name


def test_perturbed_latency_fails_the_oracle_check(tmp_path):
    class Perturbing(run.Runner):
        def latencies(self, row):
            lat = super().latencies(row)
            if row["kernel"] == "exact_numpy":
                i = int(np.flatnonzero(~np.isnan(lat))[0])
                lat[i] = np.nextafter(lat[i], np.inf)
            return lat

    runner = Perturbing("zipf-updates", 1, tmp_path, tmp_path)
    with pytest.raises(run.CheckFailed, match="differ from the oracle"):
        run.oracle_check(runner, WORKLOADS["zipf-updates"], "small")
    # unperturbed, the same check passes
    run.oracle_check(run.Runner("zipf-updates", 1, tmp_path, tmp_path),
                     WORKLOADS["zipf-updates"], "small")


def test_perturbed_count_fails_conservation(tmp_path, monkeypatch, capsys):
    import child
    from repro.scenarios import runner

    original = runner.run_scenario_spec

    def one_more_drop(*args, **kwargs):
        result = original(*args, **kwargs)
        return dataclasses.replace(result, dropped=result.dropped + 1)

    monkeypatch.setattr(runner, "run_scenario_spec", one_more_drop)
    child.main([
        "--workload", "steady-t73", "--scenario-seed", "1", "--duration", "2.0",
        "--kernel", "compiled", "--out", str(tmp_path), "--tag", "t",
    ])  # fmt: skip
    row = _last_json(capsys.readouterr().out)
    assert any("offered" in p and "dropped" in p for p in row["problems"])


def test_conservation_accepts_consistent_counts_and_rejects_others():
    lat = np.array([0.1, np.nan, 0.2, np.nan])
    assert checks.conservation_problems(4, 2, 1, 1, 4, lat) == []
    assert checks.conservation_problems(4, 2, 2, 1, 4, lat)
    assert checks.conservation_problems(4, 2, 1, 1, 5, lat)
    assert checks.conservation_problems(4, 3, 0, 1, 4, lat)


def test_repeated_subseed_with_other_latencies_fails():
    first = {0: {"tag": "a", "subseed": 0, "digest": "x", "offered": 1,
                 "completed": 1, "dropped": 0, "shed": 0}}
    again = dict(first[0], tag="b", digest="y", traced=True)
    with pytest.raises(run.CheckFailed, match="digest"):
        run.repeat_check([again], first)


def test_checkout_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _bench(
        "--workload", "steady-t73", "--seed", "1", "--seconds", "1",
        cwd=tmp_path, timeout=180,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_unavailable_compiled_kernel_fails_loudly_with_the_reason():
    env = dict(os.environ, REPRO_NO_COMPILED_KERNEL="1")
    proc = _bench(
        "--workload", "steady-t73", "--seed", "1", "--seconds", "0",
        "--size", "small", env=env,
    )  # fmt: skip
    assert proc.returncode == run.EXIT_NO_KERNEL
    assert "REPRO_NO_COMPILED_KERNEL" in proc.stderr
    assert '"metrics"' not in proc.stdout
