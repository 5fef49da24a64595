import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibration
import run
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DEFINITION["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def smoke(workload, seed, trace):
    out = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                    "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_the_declared_metrics(workload, trace):
    result = smoke(workload, workloads.DEFAULT_SEED, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in DEFINITION["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if trace:
        # cli.main is the root of every span, so layer self times cover the pass
        assert result["metrics"]["cli.self_s"]["value"] > 0
        assert result["metrics"]["trace.self_share"]["value"] > 0.9
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_pass_on_the_held_out_seed(workload):
    assert smoke(workload, workloads.HELD_OUT_SEED, 0)["correct"]


def test_times_are_scaled_by_the_calibration_around_them():
    ref = calibration.REFERENCE_S
    one = run.Pass(times={"moments": 2.0, "bound": 1.0}, estimate_s=[0.1, 0.3],
                   kernel_s={"moments": 2 * ref, "bound": ref}, estimate_kernel_s=[ref / 2, ref])
    scaled = one.at_reference_speed()
    assert scaled.times == pytest.approx({"moments": 1.0, "bound": 1.0})
    assert scaled.estimate_s == pytest.approx([0.2, 0.3])
    assert scaled.total_s == pytest.approx(2.5)


def test_definition_records_each_workloads_sizes():
    assert sorted(WORKLOADS) == sorted(workloads.SIZES)
    for item in DEFINITION["workloads"]:
        for key, value in workloads.SIZES[item["name"]].items():
            assert f"{key}={value}" in item["why"], (item["name"], key)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
