"""designest benchmark: named workloads run end to end through the CLI.

Usage, from the repository root:

    python3 bench/run.py --workload network_mc --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload crd_model_assisted --seed 1 --seconds 1 --trace 0 --smoke

Each run generates its inputs from --seed into a temporary directory inside
the checkout and measures set-up several times. It then repeats a pass of
the workload's CLI stages (moments, bound, complexity, simulate, then
repeated estimate calls) closed-loop for --seconds, with one caller in this
process; every pass does the same work, and the first pass is a warm-up and
is not measured. Every pass's outputs are checked against references.

--trace 0 prints the end-to-end metrics: medians over passes of times
scaled to a reference host speed (see calibration.py), and the median of the
set-up samples, unscaled. --trace 1 prints per-layer metrics from spans
recorded around the package's public functions, plus the tracing overhead
against an untraced pass. The last line of standard output is the result
object; the line before it holds the environment record and run details.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp" / str(os.getpid())
WORKLOADS = ("network_mc", "crd_model_assisted", "cluster_exact")
SETUP_REPEATS = 3
MIN_PASSES = 5  # measured passes, after the warm-up pass
MIN_ESTIMATE_CALLS = 100  # so that estimate_p90_ms has ten samples beyond it
ESTIMATE_GROUP = 5  # estimate calls between two runs of the calibration kernel
STAGE_NAMES = ("moments", "bound", "complexity", "simulate")
BLAS_THREADS = 1


def limit_blas_threads():
    """Run BLAS/OpenMP single-threaded; must run before numpy is imported.
    Over ten runs of network_mc on a 2-vCPU VM, two BLAS threads spread
    moments_s and bound_s by 0.25 and 0.22 of their medians (quartile
    distance), one thread by 0.16 and 0.10. Returns the thread count."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same checks")
    return parser.parse_args(argv)


# ------------------------------------------------------------------ environment


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of this repository
    return lines[1]


def environment(args, threads):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy without the dict form
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "simulate_workers": 1,
    }


# ------------------------------------------------------------------ measuring


def measure_setup(workload, seed, sizes, repeats):
    """Set-up samples: a fresh interpreter importing the CLI, plus generating
    every input file."""
    import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import designest.cli"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        with tempfile.TemporaryDirectory(dir=TMP_DIR) as wd:
            workloads.generate(workload, seed, wd, sizes)
        samples.append(time.perf_counter() - t0)
    return samples


@dataclass
class Pass:
    times: dict = field(default_factory=dict)  # stage -> seconds
    estimate_s: list = field(default_factory=list)
    kernel_s: dict = field(default_factory=dict)  # stage -> calibration kernel time around it
    estimate_kernel_s: list = field(default_factory=list)  # the same, per estimate call
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)

    @property
    def total_s(self):
        return sum(self.times.values()) + sum(self.estimate_s)

    def at_reference_speed(self):
        """The pass's times scaled to the calibration's reference speed."""
        import calibration

        ref = calibration.REFERENCE_S
        return Pass(times={name: t * ref / self.kernel_s[name] for name, t in self.times.items()},
                    estimate_s=[t * ref / k for t, k in zip(self.estimate_s, self.estimate_kernel_s)])


def run_pass(stage_list, cli):
    """One closed-loop pass over the stages, calling cli.main looked up at
    call time (so that a tracer's wrapper is used). The calibration kernel
    runs before the first stage, after each other stage and after every
    ESTIMATE_GROUP estimate calls (which come last). Returns the pass,
    captured stdout per stage, and failed calls."""
    import calibration

    one = Pass()
    stdout, failed = {}, []
    kernel = calibration.kernel_seconds()
    pending = 0  # estimate calls since the last calibration
    for i, stage in enumerate(stage_list):
        if stage.out:
            Path(stage.out).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(stage.argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        dt = time.perf_counter() - t0
        if code != 0:
            failed.append((stage.name, code, err.getvalue()[-500:]))
        if stage.name == "estimate":
            one.estimate_s.append(dt)
            pending += 1
            if pending < ESTIMATE_GROUP and i + 1 < len(stage_list):
                continue
        else:
            one.times[stage.name] = dt
            stdout[stage.name] = out.getvalue()
        after = calibration.kernel_seconds()
        if stage.name == "estimate":
            one.estimate_kernel_s += [(kernel + after) / 2] * pending
            pending = 0
        else:
            one.kernel_s[stage.name] = (kernel + after) / 2
        kernel = after
    return one, stdout, failed


def run_passes(workload, inputs, cli, seconds=0.0, min_passes=1, min_calls=0):
    """Run passes closed-loop until one more would overrun `seconds`, and at
    least min_passes passes and min_calls estimate calls have run; check
    every pass's outputs."""
    import workloads

    passes = []
    start = time.perf_counter()
    while True:
        stage_list = workloads.stages(workload, inputs)
        one, stdout, failed = run_pass(stage_list, cli)
        if failed:
            raise workloads.CheckFailed(f"CLI calls failed: {failed[:3]}")
        one.notes = workloads.check_stage_outputs(workload, inputs, stdout)
        one.attempted, one.failed = _operations(inputs)
        passes.append(one)
        elapsed = time.perf_counter() - start
        typical = elapsed / len(passes)
        calls = sum(len(p.estimate_s) for p in passes)
        if len(passes) >= min_passes and calls >= min_calls and elapsed + typical > seconds:
            return passes


def _operations(inputs):
    """(attempted, failed): estimator x replication operations of the
    simulate stage plus one per estimate call."""
    sim = json.loads((inputs.workdir / "simulate.json").read_text())
    attempted = sim["replications"] * len(sim["failures"]) + inputs.sizes["estimate_calls"]
    return attempted, sum(sim["failures"].values())


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def end_to_end_metrics(passes, setup_s, sizes):
    """Medians over passes; the estimate percentiles pool every call."""
    med = {name: statistics.median(p.times[name] for p in passes) for name in STAGE_NAMES}
    calls = [dt for p in passes for dt in p.estimate_s]
    return {
        "setup_s": (setup_s, "s"),
        "total_s": (statistics.median(p.total_s for p in passes), "s"),
        "moments_s": (med["moments"], "s"),
        "bound_s": (med["bound"], "s"),
        "complexity_s": (med["complexity"], "s"),
        "simulate_reps_per_s": (sizes["replications"] / med["simulate"], "1/s"),
        "estimate_p50_ms": (1e3 * percentile(calls, 50), "ms"),
        "estimate_p90_ms": (1e3 * percentile(calls, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "designest" / "__init__.py").is_file():
        print(f"error: no designest sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    threads = limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads

    sizes = (workloads.SMOKE_SIZES if args.smoke else workloads.SIZES)[args.workload]
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    try:
        result, detail = measure(args, sizes)
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_DIR.parent.rmdir()  # only when no other run is using it
    detail["environment"] = environment(args, threads)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}{'_smoke' if args.smoke else ''}"
    (OUT_DIR / f"{tag}.json").write_text(json.dumps({"result": result, "detail": detail}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(args, sizes):
    """Run the workload once; returns (result object, details)."""
    import calibration
    import workloads

    detail = {"sizes": sizes}
    if not args.trace:
        repeats = 1 if args.smoke else SETUP_REPEATS
        detail["setup_s_samples"] = measure_setup(args.workload, args.seed, sizes, repeats)
    t0 = time.perf_counter()
    import designest.cli

    detail["import_s"] = time.perf_counter() - t0
    with tempfile.TemporaryDirectory(dir=TMP_DIR) as wd:
        inputs = workloads.generate(args.workload, args.seed, wd, sizes)
        try:
            if args.trace:
                metrics, detail["layers"], passes = traced(args, inputs, designest.cli)
            else:
                # the first pass is a warm-up: lazy imports and first-call
                # costs stay out of the metrics
                minimum = (1, 0) if args.smoke else (MIN_PASSES, MIN_ESTIMATE_CALLS)
                passes = run_passes(args.workload, inputs, designest.cli, args.seconds,
                                    minimum[0] + 1, minimum[1] + sizes["estimate_calls"])[1:]
                setup_s = statistics.median(detail["setup_s_samples"])
                scaled = [p.at_reference_speed() for p in passes]
                metrics = {k: {"value": v, "unit": u}
                           for k, (v, u) in end_to_end_metrics(scaled, setup_s, sizes).items()}
            correct, error = True, None
        except workloads.CheckFailed as exc:
            correct, error, passes, metrics = False, str(exc), [], {}
    attempted = sum(p.attempted for p in passes) or 1
    failed = sum(p.failed for p in passes)
    kernels = [k for p in passes for k in [*p.kernel_s.values(), *p.estimate_kernel_s]]
    detail.update({
        "passes": len(passes),
        "kernel_s_median": statistics.median(kernels) if kernels else None,
        "kernel_reference_s": calibration.REFERENCE_S,
        "pass_seconds": [{**{k: round(v, 6) for k, v in p.times.items()},
                          "total": round(p.total_s, 6),
                          "kernel": {k: round(v, 6) for k, v in p.kernel_s.items()}} for p in passes],
        "check_notes": [p.notes for p in passes if p.notes],
        "estimate_samples": sum(len(p.estimate_s) for p in passes),

        "failure_rate": failed / attempted,
        "failure_base": attempted,
        "error": error,
    })
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, detail


def traced(args, inputs, cli):
    """Per-layer metrics over traced passes; the first traced pass repeats
    an untraced baseline pass so that their difference is the overhead."""
    import layers
    import tracing

    run_passes(args.workload, inputs, cli)  # warm-up
    baseline = run_passes(args.workload, inputs, cli)[0]
    with tracing.Tracer(on_result=layers.RESULT_HOOKS) as tracer:
        passes = run_passes(args.workload, inputs, cli, args.seconds, 1, 1)
    traced_total = statistics.mean(p.total_s for p in passes)
    overhead = passes[0].total_s - baseline.total_s
    metrics, extra = layers.per_layer_metrics(tracer, len(passes), traced_total, overhead)
    tag = f"{args.workload}_seed{args.seed}{'_smoke' if args.smoke else ''}"
    OUT_DIR.mkdir(exist_ok=True)
    layers.write_spans(tracer, OUT_DIR / f"spans_{tag}.csv")
    return metrics, extra, passes


if __name__ == "__main__":
    sys.exit(main())
