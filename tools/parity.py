"""Check that two checkouts of designest give the same CLI outputs.

    python tools/parity.py BASE HEAD

BASE and HEAD are checkout roots, for instance a `git worktree` of the parent
commit and the working tree. Every input is written once into a temporary
directory; each case then runs `python -m designest.cli` under BASE/src and
under HEAD/src. The cases are small designs of every kind (moments, bound
verdicts, complexity), Monte-Carlo moments and complexity, every estimator table row (estimate, simulate), the
first-stage rows on one draw of each closed-form design (estimate's
closed-form observed-block route, and on the crd draw with Monte-Carlo
moments the block gathered from the full moments), the psd clip of the crd
draw and of a 40-unit exposure design's Monte-Carlo moments (the full
spectrum's clip), a simulate whose logistic fits mostly separate, one
whose opt_logit criterion has an unpenalized interior minimum, and
every stage of the benchmark's three workloads at benchmark sizes (inputs
from HEAD's bench/workloads.py). One line per case:
the digest of its exit code, stdout, error message and output files,
MISMATCH with both digests, or which run failed (a traceback, or an output
file missing after exit 0). Exits 1 on any mismatch or failed run.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

RULES = ("rules: [{label: d11, own_arms: [2], counts: {2: [1, null]}}, {label: d10, own_arms: [2], counts: {2: [0, 0]}},"
         " {label: d01, own_arms: [1], counts: {2: [1, null]}}, {label: d00, own_arms: [1], counts: {2: [0, 0]}}]}")
DESIGNS = {
    "bernoulli": "{kind: bernoulli, n: 6, probs: [0.2, 0.3, 0.5]}",
    "crd": "{kind: completely_randomized, n: 9, counts: [2, 3, 4]}",
    "stratified": "{kind: stratified, strata: [[0, 4, 8], [1, 2], [3, 5, 6, 7]],"
                  " counts: [[1, 2, 0], [1, 0, 1], [2, 1, 1]]}",
    "clustered": "{kind: clustered, cluster_of: [0, 1, 2, 3, 0, 1, 2, 3, 3],"
                 " cluster_design: {kind: completely_randomized, n: 4, counts: [1, 2, 1]}}",
    "exposure": "{kind: exposure_derived, base: {kind: bernoulli, n: 6, probs: [0.4, 0.6]},"
                " edges: [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0], [0, 3]], " + RULES,
    "crd400": "{kind: completely_randomized, n: 200, counts: [100, 100]}",  # complexity by Lanczos
}
# Monte-Carlo draws of a Bernoulli design with a zero-probability arm (its
# cells are structural zeros), and complexity's arm-pair blocks of the exposure
# design's Monte-Carlo moments: every cell is hit in 3000 draws, and two are
# never hit (possibly zero) in 20.
BERNOULLI_ZERO = "{kind: bernoulli, n: 6, probs: [0.3, 0, 0.7]}"
MC_CASES = [("moments --mc bernoulli_zero", ["moments", "--design", "bernoulli_zero.yaml", "--mc", "4000",
                                              "--out", "m.npz"], ["m.npz"], None)]
MC_CASES += [(f"complexity --mc {reps} exposure", ["complexity", "--design", "exposure.yaml", "--mc", reps],
              [], None) for reps in ("3000", "20")]
ESTIMATORS = ("ht,hajek,ols,wls,ci,mi,gr,noharm_wls,qmle_logit,noharm_logit,"
              "opt_linear,opt_logit,opt_i_ols,opt_i_logit")
RECIPE = f"""design: {{kind: completely_randomized, n: 12, counts: [5, 7]}}
covariates: {{csv: x.csv}}
outcome: {{coeffs: [0.8, -0.4], intercepts: [-0.3, 0.5], seed: 6}}
estimators: [{ESTIMATORS}]
contrast: [-1, 1]
seed: 3
"""
# One draw of each closed-form design, for the first-stage rows: estimate fits
# them on the observed block of the moments. The hand stratified design has
# empty arms, so its bound is refused; stratified_live has none.
FIRST_STAGE = "ht,hajek,ols,wls,ci,mi,gr,qmle_logit"
DRAWS = {
    "bernoulli": [0, 2, 1, 2, 1, 2],
    "crd": [2, 0, 1, 2, 1, 2, 0, 2, 1],
    "stratified": [1, 2, 0, 0, 0, 1, 0, 2, 1],
    "stratified_live": [2, 0, 1, 2, 0, 1, 1, 2, 0, 0, 1, 2],
}
# Exposures of a Bernoulli(1/2) design on a 40-unit ring with a chord to the
# opposite unit.
EXPOSURE40 = ("{kind: exposure_derived, base: {kind: bernoulli, n: 40, probs: [0.5, 0.5]}, edges: ["
              + ", ".join(f"[{i}, {(i + 1) % 40}]" for i in range(40)) + ", "
              + ", ".join(f"[{i}, {i + 20}]" for i in range(20)) + "], " + RULES)
STRATIFIED_LIVE = ("{kind: stratified, strata: [[0, 4, 8], [1, 2, 3, 5, 6, 7, 9, 10, 11]],"
                   " counts: [[1, 1, 1], [3, 3, 3]]}")
# Most draws separate in the two-unit arm, so the logistic fits halve their
# Newton steps past the first block of levels (model_assisted._HALVING_BLOCKS).
SEPARATING = """design: {kind: completely_randomized, n: 12, counts: [2, 5, 5]}
covariates: {csv: x.csv}
outcome: {coeffs: [0.8, -0.4], intercepts: [-0.3, 0.5, 0.1], seed: 6}
estimators: [qmle_logit, noharm_logit, opt_i_logit]
contrast: [-1, 1, 0]
seed: 3
replications: 20
"""
# This population's opt_logit criterion has an interior minimum even without
# the ridge penalty (model_assisted._certified_newton); RECIPE's population
# has none, so only the ridge gives its criterion one.
NEWTON = """design: {kind: completely_randomized, n: 30, counts: [12, 18]}
covariates: {generate: {p: 2, seed: 21}}
outcome: {coeffs: [0.9, -0.6], intercepts: [-0.4, 0.5], seed: 4}
estimators: [qmle_logit, opt_logit]
contrast: [-1, 1]
seed: 3
replications: 20
"""
SIMULATE = {"simulate": "", "simulate_psd_clip": "psd_clip: true\n",
            "simulate_mc": "moments: {method: mc, reps: 3000}\n", "simulate_neyman": "bound: neyman\n"}
SIM_OUT = ["--out", "sim.csv", "--json", "sim.json"]


def verdicts(code, stdout, errors, outputs):
    """bound --report's verdicts; its eigenvalue field may move."""
    keys = ("psd_ok", "identified_ok", "mask_violations")
    return code, errors, outputs[0] and [json.loads(outputs[0])[key] for key in keys]


def hand_cases(d):
    """Writes the hand-made cases' inputs into d; returns the cases as
    (name, argv, output files, view of the run or None for all of it)."""
    cases = []
    for name, design in DESIGNS.items():
        (d / f"{name}.yaml").write_text(f"design: {design}\n")
        if name != "crd400":
            cases += [(f"moments {name}", ["moments", "--design", f"{name}.yaml", "--exact",
                                           "--out", "m.npz"], ["m.npz"], None),
                      (f"bound {name}", ["bound", "--design", f"{name}.yaml", "--report", "cert.json"],
                       ["cert.json"], verdicts)]
        cases += [(f"complexity {name}{flag}", ["complexity", "--design", f"{name}.yaml", *flag.split()],
                   [], None) for flag in ("", " --zero-diag")]
    (d / "bernoulli_zero.yaml").write_text(f"design: {BERNOULLI_ZERO}\n")
    cases += MC_CASES
    rng = np.random.default_rng(11)
    arms = rng.permutation([1] * 5 + [2] * 7)
    x = rng.standard_normal((12, 2))
    y = (x[:, 0] - 0.5 * x[:, 1] + (arms - 1.5) > rng.logistic(size=12)).astype(int)
    (d / "y.csv").write_text("unit_id,arm,y\n" + "".join(f"{i},{a},{v}\n" for i, (a, v) in enumerate(zip(arms, y))))
    (d / "x.csv").write_text("unit_id,x1,x2\n" + "".join(f"{i},{a:.17g},{b:.17g}\n" for i, (a, b) in enumerate(x)))
    (d / "design.yaml").write_text(RECIPE.splitlines()[0] + "\n")
    estimate = ["estimate", "--design", "design.yaml", "--data", "y.csv", "--covariates", "x.csv",
                "--estimators", ESTIMATORS, "--contrast=-1,1", "--out", "estimate.json"]
    cases += [(f"estimate{flag}", estimate + flag.split(), ["estimate.json"], None)
              for flag in ("", " --psd-clip")]
    (d / "stratified_live.yaml").write_text(f"design: {STRATIFIED_LIVE}\n")
    for name, draw in DRAWS.items():
        x = rng.standard_normal(len(draw))
        y = (x + 0.5 * np.array(draw) > rng.logistic(size=len(draw))).astype(int)
        (d / f"y_{name}.csv").write_text("unit_id,arm,y\n" + "".join(
            f"{i},{a + 1},{v}\n" for i, (a, v) in enumerate(zip(draw, y))))
        (d / f"x_{name}.csv").write_text("unit_id,x1\n" + "".join(f"{i},{v:.17g}\n" for i, v in enumerate(x)))
        first_stage = ["estimate", "--design", f"{name}.yaml", "--data", f"y_{name}.csv", "--covariates",
                       f"x_{name}.csv", "--estimators", FIRST_STAGE, "--contrast=-1,0.5,0.5",
                       "--out", "estimate.json"]
        cases.append((f"estimate first-stage {name}", first_stage, ["estimate.json"], None))
        if name == "crd":
            cases.append(("estimate first-stage crd --mc 3000", first_stage + ["--mc", "3000"],
                          ["estimate.json"], None))
            cases.append(("estimate first-stage crd --psd-clip", first_stage + ["--psd-clip"],
                          ["estimate.json"], None))
    # the clip of Monte-Carlo moments with more negative eigenvalues than the
    # certified clip takes: the full spectrum's
    (d / "exposure40.yaml").write_text(f"design: {EXPOSURE40}\n")
    base = rng.integers(0, 2, size=40)
    treated_neighbours = base[(np.arange(40) + 1) % 40] + base[(np.arange(40) - 1) % 40] + base[
        (np.arange(40) + 20) % 40]
    arms = 1 + 2 * (1 - base) + (treated_neighbours == 0)  # d11, d10, d01, d00
    y = arms + rng.standard_normal(40)
    (d / "y_exposure40.csv").write_text("unit_id,arm,y\n" + "".join(
        f"{i},{a},{v:.17g}\n" for i, (a, v) in enumerate(zip(arms, y))))
    cases.append(("estimate --psd-clip exposure40 --mc 300",
                  ["estimate", "--design", "exposure40.yaml", "--data", "y_exposure40.csv",
                   "--estimators", "ht,hajek", "--contrast=1,0,0,-1", "--mc", "300", "--seed", "1",
                   "--psd-clip", "--out", "estimate.json"], ["estimate.json"], None))
    for name, extra in SIMULATE.items():
        (d / f"{name}.yaml").write_text(RECIPE + "replications: 20\n" + extra)
        cases.append((name, ["simulate", "--config", f"{name}.yaml", *SIM_OUT], SIM_OUT[1::2], None))
    for name, recipe in (("simulate_separating", SEPARATING), ("simulate_newton", NEWTON)):
        (d / f"{name}.yaml").write_text(recipe)
        cases.append((name, ["simulate", "--config", f"{name}.yaml", *SIM_OUT], SIM_OUT[1::2], None))
    (d / "simulate150.yaml").write_text(RECIPE + "replications: 150\n")
    return cases


def workload_cases(head, d):
    """Writes the benchmark workloads' inputs into d; returns their stages."""
    sys.path.insert(0, str(head / "bench"))
    import workloads

    cases = []
    for workload, sizes in workloads.SIZES.items():
        (d / workload).mkdir()
        inputs = workloads.generate(workload, 1, d / workload, sizes)
        cases += [(f"{workload} {i:02d} {stage.name}", stage.argv, [stage.out] if stage.out else [], None)
                  for i, stage in enumerate(workloads.stages(workload, inputs))]
    return cases


def run(root, argv, outputs, view, cwd):
    """The digest of one CLI run under root/src, or None when it failed."""
    for out in outputs:
        Path(cwd, out).unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "-m", "designest.cli", *argv], cwd=cwd,
                          capture_output=True, env={**os.environ, "PYTHONPATH": str(root / "src")})
    data = [Path(cwd, out).read_bytes() if Path(cwd, out).is_file() else None for out in outputs]
    if b"Traceback" in proc.stderr or proc.returncode == 0 and None in data:
        return None
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith(b"error:")]
    result = proc.returncode, proc.stdout, errors, data
    return hashlib.sha256(repr(view(*result) if view else result).encode()).hexdigest()[:16]


def line(name, sides, digests):
    """One case's report line, and whether it passed."""
    failed = [side for side, digest in zip(sides, digests) if digest is None]
    if failed:
        return f"{name}: {' and '.join(failed)} run failed", False
    if digests[0] != digests[1]:
        return f"{name}: MISMATCH {sides[0]} {digests[0]}, {sides[1]} {digests[1]}", False
    return f"{name}: {digests[0]}", True


def main(base, head):
    base, head = Path(base).resolve(), Path(head).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        cases = hand_cases(d) + workload_cases(head, d)
        # every run of BASE, then every run of HEAD: a workload's later stages
        # read the moments file that its moments stage wrote on the same side
        digests = [[run(root, argv, outs, view, d) for _, argv, outs, view in cases]
                   for root in (base, head)]
        lines = [line(case[0], ("base", "head"), pair) for case, pair in zip(cases, zip(*digests))]
        simulate = ["simulate", "--config", "simulate150.yaml", *SIM_OUT, "--workers"]
        workers = [run(head, simulate + [w], SIM_OUT[1::2], None, d) for w in "12"]
        lines.append(line("simulate --workers 1 against 2", ("workers 1", "workers 2"), workers))
    print("\n".join(text for text, _ in lines))
    return 0 if all(ok for _, ok in lines) else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]) if len(sys.argv) == 3 else __doc__)
