"""Benchmark workloads: seeded input generation, the CLI stages each
workload runs, and the output checks every run must pass.

The program sees only the files written here (graph, cluster and covariate
CSVs, observed-data CSVs and YAML recipes). Everything this module computes
as a reference uses plain numpy, never the package under test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np
import yaml

DEFAULT_SEED = 1
HELD_OUT_SEED = 20231111

# Sizes are fixed per workload; BENCHMARK.json repeats them in each workload's
# reason so that a size change shows in the benchmark definition.
# A pass takes 1.5-3 s, so that the medians of a 30-s run are over eight or more
# passes.
SIZES = {
    "network_mc": {"n": 100, "mc_draws": 2000, "replications": 100, "estimate_calls": 20},
    "crd_model_assisted": {"n": 200, "replications": 2, "estimate_calls": 20},
    "cluster_exact": {"clusters": 14, "replications": 100, "estimate_calls": 20},
}

SMOKE_SIZES = {
    "network_mc": {"n": 100, "mc_draws": 2000, "replications": 100, "estimate_calls": 3},
    "crd_model_assisted": {"n": 40, "replications": 1, "estimate_calls": 3},
    "cluster_exact": {"clusters": 8, "replications": 20, "estimate_calls": 3},
}

OBSERVED_DATASETS = 5  # estimate calls cycle through this many observed files
# Where the program's cost depends on the data, the data that set it are a
# fixed instance and the run seed draws only the observed datasets of the
# estimate calls; otherwise run-to-run spreads measure the data, not the code:
# - crd_model_assisted: the logistic variance-minimizing fit (opt_logit)
#   costs 0.5 s to 25 s per replication depending on the population, and
#   fails every restart on some (instance seed 1).
# - network_mc: the complexity stage's power iteration takes 1.5 s to 4 s at
#   n=150 depending on the gap between the top eigenvalues of the sampled D,
#   which moves with the Monte-Carlo draws and any relabelling of the units;
#   and a few replications in a hundred run the logistic QMLE to its
#   iteration cap (about 0.23 s each against 1.5 ms), so the population and
#   the replication seeds set the simulate time.
# - cluster_exact: the power iteration's step count depends on the unit order
#   (its start vector is fixed): at the same cluster sizes, the complexity
#   stage took 0.096 s on one cluster membership and 0.125-0.13 s on four
#   others, run after run.
INSTANCE_SEEDS = {"network_mc": 2026, "crd_model_assisted": 5, "cluster_exact": 1}
P_COVARIATES = 3
COEFFS = [0.8, 0.6, -0.5]
NETWORK_INTERCEPTS = [1.0, -1.5, 0.2, -0.5]  # exposure arms d11, d10, d01, d00
TWO_ARM_INTERCEPTS = [0.3, -0.2]
NETWORK_PI = np.array([0.4375, 0.0625, 0.4375, 0.0625])  # 3-regular, Bernoulli(1/2)
CLUSTER_SIZES = (10, 12, 14, 16, 18, 20, 22, 24)  # cycled over the clusters

ALL_ESTIMATORS = (
    "ht",
    "hajek",
    "ols",
    "wls",
    "noharm_wls",
    "qmle_logit",
    "noharm_logit",
    "opt_linear",
    "opt_logit",
    "opt_i_ols",
    "opt_i_logit",
)

EXPOSURE_RULES = [
    {"label": "d11", "own_arms": [2], "counts": {2: [1, None]}},
    {"label": "d10", "own_arms": [2], "counts": {2: [0, 0]}},
    {"label": "d01", "own_arms": [1], "counts": {2: [1, None]}},
    {"label": "d00", "own_arms": [1], "counts": {2: [0, 0]}},
]


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's reference."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Inputs:
    """Generated input files plus what the checks need to know about them."""

    workdir: Path
    sizes: dict
    observed: list = field(default_factory=list)  # (csv path, arm_of, y)
    meta: dict = field(default_factory=dict)


@dataclass
class Stage:
    name: str  # metric stage: moments, bound, complexity, simulate, estimate
    argv: list
    out: str | None = None  # output file the stage must (re)write


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_yaml(path, payload):
    with open(path, "w") as fh:
        yaml.safe_dump(payload, fh, sort_keys=False)


def _latent_outcomes(X, intercepts, rng):
    """k x n binary potential outcomes from a latent logistic threshold."""
    shocks = rng.logistic(size=X.shape[0])
    index = X @ np.asarray(COEFFS)
    return np.array([(b + index > shocks).astype(float) for b in intercepts])


def _covariates(rng, n, path):
    X = rng.standard_normal((n, P_COVARIATES))
    _write_csv(path, ["unit_id"] + [f"x{j + 1}" for j in range(P_COVARIATES)],
               [[i, *map(float, X[i])] for i in range(n)])
    return X


def _write_observed(inputs, index, arm_of, y_full):
    path = inputs.workdir / f"observed_{index}.csv"
    n = len(arm_of)
    y = y_full[arm_of, np.arange(n)]
    _write_csv(path, ["unit_id", "arm", "y"], [[i, int(arm_of[i]) + 1, float(y[i])] for i in range(n)])
    inputs.observed.append((str(path), arm_of, y))


def _write_recipe(inputs, rng, recipe):
    """The simulation recipe with a replication seed drawn from rng. Every
    pass runs this one recipe, so that every pass does the same work."""
    _write_yaml(inputs.workdir / "simulate.yaml", {**recipe, "seed": int(rng.integers(2**31))})


def ring_with_chords(n):
    """The acceptance-criterion graph: a ring plus a chord from each unit to
    the one opposite, 3-regular, with directed edges both ways."""
    edges = []
    for i in range(n):
        for j in ((i + 1) % n, (i + n // 2) % n):
            edges += [(i, j), (j, i)]
    return edges


def exposure_of(base_z, neighbors):
    """Exposure arm (0-based index into EXPOSURE_RULES) from a 0/1 base draw."""
    treated_nbrs = np.array([base_z[nb].sum() for nb in neighbors])
    own = base_z == 1
    any_nbr = treated_nbrs > 0
    return np.where(own, np.where(any_nbr, 0, 1), np.where(any_nbr, 2, 3))


def generate(workload, seed, workdir, sizes):
    """Write every input file of the workload into workdir. `rng` draws the
    observed datasets; `instance`, seeded from INSTANCE_SEEDS, draws
    everything else."""
    rng = np.random.default_rng([seed, 7919])
    instance_seed = INSTANCE_SEEDS[workload]
    instance = np.random.default_rng([instance_seed, 7919])
    inputs = Inputs(workdir=Path(workdir), sizes=dict(sizes))
    return {"network_mc": _gen_network, "crd_model_assisted": _gen_crd,
            "cluster_exact": _gen_cluster}[workload](inputs, rng, instance, instance_seed)


def _gen_network(inputs, rng, instance, instance_seed):
    n = inputs.sizes["n"]
    wd = inputs.workdir
    edges = ring_with_chords(n)
    _write_csv(wd / "edges.csv", ["src_id", "dst_id"], edges)
    neighbors = [[] for _ in range(n)]
    for a, b in edges:
        neighbors[a].append(b)
    neighbors = [np.array(nb) for nb in neighbors]
    X = _covariates(instance, n, wd / "covariates.csv")
    design = {
        "kind": "exposure_derived",
        "base": {"kind": "bernoulli", "n": n, "probs": [0.5, 0.5]},
        "edges_csv": str(wd / "edges.csv"),
        "rules": EXPOSURE_RULES,
    }
    _write_yaml(wd / "design.yaml", {"design": design})
    y_full = _latent_outcomes(X, NETWORK_INTERCEPTS, instance)
    for j in range(OBSERVED_DATASETS):
        while True:  # every exposure arm observed, so each estimator is defined
            arm_of = exposure_of(rng.integers(0, 2, size=n), neighbors)
            if len(np.unique(arm_of)) == 4:
                break
        _write_observed(inputs, j, arm_of, y_full)
    _write_recipe(inputs, instance, {
        "design": design,
        "covariates": {"csv": str(wd / "covariates.csv")},
        "outcome": {"coeffs": COEFFS, "intercepts": NETWORK_INTERCEPTS, "seed": instance_seed + 7},
        "estimators": ["ht", "qmle_logit"],
        "contrast": [0, 1, 0, -1],
        "replications": inputs.sizes["replications"],
        "moments": {"npz": str(wd / "moments.npz")},
    })
    inputs.meta = {"contrast": "0,1,0,-1", "estimators": "ht,hajek,wls", "moments_seed": instance_seed}
    return inputs


def _gen_crd(inputs, rng, instance, instance_seed):
    n = inputs.sizes["n"]
    wd = inputs.workdir
    X = _covariates(instance, n, wd / "covariates.csv")
    design = {"kind": "completely_randomized", "n": n, "counts": [n // 2, n - n // 2]}
    _write_yaml(wd / "design.yaml", {"design": design})
    y_full = _latent_outcomes(X, TWO_ARM_INTERCEPTS, instance)
    labels = np.repeat([0, 1], design["counts"])
    for j in range(OBSERVED_DATASETS):
        _write_observed(inputs, j, rng.permutation(labels), y_full)
    _write_recipe(inputs, instance, {
        "design": design,
        "covariates": {"csv": str(wd / "covariates.csv")},
        "outcome": {"coeffs": COEFFS, "intercepts": TWO_ARM_INTERCEPTS, "seed": instance_seed + 7},
        "estimators": list(ALL_ESTIMATORS),
        "contrast": [-1, 1],
        "replications": inputs.sizes["replications"],
        "moments": {"npz": str(wd / "moments.npz")},
    })
    inputs.meta = {"contrast": "-1,1", "estimators": "ht,hajek,ols,wls,ci,mi,gr",
                   "counts": design["counts"]}
    return inputs


def _gen_cluster(inputs, rng, instance, instance_seed):
    C = inputs.sizes["clusters"]
    wd = inputs.workdir
    sizes = np.resize(CLUSTER_SIZES, C)
    instance.shuffle(sizes)
    n = int(sizes.sum())
    # unit ids are shuffled so that cluster membership is not contiguous
    cluster_of = instance.permutation(np.repeat(np.arange(C), sizes))
    _write_csv(wd / "clusters.csv", ["unit_id", "group_id"],
               [[i, f"c{cluster_of[i]:03d}"] for i in range(n)])
    X = _covariates(instance, n, wd / "covariates.csv")
    design = {
        "kind": "clustered",
        "cluster_csv": str(wd / "clusters.csv"),
        "cluster_design": {"kind": "completely_randomized", "n": C, "counts": [C // 2, C - C // 2]},
    }
    _write_yaml(wd / "design.yaml", {"design": design})
    y_full = _latent_outcomes(X, TWO_ARM_INTERCEPTS, instance)
    labels = np.repeat([0, 1], [C // 2, C - C // 2])
    for j in range(OBSERVED_DATASETS):
        _write_observed(inputs, j, rng.permutation(labels)[cluster_of], y_full)
    _write_recipe(inputs, instance, {
        "design": design,
        "covariates": {"csv": str(wd / "covariates.csv")},
        "outcome": {"coeffs": COEFFS, "intercepts": TWO_ARM_INTERCEPTS, "seed": instance_seed + 7},
        "estimators": ["ht", "hajek", "wls", "opt_linear", "opt_i_ols"],
        "contrast": [-1, 1],
        "replications": inputs.sizes["replications"],
        "psd_clip": True,
        "moments": {"npz": str(wd / "moments.npz")},
    })
    inputs.meta = {"contrast": "-1,1", "estimators": "ht,hajek,wls", "cluster_of": cluster_of}
    return inputs


def stages(workload, inputs):
    """The CLI calls of one pipeline pass, in order."""
    wd = inputs.workdir
    design = str(wd / "design.yaml")
    npz = str(wd / "moments.npz")
    moments = ["moments", "--design", design, "--out", npz]
    if workload == "network_mc":
        moments += ["--mc", str(inputs.sizes["mc_draws"]), "--seed", str(inputs.meta["moments_seed"])]
    elif workload == "cluster_exact":
        moments += ["--exact"]
    bound = ["bound", "--design", design, "--load-moments", npz, "--report", str(wd / "cert.json")]
    if workload == "cluster_exact":
        bound += ["--psd-clip"]
    out = [
        Stage("moments", moments, npz),
        Stage("bound", bound, str(wd / "cert.json")),
        Stage("complexity", ["complexity", "--design", design, "--load-moments", npz]),
        Stage("simulate", ["simulate", "--config", str(wd / "simulate.yaml"),
                           "--json", str(wd / "simulate.json")], str(wd / "simulate.json")),
    ]
    for j in range(inputs.sizes["estimate_calls"]):
        data = inputs.observed[j % len(inputs.observed)][0]
        argv = ["estimate", "--design", design, "--data", data,
                "--covariates", str(wd / "covariates.csv"),
                "--estimators", inputs.meta["estimators"],
                f"--contrast={inputs.meta['contrast']}", "--out", str(wd / f"estimate_{j}.json")]
        if workload != "crd_model_assisted":  # the two-arm design rebuilds closed-form moments
            argv += ["--load-moments", npz]
        out.append(Stage("estimate", argv, str(wd / f"estimate_{j}.json")))
    return out


# ---------------------------------------------------------------- references


def _load_npz(path):
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def complexity_reference(npz_path):
    """Largest eigenvalue of D by LAPACK, computed outside the timed region."""
    return float(np.linalg.eigvalsh(_load_npz(npz_path)["D"])[-1])


def _crd_joint(counts):
    """Joint inclusion matrix of a two-arm completely randomized design."""
    n = int(sum(counts))
    k = len(counts)
    p = np.empty((k * n, k * n))
    for a in range(k):
        for b in range(k):
            blk = p[a * n:(a + 1) * n, b * n:(b + 1) * n]
            if a == b:
                blk[:] = counts[a] * (counts[a] - 1) / (n * (n - 1))
                np.fill_diagonal(blk, counts[a] / n)
            else:
                blk[:] = counts[a] * counts[b] / (n * (n - 1))
                np.fill_diagonal(blk, 0.0)
    return p


def ht_reference(counts, arm_of, y, contrast):
    """Horvitz-Thompson contrast and its Aronow-Samii plug-in bound (raw,
    un-scaled) for a two-arm completely randomized design."""
    n = len(arm_of)
    pi_arm = np.asarray(counts, dtype=float) / n
    mu = np.array([np.sum(y[arm_of == a]) / pi_arm[a] for a in range(2)]) / n
    value = float(contrast @ mu)
    p = _crd_joint(counts)
    pi = np.repeat(pi_arm, n)
    D = p / np.outer(pi, pi) - 1.0
    np.fill_diagonal(D, (1.0 - pi) / pi)
    minus_one = p == 0
    Dt = D + minus_one + np.diag(minus_one.sum(axis=1))
    Dt[minus_one] = 0.0
    cells = arm_of * n + np.arange(n)
    v = contrast[arm_of] * y
    raw = float(v @ (Dt[np.ix_(cells, cells)] / p[np.ix_(cells, cells)]) @ v) / n**2
    return value, raw


def cluster_d_reference(cluster_of, C):
    """Two-arm cluster-level CRD design matrix broadcast to units."""
    c_t = C // 2
    c_c = C - c_t
    a = (np.eye(C) - np.full((C, C), 1.0 / C)) * (C / (C - 1))
    Dc = np.block([[(c_c / c_t) * a, -a], [-a, (c_t / c_c) * a]])
    cells = np.concatenate([cluster_of, C + cluster_of])
    return Dc[np.ix_(cells, cells)]


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(b))


def check_stage_outputs(workload, inputs, outputs):
    """Raise CheckFailed unless every output of one pipeline pass is right;
    return observations worth keeping in the run details.

    outputs maps stage names to their captured standard output; references
    are computed here, after the timed stages.
    """
    wd = inputs.workdir
    m = _load_npz(wd / "moments.npz")
    cert = json.loads((wd / "cert.json").read_text())
    require(cert["psd_ok"] and cert["identified_ok"], f"bound certificate failed: {cert}")

    # complexity: the printed all-arms value against LAPACK at print precision
    line = [ln for ln in outputs["complexity"].splitlines() if ln.startswith("all arms:")]
    require(len(line) == 1, "complexity printed no all-arms value")
    printed = float(line[0].split(":")[1])
    ref = complexity_reference(wd / "moments.npz")
    print_ulp = 0.5 * 10 ** (math.floor(math.log10(abs(ref))) - 5)
    require(abs(printed - ref) <= print_ulp + 1e-6 * abs(ref),
            f"complexity {printed} differs from eigvalsh {ref}")

    sim = json.loads((wd / "simulate.json").read_text())
    notes = {}
    if workload == "network_mc":
        notes = _check_network(inputs, m, sim)
    elif workload == "crd_model_assisted":
        _check_crd(inputs, sim)
    else:
        _check_cluster(inputs, m)
    for j in range(inputs.sizes["estimate_calls"]):
        reports = json.loads((wd / f"estimate_{j}.json").read_text())
        names = [r["estimator"] for r in reports]
        require(names == inputs.meta["estimators"].split(","), f"estimate {j} returned {names}")
        for r in reports:
            require(np.isfinite(r["contrast_value"]), f"estimate {j}: {r['estimator']} not finite")
    return notes


def _check_network(inputs, m, sim):
    n = inputs.sizes["n"]
    reps = int(m["reps"])
    pi = m["pi"].reshape(4, n)
    se = np.sqrt(NETWORK_PI * (1 - NETWORK_PI) / reps)
    # per arm: the mean over units within 4 binomial standard errors (the
    # binomial SE bounds the SE of the mean of correlated cells)
    arm_err = np.abs(pi.mean(axis=1) - NETWORK_PI)
    require(np.all(arm_err <= 4 * se), f"MC pi arm means off: {pi.mean(axis=1)}")
    # per cell: Bonferroni-adjusted so that a correct sampler fails in fewer
    # than one run in a million
    z = NormalDist().inv_cdf(1.0 - 0.5e-6 / pi.size)
    require(np.all(np.abs(pi - NETWORK_PI[:, None]) <= z * se[:, None]), "MC pi cell off")
    # acceptance criterion 10 at this replication count
    ht, logit = sim["metrics"]["ht"], sim["metrics"]["qmle_logit"]
    R = sim["replications"]
    cov_se = math.sqrt(0.95 * 0.05 / R)
    require(0.93 - 3 * cov_se <= ht["coverage"] <= 0.99 + 3 * cov_se,
            f"ht coverage {ht['coverage']}")
    require(logit["variance_times_n"] <= ht["variance_times_n"], "qmle_logit variance above ht")
    # Bound conservativeness is checked for ht only: at n=150 the rare arms
    # hold about nine units, and qmle_logit's plug-in bound (asymptotically
    # conservative) averages 0.75 to 1.25 times the realized variance across
    # replication seeds, so that half of the condition needs the criterion's
    # n=500. Its ratio is returned for the run details.
    se_var = ht["variance_times_n"] * math.sqrt(2.0 / (R - 1))
    require(ht["mean_bound_times_n"] >= ht["variance_times_n"] - 3 * se_var,
            "ht mean bound below variance")
    return {"qmle_logit_bound_over_variance": logit["mean_bound_times_n"] / logit["variance_times_n"]}


def _check_crd(inputs, sim):
    wd = inputs.workdir
    counts = inputs.meta["counts"]
    contrast = np.array([-1.0, 1.0])
    for j in range(inputs.sizes["estimate_calls"]):
        _, arm_of, y = inputs.observed[j % len(inputs.observed)]
        ht = json.loads((wd / f"estimate_{j}.json").read_text())[0]
        value, raw = ht_reference(counts, arm_of, y, contrast)
        require(_close(ht["contrast_value"], value, 1e-12), f"HT {ht['contrast_value']} != {value}")
        require(_close(ht["varbound_raw"], raw, 1e-12), f"HT bound {ht['varbound_raw']} != {raw}")
    for name in ALL_ESTIMATORS:
        row = sim["metrics"][name]
        require(np.isfinite(row["theo_var_times_n"]) and np.isfinite(row["theo_bound_times_n"]),
                f"theory column of {name} not finite")


def _check_cluster(inputs, m):
    require(np.all(np.abs(m["pi"] - 0.5) <= 1e-12), "cluster pi is not 0.5")
    C = inputs.sizes["clusters"]
    ref = cluster_d_reference(inputs.meta["cluster_of"], C)
    require(np.max(np.abs(m["D"] - ref)) <= 1e-12, "cluster D differs from broadcast CRD matrix")
