"""Simulation driver: the estimator table, outcome imputation, covariate
preprocessing, repeated randomization, and the summary metric table (all
x n scaled, matching the reporting convention of the estimator-comparison
tables).

Each table row is one body, its sample fit of a linear.ReplicationChunk.
The theoretical columns run that same body on the population chunk
(ReplicationChunk.population), whose linearization z at the full potential
outcomes gives the asymptotic variance."""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bounds import build_bound, psd_clip
from .designs import Design, stream_rng
from .linear import (
    LINEAR_KINDS,
    ReplicationChunk,
    SampleFit,
    check_contrast,
    intercept_matrix,
    linear_sample,
    normal_critical_value,
    plugin_bounds,
)
from .model_assisted import (
    ImputationModel,
    OptimizerConfig,
    _check_omega,
    _corrected,
    _is_integer,
    no_harm_imputations,
    opt_i_imputations,
    opt_linear_imputations,
    opt_logit_descent,
    population_opt_logit,
)
from .moments import DesignMoments, closed_form_or_exact_moments, mc_moments


@dataclass(frozen=True)
class Estimator:
    """One row of the estimator table.

    sample(chunk, c, optimizer) fits the estimator on every row of a
    ReplicationChunk (replication reps[b] seeds row b's randomness) and
    returns a SampleFit. On ReplicationChunk.population the same body gives
    the population linearization z, with n x asymptotic variance
    (z c)' D (z c) / n.
    """

    sample: Callable[..., SampleFit]


def _linear(kind):
    return Estimator(lambda chunk, c, optimizer: linear_sample(kind, chunk))


def _two_stage(family, omega, stage=None):
    """Imputations from a pseudo-likelihood fit whose cells weigh omega
    ("ones" or "pi") in the population loss, then the second stage
    stage(f, y, D, c, n, inspect) over a batch of outcome vectors y; with no
    stage, the fit itself."""

    def sample(chunk, c, optimizer):
        theta, f = chunk.first_stage(family, omega)
        if stage is None:
            return _corrected(chunk, f, [{"theta": row} for row in theta.tolist()])
        inspect = not chunk.is_population
        return _corrected(chunk, *stage(f, chunk.y_ipw, chunk.moments.D, c, chunk.n, inspect))

    return Estimator(sample)


def _opt_linear_sample(chunk, c, optimizer):
    rows = ImputationModel("linear", chunk.k, chunk.X.shape[1]).design_rows(chunk.X)
    D, inspect = _check_omega(chunk.moments.D, chunk.n * chunk.k), not chunk.is_population
    return _corrected(chunk, *opt_linear_imputations(rows, chunk.y_ipw, D, c, chunk.n, inspect))


def _opt_logit_sample(chunk, c, optimizer):
    model = ImputationModel("logistic", chunk.k, chunk.X.shape[1])
    rows, D = model.design_rows(chunk.X), _check_omega(chunk.moments.D, chunk.n * chunk.k)
    if chunk.is_population:  # the theory columns' solve: BFGS from the pseudo-likelihood fit
        theta = population_opt_logit(model, chunk.X, chunk.y[0], D, c, chunk.n)[None]
        return _corrected(chunk, model._predict_rows(theta, rows), [{}])
    return _corrected(
        chunk, *opt_logit_descent(model, rows, chunk.y_ipw, D, c, chunk.n, optimizer, chunk.reps)
    )


ESTIMATORS = {
    **{kind: _linear(kind) for kind in LINEAR_KINDS},
    "noharm_wls": _two_stage("linear", "ones", no_harm_imputations),
    "qmle_logit": _two_stage("logistic", "pi"),
    "noharm_logit": _two_stage("logistic", "pi", no_harm_imputations),
    "opt_linear": Estimator(_opt_linear_sample),
    "opt_logit": Estimator(_opt_logit_sample),
    "opt_i_ols": _two_stage("linear", "pi", opt_i_imputations),
    "opt_i_logit": _two_stage("logistic", "pi", opt_i_imputations),
}
ESTIMATOR_NAMES = tuple(ESTIMATORS)


def estimator(name: str) -> Estimator:
    """The table row of an estimator name."""
    if name not in ESTIMATORS:
        raise ValueError(f"unknown estimator {name!r}; known: {', '.join(ESTIMATOR_NAMES)}")
    return ESTIMATORS[name]


REPLICATION_CHUNK = 64  # fixed chunking keeps results worker-count invariant


def impute_potential_outcomes(covariates, coeffs, intercepts, seed) -> np.ndarray:
    """Binary potential outcomes from a latent-threshold model.

    One logistic shock per unit, shared across arms (and held fixed across
    simulation replications): y_ai = 1{intercept_a + x_i' coeffs > eps_i}.
    Returns the stacked kn vector.
    """
    X = np.atleast_2d(np.asarray(covariates, dtype=float))
    coeffs = np.asarray(coeffs, dtype=float)
    intercepts = np.asarray(intercepts, dtype=float)
    if X.shape[1] != len(coeffs):
        raise ValueError("coefficient length must match covariate columns")
    n = X.shape[0]
    shocks = stream_rng(seed).logistic(size=n)
    index = X @ coeffs
    return np.concatenate([(b + index > shocks).astype(float) for b in intercepts])


def preprocess_covariates(
    raw, topcode_columns=(), topcode_value: float = 5.0, names=None
) -> np.ndarray:
    """Mean-impute missing (NaN) values, standardize to unit standard
    deviation, top-code the configured columns, then re-center; an infinite
    value is an error. Errors name a column by names[j] (the covariate
    CSV's header) when given, else by its 0-based position."""
    X = np.array(raw, dtype=float, copy=True)
    if X.ndim != 2:
        raise ValueError("covariates must be a 2-D table")
    if names is not None and len(names) != X.shape[1]:
        raise ValueError(f"{len(names)} covariate names for {X.shape[1]} columns")
    for j in range(X.shape[1]):
        label = j if names is None else names[j]
        col = X[:, j]
        if np.isinf(col).any():
            raise ValueError(f"column {label} has an infinite value")
        missing = np.isnan(col)
        if missing.all():
            raise ValueError(f"column {label} is entirely missing")
        col[missing] = np.nanmean(col)
        sd = col.std()
        if sd == 0:
            raise ValueError(f"column {label} is constant")
        col -= col.mean()
        col /= sd
        if j in topcode_columns:
            np.clip(col, None, topcode_value, out=col)
        X[:, j] = col
    return X - X.mean(axis=0)


def fine_strata(
    village_of,
    size_var,
    area_var,
    component_of,
    min_size: int = 4,
) -> np.ndarray:
    """Four within-village strata from medians of two stratifying variables,
    with small strata merged into the same stratum type of the
    lowest-indexed other village in the same network component."""
    village_of = np.asarray(village_of)
    size_var = np.asarray(size_var, dtype=float)
    area_var = np.asarray(area_var, dtype=float)
    component_of = np.asarray(component_of)
    n = len(village_of)
    villages = sorted(set(village_of.tolist()))
    stratum_type = np.empty(n, dtype=np.int64)
    for v in villages:
        members = np.flatnonzero(village_of == v)
        size_med = np.median(size_var[members])
        area_med = np.median(area_var[members])
        low_size = size_var[members] < size_med
        low_area = area_var[members] < area_med
        stratum_type[members] = 2 * (~low_size) + (~low_area)

    keys = {}
    group_of = np.empty(n, dtype=np.int64)
    for v in villages:
        for t in range(4):
            members = np.flatnonzero((village_of == v) & (stratum_type == t))
            if len(members) == 0:
                continue
            keys[(v, t)] = members
    assignments = {}
    for (v, t), members in sorted(keys.items()):
        if len(members) >= min_size:
            assignments[(v, t)] = (v, t)
            continue
        component = component_of[members[0]]
        candidates = [
            (v2, t2)
            for (v2, t2) in sorted(keys)
            if t2 == t and v2 != v and component_of[keys[(v2, t2)][0]] == component
        ]
        big = [cand for cand in candidates if len(keys[cand]) >= min_size]
        pool = big or candidates
        if pool:
            assignments[(v, t)] = pool[0]  # lowest-indexed candidate village
        else:
            warnings.warn(
                f"no merge candidate for a small stratum in village {v!r}; kept as is",
                RuntimeWarning,
            )
            assignments[(v, t)] = (v, t)
    # resolve chains (a small stratum may point at another small one)
    def resolve(key, seen=()):
        target = assignments[key]
        if target == key or target in seen:
            return target
        return resolve(target, (*seen, key))

    labels = {}
    for key, members in keys.items():
        root = resolve(key)
        labels.setdefault(root, len(labels))
        group_of[members] = labels[root]
    return group_of


def check_integer(name: str, value, least: int):
    """value, if it is an integer (not a bool) >= least; otherwise a
    ValueError naming it. Keeps a recipe's 6.7 from running as 6."""
    if isinstance(value, bool) or not _is_integer(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


@dataclass
class SimConfig:
    """Everything one simulation run needs; replications are seeded
    independently from (seed, replication index)."""

    design: Design
    y_full: np.ndarray
    X: np.ndarray
    estimators: list
    contrast: np.ndarray
    replications: int
    seed: int
    moments: DesignMoments | None = None
    moments_method: str = "exact"  # or "mc"; used when moments is None
    moments_reps: int = 100_000
    bound_kind: str = "aronow_samii"  # or "neyman" (two-arm CRD only)
    apply_psd_clip: bool = False
    level: float = 0.95
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    workers: int = 1

    def __post_init__(self):
        for name, least in (("replications", 1), ("seed", 0), ("moments_reps", 1), ("workers", 1)):
            check_integer(name, getattr(self, name), least)
        if self.moments_method not in ("exact", "mc"):
            raise ValueError(f"unknown moments method {self.moments_method!r}; known: exact, mc")
        if not 0 < self.level < 1:
            raise ValueError(f"level must lie strictly between 0 and 1, not {self.level}")
        self.contrast = check_contrast(self.contrast, self.design.k)
        for name in self.estimators:
            estimator(name)  # raises on a name outside the table
        self.y_full = np.asarray(self.y_full, dtype=float)
        if self.y_full.shape != (self.design.n * self.design.k,):
            raise ValueError("y_full must be a stacked kn vector")


METRIC_COLUMNS = (
    "bias2_times_n",
    "variance_times_n",
    "mse_times_n",
    "mean_bound_times_n",
    "coverage",
    "theo_var_times_n",
    "theo_bound_times_n",
)


@dataclass
class MetricsTable:
    estimators: list
    metrics: dict  # name -> dict of METRIC_COLUMNS
    failures: dict  # name -> count
    truth: float
    n: int
    replications: int
    provenance: dict = field(default_factory=dict)  # moments method / reps

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("estimator," + ",".join(METRIC_COLUMNS) + ",failures\n")
            for name in self.estimators:
                row = self.metrics[name]
                cells = ",".join(f"{row[c]:.15g}" for c in METRIC_COLUMNS)
                fh.write(f"{name},{cells},{self.failures[name]}\n")

    def to_json(self, path=None):
        payload = {
            "truth": self.truth,
            "n": self.n,
            "replications": self.replications,
            "metrics": self.metrics,
            "failures": self.failures,
            "provenance": self.provenance,
        }
        text = json.dumps(payload, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def display(self) -> str:
        """Two-decimal table, estimators as columns."""
        width = max(len(c) for c in METRIC_COLUMNS) + 2
        header = " " * width + "".join(f"{name:>12}" for name in self.estimators)
        lines = [header]
        for col in METRIC_COLUMNS:
            cells = "".join(f"{self.metrics[name][col]:>12.2f}" for name in self.estimators)
            lines.append(f"{col:<{width}}" + cells)
        return "\n".join(lines)


_WORKER_PAYLOAD = None  # set once per worker process by _init_worker


def _init_worker(payload):
    global _WORKER_PAYLOAD
    _WORKER_PAYLOAD = payload


def _chunk_via_global(rep_indices):
    return _replication_chunk(_WORKER_PAYLOAD, rep_indices)


def _replication_chunk(payload, rep_indices):
    """Per replication and estimator: (contrast value, plug-in bound x n),
    or ("failed", repr(exception))."""
    design = payload["design"]  # replication rep draws from stream_rng(seed, rep) in any chunking
    arms = np.stack([design.sample(stream_rng(payload["seed"], rep)).arm_of for rep in rep_indices])
    y_obs = payload["y_full"][arms * design.n + np.arange(design.n)]
    chunk = ReplicationChunk(arms, y_obs, payload["X"], payload["moments"], list(rep_indices))
    names, c = payload["estimators"], payload["contrast"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fits = [chunk.fit(ESTIMATORS[name], c, payload["optimizer"]) for name in names]
    values = [np.matmul(c, fit.mu[..., None])[..., 0] for fit in fits]
    v = np.stack([fit.z @ c for fit in fits], axis=1)
    times_n = plugin_bounds(v, chunk.cells, payload["bound"]) * chunk.n
    out = {rep: dict.fromkeys(names, ("failed", repr(exc))) for rep, exc in chunk.failed.items()}
    for b, rep in enumerate(chunk.reps):
        out[rep] = {
            name: ("failed", repr(fit.errors[b]))
            if b in fit.errors
            else (float(values[e][b]), float(times_n[b, e]))
            for e, (name, fit) in enumerate(zip(names, fits))
        }
    return {rep: out[rep] for rep in rep_indices}


def population_contrast_residual(
    name: str,
    X: np.ndarray,
    y_full: np.ndarray,
    moments: DesignMoments,
    contrast: np.ndarray,
    population: ReplicationChunk | None = None,
) -> np.ndarray:
    """Contrast-weighted population linearization vector v of a table
    estimator, with n x asymptotic variance = v' M v / n: the row's sample
    body on the population chunk of (X, y_full, moments). A run passes its
    one population chunk to every row, so that rows sharing a stage fit it
    once; by default the chunk is built afresh."""
    c = np.asarray(contrast, dtype=float)
    if population is None:
        population = ReplicationChunk.population(X, y_full, moments)
    fit = estimator(name).sample(population, c, None)
    if fit.errors:
        raise fit.errors[0]
    return fit.z[0] @ c


def run_simulation(cfg: SimConfig) -> MetricsTable:
    """Draw assignments, run every configured estimator, and aggregate the
    seven metric rows; failed replications are excluded and counted."""
    moments = cfg.moments
    if moments is None:
        if cfg.moments_method == "exact":
            moments = closed_form_or_exact_moments(cfg.design)
        else:
            moments = mc_moments(cfg.design, reps=cfg.moments_reps, seed=cfg.seed + 1)
    bound = build_bound(cfg.design, moments, cfg.bound_kind)
    if cfg.apply_psd_clip:
        bound = psd_clip(bound)
    n = cfg.design.n
    truth = float(
        cfg.contrast @ (intercept_matrix(n, cfg.design.k).T @ cfg.y_full) / n
    )
    payload = {
        "design": cfg.design,
        "moments": moments,
        "bound": bound,
        "estimators": list(cfg.estimators),
        "contrast": cfg.contrast,
        "y_full": cfg.y_full,
        "X": cfg.X,
        "seed": cfg.seed,
        "optimizer": cfg.optimizer,
    }
    chunks = [
        range(start, min(start + REPLICATION_CHUNK, cfg.replications))
        for start in range(0, cfg.replications, REPLICATION_CHUNK)
    ]
    results = {}
    if cfg.workers > 1:
        # a pool may start all its workers at once: start no more than there are chunks
        with ProcessPoolExecutor(
            max_workers=min(cfg.workers, len(chunks)), initializer=_init_worker, initargs=(payload,)
        ) as pool:
            for chunk_result in pool.map(_chunk_via_global, chunks):
                results.update(chunk_result)
    else:
        for chunk in chunks:
            results.update(_replication_chunk(payload, chunk))

    z_crit = normal_critical_value(cfg.level)
    population = ReplicationChunk.population(cfg.X, cfg.y_full, moments)
    metrics = {}
    failures = {}
    for name in cfg.estimators:
        values, bounds_tn = [], []
        failed = 0
        for rep in range(cfg.replications):
            entry = results[rep][name]
            if entry[0] == "failed":
                failed += 1
                continue
            values.append(entry[0])
            bounds_tn.append(entry[1])
        failures[name] = failed
        values = np.array(values)
        bounds_tn = np.array(bounds_tn)
        if len(values) == 0:
            metrics[name] = {c: np.nan for c in METRIC_COLUMNS}
            continue
        mean = values.mean()
        bias2 = (mean - truth) ** 2
        variance = float(np.mean((values - mean) ** 2))
        mse = float(np.mean((values - truth) ** 2))
        half = z_crit * np.sqrt(np.maximum(bounds_tn, 0.0) / n)
        covered = (np.abs(values - truth) <= half) & (bounds_tn >= 0)
        try:
            theo = population_contrast_residual(
                name, cfg.X, cfg.y_full, moments, cfg.contrast, population
            )
            theo_var = float(theo @ moments.D @ theo) / n
            theo_bound = float(theo @ bound.Dt @ theo) / n
        except Exception:
            theo_var = theo_bound = np.nan
        metrics[name] = {
            "bias2_times_n": float(n * bias2),
            "variance_times_n": float(n * variance),
            "mse_times_n": float(n * mse),
            "mean_bound_times_n": float(bounds_tn.mean()),
            "coverage": float(covered.mean()),
            "theo_var_times_n": theo_var,
            "theo_bound_times_n": theo_bound,
        }
    return MetricsTable(
        estimators=list(cfg.estimators),
        metrics=metrics,
        failures=failures,
        truth=truth,
        n=n,
        replications=cfg.replications,
        provenance={
            "moments_method": moments.method,
            "moments_reps": moments.reps,
            "bound": bound.name,
            "psd_clipped": bound.psd_clipped,
            "seed": cfg.seed,
        },
    )
