"""Simulation driver: outcome imputation, covariate preprocessing, repeated
randomization, and the summary metric table (all x n scaled, matching the
reporting convention of the estimator-comparison tables)."""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.stats import norm

from .bounds import build_bound
from .designs import AssignmentRealization, Design, stream_rng
from .linear import (
    LINEAR_KINDS,
    ZERO_PI_MESSAGE,
    EstimateReport,
    ExperimentData,
    _gr_fit,
    _ipw,
    _linear_fit,
    check_covariates,
    estimate_report,
    intercept_matrix,
    plugin_raw,
    population_z,
    zero_pi_rows,
)
from .model_assisted import (
    ImputationModel,
    OptimizerConfig,
    contrast_residual,
    fit_qmle,
    no_harm_gr,
    opt_gr_linear,
    opt_gr_logit,
    opt_i_gr,
    opt_i_rows,
    population_no_harm_alpha,
    population_opt_gr_linear,
    population_opt_i_beta,
    population_opt_logit,
    population_qmle,
    qmle_gr,
    sample_qmle,
)
from .moments import DesignMoments, closed_form_or_exact_moments, mc_moments


class ReplicationChunk:
    """The assignments of one chunk of replications, stacked.

    Replication rep draws from stream_rng(seed, rep), so the draws do not
    depend on the chunking. Row b of every array belongs to reps[b]: arms
    (B, n), the observed cells (B, n) and outcomes y_obs (B, n), and the kn
    observed-cell indicator r and observed outcome vector y (zero
    elsewhere), each (B, kn). zero_pi flags the rows with an observed cell
    of zero inclusion probability, on which no weighted estimator is
    defined.
    """

    def __init__(self, payload, reps):
        design, moments = payload["design"], payload["moments"]
        self.reps = list(reps)
        self.n, self.k = design.n, design.k
        self.X = check_covariates(payload["X"], design.n)
        self.y_full, self.moments = payload["y_full"], moments
        self.arms = np.stack(
            [design.sample(stream_rng(payload["seed"], rep)).arm_of for rep in self.reps]
        )
        self.cells = self.arms * self.n + np.arange(self.n)
        self.y_obs = self.y_full[self.cells]
        self.r = np.zeros((len(self.reps), self.n * self.k))
        np.put_along_axis(self.r, self.cells, 1.0, axis=1)
        self.y = np.zeros_like(self.r)
        np.put_along_axis(self.y, self.cells, self.y_obs, axis=1)
        self.zero_pi = zero_pi_rows(moments.pi, self.cells)

    @cached_property
    def data(self) -> list:
        """One ExperimentData per replication, for the per-replication fits."""
        return [
            ExperimentData.from_full(
                self.y_full, AssignmentRealization(self.n, self.k, arms), self.X, self.moments
            )
            for arms in self.arms
        ]

    def entries(self, mu, z, errors, c, bound) -> list:
        """Table entries from a batched fit over the rows without zero-pi
        observed cells: arm estimates mu (b, k), linearizations z (b, kn, k)
        and, by fitted row, the errors of undefined fits."""
        fitted = np.flatnonzero(~self.zero_pi)
        values = np.matmul(c, mu[..., None])[..., 0]
        times_n = plugin_raw(z @ c, self.cells[fitted], bound.Dt_over_p) * self.n
        out = [("failed", repr(ValueError(ZERO_PI_MESSAGE)))] * len(self.reps)
        for j, b in enumerate(fitted):
            if j in errors:
                out[b] = ("failed", repr(errors[j]))
            else:
                out[b] = (float(values[j]), float(times_n[j]))
        return out


@dataclass(frozen=True)
class Estimator:
    """One row of the estimator table.

    fit(data, c, bound, optimizer, seed) fits the estimator on one observed
    experiment and returns its contrast value and plug-in bound as an
    EstimateReport. residual(X, y_full, moments, c) is the population
    linearization vector v, with n x asymptotic variance v'Dv/n. For the
    model-assisted estimators v = w (y - f), with the imputations f fitted
    to the full outcome vector where the sample fit uses its IPW observed
    analog. batch(chunk, c, bound), where given, fits a whole
    ReplicationChunk as arrays with the same numbers as fit.
    """

    fit: Callable[..., EstimateReport]
    residual: Callable[..., np.ndarray]
    batch: Callable[..., list] | None = None

    def fit_chunk(self, chunk: ReplicationChunk, c, bound, optimizer) -> list:
        """One entry per replication of the chunk: (contrast value, plug-in
        bound x n), or ("failed", repr(exception)) for a failed fit."""
        if self.batch is not None:
            try:
                return self.batch(chunk, c, bound)
            except Exception:
                pass  # refit one replication at a time, so the failure stays with its replication
        entries = []
        for rep, data in zip(chunk.reps, chunk.data):
            try:
                report = self.fit(data, c, bound, optimizer, rep)
                entries.append((report.contrast_value, report.varbound_times_n))
            except Exception as exc:  # recorded and excluded from aggregates
                entries.append(("failed", repr(exc)))
        return entries


def _linear(kind):
    def batch(chunk, c, bound):
        ok = ~chunk.zero_pi
        fit = _linear_fit(kind, chunk.X, chunk.k, chunk.moments.pi, chunk.y[ok], chunk.r[ok])
        return chunk.entries(fit.mu_hat, fit.z_hat, fit.errors, c, bound)

    return Estimator(
        lambda data, c, bound, optimizer, seed: estimate_report(kind, data, bound, c),
        lambda X, y_full, moments, c: population_z(kind, X, y_full, moments) @ c,
        batch,
    )


def _imputing(sample, imputations, batch=None):
    """Model-assisted table row from its sample fit and its population
    imputations(X, y_full, moments, c)."""
    return Estimator(
        sample, lambda X, y, m, c: contrast_residual(imputations(X, y, m, c), y, c, m.n), batch
    )


# Second stages on a pseudo-likelihood fit: the sample report from the fitted
# theta, and the population imputations from the population fit's f.
_SECOND_STAGE = {
    "qmle": (
        lambda theta, model, data, c, bound: qmle_gr(theta, model, data, c, bound=bound),
        lambda f, y_full, m, c: f,
    ),
    "no_harm": (
        lambda theta, model, data, c, bound: no_harm_gr(
            theta, model, data, data.moments.D, c, bound=bound
        ),
        lambda f, y_full, m, c: population_no_harm_alpha(f, y_full, m.D, c, m.n) * f,
    ),
    "opt_i": (
        lambda theta, model, data, c, bound: opt_i_gr(
            theta, model, data, data.moments.D, c, bound=bound
        ),
        lambda f, y_full, m, c: opt_i_rows(f, m.n, m.k)
        @ population_opt_i_beta(f, y_full, m.D, c, m.n, m.k),
    ),
}


def _two_stage(family, omega, stage):
    """Imputations from a pseudo-likelihood fit whose cells weigh omega
    ("ones" or "pi") in the population loss, then a second stage."""
    sample, population = _SECOND_STAGE[stage]

    def fit(data, c, bound, optimizer, seed):
        model = ImputationModel(family, data.k, data.p)
        return sample(fit_qmle(model, data, omega=omega), model, data, c, bound)

    def imputations(X, y_full, moments, c):
        model = ImputationModel(family, moments.k, X.shape[1])
        weights = moments.pi if omega == "pi" else None
        f = model.predict(population_qmle(model, X, y_full, omega=weights), X)
        return population(f, y_full, moments, c)

    def qmle_batch(chunk, c, bound):
        model = ImputationModel(family, chunk.k, chunk.X.shape[1])
        ok = ~chunk.zero_pi
        rows = model.design_rows(chunk.X)
        pi = chunk.moments.pi
        theta = sample_qmle(model, rows, pi, omega, chunk.cells[ok], chunk.y_obs[ok])
        f = model._predict_rows(theta, rows)
        mu, z = _gr_fit(f, chunk.y[ok], _ipw(chunk.r[ok], pi), chunk.k)
        return chunk.entries(mu, z, {}, c, bound)

    return _imputing(fit, imputations, qmle_batch if stage == "qmle" else None)


def _opt_linear_imputations(X, y_full, moments, c):
    rows = ImputationModel("linear", moments.k, X.shape[1]).design_rows(X)
    return rows @ population_opt_gr_linear(rows, y_full, moments.D, c, moments.n)


def _opt_logit_imputations(X, y_full, moments, c):
    model = ImputationModel("logistic", moments.k, X.shape[1])
    return model.predict(population_opt_logit(model, X, y_full, moments.D, c, moments.n), X)


ESTIMATORS = {
    **{kind: _linear(kind) for kind in LINEAR_KINDS},
    "noharm_wls": _two_stage("linear", "ones", "no_harm"),
    "qmle_logit": _two_stage("logistic", "pi", "qmle"),
    "noharm_logit": _two_stage("logistic", "pi", "no_harm"),
    "opt_linear": _imputing(
        lambda data, c, bound, optimizer, seed: opt_gr_linear(
            data, data.moments.D, c, bound=bound
        ),
        _opt_linear_imputations,
    ),
    "opt_logit": _imputing(
        lambda data, c, bound, optimizer, seed: opt_gr_logit(
            data, data.moments.D, c, cfg=optimizer, bound=bound, seed=seed
        ),
        _opt_logit_imputations,
    ),
    "opt_i_ols": _two_stage("linear", "pi", "opt_i"),
    "opt_i_logit": _two_stage("logistic", "pi", "opt_i"),
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


def preprocess_covariates(raw, topcode_columns=(), topcode_value: float = 5.0) -> np.ndarray:
    """Mean-impute missing values, standardize to unit standard deviation,
    top-code the configured columns, then re-center."""
    X = np.array(raw, dtype=float, copy=True)
    if X.ndim != 2:
        raise ValueError("covariates must be a 2-D table")
    for j in range(X.shape[1]):
        col = X[:, j]
        missing = np.isnan(col)
        if missing.all():
            raise ValueError(f"column {j} is entirely missing")
        col[missing] = np.nanmean(col)
        sd = col.std()
        if sd == 0:
            raise ValueError(f"column {j} is constant")
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
    moments_method: str = "exact"  # used when moments is None
    moments_reps: int = 100_000
    bound_kind: str = "aronow_samii"  # or "neyman" (two-arm CRD only)
    apply_psd_clip: bool = False
    level: float = 0.95
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    workers: int = 1

    def __post_init__(self):
        self.contrast = np.asarray(self.contrast, dtype=float)
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.contrast.shape != (self.design.k,):
            raise ValueError("contrast length must match the number of arms")
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
    chunk = ReplicationChunk(payload, rep_indices)
    args = payload["contrast"], payload["bound"], payload["optimizer"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        columns = {
            name: ESTIMATORS[name].fit_chunk(chunk, *args) for name in payload["estimators"]
        }
    return {
        rep: {name: column[b] for name, column in columns.items()}
        for b, rep in enumerate(chunk.reps)
    }


def population_contrast_residual(
    name: str,
    X: np.ndarray,
    y_full: np.ndarray,
    moments: DesignMoments,
    contrast: np.ndarray,
) -> np.ndarray:
    """Contrast-weighted population linearization vector v of a table
    estimator, with n x asymptotic variance = v' M v / n."""
    return estimator(name).residual(X, y_full, moments, np.asarray(contrast, dtype=float))


def run_simulation(cfg: SimConfig) -> MetricsTable:
    """Draw assignments, run every configured estimator, and aggregate the
    seven metric rows; failed replications are excluded and counted."""
    moments = cfg.moments
    if moments is None:
        if cfg.moments_method == "exact":
            moments = closed_form_or_exact_moments(cfg.design)
        else:
            moments = mc_moments(cfg.design, reps=cfg.moments_reps, seed=cfg.seed + 1)
    bound = build_bound(cfg.design, moments, cfg.bound_kind, cfg.apply_psd_clip)
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
        with ProcessPoolExecutor(
            max_workers=cfg.workers, initializer=_init_worker, initargs=(payload,)
        ) as pool:
            for chunk_result in pool.map(_chunk_via_global, chunks):
                results.update(chunk_result)
    else:
        for chunk in chunks:
            results.update(_replication_chunk(payload, chunk))

    z_crit = norm.ppf(0.5 + cfg.level / 2)
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
            theo = population_contrast_residual(name, cfg.X, cfg.y_full, moments, cfg.contrast)
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
