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
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .bounds import VarianceBound, aronow_samii_bound
from .designs import Design, _is_integer, check_integer, stream_rng
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
    _check_omega,
    _corrected,
    no_harm_imputations,
    opt_i_imputations,
    opt_linear_imputations,
    opt_logit_imputations,
)
from .moments import DesignMoments, closed_form_or_exact_moments


def _linear(kind):
    return lambda chunk, c: linear_sample(kind, chunk)


def _two_stage(family, omega, stage=None):
    """Imputations from a pseudo-likelihood fit whose cells weigh omega
    ("ones" or "pi") in the population loss, then the second stage
    stage(f, y, D, c, n, inspect) over a batch of outcome vectors y; with no
    stage, the fit itself."""

    def sample(chunk, c):
        theta, f = chunk.first_stage(family, omega)
        if stage is None:
            return _corrected(chunk, f, [{"theta": row} for row in theta.tolist()])
        inspect = not chunk.is_population
        return _corrected(chunk, *stage(f, chunk.y_ipw, chunk.moments.D, c, chunk.n, inspect))

    return sample


def _opt_linear_sample(chunk, c):
    rows = ImputationModel("linear", chunk.k, chunk.X.shape[1]).design_rows(chunk.X)
    D, inspect = _check_omega(chunk.moments.D, chunk.n * chunk.k), not chunk.is_population
    return _corrected(chunk, *opt_linear_imputations(rows, chunk.y_ipw, D, c, chunk.n, inspect))


def _opt_logit_sample(chunk, c):
    model = ImputationModel("logistic", chunk.k, chunk.X.shape[1])
    rows, D = model.design_rows(chunk.X), _check_omega(chunk.moments.D, chunk.n * chunk.k)
    start = chunk.first_stage("logistic", "pi")[0]
    return _corrected(chunk, *opt_logit_imputations(model, rows, chunk.y_ipw, D, c, chunk.n, start))


# The estimator table: each row is its sample function sample(chunk, c),
# which fits the estimator on every row of a ReplicationChunk and returns a
# SampleFit. On ReplicationChunk.population the same function gives the
# population linearization z, with n x asymptotic variance (z c)' D (z c) / n.
ESTIMATORS = {
    **{kind: _linear(kind) for kind in LINEAR_KINDS},
    "noharm_wls": _two_stage("linear", "ones", no_harm_imputations),
    "qmle_logit": _two_stage("logistic", "pi"),
    "noharm_logit": _two_stage("logistic", "pi", no_harm_imputations),
    "opt_linear": _opt_linear_sample,
    "opt_logit": _opt_logit_sample,
    "opt_i_ols": _two_stage("linear", "pi", opt_i_imputations),
    "opt_i_logit": _two_stage("logistic", "pi", opt_i_imputations),
}
ESTIMATOR_NAMES = tuple(ESTIMATORS)
# The rows that read the full design matrix chunk.moments.D (as Omega); every
# other row reads pi at the observed cells and the bound's observed block.
READS_D = frozenset(name for name in ESTIMATORS if name.startswith(("noharm_", "opt_")))


def estimator(name: str) -> Callable[..., SampleFit]:
    """The table row (sample function) of an estimator name."""
    if not isinstance(name, str) or name not in ESTIMATORS:
        raise ValueError(f"unknown estimator {name!r}; known: {', '.join(ESTIMATOR_NAMES)}")
    return ESTIMATORS[name]


def check_estimators(names):
    """names, if a nonempty list of distinct names from the estimator table;
    otherwise a ValueError naming the first unknown or repeated one."""
    if not isinstance(names, (list, tuple)) or not names:
        raise ValueError(f"estimators must be a nonempty list of estimator names, got {names!r}")
    for i, name in enumerate(names):
        estimator(name)  # raises on a name outside the table
        if name in names[:i]:
            raise ValueError(f"estimator {name!r} is listed more than once")
    return names


REPLICATION_CHUNK = 64  # fixed chunking keeps results worker-count invariant
TOPCODE_SD = 5.0  # top-coded columns are capped at this many standard deviations


def impute_potential_outcomes(covariates, coeffs, intercepts, seed) -> np.ndarray:
    """Binary potential outcomes from a latent-threshold model.

    One logistic shock per unit, shared across arms (and held fixed across
    simulation replications): y_ai = 1{intercept_a + x_i' coeffs > eps_i}.
    Returns the stacked kn vector; a non-finite input is an error.
    """
    X = np.atleast_2d(np.asarray(covariates, dtype=float))
    coeffs = np.asarray(coeffs, dtype=float)
    intercepts = np.asarray(intercepts, dtype=float)
    if X.shape[1] != len(coeffs):
        raise ValueError("coefficient length must match covariate columns")
    for name, values in (("covariates", X), ("coeffs", coeffs), ("intercepts", intercepts)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")
    n = X.shape[0]
    shocks = stream_rng(seed).logistic(size=n)
    index = X @ coeffs
    return np.concatenate([(b + index > shocks).astype(float) for b in intercepts])


def preprocess_covariates(raw, topcode_columns=(), names=None) -> np.ndarray:
    """Mean-impute missing (NaN) values, standardize to unit standard
    deviation, top-code the configured columns at TOPCODE_SD, then
    re-center; an infinite value is an error, and so is a top-coded column
    that is not a 0-based position in [0, p). Errors name a column by
    names[j] (the covariate CSV's header) when given, else by its 0-based
    position."""
    X = np.array(raw, dtype=float, copy=True)
    if X.ndim != 2:
        raise ValueError("covariates must be a 2-D table")
    p = X.shape[1]
    if not isinstance(topcode_columns, (list, tuple)) or not all(
        _is_integer(j) and 0 <= j < p for j in topcode_columns
    ):
        raise ValueError(
            f"topcode_columns must be a list of column positions in [0, {p}), "
            f"got {topcode_columns!r}"
        )
    if names is not None and len(names) != p:
        raise ValueError(f"{len(names)} covariate names for {p} columns")
    for j in range(p):
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
            np.clip(col, None, TOPCODE_SD, out=col)
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
    independently from (seed, replication index). The run reads the moments
    and the full (kn x kn) bound given here; left None, they are the
    design's exact moments and their Aronow-Samii bound."""

    design: Design
    y_full: np.ndarray
    X: np.ndarray
    estimators: list
    contrast: np.ndarray
    replications: int
    seed: int
    moments: DesignMoments | None = None
    bound: VarianceBound | None = None
    level: float = 0.95
    workers: int = 1

    def __post_init__(self):
        for name, least in (("replications", 1), ("seed", 0), ("workers", 1)):
            check_integer(name, getattr(self, name), least)
        if isinstance(self.level, bool) or not isinstance(self.level, (int, float)):
            raise ValueError(f"level must be a number, got {self.level!r}")
        if not 0 < self.level < 1:
            raise ValueError(f"level must lie strictly between 0 and 1, not {self.level}")
        self.contrast = check_contrast(self.contrast, self.design.k)
        check_estimators(self.estimators)
        kn = self.design.n * self.design.k
        self.y_full = np.asarray(self.y_full, dtype=float)
        if self.y_full.shape != (kn,):
            raise ValueError("y_full must be a stacked kn vector")
        if self.moments is not None and self.moments.kn != kn:
            raise ValueError(f"moments describe {self.moments.kn} cells, the design {kn}")
        if self.bound is not None and (self.bound.cells is not None or self.bound.kn != kn):
            raise ValueError(f"bound must be the full {kn} x {kn} bound of the design")


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
    # written to JSON only: name -> {"Type: message": count} of the failed
    # replications, and name -> "Type: message" of a theory column left NaN
    failure_reasons: dict = field(default_factory=dict)
    theory_errors: dict = field(default_factory=dict)

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
            "failure_reasons": self.failure_reasons,
            "theory_errors": self.theory_errors,
            "provenance": self.provenance,
        }
        text = json.dumps(payload, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def display(self) -> str:
        """Two-decimal table, estimators as columns, each column at least 12
        characters and one wider than its name."""
        width = max(len(c) for c in METRIC_COLUMNS) + 2
        columns = [(name, max(12, len(name) + 1)) for name in self.estimators]
        header = " " * width + "".join(f"{name:>{w}}" for name, w in columns)
        lines = [header]
        for col in METRIC_COLUMNS:
            cells = "".join(f"{self.metrics[name][col]:>{w}.2f}" for name, w in columns)
            lines.append(f"{col:<{width}}" + cells)
        return "\n".join(lines)


_WORKER_CONFIG = None  # set once per worker process by _init_worker


def _init_worker(cfg):
    global _WORKER_CONFIG
    _WORKER_CONFIG = cfg


def _chunk_via_global(rep_indices):
    return _replication_chunk(_WORKER_CONFIG, rep_indices)


def failure_text(exc: BaseException) -> str:
    """The one spelling of a failed fit: "Type: message"."""
    return f"{type(exc).__name__}: {exc}"


def fit_rows(chunk: ReplicationChunk, names, c, bound):
    """The one table pass: each name resolved before any fit, each row fitted once, and all
    plug-in bounds in one plugin_bounds pass (none if the chunk has no rows). Returns (fits,
    values, raw, errors): each row's SampleFit, contrast values and raw plug-in bounds (B, E)
    over the chunk's B rows, and the exception of each failed (replication, estimator index)
    pair; a replication without a row fails every estimator."""
    rows = [estimator(name) for name in names]
    fits = [chunk.fit(row, c) for row in rows]
    values = np.stack([np.matmul(c, fit.mu[..., None])[..., 0] for fit in fits], axis=1)
    v = np.stack([fit.z @ c for fit in fits], axis=1)
    raw = plugin_bounds(v, chunk.cells, bound) if chunk.reps else np.empty(values.shape)
    errors = {(rep, e): exc for rep, exc in chunk.failed.items() for e in range(len(rows))}
    errors |= {(chunk.reps[b], e): x for e, fit in enumerate(fits) for b, x in fit.errors.items()}
    return fits, values, raw, errors


def _replication_chunk(cfg: SimConfig, rep_indices):
    """Contrast values and plug-in bounds x n (R, E) of replications rep_indices, NaN where a
    fit failed, and the failure record {(rep, e): "Type: message"}. cfg carries its moments
    and bound (run_simulation fills them in)."""
    design = cfg.design  # replication rep draws from stream_rng(seed, rep) in any chunking
    arms = np.stack([design.sample(stream_rng(cfg.seed, rep)).arm_of for rep in rep_indices])
    y_obs = cfg.y_full[arms * design.n + np.arange(design.n)]
    chunk = ReplicationChunk(arms, y_obs, cfg.X, cfg.moments, list(rep_indices))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, values, raw, errors = fit_rows(chunk, cfg.estimators, cfg.contrast, cfg.bound)
    out = np.full((2, len(rep_indices), len(cfg.estimators)), np.nan)
    out[:, np.isin(rep_indices, chunk.reps)] = values, raw * chunk.n
    for rep, e in errors:
        out[:, rep_indices.index(rep), e] = np.nan
    return out[0], out[1], {key: failure_text(exc) for key, exc in sorted(errors.items())}


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
    fit = estimator(name)(population, c)
    if fit.errors:
        raise fit.errors[0]
    return fit.z[0] @ c


def run_simulation(cfg: SimConfig) -> MetricsTable:
    """Draw assignments, run every configured estimator, and aggregate the
    seven metric rows; failed replications are excluded and counted by reason."""
    moments = closed_form_or_exact_moments(cfg.design) if cfg.moments is None else cfg.moments
    bound = aronow_samii_bound(moments) if cfg.bound is None else cfg.bound
    cfg, n = replace(cfg, moments=moments, bound=bound), cfg.design.n  # what every chunk reads
    truth = float(cfg.contrast @ (intercept_matrix(n, cfg.design.k).T @ cfg.y_full) / n)
    chunks = [
        range(start, min(start + REPLICATION_CHUNK, cfg.replications))
        for start in range(0, cfg.replications, REPLICATION_CHUNK)
    ]
    if cfg.workers > 1:
        _ = bound.Dt_over_p  # formed here once, not once in every worker
        # a pool may start all its workers at once: start no more than there are chunks
        with ProcessPoolExecutor(
            max_workers=min(cfg.workers, len(chunks)), initializer=_init_worker, initargs=(cfg,)
        ) as pool:
            parts = list(pool.map(_chunk_via_global, chunks))
    else:
        parts = [_replication_chunk(cfg, chunk) for chunk in chunks]
    table, bounds_table = (np.concatenate([part[i] for part in parts]) for i in (0, 1))
    record = {key: text for part in parts for key, text in part[2].items()}
    failed = np.zeros(table.shape, dtype=bool)
    for rep, e in record:
        failed[rep, e] = True

    z_crit = normal_critical_value(cfg.level)
    population = ReplicationChunk.population(cfg.X, cfg.y_full, moments)
    metrics, failures, failure_reasons, theory_errors = {}, {}, {}, {}
    for e, name in enumerate(cfg.estimators):
        values, bounds_tn = table[~failed[:, e], e], bounds_table[~failed[:, e], e]
        failures[name] = int(failed[:, e].sum())
        failure_reasons[name] = dict(Counter(text for (_, j), text in record.items() if j == e))
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
        except Exception as exc:
            theo_var = theo_bound = np.nan
            theory_errors[name] = failure_text(exc)
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
        failure_reasons=failure_reasons,
        theory_errors=theory_errors,
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
