"""Linear and imputed-reweighted estimators with plug-in variance bounds.

All estimators here are weighted combinations of the observed outcomes. The
family shares one linearization structure: each estimator has a kn x k
matrix z such that the (asymptotic) variance of the arm estimates is
z' D z / n^2, which is what the plug-in bound machinery consumes.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.stats import norm

from .bounds import VarianceBound
from .designs import AssignmentRealization
from .moments import DesignMoments

PINV_RCOND = 1e-10
CENTERING_TOL = 1e-10
COLUMN_SPACE_TOL = 1e-8

LINEAR_KINDS = ("ht", "hajek", "ols", "wls", "ci", "mi", "gr")


class HajekUndefinedError(ValueError):
    """An arm has no observed units, so its Hajek denominator is zero."""


@dataclass
class ExperimentData:
    """Observed experiment: outcomes, assignment, centered covariates, and
    the design moments. y_full (kn, arm-major) is present in simulation
    mode only and must agree with y_obs on observed cells."""

    n: int
    k: int
    y_obs: np.ndarray
    assignment: AssignmentRealization
    X: np.ndarray
    moments: DesignMoments
    y_full: np.ndarray | None = None

    def __post_init__(self):
        self.y_obs = np.asarray(self.y_obs, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2 or self.X.shape[0] != self.n:
            raise ValueError("X must be n x p")
        if self.X.size and np.max(np.abs(self.X.mean(axis=0))) > CENTERING_TOL:
            raise ValueError("covariate columns must be centered")
        if self.y_full is not None:
            self.y_full = np.asarray(self.y_full, dtype=float)
            if self.y_full.shape != (self.n * self.k,):
                raise ValueError("y_full must be a stacked kn vector")
            if not np.allclose(
                self.y_full[self.assignment.observed_cells], self.y_obs, atol=1e-12
            ):
                raise ValueError("y_obs disagrees with y_full on observed cells")

    @classmethod
    def from_full(cls, y_full, assignment, X, moments):
        y_full = np.asarray(y_full, dtype=float)
        return cls(
            n=assignment.n,
            k=assignment.k,
            y_obs=y_full[assignment.observed_cells],
            assignment=assignment,
            X=np.asarray(X, dtype=float),
            moments=moments,
            y_full=y_full,
        )

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def observed_cells(self) -> np.ndarray:
        return self.assignment.observed_cells

    def y_stacked_observed(self) -> np.ndarray:
        """kn vector with observed outcomes at observed cells, zero elsewhere."""
        out = np.zeros(self.n * self.k)
        out[self.observed_cells] = self.y_obs
        return out


def intercept_matrix(n: int, k: int) -> np.ndarray:
    """kn x k block matrix of arm intercepts."""
    return np.kron(np.eye(k), np.ones((n, 1)))


def model_matrix(data: ExperimentData) -> np.ndarray:
    """kn x (k+p) augmented matrix: arm intercepts plus covariates repeated
    per arm (same-slope layout)."""
    ones = intercept_matrix(data.n, data.k)
    if data.p == 0:
        return ones
    return np.hstack([ones, np.tile(data.X, (data.k, 1))])


def m_weight_vector(data: ExperimentData, m_weights) -> np.ndarray:
    """Diagonal of the WLS weight matrix on the stacked cells."""
    kn = data.n * data.k
    if m_weights is None or (isinstance(m_weights, str) and m_weights == "identity"):
        return np.ones(kn)
    if isinstance(m_weights, str):
        if m_weights not in ("invpi", "inverse_probability"):
            raise ValueError(f"unknown m weights {m_weights!r}")
        pi = data.moments.pi
        out = np.zeros(kn)
        live = pi > 0
        out[live] = 1.0 / pi[live]
        return out
    m = np.asarray(m_weights, dtype=float)
    if m.shape != (kn,):
        raise ValueError("custom m weights must be a kn vector")
    if np.any(m <= 0):
        raise ValueError("m weights must be strictly positive")
    return m


def _pinv_flagged(A: np.ndarray):
    u, s, vt = np.linalg.svd(A, hermitian=True)
    cutoff = PINV_RCOND * (s[0] if len(s) else 0.0)
    keep = s > cutoff
    deficient = not keep.all()
    inv_s = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (vt.T * inv_s) @ u.T, deficient


@dataclass
class LinearFit:
    kind: str
    mu_hat: np.ndarray
    m_weights: str | np.ndarray | None
    b_hat: np.ndarray | None = None
    z_hat: np.ndarray | None = None
    rank_deficient: bool = False
    condition_number: float | None = None


def _check_positivity(data: ExperimentData):
    pi_obs = data.moments.pi[data.observed_cells]
    if np.any(pi_obs <= 0):
        raise ValueError("observed cell with zero inclusion probability")


def _wls_coefficients(data: ExperimentData, m: np.ndarray):
    x = model_matrix(data)
    cells = data.observed_cells
    xo = x[cells]
    mo = m[cells]
    A = xo.T @ (xo * mo[:, None])
    rhs = xo.T @ (mo * data.y_obs)
    A_inv, deficient = _pinv_flagged(A)
    if deficient:
        warnings.warn("rank-deficient WLS design matrix; pseudoinverse used", RuntimeWarning)
    sv = np.linalg.svd(A, compute_uv=False, hermitian=True)
    cond = float(sv[0] / sv[-1]) if sv.size and sv[-1] > 0 else np.inf
    return A_inv @ rhs, deficient, cond


def gr_point_estimate(f: np.ndarray, data: ExperimentData) -> np.ndarray:
    """Imputation mean plus inverse-probability-weighted residual, per arm."""
    n, k = data.n, data.k
    cells = data.observed_cells
    arms = data.assignment.arm_of
    pi_obs = data.moments.pi[cells]
    impute = f.reshape(k, n).mean(axis=1)
    correction = (
        np.bincount(arms, weights=(data.y_obs - f[cells]) / pi_obs, minlength=k) / n
    )
    return impute + correction


def estimate_linear(kind: str, data: ExperimentData, m_weights=None) -> LinearFit:
    """Point estimates of the k arm means for one estimator kind.

    kinds: ht, hajek (no adjustment); ols, wls, ci, mi, gr (regression
    family; ols forces identity weights, wls defaults to inverse
    probabilities).
    """
    kind = kind.lower()
    if kind not in LINEAR_KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    _check_positivity(data)
    n, k = data.n, data.k
    cells = data.observed_cells
    arms = data.assignment.arm_of
    pi_obs = data.moments.pi[cells]

    if kind == "ht":
        mu = np.bincount(arms, weights=data.y_obs / pi_obs, minlength=k) / n
        fit = LinearFit(kind=kind, mu_hat=mu, m_weights=None)
        fit.z_hat = z_vector(kind, data, fit)
        return fit
    if kind == "hajek":
        num = np.bincount(arms, weights=data.y_obs / pi_obs, minlength=k)
        den = np.bincount(arms, weights=1.0 / pi_obs, minlength=k)
        if np.any(den == 0):
            empty = np.flatnonzero(den == 0) + 1
            raise HajekUndefinedError(f"no observed units in arm(s) {empty.tolist()}")
        fit = LinearFit(kind=kind, mu_hat=num / den, m_weights=None)
        fit.z_hat = z_vector(kind, data, fit)
        return fit

    if kind == "ols":
        m_weights = "identity"
    elif m_weights is None:
        m_weights = "invpi"
    m = m_weight_vector(data, m_weights)
    b_hat, deficient, cond = _wls_coefficients(data, m)
    x = model_matrix(data)
    fitted = x @ b_hat

    if kind in ("ols", "wls"):
        mu = b_hat[:k]
    elif kind == "ci":
        mu = intercept_matrix(n, k).T @ fitted / n
    elif kind == "mi":
        observed_sum = np.bincount(arms, weights=data.y_obs, minlength=k)
        all_fitted = intercept_matrix(n, k).T @ fitted
        observed_fitted = np.bincount(arms, weights=fitted[cells], minlength=k)
        mu = (observed_sum + all_fitted - observed_fitted) / n
    else:  # gr
        mu = gr_point_estimate(fitted, data)
    fit = LinearFit(
        kind=kind,
        mu_hat=mu,
        m_weights=m_weights,
        b_hat=b_hat,
        rank_deficient=deficient,
        condition_number=cond,
    )
    fit.z_hat = z_vector(kind, data, fit)
    return fit


def z_vector(kind: str, data: ExperimentData, fit: LinearFit | None = None, population: bool = False) -> np.ndarray:
    """kn x k linearization matrix for the estimator.

    population=True uses the full potential-outcome vector and the fixed
    design matrix (simulation mode); otherwise unknowns are replaced by
    their sample plug-ins and only rows at observed cells are meaningful.
    """
    kind = kind.lower()
    n, k = data.n, data.k
    ones = intercept_matrix(n, k)
    pi = data.moments.pi
    if population:
        if data.y_full is None:
            raise ValueError("population z needs the full potential-outcome vector")
        y = data.y_full
    else:
        y = data.y_stacked_observed()

    if kind == "ht":
        return ones * y[:, None]
    if kind == "hajek":
        if population:
            mu = ones.T @ y / n
        else:
            if fit is None or fit.kind != "hajek":
                fit = estimate_linear("hajek", data)
            mu = fit.mu_hat
        return ones * (y - ones @ mu)[:, None]

    m_weights = fit.m_weights if fit is not None else ("identity" if kind == "ols" else "invpi")
    m = m_weight_vector(data, m_weights)
    x = model_matrix(data)
    # the regression fit: every cell weighted m pi with the full outcomes,
    # or the observed cells weighted m with the observed outcomes
    if population:
        rows, w, y_fit = x, m * pi, y
    else:
        cells = data.observed_cells
        rows, w, y_fit = x[cells], m[cells], data.y_obs
    A_inv, _ = _pinv_flagged(rows.T @ (rows * w[:, None]))
    b = A_inv @ (rows.T @ (w * y_fit))
    u = (y - x @ b) * pi * m

    if kind == "gr":
        return ones * (y - x @ b)[:, None]
    if kind in ("ols", "wls"):
        selector = np.zeros((k + data.p, k))
        selector[:k, :k] = np.eye(k)
        return (u[:, None] * x) @ (A_inv * n) @ selector
    if kind == "ci":
        return (u[:, None] * x) @ A_inv @ (x.T @ ones)
    if kind == "mi":
        first = ((y - x @ b) * pi)[:, None] * ones
        second = (u[:, None] * x) @ A_inv @ (x.T @ ((1.0 - pi)[:, None] * ones))
        return first + second
    raise ValueError(f"no z vector for kind {kind!r}")


class PluginVariance(NamedTuple):
    raw: float
    times_n: float
    negative: bool


def plugin_varbound(
    z_hat: np.ndarray,
    assignment: AssignmentRealization,
    bound: VarianceBound,
    c: np.ndarray | None = None,
) -> PluginVariance:
    """Plug-in estimate of the contrast's variance bound z'Dt z / n^2,
    using only the observed rows of z and the inverse-joint-probability
    weighted bound matrix. A 1-D z is taken as already contracted with the
    contrast."""
    z_hat = np.asarray(z_hat, dtype=float)
    if z_hat.ndim == 2:
        c = np.asarray(c, dtype=float)
        if c.shape != (assignment.k,):
            raise ValueError("contrast length must equal the number of arms")
        v = z_hat @ c
    else:
        v = z_hat
    cells = assignment.observed_cells
    vs = v[cells]
    raw = float(vs @ bound.Dt_over_p[np.ix_(cells, cells)] @ vs) / assignment.n**2
    negative = raw < 0
    if negative:
        warnings.warn(
            "negative variance-bound estimate; consider psd_clip on the bound",
            RuntimeWarning,
        )
    return PluginVariance(raw=raw, times_n=raw * assignment.n, negative=negative)


def normal_ci(contrast_value: float, varbound_times_n: float, n: int, level: float = 0.95):
    """Normal-approximation interval from the x n scaled bound estimate."""
    if varbound_times_n < 0:
        raise ValueError("variance bound estimate must be nonnegative")
    half = norm.ppf(0.5 + level / 2) * np.sqrt(varbound_times_n / n)
    return contrast_value - half, contrast_value + half


@dataclass
class EstimateReport:
    """Contrast estimate and plug-in bound of one fit. The normal interval
    is derived on access, so callers that need only the value and the bound
    (simulation replications) never compute it."""

    estimator: str
    contrast: list
    contrast_value: float
    varbound_times_n: float
    varbound_raw: float
    n: int
    level: float = 0.95
    diagnostics: dict = field(default_factory=dict)

    @property
    def interval(self) -> tuple[float, float]:
        if not self.varbound_raw >= 0:  # negative or missing bound
            return np.nan, np.nan
        return normal_ci(self.contrast_value, self.varbound_times_n, self.n, self.level)

    @property
    def ci_low(self) -> float:
        return self.interval[0]

    @property
    def ci_high(self) -> float:
        return self.interval[1]

    def to_dict(self) -> dict:
        lo, hi = self.interval
        return {
            "estimator": self.estimator,
            "contrast": list(self.contrast),
            "contrast_value": self.contrast_value,
            "varbound_times_n": self.varbound_times_n,
            "varbound_raw": self.varbound_raw,
            "ci_low": lo,
            "ci_high": hi,
            "level": self.level,
            "diagnostics": self.diagnostics,
        }

    def to_json(self, path=None):
        text = json.dumps(self.to_dict(), indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def contrast_report(
    estimator: str,
    mu_hat: np.ndarray,
    z_hat: np.ndarray,
    data: ExperimentData,
    bound: VarianceBound | None,
    c,
    level: float = 0.95,
    diagnostics: dict | None = None,
) -> EstimateReport:
    """Report for the contrast c of the arm estimates mu_hat, with the
    plug-in bound of the linearization z_hat (NaN without a bound)."""
    c = np.asarray(c, dtype=float)
    diagnostics = dict(diagnostics or {})
    raw = times_n = np.nan
    if bound is not None:
        raw, times_n, diagnostics["negative_bound"] = plugin_varbound(
            z_hat, data.assignment, bound, c
        )
    if np.any(data.moments.maybe_zero_mask):
        diagnostics["possibly_zero_cells"] = int(data.moments.maybe_zero_mask.sum())
    return EstimateReport(
        estimator=estimator,
        contrast=c.tolist(),
        contrast_value=float(c @ mu_hat),
        varbound_times_n=times_n,
        varbound_raw=raw,
        n=data.n,
        level=level,
        diagnostics=diagnostics,
    )


def estimate_report(
    kind: str,
    data: ExperimentData,
    bound: VarianceBound,
    c,
    m_weights=None,
    level: float = 0.95,
) -> EstimateReport:
    """Fit one linear estimator and assemble the full report for a contrast."""
    fit = estimate_linear(kind, data, m_weights=m_weights)
    diagnostics = {"rank_deficient": fit.rank_deficient}
    if fit.condition_number is not None:
        diagnostics["condition_number"] = fit.condition_number
    return contrast_report(kind, fit.mu_hat, fit.z_hat, data, bound, c, level, diagnostics)


@dataclass
class InterpretationReport:
    ci_condition_ok: bool
    mi_condition_ok: bool
    ci_residual: float
    mi_residual: float


def check_interpretation(data: ExperimentData, m_weights=None) -> InterpretationReport:
    """Column-space checks telling whether the regression-family estimators
    target the average potential outcomes.

    The completely-imputed family needs every column of m^-1 pi^-1 1 in
    col(x); the missing-imputed family needs m^-1 (i - pi^-1) 1 there.
    """
    m = m_weight_vector(data, m_weights)
    pi = data.moments.pi
    if np.any(pi <= 0):
        raise ValueError("interpretation checks need strictly positive inclusion probabilities")
    x = model_matrix(data)
    ones = intercept_matrix(data.n, data.k)
    ci_target = (1.0 / (m * pi))[:, None] * ones
    mi_target = ((1.0 - 1.0 / pi) / m)[:, None] * ones

    def relative_residual(target):
        coeffs, *_ = np.linalg.lstsq(x, target, rcond=None)
        resid = target - x @ coeffs
        scale = max(1.0, float(np.linalg.norm(target)))
        return float(np.linalg.norm(resid)) / scale

    ci_res = relative_residual(ci_target)
    mi_res = relative_residual(mi_target)
    return InterpretationReport(
        ci_condition_ok=ci_res <= COLUMN_SPACE_TOL,
        mi_condition_ok=mi_res <= COLUMN_SPACE_TOL,
        ci_residual=ci_res,
        mi_residual=mi_res,
    )


def _sorted_by_unit_id(rows, label):
    """Rows sorted by their leading unit id; duplicate ids are an error."""
    rows.sort(key=lambda row: row[0])
    ids = np.array([row[0] for row in rows], dtype=np.int64)
    repeated = np.unique(ids[1:][ids[1:] == ids[:-1]])
    if repeated.size:
        raise ValueError(f"duplicate unit_id in the {label} CSV: {repeated[:5].tolist()}")
    return ids, rows


def load_observed_csv(path, return_ids: bool = False):
    """unit_id,arm,y with 1-based arms; rows sorted by unit_id on load.
    Returns (arms, y), or (unit_ids, arms, y) with return_ids."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or {"unit_id", "arm", "y"} - set(reader.fieldnames):
            raise ValueError("observed-data CSV must have columns unit_id,arm,y")
        for row in reader:
            rows.append((int(row["unit_id"]), int(row["arm"]), float(row["y"])))
    ids, rows = _sorted_by_unit_id(rows, "observed-data")
    arms = np.array([r[1] - 1 for r in rows], dtype=np.int64)
    y = np.array([r[2] for r in rows])
    return (ids, arms, y) if return_ids else (arms, y)


def load_covariates_csv(path, return_ids: bool = False):
    """unit_id,x1..xp; returns the raw (uncentered) covariate matrix with
    rows sorted by unit_id, or (unit_ids, matrix) with return_ids."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[0] != "unit_id":
            raise ValueError("covariates CSV must start with unit_id column")
        rows = [(int(r[0]), [float(v) if v != "" else np.nan for v in r[1:]]) for r in reader]
    ids, rows = _sorted_by_unit_id(rows, "covariates")
    X = np.array([r[1] for r in rows])
    return (ids, X) if return_ids else X
