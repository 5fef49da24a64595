"""Linear and imputed-reweighted estimators with plug-in variance bounds,
and the observed-experiment type every estimator reads.

All estimators here are weighted combinations of the observed outcomes. The
family shares one linearization structure: each estimator has a kn x k
matrix z such that the (asymptotic) variance of the arm estimates is
z' D z / n^2, which is what the plug-in bound machinery consumes. One body
per kind serves both uses: a sample fit passes the observed outcomes (zero
elsewhere) with cell weights r the observed-cell indicator, and the
population fit passes the full outcome vector with r = pi.

A ReplicationChunk holds the observed experiments of a chunk of
replications, stacked: it alone builds the observed vectors (r, ipw, y,
y_ipw) and applies the zero-pi rule. ReplicationChunk.population is the
population as a chunk of one (r = pi, y = y_ipw = the full outcome vector),
so every estimator's population fit is its sample body on that chunk. A
chunk fits each stage that several estimators share once: the
pseudo-likelihood first stages, and the regression family's weighted fit.
ExperimentData is one observed experiment and carries its chunk of one
(data.chunk), so the per-replication functions run the same bodies as the
estimator table.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bounds import VarianceBound
from .designs import AssignmentRealization, check_arms, order_by_unit_id, read_csv_columns
from .moments import DesignMoments

PINV_RCOND = 1e-10
CENTERING_TOL = 1e-10
COLUMN_SPACE_TOL = 1e-8

LINEAR_KINDS = ("ht", "hajek", "ols", "wls", "ci", "mi", "gr")


class HajekUndefinedError(ValueError):
    """An arm has no observed units, so its Hajek denominator is zero."""


def check_covariates(X, n: int) -> np.ndarray:
    """X as a float n x p matrix; raises ValueError unless its entries are
    finite and its columns centered."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != n:
        raise ValueError("X must be n x p")
    if not np.isfinite(X).all():
        raise ValueError("covariates must be finite")
    if X.size and np.max(np.abs(X.mean(axis=0))) > CENTERING_TOL:
        raise ValueError("covariate columns must be centered")
    return X


class SampleFit(NamedTuple):
    """An estimator's fits on the rows of a chunk: arm estimates mu (B, k),
    linearizations z (B, kn, k), one diagnostics dict per row, and the
    exception of each row whose estimator is undefined."""

    mu: np.ndarray
    z: np.ndarray
    diagnostics: list
    errors: dict


class ReplicationChunk:
    """The observed experiments of a chunk of replications, stacked.

    Row b belongs to replication reps[b]: its arms and outcomes y_obs (B, n)
    and observed cells and, over the kn cells, the observed-cell indicator
    r, its inverse-probability weights ipw, and the observed outcome vector
    y and its IPW analog y_ipw, zero off the observed cells (B, kn); by
    default the chunk is one observed experiment, replication 0. A
    replication with an observed cell of zero inclusion probability, on
    which no weighted estimator is defined, gets no row: failed maps it to
    that error. ReplicationChunk.population(X, y_full, moments) is the
    population as a chunk of one.
    """

    is_population = False

    def __init__(self, arms, y_obs, X, moments: DesignMoments, reps=(0,)):
        n, pi = moments.n, moments.pi
        self.n, self.k, self.moments = n, moments.k, moments
        self.X = check_covariates(X, n)
        arms = check_arms(arms, (len(reps), n), self.k)
        y_obs = np.asarray(y_obs, dtype=float)
        if y_obs.shape != arms.shape:
            raise ValueError(f"y_obs must have shape {arms.shape}, one outcome per unit")
        cells = arms * n + np.arange(n)
        zero = (pi[cells] <= 0).any(axis=-1)
        message = "observed cell with zero inclusion probability"
        self.failed = {rep: ValueError(message) for rep, z in zip(reps, zero) if z}
        self.reps = [rep for rep, z in zip(reps, zero) if not z]
        self.arms, self.cells, self.y_obs = arms[~zero], cells[~zero], y_obs[~zero]
        self.r = np.zeros((len(self.reps), n * self.k))
        np.put_along_axis(self.r, self.cells, 1.0, axis=1)
        self.ipw = _ipw(self.r, pi)
        self.y = np.zeros_like(self.r)
        np.put_along_axis(self.y, self.cells, self.y_obs, axis=1)
        self.y_ipw = np.zeros_like(self.r)
        np.put_along_axis(self.y_ipw, self.cells, self.y_obs / pi[self.cells], axis=1)
        self._first_stages, self._regressions = {}, {}

    @classmethod
    def population(cls, X, y_full, moments: DesignMoments) -> "ReplicationChunk":
        """The population as a chunk of one, on which an estimator's sample
        fit is its population fit: every cell is observed with weight
        r = pi (so it has no arms, cells or y_obs), y and y_ipw are the full
        outcome vector, and no zero-pi rule applies. Its first stage
        minimises the population loss, each cell weighing omega, and its
        second stages do not warn."""
        chunk = cls.__new__(cls)
        n, kn, pi = moments.n, moments.kn, moments.pi
        chunk.n, chunk.k, chunk.moments = n, moments.k, moments
        chunk.X = check_covariates(X, n)
        y = np.asarray(y_full, dtype=float)[None]
        if y.shape != (1, kn):
            raise ValueError("y_full must be a stacked kn vector")
        chunk.is_population, chunk.failed, chunk.reps = True, {}, [0]
        chunk.r, chunk.ipw = pi[None], _ipw(pi[None], pi)
        chunk.y = chunk.y_ipw = y
        chunk._first_stages, chunk._regressions = {}, {}
        return chunk

    def first_stage(self, family: str, omega: str):
        """Pseudo-likelihood theta (B, s) of every row, its cells weighing
        omega in the population loss, and its imputations f (B, kn); fitted
        once per chunk and shared by the estimators that start from it."""
        if (family, omega) not in self._first_stages:
            from .model_assisted import ImputationModel, population_qmle, sample_qmle

            model = ImputationModel(family, self.k, self.X.shape[1])
            rows = model.design_rows(self.X)
            if self.is_population:
                weights = self.moments.pi if omega == "pi" else None
                theta = population_qmle(model, self.X, self.y[0], omega=weights)[None]
            else:
                theta = sample_qmle(model, rows, self.moments.pi, omega, self.cells, self.y_obs)
            self._first_stages[family, omega] = theta, model._predict_rows(theta, rows)
        return self._first_stages[family, omega]

    def regression(self, m_weights) -> "Regression":
        """Every row's regression on the same-slope model matrix, cell c
        weighing m[c] r[c]. m_weights names the identity ("identity") or
        inverse-probability ("invpi") weights, whose fit is made once per
        chunk and shared by the regression family's estimators, or is a
        custom kn vector, fitted afresh."""
        named = isinstance(m_weights, str)
        if named and m_weights in self._regressions:
            return self._regressions[m_weights]
        m = m_weight_vector(self.moments.pi, m_weights)
        x = model_matrix(self.X, self.k)
        w = m * self.r
        a_inv, deficient, cond = _pinv_flagged(x.T @ (x * w[..., None]))
        b = _matvec(a_inv, _matvec(x.T, w * self.y))
        fit = Regression(m, x, a_inv, deficient, cond, b)
        if named:
            self._regressions[m_weights] = fit
        return fit

    def fit(self, row, c, optimizer) -> SampleFit:
        """row(self, c, optimizer), for a row of the estimator table. A
        row that raises on several replications is refit one replication at
        a time, so that the failure stays with its replication."""
        try:
            return row(self, c, optimizer)
        except Exception as exc:  # recorded against the replication
            B = len(self.reps)
            if B <= 1:
                nan = np.full((B, self.n * self.k, self.k), np.nan)
                return SampleFit(nan[:, 0], nan, [{}] * B, dict.fromkeys(range(B), exc))
            fits = [
                ReplicationChunk(self.arms[[b]], self.y_obs[[b]], self.X, self.moments, [rep])
                .fit(row, c, optimizer)
                for b, rep in enumerate(self.reps)
            ]
            return SampleFit(
                np.concatenate([fit.mu for fit in fits]),
                np.concatenate([fit.z for fit in fits]),
                [fit.diagnostics[0] for fit in fits],
                {b: fit.errors[0] for b, fit in enumerate(fits) if fit.errors},
            )


@dataclass
class ExperimentData:
    """One observed experiment: outcomes, assignment, centered covariates,
    and the design moments, held as its chunk of one (chunk), which every
    per-replication estimator reads; raises the chunk's error if an observed
    cell has zero inclusion probability."""

    n: int
    k: int
    y_obs: np.ndarray
    assignment: AssignmentRealization
    X: np.ndarray
    moments: DesignMoments

    def __post_init__(self):
        arms, y_obs = self.assignment.arm_of[None], np.asarray(self.y_obs)[None]
        self.chunk = ReplicationChunk(arms, y_obs, self.X, self.moments)
        if self.chunk.failed:
            raise self.chunk.failed[0]
        self.y_obs, self.X = self.chunk.y_obs[0], self.chunk.X

    @classmethod
    def from_full(cls, y_full, assignment, X, moments):
        """The experiment that observes the stacked kn vector y_full
        (arm-major) at the assignment's cells."""
        y_full = np.asarray(y_full, dtype=float)
        if y_full.shape != (assignment.n * assignment.k,):
            raise ValueError("y_full must be a stacked kn vector")
        y_obs = y_full[assignment.observed_cells]
        return cls(assignment.n, assignment.k, y_obs, assignment, X, moments)

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def observed_cells(self) -> np.ndarray:
        return self.assignment.observed_cells


def intercept_matrix(n: int, k: int) -> np.ndarray:
    """kn x k block matrix of arm intercepts."""
    return np.repeat(np.eye(k), n, axis=0)


def model_matrix(X: np.ndarray, k: int) -> np.ndarray:
    """kn x (k+p) augmented matrix: arm intercepts plus the n x p covariates
    X repeated per arm (same-slope layout)."""
    ones = intercept_matrix(X.shape[0], k)
    if X.shape[1] == 0:
        return ones
    return np.hstack([ones, np.tile(X, (k, 1))])


def m_weight_vector(pi: np.ndarray, m_weights) -> np.ndarray:
    """Diagonal of the WLS weight matrix on the stacked cells with inclusion
    probabilities pi: m_weights is "identity", "invpi" or a custom kn
    vector."""
    kn = len(pi)
    if isinstance(m_weights, str) and m_weights == "identity":
        return np.ones(kn)
    if isinstance(m_weights, str):
        if m_weights != "invpi":
            raise ValueError(f"unknown m weights {m_weights!r}")
        return np.divide(1.0, pi, out=np.zeros(kn), where=pi > 0)
    m = np.asarray(m_weights, dtype=float)
    if m.shape != (kn,):
        raise ValueError("custom m weights must be a kn vector")
    if np.any(m <= 0):
        raise ValueError("m weights must be strictly positive")
    return m


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v over leading batch axes. Each slice takes the same BLAS call as
    the 2-D a @ v, so it is bitwise equal to it."""
    return np.matmul(a, v[..., None])[..., 0]


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the last axes of a and b over leading batch axes,
    each bitwise equal to the 1-D a @ b."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


class Regression(NamedTuple):
    """A weighted regression of a chunk's B rows: the cell weights m (kn,),
    the model matrix x (kn, s), the pseudoinverse a_inv (B, s, s) of each
    row's weighted Gram matrix with its rank flag and condition number
    (B,), and the coefficients b (B, s). The (B, kn) and (B, kn, s) arrays
    derived from them are left to each estimator, so that a chunk keeps no
    arrays of its size alive while its other rows fit."""

    m: np.ndarray
    x: np.ndarray
    a_inv: np.ndarray
    deficient: np.ndarray
    cond: np.ndarray
    b: np.ndarray


def _pinv_flagged(A: np.ndarray):
    """Pseudoinverse of each symmetric matrix in the stack A (..., s, s),
    whether it is rank deficient, and its condition number, all from one
    SVD per matrix."""
    u, s, vt = np.linalg.svd(A, hermitian=True)
    keep = s > PINV_RCOND * s[..., :1]
    inv_s = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(s[..., -1] > 0, s[..., 0] / s[..., -1], np.inf)
    pinv = (np.swapaxes(vt, -1, -2) * inv_s[..., None, :]) @ np.swapaxes(u, -1, -2)
    return pinv, ~keep.all(axis=-1), cond


@dataclass
class LinearFit:
    """Arm estimates mu_hat and kn x k linearization z_hat of one fit; the
    regression family adds its coefficients, rank flag and the condition
    number of its weighted Gram matrix."""

    mu_hat: np.ndarray
    z_hat: np.ndarray
    b_hat: np.ndarray | None = None
    rank_deficient: bool = False
    condition_number: float | None = None


def _arm_sums(v: np.ndarray, k: int) -> np.ndarray:
    """Per-arm sums of stacked kn vectors (the last axis)."""
    return v.reshape(*v.shape[:-1], k, v.shape[-1] // k).sum(axis=-1)


def _ipw(r: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Inverse-probability weights r / pi, zero where r is zero (pi may be
    zero there)."""
    return np.divide(r, pi, out=np.zeros(np.shape(r)), where=r > 0)


def _gr_fit(f: np.ndarray, y: np.ndarray, ipw: np.ndarray, k: int):
    """Arm estimates and linearization of the imputation-plus-correction
    form: imputations f plus the inverse-probability-weighted residual."""
    n = y.shape[-1] // k
    e = y - f
    return _arm_sums(f + ipw * e, k) / n, intercept_matrix(n, k) * e[..., None]


def _linear_fit(kind, chunk, m_weights=None) -> tuple[SampleFit, np.ndarray | None]:
    """One linear estimator on every row of the chunk, and, for the
    regression family, its (B, k+p) coefficients (None otherwise); row b of
    the fit depends on row b of the chunk only, and equals bitwise the fit
    of a chunk of one.

    Cell c enters the regression fit with weight m[c] r[c]; ols forces
    identity m weights, the rest of the regression family defaults to
    inverse probabilities, and all of them read the chunk's shared fit
    (ReplicationChunk.regression). Each row's diagnostics are its rank flag
    and, for the regression family, the condition number of its weighted
    Gram matrix. A hajek row with an empty arm gets NaN estimates and its
    HajekUndefinedError in errors.
    """
    if kind not in LINEAR_KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    n, k, pi, y, r = chunk.n, chunk.k, chunk.moments.pi, chunk.y, chunk.r
    ones = intercept_matrix(n, k)
    plain = [{"rank_deficient": False}] * len(y)
    if kind == "ht":
        return SampleFit(_arm_sums(chunk.ipw * y, k) / n, ones * y[..., None], plain, {}), None
    if kind == "hajek":
        den = _arm_sums(chunk.ipw, k)
        errors = {
            b: HajekUndefinedError(
                f"no observed units in arm(s) {(np.flatnonzero(den[b] == 0) + 1).tolist()}"
            )
            for b in np.flatnonzero((den == 0).any(axis=-1))
        }
        with np.errstate(divide="ignore", invalid="ignore"):
            mu = _arm_sums(chunk.ipw * y, k) / den
        return SampleFit(mu, ones * (y - np.repeat(mu, n, axis=-1))[..., None], plain, errors), None

    if kind == "ols":
        m_weights = "identity"
    fit = chunk.regression("invpi" if m_weights is None else m_weights)
    if fit.deficient.any():
        warnings.warn("rank-deficient WLS design matrix; pseudoinverse used", RuntimeWarning)
    x = fit.x
    fitted = _matvec(x, fit.b)
    e = y - fitted
    if kind != "gr":
        gain = ((e * pi * fit.m)[..., None] * x) @ fit.a_inv
    if kind in ("ols", "wls"):
        mu, z = fit.b[..., :k].copy(), n * gain[..., :k]
    elif kind == "ci":
        mu, z = _arm_sums(fitted, k) / n, gain @ (x.T @ ones)
    elif kind == "mi":
        mu = _arm_sums(r * y + (1.0 - r) * fitted, k) / n
        z = (e * pi)[..., None] * ones + gain @ (x.T @ ((1.0 - pi)[:, None] * ones))
    else:  # gr
        mu, z = _gr_fit(fitted, y, chunk.ipw, k)
    diagnostics = [
        {"rank_deficient": flag, "condition_number": c}
        for flag, c in zip(fit.deficient.tolist(), fit.cond.tolist())
    ]
    return SampleFit(mu, z, diagnostics, {}), fit.b.copy()


def estimate_linear(kind: str, data: ExperimentData, m_weights=None) -> LinearFit:
    """Point estimates of the k arm means and the sample linearization for
    one estimator kind.

    kinds: ht, hajek (no adjustment); ols, wls, ci, mi, gr (regression
    family; ols forces identity weights, wls defaults to inverse
    probabilities). Only the rows of z_hat at observed cells are meaningful.
    Raises the estimator's error where it is undefined.
    """
    fit, b = _linear_fit(kind, data.chunk, m_weights)
    if fit.errors:
        raise fit.errors[0]
    if b is None:
        return LinearFit(fit.mu[0], fit.z[0])
    diagnostics = fit.diagnostics[0]
    return LinearFit(
        fit.mu[0], fit.z[0], b[0], diagnostics["rank_deficient"], diagnostics["condition_number"]
    )


def linear_sample(kind: str, chunk: ReplicationChunk, m_weights=None) -> SampleFit:
    """One linear estimator on every row of the chunk (see _linear_fit)."""
    return _linear_fit(kind, chunk, m_weights)[0]


def z_vector(kind: str, data: ExperimentData) -> np.ndarray:
    """kn x k sample linearization matrix for the estimator: unknowns are
    replaced by their sample plug-ins, and only rows at observed cells are
    meaningful. The population linearization is the same body on
    ReplicationChunk.population."""
    return estimate_linear(kind, data).z_hat


def check_contrast(contrast, k: int) -> np.ndarray:
    """The contrast as a float k vector; raises ValueError unless it is a
    list (or array) of one finite number per arm."""
    weights = contrast.tolist() if isinstance(contrast, np.ndarray) else contrast
    if not isinstance(weights, (list, tuple)) or not all(
        isinstance(w, (int, float, np.integer, np.floating)) and not isinstance(w, bool)
        for w in weights
    ):
        raise ValueError(f"contrast must be a list of numbers, one per arm, got {contrast!r}")
    c = np.asarray(weights, dtype=float)
    if c.shape != (k,):
        raise ValueError("contrast length must match the number of arms")
    if not np.isfinite(c).all():
        raise ValueError(f"contrast weights must be finite, got {c.tolist()}")
    return c


class PluginVariance(NamedTuple):
    raw: float
    times_n: float
    negative: bool

    @classmethod
    def of(cls, raw: float, n: int) -> "PluginVariance":
        """The plug-in bound raw of an n-unit experiment; warns when it is
        negative."""
        negative = raw < 0
        if negative:
            warnings.warn(
                "negative variance-bound estimate; consider psd_clip on the bound",
                RuntimeWarning,
            )
        return cls(raw=raw, times_n=raw * n, negative=negative)


def plugin_varbound(
    z_hat: np.ndarray,
    assignment: AssignmentRealization,
    bound: VarianceBound,
    c: np.ndarray | None = None,
) -> PluginVariance:
    """Plug-in estimate of the contrast's variance bound z'Dt z / n^2,
    using only the observed rows of z and the inverse-joint-probability
    weighted bound matrix, full or the block of the observed cells. A 1-D z
    is taken as already contracted with the contrast."""
    z_hat = np.asarray(z_hat, dtype=float)
    v = z_hat @ check_contrast(c, assignment.k) if z_hat.ndim == 2 else z_hat
    raw = plugin_bounds(v[None, None], assignment.observed_cells[None], bound)[0, 0]
    return PluginVariance.of(float(raw), assignment.n)


def plugin_bounds(v: np.ndarray, cells: np.ndarray, bound: VarianceBound) -> np.ndarray:
    """plugin_raw of the contrast-contracted linearizations v (B, E, kn) of
    E estimators on B rows with observed cells (B, n), from the full bound
    or, for one row, the block of its observed cells (the block's rows are
    those cells). Returns (B, E)."""
    if bound.cells is not None:
        if len(cells) != 1 or not np.array_equal(bound.cells, cells[0]):
            raise ValueError("the bound's block is not the observed cells' block")
        v, cells = np.take_along_axis(v, cells[:, None], axis=-1), np.arange(cells.shape[-1])[None]
    return plugin_raw(v, cells, bound.Dt_over_p)


# Bound entries gathered per block: 0.5 MB, and as much again in indices, so
# that a batch of plug-in bounds needs no more memory than one at a time.
PLUGIN_BLOCK_ENTRIES = 1 << 16


def plugin_raw(v: np.ndarray, cells: np.ndarray, Dt_over_p: np.ndarray) -> np.ndarray:
    """Plug-in bounds z'Dt z / n^2 of E estimators on B rows: the
    contrast-contracted linearizations v (B, E, kn), each read at its row's
    observed cells (B, n). Returns (B, E).

    Entry (b, e) is bitwise the 2-D vs @ Dt_over_p[cells_b, cells_b] @ vs.
    Each row's bound block is gathered once for all E estimators, in
    (b, n, n) blocks capped at PLUGIN_BLOCK_ENTRIES entries.
    """
    n, kn = cells.shape[-1], len(Dt_over_p)
    flat = np.ascontiguousarray(Dt_over_p).ravel()
    vs = np.take_along_axis(v, cells[:, None, :], axis=-1)
    quad = np.empty(vs.shape[:2])
    step = max(1, PLUGIN_BLOCK_ENTRIES // max(n * n, 1))
    for lo in range(0, len(vs), step):
        block = cells[lo : lo + step]
        gathered = flat[block[:, :, None] * kn + block[:, None, :]]
        for e in range(vs.shape[1]):
            vb = np.ascontiguousarray(vs[lo : lo + step, e])
            quad[lo : lo + step, e] = _rowdot(np.matmul(vb[:, None, :], gathered)[:, 0], vb)
    return quad / n**2


def normal_critical_value(level: float) -> float:
    """The (1 + level)/2 standard normal quantile, bitwise what
    scipy.stats.norm.ppf gives."""
    return _ndtri(0.5 + level / 2)


# Cephes ndtri's rational approximations (highest power first; each Q has
# an implicit leading 1): P0/Q0 for |y - 1/2| <= 1/2 - exp(-2), and in
# z = 1/sqrt(-2 log y), P1/Q1 for exp(-32) < y and P2/Q2 below.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_MINUS_2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242e0


def _polevl(x: float, coefs, leading: float) -> float:
    """Horner's rule from the leading coefficient, as cephes polevl (leading
    coefs[0]) and p1evl (leading 1) evaluate."""
    value = leading
    for c in coefs:
        value = value * x + c
    return value


def _ndtri(y: float) -> np.float64:
    """Standard normal quantile: a port of cephes ndtri with its
    coefficients and operation order, so it equals scipy.special.ndtri
    bitwise without importing scipy."""
    y = float(y)
    if y == 0.0:
        return np.float64(-np.inf)
    if y == 1.0:
        return np.float64(np.inf)
    if y < 0.0 or y > 1.0:
        return np.float64(np.nan)
    upper = y > 1.0 - _EXP_MINUS_2
    if upper:
        y = 1.0 - y
    if y > _EXP_MINUS_2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0[1:], _NDTRI_P0[0]) / _polevl(y2, _NDTRI_Q0, 1.0))
        return np.float64(x * _SQRT_2PI)
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x0 - z * _polevl(z, p[1:], p[0]) / _polevl(z, q, 1.0)
    return np.float64(x if upper else -x)


def normal_ci(contrast_value: float, varbound_times_n: float, n: int, level: float = 0.95):
    """Normal-approximation interval from the x n scaled bound estimate."""
    if varbound_times_n < 0:
        raise ValueError("variance bound estimate must be nonnegative")
    half = normal_critical_value(level) * np.sqrt(varbound_times_n / n)
    return contrast_value - half, contrast_value + half


@dataclass
class EstimateReport:
    """Contrast estimate, plug-in bound and normal interval at level 0.95 of
    one fit; NaN bounds and interval when there is no bound, and a NaN
    interval when the bound is negative."""

    estimator: str
    contrast: list
    contrast_value: float
    varbound_times_n: float
    varbound_raw: float
    ci_low: float
    ci_high: float
    level: float = 0.95
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The fields in their order: what dataclasses.asdict gives, without
        its deep copy of every value, which costs several times as much as
        building the report."""
        return dict(vars(self))

    def to_json(self, path=None):
        text = json.dumps(self.to_dict(), indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def plugin_report(
    estimator: str,
    mu_hat: np.ndarray,
    plugin: PluginVariance | None,
    n: int,
    moments: DesignMoments,
    c,
    diagnostics: dict | None = None,
) -> EstimateReport:
    """Report for the contrast c of the arm estimates mu_hat of an n-unit
    experiment, with its plug-in bound (NaN when plugin is None) and the
    normal interval that bound gives. The one builder of EstimateReport."""
    c = np.asarray(c, dtype=float)
    diagnostics = dict(diagnostics or {})
    raw = times_n = np.nan
    if plugin is not None:
        raw, times_n, diagnostics["negative_bound"] = plugin
    if np.any(moments.maybe_zero_mask):
        diagnostics["possibly_zero_cells"] = int(moments.maybe_zero_mask.sum())
    value = float(c @ mu_hat)
    lo, hi = normal_ci(value, times_n, n) if raw >= 0 else (np.nan, np.nan)
    return EstimateReport(
        estimator=estimator, contrast=c.tolist(), contrast_value=value, varbound_times_n=times_n,
        varbound_raw=raw, ci_low=lo, ci_high=hi, diagnostics=diagnostics,
    )


def estimate_report(
    kind: str,
    data: ExperimentData,
    bound: VarianceBound,
    c,
    m_weights=None,
) -> EstimateReport:
    """Fit one linear estimator and assemble the full report for a contrast."""
    return row_report(kind, linear_sample(kind, data.chunk, m_weights), data, bound, c)


def row_report(
    name: str, fit: SampleFit, data: ExperimentData, bound: VarianceBound | None, c
) -> EstimateReport:
    """Report for the contrast c of a fit of data.chunk, with the plug-in
    bound of its linearization at the observed assignment (NaN without a
    bound); raises the fit's error, if it has one."""
    if fit.errors:
        raise fit.errors[0]
    plugin = None if bound is None else plugin_varbound(fit.z[0], data.assignment, bound, c)
    return plugin_report(name, fit.mu[0], plugin, data.n, data.moments, c, fit.diagnostics[0])


@dataclass
class InterpretationReport:
    ci_condition_ok: bool
    mi_condition_ok: bool
    ci_residual: float
    mi_residual: float


def check_interpretation(data: ExperimentData, m_weights="invpi") -> InterpretationReport:
    """Column-space checks telling whether the regression-family estimators
    target the average potential outcomes.

    The completely-imputed family needs every column of m^-1 pi^-1 1 in
    col(x); the missing-imputed family needs m^-1 (i - pi^-1) 1 there. The
    m weights default to the regression estimators' inverse probabilities.
    """
    pi = data.moments.pi
    m = m_weight_vector(pi, m_weights)
    if np.any(pi <= 0):
        raise ValueError("interpretation checks need strictly positive inclusion probabilities")
    x = model_matrix(data.X, data.k)
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


def load_observed_csv(path):
    """unit_id,arm,y with 1-based arms and finite y; returns (unit_ids, arms,
    y) with rows sorted by unit_id and arms 0-based."""
    columns = read_csv_columns(path, ("unit_id", "arm", "y"), "observed-data")
    ids, order = order_by_unit_id(columns["unit_id"], "observed-data")
    arms = np.array(columns["arm"], dtype=np.int64)[order] - 1
    y = np.array(columns["y"], dtype=float)[order]
    bad = ids[~np.isfinite(y)]
    if bad.size:
        raise ValueError(f"non-finite y for unit_id {bad[0]} in the observed-data CSV")
    return ids, arms, y


def load_covariates_csv(path):
    """unit_id,x1..xp; returns (unit_ids, X, names): the ids sorted, the raw
    (uncentered) covariate matrix with rows in that order, blank cells NaN,
    and the column names (the header after unit_id)."""
    columns = read_csv_columns(path, ("unit_id",), "covariates")
    if next(iter(columns)) != "unit_id":
        raise ValueError("covariates CSV header (line 1) must start with unit_id")
    ids, order = order_by_unit_id(columns.pop("unit_id"), "covariates")
    X = np.empty((len(ids), len(columns)))
    for j, cells in enumerate(columns.values()):
        X[:, j] = np.array([cell or "nan" for cell in cells], dtype=float)[order]
    return ids, X, list(columns)
