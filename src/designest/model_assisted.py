"""Model-assisted regression estimators built on the imputed-plus-correction
form: impute every potential outcome from a fitted parametric model, then
add the inverse-probability-weighted residual of the observed cells.

Four parameter-selection strategies are provided: pseudo-likelihood
(fit_qmle / qmle_gr), a rescaled pseudo-likelihood that can never do worse
asymptotically than the unadjusted estimator (no_harm_gr), direct
minimization of the implied asymptotic variance (opt_gr_linear /
opt_gr_logit), and a single-imputed-covariate linear layer (opt_i_gr).

The variance criterion of imputations f_theta is Q(theta) = r' Omega r / 2n
with r = w (y - f_theta); its gradient is minus the moment vector g. The
linear fit minimizes Q in closed form. The logistic fit (opt_logit_imputations)
minimizes the ridge-penalized criterion Q + OPT_LOGIT_RIDGE |theta|^2 / 2 by
damped Newton on its analytic Hessian (_certified_newton) from the
pseudo-likelihood fit, and keeps only a certified point; the sample and the
population run that same solve.

Each second stage (no_harm_imputations, opt_linear_imputations,
opt_i_imputations, opt_logit_imputations) is one body over a leading batch
axis of outcome vectors y (B, kn): a sample fit passes the inverse-probability-
weighted observed vectors of a chunk of replications, and the population
chunk (linear.ReplicationChunk.population) passes the full potential
outcomes as a batch of one (the pseudo-likelihood fits weigh an observed
cell omega / pi, a population cell omega). A stage returns the imputations
(B, kn), one diagnostics dict per row and the exception of each row whose
fit is undefined; row b is bitwise what a batch of one gives, because every
slice takes the same BLAS call as the 2-D form (the logistic solve runs row
by row). Shared matrices are built once per batch (opt_linear's design form
and its pseudoinverse). _corrected turns a stage's imputations into the fits
of a ReplicationChunk's rows; the per-replication functions (qmle_gr,
no_harm_gr, opt_gr_linear, opt_gr_logit, opt_i_gr, moment_vector, ...) run
the same bodies on the chunk of one that ExperimentData carries.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import VarianceBound
from .linear import (
    EstimateReport,
    ExperimentData,
    SampleFit,
    _gr_fit,
    _matvec,
    _pinv_flagged,
    _rowdot,
    intercept_matrix,
    model_matrix,
    row_report,
)
from .moments import check_symmetric

EIG_WARN_RATIO = 1e-8
NOHARM_DENOM_TOL = 1e-6
OMEGA_NORM_TOL = 1e-12
# the logistic variance-minimizing fit: its ridge penalty and its Newton
# iteration (_certified_newton)
OPT_LOGIT_RIDGE = 1e-4
NEWTON_MAX_ITER = 50
NEWTON_GTOL = 1e-12
NEWTON_SHIFT = 1e-3
NEWTON_ARMIJO = 1e-4
# the logistic pseudo-likelihood fit (_weighted_qmle): its iteration cap,
# its gradient stopping tolerance relative to the objective, and the
# coefficient size at which it warns of separation
QMLE_MAX_ITER = 500
QMLE_GTOL = 1e-10
QMLE_COEF_CAP = 10.0


class WeakIdentificationError(ValueError):
    """The rescaling denominator is too close to zero to be usable."""


class OptimizationError(RuntimeError):
    """No certified minimum found within the Newton iteration's budget."""


@dataclass(frozen=True)
class ImputationModel:
    """Parametric imputation family with arm intercepts and a shared slope.

    theta layout: k arm intercepts followed by one p-vector of slopes, the
    columns of linear.model_matrix.
    """

    family: str  # "linear" | "logistic"
    k: int
    p: int

    def __post_init__(self):
        if self.family not in ("linear", "logistic"):
            raise ValueError("family must be linear or logistic")

    @property
    def s(self) -> int:
        """Number of parameters."""
        return self.k + self.p

    def design_rows(self, X: np.ndarray) -> np.ndarray:
        """kn x s matrix of linear-predictor rows in arm-major cell order:
        model_matrix(X, k), the rows the regression estimators fit."""
        if X.shape[1] != self.p:
            raise ValueError(f"X has {X.shape[1]} columns, the model p = {self.p}")
        return model_matrix(X, self.k)

    def predict(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        return self._predict_rows(theta, self.design_rows(X))

    # The row-based forms below let one call build design_rows(X) once and
    # derive predictions, gradients and Hessian factors from it.
    def _predict_rows(self, theta, rows):
        """Predictions at the rows for theta, or for each row of a (B, s)
        theta."""
        eta = _matvec(rows, np.asarray(theta, dtype=float))
        if self.family == "linear":
            return eta
        from scipy.special import expit

        return expit(eta)

    def _slopes(self, f):
        """First and second derivatives (d, h) of the inverse link at the
        linear predictors of the predictions f: one and zero for the linear
        family, f(1-f) and f(1-f)(1-2f) for the logistic."""
        if self.family == "linear":
            return np.ones(f.shape), np.zeros(f.shape)
        d = f * (1.0 - f)
        return d, d * (1.0 - 2.0 * f)


def _omega_weights(omega, pi: np.ndarray) -> np.ndarray:
    """kn vector of population cell weights: pi for "pi", ones for "ones"."""
    if not isinstance(omega, str) or omega not in ("pi", "ones"):
        raise ValueError(f"unknown omega spec {omega!r}")
    return pi if omega == "pi" else np.ones(len(pi))


def fit_qmle(model: ImputationModel, data: ExperimentData, omega="pi"):
    """Minimize the inverse-probability-weighted sample loss: observed cell
    i enters with weight omega / pi at its realized cell."""
    rows, chunk = model.design_rows(data.X), data.chunk
    return sample_qmle(model, rows, data.moments.pi, omega, chunk.cells, chunk.y_obs)[0]


def sample_qmle(model, rows, pi, omega, cells, y_obs):
    """fit_qmle for each row of the (B, n) observed cells and outcomes, with
    the kn x s design rows and the inclusion probabilities pi; returns
    (B, s). Every observed cell must have positive pi."""
    w = _omega_weights(omega, pi)[cells] / pi[cells]
    return _weighted_qmle(model, rows[cells], y_obs, w)


def population_qmle(model: ImputationModel, X, y_full, omega=None):
    """Population loss minimizer: every cell enters with weight omega
    (default one)."""
    w = np.ones(model.k * X.shape[0]) if omega is None else np.asarray(omega, dtype=float)
    rows, y_full = model.design_rows(X), np.asarray(y_full, dtype=float)
    return _weighted_qmle(model, rows[None], y_full[None], w[None])[0]


def _negloglik(eta, y, w):
    """Weighted logistic negative log-likelihood of each row of the linear
    predictor eta (..., m): one sum over the last axis."""
    return -np.sum(w * (y * eta - np.logaddexp(0.0, eta)), axis=-1)


# Step-halving levels j (t = 2^-j) tried together, block by block: the full
# step, then the next 7 levels, then the other 42. Most rows accept the full
# step; near a stall, rows take levels in the twenties.
_HALVING_BLOCKS = ((0, 1), (1, 8), (8, 50))
# Largest (rows, levels, m) trial block evaluated at once: 2 MB per array.
_TRIAL_ENTRIES = 1 << 18


def _halve(R, y, w, start, step, old):
    """Step halving of Newton steps step (A, s) from start (A, s), each row
    with design rows R (A, m), outcomes y and weights w (A, m) and objective
    old (A,) at start: each row's first level t = 2^-j whose objective is
    at most old, tried in _HALVING_BLOCKS, or t = 2^-50 if none is. Returns
    the accepted (theta, eta, objective) of every row."""
    theta, eta, value = np.empty_like(start), np.empty(y.shape), np.empty(len(start))
    pending = np.arange(len(start))
    for lo, hi in _HALVING_BLOCKS:
        t = np.ldexp(1.0, -np.arange(lo, hi))[:, None]
        per = max(1, _TRIAL_ENTRIES // ((hi - lo) * y.shape[-1]))
        rejected = []
        for group in np.split(pending, range(per, len(pending), per)):
            trial = start[group, None] + t * step[group, None]  # (g, levels, s)
            trial_eta = np.matmul(R[group, None], trial[..., None])[..., 0]
            trial_value = _negloglik(trial_eta, y[group, None], w[group, None])
            accepted = trial_value <= old[group, None]
            level = accepted.argmax(axis=1)
            done = accepted[np.arange(len(group)), level]
            keep, level = group[done], level[done]
            theta[keep] = trial[done, level]
            eta[keep] = trial_eta[done, level]
            value[keep] = trial_value[done, level]
            rejected.append(group[~done])
        pending = np.concatenate(rejected)
        if not pending.size:
            return theta, eta, value
    theta[pending] = start[pending] + np.ldexp(1.0, -50) * step[pending]
    eta[pending] = _matvec(R[pending], theta[pending])
    value[pending] = _negloglik(eta[pending], y[pending], w[pending])
    return theta, eta, value


def _weighted_qmle(model, rows, y, w):
    """Minimize sum_i w_i loss(y_i, rows_i theta) for each batch row: rows
    is (B, m, s), y and w are (B, m), and the (B, s) result's row b depends
    on row b of the inputs only, bitwise as in a batch of one.

    Squared loss has the weighted-least-squares closed form. The logistic
    likelihood is solved by Newton-Raphson with step halving, each row on
    its own. A row stops when its gradient is small; when its accepted step
    leaves theta bitwise unchanged (a stall: every further iteration would
    repeat that same step, so running on to the cap would return the same
    theta); or at QMLE_MAX_ITER, which warns.

    Step halving tries the levels t = 2^-j, j < 50, in the blocks of
    _HALVING_BLOCKS (see _halve): every row tries the full step, and a row
    that rejects it tries the next block of levels in one evaluation and
    takes its first accepted level, or t = 2^-50 when it rejects all 50.
    The accepted trial's theta, linear predictor and objective are the
    next iterate's. Each trial is bitwise the one-at-a-time halving loop's:
    t is an exact power of two, so start + t * step is that loop's theta;
    each (row, level) slice of the linear predictor takes _matvec's BLAS
    call; and each objective is the same last-axis sum.
    """
    if model.family == "linear":
        rows_t = np.swapaxes(rows, -1, -2)
        a_inv, deficient, _ = _pinv_flagged(rows_t @ (rows * w[..., None]))
        if deficient.any():
            warnings.warn("rank-deficient QMLE design matrix; pseudoinverse used", RuntimeWarning)
        return _matvec(a_inv, _matvec(rows_t, w * y))

    from scipy.special import expit

    theta = np.zeros((len(rows), model.s))
    eta = _matvec(rows, theta)
    value = _negloglik(eta, y, w)
    active = np.arange(len(rows))  # rows still iterating
    for _ in range(QMLE_MAX_ITER):
        R = rows[active]
        f = expit(eta[active])
        grad = _matvec(np.swapaxes(R, -1, -2), w[active] * (y[active] - f))  # maximize
        moving = ~(np.sqrt(_rowdot(grad, grad)) < QMLE_GTOL * np.fmax(1.0, np.abs(value[active])))
        active, R, f, grad = active[moving], R[moving], f[moving], grad[moving]
        if not active.size:
            break
        hess = np.swapaxes(R, -1, -2) @ (R * (w[active] * f * (1.0 - f))[..., None])
        step = _matvec(_pinv_flagged(hess)[0], grad)
        start = theta[active]
        theta[active], eta[active], value[active] = _halve(
            R, y[active], w[active], start, step, value[active]
        )
        active = active[~(theta[active] == start).all(axis=-1)]
        if not active.size:
            break
    if active.size:
        warnings.warn("logistic QMLE hit the iteration cap", RuntimeWarning)
    if np.any(np.abs(theta) >= QMLE_COEF_CAP):
        warnings.warn(
            "logistic QMLE coefficients at the box boundary; possible separation",
            RuntimeWarning,
        )
    return theta


def contrast_residual(f, y, c, n: int) -> np.ndarray:
    """Contrast-weighted residual w (y - f), the linearization vector of the
    imputation-plus-correction estimator with imputations f."""
    return np.repeat(np.asarray(c, dtype=float), n) * (
        np.asarray(y, dtype=float) - np.asarray(f, dtype=float)
    )


def _corrected(chunk, f, diagnostics, errors=None) -> SampleFit:
    """Imputation-plus-correction fits of the chunk's rows at imputations
    f (B, kn), each row's arm estimates added to its diagnostics; errors
    maps a row whose second stage is undefined to its exception."""
    mu, z = _gr_fit(f, chunk.y, chunk.ipw, chunk.k)
    diagnostics = [{**d, "mu_hat": m} for d, m in zip(diagnostics, mu.tolist())]
    return SampleFit(mu, z, diagnostics, errors or {})


def qmle_gr(
    theta_hat: np.ndarray,
    model: ImputationModel,
    data: ExperimentData,
    c,
    bound: VarianceBound | None = None,
) -> EstimateReport:
    """Imputation-plus-correction estimate at the pseudo-likelihood fit."""
    f = model.predict(theta_hat, data.X)[None]
    fit = _corrected(data.chunk, f, [{"theta": np.asarray(theta_hat, dtype=float).tolist()}])
    return row_report("qmle_gr_" + model.family, fit, data, bound, c)


def no_harm_alpha(
    theta_hat: np.ndarray,
    model: ImputationModel,
    data: ExperimentData,
    D: np.ndarray,
    c,
) -> float:
    """Feasible multiplicative rescaling of the imputations: the population
    constant with the outcome vector replaced by its IPW observed analog."""
    f = model.predict(theta_hat, data.X)
    return population_no_harm_alpha(f, data.chunk.y_ipw[0], D, c, data.n)


def population_no_harm_alpha(f: np.ndarray, y: np.ndarray, D: np.ndarray, c, n: int) -> float:
    """Rescaling constant of the imputations f for outcome vector y.

    Ratio of the weighted cross form between outcomes and imputations to
    the imputation quadratic form; errors out when the denominator is too
    small for the rescaling to be identified.
    """
    f, y = np.asarray(f, dtype=float)[None], np.asarray(y, dtype=float)[None]
    alpha, errors = _no_harm_alphas(f, y, D, c, n)
    if errors:
        raise errors[0]
    return float(alpha[0])


def _row_forms(a, M, b):
    """a_b' M b_b for each row of a and b (B, kn), bitwise the 1-D a @ M @ b."""
    return _rowdot(np.matmul(a[..., None, :], M)[..., 0, :], b)


def _no_harm_alphas(f, y, D, c, n: int):
    """population_no_harm_alpha of each row of f and y (B, kn): the
    constants (B,), NaN on a weakly identified row, and the
    WeakIdentificationError of each such row."""
    w = np.repeat(np.asarray(c, dtype=float), n)
    wf = w * f
    denominator = _row_forms(wf, D, wf)
    weak = np.abs(denominator) / n < NOHARM_DENOM_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(weak, np.nan, _row_forms(w * y, D, wf) / denominator)
    errors = {
        b: WeakIdentificationError(
            "imputation quadratic form is near zero; the rescaled estimator is "
            "weakly identified and not recommended here"
        )
        for b in np.flatnonzero(weak).tolist()
    }
    return alpha, errors


def no_harm_imputations(f, y, D, c, n: int, inspect: bool = False):
    """Imputations f (B, kn) rescaled by their no-harm constants for the
    outcome vectors y (B, kn), with alpha as diagnostics, and the error of
    each weakly identified row (inspect is unused: nothing to warn about)."""
    alpha, errors = _no_harm_alphas(f, y, D, c, n)
    diagnostics = [{} if b in errors else {"alpha": a} for b, a in enumerate(alpha.tolist())]
    return alpha[:, None] * f, diagnostics, errors


def no_harm_gr(
    theta_hat: np.ndarray,
    model: ImputationModel,
    data: ExperimentData,
    D: np.ndarray,
    c,
    bound: VarianceBound | None = None,
) -> EstimateReport:
    f = model.predict(theta_hat, data.X)[None]
    fit = _corrected(data.chunk, *no_harm_imputations(f, data.chunk.y_ipw, D, c, data.n))
    return row_report("no_harm_" + model.family, fit, data, bound, c)


def _check_omega(Omega: np.ndarray, kn: int):
    Omega = np.asarray(Omega, dtype=float)
    if Omega.shape != (kn, kn):
        raise ValueError("Omega must be kn x kn")
    if np.abs(Omega).max() < OMEGA_NORM_TOL:
        raise ValueError("Omega is numerically zero; criterion is degenerate")
    return Omega


def _inspect_eigenvalues(A: np.ndarray, k: int, label: str | None) -> np.ndarray:
    """Whether each symmetric matrix of the stack A (..., s, s), a design
    form whose first k coordinates are the arm intercepts, has near-zero
    eigenvalues once the null directions of its leading k x k block are
    projected out; with a label, warns once if any has.

    Those directions are known whatever the data: D annihilates
    arm-constant columns whenever pi is constant within arms, and a zero
    contrast weight annihilates its arm's intercept. For a positive
    semidefinite A they are null directions of A itself, so the projected
    form has a near-zero eigenvalue exactly when A has more of them than
    its intercept block.
    """
    eigs = np.linalg.eigvalsh(A)
    small = EIG_WARN_RATIO * np.maximum(eigs[..., -1:], 0.0)
    known = (np.linalg.eigvalsh(A[..., :k, :k]) <= small).sum(axis=-1)
    flagged = (eigs <= small).sum(axis=-1) > known
    if label and flagged.any():
        warnings.warn(
            f"{label} has near-zero eigenvalues; coefficients in the flat "
            "directions are not identified (pseudoinverse used)",
            RuntimeWarning,
        )
    return flagged


def _variance_minimizing_beta(rows, y, Omega, c, n: int, label: str | None = None):
    """Coefficients (B, s) minimizing the contrast-weighted residual form in
    Omega of y - rows beta for each outcome vector y (B, kn), in closed
    form, and whether each is weakly identified (B,). rows is one kn x s
    matrix whose first k columns are the arm intercepts, and whose design
    form, eigenvalue check and pseudoinverse are then computed once for
    every row, or a (B, kn, s) stack. With a label, near-zero eigenvalues
    of the design form are warned about."""
    w = np.repeat(np.asarray(c, dtype=float), n)
    xt = rows * w[:, None]
    xt_t = np.swapaxes(xt, -1, -2)
    gram = xt_t @ Omega @ xt
    flagged = _inspect_eigenvalues(gram / n, len(w) // n, label)
    gram_inv = _pinv_flagged(gram)[0]
    beta = _matvec(gram_inv, _matvec(xt_t, _matvec(Omega, w * np.asarray(y, dtype=float))))
    return beta, np.broadcast_to(flagged, beta.shape[:-1])


def opt_gr_linear(
    data: ExperimentData,
    Omega: np.ndarray,
    c,
    model: ImputationModel | None = None,
    bound: VarianceBound | None = None,
) -> EstimateReport:
    """Variance-minimizing linear imputations, closed form, with the outcome
    vector replaced by its IPW observed analog. Omega must be symmetric."""
    Omega = _check_omega(Omega, data.n * data.k)
    check_symmetric(Omega, "Omega")
    if model is None:
        model = ImputationModel("linear", data.k, data.p)
    if model.family != "linear":
        raise ValueError("opt_gr_linear needs a linear imputation model")
    fit = _corrected(data.chunk, *opt_linear_imputations(
        model.design_rows(data.X), data.chunk.y_ipw, Omega, c, data.n, inspect=True
    ))
    return row_report("opt_gr_linear", fit, data, bound, c)


def _layer_imputations(rows, y, Omega, c, n: int, label: str | None):
    beta, flagged = _variance_minimizing_beta(rows, y, Omega, c, n, label)
    diagnostics = [
        {"beta": b, "identification_flagged": flag}
        for b, flag in zip(beta.tolist(), flagged.tolist())
    ]
    return _matvec(rows, beta), diagnostics, {}


def opt_linear_imputations(rows, y, Omega, c, n: int, inspect: bool = False):
    """Imputations rows @ beta (B, kn) with the variance-minimizing
    coefficients for each outcome vector y (B, kn), (beta, weak
    identification) as diagnostics, and no errors; the design form is
    built once for every row. inspect warns about its near-zero
    eigenvalues."""
    return _layer_imputations(rows, y, Omega, c, n, inspect and "contrast-weighted design form")


def population_opt_gr_linear(X_rows, y_full, Omega, c, n):
    """Oracle linear coefficients minimizing the population residual form."""
    y_full = np.asarray(y_full, dtype=float)[None]
    return _variance_minimizing_beta(X_rows, y_full, Omega, c, n)[0][0]


def moment_vector(
    theta: np.ndarray,
    model: ImputationModel,
    data: ExperimentData,
    Omega: np.ndarray,
    c: np.ndarray,
) -> np.ndarray:
    """Sample first-order-condition vector for the variance criterion."""
    return population_moment_vector(theta, model, data.X, data.chunk.y_ipw[0], Omega, c, data.n)


def population_moment_vector(theta, model, X, y, Omega, c, n):
    """First-order-condition vector of the variance criterion for outcome
    vector y (the full potential outcomes, or their IPW observed analog)."""
    theta, y = np.asarray(theta, dtype=float)[None], np.asarray(y, dtype=float)[None]
    return _moment_terms(theta, y, *_criterion_args(model, X, Omega, c, n))[1][0]


def moment_jacobian(theta, model, data, Omega, c):
    """Analytic Jacobian of the sample moment vector: minus the Hessian of
    the variance criterion (_criterion_hessian)."""
    args = _criterion_args(model, data.X, Omega, c, data.n)
    return -_criterion_hessian(np.asarray(theta, dtype=float)[None], data.chunk.y_ipw, *args)[0]


def _criterion_args(model, X, Omega, c, n):
    """The variance criterion's arguments after theta and y, with the design
    rows and cell contrast weights built once for every evaluation."""
    return model, model.design_rows(X), Omega, np.repeat(np.asarray(c, dtype=float), n), n


def _moment_terms(theta, y, model, rows, Omega, w, n):
    """The variance criterion Q = r' Omega r / 2n of the contrast-weighted
    residuals r = w (y - f) at each row of theta (B, s) for the outcome
    vectors y (B, kn), its moment vectors g = rows' (d weighted) / n (B, s),
    which are minus its gradients for a symmetric Omega, and the factors of
    its Hessian (each (B, kn)): the inverse link's slopes d and curvature
    factors h at the predictions f, and the weighted residuals
    w Omega (w (y - f)). Row b is bitwise the 2-D evaluation at theta[b] and
    y[b]."""
    f = model._predict_rows(theta, rows)
    d, h = model._slopes(f)
    residual = y - f
    weighted = w * _matvec(Omega, w * residual)
    return _rowdot(residual, weighted) / (2 * n), _matvec(rows.T, d * weighted) / n, d, h, weighted


def _criterion_hessian(theta, y, model, rows, Omega, w, n):
    """Hessians (B, s, s) of the variance criterion at each row of theta
    (B, s) for the outcome vectors y (B, kn), from the factors of
    _moment_terms."""
    return _terms_hessian(rows, Omega, w, n, *_moment_terms(theta, y, model, rows, Omega, w, n)[2:])


def _terms_hessian(rows, Omega, w, n, d, h, weighted):
    """The variance criterion's Hessians (B, s, s) from the factors d, h and
    weighted (each (B, kn)) of _moment_terms: (G' Omega G - rows'
    diag(weighted h) rows) / n with gradient rows G = rows (w d)."""
    grad_rows = rows * (w * d)[..., None]
    curvature = rows.T @ (rows * (weighted * h)[..., None])
    return (np.swapaxes(grad_rows, -1, -2) @ Omega @ grad_rows) / n - curvature / n


def population_opt_logit(model, X, y_full, Omega, c, n, omega=None):
    """Population variance-minimizing logistic fit: the certified minimum of
    the ridge-penalized population criterion (_certified_newton) from the
    population pseudo-likelihood fit whose cells weigh omega (default one;
    the theory columns weigh pi). Raises OptimizationError where no minimum
    is certified."""
    start = population_qmle(model, X, y_full, omega=omega)
    y = np.asarray(y_full, dtype=float)[None]
    return _certified_newton(start, y, _criterion_args(model, X, Omega, c, n))[0]


def _certified_newton(theta, y, args):
    """A certified minimum of the ridge-penalized variance criterion Q_ridge
    = Q + OPT_LOGIT_RIDGE |theta|^2 / 2 for the outcome vector y (1, kn) by
    damped Newton from theta (s,): the point and its diagnostics.

    Q_ridge has gradient G = OPT_LOGIT_RIDGE theta - g and Hessian H = Q's
    Hessian + OPT_LOGIT_RIDGE I. An iterate is certified when |G|_inf <=
    NEWTON_GTOL and H less EIG_WARN_RATIO times H's largest eigenvalue has a
    Cholesky factor: a strict local minimum with no direction nearly flat
    next to the steepest one. Otherwise the step p solves (H + tau I) p =
    -G, with tau = 0 when H's smallest eigenvalue clears that margin and
    else the shift that moves it to NEWTON_SHIFT times H's largest
    eigenvalue magnitude. The step length halves from one until
    Q_ridge(theta + t p) <= Q_ridge + NEWTON_ARMIJO t G'p, or, where the
    predicted decrease -t G'p is below Q_ridge's rounding (taken as 1e-12
    |Q_ridge|), until |G|_inf falls. Raises OptimizationError when
    NEWTON_MAX_ITER iterates pass uncertified, when the halving passes
    2^-30 and when H is zero."""
    _, rows, Omega, w, n = args
    eye = np.eye(len(theta))

    def penalized(theta, terms):  # Q_ridge and G from Q and g
        return (terms[0][0] + OPT_LOGIT_RIDGE / 2 * (theta @ theta),
                OPT_LOGIT_RIDGE * theta - terms[1][0])

    terms = _moment_terms(theta[None], y, *args)
    for steps in range(NEWTON_MAX_ITER):
        value, grad = penalized(theta, terms)
        hess = _terms_hessian(rows, Omega, w, n, *terms[2:])[0] + OPT_LOGIT_RIDGE * eye
        eigs = np.linalg.eigvalsh(hess)
        margin = EIG_WARN_RATIO * eigs[-1]
        if np.abs(grad).max() <= NEWTON_GTOL and _has_cholesky(hess - margin * eye):
            return theta, {
                "theta": theta.tolist(),
                "moment_norm": float(np.sqrt(terms[1][0] @ terms[1][0])),
                "criterion": float(terms[0][0]),
                "newton_steps": steps,
                "hessian_min_eig": float(eigs[0]),
                "hessian_max_eig": float(eigs[-1]),
            }
        scale = np.abs(eigs).max()
        if not scale > 0:
            break
        shift = 0.0 if eigs[0] > margin else NEWTON_SHIFT * scale - eigs[0]
        step = np.linalg.solve(hess + shift * eye, -grad)
        decrease, t = -(grad @ step), 1.0
        while t >= 2.0**-30:
            trial = theta + t * step
            terms = _moment_terms(trial[None], y, *args)
            trial_value, trial_grad = penalized(trial, terms)
            if t * decrease > 1e-12 * abs(value):
                if trial_value <= value - NEWTON_ARMIJO * t * decrease:
                    break
            elif np.abs(trial_grad).max() < np.abs(grad).max():
                break
            t /= 2
        else:
            break
        theta = trial
    raise OptimizationError(
        f"no certified minimum of the ridge-penalized variance criterion in "
        f"{NEWTON_MAX_ITER} Newton steps"
    )


def _has_cholesky(A) -> bool:
    """Whether the symmetric matrix A has a Cholesky factor (is positive
    definite in floating point)."""
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def opt_gr_logit(
    data: ExperimentData,
    Omega: np.ndarray,
    c,
    model: ImputationModel | None = None,
    bound: VarianceBound | None = None,
) -> EstimateReport:
    """Variance-minimizing logistic imputations (opt_logit_imputations) for
    the IPW observed outcome vector, from the pseudo-likelihood fit whose
    observed cells weigh pi / pi. Omega must be symmetric: -g is the
    criterion's gradient only then."""
    Omega = _check_omega(Omega, data.n * data.k)
    check_symmetric(Omega, "Omega")
    if model is None:
        model = ImputationModel("logistic", data.k, data.p)
    if model.family != "logistic":
        raise ValueError("opt_gr_logit needs a logistic imputation model")
    rows, chunk = model.design_rows(data.X), data.chunk
    start = sample_qmle(model, rows, data.moments.pi, "pi", chunk.cells, chunk.y_obs)
    fit = _corrected(chunk, *opt_logit_imputations(model, rows, chunk.y_ipw, Omega, c, data.n, start))
    return row_report("opt_gr_logit", fit, data, bound, c)


def opt_logit_imputations(model, rows, y, Omega, c, n: int, start):
    """Variance-minimizing logistic imputations (B, kn) for the outcome
    vectors y (B, kn), one diagnostics dict per row, and the
    OptimizationError of each row with no certified minimum.

    Row b runs _certified_newton from start[b] (start is (B, s)) on its own:
    theta, the norm of Q's moment vector g (OPT_LOGIT_RIDGE |theta| at a
    certified point), Q itself, the Newton steps taken and the extreme
    eigenvalues of the penalized Hessian are its diagnostics."""
    args = model, rows, Omega, np.repeat(np.asarray(c, dtype=float), n), n
    f, diagnostics, errors = np.full(np.shape(y), np.nan), [{}] * len(y), {}
    for b in range(len(y)):
        try:
            theta, diagnostics[b] = _certified_newton(start[b], y[b : b + 1], args)
        except OptimizationError as exc:
            errors[b] = exc
            continue
        f[b] = model._predict_rows(theta, rows)
    return f, diagnostics, errors


def opt_i_rows(f_model, n: int, k: int) -> np.ndarray:
    """Regressors of the single-imputed-covariate layer: the arm intercepts
    plus the fitted imputations, for imputations (kn,) or a stack (B, kn)."""
    f_model = np.asarray(f_model, dtype=float)
    intercepts = np.broadcast_to(intercept_matrix(n, k), f_model.shape[:-1] + (n * k, k))
    return np.concatenate([intercepts, f_model[..., None]], axis=-1)


def opt_i_gr(
    theta_hat: np.ndarray,
    model: ImputationModel,
    data: ExperimentData,
    D: np.ndarray,
    c,
    bound: VarianceBound | None = None,
) -> EstimateReport:
    """Optimal linear layer over one imputed covariate: the k+1 coefficients
    solve the same contrast-weighted normal equations as the linear
    variance-minimizing estimator."""
    f = model.predict(theta_hat, data.X)[None]
    fit = _corrected(data.chunk, *opt_i_imputations(f, data.chunk.y_ipw, D, c, data.n, True))
    return row_report("opt_i_" + model.family, fit, data, bound, c)


def opt_i_imputations(f_model, y, D, c, n: int, inspect: bool = False):
    """Imputations (B, kn) of the optimal linear layer over each row of the
    imputed covariates f_model (B, kn) for the outcome vectors y (B, kn),
    (beta, weak identification) as diagnostics, and no errors; the
    (k+1)-column design forms are stacked. inspect warns about near-zero
    eigenvalues."""
    xi = opt_i_rows(f_model, n, f_model.shape[-1] // n)
    return _layer_imputations(xi, y, D, c, n, inspect and "imputed-covariate design form")


def population_opt_i_beta(f_model, y_full, D, c, n: int, k: int):
    """Oracle Opt-I coefficients with the true outcome side."""
    rows = opt_i_rows(f_model, n, k)
    return _variance_minimizing_beta(rows, np.asarray(y_full, dtype=float)[None], D, c, n)[0][0]


def theoretical_asy_variance(f, y_full, M, c, n: int) -> float:
    """n x Var of the linearized contrast estimator with imputations f:
    the contrast-weighted residual quadratic form in M, divided by n."""
    v = contrast_residual(f, y_full, c, n)
    return float(v @ M @ v) / n
