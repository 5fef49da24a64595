"""Model-assisted regression estimators built on the imputed-plus-correction
form: impute every potential outcome from a fitted parametric model, then
add the inverse-probability-weighted residual of the observed cells.

Four parameter-selection strategies are provided: pseudo-likelihood
(fit_qmle / qmle_gr), a rescaled pseudo-likelihood that can never do worse
asymptotically than the unadjusted estimator (no_harm_gr), direct
minimization of the implied asymptotic variance (opt_gr_linear /
opt_gr_logit), and a single-imputed-covariate linear layer (opt_i_gr).
Sample and population versions share one body that takes the outcome
vector: the sample version passes the inverse-probability-weighted observed
vector where the population version passes the full potential outcomes (the
pseudo-likelihood fits pass the observed cells, weighted omega / pi).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .bounds import VarianceBound
from .linear import (
    EstimateReport,
    ExperimentData,
    _pinv_flagged,
    contrast_report,
    gr_point_estimate,
    intercept_matrix,
    model_matrix,
)

EIG_WARN_RATIO = 1e-8
NOHARM_DENOM_TOL = 1e-6
OMEGA_NORM_TOL = 1e-12


class WeakIdentificationError(ValueError):
    """The rescaling denominator is too close to zero to be usable."""


class OptimizationError(RuntimeError):
    """No interior solution found within the restart budget."""


@dataclass(frozen=True)
class ImputationModel:
    """Parametric imputation family with arm intercepts.

    theta layout: k arm intercepts followed by the slope block (one shared
    p-vector for same_slope, k stacked p-vectors for separate_slope).
    """

    family: str  # "linear" | "logistic"
    k: int
    p: int
    slope_sharing: str = "same_slope"

    def __post_init__(self):
        if self.family not in ("linear", "logistic"):
            raise ValueError("family must be linear or logistic")
        if self.slope_sharing not in ("same_slope", "separate_slope"):
            raise ValueError("slope_sharing must be same_slope or separate_slope")

    @property
    def s(self) -> int:
        """Number of parameters."""
        if self.slope_sharing == "same_slope":
            return self.k + self.p
        return self.k + self.k * self.p

    def design_rows(self, X: np.ndarray) -> np.ndarray:
        """kn x s matrix of linear-predictor rows in arm-major cell order."""
        n = X.shape[0]
        if self.p == 0:
            return intercept_matrix(n, self.k)
        if self.slope_sharing == "same_slope":
            return model_matrix(X, self.k)
        blocks = np.zeros((self.k * n, self.k * self.p))
        for a in range(self.k):
            blocks[a * n : (a + 1) * n, a * self.p : (a + 1) * self.p] = X
        return np.hstack([intercept_matrix(n, self.k), blocks])

    def predict(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        return self._predict_rows(theta, self.design_rows(X))

    def grad(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        """kn x s matrix of per-cell prediction gradients."""
        rows = self.design_rows(X)
        return self._grad_rows(rows, self._predict_rows(theta, rows))

    def hess_factor(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Per-cell scalar h with prediction Hessian h * row row'."""
        rows = self.design_rows(X)
        return self._hess_factor(self._predict_rows(theta, rows))

    # The row-based forms below let one call build design_rows(X) once and
    # derive predictions, gradients and Hessian factors from it.
    def _predict_rows(self, theta, rows):
        eta = rows @ np.asarray(theta, dtype=float)
        if self.family == "linear":
            return eta
        return expit(eta)

    def _grad_rows(self, rows, f):
        if self.family == "linear":
            return rows.copy()
        return rows * (f * (1.0 - f))[:, None]

    def _hess_factor(self, f):
        if self.family == "linear":
            return np.zeros(len(f))
        return f * (1.0 - f) * (1.0 - 2.0 * f)


@dataclass
class OptimizerConfig:
    """Gradient-descent recipe for the logit variance-minimizing fit."""

    step: float = 0.1  # line-search acceptance fraction
    backtrack: float = 0.5
    grad_tol: float = 0.01
    box_half_width: float = 10.0
    box_expand: float = 0.2  # total widening per failed restart
    restarts: int = 10
    restart_sd: float = 0.1
    max_steps: int = 2000

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if not 0 < self.backtrack < 1:
            raise ValueError("backtrack must lie in (0, 1)")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


def _omega_weights(data: ExperimentData, omega) -> np.ndarray:
    kn = data.n * data.k
    if omega is None or (isinstance(omega, str) and omega == "pi"):
        return data.moments.pi.copy()
    if isinstance(omega, str):
        if omega != "ones":
            raise ValueError(f"unknown omega spec {omega!r}")
        return np.ones(kn)
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (kn,):
        raise ValueError("omega must be a kn vector")
    if np.any(omega <= 0):
        raise ValueError("omega weights must be positive")
    return omega


def fit_qmle(
    model: ImputationModel,
    data: ExperimentData,
    omega="pi",
    max_iter: int = 500,
    tol: float = 1e-10,
    coef_cap: float = 10.0,
):
    """Minimize the inverse-probability-weighted sample loss: observed cell
    i enters with weight omega / pi at its realized cell."""
    cells = data.observed_cells
    pi_obs = data.moments.pi[cells]
    if np.any(pi_obs <= 0):
        raise ValueError("observed cell with zero inclusion probability")
    w = _omega_weights(data, omega)[cells] / pi_obs
    rows = model.design_rows(data.X)[cells]
    return _weighted_qmle(model, rows, data.y_obs, w, max_iter, tol, coef_cap)


def population_qmle(model: ImputationModel, X, y_full, omega=None, max_iter: int = 500):
    """Population loss minimizer: every cell enters with weight omega
    (default one)."""
    w = np.ones(model.k * X.shape[0]) if omega is None else np.asarray(omega, dtype=float)
    return _weighted_qmle(model, model.design_rows(X), np.asarray(y_full, dtype=float), w, max_iter)


def _weighted_qmle(model, rows, y, w, max_iter=500, tol=1e-10, coef_cap=10.0):
    """Minimize sum_i w_i loss(y_i, rows_i theta). Squared loss has the
    weighted-least-squares closed form; the logistic likelihood is solved
    by Newton-Raphson with step halving."""
    if model.family == "linear":
        a = rows.T @ (rows * w[:, None])
        a_inv, deficient, _ = _pinv_flagged(a)
        if deficient:
            warnings.warn("rank-deficient QMLE design matrix; pseudoinverse used", RuntimeWarning)
        return a_inv @ (rows.T @ (w * y))

    theta = np.zeros(model.s)

    def negloglik(th):
        eta = rows @ th
        return -float(np.sum(w * (y * eta - np.logaddexp(0.0, eta))))

    value = negloglik(theta)
    for _ in range(max_iter):
        eta = rows @ theta
        f = expit(eta)
        grad = rows.T @ (w * (y - f))  # likelihood gradient (maximize)
        if np.linalg.norm(grad) < tol * max(1.0, abs(value)):
            break
        hess = rows.T @ (rows * (w * f * (1.0 - f))[:, None])
        h_inv, _, _ = _pinv_flagged(hess)
        step = h_inv @ grad
        t = 1.0
        for _ in range(50):  # step halving
            candidate = theta + t * step
            new_value = negloglik(candidate)
            if new_value <= value:
                break
            t *= 0.5
        theta = theta + t * step
        value = negloglik(theta)
    else:
        warnings.warn("logistic QMLE hit the iteration cap", RuntimeWarning)
    if np.any(np.abs(theta) >= coef_cap):
        warnings.warn(
            "logistic QMLE coefficients at the box boundary; possible separation",
            RuntimeWarning,
        )
    return theta


def _ipw_observed(data: ExperimentData) -> np.ndarray:
    """kn vector of y/pi at observed cells, zero elsewhere: the unbiased
    sample analog of the full outcome vector."""
    out = np.zeros(data.n * data.k)
    cells = data.observed_cells
    out[cells] = data.y_obs / data.moments.pi[cells]
    return out


def contrast_residual(f, y, c, n: int) -> np.ndarray:
    """Contrast-weighted residual w (y - f), the linearization vector of the
    imputation-plus-correction estimator with imputations f."""
    return np.repeat(np.asarray(c, dtype=float), n) * (
        np.asarray(y, dtype=float) - np.asarray(f, dtype=float)
    )


def _gr_report(
    estimator: str,
    f: np.ndarray,
    data: ExperimentData,
    c: np.ndarray,
    bound: VarianceBound | None,
    diagnostics: dict,
) -> EstimateReport:
    mu = gr_point_estimate(f, data)
    z_hat = intercept_matrix(data.n, data.k) * (data.y_stacked_observed() - f)[:, None]
    return contrast_report(
        estimator, mu, z_hat, data, bound, c, {**diagnostics, "mu_hat": mu.tolist()}
    )


def qmle_gr(
    theta_hat: np.ndarray,
    model: ImputationModel,
    data: ExperimentData,
    c,
    bound: VarianceBound | None = None,
) -> EstimateReport:
    """Imputation-plus-correction estimate at the pseudo-likelihood fit."""
    f = model.predict(theta_hat, data.X)
    return _gr_report(
        "qmle_gr_" + model.family,
        f,
        data,
        c,
        bound,
        {"theta": np.asarray(theta_hat, dtype=float).tolist()},
    )


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
    return population_no_harm_alpha(f, _ipw_observed(data), D, c, data.n)


def population_no_harm_alpha(f: np.ndarray, y: np.ndarray, D: np.ndarray, c, n: int) -> float:
    """Rescaling constant of the imputations f for outcome vector y.

    Ratio of the weighted cross form between outcomes and imputations to
    the imputation quadratic form; errors out when the denominator is too
    small for the rescaling to be identified.
    """
    w = np.repeat(np.asarray(c, dtype=float), n)
    wf = w * f
    denominator = float(wf @ D @ wf)
    if abs(denominator) / n < NOHARM_DENOM_TOL:
        raise WeakIdentificationError(
            "imputation quadratic form is near zero; the rescaled estimator is "
            "weakly identified and not recommended here"
        )
    return float((w * y) @ D @ wf) / denominator


def no_harm_gr(
    theta_hat: np.ndarray,
    model: ImputationModel,
    data: ExperimentData,
    D: np.ndarray,
    c,
    bound: VarianceBound | None = None,
) -> EstimateReport:
    alpha = no_harm_alpha(theta_hat, model, data, D, c)
    f = alpha * model.predict(theta_hat, data.X)
    return _gr_report("no_harm_" + model.family, f, data, c, bound, {"alpha": alpha})


def _check_omega(Omega: np.ndarray, kn: int):
    Omega = np.asarray(Omega, dtype=float)
    if Omega.shape != (kn, kn):
        raise ValueError("Omega must be kn x kn")
    if np.abs(Omega).max() < OMEGA_NORM_TOL:
        raise ValueError("Omega is numerically zero; criterion is degenerate")
    return Omega


def _inspect_eigenvalues(A: np.ndarray, label: str) -> bool:
    eigs = np.linalg.eigvalsh(A)
    top = max(eigs.max(), 0.0)
    flagged = bool(top <= 0 or eigs.min() < EIG_WARN_RATIO * top)
    if flagged:
        warnings.warn(
            f"{label} has near-zero eigenvalues; coefficients in the flat "
            "directions are not identified (pseudoinverse used)",
            RuntimeWarning,
        )
    return flagged


def _variance_minimizing_beta(rows, y, Omega, c, n: int, label: str | None = None):
    """Coefficients minimizing the contrast-weighted residual form in Omega
    of y - rows beta, in closed form, and whether they are weakly
    identified. With a label, near-zero eigenvalues of the design form are
    warned about."""
    w = np.repeat(np.asarray(c, dtype=float), n)
    xt = rows * w[:, None]
    gram = xt.T @ Omega @ xt
    flagged = label is not None and _inspect_eigenvalues(gram / n, label)
    gram_inv, deficient, _ = _pinv_flagged(gram)
    beta = gram_inv @ (xt.T @ (Omega @ (w * np.asarray(y, dtype=float))))
    return beta, flagged or deficient


def opt_gr_linear(
    data: ExperimentData,
    Omega: np.ndarray,
    c,
    model: ImputationModel | None = None,
    bound: VarianceBound | None = None,
) -> EstimateReport:
    """Variance-minimizing linear imputations, closed form, with the outcome
    vector replaced by its IPW observed analog."""
    Omega = _check_omega(Omega, data.n * data.k)
    if model is None:
        model = ImputationModel("linear", data.k, data.p)
    if model.family != "linear":
        raise ValueError("opt_gr_linear needs a linear imputation model")
    rows = model.design_rows(data.X)
    beta, flagged = _variance_minimizing_beta(
        rows, _ipw_observed(data), Omega, c, data.n, "contrast-weighted design form"
    )
    return _gr_report(
        "opt_gr_linear",
        rows @ beta,
        data,
        c,
        bound,
        {"beta": beta.tolist(), "identification_flagged": flagged},
    )


def population_opt_gr_linear(X_rows, y_full, Omega, c, n):
    """Oracle linear coefficients minimizing the population residual form."""
    return _variance_minimizing_beta(X_rows, y_full, Omega, c, n)[0]


def moment_vector(
    theta: np.ndarray,
    model: ImputationModel,
    data: ExperimentData,
    Omega: np.ndarray,
    c: np.ndarray,
) -> np.ndarray:
    """Sample first-order-condition vector for the variance criterion."""
    return population_moment_vector(theta, model, data.X, _ipw_observed(data), Omega, c, data.n)


def population_moment_vector(theta, model, X, y, Omega, c, n):
    """First-order-condition vector of the variance criterion for outcome
    vector y (the full potential outcomes, or their IPW observed analog)."""
    w = np.repeat(np.asarray(c, dtype=float), n)
    rows = model.design_rows(X)
    f = model._predict_rows(theta, rows)
    grad = model._grad_rows(rows, f)
    r = w * (y - f)
    return grad.T @ (w * (Omega @ r)) / n


def moment_jacobian(theta, model, data, Omega, c):
    """Analytic Jacobian of the sample moment vector."""
    return population_moment_jacobian(theta, model, data.X, _ipw_observed(data), Omega, c, data.n)


def population_moment_jacobian(theta, model, X, y, Omega, c, n):
    """Analytic Jacobian of population_moment_vector in theta."""
    w = np.repeat(np.asarray(c, dtype=float), n)
    rows = model.design_rows(X)
    f = model._predict_rows(theta, rows)
    grad = model._grad_rows(rows, f)
    wg = grad * w[:, None]
    jac = -(wg.T @ Omega @ wg) / n
    h = model._hess_factor(f)
    if np.any(h != 0):
        r = w * (np.asarray(y, dtype=float) - f)
        scale = (w * (Omega @ r)) * h
        jac = jac + rows.T @ (rows * scale[:, None]) / n
    return jac


def population_opt_logit(model, X, y_full, Omega, c, n, start=None):
    """Population variance-minimizing logistic fit for simulation reporting.

    Quasi-Newton descent on the squared population moment norm, started at
    the population pseudo-likelihood fit unless told otherwise.
    """
    from scipy.optimize import minimize

    if start is None:
        start = population_qmle(model, X, y_full)

    result = minimize(lambda th: _criterion_and_grad(th, model, X, y_full, Omega, c, n)[:2],
                      np.asarray(start, dtype=float), jac=True, method="BFGS",
                      options={"gtol": 1e-12, "maxiter": 500})
    return result.x


def _criterion_and_grad(theta, model, X, y, Omega, c, n):
    """Squared moment norm of the variance criterion for outcome vector y,
    its gradient in theta, and the moment vector."""
    g = population_moment_vector(theta, model, X, y, Omega, c, n)
    jac = population_moment_jacobian(theta, model, X, y, Omega, c, n)
    return float(g @ g), 2.0 * jac.T @ g, g


def opt_gr_logit(
    data: ExperimentData,
    Omega: np.ndarray,
    c,
    cfg: OptimizerConfig | None = None,
    model: ImputationModel | None = None,
    bound: VarianceBound | None = None,
    seed: int = 0,
) -> EstimateReport:
    """Variance-minimizing logistic imputations via damped gradient descent.

    Multi-restart descent on the squared moment-vector norm: backtracking
    line search, a parameter box that widens after each failed restart, and
    the winner chosen by (criterion value, restart index).
    """
    c = np.asarray(c, dtype=float)
    Omega = _check_omega(Omega, data.n * data.k)
    if cfg is None:
        cfg = OptimizerConfig()
    if model is None:
        model = ImputationModel("logistic", data.k, data.p)
    if model.family != "logistic":
        raise ValueError("opt_gr_logit needs a logistic imputation model")
    criterion_args = (model, data.X, _ipw_observed(data), Omega, c, data.n)
    rng = np.random.default_rng(seed)
    candidates = []
    for attempt in range(cfg.restarts):
        half_width = cfg.box_half_width + attempt * cfg.box_expand / 2.0
        theta = rng.normal(0.0, cfg.restart_sd, size=model.s)
        value, grad, g = _criterion_and_grad(theta, *criterion_args)
        interior = True
        for _ in range(cfg.max_steps):
            if np.linalg.norm(g) <= cfg.grad_tol:
                break
            grad_norm2 = float(grad @ grad)
            if grad_norm2 < 1e-24:
                break  # stationary without solving the moment conditions
            t = 1.0
            while True:
                g_cand = population_moment_vector(theta - t * grad, *criterion_args)
                cand_value = float(g_cand @ g_cand)
                if cand_value <= value - cfg.step * t * grad_norm2 or t < 1e-14:
                    break
                t *= cfg.backtrack
            theta = theta - t * grad
            if np.any(np.abs(theta) > half_width):
                interior = False
                break
            value, grad, g = _criterion_and_grad(theta, *criterion_args)
        if interior and np.linalg.norm(g) <= cfg.grad_tol:
            candidates.append((value, attempt, theta, g))
    if not candidates:
        raise OptimizationError(
            f"no interior solution with moment norm <= {cfg.grad_tol} in "
            f"{cfg.restarts} restarts"
        )
    value, attempt, theta, g = min(candidates, key=lambda item: (item[0], item[1]))

    def criterion(th):
        g_th = population_moment_vector(th, *criterion_args)
        return float(g_th @ g_th)

    hess_eigs = np.linalg.eigvalsh(_numerical_hessian(criterion, theta))
    f = model.predict(theta, data.X)
    return _gr_report(
        "opt_gr_logit",
        f,
        data,
        c,
        bound,
        {
            "theta": theta.tolist(),
            "moment_norm": float(np.linalg.norm(g)),
            "criterion": value,
            "restart": attempt,
            "hessian_min_eig": float(hess_eigs.min()),
            "hessian_max_eig": float(hess_eigs.max()),
        },
    )


def _numerical_hessian(fun, theta, h: float = 1e-4):
    s = len(theta)
    hess = np.zeros((s, s))
    for i in range(s):
        for j in range(i, s):
            ei = np.zeros(s)
            ej = np.zeros(s)
            ei[i] = h
            ej[j] = h
            hess[i, j] = (
                fun(theta + ei + ej) - fun(theta + ei - ej) - fun(theta - ei + ej) + fun(theta - ei - ej)
            ) / (4 * h * h)
            hess[j, i] = hess[i, j]
    return hess


def opt_i_rows(f_model, n: int, k: int) -> np.ndarray:
    """Regressors of the single-imputed-covariate layer: the arm intercepts
    plus the fitted imputations."""
    return np.hstack([intercept_matrix(n, k), np.asarray(f_model, dtype=float)[:, None]])


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
    xi = opt_i_rows(model.predict(theta_hat, data.X), data.n, data.k)
    beta, flagged = _variance_minimizing_beta(
        xi, _ipw_observed(data), D, c, data.n, "imputed-covariate design form"
    )
    return _gr_report(
        "opt_i_" + model.family,
        xi @ beta,
        data,
        c,
        bound,
        {"beta": beta.tolist(), "identification_flagged": flagged},
    )


def population_opt_i_beta(f_model, y_full, D, c, n: int, k: int):
    """Oracle Opt-I coefficients with the true outcome side."""
    return _variance_minimizing_beta(opt_i_rows(f_model, n, k), y_full, D, c, n)[0]


def theoretical_asy_variance(f, y_full, M, c, n: int) -> float:
    """n x Var of the linearized contrast estimator with imputations f:
    the contrast-weighted residual quadratic form in M, divided by n."""
    v = contrast_residual(f, y_full, c, n)
    return float(v @ M @ v) / n
