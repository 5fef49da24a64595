"""Model-assisted estimators: pseudo-likelihood, no-harm rescaling, and
direct variance minimization.

The regression estimator has an imputation term plus a weighted residual
correction; everything here is about choosing the imputation parameters.
The script contrasts the three strategies on data where the fitted model is
deliberately off by a scale factor.
"""

import numpy as np

from designest import (
    CompletelyRandomizedDesign,
    ExperimentData,
    ImputationModel,
    aronow_samii_bound,
    exact_moments,
    fit_qmle,
    no_harm_gr,
    opt_gr_linear,
    opt_gr_logit,
    opt_i_gr,
    qmle_gr,
    stream_rng,
    theoretical_asy_variance,
)
from designest.model_assisted import (
    population_no_harm_alpha,
    population_opt_gr_linear,
    population_qmle,
)

# ---------------------------------------------------------------------------
# 1. Synthetic data: outcomes = 2 x (what the model family can impute)
# ---------------------------------------------------------------------------
n = 10
design = CompletelyRandomizedDesign(n, [5, 5])
moments = exact_moments(design)
rng = stream_rng(21)
X = rng.standard_normal((n, 1))
X -= X.mean(axis=0)
model = ImputationModel("linear", k=2, p=1)
rows = model.design_rows(X)
y_full = rows @ np.array([0.1, 0.6, 2.4]) + 0.05 * rng.standard_normal(2 * n)
c = np.array([-1.0, 1.0])

realization = design.sample(stream_rng(5))
data = ExperimentData.from_full(y_full, realization, X, moments)
bound = aronow_samii_bound(moments)

# ---------------------------------------------------------------------------
# 2. Pseudo-likelihood fit, then the GR form
# ---------------------------------------------------------------------------
theta = fit_qmle(model, data, omega="pi")
report = qmle_gr(theta, model, data, c, bound=bound)
print(f"pseudo-likelihood GR estimate: {report.contrast_value:.4f}")

# ---------------------------------------------------------------------------
# 3. No-harm rescaling: a single multiplicative constant on the imputations
# ---------------------------------------------------------------------------
nh = no_harm_gr(theta, model, data, moments.D, c, bound=bound)
print(f"no-harm rescaled estimate:     {nh.contrast_value:.4f} (alpha = {nh.diagnostics['alpha']:.3f})")

# population view: the rescaling can never increase the asymptotic variance
theta_pop = population_qmle(model, X, y_full)
f_pop = model.predict(theta_pop, X)
alpha_pop = population_no_harm_alpha(f_pop, y_full, moments.D, c, n)
var_ht = theoretical_asy_variance(np.zeros(2 * n), y_full, moments.D, c, n)
var_nh = theoretical_asy_variance(alpha_pop * f_pop, y_full, moments.D, c, n)
print(f"asymptotic variance x n: unadjusted {var_ht:.3f} vs rescaled {var_nh:.3f}")

# ---------------------------------------------------------------------------
# 4. Directly minimizing the implied variance
# ---------------------------------------------------------------------------
opt = opt_gr_linear(data, moments.D, c, bound=bound)
print(f"\nvariance-minimizing linear estimate: {opt.contrast_value:.4f}")
beta_pop = population_opt_gr_linear(rows, y_full, moments.D, c, n)
var_opt = theoretical_asy_variance(rows @ beta_pop, y_full, moments.D, c, n)
print(f"its population asymptotic variance x n: {var_opt:.4f} (the smallest in the model class)")

# the logistic variant minimizes the same variance criterion plus a small
# ridge penalty by a certified damped Newton solve (shown on a larger
# independent-assignment design)
from designest import BernoulliDesign
from designest.moments import analytic_bernoulli_moments

nb = 40
bdesign = BernoulliDesign(nb, [0.5, 0.5])
bmoments = analytic_bernoulli_moments(bdesign)
Xb = rng.standard_normal((nb, 1))
Xb -= Xb.mean(axis=0)
probs_model = ImputationModel("logistic", k=2, p=1)
y_binary = (
    rng.uniform(size=2 * nb) < probs_model.predict(np.array([0.4, -0.2, 1.0]), Xb)
).astype(float)
data_b = ExperimentData.from_full(y_binary, bdesign.sample(stream_rng(9)), Xb, bmoments)
opt_l = opt_gr_logit(data_b, bmoments.D, c)
print(
    f"logistic variant: estimate {opt_l.contrast_value:.4f}, "
    f"{opt_l.diagnostics['newton_steps']} Newton steps, "
    f"moment norm {opt_l.diagnostics['moment_norm']:.2e}, "
    f"penalized Hessian min eig {opt_l.diagnostics['hessian_min_eig']:.2e}"
)

# ---------------------------------------------------------------------------
# 5. The single-imputed-covariate compromise
# ---------------------------------------------------------------------------
oi = opt_i_gr(theta, model, data, moments.D, c, bound=bound)
print(f"\nimputed-covariate layer estimate: {oi.contrast_value:.4f}")
print("coefficients (arm intercepts + slope on the imputation):",
      np.round(oi.diagnostics["beta"], 3))
