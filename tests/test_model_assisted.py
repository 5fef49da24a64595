import warnings

import numpy as np
import pytest
from scipy.special import expit

from designest import model_assisted
from designest.bounds import aronow_samii_bound
from designest.designs import (
    BernoulliDesign,
    CompletelyRandomizedDesign,
    StratifiedDesign,
    stream_rng,
)
from designest.linear import (
    ExperimentData,
    ReplicationChunk,
    _pinv_flagged,
    estimate_linear,
    intercept_matrix,
    model_matrix,
)
from designest.model_assisted import (
    ImputationModel,
    OptimizationError,
    WeakIdentificationError,
    _weighted_qmle,
    fit_qmle,
    moment_jacobian,
    moment_vector,
    no_harm_alpha,
    no_harm_gr,
    opt_gr_linear,
    opt_gr_logit,
    opt_i_gr,
    opt_logit_imputations,
    population_moment_vector,
    population_no_harm_alpha,
    population_opt_gr_linear,
    population_opt_logit,
    population_qmle,
    qmle_gr,
    sample_qmle,
    theoretical_asy_variance,
)
from designest.harness import impute_potential_outcomes, preprocess_covariates
from designest.moments import closed_form_or_exact_moments, exact_moments


def centered(X):
    X = np.asarray(X, dtype=float)
    return X - X.mean(axis=0)


def make_data(design, y_full, X, seed=0, realization=None):
    moments = exact_moments(design)
    if realization is None:
        realization = design.sample(stream_rng(seed))
    return ExperimentData.from_full(np.asarray(y_full, float), realization, X, moments)


class TestImputationModel:
    def test_parameter_counts(self):
        assert ImputationModel("linear", k=2, p=3).s == 5

    def test_logistic_predictions_in_unit_interval(self):
        model = ImputationModel("logistic", k=2, p=1)
        rng = stream_rng(1)
        f = model.predict(rng.standard_normal(3) * 5, centered(rng.standard_normal((4, 1))))
        assert np.all((f > 0) & (f < 1))

    def test_design_rows_are_the_regression_model_matrix(self):
        model = ImputationModel("logistic", k=3, p=2)
        X = centered(stream_rng(2).standard_normal((5, 2)))
        rows = model.design_rows(X)
        assert rows.shape == (15, model.s)
        assert rows.tobytes() == model_matrix(X, 3).tobytes()

    @pytest.mark.parametrize("p, columns", [(0, 2), (1, 2), (2, 0)])
    def test_design_rows_reject_a_covariate_count_other_than_p(self, p, columns):
        X = np.ones((4, columns))
        with pytest.raises(ValueError, match=f"X has {columns} columns, the model p = {p}"):
            ImputationModel("linear", k=2, p=p).design_rows(X)


class TestFitQmle:
    def test_linear_constant_pi_equals_unweighted_ols(self):
        design = CompletelyRandomizedDesign(8, [4, 4])
        rng = stream_rng(2)
        X = centered(rng.standard_normal((8, 2)))
        y_full = rng.standard_normal(16)
        data = make_data(design, y_full, X, seed=1)
        model = ImputationModel("linear", k=2, p=2)
        theta = fit_qmle(model, data, omega="pi")
        rows = model.design_rows(X)[data.observed_cells]
        beta_ols, *_ = np.linalg.lstsq(rows, data.y_obs, rcond=None)
        assert np.allclose(theta, beta_ols, atol=1e-10)

    def test_linear_exact_interpolation(self):
        design = CompletelyRandomizedDesign(6, [3, 3])
        rng = stream_rng(3)
        X = centered(rng.standard_normal((6, 1)))
        model = ImputationModel("linear", k=2, p=1)
        truth = np.array([1.0, -0.5, 2.0])
        y_full = model.design_rows(X) @ truth
        data = make_data(design, y_full, X, seed=2)
        theta = fit_qmle(model, data)
        f = model.predict(theta, X)
        assert np.allclose(f[data.observed_cells], data.y_obs, atol=1e-10)
        assert np.allclose(theta, truth, atol=1e-8)

    def test_logistic_recovers_generating_parameters(self):
        n = 10_000
        rng = stream_rng(4)
        X = centered(rng.standard_normal((n, 1)))
        model = ImputationModel("logistic", k=2, p=1)
        truth = np.array([-0.4, 0.6, 0.8])
        probs = model.predict(truth, X)
        y_full = (rng.uniform(size=2 * n) < probs).astype(float)
        design = BernoulliDesign(n, [0.5, 0.5])
        from designest.moments import DesignMoments

        # analytic moments for speed: pi = 1/2 everywhere
        pi = np.full(2 * n, 0.5)
        moments = DesignMoments(
            n=n, k=2, pi=pi, p=np.empty((0, 0)), D=np.empty((0, 0)),
            method="exact", zero_mask=np.zeros(2 * n, dtype=bool),
        )
        realization = design.sample(stream_rng(5))
        data = ExperimentData.from_full(y_full, realization, X, moments)
        theta = fit_qmle(model, data)
        assert np.max(np.abs(theta - truth)) < 0.1


class TestQmleGr:
    def test_perfect_model_zero_residual(self):
        design = CompletelyRandomizedDesign(6, [3, 3])
        rng = stream_rng(6)
        X = centered(rng.standard_normal((6, 1)))
        model = ImputationModel("linear", k=2, p=1)
        y_full = model.design_rows(X) @ np.array([0.5, 1.5, -2.0])
        data = make_data(design, y_full, X, seed=3)
        theta = fit_qmle(model, data)
        bound = aronow_samii_bound(data.moments)
        report = qmle_gr(theta, model, data, [-1.0, 1.0], bound=bound)
        truth = intercept_matrix(6, 2).T @ y_full / 6
        assert report.contrast_value == pytest.approx(truth @ np.array([-1.0, 1.0]), abs=1e-10)
        assert report.varbound_raw == pytest.approx(0.0, abs=1e-12)

    def test_zero_imputation_reduces_to_ht(self):
        design = CompletelyRandomizedDesign(6, [2, 4])
        rng = stream_rng(7)
        y_full = rng.standard_normal(12)
        data = make_data(design, y_full, np.zeros((6, 0)), seed=4)
        report = qmle_gr(np.zeros(2), ImputationModel("linear", 2, 0), data, [-1.0, 1.0])
        mu = np.array(report.diagnostics["mu_hat"])
        ht = estimate_linear("ht", data).mu_hat
        assert np.allclose(mu, ht, atol=1e-12)

    def test_qmle_linear_equals_gr_estimator(self):
        # shared fit: omega = pi makes the QMLE loss the unweighted observed
        # least squares, which is the regression family with identity weights
        design = CompletelyRandomizedDesign(8, [4, 4])
        rng = stream_rng(8)
        X = centered(rng.standard_normal((8, 2)))
        y_full = rng.standard_normal(16)
        data = make_data(design, y_full, X, seed=5)
        model = ImputationModel("linear", k=2, p=2)
        theta = fit_qmle(model, data, omega="pi")
        report = qmle_gr(theta, model, data, [-1.0, 1.0])
        gr = estimate_linear("gr", data, m_weights="identity")
        assert report.contrast_value == pytest.approx(
            float(np.array([-1.0, 1.0]) @ gr.mu_hat), abs=1e-10
        )

    def test_mean_over_support_near_truth(self):
        design = CompletelyRandomizedDesign(6, [3, 3])
        rng = stream_rng(9)
        X = centered(rng.standard_normal((6, 1)))
        y_full = rng.standard_normal(12) + np.tile(X[:, 0], 2)
        model = ImputationModel("linear", k=2, p=1)
        table = design.enumerate_support()
        c = np.array([-1.0, 1.0])
        truth = float(c @ (intercept_matrix(6, 2).T @ y_full / 6))
        acc = 0.0
        for idx in range(len(table)):
            data = make_data(design, y_full, X, realization=table.realization(idx))
            theta = fit_qmle(model, data)
            acc += table.probabilities[idx] * qmle_gr(theta, model, data, c).contrast_value
        # finite-sample bias of the fitted adjustment is O(1/n), not zero
        assert abs(acc - truth) < 0.2


class TestNoHarm:
    def test_alpha_recovers_half_when_imputations_double(self):
        design = CompletelyRandomizedDesign(6, [3, 3])
        rng = stream_rng(10)
        X = centered(rng.standard_normal((6, 1)))
        y_full = np.tile(X[:, 0], 2) + rng.standard_normal(12) * 0.01
        moments = exact_moments(design)
        model = ImputationModel("linear", k=2, p=1)
        c = np.array([-1.0, 1.0])
        # population alpha with f = 2y is exactly 1/2
        alpha = population_no_harm_alpha(2 * y_full, y_full, moments.D, c, 6)
        assert alpha == pytest.approx(0.5, abs=1e-12)

    def test_zero_denominator_errors(self):
        design = CompletelyRandomizedDesign(4, [2, 2])
        rng = stream_rng(11)
        y_full = rng.standard_normal(8)
        data = make_data(design, y_full, np.zeros((4, 0)), seed=6)
        model = ImputationModel("linear", k=2, p=0)
        # intercept-only imputations are annihilated by the design matrix
        theta = fit_qmle(model, data)
        with pytest.raises(WeakIdentificationError):
            no_harm_alpha(theta, model, data, data.moments.D, [-1.0, 1.0])

    def test_population_dominance_over_ht(self):
        rng = stream_rng(12)
        c = np.array([-1.0, 1.0])
        for trial in range(20):
            n = 6
            design = CompletelyRandomizedDesign(n, [3, 3])
            moments = exact_moments(design)
            X = centered(rng.standard_normal((n, 1)))
            y_full = rng.standard_normal(2 * n) + 2.0 * np.tile(X[:, 0], 2)
            f = np.tile(X[:, 0], 2) + 0.3 * rng.standard_normal(2 * n)
            try:
                alpha = population_no_harm_alpha(f, y_full, moments.D, c, n)
            except WeakIdentificationError:
                continue
            var_noharm = theoretical_asy_variance(alpha * f, y_full, moments.D, c, n)
            var_ht = theoretical_asy_variance(np.zeros(2 * n), y_full, moments.D, c, n)
            assert var_noharm <= var_ht + 1e-10

    def test_no_harm_report_runs(self):
        design = CompletelyRandomizedDesign(8, [4, 4])
        rng = stream_rng(13)
        X = centered(rng.standard_normal((8, 1)))
        y_full = np.tile(X[:, 0], 2) * 2 + rng.standard_normal(16) * 0.1
        data = make_data(design, y_full, X, seed=7)
        model = ImputationModel("linear", k=2, p=1)
        theta = fit_qmle(model, data)
        bound = aronow_samii_bound(data.moments)
        report = no_harm_gr(theta, model, data, data.moments.D, [-1.0, 1.0], bound=bound)
        assert np.isfinite(report.contrast_value)
        assert "alpha" in report.diagnostics


class TestOptGrLinear:
    def test_zero_residual_when_outcomes_linear(self):
        design = CompletelyRandomizedDesign(6, [3, 3])
        rng = stream_rng(14)
        X = centered(rng.standard_normal((6, 2)))
        model = ImputationModel("linear", k=2, p=2)
        rows = model.design_rows(X)
        y_full = rows @ np.array([0.3, 0.3, 1.0, -1.0])
        moments = exact_moments(design)
        c = np.array([-1.0, 1.0])
        beta = population_opt_gr_linear(rows, y_full, moments.D, c, 6)
        assert theoretical_asy_variance(rows @ beta, y_full, moments.D, c, 6) == pytest.approx(
            0.0, abs=1e-10
        )

    @pytest.mark.parametrize("kind", ["crd", "bernoulli", "stratified"])
    def test_identification_flag_ignores_the_intercept_null_directions(self, kind):
        # pi is constant within arms, so D annihilates arm-constant columns
        # and the contrast-weighted design form is singular along them; those
        # directions are known, so only a duplicated covariate is flagged
        n, c = 8, [-1.0, 1.0]
        design = {
            "crd": CompletelyRandomizedDesign(n, [4, 4]),
            "bernoulli": BernoulliDesign(n, [0.5, 0.5]),
            "stratified": StratifiedDesign(n, [[0, 1, 2, 3], [4, 5, 6, 7]], [[2, 2], [2, 2]]),
        }[kind]
        rng = stream_rng(15)
        X = centered(rng.standard_normal((n, 2)))
        y_full = rng.standard_normal(2 * n)
        data = make_data(design, y_full, X, seed=8)
        model = ImputationModel("linear", k=2, p=2)
        xt = model.design_rows(X) * np.repeat(c, n)[:, None]
        assert _pinv_flagged(xt.T @ data.moments.D @ xt)[1]  # the form is singular
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = opt_gr_linear(data, data.moments.D, c)
            opt_i = opt_i_gr(fit_qmle(model, data), model, data, data.moments.D, c)
        assert not report.diagnostics["identification_flagged"]
        assert not opt_i.diagnostics["identification_flagged"]
        duplicated = make_data(design, y_full, np.hstack([X, X[:, :1]]), seed=8)
        with pytest.warns(RuntimeWarning, match="near-zero eigenvalues"):
            report = opt_gr_linear(duplicated, duplicated.moments.D, c)
        assert report.diagnostics["identification_flagged"]

    def test_population_optimality_beats_random_and_wls(self):
        rng = stream_rng(16)
        c = np.array([-1.0, 1.0])
        n = 6
        design = CompletelyRandomizedDesign(n, [3, 3])
        moments = exact_moments(design)
        for trial in range(5):
            X = centered(rng.standard_normal((n, 2)))
            model = ImputationModel("linear", k=2, p=2)
            rows = model.design_rows(X)
            y_full = rng.standard_normal(2 * n) + rows @ rng.standard_normal(4)
            beta = population_opt_gr_linear(rows, y_full, moments.D, c, n)
            best = theoretical_asy_variance(rows @ beta, y_full, moments.D, c, n)
            for _ in range(200):
                other = rng.standard_normal(4)
                value = theoretical_asy_variance(rows @ other, y_full, moments.D, c, n)
                assert best <= value + 1e-10
            # the population least-squares coefficients are also dominated
            w = moments.pi
            a_inv = np.linalg.pinv(rows.T @ (rows * w[:, None]))
            b_wls = a_inv @ (rows.T @ (w * y_full))
            assert best <= theoretical_asy_variance(rows @ b_wls, y_full, moments.D, c, n) + 1e-10

    def test_rejects_zero_omega(self):
        design = CompletelyRandomizedDesign(4, [2, 2])
        rng = stream_rng(17)
        data = make_data(design, rng.standard_normal(8), centered(rng.standard_normal((4, 1))))
        with pytest.raises(ValueError):
            opt_gr_linear(data, np.zeros((8, 8)), [-1.0, 1.0])

    def test_rejects_non_symmetric_omega(self):
        design = CompletelyRandomizedDesign(4, [2, 2])
        rng = stream_rng(17)
        data = make_data(design, rng.standard_normal(8), centered(rng.standard_normal((4, 1))))
        Omega = data.moments.D.copy()
        Omega[0, 1] += 1e-3
        with pytest.raises(ValueError, match="Omega must be symmetric"):
            opt_gr_linear(data, Omega, [-1.0, 1.0])


class TestGradients:
    def _instance(self, seed):
        rng = stream_rng(seed)
        n = 6
        design = BernoulliDesign(n, [0.4, 0.6])
        X = centered(rng.standard_normal((n, 2)))
        model = ImputationModel("logistic", k=2, p=2)
        probs = model.predict(rng.standard_normal(model.s), X)
        y_full = (rng.uniform(size=2 * n) < probs).astype(float)
        data = make_data(design, y_full, X, seed=seed + 1)
        return model, data, rng

    def test_qmle_criterion_gradient_matches_fd(self):
        # weighted logistic loss: analytic gradient vs central differences
        h = 1e-5
        for seed in range(10):
            model, data, rng = self._instance(seed)
            cells = data.observed_cells
            rows = model.design_rows(data.X)[cells]
            w = data.moments.pi[cells] / data.moments.pi[cells] / data.moments.pi[cells]

            def loss(theta):
                eta = rows @ theta
                return -float(np.sum(w * (data.y_obs * eta - np.logaddexp(0.0, eta))))

            theta = rng.standard_normal(model.s) * 0.5
            analytic = -(rows.T @ (w * (data.y_obs - expit(rows @ theta))))
            fd = np.array(
                [
                    (loss(theta + h * e) - loss(theta - h * e)) / (2 * h)
                    for e in np.eye(model.s)
                ]
            )
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(analytic - fd) / denom) < 1e-4

    def test_moment_jacobian_matches_fd(self):
        h = 1e-5
        c = np.array([-1.0, 1.0])
        for seed in range(10):
            model, data, rng = self._instance(100 + seed)
            Omega = data.moments.D
            theta = rng.standard_normal(model.s) * 0.5
            analytic = moment_jacobian(theta, model, data, Omega, c)
            fd = np.zeros_like(analytic)
            for j, e in enumerate(np.eye(model.s)):
                gp = moment_vector(theta + h * e, model, data, Omega, c)
                gm = moment_vector(theta - h * e, model, data, Omega, c)
                fd[:, j] = (gp - gm) / (2 * h)
            denom = max(np.abs(fd).max(), 1e-8)
            assert np.abs(analytic - fd).max() / denom < 1e-4


class TestOptGrLogit:
    def _solvable_instance(self, seed=20):
        from designest.moments import analytic_bernoulli_moments

        rng = stream_rng(seed)
        n = 30
        design = BernoulliDesign(n, [0.5, 0.5])
        X = centered(rng.standard_normal((n, 1)))
        model = ImputationModel("logistic", k=2, p=1)
        truth = np.array([0.2, -0.3, 1.0])
        probs = model.predict(truth, X)
        y_full = (rng.uniform(size=2 * n) < probs).astype(float)
        moments = analytic_bernoulli_moments(design)
        realization = design.sample(stream_rng(seed + 1))
        data = ExperimentData.from_full(y_full, realization, X, moments)
        return model, data

    def test_fit_is_a_stationary_point_of_the_ridge_criterion(self):
        model, data = self._solvable_instance()
        report = opt_gr_logit(data, data.moments.D, [-1.0, 1.0], model=model)
        diagnostics = report.diagnostics
        theta = np.array(diagnostics["theta"])
        g = moment_vector(theta, model, data, data.moments.D, [-1.0, 1.0])
        # the moment vector balances the ridge's pull: g = ridge theta
        assert np.abs(model_assisted.OPT_LOGIT_RIDGE * theta - g).max() <= 1e-12
        assert diagnostics["moment_norm"] == float(np.sqrt(g @ g))
        assert 0 < diagnostics["newton_steps"] < model_assisted.NEWTON_MAX_ITER
        assert 0 < diagnostics["hessian_min_eig"] <= diagnostics["hessian_max_eig"]

    def test_zero_omega_rejected(self):
        model, data = self._solvable_instance(21)
        with pytest.raises(ValueError):
            opt_gr_logit(data, np.zeros((60, 60)), [-1.0, 1.0], model=model)

    def test_non_symmetric_omega_rejected(self):
        model, data = self._solvable_instance(21)
        Omega = data.moments.D.copy()
        Omega[0, 1] += 1e-3
        with pytest.raises(ValueError, match="Omega must be symmetric"):
            opt_gr_logit(data, Omega, [-1.0, 1.0], model=model)

    def test_newton_budget_error(self, monkeypatch):
        model, data = self._solvable_instance(22)
        monkeypatch.setattr(model_assisted, "NEWTON_MAX_ITER", 1)
        with pytest.raises(OptimizationError, match="no certified minimum .* in 1 Newton steps"):
            opt_gr_logit(data, data.moments.D, [-1.0, 1.0], model=model)

    def test_population_moments_vanish_at_bruteforce_minimizer(self):
        # grid + local refinement oracle on a 2-parameter instance
        rng = stream_rng(23)
        n = 8
        design = CompletelyRandomizedDesign(n, [4, 4])
        moments = exact_moments(design)
        X = centered(rng.standard_normal((n, 1)))
        model = ImputationModel("logistic", k=1, p=1)

        # one "arm" keeps s = 2 so the grid stays cheap; use a two-arm design
        # restricted to its first arm block for the quadratic form
        model2 = ImputationModel("logistic", k=2, p=0)
        c = np.array([-1.0, 1.0])
        y_full = (rng.uniform(size=2 * n) < 0.5).astype(float)

        def criterion(theta):
            g = population_moment_vector(theta, model2, X[:, :0], y_full, moments.D, c, n)
            return float(g @ g)

        # coarse grid then refinement
        grid = np.linspace(-3, 3, 31)
        best = min(((criterion(np.array([a, b])), a, b) for a in grid for b in grid))
        theta0 = np.array([best[1], best[2]])
        from scipy.optimize import minimize

        res = minimize(criterion, theta0, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14})
        g = population_moment_vector(res.x, model2, X[:, :0], y_full, moments.D, c, n)
        assert np.linalg.norm(g) < 1e-5


class TestOptI:
    def test_perfect_imputations_population_coefficient_is_one(self):
        # with f = y and intercepts annihilated by the design matrix, the
        # minimum-norm population solution puts weight one on the imputed
        # covariate and drops the residual to zero
        from designest.model_assisted import population_opt_i_beta

        design = CompletelyRandomizedDesign(6, [3, 3])
        rng = stream_rng(24)
        X = centered(rng.standard_normal((6, 1)))
        model = ImputationModel("linear", k=2, p=1)
        theta = np.array([0.4, -0.2, 1.3])
        y_full = model.predict(theta, X)
        moments = exact_moments(design)
        c = np.array([-1.0, 1.0])
        beta = population_opt_i_beta(y_full, y_full, moments.D, c, 6, 2)
        assert beta[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(beta[:2], 0.0, atol=1e-10)
        xi = np.hstack([intercept_matrix(6, 2), y_full[:, None]])
        assert theoretical_asy_variance(xi @ beta, y_full, moments.D, c, 6) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_feasible_opt_i_runs_and_is_sane(self):
        design = CompletelyRandomizedDesign(6, [3, 3])
        rng = stream_rng(29)
        X = centered(rng.standard_normal((6, 1)))
        model = ImputationModel("linear", k=2, p=1)
        theta = np.array([0.4, -0.2, 1.3])
        y_full = model.predict(theta, X) + 0.05 * rng.standard_normal(12)
        data = make_data(design, y_full, X, seed=9)
        with warnings.catch_warnings():
            # the CRD design matrix annihilates only the intercept directions
            warnings.simplefilter("error")
            report = opt_i_gr(theta, model, data, data.moments.D, [-1.0, 1.0])
        assert np.isfinite(report.contrast_value)
        assert len(report.diagnostics["beta"]) == 3
        assert not report.diagnostics["identification_flagged"]

    def test_arm_constant_imputations_flagged(self):
        design = CompletelyRandomizedDesign(6, [3, 3])
        rng = stream_rng(25)
        y_full = rng.standard_normal(12)
        data = make_data(design, y_full, np.zeros((6, 0)), seed=10)
        model = ImputationModel("linear", k=2, p=0)
        theta = fit_qmle(model, data)
        with pytest.warns(RuntimeWarning):
            report = opt_i_gr(theta, model, data, data.moments.D, [-1.0, 1.0])
        assert report.diagnostics["identification_flagged"]


class TestTheoreticalVariance:
    def test_zero_for_perfect_imputations(self):
        y = np.arange(8.0)
        assert theoretical_asy_variance(y, y, np.eye(8), [-1.0, 1.0], 4) == 0.0

    def test_ht_case_equals_z_quadratic_form(self):
        design = CompletelyRandomizedDesign(4, [2, 2])
        moments = exact_moments(design)
        rng = stream_rng(26)
        y_full = rng.standard_normal(8)
        c = np.array([-1.0, 1.0])
        w = np.repeat(c, 4)
        zc = w * y_full
        assert theoretical_asy_variance(
            np.zeros(8), y_full, moments.D, c, 4
        ) == pytest.approx(float(zc @ moments.D @ zc) / 4)

    def test_matches_exact_enumeration_variance(self):
        design = CompletelyRandomizedDesign(4, [2, 2])
        moments = exact_moments(design)
        rng = stream_rng(27)
        y_full = rng.standard_normal(8)
        c = np.array([-1.0, 1.0])
        table = design.enumerate_support()
        values = []
        for idx in range(len(table)):
            data = make_data(design, y_full, np.zeros((4, 0)), realization=table.realization(idx))
            values.append(float(c @ estimate_linear("ht", data).mu_hat))
        values = np.array(values)
        var = float(
            np.sum(table.probabilities * values**2)
            - np.sum(table.probabilities * values) ** 2
        )
        assert theoretical_asy_variance(np.zeros(8), y_full, moments.D, c, 4) == pytest.approx(
            4 * var, abs=1e-10
        )


def test_population_qmle_linear_matches_lstsq():
    rng = stream_rng(28)
    X = centered(rng.standard_normal((6, 2)))
    model = ImputationModel("linear", k=2, p=2)
    rows = model.design_rows(X)
    y_full = rng.standard_normal(12)
    theta = population_qmle(model, X, y_full)
    expected, *_ = np.linalg.lstsq(rows, y_full, rcond=None)
    assert np.allclose(theta, expected, atol=1e-10)


def reference_logistic_qmle(rows, y, w, max_iter=500, tol=1e-10, trace=None):
    """The scalar Newton loop of the logistic pseudo-likelihood without the
    stall rule: theta, and whether it ran to the iteration cap. trace, a
    list, gets each iteration's (halving level j of the taken t = 2^-j, 50
    when every level is rejected; whether theta moved)."""
    theta = np.zeros(rows.shape[1])

    def negloglik(th):
        eta = rows @ th
        return -float(np.sum(w * (y * eta - np.logaddexp(0.0, eta))))

    value = negloglik(theta)
    for _ in range(max_iter):
        f = expit(rows @ theta)
        grad = rows.T @ (w * (y - f))
        if np.linalg.norm(grad) < tol * max(1.0, abs(value)):
            return theta, False
        hess = rows.T @ (rows * (w * f * (1.0 - f))[:, None])
        step = _pinv_flagged(hess)[0] @ grad
        t, level = 1.0, 0
        for _ in range(50):
            if negloglik(theta + t * step) <= value:
                break
            t, level = t * 0.5, level + 1
        moved = theta + t * step
        if trace is not None:
            trace.append((level, bool((moved != theta).any())))
        theta = moved
        value = negloglik(theta)
    return theta, True


def logistic_instance(seed):
    """A small one-covariate logistic fit; seed 146 is one whose Newton step
    stops moving theta before the gradient test passes (found by search)."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(6, 14))
    X = rng.standard_normal((m, 1))
    rows = np.hstack([np.ones((m, 1)), X])
    y = (X[:, 0] + 0.3 * rng.standard_normal(m) > 0).astype(float)
    return rows, y, np.ones(m)


def logistic_batch(seeds, m, signed=False):
    """The instances of seeds with m cells, stacked, and each one's
    reference trace. Signed weights (-1 to 2 over the cells) make the loss
    non-convex, so that a Newton step can point uphill."""
    instances = [inst for inst in map(logistic_instance, seeds) if len(inst[0]) == m]
    rows, y, w = (np.stack(parts) for parts in zip(*instances))
    if signed:
        w = w * np.linspace(-1.0, 2.0, m)
    traces = [[] for _ in rows]
    for b, trace in enumerate(traces):
        reference_logistic_qmle(rows[b], y[b], w[b], trace=trace)
    return rows, y, w, traces


class TestLogisticNewton:
    model = ImputationModel("logistic", k=1, p=1)

    def test_stalled_fit_returns_the_reference_theta_without_a_cap_warning(self):
        rows, y, w = logistic_instance(146)
        reference, capped = reference_logistic_qmle(rows, y, w)
        assert capped  # the reference repeats its unmoving step until the cap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta = _weighted_qmle(self.model, rows[None], y[None], w[None])[0]
        assert theta.tobytes() == reference.tobytes()

    def test_short_iteration_cap_still_warns(self, monkeypatch):
        rows, y, w = logistic_instance(146)
        reference, capped = reference_logistic_qmle(rows, y, w, max_iter=2)
        assert capped
        monkeypatch.setattr(model_assisted, "QMLE_MAX_ITER", 2)
        with pytest.warns(RuntimeWarning, match="iteration cap"):
            theta = _weighted_qmle(self.model, rows[None], y[None], w[None])[0]
        assert theta.tobytes() == reference.tobytes()

    def test_batch_rows_equal_the_reference_and_batches_of_one(self):
        # same row count, so that the instances stack; some are separated
        instances = [logistic_instance(seed) for seed in range(200)]
        instances = [inst for inst in instances if len(inst[0]) == 13][:24]
        rows, y, w = (np.stack(parts) for parts in zip(*instances))
        w = w * np.linspace(0.5, 2.0, 13)  # unequal cell weights
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            batch = _weighted_qmle(self.model, rows, y, w)
            for b in range(len(rows)):
                single = _weighted_qmle(self.model, rows[b : b + 1], y[b : b + 1], w[b : b + 1])
                assert batch[b].tobytes() == single[0].tobytes()
                reference = reference_logistic_qmle(rows[b], y[b], w[b])[0]
                assert batch[b].tobytes() == reference.tobytes()
        assert np.abs(batch).max() >= 10.0  # the batch includes a separated fit

    def assert_rows_equal_the_reference(self, rows, y, w):
        """Each row of the batch fit is bitwise its batch of one and the
        reference, and a batch of one warns exactly when the reference
        says it must: at the cap unless theta stalls, and at the box."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            batch = _weighted_qmle(self.model, rows, y, w)
        for b in range(len(rows)):
            trace = []
            reference, capped = reference_logistic_qmle(rows[b], y[b], w[b], trace=trace)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                single = _weighted_qmle(self.model, rows[b : b + 1], y[b : b + 1], w[b : b + 1])
            assert batch[b].tobytes() == single[0].tobytes() == reference.tobytes()
            stalled = not all(moved for _, moved in trace)
            expected = {"iteration cap"} if capped and not stalled else set()
            if np.abs(reference).max() >= 10.0:
                expected.add("box boundary")
            messages = [str(x.message) for x in caught]
            assert {key for key in ("iteration cap", "box boundary")
                    if any(key in text for text in messages)} == expected

    def test_rows_that_reject_the_first_blocks_of_levels_equal_the_reference(self):
        # seeds 146, 179, 260 and 371 halve into the twenties near a stall
        rows, y, w, traces = logistic_batch(range(400), 13)
        levels = [level for trace in traces for level, _ in trace]
        _, middle, last = model_assisted._HALVING_BLOCKS
        assert any(middle[0] <= level < middle[1] for level in levels)
        assert any(last[0] <= level < last[1] for level in levels)  # a third evaluation
        self.assert_rows_equal_the_reference(rows, y, w)

    def test_a_row_that_rejects_every_level_takes_the_smallest_step(self):
        # under the signed weights, seed 0 (12 cells) rejects all 50 levels
        # of one uphill step and then converges (found by search)
        rows, y, w, traces = logistic_batch(range(60), 12, signed=True)
        assert 50 in [level for level, _ in traces[0]]
        self.assert_rows_equal_the_reference(rows, y, w)


def crd_population(n=20):
    """A two-arm CRD of n units with n / 2 treated, its exact moments, two
    centered covariates and binary potential outcomes."""
    design = CompletelyRandomizedDesign(n, [n // 2, n // 2])
    moments = closed_form_or_exact_moments(design)
    X = centered(stream_rng(3).standard_normal((n, 2)))
    y_full = impute_potential_outcomes(X, [0.8, 0.6], [0.3, -0.2], seed=4)
    return design, moments, X, y_full


def crd_chunk(replications=20):
    """The replications of the 20-unit CRD as one ReplicationChunk, with the
    model, design rows and D of their opt_logit fit."""
    design, moments, X, y_full = crd_population()
    arms = np.stack([design.sample(stream_rng(5, rep)).arm_of for rep in range(replications)])
    y_obs = y_full[arms * 20 + np.arange(20)]
    chunk = ReplicationChunk(arms, y_obs, X, moments, range(replications))
    model = ImputationModel("logistic", k=2, p=2)
    return chunk, model, model.design_rows(X), moments.D


def ridge_criterion(theta, y, args):
    """The ridge-penalized variance criterion Q + OPT_LOGIT_RIDGE |theta|^2 / 2
    at theta (s,) for the outcome vector y (1, kn), and its gradient."""
    value, g = model_assisted._moment_terms(theta[None], y, *args)[:2]
    ridge = model_assisted.OPT_LOGIT_RIDGE
    return value[0] + ridge / 2 * (theta @ theta), ridge * theta - g[0]


def ridge_rounding(theta, y, args):
    """A bound on the rounding error of the ridge criterion's evaluation: its
    kn-term sums in absolute values, times (kn + 2) eps."""
    model, rows, Omega, w, n = args
    r = np.abs(w * (y[0] - model._predict_rows(theta, rows)))
    total = r @ np.abs(Omega) @ r / (2 * n) + model_assisted.OPT_LOGIT_RIDGE / 2 * (theta @ theta)
    return (len(r) + 2) * np.finfo(float).eps * total


def assert_no_higher_than_bfgs(theta, start, y, args):
    """The ridge criterion at theta is no higher than at scipy's BFGS
    minimum from start, up to the two evaluations' rounding."""
    from scipy.optimize import minimize

    oracle = minimize(ridge_criterion, start, args=(y, args), jac=True, method="BFGS",
                      options={"gtol": 1e-12, "maxiter": 500}).x
    slack = ridge_rounding(theta, y, args) + ridge_rounding(oracle, y, args)
    assert ridge_criterion(theta, y, args)[0] <= ridge_criterion(oracle, y, args)[0] + slack


def assert_certified(theta, y, args, diagnostics=None):
    """theta is a certified minimum of the ridge criterion: |gradient|_inf <=
    1e-12 and the penalized Hessian less its margin has a Cholesky factor;
    with diagnostics, they report that Hessian's extreme eigenvalues."""
    assert np.abs(ridge_criterion(theta, y, args)[1]).max() <= 1e-12
    eye = np.eye(len(theta))
    hess = model_assisted._criterion_hessian(theta[None], y, *args)[0]
    eigs = np.linalg.eigvalsh(hess + model_assisted.OPT_LOGIT_RIDGE * eye)
    np.linalg.cholesky(hess + model_assisted.OPT_LOGIT_RIDGE * eye
                       - model_assisted.EIG_WARN_RATIO * eigs[-1] * eye)
    if diagnostics is not None:
        assert (diagnostics["hessian_min_eig"], diagnostics["hessian_max_eig"]) == (eigs[0], eigs[-1])


class TestOptLogitRows:
    c = np.array([-1.0, 1.0])

    def fit(self, replications=20):
        chunk, model, rows, D = crd_chunk(replications)
        start = chunk.first_stage("logistic", "pi")[0]
        args = model_assisted._criterion_args(model, chunk.X, D, self.c, 20)
        return chunk.y_ipw, start, args, opt_logit_imputations(
            model, rows, chunk.y_ipw, D, self.c, 20, start
        )

    def test_every_row_is_a_certified_minimum_below_its_start(self):
        # a local minimum only: Q here has several, and on 4 of these rows
        # BFGS from the same start ends lower, on 4 others higher
        ys, start, args, (f, diagnostics, errors) = self.fit()
        assert not errors
        assert max(d["newton_steps"] for d in diagnostics) <= 15
        for b, y in enumerate(ys[:, None]):
            theta = np.array(diagnostics[b]["theta"])
            assert_certified(theta, y, args, diagnostics[b])
            assert ridge_criterion(theta, y, args)[0] <= ridge_criterion(start[b], y, args)[0]
            assert f[b].tobytes() == args[0]._predict_rows(theta, args[1]).tobytes()

    def test_without_the_ridge_most_rows_have_no_certified_minimum(self, monkeypatch):
        # on most of these 20 replications Q falls towards infinity in some
        # direction: the unpenalized Newton iteration certifies 5 rows
        monkeypatch.setattr(model_assisted, "OPT_LOGIT_RIDGE", 0.0)
        errors = self.fit()[3][2]
        assert len(errors) == 15
        assert all(isinstance(exc, OptimizationError) for exc in errors.values())

    def test_rows_equal_a_batch_of_one(self):
        ys, start, args, (f, diagnostics, errors) = self.fit(8)
        model, rows, D, _, n = args
        for b in range(8):
            one = opt_logit_imputations(model, rows, ys[[b]], D, self.c, n, start[[b]])
            assert one[0].tobytes() == f[[b]].tobytes()
            assert one[1] == [diagnostics[b]]

    def test_a_row_fails_when_the_budget_runs_out(self, monkeypatch):
        # the rows take 8 to 15 steps: a budget of 10 iterates certifies 5
        monkeypatch.setattr(model_assisted, "NEWTON_MAX_ITER", 10)
        f, diagnostics, errors = self.fit()[3]
        assert len(errors) == 15
        for b, diagnostic in enumerate(diagnostics):
            if b not in errors:
                assert diagnostic["newton_steps"] < 10
                continue
            assert np.isnan(f[b]).all() and diagnostic == {}
            assert str(errors[b]) == (
                "no certified minimum of the ridge-penalized variance criterion in 10 Newton steps"
            )


class TestJacobianFreeGradient:
    c = np.array([-1.0, 1.0])

    @pytest.mark.parametrize("family", ["logistic", "linear"])
    @pytest.mark.parametrize("n", [20, 200])
    def test_moment_vector_is_minus_the_criterion_gradient(self, family, n):
        design, moments, X, y_full = crd_population(n)
        data = ExperimentData.from_full(y_full, design.sample(stream_rng(5, 0)), X, moments)
        model = ImputationModel(family, k=2, p=2)
        Omega, y = moments.D, data.chunk.y_ipw
        args = model, model.design_rows(X), Omega, np.repeat(self.c, n), n
        rng, step = stream_rng(6), 1e-5

        def criterion(th):  # r' Omega r / 2n with r = w (y - f)
            r = np.repeat(self.c, n) * (y[0] - model.predict(th, X))
            return r @ Omega @ r / (2 * n)

        for theta in rng.normal(0.0, 0.5, size=(5, model.s)):
            value, g = model_assisted._moment_terms(theta[None], y, *args)[:2]
            assert g[0].tobytes() == moment_vector(theta, model, data, Omega, self.c).tobytes()
            assert value[0] == pytest.approx(criterion(theta), rel=1e-12)
            fd = np.array([
                (criterion(theta + step * e) - criterion(theta - step * e)) / (2 * step)
                for e in np.eye(model.s)
            ])
            assert np.abs(-g[0] - fd).max() <= 1e-6 * np.abs(fd).max()

    def test_hessian_diagnostic_is_minus_the_moment_jacobian_plus_the_ridge(self):
        design, moments, X, y_full = crd_population()
        chunk, model, rows, D = crd_chunk()
        start = chunk.first_stage("logistic", "pi")[0]
        _, diagnostics, errors = opt_logit_imputations(model, rows, chunk.y_ipw, D, self.c, 20, start)
        assert not errors
        for b, diagnostic in enumerate(diagnostics):
            data = ExperimentData.from_full(y_full, design.sample(stream_rng(5, b)), X, moments)
            theta = np.array(diagnostic["theta"])
            hess = -moment_jacobian(theta, model, data, D, self.c)
            eigs = np.linalg.eigvalsh(hess + model_assisted.OPT_LOGIT_RIDGE * np.eye(model.s))
            assert diagnostic["hessian_min_eig"] == eigs[0]
            assert diagnostic["hessian_max_eig"] == eigs[-1]

    def test_the_ridge_holds_a_zero_weight_arms_parameters_at_zero(self):
        n, c = 15, np.array([1.0, 0.0, -1.0])
        design = CompletelyRandomizedDesign(n, [5, 5, 5])
        moments = closed_form_or_exact_moments(design)
        X = centered(stream_rng(3).standard_normal((n, 2)))
        y_full = impute_potential_outcomes(X, [0.8, 0.6], [0.3, -0.2, 0.1], seed=4)
        arms = np.stack([design.sample(stream_rng(5, r)).arm_of for r in range(6)])
        chunk = ReplicationChunk(arms, y_full[arms * n + np.arange(n)], X, moments, range(6))
        model = ImputationModel("logistic", k=3, p=2)
        start = sample_qmle(model, model.design_rows(X), moments.pi, "pi", chunk.cells, chunk.y_obs)
        _, diagnostics, errors = opt_logit_imputations(
            model, model.design_rows(X), chunk.y_ipw, moments.D, c, n, start
        )
        assert not errors
        ridge = model_assisted.OPT_LOGIT_RIDGE
        for diagnostic in diagnostics:
            # theta is (intercepts 0..2, slopes): arm 1 has contrast weight 0,
            # so Q is flat along its intercept; the ridge's gradient ridge
            # theta alone must vanish there, and its curvature is the
            # Hessian's least
            assert abs(diagnostic["theta"][1]) <= 1e-12 / ridge
            assert diagnostic["hessian_min_eig"] == pytest.approx(ridge, rel=1e-9)


def solve_population(name):
    """(model, X, y_full, D, c, n) of a named population: crd2 and
    bernoulli3 are test_harness's two theory-column populations, crd200 a
    two-arm CRD of 200 units with 3 covariates. The criteria of the others
    have no strict interior minimum: crd20 is crd_population and recipe the
    population of tools/parity.py's RECIPE, on both of which Q falls towards
    infinity, and on bernoulli3_flat the zero contrast weight of arm 1 leaves
    its intercept out of Q."""
    c = np.array([-1.0, 1.0])
    if name == "crd20":
        design, moments, X, y_full = crd_population()
    elif name == "recipe":
        rng = np.random.default_rng(11)
        rng.permutation([1] * 5 + [2] * 7)  # parity.py draws the observed arms first
        design, X = CompletelyRandomizedDesign(12, [5, 7]), preprocess_covariates(rng.standard_normal((12, 2)))
        y_full = impute_potential_outcomes(X, [0.8, -0.4], [-0.3, 0.5], seed=6)
    else:
        design, X = {
            "crd2": (CompletelyRandomizedDesign(30, [12, 18]), stream_rng(21).standard_normal((30, 2))),
            "bernoulli3": (BernoulliDesign(30, [0.3, 0.3, 0.4]), stream_rng(21).standard_normal((30, 2))),
            "bernoulli3_flat": (BernoulliDesign(30, [0.3, 0.3, 0.4]), stream_rng(21).standard_normal((30, 2))),
            "crd200": (CompletelyRandomizedDesign(200, [100, 100]), stream_rng(7).standard_normal((200, 3))),
        }[name]
        X = centered(X)
        coeffs = [0.9, -0.6, 0.4][: X.shape[1]]
        y_full = impute_potential_outcomes(X, coeffs, np.linspace(-0.4, 0.5, design.k), seed=4)
        if design.k == 3:
            c = np.array([1.0, 0.0, -1.0] if name.endswith("flat") else [1.0, -2.0, 1.0])
    model = ImputationModel("logistic", design.k, X.shape[1])
    return model, X, y_full, closed_form_or_exact_moments(design).D, c, design.n


POPULATIONS = ["crd2", "bernoulli3", "crd200", "crd20", "recipe", "bernoulli3_flat"]


class TestPopulationSolve:
    @pytest.mark.parametrize("name", POPULATIONS)
    def test_newton_certifies_a_ridge_minimum_no_higher_than_bfgs(self, name):
        model, X, y_full, D, c, n = solve_population(name)
        theta = population_opt_logit(model, X, y_full, D, c, n)
        args = model_assisted._criterion_args(model, X, D, c, n)
        assert_certified(theta, y_full[None], args)
        assert_no_higher_than_bfgs(theta, population_qmle(model, X, y_full), y_full[None], args)

    @pytest.mark.parametrize("name", POPULATIONS[3:])
    def test_without_the_ridge_newton_certifies_no_minimum(self, name, monkeypatch):
        model, X, y_full, D, c, n = solve_population(name)
        monkeypatch.setattr(model_assisted, "OPT_LOGIT_RIDGE", 0.0)
        with pytest.raises(OptimizationError):
            population_opt_logit(model, X, y_full, D, c, n)

    def test_the_start_is_the_pseudo_likelihood_fit_with_omega_weights(self):
        model, X, y_full, D, c, n = solve_population("crd2")
        pi = closed_form_or_exact_moments(CompletelyRandomizedDesign(30, [12, 18])).pi
        start = population_qmle(model, X, y_full, omega=pi)
        args = model_assisted._criterion_args(model, X, D, c, n)
        theta = population_opt_logit(model, X, y_full, D, c, n, omega=pi)
        assert theta.tobytes() == model_assisted._certified_newton(start, y_full[None], args)[0].tobytes()
