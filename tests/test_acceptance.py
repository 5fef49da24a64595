"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s or -v to see them). Tolerances are fixed here,
not calibrated at runtime."""

import time

import numpy as np
import pytest

from designest.bounds import aronow_samii_bound, certify_bound, neyman_bound_crd
from designest.designs import (
    BernoulliDesign,
    ClusteredDesign,
    CompletelyRandomizedDesign,
    StratifiedDesign,
    stream_rng,
)
from designest.harness import (
    SimConfig,
    impute_potential_outcomes,
    preprocess_covariates,
    run_simulation,
)
from designest.linear import ExperimentData, estimate_linear, intercept_matrix
from designest.model_assisted import (
    ImputationModel,
    WeakIdentificationError,
    fit_qmle,
    moment_jacobian,
    moment_vector,
    population_no_harm_alpha,
    population_opt_gr_linear,
    qmle_gr,
    theoretical_asy_variance,
)
from designest.moments import (
    crd_first_order_matrix,
    design_complexity,
    exact_moments,
    largest_eigenvalue,
    mc_moments,
    tensor_sigma_max_oracle,
    tensor_slice_norm_bound,
)
from designest.network import (
    InterferenceGraph,
    derive_exposure_design,
    standard_binary_exposure_rules,
)


def announce(number, message):
    print(f"[criterion {number:02d}] PASS: {message}")


def centered(X):
    X = np.asarray(X, dtype=float)
    return X - X.mean(axis=0)


def ht_support_estimates(design, y_full):
    """All HT arm estimates over the exact support, one row per point."""
    table = design.enumerate_support()
    moments = exact_moments(design)
    indicators = table.indicator_matrix()
    ipw = indicators / moments.pi
    ones = intercept_matrix(design.n, design.k)
    estimates = (ipw * y_full) @ ones / design.n
    return table, moments, estimates


def test_criterion_01_crd_design_matrix_oracle():
    start = time.time()
    for n in range(2, 11):
        for n_t in range(1, n):
            design = CompletelyRandomizedDesign(n, [n_t, n - n_t])
            exact = exact_moments(design)
            analytic = crd_first_order_matrix(n, n_t)
            assert np.max(np.abs(exact.D - analytic)) <= 1e-12, (n, n_t)
            # table formulas: diagonal n_c/n_t, within-arm off-diagonal
            # -n_c/(n_t (n-1)), cross-arm diagonal -1, cross off 1/(n-1)
            n_c = n - n_t
            assert analytic[0, 0] == pytest.approx(n_c / n_t, abs=1e-12)
            if n > 2:
                assert analytic[0, 1] == pytest.approx(-n_c / (n_t * (n - 1)), abs=1e-12)
            assert analytic[0, n] == pytest.approx(-1.0, abs=1e-12)
            if n > 2:
                assert analytic[0, n + 1] == pytest.approx(1.0 / (n - 1), abs=1e-12)
    elapsed = time.time() - start
    assert elapsed < 5.0
    announce(1, f"analytic two-arm design matrix matches enumeration for n<=10 ({elapsed:.1f}s)")


def test_criterion_02_ht_exact_unbiasedness():
    start = time.time()
    rng = stream_rng(1001)
    designs = [
        CompletelyRandomizedDesign(8, [3, 5]),
        BernoulliDesign(6, [0.5, 0.5]),
    ]
    for design in designs:
        table, moments, _ = ht_support_estimates(design, np.zeros(design.n * design.k))
        indicators = table.indicator_matrix()
        ipw = indicators / moments.pi
        ones = intercept_matrix(design.n, design.k)
        for _ in range(20):
            y = rng.standard_normal(design.n * design.k)
            estimates = (ipw * y) @ ones / design.n
            mean = table.probabilities @ estimates
            truth = ones.T @ y / design.n
            assert np.max(np.abs(mean - truth)) <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 10.0
    announce(2, f"weighted estimator exactly unbiased over both supports ({elapsed:.1f}s)")


def test_criterion_03_variance_identity():
    rng = stream_rng(1002)
    c = np.array([-1.0, 1.0])
    for design in [CompletelyRandomizedDesign(8, [3, 5]), BernoulliDesign(6, [0.5, 0.5])]:
        w = np.repeat(c, design.n)
        for _ in range(5):
            y = rng.standard_normal(design.n * design.k)
            table, moments, estimates = ht_support_estimates(design, y)
            values = estimates @ c
            mean = float(table.probabilities @ values)
            empirical = float(table.probabilities @ values**2) - mean**2
            zc = w * y
            assert empirical == pytest.approx(
                float(zc @ moments.D @ zc) / design.n**2, abs=1e-10
            )
    announce(3, "support variance of the contrast equals the quadratic form in D")


def test_criterion_04_plugin_bound_unbiasedness():
    rng = stream_rng(1003)
    cases = [
        (BernoulliDesign(4, [0.5, 0.5]), "as"),
        (BernoulliDesign(4, [0.3, 0.7]), "as"),
        (CompletelyRandomizedDesign(6, [3, 3]), "neyman"),
    ]
    for design, which in cases:
        moments = exact_moments(design)
        bound = (
            aronow_samii_bound(moments)
            if which == "as"
            else neyman_bound_crd(design.n, 3)
        )
        y = rng.standard_normal(design.n * design.k)
        ones = intercept_matrix(design.n, design.k)
        z = ones * y[:, None]  # known z held fixed across realizations
        table = design.enumerate_support()
        acc = np.zeros((design.k, design.k))
        for idx in range(len(table)):
            cells = table.realization(idx).observed_cells
            zo = z[cells]
            acc += table.probabilities[idx] * (
                zo.T @ bound.Dt_over_p[np.ix_(cells, cells)] @ zo
            )
        assert np.max(np.abs(acc - z.T @ bound.Dt @ z)) <= 1e-10

    # worked two-unit example: per-realization estimates {4,16,8,20}, mean 12
    design = BernoulliDesign(2, [0.5, 0.5])
    bound = aronow_samii_bound(exact_moments(design))
    zc = np.array([0.0, -2.0, 2.0, 4.0])
    table = design.enumerate_support()
    values = []
    for idx in range(len(table)):
        cells = table.realization(idx).observed_cells
        vs = zc[cells]
        values.append(float(vs @ bound.Dt_over_p[np.ix_(cells, cells)] @ vs) / 4)
    assert sorted(values) == pytest.approx([4.0, 8.0, 16.0, 20.0], abs=1e-12)
    assert np.mean(values) == pytest.approx(12.0, abs=1e-12)
    announce(4, "plug-in bound estimator unbiased; worked example reproduces mean 12")


def _builtin_designs_kn_16():
    path = InterferenceGraph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)])
    return [
        CompletelyRandomizedDesign(8, [3, 5]),
        CompletelyRandomizedDesign(6, [3, 3]),
        BernoulliDesign(5, [0.4, 0.6]),
        BernoulliDesign(4, [0.25, 0.25, 0.25, 0.25]),
        StratifiedDesign(6, [[0, 1, 2], [3, 4, 5]], [[1, 2], [2, 1]]),
        ClusteredDesign(8, [0, 0, 1, 1, 2, 2, 3, 3], CompletelyRandomizedDesign(4, [2, 2])),
        derive_exposure_design(
            BernoulliDesign(4, [0.5, 0.5]), path, standard_binary_exposure_rules()
        ),
    ]


def test_criterion_05_bound_certification():
    for design in _builtin_designs_kn_16():
        moments = exact_moments(design)
        assert moments.kn <= 16
        cert = certify_bound(moments, aronow_samii_bound(moments))
        assert cert.min_eigenvalue_bound >= -1e-8, design.kind
        assert cert.identified_ok, design.kind

    for n in (6, 8):
        moments = exact_moments(CompletelyRandomizedDesign(n, [n // 2, n // 2]))
        cert = certify_bound(
            moments,
            neyman_bound_crd(n, n // 2),
            compare=aronow_samii_bound(moments),
        )
        expected = np.sort(
            np.concatenate([np.zeros(n + 1), np.full(n - 1, 2.0 / (n - 1))])
        )
        assert np.max(np.abs(cert.comparison_spectrum_projected - expected)) <= 1e-8
        raw_expected = np.sort(
            np.concatenate([[-2.0], np.zeros(n), np.full(n - 1, 2.0 / (n - 1))])
        )
        assert np.max(np.abs(cert.comparison_spectrum - raw_expected)) <= 1e-8
    announce(5, "general bound certified on kn<=16 designs; two-bound spectra match")


def test_criterion_06_algebraic_equivalences():
    rng = stream_rng(1004)
    c = np.array([-1.0, 1.0])
    checked = 0
    while checked < 100:
        n = int(rng.integers(6, 11))
        n_t = int(rng.integers(2, n - 1))
        design = CompletelyRandomizedDesign(n, [n_t, n - n_t])
        moments = exact_moments(design)
        X = centered(rng.standard_normal((n, int(rng.integers(1, 3)))))
        y_full = rng.standard_normal(2 * n)
        realization = design.sample(stream_rng(2000 + checked))
        data = ExperimentData.from_full(y_full, realization, X, moments)
        wls = estimate_linear("wls", data, m_weights="invpi")
        gr = estimate_linear("gr", data, m_weights="invpi")
        assert np.max(np.abs(wls.mu_hat - gr.mu_hat)) <= 1e-10

        model = ImputationModel("linear", 2, X.shape[1])
        theta = fit_qmle(model, data, omega="pi")
        report = qmle_gr(theta, model, data, c)
        gr_id = estimate_linear("gr", data, m_weights="identity")
        assert abs(report.contrast_value - float(c @ gr_id.mu_hat)) <= 1e-10
        checked += 1
    announce(6, "weighted-least-squares and pseudo-likelihood equivalences on 100 instances")


def test_criterion_07_dominance_properties():
    rng = stream_rng(1005)
    c = np.array([-1.0, 1.0])
    passing = 0
    attempts = 0
    while passing < 50 and attempts < 200:
        attempts += 1
        n = int(rng.integers(6, 10))
        n_t = int(rng.integers(2, n - 1))
        design = CompletelyRandomizedDesign(n, [n_t, n - n_t])
        moments = exact_moments(design)
        X = centered(rng.standard_normal((n, 2)))
        model = ImputationModel("linear", 2, 2)
        rows = model.design_rows(X)
        y_full = rng.standard_normal(2 * n) + rows @ rng.standard_normal(4)
        f = rows @ rng.standard_normal(4)
        try:
            alpha = population_no_harm_alpha(f, y_full, moments.D, c, n)
        except WeakIdentificationError:
            continue
        var_nh = theoretical_asy_variance(alpha * f, y_full, moments.D, c, n)
        var_ht = theoretical_asy_variance(np.zeros(2 * n), y_full, moments.D, c, n)
        assert var_nh <= var_ht + 1e-10

        beta = population_opt_gr_linear(rows, y_full, moments.D, c, n)
        best = theoretical_asy_variance(rows @ beta, y_full, moments.D, c, n)
        others = rng.standard_normal((1000, 4))
        for other in others:
            assert best <= theoretical_asy_variance(rows @ other, y_full, moments.D, c, n) + 1e-10
        w = moments.pi
        b_wls = np.linalg.pinv(rows.T @ (rows * w[:, None])) @ (rows.T @ (w * y_full))
        assert best <= theoretical_asy_variance(rows @ b_wls, y_full, moments.D, c, n) + 1e-10
        passing += 1
    assert passing == 50
    announce(7, "rescaled and variance-minimizing fits dominate on 50 instances")


def test_criterion_08_tensor_bound():
    rng = stream_rng(1006)
    for trial in range(200):
        dim = int(rng.integers(2, 5))
        tensor = rng.standard_normal((dim,) * 4)
        oracle = tensor_sigma_max_oracle(tensor, restarts=12, iters=80, seed=trial)
        assert oracle <= tensor_slice_norm_bound(tensor) + 1e-9
    # single-entry tensors: both sides equal the absolute entry exactly
    for value in (5.0, -3.0):
        tensor = np.zeros((3,) * 4)
        tensor[1, 2, 0, 1] = value
        assert tensor_slice_norm_bound(tensor) == abs(value)
        assert tensor_sigma_max_oracle(tensor, restarts=10) == abs(value)
    announce(8, "multilinear oracle bounded by slice sums on 200 tensors; equality exact")


def test_criterion_09_gradient_correctness():
    from scipy.special import expit

    rng = stream_rng(1007)
    h = 1e-5
    for seed in range(20):
        n = int(rng.integers(5, 9))
        design = BernoulliDesign(n, [0.4, 0.6])
        moments = exact_moments(design)
        X = centered(rng.standard_normal((n, 2)))
        model = ImputationModel("logistic", 2, 2)
        probs = model.predict(rng.standard_normal(model.s), X)
        y_full = (rng.uniform(size=2 * n) < probs).astype(float)
        realization = design.sample(stream_rng(3000 + seed))
        data = ExperimentData.from_full(y_full, realization, X, moments)

        # inverse-probability weighted logistic pseudo-likelihood gradient
        cells = data.observed_cells
        rows = model.design_rows(X)[cells]
        w = 1.0 / moments.pi[cells]
        theta = rng.standard_normal(model.s) * 0.5

        def loss(th):
            eta = rows @ th
            return -float(np.sum(w * (data.y_obs * eta - np.logaddexp(0.0, eta))))

        analytic = -(rows.T @ (w * (data.y_obs - expit(rows @ theta))))
        fd = np.array(
            [(loss(theta + h * e) - loss(theta - h * e)) / (2 * h) for e in np.eye(model.s)]
        )
        scale = np.maximum(np.abs(fd), 1e-6)
        assert np.max(np.abs(analytic - fd) / scale) <= 1e-4

        # variance-criterion moment vector Jacobian
        c = np.array([-1.0, 1.0])
        jac = moment_jacobian(theta, model, data, moments.D, c)
        fd_jac = np.zeros_like(jac)
        for j, e in enumerate(np.eye(model.s)):
            gp = moment_vector(theta + h * e, model, data, moments.D, c)
            gm = moment_vector(theta - h * e, model, data, moments.D, c)
            fd_jac[:, j] = (gp - gm) / (2 * h)
        scale = max(np.abs(fd_jac).max(), 1e-6)
        assert np.abs(jac - fd_jac).max() / scale <= 1e-4
    announce(9, "analytic gradients match central differences on 20 instances")


def _ring_chord_graph(n):
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append(((i + 1) % n, i))
        j = (i + n // 2) % n
        edges.append((i, j))
        edges.append((j, i))
    return InterferenceGraph(n, edges)


def test_criterion_10_desk_scale_simulation_reproduction():
    start = time.time()
    n = 500
    graph = _ring_chord_graph(n)  # 3-regular, no isolated nodes
    base = BernoulliDesign(n, [0.5, 0.5])
    design = derive_exposure_design(base, graph, standard_binary_exposure_rules())
    moments = mc_moments(design, reps=150_000, seed=2026)

    rng = stream_rng(314)
    X = preprocess_covariates(rng.standard_normal((n, 3)))
    y_full = impute_potential_outcomes(
        X, [0.8, 0.6, -0.5], [1.0, -1.5, 0.2, -0.5], seed=7
    )
    labels = design.rules.labels
    contrast = np.zeros(4)
    contrast[labels.index("d10")] = 1.0
    contrast[labels.index("d00")] = -1.0

    cfg = SimConfig(
        design=design,
        y_full=y_full,
        X=X,
        estimators=["ht", "qmle_logit"],
        contrast=contrast,
        replications=2000,
        seed=99,
        moments=moments,
    )
    table = run_simulation(cfg)
    ht = table.metrics["ht"]
    logit = table.metrics["qmle_logit"]

    # (a) nominal 95% interval coverage for the unadjusted estimator
    assert 0.93 <= ht["coverage"] <= 0.99, ht["coverage"]
    # (b) the fitted-model adjustment does not increase the variance
    assert logit["variance_times_n"] <= ht["variance_times_n"]
    # (c) the mean estimated bound is no smaller than the realized variance
    # minus Monte-Carlo noise (3 standard errors of the variance estimate)
    for row in (ht, logit):
        reps = cfg.replications
        var_tn = row["variance_times_n"]
        # normal-approximation SE of a sample variance: var * sqrt(2/(R-1))
        se_var = var_tn * np.sqrt(2.0 / (reps - 1))
        assert row["mean_bound_times_n"] >= var_tn - 3 * se_var
    elapsed = time.time() - start
    assert elapsed < 600.0
    announce(
        10,
        f"network simulation: coverage={ht['coverage']:.3f}, variance ordering and "
        f"bound conservativeness hold ({elapsed:.0f}s)",
    )


def test_criterion_11_complexity_measures():
    for n in (1, 2, 3, 6, 12):
        moments = exact_moments(BernoulliDesign(n, [0.5, 0.5]))
        assert design_complexity(moments) == pytest.approx(2.0, abs=1e-8)
    crd2 = exact_moments(CompletelyRandomizedDesign(2, [1, 1]))
    assert largest_eigenvalue(crd2.D) == pytest.approx(4.0, abs=1e-8)

    # degree-0 unit: impossible exposures force an infinite measure
    graph = InterferenceGraph(3, [(0, 1), (1, 0)])
    design = derive_exposure_design(
        BernoulliDesign(3, [0.5, 0.5]), graph, standard_binary_exposure_rules()
    )
    moments = mc_moments(design, reps=2000, seed=5)
    assert design_complexity(moments) == np.inf
    announce(11, "spectral measures: 2.0 (independent), 4.0 (two-point), inf (impossible)")


def test_criterion_12_determinism_across_worker_counts(tmp_path):
    config = tmp_path / "sim.yaml"
    config.write_text(
        "design:\n"
        "  kind: completely_randomized\n"
        "  n: 10\n"
        "  counts: [5, 5]\n"
        "covariates:\n"
        "  generate: {p: 2, seed: 11}\n"
        "outcome:\n"
        "  coeffs: [0.7, -0.4]\n"
        "  intercepts: [-0.2, 0.6]\n"
        "  seed: 12\n"
        "estimators: [ht, hajek, wls]\n"
        "contrast: [-1, 1]\n"
        "replications: 150\n"
        "seed: 2718\n"
    )
    from designest.cli import main

    outputs = []
    for workers in (1, 2, 3):
        out = tmp_path / f"metrics_w{workers}.csv"
        code = main(
            ["simulate", "--config", str(config), "--out", str(out), "--workers", str(workers)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    announce(12, "identical seeds give byte-identical outputs for 1, 2, and 3 workers")
