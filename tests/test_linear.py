import numpy as np
import pytest

from designest import linear
from designest.bounds import aronow_samii_bound, neyman_bound_crd
from designest.designs import (
    AssignmentRealization,
    BernoulliDesign,
    CompletelyRandomizedDesign,
    stream_rng,
)
from designest.linear import (
    LINEAR_KINDS,
    ExperimentData,
    HajekUndefinedError,
    ReplicationChunk,
    check_covariates,
    check_interpretation,
    estimate_linear,
    estimate_report,
    intercept_matrix,
    linear_sample,
    load_covariates_csv,
    m_weight_vector,
    load_observed_csv,
    model_matrix,
    normal_ci,
    plugin_bounds,
    plugin_raw,
    plugin_report,
    plugin_varbound,
    z_vector,
)
from designest.moments import exact_moments


def make_data(design, y_full, X=None, realization=None, seed=0):
    moments = exact_moments(design)
    if realization is None:
        realization = design.sample(stream_rng(seed))
    if X is None:
        X = np.zeros((design.n, 0))
    return ExperimentData.from_full(np.asarray(y_full, float), realization, X, moments)


def population_z(kind, data, y_full):
    """The population linearization: the estimator's body on the population
    chunk of data's covariates and moments and the full outcomes y_full."""
    fit = linear_sample(kind, ReplicationChunk.population(data.X, y_full, data.moments))
    if fit.errors:
        raise fit.errors[0]
    return fit.z[0]


def centered(X):
    X = np.asarray(X, dtype=float)
    return X - X.mean(axis=0)


class TestHorvitzThompson:
    def test_two_point_design_worked_example(self):
        design = CompletelyRandomizedDesign(2, [1, 1])
        y_full = np.array([0.0, 2.0, 2.0, 4.0])  # arm-major: y1=(0,2), y2=(2,4)
        table = design.enumerate_support()
        estimates = []
        for idx in range(len(table)):
            data = make_data(design, y_full, realization=table.realization(idx))
            estimates.append(estimate_linear("ht", data).mu_hat)
        estimates = {tuple(np.round(e, 12)) for e in estimates}
        assert (2.0, 2.0) in estimates  # unit1 -> arm2, unit2 -> arm1
        assert (0.0, 4.0) in estimates
        mean = np.mean(
            [
                table.probabilities[i]
                * estimate_linear(
                    "ht", make_data(design, y_full, realization=table.realization(i))
                ).mu_hat
                for i in range(len(table))
            ],
            axis=0,
        ) * len(table)
        assert np.allclose(mean, [1.0, 3.0], atol=1e-12)

    def test_exact_unbiasedness_over_support(self):
        rng = stream_rng(5)
        for design in [CompletelyRandomizedDesign(5, [2, 3]), BernoulliDesign(4, [0.3, 0.7])]:
            table = design.enumerate_support()
            truth_rows = rng.standard_normal(design.n * design.k)
            acc = np.zeros(design.k)
            for idx in range(len(table)):
                data = make_data(design, truth_rows, realization=table.realization(idx))
                acc += table.probabilities[idx] * estimate_linear("ht", data).mu_hat
            expected = intercept_matrix(design.n, design.k).T @ truth_rows / design.n
            assert np.allclose(acc, expected, atol=1e-12)


class TestHajek:
    def test_equal_probabilities_give_arm_means(self):
        design = CompletelyRandomizedDesign(6, [3, 3])
        rng = stream_rng(8)
        y_full = rng.standard_normal(12)
        data = make_data(design, y_full, seed=3)
        fit = estimate_linear("hajek", data)
        arms = data.assignment.arm_of
        for a in range(2):
            assert fit.mu_hat[a] == pytest.approx(data.y_obs[arms == a].mean())

    def test_empty_arm_raises(self):
        design = BernoulliDesign(3, [0.5, 0.5])
        moments = exact_moments(design)
        from designest.designs import AssignmentRealization

        realization = AssignmentRealization(3, 2, [0, 0, 0])
        data = ExperimentData(
            n=3, k=2, y_obs=np.ones(3), assignment=realization, X=np.zeros((3, 0)), moments=moments
        )
        with pytest.raises(HajekUndefinedError):
            estimate_linear("hajek", data)


class TestRegressionFamily:
    def test_wls_equals_ci_under_centering(self):
        # Lemma: the WLS coefficients are the completely imputed estimates
        design = CompletelyRandomizedDesign(6, [3, 3])
        rng = stream_rng(9)
        X = centered(rng.standard_normal((6, 2)))
        y_full = rng.standard_normal(12)
        data = make_data(design, y_full, X=X, seed=4)
        wls = estimate_linear("wls", data)
        ci = estimate_linear("ci", data)
        assert np.allclose(wls.mu_hat, ci.mu_hat, atol=1e-10)

    def test_wls_invpi_equals_gr_every_realization(self):
        # inverse-probability weights put pi^-1 1 in col(x): algebraic identity
        rng = stream_rng(10)
        design = BernoulliDesign(5, [0.3, 0.7])
        table = design.enumerate_support()
        X = centered(rng.standard_normal((5, 2)))
        y_full = rng.standard_normal(10)
        checked = 0
        for idx in range(len(table)):
            realization = table.realization(idx)
            if len(np.unique(realization.arm_of)) < 2:
                continue  # a missing arm degrades both fits to a pseudoinverse
            data = make_data(design, y_full, X=X, realization=realization)
            wls = estimate_linear("wls", data, m_weights="invpi")
            gr = estimate_linear("gr", data, m_weights="invpi")
            assert np.allclose(wls.mu_hat, gr.mu_hat, atol=1e-10)
            checked += 1
        assert checked > 10

    def test_mi_equals_gr_under_its_column_space_condition(self):
        # with m = pi^-1 - 1 the missing-imputed target is -1 times the
        # intercept columns, so the missing-imputed estimator is
        # algebraically a generalized regression estimator per realization
        design = BernoulliDesign(5, [0.3, 0.7])
        moments = exact_moments(design)
        rng = stream_rng(30)
        X = centered(rng.standard_normal((5, 2)))
        y_full = rng.standard_normal(10)
        m = 1.0 / moments.pi - 1.0
        table = design.enumerate_support()
        checked = 0
        for idx in range(len(table)):
            realization = table.realization(idx)
            if len(np.unique(realization.arm_of)) < 2:
                continue
            data = ExperimentData.from_full(y_full, realization, X, moments)
            mi = estimate_linear("mi", data, m_weights=m)
            gr = estimate_linear("gr", data, m_weights=m)
            assert np.allclose(mi.mu_hat, gr.mu_hat, atol=1e-10)
            checked += 1
        assert checked > 10

    def test_ols_forces_identity_weights(self):
        design = CompletelyRandomizedDesign(4, [2, 2])
        rng = stream_rng(11)
        data = make_data(design, rng.standard_normal(8), X=centered(rng.standard_normal((4, 1))))
        ols = estimate_linear("ols", data)
        wls_id = estimate_linear("wls", data, m_weights="identity")
        assert np.allclose(ols.mu_hat, wls_id.mu_hat, atol=1e-12)

    def test_mi_matches_dense_formula(self):
        design = CompletelyRandomizedDesign(5, [2, 3])
        rng = stream_rng(12)
        X = centered(rng.standard_normal((5, 2)))
        y_full = rng.standard_normal(10)
        data = make_data(design, y_full, X=X, seed=6)
        fit = estimate_linear("mi", data)
        x = model_matrix(data.X, data.k)
        r = np.zeros(10)
        r[data.observed_cells] = 1.0
        dense = intercept_matrix(5, 2).T @ (
            r * data.chunk.y[0] + (1 - r) * (x @ fit.b_hat)
        ) / 5
        assert np.allclose(fit.mu_hat, dense, atol=1e-12)

    def test_rank_deficiency_flagged(self):
        design = CompletelyRandomizedDesign(4, [2, 2])
        rng = stream_rng(13)
        base = centered(rng.standard_normal((4, 1)))
        X = np.hstack([base, base])  # duplicated column
        data = make_data(design, rng.standard_normal(8), X=X)
        with pytest.warns(RuntimeWarning):
            fit = estimate_linear("wls", data)
        assert fit.rank_deficient

    @staticmethod
    def _chunk(X, seed=14):
        design = CompletelyRandomizedDesign(7, [3, 4])  # unequal pi: the weightings differ
        rng = stream_rng(seed)
        moments = exact_moments(design)
        arms = design.sample_batch(rng, 5)
        y_obs = rng.standard_normal((5, 7))
        return lambda: ReplicationChunk(arms, y_obs, X, moments, range(5))

    def test_regression_rows_share_one_fit_per_weighting(self, monkeypatch):
        chunk_of = self._chunk(centered(stream_rng(15).standard_normal((7, 2))))
        fresh = {
            (kind, w): linear_sample(kind, chunk_of(), w)
            for kind, w in [(kind, None) for kind in ("wls", "ci", "mi", "gr", "ols")]
            + [("wls", "identity"), ("gr", "invpi")]
        }
        calls = []
        pinv = linear._pinv_flagged
        monkeypatch.setattr(linear, "_pinv_flagged", lambda A: calls.append(A) or pinv(A))
        chunk = chunk_of()
        for kind in ("wls", "ci", "mi", "gr"):
            fit = linear_sample(kind, chunk)
            assert fit.mu.tobytes() == fresh[kind, None].mu.tobytes()
            assert fit.z.tobytes() == fresh[kind, None].z.tobytes()
            fit.mu[:], fit.z[:] = np.nan, np.nan  # the caller's arrays, not the chunk's
        assert len(calls) == 1
        for (kind, w), expected in fresh.items():  # ols and named weights reuse their own fit
            fit = linear_sample(kind, chunk, w)
            assert fit.mu.tobytes() == expected.mu.tobytes()
            assert fit.z.tobytes() == expected.z.tobytes()
        assert len(calls) == 2
        custom = 0.5 + stream_rng(16).random(14)
        for _ in range(2):  # a custom weight vector is fitted afresh
            assert linear_sample("wls", chunk, custom).mu.tobytes() == (
                linear_sample("wls", chunk_of(), custom).mu.tobytes()
            )
        assert len(calls) == 6

    def test_every_row_on_a_shared_rank_deficient_fit_warns(self):
        base = centered(stream_rng(17).standard_normal((7, 1)))
        chunk = self._chunk(np.hstack([base, base]))()
        for kind in ("wls", "ci", "mi", "gr"):
            with pytest.warns(RuntimeWarning, match="rank-deficient"):
                fit = linear_sample(kind, chunk)
            assert all(d["rank_deficient"] for d in fit.diagnostics)

    def test_rejects_uncentered_covariates(self):
        design = CompletelyRandomizedDesign(4, [2, 2])
        with pytest.raises(ValueError):
            make_data(design, np.zeros(8), X=np.ones((4, 1)))


# contrast value and sample plug-in bound (aronow_samii, c = (-1, 1)) of each
# linear kind on one fixed 5/7 CRD realization with two centred covariates
PINNED_REPORTS = {
    "ht": (1.013285182037286, 0.20884297476580652),
    "hajek": (1.0132851820372852, 0.12328073642111269),
    "ols": (1.0069978545964753, 0.05949183307575309),
    "wls": (1.0443864690714408, 0.0557048778262461),
    "ci": (1.0443864690714408, 0.0557048778262461),
    "mi": (1.0443864690714408, 0.04979151952835409),
    "gr": (1.0443864690714406, 0.04599900435110028),
}


@pytest.mark.parametrize("kind", LINEAR_KINDS)
def test_linear_report_pinned(kind):
    n = 12
    i = np.arange(n)
    X = centered(np.column_stack([np.sin(i), np.cos(2.0 * i) + 0.1 * i]))
    y_full = np.concatenate(
        [0.5 * X[:, 0] - X[:, 1] + 0.3 * np.sin(3.0 * i), 1.0 + X[:, 0] + 0.2 * np.cos(5.0 * i)]
    )
    arms = AssignmentRealization(n, 2, [0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1, 0])
    data = make_data(CompletelyRandomizedDesign(n, [5, 7]), y_full, X=X, realization=arms)
    report = estimate_report(kind, data, aronow_samii_bound(data.moments), [-1.0, 1.0])
    value, bound = PINNED_REPORTS[kind]
    assert report.contrast_value == pytest.approx(value, rel=1e-12)
    assert report.varbound_raw == pytest.approx(bound, rel=1e-12)


@pytest.mark.parametrize("kind", ["wls", "gr"])
@pytest.mark.parametrize("weights", ["identity", "custom"])
def test_estimate_report_forwards_m_weights(kind, weights):
    design = CompletelyRandomizedDesign(8, [3, 5])
    X = centered(stream_rng(21).standard_normal((8, 2)))
    data = make_data(design, stream_rng(22).standard_normal(16), X=X, seed=23)
    bound, c = aronow_samii_bound(data.moments), np.array([-1.0, 1.0])
    m = "identity" if weights == "identity" else 0.5 + stream_rng(24).random(16)
    fit = estimate_linear(kind, data, m_weights=m)
    diagnostics = {"rank_deficient": fit.rank_deficient, "condition_number": fit.condition_number}
    plugin = plugin_varbound(fit.z_hat, data.assignment, bound, c)
    expected = plugin_report(kind, fit.mu_hat, plugin, data.n, data.moments, c, diagnostics)
    report = estimate_report(kind, data, bound, c, m_weights=m)
    assert report.to_dict() == expected.to_dict()
    # the weights reach the fit: the default inverse-probability weights differ
    assert report.to_dict() != estimate_report(kind, data, bound, c).to_dict()


class TestObservedExperimentShapes:
    def test_outcomes_must_be_one_per_unit(self):
        design = CompletelyRandomizedDesign(6, [3, 3])
        moments, realization = exact_moments(design), design.sample(stream_rng(1))
        X = np.zeros((6, 0))
        for y_obs in (np.ones(1), 1.0, np.ones(7)):
            with pytest.raises(ValueError, match="y_obs"):
                ExperimentData(6, 2, y_obs, realization, X, moments)
        with pytest.raises(ValueError, match="y_obs"):
            ReplicationChunk(realization.arm_of[None], np.ones((1, 1)), X, moments)
        with pytest.raises(ValueError, match="arm_of"):
            ReplicationChunk(realization.arm_of, np.ones(6), X, moments)
        with pytest.raises(ValueError, match="arm indices"):
            ReplicationChunk(np.full((1, 6), 2), np.ones((1, 6)), X, moments)

    def test_full_outcomes_must_be_one_per_cell(self):
        # a short vector used to fail as an IndexError while indexing it
        design = CompletelyRandomizedDesign(6, [3, 3])
        moments, realization = exact_moments(design), design.sample(stream_rng(1))
        for y_full in (np.ones(11), np.ones(13), np.ones((2, 6)), 1.0):
            with pytest.raises(ValueError, match="stacked kn vector"):
                ExperimentData.from_full(y_full, realization, np.zeros((6, 0)), moments)

    def test_covariates_must_be_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                check_covariates(np.array([[bad], [0.0]]), 2)


class TestZVectors:
    def test_ht_zero_outcomes(self):
        design = CompletelyRandomizedDesign(4, [2, 2])
        data = make_data(design, np.zeros(8))
        assert np.allclose(population_z("ht", data, np.zeros(8)), 0.0)

    def test_hajek_constant_outcomes_per_arm(self):
        design = CompletelyRandomizedDesign(4, [2, 2])
        y_full = np.concatenate([np.full(4, 3.0), np.full(4, -1.0)])
        data = make_data(design, y_full)
        assert np.allclose(population_z("hajek", data, y_full), 0.0, atol=1e-12)

    def test_gr_perfectly_linear_outcomes(self):
        design = CompletelyRandomizedDesign(6, [3, 3])
        rng = stream_rng(14)
        X = centered(rng.standard_normal((6, 2)))
        x = np.hstack([intercept_matrix(6, 2), np.tile(X, (2, 1))])
        b = rng.standard_normal(4)
        y_full = x @ b
        data = make_data(design, y_full, X=X)
        assert np.allclose(population_z("gr", data, y_full), 0.0, atol=1e-10)

    def test_variance_identity_ht(self):
        # empirical variance over the support equals the quadratic form in D
        design = CompletelyRandomizedDesign(5, [2, 3])
        rng = stream_rng(15)
        y_full = rng.standard_normal(10)
        moments = exact_moments(design)
        table = design.enumerate_support()
        c = np.array([-1.0, 1.0])
        values = []
        for idx in range(len(table)):
            data = make_data(design, y_full, realization=table.realization(idx))
            values.append(c @ estimate_linear("ht", data).mu_hat)
        values = np.array(values)
        empirical = float(np.sum(table.probabilities * values**2) - np.sum(table.probabilities * values) ** 2)
        data = make_data(design, y_full)
        zc = population_z("ht", data, y_full) @ c
        assert empirical == pytest.approx(zc @ moments.D @ zc / design.n**2, abs=1e-10)


class TestSampleZ:
    @pytest.mark.parametrize("kind", LINEAR_KINDS)
    def test_z_vector_is_the_sample_fits_linearization(self, kind):
        design = CompletelyRandomizedDesign(8, [3, 5])
        X = centered(stream_rng(17).standard_normal((8, 2)))
        data = make_data(design, stream_rng(18).standard_normal(16), X=X, seed=19)
        z = z_vector(kind, data)
        assert z.shape == (16, 2)
        assert np.array_equal(z, linear_sample(kind, data.chunk).z[0])
        if kind == "ht":  # the observed outcomes at the observed cells, zero elsewhere
            expected = np.zeros(16)
            expected[data.observed_cells] = data.y_obs
            assert np.array_equal(z.sum(axis=1), expected)


class TestPluginVariance:
    def test_worked_bernoulli_example(self):
        # two units, two arms, Dt = 2I: enumeration gives {4,16,8,20}/n^2
        design = BernoulliDesign(2, [0.5, 0.5])
        moments = exact_moments(design)
        bound = aronow_samii_bound(moments)
        zc = np.array([0.0, -2.0, 2.0, 4.0])
        table = design.enumerate_support()
        values = []
        for idx in range(len(table)):
            realization = table.realization(idx)
            est = plugin_varbound(zc, realization, bound)
            values.append(est.raw)
        assert sorted(values) == pytest.approx([4.0, 8.0, 16.0, 20.0])
        mean_raw = float(np.mean(values))
        assert mean_raw == pytest.approx(zc @ (2 * np.eye(4)) @ zc / 4)
        assert mean_raw == pytest.approx(12.0)

    def test_zero_z_gives_zero(self):
        design = BernoulliDesign(2, [0.5, 0.5])
        bound = aronow_samii_bound(exact_moments(design))
        realization = design.sample(stream_rng(2))
        est = plugin_varbound(np.zeros((4, 2)), realization, bound, np.array([1.0, -1.0]))
        assert est.raw == 0.0

    def test_known_z_unbiased_for_neyman_on_crd(self):
        design = CompletelyRandomizedDesign(4, [2, 2])
        moments = exact_moments(design)
        bound = neyman_bound_crd(4, 2)
        rng = stream_rng(16)
        y_full = rng.standard_normal(8)
        c = np.array([-1.0, 1.0])
        data = make_data(design, y_full)
        z = population_z("ht", data, y_full)
        table = design.enumerate_support()
        acc = 0.0
        for idx in range(len(table)):
            est = plugin_varbound(z, table.realization(idx), bound, c)
            acc += table.probabilities[idx] * est.raw
        zc = z @ c
        assert acc == pytest.approx(zc @ bound.Dt @ zc / 16, abs=1e-10)

    def test_batched_rows_equal_the_gathered_quadratic_form(self, monkeypatch):
        design = BernoulliDesign(9, [0.3, 0.5, 0.2])
        bound = aronow_samii_bound(exact_moments(design))
        rng = stream_rng(17)
        v = rng.standard_normal((12, 3, 27))  # three estimators on twelve rows
        arms = design.sample_batch(rng, 12)
        cells = arms * 9 + np.arange(9)
        batch = plugin_raw(v, cells, bound.Dt_over_p)
        assert batch.shape == (12, 3)
        for b in range(12):
            realization = AssignmentRealization(9, 3, arms[b])
            for e in range(3):
                vs = v[b, e, cells[b]]
                reference = float(vs @ bound.Dt_over_p[np.ix_(cells[b], cells[b])] @ vs) / 81
                assert batch[b, e] == reference
                assert plugin_varbound(v[b, e], realization, bound).raw == reference
        # gathering the bound in blocks of a few rows changes nothing
        monkeypatch.setattr("designest.linear.PLUGIN_BLOCK_ENTRIES", 3 * 81)
        assert plugin_raw(v, cells, bound.Dt_over_p).tobytes() == batch.tobytes()

    def test_a_block_bound_is_read_in_place_bitwise_as_gathered(self):
        design = BernoulliDesign(9, [0.3, 0.5, 0.2])
        moments = exact_moments(design)
        rng = stream_rng(19)
        v = rng.standard_normal((1, 3, 27))  # three estimators on one row
        cells = design.sample_batch(rng, 1) * 9 + np.arange(9)
        block = aronow_samii_bound(moments, cells=cells[0])
        gathered = plugin_raw(v, cells, aronow_samii_bound(moments).Dt_over_p)
        assert plugin_bounds(v, cells, block).tobytes() == gathered.tobytes()
        at_cells = np.take_along_axis(v, cells[:, None], axis=-1)
        assert plugin_raw(at_cells, None, block.Dt_over_p).tobytes() == gathered.tobytes()

    def test_a_block_bound_of_other_cells_is_refused(self):
        design = BernoulliDesign(3, [0.5, 0.5])
        moments = exact_moments(design)
        v = stream_rng(18).standard_normal((2, 1, 6))
        cells = np.array([[0, 1, 2], [3, 4, 2]])
        block = aronow_samii_bound(moments, cells=cells[0])
        full = plugin_bounds(v[:1], cells[:1], aronow_samii_bound(moments))
        assert plugin_bounds(v[:1], cells[:1], block).tobytes() == full.tobytes()
        with pytest.raises(ValueError, match="the bound's block is not the observed cells' block"):
            plugin_bounds(v[1:], cells[1:], block)
        with pytest.raises(ValueError, match="the bound's block is not the observed cells' block"):
            plugin_bounds(v, cells, block)  # a block serves one row only

    def test_contrast_length_checked(self):
        design = BernoulliDesign(2, [0.5, 0.5])
        bound = aronow_samii_bound(exact_moments(design))
        realization = design.sample(stream_rng(3))
        with pytest.raises(ValueError):
            plugin_varbound(np.zeros((4, 2)), realization, bound, np.array([1.0, 0.0, -1.0]))


class TestNormalCI:
    def test_degenerate(self):
        assert normal_ci(0.0, 0.0, 10) == (0.0, 0.0)

    def test_unit_variance(self):
        lo, hi = normal_ci(2.0, 1.0, 1, level=0.95)
        assert lo == pytest.approx(0.040036, abs=1e-5)
        assert hi == pytest.approx(3.959964, abs=1e-5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normal_ci(0.0, -1.0, 10)


@pytest.mark.parametrize("weights", [None, "inverse_probability"])
def test_m_weight_vector_takes_one_name_per_weighting(weights):
    # None used to mean identity weights here and inverse probabilities in the
    # estimators, and "inverse_probability" was a second name for "invpi"
    with pytest.raises(ValueError):
        m_weight_vector(np.array([0.5, 0.5, 0.5, 0.5]), weights)


class TestInterpretation:
    def test_inverse_probability_weights_pass(self):
        design = BernoulliDesign(4, [0.3, 0.7])
        rng = stream_rng(17)
        data = make_data(design, rng.standard_normal(8), X=centered(rng.standard_normal((4, 1))))
        report = check_interpretation(data, m_weights="invpi")
        assert report.ci_condition_ok

    def test_identity_equal_probabilities_pass(self):
        design = CompletelyRandomizedDesign(4, [2, 2])
        rng = stream_rng(18)
        data = make_data(design, rng.standard_normal(8), X=centered(rng.standard_normal((4, 1))))
        report = check_interpretation(data, m_weights="identity")
        assert report.ci_condition_ok

    def test_identity_unequal_probabilities_fail(self):
        # unequal assignment probabilities across units via stratification
        from designest.designs import StratifiedDesign

        design = StratifiedDesign(5, [[0, 1], [2, 3, 4]], [[1, 1], [1, 2]])
        rng = stream_rng(19)
        data = make_data(design, rng.standard_normal(10), X=centered(rng.standard_normal((5, 1))))
        report = check_interpretation(data, m_weights="identity")
        assert not report.ci_condition_ok

    def test_default_weights_are_the_estimators_inverse_probabilities(self):
        # the default used to be identity weights, unlike every regression estimator's
        from designest.designs import StratifiedDesign

        design = StratifiedDesign(5, [[0, 1], [2, 3, 4]], [[1, 1], [1, 2]])  # unequal pi
        rng = stream_rng(19)
        data = make_data(design, rng.standard_normal(10), X=centered(rng.standard_normal((5, 1))))
        report = check_interpretation(data)
        assert report == check_interpretation(data, m_weights="invpi")
        assert report != check_interpretation(data, m_weights="identity")

    def test_mi_condition_with_tailored_weights(self):
        # m = (i - pi^-1) makes the missing-imputed target the plain
        # intercept columns, which always lie in col(x)
        design = BernoulliDesign(4, [0.3, 0.7])
        moments = exact_moments(design)
        rng = stream_rng(20)
        realization = design.sample(stream_rng(1))
        data = ExperimentData.from_full(
            rng.standard_normal(8), realization, np.zeros((4, 0)), moments
        )
        m = 1.0 / moments.pi - 1.0
        report = check_interpretation(data, m_weights=m)
        assert report.mi_condition_ok


class TestReportsAndIO:
    def test_estimate_report_roundtrip(self, tmp_path):
        design = CompletelyRandomizedDesign(6, [3, 3])
        rng = stream_rng(21)
        y_full = rng.standard_normal(12)
        data = make_data(design, y_full, seed=7)
        bound = neyman_bound_crd(6, 3)
        report = estimate_report("ht", data, bound, [-1.0, 1.0])
        assert report.ci_low <= report.contrast_value <= report.ci_high
        text = report.to_json(tmp_path / "report.json")
        assert "varbound_times_n" in text
        assert report.varbound_times_n == pytest.approx(report.varbound_raw * 6)

    def test_report_fields_and_interval_are_set_when_it_is_built(self):
        design = CompletelyRandomizedDesign(6, [3, 3])
        data = make_data(design, stream_rng(25).standard_normal(12), seed=8)
        c, mu = np.array([-1.0, 1.0]), estimate_linear("ht", data).mu_hat
        report = estimate_report("ht", data, aronow_samii_bound(data.moments), c)
        assert list(report.to_dict()) == [
            "estimator", "contrast", "contrast_value", "varbound_times_n", "varbound_raw",
            "ci_low", "ci_high", "level", "diagnostics",
        ]
        half = 1.959963984540054 * np.sqrt(report.varbound_times_n / 6)  # the 0.975 quantile
        assert report.level == 0.95 and report.varbound_raw > 0
        assert report.ci_low == pytest.approx(report.contrast_value - half, rel=1e-14)
        assert report.ci_high == pytest.approx(report.contrast_value + half, rel=1e-14)
        with pytest.warns(RuntimeWarning, match="negative variance-bound"):
            plugin = linear.PluginVariance.of(-0.5, 6)
        negative = plugin_report("ht", mu, plugin, 6, data.moments, c)
        missing = plugin_report("ht", mu, None, 6, data.moments, c)
        assert negative.varbound_raw == -0.5 and negative.diagnostics["negative_bound"]
        for r in (negative, missing):  # no interval without a nonnegative bound
            assert r.contrast_value == report.contrast_value
            assert np.isnan(r.ci_low) and np.isnan(r.ci_high)
        assert np.isnan(missing.varbound_raw) and np.isnan(missing.varbound_times_n)

    def test_observed_csv(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("unit_id,arm,y\n1,2,3.5\n0,1,1.0\n")
        ids, arms, y = load_observed_csv(path)
        assert ids.tolist() == [0, 1]
        assert arms.tolist() == [0, 1]
        assert y.tolist() == [1.0, 3.5]

    def test_observed_csv_rejects_a_non_finite_outcome(self, tmp_path):
        path = tmp_path / "obs.csv"
        for bad in ("nan", "inf", "-inf"):
            path.write_text(f"unit_id,arm,y\n3,2,{bad}\n0,1,1.0\n5,1,nan\n")
            with pytest.raises(ValueError, match="unit_id 3"):
                load_observed_csv(path)

    def test_covariates_csv(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("unit_id,x1,x2\n1,2.0,\n0,1.0,3.0\n")
        ids, X, names = load_covariates_csv(path)
        assert ids.tolist() == [0, 1]
        assert names == ["x1", "x2"]
        assert X.shape == (2, 2)
        assert np.isnan(X[1, 1])
        path.write_text("unit_id,x1\n1,2.0,\n\n0,1.0,3.0\n")  # header shorter than the rows
        with pytest.raises(ValueError, match=r"line 2 has too many fields \(3; the header has 2\)"):
            load_covariates_csv(path)
