import dataclasses
import functools
import multiprocessing
import os
import subprocess
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from designest import harness, linear
from designest.bounds import aronow_samii_bound, build_bound, observed_block_bound
from designest.designs import BernoulliDesign, CompletelyRandomizedDesign, stream_rng
from designest.harness import (
    ESTIMATOR_NAMES,
    ESTIMATORS,
    METRIC_COLUMNS,
    MetricsTable,
    ReplicationChunk,
    SimConfig,
    _replication_chunk,
    fine_strata,
    impute_potential_outcomes,
    population_contrast_residual,
    preprocess_covariates,
    run_simulation,
)
from designest.linear import (
    LINEAR_KINDS,
    ExperimentData,
    estimate_report,
    plugin_report,
    plugin_varbound,
)
from designest.model_assisted import (
    ImputationModel,
    WeakIdentificationError,
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
)
from designest.moments import closed_form_or_exact_moments, exact_moments, mc_moments
from designest.network import (
    InterferenceGraph,
    derive_exposure_design,
    standard_binary_exposure_rules,
)


def centered(X):
    X = np.asarray(X, dtype=float)
    return X - X.mean(axis=0)


class TestImputeOutcomes:
    def test_hopeless_intercept_gives_zeros(self):
        X = centered(stream_rng(0).standard_normal((20, 2)))
        y = impute_potential_outcomes(X, [0.5, -0.5], [-1e3, -1e3], seed=1)
        assert np.all(y == 0.0)

    def test_median_threshold_half_take_up(self):
        X = np.zeros((50_000, 1))
        y = impute_potential_outcomes(X, [0.0], [0.0], seed=2)
        assert abs(y.mean() - 0.5) < 0.01

    def test_take_up_rate_tracks_intercept(self):
        X = np.zeros((10_000, 1))
        for intercept in (-2.26, -1.0, 0.7):
            y = impute_potential_outcomes(X, [0.0], [intercept], seed=3)
            assert abs(y.mean() - expit(intercept)) < 0.02

    def test_shock_shared_across_arms(self):
        X = centered(stream_rng(4).standard_normal((100, 1)))
        y = impute_potential_outcomes(X, [1.0], [0.3, 0.3], seed=5)
        # identical intercepts and shared shocks give identical arm outcomes
        assert np.array_equal(y[:100], y[100:])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            impute_potential_outcomes(np.zeros((5, 2)), [1.0], [0.0], seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["covariates", "coeffs", "intercepts"])
    def test_non_finite_inputs_are_rejected(self, name, bad):
        # a NaN coefficient used to make every potential outcome 0
        args = {"covariates": np.zeros((5, 2)), "coeffs": [1.0, 0.5], "intercepts": [0.0, 0.5]}
        args[name] = np.array(args[name], dtype=float)
        args[name].flat[1] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            impute_potential_outcomes(**args, seed=0)


class TestPreprocess:
    def test_mean_imputation(self):
        raw = np.array([[1.0], [2.0], [3.0], [np.nan]])
        out = preprocess_covariates(raw)
        # the missing entry was set to the column mean (2.0) before scaling,
        # so it maps to the same value as the observed 2.0
        assert out[3, 0] == pytest.approx(out[1, 0])

    def test_topcode_at_five_sd(self):
        rng = stream_rng(5)
        raw = rng.standard_normal((200, 1))
        raw[0, 0] = 1000.0  # way above 5 sd after standardization
        out = preprocess_covariates(raw, topcode_columns=(0,))
        # independent mirror of the pipeline: standardize, cap at 5, center
        col = raw[:, 0].copy()
        standardized = (col - col.mean()) / col.std()
        capped = np.minimum(standardized, 5.0)
        assert capped[0] == 5.0
        expected = capped - capped.mean()
        assert np.allclose(out[:, 0], expected, atol=1e-12)
        assert out[0, 0] == out[:, 0].max()

    def test_columns_centered(self):
        rng = stream_rng(6)
        raw = rng.standard_normal((50, 3)) * 7 + 3
        out = preprocess_covariates(raw, topcode_columns=(1,))
        assert np.max(np.abs(out.mean(axis=0))) < 1e-12

    def test_constant_column_rejected(self):
        with pytest.raises(ValueError):
            preprocess_covariates(np.ones((5, 1)))

    def test_infinite_value_rejected_naming_its_column(self):
        for bad in (np.inf, -np.inf):
            raw = stream_rng(7).standard_normal((6, 2))
            raw[2, 1] = bad
            with pytest.raises(ValueError, match="column 1 has an infinite value"):
                preprocess_covariates(raw)


class TestFineStrata:
    def test_merges_small_stratum_to_lowest_indexed_candidate(self):
        # village 0 has 8 units (big strata); villages 1 and 2 have 2 each
        village_of = np.array([0] * 8 + [1] * 2 + [2] * 2)
        size = np.array([1, 1, 5, 5, 1, 1, 5, 5, 1, 5, 1, 5], dtype=float)
        area = np.array([1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5], dtype=float)
        component = np.zeros(12, dtype=int)
        groups = fine_strata(village_of, size, area, component, min_size=2)
        # all units partitioned
        assert len(groups) == 12
        counts = np.bincount(groups)
        assert counts.sum() == 12
        # village 1 and 2 singleton strata were merged away
        assert np.all(counts[counts > 0] >= 2)

    def test_component_boundary_respected(self):
        village_of = np.array([0, 0, 0, 0, 1, 2])
        size = np.array([1.0, 1, 5, 5, 1, 1])
        area = np.array([1.0, 5, 1, 5, 1, 1])
        component = np.array([0, 0, 0, 0, 0, 1])  # village 2 in its own component
        with pytest.warns(RuntimeWarning):
            groups = fine_strata(village_of, size, area, component, min_size=2)
        assert len(set(groups.tolist())) >= 2


def small_sim_config(**overrides):
    design = CompletelyRandomizedDesign(8, [4, 4])
    rng = stream_rng(7)
    X = centered(rng.standard_normal((8, 1)))
    y_full = impute_potential_outcomes(X, [1.2], [-0.3, 0.8], seed=11)
    base = dict(
        design=design,
        y_full=y_full,
        X=X,
        estimators=["ht", "hajek"],
        contrast=np.array([-1.0, 1.0]),
        replications=200,
        seed=42,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_importing_the_cli_loads_neither_scipy_stats_nor_optimize():
    # nor any other scipy module: each function that calls scipy imports it
    code = (
        "import sys, designest.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    src = str(Path(harness.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


def test_normal_critical_values_equal_scipy_stats_bytewise(monkeypatch):
    from scipy.stats import norm

    levels = np.linspace(0.0, 1.0, 2001)[1:-1]
    expected = np.array([norm.ppf(0.5 + level / 2) for level in levels])
    got = np.array([linear.normal_critical_value(level) for level in levels])
    assert got.tobytes() == expected.tobytes()
    for level, z in zip(levels[::40], expected[::40]):
        half = z * np.sqrt(3.5 / 7)
        assert np.array(linear.normal_ci(0.25, 3.5, 7, level)).tobytes() == np.array(
            [0.25 - half, 0.25 + half]
        ).tobytes()
    seen = []

    def spy(level):
        seen.append((level, linear.normal_critical_value(level)))
        return seen[-1][1]

    monkeypatch.setattr(harness, "normal_critical_value", spy)
    for level in (0.5, 0.9, 0.95, 0.999):
        run_simulation(small_sim_config(replications=2, estimators=["ht"], level=level))
    assert [level for level, _ in seen] == [0.5, 0.9, 0.95, 0.999]
    assert np.array([z for _, z in seen]).tobytes() == np.array(
        [norm.ppf(0.5 + level / 2) for level, _ in seen]
    ).tobytes()


@pytest.mark.parametrize("level", [1.5, -0.2, 0.0, 1.0, np.nan])
def test_sim_config_rejects_a_level_outside_the_unit_interval(level):
    with pytest.raises(ValueError, match="level must lie strictly between 0 and 1"):
        small_sim_config(level=level)


class TestRunSimulation:
    def test_single_replication_aggregation_is_trivial(self):
        cfg = small_sim_config(replications=1, estimators=["ht"])
        table = run_simulation(cfg)
        row = table.metrics["ht"]
        assert row["variance_times_n"] == 0.0
        assert row["mse_times_n"] == pytest.approx(row["bias2_times_n"], abs=1e-12)

    def test_mse_identity(self):
        cfg = small_sim_config()
        table = run_simulation(cfg)
        for name in cfg.estimators:
            row = table.metrics[name]
            assert row["mse_times_n"] == pytest.approx(
                row["bias2_times_n"] + row["variance_times_n"], abs=1e-8
            )
            assert 0.0 <= row["coverage"] <= 1.0

    def test_ht_bias_negligible(self):
        cfg = small_sim_config(replications=3000, estimators=["ht"])
        table = run_simulation(cfg)
        row = table.metrics["ht"]
        assert row["bias2_times_n"] < 0.05 * row["variance_times_n"]

    def test_perfect_model_degenerate_variance(self):
        # potential outcomes exactly linear in the covariates: the linear
        # QMLE reproduces them and the residual correction vanishes
        design = CompletelyRandomizedDesign(8, [4, 4])
        rng = stream_rng(8)
        X = centered(rng.standard_normal((8, 1)))
        from designest.model_assisted import ImputationModel

        model = ImputationModel("linear", 2, 1)
        y_full = model.design_rows(X) @ np.array([0.2, 0.9, 1.4])
        cfg = SimConfig(
            design=design,
            y_full=y_full,
            X=X,
            estimators=["wls"],
            contrast=np.array([-1.0, 1.0]),
            replications=50,
            seed=9,
        )
        table = run_simulation(cfg)
        row = table.metrics["wls"]
        assert row["variance_times_n"] == pytest.approx(0.0, abs=1e-10)
        assert row["mean_bound_times_n"] == pytest.approx(0.0, abs=1e-10)

    def test_worker_count_invariance(self, tmp_path):
        cfg1 = small_sim_config(replications=130, workers=1)
        cfg2 = small_sim_config(replications=130, workers=3)
        t1 = run_simulation(cfg1)
        t2 = run_simulation(cfg2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        t1.to_csv(p1)
        t2.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_workers_under_spawn_match_one_worker(self, tmp_path, monkeypatch):
        # spawned workers inherit no module state from the parent, so the
        # run's config must reach them through the pool itself
        from designest import harness

        spawn_pool = functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")
        )
        monkeypatch.setattr(harness, "ProcessPoolExecutor", spawn_pool)
        p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        run_simulation(small_sim_config(replications=60, workers=1)).to_csv(p1)
        run_simulation(small_sim_config(replications=60, workers=2)).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_pool_starts_no_more_workers_than_chunks(self, tmp_path, monkeypatch):
        # a pool may start every worker at its first submit; the run's
        # chunks run in-process here, so no worker is started
        started = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "_WORKER_CONFIG", None)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        paths = []
        for workers in (1, 2, 64):  # 130 replications make 3 chunks
            paths.append(tmp_path / f"w{workers}.csv")
            run_simulation(small_sim_config(replications=130, workers=workers)).to_csv(paths[-1])
        assert started == [2, 3]
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True, "2"])
    def test_worker_count_must_be_a_positive_integer(self, workers):
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            small_sim_config(workers=workers)

    @pytest.mark.parametrize(
        "field, value",
        [("replications", 2.9), ("replications", True), ("replications", 0), ("seed", 99.7),
         ("seed", False), ("seed", -1)],
    )
    def test_counts_and_seed_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= "):
            small_sim_config(**{field: value})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_contrast_must_be_finite(self, bad):
        with pytest.raises(ValueError, match=r"contrast weights must be finite, got \[-1.0, "):
            small_sim_config(contrast=[-1.0, bad])

    def test_failures_are_counted_and_excluded(self):
        # the rescaled estimator on a covariate-free CRD has a zero
        # denominator (arm-constant imputations are annihilated), so every
        # replication raises and is excluded
        design = CompletelyRandomizedDesign(6, [3, 3])
        y_full = stream_rng(10).standard_normal(12)
        cfg = SimConfig(
            design=design,
            y_full=y_full,
            X=np.zeros((6, 0)),
            estimators=["ht", "noharm_wls"],
            contrast=np.array([-1.0, 1.0]),
            replications=20,
            seed=13,
        )
        table = run_simulation(cfg)
        assert table.failures["ht"] == 0
        assert table.failures["noharm_wls"] == 20
        assert np.isnan(table.metrics["noharm_wls"]["variance_times_n"])

    def test_csv_and_display(self, tmp_path):
        cfg = small_sim_config(replications=25)
        table = run_simulation(cfg)
        path = tmp_path / "metrics.csv"
        table.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("estimator,")
        assert len(lines) == 3
        display = table.display()
        assert "ht" in display and "coverage" in display

    def test_display_separates_a_twelve_character_name_from_its_neighbours(self):
        names = ["qmle_logit", "noharm_logit", "opt_i_logit"]  # 10, 12 and 11 characters
        metrics = {name: {col: 1e6 * (j + 1) for col in METRIC_COLUMNS} for j, name in enumerate(names)}
        table = MetricsTable(names, metrics, dict.fromkeys(names, 0), 0.0, 8, 1)
        header, *rows = table.display().splitlines()
        assert header.split() == names
        assert len(rows) == len(METRIC_COLUMNS)
        # each column is right-aligned and one character wider than its name,
        # in the header and in every cell
        ends = [header.index(name) + len(name) for name in names]
        for row in rows:
            assert len(row) == len(header) == ends[-1]
            for end, cell in zip(ends, row.split()[1:]):
                assert row[end - len(cell) - 1 : end] == " " + cell
        assert [end - start for start, end in zip([0] + ends, ends)][1:] == [13, 12]

    def test_validation(self):
        with pytest.raises(ValueError):
            small_sim_config(replications=0)
        with pytest.raises(ValueError):
            small_sim_config(contrast=np.array([1.0, -1.0, 0.0]))
        with pytest.raises(ValueError):
            small_sim_config(estimators=["nope"])

    def test_moments_and_bound_default_to_the_exact_ones(self, tmp_path):
        design = small_sim_config().design
        moments = closed_form_or_exact_moments(design)
        paths = [tmp_path / "default.csv", tmp_path / "given.csv"]
        run_simulation(small_sim_config(replications=70)).to_csv(paths[0])
        given = small_sim_config(
            replications=70, moments=moments, bound=aronow_samii_bound(moments)
        )
        run_simulation(given).to_csv(paths[1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        # moments given alone bring their own Aronow-Samii bound
        run_simulation(small_sim_config(replications=70, moments=moments)).to_csv(paths[1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_moments_and_bound_must_describe_the_design(self):
        moments = closed_form_or_exact_moments(small_sim_config().design)
        other = closed_form_or_exact_moments(CompletelyRandomizedDesign(6, [3, 3]))
        with pytest.raises(ValueError, match="moments describe 12 cells, the design 16"):
            small_sim_config(moments=other)
        with pytest.raises(ValueError, match=r"bound must be the full 16 x 16 bound"):
            small_sim_config(bound=aronow_samii_bound(other))
        block = aronow_samii_bound(moments, cells=np.arange(8))  # an observed block
        with pytest.raises(ValueError, match=r"bound must be the full 16 x 16 bound"):
            small_sim_config(bound=block)

    def test_moments_must_hold_p_and_d(self):
        # observed_block_bound's moments hold neither; the run would read both
        design = small_sim_config().design
        moments, _ = observed_block_bound(design, design.sample(stream_rng(3)).observed_cells)
        with pytest.raises(ValueError, match="moments lack p and D: a simulation needs the full"):
            small_sim_config(moments=moments)
        full = closed_form_or_exact_moments(design)
        for name in ("p", "D"):
            with pytest.raises(ValueError, match=f"moments lack {name}: "):
                small_sim_config(moments=dataclasses.replace(full, **{name: None}))


def _linear_reference(kind):
    return lambda data, c, bound: estimate_report(kind, data, bound, c)


def _two_stage_reference(fit_second_stage, family, omega):
    def fit(data, c, bound):
        model = ImputationModel(family, data.k, data.p)
        return fit_second_stage(fit_qmle(model, data, omega=omega), model, data, c, bound)

    return fit


def _no_harm(theta, model, data, c, bound):
    return no_harm_gr(theta, model, data, data.moments.D, c, bound=bound)


def _opt_i(theta, model, data, c, bound):
    return opt_i_gr(theta, model, data, data.moments.D, c, bound=bound)


def _qmle(theta, model, data, c, bound):
    return qmle_gr(theta, model, data, c, bound=bound)


# Each table name's fit of one observed experiment through the public
# per-replication functions.
REFERENCE = {
    **{kind: _linear_reference(kind) for kind in LINEAR_KINDS},
    "noharm_wls": _two_stage_reference(_no_harm, "linear", "ones"),
    "qmle_logit": _two_stage_reference(_qmle, "logistic", "pi"),
    "noharm_logit": _two_stage_reference(_no_harm, "logistic", "pi"),
    "opt_linear": lambda data, c, bound: opt_gr_linear(data, data.moments.D, c, bound=bound),
    "opt_logit": lambda data, c, bound: opt_gr_logit(data, data.moments.D, c, bound=bound),
    "opt_i_ols": _two_stage_reference(_opt_i, "linear", "pi"),
    "opt_i_logit": _two_stage_reference(_opt_i, "logistic", "pi"),
}


def test_reference_covers_the_table():
    assert tuple(REFERENCE) == ESTIMATOR_NAMES


def ring_with_chords(n):
    edges = []
    for i in range(n):
        for j in ((i + 1) % n, (i + n // 2) % n):
            edges += [(i, j), (j, i)]
    return edges


def chunk_config(design, moments, X, y_full, contrast, seed):
    """What run_simulation hands each chunk, with every table estimator:
    a SimConfig carrying its moments and their Aronow-Samii bound."""
    return SimConfig(
        design=design,
        y_full=y_full,
        X=X,
        estimators=list(ESTIMATOR_NAMES),
        contrast=contrast,
        replications=64,
        seed=seed,
        moments=moments,
        bound=build_bound(design, moments, "aronow_samii"),
    )


def network_config():
    n = 40
    base = BernoulliDesign(n, [0.5, 0.5])
    graph = InterferenceGraph(n, ring_with_chords(n))
    design = derive_exposure_design(base, graph, standard_binary_exposure_rules())
    moments = mc_moments(design, reps=1500, seed=3)
    X = centered(stream_rng(4).standard_normal((n, 3)))
    y_full = impute_potential_outcomes(X, [0.8, 0.6, -0.5], [1.0, -1.5, 0.2, -0.5], seed=5)
    return chunk_config(design, moments, X, y_full, [0, 1, 0, -1], 6)


def rare_cell_config():
    # 40 draws miss some possible cells, whose pi then reads zero: a draw
    # that observes one fails every weighted estimator
    n = 20
    base = BernoulliDesign(n, [0.85, 0.15])
    graph = InterferenceGraph(n, ring_with_chords(n))
    design = derive_exposure_design(base, graph, standard_binary_exposure_rules())
    X = centered(stream_rng(8).standard_normal((n, 1)))
    y_full = impute_potential_outcomes(X, [0.5], [0.3, -0.2, 0.1, -0.4], seed=9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        moments = mc_moments(design, reps=40, seed=4)
        return chunk_config(design, moments, X, y_full, [1, 0, 0, -1], 5)


def empty_arm_config():
    # five units over three arms: some draws leave an arm empty
    design = BernoulliDesign(5, [0.2, 0.5, 0.3])
    X = centered(stream_rng(21).standard_normal((5, 1)))
    y_full = impute_potential_outcomes(X, [0.5], [0.3, -0.2, 0.1], seed=22)
    return chunk_config(design, closed_form_or_exact_moments(design), X, y_full, [1, 0, -1], 9)


def reference_chunk(cfg, reps):
    """The per-replication loop: one draw, one ExperimentData and one call
    of each estimator's public function per replication, gathered as
    _replication_chunk gathers them: (values, bounds x n) arrays, NaN where
    a fit failed, and the failure record {(rep, e): "Type: message"}."""
    names = cfg.estimators
    values, bounds = np.full((2, len(reps), len(names)), np.nan)
    failures = {}
    for i, rep in enumerate(reps):
        realization = cfg.design.sample(stream_rng(cfg.seed, rep))
        try:
            data = ExperimentData.from_full(cfg.y_full, realization, cfg.X, cfg.moments)
        except ValueError as exc:  # an observed cell of zero inclusion probability
            failures.update({(rep, e): f"ValueError: {exc}" for e in range(len(names))})
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for e, name in enumerate(names):
                try:
                    report = REFERENCE[name](data, cfg.contrast, cfg.bound)
                    values[i, e], bounds[i, e] = report.contrast_value, report.varbound_times_n
                except Exception as exc:
                    failures[rep, e] = f"{type(exc).__name__}: {exc}"
    return values, bounds, failures


def assert_same_chunk(got, expected):
    """Bitwise equal arrays (NaN included) and equal failure records."""
    for got_array, expected_array in zip(got[:2], expected[:2]):
        assert got_array.shape == expected_array.shape
        assert got_array.tobytes() == expected_array.tobytes()
    assert got[2] == expected[2]


ZERO_PI_FAILURE = "ValueError: observed cell with zero inclusion probability"


class TestBatchedChunk:
    @pytest.mark.parametrize("make", [network_config, rare_cell_config, empty_arm_config])
    def test_chunk_matches_the_per_replication_loop(self, make):
        cfg = make()
        chunk = _replication_chunk(cfg, range(64))
        assert_same_chunk(chunk, reference_chunk(cfg, range(64)))  # failures included
        assert chunk[0].shape == (64, len(cfg.estimators))
        assert list(chunk[2]) == sorted(chunk[2])  # in (replication, estimator) order

    @pytest.mark.parametrize("make", [network_config, rare_cell_config, empty_arm_config])
    def test_chunk_of_64_equals_64_chunks_of_one(self, make):
        cfg = make()
        values, bounds, failures = _replication_chunk(cfg, range(64))
        for rep in range(64):
            one = _replication_chunk(cfg, [rep])
            expected = {key: text for key, text in failures.items() if key[0] == rep}
            assert_same_chunk(one, (values[[rep]], bounds[[rep]], expected))

    def test_scenarios_cover_both_per_replication_failures(self):
        messages = set()
        for cfg in (rare_cell_config(), empty_arm_config()):
            messages |= set(_replication_chunk(cfg, range(64))[2].values())
        assert ZERO_PI_FAILURE in messages
        hajek = "HajekUndefinedError: no observed units in arm(s)"
        assert any(message.startswith(hajek) for message in messages)

    def test_a_zero_pi_replication_fails_every_estimator(self):
        # opt_linear used to return NaN there and opt_logit to run every
        # restart on infinite data and report an OptimizationError
        cfg = rare_cell_config()
        values, bounds, failures = _replication_chunk(cfg, range(64))
        E = len(cfg.estimators)
        failed = [rep for rep in range(64) if failures.get((rep, 0)) == ZERO_PI_FAILURE]
        assert len(failed) == 9
        for rep in failed:
            assert [failures.get((rep, e)) for e in range(E)] == [ZERO_PI_FAILURE] * E
        fitted = np.ones(values.shape, dtype=bool)
        fitted[tuple(np.array(list(failures)).T)] = False
        assert not np.isnan(values[fitted]).any()
        assert np.isnan(values[~fitted]).all() and np.isnan(bounds[~fitted]).all()

    def test_a_batch_that_raises_is_refit_per_replication(self, monkeypatch):
        cfg = empty_arm_config()
        cfg.estimators = ["hajek", "qmle_logit", "opt_i_ols"]
        values, bounds, failures = _replication_chunk(cfg, range(64))
        for name in cfg.estimators:
            def sample(chunk, c, original=ESTIMATORS[name]):
                if len(chunk.reps) > 1 or chunk.reps == [7]:
                    raise FloatingPointError(f"chunk {chunk.reps[0]}")
                return original(chunk, c)

            monkeypatch.setitem(ESTIMATORS, name, sample)
        refit = _replication_chunk(cfg, range(64))
        values[7] = bounds[7] = np.nan
        failures = {key: text for key, text in failures.items() if key[0] != 7}
        failures.update({(7, e): "FloatingPointError: chunk 7" for e in range(3)})
        assert_same_chunk(refit, (values, bounds, dict(sorted(failures.items()))))


def test_second_stages_keep_a_failing_row_to_itself():
    # replication 3 observes all-zero outcomes: its imputations are zero, so
    # no-harm is weakly identified there and opt_i's imputed column vanishes.
    # The exposure arms sit on a graph of unequal degrees, so inclusion
    # probabilities vary by unit; with every arm weighted by the contrast, D
    # annihilates no direction of the arm intercepts and only replication 3
    # is flagged.
    n, reps, c = 12, list(range(6)), np.array([1.0, 0.5, -0.5, -1.0])
    edges = [e for i in range(n) for e in ((i, (i + 1) % n), ((i + 1) % n, i))]  # a ring
    edges += [e for i, j in ((0, 6), (0, 3), (0, 9), (2, 7)) for e in ((i, j), (j, i))]
    base = BernoulliDesign(n, [0.5, 0.5])
    design = derive_exposure_design(base, InterferenceGraph(n, edges), standard_binary_exposure_rules())
    moments = closed_form_or_exact_moments(design)
    bound = build_bound(design, moments, "aronow_samii")
    X = centered(stream_rng(31).standard_normal((n, 1)))
    y_full = impute_potential_outcomes(X, [0.9], [1.0, -1.5, 0.2, -0.5], seed=32)
    outcomes = np.stack([np.zeros(4 * n) if rep == 3 else y_full for rep in reps])
    draws = [design.sample(stream_rng(33, rep)) for rep in reps]
    arms = np.stack([draw.arm_of for draw in draws])
    y_obs = np.take_along_axis(outcomes, arms * n + np.arange(n), axis=1)
    chunk = ReplicationChunk(arms, y_obs, X, moments, reps)
    flags = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in ("noharm_wls", "opt_linear", "opt_i_ols"):
            fit = ESTIMATORS[name](chunk, c)  # one call for all rows
            for b, rep in enumerate(reps):
                data = ExperimentData.from_full(outcomes[b], draws[b], X, moments)
                if name == "noharm_wls" and rep == 3:
                    assert isinstance(fit.errors[b], WeakIdentificationError)
                    with pytest.raises(WeakIdentificationError):
                        REFERENCE[name](data, c, bound)
                    continue
                assert b not in fit.errors
                plugin = plugin_varbound(fit.z[b], draws[b], bound, c)
                report = plugin_report(
                    name, fit.mu[b], plugin, n, moments, c, fit.diagnostics[b]
                )
                expected = REFERENCE[name](data, c, bound)
                assert report.contrast_value == expected.contrast_value
                assert report.varbound_times_n == expected.varbound_times_n
                assert report.diagnostics == expected.diagnostics
            if name != "noharm_wls":
                flags[name] = [d["identification_flagged"] for d in fit.diagnostics]
    assert flags == {"opt_linear": [False] * 6, "opt_i_ols": [rep == 3 for rep in reps]}


def test_simulate_counts_zero_pi_replications_as_failures():
    cfg = rare_cell_config()
    cfg = SimConfig(
        design=cfg.design,
        y_full=cfg.y_full,
        X=cfg.X,
        estimators=["ht", "opt_linear"],
        contrast=cfg.contrast,
        replications=64,
        seed=cfg.seed,
        moments=cfg.moments,
    )
    table = run_simulation(cfg)
    assert table.failures == {"ht": 9, "opt_linear": 9}
    for name in cfg.estimators:
        assert all(np.isfinite(value) for value in table.metrics[name].values())


def test_coverage_benchmark_bernoulli_500():
    # nominal 95% intervals from a valid identified bound stay at or above
    # nominal coverage minus Monte-Carlo error on the n=500 benchmark
    from designest.moments import analytic_bernoulli_moments

    n = 500
    design = BernoulliDesign(n, [0.5, 0.5])
    moments = analytic_bernoulli_moments(design)
    rng = stream_rng(5150)
    X = preprocess_covariates(rng.standard_normal((n, 2)))
    y_full = impute_potential_outcomes(X, [0.7, -0.4], [-0.3, 0.5], seed=6)
    cfg = SimConfig(
        design=design,
        y_full=y_full,
        X=X,
        estimators=["ht"],
        contrast=np.array([-1.0, 1.0]),
        replications=2000,
        seed=37,
        moments=moments,
    )
    table = run_simulation(cfg)
    assert table.metrics["ht"]["coverage"] >= 0.93
    assert table.provenance["moments_method"] == "exact"


class TestTheoreticalRows:
    def test_ht_matches_enumeration_variance(self):
        design = CompletelyRandomizedDesign(6, [3, 3])
        rng = stream_rng(11)
        y_full = rng.standard_normal(12)
        moments = exact_moments(design)
        c = np.array([-1.0, 1.0])
        v = population_contrast_residual("ht", np.zeros((6, 0)), y_full, moments, c)
        theo = float(v @ moments.D @ v) / 6
        # oracle: exact variance of the HT contrast over the support
        from designest.linear import estimate_linear, ExperimentData

        table = design.enumerate_support()
        values = []
        for idx in range(len(table)):
            data = ExperimentData.from_full(
                y_full, table.realization(idx), np.zeros((6, 0)), moments
            )
            values.append(float(c @ estimate_linear("ht", data).mu_hat))
        values = np.array(values)
        var = float(np.mean(values**2) - np.mean(values) ** 2)
        assert theo == pytest.approx(6 * var, abs=1e-10)

    def test_opt_i_between_full_linear_and_wls(self):
        # population efficiency ordering: the single-imputed-covariate layer
        # can reproduce the plain regression fit (so it is no worse) but
        # optimizes over a smaller class than the full linear minimizer
        design = CompletelyRandomizedDesign(10, [5, 5])
        rng = stream_rng(13)
        X = centered(rng.standard_normal((10, 2)))
        moments = exact_moments(design)
        c = np.array([-1.0, 1.0])
        for trial in range(5):
            y_full = rng.standard_normal(20) + 1.5 * np.tile(X[:, 0], 2)
            var = {}
            for name in ("opt_linear", "opt_i_ols", "wls"):
                v = population_contrast_residual(name, X, y_full, moments, c)
                var[name] = float(v @ moments.D @ v)
            assert var["opt_linear"] <= var["opt_i_ols"] + 1e-10
            assert var["opt_i_ols"] <= var["wls"] + 1e-10

    def test_adjusted_estimators_beat_ht_when_model_fits(self):
        design = CompletelyRandomizedDesign(10, [5, 5])
        rng = stream_rng(12)
        X = centered(rng.standard_normal((10, 1)))
        y_full = 2.0 * np.tile(X[:, 0], 2) + np.repeat([0.0, 1.0], 10)
        y_full += 0.1 * rng.standard_normal(20)
        moments = exact_moments(design)
        c = np.array([-1.0, 1.0])
        v_ht = population_contrast_residual("ht", X, y_full, moments, c)
        v_opt = population_contrast_residual("opt_linear", X, y_full, moments, c)
        var_ht = float(v_ht @ moments.D @ v_ht)
        var_opt = float(v_opt @ moments.D @ v_opt)
        assert var_opt <= var_ht + 1e-10

    def test_a_run_fits_each_population_first_stage_once(self, monkeypatch):
        import designest.model_assisted as model_assisted

        names = ["qmle_logit", "noharm_logit", "opt_i_logit", "wls", "ci", "mi", "gr", "ht"]
        design = CompletelyRandomizedDesign(30, [12, 18])
        X = centered(stream_rng(41).standard_normal((30, 2)))
        y_full = impute_potential_outcomes(X, [0.9, -0.6], [-0.4, 0.5], seed=42)
        moments = closed_form_or_exact_moments(design)
        bound = build_bound(design, moments, "aronow_samii")
        c = np.array([-1.0, 1.0])
        theory = {}
        for name in names:  # each row on its own population chunk
            v = population_contrast_residual(name, X, y_full, moments, c)
            theory[name] = (float(v @ moments.D @ v) / 30, float(v @ bound.Dt @ v) / 30)
        fits = []
        qmle = model_assisted.population_qmle

        def spy(model, X, y_full, omega=None):
            fits.append((model.family, omega is not None))
            return qmle(model, X, y_full, omega=omega)

        monkeypatch.setattr(model_assisted, "population_qmle", spy)
        table = run_simulation(SimConfig(
            design=design, y_full=y_full, X=X, estimators=names, contrast=c,
            replications=3, seed=43, moments=moments,
        ))
        assert fits == [("logistic", True)]
        for name in names:
            row = table.metrics[name]
            assert (row["theo_var_times_n"], row["theo_bound_times_n"]) == theory[name]


def test_an_uncertified_population_fit_raises(monkeypatch):
    from designest import model_assisted

    design = CompletelyRandomizedDesign(30, [12, 18])
    X = centered(stream_rng(21).standard_normal((30, 2)))
    y_full = impute_potential_outcomes(X, [0.9, -0.6], [-0.4, 0.5], seed=4)
    moments, c = closed_form_or_exact_moments(design), np.array([-1.0, 1.0])
    assert np.isfinite(population_contrast_residual("opt_logit", X, y_full, moments, c)).all()
    monkeypatch.setattr(model_assisted, "NEWTON_MAX_ITER", 0)
    with pytest.raises(model_assisted.OptimizationError, match="in 0 Newton steps"):
        population_contrast_residual("opt_logit", X, y_full, moments, c)


def _population_imputations(name, X, y, moments, c):
    """Imputations of a model-assisted table row at the population, from the
    public population functions alone."""
    n, k, D = moments.n, moments.k, moments.D
    model = ImputationModel("logistic" if name.endswith("logit") else "linear", k, X.shape[1])
    if name == "opt_linear":
        rows = model.design_rows(X)
        return rows @ population_opt_gr_linear(rows, y, D, c, n)
    if name == "opt_logit":
        return model.predict(population_opt_logit(model, X, y, D, c, n, omega=moments.pi), X)
    omega = None if name == "noharm_wls" else moments.pi
    f = model.predict(population_qmle(model, X, y, omega=omega), X)
    if name.startswith("noharm"):
        return population_no_harm_alpha(f, y, D, c, n) * f
    if name.startswith("opt_i"):
        return opt_i_rows(f, n, k) @ population_opt_i_beta(f, y, D, c, n, k)
    return f


@pytest.mark.parametrize("name", [name for name in ESTIMATOR_NAMES if name not in LINEAR_KINDS])
@pytest.mark.parametrize(
    "design, contrast",
    [
        (CompletelyRandomizedDesign(30, [12, 18]), [-1.0, 1.0]),
        (BernoulliDesign(30, [0.3, 0.3, 0.4]), [1.0, -2.0, 1.0]),
    ],
    ids=["crd2", "bernoulli3"],
)
def test_population_residual_is_the_public_population_fit(name, design, contrast):
    rng = stream_rng(21)
    X = centered(rng.standard_normal((design.n, 2)))
    y = impute_potential_outcomes(X, [0.9, -0.6], np.linspace(-0.4, 0.5, design.k), seed=4)
    moments = closed_form_or_exact_moments(design)
    c = np.array(contrast)
    expected = contrast_residual(_population_imputations(name, X, y, moments, c), y, c, design.n)
    got = population_contrast_residual(name, X, y, moments, c)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
