"""Property tests over random small designs of every enumerable kind.

One ReplicationChunk holds the whole enumerated support, so the
probability-weighted mean of a table estimator over its rows is its exact
design expectation: HT must hit the arm means and its plug-in bound must
hit v'D~v/n^2, each to rounding.
"""

import warnings
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from designest.bounds import (
    PSD_TOL,
    NotIdentifiedError,
    aronow_samii_bound,
    build_bound,
    certify_bound,
    minus_one_mask,
    observed_block_bound,
)
from designest.designs import (
    BernoulliDesign,
    ClusteredDesign,
    CompletelyRandomizedDesign,
    StratifiedDesign,
)
from designest.harness import (
    ESTIMATOR_NAMES,
    ESTIMATORS,
    ReplicationChunk,
    fit_rows,
    preprocess_covariates,
)
from designest.linear import intercept_matrix, plugin_raw, plugin_varbound
from designest import model_assisted
from designest.model_assisted import ImputationModel
from designest import moments as moments_module
from designest.moments import (
    _proven_top_eigenvalue,
    closed_form_or_exact_moments,
    exact_moments,
    has_closed_form,
    largest_eigenvalue,
    mc_moments,
)
from designest.network import (
    InterferenceGraph,
    derive_exposure_design,
    standard_binary_exposure_rules,
)


@st.composite
def probabilities(draw, k):
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=k, max_size=k)))
    return weights / weights.sum()


@st.composite
def positive_counts(draw, m, k):
    """k positive counts summing to m (m >= k), so every arm is possible."""
    cuts = draw(st.lists(st.integers(1, m - 1), min_size=k - 1, max_size=k - 1, unique=True))
    return np.diff([0, *sorted(cuts), m])


@st.composite
def designs(draw):
    """A small design whose every cell has positive inclusion probability."""
    kind = draw(st.sampled_from(["bernoulli", "crd", "stratified", "clustered", "exposure"]))
    k = draw(st.integers(2, 3))
    if kind == "bernoulli":
        return BernoulliDesign(draw(st.integers(1, 5)), draw(probabilities(k)))
    if kind == "crd":
        n = draw(st.integers(k, 6))
        return CompletelyRandomizedDesign(n, draw(positive_counts(n, k)))
    if kind == "stratified":
        sizes = draw(st.lists(st.integers(k, 3 + (k == 2)), min_size=1, max_size=2))
        units = draw(st.permutations(range(sum(sizes))))
        strata = np.split(np.array(units), np.cumsum(sizes)[:-1])
        counts = [draw(positive_counts(len(s), k)) for s in strata]
        return StratifiedDesign(sum(sizes), strata, counts)
    if kind == "clustered":
        clusters = draw(st.integers(k, 4))
        extra = draw(st.lists(st.integers(0, clusters - 1), max_size=3))
        cluster_of = draw(st.permutations([*range(clusters), *extra]))
        base = CompletelyRandomizedDesign(clusters, draw(positive_counts(clusters, k)))
        return ClusteredDesign(len(cluster_of), cluster_of, base)
    # exposure arms over a ring with chords: every unit has a neighbour, so
    # all four exposures are possible under an independent base
    n = draw(st.integers(3, 6))
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    edges = [(i, (i + 1) % n) for i in range(n)] + [(a, b) for a, b in chords if a != b]
    base = BernoulliDesign(n, draw(probabilities(2)))
    return derive_exposure_design(
        base, InterferenceGraph(n, edges), standard_binary_exposure_rules(),
        undirected=draw(st.booleans()),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(design=designs(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_ht_and_its_plugin_bound_are_exactly_unbiased_over_the_support(design, seed, data):
    n, k = design.n, design.k
    table = design.enumerate_support()
    moments = exact_moments(design)
    assert np.all(moments.pi > 0)
    bound = build_bound(design, moments, "aronow_samii")
    y_full = np.random.default_rng(seed).standard_normal(n * k)
    c = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k)), dtype=float)

    arms = table.realizations
    y_obs = y_full[arms * n + np.arange(n)]
    chunk = ReplicationChunk(arms, y_obs, np.zeros((n, 0)), moments, range(len(table)))
    fit = chunk.fit(ESTIMATORS["ht"], c)
    assert not chunk.failed and not fit.errors

    truth = intercept_matrix(n, k).T @ y_full / n
    np.testing.assert_allclose(table.probabilities @ fit.mu, truth, rtol=0, atol=1e-12)

    raw = plugin_raw((fit.z @ c)[:, None], chunk.cells, bound.Dt_over_p)[:, 0]
    v = np.repeat(c, n) * y_full
    scale = 1.0 + table.probabilities @ np.abs(raw)
    assert abs(table.probabilities @ raw - v @ bound.Dt @ v / n**2) <= 1e-12 * scale


@st.composite
def any_counts(draw, m, k):
    """k nonnegative counts summing to m, positive about half the time that
    m >= k allows it, otherwise with arms that may have no units."""
    if m >= k and draw(st.booleans()):
        return draw(positive_counts(m, k))
    cuts = sorted(draw(st.lists(st.integers(0, m), min_size=k - 1, max_size=k - 1)))
    return np.diff([0, *cuts, m])


@st.composite
def enumerable_designs(draw, nested=True):
    """A small enumerable design of any kind, with arms of zero probability
    or zero count allowed, and clustered designs over every other base."""
    kinds = ["bernoulli", "crd", "stratified", "exposure"] + ["clustered"] * (2 * nested)
    kind = draw(st.sampled_from(kinds))
    k = draw(st.integers(2, 3))
    if kind == "bernoulli":
        weights = np.array(draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)))
        weights[draw(st.integers(0, k - 1))] += 1
        return BernoulliDesign(draw(st.integers(1, 4)), weights / weights.sum())
    if kind == "crd":
        n = draw(st.integers(1, 6))
        return CompletelyRandomizedDesign(n, draw(any_counts(n, k)))
    if kind == "stratified":
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        units = draw(st.permutations(range(sum(sizes))))
        strata = np.split(np.array(units), np.cumsum(sizes)[:-1])
        counts = [draw(any_counts(len(s), k)) for s in strata]
        return StratifiedDesign(sum(sizes), strata, counts)
    if kind == "exposure":
        n = draw(st.integers(3, 5))
        edges = [(i, (i + 1) % n) for i in range(n)]
        base = BernoulliDesign(n, draw(probabilities(2)))
        return derive_exposure_design(
            base, InterferenceGraph(n, edges), standard_binary_exposure_rules(),
            undirected=draw(st.booleans()),
        )
    base = draw(enumerable_designs(nested=False))
    extra = draw(st.lists(st.integers(0, base.n - 1), max_size=4))
    cluster_of = draw(st.permutations([*range(base.n), *extra]))
    return ClusteredDesign(len(cluster_of), cluster_of, base)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(design=enumerable_designs())
def test_closed_form_and_composed_moments_match_unit_level_enumeration(design):
    fast = closed_form_or_exact_moments(design)
    oracle = exact_moments(design)
    for name in ("pi", "p", "D"):
        np.testing.assert_allclose(getattr(fast, name), getattr(oracle, name), rtol=0, atol=1e-14)
    np.testing.assert_array_equal(fast.zero_mask, oracle.zero_mask)
    np.testing.assert_array_equal(fast.p == 0, oracle.p == 0)


def _bound_or_error(moments, cells=None):
    """The bound (or its NotIdentifiedError) and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = aronow_samii_bound(moments, cells)
        except NotIdentifiedError as exc:
            result = exc
    return result, [(w.category, str(w.message)) for w in caught]


def _exact_or_mc_moments(design, mc_reps, seed):
    """Exact moments when mc_reps is None, else that many Monte-Carlo draws."""
    if mc_reps is None:
        return exact_moments(design)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # never-hit cells
        return mc_moments(design, mc_reps, seed)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    weights=st.lists(st.integers(0, 9), min_size=1, max_size=5).filter(any),
    n=st.integers(1, 12),
    size=st.sampled_from([1, 2, 7, 64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bernoulli_sample_batch_is_generator_choice_bitwise(weights, n, size, seed):
    # the oracle: Generator.choice on the same stream, zero-probability arms included
    probs = np.array(weights) / sum(weights)
    design = BernoulliDesign(n, probs)
    ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    arms = design.sample_batch(ours, size)
    expected = oracle.choice(len(probs), size=(size, n), p=probs)
    assert arms.dtype == expected.dtype and arms.shape == expected.shape
    assert np.array_equal(arms, expected)
    assert ours.random() == oracle.random()  # both left the stream at the same place


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(design=designs(), data=st.data())
def test_minus_one_mask_of_exact_moments_is_the_d_equals_minus_one_rule(design, data):
    # the mask reads p == 0 for every moments route; on exact moments that is
    # where D is -1, the rule exact moments were once masked by
    moments = closed_form_or_exact_moments(design)
    expected = np.abs(moments.D + 1.0) <= 1e-12
    dead = moments.zero_mask | moments.maybe_zero_mask
    expected[:, dead] = expected[dead, :] = False
    np.fill_diagonal(expected, False)
    assert np.array_equal(minus_one_mask(moments), expected)
    cells = np.array(data.draw(st.lists(st.integers(0, moments.kn - 1), max_size=6)), dtype=int)
    assert np.array_equal(minus_one_mask(moments, cells), expected[cells])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(design=enumerable_designs(), mc_reps=st.none() | st.integers(2, 40), seed=st.integers(0, 99))
def test_aronow_samii_bound_certifies_valid_and_identified(design, mc_reps, seed):
    moments = _exact_or_mc_moments(design, mc_reps, seed)
    bound, _ = _bound_or_error(moments)
    if isinstance(bound, NotIdentifiedError):  # it builds unless a cell is never observed
        assert moments.zero_mask.any()
        return
    cert = certify_bound(moments, bound)
    assert cert.psd_ok and cert.identified_ok
    # the proof is Gershgorin's, and the dense spectrum of the live block
    # agrees with its verdict; a margin never exceeds the smallest
    # eigenvalue, up to rounding
    live = ~(moments.zero_mask | moments.maybe_zero_mask)
    block = (bound.Dt - moments.D)[np.ix_(live, live)]
    smallest = np.linalg.eigvalsh(block).min() if block.size else 0.0
    assert cert.psd_proof == "gershgorin"
    assert smallest >= -PSD_TOL
    assert cert.min_eigenvalue_bound <= smallest + 1e-9


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(design=enumerable_designs(), mc_reps=st.none() | st.integers(2, 40), seed=st.integers(0, 99))
def test_observed_block_plugin_is_bitwise_the_full_bounds(design, mc_reps, seed):
    n, k = design.n, design.k
    moments = _exact_or_mc_moments(design, mc_reps, seed)
    realization = design.sample(np.random.default_rng(seed))
    cells = realization.observed_cells
    full, full_warnings = _bound_or_error(moments)
    block, block_warnings = _bound_or_error(moments, cells)
    assert block_warnings == full_warnings
    if isinstance(full, NotIdentifiedError):
        assert isinstance(block, NotIdentifiedError) and str(block) == str(full)
        return
    square = np.ix_(cells, cells)
    assert block.Dt.tobytes() == full.Dt[square].tobytes()
    assert block.mask_minus1.tobytes() == full.mask_minus1[square].tobytes()
    assert block.Dt_over_p.tobytes() == full.Dt_over_p[square].tobytes()
    v = np.random.default_rng(seed + 1).standard_normal(n * k)
    with warnings.catch_warnings(record=True) as full_caught:
        warnings.simplefilter("always")
        expected = plugin_varbound(v, realization, full)
    with warnings.catch_warnings(record=True) as block_caught:
        warnings.simplefilter("always")
        got = plugin_varbound(v, realization, block)
    assert np.float64(got.raw).tobytes() == np.float64(expected.raw).tobytes()
    assert got.negative == expected.negative and len(block_caught) == len(full_caught)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(design=enumerable_designs(nested=False).filter(has_closed_form), data=st.data())
def test_observed_block_bound_is_bitwise_the_full_bounds_block(design, data):
    # zero-probability arms, arms of count 0 or 1 and strata with empty arms
    # included; the observed arms are any, possible or not
    n, k = design.n, design.k
    arms = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    cells = arms * n + np.arange(n)
    full = closed_form_or_exact_moments(design)
    square = np.ix_(cells, cells)
    pi, p, counts = moments_module._observed_joint(design, cells)
    assert pi.tobytes() == full.pi.tobytes()
    assert p.tobytes() == full.p[square].tobytes()
    assert np.array_equal(counts, minus_one_mask(full, cells).sum(axis=1))
    expected, expected_warnings = _bound_or_error(full)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            moments, got = observed_block_bound(design, cells)
        except NotIdentifiedError as exc:
            got = exc
    assert [(w.category, str(w.message)) for w in caught] == expected_warnings
    if isinstance(expected, NotIdentifiedError):
        assert isinstance(got, NotIdentifiedError) and str(got) == str(expected)
        return
    assert moments.p is None and moments.D is None and moments.method == "exact"
    assert moments.pi.tobytes() == full.pi.tobytes()
    assert np.array_equal(moments.zero_mask, full.zero_mask)
    assert np.array_equal(moments.maybe_zero_mask, full.maybe_zero_mask)
    assert np.array_equal(got.cells, cells)
    for name in ("Dt", "mask_minus1", "Dt_over_p"):
        assert getattr(got, name).tobytes() == getattr(expected, name)[square].tobytes()


def _relabel(design, new_of):
    """The design with unit i renamed new_of[i]: strata, clusters and edges
    follow their units, and exchangeable designs are their own relabelling."""
    if isinstance(design, (BernoulliDesign, CompletelyRandomizedDesign)):
        return design
    if isinstance(design, StratifiedDesign):
        return StratifiedDesign(design.n, [new_of[s] for s in design.strata], design.counts_by_stratum)
    if isinstance(design, ClusteredDesign):
        return ClusteredDesign(design.n, design.cluster_of[np.argsort(new_of)], design.cluster_design)
    graph = InterferenceGraph(design.n, new_of[design.graph.edges])
    return derive_exposure_design(_relabel(design.base, new_of), graph, design.rules, design.undirected)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(design=enumerable_designs(), data=st.data())
def test_relabelling_units_permutes_the_moments_and_the_bound(design, data):
    new_of = np.array(data.draw(st.permutations(range(design.n))))
    # old cell a*n + i is new cell a*n + new_of[i]
    cells = (np.arange(design.k)[:, None] * design.n + new_of).ravel()
    old = closed_form_or_exact_moments(design)
    new = closed_form_or_exact_moments(_relabel(design, new_of))
    square = np.ix_(cells, cells)
    np.testing.assert_array_equal(new.zero_mask[cells], old.zero_mask)
    pairs = [(new.pi[cells], old.pi), (new.p[square], old.p), (new.D[square], old.D)]
    old_bound, _ = _bound_or_error(old)
    new_bound, _ = _bound_or_error(new)
    assert isinstance(new_bound, NotIdentifiedError) == isinstance(old_bound, NotIdentifiedError)
    if not isinstance(old_bound, NotIdentifiedError):
        pairs.append((new_bound.Dt[square], old_bound.Dt))
    if isinstance(design, (BernoulliDesign, CompletelyRandomizedDesign, StratifiedDesign)):
        for got, expected in pairs:  # closed forms: the same arithmetic on each entry
            assert got.tobytes() == expected.tobytes()
    else:  # enumeration sums the support in another order
        for got, expected in pairs:
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


# Under a relabelling of units, each row's contrast value a and plug-in
# bound b stay equal up to |a - b| <= tol * max(1, |a|). The measured worst
# cases over 600 examples: 3e-14 for the closed-form linear rows, 1.4e-12
# for noharm_wls, opt_linear and opt_logit, and 6e-7 for the rows whose
# logistic first stage stops at a gradient tolerance, which near separation
# leaves theta that loose. The opt_i rows are left out: on these tiny draws
# their second-stage design form is (near) singular, and its pseudoinverse
# is decided by rounding, so the plug-in bound moved by up to 18x (opt_i_ols)
# and the contrast value by up to 0.5 (opt_i_logit), identification flag
# raised or not.
RELABEL_TOL = {
    **dict.fromkeys(("ht", "hajek", "ols", "wls", "ci", "mi", "gr"), 1e-12),
    **dict.fromkeys(("noharm_wls", "opt_linear", "opt_logit"), 1e-10),
    **dict.fromkeys(("qmle_logit", "noharm_logit"), 1e-5),
}


def _fit_every_row(design, arms, y_obs, X, c):
    moments = closed_form_or_exact_moments(design)
    chunk = ReplicationChunk(arms[None], y_obs[None], X, moments)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, values, raw, errors = fit_rows(
            chunk, list(RELABEL_TOL), c, build_bound(design, moments, "aronow_samii")
        )
    return values[0], raw[0], {e: f"{type(exc).__name__}: {exc}" for (_, e), exc in errors.items()}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(design=designs(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_relabelling_units_leaves_every_rows_estimate_unchanged(design, seed, data):
    n, k = design.n, design.k
    new_of = np.array(data.draw(st.permutations(range(n))))
    rng = np.random.default_rng(seed)
    arms = design.sample(rng).arm_of
    y_obs = rng.integers(0, 2, n).astype(float)
    X = preprocess_covariates(rng.standard_normal((n, 1))) if n > 1 else np.zeros((n, 1))
    c = np.zeros(k)
    c[0], c[-1] = -1.0, 1.0
    # unit i of the old labels is unit new_of[i] of the new ones
    new_arms, new_y, new_X = np.empty_like(arms), np.empty_like(y_obs), np.empty_like(X)
    new_arms[new_of], new_y[new_of], new_X[new_of] = arms, y_obs, X
    old = _fit_every_row(design, arms, y_obs, X, c)
    new = _fit_every_row(_relabel(design, new_of), new_arms, new_y, new_X, c)
    assert new[2] == old[2]  # the same rows fail, for the same reason
    for e, tol in enumerate(RELABEL_TOL.values()):
        if e in old[2]:
            continue
        for got, expected in ((new[0][e], old[0][e]), (new[1][e], old[1][e])):
            assert abs(got - expected) <= tol * max(1.0, abs(expected))


def _ridge_criterion(theta, y, args):
    """The ridge-penalized variance criterion Q + OPT_LOGIT_RIDGE |theta|^2 / 2
    at theta (s,) for the outcome vector y (1, kn), and its gradient."""
    value, g = model_assisted._moment_terms(theta[None], y, *args)[:2]
    ridge = model_assisted.OPT_LOGIT_RIDGE
    return value[0] + ridge / 2 * (theta @ theta), ridge * theta - g[0]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(design=designs(), seed=st.integers(0, 2**32 - 1))
def test_opt_logit_rows_are_certified_minima_below_their_start(design, seed):
    # Each certified row is a stationary point of the ridge criterion whose
    # Hessian passes the certificate, reached by descent from the row's
    # pseudo-likelihood start. The point is a local minimum only: on these
    # tiny draws the criterion often has several, and BFGS from the same
    # start ends lower on some rows and higher on others (test_model_assisted
    # compares the two on larger populations).
    n, k = design.n, design.k
    rng = np.random.default_rng(seed)
    arms = np.stack([design.sample(rng).arm_of for _ in range(3)])
    y_obs = rng.integers(0, 2, arms.shape).astype(float)
    X = preprocess_covariates(rng.standard_normal((n, 1))) if n > 1 else np.zeros((n, 1))
    c = np.zeros(k)
    c[0], c[-1] = -1.0, 1.0
    moments = closed_form_or_exact_moments(design)
    chunk = ReplicationChunk(arms, y_obs, X, moments, range(3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = chunk.fit(ESTIMATORS["opt_logit"], c)
        start = chunk.first_stage("logistic", "pi")[0]
    args = model_assisted._criterion_args(ImputationModel("logistic", k, 1), X, moments.D, c, n)
    eye = np.eye(len(start[0]))
    for b, y in enumerate(chunk.y_ipw[:, None]):
        if b in fit.errors:
            continue
        diagnostics = fit.diagnostics[b]
        theta = np.array(diagnostics["theta"])
        value, grad = _ridge_criterion(theta, y, args)
        assert np.abs(grad).max() <= 1e-12
        hess = model_assisted._criterion_hessian(theta[None], y, *args)[0]
        hess = hess + model_assisted.OPT_LOGIT_RIDGE * eye
        np.linalg.cholesky(hess - model_assisted.EIG_WARN_RATIO * diagnostics["hessian_max_eig"] * eye)
        assert value <= _ridge_criterion(start[b], y, args)[0]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    design=enumerable_designs(),
    mc_reps=st.none() | st.integers(2, 40),
    seed=st.integers(0, 99),
    zero_diag=st.booleans(),
)
def test_lanczos_top_eigenvalue_is_proven_and_equals_the_dense_one(design, mc_reps, seed, zero_diag):
    D = _exact_or_mc_moments(design, mc_reps, seed).D
    M = D.copy()
    if zero_diag:
        np.fill_diagonal(M, 0.0)
    dense = np.linalg.eigvalsh(M)[-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with patch.object(moments_module, "LANCZOS_MIN_KN", 0):  # every size takes Lanczos
            got = largest_eigenvalue(D, zero_diag=zero_diag)
        proven = _proven_top_eigenvalue(M)
    assert abs(got - dense) <= 1e-12 * max(1.0, abs(dense))
    # the proof holds unless eigsh has no Lanczos run (kn < 3) or no start (M = 0)
    assert (proven is None) == (len(M) < 3 or not M.any())
    assert proven is None or abs(proven - dense) <= 1e-12 * max(1.0, abs(dense))
