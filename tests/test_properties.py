"""Property tests over random small designs of every enumerable kind.

One ReplicationChunk holds the whole enumerated support, so the
probability-weighted mean of a table estimator over its rows is its exact
design expectation: HT must hit the arm means and its plug-in bound must
hit v'D~v/n^2, each to rounding.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from designest.bounds import NotIdentifiedError, aronow_samii_bound, build_bound, certify_bound
from designest.designs import (
    BernoulliDesign,
    ClusteredDesign,
    CompletelyRandomizedDesign,
    StratifiedDesign,
)
from designest.harness import ESTIMATORS, ReplicationChunk
from designest.linear import intercept_matrix, plugin_raw, plugin_varbound
from designest.moments import closed_form_or_exact_moments, exact_moments, mc_moments
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
    fit = chunk.fit(ESTIMATORS["ht"], c, None)
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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(design=enumerable_designs())
def test_aronow_samii_bound_certifies_valid_and_identified(design):
    moments = exact_moments(design)
    bound, _ = _bound_or_error(moments)
    if isinstance(bound, NotIdentifiedError):  # it builds unless a cell is never observed
        assert moments.zero_mask.any()
        return
    cert = certify_bound(moments, bound)
    assert cert.psd_ok and cert.identified_ok


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(design=enumerable_designs(), mc_reps=st.none() | st.integers(2, 40), seed=st.integers(0, 99))
def test_observed_block_plugin_is_bitwise_the_full_bounds(design, mc_reps, seed):
    n, k = design.n, design.k
    if mc_reps is None:
        moments = exact_moments(design)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # never-hit cells
            moments = mc_moments(design, mc_reps, seed)
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
