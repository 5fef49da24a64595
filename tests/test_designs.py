import math
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from designest.designs import (
    AssignmentRealization,
    BernoulliDesign,
    ClusteredDesign,
    CompletelyRandomizedDesign,
    StratifiedDesign,
    SupportTable,
    SupportTooLargeError,
    _multiset_permutations,
    build_design,
    counts_from_pattern,
    counts_from_proportions,
    read_group_csv,
    stream_rng,
)
from test_properties import enumerable_designs


def test_realization_indicator_is_arm_major():
    r = AssignmentRealization(n=3, k=2, arm_of=[1, 0, 1])
    ind = r.indicator()
    assert ind.tolist() == [0, 1, 0, 1, 0, 1]
    assert ind.sum() == 3


def test_realization_rejects_bad_arm():
    with pytest.raises(ValueError):
        AssignmentRealization(n=2, k=2, arm_of=[0, 2])


def test_crd_counts_must_sum():
    with pytest.raises(ValueError):
        CompletelyRandomizedDesign(10, [4, 5])


def test_crd_every_draw_respects_counts():
    design = CompletelyRandomizedDesign(4, [2, 2])
    for seed in range(5):
        r = design.sample(stream_rng(seed))
        assert np.bincount(r.arm_of, minlength=2).tolist() == [2, 2]


def test_bernoulli_degenerate_prob():
    design = BernoulliDesign(1, [1.0, 0.0])
    for seed in range(3):
        assert design.sample(stream_rng(seed)).arm_of[0] == 0


def test_bernoulli_four_arms_quarter_probs():
    design = BernoulliDesign(3, [0.25, 0.25, 0.25, 0.25])
    assert design.k == 4
    assert design.support_size() == 4**3


def test_crd_marginal_probability_monte_carlo():
    # analytic P(unit 0 in arm 0) = 4/10
    design = CompletelyRandomizedDesign(10, [4, 6])
    rng = stream_rng(2024)
    hits = sum(design.sample(rng).arm_of[0] == 0 for _ in range(100_000))
    assert abs(hits / 100_000 - 0.4) < 0.005


def test_enumerate_crd_n2():
    table = CompletelyRandomizedDesign(2, [1, 1]).enumerate_support()
    assert len(table) == 2
    assert np.allclose(table.probabilities, 0.5)


def test_enumerate_bernoulli_half():
    table = BernoulliDesign(2, [0.5, 0.5]).enumerate_support()
    assert len(table) == 4
    assert np.allclose(table.probabilities, 0.25)


def test_enumerate_crd_10_4_matches_combination_oracle():
    # independent oracle: choose the treated set directly
    design = CompletelyRandomizedDesign(10, [4, 6])
    table = design.enumerate_support()
    assert len(table) == math.comb(10, 4)
    assert np.allclose(table.probabilities, 1.0 / math.comb(10, 4))
    expected = set()
    for treated in combinations(range(10), 4):
        row = [1] * 10
        for u in treated:
            row[u] = 0
        expected.add(tuple(row))
    assert {tuple(r) for r in table.realizations} == expected


@pytest.mark.parametrize(
    "counts", [[1, 1], [3, 2], [0, 4], [4, 0], [2, 2, 2], [1, 3, 2], [0, 2, 1], [2, 1, 1]]
)
def test_multiset_permutations_match_sorted_unique_permutations(counts):
    labels = np.repeat(np.arange(len(counts)), counts).tolist()
    reference = np.array(sorted(set(permutations(labels))), dtype=np.int64)
    rows = _multiset_permutations(counts)
    assert rows.dtype == np.int64 and rows.flags.c_contiguous
    assert rows.shape == reference.shape
    assert rows.tobytes() == reference.tobytes()


def test_crd_enumeration_rows_are_lexicographic_label_arrangements():
    table = CompletelyRandomizedDesign(5, [2, 1, 2]).enumerate_support()
    reference = sorted(set(permutations([0, 0, 1, 2, 2])))
    assert table.realizations.tolist() == [list(row) for row in reference]
    assert np.allclose(table.probabilities, 1.0 / len(reference))


def test_support_table_rejects_duplicate_rows():
    rows = np.array([[0, 1, 1], [1, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError, match="duplicate realizations"):
        SupportTable(rows, np.full(3, 1.0 / 3.0), n=3, k=2)
    SupportTable(rows[:2], np.full(2, 0.5), n=3, k=2)  # distinct rows are accepted


def test_enumeration_cap_raises():
    with pytest.raises(SupportTooLargeError):
        BernoulliDesign(30, [0.5, 0.5]).enumerate_support(cap=1000)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(design=enumerable_designs(), seed=st.integers(0, 99))
def test_empirical_support_frequencies_match_probabilities(design, seed):
    # invariant: sample_batch draws only support points, each at its exact
    # probability within Monte-Carlo error: a chi-square test of the draws'
    # counts over the support at p-value 1e-6, the points expected fewer
    # than 5 times pooled into one bin
    table = design.enumerate_support()
    reps = 20_000
    draws = design.sample_batch(stream_rng(seed), reps)
    # a block's first row is the draw of one sample call on the same stream
    assert np.array_equal(draws[0], design.sample(stream_rng(seed)).arm_of)
    digits = design.k ** np.arange(design.n)  # each row as one integer
    codes, hits = np.unique(draws @ digits, return_counts=True)
    counts = dict(zip(codes.tolist(), hits.tolist()))
    observed = np.array([counts.pop(code, 0) for code in (table.realizations @ digits).tolist()])
    assert not counts  # no draw outside the support
    expected = reps * table.probabilities
    rare = expected < 5
    observed = np.append(observed[~rare], observed[rare].sum())
    expected = np.append(expected[~rare], expected[rare].sum())
    observed, expected = observed[expected > 0], expected[expected > 0]
    statistic = np.sum((observed - expected) ** 2 / expected)
    assert chi2.sf(statistic, max(len(expected) - 1, 1)) > 1e-6  # one bin: nothing to test


def test_enumeration_exchange_symmetric_under_relabeling():
    # relabeling units permutes support rows but not the probability values
    design = CompletelyRandomizedDesign(4, [1, 3])
    table = design.enumerate_support()
    perm = [2, 0, 3, 1]
    permuted = {tuple(row[perm]) for row in table.realizations}
    assert permuted == {tuple(row) for row in table.realizations}
    assert len(set(np.round(table.probabilities, 15))) == 1


def test_stratified_partition_validation():
    with pytest.raises(ValueError):
        StratifiedDesign(4, [[0, 1], []], [[1, 1], [0, 0]])
    with pytest.raises(ValueError):
        StratifiedDesign(4, [[0, 1], [1, 2, 3]], [[1, 1], [2, 1]])


def test_stratified_remainder_rule_descending_arms():
    # 4 arms, equal proportions: first remainder goes to arm 4, then 3, then 2
    assert counts_from_proportions(4, [0.25] * 4).tolist() == [1, 1, 1, 1]
    assert counts_from_proportions(5, [0.25] * 4).tolist() == [1, 1, 1, 2]
    assert counts_from_proportions(6, [0.25] * 4).tolist() == [1, 1, 2, 2]
    assert counts_from_proportions(7, [0.25] * 4).tolist() == [1, 2, 2, 2]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_probabilities_and_proportions_are_rejected(bad):
    # a NaN used to pass both sum-to-one checks
    with pytest.raises(ValueError, match=r"arm probabilities must lie in \[0, 1\]"):
        BernoulliDesign(4, [1.0, bad])
    with pytest.raises(ValueError, match="proportions must sum to 1"):
        counts_from_proportions(4, [0.5, bad])


def test_pattern_counts_follow_repeated_prefix():
    pattern = [4, 3, 2, 1, 4, 3, 4, 3, 4, 3]
    assert counts_from_pattern(10, pattern, 4).tolist() == [1, 1, 4, 4]
    # 12 units: wrap to the start of the pattern
    assert counts_from_pattern(12, pattern, 4).tolist() == [1, 1, 5, 5]
    assert counts_from_pattern(3, pattern, 4).tolist() == [0, 1, 1, 1]


def test_a_pattern_spec_gives_each_stratum_its_pattern_counts():
    strata = [[0, 3, 5], [1, 2, 4, 6, 7, 8, 9], [10]]
    pattern = [3, 1, 3, 2]
    design = build_design({"kind": "stratified", "strata": strata, "pattern": pattern, "k": 3})
    assert design.k == 3
    for units, counts in zip(strata, design.counts_by_stratum):
        assert counts.tolist() == counts_from_pattern(len(units), pattern, 3).tolist()
    assert [c.tolist() for c in design.counts_by_stratum] == [[1, 0, 2], [2, 1, 4], [0, 0, 1]]


def test_stratified_sampling_respects_strata():
    design = StratifiedDesign(5, [[0, 1, 2], [3, 4]], [[1, 2], [1, 1]])
    r = design.sample(stream_rng(1))
    assert np.bincount(r.arm_of[:3], minlength=2).tolist() == [1, 2]
    assert np.bincount(r.arm_of[3:], minlength=2).tolist() == [1, 1]


def test_stratified_enumeration_is_product_of_strata():
    design = StratifiedDesign(4, [[0, 1], [2, 3]], [[1, 1], [1, 1]])
    table = design.enumerate_support()
    assert len(table) == 4
    assert np.allclose(table.probabilities, 0.25)


def test_clustered_broadcasts_cluster_assignment():
    design = ClusteredDesign(5, [0, 0, 1, 1, 2], CompletelyRandomizedDesign(3, [1, 2]))
    r = design.sample(stream_rng(3))
    assert r.arm_of[0] == r.arm_of[1]
    assert r.arm_of[2] == r.arm_of[3]
    table = design.enumerate_support()
    assert len(table) == 3


def test_build_design_from_config():
    design = build_design({"kind": "completely_randomized", "n": 10, "counts": [4, 6]})
    assert design.k == 2
    design = build_design({"kind": "bernoulli", "n": 3, "probs": [0.25, 0.25, 0.25, 0.25]})
    assert design.k == 4
    with pytest.raises(ValueError):
        build_design({"kind": "bernoulli", "n": 2, "probs": [0.5, 0.6]})
    with pytest.raises(ValueError):
        build_design({"kind": "nope"})


def test_group_csv_roundtrip(tmp_path):
    path = tmp_path / "strata.csv"
    path.write_text("unit_id,group_id\n3,b\n1,a\n2,a\n0,b\n")
    unit_ids, groups = read_group_csv(path)
    assert unit_ids.tolist() == [0, 1, 2, 3]
    assert [g.tolist() for g in groups] == [[1, 2], [0, 3]]


def test_build_stratified_design_from_csv(tmp_path):
    path = tmp_path / "strata.csv"
    path.write_text("unit_id,group_id\n0,a\n1,a\n2,a\n3,b\n4,b\n5,b\n")
    design = build_design(
        {"kind": "stratified", "strata_csv": str(path), "proportions": [0.5, 0.5]}
    )
    assert design.n == 6 and design.k == 2
    r = design.sample(stream_rng(0))
    assert np.bincount(r.arm_of[:3], minlength=2).tolist() == [1, 2]


def test_stratum_counts_follow_group_id_string_order(tmp_path):
    # ids 1..10 sort as strings: 1, 10, 2, ..., 9; stratum "10" has 6 units
    path = tmp_path / "strata.csv"
    rows = [(unit, 10 if unit < 6 else (unit - 6) // 2 + 1) for unit in range(24)]
    path.write_text("unit_id,group_id\n" + "".join(f"{u},{g}\n" for u, g in rows))
    order = sorted(range(1, 11), key=str)
    counts = [[3, 3] if group == 10 else [1, 1] for group in order]
    design = build_design({"kind": "stratified", "strata_csv": str(path), "counts": counts})
    assert design.strata[1].tolist() == list(range(6))  # stratum "10"
    assert [c.tolist() for c in design.counts_by_stratum] == counts
    numeric = [[3, 3] if group == 10 else [1, 1] for group in range(1, 11)]
    with pytest.raises(ValueError, match=r"counts of stratum 1 \(0-based\) sum to 2, but the stratum has 6"):
        build_design({"kind": "stratified", "strata_csv": str(path), "counts": numeric})


def test_build_clustered_design_from_csv(tmp_path):
    path = tmp_path / "clusters.csv"
    path.write_text("unit_id,group_id\n0,x\n1,x\n2,y\n3,y\n")
    design = build_design(
        {
            "kind": "clustered",
            "cluster_csv": str(path),
            "cluster_design": {"kind": "completely_randomized", "n": 2, "counts": [1, 1]},
        }
    )
    r = design.sample(stream_rng(1))
    assert r.arm_of[0] == r.arm_of[1]
    assert r.arm_of[2] == r.arm_of[3]


def test_structural_zero_cells():
    design = CompletelyRandomizedDesign(3, [0, 3])
    mask = design.structural_zero_cells()
    assert mask.tolist() == [True] * 3 + [False] * 3


def test_sample_batch_rows_are_successive_sample_draws(design_of_each_kind):
    design = design_of_each_kind
    batch = design.sample_batch(stream_rng(17), 25)
    rng = stream_rng(17)
    draws = np.stack([design.sample(rng).arm_of for _ in range(25)])
    assert batch.dtype == np.int64 and batch.shape == (25, design.n)
    assert batch.tobytes() == draws.tobytes()
