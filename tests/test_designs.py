import math
from itertools import combinations

import numpy as np
import pytest

from designest.designs import (
    AssignmentRealization,
    BernoulliDesign,
    ClusteredDesign,
    CompletelyRandomizedDesign,
    StratifiedDesign,
    SupportTooLargeError,
    build_design,
    counts_from_pattern,
    counts_from_proportions,
    enumerate_support,
    read_group_csv,
    sample_assignment,
    stream_rng,
)


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
        r = sample_assignment(design, stream_rng(seed))
        assert np.bincount(r.arm_of, minlength=2).tolist() == [2, 2]


def test_bernoulli_degenerate_prob():
    design = BernoulliDesign(1, [1.0, 0.0])
    for seed in range(3):
        assert sample_assignment(design, stream_rng(seed)).arm_of[0] == 0


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
    table = enumerate_support(CompletelyRandomizedDesign(2, [1, 1]))
    assert len(table) == 2
    assert np.allclose(table.probabilities, 0.5)


def test_enumerate_bernoulli_half():
    table = enumerate_support(BernoulliDesign(2, [0.5, 0.5]))
    assert len(table) == 4
    assert np.allclose(table.probabilities, 0.25)


def test_enumerate_crd_10_4_matches_combination_oracle():
    # independent oracle: choose the treated set directly
    design = CompletelyRandomizedDesign(10, [4, 6])
    table = enumerate_support(design)
    assert len(table) == math.comb(10, 4)
    assert np.allclose(table.probabilities, 1.0 / math.comb(10, 4))
    expected = set()
    for treated in combinations(range(10), 4):
        row = [1] * 10
        for u in treated:
            row[u] = 0
        expected.add(tuple(row))
    assert {tuple(r) for r in table.realizations} == expected


def test_enumeration_cap_raises():
    with pytest.raises(SupportTooLargeError):
        enumerate_support(BernoulliDesign(30, [0.5, 0.5]), cap=1000)


def test_empirical_support_frequencies_match_probabilities():
    # invariant: a large sample hits every support point at its exact
    # probability within Monte-Carlo error
    design = CompletelyRandomizedDesign(5, [2, 3])
    table = enumerate_support(design)
    rng = stream_rng(7)
    reps = 1_000_000
    counts = {}
    for _ in range(reps):
        key = tuple(design.sample(rng).arm_of)
        counts[key] = counts.get(key, 0) + 1
    for row, prob in zip(table.realizations, table.probabilities):
        freq = counts.get(tuple(row), 0) / reps
        se = math.sqrt(prob * (1 - prob) / reps)
        assert abs(freq - prob) < 3 * se + 1e-12


def test_enumeration_exchange_symmetric_under_relabeling():
    # relabeling units permutes support rows but not the probability values
    design = CompletelyRandomizedDesign(4, [1, 3])
    table = enumerate_support(design)
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


def test_pattern_counts_follow_repeated_prefix():
    pattern = [4, 3, 2, 1, 4, 3, 4, 3, 4, 3]
    assert counts_from_pattern(10, pattern, 4).tolist() == [1, 1, 4, 4]
    # 12 units: wrap to the start of the pattern
    assert counts_from_pattern(12, pattern, 4).tolist() == [1, 1, 5, 5]
    assert counts_from_pattern(3, pattern, 4).tolist() == [0, 1, 1, 1]


def test_stratified_sampling_respects_strata():
    design = StratifiedDesign(5, [[0, 1, 2], [3, 4]], [[1, 2], [1, 1]])
    r = design.sample(stream_rng(1))
    assert np.bincount(r.arm_of[:3], minlength=2).tolist() == [1, 2]
    assert np.bincount(r.arm_of[3:], minlength=2).tolist() == [1, 1]


def test_stratified_enumeration_is_product_of_strata():
    design = StratifiedDesign(4, [[0, 1], [2, 3]], [[1, 1], [1, 1]])
    table = enumerate_support(design)
    assert len(table) == 4
    assert np.allclose(table.probabilities, 0.25)


def test_clustered_broadcasts_cluster_assignment():
    design = ClusteredDesign(5, [0, 0, 1, 1, 2], CompletelyRandomizedDesign(3, [1, 2]))
    r = design.sample(stream_rng(3))
    assert r.arm_of[0] == r.arm_of[1]
    assert r.arm_of[2] == r.arm_of[3]
    table = enumerate_support(design)
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
