import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designest import network
from designest.designs import BernoulliDesign, CompletelyRandomizedDesign
from designest.linear import ReplicationChunk, linear_sample
from designest.moments import exact_moments, mc_moments
from designest.network import (
    ExposureRules,
    InterferenceGraph,
    derive_exposure_design,
    exposure_map,
    positivity_report,
    standard_binary_exposure_rules,
)


def path_graph(n):
    edges = [(i, i + 1) for i in range(n - 1)] + [(i + 1, i) for i in range(n - 1)]
    return InterferenceGraph(n, edges)


class TestGraph:
    def test_cleaning_drops_self_loops_and_duplicates(self):
        g = InterferenceGraph(3, [(0, 1), (0, 1), (1, 1), (2, 0)])
        assert len(g.edges) == 2

    def test_entries_that_are_not_pairs_are_rejected(self):
        with pytest.raises(ValueError, match=r"edges must be \(src, dst\) pairs"):
            InterferenceGraph(6, [[0, 1, 2], [3, 4, 5]])
        assert InterferenceGraph(2, []).edges.shape == (0, 2)

    def test_out_neighbor_default_vs_undirected(self):
        g = InterferenceGraph(3, [(0, 1)])
        assert g.degrees().tolist() == [1, 0, 0]
        assert g.degrees(undirected=True).tolist() == [1, 1, 0]

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src_id,dst_id\n0,1\n1,2\n")
        g = InterferenceGraph.from_csv(path, n=4)
        assert g.n == 4
        assert g.degrees().tolist() == [1, 1, 0, 0]

    def test_csv_drops_self_loops_and_duplicates_in_sorted_order(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("dst_id,src_id,weight\n0,2,1\n1,0,1\n\n1,0,2\n3,3,1\n1,2,1\n")
        g = InterferenceGraph.from_csv(path)
        assert g.n == 4
        assert g.edges.tolist() == [[0, 1], [2, 0], [2, 1]]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("src,dst_id\n0,1\n", "must have columns src_id,dst_id"),
            ("", "must have columns src_id,dst_id"),
            ("src_id,dst_id\n0,1\n2,9\n5,1\n", r"edge \(2,9\) outside unit range"),
            ("src_id,dst_id\n0,1\n2\n", "line 3 has too few fields"),
        ],
        ids=["missing_column", "empty", "outside_range", "short_row"],
    )
    def test_csv_errors(self, tmp_path, text, message):
        path = tmp_path / "edges.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            InterferenceGraph.from_csv(path, n=4)


class TestExposureRules:
    def test_standard_rules_validate(self):
        rules = standard_binary_exposure_rules()
        rules.validate_on_degrees([0, 1, 5])
        assert rules.labels == ["d11", "d10", "d01", "d00"]

    def test_non_exhaustive_detected(self):
        config = [
            {"label": "a", "own_arms": [1], "counts": {2: [0, 0]}},
            {"label": "b", "own_arms": [2], "counts": {}},
        ]
        rules = ExposureRules.from_config(config, base_k=2)
        with pytest.raises(ValueError, match="no exposure matches"):
            rules.validate_on_degrees([1])

    def test_overlap_detected(self):
        config = [
            {"label": "a", "own_arms": [1, 2], "counts": {}},
            {"label": "b", "own_arms": [2], "counts": {}},
        ]
        rules = ExposureRules.from_config(config, base_k=2)
        with pytest.raises(ValueError, match="overlap"):
            rules.validate_on_degrees([0])

    def test_match_all_on_a_batch_names_the_unmatched_entry(self):
        config = [
            {"label": "a", "own_arms": [1], "counts": {2: [0, 0]}},
            {"label": "b", "own_arms": [2], "counts": {}},
        ]
        rules = ExposureRules.from_config(config, base_k=2)
        own = np.array([[1, 0, 1], [0, 1, 0]])
        counts = np.zeros((2, 3, 2), dtype=np.int64)
        counts[0, 1] = [2, 0]
        counts[0, 2] = [0, 4]
        counts[1, 2] = [1, 3]  # own arm 1 (1-based) with a neighbor in arm 2
        with pytest.raises(ValueError, match=r"own arm 1 with counts \[1, 3\]$"):
            rules.match_all(own, counts)
        counts[1, 2] = [1, 0]
        assert rules.match_all(own, counts).tolist() == [[1, 0, 1], [0, 1, 0]]


def four_arm_session_rules():
    """Twelve exposure labels over four base sessions (two first-round,
    two second-round arms), expressed purely as configuration: second-round
    units are classified by their friends' first-round memberships."""
    rules = []
    rules.append({"label": "e01_frs", "own_arms": [1], "counts": {}})
    rules.append({"label": "e02_fri", "own_arms": [2], "counts": {}})
    for own, tag in ((3, "srs"), (4, "sri")):
        rules += [
            {"label": f"{tag}_none_first_round", "own_arms": [own],
             "counts": {1: [0, 0], 2: [0, 0]}},
            {"label": f"{tag}_frs_only", "own_arms": [own],
             "counts": {1: [1, None], 2: [0, 0]}},
            {"label": f"{tag}_one_fri", "own_arms": [own], "counts": {2: [1, 1]}},
            {"label": f"{tag}_two_fri", "own_arms": [own], "counts": {2: [2, 2]}},
            {"label": f"{tag}_many_fri", "own_arms": [own], "counts": {2: [3, None]}},
        ]
    return ExposureRules.from_config(rules, base_k=4)


class TestTwelveExposureTable:
    def test_exhaustive_and_exclusive_as_pure_configuration(self):
        rules = four_arm_session_rules()
        assert len(rules) == 12
        rules.validate_on_degrees(range(0, 6))

    def test_two_fri_friends_hand_count(self):
        # unit 0 nominates 1, 2, 3, 4; exactly two of them sit in the
        # second base arm while unit 0 is in the third
        g = InterferenceGraph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        rules = four_arm_session_rules()
        z = np.array([2, 1, 1, 0, 3])  # 0-based arms: unit0 in arm 3
        labels = exposure_map(z, g, rules)
        assert rules.labels[labels[0]] == "srs_two_fri"
        # the isolated-nominee units are first-round members
        assert rules.labels[labels[1]] == "e02_fri"
        assert rules.labels[labels[3]] == "e01_frs"

    def test_derived_design_moments_flow(self):
        g = InterferenceGraph(3, [(0, 1), (1, 2), (2, 0)])
        base = BernoulliDesign(3, [0.25, 0.25, 0.25, 0.25])
        design = derive_exposure_design(base, g, four_arm_session_rules())
        assert design.k == 12
        moments = exact_moments(design)
        per_unit = moments.pi.reshape(design.k, design.n).sum(axis=0)
        assert np.allclose(per_unit, 1.0, atol=1e-12)
        # degree-1 units can never have two or more first-round-intensive
        # friends, and that impossibility is provable from the degree
        mask = design.structural_zero_cells()
        two_fri = design.rules.labels.index("srs_two_fri")
        assert mask[two_fri * 3 : (two_fri + 1) * 3].all()


class TestExposureMap:
    def test_treated_with_treated_neighbor(self):
        g = InterferenceGraph(2, [(0, 1), (1, 0)])
        rules = standard_binary_exposure_rules()
        labels = exposure_map([1, 1], g, rules)
        assert [rules.labels[j] for j in labels] == ["d11", "d11"]

    def test_isolated_untreated_unit(self):
        g = InterferenceGraph(2, [])
        rules = standard_binary_exposure_rules()
        labels = exposure_map([0, 1], g, rules)
        assert rules.labels[labels[0]] == "d00"
        assert rules.labels[labels[1]] == "d10"

    def test_count_rule_on_hand_built_graph(self):
        # five units; unit 0 nominates 1,2,3; exposure "exactly two treated
        # friends while untreated" checked against a hand count
        g = InterferenceGraph(5, [(0, 1), (0, 2), (0, 3)])
        config = [
            {"label": "two_treated", "own_arms": [1], "counts": {2: [2, 2]}},
            {"label": "other_untreated", "own_arms": [1], "counts": {2: [0, 1]}},
            {"label": "other_untreated_many", "own_arms": [1], "counts": {2: [3, None]}},
            {"label": "treated", "own_arms": [2], "counts": {}},
        ]
        rules = ExposureRules.from_config(config, base_k=2)
        z = np.array([0, 1, 1, 0, 1])
        labels = exposure_map(z, g, rules)
        assert rules.labels[labels[0]] == "two_treated"
        assert rules.labels[labels[3]] == "other_untreated"

    def test_undirected_option_changes_counts(self):
        g = InterferenceGraph(2, [(0, 1)])
        rules = standard_binary_exposure_rules()
        z = np.array([1, 0])
        directed = exposure_map(z, g, rules)
        undirected = exposure_map(z, g, rules, undirected=True)
        assert rules.labels[directed[1]] == "d00"  # unit 1 nominates nobody
        assert rules.labels[undirected[1]] == "d01"  # but is nominated by treated 0


class TestDerivedDesign:
    def test_probability_product_for_isolated_direct_exposure(self):
        # unit with degree d: P(treated, no treated neighbors) = 1/2^(d+1)
        g = path_graph(4)  # degrees 1,2,2,1 (undirected path, both directions)
        base = BernoulliDesign(4, [0.5, 0.5])
        design = derive_exposure_design(base, g, standard_binary_exposure_rules())
        moments = exact_moments(design)
        d10 = design.rules.labels.index("d10")
        degrees = g.degrees()
        for i in range(4):
            expected = 0.5 * 0.5 ** degrees[i]
            assert moments.pi[d10 * 4 + i] == pytest.approx(expected, abs=1e-12)

    def test_degree_zero_unit_impossible_exposures(self):
        g = InterferenceGraph(3, [(0, 1), (1, 0)])  # unit 2 isolated
        base = BernoulliDesign(3, [0.5, 0.5])
        design = derive_exposure_design(base, g, standard_binary_exposure_rules())
        mask = design.structural_zero_cells()
        labels = design.rules.labels
        assert mask[labels.index("d11") * 3 + 2]
        assert mask[labels.index("d01") * 3 + 2]
        assert not mask[labels.index("d10") * 3 + 2]
        assert not mask[labels.index("d00") * 3 + 2]

    def test_exact_enumeration_matches_mc(self):
        g = path_graph(3)
        base = BernoulliDesign(3, [0.5, 0.5])
        design = derive_exposure_design(base, g, standard_binary_exposure_rules())
        exact = exact_moments(design)
        reps = 40_000
        mc = mc_moments(design, reps=reps, seed=77)
        live = exact.pi > 0
        se = np.sqrt(exact.pi[live] * (1 - exact.pi[live]) / reps)
        assert np.all(np.abs(mc.pi[live] - exact.pi[live]) <= 4 * se + 1e-9)

    def test_support_is_merged_and_normalized(self):
        g = path_graph(3)
        base = BernoulliDesign(3, [0.5, 0.5])
        design = derive_exposure_design(base, g, standard_binary_exposure_rules())
        table = design.enumerate_support()
        assert len(table) <= 8
        assert table.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_exposure_probabilities_sum_to_one_per_unit(self):
        g = path_graph(4)
        base = BernoulliDesign(4, [0.3, 0.7])
        design = derive_exposure_design(base, g, standard_binary_exposure_rules())
        moments = exact_moments(design)
        per_unit = moments.pi.reshape(design.k, design.n).sum(axis=0)
        assert np.allclose(per_unit, 1.0, atol=1e-12)

    def test_relabeling_equivariance(self):
        # permuting unit ids permutes exposures consistently
        base_edges = [(0, 1), (1, 2), (2, 0)]
        g = InterferenceGraph(3, base_edges)
        rules = standard_binary_exposure_rules()
        z = np.array([1, 0, 1])
        labels = exposure_map(z, g, rules)
        perm = np.array([2, 0, 1])  # new_id = perm[old_id]
        permuted_edges = [(perm[a], perm[b]) for a, b in base_edges]
        g2 = InterferenceGraph(3, permuted_edges)
        z2 = np.empty(3, dtype=int)
        z2[perm] = z
        labels2 = exposure_map(z2, g2, rules)
        assert np.array_equal(labels2[perm], labels)

    def test_hajek_population_z_ignores_impossible_cells(self):
        # the Hajek linearization centres at the mean over cells the design
        # can reach, so outcomes at zero-probability cells cannot move it
        g = InterferenceGraph(4, [(0, 1), (1, 0), (1, 2), (2, 1)])  # unit 3 isolated
        design = derive_exposure_design(
            BernoulliDesign(4, [0.5, 0.5]), g, standard_binary_exposure_rules()
        )
        moments = exact_moments(design)
        dead = moments.pi == 0
        assert dead.any()
        y = np.linspace(-1.0, 2.0, 16)
        shifted = np.where(dead, y + 5.0, y)
        X = np.zeros((4, 0))
        def population_z(y_full):
            return linear_sample("hajek", ReplicationChunk.population(X, y_full, moments)).z[0]

        z = population_z(y)
        assert np.allclose(population_z(shifted)[~dead], z[~dead])

    def test_crd_base_not_provable(self):
        g = InterferenceGraph(3, [(0, 1)])
        base = CompletelyRandomizedDesign(3, [1, 2])
        design = derive_exposure_design(base, g, standard_binary_exposure_rules())
        assert not design.structural_zero_cells().any()
        # enumeration still produces the exact zeros
        moments = exact_moments(design)
        assert moments.zero_mask.any()


class TestPositivityReport:
    def test_all_positive_design_clean(self):
        report = positivity_report(exact_moments(BernoulliDesign(3, [0.5, 0.5])))
        assert report.is_clean()

    def test_degree_zero_unit_flagged(self):
        g = InterferenceGraph(3, [(0, 1), (1, 0)])
        base = BernoulliDesign(3, [0.5, 0.5])
        design = derive_exposure_design(base, g, standard_binary_exposure_rules())
        report = positivity_report(exact_moments(design))
        labels = design.rules.labels
        assert (labels.index("d11"), 2) in report.zero_cells
        assert (labels.index("d01"), 2) in report.zero_cells

    def test_small_probability_flagged_on_enumerated_network(self, monkeypatch):
        # six units in a line: middle units need four specific neighbors,
        # so some exposures drop below the reporting threshold
        g = path_graph(6)
        base = BernoulliDesign(6, [0.5, 0.5])
        design = derive_exposure_design(base, g, standard_binary_exposure_rules())
        moments = exact_moments(design)
        monkeypatch.setattr(network, "POSITIVITY_THRESHOLD", 0.2)
        report = positivity_report(moments)
        d10 = design.rules.labels.index("d10")
        flagged = {(a, i) for a, i, _ in report.small_cells}
        for i in range(1, 5):  # interior units have degree 2: pi = 1/8 < 0.2
            assert (d10, i) in flagged
        assert report.zero_count == 0

    def test_lists_are_python_tuples_in_stacked_cell_order(self, monkeypatch):
        # the reference is the cell-by-cell loop that built the lists before
        with pytest.warns(RuntimeWarning, match="never hit"):  # zero cells, flagged
            moments = mc_moments(BernoulliDesign(7, [0.75, 0.05, 0.2]), reps=12, seed=3)
        monkeypatch.setattr(network, "POSITIVITY_THRESHOLD", 0.2)
        report = positivity_report(moments)
        zero = moments.zero_mask | moments.maybe_zero_mask
        zeros, smalls = [], []
        for a in range(moments.k):
            for i in range(moments.n):
                cell = a * moments.n + i
                if zero[cell]:
                    zeros.append((a, i))
                elif moments.pi[cell] < 0.2:
                    smalls.append((a, i, float(moments.pi[cell])))
        assert zeros and smalls
        assert report.zero_cells == zeros and report.small_cells == smalls
        assert all(type(v) is int for cell in report.zero_cells for v in cell)
        assert all(list(map(type, cell)) == [int, int, float] for cell in report.small_cells)


@pytest.mark.parametrize(
    "rule",
    [
        {"label": "bad", "own_arms": [3]},
        {"label": "bad", "own_arms": [0]},
        {"label": "bad", "own_arms": []},
        {"label": "bad", "own_arms": [2], "counts": {3: [0, None]}},
        {"label": "bad", "own_arms": [2], "counts": {2: [2, 1]}},
        {"label": "bad", "own_arms": [2], "counts": {2: [-1, 0]}},
    ],
    ids=["own_arm_above", "own_arm_zero", "no_own_arms", "count_arm_above",
         "empty_interval", "negative_lo"],
)
def test_rules_outside_the_base_arms_are_rejected(rule):
    config = [{"label": "ok", "own_arms": [1]}, rule]
    with pytest.raises(ValueError, match="exposure 'bad'"):
        ExposureRules.from_config(config, base_k=2)


# Scalar reference for the rule evaluator: one rule, one (own arm, counts).
def reference_matches(rule, own_arm, counts):
    if own_arm not in rule.own_arms:
        return False
    return all(
        counts[arm] >= lo and (hi is None or counts[arm] <= hi)
        for arm, lo, hi in rule.count_intervals
    )


def reference_match(rules, own_arm, counts):
    hits = [idx for idx, rule in enumerate(rules.rules) if reference_matches(rule, own_arm, counts)]
    if len(hits) == 1:
        return hits[0]
    where = f"own arm {own_arm + 1} with counts {list(counts)}"
    if not hits:
        raise ValueError(f"no exposure matches {where}")
    raise ValueError(f"rules {[rules.rules[h].label for h in hits]} overlap on {where}")


def reference_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in reference_compositions(total - head, parts - 1):
            yield (head, *tail)


def reference_neighbors(graph, undirected):
    neighbors = [set() for _ in range(graph.n)]
    for src, dst in graph.edges.tolist():
        neighbors[src].add(dst)
        if undirected:
            neighbors[dst].add(src)
    return neighbors


def reference_counts(z, neighbors, base_k):
    return [[sum(int(z[j]) == a for j in nbrs) for a in range(base_k)] for nbrs in neighbors]


def outcome(fn, *args):
    """fn's result, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def random_rule_config(rng, base_k, breakage):
    """An exhaustive, exclusive table (own arms grouped at random, each group
    split by intervals of one count arm), then broken by dropping a rule (a
    gap) or widening one (an overlap) for each entry of breakage."""
    arms = rng.permutation(base_k) + 1
    cuts = sorted(rng.choice(np.arange(1, base_k), size=rng.integers(0, base_k), replace=False))
    config = []
    for g, own in enumerate(np.split(arms, cuts)):
        count_arm = int(rng.integers(1, base_k + 1))
        starts = [0, *sorted(set(rng.integers(1, 4, size=rng.integers(0, 3)).tolist()))]
        for j, lo in enumerate(starts):
            hi = starts[j + 1] - 1 if j + 1 < len(starts) else None
            config.append({"label": f"g{g}_{j}", "own_arms": own.tolist(),
                           "counts": {count_arm: [lo, hi]}})
    for kind in breakage:
        victim = config[int(rng.integers(len(config)))]
        if kind == "gap" and len(config) > 1:
            config.remove(victim)
        elif kind == "overlap":
            (count_arm, (lo, hi)), = victim["counts"].items()
            victim["counts"] = {count_arm: [max(lo - 1, 0), None]}
    return config


def random_graph(rng, n):
    return InterferenceGraph(n, rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2)).tolist())


def rule_tables(seed, count=40):
    rng = np.random.default_rng(seed)
    tables = [standard_binary_exposure_rules(), four_arm_session_rules()]
    for t in range(count):
        base_k = int(rng.integers(2, 5))
        breakage = [(), ("gap",), ("overlap",), ("gap", "overlap"), ("gap", "gap")][t % 5]
        tables.append(ExposureRules.from_config(random_rule_config(rng, base_k, breakage), base_k))
    return rng, tables


class TestEvaluatorAgainstScalarReference:
    def test_match_all_labels_and_errors(self):
        rng, tables = rule_tables(101)
        raised = 0
        for rules in tables:
            n = int(rng.integers(4, 9))
            neighbors = reference_neighbors(random_graph(rng, n), bool(rng.integers(2)))
            own = rng.integers(0, rules.base_k, size=(6, n))
            counts = np.array([reference_counts(z, neighbors, rules.base_k) for z in own])
            expected = []
            for z, draw_counts in zip(own.tolist(), counts.tolist()):
                expected.append([outcome(reference_match, rules, a, c) for a, c in zip(z, draw_counts)])
            errors = [e for row in expected for e in row if isinstance(e, str)]
            got = outcome(rules.match_all, own, counts)
            if errors:
                raised += 1
                assert got == errors[0]
            else:
                assert got.tolist() == expected
        assert 0 < raised < len(tables)

    def test_validate_on_degrees_messages(self):
        rng, tables = rule_tables(202)

        def nested_loop(rules, degrees):
            for d in sorted(set(degrees)):
                for counts in reference_compositions(d, rules.base_k):
                    for own_arm in range(rules.base_k):
                        reference_match(rules, own_arm, counts)

        raised = 0
        for rules in tables:
            degrees = rng.integers(0, 6, size=3).tolist()
            expected = outcome(nested_loop, rules, degrees)
            raised += expected is not None
            assert outcome(rules.validate_on_degrees, degrees) == expected
        assert 0 < raised < len(tables)

    def test_structural_zero_cells(self):
        rng, tables = rule_tables(303)
        checked = 0
        for rules in tables:
            n = int(rng.integers(3, 8))
            graph = random_graph(rng, n)
            undirected = bool(rng.integers(2))
            probs = rng.random(rules.base_k) * (rng.random(rules.base_k) < 0.7)
            if probs.sum() == 0 or outcome(rules.validate_on_degrees, graph.degrees(undirected)):
                continue
            design = derive_exposure_design(
                BernoulliDesign(n, probs / probs.sum()), graph, rules, undirected
            )
            possible = probs > 0
            degrees = graph.degrees(undirected)
            expected = np.zeros(design.k * n, dtype=bool)
            for e, rule in enumerate(rules.rules):
                for i in range(n):
                    expected[e * n + i] = not any(
                        possible[own] and reference_matches(rule, own, counts)
                        for counts in reference_compositions(int(degrees[i]), rules.base_k)
                        if all(possible[a] or counts[a] == 0 for a in range(rules.base_k))
                        for own in range(rules.base_k)
                    )
            assert np.array_equal(design.structural_zero_cells(), expected)
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize(
        "n, probs, rules, undirected",
        [
            (13, [0.3, 0.7], standard_binary_exposure_rules(), False),  # 8192 > one MC block
            (5, [0.1, 0.2, 0.3, 0.4], four_arm_session_rules(), True),
        ],
    )
    def test_enumerate_support_equals_dict_merge(self, n, probs, rules, undirected):
        rng = np.random.default_rng(n)
        graph = random_graph(rng, n)
        base = BernoulliDesign(n, probs)
        table = derive_exposure_design(base, graph, rules, undirected).enumerate_support()
        base_table = base.enumerate_support()
        neighbors = reference_neighbors(graph, undirected)
        merged = {}
        for z, prob in zip(base_table.realizations, base_table.probabilities):
            counts = reference_counts(z, neighbors, rules.base_k)
            key = tuple(reference_match(rules, int(z[i]), counts[i]) for i in range(n))
            merged[key] = merged.get(key, 0.0) + prob
        rows = np.array(sorted(merged), dtype=np.int64)
        assert table.realizations.tobytes() == rows.tobytes()
        assert table.probabilities.tobytes() == np.array([merged[tuple(r)] for r in rows]).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    base_k=st.sampled_from([2, 3, 4]),
    n=st.integers(1, 9),
    undirected=st.booleans(),
    zero_arm=st.booleans(),
    breakage=st.sampled_from([(), (), ("gap",), ("overlap",)]),
)
def test_label_table_equals_exposure_map(seed, base_k, n, undirected, zero_arm, breakage):
    """An exposure design's table labels are exposure_map's on the same base
    draws, and a broken rule table fails construction with
    validate_on_degrees' message."""
    rng = np.random.default_rng(seed)
    rules = ExposureRules.from_config(random_rule_config(rng, base_k, breakage), base_k)
    graph = random_graph(rng, n)
    probs = rng.integers(1, 5, size=base_k).astype(float)
    if zero_arm:
        probs[rng.integers(base_k)] = 0.0
    base = BernoulliDesign(n, probs / probs.sum())
    expected = outcome(rules.validate_on_degrees, graph.degrees(undirected))
    design = outcome(derive_exposure_design, base, graph, rules, undirected)
    if expected is not None:
        assert design == expected
        return
    size = int(rng.integers(1, 50))
    labels = design.sample_batch(np.random.default_rng(seed), size)
    base_arms = base.sample_batch(np.random.default_rng(seed), size)
    assert labels.dtype == np.int64
    assert np.array_equal(labels, exposure_map(base_arms, graph, rules, undirected))
