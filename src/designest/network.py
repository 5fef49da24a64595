"""Interference graphs, exposure mappings, and exposure-derived designs.

An exposure mapping turns a base assignment vector plus a unit's network
neighborhood into an effective treatment label; the derived design over
those labels plugs straight back into the moments/estimation machinery.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .designs import BernoulliDesign, Design, check_arms
from .moments import DesignMoments

POSITIVITY_THRESHOLD = 0.01


class InterferenceGraph:
    """Directed nomination graph; self-loops and duplicate edges are
    dropped on construction."""

    def __init__(self, n: int, edges):
        self.n = int(n)
        cleaned = set()
        for src, dst in edges:
            src, dst = int(src), int(dst)
            if src == dst:
                continue
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"edge ({src},{dst}) outside unit range")
            cleaned.add((src, dst))
        self.edges = np.array(sorted(cleaned), dtype=np.int64).reshape(-1, 2)
        data = np.ones(len(self.edges))
        self.adjacency = sparse.csr_matrix(
            (data, (self.edges[:, 0], self.edges[:, 1])), shape=(n, n)
        )

    @classmethod
    def from_csv(cls, path, n: int | None = None, unit_ids=None):
        """Edge list CSV with columns src_id,dst_id.

        With unit_ids (the sorted ids of the units, as kept by a design read
        from a strata or cluster CSV) each id is mapped to its unit position
        and an unknown id is an error; without them ids are 0-based unit
        positions.
        """
        edges = []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or {"src_id", "dst_id"} - set(reader.fieldnames):
                raise ValueError("edge CSV must have columns src_id,dst_id")
            for row in reader:
                edges.append((int(row["src_id"]), int(row["dst_id"])))
        if unit_ids is not None:
            position = {int(u): i for i, u in enumerate(unit_ids)}
            unknown = sorted({u for edge in edges for u in edge} - position.keys())
            if unknown:
                raise ValueError(f"edge CSV names unknown unit_id {', '.join(map(str, unknown))}")
            edges = [(position[a], position[b]) for a, b in edges]
            n = len(position) if n is None else n
        if n is None:
            n = 1 + max(max(e) for e in edges) if edges else 0
        return cls(n, edges)

    def neighbor_matrix(self, undirected: bool = False) -> sparse.csr_matrix:
        """Row i selects the units whose assignments unit i is exposed to:
        out-neighbors by default (the units i nominated), optionally the
        union of both directions."""
        if not undirected:
            return self.adjacency
        sym = self.adjacency + self.adjacency.T
        sym.data = np.ones_like(sym.data)
        return sym.tocsr()

    def degrees(self, undirected: bool = False) -> np.ndarray:
        return np.asarray(
            self.neighbor_matrix(undirected).sum(axis=1), dtype=np.int64
        ).ravel()

    def weak_components(self) -> np.ndarray:
        """Component label per unit, ignoring edge direction."""
        n_comp, labels = sparse.csgraph.connected_components(
            self.adjacency, directed=True, connection="weak"
        )
        return labels


@dataclass(frozen=True)
class ExposureRule:
    """One exposure label: own base arm in a set, and per-base-arm
    neighbor-count intervals (upper bound None means unbounded)."""

    label: str
    own_arms: frozenset
    count_intervals: tuple  # ((arm, lo, hi_or_None), ...)

    def matches(self, own_arm: int, counts) -> bool:
        if own_arm not in self.own_arms:
            return False
        for arm, lo, hi in self.count_intervals:
            value = counts[arm]
            if value < lo:
                return False
            if hi is not None and value > hi:
                return False
        return True


class ExposureRules:
    """Ordered exposure definitions; validated to be exhaustive and
    mutually exclusive over every (own arm, neighbor-count profile) that a
    given graph can produce."""

    def __init__(self, rules: list[ExposureRule], base_k: int):
        if not rules:
            raise ValueError("at least one exposure rule required")
        labels = [r.label for r in rules]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate exposure labels")
        self.rules = list(rules)
        self.base_k = int(base_k)

    def __len__(self):
        return len(self.rules)

    @property
    def labels(self):
        return [r.label for r in self.rules]

    @classmethod
    def from_config(cls, config, base_k: int) -> "ExposureRules":
        """Rules as data: a list of mappings with keys label, own_arms
        (1-based base arms), counts ({arm: [lo, hi]} with hi null for
        unbounded)."""
        rules = []
        for item in config:
            intervals = []
            for arm, interval in sorted(item.get("counts", {}).items()):
                lo, hi = interval
                intervals.append((int(arm) - 1, int(lo), None if hi is None else int(hi)))
            rules.append(
                ExposureRule(
                    label=str(item["label"]),
                    own_arms=frozenset(int(a) - 1 for a in item["own_arms"]),
                    count_intervals=tuple(intervals),
                )
            )
        return cls(rules, base_k)

    def match(self, own_arm: int, counts) -> int:
        hits = [idx for idx, rule in enumerate(self.rules) if rule.matches(own_arm, counts)]
        if len(hits) == 1:
            return hits[0]
        if not hits:
            raise ValueError(
                f"no exposure matches own arm {own_arm + 1} with counts {list(counts)}"
            )
        raise ValueError(
            f"rules {[self.rules[h].label for h in hits]} overlap on own arm "
            f"{own_arm + 1} with counts {list(counts)}"
        )

    def match_all(self, own_arms: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Vectorized matching of (..., n) own arms with (..., n, base_k)
        neighbor counts to (..., n) labels; any entry matched by no rule or
        by several raises with that entry's own arm and counts."""
        own_arms = np.asarray(own_arms)
        hit_count = np.zeros(own_arms.shape, dtype=np.int64)
        labels = np.zeros(own_arms.shape, dtype=np.int64)
        for idx, rule in enumerate(self.rules):
            ok = np.isin(own_arms, list(rule.own_arms))
            for arm, lo, hi in rule.count_intervals:
                ok &= counts[..., arm] >= lo
                if hi is not None:
                    ok &= counts[..., arm] <= hi
            hit_count += ok
            labels[ok] = idx
        if np.any(hit_count != 1):
            bad = np.unravel_index(np.flatnonzero(hit_count != 1)[0], hit_count.shape)
            self.match(int(own_arms[bad]), counts[bad].tolist())  # raises with details
        return labels

    def validate_on_degrees(self, degrees):
        """Check exhaustiveness and exclusivity over all count compositions
        realizable at the given degrees."""
        for d in sorted(set(int(d) for d in degrees)):
            for counts in _compositions(d, self.base_k):
                for own_arm in range(self.base_k):
                    self.match(own_arm, counts)  # raises on gaps/overlaps

    def feasible(self, exposure_idx: int, degree: int, arm_possible) -> bool:
        """Whether any (own arm, composition of the degree) satisfies the
        rule, given which base arms are possible at all."""
        rule = self.rules[exposure_idx]
        if not any(arm_possible[a] for a in rule.own_arms):
            return False
        for counts in _compositions(int(degree), self.base_k):
            if any(counts[a] > 0 and not arm_possible[a] for a in range(self.base_k)):
                continue
            for own_arm in rule.own_arms:
                if arm_possible[own_arm] and rule.matches(own_arm, counts):
                    return True
        return False


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head, *tail)


def standard_binary_exposure_rules() -> ExposureRules:
    """The four-label direct/indirect classification for a two-arm base:
    own treatment crossed with having any treated neighbor."""
    config = [
        {"label": "d11", "own_arms": [2], "counts": {2: [1, None]}},
        {"label": "d10", "own_arms": [2], "counts": {2: [0, 0]}},
        {"label": "d01", "own_arms": [1], "counts": {2: [1, None]}},
        {"label": "d00", "own_arms": [1], "counts": {2: [0, 0]}},
    ]
    return ExposureRules.from_config(config, base_k=2)


def exposure_map(
    Z: np.ndarray,
    graph: InterferenceGraph,
    rules: ExposureRules,
    undirected: bool = False,
) -> np.ndarray:
    """Per-unit exposure labels (0-based indices into the rule list) for a
    base assignment vector."""
    Z = np.asarray(Z, dtype=np.int64)
    counts = _neighbor_counts(Z, graph.neighbor_matrix(undirected), rules.base_k)
    return rules.match_all(Z, counts)


def _neighbor_counts(Z, neighbors, base_k):
    """(..., n, base_k) counts of each unit's neighbors in each base arm for
    (..., n) base arms, from one sparse product over the whole batch."""
    n = neighbors.shape[0]
    columns = Z.reshape(-1, n).T  # (n, draws)
    onehot = (columns[:, :, None] == np.arange(base_k)).astype(float)
    counts = neighbors @ onehot.reshape(n, -1)
    counts = np.asarray(counts, dtype=np.int64).reshape(n, -1, base_k)
    return counts.transpose(1, 0, 2).reshape(*Z.shape, base_k)


class ExposureDerivedDesign(Design):
    """Design over exposure labels induced by a base design and a graph."""

    kind = "exposure_derived"

    def __init__(
        self,
        base: Design,
        graph: InterferenceGraph,
        rules: ExposureRules,
        undirected: bool = False,
    ):
        if graph.n != base.n:
            raise ValueError("graph and base design must cover the same units")
        if rules.base_k != base.k:
            raise ValueError("rules are defined over a different number of base arms")
        rules.validate_on_degrees(graph.degrees(undirected))
        self.base = base
        self.graph = graph
        self.rules = rules
        self.undirected = undirected
        self.n = base.n
        self.k = len(rules)
        self._neighbors = graph.neighbor_matrix(undirected)

    def sample_batch(self, rng, size):
        base_arms = check_arms(self.base.sample_batch(rng, size), (size, self.n), self.base.k)
        return self._map(base_arms)

    def _map(self, z):
        z = np.asarray(z, dtype=np.int64)
        return self.rules.match_all(z, _neighbor_counts(z, self._neighbors, self.base.k))

    def support_size(self):
        return self.base.support_size()

    def _enumerate(self):
        from .designs import SupportTable

        base_table = self.base.enumerate_support()
        merged: dict[tuple, float] = {}
        for row, prob in zip(base_table.realizations, base_table.probabilities):
            key = tuple(self._map(row))
            merged[key] = merged.get(key, 0.0) + prob
        rows = np.array(sorted(merged), dtype=np.int64)
        probs = np.array([merged[tuple(r)] for r in rows])
        return SupportTable(rows, probs, self.n, self.k)

    def structural_zero_cells(self) -> np.ndarray:
        """Provable impossibility: under an independent base with known
        positive arms, an exposure is impossible for a unit exactly when no
        (own arm, neighbor composition of its degree) satisfies the rule.
        Non-independent bases are left to enumeration or flagged as
        possibly-zero downstream."""
        mask = np.zeros(self.n * self.k, dtype=bool)
        if not isinstance(self.base, BernoulliDesign):
            return mask
        arm_possible = self.base.probs > 0
        degrees = self.graph.degrees(self.undirected)
        feasible_by_degree: dict[tuple, bool] = {}
        for e in range(self.k):
            for i in range(self.n):
                key = (e, int(degrees[i]))
                if key not in feasible_by_degree:
                    feasible_by_degree[key] = self.rules.feasible(e, degrees[i], arm_possible)
                if not feasible_by_degree[key]:
                    mask[e * self.n + i] = True
        return mask


def derive_exposure_design(
    base: Design,
    graph: InterferenceGraph,
    rules: ExposureRules,
    undirected: bool = False,
) -> ExposureDerivedDesign:
    """Compose a base design with an exposure mapping into a k-arm design
    over the exposure labels."""
    return ExposureDerivedDesign(base, graph, rules, undirected)


@dataclass
class PositivityReport:
    """Units and exposure arms with zero or small inclusion probabilities."""

    zero_cells: list  # (arm_label_index, unit)
    small_cells: list  # (arm_label_index, unit, pi)
    threshold: float

    @property
    def zero_count(self) -> int:
        return len(self.zero_cells)

    @property
    def small_count(self) -> int:
        return len(self.small_cells)

    def is_clean(self) -> bool:
        return not self.zero_cells and not self.small_cells


def positivity_report(
    moments: DesignMoments, threshold: float = POSITIVITY_THRESHOLD
) -> PositivityReport:
    """List cells with pi = 0 (proven or unhit) or pi below the threshold."""
    zero = moments.zero_mask | moments.maybe_zero_mask
    zeros = []
    smalls = []
    for a in range(moments.k):
        for i in range(moments.n):
            cell = a * moments.n + i
            if zero[cell]:
                zeros.append((a, i))
            elif moments.pi[cell] < threshold:
                smalls.append((a, i, float(moments.pi[cell])))
    return PositivityReport(zero_cells=zeros, small_cells=smalls, threshold=threshold)
