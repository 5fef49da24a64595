"""Interference graphs, exposure mappings, and exposure-derived designs.

An exposure mapping turns a base assignment vector plus a unit's network
neighborhood into an effective treatment label; the derived design over
those labels plugs straight back into the moments/estimation machinery.
Exposure rules are checked against the base design's arms, and one rule
evaluator serves validation, the label table that exposure designs map
draws through, the reference mapping and structural zeros.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .designs import (
    BernoulliDesign,
    Design,
    SupportTable,
    _check_list,
    _is_integer,
    check_arms,
    check_keys,
    read_csv_columns,
)
from .moments import MC_BLOCK_SIZE, DesignMoments

POSITIVITY_THRESHOLD = 0.01


class InterferenceGraph:
    """Directed nomination graph; self-loops and duplicate edges are
    dropped on construction."""

    def __init__(self, n: int, edges):
        from scipy import sparse

        self.n = int(n)
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
            raise ValueError(f"edges must be (src, dst) pairs, got an array of shape {edges.shape}")
        edges = edges.reshape(-1, 2)
        edges = edges[edges[:, 0] != edges[:, 1]]
        outside = np.flatnonzero(((edges < 0) | (edges >= n)).any(axis=1))
        if len(outside):
            src, dst = edges[outside[0]]
            raise ValueError(f"edge ({src},{dst}) outside unit range")
        # one sort of src*n + dst keys: the rows in order, duplicates dropped
        # (np.unique(axis=0) sorts rows as byte strings, several times slower)
        keys = np.unique(edges[:, 0] * n + edges[:, 1])
        self.edges = np.stack(np.divmod(keys, max(n, 1)), axis=1)
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
        columns = read_csv_columns(path, ("src_id", "dst_id"), "edge")
        edges = np.array([columns["src_id"], columns["dst_id"]], dtype=np.int64).T
        if unit_ids is not None:
            unit_ids = np.asarray(unit_ids, dtype=np.int64)
            unknown = np.setdiff1d(edges, unit_ids)
            if len(unknown):
                raise ValueError(f"edge CSV names unknown unit_id {', '.join(map(str, unknown))}")
            edges = np.searchsorted(unit_ids, edges)
            n = len(unit_ids) if n is None else n
        if n is None:
            n = 1 + int(edges.max()) if len(edges) else 0
        return cls(n, edges)

    def neighbor_matrix(self, undirected: bool = False) -> scipy.sparse.csr_matrix:
        """Row i selects the units whose assignments unit i is exposed to:
        out-neighbors by default (the units i nominated), optionally the
        union of both directions."""
        if not undirected:
            return self.adjacency
        sym = self.adjacency + self.adjacency.T
        sym.data = np.ones_like(sym.data)
        return sym.tocsr()

    def degrees(self, undirected: bool = False) -> np.ndarray:
        """Neighbor count per unit: the stored entries of each row of the
        neighbor matrix, which holds no duplicates."""
        return np.diff(self.neighbor_matrix(undirected).indptr).astype(np.int64)


@dataclass(frozen=True)
class ExposureRule:
    """One exposure label: own base arm in a set, and per-base-arm
    neighbor-count intervals (upper bound None means unbounded)."""

    label: str
    own_arms: frozenset
    count_intervals: tuple  # ((arm, lo, hi_or_None), ...)


class ExposureRules:
    """Ordered exposure definitions over the arms of a base design. Rule
    arms must be base arms and count intervals nonempty and nonnegative. One
    evaluator serves mapping, validation and structural zeros; the table must
    hold exactly one rule for each (own arm, neighbor-count profile) that a
    given graph can produce."""

    def __init__(self, rules: list[ExposureRule], base_k: int):
        if not rules:
            raise ValueError("at least one exposure rule required")
        labels = [r.label for r in rules]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate exposure labels")
        self.rules = list(rules)
        self.base_k = int(base_k)
        self._own = np.zeros((len(rules), self.base_k), dtype=bool)
        for idx, rule in enumerate(rules):
            arms = {*rule.own_arms, *(arm for arm, _, _ in rule.count_intervals)}
            if not rule.own_arms or not arms <= set(range(self.base_k)):
                raise ValueError(
                    f"exposure {rule.label!r}: own_arms must be nonempty and every "
                    f"arm in 1..{self.base_k}"
                )
            if any(lo < 0 or (hi is not None and hi < lo) for _, lo, hi in rule.count_intervals):
                raise ValueError(f"exposure {rule.label!r}: count intervals need 0 <= lo <= hi")
            self._own[idx, list(rule.own_arms)] = True

    def __len__(self):
        return len(self.rules)

    @property
    def labels(self):
        return [r.label for r in self.rules]

    @classmethod
    def from_config(cls, config, base_k: int) -> "ExposureRules":
        """Rules as data: a list of mappings with keys label, own_arms
        (1-based base arms), counts ({arm: [lo, hi]} with hi null for
        unbounded); without counts a rule puts no condition on neighbors."""
        rules = []
        for item in _check_list("rules", config):
            check_keys(item, "exposure rule", ("label", "own_arms"), ("counts",))
            label = str(item["label"])
            counts = item.get("counts", {})
            if not isinstance(counts, dict):
                raise ValueError(f"exposure {label!r}: counts must be a mapping, got {counts!r}")
            intervals = []
            for arm, interval in counts.items():
                if not (isinstance(interval, list) and len(interval) == 2):
                    raise ValueError(
                        f"exposure {label!r}: count interval of arm {arm} must be [lo, hi], "
                        f"got {interval!r}"
                    )
                lo, hi = interval
                if not (_is_integer(arm) and _is_integer(lo) and (hi is None or _is_integer(hi))):
                    raise ValueError(
                        f"exposure {label!r}: counts must map an integer arm to integer bounds "
                        f"[lo, hi] (hi may be null), got {arm!r}: {interval!r}"
                    )
                intervals.append((int(arm) - 1, int(lo), None if hi is None else int(hi)))
            own_arms = _check_list(f"exposure {label!r}: own_arms", item["own_arms"], integers=True)
            rules.append(
                ExposureRule(
                    label=label,
                    own_arms=frozenset(int(a) - 1 for a in own_arms),
                    count_intervals=tuple(sorted(intervals)),
                )
            )
        return cls(rules, base_k)

    def _hits(self, own_arms: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """(R, ...) mask: whether rule r holds at each entry of (...) own
        arms with (..., base_k) neighbor counts."""
        hits = np.empty((len(self.rules), *own_arms.shape), dtype=bool)
        for idx, rule in enumerate(self.rules):
            ok = hits[idx]
            np.take(self._own[idx], own_arms, out=ok)
            for arm, lo, hi in rule.count_intervals:
                ok &= counts[..., arm] >= lo
                if hi is not None:
                    ok &= counts[..., arm] <= hi
        return hits

    def match_all(self, own_arms: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Labels (rule indices) of (..., n) own arms with (..., n, base_k)
        neighbor counts; an entry matched by no rule or by several raises
        with that entry's own arm and counts."""
        own_arms = check_arms(own_arms, np.shape(own_arms), self.base_k)
        hits = self._hits(own_arms, counts)
        n_hits = hits.sum(axis=0)
        if np.any(n_hits != 1):
            bad = np.unravel_index(np.flatnonzero(n_hits != 1)[0], n_hits.shape)
            where = f"own arm {int(own_arms[bad]) + 1} with counts {counts[bad].tolist()}"
            matched = [self.rules[r].label for r in np.flatnonzero(hits[(slice(None), *bad)])]
            if not matched:
                raise ValueError(f"no exposure matches {where}")
            raise ValueError(f"rules {matched} overlap on {where}")
        return hits.argmax(axis=0)

    def label_grids(self, degrees) -> dict:
        """Labels of every (own arm, count composition) realizable at the
        given degrees, {degree: (own arms, counts, labels)} in degree order;
        the first entry matched by no rule or by several, in (degree,
        composition, own arm) order, raises."""
        arms = np.arange(self.base_k)
        grids = {}
        for d in sorted(set(int(d) for d in degrees)):
            own, counts = _degree_grid(d, arms, self.base_k)
            grids[d] = own, counts, self.match_all(own, counts)
        return grids

    def validate_on_degrees(self, degrees):
        """Check exhaustiveness and exclusivity over all count compositions
        realizable at the given degrees (see label_grids)."""
        self.label_grids(degrees)


def _compositions(total: int, parts: int) -> np.ndarray:
    """(C, parts) int64 array of all nonnegative integer vectors of the
    given length summing to total, in lexicographic order: the gaps between
    parts - 1 bars among total + parts - 1 slots, whose positions
    itertools.combinations yields in the same order."""
    slots = total + parts - 1
    bars = np.array(list(itertools.combinations(range(slots), parts - 1)), dtype=np.int64)
    fence = np.empty((len(bars), parts + 1), dtype=np.int64)
    fence[:, 0] = -1
    fence[:, 1:-1] = bars.reshape(len(bars), parts - 1)
    fence[:, -1] = slots
    return np.diff(fence, axis=1) - 1


def _degree_grid(degree: int, arms: np.ndarray, base_k: int):
    """Every (own arm, neighbor counts) of a unit with the given degree when
    only the given base arms occur: (G,) own arms and (G, base_k) counts,
    compositions outer and own arm inner."""
    compositions = _compositions(degree, len(arms))
    counts = np.zeros((len(compositions), base_k), dtype=np.int64)
    counts[:, arms] = compositions
    return np.tile(arms, len(counts)), np.repeat(counts, len(arms), axis=0)


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
    """Per-unit exposure labels (0-based indices into the rule list) for
    (..., n) base arms, evaluated rule by rule: the reference that an
    exposure design's label table reproduces."""
    Z = np.asarray(Z, dtype=np.int64)
    return rules.match_all(Z, _neighbor_counts(Z, graph.neighbor_matrix(undirected), rules.base_k))


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
    """Design over exposure labels induced by a base design and a graph.

    Construction evaluates every (degree, composition, own arm) that the
    graph's degrees allow once with ``ExposureRules.match_all``
    (``label_grids``); that one pass checks the rules and fills a label
    table (see ``_label_table``). Sampling and enumeration then map a block
    of base draws with one sparse product, which gives every unit's key
    into the table, and one gather: no rule is evaluated per draw.
    """

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
        degrees = graph.degrees(undirected)
        grids = rules.label_grids(degrees)
        self.base = base
        self.graph = graph
        self.rules = rules
        self.undirected = undirected
        self.n = base.n
        self.k = len(rules)
        self._neighbors = graph.neighbor_matrix(undirected)
        self._table, self._key_matrix, self._key_offset = _label_table(
            grids, degrees, self._neighbors, base.k
        )

    def _labels(self, Z: np.ndarray) -> np.ndarray:
        """Exposure labels of (draws, n) base arms, read from the table."""
        onehot = Z.T == np.arange(self.base.k - 1)[:, None, None]
        onehot = np.ascontiguousarray(onehot).view(np.int8).reshape(-1, len(Z))
        keys = self._key_matrix @ onehot  # (n, draws)
        keys += self._key_offset
        return self._table[keys.T]

    def sample_batch(self, rng, size):
        return self._labels(check_arms(self.base.sample_batch(rng, size), (size, self.n), self.base.k))

    def support_size(self):
        return self.base.support_size()

    def _enumerate(self):
        """Map the base support in blocks of MC_BLOCK_SIZE rows, then merge
        equal label rows, summing their probabilities in support order."""
        base = self.base.enumerate_support()
        Z = base.realizations
        labels = np.concatenate([
            self._labels(Z[start:start + MC_BLOCK_SIZE]) for start in range(0, len(Z), MC_BLOCK_SIZE)
        ])
        rows, inverse = np.unique(labels, axis=0, return_inverse=True)
        probs = np.bincount(inverse.ravel(), weights=base.probabilities, minlength=len(rows))
        return SupportTable(rows, probs, self.n, self.k)

    def structural_zero_cells(self) -> np.ndarray:
        """Provable impossibility: under an independent base with known
        positive arms, an exposure is impossible for a unit exactly when no
        (own arm, neighbor composition of its degree) over the positive arms
        satisfies the rule. Non-independent bases are left to enumeration or
        flagged as possibly-zero downstream."""
        mask = np.zeros((self.k, self.n), dtype=bool)
        if not isinstance(self.base, BernoulliDesign):
            return mask.ravel()
        possible = np.flatnonzero(self.base.probs > 0)
        degrees = self.graph.degrees(self.undirected)
        for d in np.unique(degrees):
            feasible = self.rules._hits(*_degree_grid(int(d), possible, self.base.k)).any(axis=1)
            mask[np.ix_(~feasible, degrees == d)] = True
        return mask.ravel()


def _label_table(grids: dict, degrees: np.ndarray, neighbors, base_k: int):
    """The label table of an exposure design and the two parts of its keys.

    Degree d owns a block of base_k (d+1)^(base_k-1) entries. A unit of
    degree d with own base arm o and c_a neighbors in base arm a has key
    start_d + o (d+1)^(base_k-1) + sum_{a < base_k-1} c_a (d+1)^a: a
    mixed-radix code, the last arm's count being d minus the others.
    Entries that no composition reaches stay 0 and are never read. Returns
    the table (filled from label_grids' grids), the sparse (n, (base_k-1) n)
    key matrix K and the (n, 1) key offsets c: for (n, draws) indicators X
    of base arms 0..base_k-2, stacked arm-major, the keys are K X + c.
    """
    from scipy import sparse

    last = base_k - 1
    sizes = [base_k * (d + 1) ** last for d in grids]
    starts = np.cumsum([0, *sizes[:-1]])
    table = np.zeros(sum(sizes), dtype=np.int64)
    for start, (d, (own, counts, labels)) in zip(starts, grids.items()):
        place = (d + 1) ** np.arange(base_k)
        table[start + own * place[last] + counts[:, :last] @ place[:last]] = labels
    # keys lie in [0, len(table)) and every partial sum in (-len(table), len(table))
    dtype = np.int32 if len(table) <= np.iinfo(np.int32).max else np.int64
    n = len(degrees)
    radix = degrees + 1
    stride = radix**last
    # Row i of K's block a holds unit i's neighbors, valued radix_i^a, then
    # unit i, valued -(last - a) stride_i: with the offset's last * stride,
    # own arm o adds o * stride, the last arm included. Built as CSR arrays;
    # scipy's sparse arithmetic costs more than the rest of construction.
    units = np.arange(n)
    row = np.concatenate([np.repeat(units, degrees), units])
    col = np.concatenate([neighbors.indices, units])
    own = np.arange(len(row)) >= neighbors.nnz
    arm = np.arange(last)[:, None]
    values = np.where(own, -(last - arm) * stride[row], radix[row] ** arm).astype(dtype)
    order = np.argsort(np.tile(row, last), kind="stable")  # by row, then by block
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(last * radix, out=indptr[1:])
    key_matrix = sparse.csr_matrix(
        (values.ravel()[order], (arm * n + col).ravel()[order], indptr), shape=(n, last * n)
    )
    key_offset = starts[np.searchsorted(list(grids), degrees)] + last * stride
    return table, key_matrix, key_offset[:, None].astype(dtype)


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


def positivity_report(moments: DesignMoments) -> PositivityReport:
    """List cells with pi = 0 (proven or unhit) or pi below
    POSITIVITY_THRESHOLD, each as (arm, unit) or (arm, unit, pi) in stacked
    cell order."""
    zero = moments.zero_mask | moments.maybe_zero_mask
    small = ~zero & (moments.pi < POSITIVITY_THRESHOLD)
    arm, unit = np.divmod(np.arange(moments.kn), moments.n)
    zeros = list(zip(arm[zero].tolist(), unit[zero].tolist()))
    smalls = list(zip(arm[small].tolist(), unit[small].tolist(), moments.pi[small].tolist()))
    return PositivityReport(zero_cells=zeros, small_cells=smalls, threshold=POSITIVITY_THRESHOLD)
