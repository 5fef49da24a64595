"""Experimental designs as distributions over assignment realizations.

A design assigns each of n units to exactly one of k arms. Everything
downstream (moments, bounds, estimators) consumes the kn stacked indicator
vector in arm-major order: entry a*n + i is the indicator that unit i is in
arm a (0-based).

Sampling contract: every design kind implements ``sample_batch(rng, size)``,
which returns a (size, n) int64 matrix of arms, and nothing else. Row r is
exactly the draw that the r-th of ``size`` successive ``sample(rng)`` calls
would make on the same generator, so a Monte-Carlo loop may draw a block at
once without changing its stream. ``Design.sample`` is the one wrapper that
turns a one-row batch into an ``AssignmentRealization``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

ENUMERATION_CAP = 1_000_000


def stream_rng(seed, *index):
    """Independent generator for a (seed, index...) coordinate.

    Used by Monte-Carlo loops so that draw r never depends on worker count
    or on how many draws preceded it.
    """
    return np.random.default_rng([int(seed), *(int(j) for j in index)])


def check_arms(arms, shape: tuple, k: int) -> np.ndarray:
    """int64 array of arms, checked to have the given shape and every arm
    in [0, k); raises ValueError otherwise."""
    arms = np.asarray(arms, dtype=np.int64)
    if arms.shape != shape:
        raise ValueError(f"arm_of must have shape {shape}")
    if arms.size and (arms.min() < 0 or arms.max() >= k):
        raise ValueError("arm indices must lie in [0, k)")
    return arms


@dataclass(frozen=True)
class AssignmentRealization:
    """One realized assignment: unit i sits in arm arm_of[i] (0-based)."""

    n: int
    k: int
    arm_of: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "arm_of", check_arms(self.arm_of, (self.n,), self.k))

    @property
    def observed_cells(self) -> np.ndarray:
        """Index of each unit's realized cell in the kn stacked vector."""
        return self.arm_of * self.n + np.arange(self.n)

    def indicator(self) -> np.ndarray:
        """kn 0/1 stacked indicator vector (exactly n ones)."""
        r = np.zeros(self.n * self.k)
        r[self.observed_cells] = 1.0
        return r


def _has_duplicate_rows(rows: np.ndarray) -> bool:
    """Whether the 2-D int64 matrix repeats a row, from one np.unique over
    the rows viewed as byte strings (np.unique(axis=0) compares column by
    column and is no faster than a Python set of row tuples)."""
    if rows.shape[1] == 0:
        return len(rows) > 1
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))
    return len(np.unique(keys)) < len(rows)


@dataclass(frozen=True)
class SupportTable:
    """Exhaustive support of an enumerable design with exact probabilities."""

    realizations: np.ndarray  # (S, n) arm indices
    probabilities: np.ndarray  # (S,)
    n: int
    k: int

    def __post_init__(self):
        realizations = np.asarray(self.realizations, dtype=np.int64)
        probabilities = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "realizations", realizations)
        object.__setattr__(self, "probabilities", probabilities)
        if abs(probabilities.sum() - 1.0) > 1e-12:
            raise ValueError("support probabilities must sum to 1")
        if np.any(probabilities <= 0):
            raise ValueError("support probabilities must be positive")
        if _has_duplicate_rows(realizations):
            raise ValueError("duplicate realizations in support")

    def __len__(self):
        return len(self.probabilities)

    def indicator_matrix(self) -> np.ndarray:
        """(S, kn) matrix of stacked indicator vectors, one row per point."""
        s = len(self)
        out = np.zeros((s, self.n * self.k))
        cells = self.realizations * self.n + np.arange(self.n)
        out[np.arange(s)[:, None], cells] = 1.0
        return out

    def realization(self, idx: int) -> AssignmentRealization:
        return AssignmentRealization(self.n, self.k, self.realizations[idx])


def _multiset_permutations(counts) -> np.ndarray:
    """(S, n) int64 matrix of every distinct sequence holding counts[a]
    copies of label a, rows in lexicographic order.

    Built one position at a time: each row so far is extended by every
    label it has left, in increasing label order, which keeps the rows
    sorted.
    """
    counts = np.asarray(counts, dtype=np.int64)
    rows = np.zeros((1, 0), dtype=np.int64)
    left = counts[None, :]
    for _ in range(int(counts.sum())):
        parent, label = np.nonzero(left > 0)
        rows = np.column_stack([rows[parent], label])
        left = left[parent]
        left[np.arange(len(label)), label] -= 1
    return rows


class SupportTooLargeError(ValueError):
    """Support exceeds the enumeration cap; caller should use Monte Carlo."""


class NotEnumerableError(TypeError):
    """Design exposes only a sampler (custom kind, or non-enumerable base)."""


class Design:
    """Base class: a sampleable distribution over assignment realizations.

    A new kind implements ``sample_batch(rng, size)`` only: a (size, n)
    int64 arm matrix whose row r is exactly the r-th of ``size`` successive
    ``sample(rng)`` draws on the same generator. ``sample`` is derived from
    it. Immutable after construction; samplers take an explicit generator,
    so instances are safe to share across workers.
    """

    n: int
    k: int
    kind: str = "abstract"
    unit_ids: np.ndarray | None = None  # sorted ids of the strata/cluster CSV read

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, n) int64 arms of size successive draws from rng."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> AssignmentRealization:
        """One draw: the first row of a one-draw batch."""
        return AssignmentRealization(self.n, self.k, self.sample_batch(rng, 1)[0])

    def support_size(self) -> int | None:
        """Exact support size, or None when the design is not enumerable."""
        return None

    def enumerate_support(self, cap: int = ENUMERATION_CAP) -> SupportTable:
        size = self.support_size()
        if size is None:
            raise NotEnumerableError(f"{self.kind} designs are not enumerable")
        if size > cap:
            raise SupportTooLargeError(
                f"support size {size} exceeds cap {cap}; use Monte Carlo"
            )
        return self._enumerate()

    def _enumerate(self) -> SupportTable:
        raise NotEnumerableError(f"{self.kind} designs are not enumerable")

    def structural_zero_cells(self) -> np.ndarray:
        """Boolean kn mask of cells with provably zero inclusion probability."""
        return np.zeros(self.n * self.k, dtype=bool)


class BernoulliDesign(Design):
    """Independent per-unit assignment with common arm probabilities."""

    kind = "bernoulli"

    def __init__(self, n: int, probs: Sequence[float]):
        probs = np.asarray(probs, dtype=float)
        if n < 1:
            raise ValueError("n must be positive")
        if np.any(probs < 0) or np.any(probs > 1):
            raise ValueError("arm probabilities must lie in [0, 1]")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("arm probabilities must sum to 1")
        self.n = int(n)
        self.k = len(probs)
        self.probs = probs

    def sample_batch(self, rng, size):
        return rng.choice(self.k, size=(size, self.n), p=self.probs)

    def support_size(self):
        positive = int(np.sum(self.probs > 0))
        return positive**self.n

    def _enumerate(self):
        arms = np.flatnonzero(self.probs > 0)
        rows = np.array(list(product(arms, repeat=self.n)), dtype=np.int64)
        probs = np.prod(self.probs[rows], axis=1)
        return SupportTable(rows, probs, self.n, self.k)

    def structural_zero_cells(self):
        return np.repeat(self.probs == 0, self.n)


class CompletelyRandomizedDesign(Design):
    """Fixed per-arm counts, uniformly random allocation."""

    kind = "completely_randomized"

    def __init__(self, n: int, counts: Sequence[int]):
        counts = np.asarray(counts, dtype=np.int64)
        if np.any(counts < 0):
            raise ValueError("arm counts must be nonnegative")
        if counts.sum() != n:
            raise ValueError(f"arm counts must sum to n={n}")
        self.n = int(n)
        self.k = len(counts)
        self.counts = counts
        self._labels = np.repeat(np.arange(self.k), counts)

    def sample_batch(self, rng, size):
        return rng.permuted(np.broadcast_to(self._labels, (size, self.n)), axis=1)

    def support_size(self):
        size = math.factorial(self.n)
        for c in self.counts:
            size //= math.factorial(int(c))
        return size

    def _enumerate(self):
        rows = _multiset_permutations(self.counts)
        probs = np.full(len(rows), 1.0 / len(rows))
        return SupportTable(rows, probs, self.n, self.k)

    def structural_zero_cells(self):
        return np.repeat(self.counts == 0, self.n)


def counts_from_proportions(m: int, proportions: Sequence[float]) -> np.ndarray:
    """Per-arm counts for a stratum of m units from target proportions.

    Base counts are floor(p_a * m); the r leftover units go one each to arms
    k, k-1, ..., in descending arm order.
    """
    proportions = np.asarray(proportions, dtype=float)
    if abs(proportions.sum() - 1.0) > 1e-9:
        raise ValueError("proportions must sum to 1")
    counts = np.floor(proportions * m).astype(np.int64)
    remainder = m - counts.sum()
    k = len(proportions)
    if remainder >= k:
        raise ValueError("more remainder units than arms")
    for j in range(remainder):
        counts[k - 1 - j] += 1
    return counts


def counts_from_pattern(m: int, pattern: Sequence[int], k: int) -> np.ndarray:
    """Per-arm counts from the first m entries of a cyclically repeated
    arm-label pattern (labels 1-based, e.g. (4,3,2,1,4,3,4,3,4,3))."""
    pattern = np.asarray(pattern, dtype=np.int64)
    if np.any(pattern < 1) or np.any(pattern > k):
        raise ValueError("pattern labels must be 1-based arm indices")
    reps = int(np.ceil(m / len(pattern)))
    prefix = np.tile(pattern, reps)[:m]
    return np.bincount(prefix - 1, minlength=k).astype(np.int64)


class StratifiedDesign(Design):
    """Independent complete randomizations within strata partitioning units."""

    kind = "stratified"

    def __init__(self, n: int, strata: Sequence[Sequence[int]], counts_by_stratum):
        self.n = int(n)
        self.strata = [np.asarray(s, dtype=np.int64) for s in strata]
        if any(len(s) == 0 for s in self.strata):
            raise ValueError("empty stratum")
        flat = np.concatenate(self.strata) if self.strata else np.array([], dtype=np.int64)
        if len(flat) != n or len(np.unique(flat)) != n or flat.min() < 0 or flat.max() >= n:
            raise ValueError("strata must partition units 0..n-1")
        self.counts_by_stratum = [np.asarray(c, dtype=np.int64) for c in counts_by_stratum]
        if len(self.counts_by_stratum) != len(self.strata):
            raise ValueError("one count vector per stratum required")
        ks = {len(c) for c in self.counts_by_stratum}
        if len(ks) != 1:
            raise ValueError("all strata must use the same number of arms")
        self.k = ks.pop()
        for position, (units, counts) in enumerate(zip(self.strata, self.counts_by_stratum)):
            if counts.sum() != len(units):
                raise ValueError(
                    f"counts of stratum {position} (0-based) sum to {counts.sum()}, "
                    f"but the stratum has {len(units)} units"
                )
        self._subdesigns = [
            CompletelyRandomizedDesign(len(s), c)
            for s, c in zip(self.strata, self.counts_by_stratum)
        ]

    @classmethod
    def from_proportions(cls, n, strata, proportions):
        counts = [counts_from_proportions(len(s), proportions) for s in strata]
        return cls(n, strata, counts)

    @classmethod
    def from_pattern(cls, n, strata, pattern, k):
        counts = [counts_from_pattern(len(s), pattern, k) for s in strata]
        return cls(n, strata, counts)

    def sample_batch(self, rng, size):
        # Draw-major: the strata of one draw interleave on the stream.
        arms = np.empty((size, self.n), dtype=np.int64)
        for row in arms:
            for units, sub in zip(self.strata, self._subdesigns):
                row[units] = sub.sample_batch(rng, 1)[0]
        return arms

    def support_size(self):
        size = 1
        for sub in self._subdesigns:
            size *= sub.support_size()
        return size

    def _enumerate(self):
        tables = [sub.enumerate_support(cap=self.support_size()) for sub in self._subdesigns]
        rows = np.empty((1, self.n), dtype=np.int64)
        probs = np.ones(1)
        for units, table in zip(self.strata, tables):
            s_old, s_new = len(rows), len(table)
            rows = np.repeat(rows, s_new, axis=0)
            rows[:, units] = np.tile(table.realizations, (s_old, 1))
            probs = np.repeat(probs, s_new) * np.tile(table.probabilities, s_old)
        return SupportTable(rows, probs, self.n, self.k)

    def structural_zero_cells(self):
        mask = np.zeros(self.n * self.k, dtype=bool)
        for units, counts in zip(self.strata, self.counts_by_stratum):
            for a in np.flatnonzero(counts == 0):
                mask[a * self.n + units] = True
        return mask


class ClusteredDesign(Design):
    """Cluster-level randomization broadcast to member units."""

    kind = "clustered"

    def __init__(self, n: int, cluster_of: Sequence[int], cluster_design: Design):
        self.n = int(n)
        self.cluster_of = np.asarray(cluster_of, dtype=np.int64)
        if self.cluster_of.shape != (self.n,):
            raise ValueError("cluster_of must map every unit")
        n_clusters = self.cluster_of.max() + 1 if self.n else 0
        if set(np.unique(self.cluster_of)) != set(range(n_clusters)):
            raise ValueError("cluster ids must cover 0..C-1")
        if cluster_design.n != n_clusters:
            raise ValueError("cluster design size must equal number of clusters")
        self.cluster_design = cluster_design
        self.k = cluster_design.k

    def sample_batch(self, rng, size):
        shape = (size, self.cluster_design.n)
        return check_arms(self.cluster_design.sample_batch(rng, size), shape, self.k)[:, self.cluster_of]

    def support_size(self):
        return self.cluster_design.support_size()

    def _enumerate(self):
        base = self.cluster_design.enumerate_support(cap=ENUMERATION_CAP)
        rows = base.realizations[:, self.cluster_of]
        return SupportTable(rows, base.probabilities, self.n, self.k)

    def structural_zero_cells(self):
        base = self.cluster_design.structural_zero_cells().reshape(self.k, -1)
        return base[:, self.cluster_of].reshape(-1)


class CustomDesign(Design):
    """Wraps a user sampler; Monte-Carlo only downstream."""

    kind = "custom"

    def __init__(self, n: int, k: int, sampler: Callable[[np.random.Generator], np.ndarray]):
        self.n = int(n)
        self.k = int(k)
        self.sampler = sampler

    def sample_batch(self, rng, size):
        # Stacked as returned; mc_moments and sample() check shape and range.
        return np.stack([np.asarray(self.sampler(rng)) for _ in range(size)])


def read_csv_columns(path, columns: tuple, what: str) -> dict[str, tuple]:
    """Every column of a CSV file with a header, by header name, as tuples
    of strings over its nonblank rows. A header without the named columns or
    that repeats a name, or a row whose field count differs from the
    header's, is a ValueError naming the file kind (`what`) and the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None) or []
        if set(columns) - set(header):
            raise ValueError(
                f"{what} CSV must have columns {','.join(columns)} in its header (line 1)"
            )
        repeated = sorted({name for name in header if header.count(name) > 1})
        if repeated:
            raise ValueError(f"{what} CSV header (line 1) repeats column {','.join(repeated)}")
        rows = []
        for row in reader:
            if len(row) != len(header):
                if not row:
                    continue
                many = "many" if len(row) > len(header) else "few"
                raise ValueError(
                    f"{what} CSV line {reader.line_num} has too {many} fields "
                    f"({len(row)}; the header has {len(header)})"
                )
            rows.append(row)
    return dict(zip(header, zip(*rows) if rows else [()] * len(header)))


def order_by_unit_id(unit_ids, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The unit ids of a CSV's rows (strings or integers), parsed and
    sorted, and the row order that sorts them; a repeated id is a ValueError
    naming the file kind (`what`)."""
    ids = np.array(unit_ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    repeated = np.unique(ids[1:][ids[1:] == ids[:-1]])
    if repeated.size:
        raise ValueError(f"duplicate unit_id in the {what} CSV: {repeated[:5].tolist()}")
    return ids, order


def read_group_csv(path) -> tuple[np.ndarray, list[np.ndarray]]:
    """Read a unit_id,group_id CSV; returns (unit ids sorted, groups in
    group_id order as arrays of 0-based unit positions). group_id order is
    the order of the ids as strings: 1, 10, 2, ... for ids 1..10."""
    columns = read_csv_columns(path, ("unit_id", "group_id"), "group")
    unit_ids, order = order_by_unit_id(columns["unit_id"], "group")
    if not len(unit_ids):
        raise ValueError("empty group CSV")
    _, group = np.unique(np.array(columns["group_id"])[order], return_inverse=True)
    positions = np.argsort(group, kind="stable")
    return unit_ids, np.split(positions, np.cumsum(np.bincount(group))[:-1])


def check_keys(spec, where: str, required=(), optional=()) -> dict:
    """spec, if it is a mapping that has every required key and no key
    outside required and optional; otherwise a ValueError naming `where`
    and the offending keys. A tuple of keys is a group of alternatives: in
    required, spec must hold exactly one of them; in optional, at most one."""
    if not isinstance(spec, dict):
        raise ValueError(f"{where} must be a mapping, got {spec!r}")
    groups = [(1, e) for e in required if isinstance(e, tuple)]
    groups += [(0, e) for e in optional if isinstance(e, tuple)]
    entries = (*required, *optional)
    known = list(dict.fromkeys(key for e in entries for key in (e if isinstance(e, tuple) else (e,))))
    unknown = sorted(set(spec) - set(known), key=str)
    if unknown:
        raise ValueError(
            f"unknown {where} key(s): {', '.join(map(str, unknown))}; known: {', '.join(known)}"
        )
    missing = [key for key in required if not isinstance(key, tuple) and key not in spec]
    if missing:
        raise ValueError(f"{where} is missing required key(s): {', '.join(missing)}")
    for least, group in groups:
        present = [key for key in group if key in spec]
        if not least <= len(present) <= 1:
            raise ValueError(
                f"{where} needs {'exactly' if least else 'at most'} one of "
                f"{', '.join(group)}; got {', '.join(present) or 'none'}"
            )
    return spec


def _check_list(
    name: str, value, nested: bool = False, integers: bool = False, width: int | None = None
) -> list:
    """value, if it is a list (of lists, when nested, each of `width` entries
    when width is set), whose entries are integers (not bools) when integers
    is set; otherwise a ValueError naming it. Keeps a YAML scalar from
    failing as a TypeError deep inside numpy, a 3.5 from running as 3 once
    numpy casts the list to integers, and rows of the wrong length from
    being re-cut into rows of the right one."""
    if not isinstance(value, list) or nested and not all(isinstance(v, list) for v in value):
        raise ValueError(f"{name} must be a list{' of lists' * nested}, got {value!r}")
    if width is not None and not all(len(v) == width for v in value):
        raise ValueError(f"{name} must be a list of lists of {width} entries each, got {value!r}")
    entries = [v for row in value for v in row] if nested else value
    if integers and not all(_is_integer(v) for v in entries):
        raise ValueError(f"{name} must hold integers only, got {value!r}")
    return value


def check_bool(name: str, value) -> bool:
    """value, if it is a bool; otherwise a ValueError naming it. Keeps a
    YAML string "false" from running as a true value."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def _is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_integer(name: str, value, least: int):
    """value, if it is an integer (not a bool) >= least; otherwise a
    ValueError naming it. Keeps a recipe's 6.7 from running as 6."""
    if not _is_integer(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


# kind: (required keys, optional keys) of a design spec, besides kind; a
# tuple is a group of alternatives (see check_keys)
DESIGN_KEYS = {
    "bernoulli": (("n", "probs"), ()),
    "completely_randomized": (("n", "counts"), ()),
    "stratified": ((("strata", "strata_csv"), ("counts", "proportions", "pattern")), ("n", "k")),
    "clustered": (("cluster_design", ("cluster_of", "cluster_csv")), ()),
    "exposure_derived": (("base", "rules", ("edges", "edges_csv")), ("undirected",)),
}


def build_design(spec: dict) -> Design:
    """Construct a validated design from a config mapping.

    Recognized kinds: bernoulli, completely_randomized, stratified,
    clustered, exposure_derived. Stratified specs accept per-stratum
    ``counts``, shared ``proportions`` (remainders to descending arms), or a
    repeated arm-label ``pattern``. Entry j of ``counts`` belongs to stratum
    j: the j-th of ``strata``, or of a ``strata_csv``'s groups sorted by
    their group_id strings (ids 1..10 sort as 1, 10, 2, ..., 9), and a
    stratum whose counts do not sum to its size is an error naming its
    0-based position in that order. A design read from a strata or cluster
    CSV, or derived from such a design, keeps that file's sorted unit ids as
    ``unit_ids``; an exposure design over such a base reads its
    ``edges_csv`` in those ids, otherwise as 0-based unit positions. A key
    that the kind does not read is an error, and so are a missing or second
    alternative of a group (``strata`` or ``strata_csv``; ``counts``,
    ``proportions`` or ``pattern``, which needs ``k``; ``cluster_of`` or
    ``cluster_csv``; ``edges`` or ``edges_csv``), a list-valued key that
    holds no list, an ``n`` that is no integer >= 1, and an ``undirected``
    that is not a boolean.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"a design must be a mapping, got {spec!r}")
    kind = spec.get("kind")
    if kind not in DESIGN_KEYS:
        raise ValueError(f"unknown design kind: {kind!r}")
    check_keys(spec, f"{kind} design", ("kind", *DESIGN_KEYS[kind][0]), DESIGN_KEYS[kind][1])
    if kind == "bernoulli":
        return BernoulliDesign(check_integer("n", spec["n"], 1), _check_list("probs", spec["probs"]))
    if kind == "completely_randomized":
        n = check_integer("n", spec["n"], 1)
        return CompletelyRandomizedDesign(n, _check_list("counts", spec["counts"], integers=True))
    unit_ids = None
    if kind == "stratified":
        if ("k" in spec) != ("pattern" in spec):
            raise ValueError("stratified design key k is required with pattern and read only with it")
        if "strata_csv" in spec:
            unit_ids, strata = read_group_csv(spec["strata_csv"])
        else:
            strata = _check_list("strata", spec["strata"], nested=True, integers=True)
        n = check_integer("n", spec["n"], 1) if "n" in spec else sum(len(s) for s in strata)
        if "counts" in spec:
            counts = _check_list("counts", spec["counts"], nested=True, integers=True)
            design = StratifiedDesign(n, strata, counts)
        elif "proportions" in spec:
            proportions = _check_list("proportions", spec["proportions"])
            design = StratifiedDesign.from_proportions(n, strata, proportions)
        else:
            pattern = _check_list("pattern", spec["pattern"], integers=True)
            k = check_integer("k", spec["k"], 1)
            design = StratifiedDesign.from_pattern(n, strata, pattern, k)
        design.unit_ids = unit_ids
        return design
    if kind == "clustered":
        if "cluster_csv" in spec:
            unit_ids, groups = read_group_csv(spec["cluster_csv"])
            n = sum(len(g) for g in groups)
            cluster_of = np.empty(n, dtype=np.int64)
            for cid, members in enumerate(groups):
                cluster_of[members] = cid
        else:
            cluster_of = _check_list("cluster_of", spec["cluster_of"], integers=True)
            cluster_of = np.asarray(cluster_of, dtype=np.int64)
            n = len(cluster_of)
        design = ClusteredDesign(n, cluster_of, build_design(spec["cluster_design"]))
        design.unit_ids = unit_ids
        return design
    # the one kind left, exposure_derived
    from .network import ExposureRules, InterferenceGraph, derive_exposure_design

    undirected = check_bool("undirected", spec.get("undirected", False))
    base = build_design(spec["base"])
    graph = (
        InterferenceGraph.from_csv(spec["edges_csv"], base.n, base.unit_ids)
        if "edges_csv" in spec
        else InterferenceGraph(
            base.n, _check_list("edges", spec["edges"], nested=True, integers=True, width=2)
        )
    )
    rules = ExposureRules.from_config(spec["rules"], base.k)
    design = derive_exposure_design(base, graph, rules, undirected)
    design.unit_ids = base.unit_ids
    return design
