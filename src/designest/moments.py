"""Design moments: inclusion probabilities, joint-inclusion matrix, the
first-order design matrix, the second-order tensor, and spectral summaries.

The first-order design matrix D is the covariance matrix of the
inverse-probability-weighted stacked assignment indicators; entrywise,
D[s, t] = p[s, t] / (pi[s] * pi[t]) - 1 wherever both probabilities are
positive. Cells with pi = 0 are flagged and their rows left unusable.

All exact routes share one path: ``_joint`` gives pi and p by the design
kind's exact law, and ``_exact`` assembles D from them. For the kinds with a
closed form, ``_observed_joint`` gives one realization's observed block of p
alone, which ``bounds.observed_block_bound`` reads.
"""

from __future__ import annotations

import contextlib
import io
import math
import mmap
import os
import struct
import warnings
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np
from numpy.lib import format as npy_format

from .designs import (
    BernoulliDesign,
    ClusteredDesign,
    CompletelyRandomizedDesign,
    Design,
    StratifiedDesign,
    SupportTable,
    check_arms,
    stream_rng,
)

MC_BLOCK_SIZE = 4096  # draws per random stream; part of what a seed reproduces
DENSE_LIMIT = 8192  # largest kn stored dense
TENSOR_CAP = 64
BAND_ENTRIES = 1 << 15  # entries per band of a row-banded elementwise pass
NPZ_ALIGN = 64  # byte boundary of each saved member's data, as npy aligns arrays
ALIGN_EXTRA_ID = 0xD935  # zip extra-field id of zipalign's padding record
NPY_HEADER_PEEK = 4096  # bytes read to parse a member's .npy header
CSV_DROP_TOL = 1e-12  # coordinate CSVs leave out entries smaller in magnitude
EIG_PROOF_RTOL = 1e-10  # relative margin within which a Lanczos top eigenvalue is proven
# Smaller matrices take the dense solver. At kn = 256 it took 2.6 ms against
# the Lanczos route's 0.8 ms on a completely randomized design's D and 3.6 ms
# on a 2000-draw Monte-Carlo D of network exposures (7.6 against 7.2 ms at
# kn = 400), one thread.
LANCZOS_MIN_KN = 256
# The Lanczos runs (_lanczos): a Ritz pair counts as converged once its
# residual is at most LANCZOS_RESIDUAL_RTOL times the matrix's largest
# absolute row sum; convergence is checked every LANCZOS_CHECK_EVERY steps,
# over at most LANCZOS_STEP_BUDGET steps in all (all of the certified clip's
# runs together); a matrix with more than NEGATIVE_PART_CAP negative
# eigenvalues takes the full spectrum's clip.
LANCZOS_RESIDUAL_RTOL = 1e-13
LANCZOS_CHECK_EVERY = 8
LANCZOS_STEP_BUDGET = 160
NEGATIVE_PART_CAP = 16


@dataclass
class DesignMoments:
    """Probabilistic fingerprint of a design.

    pi, p, and D are indexed by stacked cells (arm-major). zero_mask flags
    cells with pi proven or observed to be exactly 0; maybe_zero_mask
    additionally flags Monte-Carlo cells that were never hit but whose
    impossibility is unproven. Rows/columns of D at flagged cells are zeroed
    placeholders, not estimates.
    """

    n: int
    k: int
    pi: np.ndarray
    p: np.ndarray
    D: np.ndarray
    method: str  # "exact" | "monte_carlo"
    zero_mask: np.ndarray
    maybe_zero_mask: np.ndarray = field(default=None)
    reps: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.maybe_zero_mask is None:
            self.maybe_zero_mask = np.zeros_like(self.zero_mask)

    @property
    def kn(self) -> int:
        return self.n * self.k

    def submoments(self, arms) -> "DesignMoments":
        """Principal sub-block for a subset of arms (for arm-pair measures)."""
        arms = list(arms)
        cells = np.concatenate([np.arange(self.n) + a * self.n for a in arms])
        return DesignMoments(
            n=self.n,
            k=len(arms),
            pi=self.pi[cells],
            p=self.p[np.ix_(cells, cells)],
            D=self.D[np.ix_(cells, cells)],
            method=self.method,
            zero_mask=self.zero_mask[cells],
            maybe_zero_mask=self.maybe_zero_mask[cells],
            reps=self.reps,
            seed=self.seed,
        )

    def save_npz(self, path):
        """Stored (uncompressed) zip of .npy members, as np.savez writes,
        but with each member's data on an NPZ_ALIGN-byte boundary so that
        load_npz can map the arrays in place. The zip goes to a temporary
        file beside path and is renamed over it, so arrays that a reader
        has already mapped from path keep their values."""
        path = os.fspath(path)
        if not path.endswith(".npz"):  # as np.savez names it
            path += ".npz"
        members = {
            "n": self.n,
            "k": self.k,
            "pi": self.pi,
            "p": self.p,
            "D": self.D,
            "method": self.method,
            "zero_mask": self.zero_mask,
            "maybe_zero_mask": self.maybe_zero_mask,
            "reps": -1 if self.reps is None else self.reps,
            "seed": -1 if self.seed is None else self.seed,
        }
        tmp = f"{path}.{os.urandom(4).hex()}.tmp"
        try:
            with open(tmp, "xb") as fh, zipfile.ZipFile(fh, "w", allowZip64=True) as zf:
                for name, value in members.items():
                    info = zipfile.ZipInfo(name + ".npy")
                    _align_member(info, fh.tell())
                    with zf.open(info, "w", force_zip64=True) as out:
                        npy_format.write_array(out, np.asanyarray(value), allow_pickle=False)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise

    @classmethod
    def load_npz(cls, path) -> "DesignMoments":
        """Moments saved by save_npz. The arrays of a stored zip are mapped
        from the file (copy-on-write) after each member's CRC-32 and size
        are checked; compressed files go through np.load. A file that is
        not a sound moments zip is a ValueError naming path."""
        try:
            data = _read_npz(path)
            reps = int(data["reps"])
            seed = int(data["seed"])
            return cls(
                n=int(data["n"]),
                k=int(data["k"]),
                pi=data["pi"],
                p=data["p"],
                D=data["D"],
                method=str(data["method"]),
                zero_mask=data["zero_mask"],
                maybe_zero_mask=data["maybe_zero_mask"],
                reps=None if reps < 0 else reps,
                seed=None if seed < 0 else seed,
            )
        except (zipfile.BadZipFile, EOFError, KeyError, ValueError, struct.error) as exc:
            raise ValueError(f"{path}: not a readable moments file ({exc})") from exc

    def pi_to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("arm,unit,pi\n")
            for a in range(self.k):
                for i in range(self.n):
                    fh.write(f"{a + 1},{i},{self.pi[a * self.n + i]:.15g}\n")

    def d_to_csv(self, path):
        """Coordinate export of D as i,j,value triplets (tiny entries dropped)."""
        coordinate_csv(path, self.D)


def coordinate_csv(path, M: np.ndarray):
    """Write the entries of M with |value| >= CSV_DROP_TOL as i,j,value rows."""
    with open(path, "w") as fh:
        fh.write("i,j,value\n")
        rows, cols = np.nonzero(np.abs(M) >= CSV_DROP_TOL)
        for i, j in zip(rows, cols):
            fh.write(f"{i},{j},{M[i, j]:.15g}\n")


def _align_member(info: zipfile.ZipInfo, offset: int):
    """Pad info's local-header extra field, as zipalign does, so that the
    member written at file offset `offset` starts its data on an NPZ_ALIGN
    boundary; the .npy header then keeps the array data on one too."""
    # fixed 30-byte local header, the name, and force_zip64's 20-byte record
    pad = -(offset + 30 + len(info.filename.encode()) + 20) % NPZ_ALIGN
    if 0 < pad < 4:  # an extra record is at least its 4-byte id and size
        pad += NPZ_ALIGN
    if pad:
        info.extra = struct.pack("<HH", ALIGN_EXTRA_ID, pad - 4) + bytes(pad - 4)


def _read_npz(path) -> dict:
    """Arrays by member name (without .npy): viewed in the mapped file when
    every member is stored, else read by np.load (compressed files)."""
    with open(path, "rb") as fh:
        with zipfile.ZipFile(fh) as zf:
            infos = zf.infolist()
        stored = all(info.compress_type == zipfile.ZIP_STORED for info in infos)
        buffer = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY) if stored else None
    if buffer is None:
        with np.load(path, allow_pickle=False) as data:
            return {name: data[name] for name in data.files}
    return {info.filename.removesuffix(".npy"): _mapped_member(buffer, info) for info in infos}


def _mapped_member(buffer: mmap.mmap, info: zipfile.ZipInfo) -> np.ndarray:
    """The array of one stored .npy member, after checking its CRC-32 and
    its size against its header: a view of the mapped file when its data
    are NPZ_ALIGN-aligned, else a copy (numpy would skip BLAS on an
    unaligned view)."""
    signature, name_len, extra_len = struct.unpack_from("<4s22xHH", buffer, info.header_offset)
    if signature != b"PK\x03\x04":
        raise zipfile.BadZipFile(f"member {info.filename} has no local header")
    start = info.header_offset + 30 + name_len + extra_len
    end = start + info.file_size
    if end > len(buffer) or info.compress_size != info.file_size:
        raise zipfile.BadZipFile(f"member {info.filename} is truncated")
    with memoryview(buffer)[start:end] as member:
        if zlib.crc32(member) != info.CRC:
            raise zipfile.BadZipFile(f"bad CRC-32 for member {info.filename}")
        header = io.BytesIO(member[:NPY_HEADER_PEEK])
    version = npy_format.read_magic(header)
    if version != (1, 0):  # what numpy writes for plain arrays
        raise ValueError(f"member {info.filename} has .npy version {version}")
    shape, fortran_order, dtype = npy_format.read_array_header_1_0(header)
    count = math.prod(shape)
    if dtype.hasobject:
        raise ValueError(f"member {info.filename} holds Python objects")
    if header.tell() + count * dtype.itemsize != info.file_size:
        raise ValueError(
            f"member {info.filename} has {info.file_size} bytes, which its header "
            f"({shape}, {dtype}) does not describe"
        )
    offset = start + header.tell()
    array = np.frombuffer(buffer, dtype=dtype, count=count, offset=offset)
    array = array.reshape(shape, order="F" if fortran_order else "C")
    return array if offset % NPZ_ALIGN == 0 else array.copy()


def _assemble_d(pi, p, zero_mask):
    """D from pi and p, filled in place: p / (pi pi') - 1 on live pairs, an
    exact -1 on live pairs with p == 0, (1 - pi) / pi on the diagonal, and
    zero rows and columns at flagged cells."""
    D = np.multiply.outer(pi, pi)
    with np.errstate(divide="ignore", invalid="ignore"):  # flagged cells, zeroed below
        np.divide(p, D, out=D)
    D -= 1.0
    # Exact -1 where joint inclusion is impossible; keeps the identification
    # mask consistent between the p == 0 rule and the D == -1 rule.
    np.copyto(D, -1.0, where=p == 0)
    dead = np.flatnonzero(zero_mask)
    D[dead, :] = 0.0
    D[:, dead] = 0.0
    ok = ~zero_mask
    np.fill_diagonal(D, np.where(ok, np.divide(1.0 - pi, pi, out=np.zeros_like(pi), where=ok), 0.0))
    return D


def _warn_dense(kn: int):
    if kn > DENSE_LIMIT:
        warnings.warn(
            f"kn={kn} exceeds the dense-storage comfort zone ({DENSE_LIMIT}); "
            "expect large memory use (export via the coordinate CSV form)",
            RuntimeWarning,
        )


def _exact(design, pi: np.ndarray, p: np.ndarray) -> DesignMoments:
    """Exact moments from pi and p of a design or a support table, which
    sum positive probabilities: a cell or pair never realized has an exact
    0, so pi == 0 proves a cell impossible."""
    n, k = design.n, design.k
    _warn_dense(n * k)
    zero_mask = pi == 0
    D = _assemble_d(pi, p, zero_mask)
    return DesignMoments(n=n, k=k, pi=pi, p=p, D=D, method="exact", zero_mask=zero_mask)


def exact_moments(design: Design) -> DesignMoments:
    """pi, p, D computed from the full support with no sampling error."""
    return moments_from_support(design.enumerate_support())


def analytic_bernoulli_moments(design) -> DesignMoments:
    """Closed-form moments of an independent per-unit design, without
    enumerating its k^n support."""
    if not isinstance(design, BernoulliDesign):
        raise TypeError("analytic moments available for Bernoulli designs only")
    return _exact(design, *_joint(design))


def analytic_crd_moments(design) -> DesignMoments:
    """Closed-form moments of a completely randomized design with any
    number of arms."""
    if not isinstance(design, CompletelyRandomizedDesign):
        raise TypeError("analytic moments available for completely randomized designs only")
    return _exact(design, *_joint(design))


def _exchangeable_joint(n: int, marginal: np.ndarray, pair: np.ndarray):
    """pi and p of n exchangeable units: every unit is in arm a with
    probability marginal[a], two distinct units are in arms a and b with
    probability pair[a, b], and a unit is never in two arms."""
    k = len(marginal)
    p = np.empty((k, n, k, n))
    p[...] = pair[:, None, :, None]
    units = np.arange(n)
    p[:, units, :, units] = np.diag(marginal)  # one unit's k x k block
    return np.repeat(marginal, n), p.reshape(n * k, n * k)


def _crd_tables(n: int, counts: np.ndarray):
    """marginal and pair tables (see _exchangeable_joint) of a completely
    randomized design of n units with the given arm counts."""
    share = counts / n
    # max: a single unit has no pair of distinct units, so pair goes unread
    return share, share[:, None] * ((counts - np.eye(len(counts))) / max(n - 1, 1))


def has_closed_form(design) -> bool:
    """Whether `_joint` has a closed form for the design's kind, and with
    it `_observed_joint`'s observed-block form."""
    return isinstance(design, (BernoulliDesign, CompletelyRandomizedDesign, StratifiedDesign))


def _exchangeable_groups(design):
    """(units, marginal, pair) of each group of exchangeable units (see
    _exchangeable_joint) of a design that has_closed_form, the groups
    independent of one another: Bernoulli units are one group with
    independent pairs, a completely randomized design one group with the
    hypergeometric tables, and each stratum a group with those tables."""
    if isinstance(design, BernoulliDesign):
        return [(np.arange(design.n), design.probs, np.outer(design.probs, design.probs))]
    if isinstance(design, CompletelyRandomizedDesign):
        return [(np.arange(design.n), *_crd_tables(design.n, design.counts))]
    return [
        (units, *_crd_tables(len(units), counts))
        for units, counts in zip(design.strata, design.counts_by_stratum)
    ]


def _joint(design):
    """pi and p of a design, by its kind's exact law: the closed forms of
    `_exchangeable_groups` (strata independent of one another); a clustered
    design's cluster-level support gathered to units; any other design's
    unit-level support enumerated."""
    if has_closed_form(design):
        n, k = design.n, design.k
        groups = _exchangeable_groups(design)
        if len(groups) == 1:  # all n units, in any order: they are exchangeable
            return _exchangeable_joint(n, *groups[0][1:])
        pi = np.empty(n * k)
        blocks = []
        for units, marginal, pair in groups:
            cells = (np.arange(k)[:, None] * n + units).ravel()  # stratum cells, arm-major
            pi[cells], block_p = _exchangeable_joint(len(units), marginal, pair)
            blocks.append((cells, block_p))
        p = np.multiply.outer(pi, pi)
        for cells, block_p in blocks:
            p[np.ix_(cells, cells)] = block_p
        return pi, p
    if isinstance(design, ClusteredDesign):
        pi, p = _support_joint(design.cluster_design.enumerate_support())
        cells = (np.arange(design.k)[:, None] * design.cluster_design.n + design.cluster_of).ravel()
        return pi[cells], p[np.ix_(cells, cells)]
    return _support_joint(design.enumerate_support())


def _observed_joint(design, cells: np.ndarray):
    """`_joint`'s observed-block form for a kind that has_closed_form, with
    cells one observed cell of each unit in unit order: pi over all kn
    cells, the cells x cells block of p gathered from the same tables
    (entries of two strata are pi_s pi_t, as in the full route's outer
    product), and each block row's never-joint count (p == 0, both cells
    live, off the diagonal) over all kn columns. A dead row (pi == 0)
    counts 0. A live row of arm a in a group of m units counts
    (live arms - 1), its own unit's other live cells, plus
    (m - 1) #{live b : pair[a, b] == 0}, the group's other units in an arm
    that never joins a; live cells of other groups always join it. Every
    entry and count is bitwise the full route's and minus_one_mask's."""
    if not has_closed_form(design):
        raise TypeError(f"no observed-block form for a {type(design).__name__}")
    n, k = design.n, design.k
    arm, unit = np.divmod(cells, n)
    in_order = cells.shape == (n,) and np.array_equal(unit, np.arange(n))
    if not in_order or not np.all((0 <= arm) & (arm < k)):
        raise ValueError("cells must hold one cell of each unit, in unit order")
    groups = _exchangeable_groups(design)
    pi = np.empty(n * k)
    never_joint = np.empty(n, dtype=np.int64)
    for units, marginal, pair in groups:
        pi[(np.arange(k)[:, None] * n + units).ravel()] = np.repeat(marginal, len(units))
        live = marginal > 0
        per_arm = live.sum() - 1 + (len(units) - 1) * (pair[:, live] == 0).sum(axis=1)
        never_joint[units] = np.where(live[arm[units]], per_arm[arm[units]], 0)
    observed = pi[cells]
    if len(groups) == 1:  # all n units; a unit's row in the block is the unit
        p = groups[0][2][arm][:, arm]
    else:
        p = np.multiply.outer(observed, observed)
        for units, _, pair in groups:
            p[np.ix_(units, units)] = pair[arm[units]][:, arm[units]]
    np.fill_diagonal(p, observed)  # a unit's own cell
    return pi, p, never_joint


def closed_form_or_exact_moments(design) -> DesignMoments:
    """Exact moments by the cheapest exact route that `_joint` knows for the
    design's kind. A completely randomized design goes through
    analytic_crd_moments, the name under which profiles record the closed
    form."""
    if isinstance(design, CompletelyRandomizedDesign):
        return analytic_crd_moments(design)
    return _exact(design, *_joint(design))


def moments_from_support(table: SupportTable) -> DesignMoments:
    """Exact moments of an enumerated support."""
    return _exact(table, *_support_joint(table))


def _support_joint(table: SupportTable):
    """pi and p of an enumerated support."""
    indicators = table.indicator_matrix()
    w = table.probabilities
    return w @ indicators, indicators.T @ (indicators * w[:, None])


def mc_moments(design: Design, reps: int, seed: int) -> DesignMoments:
    """Monte-Carlo moments from hit counts.

    Block b of MC_BLOCK_SIZE draws is one ``sample_batch`` call on an
    independent stream keyed by (seed, b), checked for shape and arm range.
    Only the cells of arms 0..k-2 enter the per-block gram; the joint hits
    of each unit's last arm follow from those by inclusion-exclusion, since
    every unit sits in exactly one arm per draw (``_complete_last_arm``).
    All counts are exact integers, so they equal the full gram's. pi and p
    are hit frequencies, and D is assembled from them as for exact moments,
    with the never-hit cells left unusable.
    """
    if reps < 2:
        raise ValueError("reps must be at least 2")
    n = design.n
    kn = n * design.k
    _warn_dense(kn)
    trimmed = kn - n  # cells of arms 0..k-2
    joint_counts = np.zeros((kn, kn))
    for index, start in enumerate(range(0, reps, MC_BLOCK_SIZE)):
        size = min(MC_BLOCK_SIZE, reps - start)
        arms = check_arms(design.sample_batch(stream_rng(seed, index), size), (size, n), design.k)
        # float32 is exact here: 0/1 products summed over at most 4096 rows.
        h = np.empty((trimmed, size), dtype=np.float32)
        for a in range(design.k - 1):
            np.equal(arms.T, a, out=h[a * n : (a + 1) * n])
        joint_counts[:trimmed, :trimmed] += h @ h.T
    _complete_last_arm(joint_counts, n, reps)

    p = joint_counts
    p /= reps
    pi = np.diag(p).copy()
    never_hit = pi == 0
    proven = design.structural_zero_cells()
    maybe_zero = never_hit & ~proven
    if maybe_zero.any():
        warnings.warn(
            f"{int(maybe_zero.sum())} cells were never hit in {reps} draws but are "
            "not provably impossible; their moments are flagged, not zeroed",
            RuntimeWarning,
        )
    return DesignMoments(
        n=n,
        k=design.k,
        pi=pi,
        p=p,
        D=_assemble_d(pi, p, never_hit),
        method="monte_carlo",
        zero_mask=never_hit & proven,
        maybe_zero_mask=maybe_zero,
        reps=reps,
        seed=seed,
    )


def _complete_last_arm(counts: np.ndarray, n: int, reps: int):
    """Fill the rows and columns of the last arm's cells of a (kn, kn)
    joint hit count matrix, in place, from its leading block over the other
    arms. Unit j sits in exactly one arm per draw, so cell s and unit j's
    last arm are hit together count(s) - (draws with s hit and j in another
    arm) times, and two last-arm cells i, j together reps - m_i - m_j + (draws
    with both i and j in other arms), m_i being the draws with i in another
    arm. Exact integers below 2**53 keep every entry exact."""
    trimmed = len(counts) - n
    others = trimmed // n
    lead = counts[:trimmed, :trimmed]
    hits = np.diagonal(lead)
    # with_other[s, j]: draws with cell s hit and unit j not in the last arm
    with_other = lead.reshape(trimmed, others, n).sum(axis=1)
    cross = hits[:, None] - with_other
    counts[:trimmed, trimmed:] = cross
    counts[trimmed:, :trimmed] = cross.T
    other = hits.reshape(others, n).sum(axis=0)
    both_other = with_other.reshape(others, n, n).sum(axis=0)
    counts[trimmed:, trimmed:] = reps - other[:, None] - other[None, :] + both_other


def rescaled_demeaning_matrix(n: int) -> np.ndarray:
    """(n/(n-1)) (I - J/n): unit diagonal, off-diagonal -1/(n-1)."""
    return (np.eye(n) - np.full((n, n), 1.0 / n)) * (n / (n - 1))


def crd_first_order_matrix(n: int, n_t: int) -> np.ndarray:
    """Analytic first-order design matrix for a two-arm completely
    randomized design with n_t treated of n units (arm order: treated,
    control)."""
    if not 0 < n_t < n:
        raise ValueError("n_t must lie strictly between 0 and n")
    n_c = n - n_t
    a = rescaled_demeaning_matrix(n)
    top = np.hstack([(n_c / n_t) * a, -a])
    bottom = np.hstack([-a, (n_t / n_c) * a])
    return np.vstack([top, bottom])


def row_bands(shape) -> list[slice]:
    """Slices of consecutive rows of about BAND_ENTRIES entries each; an
    elementwise pass made one band at a time allocates no temporary of the
    whole matrix's size."""
    step = max(1, BAND_ENTRIES // max(1, shape[1]))
    return [slice(i, i + step) for i in range(0, shape[0], step)]


def check_symmetric(M: np.ndarray, name: str = "matrix") -> None:
    """Raise ValueError unless the square matrix M equals its transpose to
    within atol 1e-10, compared one row band at a time."""
    if not all(np.allclose(M[rows], M[:, rows].T, atol=1e-10) for rows in row_bands(M.shape)):
        raise ValueError(f"{name} must be symmetric")


def largest_eigenvalue(M: np.ndarray, zero_diag: bool = False, checked: bool = False) -> float:
    """Largest eigenvalue of a symmetric matrix. zero_diag computes the
    variant with the diagonal zeroed first. checked says that the caller has
    already checked M symmetric (for example as a principal block of a
    checked matrix), so it is not checked again.

    From kn = LANCZOS_MIN_KN on, the value is the top Ritz value of the
    numpy Lanczos run that the certified clip also uses, when
    ``_proven_top_eigenvalue`` proves it within EIG_PROOF_RTOL relative;
    otherwise it is the dense symmetric solver's largest eigenvalue."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if not checked:
        check_symmetric(M)
    if zero_diag:
        M = M.copy()
        np.fill_diagonal(M, 0.0)
    if M.shape[0] == 0:
        return 0.0
    lam = _proven_top_eigenvalue(M) if len(M) >= LANCZOS_MIN_KN else None
    return float(np.linalg.eigvalsh(M)[-1]) if lam is None else lam


def _proven_top_eigenvalue(M: np.ndarray) -> float | None:
    """The top Ritz value lam of a Lanczos run on the symmetric matrix M, or
    None when it is not proven. With delta = EIG_PROOF_RTOL * max(1, |lam|),
    the Ritz vector's Rayleigh quotient, a lower bound on the largest
    eigenvalue, must be at least lam - delta, and (lam + delta) I - M must
    have a Cholesky factor, which proves every eigenvalue below lam + delta.

    The run (_lanczos, from a fixed seeded start) stops once the top Ritz
    pair's residual is at most LANCZOS_RESIDUAL_RTOL times M's largest
    absolute row sum. None also for kn < 3, for an M that is not exactly
    symmetric or has an entry that is not finite, and when
    LANCZOS_STEP_BUDGET steps run out. The value depends on M's values
    alone, not on its memory layout."""
    prepared = _lanczos_operator(M)
    if prepared is None:
        return None
    A, scale = prepared
    kn, tol = len(A), LANCZOS_RESIDUAL_RTOL * scale
    Q = np.empty((LANCZOS_STEP_BUDGET, kn))
    checks = _lanczos(A, np.random.default_rng(0).standard_normal(kn), np.empty((0, kn)), Q, tol)
    converged = next((check for check in checks if check[2][-1] <= tol), None)
    if converged is None:
        return None
    theta, S, _, steps = converged
    lam = float(theta[-1]) + 0.0  # + 0.0: a zero matrix's value is 0, never -0
    v = S[:, -1] @ Q[:steps]
    delta = EIG_PROOF_RTOL * max(1.0, abs(lam))
    if not (v @ (A @ v)) / (v @ v) >= lam - delta:
        return None
    from scipy.linalg.lapack import dpotrf

    shifted = np.negative(A)
    shifted.flat[:: kn + 1] += lam + delta
    # in place: the transpose view is the Fortran-ordered array LAPACK takes
    _, info = dpotrf(shifted.T, overwrite_a=1, clean=0)
    return lam if info == 0 else None


def _lanczos_operator(M: np.ndarray):
    """(A, scale) for the Lanczos runs on M: A is M as a C-ordered array,
    scale M's largest absolute row sum. None for kn < 3 and for an M that is
    not exactly symmetric or has an entry that is not finite."""
    if len(M) < 3:
        return None
    scale = 0.0
    for rows in row_bands(M.shape):
        band = M[rows]
        if not np.array_equal(band, M[:, rows].T):  # also when an entry is NaN
            return None
        scale = max(scale, float(np.abs(band).sum(axis=1).max()))
    if not math.isfinite(scale):
        return None
    # A matrix-vector product rounds by the matrix's layout: multiply by a
    # C-ordered array, M itself or (equal, as M is symmetric) its transpose.
    return np.ascontiguousarray(M.T if M.flags.f_contiguous else M), scale


def _certified_clip(M: np.ndarray) -> np.ndarray | None:
    """G = M - V diag(lam) V', M less its negative eigenpairs (lam, V), or
    None when G is not proven. With delta = EIG_PROOF_RTOL times M's largest
    absolute row sum, G + delta I must have a Cholesky factor, which proves
    every eigenvalue of G >= -delta.

    The pairs come from Lanczos runs (_negative_ritz_pairs) from fixed seeded
    starts. When the certificate fails, one more run, kept orthogonal to the
    pairs found so far, looks for more: a repeated negative eigenvalue shows
    one vector of its eigenspace per run. None also for kn < 3, for an M
    that is not exactly symmetric or has an entry that is not finite, for
    more than NEGATIVE_PART_CAP negative eigenvalues, when a run after a
    failed certificate finds no new pair, and when LANCZOS_STEP_BUDGET steps
    run out. The bytes of G depend on M's values alone, not on its memory
    layout or address."""
    prepared = _lanczos_operator(M)
    if prepared is None:
        return None
    A, scale = prepared
    kn, delta = len(A), EIG_PROOF_RTOL * scale
    rng = np.random.default_rng(0)
    Q = np.empty((LANCZOS_STEP_BUDGET, kn))  # the Lanczos vectors of every run
    lam, V, used, retry = np.empty(0), np.empty((0, kn)), 0, False
    G = np.empty((kn, kn))
    while True:
        found = _negative_ritz_pairs(
            A, rng.standard_normal(kn), V, Q[used:], delta, LANCZOS_RESIDUAL_RTOL * scale,
            NEGATIVE_PART_CAP - len(lam),
        )
        if found is None or (retry and not len(found[0])):
            return None
        used, retry = used + found[2], True
        lam, V = np.concatenate([lam, found[0]]), np.vstack([V, found[1]])
        # M + W W' with W = V' sqrt(-lam): matmul takes W @ W.T as one
        # symmetric rank-update, so G is exactly symmetric
        W = V.T * np.sqrt(-lam)
        np.matmul(W, W.T, out=G)
        np.add(M, G, out=G)
        diagonal = G.diagonal().copy()
        np.fill_diagonal(G, diagonal + delta)
        try:
            np.linalg.cholesky(G)
            return G
        except np.linalg.LinAlgError:
            pass
        finally:
            np.fill_diagonal(G, diagonal)


def _negative_ritz_pairs(A, start, V, Q, delta, tol, cap):
    """(values, vectors as rows, steps) of the Ritz pairs of _lanczos's run
    below -delta once each of them, and the smallest Ritz pair, has a
    residual at most tol. None when more than cap Ritz values lie below
    -delta (by interlacing, the restricted A then has more than cap negative
    eigenvalues), or when the run ends first."""
    for theta, S, residual, steps in _lanczos(A, start, V, Q, tol):
        negative = theta < -delta
        if np.count_nonzero(negative) > cap:
            return None
        if residual[0] <= tol and np.all(residual[negative] <= tol):
            return theta[negative], S[:, negative].T @ Q[:steps], steps
    return None


def _lanczos(A, start, V, Q, tol):
    """One Lanczos run with full reorthogonalization on the symmetric A,
    restricted to the complement of V's (orthonormal) rows, using Q's rows
    for its vectors. Every LANCZOS_CHECK_EVERY steps, at Q's last row and at
    an invariant Krylov space (beta <= tol), where the run ends, yields the
    ascending Ritz values theta, the tridiagonal matrix's eigenvectors S (the
    Ritz vectors are S' Q[:steps]), each Ritz pair's residual, and steps."""
    q = start - (V @ start) @ V
    q -= (V @ q) @ V
    norm = np.linalg.norm(q)
    if not norm > 0.0:
        return
    q /= norm
    alpha, beta = np.zeros(len(Q)), np.zeros(len(Q))
    for j in range(len(Q)):
        Q[j] = q
        w = A @ q
        for _ in range(2):  # classical Gram-Schmidt, twice
            h = Q[: j + 1] @ w
            w -= h @ Q[: j + 1]
            if len(V):
                w -= (V @ w) @ V
            alpha[j] += h[j]
        beta[j] = np.linalg.norm(w)
        if (j + 1) % LANCZOS_CHECK_EVERY == 0 or beta[j] <= tol or j + 1 == len(Q):
            T = np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
            theta, S = np.linalg.eigh(T)
            yield theta, S, beta[j] * np.abs(S[-1]), j + 1
            if beta[j] <= tol:
                return
        q = w / beta[j]


def design_complexity(
    moments: DesignMoments, arms=None, zero_diag: bool = False, checked: bool = False
) -> float:
    """Spectral complexity measure for a design (optionally an arm subset).

    Infinite when a participating cell has a proven zero probability; a
    warning (finite value) when cells are merely unhit in Monte Carlo. An
    arm subset reads its cells' block of D and of the masks in place of
    building its submoments. checked: the caller has already checked D
    symmetric (check_symmetric), so the block is not checked again.
    """
    zero, maybe = moments.zero_mask, moments.maybe_zero_mask
    if arms is not None:
        cells = np.concatenate([np.arange(moments.n) + a * moments.n for a in arms])
        zero, maybe = zero[cells], maybe[cells]
    if np.any(zero):
        return np.inf
    if np.any(maybe):
        warnings.warn(
            "complexity computed with possibly-zero cells; value may be unreliable",
            RuntimeWarning,
        )
    # rows, then columns: two plain gathers, several times faster than np.ix_
    D = moments.D if arms is None else moments.D[cells][:, cells]
    return largest_eigenvalue(D, zero_diag=zero_diag, checked=checked)


@dataclass(frozen=True)
class SecondOrderTensor:
    """Dense order-4 tensor of joint-inclusion covariances, normalized by
    the joint-inclusion products (0/0 resolves to 0)."""

    kn: int
    entries: np.ndarray


def second_order_tensor(design: Design) -> SecondOrderTensor:
    """Exact second-order tensor for an enumerable design with kn <= TENSOR_CAP."""
    kn = design.n * design.k
    if kn > TENSOR_CAP:
        raise ValueError(f"kn={kn} exceeds tensor materialization cap {TENSOR_CAP}")
    table = design.enumerate_support()
    _, p = _support_joint(table)
    indicators = table.indicator_matrix()
    w = table.probabilities
    fourth = np.einsum("si,sj,sk,sl,s->ijkl", indicators, indicators, indicators, indicators, w, optimize=True)
    pp = np.einsum("ij,kl->ijkl", p, p)
    entries = np.zeros_like(fourth)
    np.divide(fourth - pp, pp, out=entries, where=pp != 0)
    return SecondOrderTensor(kn=kn, entries=entries)


def tensor_slice_norm_bound(T: np.ndarray) -> float:
    """Max absolute slice sum over the four modes; certified upper bound on
    the l4-constrained singular value."""
    T = np.asarray(T, dtype=float)
    if not np.all(np.isfinite(T)):
        raise ValueError("tensor must be finite")
    absT = np.abs(T)
    slice_sums = [absT.sum(axis=tuple(j for j in range(4) if j != i)).max() for i in range(4)]
    return float(max(slice_sums))


def _l4_normalize(v: np.ndarray) -> np.ndarray:
    norm = float(np.sum(v**4)) ** 0.25
    if norm == 0:
        out = np.zeros_like(v)
        out[0] = 1.0
        return out
    return v / norm


def tensor_sigma_max_oracle(
    T: np.ndarray, restarts: int = 100, iters: int = 200, tol: float = 1e-10, seed: int = 0
) -> float:
    """Best-effort value of the l4-constrained multilinear maximization.

    Projected/block ascent on the four l4 spheres from random starts; each
    block update maximizes the (linear) objective in one argument exactly,
    so iterations are monotone. The result is a certified lower bound on
    the tensor singular value used as a test oracle.
    """
    T = np.asarray(T, dtype=float)
    dim = T.shape[0]
    if T.shape != (dim,) * 4:
        raise ValueError("tensor must be order 4 with equal mode dimensions")
    if dim > 16:
        raise ValueError("oracle is for small dimensions only")
    rng = np.random.default_rng(seed)
    best = 0.0
    letters = "ijkl"
    for _ in range(restarts):
        vs = [_l4_normalize(rng.standard_normal(dim)) for _ in range(4)]
        value = np.einsum("ijkl,i,j,k,l->", T, *vs)
        for _ in range(iters):
            for mode in range(4):
                others = [letters[m] for m in range(4) if m != mode]
                sub = "ijkl," + ",".join(others) + "->" + letters[mode]
                g = np.einsum(sub, T, *(vs[m] for m in range(4) if m != mode))
                if np.all(g == 0):
                    continue
                # argmax of <g, v> on the l4 sphere: v ~ sign(g) |g|^(1/3)
                vs[mode] = _l4_normalize(np.sign(g) * np.abs(g) ** (1.0 / 3.0))
            new_value = np.einsum("ijkl,i,j,k,l->", T, *vs)
            if abs(new_value - value) <= tol * max(1.0, abs(new_value)):
                value = new_value
                break
            value = new_value
        best = max(best, float(value))
    return best
