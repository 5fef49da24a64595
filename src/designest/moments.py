"""Design moments: inclusion probabilities, joint-inclusion matrix, the
first-order design matrix, the second-order tensor, and spectral summaries.

The first-order design matrix D is the covariance matrix of the
inverse-probability-weighted stacked assignment indicators; entrywise,
D[s, t] = p[s, t] / (pi[s] * pi[t]) - 1 wherever both probabilities are
positive. Cells with pi = 0 are flagged and their rows left unusable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .designs import Design, SupportTable, check_arms, stream_rng

MC_BLOCK_SIZE = 4096  # draws per random stream; part of what a seed reproduces
DENSE_LIMIT = 8192  # largest kn stored dense
TENSOR_CAP = 64
PSD_TOL = 1e-8


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
        """Uncompressed: the floats barely compress and zlib dominates the
        write. load_npz also reads files written compressed."""
        np.savez(
            path,
            n=self.n,
            k=self.k,
            pi=self.pi,
            p=self.p,
            D=self.D,
            method=self.method,
            zero_mask=self.zero_mask,
            maybe_zero_mask=self.maybe_zero_mask,
            reps=-1 if self.reps is None else self.reps,
            seed=-1 if self.seed is None else self.seed,
        )

    @classmethod
    def load_npz(cls, path) -> "DesignMoments":
        data = np.load(path, allow_pickle=False)
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

    def pi_to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("arm,unit,pi\n")
            for a in range(self.k):
                for i in range(self.n):
                    fh.write(f"{a + 1},{i},{self.pi[a * self.n + i]:.15g}\n")

    def d_to_csv(self, path, drop_tol: float = 1e-12):
        """Coordinate export of D as i,j,value triplets (tiny entries dropped)."""
        with open(path, "w") as fh:
            fh.write("i,j,value\n")
            rows, cols = np.nonzero(np.abs(self.D) >= drop_tol)
            for i, j in zip(rows, cols):
                fh.write(f"{i},{j},{self.D[i, j]:.15g}\n")


def _assemble_d(pi, p, zero_mask):
    kn = len(pi)
    D = np.zeros((kn, kn))
    ok = ~zero_mask
    denom = np.outer(pi[ok], pi[ok])
    D[np.ix_(ok, ok)] = p[np.ix_(ok, ok)] / denom - 1.0
    # Exact -1 where joint inclusion is impossible; keeps the identification
    # mask consistent between the p == 0 rule and the D == -1 rule.
    impossible = (p == 0) & np.outer(ok, ok)
    D[impossible] = -1.0
    np.fill_diagonal(D, np.where(ok, np.divide(1.0 - pi, pi, out=np.zeros_like(pi), where=ok), 0.0))
    return D


def _warn_dense(kn: int):
    if kn > DENSE_LIMIT:
        warnings.warn(
            f"kn={kn} exceeds the dense-storage comfort zone ({DENSE_LIMIT}); "
            "expect large memory use (export via the coordinate CSV form)",
            RuntimeWarning,
        )


def exact_moments(design: Design, cap: int | None = None) -> DesignMoments:
    """pi, p, D computed from the full support with no sampling error."""
    _warn_dense(design.n * design.k)
    kwargs = {} if cap is None else {"cap": cap}
    table = design.enumerate_support(**kwargs)
    return moments_from_support(table)


def analytic_bernoulli_moments(design) -> DesignMoments:
    """Closed-form moments for an independent per-unit design.

    Only within-unit cells are dependent: joint inclusion is prob_a * prob_b
    across units, zero for two arms of the same unit, and prob_a on the
    diagonal. Avoids enumerating the k^n support.
    """
    from .designs import BernoulliDesign

    if not isinstance(design, BernoulliDesign):
        raise TypeError("analytic moments available for Bernoulli designs only")
    n, k = design.n, design.k
    pi = np.repeat(design.probs, n)
    p = np.outer(pi, pi)
    for a in range(k):
        for b in range(k):
            idx = np.arange(n)
            p[a * n + idx, b * n + idx] = design.probs[a] if a == b else 0.0
    zero_mask = pi == 0
    D = _assemble_d(pi, p, zero_mask)
    return DesignMoments(
        n=n, k=k, pi=pi, p=p, D=D, method="exact", zero_mask=zero_mask
    )


def analytic_crd_moments(design) -> DesignMoments:
    """Closed-form moments for a completely randomized design with any
    number of arms: joint inclusion is hypergeometric across units and zero
    across arms of the same unit."""
    from .designs import CompletelyRandomizedDesign

    if not isinstance(design, CompletelyRandomizedDesign):
        raise TypeError("analytic moments available for completely randomized designs only")
    n, k = design.n, design.k
    counts = design.counts
    pi = np.repeat(counts / n, n)
    p = np.empty((n * k, n * k))
    for a in range(k):
        for b in range(k):
            block = np.s_[a * n : (a + 1) * n, b * n : (b + 1) * n]
            if a == b:
                off = (counts[a] / n) * ((counts[a] - 1) / (n - 1)) if n > 1 else 0.0
                p[block] = off
                np.fill_diagonal(p[block], counts[a] / n)
            else:
                off = (counts[a] / n) * (counts[b] / (n - 1)) if n > 1 else 0.0
                p[block] = off
                np.fill_diagonal(p[block], 0.0)
    zero_mask = pi == 0
    return DesignMoments(
        n=n, k=k, pi=pi, p=p, D=_assemble_d(pi, p, zero_mask),
        method="exact", zero_mask=zero_mask,
    )


def closed_form_or_exact_moments(design, cap: int | None = None) -> DesignMoments:
    """Exact moments by the cheapest exact route: closed forms for the
    independent and completely randomized families, enumeration otherwise."""
    from .designs import BernoulliDesign, CompletelyRandomizedDesign

    if isinstance(design, BernoulliDesign):
        return analytic_bernoulli_moments(design)
    if isinstance(design, CompletelyRandomizedDesign):
        return analytic_crd_moments(design)
    return exact_moments(design, cap=cap)


def moments_from_support(table: SupportTable) -> DesignMoments:
    indicators = table.indicator_matrix()
    w = table.probabilities
    pi = w @ indicators
    p = indicators.T @ (indicators * w[:, None])
    # Probabilities assembled from sums of positive terms: a cell/pair never
    # realized yields an exact 0.
    zero_mask = pi == 0
    D = _assemble_d(pi, p, zero_mask)
    return DesignMoments(
        n=table.n, k=table.k, pi=pi, p=p, D=D, method="exact", zero_mask=zero_mask
    )


def mc_moments(design: Design, reps: int, seed: int) -> DesignMoments:
    """Monte-Carlo moments from hit counts.

    Block b of MC_BLOCK_SIZE draws is one ``sample_batch`` call on an
    independent stream keyed by (seed, b), checked for shape and arm range.
    pi and p are hit frequencies, and D is assembled from them as for exact
    moments, with the never-hit cells left unusable.
    """
    if reps < 2:
        raise ValueError("reps must be at least 2")
    n = design.n
    kn = n * design.k
    _warn_dense(kn)
    joint_counts = np.zeros((kn, kn))
    for index, start in enumerate(range(0, reps, MC_BLOCK_SIZE)):
        size = min(MC_BLOCK_SIZE, reps - start)
        arms = check_arms(design.sample_batch(stream_rng(seed, index), size), (size, n), design.k)
        # float32 is exact here: 0/1 products summed over at most 4096 rows.
        h = np.zeros((size, kn), dtype=np.float32)
        h[np.arange(size)[:, None], arms * n + np.arange(n)] = 1.0
        joint_counts += h.T @ h

    p = joint_counts / reps
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


def largest_eigenvalue(
    M: np.ndarray,
    zero_diag: bool = False,
    zero_mask: np.ndarray | None = None,
) -> float:
    """Largest eigenvalue of a symmetric matrix (dense symmetric solver).

    Cells flagged as zero-probability make the measure infinite (the
    worst-case variance is unbounded). zero_diag computes the variant with
    the diagonal zeroed first.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(M, M.T, atol=1e-10):
        raise ValueError("matrix must be symmetric")
    if zero_mask is not None and np.any(zero_mask):
        return np.inf
    if zero_diag:
        M = M.copy()
        np.fill_diagonal(M, 0.0)
    if M.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(M)[-1])


def design_complexity(moments: DesignMoments, arms=None, zero_diag: bool = False) -> float:
    """Spectral complexity measure for a design (optionally an arm subset).

    Infinite when a participating cell has a proven zero probability; a
    warning (finite value) when cells are merely unhit in Monte Carlo.
    """
    sub = moments if arms is None else moments.submoments(arms)
    if np.any(sub.zero_mask):
        return np.inf
    if np.any(sub.maybe_zero_mask):
        warnings.warn(
            "complexity computed with possibly-zero cells; value may be unreliable",
            RuntimeWarning,
        )
    return largest_eigenvalue(sub.D, zero_diag=zero_diag)


@dataclass(frozen=True)
class SecondOrderTensor:
    """Dense order-4 tensor of joint-inclusion covariances, normalized by
    the joint-inclusion products (0/0 resolves to 0)."""

    kn: int
    entries: np.ndarray

    def weighted(self, Dt: np.ndarray) -> np.ndarray:
        """(Dt x Dt) o S, the object whose spectral size controls variance
        bound estimation error."""
        return np.einsum("ij,kl->ijkl", Dt, Dt) * self.entries

    def save_npz(self, path):
        np.savez(path, kn=self.kn, entries=self.entries)


def second_order_tensor(design: Design, cap: int = TENSOR_CAP) -> SecondOrderTensor:
    """Exact second-order tensor for an enumerable design with kn <= cap."""
    kn = design.n * design.k
    if kn > cap:
        raise ValueError(f"kn={kn} exceeds tensor materialization cap {cap}")
    table = design.enumerate_support()
    indicators = table.indicator_matrix()
    w = table.probabilities
    p = indicators.T @ (indicators * w[:, None])
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
