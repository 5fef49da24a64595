"""Identified variance-bound matrices and their certification.

A bound matrix dominates the first-order design matrix in the positive
semidefinite order and vanishes wherever that matrix equals -1 (pairs of
cells that are never jointly observable), which makes the bounded quadratic
form estimable from one realization.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .designs import CompletelyRandomizedDesign
from .moments import (
    DesignMoments,
    _assemble_d,
    _certified_clip,
    _joint,
    _observed_joint,
    coordinate_csv,
    rescaled_demeaning_matrix,
    row_bands,
)

PSD_TOL = 1e-8


class NotIdentifiedError(ValueError):
    """The candidate bound is nonzero on a never-jointly-observed pair."""


@dataclass
class VarianceBound:
    """Bound matrix, its -1-entry mask, and the weighted form used by the
    plug-in estimator (Hadamard division by joint probabilities, 0/0 -> 0).

    A builder hands over the joint probabilities p in place of the weighted
    form: Dt_over_p is then formed at its first read, kept, and p released.
    Only the plug-in reads it, so a bound that is only certified or written
    never forms it. A weighted form given explicitly (psd_clip's clipped
    form) is kept as it is.

    cells, when set, names the stacked cells that the rows and columns of
    all the matrices stand for (an observed block); None means all kn.
    """

    Dt: np.ndarray
    mask_minus1: np.ndarray
    Dt_over_p: np.ndarray | None = None
    psd_clipped: bool = False
    name: str = "custom"
    cells: np.ndarray | None = None
    p: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._weighted is not None:
            self.p = None
        elif self.p is None:
            raise ValueError("a bound needs its weighted form Dt_over_p or the joint probabilities p")

    @property
    def kn(self) -> int:
        return self.Dt.shape[0]

    def to_csv(self, path):
        coordinate_csv(path, self.Dt)


def _weighted_form(Dt: np.ndarray, p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(Dt)
    np.divide(Dt, p, out=out, where=p != 0)
    return out


def _read_weighted(bound: VarianceBound) -> np.ndarray:
    if bound._weighted is None:
        bound._weighted, bound.p = _weighted_form(bound.Dt, bound.p), None
    return bound._weighted


def _set_weighted(bound: VarianceBound, value: np.ndarray | None):
    bound._weighted = value


# Set after the dataclass is made, so that Dt_over_p stays an init field
# (positional, keyword and dataclasses.replace) whose reads go through the cache.
VarianceBound.Dt_over_p = property(_read_weighted, _set_weighted)


def minus_one_mask(moments: DesignMoments, cells: np.ndarray | None = None) -> np.ndarray:
    """Mask of the -1 entries of D (never jointly observed pairs, p == 0,
    where D is an exact -1 for exact and Monte-Carlo moments alike): rows
    `cells` (default: every cell) over all kn columns. Flagged cells and the
    diagonal are never in the mask.
    """
    kn = moments.kn
    mask = np.empty((kn if cells is None else len(cells), kn), dtype=bool)
    for rows in row_bands(mask.shape):
        mask[rows] = (moments.p[rows] if cells is None else moments.p[cells[rows]]) == 0
    cells = np.arange(kn) if cells is None else cells
    dead = moments.zero_mask | moments.maybe_zero_mask
    mask[:, dead] = False
    mask[dead[cells], :] = False
    mask[np.arange(len(cells)), cells] = False
    return mask


def aronow_samii_bound(moments: DesignMoments, cells=None) -> VarianceBound:
    """General-purpose bound: add back the -1 entries and put their row
    counts on the diagonal (diagonally dominant increment, so validity is
    immediate from Gershgorin).

    With cells (for example a realization's observed cells) only that
    block of the bound is built, from the blocks of p and D and each block
    row's count of -1 entries over all kn columns. Each entry is bitwise the
    full bound's. The plug-in bound of that realization needs nothing else.
    """
    if cells is None:
        return _aronow_samii(moments, moments.p, moments.D.copy())
    cells = np.asarray(cells, dtype=np.int64)
    counts = minus_one_mask(moments, cells).sum(axis=1)
    # rows, then columns: two plain gathers, several times faster than np.ix_
    p, D = moments.p[cells][:, cells], moments.D[cells][:, cells]
    return _aronow_samii(moments, p, D, cells, counts)


def observed_block_bound(design, cells) -> tuple[DesignMoments, VarianceBound]:
    """The exact moments of a design that has_closed_form without p and D
    (None), and their aronow_samii_bound(moments, cells), bitwise: built
    from the closed form's block of the observed cells alone
    (moments._observed_joint), so no kn x kn matrix is formed."""
    cells = np.asarray(cells, dtype=np.int64)
    pi, p, counts = _observed_joint(design, cells)
    moments = DesignMoments(
        n=design.n, k=design.k, pi=pi, p=None, D=None, method="exact", zero_mask=pi == 0
    )
    Dt = _assemble_d(pi[cells], p, moments.zero_mask[cells])
    return moments, _aronow_samii(moments, p, Dt, cells, counts)


def _aronow_samii(moments, p, Dt, cells=None, counts=None) -> VarianceBound:
    """The bound in place of Dt, D's block of the cells (None: all kn) with
    p's block p: D plus the indicator of its -1 entries, zeroed there, plus
    counts, each row's -1 entries over all kn columns (default: the mask's
    row sums, as for the full D), on the diagonal."""
    if np.any(moments.zero_mask):
        raise NotIdentifiedError(
            "moments contain structurally zero inclusion probabilities; "
            "restrict to arms with positivity before bounding"
        )
    if np.any(moments.maybe_zero_mask):
        warnings.warn(
            "possibly-zero cells present; bound built on the remaining cells",
            RuntimeWarning,
        )
    live = ~moments.maybe_zero_mask  # no cell is proven impossible past the check
    live = live if cells is None else live[cells]
    # the block of minus_one_mask, formed in place
    mask = p == 0
    mask &= live[:, None]
    mask &= live
    np.fill_diagonal(mask, False)
    counts = mask.sum(axis=1) if counts is None else counts
    np.copyto(Dt, 0.0, where=mask)
    diagonal = np.arange(len(Dt))
    Dt[diagonal, diagonal] += counts
    return VarianceBound(Dt=Dt, mask_minus1=mask, name="aronow_samii", cells=cells, p=p)


def neyman_bound_crd(n: int, n_t: int) -> VarianceBound:
    """Classical two-arm bound: block-diagonal (n/n_t) A, (n/n_c) A.

    Requires at least two units per arm; with a single treated or control
    unit the within-arm joint inclusion probability is zero where the bound
    is nonzero, so it is not identified.
    """
    if not 0 < n_t < n:
        raise ValueError("n_t must lie strictly between 0 and n")
    n_c = n - n_t
    if n_t < 2 or n_c < 2:
        raise NotIdentifiedError(
            "Neyman bound needs within-arm pairs jointly observable (n_t >= 2 and n_c >= 2)"
        )
    a = rescaled_demeaning_matrix(n)
    Dt = np.zeros((2 * n, 2 * n))
    Dt[:n, :n] = (n / n_t) * a
    Dt[n:, n:] = (n / n_c) * a
    _, p = _joint(CompletelyRandomizedDesign(n, [n_t, n_c]))
    mask = p == 0  # the two arms of one unit
    return VarianceBound(Dt=Dt, mask_minus1=mask, name="neyman", p=p)


def check_bound_kind(design, kind: str) -> str:
    """kind, if build_bound builds it for the design; otherwise a ValueError.
    "neyman" needs a two-arm completely randomized design."""
    if kind not in ("aronow_samii", "neyman"):
        raise ValueError(f"unknown bound kind {kind!r}; known: aronow_samii, neyman")
    if kind == "neyman" and not (isinstance(design, CompletelyRandomizedDesign) and design.k == 2):
        raise ValueError("the neyman bound needs a two-arm completely randomized design")
    return kind


def build_bound(design, moments: DesignMoments, kind: str = "aronow_samii") -> VarianceBound:
    """The named bound (see check_bound_kind) for a design and its moments."""
    if check_bound_kind(design, kind) == "neyman":
        return neyman_bound_crd(design.n, int(design.counts[0]))
    return aronow_samii_bound(moments)


def custom_bound(Dt: np.ndarray, moments: DesignMoments, tol: float = PSD_TOL) -> VarianceBound:
    """Wrap a user-supplied bound matrix after certifying it against the
    design moments."""
    Dt = np.asarray(Dt, dtype=float)
    mask = minus_one_mask(moments)
    bound = VarianceBound(Dt=Dt, mask_minus1=mask, name="custom", p=moments.p)
    report = certify_bound(moments, bound, tol=tol)
    if not (report.psd_ok and report.identified_ok):
        raise NotIdentifiedError(
            f"supplied matrix is not a valid identified bound: "
            f"min_eig>={report.min_eigenvalue_bound:.3g} ({report.psd_proof}), "
            f"mask violations={report.mask_violations}"
        )
    return bound


@dataclass
class BoundCertificate:
    """min_eigenvalue_bound is a lower bound on the smallest eigenvalue of
    the live block of Dt - D: the smallest Gershgorin margin when psd_proof
    is "gershgorin", the smallest eigenvalue itself when it is "spectrum"."""

    min_eigenvalue_bound: float
    psd_proof: str
    psd_ok: bool
    mask_violations: int
    identified_ok: bool
    comparison_spectrum: np.ndarray | None = None
    comparison_spectrum_projected: np.ndarray | None = None

    def to_json(self, path=None):
        payload = {
            "min_eigenvalue_bound": self.min_eigenvalue_bound,
            "psd_proof": self.psd_proof,
            "psd_ok": bool(self.psd_ok),
            "mask_violations": int(self.mask_violations),
            "identified_ok": bool(self.identified_ok),
        }
        if self.comparison_spectrum is not None:
            payload["comparison_spectrum"] = self.comparison_spectrum.tolist()
            payload["comparison_spectrum_projected"] = self.comparison_spectrum_projected.tolist()
        text = json.dumps(payload, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def _gershgorin_margin(Dt: np.ndarray, D: np.ndarray, live: np.ndarray) -> float:
    """Smallest Gershgorin margin of Dt - D over the live rows: the diagonal
    entry less the off-diagonal absolute row sum, over all columns. Each
    margin is at most the live block's own, so the smallest is a lower bound
    on that block's smallest eigenvalue. Formed one row band at a time, in
    one band buffer."""
    margins = np.empty(len(live))
    bands = row_bands(Dt.shape)
    buffer = np.empty((bands[0].stop if bands else 0, Dt.shape[1]))
    for rows in bands:
        size = len(margins[rows])
        band = np.subtract(Dt[rows], D[rows], out=buffer[:size])
        index = np.arange(len(band))
        diagonal = band[index, index + rows.start].copy()
        band[index, index + rows.start] = 0.0
        margins[rows] = diagonal - np.abs(band, out=band).sum(axis=1)
    return float(margins[live].min()) if live.any() else 0.0


def certify_bound(
    moments: DesignMoments,
    bound: VarianceBound,
    tol: float = PSD_TOL,
    compare: VarianceBound | None = None,
) -> BoundCertificate:
    """Validity and identification check, with an optional spectral
    comparison of two bounds (raw, and projected off the intercept space as
    is relevant for demeaned estimators).

    Validity (Dt - D positive semidefinite on the live cells) is proven by
    Gershgorin's theorem when every live row's margin is >= -tol, as it is
    for the diagonally dominant Aronow-Samii increment; otherwise the dense
    spectrum of the live block decides."""
    if bound.Dt.shape != moments.D.shape:
        raise ValueError("bound and moments dimensions differ")
    live = ~(moments.zero_mask | moments.maybe_zero_mask)
    min_eig, proof = _gershgorin_margin(bound.Dt, moments.D, live), "gershgorin"
    if not min_eig >= -tol:  # also when a margin is NaN
        diff = (bound.Dt - moments.D)[np.ix_(live, live)]
        min_eig, proof = float(np.linalg.eigvalsh(diff).min()), "spectrum"
    # The moments' own -1 pattern, not bound.mask_minus1: a bound may carry
    # another mask (neyman's is the analytic p == 0), and a check against the
    # bound's own mask would pass it wherever the moments disagree. Counted
    # one row band at a time, so no kn x kn mask is formed.
    cells, violations = np.arange(moments.kn), 0
    for rows in row_bands(bound.Dt.shape):
        band = minus_one_mask(moments, cells[rows]) & (bound.Dt[rows] != 0.0)
        violations += int(np.count_nonzero(band))
    cert = BoundCertificate(
        min_eigenvalue_bound=min_eig,
        psd_proof=proof,
        psd_ok=min_eig >= -tol,
        mask_violations=violations,
        identified_ok=violations == 0,
    )
    if compare is not None:
        delta = bound.Dt - compare.Dt
        cert.comparison_spectrum = np.sort(np.linalg.eigvalsh(delta))
        # projected off the arm intercepts: each n x n arm block demeaned
        # along both axes
        blocks = delta.reshape(moments.k, moments.n, moments.k, moments.n)
        blocks = blocks - blocks.mean(axis=1, keepdims=True)
        blocks -= blocks.mean(axis=3, keepdims=True)
        projected = blocks.reshape(delta.shape)
        cert.comparison_spectrum_projected = np.sort(np.linalg.eigvalsh(projected))
    return cert


def psd_clip(bound: VarianceBound) -> VarianceBound:
    """Zero the negative spectrum of the weighted form; the resulting
    plug-in estimates are upward biased and never negative. Needs the
    full bound: the spectrum of an observed block is not the block of the
    full spectrum.

    The clipped form is the weighted form less its negative eigenpairs,
    found by Lanczos and proven by a Cholesky factor to have no eigenvalue
    below -EIG_PROOF_RTOL times the form's largest absolute row sum
    (moments._certified_clip). Where that proof is not made, it is the
    full spectrum's clip."""
    if bound.cells is not None:
        raise ValueError("psd_clip needs the full bound, not an observed block")
    clipped = _certified_clip(bound.Dt_over_p)
    if clipped is None:
        eigvals, eigvecs = np.linalg.eigh(bound.Dt_over_p)
        clipped = (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T
    return VarianceBound(
        Dt=bound.Dt,
        mask_minus1=bound.mask_minus1,
        Dt_over_p=clipped,
        psd_clipped=True,
        name=bound.name,
    )
