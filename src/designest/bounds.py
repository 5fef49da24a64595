"""Identified variance-bound matrices and their certification.

A bound matrix dominates the first-order design matrix in the positive
semidefinite order and vanishes wherever that matrix equals -1 (pairs of
cells that are never jointly observable), which makes the bounded quadratic
form estimable from one realization.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .designs import CompletelyRandomizedDesign
from .moments import (
    DesignMoments,
    _crd_joint,
    coordinate_csv,
    rescaled_demeaning_matrix,
    row_bands,
)

PSD_TOL = 1e-8
MINUS_ONE_TOL = 1e-12


class NotIdentifiedError(ValueError):
    """The candidate bound is nonzero on a never-jointly-observed pair."""


@dataclass
class VarianceBound:
    """Bound matrix, its -1-entry mask, and the weighted form used by the
    plug-in estimator (Hadamard division by joint probabilities, 0/0 -> 0).

    cells, when set, names the stacked cells that the rows and columns of
    all three matrices stand for (an observed block); None means all kn.
    """

    Dt: np.ndarray
    mask_minus1: np.ndarray
    Dt_over_p: np.ndarray
    psd_clipped: bool = False
    name: str = "custom"
    cells: np.ndarray | None = None

    @property
    def kn(self) -> int:
        return self.Dt.shape[0]

    def to_csv(self, path):
        coordinate_csv(path, self.Dt)


def _weighted_form(Dt: np.ndarray, p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(Dt)
    np.divide(Dt, p, out=out, where=p != 0)
    return out


def minus_one_mask(moments: DesignMoments, cells: np.ndarray | None = None) -> np.ndarray:
    """Mask of the -1 entries of D (never jointly observed pairs): rows
    `cells` (default: every cell) over all kn columns.

    Exact moments: |d + 1| <= MINUS_ONE_TOL detection. Monte Carlo: zero
    joint hits in p, the primary and less noisy datum. Flagged cells and
    the diagonal are never in the mask.
    """
    kn = moments.kn
    source = moments.D if moments.method == "exact" else moments.p
    mask = np.empty((kn if cells is None else len(cells), kn), dtype=bool)
    for rows in row_bands(mask.shape):
        band = source[rows] if cells is None else source[cells[rows]]
        if moments.method == "exact":
            mask[rows] = np.abs(band + 1.0) <= MINUS_ONE_TOL
        else:
            mask[rows] = band == 0
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
    block of the bound is built; each entry is bitwise the full bound's,
    because the row counts still run over all kn columns. The plug-in
    bound of that realization needs nothing else.
    """
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
    if cells is not None:
        cells = np.asarray(cells, dtype=np.int64)
    rows = minus_one_mask(moments, cells)
    counts = rows.sum(axis=1)
    if cells is None:
        mask, Dt, p = rows, moments.D.copy(), moments.p
    else:
        # rows, then columns: two plain gathers, several times faster than np.ix_
        mask, Dt, p = rows[:, cells], moments.D[cells][:, cells], moments.p[cells][:, cells]
    # D plus the indicator of the -1 entries, zeroed there, plus row counts
    # on the diagonal (the mask never holds a diagonal entry)
    np.copyto(Dt, 0.0, where=mask)
    diagonal = np.arange(len(Dt))
    Dt[diagonal, diagonal] += counts
    return VarianceBound(
        Dt=Dt,
        mask_minus1=mask,
        Dt_over_p=_weighted_form(Dt, p),
        name="aronow_samii",
        cells=cells,
    )


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
    _, p = _crd_joint(n, np.array([n_t, n_c]))
    return VarianceBound(
        Dt=Dt,
        mask_minus1=p == 0,  # the two arms of one unit
        Dt_over_p=_weighted_form(Dt, p),
        name="neyman",
    )


def build_bound(design, moments: DesignMoments, kind: str = "aronow_samii") -> VarianceBound:
    """The named bound for a design. "neyman" needs a two-arm completely
    randomized design."""
    if kind == "aronow_samii":
        return aronow_samii_bound(moments)
    if kind == "neyman":
        if not (isinstance(design, CompletelyRandomizedDesign) and design.k == 2):
            raise ValueError("the neyman bound needs a two-arm completely randomized design")
        return neyman_bound_crd(design.n, int(design.counts[0]))
    raise ValueError(f"unknown bound kind {kind!r}")


def custom_bound(Dt: np.ndarray, moments: DesignMoments, tol: float = PSD_TOL) -> VarianceBound:
    """Wrap a user-supplied bound matrix after certifying it against the
    design moments."""
    Dt = np.asarray(Dt, dtype=float)
    mask = minus_one_mask(moments)
    bound = VarianceBound(
        Dt=Dt, mask_minus1=mask, Dt_over_p=_weighted_form(Dt, moments.p), name="custom"
    )
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
    on that block's smallest eigenvalue. Formed one row band at a time."""
    margins = np.empty(len(live))
    for rows in row_bands(Dt.shape):
        band = Dt[rows] - D[rows]
        index = np.arange(len(band))
        diagonal = band[index, index + rows.start].copy()
        band[index, index + rows.start] = 0.0
        margins[rows] = diagonal - np.abs(band).sum(axis=1)
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
    full spectrum."""
    if bound.cells is not None:
        raise ValueError("psd_clip needs the full bound, not an observed block")
    eigvals, eigvecs = np.linalg.eigh(bound.Dt_over_p)
    clipped = (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T
    return VarianceBound(
        Dt=bound.Dt,
        mask_minus1=bound.mask_minus1,
        Dt_over_p=clipped,
        psd_clipped=True,
        name=bound.name,
    )
