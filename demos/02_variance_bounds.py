"""Identified variance bounds.

The variance of a design-based estimator is a quadratic form in the
first-order design matrix D, but D has -1 entries at pairs of cells that
are never observed together, so the form is not estimable. A valid bound
matrix dominates D in the positive semidefinite order and vanishes at those
entries. This script builds the two shipped bounds, certifies them, and
shows how they compare spectrally.
"""

import numpy as np

from designest import (
    CompletelyRandomizedDesign,
    aronow_samii_bound,
    certify_bound,
    exact_moments,
    neyman_bound_crd,
    psd_clip,
)

n, n_t = 6, 3
design = CompletelyRandomizedDesign(n, [n_t, n - n_t])
moments = exact_moments(design)

# ---------------------------------------------------------------------------
# 1. The general-purpose bound works for any design
# ---------------------------------------------------------------------------
as_bound = aronow_samii_bound(moments)
print("number of -1 entries per row of D:", int(as_bound.mask_minus1[0].sum()))
print("bound entries are exact zeros there:", np.all(as_bound.Dt[as_bound.mask_minus1] == 0))

cert = certify_bound(moments, as_bound)
print(
    f"validity: min eigenvalue of (bound - D) >= {cert.min_eigenvalue_bound:.2e} "
    f"(>= 0 up to tol, proven by {cert.psd_proof})"
)
print("identification violations:", cert.mask_violations)

# ---------------------------------------------------------------------------
# 2. The classical two-arm bound
# ---------------------------------------------------------------------------
ney = neyman_bound_crd(n, n_t)
print("\nclassical bound block diagonal (n/n_t on the demeaning matrix):")
print(np.round(ney.Dt[:3, :3], 3))
cert_n = certify_bound(moments, ney)
print("valid and identified:", cert_n.psd_ok and cert_n.identified_ok)

# the weighted form is what the plug-in estimator consumes: its expectation
# over the design recovers the bound matrix exactly
table = design.enumerate_support()
acc = np.zeros_like(ney.Dt)
for idx in range(len(table)):
    r = table.indicator_matrix()[idx]
    acc += table.probabilities[idx] * np.outer(r, r) * ney.Dt_over_p
print("E[R (bound/p) R] == bound:", np.max(np.abs(acc - ney.Dt)) < 1e-10)

# ---------------------------------------------------------------------------
# 3. Neither bound dominates the other in general
# ---------------------------------------------------------------------------
cert_cmp = certify_bound(moments, ney, compare=as_bound)
print("\nspectrum of (classical - general):", np.round(cert_cmp.comparison_spectrum, 3))
print("projected off the intercepts:   ", np.round(cert_cmp.comparison_spectrum_projected, 3))
print("after projection the difference is PSD: for demeaned (Hajek-style)")
print("estimators the general bound is the tighter of the two here.")

# ---------------------------------------------------------------------------
# 4. Optional negative-spectrum clipping of the weighted form
# ---------------------------------------------------------------------------
clipped = psd_clip(as_bound)
v = np.arange(2 * n, dtype=float)
print("\nclipped quadratic form >= raw form:",
      v @ clipped.Dt_over_p @ v >= v @ as_bound.Dt_over_p @ v - 1e-10)
print("(clipping guarantees nonnegative plug-in estimates, at the price of upward bias)")
