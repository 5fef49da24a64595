"""Designs and their probabilistic fingerprints.

Walks through building assignment designs, sampling and enumerating them,
and computing the moment objects every other capability consumes: the
inclusion probabilities, the joint-inclusion matrix, and the first-order
design matrix with its spectral complexity measure.
"""

import numpy as np

from designest import (
    BernoulliDesign,
    CompletelyRandomizedDesign,
    StratifiedDesign,
    design_complexity,
    exact_moments,
    largest_eigenvalue,
    mc_moments,
    crd_first_order_matrix,
    stream_rng,
)

# ---------------------------------------------------------------------------
# 1. Designs are distributions over assignment vectors
# ---------------------------------------------------------------------------
crd = CompletelyRandomizedDesign(10, counts=[4, 6])
rng = stream_rng(7)
draw = crd.sample(rng)
print("one draw of CRD(10, [4,6]):", draw.arm_of)
print("arm counts are forced by the design:", np.bincount(draw.arm_of))

bern = BernoulliDesign(6, probs=[0.25, 0.25, 0.25, 0.25])
print("\nfour-arm Bernoulli draw:", bern.sample(rng).arm_of)

strata = StratifiedDesign.from_proportions(
    10, strata=[range(0, 5), range(5, 10)], proportions=[0.25, 0.25, 0.25, 0.25]
)
print("stratified counts per stratum:", [c.tolist() for c in strata.counts_by_stratum])
print("(remainder units go to the highest-numbered arms first)")

# ---------------------------------------------------------------------------
# 2. Small designs can be enumerated exactly
# ---------------------------------------------------------------------------
table = crd.enumerate_support()
print(f"\nCRD(10,[4,6]) support size: {len(table)} (C(10,4) = 210)")
print("every point has probability 1/210:", np.allclose(table.probabilities, 1 / 210))

# ---------------------------------------------------------------------------
# 3. Exact moments vs Monte-Carlo moments
# ---------------------------------------------------------------------------
exact = exact_moments(crd)
mc = mc_moments(crd, reps=200_000, seed=42)
print("\ninclusion probabilities (exact):", np.round(exact.pi[:5], 3), "...")
print("max |pi_mc - pi_exact| =", f"{np.max(np.abs(mc.pi - exact.pi)):.2e}")
print("max |D_mc - D_exact|  =", f"{np.max(np.abs(mc.D - exact.D)):.2e}")

# the two-arm case also has a closed form
analytic = crd_first_order_matrix(10, 4)
print("analytic two-arm matrix matches enumeration:", np.allclose(analytic, exact.D, atol=1e-12))

# ---------------------------------------------------------------------------
# 4. The largest eigenvalue of D summarizes design difficulty
# ---------------------------------------------------------------------------
print("\ncomplexity measures (largest eigenvalue of D):")
for name, design in [
    ("Bernoulli(0.5), n=8", BernoulliDesign(8, [0.5, 0.5])),
    ("CRD(8, [4,4])", CompletelyRandomizedDesign(8, [4, 4])),
    ("CRD(2, [1,1])", CompletelyRandomizedDesign(2, [1, 1])),
]:
    value = design_complexity(exact_moments(design))
    print(f"  {name:<22} -> {value:.3f}")
print("the diag-zeroed variant isolates the off-diagonal contribution:")
m8 = exact_moments(CompletelyRandomizedDesign(8, [4, 4]))
print(f"  CRD(8,[4,4]) off-diagonal measure -> {largest_eigenvalue(m8.D, zero_diag=True):.3f}")
