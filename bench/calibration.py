"""Host-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts: over
minutes, the same pass of the same code took from 1.8 s to 4.8 s, with no
steal time reported to the guest, so neither more passes nor CPU time remove
it. This module times a fixed kernel, owned by the benchmark, right before
and after each timed stage (estimate calls: each group of five); a stage's
time is reported as

    raw seconds * REFERENCE_S / (mean of the kernel's two times),

the seconds the stage would take on a host where the kernel takes
REFERENCE_S. A change to the package cannot move the kernel, so it moves the
reported times in full. The raw times are kept in the run details.

Over ten 30-s runs per workload on a loaded 2-vCPU VM (kernel medians 20 to
29 ms), scaling cut the spread of the run medians (quartile distance over
median) of the pass total from 0.15 to 0.04 (network_mc), 0.18 to 0.10
(crd_model_assisted) and 0.09 to 0.03 (cluster_exact), and of every stage
from 0.07-0.18 to 0.03-0.12. Set-up (spawning an interpreter and importing
from disk) did not follow the kernel, so set-up times are not scaled.
"""

from __future__ import annotations

import functools
import time

import numpy as np
from scipy.optimize import minimize

# Near the kernel's fastest time on a 2-vCPU Xeon KVM guest (16 ms) with
# single-threaded BLAS; a fixed scale, so that reported times read as seconds.
REFERENCE_S = 0.016


@functools.cache
def _operands():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((120, 120))
    b = rng.standard_normal((480, 480))
    X = np.column_stack([np.ones(200), rng.standard_normal((200, 3))])
    y = (rng.random(200) < 0.5).astype(float)
    return (a @ a.T, b + b.T, rng.random(100_000), (rng.random((256, 400)) < 0.3).astype(float),
            X, y)


def _logistic_fit(X, y):
    def loss(b):
        z = X @ b
        return np.sum(np.logaddexp(0.0, z) - y * z)

    def grad(b):
        return X.T @ (1.0 / (1.0 + np.exp(-(X @ b))) - y)

    return minimize(loss, np.zeros(X.shape[1]), jac=grad, method="BFGS").x


def kernel_seconds():
    """Time one run of the kernel: an interpreter loop, small-object
    allocation, a loop of small numpy calls, logistic fits by scipy, a matrix
    product, power iteration, symmetric eigenvalues and a sort, the kinds of
    work the package's stages are made of."""
    sym, big, vector, indicators, X, y = _operands()
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(15_000):
        acc += i * 0.5
    names = {i: str(i) for i in range(1_500)}
    rng = np.random.default_rng(2)
    units = np.arange(100)
    for _ in range(100):
        acc += np.flatnonzero(rng.integers(0, 2, size=100)[units]).sum()
    for _ in range(2):
        _logistic_fit(X, y)
    for _ in range(2):
        indicators.T @ indicators
    v = np.ones(big.shape[0])
    for _ in range(100):
        v = big @ v
        v /= np.linalg.norm(v)
    for _ in range(3):
        np.linalg.eigvalsh(sym)
    np.sort(vector)
    dt = time.perf_counter() - t0
    del names
    return dt
