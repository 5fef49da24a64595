import math
import os
import subprocess
import sys
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

from designest.designs import (
    BernoulliDesign,
    ClusteredDesign,
    CompletelyRandomizedDesign,
    CustomDesign,
    StratifiedDesign,
    SupportTooLargeError,
    stream_rng,
)
from designest.harness import fine_strata
from designest import moments as moments_module
from designest.moments import (
    MC_BLOCK_SIZE,
    DesignMoments,
    _assemble_d,
    _proven_top_eigenvalue,
    analytic_bernoulli_moments,
    analytic_crd_moments,
    closed_form_or_exact_moments,
    crd_first_order_matrix,
    design_complexity,
    exact_moments,
    largest_eigenvalue,
    mc_moments,
    moments_from_support,
    second_order_tensor,
    tensor_sigma_max_oracle,
    tensor_slice_norm_bound,
)
from designest.network import (
    InterferenceGraph,
    derive_exposure_design,
    standard_binary_exposure_rules,
)

CRD2_D = np.array(
    [
        [1.0, -1.0, -1.0, 1.0],
        [-1.0, 1.0, 1.0, -1.0],
        [-1.0, 1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ]
)


class TestExactMoments:
    def test_crd2_matches_hand_matrix(self):
        m = exact_moments(CompletelyRandomizedDesign(2, [1, 1]))
        assert np.allclose(m.D, CRD2_D, atol=1e-14)
        assert np.allclose(m.pi, 0.5)

    def test_bernoulli_single_unit_direct_expectation(self):
        # two outcomes, each prob 1/2: D computed by hand over the support
        m = exact_moments(BernoulliDesign(1, [0.5, 0.5]))
        assert np.allclose(m.D, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-14)

    def test_degenerate_unit_probability_one_gives_zero_row(self):
        m = exact_moments(BernoulliDesign(2, [1.0, 0.0]))
        live = ~m.zero_mask
        assert np.allclose(m.D[np.ix_(live, live)], 0.0)
        assert m.zero_mask.tolist() == [False, False, True, True]

    def test_diagonal_is_variance_of_weighted_indicator(self):
        design = CompletelyRandomizedDesign(5, [2, 3])
        m = exact_moments(design)
        assert np.allclose(np.diag(m.D), (1 - m.pi) / m.pi, atol=1e-12)

    def test_minus_one_exactly_where_joint_probability_zero(self):
        m = exact_moments(CompletelyRandomizedDesign(3, [1, 2]))
        impossible = (m.p == 0) & ~np.eye(6, dtype=bool)
        assert np.all(m.D[impossible] == -1.0)

    def test_p_entries_bounded_by_marginals(self):
        m = exact_moments(StratifiedDesign(4, [[0, 1], [2, 3]], [[1, 1], [1, 1]]))
        cap = np.minimum.outer(m.pi, m.pi)
        assert np.all(m.p <= cap + 1e-12)
        assert np.all(m.p >= -1e-15)

    def test_d_is_psd_and_annihilates_intercepts_for_crd(self):
        for n, n_t in [(4, 2), (6, 3), (5, 2)]:
            m = exact_moments(CompletelyRandomizedDesign(n, [n_t, n - n_t]))
            eigs = np.linalg.eigvalsh(m.D)
            assert eigs.min() >= -1e-8
            ones = np.zeros((2 * n, 2))
            ones[:n, 0] = 1.0
            ones[n:, 1] = 1.0
            assert np.max(np.abs(m.D @ ones)) < 1e-10

    def test_row_sum_bounds_spectral_norm(self):
        m = exact_moments(CompletelyRandomizedDesign(6, [2, 4]))
        lam = largest_eigenvalue(m.D)
        assert lam <= np.abs(m.D).sum(axis=1).max() + 1e-10


class TestCrdAnalyticMatrix:
    def test_small_values_match_table(self):
        d = crd_first_order_matrix(4, 2)
        assert d[0, 0] == pytest.approx(1.0)  # n_c / n_t
        assert d[0, 1] == pytest.approx(-1.0 / 3.0)  # -n_c/(n_t (n-1))
        assert d[0, 4] == pytest.approx(-1.0)  # cross-arm same unit
        assert d[0, 5] == pytest.approx(1.0 / 3.0)  # cross-arm off-diagonal

    def test_matches_enumeration_for_all_small_designs(self):
        for n in range(2, 8):
            for n_t in range(1, n):
                exact = exact_moments(CompletelyRandomizedDesign(n, [n_t, n - n_t]))
                assert np.allclose(
                    crd_first_order_matrix(n, n_t), exact.D, atol=1e-12
                ), (n, n_t)

    def test_rejects_degenerate_counts(self):
        with pytest.raises(ValueError):
            crd_first_order_matrix(4, 0)
        with pytest.raises(ValueError):
            crd_first_order_matrix(4, 4)


class TestMonteCarloMoments:
    def test_matches_exact_on_crd2(self):
        design = CompletelyRandomizedDesign(2, [1, 1])
        exact = exact_moments(design)
        mc = mc_moments(design, reps=100_000, seed=11)
        assert np.max(np.abs(mc.D - exact.D)) < 0.05
        assert np.max(np.abs(mc.pi - exact.pi)) < 0.01

    def test_bernoulli_pi_close(self):
        mc = mc_moments(BernoulliDesign(3, [0.5, 0.5]), reps=100_000, seed=5)
        assert np.max(np.abs(mc.pi - 0.5)) < 0.01

    def test_exact_vs_mc_agreement_small_designs(self):
        # agreement property: enumerable designs, modest rep budget
        designs = [
            CompletelyRandomizedDesign(6, [2, 4]),
            BernoulliDesign(5, [0.3, 0.7]),
            StratifiedDesign(4, [[0, 1], [2, 3]], [[1, 1], [1, 1]]),
        ]
        for design in designs:
            exact = exact_moments(design)
            mc = mc_moments(design, reps=200_000, seed=17)
            assert np.max(np.abs(mc.D - exact.D)) <= 5e-2
            assert np.max(np.abs(mc.pi - exact.pi)) <= 5e-3

    def test_analytic_crd_multiarm_matches_enumeration(self):
        from designest.moments import analytic_crd_moments, closed_form_or_exact_moments

        for counts in ([2, 3], [1, 2, 2], [2, 2, 2, 2]):
            design = CompletelyRandomizedDesign(sum(counts), counts)
            analytic = analytic_crd_moments(design)
            exact = exact_moments(design)
            assert np.max(np.abs(analytic.D - exact.D)) < 1e-12
            assert np.max(np.abs(analytic.p - exact.p)) < 1e-12
            assert np.max(np.abs(analytic.pi - exact.pi)) < 1e-14
        # dispatch picks the closed form for large designs
        big = CompletelyRandomizedDesign(40, [20, 20])
        moments = closed_form_or_exact_moments(big)
        assert moments.method == "exact"
        assert moments.D[0, 0] == pytest.approx(1.0)

    def test_analytic_bernoulli_matches_enumeration(self):
        from designest.moments import analytic_bernoulli_moments

        for probs in ([0.5, 0.5], [0.2, 0.3, 0.5]):
            design = BernoulliDesign(4, probs)
            analytic = analytic_bernoulli_moments(design)
            exact = exact_moments(design)
            assert np.max(np.abs(analytic.D - exact.D)) < 1e-12
            assert np.max(np.abs(analytic.p - exact.p)) < 1e-12

    def test_exact_vs_mc_agreement_full_budget(self):
        # invariant at the stated rep budget on the largest kn <= 20 case
        design = CompletelyRandomizedDesign(10, [4, 6])
        exact = exact_moments(design)
        mc = mc_moments(design, reps=1_000_000, seed=19)
        assert np.max(np.abs(mc.D - exact.D)) <= 5e-2
        assert np.max(np.abs(mc.pi - exact.pi)) <= 5e-3

    def test_reps_validation(self):
        with pytest.raises(ValueError):
            mc_moments(BernoulliDesign(2, [0.5, 0.5]), reps=1, seed=0)

    def test_structural_zero_arm_flagged(self):
        mc = mc_moments(CompletelyRandomizedDesign(3, [0, 3]), reps=100, seed=0)
        assert mc.zero_mask[:3].all()
        assert not mc.zero_mask[3:].any()
        assert not mc.maybe_zero_mask.any()

    def test_unprovable_miss_flagged_separately(self):
        # tiny arm probability, few reps: cell goes unhit but is possible
        design = BernoulliDesign(1, [0.999, 0.001])
        with pytest.warns(RuntimeWarning):
            mc = mc_moments(design, reps=50, seed=1)
        assert mc.maybe_zero_mask[1]
        assert not mc.zero_mask[1]


class TestLargestEigenvalue:
    def test_crd2_value_four(self):
        # D = v v' with v = (1,-1,-1,1); eigenvalue is |v|^2 = 4
        assert largest_eigenvalue(CRD2_D) == pytest.approx(4.0, rel=1e-8)

    def test_two_arm_bernoulli_value_two(self):
        for n in (1, 3, 12):
            if n <= 3:
                d = exact_moments(BernoulliDesign(n, [0.5, 0.5])).D
            else:
                # arm-major D for independent 1/2 assignment: per-unit blocks
                d = np.kron(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.eye(n))
            assert largest_eigenvalue(d) == pytest.approx(2.0, rel=1e-8)

    def test_matches_dense_solver_on_random_symmetric(self):
        rng = stream_rng(23)
        for _ in range(10):
            a = rng.standard_normal((15, 15))
            sym = (a + a.T) / 2
            assert largest_eigenvalue(sym) == pytest.approx(
                np.linalg.eigvalsh(sym)[-1], rel=1e-6, abs=1e-8
            )

    def test_zero_diag_variant(self):
        m = np.array([[5.0, 1.0], [1.0, 5.0]])
        assert largest_eigenvalue(m, zero_diag=True) == pytest.approx(1.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            largest_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_crd_top_eigenvalue_of_multiplicity_n_minus_1_is_proven(self):
        # D = B (x) a with B = [[1, -1], [-1, 1]] and a's n - 1 eigenvalues
        # n/(n-1): the top eigenvalue 2n/(n-1) has multiplicity n - 1, and
        # D maps the ones vector to 0
        n = 300
        D = crd_first_order_matrix(n, n // 2)
        assert np.linalg.eigvalsh(D)[-(n - 1) :] == pytest.approx(2 * n / (n - 1), rel=1e-12)
        lam = _proven_top_eigenvalue(D)
        assert lam == pytest.approx(2 * n / (n - 1), rel=1e-12)
        assert largest_eigenvalue(D) == lam
        assert largest_eigenvalue(D, zero_diag=True) == pytest.approx(
            np.linalg.eigvalsh(D - np.diag(np.diag(D)))[-1], rel=1e-12
        )

    def test_mc_moments_value_is_proven_and_equals_the_dense_one(self):
        m = mc_moments(BernoulliDesign(150, [0.3, 0.7]), reps=400, seed=3)
        assert m.kn >= moments_module.LANCZOS_MIN_KN
        for zero_diag in (False, True):
            M = m.D.copy()
            if zero_diag:
                np.fill_diagonal(M, 0.0)
            dense = np.linalg.eigvalsh(M)[-1]
            assert _proven_top_eigenvalue(M) == pytest.approx(dense, rel=1e-12)
            assert largest_eigenvalue(m.D, zero_diag=zero_diag) == pytest.approx(dense, rel=1e-12)

    @staticmethod
    def _gapped_matrix(kn=300):
        rng = stream_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((kn, kn)))
        values = np.linspace(0.0, 1.0, kn)
        values[-1] = 2.0  # the second-largest is 1, far below lam + delta
        M = (q * values) @ q.T
        return (M + M.T) / 2

    def test_second_eigenpair_fails_the_cholesky_bound_and_falls_back(self, monkeypatch):
        M = self._gapped_matrix()
        _, vectors = np.linalg.eigh(M)
        lanczos, starts = moments_module._lanczos, []

        def from_the_second_eigenvector(A, start, V, Q, tol):
            # the Krylov space of an eigenvector is invariant at once
            starts.append(start)
            return lanczos(A, vectors[:, -2], V, Q, tol)

        monkeypatch.setattr(moments_module, "_lanczos", from_the_second_eigenvector)
        assert _proven_top_eigenvalue(M) is None  # its Rayleigh quotient holds; Cholesky fails
        assert largest_eigenvalue(M) == float(np.linalg.eigvalsh(M)[-1])
        assert len(starts) == 2

    def test_ritz_vector_below_the_ritz_value_falls_back(self, monkeypatch):
        M = self._gapped_matrix()
        values, vectors = np.linalg.eigh(M)
        lanczos = moments_module._lanczos

        def top_value_with_the_second_vector(A, start, V, Q, tol):
            for _, S, residual, steps in lanczos(A, vectors[:, -2], V, Q, tol):
                yield values[-1:], S, residual, steps

        # the lower bound fails
        monkeypatch.setattr(moments_module, "_lanczos", top_value_with_the_second_vector)
        assert _proven_top_eigenvalue(M) is None
        assert largest_eigenvalue(M) == float(np.linalg.eigvalsh(M)[-1])

    def test_a_run_out_of_steps_takes_the_dense_solver_bitwise(self, monkeypatch):
        M = self._gapped_matrix()
        assert _proven_top_eigenvalue(M) is not None
        monkeypatch.setattr(moments_module, "LANCZOS_STEP_BUDGET", 8)
        assert _proven_top_eigenvalue(M) is None
        assert largest_eigenvalue(M) == float(np.linalg.eigvalsh(M)[-1])

    @pytest.mark.parametrize("seed", range(4))
    def test_a_near_degenerate_top_pair_is_resolved(self, seed):
        # eigenvalues 2 and 2 - 1e-9: the run goes on until the top Ritz pair's
        # residual is small, which a mix of the two eigenvectors never has (a
        # stop on the gap to the second Ritz value takes such a mix: on three
        # of these four bases its proof failed, on one it was proven 2.9e-11 low)
        q, _ = np.linalg.qr(stream_rng(seed).standard_normal((300, 300)))
        values = np.linspace(0.0, 1.0, 300)
        values[-2:] = 2.0 - 1e-9, 2.0
        M = (q * values) @ q.T
        M = (M + M.T) / 2
        dense = np.linalg.eigvalsh(M)[-1]
        lam = _proven_top_eigenvalue(M)
        assert lam is not None and abs(lam - dense) <= 1e-12 * dense
        assert largest_eigenvalue(M) == lam

    def test_a_matrix_not_exactly_symmetric_takes_the_dense_solver(self):
        M = self._gapped_matrix()
        M[0, 1] += 1e-13
        assert _proven_top_eigenvalue(M) is None
        assert largest_eigenvalue(M) == float(np.linalg.eigvalsh(M)[-1])

    @pytest.mark.parametrize("kn", [1, 2])
    def test_one_and_two_cells_take_the_dense_solver_without_warning(self, kn, monkeypatch):
        monkeypatch.setattr(moments_module, "LANCZOS_MIN_KN", 0)
        M = np.array([[2.0, 0.5], [0.5, 1.0]])[:kn, :kn]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _proven_top_eigenvalue(M) is None
            for zero_diag in (False, True):
                expected = np.linalg.eigvalsh(M - zero_diag * np.diag(np.diag(M)))[-1]
                assert largest_eigenvalue(M, zero_diag=zero_diag) == expected

    def test_non_finite_entries_skip_the_proof(self):
        M = np.eye(4)
        M[0, 0] = np.inf
        assert _proven_top_eigenvalue(M) is None
        zero = _proven_top_eigenvalue(np.zeros((4, 4)))  # proven: the Krylov space is invariant
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0  # never -0, printed as "-0"

    def test_value_is_the_same_in_every_process_and_layout(self):
        # kn = 8: the Krylov space becomes invariant within a few steps
        code = (
            "import numpy as np\n"
            "from designest.designs import BernoulliDesign\n"
            "from designest.moments import _proven_top_eigenvalue, exact_moments\n"
            "D = exact_moments(BernoulliDesign(4, [0.5, 0.5])).D\n"
            "for M in (D, D.copy(), np.asfortranarray(D)) * 50:\n"
            "    print(repr(_proven_top_eigenvalue(M)))\n"
        )
        src = str(Path(moments_module.__file__).parents[1])
        values = set()
        for _ in range(4):
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": src},
            )
            values.update(out.stdout.split())
        assert len(values) == 1 and float(values.pop()) == pytest.approx(2.0, rel=1e-15)


class TestComplexityMeasure:
    def test_exact_bernoulli(self):
        m = exact_moments(BernoulliDesign(3, [0.5, 0.5]))
        assert design_complexity(m) == pytest.approx(2.0, rel=1e-8)

    def test_infinite_for_proven_zero(self):
        m = mc_moments(CompletelyRandomizedDesign(3, [0, 3]), reps=100, seed=0)
        assert design_complexity(m) == np.inf

    def test_arm_pair_submatrix(self):
        m = exact_moments(BernoulliDesign(2, [0.25, 0.25, 0.25, 0.25]))
        val = design_complexity(m, arms=[0, 1])
        sub = m.submoments([0, 1])
        assert val == pytest.approx(np.linalg.eigvalsh(sub.D)[-1], rel=1e-7)

    def test_arm_pairs_read_their_block_of_d_bitwise(self):
        designs = [
            BernoulliDesign(3, [0.2, 0.3, 0.1, 0.4]),
            CompletelyRandomizedDesign(6, [2, 1, 3]),
            StratifiedDesign(5, [[0, 3], [1, 2, 4]], [[1, 1, 0], [1, 1, 1]]),
        ]
        for design in designs:
            m = closed_form_or_exact_moments(design)
            for a in range(design.k):
                for b in range(a + 1, design.k):
                    c = np.concatenate([np.arange(design.n) + arm * design.n for arm in (a, b)])
                    for zero_diag in (False, True):
                        value = design_complexity(m, arms=[a, b], zero_diag=zero_diag)
                        expected = (
                            np.inf
                            if m.zero_mask[c].any()  # the stratified design's empty arm
                            else largest_eigenvalue(m.D[np.ix_(c, c)], zero_diag=zero_diag)
                        )
                        assert value == expected

    def test_a_pair_with_a_structural_zero_cell_is_infinite(self):
        m = exact_moments(CompletelyRandomizedDesign(4, [2, 0, 2]))
        assert design_complexity(m, arms=[0, 1]) == np.inf
        assert design_complexity(m, arms=[1, 2]) == np.inf
        assert np.isfinite(design_complexity(m, arms=[0, 2]))

    def test_possibly_zero_cells_warn_once_per_pair_that_holds_them(self):
        m = exact_moments(BernoulliDesign(3, [0.25, 0.25, 0.5]))
        m.maybe_zero_mask[2 * 3] = True  # unit 0 in the third arm
        for arms, warns in (([0, 1], False), ([0, 2], True), ([1, 2], True)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert np.isfinite(design_complexity(m, arms=arms))
            assert [str(w.message).startswith("complexity computed with possibly-zero")
                    for w in caught] == ([True] if warns else [])

    def test_a_direct_pair_call_rejects_an_asymmetric_block(self):
        m = exact_moments(BernoulliDesign(2, [0.25, 0.25, 0.5]))
        m.D[0, 5] += 1.0  # inside the pair (0, 2)'s block, outside (0, 1)'s
        assert np.isfinite(design_complexity(m, arms=[0, 1]))
        with pytest.raises(ValueError, match="must be symmetric"):
            design_complexity(m, arms=[0, 2])
        # a caller that has checked D itself skips the block's check
        assert np.isfinite(design_complexity(m, arms=[0, 2], checked=True))


class TestSecondOrderTensor:
    def test_degenerate_design_zero_tensor(self):
        t = second_order_tensor(BernoulliDesign(1, [1.0, 0.0]))
        assert np.allclose(t.entries, 0.0)

    def test_pair_swap_symmetries(self):
        t = second_order_tensor(CompletelyRandomizedDesign(3, [1, 2])).entries
        assert np.allclose(t, t.transpose(1, 0, 2, 3))
        assert np.allclose(t, t.transpose(0, 1, 3, 2))
        assert np.allclose(t, t.transpose(2, 3, 0, 1))

    def test_weighted_diagonal_matches_crd_table_value(self):
        # two-arm CRD n=4, n_t=2 with the within-arm bound weighting:
        # the all-equal-index entry is n^2 n_c / n_t^3 = 4
        from designest.bounds import neyman_bound_crd

        n, n_t = 4, 2
        design = CompletelyRandomizedDesign(n, [n_t, n - n_t])
        tensor = second_order_tensor(design)
        bound = neyman_bound_crd(n, n_t)
        # (Dt x Dt) o S, whose spectral size controls the bound's estimation error
        weighted = np.einsum("ij,kl->ijkl", bound.Dt, bound.Dt) * tensor.entries
        assert weighted[0, 0, 0, 0] == pytest.approx(n**2 * (n - n_t) / n_t**3)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            second_order_tensor(BernoulliDesign(40, [0.5, 0.5]))


class TestTensorBounds:
    def test_zero_tensor(self):
        assert tensor_slice_norm_bound(np.zeros((3,) * 4)) == 0.0
        assert tensor_sigma_max_oracle(np.zeros((3,) * 4), restarts=5) == 0.0

    def test_single_entry(self):
        t = np.zeros((3,) * 4)
        t[1, 1, 1, 1] = 5.0
        assert tensor_slice_norm_bound(t) == 5.0
        assert tensor_sigma_max_oracle(t, restarts=10) == pytest.approx(5.0, rel=1e-6)

    def test_basis_rank_one(self):
        w = np.zeros(3)
        w[2] = 1.0
        t = np.einsum("i,j,k,l->ijkl", w, w, w, w)
        assert tensor_sigma_max_oracle(t, restarts=10) == pytest.approx(1.0, rel=1e-8)

    def test_rank_one_attains_dual_norm_product(self):
        rng = stream_rng(4)
        w = rng.standard_normal(4)
        w = w / np.sum(w**4) ** 0.25
        t = np.einsum("i,j,k,l->ijkl", w, w, w, w)
        expected = np.sum(np.abs(w) ** (4.0 / 3.0)) ** 3  # ||w||_{4/3}^4
        oracle = tensor_sigma_max_oracle(t, restarts=20, seed=9)
        assert oracle == pytest.approx(expected, rel=1e-6)
        # and the value at the generating vector is a valid lower bound
        assert oracle >= float(w @ w) ** 4 - 1e-10

    def test_identity_like_diagonal(self):
        t = np.zeros((3,) * 4)
        for i in range(3):
            t[i, i, i, i] = 1.0
        assert tensor_sigma_max_oracle(t, restarts=20) == pytest.approx(1.0, rel=1e-8)

    def test_oracle_below_slice_bound_random(self):
        rng = stream_rng(99)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            t = rng.standard_normal((dim,) * 4)
            assert tensor_sigma_max_oracle(t, restarts=20, seed=1) <= tensor_slice_norm_bound(t) + 1e-9

    def test_slice_bound_rejects_nonfinite(self):
        t = np.zeros((2,) * 4)
        t[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            tensor_slice_norm_bound(t)


def _per_draw_mc(design, reps, seed):
    """Reference accumulator: one sample() call and one outer product per
    draw, block b of MC_BLOCK_SIZE draws on stream (seed, b)."""
    kn = design.n * design.k
    counts = np.zeros((kn, kn))
    for index, start in enumerate(range(0, reps, MC_BLOCK_SIZE)):
        rng = stream_rng(seed, index)
        for _ in range(min(MC_BLOCK_SIZE, reps - start)):
            ind = design.sample(rng).indicator()
            counts += np.outer(ind, ind)
    p = counts / reps
    return np.diag(p).copy(), p


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mc_moments_equal_per_draw_reference(design_of_each_kind):
    design = design_of_each_kind
    reps = MC_BLOCK_SIZE + 300  # crosses a block boundary
    m = mc_moments(design, reps, seed=11)
    pi, p = _per_draw_mc(design, reps, seed=11)
    never_hit = pi == 0
    proven = design.structural_zero_cells()
    assert m.pi.tobytes() == pi.tobytes()
    assert m.p.tobytes() == p.tobytes()
    assert m.D.tobytes() == _assemble_d(pi, p, never_hit).tobytes()
    assert m.zero_mask.tolist() == (never_hit & proven).tolist()
    assert m.maybe_zero_mask.tolist() == (never_hit & ~proven).tolist()


def _full_gram_mc(design, reps, seed):
    """Reference accumulator: every cell, the last arm's too, enters each
    block's float32 gram, block b of MC_BLOCK_SIZE draws on stream
    (seed, b)."""
    n, kn = design.n, design.n * design.k
    counts = np.zeros((kn, kn))
    for index, start in enumerate(range(0, reps, MC_BLOCK_SIZE)):
        size = min(MC_BLOCK_SIZE, reps - start)
        arms = design.sample_batch(stream_rng(seed, index), size)
        h = np.zeros((size, kn), dtype=np.float32)
        h[np.arange(size)[:, None], arms * n + np.arange(n)] = 1.0
        counts += h.T @ h
    p = counts / reps
    return np.diag(p).copy(), p


def _isolated_unit_graph():
    return InterferenceGraph(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1)])  # unit 4 isolated


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "design, reps",
    [
        (BernoulliDesign(6, [0.3, 0.7]), 2 * MC_BLOCK_SIZE + 77),
        (CompletelyRandomizedDesign(7, [2, 2, 3]), MC_BLOCK_SIZE + 1),
        (derive_exposure_design(BernoulliDesign(5, [0.4, 0.6]), _isolated_unit_graph(),
                                standard_binary_exposure_rules()), MC_BLOCK_SIZE + 300),
        (derive_exposure_design(CompletelyRandomizedDesign(5, [2, 3]), _isolated_unit_graph(),
                                standard_binary_exposure_rules(), undirected=True), 999),
        (BernoulliDesign(4, [0.5, 0.5, 0.0]), 2 * MC_BLOCK_SIZE - 5),
        (BernoulliDesign(3, [1.0]), 10),
    ],
    ids=["k2", "k3", "k4_proven_zeros", "k4_unproven_never_hit", "last_arm_never_hit", "k1"],
)
def test_mc_moments_equal_the_full_gram_bytewise(design, reps):
    m = mc_moments(design, reps, seed=5)
    pi, p = _full_gram_mc(design, reps, seed=5)
    never_hit = pi == 0
    proven = design.structural_zero_cells()
    assert m.pi.tobytes() == pi.tobytes()
    assert m.p.tobytes() == p.tobytes()
    assert m.D.tobytes() == _assemble_d(pi, p, never_hit).tobytes()
    assert m.zero_mask.tolist() == (never_hit & proven).tolist()
    assert m.maybe_zero_mask.tolist() == (never_hit & ~proven).tolist()
    assert never_hit.any() == (design.k == 4 or design.k == 3 and design.kind == "bernoulli")


@pytest.mark.parametrize(
    "design, message",
    [
        (CustomDesign(4, 2, lambda rng: np.where(rng.random(4) < 0.5, 0, 2)),
         "arm indices must lie in"),
        (CustomDesign(4, 2, lambda rng: rng.integers(0, 2, size=3)), "arm_of must have shape"),
        (CustomDesign(4, 2, lambda rng: rng.integers(0, 2, size=1)), "arm_of must have shape"),
        (ClusteredDesign(4, [0, 0, 1, 1], CustomDesign(2, 2, lambda rng: rng.integers(0, 2, size=3))),
         "arm_of must have shape"),
        (derive_exposure_design(CustomDesign(3, 2, lambda rng: np.array([0, 1, 2])),
                                InterferenceGraph(3, [(0, 1)]), standard_binary_exposure_rules()),
         "arm indices must lie in"),
    ],
    ids=["arm_k", "short", "length_one", "clustered_long", "exposure_base_arm_k"],
)
def test_mc_moments_rejects_invalid_custom_draws(design, message):
    with pytest.raises(ValueError, match=message):
        mc_moments(design, 50, seed=0)


def _members(path):
    with np.load(path, allow_pickle=False) as data:
        return {name: data[name] for name in data.files}


def _same_moments(a, b):
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("pi", "p", "D", "zero_mask", "maybe_zero_mask")
    ) and (a.n, a.k, a.method, a.reps, a.seed) == (b.n, b.k, b.method, b.reps, b.seed)


def test_moments_npz_is_uncompressed_and_old_compressed_files_load(tmp_path):
    m = mc_moments(CompletelyRandomizedDesign(5, [2, 3]), 200, seed=3)
    new = tmp_path / "new.npz"
    m.save_npz(new)
    with zipfile.ZipFile(new) as zf:
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}
    old = tmp_path / "old.npz"
    np.savez_compressed(old, **_members(new))  # as files were once written
    with zipfile.ZipFile(old) as zf:
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_DEFLATED}
    loaded = DesignMoments.load_npz(old)
    assert _same_moments(loaded, m)
    assert (loaded.n, loaded.k, loaded.method, loaded.reps, loaded.seed) == (5, 2, "monte_carlo", 200, 3)


def test_saved_members_are_aligned_mapped_and_read_by_np_load(tmp_path):
    m = closed_form_or_exact_moments(
        ClusteredDesign(9, [0, 1, 2, 3, 0, 1, 2, 3, 3], CompletelyRandomizedDesign(4, [1, 3]))
    )
    path = tmp_path / "m.npz"
    m.save_npz(path)
    raw = path.read_bytes()
    with zipfile.ZipFile(path) as zf:
        for info in zf.infolist():
            name_len, extra_len = np.frombuffer(raw, "<u2", 2, info.header_offset + 26)
            start = info.header_offset + 30 + int(name_len) + int(extra_len)
            assert start % 64 == 0, info.filename
            assert raw[start:start + 6] == b"\x93NUMPY"
    loaded = DesignMoments.load_npz(path)
    assert _same_moments(loaded, m)
    for name in ("pi", "p", "D", "zero_mask"):
        array = getattr(loaded, name)
        assert array.flags.aligned and array.ctypes.data % 64 == 0
        assert not array.flags.owndata  # a view of the mapped file
    members = _members(path)
    assert np.array_equal(members["D"], m.D) and str(members["method"]) == "exact"
    # a file np.savez wrote (members at arbitrary offsets) loads the same
    unaligned = tmp_path / "unaligned.npz"
    np.savez(unaligned, **members)
    copied = DesignMoments.load_npz(unaligned)
    assert _same_moments(copied, m)
    assert all(getattr(copied, name).flags.aligned for name in ("pi", "p", "D"))


def test_loaded_moments_survive_a_save_over_the_same_path(tmp_path):
    design = CompletelyRandomizedDesign(6, [2, 4])
    first, second = mc_moments(design, 300, seed=1), mc_moments(design, 300, seed=2)
    path = tmp_path / "m.npz"
    first.save_npz(path)
    loaded = DesignMoments.load_npz(path)
    second.save_npz(path)
    assert _same_moments(loaded, first)
    assert _same_moments(DesignMoments.load_npz(path), second)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.npz"]  # no temporary left


def _blockwise_p(n, marginal, off_diagonal):
    """p of n exchangeable units written one k x k arm block at a time:
    off_diagonal(a, b) between distinct units, marginal[a] or 0 within one."""
    k = len(marginal)
    p = np.empty((n * k, n * k))
    for a in range(k):
        for b in range(k):
            block = p[a * n : (a + 1) * n, b * n : (b + 1) * n]
            block[:] = off_diagonal(a, b)
            np.fill_diagonal(block, marginal[a] if a == b else 0.0)
    return p


@pytest.mark.parametrize(
    "design",
    [BernoulliDesign(5, [0.2, 0.3, 0.5]), BernoulliDesign(1, [0.4, 0.6]),
     CompletelyRandomizedDesign(9, [2, 3, 4]), CompletelyRandomizedDesign(6, [0, 6]),
     CompletelyRandomizedDesign(1, [1, 0])],
    ids=["bernoulli", "bernoulli_one_unit", "crd", "crd_empty_arm", "crd_one_unit"],
)
def test_exchangeable_closed_forms_equal_the_blockwise_reference_bitwise(design):
    n = design.n
    if isinstance(design, BernoulliDesign):
        probs = design.probs
        p = _blockwise_p(n, probs, lambda a, b: probs[a] * probs[b])
    else:
        c = design.counts
        p = _blockwise_p(
            n, c / n, lambda a, b: (c[a] / n) * ((c[b] - (a == b)) / (n - 1)) if n > 1 else 0.0
        )
    m = closed_form_or_exact_moments(design)
    assert m.p.tobytes() == p.tobytes()
    assert m.pi.tobytes() == np.diag(p).tobytes()


def test_fine_stratification_gets_exact_moments_from_its_strata():
    # eight villages of 12 in two network components, stratified as in the
    # insurance application: the joint support is far past the enumeration cap
    rng = np.random.default_rng(11)
    village_of = np.repeat(np.arange(8), 12)
    n = len(village_of)
    stratum_of = fine_strata(
        village_of, rng.standard_normal(n), rng.standard_normal(n), village_of // 4, min_size=4
    )
    strata = [np.flatnonzero(stratum_of == g) for g in np.unique(stratum_of)]
    design = StratifiedDesign.from_pattern(n, strata, [2, 1, 3], 3)
    assert design.support_size() > 10**12
    with pytest.raises(SupportTooLargeError):
        exact_moments(design)

    m = closed_form_or_exact_moments(design)
    for units, counts in zip(design.strata, design.counts_by_stratum):
        # a stratum's support has up to ~10^4 points, whose summed weights
        # carry ~1e-13 of rounding into the enumerated D
        enumerated = exact_moments(CompletelyRandomizedDesign(len(units), counts))
        cells = np.concatenate([units + a * n for a in range(3)])
        block = np.ix_(cells, cells)
        np.testing.assert_allclose(m.pi[cells], enumerated.pi, rtol=0, atol=1e-14)
        np.testing.assert_allclose(m.p[block], enumerated.p, rtol=0, atol=1e-14)
        np.testing.assert_allclose(m.D[block], enumerated.D, rtol=0, atol=1e-12)
        assert np.array_equal(m.p[block] == 0, enumerated.p == 0)
    # strata are independent: p is the product of the marginals and D is 0
    across = np.tile(stratum_of[:, None] != stratum_of[None, :], (3, 3))
    assert np.array_equal(m.p[across], np.outer(m.pi, m.pi)[across])
    assert np.all(m.D[across] == 0.0)
    assert not m.zero_mask.any()


@pytest.mark.parametrize(
    "route, design",
    [
        (analytic_bernoulli_moments, BernoulliDesign(4, [0.3, 0.7])),
        (analytic_crd_moments, CompletelyRandomizedDesign(4, [1, 3])),
        (closed_form_or_exact_moments, StratifiedDesign(6, [[0, 1, 2], [3, 4, 5]], [[1, 2], [2, 1]])),
        (closed_form_or_exact_moments, ClusteredDesign(4, [0, 0, 1, 1], CompletelyRandomizedDesign(2, [1, 1]))),
        (lambda design: moments_from_support(design.enumerate_support()),
         CompletelyRandomizedDesign(4, [2, 2])),
    ],
    ids=["bernoulli", "crd", "stratified", "clustered", "support"],
)
def test_every_exact_route_warns_once_past_the_dense_limit(monkeypatch, route, design):
    # a limit below every kn, strata and cluster-level designs included
    monkeypatch.setattr(moments_module, "DENSE_LIMIT", 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        route(design)
    assert ["dense-storage" in str(w.message) for w in caught] == [True]
