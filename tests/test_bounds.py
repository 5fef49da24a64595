import dataclasses
import warnings

import numpy as np
import pytest

from designest.bounds import (
    NotIdentifiedError,
    VarianceBound,
    aronow_samii_bound,
    certify_bound,
    custom_bound,
    minus_one_mask,
    neyman_bound_crd,
    observed_block_bound,
    psd_clip,
)
from designest.designs import (
    BernoulliDesign,
    ClusteredDesign,
    CompletelyRandomizedDesign,
    StratifiedDesign,
    stream_rng,
)
from designest.moments import _assemble_d, closed_form_or_exact_moments, exact_moments, mc_moments
from designest.network import (
    InterferenceGraph,
    derive_exposure_design,
    standard_binary_exposure_rules,
)

# Hand-applied bound formula for the two-point CRD: each row of D has two
# -1 entries (other unit same arm, same unit other arm); both become zeros
# and the diagonal picks up the row count 2.
CRD2_AS = np.array(
    [
        [3.0, 0.0, 0.0, 1.0],
        [0.0, 3.0, 1.0, 0.0],
        [0.0, 1.0, 3.0, 0.0],
        [1.0, 0.0, 0.0, 3.0],
    ]
)


def expected_weighted_form(table, Dt):
    indicators = table.indicator_matrix()
    p = indicators.T @ (indicators * table.probabilities[:, None])
    out = np.zeros_like(Dt)
    np.divide(Dt, p, out=out, where=p != 0)
    return out


class TestAronowSamii:
    def test_two_arm_bernoulli_is_twice_identity(self):
        for n in (1, 2, 3):
            m = exact_moments(BernoulliDesign(n, [0.5, 0.5]))
            bound = aronow_samii_bound(m)
            assert np.allclose(bound.Dt, 2.0 * np.eye(2 * n), atol=1e-12)

    def test_crd2_matrix(self):
        m = exact_moments(CompletelyRandomizedDesign(2, [1, 1]))
        bound = aronow_samii_bound(m)
        assert np.allclose(bound.Dt, CRD2_AS, atol=1e-12)

    def test_no_minus_one_entries_returns_d(self):
        # single-arm design: every indicator is constant, D = 0, empty mask
        m = exact_moments(CompletelyRandomizedDesign(3, [3]))
        bound = aronow_samii_bound(m)
        assert not bound.mask_minus1.any()
        assert np.allclose(bound.Dt, m.D)

    def test_mask_entries_are_exact_zeros(self):
        m = exact_moments(CompletelyRandomizedDesign(4, [2, 2]))
        bound = aronow_samii_bound(m)
        assert np.all(bound.Dt[bound.mask_minus1] == 0.0)

    def test_difference_diagonally_dominant(self):
        m = exact_moments(CompletelyRandomizedDesign(5, [2, 3]))
        bound = aronow_samii_bound(m)
        diff = bound.Dt - m.D
        off = np.abs(diff - np.diag(np.diag(diff))).sum(axis=1)
        assert np.all(np.diag(diff) >= off - 1e-12)
        assert np.all(np.diag(diff) >= -1e-12)

    def test_structural_zero_rejected(self):
        m = mc_moments(CompletelyRandomizedDesign(3, [0, 3]), reps=50, seed=0)
        with pytest.raises(NotIdentifiedError):
            aronow_samii_bound(m)

    def test_mc_mask_uses_zero_joint_hits(self):
        design = CompletelyRandomizedDesign(3, [1, 2])
        m = mc_moments(design, reps=20_000, seed=4)
        exact = exact_moments(design)
        assert np.array_equal(minus_one_mask(m), minus_one_mask(exact))


def reference_assemble_d(pi, p, zero_mask):
    """D as first written: the live block divided out of a fresh copy."""
    D = np.zeros((len(pi), len(pi)))
    ok = ~zero_mask
    D[np.ix_(ok, ok)] = p[np.ix_(ok, ok)] / np.outer(pi[ok], pi[ok]) - 1.0
    D[(p == 0) & np.outer(ok, ok)] = -1.0
    np.fill_diagonal(D, np.where(ok, np.divide(1.0 - pi, pi, out=np.zeros_like(pi), where=ok), 0.0))
    return D


def reference_aronow_samii(moments):
    """(Dt, Dt_over_p, mask) as first written: the -1 indicator added to D
    as a float matrix, its row counts as a diagonal matrix, then the mask
    entries zeroed."""
    live = ~(moments.zero_mask | moments.maybe_zero_mask)
    if moments.method == "exact":
        mask = (np.abs(moments.D + 1.0) <= 1e-12) & np.outer(live, live)
    else:
        mask = (moments.p == 0) & np.outer(live, live)
    np.fill_diagonal(mask, False)
    indicator = mask.astype(float)
    Dt = moments.D + indicator + np.diag(indicator.sum(axis=1))
    Dt[mask] = 0.0
    Dt_over_p = np.zeros_like(Dt)
    np.divide(Dt, moments.p, out=Dt_over_p, where=moments.p != 0)
    return Dt, Dt_over_p, mask


def _exposure_design(n, probs):
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + n // 2) % n) for i in range(n)]
    return derive_exposure_design(
        BernoulliDesign(n, probs), InterferenceGraph(n, edges), standard_binary_exposure_rules()
    )


@pytest.mark.parametrize(
    "make_moments",
    [
        lambda: closed_form_or_exact_moments(
            ClusteredDesign(9, [0, 1, 2, 3, 0, 1, 2, 3, 3], CompletelyRandomizedDesign(4, [2, 2]))
        ),
        lambda: closed_form_or_exact_moments(
            StratifiedDesign(7, [[0, 3, 5], [1, 2, 4, 6]], [[1, 1, 1], [2, 1, 1]])
        ),
        lambda: exact_moments(_exposure_design(6, [0.3, 0.7])),
        lambda: mc_moments(CompletelyRandomizedDesign(5, [2, 3]), reps=3000, seed=2),
        # some exposure cells are never hit in 40 draws: possibly-zero rows
        lambda: mc_moments(_exposure_design(10, [0.8, 0.2]), reps=40, seed=3),
    ],
    ids=["clustered", "stratified", "exposure_exact", "crd_mc", "exposure_mc_unhit_cells"],
)
def test_bound_and_design_matrix_are_bytewise_the_first_written_formulas(make_moments):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # never-hit cells
        moments = make_moments()
        bound = aronow_samii_bound(moments)
    flagged = moments.zero_mask | moments.maybe_zero_mask
    assert moments.method == "monte_carlo" or not flagged.any()
    assert moments.D.tobytes() == reference_assemble_d(moments.pi, moments.p, flagged).tobytes()
    Dt, Dt_over_p, mask = reference_aronow_samii(moments)
    assert mask.any()
    assert bound.mask_minus1.tobytes() == mask.tobytes()
    assert bound.Dt.tobytes() == Dt.tobytes()
    assert bound.Dt_over_p.tobytes() == Dt_over_p.tobytes()


class TestNeyman:
    def test_not_identified_single_treated(self):
        with pytest.raises(NotIdentifiedError):
            neyman_bound_crd(2, 1)
        with pytest.raises(NotIdentifiedError):
            neyman_bound_crd(5, 4)

    def test_blocks_and_diagonal(self):
        bound = neyman_bound_crd(4, 2)
        # (n / n_t) A_n has unit-free diagonal n/n_t = 2
        assert np.allclose(np.diag(bound.Dt), 2.0)
        assert np.allclose(bound.Dt[:4, 4:], 0.0)

    def test_validity_difference_is_block_constant_psd(self):
        n, n_t = 6, 3
        m = exact_moments(CompletelyRandomizedDesign(n, [n_t, n - n_t]))
        bound = neyman_bound_crd(n, n_t)
        diff = bound.Dt - m.D
        a = diff[:n, :n]
        for block in (diff[:n, n:], diff[n:, :n], diff[n:, n:]):
            assert np.allclose(block, a, atol=1e-12)
        assert np.linalg.eigvalsh(diff).min() >= -1e-10

    def test_joint_probabilities_match_enumeration(self):
        n, n_t = 5, 2
        m = exact_moments(CompletelyRandomizedDesign(n, [n_t, n - n_t]))
        bound = neyman_bound_crd(n, n_t)
        expected = expected_weighted_form(
            CompletelyRandomizedDesign(n, [n_t, n - n_t]).enumerate_support(), bound.Dt
        )
        assert np.allclose(bound.Dt_over_p, expected, atol=1e-12)


class TestWeightedFormUnbiasedness:
    @pytest.mark.parametrize(
        "design",
        [
            BernoulliDesign(2, [0.5, 0.5]),
            BernoulliDesign(3, [0.3, 0.7]),
            CompletelyRandomizedDesign(4, [2, 2]),
            CompletelyRandomizedDesign(6, [3, 3]),
            StratifiedDesign(4, [[0, 1], [2, 3]], [[1, 1], [1, 1]]),
        ],
    )
    def test_expectation_recovers_bound(self, design):
        m = exact_moments(design)
        bound = aronow_samii_bound(m)
        table = design.enumerate_support()
        indicators = table.indicator_matrix()
        acc = np.zeros_like(bound.Dt)
        for row, prob in zip(indicators, table.probabilities):
            acc += prob * np.outer(row, row) * bound.Dt_over_p
        assert np.max(np.abs(acc - bound.Dt)) < 1e-10

    def test_neyman_expectation_recovers_bound(self):
        design = CompletelyRandomizedDesign(6, [3, 3])
        bound = neyman_bound_crd(6, 3)
        table = design.enumerate_support()
        acc = np.zeros_like(bound.Dt)
        for row, prob in zip(table.indicator_matrix(), table.probabilities):
            acc += prob * np.outer(row, row) * bound.Dt_over_p
        assert np.max(np.abs(acc - bound.Dt)) < 1e-10


class TestCertify:
    def test_as_bound_passes_on_small_designs(self):
        designs = [
            BernoulliDesign(4, [0.4, 0.6]),
            CompletelyRandomizedDesign(6, [2, 4]),
            StratifiedDesign(6, [[0, 1, 2], [3, 4, 5]], [[1, 2], [2, 1]]),
        ]
        for design in designs:
            m = exact_moments(design)
            cert = certify_bound(m, aronow_samii_bound(m))
            assert cert.psd_ok and cert.identified_ok

    def test_neyman_vs_as_spectra(self):
        n, n_t = 6, 3
        m = exact_moments(CompletelyRandomizedDesign(n, [n_t, n - n_t]))
        cert = certify_bound(m, neyman_bound_crd(n, n_t), compare=aronow_samii_bound(m))
        raw = cert.comparison_spectrum
        expected_raw = np.sort(np.concatenate([[-2.0], np.zeros(n), np.full(n - 1, 2 / (n - 1))]))
        assert np.allclose(raw, expected_raw, atol=1e-8)
        projected = cert.comparison_spectrum_projected
        expected_proj = np.sort(np.concatenate([np.zeros(n + 1), np.full(n - 1, 2 / (n - 1))]))
        assert np.allclose(projected, expected_proj, atol=1e-8)

    def test_dimension_mismatch(self):
        m = exact_moments(BernoulliDesign(2, [0.5, 0.5]))
        bad = neyman_bound_crd(4, 2)
        with pytest.raises(ValueError):
            certify_bound(m, bad)

    def test_identification_uses_the_moments_mask_not_the_bounds(self):
        # 12 draws leave within-arm pairs never jointly hit: the MC moments'
        # -1 mask holds them, the neyman bound's analytic mask does not, and
        # its within-arm blocks are nonzero there
        design = CompletelyRandomizedDesign(8, [3, 5])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            m = mc_moments(design, reps=12, seed=2)
        bound = neyman_bound_crd(8, 3)
        assert minus_one_mask(m).sum() == 38 and bound.mask_minus1.sum() == 16
        assert not np.any(bound.mask_minus1 & (bound.Dt != 0.0))
        cert = certify_bound(m, bound)
        assert cert.mask_violations == 18 and not cert.identified_ok

    @pytest.mark.parametrize("band_entries", [None, 1, 40], ids=["default", "one_row", "few_rows"])
    def test_banded_violation_count_equals_the_dense_count(self, monkeypatch, band_entries):
        from designest import moments as moments_module

        if band_entries is not None:  # bands of one or a few rows
            monkeypatch.setattr(moments_module, "BAND_ENTRIES", band_entries)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            crd_mc = mc_moments(CompletelyRandomizedDesign(8, [3, 5]), reps=12, seed=2)
            exposure_mc = mc_moments(_exposure_design(8, [0.5, 0.5]), reps=30, seed=4)
        exposure_exact = closed_form_or_exact_moments(_exposure_design(6, [0.5, 0.5]))
        dense = stream_rng(6).standard_normal((32, 32))
        dense[stream_rng(7).random((32, 32)) < 0.3] = 0.0  # some entries zero, masked or not
        fixtures = [
            (crd_mc, neyman_bound_crd(8, 3).Dt, 18),
            (exposure_mc, dense, None),
            (exposure_exact, dense[:24, :24], None),
            (exposure_exact, aronow_samii_bound(exposure_exact).Dt, 0),
        ]
        assert np.any(exposure_mc.maybe_zero_mask)  # flagged cells are left out of the mask
        for m, Dt, expected in fixtures:
            bound = VarianceBound(Dt, np.zeros(Dt.shape, dtype=bool), Dt)
            violations = int(np.sum(minus_one_mask(m) & (Dt != 0.0)))
            assert violations > 0 or expected == 0
            assert expected is None or violations == expected
            assert certify_bound(m, bound).mask_violations == violations

    def test_custom_bound_validates(self):
        m = exact_moments(CompletelyRandomizedDesign(4, [2, 2]))
        as_matrix = aronow_samii_bound(m).Dt
        ok = custom_bound(as_matrix, m)
        assert ok.name == "custom"
        with pytest.raises(NotIdentifiedError):
            custom_bound(m.D / 2.0, m)


def _old_min_eigenvalue(moments, Dt):
    """The dense check that certify_bound always ran before it tried
    Gershgorin's theorem: the live block's smallest eigenvalue."""
    live = ~(moments.zero_mask | moments.maybe_zero_mask)
    return float(np.linalg.eigvalsh((Dt - moments.D)[np.ix_(live, live)]).min())


class TestCertificateProof:
    def _moments(self, method):
        design = CompletelyRandomizedDesign(6, [3, 3])
        if method == "exact":
            return exact_moments(design)
        return mc_moments(design, reps=4000, seed=5)

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_neyman_bound_takes_the_spectrum(self, method):
        m = self._moments(method)
        bound = neyman_bound_crd(6, 3)
        cert = certify_bound(m, bound)
        assert cert.psd_proof == "spectrum"
        assert cert.min_eigenvalue_bound == _old_min_eigenvalue(m, bound.Dt)

    def test_a_psd_custom_matrix_that_is_not_diagonally_dominant_takes_the_spectrum(self):
        # a rank-one all-ones block on arm 1 keeps Dt - D PSD and Dt zero on
        # the -1 mask (no cross-arm entry), but its rows' margins are 1 - 5
        m = self._moments("exact")
        u = np.concatenate([np.ones(6), np.zeros(6)])
        Dt = aronow_samii_bound(m).Dt + np.outer(u, u)
        cert = certify_bound(m, custom_bound(Dt, m))
        assert cert.psd_proof == "spectrum" and cert.psd_ok and cert.identified_ok
        assert cert.min_eigenvalue_bound == _old_min_eigenvalue(m, Dt)

    def test_custom_bound_rejects_a_non_psd_identified_matrix(self):
        m = self._moments("exact")
        Dt = aronow_samii_bound(m).Dt - 10.0 * np.eye(12)
        assert not np.any(minus_one_mask(m) & (Dt != 0.0))  # identified: the diagonal is never masked
        assert _old_min_eigenvalue(m, Dt) < -1.0
        with pytest.raises(NotIdentifiedError, match=r"min_eig>=-\S+ \(spectrum\), mask violations=0"):
            custom_bound(Dt, m)


class TestPsdClip:
    def test_hand_example(self):
        bound = _bound_with_weighted(np.array([[1.0, -2.0], [-2.0, 1.0]]))
        clipped = psd_clip(bound)
        assert np.allclose(
            clipped.Dt_over_p, [[1.5, -1.5], [-1.5, 1.5]], atol=1e-12
        )
        assert clipped.psd_clipped

    def test_idempotent_on_psd(self):
        m = exact_moments(BernoulliDesign(2, [0.5, 0.5]))
        bound = aronow_samii_bound(m)
        clipped = psd_clip(bound)
        assert np.allclose(clipped.Dt_over_p, bound.Dt_over_p, atol=1e-10)

    def test_quadratic_form_never_decreases(self):
        rng = stream_rng(12)
        a = rng.standard_normal((5, 5))
        bound = _bound_with_weighted((a + a.T) / 2)
        clipped = psd_clip(bound)
        for _ in range(30):
            v = rng.standard_normal(5)
            assert v @ clipped.Dt_over_p @ v >= v @ bound.Dt_over_p @ v - 1e-10


class TestWeightedFormCache:
    def test_formed_at_the_first_read_then_kept_and_p_released(self, monkeypatch):
        from designest import bounds

        calls, form = [], bounds._weighted_form
        monkeypatch.setattr(bounds, "_weighted_form", lambda Dt, p: calls.append(1) or form(Dt, p))
        m = exact_moments(CompletelyRandomizedDesign(5, [2, 3]))
        crd2 = exact_moments(CompletelyRandomizedDesign(2, [1, 1]))
        for bound in (aronow_samii_bound(m), neyman_bound_crd(5, 2), custom_bound(CRD2_AS, crd2)):
            calls.clear()
            assert bound.p is not None
            first = bound.Dt_over_p
            assert bound.p is None and bound.Dt_over_p is first
            assert calls == [1]

    def test_an_explicit_form_is_kept_and_holds_no_p(self):
        m = exact_moments(BernoulliDesign(2, [0.5, 0.5]))
        bound = aronow_samii_bound(m)
        weighted = -np.ones((4, 4))
        replaced = dataclasses.replace(bound, Dt_over_p=weighted)
        assert replaced.p is None and replaced.Dt_over_p is weighted
        assert bound.p is m.p  # the source bound is not formed by the replace
        positional = VarianceBound(bound.Dt, bound.mask_minus1, weighted)
        assert positional.p is None and positional.Dt_over_p is weighted

    def test_a_bound_needs_its_form_or_p(self):
        with pytest.raises(ValueError, match="weighted form Dt_over_p or the joint probabilities p"):
            VarianceBound(np.eye(2), np.zeros((2, 2), dtype=bool))


def _bound_with_weighted(weighted):
    from designest.bounds import VarianceBound

    kn = weighted.shape[0]
    return VarianceBound(
        Dt=np.eye(kn),
        mask_minus1=np.zeros((kn, kn), dtype=bool),
        Dt_over_p=weighted,
    )


def test_bound_csv_export(tmp_path):
    m = exact_moments(BernoulliDesign(1, [0.5, 0.5]))
    bound = aronow_samii_bound(m)
    path = tmp_path / "bound.csv"
    bound.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,value"
    assert len(lines) == 3  # two diagonal entries of 2I


@pytest.mark.parametrize(
    "design, cells, error",
    [
        (ClusteredDesign(4, [0, 0, 1, 1], CompletelyRandomizedDesign(2, [1, 1])), [0, 1, 6, 7],
         TypeError),
        (CompletelyRandomizedDesign(4, [2, 2]), [0, 1, 2], ValueError),
        (CompletelyRandomizedDesign(4, [2, 2]), [1, 0, 2, 3], ValueError),
        (CompletelyRandomizedDesign(4, [2, 2]), [0, 1, 2, 11], ValueError),
        (CompletelyRandomizedDesign(4, [2, 2]), [-4, 1, 2, 3], ValueError),
    ],
    ids=["clustered", "too_few", "out_of_order", "arm_past_k", "negative_arm"],
)
def test_observed_block_bound_needs_a_closed_form_and_one_cell_per_unit(design, cells, error):
    with pytest.raises(error):
        observed_block_bound(design, cells)
