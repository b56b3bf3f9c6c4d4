"""Finite-sample spectrum simulation against structural and law oracles."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from spikedfisher import sampling
from spikedfisher import (
    GAUSSIAN,
    RADEMACHER,
    EntryDistribution,
    FisherParams,
    ModelDims,
    NumericalError,
    ParameterError,
    SpikeSpec,
    ensure_generator,
    mass_at_zero,
    pencil_eigenvalues,
    sample_spectrum,
    spectrum_packets,
    stream_generator,
    support_edges,
)

REFERENCE_SPEC = SpikeSpec(spikes=((20.0, 1), (0.2, 2), (0.1, 1)))


class TestEntryDistribution:
    def test_known_names_and_moments(self):
        assert GAUSSIAN.fourth_moment == 3.0
        assert RADEMACHER.fourth_moment == 1.0
        assert EntryDistribution("gaussian") == GAUSSIAN

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            EntryDistribution("uniform")

    def test_rademacher_support(self):
        draws = RADEMACHER.draw(ensure_generator(3), (100, 7))
        assert set(np.unique(draws)) == {-1.0, 1.0}

    def test_gaussian_standardized(self):
        draws = GAUSSIAN.draw(ensure_generator(3), (200_000,))
        assert abs(draws.mean()) < 0.01
        assert draws.var() == pytest.approx(1.0, rel=0.02)


class TestModelDims:
    def test_ratios(self):
        dims = ModelDims(p=200, n=400, T=1000)
        assert dims.c_p == pytest.approx(0.2)
        assert dims.y_p == pytest.approx(0.5)
        params = dims.fisher_params()
        assert (params.c, params.y) == (0.2, 0.5)

    def test_requires_p_below_n(self):
        with pytest.raises(ParameterError):
            ModelDims(p=400, n=400, T=1000)
        with pytest.raises(ParameterError):
            ModelDims(p=401, n=400, T=1000)

    def test_requires_integers(self):
        with pytest.raises(ParameterError):
            ModelDims(p=10.5, n=40, T=100)
        with pytest.raises(ParameterError):
            ModelDims(p=0, n=40, T=100)


class TestSampleSpectrum:
    DIMS = ModelDims(p=40, n=90, T=120)

    def test_shape_order_sign(self):
        sample = sample_spectrum(11, self.DIMS, REFERENCE_SPEC)
        vals = sample.eigenvalues
        assert vals.shape == (40,)
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all(vals >= 0.0)

    def test_deterministic_given_seed(self):
        one = sample_spectrum(11, self.DIMS, REFERENCE_SPEC).eigenvalues
        two = sample_spectrum(11, self.DIMS, REFERENCE_SPEC).eigenvalues
        np.testing.assert_array_equal(one, two)
        other = sample_spectrum(12, self.DIMS, REFERENCE_SPEC).eigenvalues
        assert not np.array_equal(one, other)

    def test_accepts_generator(self):
        rng = ensure_generator(11)
        sample = sample_spectrum(rng, self.DIMS, REFERENCE_SPEC)
        np.testing.assert_array_equal(
            sample.eigenvalues, sample_spectrum(11, self.DIMS, REFERENCE_SPEC).eigenvalues
        )

    def test_rank_deficient_s1_yields_exact_zeros(self):
        dims = ModelDims(p=30, n=70, T=20)
        sample = sample_spectrum(5, dims, SpikeSpec())
        assert int(np.count_nonzero(sample.eigenvalues == 0.0)) == 10
        assert np.all(sample.eigenvalues[:20] > 0.0)

    def test_full_rank_has_no_zeros(self):
        sample = sample_spectrum(5, self.DIMS, SpikeSpec())
        assert np.all(sample.eigenvalues > 0.0)

    def test_spike_rank_beyond_dimension(self):
        dims = ModelDims(p=3, n=9, T=12)
        with pytest.raises(ParameterError):
            sample_spectrum(1, dims, REFERENCE_SPEC)

    def test_rademacher_entries(self):
        sample = sample_spectrum(8, self.DIMS, REFERENCE_SPEC, RADEMACHER)
        assert np.all(np.diff(sample.eigenvalues) <= 0.0)
        assert np.all(sample.eigenvalues >= 0.0)


def block_root(spec: SpikeSpec) -> np.ndarray:
    """Sigma^{1/2} on the spiked block, U diag(sqrt(a)) U^T (test-local)."""
    scales = np.sqrt(np.repeat(spec.values, spec.multiplicities))
    basis = spec.basis_or_identity()
    return (basis * scales) @ basis.T


class TestWishartFactor:
    @pytest.mark.parametrize("dof", [7, 12])
    def test_triangular_factor(self, dof):
        factor = sampling._wishart_factor(ensure_generator(4), 7, dof)
        assert factor.shape == (7, 7)
        np.testing.assert_array_equal(np.triu(factor, 1), 0.0)
        assert np.all(np.diag(factor) > 0.0)

    def test_dense_draw_below_dimension(self):
        factor = sampling._wishart_factor(ensure_generator(4), 7, 5)
        np.testing.assert_array_equal(factor, ensure_generator(4).standard_normal((7, 5)))

    def test_stream_order(self):
        # Below-diagonal normals in row-major order first, then the chi-squares.
        p, dof = 6, 9
        factor = sampling._wishart_factor(ensure_generator(4), p, dof)
        rng = ensure_generator(4)
        below = rng.standard_normal(p * (p - 1) // 2)
        diagonal = np.sqrt(rng.chisquare(dof - np.arange(p)))
        np.testing.assert_array_equal(factor[np.tril_indices(p, -1)], below)
        np.testing.assert_array_equal(np.diag(factor), diagonal)

    def test_gram_moments(self):
        # E[L L^T] = dof I; Var[(L L^T)_ij] is dof off the diagonal and 2 dof on it.
        p, dof, reps = 5, 8, 4000
        rng = ensure_generator(6)
        factors = np.array([sampling._wishart_factor(rng, p, dof) for _ in range(reps)])
        grams = factors @ factors.transpose(0, 2, 1)
        se = math.sqrt(2.0 * dof / reps)
        assert np.max(np.abs(grams.mean(axis=0) - dof * np.eye(p))) < 5.0 * se
        variance = grams.var(axis=0) / (dof * (1.0 + np.eye(p)))
        assert np.max(np.abs(variance - 1.0)) < 0.15


class TestSamplePaths:
    DIMS = ModelDims(p=20, n=40, T=60)
    SPEC = SpikeSpec(spikes=((20.0, 1), (0.2, 2), (0.1, 1)))

    def test_bartlett_path_is_the_whitened_pencil(self):
        # Replay the two factors and solve the pencil (X X^T / T, L L^T / n)
        # with the general definite driver.
        dims, spec = self.DIMS, self.SPEC
        vals = sample_spectrum(31, dims, spec).eigenvalues
        rng = ensure_generator(31)
        x = sampling._wishart_factor(rng, dims.p, dims.T)
        lower = sampling._wishart_factor(rng, dims.p, dims.n)
        x[: spec.rank] = block_root(spec) @ x[: spec.rank]
        expected = pencil_eigenvalues(x @ x.T / dims.T, lower @ lower.T / dims.n)
        np.testing.assert_allclose(vals, expected, rtol=1e-10)

    def test_bartlett_law_matches_data_path(self):
        # Two-sample KS on l_1, the middle eigenvalue and l_p against the
        # dense Gaussian data path replayed here; the gate is the asymptotic
        # alpha = 0.001 critical value, fixed before any run.
        dims, spec, reps = self.DIMS, self.SPEC, 2000
        root = block_root(spec)
        bartlett = np.array(
            [sample_spectrum(stream_generator(41, 0, r), dims, spec).eigenvalues for r in range(reps)]
        )
        dense = np.empty_like(bartlett)
        for r in range(reps):
            rng = stream_generator(41, 1, r)
            w = rng.standard_normal((dims.p, dims.T))
            z = rng.standard_normal((dims.p, dims.n))
            w[: spec.rank] = root @ w[: spec.rank]
            dense[r] = pencil_eigenvalues(w @ w.T / dims.T, z @ z.T / dims.n)
        gate = math.sqrt(-math.log(0.001 / 2.0) / 2.0) * math.sqrt(2.0 / reps)
        for k in (0, dims.p // 2, dims.p - 1):
            distance = stats.ks_2samp(bartlett[:, k], dense[:, k]).statistic
            assert distance <= gate, f"eigenvalue {k}: KS {distance:.4f} > {gate:.4f}"

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("seed", range(5))
    def test_overflow_is_a_numerical_error(self, seed):
        # Near the float maximum the whitened signal overflows in some draws
        # and only the top eigenvalue in others; neither may come out as zeros.
        dims = ModelDims(p=10, n=30, T=60)
        with pytest.raises(NumericalError):
            sample_spectrum(seed, dims, SpikeSpec(spikes=((1.7e308, 1),)))

    def test_rademacher_keeps_the_data_path(self):
        dims, spec = self.DIMS, self.SPEC
        vals = sample_spectrum(32, dims, spec, RADEMACHER).eigenvalues
        rng = ensure_generator(32)
        w = RADEMACHER.draw(rng, (dims.p, dims.T))
        z = RADEMACHER.draw(rng, (dims.p, dims.n))
        w[: spec.rank] = block_root(spec) @ w[: spec.rank]
        np.testing.assert_array_equal(vals, sampling._gram_pencil(w, z))


class TestPencil:
    def test_matches_nonsymmetric_product(self):
        # Independent algorithm: eigenvalues of S2^{-1} S1 via the general solver.
        rng = ensure_generator(21)
        p, n, t_len = 50, 120, 160
        w = rng.standard_normal((p, t_len))
        z = rng.standard_normal((p, n))
        s1 = w @ w.T / t_len
        s2 = z @ z.T / n
        sym = pencil_eigenvalues(s1, s2)
        product = np.linalg.eigvals(np.linalg.solve(s2, s1))
        assert np.max(np.abs(product.imag)) < 1e-8
        product = np.sort(product.real)[::-1]
        assert np.max(np.abs(sym - product) / np.abs(product)) < 1e-8

    def test_invariant_under_joint_congruence(self):
        # Transforming both matrices by any invertible B leaves the pencil
        # spectrum unchanged; this is the invariance sample_spectrum relies on.
        rng = ensure_generator(22)
        p = 12
        w = rng.standard_normal((p, 40))
        z = rng.standard_normal((p, 30))
        s1 = w @ w.T / 40
        s2 = z @ z.T / 30
        b = rng.standard_normal((p, p)) + 3.0 * np.eye(p)
        base = pencil_eigenvalues(s1, s2)
        moved = pencil_eigenvalues(b @ s1 @ b.T, b @ s2 @ b.T)
        assert np.max(np.abs(base - moved) / np.abs(base)) < 1e-8

    def test_singular_noise_matrix(self):
        ones = np.ones((5, 5))
        with pytest.raises(NumericalError):
            pencil_eigenvalues(np.eye(5), ones)


class TestOneBlasThread:
    def test_pins_nests_and_restores(self):
        controls = sampling._blas_controls()
        before = [get() for get, _ in controls]
        with sampling._one_blas_thread():
            assert [get() for get, _ in controls] == [1] * len(controls)
            with sampling._one_blas_thread():
                assert [get() for get, _ in controls] == [1] * len(controls)
            assert [get() for get, _ in controls] == [1] * len(controls)
        assert [get() for get, _ in controls] == before

    def test_restores_after_an_error(self):
        controls = sampling._blas_controls()
        before = [get() for get, _ in controls]
        with pytest.raises(RuntimeError, match="inside the pin"):
            with sampling._one_blas_thread():
                raise RuntimeError("inside the pin")
        assert [get() for get, _ in controls] == before

    def test_missing_library_or_symbol_is_skipped(self):
        numpy_copy = "numpy.libs/libscipy_openblas64_*.so"
        assert sampling._blas_control(np, "no-such-dir/libnothing*.so", "") is None
        assert sampling._blas_control(np, numpy_copy, "_no_such_suffix") is None


class TestPackets:
    def test_reference_layout(self):
        dims = ModelDims(p=200, n=400, T=1000)
        sample = sample_spectrum(3, dims, REFERENCE_SPEC)
        packets = spectrum_packets(sample, REFERENCE_SPEC)
        vals = sample.eigenvalues
        np.testing.assert_array_equal(packets[0], vals[[0]])
        np.testing.assert_array_equal(packets[1], vals[[197, 198]])
        np.testing.assert_array_equal(packets[2], vals[[199]])

    def test_rank_beyond_dimension(self):
        dims = ModelDims(p=3, n=12, T=9)
        sample = sample_spectrum(3, dims, SpikeSpec())
        with pytest.raises(ParameterError):
            spectrum_packets(sample, REFERENCE_SPEC)


def law_cdf(params, x: float) -> float:
    """CDF of the limiting law by direct quadrature (test-local oracle)."""
    edges = support_edges(params)
    mass = mass_at_zero(params)
    if x < 0.0:
        return 0.0
    if x < edges.lower:
        return mass
    span = edges.upper - edges.lower
    top = min(x, edges.upper)
    theta_x = math.asin(min(1.0, math.sqrt((top - edges.lower) / span)))
    c, y = params.c, params.y

    def integrand(theta):
        xx = edges.lower + span * math.sin(theta) ** 2
        jac = span * span * math.sin(2.0 * theta) ** 2 / 2.0
        if xx == 0.0:
            return 0.0
        return (1.0 - y) * jac / (2.0 * math.pi * xx * (c + xx * y))

    val, _ = integrate.quad(integrand, 0.0, theta_x, limit=200)
    return mass + val


class TestBulkLaw:
    def test_unspiked_spectrum_close_to_law(self):
        dims = ModelDims(p=200, n=400, T=1000)
        params = dims.fisher_params()
        sample = sample_spectrum(77, dims, SpikeSpec())
        ascending = sample.eigenvalues[::-1]
        cdf_vals = np.array([law_cdf(params, float(x)) for x in ascending])
        ranks = np.arange(1, ascending.size + 1)
        ks = max(
            np.max(ranks / ascending.size - cdf_vals),
            np.max(cdf_vals - (ranks - 1) / ascending.size),
        )
        assert ks <= 0.05

    def test_spiked_bulk_still_close_to_law(self):
        dims = ModelDims(p=200, n=400, T=1000)
        params = dims.fisher_params()
        sample = sample_spectrum(78, dims, REFERENCE_SPEC)
        # Drop the four packet positions; the bulk should be unaffected.
        keep = np.ones(dims.p, dtype=bool)
        for idx in REFERENCE_SPEC.packet_indices(dims.p):
            keep[idx] = False
        ascending = sample.eigenvalues[keep][::-1]
        cdf_vals = np.array([law_cdf(params, float(x)) for x in ascending])
        ranks = np.arange(1, ascending.size + 1)
        ks = max(
            np.max(ranks / ascending.size - cdf_vals),
            np.max(cdf_vals - (ranks - 1) / ascending.size),
        )
        assert ks <= 0.05
