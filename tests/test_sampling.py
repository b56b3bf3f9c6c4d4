"""Finite-sample spectrum simulation against structural and law oracles."""

import ctypes
import math
import sys
import threading
import time

import numpy as np
import pytest
import scipy
import scipy.linalg
from scipy import integrate, stats

from spikedfisher import experiments, sampling
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
    null_model,
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

    def test_samplers_take_a_distribution_not_its_name(self):
        with pytest.raises(ParameterError, match="EntryDistribution"):
            sample_spectrum(0, ModelDims(4, 8, 10), SpikeSpec(((5.0, 1),)), "gaussian")
        with pytest.raises(ParameterError, match="EntryDistribution"):
            null_model(ModelDims(4, 8, 10)).whitened_records(ensure_generator(0), "rademacher")

    def test_rademacher_support(self):
        draws = RADEMACHER.draw(ensure_generator(3), (100, 7))
        assert set(np.unique(draws)) == {-1.0, 1.0}

    def test_gaussian_standardized(self):
        draws = GAUSSIAN.draw(ensure_generator(3), (200_000,))
        assert abs(draws.mean()) < 0.01
        assert draws.var() == pytest.approx(1.0, rel=0.02)


class TestModelDims:
    def test_ratios(self):
        params = ModelDims(p=200, n=400, T=1000).fisher_params()
        assert (params.c, params.y) == (0.2, 0.5)

    def test_requires_p_below_n(self):
        with pytest.raises(ParameterError):
            ModelDims(p=400, n=400, T=1000)
        with pytest.raises(ParameterError):
            ModelDims(p=401, n=400, T=1000)

    def test_largest_array_is_bounded(self):
        ModelDims(p=1, n=10**8, T=1)  # exactly at the bound
        with pytest.raises(ParameterError, match="p x max"):
            ModelDims(p=10**4, n=10**4 + 1, T=5)
        with pytest.raises(ParameterError, match="p x max"):
            ModelDims(p=2, n=3, T=10**30)

    def test_requires_integers(self):
        with pytest.raises(ParameterError):
            ModelDims(p=10.5, n=40, T=100)
        with pytest.raises(ParameterError):
            ModelDims(p=0, n=40, T=100)


class TestSeedRule:
    @pytest.mark.parametrize("seed", [None, True, "abc", 1.5, -1, 2**64, (1, -1), (1, 2.5), (1, None)])
    def test_rejects_what_is_not_a_seed(self, seed):
        # None would draw from OS entropy, and a cast would key a stream by a value not given.
        with pytest.raises(ParameterError, match="seed must be"):
            sample_spectrum(seed, ModelDims(4, 8, 10), SpikeSpec(((5.0, 1),)))
        tags = seed if isinstance(seed, tuple) else (seed,)
        with pytest.raises(ParameterError, match="seed must be"):
            stream_generator(3, *tags)


class TestSampleSpectrum:
    DIMS = ModelDims(p=40, n=90, T=120)

    def test_shape_order_sign(self):
        sample = sample_spectrum(11, self.DIMS, REFERENCE_SPEC)
        vals = sample
        assert vals.shape == (40,)
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all(vals >= 0.0)

    def test_deterministic_given_seed(self):
        one = sample_spectrum(11, self.DIMS, REFERENCE_SPEC)
        two = sample_spectrum(11, self.DIMS, REFERENCE_SPEC)
        np.testing.assert_array_equal(one, two)
        other = sample_spectrum(12, self.DIMS, REFERENCE_SPEC)
        assert not np.array_equal(one, other)

    def test_accepts_generator(self):
        rng = ensure_generator(11)
        sample = sample_spectrum(rng, self.DIMS, REFERENCE_SPEC)
        np.testing.assert_array_equal(
            sample, sample_spectrum(11, self.DIMS, REFERENCE_SPEC)
        )

    def test_rank_deficient_s1_yields_exact_zeros(self):
        dims = ModelDims(p=30, n=70, T=20)
        sample = sample_spectrum(5, dims, SpikeSpec())
        assert int(np.count_nonzero(sample == 0.0)) == 10
        assert np.all(sample[:20] > 0.0)

    @pytest.mark.parametrize("dist", [GAUSSIAN, RADEMACHER], ids=lambda d: d.name)
    def test_huge_spike_leaves_the_rest_nonzero(self, dist):
        # Eigenvalues twelve orders below the top one are real, not rank-deficiency zeros.
        spec = SpikeSpec(spikes=((1e12, 1), (0.05, 1)))
        for seed in range(5):
            vals = sample_spectrum(seed, ModelDims(p=20, n=40, T=60), spec, dist)
            assert np.all(vals > 0.0)

    def test_singular_signal_gram_gives_zeros(self):
        # Binary entries make S1 singular in about one sample in six at (3, 8, 4);
        # its rounding-level negative eigenvalues are zeros, not a solver failure.
        spec = SpikeSpec(spikes=((20.0, 1),))
        singular = 0
        for seed in range(200):
            try:
                vals = sample_spectrum(seed, ModelDims(p=3, n=8, T=4), spec, RADEMACHER)
            except NumericalError as exc:
                assert "noise covariance" in str(exc)  # a singular S2 stays an error
                continue
            assert np.all(vals >= 0.0)
            singular += vals[-1] == 0.0
        assert singular > 10

    def test_negative_eigenvalue_beyond_rounding_raises(self):
        dims = ModelDims(p=3, n=5, T=2)
        # A negative at rounding level (p eps l_1) among the top min(p, T) becomes a zero ...
        vals = sampling._zero_beyond_rank(np.array([1.0, -1e-16, -5.0]), dims)
        np.testing.assert_array_equal(vals, [1.0, 0.0, 0.0])
        # ... a larger one is a solver failure.
        with pytest.raises(NumericalError, match="negative eigenvalue -1.000e-03"):
            sampling._zero_beyond_rank(np.array([1.0, -1e-3, -5.0]), dims)

    def test_full_rank_has_no_zeros(self):
        sample = sample_spectrum(5, self.DIMS, SpikeSpec())
        assert np.all(sample > 0.0)

    def test_spike_rank_beyond_dimension(self):
        dims = ModelDims(p=3, n=9, T=12)
        with pytest.raises(ParameterError):
            sample_spectrum(1, dims, REFERENCE_SPEC)

    def test_rademacher_entries(self):
        sample = sample_spectrum(8, self.DIMS, REFERENCE_SPEC, RADEMACHER)
        assert np.all(np.diff(sample) <= 0.0)
        assert np.all(sample >= 0.0)


def block_root(spec: SpikeSpec) -> np.ndarray:
    """Sigma^{1/2} on the spiked block, U diag(sqrt(a)) U^T (test-local)."""
    scales = np.sqrt(np.repeat(spec.values, spec.multiplicities))
    return (spec.basis * scales) @ spec.basis.T


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
        vals = sample_spectrum(31, dims, spec)
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
            [sample_spectrum(stream_generator(41, 0, r), dims, spec) for r in range(reps)]
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

    @pytest.mark.parametrize(
        "seed, t_len",
        [pytest.param(seed, 60, id=str(seed)) for seed in range(5)]
        + [pytest.param(seed, 20, id=f"T20-{seed}") for seed in (3, 6, 7)],
    )
    def test_overflow_is_a_numerical_error(self, seed, t_len):
        # Near the float maximum the whitened signal overflows in some draws
        # and only the top eigenvalue in others; neither may come out as zeros
        # or print a numpy warning.  At T = 20 these seeds give a finite B B^T
        # whose top eigenvalue overflows when scaled by n/T = 1.5.
        dims = ModelDims(p=10, n=30, T=t_len)
        with pytest.raises(NumericalError):
            sample_spectrum(seed, dims, SpikeSpec(spikes=((1.7e308, 1),)))

    def test_rademacher_keeps_the_data_path(self):
        dims, spec = self.DIMS, self.SPEC
        vals = sample_spectrum(32, dims, spec, RADEMACHER)
        rng = ensure_generator(32)
        w = RADEMACHER.draw(rng, (dims.p, dims.T))
        z = RADEMACHER.draw(rng, (dims.p, dims.n))
        w[: spec.rank] = block_root(spec) @ w[: spec.rank]
        np.testing.assert_array_equal(vals, sampling._data_spectrum(w, z, dims))


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

    @pytest.mark.parametrize("seed", [3, 4, 8])
    def test_rounding_level_pivot_raises(self, seed):
        # A copied row of Gaussian records leaves S2 a Cholesky pivot at rounding level, not an
        # exact zero; at these seeds LAPACK takes it as positive, and the pivot rule does not.
        rng = np.random.default_rng(seed)
        x, z = rng.standard_normal((10, 40)), rng.standard_normal((10, 30))
        z[5] = z[2]
        dims = ModelDims(p=10, n=30, T=40)
        s1, s2 = sampling._grams(x, z, dims)
        with pytest.raises(NumericalError, match="numerically singular"):
            pencil_eigenvalues(s1, s2)
        with pytest.raises(NumericalError, match="numerically singular"):
            sampling._gram_count(x, z, dims, 1.0, 2.0)

    def test_gate_pencil_overflow_raises(self):
        # S2 near 4 I times a gate near the largest float: an error, not numpy's warning.
        rng = np.random.default_rng(5)
        x, z = rng.standard_normal((10, 40)), rng.standard_normal((10, 30))
        with pytest.raises(NumericalError, match="gated pencil"):
            sampling._gram_count(x, 2 * z, ModelDims(p=10, n=30, T=40), 1e308, 1e308)


class TestLapackCalls:
    """The ctypes LAPACK calls against scipy.linalg as the oracle: the same bits."""

    # (p, n, T); T < p gives the dense signal factor and a singular S1.
    SHAPES = [(1, 2, 1), (1, 3, 5), (4, 9, 2), (7, 15, 30), (40, 60, 25), (90, 200, 400)]

    @pytest.mark.parametrize("p, n, t_len", SHAPES)
    def test_bartlett_calls_match_scipy(self, p, n, t_len):
        rng = ensure_generator(1000 * p + t_len)
        x = sampling._spiked(sampling._wishart_factor(rng, p, t_len), SpikeSpec(((5.0, 1),)))
        l2 = sampling._wishart_factor(rng, p, n)
        kept = x.copy(), l2.copy()
        b = sampling._solve_lower(l2, x)
        expected_b = scipy.linalg.solve_triangular(l2, x, lower=True)
        np.testing.assert_array_equal(b, expected_b)
        assert b.flags.f_contiguous == expected_b.flags.f_contiguous
        gram = b @ b.T
        expected = scipy.linalg.eigvalsh(gram)
        np.testing.assert_array_equal(sampling._symmetric_eigenvalues(gram.copy()), expected)
        spectrum = sampling._bartlett_spectrum(x, l2, ModelDims(p, n, t_len))
        np.testing.assert_array_equal(spectrum, expected[::-1] * (n / t_len))
        np.testing.assert_array_equal(x, kept[0])
        np.testing.assert_array_equal(l2, kept[1])

    @pytest.mark.parametrize("p, n, t_len", SHAPES)
    @pytest.mark.parametrize("dist", [GAUSSIAN, RADEMACHER], ids=lambda d: d.name)
    def test_pencil_matches_scipy(self, p, n, t_len, dist):
        rng = ensure_generator(2000 * p + t_len)
        w, z = dist.draw(rng, (p, t_len)), dist.draw(rng, (p, n))
        s1, s2 = w @ w.T / t_len, z @ z.T / n
        kept = s1.copy(), s2.copy()
        expected = scipy.linalg.eigh(s1, s2, eigvals_only=True)[::-1]
        np.testing.assert_array_equal(pencil_eigenvalues(s1, s2), expected)
        np.testing.assert_array_equal(s1, kept[0])
        np.testing.assert_array_equal(s2, kept[1])

    def test_pencil_on_singular_rademacher_signal(self):
        # About one binary S1 in six is singular at (3, 8, 4).
        singular = 0
        for seed in range(60):
            rng = ensure_generator(seed)
            w, z = RADEMACHER.draw(rng, (3, 4)), RADEMACHER.draw(rng, (3, 8))
            s1, s2 = w @ w.T / 4, z @ z.T / 8
            if np.linalg.matrix_rank(s2) < 3:
                continue
            singular += np.linalg.matrix_rank(s1) < 3
            expected = scipy.linalg.eigh(s1, s2, eigvals_only=True)[::-1]
            np.testing.assert_array_equal(pencil_eigenvalues(s1, s2), expected)
        assert singular > 3

    def test_pencil_reads_the_lower_triangles(self):
        rng = ensure_generator(23)
        w, z = rng.standard_normal((6, 9)), rng.standard_normal((6, 12))
        s1 = w @ w.T + np.triu(rng.standard_normal((6, 6)), 1)
        s2 = z @ z.T + np.triu(rng.standard_normal((6, 6)), 1)
        expected = scipy.linalg.eigh(s1, s2, eigvals_only=True)[::-1]
        np.testing.assert_array_equal(pencil_eigenvalues(s1, s2), expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries(self, bad):
        poisoned = np.eye(4)
        poisoned[2, 1] = bad
        for call in (
            lambda: pencil_eigenvalues(poisoned, np.eye(4)),
            lambda: pencil_eigenvalues(np.eye(4), poisoned),
        ):
            with pytest.raises(ParameterError, match="non-finite"):
                call()
        for call in (
            lambda: sampling._solve_lower(poisoned, np.ones((4, 2))),
            lambda: sampling._solve_lower(np.eye(4), poisoned),
            lambda: sampling._symmetric_eigenvalues(poisoned),
            # Records holding inf give NaN Grams (inf * 0); `_grams` rejects them without a warning.
            lambda: sampling._gram_count(poisoned, np.eye(4, 6), ModelDims(4, 6, 4), 1.0, 2.0),
            lambda: sampling._gram_count(np.eye(4), poisoned, ModelDims(4, 6, 4), 1.0, 2.0),
        ):
            with pytest.raises(NumericalError, match="non-finite"):
                call()

    def test_indefinite_noise_matrix(self):
        with pytest.raises(NumericalError, match="numerically singular"):
            pencil_eigenvalues(np.eye(3), np.diag([1.0, -1.0, 2.0]))

    @pytest.mark.parametrize("shapes", [((3, 3), (4, 4)), ((3, 4), (3, 4)), ((3,), (3,))])
    def test_pencil_shapes(self, shapes):
        with pytest.raises(ParameterError, match="square"):
            pencil_eigenvalues(np.ones(shapes[0]), np.ones(shapes[1]))

    @pytest.mark.parametrize(
        "bad",
        [[[True]], [["1"]], [[1.0 + 1.0j]], [[None]]],
        ids=["bool", "string", "complex", "object"],
    )
    def test_pencil_takes_real_finite_matrices(self, bad):
        for s1, s2 in ((bad, [[1.0]]), ([[1.0]], bad)):
            with pytest.raises(ParameterError, match="pencil matrix S[12]"):
                pencil_eigenvalues(s1, s2)
        np.testing.assert_array_equal(pencil_eigenvalues([[2]], [[1]]), [2.0])

    @pytest.mark.parametrize("dist", [GAUSSIAN, RADEMACHER], ids=lambda d: d.name)
    def test_two_workers_give_the_serial_bits(self, monkeypatch, dist):
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        dims = ModelDims(p=60, n=120, T=150)

        def one(rep):
            return sample_spectrum(stream_generator(17, rep), dims, REFERENCE_SPEC, dist)

        serial = experiments._map_indexed(one, 12, 1)
        threaded = experiments._map_indexed(one, 12, 2)
        for a, b in zip(serial, threaded, strict=True):
            np.testing.assert_array_equal(a, b)

    @staticmethod
    def assert_main_thread_runs(solve):
        # The solver releases the GIL: while a worker is inside it, the main
        # thread keeps running Python without a pause as long as the solve.
        window = []

        def timed():
            start = time.perf_counter()
            solve()
            window.extend([start, time.perf_counter()])

        worker = threading.Thread(target=timed)
        pauses = []  # (start, end) of each main-thread pause above 1 ms
        with sampling._one_blas_thread():
            worker.start()
            last = time.perf_counter()
            while worker.is_alive():
                now = time.perf_counter()
                if now - last > 1e-3:
                    pauses.append((last, now))
                last = now
            worker.join(timeout=60)
        assert not worker.is_alive() and len(window) == 2
        start, end = window
        inside = [min(b, end) - max(a, start) for a, b in pauses if b > start and a < end]
        assert max(inside, default=0.0) < 0.5 * (end - start)

    def test_main_thread_runs_while_a_worker_solves(self):
        rng = ensure_generator(29)
        p = 600
        w, z = rng.standard_normal((p, 2 * p)), rng.standard_normal((p, 2 * p))
        s1, s2 = w @ w.T, z @ z.T
        self.assert_main_thread_runs(lambda: pencil_eigenvalues(s1, s2))

    def test_main_thread_runs_while_a_worker_counts(self):
        rng = ensure_generator(29)
        p = 600
        w, z = rng.standard_normal((p, 2 * p)), rng.standard_normal((p, 2 * p))
        # A level inside the bulk, so all three factorizations run.
        dims = ModelDims(p, 2 * p, 2 * p)
        self.assert_main_thread_runs(lambda: sampling._gram_count(w, z, dims, 1.0, 1.0))


LAPACK_NAMES = ("dtrtrs", "dsyevr", "dsygvd", "dpotrf", "dsytrf")


def _addresses(routines):
    """The address of each routine of a name -> routine table, in `LAPACK_NAMES` order."""
    return [ctypes.cast(routines[name], ctypes.c_void_p).value for name in LAPACK_NAMES]


def _capsule_addresses():
    """The pointers `scipy.linalg.cython_lapack` exports for dtrtrs, dsyevr, dsygvd, dpotrf and dsytrf."""
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    capsules = [scipy.linalg.cython_lapack.__pyx_capi__[name] for name in LAPACK_NAMES]
    return [get_pointer(capsule, get_name(capsule)) for capsule in capsules]


class TestLapackRoute:
    """scipy's bundled OpenBLAS and the cython_lapack capsules: one set of routines, one set of bits."""

    @pytest.fixture
    def capsule_routines(self):
        """What the resolver gives on a scipy build that bundles no OpenBLAS."""
        return sampling._lapack_routines(None)

    def test_empty_glob_gives_the_capsules(self, monkeypatch):
        monkeypatch.setattr(sampling.glob, "glob", lambda pattern: [])
        library = sampling._openblas("scipy", "scipy.libs/libscipy_openblas-*.so")
        assert library is None
        assert _addresses(sampling._lapack_routines(library)) == _capsule_addresses()

    def test_import_takes_the_bundled_library(self):
        library = sampling._SCIPY_OPENBLAS
        if library is None:
            pytest.skip("this scipy build bundles no OpenBLAS")
        expected = {name: getattr(library, f"scipy_{name}_") for name in LAPACK_NAMES}
        assert _addresses(sampling._LAPACK) == _addresses(expected)
        assert "64_" not in library._name

    def test_routes_give_the_same_bits(self, monkeypatch, capsule_routines):
        rng = ensure_generator(41)
        shapes = [(1, 2, 1), (1, 3, 7), (5, 8, 3), (30, 45, 12)] + [
            (p, p + int(rng.integers(1, 100)), int(rng.integers(1, 250)))
            for p in rng.integers(1, 120, size=20).tolist()
        ]
        for p, n, t_len in shapes:
            dims = ModelDims(p, n, t_len)
            x = sampling._spiked(sampling._wishart_factor(rng, p, t_len), SpikeSpec(((5.0, 1),)))
            l2 = sampling._wishart_factor(rng, p, n)
            w, z = RADEMACHER.draw(rng, (p, t_len)), RADEMACHER.draw(rng, (p, n))
            # Levels at the median eigenvalue and above the top one: dsytrf and both dpotrf calls run.
            spectrum = sampling._data_spectrum(w, z, dims)
            levels = [(spectrum[p // 2], spectrum[p // 2]), (spectrum[0] + 1.0, spectrum[0] + 1.0)]

            def outputs():
                counts = [sampling._gram_count(w, z, dims, t, g) for t, g in levels]
                pencil = sampling._data_spectrum(w, z, dims)
                return sampling._bartlett_spectrum(x, l2, dims), pencil, counts

            library = outputs()
            with monkeypatch.context() as patch:
                patch.setattr(sampling, "_LAPACK", capsule_routines)
                capsules = outputs()
            for a, b in zip(library, capsules, strict=True):
                np.testing.assert_array_equal(a, b, err_msg=str((p, n, t_len)))

    @pytest.mark.parametrize("route", ["module", "capsules"])
    def test_illegal_argument_raises(self, monkeypatch, capsule_routines, route):
        if route == "capsules":
            monkeypatch.setitem(sampling._LAPACK, "dpotrf", capsule_routines["dpotrf"])
            monkeypatch.setitem(sampling._LAPACK, "dsytrf", capsule_routines["dsytrf"])
        # lda = 0 (argument 4) is illegal: LAPACK's xerbla reports it and info comes back -4.
        with pytest.raises(NumericalError, match=r"LAPACK dpotrf failed \(info = -4\)"):
            sampling._lapack("dpotrf", b"U", 1, np.eye(1), 0)
        with pytest.raises(NumericalError, match=r"LAPACK dsytrf failed \(info = -4\)"):
            sampling._lapack_with_workspace("dsytrf", b"U", 1, np.eye(1), 0, np.empty(1, np.intc))

    @pytest.mark.parametrize("route", ["module", "capsules"])
    def test_singular_triangle_raises(self, monkeypatch, capsule_routines, route):
        if route == "capsules":
            monkeypatch.setitem(sampling._LAPACK, "dtrtrs", capsule_routines["dtrtrs"])
        with pytest.raises(NumericalError, match=r"LAPACK dtrtrs failed \(info = 2\)"):
            sampling._solve_lower(np.diag([1.0, 0.0, 2.0]), np.ones((3, 2)))


class TestOneBlasThread:
    def test_pins_nests_and_restores(self):
        controls = sampling._BLAS_CONTROLS
        before = [get() for get, _ in controls]
        with sampling._one_blas_thread():
            assert [get() for get, _ in controls] == [1] * len(controls)
            with sampling._one_blas_thread():
                assert [get() for get, _ in controls] == [1] * len(controls)
            assert [get() for get, _ in controls] == [1] * len(controls)
        assert [get() for get, _ in controls] == before

    def test_restores_after_an_error(self):
        controls = sampling._BLAS_CONTROLS
        before = [get() for get, _ in controls]
        with pytest.raises(RuntimeError, match="inside the pin"):
            with sampling._one_blas_thread():
                raise RuntimeError("inside the pin")
        assert [get() for get, _ in controls] == before

    def test_overlapping_pins_from_two_threads(self, two_blas_threads):
        # A enters, B enters, A exits: B still runs on one thread, and B's exit restores 2.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = []

        def first():
            with sampling._one_blas_thread():
                a_in.set()
                b_in.wait(timeout=30)
            a_out.set()

        def second():
            a_in.wait(timeout=30)
            with sampling._one_blas_thread():
                b_in.set()
                a_out.wait(timeout=30)
                seen.append(sampling._blas_threads())

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [1]
        assert sampling._blas_threads() == 2

    def test_pin_holds_under_many_threads(self, two_blas_threads):
        # More threads than cores enter and leave the pin with frequent switches; each
        # reads one thread inside its pin, and the counts come back once all have left.
        seen = []
        start = threading.Barrier(8)

        def churn():
            start.wait(timeout=30)
            for _ in range(1000):
                with sampling._one_blas_thread():
                    seen.append(sampling._blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [1] * 8000
        assert sampling._blas_threads() == 2

    def test_missing_library_or_symbol_is_skipped(self):
        assert sampling._openblas("numpy", "no-such-dir/libnothing*.so") is None
        assert sampling._thread_control(None, "64_") is None
        numpy_copy = sampling._openblas("numpy", "numpy.libs/libscipy_openblas64_*.so")
        assert sampling._thread_control(numpy_copy, "_no_such_suffix") is None


class TestPackets:
    def test_reference_layout(self):
        dims = ModelDims(p=200, n=400, T=1000)
        sample = sample_spectrum(3, dims, REFERENCE_SPEC)
        packets = spectrum_packets(sample, REFERENCE_SPEC)
        vals = sample
        np.testing.assert_array_equal(packets[0], vals[[0]])
        np.testing.assert_array_equal(packets[1], vals[[197, 198]])
        np.testing.assert_array_equal(packets[2], vals[[199]])

    def test_reads_any_real_vector(self):
        spec = SpikeSpec(((5.0, 1), (0.2, 1)))
        packets = spectrum_packets([3.0, 2.0, 1.0], spec)
        assert [packet.tolist() for packet in packets] == [[3.0], [1.0]]
        for bad in ([[3.0, 2.0, 1.0]], ["3", "2", "1"], [3.0, np.nan, 1.0]):
            with pytest.raises(ParameterError, match="eigenvalues"):
                spectrum_packets(bad, spec)

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
        ascending = sample[::-1]
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
        ascending = sample[keep][::-1]
        cdf_vals = np.array([law_cdf(params, float(x)) for x in ascending])
        ranks = np.arange(1, ascending.size + 1)
        ks = max(
            np.max(ranks / ascending.size - cdf_vals),
            np.max(cdf_vals - (ranks - 1) / ascending.size),
        )
        assert ks <= 0.05
