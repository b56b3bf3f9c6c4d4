"""Study drivers, density estimation, and summaries."""

import dataclasses
import math

import numpy as np
import pytest

from spikedfisher import experiments, sampling
from spikedfisher import (
    GAUSSIAN,
    RADEMACHER,
    CltConfig,
    DetectionConfig,
    DetectorConfig,
    EntryDistribution,
    FrequencyTable,
    ModelDims,
    NumericalError,
    ParameterError,
    SignalModel,
    SpikeSpec,
    block_noise_model,
    ensure_generator,
    equicorrelated_model,
    estimate_count,
    kde_1d,
    kde_2d,
    null_model,
    records_spectrum,
    run_clt_study,
    run_detection_study,
    silverman_bandwidth,
    stream_generator,
    summarize,
)
from oracles import effective_spikes

SPEC = SpikeSpec(spikes=((20.0, 1), (0.2, 2), (0.1, 1)))
DIMS = ModelDims(p=60, n=120, T=300)
LADDER = (ModelDims(p=20, n=40, T=100), ModelDims(p=30, n=60, T=150))


def small_clt_config(**overrides):
    base = dict(
        dims=DIMS,
        spec=SPEC,
        dist=GAUSSIAN,
        replicates=24,
        master_seed=7,
    )
    base.update(overrides)
    return CltConfig(**base)


def small_detection_config(**overrides):
    base = dict(
        models=tuple(map(block_noise_model, LADDER)),
        dist=GAUSSIAN,
        replicates=16,
        master_seed=3,
    )
    base.update(overrides)
    return DetectionConfig(**base)


class TestStudyConfigs:
    def test_accepts_tuple_dims(self):
        assert small_clt_config(dims=(60, 120, 300)).dims == DIMS
        models = [null_model(DIMS), null_model(DIMS)]
        assert small_detection_config(models=models).models == tuple(models)

    def test_rejects_bad_fields(self):
        for models in ((), null_model(DIMS), [SPEC]):
            with pytest.raises(ParameterError, match="nonempty sequence of SignalModels"):
                small_detection_config(models=models)
        with pytest.raises(ParameterError):
            small_clt_config(dims=(60, 50, 300))
        with pytest.raises(ParameterError, match=r"dimensions must be \[p, n, T\], got"):
            small_clt_config(dims={"p": 60, "n": 120, "T": 300})
        with pytest.raises(ParameterError):
            small_clt_config(replicates=1)  # summaries need spread
        with pytest.raises(ParameterError):
            small_detection_config(replicates=0)
        with pytest.raises(ParameterError):
            small_clt_config(master_seed=-1)
        with pytest.raises(ParameterError):
            small_clt_config(master_seed=2**64)
        with pytest.raises(ParameterError):
            small_clt_config(dist="gaussian")
        with pytest.raises(ParameterError):
            small_detection_config(detector=0.5)
        # One integer rule for replicates and seeds: True is not 1.
        for field in ("replicates", "master_seed"):
            with pytest.raises(ParameterError):
                small_clt_config(**{field: True})
            with pytest.raises(ParameterError):
                small_detection_config(**{field: True})


class TestCltStudy:
    def test_shapes_and_indices(self):
        result = run_clt_study(small_clt_config())
        assert [f.name for f in dataclasses.fields(result)] == ["constants", "empirical", "limit"]
        assert [e.shape for e in result.empirical] == [(24, 1), (24, 2), (24, 1)]
        assert [l.shape for l in result.limit] == [(24, 1), (24, 2), (24, 1)]
        assert len(result.constants) == 3
        assert result.constants[0].lam == pytest.approx(128.0 / 3.0, rel=1e-12)

    def test_centering_is_at_the_outlier(self):
        # sqrt(p)(l - phi(a)) should straddle 0, not sit at phi(a) scale.
        result = run_clt_study(small_clt_config(replicates=40))
        top = result.empirical[0][:, 0]
        assert abs(top.mean()) < 0.5 * math.sqrt(result.constants[0].sigma_sq)

    def test_thread_count_does_not_change_results(self):
        serial = run_clt_study(small_clt_config(), threads=1)
        threaded = run_clt_study(small_clt_config(), threads=4)
        for a, b in zip(serial.empirical + serial.limit, threaded.empirical + threaded.limit):
            np.testing.assert_array_equal(a, b)

    def test_seed_fixes_everything(self):
        one = run_clt_study(small_clt_config())
        two = run_clt_study(small_clt_config())
        for a, b in zip(one.empirical + one.limit, two.empirical + two.limit):
            np.testing.assert_array_equal(a, b)
        other = run_clt_study(small_clt_config(master_seed=8))
        assert not np.array_equal(one.empirical[0], other.empirical[0])

    def test_rejects_bad_targets(self):
        with pytest.raises(ParameterError):
            small_clt_config(spec=null_model(DIMS))
        with pytest.raises(ParameterError):
            small_clt_config(spec=SpikeSpec())
        with pytest.raises(ParameterError):
            small_clt_config(dims=(3, 120, 300))  # spike rank 4 exceeds p = 3
        # Spike 2.0 sits inside the critical interval at (c, y) = (0.2, 0.5).
        with pytest.raises(ParameterError):
            run_clt_study(small_clt_config(spec=SpikeSpec(spikes=((2.0, 1),))))

    def test_rademacher_study_runs(self):
        result = run_clt_study(small_clt_config(dist=RADEMACHER, replicates=6))
        assert result.constants[0].sigma_sq == pytest.approx(2039.8880658436212, rel=1e-9)


class TestDetectionStudy:
    config = staticmethod(small_detection_config)

    def test_table_shape_and_sums(self):
        table = run_detection_study(self.config())
        assert table.row_labels == ("0", "1", "2", "3", "4", "5+")
        assert table.column_labels == ("p=20", "p=30")
        assert table.frequencies.shape == (6, 2)
        np.testing.assert_allclose(table.frequencies.sum(axis=0), 1.0, atol=1e-12)

    def test_thread_count_does_not_change_results(self):
        one = run_detection_study(self.config(), threads=1)
        four = run_detection_study(self.config(), threads=4)
        np.testing.assert_array_equal(one.frequencies, four.frequencies)

    def test_fixed_model_target(self):
        table = run_detection_study(self.config(models=[null_model(LADDER[0])]))
        assert table.frequencies.shape == (6, 1)
        # Pure noise: mass concentrates on the zero bin.
        assert table.frequencies[0, 0] > 0.5


def dense_custom_model(dims):
    """Dense, well-spread noise covariance and two mixing columns (test-local)."""
    rng = np.random.default_rng(19)
    w = rng.standard_normal((dims.p, dims.p))
    mixing = np.zeros((dims.p, 2))
    mixing[:3] = [[2.5, 0.0], [0.8, 1.9], [0.0, 1.1]]
    return SignalModel(mixing=mixing, noise_cov=w @ w.T / dims.p + 0.5 * np.eye(dims.p), dims=dims)


class TestWhitenedReplicate:
    """The whitened replicate gives the spectrum of the dense records it stands for.

    The reference replays the replicate's stream into the records
    A s + R e and R z with R = Sigma2^{1/2}, the symmetric root.
    """

    DIMS = ModelDims(p=40, n=80, T=200)
    REPS = 20
    MODELS = {
        "block-noise": block_noise_model,
        "equicorrelated": lambda dims: equicorrelated_model(dims, rho=0.3),
        "custom": dense_custom_model,
        "null": null_model,
    }

    @staticmethod
    def dense_root_spectrum(rng, model, dist):
        vals, vecs = np.linalg.eigh(model.noise_cov)
        root = (vecs * np.sqrt(vals)) @ vecs.T
        dims = model.dims
        x = np.zeros((dims.p, dims.T))
        if model.num_signals > 0:
            x = model.mixing @ dist.draw(rng, (model.num_signals, dims.T))
        x = x + root @ dist.draw(rng, (dims.p, dims.T))
        return records_spectrum(x, root @ dist.draw(rng, (dims.p, dims.n)))[0]

    @pytest.mark.parametrize("dist", [GAUSSIAN, RADEMACHER], ids=lambda d: d.name)
    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_matches_dense_root_records(self, kind, dist):
        model = self.MODELS[kind](self.DIMS)
        counts = np.zeros(len(experiments.COUNT_BIN_LABELS))
        for rep in range(self.REPS):
            stream = (5, experiments._DETECT_STREAM, 0, rep)
            records = experiments._detection_records(stream_generator(*stream), model, dist)
            whitened = sampling._data_spectrum(*records, self.DIMS)
            dense = self.dense_root_spectrum(stream_generator(*stream), model, dist)
            np.testing.assert_allclose(whitened, dense, rtol=1e-10, atol=0.0)
            counts[min(estimate_count(dense, self.DIMS), counts.size - 1)] += 1
        config = small_detection_config(models=[model], dist=dist, replicates=self.REPS, master_seed=5)
        np.testing.assert_array_equal(run_detection_study(config).frequencies[:, 0], counts / self.REPS)

    def test_effective_spikes_are_the_whitened_gram(self):
        model = dense_custom_model(self.DIMS)
        gram = model.mixing.T @ np.linalg.solve(model.noise_cov, model.mixing)
        np.testing.assert_allclose(
            effective_spikes(model), np.linalg.eigvalsh(gram)[::-1], rtol=1e-12
        )


class TestInertiaCount:
    """A detection replicate's count by inertia equals the eigenvalue rule on the whole spectrum."""

    REPS = 12
    # (model, dims): T < p makes S1 singular (c > 1); n = p + 2 puts S2 near singular.
    CASES = {
        "null": (null_model, ModelDims(p=40, n=80, T=200)),
        "block-noise": (block_noise_model, ModelDims(p=40, n=80, T=200)),
        "equicorrelated": (lambda dims: equicorrelated_model(dims, rho=0.3), ModelDims(p=40, n=80, T=200)),
        "wide-signal": (block_noise_model, ModelDims(p=40, n=80, T=30)),
        "n-near-p": (block_noise_model, ModelDims(p=40, n=42, T=200)),
    }

    @pytest.mark.parametrize("shift", [None, 0.05], ids=["gated", "shift"])
    @pytest.mark.parametrize("dist", [GAUSSIAN, RADEMACHER], ids=lambda d: d.name)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_eigenvalue_rule(self, case, dist, shift):
        build, dims = self.CASES[case]
        model = build(dims)
        detector = DetectorConfig(shift=shift)
        threshold, gate = detector.levels(dims)
        assert (gate == threshold) == (shift is not None)
        for rep in range(self.REPS):
            rng = stream_generator(11, experiments._DETECT_STREAM, 0, rep)
            x, z = experiments._detection_records(rng, model, dist)
            expected = estimate_count(sampling._data_spectrum(x, z, dims), dims, detector)
            assert sampling._gram_count(x, z, dims, threshold, gate) == expected, rep

    def test_counts_above_the_threshold_and_gates_below(self):
        # S1 = diag(9, 4, 1) and S2 = I exactly, so the pencil's eigenvalues are 9, 4 and 1.
        x = np.zeros((3, 4))
        x[[0, 1, 2], [0, 1, 2]] = [6.0, 4.0, 2.0]
        z = np.zeros((3, 16))
        z[[0, 1, 2], [0, 1, 2]] = 4.0

        def count(threshold, gate):
            return sampling._gram_count(x, z, ModelDims(p=3, n=16, T=4), threshold, gate)

        assert [count(t, t) for t in (0.5, 1.5, 5.0, 10.0)] == [3, 2, 1, 0]
        assert count(0.5, 9.5) == 0
        assert count(0.5, 9.0) == 3  # 9 S2 - S1 is singular, not positive definite: l_1 clears g
        # On a tie the inertia counts l > t: 1, where the eigenvalue rule l >= t counts 2.
        assert count(4.0, 4.0) == 1

    def test_positive_inertia(self):
        # A zero diagonal forces a 2 x 2 Bunch-Kaufman block, with one eigenvalue of each sign.
        assert sampling._positive_inertia(np.array([[0.0, 1.0], [1.0, 0.0]])) == 1
        assert sampling._positive_inertia(np.zeros((3, 3))) == 0
        rng = ensure_generator(23)
        for size in (1, 2, 5, 40, 130):
            a = rng.standard_normal((size, size))
            a = a + a.T
            expected = int(np.count_nonzero(np.linalg.eigvalsh(a) > 0.0))
            assert sampling._positive_inertia(a.copy()) == expected, size

    @pytest.mark.parametrize("seed", range(5))
    def test_duplicated_noise_rows_raise(self, seed):
        # Binary entries give S2 a unit diagonal, and the first pivot is exactly 1, so a copy
        # of the first row cancels exactly in the Cholesky factorization.  Other copies can
        # leave a pivot at rounding level, which the pivot rule rejects (`TestPencil` in
        # test_sampling.py).
        rng = ensure_generator(seed)
        x, z = RADEMACHER.draw(rng, (10, 40)), RADEMACHER.draw(rng, (10, 30))
        z[1 + seed] = z[0]
        dims = ModelDims(p=10, n=30, T=40)
        with pytest.raises(NumericalError, match="noise covariance") as by_inertia:
            sampling._gram_count(x, z, dims, 1.0, 2.0)
        with pytest.raises(NumericalError) as by_spectrum:
            sampling._data_spectrum(x, z, dims)
        assert str(by_inertia.value) == str(by_spectrum.value)


class TestMapIndexed:
    class RecordingPool:
        """Stands in for ThreadPoolExecutor: records max_workers, runs inline."""

        sizes: list = []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    @pytest.fixture
    def pool(self, monkeypatch):
        monkeypatch.setattr(self.RecordingPool, "sizes", [])
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", self.RecordingPool)
        return self.RecordingPool

    @pytest.mark.parametrize("cores, count, workers", [(4, 10, 4), (16, 3, 3)])
    def test_caps_workers_at_cores_and_count(self, monkeypatch, pool, cores, count, workers):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
        squares = experiments._map_indexed(lambda i: i * i, count, 10**6)
        assert squares == [i * i for i in range(count)]
        assert pool.sizes == [workers]

    @pytest.mark.parametrize("cores", [1, None])
    def test_one_core_runs_inline(self, monkeypatch, pool, cores):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
        assert experiments._map_indexed(lambda i: -i, 5, 10**6) == [0, -1, -2, -3, -4]
        assert pool.sizes == []

    def test_thread_count_still_checked(self):
        for threads in (0, -1, 2.0, True):
            with pytest.raises(ParameterError, match="thread count"):
                experiments._map_indexed(lambda i: i, 3, threads)

    def test_blas_pinned_while_workers_run(self, monkeypatch):
        pinned = 1 if len(sampling._BLAS_CONTROLS) == 2 else None
        seen = []
        records = experiments._detection_records

        def recording(*args):
            seen.append(sampling._blas_threads())
            return records(*args)

        monkeypatch.setattr(experiments, "_detection_records", recording)
        run_detection_study(small_detection_config(replicates=4), threads=2)
        assert seen == [pinned] * 8


class TestStudiesPinBlas:
    """A study and a record model's whitening run their BLAS work on one thread, whatever the caller set."""

    @staticmethod
    def record_threads(monkeypatch, name):
        seen = []
        func = getattr(experiments, name)

        def recording(*args, **kwargs):
            seen.append(sampling._blas_threads())
            return func(*args, **kwargs)

        monkeypatch.setattr(experiments, name, recording)
        return seen

    def test_signal_model_whitens_on_one_thread(self, monkeypatch, two_blas_threads):
        # Building a model decomposes its noise covariance once, and the whitened mixing
        # depends on the BLAS thread count, so the decomposition runs pinned.
        seen = []
        for name in ("eigh", "eigvalsh"):
            func = getattr(np.linalg, name)

            def recording(*args, func=func, **kwargs):
                seen.append(sampling._blas_threads())
                return func(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        block_noise_model(LADDER[0])
        assert seen == [1]
        assert sampling._blas_threads() == 2

    def test_clt_study_draws_the_limit_on_one_thread(self, monkeypatch, two_blas_threads):
        seen = self.record_threads(monkeypatch, "sample_limit_batch")
        run_clt_study(small_clt_config(replicates=4))
        assert seen == [1]
        assert sampling._blas_threads() == 2


class TestFrequencyTable:
    def test_validates_column_sums(self):
        good = np.array([[0.5, 1.0], [0.5, 0.0]])
        FrequencyTable(("a", "b"), ("x", "y"), good)
        with pytest.raises(ParameterError):
            FrequencyTable(("a", "b"), ("x", "y"), np.array([[0.6, 1.0], [0.5, 0.0]]))
        with pytest.raises(ParameterError):
            FrequencyTable(("a", "b"), ("x", "y"), np.array([[1.5, 1.0], [-0.5, 0.0]]))
        with pytest.raises(ParameterError):
            FrequencyTable(("a", "b"), ("x",), good)

    def test_column_lookup(self):
        table = FrequencyTable(("a", "b"), ("x", "y"), np.array([[0.5, 1.0], [0.5, 0.0]]))
        np.testing.assert_array_equal(table.column("y"), [1.0, 0.0])
        with pytest.raises(ParameterError):
            table.column("z")


class TestKde1d:
    def test_recovers_standard_normal(self):
        rng = ensure_generator(101)
        draws = rng.standard_normal(100_000)
        grid = np.linspace(-3.0, 3.0, 121)
        est = kde_1d(draws, grid)
        ref = np.exp(-(grid**2) / 2.0) / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(est - ref)) < 0.01

    def test_bandwidth_formula(self):
        samples = np.array([0.0, 1.0, 2.0, 5.0])
        expected = 1.06 * samples.std(ddof=1) * 4.0 ** (-0.2)
        assert silverman_bandwidth(samples) == pytest.approx(expected, rel=1e-14)

    def test_integrates_to_one(self):
        rng = ensure_generator(5)
        draws = rng.standard_normal(2_000)
        grid = np.linspace(-6.0, 6.0, 601)
        est = kde_1d(draws, grid)
        assert np.trapezoid(est, grid) == pytest.approx(1.0, abs=1e-3)

    def test_rejects_degenerate_samples(self):
        grid = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(ParameterError):
            kde_1d(np.array([1.0]), grid)
        with pytest.raises(ParameterError):
            kde_1d(np.array([2.0, 2.0, 2.0]), grid)
        with pytest.raises(ParameterError, match="real vector"):
            kde_1d(["1", "2", "4"], grid)

    def test_rejects_bad_grids(self):
        for grid in (["0", "1"], [0.0, math.inf], [[0.0, 1.0]]):
            with pytest.raises(ParameterError, match="KDE grid"):
                kde_1d([1.0, 2.0, 4.0], grid)


class TestKde2d:
    def test_recovers_standard_normal_pair(self):
        rng = ensure_generator(303)
        draws = rng.standard_normal((100_000, 2))
        gx = np.linspace(-2.0, 2.0, 41)
        gy = np.linspace(-2.0, 2.0, 41)
        est = kde_2d(draws, gx, gy)
        ref = np.exp(-(gx[:, None] ** 2 + gy[None, :] ** 2) / 2.0) / (2.0 * math.pi)
        assert est.shape == (41, 41)
        assert np.max(np.abs(est - ref)) < 0.01

    def test_transpose_symmetry(self):
        rng = ensure_generator(6)
        draws = rng.standard_normal((500, 2)) @ np.array([[1.0, 0.3], [0.0, 0.9]])
        gx = np.linspace(-2.0, 2.0, 11)
        gy = np.linspace(-1.0, 1.5, 13)
        direct = kde_2d(draws, gx, gy)
        swapped = kde_2d(draws[:, ::-1], gy, gx)
        np.testing.assert_allclose(direct, swapped.T, rtol=1e-12, atol=1e-15)

    def test_rejects_degenerate_samples(self):
        gx = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(ParameterError):
            kde_2d(np.array([[1.0, 2.0]]), gx, gx)
        with pytest.raises(ParameterError):
            kde_2d(np.ones((10, 3)), gx, gx)
        flat = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.raises(ParameterError):
            kde_2d(flat, gx, gx)

    def test_rejects_bad_grids(self):
        sample = [[0, 1], [1, 0], [2, 2]]
        for grid_x, grid_y in (([np.nan], [0.0]), ([0.0], ["0"]), ([0.0], [[0.0]])):
            with pytest.raises(ParameterError, match="KDE grid"):
                kde_2d(sample, grid_x, grid_y)


class TestSummarize:
    def test_hand_example(self):
        stats = summarize(np.array([1.0, 1.0, 1.0, 3.0]))
        assert stats.mean == pytest.approx(1.5, rel=1e-15)
        assert stats.variance == pytest.approx(1.0, rel=1e-15)

    def test_ks_small_for_matching_reference(self):
        rng = ensure_generator(8)
        draws = 2.0 + 3.0 * rng.standard_normal(20_000)
        stats = summarize(draws, ref_mean=2.0, ref_var=9.0)
        assert stats.ks_distance < 0.02

    def test_ks_large_for_wrong_reference(self):
        rng = ensure_generator(8)
        draws = 2.0 + 3.0 * rng.standard_normal(20_000)
        stats = summarize(draws, ref_mean=0.0, ref_var=1.0)
        assert stats.ks_distance > 0.3

    def test_rejects_degenerate_input(self):
        with pytest.raises(ParameterError):
            summarize(np.array([]))
        with pytest.raises(ParameterError):
            summarize(np.array([1.0]))
        with pytest.raises(ParameterError):
            summarize(np.array([2.0, 2.0, 2.0]))  # zero default reference variance
        with pytest.raises(ParameterError):
            summarize(np.array([1.0, 2.0]), ref_var=-1.0)
        with pytest.raises(ParameterError, match="reference mean"):
            summarize([1.0, 2.0, 3.0], float("nan"), 1.0)
        with pytest.raises(ParameterError, match="reference variance"):
            summarize([1.0, 2.0, 3.0], 0.0, math.inf)
