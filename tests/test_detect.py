"""Signal counting: threshold rule, effective spikes, benchmark models."""

import json
import math

import numpy as np
import pytest

from spikedfisher import (
    DetectorConfig,
    FisherParams,
    ModelDims,
    NumericalError,
    ParameterError,
    SignalModel,
    block_noise_model,
    critical_interval,
    detect,
    ensure_generator,
    equicorrelated_model,
    estimate_count,
    null_model,
    records_spectrum,
    standard_mixing,
    support_edges,
)
from oracles import detectability, effective_spikes
from spikedfisher.cli import main as cli_main


class TestSignalModel:
    DIMS = ModelDims(p=6, n=20, T=30)

    def test_valid_model(self):
        model = SignalModel(
            mixing=np.ones((6, 2)), noise_cov=np.eye(6), dims=self.DIMS
        )
        assert model.num_signals == 2
        assert not model.mixing.flags.writeable

    def test_rejects_bad_shapes(self):
        with pytest.raises(ParameterError):
            SignalModel(mixing=np.ones((5, 2)), noise_cov=np.eye(6), dims=self.DIMS)
        with pytest.raises(ParameterError):
            SignalModel(mixing=np.ones((6, 2)), noise_cov=np.eye(5), dims=self.DIMS)
        with pytest.raises(ParameterError):
            SignalModel(mixing=np.ones((6, 7)), noise_cov=np.eye(6), dims=self.DIMS)

    def test_rejects_bad_noise_cov(self):
        asym = np.eye(6)
        asym[0, 1] = 0.5
        with pytest.raises(ParameterError):
            SignalModel(mixing=np.ones((6, 1)), noise_cov=asym, dims=self.DIMS)
        # Their difference would overflow: rejected as asymmetric, with no numpy warning.
        asym[0, 1], asym[1, 0] = 1e308, -1e308
        with pytest.raises(ParameterError, match="symmetric"):
            SignalModel(mixing=np.ones((6, 1)), noise_cov=asym, dims=self.DIMS)
        indef = np.eye(6)
        indef[5, 5] = -1.0
        with pytest.raises(ParameterError):
            SignalModel(mixing=np.ones((6, 1)), noise_cov=indef, dims=self.DIMS)

    def test_whitening_overflow_raises(self):
        with pytest.raises(NumericalError, match="whitened mixing"):
            SignalModel(mixing=1e200 * np.eye(6, 1), noise_cov=1e-300 * np.eye(6), dims=self.DIMS)


class TestDetectorConfig:
    def test_default_shift_reference_value(self):
        config = DetectorConfig()
        assert config.offset(250) == pytest.approx(
            math.log(math.log(250.0)) / 250.0 ** (2.0 / 3.0), rel=1e-15
        )
        assert config.offset(250) == pytest.approx(0.0430550926544359, rel=1e-12)

    def test_default_shift_needs_p_at_least_three(self):
        with pytest.raises(ParameterError):
            DetectorConfig().offset(2)

    def test_shift_vanishes_with_dimension(self):
        config = DetectorConfig()
        offsets = [config.offset(p) for p in (50, 100, 150, 200, 250)]
        assert all(b < a for a, b in zip(offsets, offsets[1:]))

    def test_explicit_shift(self):
        assert DetectorConfig(shift=0.25).offset(10) == 0.25
        with pytest.raises(ParameterError):
            DetectorConfig(shift=0.0)
        with pytest.raises(ParameterError):
            DetectorConfig(shift=-1.0)


class TestEstimateCount:
    @staticmethod
    def dims(p):
        """Dimensions with the ratios (p/T, p/n) = (0.2, 0.5) exactly."""
        return ModelDims(p=p, n=2 * p, T=5 * p)

    def test_counts_above_shifted_edge(self):
        upper = support_edges(FisherParams(c=0.2, y=0.5)).upper
        config = DetectorConfig(shift=0.5)
        vals = np.array([40.0, upper + 0.6, upper + 0.5, upper + 0.4, 5.0, 1.0])
        assert estimate_count(vals, self.dims(6), config) == 3

    def test_monotone_in_shift(self):
        rng = ensure_generator(9)
        vals = np.sort(rng.uniform(0.0, 20.0, size=60))[::-1]
        counts = [
            estimate_count(vals, self.dims(60), DetectorConfig(shift=s))
            for s in (0.01, 0.1, 1.0, 5.0)
        ]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_rejects_unsorted(self):
        with pytest.raises(ParameterError):
            estimate_count(np.array([1.0, 2.0, 0.5]), self.dims(3))

    def test_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            estimate_count(np.zeros((2, 2)), self.dims(2))
        with pytest.raises(ParameterError):
            estimate_count(np.array([]), self.dims(2))
        with pytest.raises(ParameterError):
            estimate_count(np.array([np.nan, 1.0]), self.dims(2))
        with pytest.raises(ParameterError, match="real vector"):
            estimate_count(["30", "2"], self.dims(2))
        # A partial spectrum: the top 10 of 200 eigenvalues.
        with pytest.raises(ParameterError, match="dims.p=200 eigenvalues, got 10"):
            estimate_count(np.linspace(20.0, 0.5, 200)[:10], self.dims(200))


class TestGate:
    """The default rule counts above b + d_n only when l_1 clears the gate."""

    DIMS = ModelDims(p=200, n=400, T=1000)

    @staticmethod
    def johnstone_gate(p, n, t_len):
        # Johnstone (2008): logit of the largest root of (A + B)^{-1} A with
        # A ~ W_p(I, T), B ~ W_p(I, n); 0.9793 is the TW1 95% quantile.
        big_n = n + t_len - 1
        gamma = 2.0 * math.asin(math.sqrt((min(p, t_len) - 0.5) / big_n))
        phi = 2.0 * math.asin(math.sqrt((max(p, t_len) - 0.5) / big_n))
        mu = 2.0 * math.log(math.tan((phi + gamma) / 2.0))
        sigma3 = 16.0 / (
            big_n**2 * math.sin(phi + gamma) ** 2 * math.sin(phi) * math.sin(gamma)
        )
        return n / t_len * math.exp(mu + 0.9793 * sigma3 ** (1.0 / 3.0))

    def test_gate_reference_value(self):
        params = self.DIMS.fisher_params()
        threshold, gate = DetectorConfig().levels(self.DIMS)
        assert gate == pytest.approx(self.johnstone_gate(200, 400, 1000), rel=1e-12)
        assert gate == pytest.approx(13.168762902155, rel=1e-12)
        assert threshold == pytest.approx(
            support_edges(params).upper + DetectorConfig().offset(200), rel=1e-15
        )

    def test_gate_not_below_threshold(self):
        for p, n, t_len in ((3, 6, 15), (50, 100, 250), (200, 400, 1000),
                            (20, 200, 10), (1000, 2000, 5000)):
            threshold, gate = DetectorConfig().levels(ModelDims(p=p, n=n, T=t_len))
            assert gate >= threshold

    def test_gate_reads_the_integer_dims(self):
        # n = p/y and T = p/c rebuilt from the ratios are off by an ulp here.
        assert DetectorConfig().levels(ModelDims(11, 15, 40))[1] == self.johnstone_gate(11, 15, 40)

    def test_explicit_shift_turns_gate_off(self):
        params = self.DIMS.fisher_params()
        config = DetectorConfig(shift=0.05)
        threshold, gate = config.levels(self.DIMS)
        assert gate == threshold
        assert threshold == support_edges(params).upper + 0.05
        vals = np.linspace(13.0, 0.5, self.DIMS.p)
        assert estimate_count(vals, self.DIMS, config) == int(np.sum(vals >= threshold))
        assert estimate_count(vals, self.DIMS, config) > 0

    def test_top_eigenvalue_below_gate_counts_zero(self):
        threshold, gate = DetectorConfig().levels(self.DIMS)
        tail = np.linspace(threshold - 0.01, 0.3, self.DIMS.p - 3)
        for top in (threshold + 2e-3, (threshold + gate) / 2.0, np.nextafter(gate, 0.0)):
            vals = np.concatenate([[top, threshold + 1e-3, threshold], tail])
            assert estimate_count(vals, self.DIMS) == 0

    def test_top_eigenvalue_at_gate_gives_paper_count(self):
        threshold, gate = DetectorConfig().levels(self.DIMS)
        paper = DetectorConfig(shift=DetectorConfig().offset(self.DIMS.p))
        tail = np.linspace(threshold - 0.01, 0.3, self.DIMS.p - 3)
        for top in (gate, gate + 0.5, 40.0):
            vals = np.concatenate([[top, threshold + 1e-3, threshold], tail])
            assert estimate_count(vals, self.DIMS) == 3
            assert estimate_count(vals, self.DIMS, paper) == 3


    def test_cli_reports_gate(self, tmp_path, capsys):
        rng = ensure_generator(35)
        p, n, t_len = 40, 80, 200
        np.save(tmp_path / "x.npy", rng.standard_normal((p, t_len)))
        np.save(tmp_path / "z.npy", rng.standard_normal((p, n)))
        argv = ["detect", "--signal", str(tmp_path / "x.npy"), "--noise", str(tmp_path / "z.npy")]
        assert cli_main(argv) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["gate"] == DetectorConfig().levels(ModelDims(p, n, t_len))[1]
        assert result["gate"] >= result["threshold"]
        assert cli_main([*argv, "--dn-override", "0.5"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["gate"] == result["threshold"]


class TestDetect:
    def test_planted_signal_found(self):
        rng = ensure_generator(31)
        p, n, t_len = 80, 200, 320
        mixing = np.zeros((p, 1))
        mixing[0, 0] = math.sqrt(50.0)
        x = mixing @ rng.standard_normal((1, t_len)) + rng.standard_normal((p, t_len))
        z = rng.standard_normal((p, n))
        assert detect(x, z) == 1

    def test_null_counts_zero(self):
        rng = ensure_generator(32)
        p, n, t_len = 80, 200, 320
        x = rng.standard_normal((p, t_len))
        z = rng.standard_normal((p, n))
        assert detect(x, z) == 0

    def test_centering_removes_mean_shift(self):
        rng = ensure_generator(33)
        p, n, t_len = 60, 150, 240
        x = rng.standard_normal((p, t_len)) + 5.0
        z = rng.standard_normal((p, n)) + 5.0
        uncentered = detect(x, z)
        centered = detect(x, z, center=True)
        assert centered == 0
        assert uncentered >= centered

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            detect(np.zeros((5, 10)), np.zeros((6, 12)))
        with pytest.raises(ParameterError):
            detect(np.zeros((5, 10)), np.zeros((5, 4)))
        with pytest.raises(ParameterError):
            detect(np.zeros(5), np.zeros((5, 12)))

    @pytest.mark.parametrize(
        "recast",
        [lambda x: x + 1j, lambda x: x.astype(str), lambda x: x > 0.0, lambda x: x * np.nan],
        ids=["complex", "string", "bool", "nan"],
    )
    def test_rejects_records_that_are_not_finite_reals(self, recast):
        rng = ensure_generator(35)
        x, z = rng.standard_normal((10, 40)), rng.standard_normal((10, 25))
        with pytest.raises(ParameterError, match="signal records"):
            detect(recast(x), z)
        with pytest.raises(ParameterError, match="noise records"):
            detect(x, recast(z))

    def test_records_spectrum_params(self):
        rng = ensure_generator(34)
        x = rng.standard_normal((10, 40))
        z = rng.standard_normal((10, 25))
        vals, dims = records_spectrum(x, z)
        assert vals.shape == (10,)
        assert dims == ModelDims(p=10, n=25, T=40)

    @pytest.mark.parametrize("p, n, t_len", [(6, 15, 25), (6, 15, 4)])
    def test_centering_is_a_helmert_rotation(self, p, n, t_len):
        # Centering multiplies the records on the right by H^T H, where the (T - 1) x T
        # Helmert matrix H has orthonormal rows orthogonal to the ones vector.
        from scipy.linalg import helmert

        rng = ensure_generator(36)
        x = rng.standard_normal((p, t_len)) + 2.0
        z = rng.standard_normal((p, n)) - 1.0
        centered, dims = records_spectrum(x, z, center=True)
        rotated, rotated_dims = records_spectrum(x @ helmert(t_len).T, z @ helmert(n).T)
        assert dims == rotated_dims == ModelDims(p=p, n=n - 1, T=t_len - 1)
        np.testing.assert_allclose(centered, rotated, rtol=1e-10, atol=0.0)

    def test_centered_null_size(self):
        # Gaussian null records around a mean of 3.  Scored at (p, n, T) the size was 0.106
        # (SE 0.002, 20,000 replicates); at the centered dims it is near 0.05.
        rng = ensure_generator(2026)
        reps = 3000
        alarms = sum(
            detect(rng.standard_normal((10, 25)) + 3.0, rng.standard_normal((10, 15)) + 3.0, center=True) > 0
            for _ in range(reps)
        )
        assert 0.025 < alarms / reps < 0.07

    def test_centering_needs_the_degrees_of_freedom(self):
        rng = ensure_generator(37)
        with pytest.raises(ParameterError, match="degrees of freedom.*p < n"):
            records_spectrum(rng.standard_normal((5, 10)), rng.standard_normal((5, 6)), center=True)
        with pytest.raises(ParameterError, match="degrees of freedom.*dimension T"):
            records_spectrum(rng.standard_normal((5, 1)), rng.standard_normal((5, 12)), center=True)

    def test_rank_deficient_signal_gives_exact_zeros(self):
        rng = ensure_generator(38)
        vals, _ = records_spectrum(rng.standard_normal((20, 8)), rng.standard_normal((20, 50)))
        assert np.all(vals[:8] > 0.0)
        assert np.all(vals[8:] == 0.0)


class TestEffectiveSpikes:
    def test_block_noise_reference(self):
        model = block_noise_model(ModelDims(p=200, n=400, T=1000))
        np.testing.assert_allclose(
            effective_spikes(model), [10.0, 5.0, 5.0], rtol=1e-10
        )

    def test_equicorrelated_reference(self):
        model = equicorrelated_model(ModelDims(p=250, n=500, T=1250))
        np.testing.assert_allclose(
            effective_spikes(model), [11.0685, 5.5556, 5.5123], rtol=1e-4
        )

    def test_equicorrelated_grows_with_dimension(self):
        tops = []
        for p in (50, 100, 150, 200, 250):
            model = equicorrelated_model(ModelDims(p=p, n=2 * p, T=5 * p))
            spikes = effective_spikes(model)
            assert np.all(spikes > 5.0)
            tops.append(spikes[0])
        assert all(b > a for a, b in zip(tops, tops[1:]))

    def test_null_model_empty(self):
        model = null_model(ModelDims(p=10, n=30, T=40))
        assert effective_spikes(model).size == 0

    def test_rank_deficient_mixing_warns(self):
        dims = ModelDims(p=6, n=20, T=30)
        mixing = np.zeros((6, 2))
        mixing[0, 0] = 1.0
        mixing[0, 1] = 1.0  # duplicate direction: rank 1
        model = SignalModel(mixing=mixing, noise_cov=np.eye(6), dims=dims)
        with pytest.warns(UserWarning, match="rank"):
            spikes = effective_spikes(model)
        assert spikes.size == 2
        assert spikes[1] == pytest.approx(0.0, abs=1e-10)


class TestDetectability:
    def test_benchmark_all_three_detectable(self):
        dims = ModelDims(p=50, n=100, T=250)
        params = dims.fisher_params()
        _, high = critical_interval(params)
        assert high == pytest.approx(3.549193338482967, rel=1e-12)
        assert detectability(block_noise_model(dims), params) == 3
        assert detectability(equicorrelated_model(dims), params) == 3

    def test_weak_signal_not_detectable(self):
        dims = ModelDims(p=50, n=100, T=250)
        params = dims.fisher_params()
        mixing = np.zeros((50, 2))
        mixing[0, 0] = math.sqrt(5.0)   # effective spike 5 + 1 > 3.55: detectable
        mixing[1, 1] = math.sqrt(0.5)   # effective spike 0.5 + 1 < 3.55: hidden
        model = SignalModel(mixing=mixing, noise_cov=np.eye(50), dims=dims)
        assert detectability(model, params) == 1


class TestBuilders:
    def test_standard_mixing_geometry(self):
        mixing = standard_mixing(10)
        gram = mixing.T @ mixing
        np.testing.assert_allclose(gram, np.diag([10.0, 5.0, 5.0]), atol=1e-12)

    def test_standard_mixing_needs_three_rows(self):
        with pytest.raises(ParameterError):
            standard_mixing(2)

    def test_block_noise_needs_even_p(self):
        with pytest.raises(ParameterError):
            block_noise_model(ModelDims(p=51, n=110, T=260))

    def test_block_noise_covariance(self):
        model = block_noise_model(ModelDims(p=8, n=20, T=30))
        np.testing.assert_array_equal(
            np.diag(model.noise_cov), [1, 1, 1, 1, 2, 2, 2, 2]
        )

    def test_equicorrelated_bounds(self):
        dims = ModelDims(p=10, n=30, T=40)
        with pytest.raises(ParameterError):
            equicorrelated_model(dims, rho=1.0)
        with pytest.raises(ParameterError):
            equicorrelated_model(dims, rho=-0.2)

    def test_null_model(self):
        model = null_model(ModelDims(p=10, n=30, T=40))
        assert model.num_signals == 0
        np.testing.assert_array_equal(model.noise_cov, np.eye(10))
