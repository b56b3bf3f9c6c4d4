"""Transition map, CLT constants, and the limit-law sampler."""

import math
import re

import numpy as np
import pytest

from spikedfisher import (
    FisherParams,
    NumericalError,
    ParameterError,
    SpikeSpec,
    clt_constants,
    critical_interval,
    moment_values,
    phi,
    phi_small_y_reduction,
    sample_limit_batch,
    spike_limit,
    support_edges,
)

REFERENCE = FisherParams(c=0.2, y=0.5)


class TestSpikeSpec:
    def test_reference_spec(self):
        spec = SpikeSpec(spikes=((20.0, 1), (0.2, 2), (0.1, 1)))
        assert spec.values == (20.0, 0.2, 0.1)
        assert spec.multiplicities == (1, 2, 1)
        assert spec.rank == 4
        assert spec.basis_or_identity().shape == (4, 4)
        assert spec.block_columns(1).shape == (4, 2)
        np.testing.assert_array_equal(
            spec.block_columns(2)[:, 0], np.array([0.0, 0.0, 0.0, 1.0])
        )

    def test_empty_spec_is_the_null_model(self):
        spec = SpikeSpec()
        assert spec.rank == 0
        assert spec.packet_indices(10) == ()

    @pytest.mark.parametrize(
        "spikes",
        [
            ((0.2, 1), (20.0, 1)),        # sub-unit before super-unit
            ((5.0, 1), (20.0, 1)),        # super-unit group not descending
            ((20.0, 1), (0.1, 1), (0.2, 1)),  # sub-unit group not descending
            ((20.0, 1), (20.0, 2)),       # duplicate value
            ((1.0, 1),),                  # the baseline is not a spike
            ((-2.0, 1),),
            ((0.0, 1),),
            ((2.0, 0),),                  # empty block
        ],
    )
    def test_rejects_bad_spikes(self, spikes):
        with pytest.raises(ParameterError):
            SpikeSpec(spikes=spikes)

    def test_rejects_bad_basis(self):
        with pytest.raises(ParameterError):
            SpikeSpec(spikes=((2.0, 1),), basis=np.eye(2))
        skewed = np.array([[1.0, 0.1], [0.0, 1.0]])
        with pytest.raises(ParameterError):
            SpikeSpec(spikes=((2.0, 1), (0.5, 1)), basis=skewed)

    def test_accepts_rotation_basis(self):
        angle = 0.3
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        spec = SpikeSpec(spikes=((2.0, 1), (0.5, 1)), basis=rot)
        assert not spec.basis.flags.writeable

    def test_packet_layout_reference(self):
        spec = SpikeSpec(spikes=((20.0, 1), (0.2, 2), (0.1, 1)))
        packets = spec.packet_indices(200)
        assert [list(p) for p in packets] == [[0], [197, 198], [199]]

    def test_packet_layout_only_super(self):
        spec = SpikeSpec(spikes=((8.0, 2), (5.0, 3)))
        packets = spec.packet_indices(50)
        assert [list(p) for p in packets] == [[0, 1], [2, 3, 4]]

    def test_packet_layout_only_sub(self):
        # Smaller sub-unit spikes sink lower: 0.2 takes the bottom two ranks.
        spec = SpikeSpec(spikes=((0.5, 1), (0.2, 2)))
        packets = spec.packet_indices(10)
        assert [list(p) for p in packets] == [[7], [8, 9]]

    def test_packet_rank_exceeds_dimension(self):
        spec = SpikeSpec(spikes=((8.0, 2), (5.0, 3)))
        with pytest.raises(ParameterError):
            spec.packet_indices(4)


class TestTransitionMap:
    def test_critical_interval_reference(self):
        low, high = critical_interval(REFERENCE)
        assert low == pytest.approx(0.4508066615170332, rel=1e-12)
        assert high == pytest.approx(3.549193338482967, rel=1e-12)

    def test_phi_reference_values(self):
        assert phi(REFERENCE, 20.0) == pytest.approx(128.0 / 3.0, rel=1e-14)
        assert phi(REFERENCE, 0.2) == pytest.approx(2.0 / 15.0, rel=1e-14)
        assert phi(REFERENCE, 0.1) == pytest.approx(0.07 / 0.95, rel=1e-14)

    def test_phi_pole(self):
        # pole at 1/(1 - y) = 2 for y = 0.5
        with pytest.raises(ParameterError):
            phi(REFERENCE, 2.0)
        with pytest.raises(ParameterError):
            phi(REFERENCE, math.inf)

    def test_phi_monotone_outside_critical_interval(self):
        low, high = critical_interval(REFERENCE)
        sub = np.linspace(0.02, low * 0.999, 20)
        sup = np.linspace(high * 1.001, high * 40.0, 20)
        for grid in (sub, sup):
            vals = [phi(REFERENCE, a) for a in grid]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_phi_meets_edges_at_critical_boundary(self):
        low, high = critical_interval(REFERENCE)
        edges = support_edges(REFERENCE)
        assert phi(REFERENCE, low) == pytest.approx(edges.lower, abs=1e-9)
        assert phi(REFERENCE, high) == pytest.approx(edges.upper, abs=1e-9)

    def test_spike_limit_branches(self):
        low, high = critical_interval(REFERENCE)
        edges = support_edges(REFERENCE)
        assert spike_limit(REFERENCE, 20.0) == phi(REFERENCE, 20.0)
        assert spike_limit(REFERENCE, 0.2) == phi(REFERENCE, 0.2)
        assert spike_limit(REFERENCE, 2.5) == edges.upper
        assert spike_limit(REFERENCE, 0.6) == edges.lower
        assert spike_limit(REFERENCE, high) == edges.upper
        assert spike_limit(REFERENCE, low) == edges.lower

    def test_spike_limit_rejects_non_spikes(self):
        for a in [1.0, 0.0, -3.0, math.nan]:
            with pytest.raises(ParameterError):
                spike_limit(REFERENCE, a)

    def test_small_y_reduction(self):
        nearly_flat = FisherParams(c=0.3, y=1e-9)
        for x in [5.0, 2.0, 0.3]:
            assert phi(nearly_flat, x) == pytest.approx(
                phi_small_y_reduction(0.3, x), rel=1e-6
            )

    def test_small_y_reduction_validation(self):
        with pytest.raises(ParameterError):
            phi_small_y_reduction(0.3, 1.0)
        with pytest.raises(ParameterError):
            phi_small_y_reduction(-0.3, 2.0)


class TestCLTConstants:
    def test_top_spike_constants(self):
        consts = clt_constants(REFERENCE, 20.0)
        assert consts.lam == pytest.approx(128.0 / 3.0, rel=1e-12)
        assert consts.delta == pytest.approx(0.5090337784760408, rel=1e-12)
        assert consts.theta == pytest.approx(550.2089552238805, rel=1e-12)
        assert consts.omega == pytest.approx(285.92576177285315, rel=1e-12)
        assert consts.sigma_sq == pytest.approx(4246.825788751715, rel=1e-12)
        assert clt_constants(REFERENCE, 20.0, 1.0).sigma_sq == pytest.approx(
            2039.8880658436212, rel=1e-12
        )

    def test_middle_spike_constants(self):
        consts = clt_constants(REFERENCE, 0.2)
        assert consts.delta == pytest.approx(0.486 / 0.336, rel=1e-12)
        assert consts.theta == pytest.approx(0.00864 / 0.42, rel=1e-12)
        assert consts.omega == pytest.approx(0.01575, rel=1e-12)

    def test_bottom_spike_variances(self):
        assert clt_constants(REFERENCE, 0.1).sigma_sq == pytest.approx(
            0.00721983, rel=1e-5
        )
        assert clt_constants(REFERENCE, 0.1, 1.0).sigma_sq == pytest.approx(
            0.000928477, rel=1e-5
        )

    @pytest.mark.parametrize("a", [20.0, 0.2, 0.1, 5.0])
    @pytest.mark.parametrize("v4", [3.0, 1.0, 4.5])
    def test_sigma_sq_polynomial_identity(self, a, v4):
        # Independent closed form: sigma_sq equals
        # [2 a^2 (cy - c - y)(a - 1)^2 D + (v4 - 3) a^2 (c + y) D^2] / (1 + a(y-1))^4
        c, y = REFERENCE.c, REFERENCE.y
        dd = a * a * (y - 1.0) + 2.0 * a + c - 1.0
        quartic = (1.0 + a * (y - 1.0)) ** 4
        direct = (
            2.0 * a * a * (c * y - c - y) * (a - 1.0) ** 2 * dd
            + (v4 - 3.0) * a * a * (c + y) * dd * dd
        ) / quartic
        consts = clt_constants(REFERENCE, a, v4)
        assert consts.sigma_sq == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("a", [20.0, 0.2, 0.1])
    def test_delta_matches_moment_identity(self, a):
        # delta = 1 + 2 y lam s(lam) + y lam^2 s'(lam) + a c int x/(lam-x)^2 dF
        consts = clt_constants(REFERENCE, a)
        mv = moment_values(REFERENCE, a)
        lam, y, c = consts.lam, REFERENCE.y, REFERENCE.c
        identity = (
            1.0
            + 2.0 * y * lam * mv.stieltjes
            + y * lam * lam * mv.inv_gap_sq
            + a * c * mv.x_gap_sq
        )
        assert consts.delta == pytest.approx(identity, rel=1e-10)

    def test_rejects_critical_and_boundary_spikes(self):
        low, high = critical_interval(REFERENCE)
        for a in [1.5, low, high, 1.0, 0.0]:
            with pytest.raises(ParameterError):
                clt_constants(REFERENCE, a)

    def test_rejects_sub_unit_fourth_moment(self):
        with pytest.raises(ParameterError):
            clt_constants(REFERENCE, 20.0, 0.5)

    @pytest.mark.parametrize("a", [1e80, 1e160])
    def test_overflow_names_the_spike(self, a):
        # 1e80 overflows silently to inf, 1e160 raises inside a power.
        with pytest.raises(NumericalError, match=re.escape(f"spike value {a!r} is too large")):
            clt_constants(REFERENCE, a)
        assert math.isfinite(clt_constants(REFERENCE, 1e40).sigma_sq)

    def test_projection_variance_coordinate_matches_sigma_sq(self):
        direction = np.array([0.0, 1.0, 0.0])
        for v4 in (3.0, 1.0):
            consts = clt_constants(REFERENCE, 20.0, v4)
            assert consts.projection_variance(direction) == pytest.approx(consts.sigma_sq, rel=1e-12)

    def test_projection_variance_requires_unit_vector(self):
        with pytest.raises(ParameterError):
            clt_constants(REFERENCE, 20.0).projection_variance(np.array([1.0, 1.0]))


class TestLimitSampler:
    SPEC = SpikeSpec(spikes=((20.0, 1), (0.2, 2), (0.1, 1)))

    def test_shapes_and_order(self):
        blocks = sample_limit_batch(7, REFERENCE, self.SPEC, size=11)
        assert [b.shape for b in blocks] == [(11, 1), (11, 2), (11, 1)]
        assert np.all(blocks[1][:, 0] >= blocks[1][:, 1])

    def test_determinism(self):
        one = sample_limit_batch(42, REFERENCE, self.SPEC, size=6)
        two = sample_limit_batch(42, REFERENCE, self.SPEC, size=6)
        for a, b in zip(one, two):
            np.testing.assert_array_equal(a, b)

    def test_empty_spec(self):
        assert sample_limit_batch(1, REFERENCE, SpikeSpec(), size=3) == []

    @staticmethod
    def replay(seed, spec, v4, size):
        """The limit draws, with each R drawn as a stand-alone matrix sampler would.

        Per spike: a fresh symmetric R with diagonal variance
        2 theta + (v4 - 3) omega and off-diagonal variance theta, diagonal
        drawn first, then the upper triangle row by row; then -U^T R U / delta.
        """
        rng = np.random.default_rng(seed)
        m = spec.rank
        out = []
        for i, (value, mult) in enumerate(spec.spikes):
            consts = clt_constants(REFERENCE, value, v4)
            diag_var = 2.0 * consts.theta + (v4 - 3.0) * consts.omega
            r = np.zeros((size, m, m))
            r[:, np.arange(m), np.arange(m)] = rng.normal(0.0, math.sqrt(diag_var), (size, m))
            if m > 1:
                rows, cols = np.triu_indices(m, k=1)
                upper = rng.normal(0.0, math.sqrt(consts.theta), (size, rows.size))
                r[:, rows, cols] = upper
                r[:, cols, rows] = upper
            u = spec.block_columns(i)
            projected = -np.einsum("mj,smn,nk->sjk", u, r, u, optimize=True) / consts.delta
            out.append(projected[:, :1, 0] if mult == 1 else np.linalg.eigvalsh(projected)[:, ::-1])
        return out

    @pytest.mark.parametrize("v4", [3.0, 1.0])
    @pytest.mark.parametrize("basis", ["identity", "rotated", "rank-one"])
    def test_replays_fluctuation_matrices(self, basis, v4):
        spec = {
            "identity": self.SPEC,
            "rotated": SpikeSpec(
                self.SPEC.spikes, np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))[0]
            ),
            "rank-one": SpikeSpec(((0.1, 1),)),
        }[basis]
        drawn = sample_limit_batch(np.random.default_rng(31), REFERENCE, spec, v4, size=7)
        expected = self.replay(31, spec, v4, 7)
        assert len(drawn) == len(expected) == len(spec.spikes)
        for got, want in zip(drawn, expected):
            np.testing.assert_array_equal(got, want)

    def test_rotation_of_simple_block_changes_nothing_statistically(self):
        # v4 = 3 kills the quartic term, so any orthonormal basis must give
        # the same projection variance sigma_sq for a simple spike.
        angle = 0.7
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        spec = SpikeSpec(spikes=((20.0, 1), (0.2, 1)), basis=rot)
        blocks = sample_limit_batch(3, REFERENCE, spec, size=400_000)
        target = clt_constants(REFERENCE, 20.0).sigma_sq
        assert blocks[0][:, 0].var() == pytest.approx(target, rel=0.02)

    @pytest.mark.parametrize("v4", [3.0, 1.0])
    def test_projection_variance_over_a_million_draws(self, v4):
        # The scalar block of a simple spike with a general unit vector has
        # variance (2 theta + (v4 - 3) omega sum u^4) / delta^2; the MC
        # variance over 1e6 draws must land within 1%.
        angle = 0.7
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        spec = SpikeSpec(spikes=((20.0, 1), (0.2, 1)), basis=rot)
        rng = np.random.default_rng(2024)
        chunks = []
        for _ in range(5):
            blocks = sample_limit_batch(rng, REFERENCE, spec, v4, size=200_000)
            chunks.append(np.hstack([blocks[0], blocks[1]]))
        draws = np.vstack(chunks)
        assert draws.shape == (1_000_000, 2)
        for j, (value, _) in enumerate(spec.spikes):
            direction = spec.block_columns(j)[:, 0]
            target = clt_constants(REFERENCE, value, v4).projection_variance(direction)
            assert draws[:, j].var() == pytest.approx(target, rel=0.01)
