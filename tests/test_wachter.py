"""Closed-form law against direct quadrature of the defining integrals."""

import math

import numpy as np
import pytest

from spikedfisher import (
    FisherParams,
    ParameterError,
    density,
    mass_at_zero,
    support_edges,
)
from oracles import companion_stieltjes, integrate_against_density, moment_values, stieltjes

REFERENCE = FisherParams(c=0.2, y=0.5)

# Mix of light and heavy ratios; all c <= 1 so the law has no atom.
CONTINUOUS_PAIRS = [
    (0.2, 0.5),
    (0.5, 0.5),
    (1.0, 0.3),
    (0.8, 0.2),
    (0.3, 0.7),
    (0.6, 0.9),
    (0.1, 0.1),
    (0.9, 0.6),
    (0.4, 0.35),
    (0.7, 0.8),
]
ATOM_PAIRS = [(1.5, 0.5), (2.0, 0.3), (4.0, 0.7)]


def full_law_moment(params, func):
    """Integral against the full law: continuous part plus the atom at 0."""
    return integrate_against_density(params, func) + mass_at_zero(params) * func(0.0)


def exterior_points(params):
    """Ten evaluation points off the support, both sides, atom excluded."""
    edges = support_edges(params)
    below = [-3.0, -0.51]
    if edges.lower > 1e-12:
        below += [0.35 * edges.lower, 0.8 * edges.lower]
    above = [
        1.02 * edges.upper,
        1.3 * edges.upper,
        2.0 * edges.upper,
        5.0 * edges.upper,
        30.0 * edges.upper,
        200.0 * edges.upper,
    ]
    # Keep clear of the removable singularity of the raw formula at -c/y.
    hole = -params.c / params.y
    return [z for z in below if abs(z - hole) > 0.05] + above


class TestParams:
    def test_rejects_bad_ratios(self):
        for c, y in [(0.0, 0.5), (-1.0, 0.5), (math.nan, 0.5), (0.2, 0.0), (0.2, 1.0), (0.2, 1.5), (0.2, -0.1)]:
            with pytest.raises(ParameterError):
                FisherParams(c=c, y=y)
        for c, y in [(True, 0.5), ("a", 0.5), (10**400, 0.5), (0.2, "a"), (0.2, None)]:
            with pytest.raises(ParameterError, match="must be a finite number"):
                FisherParams(c=c, y=y)

    def test_edge_root(self):
        assert REFERENCE.edge_root == pytest.approx(math.sqrt(0.2 + 0.5 - 0.1), rel=1e-15)


class TestSupport:
    def test_reference_edges(self):
        edges = support_edges(REFERENCE)
        assert edges.lower == pytest.approx(0.20322664606813293, rel=1e-12)
        assert edges.upper == pytest.approx(12.596773353931868, rel=1e-12)

    def test_lower_edge_collapses_at_c_one(self):
        edges = support_edges(FisherParams(c=1.0, y=0.4))
        assert edges.lower == 0.0
        assert edges.upper > 0.0

    def test_mass_at_zero(self):
        assert mass_at_zero(REFERENCE) == 0.0
        assert mass_at_zero(FisherParams(c=2.0, y=0.3)) == pytest.approx(0.5, rel=1e-15)


class TestDensity:
    @pytest.mark.parametrize("c,y", CONTINUOUS_PAIRS)
    def test_normalizes_to_one(self, c, y):
        params = FisherParams(c=c, y=y)
        total = integrate_against_density(params, lambda x: 1.0)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("c,y", ATOM_PAIRS)
    def test_continuous_mass_complements_atom(self, c, y):
        params = FisherParams(c=c, y=y)
        total = integrate_against_density(params, lambda x: 1.0)
        assert total == pytest.approx(1.0 / c, abs=1e-6)
        assert total + mass_at_zero(params) == pytest.approx(1.0, abs=1e-6)

    def test_zero_outside_support_exactly(self):
        edges = support_edges(REFERENCE)
        outside = [-1.0, 0.0, 0.5 * edges.lower, edges.lower, edges.upper, 1.5 * edges.upper]
        # At c = 1 the lower edge is exactly 0, the pole of the formula.
        cases = [(REFERENCE, x) for x in outside] + [(FisherParams(c=1.0, y=0.5), 0.0)]
        for params, x in cases:
            assert density(params, x) == 0.0

    def test_positive_inside(self):
        edges = support_edges(REFERENCE)
        grid = np.linspace(edges.lower, edges.upper, 257)[1:-1]
        assert np.all(density(REFERENCE, grid) > 0.0)

    def test_vectorized_shape_and_scalar(self):
        arr = density(REFERENCE, np.array([[1.0, 2.0], [50.0, -1.0]]))
        assert arr.shape == (2, 2)
        assert arr[1, 0] == 0.0 and arr[1, 1] == 0.0
        assert isinstance(density(REFERENCE, 1.0), float)

    def test_rejects_points_that_are_not_finite_reals(self):
        for points in (["1.0"], [True], [1.0, math.nan], 1j):
            with pytest.raises(ParameterError, match="density points"):
                density(REFERENCE, points)

    def test_atom_case_density_zero_between_origin_and_bulk(self):
        params = FisherParams(c=2.0, y=0.3)
        edges = support_edges(params)
        assert edges.lower > 0.0
        assert density(params, 0.5 * edges.lower) == 0.0


class TestStieltjes:
    @pytest.mark.parametrize("c,y", [(0.2, 0.5), (0.7, 0.8), (1.0, 0.3), (2.0, 0.3)])
    def test_matches_quadrature(self, c, y):
        params = FisherParams(c=c, y=y)
        for z in exterior_points(params):
            closed = stieltjes(params, z)
            quad = full_law_moment(params, lambda x, z=z: 1.0 / (x - z))
            assert closed == pytest.approx(quad, rel=1e-6), f"z={z}"

    def test_tail_decay(self):
        z = 1e8
        assert z * stieltjes(REFERENCE, z) == pytest.approx(-1.0, rel=1e-6)

    def test_domain_errors(self):
        edges = support_edges(REFERENCE)
        inside = [edges.lower, 0.5 * (edges.lower + edges.upper), edges.upper]
        for z in inside + [0.0, math.nan, math.inf]:
            with pytest.raises(ParameterError):
                stieltjes(REFERENCE, z)
            with pytest.raises(ParameterError):
                companion_stieltjes(REFERENCE, z)

    def test_rejects_exact_removable_singularity(self):
        # z = -c/y zeroes a denominator of both closed forms.
        for params in [REFERENCE, FisherParams(c=1.5, y=0.5)]:
            pole = -params.c / params.y
            with pytest.raises(ParameterError, match="removable"):
                stieltjes(params, pole)
            with pytest.raises(ParameterError, match="removable"):
                companion_stieltjes(params, pole)
            assert math.isfinite(stieltjes(params, pole - 0.1))


class TestCompanion:
    @pytest.mark.parametrize("c,y", [(0.2, 0.5), (0.7, 0.8), (2.0, 0.3)])
    def test_exact_relation_to_stieltjes(self, c, y):
        # companion(z) + (1 - c)/z = c s(z), exactly, on both sides of the bulk
        params = FisherParams(c=c, y=y)
        for z in exterior_points(params):
            lhs = companion_stieltjes(params, z) + (1.0 - c) / z
            rhs = c * stieltjes(params, z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), f"z={z}"

    @pytest.mark.parametrize("c,y", [(0.2, 0.5), (0.7, 0.8), (2.0, 0.3)])
    def test_satisfies_defining_quadratic(self, c, y):
        params = FisherParams(c=c, y=y)
        for z in exterior_points(params):
            m = companion_stieltjes(params, z)
            resid = (
                z * (c + z * y) * m * m
                + (c * (z * (1.0 - y) + 1.0 - c) + 2.0 * z * y) * m
                + (c + y - c * y)
            )
            scale = max(1.0, abs(z * (c + z * y) * m * m))
            assert abs(resid) <= 1e-10 * scale, f"z={z}"

    def test_matches_reweighted_quadrature(self):
        # companion is the transform of c * (continuous part) + (c - 1)^+ shifted
        # into the origin atom; equivalently c * s(z) - (1 - c)/z.
        for c, y in [(0.2, 0.5), (2.0, 0.3)]:
            params = FisherParams(c=c, y=y)
            z = 3.0 * support_edges(params).upper
            direct = c * full_law_moment(params, lambda x: 1.0 / (x - z)) - (1.0 - c) / z
            assert companion_stieltjes(params, z) == pytest.approx(direct, rel=1e-8)


SPIKE_VALUES = [20.0, 0.2, 0.1]


def phi_of(params, a):
    return a * (a + params.c - 1.0) / (a - 1.0 - a * params.y)


class TestMomentValues:
    @pytest.mark.parametrize("a", SPIKE_VALUES)
    def test_matches_quadrature_reference(self, a):
        lam = phi_of(REFERENCE, a)
        mv = moment_values(REFERENCE, a)
        pairs = [
            (mv.stieltjes, lambda x: 1.0 / (x - lam)),
            (mv.inv_gap_sq, lambda x: 1.0 / (lam - x) ** 2),
            (mv.x_gap, lambda x: x / (lam - x)),
            (mv.x_gap_sq, lambda x: x / (lam - x) ** 2),
            (mv.xx_gap_sq, lambda x: x * x / (lam - x) ** 2),
        ]
        for closed, func in pairs:
            assert closed == pytest.approx(full_law_moment(REFERENCE, func), rel=1e-8)

    def test_matches_quadrature_with_atom(self):
        params = FisherParams(c=2.0, y=0.3)
        a = 30.0
        lam = phi_of(params, a)
        mv = moment_values(params, a)
        assert mv.stieltjes == pytest.approx(
            full_law_moment(params, lambda x: 1.0 / (x - lam)), rel=1e-8
        )
        assert mv.inv_gap_sq == pytest.approx(
            full_law_moment(params, lambda x: 1.0 / (lam - x) ** 2), rel=1e-8
        )

    def test_hand_values_top_spike(self):
        mv = moment_values(REFERENCE, 20.0)
        # s = (a(y-1)+1) / ((a-1)(a+c-1)) = -9 / 364.8 and x_gap = 1/(a-1)
        assert mv.stieltjes == pytest.approx(-9.0 / 364.8, rel=1e-14)
        assert mv.x_gap == pytest.approx(1.0 / 19.0, rel=1e-14)

    def test_rejects_non_detached_spikes(self):
        for a in [1.0, 2.0, 0.4508066615170332, 3.549193338482967, 0.46, 3.5, 0.0, -1.0]:
            with pytest.raises(ParameterError):
                moment_values(REFERENCE, a)


class TestAuxiliaryTransformRoots:
    @pytest.mark.parametrize("a", SPIKE_VALUES)
    def test_inverse_outlier_solves_weighted_mp_quadratic(self, a):
        # At z = 1/phi(a) the value 1/(a + c - 1) must solve
        # (c + y - cy) m^2 - (1 - y - z + cz) m + z = 0 and coincide with one
        # of the two explicit radical roots (the sign depends on the regime).
        c, y = REFERENCE.c, REFERENCE.y
        z = 1.0 / phi_of(REFERENCE, a)
        target = 1.0 / (a + c - 1.0)
        w = c + y - c * y
        resid = w * target * target - (1.0 - y - z + c * z) * target + z
        assert abs(resid) <= 1e-8 * max(1.0, abs(w * target * target))
        disc = (1.0 - y - z + z * c) ** 2 + 4.0 * z * (y * c - y - c)
        assert disc >= 0.0
        roots = [
            (-1.0 + y + z - z * c + s * math.sqrt(disc)) / (2.0 * (y * c - y - c))
            for s in (+1.0, -1.0)
        ]
        assert min(abs(r - target) for r in roots) <= 1e-8
