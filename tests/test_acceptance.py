"""Acceptance suite: one check per release criterion.

Each test prints the quantities it measured, so a verbose run doubles as a
numerical report.  The Monte Carlo fixtures pin master seeds; every gate
below passes deterministically at those seeds.  The null-size check
(test 10) holds the default detector, the paper's count behind a
Tracy-Widom gate on the top eigenvalue, to a 5 percent false-alarm rate;
the size analysis is in docs/decisions.md.
Full-suite runtime is a few minutes, dominated by the detection ladders.
"""

import json
import math

import numpy as np
import pytest

from spikedfisher import (
    GAUSSIAN,
    RADEMACHER,
    CltConfig,
    DetectionConfig,
    DetectorConfig,
    FisherParams,
    ModelDims,
    SpikeSpec,
    block_noise_model,
    clt_constants,
    critical_interval,
    ensure_generator,
    equicorrelated_model,
    integrate_against_density,
    mass_at_zero,
    moment_values,
    null_model,
    phi,
    run_clt_study,
    run_detection_study,
    sample_limit_batch,
    sample_spectrum,
    stieltjes,
    companion_stieltjes,
    stream_generator,
    summarize,
    support_edges,
)
from spikedfisher.cli import main as cli_main

SEED = 20260822
REFERENCE = FisherParams(c=0.2, y=0.5)
DIMS = ModelDims(p=200, n=400, T=1000)
SPIKES = ((20.0, 1), (0.2, 2), (0.1, 1))
PHI_TOP = 128.0 / 3.0
PHI_BOTTOM = 7.0 / 95.0
B_UPPER = 12.596773353931868

_u3 = np.array([0.0, 0.0, 1.0, 1.0]) / math.sqrt(2.0)
_u4 = np.array([0.0, 0.0, 1.0, -1.0]) / math.sqrt(2.0)
GENERAL_BASIS = np.column_stack(
    [np.eye(4)[:, 0], np.eye(4)[:, 1], _u3, _u4]
)

LADDER = tuple(ModelDims(p=q, n=2 * q, T=5 * q) for q in (50, 100, 150, 200, 250))


def _study(dist, spec, seed):
    config = CltConfig(
        dims=DIMS, spec=spec, dist=dist, replicates=1000, master_seed=seed
    )
    return run_clt_study(config)


@pytest.fixture(scope="module")
def gauss_study():
    return _study(GAUSSIAN, SpikeSpec(spikes=SPIKES), SEED)


@pytest.fixture(scope="module")
def rademacher_study():
    return _study(RADEMACHER, SpikeSpec(spikes=SPIKES), SEED + 1)


@pytest.fixture(scope="module")
def general_basis_study():
    return _study(RADEMACHER, SpikeSpec(spikes=SPIKES, basis=GENERAL_BASIS), SEED + 2)


@pytest.fixture(scope="module")
def detection_tables():
    tables = {}
    for name, builder, seed in (
        ("block", block_noise_model, SEED + 4),
        ("equicorrelated", equicorrelated_model, SEED + 5),
    ):
        config = DetectionConfig(
            ladder=LADDER,
            model=builder,
            dist=GAUSSIAN,
            replicates=1000,
            master_seed=seed,
        )
        tables[name] = run_detection_study(config)
    return tables


def test_01_support_and_critical_constants():
    edges = support_edges(REFERENCE)
    low, high = critical_interval(REFERENCE)
    print(f"edges=({edges.lower:.6f}, {edges.upper:.6f}) critical=({low:.6f}, {high:.6f})")
    assert abs(edges.lower - 0.203) < 5e-3
    assert abs(edges.upper - 12.597) < 5e-3
    assert abs(low - 0.45) < 5e-3
    assert abs(high - 3.55) < 5e-3


def test_02_law_self_consistency():
    pairs = [
        (0.2, 0.5), (0.5, 0.5), (1.0, 0.3), (0.8, 0.2), (0.3, 0.7),
        (0.6, 0.9), (0.1, 0.1), (0.9, 0.6), (0.4, 0.35), (0.7, 0.8),
    ]
    worst_mass = 0.0
    for c, y in pairs:
        total = integrate_against_density(FisherParams(c, y), lambda x: 1.0)
        worst_mass = max(worst_mass, abs(total - 1.0))
    print(f"max |mass - 1| over {len(pairs)} ratio pairs: {worst_mass:.2e}")
    assert worst_mass < 1e-6

    points = [-5.0, -2.0, -1.0, -0.52, 0.05, 0.15, 13.5, 16.0, 25.0, 60.0]
    worst_s = 0.0
    for z in points:
        closed = stieltjes(REFERENCE, z)
        quad = integrate_against_density(REFERENCE, lambda x, z=z: 1.0 / (x - z))
        worst_s = max(worst_s, abs(closed - quad) / max(1.0, abs(quad)))
    print(f"max Stieltjes deviation from quadrature at {len(points)} points: {worst_s:.2e}")
    assert worst_s < 1e-6

    worst_rel = 0.0
    worst_quad = 0.0
    for c, y in [(0.2, 0.5), (1.5, 0.5)]:
        params = FisherParams(c, y)
        upper = support_edges(params).upper
        # -5 and -1.1 stay clear of the removable singularity at -c/y
        # for both ratio pairs.
        for z in [-5.0, -1.1, 1.1 * upper, 2.0 * upper, 10.0 * upper]:
            comp = companion_stieltjes(params, z)
            rel = comp + (1.0 - c) / z - c * stieltjes(params, z)
            quad_res = (
                z * (c + z * y) * comp * comp
                + (c * (z * (1.0 - y) + 1.0 - c) + 2.0 * z * y) * comp
                + (c + y - c * y)
            )
            worst_rel = max(worst_rel, abs(rel))
            worst_quad = max(worst_quad, abs(quad_res))
    print(f"companion relation residual: {worst_rel:.2e}; quadratic residual: {worst_quad:.2e}")
    assert worst_rel < 1e-10
    assert worst_quad < 1e-10

    worst_m = 0.0
    for a in (20.0, 0.2, 0.1):
        lam = phi(REFERENCE, a)
        mv = moment_values(REFERENCE, a)
        checks = [
            (mv.stieltjes, lambda x: 1.0 / (x - lam)),
            (mv.inv_gap_sq, lambda x: 1.0 / (lam - x) ** 2),
            (mv.x_gap, lambda x: x / (lam - x)),
            (mv.x_gap_sq, lambda x: x / (lam - x) ** 2),
            (mv.xx_gap_sq, lambda x: x * x / (lam - x) ** 2),
        ]
        for closed, func in checks:
            quad = integrate_against_density(REFERENCE, func)
            worst_m = max(worst_m, abs(closed - quad) / abs(quad))
    print(f"max moment deviation from quadrature over a in {{20, 0.2, 0.1}}: {worst_m:.2e}")
    assert worst_m < 1e-5


def test_03_transition_map_and_clt_constants():
    values = [phi(REFERENCE, a) for a in (20.0, 0.2, 0.1)]
    print(f"phi(20, 0.2, 0.1) = ({values[0]:.4f}, {values[1]:.4f}, {values[2]:.4f})")
    assert abs(values[0] - 42.67) < 5e-3
    assert abs(values[1] - 0.13) < 5e-3
    assert abs(values[2] - 0.07) < 5e-3

    middle = clt_constants(REFERENCE, 0.2)
    print(
        f"middle spike: delta={middle.delta:.6f} theta={middle.theta:.6f} "
        f"omega={middle.omega:.6f}"
    )
    assert abs(middle.delta - 1.45) < 5e-3
    assert abs(middle.theta - 0.02) < 5e-3
    assert abs(middle.omega - 0.016) < 5e-3

    top_gauss = clt_constants(REFERENCE, 20.0, fourth_moment=3.0)
    top_binary = clt_constants(REFERENCE, 20.0, fourth_moment=1.0)
    print(f"sigma_sq(20): gaussian {top_gauss.sigma_sq:.2f}, binary {top_binary.sigma_sq:.2f}")
    assert abs(top_gauss.sigma_sq - 4246.8) / 4246.8 < 1e-3
    assert abs(top_binary.sigma_sq - 2039.8) / 2039.8 < 1e-3


def test_04_monte_carlo_outlier_means(gauss_study):
    scale = math.sqrt(DIMS.p)
    mean_top = PHI_TOP + gauss_study.empirical[0][:, 0].mean() / scale
    mean_bottom = PHI_BOTTOM + gauss_study.empirical[2][:, 0].mean() / scale
    print(f"mean l1 = {mean_top:.4f} (target 42.67), mean lp = {mean_bottom:.6f} (map value {PHI_BOTTOM:.6f})")
    assert abs(mean_top - 42.67) / 42.67 < 0.02
    # The two-digit display value 0.07 sits 5.3 percent away from the exact
    # map value 7/95, so a 5 percent band is only satisfiable around the
    # exact value; the sampler is judged against that.
    assert abs(mean_bottom - PHI_BOTTOM) / PHI_BOTTOM < 0.05

    sub_dims = ModelDims(p=400, n=800, T=2000)
    sub_spec = SpikeSpec(spikes=((2.0, 1),))
    tops = np.empty(1000)
    for rep in range(tops.size):
        rng = stream_generator(SEED + 3, 1, rep)
        tops[rep] = sample_spectrum(rng, sub_dims, sub_spec)[0]
    print(f"sub-critical mean l1 = {tops.mean():.4f} (edge {B_UPPER:.4f})")
    assert abs(tops.mean() - 12.597) / 12.597 < 0.05


def test_05_clt_variances(gauss_study, rademacher_study, general_basis_study):
    var_top_g = gauss_study.empirical[0][:, 0].var(ddof=1)
    var_top_r = rademacher_study.empirical[0][:, 0].var(ddof=1)
    var_bot_g = gauss_study.empirical[2][:, 0].var(ddof=1)
    var_bot_r = rademacher_study.empirical[2][:, 0].var(ddof=1)
    var_gen = general_basis_study.empirical[2][:, 0].var(ddof=1)
    ref_gen = clt_constants(REFERENCE, 0.1, fourth_moment=1.0).projection_variance(_u4)
    print(f"var top: gaussian {var_top_g:.1f} (4246.8), binary {var_top_r:.1f} (2039.8)")
    print(f"var bottom: gaussian {var_bot_g:.6f} (7.2e-3), binary {var_bot_r:.6f} (9e-4)")
    print(f"var bottom, rotated basis: {var_gen:.6f} (0.004; exact {ref_gen:.6f})")
    assert abs(var_top_g - 4246.8) / 4246.8 < 0.20
    assert abs(var_top_r - 2039.8) / 2039.8 < 0.20
    assert abs(var_bot_g - 7.2e-3) / 7.2e-3 < 0.25
    assert abs(var_bot_r - 9e-4) / 9e-4 < 0.25
    assert abs(var_gen - 0.004) / 0.004 < 0.25


def test_06_top_outlier_normality(gauss_study):
    ks = summarize(gauss_study.empirical[0][:, 0]).ks_distance
    print(f"KS distance of standardized top statistic: {ks:.4f}")
    assert ks < 0.06


def test_07_packet_independence(gauss_study):
    top = gauss_study.empirical[0][:, 0]
    bottom = gauss_study.empirical[2][:, 0]
    corr = float(np.corrcoef(top, bottom)[0, 1])
    print(f"corr(top, bottom statistics) = {corr:.4f}")
    assert abs(corr) < 0.1


def test_08_rotation_invariance():
    base = SpikeSpec(spikes=SPIKES)
    rot_rng = ensure_generator((SEED, 8))
    worst = 0.0
    for j in range(20):
        block = np.linalg.qr(rot_rng.standard_normal((2, 2)))[0]
        if j % 2:
            block[:, 0] *= -1.0  # cover reflections, not just rotations
        basis = np.eye(4)
        basis[1:3, 1:3] = block
        if j % 3 == 0:
            basis[0, 0] = -1.0  # sign change on a simple spike
        rotated = SpikeSpec(spikes=SPIKES, basis=basis)
        one = sample_limit_batch(ensure_generator((SEED, 80, j)), REFERENCE, base)
        two = sample_limit_batch(ensure_generator((SEED, 80, j)), REFERENCE, rotated)
        for left, right in zip(one, two):
            worst = max(worst, float(np.max(np.abs(left - right))))
    print(f"max eigenvalue deviation over 20 block rotations: {worst:.2e}")
    assert worst < 1e-10


def test_09_detection_frequencies(detection_tables):
    gates = {"block": 0.90, "equicorrelated": 0.93}
    for name, table in detection_tables.items():
        row = table.frequencies[table.row_labels.index("3")]
        print(f"{name}: P(k=3) along ladder = {np.array2string(row, precision=3)}")
        assert row[-1] >= gates[name]
        assert np.all(np.diff(row) >= 0.0), f"{name} ladder not non-decreasing"


def test_10_null_size():
    config = DetectionConfig(
        ladder=(DIMS,),
        model=null_model,
        dist=GAUSSIAN,
        replicates=500,
        master_seed=SEED + 6,
    )
    table = run_detection_study(config)
    rate = 1.0 - float(table.frequencies[0, 0])
    offset = DetectorConfig().offset(DIMS.p)
    print(f"null false-alarm rate P(k >= 1) = {rate:.4f} with offset {offset:.4f}")
    assert rate <= 0.05, (
        f"measured null false-alarm rate {rate:.3f} exceeds 0.05: the default "
        f"detector reports a nonzero count only when the top eigenvalue clears "
        f"the Tracy-Widom 95% point of the null, which should hold this level "
        f"although the offset loglog(p)/p^(2/3) = {offset:.4f} at p=200 is an "
        f"order of magnitude below the edge fluctuation scale (about 0.76 here); "
        f"see the project decision log, docs/decisions.md, for the size analysis"
    )


def test_11_thread_determinism(tmp_path):
    clt_cfg = tmp_path / "clt.json"
    clt_cfg.write_text(
        json.dumps(
            {
                "dims": [60, 120, 300],
                "spikes": [[20.0, 1], [0.2, 2]],
                "replicates": 12,
                "seed": 31,
                "kde_points": 21,
            }
        ),
        encoding="utf-8",
    )
    det_cfg = tmp_path / "det.json"
    det_cfg.write_text(
        json.dumps(
            {
                "ladder": [[20, 40, 100], [30, 60, 150]],
                "model": {"kind": "block-noise"},
                "replicates": 24,
                "seed": 32,
            }
        ),
        encoding="utf-8",
    )
    for command, cfg in (("simulate-clt", clt_cfg), ("detect-study", det_cfg)):
        outs = []
        for threads in (1, 4, 8):
            out = tmp_path / f"{command}-t{threads}"
            code = cli_main(
                [command, "--config", str(cfg), "--out-dir", str(out), "--threads", str(threads)]
            )
            assert code == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.json")
        assert names
        for name in names:
            reference = (outs[0] / name).read_bytes()
            for other in outs[1:]:
                assert (other / name).read_bytes() == reference, f"{command}/{name}"
        print(f"{command}: {len(names)} files byte-identical across 1, 4, 8 threads")
