"""End-to-end command line checks."""

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spikedfisher
from spikedfisher import cli, experiments, sampling
from spikedfisher.cli import build_parser, main


def run_cli(*argv):
    return main([str(a) for a in argv])


def package_env():
    """The environment of a child interpreter that imports this package's source."""
    env = dict(os.environ)
    src = str(Path(spikedfisher.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_clt_config(path, **overrides):
    config = {
        "dims": [40, 80, 200],
        "spikes": [[20.0, 1], [0.2, 2]],
        "distribution": "gaussian",
        "replicates": 10,
        "seed": 11,
        "kde_points": 15,
    }
    config.update(overrides)
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def rerun_from_manifest(command, out, tmp_path):
    """Run `command` again on the config in `out`'s manifest; return the new out dir."""
    config = tmp_path / "rerun.json"
    config.write_text(json.dumps(json.loads((out / "manifest.json").read_text())["config"]))
    rerun = tmp_path / "rerun"
    assert run_cli(command, "--config", config, "--out-dir", rerun) == 0
    return rerun


def write_detect_config(path, **overrides):
    config = {
        "ladder": [[20, 40, 100], [30, 60, 150]],
        "model": {"kind": "block-noise"},
        "replicates": 20,
        "seed": 4,
    }
    config.update(overrides)
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestLaw:
    def test_writes_expected_files(self, tmp_path):
        assert run_cli("law", 0.2, 0.5, "--points", 64, "--out-dir", tmp_path) == 0
        rows = read_csv(tmp_path / "law.csv")
        assert rows[0] == ["x", "density"]
        assert len(rows) == 65
        xs = np.array([float(r[0]) for r in rows[1:]])
        dens = np.array([float(r[1]) for r in rows[1:]])
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == {"b1", "b", "mass_at_zero", "critical_low", "critical_high"}
        assert summary["b1"] == pytest.approx(0.20322664606813293, rel=1e-12)
        assert summary["b"] == pytest.approx(12.596773353931868, rel=1e-12)
        assert summary["mass_at_zero"] == 0.0
        assert xs[0] == pytest.approx(summary["b1"]) and xs[-1] == pytest.approx(summary["b"])
        assert dens[0] == 0.0 and dens[-1] == 0.0
        assert np.all(dens[1:-1] > 0.0)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "law"

    def test_zero_points_gives_header_only(self, tmp_path):
        assert run_cli("law", 1.5, 0.3, "--points", 0, "--out-dir", tmp_path) == 0
        assert read_csv(tmp_path / "law.csv") == [["x", "density"]]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mass_at_zero"] == pytest.approx(1.0 - 1.0 / 1.5, rel=1e-12)

    def test_bad_ratio_exits_two(self, tmp_path, capsys):
        assert run_cli("law", 0.2, 1.2, "--out-dir", tmp_path) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_window_exits_two(self, tmp_path, capsys):
        code = run_cli("law", 0.2, 0.5, "--x-min", 5.0, "--x-max", 1.0, "--out-dir", tmp_path)
        assert code == 2
        assert "x-min" in capsys.readouterr().err

    def test_oversized_grid_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("law", 0.2, 0.5, "--points", 10**15, "--out-dir", out) == 2
        assert "--points" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_beyond_what_law_writes_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("law", 0.2, 0.5, "--points", 10**6 + 1, "--out-dir", out) == 2
        assert "--points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("c", [1e33, 1e300, 1e308])
    def test_support_without_width_exits_two(self, tmp_path, capsys, c):
        # Above c of about 1e32 both support edges round to one float.
        out = tmp_path / "out"
        assert run_cli("law", c, 0.2, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert "has no width in floating point" in err and "need --x-min" not in err
        assert not out.exists()
        assert run_cli("law", c, 0.2, "--points", 1, "--out-dir", out) == 0

    def test_overflowing_support_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("law", 1.7e308, 0.2, "--out-dir", out) == 2
        assert "support edges at c=1.7e+308, y=0.2 overflow" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "window, flag",
        [(["--x-max", "inf", "--points", 4], "--x-max"), (["--x-min", "nan", "--points", 1], "--x-min")],
    )
    def test_non_finite_window_exits_two(self, tmp_path, capsys, window, flag):
        out = tmp_path / "out"
        assert run_cli("law", 0.2, 0.5, *window, "--out-dir", out) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestSimulateClt:
    def test_full_file_set(self, tmp_path):
        config = write_clt_config(tmp_path / "study.json")
        out = tmp_path / "out"
        assert run_cli("simulate-clt", "--config", config, "--out-dir", out) == 0

        rows = read_csv(out / "replicates.csv")
        assert rows[0] == [
            "replicate",
            "stat_1_1", "stat_2_1", "stat_2_2",
            "limit_1_1", "limit_2_1", "limit_2_2",
        ]
        assert len(rows) == 11
        assert [r[0] for r in rows[1:]] == [str(i) for i in range(10)]

        kde = read_csv(out / "kde_spike1.csv")
        assert kde[0] == ["value", "empirical_density", "limit_density"]
        assert len(kde) == 16

        kde2 = read_csv(out / "kde2d_spike2.csv")
        assert kde2[0] == ["x1", "x2", "empirical_density", "limit_density"]
        assert len(kde2) == 1 + 15 * 15

        summary = json.loads((out / "summary.json").read_text())
        assert summary["replicates"] == 10
        assert summary["distribution"] == "gaussian"
        top = summary["spikes"][0]
        assert top["multiplicity"] == 1
        assert top["outlier"] == pytest.approx(128.0 / 3.0, rel=1e-12)
        assert {"delta", "theta", "omega", "sigma_sq"} <= set(top)
        assert {"reference_variance", "ks_vs_reference"} <= set(top["members"][0])
        assert "reference_variance" not in summary["spikes"][1]["members"][0]

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["threads"] == 1
        assert manifest["blas_threads"] == (1 if len(sampling._BLAS_CONTROLS) == 2 else None)

    def test_seed_override_lands_in_manifest(self, tmp_path):
        config = write_clt_config(tmp_path / "study.json")
        out = tmp_path / "out"
        assert run_cli("simulate-clt", "--config", config, "--out-dir", out, "--seed", 99) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99
        assert manifest["config"]["seed"] == 99

    def test_manifest_config_reruns_the_study(self, tmp_path):
        config = write_clt_config(tmp_path / "study.json", outputs=[])
        out = tmp_path / "out"
        assert run_cli("simulate-clt", "--config", config, "--out-dir", out, "--seed", 99) == 0
        rerun = rerun_from_manifest("simulate-clt", out, tmp_path)
        assert (rerun / "replicates.csv").read_bytes() == (out / "replicates.csv").read_bytes()

    def test_summary_only_output(self, tmp_path):
        config = write_clt_config(tmp_path / "study.json", outputs=["summary"])
        out = tmp_path / "out"
        assert run_cli("simulate-clt", "--config", config, "--out-dir", out) == 0
        assert not (out / "kde_spike1.csv").exists()
        assert (out / "summary.json").exists()

    def test_thread_count_leaves_bytes_unchanged(self, tmp_path):
        config = write_clt_config(tmp_path / "study.json")
        outs = []
        for threads in (1, 3):
            out = tmp_path / f"t{threads}"
            code = run_cli(
                "simulate-clt", "--config", config, "--out-dir", out, "--threads", threads
            )
            assert code == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert "replicates.csv" in names
        for name in names:
            if name == "manifest.json":
                continue
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_overflowing_spike_exits_three(self, tmp_path, capsys):
        config = write_clt_config(tmp_path / "study.json", spikes=[[1e160, 1]])
        assert run_cli("simulate-clt", "--config", config, "--out-dir", tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert "spike value 1e+160 is too large for the CLT constants" in err

    def test_huge_spike_keeps_the_small_packet(self, tmp_path):
        config = write_clt_config(
            tmp_path / "study.json", dims=[20, 40, 60], spikes=[[1e12, 1], [0.05, 1]], outputs=[]
        )
        out = tmp_path / "out"
        assert run_cli("simulate-clt", "--config", config, "--out-dir", out) == 0
        rows = read_csv(out / "replicates.csv")
        assert rows[0][2] == "stat_2_1"
        assert len({row[2] for row in rows[1:]}) == 10

    def test_spike_beyond_the_rounding_floor_exits_two(self, tmp_path, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(experiments, "sample_spectrum", no_draw)
        # eps x phi(1e15) is 46 limit SDs of the small packet: its eigenvalue would be rounding noise.
        config = write_clt_config(
            tmp_path / "study.json", dims=[20, 40, 60], spikes=[[1e15, 1], [0.05, 1]], outputs=[]
        )
        assert run_cli("simulate-clt", "--config", config, "--out-dir", tmp_path / "out") == 2
        assert "rounding floor" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_spike_that_does_not_detach_exits_two(self, tmp_path, capsys):
        # 2.0 lies inside the critical interval at (c, y) = (0.2, 0.5); the config rejects it.
        config = write_clt_config(tmp_path / "study.json", spikes=[[2.0, 1]])
        assert run_cli("simulate-clt", "--config", config, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "- spikes: " in err and "critical interval" in err
        assert not (tmp_path / "out").exists()

    def test_failing_study_writes_nothing(self, tmp_path, capsys):
        # p = 1 with Rademacher entries: every replicate has the same statistic, so the KDE fails.
        config = write_clt_config(
            tmp_path / "study.json", dims=[1, 2, 1], spikes=[[20.0, 1]], distribution="rademacher",
            replicates=5, seed=1,
        )
        assert run_cli("simulate-clt", "--config", config, "--out-dir", tmp_path / "out") == 2
        assert "bandwidth would be zero" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_packet_of_three_is_summarized_but_not_gridded(self, tmp_path):
        config = write_clt_config(tmp_path / "study.json", spikes=[[20.0, 1], [0.2, 3]])
        out = tmp_path / "out"
        assert run_cli("simulate-clt", "--config", config, "--out-dir", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["spikes"][1]["multiplicity"] == 3
        assert len(summary["spikes"][1]["members"]) == 3
        header = read_csv(out / "replicates.csv")[0]
        assert [name for name in header if name.startswith("stat_2_")] == ["stat_2_1", "stat_2_2", "stat_2_3"]
        assert (out / "kde_spike1.csv").exists()
        assert list(out.glob("kde*_spike2.csv")) == []

    def test_violations_are_enumerated(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "dims": [40, 80],
                    "replicates": 1,
                    "seed": -3,
                    "palette": "viridis",
                }
            ),
            encoding="utf-8",
        )
        assert run_cli("simulate-clt", "--config", bad, "--out-dir", tmp_path) == 2
        err = capsys.readouterr().err
        for fragment in ("dims", "spikes", "replicates", "seed", "palette"):
            assert fragment in err
        assert err.count("\n  - ") >= 5

    def test_missing_config_exits_two(self, tmp_path, capsys):
        assert run_cli("simulate-clt", "--config", tmp_path / "nope.json", "--out-dir", tmp_path) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_config_must_be_json_object(self, tmp_path, capsys):
        cfg = tmp_path / "arr.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        assert run_cli("simulate-clt", "--config", cfg, "--out-dir", tmp_path) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_config_must_parse(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert run_cli("simulate-clt", "--config", cfg, "--out-dir", tmp_path) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestDetectStudy:
    def test_frequency_table(self, tmp_path):
        config = write_detect_config(tmp_path / "study.json")
        out = tmp_path / "out"
        assert run_cli("detect-study", "--config", config, "--out-dir", out) == 0
        rows = read_csv(out / "frequency.csv")
        assert rows[0] == ["count", "p=20", "p=30"]
        assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3", "4", "5+"]
        freq = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        np.testing.assert_allclose(freq.sum(axis=0), 1.0, atol=1e-12)

    def test_thread_count_leaves_bytes_unchanged(self, tmp_path):
        config = write_detect_config(tmp_path / "study.json")
        bodies = []
        for threads in (1, 4):
            out = tmp_path / f"t{threads}"
            code = run_cli(
                "detect-study", "--config", config, "--out-dir", out, "--threads", threads
            )
            assert code == 0
            bodies.append((out / "frequency.csv").read_bytes())
        assert bodies[0] == bodies[1]

    def test_custom_model_needs_single_rung(self, tmp_path, capsys):
        config = write_detect_config(
            tmp_path / "study.json",
            model={
                "kind": "custom",
                "mixing": [[1.0], [0.0], [0.0]],
                "noise_cov": np.eye(3).tolist(),
            },
        )
        assert run_cli("detect-study", "--config", config, "--out-dir", tmp_path) == 2
        assert "mixing matrix has 3 rows but dims.p=20" in capsys.readouterr().err

    def test_custom_ladder_of_one_p_runs(self, tmp_path):
        config = write_detect_config(
            tmp_path / "study.json", ladder=[[4, 10, 30], [4, 20, 60]], model=CUSTOM_MODEL
        )
        out = tmp_path / "out"
        assert run_cli("detect-study", "--config", config, "--out-dir", out) == 0
        assert read_csv(out / "frequency.csv")[0] == ["count", "p=4,n=10,T=30", "p=4,n=20,T=60"]

    def test_unknown_model_kind(self, tmp_path, capsys):
        config = write_detect_config(tmp_path / "study.json", model={"kind": "sparse"})
        assert run_cli("detect-study", "--config", config, "--out-dir", tmp_path) == 2
        assert "unknown kind" in capsys.readouterr().err

    def test_dn_override_config_key(self, tmp_path):
        # A large offset pushes the threshold past every eigenvalue.
        config = write_detect_config(
            tmp_path / "study.json", ladder=[[20, 40, 100]], dn_override=100.0, replicates=8
        )
        out = tmp_path / "out"
        assert run_cli("detect-study", "--config", config, "--out-dir", out) == 0
        rows = read_csv(out / "frequency.csv")
        assert float(rows[1][1]) == 1.0  # every replicate lands in the zero bin

    @pytest.mark.parametrize("shift", [100.0, 0.5])
    def test_manifest_config_reruns_the_study(self, tmp_path, shift):
        config = write_detect_config(tmp_path / "study.json", dn_override=shift, replicates=8)
        out = tmp_path / "out"
        assert run_cli("detect-study", "--config", config, "--out-dir", out, "--seed", 12) == 0
        rerun = rerun_from_manifest("detect-study", out, tmp_path)
        assert (rerun / "frequency.csv").read_bytes() == (out / "frequency.csv").read_bytes()

    @pytest.mark.parametrize(
        "overrides",
        [
            # The gate near the largest float overflows gate S2 - S1.
            {"ladder": [[20, 22, 100]], "model": {"kind": "null"}, "dn_override": 1e308},
            # Whitening 1e200 e1 by (1e-300 I)^{-1/2} overflows as the model is built.
            {
                "ladder": [[4, 10, 20]],
                "model": {"kind": "custom", "mixing": [[1e200], [0.0], [0.0], [0.0]],
                          "noise_cov": (1e-300 * np.eye(4)).tolist()},
                "replicates": 5,
            },
            # The whitened mixing is finite; the records it mixes are not.
            {
                "ladder": [[4, 10, 20]],
                "model": {"kind": "custom", "mixing": [[1.7e308], [0.0], [0.0], [0.0]],
                          "noise_cov": np.eye(4).tolist()},
                "replicates": 5,
            },
        ],
        ids=["gate", "whitening", "records"],
    )
    def test_overflow_exits_three_without_a_warning(self, tmp_path, capsys, overrides):
        config = write_detect_config(tmp_path / "study.json", seed=1, **overrides)
        out = tmp_path / "out"
        assert run_cli("detect-study", "--config", config, "--out-dir", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and err.count("\n") == 1
        assert "Warning" not in err
        assert not out.exists()

    def test_shift_is_a_config_key_not_a_flag(self, tmp_path, capsys):
        config = write_detect_config(tmp_path / "study.json")
        with pytest.raises(SystemExit) as excinfo:
            run_cli("detect-study", "--config", config, "--out-dir", tmp_path, "--dn-override", 1)
        assert excinfo.value.code == 2
        assert "--dn-override" in capsys.readouterr().err


CUSTOM_MODEL = {
    "kind": "custom",
    "mixing": [[2.0], [0.0], [1.0], [0.0]],
    "noise_cov": np.eye(4).tolist(),
}


GOLDEN = Path(__file__).parent / "golden"


class TestGoldenFrequencies:
    """detect-study bytes against files written by the dense-root replicate.

    Before replicates whitened the pencil, each one formed A s + R e and
    R z with the noise root R; the frequency tables must not have moved.
    """

    @pytest.mark.parametrize("name", ["block_gaussian", "custom_rademacher"])
    def test_frequency_bytes(self, tmp_path, name):
        out = tmp_path / "out"
        assert run_cli("detect-study", "--config", GOLDEN / f"{name}.json", "--out-dir", out) == 0
        expected = (GOLDEN / f"{name}_frequency.csv").read_bytes()
        assert (out / "frequency.csv").read_bytes() == expected


class TestGoldenOutputs:
    """simulate-clt and law bytes against files written before each spike's
    limit law moved into `CLTConstants`.  Manifests are compared without
    their timestamp.
    """

    @staticmethod
    def assert_same_files(out, golden):
        names = sorted(path.name for path in golden.iterdir())
        assert sorted(path.name for path in out.iterdir()) == names
        for name in names:
            data, expected = (out / name).read_bytes(), (golden / name).read_bytes()
            if name == "manifest.json":
                data, expected = (json.loads(d) for d in (data, expected))
                del data["created_utc"], expected["created_utc"]
            assert data == expected, name

    @pytest.mark.parametrize("name", ["clt_gaussian", "clt_rademacher"])
    def test_simulate_clt_bytes(self, tmp_path, name):
        config = GOLDEN / f"{name}.json"
        assert run_cli("simulate-clt", "--config", config, "--out-dir", tmp_path, "--threads", 2) == 0
        self.assert_same_files(tmp_path, GOLDEN / name)

    def test_law_bytes(self, tmp_path):
        assert run_cli("law", 0.2, 0.5, "--points", 64, "--out-dir", tmp_path) == 0
        self.assert_same_files(tmp_path, GOLDEN / "law")


class TestCapsuleRoute:
    """The golden bytes on the LAPACK routines a scipy build without bundled OpenBLAS uses."""

    @pytest.fixture(autouse=True)
    def capsules(self, monkeypatch):
        # No library: the routines the resolver gives when the glob finds nothing.
        monkeypatch.setattr(sampling, "_LAPACK", sampling._lapack_routines(None))

    @pytest.mark.parametrize("name", ["clt_gaussian", "clt_rademacher"])
    def test_simulate_clt_bytes(self, tmp_path, name):
        TestGoldenOutputs().test_simulate_clt_bytes(tmp_path, name)

    @pytest.mark.parametrize("name", ["block_gaussian", "custom_rademacher"])
    def test_frequency_bytes(self, tmp_path, name):
        TestGoldenFrequencies().test_frequency_bytes(tmp_path, name)

    def test_law_bytes(self, tmp_path):
        TestGoldenOutputs().test_law_bytes(tmp_path)


class TestConfigRejections:
    """Each malformed config exits 2 and the message names what is wrong."""

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"spikes": [[20.0, 1], 5]}, "spikes"),
            ({"spikes": [["x", 1]]}, "spikes"),
            ({"spikes": [[20.0, 1.5]]}, "multiplicity"),
            ({"basis": [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]}, "basis"),
            ({"outputs": ["plots"]}, "outputs"),
            ({"replicates": True}, "replicates"),
            # Sizes beyond the array bound, rejected before anything is allocated.
            ({"dims": [6, 10**30, 12]}, "dims"),
            ({"dims": [10**30, 10**30 + 1, 12]}, "dims"),
            ({"dims": [100, 200, 10**7]}, "dims"),
            ({"kde_points": 10**30}, "kde_points"),
            ({"kde_points": 10**4}, "kde_points"),
            ({"replicates": 10**30}, "replicates"),
            # Strings and booleans are not numbers, even where a float cast would read the identity.
            ({"basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}, "basis"),
            ({"basis": [[True, False, False], [False, True, False], [False, False, True]]}, "basis"),
            ({"spikes": [[10**400, 1]]}, "spikes"),
            # A spike basis beyond the size rule, rejected before the identity is built.
            ({"spikes": [[20.0, 10**15]]}, "spikes"),
        ],
    )
    def test_simulate_clt(self, tmp_path, capsys, overrides, field):
        config = write_clt_config(tmp_path / "study.json", **overrides)
        assert run_cli("simulate-clt", "--config", config, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert field in err
        assert not (tmp_path / "out").exists()

    def test_replicates_table_beyond_the_size_rule(self, tmp_path, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(experiments, "sample_spectrum", no_draw)
        # 2 x 10**7 replicates pass on their own; the table holds 6 values a row (rank 3).
        config = write_clt_config(tmp_path / "study.json", replicates=2 * 10**7)
        assert run_cli("simulate-clt", "--config", config, "--out-dir", tmp_path / "out") == 2
        assert "replicates table" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (
                {"ladder": [[4, 10, 30]], "model": {**CUSTOM_MODEL, "mixing": [[2.0], [0.0, 1.0], [1.0], [0.0]]}},
                "mixing",
            ),
            (
                {"ladder": [[4, 10, 30]], "model": {**CUSTOM_MODEL, "mixing": [["a"], [0.0], [1.0], [0.0]]}},
                "mixing",
            ),
            ({"ladder": [[1, 2, 5]], "model": {"kind": "equicorrelated"}}, "p=1"),
            ({"model": {"kind": "equicorrelated", "rho": "high"}}, "rho"),
            ({"model": {"kind": "block-noise", "rho": 0.2}}, "rho"),
            ({"dn_override": True}, "dn_override"),
            ({"ladder": []}, "ladder"),
            ({"ladder": [[20, 10**30, 100]]}, "ladder"),
            ({"ladder": [[20, 40, 100], [10**15, 10**15 + 1, 10]]}, "ladder"),
            ({"replicates": 10**30}, "replicates"),
            (
                {"ladder": [[4, 10, 30]], "model": {**CUSTOM_MODEL, "noise_cov": [[1.0, 0.0, 0.0, 0.0]] * 3}},
                "noise covariance must be a square matrix",
            ),
            ({"ladder": [[2, 4, 10]], "model": {"kind": "null"}}, "ladder: default threshold rule"),
        ],
    )
    def test_detect_study(self, tmp_path, capsys, overrides, field):
        config = write_detect_config(tmp_path / "study.json", **overrides)
        assert run_cli("detect-study", "--config", config, "--out-dir", tmp_path / "out") == 2
        assert field in capsys.readouterr().err


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 4),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-1, 4), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 4), max_size=2),
)


def _mostly(valid):
    """A value from `valid` seven times in eight, junk of any JSON type otherwise."""
    return st.sampled_from(range(8)).flatmap(lambda pick: _JUNK if pick == 7 else valid)


def _edit(args):
    config, edit, key, junk = args
    if edit == "drop":
        del config[key]
    elif edit == "extra":
        config["palette"] = junk
    return config


def _config(fields):
    """JSON objects over `fields`; one in four misses a key or carries an unknown one."""
    return st.tuples(
        st.fixed_dictionaries(fields),
        st.sampled_from([None] * 6 + ["drop", "extra"]),
        st.sampled_from(sorted(fields)),
        _JUNK,
    ).map(_edit)


_SIZE = st.integers(-1, 12)
_VALID_DIMS = st.integers(1, 8).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(p + 1, 12), st.integers(1, 12))
)
_DIMS = _mostly(
    st.one_of(
        _VALID_DIMS.map(list),
        st.lists(_mostly(_SIZE), min_size=3, max_size=3),
    )
)
_NUMBER = _mostly(st.sampled_from([20.0, 5.0, 2.0, 1.0, 0.5, 0.2, 0.1, -1.0]))
_MATRIX = _mostly(
    st.one_of(
        st.sampled_from([np.eye(n).tolist() for n in (1, 2, 3, 4)]),
        st.lists(st.lists(_NUMBER, max_size=4), max_size=4),
    )
)
_COUNT = _mostly(st.integers(-1, 4))
_REPLICATES = _mostly(st.integers(2, 4))
_SEED = _mostly(st.integers(0, 2**64 - 1))
_DISTRIBUTION = _mostly(st.sampled_from(["gaussian", "rademacher"]))

_CLT_CONFIG = _config(
    {
        "dims": _DIMS,
        "spikes": _mostly(
            st.one_of(
                st.sampled_from(
                    [[[20.0, 1]], [[20.0, 1], [0.1, 1]], [[5.0, 2], [0.2, 1]], [[0.1, 1]]]
                ),
                st.lists(_mostly(st.tuples(_NUMBER, _COUNT).map(list)), max_size=3),
            )
        ),
        "basis": st.one_of(st.none(), _MATRIX),
        "distribution": _DISTRIBUTION,
        "replicates": _REPLICATES,
        "seed": _SEED,
        "kde_points": _mostly(st.integers(2, 12)),
        "outputs": _mostly(st.sampled_from([[], ["summary"], ["kde"], ["summary", "kde"]])),
    }
)
_DETECT_CONFIG = _config(
    {
        "ladder": _mostly(st.lists(_DIMS, min_size=1, max_size=2)),
        "model": _mostly(
            st.one_of(
                st.sampled_from([{"kind": "block-noise"}, {"kind": "null"}]),
                st.fixed_dictionaries({"kind": st.just("equicorrelated")}, optional={"rho": _NUMBER}),
                st.fixed_dictionaries(
                    {"kind": st.just("custom"), "mixing": _MATRIX, "noise_cov": _MATRIX}
                ),
                st.fixed_dictionaries(
                    {"kind": _JUNK},
                    optional={"rho": _NUMBER, "mixing": _MATRIX, "noise_cov": _MATRIX},
                ),
            )
        ),
        "distribution": _DISTRIBUTION,
        "replicates": _REPLICATES,
        "seed": _SEED,
        "dn_override": st.one_of(st.none(), _NUMBER),
    }
)


# law: ratios and window bounds of any float, grids from empty to above the size bound.
_LAW_REAL = st.one_of(st.sampled_from([0.2, 0.5, 1.5, 3.0, 0.0, -0.5]), st.floats())
_LAW_BOUND = st.one_of(st.none(), _LAW_REAL)
_LAW_POINTS = st.one_of(st.integers(-1, 20), st.sampled_from([10**8 + 1, 10**15, 10**30]))

# detect: (shape, dtype, poisoned last entry, seed) of one record file.  The
# records share p = 3 most of the time; p >= n and empty arrays come up too.
_RECORDS = st.tuples(
    st.one_of(
        st.tuples(st.sampled_from([3] * 6 + [1, 5]), st.integers(0, 9)),
        st.tuples(st.integers(0, 6)),
        st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3)),
    ),
    st.sampled_from(["float64"] * 4 + ["float32", "complex128", "object", "structured"]),
    st.sampled_from([None] * 5 + [math.nan, math.inf, -math.inf]),
    st.integers(0, 2**32 - 1),
)


def _record_array(shape, kind, poison, seed):
    values = np.random.default_rng(seed).standard_normal(shape)
    if poison is not None and values.size:
        values.flat[-1] = poison
    if kind == "structured":
        records = np.zeros(shape, dtype=[("v", float), ("w", float)])
        records["v"] = values
        return records
    return values + 1j if kind == "complex128" else values.astype(kind)


class TestConfigProperty:
    """Any JSON config or command line ends in exit 0, 2 or 3, never in a traceback."""

    @staticmethod
    def run_config(command, config):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            return run_cli(command, "--config", path, "--out-dir", Path(tmp) / "out")

    @settings(max_examples=200, deadline=None, database=None)
    @given(_CLT_CONFIG)
    def test_simulate_clt(self, config):
        assert self.run_config("simulate-clt", config) in (0, 2, 3)

    @settings(max_examples=200, deadline=None, database=None)
    @given(_DETECT_CONFIG)
    def test_detect_study(self, config):
        assert self.run_config("detect-study", config) in (0, 2, 3)

    @settings(max_examples=200, deadline=None, database=None)
    @given(_LAW_REAL, _LAW_REAL, _LAW_POINTS, _LAW_BOUND, _LAW_BOUND)
    def test_law(self, c, y, points, x_min, x_max):
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["law", "--points", points, "--out-dir", Path(tmp) / "out"]
            for flag, value in (("x-min", x_min), ("x-max", x_max)):
                argv += [] if value is None else [f"--{flag}={value!r}"]
            assert run_cli(*argv, "--", repr(c), repr(y)) in (0, 2, 3)

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        st.floats(-1.0, 2.0, exclude_min=True, exclude_max=True),
        st.sampled_from([0, 1, 2, 16]),
    )
    @example(c=1.7e308, y=0.2, points=16)
    def test_law_ratios_never_exit_three(self, c, y, points):
        # A finite positive c and any y have no numerical breakdown: exit 0 or 2.
        with tempfile.TemporaryDirectory() as tmp:
            assert run_cli("law", "--points", points, "--out-dir", Path(tmp) / "out", "--", c, y) in (0, 2)

    @settings(max_examples=200, deadline=None, database=None)
    @given(_RECORDS, _RECORDS, st.booleans(), st.integers(-1, 4), st.one_of(st.none(), _LAW_REAL))
    def test_detect(self, signal, noise, center, top, shift):
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["detect", "--top", top, "--out-dir", Path(tmp) / "out"]
            for flag, (shape, kind, poison, seed) in (("signal", signal), ("noise", noise)):
                path = Path(tmp) / f"{flag}.npy"
                np.save(path, _record_array(shape, kind, poison, seed))
                argv += [f"--{flag}", path]
            argv += ["--center"] if center else []
            argv += [] if shift is None else [f"--dn-override={shift!r}"]
            assert run_cli(*argv) in (0, 2, 3)


class TestDetect:
    @staticmethod
    def make_records(tmp_path, strength=50.0, p=40, n=120, T=200, seed=15):
        rng = np.random.default_rng(seed)
        direction = np.zeros(p)
        direction[0] = 1.0
        x = math.sqrt(strength) * np.outer(direction, rng.standard_normal(T))
        x += rng.standard_normal((p, T))
        z = rng.standard_normal((p, n))
        xpath = tmp_path / "x.npy"
        zpath = tmp_path / "z.npy"
        np.save(xpath, x)
        np.save(zpath, z)
        return xpath, zpath

    def test_counts_planted_signal(self, tmp_path, capsys):
        xpath, zpath = self.make_records(tmp_path)
        assert run_cli("detect", "--signal", xpath, "--noise", zpath) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["k_hat"] == 1
        assert result["p"] == 40 and result["T"] == 200 and result["n"] == 120
        assert result["threshold"] == pytest.approx(result["b"] + result["d_n"], rel=1e-15)
        assert len(result["top_eigenvalues"]) == 10
        assert result["top_eigenvalues"][0] > result["threshold"]

    def test_csv_records_and_out_dir(self, tmp_path, capsys):
        xpath, zpath = self.make_records(tmp_path)
        xcsv = tmp_path / "x.csv"
        zcsv = tmp_path / "z.csv"
        np.savetxt(xcsv, np.load(xpath), delimiter=",")
        np.savetxt(zcsv, np.load(zpath), delimiter=",")
        out = tmp_path / "res"
        code = run_cli(
            "detect", "--signal", xcsv, "--noise", zcsv, "--out-dir", out, "--top", 3
        )
        assert code == 0
        stdout_result = json.loads(capsys.readouterr().out)
        file_result = json.loads((out / "result.json").read_text())
        assert file_result == stdout_result
        assert file_result["k_hat"] == 1
        assert len(file_result["top_eigenvalues"]) == 3
        assert (out / "manifest.json").exists()

    def test_null_records_count_zero(self, tmp_path, capsys):
        xpath, zpath = self.make_records(tmp_path, strength=0.0, seed=21)
        assert run_cli("detect", "--signal", xpath, "--noise", zpath) == 0
        assert json.loads(capsys.readouterr().out)["k_hat"] == 0

    def test_dn_override_replaces_rule(self, tmp_path, capsys):
        xpath, zpath = self.make_records(tmp_path)
        assert run_cli("detect", "--signal", xpath, "--noise", zpath, "--dn-override", 0.75) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["d_n"] == pytest.approx(0.75, rel=1e-15)
        assert result["threshold"] == pytest.approx(result["b"] + 0.75, rel=1e-15)

    def test_dimension_mismatch_exits_two(self, tmp_path, capsys):
        xpath, zpath = self.make_records(tmp_path)
        short = tmp_path / "short.npy"
        np.save(short, np.load(zpath)[:20])
        assert run_cli("detect", "--signal", xpath, "--noise", short) == 2
        assert "error:" in capsys.readouterr().err

    def test_singular_noise_exits_three(self, tmp_path, capsys):
        xpath, zpath = self.make_records(tmp_path)
        degenerate = np.load(zpath)
        degenerate[1] = 0.0  # exact zero pivot, so the pencil factorization fails
        np.save(zpath, degenerate)
        assert run_cli("detect", "--signal", xpath, "--noise", zpath) == 3
        assert "numerical error:" in capsys.readouterr().err

    def test_rounding_singular_noise_exits_three(self, tmp_path, capsys):
        # A copied row leaves a Cholesky pivot at rounding level, which LAPACK takes as positive.
        rng = np.random.default_rng(3)
        x, z = rng.standard_normal((10, 40)), rng.standard_normal((10, 30))
        z[5] = z[2]
        np.save(tmp_path / "x.npy", x)
        np.save(tmp_path / "z.npy", z)
        assert run_cli("detect", "--signal", tmp_path / "x.npy", "--noise", tmp_path / "z.npy") == 3
        assert "numerically singular" in capsys.readouterr().err

    def test_negative_top_exits_two(self, tmp_path, capsys):
        xpath, zpath = self.make_records(tmp_path)
        assert run_cli("detect", "--signal", xpath, "--noise", zpath, "--top", -38) == 2
        captured = capsys.readouterr()
        assert "--top" in captured.err
        assert captured.out == ""

    def test_unsupported_format_exits_two(self, tmp_path, capsys):
        xpath, zpath = self.make_records(tmp_path)
        weird = tmp_path / "x.parquet"
        weird.write_bytes(b"\x00")
        assert run_cli("detect", "--signal", weird, "--noise", zpath) == 2
        assert "unsupported records format" in capsys.readouterr().err

    def test_unreadable_records_exit_two(self, tmp_path, capsys):
        xpath, zpath = self.make_records(tmp_path)
        folder = tmp_path / "folder.npy"
        folder.mkdir()
        assert run_cli("detect", "--signal", folder, "--noise", zpath) == 2
        assert "cannot read records file" in capsys.readouterr().err
        # Comma-separated values in a .txt file: only .npy and .csv are records formats.
        text = tmp_path / "x.txt"
        np.savetxt(text, np.load(xpath), delimiter=",")
        assert run_cli("detect", "--signal", text, "--noise", zpath) == 2
        assert "unsupported records format '.txt'" in capsys.readouterr().err

    @staticmethod
    def detect_in_child(signal, noise, cwd):
        """Exit code and stderr of `detect` in a fresh interpreter, where warnings print as they would."""
        code = "import sys; from spikedfisher.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-c", code, "detect", "--signal", str(signal), "--noise", str(noise)],
            cwd=cwd, env=package_env(), capture_output=True, text=True, timeout=120,
        )
        return done.returncode, done.stderr

    def test_overflowing_records_exit_three_without_a_warning(self, tmp_path):
        xpath, zpath = self.make_records(tmp_path)
        np.save(xpath, np.load(xpath) * 1e200)
        code, err = self.detect_in_child(xpath, zpath, tmp_path)
        assert code == 3
        assert "numerical error:" in err and "non-finite" in err
        assert "Warning" not in err

    def test_empty_csv_records_exit_two_without_a_warning(self, tmp_path):
        xpath, zpath = self.make_records(tmp_path)
        empty = tmp_path / "x.csv"
        empty.write_text("")
        code, err = self.detect_in_child(empty, zpath, tmp_path)
        assert code == 2
        assert f"records file {empty} holds no values" in err
        assert "Warning" not in err

    @pytest.mark.filterwarnings("error")  # the cast to float warns as it drops the imaginary part
    def test_complex_records_exit_two(self, tmp_path, capsys):
        xpath, zpath = self.make_records(tmp_path)
        np.save(xpath, np.load(xpath) + 1j)
        assert run_cli("detect", "--signal", xpath, "--noise", zpath) == 2
        captured = capsys.readouterr()
        assert "must be a real matrix" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "recast",
        [lambda x: x.astype(str), lambda x: x.astype([("v", float)]), lambda x: x > 0.0],
        ids=["string", "one-field-structured", "bool"],
    )
    def test_non_numeric_records_exit_two(self, tmp_path, capsys, recast):
        xpath, zpath = self.make_records(tmp_path)
        np.save(xpath, recast(np.load(xpath)))
        assert run_cli("detect", "--signal", xpath, "--noise", zpath) == 2
        captured = capsys.readouterr()
        assert "must be a real matrix" in captured.err
        assert captured.out == ""


class TestUnwritableOutDir:
    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["law", "simulate-clt", "detect-study", "detect"])
    def test_exits_two(self, tmp_path, capsys, command, under_file):
        blocker = tmp_path / "F"
        blocker.write_text("")
        out = blocker / "sub" if under_file else blocker
        if command == "law":
            argv = ["law", 0.2, 0.5, "--points", 8]
        elif command == "simulate-clt":
            argv = [command, "--config", write_clt_config(tmp_path / "study.json")]
        elif command == "detect-study":
            argv = [command, "--config", write_detect_config(tmp_path / "study.json")]
        else:
            xpath, zpath = TestDetect.make_records(tmp_path)
            argv = ["detect", "--signal", xpath, "--noise", zpath]
        assert run_cli(*argv, "--out-dir", out) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write") and str(out) in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert blocker.read_text() == ""


class TestImportPath:
    """The command line loads numpy and scipy's bundled OpenBLAS, and nothing later.

    Each check runs in a fresh interpreter: inside the test session other
    tests have loaded scipy.stats and scipy.integrate already, so a late
    import of either would go unseen here.
    """

    @staticmethod
    def fresh_python(code, cwd):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=cwd, env=package_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    def test_import_skips_stats_integrate_optimize(self, tmp_path):
        loaded = self.fresh_python(
            "import json, sys, spikedfisher.cli; print(json.dumps(sorted(sys.modules)))", tmp_path
        )
        for name in ("scipy.stats", "scipy.integrate", "scipy.optimize"):
            assert name not in loaded

    def test_import_skips_linalg_and_special(self, tmp_path):
        loaded = self.fresh_python(
            "import json, sys, spikedfisher.cli; print(json.dumps(sorted(sys.modules)))", tmp_path
        )
        assert "scipy.special" not in loaded
        # A scipy build that bundles no OpenBLAS takes its LAPACK from scipy.linalg;
        # one that does loads no scipy module at all.
        if sampling._SCIPY_OPENBLAS is not None:
            assert [name for name in loaded if name.split(".")[0] == "scipy"] == []

    @staticmethod
    def blas_child(code, cwd, blas=None):
        """`code`'s last printed JSON line, run with OPENBLAS_NUM_THREADS unset or set to `blas`.

        The other variables OpenBLAS reads its thread count from are unset too.
        """
        env = package_env()
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(name, None)
        if blas is not None:
            env["OPENBLAS_NUM_THREADS"] = blas
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    READ_BLAS = """
import json, os
from spikedfisher import sampling
print(json.dumps([sampling._blas_threads(), os.environ.get("OPENBLAS_NUM_THREADS")]))
"""

    def test_command_line_loads_blas_on_one_thread(self, tmp_path):
        if len(sampling._BLAS_CONTROLS) != 2:
            pytest.skip("needs the thread controls of both OpenBLAS copies")
        # Both pools start on one thread, and the caller's environment is as it was.
        code = "import spikedfisher.cli" + self.READ_BLAS
        assert self.blas_child(code, tmp_path) == [1, None]
        # A count the user chose wins.
        assert self.blas_child(code, tmp_path, blas="2") == [2, "2"]

    def test_command_line_import_leaves_one_thread(self, tmp_path):
        # With both pools on one thread no pool thread spins while a command starts,
        # so the order in which the two OpenBLAS copies load costs nothing.
        if not Path("/proc/self/task").is_dir() or len(sampling._BLAS_CONTROLS) != 2:
            pytest.skip("needs /proc and the thread controls of both OpenBLAS copies")
        code = 'import json, os, spikedfisher.cli; print(json.dumps(len(os.listdir("/proc/self/task"))))'
        assert self.blas_child(code, tmp_path) == 1

    def test_library_keeps_the_default_pool(self, tmp_path):
        if len(sampling._BLAS_CONTROLS) != 2 or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs both OpenBLAS copies and two usable cores")
        for first in ("import spikedfisher", "import spikedfisher.sampling"):
            threads, env = self.blas_child(first + self.READ_BLAS, tmp_path)
            assert threads > 1 and env is None, first

    def test_threaded_studies_import_nothing(self, tmp_path):
        clt = write_clt_config(tmp_path / "clt.json", replicates=4, kde_points=5)
        det = write_detect_config(tmp_path / "det.json", replicates=4)
        code = f"""
import json, sys
import spikedfisher.cli as cli
before = set(sys.modules)
for argv in (
    ["simulate-clt", "--config", {str(clt)!r}, "--out-dir", "clt", "--threads", "2"],
    ["detect-study", "--config", {str(det)!r}, "--out-dir", "det", "--threads", "2"],
):
    assert cli.main(argv) == 0
print(json.dumps(sorted(set(sys.modules) - before)))
"""
        assert self.fresh_python(code, tmp_path) == []

    def test_ks_distance_matches_scipy(self):
        from scipy import stats

        rng = np.random.default_rng(12)
        for k in range(300):
            size = 2 + k % 7 if k < 60 else int(rng.integers(2, 500))
            x = rng.normal(rng.uniform(-5.0, 5.0), rng.uniform(0.1, 10.0), size)
            # Odd k: the reference defaults to the sample's own normal.
            ref = (None, None) if k % 2 else (0.5, 2.0)
            m, v = (float(x.mean()), float(x.var(ddof=1))) if k % 2 else ref
            expected = stats.kstest(x, stats.norm(loc=m, scale=math.sqrt(v)).cdf).statistic
            # math.erfc and scipy's ndtr may differ in the last bit of the CDF.
            assert abs(spikedfisher.summarize(x, *ref).ks_distance - expected) <= np.finfo(float).eps, (size, k)


class TestPublicSurface:
    """`spikedfisher` re-exports every submodule's `__all__`, whichever import came first.

    The exports load on first use, so each order runs in a fresh interpreter.
    """

    SUBMODULES = ("errors", "wachter", "spikes", "sampling", "detect", "experiments", "randomness")

    @pytest.mark.parametrize(
        "first",
        [
            "import spikedfisher",
            "import spikedfisher.cli",
            "import spikedfisher.detect",
            "from spikedfisher.detect import SignalModel",
        ],
    )
    def test_surface_under_every_import_order(self, tmp_path, first):
        code = f"""{first}
import json, sys
import spikedfisher as sf
detect, exported = sf.detect, sf.__all__
names = ["__version__"]
for sub in {self.SUBMODULES!r}:
    names += sys.modules["spikedfisher." + sub].__all__
star = {{}}
exec("from spikedfisher import *", star)
print(json.dumps([
    detect is sys.modules["spikedfisher.detect"].detect,
    exported == names,
    [n for n in names if n not in star or star[n] is not getattr(sf, n)],
]))
"""
        assert TestImportPath.fresh_python(code, tmp_path) == [True, True, []]

    def test_import_loads_no_numpy(self, tmp_path):
        code = "import json, sys, spikedfisher; print(json.dumps('numpy' in sys.modules))"
        assert TestImportPath.fresh_python(code, tmp_path) is False


class TestKeepFreedMemory:
    def test_sets_both_thresholds(self, monkeypatch):
        calls = []

        class Libc:
            def __init__(self, name):
                assert name is None
                self.mallopt = lambda *args: calls.append(args)

        monkeypatch.setattr(cli.ctypes, "CDLL", Libc)
        cli._keep_freed_memory()
        assert calls == [(-3, 64 << 20), (-1, 256 << 20)]

    @pytest.mark.parametrize("error", [AttributeError, TypeError])
    def test_does_nothing_without_mallopt(self, monkeypatch, tmp_path, error):
        def no_mallopt(name):
            if error is AttributeError:
                return object()  # a C library without the symbol
            raise error("no C library handle")  # ctypes.CDLL(None) on Windows

        monkeypatch.setattr(cli.ctypes, "CDLL", no_mallopt)
        assert cli._keep_freed_memory() is None
        assert run_cli("law", 0.2, 0.5, "--points", 8, "--out-dir", tmp_path) == 0


class TestBlasDeterminism:
    """Output bytes do not depend on the BLAS thread setting of the machine.

    Sizes are large enough that OpenBLAS splits its work over threads when
    allowed to, which changes the rounding unless the command pins it.
    """

    @staticmethod
    def run_all(tmp_path, blas, inputs):
        env = package_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas is not None:
            env["OPENBLAS_NUM_THREADS"] = blas
        out = tmp_path / f"blas-{blas}"
        out.mkdir()
        commands = [
            ["simulate-clt", "--config", inputs["config"], "--out-dir", "clt", "--threads", "2"],
            ["detect", "--signal", inputs["x"], "--noise", inputs["z"], "--out-dir", "detect"],
        ]
        files = {}
        for i, command in enumerate(commands):
            done = subprocess.run(
                [sys.executable, "-m", "spikedfisher.cli", *map(str, command)],
                cwd=out, env=env, capture_output=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr.decode()
            files[f"stdout{i}"] = done.stdout
        for path in sorted(out.rglob("*.*")):
            data = path.read_bytes()
            if path.name == "manifest.json":
                manifest = json.loads(data)
                del manifest["created_utc"]
                data = json.dumps(manifest, sort_keys=True).encode()
            files[str(path.relative_to(out))] = data
        return files

    def test_bytes_independent_of_openblas_threads(self, tmp_path):
        config = write_clt_config(
            tmp_path / "study.json", dims=[200, 400, 1000], replicates=10, kde_points=21
        )
        rng = np.random.default_rng(8)
        x = rng.standard_normal((250, 1250))
        x[:2] *= 3.0
        np.save(tmp_path / "x.npy", x)
        np.save(tmp_path / "z.npy", rng.standard_normal((250, 500)))
        inputs = {"config": config, "x": tmp_path / "x.npy", "z": tmp_path / "z.npy"}
        reference = self.run_all(tmp_path, None, inputs)
        assert len(reference) == 9
        for blas in ("1", "2"):
            assert self.run_all(tmp_path, blas, inputs) == reference, f"OPENBLAS_NUM_THREADS={blas}"


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("--version")
        assert excinfo.value.code == 0
        assert "spikedfisher" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("frobnicate")
        assert excinfo.value.code == 2

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_readme_python_blocks_run(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
        assert blocks
        done = subprocess.run(
            [sys.executable, "-c", "\n".join(blocks)],
            cwd=tmp_path, env=package_env(), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr

    def test_readme_names_only_existing_flags(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        parsers = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        subsections = section.split("\n### ")[1:]
        assert sorted(chunk.split("\n", 1)[0] for chunk in subsections) == sorted(parsers)
        for chunk in subsections:
            name, body = chunk.split("\n", 1)
            for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", body):
                assert flag in parsers[name]._option_string_actions, f"### {name} names {flag}"
