import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twotone
from twotone.cli import main
from twotone.config import bundled_config_path, load_config, parse_config
from twotone.errors import ConfigError
from twotone.scenarios import run_scenario
from twotone.sysmodel import validate_system

TWO_PI = 2.0 * math.pi

BUNDLED = (
    "paper_device.json",
    "backaction_sweep.json",
    "squeeze_sweep.json",
    "tomography.json",
    "tomography_cooling.json",
    "driven_response.json",
)


def minimal_document():
    return {
        "system": {
            "mechanics": {"frequency_hz": 14.98e6, "damping_hz": 9.2, "thermal_occupancy": 42.0},
            "cavities": [
                {
                    "frequency_hz": 8.89e9,
                    "linewidth_hz": 1.7e6,
                    "external_coupling_hz": 1.615e6,
                    "vacuum_coupling_hz": 145.0,
                    "thermal_occupancy": 0.0,
                },
                {
                    "frequency_hz": 9.93e9,
                    "linewidth_hz": 2.1e6,
                    "external_coupling_hz": 1.995e6,
                    "vacuum_coupling_hz": 170.0,
                    "thermal_occupancy": 0.0,
                },
            ],
        },
        "drives": [
            {"cavity": 2, "sideband": "lower", "rate_hz": 4866.8, "detuning_hz": 0.0, "phase_rad": 0.0}
        ],
        "scenario": {
            "name": "single_spectrum",
            "noise": {"floor": 20.0, "averages": 100, "seed": 3},
            "params": {"cavity": 2, "points": 301},
        },
    }


def bundled_document(name, **params):
    document = json.loads(bundled_config_path(name).read_text())
    document["scenario"]["params"].update(params)
    return document


class TestConfigParsing:
    def test_bundled_device_loads_and_validates(self):
        cfg, ds, scenario = load_config(bundled_config_path("paper_device.json"))
        assert validate_system(cfg, ds).passed
        assert cfg.mech.omega == pytest.approx(TWO_PI * 14.98e6)
        assert cfg.cavity(1).g0 == pytest.approx(TWO_PI * 145.0)
        assert cfg.cavity(2).kappa == pytest.approx(TWO_PI * 2.1e6)
        assert ds.rate(2, "lower") == pytest.approx(TWO_PI * 4866.8)
        assert scenario.name == "single_spectrum"

    @pytest.mark.parametrize("name", BUNDLED)
    def test_all_bundled_configs_load(self, name):
        cfg, ds, scenario = load_config(bundled_config_path(name))
        assert validate_system(cfg, ds).passed

    def test_missing_field_names_path(self):
        document = minimal_document()
        del document["system"]["mechanics"]["damping_hz"]
        with pytest.raises(ConfigError, match="damping_hz"):
            parse_config(document)

    def test_unknown_key_rejected(self):
        document = minimal_document()
        document["system"]["mechanics"]["quality_factor"] = 1e6
        with pytest.raises(ConfigError, match="quality_factor"):
            parse_config(document)

    def test_unknown_scenario_rejected(self):
        document = minimal_document()
        document["scenario"]["name"] = "frequency_conversion"
        with pytest.raises(ConfigError, match="frequency_conversion"):
            parse_config(document)

    def test_bad_sideband_rejected(self):
        document = minimal_document()
        document["drives"][0]["sideband"] = "middle"
        with pytest.raises(ConfigError, match="sideband"):
            parse_config(document)

    def test_physics_violation_becomes_config_error(self):
        document = minimal_document()
        document["system"]["cavities"][0]["external_coupling_hz"] = 3e6
        with pytest.raises(ConfigError, match="kappa_ext"):
            parse_config(document)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "system": [,\n}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")


class TestCli:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        from twotone import __version__

        assert capsys.readouterr().out.strip() == __version__

    def test_validate_bundled(self, capsys):
        path = str(bundled_config_path("paper_device.json"))
        assert main(["validate", "--config", path]) == 0
        assert "configuration valid" in capsys.readouterr().out

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["validate", "--config", str(path)]) == 2
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_run_single_spectrum(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_document()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        for artifact in manifest["artifacts"]:
            assert (out / artifact).exists()

    def test_unstable_squeeze_point_exits_three(self, tmp_path):
        document = minimal_document()
        document["scenario"] = {
            "name": "squeeze_sweep",
            "noise": {"floor": 20.0, "averages": 100, "seed": 3},
            "params": {"ratios": [1.5], "measurement_ratio": 0.2, "points": 301},
        }
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(document))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "Instability" in manifest["failure"]
        assert "point_00" in manifest["failure_point"]

    def test_scenario_override_mismatch(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_document()))
        code = main(
            ["run", "--config", str(path), "--out", str(tmp_path / "o"), "--scenario", "tomography"]
        )
        assert code == 2

    def test_seed_override_changes_samples(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_document()))
        main(["run", "--config", str(path), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(path), "--out", str(tmp_path / "b"), "--seed", "99"])
        a = (tmp_path / "a" / "noisy.csv").read_text()
        b = (tmp_path / "b" / "noisy.csv").read_text()
        assert a != b
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_rerun_is_byte_identical(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_document()))
        for sub in ("a", "b"):
            assert main(["run", "--config", str(path), "--out", str(tmp_path / sub)]) == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        for artifact in manifest["artifacts"]:
            first = (tmp_path / "a" / artifact).read_bytes()
            second = (tmp_path / "b" / artifact).read_bytes()
            assert first == second, artifact


class TestExitCodes:
    """Inputs that used to end in a traceback and exit 1."""

    @staticmethod
    def bundled_with(tmp_path, name, **params):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(bundled_document(name, **params)))
        return ["run", "--config", str(path), "--out", str(tmp_path / "out")]

    def test_negative_ratio_exits_two(self, tmp_path, capsys):
        assert main(self.bundled_with(tmp_path, "backaction_sweep.json", ratios=[-0.1, 0.1])) == 2
        err = capsys.readouterr().err
        assert "scattering rate must be non-negative" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, params",
        [
            ("backaction_sweep.json", {"ratios": [0.1, -0.1]}),
            ("backaction_sweep.json", {"ratios": [float("nan"), 0.1]}),
            ("backaction_sweep.json", {"ratios": [0.1, float("inf")]}),
            ("backaction_sweep.json", {"ratios": [0.1]}),
            ("backaction_sweep.json", {"pair_detuning_hz": 0}),
            ("backaction_sweep.json", {"pair_detuning_hz": -5e4}),
            ("backaction_sweep.json", {"points": 1}),
            ("squeeze_sweep.json", {"ratios": [0.1, -0.2]}),
            ("squeeze_sweep.json", {"measurement_ratio": -0.1}),
            ("squeeze_sweep.json", {"measurement_ratio": float("nan")}),
            ("tomography.json", {"measurement_ratio": -0.3}),
            ("driven_response.json", {"points": 0}),
        ],
    )
    def test_bad_sweep_value_exits_two_before_any_artifact(self, tmp_path, capsys, name, params):
        assert main(self.bundled_with(tmp_path, name, **params)) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: scenario.params.")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name, points",
        [
            ("backaction_sweep.json", 2),
            ("backaction_sweep.json", 3),
            ("backaction_sweep.json", 5),
            ("squeeze_sweep.json", 2),
            ("tomography.json", 2),
        ],
    )
    def test_grid_too_small_to_fit_exits_four(self, tmp_path, capsys, name, points):
        assert main(self.bundled_with(tmp_path, name, points=points)) == 4
        err = capsys.readouterr().err
        assert "numerical failure: fit needs more than 3 samples" in err
        assert "Traceback" not in err

    def test_negative_tomogram_exits_four(self, tmp_path, capsys):
        # a schema-valid grid whose noisy variances fit to a negative moment
        assert main(self.bundled_with(tmp_path, "tomography.json", points=4)) == 4
        err = capsys.readouterr().err
        assert "numerical failure: fitted variance model is negative" in err
        assert "Traceback" not in err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failure"].startswith("FitError")

    def test_zero_area_sideband_exits_four(self, tmp_path, capsys):
        assert main(self.bundled_with(tmp_path, "backaction_sweep.json", ratios=[1e-6, 0.1])) == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "Traceback" not in err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failure"].startswith("FitError")


class TestScenarioSchema:
    """Each scenario's params checks, with the path of the offending field."""

    def test_unknown_name_lists_every_scenario(self):
        document = minimal_document()
        document["scenario"]["name"] = "frequency_conversion"
        with pytest.raises(ConfigError) as info:
            parse_config(document)
        assert str(info.value) == (
            "scenario.name must be one of ('backaction_sweep', 'squeeze_sweep', "
            "'tomography', 'driven_response', 'single_spectrum'), got 'frequency_conversion'"
        )

    @pytest.mark.parametrize(
        "name",
        ["backaction_sweep.json", "squeeze_sweep.json", "tomography.json", "driven_response.json", "paper_device.json"],
    )
    def test_unknown_param_rejected(self, name):
        with pytest.raises(ConfigError) as info:
            parse_config(bundled_document(name, gain_db=3.0))
        assert str(info.value) == "unknown field scenario.params.gain_db"

    def test_too_few_phases_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config(bundled_document("tomography.json", n_phases=4))
        assert str(info.value) == "scenario.params.n_phases must be at least 5"

    @pytest.mark.parametrize("name", ["paper_device.json", "driven_response.json"])
    def test_third_cavity_rejected(self, name):
        with pytest.raises(ConfigError) as info:
            parse_config(bundled_document(name, cavity=3))
        assert str(info.value) == "scenario.params.cavity must be 1 or 2"


def point_files(n, *suffixes):
    return [f"point_{k:02d}{suffix}" for k in range(n) for suffix in suffixes]


class TestScenarioArtifacts:
    """The artifact names of a small run of each scenario."""

    @pytest.mark.parametrize(
        "name, params, expected",
        [
            (
                "backaction_sweep.json",
                {"ratios": [0.5, 1.0]},
                ["backaction.csv", "fit_units.json"]
                + point_files(
                    2,
                    "_nonqnd.csv", "_nonqnd_fit.json",
                    "_qnd_cav1.csv", "_qnd_cav1_fit.json",
                    "_qnd_cav2.csv", "_qnd_cav2_fit.json",
                )
                + ["summary.json"],
            ),
            (
                "squeeze_sweep.json",
                {"ratios": [0.05], "points": 501},
                ["fit_units.json"]
                + point_files(1, "_angle0.csv", "_angle0_fit.json", "_angle1.csv", "_angle1_fit.json")
                + ["squeeze.csv", "summary.json"],
            ),
            (
                "tomography.json",
                {"n_phases": 5, "points": 501},
                ["fit_units.json"] + point_files(5, ".csv", "_fit.json") + ["summary.json", "tomogram.csv"],
            ),
            (
                "driven_response.json",
                {"points": 201},
                ["fit_units.json", "response.csv", "summary.json"],
            ),
            (
                "paper_device.json",
                {"points": 501},
                ["fit.json", "fit_units.json", "noisy.csv", "spectrum.csv", "summary.json"],
            ),
        ],
    )
    def test_artifact_names(self, tmp_path, name, params, expected):
        cfg, ds, scenario = parse_config(bundled_document(name, **params))
        manifest = run_scenario(cfg, ds, scenario, tmp_path)
        assert manifest.status == "complete"
        assert sorted(manifest.artifacts) == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected + ["manifest.json"])


class TestScenarioRequirements:
    def test_backaction_needs_cooling_drive(self, tmp_path):
        document = minimal_document()
        document["drives"] = []
        document["scenario"] = {
            "name": "backaction_sweep",
            "noise": {"floor": 20.0, "averages": 100, "seed": 3},
            "params": {"ratios": [0.5], "pair_detuning_hz": 5e4, "points": 301},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_tomography_rejects_measurement_drives_in_config(self, tmp_path):
        document = minimal_document()
        document["drives"].append(
            {"cavity": 1, "sideband": "lower", "rate_hz": 100.0, "detuning_hz": 0.0, "phase_rad": 0.0}
        )
        document["scenario"] = {
            "name": "tomography",
            "noise": {"floor": 20.0, "averages": 100, "seed": 3},
            "params": {"n_phases": 5, "measurement_ratio": 0.3, "points": 301},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


# Imports the package the way the console script does, runs a sweep, and
# prints the exit code and every scipy.optimize module then loaded.
_IMPORT_PROBE = """
import json, sys
import twotone, twotone.cli, twotone.scenarios
code = twotone.cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("scipy.optimize"))]))
"""


class TestImports:
    def test_run_loads_no_scipy_optimize(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(bundled_document("backaction_sweep.json", ratios=[0.1, 2.44])))
        src = str(Path(twotone.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(config), str(tmp_path / "out")],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [0, []]
