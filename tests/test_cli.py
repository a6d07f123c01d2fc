import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
            ("backaction_sweep.json", {"ratios": [1.0, 1.0]}),
            ("backaction_sweep.json", {"ratios": [1.0, 1.000000001]}),
            ("backaction_sweep.json", {"ratios": [1.0, 1.00005, 1.0]}),
            ("backaction_sweep.json", {"ratios": [0.0, 0.0]}),
            ("driven_response.json", {"span_hz": -1000}),
            ("driven_response.json", {"span_hz": 0}),
            ("paper_device.json", {"span_hz": -1000}),
            ("driven_response.json", {"span_hz": float("nan")}),
            ("paper_device.json", {"span_hz": float("inf")}),
            # spread by more than 1e-4 of the largest, but too close for the
            # line fit's rank test so far below a ratio of 1
            ("backaction_sweep.json", {"ratios": [0.1, 0.10002]}),
            # every fitted area is divided by the measured rate, so it must
            # not vanish; a zero squeeze ratio is pure cooling and stays valid
            ("squeeze_sweep.json", {"measurement_ratio": 0}),
            ("tomography.json", {"measurement_ratio": 0}),
            ("tomography_cooling.json", {"measurement_ratio": 0.0}),
            ("backaction_sweep.json", {"ratios": [0.0, 1.0]}),
            ("backaction_sweep.json", {"ratios": [1.0, 0.0]}),
        ],
    )
    def test_bad_sweep_value_exits_two_before_any_artifact(self, tmp_path, capsys, name, params):
        assert main(self.bundled_with(tmp_path, name, **params)) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: scenario.params.")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("configured, override", [(-1, None), (7, -5)])
    def test_negative_seed_exits_two_before_any_artifact(self, tmp_path, capsys, configured, override):
        # numpy's SeedSequence takes no negative seed, whether configured or given on the command line
        document = bundled_document("tomography.json")
        document["scenario"]["noise"]["seed"] = configured
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document))
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
        assert main(argv + ([] if override is None else ["--seed", str(override)])) == 2
        err = capsys.readouterr().err
        seed = configured if override is None else override
        assert err.startswith(f"configuration error: noise seed must be non-negative, got {seed}")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("floor", [float("nan"), float("inf"), -1.0])
    def test_bad_noise_floor_exits_two_before_any_artifact(self, tmp_path, capsys, floor):
        document = bundled_document("squeeze_sweep.json")
        document["scenario"]["noise"]["floor"] = floor
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: noise floor must be non-negative and finite")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name, points",
        [
            ("backaction_sweep.json", 2),
            ("backaction_sweep.json", 3),
            ("backaction_sweep.json", 5),
            ("backaction_sweep.json", 9),
            ("squeeze_sweep.json", 2),
            ("tomography.json", 2),
        ],
    )
    def test_grid_too_small_to_fit_exits_four(self, tmp_path, capsys, name, points):
        assert main(self.bundled_with(tmp_path, name, points=points)) == 4
        err = capsys.readouterr().err
        assert "numerical failure: fit needs more than 3 samples" in err
        assert "Traceback" not in err
        # each measurement is fitted before its spectrum is written
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["manifest.json"]

    def test_negative_tomogram_exits_four(self, tmp_path, capsys):
        # a schema-valid grid whose noisy variances fit to a negative moment
        assert main(self.bundled_with(tmp_path, "tomography.json", points=4)) == 4
        err = capsys.readouterr().err
        assert "numerical failure: fitted variance model is negative" in err
        assert "Traceback" not in err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failure"].startswith("FitError")

    def test_failed_sweep_keeps_the_completed_points(self, tmp_path, capsys):
        # point_00 completes; the squeeze ratio of point_01 makes the model unstable
        assert main(self.bundled_with(tmp_path, "squeeze_sweep.json", ratios=[0.2, 1.5])) == 3
        assert capsys.readouterr().err.startswith("instability: ")
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failure"].startswith("InstabilityError")
        assert manifest["failure_point"] == "point_01 (squeeze_ratio 1.5)"
        assert sorted(manifest["timings_s"]) == ["point_00", "total"]
        assert not (out / "fit_units.json").exists()
        assert manifest["artifacts"] == point_files(
            1, "_angle0.csv", "_angle0_fit.json", "_angle1.csv", "_angle1_fit.json"
        )
        assert sorted(p.name for p in out.iterdir()) == sorted(manifest["artifacts"] + ["manifest.json"])

    def test_zero_area_sideband_exits_four(self, tmp_path, capsys):
        assert main(self.bundled_with(tmp_path, "backaction_sweep.json", ratios=[1e-6, 0.1])) == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "Traceback" not in err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failure"].startswith("FitError")


# Values that each replace one field of a bundled configuration's params or
# noise section, or the first or last entry of a list there
PERTURBATIONS = (0, -1, 1e-12, 1e12, math.nan, math.inf)


def perturbable_fields(document):
    """(section, key, list index or None) of every params and noise field."""
    fields = []
    for section in ("params", "noise"):
        for key, value in document["scenario"][section].items():
            indices = (0, len(value) - 1) if isinstance(value, list) else (None,)
            fields += [(section, key, i) for i in indices]
    return fields


@st.composite
def perturbed_documents(draw):
    """A bundled configuration on at most 101 grid points, with one field perturbed."""
    document = bundled_document(draw(st.sampled_from(BUNDLED)))
    params = document["scenario"]["params"]
    params["points"] = min(params.get("points", 2001), 101)
    section, key, index = draw(st.sampled_from(perturbable_fields(document)))
    value = draw(st.sampled_from(PERTURBATIONS))
    if index is None:
        document["scenario"][section][key] = value
    else:
        document["scenario"][section][key][index] = value
    return document


@settings(max_examples=120, deadline=None)
@given(document=perturbed_documents())
def test_schema_valid_input_never_exits_one(document):
    # a configuration runs, or exits with a documented code: 2 config, 3
    # instability, 4 numerics; an uncaught exception fails the test itself
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(document))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


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


MANIFEST_KEYS = [
    "artifacts", "config_digest", "failure", "failure_point", "scenario",
    "seed", "status", "timings_s", "toolkit_version",
]


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
        # perfbench counts each ``point_`` timing as one item
        written = json.loads((tmp_path / "manifest.json").read_text())
        n_points = len({a[:8] for a in expected if a.startswith("point_")})
        assert list(written["timings_s"]) == [f"point_{k:02d}" for k in range(n_points)] + ["total"]
        assert sorted(written) == MANIFEST_KEYS


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


def _load_tracer(monkeypatch):
    """perfbench's span tracer, loaded from its file; perfbench is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestTracedBenchmark:
    """perfbench times the layers it names by patching them where callers look them up."""

    SWEEP_LAYERS = {
        "scenarios.run_scenario",
        "dynamics.output_spectrum",
        "synthesis.synthesize",
        "inference.fit_lorentzian",
        "synthesis.write_noisy_csv",
        "inference.write_fit_records",
    }

    def test_a_traced_sweep_records_every_sweep_layer(self, tmp_path, monkeypatch):
        import twotone.config  # noqa: F401  the tracer looks each layer up in sys.modules
        import twotone.scenarios  # noqa: F401

        tracer_module = _load_tracer(monkeypatch)
        for qualified in tracer_module.LAYERS:
            module_name, func_name = qualified.split(".")
            assert callable(getattr(sys.modules[f"twotone.{module_name}"], func_name, None)), qualified
        path = tmp_path / "config.json"
        path.write_text(json.dumps(bundled_document("backaction_sweep.json", ratios=[0.5, 1.0])))
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        finally:
            tracer.uninstall()
        assert code == 0
        assert {span.name for span in tracer.spans} >= self.SWEEP_LAYERS


def _scipy_modules_after(script, *args):
    """Run ``script`` in a fresh interpreter; its last stdout line is JSON.

    The script's own result comes back together with every scipy and
    numpy.ma module loaded when it ended: numpy loads numpy.ma lazily, in
    np.median and np.unique among others.
    """
    src = str(Path(twotone.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    epilogue = (
        "\nprint(json.dumps([result, sorted(m for m in sys.modules"
        ' if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])]))\n'
    )
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + script + epilogue, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# Imports the package the way the console script does and runs a sweep.
_RUN_PROBE = """
import twotone, twotone.cli, twotone.scenarios
result = twotone.cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
"""

# The library calls of the three-way referee on one resonant drive set.
_CROSSVAL_PROBE = """
import math
from twotone import dynamics, oracle
from twotone.config import bundled_config_path, load_config
from twotone.sysmodel import DriveSet, drive_pair
cfg, _, _ = load_config(bundled_config_path("paper_device.json"))
rate = 300.0 * cfg.mech.gamma
ds = DriveSet(drive_pair(2, rate, 0.1 * rate) + drive_pair(1, 0.1 * rate, 0.1 * rate, angle=0.5))
lyap = dynamics.mechanical_marginal(dynamics.steady_covariance(dynamics.build_linear_model(cfg, ds)))
state = oracle.converged_steady_state(oracle.EffectiveDissipators.from_drives(cfg.mech, ds))
exact = oracle.quad_variance(state, 0.0), oracle.quad_variance(state, math.pi / 2.0)
result = [state.n_trunc, abs(exact[0] / lyap.v1 - 1.0) < 0.01, abs(exact[1] / lyap.v2 - 1.0) < 0.01]
"""


class TestImports:
    def test_run_loads_no_scipy(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(bundled_document("backaction_sweep.json", ratios=[0.1, 2.44])))
        assert _scipy_modules_after(_RUN_PROBE, config, tmp_path / "out") == [0, []]

    def test_tomography_run_loads_no_scipy(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(bundled_document("tomography.json", n_phases=6)))
        assert _scipy_modules_after(_RUN_PROBE, config, tmp_path / "out") == [0, []]

    def test_crossval_loads_no_scipy(self):
        assert _scipy_modules_after(_CROSSVAL_PROBE) == [[18, True, True], []]

    def test_import_leaves_the_table_kernel_unloaded(self):
        # the first table written compiles the kernel, not `import twotone`
        probe = "import twotone, twotone.cli, twotone.scenarios\nresult = 'twotone._fields' in sys.modules"
        assert _scipy_modules_after(probe) == [False, []]
