import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from twotone import scenarios
from twotone.config import bundled_config_path, parse_config
from twotone.errors import FitError
from twotone.inference import fit_lorentzian
from twotone.oracle import EffectiveDissipators
from twotone.sysmodel import Cavity, Drive, DriveSet, MechanicalMode, SystemConfig, drive_pair

TWO_PI = 2.0 * math.pi

# Every run checks the same examples: each property's draws follow from a hash
# of the test, not from a random seed or the example database.
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def mech():
    return MechanicalMode(omega=TWO_PI * 14.98e6, gamma=TWO_PI * 9.2, n_thermal=42.0)


@pytest.fixture(scope="session")
def cfg(mech):
    return SystemConfig(
        mech=mech,
        cavities=(
            Cavity(omega=TWO_PI * 8.89e9, kappa=TWO_PI * 1.7e6, g0=TWO_PI * 145.0),
            Cavity(omega=TWO_PI * 9.93e9, kappa=TWO_PI * 2.1e6, g0=TWO_PI * 170.0),
        ),
    )


@pytest.fixture(scope="session")
def cooling_529(mech):
    """Ground-state cooling configuration: single lower-sideband control tone."""
    return DriveSet((Drive(2, "lower", 529.0 * mech.gamma),))


@pytest.fixture(scope="session")
def squeeze_007(mech):
    """Engineered squeezed bath at drive-rate ratio 0.07, strong cooling."""
    rate = 1643.0 * mech.gamma
    return DriveSet(drive_pair(2, rate, 0.07 * rate))


def device_drives(mech, g_minus, plus_ratio, meas_ratio=0.0, angle=0.0):
    """Squeezing pair on cavity 2 plus an optional balanced measurement pair
    on cavity 1, rates in units of the mechanical damping."""
    rate = g_minus * mech.gamma
    drives = drive_pair(2, rate, plus_ratio * rate)
    if meas_ratio:
        drives += drive_pair(1, meas_ratio * rate, meas_ratio * rate, angle=angle)
    return DriveSet(drives)


# Drive sets of ``device_drives`` and the oracle truncation ladder rung each
# converges on, from 8 up to 62
LADDER_CASES = [
    (2000.0, 0.0, 0.0, 0.0, 8),
    (1000.0, 0.05, 0.0, 0.0, 12),
    (300.0, 0.1, 0.1, 0.5, 18),
    (200.0, 0.2, 0.3, 1.0, 27),
    (100.0, 0.3, 0.5, 2.0, 41),
    (60.0, 0.25, 0.9, 0.3, 62),
]


coefficient = st.complex_numbers(max_magnitude=30.0, allow_nan=False, allow_infinity=False)

dissipators = st.builds(
    EffectiveDissipators,
    gamma_m=st.floats(min_value=0.01, max_value=10.0),
    n_thermal=st.floats(min_value=0.0, max_value=50.0),
    engineered=st.lists(st.tuples(coefficient, coefficient), max_size=3).map(tuple),
)

angle = st.floats(min_value=0.0, max_value=math.pi)

# A squeezing pair on cavity 2 and an unbalanced pair on cavity 1, both on
# resonance: (G-, G+/G-, angle, Gmeas-/G-, Gmeas+/Gmeas-, angle) with rates in
# units of the mechanical damping. Every pair damps, so the steady state exists.
resonant_pairs = st.tuples(
    st.floats(min_value=30.0, max_value=2000.0),
    st.floats(min_value=0.0, max_value=0.9),
    angle,
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    angle,
)


def device_drive_set(mech, g_minus, plus_ratio, theta, meas_ratio, meas_plus, phi):
    rate = g_minus * mech.gamma
    return DriveSet(
        drive_pair(2, rate, plus_ratio * rate, angle=theta)
        + drive_pair(1, meas_ratio * rate, meas_plus * meas_ratio * rate, angle=phi)
    )


def qnd_config(mech, ratio, *, cooling=529.0, angle=0.0, detuning=0.0):
    """Cooling tone plus a balanced measurement pair at the given strength."""
    g2 = cooling * mech.gamma
    return DriveSet(
        (Drive(2, "lower", g2),) + drive_pair(1, ratio * g2, ratio * g2, angle=angle, detuning=detuning)
    )


def sample_truncation_estimate(v1, v2):
    """Pessimistic Fock truncation for variances (v1, v2), kept only to pick samples.

    The oracle tests draw random squeezed baths and skip those whose
    estimate exceeds a budget; this expression fixes which draws they check.
    """
    v_max = max(v1, v2, 1.0 + 1e-12)
    ratio = (v_max - 1.0) / (v_max + 1.0)
    if ratio <= 0.0:
        return 8
    levels = 2.0 * np.log(1e-6 / 30.0) / np.log(ratio)
    return int(max(8, np.ceil(levels + 10)))


def lab_frame(blocks):
    """The blocks rotated back to theta = 0, where the couplings carry arg(C)."""
    turn = np.exp(2j * blocks.theta)
    return dataclasses.replace(
        blocks, up=blocks.up * turn, down=blocks.down * turn.conjugate(), theta=0.0
    )


def scenario_fits(monkeypatch, tmp_path, name, **params):
    """(spectrum, fwhm, center) of every Lorentzian fit a bundled scenario makes at seed 11."""
    document = json.loads(bundled_config_path(name).read_text())
    document["scenario"]["params"].update(params)
    cfg, ds, scenario = parse_config(document)
    fits = []

    def spy(ns, *, fwhm=None, center=None):
        fits.append((ns, fwhm, center))
        return fit_lorentzian(ns, fwhm=fwhm, center=center)

    monkeypatch.setattr(scenarios, "fit_lorentzian", spy)
    try:
        scenarios.run_scenario(cfg, ds, scenario, tmp_path, seed=11)
    except FitError:
        pass  # a tomogram of 4-point spectra fits to a negative moment
    monkeypatch.undo()
    return fits


@pytest.fixture(scope="session")
def fit_corpus(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        return {
            # pinned fits of the on-sideband pairs, windowed sideband fits of
            # the detuned pair
            "backaction": scenario_fits(
                mp, tmp_path_factory.mktemp("ba"), "backaction_sweep.json", ratios=[0.1, 2.44]
            ),
            # one free four-parameter fit
            "single": scenario_fits(mp, tmp_path_factory.mktemp("single"), "paper_device.json"),
            # one degree of freedom per fit
            "tomography_4": scenario_fits(
                mp, tmp_path_factory.mktemp("tomo"), "tomography.json", points=4
            ),
        }
