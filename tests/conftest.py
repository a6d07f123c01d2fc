import math

import numpy as np
import pytest

from twotone.sysmodel import Cavity, Drive, DriveSet, MechanicalMode, SystemConfig, drive_pair

TWO_PI = 2.0 * math.pi


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
