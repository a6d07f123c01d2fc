"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. The synthetic-measurement criteria reuse module-scoped scenario runs
with the bundled configurations and fixed seeds.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import sample_truncation_estimate
from twotone.analytic import quadrature_variances
from twotone.config import bundled_config_path, load_config
from twotone.dynamics import (
    build_linear_model,
    effective_linewidth,
    mechanical_marginal,
    steady_covariance,
    transparency_window_fwhm,
)
from twotone.oracle import (
    EffectiveDissipators,
    converged_steady_state,
    quad_variance,
)
from twotone.scenarios import run_scenario
from twotone.sysmodel import Drive, DriveSet, drive_pair

TWO_PI = 2.0 * math.pi


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _run_bundled(name, tmp_path_factory, label):
    cfg, ds, scenario = load_config(bundled_config_path(name))
    out = tmp_path_factory.mktemp(label)
    start = time.perf_counter()
    run_scenario(cfg, ds, scenario, out)
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def backaction_run(tmp_path_factory):
    return _run_bundled("backaction_sweep.json", tmp_path_factory, "backaction")


@pytest.fixture(scope="module")
def squeeze_run(tmp_path_factory):
    return _run_bundled("squeeze_sweep.json", tmp_path_factory, "squeeze")


@pytest.fixture(scope="module")
def tomography_runs(tmp_path_factory):
    iso, _ = _run_bundled("tomography_cooling.json", tmp_path_factory, "tomo_iso")
    squeezed, _ = _run_bundled("tomography.json", tmp_path_factory, "tomo_sq")
    return iso, squeezed


def _read_table(path):
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data


def figure_drive_sets(mech):
    """Resonant drive configurations appearing in the two experiments."""
    g2_cool = 529.0 * mech.gamma
    g2_strong = 1643.0 * mech.gamma
    sets = {"cooling": DriveSet((Drive(2, "lower", g2_cool),))}
    for ratio in (0.9, 2.44):
        sets[f"qnd_{ratio}"] = DriveSet(
            (Drive(2, "lower", g2_cool),) + drive_pair(1, ratio * g2_cool, ratio * g2_cool)
        )
    meas = 0.48 * g2_strong
    for phi in (0.0, math.pi / 4.0, math.pi / 2.0):
        sets[f"iso_phi{phi:.2f}"] = DriveSet(
            (Drive(2, "lower", g2_strong),) + drive_pair(1, meas, meas, angle=phi)
        )
        sets[f"squeezed_phi{phi:.2f}"] = DriveSet(
            drive_pair(2, g2_strong, 0.07 * g2_strong) + drive_pair(1, meas, meas, angle=phi)
        )
    for ratio in (0.005, 0.02, 0.14, 0.3):
        sets[f"sweep_{ratio}"] = DriveSet(drive_pair(2, g2_strong, ratio * g2_strong))
    return sets


def test_criterion_1_formula_cross_validation(cfg, mech):
    worst = 0.0
    slowest = 0.0
    for name, ds in figure_drive_sets(mech).items():
        start = time.perf_counter()
        lyapunov = mechanical_marginal(steady_covariance(build_linear_model(cfg, ds)))
        elapsed = time.perf_counter() - start
        closed = quadrature_variances(mech, ds)
        dev = max(
            abs(lyapunov.v1 / closed.v1 - 1.0),
            abs(lyapunov.v2 / closed.v2 - 1.0),
        )
        worst = max(worst, dev)
        slowest = max(slowest, elapsed)
        assert dev < 0.01, f"{name}: deviation {dev:.2e}"
        assert elapsed < 1.0
    _report(
        1,
        worst < 0.01 and slowest < 1.0,
        f"Lyapunov vs closed form on {len(figure_drive_sets(mech))} drive configs: "
        f"worst relative deviation {worst:.2e} (< 1e-2), slowest solve {slowest * 1e3:.0f} ms",
    )


def test_criterion_2_oracle_validation():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    largest_n = 0
    checked = 0
    while checked < 20:
        n_th = rng.uniform(0.0, 3.0)
        g_minus = rng.uniform(2.0, 300.0)
        g_plus = rng.uniform(0.0, 0.9) * g_minus
        den = 1.0 + g_minus - g_plus
        v1 = (2.0 * n_th + 1.0 + (math.sqrt(g_minus) - math.sqrt(g_plus)) ** 2) / den
        v2 = (2.0 * n_th + 1.0 + (math.sqrt(g_minus) + math.sqrt(g_plus)) ** 2) / den
        if sample_truncation_estimate(v1, v2) > 56:
            continue  # converged truncation would exceed the N <= 60 budget
        checked += 1
        d = EffectiveDissipators(
            gamma_m=1.0,
            n_thermal=n_th,
            engineered=((math.sqrt(g_minus), math.sqrt(g_plus)),),
        )
        state = converged_steady_state(d)
        largest_n = max(largest_n, state.n_trunc)
        dev = max(
            abs(quad_variance(state, 0.0) / v1 - 1.0),
            abs(quad_variance(state, math.pi / 2.0) / v2 - 1.0),
        )
        worst = max(worst, dev)
        assert dev < 0.005
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst < 0.005 and elapsed < 30.0 and largest_n <= 60,
        f"20 random master-equation solves: worst deviation {worst:.2e} (< 5e-3), "
        f"largest truncation {largest_n} (<= 60), total {elapsed:.1f} s (< 30 s)",
    )


def test_criterion_3_qnd_invariance(cfg, mech):
    g2 = 529.0 * mech.gamma
    base = DriveSet((Drive(2, "lower", g2),))
    closed_base = quadrature_variances(mech, base)
    lyap_base = mechanical_marginal(steady_covariance(build_linear_model(cfg, base)))
    worst_v1 = 0.0
    worst_v2 = 0.0
    for ratio in (0.1, 0.5, 0.9, 1.5, 2.44):
        gamma_meas = ratio * g2
        ds = DriveSet((Drive(2, "lower", g2),) + drive_pair(1, gamma_meas, gamma_meas))
        closed = quadrature_variances(mech, ds)
        assert closed.v1 == closed_base.v1  # exact cancellation
        lyap = mechanical_marginal(steady_covariance(build_linear_model(cfg, ds)))
        worst_v1 = max(worst_v1, abs(lyap.v1 / lyap_base.v1 - 1.0))
        expected_rise = 4.0 * gamma_meas / (mech.gamma + g2)
        worst_v2 = max(worst_v2, abs((lyap.v2 - lyap_base.v2) / expected_rise - 1.0))
        assert closed.v2 - closed_base.v2 == pytest.approx(expected_rise, rel=1e-12)
    _report(
        3,
        worst_v1 < 1e-6 and worst_v2 < 0.01,
        "single-quadrature invariance over measurement strengths up to 2.44: "
        f"max relative v1 shift {worst_v1:.2e} (< 1e-6), "
        f"v2 backaction rise within {worst_v2:.2e} of 4 G1/(gamma_m+G2) (< 1e-2)",
    )


def test_criterion_4_backaction_linearity(backaction_run):
    out, elapsed = backaction_run
    summary = json.loads((out / "summary.json").read_text())
    slope = summary["line_fit"]["slope"]
    intercept = summary["line_fit"]["intercept"]
    ok = abs(slope - 1.0) < 0.05 and abs(intercept - 42.0 / 530.0) < 0.02 and elapsed < 120.0
    _report(
        4,
        ok,
        f"synthetic occupancy vs strength: slope {slope:.4f} (1.00 +- 0.05), "
        f"intercept {intercept:.4f} ({42.0 / 530.0:.4f} +- 0.02), run {elapsed:.1f} s (< 120 s)",
    )


def test_criterion_5_sideband_asymmetry(backaction_run):
    out, _ = backaction_run
    summary = json.loads((out / "summary.json").read_text())
    devs = [
        abs(row["calibration_factor"] - row["asymmetry_expected"])
        / row["calibration_factor_err"]
        for row in summary["asymmetry"]
    ]
    # precision-weighted mean relative bias across the sweep (scatter only,
    # no systematic offset above 1%)
    rel = np.array(
        [r["calibration_factor"] / r["asymmetry_expected"] - 1.0 for r in summary["asymmetry"]]
    )
    weights = np.array(
        [(r["asymmetry_expected"] / r["calibration_factor_err"]) ** 2 for r in summary["asymmetry"]]
    )
    mean_bias = float(np.sum(weights * rel) / np.sum(weights))
    _report(
        5,
        max(devs) < 3.0 and abs(mean_bias) < 0.01,
        f"Stokes/anti-Stokes calibration factor vs n/(n+1) across {len(devs)} strengths: "
        f"worst deviation {max(devs):.2f} sigma (< 3), mean bias {mean_bias:+.4f} (< 0.01)",
    )


def test_criterion_6_squeezing_sweep(mech, squeeze_run):
    out, _ = squeeze_run
    header, data = _read_table(out / "squeeze.csv")
    ratios = data[:, header.index("squeeze_ratio")]
    v1_theory = data[:, header.index("v1_theory")]
    assert np.all(v1_theory < 1.0)
    at_007 = int(np.argmin(np.abs(ratios - 0.07)))
    theory_value = v1_theory[at_007]
    assert theory_value == pytest.approx(0.6368, abs=1e-4)
    v1 = data[at_007, header.index("v1")]
    err = data[at_007, header.index("v1_err")]
    significance = (1.0 - v1) / err
    _report(
        6,
        bool(np.all(v1_theory < 1.0)) and significance >= 3.0,
        f"theory v1 < 1 across ratios (min {v1_theory.min():.4f}), v1(0.07) = "
        f"{theory_value:.4f} (= 0.6368), synthetic sub-vacuum significance "
        f"{significance:.1f} sigma (>= 3)",
    )


def test_criterion_7_tomography_isotropy(tomography_runs):
    iso, _ = tomography_runs
    summary = json.loads((iso / "summary.json").read_text())
    t = summary["tomogram"]
    aniso = abs(t["v2"] - t["v1"]) / math.hypot(t["v1_err"], t["v2_err"])
    cross = abs(t["v12"]) / t["v12_err"]
    occupancy = summary["occupancy"]
    ok = aniso < 3.0 and cross < 3.0 and occupancy < 0.1
    _report(
        7,
        ok,
        f"cooled-state tomogram: |v2-v1| {aniso:.2f} sigma and v12 {cross:.2f} sigma "
        f"from zero (< 3), occupancy {occupancy:.4f} (< 0.1)",
    )


def test_criterion_8_heisenberg_and_purity(cfg, mech, squeeze_run, tomography_runs):
    # simulated states satisfy the uncertainty product outright
    worst_det = math.inf
    for ds in figure_drive_sets(mech).values():
        m = mechanical_marginal(steady_covariance(build_linear_model(cfg, ds)))
        worst_det = min(worst_det, m.v1 * m.v2 - m.v12**2)
    assert worst_det >= 1.0 - 1e-9

    # fitted states satisfy it within three standard errors
    out, _ = squeeze_run
    header, data = _read_table(out / "squeeze.csv")
    fitted_margin = math.inf
    for row in data:
        v1, e1 = row[header.index("v1")], row[header.index("v1_err")]
        v2, e2 = row[header.index("v2")], row[header.index("v2_err")]
        det = v1 * v2
        sigma = math.hypot(v2 * e1, v1 * e2)
        fitted_margin = min(fitted_margin, (det - 1.0) / sigma)
    for run_dir in tomography_runs:
        summary = json.loads((run_dir / "summary.json").read_text())
        t = summary["tomogram"]
        det = t["v1"] * t["v2"] - t["v12"] ** 2
        sigma = math.hypot(t["v2"] * t["v1_err"], t["v1"] * t["v2_err"])
        fitted_margin = min(fitted_margin, (det - 1.0) / sigma)

    closed = quadrature_variances(mech, DriveSet(drive_pair(2, 1643.0 * mech.gamma, 0.07 * 1643.0 * mech.gamma)))
    purity = 1.0 / math.sqrt(closed.v1 * closed.v2 - closed.v12**2)
    ok = worst_det >= 1.0 - 1e-9 and fitted_margin > -3.0 and abs(purity - 0.941) < 1e-3
    _report(
        8,
        ok,
        f"uncertainty product: simulated min det {worst_det:.4f} (>= 1), fitted margin "
        f"{fitted_margin:.1f} sigma (> -3); ideal purity at ratio 0.07 = {purity:.4f} (0.941 +- 0.001)",
    )


def test_criterion_9_driven_response_calibration(cfg, mech):
    worst = 0.0
    for g_minus, ratio in ((529.0, 0.0), (1643.0, 0.07), (1643.0, 0.25)):
        rate = g_minus * mech.gamma
        if ratio:
            ds = DriveSet(drive_pair(2, rate, ratio * rate))
        else:
            ds = DriveSet((Drive(2, "lower", rate),))
        fwhm = transparency_window_fwhm(cfg, ds, 2)
        worst = max(worst, abs(fwhm / effective_linewidth(cfg, ds) - 1.0))
    _report(
        9,
        worst < 0.01,
        f"transparency-window FWHM vs gamma_m + sum(G- - G+) over three configs: "
        f"worst deviation {worst:.2e} (< 1e-2)",
    )


def test_criterion_10_determinism(tmp_path_factory):
    cfg, ds, scenario = load_config(bundled_config_path("paper_device.json"))
    outputs = []
    for label in ("det_a", "det_b"):
        out = tmp_path_factory.mktemp(label)
        run_scenario(cfg, ds, scenario, out)
        outputs.append(out)
    manifest = json.loads((outputs[0] / "manifest.json").read_text())
    mismatched = [
        artifact
        for artifact in manifest["artifacts"]
        if (outputs[0] / artifact).read_bytes() != (outputs[1] / artifact).read_bytes()
    ]
    _report(
        10,
        not mismatched,
        f"two seeded runs produced byte-identical data artifacts "
        f"({len(manifest['artifacts'])} files; manifest carries timings and is excluded)",
    )
