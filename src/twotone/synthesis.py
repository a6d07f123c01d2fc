"""Synthetic measurement noise for ideal spectra.

Stands in for the cryogenic amplifier chain: adds a flat noise floor and the
statistics of M averaged periodograms, each flux bin drawn independently as
(flux + floor) chi^2(2M) / (2M). Draws use the counter-based 64-bit Philox
generator keyed by (seed, stream), so fixed seeds give identical samples
across runs and platforms and independent streams can be generated in
parallel without overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from numpy.typing import NDArray

from .dynamics import Spectrum
from .errors import DomainError
from .tables import write_csv

_NOISY_COLUMNS = ("offset_hz", "flux", "flux_measured", "std_err")


@dataclass(frozen=True)
class NoiseModel:
    """Measurement-noise description: floor, averaging depth, RNG seed.

    ``floor`` is the added flux density in the same scattered-photon units
    as the ideal spectrum, ``averages`` the number M of averaged
    periodograms, ``seed`` the base RNG seed, which numpy's ``SeedSequence``
    takes only when it is non-negative.
    """

    floor: float = 20.0
    averages: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.floor < np.inf:
            raise DomainError(f"noise floor must be non-negative and finite, got {self.floor}")
        if self.averages < 1:
            raise DomainError("averages must be at least 1")
        if int(self.averages) != self.averages:
            raise DomainError("averages must be an integer")
        if self.seed < 0:
            raise DomainError(f"noise seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class NoisySpectrum:
    """A synthesized measurement: truth, samples and per-bin standard error.

    ``std_err`` is (flux + floor) / sqrt(M) by construction; inference
    weights its fits with it.
    """

    freq: NDArray[np.float64]
    flux_true: NDArray[np.float64]
    flux_measured: NDArray[np.float64]
    std_err: NDArray[np.float64]
    noise: NoiseModel
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("freq", "flux_true", "flux_measured", "std_err"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n = self.freq.shape
        if any(getattr(self, name).shape != n for name in ("flux_true", "flux_measured", "std_err")):
            raise DomainError("spectrum columns must have matching lengths")

    def windowed(self, mask: NDArray[np.bool_]) -> "NoisySpectrum":
        """Restriction to a boolean frequency mask (for per-sideband fits)."""
        return replace(
            self,
            freq=self.freq[mask],
            flux_true=self.flux_true[mask],
            flux_measured=self.flux_measured[mask],
            std_err=self.std_err[mask],
        )


def synthesize(s: Spectrum, nm: NoiseModel, *, stream: int = 0) -> NoisySpectrum:
    """Draw one synthetic measurement of an ideal spectrum.

    Each bin is (flux + floor) chi^2(2M) / (2M), independent across bins.
    ``stream`` selects an independent substream of the seeded generator so
    several spectra in one run stay uncorrelated yet reproducible.
    """
    rng = Generator(Philox(SeedSequence(entropy=nm.seed, spawn_key=(stream,))))
    mean = s.flux + nm.floor
    df = 2.0 * nm.averages
    samples = mean * rng.chisquare(df, size=mean.shape) / df
    std_err = mean / np.sqrt(nm.averages)
    return NoisySpectrum(
        freq=s.freq,
        flux_true=s.flux,
        flux_measured=samples,
        std_err=std_err,
        noise=nm,
        meta=dict(s.meta, stream=stream),
    )


def write_noisy_csv(ns: NoisySpectrum, path) -> None:
    """CSV columns (offset_hz, flux, flux_measured, std_err) with metadata."""
    meta = [
        *ns.meta.items(),
        ("noise_floor", f"{ns.noise.floor:.17g}"),
        ("noise_averages", ns.noise.averages),
        ("noise_seed", ns.noise.seed),
    ]
    columns = (ns.freq / (2.0 * np.pi), ns.flux_true, ns.flux_measured, ns.std_err)
    write_csv(path, _NOISY_COLUMNS, columns, meta)


def read_noisy_csv(path) -> NoisySpectrum:
    """Read a spectrum written by :func:`write_noisy_csv`."""
    meta: dict = {}
    noise_kwargs = {}
    rows = []
    header_seen = False
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                key, value = key.strip(), value.strip()
                if key == "noise_floor":
                    noise_kwargs["floor"] = float(value)
                elif key == "noise_averages":
                    noise_kwargs["averages"] = int(value)
                elif key == "noise_seed":
                    noise_kwargs["seed"] = int(value)
                else:
                    meta[key] = value
                continue
            if not header_seen:
                header_seen = True
                if line != ",".join(_NOISY_COLUMNS):
                    raise DomainError(f"unexpected spectrum CSV header: {line!r}")
                continue
            rows.append([float(x) for x in line.split(",")])
    if not rows:
        raise DomainError("spectrum CSV carries no samples")
    data = np.array(rows)
    return NoisySpectrum(
        freq=data[:, 0] * 2.0 * np.pi,
        flux_true=data[:, 1],
        flux_measured=data[:, 2],
        std_err=data[:, 3],
        noise=NoiseModel(**noise_kwargs),
        meta=meta,
    )
