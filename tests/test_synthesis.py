import math
from fractions import Fraction

import numpy as np
import pytest

from twotone.dynamics import Spectrum, write_spectrum_csv
from twotone.errors import DomainError
from twotone.synthesis import (
    NoiseModel,
    NoisySpectrum,
    read_noisy_csv,
    synthesize,
    write_noisy_csv,
)
from twotone.tables import write_csv


def around(value):
    """The double nearest ``value`` (a decimal string) and its two neighbours."""
    x = float(value)
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


# The doubles nearest 10^k for these k lie below it, yet print at 17 digits as
# 1e+k: they round up into the next decade. No other double does, as no other
# lies within half a unit of the 17th digit below a power of ten.
NEXT_DECADE_K = (-305, -243, -176, -175, -174, -79, -78, -73, -70, -14, 98, 129, 153, 220)
NEXT_DECADE = [float(f"1e{k}") for k in NEXT_DECADE_K]

# Values whose %.17g text is easy to get wrong; the corpus also holds each negative.
HARD_CASES = {
    # exact decimal ties, rounded half to even: 1.00000762939453125 down, ...375 up
    "ties": [1 + 2**-17, 1 + 3 * 2**-17, 9 + 2**-17, 1e15 + 0.25, 1e15 + 0.75],
    "powers_of_ten": [v for k in range(-300, 301) for v in around(f"1e{k}")],
    "fixed_to_exponent": [1e-5, np.nextafter(1e-4, 0), 1e-4, 1e16, np.nextafter(1e17, 0), 1e17],
    "next_decade": NEXT_DECADE,
    "three_digit_exponents": [
        1.2345678901234567e-100,
        9.87654321e123,
        *around("1e-280"),
        *around("1e280"),
        2.2250738585072014e-308,
        1.7976931348623157e308,
        5e-324,
    ],
}


@pytest.fixture()
def flat_spectrum():
    freq = np.linspace(-1e5, 1e5, 401)
    return Spectrum(freq=freq, flux=np.zeros_like(freq), meta={"cavity": 1})


@pytest.fixture()
def peaked_spectrum():
    freq = np.linspace(-1e5, 1e5, 401)
    flux = 50.0 / (1.0 + (freq / 2e4) ** 2)
    return Spectrum(freq=freq, flux=flux, meta={"cavity": 1})


class TestSynthesize:
    def test_huge_averaging_recovers_mean(self, peaked_spectrum):
        ns = synthesize(peaked_spectrum, NoiseModel(floor=20.0, averages=10**9, seed=4))
        expected = peaked_spectrum.flux + 20.0
        assert np.max(np.abs(ns.flux_measured - expected) / expected) < 1e-3

    def test_floor_only_statistics(self, flat_spectrum):
        ns = synthesize(flat_spectrum, NoiseModel(floor=20.0, averages=100, seed=5))
        assert ns.flux_measured.mean() == pytest.approx(20.0, rel=0.01)
        assert ns.flux_measured.std() / 20.0 == pytest.approx(0.1, rel=0.15)

    def test_fixed_seed_reproducible(self, peaked_spectrum):
        nm = NoiseModel(floor=5.0, averages=1000, seed=42)
        a = synthesize(peaked_spectrum, nm)
        b = synthesize(peaked_spectrum, nm)
        assert np.array_equal(a.flux_measured, b.flux_measured)

    def test_streams_are_independent(self, peaked_spectrum):
        nm = NoiseModel(floor=5.0, averages=1000, seed=42)
        a = synthesize(peaked_spectrum, nm, stream=0)
        b = synthesize(peaked_spectrum, nm, stream=1)
        assert not np.array_equal(a.flux_measured, b.flux_measured)

    def test_std_err_by_construction(self, peaked_spectrum):
        nm = NoiseModel(floor=20.0, averages=400, seed=1)
        ns = synthesize(peaked_spectrum, nm)
        assert np.allclose(ns.std_err, (peaked_spectrum.flux + 20.0) / 20.0, rtol=1e-14)

    def test_non_negative_samples(self, flat_spectrum):
        nm = NoiseModel(floor=0.5, averages=1, seed=9)
        for stream in range(50):
            ns = synthesize(flat_spectrum, nm, stream=stream)
            assert np.all(ns.flux_measured >= 0.0)

    def test_variance_calibration(self):
        # empirical per-bin variance across seeds matches (flux+floor)^2 / M
        freq = np.linspace(-1.0, 1.0, 16)
        flux = np.linspace(0.0, 30.0, 16)
        spectrum = Spectrum(freq=freq, flux=flux, meta={})
        samples = np.array(
            [
                synthesize(spectrum, NoiseModel(floor=20.0, averages=50, seed=s)).flux_measured
                for s in range(1000)
            ]
        )
        empirical = samples.var(axis=0)
        expected = (flux + 20.0) ** 2 / 50.0
        assert np.max(np.abs(empirical / expected - 1.0)) < 0.10

    def test_noise_model_validation(self):
        with pytest.raises(DomainError):
            NoiseModel(floor=-1.0)
        with pytest.raises(DomainError):
            NoiseModel(averages=0)


class TestCsv:
    def test_round_trip(self, peaked_spectrum, tmp_path):
        nm = NoiseModel(floor=20.0, averages=123, seed=77)
        ns = synthesize(peaked_spectrum, nm, stream=3)
        path = tmp_path / "noisy.csv"
        write_noisy_csv(ns, path)
        back = read_noisy_csv(path)
        assert np.allclose(back.freq, ns.freq, rtol=1e-15)
        assert np.allclose(back.flux_true, ns.flux_true, rtol=1e-15)
        assert np.allclose(back.flux_measured, ns.flux_measured, rtol=1e-15)
        assert np.allclose(back.std_err, ns.std_err, rtol=1e-15)
        assert back.noise == nm

    def test_windowing(self, peaked_spectrum):
        ns = synthesize(peaked_spectrum, NoiseModel(seed=0))
        cut = ns.windowed(ns.freq > 0)
        assert cut.freq.min() > 0
        assert len(cut.flux_measured) == np.count_nonzero(ns.freq > 0)


class TestGoldenBytes:
    """Every CSV field is the `.17g` text of its float, special values too."""

    SPECIAL = [math.nan, math.inf, -0.0, 5e-324, 2.5e-310, 0.1, 1.0 / 3.0, 1e300]
    SPECIAL_TEXT = {"nan", "inf", "-inf", "-0", "4.9406564584124654e-324"}

    @staticmethod
    def data_fields(path, header):
        lines = path.read_text().splitlines()
        body = lines[lines.index(header) + 1 :]
        return [line.split(",") for line in body]

    def test_noisy_csv_fields(self, tmp_path):
        freq = np.array([-math.inf, -1e300, -1.0 / 3.0, -0.0, 5e-324, 0.7, math.inf, math.nan])
        columns = [freq] + [np.roll(self.SPECIAL, k) for k in range(3)]
        ns = NoisySpectrum(*columns, noise=NoiseModel(averages=7, seed=5), meta={"cavity": 1})
        path = tmp_path / "noisy.csv"
        write_noisy_csv(ns, path)
        rows = self.data_fields(path, "offset_hz,flux,flux_measured,std_err")
        expected = [
            [f"{f / (2.0 * np.pi):.17g}", f"{t:.17g}", f"{m:.17g}", f"{e:.17g}"]
            for f, t, m, e in zip(ns.freq, ns.flux_true, ns.flux_measured, ns.std_err)
        ]
        assert rows == expected
        assert self.SPECIAL_TEXT <= {x for r in rows for x in r}

        back = read_noisy_csv(path)
        np.testing.assert_array_equal(back.freq, ns.freq / (2.0 * np.pi) * (2.0 * np.pi))
        for name in ("flux_true", "flux_measured", "std_err"):
            np.testing.assert_array_equal(getattr(back, name), getattr(ns, name))
            assert np.array_equal(np.signbit(getattr(back, name)), np.signbit(getattr(ns, name)))
        assert back.noise == ns.noise

    def test_spectrum_csv_fields(self, tmp_path):
        # a Spectrum holds finite values only; nan and inf are covered above
        freq = np.array([-1e300, -1.0 / 3.0, -0.0, 5e-324, 0.7, 1e300])
        flux = np.array([x for x in self.SPECIAL if math.isfinite(x)])
        spectrum = Spectrum(freq=freq, flux=flux, meta={"cavity": 2})
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(spectrum, path)
        rows = self.data_fields(path, "offset_hz,flux")
        expected = [
            [f"{f / (2.0 * np.pi):.17g}", f"{s:.17g}"] for f, s in zip(spectrum.freq, spectrum.flux)
        ]
        assert rows == expected
        assert {"-0", "4.9406564584124654e-324"} <= {x for r in rows for x in r}

    @pytest.mark.parametrize("case", sorted(HARD_CASES))
    def test_hard_case_fields(self, tmp_path, case):
        values = np.array(HARD_CASES[case])
        values = np.concatenate([values, -values])
        path = tmp_path / "hard.csv"
        write_csv(path, ("x", "y"), (values, values[::-1]))
        rows = self.data_fields(path, "x,y")
        assert rows == [["%.17g" % x, "%.17g" % y] for x, y in zip(values, values[::-1])]

    def test_table_past_one_block(self, tmp_path):
        # BLOCK + 1 rows: the last row is formatted by a call of its own
        from twotone._fields import BLOCK

        rng = np.random.default_rng(16)
        hard = np.concatenate([HARD_CASES[case] for case in sorted(HARD_CASES)])
        special = [0.0, -0.0, 5e-324, -2.5e-310, math.nan, math.inf, -math.inf]
        fill = 4 * (BLOCK + 1) - 2 * hard.size - len(special)
        scaled = rng.normal(size=fill) * 10.0 ** rng.integers(-300, 300, fill)
        table = rng.permutation(np.concatenate([hard, -hard, special, scaled])).reshape(-1, 4)
        path = tmp_path / "long.csv"
        write_csv(path, ("a", "b", "c", "d"), table.T)
        rows = self.data_fields(path, "a,b,c,d")
        assert rows == [["%.17g" % x for x in row] for row in table.tolist()]

    def test_empty_table_writes_comments_and_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        meta = [("rows", 0), ("warnings", ("none",)), ("unit", "κ_ext")]
        write_csv(path, ("x", "y"), (np.empty(0), np.empty(0)), meta)
        assert path.read_bytes() == "# rows: 0\n# warning: none\n# unit: κ_ext\nx,y\n".encode()

    def test_hard_cases_hold_what_they_name(self):
        assert "%.17g" % HARD_CASES["ties"][0] == "1.0000076293945312"
        assert "%.17g" % HARD_CASES["ties"][1] == "1.0000228881835938"
        for x in HARD_CASES["ties"]:
            exponent = int(("%.16e" % x).split("e")[1])
            assert Fraction(x) * Fraction(10) ** (16 - exponent) % 1 == Fraction(1, 2)
        for k, x in zip(NEXT_DECADE_K, NEXT_DECADE):
            assert Fraction(x) < Fraction(10) ** k
            assert "%.17g" % x == "%.0e" % x
        assert ["%.17g" % x for x in HARD_CASES["fixed_to_exponent"]] == [
            "1.0000000000000001e-05",
            "9.9999999999999991e-05",
            "0.0001",
            "10000000000000000",
            "99999999999999984",
            "1e+17",
        ]
