"""One band rule: every circle entry where a mode band meets a grid of N
points refuses n_max below 1 and above N/4 the same way, and accepts N/4."""

import json
import warnings

import numpy as np
import pytest

from circlet import (
    CircleGrid,
    CircleSignal,
    FormatError,
    FourierCoeffs,
    Scalogram,
    ScaleGrid,
    analyze,
    dilated_coeffs,
    fourier_coeffs,
    lambda_sequence,
    make_dog,
    mode_synthesis,
    read_scalogram,
    write_scalogram,
)

N = 16
TOP = N // 4
GRID = CircleGrid(N)
FINE = CircleGrid(4 * N)  # holds wider bands than GRID, so GRID is the grid an entry checks
SCALES = ScaleGrid(0.5, 2.0, 3)
FINGERPRINT = "0" * 64


def band_signal(grid):
    return CircleSignal.from_evaluator(grid, lambda t: np.cos(2 * t) + 0.5 * np.sin(4 * t))


def zero_modes(n_max):
    return np.zeros((SCALES.count, 2 * n_max + 1))


def patched_scalogram(n_max, where):
    """A scalogram written with the band N/4, its header's n_max then set to
    n_max: the payload's sha256 does not cover it."""
    write_scalogram(where / "scal", Scalogram(SCALES, GRID, zero_modes(TOP), TOP, FINGERPRINT))
    header = where / "scal.json"
    header.write_text(json.dumps({**json.loads(header.read_text()), "n_max": n_max}))
    return read_scalogram(where / "scal")


# entries that take a band and a grid; the ValueError ones
ENTRIES = {
    "fourier_coeffs": lambda n_max: fourier_coeffs(band_signal(GRID), n_max),
    "dilated_coeffs": lambda n_max: dilated_coeffs(make_dog(2.0, grid=GRID), SCALES, n_max),
    "lambda_sequence": lambda n_max: lambda_sequence(make_dog(2.0, grid=GRID), SCALES, n_max),
    "analyze": lambda n_max: analyze(band_signal(GRID), make_dog(2.0, grid=FINE), SCALES, n_max),
    "analyze[angles]": lambda n_max: analyze(band_signal(FINE), make_dog(2.0, grid=FINE), SCALES, n_max,
                                             angles=GRID),
    "mode_synthesis": lambda n_max: mode_synthesis(GRID, FourierCoeffs(n_max, np.ones(2 * n_max + 1))),
    "Scalogram": lambda n_max: Scalogram(SCALES, GRID, zero_modes(n_max), n_max, FINGERPRINT),
}

REFUSALS = [(0, "n_max must be at least 1, got 0"), (TOP + 1, f"n_max {TOP + 1} exceeds n_samples/4 = {TOP}")]


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("n_max, says", REFUSALS)
def test_band_rule_refuses(entry, n_max, says):
    with pytest.raises(ValueError) as err:
        ENTRIES[entry](n_max)
    assert str(err.value) == says


@pytest.mark.parametrize("n_max, says", REFUSALS)
def test_read_scalogram_refuses_the_band_by_its_header(tmp_path, n_max, says):
    with pytest.raises(FormatError) as err:
        patched_scalogram(n_max, tmp_path)
    assert str(err.value) == f"malformed scalogram {tmp_path / 'scal.json'}: {says}"


# the two holders of a band; the band rule reads None as its default, and a float band
# would fail later, in synthesize with a TypeError or in mode_synthesis inside numpy;
# a bool or a negative band is no band either
BAND_HOLDERS = {
    "Scalogram": lambda n_max: Scalogram(SCALES, GRID, zero_modes(TOP), n_max, FINGERPRINT),
    "FourierCoeffs": lambda n_max: FourierCoeffs(n_max, np.zeros(2 * TOP + 1)),
}


@pytest.mark.parametrize("holder", sorted(BAND_HOLDERS))
@pytest.mark.parametrize("n_max", [None, 3.5, 2.0, "2", True, -1])
def test_scalogram_refuses_a_band_that_is_not_an_integer(holder, n_max):
    with pytest.raises(ValueError) as err:
        BAND_HOLDERS[holder](n_max)
    assert str(err.value) == f"n_max must be an integer, got {n_max!r}"


def test_scalogram_accepts_a_numpy_integer_band():
    assert Scalogram(SCALES, GRID, zero_modes(TOP), np.int64(TOP), FINGERPRINT).n_max == TOP


def test_band_rule_accepts_a_quarter_of_the_grid(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the coarse wavelet's plateau warning
        for entry in ENTRIES.values():
            entry(TOP)
    assert patched_scalogram(TOP, tmp_path).n_max == TOP
