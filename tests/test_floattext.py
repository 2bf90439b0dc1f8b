"""The %.17g kernel against '%.17g' % x, byte for byte, and its fallback rule."""

from fractions import Fraction

import numpy as np
import pytest

from ergoquench import floattext
from ergoquench.floattext import DECADES, exact_digits, float_text

K_MIN, K_MAX = DECADES


def _cells(values):
    """The kernel's text of each value, one a line."""
    values = np.asarray(values, dtype=np.float64)
    return float_text(values, np.full(len(values), ord("\n"), np.uint8)).split("\n")[:-1]


def _assert_like_percent(values):
    values = np.asarray(values, dtype=np.float64)
    expected = ["%.17g" % x for x in values.tolist()]
    bad = [(x, got, want) for x, got, want in zip(values.tolist(), _cells(values), expected)
           if got != want]
    assert not bad, f"{len(bad)} cells differ from %.17g, the first: {bad[:5]}"


def _neighbours(values, count=1):
    """values and the count floats on each side of each."""
    down = up = np.asarray(values, dtype=np.float64)
    found = [down]
    for _ in range(count):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
        found += [down, up]
    return np.concatenate(found)


def _powers(first, last):
    """The correctly rounded 10**p for first <= p <= last."""
    return np.array([10 ** p if p >= 0 else 1 / 10 ** -p for p in range(first, last + 1)],
                    dtype=float)


def test_random_bit_patterns():
    values = np.random.default_rng(23).integers(0, 2 ** 64, size=200_000, dtype=np.uint64)
    _assert_like_percent(values.view(np.float64))


def test_random_values_of_every_decade():
    rng = np.random.default_rng(5)
    values = rng.random(50_000) * 10.0 ** rng.integers(-30, 30, 50_000)
    _assert_like_percent(np.concatenate([values, -values]))


def test_powers_of_ten_their_neighbours_and_the_table_edges():
    decades = _neighbours(_powers(K_MIN - 3, K_MAX + 3))
    hi = floattext._tables()["scale"][0]  # the table's own 10**(16 - k)
    _assert_like_percent(np.concatenate([decades, -decades, _neighbours(hi)]))
    # the lowest table value and the one below it, the highest above it, and far values
    edges = _neighbours([10.0 ** (K_MIN + 1), 10.0 ** K_MAX, 1e-300, 1e300])
    outside = (edges < 10.0 ** (K_MIN + 1)) | (edges >= 10.0 ** K_MAX)
    assert outside.sum() == 9 and not exact_digits(edges)[2][outside].any()


def test_notation_boundaries():
    # %g turns to e-notation below 1e-4 and from 1e17; 1e16 is the last 17-digit integer
    values = _neighbours([1e-5, 1e-4, 1e-3, 0.1, 1.0, 10.0, 1e15, 1e16, 1e17, 1e18], count=4)
    _assert_like_percent(np.concatenate([values, -values]))
    assert _cells([1e-4, 1e16, 1e17]) == ["0.0001", "10000000000000000", "1e+17"]


def test_ties_are_left_to_percent():
    # 17 digits end one place before the last nonzero digit, a 5
    j = np.arange(2000)
    ties = np.concatenate([1e15 + j + 0.25, 1e15 + j + 0.75, 1e14 + j + 0.125,
                           1e14 + j + 0.375, [1000000000000000.25]])
    digits_18 = [Fraction(x) * 10 ** (16 - int(np.log10(x))) for x in ties.tolist()]
    assert all(d - int(d) == Fraction(1, 2) for d in digits_18)  # exact ties, all of them
    _assert_like_percent(np.concatenate([ties, -ties]))
    _, _, exact = exact_digits(ties)
    assert not exact.any()


def test_special_values_are_left_to_percent_and_ordinary_ones_are_not():
    specials = np.array([0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan, 2.2250738585072014e-308])
    _assert_like_percent(specials)
    assert _cells(specials) == ["0", "-0", "4.9406564584124654e-324", "inf", "-inf", "nan",
                                "2.2250738585072014e-308"]
    assert not exact_digits(specials)[2].any()
    ordinary = np.concatenate([np.random.default_rng(7).standard_normal(100_000),
                               [0.1, 0.5, 123.456, -2.5e-7, 1e-5, 4000.0, 0.30000000000000004]])
    digits, k, exact = exact_digits(ordinary)
    assert exact.all()
    assert ((digits >= 10 ** 16) & (digits < 10 ** 17)).all()
    _assert_like_percent(ordinary)


def test_float32_values_and_numpy_scalars():
    values = np.random.default_rng(11).standard_normal(10_000).astype(np.float32)
    values[:4] = [np.float32(0.1), np.float32(1e-30), np.float32(3.4e38), np.float32(-0.0)]
    assert _cells(values) == ["%.17g" % x for x in values]  # % reads a float32 as its double
    scalars = [np.float64(0.1), np.float32(0.1), np.float16(0.1), np.longdouble(0.1)]
    assert _cells(np.array(scalars, dtype=np.float64)) == ["%.17g" % x for x in scalars]


@pytest.mark.parametrize("count", [0, 1, 2047, 2048, 2049, 4608])
def test_passes_split_evenly_and_keep_separators(count):
    values = np.random.default_rng(count).standard_normal(count) * 100.0
    seps = np.full(count, ord(","), np.uint8)
    seps[2::3] = ord("\n")
    text = float_text(values, seps)
    assert text == "".join("%.17g%s" % (x, chr(s)) for x, s in zip(values.tolist(), seps))
