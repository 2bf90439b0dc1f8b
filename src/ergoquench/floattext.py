"""'%.17g' text of float64 arrays, byte for byte, a few thousand cells per numpy pass.

A finite x with 10**(k_min + 1) <= |x| < 10**k_max (DECADES) has its decimal
exponent k = floor(log10 |x|) in the tables.  |x| * 10**(16 - k) is formed as
p + r: p = fl(|x| * hi) and its exact rounding error (Dekker's product of
Veltkamp halves, no FMA), plus |x| * lo, where hi + lo is 10**(16 - k).
p + r differs from the exact product by under 5e-15 units of the 17th digit:
under 1.2e-15 each from rounding |x| * lo, from adding it to the error term,
and from lo's own rounding.  p is an integer (it is above 2**53), so the 17
digits are D = p + floor(r), plus one when r's fraction is above one half.

Every cell the arithmetic cannot prove is written by '%.17g' % x itself,
which stays the oracle: a fraction within TIE_BAND of one half (where %
rounds the exact value half to even), a floor that is not a 17-digit integer
(log10 missed the decade), a D that rounds up to 10**17, and 0, -0, inf, nan
and |x| outside the tables.
"""

from __future__ import annotations

import functools

import numpy as np

DECADES = (-280, 290)
TIE_BAND = 1e-12
CHUNK = 2048  # cells per pass: its widest temporary, 48 B a cell, stays under 128 KiB
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for 53-bit doubles
_WORD = np.dtype("<u8")
_GROUP_ROWS = 10000 * np.arange(4)[:, None]  # each 4-digit group's row of the `ends` table
_GROUP_KEEPS = 31 * (12 - 4 * np.arange(4)[:, None])  # each group's offset into `keep`


@functools.cache
def _tables() -> dict:
    """The kernel's lookup tables, built on first use; no temporary exceeds 128 KiB.

    Per decade k from k_max down to k_min, `scale` holds hi, its Veltkamp
    halves and lo of 10**(16 - k), each rounded correctly from the exact
    integer ratio.  Per 4-digit group g, `spread[g]` is a word with g's
    digits at its even bytes and points at its odd ones.  For the j-th group
    of d1..d16, `ends[10000 j + g]` is the index in d0..d16 of g's last
    nonzero digit (0 if g is 0), and `keep[30 (c + 12) + s + 13]` keeps
    the first clip(c, 0, 4) digits and the point after the s-th, if any.
    Per k - k_min, `head` is the word before d0 (the "0." and zeros of
    1e-4 <= |x| < 0.1), `tail` the word after d16 ("e+ddd" when k < -4 or
    k > 16), `whole` the count of digits after d0 printed even when zero
    (the integer part's) and `point` the digit the point follows (17: none).
    """
    k_min, k_max = DECADES
    exact = [(10 ** p, 1) if p >= 0 else (1, 10 ** -p) for p in range(16 - k_max, 17 - k_min)]
    hi = np.array([num / den for num, den in exact])
    lo = np.array([(num * b - a * den) / (den * b) for (num, den), (a, b)
                   in zip(exact, map(float.as_integer_ratio, hi.tolist()))])
    hi_hi = hi * _SPLIT - (hi * _SPLIT - hi)
    group = np.arange(10000)
    spread = np.full((10000, 8), 46, np.uint8)
    for place, power in enumerate((1000, 100, 10, 1)):
        spread[:, 2 * place] = 48 + group // power % 10
    place = np.arange(4)
    keep = np.zeros((29, 30, 8), np.uint8)
    keep[:, :, ::2] = np.where(place < np.arange(-12, 17)[:, None, None], 255, 0)
    keep[:, :, 1::2] = np.where(place == np.arange(-13, 17)[:, None], 255, 0)
    zeros = (group % 10 == 0).astype(np.int64) + (group % 100 == 0) + (group % 1000 == 0)
    ends = np.zeros((4, 10000), np.int8)
    ends[:, 1:] = 4 * place[:, None] + 4 - zeros[1:]
    k = np.arange(k_min, k_max + 1)
    small = (k >= -4) & (k < 0)
    wide = (k < -4) | (k > 16)
    head = np.zeros((len(k), 8), np.uint8)
    head[small, 1:3] = [48, 46]
    head[:, 3:6] = np.where(small[:, None] & (np.arange(3) >= 4 + k[:, None]), 48, 0)
    tail = np.zeros((len(k), 8), np.uint8)
    tail[wide, 0] = 101
    tail[wide, 1] = np.where(k[wide] < 0, 45, 43)
    tail[wide, 2:5] = 48 + np.abs(k[wide])[:, None] // np.array([100, 10, 1]) % 10
    tail[wide & (np.abs(k) < 100), 2] = 0
    whole = np.where(small | wide, 0, k)
    return {"scale": np.stack([hi, hi_hi, hi - hi_hi, lo]),
            "spread": spread.view(_WORD).reshape(-1), "keep": keep.view(_WORD).reshape(-1),
            "ends": ends.reshape(-1), "head": head.view(_WORD).reshape(-1),
            "tail": tail.view(_WORD).reshape(-1), "whole": whole,
            "point": np.where(small, 17, whole)}


def exact_digits(values):
    """(D, k, exact) of float64 values: where exact, |x| is D * 10**(k - 16) to 17 digits."""
    k_min, k_max = DECADES
    ax = np.abs(values)
    inside = (ax >= 10.0 ** (k_min + 1)) & (ax < 10.0 ** k_max)
    ax[~inside] = 1.0
    k = np.floor(np.log10(ax)).astype(np.int64)
    hi, hi_hi, hi_lo, lo = _tables()["scale"].take(k_max - k, axis=1)
    p = ax * hi
    x_hi = ax * _SPLIT - (ax * _SPLIT - ax)
    x_lo = ax - x_hi
    r = (((x_hi * hi_hi - p) + x_hi * hi_lo + x_lo * hi_hi) + x_lo * hi_lo) + ax * lo
    below = np.floor(r)
    r -= below
    floor = p.astype(np.int64) + below.astype(np.int64)
    digits = floor + (r > 0.5)
    exact = inside & (floor >= 10 ** 16) & (digits < 10 ** 17) & (np.abs(r - 0.5) > TIE_BAND)
    return digits, k, exact


def _words(values, seps):
    """The text of one pass (see `float_text`), NUL-padded: a column of six words a cell.

    A cell's little-endian words, whose NULs `float_text` drops, hold its
    sign, "0." and zeros, d0 and the point slot after it; d1 to d16, each
    with its point slot; "e+ddd" and the separator.  A digit past both the
    last nonzero one and the integer part is NUL, and so is every point
    slot but the one after the integer part when a nonzero digit follows.
    """
    tables = _tables()
    count = len(values)
    digits, k, exact = exact_digits(values)
    digits[~exact] = 10 ** 16
    at = k - DECADES[0]
    lead = digits // 10 ** 16
    rest = digits - lead * 10 ** 16
    halves = np.empty((2, count), np.int64)
    halves[0] = rest // 10 ** 8
    halves[1] = rest - halves[0] * 10 ** 8
    groups = np.empty((4, count), np.int64)
    groups[0::2] = halves // 10 ** 4
    groups[1::2] = halves - groups[0::2] * 10 ** 4
    last = tables["ends"].take(groups + _GROUP_ROWS).max(axis=0)
    point = tables["point"].take(at)
    point[last <= point] = 17
    words = np.empty((6, count), _WORD)
    tables["spread"].take(groups, out=words[1:5])
    shown = np.maximum(last, tables["whole"].take(at))
    words[1:5] &= tables["keep"].take(30 * shown + point + _GROUP_KEEPS)
    words[0] = (tables["head"].take(at) | (lead + 48).astype(_WORD) << 48
                | (values < 0) * _WORD.type(45) | (point == 0) * _WORD.type(46 << 56))
    words[5] = tables["tail"].take(at) | seps.astype(_WORD) << 56
    fallback = np.flatnonzero(~exact)
    if len(fallback):
        cells = ("%.17g" % x for x in values[fallback].tolist())
        rows = "".join(cell.ljust(47, "\0") + chr(sep)
                       for cell, sep in zip(cells, seps[fallback].tolist()))
        words[:, fallback] = np.frombuffer(rows.encode("ascii"), _WORD).reshape(-1, 6).T
    return words


def float_text(values, seps) -> str:
    """'%.17g' % x of each x of the float array values, each followed by its byte of seps.

    The cells go through the kernel in even passes of at most CHUNK cells.
    """
    values = np.asarray(values, dtype=np.float64)
    passes = -(-len(values) // CHUNK)
    step = -(-len(values) // passes) if passes else 1
    return b"".join(_words(values[start:start + step], seps[start:start + step]).T.tobytes()
                    .translate(None, b"\0")
                    for start in range(0, len(values), step)).decode("ascii")


@functools.cache
def warm_up() -> None:
    """Run the kernel once, on cells of each layout and one that falls back to %.

    What a first call allocates for good (the tables, numpy's caches of the
    loops it uses) lives as long as the process.  Allocated while a run holds
    its state stacks, it sits above the memory the run frees and keeps glibc
    from returning that memory; in ergobench's trajectories workload that
    raised the peak RSS by 0.5-2 MB.  So call this before a run's arrays grow.
    """
    values = np.array([0.5, 123.25, -0.000125, 1e20, 0.0])
    float_text(values, np.full(len(values), ord(","), np.uint8))
