"""Compare the CSV block formatter with Python's `%.9g` on many doubles.

    python3 tools/fuzz_csv_format.py

Formats 2,000,000 random-bit float64 values (fixed seed) and 100,000 built
near-ties, the doubles nearest to a decimal tie at the 10th significant
digit and their neighbours 1 ulp up and down, each with both signs, through
`motionsnn.core._format_block` as one-column blocks, and compares every
line with `'%.9g' % (v + 0.0)`. The formatter's digits rest on numpy's
`log10`, `rint` and float64 products, which can differ by platform, so this
runs on every Python version CI tests. Prints the first differences and
exits 1 on any, 0 when every line is equal.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from motionsnn.core import CSV_BLOCK_ROWS, _format_block  # noqa: E402

SEED = 20261020
RANDOM_BITS = 2_000_000
NEAR_TIES = 100_000


def near_ties(rng: np.random.Generator, n: int) -> np.ndarray:
    """n doubles, of either sign: the nearest double to a decimal tie
    b.5 * 10**(x - 8), with a 9-digit b and x in [-300, 300], and its
    neighbours 1 ulp up and down."""
    b = rng.integers(10**8, 10**9, n // 3 + 1)
    x = rng.integers(-300, 301, n // 3 + 1)
    ties = np.array(["%d5e%d" % (bi, xi - 9) for bi, xi in zip(b.tolist(), x.tolist())], dtype=np.float64)
    values = np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)])[:n]
    return values * rng.choice([-1.0, 1.0], n)


def main() -> int:
    rng = np.random.default_rng(SEED)
    bits = rng.integers(0, 2**64, RANDOM_BITS, dtype=np.uint64).view(np.float64)
    values = np.concatenate([bits, near_ties(rng, NEAR_TIES)])
    differ = 0
    for i in range(0, len(values), CSV_BLOCK_ROWS):
        block = values[i : i + CSV_BLOCK_ROWS]
        got = _format_block([block]).decode().split("\r\n")[:-1]
        want = ["%.9g" % (v + 0.0) for v in block.tolist()]
        for v, g, w in zip(block.tolist(), got, want):
            if g != w:
                differ += 1
                if differ <= 10:
                    print(f"{v!r}: formatter {g!r}, % {w!r}")
    print(f"{len(values):,} values, {differ:,} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
