"""Portable deterministic random number generator.

Epoch plans must replicate across implementations, so the generator is a
fixed, documented algorithm rather than whatever the host library ships.

Algorithm: SplitMix64 (Steele, Lea & Flood's 64-bit mixer).  State advances
by the 64-bit golden-gamma constant, and each output is the finalizer

    z  = state + 0x9E3779B97F4A7C15          (mod 2^64, applied first)
    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9    (mod 2^64)
    z ^= z >> 27;  z *= 0x94D049BB133111EB    (mod 2^64)
    return z ^ (z >> 31)

The state after k steps is therefore the closed form

    state_k = seed + k * 0x9E3779B97F4A7C15   (mod 2^64)

so output k depends only on seed and k.  ``splitmix64_block`` uses this to
produce outputs 1..count in bulk with numpy ``uint64`` wrap-around, and
``bounded_block`` applies the multiply-shift bound below to a whole block.
Both give exactly the stream of the recipe run one output at a time; the
tests keep that scalar version as their oracle.

Derived draws, in the exact order consumed:

* ``next_float`` -- take the top 53 bits: ``(next_u64() >> 11) * 2**-53``,
  uniform on [0, 1).
* ``next_below(n)`` -- multiply-shift bounded draw:
  ``(next_u64() * n) >> 64``, uniform on {0, ..., n-1} up to a bias below
  n / 2**64.
* ``shuffle`` -- Fisher-Yates from the back: for i = len-1 down to 1 swap
  position i with ``next_below(i + 1)``.
"""

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
# bounded_block is exact only for bounds below this
BLOCK_BOUND_LIMIT = 1 << 32

# numpy scalars, so numpy 1.x value-based casting and NEP 50 promotion agree
_GAMMA = np.uint64(GOLDEN_GAMMA)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_LOW32 = np.uint64(0xFFFFFFFF)
_S11, _S27, _S30, _S31, _S32 = (np.uint64(s) for s in (11, 27, 30, 31, 32))


def splitmix64_block(state: int, count: int) -> np.ndarray:
    """Outputs 1..count of the SplitMix64 stream seeded with ``state``, as a uint64 array."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(state & MASK64)
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def float_block(x: np.ndarray) -> np.ndarray:
    """``next_float`` of each uint64 output: its top 53 bits scaled to [0, 1)."""
    return (x >> _S11).astype(np.float64) * 2.0 ** -53


def bounded_block(x: np.ndarray, n) -> np.ndarray:
    """``(x * n) >> 64`` elementwise for uint64 ``x`` and bounds 1 <= n < 2^32.

    Splitting x into 32-bit limbs keeps every partial product below 2^64:
    (x * n) >> 64 == ((x >> 32) * n + (((x & 0xFFFFFFFF) * n) >> 32)) >> 32.
    """
    n = np.asarray(n, dtype=np.uint64)
    high = (x >> _S32) * n
    high += ((x & _LOW32) * n) >> _S32
    return high >> _S32
