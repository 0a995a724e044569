"""Deterministic counter-based random streams.

Scene synthesis must produce identical bytes for a given seed on every
platform, so instead of a stateful generator we use a splittable
counter-based construction: output i of stream ``tag`` is
``mix64(mix64(seed + GAMMA*(tag+1)) + GAMMA*(i+1))`` where mix64 is the
SplitMix64 finalizer. Gaussian deviates come from a rational
approximation to the inverse normal CDF (Acklam's algorithm, |rel err|
< 1.15e-9) applied to 53-bit uniforms, keeping the whole chain exactly
reproducible from integer arithmetic.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    # uint64 multiplication is meant to wrap (arithmetic mod 2**64).
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _stream_base(seed: int, tag: int) -> np.uint64:
    base = (seed + int(_GAMMA) * (tag + 1)) & _MASK64
    return _mix64(np.uint64(base))


def raw64(seed: int, tag: int, count: int) -> np.ndarray:
    """``count`` raw 64-bit words from stream (seed, tag)."""
    if count < 0:
        raise ValueError("count must be >= 0")
    base = _stream_base(seed, tag)
    with np.errstate(over="ignore"):
        ctr = np.arange(1, count + 1, dtype=np.uint64) * _GAMMA + base
    return _mix64(ctr)


def uniforms(seed: int, tag: int, count: int) -> np.ndarray:
    """float64 uniforms strictly inside (0, 1)."""
    bits = raw64(seed, tag, count) >> np.uint64(11)  # top 53 bits
    return (bits.astype(np.float64) + 0.5) * (2.0 ** -53)


# Acklam's inverse normal CDF rational approximation.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _tail(p: np.ndarray) -> np.ndarray:
    """Acklam's lower-tail branch, for p below _P_LOW."""
    q = np.sqrt(-2.0 * np.log(p))
    num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
    den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
    return num / den


def inv_norm_cdf(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF for p strictly inside (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    if p.size and (p.min() <= 0.0 or p.max() >= 1.0):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    z = np.empty_like(p)

    lo = p < _P_LOW
    hi = p > 1.0 - _P_LOW
    mid = ~(lo | hi)

    q = p[mid] - 0.5
    r = q * q
    num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
    den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
    z[mid] = q * num / den
    z[lo] = _tail(p[lo])
    z[hi] = -_tail(1.0 - p[hi])  # the normal is symmetric about 0
    return z


def gaussians(seed: int, tag: int, count: int) -> np.ndarray:
    """Standard normal deviates for stream (seed, tag)."""
    return inv_norm_cdf(uniforms(seed, tag, count))
