"""Deterministic pseudo-random numbers, identical on every platform."""

from __future__ import annotations

from math import ceil

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# coins() computes up to _LANES draws at once, one per 128-bit lane of a
# Python int: a lane's value stays below 2**64 between steps and below 2**128
# inside them, so no carry or borrow crosses into the next lane.
_LANES = 1024


def _lane_constants() -> tuple[int, int]:
    """Lanes of 1 and of (j+1)*gamma mod 2**64, each built by doubling."""
    ones = ramp = 1
    for shift in range(_LANES.bit_length() - 1):
        width = 128 << shift
        ramp |= (ramp + (ones << shift)) << width
        ones |= ones << width
    return ones, ramp * _GAMMA & ones * _MASK64


_ONES, _STEPS = _lane_constants()
_LOWS = _ONES * _MASK64
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class SplitMix64:
    """splitmix64 generator; fixed constants so streams never vary by platform.

    Draw i after the current state is a fixed mix of state + (i+1)*gamma, so
    coins() computes many draws at once and leaves the stream exactly where
    the same number of scalar draws would.

    Parameters
    ----------
    seed : int
        Any Python int; only its low 64 bits are used.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling; bound <= 2**64."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        # largest multiple of bound that fits in 64 bits; none does above 2**64
        limit = (1 << 64) - ((1 << 64) % bound)
        if not limit:
            raise ValueError(f"bound must be at most 2**64, got {bound}")
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def next_float(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def coins(self, k: int, p: float) -> int:
        """The next k tests next_float() < p as a k-bit mask, bit i for draw i.

        Draws up to 1,024 at a time in one lane-packed batch and leaves the
        state where k next_float() calls would.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        # next_float() < p exactly when next_u64() < ceil(p * 2**53) << 11,
        # and then exactly when top - next_u64(), below 2**65, has bit 64 set
        top = (ceil(p * 2.0 ** 53) << 11) - 1 + (1 << 64)
        state = self._state
        parts = []
        for start in range(0, k, _LANES):
            lanes = min(_LANES, k - start)
            keep = (1 << (lanes << 7)) - 1
            ones = _ONES & keep
            low = _LOWS & keep
            z = ((_STEPS & keep) + (state + start * _GAMMA) * ones) & low
            z = ((z ^ z >> 30) & low) * _MIX1 & low
            z = ((z ^ z >> 27) & low) * _MIX2 & low
            z = top * ones - ((z ^ z >> 31) & low)
            # big-endian byte 7 of each 16-byte lane holds its bit 64 alone
            parts.append(z.to_bytes(lanes << 4, "big")[7::16])
        self._state = (state + k * _GAMMA) & _MASK64
        return int(b"".join(reversed(parts)).translate(_DIGITS), 2) if k else 0

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]
