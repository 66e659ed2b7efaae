"""Deterministic pseudo-random numbers, identical on every platform."""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 generator; fixed constants so streams never vary by platform.

    Parameters
    ----------
    seed : int
        Any Python int; only its low 64 bits are used.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
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

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]
