"""Deterministic rng stream checks."""

import pytest

from quasikernel.rng import SplitMix64

# reference stream for seed 0, matching the widely published constants
SEED0_STREAM = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_seed0_reference_stream():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(5)] == SEED0_STREAM


def test_seed_is_masked_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SEED0_STREAM[0]


def test_streams_are_reproducible():
    a = SplitMix64(1234567)
    b = SplitMix64(1234567)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_next_below_range_and_regression():
    rng = SplitMix64(42)
    vals = [rng.next_below(10) for _ in range(8)]
    assert vals == [3, 1, 8, 4, 0, 2, 5, 8]
    rng = SplitMix64(99)
    assert all(0 <= rng.next_below(7) < 7 for _ in range(500))


def test_next_below_one_is_always_zero():
    rng = SplitMix64(5)
    assert all(rng.next_below(1) == 0 for _ in range(50))


def test_next_below_rejects_nonpositive():
    rng = SplitMix64(0)
    with pytest.raises(ValueError):
        rng.next_below(0)
    with pytest.raises(ValueError):
        rng.next_below(-3)


def test_next_float_range_and_regression():
    rng = SplitMix64(42)
    vals = [rng.next_float() for _ in range(200)]
    assert all(0.0 <= x < 1.0 for x in vals)
    rng = SplitMix64(42)
    assert rng.next_float() == pytest.approx(0.741565, abs=1e-6)


def test_shuffle_permutes_and_is_deterministic():
    rng = SplitMix64(7)
    xs = list(range(8))
    rng.shuffle(xs)
    assert xs == [1, 4, 5, 2, 6, 0, 3, 7]
    assert sorted(xs) == list(range(8))


def test_shuffle_handles_tiny_lists():
    rng = SplitMix64(0)
    empty, one = [], [9]
    rng.shuffle(empty)
    rng.shuffle(one)
    assert empty == [] and one == [9]


def test_next_below_takes_bounds_up_to_two_to_the_64():
    assert SplitMix64(0).next_below(1 << 64) == SEED0_STREAM[0]
    with pytest.raises(ValueError, match=r"at most 2\*\*64, got 18446744073709551617"):
        SplitMix64(0).next_below((1 << 64) + 1)
