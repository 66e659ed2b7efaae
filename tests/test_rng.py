"""Deterministic rng stream checks."""

import math

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


@pytest.mark.parametrize("k", [0, 1, 1023, 1024, 1025, 3000])
@pytest.mark.parametrize("p", [0.0, 2.0**-60, 0.3, 0.5, 1 - 2.0**-53, 1.0])
def test_coins_equal_scalar_draws(k, p):
    batch, scalar = SplitMix64(k * 7919), SplitMix64(k * 7919)
    expected = sum(1 << i for i in range(k) if scalar.next_float() < p)
    assert batch.coins(k, p) == expected
    assert batch.next_u64() == scalar.next_u64()


def test_coins_reject_bad_arguments():
    with pytest.raises(ValueError, match="non-negative"):
        SplitMix64(0).coins(-1, 0.5)
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SplitMix64(0).coins(4, p)


@pytest.mark.parametrize("seed", range(40))
def test_coins_at_the_float_threshold(seed):
    # p just above a draw below 1/2 is not a multiple of 2**-53, so the
    # integer limit must round p * 2**53 up, not down
    draw = SplitMix64(seed).next_float()
    for p in (math.nextafter(draw, 0.0), draw, math.nextafter(draw, 1.0)):
        assert SplitMix64(seed).coins(1, p) == (draw < p)
