"""SplitMix64 stream and shuffle tests against scalar references."""

import numpy as np
import pytest

from blademl.rng import SplitMix64, shuffled_indices

from oracles import fisher_yates_reference, splitmix64_stream, uniform_from_u64

# First outputs of the reference C implementation for seed 1234567; the
# de-facto published test vector for this generator.
PUBLISHED_1234567 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
]

# Frozen from the scalar reference in oracles.py.
FROZEN_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
FROZEN_SEED42 = [0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52]


def splitmix64_state_after(seed, draws):
    rng = SplitMix64(seed)
    for _ in range(draws):
        rng.next_u64()
    return rng.state


def test_published_vector():
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == PUBLISHED_1234567
    assert splitmix64_stream(1234567, 3) == PUBLISHED_1234567


@pytest.mark.parametrize(
    "seed,frozen", [(0, FROZEN_SEED0), (42, FROZEN_SEED42)]
)
def test_frozen_streams(seed, frozen):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(3)] == frozen
    assert splitmix64_stream(seed, 3) == frozen


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, 2**64 - 1, 12345])
def test_matches_oracle_stream(seed):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(50)] == splitmix64_stream(seed, 50)


def test_seed_wraps_to_64_bits():
    assert SplitMix64(2**64 + 5).next_u64() == SplitMix64(5).next_u64()


def test_uniform_definition():
    raw = splitmix64_stream(7, 20)
    rng = SplitMix64(7)
    for x in raw:
        u = rng.uniform()
        assert u == uniform_from_u64(x)
        assert 0.0 <= u < 1.0


def test_uniforms_matches_scalar_draws():
    a = SplitMix64(99)
    b = SplitMix64(99)
    block = a.uniforms(257)
    singles = np.array([b.uniform() for _ in range(257)])
    assert np.array_equal(block, singles)
    # State advanced identically: the next scalar draws still agree.
    assert a.uniform() == b.uniform()


def test_uniforms_interleaves_with_scalar():
    a = SplitMix64(5)
    b = SplitMix64(5)
    mixed = list(a.uniforms(3)) + [a.uniform(), a.uniform()]
    plain = [b.uniform() for _ in range(5)]
    assert mixed == plain


def test_uniforms_edge_counts():
    rng = SplitMix64(0)
    assert rng.uniforms(0).shape == (0,)
    with pytest.raises(ValueError):
        rng.uniforms(-1)


@pytest.mark.parametrize("count", [0, 1, 7, 2**64 + 3])
def test_advance_matches_draws(count):
    # State after advance(k) equals k next_u64() calls; a count past 2^64
    # wraps, and 2^64 draws return the stream to where it was.
    seed = 2**64 - 5
    rng = SplitMix64(seed)
    rng.advance(count)
    assert rng.state == splitmix64_state_after(seed, count % 2**64)


def test_advance_rejects_negative_count():
    rng = SplitMix64(1)
    with pytest.raises(ValueError):
        rng.advance(-1)
    assert rng.state == 1


def test_shuffled_indices_is_permutation():
    rng = SplitMix64(3)
    for n in (0, 1, 2, 5, 33):
        out = shuffled_indices(n, rng)
        assert sorted(out) == list(range(n))


@pytest.mark.parametrize("n,seed", [(5, 7), (8, 0), (13, 42), (2, 1), (2000, 9)])
def test_shuffle_matches_reference(n, seed):
    assert shuffled_indices(n, SplitMix64(seed)) == fisher_yates_reference(n, seed)


@pytest.mark.parametrize("n", [0, 1, 2, 40])
def test_shuffle_draws_one_uniform_per_swap(n):
    rng = SplitMix64(11)
    shuffled_indices(n, rng)
    assert rng.state == splitmix64_state_after(11, max(n - 1, 0))


def test_shuffle_frozen_case():
    assert shuffled_indices(5, SplitMix64(7)) == [3, 4, 2, 0, 1]


def test_shuffle_seed_sensitivity():
    outs = {tuple(shuffled_indices(10, SplitMix64(s))) for s in range(10)}
    assert len(outs) > 1
