"""SplitMix64 pseudorandom stream.

Every place the pipeline needs randomness (corpus generation, fold shuffling,
network weight init) draws from this generator so that a seed reproduces the
exact same bytes in any conforming implementation, on any platform.

The stream is counter-based (draw k from state s is mix(s + k * gamma)), so
`advance(count)` skips draws in O(1).  A caller whose draw count depends on
the draws reads a block ahead from a copy, `SplitMix64(rng.state).uniforms(m)`,
then advances `rng` by the draws it used, ending where scalar draws would.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO53 = float(1 << 53)


class SplitMix64:
    """64-bit generator: state += gamma, output = mix(state), all mod 2^64."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1): top 53 bits of the next output."""
        return (self.next_u64() >> 11) / _TWO53

    def advance(self, count: int) -> None:
        """Skip `count` draws: the state `count` next_u64() calls reach."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        self.state = (self.state + count * _GAMMA) & _MASK64

    def uniforms(self, count: int) -> np.ndarray:
        """Vectorized block of `count` uniforms, identical to `count` calls
        of uniform(); SplitMix64 is counter-based so the block is a closed
        form over the index range."""
        idx = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(self.state) + idx * np.uint64(_GAMMA)
        self.advance(count)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        return (z >> np.uint64(11)).astype(np.float64) / _TWO53


def index_below(u, span):
    """floor(u * span) for uniforms u in [0, 1), elementwise; the clamp to
    span - 1 guards the (theoretical) case of the product rounding up to
    span.  Truncation equals floor here, as u * span is nonnegative."""
    return np.minimum((np.asarray(u) * span).astype(np.int64), span - 1)


def shuffled_indices(n: int, rng: SplitMix64) -> list[int]:
    """Fisher-Yates permutation of range(n) driven by `rng`.

    For i = n - 1 down to 1, swap i with j = index_below(u, i + 1), one
    uniform per swap, drawn as one block.
    """
    idx = list(range(n))
    spans = np.arange(n, 1, -1)
    swaps = index_below(rng.uniforms(spans.size), spans).tolist()
    for i, j in zip(range(n - 1, 0, -1), swaps):
        idx[i], idx[j] = idx[j], idx[i]
    return idx
