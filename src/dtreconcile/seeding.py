"""Deterministic seed derivation and the random streams.

All randomness in a run flows from one base seed; components derive
their own seed from a documented hash of (base seed, purpose) so they
stay reproducible in isolation.

Two streams draw from a derived seed, each with one implementation:

- ``train``: `agent.train` draws one block of uniforms per pass over
  the training cycles from numpy's ``default_rng``, imported inside
  `train`; each cycle takes its days' worth in turn.
- ``online``: `rng_for` returns a `Generator`, the pure-Python equal of
  ``np.random.default_rng(seed)``. Online revision draws one uniform per
  policy call from it, so `reconcile` and `validate-data` never import
  numpy.

A grid cell's seed is derived once more (``grid:i:j``), and the cell then
draws both streams from it.
"""

from __future__ import annotations

import hashlib

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_TO_UNIT = 1.0 / 9007199254740992.0  # 2**-53


def derive_seed(base_seed: int, purpose: str) -> int:
    """First 8 bytes of sha256(f"{base_seed}:{purpose}") as an int."""
    digest = hashlib.sha256(f"{base_seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _hashmix(value: int, const: int) -> tuple[int, int]:
    value ^= const
    const = (const * 0x931E8875) & _MASK32
    value = (value * const) & _MASK32
    return value ^ (value >> 16), const


def _mix(x: int, y: int) -> int:
    mixed = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return mixed ^ (mixed >> 16)


def _seed_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``: numpy's entropy
    pool of four 32-bit words, mixed and expanded to four 64-bit words."""
    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    const, pool = 0x43B0D7E5, []
    for i in range(4):
        word, const = _hashmix(entropy[i] if i < len(entropy) else 0, const)
        pool.append(word)
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                word, const = _hashmix(pool[i_src], const)
                pool[i_dst] = _mix(pool[i_dst], word)
    for extra in entropy[4:]:
        for i_dst in range(4):
            word, const = _hashmix(extra, const)
            pool[i_dst] = _mix(pool[i_dst], word)
    const, words = 0x8B51F9DD, []
    for i in range(8):
        word = pool[i % 4] ^ const
        const = (const * 0x58F38DED) & _MASK32
        word = (word * const) & _MASK32
        words.append(word ^ (word >> 16))
    return [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]


class Generator:
    """``np.random.default_rng(seed)`` bit for bit, for its `random` draws:
    SeedSequence seeding of a PCG64 (128-bit LCG, XSL-RR output) and
    53-bit doubles. A non-negative int seed only."""

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError("seed must be non-negative")
        s0, s1, i0, i1 = _seed_state(seed)
        # PCG's seeding, as numpy does it: from state 0, step once, add the
        # seed's first 128 bits, step again; the increment is odd.
        self._inc = (((i0 << 64 | i1) << 1) | 1) & _MASK128
        state = (self._inc + (s0 << 64 | s1)) & _MASK128
        self._state = (state * _PCG_MULT + self._inc) & _MASK128

    def random(self) -> float:
        """One uniform double in [0, 1), the one numpy's ``random()`` returns:
        the next 64-bit output's top 53 bits."""
        self._state = state = (self._state * _PCG_MULT + self._inc) & _MASK128
        rot = state >> 122
        word = ((state >> 64) ^ state) & _MASK64
        return ((((word >> rot) | (word << (64 - rot))) & _MASK64) >> 11) * _TO_UNIT


def rng_for(base_seed: int, purpose: str) -> Generator:
    return Generator(derive_seed(base_seed, purpose))
