"""Bloom filters for SSTable point lookups.

RocksDB attaches a bloom filter to every SSTable so that point reads
skip files that cannot contain the key; without them a read would pay
one device read per level.  Filters (like index blocks) are assumed to
be resident in memory, so probing costs no device I/O — only misses
that pass the filter pay for a data-block read.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

_MASK64 = (1 << 64) - 1


def _splitmix64_int(z: int) -> int:
    """SplitMix64 finalizer on a Python int (mod-2^64 arithmetic).

    Bit-identical to :func:`_splitmix64`; exists so single-key probes
    avoid numpy array round-trips on the read hot path.
    """
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: a non-linear 64-bit mix.

    A purely multiplicative hash is linear modulo the (power-of-two)
    filter size, which makes keys congruent modulo ``nbits`` collide on
    *every* probe — catastrophic for integer key spaces.  The shifted
    xors break that linearity.
    """
    z = values.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


class BloomFilter:
    """A classic k-hash bloom filter over int64 keys, vectorized."""

    def __init__(self, nkeys: int, bits_per_key: int):
        if bits_per_key <= 0:
            raise ConfigError("bits_per_key must be positive")
        self.nbits = max(64, nkeys * bits_per_key)
        # Round to a power of two so hashing can mask instead of modulo.
        self.nbits = 1 << int(np.ceil(np.log2(self.nbits)))
        self.k = max(1, min(16, int(round(0.69 * bits_per_key))))
        self._bits = np.zeros(self.nbits, dtype=bool)

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        """(len(keys), k) array of bit positions (double hashing)."""
        with np.errstate(over="ignore"):
            raw = np.asarray(keys).astype(np.uint64)
            h1 = _splitmix64(raw)
            h2 = _splitmix64(raw + _GOLDEN) | np.uint64(1)
            probes = h1[:, None] + np.arange(self.k, dtype=np.uint64)[None, :] * h2[:, None]
        return probes & np.uint64(self.nbits - 1)

    def add_many(self, keys: np.ndarray) -> None:
        """Insert all keys."""
        if len(keys) == 0:
            return
        self._bits[self._positions(np.asarray(keys))] = True

    def may_contain(self, key: int) -> bool:
        """False means definitely absent; True means possibly present.

        The k probe positions are derived with Python-int mixing (no
        temporary numpy arrays) and probing stops at the first clear
        bit — the same positions :meth:`add_many` sets through the
        vectorized :meth:`_positions`, an order of magnitude cheaper
        for the one-key-per-table probes of the LSM read path.
        """
        raw = int(key) & _MASK64
        h1 = _splitmix64_int(raw)
        h2 = _splitmix64_int((raw + 0x9E3779B97F4A7C15) & _MASK64) | 1
        bits = self._bits
        mask = self.nbits - 1
        probe = h1
        for _ in range(self.k):
            if not bits[probe & mask]:
                return False
            probe = (probe + h2) & _MASK64
        return True

    @property
    def memory_bytes(self) -> int:
        """Approximate in-memory footprint of the filter."""
        return self.nbits // 8
