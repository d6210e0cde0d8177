"""FTL mapping conservation under randomized write/trim churn.

The churn mixes scattered batches (large enough to take the bincount
invalidation path), sequential ranges and trims, heavy enough to
trigger garbage collection.  After every step the FTL's own
``check_invariants`` must hold: l2p and p2l are inverse maps, and each
block's valid count equals the popcount of its live pages.  The final
mapping state is also pinned by a fingerprint recorded before the
array/scalar invalidation twins were folded into one implementation.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.flash.config import SSDConfig
from repro.flash.ftl import FlashTranslationLayer

#: sha256 of the final mapping state per seed (see ``_state_digest``).
FINAL_STATE = {
    7: "2c9e201d87ea7ff5297471642c5272257d29bdb9bad965a2681a9a656f6e0304",
    19: "1c2957271a3b19cd25939462a646338d0a28dcf85393aa147ef3fb652e48d1d3",
    101: "74f08dd77388c4cd363ec4b22875bd3596669481d41b89bcb96e44d41130bf3a",
}


def _drive(seed: int) -> FlashTranslationLayer:
    cfg = SSDConfig(nblocks=64, pages_per_block=32, hw_overprovision=0.25)
    rng = np.random.default_rng(seed)
    ftl = FlashTranslationLayer(cfg)
    n = cfg.logical_pages
    for _ in range(300):
        kind = int(rng.integers(0, 3))
        if kind == 0:  # scattered batch (compaction-sized when large)
            lpns = np.unique(rng.integers(0, n, size=int(rng.integers(1, 80))))
            ftl.write_pages(lpns.astype(np.int64))
        elif kind == 1:  # sequential range (flush/WAL shaped)
            start = int(rng.integers(0, n - 1))
            ftl.write_range(start, int(rng.integers(1, min(120, n - start) + 1)))
        else:
            start = int(rng.integers(0, n - 1))
            ftl.trim_range(start, int(rng.integers(1, min(60, n - start) + 1)))
        ftl.check_invariants()
    return ftl


def _state_digest(ftl: FlashTranslationLayer) -> str:
    digest = hashlib.sha256()
    for name in ("_l2p", "_p2l", "_valid_count", "_state", "_closed_seq"):
        digest.update(np.ascontiguousarray(getattr(ftl, name)).tobytes())
    digest.update(repr((sorted(ftl._heads.items()), ftl._seq)).encode())
    return digest.hexdigest()


class TestFTLKernelEquivalence:
    def test_randomized_state_identical(self):
        for seed, expected in FINAL_STATE.items():
            ftl = _drive(seed)
            assert ftl.total_erases > 0, "churn never reached GC"
            assert _state_digest(ftl) == expected, seed
