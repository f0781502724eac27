"""Deterministic seed derivation for pipeline stages.

Every stochastic stage of the pipeline draws its seed from the root seed
plus a fixed index path.  Children for different paths are statistically
independent, so toggling one stage on or off never perturbs the random
stream of another stage; paired ablation runs stay paired.
"""

from __future__ import annotations

import numpy as np

from .config import check


def derive_seed(seed: int, *path: int) -> int:
    """Return a 64-bit child seed for ``(seed, *path)``.

    The same arguments always produce the same child on every platform.
    """
    check("seed", seed)
    entropy = [int(seed)] + [int(p) for p in path]
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, dtype=np.uint64)[0])
