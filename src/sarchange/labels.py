"""Per-pixel label fields with an explicit unlabeled state.

Labels take one of three values: ``UNCHANGED`` (0), ``CHANGED`` (1) or
``UNLABELED`` (-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError

UNCHANGED = 0
CHANGED = 1
UNLABELED = -1


@dataclass
class LabelField:
    labels: np.ndarray  # (height, width), int8 in {-1, 0, 1}

    def __post_init__(self):
        raw = np.asarray(self.labels)
        if raw.ndim != 2:
            raise ShapeError(f"labels must be 2-D, got ndim={raw.ndim}")
        # Range first: the int8 cast would wrap 257 to 1, and NaN fails it.
        valid = raw.size == 0 or (raw.min() >= UNLABELED and raw.max() <= CHANGED)
        if valid:
            self.labels = raw.astype(np.int8)
            valid = (self.labels == raw).all()
        if not valid:
            known = (raw == UNLABELED) | (raw == UNCHANGED) | (raw == CHANGED)
            bad = np.unique(raw[~known])
            raise ParameterError(f"labels contain unknown values {bad.tolist()}")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]
