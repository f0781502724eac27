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
        self.labels = np.asarray(self.labels, dtype=np.int8)
        if self.labels.ndim != 2:
            raise ShapeError(f"labels must be 2-D, got ndim={self.labels.ndim}")
        valid = np.isin(self.labels, (UNCHANGED, CHANGED, UNLABELED))
        if not valid.all():
            bad = np.unique(self.labels[~valid])
            raise ParameterError(f"labels contain unknown values {bad.tolist()}")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    def copy(self) -> "LabelField":
        return LabelField(labels=self.labels.copy())
