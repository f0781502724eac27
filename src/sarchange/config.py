"""The pipeline's settings, checked when they are built.

One frozen :class:`PipelineConfig` holds every value the stages read.
The two denoising paths, ``clean_labels`` and ``stack_features``, take
it whole and read their own fields; functions that take raw values
default to its defaults, so each default is written here once.
Each rule is written once, in ``_FIELD_RULES``: :func:`check` applies it
to every field when a config is built or replaced, so every instance is
valid, and to the stage functions' raw arguments; its shared rules
also check the synthetic scenes' fields.  The rule that needs
the image's shape, that the convolution stack fits it, is
``patch_features.check_shape``: ``stack_features`` applies it first, and
``run_pipeline`` right after ``load``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path

from .errors import ParameterError


@dataclass(frozen=True)
class PipelineConfig:
    t1: str | Path = ""
    t2: str | Path = ""
    gt: str | Path | None = None
    out_dir: str | Path = "out"

    alpha: float = 0.7            # anchor weight in label propagation
    patch_size: int = 7           # neighbourhood for preclassification features
    sample_ratio: float = 0.12    # fraction of pixels kept as training labels
    depth: int = 4                # convolution layers in the feature stack
    kernels_per_layer: int = 30
    kernel_size: int = 5
    kernel_mode: str = "distinctive"
    clean: bool = True            # run label-noise cleaning
    conv: bool = True             # run the convolution stack (else pointwise)
    rounds: int = 10              # cleaning rounds for the majority vote
    labeled_fraction: float = 0.5
    n_regions: int | None = None  # None: about one region per 64 pixels
    compactness: float = 10.0
    svm_c: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in _FIELD_RULES:
            check(name, getattr(self, name))


def check(name: str, value, rule: tuple | None = None) -> None:
    """Raise :class:`ParameterError` "<name> must be <rule>, got <value>" unless
    ``value`` meets ``rule``, by default field ``name``'s; only a bool rule
    takes a bool."""
    kind, text, ok = rule or _FIELD_RULES[name]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind) or not ok(value):
        raise ParameterError(f"{name} must be {text}, got {value!r}")


def _finite(v) -> bool:
    """``math.isfinite``, but False, not OverflowError, for an int too large for a float."""
    return abs(v) <= sys.float_info.max


# (accepted types, rule, check) rules, shared with the synthetic scenes.
POSITIVE_INT = (Integral, "an integer >= 1", lambda v: v >= 1)
NON_NEGATIVE_INT = (Integral, "an integer >= 0", lambda v: v >= 0)
FINITE_REAL = (Real, "a finite number", _finite)
POSITIVE_REAL = (Real, "a finite number > 0", lambda v: _finite(v) and v > 0)

# The rule of every PipelineConfig field but the paths.
_FIELD_RULES = {
    "alpha": (Real, "a number in (0, 1)", lambda v: 0 < v < 1),
    "patch_size": (Integral, "an odd integer >= 3", lambda v: v >= 3 and v % 2 == 1),
    "sample_ratio": (Real, "a number in (0, 1]", lambda v: 0 < v <= 1),
    "depth": POSITIVE_INT,
    "kernels_per_layer": POSITIVE_INT,
    "kernel_size": (Integral, "an odd integer >= 1", lambda v: v >= 1 and v % 2 == 1),
    "kernel_mode": (str, "'distinctive' or 'random'", lambda v: v in ("distinctive", "random")),
    "clean": (bool, "true or false", lambda v: True),
    "conv": (bool, "true or false", lambda v: True),
    "rounds": POSITIVE_INT,
    "labeled_fraction": (Real, "a number in (0, 1]", lambda v: 0 < v <= 1),
    "n_regions": ((Integral, type(None)), "None or an integer >= 1", lambda v: v is None or v >= 1),
    "compactness": (Real, "a finite number >= 0", lambda v: _finite(v) and v >= 0),
    "svm_c": POSITIVE_REAL,
    "seed": NON_NEGATIVE_INT,
}
