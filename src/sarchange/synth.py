"""Seeded synthetic multitemporal scene pairs with multiplicative speckle.

A scene is a smooth reflectance gradient with optional piecewise-constant
regions; the second acquisition applies reflectance multipliers inside
the declared change shapes.  Both acquisitions are corrupted by
independent per-pixel gamma speckle with unit mean (shape L, scale 1/L),
the standard L-look intensity model.  Ground truth comes from the change
geometry alone, so it is independent of the speckle level and seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import FINITE_REAL, NON_NEGATIVE_INT, POSITIVE_INT, POSITIVE_REAL, check
from .errors import FormatError, ParameterError
from .labels import CHANGED, UNCHANGED, LabelField
from .raster import Raster, load_json_object, make_out_dir, save_raster


@dataclass(frozen=True)
class Rect:
    top: int
    left: int
    height: int
    width: int

    def __post_init__(self):
        check("rect top", self.top, NON_NEGATIVE_INT)
        check("rect left", self.left, NON_NEGATIVE_INT)
        check("rect height", self.height, POSITIVE_INT)
        check("rect width", self.width, POSITIVE_INT)

    def fits(self, shape_hw: tuple[int, int]) -> bool:
        h, w = shape_hw
        return self.top + self.height <= h and self.left + self.width <= w

    def mask(self, shape_hw: tuple[int, int]) -> np.ndarray:
        h, w = shape_hw
        out = np.zeros((h, w), dtype=bool)
        out[self.top : self.top + self.height, self.left : self.left + self.width] = True
        return out

    def to_dict(self) -> dict:
        return {"kind": "rect", "top": self.top, "left": self.left,
                "height": self.height, "width": self.width}


@dataclass(frozen=True)
class Ellipse:
    row: float
    col: float
    r_row: float
    r_col: float

    def __post_init__(self):
        check("ellipse row", self.row, FINITE_REAL)
        check("ellipse col", self.col, FINITE_REAL)
        check("ellipse r_row", self.r_row, POSITIVE_REAL)
        check("ellipse r_col", self.r_col, POSITIVE_REAL)

    def fits(self, shape_hw: tuple[int, int]) -> bool:
        h, w = shape_hw
        return (self.row - self.r_row >= -0.5 and self.row + self.r_row <= h - 0.5
                and self.col - self.r_col >= -0.5 and self.col + self.r_col <= w - 0.5)

    def mask(self, shape_hw: tuple[int, int]) -> np.ndarray:
        h, w = shape_hw
        rr, cc = np.mgrid[0:h, 0:w]
        return ((rr - self.row) / self.r_row) ** 2 + ((cc - self.col) / self.r_col) ** 2 <= 1.0

    def to_dict(self) -> dict:
        return {"kind": "ellipse", "row": self.row, "col": self.col,
                "r_row": self.r_row, "r_col": self.r_col}


Shape = Rect | Ellipse


def _shape_from_dict(d: dict) -> Shape:
    kind = d.get("kind")
    if kind == "rect":
        return Rect(top=d["top"], left=d["left"], height=d["height"], width=d["width"])
    if kind == "ellipse":
        return Ellipse(row=d["row"], col=d["col"], r_row=d["r_row"], r_col=d["r_col"])
    raise ParameterError(f"unknown shape kind {kind!r}")


@dataclass(frozen=True)
class BaseField:
    """Noise-free background reflectance: diagonal gradient plus flat regions."""

    low: float = 0.25
    high: float = 0.55
    regions: tuple[tuple[Shape, float], ...] = ()

    def __post_init__(self):
        check("base low", self.low, FINITE_REAL)
        check("base high", self.high, FINITE_REAL)
        for _, value in self.regions:
            check("region value", value, FINITE_REAL)

    def render(self, shape_hw: tuple[int, int]) -> np.ndarray:
        h, w = shape_hw
        rr, cc = np.mgrid[0:h, 0:w]
        ramp = (rr / max(h - 1, 1) + cc / max(w - 1, 1)) / 2.0
        out = self.low + (self.high - self.low) * ramp
        for shape, value in self.regions:
            out[shape.mask(shape_hw)] = value
        return out


@dataclass(frozen=True)
class SceneSpec:
    width: int
    height: int
    base: BaseField = field(default_factory=BaseField)
    changes: tuple[tuple[Shape, float], ...] = ()
    looks: float = 4.0
    seed: int = 0

    def __post_init__(self):
        check("width", self.width, POSITIVE_INT)
        check("height", self.height, POSITIVE_INT)
        check("looks", self.looks, POSITIVE_REAL)
        check("seed", self.seed)
        hw = (self.height, self.width)
        for shape, multiplier in self.changes:
            check("change multiplier", multiplier, FINITE_REAL)
            if not shape.fits(hw):
                raise ParameterError(f"change shape {shape} extends outside the scene")

    def to_dict(self) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "base": {
                "low": self.base.low,
                "high": self.base.high,
                "regions": [{**s.to_dict(), "value": v} for s, v in self.base.regions],
            },
            "changes": [{**s.to_dict(), "multiplier": m} for s, m in self.changes],
            "looks": self.looks,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "SceneSpec":
        """The scene of :meth:`to_dict`'s form; omitted keys take the defaults."""
        kwargs = {k: d[k] for k in ("width", "height", "looks", "seed") if k in d}
        if "base" in d:
            base = d["base"]
            kwargs["base"] = BaseField(
                **{k: base[k] for k in ("low", "high") if k in base},
                regions=tuple((_shape_from_dict(r), r["value"]) for r in base.get("regions", [])),
            )
        if "changes" in d:
            kwargs["changes"] = tuple((_shape_from_dict(c), c["multiplier"]) for c in d["changes"])
        return cls(**kwargs)


def load_scene(path: str | Path) -> SceneSpec:
    try:
        return SceneSpec.from_dict(load_json_object(path))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed scene {path}: {type(exc).__name__} {exc}") from exc


def reflectance_fields(spec: SceneSpec) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free reflectance of both acquisitions (before speckle)."""
    hw = (spec.height, spec.width)
    r1 = spec.base.render(hw)
    r2 = r1.copy()
    for shape, multiplier in spec.changes:
        mask = shape.mask(hw)
        r2[mask] = r1[mask] * multiplier
    return r1, r2


def change_truth(spec: SceneSpec) -> LabelField:
    """Ground-truth map: changed exactly inside shapes with multiplier != 1."""
    hw = (spec.height, spec.width)
    labels = np.full(hw, UNCHANGED, dtype=np.int8)
    for shape, multiplier in spec.changes:
        if multiplier != 1.0:
            labels[shape.mask(hw)] = CHANGED
    return LabelField(labels=labels)


def gen_pair(spec: SceneSpec) -> tuple[Raster, Raster, LabelField]:
    """Generate (i1, i2, ground truth) for a scene, deterministically per seed."""
    r1, r2 = reflectance_fields(spec)
    rng = np.random.default_rng(spec.seed)
    s1 = rng.gamma(shape=spec.looks, scale=1.0 / spec.looks, size=r1.shape)
    s2 = rng.gamma(shape=spec.looks, scale=1.0 / spec.looks, size=r2.shape)
    return (
        Raster.from_array(r1 * s1),
        Raster.from_array(r2 * s2),
        change_truth(spec),
    )


def write_scene(spec: SceneSpec, out_dir: str | Path) -> tuple[Path, Path, Path]:
    """Generate the scene and write ``t1.f32``, ``t2.f32``, ``gt.pgm`` and
    ``scene.json`` into ``out_dir``; return the (t1, t2, gt) paths."""
    out_dir = make_out_dir(out_dir)
    i1, i2, gt = gen_pair(spec)
    paths = out_dir / "t1.f32", out_dir / "t2.f32", out_dir / "gt.pgm"
    save_raster(i1, paths[0])
    save_raster(i2, paths[1])
    save_raster(Raster.from_array(gt.labels.astype(np.float64)), paths[2])
    (out_dir / "scene.json").write_text(spec.to_json())
    return paths


def default_scene(seed: int = 0) -> SceneSpec:
    """Desk-scale 128x128 reference scene: three change shapes over a textured
    background, roughly 8% changed pixels, moderate 4-look speckle."""
    return SceneSpec(
        width=128,
        height=128,
        base=BaseField(
            low=0.25,
            high=0.55,
            regions=(
                (Rect(top=8, left=78, height=34, width=40), 0.85),
                (Rect(top=88, left=10, height=30, width=34), 0.12),
            ),
        ),
        changes=(
            (Rect(top=22, left=16, height=24, width=20), 3.0),
            (Ellipse(row=66.0, col=92.0, r_row=11.0, r_col=14.0), 0.3),
            (Rect(top=96, left=66, height=16, width=24), 2.5),
        ),
        looks=4.0,
        seed=seed,
    )
