"""Seeded synthetic scene pairs for the benchmark, written to disk.

The geometry is the package's 128x128 ``default_scene`` with every
coordinate and extent multiplied by an integer ``scale``: a diagonal
reflectance ramp with two flat regions, and three changed shapes (two
rectangles and an ellipse) in the second acquisition.  Both acquisitions
carry independent unit-mean gamma speckle with ``looks`` looks.  The
generator is numpy-only and lives here, not in the package, so a change
to the package's own synthesis code cannot change the benchmark inputs;
the program under test sees only the files this module writes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASE = 128
LOW, HIGH = 0.25, 0.55
# (top, left, height, width, reflectance) of the flat background regions.
REGIONS = ((8, 78, 34, 40, 0.85), (88, 10, 30, 34, 0.12))
# Changed shapes: rectangles as (top, left, height, width, multiplier),
# the ellipse as (row, col, r_row, r_col, multiplier).
CHANGE_RECTS = ((22, 16, 24, 20, 3.0), (96, 66, 16, 24, 2.5))
CHANGE_ELLIPSE = (66.0, 92.0, 11.0, 14.0, 0.3)


@dataclass(frozen=True)
class Scene:
    t1: Path
    t2: Path
    gt: Path
    truth: np.ndarray  # (h, w) bool, True where changed


def scene_seed(workload_seed: int, index: int) -> int:
    """Scene seed number ``index`` of a workload, derived from its seed."""
    ss = np.random.SeedSequence([int(workload_seed), int(index)])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def _rect_mask(hw, top, left, height, width, f) -> np.ndarray:
    mask = np.zeros(hw, dtype=bool)
    mask[top * f:(top + height) * f, left * f:(left + width) * f] = True
    return mask


def _ellipse_mask(hw, row, col, r_row, r_col, f) -> np.ndarray:
    rr, cc = np.mgrid[0:hw[0], 0:hw[1]]
    return ((rr - row * f) / (r_row * f)) ** 2 + ((cc - col * f) / (r_col * f)) ** 2 <= 1.0


def reflectance(scale: int):
    """Noise-free reflectance of both acquisitions and the changed mask."""
    f = int(scale)
    hw = (BASE * f, BASE * f)
    rr, cc = np.mgrid[0:hw[0], 0:hw[1]]
    ramp = (rr / (hw[0] - 1) + cc / (hw[1] - 1)) / 2.0
    r1 = LOW + (HIGH - LOW) * ramp
    for top, left, height, width, value in REGIONS:
        r1[_rect_mask(hw, top, left, height, width, f)] = value
    r2 = r1.copy()
    truth = np.zeros(hw, dtype=bool)
    masks = [(_rect_mask(hw, *rect[:4], f), rect[4]) for rect in CHANGE_RECTS]
    masks.append((_ellipse_mask(hw, *CHANGE_ELLIPSE[:4], f), CHANGE_ELLIPSE[4]))
    for mask, multiplier in masks:
        r2[mask] = r1[mask] * multiplier
        truth |= mask
    return r1, r2, truth


def generate(scale: int, looks: float, seed: int):
    """Return (i1, i2, truth): the reflectances times gamma speckle."""
    r1, r2, truth = reflectance(scale)
    rng = np.random.default_rng(seed)
    s1 = rng.gamma(shape=looks, scale=1.0 / looks, size=r1.shape)
    s2 = rng.gamma(shape=looks, scale=1.0 / looks, size=r2.shape)
    return r1 * s1, r2 * s2, truth


def write_f32(path: Path, data: np.ndarray) -> None:
    """Raw little-endian float32 plus the ``<name>.json`` size sidecar."""
    path.write_bytes(np.ascontiguousarray(data, dtype="<f4").tobytes())
    meta = {"channels": 1, "height": data.shape[0], "width": data.shape[1]}
    path.with_name(path.name + ".json").write_text(json.dumps(meta, sort_keys=True))


def write_pgm(path: Path, mask: np.ndarray) -> None:
    """Binary 8-bit PGM, 255 where ``mask`` is set."""
    h, w = mask.shape
    path.write_bytes(b"P5\n%d %d\n255\n" % (w, h) + (mask.astype(np.uint8) * 255).tobytes())


def write_scene(out_dir: Path, scale: int, looks: float, seed: int) -> Scene:
    out_dir.mkdir(parents=True, exist_ok=True)
    i1, i2, truth = generate(scale, looks, seed)
    scene = Scene(out_dir / "t1.f32", out_dir / "t2.f32", out_dir / "gt.pgm", truth)
    write_f32(scene.t1, i1)
    write_f32(scene.t2, i2)
    write_pgm(scene.gt, truth)
    return scene


def check_generator(scale: int, looks: float, seed: int, truth: np.ndarray) -> list[str]:
    """Sanity checks on one generated pair; returns the failures found.

    Generation must be deterministic per seed, ground truth must not
    depend on the seed, the changed share must stay near the reference
    8%, and the speckle ratio on unchanged pixels must have the gamma
    model's unit mean and 1/looks variance (with about five standard
    errors of slack for the finite sample).
    """
    a1, a2, t = generate(scale, looks, seed)
    b1, b2, _ = generate(scale, looks, seed)
    problems = []
    if not (np.array_equal(a1, b1) and np.array_equal(a2, b2)):
        problems.append("generator is not deterministic")
    if not np.array_equal(t, truth):
        problems.append("ground truth depends on the seed")
    share = float(t.mean())
    if not 0.07 <= share <= 0.09:
        problems.append(f"changed share {share:.4f} outside [0.07, 0.09]")
    ratio = a1[~t] / reflectance(scale)[0][~t]
    if abs(ratio.mean() - 1.0) > 0.02 or abs(ratio.var() * looks - 1.0) > 0.1:
        problems.append(
            f"speckle mean {ratio.mean():.4f} / variance x looks "
            f"{ratio.var() * looks:.4f} off the gamma model"
        )
    return problems
