"""In-memory raster grids and their on-disk formats.

Two interchange formats are supported:

* ``pgm8`` / ``pgm16``: binary (``P5``) Netpbm graymaps, single channel.
  Multi-byte samples are big-endian as Netpbm requires.  Values are
  normalised to [0, 1] on load by dividing by the file's maxval, and
  quantised by ``round(v * maxval)`` after clamping to [0, 1] on save.
* ``f32raw``: raw little-endian 32-bit floats, row major, channels
  interleaved, with a JSON sidecar at ``<path>.json`` holding
  ``{"width", "height", "channels"}``.  Values are taken as-is.

``load_raster`` reads the format from the path and the PGM header;
``save_raster`` writes the format it is given.  Loads never produce
non-finite values; files containing NaN or Inf are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError, TruncationError

FORMATS = ("pgm8", "pgm16", "f32raw")

_PGM_MAXVAL = {"pgm8": 255, "pgm16": 65535}


@dataclass
class Raster:
    """A 2-D grid of real-valued intensities.

    ``data`` always has shape ``(height, width, channels)`` and dtype
    float64.  Use :meth:`from_array` to wrap a plain 2-D or 3-D array.
    """

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ShapeError(
                f"raster data must be (height, width, channels), got ndim={self.data.ndim}"
            )
        h, w, c = self.data.shape
        if h < 1 or w < 1 or c < 1:
            raise ShapeError(f"raster dimensions must be positive, got {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise FormatError("raster contains non-finite values")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Raster":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        return cls(arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    def band(self, i: int = 0) -> np.ndarray:
        """Return channel ``i`` as a 2-D array."""
        return self.data[:, :, i]


def _parse_pgm_header(blob: bytes) -> tuple[int, int, int, int]:
    """Parse a binary PGM header; return (width, height, maxval, payload offset)."""
    if not blob.startswith(b"P5"):
        raise FormatError("not a binary PGM file (missing P5 magic)")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        if pos >= len(blob):
            raise FormatError("PGM header ended before width/height/maxval")
        ch = blob[pos : pos + 1]
        if ch in b" \t\r\n":
            pos += 1
        elif ch == b"#":
            nl = blob.find(b"\n", pos)
            if nl < 0:
                raise FormatError("unterminated comment in PGM header")
            pos = nl + 1
        elif ch.isdigit():
            end = pos
            while end < len(blob) and blob[end : end + 1].isdigit():
                end += 1
            fields.append(int(blob[pos:end]))
            pos = end
        else:
            raise FormatError(f"unexpected byte {ch!r} in PGM header")
    if pos >= len(blob) or blob[pos : pos + 1] not in b" \t\r\n":
        raise FormatError("PGM header not terminated by whitespace")
    pos += 1
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"PGM dimensions must be positive, got {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise FormatError(f"PGM maxval out of range: {maxval}")
    return width, height, maxval, pos


def _load_pgm(path: Path) -> Raster:
    blob = path.read_bytes()
    width, height, maxval, offset = _parse_pgm_header(blob)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    expected = width * height * dtype.itemsize
    payload = blob[offset:]
    if len(payload) != expected:
        raise TruncationError(
            f"PGM payload is {len(payload)} bytes, header promises {expected}"
        )
    values = np.frombuffer(payload, dtype=dtype).astype(np.float64) / float(maxval)
    return Raster.from_array(values.reshape(height, width))


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def _load_f32raw(path: Path) -> Raster:
    sidecar = _sidecar_path(path)
    meta = load_json_object(sidecar)
    try:
        width = int(meta["width"])
        height = int(meta["height"])
        channels = int(meta["channels"])
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"malformed f32raw sidecar {sidecar}: {exc}") from exc
    if width < 1 or height < 1 or channels < 1:
        raise FormatError(f"f32raw sidecar dimensions must be positive: {meta}")
    blob = path.read_bytes()
    expected = width * height * channels * 4
    if len(blob) != expected:
        raise TruncationError(
            f"f32raw payload is {len(blob)} bytes, sidecar promises {expected}"
        )
    values = np.frombuffer(blob, dtype="<f4").astype(np.float64)
    if not np.isfinite(values).all():
        raise FormatError(f"f32raw file {path} contains non-finite values")
    return Raster(values.reshape(height, width, channels))


def load_json_object(path: str | Path) -> dict:
    """Parse a JSON file holding one object; FormatError naming the path otherwise."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise FormatError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path} must hold a JSON object, got {type(data).__name__}")
    return data


def load_raster(path: str | Path) -> Raster:
    """Load a raster from ``path``, reading its format from the file.

    ``.pgm``/``.pnm`` files are PGM, one or two bytes a sample as the
    header's maxval says, and scaled to [0, 1] by that maxval.
    ``.f32``/``.raw``/``.f32raw`` files, and any other path with a
    ``<path>.json`` sidecar, are f32raw, taken verbatim.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix in (".pgm", ".pnm"):
        return _load_pgm(path)
    if suffix in (".f32", ".raw", ".f32raw") or _sidecar_path(path).exists():
        return _load_f32raw(path)
    raise FormatError(f"cannot infer raster format for {path}")


def save_raster(raster: Raster, path: str | Path, fmt: str) -> None:
    """Write ``raster`` to ``path``; the result is loadable by :func:`load_raster`."""
    path = Path(path)
    if fmt not in FORMATS:
        raise FormatError(f"unknown raster format {fmt!r}, expected one of {FORMATS}")
    if fmt == "f32raw":
        path.write_bytes(np.ascontiguousarray(raster.data, dtype="<f4").tobytes())
        meta = {
            "width": raster.width,
            "height": raster.height,
            "channels": raster.channels,
        }
        _sidecar_path(path).write_text(json.dumps(meta, sort_keys=True))
        return
    if raster.channels != 1:
        raise FormatError(
            f"PGM output is single channel, raster has {raster.channels} channels"
        )
    maxval = _PGM_MAXVAL[fmt]
    clamped = np.clip(raster.band(0), 0.0, 1.0)
    # Half-up rounding so e.g. 0.5 * 255 quantises to 128.
    quantised = np.floor(clamped * maxval + 0.5)
    dtype = np.dtype("u1") if fmt == "pgm8" else np.dtype(">u2")
    header = f"P5\n{raster.width} {raster.height}\n{maxval}\n".encode("ascii")
    path.write_bytes(header + quantised.astype(dtype).tobytes())
