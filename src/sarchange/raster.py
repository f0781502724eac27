"""In-memory raster grids and their on-disk formats.

The path's suffix picks the format, on load as on save; any other
suffix raises ``FormatError`` before anything is read or written:

* ``.pgm``/``.pnm``: binary (``P5``) Netpbm graymaps, single channel.
  Loads read one or two big-endian bytes a sample, as the header's
  maxval says, and divide by that maxval.  Saves write 8-bit samples,
  ``round(v * 255)`` after clamping to [0, 1].
* ``.f32``/``.raw``/``.f32raw``, and on load any path with a sidecar:
  raw little-endian 32-bit floats, row major, channels interleaved,
  taken as-is, with a JSON sidecar at ``<path>.json`` holding the
  integers ``{"width", "height", "channels"}``.

Loads never produce non-finite values; files holding NaN or Inf are rejected.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError, ShapeError, TruncationError


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
        # NaN propagates through min and max, and +/-inf shows in one of them:
        # no mask of the data is made.
        if not (np.isfinite(self.data.min()) and np.isfinite(self.data.max())):
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


# "P5", then width, height and maxval, each after whitespace or "#" comments
# running to the end of their line, then one whitespace byte.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:[ \t\r\n]|#.*\n)+(\d+)" * 3 + rb"[ \t\r\n]")


def _parse_pgm_header(blob: bytes) -> tuple[int, int, int, int]:
    """Parse a binary PGM header; return (width, height, maxval, payload offset)."""
    match = _PGM_HEADER.match(blob)
    if match is None:
        raise FormatError("not a binary PGM header (P5, width, height, maxval, whitespace)")
    width, height, maxval = map(int, match.groups())
    if width < 1 or height < 1:
        raise FormatError(f"PGM dimensions must be positive, got {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise FormatError(f"PGM maxval out of range: {maxval}")
    return width, height, maxval, match.end()


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


def _save_pgm(raster: Raster, path: Path) -> None:
    if raster.channels != 1:
        raise FormatError(
            f"PGM output is single channel, raster has {raster.channels} channels"
        )
    # Half-up rounding so e.g. 0.5 * 255 quantises to 128.
    quantised = np.floor(np.clip(raster.band(0), 0.0, 1.0) * 255 + 0.5)
    header = f"P5\n{raster.width} {raster.height}\n255\n".encode("ascii")
    path.write_bytes(header + quantised.astype(np.uint8).tobytes())


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def _load_f32raw(path: Path) -> Raster:
    blob = path.read_bytes()  # first, so a missing raster is named before its sidecar
    sidecar = _sidecar_path(path)
    meta = load_json_object(sidecar)
    dims = [meta.get(key) for key in ("height", "width", "channels")]
    if not all(type(v) is int and v >= 1 for v in dims):
        raise FormatError(
            f"f32raw sidecar {sidecar} must give width, height and channels "
            f"as integers >= 1, got {meta}"
        )
    height, width, channels = dims
    expected = width * height * channels * 4
    if len(blob) != expected:
        raise TruncationError(
            f"f32raw payload is {len(blob)} bytes, sidecar promises {expected}"
        )
    values = np.frombuffer(blob, dtype="<f4").astype(np.float64)
    if not np.isfinite(values).all():
        raise FormatError(f"f32raw file {path} contains non-finite values")
    return Raster(values.reshape(height, width, channels))


def _save_f32raw(raster: Raster, path: Path) -> None:
    path.write_bytes(np.ascontiguousarray(raster.data, dtype="<f4").tobytes())
    meta = {"width": raster.width, "height": raster.height, "channels": raster.channels}
    _sidecar_path(path).write_text(json.dumps(meta, sort_keys=True))


# Each suffix's (load, save) pair; both directions read this one table.
_CODECS = dict.fromkeys((".pgm", ".pnm"), (_load_pgm, _save_pgm)) | dict.fromkeys(
    (".f32", ".raw", ".f32raw"), (_load_f32raw, _save_f32raw)
)


def _codec(path: Path) -> tuple:
    codec = _CODECS.get(path.suffix.lower())
    if codec is None:
        raise FormatError(f"cannot infer raster format for {path}")
    return codec


def load_json_object(path: str | Path) -> dict:
    """Parse a JSON file holding one object; FormatError naming the path otherwise."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise FormatError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path} must hold a JSON object, got {type(data).__name__}")
    return data


def make_out_dir(path: str | Path) -> Path:
    """Create directory ``path`` and its parents unless it exists;
    ParameterError naming it and the OS reason otherwise."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot create output directory {path}: {exc.strerror}") from exc
    return path


def load_raster(path: str | Path) -> Raster:
    """Load a raster from ``path`` in the format its suffix names, or as
    f32raw when the suffix names none and ``<path>.json`` exists; a file
    that cannot be read is a FormatError naming it."""
    path = Path(path)
    if path.suffix.lower() not in _CODECS and _sidecar_path(path).exists():
        load = _load_f32raw
    else:
        load = _codec(path)[0]
    try:
        return load(path)
    except OSError as exc:
        raise FormatError(f"cannot read raster {path}: {exc.strerror}") from exc


def save_raster(raster: Raster, path: str | Path) -> None:
    """Write ``raster`` to ``path`` in the format its suffix names; the
    result loads back with :func:`load_raster`."""
    path = Path(path)
    _codec(path)[1](raster, path)
