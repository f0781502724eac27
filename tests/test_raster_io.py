import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sarchange.errors import FormatError, ShapeError, TruncationError
from sarchange.raster import Raster, load_raster, save_raster


def write_pgm(path, width, height, maxval, payload: bytes):
    path.write_bytes(f"P5\n{width} {height}\n{maxval}\n".encode() + payload)


def test_load_pgm8_scales_by_maxval(tmp_path):
    p = tmp_path / "a.pgm"
    write_pgm(p, 2, 2, 255, bytes([0, 255, 128, 64]))
    r = load_raster(p)
    assert (r.width, r.height, r.channels) == (2, 2, 1)
    np.testing.assert_allclose(
        r.band(0), [[0.0, 1.0], [128 / 255, 64 / 255]], rtol=0, atol=0
    )


def test_load_f32raw_identity(tmp_path):
    p = tmp_path / "b.f32"
    values = np.array([0.25, -1.5, 3.0], dtype="<f4")
    p.write_bytes(values.tobytes())
    (tmp_path / "b.f32.json").write_text(
        json.dumps({"width": 3, "height": 1, "channels": 1})
    )
    r = load_raster(p)
    np.testing.assert_array_equal(r.band(0), [[0.25, -1.5, 3.0]])


def test_pgm16_round_trip_within_quantisation_bound(tmp_path):
    rng = np.random.default_rng(7)
    original = rng.random((16, 16))
    p = tmp_path / "c.pgm"
    write_pgm(p, 16, 16, 65535, np.floor(original * 65535 + 0.5).astype(">u2").tobytes())
    loaded = load_raster(p)
    assert np.abs(loaded.band(0) - original).max() <= 1 / (2 * 65535)


def test_save_pgm8_constant_half_rounds_to_128(tmp_path):
    p = tmp_path / "d.pgm"
    save_raster(Raster.from_array(np.full((3, 4), 0.5)), p)
    payload = p.read_bytes().split(b"\n", 3)[3]
    assert payload == bytes([128] * 12)


def test_save_pgm8_binary_map(tmp_path):
    p = tmp_path / "e.pgm"
    save_raster(Raster.from_array(np.array([[0.0, 1.0]])), p)
    assert p.read_bytes().split(b"\n", 3)[3] == bytes([0, 255])


def test_pgm16_samples_are_big_endian(tmp_path):
    p = tmp_path / "f.pgm"
    write_pgm(p, 1, 1, 65535, b"\xff\xff")
    assert load_raster(p).band(0)[0, 0] == 1.0
    write_pgm(p, 1, 1, 65535, b"\x01\x00")  # 0x0100 = 256
    assert load_raster(p).band(0)[0, 0] == pytest.approx(256 / 65535)


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_f32raw_round_trip_is_identity(tmp_path_factory, h, w, c, seed):
    tmp = tmp_path_factory.mktemp("f32")
    rng = np.random.default_rng(seed)
    original = Raster((rng.standard_normal((h, w, c)) * 10).astype("<f4").astype(float))
    p = tmp / "x.f32"
    save_raster(original, p)
    np.testing.assert_array_equal(load_raster(p).data, original.data)


def test_malformed_header_raises_format_error(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P6\n2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError):
        load_raster(p)
    p.write_bytes(b"P5\n2 nonsense\n255\n")
    with pytest.raises(FormatError):
        load_raster(p)


def test_payload_size_mismatch_raises_truncation_error(tmp_path):
    p = tmp_path / "short.pgm"
    write_pgm(p, 4, 4, 255, bytes(15))
    with pytest.raises(TruncationError):
        load_raster(p)
    write_pgm(p, 4, 4, 255, bytes(17))
    with pytest.raises(TruncationError):
        load_raster(p)
    f = tmp_path / "short.f32"
    f.write_bytes(bytes(8))
    (tmp_path / "short.f32.json").write_text(
        json.dumps({"width": 3, "height": 1, "channels": 1})
    )
    with pytest.raises(TruncationError):
        load_raster(f)


def test_multichannel_pgm_save_rejected(tmp_path):
    r = Raster(np.zeros((2, 2, 3)))
    with pytest.raises(FormatError):
        save_raster(r, tmp_path / "rgb.pgm")


def test_non_finite_f32_rejected(tmp_path):
    p = tmp_path / "nan.f32"
    p.write_bytes(np.array([1.0, np.nan], dtype="<f4").tobytes())
    (tmp_path / "nan.f32.json").write_text(
        json.dumps({"width": 2, "height": 1, "channels": 1})
    )
    with pytest.raises(FormatError):
        load_raster(p)


def test_raster_rejects_non_finite_construction():
    with pytest.raises(FormatError):
        Raster.from_array(np.array([[np.inf]]))
    for value in (np.nan, -np.inf):
        data = np.zeros((3, 4, 5))
        data[1, 2, 3] = value
        with pytest.raises(FormatError, match="non-finite"):
            Raster(data)
    with pytest.raises(ShapeError):
        Raster(np.zeros((2, 2)))  # missing channel axis


def test_load_raster_reads_the_format_from_the_file(tmp_path):
    p = tmp_path / "g.pgm"
    write_pgm(p, 1, 1, 65535, b"\x80\x00")
    assert load_raster(p).band(0)[0, 0] == 32768 / 65535
    save_raster(Raster.from_array(np.array([[0.5]])), p)
    assert load_raster(p).band(0)[0, 0] == 128 / 255
    f = tmp_path / "g.f32"
    save_raster(Raster.from_array(np.array([[0.5]])), f)
    assert load_raster(f).band(0)[0, 0] == 0.5
    # A sidecar makes any other path f32raw.
    bare = tmp_path / "g.bin"
    bare.write_bytes(f.read_bytes())
    (tmp_path / "g.bin.json").write_text((tmp_path / "g.f32.json").read_text())
    assert load_raster(bare).band(0)[0, 0] == 0.5
    # The header is read in full, however long its comments run.
    long = tmp_path / "long.pgm"
    long.write_bytes(b"P5\n# " + b"x" * 600 + b"\n2 1\n65535\n" + bytes([0, 1, 255, 255]))
    np.testing.assert_array_equal(load_raster(long).band(0), [[1 / 65535, 1.0]])
    unknown = tmp_path / "g.tif"
    unknown.write_bytes(bytes(4))
    with pytest.raises(FormatError, match="cannot infer"):
        load_raster(unknown)


_PGM_WHITESPACE = st.sampled_from([b" ", b"\t", b"\r", b"\n"])
# A run of whitespace bytes and comments that reach the end of their line.
_PGM_GAP = st.lists(
    _PGM_WHITESPACE | st.binary(max_size=20).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n"),
    min_size=1, max_size=4,
).map(b"".join)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([255, 65535]),
    st.lists(_PGM_GAP, min_size=3, max_size=3),
    _PGM_WHITESPACE,
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pgm_header_takes_any_whitespace_and_comments_between_fields(
    tmp_path_factory, width, height, maxval, gaps, last, seed
):
    dtype = ">u2" if maxval > 255 else "u1"
    payload = np.random.default_rng(seed).integers(0, maxval + 1, size=(height, width))
    header = b"P5" + b"".join(
        gap + str(v).encode() for gap, v in zip(gaps, (width, height, maxval))
    )
    p = tmp_path_factory.mktemp("pgm") / "h.pgm"
    p.write_bytes(header + last + payload.astype(dtype).tobytes())
    np.testing.assert_array_equal(load_raster(p).band(0), payload / maxval)


@pytest.mark.parametrize("blob", [
    b"P52 1 255\n" + bytes(2),    # magic glued to the width
    b"P5 2 1 255#\n" + bytes(2),  # a comment in place of the final whitespace byte
    b"P5 2 1 25",                # header cut short
    b"P5 2 1",
    b"P5 2 1 255",
    b"P5 # no end of line",
])
def test_malformed_pgm_headers_raise_format_error_only(tmp_path, blob):
    p = tmp_path / "bad.pgm"
    p.write_bytes(blob)
    with pytest.raises(FormatError, match="PGM header") as exc_info:
        load_raster(p)
    assert type(exc_info.value) is FormatError


@pytest.mark.parametrize("meta", [
    {"width": 3.9, "height": 1, "channels": 1},
    {"width": 3, "height": "1", "channels": 1},
    {"width": 3, "height": 1, "channels": True},
    {"width": 3, "height": 0, "channels": 1},
    {"width": 3, "height": 1},
])
def test_sidecar_dimensions_must_be_integers_of_at_least_one(tmp_path, meta):
    p = tmp_path / "s.f32"
    p.write_bytes(np.zeros(3, dtype="<f4").tobytes())
    (tmp_path / "s.f32.json").write_text(json.dumps(meta))
    with pytest.raises(FormatError, match="s.f32.json"):
        load_raster(p)


def test_save_raster_to_an_unknown_suffix_raises_and_writes_nothing(tmp_path):
    with pytest.raises(FormatError, match="cannot infer"):
        save_raster(Raster.from_array(np.zeros((2, 3))), tmp_path / "x.tif")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["r.pnm", "r.raw", "r.f32raw", "R.PGM"])
def test_every_suffix_round_trips(tmp_path, name):
    original = Raster.from_array(np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]))
    save_raster(original, tmp_path / name)
    np.testing.assert_array_equal(load_raster(tmp_path / name).data, original.data)


def test_saved_bytes_are_pinned(tmp_path):
    values = np.array([[0.0, 0.5, 1.0], [0.25, -1.0, 2.0]])
    save_raster(Raster.from_array(values), tmp_path / "p.pgm")
    pgm = (tmp_path / "p.pgm").read_bytes()
    assert pgm == b"P5\n3 2\n255\n" + bytes([0, 128, 255, 64, 0, 255])
    save_raster(Raster.from_array(values), tmp_path / "p.f32")
    assert (tmp_path / "p.f32").read_bytes() == values.astype("<f4").tobytes()
    assert (tmp_path / "p.f32.json").read_text() == '{"channels": 1, "height": 2, "width": 3}'


@pytest.mark.parametrize("name", ["nope.f32", "nope.pgm", "nope.raw"])
def test_a_missing_raster_is_named_not_its_sidecar(tmp_path, name):
    path = tmp_path / name
    with pytest.raises(FormatError, match=f"^cannot read raster {re.escape(str(path))}: ") as exc_info:
        load_raster(path)
    assert ".json" not in str(exc_info.value)


def test_a_missing_raster_with_a_sidecar_is_named(tmp_path):
    path = tmp_path / "t1.bin"  # no format suffix: its sidecar makes it f32raw
    (tmp_path / "t1.bin.json").write_text(json.dumps({"width": 1, "height": 1, "channels": 1}))
    with pytest.raises(FormatError, match=f"^cannot read raster {re.escape(str(path))}: "):
        load_raster(path)
    folder = tmp_path / "folder.pgm"
    folder.mkdir()
    with pytest.raises(FormatError, match=f"^cannot read raster {re.escape(str(folder))}: "):
        load_raster(folder)
