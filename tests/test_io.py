import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dspn import Grid, read_grd, read_grid, read_pgm16, write_grd, write_pgm16
from dspn.errors import CorruptFile, UnsupportedFormat

REJECTED = (CorruptFile, UnsupportedFormat)
HEADER_SPACE = b" \t\n\r\x0b\x0c"


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


def _grd(width, height, channels, values) -> bytes:
    return b"GRD1" + struct.pack("<III", width, height, channels) + np.asarray(values, "<f4").tobytes()


def _pgm(magic, width, height, maxval=65535, payload=None) -> bytes:
    if payload is None:
        payload = b"\x01" * (2 * abs(width * height))
    return magic + f"\n{width} {height}\n{maxval}\n".encode("ascii") + payload


@st.composite
def malformed_grd(draw):
    w, h, c = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 2))
    values = draw(st.lists(st.floats(-1e3, 1e3, width=32), min_size=w * h * c, max_size=w * h * c))
    good = _grd(w, h, c, values)
    defect = draw(st.sampled_from(["truncated", "oversized", "non-finite", "zero", "magic", "header"]))
    if defect == "truncated":
        return good[: draw(st.integers(0, len(good) - 1))]
    if defect == "oversized":
        return good + draw(st.binary(min_size=1, max_size=8))
    if defect == "non-finite":
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        return _grd(w, h, c, values)
    if defect == "zero":
        dims = [w, h, c]
        dims[draw(st.integers(0, 2))] = 0
        return _grd(*dims, values if draw(st.booleans()) else [])
    if defect == "magic":
        return draw(st.binary(min_size=4, max_size=4).filter(lambda m: m != b"GRD1")) + good[4:]
    return _grd(w + draw(st.integers(1, 3)), h, c, values)


@st.composite
def malformed_pgm(draw):
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    good = _pgm(b"P5", w, h)
    defect = draw(st.sampled_from(["truncated", "oversized", "dims", "magic", "maxval"]))
    if defect == "truncated":
        return good[: draw(st.integers(0, len(good) - 1))]
    if defect == "oversized":
        return good + draw(st.binary(min_size=1, max_size=8))
    if defect == "dims":
        # the payload matches the product, so only the sign check can catch it
        return _pgm(b"P5", draw(st.integers(-3, 0)), draw(st.integers(-3, 3)))
    if defect == "magic":
        magic = draw(st.binary(min_size=1, max_size=4).filter(
            lambda m: m != b"P5" and not any(c in HEADER_SPACE for c in m)))
        return _pgm(magic, w, h)
    return _pgm(b"P5", w, h, maxval=draw(st.integers(0, 70000).filter(lambda v: v != 65535)))


class TestGrd:
    def test_roundtrip_values_at_f32(self, tmp_path):
        rng = np.random.default_rng(0)
        g = Grid(rng.uniform(0.0, 100.0, (7, 5, 3)))
        path = tmp_path / "grid.grd"
        write_grd(g, path)
        back = read_grd(path)
        assert (back.width, back.height, back.channels) == (5, 7, 3)
        assert np.array_equal(back.data, g.data.astype(np.float32).astype(np.float64))

    def test_rewrite_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        g = Grid(rng.uniform(-4.0, 9.0, (6, 6)))
        p1, p2 = tmp_path / "a.grd", tmp_path / "b.grd"
        write_grd(g, p1)
        write_grd(read_grd(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.grd"
        path.write_bytes(b"")
        with pytest.raises(CorruptFile):
            read_grd(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.grd"
        path.write_bytes(b"NOPE" + struct.pack("<III", 1, 1, 1) + b"\x00" * 4)
        with pytest.raises(CorruptFile):
            read_grd(path)

    def test_payload_length_mismatch_rejected(self, tmp_path):
        # header says 4x4x1 but only 15 floats follow
        path = tmp_path / "short.grd"
        path.write_bytes(b"GRD1" + struct.pack("<III", 4, 4, 1) + b"\x00" * (15 * 4))
        with pytest.raises(CorruptFile):
            read_grd(path)

    @settings(max_examples=150, deadline=None)
    @given(malformed_grd())
    def test_malformed_files_rejected(self, scratch, blob):
        path = scratch / "bad.grd"
        path.write_bytes(blob)
        with pytest.raises(REJECTED):
            read_grd(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.grd"
        path.write_bytes(b"GRD1" + struct.pack("<III", 2, 2, 1) + b"\x00" * 17)
        with pytest.raises(CorruptFile):
            read_grd(path)


class TestPgm16:
    def test_scale_convention(self, tmp_path):
        path = tmp_path / "d.pgm"
        write_pgm16(Grid([[1.0, 0.0], [2.5, 77.0]]), path)
        back = read_pgm16(path)
        assert back.channel(0)[0, 0] == 1.0  # raw 256 -> one metre
        assert back.channel(0)[0, 1] == 0.0  # raw 0 stays missing
        assert back.channel(0)[1, 0] == 2.5

    def test_roundtrip_preserves_raw_values(self, tmp_path):
        rng = np.random.default_rng(2)
        raw = rng.integers(0, 65536, (9, 4)).astype(np.float64)
        g = Grid(raw / 256.0)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm16(g, p1)
        write_pgm16(read_pgm16(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        body = np.array([[512, 256]], dtype=">u2").tobytes()
        path.write_bytes(b"P5 # comment\n# another\n 2  1\n65535\n" + body)
        g = read_pgm16(path)
        assert g.channel(0).tolist() == [[2.0, 1.0]]

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(UnsupportedFormat):
            read_pgm16(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n1 1\n65535\n0")
        with pytest.raises(UnsupportedFormat):
            read_pgm16(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n\x00\x00\x00")
        with pytest.raises(CorruptFile):
            read_pgm16(path)

    @pytest.mark.parametrize("blob, error", [
        (_pgm(b"P5", -2, -2), CorruptFile),
        (_pgm(b"P5", 0, 0), CorruptFile),
        (_pgm(b"P5", 0, 3), CorruptFile),
        (_pgm(b"P5x", 1, 1), UnsupportedFormat),
    ])
    def test_bad_header_rejected(self, tmp_path, blob, error):
        path = tmp_path / "h.pgm"
        path.write_bytes(blob)
        with pytest.raises(error):
            read_pgm16(path)

    @settings(max_examples=150, deadline=None)
    @given(malformed_pgm())
    def test_malformed_files_rejected(self, scratch, blob):
        path = scratch / "bad.pgm"
        path.write_bytes(blob)
        with pytest.raises(REJECTED):
            read_pgm16(path)


class TestReadGrid:
    @pytest.mark.parametrize("blob", [b"", b"P", b"GRD", b"P2\n1 1\n65535\n0", b"\x89PNG\r\n"])
    def test_other_content_names_both_formats(self, tmp_path, blob):
        path = tmp_path / "depth.pgm"
        path.write_bytes(blob)
        with pytest.raises(UnsupportedFormat, match=r"PGM \(P5\).*GRD1"):
            read_grid(path)
