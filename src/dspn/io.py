"""Bit-exact grid file formats.

GRD1: magic "GRD1", then width/height/channels as little-endian u32, then
width*height*channels little-endian float32 values in row-major (y, x, c)
order. Values widen to float64 in memory.

PGM: binary "P5" with maxval 65535 and big-endian 16-bit samples. Raw
values convert to depth as raw / DEPTH_SCALE (256, KITTI's convention, so
raw 256 is one metre); raw 0 means "missing" and stays depth 0.

:func:`read_grid` reads either format, told apart by the file's first
bytes, so a file's name never decides how it is read.
"""

from __future__ import annotations

import re
import struct

import numpy as np

from .errors import CorruptFile, InvalidGrid, UnsupportedFormat
from .grid import Grid

GRD_MAGIC = b"GRD1"
PGM_MAXVAL = 65535
DEPTH_SCALE = 256.0


def write_grd(g: Grid, path) -> None:
    payload = g.data.astype("<f4").tobytes()
    header = GRD_MAGIC + struct.pack("<III", g.width, g.height, g.channels)
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)


def read_grd(path) -> Grid:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16 or blob[:4] != GRD_MAGIC:
        raise CorruptFile(f"{path}: missing GRD1 header")
    width, height, channels = struct.unpack("<III", blob[4:16])
    if width == 0 or height == 0 or channels == 0:
        raise CorruptFile(f"{path}: zero dimension in header")
    expected = width * height * channels * 4
    if len(blob) - 16 != expected:
        raise CorruptFile(
            f"{path}: payload is {len(blob) - 16} bytes, header implies {expected}"
        )
    data = np.frombuffer(blob, dtype="<f4", offset=16).reshape(height, width, channels)
    try:
        return Grid(data.astype(np.float64))
    except InvalidGrid as exc:  # the header fixes a non-empty 3-D shape: only non-finite data lands here
        raise CorruptFile(f"{path}: payload contains non-finite values") from exc


def write_pgm16(g: Grid, path) -> None:
    if g.channels != 1:
        raise UnsupportedFormat("PGM stores single-channel grids only")
    raw = np.clip(np.round(g.channel(0) * DEPTH_SCALE), 0, PGM_MAXVAL).astype(">u2")
    with open(path, "wb") as f:
        f.write(f"P5\n{g.width} {g.height}\n{PGM_MAXVAL}\n".encode("ascii"))
        f.write(raw.tobytes())


def _pgm_tokens(blob: bytes, count: int):
    """First ``count`` whitespace-separated header tokens, skipping comments.

    Returns the tokens and the offset just past the single whitespace byte
    that terminates the last one.
    """
    tokens = []
    pos = 0
    while len(tokens) < count:
        m = re.compile(rb"\s*(?:#[^\n]*\n\s*)*(\S+)\s").match(blob, pos)
        if m is None:
            raise CorruptFile("truncated PGM header")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens, pos


def read_pgm16(path) -> Grid:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 2 or blob[:2] != b"P5":
        raise UnsupportedFormat(f"{path}: not a binary PGM (P5) file")
    tokens, offset = _pgm_tokens(blob, 4)
    if tokens[0] != b"P5":
        raise UnsupportedFormat(f"{path}: not a binary PGM (P5) file")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise CorruptFile(f"{path}: malformed PGM header") from exc
    if width < 1 or height < 1:
        raise CorruptFile(f"{path}: PGM dimensions must be positive, got {width}x{height}")
    if maxval != PGM_MAXVAL:
        raise UnsupportedFormat(f"{path}: maxval {maxval} unsupported, need {PGM_MAXVAL}")
    expected = width * height * 2
    if len(blob) - offset != expected:
        raise CorruptFile(f"{path}: payload is {len(blob) - offset} bytes, expected {expected}")
    raw = np.frombuffer(blob, dtype=">u2", offset=offset).reshape(height, width)
    return Grid(raw.astype(np.float64) / DEPTH_SCALE)


def read_grid(path) -> Grid:
    """The grid in a PGM (``P5``) or GRD1 file, whichever its first bytes
    announce; any other content raises UnsupportedFormat."""
    with open(path, "rb") as f:
        magic = f.read(len(GRD_MAGIC))
    if magic.startswith(b"P5"):
        return read_pgm16(path)
    if magic == GRD_MAGIC:
        return read_grd(path)
    raise UnsupportedFormat(f"{path}: neither a binary PGM (P5) nor a GRD1 file")
