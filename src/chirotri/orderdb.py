"""Reader for fixed-width binary point-configuration databases.

Files are concatenated records with no header: each record is n points of two
unsigned coordinates. The coordinate width is 8 bits for n <= 8 and 16 bits
(little-endian) for n in {9, 10}; both parameters stay overridable because
the convention is external to this package.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import combinations

from .errors import GeneralPositionViolation, MalformedFile, OutOfRange
from .geometry import PointSet, det


@dataclass(frozen=True)
class OrderTypeRecord:
    index: int
    n: int
    coords: tuple  # n pairs of unsigned ints

    def point_set(self) -> PointSet:
        return PointSet(self.coords)


def default_width(n: int) -> int:
    return 8 if n <= 8 else 16


def _record_width(n: int, width: int | None) -> int:
    """The coordinate width of an n-point record; it defaults by n, and only
    8 and 16 bits are accepted. A horizontal line holds at most two points
    of a set in general position, so at most 2 * 2^width points with
    width-bit coordinates are in general position; a larger n is refused."""
    width = default_width(n) if width is None else width
    if width not in (8, 16):
        raise OutOfRange(f"width must be 8 or 16 bits, got {width}")
    if n > 2 << width:
        raise OutOfRange(f"no {n} points with {width}-bit coordinates are in "
                         f"general position; at most {2 << width} are")
    return width


def _record_struct(n: int, width: int) -> struct.Struct:
    """The layout of one n-point record of width-bit coordinates."""
    return struct.Struct(f"<{2 * n}{'B' if width == 8 else 'H'}")


def _is_general_position(coords) -> bool:
    return all(det(p, q, r) for p, q, r in combinations(coords, 3))


def iter_order_types(data: bytes, n: int, width: int | None = None,
                     lenient: bool = False, skipped: list | None = None):
    """Yield validated OrderTypeRecords from raw database bytes.

    A record with a collinear triple raises GeneralPositionViolation unless
    ``lenient`` is set, in which case its index is appended to ``skipped``
    and the record is dropped.
    """
    if n < 3:
        raise OutOfRange(f"need n >= 3, got {n}")
    width = _record_width(n, width)
    size = 2 * n * width // 8
    if len(data) % size != 0:
        raise MalformedFile(
            f"file size {len(data)} is not a multiple of the record size "
            f"{size} (n={n}, width={width})")
    layout = _record_struct(n, width)
    for idx in range(len(data) // size):
        values = layout.unpack_from(data, idx * size)
        coords = tuple((values[2 * i], values[2 * i + 1]) for i in range(n))
        if not _is_general_position(coords):
            if lenient:
                if skipped is not None:
                    skipped.append(idx)
                continue
            raise GeneralPositionViolation(f"record {idx} has a collinear triple")
        yield OrderTypeRecord(idx, n, coords)


def read_order_types(path, n: int, width: int | None = None,
                     lenient: bool = False):
    """Read a database file; returns (records, skipped indices)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise MalformedFile(f"cannot read {path}: {exc}") from exc
    skipped: list[int] = []
    records = list(iter_order_types(data, n, width, lenient, skipped))
    return records, skipped


def serialize_order_types(records, width: int | None = None) -> bytes:
    """Inverse of the reader; round-trips a parsed file byte-for-byte."""
    n = records[0].n if records else 0
    width = _record_width(n, width)
    layout = _record_struct(n, width)
    out = bytearray()
    for rec in records:
        if rec.n != n:
            raise MalformedFile("records of mixed size")
        flat = [v for pair in rec.coords for v in pair]
        try:
            out.extend(layout.pack(*flat))
        except struct.error as exc:
            raise OutOfRange(
                f"record {rec.index} does not fit width {width}: {exc}") from None
    return bytes(out)
