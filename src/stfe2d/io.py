"""Field snapshots and diagnostics CSV.

Snapshot format: one ASCII header line

    STFE2D 1 <nx> <ny> <Lx> <Ly> <t>\n

followed by nx*ny little-endian IEEE float64 payload bytes, row-major with
the y-index outermost.  Floats are printed with 17 significant digits, so a
write/read round trip is bit-exact.

The diagnostics CSV has the columns of ``diagnostics.DiagRecord``, in its
field order (the header is written when the file opens), and the same
17-digit formatting; the stop flag serializes as 0/1.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .diagnostics import DiagRecord
from .grid import Field, Grid

SNAPSHOT_MAGIC = "STFE2D"
SNAPSHOT_VERSION = 1


class SnapshotError(ValueError):
    pass


def _fmt(x: float) -> str:
    """17 significant digits: an int prints as ``str`` does, a bool as 0/1."""
    return f"{float(x):.17g}"


def format_row(values) -> str:
    """One CSV row of numbers, each through ``_fmt``."""
    return ",".join(map(_fmt, values))


def write_snapshot(path, field: Field, t: float) -> None:
    g = field.grid
    header = (f"{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} {g.nx} {g.ny} "
              f"{_fmt(g.Lx)} {_fmt(g.Ly)} {_fmt(t)}\n")
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


def parse_snapshot_header(line: str) -> tuple[int, int, float, float, float]:
    parts = line.split()
    if len(parts) != 7 or parts[0] != SNAPSHOT_MAGIC:
        raise SnapshotError(f"malformed snapshot header: {line!r}")
    try:
        version, nx, ny = (int(p) for p in parts[1:4])
        Lx, Ly, t = (float(p) for p in parts[4:])
    except ValueError:
        raise SnapshotError(f"non-numeric snapshot header field: {line!r}") from None
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {parts[1]}")
    if min(nx, ny) < 3 or not (0 < Lx < np.inf and 0 < Ly < np.inf and np.isfinite(t)):
        raise SnapshotError(f"snapshot header field out of range: {line!r}")
    return nx, ny, Lx, Ly, t


def read_snapshot(path) -> tuple[Field, float]:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise SnapshotError(f"{path}: no header line found")
    # a non-ASCII byte decodes to U+FFFD, which no header field accepts
    header = raw[:nl].decode("ascii", errors="replace")
    nx, ny, Lx, Ly, t = parse_snapshot_header(header)
    payload = raw[nl + 1:]
    expected = nx * ny * 8
    if len(payload) != expected:
        raise SnapshotError(
            f"{path}: expected {expected} payload bytes, got {len(payload)}")
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(ny, nx)
    return Field(Grid(nx, ny, Lx, Ly), values), t


# ---------------------------------------------------------------------------
# diagnostics CSV
# ---------------------------------------------------------------------------

class DiagWriter:
    """Append-only CSV file; the header is written when the file opens."""

    def __init__(self, path):
        self._fh = open(path, "w", encoding="ascii", newline="\n")
        self._fh.write(",".join(DiagRecord._fields) + "\n")

    def append(self, rec: DiagRecord) -> None:
        self._fh.write(format_row(rec) + "\n")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

