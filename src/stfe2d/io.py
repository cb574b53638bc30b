"""Field snapshots and diagnostics CSV.

Snapshot format: one ASCII header line

    STFE2D 1 <nx> <ny> <Lx> <Ly> <t>\n

followed by nx*ny little-endian IEEE float64 payload bytes, row-major with
the y-index outermost.  Floats are printed with 17 significant digits, so a
write/read round trip is bit-exact.

The diagnostics CSV has a fixed column order (header written once) and the
same 17-digit formatting; the stop flag serializes as 0/1.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .diagnostics import DIAG_COLUMNS, DiagRecord
from .grid import Field, Grid

SNAPSHOT_MAGIC = "STFE2D"
SNAPSHOT_VERSION = 1


class SnapshotError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


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
    if int(parts[1]) != SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {parts[1]}")
    nx, ny = int(parts[2]), int(parts[3])
    Lx, Ly, t = float(parts[4]), float(parts[5]), float(parts[6])
    return nx, ny, Lx, Ly, t


def read_snapshot(path) -> tuple[Field, float]:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise SnapshotError(f"{path}: no header line found")
    nx, ny, Lx, Ly, t = parse_snapshot_header(raw[:nl].decode("ascii"))
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

def format_diag_row(rec: DiagRecord) -> str:
    vals = rec.row()
    cells = [_fmt(v) for v in vals[:-1]]
    cells.append(str(int(vals[-1])))
    return ",".join(cells)


class DiagWriter:
    """Append-only CSV sink; writes the header before the first row."""

    def __init__(self, target):
        if isinstance(target, (str, Path)):
            self._fh = open(target, "w", encoding="ascii", newline="\n")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self._header_written = False

    def append(self, rec: DiagRecord) -> None:
        if not self._header_written:
            self._fh.write(",".join(DIAG_COLUMNS) + "\n")
            self._header_written = True
        self._fh.write(format_diag_row(rec) + "\n")

    def close(self) -> None:
        if self._owns:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

