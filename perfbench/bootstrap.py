"""Process set-up shared by the benchmark scripts.

``prepare`` must run before numpy is imported: it pins every BLAS/OpenMP
pool to one thread, drops ``STFE2D_THREADS`` so the package's worker cap
cannot read a stray value, and puts the checkout's ``src`` first on the
import path.  The benchmark measures the package in its checkout, never an
installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingPackage(RuntimeError):
    pass


def prepare() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("STFE2D_THREADS", None)
    if not (SRC / "stfe2d" / "__init__.py").is_file():
        raise MissingPackage(f"no stfe2d package under {SRC}")
    sys.path.insert(0, str(SRC))


def thread_settings() -> dict:
    return {var: os.environ.get(var) for var in THREAD_VARS + ("STFE2D_THREADS",)}
