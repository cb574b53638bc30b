#!/usr/bin/env python3
"""Benchmark of the stfe2d solver: one workload, checked and measured.

    python3 perfbench/run.py --workload traj-n32-diag --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The workload runs in a closed loop from this one process for about
``--seconds`` seconds.  Every output is checked before its time counts.
The command prints each metric by name and unit, a provenance line, and as
its last line one JSON object with the keys correct, attempted, failed and
metrics.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports
the per-layer metrics of a traced run and its tracing overhead.

Exit codes: 0 all checks passed, 1 an output check failed, 2 the package
is missing from the checkout.
"""

import sys

sys.dont_write_bytecode = True

import bootstrap  # noqa: E402

try:
    bootstrap.prepare()
except bootstrap.MissingPackage as exc:
    print(f"perfbench: {exc}", file=sys.stderr)
    sys.exit(2)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wk  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cache_size(level: int) -> str:
    """Size of the CPU's level-``level`` data or unified cache, from sysfs."""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if ((index / "level").read_text().strip() == str(level)
                    and (index / "type").read_text().strip() in ("Data", "Unified")):
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return "unknown"


def git_rev(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def provenance(args, wl, workers: int, modes: int) -> dict:
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "l2_cache": cache_size(2),
        "l3_cache": cache_size(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "openblas": blas_version(),
        "git_rev": git_rev(bootstrap.ROOT),
        "threads": bootstrap.thread_settings(),
        "max_workers": workers,
        "noise_modes": modes,
        "basis_bytes": modes * wl.n * wl.n * 8,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wk.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = wk.WORKLOADS[args.workload]
    refs = json.loads(REFERENCE.read_text())["workloads"].get(wl.name, {})
    workers = min(2, nproc()) if wl.kind == "ensemble" else 1
    workdir = bootstrap.ROOT / ".perfbench_out" / f"{wl.name}-{os.getpid()}"
    try:
        report = wk.run_workload(wl, args.seed, args.seconds, bool(args.trace), refs,
                                 workdir, workers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    units = wk.LAYER_UNITS if args.trace else wk.E2E_UNITS
    tally = report.tally
    print(f"{wl.name}: seed {args.seed}, {'traced' if args.trace else 'untraced'}, "
          f"{tally.attempted} operations, {tally.failed} failed "
          f"(failed_fraction {tally.failed_fraction:.4g})")
    for name, value in report.metrics.items():
        print(f"  {name:36s} {value:>16.6g} {units[name]}")
    for name, (value, unit) in report.info.items():
        print(f"  {name:36s} {value:>16.6g} {unit} (not bounded)")
    if report.breakdown:
        print("  per accepted step, ms by layer (children of one loop iteration):")
        for layer, ms in report.breakdown:
            print(f"    {layer:34s} {ms:10.4f}")
        print(f"  largest child of the step: {report.breakdown[0][0]}")
    print("provenance " + json.dumps(provenance(args, wl, workers, report.modes)))
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in report.metrics.items()},
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
