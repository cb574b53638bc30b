"""Command-line entry points: run | check | converge.

Exit codes: 0 success, 1 configuration/validation or usage error, 2 runtime
abort (positivity or overflow), 3 self-check failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io as sio
from .config import ConfigError, assemble, load_config
from .harness import STUDIES, refinement_study
from .integrator import SimulationAbort, run
from .material import AssumptionError
from .oracle import run_checks

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_CHECK = 3


def _reject(violations, out) -> None:
    print("configuration rejected:", file=out)
    for v in violations:
        print(f"  - {v}", file=out)


def _load_bundle(path, out):
    try:
        return assemble(load_config(path))
    except ConfigError as exc:
        _reject(exc.violations, out)
        return None


def cmd_run(args, out=None) -> int:
    out = out or sys.stdout
    bundle = _load_bundle(args.config, out)
    if bundle is None:
        return EXIT_VALIDATION
    bundle.out_dir.mkdir(parents=True, exist_ok=True)
    diag_path = bundle.out_dir / f"{bundle.prefix}_diag.csv"
    snap_index = [0]

    def snapshot_cb(state):
        path = bundle.out_dir / f"{bundle.prefix}_snap{snap_index[0]:04d}.bin"
        sio.write_snapshot(path, state.u, state.t)
        snap_index[0] += 1

    with sio.DiagWriter(diag_path) as writer:
        try:
            result = run(bundle.initial, bundle.run, bundle.material, bundle.noise,
                         diag_cb=writer.append, snapshot_cb=snapshot_cb)
        except SimulationAbort as exc:
            print(f"runtime abort: {exc}", file=out)
            return EXIT_RUNTIME

    final = result.final
    sio.write_snapshot(bundle.out_dir / f"{bundle.prefix}_final.bin",
                       final.u, final.t)
    stopped = (f"stopped at t = {final.stop_time:.6g}" if final.stopped
               else "ran to the horizon")
    print(f"{final.step} steps to t = {final.t:.6g}; {stopped}; "
          f"mass drift {result.max_mass_drift:.3e}; sup R = {result.sup_R:.6g}",
          file=out)
    print(f"diagnostics: {diag_path}", file=out)
    return EXIT_OK


def cmd_check(args, out=None) -> int:
    out = out or sys.stdout
    results = run_checks()
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        ok = ok and res.passed
        print(f"{status} {res.name}: {res.detail}", file=out)
    return EXIT_OK if ok else EXIT_CHECK


def cmd_converge(args, out=None) -> int:
    out = out or sys.stdout
    bundle = _load_bundle(args.config, out)
    if bundle is None:
        return EXIT_VALIDATION
    try:
        tables = {kind: refinement_study(kind, study.levels, bundle)
                  for kind, study in STUDIES.items()}
    except AssumptionError as exc:  # a level of a study violates (S)
        _reject([exc], out)
        return EXIT_VALIDATION
    bundle.out_dir.mkdir(parents=True, exist_ok=True)
    path = bundle.out_dir / f"{bundle.prefix}_rates.csv"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("study,metric,h,value\n")
        for kind, table in tables.items():
            for idx, h in enumerate(table.hs):
                for metric, values in table.errors.items():
                    fh.write(f"{kind},{metric},{sio.format_row((h, values[idx]))}\n")
            for metric, slope in table.slopes.items():
                if slope is not None:
                    fh.write(f"{kind},{metric}_slope,{sio.format_row((0, slope))}\n")
                    print(f"{kind}/{metric}: slope {slope:.3f}", file=out)
    print(f"rate table: {path}", file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stfe2d",
        description="Stochastic thin-film solver on a periodic rectangle")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one trajectory from a JSON config")
    p_run.add_argument("config", type=Path)
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run the identity and oracle suites")
    p_check.set_defaults(func=cmd_check)

    p_conv = sub.add_parser("converge", help="run the refinement studies")
    p_conv.add_argument("config", type=Path)
    p_conv.set_defaults(func=cmd_converge)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    return args.func(args)
