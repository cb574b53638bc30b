#!/usr/bin/env python3
"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/make_reference.py

Runs each reference noise seed of each workload once, in-process and
untimed, checks that it completes without an abort or halving, and rewrites
perfbench/reference.json.  Record only at a commit whose numerical results
are the accepted ones.
"""

import sys

sys.dont_write_bytecode = True

import bootstrap  # noqa: E402

bootstrap.prepare()

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wk  # noqa: E402
from stfe2d import config as sconfig  # noqa: E402
from stfe2d import integrator  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def record(wl: wk.Workload, workdir: Path) -> dict:
    refs = {}
    for seed in wk.reference_seeds(wl):
        bundle = sconfig.assemble(sconfig.load_config(wk.write_config(wl, seed, workdir)))
        result = integrator.run(bundle.initial, bundle.run, bundle.material, bundle.noise)
        values = wk.reference_values(result)
        # the run must pass every other check; it is its own reference
        problems = wk.check_run(wl, seed, result, bundle.run.u_floor,
                                {str(seed): values})
        if problems:
            raise SystemExit("\n".join(problems))
        refs[str(seed)] = dict(values, steps=result.final.step)
        print(f"{wl.name} seed {seed}: {values}", flush=True)
    return refs


def main() -> None:
    data = {"workloads": {}}
    workdir = bootstrap.ROOT / ".perfbench_out" / f"reference-{os.getpid()}"
    try:
        for name in sorted(wk.WORKLOADS):
            data["workloads"][name] = record(wk.WORKLOADS[name], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
