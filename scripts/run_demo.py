#!/usr/bin/env python3
"""Run one stochastic trajectory with the default setup and plot-free summary.

Writes diagnostics and snapshots under out/demo/ and prints the headline
numbers (mass drift, energy, entropy, stop status).  With --profile the run
goes through cProfile and the functions with the largest own time are
printed after it.
"""

import argparse
import json
from pathlib import Path

from stfe2d import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=32, help="grid nodes per side")
    ap.add_argument("--steps", type=int, default=500, help="number of base steps")
    ap.add_argument("--lambda0", type=float, default=0.1, help="noise amplitude")
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--out", type=Path, default=Path("out/demo"))
    ap.add_argument("--profile", action="store_true",
                    help="profile the run and print the top entries by own time")
    args = ap.parse_args()

    from stfe2d.grid import Grid
    from stfe2d.integrator import stable_dt
    from stfe2d.material import Material

    dt = stable_dt(Grid(args.n, args.n, 1.0, 1.0), Material())
    config = {
        "grid": {"nx": args.n, "ny": args.n, "Lx": 1.0, "Ly": 1.0},
        "noise": {"lambda0": args.lambda0, "seed": args.seed},
        "run": {"t_max": args.steps * dt, "snapshot_times": [0.0],
                "diag_interval": 10},
        "initial": {"kind": "cosine-perturbed", "base": 1.0, "amplitude": 0.1},
        "output": {"dir": str(args.out), "prefix": "demo"},
    }
    args.out.mkdir(parents=True, exist_ok=True)
    cfg_path = args.out / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2))
    if not args.profile:
        raise SystemExit(cli.main(["run", str(cfg_path)]))
    import cProfile
    import pstats
    with cProfile.Profile() as prof:
        code = cli.main(["run", str(cfg_path)])
    pstats.Stats(prof).sort_stats("tottime").print_stats(15)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
