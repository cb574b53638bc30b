#!/usr/bin/env python3
"""Monte-Carlo ensemble over replica seeds; prints and saves the summary.

Replica r runs with seed base_seed + r.  --workers sets the size of the
worker pool (default: CPU count).
"""

import argparse
from pathlib import Path

from stfe2d.config import Config
from stfe2d.grid import Grid
from stfe2d.harness import mc_ensemble, write_summary_csv
from stfe2d.integrator import stable_dt
from stfe2d.material import Material


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=16)
    ap.add_argument("--replicas", type=int, default=32)
    ap.add_argument("--steps", type=int, default=100)
    ap.add_argument("--lambda0", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: CPU count)")
    ap.add_argument("--p-bar", type=float, default=1.0,
                    help="moment exponent for the sup-R sample mean")
    ap.add_argument("--out", type=Path, default=Path("out/ensemble_summary.csv"))
    args = ap.parse_args()

    dt = stable_dt(Grid(args.n, args.n, 1.0, 1.0), Material())
    cfg = Config(
        grid={"nx": args.n, "ny": args.n},
        noise={"lambda0": args.lambda0, "seed": args.seed},
        run={"t_max": args.steps * dt},
        initial={"kind": "cosine-perturbed", "base": 1.0, "amplitude": 0.1},
        output={"dir": str(args.out.parent), "prefix": "ensemble"},
    )
    summary = mc_ensemble(cfg, args.replicas, max_workers=args.workers, p_bar=args.p_bar)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_summary_csv(summary, args.out)

    print(f"replicas          : {summary.n_replicas} ({summary.n_aborted} aborted)")
    print(f"sup R mean / max  : {summary.sup_R_mean:.6g} / {summary.sup_R_max:.6g}")
    print(f"E[sup R^p], p={summary.p_bar:g}  : {summary.sup_R_pbar_mean:.6g}")
    print(f"dissipation mean  : {summary.diss_mean:.6g}")
    print(f"stopped fraction  : {summary.stopped_fraction:.3f}")
    print(f"max mass drift    : {summary.mass_drift_max:.3e}")
    print(f"summary csv       : {args.out}")


if __name__ == "__main__":
    main()
