#!/usr/bin/env python3
"""Print the mesh-refinement error tables and fitted slopes."""

import argparse

from stfe2d.harness import STUDIES, refinement_study


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--study", choices=sorted(STUDIES), default=None,
                    help="run a single study (default: all)")
    args = ap.parse_args()

    for kind in ([args.study] if args.study else STUDIES):
        table = refinement_study(kind, STUDIES[kind].levels)
        print(f"\n== {kind} ==")
        header = "h".ljust(12) + "".join(m.rjust(14) for m in table.errors)
        print(header)
        for idx, h in enumerate(table.hs):
            row = f"{h:<12.5g}" + "".join(
                f"{vals[idx]:>14.5e}" for vals in table.errors.values())
            print(row)
        for metric, slope in table.slopes.items():
            if slope is not None:
                print(f"slope[{metric}] = {slope:.4f}")


if __name__ == "__main__":
    main()
