#!/usr/bin/env python3
"""Export nearest-neighbor decision-boundary grids for the toy shapes.

Writes one grid CSV (x, y, class probabilities) plus a JSON header per
(shape, noise, training size) cell, ready for external plotting.
"""
import argparse
from pathlib import Path

import numpy as np

from tabctx import retrieval as rt, synthgen as sg
from tabctx.predictors import knn_predict


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--shapes", default="circle,moon,linear_rotation")
    ap.add_argument("--noises", default="0.1,0.2,0.3")
    ap.add_argument("--train-sizes", default="16,64,128")
    ap.add_argument("--quota", type=int, default=16)
    ap.add_argument("--resolution", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("-o", "--output-dir", default="boundaries_out")
    args = ap.parse_args()

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = rt.RetrievalConfig(quota=args.quota, importance_mode="dual")

    for shape in args.shapes.split(","):
        for noise in (float(v) for v in args.noises.split(",")):
            for n in (int(v) for v in args.train_sizes.split(",")):
                d = sg.generate_toy(sg.ToySpec(shape, noise, n, seed=args.seed))
                pool = rt.build_pool(d, np.arange(d.n_rows), cfg)
                grid = sg.boundary_grid(pool, lambda ctx, q: knn_predict(ctx, pool),
                                        resolution=args.resolution)
                stem = f"{shape}_noise{noise}_n{n}"
                sg.write_grid(grid, out / f"{stem}.csv", out / f"{stem}.json")
                print(f"wrote {stem}")
    print(f"grids in {out}")


if __name__ == "__main__":
    main()
