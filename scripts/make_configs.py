#!/usr/bin/env python3
"""Write the default experiment configurations into configs/.

Each JSON file reproduces one documented experiment at full scale when fed to
the matching `qcl` subcommand; pass --quick to shrink the heavy knobs for a
fast smoke run of the whole pipeline.
"""

import argparse
import json
from pathlib import Path

import numpy as np

LZ3 = {"model": "lz", "delta": 2.0, "T": 1.4 * np.pi / 2, "M": 3}
LZ6 = {"model": "lz", "delta": 2.0, "T": 1.8, "M": 6}
LZ48 = {"model": "lz", "delta": 2.0, "T": 1.8, "M": 48}
QHO6 = {"model": "qho", "omega0": 1.0, "omegaT": 1.0, "T": 1.8, "M": 6}
QHO48 = {"model": "qho", "omega0": 1.0, "omegaT": 1.0, "T": 1.8, "M": 48}


def configs(quick: bool) -> dict:
    n_seeds = 200 if quick else 4000
    n_sweeps = 5 if quick else 100
    drive_steps = 1000 if quick else 10000
    cal_grid = np.logspace(-10, -0.5, 6 if quick else 12).tolist()
    comp_steps = 200 if quick else 800
    fields = 10 if quick else 100
    return {
        "optimize_lz_m3": ("optimize", {
            "problem": LZ3, "seed": 1, "count": n_seeds, "bounds": [-5.0, 5.0],
            "tol": 1e-6, "max_iter": 2000,
        }),
        "spectrum_lz_m3": ("spectrum", {
            "problem": LZ3, "seed": 1, "search_count": 40,
        }),
        "spectrum_qho_m48": ("spectrum", {
            "problem": QHO48, "seed": 1, "search_count": 10,
        }),
        "fd_error_lz_m6": ("fd-error", {
            "problem": LZ6, "seed": 2, "n_solutions": n_sweeps,
            "eps_grid": np.logspace(-8, -0.5, 16).tolist(),
        }),
        "fd_error_qho_m6": ("fd-error", {
            "problem": QHO6, "seed": 2, "n_solutions": n_sweeps,
            "eps_grid": np.logspace(-8, -0.5, 16).tolist(),
        }),
        "drive_lz_m3": ("drive", {
            "problem": LZ3, "seed": 3, "epsilon": 1e-2, "h": 0.01,
            "steps": drive_steps, "search_count": 60,
        }),
        "calibrate_qho_m6": ("calibrate", {
            "problem": QHO6, "seed": 4, "steps": 1000, "h": 0.1,
            "n_directions": 2, "eps_grid": cal_grid, "search_count": 20,
        }),
        "compress_qho_p12": ("compress", {
            "problem": QHO48, "seed": 5, "kept": [1, 2], "modes": ["exact", "fd"],
            "epsilon": 1e-2, "h": 0.005, "steps": comp_steps, "n_starts": 1,
        }),
        "compress_qho_p1": ("compress", {
            "problem": QHO48, "seed": 6, "kept": [1], "modes": ["fd"],
            "epsilon": 1e-2, "h": 0.005, "steps": comp_steps, "n_starts": 1,
        }),
        "compress_lz_p12": ("compress", {
            "problem": LZ48, "seed": 7, "kept": [1, 2], "modes": ["fd"],
            "epsilon": 1e-2, "h": 0.005, "steps": comp_steps, "n_starts": 1,
        }),
        "compress_lz_p1": ("compress", {
            "problem": LZ48, "seed": 8, "kept": [1], "modes": ["fd"],
            "epsilon": 1e-2, "h": 0.005, "steps": comp_steps, "n_starts": 1,
        }),
        "benchmark": ("benchmark", {
            "seed": 9, "m_grid": [3, 6, 12, 24, 48], "models": ["lz", "qho"],
            "fields_per_m": fields, "epsilon": 1e-2,
        }),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default="configs")
    parser.add_argument("--quick", action="store_true",
                        help="small counts for a smoke run")
    args = parser.parse_args(argv)
    target = Path(args.dir)
    target.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for name, (command, doc) in configs(args.quick).items():
        path = target / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        manifest[name] = command
    (target / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                     sort_keys=True) + "\n")
    print(f"wrote {len(manifest)} configs to {target}/")


if __name__ == "__main__":
    main()
