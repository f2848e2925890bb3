"""Experiment harness: every figure-level result behind one subcommand.

    qcl <subcommand> --config experiment.json [--out DIR]

Subcommands: optimize, spectrum, fd-error, drive, calibrate, compress,
benchmark.  The config is a single JSON document; outputs are CSV tables and
JSON-lines trajectories with the RNG seed echoed in every header, so repeated
runs are bit-identical (benchmark wall times excepted).  On failure a JSON
error record goes to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .control import ControlField, FrequencySpec
from .landscape import FdConfig, classify_null, eig_sym, eigvec_error, fd_hessian
from .models import (LzProblem, QhoProblem, chain_stencil_cost, config_number, hessian_of,
                     problem_from_dict, problem_to_dict, seed_bounds)
from .navigation import NullFollow, calibrate_epsilon, entry_infidelity, navigate, write_jsonl
from .objectives import FourierObjective, compress
from .optimizer import SeedSpec, minimize, polish, sample_seeds

__all__ = ["main"]

# Experiment defaults follow the documented runs: the two-level model uses
# gap 2 so that T = 1.4 pi / 2 and T = 1.8 sit above the minimum flip time
# pi / gap (see the gap-convention note in the README).
DEFAULT_T = 1.8
_LZ3 = LzProblem(gap=2.0, duration=1.4 * np.pi / 2.0, n_pulses=3)
_QHO6 = QhoProblem(omega_start=1.0, omega_target=1.0, duration=DEFAULT_T, n_pulses=6)


def _write_csv(path: Path, seed: int, header: str, rows):
    with path.open("w") as fh:
        fh.write(f"# seed={seed}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n")


# Value kinds: each reads the JSON value of `key`, or raises a ValueError naming it.
_number = config_number
_integer = partial(config_number, integer=True)


def _positive(key, value, integer=True):
    value = config_number(key, value, integer)
    if not value > 0:
        raise ValueError(f"{key} must be {'>= 1' if integer else 'positive'}")
    return value


_positive_number = partial(_positive, integer=False)


def _path(key, value):
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _one_of(*names):
    def read(key, value):
        if value not in names:
            raise ValueError(f"{key} must be one of {', '.join(names)}, got {value!r}")
        return value
    return read


def _list_of(item, length=None):
    what = "a list" if length is None else f"a list of {length} items"

    def read(key, value):
        if not isinstance(value, list) or length not in (None, len(value)):
            raise ValueError(f"{key} must be {what}, got {value!r}")
        return [item(f"{key}[{i}]", v) for i, v in enumerate(value)]
    return read


def _field(key, doc):
    if not isinstance(doc, dict):
        raise ValueError(f"{key} must be a JSON object")
    return ControlField(values=_list_of(_number)(f"{key}.values", doc.get("values")),
                        total_time=_number(f"{key}.T", doc.get("T")))


def _problem(key, doc):
    """A problem document; `problem_from_dict` names its own keys."""
    return problem_from_dict(doc)


class UnknownConfigKeys(ValueError):
    """A config names keys its subcommand does not read (a typo would fall back
    to a default silently)."""

    def __init__(self, command: str, keys: list):
        super().__init__(f"unknown {command} config keys: {', '.join(keys)}")
        self.keys = keys


def _load_config(path: str, command: str) -> dict:
    """The config at `path`: every key of `command`'s table in `_COMMANDS`, read
    from the JSON object or at its default; a key the table lacks is unknown."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("a config must be a JSON object")
    table = _COMMANDS[command][1]
    unknown = sorted(set(doc) - set(table))
    cfg = {}
    for key, (kind, default) in table.items():
        absent = key not in doc or (doc[key] is None and default is None)
        cfg[key] = default if absent else kind(key, doc[key])
    if "problem" in cfg:
        known = problem_to_dict(cfg["problem"])
        unknown += [f"problem.{k}" for k in sorted(set(doc.get("problem", ())) - set(known))]
        if cfg["bounds"] is None:
            cfg["bounds"] = seed_bounds(cfg["problem"])
    if unknown:
        raise UnknownConfigKeys(command, unknown)
    return cfg


def _find_solutions(problem, seed, bounds, count, want=1, pick="best_gap"):
    """Optimize seeds deterministically until `want` solutions polished to 1e-16 are found.

    pick="best_gap" ranks the found solutions by the second Hessian
    eigenvalue: navigation drift is governed by finite-difference noise
    relative to that gap, so well-conditioned starts give the cleanest
    fidelity-preserving trajectories.  pick="order" keeps discovery order.
    """
    found = []
    batch = 0
    while len(found) < want and batch < 50:
        seeds = sample_seeds(
            SeedSpec(count=count, bounds=tuple(bounds), rng_seed=seed + batch), problem)
        for s in seeds:
            rep = minimize(problem, s, max_iter=2000)
            if rep.converged:
                deep = polish(problem, rep.field)
                if deep.converged:
                    found.append(deep)
            if len(found) >= want and pick == "order":
                break
        batch += 1
    if len(found) < want:
        raise RuntimeError(f"found only {len(found)}/{want} solutions from seeds")
    if pick == "best_gap":
        def second_eigenvalue(rep):
            spec = eig_sym(hessian_of(problem, rep.field.values))
            return float(np.abs(spec.eigenvalues)[1]) if spec.size > 1 else 0.0

        found.sort(key=lambda r: -second_eigenvalue(r))
    return found[:want]


def _solution_from_config(cfg: dict, problem):
    """Inline field, archive file, or internal optimization, in that order.

    A given start whose T or M differs from the problem's fails `entry_infidelity`.
    """
    start, path = cfg["solution"], cfg["solution_path"]
    if start is None and path:
        with open(path) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        records = [r for r in records if "field" in r and r.get("converged", True)]
        if not records:
            raise ValueError(f"no converged solutions in {path}")
        idx = cfg["solution_index"]
        if not 0 <= idx < len(records):
            raise ValueError(f"solution_index {idx} is out of range: {path} "
                             f"has {len(records)} converged records")
        start = _field("solution_path field", records[idx]["field"])
    if start is None:
        return _find_solutions(problem, cfg["seed"], cfg["bounds"],
                               count=cfg["search_count"])[0].field
    return start


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_optimize(cfg: dict, out: Path) -> int:
    problem, seed, count, tol = cfg["problem"], cfg["seed"], cfg["count"], cfg["tol"]
    seeds = sample_seeds(SeedSpec(count=count, bounds=tuple(cfg["bounds"]), rng_seed=seed),
                         problem)
    archive = out / "solutions.jsonl"
    n_conv = 0
    with archive.open("w") as fh:
        fh.write(json.dumps({"header": {"seed": seed, "problem": problem_to_dict(problem),
                                        "count": count, "tol": tol}}, sort_keys=True) + "\n")
        scatter_rows = []
        for k, s in enumerate(seeds):
            rep = minimize(problem, s, tol=tol, max_iter=cfg["max_iter"])
            if rep.converged and cfg["polish_target"] is not None:
                # polish never raises the cost, so the seed stays below tol even
                # where it misses its own target
                rep = replace(polish(problem, rep.field, target=cfg["polish_target"]),
                              converged=True, stop="TOL")
            fh.write(json.dumps({
                "index": k,
                "converged": rep.converged,
                "infidelity": rep.final_infidelity,
                "iterations": rep.iterations,
                "stop": rep.stop,
                "field": {"T": rep.field.total_time, "values": rep.field.values.tolist()},
            }) + "\n")
            if rep.converged:
                n_conv += 1
                if problem.n_pulses == 3:
                    scatter_rows.append(tuple(rep.field.values) + (rep.final_infidelity,))
    if problem.n_pulses == 3:
        _write_csv(out / "scatter.csv", seed, "omega_1,omega_2,omega_3,infidelity", scatter_rows)
    print(f"optimize: {n_conv}/{count} seeds converged below {tol:g} -> {archive}")
    return 0


def cmd_spectrum(cfg: dict, out: Path) -> int:
    problem, seed = cfg["problem"], cfg["seed"]
    solution = _solution_from_config(cfg, problem)
    entry_infidelity(problem, solution)
    if cfg["hessian"] == "fd":
        hess = fd_hessian(chain_stencil_cost(problem), solution.values, FdConfig(cfg["epsilon"]))
    else:
        hess = hessian_of(problem, solution.values)
    spec = eig_sym(hess)
    is_null = classify_null(spec)
    lam_max = np.abs(spec.eigenvalues).max()
    rows = [(i, float(spec.eigenvalues[i]),
             float(abs(spec.eigenvalues[i]) / lam_max) if lam_max else 0.0,
             int(is_null[i]))
            for i in range(spec.size)]
    _write_csv(out / "spectrum.csv", seed, "index,eigenvalue,ratio_to_max,is_null", rows)
    n_nonnull = int((~is_null).sum())
    print(f"spectrum: {n_nonnull} non-null of {spec.size} eigenvalues -> {out / 'spectrum.csv'}")
    return 0


def cmd_fd_error(cfg: dict, out: Path) -> int:
    problem, seed, n_solutions, grid = (cfg[k] for k in ("problem", "seed", "n_solutions",
                                                         "eps_grid"))
    sols = _find_solutions(problem, seed, cfg["bounds"], count=max(2 * n_solutions, 40),
                           want=n_solutions, pick="order")
    stencil = chain_stencil_cost(problem)
    for k, rep in enumerate(sols):
        vals = rep.field.values
        exact = eig_sym(hessian_of(problem, vals))
        rows = []
        for eps in grid:
            approx = eig_sym(fd_hessian(stencil, vals, FdConfig(eps)))
            errs = []
            for i in (0, 1):
                try:
                    errs.append(eigvec_error(exact, approx, i))
                except ValueError:
                    errs.append(float("nan"))
            rows.append((eps, errs[0], errs[1]))
        _write_csv(out / f"fd_error_{k:03d}.csv", seed, "epsilon,E_1,E_2", rows)
    print(f"fd-error: wrote {len(sols)} sweep files over {len(grid)} epsilon values -> {out}")
    return 0


def cmd_drive(cfg: dict, out: Path) -> int:
    problem, seed, eps, h, steps = (cfg[k] for k in ("problem", "seed", "epsilon", "h", "steps"))
    start = _solution_from_config(cfg, problem)

    path = out / "trajectory.jsonl"
    header = {"seed": seed, "problem": problem_to_dict(problem), "epsilon": eps,
              "h": h, "steps": steps}
    traj = navigate(problem, start, NullFollow(), h=h, steps=steps,
                    hessian_mode=FdConfig(eps))
    with path.open("w") as fh:
        write_jsonl(traj, fh, header=header)
    vmat = traj.values_matrix()
    dist = np.linalg.norm(vmat - vmat[0], axis=1)
    zeta = np.array([s.zeta for s in traj.samples])
    closure = float(dist[zeta > 1.0].min()) if np.any(zeta > 1.0) else float("nan")
    print(f"drive: {len(traj.samples) - 1} steps, max infidelity "
          f"{traj.infidelities().max():.3e}, loop closure {closure:.4f}, "
          f"failed={traj.failed} -> {path}")
    return 1 if traj.failed else 0


def cmd_calibrate(cfg: dict, out: Path) -> int:
    problem, seed, n_directions, grid = (cfg[k] for k in ("problem", "seed", "n_directions",
                                                          "eps_grid"))
    solution = _solution_from_config(cfg, problem)
    rng = np.random.default_rng(seed)
    for d in range(n_directions):
        direction = rng.normal(size=problem.n_pulses)
        direction /= np.linalg.norm(direction)
        rows = calibrate_epsilon(problem, solution, direction, grid, steps=cfg["steps"],
                                 h=cfg["h"])
        _write_csv(out / f"calibration_dir{d}.csv", seed, "epsilon,final_infidelity", rows)
    print(f"calibrate: {n_directions} directions x {len(grid)} epsilons -> {out}")
    return 0


def cmd_compress(cfg: dict, out: Path) -> int:
    problem, seed, kept, modes, eps, h, steps = (
        cfg[k] for k in ("problem", "seed", "kept", "modes", "epsilon", "h", "steps"))
    spec = FrequencySpec.closure(kept, problem.n_pulses)
    if not spec.excluded:
        raise ValueError(f"kept {kept} closes to every index: there is no power to compress")
    stride = max(1, steps // 20)
    print(f"compress: requested frequencies {kept} closed to {sorted(spec.kept)}")

    starts = [r.field for r in _find_solutions(problem, seed, cfg["bounds"],
                                               count=cfg["search_count"],
                                               want=cfg["n_starts"], pick="order")]
    objective = FourierObjective(spec)
    dt = problem.dt
    failed = False
    for k, start in enumerate(starts):
        c0 = objective.cost_of(start.values)
        results = {}
        for mode in modes:
            hmode = "exact" if mode == "exact" else FdConfig(eps)
            traj = compress(problem, start, objective, h=h, steps=steps, hessian_mode=hmode)
            results[mode] = traj
            failed = failed or traj.failed
            header = {"seed": seed, "problem": problem_to_dict(problem), "mode": mode,
                      "kept_requested": kept, "kept_closed": sorted(spec.kept),
                      "epsilon": eps if mode == "fd" else None, "h": h, "steps": steps}
            with (out / f"compress_s{k}_{mode}.jsonl").open("w") as fh:
                write_jsonl(traj, fh, header=header)
            rows = []
            for s in traj.samples[::stride]:
                for i, w in enumerate(s.field.values):
                    rows.append((s.zeta, i, (i + 0.5) * dt, float(w)))
            _write_csv(out / f"protocol_s{k}_{mode}.csv", seed, "zeta,index,t,omega", rows)
            cs = traj.secondary_costs()
            print(f"  start {k} [{mode}]: C/C0 = {cs[-1] / c0:.3e}, "
                  f"max infidelity {traj.infidelities().max():.3e}, failed={traj.failed}")
        if "exact" in results and "fd" in results:
            te, tf = results["exact"], results["fd"]
            n = min(len(te.samples), len(tf.samples))
            rows = [(te.samples[i].zeta, te.samples[i].secondary, tf.samples[i].secondary,
                     te.samples[i].infidelity, tf.samples[i].infidelity) for i in range(n)]
            _write_csv(out / f"comparison_s{k}.csv", seed,
                       "zeta,cost_exact,cost_fd,infidelity_exact,infidelity_fd", rows)
    return 1 if failed else 0


def cmd_benchmark(cfg: dict, out: Path) -> int:
    seed, n_fields, min_time = cfg["seed"], cfg["fields_per_m"], cfg["min_time"]
    rng = np.random.default_rng(seed)

    def measure(fn):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if elapsed < min_time:
            # widen repetitions until above the timing floor
            reps = int(np.ceil(min_time / max(elapsed, 1e-9)))
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            elapsed = (time.perf_counter() - t0) / reps
        return elapsed

    rows = []
    for name in cfg["models"]:
        for m in cfg["m_grid"]:
            problem = replace(_LZ3 if name == "lz" else _QHO6, duration=cfg["T"], n_pulses=m)
            lo, hi = seed_bounds(problem)
            stencil = chain_stencil_cost(problem)
            config = FdConfig(cfg["epsilon"])
            quotients, t_apps, t_exts = [], [], []
            for _ in range(n_fields):
                vals = rng.uniform(lo, hi, m)
                t_app = measure(lambda: eig_sym(fd_hessian(stencil, vals, config)))
                t_ext = measure(lambda: eig_sym(hessian_of(problem, vals)))
                quotients.append(t_app / t_ext)
                t_apps.append(t_app)
                t_exts.append(t_ext)
            eta = float(np.mean(quotients))
            rows.append((name, m, float(np.mean(t_apps)), float(np.mean(t_exts)), eta))
            print(f"benchmark {name} M={m}: eta = {eta:.2f}")
    _write_csv(out / "benchmark.csv", seed, "model,M,tau_app,tau_ext,eta", rows)
    return 0


# Every subcommand and its config keys: key -> (kind, default).  A key whose
# default is None may be absent or null; "bounds" then takes the problem's
# seed range.
_BOUNDS = {"bounds": (_list_of(_number, 2), None)}
_START = {"solution": (_field, None), "solution_path": (_path, None),
          "solution_index": (_integer, 0), "search_count": (_positive, 60), **_BOUNDS}
_COMMANDS = {
    "optimize": (cmd_optimize, {
        "problem": (_problem, _LZ3), "seed": (_integer, 0), "count": (_positive, 4000),
        "tol": (_positive_number, 1e-6), "max_iter": (_positive, 2000),
        "polish_target": (_positive_number, None),
        **_BOUNDS}),
    "spectrum": (cmd_spectrum, {
        "problem": (_problem, _LZ3), "seed": (_integer, 0),
        "hessian": (_one_of("exact", "fd"), "exact"), "epsilon": (_number, 1e-2),
        **_START}),
    "fd-error": (cmd_fd_error, {
        "problem": (_problem, replace(_LZ3, duration=DEFAULT_T, n_pulses=6)),
        "seed": (_integer, 0), "n_solutions": (_positive, 100),
        "eps_grid": (_list_of(_number), np.logspace(-8, -0.5, 16).tolist()), **_BOUNDS}),
    "drive": (cmd_drive, {
        "problem": (_problem, _LZ3), "seed": (_integer, 0), "epsilon": (_number, 1e-2),
        "h": (_number, 0.01), "steps": (_integer, 10000), **_START}),
    "calibrate": (cmd_calibrate, {
        "problem": (_problem, _QHO6), "seed": (_integer, 0), "steps": (_integer, 1000),
        "h": (_number, 0.1), "n_directions": (_positive, 2),
        "eps_grid": (_list_of(_number), np.logspace(-10, -0.5, 12).tolist()), **_START}),
    "compress": (cmd_compress, {
        "problem": (_problem, replace(_QHO6, n_pulses=48)), "seed": (_integer, 0),
        "kept": (_list_of(_integer), [1, 2]),
        "modes": (_list_of(_one_of("exact", "fd")), ["exact", "fd"]),
        "epsilon": (_number, 1e-2), "h": (_number, 0.005), "steps": (_integer, 800),
        "n_starts": (_positive, 1), "search_count": (_positive, 40), **_BOUNDS}),
    "benchmark": (cmd_benchmark, {
        "seed": (_integer, 0), "m_grid": (_list_of(_integer), [3, 6, 12, 24, 48]),
        "models": (_list_of(_one_of("lz", "qho")), ["lz", "qho"]),
        "fields_per_m": (_positive, 100), "epsilon": (_number, 1e-2),
        "min_time": (_number, 2e-3), "T": (_number, DEFAULT_T)}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qcl", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment configuration")
        p.add_argument("--out", default=".", help="output directory (created if missing)")
    args = parser.parse_args(argv)
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        cfg = _load_config(args.config, args.command)
        return _COMMANDS[args.command][0](cfg, out)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports all failures
        record = {"error": type(exc).__name__, "message": str(exc), "command": args.command}
        if isinstance(exc, UnknownConfigKeys):
            record["keys"] = exc.keys
        sys.stderr.write(json.dumps(record) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
