#!/usr/bin/env python3
"""qcl benchmark: closed-loop workloads, checked outputs, traced layers.

    python3 qclbench/run.py                  # every workload, each in a fresh process
    python3 qclbench/run.py --workload compress_qho48_fd --seed 1 --seconds 10 --trace 0
    python3 qclbench/run.py --workload drive_lz3 --trace 1      # per-layer metrics

Run from the root of a source tree: qcl is imported from its src/ directory.
With --workload, the last line of standard output is the run's JSON result;
a run whose outputs fail a check prints it with "correct": false and exits 1.
Records, determinism digests and spans go to qclbench/out/.  README.md says
what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# about the probe's median time on the machine the bounds were set on (2 vCPUs,
# Python 3.11.7, numpy 2.4.6): timings are reported at that speed
REF_PROBE_S = 3.0e-3

WORKLOAD_NAMES = ("scatter_lz3", "compress_qho48_fd", "compress_qho48_exact", "drive_lz3")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
# set-up is repeated SETUP_REPS times, or until SETUP_ONCE_S (at the reference
# speed) have gone into it, and its median taken
SETUP_REPS = 5
SETUP_ONCE_S = 5.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "unit_ms_p50": "ms",
    "unit_ms_p90": "ms",
    "solutions_per_s": "1/s",
    "converged_frac": "ratio",
    "max_infidelity": "1",
    "peak_rss_mb": "MB",
}
# the names the unit-generic metrics carry on each kind of unit
ALIASES = {
    "seed": {"units_per_s": "seeds_per_s", "unit_ms_p50": "seed_ms_p50",
             "unit_ms_p90": "seed_ms_p90"},
    "step": {"units_per_s": "steps_per_s", "unit_ms_p50": "step_ms_p50",
             "unit_ms_p90": "step_ms_p90"},
}


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qcl").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the source tree, or None when it is not a git checkout."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment(np, seed) -> dict:
    return {
        "commit": git_commit(),
        "source": source_hash(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(np),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def check_digest(workload, value, env) -> bool:
    """Compare with the digest earlier runs of this source tree recorded.

    The key leaves out the seed (no workload's outputs depend on it) and
    keeps the BLAS thread setting, which may change eigensolver rounding.
    """
    OUT.mkdir(exist_ok=True)
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload}|src={env['source']}|blas={json.dumps(env['blas_threads_env'])}"
    if key not in known:
        known[key] = value
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, store)
    return known[key] == value


def percentiles(unit_s, per_pass):
    """p50 and p90 of the unit times in ms: the median over the run's passes
    of each pass's percentile, so a burst of machine noise in one pass does
    not move them.  A run cut short by a failure counts as one pass."""
    import numpy as np

    ms = np.asarray(unit_s) * 1e3
    passes = max(len(ms) // per_pass, 1)
    ms = ms[: passes * per_pass] if len(ms) >= per_pass else ms
    p50, p90 = np.median(np.percentile(ms.reshape(passes, -1), [50, 90], axis=1), axis=1)
    return float(p50), float(p90)


def probe() -> float:
    """Seconds a fixed pure-Python and small-numpy computation takes now.

    The machine's speed drifts by up to 2x over seconds (shared hosts), so
    timings are scaled to the speed at which this probe takes REF_PROBE_S.
    """
    import numpy as np

    t0 = time.perf_counter()
    s = 0
    for i in range(40000):
        s += i * i
    a = np.arange(64.0)
    for _ in range(400):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def scaled(seconds, before, after) -> float:
    """`seconds` measured between two probes, at the reference speed."""
    return seconds * REF_PROBE_S / (0.5 * (before + after))


class Clock:
    """Busy time in stretches split by laps, raw and at the reference speed.

    A probe runs at every lap, outside the measured time, and scales the
    stretch between it and the previous probe.
    """

    def __init__(self):
        self.raw_s = self.ref_s = 0.0
        self.before = probe()
        self.t0 = time.perf_counter()

    def lap(self) -> float:
        """End the current stretch; return its factor to the reference speed."""
        seconds = time.perf_counter() - self.t0
        after = probe()
        factor = scaled(1.0, self.before, after)
        self.raw_s += seconds
        self.ref_s += seconds * factor
        self.before = after
        self.t0 = time.perf_counter()
        return factor


def run_loop(loop, seconds):
    """Step a workload loop until it may stop and `seconds` have gone by.

    Returns the loop's clock and the unit times at the reference speed.
    """
    t_start = time.perf_counter()
    unit_s = []
    clock = Clock()
    while not loop.stopped:
        first = len(loop.unit_s)
        loop.step()
        factor = clock.lap()
        unit_s += [u * factor for u in loop.unit_s[first:]]
        if loop.can_stop() and time.perf_counter() - t_start >= seconds:
            break
    return clock, unit_s


def set_up(wl, seed):
    """Prepare a workload's inputs; return them, the median preparation time
    at the reference speed and whether every preparation gave the same inputs.

    Each preparation is timed in stretches split between the seeds of a
    start search, so a long search is scaled as finely as the measured loop.
    """
    times, prints = [], set()
    while len(times) < SETUP_REPS and sum(times) < SETUP_ONCE_S:
        clock = Clock()
        inputs = wl.prepare(seed, clock.lap)
        clock.lap()
        times.append(clock.ref_s)
        prints.add(wl.fingerprint(inputs))
    return inputs, statistics.median(times), len(prints) == 1


def run_paired(plain, traced, tracer):
    """Alternate batches of an untraced and a traced loop over the same units.

    Alternating, and swapping which of the two goes first, keeps drifts in
    machine speed out of the comparison that gives trace.overhead_frac.  The
    first pair is left out of it: the first batch of a process runs slow.
    """
    plain_s = traced_s = 0.0
    pair = 0
    while not (plain.stopped or traced.stopped):
        times = {}
        for loop in ((plain, traced) if pair % 2 else (traced, plain)):
            with tracer.installed() if loop is traced else nullcontext():
                t0 = time.perf_counter()
                loop.step()
                times[loop is traced] = time.perf_counter() - t0
        if pair:
            plain_s += times[False]
            traced_s += times[True]
        pair += 1
        if plain.can_stop() and traced.can_stop():
            break
    return plain_s, traced_s


def end_to_end(wl, seed, seconds, import_s, env):
    inputs, prep_s, same = set_up(wl, seed)
    loop = wl.loop(inputs)
    clock, unit_s = run_loop(loop, seconds)
    raw_s, ref_s = clock.raw_s, clock.ref_s
    verdict = wl.check(loop)
    if not same:
        verdict.problems.append("repeated set-up gave different inputs")
        verdict.failed = verdict.attempted
    if not check_digest(wl.name, verdict.digest, env):
        verdict.problems.append(f"digest {verdict.digest} differs from earlier runs")
        verdict.failed = verdict.attempted
    p50, p90 = percentiles(unit_s, wl.floor)
    metrics = {
        "setup_s": prep_s,
        "units_per_s": verdict.attempted / ref_s,
        "unit_ms_p50": p50,
        "unit_ms_p90": p90,
        "solutions_per_s": verdict.solutions / ref_s,
        "converged_frac": verdict.solutions / verdict.attempted,
        "max_infidelity": verdict.max_infidelity,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_p50, raw_p90 = percentiles(loop.unit_s, wl.floor)
    return verdict, metrics, {"samples": len(unit_s), "slowdown": raw_s / ref_s,
                              "raw": {"import_s": import_s, "busy_s": raw_s,
                                      "units_per_s": verdict.attempted / raw_s,
                                      "unit_ms_p50": raw_p50, "unit_ms_p90": raw_p90}}


def one_thread_p90(wl, seed, budget_s):
    """landscape.eig_sym.p90_ms from a traced child with one OpenBLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
           "--seed", str(seed), "--trace", "1", "--one-thread-child"]
    try:
        child = subprocess.run(cmd, env=env, capture_output=True, text=True,
                               timeout=max(budget_s, 10.0))
    except subprocess.TimeoutExpired:
        return None, "one-thread child run timed out"
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        return None, f"one-thread child run failed: {child.stderr.strip()[-300:]}"
    return json.loads(lines[-1])["metrics"]["landscape.eig_sym.p90_ms"]["value"], None


def traced(wl, seed, env, child, deadline):
    from tracing import Tracer

    tracer = Tracer()
    if child:
        loop = wl.loop(wl.prepare(seed))
        with tracer.installed():
            run_loop(loop, 0.0)
        p90 = tracer.metrics()["landscape.eig_sym.p90_ms"]
        return wl.check(loop), {"landscape.eig_sym.p90_ms": p90}, {}
    with tracer.installed():
        inputs = wl.prepare(seed)
    loop = wl.loop(inputs)
    plain = wl.loop(inputs)
    plain_s, traced_s = run_paired(plain, loop, tracer)
    verdict = wl.check(loop)
    layers = tracer.metrics()
    if wl.check(plain).digest != verdict.digest:
        verdict.problems.append("tracing changed the outputs")
        verdict.failed = verdict.attempted
    if not check_digest(wl.name, verdict.digest, env):
        verdict.problems.append(f"digest {verdict.digest} differs from earlier runs")
        verdict.failed = verdict.attempted
    layers["trace.overhead_frac"] = traced_s / plain_s - 1.0
    if layers.get("landscape.eig_sym.calls") == 0:
        layers["landscape.eig_sym.p90_ms_1thread"] = 0.0
    elif "landscape.eig_sym" not in tracer.absent:
        p90, problem = one_thread_p90(wl, seed, deadline - time.perf_counter())
        if problem:
            verdict.problems.append(problem)
            verdict.failed = verdict.attempted
        else:
            layers["landscape.eig_sym.p90_ms_1thread"] = p90
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{wl.name}-seed{seed}-spans.npz")
    notes = {"absent_layers": tracer.absent, "unbound_targets": tracer.unbound,
             "spans": len(tracer.start), "plain_s": plain_s, "traced_s": traced_s}
    return verdict, layers, notes


def execute(wl, seed, seconds, trace, *, import_s=0.0, child=False, started=None):
    """Run one workload in this process; return (result, report lines)."""
    import numpy as np
    from tracing import per_layer_units

    started = time.perf_counter() if started is None else started
    env = environment(np, seed)
    if trace:
        verdict, values, notes = traced(wl, seed, env, child, started + 170.0)
        units = per_layer_units()
    else:
        verdict, values, notes = end_to_end(wl, seed, seconds, import_s, env)
        units = END_TO_END_UNITS
    result = {
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    alias = ALIASES[wl.unit]
    lines = [f"qclbench {wl.name} seed={seed} trace={trace} "
             f"({verdict.attempted} {wl.unit}s attempted)",
             "env " + json.dumps(env, sort_keys=True),
             f"digest {verdict.digest}"]
    for name, v in values.items():
        shown = f"{name} ({alias[name]})" if name in alias else name
        lines.append(f"  {shown:<40} {v:.6g} {units[name]}")
    lines.append(f"  {'failed_frac':<40} {verdict.failed / verdict.attempted:.6g} ratio")
    if "raw" in notes:
        raw = notes["raw"]
        lines.append(f"times are at the reference speed; this run went {notes['slowdown']:.3f}x "
                     f"as slow: raw units_per_s {raw['units_per_s']:.6g}, unit_ms_p50 "
                     f"{raw['unit_ms_p50']:.6g}, unit_ms_p90 {raw['unit_ms_p90']:.6g}")
    lines += [f"CHECK FAILED: {p}" for p in verdict.problems]
    if not child:
        OUT.mkdir(exist_ok=True)
        record = {"workload": wl.name, "trace": trace, "env": env, "digest": verdict.digest,
                  "problems": verdict.problems, "notes": notes, "result": result}
        (OUT / f"{wl.name}-seed{seed}-trace{trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result, lines


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, one "
                             "process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held out: "
                             f"{HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="least measured time of an end-to-end run (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--one-thread-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "qcl" / "__init__.py").is_file():
        sys.stderr.write(f"qclbench: no qcl sources under {SRC}; run from a source tree\n")
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads  # numpy and qcl
    import_s = time.perf_counter() - t0
    result, lines = execute(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                            args.trace, import_s=import_s, child=args.one_thread_child,
                            started=started)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
