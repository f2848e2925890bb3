import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from qcl.cli import _load_config, main
from qcl.landscape import FdConfig, classify_null, eig_sym, fd_hessian
from qcl.models import chain_stencil_cost, hessian_of, problem_from_dict, problem_to_dict
from qcl.optimizer import STOP_CODES

LZ3 = {"model": "lz", "delta": 2.0, "T": 1.4 * np.pi / 2, "M": 3}
QHO6 = {"model": "qho", "omega0": 1.0, "omegaT": 1.0, "T": 1.8, "M": 6}
QHO8 = {"model": "qho", "omega0": 1.0, "omegaT": 1.0, "T": 1.8, "M": 8}


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run(command, cfg_path, out_dir):
    return main([command, "--config", cfg_path, "--out", str(out_dir)])


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("# seed=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


@pytest.fixture(scope="module")
def optimize_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("opt")
    cfg = write_config(out / "cfg.json",
                       {"problem": LZ3, "seed": 5, "count": 25, "tol": 1e-6,
                        "max_iter": 1500, "polish_target": 1e-16})
    rc = main(["optimize", "--config", cfg, "--out", str(out)])
    assert rc == 0
    return out


class TestOptimize:
    def test_writes_archive_and_scatter(self, optimize_run):
        out = optimize_run
        archive = (out / "solutions.jsonl").read_text().strip().split("\n")
        header = json.loads(archive[0])["header"]
        assert header["seed"] == 5
        records = [json.loads(line) for line in archive[1:]]
        assert len(records) == 25
        converged = [r for r in records if r["converged"]]
        assert converged, "expected a nonzero converged population"
        for r in converged:
            assert r["infidelity"] < 1e-6
            assert set(r["field"]) == {"T", "values"}
        assert {r["stop"] for r in converged} == {"TOL"}
        assert {r["stop"] for r in records if not r["converged"]} <= set(STOP_CODES) - {"TOL"}
        header_row, rows = read_csv(out / "scatter.csv")
        assert header_row == ["omega_1", "omega_2", "omega_3", "infidelity"]
        assert len(rows) == len(converged)

    def test_deterministic_rerun(self, optimize_run, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           {"problem": LZ3, "seed": 5, "count": 25, "tol": 1e-6,
                            "max_iter": 1500, "polish_target": 1e-16})
        rc = main(["optimize", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "solutions.jsonl").read_bytes() == \
            (optimize_run / "solutions.jsonl").read_bytes()
        assert (tmp_path / "scatter.csv").read_bytes() == \
            (optimize_run / "scatter.csv").read_bytes()

    def test_unreachable_polish_target_keeps_converged_seeds(self, tmp_path):
        # no seed reaches I < 1e-40, so polish stops every one short of it
        doc = {"problem": LZ3, "seed": 5, "count": 25, "tol": 1e-6, "max_iter": 1500}
        runs = {}
        for name, extra in (("plain", {}), ("polished", {"polish_target": 1e-40})):
            out = tmp_path / name
            out.mkdir()
            assert main(["optimize", "--config", write_config(out / "cfg.json", {**doc, **extra}),
                         "--out", str(out)]) == 0
            lines = (out / "solutions.jsonl").read_text().strip().split("\n")[1:]
            runs[name] = [json.loads(line) for line in lines]
        reached = [r["converged"] for r in runs["plain"]]
        assert any(reached) and [r["converged"] for r in runs["polished"]] == reached
        for r, plain in zip(runs["polished"], runs["plain"]):
            if r["converged"]:
                assert r["stop"] == "TOL" and r["infidelity"] <= plain["infidelity"]
        _, rows = read_csv(tmp_path / "polished" / "scatter.csv")
        assert len(rows) == sum(reached)

    def test_zero_count_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {"problem": LZ3, "count": 0})
        rc = main(["optimize", "--config", cfg, "--out", str(tmp_path)])
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"

    def test_config_round_trip_identity(self, tmp_path):
        doc = {"problem": LZ3, "seed": 5, "count": 25, "tol": 1e-6}
        p1 = tmp_path / "a.json"
        p1.write_text(json.dumps(doc))
        parsed = json.loads(p1.read_text())
        p2 = tmp_path / "b.json"
        p2.write_text(json.dumps(parsed))
        assert json.loads(p2.read_text()) == parsed


class TestSpectrum:
    def test_rank_two_from_archive(self, optimize_run, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           {"problem": LZ3, "seed": 5,
                            "solution_path": str(optimize_run / "solutions.jsonl")})
        rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "spectrum.csv")
        assert header == ["index", "eigenvalue", "ratio_to_max", "is_null"]
        assert len(rows) == 3
        nonnull = [r for r in rows if r[3] == "0"]
        assert len(nonnull) == 2

    @pytest.mark.parametrize("hessian", ["exact", "fd"])
    def test_rows_are_the_library_spectrum(self, optimize_run, tmp_path, hessian):
        archive = optimize_run / "solutions.jsonl"
        cfg = write_config(tmp_path / "cfg.json",
                           {"problem": LZ3, "seed": 1, "solution_path": str(archive),
                            "hessian": hessian, "epsilon": 1e-2})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
        records = [json.loads(line) for line in archive.read_text().strip().split("\n")[1:]]
        w = np.array(next(r["field"]["values"] for r in records if r["converged"]))
        problem = problem_from_dict(LZ3)
        hess = (fd_hessian(chain_stencil_cost(problem), w, FdConfig(1e-2)) if hessian == "fd"
                else hessian_of(problem, w))
        spec = eig_sym(hess)
        is_null = classify_null(spec)
        lam_max = np.abs(spec.eigenvalues).max()
        _, rows = read_csv(tmp_path / "spectrum.csv")
        assert rows == [[str(i), repr(float(lam)), repr(float(abs(lam) / lam_max)),
                         str(int(is_null[i]))] for i, lam in enumerate(spec.eigenvalues)]

    @pytest.mark.parametrize("index", [-1, 10**6])
    def test_solution_index_out_of_range_rejected(self, optimize_run, tmp_path, capsys, index):
        archive = optimize_run / "solutions.jsonl"
        n = sum(json.loads(line).get("converged", False)
                for line in archive.read_text().strip().split("\n")[1:])
        cfg = write_config(tmp_path / "cfg.json",
                           {"problem": LZ3, "seed": 5, "solution_path": str(archive),
                            "solution_index": index})
        rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert f"{n} converged records" in err["message"]
        assert not (tmp_path / "spectrum.csv").exists()

    def test_non_solution_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           {"problem": LZ3, "seed": 5,
                            "solution": {"T": LZ3["T"], "values": [3.0, -1.0, 2.0]}})
        rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "infidelity" in err["message"]

    def test_start_of_another_duration_rejected(self, optimize_run, tmp_path, capsys):
        # the amplitudes solve LZ3; only the start's T disagrees with the problem
        lines = (optimize_run / "solutions.jsonl").read_text().strip().split("\n")[1:]
        values = next(r["field"]["values"] for r in map(json.loads, lines) if r["converged"])
        start = {"problem": LZ3, "seed": 5, "solution": {"T": 99.0, "values": values}}
        for command, extra in (("spectrum", {}), ("drive", {"steps": 0})):
            cfg = write_config(tmp_path / "cfg.json", {**start, **extra})
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == "ValueError" and "duration 99.0" in err["message"]
        assert list(tmp_path.glob("*.csv")) == [] and list(tmp_path.glob("*.jsonl")) == []


class TestDrive:
    def test_zero_steps_emits_start_only(self, optimize_run, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           {"problem": LZ3, "seed": 5, "steps": 0,
                            "solution_path": str(optimize_run / "solutions.jsonl")})
        rc = main(["drive", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "trajectory.jsonl").read_text().strip().split("\n")
        assert len(lines) == 2
        assert json.loads(lines[1])["zeta"] == 0.0

    def test_short_drive_preserves_fidelity(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           {"problem": LZ3, "seed": 6, "steps": 150, "h": 0.01,
                            "epsilon": 1e-2, "search_count": 40})
        rc = main(["drive", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "trajectory.jsonl").read_text().strip().split("\n")
        head = json.loads(lines[0])["header"]
        assert head["seed"] == 6 and head["epsilon"] == 1e-2
        recs = [json.loads(line) for line in lines[1:]]
        assert len(recs) == 151
        assert max(r["infidelity"] for r in recs) < 1e-6
        zetas = [r["zeta"] for r in recs]
        assert zetas == sorted(zetas)


class TestCalibrate:
    def test_two_direction_sweep(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           {"problem": QHO6, "seed": 9, "steps": 60, "h": 0.1,
                            "n_directions": 2, "eps_grid": [1e-8, 1e-2],
                            "search_count": 10})
        rc = main(["calibrate", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        for d in (0, 1):
            header, rows = read_csv(tmp_path / f"calibration_dir{d}.csv")
            assert header == ["epsilon", "final_infidelity"]
            assert len(rows) == 2
            # the well-conditioned step holds the level set
            assert float(rows[1][1]) < 1e-6


class TestCompress:
    def test_exact_and_fd_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           {"problem": QHO8, "seed": 11, "kept": [1],
                            "modes": ["exact", "fd"], "epsilon": 1e-2,
                            "h": 0.02, "steps": 60, "n_starts": 1,
                            "search_count": 10})
        rc = main(["compress", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        echoed = capsys.readouterr().out
        assert "closed to [0, 1, 7]" in echoed
        for mode in ("exact", "fd"):
            lines = (tmp_path / f"compress_s0_{mode}.jsonl").read_text().strip().split("\n")
            head = json.loads(lines[0])["header"]
            assert head["kept_closed"] == [0, 1, 7]
            recs = [json.loads(line) for line in lines[1:]]
            costs = [r["secondary"] for r in recs]
            assert costs[-1] < costs[0]
            header, rows = read_csv(tmp_path / f"protocol_s0_{mode}.csv")
            assert header == ["zeta", "index", "t", "omega"]
            # one sample in steps // 20 = 3, each with its M = 8 amplitudes
            assert [float(r[0]) for r in rows[::8]] == [r["zeta"] for r in recs[::3]]
            assert len(rows) == 8 * len(recs[::3])
        header, rows = read_csv(tmp_path / "comparison_s0.csv")
        assert header == ["zeta", "cost_exact", "cost_fd",
                          "infidelity_exact", "infidelity_fd"]
        assert len(rows) == 61

    def test_empty_start_set_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           {"problem": QHO8, "seed": 11, "n_starts": 0})
        rc = main(["compress", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"

    def test_unknown_mode_rejected(self, tmp_path, capsys):
        # any mode but "exact" used to run as FD under its own name
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json",
                           {"problem": QHO8, "seed": 11, "modes": ["exact", "fdd"],
                            "steps": 2, "search_count": 10})
        rc = main(["compress", "--config", cfg, "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert "'fdd'" in err["message"]
        assert list(out.iterdir()) == []

    def test_kept_set_that_excludes_nothing_rejected(self, tmp_path, capsys):
        # kept [1] closes to {0, 1, 2} at M = 3, so C is zero everywhere and
        # C/C0 would print nan; the run stops before the start search
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", {"problem": LZ3, "kept": [1], "steps": 2})
        rc = main(["compress", "--config", cfg, "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err.strip())
        assert err["error"] == "ValueError" and "kept" in err["message"]
        assert "closed to" not in captured.out
        assert list(out.iterdir()) == []


class TestBenchmark:
    def test_self_ratio_is_near_one(self):
        # timing the same path against itself must give a unit ratio up to noise
        import time

        import numpy as np
        from qcl.landscape import eig_sym
        from qcl.models import LzProblem, hessian_of

        problem = LzProblem(gap=2.0, duration=1.8, n_pulses=12)
        values = np.random.default_rng(1).uniform(-5, 5, 12)

        def measure():
            reps, t0 = 0, time.perf_counter()
            while time.perf_counter() - t0 < 5e-3:
                eig_sym(hessian_of(problem, values))
                reps += 1
            return (time.perf_counter() - t0) / reps

        ratios = [measure() / measure() for _ in range(5)]
        assert 0.3 <= float(np.median(ratios)) <= 3.0

    def test_small_grid(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           {"seed": 3, "m_grid": [3, 6], "models": ["lz", "qho"],
                            "fields_per_m": 3, "min_time": 5e-4})
        rc = main(["benchmark", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "benchmark.csv")
        assert header == ["model", "M", "tau_app", "tau_ext", "eta"]
        assert len(rows) == 4
        for row in rows:
            assert float(row[4]) > 0


class TestErrorRecords:
    def test_missing_config_file(self, capsys):
        rc = main(["drive", "--config", "/does/not/exist.json"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["command"] == "drive"
        assert err["error"] == "FileNotFoundError"

    def test_bad_model_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           {"problem": {"model": "bogus", "T": 1.0, "M": 2}})
        rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"

    @pytest.mark.parametrize("doc,name", [
        ({"problem": {"model": "lz", "T": 1.8, "M": 3}}, "problem.delta"),
        ({"problem": 5}, "problem"),
        ({"problem": {"model": ["lz"], "T": 1.8, "M": 3}}, "model"),
        ({"problem": LZ3, "hessian": 2}, "hessian"),
        ({"problem": dict(LZ3, T=[1.8])}, "problem.T"),
        ({"problem": LZ3, "seed": [1]}, "seed"),
        ({"problem": LZ3, "count": True}, "count"),
        ({"problem": LZ3, "steps": 10.5}, "steps"),
        ({"problem": LZ3, "bounds": 5}, "bounds"),
        ({"problem": LZ3, "eps_grid": ["a"]}, "eps_grid"),
        ({"problem": LZ3, "epsilon": float("nan")}, "epsilon"),
    ])
    def test_malformed_shape_rejected_at_load(self, tmp_path, capsys, doc, name):
        # each key is loaded by a subcommand that reads it
        command = {"count": "optimize", "steps": "drive", "eps_grid": "calibrate"}.get(
            name, "spectrum")
        cfg = write_config(tmp_path / "cfg.json", doc)
        with pytest.raises(ValueError, match=name):
            _load_config(cfg, command)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and name in err["message"]

    @pytest.mark.parametrize("command,key,value", [
        ("fd-error", "n_solutions", 0),
        ("calibrate", "n_directions", -1),
        ("benchmark", "fields_per_m", 0),
    ])
    def test_count_below_one_rejected(self, tmp_path, capsys, command, key, value):
        doc = {key: value} if command == "benchmark" else {"problem": LZ3, key: value}
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and key in err["message"]

    @pytest.mark.parametrize("key,value", [
        ("tol", -1), ("tol", 0), ("max_iter", -3), ("max_iter", 0), ("polish_target", -1e-16),
    ])
    def test_out_of_range_descent_setting_rejected(self, tmp_path, capsys, key, value):
        # a negative tol converges no seed and a negative max_iter runs none:
        # each must fail at load, not exit 0 with an archive of misses
        cfg = write_config(tmp_path / "cfg.json", {"problem": LZ3, "count": 2, key: value})
        with pytest.raises(ValueError, match=key):
            _load_config(cfg, "optimize")
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and key in err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


class TestConfigKeys:
    # "step" for "steps" would otherwise run the default 10000 steps; "classify"
    # and "protocol_stride" are retired settings
    @pytest.mark.parametrize("command,key", [
        ("drive", "step"), ("drive", "pick"), ("spectrum", "entry_threshold"),
        ("spectrum", "classify"), ("compress", "protocol_stride"),
    ])
    def test_unknown_key_rejected(self, tmp_path, capsys, command, key):
        cfg = write_config(tmp_path / "cfg.json", {"problem": LZ3, "seed": 5, key: 3})
        rc = main([command, "--config", cfg, "--out", str(tmp_path)])
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "UnknownConfigKeys"
        assert err["keys"] == [key]
        assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.jsonl"))

    def test_unknown_problem_key_rejected(self, tmp_path, capsys):
        # "N0", an initial occupation no computed value read, is retired
        for key in ("omega_0", "N0"):
            problem = dict(QHO6, **{key: 2.0})
            cfg = write_config(tmp_path / "cfg.json", {"problem": problem, "count": 1})
            rc = main(["optimize", "--config", cfg, "--out", str(tmp_path)])
            assert rc != 0
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == "UnknownConfigKeys"
            assert err["keys"] == [f"problem.{key}"]

    def test_non_object_config_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", [1, 2])
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path)]) != 0
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ValueError"

    @pytest.mark.parametrize("quick", [True, False])
    def test_every_generated_config_loads(self, tmp_path, quick):
        # CI runs only the quick set; a retired key left in the full set fails here
        path = Path(__file__).resolve().parents[1] / "scripts" / "make_configs.py"
        spec = importlib.util.spec_from_file_location("make_configs", path)
        make_configs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(make_configs)
        make_configs.main(["--dir", str(tmp_path)] + ["--quick"] * quick)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest) == 12
        for name, command in manifest.items():
            path = tmp_path / f"{name}.json"
            doc = json.loads(path.read_text())
            cfg = _load_config(str(path), command)
            for key, value in doc.items():
                loaded = problem_to_dict(cfg[key]) if key == "problem" else cfg[key]
                assert loaded == value, (name, key)
