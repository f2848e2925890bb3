import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from qcl.cli import _load_config, main
from qcl.optimizer import STOP_CODES

LZ3 = {"model": "lz", "delta": 2.0, "T": 1.4 * np.pi / 2, "M": 3}
QHO6 = {"model": "qho", "omega0": 1.0, "omegaT": 1.0, "N0": 0.0, "T": 1.8, "M": 6}
QHO8 = {"model": "qho", "omega0": 1.0, "omegaT": 1.0, "N0": 0.0, "T": 1.8, "M": 8}


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
                            "solution_path": str(optimize_run / "solutions.jsonl"),
                            "classify": {"tau_rel": 1e-6}})
        rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "spectrum.csv")
        assert header == ["index", "eigenvalue", "ratio_to_max", "is_null"]
        assert len(rows) == 3
        nonnull = [r for r in rows if r[3] == "0"]
        assert len(nonnull) == 2

    def test_non_solution_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           {"problem": LZ3, "seed": 5,
                            "solution": {"T": LZ3["T"], "values": [3.0, -1.0, 2.0]}})
        rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "infidelity" in err["message"]


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
                            "search_count": 10, "protocol_stride": 20})
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


class TestConfigKeys:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        # "step" for "steps" would otherwise run the default 10000 steps
        cfg = write_config(tmp_path / "cfg.json", {"problem": LZ3, "seed": 5, "step": 3})
        rc = main(["drive", "--config", cfg, "--out", str(tmp_path)])
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "UnknownConfigKeys"
        assert err["keys"] == ["step"]
        assert not (tmp_path / "trajectory.jsonl").exists()

    def test_unknown_problem_key_rejected(self, tmp_path, capsys):
        problem = dict(QHO6, omega_0=2.0)
        cfg = write_config(tmp_path / "cfg.json", {"problem": problem, "count": 1})
        rc = main(["optimize", "--config", cfg, "--out", str(tmp_path)])
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["keys"] == ["problem.omega_0"]

    def test_classify_takes_only_tau_rel(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           {"problem": LZ3, "seed": 5,
                            "classify": {"tau_rel": 1e-6, "rank": 2}})
        rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path)])
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "UnknownConfigKeys"
        assert err["keys"] == ["classify.rank"]
        assert not (tmp_path / "spectrum.csv").exists()

    def test_non_object_config_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", [1, 2])
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path)]) != 0
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ValueError"

    @pytest.mark.parametrize("quick", [True, False])
    def test_every_generated_config_loads(self, tmp_path, quick):
        path = Path(__file__).resolve().parents[1] / "scripts" / "make_configs.py"
        spec = importlib.util.spec_from_file_location("make_configs", path)
        make_configs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(make_configs)
        for name, (command, doc) in make_configs.configs(quick).items():
            cfg = write_config(tmp_path / f"{name}.json", doc)
            assert _load_config(cfg, command) == doc
