import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from qnas.cli import EXIT_CONFIG, EXIT_OK, EXIT_UNATTAINABLE, main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_CONFIG = os.path.join(REPO, "configs", "demo.json")
VALIDATE_CONFIG = os.path.join(REPO, "configs", "validate_demo.json")


NAN, INF = float("nan"), float("inf")

# Out-of-range or misshapen values for a C=3 scenario; each must be a
# config error before the scenario runs.
BAD_SCENARIO_VALUES = {
    "amplitude-out-of-range": {"workload": {"base_rates": [1, 1, 1], "amplitudes": [1.5, 0, 0]}},
    "negative-base-rate": {"workload": {"base_rate": -1}},
    "short-amplitudes": {"workload": {"base_rates": [1, 1, 1], "amplitudes": [0.1, 0.1]}},
    "one-amplitude": {"workload": {"base_rates": [1, 1, 1], "amplitudes": [0.1]}},
    "short-max-response": {"sla": {"max_response": [5.0, 5.0]}},
    "bogus-noise-mode": {"noise": {"mode": "bogus"}},
    "multiplier-below-one": {"sla": {"multiplier": 0.5}},
    "no-stations": {"K": 0},
    "fractional-initial-config": {"initial_config": [1.9, 1, 1.5, 1]},
    "string-poisson-arrivals": {"poisson_arrivals": "false"},
    "fractional-noise-seed": {"noise": {"mode": "sampled", "relative_sd": 0.05, "seed": 3.7}},
    # JSON admits NaN and Infinity; each must fail before the run, not
    # switch its setting off or stop the run midway.
    "nan-relative-sd": {"noise": {"mode": "sampled", "relative_sd": NAN}},
    "inf-relative-sd": {"noise": {"mode": "sampled", "relative_sd": INF}},
    "nan-perturbation-sd": {"workload": {"perturbation_sd": NAN}},
    "nan-base-rate": {"workload": {"base_rate": NAN}},
    "inf-base-rates": {"workload": {"base_rates": [INF, 1, 1]}},
    "nan-amplitude": {"workload": {"base_rates": [1, 1, 1], "amplitudes": [NAN, 0, 0]}},
    "inf-period": {"workload": {"base_rates": [1, 1, 1], "periods": [INF, 3, 3]}},
    "nan-phase": {"workload": {"base_rates": [1, 1, 1], "phases": [NAN, 0, 0]}},
    "inf-multiplier": {"sla": {"multiplier": INF}},
    "inf-window": {"window": INF},
    "nan-window-poisson": {"window": NAN, "poisson_arrivals": True},
}
# A sweep reads master_seed itself and rejects the whole grid on it
# (TestSweep.test_malformed_grid); in `run` it is a scenario key.
BAD_RUN_VALUES = {**BAD_SCENARIO_VALUES, "fractional-master-seed": {"master_seed": 1.5}}


def bad_scenario(name):
    return {"C": 3, "K": 4, "horizon": 3, **BAD_RUN_VALUES[name]}


def src_env():
    """Environment for a fresh interpreter that imports qnas from src/."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(REPO, "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestRun:
    def test_demo(self, tmp_path):
        rc = main(["run", "--config", DEMO_CONFIG, "--out", str(tmp_path), "--quiet"])
        assert rc == EXIT_OK
        header, rows = read_csv(tmp_path / "summary.csv")
        row = dict(zip(header, rows[0]))
        assert row["inst_min"] == row["inst_max"] == "5"
        assert float(row["ratio"]) == pytest.approx(1.0)
        header, rows = read_csv(tmp_path / "timeseries.csv")
        assert header[0] == "step"
        assert len(rows) == 3
        # Per-step configuration columns: N_1..N_3 = 2,1,2.
        n_cols = [header.index("N_%d" % k) for k in (1, 2, 3)]
        assert [rows[0][i] for i in n_cols] == ["2", "1", "2"]

    def test_missing_key(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"C": 2, "K": 3}))
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"C": 2, "K": 3, "horizon": 5, "bogus": 1}))
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path), "--quiet"])
        assert rc == EXIT_CONFIG

    def test_unattainable_sla(self, tmp_path):
        cfg = json.load(open(DEMO_CONFIG))
        cfg["sla"] = {"max_response": [1.0, 5.0]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(path), "--out", str(tmp_path), "--quiet"])
        assert rc == EXIT_UNATTAINABLE

    @pytest.mark.parametrize("name", sorted(BAD_RUN_VALUES))
    def test_out_of_range_values(self, tmp_path, name):
        cfg = bad_scenario(name)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_idempotent_outputs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["run", "--config", DEMO_CONFIG, "--out", str(out), "--quiet"]) == EXIT_OK
        assert (out_a / "timeseries.csv").read_bytes() == (out_b / "timeseries.csv").read_bytes()
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    def test_env_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QNAS_OUT", str(tmp_path))
        rc = main(["run", "--config", DEMO_CONFIG, "--quiet"])
        assert rc == EXIT_OK
        assert (tmp_path / "summary.csv").exists()


    def test_noise_without_mode(self, tmp_path, caplog):
        # A relative_sd with no mode would run noise-free; it must say so.
        cfg = json.load(open(DEMO_CONFIG))
        cfg["noise"] = {"relative_sd": 0.05, "seed": 1}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == EXIT_CONFIG
        assert '"mode": "sampled"' in caplog.text
        assert not (tmp_path / "out" / "summary.csv").exists()

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_quiet_prints_nothing(self, tmp_path, where):
        # In a fresh interpreter, so logging is configured as on the command line.
        args = ["run", "--config", DEMO_CONFIG, "--out", str(tmp_path)]
        args = ["--quiet"] + args if where == "before" else args + ["--quiet"]
        proc = subprocess.run([sys.executable, "-m", "qnas.cli"] + args, env=src_env(),
                              capture_output=True, text=True, check=False)
        assert proc.returncode == EXIT_OK
        assert (proc.stdout, proc.stderr) == ("", "")
        assert (tmp_path / "summary.csv").exists()


def test_imports_without_scipy():
    # numpy is the only runtime dependency: a fresh interpreter that loads
    # the CLI and the simulation kit has loaded no scipy module.
    code = ("import qnas.cli, qnas.simkit, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


class TestSweep:
    def test_degenerate_grid_matches_run(self, tmp_path):
        cfg = json.load(open(DEMO_CONFIG))
        del cfg["C"], cfg["K"]
        cfg.update({"C_values": [2], "K_values": [3], "seeds": [0]})
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path), "--quiet"])
        assert rc == EXIT_OK
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["inst_min"] == row["inst_max"] == "5"

    def test_failing_cell_isolated(self, tmp_path):
        cfg = json.load(open(DEMO_CONFIG))
        del cfg["C"], cfg["K"]
        cfg["sla"] = {"max_response": [1.0, 5.0]}  # unattainable everywhere
        cfg.update({"C_values": [2], "K_values": [3], "seeds": [0]})
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path), "--quiet"])
        assert rc == EXIT_OK
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert "ERROR" in rows[0]

    @pytest.mark.parametrize("name", sorted(BAD_SCENARIO_VALUES))
    def test_out_of_range_cell(self, tmp_path, name):
        cfg = bad_scenario(name)
        C, K = cfg.pop("C"), cfg.pop("K")
        cfg.update(C_values=[C], K_values=[K], seeds=[0])
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path), "--quiet"])
        assert rc == EXIT_OK
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert rows == [["0", str(C), str(K)] + ["ERROR"] * 9]

    @pytest.mark.parametrize("override", [
        {"C_values": ["x"]}, {"K_values": [None]}, {"seeds": ["x"]}, {"master_seed": "x"},
        {"C_values": [2.7]}, {"K_values": [3.5]}, {"seeds": [0.9]}, {"master_seed": 1.5},
        # Listed seeds leave master_seed unused, but it is checked all the same.
        {"seeds": [1], "master_seed": "x"}, {"seeds": [1], "master_seed": 1.5}])
    def test_malformed_grid(self, tmp_path, override):
        cfg = {"C_values": [2], "K_values": [3], "horizon": 3, **override}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path), "--quiet"])
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "sweep.csv").exists()

    def test_seeds_need_no_master_seed(self, tmp_path, caplog):
        # Listed seeds replace the master seed, so its default is not logged.
        caplog.set_level(logging.INFO)
        cfg = {"C_values": [2], "K_values": [3], "seeds": [1], "horizon": 2}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == EXIT_OK
        assert "master_seed" not in caplog.text

    def test_whole_valued_floats(self, tmp_path):
        # 2.0 means 2: the grid, seeds and noise seed written as floats give
        # the same sweep as written as integers.
        outputs = []
        for num in (int, float):
            cfg = {"C_values": [num(2)], "K_values": [num(3)], "seeds": [num(1)],
                   "master_seed": num(4), "horizon": 3,
                   "noise": {"mode": "sampled", "relative_sd": 0.05, "seed": num(5)}}
            path = tmp_path / "sweep.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / num.__name__
            assert main(["sweep", "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_small_grid_rows(self, tmp_path):
        cfg = {"C_values": [2, 3], "K_values": [3], "seeds": [1, 2], "horizon": 5,
               "master_seed": 0}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path), "--quiet"])
        assert rc == EXIT_OK
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 4


class TestValidate:
    def test_demo_passes_gate(self, tmp_path):
        rc = main(["validate", "--config", VALIDATE_CONFIG, "--out", str(tmp_path), "--quiet"])
        assert rc == EXIT_OK
        header, rows = read_csv(tmp_path / "validation.csv")
        assert header[:2] == ["discipline", "target"]
        # 2 classes x 3 stations minus the skipped zero-demand cell.
        assert len(rows) == 5
        for row in rows:
            rel = float(dict(zip(header, row))["rel_error"])
            assert rel <= 0.05

    def test_overloaded_target(self, tmp_path):
        cfg = json.load(open(VALIDATE_CONFIG))
        cfg["targets"] = [[1, 1, 1]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["validate", "--config", str(path), "--out", str(tmp_path), "--quiet"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("override", [
        {"disciplines": ["lifo"]}, {"batches": 1}, {"warmup_fraction": 1.5},
        {"run_length": 0}, {"batches": "ten"}, {"disciplines": [["ps"]]},
        {"rates": ["fast", 1.0]}, {"targets": [["two", 1, 2]]},
        {"demands": [[0.5, 0.3], [0.5]]}, {"targets": [[2.9, 1, 2]]},
        {"ref_config": [1.5, 1, 1]}, {"batches": 10.5}, {"master_seed": 1.5},
        {"run_length": float("inf")}])
    def test_malformed_config(self, tmp_path, caplog, override):
        cfg = json.load(open(VALIDATE_CONFIG))
        cfg.update({"run_length": 100}, **override)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["validate", "--config", str(path), "--out", str(tmp_path), "--quiet"])
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "validation.csv").exists()
        if override.get("run_length") == float("inf"):
            # Written as Infinity in the JSON; numpy's Poisson draw used to
            # report it as "lam value too large".
            assert "run_length" in caplog.text

    def test_mm1_closed_form(self, tmp_path):
        cfg = {"rates": [0.5], "demands": [[1.0]], "ref_config": [1],
               "targets": [[1]], "disciplines": ["ps"], "run_length": 160000,
               "master_seed": 2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["validate", "--config", str(path), "--out", str(tmp_path), "--quiet"])
        assert rc == EXIT_OK
        header, rows = read_csv(tmp_path / "validation.csv")
        row = dict(zip(header, rows[0]))
        assert float(row["analytic_R"]) == pytest.approx(2.0)
        assert float(row["rel_error"]) <= 0.05
