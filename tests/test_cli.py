import copy
import functools
import hashlib
import itertools
import json
import logging
import math
import os
import re
import subprocess
import sys
from collections import namedtuple

import pytest

from qnas import cli
from qnas.cli import EXIT_CONFIG, EXIT_OK, EXIT_UNATTAINABLE, EXIT_VALIDATION, main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_CONFIG = os.path.join(REPO, "configs", "demo.json")
VALIDATE_CONFIG = os.path.join(REPO, "configs", "validate_demo.json")
NOISY_SWEEP_CONFIG = os.path.join(REPO, "configs", "noisy_sweep.json")
COMMANDS = ["run", "sweep", "validate"]


NAN, INF = float("nan"), float("inf")
# A JSON integer beyond float range: float() and numpy raise OverflowError.
HUGE = int("9" * 400)

# Out-of-range or misshapen values for a C=3 scenario; each must be a
# config error before the scenario runs, and meet check_rules.
# test_config_surface puts a wrong kind, a NaN, an infinity and a number
# beyond float range into every key; a case added here is one that sets
# several keys or depends on context.
BAD_SCENARIO_VALUES = {
    "amplitude-out-of-range": {"workload": {"base_rates": [1, 1, 1], "amplitudes": [1.5, 0, 0]}},
    "negative-base-rate": {"workload": {"base_rates": [-1, 1, 1]}},
    # The default law takes no settings: a workload block is an explicit law.
    "default-law-scalar": {"workload": {"base_rate": 2.0}},
    "perturbation-without-law": {"workload": {"perturbation_sd": 0.2}},
    "short-amplitudes": {"workload": {"base_rates": [1, 1, 1], "amplitudes": [0.1, 0.1]}},
    "one-amplitude": {"workload": {"base_rates": [1, 1, 1], "amplitudes": [0.1]}},
    "short-base-rates": {"workload": {"base_rates": [1, 1]}},
    "short-max-response": {"sla": {"max_response": [5.0, 5.0]}},
    "bogus-noise-mode": {"noise": {"mode": "bogus"}},
    "multiplier-below-one": {"sla": {"multiplier": 0.5}},
    "zero-max-response": {"sla": {"max_response": [0.0, 5.0, 5.0]}},
    "negative-max-response": {"sla": {"max_response": [-1.0, 5.0, 5.0]}},
    # A nested block must be an object.
    "null-workload": {"workload": None},
    "scalar-sla": {"sla": 5},
    "no-stations": {"K": 0},
    "fractional-initial-config": {"initial_config": [1.9, 1, 1.5, 1]},
    "string-poisson-arrivals": {"poisson_arrivals": "false"},
    "window-without-poisson": {"window": 20},
    "fractional-horizon": {"horizon": 2.5},
    "fractional-noise-seed": {"noise": {"mode": "sampled", "relative_sd": 0.05, "seed": 3.7}},
    # JSON admits NaN and Infinity; each must fail before the run, not
    # switch its setting off or stop the run midway.
    "nan-relative-sd": {"noise": {"mode": "sampled", "relative_sd": NAN}},
    "inf-relative-sd": {"noise": {"mode": "sampled", "relative_sd": INF}},
    "nan-perturbation-sd": {"workload": {"base_rates": [1, 1, 1], "perturbation_sd": NAN}},
    "nan-base-rate": {"workload": {"base_rates": [NAN, 1, 1]}},
    "inf-base-rates": {"workload": {"base_rates": [INF, 1, 1]}},
    "nan-amplitude": {"workload": {"base_rates": [1, 1, 1], "amplitudes": [NAN, 0, 0]}},
    "inf-period": {"workload": {"base_rates": [1, 1, 1], "periods": [INF, 3, 3]}},
    "nan-phase": {"workload": {"base_rates": [1, 1, 1], "phases": [NAN, 0, 0]}},
    "inf-multiplier": {"sla": {"multiplier": INF}},
    "nan-max-response": {"sla": {"max_response": [NAN, 5.0, 5.0]}},
    "inf-max-response": {"sla": {"max_response": [INF, 5.0, 5.0]}},
    "inf-window": {"window": INF, "poisson_arrivals": True},
    "nan-window-poisson": {"window": NAN, "poisson_arrivals": True},
    # JSON true/false are not numbers, though int(), float() and numpy read
    # them as 1/0.
    "bool-horizon": {"horizon": True},
    "bool-demands": {"demands": [[True, False, True, 0.5], [0.5] * 4, [0.5] * 4]},
    "bool-base-rates": {"workload": {"base_rates": [True, 1, 1]}},
    "bool-max-response": {"sla": {"max_response": [True, 5.0, 5.0]}},
    "bool-initial-config": {"initial_config": [True, 1, 1, 1]},
    "bool-relative-sd": {"noise": {"mode": "sampled", "relative_sd": True}},
    "bool-noise-seed": {"noise": {"mode": "sampled", "relative_sd": 0.05, "seed": True}},
    "bool-window": {"window": True, "poisson_arrivals": True},
    # Nor are numeric strings, though float() and numpy read them as numbers.
    "string-multiplier": {"sla": {"multiplier": "2"}},
    "string-window": {"window": "2", "poisson_arrivals": True},
    "string-base-rates": {"workload": {"base_rates": ["1", 1, 1]}},
    "string-perturbation-sd": {"workload": {"base_rates": [1, 1, 1], "perturbation_sd": "0.1"}},
    "string-demands": {"demands": [["0.5", 0.5, 0.5, 0.5], [0.5] * 4, [0.5] * 4]},
    "string-initial-config": {"initial_config": ["2", 1, 1, 1]},
    "string-max-response": {"sla": {"max_response": ["50", 50.0, 50.0]}},
    "string-relative-sd": {"noise": {"mode": "sampled", "relative_sd": "0.05"}},
    "huge-multiplier": {"sla": {"multiplier": HUGE}},
    "huge-base-rates": {"workload": {"base_rates": [HUGE, 1, 1]}},
    "huge-demands": {"demands": [[HUGE, 0.5, 0.5, 0.5], [0.5] * 4, [0.5] * 4]},
    # A size must also fit in int64; any number must lie inside float range.
    "huge-horizon": {"horizon": HUGE},
    # Read before the default periods, which would convert it to a float.
    "huge-horizon-with-law": {"horizon": HUGE, "workload": {"base_rates": [1, 1, 1]}},
    "int64-overflow-horizon": {"horizon": 2 ** 63},
    # A count past int64, refused before numpy's cast could warn.
    "int64-overflow-initial-config": {"initial_config": [1e19, 1, 1, 1]},
    "huge-C": {"C": HUGE},
    "huge-K": {"K": HUGE},
    # Sizes too large to allocate, found before step 0; smaller ones, some
    # 1e9, may be allocated lazily and then run for hours.
    "unallocatable-C": {"C": 10 ** 15},
    "unallocatable-K": {"K": 10 ** 15},
    "unallocatable-horizon": {"horizon": 10 ** 15},
    # Finite values whose generated inputs overflow: found before step 0,
    # with no RuntimeWarning first.
    "overflowing-thresholds": {"sla": {"multiplier": 1e308}, "demands": [[1.0] * 4] * 3},
    "overflowing-poisson-mean": {"poisson_arrivals": True, "window": 1e30},
    "overflowing-rates": {"workload": {"base_rates": [1e308, 1, 1], "amplitudes": [0.99, 0, 0],
                                       "phases": [1.5707963, 0, 0]}},
    "overflowing-floor": {"demands": [[1e308, 0.5, 0.5, 0.5], [0.5] * 4, [0.5] * 4],
                          "sla": {"max_response": [5.0, 5.0, 5.0]}},
    "overflowing-relative-sd": {"noise": {"mode": "sampled", "relative_sd": 1e308}},
    # Thresholds given and a multiplier to derive them: one must go.
    "sla-both-keys": {"sla": {"max_response": [5.0, 5.0, 5.0], "multiplier": 50}},
}
# A sweep reads master_seed itself and rejects the whole grid on it
# (TestSweep.test_malformed_grid); in `run` it is a scenario key.
# The same holds for C and K, which a sweep reads from its grid.
BAD_RUN_VALUES = {**BAD_SCENARIO_VALUES, "fractional-master-seed": {"master_seed": 1.5},
                  "bool-master-seed": {"master_seed": True}, "bool-C": {"C": True},
                  "fractional-C": {"C": 2.7}, "string-K": {"K": "4"},
                  # Checked even though --out overrides it.
                  "int-out-dir": {"out_dir": 5}}
# The config error of each of these names the key path, though no kind
# rule (check_rules) asks it to.
ERROR_KEY_PATHS = {
    "int64-overflow-horizon": "horizon",
    "unallocatable-C": "C=1000000000000000", "unallocatable-K": "K=1000000000000000",
    "unallocatable-horizon": "horizon 1000000000000000", "overflowing-floor": "demands",
    "overflowing-relative-sd": "relative_sd", "sla-both-keys": "sla.max_response and sla.multiplier",
}
# A wrong length is reported by the model type that holds the value; its
# config error begins with the field.
ERROR_FIELDS = {
    "short-base-rates": "config error: workload law", "short-amplitudes": "config error: amplitudes",
    "one-amplitude": "config error: amplitudes", "short-max-response": "config error: sla",
}


def bad_scenario(name):
    return {"C": 3, "K": 4, "horizon": 3, **BAD_RUN_VALUES[name]}


def src_env():
    """Environment for a fresh interpreter that imports qnas from src/."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(REPO, "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


DEMO = read_json(DEMO_CONFIG)
VALIDATE_DEMO = read_json(VALIDATE_CONFIG)


def read_csv(data):
    lines = data.decode().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


Outcome = namedtuple("Outcome", "rc errors files")


@pytest.fixture
def qnas(tmp_path, caplog):
    """Call `main` as the command line would, and return its Outcome: the
    exit code, the lines logged at warning level or above, and the files
    written to the output directory by name (None if it was not made).

    A dict config is written to a file first; a string is a config path.
    `out` is the --out directory: by default a fresh one per call, with
    False for no --out.  `quiet` passes --quiet."""
    fresh = itertools.count()

    def call(command, config, *flags, out=True, quiet=True):
        if isinstance(config, dict):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            config = str(path)
        if out is True:
            out = tmp_path / ("out-%d" % next(fresh))
        argv = ([command, "--config", config] + (["--out", str(out)] if out else [])
                + (["--quiet"] if quiet else []) + list(flags))
        caplog.clear()
        rc = main(argv)
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        files = {f.name: f.read_bytes() for f in out.iterdir()} if out and out.is_dir() else None
        return Outcome(rc, errors, files)

    return call


def key_paths(table, prefix=""):
    """Each key path of a key table, a nested key by its dotted path, with its kind."""
    for key, entry in table.items():
        yield prefix + key, entry.kind
        if isinstance(entry.kind, dict):
            yield from key_paths(entry.kind, prefix + key + ".")


# The key table each command reads its config through; a sweep's cells read
# the scenario keys the grid does not.
TABLES = {"run": cli._SCENARIO, "validate": cli._VALIDATE,
          "sweep": {**cli._SWEEP, **{k: cli._SCENARIO[k] for k in cli._CELL_KEYS}}}


def _number(v):
    return type(v) in (int, float)


def _whole(v):
    return type(v) is int or type(v) is float and v.is_integer()


def _listed(accepts, least=0):
    return lambda v: type(v) is list and len(v) >= least and all(map(accepts, v))


# The JSON values each kind of key accepts, written apart from the kinds'
# own tests: a bool or a string is no number, a fraction no whole number,
# and a list that selects what runs must select something.  `dict` stands
# for a nested block.
ACCEPTS = {cli._REAL: _number, cli._WHOLE: _whole, cli._BOOL: lambda v: type(v) is bool,
           cli._STR: lambda v: type(v) is str, cli._MODE: lambda v: v in ("none", "sampled"),
           cli._VECTOR: _listed(_number), cli._MATRIX: _listed(_listed(_number), 1),
           cli._WHOLES: _listed(_whole, 1), cli._VECTORS: _listed(_listed(_number), 1),
           cli._DISCIPLINES: _listed(lambda v: v in ("ps", "fcfs"), 1),
           dict: lambda v: type(v) is dict}


def _scalars(v):
    """Every number, string, bool or null in a JSON value, at any depth."""
    if type(v) in (list, dict):
        for x in v.values() if type(v) is dict else v:
            yield from _scalars(x)
    else:
        yield v


def faults(table, cfg, prefix=""):
    """(key path, named) for each key of `cfg` the command must fail on:
    a value of the wrong kind or holding a number beyond float range, whose
    error must name the path (named), or one holding a NaN or an infinity."""
    for key, value in cfg.items():
        if key not in table:  # an unknown key: a hand case judges it
            continue
        path, kind = prefix + key, table[key].kind
        scalars = list(_scalars(value))
        if isinstance(kind, dict) and type(value) is dict:
            yield from faults(kind, value, path + ".")
        elif (not ACCEPTS[dict if isinstance(kind, dict) else kind](value)
              or any(type(x) is int and abs(x) > sys.float_info.max for x in scalars)):
            yield path, True
        elif any(type(x) is float and not math.isfinite(x) for x in scalars):
            yield path, False


def check_rules(command, cfg, outcome):
    """Assert the config surface's rules on the outcome of `command` on `cfg`:
    1. the exit code is 0, 2, 3 or 4;
    2. a value of the wrong kind is a fault, whose error line names its key
       path: exit 2, or, for a key each sweep cell reads, exit 0 with every
       row ERROR;
    3. so is a number beyond float range, alone or listed;
    4. so is a NaN or an infinity, though its error need not name the key;
    5. an exit 2 writes no output file."""
    rc, errors, files = outcome
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_UNATTAINABLE, EXIT_VALIDATION)
    assert rc != EXIT_CONFIG or not files
    found = list(faults(TABLES[command], cfg))
    if not found:
        return
    fatal = [f for f in found if command != "sweep" or f[0].split(".")[0] not in cli._CELL_KEYS]
    if fatal:
        assert rc == EXIT_CONFIG
    else:
        assert rc == EXIT_OK
        assert {tuple(row[3:]) for row in read_csv(files["sweep.csv"])[1]} == {("ERROR",) * 9}
    named = [path for path, named in fatal or found if named]
    assert not named or any(re.search(r"(?<![\w.])%s\b" % re.escape(path), line)
                            for path in named for line in errors), named


class TestRun:
    def test_demo(self, qnas):
        rc, _, files = qnas("run", DEMO_CONFIG)
        assert rc == EXIT_OK
        header, rows = read_csv(files["summary.csv"])
        row = dict(zip(header, rows[0]))
        assert row["inst_min"] == row["inst_max"] == "5"
        assert float(row["ratio"]) == pytest.approx(1.0)
        header, rows = read_csv(files["timeseries.csv"])
        assert header[0] == "step"
        assert len(rows) == 3
        # Per-step configuration columns: N_1..N_3 = 2,1,2.
        n_cols = [header.index("N_%d" % k) for k in (1, 2, 3)]
        assert [rows[0][i] for i in n_cols] == ["2", "1", "2"]

    def test_missing_key(self, qnas):
        rc, _, files = qnas("run", {"C": 2, "K": 3})
        assert rc == EXIT_CONFIG and not files

    def test_unknown_key(self, qnas):
        assert qnas("run", {"C": 2, "K": 3, "horizon": 5, "bogus": 1}).rc == EXIT_CONFIG

    def test_unattainable_sla(self, qnas):
        assert qnas("run", dict(DEMO, sla={"max_response": [1.0, 5.0]})).rc == EXIT_UNATTAINABLE

    def test_overloaded_step(self, qnas):
        # A capacity floor past 2**53 cannot be lifted above in float64, so
        # the step's second observation is still overloaded.
        rc, errors, files = qnas("run", {"C": 1, "K": 2, "horizon": 2, "demands": [[1.0, 0.5]],
                                         "workload": {"base_rates": [1e16]}})
        assert rc == EXIT_UNATTAINABLE and not files
        assert len(errors) == 1 and "step 0: overloaded station" in errors[0]

    def test_overloaded_past_int64(self, qnas):
        # A capacity floor past 2**63 saturates the lifted counts instead of
        # casting garbage (and warning) on the way to the same stop.
        outcome = qnas("run", {"C": 3, "K": 4, "horizon": 3,
                               "workload": {"base_rates": [1e308, 1, 1]}})
        assert outcome.rc == EXIT_UNATTAINABLE
        assert outcome.errors == ["run stopped: step 0: overloaded station(s): [0, 1, 2, 3]"]

    @pytest.mark.parametrize("name", sorted(BAD_RUN_VALUES))
    def test_out_of_range_values(self, qnas, name):
        cfg = bad_scenario(name)
        outcome = qnas("run", cfg)
        check_rules("run", cfg, outcome)
        assert outcome.rc == EXIT_CONFIG
        log = "\n".join(outcome.errors)
        assert ERROR_KEY_PATHS.get(name, "") in log
        assert ERROR_FIELDS.get(name, "") in log

    def test_idempotent_outputs(self, qnas):
        first, second = qnas("run", DEMO_CONFIG), qnas("run", DEMO_CONFIG)
        assert first.rc == second.rc == EXIT_OK
        assert sorted(first.files) == ["summary.csv", "timeseries.csv"]
        assert first.files == second.files

    def test_outputs_follow_umask(self, qnas, tmp_path):
        old = os.umask(0o022)
        try:
            assert qnas("run", DEMO_CONFIG, out=tmp_path).rc == EXIT_OK
        finally:
            os.umask(old)
        assert sorted(os.listdir(tmp_path)) == ["summary.csv", "timeseries.csv"]
        for name in ("summary.csv", "timeseries.csv"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o644

    def test_summary_line(self, qnas, capsys):
        assert qnas("run", DEMO_CONFIG, quiet=False).rc == EXIT_OK
        assert capsys.readouterr().out == "C=2 K=3 total=15 static=15 ratio=1.000\n"

    def test_env_output_dir(self, qnas, tmp_path, monkeypatch):
        monkeypatch.setenv("QNAS_OUT", str(tmp_path))
        assert qnas("run", DEMO_CONFIG, out=False).rc == EXIT_OK
        assert (tmp_path / "summary.csv").exists()

    def test_noise_without_mode(self, qnas):
        # A relative_sd with no mode would run noise-free; it must say so.
        rc, errors, files = qnas("run", dict(DEMO, noise={"relative_sd": 0.05, "seed": 1}))
        assert rc == EXIT_CONFIG and not files
        assert any('"mode": "sampled"' in line for line in errors)

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


def test_fresh_interpreter_exit_code(tmp_path):
    # In a fresh interpreter, `python -m qnas.cli` exits with main()'s code.
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    proc = subprocess.run([sys.executable, "-m", "qnas.cli", "sweep", "--config", str(path),
                           "--out", str(tmp_path / "out"), "--quiet"], env=src_env(),
                          capture_output=True, text=True, check=False)
    assert proc.returncode == EXIT_CONFIG
    assert "config must be an object" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_write_csv_failed_rename(tmp_path, monkeypatch):
    # A write that fails re-raises, and leaves neither its temp file nor the target.
    def fail(src, dst):
        raise OSError("rename failed")
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        cli.write_csv(str(tmp_path / "out.csv"), "meta", ["a"], [[1]])
    assert os.listdir(tmp_path) == []


# A small config each command runs.
SMALL = {"run": {"C": 3, "K": 4, "horizon": 3},
         "sweep": {"C_values": [3], "K_values": [4], "horizon": 3},
         "validate": dict(VALIDATE_DEMO, run_length=2000)}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("via", ["--out", "out_dir"], ids=["flag", "out_dir"])
@pytest.mark.parametrize("below", ["", "sub"], ids=["at-file", "below-file"])
def test_unwritable_output(qnas, tmp_path, command, via, below):
    # An output directory that is a file, or lies below one, is a config
    # error that names it, not an OSError traceback.
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / below
    if via == "out_dir":
        outcome = qnas(command, dict(SMALL[command], out_dir=str(out)), out=False)
    else:
        outcome = qnas(command, SMALL[command], out=out)
    assert outcome.rc == EXIT_CONFIG
    assert any(line.startswith("cannot write output") and str(out) in line
               for line in outcome.errors)


# Config files every command rejects as a config error before it runs.
BAD_CONFIG_FILES = {"list-root": ("[1, 2]", "config must be an object"),
                    "string-root": ('"x"', "config must be an object"),
                    "invalid-json": ("{", "invalid JSON"),
                    "deep-nesting": ("[" * 100000 + "]" * 100000, "invalid JSON"),
                    "unreadable": (None, "cannot read config")}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", sorted(BAD_CONFIG_FILES))
@pytest.mark.parametrize("seed", [[], ["--seed", "3"]])
def test_bad_config_file(qnas, tmp_path, command, name, seed):
    text, message = BAD_CONFIG_FILES[name]
    path = tmp_path / "bad.json"
    if text is not None:
        path.write_text(text)
    rc, errors, files = qnas(command, str(path), *seed)
    assert rc == EXIT_CONFIG
    assert any(message in line for line in errors)
    assert files is None


@pytest.mark.parametrize("command", COMMANDS)
def test_seed_flag_sets_master_seed(qnas, command):
    # --seed 7 runs as master_seed 7 would, with the same exit code and
    # output bytes; a sweep runs seed 7 alone, in place of its listed seeds.
    cfg, seeded = {
        "run": ({"C": 3, "K": 4, "horizon": 4, "master_seed": 5}, {"master_seed": 7}),
        "sweep": ({"C_values": [2], "K_values": [3], "horizon": 3, "seeds": [1, 2]},
                  {"seeds": [7]}),
        "validate": (dict(VALIDATE_DEMO, run_length=2000), {"master_seed": 7}),
    }[command]
    flagged, written = qnas(command, cfg, "--seed", "7"), qnas(command, dict(cfg, **seeded))
    assert (flagged.rc, flagged.files) == (written.rc, written.files)


def test_imports_without_scipy():
    # numpy is the only runtime dependency: a fresh interpreter that loads
    # the CLI and the simulation kit has loaded no scipy module.
    code = ("import qnas.cli, qnas.simkit, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_readme_lists_config_keys():
    # README's CLI section lists each command's keys, nested ones by path;
    # each list must be exactly the command's key table.
    with open(os.path.join(REPO, "README.md")) as fh:
        section = fh.read().split("\n## CLI\n")[1].split("\n## ")[0]
    listed = {command: set(re.findall(r"`([^`]+)`", body)) for command, body
              in re.findall(r"^- (\w+): (.*?)(?=\n- |\n\n)", section, re.M | re.S)}
    assert listed == {command: {path for path, _ in key_paths(table)} for command, table
                      in (("run", cli._SCENARIO), ("sweep", cli._SWEEP),
                          ("validate", cli._VALIDATE))}


# What every key is set to in turn: the edges of the int64 and float ranges,
# an integer beyond float range, NaN, the infinities and one value of each
# other JSON kind.  No size near 1e9: it may be allocated lazily and then
# run for hours, so the cases run in this process with no limit or alarm.
POOL = [0, -1, 0.5, 1e308, -1e308, 1e-308, 2 ** 62, 2 ** 63, 2 ** 64, HUGE, 1e15, 1e19,
        NAN, INF, -INF, "1", True, None, [], {}]
# Each command's base config sets every key it reads to a valid value.
SURFACE_RUN = {"C": 3, "K": 4, "horizon": 3, "master_seed": 0, "poisson_arrivals": True,
               "window": 1.0, "demands": [[0.5] * 4] * 3, "sla": {"multiplier": 2.0},
               "workload": {"base_rates": [1.0] * 3, "amplitudes": [0.1] * 3, "periods": [3.0] * 3,
                            "phases": [0.0] * 3, "perturbation_sd": 0.1,
                            "perturbation_persistence": 0.5},
               "noise": {"mode": "sampled", "relative_sd": 0.05, "seed": 1},
               "initial_config": [1, 1, 1, 1]}
SURFACE_BASES = {"run": SURFACE_RUN, "validate": SMALL["validate"],
                 "sweep": {**{k: v for k, v in SURFACE_RUN.items() if k not in ("C", "K")},
                           "C_values": [3], "K_values": [4], "seeds": [0]}}


def surface_cases(command, base):
    """(label, flags, config, the config as judged) for each pool value put
    into each key path of the command: as its whole value, and for a listed
    key also as its first entry (of the first row, for a list of lists).
    Each integer of the pool also goes in as --seed."""
    for path, _ in key_paths(TABLES[command]):
        *outer, key = path.split(".")
        for value, whole in itertools.product(POOL, (True, False)):
            cfg = copy.deepcopy(base)
            if path == "sla.max_response":  # setting it with sla.multiplier is a fault of its own
                cfg["sla"] = {key: [50.0] * 3}
            block = functools.reduce(dict.__getitem__, outer, cfg)
            listed = block.get(key)
            if whole:
                block[key] = value
            elif type(listed) is list:
                (listed[0] if type(listed[0]) is list else listed)[0] = value
            else:
                continue
            label = "%s%s=%.20r" % (path, "" if whole else "[0]", value)
            yield label, [], cfg, cfg
    for value in POOL:
        if type(value) is int:
            yield "--seed=%.20r" % value, ["--seed=%d" % value], base, dict(base, master_seed=value)


@pytest.mark.parametrize("command", COMMANDS)
def test_config_surface(qnas, tmp_path, command):
    # Every key of the command's key table, set in turn to each pool value,
    # meets check_rules' five rules.
    base = dict(SURFACE_BASES[command], out_dir=str(tmp_path / "out_dir"))
    # The base runs; validate's short run misses its 5% gate.
    assert qnas(command, base).rc == (EXIT_VALIDATION if command == "validate" else EXIT_OK)
    broken = []
    for label, flags, cfg, judged in surface_cases(command, base):
        try:
            check_rules(command, judged, qnas(command, cfg, *flags))
        except Exception as exc:  # every case is judged, then all are reported
            broken.append("%s: %s: %.300s" % (label, type(exc).__name__, exc))
    assert not broken, "\n".join(broken)


# A list that selects nothing would run nothing: each is a config error
# that names its key.
EMPTY_GRID_LISTS = [{"C_values": []}, {"K_values": []}, {"seeds": []}]
EMPTY_VALIDATE_LISTS = [{"targets": []}, {"disciplines": []}]
# So is a validate selection listed twice, which would run twice with one
# seed; a whole-valued float repeats the whole number.
REPEATED_VALIDATE_LISTS = [{"targets": [[2, 1, 2], [2.0, 1, 2]]}, {"disciplines": ["ps", "ps"]}]


class TestSweep:
    def test_degenerate_grid_matches_run(self, qnas):
        cfg = dict(DEMO, C_values=[2], K_values=[3], seeds=[0])
        del cfg["C"], cfg["K"]
        rc, _, files = qnas("sweep", cfg)
        assert rc == EXIT_OK
        header, rows = read_csv(files["sweep.csv"])
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["inst_min"] == row["inst_max"] == "5"

    def test_failing_cell_isolated(self, qnas):
        cfg = dict(DEMO, C_values=[2], K_values=[3], seeds=[0])
        del cfg["C"], cfg["K"]
        cfg["sla"] = {"max_response": [1.0, 5.0]}  # unattainable everywhere
        rc, _, files = qnas("sweep", cfg)
        assert rc == EXIT_OK
        assert "ERROR" in read_csv(files["sweep.csv"])[1][0]

    def test_unallocatable_cell_after_good_one(self, qnas, capsys):
        # A cell too large to allocate is an ERROR row; the sweep goes on,
        # keeps the good cell and, unless quiet, counts the failure.
        rc, _, files = qnas("sweep", {"C_values": [3, 10 ** 15], "K_values": [4], "horizon": 3,
                                      "seeds": [0]}, quiet=False)
        assert rc == EXIT_OK
        assert capsys.readouterr().out == "1 cell(s) failed\n"
        _, rows = read_csv(files["sweep.csv"])
        assert "ERROR" not in rows[0] and rows[1] == ["0", str(10 ** 15), "4"] + ["ERROR"] * 9

    @pytest.mark.parametrize("name", sorted(BAD_SCENARIO_VALUES))
    def test_out_of_range_cell(self, qnas, name):
        cfg = bad_scenario(name)
        C, K = cfg.pop("C"), cfg.pop("K")
        cfg.update(C_values=[C], K_values=[K], seeds=[0])
        outcome = qnas("sweep", cfg)
        check_rules("sweep", cfg, outcome)
        # A listed grid value beyond float range fails the sweep, as the
        # same value given alone as a scalar does.
        if name not in ("huge-C", "huge-K"):
            assert outcome.rc == EXIT_OK
            assert read_csv(outcome.files["sweep.csv"])[1] == [["0", str(C), str(K)] + ["ERROR"] * 9]

    @pytest.mark.parametrize("override", [
        {"C_values": ["x"]}, {"K_values": [None]}, {"seeds": ["x"]}, {"master_seed": "x"},
        {"C_values": [2.7]}, {"K_values": [3.5]}, {"seeds": [0.9]}, {"master_seed": 1.5},
        # Listed seeds leave master_seed unused, but it is checked all the same.
        {"seeds": [1], "master_seed": "x"}, {"seeds": [1], "master_seed": 1.5},
        {"C_values": [True]}, {"seeds": [True]}, {"master_seed": False},
        # Checked even though --out overrides it.
        {"out_dir": True}, *EMPTY_GRID_LISTS])
    def test_malformed_grid(self, qnas, override):
        cfg = {"C_values": [2], "K_values": [3], "horizon": 3, **override}
        outcome = qnas("sweep", cfg)
        check_rules("sweep", cfg, outcome)
        assert outcome.rc == EXIT_CONFIG

    def test_seed_flag_checks_listed_seeds(self, qnas):
        # --seed replaces the seeds to run, but a listed one is checked all
        # the same.
        rc, _, files = qnas("sweep", {"C_values": [2], "K_values": [3], "horizon": 3,
                                      "seeds": ["x"]}, "--seed", "3")
        assert rc == EXIT_CONFIG and not files

    def test_seeds_need_no_master_seed(self, qnas, caplog):
        # Listed seeds replace the master seed, so its default is not logged.
        caplog.set_level(logging.INFO)
        cfg = {"C_values": [2], "K_values": [3], "seeds": [1], "horizon": 2}
        assert qnas("sweep", cfg, quiet=False).rc == EXIT_OK
        assert "master_seed" not in caplog.text

    def test_notice_once_per_sweep(self, qnas, caplog):
        # Each cell reads the sla default, but its notice is logged once.
        caplog.set_level(logging.INFO)
        cfg = {"C_values": [2, 3], "K_values": [3], "seeds": [1, 2], "horizon": 2}
        assert qnas("sweep", cfg, quiet=False).rc == EXIT_OK
        assert caplog.text.count("sla.multiplier not set") == 1

    def test_whole_valued_floats(self, qnas):
        # 2.0 means 2: in a sweep and in a run, the grid, C, K, horizon, seeds
        # and noise seed written as floats give the same outputs as written
        # as integers.
        for command in ("sweep", "run"):
            outputs = []
            for num in (int, float):
                cfg = {"horizon": num(3), "master_seed": num(4),
                       "noise": {"mode": "sampled", "relative_sd": 0.05, "seed": num(5)}}
                if command == "sweep":
                    cfg.update(C_values=[num(2)], K_values=[num(3)], seeds=[num(1)])
                else:
                    cfg.update(C=num(2), K=num(3))
                rc, _, files = qnas(command, cfg)
                assert rc == EXIT_OK
                outputs.append(files)
            assert outputs[0] == outputs[1]

    def test_small_grid_rows(self, qnas):
        rc, _, files = qnas("sweep", {"C_values": [2, 3], "K_values": [3], "seeds": [1, 2],
                                      "horizon": 5, "master_seed": 0})
        assert rc == EXIT_OK
        assert len(read_csv(files["sweep.csv"])[1]) == 4


# sha256 of each CLI output file.  The scenario settings flow into these
# bytes: the default workload law, the Poisson window and the noise seeds.
POISSON_CONFIG = {"C": 3, "K": 4, "horizon": 10, "master_seed": 5,
                  "poisson_arrivals": True, "window": 20}
OUTPUT_DIGESTS = {
    "demo": ("run", DEMO_CONFIG, {
        "timeseries.csv": "3ccab015a32ac42a0f479d90a6c5af8e28a9dee4b26f4f2c9d7a9305dab7cb6d",
        "summary.csv": "fa82b12342c725ed663c5723861773a974e362a34c32bba49e9b4a8ec3e53304"}),
    # "mode": "none" switches noise off whatever relative_sd says.
    "demo-noise-none": ("run", dict(DEMO, noise={"mode": "none", "relative_sd": 0.5, "seed": 9}), {
        "timeseries.csv": "3ccab015a32ac42a0f479d90a6c5af8e28a9dee4b26f4f2c9d7a9305dab7cb6d",
        "summary.csv": "fa82b12342c725ed663c5723861773a974e362a34c32bba49e9b4a8ec3e53304"}),
    "poisson": ("run", POISSON_CONFIG, {
        "timeseries.csv": "1d10439a64d82f9a9853277ad58d56781cc4b0090872d549f4be37b020b7eb62",
        "summary.csv": "34ed4ad10e989ae289b84317d240144f7358e2fefa49fecdffeeeee93bec8e65"}),
    "noisy-sweep": ("sweep", NOISY_SWEEP_CONFIG, {
        "sweep.csv": "f9406ff07b7451795e4be391596521b0114f6364ba60e5159c496d88756e0a5b"}),
    # Two targets, each simulated under both disciplines, row order included.
    "validate": ("validate", dict(VALIDATE_DEMO, run_length=20000, targets=[[2, 1, 2], [3, 2, 3]],
                                  disciplines=["ps", "fcfs"]), {
        "validation.csv": "6e3bad20e5581a8313684f4046075b5c1ba1dcf15389d925cab88835a2ef1fd9"}),
}


@pytest.mark.parametrize("name", sorted(OUTPUT_DIGESTS))
def test_output_bytes_pinned(tmp_path, name):
    command, config, digests = OUTPUT_DIGESTS[name]
    if isinstance(config, dict):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        config = str(path)
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out), "--quiet"]) == EXIT_OK
    for filename, expected in digests.items():
        assert hashlib.sha256((out / filename).read_bytes()).hexdigest() == expected, filename


# Each is a config error that names its key; out_dir is checked even
# though --out overrides it.
VALIDATE_KEY_ERRORS = [{"rates": ["2.0", "1.0"]}, {"warmup_fraction": "0.2"}, {"out_dir": 5},
                       {"rates": [HUGE, 1.0]}, {"targets": [[HUGE, 1, 2]]},
                       {"batches": HUGE}, {"batches": 2 ** 63}]
# Too large to simulate: a config error that names the target, run_length and batches.
# Only sizes that fail at once: a total of some 1e7 to 1e12 instances may be
# allocated lazily and then simulated one instance at a time for hours.
TOO_LARGE_TO_SIMULATE = [{"targets": [[2 ** 62] * 3]}, {"targets": [[2 ** 40] * 3]},
                         {"run_length": 1e300},
                         # A batch grid too large to allocate, found before any draw;
                         # numpy's linspace fails on the second with an IndexError.
                         {"batches": 10 ** 15}, {"batches": 2 ** 63 - 1}]


class TestValidate:
    def test_demo_passes_gate(self, qnas):
        rc, _, files = qnas("validate", VALIDATE_CONFIG)
        assert rc == EXIT_OK
        header, rows = read_csv(files["validation.csv"])
        assert header[:2] == ["discipline", "target"]
        # 2 classes x 3 stations minus the skipped zero-demand cell.
        assert len(rows) == 5
        for row in rows:
            rel = float(dict(zip(header, row))["rel_error"])
            assert rel <= 0.05

    @pytest.mark.parametrize("override", [
        {"targets": [[1, 1, 1]]},
        # A feasible target first: it is not simulated either.
        {"targets": [[2, 1, 2], [1, 1, 1]]},
        {"disciplines": ["ps", "bogus"]}], ids=["infeasible", "late-infeasible", "bogus-discipline"])
    def test_overloaded_target(self, qnas, monkeypatch, override):
        # Every target and discipline is checked, the targets by the
        # analytic prediction, before any simulation runs.
        monkeypatch.setattr(cli, "des_validate", lambda *a, **k: pytest.fail("simulated"))
        rc, errors, files = qnas("validate", dict(VALIDATE_DEMO, **override))
        assert rc == EXIT_CONFIG and not files
        key = "[1, 1, 1]" if "targets" in override else "disciplines"
        assert any(key in line for line in errors)

    def test_unmeasured_row_fails_gate(self, qnas):
        # Class 2 never arrives, so its residence is NaN.  Its PS rows fail
        # the gate, reported apart from the rows above 5%; its FCFS rows are
        # not gated.  validation.csv is still written.
        rc, errors, files = qnas("validate", dict(VALIDATE_DEMO, rates=[2.0, 0.0], run_length=20000,
                                                  disciplines=["ps", "fcfs"]))
        assert rc == EXIT_VALIDATION
        assert any("0 row(s) above 5%, 2 row(s) unmeasured" in line for line in errors)
        header, rows = read_csv(files["validation.csv"])
        unmeasured = [(row[0], row[3]) for row in rows
                      if dict(zip(header, row))["simulated_R"] == "nan"]
        assert unmeasured == [("ps", "2"), ("ps", "2"), ("fcfs", "2"), ("fcfs", "2")]

    @pytest.mark.parametrize("disciplines, code", [(["ps"], EXIT_VALIDATION), (["fcfs"], EXIT_OK)])
    def test_short_run_gate(self, qnas, disciplines, code):
        # At run length 500 some rows miss the analytic residence by more
        # than 5%: PS rows fail the gate (exit 4), FCFS rows, up to 36% off,
        # do not, as the gate is PS-only.  validation.csv is written either way.
        rc, _, files = qnas("validate", dict(VALIDATE_DEMO, run_length=500, master_seed=1,
                                             disciplines=disciplines))
        assert rc == code
        header, rows = read_csv(files["validation.csv"])
        errors = [float(dict(zip(header, row))["rel_error"]) for row in rows]
        assert {row[0] for row in rows} == set(disciplines)
        assert max(errors) > 0.05

    @pytest.mark.parametrize("override", [
        {"disciplines": ["lifo"]}, {"batches": 1}, {"warmup_fraction": 1.5},
        {"run_length": 0}, {"batches": "ten"}, {"disciplines": [["ps"]]},
        {"rates": ["fast", 1.0]}, {"targets": [["two", 1, 2]]},
        {"demands": [[0.5, 0.3], [0.5]]}, {"targets": [[2.9, 1, 2]]},
        {"ref_config": [1.5, 1, 1]}, {"batches": 10.5}, {"master_seed": 1.5},
        {"run_length": float("inf")}, {"demands": [[0.5, 0.25, 0.5], [0.5, False, 0.5]]},
        {"rates": [2.0, True]}, {"master_seed": True}, *VALIDATE_KEY_ERRORS,
        {"targets": [[2, 1]]}, *EMPTY_VALIDATE_LISTS, *REPEATED_VALIDATE_LISTS,
        # Finite values whose totals or floor overflow: a config error, with
        # no RuntimeWarning first.
        {"demands": [[1e308] * 3] * 2, "ref_config": [2, 2, 2]}, {"rates": [1e308, 1e308]},
        {"ref_config": [1e19, 1, 1]}, {"targets": [[1e19, 1, 2]]}, *TOO_LARGE_TO_SIMULATE])
    def test_malformed_config(self, qnas, override):
        cfg = {**VALIDATE_DEMO, "run_length": 100, **override}
        outcome = qnas("validate", cfg)
        check_rules("validate", cfg, outcome)
        assert outcome.rc == EXIT_CONFIG
        log = "\n".join(outcome.errors)
        if override.get("run_length") == float("inf"):
            # Written as Infinity in the JSON; numpy's Poisson draw used to
            # report it as "lam value too large".
            assert "run_length" in log
        if override in VALIDATE_KEY_ERRORS + EMPTY_VALIDATE_LISTS + REPEATED_VALIDATE_LISTS:
            assert next(iter(override)) in log
        if override in TOO_LARGE_TO_SIMULATE:
            targets = override.get("targets")
            assert ("target %s:" % targets[0] if targets else "run_length") in log

    def test_mm1_closed_form(self, qnas):
        rc, _, files = qnas("validate", {"rates": [0.5], "demands": [[1.0]], "ref_config": [1],
                                         "targets": [[1]], "disciplines": ["ps"],
                                         "run_length": 160000, "master_seed": 2})
        assert rc == EXIT_OK
        header, rows = read_csv(files["validation.csv"])
        row = dict(zip(header, rows[0]))
        assert float(row["analytic_R"]) == pytest.approx(2.0)
        assert float(row["rel_error"]) <= 0.05
