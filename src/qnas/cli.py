"""Command-line surface: `run` executes one scenario and writes per-step
and summary CSVs, `sweep` runs a grid of (C, K) cells, `validate`
cross-checks the analytic model against the discrete-event oracle.

Config files are JSON, read through one key table per command (`_Block`).
Output files carry one `#`-prefixed metadata line, then a standard header
row; floats are printed with 9 significant digits.  Writes are atomic
(temp file + rename).
"""

import argparse
import dataclasses
import json
import logging
import os
import sys
from collections import namedtuple

import numpy as np

from .errors import ConfigError, InfeasibleConfiguration, QnasError
from .model import Configuration, DemandMatrix, make_snapshot, predict_response
from .planner import SlaThresholds
from .simkit import ScenarioSpec, des_validate, run_scenario, subseed
from .simkit.des import DISCIPLINES, PS
from .telemetry import NO_NOISE, NoiseSpec
from .workload import WorkloadLaw

log = logging.getLogger("qnas")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNATTAINABLE = 3
EXIT_VALIDATION = 4


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return "%.9g" % x
    return str(x)


def write_csv(path, meta, header, rows):
    rendered = "# %s\n%s\n" % (meta, ",".join(header))
    rendered += "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    # The umask sets the mode (mkstemp's is 0600); "x" follows no planted link.
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "x") as fh:
            fh.write(rendered)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_REQUIRED = object()
# A value kind: `test` accepts a raw JSON value, `convert` types it.
_Kind = namedtuple("_Kind", "what test convert")
# A table entry.  A dict `kind` is the table of a nested block.  `default`
# is _REQUIRED, a value or a function of the values read so far; `notice`
# logs it when used.
_Key = namedtuple("_Key", "kind default notice", defaults=(_REQUIRED, False))


def _list_of(test, least=0, distinct=False):
    return lambda v: (isinstance(v, list) and len(v) >= least and all(map(test, v))
                      and not (distinct and any(x in v[:i] for i, x in enumerate(v))))


def _array(v):
    return np.array(v, dtype=float)


# JSON true/false and strings are never numbers, though int(), float() and
# numpy would convert them.  Whole-valued floats are whole, as in
# Configuration; a fraction, which int() would truncate, is not.  A whole
# number gets float()'s range check, but int() reads it: a seed is not rounded.
_REAL = _Kind("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), float)
_WHOLE = _Kind("a whole number",
               lambda v: _REAL.test(v) and (isinstance(v, int) or v.is_integer()),
               lambda v: (float(v), int(v))[1])
_BOOL = _Kind("true or false", lambda v: isinstance(v, bool), bool)
_STR = _Kind("a string", lambda v: isinstance(v, str), str)
_VECTOR = _Kind("a list of numbers", _list_of(_REAL.test), _array)
_MATRIX = _Kind("a list of equal-length lists of numbers",
                lambda v: _list_of(_VECTOR.test)(v) and len({len(row) for row in v}) == 1, _array)
# The lists that select what runs must select something, and validate's
# lists each thing once: a repeat would simulate it again with one seed.
_WHOLES = _Kind("a non-empty list of whole numbers", _list_of(_WHOLE.test, 1),
                lambda v: [*map(_WHOLE.convert, v)])
_VECTORS = _Kind("a non-empty list of distinct lists of numbers",
                 _list_of(_VECTOR.test, 1, True), lambda v: [*map(_array, v)])
_DISCIPLINES = _Kind("a non-empty list of distinct 'ps' or 'fcfs'",
                     _list_of(DISCIPLINES.__contains__, 1, True), list)
_MODE = _Kind("'none' or 'sampled'", lambda v: v in ("none", "sampled"), str)


class _Block:
    """The typed values of one JSON config object, read through its table.

    Building the block rejects unknown keys, missing required keys and
    values of the wrong kind, each as a ConfigError naming the key path, as
    is a number beyond float range.  Lengths and ranges are left to the
    model types the values build.  An absent key reads as its default,
    logging the table's notice once per `noticed` set (one per command);
    `key in block` tells whether the config gave the key.
    """

    def __init__(self, table, cfg, where="config", dims=None, prefix="", noticed=None):
        if not isinstance(cfg, dict):
            raise ConfigError("%s must be an object" % where)
        unknown = set(cfg) - set(table)
        if unknown:
            raise ConfigError("unknown key(s) in %s: %s" % (where, sorted(unknown)))
        self._table, self._prefix = table, prefix
        self._noticed = set() if noticed is None else noticed  # (path, default) logged
        self._dims = dict(dims or {})  # the values read so far, outer blocks' too
        self._given = {}
        for key, entry in table.items():
            path = prefix + key
            if key not in cfg:
                if entry.default is _REQUIRED:
                    raise ConfigError("missing required key %r" % path)
                continue
            if isinstance(entry.kind, dict):
                value = _Block(entry.kind, cfg[key], path, self._dims, path + ".", self._noticed)
            elif entry.kind.test(cfg[key]):
                try:
                    value = entry.kind.convert(cfg[key])
                except OverflowError:
                    raise ConfigError("%s holds a number beyond float range" % path) from None
            else:
                raise ConfigError("%s must be %s, got %r" % (path, entry.kind.what, cfg[key]))
            self._given[key] = self._dims[key] = value

    def __contains__(self, key):
        return key in self._given

    def __getitem__(self, key):
        if key in self._given:
            return self._given[key]
        entry, path = self._table[key], self._prefix + key
        if isinstance(entry.kind, dict):
            return _Block(entry.kind, entry.default, path, self._dims, path + ".", self._noticed)
        default = entry.default(self._dims) if callable(entry.default) else entry.default
        if entry.notice and (path, repr(default)) not in self._noticed:
            self._noticed.add((path, repr(default)))
            log.info("config: %s not set, defaulting to %r", path, default)
        return default


_WORKLOAD = {  # the fields of WorkloadLaw; a vector defaults to one value per base rate
    "base_rates": _Key(_VECTOR),
    "amplitudes": _Key(_VECTOR, lambda d: [0.0] * len(d["base_rates"]), True),
    "periods": _Key(_VECTOR, lambda d: [float(d["horizon"])] * len(d["base_rates"]), True),
    "phases": _Key(_VECTOR, lambda d: [0.0] * len(d["base_rates"]), True),
    "perturbation_sd": _Key(_REAL, 0.0),
    "perturbation_persistence": _Key(_REAL, 0.0),
}
_SCENARIO = {
    "C": _Key(_WHOLE),
    "K": _Key(_WHOLE),
    "horizon": _Key(_WHOLE),
    "master_seed": _Key(_WHOLE, 0, True),
    "poisson_arrivals": _Key(_BOOL, False),
    "window": _Key(_REAL, 1.0, True),
    "workload": _Key(_WORKLOAD, {}),
    "demands": _Key(_MATRIX, None),
    "sla": _Key({"multiplier": _Key(_REAL, 2.0, True),
                 "max_response": _Key(_VECTOR, None)}, {}),
    "noise": _Key({"mode": _Key(_MODE, "none"),
                   "relative_sd": _Key(_REAL, 0.0),
                   "seed": _Key(_WHOLE, 0)}, {}),
    "initial_config": _Key(_VECTOR, None),
    "out_dir": _Key(_STR, None),
}
# A sweep reads these once, and a bad one fails the sweep.  Its other keys
# are scenario keys but C and K: each cell reads them, and fails on a bad one.
_SWEEP = {
    "C_values": _Key(_WHOLES),
    "K_values": _Key(_WHOLES),
    "seeds": _Key(_WHOLES, None),
    "master_seed": _Key(_WHOLE, 0, True),
    "out_dir": _Key(_STR, None),
}
_CELL_KEYS = set(_SCENARIO) - {"C", "K"} - set(_SWEEP)
_VALIDATE = {
    "rates": _Key(_VECTOR),
    "demands": _Key(_MATRIX),
    "ref_config": _Key(_VECTOR, lambda d: [1] * d["demands"].shape[1], True),
    "targets": _Key(_VECTORS),
    "disciplines": _Key(_DISCIPLINES, ["ps"], True),
    "run_length": _Key(_REAL, 1e4, True),
    "warmup_fraction": _Key(_REAL, 0.2),
    "batches": _Key(_WHOLE, 10),
    "master_seed": _Key(_WHOLE, 0, True),
    "out_dir": _Key(_STR, None),
}


def _parse_scenario(v):
    """Build a ScenarioSpec from a scenario block; the model types raise
    ValueError on an out-of-range value."""
    poisson, sla, noise = v["poisson_arrivals"], v["sla"], v["noise"]
    if "window" in v and not poisson:
        raise ConfigError('window needs "poisson_arrivals": true')
    if "max_response" in sla and "multiplier" in sla:
        raise ConfigError("sla.max_response and sla.multiplier cannot both be set")
    if noise["relative_sd"] > 0 and "mode" not in noise:
        raise ConfigError('noise: relative_sd > 0 needs "mode": "sampled" '
                          '(or "mode": "none" to switch noise off)')
    kwargs = dict(master_seed=v["master_seed"], poisson_window=v["window"] if poisson else None)
    if "workload" in v:
        kwargs["workload"] = WorkloadLaw(**{k: v["workload"][k] for k in _WORKLOAD})
    if "demands" in v:
        kwargs["demands"] = DemandMatrix(v["demands"])
    if "max_response" in sla:
        kwargs["sla"] = SlaThresholds(sla["max_response"])
    else:
        kwargs["sla_multiplier"] = sla["multiplier"]
    # Built before "none" switches it off, so its values are checked either way.
    sampled = NoiseSpec(noise["relative_sd"], noise["seed"])
    kwargs["noise"] = sampled if noise["mode"] == "sampled" else NO_NOISE
    if "initial_config" in v:
        kwargs["initial_config"] = Configuration(v["initial_config"])
    return ScenarioSpec(v["C"], v["K"], v["horizon"], **kwargs)


def _load_config(args):
    """The config object of --config, with --seed, if given, as its
    master_seed."""
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc) from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError("invalid JSON: %s" % exc) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be an object")
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    return cfg


def _out_dir(args, v):
    return args.out or v["out_dir"] or os.environ.get("QNAS_OUT") or "."


SUMMARY_HEADER = ["C", "K", "acq_max", "acq_avg", "rel_max", "rel_avg",
                  "inst_min", "inst_max", "inst_total", "static_total", "ratio"]


def _summary_row(C, K, summary):
    return [C, K, *dataclasses.astuple(summary)]


def _write_run_outputs(record, out_dir):
    spec = record.spec
    C, K = spec.num_classes, spec.num_stations
    header = (["step"]
              + ["lambda_%d" % (c + 1) for c in range(C)]
              + ["R_%d" % (c + 1) for c in range(C)]
              + ["Rmax_%d" % (c + 1) for c in range(C)]
              + ["N_%d" % (k + 1) for k in range(K)]
              + ["total_instances", "acquire_iters", "release_iters"])
    rmax = record.thresholds.max_response.tolist()
    per_step = zip(record.rates.tolist(), record.predicted_response.tolist(),
                  record.counts.tolist(), record.acquire_iterations.tolist(),
                  record.release_iterations.tolist())
    rows = [[t, *lam, *resp, *rmax, *n, sum(n), acq, rel]
            for t, (lam, resp, n, acq, rel) in enumerate(per_step)]
    meta = "C=%d K=%d horizon=%d seed=%d" % (C, K, spec.horizon, spec.master_seed)
    write_csv(os.path.join(out_dir, "timeseries.csv"), meta, header, rows)
    write_csv(os.path.join(out_dir, "summary.csv"), meta, SUMMARY_HEADER,
              [_summary_row(C, K, record.summary)])


def cmd_run(args):
    v = _Block(_SCENARIO, _load_config(args))
    spec = _parse_scenario(v)
    out_dir = _out_dir(args, v)
    record = run_scenario(spec)
    _write_run_outputs(record, out_dir)
    if not args.quiet:
        s = record.summary
        print("C=%d K=%d total=%d static=%d ratio=%.3f"
              % (spec.num_classes, spec.num_stations,
                 s.instances_total, s.static_total, s.dynamic_static_ratio))
    return EXIT_OK


def cmd_sweep(args):
    cfg = _load_config(args)
    grid = _Block(_SWEEP, {k: v for k, v in cfg.items() if k not in _CELL_KEYS}, "sweep config")
    c_values, k_values = grid["C_values"], grid["K_values"]
    # --seed runs its one seed; listed seeds are still checked.
    seeds = grid["seeds"] if "seeds" in grid and args.seed is None else [grid["master_seed"]]
    out_dir = _out_dir(args, grid)
    shared = {k: v for k, v in cfg.items() if k in _CELL_KEYS}
    noticed = set()  # so each default's notice is logged once, not once per cell
    rows = []
    warnings = 0
    for C in c_values:
        for K in k_values:
            for seed in seeds:
                cell = dict(shared, C=C, K=K, master_seed=subseed(seed, "cell-%d-%d" % (C, K)))
                try:
                    record = run_scenario(_parse_scenario(_Block(_SCENARIO, cell, noticed=noticed)))
                    rows.append([seed] + _summary_row(C, K, record.summary))
                except (QnasError, ValueError) as exc:
                    warnings += 1
                    log.warning("cell C=%d K=%d seed=%d failed: %s", C, K, seed, exc)
                    rows.append([seed, C, K] + ["ERROR"] * (len(SUMMARY_HEADER) - 2))
    meta = "sweep C=%s K=%s seeds=%s" % (c_values, k_values, seeds)
    write_csv(os.path.join(out_dir, "sweep.csv"), meta, ["seed"] + SUMMARY_HEADER, rows)
    if warnings and not args.quiet:
        print("%d cell(s) failed" % warnings)
    return EXIT_OK


def cmd_validate(args):
    v = _Block(_VALIDATE, _load_config(args), "validate config")
    seed = v["master_seed"]
    ref = Configuration(v["ref_config"])
    targets = [Configuration(t) for t in v["targets"]]
    # Totals or a floor that overflow are make_snapshot's config error, not
    # numpy's warning first.
    with np.errstate(over="ignore", invalid="ignore"):
        base = make_snapshot(ref, v["rates"], v["demands"])
    # Check: every target is predicted before the first simulation, and the
    # prediction is its length and feasibility check.
    predicted = []
    for target in targets:
        try:
            predicted.append(predict_response(base, target))
        except (ValueError, InfeasibleConfiguration) as exc:
            raise ConfigError("target %s: %s" % (target.counts.tolist(), exc)) from exc

    # Simulate each (target, discipline) pair.  des_validate checks its
    # settings before it simulates, so a bad one fails the first call.
    runs = [(t, p, disc) for t, p in zip(targets, predicted) for disc in v["disciplines"]]
    results = [des_validate(base, t, discipline=disc, run_length=v["run_length"],
                            warmup_fraction=v["warmup_fraction"], batches=v["batches"],
                            seed=subseed(seed, "des-%s-%s" % (disc, t.counts.tolist())))
               for t, _, disc in runs]

    # Judge the cells some class uses, class-major.  Analytic per-visit
    # residence: N_k instances each hold residence R_ck, one visit carries
    # the whole station term.
    c, k = np.argwhere(base.total_demands() > 0).T
    analytic = np.array([(p.per_class_station * t.counts)[c, k] for t, p, _ in runs])
    simulated = np.array([r.residence[c, k] for r in results])
    rel = np.abs(simulated - analytic) / analytic
    rows = [[disc, "-".join(map(str, t.counts.tolist())), *row]
            for (t, _, disc), r, a, s, e in zip(runs, results, analytic, simulated, rel)
            for row in zip((k + 1).tolist(), (c + 1).tolist(), a.tolist(), s.tolist(),
                           e.tolist(), r.residence_hw[c, k].tolist(), r.utilization[k].tolist())]
    meta = "ref=%s run_length=%.9g seed=%d" % (ref.counts.tolist(), v["run_length"], seed)
    write_csv(os.path.join(_out_dir(args, v), "validation.csv"), meta,
              ["discipline", "target", "station", "class", "analytic_R",
               "simulated_R", "rel_error", "ci_halfwidth", "utilization"],
              rows)
    # A processor-sharing row passes only within 5%; a NaN, a cell the run
    # could not measure, does not.
    gated = rel[[disc == PS for _, _, disc in runs]]
    above, unmeasured = np.count_nonzero(gated > 0.05), np.count_nonzero(np.isnan(gated))
    if above or unmeasured:
        log.error("processor-sharing gate failed: %d row(s) above 5%%, %d row(s) unmeasured",
                  above, unmeasured)
        return EXIT_VALIDATION
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="qnas", description=__doc__)
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("sweep", cmd_sweep), ("validate", cmd_validate)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="run with master seed SEED; a sweep runs SEED alone")
        p.add_argument("--out", default=None, help="output directory (default $QNAS_OUT or .)")
        # SUPPRESS: unless given here, keep the value of the top-level flag.
        p.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO,
                        format="%(levelname)s %(message)s")
    # A model type or an input generator raises ValueError on a bad value.
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except QnasError as exc:
        # The loop stopped: unattainable, overloaded, infeasible or capped.
        log.error("run stopped: %s", exc)
        return EXIT_UNATTAINABLE
    except OSError as exc:
        # Reading the config is a ConfigError, so this is an output write.
        log.error("cannot write output: %s", exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
