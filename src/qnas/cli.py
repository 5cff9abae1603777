"""Command-line surface: `run` executes one scenario and writes per-step
and summary CSVs, `sweep` runs a grid of (C, K) cells, `validate`
cross-checks the analytic model against the discrete-event oracle.

Config files are JSON; unknown keys are rejected, missing optional keys
fall back to defaults with a logged notice.  Output files carry one
`#`-prefixed metadata line, then a standard header row; floats are printed
with 9 significant digits.  Writes are atomic (temp file + rename).
"""

import argparse
import json
import logging
import os
import sys
import tempfile

import numpy as np

from .errors import ConfigError, InfeasibleConfiguration, QnasError, UnattainableSla
from .model import Configuration, DemandMatrix, make_snapshot, predict_response, rescale_snapshot
from .planner import SlaThresholds
from .simkit import ScenarioSpec, des_validate, run_scenario, subseed
from .simkit.des import DISCIPLINES, PS
from .telemetry import NoiseSpec
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
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(rendered)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require(cfg, key, kind=None):
    if key not in cfg:
        raise ConfigError("missing required key %r" % key)
    value = cfg[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError("key %r has wrong type" % key)
    return value


def _check_keys(cfg, allowed, where):
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise ConfigError("unknown key(s) in %s: %s" % (where, sorted(unknown)))


def _defaulted(cfg, key, default):
    if key not in cfg:
        log.info("config: %s not set, defaulting to %r", key, default)
        return default
    return cfg[key]


_SCENARIO_KEYS = {
    "C", "K", "horizon", "window", "master_seed", "workload", "demands",
    "sla", "noise", "initial_config", "poisson_arrivals", "out_dir",
}
_WORKLOAD_KEYS = {
    "base_rate", "amplitude", "perturbation_sd", "perturbation_persistence",
    "base_rates", "amplitudes", "periods", "phases",
}
_SLA_KEYS = {"multiplier", "max_response"}
_NOISE_KEYS = {"mode", "relative_sd", "seed"}


def _vector(cfg, key, C, default=None):
    """A per-class vector from the config, required when no default."""
    value = _require(cfg, key) if default is None else _defaulted(cfg, key, [default] * C)
    v = np.asarray(value, dtype=float)
    if v.shape != (C,):
        raise ConfigError("%s must list %d values" % (key, C))
    return v


def _parse_workload(cfg, C, horizon):
    _check_keys(cfg, _WORKLOAD_KEYS, "workload")
    explicit = {"base_rates", "amplitudes", "periods", "phases"} & set(cfg)
    if explicit:
        return WorkloadLaw(_vector(cfg, "base_rates", C),
                           _vector(cfg, "amplitudes", C, 0.0),
                           _vector(cfg, "periods", C, float(horizon)),
                           _vector(cfg, "phases", C, 0.0),
                           float(cfg.get("perturbation_sd", 0.0)),
                           float(cfg.get("perturbation_persistence", 0.0)))
    return None  # harness builds the default law from scalar knobs


def _parse_scenario(cfg):
    """Build a ScenarioSpec; any out-of-range or malformed value is a
    ConfigError, raised before the scenario runs."""
    try:
        return ScenarioSpec(**_scenario_kwargs(cfg))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _scenario_kwargs(cfg):
    _check_keys(cfg, _SCENARIO_KEYS, "config")
    C = int(_require(cfg, "C", int))
    K = int(_require(cfg, "K", int))
    horizon = int(_require(cfg, "horizon", int))
    kwargs = dict(
        num_classes=C,
        num_stations=K,
        horizon=horizon,
        window=float(_defaulted(cfg, "window", 1.0)),
        master_seed=int(_defaulted(cfg, "master_seed", 0)),
        poisson_arrivals=bool(cfg.get("poisson_arrivals", False)),
    )
    wl_cfg = cfg.get("workload", {})
    law = _parse_workload(wl_cfg, C, horizon)
    if law is not None:
        kwargs["workload"] = law
    else:
        for key in ("base_rate", "amplitude", "perturbation_sd", "perturbation_persistence"):
            if key in wl_cfg:
                kwargs[key] = float(wl_cfg[key])
    if "demands" in cfg:
        demands = np.asarray(cfg["demands"], dtype=float)
        if demands.shape != (C, K):
            raise ConfigError("demands must be a %d x %d matrix" % (C, K))
        kwargs["demands"] = DemandMatrix(demands)
    sla_cfg = cfg.get("sla", {})
    _check_keys(sla_cfg, _SLA_KEYS, "sla")
    if "max_response" in sla_cfg:
        kwargs["sla"] = SlaThresholds(_vector(sla_cfg, "max_response", C))
    else:
        kwargs["sla_multiplier"] = float(_defaulted(sla_cfg, "multiplier", 2.0))
    noise_cfg = cfg.get("noise", {})
    _check_keys(noise_cfg, _NOISE_KEYS, "noise")
    relative_sd = float(noise_cfg.get("relative_sd", 0.0))
    if relative_sd > 0 and "mode" not in noise_cfg:
        raise ConfigError('noise: relative_sd > 0 needs "mode": "sampled" '
                          '(or "mode": "none" to switch noise off)')
    kwargs["noise"] = NoiseSpec(
        mode=noise_cfg.get("mode", "none"),
        relative_sd=relative_sd,
        seed=int(noise_cfg.get("seed", 0)),
    )
    if "initial_config" in cfg:
        init = np.asarray(cfg["initial_config"], dtype=int)
        if init.shape != (K,):
            raise ConfigError("initial_config must list %d counts" % K)
        kwargs["initial_config"] = Configuration(init)
    return kwargs


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("invalid JSON: %s" % exc) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg


def _out_dir(args, cfg):
    return args.out or cfg.get("out_dir") or os.environ.get("QNAS_OUT") or "."


SUMMARY_HEADER = ["C", "K", "acq_max", "acq_avg", "rel_max", "rel_avg",
                  "inst_min", "inst_max", "inst_total", "static_total", "ratio"]


def _summary_row(C, K, summary):
    return [C, K, summary.acquire_max, summary.acquire_avg,
            summary.release_max, summary.release_avg,
            summary.instances_min, summary.instances_max,
            summary.instances_total, summary.static_total,
            summary.dynamic_static_ratio]


def _write_run_outputs(record, out_dir):
    spec = record.spec
    C, K = spec.num_classes, spec.num_stations
    header = (["step"]
              + ["lambda_%d" % (c + 1) for c in range(C)]
              + ["R_%d" % (c + 1) for c in range(C)]
              + ["Rmax_%d" % (c + 1) for c in range(C)]
              + ["N_%d" % (k + 1) for k in range(K)]
              + ["total_instances", "acquire_iters", "release_iters"])
    rows = []
    for s in record.steps:
        rows.append([s.step]
                    + [float(v) for v in s.rates]
                    + [float(v) for v in s.predicted_response]
                    + [float(v) for v in s.thresholds]
                    + [int(v) for v in s.config_after.counts]
                    + [s.total_instances, s.acquire_iterations, s.release_iterations])
    meta = "C=%d K=%d horizon=%d seed=%d" % (C, K, spec.horizon, spec.master_seed)
    write_csv(os.path.join(out_dir, "timeseries.csv"), meta, header, rows)
    write_csv(os.path.join(out_dir, "summary.csv"), meta, SUMMARY_HEADER,
              [_summary_row(C, K, record.summary)])


def cmd_run(args):
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    spec = _parse_scenario(cfg)
    out_dir = _out_dir(args, cfg)
    try:
        record = run_scenario(spec)
    except UnattainableSla as exc:
        log.error("unattainable SLA: %s", exc)
        return EXIT_UNATTAINABLE
    _write_run_outputs(record, out_dir)
    if not args.quiet:
        s = record.summary
        print("C=%d K=%d total=%d static=%d ratio=%.3f"
              % (spec.num_classes, spec.num_stations,
                 s.instances_total, s.static_total, s.dynamic_static_ratio))
    return EXIT_OK


_SWEEP_KEYS = (_SCENARIO_KEYS - {"C", "K"}) | {"C_values", "K_values", "seeds"}


def cmd_sweep(args):
    cfg = _load_config(args.config)
    _check_keys(cfg, _SWEEP_KEYS, "sweep config")
    try:
        c_values = [int(v) for v in _require(cfg, "C_values", list)]
        k_values = [int(v) for v in _require(cfg, "K_values", list)]
        base_seed = args.seed if args.seed is not None else int(_defaulted(cfg, "master_seed", 0))
        seeds = [int(v) for v in cfg.get("seeds", [base_seed])]
    except (TypeError, ValueError) as exc:
        raise ConfigError("malformed value: %s" % exc) from exc
    out_dir = _out_dir(args, cfg)
    rows = []
    warnings = 0
    for C in c_values:
        for K in k_values:
            for seed in seeds:
                cell = {k: v for k, v in cfg.items()
                        if k not in ("C_values", "K_values", "seeds", "out_dir")}
                cell.update(C=C, K=K, master_seed=subseed(seed, "cell-%d-%d" % (C, K)))
                try:
                    record = run_scenario(_parse_scenario(cell))
                    rows.append([seed] + _summary_row(C, K, record.summary))
                except QnasError as exc:
                    warnings += 1
                    log.warning("cell C=%d K=%d seed=%d failed: %s", C, K, seed, exc)
                    rows.append([seed, C, K] + ["ERROR"] * (len(SUMMARY_HEADER) - 2))
    meta = "sweep C=%s K=%s seeds=%s" % (c_values, k_values, seeds)
    write_csv(os.path.join(out_dir, "sweep.csv"), meta, ["seed"] + SUMMARY_HEADER, rows)
    if warnings and not args.quiet:
        print("%d cell(s) failed" % warnings)
    return EXIT_OK


_VALIDATE_KEYS = {"rates", "demands", "ref_config", "targets", "disciplines",
                  "run_length", "warmup_fraction", "batches", "master_seed", "out_dir"}


def cmd_validate(args):
    cfg = _load_config(args.config)
    _check_keys(cfg, _VALIDATE_KEYS, "validate config")
    try:
        rates = np.asarray(_require(cfg, "rates", list), dtype=float)
        demands = np.asarray(_require(cfg, "demands", list), dtype=float)
        ref = np.asarray(_defaulted(cfg, "ref_config", [1] * demands.shape[1]), dtype=int)
        targets = [np.asarray(t, dtype=int) for t in _require(cfg, "targets", list)]
        run_length = float(_defaulted(cfg, "run_length", 1e4))
        warmup_fraction = float(cfg.get("warmup_fraction", 0.2))
        batches = int(cfg.get("batches", 10))
    except (IndexError, TypeError, ValueError) as exc:
        raise ConfigError("malformed value: %s" % exc) from exc
    disciplines = _defaulted(cfg, "disciplines", ["ps"])
    if not isinstance(disciplines, list) or not all(isinstance(d, str) for d in disciplines):
        raise ConfigError("disciplines must be a list of names")
    seed = args.seed if args.seed is not None else int(_defaulted(cfg, "master_seed", 0))
    out_dir = _out_dir(args, cfg)

    try:
        base = make_snapshot(ref, rates, demands)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    rows = []
    ps_failures = 0
    for target in targets:
        for disc in disciplines:
            try:
                result = des_validate(base, target, discipline=disc,
                                      run_length=run_length,
                                      warmup_fraction=warmup_fraction,
                                      batches=batches,
                                      seed=subseed(seed, "des-%s-%s" % (disc, target.tolist())))
            except InfeasibleConfiguration as exc:
                log.error("target %s: %s", target.tolist(), exc)
                return EXIT_CONFIG
            except ValueError as exc:  # DES settings out of range
                raise ConfigError(str(exc)) from exc
            snap = rescale_snapshot(base, target)
            rt = predict_response(snap, Configuration(target))
            for c in range(base.num_classes):
                for k in range(base.num_stations):
                    if base.demands_ref.demands[c, k] <= 0:
                        continue
                    # Analytic per-visit residence: N_k instances each hold
                    # residence R_ck, one visit carries the whole station term.
                    analytic = rt.per_class_station[c, k] * target[k]
                    simulated = result.residence[c, k]
                    rel = abs(simulated - analytic) / analytic
                    if DISCIPLINES[disc] == PS and rel > 0.05:
                        ps_failures += 1
                    rows.append([disc, "-".join(map(str, target.tolist())),
                                 k + 1, c + 1, float(analytic), float(simulated),
                                 float(rel), float(result.residence_hw[c, k]),
                                 float(result.utilization[k])])
    meta = "ref=%s run_length=%.9g seed=%d" % (ref.tolist(), run_length, seed)
    write_csv(os.path.join(out_dir, "validation.csv"), meta,
              ["discipline", "target", "station", "class", "analytic_R",
               "simulated_R", "rel_error", "ci_halfwidth", "utilization"],
              rows)
    if ps_failures:
        log.error("%d processor-sharing row(s) above the 5%% gate", ps_failures)
        return EXIT_VALIDATION
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="qnas", description=__doc__)
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("sweep", cmd_sweep), ("validate", cmd_validate)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--out", default=None, help="output directory (default $QNAS_OUT or .)")
        # SUPPRESS: unless given here, keep the value of the top-level flag.
        p.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO,
                        format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
