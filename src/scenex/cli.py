"""Command line interface: simulate, enumerate, analyze, synth-scene.

All subcommands are batch operations driven by files; outputs are CSV
tables meant for external plotting. Exit codes: 0 success, 1 validation,
2 I/O, 3 simulation failure (all children failed).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

import yaml

from . import analysis, metrics, scene_io, simulator
from .behavior import load_roster
from .errors import ConfigError, ScenexError
from .map_model import load_map, save_map

RUN_FORMAT = "scenex-run"
RUN_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_SIMULATION = 3


@dataclass
class RunConfig:
    roster: str
    output_dir: str
    map: str | None = None
    tracks: dict | None = None
    synth: dict | None = None
    n_runs: int = simulator.DEFAULT_N_RUNS
    replan_interval: int = simulator.SimConfig.replan_interval
    horizon_steps: int = simulator.SimConfig.horizon_steps
    rng_seed: int = simulator.SimConfig.rng_seed
    history_len: int = simulator.SimConfig.history_len
    pttc_decel: float = metrics.DEFAULT_PTTC_DECEL
    wttc_accel: float = metrics.DEFAULT_WTTC_ACCEL
    route_horizon: float = simulator.SimConfig.route_horizon
    enumeration_cap: int = simulator.DEFAULT_ENUMERATION_CAP

    def sim_config(self) -> simulator.SimConfig:
        """The simulator's settings, copied field by field from this config."""
        copied = {f.name: getattr(self, f.name) for f in fields(simulator.SimConfig)}
        try:
            return simulator.SimConfig(**copied)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_positive_number(value) -> bool:
    """A number > 0 that is finite as a float (nan fails every comparison)."""
    number = _is_int(value) or isinstance(value, float)
    return number and 0 < value <= sys.float_info.max


# field annotation -> (accepts a value, what the field must be)
_FIELD_RULES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string"),
    "dict | None": (lambda v: v is None or isinstance(v, dict), "a mapping"),
    "int": (_is_int, "an integer"),
    "float": (_is_positive_number, "a finite number > 0"),
}
# mapping field of RunConfig -> (its keys' annotations, its required keys)
_NESTED_FIELDS = {
    "tracks": ({"path": "str", "case_id": "int", "current_index": "int"}, ("path",)),
    "synth": ({"template": "str", "params": "dict | None"}, ("template",)),
}


def _check_fields(path, payload, annotations, required, prefix=""):
    """Raise ConfigError naming the first unknown, missing or mistyped field."""
    unknown = [f"{prefix}{k}" for k in payload if k not in annotations]
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {sorted(unknown)}")
    for name in required:
        if name not in payload:
            raise ConfigError(f"{path}: missing required field {prefix + name!r}")
    for name, annotation in annotations.items():
        if name in payload:
            accepts, what = _FIELD_RULES[annotation]
            value = payload[name]
            if not accepts(value):
                raise ConfigError(
                    f"{path}: field {prefix + name!r} must be {what}, got {value!r}")


def load_run_config(path) -> RunConfig:
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping at top level")
    if doc.get("format") != RUN_FORMAT:
        raise ConfigError(f"{path}: field 'format' must be {RUN_FORMAT!r}")
    if doc.get("version") != RUN_VERSION:
        raise ConfigError(f"{path}: unsupported config version {doc.get('version')!r}")
    payload = {k: v for k, v in doc.items() if k not in ("format", "version")}
    _check_fields(path, payload, {f.name: f.type for f in fields(RunConfig)},
                  ("roster", "output_dir"))
    for name, (annotations, required) in _NESTED_FIELDS.items():
        if payload.get(name) is not None:
            _check_fields(path, payload[name], annotations, required, f"{name}.")
    cfg = RunConfig(**payload)
    if (cfg.tracks is None) == (cfg.synth is None):
        raise ConfigError(
            f"{path}: exactly one of 'tracks' and 'synth' must be present"
        )
    if cfg.tracks is not None and cfg.map is None:
        raise ConfigError(f"{path}: field 'map' is required with a tracks source")
    if cfg.n_runs < 1:
        raise ConfigError(f"{path}: n_runs must be >= 1")
    return cfg


def _build_scene(cfg: RunConfig):
    """Returns (map_graph, seed_scene, recorded_case_frames_or_None)."""
    if cfg.synth is not None:
        graph, seed = scene_io.synth_scene(
            cfg.synth["template"],
            dict(cfg.synth.get("params") or {}, history_len=cfg.history_len),
        )
        return graph, seed, None
    graph = load_map(cfg.map)
    tr = cfg.tracks
    dataset = scene_io.load_tracks(tr["path"])
    case_id = tr.get("case_id", dataset.cases[0].case_id)
    try:
        case = dataset.case(case_id)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    current = tr.get("current_index", cfg.history_len - 1)
    seed = scene_io.extract_seed(case, current, cfg.history_len, map_graph=graph)
    return graph, seed, case.frames


def _metric_rows(engine, batch):
    rows = []
    for child in batch.children:
        if child.ok:
            rows.append((child.index, child.assignment.run_seed,
                         engine.aggregate(child.log)))
    return rows


def _write_outputs(cfg, batch, engine, seed, recorded, mode):
    out = cfg.output_dir
    logs_dir = os.path.join(out, "logs")
    os.makedirs(logs_dir, exist_ok=True)
    children = []
    for child in batch.children:
        entry = {
            "index": child.index,
            "origin": list(child.assignment.origin),
            "assignment": {str(t): k for t, k in child.assignment.kinds().items()},
            "status": "ok" if child.ok else "failed",
        }
        if child.ok:
            rel = os.path.join("logs", f"child_{child.index:05d}.csv")
            scene_io.write_log(child.log, os.path.join(out, rel))
            entry["log"] = rel
        else:
            entry.update(error=child.error, track_id=child.track_id, step=child.step,
                         model_kind=child.model_kind, error_class=child.error_class)
        children.append(entry)
    metrics.write_metric_table(os.path.join(out, "metrics.csv"),
                               _metric_rows(engine, batch),
                               metrics=engine.metric_names)
    gt_written = False
    if recorded is not None:
        try:
            vector = analysis.ground_truth_overlay(seed, recorded,
                                                   cfg.sim_config(), engine)
            metrics.write_metric_table(os.path.join(out, "ground_truth.csv"),
                                       [(-1, cfg.rng_seed, vector)],
                                       metrics=engine.metric_names)
            gt_written = True
        except ValueError as exc:
            print(f"warning: no ground-truth overlay: {exc}", file=sys.stderr)
    manifest = {
        "schema": "scenex-manifest/1",
        "mode": mode,
        "config": asdict(cfg),
        "children": children,
        "n_children": len(children),
        "n_failed": batch.n_failed,
        "ground_truth": gt_written,
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_simulation(args, mode) -> int:
    cfg = load_run_config(args.config)
    if args.n_runs is not None:
        cfg.n_runs = args.n_runs
    if args.rng_seed is not None:
        cfg.rng_seed = args.rng_seed
    if args.output_dir is not None:
        cfg.output_dir = args.output_dir
    sim_cfg = cfg.sim_config()
    graph, seed, recorded = _build_scene(cfg)
    roster = load_roster(cfg.roster)
    engine = metrics.MetricEngine(
        graph, pttc_decel=cfg.pttc_decel, wttc_accel=cfg.wttc_accel,
        route_horizon=cfg.route_horizon,
    )
    if mode == "enumerate":
        batch = simulator.run_enumerated(seed, roster, sim_cfg, recorded=recorded,
                                         jobs=args.jobs, cap=cfg.enumeration_cap)
    else:
        batch = simulator.run_batch(seed, roster, cfg.n_runs, sim_cfg,
                                    recorded=recorded, jobs=args.jobs)
    _write_outputs(cfg, batch, engine, seed, recorded, mode)
    if not batch.logs:
        print("error: all children failed", file=sys.stderr)
        return EXIT_SIMULATION
    if batch.n_failed:
        print(f"warning: {batch.n_failed} child(ren) failed", file=sys.stderr)
    return EXIT_OK


def _write_columns_csv(path, columns) -> None:
    """Write a mapping of column name -> equal-length value lists."""
    names = list(columns)
    n = max((len(v) for v in columns.values()), default=0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(n):
            writer.writerow([
                repr(float(columns[c][i])) if i < len(columns[c]) else ""
                for c in names
            ])


def cmd_analyze(args) -> int:
    if args.resamples < 1:
        raise ConfigError(f"--resamples must be >= 1, got {args.resamples}")
    if args.sizes and min(args.sizes) < 1:
        raise ConfigError(f"--sizes must all be >= 1, got {args.sizes}")
    os.makedirs(args.out, exist_ok=True)
    density_cols = {}
    cumulative_cols = {}
    threshold_rows = []
    convergence_rows = []
    gt_rows = []
    for k, table_path in enumerate(args.tables, start=1):
        names, rows = metrics.read_metric_table(table_path)
        for metric in names:
            samples = {
                "worst": [v[metric].worst for _, _, v in rows if metric in v],
                "mean": [v[metric].mean_of_extrema for _, _, v in rows if metric in v],
            }
            for agg, values in samples.items():
                if not values:
                    print(f"warning: table {k}: metric {metric} ({agg}) has no "
                          "defined samples", file=sys.stderr)
                    continue
                est = analysis.kde(values, args.bandwidth, metric=metric)
                density_cols[f"{k}_{metric}_{agg}_x"] = list(est.grid)
                density_cols[f"{k}_{metric}_{agg}_y"] = list(est.density)
                cumulative_cols[f"{k}_{metric}_{agg}_x"] = list(est.grid)
                cumulative_cols[f"{k}_{metric}_{agg}_y"] = list(analysis.cumulative(est))
            worst = samples["worst"]
            if metric in analysis.DEFAULT_THRESHOLDS and worst:
                thr = analysis.DEFAULT_THRESHOLDS[metric]
                threshold_rows.append([
                    k, metric, thr.value,
                    "below" if thr.critical_below else "above",
                    analysis.threshold_fraction(worst, metric, thr),
                ])
            if args.sizes and worst:
                sizes = [s for s in args.sizes if s <= len(worst)]
                skipped = [s for s in args.sizes if s > len(worst)]
                if skipped:
                    print(f"warning: table {k}: metric {metric}: sizes {skipped} "
                          f"exceed the population ({len(worst)})", file=sys.stderr)
                for row in analysis.convergence_study(
                        worst, sizes, resamples=args.resamples, seed=args.seed,
                        bandwidth=args.bandwidth):
                    convergence_rows.append([k, metric, row["size"], row["mean_l1"],
                                             row["std_l1"], row["resamples"]])
        gt_path = args.ground_truth[k - 1] if k <= len(args.ground_truth) else None
        if gt_path:
            gt_names, gt_table = metrics.read_metric_table(gt_path)
            for _, _, vector in gt_table:
                for metric in gt_names:
                    if metric in vector:
                        gt_rows.append([k, metric, "worst", vector[metric].worst])
                        gt_rows.append([k, metric, "mean",
                                        vector[metric].mean_of_extrema])
    _write_columns_csv(os.path.join(args.out, "density.csv"), density_cols)
    _write_columns_csv(os.path.join(args.out, "cumulative.csv"), cumulative_cols)
    with open(os.path.join(args.out, "thresholds.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["table", "metric", "threshold", "critical_side", "fraction"])
        writer.writerows(threshold_rows)
    if args.sizes:
        with open(os.path.join(args.out, "convergence.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["table", "metric", "size", "mean_l1", "std_l1",
                             "resamples"])
            writer.writerows(convergence_rows)
    if gt_rows:
        with open(os.path.join(args.out, "ground_truth.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["table", "metric", "aggregate", "value"])
            writer.writerows(gt_rows)
    return EXIT_OK


def cmd_synth_scene(args) -> int:
    params = {}
    for item in args.param:
        if "=" not in item:
            raise ConfigError(f"--param expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    graph, seed = scene_io.synth_scene(args.template, params)
    os.makedirs(args.out, exist_ok=True)
    save_map(graph, os.path.join(args.out, "map.yaml"))
    scene_io.write_case(seed.case_id, seed.frames,
                        os.path.join(args.out, "tracks.csv"))
    return EXIT_OK


def _parse_sizes(text):
    try:
        return [int(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError("sizes must be comma-separated integers")


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenex",
        description="Seed-scene extrapolation: simulate child-scenarios and "
                    "analyze their criticality distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_ in (("simulate", "run sampled child-scenarios"),
                        ("enumerate", "run all possible model assignments")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="run configuration YAML")
        p.add_argument("--jobs", type=int, default=_available_cpus(),
                       help="worker processes, >= 1 (results are identical for "
                            "any value; default: the CPUs this process may use)")
        p.add_argument("--n-runs", type=int, default=None)
        p.add_argument("--rng-seed", type=int, default=None)
        p.add_argument("--output-dir", default=None)

    p = sub.add_parser("analyze", help="densities, thresholds, convergence")
    p.add_argument("tables", nargs="+", help="metric table CSVs, one per seed-scene")
    p.add_argument("--out", required=True)
    p.add_argument("--bandwidth", type=float, default=analysis.DEFAULT_BANDWIDTH)
    p.add_argument("--sizes", type=_parse_sizes, default=None,
                   help="comma-separated subset sizes for the convergence study")
    p.add_argument("--resamples", type=int, default=analysis.DEFAULT_RESAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ground-truth", nargs="*", default=[],
                   help="ground-truth fingerprint tables, aligned with TABLES")

    p = sub.add_parser("synth-scene", help="emit a synthetic map + tracks pair")
    p.add_argument("--template", required=True,
                   choices=["car_following", "merge", "crossing"])
    p.add_argument("--out", required=True)
    p.add_argument("--param", action="append", default=[],
                   help="template parameter as key=value (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _run_simulation(args, "simulate")
        if args.command == "enumerate":
            return _run_simulation(args, "enumerate")
        if args.command == "analyze":
            return cmd_analyze(args)
        return cmd_synth_scene(args)
    except (ConfigError, ScenexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
