"""Command line interface: simulate, enumerate, analyze, synth-scene.

All subcommands are batch operations driven by files; outputs are CSV
tables meant for external plotting. Exit codes: 0 success, 1 validation
(usage errors included), 2 I/O, 3 simulation failure (all children failed).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import glob
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace

from . import analysis, metrics, scene_io, simulator
from .behavior import load_roster
from .errors import ConfigError, ScenexError
from .map_model import load_map, save_map
from .schema import check_fields, is_positive_number, read_document

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
    history_len: int = scene_io.DEFAULT_HISTORY_LEN
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


# mapping field of RunConfig -> (its keys' annotations, its required keys)
_NESTED_FIELDS = {
    "tracks": ({"path": "str", "case_id": "int", "current_index": "int"}, ("path",)),
    "synth": ({"template": "str", "params": "dict | None"}, ("template",)),
}


def load_run_config(path) -> RunConfig:
    payload = read_document(path, RUN_FORMAT, RUN_VERSION,
                            {f.name: f.type for f in fields(RunConfig)},
                            ("roster", "output_dir"), ConfigError)
    for name, (annotations, required) in _NESTED_FIELDS.items():
        if payload.get(name) is not None:
            check_fields(path, payload[name], annotations, required, ConfigError,
                         f"{name}.")
    cfg = RunConfig(**payload)
    if (cfg.tracks is None) == (cfg.synth is None):
        raise ConfigError(f"{path}: exactly one of 'tracks' and 'synth' must be present")
    if cfg.tracks is not None and cfg.map is None:
        raise ConfigError(f"{path}: field 'map' is required with a tracks source")
    if cfg.synth is not None and "history_len" in (cfg.synth.get("params") or {}):
        raise ConfigError(f"{path}: field 'synth.params.history_len' is not read in a "
                          "run config; set the top-level 'history_len' instead")
    if not 1 <= cfg.history_len <= scene_io.MAX_STEPS:
        raise ConfigError(f"{path}: history_len must be in 1..{scene_io.MAX_STEPS}, "
                          f"got {cfg.history_len}")
    if cfg.n_runs < 1:
        raise ConfigError(f"{path}: n_runs must be >= 1")
    if not 1 <= cfg.enumeration_cap <= simulator.MAX_ENUMERATION_CAP:
        raise ConfigError(f"{path}: enumeration_cap must be in "
                          f"1..{simulator.MAX_ENUMERATION_CAP}, got {cfg.enumeration_cap}")
    return cfg


def _build_scene(cfg: RunConfig):
    """Returns (map_graph, seed_scene, the case it was cut from or None)."""
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
    return graph, seed, case


def _log_name(index) -> str:
    return f"child_{index:05d}.csv"


@dataclass
class _ScoreAndWrite:
    """The `finish` of `simulate` and `enumerate`, run in the process that
    simulated the child: it scores the child and writes its log under each
    index of its specs, then drops the log, so a pool worker sends back the
    fingerprint alone.

    Equal digests (timestamps and each state's exact `key`; the case id is
    the batch's) mean equal bytes, so each distinct log is rendered once
    per process, and every other path of it is a hard link to that first
    file. The command cleared its earlier outputs first (`_clear`), so each
    path is a new file and a link never joins a file another run or
    directory still holds. Where the filesystem refuses a link (`EMLINK`,
    or no hard links at all), the log is rendered at that path, which
    becomes the digest's first file.
    """

    engine: metrics.MetricEngine
    logs_dir: str
    rendered: dict = field(default_factory=dict)  # log digest -> its first file

    def __call__(self, child, indices):
        fingerprint = self.engine.aggregate(child.log, child.assignment)
        first = self.rendered.get(child.log.digest)
        for index in indices:
            path = os.path.join(self.logs_dir, _log_name(index))
            if first is not None:
                try:
                    os.link(first, path)
                    continue
                except OSError:
                    pass
            scene_io.write_log(child.log, path)
            first = self.rendered[child.log.digest] = path
        return replace(child, log=None, fingerprint=fingerprint)


def _metric_rows(batch):
    """The `metrics.csv` rows of the completed children, in index order,
    each scored where it ran."""
    return [(child.index, child.assignment.run_seed, child.fingerprint)
            for child in batch.children if child.ok]


# (glob, header) of every file a command writes in its output directory: a
# file is the command's by its name, or, where a header is given, only if its
# first line starts with it (`simulate` and `analyze` both write a
# `ground_truth.csv`, and neither deletes the other's)
RUN_OUTPUTS = (("metrics.csv", None), ("manifest.json", None),
               ("logs/child_*.csv", None), ("ground_truth.csv", "run_index,run_seed,"))
CONVERGENCE_HEADER = ["table", "metric", "size", "mean_l1", "std_l1", "resamples"]
GROUND_TRUTH_HEADER = ["table", "metric", "aggregate", "value"]
ANALYZE_OUTPUTS = (("density.csv", None), ("cumulative.csv", None),
                   ("thresholds.csv", None),
                   ("convergence.csv", ",".join(CONVERGENCE_HEADER)),
                   ("ground_truth.csv", ",".join(GROUND_TRUTH_HEADER)))
SYNTH_OUTPUTS = (("map.yaml", None), ("tracks.csv", None))


def _clear(out, owned) -> None:
    """Delete the files an earlier run of a command left in `out`, given as
    the command's `owned` table. A command runs this once, after its inputs
    are checked and before its first write, so every file it writes is a
    new one: it never writes through a hard link, such as a `cp -al`
    snapshot of `out`, and a run cut short leaves none of its earlier
    outputs beside the new ones."""
    for pattern, header in owned:
        for path in glob.glob(os.path.join(glob.escape(out), pattern)):
            if header is not None:
                with open(path, "rb") as fh:
                    if not fh.readline().startswith(header.encode()):
                        continue
            os.remove(path)


def _write_outputs(cfg, batch, engine, seed, mode):
    """Write a batch's tables and manifest. The children's logs were written
    where they ran; a log file of a child that ended up failed, such as one
    whose worker died, is deleted."""
    out = cfg.output_dir
    children = []
    for child in batch.children:
        entry = {
            "index": child.index,
            "origin": list(child.assignment.origin),
            "assignment": {str(t): k for t, k in child.assignment.kinds().items()},
            "status": "ok" if child.ok else "failed",
        }
        log = os.path.join("logs", _log_name(child.index))
        if child.ok:
            entry["log"] = log
        else:
            entry.update(error=child.error, track_id=child.track_id, step=child.step,
                         model_kind=child.model_kind, error_class=child.error_class)
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out, log))
        children.append(entry)
    metrics.write_metric_table(os.path.join(out, "metrics.csv"), _metric_rows(batch))
    gt_written = False
    if cfg.tracks is not None:
        try:
            vector = analysis.ground_truth_overlay(seed, cfg.sim_config(), engine)
            metrics.write_metric_table(os.path.join(out, "ground_truth.csv"),
                                       [(-1, cfg.rng_seed, vector)])
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
    if args.rng_seed is not None:
        cfg.rng_seed = args.rng_seed
    if args.output_dir is not None:
        cfg.output_dir = args.output_dir
    # the usage errors the library would raise in the batch fail here, before
    # the clear, so they never delete an earlier run's outputs
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    if mode == "simulate":
        if args.n_runs is not None:
            cfg.n_runs = args.n_runs
        if not 1 <= cfg.n_runs <= cfg.enumeration_cap:
            raise ConfigError(f"n_runs must be in 1..enumeration_cap "
                              f"({cfg.enumeration_cap}), got {cfg.n_runs}")
    sim_cfg = cfg.sim_config()
    graph, seed, _ = _build_scene(cfg)
    roster = load_roster(cfg.roster)
    if mode == "enumerate":
        simulator.enumeration_count(seed, roster, cap=cfg.enumeration_cap)
    engine = metrics.MetricEngine(
        graph, pttc_decel=cfg.pttc_decel, wttc_accel=cfg.wttc_accel,
        route_horizon=cfg.route_horizon,
    )
    _clear(cfg.output_dir, RUN_OUTPUTS)
    logs_dir = os.path.join(cfg.output_dir, "logs")
    os.makedirs(logs_dir, exist_ok=True)
    finish = _ScoreAndWrite(engine, logs_dir)
    if mode == "enumerate":
        batch = simulator.run_enumerated(seed, roster, sim_cfg, jobs=args.jobs,
                                         cap=cfg.enumeration_cap, finish=finish,
                                         plan_memo=engine.memo)
    else:
        batch = simulator.run_batch(seed, roster, cfg.n_runs, sim_cfg, jobs=args.jobs,
                                    finish=finish, plan_memo=engine.memo)
    _write_outputs(cfg, batch, engine, seed, mode)
    if batch.n_failed == len(batch.children):
        print("error: all children failed", file=sys.stderr)
        return EXIT_SIMULATION
    if batch.n_failed:
        print(f"warning: {batch.n_failed} child(ren) failed", file=sys.stderr)
    return EXIT_OK


def _write_rows_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_columns_csv(path, columns) -> None:
    """Write a mapping of column name -> equal-length value lists."""
    _write_rows_csv(path, list(columns), ([repr(float(v)) for v in row]
                                          for row in zip(*columns.values())))


def cmd_analyze(args) -> int:
    if len(args.ground_truth) > len(args.tables):
        raise ConfigError(f"--ground-truth got {len(args.ground_truth)} tables for "
                          f"{len(args.tables)} TABLES; give at most one per table")
    for name, _ in ANALYZE_OUTPUTS:
        target = os.path.join(args.out, name)
        for given in (*args.tables, *args.ground_truth):
            if os.path.exists(target) and os.path.exists(given) \
                    and os.path.samefile(target, given):
                raise ConfigError(f"--out {args.out}: analyze writes {name} there, "
                                  f"which is the input {given}")
    if not is_positive_number(args.bandwidth):
        raise ConfigError(f"--bandwidth must be a finite number > 0, got {args.bandwidth}")
    if args.resamples < 1:
        raise ConfigError(f"--resamples must be >= 1, got {args.resamples}")
    if args.sizes and min(args.sizes) < 1:
        raise ConfigError(f"--sizes must all be >= 1, got {args.sizes}")
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
    _clear(args.out, ANALYZE_OUTPUTS)
    os.makedirs(args.out, exist_ok=True)
    _write_columns_csv(os.path.join(args.out, "density.csv"), density_cols)
    _write_columns_csv(os.path.join(args.out, "cumulative.csv"), cumulative_cols)
    _write_rows_csv(os.path.join(args.out, "thresholds.csv"),
                    ["table", "metric", "threshold", "critical_side", "fraction"],
                    threshold_rows)
    if args.sizes:
        _write_rows_csv(os.path.join(args.out, "convergence.csv"), CONVERGENCE_HEADER,
                        convergence_rows)
    if gt_rows:
        _write_rows_csv(os.path.join(args.out, "ground_truth.csv"), GROUND_TRUTH_HEADER,
                        gt_rows)
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
    _clear(args.out, SYNTH_OUTPUTS)
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
        p.add_argument("--jobs", type=int, default=simulator.available_cpus(),
                       help="worker processes, >= 1 (results are identical for "
                            "any value; default: the CPUs this process may use; "
                            "never more than those CPUs or the distinct children)")
        if name == "simulate":
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error exits 2, the I/O code here
        return EXIT_VALIDATION if exc.code else EXIT_OK
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
