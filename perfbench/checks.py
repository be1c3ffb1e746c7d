"""Checks on what one `enumerate`/`simulate` + `analyze` run wrote.

Every check raises `OutputCheckError`; the benchmark then exits non-zero
without a result.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os


class OutputCheckError(Exception):
    pass


def _fail(message):
    raise OutputCheckError(message)


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def logs_sha256(out_dir) -> str:
    """One digest over every log file's name and bytes."""
    digest = hashlib.sha256()
    logs = os.path.join(out_dir, "logs")
    for name in sorted(os.listdir(logs)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(logs, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def outputs_sha256(out_dir):
    """Fingerprints of the files that must not depend on --jobs."""
    gt_path = os.path.join(out_dir, "ground_truth.csv")
    return {
        "metrics_sha256": file_sha256(os.path.join(out_dir, "metrics.csv")),
        "logs_sha256": logs_sha256(out_dir),
        "ground_truth_sha256": file_sha256(gt_path) if os.path.isfile(gt_path) else None,
    }


def check_run(out_dir, n_children, log_rows, ground_truth):
    """Check a run directory; return its counts and fingerprints.

    `log_rows` is the number of data rows each child log must hold.
    """
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        _fail(f"manifest.json unreadable: {exc}")
    children = manifest.get("children", [])
    if manifest.get("n_children") != n_children or len(children) != n_children:
        _fail(f"expected {n_children} children, manifest has "
              f"{manifest.get('n_children')} ({len(children)} entries)")
    if [c.get("index") for c in children] != list(range(n_children)):
        _fail("manifest child indices are not 0..n-1 in order")
    ok = [c for c in children if c.get("status") == "ok"]
    n_failed = n_children - len(ok)
    if manifest.get("n_failed") != n_failed:
        _fail(f"manifest n_failed {manifest.get('n_failed')} but {n_failed} "
              "children are not ok")
    logs = {c["log"] for c in ok if "log" in c}
    on_disk = {os.path.join("logs", n) for n in os.listdir(os.path.join(out_dir, "logs"))}
    if len(logs) != len(ok) or logs != on_disk:
        _fail(f"{len(ok)} completed children but {len(on_disk)} log files "
              f"({len(logs ^ on_disk)} mismatched)")
    for rel in sorted(logs):
        with open(os.path.join(out_dir, rel), newline="") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != log_rows:
            _fail(f"{rel}: {rows} rows, expected {log_rows}")
    with open(os.path.join(out_dir, "metrics.csv"), newline="") as fh:
        table = list(csv.reader(fh))
    if not table or table[0][:2] != ["run_index", "run_seed"]:
        _fail("metrics.csv has no metric-table header")
    indices = [int(row[0]) for row in table[1:]]
    if indices != [c["index"] for c in ok]:
        _fail(f"metrics.csv has {len(indices)} rows for {len(ok)} completed children")
    gt_path = os.path.join(out_dir, "ground_truth.csv")
    if ground_truth and not (manifest.get("ground_truth") and os.path.isfile(gt_path)):
        _fail("ground-truth overlay was not written")
    return {"attempted": n_children, "failed": n_failed, **outputs_sha256(out_dir)}


def check_analysis(analysis_dir, sizes, ground_truth):
    for name in ("density.csv", "cumulative.csv", "thresholds.csv"):
        path = os.path.join(analysis_dir, name)
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            _fail(f"analyze did not write {name}")
    if sizes:
        with open(os.path.join(analysis_dir, "convergence.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        if {int(r["size"]) for r in rows} != set(sizes):
            _fail(f"convergence.csv sizes differ from {sizes}")
    if ground_truth and not os.path.isfile(os.path.join(analysis_dir,
                                                        "ground_truth.csv")):
        _fail("analyze did not write ground_truth.csv")
