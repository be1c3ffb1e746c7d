"""Workload definitions and the input files each one hands to scenex."""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

from . import junction

# The acceptance roster: replay stands in for each learned model, so two
# identical replay slots give 6 ** n_vehicles children.
ENUM_ROSTER = """\
format: scenex-roster
version: 1
models:
  - {kind: standard}
  - {kind: risky}
  - {kind: constant_velocity}
  - {kind: emergency_brake}
  - {kind: replay}
  - {kind: replay}
"""

# The paper's five-model roster with ground-truth replay drawn twice as often.
JUNCTION_ROSTER = """\
format: scenex-roster
version: 1
models:
  - {kind: standard}
  - {kind: risky}
  - {kind: constant_velocity}
  - {kind: emergency_brake}
  - {kind: replay, weight: 2.0}
"""

CONVERGENCE_SIZES = (10, 100, 385, 1000)
HORIZON_STEPS = junction.HORIZON_STEPS


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str        # CLI subcommand: "enumerate" or "simulate"
    parallel: bool   # --jobs nproc instead of --jobs 1
    size: int        # vehicles of the enumerated scene, or n_runs when sampling
    why: str

    @property
    def n_children(self) -> int:
        if self.mode == "enumerate":
            return ENUM_ROSTER.count("- {kind") ** self.size
        return self.size

    @property
    def n_participants(self) -> int:
        if self.mode == "enumerate":
            return self.size
        return junction.VEHICLES_PER_ARM * len(junction.ARMS)

    @property
    def has_ground_truth(self) -> bool:
        return self.mode == "simulate"

    def jobs(self) -> int:
        return len(os.sched_getaffinity(0)) if self.parallel else 1

    def analyze_sizes(self):
        return [s for s in CONVERGENCE_SIZES if s <= self.n_children]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "enum-follow", "enumerate", False, 4,
            "car-following acceptance scene, 6-slot roster, --jobs 1: children "
            "share the most work, so per-child overhead, the planner, metric "
            "pairs, log writes and the KDE dominate",
        ),
        Workload(
            "enum-follow-par", "enumerate", True, 4,
            "same inputs at --jobs nproc: the only workload through the process "
            "pool, with metrics still serial in the parent",
        ),
        Workload(
            "sample-junction", "simulate", False, 12,
            "sampled runs on a generated 20-lane junction with a recorded "
            "future: map matching, projection, forks and the ground-truth "
            "overlay dominate and children share little",
        ),
    )
}


def write_inputs(workload: Workload, seed: int, work_dir) -> str:
    """Write the roster, scene files and run config; return the config path."""
    os.makedirs(work_dir, exist_ok=True)
    roster = os.path.join(work_dir, "roster.yaml")
    # paths are JSON-quoted, which YAML reads as double-quoted scalars
    lines = ["format: scenex-run", "version: 1", f"roster: {json.dumps(roster)}",
             f"output_dir: {json.dumps(os.path.join(work_dir, 'out'))}",
             f"horizon_steps: {HORIZON_STEPS}", f"rng_seed: {seed}"]
    if workload.mode == "enumerate":
        roster_text = ENUM_ROSTER
        lines.append("synth: {template: car_following, params: "
                     f"{{n_vehicles: {workload.size}, gap: 20.0, speed: 10.0}}}}")
    else:
        roster_text = JUNCTION_ROSTER
        map_path, tracks_path = junction.write_inputs(seed, work_dir)
        lines += [f"map: {json.dumps(map_path)}",
                  f"tracks: {{path: {json.dumps(tracks_path)}, "
                  f"case_id: {junction.CASE_ID}, "
                  f"current_index: {junction.CURRENT_INDEX}}}",
                  f"n_runs: {workload.size}"]
    with open(roster, "w") as fh:
        fh.write(roster_text)
    config = os.path.join(work_dir, "run.yaml")
    with open(config, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return config


def analyze_argv(workload: Workload, out_dir, analysis_dir):
    """Arguments of `scenex analyze` on the tables a run wrote."""
    argv = ["analyze", os.path.join(out_dir, "metrics.csv"), "--out", analysis_dir]
    sizes = workload.analyze_sizes()
    if sizes:
        argv += ["--sizes", ",".join(map(str, sizes))]
    if workload.has_ground_truth:
        argv += ["--ground-truth", os.path.join(out_dir, "ground_truth.csv")]
    return argv
