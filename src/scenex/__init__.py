"""Seed-scene extrapolation: closed-loop child-scenario simulation and
criticality-density analysis for scenario-based testing."""

from .analysis import (
    DensityEstimate,
    Threshold,
    convergence_study,
    cumulative,
    ground_truth_overlay,
    kde,
    threshold_fraction,
)
from .behavior import (
    IdmParams,
    ModelSpec,
    Trajectory,
    WorldView,
    idm_accel,
    load_roster,
    plan_path_follow,
    plan_replay,
    profile_params,
)
from .errors import ScenexError
from .map_model import (
    Lane,
    MapGraph,
    Path,
    enumerate_routes,
    load_map,
    match_to_lane,
    path_intersection,
    route_centerline,
    save_map,
    select_route,
)
from .metrics import (
    MetricEngine,
    MetricStats,
    PairContext,
    metric_distance,
    metric_gap_time,
    metric_inverse_ttc,
    metric_pttc,
    metric_wttc,
    read_metric_table,
    write_metric_table,
)
from .scene_io import (
    ParticipantState,
    ScenarioLog,
    SceneFrame,
    SeedScene,
    extract_seed,
    load_tracks,
    synth_scene,
    write_log,
)
from .simulator import (
    Assignment,
    BatchResult,
    SimConfig,
    assign_models,
    enumerate_assignments,
    enumeration_count,
    run_batch,
    run_child,
    run_enumerated,
)

__version__ = "0.1.0"
