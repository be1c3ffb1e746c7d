"""Seed-scene extrapolation: closed-loop child-scenario simulation and
criticality-density analysis for scenario-based testing.

The top level holds the names the README's Library section uses and the
base error; everything else is imported from its module.
"""

from .analysis import kde
from .behavior import ModelSpec
from .errors import ScenexError
from .metrics import MetricEngine
from .scene_io import synth_scene
from .simulator import run_enumerated

__all__ = ["MetricEngine", "ModelSpec", "ScenexError", "kde", "run_enumerated",
           "synth_scene"]

__version__ = "0.1.0"
