"""Deterministic simulation: synthetic scenes, depth rendering, episodes."""

from ..config import NoiseModel, SimConfig
from .primitives import Box, Cylinder, stratified_rect
from .render import render_depth
from .scenegen import (CabinetSpec, ObjectSpec, SceneSpec, SyntheticScene,
                       default_grasp_spec, default_search_spec, generate_scene)
from .detector import detect_boxes
from .episodes import (EpisodeReport, derive_seed, run_grasp_batch,
                       run_grasp_episode, run_search_batch, run_search_episode,
                       summarize)

__all__ = [
    "Box", "CabinetSpec", "Cylinder", "EpisodeReport", "NoiseModel",
    "ObjectSpec", "SceneSpec", "SimConfig", "SyntheticScene", "default_grasp_spec",
    "default_search_spec", "derive_seed", "detect_boxes", "generate_scene",
    "render_depth", "run_grasp_batch", "run_grasp_episode", "run_search_batch",
    "run_search_episode", "stratified_rect", "summarize",
]
