"""Grasp and body-pose planning over point clouds.

Subsystems:
    geometry   poses, pinhole projection, RANSAC planes, sampling, visibility
    scene      point-cloud scenes with embedded instance masks
    grasp      grasp candidate ingestion, de-rotation, filtering
    nav        body-position sampling and validation around a target
    optimizer  joint grasp / body-pose selection
    drawer     handle-drawer matching, axis estimation, view fusion, pull plans
    config     the run config: one section per stage, simulator included
    codec      JSON in both directions: typed decoding of every input file,
               one writer for every report and output file
    pipeline   the planning stages the CLI and the simulator share
    sim        deterministic synthetic scenes, depth rendering, episode runner
    cli        command-line front end
"""

__version__ = "0.1.0"
