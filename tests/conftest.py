import pytest

from featslam import pipeline
from featslam.pipeline import SlamResult


@pytest.fixture
def write_run(tmp_path):
    """Write a run's files through the pipeline's one output writer.

    ``write_run(trajectory, events, truth)`` builds a SlamResult of the given
    per-frame poses and loop events (no keyframes, registrations or solves),
    writes it into a fresh directory with the given GroundTruthTrajectory (or
    None) and returns that directory.
    """
    def write(trajectory=(), events=(), truth=None):
        n = len(trajectory)
        result = SlamResult(
            trajectory=list(trajectory), odometry=list(trajectory),
            keyframe_frames=[], keyframe_poses=[], keyframe_features=[],
            events=list(events), registrations=[None] * n, dropped_points=[0] * n,
            solves=[],
        )
        pipeline._write_outputs(result, truth, tmp_path)
        return tmp_path

    return write
