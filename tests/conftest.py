import sys
from pathlib import Path

# this checkout's sources come after PYTHONPATH, so a checkout named there
# is the one under test, and a plain ``pytest`` still finds the package
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

from featslam import pipeline  # noqa: E402
from featslam.pipeline import SlamResult  # noqa: E402


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
