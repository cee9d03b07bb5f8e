import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from featslam import features, loop_closure, odometry, pipeline
from featslam.cli import _collect_items, _synthetic_items, build_parser, main
from featslam.dataset_io import RawScan, load_ground_truth
from featslam.evaluation import kitti_relative_errors
from featslam.features import FeatureCloud, FeatureConfig
from featslam.geometry import Pose, project_rotation
from featslam.loop_closure import (
    Keyframe,
    LoopClosureConfig,
    adaptive_threshold,
    estimate_loop_pose,
    registration_config,
)
from featslam.odometry import OdometryConfig, RegistrationResult, predict_pose
from featslam.pipeline import (
    PipelineConfig,
    parse_config_file,
    parse_overrides,
    run_slam,
)
from featslam.pose_graph import PoseGraphConfig
from featslam.scan_context import ScanContextConfig
from featslam.simulate import (
    SQUARE_CORNER_RADIUS,
    WORLD_DEFAULTS,
    LidarModel,
    generate_world,
    rounded_square_path,
    simulate_scan,
    square_loop_world,
    two_room_path,
)

SQUARE = {"synthetic.shape": "square"}
# the loop_square benchmark's weakened odometry and larger loop budget
LOOP_SQUARE = {**SQUARE, "odometry.max_iterations": "2", "odometry.refine_iterations": "2",
               "loop.max_iterations": "80"}


class TestConfigValues:
    def test_defaults_filled(self):
        cfg = PipelineConfig.from_items(SQUARE)
        assert cfg["odometry.max_iterations"] == 2
        assert cfg["scan_context.num_sectors"] == 60
        assert cfg["output.dir"] == "featslam_out"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration key"):
            PipelineConfig.from_items({"odometry.max_iters": "5", **SQUARE})

    def test_string_values_coerced(self):
        cfg = PipelineConfig.from_items(
            {**SQUARE, "synthetic.noise": "0.05", "run.no_loop": "Yes",
             "dataset.max_frames": "16"}
        )
        assert cfg["synthetic.noise"] == 0.05
        assert cfg["run.no_loop"] is True
        assert cfg["dataset.max_frames"] == 16
        for text in ("off", "false", "0", "No"):
            cfg = PipelineConfig.from_items({**SQUARE, "run.no_loop": text})
            assert cfg["run.no_loop"] is False

    def test_bad_bool_rejected(self):
        with pytest.raises(ValueError, match="run.no_loop"):
            PipelineConfig.from_items({**SQUARE, "run.no_loop": "maybe"})

    def test_bad_int_rejected(self):
        with pytest.raises(ValueError, match="dataset.max_frames"):
            PipelineConfig.from_items({**SQUARE, "dataset.max_frames": "sixty"})

    @pytest.mark.parametrize("key, value", [
        ("output.dir", 5), ("run.no_loop", 1), ("dataset.max_frames", 2.5),
        ("synthetic.noise", True),
    ])
    def test_value_of_another_type_rejected(self, key, value):
        # values handed over as Python objects, not parsed from text
        message = f"bad value for {key}: {value!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            PipelineConfig.from_items({**SQUARE, key: value})

    def test_value_of_the_keys_own_type_rejected(self):
        # values arrive as text; an int for an int key is rejected too
        message = "bad value for synthetic.frames: 12"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            PipelineConfig.from_items({"synthetic.shape": "square", "synthetic.frames": 12})

    def test_no_input_rejected(self):
        with pytest.raises(ValueError, match="no input"):
            PipelineConfig.from_items({})

    def test_fixed_threshold_nonpositive_means_adaptive(self):
        # every keyframe after the first finds a match to gate: nothing is
        # excluded and any descriptor distance below 1 is similar enough
        items = {**SQUARE, "scan_context.exclude_recent": "0",
                 "scan_context.similarity_threshold": "1.0"}
        scans, _ = generate_world({"shape": "square", "frames": 8, "laps": 0.1, "seed": 0})
        for fixed in ("0", "-1", "80"):
            cfg = PipelineConfig.from_items({**items, "run.fixed_threshold": fixed})
            events = run_slam(scans, cfg).events
            assert len(events) >= 3
            assert [e.d_thre for e in events] == [
                80.0 if fixed == "80" else adaptive_threshold(e.from_keyframe, cfg.loop)
                for e in events
            ]


class TestModuleConfigs:
    def test_defaults_equal_module_defaults(self):
        cfg = PipelineConfig.from_items(SQUARE)
        assert cfg.features == FeatureConfig()
        assert cfg.odometry == OdometryConfig()
        assert cfg.scan_context == ScanContextConfig()
        assert cfg.loop == LoopClosureConfig()
        assert cfg.graph == PoseGraphConfig()
        world = {key: cfg[f"synthetic.{key}"] for key in WORLD_DEFAULTS}
        assert world == {**WORLD_DEFAULTS, "shape": "square"}

    def test_feature_and_odometry_sections(self):
        cfg = PipelineConfig.from_items(
            {**SQUARE, "features.min_range": "3.5",
             "odometry.max_correspondence_distance": "0.7"}
        )
        assert cfg.features.min_range == 3.5
        assert cfg.odometry.max_correspondence_distance == 0.7

    @staticmethod
    def registered_with(monkeypatch, *configs):
        """The OdometryConfig that estimate_loop_pose hands to register."""
        seen = []

        def fake_register(features, submap, initial, cfg):
            seen.append(cfg)
            return RegistrationResult(initial, float("inf"), 0, degenerate_directions=6)

        monkeypatch.setattr(loop_closure, "register", fake_register)
        cloud = FeatureCloud(edges=np.zeros((3, 3)), planars=np.zeros((8, 3)))
        keyframes = [Keyframe(i, cloud, Pose.identity()) for i in range(2)]
        estimate_loop_pose(1, keyframes, 0, [Pose.identity()] * 2, *configs, 0.0)
        assert len(seen) == 1
        return seen[0]

    def test_loop_registration_gets_own_iteration_cap(self, monkeypatch):
        # the run's odometry settings, refine budget included, with the loop cap
        cfg = PipelineConfig.from_items(LOOP_SQUARE)
        got = self.registered_with(monkeypatch, cfg.loop, cfg.odometry)
        assert got == dataclasses.replace(cfg.odometry, max_iterations=80)
        assert got.refine_iterations == 2

    def test_loop_registration_defaults(self, monkeypatch):
        cfg = PipelineConfig.from_items(SQUARE)
        expected = OdometryConfig(max_iterations=50)
        assert self.registered_with(monkeypatch, cfg.loop, cfg.odometry) == expected

    # section -> config class whose fields are the section's keys
    SECTIONS = {"features": FeatureConfig, "odometry": OdometryConfig,
                "scan_context": ScanContextConfig, "loop": LoopClosureConfig,
                "graph": PoseGraphConfig}

    @pytest.mark.parametrize("section", SECTIONS)
    def test_key_table_is_the_config_fields(self, section):
        fields = {f.name: f.default for f in dataclasses.fields(self.SECTIONS[section])}
        keys = {key.split(".", 1)[1]: value for key, value in pipeline._KEYS.items()
                if key.startswith(section + ".")}
        assert keys == fields

    def test_key_table_holds_only_scalars(self):
        # a nested config field would be a second route to another section
        nonscalar = {key: value for key, value in pipeline._KEYS.items()
                     if type(value) not in (str, int, float, bool)}
        assert nonscalar == {}

    def test_run_uses_the_configs_it_was_given(self, monkeypatch):
        cfg = PipelineConfig.from_items({**SQUARE, "features.min_range": "3.5"})
        real = pipeline.process_frame
        seen = []

        def spy(poses, scan, submap, odometry, features):
            seen.append((list(poses), odometry, features))
            return real(poses, scan, submap, odometry, features)

        monkeypatch.setattr(pipeline, "process_frame", spy)
        scans, _ = generate_world({"shape": "square", "frames": 3, "seed": 0})
        result = run_slam(scans, cfg)
        assert len(seen) == 3
        assert all(odo is cfg.odometry and feat is cfg.features for _, odo, feat in seen)
        # call i predicts from the poses of the i frames before it
        assert [poses for poses, _, _ in seen] == [result.odometry[:i] for i in range(3)]

    def test_graph_information_from_sigmas(self):
        cfg = PipelineConfig.from_items(
            {**SQUARE, "graph.loop_rotation_sigma": "0.1",
             "graph.loop_translation_sigma": "0.5"}
        )
        assert cfg.graph == PoseGraphConfig(loop_rotation_sigma=0.1,
                                            loop_translation_sigma=0.5)


class TestIterationBudget:
    @pytest.mark.parametrize("items, message", [
        ({"odometry.max_iterations": "0", "odometry.refine_iterations": "0"},
         "odometry: max_iterations must be >= 1, got 0"),
        ({"odometry.max_iterations": "-1"}, "odometry: max_iterations must be >= 1, got -1"),
        ({"odometry.refine_iterations": "-3"}, "odometry: refine_iterations must be >= 0"),
        ({"loop.max_iterations": "-1"}, "loop: max_iterations must be >= 1, got -1"),
        ({"loop.max_iterations": "0", "odometry.refine_iterations": "0"},
         "loop: max_iterations must be >= 1, got 0"),
        # a non-finite float would pass every "x <= 0" check and switch a
        # stage off: no match, no loop, no correspondence, or the adaptive gate
        *[({key: value}, f"bad value for {key}: {value} is not finite")
          for key, value in (
              ("scan_context.similarity_threshold", "nan"), ("loop.base_threshold", "nan"),
              ("loop.n", "nan"), ("scan_context.max_radius", "nan"),
              ("odometry.max_correspondence_distance", "nan"), ("run.fixed_threshold", "nan"),
              ("graph.loop_translation_sigma", "inf"),
          )],
        # world specs that hung, crashed or gave a wrong world
        ({"synthetic.shape": "two_rooms", "synthetic.step": "-0.35"},
         "synthetic: step must be > 0, got -0.35"),
        ({"synthetic.step": "0"}, "synthetic: step must be > 0, got 0.0"),
        ({"synthetic.noise": "-1"}, "synthetic: noise must be >= 0, got -1.0"),
        ({"synthetic.frames": "0"}, "synthetic: frames must be >= 1, got 0"),
        ({"synthetic.seed": "-1"}, "synthetic: seed must be >= 0, got -1"),
        ({"synthetic.separation": "0"}, "synthetic: separation must be > 0, got 0.0"),
        ({"synthetic.density": "-2"}, "synthetic: density must be >= 0, got -2.0"),
        ({"synthetic.size": "1"}, "synthetic: size must be >= 6.0 for the square "
                                  "course (twice its corner radius), got 1.0"),
        # graph sigmas that divided by zero (0, and 1e-200, whose square
        # underflows), overflowed (1e200) or ran as their absolute value
        *[({f"graph.{name}": value},
           f"graph: {name} must be > 0 with 1/sigma^2 finite and positive, got ")
          for name in ("odometry_rotation_sigma", "odometry_translation_sigma",
                       "loop_rotation_sigma", "loop_translation_sigma")
          for value in ("0", "-0.2", "1e-200", "1e200")],
        # values that ran to exit 0 with a broken result
        ({"odometry.crop_radius": "-1"}, "unknown configuration key: odometry.crop_radius"),
        ({"odometry.edge_voxel_size": "0"}, "odometry: edge_voxel_size must be > 0, got 0.0"),
        ({"scan_context.num_rings": "0"}, "scan_context: num_rings must be >= 1, got 0"),
        ({"scan_context.num_sectors": "0"}, "scan_context: num_sectors must be >= 1, got 0"),
        ({"loop.submap_half_width": "-3"}, "loop: submap_half_width must be >= 0, got -3"),
    ])
    def test_rejected_before_any_frame(self, tmp_path, capsys, items, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            PipelineConfig.from_items({**SQUARE, **items})
        out = tmp_path / "out"
        sets = [arg for key, value in items.items() for arg in ("--set", f"{key}={value}")]
        rc = main(["run", "--synthetic", "square,frames=4,seed=0", "--out", str(out)] + sets)
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()  # the run never started

    def test_loop_zero_rounds_rejected(self, tmp_path, capsys):
        # zero rounds with the refine budget left at 40, a budget the sum
        # rule let through: loop refinement, like odometry, associates at
        # least once
        message = "loop: max_iterations must be >= 1, got 0"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            PipelineConfig.from_items({**SQUARE, "loop.max_iterations": "0"})
        out = tmp_path / "out"
        rc = main(["run", "--synthetic", "square,frames=3", "--set", "loop.max_iterations=0",
                   "--out", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_one_round_without_refinement_is_valid(self, tmp_path):
        # the smallest budget of both phases, which the sum rule once checked
        cfg = PipelineConfig.from_items({**SQUARE, "odometry.max_iterations": "1",
                                         "odometry.refine_iterations": "0"})
        assert (cfg.odometry.max_iterations, cfg.odometry.refine_iterations) == (1, 0)
        registration = registration_config(cfg.loop, cfg.odometry)
        assert (registration.max_iterations, registration.refine_iterations) == (50, 0)
        out = tmp_path / "out"
        assert main(["run", "--synthetic", "square,frames=3,seed=0", "--set",
                     "odometry.max_iterations=1", "--set", "odometry.refine_iterations=0",
                     "--out", str(out)]) == 0
        rows = TestFrameLog.rows(out / "frames.csv")[1:]
        assert [(row["iterations"], row["associations"]) for row in rows] == [("1", "1")] * 2


# Numeric keys for which -1 is a valid value, with the reason.
NEGATIVE_ALLOWED = {
    "run.fixed_threshold": "<= 0 selects the adaptive gate",
    "dataset.max_frames": "<= 0 means all frames",
}
NUMERIC_KEYS = [key for key, value in pipeline._KEYS.items() if type(value) in (int, float)]


# Settings that are module constants, not keys: no run varies them.
REMOVED_KEYS = [
    "features.neighborhood_half_width", "features.smoothness_threshold",
    "features.max_edges_per_sector", "features.max_planars_per_sector",
    "features.num_sectors", "features.gap_factor", "features.occlusion_gap",
    "odometry.huber_scale", "scan_context.num_candidates", "loop.cost_threshold",
    "loop.keyframe_translation", "loop.keyframe_rotation_deg", "graph.huber_scale",
    "odometry.crop_radius",
]


class TestRangeChecks:
    @pytest.mark.parametrize("key", NUMERIC_KEYS + REMOVED_KEYS)
    def test_minus_one_rejected_naming_the_key(self, key):
        # a key added without a range check fails here; a removed one is unknown
        items = {**SQUARE, key: "-1"}
        if key in NEGATIVE_ALLOWED:
            assert PipelineConfig.from_items(items)[key] == -1
            return
        section, name = key.split(".", 1)
        prefix = "unknown configuration key" if key in REMOVED_KEYS else section
        with pytest.raises(ValueError, match=f"^{prefix}: ") as e:
            PipelineConfig.from_items(items)
        assert name in str(e.value)

    def test_allow_list_names_numeric_keys(self):
        assert set(NEGATIVE_ALLOWED) <= set(NUMERIC_KEYS)


class TestRemovedKeys:
    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_rejected_as_unknown(self, tmp_path, capsys, key):
        out = tmp_path / "out"
        rc = main(["run", "--synthetic", "square,frames=3", "--set", f"{key}=1",
                   "--out", str(out)])
        assert rc == 1
        assert f"unknown configuration key: {key}" in capsys.readouterr().err
        assert not out.exists()


class TestReadme:
    def test_names_only_real_keys(self):
        # every backticked `section.name` or `section.name=value`, but for
        # `section.*` globs and file names such as `features.py`
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        sections = sorted({key.split(".", 1)[0] for key in pipeline._KEYS})
        pattern = rf"`((?:{'|'.join(sections)})\.[^`=\s]+)(?:=[^`]*)?`"
        named = [key for key in re.findall(pattern, text)
                 if not key.endswith(("*", ".py", ".csv"))]
        assert len(named) >= 10
        assert [key for key in named if key not in pipeline._KEYS] == []


class TestConfigFile:
    def test_comments_and_blanks(self, tmp_path):
        f = tmp_path / "run.conf"
        f.write_text(
            "# a comment\n"
            "\n"
            "synthetic.shape = square  # trailing comment\n"
            "synthetic.frames = 50\n"
        )
        items = parse_config_file(f)
        assert items == {"synthetic.shape": "square", "synthetic.frames": "50"}

    def test_missing_equals_reports_line(self, tmp_path):
        f = tmp_path / "run.conf"
        f.write_text("synthetic.shape = square\nbroken line\n")
        with pytest.raises(ValueError, match=":2"):
            parse_config_file(f)

    def test_overrides(self):
        assert parse_overrides(["a.b=1", "c.d = x "]) == {"a.b": "1", "c.d": "x"}
        with pytest.raises(ValueError, match="key=value"):
            parse_overrides(["a.b"])


class TestCliArgs:
    def test_synthetic_spec_forms(self):
        assert _synthetic_items("corridor") == {"synthetic.shape": "corridor"}
        items = _synthetic_items("square,frames=50,noise=0.02")
        assert items == {
            "synthetic.shape": "square",
            "synthetic.frames": "50",
            "synthetic.noise": "0.02",
        }
        # bare key=value pairs imply the default shape; empty tokens are skipped
        assert _synthetic_items("frames=10")["synthetic.shape"] == "square"
        assert _synthetic_items("square,,frames=8,") == {
            "synthetic.shape": "square", "synthetic.frames": "8"}

    def test_synthetic_help_names_the_world_keys(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        listed = re.search(r"key=value\s+pairs\s+\(([^)]*)\)", capsys.readouterr().out)
        assert [key.strip() for key in listed.group(1).split(",")] == list(WORLD_DEFAULTS)

    def test_flag_precedence(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "synthetic.shape = circle\nsynthetic.noise = 0.1\noutput.dir = from_file\n"
        )
        args = build_parser().parse_args(
            ["run", str(conf), "--synthetic", "square", "--no-loop",
             "--fixed-threshold", "30", "--out", "from_flag",
             "--eval", "gt.txt", "--set", "synthetic.noise=0.5"]
        )
        items = _collect_items(args)
        assert items["synthetic.shape"] == "square"  # flag beats file
        assert items["synthetic.noise"] == "0.5"  # --set beats both
        assert items["output.dir"] == "from_flag"
        assert items["run.no_loop"] == "true"
        assert items["run.fixed_threshold"] == "30.0"
        assert items["dataset.poses"] == "gt.txt"

    def test_main_rejects_unknown_key(self, capsys):
        rc = main(["run", "--synthetic", "square", "--set", "bogus.key=1"])
        assert rc == 1
        assert "unknown configuration key" in capsys.readouterr().err

    def test_main_requires_input(self, capsys):
        rc = main(["run"])
        assert rc == 1
        assert "no input" in capsys.readouterr().err

    def test_main_missing_dataset_dir(self, tmp_path, capsys):
        rc = main(["run", "--set", f"dataset.scans={tmp_path / 'nope'}",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_poses_without_calib_rejected(self, tmp_path, capsys):
        message = "dataset: dataset.poses requires dataset.calib"
        with pytest.raises(ValueError, match=re.escape(message)):
            PipelineConfig.from_items({"dataset.scans": str(tmp_path),
                                       "dataset.poses": str(tmp_path / "poses.txt")})
        rc = main(["run", "--set", f"dataset.scans={tmp_path}",
                   "--eval", str(tmp_path / "poses.txt"), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("meters", ["0", "-5"])
    def test_nonpositive_fixed_threshold_rejected(self, tmp_path, capsys, meters):
        # the flag asks for a fixed gate, so it does not fall back to the
        # adaptive one as run.fixed_threshold <= 0 does
        rc = main(["run", "--synthetic", "square,frames=3", "--fixed-threshold", meters,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--fixed-threshold must be > 0, got {float(meters)}" in err
        assert not (tmp_path / "out").exists()

    def test_short_two_room_world_noted(self, tmp_path, capsys):
        # the two-room path has a fixed length; frames only cuts it short
        out = tmp_path / "out"
        rc = main(["run", "--synthetic", "two_rooms,separation=20,step=2,frames=1000",
                   "--no-loop", "--out", str(out)])
        assert rc == 0
        frames = len(two_room_path(20.0, 2.0))
        assert capsys.readouterr().err == (
            f"featslam: note: the two_rooms world has {frames} frames, fewer than "
            "synthetic.frames = 1000\n"
        )
        assert len((out / "trajectory_kitti.txt").read_text().splitlines()) == frames

    def test_default_frames_not_noted(self, tmp_path, capsys):
        # the default frames asks for no length, so the cut path is no news
        assert len(two_room_path(20.0, 2.0)) < WORLD_DEFAULTS["frames"]
        rc = main(["run", "--synthetic", "two_rooms,separation=20,step=2",
                   "--no-loop", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_eval_path_noted_as_ignored_for_synthetic(self, tmp_path, capsys):
        rc = main(["run", "--synthetic", "square,frames=3",
                   "--eval", str(tmp_path / "poses.txt"),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "ignoring dataset.poses" in capsys.readouterr().err

    def test_run_notes_ignored_poses(self, tmp_path, capsys):
        # the note comes from the run, so a run started from Python gives it
        config = PipelineConfig.from_items(
            {**SQUARE, "synthetic.frames": "3", "dataset.poses": str(tmp_path / "poses.txt"),
             "output.dir": str(tmp_path / "out")})
        assert pipeline.run(config) == 0
        assert capsys.readouterr().err == (
            "featslam: note: ignoring dataset.poses for synthetic input\n")


class TestDegenerateInputs:
    def test_run_slam_no_scans(self):
        cfg = PipelineConfig.from_items(SQUARE)
        result = run_slam([], cfg)
        assert result.trajectory == []
        assert result.events == []

    def test_empty_dataset_directory(self, tmp_path, capsys):
        # a directory without .bin scans is an error, not an empty run
        scans = tmp_path / "scans"
        scans.mkdir()
        (scans / "notes.txt").write_text("not a scan\n")
        out = tmp_path / "out"
        rc = main(["run", "--set", f"dataset.scans={scans}", "--out", str(out)])
        assert rc == 1
        assert f"no .bin scans in dataset directory: {scans}" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def run_two_scans(tmp_path, num_poses):
        """Run two one-point scans against num_poses identity poses."""
        scans = tmp_path / "scans"
        scans.mkdir()
        for name in ("000000.bin", "000001.bin"):
            np.array([[5.0, 1.0, 0.5, 0.0]], dtype=np.float32).tofile(scans / name)
        poses = tmp_path / "poses.txt"
        poses.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n" * num_poses)
        calib = tmp_path / "calib.txt"
        calib.write_text("Tr: 1 0 0 0 0 1 0 0 0 0 1 0\n")
        return main(["run", "--set", f"dataset.scans={scans}",
                     "--set", f"dataset.poses={poses}",
                     "--set", f"dataset.calib={calib}",
                     "--out", str(tmp_path / "out")])

    def test_truth_shorter_than_scans(self, tmp_path, capsys):
        assert self.run_two_scans(tmp_path, 1) == 1
        assert "ground truth has 1 poses for 2 scans" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_truth_longer_than_scans(self, tmp_path, capsys):
        assert self.run_two_scans(tmp_path, 3) == 1
        assert "ground truth has 3 poses for 2 scans" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# One modest world with a genuine revisit, run once and inspected by several
# tests. Odometry is under-iterated to keep the suite fast; the loop stage
# keeps its full budget so closures still land.
WORLD = "square,frames=230,size=24,laps=1.5,noise=0.01,seed=0"
SPEED = ["--set", "odometry.max_iterations=2", "--set", "odometry.refine_iterations=2",
         "--set", "loop.max_iterations=80"]


def _loops_sans_timing(out_dir):
    """loops.csv rows minus the wall-clock millis column."""
    lines = (out_dir / "loops.csv").read_text().splitlines()
    return [line.rsplit(",", 1)[0] for line in lines]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = main(["run", "--synthetic", WORLD, "--out", str(out)] + SPEED)
    assert rc == 0
    return out


class TestEndToEnd:
    def test_trajectory_files(self, finished_run):
        kitti = (finished_run / "trajectory_kitti.txt").read_text().splitlines()
        tum = (finished_run / "trajectory_tum.txt").read_text().splitlines()
        assert len(kitti) == 230
        assert len(tum) == 230
        assert len(kitti[0].split()) == 12
        assert len(tum[0].split()) == 8

    def test_loop_log_has_accepted_closure(self, finished_run):
        lines = (finished_run / "loops.csv").read_text().splitlines()
        assert lines[0] == "from,to,d,d_thre,sc_distance,accepted,cost,millis"
        accepted = [l for l in lines[1:] if l.split(",")[5] == "1"]
        assert len(accepted) >= 1

    def test_map_written(self, finished_run):
        header = (finished_run / "map.ply").read_bytes()[:200]
        assert header.startswith(b"ply")
        assert b"vertex" in header

    def test_evaluation_json(self, finished_run):
        report = json.loads((finished_run / "evaluation.json").read_text())
        assert report["loops_accepted"] >= 1
        assert report["mean_loop_ms"] > 0
        assert "ate_percent" in report
        plot = (finished_run / "plot.csv").read_text().splitlines()
        assert plot[0] == "frame,est_x,est_y,gt_x,gt_y"
        assert len(plot) == 231

    def test_plot_estimate_starts_at_truth(self, finished_run):
        # the square course starts at (0, -12) heading +x, the estimate at
        # the identity: plot.csv draws the estimate from truth's first pose,
        # and the tracks stay within 1 m of each other (0.27 m at most)
        with open(finished_run / "plot.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert (rows[0]["est_x"], rows[0]["est_y"]) == (rows[0]["gt_x"], rows[0]["gt_y"])
        assert (float(rows[0]["gt_x"]), float(rows[0]["gt_y"])) == (0.0, -12.0)
        xy = np.array([[float(row[k]) for k in ("est_x", "est_y", "gt_x", "gt_y")]
                       for row in rows])
        assert np.hypot(*(xy[:, :2] - xy[:, 2:]).T).max() < 1.0

    def test_rerun_is_byte_identical(self, finished_run, tmp_path):
        out = tmp_path / "again"
        rc = main(["run", "--synthetic", WORLD, "--out", str(out)] + SPEED)
        assert rc == 0
        for name in ("trajectory_kitti.txt", "map.ply"):
            assert (out / name).read_bytes() == (finished_run / name).read_bytes()
        assert _loops_sans_timing(out) == _loops_sans_timing(finished_run)

    def test_graph_log_has_one_row_per_accepted_loop(self, finished_run):
        with open(finished_run / "loops.csv", newline="") as f:
            loops = list(csv.DictReader(f))
        with open(finished_run / "graph.csv", newline="") as f:
            reader = csv.DictReader(f)
            assert reader.fieldnames == [
                "keyframe", "nodes", "edges", "iterations", "initial_cost",
                "final_cost", "converged", "millis",
            ]
            rows = list(reader)
        accepted = [row for row in loops if row["accepted"] == "1"]
        assert len(rows) == len(accepted)
        assert [row["keyframe"] for row in rows] == [row["from"] for row in accepted]
        for row in rows:
            assert float(row["final_cost"]) <= float(row["initial_cost"])

    def test_lines_end_in_lf(self, finished_run):
        names = sorted(path.name for path in finished_run.iterdir())
        assert names == ["evaluation.json", "frames.csv", "graph.csv", "loops.csv",
                         "map.ply", "plot.csv", "trajectory_kitti.txt",
                         "trajectory_tum.txt"]
        for name in names:
            assert b"\r" not in (finished_run / name).read_bytes(), name

    def test_no_loop_flag_suppresses_events(self, finished_run, tmp_path):
        out = tmp_path / "odo"
        rc = main(["run", "--synthetic", "square,frames=40,size=24,seed=0",
                   "--no-loop", "--out", str(out)] + SPEED)
        assert rc == 0
        assert (out / "loops.csv").read_text().splitlines() == [
            "from,to,d,d_thre,sc_distance,accepted,cost,millis"
        ]


class TestFrameLog:
    COLUMNS = ["frame", "keyframe", "iterations", "associations", "converged",
               "degenerate_directions", "edge_matches", "plane_matches", "final_cost",
               "dropped_points"]

    @staticmethod
    def rows(path):
        with open(path, newline="") as f:
            return list(csv.DictReader(f))

    def test_rows_equal_the_slam_result(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--synthetic", "square,frames=12,size=24,seed=3", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""  # every frame estimated its pose
        config = PipelineConfig.from_items(
            _synthetic_items("square,frames=12,size=24,seed=3")
        )
        scans, _ = generate_world(pipeline._section(config.values, "synthetic"))
        result = run_slam(scans, config)

        rows = self.rows(out / "frames.csv")
        assert list(rows[0]) == self.COLUMNS
        assert len(rows) == len(scans) == len(result.registrations)
        assert [row["frame"] for row in rows] == [str(i) for i in range(len(scans))]
        keyframes = set(result.keyframe_frames)
        assert [row["keyframe"] for row in rows] == [
            str(int(i in keyframes)) for i in range(len(scans))
        ]
        assert result.registrations[0] is None
        assert all(rows[0][key] == "" for key in self.COLUMNS[2:-1])
        for row, reg in zip(rows[1:], result.registrations[1:]):
            assert int(row["iterations"]) == reg.iterations
            assert int(row["associations"]) == reg.associations
            assert row["converged"] == str(int(reg.converged))
            assert int(row["degenerate_directions"]) == reg.degenerate_directions
            assert int(row["edge_matches"]) == reg.num_edge_matches
            assert int(row["plane_matches"]) == reg.num_plane_matches
            assert float(row["final_cost"]) == reg.final_cost
        assert [int(row["dropped_points"]) for row in rows] == result.dropped_points

    @pytest.mark.parametrize("constants, sets", [
        pytest.param({"MAX_EDGES_PER_SECTOR": 0}, [], id="features.max_edges_per_sector=0"),
        pytest.param({}, ["--set", "odometry.max_correspondence_distance=1e-6"],
                     id="odometry.max_correspondence_distance=1e-6"),
    ])
    def test_skipped_registration_reports_six_directions(self, tmp_path, capsys, monkeypatch,
                                                         constants, sets):
        # a submap with no edges, or no match within reach, ends registration
        # early: no direction was estimated, and the row and the run's one
        # note must say so
        for name, value in constants.items():
            monkeypatch.setattr(features, name, value)
        out = tmp_path / "out"
        rc = main(["run", "--synthetic", "square,frames=20,seed=0", *sets,
                   "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == (
            "featslam: note: 19 of 19 registrations estimated no direction of the "
            "pose (degenerate_directions 6 in frames.csv)\n"
        )
        rows = self.rows(out / "frames.csv")[1:]
        assert len(rows) == 19
        assert all(row["degenerate_directions"] == "6" for row in rows)
        assert all(row["converged"] == "0" for row in rows)

    @staticmethod
    def break_frame(monkeypatch, bad_frame):
        """Give frame bad_frame infinite plane normals, so its normal
        equations are non-finite.  Returns a list that the run fills with
        the submap's (edges, planars) before and after that frame."""
        real_process_frame, real_associate = pipeline.process_frame, odometry.associate
        frame, submaps = [], []

        def process_frame(poses, scan, submap, *args):
            frame[:] = [len(poses)]
            if frame == [bad_frame]:
                submaps.append((submap.edges.points, submap.planars.points))
            out = real_process_frame(poses, scan, submap, *args)
            if frame == [bad_frame]:
                submaps.append((submap.edges.points, submap.planars.points))
            return out

        def associate(*args):
            corr = real_associate(*args)
            if frame == [bad_frame]:
                corr.plane_normals = np.full_like(corr.plane_normals, np.inf)
            return corr

        monkeypatch.setattr(pipeline, "process_frame", process_frame)
        monkeypatch.setattr(odometry, "associate", associate)
        return submaps

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_system_is_an_unregistered_frame(self, monkeypatch, tmp_path):
        # a frame whose normal equations are non-finite gets the one failure
        # result, its frames.csv row says so, and the run goes on
        bad_frame = 30
        scans, truth = generate_world({"shape": "square", "frames": 80, "size": 24,
                                       "laps": 0.5, "seed": 0})
        config = PipelineConfig.from_items({**SQUARE, "run.no_loop": "true"})
        clean = run_slam(scans, config)

        self.break_frame(monkeypatch, bad_frame)
        result = run_slam(scans, config)

        reg = result.registrations[bad_frame]
        assert (reg.degenerate_directions, reg.final_cost) == (6, float("inf"))
        assert (reg.converged, reg.iterations) == (False, 1)
        predicted = predict_pose(clean.odometry[:bad_frame])
        np.testing.assert_allclose(reg.pose.matrix(), predicted.matrix(), atol=1e-12)

        # earlier frames are bit-identical to the clean run
        def fields(reg):
            return reg and dataclasses.replace(reg, pose=None)

        assert [fields(reg) for reg in result.registrations[:bad_frame]] == \
            [fields(reg) for reg in clean.registrations[:bad_frame]]
        for got, want in zip(result.odometry[:bad_frame], clean.odometry):
            assert np.array_equal(got.matrix(), want.matrix())
        align = truth[0].compose(result.trajectory[0].inverse())
        errors = [np.linalg.norm(align.compose(p).translation - t.translation)
                  for p, t in zip(result.trajectory, truth)]
        assert max(errors) < 0.5

        pipeline._write_outputs(result, None, tmp_path)
        row = self.rows(tmp_path / "frames.csv")[bad_frame]
        assert (row["degenerate_directions"], row["converged"]) == ("6", "0")
        assert float(row["final_cost"]) == float("inf")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_frame_not_folded_into_submap(self, monkeypatch):
        # the failed frame's features would sit at a pose that is not an
        # estimate: the submap after it is the submap before it
        bad_frame = 30
        scans, _ = generate_world({"shape": "square", "frames": 80, "size": 24,
                                   "laps": 0.5, "seed": 0})
        config = PipelineConfig.from_items({**SQUARE, "run.no_loop": "true"})
        submaps = self.break_frame(monkeypatch, bad_frame)
        result = run_slam(scans[: bad_frame + 1], config)
        assert result.registrations[bad_frame].final_cost == float("inf")
        (edges, planars), (edges_after, planars_after) = submaps
        assert len(edges) and len(planars)
        assert np.array_equal(edges_after, edges)
        assert np.array_equal(planars_after, planars)

    def test_empty_first_scans(self, tmp_path, capsys):
        # only frame 0 bootstraps the submap; frames that meet it still
        # empty keep their prediction, unregistered, and the row and the
        # note count them
        scans, _ = generate_world({"shape": "square", "frames": 4, "size": 24, "seed": 0})
        root = tmp_path / "scans"
        root.mkdir()
        for i in range(2):
            (root / f"{i:06d}.bin").write_bytes(b"")
        for i, scan in enumerate(scans, start=2):
            points = np.column_stack([scan.xyz, np.zeros(len(scan))]).astype("<f4")
            points.tofile(root / f"{i:06d}.bin")
        out = tmp_path / "out"
        assert main(["run", "--set", f"dataset.scans={root}", "--out", str(out)]) == 0
        rows = self.rows(out / "frames.csv")
        assert [row["degenerate_directions"] for row in rows] == ["", "6", "6", "0", "0", "0"]
        assert [row["final_cost"] for row in rows[1:3]] == ["inf", "inf"]
        identity = "1 0 0 0 0 1 0 0 0 0 1 0"
        assert (out / "trajectory_kitti.txt").read_text().splitlines()[:3] == [identity] * 3
        assert capsys.readouterr().err == (
            "featslam: note: 2 of 5 registrations estimated no direction "
            "of the pose (degenerate_directions 6 in frames.csv)\n"
        )

    def test_empty_scans_mid_run(self):
        # frames 20-24 of a 60-frame square run are empty: each associates
        # once, finds no match and keeps its prediction, unregistered, and
        # the run registers on past the gap
        scans, truth = generate_world({"shape": "square", "frames": 230, "noise": 0.01,
                                       "seed": 0, "size": 24.0, "laps": 1.5})
        scans, truth = scans[:60], truth[:60]
        gap = range(20, 25)
        for i in gap:
            scans[i] = RawScan(xyz=np.zeros((0, 3)), ring=np.zeros(0, dtype=int))
        result = run_slam(scans, PipelineConfig.from_items({**SQUARE, "run.no_loop": "true"}))
        unregistered = [i for i, reg in enumerate(result.registrations)
                        if reg is not None and reg.final_cost == float("inf")]
        assert unregistered == list(gap)
        assert [result.registrations[i].associations for i in gap] == [1] * len(gap)
        align = truth[0].compose(result.trajectory[0].inverse())
        errors = [np.linalg.norm(align.compose(p).translation - t.translation)
                  for p, t in zip(result.trajectory, truth)]
        assert max(errors) < 1.5  # 0.875 m; 0.410 m without the gap

    def test_in_memory_nonfinite_points_reported(self, tmp_path):
        scans, _ = generate_world({"shape": "square", "frames": 4, "seed": 0})
        clean = scans[2]
        xyz = clean.xyz.copy()
        xyz[:5, 1] = np.nan
        xyz[5:7, 2] = np.inf
        scans[2] = RawScan(xyz=xyz, ring=clean.ring)
        assert scans[2].dropped == 7
        result = run_slam(scans, PipelineConfig.from_items(SQUARE))
        assert result.dropped_points == [0, 0, 7, 0]
        pipeline._write_outputs(result, None, tmp_path)
        rows = self.rows(tmp_path / "frames.csv")
        assert [row["dropped_points"] for row in rows] == ["0", "0", "7", "0"]


def _kitti_line(pose):
    return " ".join(f"{v:.17g}" for v in pose.matrix()[:3].ravel()) + "\n"


def write_kitti_sequence(root, calibration, frames=3):
    """A KITTI-layout sequence: the first frames of a 60-frame square course as
    velodyne .bin scans, their poses in the camera frame of ``calibration``
    (Tr, LiDAR -> camera) and a calib.txt holding Tr.  Returns the
    dataset.* configuration items."""
    world = square_loop_world(24.0, density=1.0, seed=0)
    lidar = rounded_square_path(24.0, SQUARE_CORNER_RADIUS, 60)[:frames]
    rng = np.random.default_rng(0)
    (root / "scans").mkdir()
    for i, pose in enumerate(lidar):
        scan = simulate_scan(world, pose, LidarModel(), rng)
        points = np.column_stack([scan.xyz, np.zeros(len(scan))]).astype("<f4")
        points.tofile(root / "scans" / f"{i:06d}.bin")
    camera = [calibration.compose(p).compose(calibration.inverse()) for p in lidar]
    (root / "poses.txt").write_text("".join(_kitti_line(p) for p in camera))
    (root / "calib.txt").write_text("Tr: " + _kitti_line(calibration))
    return {f"dataset.{key}": str(root / name) for key, name in
            (("scans", "scans"), ("poses", "poses.txt"), ("calib", "calib.txt"))}


class TestDatasetRun:
    # KITTI's LiDAR -> camera: x forward becomes z forward, plus an offset
    TR = Pose(project_rotation(np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0],
                                         [1.0, 0.0, 0.0]])),
              np.array([-0.004, -0.076, -0.27]))

    def test_evaluated_in_the_camera_frame(self, tmp_path):
        items = write_kitti_sequence(tmp_path, self.TR)
        out = tmp_path / "out"
        sets = [arg for key, value in items.items() for arg in ("--set", f"{key}={value}")]
        assert main(["run", *sets, "--out", str(out)]) == 0
        assert b"\r" not in b"".join(path.read_bytes() for path in out.iterdir())

        config = PipelineConfig.from_items(items)
        scans, truth = pipeline._load_input(config)
        assert len(truth) == 3
        trajectory = run_slam(scans, config).trajectory
        tr, tr_inv = truth.calibration, truth.calibration.inverse()
        expected = kitti_relative_errors(
            [tr.compose(p).compose(tr_inv) for p in trajectory], truth.camera_poses
        )
        report = json.loads((out / "evaluation.json").read_text())
        # three frames are far short of 100 m: no errors, not zero errors
        assert report["ate_percent"] is None and report["are_deg_per_100m"] is None
        assert report == {**json.loads(json.dumps(dataclasses.asdict(expected))),
                          "mean_loop_ms": None, "median_loop_ms": None,
                          "loops_accepted": 0, "loops_rejected": 0}

        gt = load_ground_truth(items["dataset.poses"], items["dataset.calib"]).lidar_poses()
        with open(out / "plot.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [(row["gt_x"], row["gt_y"]) for row in rows] == [
            (f"{p.translation[0]:.6f}", f"{p.translation[1]:.6f}") for p in gt
        ]
        # the estimate in truth's frame: gt_0 est_0^-1 est_i
        align = gt[0].compose(trajectory[0].inverse())
        assert [(row["est_x"], row["est_y"]) for row in rows] == [
            (f"{q.translation[0]:.6f}", f"{q.translation[1]:.6f}")
            for q in (align.compose(p) for p in trajectory)
        ]
        # the camera frame differs from the LiDAR frame the plot is drawn in
        camera_xy = [p.translation[:2] for p in truth.camera_poses]
        assert not np.allclose(camera_xy, [p.translation[:2] for p in gt], atol=0.1)

    def test_malformed_scan_among_good_ones(self, tmp_path, capsys):
        # every file is checked before the output directory is made, though
        # the scans are loaded only as the run reaches them
        items = write_kitti_sequence(tmp_path, self.TR)
        bad = tmp_path / "scans" / "000001.bin"
        bad.write_bytes(bad.read_bytes()[:-4])
        out = tmp_path / "out"
        sets = [arg for key, value in items.items() for arg in ("--set", f"{key}={value}")]
        assert main(["run", *sets, "--out", str(out)]) == 1
        assert "000001.bin: size" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_scan_among_good_ones(self, tmp_path, capsys):
        # a directory named like a scan has a size that is a multiple of 16
        # but does not open as a file; it fails before the output directory
        items = write_kitti_sequence(tmp_path, self.TR)
        bad = tmp_path / "scans" / "000001.bin"
        bad.unlink()
        bad.mkdir()
        out = tmp_path / "out"
        sets = [arg for key, value in items.items() for arg in ("--set", f"{key}={value}")]
        assert main(["run", *sets, "--out", str(out)]) == 1
        assert "000001.bin" in capsys.readouterr().err
        assert not out.exists()

    def test_scans_loaded_one_at_a_time(self, tmp_path, monkeypatch):
        items = write_kitti_sequence(tmp_path, self.TR)
        calls = []
        real_load, real_frame = pipeline.load_scan, pipeline.process_frame

        def load_scan(path):
            calls.append("load")
            return real_load(path)

        def process_frame(*args):
            calls.append("frame")
            return real_frame(*args)

        monkeypatch.setattr(pipeline, "load_scan", load_scan)
        monkeypatch.setattr(pipeline, "process_frame", process_frame)
        assert main(["run", "--set", f"dataset.scans={items['dataset.scans']}",
                     "--out", str(tmp_path / "out")]) == 0
        assert calls == ["load", "frame"] * 3

    def test_scans_without_poses(self, tmp_path):
        # no truth: every file of the run but the evaluation and the plot
        items = write_kitti_sequence(tmp_path, self.TR)
        out = tmp_path / "out"
        assert main(["run", "--set", f"dataset.scans={items['dataset.scans']}",
                     "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "frames.csv", "graph.csv", "loops.csv", "map.ply",
            "trajectory_kitti.txt", "trajectory_tum.txt"]
        assert len((out / "trajectory_kitti.txt").read_text().splitlines()) == 3
        assert len((out / "frames.csv").read_text().splitlines()) == 4
