"""Unit tests for repro.transform (coordinate, rotation, pipeline)."""


import pytest

from repro.kinect import KinectSimulator, NoNoise, SwipeTrajectory, user_by_name
from repro.streams import SimulatedClock
from repro.transform.coordinate import (
    REFERENCE_FOREARM_MM,
    forearm_scale,
    scale_coordinates,
    shift_to_torso,
)
from repro.transform.pipeline import KinectTransformer, TransformConfig, transform_frame
from repro.transform.rotation import (
    estimate_yaw_deg,
    joint_roll_pitch_yaw,
    roll_pitch_yaw,
    rotate_about_y,
)


def _rest_frame(user="adult", position=(0.0, 0.0, 2200.0), yaw=0.0):
    simulator = KinectSimulator(
        user=user_by_name(user),
        clock=SimulatedClock(),
        noise=NoNoise(),
        position=position,
        yaw_deg=yaw,
    )
    return simulator.measure_rest()


class TestShiftToTorso:
    def test_torso_becomes_origin(self):
        shifted = shift_to_torso(_rest_frame(position=(300.0, 100.0, 2500.0)))
        assert shifted["torso_x"] == pytest.approx(0.0)
        assert shifted["torso_y"] == pytest.approx(0.0)
        assert shifted["torso_z"] == pytest.approx(0.0)

    def test_relative_geometry_is_preserved(self):
        frame = _rest_frame(position=(300.0, 100.0, 2500.0))
        shifted = shift_to_torso(frame)
        assert shifted["head_y"] == pytest.approx(frame["head_y"] - frame["torso_y"])

    def test_position_invariance(self):
        near = shift_to_torso(_rest_frame(position=(0.0, 0.0, 1800.0)))
        far = shift_to_torso(_rest_frame(position=(700.0, 0.0, 3500.0)))
        assert near["rhand_x"] == pytest.approx(far["rhand_x"], abs=1e-6)
        assert near["rhand_z"] == pytest.approx(far["rhand_z"], abs=1e-6)

    def test_non_joint_fields_pass_through(self):
        frame = dict(_rest_frame(), ts=1.25, player=2)
        shifted = shift_to_torso(frame)
        assert shifted["ts"] == 1.25
        assert shifted["player"] == 2

    def test_missing_torso_raises(self):
        with pytest.raises(KeyError):
            shift_to_torso({"rhand_x": 0.0, "rhand_y": 0.0, "rhand_z": 0.0})


class TestForearmScale:
    def test_reference_user_measures_reference_forearm(self):
        scale = forearm_scale(_rest_frame())
        assert scale == pytest.approx(REFERENCE_FOREARM_MM, rel=0.02)

    def test_child_measures_proportionally_smaller(self):
        scale = forearm_scale(_rest_frame(user="child"))
        expected = REFERENCE_FOREARM_MM * user_by_name("child").scale
        assert scale == pytest.approx(expected, rel=0.02)

    def test_missing_joints_fall_back(self):
        assert forearm_scale({}) == REFERENCE_FOREARM_MM

    def test_degenerate_measurement_falls_back(self):
        frame = {f"rhand_{a}": 0.0 for a in "xyz"}
        frame.update({f"relbow_{a}": 0.0 for a in "xyz"})
        assert forearm_scale(frame) == REFERENCE_FOREARM_MM

    def test_left_side_option(self):
        assert forearm_scale(_rest_frame(), side="left") == pytest.approx(
            REFERENCE_FOREARM_MM, rel=0.02
        )


class TestScaleCoordinates:
    def test_scaling_maps_child_onto_reference_proportions(self):
        child_frame = shift_to_torso(_rest_frame(user="child"))
        adult_frame = shift_to_torso(_rest_frame(user="adult"))
        child_scaled = scale_coordinates(child_frame, forearm_scale(_rest_frame(user="child")))
        adult_scaled = scale_coordinates(adult_frame, forearm_scale(_rest_frame(user="adult")))
        assert child_scaled["rhand_x"] == pytest.approx(adult_scaled["rhand_x"], rel=0.03)
        assert child_scaled["head_y"] == pytest.approx(adult_scaled["head_y"], rel=0.03)

    def test_reference_one_yields_forearm_units(self):
        frame = shift_to_torso(_rest_frame())
        scaled = scale_coordinates(frame, forearm_scale(_rest_frame()), reference=1.0)
        assert abs(scaled["rhand_x"]) < 3.0  # roughly one forearm away laterally

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            scale_coordinates({"rhand_x": 1.0}, 0.0)

    def test_non_joint_fields_untouched(self):
        scaled = scale_coordinates({"ts": 2.0, "rhand_x": 100.0}, 200.0)
        assert scaled["ts"] == 2.0


class TestRotation:
    def test_yaw_zero_when_facing_camera(self):
        assert estimate_yaw_deg(shift_to_torso(_rest_frame())) == pytest.approx(0.0, abs=2.0)

    def test_yaw_estimate_matches_simulated_turn(self):
        for angle in (20.0, -35.0, 60.0):
            frame = shift_to_torso(_rest_frame(yaw=angle))
            assert estimate_yaw_deg(frame) == pytest.approx(angle, abs=2.0)

    def test_yaw_missing_shoulders_defaults_to_zero(self):
        assert estimate_yaw_deg({}) == 0.0

    def test_rotation_cancels_user_heading(self):
        straight = shift_to_torso(_rest_frame(yaw=0.0))
        turned = shift_to_torso(_rest_frame(yaw=40.0))
        aligned = rotate_about_y(turned, -estimate_yaw_deg(turned))
        assert aligned["rhand_x"] == pytest.approx(straight["rhand_x"], abs=2.0)
        assert aligned["rhand_z"] == pytest.approx(straight["rhand_z"], abs=2.0)

    def test_rotation_preserves_height(self):
        frame = shift_to_torso(_rest_frame(yaw=30.0))
        rotated = rotate_about_y(frame, -30.0)
        assert rotated["head_y"] == pytest.approx(frame["head_y"])

    def test_roll_pitch_yaw_of_axis_aligned_vectors(self):
        roll, pitch, yaw = roll_pitch_yaw((0, 0, 0), (1, 0, 0))
        assert (roll, pitch, yaw) == (0.0, 0.0, 0.0)
        _, pitch_up, _ = roll_pitch_yaw((0, 0, 0), (0, 1, 0))
        assert pitch_up == pytest.approx(90.0)
        _, _, yaw_left = roll_pitch_yaw((0, 0, 0), (0, 0, -1))
        assert yaw_left == pytest.approx(90.0)

    def test_joint_roll_pitch_yaw_uses_frame_fields(self):
        frame = {
            "relbow_x": 0.0, "relbow_y": 0.0, "relbow_z": 0.0,
            "rhand_x": 100.0, "rhand_y": 100.0, "rhand_z": 0.0,
        }
        _, pitch, yaw = joint_roll_pitch_yaw(frame, "relbow", "rhand")
        assert pitch == pytest.approx(45.0)
        assert yaw == pytest.approx(0.0)


class TestPipeline:
    def test_transform_produces_user_independent_swipe(self):
        paths = {}
        for user in ("child", "tall_adult"):
            simulator = KinectSimulator(
                user=user_by_name(user),
                clock=SimulatedClock(),
                noise=NoNoise(),
                position=(400.0 if user == "child" else -300.0, 0.0, 2600.0),
            )
            transformer = KinectTransformer()
            frames = simulator.perform(SwipeTrajectory("right"))
            transformed = [transformer.transform(frame) for frame in frames]
            paths[user] = transformed
        child_end = paths["child"][-1]
        tall_end = paths["tall_adult"][-1]
        assert child_end["rhand_x"] == pytest.approx(tall_end["rhand_x"], rel=0.05)
        assert child_end["rhand_y"] == pytest.approx(tall_end["rhand_y"], abs=30.0)

    def test_transform_adds_scale_field(self):
        transformed = KinectTransformer().transform(_rest_frame())
        assert transformed["scale"] == pytest.approx(REFERENCE_FOREARM_MM, rel=0.05)

    def test_scale_smoothing_converges(self):
        transformer = KinectTransformer(TransformConfig(smooth_scale=0.9))
        frame = _rest_frame(user="child")
        for _ in range(100):
            result = transformer.transform(frame)
        expected = REFERENCE_FOREARM_MM * user_by_name("child").scale
        assert result["scale"] == pytest.approx(expected, rel=0.03)

    def test_reset_clears_smoothing_state(self):
        transformer = KinectTransformer()
        transformer.transform(_rest_frame(user="child"))
        transformer.reset()
        assert transformer.frames_transformed == 0
        assert transformer.active_partitions == 0

    def test_concurrent_players_do_not_blend_scale_factors(self):
        # A child and a tall adult sharing the stream: each player's frames
        # must smooth against their own history only, so the interleaved
        # stream yields the same scales as two isolated transformers.
        child = [_rest_frame(user="child") for _ in range(40)]
        adult = [_rest_frame(user="tall_adult") for _ in range(40)]
        for i, frame in enumerate(child):
            frame.update(player=1, ts=i / 30.0)
        for i, frame in enumerate(adult):
            frame.update(player=2, ts=i / 30.0)

        shared = KinectTransformer(TransformConfig(smooth_scale=0.9))
        interleaved = [
            shared.transform(frame)
            for pair in zip(child, adult)
            for frame in pair
        ]
        isolated_child = KinectTransformer(TransformConfig(smooth_scale=0.9))
        expected_child = [isolated_child.transform(frame) for frame in child]
        isolated_adult = KinectTransformer(TransformConfig(smooth_scale=0.9))
        expected_adult = [isolated_adult.transform(frame) for frame in adult]

        assert [t["scale"] for t in interleaved[0::2]] == [
            t["scale"] for t in expected_child
        ]
        assert [t["scale"] for t in interleaved[1::2]] == [
            t["scale"] for t in expected_adult
        ]
        assert shared.active_partitions == 2
        # Sanity: the two bodies converge to genuinely different scales.
        assert interleaved[-2]["scale"] != pytest.approx(
            interleaved[-1]["scale"], rel=0.2
        )

    def test_unpartitioned_transformer_blends_players(self):
        # partition_field=None restores the single shared smoothing slot.
        config = TransformConfig(smooth_scale=0.9, partition_field=None)
        shared = KinectTransformer(config)
        child = _rest_frame(user="child")
        child.update(player=1, ts=0.0)
        adult = _rest_frame(user="tall_adult")
        adult.update(player=2, ts=1 / 30.0)
        first = shared.transform(child)["scale"]
        second = shared.transform(adult)["scale"]
        # The adult's scale is dragged toward the child's history.
        alone = KinectTransformer(config).transform(dict(adult))["scale"]
        assert second != pytest.approx(alone, rel=0.01)
        assert abs(second - first) < abs(alone - first)

    def test_idle_partition_state_is_evicted(self):
        config = TransformConfig(smooth_scale=0.9, partition_idle_seconds=5.0)
        transformer = KinectTransformer(config)
        child = _rest_frame(user="child")
        child.update(player=1, ts=0.0)
        transformer.transform(child)
        smoothed = transformer.smoothed_scale(1)
        assert smoothed is not None
        # The same player id returns after the idle TTL — possibly a
        # different person — and must start from a fresh measurement.
        adult = _rest_frame(user="tall_adult")
        adult.update(player=1, ts=10.0)
        returned = transformer.transform(adult)["scale"]
        fresh = KinectTransformer(config).transform(dict(adult))["scale"]
        assert returned == pytest.approx(fresh)

    def test_reset_partition_forgets_single_player(self):
        transformer = KinectTransformer()
        child = _rest_frame(user="child")
        child.update(player=1, ts=0.0)
        adult = _rest_frame(user="tall_adult")
        adult.update(player=2, ts=0.0)
        transformer.transform(child)
        transformer.transform(adult)
        transformer.reset_partition(1)
        assert transformer.smoothed_scale(1) is None
        assert transformer.smoothed_scale(2) is not None

    def test_orientation_alignment_can_be_disabled(self):
        config = TransformConfig(align_orientation=False)
        turned = _rest_frame(yaw=45.0)
        aligned = transform_frame(turned, TransformConfig(align_orientation=True))
        unaligned = transform_frame(turned, config)
        assert aligned["rhand_x"] != pytest.approx(unaligned["rhand_x"], abs=5.0)

    def test_transform_frame_honours_every_config_field(self):
        # transform_frame zeroes smoothing via dataclasses.replace, so any
        # config field (including ones added later, like the partition
        # settings) survives instead of being silently dropped.
        config = TransformConfig(
            align_orientation=False,
            scale_side="left",
            scale_reference_mm=100.0,
            smooth_scale=0.5,
            partition_field="player",
            partition_idle_seconds=1.0,
        )
        frame = _rest_frame(yaw=45.0)
        result = transform_frame(frame, config)
        import dataclasses

        manual_cfg = dataclasses.replace(config, smooth_scale=0.0)
        expected = KinectTransformer(manual_cfg).transform(frame)
        assert result == expected
        # And the non-smoothing fields genuinely took effect.
        default = transform_frame(frame)
        assert result["rhand_x"] != pytest.approx(default["rhand_x"], abs=1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TransformConfig(scale_side="middle")
        with pytest.raises(ValueError):
            TransformConfig(partition_idle_seconds=0.0)
        with pytest.raises(ValueError):
            TransformConfig(smooth_scale=1.5)
        with pytest.raises(ValueError):
            TransformConfig(scale_reference_mm=0.0)

    def test_transform_frame_is_stateless_convenience(self):
        frame = _rest_frame()
        assert transform_frame(frame)["torso_x"] == pytest.approx(0.0)


class TestGlitchFrames:
    """A tracking glitch (forearm shorter than plausible, or a hand or elbow
    missing) keeps the player's last smoothed scale instead of smoothing
    the reference forearm in."""

    @staticmethod
    def _forearm_frame(length_mm, ts, player=1):
        frame = {f"torso_{a}": 0.0 for a in "xyz"}
        frame.update({f"relbow_{a}": 0.0 for a in "xyz"})
        frame.update(rhand_x=length_mm, rhand_y=0.0, rhand_z=0.0, ts=ts, player=player)
        return frame

    def test_glitch_keeps_the_previous_smoothed_scale(self):
        transformer = KinectTransformer()
        for i in range(5):
            transformer.transform(self._forearm_frame(150.0, ts=i / 30.0))
        assert transformer.smoothed_scale(1) == 150.0
        glitch = transformer.transform(self._forearm_frame(0.0, ts=5 / 30.0))
        assert glitch["scale"] == 150.0
        assert transformer.smoothed_scale(1) == 150.0

    def test_missing_hand_keeps_the_previous_smoothed_scale(self):
        transformer = KinectTransformer(TransformConfig(smooth_scale=0.0))
        transformer.transform(self._forearm_frame(150.0, ts=0.0))
        frame = self._forearm_frame(150.0, ts=1 / 30.0)
        del frame["rhand_y"]
        assert transformer.transform(frame)["scale"] == 150.0

    def test_glitch_without_history_uses_the_reference(self):
        transformer = KinectTransformer()
        assert transformer.transform(self._forearm_frame(0.0, ts=0.0))["scale"] == (
            REFERENCE_FOREARM_MM
        )

    def test_glitch_leaves_other_players_untouched(self):
        transformer = KinectTransformer()
        transformer.transform(self._forearm_frame(150.0, ts=0.0, player=1))
        transformer.transform(self._forearm_frame(200.0, ts=0.0, player=2))
        transformer.transform(self._forearm_frame(0.0, ts=1 / 30.0, player=1))
        assert transformer.smoothed_scale(1) == 150.0
        assert transformer.smoothed_scale(2) == 200.0
