"""Integration tests that mirror the paper's figures and claims end to end.

Each test class corresponds to one experiment id of the benchmark suite (the
docstring of each ``benchmarks/bench_*.py`` names its id) and exercises the full stack: simulator → transformation → learning → query
generation → CEP detection → application actions.
"""

import pytest

from repro.apps import CubeNavigator, GestureBindings, GraphNavigator, collaboration_demo_graph, olap_demo_cube
from repro.cep.parser import parse_query
from repro.core import (
    GestureLearner,
    LearnerConfig,
    PatternOptimizer,
    PatternValidator,
    QueryGenerator,
)
from repro.detection import GestureDetector, LearningWorkflow
from repro.evaluation import DetectionExperiment, ExperimentConfig, WorkloadConfig, build_workload
from repro.kinect import (
    CircleTrajectory,
    GaussianNoise,
    KinectSimulator,
    PushTrajectory,
    SwipeTrajectory,
    WaveTrajectory,
    user_by_name,
)
from repro.streams import SimulatedClock

import numpy as np


def _simulator(user="adult", seed=11, position=(0.0, 0.0, 2200.0), yaw=0.0):
    return KinectSimulator(
        user=user_by_name(user),
        clock=SimulatedClock(),
        noise=GaussianNoise(sigma_mm=6.0, rng=np.random.default_rng(seed)),
        rng=np.random.default_rng(seed + 1),
        position=position,
        yaw_deg=yaw,
    )


class TestFig1SwipeRightQuery:
    """F1: the learned swipe_right query has the structure of the paper's Fig. 1
    and detects the gesture end to end."""

    @pytest.fixture(scope="class")
    def learned(self):
        simulator = _simulator()
        swipe = SwipeTrajectory("right")
        learner = GestureLearner("swipe_right", config=LearnerConfig(joints=("rhand",)))
        for _ in range(4):
            learner.add_sample(
                simulator.perform_variation(swipe, hold_start_s=0.3, hold_end_s=0.3)
            )
        description = learner.description()
        query = QueryGenerator().generate(description)
        return description, query

    def test_three_to_five_poses_like_the_paper(self, learned):
        description, _ = learned
        assert 3 <= description.pose_count <= 6

    def test_pose_centres_follow_fig1_path(self, learned):
        description, _ = learned
        first = description.poses[0].window.center
        last = description.poses[-1].window.center
        assert first["rhand_x"] == pytest.approx(0.0, abs=120.0)
        assert last["rhand_x"] == pytest.approx(800.0, abs=150.0)
        assert first["rhand_y"] == pytest.approx(150.0, abs=100.0)
        assert first["rhand_z"] == pytest.approx(-120.0, abs=120.0)

    def test_query_text_has_fig1_shape(self, learned):
        _, query = learned
        text = query.to_query()
        assert text.startswith('SELECT "swipe_right"')
        assert "abs(rhand_x" in text
        assert "->" in text
        assert "within" in text and "select first consume all" in text
        assert parse_query(text).output == "swipe_right"

    def test_deployed_query_detects_new_performances(self, learned):
        _, query = learned
        detector = GestureDetector()
        detector.deploy(query)
        simulator = _simulator(seed=99)
        hits = 0
        for _ in range(5):
            detector.clear()
            detector.process_frames(
                simulator.perform_variation(SwipeTrajectory("right"),
                                            hold_start_s=0.2, hold_end_s=0.2)
            )
            hits += int(any(e.gesture == "swipe_right" for e in detector.events))
        assert hits >= 4

    def test_deployed_query_ignores_other_gestures(self, learned):
        _, query = learned
        detector = GestureDetector()
        detector.deploy(query)
        simulator = _simulator(seed=100)
        false_positives = 0
        for trajectory in (CircleTrajectory(), PushTrajectory()):
            for _ in range(3):
                detector.clear()
                detector.process_frames(
                    simulator.perform_variation(trajectory, hold_start_s=0.2, hold_end_s=0.2)
                )
                false_positives += len(detector.events)
        assert false_positives == 0


class TestFig3Invariance:
    """F3: position, orientation and body-size invariance of the transformation."""

    @pytest.fixture(scope="class")
    def swipe_query(self):
        simulator = _simulator()
        learner = GestureLearner("swipe_right", config=LearnerConfig(joints=("rhand",)))
        for _ in range(4):
            learner.add_sample(
                simulator.perform_variation(SwipeTrajectory("right"),
                                            hold_start_s=0.3, hold_end_s=0.3)
            )
        return QueryGenerator().generate(learner.description())

    def _detects(self, query, simulator):
        detector = GestureDetector()
        detector.deploy(query)
        detector.process_frames(
            simulator.perform_variation(SwipeTrajectory("right"),
                                        hold_start_s=0.2, hold_end_s=0.2)
        )
        return any(event.gesture == "swipe_right" for event in detector.events)

    def test_detection_survives_user_displacement(self, swipe_query):
        for position in [(-600.0, 0.0, 1800.0), (500.0, 100.0, 3000.0)]:
            assert self._detects(swipe_query, _simulator(seed=5, position=position))

    def test_detection_survives_body_size_change(self, swipe_query):
        for user in ("child", "tall_adult"):
            assert self._detects(swipe_query, _simulator(user=user, seed=6))

    def test_detection_survives_user_rotation(self, swipe_query):
        assert self._detects(swipe_query, _simulator(seed=7, yaw=25.0))


class TestClaimSamplesSufficiency:
    """C1: '3-5 samples are sufficient to achieve acceptable results'."""

    def test_recall_saturates_by_five_samples(self):
        workload = build_workload(
            WorkloadConfig(gestures=("swipe_right", "circle", "push"),
                           training_samples=5, test_performances=2,
                           test_users=("adult", "child"))
        )
        recalls = {}
        for samples in (1, 3, 5):
            result = DetectionExperiment(
                workload, ExperimentConfig(training_samples=samples)
            ).run()
            recalls[samples] = result.macro_recall
        assert recalls[5] >= 0.8
        assert recalls[3] >= recalls[1] - 0.05
        assert recalls[5] >= recalls[1] - 0.05


class TestClaimOverfitting:
    """C2: raw per-frame poses overfit; distance sampling generalises."""

    def test_sampled_description_has_far_fewer_poses_than_frames(self):
        simulator = _simulator()
        frames = simulator.perform_variation(SwipeTrajectory("right"),
                                             hold_start_s=0.3, hold_end_s=0.3)
        learner = GestureLearner("swipe_right", config=LearnerConfig(joints=("rhand",)))
        learner.add_sample(frames)
        description = learner.description()
        assert description.pose_count <= len(frames) / 5


class TestClaimOverlap:
    """C3: widening windows too much makes different gestures overlap, and
    the validator reports exactly that."""

    @pytest.fixture(scope="class")
    def descriptions(self):
        simulator = _simulator()
        catalog = {"swipe_right": SwipeTrajectory("right"), "circle": CircleTrajectory()}
        result = {}
        for name, trajectory in catalog.items():
            learner = GestureLearner(name, config=LearnerConfig(joints=("rhand",)))
            for _ in range(3):
                learner.add_sample(
                    simulator.perform_variation(trajectory, hold_start_s=0.3, hold_end_s=0.3)
                )
            result[name] = learner.description()
        return result

    def test_unscaled_patterns_do_not_conflict(self, descriptions):
        report = PatternValidator().validate(list(descriptions.values()))
        assert not report.has_conflicts

    def test_heavy_scaling_creates_overlaps(self, descriptions):
        scaled = [description.scaled(6.0) for description in descriptions.values()]
        report = PatternValidator().validate(scaled)
        assert report.overlaps
        assert report.has_conflicts


class TestClaimOptimization:
    """C4: optimisation reduces predicate evaluations without losing recall."""

    def test_optimised_pattern_is_cheaper_and_still_detects(self):
        simulator = _simulator()
        learner = GestureLearner("swipe_right", config=LearnerConfig(joints=("rhand",)))
        for _ in range(4):
            learner.add_sample(
                simulator.perform_variation(SwipeTrajectory("right"),
                                            hold_start_s=0.3, hold_end_s=0.3)
            )
        description = learner.description()
        optimised, report = PatternOptimizer().optimize(description)
        assert optimised.predicate_count() <= description.predicate_count()

        generator = QueryGenerator()
        test_sim = _simulator(seed=55)
        for candidate in (description, optimised):
            detector = GestureDetector()
            detector.deploy(generator.generate(candidate))
            detector.process_frames(
                test_sim.perform_variation(SwipeTrajectory("right"),
                                           hold_start_s=0.2, hold_end_s=0.2)
            )
            assert any(event.gesture == "swipe_right" for event in detector.events)


class TestA1ApplicationIntegration:
    """A1: learned gestures drive OLAP and graph navigation."""

    def test_gestures_drive_olap_and_graph_navigation(self):
        simulator = _simulator()
        catalog = {
            "swipe_right": SwipeTrajectory("right"),
            "push": PushTrajectory(),
        }
        detector = GestureDetector()
        for name, trajectory in catalog.items():
            learner = GestureLearner(name, config=LearnerConfig(joints=("rhand",)))
            for _ in range(3):
                learner.add_sample(
                    simulator.perform_variation(trajectory, hold_start_s=0.3, hold_end_s=0.3)
                )
            detector.deploy(learner.description())

        cube_navigator = CubeNavigator(olap_demo_cube(), "time", "geography")
        graph_navigator = GraphNavigator(collaboration_demo_graph(), "kevin_bacon")
        bindings = GestureBindings(detector)
        bindings.bind("swipe_right", cube_navigator.drill_down, name="drill_down")
        bindings.bind("push", graph_navigator.follow, name="follow")

        test_sim = _simulator(seed=77)
        detector.process_frames(
            test_sim.perform_variation(SwipeTrajectory("right"), hold_start_s=0.2, hold_end_s=0.2)
        )
        test_sim.idle_frames(0.5)
        detector.process_frames(
            test_sim.perform_variation(PushTrajectory(), hold_start_s=0.2, hold_end_s=0.2)
        )

        assert cube_navigator.row_level == "quarter"
        assert graph_navigator.current != "kevin_bacon"
        assert len(bindings.log.successes()) == 2

    def test_bindings_can_be_exchanged_at_runtime(self):
        """The demo's selling point: exchange navigation operations without
        touching application code or re-learning gestures."""
        detector = GestureDetector()
        detector.deploy('SELECT "swipe_right" MATCHING kinect_t(rhand_x > 100000);')
        cube_navigator = CubeNavigator(olap_demo_cube(), "time", "geography")
        bindings = GestureBindings(detector)
        bindings.bind("swipe_right", cube_navigator.drill_down, name="drill_down")
        bindings.rebind("swipe_right", cube_navigator.pivot, name="pivot")
        bindings.trigger("swipe_right")
        assert cube_navigator.history == ["pivot"]


class TestWorkflowStreaming:
    """F2/F5: the stream-driven workflow — control gesture arms recording, a
    stationary pose starts/stops it, and the testing phase produces feedback."""

    def test_wave_control_arms_recording_and_sample_is_captured(self):
        workflow = LearningWorkflow()
        simulator = KinectSimulator(
            clock=SimulatedClock(),
            noise=GaussianNoise(sigma_mm=4.0, rng=np.random.default_rng(3)),
            rng=np.random.default_rng(4),
        )
        workflow.begin_gesture("push")

        # 1. The user waves -> the control query fires -> controller armed.
        for frame in simulator.perform(WaveTrajectory(), hold_start_s=0.2, hold_end_s=0.2):
            workflow.process_frame(frame)
        assert any("wave detected" in message for message in workflow.messages)

        # 2. The user moves to the start pose, holds still, performs the
        #    gesture, and holds still again -> one sample recorded.
        for frame in simulator.perform(PushTrajectory(), hold_start_s=1.0, hold_end_s=1.0):
            workflow.process_frame(frame)
        assert workflow.sample_count == 1

    def test_feedback_reports_partial_progress_during_testing(self):
        workflow = LearningWorkflow()
        simulator = _simulator(seed=21)
        workflow.begin_gesture("swipe_right")
        for _ in range(3):
            workflow.record_sample(
                simulator.perform_variation(SwipeTrajectory("right"),
                                            hold_start_s=0.3, hold_end_s=0.3)
            )
        workflow.finalize()
        # Stream only the first half of a new performance: no detection yet,
        # but the partial-match progress must be visible (Fig. 5 feedback).
        frames = simulator.perform_variation(SwipeTrajectory("right"), hold_start_s=0.2)
        workflow.process_frames(frames[: len(frames) // 2])
        feedback = workflow.feedback()
        assert feedback.progress["swipe_right"] > 0.0
        assert workflow.test_events() == []
