"""Tests of the GestureSession façade (repro.api.session).

Lifecycle (double-start, feed-after-close, context management), handler
exception isolation, per-partition detection filtering, vocabulary
deployment, sink attachment, workflow delegation, and the typed error
hierarchy of the engine lookups the façade is built on.
"""

from __future__ import annotations

import pytest

from repro.api import F, GestureSession, Q, SessionConfig
from repro.cep import CEPEngine, CollectingSink, install_kinect_view
from repro.core import GestureDescription, LearnerConfig, PoseWindow, Window
from repro.detection import WorkflowConfig
from repro.errors import (
    QueryRegistrationError,
    ReproError,
    SessionClosedError,
    SessionError,
    SessionStateError,
    UnknownQueryError,
    UnknownStreamError,
    UnknownViewError,
)
from repro.kinect import KinectSimulator, SwipeTrajectory, user_by_name
from repro.storage import GestureDatabase
from repro.streams import SimulatedClock

HANDS_UP = Q.stream("kinect_t").where(F("rhand_y") > 400).output("hands_up")

#: A frame that satisfies HANDS_UP once pushed straight to the view stream.
def _frame(ts=0.0, rhand_y=500.0, **extra):
    record = {"ts": ts, "rhand_y": rhand_y}
    record.update(extra)
    return record


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_context_manager_starts_and_closes(self):
        with GestureSession() as session:
            assert session.started
            assert not session.closed
        assert session.closed
        assert not session.started

    def test_double_start_raises(self):
        session = GestureSession()
        session.start()
        with pytest.raises(SessionStateError, match="already started"):
            session.start()
        session.close()

    def test_start_inside_context_raises(self):
        with GestureSession() as session:
            with pytest.raises(SessionStateError):
                session.start()

    def test_feed_after_close_raises(self):
        session = GestureSession()
        session.start()
        session.close()
        with pytest.raises(SessionClosedError):
            session.feed([_frame()], stream="kinect_t")
        with pytest.raises(SessionClosedError):
            session.feed_frame(_frame(), stream="kinect_t")
        with pytest.raises(SessionClosedError):
            session.deploy(HANDS_UP)

    def test_start_after_close_raises(self):
        session = GestureSession()
        session.start()
        session.close()
        with pytest.raises(SessionClosedError):
            session.start()

    def test_close_is_idempotent(self):
        session = GestureSession()
        session.start()
        session.close()
        session.close()

    def test_lazy_start_on_first_use(self):
        session = GestureSession()
        assert not session.started
        session.deploy(HANDS_UP)
        assert session.started
        session.close()

    def test_session_error_hierarchy(self):
        assert issubclass(SessionStateError, SessionError)
        assert issubclass(SessionClosedError, SessionStateError)
        assert issubclass(SessionError, ReproError)

    def test_events_accessors_before_start_are_empty(self):
        session = GestureSession()
        assert session.events == []
        assert session.deployed_gestures() == []

    def test_collected_results_stay_readable_after_close(self):
        with GestureSession() as session:
            session.deploy(HANDS_UP)
            session.feed([_frame()], stream="kinect_t")
            assert len(session.events) == 1
        # The with-block closed the session; results must not vanish.
        assert [event.gesture for event in session.events] == ["hands_up"]
        assert session.deployed_gestures() == ["hands_up"]
        assert len(session.detections("hands_up")) == 1

    def test_repr_reports_state(self):
        session = GestureSession()
        assert "new" in repr(session)
        session.start()
        assert "started" in repr(session)
        session.close()
        assert "closed" in repr(session)


# ---------------------------------------------------------------------------
# Deployment, feeding, events
# ---------------------------------------------------------------------------


class TestDetection:
    def test_deploy_builder_feed_view_stream(self):
        with GestureSession() as session:
            session.deploy(HANDS_UP)
            session.feed([_frame()], stream="kinect_t")
            assert [event.gesture for event in session.events] == ["hands_up"]

    def test_sharded_session_deploys_exponent_float_bound(self):
        # Shards receive the query as its to_query() text, which writes
        # small and large floats with an exponent (1e-05).
        near_zero = Q.stream("kinect_t").where(F("rhand_y") < 1e-5).output("near_zero")
        with GestureSession(SessionConfig(shards=2)) as session:
            session.deploy(near_zero)
            session.feed(
                [_frame(ts=0.0, rhand_y=0.0, player=1), _frame(ts=0.1, rhand_y=1.0, player=2)],
                stream="kinect_t",
            )
            session.drain()
            assert [event.gesture for event in session.events] == ["near_zero"]

    def test_deploy_text_and_description(self):
        description = GestureDescription(
            name="poke",
            poses=[PoseWindow(0, Window({"rhand_x": 100.0}, {"rhand_x": 50.0}))],
        )
        with GestureSession() as session:
            session.deploy('SELECT "textual" MATCHING kinect_t( rhand_y > 400 );')
            session.deploy(description)
            assert session.deployed_gestures() == ["poke", "textual"]

    def test_handler_exceptions_do_not_break_delivery(self):
        calls = []

        def broken(event):
            raise RuntimeError("handler bug")

        with GestureSession() as session:
            session.deploy(HANDS_UP)
            session.on("hands_up", broken)
            session.on("hands_up", calls.append)
            session.on_any(calls.append)
            session.feed([_frame()], stream="kinect_t")

            # Both healthy handlers ran, the event was recorded, and the
            # failure was captured instead of propagating.
            assert len(calls) == 2
            assert [event.gesture for event in session.events] == ["hands_up"]
            assert len(session.handler_errors) == 1
            failure = session.handler_errors[0]
            assert failure.gesture == "hands_up"
            assert isinstance(failure.error, RuntimeError)

    def test_on_error_observers_are_notified(self):
        seen = []
        with GestureSession() as session:
            session.deploy(HANDS_UP)
            session.on_error(seen.append)
            session.on("hands_up", lambda event: 1 / 0)
            session.feed([_frame()], stream="kinect_t")
            assert len(seen) == 1
            assert isinstance(seen[0].error, ZeroDivisionError)

    def test_partition_filtering_through_facade(self):
        two_step = (
            Q.stream("kinect_t")
            .where(F("rhand_y") > 400)
            .then(F("rhand_y") < 100)
            .within(5.0)
            .output("drop_hand")
        )
        with GestureSession() as session:
            session.deploy(two_step)
            # Player 1 completes the pattern; player 2 only ever matches the
            # first step, interleaved with player 1's frames.
            session.feed(
                [
                    _frame(ts=0.0, rhand_y=500.0, player=1),
                    _frame(ts=0.1, rhand_y=500.0, player=2),
                    _frame(ts=0.2, rhand_y=50.0, player=1),
                    _frame(ts=0.3, rhand_y=450.0, player=2),
                ],
                stream="kinect_t",
            )
            assert len(session.detections()) == 1
            assert len(session.detections(partition=1)) == 1
            assert session.detections(partition=2) == []
            assert session.detections("drop_hand", partition=1)[0].partition == 1
            assert session.events[0].player == 1

    def test_attach_sink(self):
        sink = CollectingSink()
        with GestureSession() as session:
            session.deploy(HANDS_UP)
            session.attach_sink(sink, query="hands_up")
            session.feed([_frame()], stream="kinect_t")
            assert sink.outputs() == ["hands_up"]

    def test_deploy_with_sink_argument(self):
        sink = CollectingSink()
        with GestureSession() as session:
            session.deploy(HANDS_UP, sink=sink)
            session.feed([_frame()], stream="kinect_t")
            assert sink.outputs() == ["hands_up"]

    def test_batched_feed_matches_per_tuple(self):
        frames = [
            _frame(ts=index * 0.05, rhand_y=500.0 if index % 7 == 0 else 0.0)
            for index in range(100)
        ]
        def run(batch_size):
            with GestureSession(SessionConfig(batch_size=batch_size)) as session:
                session.deploy(HANDS_UP)
                session.feed(frames, stream="kinect_t")
                return [(d.output, d.timestamp) for d in session.detections()]

        assert run(None) == run(16)

    def test_clear_resets_events_and_errors(self):
        with GestureSession() as session:
            session.deploy(HANDS_UP)
            session.on("hands_up", lambda event: 1 / 0)
            session.feed([_frame()], stream="kinect_t")
            assert session.events and session.handler_errors
            session.clear()
            assert session.events == []
            assert session.handler_errors == []
            assert session.detections() == []


# ---------------------------------------------------------------------------
# Learning and vocabularies
# ---------------------------------------------------------------------------


def _swipe_samples(count=4, seed_user="adult"):
    simulator = KinectSimulator(user=user_by_name(seed_user), clock=SimulatedClock())
    swipe = SwipeTrajectory(direction="right")
    return [
        simulator.perform_variation(swipe, hold_start_s=0.3, hold_end_s=0.3)
        for _ in range(count)
    ]


class TestLearning:
    def test_learn_saves_and_deploys(self):
        config = SessionConfig(
            workflow=WorkflowConfig(learner=LearnerConfig(joints=("rhand",)))
        )
        with GestureSession(config) as session:
            description = session.learn("swipe_right", _swipe_samples(), deploy=True)
            assert description.pose_count >= 2
            assert session.deployed_gestures() == ["swipe_right"]
            record = session.database.load_gesture("swipe_right")
            assert record.query_text.startswith('SELECT "swipe_right"')

            tester = KinectSimulator(user=user_by_name("child"), clock=SimulatedClock())
            swipe = SwipeTrajectory(direction="right")
            for _ in range(3):
                session.feed(
                    tester.perform_variation(swipe, hold_start_s=0.2, hold_end_s=0.2)
                )
                tester.idle_frames(0.5)
            assert any(event.gesture == "swipe_right" for event in session.events)

    def test_deploy_vocabulary_from_database(self):
        database = GestureDatabase(":memory:")
        database.save_gesture(
            GestureDescription(
                name="stored",
                poses=[PoseWindow(0, Window({"rhand_y": 500.0}, {"rhand_y": 100.0}))],
            )
        )
        with GestureSession(database=database) as session:
            assert session.deploy_vocabulary(database) == ["stored"]
            assert session.deployed_gestures() == ["stored"]
        # A caller-owned database is not closed with the session.
        assert database.gesture_names() == ["stored"]

    def test_deploy_vocabulary_from_manifest(self):
        manifest = {
            "hands_up": Q.stream("kinect_t").where(F("rhand_y") > 400),
            "textual": 'SELECT "textual" MATCHING kinect_t( rhand_y < -400 );',
            "swipe_right": _swipe_samples(3),
        }
        config = SessionConfig(
            workflow=WorkflowConfig(learner=LearnerConfig(joints=("rhand",)))
        )
        with GestureSession(config) as session:
            deployed = session.deploy_vocabulary(manifest)
            assert sorted(deployed) == ["hands_up", "swipe_right", "textual"]
            assert session.deployed_gestures() == sorted(deployed)
            # The learned entry was persisted like session.learn() would.
            assert session.database.has_gesture("swipe_right")

    def test_workflow_delegation_shares_the_stack(self):
        config = SessionConfig(
            workflow=WorkflowConfig(
                learner=LearnerConfig(joints=("rhand",)), min_samples=2
            )
        )
        with GestureSession(config) as session:
            session.begin_gesture("swipe_right")
            for sample in _swipe_samples(2):
                session.record_sample(sample)
            description = session.finalize()
            assert description.name == "swipe_right"
            # The workflow deployed through the session's shared detector.
            assert "swipe_right" in session.deployed_gestures()
            assert session.database.has_gesture("swipe_right")
            assert any("learned" in message for message in session.messages)
            session.accept()

    def test_external_engine_is_reused(self):
        engine = CEPEngine(clock=SimulatedClock())
        install_kinect_view(engine)
        with GestureSession(engine=engine) as session:
            assert session.engine is engine
            session.deploy(HANDS_UP)
            engine.push("kinect_t", _frame())
            assert [event.gesture for event in session.events] == ["hands_up"]

    def test_external_engine_rejects_conflicting_config(self):
        from repro.cep import MatcherConfig

        engine = CEPEngine(clock=SimulatedClock())
        install_kinect_view(engine)
        # A non-default matcher config cannot retrofit an existing engine.
        session = GestureSession(
            SessionConfig(matcher=MatcherConfig(partition_field=None)), engine=engine
        )
        with pytest.raises(SessionStateError, match="matcher"):
            session.start()
        # Neither can a clock the engine does not already own.
        session = GestureSession(clock=SimulatedClock(), engine=engine)
        with pytest.raises(SessionStateError, match="clock"):
            session.start()

    def test_manifest_rejects_bare_predicates_with_typed_error(self):
        from repro.errors import QueryBuilderError

        with GestureSession() as session:
            with pytest.raises(QueryBuilderError, match="wrap it in"):
                session.deploy_vocabulary({"hands_up": F("rhand_y") > 400})


# ---------------------------------------------------------------------------
# Typed engine errors (satellite)
# ---------------------------------------------------------------------------


class TestTypedErrors:
    def test_unknown_view_names_key_and_lists_installed(self):
        engine = CEPEngine(clock=SimulatedClock())
        install_kinect_view(engine)
        with pytest.raises(UnknownViewError, match="kinect_t") as info:
            engine.get_view("nope")
        assert "nope" in str(info.value)
        assert isinstance(info.value, UnknownStreamError)
        assert isinstance(info.value, ReproError)

    def test_unknown_query_names_key_and_lists_deployed(self):
        engine = CEPEngine(clock=SimulatedClock())
        engine.create_stream("kinect_t")
        engine.register_query(HANDS_UP)
        with pytest.raises(UnknownQueryError, match="hands_up") as info:
            engine.get_query("absent")
        assert "absent" in str(info.value)
        assert isinstance(info.value, QueryRegistrationError)
        with pytest.raises(UnknownQueryError):
            engine.unregister_query("absent")
        with pytest.raises(UnknownQueryError):
            engine.enable_query("absent")

    def test_unknown_stream_lists_registered(self):
        engine = CEPEngine(clock=SimulatedClock())
        engine.create_stream("kinect")
        with pytest.raises(UnknownStreamError, match="kinect"):
            engine.get_stream("missing")

    def test_register_query_rejects_unbuildable_objects(self):
        engine = CEPEngine(clock=SimulatedClock())
        with pytest.raises(QueryRegistrationError, match="cannot deploy"):
            engine.register_query(42)
