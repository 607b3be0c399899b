"""Unit tests for the CEP engine, views and sinks."""

import pytest

from repro.cep.engine import CEPEngine
from repro.cep.matcher import Detection, MatcherConfig
from repro.cep.sinks import CallbackSink, CollectingSink, FanOutSink, NullSink
from repro.cep.views import RAW_STREAM_NAME, TRANSFORMED_STREAM_NAME, install_kinect_view
from repro.errors import (
    QueryRegistrationError,
    QuerySyntaxError,
    UnknownStreamError,
)
from repro.streams import SimulatedClock

SIMPLE_QUERY = 'SELECT "up" MATCHING s(x > 100);'
SEQ_QUERY = 'SELECT "seq" MATCHING s(x > 100) -> s(x > 200) within 1 seconds;'


def _detection(output="g", ts=0.0):
    return Detection(
        output=output, query_name=output, timestamp=ts, start_timestamp=ts,
        step_timestamps=(ts,),
    )


class TestSinks:
    def test_collecting_sink_stores_detections(self):
        sink = CollectingSink()
        sink.emit(_detection())
        assert len(sink) == 1
        assert sink.outputs() == ["g"]
        assert sink.last().output == "g"

    def test_collecting_sink_capacity_drops_oldest(self):
        sink = CollectingSink(capacity=2)
        for index in range(5):
            sink.emit(_detection(ts=float(index)))
        assert len(sink) == 2
        assert sink.detections[0].timestamp == 3.0

    def test_collecting_sink_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            CollectingSink(capacity=0)

    def test_callback_and_null_and_fanout(self):
        seen = []
        callback = CallbackSink(seen.append)
        null = NullSink()
        fan_out = FanOutSink([callback, null])
        fan_out.emit(_detection())
        assert len(seen) == 1
        assert callback.emitted == 1
        assert null.emitted == 1

    def test_collecting_sink_clear_and_empty_last(self):
        sink = CollectingSink()
        sink.emit(_detection())
        sink.clear()
        assert sink.last() is None


class TestEngineBasics:
    def test_register_and_query_text(self):
        engine = CEPEngine()
        engine.create_stream("s")
        deployed = engine.register_query(SIMPLE_QUERY)
        engine.push("s", {"ts": 0.0, "x": 150.0})
        assert [d.output for d in deployed.detections()] == ["up"]

    def test_unknown_stream_rejected_unless_created(self):
        engine = CEPEngine()
        with pytest.raises(UnknownStreamError):
            engine.register_query(SIMPLE_QUERY)
        deployed = engine.register_query(SIMPLE_QUERY, create_missing_streams=True)
        engine.push("s", {"ts": 0.0, "x": 150.0})
        assert len(deployed.detections()) == 1

    def test_duplicate_query_name_rejected(self):
        engine = CEPEngine()
        engine.create_stream("s")
        engine.register_query(SIMPLE_QUERY)
        with pytest.raises(QueryRegistrationError):
            engine.register_query(SIMPLE_QUERY)

    def test_invalid_query_text_raises_syntax_error(self):
        engine = CEPEngine()
        with pytest.raises(QuerySyntaxError):
            engine.register_query("SELECT nonsense nonsense")

    def test_unregister_query_detaches_from_stream(self):
        engine = CEPEngine()
        engine.create_stream("s")
        deployed = engine.register_query(SIMPLE_QUERY)
        engine.unregister_query("up")
        engine.push("s", {"ts": 0.0, "x": 150.0})
        assert deployed.detections() == []
        with pytest.raises(QueryRegistrationError):
            engine.unregister_query("up")

    def test_enable_disable_query(self):
        engine = CEPEngine()
        engine.create_stream("s")
        deployed = engine.register_query(SIMPLE_QUERY)
        engine.enable_query("up", False)
        engine.push("s", {"ts": 0.0, "x": 150.0})
        assert deployed.detections() == []
        engine.enable_query("up", True)
        engine.push("s", {"ts": 0.1, "x": 150.0})
        assert len(deployed.detections()) == 1

    def test_sequence_query_with_timestamps(self):
        engine = CEPEngine()
        engine.create_stream("s")
        deployed = engine.register_query(SEQ_QUERY)
        engine.push("s", {"ts": 0.0, "x": 150.0})
        engine.push("s", {"ts": 0.5, "x": 250.0})
        assert len(deployed.detections()) == 1

    def test_sequence_query_respects_within(self):
        engine = CEPEngine()
        engine.create_stream("s")
        deployed = engine.register_query(SEQ_QUERY)
        engine.push("s", {"ts": 0.0, "x": 150.0})
        engine.push("s", {"ts": 5.0, "x": 250.0})
        assert deployed.detections() == []

    def test_detections_merge_and_sort_across_queries(self):
        engine = CEPEngine()
        engine.create_stream("s")
        engine.register_query('SELECT "a" MATCHING s(x > 0);')
        engine.register_query('SELECT "b" MATCHING s(x > 100);')
        engine.push("s", {"ts": 0.0, "x": 150.0})
        outputs = [d.output for d in engine.detections()]
        assert sorted(outputs) == ["a", "b"]
        engine.clear_detections()
        assert engine.detections() == []

    def test_additional_sink_receives_detections(self):
        engine = CEPEngine()
        engine.create_stream("s")
        seen = []
        engine.register_query(SIMPLE_QUERY, sink=CallbackSink(seen.append))
        engine.push("s", {"ts": 0.0, "x": 200.0})
        assert len(seen) == 1

    def test_register_custom_function_usable_in_queries(self):
        engine = CEPEngine()
        engine.create_stream("s")
        engine.register_function("double", lambda value: value * 2, arity=1)
        deployed = engine.register_query('SELECT "d" MATCHING s(double(x) > 10);')
        engine.push("s", {"ts": 0.0, "x": 6.0})
        assert len(deployed.detections()) == 1

    def test_query_names_and_get_query(self):
        engine = CEPEngine()
        engine.create_stream("s")
        engine.register_query(SIMPLE_QUERY)
        assert engine.query_names() == ["up"]
        assert engine.get_query("up").name == "up"
        with pytest.raises(QueryRegistrationError):
            engine.get_query("missing")

    def test_tuples_without_timestamp_use_engine_clock(self):
        clock = SimulatedClock(start=3.0)
        engine = CEPEngine(clock=clock)
        engine.create_stream("s")
        deployed = engine.register_query(SIMPLE_QUERY)
        engine.push("s", {"x": 150.0})
        assert deployed.detections()[0].timestamp == pytest.approx(3.0)

    def test_per_query_matcher_config_override(self):
        engine = CEPEngine()
        engine.create_stream("s")
        deployed = engine.register_query(
            SIMPLE_QUERY, matcher_config=MatcherConfig(store_matched_tuples=False)
        )
        engine.push("s", {"ts": 0.0, "x": 150.0})
        assert deployed.detections()[0].matched is None

    def test_configured_timestamp_field_is_honored(self):
        # The handler must read the matcher's timestamp_field, not "ts".
        engine = CEPEngine()
        engine.create_stream("s")
        deployed = engine.register_query(
            SEQ_QUERY, matcher_config=MatcherConfig(timestamp_field="t")
        )
        engine.push("s", {"t": 0.0, "x": 150.0})
        engine.push("s", {"t": 5.0, "x": 250.0})
        assert deployed.detections() == []  # 5 s apart: within 1 s violated
        engine.push("s", {"t": 10.0, "x": 150.0})
        engine.push("s", {"t": 10.5, "x": 250.0})
        detections = deployed.detections()
        assert len(detections) == 1
        assert detections[0].timestamp == pytest.approx(10.5)

    def test_configured_timestamp_field_is_honored_on_batches(self):
        engine = CEPEngine()
        engine.create_stream("s")
        deployed = engine.register_query(
            SEQ_QUERY, matcher_config=MatcherConfig(timestamp_field="t")
        )
        engine.push_many(
            "s",
            [{"t": 0.0, "x": 150.0}, {"t": 5.0, "x": 250.0},
             {"t": 10.0, "x": 150.0}, {"t": 10.5, "x": 250.0}],
            batch_size=2,
        )
        assert [d.timestamp for d in deployed.detections()] == [pytest.approx(10.5)]


class TestBatchDispatch:
    RECORDS = [
        {"ts": index * 0.1, "x": 150.0 if index % 3 else 250.0}
        for index in range(24)
    ]

    def _deploy(self):
        engine = CEPEngine()
        engine.create_stream("s")
        return engine, engine.register_query(SEQ_QUERY)

    def test_push_many_batched_matches_per_tuple_detections(self):
        per_tuple_engine, per_tuple = self._deploy()
        per_tuple_engine.push_many("s", self.RECORDS)
        for batch_size in (1, 4, 100):
            batched_engine, batched = self._deploy()
            batched_engine.push_many("s", self.RECORDS, batch_size=batch_size)
            assert batched.detections() == per_tuple.detections(), f"batch_size={batch_size}"
        assert per_tuple.detections()  # the workload must actually detect

    def test_push_many_counts_tuples_on_both_paths(self):
        engine, _ = self._deploy()
        assert engine.push_many("s", self.RECORDS) == len(self.RECORDS)
        assert engine.push_many("s", self.RECORDS, batch_size=5) == len(self.RECORDS)
        assert engine.tuples_processed == 2 * len(self.RECORDS)

    def test_push_many_rejects_bad_batch_size(self):
        engine, _ = self._deploy()
        with pytest.raises(ValueError):
            engine.push_many("s", self.RECORDS, batch_size=0)

    def test_batched_push_flows_through_views(self):
        engine = CEPEngine()
        engine.create_stream("raw")
        engine.register_view(
            "doubled", "raw", lambda r: {"ts": r["ts"], "x": r["x"] * 2}
        )
        deployed = engine.register_query('SELECT "d" MATCHING doubled(x > 10);')
        engine.push_many(
            "raw", [{"ts": 0.0, "x": 6.0}, {"ts": 0.1, "x": 2.0}], batch_size=8
        )
        assert len(deployed.detections()) == 1

    def test_disabled_query_ignores_batches(self):
        engine, deployed = self._deploy()
        engine.enable_query(deployed.name, False)
        engine.push_many("s", self.RECORDS, batch_size=4)
        assert deployed.detections() == []


class TestCompileCache:
    def test_identical_predicates_share_compiled_closures(self):
        engine = CEPEngine()
        engine.create_stream("s")
        engine.register_query('SELECT "a" MATCHING s(x > 100);')
        misses = engine.compile_cache.misses
        engine.register_query('SELECT "b" MATCHING s(x > 100);', name="b")
        assert engine.compile_cache.misses == misses
        assert engine.compile_cache.hits >= 1

    def test_register_function_clears_the_cache(self):
        engine = CEPEngine()
        engine.create_stream("s")
        engine.register_query('SELECT "a" MATCHING s(x > 100);')
        assert len(engine.compile_cache) > 0
        engine.register_function("triple", lambda value: value * 3, arity=1)
        assert len(engine.compile_cache) == 0

    def test_interpreted_engine_matches_compiled_engine(self):
        records = [
            {"ts": index * 0.1, "x": 150.0 if index % 2 else 250.0}
            for index in range(12)
        ]
        compiled_engine = CEPEngine()
        compiled_engine.create_stream("s")
        compiled = compiled_engine.register_query(SEQ_QUERY)
        interpreted_engine = CEPEngine(
            matcher_config=MatcherConfig(compile_predicates=False)
        )
        interpreted_engine.create_stream("s")
        interpreted = interpreted_engine.register_query(SEQ_QUERY)
        compiled_engine.push_many("s", records)
        interpreted_engine.push_many("s", records)
        assert compiled.detections() == interpreted.detections()
        assert compiled.detections()


class TestViews:
    def test_kinect_view_transforms_frames(self, noiseless_simulator):
        engine = CEPEngine()
        view = install_kinect_view(engine)
        received = []
        engine.get_stream(TRANSFORMED_STREAM_NAME).subscribe(received.append)
        engine.push(RAW_STREAM_NAME, noiseless_simulator.measure_rest())
        assert len(received) == 1
        assert received[0]["torso_x"] == pytest.approx(0.0)
        assert view.tuples_processed == 1

    def test_view_stop_detaches(self, noiseless_simulator):
        engine = CEPEngine()
        view = install_kinect_view(engine)
        view.stop()
        received = []
        engine.get_stream(TRANSFORMED_STREAM_NAME).subscribe(received.append)
        engine.push(RAW_STREAM_NAME, noiseless_simulator.measure_rest())
        assert received == []
        assert not view.active

    def test_get_view_by_name(self):
        engine = CEPEngine()
        install_kinect_view(engine)
        assert engine.get_view(TRANSFORMED_STREAM_NAME).name == TRANSFORMED_STREAM_NAME
        with pytest.raises(UnknownStreamError):
            engine.get_view("missing")

    def test_custom_view_function(self):
        engine = CEPEngine()
        engine.create_stream("raw")
        engine.register_view("doubled", "raw", lambda r: {"x": r["x"] * 2})
        received = []
        engine.get_stream("doubled").subscribe(received.append)
        engine.push("raw", {"x": 4})
        assert received == [{"x": 8}]
