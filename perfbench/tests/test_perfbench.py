"""Tests of the benchmark's own machinery: the detection check, the span
arithmetic, the compare verdicts and the refusal to run without sources."""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import compare  # noqa: E402
from perfbench import inputs as gen  # noqa: E402
from perfbench.layers import SpanRecorder  # noqa: E402

HIGH = 'SELECT "high" MATCHING kinect_t(rhand_y > 450);'
UPDOWN = (
    'SELECT "updown" MATCHING ( kinect_t(rhand_y > 400) -> '
    "kinect_t(rhand_y < 100) within 5 seconds );"
)


@pytest.fixture(scope="module")
def small_inputs() -> gen.Inputs:
    """Two players alternating high and low hands, on the kinect_t view."""
    frames = []
    for step in range(40):
        for player in (1, 2):
            ts = gen._quantise(step / 30 + player / 100)
            frames.append({"ts": ts, "player": player, "rhand_y": 500.0 if step % 4 < 2 else 50.0})
    vocabulary = {"high": HIGH, "updown": UPDOWN}
    reference = gen.reference_detections(vocabulary, frames, "kinect_t")
    return gen.Inputs(
        seed=0, vocabulary=vocabulary, frames=frames, stream="kinect_t",
        period=float(int(frames[-1]["ts"]) + 40), reference=reference, players=2,
    )


def _observed(inputs: gen.Inputs, fed):
    from repro.api import GestureSession, SessionConfig

    with GestureSession(SessionConfig(batch_size=8)) as session:
        session.deploy_vocabulary(dict(inputs.vocabulary))
        session.feed(fed, stream=inputs.stream)
        return gen.group_detections(session.detections())


def test_shifted_repeats_detect_like_the_reference(small_inputs):
    source = gen.FrameSource(small_inputs)
    source.ensure(len(small_inputs.frames) * 2 + 10)
    fed = source.frames[: len(small_inputs.frames) * 2 + 10]
    gen.check_monotone(fed)
    expected = gen.expected_detections(small_inputs, fed)
    assert sum(len(keys) for keys in expected.values()) > 2 * sum(
        len(keys) for keys in small_inputs.reference.values()
    )
    assert gen.mismatches(expected, _observed(small_inputs, fed)) == 0


def test_an_altered_detection_is_caught(small_inputs):
    fed = small_inputs.frames
    expected = gen.expected_detections(small_inputs, fed)
    observed = _observed(small_inputs, fed)
    key = sorted(observed)[0]
    output, ts, start, steps = observed[key][0]
    moved = dict(observed)
    moved[key] = [(output, ts + gen.TS_QUANTUM, start, steps), *observed[key][1:]]
    assert gen.mismatches(expected, moved) == 1
    dropped = dict(observed)
    dropped[key] = observed[key][1:]
    assert gen.mismatches(expected, dropped) == 1
    extra = dict(observed)
    extra[(99, "high")] = [("high", 1.0, 1.0, (1.0,))]
    assert gen.mismatches(expected, extra) == 1


def test_prefix_keeps_only_completed_detections(small_inputs):
    prefix = small_inputs.frames[:20]
    expected = gen.expected_detections(small_inputs, prefix)
    last = {frame["player"]: frame["ts"] for frame in prefix}
    assert expected
    for (player, _query), keys in expected.items():
        assert all(key[1] <= last[player] for key in keys)


def test_gateway_schedule_fixes_each_players_tick_phase(small_inputs):
    from perfbench.workloads import _schedule

    plan = _schedule(small_inputs, 2.0, 120.0, 2)
    seen = {}
    for tick, messages in enumerate(plan):
        for connection, records in enumerate(messages):
            for frame in records:
                assert tick % 4 == (frame["player"] - 1) % 4
                assert connection == (frame["player"] - 1) % 2
                seen.setdefault(frame["player"], []).append(frame["ts"])
    assert sorted(seen) == [1, 2]
    for stamps in seen.values():
        assert stamps == sorted(stamps) and len(stamps) == len(set(stamps))
    # 2 s at 30 Hz: the 40-frame recording, then 20 frames of its repeat
    assert len(seen[1]) == len(seen[2]) == 60


def test_non_monotone_timestamps_are_refused():
    with pytest.raises(ValueError):
        gen.check_monotone([{"player": 1, "ts": 1.0}, {"player": 1, "ts": 1.0}])


def test_self_time_subtracts_child_spans():
    recorder = SpanRecorder()
    inner = recorder.wrap(lambda: time.sleep(0.02), "inner", "child")

    def body():
        time.sleep(0.01)
        inner()

    outer = recorder.wrap(body, "outer", "parent")
    recorder.active = True
    outer()
    totals = recorder.totals()
    assert totals["outer"]["calls"] == 1
    assert totals["outer"]["seconds"] >= totals["inner"]["seconds"] >= 0.02
    assert totals["outer"]["self_seconds"] == pytest.approx(
        totals["outer"]["seconds"] - totals["inner"]["seconds"]
    )
    assert recorder.top_level_seconds() == pytest.approx(totals["outer"]["seconds"])
    events = recorder.chrome_trace()["traceEvents"]
    child = next(event for event in events if event["name"] == "inner")
    parent = next(event for event in events if event["name"] == "outer")
    assert child["args"]["parent_id"] == parent["args"]["span_id"]
    assert child["args"]["trace_id"] == parent["args"]["trace_id"]


def _runs(values, metric="tuples_per_s"):
    return [{"seed": seed, "metrics": {metric: value}} for seed, value in enumerate(values)]


@pytest.mark.parametrize(
    ("base", "change", "expected"),
    [
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [120, 121, 119, 120, 122, 118, 120, 121, 119, 120], "better"),
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [80, 81, 79, 80, 82, 78, 80, 81, 79, 80], "worse"),
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [100, 99, 101, 100, 98, 102, 100, 99, 101, 100], "unchanged"),
        ([100, 150, 60, 100, 140, 70, 100, 130, 65, 100], [101, 149, 61, 99, 141, 69, 100, 131, 64, 99], "unresolved"),
    ],
)
def test_compare_verdicts(base, change, expected):
    benchmark = {"end_to_end": [{"name": "tuples_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}
    rows = compare.compare({"w": _runs(base)}, {"w": _runs(change)}, benchmark)
    assert rows[0]["metrics"]["tuples_per_s"]["verdict"] == expected


def test_without_program_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sharded_durable", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""


def test_benchmark_json_lists_the_printed_metrics():
    import json

    from perfbench.run import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in benchmark["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == {
        name: unit for name, (unit, _layer) in PER_LAYER.items()
    }
    setup_bound = next(m["bound"] for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in benchmark["end_to_end"])
