"""Golden detections: the 8 learned C5 queries on a seeded 8-player recording.

``tests/data/golden_detections.json`` pins, for one seeded recording of
interleaved players (raw ``kinect`` frames through the ``kinect_t`` view):

* the learned query text of each gesture,
* the per-``(player, query)`` detections — timestamps plus a digest of the
  matched (transformed) tuples, so a change of a single transformed
  coordinate bit shows up,
* the matcher counters of every query on each execution path, except
  ``predicate_evaluations`` (an implementation cost, not behaviour).

Every path must reproduce them exactly: inline per tuple, inline with
``batch_size=64``, two process shards, and snapshot plus recovery.

Regenerate only when a change of detections is intended, and say why::

    PYTHONPATH=src python tests/test_golden_detections.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence

import numpy as np
import pytest

from repro.api import GestureSession, SessionConfig
from repro.core import GestureLearner, LearnerConfig, QueryGenerator
from repro.kinect import (
    CircleTrajectory,
    GaussianNoise,
    KinectSimulator,
    PushTrajectory,
    RaiseHandTrajectory,
    STANDARD_USERS,
    SwipeTrajectory,
    WaveTrajectory,
    user_by_name,
)
from repro.kinect.simulator import KINECT_FREQUENCY_HZ
from repro.persistence import DurabilityConfig
from repro.streams import SimulatedClock

GOLDEN = Path(__file__).parent / "data" / "golden_detections.json"

#: The 8-gesture vocabulary of the C5 throughput experiment.
GESTURES = (
    ("swipe_right", SwipeTrajectory("right")),
    ("swipe_left", SwipeTrajectory("left", hand="lhand")),
    ("circle", CircleTrajectory()),
    ("push", PushTrajectory()),
    ("raise_hand", RaiseHandTrajectory()),
    ("wave_big", WaveTrajectory(cycles=2, amplitude_mm=260.0, name="wave_big")),
    ("swipe_right_low", SwipeTrajectory("right", height_mm=-100.0, name="swipe_right_low")),
    ("push_left", PushTrajectory(hand="lhand", name="push_left")),
)
PLAYERS = 8
SEED = 1201
STREAM = "kinect"


def learn_vocabulary() -> Dict[str, str]:
    """Learn each gesture from 4 simulated adult samples; name -> query text."""
    generator = QueryGenerator()
    vocabulary: Dict[str, str] = {}
    for index, (name, trajectory) in enumerate(GESTURES):
        hand = getattr(trajectory, "hand", "rhand")
        simulator = KinectSimulator(
            user=user_by_name("adult"),
            clock=SimulatedClock(),
            noise=GaussianNoise(sigma_mm=6.0, rng=np.random.default_rng(500 + index)),
            rng=np.random.default_rng(501 + index),
        )
        learner = GestureLearner(name, config=LearnerConfig(joints=(hand,)))
        for _ in range(4):
            learner.add_sample(
                simulator.perform_variation(trajectory, hold_start_s=0.3, hold_end_s=0.3)
            )
        vocabulary[name] = generator.generate(learner.description()).to_query()
    return vocabulary


def record_players() -> List[Dict[str, float]]:
    """Each player, turned by a different yaw, performs all 8 gestures once
    with random pauses; frames are interleaved by timestamp."""
    rng = np.random.default_rng(SEED)
    frame_period = 1.0 / KINECT_FREQUENCY_HZ
    frames: List[Dict[str, float]] = []
    for index in range(PLAYERS):
        simulator = KinectSimulator(
            user=STANDARD_USERS[index % len(STANDARD_USERS)],
            clock=SimulatedClock(start=index * frame_period / (PLAYERS + 1)),
            noise=GaussianNoise(sigma_mm=6.0, rng=np.random.default_rng(rng.integers(2**31))),
            yaw_deg=float(index % 3 - 1) * 20.0,
            rng=np.random.default_rng(rng.integers(2**31)),
            player_id=index + 1,
        )
        frames.extend(simulator.idle_frames(float(rng.uniform(frame_period, 2.0))))
        for position in range(len(GESTURES)):
            _name, gesture = GESTURES[(index + position) % len(GESTURES)]
            frames.extend(
                simulator.perform_variation(gesture, hold_start_s=0.3, hold_end_s=0.3)
            )
            frames.extend(simulator.idle_frames(float(rng.uniform(0.3, 1.2))))
    frames.sort(key=lambda frame: (frame["ts"], frame["player"]))
    return frames


def _digest(value: Any) -> str:
    # json.dumps writes floats with repr(), so -0.0, NaN and every bit count.
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def grouped_detections(session: GestureSession) -> Dict[str, List[List[Any]]]:
    """``"player/query"`` -> detections, in per-query detection order."""
    grouped: Dict[str, List[List[Any]]] = {}
    for detection in session.detections():
        state = detection.to_state()
        grouped.setdefault(f"{detection.partition}/{detection.query_name}", []).append(
            [
                state["output"],
                state["timestamp"],
                state["start_timestamp"],
                state["step_timestamps"],
                _digest(state["matched"]),
            ]
        )
    return dict(sorted(grouped.items()))


def counters(session: GestureSession) -> Dict[str, Dict[str, int]]:
    return {
        name: {key: value for key, value in stats.items() if key != "predicate_evaluations"}
        for name, stats in sorted(session.query_stats().items())
    }


def _deploy(session: GestureSession, vocabulary: Mapping[str, str]) -> None:
    for name, text in vocabulary.items():
        session.deploy(text, name=name)


def run_inline(vocabulary: Mapping[str, str], frames: Sequence[Mapping[str, Any]], batch_size: Any):
    with GestureSession() as session:
        _deploy(session, vocabulary)
        session.feed(frames, batch_size=batch_size, stream=STREAM)
        return grouped_detections(session), counters(session)


def run_process_shards(vocabulary: Mapping[str, str], frames: Sequence[Mapping[str, Any]]):
    config = SessionConfig(shards=2, shard_executor="process")
    with GestureSession(config) as session:
        _deploy(session, vocabulary)
        for start in range(0, len(frames), 64):
            session.feed(frames[start : start + 64], stream=STREAM)
        session.drain()
        return grouped_detections(session), counters(session)


def run_recovered(
    vocabulary: Mapping[str, str], frames: Sequence[Mapping[str, Any]], directory: Path
):
    half = len(frames) // 2
    live = GestureSession(durability=DurabilityConfig(directory))
    live.start()
    _deploy(live, vocabulary)
    live.feed(frames[:half], batch_size=None, stream=STREAM)
    live.snapshot()
    live.feed(frames[half:], batch_size=None, stream=STREAM)
    # Crash: the live session is abandoned without close().
    recovered = GestureSession.recover(DurabilityConfig(directory))
    try:
        return grouped_detections(recovered), counters(recovered)
    finally:
        recovered.close()
        live.close()


PATHS = ("inline", "inline_batch64", "process_shards", "recovered")


def run_path(path: str, vocabulary, frames, directory: Path):
    if path == "inline":
        return run_inline(vocabulary, frames, None)
    if path == "inline_batch64":
        return run_inline(vocabulary, frames, 64)
    if path == "process_shards":
        return run_process_shards(vocabulary, frames)
    return run_recovered(vocabulary, frames, directory)


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def frames(golden) -> List[Dict[str, float]]:
    recorded = record_players()
    assert _digest(recorded) == golden["recording_digest"], "the seeded recording drifted"
    return recorded


def test_golden_recording_covers_every_player_and_query(golden):
    players = {key.split("/")[0] for key in golden["detections"]}
    queries = {key.split("/")[1] for key in golden["detections"]}
    assert len(players) >= 8
    assert queries == set(golden["vocabulary"])


def test_learned_vocabulary_text_is_unchanged(golden):
    assert learn_vocabulary() == golden["vocabulary"]


@pytest.mark.parametrize("path", PATHS)
def test_path_reproduces_golden_detections_and_counters(path, golden, frames, tmp_path):
    detections, stats = run_path(path, golden["vocabulary"], frames, tmp_path)
    assert json.dumps(detections) == json.dumps(golden["detections"])
    assert stats == golden["counters"][path]


def _regenerate() -> None:
    vocabulary = learn_vocabulary()
    frames = record_players()
    detections: Dict[str, Any] = {}
    per_path: Dict[str, Any] = {}
    for path in PATHS:
        with tempfile.TemporaryDirectory() as directory:
            observed, stats = run_path(path, vocabulary, frames, Path(directory))
        if path == "inline":
            detections = observed
        elif observed != detections:
            raise SystemExit(f"{path}: detections differ from the inline path")
        per_path[path] = stats
    document = {
        "seed": SEED,
        "players": PLAYERS,
        "frames": len(frames),
        "recording_digest": _digest(frames),
        "vocabulary": vocabulary,
        "detections": detections,
        "counters": per_path,
    }
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    total = sum(len(v) for v in detections.values())
    print(f"wrote {GOLDEN}: {len(frames)} frames, {total} detections")


if __name__ == "__main__":
    _regenerate()
