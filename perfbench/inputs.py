"""Seeded workload inputs, their reference detections, and the on-disk cache.

Everything the system under test receives is built here, before any
timing starts: the learned vocabulary (as query text), the base recording
of interleaved players, and the reference detections of that recording.

Longer runs repeat the base recording with every timestamp shifted by a
whole number of ``period`` seconds, never verbatim.  Timestamps are
quantised to 1/4096 s so the shift is exact in binary floating point, and
the period leaves more than 30 s of silence after the recording, longer
than every idle-state timeout of the transform view and the matcher.  A
repeat therefore detects exactly what the base recording detects, shifted
by the same amount, which is what :func:`expected_detections` relies on.
"""

from __future__ import annotations

import hashlib
import math
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

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
from repro.streams import SimulatedClock

#: Bump when the generated inputs change shape, so stale caches are ignored.
FORMAT = 7

#: Training seed of the learned vocabularies.  The vocabulary is the
#: system's configuration and stays fixed; the workload seed varies the
#: recordings it is run on.
VOCABULARY_SEED = 500

#: Timestamp quantum: shifts by whole seconds stay exact below 2**40 s.
TS_QUANTUM = 1.0 / 4096

#: Each player starts after a random idle lead-in of up to one gesture
#: cycle, so players gesture out of phase and the load is even over time.
LEAD_IN_MAX_S = 2.5

#: Each player performs the 8 gestures this many times, in rotated order,
#: with random pauses, so one seed's recording mixes many alignments of
#: the players' gestures.
ROUNDS = 3

#: Pause between two gestures of a player, drawn uniformly.
PAUSE_S = (0.3, 1.2)

#: Silence after each repeat, above the 30 s idle timeouts of the transform
#: view and the matcher (``partition_idle_seconds``).
REPEAT_GAP_S = 32.0

#: The 8 gestures of the C5 throughput experiment.
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

#: Detection fields compared against the reference.
DetectionKey = Tuple[str, float, float, Tuple[float, ...]]


@dataclass
class Inputs:
    """One workload's generated inputs and their reference detections.

    ``frames`` is the base recording in feed order; ``vocabulary`` maps
    registration name to query text; ``reference`` maps
    ``(player, query name)`` to the detections of one base recording.
    """

    seed: int
    vocabulary: Dict[str, str]
    frames: List[Dict[str, float]]
    stream: str
    period: float
    reference: Dict[Tuple[Any, str], List[DetectionKey]]
    players: int
    info: Dict[str, Any] = field(default_factory=dict)


#: Players in the base recording: each performs all 8 gestures once.
PLAYERS = 16


def _quantise(ts: float) -> float:
    return round(ts / TS_QUANTUM) * TS_QUANTUM


def learn_vocabulary(seed: int = VOCABULARY_SEED) -> Dict[str, str]:
    """Learn each gesture from 4 simulated samples; name -> query text."""
    generator = QueryGenerator()
    vocabulary: Dict[str, str] = {}
    for index, (name, trajectory) in enumerate(GESTURES):
        joints = ("lhand",) if getattr(trajectory, "hand", "rhand") == "lhand" else ("rhand",)
        sample_seed = seed * 1000 + index
        simulator = KinectSimulator(
            user=user_by_name("adult"),
            clock=SimulatedClock(),
            noise=GaussianNoise(sigma_mm=6.0, rng=np.random.default_rng(sample_seed)),
            rng=np.random.default_rng(sample_seed + 1),
        )
        learner = GestureLearner(name, config=LearnerConfig(joints=joints))
        for _ in range(4):
            learner.add_sample(
                simulator.perform_variation(trajectory, hold_start_s=0.3, hold_end_s=0.3)
            )
        vocabulary[name] = generator.generate(learner.description()).to_query()
    return vocabulary


def record_players(seed: int, players: int) -> List[Dict[str, float]]:
    """Every player performs all 8 gestures ``ROUNDS`` times with idle
    gaps, interleaved.

    Built like :func:`repro.kinect.generate_multiuser_recording` (standard
    body profiles in turn, clocks phase-shifted by a fraction of a frame,
    gestures rotated per player), plus a random idle lead-in per player
    and random pauses.
    """
    rng = np.random.default_rng(seed)
    names = [name for name, _trajectory in GESTURES]
    catalogue = dict(GESTURES)
    frame_period = 1.0 / KINECT_FREQUENCY_HZ
    frames: List[Dict[str, float]] = []
    for index in range(players):
        simulator = KinectSimulator(
            user=STANDARD_USERS[index % len(STANDARD_USERS)],
            clock=SimulatedClock(start=index * frame_period / (players + 1)),
            noise=GaussianNoise(sigma_mm=6.0, rng=np.random.default_rng(rng.integers(2**31))),
            rng=np.random.default_rng(rng.integers(2**31)),
            player_id=index + 1,
        )
        frames.extend(simulator.idle_frames(float(rng.uniform(frame_period, LEAD_IN_MAX_S))))
        for position in range(ROUNDS * len(names)):
            if position:
                frames.extend(simulator.idle_frames(float(rng.uniform(*PAUSE_S))))
            gesture = catalogue[names[(index + position) % len(names)]]
            frames.extend(
                simulator.perform_variation(gesture, hold_start_s=0.3, hold_end_s=0.3)
            )
    frames = [dict(frame, ts=_quantise(frame["ts"])) for frame in frames]
    frames.sort(key=lambda frame: (frame["ts"], frame["player"]))
    return frames


def check_monotone(frames: Sequence[Mapping[str, Any]]) -> None:
    """Raise unless ``ts`` strictly increases within every player."""
    last: Dict[Any, float] = {}
    for frame in frames:
        player, ts = frame["player"], frame["ts"]
        if player in last and ts <= last[player]:
            raise ValueError(f"player {player}: ts {ts} does not increase after {last[player]}")
        last[player] = ts


def detection_key(detection: Any) -> DetectionKey:
    return (
        detection.output,
        detection.timestamp,
        detection.start_timestamp,
        tuple(detection.step_timestamps),
    )


def state_key(state: Mapping[str, Any]) -> DetectionKey:
    """:func:`detection_key` of a ``Detection.to_state()`` dictionary."""
    return (
        state["output"],
        state["timestamp"],
        state["start_timestamp"],
        tuple(state["step_timestamps"]),
    )


def group_detections(detections: Sequence[Any]) -> Dict[Tuple[Any, str], List[DetectionKey]]:
    grouped: Dict[Tuple[Any, str], List[DetectionKey]] = {}
    for detection in detections:
        grouped.setdefault((detection.partition, detection.query_name), []).append(
            detection_key(detection)
        )
    return grouped


def reference_detections(
    vocabulary: Mapping[str, str], frames: Sequence[Mapping[str, Any]], stream: str
) -> Dict[Tuple[Any, str], List[DetectionKey]]:
    """Detections of an inline, per-tuple session with telemetry off."""
    with GestureSession(SessionConfig(telemetry=False)) as session:
        for name, text in vocabulary.items():
            session.deploy(text, name=name)
        session.feed(frames, batch_size=None, stream=stream)
        return group_detections(session.detections())


def build(seed: int) -> Inputs:
    vocabulary = learn_vocabulary()
    frames = record_players(seed, PLAYERS)
    check_monotone(frames)
    span = frames[-1]["ts"]
    period = float(math.ceil(span + REPEAT_GAP_S))
    reference = reference_detections(vocabulary, frames, "kinect")
    if not reference:
        raise ValueError(f"seed {seed}: the reference detects nothing")
    return Inputs(
        seed=seed,
        vocabulary=vocabulary,
        frames=frames,
        stream="kinect",
        period=period,
        reference=reference,
        players=PLAYERS,
        info={
            "frames": len(frames),
            "players": PLAYERS,
            "queries": len(vocabulary),
            "recording_s": span,
            "period_s": period,
            "reference_detections": sum(len(v) for v in reference.values()),
        },
    )


def source_digest(src: Path) -> str:
    """Content hash of the program's sources (keys the reference cache)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def load(seed: int, cache_dir: Path, src: Path) -> Tuple[Inputs, bool]:
    """Cached :func:`build`; returns ``(inputs, cache_hit)``.

    The cache key includes the program's source digest: a reference is
    never reused across program versions.
    """
    path = cache_dir / f"seed{seed}-f{FORMAT}-{source_digest(src)}.pkl"
    if path.exists():
        with path.open("rb") as handle:
            return pickle.load(handle), True
    inputs = build(seed)
    cache_dir.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(".tmp")
    with partial.open("wb") as handle:
        pickle.dump(inputs, handle, protocol=pickle.HIGHEST_PROTOCOL)
    partial.replace(path)
    return inputs, False


def shifted(frames: Sequence[Mapping[str, Any]], offset: float) -> List[Dict[str, Any]]:
    """A repeat of ``frames`` with every ``ts`` moved by ``offset`` seconds."""
    return [dict(frame, ts=frame["ts"] + offset) for frame in frames]


class FrameSource:
    """The feed sequence: base recording, then shifted repeats, in chunks.

    ``ensure(n)`` materialises frames up to position ``n``; the timed loops
    call it only outside their timed windows.
    """

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.frames: List[Dict[str, Any]] = list(inputs.frames)
        self.repeats = 1

    def ensure(self, count: int) -> None:
        base = self.inputs.frames
        while len(self.frames) < count:
            self.frames.extend(shifted(base, self.repeats * self.inputs.period))
            self.repeats += 1


def expected_detections(
    inputs: Inputs, fed: Sequence[Mapping[str, Any]]
) -> Dict[Tuple[Any, str], List[DetectionKey]]:
    """The reference detections of exactly the frames in ``fed``.

    A detection belongs to the prefix when its completing frame was fed,
    i.e. its timestamp is at most the last fed timestamp of its player.
    """
    last_ts: Dict[Any, float] = {}
    for frame in fed:
        last_ts[frame["player"]] = frame["ts"]
    horizon = max(last_ts.values(), default=-1.0)
    repeats = int(horizon // inputs.period) + 1
    expected: Dict[Tuple[Any, str], List[DetectionKey]] = {}
    for (player, query), keys in inputs.reference.items():
        limit = last_ts.get(player)
        if limit is None:
            continue
        sequence = []
        for repeat in range(repeats):
            offset = repeat * inputs.period
            for output, ts, start, steps in keys:
                if ts + offset > limit:
                    break
                sequence.append(
                    (output, ts + offset, start + offset, tuple(t + offset for t in steps))
                )
        if sequence:
            expected[(player, query)] = sequence
    return expected


def mismatches(
    expected: Mapping[Tuple[Any, str], List[DetectionKey]],
    observed: Mapping[Tuple[Any, str], List[DetectionKey]],
) -> int:
    """Number of ``(player, query)`` sequences that differ."""
    keys = set(expected) | set(observed)
    return sum(1 for key in keys if expected.get(key, []) != observed.get(key, []))
