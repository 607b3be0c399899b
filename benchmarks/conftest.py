"""Shared fixtures and reporting helpers for the benchmark suite.

Every benchmark corresponds to one experiment id (F1–F5, C1–C5, A1, B1–B7),
named in its module docstring.  Benchmarks print the table or
series the experiment reproduces — run with
``pytest benchmarks/ --benchmark-only -s`` to see them — and additionally
time a representative kernel through the ``benchmark`` fixture so
pytest-benchmark collects comparable numbers.

``python -m pytest benchmarks -q -m smoke`` runs every benchmark kernel
exactly once with pytest-benchmark timing disabled — a fast CI smoke pass
that keeps the perf harness working without paying for calibration rounds.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Mapping, Sequence

# Allow `python -m pytest benchmarks` without an explicit PYTHONPATH=src.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np
import pytest

from repro.core import GestureLearner, LearnerConfig, QueryGenerator
from repro.evaluation import WorkloadConfig, build_workload
from repro.kinect import (
    CircleTrajectory,
    GaussianNoise,
    KinectSimulator,
    PushTrajectory,
    RaiseHandTrajectory,
    SwipeTrajectory,
    WaveTrajectory,
    user_by_name,
)
from repro.streams import SimulatedClock


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "smoke: run each benchmark kernel once without pytest-benchmark timing",
    )
    # `-m smoke` implies --benchmark-disable: kernels run once, untimed.
    # Exact match only — composed expressions like "not smoke" keep explicit
    # control over --benchmark-disable.
    if (config.getoption("markexpr", "") or "").strip() == "smoke":
        config.option.benchmark_disable = True


def pytest_collection_modifyitems(config, items):
    for item in items:
        if "bench_" in item.nodeid:
            item.add_marker(pytest.mark.smoke)


#: Where ``record_benchmark`` writes its JSON files.
RESULTS_DIR = Path(__file__).resolve().parent

#: ``history`` entries kept per benchmark file — old runs age out so the
#: checked-in JSON stays reviewable.
HISTORY_LIMIT = 20


def _git_sha() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=RESULTS_DIR,
                capture_output=True,
                text=True,
                timeout=5,
                check=True,
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _load_history(path: Path) -> list:
    """Prior runs from an existing BENCH file, oldest first.

    Legacy single-run documents (no ``history`` key) become the first
    history entry, so the perf trajectory survives the format change.
    """
    if not path.exists():
        return []
    try:
        previous = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return []
    if not isinstance(previous, dict):
        return []
    history = previous.get("history")
    if isinstance(history, list):
        return history
    previous.setdefault("git_sha", "unknown")
    return [previous]


def record_benchmark(name: str, payload: Mapping[str, object]) -> Path:
    """Record one benchmark run in ``benchmarks/BENCH_<name>.json``.

    The perf trajectory of the repo lives in these files: every benchmark
    passes its configuration, throughput numbers and detection counts, and
    the writer adds the environment (python, platform, cpu count), a
    wall-clock stamp and the current git SHA.  The latest run stays at the
    top level (so existing readers keep working) and every run — keyed by
    ``git_sha`` + ``written_at`` — is appended to a bounded ``history``
    array, so regressions across commits are diffable in review.  Values
    must be JSON-serialisable — pass the same plain rows the
    ``print_table`` reports use.
    """
    entry = {
        "benchmark": name,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": _git_sha(),
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        **payload,
    }
    path = RESULTS_DIR / f"BENCH_{name}.json"
    history = [
        {key: value for key, value in run.items() if key != "history"}
        for run in _load_history(path)
    ]
    history.append(entry)
    history = history[-HISTORY_LIMIT:]
    document = {**entry, "history": history}
    path.write_text(json.dumps(document, indent=2, default=str) + "\n")
    return path


def print_table(title: str, rows: Sequence[Dict[str, object]]) -> None:
    """Print a list of dictionaries as an aligned text table."""
    print(f"\n=== {title} ===")
    if not rows:
        print("  (no rows)")
        return
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(str(row[column])) for row in rows))
        for column in columns
    }
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    print("  " + header)
    print("  " + "-+-".join("-" * widths[column] for column in columns))
    for row in rows:
        print("  " + " | ".join(str(row[column]).ljust(widths[column]) for column in columns))


def make_simulator(user: str = "adult", seed: int = 11, **kwargs) -> KinectSimulator:
    """A deterministic simulator for benchmark training/test data."""
    return KinectSimulator(
        user=user_by_name(user),
        clock=SimulatedClock(),
        noise=GaussianNoise(sigma_mm=6.0, rng=np.random.default_rng(seed)),
        rng=np.random.default_rng(seed + 1),
        **kwargs,
    )


def learn_gesture(name, trajectory, samples=4, seed=11, joints=("rhand",)):
    """Learn one gesture from ``samples`` simulated performances."""
    simulator = make_simulator(seed=seed)
    learner = GestureLearner(name, config=LearnerConfig(joints=tuple(joints)))
    for _ in range(samples):
        learner.add_sample(
            simulator.perform_variation(trajectory, hold_start_s=0.3, hold_end_s=0.3)
        )
    return learner.description()


#: The 8-gesture vocabulary of the C5 throughput experiment (also reused by
#: the B1 batched-matching comparison).
THROUGHPUT_GESTURES = [
    ("swipe_right", SwipeTrajectory("right")),
    ("swipe_left", SwipeTrajectory("left", hand="lhand")),
    ("circle", CircleTrajectory()),
    ("push", PushTrajectory()),
    ("raise_hand", RaiseHandTrajectory()),
    ("wave_big", WaveTrajectory(cycles=2, amplitude_mm=260.0, name="wave_big")),
    ("swipe_right_low", SwipeTrajectory("right", height_mm=-100.0, name="swipe_right_low")),
    ("push_left", PushTrajectory(hand="lhand", name="push_left")),
]


@pytest.fixture(scope="session")
def query_generator() -> QueryGenerator:
    return QueryGenerator()


@pytest.fixture(scope="session")
def gesture_queries(query_generator):
    """One learned query per gesture of the throughput vocabulary."""
    queries = []
    for index, (name, trajectory) in enumerate(THROUGHPUT_GESTURES):
        joints = ("lhand",) if getattr(trajectory, "hand", "rhand") == "lhand" else ("rhand",)
        description = learn_gesture(name, trajectory, seed=500 + index, joints=joints)
        queries.append(query_generator.generate(description))
    return queries


@pytest.fixture(scope="session")
def sensor_frames():
    """Raw sensor frames: four performed gestures interleaved with idle."""
    simulator = make_simulator(seed=900)
    frames = []
    for _, trajectory in THROUGHPUT_GESTURES[:4]:
        frames.extend(
            simulator.perform_variation(trajectory, hold_start_s=0.2, hold_end_s=0.2)
        )
        frames.extend(simulator.idle_frames(0.5))
    return frames


@pytest.fixture(scope="session")
def standard_workload():
    """The workload used by the accuracy-style experiments (C1, C3, C4)."""
    return build_workload(
        WorkloadConfig(
            gestures=("swipe_right", "swipe_left", "circle", "push"),
            training_samples=5,
            test_performances=3,
            test_users=("adult", "child", "tall_adult"),
            seed=23,
        )
    )
