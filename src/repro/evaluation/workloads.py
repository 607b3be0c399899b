"""Workload generation for the evaluation benchmarks.

A workload is a reproducible train/test split generated with the Kinect
simulator: for every gesture in the catalogue, ``training_samples``
performances by a training user and ``test_performances`` by (possibly
different) test users, plus idle segments as negative data.  Benchmarks use
workloads so their numbers can be regenerated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.kinect.noise import GaussianNoise
from repro.kinect.recordings import Recording
from repro.kinect.simulator import KinectSimulator
from repro.kinect.trajectories import Trajectory, standard_gesture_catalog
from repro.kinect.users import BodyProfile, user_by_name
from repro.streams.clock import SimulatedClock


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of a generated evaluation workload.

    Attributes
    ----------
    gestures:
        Names of the catalogue gestures to include (``None`` = all except
        the control gestures).
    training_samples:
        Number of training performances per gesture.
    test_performances:
        Number of test performances per gesture and test user.
    training_user / test_users:
        Body-profile names; using different users for testing exercises the
        position/scale invariance of the transformation.
    noise_sigma_mm:
        Sensor noise level.
    hold_s:
        Stationary hold before and after every performance.
    seed:
        Random seed for waypoint variation and noise.
    """

    gestures: Optional[Tuple[str, ...]] = None
    training_samples: int = 4
    test_performances: int = 5
    training_user: str = "adult"
    test_users: Tuple[str, ...] = ("adult", "child", "tall_adult")
    noise_sigma_mm: float = 6.0
    hold_s: float = 0.3
    seed: int = 13

    def __post_init__(self) -> None:
        if self.training_samples < 1:
            raise ValueError("training_samples must be at least 1")
        if self.test_performances < 1:
            raise ValueError("test_performances must be at least 1")
        if self.noise_sigma_mm < 0:
            raise ValueError("noise_sigma_mm must be non-negative")


@dataclass
class EvaluationWorkload:
    """A generated train/test corpus.

    Attributes
    ----------
    training:
        gesture name → list of training recordings (same user).
    test:
        gesture name → list of (user name, recording) test performances.
    idle:
        negative recordings (user standing still / random fidgeting).
    catalog:
        gesture name → trajectory used to generate it.
    """

    config: WorkloadConfig
    training: Dict[str, List[Recording]] = field(default_factory=dict)
    test: Dict[str, List[Tuple[str, Recording]]] = field(default_factory=dict)
    idle: List[Recording] = field(default_factory=list)
    catalog: Dict[str, Trajectory] = field(default_factory=dict)

    @property
    def gesture_names(self) -> List[str]:
        return sorted(self.training)

    def training_frames(self, gesture: str) -> List[List[Dict[str, float]]]:
        """The raw frame lists of all training samples of ``gesture``."""
        return [list(recording.frames) for recording in self.training[gesture]]

    def total_test_performances(self) -> int:
        return sum(len(performances) for performances in self.test.values())


def _make_simulator(user: BodyProfile, seed: int, noise_sigma: float) -> KinectSimulator:
    rng = np.random.default_rng(seed)
    return KinectSimulator(
        user=user,
        clock=SimulatedClock(),
        noise=GaussianNoise(sigma_mm=noise_sigma, rng=np.random.default_rng(rng.integers(2**31))),
        rng=np.random.default_rng(rng.integers(2**31)),
    )


def build_workload(config: Optional[WorkloadConfig] = None) -> EvaluationWorkload:
    """Generate a labelled evaluation workload from the simulator."""
    config = config or WorkloadConfig()
    catalog = standard_gesture_catalog()
    if config.gestures is not None:
        unknown = [name for name in config.gestures if name not in catalog]
        if unknown:
            raise ValueError(f"unknown gestures requested: {unknown}")
        catalog = {name: catalog[name] for name in config.gestures}
    else:
        # The two-hand swipe is reserved as the workflow control gesture.
        catalog = {
            name: trajectory
            for name, trajectory in catalog.items()
            if name != "two_hand_swipe"
        }

    workload = EvaluationWorkload(config=config, catalog=dict(catalog))

    training_user = user_by_name(config.training_user)
    for index, (name, trajectory) in enumerate(sorted(catalog.items())):
        simulator = _make_simulator(
            training_user, seed=config.seed + index, noise_sigma=config.noise_sigma_mm
        )
        samples = [
            Recording(
                gesture=name,
                user=training_user.name,
                frames=simulator.perform_variation(
                    trajectory, hold_start_s=config.hold_s, hold_end_s=config.hold_s
                ),
            )
            for _ in range(config.training_samples)
        ]
        workload.training[name] = samples

    for user_offset, user_name in enumerate(config.test_users):
        user = user_by_name(user_name)
        for index, (name, trajectory) in enumerate(sorted(catalog.items())):
            simulator = _make_simulator(
                user,
                seed=config.seed + 1000 + 37 * user_offset + index,
                noise_sigma=config.noise_sigma_mm,
            )
            for _ in range(config.test_performances):
                recording = Recording(
                    gesture=name,
                    user=user.name,
                    frames=simulator.perform_variation(
                        trajectory, hold_start_s=config.hold_s, hold_end_s=config.hold_s
                    ),
                )
                workload.test.setdefault(name, []).append((user.name, recording))

    for user_offset, user_name in enumerate(config.test_users):
        user = user_by_name(user_name)
        simulator = _make_simulator(
            user, seed=config.seed + 5000 + user_offset, noise_sigma=config.noise_sigma_mm
        )
        workload.idle.append(
            Recording(
                gesture="idle",
                user=user.name,
                frames=simulator.idle_frames(3.0),
            )
        )
    return workload
