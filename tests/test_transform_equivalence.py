"""``KinectTransformer.transform`` equals the composition of the public helpers.

The transformer does torso shift, yaw alignment, rotation and scaling in one
pass; the oracle here composes ``shift_to_torso``, ``estimate_yaw_deg``,
``rotate_about_y`` and ``scale_coordinates`` the way the view is defined.
Outputs are compared by ``repr`` (so ``-0.0``, NaN and int/float all count)
and by key order.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kinect.skeleton import JOINTS, TRACKED_AXES, joint_field
from repro.transform.coordinate import scale_coordinates, shift_to_torso
from repro.transform.pipeline import KinectTransformer, TransformConfig
from repro.transform.rotation import estimate_yaw_deg, rotate_about_y

COORDINATES = st.one_of(
    # Millimetre readings with a fractional part, where the order of the
    # shift and the difference changes the rounding.
    st.integers(min_value=-3_000_000, max_value=3_000_000).map(lambda n: n / 1000),
    st.floats(min_value=-3000.0, max_value=3000.0),
    st.integers(min_value=-3000, max_value=3000),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
)

#: Per joint: mostly all three axes; else none, or one axis dropped (a
#: partial joint).
PRESENCE = st.sampled_from(["xyz"] * 5 + ["", "yz", "xz", "xy"])

EXTRA_FIELDS = st.lists(
    st.sampled_from(["ts", "player", "scale", "rhand_w", "confidence"]), unique=True
)

CONFIGS = st.builds(
    TransformConfig,
    align_orientation=st.booleans(),
    scale_side=st.sampled_from(["right", "left"]),
    scale_reference_mm=st.sampled_from([243.0, 1.0, 100.0]),
    smooth_scale=st.sampled_from([0.0, 0.8]),
)


@st.composite
def frames(draw: Any, torso: bool = True) -> Dict[str, Any]:
    """A frame with random joint presence, extra fields and key order."""
    items = []
    for joint in JOINTS:
        if joint == "torso":
            axes = "xyz" if torso else ""
        else:
            axes = draw(PRESENCE)
        items.extend((joint_field(joint, axis), draw(COORDINATES)) for axis in axes)
    items.extend((name, draw(COORDINATES)) for name in draw(EXTRA_FIELDS))
    return dict(draw(st.permutations(items)))


def composed(frame: Mapping[str, Any], scale: float, config: TransformConfig) -> Dict[str, Any]:
    """The ``kinect_t`` frame as the composition of the public helpers."""
    shifted = shift_to_torso(frame)
    if config.align_orientation:
        shifted = rotate_about_y(shifted, -estimate_yaw_deg(shifted))
    transformed = scale_coordinates(shifted, scale=scale, reference=config.scale_reference_mm)
    transformed["scale"] = scale
    return transformed


def fingerprint(frame: Mapping[str, Any]) -> List[Any]:
    return [(key, repr(value)) for key, value in frame.items()]


def assert_matches_composition(config: TransformConfig, stream: List[Dict[str, Any]]) -> None:
    transformer = KinectTransformer(config)
    for frame in stream:
        original = fingerprint(frame)
        transformed = transformer.transform(frame)
        assert fingerprint(frame) == original, "the input frame was modified"
        expected = composed(frame, transformed["scale"], config)
        assert fingerprint(transformed) == fingerprint(expected)


def _full(**overrides: float) -> Dict[str, float]:
    frame = {
        joint_field(joint, axis): float(100 * index + offset)
        for index, joint in enumerate(JOINTS)
        for offset, axis in enumerate(TRACKED_AXES)
    }
    frame.update(overrides)
    return frame


@settings(max_examples=300, deadline=None)
@given(config=CONFIGS, stream=st.lists(frames(), min_size=1, max_size=4))
@example(config=TransformConfig(), stream=[_full(torso_x=-0.0, rhand_x=-0.0, rhand_z=-0.0)])
@example(
    config=TransformConfig(),
    stream=[{k: v for k, v in _full().items() if "shoulder" not in k}],
)
@example(
    config=TransformConfig(
        align_orientation=False, scale_side="left", scale_reference_mm=1.0
    ),
    stream=[_full(ts=0.5, player=3)],
)
def test_transform_equals_helper_composition(config, stream):
    assert_matches_composition(config, stream)


@pytest.mark.parametrize(
    "frame",
    [
        {k: v for k, v in _full().items() if k != "lelbow_y"},  # a joint with 2 of 3 axes
        {k: v for k, v in _full().items() if not k.startswith("rshoulder")},  # yaw 0
        {k: v for k, v in _full().items() if k != "lshoulder_y"},  # partial shoulder: yaw 0
        _full(lshoulder_x=-0.0, rshoulder_x=-0.0, lshoulder_z=-0.0, rshoulder_z=0.0),
        # (75.4 - 62.4) - (-260.7 - 62.4) != 75.4 - -260.7: the yaw must come
        # from the shifted shoulders.
        _full(torso_x=62.4, rshoulder_x=75.4, lshoulder_x=-260.7),
        {"torso_x": 0.0, "torso_y": 0.0, "torso_z": 0.0, "ts": 1.0},
    ],
)
@pytest.mark.parametrize(
    "config",
    [
        TransformConfig(),
        TransformConfig(align_orientation=False, scale_side="left", scale_reference_mm=1.0),
    ],
)
def test_edge_frames_equal_helper_composition(frame, config):
    assert_matches_composition(config, [frame])


@given(config=CONFIGS, frame=frames(torso=False))
@settings(max_examples=50, deadline=None)
def test_missing_torso_raises_key_error(config, frame):
    with pytest.raises(KeyError):
        KinectTransformer(config).transform(frame)
