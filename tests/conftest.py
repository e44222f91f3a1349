import tracemalloc

import pytest

import isoplab.farball
from isoplab import deficit_profile, density_from_config


@pytest.fixture
def const2():
    return density_from_config({"family": "constant", "dim": 2, "a": 1.0})


@pytest.fixture
def exp2():
    return density_from_config({"family": "radial_exp", "dim": 2, "a": 1.0,
                                "params": {"c": 1.0}})


@pytest.fixture
def exp3():
    return density_from_config({"family": "radial_exp", "dim": 3, "a": 1.0,
                                "params": {"c": 1.0}})


@pytest.fixture
def angular2():
    return density_from_config({"family": "angular_mod", "dim": 2, "a": 1.0,
                                "params": {"eta": 0.5, "k": 1, "c": 1.0}})


def _traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees in a warm call of fn."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak


def _far(d, R, eps=0.05):
    """The far-ball certificate of the radial average at offset R, as
    ``find_far_radius`` certifies it there."""
    return isoplab.farball._ball_certificate(deficit_profile(d), d.dim, R, eps)


@pytest.fixture
def far_at():
    return _far
