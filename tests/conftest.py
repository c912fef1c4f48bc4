"""The multi-primitive scene shared by several modules, plus session timing
for the suite-runtime criterion.

The ``montecarlo`` marker tags statistical tests that repeat many seeded
trials; their wall time is tracked separately so the runtime budget check
(which excludes them) can run as the last test of the session.
"""

import time

import pytest

from metricshape.synthetic import Box, Plane, SceneSpec, Sphere

SESSION = {"start": 0.0, "montecarlo_seconds": 0.0}

# depth varies across the view and across primitives, so sampled pixel
# pairs span a genuinely 3D configuration (a single plane would leave a
# one-parameter family of intrinsics consistent with any distance set)
RICH_SCENE = SceneSpec(
    (
        Plane(point=(0.0, 0.0, 4.0), normal=(0.3, 0.55, -1.0)),
        Sphere(center=(0.5, -0.3, 2.8), radius=0.75),
        Sphere(center=(-0.8, 0.5, 3.6), radius=0.6),
        Box(min_corner=(-0.3, -1.2, 1.8), max_corner=(0.8, -0.5, 2.6)),
    )
)


def pytest_sessionstart(session):
    SESSION["start"] = time.perf_counter()


def pytest_collection_modifyitems(config, items):
    # acceptance runs last so its timing check observes the whole suite
    items.sort(key=lambda item: item.fspath.basename == "test_acceptance.py")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    t0 = time.perf_counter()
    yield
    if item.get_closest_marker("montecarlo") is not None:
        SESSION["montecarlo_seconds"] += time.perf_counter() - t0
