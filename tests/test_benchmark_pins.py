"""The package names that the benchmark's tracer patches must exist.

``e2ebench/tracer.py`` wraps package functions and methods by name, and its
own smoke test is not part of this suite; this test loads the tracer
(read-only) and checks every entry point it would patch.
"""

import importlib.util
from pathlib import Path

import drifttune
import drifttune.cli  # noqa: F401  (entry_points reads drifttune.cli)

TRACER = Path(__file__).resolve().parent.parent / "e2ebench" / "tracer.py"


def test_every_traced_entry_point_exists():
    spec = importlib.util.spec_from_file_location("e2ebench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    points = tracer.entry_points(drifttune)
    assert points
    for name, owner, attr in points:
        # the tracer reads owner.__dict__[attr], so an inherited name would not do
        assert attr in vars(owner), f"{name}: {owner.__name__} has no {attr}"
