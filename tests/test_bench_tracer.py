"""The benchmark's tracer finds every function it wraps, and puts it back.

``perfbench/tracing.py`` replaces layer entry points by name in the
modules that look them up (``hotbrownian.pipeline.extract_k`` and so
on).  A renamed or removed entry point breaks every traced benchmark run
with an ``AttributeError``; this test catches it in the Tier-1 suite.
"""

import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_entry_point():
    tracing = _load_tracing()
    points = [(module, attr) for module, attr, _, _ in tracing._entry_points()]
    originals = [getattr(module, attr) for module, attr in points]

    with tracing.Tracer():
        for (module, attr), original in zip(points, originals):
            wrapper = getattr(module, attr)
            assert wrapper is not original, f"{module.__name__}.{attr} not wrapped"
            assert wrapper.__wrapped__ is original

    for (module, attr), original in zip(points, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
