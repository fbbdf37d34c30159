"""Every public name and every benchmark trace target resolves."""

import importlib
import importlib.util
from pathlib import Path

import halfsphere

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_public_name_resolves():
    assert len(set(halfsphere.__all__)) == len(halfsphere.__all__)
    assert [name for name in halfsphere.__all__ if not hasattr(halfsphere, name)] == []


def test_every_trace_target_exists():
    # perfbench/tracer.py wraps these by name; a target the program renamed
    # or moved would drop out of the trace without an error
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [
        target
        for table in (tracer.SPANS, tracer.COUNTERS)
        for targets in table.values()
        for target in targets
    ]
    assert targets
    missing = []
    for mod, path in targets:
        module = importlib.import_module(f"halfsphere.{mod}")
        owner, _, attr = path.rpartition(".")
        # like the tracer, a method must sit in its own class's __dict__
        scope = getattr(getattr(module, owner, None), "__dict__", {}) if owner else vars(module)
        if attr not in scope:
            missing.append(f"{mod}.{path}")
    assert missing == []
