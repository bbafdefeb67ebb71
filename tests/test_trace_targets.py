"""Every name the per-layer tracer wraps must resolve in rigidkit.

``perfbench/tracing.py`` wraps its targets by name when a traced run starts;
a refactor that moves or renames one would only show there.  This test
installs no wrappers and changes nothing under ``perfbench/``.
"""

import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    missing = []
    for layer, target, _record, _extra in tracing.TARGETS:
        module = importlib.import_module(f"rigidkit.{layer}")
        owner_name, _, attr = target.rpartition(".")
        if not owner_name:
            if not callable(getattr(module, attr, None)):
                missing.append(f"{layer}.{target}")
            continue
        # the tracer wraps the raw function or classmethod in the class body
        raw = vars(getattr(module, owner_name, object)).get(attr)
        if not (inspect.isfunction(raw) or isinstance(raw, classmethod)):
            missing.append(f"{layer}.{target}")
    assert missing == []
