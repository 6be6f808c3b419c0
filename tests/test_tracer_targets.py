"""The benchmark tracer wraps geograph functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "geobench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("geobench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # standard library imports only
    missing = []
    for module_name, names in tracer.TARGETS.items():
        module = importlib.import_module(module_name)
        for qualified in names:
            owner = module
            for part in qualified.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{module_name}.{qualified}")
    assert not missing, missing
