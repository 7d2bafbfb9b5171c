"""The benchmark's tracer wraps crcontact functions by name from outside.

``perfbench/spans.py`` lists them in ``TRACED`` ("name" or "Class.method"
per layer module); its ``Tracer.install`` raises on a name that no longer
exists, which breaks the traced benchmark run. The file is loaded by path
and only read.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, names in spans.TRACED.items():
        home = importlib.import_module(f"crcontact.{layer}")
        for name in names:
            obj = home
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{name}")
    assert spans.TRACED and not missing, missing
