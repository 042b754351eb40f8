"""The traced benchmark run (perfbench/run.py --trace 1) wraps library
functions by (module, name); a rename in cycflats must not orphan one."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_lists():
    """SPANNED and COUNTED from the tracer's source, executed without
    importing it as a module (so no bytecode is written next to it)."""
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["SPANNED"], namespace["COUNTED"]


def test_every_traced_name_resolves():
    spanned, counted = tracer_lists()
    assert spanned and counted
    for mod, name in spanned + counted:
        obj = importlib.import_module(f"cycflats.{mod}")
        for attr in name.split("."):
            assert hasattr(obj, attr), f"cycflats.{mod}.{name} is gone"
            obj = getattr(obj, attr)
        assert callable(obj), f"cycflats.{mod}.{name}"
