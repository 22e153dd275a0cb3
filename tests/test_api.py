"""The public API: each module's ``__all__`` and the top-level ``driftlab`` names agree."""

import importlib
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import driftlab

MODULES = [
    importlib.import_module(f"driftlab.{info.name}") for info in pkgutil.iter_modules(driftlab.__path__)
]
# package metadata, not library names
METADATA = {"__version__", "SCHEMA_VERSION"}
ROOT = Path(__file__).resolve().parents[1]


def _top_level_names() -> set[str]:
    return {
        name
        for name, value in vars(driftlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType) and name not in METADATA
    }


def test_every_module_export_is_a_top_level_name():
    missing = {f"{m.__name__}.{name}" for m in MODULES for name in getattr(m, "__all__", ()) if name not in vars(driftlab)}
    assert missing == set()


def test_every_top_level_name_is_a_module_export():
    exported = {name for m in MODULES for name in getattr(m, "__all__", ())}
    assert _top_level_names() - exported == set()


def test_perfbench_tracer_installs():
    """perfbench's tracer wraps driftlab names by lookup; a renamed or deleted one fails here.

    Run in a subprocess so that the wrappers stay out of this test process.
    """
    code = "import sys; sys.path[:0] = sys.argv[1:]; import child, driftlab; child.Tracer().install(driftlab)"
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
