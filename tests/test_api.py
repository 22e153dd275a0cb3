"""The public API: each module's ``__all__`` and the top-level ``driftlab`` names agree."""

import importlib
import json
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


def test_simulate_run_does_not_import_numpy_ma(tmp_path):
    """A run and its refit stay off ``numpy.ma``, whose import alone costs about 18 ms.

    Run in a subprocess, where no other test has imported it first, and with
    ``jobs=1``, so that the seeds run in the process whose modules are checked.
    """
    config = {
        "horizon": 2048,
        "seeds": [0, 1],
        "drift": {"kind": "power_step", "alpha": 0.25},
        "concept": {"eta": 0.1, "theta0": 0.5},
        "process": {"kind": "markov_modulated", "states": 4, "flip": 0.25},
        "learner": {"kind": "subsampled_erm", "alpha": 0.25, "r": 2.0},
        "checkpoints": {"t_min": 16, "t_max": 2048},
    }
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import driftlab; "
        "record, _ = driftlab.run_config(driftlab.resolve_config(json.loads(sys.argv[2])), sys.argv[3], jobs=1); "
        "driftlab.refit_rates(record.out_dir); print('numpy.ma' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), json.dumps(config), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
