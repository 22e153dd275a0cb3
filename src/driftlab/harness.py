"""Experiment configs, deterministic run orchestration, sweeps and verifications.

A config is a JSON-compatible dict.  Validation resolves defaults, rejects
unknown or ill-typed keys (naming the offending key), and the canonical
resolved form is hashed so outputs land in a content-addressed directory:

    out/<hash>/curve-<seed>.csv   per-seed exact risk curve (+ window diagnostics)
    out/<hash>/curve-mean.csv     replicate-aggregated curve with CIs
    out/<hash>/fit.json           growth-exponent fit (or the reason it was skipped)
    out/<hash>/summary.txt        human-readable recap
    out/<hash>/config.json        canonical resolved config
    out/<hash>/run.json           record incl. wall clock (the only non-reproducible field)

Identical (config bytes, seeds, version) reproduce identical CSV/fit/summary
bytes.  Per-seed curves flush at power-of-two steps, each up to the last whole
CSV_CHUNK_ROWS chunk, so a cut run keeps a prefix: 65,536 rows of a 100,000-step
seed cut after step 65,536, 16,384 of a 32,768-step one cut at step 32,000.
Every other file is replaced atomically.
"""

from __future__ import annotations

import copy
import csv
import functools
import hashlib
import inspect
import io
import itertools
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Collection, Sequence

import numpy as np

from . import __version__, SCHEMA_VERSION
from .distributions import (
    ConceptPath,
    DriftSchedule,
    ThresholdConcept,
    concept_path,
    discrepancy,
    make_drift_schedule,
    tv_distance,
)
from .evaluation import (
    CSV_CHUNK_ROWS,
    DEFAULT_CHECKPOINT_MIN,
    RateFit,
    RegretCurve,
    default_checkpoints,
    fit_growth_exponent,
    geometric_checkpoints,
    plan_group_starts,
    run_single,
    theoretical_exponent,
    verify_blocking,
    verify_uniform_deviation,
    write_curve_rows,
    write_text_atomic,
)
from .hypotheses import ThresholdClass
from .learners import (
    BASELINE_KINDS,
    AdaptiveWindowLearner,
    BaselineLearner,
    ConstantWindowLearner,
    Learner,
    SubsampledErmLearner,
    constant_window_size,
)
from .processes import (
    MAX_STATES,
    MarkovModulatedProcess,
    ProcessModel,
    ProductProcess,
    symmetric_chain,
    verify_mixing_rate,
)

__all__ = [
    "ConfigError",
    "RunRecord",
    "SweepRecord",
    "resolve_config",
    "config_hash",
    "build_model",
    "build_learner",
    "run_config",
    "run_sweep",
    "run_verify",
    "refit_rates",
]

# verify options set by a CLI flag are named by that flag in errors
VERIFY_FLAGS = {"trials": "--trials", "pairs": "--pairs", "seed": "--seed", "m_grid": "--m-grid"}


class ConfigError(ValueError):
    """Validation failure; ``key`` names the offending config key or flag."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


def _require(condition: bool, key: str, message: str) -> None:
    if not condition:
        raise ConfigError(key, message)


def _check_keys(section: dict, allowed: Collection[str], prefix: str, message: str = "unknown key") -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{prefix}.{key}" if prefix else key, message)


def _as_float(value: Any, key: str) -> float:
    # exact comparisons: NaN fails both, and ints beyond the float range fail one
    _require(
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and -sys.float_info.max <= value <= sys.float_info.max,
        key,
        "must be a finite number",
    )
    return float(value)


def _as_int(value: Any, key: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), key, "must be an integer")
    return int(value)


def _as_int_list(value: Any, key: str) -> list[int]:
    _require(isinstance(value, list) and len(value) > 0, key, "must be a non-empty list")
    return [_as_int(v, key) for v in value]


# Every numeric config key: (type, default, range check, message when the check fails). A default of
# None marks a required key; one that names another key inherits that key's value, and without one is required.
KEYS = {
    "horizon": (_as_int, None, lambda v: v >= 1, "must be >= 1"),
    "seeds": (_as_int_list, None, lambda v: min(v) >= 0, "must be non-negative integers"),
    "drift.alpha": (_as_float, None, lambda v: 0.0 <= v < 1.0, "must lie in [0,1)"),
    "drift.gamma": (_as_float, None, lambda v: 0.0 < v <= 1.0, "must lie in (0,1]"),
    "drift.c0": (_as_float, 1.0, lambda v: v > 0.0, "must be positive"),
    "drift.seed": (_as_int, 0, lambda v: v >= 0, "must be >= 0"),
    "concept.eta": (_as_float, 0.1, lambda v: 0.0 <= v < 0.5, "must lie in [0, 0.5)"),
    "concept.theta0": (_as_float, 0.5, lambda v: 0.0 <= v <= 1.0, "must lie in [0,1]"),
    "process.states": (_as_int, None, lambda v: 2 <= v <= MAX_STATES, f"must lie in [2,{MAX_STATES}]"),
    "process.flip": (_as_float, None, lambda v: 0.0 < v < 1.0, "must lie in (0,1)"),
    "learner.alpha": (_as_float, "drift.alpha", lambda v: 0.0 <= v < 1.0, "must lie in [0,1)"),
    "learner.r": (_as_float, None, lambda v: v > 0.0, "must be positive"),
    "learner.gamma": (_as_float, "drift.gamma", lambda v: 0.0 < v <= 1.0, "must lie in (0,1]"),
}
# the keys each kind reads besides "kind", in the order they are checked
KINDS = {
    "drift": {
        "power_step": ("c0", "alpha", "seed"),
        "constant": ("gamma", "alpha", "seed"),
        "triangle_wave": ("c0", "alpha", "seed"),
    },
    "process": {"product": (), "markov_modulated": ("states", "flip")},
    "learner": {
        "subsampled_erm": ("alpha", "r"),
        "adaptive_window": (),
        "constant_window": ("gamma",),
        **dict.fromkeys(BASELINE_KINDS, ()),
    },
}
# constant drift moves by gamma alone, so its alpha is optional
KIND_DEFAULTS = {"drift.constant": {"alpha": 0.0}}


def _resolve_key(section: dict, key: str, default: Any = None) -> Any:
    """``key`` read from its raw ``section`` by its row in KEYS; ``default``, when not None, replaces the row's."""
    convert, row_default, check, message = KEYS[key]
    value = convert(section.get(key.rpartition(".")[2], row_default if default is None else default), key)
    _require(check(value), key, message)
    return value


def _resolve_section(raw: dict, name: str, default: dict | None = None, inherit: dict | None = None) -> dict:
    """Section ``name`` of ``raw``: its kind and the keys that kind reads (a key it does not read is an error),
    or all its keys if it has no kinds."""
    section = raw.get(name, default)
    _require(isinstance(section, dict), name, "must be an object")
    leaves = [key.partition(".")[2] for key in KEYS if key.startswith(f"{name}.")]
    if name not in KINDS:
        _check_keys(section, leaves, name)
        return {leaf: _resolve_key(section, f"{name}.{leaf}") for leaf in leaves}
    _check_keys(section, ["kind", *leaves], name)
    kinds = tuple(KINDS[name])
    kind = section.get("kind")
    # a tuple, not the dict: an unhashable kind is a config error, not a TypeError
    _require(kind in kinds, f"{name}.kind", f"must be one of {kinds}")
    _check_keys(section, ["kind", *KINDS[name][kind]], name, f"not read by kind {kind}")
    resolved = {"kind": kind}
    for leaf in KINDS[name][kind]:
        key = f"{name}.{leaf}"
        default = KIND_DEFAULTS.get(f"{name}.{kind}", {}).get(leaf, KEYS[key][1])
        if default in KEYS:
            source, _, source_leaf = default.partition(".")
            _require(leaf in section or source_leaf in inherit[source], key, f"required (no {default} to inherit)")
            default = inherit[source].get(source_leaf)
        resolved[leaf] = _resolve_key(section, key, default)
    return resolved


def _checkpoint_list(values: Any, horizon: int, key: str) -> list[int]:
    """Validate an explicit checkpoint list: non-empty, strictly increasing ints in [1, horizon]."""
    checkpoints = _as_int_list(values, key)
    _require(all(1 <= v <= horizon for v in checkpoints), key, "must lie in [1, horizon]")
    _require(all(b > a for a, b in zip(checkpoints, checkpoints[1:])), key, "must be strictly increasing")
    return checkpoints


def load_config(path: str | Path, key: str) -> dict:
    """Parse a JSON config file; a file that cannot be read or parsed, or holds
    no JSON object, is a ConfigError naming ``key``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as err:
        raise ConfigError(key, f"cannot read {path}: {err.strerror}") from None
    except ValueError as err:  # invalid JSON or not UTF-8
        raise ConfigError(key, f"invalid JSON in {path}: {err}") from None
    _require(isinstance(config, dict), key, f"{path} must hold a JSON object")
    return config


def resolve_config(raw: dict) -> dict:
    """Validate a raw config dict and return the canonical resolved form.

    Raises ConfigError (naming the offending key) on any violation, including
    cross-module preconditions: schedule steps must fit the concept range for
    the configured noise, finite classes cannot be driven by the threshold
    stream processes, and constant-window learners need a usable gamma.
    """
    _require(isinstance(raw, dict), "config", "must be a JSON object")
    _check_keys(raw, {key.partition(".")[0] for key in KEYS} | {"out", "checkpoints", "function_class", "sweep"}, "")
    horizon = _resolve_key(raw, "horizon")
    seeds = _resolve_key(raw, "seeds")
    _require(len(set(seeds)) == len(seeds), "seeds", "must be distinct")
    out = raw.get("out", "out")
    _require(isinstance(out, str) and out, "out", "must be a non-empty string")

    drift = _resolve_section(raw, "drift")
    concept = _resolve_section(raw, "concept", default={})
    eta = concept["eta"]
    max_delta = drift.get("gamma", 0.0)
    if drift["kind"] != "constant":
        max_delta = min(1.0, drift["c0"] * 2.0 ** (drift["alpha"] - 1.0)) if horizon >= 2 else 0.0
    _require(
        max_delta <= 1.0 - 2.0 * eta,
        "concept.eta",
        f"largest drift step {max_delta:.6g} exceeds the concept range (1-2*eta)={1 - 2 * eta:.6g}",
    )

    process = _resolve_section(raw, "process")
    if process["kind"] == "markov_modulated":
        states = process["states"]
        # a subnormal flip/(states-1) can round to 0, which leaves the chain reducible
        _require(process["flip"] / (states - 1) > 0.0, "process.flip", f"too small: flip/(states-1) is 0 with {states} states")

    fc_raw = raw.get("function_class", {})
    _require(isinstance(fc_raw, dict), "function_class", "must be an object")
    _check_keys(fc_raw, ["kind"], "function_class")
    _require(
        fc_raw.get("kind", "threshold") == "threshold",
        "function_class.kind",
        "must be 'threshold': the stream processes emit threshold-concept data",
    )

    learner = _resolve_section(raw, "learner", inherit={"drift": drift})
    if learner["kind"] == "subsampled_erm":
        # from about 4.5e307 on, 3+4r overflows and the window exponent (3+2r)/(3+4r) is inf/inf
        _require(math.isfinite(3.0 + 4.0 * learner["r"]), "learner.r", "too large: the window exponents are not finite")

    checkpoints_raw = raw.get("checkpoints")
    if checkpoints_raw is None:
        checkpoints = (
            list(default_checkpoints(horizon))
            if horizon >= DEFAULT_CHECKPOINT_MIN  # shorter horizons are sampled at T only
            else [horizon]
        )
    elif isinstance(checkpoints_raw, list):
        checkpoints = _checkpoint_list(checkpoints_raw, horizon, "checkpoints")
    elif isinstance(checkpoints_raw, dict):
        _check_keys(checkpoints_raw, ["t_min", "t_max", "ratio"], "checkpoints")
        t_min = _as_int(checkpoints_raw.get("t_min"), "checkpoints.t_min")
        t_max = _as_int(checkpoints_raw.get("t_max", horizon), "checkpoints.t_max")
        ratio = _as_float(checkpoints_raw.get("ratio", math.sqrt(2.0)), "checkpoints.ratio")
        _require(1 <= t_min < t_max <= horizon, "checkpoints.t_min", "need 1 <= t_min < t_max <= horizon")
        _require(ratio > 1.0, "checkpoints.ratio", "must exceed 1")
        try:
            checkpoints = list(geometric_checkpoints(t_min, t_max, ratio))
        except ValueError as err:  # a ratio too close to 1 for its range
            raise ConfigError("checkpoints.ratio", str(err)) from None
    else:
        raise ConfigError("checkpoints", "must be a list or an object")

    resolved = {
        "horizon": horizon,
        "seeds": seeds,
        "out": out,
        "checkpoints": checkpoints,
        "drift": drift,
        "concept": concept,
        "process": process,
        "function_class": {"kind": "threshold"},
        "learner": learner,
    }
    if "sweep" in raw:
        sweep = raw["sweep"]
        _require(isinstance(sweep, dict), "sweep", "must be an object")
        _check_keys(sweep, ["grid", "cells"], "sweep")
        _require(isinstance(sweep.get("grid", {}), dict), "sweep.grid", "must be an object")
        for key, values in sweep.get("grid", {}).items():
            _require(isinstance(values, list) and len(values) > 0, f"sweep.grid.{key}", "must be a non-empty list")
            _require(key != "seeds", "sweep.grid.seeds", "seeds are shared across cells and cannot be swept")
        _require(isinstance(sweep.get("cells", []), list), "sweep.cells", "must be a list")
        for cell in sweep.get("cells", []):
            _require(isinstance(cell, dict), "sweep.cells", "every cell must be an object")
            _require("seeds" not in cell, "sweep.cells", "seeds are shared across cells and cannot be overridden")
        resolved["sweep"] = dict(sweep)
    return resolved


def canonical_json(resolved: dict) -> str:
    return json.dumps(resolved, sort_keys=True, separators=(",", ":"))


def config_hash(resolved: dict) -> str:
    payload = {k: v for k, v in resolved.items() if k != "sweep"}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:12]


def json_text(payload: dict) -> str:
    """The layout of every JSON file and report; a non-finite number raises ValueError."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_json(path: Path, payload: dict) -> None:
    write_text_atomic(path, json_text(payload))


def build_model(resolved: dict) -> tuple[ProcessModel, DriftSchedule]:
    # a resolved drift section holds exactly the schedule's parameters, and a concept section the path's
    schedule = make_drift_schedule(horizon=resolved["horizon"], **resolved["drift"])
    path = concept_path(schedule, **resolved["concept"])
    process = resolved["process"]
    if process["kind"] == "product":
        return ProductProcess(marginals=path), schedule
    transition = symmetric_chain(process["states"], process["flip"])
    return MarkovModulatedProcess(transition=transition, marginals=path), schedule


def build_learner(resolved: dict, schedule: DriftSchedule) -> Learner:
    spec = resolved["learner"]
    kind = spec["kind"]
    if kind == "subsampled_erm":
        return SubsampledErmLearner(alpha=spec["alpha"], r=spec["r"])
    if kind == "adaptive_window":
        return AdaptiveWindowLearner(schedule=schedule)
    if kind == "constant_window":
        return ConstantWindowLearner(gamma=spec["gamma"])
    return BaselineLearner(kind=kind)


@dataclass
class RunRecord:
    config_hash: str
    out_dir: str
    curve_files: tuple[str, ...]
    fit: RateFit | None
    fit_skip_reason: str | None
    wall_clock_seconds: float
    version: str = __version__


def _run_seed_streaming(
    model: ProcessModel,
    learner: Learner,
    horizon: int,
    inf_risks: np.ndarray,
    seed: int,
    curve_path: str,
) -> np.ndarray:
    """One replicate with its CSV rows flushed in whole chunks.

    At each power-of-two checkpoint of ``run_single`` the rows up to the last
    multiple of CSV_CHUNK_ROWS reached so far are written, and the rest at the
    end, so every chunk of the curve text is rendered in one call.  The file
    always holds a prefix of whole rows.
    """
    gaps, windows = learner.plan(horizon)
    with open(curve_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,risk,inf_risk,cum_excess,win_k,win_m\n")
        fh.flush()
        written = 0

        def checkpoint(t: int, risks: np.ndarray) -> None:
            nonlocal written
            stop = t if t == horizon else t - t % CSV_CHUNK_ROWS
            if stop > written:
                cum_excess = np.cumsum(risks[:stop] - inf_risks[:stop])
                write_curve_rows(fh, (risks, inf_risks, cum_excess, gaps, windows), written, stop)
                written = stop
                fh.flush()

        risks = run_single(model, learner, horizon, seed, checkpoint=checkpoint)
        checkpoint(horizon, risks)
    return risks


def _plan_summary(gaps: np.ndarray, windows: np.ndarray) -> dict:
    """The plan's shape and the ERM work it asks of each seed; (0, 0) rows deploy the initial hypothesis."""
    solves = windows > 0
    return {
        "groups": int(plan_group_starts(gaps, windows).size),
        "initial_steps": int(np.count_nonzero(~solves)),
        "max_window": int(windows.max()),
        "erm_solves": int(np.count_nonzero(solves)),
        "erm_points": int((windows[solves] // gaps[solves]).sum()),
    }


def _resolve_jobs(jobs: int | None) -> int:
    """``jobs`` once checked, or the cores this process may run on when None."""
    if jobs is None:
        return len(os.sched_getaffinity(0))
    _require(jobs >= 1, "--jobs", f"must be >= 1, got {jobs}")
    return jobs


def run_config(resolved: dict, out_root: str | Path, jobs: int | None = None) -> tuple[RunRecord, RegretCurve]:
    """Execute one experiment config; writes the content-addressed output directory.

    ``jobs`` forked workers, at most one a seed, run the seeds; ``jobs`` defaults
    to the usable cores, and 1 runs them all in this process.
    """
    jobs = _resolve_jobs(jobs)
    start = time.monotonic()
    digest = config_hash(resolved)
    out_dir = Path(out_root) / digest
    out_dir.mkdir(parents=True, exist_ok=True)

    model, schedule = build_model(resolved)
    learner = build_learner(resolved, schedule)
    horizon = resolved["horizon"]
    seeds = resolved["seeds"]

    _write_json(out_dir / "config.json", {k: v for k, v in resolved.items() if k != "sweep"})

    gaps, windows = learner.plan(horizon)  # computed once here, then shared by every seed and worker
    inf_risks = np.full(horizon, model.marginals.eta)
    curve_files = [str(out_dir / f"curve-{seed}.csv") for seed in seeds]
    run_seed = functools.partial(_run_seed_streaming, model, learner, horizon, inf_risks)
    if jobs > 1 and len(seeds) > 1:
        import multiprocessing  # imported here, where the pool needs it: about 30 ms of `import driftlab`
        from concurrent.futures import ProcessPoolExecutor

        # fork: workers inherit the parent's modules as they stand, patched ones included
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=min(jobs, len(seeds)), mp_context=fork) as pool:
            results = list(pool.map(run_seed, seeds, curve_files))
    else:
        results = list(map(run_seed, seeds, curve_files))

    curve = RegretCurve(risks=np.stack(results), inf_risks=inf_risks, seeds=tuple(seeds))
    curve.to_csv(str(out_dir / "curve-mean.csv"))

    fit_payload, fit = _write_fit(out_dir, resolved, digest, curve, resolved["checkpoints"])
    skip_reason = fit_payload.get("skipped")
    _write_summary(out_dir / "summary.txt", resolved, digest, curve, fit, skip_reason)

    wall = time.monotonic() - start
    record = RunRecord(
        config_hash=digest,
        out_dir=str(out_dir),
        curve_files=tuple(curve_files),
        fit=fit,
        fit_skip_reason=skip_reason,
        wall_clock_seconds=wall,
    )
    _write_json(
        out_dir / "run.json",
        {
            "schema_version": SCHEMA_VERSION,
            "config_hash": digest,
            "version": __version__,
            "seeds": list(seeds),
            "curve_files": [Path(p).name for p in curve_files],
            "plan": _plan_summary(gaps, windows),
            "wall_clock_seconds": wall,
        },
    )
    return record, curve


def _write_fit(
    out_dir: Path, resolved: dict, digest: str, curve: RegretCurve, checkpoints: Sequence[int]
) -> tuple[dict, RateFit | None]:
    """Fit the growth exponent at ``checkpoints`` and write ``fit.json``.

    Returns the payload and the fit, or None when the fit was skipped (the
    payload then has ``degenerate`` set and the reason under ``skipped``).
    """
    learner = resolved["learner"]
    theoretical = None
    if learner["kind"] == "subsampled_erm":
        theoretical = theoretical_exponent(learner["alpha"], learner["r"])
    payload: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": digest,
        "checkpoints": list(checkpoints),
    }
    fit: RateFit | None = None
    try:
        fit = fit_growth_exponent(checkpoints, curve.checkpoint_values(checkpoints), theoretical=theoretical)
        payload.update(fit.to_json(), degenerate=False)
    except ValueError as err:  # DegenerateCurveError included
        payload.update(degenerate=True, skipped=str(err))
    _write_json(out_dir / "fit.json", payload)
    return payload, fit


def _write_summary(
    path_out: Path,
    resolved: dict,
    digest: str,
    curve: RegretCurve,
    fit: RateFit | None,
    skip_reason: str | None,
) -> None:
    lines = [
        f"driftlab run {digest} (schema {SCHEMA_VERSION}, version {__version__})",
        f"process: {json.dumps(resolved['process'], sort_keys=True)}",
        f"drift: {json.dumps(resolved['drift'], sort_keys=True)}",
        f"concept: {json.dumps(resolved['concept'], sort_keys=True)}",
        f"learner: {json.dumps(resolved['learner'], sort_keys=True)}",
        f"horizon: {resolved['horizon']}  seeds: {len(resolved['seeds'])}",
    ]
    final = float(curve.cum_excess[-1])
    lo, hi = curve.ci_bounds()
    lines.append(
        f"final cumulative excess: {final!r} (ci [{float(lo[-1])!r}, {float(hi[-1])!r}])"
    )
    if fit is not None:
        theo = "" if fit.theoretical is None else f" (theoretical {fit.theoretical!r})"
        lines.append(
            f"fit: exponent {fit.exponent!r} over [{fit.t_min}, {fit.t_max}]"
            f", residual {fit.residual_norm!r}{theo}"
        )
    else:
        lines.append(f"fit: skipped ({skip_reason})")
    write_text_atomic(path_out, "\n".join(lines) + "\n")


def _cell_config(raw: dict, cell: dict) -> dict:
    """A copy of the raw config without its sweep, patched with the cell's dotted keys."""
    config = copy.deepcopy({k: v for k, v in raw.items() if k != "sweep"})
    for dotted, value in cell.items():
        *parents, leaf = dotted.split(".")
        node = config
        for part in parents:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[leaf] = value
    return config


@dataclass
class SweepRecord:
    sweep_hash: str
    table_path: str
    failure_manifest: str | None
    cells: tuple[dict, ...]
    failures: tuple[dict, ...]


def _expand_cells(resolved: dict) -> list[dict]:
    """The grid's cells, keys in sorted order, then the listed cells."""
    sweep = resolved.get("sweep") or {}
    grid = sweep.get("grid") or {}
    keys = sorted(grid)
    cells = [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))] if grid else []
    return cells + [dict(cell) for cell in sweep.get("cells", [])]


def run_sweep(raw: dict, out_root: str | Path, jobs: int | None = None) -> SweepRecord:
    """Run every sweep cell; write the combined table and a failure manifest.

    Cells patch the *raw* config before per-cell resolution, so defaults that
    inherit across sections (a constant-window learner's gamma, a subsampled
    learner's alpha) track each cell's swept drift parameters instead of the
    base config's values.  Every cell is resolved, and ``jobs`` checked, before
    the first cell runs, so a bad cell exits without writing any run.
    """
    resolved = resolve_config(raw)
    cells = _expand_cells(resolved)
    _require(len(cells) > 0, "sweep", "sweep grid/cells must produce at least one cell")
    jobs = _resolve_jobs(jobs)
    cell_configs = [resolve_config(_cell_config(raw, cell)) for cell in cells]
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    sweep_digest = hashlib.sha256(
        (canonical_json(resolved) + canonical_json({"cells": cells})).encode()
    ).hexdigest()[:12]

    swept_keys = sorted({key for cell in cells for key in cell})
    rows: list[dict] = []
    failures: list[dict] = []
    for cell, cell_resolved in zip(cells, cell_configs):
        try:
            record, curve = run_config(cell_resolved, out_root, jobs=jobs)
        except Exception as err:  # runtime failure in one cell: keep the rest
            failures.append({"cell": cell, "error": f"{type(err).__name__}: {err}"})
            continue
        warmup = 0
        if cell_resolved["learner"]["kind"] == "constant_window":
            warmup = constant_window_size(1, cell_resolved["learner"]["gamma"])
        excess = curve.mean_risk - curve.inf_risks
        steady = excess[warmup:] if warmup < curve.horizon else excess
        rows.append(
            {
                **cell,
                "config_hash": record.config_hash,
                "avg_excess": float(steady.mean()),
                "final_cum_excess": float(curve.cum_excess[-1]),
                "fit_exponent": record.fit.exponent if record.fit else float("nan"),
                "fit_theoretical": (
                    record.fit.theoretical
                    if record.fit and record.fit.theoretical is not None
                    else float("nan")
                ),
            }
        )

    table_path = out_root / f"sweep-{sweep_digest}.csv"
    metric_cols = ["config_hash", "avg_excess", "final_cum_excess", "fit_exponent", "fit_theoretical"]
    text = io.StringIO()
    # floats by repr; a key a cell does not set, or sets to None, is an empty field
    table = csv.DictWriter(text, swept_keys + metric_cols, lineterminator="\n")
    table.writeheader()
    table.writerows(rows)
    write_text_atomic(table_path, text.getvalue())

    manifest_path: str | None = None
    if failures:
        manifest = out_root / f"sweep-{sweep_digest}.failures.json"
        _write_json(manifest, {"failures": failures})
        manifest_path = str(manifest)
    return SweepRecord(
        sweep_hash=sweep_digest,
        table_path=str(table_path),
        failure_manifest=manifest_path,
        cells=tuple(cells),
        failures=tuple(failures),
    )


def _verify_blocking() -> dict:
    entries = []
    path = ConceptPath(np.array([0.5]), 0.1)
    for n_states in (2, 3, 4):
        for flip in (0.1, 0.3, 0.45):
            model = MarkovModulatedProcess(transition=symmetric_chain(n_states, flip), marginals=path)
            for n_blocks in (2, 3, 4):
                for gap in range(1, 9):
                    # the stationary block law is the same at every t, so one report serves t = 1..5
                    report = verify_blocking(model, blocks=n_blocks, gap=gap).to_json()
                    entries.extend({**report, "flip": flip, "t": t} for t in range(1, 6))
    worst = min(entries, key=lambda entry: entry["slack"])  # the first least slack
    return {
        "kind": "blocking",
        "cases": len(entries),
        "min_slack": worst["slack"],
        "worst": worst,
        "ok": worst["slack"] >= -1e-12,
    }


def _verify_uniform_deviation(*, trials=2000, seed=0, m_grid=tuple(2**j for j in range(4, 15))) -> dict:
    _require(trials >= 2, "--trials", f"must be >= 2, got {trials}")
    _require(seed >= 0, "--seed", f"must be >= 0, got {seed}")
    # the fitted slope needs two sizes
    _require(len(m_grid) >= 2 and min(m_grid) >= 1, "--m-grid", "needs at least two sizes, every size >= 1")
    _require(all(b > a for a, b in zip(m_grid, m_grid[1:])), "--m-grid", "must be strictly increasing")
    eta = 0.1
    horizon = max(m_grid)

    identical = ConceptPath(np.full(horizon, 0.35), eta)
    drifting_schedule = make_drift_schedule("constant", alpha=0.0, horizon=horizon, gamma=0.01)
    drifting = concept_path(drifting_schedule, eta=eta, theta0=0.2)

    results = {}
    ok = True
    # both settings score the same draws: one draw and one sort a trial serve both
    reports = verify_uniform_deviation((identical, drifting), m_grid, trials, seed)
    for name, report in zip(("identical", "drifting"), reports):
        entry = report.to_json()
        entry["slope_ok"] = abs(report.fitted_exponent + 0.5) <= 0.08
        entry["envelope_ok"] = report.envelope_constant <= 3.0
        ok = ok and entry["slope_ok"] and entry["envelope_ok"]
        results[name] = entry
    return {"kind": "uniform_deviation", "settings": results, "ok": ok}


def _verify_discrepancy(*, pairs=10000, seed=0) -> dict:
    _require(pairs >= 1, "--pairs", f"must be >= 1, got {pairs}")
    _require(seed >= 0, "--seed", f"must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    fclass = ThresholdClass()
    tol = 1e-9

    max_rho_minus_tv = -math.inf
    for _ in range(pairs):
        eta_p = rng.uniform(0.0, 0.49)
        eta_q = eta_p if rng.random() < 0.5 else rng.uniform(0.0, 0.49)
        p = ThresholdConcept(theta=float(rng.random()), eta=float(eta_p))
        q = ThresholdConcept(theta=float(rng.random()), eta=float(eta_q))
        gap = discrepancy(p, q, fclass) - tv_distance(p, q)
        max_rho_minus_tv = max(max_rho_minus_tv, gap)

    theta_grid = np.arange(0.0, 1.0 + 1e-12, 0.001)
    grid_pairs = 1000
    max_closed_vs_grid = 0.0
    for _ in range(grid_pairs):
        eta = float(rng.uniform(0.0, 0.49))
        p = ThresholdConcept(theta=float(rng.integers(0, 1001)) / 1000.0, eta=eta)
        q = ThresholdConcept(theta=float(rng.integers(0, 1001)) / 1000.0, eta=eta)
        closed = discrepancy(p, q, fclass)
        risk_p = eta + (1.0 - 2.0 * eta) * np.abs(theta_grid - p.theta)
        risk_q = eta + (1.0 - 2.0 * eta) * np.abs(theta_grid - q.theta)
        brute = float(np.max(np.abs(risk_p - risk_q)))
        max_closed_vs_grid = max(max_closed_vs_grid, abs(closed - brute))

    return {
        "kind": "discrepancy",
        "pairs": pairs,
        "max_rho_minus_tv": max_rho_minus_tv,
        "grid_pairs": grid_pairs,
        "max_closed_form_vs_grid": max_closed_vs_grid,
        "ok": max_rho_minus_tv <= tol and max_closed_vs_grid <= tol,
    }


def _verify_mixing_rate() -> dict:
    path = ConceptPath(np.array([0.5]), 0.1)
    models = [("product", ProductProcess(marginals=path))] + [
        (f"symmetric_chain(states={n}, flip={flip})", MarkovModulatedProcess(symmetric_chain(n, flip), path))
        for n in (2, 4, 8)
        for flip in (0.1, 0.3)
    ]
    cases = []
    ok = True
    for name, model in models:
        for rate in (1.0, 2.0):
            report = verify_mixing_rate(model, r=rate, cap=1e6)
            cases.append({**report.to_json(), "model": name})
            # a product process mixes at once, so its certificate constant is exactly 0
            ok = ok and not report.violation and (report.bound_constant == 0.0 or name != "product")
    return {"kind": "mixing_rate", "cases": cases, "ok": ok}


# each family's keyword parameters are exactly the CLI flags it reads (VERIFY_FLAGS)
VERIFY_FAMILIES = {
    "blocking": _verify_blocking,
    "uniform_deviation": _verify_uniform_deviation,
    "discrepancy": _verify_discrepancy,
    "mixing_rate": _verify_mixing_rate,
}
VERIFY_KINDS = tuple(VERIFY_FAMILIES)


def _as_option(value: Any, default: Any, key: str) -> Any:
    """``value`` typed like a family parameter's ``default``: an int default takes an
    int, and a tuple default a non-empty list of ints."""
    if isinstance(default, tuple):
        _require(isinstance(value, (list, tuple)) and len(value) > 0, key, "must be a non-empty list")
        return tuple(_as_int(item, key) for item in value)
    return _as_int(value, key)


def run_verify(kind: str, options: dict | None = None) -> tuple[dict, bool]:
    """Run one verification family; returns (JSON-compatible report, all-pass).

    ``options`` are the family's keyword parameters, each typed like the
    parameter's default; an option the family does not take, or one of the
    wrong type, is a ConfigError naming its CLI flag (or the option's name
    when it is no flag).
    """
    options = options or {}
    _require(kind in VERIFY_KINDS, "--kind", f"must be one of {VERIFY_KINDS}")
    family = VERIFY_FAMILIES[kind]
    accepted = inspect.signature(family).parameters
    typed = {}
    for name, value in options.items():
        key = VERIFY_FLAGS.get(name, name)
        _require(name in accepted, key, f"not read by --kind {kind}")
        typed[name] = _as_option(value, accepted[name].default, key)
    report = family(**typed)
    return report, report["ok"]


# the six fields of a seed curve row as refit_rates reads them: only risk and
# inf_risk are used, the others are held as one byte each; six fields make
# loadtxt reject a row of any other width
_CURVE_FIELDS = [("t", "S1"), ("risk", "f8"), ("inf_risk", "f8"), ("cum_excess", "S1"), ("win_k", "S1"), ("win_m", "S1")]


def refit_rates(run_dir: str | Path, checkpoints: Sequence[int] | None = None) -> dict:
    """Recompute the growth-exponent fit from an existing run's CSVs; rewrites fit.json, then summary.txt."""
    run_dir = Path(run_dir)
    # resolving a resolved config returns it unchanged; a broken one names its key
    resolved = resolve_config(load_config(run_dir / "config.json", "run_dir"))
    seeds = resolved["seeds"]
    cps = resolved["checkpoints"]
    horizon = resolved["horizon"]
    if checkpoints is not None:
        cps = _checkpoint_list(list(checkpoints), horizon, "--checkpoints")
    risks = []
    for seed in seeds:
        curve_path = run_dir / f"curve-{seed}.csv"
        if not curve_path.exists():
            raise ConfigError("run_dir", f"missing curve file {curve_path.name}")
        try:
            with warnings.catch_warnings():  # a header-only curve is reported below as having 0 rows
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                curve_rows = np.loadtxt(curve_path, dtype=_CURVE_FIELDS, delimiter=",", skiprows=1, ndmin=1)
        except ValueError as err:  # a row of another width, or a risk that is not a number
            raise ConfigError("run_dir", f"{curve_path.name} is malformed: {err}") from None
        count = f"{curve_path.name} has {curve_rows.size} rows"
        _require(curve_rows.size >= horizon, "run_dir", f"{count}, fewer than the horizon {horizon} (interrupted run?)")
        _require(curve_rows.size <= horizon, "run_dir", f"{count}, more than the horizon {horizon}")
        risks.append(curve_rows["risk"].copy())
    curve = RegretCurve(risks=np.stack(risks), inf_risks=curve_rows["inf_risk"].copy(), seeds=tuple(seeds))
    digest = config_hash(resolved)
    payload, fit = _write_fit(run_dir, resolved, digest, curve, cps)
    _write_summary(run_dir / "summary.txt", resolved, digest, curve, fit, payload.get("skipped"))
    return payload
