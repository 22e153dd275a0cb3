"""driftlab benchmark: end-to-end and per-layer metrics on fixed workloads.

    python3 perfbench/run.py --workload markov_subsampled --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 38 --trace 0

Closed loop, one run at a time: every run is a fresh single-threaded Python
process (``perfbench/child.py``, ``jobs=1``) that sets up the workload, makes
its one timed public-API call and, for simulate workloads, re-reads its rates.
Runs repeat until ``--seconds`` is used up.  Between runs, set-up-only
processes add samples of the set-up time.  Every reported time is the median
over the runs of one invocation.

The speed of this shared machine drifts by a fifth or more over minutes, and
the drift moved the median wall time of whole invocations by as much.  So
every run also times a fixed calibration kernel (``child.calibration_s``: the
interpreter work and small-array numpy calls the workloads spend their time
on) just before and after its calls, and ``wall_s`` is the run's wall time
rescaled to the speed at which that kernel takes ``CALIBRATION_REF_S``.  The
raw median wall time is in the record line.

Every run's outputs are checked.  At the default seed every output file must
match the SHA-256 digest pinned in ``golden.json``.  At every seed the curves
must have the pinned window plan and well-formed rows, ``refit_rates`` must
rewrite ``fit.json`` byte for byte, ``verify`` must report ok, and all runs of
one invocation must write identical bytes.  A run that exits non-zero or fails
a check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics of untraced runs.  ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics: the
self time (span duration minus child spans) of the calls into each driftlab
module, exact work counts, and the tracing overhead.  The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import M_GRID, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
GOLDEN = BENCH_DIR / "golden.json"

REFITS = 2  # refit_rates calls per simulate run; rates_s is their median
SETUP_PROBES = 2  # set-up-only processes after every round of runs
CHILD_TIMEOUT_S = 120
STOP_BY_S = 150  # start no round that would end later than this
CURVE_HEADER = "t,risk,inf_risk,cum_excess,win_k,win_m"
MEAN_HEADER = "t,mean_risk,inf_risk,cum_excess,ci_lo,ci_hi"
EXCESS_TOL = 1e-12
# the calibration kernel's median time on the machine the benchmark was defined on
# (2 vCPUs, Python 3.11.7, numpy 2.4.6); wall_s is in seconds at that speed
CALIBRATION_REF_S = 0.145

END_TO_END = {
    "wall_s": "s",  # the run_config / run_verify call at reference speed: what a researcher waits for
    "setup_s": "s",  # import driftlab + resolve_config + build_model + build_learner
    "peak_rss_mb": "MB",  # peak resident memory of the run's process
}

# span name -> per-layer metric that receives the span's self time
LAYER_OF = {
    "harness.config": "harness.config_s",
    "distributions.build": "distributions.build_s",
    "processes.sample_path": "processes.sample_path_s",
    "learners.plan": "learners.plan_s",
    "learners.erm_step": "learners.erm_step_s",
    "hypotheses.threshold_erm": "hypotheses.threshold_erm_s",
    "evaluation.step_loop": "evaluation.step_loop_s",
    # run_config's own time, outside the wrapped calls, is writing curves and JSON
    "harness.run_config": "harness.curve_write_s",
    "harness.curve_write": "harness.curve_write_s",
    "evaluation.aggregate": "evaluation.aggregate_s",
    "evaluation.fit": "evaluation.fit_s",
    "harness.refit_rates": "harness.refit_read_s",
    "evaluation.sup_deviation": "evaluation.sup_deviation_s",
    "harness.run_verify": "evaluation.verify_rest_s",
}
CALLS_OF = {
    "processes.sample_path": "processes.sample_path_calls",
    "learners.plan": "learners.plan_calls",
    "learners.erm_step": "learners.erm_calls",
    "evaluation.sup_deviation": "evaluation.sup_deviation_calls",
}
WALL_ROOTS = ("harness.run_config", "harness.run_verify")
OUTPUT_COUNTS = ("learners.plan_groups", "learners.initial_steps", "harness.curve_bytes")
COUNTS = tuple(CALLS_OF.values()) + ("learners.erm_points",) + OUTPUT_COUNTS
PER_LAYER = {
    **{name: "s" for name in dict.fromkeys(LAYER_OF.values())},
    "harness.rates_s": "s",  # untraced refit_rates on the run's own output directory
    "trace.overhead_s": "s",
    **{name: "count" for name in COUNTS},
}
PER_LAYER["harness.curve_bytes"] = "B"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- output checks


def _check_curve(path: Path, horizon: int, problems: list[str]) -> tuple[str, int, int]:
    """Check one per-seed curve; return (plan digest, plan groups, initial steps)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CURVE_HEADER:
        problems.append(f"{path.name}: bad header")
        return "", 0, 0
    if len(lines) - 1 != horizon:
        problems.append(f"{path.name}: {len(lines) - 1} rows, expected {horizon}")
    plan = hashlib.sha256()
    previous = None
    groups = initial = 0
    try:
        for t, line in enumerate(lines[1:], start=1):
            step, risk, inf_risk, _, gap, window = line.split(",")
            if int(step) != t:
                problems.append(f"{path.name}: row {t} has t={step}")
                break
            if float(risk) < float(inf_risk) - EXCESS_TOL:
                problems.append(f"{path.name}: risk below inf_risk at t={t}")
                break
            pair = f"{gap},{window}\n"
            plan.update(pair.encode())
            groups += pair != previous
            initial += pair == "0,0\n"
            previous = pair
    except ValueError as err:
        problems.append(f"{path.name}: malformed row ({err})")
    return plan.hexdigest(), groups, initial


def check_simulate(workload: Workload, seed: int, out_dir: Path, golden: dict) -> tuple[list[str], dict, dict]:
    """Check a simulate run's output directory; return (problems, digests, output counts)."""
    problems: list[str] = []
    curves = [f"curve-{s}.csv" for s in workload.seeds(seed)]
    digests = {}
    for name in curves + ["curve-mean.csv", "fit.json", "summary.txt"]:
        path = out_dir / name
        if path.is_file():
            digests[name] = sha256(path.read_bytes())
        else:
            problems.append(f"{name} missing")
    if problems:
        return problems, digests, {}

    horizon = workload.base["horizon"]
    counts = {"harness.curve_bytes": sum((out_dir / name).stat().st_size for name in curves)}
    for name in curves:
        plan, groups, initial = _check_curve(out_dir / name, horizon, problems)
        if plan != golden["plan_sha256"]:
            problems.append(f"{name}: window plan differs from the pinned plan")
        counts["learners.plan_groups"] = groups
        counts["learners.initial_steps"] = initial
    mean_lines = (out_dir / "curve-mean.csv").read_text(encoding="utf-8").splitlines()
    if not mean_lines or mean_lines[0] != MEAN_HEADER or len(mean_lines) - 1 != horizon:
        problems.append("curve-mean.csv: bad header or row count")
    try:
        fit = json.loads((out_dir / "fit.json").read_text(encoding="utf-8"))
        if fit.get("config_hash") != out_dir.name:
            problems.append("fit.json: config_hash does not name the output directory")
    except ValueError as err:
        problems.append(f"fit.json: not JSON ({err})")
    summary = (out_dir / "summary.txt").read_text(encoding="utf-8")
    if not summary.startswith(f"driftlab run {out_dir.name} "):
        problems.append("summary.txt: first line does not name the run")
    return problems, digests, counts


def check_verify(workload: Workload, out_dir: Path) -> tuple[list[str], dict, dict]:
    problems: list[str] = []
    path = out_dir / "report.json"
    if not path.is_file():
        return ["report.json missing"], {}, {}
    data = path.read_bytes()
    try:
        report = json.loads(data)
    except ValueError as err:
        return [f"report.json: not JSON ({err})"], {"report.json": sha256(data)}, {}
    if report.get("kind") != "uniform_deviation" or report.get("ok") is not True:
        problems.append("report.json: not an ok uniform_deviation report")
    for name, entry in sorted(report.get("settings", {}).items()):
        if entry.get("trials") != workload.verify_trials or entry.get("m_grid") != M_GRID:
            problems.append(f"report.json: setting {name} ran other trials or sizes")
    if sorted(report.get("settings", {})) != ["drifting", "identical"]:
        problems.append("report.json: settings are not identical/drifting")
    return problems, {"report.json": sha256(data)}, {name: 0 for name in OUTPUT_COUNTS}


def check_outputs(workload: Workload, seed: int, out_dir: Path, golden: dict) -> tuple[list[str], dict, dict]:
    """Problems with one run's outputs, their digests, and the counts read from them."""
    pinned = golden["workloads"][workload.name]
    if workload.kind == "simulate":
        problems, digests, counts = check_simulate(workload, seed, out_dir, pinned)
    else:
        problems, digests, counts = check_verify(workload, out_dir)
    if seed == golden["default_seed"]:
        for name in sorted(set(pinned["files"]) | set(digests)):
            if digests.get(name) != pinned["files"].get(name):
                problems.append(f"{name}: digest differs from golden.json")
    return problems, digests, counts


# ---------------------------------------------------------------- spans


def span_metrics(path: Path) -> tuple[dict, float]:
    """Per-layer self times and call counts of one traced run, and the self time
    summed over the spans inside its timed call."""
    import numpy as np

    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        name, parent, units = data["name"], data["parent"], data["units"]
        duration = data["end"] - data["start"]
    nested = parent >= 0
    self_time = duration - np.bincount(parent[nested], weights=duration[nested], minlength=name.size)
    # spans are in call order, so every span's root is the last root at or before it
    root = np.maximum.accumulate(np.where(nested, 0, np.arange(name.size)))
    root_name = np.array(names)[name[root]]
    ids = {n: i for i, n in enumerate(names)}
    layer = np.array([LAYER_OF[n] for n in names])[name]
    # refit_rates is timed as a whole, apart from the fit it shares with run_config
    in_refit = (root_name == "harness.refit_rates") & (name != ids.get("evaluation.fit", -1))
    layer = np.where(in_refit, "harness.refit_read_s", layer)

    metrics = {metric: float(self_time[layer == metric].sum()) for metric in dict.fromkeys(LAYER_OF.values())}
    for span, metric in CALLS_OF.items():
        metrics[metric] = int((name == ids.get(span, -1)).sum())
    metrics["learners.erm_points"] = int(units[name == ids.get("learners.erm_step", -1)].sum())
    in_wall = float(self_time[np.isin(root_name, WALL_ROOTS)].sum())
    return metrics, in_wall


# ---------------------------------------------------------------- runs


def _child(args: list[str]) -> tuple[dict | None, str]:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [sys.executable, str(BENCH_DIR / "child.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, "printed no result"
    return json.loads(lines[-1]), ""


def run_once(workload: Workload, seed: int, work: Path, golden: dict, spans: Path | None) -> dict:
    """One run in a fresh process, with its outputs checked."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    args = ["--workload", workload.name, "--seed", str(seed), "--out", str(out)]
    # a traced run refits once, so that its refit spans time one refit_rates call
    args += ["--refits", str(REFITS)] if spans is None else ["--refits", "1", "--spans", str(spans)]
    sample = {"traced": spans is not None, "loadavg_before": os.getloadavg()}
    result, error = _child(args)
    sample["loadavg_after"] = os.getloadavg()
    if result is None:
        sample["problems"] = [error]
        return sample
    sample.update(result)
    return check_run(workload, seed, sample, golden, spans)


def check_run(workload: Workload, seed: int, sample: dict, golden: dict, spans: Path | None = None) -> dict:
    """Add the problems, output digests and counts of a finished run to ``sample``."""
    problems, digests, counts = check_outputs(workload, seed, Path(sample["out_dir"]), golden)
    if workload.kind == "simulate" and not sample["refit_identical"]:
        problems.append("refit_rates did not rewrite fit.json byte for byte")
    if workload.kind == "verify" and not sample["ok"]:
        problems.append("run_verify reported ok=false")
    if spans is not None:
        layers, in_wall = span_metrics(spans)
        if in_wall > sample["wall_s"] + 1e-6:
            problems.append(f"self times inside the timed call sum to {in_wall} s > wall_s")
        counts.update(layers)
    return {**sample, "problems": problems, "digests": digests, "counts": counts}


def setup_probe(workload: Workload, seed: int, work: Path) -> dict:
    result, error = _child(["--workload", workload.name, "--seed", str(seed), "--out", str(work / "out"), "--setup-only"])
    return {"problems": [error]} if result is None else {"problems": [], **result}


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat rounds of runs until ``seconds`` are used; one round is one untraced
    run, or with ``trace`` one untraced and one traced run in alternating order."""
    golden = load_golden()
    work = WORK_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    min_rounds = 2 if trace else 3
    samples, probes = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        order = [False, True] if trace else [False]
        for traced in order if rounds % 2 == 0 else order[::-1]:
            spans = work / f"spans-{len(samples)}.npz" if traced else None
            samples.append(run_once(workload, seed, work, golden, spans))
        probes += [setup_probe(workload, seed, work) for _ in range(SETUP_PROBES)]
        rounds += 1
        now = time.perf_counter()
        elapsed, last = now - start, now - round_start
        # stop where the expected end is nearest to ``seconds``, never near the 180 s limit
        if (rounds >= min_rounds and elapsed + last / 2 > seconds) or elapsed + last > STOP_BY_S:
            break

    # runs of one invocation repeat the same inputs, so they must write the same bytes
    reference = next((s["digests"] for s in samples if "digests" in s), None)
    for s in samples:
        if "digests" in s and s["digests"] != reference:
            s["problems"].append("outputs differ from the first run of this invocation")
    return {"samples": samples, "probes": probes, "elapsed_s": time.perf_counter() - start}


def _tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 20:
        return None
    percentile = 100 * (n - 10) // n
    return {"percentile": percentile, "value": statistics.quantiles(values, n=100)[percentile - 1]}


def rescaled_wall(sample: dict) -> float:
    """The run's wall time at the speed where the calibration kernel takes CALIBRATION_REF_S."""
    return sample["wall_s"] * CALIBRATION_REF_S / statistics.fmean(sample["calibration_s"])


def summarize(workload: Workload, seed: int, trace: bool, measured: dict) -> tuple[dict, dict]:
    samples = measured["samples"]
    good = [s for s in samples if not s["problems"]]
    plain = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    runs = samples + measured["probes"]
    failed = sum(1 for s in runs if s["problems"])
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": {}}

    walls = [s["wall_s"] for s in plain]
    calibrations = [statistics.fmean(s["calibration_s"]) for s in plain]
    rescaled = [rescaled_wall(s) for s in plain]
    steps = workload.steps(seed)
    stats = {
        "wall_s_runs": len(walls),
        "wall_s_tail": _tail(rescaled),
        "wall_raw_s": statistics.median(walls) if walls else None,
        "calibration_s": statistics.median(calibrations) if walls else None,
        "steps": steps,
        "steps_per_s": steps / statistics.median(rescaled) if walls else None,
    }
    if not trace:
        setups = [s["setup_s"] for s in plain] + [p["setup_s"] for p in measured["probes"] if not p["problems"]]
        values = {
            "wall_s": rescaled,
            "setup_s": setups,
            "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
        }
        for name, unit in END_TO_END.items():
            if values[name]:
                result["metrics"][name] = {"value": statistics.median(values[name]), "unit": unit}
    elif plain and traced:
        layers = {}
        for name in PER_LAYER:
            per_run = [s["counts"][name] for s in traced if name in s["counts"]]
            if per_run:
                # counts repeat exactly (checked below), so any run's count is the count
                layers[name] = per_run[0] if name in COUNTS else statistics.median(per_run)
        for name in COUNTS:
            observed = {s["counts"].get(name) for s in traced} | {s["counts"].get(name) for s in plain if name in OUTPUT_COUNTS}
            if len(observed) != 1:
                result["correct"] = False
                stats.setdefault("unsteady_counts", []).append(name)
        rates = [r for s in plain for r in s.get("rates_s", [])]
        layers["harness.rates_s"] = statistics.median(rates) if rates else 0.0
        layers["trace.overhead_s"] = statistics.median(rescaled_wall(s) for s in traced) - statistics.median(rescaled)
        for name, unit in PER_LAYER.items():
            result["metrics"][name] = {"value": layers[name], "unit": unit}
    else:
        result["correct"] = False

    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "environment": environment(),
        "elapsed_s": measured["elapsed_s"],
        **stats,
        "runs": [{k: v for k, v in s.items() if k not in ("digests", "counts")} for s in samples],
        "setup_probes_s": [p.get("setup_s") for p in measured["probes"]],
        "problems": [p for s in runs for p in s["problems"]],
    }
    return result, record


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": 1,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0, the pinned one)")
    parser.add_argument("--seconds", type=float, default=38.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "driftlab" / "__init__.py").is_file():
        print(f"perfbench: no driftlab source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workload = WORKLOADS[name]
        result, record = summarize(workload, args.seed, bool(args.trace), measure(workload, args.seed, args.seconds, bool(args.trace)))
        (WORK_DIR / name / "record.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(json.dumps({"record": record}))
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        if record["wall_raw_s"] is not None:
            print(f"{name} wall_raw_s {record['wall_raw_s']:.6g} s (calibration {record['calibration_s']:.6g} s)")
        print(f"{name} failed_runs {result['failed']} of {result['attempted']}")
        if len(names) == 1:
            total = result
        else:
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
