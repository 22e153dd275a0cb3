"""One benchmark run in a fresh process.

Sets up the workload (``import driftlab`` + ``resolve_config`` +
``build_model`` + ``build_learner``), makes the workload's one timed call
(``run_config`` or ``run_verify``) and, for simulate workloads, calls
``refit_rates`` on the run's output directory ``--refits`` times.  A fixed
calibration kernel runs just before and just after these calls.  Prints one
JSON object with the timings on stdout.

With ``--spans FILE`` the public functions of each driftlab layer are wrapped
in the namespaces where their callers look them up.  Every call then records
a span (name, start, end, parent) in memory, and the spans are written to
FILE when the run ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


class Tracer:
    """Span recorder; spans are kept in call order, so a span's children follow it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.units: list[int] = []
        self._open = [-1]

    def wrap(self, name: str, fn, units=None):
        """Return ``fn`` recording a span called ``name``; ``units(args)`` counts its work."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(self._open[-1])
            self.units.append(units(args) if units else 0)
            self.ends.append(0.0)
            self._open.append(index)
            self.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[index] = clock()
                self._open.pop()

        return traced

    def install(self, dl) -> None:
        learners, evaluation, harness = dl.learners, dl.evaluation, dl.harness
        patches = [
            (learners, "subsample_schedule", "learners.plan"),
            (learners, "best_window", "learners.plan"),
            (learners, "threshold_erm", "hypotheses.threshold_erm"),
            (evaluation, "sample_path", "processes.sample_path"),
            (evaluation, "_threshold_sup_deviation", "evaluation.sup_deviation"),
            (harness, "fit_growth_exponent", "evaluation.fit"),
            (harness, "make_drift_schedule", "distributions.build"),
            (harness, "concept_path", "distributions.build"),
            (harness, "build_model", "distributions.build"),
            (harness, "build_learner", "harness.config"),
        ]
        for module, attr, name in patches:
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        # erm_step(function_class, path, t, gap, window): window // gap points
        learners.erm_step = self.wrap(
            "learners.erm_step", learners.erm_step, units=lambda args: args[4] // args[3]
        )
        regret_curve = harness.RegretCurve
        regret_curve.to_csv = self.wrap("evaluation.aggregate", regret_curve.to_csv)
        harness.RegretCurve = self.wrap("evaluation.aggregate", regret_curve)

        run_single = harness.run_single
        wrap = self.wrap

        def run_single_traced(model, learner, horizon, seed, checkpoint=None):
            if checkpoint is not None:
                checkpoint = wrap("harness.curve_write", checkpoint)
            return run_single(model, learner, horizon, seed, checkpoint=checkpoint)

        harness.run_single = self.wrap("evaluation.step_loop", run_single_traced)

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name_ids, dtype=np.int32),
            parent=np.array(self.parents, dtype=np.int64),
            start=np.array(self.starts),
            end=np.array(self.ends),
            units=np.array(self.units, dtype=np.int64),
        )


def calibration_s() -> float:
    """Seconds taken by a fixed mix of interpreter work and small-array numpy calls.

    The workloads spend their time on the same mix, so the ratio of a run's
    wall time to this tracks the program, not the shared machine's speed.
    """
    import numpy as np

    xs = np.random.default_rng(0).random(128)
    total = 0.0
    start = time.perf_counter()
    for _ in range(12000):
        order = np.argsort(xs, kind="stable")
        total += float(np.cumsum(xs[order])[-1])
        repr(total)
    return time.perf_counter() - start


def _untraced(name, fn, units=None):
    return fn


def _simulate(dl, wrap, resolved: dict, out: str, refits: int) -> dict:
    clock = time.perf_counter
    start = clock()
    record, _ = wrap("harness.run_config", dl.run_config)(resolved, out, jobs=1)
    wall = clock() - start
    fit_path = Path(record.out_dir) / "fit.json"
    written = fit_path.read_bytes()
    rates = []
    identical = True
    for _ in range(refits):
        start = clock()
        wrap("harness.refit_rates", dl.refit_rates)(record.out_dir)
        rates.append(clock() - start)
        identical = identical and fit_path.read_bytes() == written
    return {"wall_s": wall, "rates_s": rates, "refit_identical": identical, "out_dir": record.out_dir}


def _verify(dl, wrap, options: dict, out: str) -> dict:
    start = time.perf_counter()
    report, ok = wrap("harness.run_verify", dl.run_verify)("uniform_deviation", options)
    wall = time.perf_counter() - start
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the bytes `driftlab verify --out` writes
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"wall_s": wall, "ok": ok, "out_dir": str(out_dir)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output root of the run")
    parser.add_argument("--refits", type=int, default=1, help="refit_rates calls after the run")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    parser.add_argument("--spans", help="trace the run and write its spans to this .npz file")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    start = time.perf_counter()
    import driftlab as dl

    tracer = Tracer() if args.spans else None
    wrap = tracer.wrap if tracer else _untraced
    if tracer:
        tracer.install(dl)
    if workload.kind == "simulate":
        resolved = wrap("harness.config", dl.resolve_config)(workload.config(args.seed))
        _, schedule = dl.harness.build_model(resolved)
        dl.harness.build_learner(resolved, schedule)
    result: dict = {"setup_s": time.perf_counter() - start}

    if not args.setup_only:
        before = calibration_s()
        if workload.kind == "simulate":
            result.update(_simulate(dl, wrap, resolved, args.out, args.refits))
        else:
            result.update(_verify(dl, wrap, workload.verify_options(args.seed), args.out))
        result["calibration_s"] = [before, calibration_s()]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
