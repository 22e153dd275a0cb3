"""Self-test of the benchmark's output gate.

    python3 perfbench/selftest.py

Runs ``markov_subsampled`` at the pinned seed and at another seed, and
``verify_uniform_deviation`` at the pinned seed, once each.  Every run must
pass its checks.  Then one output file of each run is corrupted, and the run
must count as failed: through a digest mismatch at the pinned seed, and
through the curve invariants at the other seed.  Also checks that
``BENCHMARK.json`` names exactly the metrics and units that ``run.py``
reports.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
from workloads import WORKLOADS


def change_one_digit(path: Path) -> None:
    """Change one decimal digit in the second half of the file: same shape, other bytes."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = next(i for i in range(len(lines) // 2, len(lines)) if "." in lines[i])
    line = lines[row].rstrip("\n")
    pos = line.index(".") + 1
    digit = "1" if line[pos] != "1" else "2"
    lines[row] = line[:pos] + digit + line[pos + 1 :] + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def drop_last_row(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def main() -> int:
    golden = run.load_golden()
    default = golden["default_seed"]
    errors = []

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != run.END_TO_END:
        errors.append(f"BENCHMARK.json end_to_end {declared} != run.py {run.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared != run.PER_LAYER:
        errors.append(f"BENCHMARK.json per_layer {declared} != run.py {run.PER_LAYER}")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.py")

    cases = [
        ("markov_subsampled", default, "curve-{first}.csv", change_one_digit),
        ("markov_subsampled", default + 1, "curve-{first}.csv", drop_last_row),
        ("verify_uniform_deviation", default, "report.json", change_one_digit),
    ]
    for name, seed, target, corrupt in cases:
        workload = WORKLOADS[name]
        work = run.WORK_DIR / "selftest"
        work.mkdir(parents=True, exist_ok=True)
        clean = run.run_once(workload, seed, work, golden, None)
        if clean["problems"]:
            errors.append(f"{name} seed {seed}: clean run failed: {clean['problems']}")
            continue
        path = Path(clean["out_dir"]) / target.format(first=workload.seeds(seed)[0])
        corrupt(path)
        broken = run.check_run(workload, seed, clean, golden)
        measured = {"samples": [clean, broken], "probes": [], "elapsed_s": 0.0}
        result, _ = run.summarize(workload, seed, False, measured)
        if result["failed"] != 1 or result["correct"]:
            errors.append(f"{name} seed {seed}: {corrupt.__name__} on {path.name} not counted as failed: {result}")
        else:
            print(f"ok: {name} seed {seed}: {corrupt.__name__} on {path.name} -> {broken['problems']}")

    for error in errors:
        print(f"FAIL: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
