"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints exactly one
``[criterion NN] name: PASS/FAIL`` line on the terminal, then asserts.
Long-horizon runs are shared between criteria through module fixtures.
"""

import copy
import json
import time
from pathlib import Path

import numpy as np
import pytest

from driftlab import (
    AdaptiveWindowLearner,
    ConstantWindowLearner,
    FiniteExplicitClass,
    Observation,
    SamplePath,
    SubsampledErmLearner,
    ThresholdHypothesis,
    best_window,
    constant_window_size,
    erm,
    erm_step,
    make_drift_schedule,
    resolve_config,
    run_config,
    run_sweep,
    run_verify,
    subsample_schedule,
    theoretical_exponent,
    threshold_erm,
)
from driftlab.hypotheses import finite_erm_indices

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _verdict(capsys, num: int, name: str, passed: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num:02d}] {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def markov_run(out_root):
    raw = json.loads((CONFIG_DIR / "markov-subsampled.json").read_text())
    resolved = resolve_config(raw)
    start = time.monotonic()
    record, curve = run_config(resolved, out_root / "markov-a")
    elapsed = time.monotonic() - start
    return resolved, record, curve, elapsed


@pytest.fixture(scope="module")
def product_runs(out_root):
    raw = json.loads((CONFIG_DIR / "markov-subsampled.json").read_text())
    raw["process"] = {"kind": "product"}
    sub_record, _ = run_config(resolve_config(raw), out_root / "product-sub")
    adaptive_raw = copy.deepcopy(raw)
    adaptive_raw["learner"] = {"kind": "adaptive_window"}
    ada_record, _ = run_config(resolve_config(adaptive_raw), out_root / "product-ada")
    return sub_record, ada_record


def test_criterion_01_blocking_slack(capsys):
    start = time.monotonic()
    report, ok = run_verify("blocking")
    elapsed = time.monotonic() - start
    # default grid: states {2,3,4} x blocks {2,3,4} x gaps 1..8 x t 1..5 x flips {0.1,0.3,0.45}
    passed = (
        ok
        and report["cases"] == 3 * 3 * 8 * 5 * 3
        and report["min_slack"] >= -1e-12
        and elapsed < 10.0
    )
    _verdict(
        capsys,
        1,
        "k-spaced block law within (n-1)*beta_k of product law",
        passed,
        f"cases={report['cases']} min_slack={report['min_slack']} elapsed={elapsed:.2f}s",
    )


def test_criterion_02_uniform_deviation_scaling(capsys):
    start = time.monotonic()
    report, ok = run_verify("uniform_deviation")
    elapsed = time.monotonic() - start
    passed = ok and elapsed < 300.0
    details = []
    for name, entry in report["settings"].items():
        slope = entry["fitted_exponent"]
        envelope = entry["envelope_constant"]
        passed = (
            passed
            and entry["trials"] >= 2000
            and len(entry["m_grid"]) == 11
            and entry["m_grid"][0] == 16
            and entry["m_grid"][-1] == 16384
            and abs(slope + 0.5) <= 0.08
            and envelope <= 3.0
        )
        details.append(f"{name}: slope={slope:.4f} envelope={envelope:.3f}")
    _verdict(
        capsys,
        2,
        "sup-deviation scales like sqrt(1/m) with bounded envelope",
        passed,
        "; ".join(details) + f"; elapsed={elapsed:.1f}s",
    )


def test_criterion_03_markov_subsampled_sublinear(capsys, markov_run):
    resolved, record, _, elapsed = markov_run
    assert resolved["process"] == {"kind": "markov_modulated", "states": 4, "flip": 0.25}
    assert resolved["drift"]["alpha"] == 0.25
    assert resolved["learner"] == {"kind": "subsampled_erm", "alpha": 0.25, "r": 2.0}
    assert resolved["horizon"] == 32768 and len(resolved["seeds"]) == 32
    assert resolved["checkpoints"][0] == 1024 and resolved["checkpoints"][-1] == 32768

    target = theoretical_exponent(0.25, 2.0)
    fitted = record.fit.exponent if record.fit else float("inf")
    passed = fitted <= target + 0.10 and fitted <= 0.97 and elapsed < 900.0
    _verdict(
        capsys,
        3,
        "subsampled ERM cumulative excess grows sublinearly under markov noise",
        passed,
        f"fitted={fitted:.4f} target={target:.4f}+0.10 elapsed={elapsed:.1f}s",
    )


def test_criterion_04_adaptive_window_product(capsys, product_runs):
    sub_record, ada_record = product_runs
    sub_fit = sub_record.fit.exponent if sub_record.fit else float("inf")
    ada_fit = ada_record.fit.exponent if ada_record.fit else float("inf")
    passed = ada_fit <= sub_fit + 0.02 and ada_fit < 0.95
    _verdict(
        capsys,
        4,
        "drift-aware window matches subsampled rate on independent stream",
        passed,
        f"adaptive={ada_fit:.4f} subsampled={sub_fit:.4f}",
    )


def test_criterion_05_gamma_scaling(capsys, out_root):
    raw = json.loads((CONFIG_DIR / "gamma-sweep.json").read_text())
    cells = raw["sweep"]["cells"]
    assert len(cells) == 5 and len(raw["seeds"]) == 16
    for cell in cells:
        gamma = cell["drift.gamma"]
        assert cell["horizon"] == max(16384, int(np.ceil(10.0 / gamma)))

    start = time.monotonic()
    record = run_sweep(raw, out_root / "gamma")
    elapsed = time.monotonic() - start

    lines = Path(record.table_path).read_text().splitlines()
    header = lines[0].split(",")
    g_col = header.index("drift.gamma")
    a_col = header.index("avg_excess")
    gammas = np.array([float(line.split(",")[g_col]) for line in lines[1:]])
    excesses = np.array([float(line.split(",")[a_col]) for line in lines[1:]])
    assert gammas.size == 5 and not record.failures

    design = np.column_stack([np.log(gammas), np.ones(gammas.size)])
    (slope, _), *_ = np.linalg.lstsq(design, np.log(excesses), rcond=None)
    passed = abs(slope - 0.33) <= 0.12 and elapsed < 1200.0
    _verdict(
        capsys,
        5,
        "steady-state excess of the fixed window scales like gamma^(1/3)",
        passed,
        f"slope={slope:.4f} excesses={np.array2string(excesses, precision=5)}"
        f" elapsed={elapsed:.1f}s",
    )


def test_criterion_06_erm_matches_exhaustive_minimum(capsys):
    rng = np.random.default_rng(2026)
    passed = True
    detail = "all minima matched"

    for i in range(10_000):
        n = int(rng.integers(1, 13))
        step = 1.0 / (4 * n)
        # x drawn on the 1/(4n) grid so the sweep minimum is attainable by the grid scan
        xs = rng.integers(0, 4 * n + 1, size=n).astype(float) * step
        ys = rng.integers(0, 2, size=n).astype(np.int64)
        _, errors = threshold_erm(xs, ys)
        grid = np.arange(4 * n + 1, dtype=float) * step
        grid_losses = ((xs[None, :] >= grid[:, None]).astype(np.int64) != ys[None, :]).sum(axis=1)
        if errors != int(grid_losses.min()):
            passed = False
            detail = f"threshold sample {i}: erm errors {errors} vs grid {grid_losses.min()}"
            break

    if passed:
        support_grid = np.linspace(0.0, 1.0, 64)
        for i in range(10_000):
            s = int(rng.integers(2, 9))
            xs_support = np.sort(rng.choice(support_grid, size=s, replace=False))
            support = tuple(
                Observation(float(x), int(y))
                for x, y in zip(xs_support, rng.integers(0, 2, size=s))
            )
            tables = tuple(
                tuple(float(v) for v in row)
                for row in rng.random((int(rng.integers(2, 17)), s))
            )
            fclass = FiniteExplicitClass(support=support, tables=tables, d=1)
            idx = rng.integers(0, s, size=int(rng.integers(1, 13)))
            impl_idx = finite_erm_indices(fclass, idx)
            sums = fclass.table_array()[:, np.sort(idx)].sum(axis=1)
            wrapper = erm(fclass, [support[j] for j in idx])
            if not (
                sums[impl_idx] == sums.min()
                and impl_idx == int(np.argmin(sums))
                and wrapper.index == impl_idx
            ):
                passed = False
                detail = f"finite sample {i}: index {impl_idx} vs argmin {int(np.argmin(sums))}"
                break

    _verdict(capsys, 6, "exact ERM equals exhaustive minima on both classes", passed, detail)


def test_criterion_07_discrepancy_bounded_by_tv(capsys):
    report, ok = run_verify("discrepancy")
    passed = (
        ok
        and report["pairs"] == 10_000
        and report["grid_pairs"] == 1_000
        and report["max_rho_minus_tv"] <= 1e-9
        and report["max_closed_form_vs_grid"] <= 1e-9
    )
    _verdict(
        capsys,
        7,
        "class discrepancy never exceeds total variation",
        passed,
        f"max(rho-tv)={report['max_rho_minus_tv']:.3e}"
        f" max|closed-grid|={report['max_closed_form_vs_grid']:.3e}",
    )


def test_criterion_08_learner_equivalences(capsys):
    rng = np.random.default_rng(4242)
    passed = True
    detail = "all 1000 histories matched hypothesis-for-hypothesis"
    for i in range(1000):
        horizon = int(rng.integers(4, 320))
        path = SamplePath(
            xs=rng.random(horizon),
            ys=rng.integers(0, 2, horizon).astype(np.int64),
            states=np.full(horizon, -1, dtype=np.int64),
        )
        t = int(rng.integers(2, horizon + 1))

        alpha = float(rng.choice([0.0, 0.25, 0.5]))
        r = float(rng.choice([0.5, 1.0, 2.0]))
        sub = SubsampledErmLearner(alpha=alpha, r=r).step(path, t)
        k, m = subsample_schedule(t, alpha, r)
        manual_sub = erm_step(path, t, k, m)

        kind = str(rng.choice(["power_step", "constant", "triangle_wave"]))
        if kind == "constant":
            schedule = make_drift_schedule(
                "constant", alpha=0.0, horizon=horizon, gamma=float(rng.uniform(0.001, 0.3))
            )
        else:
            schedule = make_drift_schedule(
                kind,
                alpha=float(rng.uniform(0.0, 0.8)),
                horizon=horizon,
                c0=float(rng.uniform(0.05, 0.5)),
                seed=int(rng.integers(0, 100)),
            )
        ada = AdaptiveWindowLearner(schedule=schedule).step(path, t)
        manual_ada = erm_step(path, t, 1, best_window(t, schedule, 1))

        gamma_c = float(rng.choice([0.02, 0.1, 0.5]))
        m_bar = constant_window_size(1, gamma_c)
        con = ConstantWindowLearner(gamma=gamma_c).step(path, t)
        if t <= m_bar:
            manual_con = ThresholdHypothesis(0.0)
        else:
            manual_con = erm_step(path, t, 1, m_bar)

        if not (
            sub.theta == manual_sub.theta
            and ada.theta == manual_ada.theta
            and con.theta == manual_con.theta
        ):
            passed = False
            detail = (
                f"history {i} (t={t}): subsampled {sub.theta} vs {manual_sub.theta},"
                f" adaptive {ada.theta} vs {manual_ada.theta},"
                f" constant {con.theta} vs {manual_con.theta}"
            )
            break
    _verdict(capsys, 8, "window learners reduce to gap/window ERM steps", passed, detail)


def test_criterion_09_schedule_invariants(capsys):
    passed = True
    detail = "all integer invariants hold to t=1e6"
    ts = np.arange(2, 1_000_001, dtype=np.int64)
    qs = np.arange(2, 500_001, dtype=np.int64)
    for alpha in (0.0, 0.25, 0.5):
        for r in (0.5, 1.0, 2.0):
            ks, ms = subsample_schedule(ts, alpha, r)
            checks = {
                "integer k": np.issubdtype(ks.dtype, np.integer),
                "integer m": np.issubdtype(ms.dtype, np.integer),
                "k >= 1": bool(np.all(ks >= 1)),
                "k <= m": bool(np.all(ks <= ms)),
                "m <= t-1": bool(np.all(ms <= ts - 1)),
                "floor(m/k) >= 1": bool(np.all(ms // ks >= 1)),
                "m non-decreasing": bool(np.all(np.diff(ms) >= 0)),
                "m_2q <= 4 m_q": bool(np.all(ms[2 * qs - 2] <= 4 * ms[qs - 2])),
            }
            if not all(checks.values()):
                passed = False
                bad = [name for name, ok in checks.items() if not ok]
                detail = f"alpha={alpha} r={r}: failed {bad}"
                break
        if not passed:
            break
    _verdict(capsys, 9, "subsample schedule integer invariants up to 1e6", passed, detail)


def test_criterion_10_byte_identical_reruns(capsys, out_root, markov_run):
    resolved, record, _, _ = markov_run
    record2, _ = run_config(resolved, out_root / "markov-b")
    first = Path(record.out_dir)
    second = Path(record2.out_dir)
    names = sorted(p.name for p in first.glob("curve-*.csv"))
    assert len(names) == 33  # 32 seeds + the aggregated curve
    mismatched = [
        name for name in names if (first / name).read_bytes() != (second / name).read_bytes()
    ]
    fit_same = (first / "fit.json").read_bytes() == (second / "fit.json").read_bytes()
    passed = not mismatched and fit_same
    _verdict(
        capsys,
        10,
        "re-running a config reproduces curve files byte-for-byte",
        passed,
        f"mismatched={mismatched} fit_same={fit_same}",
    )
