"""Subsample schedules, window rules, and the online learners built on them."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftlab import (
    AdaptiveWindowLearner,
    BaselineLearner,
    ConceptPath,
    ConstantWindowLearner,
    DriftSchedule,
    ProductProcess,
    SubsampledErmLearner,
    ThresholdHypothesis,
    best_window,
    concept_path,
    constant_window_size,
    erm_step,
    make_drift_schedule,
    sample_path,
    subsample_schedule,
    subsample_times,
    threshold_erm,
)
from driftlab import learners


class TestSubsampleSchedule:
    def test_worked_example(self):
        assert subsample_schedule(100, 0.0, 1.0) == (8, 27)

    def test_smallest_time(self):
        assert subsample_schedule(2, 0.0, 1.0) == (1, 1)
        assert subsample_schedule(2, 0.5, 3.0) == (1, 1)

    def test_closed_form_scalar(self):
        for t in (10, 57, 300, 4096):
            for alpha in (0.0, 0.25, 0.6):
                for r in (0.5, 1.0, 2.0):
                    k, m = subsample_schedule(t, alpha, r)
                    k_exp = (1 - alpha) * 3.0 / (3.0 + 4.0 * r)
                    m_exp = (1 - alpha) * (3.0 + 2.0 * r) / (3.0 + 4.0 * r)
                    assert k == min(math.ceil(t**k_exp - 1e-9), t - 1)
                    assert m == min(math.ceil(t**m_exp - 1e-9), t - 1)

    def test_vectorized_matches_scalar(self):
        ts = np.arange(2, 500)
        ks, ms = subsample_schedule(ts, 0.25, 2.0)
        for i, t in enumerate(ts):
            k, m = subsample_schedule(int(t), 0.25, 2.0)
            assert ks[i] == k and ms[i] == m

    def test_gap_never_exceeds_window(self):
        ts = np.arange(2, 20_000)
        for alpha in (0.0, 0.25, 0.6):
            for r in (0.5, 1.0, 3.0):
                ks, ms = subsample_schedule(ts, alpha, r)
                assert np.all(ks >= 1)
                assert np.all(ks <= ms)
                assert np.all(ms <= ts - 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            subsample_schedule(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            subsample_schedule(10, 1.0, 1.0)
        with pytest.raises(ValueError):
            subsample_schedule(10, 0.0, 0.0)


class TestSubsampleTimes:
    def test_worked_example(self):
        assert subsample_times(100, 8, 27).tolist() == [92, 84, 76]

    def test_single_point(self):
        assert subsample_times(2, 1, 1).tolist() == [1]

    def test_count_is_window_over_gap(self):
        times = subsample_times(1000, 7, 100)
        assert len(times) == 100 // 7
        assert times.tolist() == [1000 - 7 * s for s in range(1, 15)]
        assert np.all(times >= 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            subsample_times(10, 0, 5)
        with pytest.raises(ValueError):
            subsample_times(10, 6, 5)
        with pytest.raises(ValueError):
            subsample_times(10, 2, 10)


class TestConstantWindow:
    def test_worked_examples(self):
        assert constant_window_size(1, 0.001) == 100
        assert constant_window_size(1, 1.0) == 1
        assert constant_window_size(8, 0.008) == 50

    def test_exact_cube_case(self):
        # 27^(1/3) * (1/27)^(-2/3) = 3 * 9 = 27: ceiling must not round up
        assert constant_window_size(27, 1.0 / 27.0) == 27

    def test_validation(self):
        with pytest.raises(ValueError):
            constant_window_size(0, 0.1)
        with pytest.raises(ValueError):
            constant_window_size(1, 0.0)
        with pytest.raises(ValueError):
            constant_window_size(1, 1.1)


def _best_window_oracle(t: int, schedule: DriftSchedule, d: int) -> int:
    """Plain full scan with the same floating-point operation order."""
    prefix = schedule.prefix_sums()
    s_t = prefix[t]
    best_obj = math.inf
    best_m = 1
    for m in range(1, t):
        obj = (s_t - prefix[t - m]) + math.sqrt(d / m)
        if obj < best_obj:
            best_obj = obj
            best_m = m
    return best_m


@st.composite
def _best_window_cases(draw):
    """(schedule, steps, d): power-step schedules whose windows can reach
    hundreds of steps, or dyadic ones whose partial sums are all exact."""
    horizon = draw(st.integers(2, 1500))
    if draw(st.booleans()):
        alpha = draw(st.sampled_from([0.0, 0.3, 0.6, 0.9]))
        c0 = draw(st.sampled_from([1e-4, 1e-3, 1e-2, 0.3, 1.0]))
        sched = make_drift_schedule("power_step", alpha=alpha, horizon=horizon, c0=c0)
    else:
        seed, top, scale = draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 64)), draw(st.integers(6, 14))
        deltas = np.random.default_rng(seed).integers(0, top + 1, size=horizon) / 2.0**scale
        deltas[0] = 0.0
        sched = DriftSchedule(
            kind="constant",
            alpha=0.0,
            deltas=tuple(float(v) for v in deltas),
            growth_constant=float(np.sum(deltas)),
        )
    ts = draw(st.lists(st.integers(2, horizon), min_size=1, max_size=12))
    return sched, ts, draw(st.sampled_from([1, 2, 5]))


class TestBestWindow:
    def test_constant_drift_worked_example(self):
        sched = make_drift_schedule("constant", alpha=0.0, horizon=2000, gamma=0.01)
        for t in (16, 100, 1000, 2000):
            assert best_window(t, sched, 1) == 14

    def test_zero_drift_uses_everything(self):
        sched = DriftSchedule(
            kind="constant", alpha=0.0, deltas=(0.0,) * 50, growth_constant=0.0
        )
        assert best_window(30, sched, 1) == 29
        assert best_window(50, sched, 1) == 49

    def test_saturated_drift_uses_last_point(self):
        sched = DriftSchedule(
            kind="constant", alpha=0.0, deltas=(0.0,) + (1.0,) * 49, growth_constant=1.0
        )
        assert best_window(30, sched, 1) == 1

    def test_matches_plain_scan_oracle(self):
        rng = np.random.default_rng(61)
        schedules = [
            make_drift_schedule("constant", alpha=0.0, horizon=700, gamma=0.01),
            make_drift_schedule("power_step", alpha=0.25, horizon=700),
            make_drift_schedule("power_step", alpha=0.6, horizon=700, c0=0.3),
        ]
        # random dyadic schedules keep every partial sum exact
        for _ in range(3):
            deltas = rng.integers(0, 65, size=700) / 64.0
            deltas[0] = 0.0
            schedules.append(
                DriftSchedule(
                    kind="constant",
                    alpha=0.0,
                    deltas=tuple(float(v) for v in deltas),
                    growth_constant=float(np.max(np.cumsum(deltas))),
                )
            )
        for sched in schedules:
            for t in (2, 3, 17, 128, 511, 700):
                for d in (1, 2, 5):
                    assert best_window(t, sched, d) == _best_window_oracle(t, sched, d)

    def test_exact_tie_prefers_smaller_window(self):
        # d=4: f(1) = 0 + sqrt(4/1) = 2 and f(4) = 1 + sqrt(4/4) = 2 exactly;
        # every other window is strictly worse.
        deltas = (0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0)
        sched = DriftSchedule(kind="constant", alpha=0.0, deltas=deltas, growth_constant=4.0)
        objective = {
            m: (sum(deltas[8 - m : 8]) + math.sqrt(4 / m)) for m in range(1, 8)
        }
        assert objective[1] == objective[4] == 2.0
        assert min(objective.values()) == 2.0
        assert best_window(8, sched, 4) == 1

    def test_strict_minimum_at_larger_window_is_found(self):
        deltas = (0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 63.0 / 64.0, 0.0)
        sched = DriftSchedule(kind="constant", alpha=0.0, deltas=deltas, growth_constant=4.0)
        # f(4) = 63/64 + 1 < 2 = f(1)
        assert best_window(8, sched, 4) == 4

    @pytest.mark.parametrize(
        "kind, options",
        [
            ("power_step", {"alpha": 0.25}),
            ("constant", {"alpha": 0.0, "gamma": 0.01}),
            ("power_step", {"alpha": 0.6, "c0": 0.3}),
            ("constant", {"alpha": 0.0, "gamma": 1e-9}),
        ],
    )
    def test_block_passes_leave_plans_and_steps_unchanged(self, kind, options, monkeypatch):
        sched = make_drift_schedule(kind, horizon=2048, **options)
        ts = np.arange(2, 2049)
        monkeypatch.setattr(learners, "WINDOW_SCAN_LIVE", 0)  # one length per pass: the reference scan
        reference = best_window(ts, sched, 1)
        steps = np.random.default_rng(900).integers(2, 2049, size=900)
        assert [best_window(int(t), sched, 1) for t in steps[:8]] == reference[steps[:8] - 2].tolist()
        monkeypatch.setattr(learners, "WINDOW_SCAN_LIVE", 2048)  # blocks of 16 lengths and more from the first pass on
        monkeypatch.setattr(learners, "WINDOW_SCAN_ELEMENTS", 2**15)
        assert np.array_equal(best_window(ts, sched, 1), reference)
        monkeypatch.undo()
        assert np.array_equal(best_window(ts, sched, 1), reference)
        assert [best_window(int(t), sched, 1) for t in steps] == reference[steps - 2].tolist()

    def test_long_windows_match_oracle(self):
        # the best window at t = 3000 is hundreds of steps long
        sched = make_drift_schedule("power_step", alpha=0.6, horizon=3000, c0=0.001)
        assert best_window(3000, sched, 1) == _best_window_oracle(3000, sched, 1)

    def test_validation(self):
        sched = make_drift_schedule("constant", alpha=0.0, horizon=10, gamma=0.1)
        with pytest.raises(ValueError):
            best_window(1, sched, 1)
        with pytest.raises(ValueError):
            best_window(11, sched, 1)
        for ts in ([2, 1, 5], [0], [3, 11, 4]):
            with pytest.raises(ValueError):
                best_window(np.array(ts), sched, 1)

    def test_array_forms(self):
        sched = make_drift_schedule("power_step", alpha=0.25, horizon=50)
        empty = best_window(np.zeros(0, dtype=np.int64), sched, 1)
        assert empty.dtype == np.int64 and empty.shape == (0,)
        for t in (7, np.int64(7), np.array(7)):
            window = best_window(t, sched, 1)
            assert type(window) is int and window == _best_window_oracle(7, sched, 1)
        grid = np.array([[2, 50], [50, 9]])
        windows = best_window(grid, sched, 2)
        assert windows.dtype == np.int64 and windows.shape == (2, 2)
        assert windows.tolist() == [[best_window(int(t), sched, 2) for t in row] for row in grid]
        learner = AdaptiveWindowLearner(schedule=sched)
        assert [w.tolist() for w in learner.plan(1)] == [[0], [0]]

    @settings(max_examples=40, deadline=None)
    @given(case=_best_window_cases())
    @example(case=(make_drift_schedule("power_step", alpha=0.0, horizon=1500, c0=1e-3), [1500, 900, 2], 1))
    # an exact tie at t = 8: f(1) = 0 + 1 and f(4) = 1/2 + 1/2
    @example(case=(DriftSchedule("constant", 0.0, (0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.5, 0.0), 1.0), [8], 1))
    def test_array_matches_oracle_and_scalar_calls(self, case):
        sched, ts, d = case
        windows = best_window(np.array(ts, dtype=np.int64), sched, d)
        assert windows.dtype == np.int64
        assert windows.tolist() == [_best_window_oracle(t, sched, d) for t in ts]
        assert windows.tolist() == [best_window(t, sched, d) for t in ts]


def _random_product_path(horizon: int, seed: int):
    sched = make_drift_schedule("power_step", alpha=0.25, horizon=horizon)
    path = concept_path(sched, eta=0.1, theta0=0.5)
    model = ProductProcess(marginals=path)
    return sched, sample_path(model, horizon, seed)


class TestErmStep:
    def test_matches_manual_gather(self):
        _, path = _random_product_path(100, 3)
        h = erm_step(path, 100, 8, 27)
        pos = np.array([92, 84, 76]) - 1
        theta, _ = threshold_erm(path.xs[pos], path.ys[pos])
        assert isinstance(h, ThresholdHypothesis)
        assert h.theta == theta

    def test_noiseless_erm_localizes_threshold(self):
        # with eta = 0 the ERM threshold lands within the sample gap around
        # theta*, whose expected width is 2/(n+1)
        rng = np.random.default_rng(62)
        n, reps, theta_star = 50, 3000, 0.5
        errors = np.empty(reps)
        for i in range(reps):
            xs = rng.random(n)
            ys = (xs >= theta_star).astype(np.int64)
            theta, errs = threshold_erm(xs, ys)
            assert errs == 0
            errors[i] = abs(theta - theta_star)
        assert float(errors.mean()) <= 2.0 / (n + 1)


LEARNER_KINDS = ["subsampled_erm", "adaptive_window", "constant_window", "full_history_erm", "last_point"]


def _build_learner(kind: str, schedule: DriftSchedule):
    if kind == "subsampled_erm":
        return SubsampledErmLearner(alpha=0.25, r=2.0)
    if kind == "adaptive_window":
        return AdaptiveWindowLearner(schedule=schedule)
    if kind == "constant_window":
        return ConstantWindowLearner(gamma=0.01)  # window 22
    return BaselineLearner(kind=kind)


def _plan_row(learner, t):
    """(gap, window) of step t, the last row of plan(t)."""
    gaps, windows = learner.plan(t)
    return int(gaps[-1]), int(windows[-1])


class TestPlan:
    def test_stepping_by_hand_keeps_one_plan(self):
        _, path = _random_product_path(300, 16)
        learner = SubsampledErmLearner(alpha=0.25, r=2.0)
        for t in range(1, 301):
            learner.step(path, t)
        gaps, windows = learner.plan(300)
        for k in (1, 2, 150, 299):
            prefix_gaps, prefix_windows = learner.plan(k)
            assert np.shares_memory(prefix_gaps, gaps) and np.shares_memory(prefix_windows, windows)
            assert not prefix_gaps.flags.writeable and not prefix_windows.flags.writeable
            assert np.array_equal(prefix_gaps, gaps[:k]) and np.array_equal(prefix_windows, windows[:k])

    @pytest.mark.parametrize("kind", LEARNER_KINDS)
    def test_stepping_by_hand_computes_one_row_per_step(self, kind):
        horizon = 300
        sched, path = _random_product_path(horizon, 17)
        learner = _build_learner(kind, sched)
        rule, calls = learner._rows, []

        def recorded(ts):
            gaps, windows = rule(ts)
            calls.append((ts.tolist(), gaps.tolist(), windows.tolist()))
            return gaps, windows

        with mock.patch.object(learner, "_rows", recorded):
            thetas = [learner.step(path, t).theta for t in range(1, horizon + 1)]
        assert [ts for ts, _, _ in calls] == [[t] for t in range(2, horizon + 1)]  # step 1 is (0, 0), no call
        assert learner._longest[0].size == 0  # stepping never built or grew a plan
        gaps, windows = learner.plan(horizon)
        assert [(g, w) for _, [g], [w] in calls] == list(zip(gaps[1:].tolist(), windows[1:].tolist()))
        for t, theta in enumerate(thetas, start=1):
            gap, window = int(gaps[t - 1]), int(windows[t - 1])
            assert theta == (erm_step(path, t, gap, window).theta if window else 0.0), t


class TestLearnerEquivalences:
    def test_subsampled_learner_matches_erm_step(self):
        _, path = _random_product_path(300, 11)
        learner = SubsampledErmLearner(alpha=0.25, r=2.0)
        for t in (2, 10, 100, 300):
            h = learner.step(path, t)
            k, m = _plan_row(learner, t)
            assert (k, m) == subsample_schedule(t, 0.25, 2.0)
            expected = erm_step(path, t, k, m)
            assert h.theta == expected.theta

    def test_adaptive_learner_matches_best_window(self):
        sched, path = _random_product_path(300, 12)
        learner = AdaptiveWindowLearner(schedule=sched)
        for t in (2, 10, 100, 300):
            h, (gap, window) = learner.step(path, t), _plan_row(learner, t)
            assert gap == 1
            assert window == best_window(t, sched, 1)
            expected = erm_step(path, t, 1, window)
            assert h.theta == expected.theta

    def test_constant_learner_warmup_and_steady(self):
        sched = make_drift_schedule("constant", alpha=0.0, horizon=400, gamma=0.01)
        cpath = concept_path(sched, eta=0.1, theta0=0.5)
        path = sample_path(ProductProcess(marginals=cpath), 400, 13)
        learner = ConstantWindowLearner(gamma=0.01)
        m_bar = constant_window_size(1, 0.01)
        assert learner.window == m_bar
        for t in range(1, m_bar + 1):
            h, (gap, window) = learner.step(path, t), _plan_row(learner, t)
            assert (gap, window) == (0, 0)
            assert h.theta == 0.0  # initial hypothesis deployed through warmup
        for t in (m_bar + 1, 200, 400):
            h, (gap, window) = learner.step(path, t), _plan_row(learner, t)
            assert (gap, window) == (1, m_bar)
            expected = erm_step(path, t, 1, m_bar)
            assert h.theta == expected.theta

    def test_baselines(self):
        _, path = _random_product_path(120, 14)
        full = BaselineLearner(kind="full_history_erm")
        last = BaselineLearner(kind="last_point")
        for t in (2, 50, 120):
            h_full, (gap_f, win_f) = full.step(path, t), _plan_row(full, t)
            assert (gap_f, win_f) == (1, t - 1)
            expected = erm_step(path, t, 1, t - 1)
            assert h_full.theta == expected.theta

            h_last, (gap_l, win_l) = last.step(path, t), _plan_row(last, t)
            assert (gap_l, win_l) == (1, 1)
            expected_last = erm_step(path, t, 1, 1)
            assert h_last.theta == expected_last.theta

        assert last.step(path, 5).theta == erm_step(path, 5, 1, 1).theta

    def test_all_learners_deploy_initial_at_t1(self):
        sched, path = _random_product_path(50, 15)
        learners = [
            SubsampledErmLearner(alpha=0.0, r=1.0),
            AdaptiveWindowLearner(schedule=sched),
            ConstantWindowLearner(gamma=0.05),
            BaselineLearner(kind="full_history_erm"),
            BaselineLearner(kind="last_point"),
        ]
        for learner in learners:
            h, (gap, window) = learner.step(path, 1), _plan_row(learner, 1)
            assert (gap, window) == (0, 0)
            assert h == ThresholdHypothesis(0.0)

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError, match="unknown baseline"):
            BaselineLearner(kind="mystery")
