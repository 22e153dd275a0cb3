"""Exact regret accounting, rate fits, blocking and uniform-deviation verifiers."""

import functools
import io
import itertools
import json
import math
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import (
    AdaptiveWindowLearner,
    BaselineLearner,
    ConstantWindowLearner,
    ConceptPath,
    DegenerateCurveError,
    FiniteSupport,
    Learner,
    MarkovModulatedProcess,
    Observation,
    ProductProcess,
    RegretCurve,
    SubsampledErmLearner,
    beta_coefficient,
    build_learner,
    build_model,
    concept_path,
    default_checkpoints,
    fit_growth_exponent,
    geometric_checkpoints,
    make_drift_schedule,
    resolve_config,
    risk,
    run_config,
    run_experiment,
    run_single,
    sample_path,
    symmetric_chain,
    theoretical_exponent,
    verify_blocking,
    verify_uniform_deviation,
)
from driftlab import evaluation
from driftlab.hypotheses import _rank_space, _rank_threshold_erm, _sliding_threshold_erm, cut_losses, threshold_erm_rows


class TestTheoreticalExponent:
    def test_worked_examples(self):
        assert theoretical_exponent(0.0, 1.0) == pytest.approx(6.0 / 7.0, abs=1e-15)
        assert theoretical_exponent(0.25, 2.0) == pytest.approx(0.8636363636363636, abs=1e-15)

    def test_formula(self):
        for alpha in (0.0, 0.3, 0.8):
            for r in (0.5, 1.0, 4.0):
                expected = alpha + (1 - alpha) * (3 + 3 * r) / (3 + 4 * r)
                assert theoretical_exponent(alpha, r) == pytest.approx(expected, abs=1e-15)

    def test_always_below_one(self):
        for alpha in (0.0, 0.5, 0.99):
            for r in (0.1, 1.0, 100.0):
                assert theoretical_exponent(alpha, r) < 1.0


class TestRegretCurve:
    def _curve(self):
        risks = np.array([[0.3, 0.2, 0.4], [0.5, 0.3, 0.2]])
        inf_risks = np.array([0.1, 0.1, 0.2])
        return RegretCurve(risks=risks, inf_risks=inf_risks, seeds=(0, 1))

    def test_mean_and_cumulative(self):
        curve = self._curve()
        assert curve.mean_risk == pytest.approx([0.4, 0.25, 0.3])
        assert curve.cum_excess == pytest.approx([0.3, 0.45, 0.55])
        assert curve.horizon == 3 and curve.replicates == 2

    def test_replicate_cum_excess(self):
        curve = self._curve()
        per = curve.replicate_cum_excess()
        assert per.shape == (2, 3)
        assert per[0] == pytest.approx([0.2, 0.3, 0.5])
        assert per[1] == pytest.approx([0.4, 0.6, 0.6])

    def test_ci_matches_manual_normal_interval(self):
        curve = self._curve()
        lo, hi = curve.ci_bounds()
        per = curve.replicate_cum_excess()
        se = per.std(axis=0, ddof=1) / math.sqrt(2)
        center = per.mean(axis=0)
        assert lo == pytest.approx(center - 1.96 * se)
        assert hi == pytest.approx(center + 1.96 * se)

    def test_single_replicate_ci_collapses(self):
        curve = RegretCurve(
            risks=np.array([[0.3, 0.2]]), inf_risks=np.array([0.1, 0.1]), seeds=(5,)
        )
        lo, hi = curve.ci_bounds()
        assert np.array_equal(lo, hi)
        # one object, so the mean curve's cum_excess, ci_lo and ci_hi are rendered once per chunk
        assert lo is curve.cum_excess and hi is curve.cum_excess

    def test_negative_excess_rejected(self):
        with pytest.raises(ValueError, match="excess"):
            RegretCurve(
                risks=np.array([[0.05, 0.3]]), inf_risks=np.array([0.1, 0.1]), seeds=(0,)
            )

    def test_checkpoint_values(self):
        curve = self._curve()
        values = curve.checkpoint_values([1, 3])
        assert values == pytest.approx([0.3, 0.55])
        with pytest.raises(ValueError):
            curve.checkpoint_values([0])
        with pytest.raises(ValueError):
            curve.checkpoint_values([4])

    def test_seed_count_must_match(self):
        with pytest.raises(ValueError):
            RegretCurve(
                risks=np.array([[0.3, 0.2]]), inf_risks=np.array([0.1, 0.1]), seeds=(0, 1)
            )

    def test_csv_round_trip(self, tmp_path):
        curve = self._curve()
        target = tmp_path / "curve.csv"
        curve.to_csv(str(target))
        lines = target.read_text().splitlines()
        assert lines[0] == "t,mean_risk,inf_risk,cum_excess,ci_lo,ci_hi"
        data = np.genfromtxt(target, delimiter=",", skip_header=1)
        assert np.array_equal(data[:, 1], curve.mean_risk)
        assert np.array_equal(data[:, 3], curve.cum_excess)


class TestRunSingle:
    def test_threshold_fast_path_matches_public_risk(self):
        sched = make_drift_schedule("power_step", alpha=0.25, horizon=120)
        path = concept_path(sched, eta=0.1, theta0=0.5)
        model = ProductProcess(marginals=path)
        learner = SubsampledErmLearner(alpha=0.25, r=2.0)
        risks = run_single(model, learner, 120, seed=4)
        gaps, windows = learner.plan(120)
        sp = sample_path(model, 120, seed=4)
        for t in (1, 2, 17, 63, 120):
            assert risks[t - 1] == risk(learner.step(sp, t), path[t - 1])
            step_gaps, step_windows = learner.plan(t)
            assert gaps[t - 1] == step_gaps[-1] and windows[t - 1] == step_windows[-1]

    def test_checkpoint_callback_power_of_two(self):
        sched = make_drift_schedule("power_step", alpha=0.25, horizon=40)
        path = concept_path(sched, eta=0.1, theta0=0.5)
        model = ProductProcess(marginals=path)
        learner = BaselineLearner(kind="last_point")
        seen = []

        def checkpoint(t, risks):
            seen.append(t)
            assert np.all(np.isfinite(risks[:t]))

        run_single(model, learner, 40, seed=0, checkpoint=checkpoint)
        assert seen == [1, 2, 4, 8, 16, 32]

    def test_zero_drift_cumulative_excess_is_small(self):
        sched = make_drift_schedule("constant", alpha=0.0, horizon=4096, gamma=1e-9)
        path = concept_path(sched, eta=0.1, theta0=0.5)
        model = ProductProcess(marginals=path)
        learner = AdaptiveWindowLearner(schedule=sched)
        risks = run_single(model, learner, 4096, seed=1)
        cum = float(np.sum(risks - 0.1))
        assert cum < 0.05 * 4096

    def test_determinism(self):
        sched = make_drift_schedule("power_step", alpha=0.25, horizon=100)
        path = concept_path(sched, eta=0.1, theta0=0.5)
        model = MarkovModulatedProcess(transition=symmetric_chain(3, 0.25), marginals=path)
        learner = SubsampledErmLearner(alpha=0.25, r=1.0)
        a = run_single(model, learner, 100, seed=7)
        b = run_single(model, learner, 100, seed=7)
        assert np.array_equal(a, b)


def _stepwise_risks(model, learner, horizon: int, seed: int) -> np.ndarray:
    """Per-step reference: the hypothesis ``learner.step`` fits at each t, scored by ``risk``."""
    sp = sample_path(model, horizon, seed)
    return np.array([risk(learner.step(sp, t), model.marginals[t - 1]) for t in range(1, horizon + 1)])


def _batched_run(model, learner, horizon: int, seed: int):
    """run_single's risks and the (t, flushed prefix) of every checkpoint call."""
    flushed = []
    risks = run_single(model, learner, horizon, seed, checkpoint=lambda t, r: flushed.append((t, r[:t].copy())))
    return risks, flushed


LEARNER_KINDS = ["subsampled_erm", "adaptive_window", "constant_window", "full_history_erm", "last_point"]


def _learner(kind: str, schedule):
    if kind == "subsampled_erm":
        return SubsampledErmLearner(alpha=0.25, r=2.0)
    if kind == "adaptive_window":
        return AdaptiveWindowLearner(schedule=schedule)
    if kind == "constant_window":
        return ConstantWindowLearner(gamma=0.01)  # window 22
    return BaselineLearner(kind=kind)


@dataclass
class _BlockPlanLearner(Learner):
    """Plan rows taken in turn per block of steps, clipped to be valid at every t; (0, 0) rows anywhere."""

    rows: tuple[tuple[int, int], ...]
    block: int

    def _rows(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        seen = ts - 1  # step t sees t - 1 points
        gap, window = np.array(self.rows, dtype=np.int64)[(seen // self.block) % len(self.rows)].T
        windows = np.minimum(window, seen)
        return np.minimum(gap, windows), windows


class TestBatchedRun:
    HORIZON = 200  # not a power of two: the last steps end no checkpoint

    @pytest.mark.parametrize("budget", [evaluation.ERM_BATCH_ELEMENTS, 5])
    @pytest.mark.parametrize("process", ["product", "markov"])
    @pytest.mark.parametrize("kind", LEARNER_KINDS)
    def test_matches_stepwise_reference(self, kind, process, budget, monkeypatch):
        monkeypatch.setattr(evaluation, "ERM_BATCH_ELEMENTS", budget)  # 5: one block per block-kernel chunk
        monkeypatch.setattr(evaluation, "SLIDE_MIN_WINDOW", evaluation.SLIDE_BLOCK)  # windows of 22-40 take the block kernel
        sched = make_drift_schedule("power_step", alpha=0.25, horizon=self.HORIZON)
        path = concept_path(sched, eta=0.1, theta0=0.5)
        if process == "product":
            model = ProductProcess(marginals=path)
        else:
            model = MarkovModulatedProcess(transition=symmetric_chain(3, 0.25), marginals=path)
        learner = _learner(kind, sched)
        reference = _stepwise_risks(model, learner, self.HORIZON, seed=11)
        risks, flushed = _batched_run(model, learner, self.HORIZON, seed=11)
        assert np.array_equal(risks, reference)
        assert [t for t, _ in flushed] == [1, 2, 4, 8, 16, 32, 64, 128]
        for t, prefix in flushed:
            assert np.array_equal(prefix, reference[:t])

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(1, 6), st.integers(0, 40)).map(lambda r: (0, 0) if r[1] == 0 else r),
            min_size=1,
            max_size=5,
        ),
        block=st.integers(1, 9),
        horizon=st.integers(1, 150),
        markov=st.booleans(),
        budget=st.sampled_from([evaluation.ERM_BATCH_ELEMENTS, 7]),
    )
    def test_random_plans_match_stepwise_reference(self, rows, block, horizon, markov, budget):
        path = ConceptPath(np.linspace(0.2, 0.8, horizon), 0.15)
        if markov:
            model = MarkovModulatedProcess(transition=symmetric_chain(4, 0.3), marginals=path)
        else:
            model = ProductProcess(marginals=path)
        learner = _BlockPlanLearner(rows=tuple(rows), block=block)
        with mock.patch.object(evaluation, "ERM_BATCH_ELEMENTS", budget), mock.patch.object(
            evaluation, "SLIDE_MIN_WINDOW", evaluation.SLIDE_BLOCK
        ):
            risks, flushed = _batched_run(model, learner, horizon, seed=3)
        reference = _stepwise_risks(model, learner, horizon, seed=3)
        assert np.array_equal(risks, reference)
        assert [t for t, _ in flushed] == [1 << j for j in range(horizon.bit_length())]
        for t, prefix in flushed:
            assert np.array_equal(prefix, reference[:t])


def _per_window_thetas(xs: np.ndarray, ys: np.ndarray, first: int, stop: int, window: int) -> np.ndarray:
    """One ``threshold_erm_rows`` call per window: steps i = first..stop-1 fit points i-window..i-1."""
    return np.array([threshold_erm_rows(xs[None, i - window : i], ys[None, i - window : i])[0] for i in range(first, stop)])


def _drifting_path(process: str, horizon: int, seed: int):
    path = concept_path(make_drift_schedule("constant", alpha=0.0, horizon=horizon, gamma=0.003), eta=0.2, theta0=0.4)
    if process == "product":
        return sample_path(ProductProcess(marginals=path), horizon, seed)
    return sample_path(MarkovModulatedProcess(transition=symmetric_chain(3, 0.2), marginals=path), horizon, seed)


class TestSlidingWindowErm:
    # budgets count int64s of key memory; on these 700-step paths 1 puts one block in each chunk, 2**9
    # several blocks in each of many chunks (one at window 100), ERM_BATCH_ELEMENTS every block in one chunk
    @pytest.mark.parametrize("budget", [1, evaluation.ERM_BATCH_ELEMENTS, 2**9])
    @pytest.mark.parametrize("window, block", [(8, 8), (9, 8), (2, 2), (23, 2), (47, 3), (64, 8), (100, 16)])
    @pytest.mark.parametrize("process", ["product", "markov"])
    def test_matches_per_window_reference(self, process, window, block, budget):
        sp = _drifting_path(process, 700, seed=window + block)
        space = _rank_space(sp.xs, sp.ys)
        assert space is not None
        for first in (window, window + 5):
            blocks = (700 - first) // block
            thetas = _sliding_threshold_erm(space, first, blocks, window, block, budget)
            assert np.array_equal(thetas, _per_window_thetas(sp.xs, sp.ys, first, first + blocks * block, window))

    @pytest.mark.parametrize("labels", ["drifting", "ones"])
    @pytest.mark.parametrize("window", [32767, 32768, 46341])
    def test_keys_on_both_sides_of_the_int32_bound(self, window, labels):
        # keys reach 2(m+1)m: int32 up to m = 32,767 and int64 above.  With all-one labels on rising x,
        # each step's top segment holds its whole window, whose key (m+2)m passes 2**31 at m = 46,341,
        # so int32 keys there would wrap and pick theta 1 over theta 0
        rng = np.random.default_rng(window)
        xs = rng.random(window + 45)
        if labels == "ones":
            xs, ys = np.sort(xs), np.ones(xs.size, dtype=np.int64)
        else:
            ys = (rng.random(xs.size) < 0.2 + 0.6 * xs).astype(np.int64)
        space = _rank_space(xs, ys)
        expected = _per_window_thetas(xs, ys, window + 3, window + 43, window)
        # 1: one block per chunk; ERM_BATCH_ELEMENTS: one block per chunk at these windows; 2**16: 3 (int32) or 1 (int64)
        for budget in (1, evaluation.ERM_BATCH_ELEMENTS, 2**16):
            assert np.array_equal(_sliding_threshold_erm(space, window + 3, 5, window, 8, budget), expected)

    def test_long_path_puts_search_keys_in_int64(self):
        # on a 2**20-point path, a chunk of 1,024 or more blocks puts the row-separated search keys past
        # 2**31, so budget 2**17 (1,100 blocks by int32 keys) must run int64 although window 48 keeps the
        # keys small; ERM_BATCH_ELEMENTS (202 blocks a chunk) stays int32
        rng = np.random.default_rng(20)
        xs, ys = rng.random(2**20), rng.integers(0, 2, 2**20)
        space = _rank_space(xs, ys)
        wide = _sliding_threshold_erm(space, 48, 1100, 48, 8, 2**17)
        assert np.array_equal(wide, _sliding_threshold_erm(space, 48, 1100, 48, 8, evaluation.ERM_BATCH_ELEMENTS))
        assert np.array_equal(wide[-96:], _per_window_thetas(xs, ys, 8752, 8848, 48))

    def test_peak_traced_memory_of_one_call(self):
        sp = _drifting_path("product", 8000, seed=465)
        space = _rank_space(sp.xs, sp.ys)
        blocks = (8000 - 465) // evaluation.SLIDE_BLOCK
        call = functools.partial(_sliding_threshold_erm, space, 465, blocks, 465, evaluation.SLIDE_BLOCK, evaluation.ERM_BATCH_ELEMENTS)
        call()  # warm numpy's lazy set-up outside the trace
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the int64 kernel of commit 1c96211 peaked at 616,562-619,062 bytes here over 35 calls (Python 3.11.7,
        # numpy 2.4.6); its least is the cap, so a larger chunk cannot raise the kernel's memory unseen
        assert peak <= 616_562

    @pytest.mark.parametrize("seed", range(6))
    def test_labels_all_one_side_and_extreme_x(self, seed):
        rng = np.random.default_rng(seed)
        xs = rng.permutation(np.concatenate(([0.0, np.nextafter(1.0, 0.0)], rng.random(118))))
        ys = np.ones(120, dtype=np.int64) if seed % 3 == 0 else (xs > 0.5).astype(np.int64) ^ (seed % 3 == 1)
        thetas = _sliding_threshold_erm(_rank_space(xs, ys), 20, 12, 20, 8, 1)
        assert np.array_equal(thetas, _per_window_thetas(xs, ys, 20, 116, 20))

    def test_ties_and_one_have_no_rank_space(self):
        xs = np.array([0.1, 0.7, 0.3, 0.9])
        assert _rank_space(xs, np.array([0, 1, 0, 1])) is not None
        assert _rank_space(np.array([0.1, 0.7, 0.1, 0.9]), np.array([0, 1, 0, 1])) is None
        assert _rank_space(np.array([0.1, 1.0, 0.3, 0.9]), np.array([0, 1, 0, 1])) is None

    @pytest.mark.parametrize("stop", [704, 705, 707])  # B divides the last run or leaves 1 or 3 steps to the row kernel
    def test_run_single_sends_whole_blocks_to_the_kernel(self, stop, monkeypatch):
        monkeypatch.setattr(evaluation, "SLIDE_MIN_WINDOW", 30)
        model = ProductProcess(marginals=ConceptPath(np.linspace(0.3, 0.7, stop), 0.2))
        calls = []

        def kernel(*args):
            calls.append(args[1:5])
            return _sliding_threshold_erm(*args)

        monkeypatch.setattr(evaluation, "_sliding_threshold_erm", kernel)
        # steps 2..30 fit windows of 1..29 points, then every step 30 (runs cut at 32, 64, ..., 512)
        learner = _BlockPlanLearner(rows=((1, 30),), block=stop)
        risks = run_single(model, learner, stop, seed=5)
        runs = [(32, 64), (64, 128), (128, 256), (256, 512), (512, stop)]
        assert calls == [(start, (end - start) // 8, 30, 8) for start, end in runs]
        assert np.array_equal(risks, _stepwise_risks(model, learner, stop, seed=5))
        calls.clear()
        for rows in ((1, 29), (2, 30)):  # below the crossover; a subsample
            run_single(model, _BlockPlanLearner(rows=(rows,), block=stop), stop, seed=5)
        assert calls == []

    @pytest.mark.parametrize("process", ["product", "markov"])
    @pytest.mark.parametrize("tie", ["grid", "one"])
    def test_ties_and_one_take_the_row_kernel(self, process, tie, monkeypatch):
        monkeypatch.setattr(evaluation, "SLIDE_MIN_WINDOW", evaluation.SLIDE_BLOCK)
        sched = make_drift_schedule("constant", alpha=0.0, horizon=300, gamma=0.01)
        path = concept_path(sched, eta=0.1, theta0=0.5)
        model = ProductProcess(marginals=path)
        if process == "markov":
            model = MarkovModulatedProcess(transition=symmetric_chain(3, 0.25), marginals=path)
        sp = sample_path(model, 300, seed=2)
        forced = np.round(sp.xs, 1) if tie == "grid" else np.where(np.arange(300) == 150, 1.0, sp.xs)
        forced_path = type(sp)(xs=forced, ys=sp.ys, states=sp.states)
        learner = ConstantWindowLearner(gamma=0.01)  # window 22
        with mock.patch.object(evaluation, "sample_path", return_value=forced_path), mock.patch.object(
            evaluation, "_sliding_threshold_erm"
        ) as kernel, mock.patch.object(evaluation, "_rank_threshold_erm") as rank_kernel, mock.patch.object(
            evaluation, "threshold_erm_rows", wraps=threshold_erm_rows
        ) as reference:
            risks = run_single(model, learner, 300, seed=2)
        kernel.assert_not_called()
        rank_kernel.assert_not_called()
        assert reference.called
        expected = [risk(learner.step(forced_path, t), path[t - 1]) for t in range(1, 301)]
        assert np.array_equal(risks, expected)

    def test_groups_cut_at_powers_of_two(self, monkeypatch):
        monkeypatch.setattr(evaluation, "SLIDE_MIN_WINDOW", evaluation.SLIDE_BLOCK)
        sched = make_drift_schedule("constant", alpha=0.0, horizon=1100, gamma=0.01)
        model = ProductProcess(marginals=concept_path(sched, eta=0.1, theta0=0.5))
        learner = ConstantWindowLearner(gamma=0.01)  # window 22
        with mock.patch.object(evaluation, "_sliding_threshold_erm", wraps=_sliding_threshold_erm) as kernel:
            risks, flushed = _batched_run(model, learner, 1100, seed=9)
        # groups 23..32, 33..64, ..., 1025..1100: each a run of whole blocks and a row-kernel tail
        assert [c.args[1] for c in kernel.call_args_list] == [22, 32, 64, 128, 256, 512, 1024]
        assert [t for t, _ in flushed] == [1 << j for j in range(11)]
        assert np.array_equal(risks, _stepwise_risks(model, learner, 1100, seed=9))


class TestGroupedRowErm:
    """run_single solves the row-kernel steps of each power-of-two range with one call per point count."""

    HORIZON = 300
    # point count 4 from three gaps, then a (0, 0) row, in turn for runs of 5 steps: [128, 256) holds 6 or 7 runs of each
    ROWS = ((2, 8), (3, 12), (4, 16), (0, 0))

    @staticmethod
    def _model(process: str, horizon: int):
        path = ConceptPath(np.linspace(0.25, 0.75, horizon), 0.15)
        if process == "product":
            return ProductProcess(marginals=path)
        return MarkovModulatedProcess(transition=symmetric_chain(3, 0.25), marginals=path)

    def _spied_run(self, model, learner, monkeypatch):
        """run_single's risks and the positions of every _rank_threshold_erm call."""
        calls = []

        def kernel(space, pos):
            calls.append(pos.copy())
            return _rank_threshold_erm(space, pos)

        monkeypatch.setattr(evaluation, "_rank_threshold_erm", kernel)
        return run_single(model, learner, self.HORIZON, seed=13), calls

    @pytest.mark.parametrize("budget", [evaluation.ERM_BATCH_ELEMENTS, 4 * 7])  # 28: 7 rows a chunk, cut inside runs
    @pytest.mark.parametrize("process", ["product", "markov"])
    def test_mixed_gaps_share_one_call_per_count(self, process, budget, monkeypatch):
        monkeypatch.setattr(evaluation, "ERM_BATCH_ELEMENTS", budget)
        model = self._model(process, self.HORIZON)
        learner = _BlockPlanLearner(rows=self.ROWS, block=5)
        risks, calls = self._spied_run(model, learner, monkeypatch)
        assert np.array_equal(risks, _stepwise_risks(model, learner, self.HORIZON, seed=13))
        # the count-4 calls of [128, 256): its steps in order, the next budget // 4 of them a call.  A row's
        # gap is its first position less its second, and its step its first position plus that gap
        gaps, windows = learner.plan(self.HORIZON)
        in_range = [pos for pos in calls if pos.shape[1] == 4 and 128 <= 2 * pos[0, 0] - pos[0, 1] < 256]
        step_gaps = np.concatenate([pos[:, 0] - pos[:, 1] for pos in in_range])
        steps = np.concatenate([pos[:, 0] for pos in in_range]) + step_gaps
        solved = np.flatnonzero(windows[128:256] > 0) + 128
        assert np.array_equal(steps, solved)
        assert set(step_gaps.tolist()) == {2, 3, 4} and np.array_equal(step_gaps, gaps[steps])
        assert np.array_equal(np.concatenate(in_range), steps[:, None] - step_gaps[:, None] * np.arange(1, 5))
        per_call = budget // 4
        assert [pos.shape[0] for pos in in_range] == [min(per_call, steps.size - i) for i in range(0, steps.size, per_call)]

    @pytest.mark.parametrize("process", ["product", "markov"])
    def test_tied_x_groups_through_the_reference(self, process, monkeypatch):
        monkeypatch.setattr(evaluation, "ERM_BATCH_ELEMENTS", 4 * 7)
        model = self._model(process, self.HORIZON)
        sp = sample_path(model, self.HORIZON, seed=13)
        tied = type(sp)(xs=np.round(sp.xs, 2), ys=sp.ys, states=sp.states)
        assert _rank_space(tied.xs, tied.ys) is None
        learner = _BlockPlanLearner(rows=self.ROWS, block=5)
        with mock.patch.object(evaluation, "sample_path", return_value=tied), mock.patch.object(
            evaluation, "threshold_erm_rows", wraps=threshold_erm_rows
        ) as reference:
            risks, calls = self._spied_run(model, learner, monkeypatch)
        assert calls == []
        expected = [risk(learner.step(tied, t), model.marginals[t - 1]) for t in range(1, self.HORIZON + 1)]
        assert np.array_equal(risks, expected)
        # one call per 7 steps of count 4 in each power-of-two range, whatever their gaps
        gaps, windows = learner.plan(self.HORIZON)
        four = (windows > 0) & (windows // np.maximum(gaps, 1) == 4)
        ranges = [(lo, min(2 * lo, self.HORIZON)) for lo in (1 << np.arange(9)).tolist()]
        expected_rows = [min(7, n - i) for n in (int(four[lo:hi].sum()) for lo, hi in ranges) for i in range(0, n, 7)]
        assert [c.args[0].shape[0] for c in reference.call_args_list if c.args[0].shape[1] == 4] == expected_rows
        assert len(set(gaps[128:256][four[128:256]].tolist())) == 3


class TestRankRowErm:
    @staticmethod
    def _path(process: str) -> tuple[np.ndarray, np.ndarray]:
        """x and labels of a 700-step path whose labels are all 1 on steps 100..199 and all 0 on 300..399,
        with x = 0.0 and the largest x below 1.0 on board."""
        sp = _drifting_path(process, 700, seed=17)
        xs, ys = sp.xs.copy(), sp.ys.copy()
        xs[[50, 450]] = 0.0, np.nextafter(1.0, 0.0)
        ys[100:200], ys[300:400] = 1, 0
        return xs, ys

    @pytest.mark.parametrize("process", ["product", "markov"])
    def test_matches_reference_for_every_point_count_and_gap(self, process):
        xs, ys = self._path(process)
        space = _rank_space(xs, ys)
        assert space is not None
        ends = {0.0: 0, 1.0: 0}
        for n in range(1, 65):
            for gap in range(1, 10):
                pos = np.arange(n * gap, xs.size, 3)[:, None] - gap * np.arange(1, n + 1)
                expected = threshold_erm_rows(xs[pos], ys[pos])
                assert _rank_threshold_erm(space, pos).tobytes() == expected.tobytes(), (n, gap)
                for end in ends:
                    ends[end] += np.count_nonzero(expected == end)
        assert min(ends.values()) > 0  # rows whose best cut is 0, and rows whose best cut is n

    @pytest.mark.parametrize("process", ["product", "markov"])
    @pytest.mark.parametrize("kind", ["subsampled_erm", "constant_window", "adaptive_window", "last_point"])
    def test_run_single_takes_no_reference_on_a_ranked_path(self, kind, process, monkeypatch):
        monkeypatch.setattr(evaluation, "SLIDE_MIN_WINDOW", evaluation.SLIDE_BLOCK)  # both kernels run: windows of 8 and more slide
        sched = make_drift_schedule("power_step", alpha=0.25, horizon=600)
        path = concept_path(sched, eta=0.1, theta0=0.5)
        model = ProductProcess(marginals=path)
        if process == "markov":
            model = MarkovModulatedProcess(transition=symmetric_chain(4, 0.25), marginals=path)
        learner = _learner(kind, sched)
        sp = sample_path(model, 600, seed=8)
        assert _rank_space(sp.xs, sp.ys) is not None
        with mock.patch.object(evaluation, "threshold_erm_rows") as reference:
            risks = run_single(model, learner, 600, seed=8)
        reference.assert_not_called()
        assert np.array_equal(risks, _stepwise_risks(model, learner, 600, seed=8))


class TestWriteCurveRows:
    @staticmethod
    def _plain(columns, start: int, stop: int) -> str:
        """Every value through repr, row by row."""
        return "".join(",".join(map(repr, [t + 1] + [c[t].item() for c in columns])) + "\n" for t in range(start, stop))

    @pytest.mark.parametrize("chunk_rows", [3, 4096])
    def test_constant_columns_write_the_same_bytes(self, chunk_rows, monkeypatch, tmp_path):
        monkeypatch.setattr(evaluation, "CSV_CHUNK_ROWS", chunk_rows)
        n = 11
        columns = [
            np.full(n, 0.1),  # inf_risk
            np.full(n, -0.0),  # the literal -0.0
            np.where(np.arange(n) % 2 == 0, 0.0, -0.0),  # equal to 0.0 everywhere, yet two reprs
            np.array([0.25] * 6 + [1e-300] * 5),  # constant in some chunks only
            np.full(n, np.nan),
            np.full(n, np.inf),
            np.full(n, 465, dtype=np.int64),
            np.full(n, 0, dtype=np.int64),
            np.linspace(-1.0, 1.0, n),
            np.full(n, -3.5),
        ]
        for start, stop in ((0, n), (2, 9), (4, 5)):
            target = tmp_path / f"rows-{start}-{stop}.csv"
            with open(target, "w", encoding="utf-8", newline="") as fh:
                evaluation.write_curve_rows(fh, columns, start, stop)
            assert target.read_bytes() == self._plain(columns, start, stop).encode()

    @pytest.mark.parametrize("chunk_rows", [4, 7])
    def test_bitwise_equal_columns_write_the_same_bytes(self, chunk_rows, monkeypatch, tmp_path):
        monkeypatch.setattr(evaluation, "CSV_CHUNK_ROWS", chunk_rows)
        n = 23
        rng = np.random.default_rng(5)
        a, b = rng.random(n), rng.random(n) - 0.5
        a_later = a.copy()
        a_later[chunk_rows + 1 :: 3] += 1.0  # equal to ``a`` up to row chunk_rows only
        signed = np.where(np.arange(n) % 3 == 0, 0.0, -0.0)
        columns = [
            a, a.copy(), a.copy(),  # a triple
            a, b, a,  # the same objects again, among others
            b, b.copy(),  # a pair
            signed, signed.copy(),  # equal bits, two reprs in every chunk
            np.where(np.arange(n) % 3 == 0, -0.0, 0.0),  # equal to ``signed`` by value, not by bits
            np.full(n, -0.0), np.full(n, -0.0),  # all -0.0: one literal each
            b.view(np.int64),  # the bits of ``b`` as integers: its own text
            a_later,
            np.full(n, 0.1),
        ]
        for start, stop in ((0, n), (1, n), (3, 3 + 2 * chunk_rows), (chunk_rows + 2, n - 1)):
            target = tmp_path / f"rows-{start}-{stop}.csv"
            with open(target, "w", encoding="utf-8", newline="") as fh:
                evaluation.write_curve_rows(fh, columns, start, stop)
            assert target.read_bytes() == self._plain(columns, start, stop).encode()

    def test_a_column_passed_three_times_is_rendered_once_per_chunk(self, monkeypatch):
        monkeypatch.setattr(evaluation, "CSV_CHUNK_ROWS", 4)
        n = 11
        values = np.random.default_rng(9).random(n)
        columns = [values, np.full(n, 0.1), values, values]
        out = io.StringIO()
        with mock.patch.object(evaluation, "_text_slots", wraps=evaluation._text_slots) as text_slots:
            evaluation.write_curve_rows(out, columns, 0, n)
        floats = [call.args[0] for call in text_slots.call_args_list if call.args[0].dtype == np.float64]
        assert [chunk.size for chunk in floats] == [4, 4, 3]  # the t column and the constant one go elsewhere
        assert out.getvalue() == self._plain(columns, 0, n)

    @pytest.mark.parametrize("seeds", [[0], [0, 1]], ids=["one_seed", "two_seeds"])
    def test_short_final_tail_end_to_end(self, seeds, tmp_path):
        """Horizon 4099 leaves a 3-row tail after the last whole chunk; every curve row is repr text."""
        horizon = evaluation.CSV_CHUNK_ROWS + 3
        resolved = resolve_config(
            {
                "horizon": horizon,
                "seeds": seeds,
                "drift": {"kind": "power_step", "alpha": 0.25},
                "process": {"kind": "product"},
                "learner": {"kind": "subsampled_erm", "r": 2.0},
                "checkpoints": [2**j for j in range(4, 13)],
            }
        )
        record, curve = run_config(resolved, tmp_path)
        model, schedule = build_model(resolved)
        plan = build_learner(resolved, schedule).plan(horizon)
        expected = {
            f"curve-{seed}.csv": (risks, curve.inf_risks, np.cumsum(risks - curve.inf_risks), *plan)
            for seed, risks in zip(seeds, curve.risks)
        }
        expected["curve-mean.csv"] = (curve.mean_risk, curve.inf_risks, curve.cum_excess, *curve.ci_bounds())
        for name, columns in expected.items():
            rows = (Path(record.out_dir) / name).read_text().splitlines()[1:]
            assert len(rows) == horizon
            assert rows == self._plain(columns, 0, horizon).splitlines(), name

    def test_flushes_of_every_length(self):
        """A curve written in ranges of 1..70 rows writes every value as repr does."""
        n = 150
        rng = np.random.default_rng(21)
        special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308 / 3, 0.0, 1e-300, 2.0**60]
        risks = rng.random(n)
        risks[rng.choice(n, 3 * len(special), replace=False)] = special * 3
        gaps = np.repeat(np.arange(1, 16, dtype=np.int64), 10)
        columns = [
            risks,
            np.full(n, 0.1),  # a constant column
            np.cumsum(np.nan_to_num(risks, posinf=1.0, neginf=0.0)),
            risks.copy(),  # bit-equal to ``risks``
            gaps,
            np.where(gaps > 3, gaps * 10**15, 0),  # int64 plan columns, 0 and 17-digit values
        ]
        expected = self._plain(columns, 0, n).splitlines()
        for rows in range(1, 71):
            out = io.StringIO()
            for start in range(0, n, rows):
                evaluation.write_curve_rows(out, columns, start, min(start + rows, n))
            assert out.getvalue().splitlines() == expected, rows

    def test_slot_masks_match_per_group_clip(self):
        for width in range(1, 21):
            groups = -(-width // 4)
            pad = 4 * groups - width
            keep_from, keep_below = evaluation._SLOT_MASKS[width]
            assert keep_from.shape == keep_below.shape == (groups, width + 1)
            for g in range(groups):
                bounds = np.clip(np.arange(width + 1) + pad - 4 * g, 0, 4)
                assert np.array_equal(keep_from[g], evaluation._KEEP_FROM[bounds])
                assert np.array_equal(keep_below[g], evaluation._KEEP_BELOW[bounds])


def _near_powers_of_ten() -> np.ndarray:
    """10**e and the 100 floats on either side of it, e = -4..16."""
    values = []
    for e in range(-4, 17):
        for direction in (np.inf, -np.inf):
            value = 10.0**e
            for _ in range(101):
                values.append(value)
                value = np.nextafter(value, direction)
    return np.array(values)


def _digit_counts() -> np.ndarray:
    """Floats read from decimals of 1..17 significant digits, from 1e-4 up to 1e16."""
    rng = np.random.default_rng(17)
    return np.array(
        [float(f"{rng.integers(10 ** (d - 1), 10**d)}e{rng.integers(-d - 3, 17 - d)}") for d in range(1, 18) for _ in range(300)]
    )


class TestCurveText:
    """The vectorised curve text against repr, one value at a time (``TestWriteCurveRows._plain``)."""

    @staticmethod
    def _check(values: np.ndarray, chunk_rows: int = 4096) -> None:
        columns = [values, -values[::-1].copy()]
        with mock.patch.object(evaluation, "CSV_CHUNK_ROWS", chunk_rows):
            for start, stop in ((0, values.size), (values.size // 3, values.size)):
                out = io.StringIO()
                evaluation.write_curve_rows(out, columns, start, stop)
                # compared as lists of lines: a failure names its first differing row
                assert out.getvalue().splitlines() == TestWriteCurveRows._plain(columns, start, stop).splitlines()

    @settings(max_examples=60, deadline=None)
    @given(
        floats=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=60),
        bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60),
        chunk_rows=st.sampled_from([1, 7, 4096]),
    )
    def test_drawn_floats_and_bit_patterns(self, floats, bits, chunk_rows):
        self._check(np.array(floats, dtype=np.float64), chunk_rows)
        self._check(np.array(bits, dtype=np.uint64).view(np.float64), chunk_rows)

    def test_special_values(self):
        self._check(np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]))

    @pytest.mark.parametrize("chunk_rows", [4096, 61])
    def test_next_to_powers_of_ten(self, chunk_rows):
        self._check(_near_powers_of_ten(), chunk_rows)

    def test_kernel_digits_are_seventeen(self):
        """A decided value's digits have 17 digits and end in a non-zero digit after the ``cut`` zeros."""
        values = np.concatenate([_near_powers_of_ten(), _digit_counts()])
        decided, digits, k, cut = evaluation._shortest_digits(values)
        digits, cut = digits[decided], cut[decided]
        assert np.all((digits >= 10**16) & (digits < 10**17))
        assert np.all(digits // 10**cut % 10 != 0) and np.all(digits % 10**cut == 0)
        texts = [repr(v) for v in np.abs(values[decided]).tolist()]
        assert [len(t.replace(".", "").strip("0")) for t in texts] == (17 - cut).tolist()

    def test_range_edges(self):
        edges = []
        for edge in (1e-3, 2.0**53):
            value = edge
            for _ in range(200):
                value = np.nextafter(value, 0.0)
            for _ in range(400):
                edges.append(value)
                value = np.nextafter(value, np.inf)
        self._check(np.array(edges))

    def test_powers_of_two(self):
        self._check(np.ldexp(1.0, np.arange(-1074, 1024)))

    def test_decimal_ties(self):
        # ..., 2**49 + 0.25 + i and 2**49 + 0.75 + i: 16-digit ties, the even neighbour ending in 2 and in 8
        ties = [2.0**49 + 0.25 + i / 2 for i in range(400)]
        ties += [1.0 + (2 * i + 1) / 2**17 for i in range(400)]  # ties of two 17-digit candidates
        ties += [m / 2.0**s for m in range(1, 80, 2) for s in range(1, 40)]  # dyadic values: short texts and ties
        self._check(np.array(ties))

    def test_significant_digit_counts(self):
        self._check(_digit_counts())

    def test_short_texts_beside_long_ones(self):
        # undecided values (short texts, powers of two) in chunks whose decided values have few fraction digits
        rng = np.random.default_rng(6)
        long = 1e6 + rng.random(400)
        short = rng.choice([0.5, 0.25, 0.1, 3.0, 1e-5, 2.0**60, -0.0], 400)
        self._check(np.where(np.arange(400) % 3 == 0, short, long), chunk_rows=7)

    def test_uniform_and_wide_ranges(self):
        rng = np.random.default_rng(4)
        self._check(rng.random(5000))
        self._check(np.exp(rng.uniform(math.log(1e-4), math.log(2.0**54), 5000)), chunk_rows=700)

    def test_integer_columns(self):
        rng = np.random.default_rng(8)
        edges = [0, 1, -1, 9, 10, -10, 10**18 - 1, 10**18, -(10**18), 2**63 - 1, -(2**63), -(2**63) + 1]
        ints = np.concatenate([np.array(edges, dtype=np.int64), rng.integers(-(2**63), 2**63 - 1, 2000, dtype=np.int64)])
        columns = [ints, ints // 10**9, np.abs(ints[2:] // 2), rng.integers(0, 2**64 - 1, ints.size, dtype=np.uint64)]
        columns[2] = np.concatenate([columns[2], [7, 7]])
        for chunk_rows in (4096, 5):
            with mock.patch.object(evaluation, "CSV_CHUNK_ROWS", chunk_rows):
                out = io.StringIO()
                evaluation.write_curve_rows(out, columns, 0, ints.size)
                assert out.getvalue().splitlines() == TestWriteCurveRows._plain(columns, 0, ints.size).splitlines()

    def test_repr_fallback_is_rare_on_curves(self, tmp_path):
        """Of the float values a reduced Markov run writes through the kernel, at most 1% go to repr."""
        config = {
            "horizon": 4096,
            "seeds": [0, 1],
            "drift": {"kind": "power_step", "alpha": 0.25},
            "concept": {"eta": 0.1, "theta0": 0.5},
            "process": {"kind": "markov_modulated", "states": 4, "flip": 0.25},
            "checkpoints": {"t_min": 64, "t_max": 4096, "ratio": 1.4142135623730951},
            "learner": {"kind": "subsampled_erm", "alpha": 0.25, "r": 2.0},
        }
        decided = []
        kernel = evaluation._shortest_digits

        def spy(values):
            result = kernel(values)
            decided.append(result[0])
            return result

        with mock.patch.object(evaluation, "_shortest_digits", spy):
            run_config(resolve_config(config), tmp_path, jobs=1)  # the spy counts calls in this process
        decided = np.concatenate(decided)
        # per seed risk and cum_excess, and four mean-curve columns, less the chunks written as one literal
        assert decided.size > 0.99 * (2 * 2 + 4) * 4096
        assert np.count_nonzero(~decided) <= 0.01 * decided.size


class TestRunExperiment:
    def test_stacks_replicates(self):
        sched = make_drift_schedule("power_step", alpha=0.25, horizon=64)
        path = concept_path(sched, eta=0.1, theta0=0.5)
        model = ProductProcess(marginals=path)
        learner = SubsampledErmLearner(alpha=0.25, r=2.0)
        curve = run_experiment(model, learner, 64, seeds=(3, 9))
        assert curve.replicates == 2 and curve.horizon == 64
        single = run_single(model, learner, 64, seed=9)
        assert np.array_equal(curve.risks[1], single)
        assert curve.seeds == (3, 9)
        assert np.all(curve.inf_risks == 0.1)

    def test_distinct_seeds_required(self):
        sched = make_drift_schedule("power_step", alpha=0.25, horizon=8)
        path = concept_path(sched, eta=0.1, theta0=0.5)
        model = ProductProcess(marginals=path)
        learner = BaselineLearner(kind="last_point")
        with pytest.raises(ValueError, match="distinct"):
            run_experiment(model, learner, 8, seeds=(1, 1))
        with pytest.raises(ValueError):
            run_experiment(model, learner, 8, seeds=())


class TestLastPointOracle:
    """A whole run (config, sample path, plan, ERM, exact risk, seed mean) against a law derived by hand.

    ``last_point`` fits the one point (x, y) of step t-1: theta 0 when y = 1 and
    theta 1 when y = 0 (x < 1 almost surely).  Every x is uniform, for the
    Markov process too (its doubly stochastic chain starts at its uniform
    stationary law), so y_{t-1} = 1 with p = eta + (1-2 eta)(1 - theta_{t-1}) and
    E[risk_t] = p (eta + (1-2 eta) theta_t) + (1-p)(eta + (1-2 eta)(1 - theta_t));
    step 1 deploys theta 0.  Runs go under the paper's slow power-step drift and
    under a constant drift fast enough that a wrong time index of a label or a
    risk shows.
    """

    SEEDS = tuple(range(100, 164))  # fixed before the first run
    HORIZON = 8192
    CHECKPOINTS = np.array([512, 2048, 8192])

    @pytest.mark.parametrize("process", [{"kind": "product"}, {"kind": "markov_modulated", "states": 4, "flip": 0.25}])
    @pytest.mark.parametrize("drift", [{"kind": "power_step", "alpha": 0.25}, {"kind": "constant", "gamma": 0.3}])
    def test_seed_mean_cumulative_excess_matches_closed_form(self, drift, process):
        eta = 0.1
        resolved = resolve_config(
            {
                "horizon": self.HORIZON,
                "seeds": list(self.SEEDS),
                "drift": drift,
                "concept": {"eta": eta, "theta0": 0.5},
                "process": process,
                "learner": {"kind": "last_point"},
            }
        )
        model, schedule = build_model(resolved)
        curve = run_experiment(model, build_learner(resolved, schedule), self.HORIZON, self.SEEDS)
        theta = model.marginals.thetas[: self.HORIZON]
        p = eta + (1 - 2 * eta) * (1 - theta[:-1])
        rest = p * (eta + (1 - 2 * eta) * theta[1:]) + (1 - p) * (eta + (1 - 2 * eta) * (1 - theta[1:]))
        expected = np.cumsum(np.concatenate(([eta + (1 - 2 * eta) * theta[0]], rest)) - eta)[self.CHECKPOINTS - 1]
        # the seed spread from the raw risks, not from RegretCurve's own aggregates
        per_seed = np.cumsum(curve.risks - eta, axis=1)[:, self.CHECKPOINTS - 1]
        se = per_seed.std(axis=0, ddof=1) / math.sqrt(len(self.SEEDS))
        z = (curve.cum_excess[self.CHECKPOINTS - 1] - expected) / se
        assert np.all(np.abs(z) <= 4.0), z


def _midpoint_erm_error(n: np.ndarray) -> np.ndarray:
    """E|theta_hat - 1/2| of noise-free threshold ERM on n >= 1 i.i.d. uniform points, theta = 1/2.

    Both sides empty (probability 2^-n) gives theta 0 or 1, off by 1/2.  Otherwise theta_hat is the
    midpoint of the gaps l and r on each side of theta, off by |r - l| / 2; integrating that against
    their joint density n(n-1)(1 - l - r)^(n-2) gives the other two terms.
    """
    n = np.asarray(n, dtype=float)
    binomial_tail = 1.0 - (1.0 + (n + 1) + (n + 1) * n / 2.0) * 0.5 ** (n + 1)  # P(Bin(n+1, 1/2) >= 3)
    return 0.5**n + binomial_tail / (2.0 * (n + 1)) + n * (n - 1) * 0.5 ** (n + 1) / (4.0 * (n + 1))


class TestMultiPointOracle:
    """Multi-point ERM in a whole run against a law derived by hand: noise-free labels on a fixed concept.

    With eta = 0 and theta0 = 1/2 under power-step drift with c0 = 1e-12 (theta moves by under 4e-11 in
    8192 steps), the n = window // gap points a product-process step fits are i.i.d. uniform, and the
    zero-loss cut is unique: the excess of the step is ``_midpoint_erm_error(n)``.  A (0, 0) plan row
    deploys theta 0 and pays 1/2.  ``subsampled_erm`` fits 1 to 11 points by the row kernel;
    ``constant_window`` fits 63 points, one block-kernel window.
    """

    SEEDS = tuple(range(300, 364))  # fixed before the first run
    HORIZON = 8192
    CHECKPOINTS = np.array([512, 2048, 8192])

    @pytest.mark.parametrize(
        "learner",
        [{"kind": "subsampled_erm", "alpha": 0.25, "r": 2.0}, {"kind": "constant_window", "gamma": 0.002}],
        ids=["subsampled_erm", "constant_window"],
    )
    def test_seed_mean_cumulative_excess_matches_closed_form(self, learner):
        resolved = resolve_config(
            {
                "horizon": self.HORIZON,
                "seeds": list(self.SEEDS),
                "drift": {"kind": "power_step", "alpha": 0.25, "c0": 1e-12},
                "concept": {"eta": 0.0, "theta0": 0.5},
                "process": {"kind": "product"},
                "learner": learner,
            }
        )
        model, schedule = build_model(resolved)
        fitted = build_learner(resolved, schedule)
        gaps, windows = fitted.plan(self.HORIZON)
        if learner["kind"] == "constant_window":
            assert windows.max() == 63 >= evaluation.SLIDE_MIN_WINDOW
        points = windows // np.maximum(gaps, 1)
        expected = np.cumsum(np.where(points == 0, 0.5, _midpoint_erm_error(np.maximum(points, 1))))[self.CHECKPOINTS - 1]
        curve = run_experiment(model, fitted, self.HORIZON, self.SEEDS)
        per_seed = np.cumsum(curve.risks, axis=1)[:, self.CHECKPOINTS - 1]
        se = per_seed.std(axis=0, ddof=1) / math.sqrt(len(self.SEEDS))
        z = (per_seed.mean(axis=0) - expected) / se
        assert np.all(np.abs(z) <= 4.0), z


class TestCheckpoints:
    def test_geometric_sqrt2_grid(self):
        grid = geometric_checkpoints(1024, 32768)
        assert grid[0] == 1024 and grid[-1] == 32768
        assert len(grid) == 11
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_geometric_validation(self):
        with pytest.raises(ValueError):
            geometric_checkpoints(10, 10)
        with pytest.raises(ValueError):
            geometric_checkpoints(10, 100, ratio=1.0)

    @staticmethod
    def _stepped(t_min, t_max, ratio):
        """The grid by repeated multiplication, the reference geometric_checkpoints keeps."""
        points, value = [], float(t_min)
        while value < t_max:
            points.append(int(round(value)))
            value *= ratio
        return tuple(sorted(set(points + [t_max])))

    @pytest.mark.parametrize(
        "t_min,t_max,ratio", [(1, 300, 1.001), (7, 400, 1.00125), (1024, 32768, 2**0.5), (64, 4096, 1.1)]
    )
    def test_geometric_grid_matches_stepping(self, monkeypatch, t_min, t_max, ratio):
        assert geometric_checkpoints(t_min, t_max, ratio) == self._stepped(t_min, t_max, ratio)
        monkeypatch.setattr(evaluation, "GRID_MAX_STEPS", 1000)  # the first two now take the every-integer branch
        assert geometric_checkpoints(t_min, t_max, ratio) == self._stepped(t_min, t_max, ratio)

    def test_ratio_next_to_one_is_bounded(self):
        start = time.monotonic()
        assert geometric_checkpoints(1, 512, 1.0000000000000002) == tuple(range(1, 513))
        with pytest.raises(ValueError, match="too close to 1"):
            geometric_checkpoints(1, 10**8, 1.000001)
        assert time.monotonic() - start < 1.0

    def test_default_power_of_two(self):
        assert default_checkpoints(40000) == (256, 512, 1024, 2048, 4096, 8192, 16384, 32768)
        assert default_checkpoints(1000) == (256, 512, 1000)
        with pytest.raises(ValueError):
            default_checkpoints(100)


class TestFitGrowthExponent:
    def test_recovers_exact_power_law(self):
        ts = geometric_checkpoints(64, 8192)
        values = 0.37 * np.asarray(ts, dtype=float) ** 0.81
        fit = fit_growth_exponent(ts, values, theoretical=0.86)
        assert fit.exponent == pytest.approx(0.81, abs=1e-12)
        assert math.exp(fit.intercept) == pytest.approx(0.37, abs=1e-12)
        assert fit.residual_norm == pytest.approx(0.0, abs=1e-12)
        assert fit.theoretical == 0.86
        assert (fit.t_min, fit.t_max) == (64, 8192)

    def test_residual_is_rms_of_log_residuals(self):
        ts = np.array([10, 20, 40, 80, 160, 320, 640, 1280])
        rng = np.random.default_rng(81)
        values = 2.0 * ts**0.5 * np.exp(rng.normal(0, 0.05, ts.size))
        fit = fit_growth_exponent(ts, values)
        design = np.column_stack([np.log(ts), np.ones(ts.size)])
        coef, *_ = np.linalg.lstsq(design, np.log(values), rcond=None)
        resid = np.log(values) - design @ coef
        assert fit.exponent == pytest.approx(coef[0], abs=1e-12)
        assert fit.residual_norm == pytest.approx(float(np.sqrt(np.mean(resid**2))), abs=1e-12)

    def test_requires_eight_points(self):
        ts = [10, 20, 40, 80, 160, 320, 640]
        with pytest.raises(ValueError, match="at least 8"):
            fit_growth_exponent(ts, np.ones(len(ts)))

    def test_requires_increasing_checkpoints(self):
        ts = [10, 20, 40, 80, 160, 320, 640, 640]
        with pytest.raises(ValueError, match="increasing"):
            fit_growth_exponent(ts, np.ones(len(ts)))

    def test_non_positive_marks_degenerate(self):
        ts = [10, 20, 40, 80, 160, 320, 640, 1280]
        values = np.ones(8)
        values[3] = 0.0
        with pytest.raises(DegenerateCurveError, match="T=80"):
            fit_growth_exponent(ts, values)
        assert issubclass(DegenerateCurveError, ValueError)

    def test_json_payload(self):
        ts = geometric_checkpoints(64, 8192)
        values = 0.5 * np.asarray(ts, dtype=float) ** 0.7
        payload = fit_growth_exponent(ts, values).to_json()
        for key in ("exponent", "intercept", "t_min", "t_max", "residual_norm", "theoretical"):
            assert key in payload


def _blocking_oracle(transition: np.ndarray, blocks: int, gap: int) -> float:
    states = transition.shape[0]
    pi = 1.0 / states
    step = np.linalg.matrix_power(transition, gap)
    total = 0.0
    for tup in itertools.product(range(states), repeat=blocks):
        joint = pi
        for a, b in zip(tup, tup[1:]):
            joint *= step[a, b]
        total += abs(joint - pi**blocks)
    return 0.5 * total


class TestVerifyBlocking:
    def _model(self, states=3, flip=0.3):
        return MarkovModulatedProcess(
            transition=symmetric_chain(states, flip),
            marginals=ConceptPath(np.array([0.5]), 0.1),
        )

    def test_product_gap_is_zero(self):
        model = ProductProcess(marginals=ConceptPath(np.array([0.5]), 0.1))
        report = verify_blocking(model, blocks=3, gap=2)
        assert report.tv_gap == 0.0 and report.bound == 0.0 and report.slack == 0.0

    def test_two_block_gap_equals_beta(self):
        model = self._model(2, 0.3)
        report = verify_blocking(model, blocks=2, gap=1)
        assert report.tv_gap == pytest.approx(0.2, abs=1e-15)
        assert report.bound == pytest.approx(0.2, abs=1e-15)
        assert abs(report.slack) <= 1e-15

    def test_matches_enumeration_oracle(self):
        for states in (2, 3, 4):
            for flip in (0.3, 0.45):
                model = self._model(states, flip)
                matrix = model.transition_array()
                for blocks in (2, 3, 4):
                    for gap in (1, 3):
                        report = verify_blocking(model, blocks=blocks, gap=gap)
                        oracle = _blocking_oracle(matrix, blocks, gap)
                        assert report.tv_gap == pytest.approx(oracle, abs=1e-13)
                        expected_bound = (blocks - 1) * beta_coefficient(model, gap)
                        assert report.bound == pytest.approx(expected_bound, abs=1e-13)
                        assert report.slack >= -1e-12

    def test_caps_enforced(self):
        model = self._model(3, 0.3)
        with pytest.raises(ValueError, match="blocks"):
            verify_blocking(model, blocks=5, gap=1)
        with pytest.raises(ValueError, match="gap"):
            verify_blocking(model, blocks=2, gap=9)
        big = MarkovModulatedProcess(
            transition=symmetric_chain(5, 0.3),
            marginals=ConceptPath(np.array([0.5]), 0.1),
        )
        with pytest.raises(ValueError, match="states"):
            verify_blocking(big, blocks=2, gap=1)

    def test_json_fields(self):
        payload = verify_blocking(self._model(), blocks=3, gap=2).to_json()
        for key in ("states", "blocks", "gap", "tv_gap", "bound", "slack"):
            assert key in payload


def _stable_cut_losses(xs, ys):
    """Reference cut scan: stably sorted x and the 0-1 loss of every cut."""
    n = xs.size
    order = np.argsort(xs, kind="stable")
    ones_before = np.concatenate(([0], np.cumsum(ys[order])))
    zeros_from = (n - ones_before[-1]) - (np.arange(n + 1) - ones_before)
    return xs[order], ones_before + zeros_from


def _reference_abs_sum_to(sorted_values, prefix, queries):
    idx = np.searchsorted(sorted_values, queries, side="left")
    total = prefix[-1]
    below = prefix[idx]
    return queries * idx - below + (total - below) - queries * (sorted_values.size - idx)


def _reference_sup_deviation(xs, ys, thetas, eta):
    """The reference sup-deviation kernel: searches x into itself and
    evaluates the averaged risk at every candidate of every trial."""
    sorted_thetas = np.sort(thetas)
    theta_prefix = np.concatenate(([0.0], np.cumsum(sorted_thetas)))
    m = xs.size
    x, losses = _stable_cut_losses(xs, ys)
    emp = losses / m
    scale = 1.0 - 2.0 * eta

    def rbar(queries):
        return eta + scale * _reference_abs_sum_to(sorted_thetas, theta_prefix, queries) / m

    attained = np.concatenate(([0.0, 1.0], x, sorted_thetas))
    att_splits = np.searchsorted(x, attained, side="left")
    best = float(np.max(np.abs(emp[att_splits] - rbar(attained))))
    limits = np.concatenate(([0.0], x))
    limits = limits[limits < 1.0]
    if limits.size:
        lim_splits = np.searchsorted(x, limits, side="right")
        best = max(best, float(np.max(np.abs(emp[lim_splits] - rbar(limits)))))
    return best


def _stable_rows(xs, ys):
    """Rows of x stably sorted, and their labels in that order: tied x keep their labels' draw order."""
    order = np.argsort(xs, axis=-1, kind="stable")
    return np.take_along_axis(xs, order, axis=-1), np.take_along_axis(np.asarray(ys, dtype=np.uint8), order, axis=-1)


def _packed_rows(xs, ys_a, ys_b):
    """Rows sorted once by the key x_bits << 2 | y_a << 1 | y_b, as verify_uniform_deviation sorts two paths."""
    keys = xs.view(np.uint64) << 2 | np.asarray(ys_a, dtype=np.uint64) << 1 | np.asarray(ys_b, dtype=np.uint64)
    keys.sort(axis=-1)
    return (keys >> 2).view(float), ((keys >> 1) & 1).astype(np.uint8), (keys & 1).astype(np.uint8)


def _kernel_rows(xs, ys, averaged):
    """The kernel on rows of unsorted x and their labels."""
    return evaluation._threshold_sup_deviation(*_stable_rows(xs, ys), *averaged)


def _sup_deviation(xs, ys, thetas, eta):
    """The kernel on one sample, as one row of a batch."""
    (value,) = _kernel_rows(xs[None], ys[None], evaluation._averaged_risk(thetas, eta))
    return float(value)


def _case_thetas(rng, m, constant_thetas):
    """A constant theta, or thetas rounded to 1-3 decimals, so that some repeat."""
    return np.full(m, 0.3) if constant_thetas else np.round(rng.random(m), int(rng.integers(1, 4)))


def _tie_heavy_x(rng, thetas):
    """x on a one-decimal grid, with exact 0.0, 1.0 and copies of the thetas mixed in."""
    m = thetas.size
    xs = np.round(rng.random(m), 1)
    pick = rng.random(m)
    xs[pick < 0.15] = 0.0
    xs[(pick >= 0.15) & (pick < 0.3)] = 1.0
    copies = (pick >= 0.3) & (pick < 0.5)
    xs[copies] = thetas[rng.integers(0, m, m)][copies]
    return xs


def _tie_heavy_case(rng, m, eta, constant_thetas):
    thetas = _case_thetas(rng, m, constant_thetas)
    xs = _tie_heavy_x(rng, thetas)
    flips = rng.random(m) < eta
    return xs, ((xs >= thetas) ^ flips).astype(np.int64), thetas


def _mixed_rows(rng, rows, thetas):
    """Rows of x cycling through: tie-heavy; distinct; distinct with one x equal
    to a theta; distinct with an x = 1.0; distinct with an x = 0.0."""
    m = thetas.size
    xs = rng.random((rows, m))
    for r in range(rows):
        kind, j = r % 5, int(rng.integers(0, m))
        if kind == 0:
            xs[r] = _tie_heavy_x(rng, thetas)
        elif kind > 1:
            xs[r, j] = (thetas[int(rng.integers(0, m))], 1.0, 0.0)[kind - 2]
    return xs


def _sup_deviation_oracle(xs, ys, thetas, eta):
    """Direct-counting sup of |empirical loss - averaged risk| over candidates."""
    candidates = np.concatenate(
        [[0.0, 1.0], xs, thetas, np.nextafter(xs, 2.0), [np.nextafter(0.0, 1.0)]]
    )
    candidates = candidates[(candidates >= 0.0) & (candidates <= 1.0)]
    best = 0.0
    for th in candidates:
        emp = float(np.mean(((xs >= th).astype(int) != ys)))
        rbar = eta + (1.0 - 2.0 * eta) * float(np.mean(np.abs(th - thetas)))
        best = max(best, abs(emp - rbar))
    return best


class TestVerifyUniformDeviation:
    def test_exact_supremum_matches_direct_counting(self):
        # drive the internal exact-sup computation through the public API with
        # trials=2 (both trials use fresh draws; we replay them via the same rng)
        rng = np.random.default_rng(91)
        for _ in range(120):
            m = int(rng.integers(1, 45))
            eta = float(rng.choice([0.0, 0.1, 0.25, 0.4]))
            thetas = rng.random(m)
            xs = rng.random(m)
            flips = rng.random(m) < eta
            ys = ((xs >= thetas) ^ flips).astype(np.int64)
            value = _sup_deviation(xs, ys, thetas, eta)
            oracle = _sup_deviation_oracle(xs, ys, thetas, eta)
            assert value == pytest.approx(oracle, abs=1e-12)

    def test_sup_dominates_dense_grid(self):
        rng = np.random.default_rng(92)
        grid = np.linspace(0.0, 1.0, 20_001)
        for _ in range(10):
            m = int(rng.integers(3, 30))
            eta = 0.1
            thetas = rng.random(m)
            xs = rng.random(m)
            ys = rng.integers(0, 2, m).astype(np.int64)
            value = _sup_deviation(xs, ys, thetas, eta)
            for th in grid[::500]:
                e = float(np.mean(((xs >= th).astype(int) != ys)))
                rb = eta + (1.0 - 2.0 * eta) * float(np.mean(np.abs(th - thetas)))
                assert value >= abs(e - rb) - 1e-12

    def test_kernel_equals_reference_bitwise(self):
        rng = np.random.default_rng(93)
        for case in range(3000):
            m = 1 if case % 10 == 0 else int(rng.integers(2, 60))
            eta = (0.0, 0.1, 0.25, 0.49)[case % 4]
            xs, ys, thetas = _tie_heavy_case(rng, m, eta, constant_thetas=case % 3 == 0)
            assert _sup_deviation(xs, ys, thetas, eta) == _reference_sup_deviation(xs, ys, thetas, eta)

    def test_kernel_equals_reference_on_distinct_draws(self):
        rng = np.random.default_rng(94)
        for m in (1, 2, 3, 16, 257):
            for eta in (0.0, 0.1, 0.25, 0.49):
                thetas = rng.random(m)
                xs = rng.random(m)
                ys = ((xs >= thetas) ^ (rng.random(m) < eta)).astype(np.int64)
                assert _sup_deviation(xs, ys, thetas, eta) == _reference_sup_deviation(xs, ys, thetas, eta)

    @pytest.mark.parametrize("rows", [1, 5, 37])
    @pytest.mark.parametrize("constant_thetas", [True, False])
    def test_batched_kernel_equals_reference_row_by_row(self, rows, constant_thetas):
        rng = np.random.default_rng(96 + rows)
        for case in range(60):
            m = 1 if case % 10 == 0 else int(rng.integers(2, 60))
            eta = (0.0, 0.1, 0.25, 0.49)[case % 4]
            thetas = _case_thetas(rng, m, constant_thetas)
            # one row takes each kind of row in turn across cases
            xs = _mixed_rows(rng, rows, thetas) if rows > 1 else _mixed_rows(rng, case % 5 + 1, thetas)[-1:]
            ys = ((xs >= thetas) ^ (rng.random(xs.shape) < eta)).astype(np.int64)
            values = _kernel_rows(xs, ys, evaluation._averaged_risk(thetas, eta))
            assert values.shape == (xs.shape[0],)
            for row, value in enumerate(values):
                assert value == _reference_sup_deviation(xs[row], ys[row], thetas, eta)

    @staticmethod
    def _replayed_estimates(path, grid, trials, seed):
        """Each trial drawn by itself, xs then flips, and scored by the reference kernel."""
        rng = np.random.default_rng(seed)
        estimates = []
        for m in grid:
            thetas = path.thetas[:m]
            total = 0.0
            for _ in range(trials):
                xs = rng.random(m)
                flips = rng.random(m) < path.eta
                total += _reference_sup_deviation(xs, ((xs >= thetas) ^ flips).astype(np.int64), thetas, path.eta)
            estimates.append(total / trials)
        return tuple(estimates)

    @pytest.mark.parametrize("constant_thetas", [True, False])
    def test_threshold_estimates_equal_per_trial_replay(self, constant_thetas, monkeypatch):
        monkeypatch.setattr(evaluation, "SUP_DEVIATION_BATCH_ELEMENTS", 64)
        path = ConceptPath(_case_thetas(np.random.default_rng(97), 200, constant_thetas), 0.25)
        # 64 // m rows per call: 64, 12 (two full batches and a part), 4, 1, 1 and 1
        grid, trials = [1, 5, 16, 63, 64, 200], 30
        (report,) = verify_uniform_deviation([path], grid, trials=trials, seed=5)
        assert report.estimates == self._replayed_estimates(path, grid, trials, 5)

    def test_threshold_estimates_equal_per_trial_replay_at_the_budget(self):
        budget = evaluation.SUP_DEVIATION_BATCH_ELEMENTS
        path = ConceptPath(_case_thetas(np.random.default_rng(98), budget, False), 0.1)
        grid, trials = [budget // 4, budget // 2 + 1, budget], 5  # 4 rows (a batch and a part), 1 row, 1 row
        (report,) = verify_uniform_deviation([path], grid, trials=trials, seed=6)
        assert report.estimates == self._replayed_estimates(path, grid, trials, 6)

    @pytest.mark.parametrize("constant_thetas", [True, False])
    def test_two_paths_share_draws_and_equal_per_trial_replay(self, constant_thetas, monkeypatch):
        monkeypatch.setattr(evaluation, "SUP_DEVIATION_BATCH_ELEMENTS", 64)
        calls = []
        kernel = evaluation._threshold_sup_deviation

        def counted(x, labels, *averaged):
            calls.append(x.shape)
            assert labels.dtype == np.uint8
            return kernel(x, labels, *averaged)

        monkeypatch.setattr(evaluation, "_threshold_sup_deviation", counted)
        rng = np.random.default_rng(104)
        paths = (
            ConceptPath(_case_thetas(rng, 200, constant_thetas), 0.1),
            ConceptPath(_case_thetas(rng, 230, not constant_thetas), 0.25),
        )
        # 64 // m rows per call: 64, 12 (two full batches and a part), 4, 1, 1 and 1
        grid, trials = [1, 5, 16, 63, 64, 200], 30
        reports = verify_uniform_deviation(paths, grid, trials=trials, seed=7)
        assert len(reports) == 2
        for path, report in zip(paths, reports):
            assert report.estimates == self._replayed_estimates(path, grid, trials, 7)
        # one kernel call a path a batch: 1 + 3 + 8 + 30 + 30 + 30 batches
        assert len(calls) == 2 * 102
        assert calls[:6] == [(30, 1), (30, 1), (12, 5), (12, 5), (12, 5), (12, 5)]
        # each report is the one a call with its path alone returns
        singles = tuple(verify_uniform_deviation([path], grid, trials=trials, seed=7)[0] for path in paths)
        assert reports == singles

    @pytest.mark.parametrize("rows", [1, 5, 37])
    def test_two_label_sets_sorted_in_one_key_equal_reference(self, rows):
        rng = np.random.default_rng(105 + rows)
        for case in range(40):
            m = 1 if case % 10 == 0 else int(rng.integers(2, 60))
            thetas_a, thetas_b = _case_thetas(rng, m, True), _case_thetas(rng, m, False)
            xs = _mixed_rows(rng, rows, thetas_b) if rows > 1 else _mixed_rows(rng, case % 5 + 1, thetas_b)[-1:]
            if case % 3 == 1:
                xs = np.round(xs, 1)  # ties across the whole row
            xs[:, -1] = np.where(rng.random(xs.shape[0]) < 0.5, 1.0, xs[:, -1])
            flips = rng.random(xs.shape)
            ys_a, ys_b = (xs >= thetas_a) ^ (flips < 0.1), (xs >= thetas_b) ^ (flips < 0.25)
            x, labels_a, labels_b = _packed_rows(xs, ys_a, ys_b)
            for thetas, eta, ys, labels in ((thetas_a, 0.1, ys_a, labels_a), (thetas_b, 0.25, ys_b, labels_b)):
                values = evaluation._threshold_sup_deviation(x, labels, *evaluation._averaged_risk(thetas, eta))
                assert values.shape == (xs.shape[0],)
                for row, value in enumerate(values):
                    assert value == _reference_sup_deviation(xs[row], ys[row].astype(np.int64), thetas, eta)

    def test_rejects_more_than_two_paths_and_a_short_path(self):
        path, short = ConceptPath(np.full(16, 0.3), 0.1), ConceptPath(np.full(8, 0.3), 0.1)
        with pytest.raises(ValueError, match="one or two marginal paths, got 3"):
            verify_uniform_deviation([path, path, path], [4, 16], trials=2, seed=0)
        with pytest.raises(ValueError, match="one or two marginal paths, got 0"):
            verify_uniform_deviation([], [4, 16], trials=2, seed=0)
        with pytest.raises(ValueError, match="marginal path length 8 < max m 16"):
            verify_uniform_deviation([path, short], [4, 16], trials=2, seed=0)

    @staticmethod
    def _assert_rows_equal_reference(xs, ys, thetas, eta, averaged=None):
        averaged = averaged or evaluation._averaged_risk(thetas, eta)
        values = _kernel_rows(xs, ys, averaged)
        assert values.shape == (xs.shape[0],)
        for row, value in enumerate(values):
            assert value == _reference_sup_deviation(xs[row], ys[row], thetas, eta)

    @staticmethod
    def _verify_path(setting, horizon=16384, eta=0.1):
        """A marginal path of verify --kind uniform_deviation: every theta 0.35, or gamma = 0.01 drift from 0.2."""
        if setting == "identical":
            return ConceptPath(np.full(horizon, 0.35), eta)
        return concept_path(make_drift_schedule("constant", alpha=0.0, horizon=horizon, gamma=0.01), eta=eta, theta0=0.2)

    def test_bucket_table_ranks_every_edge(self):
        rng = np.random.default_rng(99)
        for thetas in (np.full(5, 0.35), np.array([0.0, 0.5, 1.0]), np.round(rng.random(300), 2), rng.random(1000)):
            distinct = np.unique(thetas)
            *_, starts, flagged = evaluation._averaged_risk(thetas, 0.1)
            buckets = starts.size - 1
            # B is the least power of two >= 4 D
            assert buckets & (buckets - 1) == 0 and buckets // 2 < 4 * distinct.size <= buckets
            assert starts.dtype == np.int32
            assert np.array_equal(starts, np.searchsorted(distinct, np.arange(buckets + 1) / buckets))
            holds = np.zeros(buckets + 1, dtype=bool)
            holds[np.floor(distinct * buckets).astype(int)] = True
            holds[buckets] = True
            assert np.array_equal(flagged, holds)

    @pytest.mark.parametrize("d", [1, 2, 3, 16, 100])
    def test_thetas_and_x_on_bucket_edges_equal_reference(self, d):
        rng = np.random.default_rng(100 + d)
        buckets = 1 << (4 * d - 1).bit_length()
        m = 2 * buckets if d < 16 else buckets // 2
        # d distinct thetas on edges b/B, with 0 and 1 among them from d = 2 on
        edges = rng.choice(np.arange(1, buckets), d, replace=False)
        if d >= 2:
            edges[:2] = 0, buckets
        distinct = edges / buckets
        thetas = rng.permutation(np.concatenate((distinct, rng.choice(distinct, m - d))))
        on_edges = rng.integers(0, buckets + 1, (6, m)) / buckets
        near = np.nextafter(on_edges, np.where(rng.random((6, m)) < 0.5, 0.0, 1.0))  # either side of an edge
        rows = np.concatenate((on_edges, near, np.where(rng.random((6, m)) < 0.5, on_edges, near)))
        rows[::4, 0], rows[1::4, -1] = 0.0, 1.0
        if d >= 16:  # distinct x on the edges that hold no kink, which no search sees, and on any edges
            free = np.setdiff1d(np.arange(buckets), edges)
            rows[0], rows[1] = rng.choice(free, m, replace=False) / buckets, rng.permutation(buckets + 1)[:m] / buckets
        for eta in (0.0, 0.25):
            ys = ((rows >= thetas) ^ (rng.random(rows.shape) < eta)).astype(np.int64)
            averaged = evaluation._averaged_risk(thetas, eta)
            assert averaged[3].size == buckets + 1
            self._assert_rows_equal_reference(rows, ys, thetas, eta, averaged)

    def test_small_samples_on_bucket_edges_equal_reference(self):
        rng = np.random.default_rng(103)
        for case in range(600):
            m = int(rng.integers(2, 25))
            d = int(rng.integers(1, m + 1))
            buckets = 1 << (4 * d - 1).bit_length()
            distinct = rng.choice(buckets + 1, d, replace=False) / buckets
            thetas = np.concatenate((distinct, rng.choice(distinct, m - d)))
            # distinct x on edges when there are enough of them, a few moved just off their edge
            xs = rng.choice(buckets + 1, m, replace=buckets + 1 < m) / buckets
            off = rng.random(m) < 0.2
            xs[off] = np.nextafter(xs[off], np.where(rng.random(off.sum()) < 0.5, 0.0, 1.0))
            eta = (0.0, 0.1, 0.25, 0.49)[case % 4]
            ys = ((xs >= thetas) ^ (rng.random(m) < eta)).astype(np.int64)
            assert _sup_deviation(xs, ys, thetas, eta) == _reference_sup_deviation(xs, ys, thetas, eta)

    @pytest.mark.parametrize("m", [1024, 4096])
    def test_spread_thetas_flag_a_fifth_of_the_buckets(self, m):
        rng = np.random.default_rng(m)
        thetas = rng.random(m)
        averaged = evaluation._averaged_risk(thetas, 0.1)
        # 1 - exp(-1/4) = 0.22 of the 4m buckets hold one of the m thetas
        assert 0.18 < averaged[4].mean() < 0.26
        xs = rng.random((evaluation.SUP_DEVIATION_BATCH_ELEMENTS // m, m))
        xs[0, :4] = thetas[:4]  # a row touching kinks takes the tied path
        ys = (xs >= thetas) ^ (rng.random(xs.shape) < 0.1)
        self._assert_rows_equal_reference(xs, ys, thetas, 0.1, averaged)

    @pytest.mark.parametrize("setting", ["identical", "drifting"])
    def test_verify_paths_equal_reference(self, setting):
        path = self._verify_path(setting)
        rng = np.random.default_rng(102)
        # three single-row calls at the largest default size and one batched call, drawn as verify draws them
        for m, rows in ((16384, 1), (16384, 1), (16384, 1), (1024, 8)):
            thetas = path.thetas[:m]
            draws = rng.random((rows, 2, m))
            xs = draws[:, 0]
            self._assert_rows_equal_reference(xs, (xs >= thetas) ^ (draws[:, 1] < path.eta), thetas, path.eta)

    def test_peak_traced_memory_of_the_tables_at_the_largest_size(self):
        thetas = self._verify_path("drifting").thetas  # 16,266 distinct thetas: 65,536 buckets
        evaluation._averaged_risk(thetas, 0.1)  # warm numpy's lazy set-up outside the trace
        tracemalloc.start()
        try:
            averaged = evaluation._averaged_risk(thetas, 0.1)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert averaged[3].size == 65537
        # 1,110,355 bytes kept and a 2,023,019-byte peak here (Python 3.11.7, numpy 2.4.6), against 522,715 and
        # 1,632,219 for the search-per-point kernel's tables; an int64 start table would add 262,144 to both
        assert kept <= 1_120_000
        assert peak <= 2_040_000

    def test_cut_losses_match_stable_sort_at_tie_group_boundaries(self):
        rng = np.random.default_rng(95)
        for case in range(500):
            m = 1 if case % 10 == 0 else int(rng.integers(2, 60))
            xs, ys, _ = _tie_heavy_case(rng, m, 0.25, constant_thetas=False)
            x, losses = cut_losses(xs, ys)
            ref_x, ref_losses = _stable_cut_losses(xs, ys)
            assert np.array_equal(x, ref_x)
            boundaries = np.concatenate(([0], np.flatnonzero(x[1:] != x[:-1]) + 1, [m]))
            assert np.array_equal(losses[boundaries], ref_losses[boundaries])

    def test_identical_concepts_slope_near_half(self):
        path = ConceptPath(np.full(4096, 0.3), 0.1)
        (report,) = verify_uniform_deviation([path], m_grid=[16, 64, 256, 1024, 4096], trials=200, seed=0)
        assert report.fitted_exponent == pytest.approx(-0.5, abs=0.15)
        assert report.envelope_constant <= 3.0

    def test_insufficient_trials(self):
        path = ConceptPath(np.full(16, 0.3), 0.1)
        with pytest.raises(ValueError, match="insufficient trials"):
            verify_uniform_deviation([path], [4, 16], trials=1, seed=0)

    def test_grid_validation(self):
        path = ConceptPath(np.full(16, 0.3), 0.1)
        with pytest.raises(ValueError, match="increasing"):
            verify_uniform_deviation([path], [16, 16], trials=2, seed=0)
        with pytest.raises(ValueError, match="path length"):
            verify_uniform_deviation([path], [4, 32], trials=2, seed=0)
        with pytest.raises(ValueError, match="integer"):
            verify_uniform_deviation([path], [4.5, 16], trials=2, seed=0)

    def test_rejects_bool_and_fractional_trials_and_sizes(self):
        path = ConceptPath(np.full(16, 0.3), 0.1)
        for trials in (2.5, True, 3.0):
            with pytest.raises(ValueError, match="trials must be an integer"):
                verify_uniform_deviation([path], [4, 16], trials=trials, seed=0)
        with pytest.raises(ValueError, match=r"every m must be an integer, got \[True, 16\]"):
            verify_uniform_deviation([path], [True, 16], trials=2, seed=0)

    def test_numpy_integer_trials_stored_as_int(self):
        path = ConceptPath(np.full(16, 0.3), 0.1)
        (report,) = verify_uniform_deviation([path], [4, 16], trials=np.int64(3), seed=0)
        assert type(report.trials) is int and report.trials == 3
        assert json.loads(json.dumps(report.to_json()))["trials"] == 3

    def test_finite_marginals_rejected(self):
        # the check scores thresholds, so a path must be a ConceptPath of threshold concepts
        support = (Observation(0.2, 0), Observation(0.7, 1))
        marginals = [FiniteSupport(support=support, probs=(0.5, 0.5))] * 8
        path = ConceptPath(np.full(8, 0.3), 0.1)
        for paths in ([marginals], [path, marginals]):
            with pytest.raises(ValueError, match="require ThresholdConcept marginal paths"):
                verify_uniform_deviation(paths, [2, 8], trials=4, seed=0)

    def test_report_ratios_and_json(self):
        path = ConceptPath(np.full(64, 0.3), 0.1)
        (report,) = verify_uniform_deviation([path], [16, 64], trials=20, seed=1)
        assert report.ratios() == pytest.approx(
            np.asarray(report.estimates) / np.sqrt(1.0 / np.array([16.0, 64.0]))
        )
        payload = report.to_json()
        for key in ("d", "m_grid", "trials", "estimates", "fitted_exponent", "envelope_constant"):
            assert key in payload
