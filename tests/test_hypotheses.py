"""Hypothesis classes, ERM, exact risks, and their independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import (
    FiniteExplicitClass,
    FiniteHypothesis,
    FiniteSupport,
    Observation,
    ThresholdClass,
    ThresholdConcept,
    ThresholdHypothesis,
    erm,
    inf_risk,
    loss,
    risk,
    threshold_erm,
)
from driftlab.hypotheses import finite_erm_indices, threshold_erm_rows


def _count_errors(theta: float, xs: np.ndarray, ys: np.ndarray) -> int:
    """Direct counting oracle for the empirical 0-1 loss of 1[x >= theta]."""
    return int(np.sum(((xs >= theta).astype(int) != ys)))


def _erm_candidates(xs: np.ndarray) -> list[float]:
    """All realizable split locations: 0, midpoints of distinct neighbors, 1."""
    x = np.sort(xs)
    candidates = [0.0]
    for a, b in zip(x[:-1], x[1:]):
        if a < b:
            candidates.append(0.5 * (a + b))
    if x[-1] < 1.0:
        candidates.append(1.0)
    return candidates


def _erm_oracle(xs: np.ndarray, ys: np.ndarray) -> tuple[float, int]:
    """Smallest-theta empirical minimizer by brute-force counting."""
    best_theta, best_loss = None, None
    for theta in sorted(_erm_candidates(xs)):
        errs = _count_errors(theta, xs, ys)
        if best_loss is None or errs < best_loss:
            best_theta, best_loss = theta, errs
    return best_theta, best_loss


class TestThresholdHypothesis:
    def test_predict_is_indicator_of_x_at_least_theta(self):
        h = ThresholdHypothesis(0.5)
        assert h.predict(0.5) == 1
        assert h.predict(0.4999) == 0
        assert ThresholdHypothesis(0.0).predict(0.0) == 1

    def test_loss_zero_one(self):
        h = ThresholdHypothesis(0.3)
        assert loss(h, Observation(0.5, 1)) == 0.0
        assert loss(h, Observation(0.5, 0)) == 1.0
        assert loss(h, Observation(0.1, 0)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdHypothesis(1.5)


class TestThresholdErm:
    def test_worked_example(self):
        theta, errs = threshold_erm(np.array([0.2, 0.8]), np.array([1, 0]))
        assert theta == 0.0
        assert errs == 1

    def test_matches_brute_force_oracle_random(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            xs = rng.random(n)
            ys = rng.integers(0, 2, n).astype(np.int64)
            theta, errs = threshold_erm(xs, ys)
            o_theta, o_errs = _erm_oracle(xs, ys)
            assert errs == o_errs
            assert theta == o_theta

    def test_no_grid_point_beats_erm(self):
        rng = np.random.default_rng(32)
        grid = np.linspace(0.0, 1.0, 2001)
        for _ in range(40):
            n = int(rng.integers(2, 60))
            xs = rng.random(n)
            ys = rng.integers(0, 2, n).astype(np.int64)
            _, errs = threshold_erm(xs, ys)
            grid_losses = [(g, _count_errors(g, xs, ys)) for g in grid]
            assert errs <= min(v for _, v in grid_losses)

    def test_tie_break_smallest_theta(self):
        # labels [0, 1]: both theta=0 (predict all 1) and the midpoint split
        # make 1 error? No: midpoint split achieves 0 errors. Use a genuine tie.
        xs = np.array([0.4])
        ys = np.array([1])
        theta, errs = threshold_erm(xs, ys)
        # theta = 0 and any theta <= 0.4 give 0 errors: smallest wins
        assert theta == 0.0 and errs == 0

        xs = np.array([0.3, 0.6])
        ys = np.array([0, 1])
        theta, errs = threshold_erm(xs, ys)
        assert errs == 0
        assert theta == pytest.approx(0.45)

    def test_tie_break_on_equal_losses_everywhere(self):
        # alternating labels make several splits tie; oracle returns the first
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            xs = np.round(rng.random(n), 1)  # force ties in x too
            ys = rng.integers(0, 2, n).astype(np.int64)
            theta, errs = threshold_erm(xs, ys)
            o_theta, o_errs = _erm_oracle(xs, ys)
            assert (theta, errs) == (o_theta, o_errs)

    def test_order_invariance(self):
        rng = np.random.default_rng(34)
        xs = rng.random(25)
        ys = rng.integers(0, 2, 25).astype(np.int64)
        base = threshold_erm(xs, ys)
        for _ in range(10):
            perm = rng.permutation(25)
            assert threshold_erm(xs[perm], ys[perm]) == base

    def test_all_ones_and_all_zeros(self):
        xs = np.array([0.2, 0.5, 0.9])
        assert threshold_erm(xs, np.ones(3, dtype=np.int64)) == (0.0, 0)
        theta, errs = threshold_erm(xs, np.zeros(3, dtype=np.int64))
        assert errs == 0 and theta == 1.0

    def test_x_equal_one_cannot_be_predicted_zero(self):
        # theta = 1 still predicts 1 at x = 1, so one error is unavoidable
        theta, errs = threshold_erm(np.array([1.0]), np.array([0]))
        assert errs == 1

    def test_erm_wrapper_matches(self):
        rng = np.random.default_rng(35)
        xs = rng.random(15)
        ys = rng.integers(0, 2, 15).astype(np.int64)
        points = [Observation(float(x), int(y)) for x, y in zip(xs, ys)]
        h = erm(ThresholdClass(), points)
        assert isinstance(h, ThresholdHypothesis)
        assert h.theta == threshold_erm(xs, ys)[0]

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            threshold_erm(np.array([]), np.array([]))


# x on a grid of eighths: frequent ties, both ends 0.0 and 1.0, and exact midpoints
GRID_X = st.integers(0, 8).map(lambda i: i / 8)
ANY_X = st.floats(0.0, 1.0)


@st.composite
def _row_batch(draw, x_values):
    """(rows, n) x and label arrays; a row's labels are random, all 1 or all 0."""
    rows, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    xs = np.array([[draw(x_values) for _ in range(n)] for _ in range(rows)], dtype=float)
    ys = np.empty((rows, n), dtype=np.int64)
    for row in ys:
        mode = draw(st.sampled_from(("random", "ones", "zeros")))
        row[:] = [draw(st.integers(0, 1)) for _ in range(n)] if mode == "random" else int(mode == "ones")
    return xs, ys


class TestThresholdErmRows:
    @settings(max_examples=300, deadline=None)
    @given(_row_batch(ANY_X))
    def test_matches_threshold_erm_row_by_row(self, batch):
        xs, ys = batch
        thetas = threshold_erm_rows(xs, ys)
        assert thetas.shape == (xs.shape[0],)
        for row_x, row_y, theta in zip(xs, ys, thetas):
            assert theta == threshold_erm(row_x, row_y)[0]

    @settings(max_examples=300, deadline=None)
    @given(_row_batch(GRID_X))
    def test_matches_brute_force_on_tied_grid(self, batch):
        xs, ys = batch
        for row_x, row_y, theta in zip(xs, ys, threshold_erm_rows(xs, ys)):
            assert theta == threshold_erm(row_x, row_y)[0] == _erm_oracle(row_x, row_y)[0]

    def test_single_point_rows_at_both_ends(self):
        xs = np.array([[0.0], [0.0], [1.0], [1.0], [0.5], [0.5]])
        ys = np.array([[0], [1], [0], [1], [0], [1]])
        # a lone x = 1 labelled 0 cannot be cut below it: theta 1 still predicts 1
        expected = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]
        assert threshold_erm_rows(xs, ys).tolist() == expected
        for row_x, row_y, theta in zip(xs, ys, expected):
            assert threshold_erm(row_x, row_y)[0] == _erm_oracle(row_x, row_y)[0] == theta

    def test_duplicates_with_mixed_labels(self):
        # the tie at 0.5 holds both labels, so no cut may split it
        xs = np.array([[0.5, 0.5, 0.5, 0.25, 0.75], [0.5, 0.5, 0.5, 0.5, 0.5]])
        ys = np.array([[1, 0, 1, 0, 1], [0, 1, 0, 1, 1]])
        thetas = threshold_erm_rows(xs, ys)
        assert thetas.tolist() == [0.375, 0.0]
        for row_x, row_y, theta in zip(xs, ys, thetas):
            assert theta == threshold_erm(row_x, row_y)[0]

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            threshold_erm_rows(np.empty((2, 0)), np.empty((2, 0), dtype=np.int64))


def _small_finite_class(rng) -> FiniteExplicitClass:
    xs = np.sort(rng.random(5))
    support = tuple(
        Observation(float(x), int(y)) for x, y in zip(xs, rng.integers(0, 2, 5))
    )
    tables = tuple(tuple(float(v) for v in rng.random(5)) for _ in range(6))
    return FiniteExplicitClass(support=support, tables=tables, d=2)


class TestFiniteClass:
    def test_validation(self):
        sup = (Observation(0.1, 0), Observation(0.9, 1))
        FiniteExplicitClass(support=sup, tables=((0.0, 1.0),), d=1)
        with pytest.raises(ValueError):
            FiniteExplicitClass(support=sup, tables=((0.0, 1.5),), d=1)
        with pytest.raises(ValueError):
            FiniteExplicitClass(support=sup, tables=((0.0, 1.0),), d=0)
        with pytest.raises(ValueError):
            # 2 hypotheses allow d at most max(1, ceil(log2 2)) = 1
            FiniteExplicitClass(support=sup, tables=((0.0, 1.0), (1.0, 0.0)), d=2)
        with pytest.raises(ValueError):
            FiniteExplicitClass(support=sup, tables=(), d=1)

    def test_d_cap_grows_with_class_size(self):
        sup = (Observation(0.1, 0), Observation(0.9, 1))
        tables = tuple((float(i & 1), float(i >> 1 & 1)) for i in range(4))
        FiniteExplicitClass(support=sup, tables=tables, d=2)  # log2(4) = 2 allowed

    def test_erm_enumeration_oracle(self):
        rng = np.random.default_rng(41)
        fclass = _small_finite_class(rng)
        for _ in range(100):
            idx = rng.integers(0, 5, size=int(rng.integers(1, 20)))
            points = [fclass.support[i] for i in idx]
            h = erm(fclass, points)
            assert isinstance(h, FiniteHypothesis)
            table = fclass.table_array()
            totals = table[:, idx].sum(axis=1)
            best = np.flatnonzero(totals == totals.min())[0]
            assert h.index == best
            assert totals[h.index] == pytest.approx(totals.min(), abs=1e-12)

    def test_erm_multiset_order_invariance(self):
        rng = np.random.default_rng(42)
        fclass = _small_finite_class(rng)
        idx = rng.integers(0, 5, size=30)
        base = finite_erm_indices(fclass, idx.copy())
        for _ in range(10):
            assert finite_erm_indices(fclass, rng.permutation(idx)) == base

    def test_support_index_unknown_point(self):
        rng = np.random.default_rng(43)
        fclass = _small_finite_class(rng)
        with pytest.raises(ValueError, match="support"):
            fclass.support_index(Observation(0.123456, 1))

    def test_loss_reads_the_table_entry(self):
        rng = np.random.default_rng(44)
        fclass = _small_finite_class(rng)
        table = fclass.table_array()
        for i in range(len(fclass)):
            h = FiniteHypothesis(function_class=fclass, index=i)
            assert [loss(h, z) for z in fclass.support] == table[i].tolist()
        with pytest.raises(ValueError, match="support"):
            loss(FiniteHypothesis(function_class=fclass, index=0), Observation(0.123456, 1))


class TestRisk:
    def test_closed_form_example(self):
        h = ThresholdHypothesis(0.3)
        c = ThresholdConcept(0.6, 0.1)
        assert risk(h, c) == pytest.approx(0.34, abs=1e-12)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(51)
        h = ThresholdHypothesis(0.3)
        c = ThresholdConcept(0.6, 0.1)
        n = 1_000_000
        xs = rng.random(n)
        labels_clean = (xs >= c.theta).astype(int)
        flips = rng.random(n) < c.eta
        ys = labels_clean ^ flips
        preds = (xs >= h.theta).astype(int)
        emp = float(np.mean(preds != ys))
        se = np.sqrt(0.34 * 0.66 / n)
        assert abs(emp - risk(h, c)) <= 3.0 * se

    def test_quadrature_oracle_random(self):
        rng = np.random.default_rng(52)
        cells = 100_000
        x = (np.arange(cells) + 0.5) / cells
        for _ in range(25):
            h = ThresholdHypothesis(float(rng.random()))
            c = ThresholdConcept(float(rng.random()), float(rng.uniform(0, 0.49)))
            p1 = c.eta + (1.0 - 2.0 * c.eta) * (x >= c.theta)
            pred = (x >= h.theta).astype(float)
            integrand = pred * (1.0 - p1) + (1.0 - pred) * p1
            assert risk(h, c) == pytest.approx(float(integrand.mean()), abs=1e-3)

    def test_lipschitz_in_theta(self):
        c = ThresholdConcept(0.5, 0.2)
        h1 = ThresholdHypothesis(0.31)
        h2 = ThresholdHypothesis(0.47)
        assert abs(risk(h1, c) - risk(h2, c)) == pytest.approx(
            (1 - 2 * c.eta) * abs(h1.theta - h2.theta), abs=1e-12
        )

    def test_inf_risk_threshold_is_noise_level(self):
        assert inf_risk(ThresholdClass(), ThresholdConcept(0.37, 0.12)) == pytest.approx(0.12)

    def test_finite_risk_and_inf_risk_oracle(self):
        rng = np.random.default_rng(53)
        fclass = _small_finite_class(rng)
        probs = rng.dirichlet(np.ones(5))
        marginal = FiniteSupport(support=fclass.support, probs=tuple(probs))
        table = fclass.table_array()
        expected = table @ probs
        for i in range(len(fclass)):
            h = FiniteHypothesis(function_class=fclass, index=i)
            assert risk(h, marginal) == pytest.approx(float(expected[i]), abs=1e-12)
        assert inf_risk(fclass, marginal) == pytest.approx(float(expected.min()), abs=1e-12)

    def test_initial_hypotheses(self):
        h = ThresholdHypothesis(0.0)
        assert isinstance(h, ThresholdHypothesis) and h.theta == 0.0
