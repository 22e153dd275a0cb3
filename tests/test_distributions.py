"""Marginals, drift schedules, concept paths, TV distance, and discrepancy."""

import math

import numpy as np
import pytest

from driftlab import (
    ConceptPath,
    DriftSchedule,
    FiniteSupport,
    MarkovModulatedProcess,
    Observation,
    ThresholdClass,
    ThresholdConcept,
    concept_path,
    discrepancy,
    make_drift_schedule,
    tv_distance,
)
from driftlab.distributions import SCHEDULE_KINDS
from driftlab.hypotheses import FiniteExplicitClass


def _tv_riemann(p: ThresholdConcept, q: ThresholdConcept, cells: int = 200_000) -> float:
    """Midpoint-rule integral of |P_p(y=1|x) - P_q(y=1|x)| over x in [0,1]."""
    x = (np.arange(cells) + 0.5) / cells
    p1 = p.eta + (1.0 - 2.0 * p.eta) * (x >= p.theta)
    q1 = q.eta + (1.0 - 2.0 * q.eta) * (x >= q.theta)
    return float(np.mean(np.abs(p1 - q1)))


def _threshold_risk_curve(concept: ThresholdConcept, thetas: np.ndarray) -> np.ndarray:
    return concept.eta + (1.0 - 2.0 * concept.eta) * np.abs(thetas - concept.theta)


class TestThresholdConcept:
    def test_label_probability(self):
        c = ThresholdConcept(theta=0.6, eta=0.1)
        assert c.label_probability(0.59) == pytest.approx(0.1)
        assert c.label_probability(0.6) == pytest.approx(0.9)
        assert c.label_probability(1.0) == pytest.approx(0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdConcept(theta=1.2, eta=0.1)
        with pytest.raises(ValueError):
            ThresholdConcept(theta=0.5, eta=0.5)
        with pytest.raises(ValueError):
            ThresholdConcept(theta=0.5, eta=-0.01)


class TestFiniteSupport:
    def test_validation(self):
        sup = (Observation(0.1, 0), Observation(0.7, 1))
        FiniteSupport(support=sup, probs=(0.25, 0.75))
        with pytest.raises(ValueError):
            FiniteSupport(support=sup, probs=(0.5, 0.6))
        with pytest.raises(ValueError):
            FiniteSupport(support=sup, probs=(0.5,))
        with pytest.raises(ValueError):
            FiniteSupport(support=(sup[0], sup[0]), probs=(0.5, 0.5))

    def test_tv_half_l1(self):
        sup = (Observation(0.1, 0), Observation(0.4, 1), Observation(0.9, 1))
        p = FiniteSupport(support=sup, probs=(0.2, 0.3, 0.5))
        q = FiniteSupport(support=sup, probs=(0.5, 0.3, 0.2))
        assert tv_distance(p, q) == pytest.approx(0.3, abs=1e-15)
        assert tv_distance(p, p) == 0.0

    def test_tv_random_matches_half_l1_oracle(self):
        rng = np.random.default_rng(7)
        sup = tuple(Observation(float(x), int(y)) for x, y in
                    zip(rng.random(6), rng.integers(0, 2, 6)))
        for _ in range(50):
            a = rng.dirichlet(np.ones(6))
            b = rng.dirichlet(np.ones(6))
            p = FiniteSupport(support=sup, probs=tuple(a / a.sum()))
            q = FiniteSupport(support=sup, probs=tuple(b / b.sum()))
            oracle = 0.5 * sum(abs(float(ai) - float(bi)) for ai, bi in zip(p.probs, q.probs))
            assert tv_distance(p, q) == pytest.approx(oracle, abs=1e-15)

    def test_mixed_families_rejected(self):
        p = ThresholdConcept(0.3, 0.1)
        q = FiniteSupport(support=(Observation(0.1, 0),), probs=(1.0,))
        with pytest.raises(ValueError):
            tv_distance(p, q)


class TestDriftSchedule:
    def test_power_step_example(self):
        sched = make_drift_schedule("power_step", alpha=0.0, horizon=4)
        assert sched.deltas == pytest.approx((0.0, 0.5, 1.0 / 3.0, 0.25))

    def test_power_step_general_form(self):
        sched = make_drift_schedule("power_step", alpha=0.25, horizon=200, c0=0.7)
        for t in range(2, 201):
            assert sched.deltas[t - 1] == pytest.approx(min(1.0, 0.7 * t ** (0.25 - 1.0)))
        assert sched.deltas[0] == 0.0

    def test_cumulative_budget_bound_sqrt(self):
        # alpha = 1/2: sum_{t<=T} t^(alpha-1) <= 2*sqrt(T) for every T
        sched = make_drift_schedule("power_step", alpha=0.5, horizon=5000)
        prefix = sched.prefix_sums()
        ts = np.arange(1, 5001)
        assert np.all(prefix[1:] <= 2.0 * np.sqrt(ts))
        assert sched.growth_constant <= 2.0

    def test_growth_constant_is_tight_envelope(self):
        for alpha in (0.0, 0.3, 0.7):
            sched = make_drift_schedule("power_step", alpha=alpha, horizon=800)
            prefix = sched.prefix_sums()[1:]
            ts = np.arange(1, 801, dtype=float)
            envelope = sched.growth_constant * ts**alpha
            assert np.all(prefix <= envelope + 1e-12)
            # the constant is the max ratio, so it is attained somewhere
            assert np.isclose(np.max(prefix / ts**alpha), sched.growth_constant)

    def test_constant_schedule(self):
        sched = make_drift_schedule("constant", alpha=0.0, horizon=10, gamma=0.05)
        assert sched.deltas[0] == 0.0
        assert all(d == 0.05 for d in sched.deltas[1:])

    def test_prefix_sums_are_one_read_only_array(self):
        sched = make_drift_schedule("power_step", alpha=0.25, horizon=50)
        prefix = sched.prefix_sums()
        assert sched.prefix_sums() is prefix
        assert not prefix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            prefix[1] = 0.0
        expected = np.zeros(51)
        np.cumsum(sched.deltas, out=expected[1:])
        assert np.array_equal(prefix, expected)

    def test_prefix_sums_start_at_zero(self):
        sched = make_drift_schedule("constant", alpha=0.0, horizon=5, gamma=0.1)
        prefix = sched.prefix_sums()
        assert prefix[0] == 0.0
        assert prefix[-1] == pytest.approx(0.4)
        assert len(prefix) == 6

    def test_triangle_wave_magnitudes_and_directions(self):
        tri = make_drift_schedule("triangle_wave", alpha=0.3, horizon=300, seed=2)
        pow_ = make_drift_schedule("power_step", alpha=0.3, horizon=300)
        assert np.array_equal(tri.deltas, pow_.deltas)
        assert pow_.directions is None
        assert tri.directions.dtype == np.int64 and tri.directions.shape == (300,)
        assert set(tri.directions.tolist()) <= {-1, 1}

    def test_triangle_wave_deterministic_and_seed_dependent(self):
        a = make_drift_schedule("triangle_wave", alpha=0.0, horizon=50, seed=3)
        b = make_drift_schedule("triangle_wave", alpha=0.0, horizon=50, seed=3)
        assert np.array_equal(a.deltas, b.deltas)
        assert np.array_equal(a.directions, b.directions)
        assert a.growth_constant == b.growth_constant
        starts = {
            int(make_drift_schedule("triangle_wave", alpha=0.0, horizon=50, seed=s).directions[0])
            for s in range(8)
        }
        assert starts == {-1, 1}

    def test_triangle_wave_budget_position_stays_inside(self):
        tri = make_drift_schedule("triangle_wave", alpha=0.0, horizon=400, seed=0)
        position = 0.5
        for i in range(1, 400):
            position += tri.directions[i] * tri.deltas[i]
            assert -1e-12 <= position <= 1.0 + 1e-12

    @staticmethod
    def _generator_built(kind, alpha, horizon, gamma=None, c0=1.0, seed=0):
        """Schedule arrays built step by step from the documented rules."""
        if kind == "constant":
            deltas = np.full(horizon, float(gamma))
        else:
            deltas = np.minimum(1.0, c0 * np.arange(1, horizon + 1, dtype=float) ** (alpha - 1.0))
        deltas[0] = 0.0
        directions = None
        if kind == "triangle_wave":
            direction = 1 if np.random.default_rng(seed).integers(0, 2) == 0 else -1
            directions, position = np.empty(horizon, dtype=np.int64), 0.5
            directions[0] = direction
            for i in range(1, horizon):
                if not 0.0 <= position + direction * deltas[i] <= 1.0:
                    direction = -direction
                position = min(1.0, max(0.0, position + direction * deltas[i]))
                directions[i] = direction
        return deltas, directions

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_arrays_hold_the_reference_values(self, kind):
        params = dict(alpha=0.3, horizon=700, gamma=0.01, c0=0.8, seed=3)
        sched = make_drift_schedule(kind, **params)
        deltas, directions = self._generator_built(kind, **params)
        assert sched.deltas.dtype == np.float64 and not sched.deltas.flags.writeable
        assert sched.deltas.tobytes() == deltas.tobytes()
        if kind == "triangle_wave":
            assert sched.directions.dtype == np.int64 and not sched.directions.flags.writeable
            assert np.array_equal(sched.directions, directions)
            assert set(directions.tolist()) == {-1, 1}
        else:
            assert sched.directions is None

    def test_arrays_are_read_only_private_copies(self):
        deltas = np.array([0.0, 0.1, 0.2])
        directions = np.array([1, -1, 1])
        sched = DriftSchedule(
            kind="triangle_wave", alpha=0.0, deltas=deltas, growth_constant=1.0, directions=directions
        )
        with pytest.raises(ValueError, match="read-only"):
            sched.deltas[1] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            sched.directions[1] = 1
        # the caller's arrays stay writable and their later changes do not reach the schedule
        deltas[1] = 0.9
        directions[1] = 1
        assert sched.deltas.tolist() == [0.0, 0.1, 0.2]
        assert sched.directions.tolist() == [1, -1, 1]
        assert not np.shares_memory(sched.deltas, deltas)

    def test_sequences_are_converted_once(self):
        sched = DriftSchedule(
            kind="constant", alpha=0.0, deltas=[0, 1, 0.5], growth_constant=1.0, directions=(1.0, -1.0, 1.0)
        )
        assert sched.deltas.dtype == np.float64 and sched.deltas.tolist() == [0.0, 1.0, 0.5]
        assert sched.directions.dtype == np.int64 and sched.directions.tolist() == [1, -1, 1]
        assert sched.horizon == 3
        with pytest.raises(ValueError, match="1-d"):
            DriftSchedule(kind="constant", alpha=0.0, deltas=[[0.0, 0.1]], growth_constant=1.0)
        with pytest.raises(ValueError, match="match deltas"):
            DriftSchedule(kind="constant", alpha=0.0, deltas=[0.0, 0.1], growth_constant=1.0, directions=[1])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_drift_schedule("power_step", alpha=1.0, horizon=5)
        with pytest.raises(ValueError):
            make_drift_schedule("constant", alpha=0.0, horizon=5, gamma=0.0)
        with pytest.raises(ValueError):
            make_drift_schedule("unknown", alpha=0.0, horizon=5)
        with pytest.raises(ValueError):
            make_drift_schedule("power_step", alpha=0.0, horizon=5, c0=-1.0)


class TestConceptPath:
    def test_single_step_example(self):
        # threshold 0.5, budget 0.1, eta 0.25 -> move of 0.1/0.5 = 0.2
        sched = DriftSchedule(
            kind="constant", alpha=0.0, deltas=(0.0, 0.1), growth_constant=0.1, directions=None
        )
        path = concept_path(sched, eta=0.25, theta0=0.5)
        assert path.thetas == pytest.approx([0.5, 0.7])

    def test_reflection_at_upper_boundary(self):
        sched = DriftSchedule(
            kind="constant", alpha=0.0, deltas=(0.0, 0.2), growth_constant=0.2, directions=None
        )
        path = concept_path(sched, eta=0.1, theta0=0.95)
        # step 0.2/0.8 = 0.25; 0.95 + 0.25 = 1.2 reflects to 0.8
        assert path.thetas == pytest.approx([0.95, 0.8])

    def test_successive_tv_matches_budget_without_reflection(self):
        sched = make_drift_schedule("power_step", alpha=0.25, horizon=64)
        path = concept_path(sched, eta=0.1, theta0=0.5)
        deltas = sched.deltas
        for t in range(1, 64):
            moved = abs(path.thetas[t] - path.thetas[t - 1])
            if moved > 0:  # no reflection shortened the move
                tv = tv_distance(path[t], path[t - 1])
                if abs(moved - deltas[t] / 0.8) < 1e-12:
                    assert tv == pytest.approx(deltas[t], abs=1e-12)
                else:
                    assert tv <= deltas[t] + 1e-12

    def test_directions_match_float_signs_bit_for_bit(self):
        sched = make_drift_schedule("triangle_wave", alpha=0.25, horizon=3000, seed=5)
        displacements = np.asarray(sched.directions, dtype=float) * (sched.deltas / 0.8)
        displacements[0] = 0.0
        reference = 1.0 - np.abs(1.0 - np.mod(0.3 + np.cumsum(displacements), 2.0))
        assert concept_path(sched, eta=0.1, theta0=0.3).thetas.tobytes() == reference.tobytes()

    def test_thetas_stay_in_unit_interval(self):
        for seed in range(4):
            sched = make_drift_schedule("triangle_wave", alpha=0.0, horizon=500, seed=seed)
            path = concept_path(sched, eta=0.2, theta0=0.9)
            assert np.all(path.thetas >= 0.0) and np.all(path.thetas <= 1.0)

    def test_step_too_large_raises(self):
        sched = DriftSchedule(
            kind="constant", alpha=0.0, deltas=(0.0, 0.9), growth_constant=0.9, directions=None
        )
        with pytest.raises(ValueError, match="too aggressive"):
            concept_path(sched, eta=0.3, theta0=0.5)

    def test_sequence_protocol(self):
        path = ConceptPath(np.array([0.2, 0.4]), 0.05)
        assert len(path) == 2
        assert path[1] == ThresholdConcept(theta=0.4, eta=0.05)
        assert [c.theta for c in path] == [0.2, 0.4]
        sliced = path[:1]
        assert isinstance(sliced, ConceptPath) and len(sliced) == 1


class TestTvDistance:
    def test_equal_eta_example(self):
        p = ThresholdConcept(0.2, 0.1)
        q = ThresholdConcept(0.5, 0.1)
        assert tv_distance(p, q) == pytest.approx(0.24, abs=1e-15)
        assert tv_distance(q, p) == pytest.approx(0.24, abs=1e-15)

    def test_equal_eta_matches_riemann_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            eta = float(rng.uniform(0, 0.49))
            p = ThresholdConcept(float(rng.random()), eta)
            q = ThresholdConcept(float(rng.random()), eta)
            assert tv_distance(p, q) == pytest.approx(_tv_riemann(p, q), abs=2e-4)

    def test_unequal_eta_matches_riemann_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            p = ThresholdConcept(float(rng.random()), float(rng.uniform(0, 0.49)))
            q = ThresholdConcept(float(rng.random()), float(rng.uniform(0, 0.49)))
            assert tv_distance(p, q) == pytest.approx(_tv_riemann(p, q), abs=2e-4)

    def test_identity_and_symmetry(self):
        p = ThresholdConcept(0.3, 0.2)
        assert tv_distance(p, p) == 0.0
        q = ThresholdConcept(0.8, 0.05)
        assert tv_distance(p, q) == tv_distance(q, p)


class TestDiscrepancy:
    def test_matches_kink_grid_oracle_exactly(self):
        fclass = ThresholdClass()
        rng = np.random.default_rng(21)
        grid = np.linspace(0.0, 1.0, 2001)
        for _ in range(60):
            p = ThresholdConcept(float(rng.random()), float(rng.uniform(0, 0.49)))
            q = ThresholdConcept(float(rng.random()), float(rng.uniform(0, 0.49)))
            candidates = np.concatenate([grid, [p.theta, q.theta]])
            brute = float(
                np.max(
                    np.abs(
                        _threshold_risk_curve(p, candidates)
                        - _threshold_risk_curve(q, candidates)
                    )
                )
            )
            # kinks included: the piecewise-linear sup is attained on the grid
            assert discrepancy(p, q, fclass) == pytest.approx(brute, abs=1e-12)

    def test_bounded_by_tv(self):
        fclass = ThresholdClass()
        rng = np.random.default_rng(22)
        for _ in range(2000):
            p = ThresholdConcept(float(rng.random()), float(rng.uniform(0, 0.49)))
            q = ThresholdConcept(float(rng.random()), float(rng.uniform(0, 0.49)))
            assert discrepancy(p, q, fclass) <= tv_distance(p, q) + 1e-9

    def test_equal_eta_reduces_to_scaled_distance(self):
        fclass = ThresholdClass()
        p = ThresholdConcept(0.2, 0.1)
        q = ThresholdConcept(0.5, 0.1)
        assert discrepancy(p, q, fclass) == pytest.approx(0.24, abs=1e-12)

    def test_finite_class_matches_enumeration_oracle(self):
        rng = np.random.default_rng(23)
        sup = tuple(Observation(float(x), int(y)) for x, y in
                    zip(np.sort(rng.random(5)), rng.integers(0, 2, 5)))
        tables = tuple(tuple(float(v) for v in rng.random(5)) for _ in range(7))
        fclass = FiniteExplicitClass(support=sup, tables=tables, d=2)
        for _ in range(30):
            a = rng.dirichlet(np.ones(5))
            b = rng.dirichlet(np.ones(5))
            p = FiniteSupport(support=sup, probs=tuple(a))
            q = FiniteSupport(support=sup, probs=tuple(b))
            brute = max(
                abs(
                    sum(t_i * (ai - bi) for t_i, ai, bi in zip(row, a, b))
                )
                for row in tables
            )
            assert discrepancy(p, q, fclass) == pytest.approx(brute, abs=1e-12)

    def test_class_marginal_mismatch_raises(self):
        p = ThresholdConcept(0.3, 0.1)
        q = ThresholdConcept(0.4, 0.1)
        sup = (Observation(0.1, 0), Observation(0.9, 1))
        fclass = FiniteExplicitClass(
            support=sup, tables=((0.0, 1.0), (1.0, 0.0)), d=1
        )
        with pytest.raises(ValueError):
            discrepancy(p, q, fclass)


NAN = float("nan")
NON_FINITE_CASES = {
    "concept_path": (lambda: ConceptPath(np.array([0.5, NAN]), 0.1), "every theta must lie in"),
    "drift_schedule": (
        lambda: DriftSchedule(kind="constant", alpha=0.0, deltas=(0.0, NAN, 0.1), growth_constant=1.0),
        "every delta must lie in",
    ),
    "markov_rows": (
        lambda: MarkovModulatedProcess(((NAN, 0.5), (0.5, 0.5)), ConceptPath(np.array([0.5]), 0.1)),
        "rows must sum to 1",
    ),
    "finite_support": (
        lambda: FiniteSupport(support=(Observation(0.2, 0), Observation(0.7, 1)), probs=(NAN, 1.0)),
        "must sum to 1",
    ),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_nan_rejected_by_constructors(case):
    build, message = NON_FINITE_CASES[case]
    with pytest.raises(ValueError, match=message):
        build()
