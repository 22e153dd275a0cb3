"""Stream processes: sampling determinism, marginal laws, exact mixing coefficients."""

import itertools
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from driftlab import (
    ConceptPath,
    FiniteSupport,
    MarkovModulatedProcess,
    Observation,
    ProductProcess,
    ThresholdConcept,
    beta_coefficient,
    concept_path,
    make_drift_schedule,
    sample_path,
    symmetric_chain,
    verify_mixing_rate,
)
from driftlab.processes import MAX_STATES, WALK_BLOCK, _is_primitive, _walk


BELOW_ONE = 1.0 - 2.0**-53  # the largest float Generator.random returns


def _flat_path(theta: float, eta: float, horizon: int) -> ConceptPath:
    return ConceptPath(np.full(horizon, theta), eta)


def _symmetric_lambda(states: int, flip: float) -> float:
    return 1.0 - flip * states / (states - 1)


def _beta_oracle(transition: np.ndarray, k: int) -> float:
    """Pure-python beta_k: repeated matmul then atom-by-atom TV sums."""
    states = transition.shape[0]
    power = np.eye(states)
    for _ in range(k):
        power = power @ transition
    pi = 1.0 / states
    total = 0.0
    for s in range(states):
        tv = 0.5 * sum(abs(power[s, s2] - pi) for s2 in range(states))
        total += pi * tv
    return total


class TestChainConstruction:
    def test_symmetric_chain_entries(self):
        chain = symmetric_chain(4, 0.3)
        matrix = np.asarray(chain)
        assert np.allclose(np.diag(matrix), 0.7)
        off = matrix[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 0.1)

    def test_transition_validation(self):
        path = _flat_path(0.5, 0.1, 4)
        with pytest.raises(ValueError, match="square"):
            MarkovModulatedProcess(transition=((0.5, 0.5),), marginals=path)
        with pytest.raises(ValueError, match="sum to 1"):
            MarkovModulatedProcess(transition=((0.5, 0.4), (0.5, 0.5)), marginals=path)
        with pytest.raises(ValueError, match="doubly stochastic"):
            MarkovModulatedProcess(transition=((0.9, 0.1), (0.5, 0.5)), marginals=path)
        with pytest.raises(ValueError, match="non-negative"):
            MarkovModulatedProcess(transition=((1.5, -0.5), (-0.5, 1.5)), marginals=path)
        # identity chain: doubly stochastic but reducible
        with pytest.raises(ValueError, match="irreducible"):
            MarkovModulatedProcess(transition=((1.0, 0.0), (0.0, 1.0)), marginals=path)
        # pure swap: irreducible but periodic
        with pytest.raises(ValueError, match="irreducible"):
            MarkovModulatedProcess(transition=((0.0, 1.0), (1.0, 0.0)), marginals=path)

    def test_state_cap(self):
        with pytest.raises(ValueError, match="16"):
            MarkovModulatedProcess(
                transition=symmetric_chain(17, 0.3), marginals=_flat_path(0.5, 0.1, 2)
            )

    def test_stationary_uniform(self):
        mm = MarkovModulatedProcess(
            transition=symmetric_chain(5, 0.2), marginals=_flat_path(0.5, 0.1, 2)
        )
        assert np.allclose(mm.stationary, 0.2)
        pi = mm.stationary
        assert np.allclose(pi @ mm.transition_array(), pi)


def _bfs_levels(graph: np.ndarray) -> dict[int, int]:
    """Breadth-first distance from state 0 of every state reachable from it."""
    level = {0: 0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(graph[u]).tolist():
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    return level


def _primitive_by_graph_search(adjacency: np.ndarray) -> bool:
    """Strongly connected with cycle-length gcd 1, found without matrix powers.

    A strongly connected structure has period gcd(level[u] + 1 - level[v])
    over its edges u -> v, with breadth-first levels from state 0.
    """
    size = adjacency.shape[0]
    level = _bfs_levels(adjacency)
    if len(level) < size or len(_bfs_levels(adjacency.T)) < size:
        return False
    period = 0
    for u, v in zip(*np.nonzero(adjacency)):
        period = math.gcd(period, abs(level[int(u)] + 1 - level[int(v)]))
    return period == 1


class TestPrimitivity:
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_every_small_structure_matches_graph_search(self, size):
        outcomes = set()
        for bits in itertools.product((False, True), repeat=size * size):
            adjacency = np.array(bits, dtype=bool).reshape(size, size)
            expected = _primitive_by_graph_search(adjacency)
            assert _is_primitive(adjacency) == expected, adjacency.astype(int).tolist()
            outcomes.add(expected)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("size", [4, 5])
    def test_random_structures_match_graph_search(self, size):
        rng = np.random.default_rng(size)
        outcomes = set()
        for _ in range(2000):
            adjacency = rng.random((size, size)) < rng.uniform(0.1, 0.6)
            expected = _primitive_by_graph_search(adjacency)
            assert _is_primitive(adjacency) == expected, adjacency.astype(int).tolist()
            outcomes.add(expected)
        assert outcomes == {False, True}


class TestSamplePath:
    def test_deterministic_per_seed(self):
        sched = make_drift_schedule("power_step", alpha=0.25, horizon=200)
        path = concept_path(sched, eta=0.1, theta0=0.5)
        for model in (
            ProductProcess(marginals=path),
            MarkovModulatedProcess(transition=symmetric_chain(3, 0.25), marginals=path),
        ):
            a = sample_path(model, 200, seed=9)
            b = sample_path(model, 200, seed=9)
            assert np.array_equal(a.xs, b.xs)
            assert np.array_equal(a.ys, b.ys)
            assert np.array_equal(a.states, b.states)
            c = sample_path(model, 200, seed=10)
            assert not np.array_equal(a.xs, c.xs)

    def test_product_states_are_stateless_markers(self):
        path = _flat_path(0.5, 0.1, 50)
        sp = sample_path(ProductProcess(marginals=path), 50, seed=0)
        assert sp.states is None

    def test_markov_x_lands_in_state_bucket(self):
        path = _flat_path(0.5, 0.1, 500)
        mm = MarkovModulatedProcess(transition=symmetric_chain(4, 0.25), marginals=path)
        sp = sample_path(mm, 500, seed=1)
        assert np.array_equal(np.floor(sp.xs * 4).astype(np.int64), sp.states)
        assert np.all((sp.xs >= 0.0) & (sp.xs < 1.0))

    def test_label_noise_rate(self):
        # flips are independent of everything else: pooled binomial SE is exact
        path = _flat_path(0.4, 0.15, 20_000)
        for model in (
            ProductProcess(marginals=path),
            MarkovModulatedProcess(transition=symmetric_chain(4, 0.25), marginals=path),
        ):
            sp = sample_path(model, 20_000, seed=3)
            clean = (sp.xs >= 0.4).astype(np.int64)
            flip_rate = float(np.mean(clean != sp.ys))
            se = np.sqrt(0.15 * 0.85 / 20_000)
            assert abs(flip_rate - 0.15) <= 4 * se

    def test_markov_stay_frequency(self):
        # stay probability is state-independent, so stay indicators are iid
        path = _flat_path(0.5, 0.1, 30_000)
        mm = MarkovModulatedProcess(transition=symmetric_chain(3, 0.2), marginals=path)
        sp = sample_path(mm, 30_000, seed=5)
        stays = float(np.mean(sp.states[1:] == sp.states[:-1]))
        se = np.sqrt(0.8 * 0.2 / (30_000 - 1))
        assert abs(stays - 0.8) <= 4 * se

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_markov_k_step_transitions_follow_matrix_power(self, k):
        # an asymmetric chain, so a transposed or shifted table walk shows; given the visits to
        # each state, the counts of k-step moves out of it are multinomial with row P^k[s]
        transition = _circulant([0.5, 0.3, 0.2, 0.0])
        horizon = 200_000
        model = MarkovModulatedProcess(transition=transition, marginals=_flat_path(0.5, 0.1, horizon))
        every_k = sample_path(model, horizon, seed=9).states[::k]
        counts = np.zeros((4, 4))
        np.add.at(counts, (every_k[:-1], every_k[1:]), 1)
        law = np.linalg.matrix_power(model.transition_array(), k)
        expected = counts.sum(axis=1, keepdims=True) * law
        reachable = law > 0.0
        z = (counts - expected)[reachable] / np.sqrt((expected * (1.0 - law))[reachable])
        assert np.all(np.abs(z) <= 4.5), z
        assert np.all(counts[~reachable] == 0)
        assert reachable.all() == (k > 1)  # only one step leaves P^k with zero cells

    def test_initial_state_uniform_across_seeds(self):
        path = _flat_path(0.5, 0.1, 2)
        mm = MarkovModulatedProcess(transition=symmetric_chain(4, 0.3), marginals=path)
        counts = np.zeros(4)
        n_seeds = 2000
        for seed in range(n_seeds):
            counts[sample_path(mm, 1, seed=seed).states[0]] += 1
        se = np.sqrt(0.25 * 0.75 / n_seeds)
        assert np.all(np.abs(counts / n_seeds - 0.25) <= 4 * se)

    def test_product_x_uniform_moments(self):
        path = _flat_path(0.5, 0.1, 50_000)
        sp = sample_path(ProductProcess(marginals=path), 50_000, seed=8)
        assert abs(float(sp.xs.mean()) - 0.5) <= 4 * np.sqrt(1 / 12 / 50_000)
        assert abs(float((sp.xs**2).mean()) - 1 / 3) <= 4 * np.sqrt(4 / 45 / 50_000)

    def test_horizon_validation(self):
        path = _flat_path(0.5, 0.1, 10)
        with pytest.raises(ValueError):
            sample_path(ProductProcess(marginals=path), 11, seed=0)
        with pytest.raises(ValueError):
            sample_path(ProductProcess(marginals=path), 0, seed=0)


def _markov_path_oracle(model: MarkovModulatedProcess, horizon: int, seed: int):
    """(states, xs) of sample_path drawn with a per-step loop over the chain."""
    rng = np.random.default_rng(seed)
    n = model.states
    cum_rows = np.cumsum(model.transition_array(), axis=1)
    state = min(int(np.searchsorted(np.cumsum(model.stationary), rng.random(), side="right")), n - 1)
    moves = rng.random(horizon - 1) if horizon > 1 else np.empty(0)
    states = [state]
    for u in moves:
        state = min(int(np.searchsorted(cum_rows[state], u, side="right")), n - 1)
        states.append(state)
    states = np.array(states, dtype=np.int64)
    return states, (states + rng.random(horizon)) / n


def _circulant(first_row: list[float]) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(v) for v in np.roll(first_row, shift)) for shift in range(len(first_row)))


def _permutation_mixture(perms: list, weights: list) -> np.ndarray:
    """sum_i weights[i] * P_i / sum(weights), P_i the matrix sending s to perms[i][s]: doubly stochastic."""
    n = len(perms[0])
    matrix = np.zeros((n, n))
    for perm, weight in zip(perms, weights):
        matrix[np.arange(n), perm] += weight / sum(weights)
    return matrix


def _as_transition(matrix: np.ndarray) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(v) for v in row) for row in matrix)


class _ScriptedMoves(np.random.Generator):
    """PCG64(0) draws, except that a draw of ``moves.size`` floats returns ``moves``."""

    def __init__(self, moves: np.ndarray):
        super().__init__(np.random.PCG64(0))
        self._moves = moves

    def random(self, size=None):
        return self._moves if size == self._moves.size else super().random(size)


_SHIFT_16 = np.roll(np.arange(MAX_STATES), -1)
_SHUFFLE_16 = np.random.default_rng(16).permutation(MAX_STATES)
_MIXTURE_16 = _permutation_mixture([_SHIFT_16, _SHIFT_16[::-1], _SHUFFLE_16], [5, 3, 2])


class TestMarkovStates:
    CHAINS = {
        1: [((1.0,),)],
        2: [symmetric_chain(2, 0.3), symmetric_chain(2, 0.9)],
        3: [symmetric_chain(3, 0.25), _circulant([0.5, 0.5, 0.0])],
        5: [symmetric_chain(5, 0.4), _circulant([0.0, 0.7, 0.0, 0.3, 0.0]), _circulant([0.25, 0.0, 0.75, 0.0, 0.0])],
        MAX_STATES: [symmetric_chain(MAX_STATES, 0.35), _as_transition(_MIXTURE_16)],
    }

    @pytest.mark.parametrize("states", [1, 2, 3, 5, MAX_STATES])
    @pytest.mark.parametrize("horizon", [1, 2, 3, 64, 65, 1000])
    def test_states_match_per_step_loop(self, states, horizon):
        path = _flat_path(0.5, 0.1, horizon)
        for transition in self.CHAINS[states]:
            model = MarkovModulatedProcess(transition=transition, marginals=path)
            for seed in (0, 1, 2):
                sp = sample_path(model, horizon, seed)
                states_oracle, xs_oracle = _markov_path_oracle(model, horizon, seed)
                assert np.array_equal(sp.states, states_oracle)
                assert np.array_equal(sp.xs, xs_oracle)

    def test_moves_on_breakpoints_match_per_step_loop(self):
        # random moves almost never equal a breakpoint: these hit each one and its neighbours
        for chains in self.CHAINS.values():
            for transition in chains:
                breaks = np.cumsum(transition, axis=1).ravel()
                points = np.concatenate(([0.0], breaks, np.nextafter(breaks, 0.0), np.nextafter(breaks, 1.0)))
                moves = np.random.default_rng(7).permutation(np.tile(np.minimum(points, BELOW_ONE), 4))
                horizon = moves.size + 1
                model = MarkovModulatedProcess(transition=transition, marginals=_flat_path(0.5, 0.1, horizon))
                sp = sample_path(model, horizon, _ScriptedMoves(moves))
                states_oracle, xs_oracle = _markov_path_oracle(model, horizon, _ScriptedMoves(moves))
                assert sp.states.tobytes() == states_oracle.tobytes()
                assert sp.xs.tobytes() == xs_oracle.tobytes()

    @settings(max_examples=120, deadline=None)
    @given(
        perms=st.integers(1, MAX_STATES).flatmap(
            lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=4)
        ),
        data=st.data(),
        horizon=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_permutation_mixtures_match_per_step_loop(self, perms, data, horizon, seed):
        # the cyclic shift makes every mixture irreducible; periodic ones are not valid chains
        n = len(perms[0])
        perms = [list(np.roll(np.arange(n), -1)), *perms]
        weights = data.draw(st.lists(st.integers(1, 9), min_size=len(perms), max_size=len(perms)))
        matrix = _permutation_mixture(perms, weights)
        assume(n == 1 or _is_primitive(matrix > 0.0))
        model = MarkovModulatedProcess(transition=_as_transition(matrix), marginals=_flat_path(0.5, 0.1, horizon))
        sp = sample_path(model, horizon, seed)
        states_oracle, xs_oracle = _markov_path_oracle(model, horizon, seed)
        assert sp.states.tobytes() == states_oracle.tobytes()
        assert sp.xs.tobytes() == xs_oracle.tobytes()

    def test_zero_entries_are_never_taken(self):
        transition = _circulant([0.0, 0.7, 0.0, 0.3, 0.0])
        model = MarkovModulatedProcess(transition=transition, marginals=_flat_path(0.5, 0.1, 1000))
        sp = sample_path(model, 1000, seed=4)
        moves = (sp.states[1:] - sp.states[:-1]) % 5
        assert set(moves.tolist()) == {1, 3}
        model = MarkovModulatedProcess(transition=_as_transition(_MIXTURE_16), marginals=_flat_path(0.5, 0.1, 4000))
        sp = sample_path(model, 4000, seed=4)
        taken = np.zeros_like(_MIXTURE_16, dtype=bool)
        taken[sp.states[:-1], sp.states[1:]] = True
        assert np.count_nonzero(_MIXTURE_16 == 0.0) > MAX_STATES
        assert np.array_equal(taken, _MIXTURE_16 > 0.0)


def _table_walk(cum_rows: np.ndarray, state: int, moves: np.ndarray) -> np.ndarray:
    """Chain states by one lookup per move in the state x bin table: the reference ``_walk`` keeps."""
    size = cum_rows.shape[0]
    breaks = np.sort(cum_rows, axis=None)
    lows = np.concatenate(([-np.inf], breaks))
    table = [np.minimum(np.searchsorted(row, lows, side="right"), size - 1).tolist() for row in cum_rows]
    walk = [state]
    for b in np.searchsorted(breaks, moves, side="right").tolist():
        state = table[state][b]
        walk.append(state)
    return np.array(walk, dtype=np.int64)


class TestLaneWalk:
    # one move fewer than a block, exactly one block, one move into the next, two blocks, and a long path
    @pytest.mark.parametrize("horizon", [1, 2, WALK_BLOCK, WALK_BLOCK + 1, WALK_BLOCK + 2, 2 * WALK_BLOCK + 1, 32768])
    @pytest.mark.parametrize("size", [2, 3, 4, MAX_STATES])
    def test_matches_table_walk_from_every_start(self, size, horizon):
        # asymmetric rows with zero entries, so a transposed, shifted or mis-scaled table shows
        rng = np.random.default_rng(1000 * size + horizon)
        matrix = rng.random((size, size)) * (rng.random((size, size)) < 0.6)
        matrix[np.arange(size), rng.integers(0, size, size)] += 0.05
        cum_rows = np.cumsum(matrix / matrix.sum(axis=1, keepdims=True), axis=1)
        moves = rng.random(horizon - 1)
        for state in range(size):
            walk = _walk(cum_rows, state, moves)
            assert walk.dtype == np.int64
            assert walk.tobytes() == _table_walk(cum_rows, state, moves).tobytes()

    def test_peak_traced_memory_at_sixteen_states(self):
        cum_rows = np.cumsum(np.asarray(symmetric_chain(MAX_STATES, 0.35)), axis=1)
        moves = np.random.default_rng(5).random(32767)
        _walk(cum_rows, 0, moves)  # warm numpy's lazy set-up outside the trace
        tracemalloc.start()
        try:
            _walk(cum_rows, 0, moves)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # int16 lanes (1 MiB here) and the int64 walk (256 KiB) peaked at 1,563,032 bytes (Python 3.11.7,
        # numpy 2.4.6); int32 lanes alone would take 2 MiB
        assert peak <= 1_600_000


class TestFiniteSamplePath:
    SUPPORT = (Observation(0.1, 0), Observation(0.4, 1), Observation(0.4, 0), Observation(0.9, 1))

    @pytest.mark.parametrize(
        "marginals",
        [
            [ThresholdConcept(0.5, 0.1)] * 10,
            [],
            [FiniteSupport(support=SUPPORT[:2], probs=(0.5, 0.5)), FiniteSupport(support=SUPPORT[2:], probs=(0.5, 0.5))],
        ],
        ids=["threshold_concepts", "empty", "two_supports"],
    )
    def test_unsampleable_marginals_rejected(self, marginals):
        with pytest.raises(ValueError, match="product processes require threshold marginal paths"):
            ProductProcess(marginals=marginals)


class TestBetaCoefficients:
    def test_two_state_example(self):
        mm = MarkovModulatedProcess(
            transition=symmetric_chain(2, 0.3), marginals=_flat_path(0.5, 0.1, 2)
        )
        assert beta_coefficient(mm, 1) == pytest.approx(0.2, abs=1e-15)

    def test_product_is_zero(self):
        model = ProductProcess(marginals=_flat_path(0.5, 0.1, 2))
        assert beta_coefficient(model, 1) == 0.0
        assert beta_coefficient(model, 64) == 0.0

    def test_symmetric_closed_form_all_lags(self):
        for states in (2, 3, 4, 8):
            for flip in (0.1, 0.3, 0.45):
                mm = MarkovModulatedProcess(
                    transition=symmetric_chain(states, flip),
                    marginals=_flat_path(0.5, 0.1, 2),
                )
                lam = _symmetric_lambda(states, flip)
                for k in (1, 2, 3, 5, 8, 16, 32, 64):
                    expected = (1.0 - 1.0 / states) * lam**k
                    assert beta_coefficient(mm, k) == pytest.approx(expected, abs=1e-12)

    def test_matches_pure_python_oracle(self):
        # includes a non-symmetric doubly-stochastic circulant chain
        circulant = tuple(
            tuple(float(v) for v in np.roll([0.6, 0.3, 0.1], shift))
            for shift in range(3)
        )
        cases = [
            symmetric_chain(3, 0.25),
            symmetric_chain(4, 0.45),
            circulant,
        ]
        for chain in cases:
            mm = MarkovModulatedProcess(transition=chain, marginals=_flat_path(0.5, 0.1, 2))
            matrix = np.asarray(chain)
            for k in (1, 2, 3, 4, 6):
                assert beta_coefficient(mm, k) == pytest.approx(
                    _beta_oracle(matrix, k), abs=1e-13
                )

    def test_monotone_nonincreasing(self):
        mm = MarkovModulatedProcess(
            transition=symmetric_chain(4, 0.2), marginals=_flat_path(0.5, 0.1, 2)
        )
        betas = [beta_coefficient(mm, k) for k in range(1, 30)]
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(betas, betas[1:]))

    def test_lag_validation(self):
        mm = MarkovModulatedProcess(
            transition=symmetric_chain(2, 0.3), marginals=_flat_path(0.5, 0.1, 2)
        )
        with pytest.raises(ValueError):
            beta_coefficient(mm, 0)


class TestVerifyMixingRate:
    def test_constant_matches_manual_max(self):
        mm = MarkovModulatedProcess(
            transition=symmetric_chain(3, 0.2), marginals=_flat_path(0.5, 0.1, 2)
        )
        r = 2.0
        report = verify_mixing_rate(mm, r=r)
        manual = max(beta_coefficient(mm, k) * k**r for k in range(1, 65))
        assert report.bound_constant == pytest.approx(manual, abs=1e-12)
        assert len(report.betas) == 64
        weighted = [beta_coefficient(mm, k) * k**r for k in range(1, 65)]
        assert report.worst_k == 1 + weighted.index(max(weighted))

    def test_zero_rate_rejected(self):
        mm = MarkovModulatedProcess(
            transition=symmetric_chain(2, 0.3), marginals=_flat_path(0.5, 0.1, 2)
        )
        with pytest.raises(ValueError):
            verify_mixing_rate(mm, r=0.0)

    def test_bound_holds_on_grid(self):
        mm = MarkovModulatedProcess(
            transition=symmetric_chain(4, 0.25), marginals=_flat_path(0.5, 0.1, 2)
        )
        report = verify_mixing_rate(mm, r=1.5)
        for k, beta in enumerate(report.betas, start=1):
            assert beta <= report.bound_constant * k**-1.5 + 1e-15

    def test_fast_chain_passes(self):
        mm = MarkovModulatedProcess(
            transition=symmetric_chain(4, 0.25), marginals=_flat_path(0.5, 0.1, 2)
        )
        for r in (1.0, 2.0):
            report = verify_mixing_rate(mm, r=r)
            assert not report.violation

    def test_product_passes_with_zero_constant(self):
        model = ProductProcess(marginals=_flat_path(0.5, 0.1, 2))
        report = verify_mixing_rate(model, r=1.0)
        assert not report.violation
        assert report.bound_constant == 0.0

    def test_slow_chain_flagged_via_boundary_argmax(self):
        # flip 0.001: lambda ~ 0.998, k^r * beta_k still rising at k_max = 64
        mm = MarkovModulatedProcess(
            transition=symmetric_chain(2, 0.001), marginals=_flat_path(0.5, 0.1, 2)
        )
        report = verify_mixing_rate(mm, r=1.0)
        assert report.violation

    def test_cap_violation_flagged(self):
        mm = MarkovModulatedProcess(
            transition=symmetric_chain(2, 0.3), marginals=_flat_path(0.5, 0.1, 2)
        )
        report = verify_mixing_rate(mm, r=1.0, cap=0.1)
        assert report.violation

    def test_report_json_fields(self):
        mm = MarkovModulatedProcess(
            transition=symmetric_chain(2, 0.3), marginals=_flat_path(0.5, 0.1, 2)
        )
        payload = verify_mixing_rate(mm, r=1.0).to_json()
        for key in ("r", "bound_constant", "worst_k", "violation"):
            assert key in payload
