"""Stochastic processes emitting drifting observations, with exact mixing coefficients.

A product process draws each observation independently from its time-t
marginal.  A Markov-modulated process couples consecutive observations through
a stationary hidden chain: state s emits x uniformly from [s/S, (s+1)/S), so a
doubly stochastic chain preserves the uniform x-marginal of every threshold
marginal exactly while making the sequence dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .distributions import ConceptPath

__all__ = [
    "ProductProcess",
    "MarkovModulatedProcess",
    "ProcessModel",
    "SamplePath",
    "MixingRateReport",
    "symmetric_chain",
    "sample_path",
    "beta_coefficient",
    "verify_mixing_rate",
]

MAX_STATES = 16
ROW_SUM_TOL = 1e-12
MIXING_LAGS = 64
WALK_BLOCK = 64  # chain moves per block of the lane walk


@dataclass(frozen=True)
class ProductProcess:
    """Independent draws: Z_t ~ P_t with no coupling across time, over a
    ``ConceptPath`` of threshold marginals."""

    marginals: ConceptPath

    def __post_init__(self) -> None:
        if not isinstance(self.marginals, ConceptPath):
            raise ValueError("product processes require threshold marginal paths (a ConceptPath)")


def _is_primitive(adjacency: np.ndarray) -> bool:
    """True iff the boolean transition structure is irreducible and aperiodic.

    That holds iff some power of it is all-positive, and by Wielandt's bound
    the power (S-1)^2 + 1 is one if any is.
    """
    size = adjacency.shape[0]
    return bool(np.linalg.matrix_power(adjacency, (size - 1) ** 2 + 1).all())


@dataclass(frozen=True)
class MarkovModulatedProcess:
    """Stationary hidden chain; state s emits x uniform on [s/S, (s+1)/S).

    Labels follow the per-step threshold marginals.  The transition matrix
    must be row-stochastic, irreducible, aperiodic, and doubly stochastic so
    that the stationary law is uniform and the x-marginal of each P_t is
    preserved exactly.
    """

    transition: tuple[tuple[float, ...], ...]
    marginals: ConceptPath

    def __post_init__(self) -> None:
        matrix = self.transition_array()
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("transition matrix must be square")
        states = matrix.shape[0]
        if not 1 <= states <= MAX_STATES:
            raise ValueError(f"state count must lie in [1, {MAX_STATES}], got {states}")
        if np.any(matrix < 0.0):
            raise ValueError("transition probabilities must be non-negative")
        row_err = np.max(np.abs(matrix.sum(axis=1) - 1.0))
        if not row_err <= ROW_SUM_TOL:
            raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL}, max error {row_err:.3g}")
        col_err = np.max(np.abs(matrix.sum(axis=0) - 1.0))
        if not col_err <= ROW_SUM_TOL:
            raise ValueError(
                "transition matrix must be doubly stochastic (uniform stationary law), "
                f"max column error {col_err:.3g}"
            )
        if states > 1 and not _is_primitive(matrix > 0.0):
            raise ValueError("transition matrix must be irreducible and aperiodic")
        if not isinstance(self.marginals, ConceptPath):
            raise ValueError("markov-modulated processes require threshold marginal paths")

    @property
    def states(self) -> int:
        return len(self.transition)

    def transition_array(self) -> np.ndarray:
        return np.asarray(self.transition, dtype=float)

    @property
    def stationary(self) -> np.ndarray:
        return np.full(self.states, 1.0 / self.states)


ProcessModel = Union[ProductProcess, MarkovModulatedProcess]


def symmetric_chain(states: int, flip: float) -> tuple[tuple[float, ...], ...]:
    """Stay with probability 1-flip, move to each other state with flip/(S-1)."""
    if states < 2:
        raise ValueError("symmetric chains need at least 2 states")
    if not 0.0 < flip < 1.0:
        raise ValueError(f"flip probability must lie in (0,1), got {flip}")
    off = flip / (states - 1)
    matrix = np.full((states, states), off)
    np.fill_diagonal(matrix, 1.0 - flip)
    return tuple(tuple(float(v) for v in row) for row in matrix)


@dataclass(frozen=True)
class SamplePath:
    """A realized trajectory; states holds the hidden chain's states, None for product draws."""

    xs: np.ndarray
    ys: np.ndarray
    states: np.ndarray | None

    def __len__(self) -> int:
        return self.xs.size


def sample_path(model: ProcessModel, horizon: int, seed: int) -> SamplePath:
    """Draw Z_1..Z_horizon; deterministic given (model, horizon, seed).

    Draw order is fixed: product processes consume (x draws, label flips);
    markov-modulated processes consume (initial state, transition draws,
    x offsets, label flips).  The chain is walked by ``_walk``, in blocks of
    moves that advance every start state at once.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if horizon > len(model.marginals):
        raise ValueError(
            f"horizon {horizon} exceeds marginal path length {len(model.marginals)}"
        )
    rng = np.random.default_rng(seed)
    if isinstance(model, ProductProcess):
        xs = rng.random(horizon)
        states = None
    else:
        states_n = model.states
        cum_rows = np.cumsum(model.transition_array(), axis=1)
        state = int(np.searchsorted(np.cumsum(model.stationary), rng.random(), side="right"))
        state = min(state, states_n - 1)
        moves = rng.random(horizon - 1) if horizon > 1 else np.empty(0)
        states = _walk(cum_rows, state, moves)
        offsets = rng.random(horizon)
        xs = (states + offsets) / states_n
    flips = rng.random(horizon) < model.marginals.eta
    ys = ((xs >= model.marginals.thetas[:horizon]) ^ flips).astype(np.int64)
    return SamplePath(xs=xs, ys=ys, states=states)


def _walk(cum_rows: np.ndarray, state: int, moves: np.ndarray) -> np.ndarray:
    """int64 chain states: ``state``, then one per move, from the (S, S) cumulative transition rows.

    A move u from state s goes to the count of row-s breakpoints <= u (at most
    S-1).  That count is constant between consecutive merged breakpoints, so
    table[s, b] holds it for bin b (breaks[b-1] <= u < breaks[b]).  The table
    is pre-scaled by its width W = S*S + 1 and flattened, so a lane holding s*W
    takes a move of bin b by one add and one gather; int16 holds every such
    index, as S*W <= 16 * 257.  The moves are cut into blocks of WALK_BLOCK:
    each block walks all S start states at once, lane by lane, and a loop over
    the blocks then picks each block's start from the end of the one before.
    """
    size = cum_rows.shape[0]
    breaks = np.sort(cum_rows, axis=None)
    lows = np.concatenate(([-np.inf], breaks))
    width = lows.size
    table = np.minimum([np.searchsorted(row, lows, side="right") for row in cum_rows], size - 1)
    scaled = (table * width).astype(np.int16).ravel()
    blocks = -(-moves.size // WALK_BLOCK)
    bins = np.zeros(blocks * WALK_BLOCK, dtype=np.int16)  # the last block's missing moves take bin 0, unread
    bins[: moves.size] = np.searchsorted(breaks, moves, side="right")
    bins = np.ascontiguousarray(bins.reshape(blocks, WALK_BLOCK).T)  # (move of the block, block)
    lanes = np.empty((WALK_BLOCK, blocks, size), dtype=np.int16)  # pre-scaled state after each move, by start state
    lane = np.broadcast_to(np.arange(size, dtype=np.int16) * np.int16(width), (blocks, size))
    for step, row in zip(lanes, bins):
        np.take(scaled, lane + row[:, None], out=step)
        lane = step
    starts = [state]
    for ends in (lanes[-1] // width).tolist()[:-1]:
        starts.append(ends[starts[-1]])
    walk = np.empty(moves.size + 1, dtype=np.int64)
    walk[0] = state
    walk[1:] = lanes[:, np.arange(blocks), starts].T.ravel()[: moves.size] // width
    return walk


def beta_coefficient(model: ProcessModel, k: int) -> float:
    """Exact absolute-regularity coefficient at lag k.

    Product processes are independent, so beta_k = 0.  For a stationary
    hidden chain, beta_k = sum_s pi(s) * ||P^k(s,.) - pi||_TV, computed from
    matrix powers; the emitted observations are a fixed function of the state
    plus fresh independent noise, so the same value bounds the observation
    process.
    """
    if k < 1:
        raise ValueError(f"lag k must be >= 1, got {k}")
    if isinstance(model, ProductProcess):
        return 0.0
    assert isinstance(model, MarkovModulatedProcess)
    matrix = np.linalg.matrix_power(model.transition_array(), k)
    pi = model.stationary
    return float(pi @ (0.5 * np.abs(matrix - pi[None, :]).sum(axis=1)))


@dataclass(frozen=True)
class MixingRateReport:
    """Computed beta_1..beta_MIXING_LAGS plus the smallest C with
    beta_k <= C*k^-r, attained first at lag ``worst_k``; the JSON form
    leaves out the betas."""

    r: float
    betas: tuple[float, ...]
    bound_constant: float
    worst_k: int
    violation: bool

    def to_json(self) -> dict:
        return {"r": self.r, "bound_constant": self.bound_constant, "worst_k": self.worst_k, "violation": self.violation}


def verify_mixing_rate(model: ProcessModel, r: float, cap: float = 1e6) -> MixingRateReport:
    """Smallest C with beta_k <= C * k^-r over lags 1..MIXING_LAGS, with a violation flag.

    The flag is raised when C exceeds ``cap`` or when the supremum of
    beta_k * k^r sits at the last computed lag, i.e. the sequence is still
    growing at the boundary and no finite C is certifiable from the computed
    range.
    """
    if r <= 0.0:
        raise ValueError(f"rate r must be positive, got {r}")
    betas = tuple(beta_coefficient(model, k) for k in range(1, MIXING_LAGS + 1))
    weighted = np.asarray(betas) * np.arange(1, MIXING_LAGS + 1, dtype=float) ** r
    worst = int(np.argmax(weighted))
    constant = float(weighted[worst])
    violation = constant > cap or (constant > 0.0 and worst + 1 == MIXING_LAGS)
    return MixingRateReport(r=r, betas=betas, bound_constant=constant, worst_k=worst + 1, violation=violation)
