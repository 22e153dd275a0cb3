"""Binary predictors with 0-1 loss, exact empirical risk minimization, exact risk.

Two function classes: one-dimensional thresholds x -> 1[x >= theta], and
explicit finite classes given by per-observation loss tables on a finite
support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence, Union

import numpy as np

from .distributions import FiniteSupport, Marginal, Observation, ThresholdConcept

__all__ = [
    "ThresholdClass",
    "FiniteExplicitClass",
    "FunctionClass",
    "ThresholdHypothesis",
    "FiniteHypothesis",
    "Hypothesis",
    "loss",
    "erm",
    "threshold_erm",
    "threshold_erm_rows",
    "risk",
    "inf_risk",
]


@dataclass(frozen=True)
class ThresholdClass:
    """All thresholds theta in [0,1] predicting 1[x >= theta]; dimension 1."""

    d: ClassVar[int] = 1


@dataclass(frozen=True)
class FiniteExplicitClass:
    """Finite class given by loss tables: tables[i][j] = loss of member i at support[j].

    ``d`` is the declared complexity used by window rules; it must satisfy
    1 <= d <= max(1, ceil(log2 |class|)).
    """

    support: tuple[Observation, ...]
    tables: tuple[tuple[float, ...], ...]
    d: int = 1

    def __post_init__(self) -> None:
        if len(self.tables) == 0:
            raise ValueError("class must contain at least one member")
        if len(self.support) == 0:
            raise ValueError("support must be non-empty")
        index = {(z.x, z.y): j for j, z in enumerate(self.support)}
        if len(index) != len(self.support):
            raise ValueError("support contains duplicate observations")
        object.__setattr__(self, "_index", index)  # support position of each (x, y)
        for row in self.tables:
            if len(row) != len(self.support):
                raise ValueError("every loss table must cover the whole support")
            for value in row:
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"losses must lie in [0,1], got {value}")
        cap = max(1, math.ceil(math.log2(len(self.tables)))) if len(self.tables) > 1 else 1
        if not 1 <= self.d <= cap:
            raise ValueError(f"declared dimension must lie in [1, {cap}], got {self.d}")

    def __len__(self) -> int:
        return len(self.tables)

    def table_array(self) -> np.ndarray:
        return np.asarray(self.tables, dtype=float)

    def support_index(self, z: Observation) -> int:
        return int(self.support_indices([z.x], [z.y])[0])

    def support_indices(self, xs: Sequence[float], ys: Sequence[int]) -> np.ndarray:
        """Support position of each observation (xs[i], ys[i])."""
        keys = zip(np.asarray(xs, dtype=float).tolist(), np.asarray(ys, dtype=np.int64).tolist())
        try:
            return np.array([self._index[key] for key in keys], dtype=np.int64)
        except KeyError as err:
            raise ValueError(f"observation {err.args[0]!r} lies outside the class support") from None


FunctionClass = Union[ThresholdClass, FiniteExplicitClass]


@dataclass(frozen=True)
class ThresholdHypothesis:
    theta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0,1], got {self.theta}")

    def predict(self, x: float) -> int:
        return 1 if x >= self.theta else 0


@dataclass(frozen=True)
class FiniteHypothesis:
    function_class: FiniteExplicitClass
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < len(self.function_class):
            raise ValueError(f"index {self.index} outside class of size {len(self.function_class)}")


Hypothesis = Union[ThresholdHypothesis, FiniteHypothesis]


def loss(h: Hypothesis, z: Observation) -> float:
    """Loss of hypothesis h at observation z; 0-1 loss for thresholds."""
    if isinstance(h, ThresholdHypothesis):
        if not 0.0 <= z.x <= 1.0:
            raise ValueError(f"x must lie in [0,1], got {z.x}")
        if z.y not in (0, 1):
            raise ValueError(f"y must be 0 or 1, got {z.y}")
        return float(h.predict(z.x) != z.y)
    if isinstance(h, FiniteHypothesis):
        j = h.function_class.support_index(z)
        return float(h.function_class.tables[h.index][j])
    raise TypeError(f"unsupported hypothesis {type(h).__name__}")


def cut_losses(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x sorted along the last axis and the 0-1 loss of each cut j, which labels sorted points [0, j) 0 and [j, n) 1.

    Sorts packed keys (x bits << 1) | y: non-negative doubles order like their
    int64 bits, and 1.0 still fits after the shift.  Tied x come out label 0
    first, which changes losses only inside a tie group, a cut no threshold realizes.
    """
    n = xs.shape[-1]
    keys = (xs.view(np.int64) << 1) | np.asarray(ys, dtype=np.int64)
    keys.sort(axis=-1)
    # ones_before[j] = #{i < j : y=1}; loss at cut j = ones_before[j] + zeros at i >= j
    ones_before = np.zeros(keys.shape[:-1] + (n + 1,), dtype=np.int64)
    np.cumsum(keys & 1, axis=-1, out=ones_before[..., 1:])
    losses = ones_before + (n - ones_before[..., -1:]) - (np.arange(n + 1) - ones_before)
    return (keys >> 1).view(float), losses


def threshold_erm(xs: np.ndarray, ys: np.ndarray) -> tuple[float, int]:
    """Exact 0-1 ERM over all thresholds; returns (theta, error count).

    Sweeps the n+1 distinct labelings induced by candidate cuts
    {0} | {x_i} | {midpoints of consecutive sorted x} | {1} in O(n log n).
    Ties prefer the smallest threshold.  The result depends only on the
    multiset of points.
    """
    xs = np.asarray(xs, dtype=float)
    n = xs.size
    if n == 0:
        raise ValueError("erm needs at least one point")
    x, losses = cut_losses(xs, ys)
    # cut j is realizable by some theta in [0,1] iff its x-interval is non-empty
    reachable = np.empty(n + 1, dtype=bool)
    reachable[0] = True
    reachable[1:n] = x[:-1] < x[1:]
    reachable[n] = x[-1] < 1.0
    best = int(np.argmin(np.where(reachable, losses, n + 1)))
    if best == 0:
        theta = 0.0
    elif best == n:
        theta = 1.0
    else:
        theta = 0.5 * (x[best - 1] + x[best])
    return theta, int(losses[best])


def threshold_erm_rows(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``threshold_erm``'s theta for every row of (rows, n) arrays of x in [0,1] and 0/1 labels.

    Each row goes through ``cut_losses`` once; the cuts, the reachability
    rule and the leftmost tie-break are those of ``threshold_erm``.
    """
    xs = np.asarray(xs, dtype=float)
    rows, n = xs.shape
    if n == 0:
        raise ValueError("erm needs at least one point")
    x, losses = cut_losses(xs, ys)
    reachable = np.empty((rows, n + 1), dtype=bool)
    reachable[:, 0] = True
    reachable[:, 1:n] = x[:, :-1] < x[:, 1:]
    reachable[:, n] = x[:, -1] < 1.0
    best = np.argmin(np.where(reachable, losses, n + 1), axis=1)
    row_start = n * np.arange(rows)  # flat gathers: the rows of x.ravel() start here
    below = x.ravel()[row_start + np.maximum(best - 1, 0)]
    above = x.ravel()[row_start + np.minimum(best, n - 1)]
    return np.where(best == 0, 0.0, np.where(best == n, 1.0, 0.5 * (below + above)))


def _rank_space(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(int32 rank << 1 | y of each point, sorted x), or None unless every x is
    distinct and below 1.0, which makes every cut of every window reachable."""
    order = np.argsort(xs)
    x = xs[order]
    if x.size == 0 or not (x[-1] < 1.0 and (x[1:] > x[:-1]).all()):
        return None
    packed = np.empty(x.size, dtype=np.int32)
    packed[order] = np.arange(x.size, dtype=np.int32) << 1
    packed |= np.asarray(ys, dtype=np.int32)
    return packed, x


def _rank_threshold_erm(space: tuple[np.ndarray, np.ndarray], pos: np.ndarray) -> np.ndarray:
    """``threshold_erm_rows``'s theta of each row of path positions ``pos`` (rows, n).

    ``space`` is ``_rank_space`` of the path, so every cut is reachable and a
    row is its packed keys, sorted.  The loss of the cut below the c lowest
    points is a constant plus S(c), the sum of +1 per y=1 and -1 per y=0 over
    them, with S(0) = 0: the best cut is the leftmost least S(c) when that is
    negative, else 0.  Its neighbours are read from the path's sorted x.
    """
    packed, x = space
    keys = packed[pos]
    keys.sort(axis=1)
    rows, n = keys.shape
    walk = keys & 1
    walk <<= 1
    walk -= 1
    np.cumsum(walk, axis=1, out=walk)  # S(1..n)
    low = walk.argmin(axis=1)
    row_start = n * np.arange(rows)  # flat gathers: the rows of keys.ravel() start here
    best = np.where(walk.ravel()[row_start + low] < 0, low + 1, 0)
    below = x[keys.ravel()[row_start + np.maximum(best - 1, 0)] >> 1]
    above = x[keys.ravel()[row_start + np.minimum(best, n - 1)] >> 1]
    return np.where(best == 0, 0.0, np.where(best == n, 1.0, 0.5 * (below + above)))


def _sliding_threshold_erm(
    space: tuple[np.ndarray, np.ndarray], first: int, blocks: int, m: int, block: int, budget: int
) -> np.ndarray:
    """``threshold_erm_rows``'s thetas of steps first..first+blocks*block-1, step i fitting points i-m..i-1.

    ``space`` is ``_rank_space`` of the points, so every cut is reachable.  The
    loss of the cut below the c lowest points of a window is its zeros plus
    S(c), the sum of +1 per y=1 and -1 per y=0 over those c points; the key
    S(c)*(m+1) + c is least at the leftmost best cut.  A block of B = ``block``
    steps shares the K = m-B+1 points of its core, sorted once.  Its 2B-2
    edges (left edge k is held by steps j <= k, right edge k by steps j > k)
    cut the sorted core into 2B-1 segments, whose least core key does not
    depend on the step; each step adds the edges it holds below each segment
    (edge-major, so sums over edges run along rows), and every pick is a flat
    gather.  Keys, within 2(m+1)m, and search keys, below (2n+2) per block of a
    chunk, are int32 while both fit (at the run loop's budget, every m <= 32,767
    on paths of up to 5*10**6 points), else int64.  A chunk of blocks holds at
    most ``budget`` int64s' worth of keys.  Needs 2 <= B <= m.
    """
    packed, x = space
    n, edges, core = x.size, 2 * block - 2, m - block + 1
    per_block = core + 1 + (edges + 1) * block  # core and step keys
    rows = min(blocks, max(1, 2 * budget // per_block))  # blocks per chunk, at 4 bytes a key
    dt = np.int32 if max(2 * (m + 1) * m, (2 * n + 2) * rows) < 2**31 else np.int64
    rows = min(rows, max(1, 8 * budget // (np.dtype(dt).itemsize * per_block)))
    held = np.concatenate([np.arange(block - 1)[:, None] >= np.arange(block), np.arange(block - 1)[:, None] < np.arange(block)])
    core_windows = np.lib.stride_tricks.sliding_window_view(packed, core)
    edge_windows = np.lib.stride_tricks.sliding_window_view(packed, block - 1)
    ramp, sorted_edge = m * np.arange(core + 1, dtype=dt), np.arange(edges)[:, None, None]
    row_ids, lanes = np.arange(rows, dtype=dt)[:, None], np.arange(rows * block).reshape(rows, block)
    # sorted cores between a point of rank -1 and one of rank n; segment bounds as flat indices of keys
    padded = np.empty((rows, core + 2), dtype=packed.dtype)
    padded[:, 0], padded[:, -1] = -2, 2 * n
    all_bounds = (core + 1) * row_ids + np.where(np.arange(edges + 2) > edges, core, 0)
    thetas = np.empty((blocks, block))
    for lo in range(0, blocks, rows):
        starts = first + block * np.arange(lo, min(lo + rows, blocks))
        nb = starts.size
        row, cp, bounds = row_ids[:nb], padded[:nb], all_bounds[:nb]
        cp[:, 1:-1] = core_windows[starts + block - 1 - m]
        cp[:, 1:-1].sort(axis=1)
        er = np.concatenate([edge_windows[starts - m], edge_windows[starts]], axis=1)
        perm = np.argsort(er, axis=1)
        er = er[row, perm]
        offset = (2 * n + 2) * row  # keeps the padded rows apart in one flat search
        bounds[:, 1:-1] = np.searchsorted((cp + offset).ravel(), (er + offset).ravel()).reshape(nb, edges) - row - 1
        # key S*(m+1) + q of core cut q, as 2*(m+1)*(ones below q) - m*q
        keys = np.zeros((nb, core + 1), dtype=dt)
        np.cumsum(cp[:, 1:-1] & 1, axis=1, out=keys[:, 1:])
        keys *= 2 * m + 2
        keys -= ramp
        flat = keys.ravel()
        seg = np.minimum(np.minimum.reduceat(flat, bounds.ravel()).reshape(nb, edges + 2)[:, :-1], flat[bounds[:, 1:]])
        # per step: each segment's least core key plus the edges the step holds below it
        inc = np.take(held, perm.T, axis=0)  # (edge, nb, step)
        key = np.zeros((edges + 1, nb, block), dtype=dt)
        np.cumsum(inc * ((er & 1) * (2 * m + 2) - m).T[:, :, None], axis=0, out=key[1:])
        key += seg.T[:, :, None]
        best = key.argmin(axis=0)
        cut = key.ravel()[best * (nb * block) + lanes[:nb]] % (m + 1)
        # the cut's neighbours: the nearer of a held edge and a core point (cp's flat q is the one below core cut q)
        q = seg.ravel()[best + (edges + 1) * row] % (m + 1) + (core + 2) * row
        ranks, below_best = (er >> 1).T[:, :, None], sorted_edge < best
        below = np.maximum(np.where(inc & below_best, ranks, -1).max(axis=0), cp.ravel()[q] >> 1)
        above = np.minimum(np.where(inc & ~below_best, ranks, n).min(axis=0), cp.ravel()[q + 1] >> 1)
        both = 0.5 * (x[below] + x[np.minimum(above, n - 1)])  # x[-1] and x[n-1] stand in at c = 0 and c = m
        thetas[lo : lo + nb] = np.where(cut == 0, 0.0, np.where(cut == m, 1.0, both))
    return thetas.ravel()


def erm(function_class: FunctionClass, points: Sequence[Observation]) -> Hypothesis:
    """Exact empirical risk minimizer over the class; ties break to the
    smallest parameter (thresholds) or smallest index (finite classes)."""
    pts = list(points)
    if len(pts) == 0:
        raise ValueError("erm needs at least one point")
    if isinstance(function_class, ThresholdClass):
        xs = np.array([p.x for p in pts], dtype=float)
        ys = np.array([p.y for p in pts], dtype=np.int64)
        if np.any(xs < 0.0) or np.any(xs > 1.0):
            raise ValueError("x values must lie in [0,1]")
        if np.any((ys != 0) & (ys != 1)):
            raise ValueError("labels must be 0 or 1")
        theta, _ = threshold_erm(xs, ys)
        return ThresholdHypothesis(theta)
    if isinstance(function_class, FiniteExplicitClass):
        cols = function_class.support_indices([z.x for z in pts], [z.y for z in pts])
        return FiniteHypothesis(function_class, finite_erm_indices(function_class, cols))
    raise TypeError(f"unsupported function class {type(function_class).__name__}")


def finite_erm_indices(function_class: FiniteExplicitClass, support_indices: np.ndarray) -> int:
    """ERM over a finite class given points as support indices."""
    # canonical point order makes the float sums a function of the multiset
    cols = np.sort(np.asarray(support_indices, dtype=np.int64))
    sums = function_class.table_array()[:, cols].sum(axis=1)
    return int(np.argmin(sums))


def risk(h: Hypothesis, marginal: Marginal) -> float:
    """Exact expected loss of h under the marginal."""
    if isinstance(h, ThresholdHypothesis):
        if not isinstance(marginal, ThresholdConcept):
            raise ValueError("threshold hypotheses require ThresholdConcept marginals")
        return marginal.eta + (1.0 - 2.0 * marginal.eta) * abs(h.theta - marginal.theta)
    if isinstance(h, FiniteHypothesis):
        if not isinstance(marginal, FiniteSupport):
            raise ValueError("finite hypotheses require FiniteSupport marginals")
        if marginal.support != h.function_class.support:
            raise ValueError("marginal support must match the class support")
        return float(marginal.prob_array @ h.function_class.table_array()[h.index])
    raise TypeError(f"unsupported hypothesis {type(h).__name__}")


def inf_risk(function_class: FunctionClass, marginal: Marginal) -> float:
    """Exact infimum of risk over the class (the per-step benchmark)."""
    if isinstance(function_class, ThresholdClass):
        if not isinstance(marginal, ThresholdConcept):
            raise ValueError("threshold classes require ThresholdConcept marginals")
        # attained at theta = theta*; |theta - theta*| contributes nothing
        return marginal.eta
    if isinstance(function_class, FiniteExplicitClass):
        if not isinstance(marginal, FiniteSupport):
            raise ValueError("finite explicit classes require FiniteSupport marginals")
        if marginal.support != function_class.support:
            raise ValueError("marginal support must match the class support")
        return float(np.min(function_class.table_array() @ marginal.prob_array))
    raise TypeError(f"unsupported function class {type(function_class).__name__}")
