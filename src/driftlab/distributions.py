"""Drifting data distributions on [0,1] x {0,1}.

Two marginal families are provided: noisy threshold concepts over a uniform
x-marginal, and explicit finite-support laws.  Drift schedules bound how fast
the time-t marginal may move in discrepancy distance; concept paths realize a
schedule as a sequence of threshold marginals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "Observation",
    "ThresholdConcept",
    "FiniteSupport",
    "Marginal",
    "DriftSchedule",
    "ConceptPath",
    "make_drift_schedule",
    "concept_path",
    "tv_distance",
    "discrepancy",
]

PROB_TOL = 1e-12

SCHEDULE_KINDS = ("triangle_wave", "power_step", "constant")


class Observation(NamedTuple):
    """A single data point: feature x in [0,1], binary label y."""

    x: float
    y: int


@dataclass(frozen=True)
class ThresholdConcept:
    """Uniform x on [0,1]; label is 1[x >= theta] flipped with probability eta.

    The conditional law is P(y=1 | x) = eta + (1-2*eta) * 1[x >= theta].
    """

    theta: float
    eta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0,1], got {self.theta}")
        if not 0.0 <= self.eta < 0.5:
            raise ValueError(f"eta must lie in [0, 0.5), got {self.eta}")

    def label_probability(self, x: float) -> float:
        """P(y = 1 | x)."""
        return self.eta + (1.0 - 2.0 * self.eta) * (1.0 if x >= self.theta else 0.0)


@dataclass(frozen=True)
class FiniteSupport:
    """Explicit law on an enumerated finite set of observations."""

    support: tuple[Observation, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.support) == 0:
            raise ValueError("support must be non-empty")
        if len(self.support) != len(self.probs):
            raise ValueError("support and probs must have equal length")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support contains duplicate observations")
        p = np.asarray(self.probs, dtype=float)
        if np.any(p < 0.0):
            raise ValueError("probabilities must be non-negative")
        total = float(p.sum())
        if not abs(total - 1.0) <= PROB_TOL:
            raise ValueError(f"probabilities must sum to 1 within {PROB_TOL}, got {total!r}")

    @property
    def prob_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)


Marginal = Union[ThresholdConcept, FiniteSupport]


@dataclass(frozen=True, eq=False)
class DriftSchedule:
    """Per-step drift budget: discrepancy(P_t, P_{t-1}) <= deltas[t-1].

    ``deltas`` is indexed from t = 1 (so ``deltas[0]`` = 0 by convention: there
    is no step into t = 1).  ``growth_constant`` is the smallest C such that
    sum_{t<=T} deltas[t-1] <= C * T**alpha holds for every prefix T of the
    generated horizon.  ``directions`` carries optional +/-1 metadata used by
    triangle-wave schedules to steer concept paths.  Both are held as
    read-only arrays, float64 ``deltas`` and int64 ``directions``.
    """

    kind: str
    alpha: float
    deltas: np.ndarray
    growth_constant: float
    directions: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0,1), got {self.alpha}")
        # private read-only copies: a caller's array is never frozen or shared
        deltas = np.array(self.deltas, dtype=np.float64)
        if deltas.ndim != 1 or deltas.size == 0:
            raise ValueError("deltas must be a non-empty 1-d sequence")
        if deltas[0] != 0.0:
            raise ValueError("deltas[0] (the step into t=1) must be 0")
        if not np.all((deltas >= 0.0) & (deltas <= 1.0)):
            raise ValueError("every delta must lie in [0,1]")
        deltas.flags.writeable = False
        object.__setattr__(self, "deltas", deltas)
        if self.directions is not None:
            directions = np.array(self.directions, dtype=np.int64)
            if directions.shape != deltas.shape:
                raise ValueError("directions must match deltas in length")
            directions.flags.writeable = False
            object.__setattr__(self, "directions", directions)

    @property
    def horizon(self) -> int:
        return self.deltas.size

    def prefix_sums(self) -> np.ndarray:
        """S with S[0] = 0 and S[t] = sum of deltas for steps 1..t."""
        out = np.zeros(self.horizon + 1)
        np.cumsum(self.deltas, out=out[1:])
        return out


def make_drift_schedule(
    kind: str,
    alpha: float,
    horizon: int,
    gamma: float | None = None,
    c0: float = 1.0,
    seed: int = 0,
) -> DriftSchedule:
    """Build a drift schedule of the given kind over t = 1..horizon.

    power_step:    deltas[t-1] = min(1, c0 * t**(alpha-1)) for t >= 2, so the
                   cumulative budget grows like T**alpha.
    constant:      deltas[t-1] = gamma for t >= 2 (gamma in (0,1) required).
    triangle_wave: power_step magnitudes plus +/-1 direction metadata that
                   flips whenever a running drift-budget position would leave
                   [0,1]; ``seed`` picks the starting direction.

    deltas[0] is always 0.  Deterministic given (kind, parameters, seed); the
    seed only affects triangle_wave.
    """
    if kind not in SCHEDULE_KINDS:
        raise ValueError(f"unknown schedule kind {kind!r}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0,1), got {alpha}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if kind == "constant":
        if gamma is None or not 0.0 < gamma <= 1.0:
            raise ValueError(f"constant schedules need gamma in (0,1], got {gamma}")
        deltas = np.full(horizon, float(gamma))
    else:
        if c0 <= 0.0:
            raise ValueError(f"c0 must be positive, got {c0}")
        t = np.arange(1, horizon + 1, dtype=float)
        deltas = np.minimum(1.0, c0 * t ** (alpha - 1.0))
    deltas[0] = 0.0

    directions = None
    if kind == "triangle_wave":
        direction = 1 if np.random.default_rng(seed).integers(0, 2) == 0 else -1
        directions = np.empty(horizon, dtype=np.int64)
        directions[0] = direction
        position = 0.5
        for i in range(1, horizon):
            step = deltas[i]
            if not 0.0 <= position + direction * step <= 1.0:
                direction = -direction
            position = min(1.0, max(0.0, position + direction * step))
            directions[i] = direction

    growth = float(np.max(np.cumsum(deltas) / np.arange(1, horizon + 1, dtype=float) ** alpha))
    return DriftSchedule(kind=kind, alpha=alpha, deltas=deltas, growth_constant=growth, directions=directions)


class ConceptPath(Sequence[ThresholdConcept]):
    """Sequence of threshold marginals P_1..P_T sharing one noise level."""

    def __init__(self, thetas: np.ndarray, eta: float):
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 1 or thetas.size == 0:
            raise ValueError("thetas must be a non-empty 1-d array")
        if not 0.0 <= eta < 0.5:
            raise ValueError(f"eta must lie in [0, 0.5), got {eta}")
        if not np.all((thetas >= 0.0) & (thetas <= 1.0)):
            raise ValueError("every theta must lie in [0,1]")
        self.thetas = thetas
        self.eta = float(eta)

    def __len__(self) -> int:
        return self.thetas.size

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return ConceptPath(self.thetas[index], self.eta)
        return ThresholdConcept(theta=float(self.thetas[index]), eta=self.eta)

    def __iter__(self) -> Iterator[ThresholdConcept]:
        for theta in self.thetas:
            yield ThresholdConcept(theta=float(theta), eta=self.eta)


def _fold_unit(values: np.ndarray) -> np.ndarray:
    """Map unconstrained coordinates onto [0,1] by reflecting at both ends.

    This is the billiard map: the motion keeps its direction after touching a
    boundary and travels back across the interval, rather than re-approaching
    the same boundary on the next step.
    """
    period = np.mod(values, 2.0)
    return 1.0 - np.abs(1.0 - period)


def concept_path(schedule: DriftSchedule, eta: float, theta0: float) -> ConceptPath:
    """Realize a schedule as threshold locations with steps deltas/(1-2*eta).

    The threshold moves by exactly deltas[t-1]/(1-2*eta) at step t (direction
    metadata, default +1), reflecting at the [0,1] boundaries, so that
    discrepancy(P_t, P_{t-1}) <= deltas[t-1] with equality whenever no
    reflection occurred.  Raises if a step is too large to fit in [0,1].
    """
    if not 0.0 <= eta < 0.5:
        raise ValueError(f"eta must lie in [0, 0.5), got {eta}")
    if not 0.0 <= theta0 <= 1.0:
        raise ValueError(f"theta0 must lie in [0,1], got {theta0}")
    scale = 1.0 - 2.0 * eta
    steps = schedule.deltas / scale
    if np.any(steps > 1.0):
        i = int(np.argmax(steps > 1.0))
        raise ValueError(f"schedule too aggressive for eta={eta}: step {steps[i]:.6g} > 1 at t={i + 1}")
    displacements = steps if schedule.directions is None else schedule.directions * steps
    displacements[0] = 0.0
    thetas = _fold_unit(theta0 + np.cumsum(displacements))
    return ConceptPath(thetas, eta)


def _require_same_family(p: Marginal, q: Marginal) -> None:
    if type(p) is not type(q):
        raise ValueError(
            f"mismatched marginal families: {type(p).__name__} vs {type(q).__name__}"
        )
    if isinstance(p, FiniteSupport) and p.support != q.support:
        raise ValueError("finite-support marginals must share an identical support")


def tv_distance(p: Marginal, q: Marginal) -> float:
    """Exact total-variation distance between two same-family marginals.

    FiniteSupport: half the L1 distance between probability vectors.
    ThresholdConcept: integral of |P_p(y=1|x) - P_q(y=1|x)| over x, which for
    equal noise reduces to (1-2*eta) * |theta_p - theta_q|.
    """
    _require_same_family(p, q)
    if isinstance(p, FiniteSupport):
        return 0.5 * float(np.abs(p.prob_array - q.prob_array).sum())
    assert isinstance(p, ThresholdConcept) and isinstance(q, ThresholdConcept)
    width = abs(p.theta - q.theta)
    if p.eta == q.eta:
        return (1.0 - 2.0 * p.eta) * width
    return (1.0 - width) * abs(p.eta - q.eta) + width * (1.0 - p.eta - q.eta)


def discrepancy(p: Marginal, q: Marginal, function_class) -> float:
    """sup over f in the class of |E_p f(Z) - E_q f(Z)| (loss functions in [0,1]).

    Exact: threshold classes reduce to a piecewise-linear maximization whose
    optimum sits at a risk-curve breakpoint; finite classes are enumerated.
    Always bounded by tv_distance(p, q).
    """
    from .hypotheses import FiniteExplicitClass, ThresholdClass

    _require_same_family(p, q)
    if isinstance(function_class, ThresholdClass):
        if not isinstance(p, ThresholdConcept):
            raise ValueError("threshold classes require ThresholdConcept marginals")
        assert isinstance(q, ThresholdConcept)
        breakpoints = (0.0, p.theta, q.theta, 1.0)
        best = 0.0
        for theta in breakpoints:
            gap = abs(
                (p.eta + (1.0 - 2.0 * p.eta) * abs(theta - p.theta))
                - (q.eta + (1.0 - 2.0 * q.eta) * abs(theta - q.theta))
            )
            best = max(best, gap)
        return best
    if isinstance(function_class, FiniteExplicitClass):
        if not isinstance(p, FiniteSupport):
            raise ValueError("finite explicit classes require FiniteSupport marginals")
        if function_class.support != p.support:
            raise ValueError("function-class support must match the marginals' support")
        diff = p.prob_array - q.prob_array
        return float(np.max(np.abs(function_class.table_array() @ diff)))
    raise ValueError(f"unsupported function class {type(function_class).__name__}")
