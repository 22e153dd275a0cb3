"""Online learners: ERM over schedule-driven subsamples or trailing windows.

All learners are pure functions of (parameters, observed history, t): at each
step t they fit on points strictly before t, and the only state they keep is
their memoised window plan, which depends on no data.  Runs are reproducible
and steps can be recomputed in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DriftSchedule
from .hypotheses import (
    FunctionClass,
    Hypothesis,
    ThresholdClass,
    ThresholdHypothesis,
    initial_hypothesis,
    threshold_erm,
)
from .processes import SamplePath

__all__ = [
    "subsample_schedule",
    "subsample_times",
    "best_window",
    "constant_window_size",
    "erm_step",
    "SubsampledErmLearner",
    "AdaptiveWindowLearner",
    "ConstantWindowLearner",
    "BaselineLearner",
    "Learner",
]

# floating-point guard: powers within this distance of an integer are treated
# as that integer before applying the ceiling
SNAP_TOL = 2.0**-40

BASELINE_KINDS = ("full_history_erm", "last_point")


def _ceil_snapped(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    nearest = np.rint(values)
    snapped = np.where(np.abs(values - nearest) <= SNAP_TOL, nearest, values)
    return np.ceil(snapped)


def _validate_alpha_r(alpha: float, r: float) -> None:
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0,1), got {alpha}")
    if not r > 0.0:
        raise ValueError(f"r must be positive, got {r}")


def subsample_schedule(t, alpha: float, r: float):
    """Subsample gap k_t and window m_t at time t.

    k_t = ceil(t^((1-alpha)*3/(3+4r))) capped at t-1,
    m_t = ceil(t^((1-alpha)*(3+2r)/(3+4r))) capped at t-1.
    Accepts a scalar t >= 2 or an integer array of such t.
    """
    _validate_alpha_r(alpha, r)
    t_arr = np.asarray(t)
    if np.any(t_arr < 2):
        raise ValueError("subsample schedules are defined for t >= 2")
    tt = t_arr.astype(float)
    gap_exp = (1.0 - alpha) * 3.0 / (3.0 + 4.0 * r)
    window_exp = (1.0 - alpha) * (3.0 + 2.0 * r) / (3.0 + 4.0 * r)
    cap = t_arr - 1
    gap = np.minimum(_ceil_snapped(tt**gap_exp).astype(np.int64), cap)
    window = np.minimum(_ceil_snapped(tt**window_exp).astype(np.int64), cap)
    if np.isscalar(t) or t_arr.ndim == 0:
        return int(gap), int(window)
    return gap, window


def subsample_times(t: int, gap: int, window: int) -> np.ndarray:
    """Times {t - s*gap : s = 1..floor(window/gap)}, all within the last window steps."""
    if not 1 <= gap <= window <= t - 1:
        raise ValueError(f"need 1 <= gap <= window <= t-1, got gap={gap} window={window} t={t}")
    count = window // gap
    return t - gap * np.arange(1, count + 1, dtype=np.int64)


def constant_window_size(d: int, gamma: float) -> int:
    """ceil(d^(1/3) * gamma^(-2/3)), the drift-matched fixed window length."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0,1], got {gamma}")
    value = float(d) ** (1.0 / 3.0) * float(gamma) ** (-2.0 / 3.0)
    return int(_ceil_snapped(np.asarray(value)))


def best_window(t: int, schedule: DriftSchedule, d: int, *, _cache: dict | None = None) -> int:
    """Window length minimizing (drift inside window) + sqrt(d/window), ties to smallest.

    Scans m = 1..t-1 exactly; prefix sums make each window's drift O(1) and
    the scan stops early once the (non-decreasing) drift term alone exceeds
    the best objective so far, which cannot change the argmin.
    """
    if t < 2:
        raise ValueError("adaptive windows are defined for t >= 2")
    if t > schedule.horizon:
        raise ValueError(f"schedule horizon {schedule.horizon} too short for t={t}")
    if _cache is not None:
        prefix = _cache["prefix"]
        sqrt_dm = _cache["sqrt_dm"]
    else:
        prefix = schedule.prefix_sums()
        sqrt_dm = np.sqrt(float(d) / np.arange(1, schedule.horizon + 1, dtype=float))
    s_t = prefix[t]
    best_obj = math.inf
    best_m = 1
    chunk = 512
    for start in range(1, t, chunk):
        if s_t - prefix[t - start] > best_obj:
            break
        stop = min(t, start + chunk)
        ms = np.arange(start, stop)
        objective = (s_t - prefix[t - ms]) + sqrt_dm[start - 1 : stop - 1]
        i = int(np.argmin(objective))
        if objective[i] < best_obj:
            best_obj = float(objective[i])
            best_m = start + i
    return best_m


def erm_step(function_class: FunctionClass, path: SamplePath, t: int, gap: int, window: int) -> Hypothesis:
    """Exact threshold ERM over the gap-spaced subsample of the last ``window`` points."""
    if not isinstance(function_class, ThresholdClass):
        raise TypeError(f"unsupported function class {type(function_class).__name__}")
    pos = subsample_times(t, gap, window) - 1
    theta, _ = threshold_erm(path.xs[pos], path.ys[pos])
    return ThresholdHypothesis(theta)


class Learner:
    """ERM over {t - s*gap_t : s = 1..window_t // gap_t} with a data-independent plan.

    Every learner kind differs only in its plan: ``plan(horizon)`` returns int64
    arrays ``(gaps, windows)`` indexed by t-1, where a (0, 0) row deploys the
    initial hypothesis.  Row t depends on t alone, so the plan of a shorter
    horizon is a prefix of a longer one: the learner keeps only its longest
    plan, computed on first use, and every replicate of a run shares it.
    """

    function_class: FunctionClass
    _plan_cap = math.inf  # the longest plan a learner can compute

    def __post_init__(self) -> None:
        self.initial = initial_hypothesis(self.function_class)
        self._longest = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    def _plan(self, gaps: np.ndarray, windows: np.ndarray) -> None:
        """Fill the rows of the zero-initialised plan arrays at which ERM runs."""
        raise NotImplementedError

    def plan(self, horizon: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (gaps, windows) for steps 1..horizon: the kept plan when
        ``horizon`` is its length, read-only prefix views of it when shorter.

        A longer horizon replaces the kept plan by one of at least twice its
        length (capped at ``_plan_cap``), so stepping 1..N computes O(log N) plans.
        """
        kept = self._longest[0].size
        if horizon > kept:
            size = max(horizon, min(2 * kept, self._plan_cap))
            gaps = np.zeros(size, dtype=np.int64)
            windows = np.zeros(size, dtype=np.int64)
            self._plan(gaps, windows)
            gaps.flags.writeable = windows.flags.writeable = False
            self._longest = (gaps, windows)
        gaps, windows = self._longest
        return self._longest if horizon == gaps.size else (gaps[:horizon], windows[:horizon])

    def step(self, path: SamplePath, t: int) -> Hypothesis:
        """The hypothesis deployed at step t, for callers that step by hand."""
        gaps, windows = self.plan(t)
        gap, window = int(gaps[t - 1]), int(windows[t - 1])
        if window == 0:
            return self.initial
        return erm_step(self.function_class, path, t, gap, window)


@dataclass
class SubsampledErmLearner(Learner):
    """ERM over a gap-spaced subsample whose gap and window follow the
    (alpha, r) schedule; the gap thins dependence, the window limits drift."""

    alpha: float
    r: float
    function_class: FunctionClass

    def __post_init__(self) -> None:
        _validate_alpha_r(self.alpha, self.r)
        super().__post_init__()

    def _plan(self, gaps: np.ndarray, windows: np.ndarray) -> None:
        ts = np.arange(2, gaps.size + 1)
        gaps[1:], windows[1:] = subsample_schedule(ts, self.alpha, self.r)


@dataclass
class AdaptiveWindowLearner(Learner):
    """ERM over the trailing window balancing known drift against sqrt(d/m)."""

    function_class: FunctionClass
    schedule: DriftSchedule

    @property
    def _plan_cap(self) -> int:
        return self.schedule.horizon  # best_window is defined up to it

    def _plan(self, gaps: np.ndarray, windows: np.ndarray) -> None:
        d = self.function_class.d
        cache = {
            "prefix": self.schedule.prefix_sums(),
            "sqrt_dm": np.sqrt(float(d) / np.arange(1, self.schedule.horizon + 1, dtype=float)),
        }
        gaps[1:] = 1
        windows[1:] = [
            best_window(t, self.schedule, d, _cache=cache) for t in range(2, gaps.size + 1)
        ]


@dataclass
class ConstantWindowLearner(Learner):
    """ERM over a fixed trailing window sized from a constant per-step drift;
    the initial hypothesis stays deployed until that window has filled."""

    function_class: FunctionClass
    gamma: float

    def __post_init__(self) -> None:
        self.window = constant_window_size(self.function_class.d, self.gamma)
        super().__post_init__()

    def _plan(self, gaps: np.ndarray, windows: np.ndarray) -> None:
        gaps[self.window :] = 1
        windows[self.window :] = self.window


@dataclass
class BaselineLearner(Learner):
    """Reference strategies: ERM over the full history, or the last point only."""

    kind: str
    function_class: FunctionClass

    def __post_init__(self) -> None:
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline {self.kind!r}; choose from {BASELINE_KINDS}")
        super().__post_init__()

    def _plan(self, gaps: np.ndarray, windows: np.ndarray) -> None:
        gaps[1:] = 1
        windows[1:] = np.arange(1, gaps.size) if self.kind == "full_history_erm" else 1
