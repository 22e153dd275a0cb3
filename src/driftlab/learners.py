"""Online learners: ERM over schedule-driven subsamples or trailing windows.

All learners are pure functions of (parameters, observed history, t): at each
step t they fit on points strictly before t, and the only state they keep is
memoised work that depends on no data: their window plan.  Runs are
reproducible and steps can be recomputed in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DriftSchedule
from .hypotheses import ThresholdClass, ThresholdHypothesis, threshold_erm
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

# best_window scans one window length per pass while more than WINDOW_SCAN_LIVE
# steps are live, then WINDOW_SCAN_ELEMENTS // live lengths per pass.  Whole
# plans at 32,768 steps took the same time for live bounds of 16 to 1,024 and
# blocks of 2**12 to 2**14 elements; a single step at t = 4,000 of a drift-free
# schedule went from 26 ms to 0.08 ms (2 vCPU)
WINDOW_SCAN_LIVE = 64
WINDOW_SCAN_ELEMENTS = 2**12


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
    if t_arr.ndim == 0:
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


def best_window(t, schedule: DriftSchedule, d: int):
    """Window length minimizing (drift inside window) + sqrt(d/window), ties to smallest.

    Accepts a scalar t >= 2 (returns an int) or an integer array of such t
    (returns an int64 array of its shape).  Scans m = 1..t-1 exactly for every
    step at once, keeping a new best only on a strict ``<``.  The prefix sums
    never decrease, so a step leaves the scan once its drift term alone exceeds
    its best objective: no longer window can then be strictly better.  Once
    few steps are live, a pass scans a block of lengths and takes each step's
    leftmost least one; the lengths past the point where a step would have
    left the scan are each worse than its best, so they change nothing.
    """
    t_arr = np.asarray(t)
    if np.any(t_arr < 2):
        raise ValueError("adaptive windows are defined for t >= 2")
    if np.any(t_arr > schedule.horizon):
        raise ValueError(f"schedule horizon {schedule.horizon} too short for t={t_arr.max()}")
    ts = t_arr.astype(np.int64).ravel()
    prefix = schedule.prefix_sums()
    s_t = prefix[ts]
    best_obj = np.full(ts.shape, np.inf)
    best_m = np.ones(ts.shape, dtype=np.int64)
    live = np.arange(ts.size)  # steps still in the scan
    m = 1
    while live.size:
        width = 1 if live.size > WINDOW_SCAN_LIVE else WINDOW_SCAN_ELEMENTS // live.size
        if width == 1:
            drift = s_t[live] - prefix[ts[live] - m]
            objective = drift + np.sqrt(float(d) / float(m))
            better = objective < best_obj[live]
            best_obj[live[better]] = objective[better]
            best_m[live[better]] = m
        else:
            ms = m + np.arange(width)  # the window lengths of this pass
            t_live = ts[live, None]
            drifts = s_t[live, None] - prefix[np.maximum(t_live - ms, 0)]
            objective = drifts + np.sqrt(float(d) / ms)
            objective[ms >= t_live] = np.inf  # lengths beyond t-1
            first = objective.argmin(axis=1)  # each step's leftmost least length of the pass
            low = objective[np.arange(live.size), first]
            better = low < best_obj[live]
            best_obj[live[better]] = low[better]
            best_m[live[better]] = m + first[better]
            drift = drifts[:, -1]
        m += width
        live = live[(ts[live] > m) & (drift <= best_obj[live])]
    if t_arr.ndim == 0:
        return int(best_m[0])
    return best_m.reshape(t_arr.shape)


def erm_step(path: SamplePath, t: int, gap: int, window: int) -> ThresholdHypothesis:
    """Exact threshold ERM over the gap-spaced subsample of the last ``window`` points."""
    pos = subsample_times(t, gap, window) - 1
    theta, _ = threshold_erm(path.xs[pos], path.ys[pos])
    return ThresholdHypothesis(theta)


class Learner:
    """Threshold ERM over {t - s*gap_t : s = 1..window_t // gap_t} with a data-independent row rule.

    Every learner kind differs only in ``_rows(ts)``: the int64 ``(gaps,
    windows)`` of steps ``ts >= 2``, a pure function of t.  Step 1 is always
    (0, 0), and a (0, 0) row deploys the initial hypothesis, threshold 0.
    ``plan(horizon)`` fills the rows of steps 1..horizon; the learner keeps its
    longest plan and every replicate of a run shares it.  ``step(path, t)``
    computes its own row.
    """

    def __post_init__(self) -> None:
        self._longest = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    def _rows(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """int64 (gaps, windows) of the steps ``ts``, all at least 2."""
        raise NotImplementedError

    def plan(self, horizon: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (gaps, windows) for steps 1..horizon: the kept plan when
        ``horizon`` is its length, read-only prefix views of it when shorter.

        A longer horizon replaces the kept plan by one of exactly ``horizon`` rows.
        """
        if horizon > self._longest[0].size:
            gaps = np.zeros(horizon, dtype=np.int64)
            windows = np.zeros(horizon, dtype=np.int64)
            gaps[1:], windows[1:] = self._rows(np.arange(2, horizon + 1))
            gaps.flags.writeable = windows.flags.writeable = False
            self._longest = (gaps, windows)
        gaps, windows = self._longest
        return self._longest if horizon == gaps.size else (gaps[:horizon], windows[:horizon])

    def step(self, path: SamplePath, t: int) -> ThresholdHypothesis:
        """The hypothesis deployed at step t, for callers that step by hand."""
        gap, window = (int(rows[0]) for rows in self._rows(np.array([t]))) if t >= 2 else (0, 0)
        if window == 0:
            return ThresholdHypothesis(0.0)
        return erm_step(path, t, gap, window)


@dataclass
class SubsampledErmLearner(Learner):
    """ERM over a gap-spaced subsample whose gap and window follow the
    (alpha, r) schedule; the gap thins dependence, the window limits drift."""

    alpha: float
    r: float

    def __post_init__(self) -> None:
        _validate_alpha_r(self.alpha, self.r)
        super().__post_init__()

    def _rows(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return subsample_schedule(ts, self.alpha, self.r)


@dataclass
class AdaptiveWindowLearner(Learner):
    """ERM over the trailing window balancing known drift against sqrt(d/m)."""

    schedule: DriftSchedule

    def _rows(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        windows = best_window(ts, self.schedule, ThresholdClass.d)
        return np.ones_like(windows), windows


@dataclass
class ConstantWindowLearner(Learner):
    """ERM over a fixed trailing window sized from a constant per-step drift;
    the initial hypothesis stays deployed until that window has filled."""

    gamma: float

    def __post_init__(self) -> None:
        super().__post_init__()
        self.window = constant_window_size(ThresholdClass.d, self.gamma)

    def _rows(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        filled = (ts > self.window).astype(np.int64)  # (0, 0) until the window has filled
        # capped at the last step, a window that never fills (tiny gamma) stays within int64
        return filled, filled * min(self.window, int(ts.max(initial=0)))


@dataclass
class BaselineLearner(Learner):
    """Reference strategies: ERM over the full history, or the last point only."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline {self.kind!r}; choose from {BASELINE_KINDS}")
        super().__post_init__()

    def _rows(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ones = np.ones(ts.shape, dtype=np.int64)
        return ones, ts - 1 if self.kind == "full_history_erm" else ones
