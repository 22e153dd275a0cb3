"""Exact regret accounting, growth-exponent fits, and oracle verifications.

Risks are evaluated in closed form against the true time-t marginal (never as
realized losses), so curves measure exactly the quantity the window rules are
designed to control.  The two `verify_*` routines check, by exact enumeration,
the facts the rules rely on: k-spaced subsamples are nearly product
distributions, and independent (not necessarily identical) samples obey a
sqrt(d/m) uniform deviation envelope.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from .distributions import ConceptPath, Marginal
from .hypotheses import (
    ThresholdClass,
    _rank_space,
    _rank_threshold_erm,
    _sliding_threshold_erm,
    threshold_erm_rows,
)
from .learners import Learner, _validate_alpha_r
from .processes import (
    MarkovModulatedProcess,
    ProcessModel,
    ProductProcess,
    SamplePath,
    beta_coefficient,
    sample_path,
)

__all__ = [
    "RegretCurve",
    "RateFit",
    "BlockingReport",
    "UniformDeviationReport",
    "DegenerateCurveError",
    "run_single",
    "run_experiment",
    "theoretical_exponent",
    "fit_growth_exponent",
    "geometric_checkpoints",
    "default_checkpoints",
    "verify_blocking",
    "verify_uniform_deviation",
]

EXCESS_TOL = 1e-12
MIN_FIT_POINTS = 8
DEFAULT_CHECKPOINT_MIN = 256
DEFAULT_CHECKPOINT_MAX = 32768
GRID_MAX_STEPS = 10**6  # multiplications a geometric checkpoint grid may take (about 0.4 s on a 2-vCPU host)

BLOCKING_MAX_STATES = 4
BLOCKING_MAX_BLOCKS = 4
BLOCKING_MAX_GAP = 8

# size of one batch of threshold ERM solves, bounding its memory: gathered points
# (rows x points per row) of the row kernel; int64s' worth of bytes of the block
# kernel's core and step keys, which are int32 for windows of up to 32,767 points,
# so its chunks hold twice as many keys.  2**16 moved neither constant_window_long's
# peak RSS (50.74-50.80 MB either way) nor its wall time (three alternating pairs)
ERM_BATCH_ELEMENTS = 2**14

# sample points per sup-deviation batch: a uniform-deviation size m draws and
# sorts max(1, SUP_DEVIATION_BATCH_ELEMENTS // m) trials as the rows of one batch,
# one kernel call a path.  On the default grid (16..16384, 100 trials, both
# settings in one call, 2 vCPU, alternating in one process) the medians for 2**12
# / 2**13 / 2**14 were 277 / 270 / 261, 279 / 259 / 257 and 272 / 257 / 251 ms in
# three sets of 20 rounds; 2**14 won 47 of the 60 rounds, but by less than 2**13's
# interquartile range (15, 17 and 12 ms) in every set, so no size wins
SUP_DEVIATION_BATCH_ELEMENTS = 2**13

# gap-1 runs of one window of at least SLIDE_MIN_WINDOW points are solved
# SLIDE_BLOCK steps at a time by the block kernel; on 100,000-step paths
# (2 vCPU) the rank-space row kernel is faster up to 44 points, as fast at 48
# and slower from 52 on
SLIDE_MIN_WINDOW = 48
SLIDE_BLOCK = 8

# curve rows are converted and written this many at a time, bounding the text held in memory
CSV_CHUNK_ROWS = 4096

# Curve text.  A float64 value x with 1e-3 <= |x| < 2**53 is written from
# c = |x| * 10**k, scaled into [1e16, 1e17) and held exactly as hi + lo
# (Dekker's TwoProduct on Veltkamp halves); see ``_shortest_digits``.
_POW10 = 10.0 ** np.arange(23)  # exact: 5**22 < 2**53
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)  # Veltkamp split by 2**27 + 1
_POW10_LO = _POW10 - _POW10_HI
_POW10_U64 = 10 ** np.arange(20, dtype=np.uint64)
_MANTISSA_BITS = np.uint64(2**52 - 1)
_EXPONENT_BITS = np.uint64(0x7FF << 52)
# ASCII of every 4-digit group "0000".."9999", one uint32 each (the two-digit
# texts of g // 100 and g % 100), and masks that keep a group's bytes from j on
# (_KEEP_FROM[j]) or before j (_KEEP_BELOW[j])
_DIGIT_PAIRS = np.frombuffer(b"".join(b"%02d" % g for g in range(100)), dtype=np.uint16)
_DIGIT_GROUPS = np.stack([np.repeat(_DIGIT_PAIRS, 100), np.tile(_DIGIT_PAIRS, 100)], axis=1).view(np.uint32)[:, 0]
_KEEP_FROM = np.frombuffer(b"".join(b"\0" * j + b"\xff" * (4 - j) for j in range(5)), dtype=np.uint32)
_KEEP_BELOW = np.frombuffer(b"".join(b"\xff" * j + b"\0" * (4 - j) for j in range(5)), dtype=np.uint32)
# _SLOT_MASKS[w]: those masks, (groups, w + 1) by group g and slot bound 0..w, of a _digit_slots text of
# w <= 20 slots (every uint64), built once: group g holds slots 4g - pad .. 4g - pad + 3, pad = -w % 4
_SLOT_MASKS = [
    (_KEEP_FROM[bounds], _KEEP_BELOW[bounds])
    for bounds in (np.clip(np.arange(w + 1) + (-w % 4) - 4 * np.arange(-(-w // 4))[:, None], 0, 4) for w in range(21))
]


@contextlib.contextmanager
def _open_atomic(path: str | Path) -> Iterator[TextIO]:
    """Text handle on a temp file in ``path``'s directory that replaces ``path``
    only when the ``with`` block succeeds; on failure the temp file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text``; readers see the old file or the new one, never half of it."""
    with _open_atomic(path) as fh:
        fh.write(text)


def _place_worker(counter, cores: list[int]) -> None:
    """Pool initializer: pin the i-th worker started to cores[i mod len(cores)]."""
    with counter.get_lock():
        index = counter.value
        counter.value += 1
    with contextlib.suppress(OSError):  # a listed core that cannot be used leaves the worker unplaced
        os.sched_setaffinity(0, {cores[index % len(cores)]})


def _load_balance_off(root: Path = Path("/sys/fs/cgroup/cpuset"), own: Path = Path("/proc/self/cpuset")) -> bool:
    """Whether the kernel leaves this process's cores unbalanced: its cgroup-v1
    cpuset (``own`` names it under ``root``) and every ancestor read
    ``cpuset.sched_load_balance`` 0.  False where that cannot be read."""
    try:
        cpuset = Path(own.read_text().strip())
        return all(
            (root / d.relative_to("/") / "cpuset.sched_load_balance").read_text().strip() == "0"
            for d in (cpuset, *cpuset.parents)
        )
    except (OSError, ValueError):
        return False


def fork_map(fn: Callable, jobs: int, *iterables) -> list:
    """``list(map(fn, *iterables))``, run by ``jobs`` forked workers when ``jobs`` > 1.

    Where the kernel does not balance load across cores (``_load_balance_off``),
    a forked worker stays on the core of its parent, so there worker i is
    placed on the i-th core this process may use, cycling through them.
    Elsewhere workers are left to the kernel.  The calling process itself is
    never pinned.
    """
    if jobs <= 1:
        return list(map(fn, *iterables))
    import multiprocessing  # imported here, where the pool needs it: about 30 ms of `import driftlab`
    from concurrent.futures import ProcessPoolExecutor

    # fork: workers inherit the parent's modules as they stand, patched ones included
    fork = multiprocessing.get_context("fork")
    placement = {}
    if _load_balance_off():
        placement = {"initializer": _place_worker, "initargs": (fork.Value("i", 0), sorted(os.sched_getaffinity(0)))}
    with ProcessPoolExecutor(max_workers=jobs, mp_context=fork, **placement) as pool:
        return list(pool.map(fn, *iterables))


def _shortest_digits(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Shortest round-trip decimal digits of float64 ``values``, as ``repr`` writes them.

    Returns (decided, digits, k, cut): where ``decided``, repr(|x|) has the
    17 digits of the int64 ``digits`` / 10**k less its last ``cut`` digits,
    trailing zeros that repr drops; the other values are left to ``repr``.

    c = |x| * 10**k lies in [1e16, 1e17), with k from log10, corrected by one
    where log10 misrounds next to a power of ten.  The decimals that read
    back as x are those within h of c, h being half the spacing of x times
    10**k: exact (a power of two times 10**k), and above 1/2 since x has 53
    bits.  So cint, the integer nearest c, is inside, and repr takes the
    shortest candidate inside (the multiple of p = 10 or 100 nearest c) and,
    among equally short ones, the nearest.  Decided are the values of
    1e-3 <= |x| < 2**53 with a mantissa other than a power of two (whose
    interval is lopsided), except an exact tie of two nearest candidates,
    texts of 14 digits or fewer (the multiple of 1000 nearest c is inside)
    and a c just below 1e16 whose product hi rounds up to 1e16.
    No candidate is ever exactly h away: that midpoint of x and a neighbour
    is a multiple of 10 only from 2**53 on.
    """
    a = np.abs(values)
    decided = (a >= 1e-3) & (a < 2.0**53) & ((values.view(np.uint64) & _MANTISSA_BITS) != 0)
    a = np.where(decided, a, 1.5)
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    hi = a * _POW10[k]
    k += hi < 1e16
    k -= hi >= 1e17
    scale = _POW10[k]
    hi = a * scale
    halves = a * 134217729.0
    a_hi = halves - (halves - a)
    a_lo = a - a_hi
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo  # c = hi + lo exactly
    decided &= (hi != 1e16) | (lo >= 0.0)  # c just below 1e16: k is one too small
    rounded = np.rint(lo)
    frac = lo - rounded  # exact (Sterbenz), in [-1/2, 1/2]
    cint = hi.astype(np.int64) + rounded.astype(np.int64)  # c = cint + frac
    h = ((a.view(np.uint64) & _EXPONENT_BITS) - np.uint64(53 << 52)).view(np.float64) * scale
    decided &= np.abs(frac) != 0.5  # a tie of two 17-digit candidates
    digits, cut = cint, np.zeros(k.shape, dtype=np.intp)
    for p in (10, 100, 1000):
        low = cint - cint // p * p  # c - low is the multiple of p below c
        below = low + frac  # exact wherever it is within 16 of c, which is all that can be inside
        up = below > p // 2
        dist = np.where(up, (p - low) - frac, below)
        inside = dist < h  # inside at p implies inside at p // 10
        if p == 10:
            decided &= ~inside | (below != 5)  # a tie of two 16-digit candidates
        if p == 1000:
            decided &= ~inside
        else:
            digits = np.where(inside, cint - low + up * p, digits)
            cut += inside
    return decided, digits, k, cut


def _digit_slots(values: np.ndarray, width: int, first: np.ndarray | None = None, stop: np.ndarray | None = None) -> np.ndarray:
    """(n, width) ASCII digits of uint64 ``values`` < 10**width, zero-padded on
    the left, with 0 bytes outside the slots first..stop-1 of each row."""
    groups = -(-width // 4)
    pad = 4 * groups - width
    keep_from, keep_below = _SLOT_MASKS[width]
    out = np.empty((values.size, groups), dtype=np.uint32)
    for g in range(groups - 1, -1, -1):
        rest = values // np.uint64(10000)
        text = _DIGIT_GROUPS[(values - rest * np.uint64(10000)).astype(np.intp)]
        if first is not None:
            text &= keep_from[g][first]
        if stop is not None:
            text &= keep_below[g][stop]
        out[:, g] = text
        values = rest
    return out.view(np.uint8)[:, pad:]


def _int_slots(values: np.ndarray) -> np.ndarray:
    """Text slots of uint64 ``values``: their digits, leading zeros as 0 bytes."""
    width = len(str(int(values.max())))
    shown = np.ones(values.shape, dtype=np.intp)
    for e in range(1, width):
        shown += values >= _POW10_U64[e]
    return _digit_slots(values, width, first=width - shown)


def _signed(slots: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """``slots`` behind a sign slot, "-" where ``negative``; unchanged when no row is."""
    if not negative.any():
        return slots
    return np.concatenate([(negative * ord("-")).astype(np.uint8)[:, None], slots], axis=1)


def _repr_slots(slots: np.ndarray, rows: np.ndarray, values: list) -> np.ndarray:
    """``slots`` with ``rows`` replaced by the repr text of ``values``, widened to fit it."""
    texts = [repr(v).encode() for v in values]
    width = max(slots.shape[1], *map(len, texts))
    if width > slots.shape[1]:
        slots = np.concatenate([slots, np.zeros((slots.shape[0], width - slots.shape[1]), dtype=np.uint8)], axis=1)
    slots[rows] = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), dtype=np.uint8).reshape(-1, width)
    return slots


def _text_slots(column: np.ndarray) -> np.ndarray:
    """(n, slots) uint8 text of each value of ``column`` as repr writes it, 0 bytes in unused slots.

    float64: sign, the digits of floor(|x|), ".", then the fraction digits of
    ``_shortest_digits``.  Below 2**53, floor(|x|) is exact and is also the
    integer part of the shortest decimal: an integer between the two would be
    within x's rounding interval, yet reads back as itself.  Undecided values
    are written by ``repr``.  Integers (int or uint): sign and digits.
    """
    if column.dtype == np.float64:
        decided, digits, k, cut = _shortest_digits(column)
        whole = np.floor(np.abs(column), where=decided, out=np.zeros(column.shape)).astype(np.uint64)
        frac_width = int(k.max(initial=1, where=decided))
        # the fraction digits, scaled to frac_width digits (uint64: up to 19 of them)
        fraction = (digits * decided).astype(np.uint64) - whole * _POW10_U64[np.minimum(k, 18)]
        fraction *= _POW10_U64[frac_width - k]
        frac_slots = _digit_slots(fraction, frac_width, stop=np.clip(k - cut, 1, frac_width))
        point = np.full((column.size, 1), ord("."), dtype=np.uint8)
        slots = _signed(np.concatenate([_int_slots(whole), point, frac_slots], axis=1), np.signbit(column) & decided)
        undecided = np.flatnonzero(~decided)
        return _repr_slots(slots, undecided, column[undecided].tolist()) if undecided.size else slots
    negative = column < 0
    magnitude = column.astype(np.uint64)
    return _signed(_int_slots(np.where(negative, -magnitude, magnitude)), negative)  # -(-2**63) wraps to 2**63


def write_curve_rows(fh: TextIO, columns: Sequence[np.ndarray], start: int, stop: int) -> None:
    """Write curve rows start..stop-1 as ``t,<column values>`` lines with t = row + 1.

    Every value is written as its repr (shortest round-trip float, plain int).
    The rows go in chunks, each one uint8 matrix of a row of text slots per
    curve row (``_text_slots`` per column, slot masks built once per width;
    commas; newline) written as its bytes less the 0 bytes of unused slots.
    A column passed more than once (the one-seed mean curve's ``cum_excess``,
    ``ci_lo`` and ``ci_hi``) is rendered once per chunk, and a chunk of one
    repeated value (``inf_risk``, or all -0.0) is its repr in every row.
    Mixed 0.0/-0.0 stay per value.
    """
    firsts = [next(j for j, other in enumerate(columns) if other is column) for column in columns]
    for lo in range(start, stop, CSV_CHUNK_ROWS):
        hi = min(lo + CSV_CHUNK_ROWS, stop)
        comma = np.broadcast_to(np.uint8(ord(",")), (hi - lo, 1))
        parts, texts = [_text_slots(np.arange(lo + 1, hi + 1, dtype=np.int64))], {}
        for column, first in zip(columns, firsts):
            if first not in texts:
                chunk = column[lo:hi]
                own = chunk.view(f"u{chunk.itemsize}")
                if (own == own[0]).all():
                    literal = np.frombuffer(repr(chunk[:1].tolist()[0]).encode(), dtype=np.uint8)
                    texts[first] = np.broadcast_to(literal, (hi - lo, literal.size))
                else:
                    texts[first] = _text_slots(chunk)
            parts += [comma, texts[first]]
        parts.append(np.broadcast_to(np.uint8(ord("\n")), (hi - lo, 1)))
        fh.write(np.concatenate(parts, axis=1).tobytes().translate(None, b"\0").decode())


class DegenerateCurveError(ValueError):
    """Raised when a curve has non-positive cumulative excess at a checkpoint."""


@dataclass(frozen=True)
class RegretCurve:
    """Per-replicate exact conditional risks against the moving benchmark."""

    risks: np.ndarray  # (replicates, horizon)
    inf_risks: np.ndarray  # (horizon,)
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.risks.ndim != 2:
            raise ValueError("risks must be (replicates, horizon)")
        if self.risks.shape[0] != len(self.seeds):
            raise ValueError("one replicate per seed required")
        if self.risks.shape[1] != self.inf_risks.size:
            raise ValueError("inf_risks length must equal the horizon")
        if np.min(self.risks - self.inf_risks[None, :]) < -EXCESS_TOL:
            raise ValueError("per-step excess fell below -1e-12; risks are inconsistent")

    @property
    def horizon(self) -> int:
        return self.risks.shape[1]

    @property
    def replicates(self) -> int:
        return self.risks.shape[0]

    @functools.cached_property
    def mean_risk(self) -> np.ndarray:
        return self.risks.mean(axis=0)

    @functools.cached_property
    def cum_excess(self) -> np.ndarray:
        return np.cumsum(self.mean_risk - self.inf_risks)

    def replicate_cum_excess(self) -> np.ndarray:
        return np.cumsum(self.risks - self.inf_risks[None, :], axis=1)

    def ci_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Normal-approximation 95% CI for the replicate-mean cumulative excess."""
        return self._ci  # computed once per curve, as are mean_risk and cum_excess: shared arrays, not to be written

    @functools.cached_property
    def _ci(self) -> tuple[np.ndarray, np.ndarray]:
        if self.replicates < 2:
            return self.cum_excess, self.cum_excess  # one array, so its curve text is rendered once
        per_rep = self.replicate_cum_excess()
        center = per_rep.mean(axis=0)
        se = per_rep.std(axis=0, ddof=1) / math.sqrt(self.replicates)
        return center - 1.96 * se, center + 1.96 * se

    def checkpoint_values(self, checkpoints: Sequence[int]) -> np.ndarray:
        cps = np.asarray(checkpoints, dtype=np.int64)
        if np.any(cps < 1) or np.any(cps > self.horizon):
            raise ValueError("checkpoints must lie in [1, horizon]")
        return self.cum_excess[cps - 1]

    def to_csv(self, path_out: str) -> None:
        """Replicate-aggregated curve: t, mean_risk, inf_risk, cum_excess, ci_lo, ci_hi.

        Written atomically: a failed write leaves any previous file in place.
        """
        lo, hi = self.ci_bounds()
        with _open_atomic(path_out) as fh:
            fh.write("t,mean_risk,inf_risk,cum_excess,ci_lo,ci_hi\n")
            write_curve_rows(fh, (self.mean_risk, self.inf_risks, self.cum_excess, lo, hi), 0, self.horizon)


def plan_group_starts(gaps: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """0-based first steps of the runs of equal (gap, window) plan rows."""
    changed = (gaps[1:] != gaps[:-1]) | (windows[1:] != windows[:-1])
    return np.concatenate(([0], np.flatnonzero(changed) + 1))


def _row_thetas(path: SamplePath, ranked: tuple | None, steps: np.ndarray, step_gaps: np.ndarray, count: int) -> np.ndarray:
    """Threshold ERM thetas of the 0-based ``steps``, step i fitting the ``count``
    points i - s * step_gaps[i], s = 1..count, solved in chunks of at most
    ERM_BATCH_ELEMENTS points.

    With ``ranked``, the path's ``_rank_space``, the rows go through
    ``_rank_threshold_erm``; a path without one (tied x, or an x of 1.0) goes
    through ``threshold_erm_rows``, the reference every kernel matches.  Both
    solve each row on its own, so steps of different gaps share a call.
    """
    thetas = np.empty(steps.size)
    lags = np.arange(1, count + 1)
    rows = max(1, ERM_BATCH_ELEMENTS // count)
    for first in range(0, steps.size, rows):
        chunk = slice(first, first + rows)
        pos = steps[chunk, None] - step_gaps[chunk, None] * lags
        thetas[chunk] = threshold_erm_rows(path.xs[pos], path.ys[pos]) if ranked is None else _rank_threshold_erm(ranked, pos)
    return thetas


def run_single(
    model: ProcessModel,
    learner: Learner,
    horizon: int,
    seed: int,
    checkpoint: Callable[[int, np.ndarray], None] | None = None,
) -> np.ndarray:
    """One replicate: exact risk(f_t, P_t) for t = 1..horizon.

    ``checkpoint(t, risks)`` is invoked after each power-of-two step with
    ``risks`` filled through index t-1, so callers can flush partial results.

    The steps are cut into runs of equal plan rows, also cut after every
    power of two; the per-step ``learner.step`` is the scalar reference they
    match.  When the path has a rank space, a gap-1 run of a window of at
    least SLIDE_MIN_WINDOW points goes SLIDE_BLOCK steps at a time through
    ``_sliding_threshold_erm``.  The other steps of a range between two powers
    of two, partial last blocks included, are grouped by their point count
    window // gap, and each count is solved by one ``_row_thetas`` call.  The
    thetas are turned into risks in place, once per such range.
    """
    path = sample_path(model, horizon, seed)
    gaps, windows = learner.plan(horizon)
    marginals, eta = model.marginals, model.marginals.eta
    powers = 1 << np.arange(int(horizon).bit_length())
    # a set, not np.union1d: np.unique imports numpy.ma (18 ms) on first use
    starts = sorted({*plan_group_starts(gaps, windows).tolist(), *powers[powers < horizon].tolist()})
    space = functools.cache(lambda: _rank_space(path.xs, path.ys))  # one argsort and tie check per path, on first use
    risks = np.empty(horizon)
    flushed = 0  # risks[:flushed] are risks, the rest thetas
    pending: dict[int, list[np.ndarray]] = {}  # point count -> the row-kernel steps of this range not yet solved
    for start, stop in zip(starts, starts[1:] + [horizon]):
        gap, window = int(gaps[start]), int(windows[start])
        if window == 0:
            risks[start:stop] = 0.0  # the initial hypothesis, theta 0
        else:
            ranked = space()
            slide = ranked is not None and gap == 1 and window >= max(SLIDE_MIN_WINDOW, SLIDE_BLOCK)
            blocks = (stop - start) // SLIDE_BLOCK if slide else 0
            rest = start + blocks * SLIDE_BLOCK  # the first step left to a row kernel
            if blocks:
                risks[start:rest] = _sliding_threshold_erm(ranked, start, blocks, window, SLIDE_BLOCK, ERM_BATCH_ELEMENTS)
            if rest < stop:
                pending.setdefault(window // gap, []).append(np.arange(rest, stop))
        power = (stop & (stop - 1)) == 0
        if power or stop == horizon:
            for count, runs in pending.items():
                steps = np.concatenate(runs)
                risks[steps] = _row_thetas(path, space(), steps, gaps[steps], count)
            pending.clear()
            # eta + (1 - 2 eta) * |theta - theta_t|
            done = risks[flushed:stop]
            np.subtract(done, marginals.thetas[flushed:stop], out=done)
            np.abs(done, out=done)
            done *= 1.0 - 2.0 * eta
            done += eta
            flushed = stop
        if checkpoint is not None and power:
            checkpoint(stop, risks)
    return risks


def run_experiment(
    model: ProcessModel,
    learner: Learner,
    horizon: int,
    seeds: Sequence[int],
) -> RegretCurve:
    """Average exact conditional risks over seed replicates."""
    seeds = tuple(int(s) for s in seeds)
    if len(seeds) == 0:
        raise ValueError("at least one seed is required")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    risks = np.stack([run_single(model, learner, horizon, seed) for seed in seeds])
    return RegretCurve(risks=risks, inf_risks=np.full(horizon, model.marginals.eta), seeds=seeds)


def theoretical_exponent(alpha: float, r: float) -> float:
    """Predicted growth exponent alpha + (1-alpha)*(3+3r)/(3+4r) of cumulative excess."""
    _validate_alpha_r(alpha, r)
    return alpha + (1.0 - alpha) * (3.0 + 3.0 * r) / (3.0 + 4.0 * r)


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log cumulative excess against log T."""

    exponent: float
    intercept: float
    t_min: int
    t_max: int
    residual_norm: float
    theoretical: float | None = None

    def to_json(self) -> dict:
        return asdict(self)


def geometric_checkpoints(t_min: int, t_max: int, ratio: float = math.sqrt(2.0)) -> tuple[int, ...]:
    """Geometric integer grid from t_min to t_max (both included).

    The grid rounds t_min * ratio**i, built by repeated multiplication.  A
    ratio that would take more than GRID_MAX_STEPS multiplications is either
    one whose steps stay below one up to t_max (t_max * (ratio - 1) <= 1/2),
    whose grid is every integer of [t_min, t_max] as no rounding skips one,
    or is rejected with ValueError.
    """
    if not 1 <= t_min < t_max:
        raise ValueError(f"need 1 <= t_min < t_max, got {t_min}, {t_max}")
    if ratio <= 1.0:
        raise ValueError(f"ratio must exceed 1, got {ratio}")
    if math.log(t_max / t_min) / math.log1p(ratio - 1.0) > GRID_MAX_STEPS:
        if t_max * (ratio - 1.0) <= 0.5 and t_max - t_min < GRID_MAX_STEPS:
            return tuple(range(t_min, t_max + 1))
        raise ValueError(f"ratio {ratio!r} is too close to 1: over {GRID_MAX_STEPS} steps from {t_min} to {t_max}")
    points = []
    value = float(t_min)
    while value < t_max:
        points.append(int(round(value)))
        value *= ratio
    points.append(t_max)
    return tuple(sorted(set(points)))


def default_checkpoints(horizon: int) -> tuple[int, ...]:
    """Powers of two from DEFAULT_CHECKPOINT_MIN up to min(horizon, DEFAULT_CHECKPOINT_MAX)."""
    top = min(horizon, DEFAULT_CHECKPOINT_MAX)
    if top < DEFAULT_CHECKPOINT_MIN:
        raise ValueError(f"horizon {horizon} too short for checkpoints starting at {DEFAULT_CHECKPOINT_MIN}")
    if top == DEFAULT_CHECKPOINT_MIN:
        return (top,)
    return geometric_checkpoints(DEFAULT_CHECKPOINT_MIN, top, 2.0)


def _log_log_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Least-squares slope and intercept of log y against log x, and the residuals of log y."""
    log_x, log_y = np.log(x), np.log(y)
    design = np.column_stack([log_x, np.ones_like(log_x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, log_y, rcond=None)
    return slope, intercept, log_y - design @ np.array([slope, intercept])


def fit_growth_exponent(
    checkpoints: Sequence[int],
    cum_excess: Sequence[float],
    theoretical: float | None = None,
) -> RateFit:
    """Fit cum_excess ~ exp(intercept) * T^exponent over the checkpoint grid.

    Requires at least 8 checkpoints and positive cumulative excess at each;
    a non-positive value marks the curve degenerate for log-log fitting.
    """
    ts = np.asarray(checkpoints, dtype=float)
    values = np.asarray(cum_excess, dtype=float)
    if ts.size != values.size:
        raise ValueError("checkpoints and cum_excess must have equal length")
    if ts.size < MIN_FIT_POINTS:
        raise ValueError(f"rate fits need at least {MIN_FIT_POINTS} checkpoints, got {ts.size}")
    if np.any(ts[1:] <= ts[:-1]):
        raise ValueError("checkpoints must be strictly increasing")
    if np.any(values <= 0.0):
        bad = int(ts[np.argmax(values <= 0.0)])
        raise DegenerateCurveError(
            f"cumulative excess is non-positive at checkpoint T={bad}; fit skipped"
        )
    slope, intercept, residuals = _log_log_line(ts, values)
    return RateFit(
        exponent=float(slope),
        intercept=float(intercept),
        t_min=int(ts[0]),
        t_max=int(ts[-1]),
        residual_norm=float(np.sqrt(np.mean(residuals**2))),
        theoretical=theoretical,
    )


@dataclass(frozen=True)
class BlockingReport:
    """Exact TV gap between a k-spaced block law and the product of its marginals."""

    states: int
    blocks: int
    gap: int
    tv_gap: float
    bound: float

    @property
    def slack(self) -> float:
        return self.bound - self.tv_gap

    def to_json(self) -> dict:
        return {**asdict(self), "slack": self.slack}


def verify_blocking(model: ProcessModel, blocks: int, gap: int) -> BlockingReport:
    """Compare the joint law of hidden states at times t, t+gap, ..., against the
    product of its marginals; the TV gap never exceeds (blocks-1) * beta_gap.
    The chain starts stationary, so this block law is the same at every t.

    Computed on hidden states (observations are states plus independent noise,
    so the observation-level gap is no larger).  Exact via matrix powers.
    """
    if blocks < 1 or gap < 1:
        raise ValueError("blocks and gap must both be >= 1")
    if blocks > BLOCKING_MAX_BLOCKS:
        raise ValueError(f"blocks capped at {BLOCKING_MAX_BLOCKS} for exact enumeration")
    if gap > BLOCKING_MAX_GAP:
        raise ValueError(f"gap capped at {BLOCKING_MAX_GAP} for exact enumeration")
    if isinstance(model, ProductProcess):
        return BlockingReport(states=0, blocks=blocks, gap=gap, tv_gap=0.0, bound=0.0)
    assert isinstance(model, MarkovModulatedProcess)
    states = model.states
    if states > BLOCKING_MAX_STATES:
        raise ValueError(f"states capped at {BLOCKING_MAX_STATES} for exact enumeration")
    pi = model.stationary
    step_law = np.linalg.matrix_power(model.transition_array(), gap)
    joint = pi.copy()
    for _ in range(blocks - 1):
        joint = joint[..., None] * step_law
    product = pi.copy()
    for _ in range(blocks - 1):
        product = np.multiply.outer(product, pi)
    tv_gap = 0.5 * float(np.abs(joint - product).sum())
    bound = (blocks - 1) * beta_coefficient(model, gap)
    return BlockingReport(states=states, blocks=blocks, gap=gap, tv_gap=tv_gap, bound=bound)


@dataclass(frozen=True)
class UniformDeviationReport:
    """Mean exact sup-deviation per sample size, with its sqrt(d/m) envelope."""

    d: int
    m_grid: tuple[int, ...]
    trials: int
    estimates: tuple[float, ...]
    fitted_exponent: float
    envelope_constant: float

    def ratios(self) -> np.ndarray:
        ms = np.asarray(self.m_grid, dtype=float)
        return np.asarray(self.estimates) / np.sqrt(self.d / ms)

    def to_json(self) -> dict:
        return asdict(self)


def _averaged_risk(
    thetas: np.ndarray, eta: float
) -> tuple[Callable[[np.ndarray, np.ndarray], np.ndarray], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The averaged true risk rbar(q) = eta + (1-2 eta) * mean_i |q - theta_i| of
    threshold q over m concepts in [0, 1], its kinks, the risk at each kink, and
    the bucket table that ranks queries among the distinct thetas.

    The kinks are 0, the distinct sorted thetas and 1: equal thetas make equal
    kinks, which add equal terms to a max.  ``rbar(queries, ranks)`` takes each
    query's rank among the distinct thetas, searchsorted(kinks[1:-1], q, 'left').
    It gathers that rank's terms from per-rank tables: n = #{theta < q} as a
    float, the sum S_n of those thetas, S - S_n and m - n as a float, and
    evaluates q n - S_n + (S - S_n) - q (m - n) in that order.

    The bucket table cuts [0, 1] into B buckets, B the least power of two
    >= 4 D for D distinct thetas, so q B is exact and q's bucket is floor(q B).
    ``starts[b]`` = #{distinct theta < b/B}, stored as int32, is the rank of
    every q in a bucket that holds no theta.  ``flagged[b]`` marks the buckets
    that hold a theta, and bucket B, where q = 1 lands.  A size builds these
    tables once, and all of its trials share them.
    """
    sorted_thetas = np.sort(thetas)
    m, scale = sorted_thetas.size, 1.0 - 2.0 * eta
    firsts = np.flatnonzero(np.append(True, sorted_thetas[1:] != sorted_thetas[:-1]))
    distinct = sorted_thetas[firsts]
    kinks = np.concatenate(([0.0], distinct, [1.0]))
    starts, flagged = _bucket_table(distinct)
    n = np.append(firsts, m)  # #{theta < q} by the rank of q; below and above are prefix sums
    below = np.concatenate(([0.0], np.cumsum(sorted_thetas)))[n]
    idx, rest, above = n.astype(float), (m - n).astype(float), below[-1] - below

    def rbar(queries: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        # sum_i |q - theta_i| from the prefix sums of the thetas below q and above it
        return eta + scale * (queries * idx[ranks] - below[ranks] + above[ranks] - queries * rest[ranks]) / m

    return rbar, kinks, rbar(kinks, np.searchsorted(distinct, kinks)), starts, flagged


def _bucket_table(distinct: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``starts`` and ``flagged`` of ``_averaged_risk`` for the sorted distinct thetas."""
    buckets = 1 << (4 * distinct.size - 1).bit_length()
    # theta < b/B exactly when floor(theta B) < b, so starts counts the thetas of the buckets below
    counts = np.bincount((distinct * buckets).astype(np.intp), minlength=buckets + 1)
    starts = np.zeros(buckets + 1, dtype=np.int32)
    np.cumsum(counts[:-1], out=starts[1:])
    flagged = counts > 0
    flagged[buckets] = True
    return starts, flagged


def _threshold_sup_deviation(
    x: np.ndarray,
    labels: np.ndarray,
    rbar: Callable[[np.ndarray, np.ndarray], np.ndarray],
    kinks: np.ndarray,
    kink_risks: np.ndarray,
    starts: np.ndarray,
    flagged: np.ndarray,
) -> np.ndarray:
    """Exact sup over theta in [0,1] of |empirical loss - averaged true risk|
    for each row of (rows, m) samples, given as x sorted along each row and
    the uint8 labels in that order.

    The empirical term is constant between consecutive sorted sample points
    and the averaged risk is piecewise linear, so the supremum is attained (or
    approached one-sidedly) at a sample point, a risk kink, or an endpoint;
    all are evaluated, including right-limits at sample points.  ``rbar``,
    ``kinks``, ``kink_risks`` and the bucket table ``starts`` and ``flagged``
    come from ``_averaged_risk``.

    Threshold q labels 1 the sorted points from searchsorted(x, q, 'left') on.
    Each x in [0, 1] is ranked among the distinct thetas as
    ``starts[floor(x B)]``, which is all rbar needs; only the x in flagged
    buckets are searched.  Among those, an x equal to the theta it ranks at,
    or to 1, marks its row as touching a kink.  Counting ranks (one bincount
    and a cumsum) gives #{x <= kink} for every kink: its cut, unless an x
    equals it.  A row of distinct x touching no kink is done: each x is its
    own group, below 1, so both limits at each x are realizable.  Every other
    row searches the kinks into its x and reads tie groups: at q = x_i the cut
    is the start of x_i's group and the right-limit at x_i cuts at its end, so
    one rbar per distinct x serves its group.  Only group boundaries are read,
    and their losses ignore the order of tied points, so the labels of a tie
    group may come in any order.  The right-limit at 0 is the value at 0 or
    the right-limit at x = 0.
    """
    rows, m = x.shape
    ones_before = np.zeros((rows, m + 1), dtype=np.int64)
    np.cumsum(labels, axis=1, dtype=np.int64, out=ones_before[:, 1:])
    # the loss of cut j, ones before j plus zeros from j on, is 2 ones_before[j] - j + (m - ones)
    losses = ones_before * 2 - np.arange(m + 1)
    losses += m - ones_before[:, -1:]
    del ones_before
    emp = losses / m
    del losses  # losses and ranks are freed once read: the temporaries at the largest m set a verify run's peak memory
    buckets = (x * (starts.size - 1)).astype(np.intp)  # exact: the bucket count is a power of two
    ranks = starts[buckets].astype(np.intp)  # rbar's four gathers would each cast int32 indices
    hits = np.flatnonzero(flagged[buckets])
    del buckets
    hit_x = x.ravel()[hits]
    hit_ranks = np.searchsorted(kinks[1:-1], hit_x)
    ranks.ravel()[hits] = hit_ranks
    # kinks[rank + 1] is the least kink >= x: the theta x ranks at, or 1
    on_kink = np.zeros(rows, dtype=bool)
    on_kink[hits[hit_x == kinks[hit_ranks + 1]] // m] = True
    bins, row = kinks.size, np.arange(rows)[:, None]
    # cuts[:, k] = #{j : ranks_j < k} = #{x <= kinks[k]}, which is #{x < kinks[k]} unless an x equals the kink
    cuts = np.bincount((ranks + (row * bins + 1)).ravel(), minlength=rows * bins).reshape(rows, bins).cumsum(axis=1)
    risks = rbar(x, ranks)
    del ranks
    tied = (x[:, 1:] == x[:, :-1]).any(axis=1) | on_kink
    best = np.maximum(
        np.abs(emp.ravel()[cuts + row * (m + 1)] - kink_risks).max(axis=1),
        np.maximum(np.abs(emp[:, :-1] - risks), np.abs(emp[:, 1:] - risks)).max(axis=1),
    )
    for r in np.flatnonzero(tied):
        row_x, row_emp = x[r], emp[r]
        value = float(np.max(np.abs(row_emp[np.searchsorted(row_x, kinks, side="left")] - kink_risks)))
        bounds = np.flatnonzero(row_x[1:] != row_x[:-1]) + 1
        group_starts = np.append(0, bounds)
        at, after, row_risks = row_emp[group_starts], row_emp[np.append(bounds, m)], risks[r, group_starts]
        value = max(value, float(np.max(np.abs(at - row_risks))))
        inner = group_starts.size - int(row_x[-1] >= 1.0)  # a split to the right of x=1 is unrealizable
        if inner:
            value = max(value, float(np.max(np.abs(after[:inner] - row_risks[:inner]))))
        best[r] = value
    return best


def _score_trials(paths: tuple[ConceptPath, ...], grid: tuple[int, ...], trials: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Sup-deviations of trials start..stop-1 of the (size, trial) sequence,
    trial index s * trials + i for the i-th trial of grid[s]; a row per path.

    The generator of ``seed`` is advanced past the 2 m doubles of every
    earlier trial, so a trial draws the same values wherever a run starts.
    """
    rng = np.random.default_rng(seed)
    first_size, first_trial = divmod(start, trials)
    rng.bit_generator.advance(2 * (trials * sum(grid[:first_size]) + first_trial * grid[first_size]))
    values = np.empty((len(paths), stop - start))
    for s, m in enumerate(grid):
        lo, hi = max(start, s * trials), min(stop, (s + 1) * trials)
        if lo >= hi:
            continue
        tables = [(path.thetas[:m], path.eta, _averaged_risk(path.thetas[:m], path.eta)) for path in paths]
        batch = max(1, SUP_DEVIATION_BATCH_ELEMENTS // m)
        for done in range(lo, hi, batch):
            # row r holds the xs and flip draws of one trial, in the order a trial draws them
            draws = rng.random((min(batch, hi - done), 2, m))
            xs, flips = draws[:, 0], draws[:, 1]
            bits = 0
            for thetas, eta, _ in tables:  # the first path's label ends up in the higher bit
                bits = bits << 1 | ((xs >= thetas) ^ (flips < eta)).view(np.uint8)
            keys = xs.view(np.uint64) << 2
            keys |= bits
            del draws, xs, flips, bits
            keys.sort(axis=1)
            x, low = (keys >> 2).view(float), keys.astype(np.uint8)  # the low byte holds the label bits
            del keys
            for p, (_, _, averaged) in enumerate(tables):
                labels = (low >> (len(tables) - 1 - p)) & 1
                values[p, done - start : done - start + x.shape[0]] = _threshold_sup_deviation(x, labels, *averaged)
    return values


def verify_uniform_deviation(
    paths: Sequence[Sequence[Marginal]],
    m_grid: Sequence[int],
    trials: int,
    seed: int,
    jobs: int = 1,
) -> tuple[UniformDeviationReport, ...]:
    """Estimate E[sup-deviation] on independent draws Z'_i ~ P_i, i = 1..m,
    for one or two marginal paths, one report each.

    Each trial draws the m points independently (marginals may differ across
    i), computes the exact supremum of |empirical mean loss - averaged true
    loss| over the thresholds (``ThresholdClass``, d = 1), and the per-m
    trial means are fitted log-log against m.  An envelope constant
    max_m estimate / sqrt(d/m) is reported.

    The paths share every draw: a trial's x and flip values are drawn once, in
    the order a single path's trial draws them, so each report equals the one
    a call with that path alone and the same seed returns.  Each path labels
    the points (x >= theta_i) ^ (flip < eta), and a row is sorted once by the
    uint64 key x_bits << 2 | y_a << 1 | y_b (x_bits << 2 | y_a for one path):
    non-negative doubles order like their bits, and x in [0, 1] leaves the top
    two of them clear, so a key holds the labels of at most two paths.

    ``jobs`` > 1 cuts the run's (size, trial) sequence at trials into at most
    ``jobs`` runs of near-equal sample points, scored by forked workers
    (``fork_map``).  Each run draws from the seed's generator advanced past
    the trials before it, and each size's trial values are added in trial
    order, so the reports do not depend on ``jobs``.
    """

    def integral(value) -> bool:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)

    if not integral(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    trials = int(trials)
    if trials < 2:
        raise ValueError(f"insufficient trials for a deviation estimate, got {trials}")
    if not all(integral(m) for m in m_grid):
        raise ValueError(f"every m must be an integer, got {list(m_grid)}")
    grid = tuple(int(m) for m in m_grid)
    if len(grid) == 0:
        raise ValueError("m_grid must be non-empty")
    if any(m < 1 for m in grid):
        raise ValueError("every m must be >= 1")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("m_grid must be strictly increasing")
    paths = tuple(paths)
    if not 1 <= len(paths) <= 2:
        raise ValueError(f"a sort key holds the labels of one or two marginal paths, got {len(paths)}")
    for marginals in paths:
        if grid[-1] > len(marginals):
            raise ValueError(f"marginal path length {len(marginals)} < max m {grid[-1]}")
    if not all(isinstance(marginals, ConceptPath) for marginals in paths):
        raise ValueError("threshold classes require ThresholdConcept marginal paths")
    if not integral(jobs) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")

    # the (size, trial) sequence cut at trials into at most `jobs` runs of near-equal sample points
    ends = np.cumsum(np.repeat(grid, trials))
    cuts = np.searchsorted(ends, ends[-1] * np.arange(1, jobs) / jobs) + 1
    bounds = sorted({0, *cuts.tolist(), ends.size})
    score = functools.partial(_score_trials, paths, grid, trials, seed)
    values = np.concatenate(fork_map(score, len(bounds) - 1, bounds[:-1], bounds[1:]), axis=1)
    # cumsum adds each size's trials in trial order, one at a time, as a serial loop does
    est = np.cumsum(values.reshape(len(paths), len(grid), trials), axis=2)[:, :, -1] / trials  # a row per path
    ms = np.asarray(grid, dtype=float)
    envelopes = np.max(est / np.sqrt(ThresholdClass.d / ms), axis=1)
    return tuple(
        UniformDeviationReport(
            d=ThresholdClass.d,
            m_grid=grid,
            trials=trials,
            estimates=tuple(row.tolist()),
            fitted_exponent=float(_log_log_line(ms, row)[0]) if np.all(row > 0.0) and len(grid) >= 2 else float("nan"),
            envelope_constant=float(envelope),
        )
        for row, envelope in zip(est, envelopes)
    )
