"""Property tests: any config resolves or names its bad key in bounded time, a
resolved small config runs, and the CLI exits with a documented code."""

import copy
import json
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from driftlab import (
    AdaptiveWindowLearner,
    BaselineLearner,
    ConfigError,
    ConstantWindowLearner,
    SubsampledErmLearner,
    build_learner,
    build_model,
    resolve_config,
    run_config,
)
from driftlab.cli import main
from driftlab.distributions import SCHEDULE_KINDS
from driftlab.harness import KEYS, KINDS
from driftlab.learners import BASELINE_KINDS

TINY = [5e-324, 1e-323, 2.2250738585072014e-308]  # subnormals and the smallest normal float
BELOW_ONE = 1.0 - 2.0**-53


def _floats(lo: float, hi: float, edges: list) -> st.SearchStrategy:
    """Floats in [lo, hi], with the boundary values in ``edges`` drawn often."""
    return st.one_of(st.floats(lo, hi), st.sampled_from(edges))


# the valid values of each key, boundaries and subnormals included; checkpoints are drawn per horizon
VALID = {
    "horizon": st.one_of(st.integers(1, 64), st.sampled_from([1, 2, 64])),
    "seeds": st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True),
    "drift.kind": st.sampled_from(["power_step", "constant", "triangle_wave"]),
    "drift.alpha": _floats(0.0, BELOW_ONE, [0.0, *TINY, BELOW_ONE]),
    "drift.gamma": _floats(TINY[0], 0.2, [*TINY, 0.2]),
    "drift.c0": _floats(TINY[0], 1.0, [*TINY, 1.0, sys.float_info.max]),
    "drift.seed": st.integers(0, 2**64),
    "concept.eta": _floats(0.0, 0.25, [0.0, *TINY]),
    "concept.theta0": _floats(0.0, 1.0, [0.0, *TINY, BELOW_ONE, 1.0]),
    "process.kind": st.sampled_from(["product", "markov_modulated"]),
    "process.states": st.integers(2, 16),
    "process.flip": _floats(TINY[0], BELOW_ONE, [*TINY, BELOW_ONE]),
    "learner.kind": st.sampled_from(
        ["subsampled_erm", "adaptive_window", "constant_window", "full_history_erm", "last_point"]
    ),
    "learner.alpha": _floats(0.0, BELOW_ONE, [0.0, *TINY, BELOW_ONE]),
    "learner.r": _floats(TINY[0], 1e300, [*TINY, 4e307]),
    "learner.gamma": _floats(TINY[0], 1.0, [*TINY, 1.0]),
}
# ints beyond every range, values of the wrong type, non-finite and extreme finite floats
WRONG = [2**64, 10**400, -1, 0, None, True, "0.5", [], {}, float("nan"), float("inf"), -float("inf")]
# any value may be replaced by a wrong one, any finite float or a valid value of another key
ANY_VALUE = st.one_of(
    st.sampled_from(WRONG), st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**70), 2**70), *VALID.values()
)


def test_valid_draws_every_table_key():
    # VALID's values stay hand-picked, but a key added to the table must be drawn here too
    assert set(VALID) == set(KEYS) | {f"{section}.kind" for section in KINDS}


def test_table_kinds_are_the_kinds_the_builders_take():
    assert set(KINDS["drift"]) == set(SCHEDULE_KINDS)
    base = {"horizon": 8, "seeds": [0], "drift": {"kind": "constant", "gamma": 0.01}, "process": {"kind": "product"}}
    built = {}
    for kind in KINDS["learner"]:
        learner = {"kind": kind, **({"r": 1.0} if "r" in KINDS["learner"][kind] else {})}
        resolved = resolve_config({**base, "learner": learner})
        built[kind] = type(build_learner(resolved, build_model(resolved)[1]))
    assert built == {
        "subsampled_erm": SubsampledErmLearner,
        "adaptive_window": AdaptiveWindowLearner,
        "constant_window": ConstantWindowLearner,
        **dict.fromkeys(BASELINE_KINDS, BaselineLearner),
    }
    with pytest.raises(ValueError, match="unknown baseline"):
        build_learner({"learner": {"kind": "nope"}}, build_model(resolved)[1])


def checkpoints_for(horizon: int) -> st.SearchStrategy:
    ratios = _floats(1.0, 4.0, [1.0, 1.0 + 2.0**-52, 2.0])
    spans = st.tuples(st.integers(1, horizon), st.integers(1, horizon)).filter(lambda span: span[0] != span[1])
    return st.one_of(
        st.lists(st.integers(1, horizon), min_size=1, max_size=4, unique=True).map(sorted),
        st.builds(lambda span, ratio: {"t_min": min(span), "t_max": max(span), "ratio": ratio}, spans, ratios),
    )


def _config(values: dict) -> dict:
    config: dict = {}
    for path, value in values.items():
        *sections, key = path.split(".")
        node = config
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
    return config


def _read_by(key: str, kinds: dict) -> bool:
    """Whether a config of the drawn ``kinds`` reads ``key``: keys outside the kinded sections always are."""
    section, _, leaf = key.partition(".")
    return section not in kinds or leaf == "kind" or leaf in KINDS[section][kinds[section]]


@st.composite
def raw_configs(draw):
    # the keys the drawn kinds read, and in a quarter of the draws one valid key that they do not
    kinds = {section: draw(VALID[f"{section}.kind"]) for section in KINDS}
    values = {f"{section}.kind": kind for section, kind in kinds.items()}
    values.update({key: draw(strategy) for key, strategy in VALID.items() if key not in values and _read_by(key, kinds)})
    unread = [key for key in VALID if not _read_by(key, kinds)]
    if unread and draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(unread))
        values[key] = draw(VALID[key])
    if values["horizon"] > 1:
        values["checkpoints"] = draw(checkpoints_for(values["horizon"]))
    keys = sorted(values)
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        values[key] = draw(ANY_VALUE)
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        values.pop(key, None)  # a missing key takes its default or is named as required
    return _config(values)


def _resolve(raw: dict) -> dict | None:
    start = time.monotonic()
    try:
        resolved = resolve_config(copy.deepcopy(raw))
    except ConfigError:
        resolved = None
    assert time.monotonic() - start < 2.0
    return resolved


def _small(resolved: dict) -> bool:
    return resolved["horizon"] <= 64 and len(resolved["seeds"]) <= 2


MARKOV_FLIP = {
    "horizon": 64,
    "seeds": [0],
    "drift": {"kind": "constant", "gamma": 0.01},
    "learner": {"kind": "constant_window"},
}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=raw_configs())
@example(raw={**MARKOV_FLIP, "process": {"kind": "markov_modulated", "states": 3, "flip": 5e-324}})
@example(raw={**MARKOV_FLIP, "process": {"kind": "markov_modulated", "states": 16, "flip": 1e-323}})
@example(raw={**MARKOV_FLIP, "process": {"kind": "markov_modulated", "states": 2, "flip": 5e-324}})
def test_config_resolves_or_names_key_and_small_runs_finish(raw):
    resolved = _resolve(raw)
    if resolved is not None and _small(resolved):
        with tempfile.TemporaryDirectory() as out:
            _, curve = run_config(resolved, out)
        assert curve.risks.shape == (len(resolved["seeds"]), resolved["horizon"])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=raw_configs())
@example(raw={**MARKOV_FLIP, "process": {"kind": "markov_modulated", "states": 3, "flip": 5e-324}})
def test_simulate_exits_0_or_2(raw):
    resolved = _resolve(raw)
    if resolved is not None and not _small(resolved):
        return
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw))
        code = main(["simulate", "--config", str(config), "--out", str(Path(tmp) / "out")])
    assert code == (2 if resolved is None else 0)


def _flag_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


# bounded sizes only: every value drawn here runs in well under a second
VERIFY_VALUES = {
    "--trials": st.integers(-2, 20),
    "--pairs": st.integers(-2, 50),
    "--seed": st.one_of(st.integers(-2, 10), st.just(2**64)),
    "--m-grid": st.one_of(
        st.lists(st.integers(1, 256), min_size=2, max_size=4, unique=True).map(sorted),
        st.lists(st.integers(-2, 256), min_size=1, max_size=4),
        st.sampled_from(["x", ",", "", "1.5"]),
    ),
}
# a family that runs at its default otherwise (uniform_deviation's 2000 trials to size 16384,
# discrepancy's 10000 pairs) always gets these
VERIFY_REQUIRED = {"uniform_deviation": ("--trials", "--m-grid"), "discrepancy": ("--pairs",)}


@st.composite
def verify_args(draw):
    kind = draw(st.sampled_from(["blocking", "uniform_deviation", "discrepancy", "mixing_rate"]))
    flags = set(draw(st.lists(st.sampled_from(sorted(VERIFY_VALUES)), max_size=2, unique=True)))
    flags.update(VERIFY_REQUIRED.get(kind, ()))
    args = ["verify", "--kind", kind]
    for flag in sorted(flags):
        args.append(f"{flag}={_flag_text(draw(VERIFY_VALUES[flag]))}")
    return args


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(args=verify_args())
def test_verify_exits_0_1_or_2(args):
    with tempfile.TemporaryDirectory() as tmp:
        code = main([*args, "--out", str(Path(tmp) / "report.json")])
    assert code in (0, 1, 2)
