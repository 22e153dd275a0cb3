"""Config validation, deterministic run orchestration, sweeps, verify and CLI."""

import contextlib
import copy
import csv
import errno
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import driftlab
import driftlab.evaluation as evaluation_mod
import driftlab.harness as harness_mod
import driftlab.learners as learners_mod
from driftlab import (
    AdaptiveWindowLearner,
    BaselineLearner,
    ConfigError,
    ConstantWindowLearner,
    MarkovModulatedProcess,
    ProductProcess,
    SubsampledErmLearner,
    build_learner,
    build_model,
    config_hash,
    fit_growth_exponent,
    refit_rates,
    resolve_config,
    run_config,
    run_sweep,
    run_verify,
)
from driftlab.cli import build_parser, main
from driftlab.harness import VERIFY_FAMILIES, VERIFY_FLAGS, write_text_atomic

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CONFIG_DOCS = Path(__file__).resolve().parent.parent / "docs" / "config.md"
README = Path(__file__).resolve().parent.parent / "README.md"


def base_config(**overrides):
    cfg = {
        "horizon": 512,
        "seeds": [0, 1],
        "out": "out",
        "drift": {"kind": "power_step", "alpha": 0.25, "c0": 0.5},
        "concept": {"eta": 0.1, "theta0": 0.5},
        "process": {"kind": "product"},
        "function_class": {"kind": "threshold"},
        "learner": {"kind": "subsampled_erm", "r": 2.0},
        "checkpoints": [2, 4, 8, 16, 32, 64, 128, 256, 512],
    }
    cfg.update(overrides)
    return cfg


class TestResolveDefaults:
    def test_minimal_config_fills_defaults(self):
        resolved = resolve_config(
            {
                "horizon": 512,
                "seeds": [0],
                "drift": {"kind": "power_step", "alpha": 0.25},
                "process": {"kind": "product"},
                "learner": {"kind": "subsampled_erm", "r": 1.0},
            }
        )
        assert resolved["out"] == "out"
        assert resolved["concept"] == {"eta": 0.1, "theta0": 0.5}
        assert resolved["function_class"] == {"kind": "threshold"}
        assert resolved["drift"]["c0"] == 1.0 and resolved["drift"]["seed"] == 0
        assert resolved["learner"]["alpha"] == 0.25  # inherited from drift
        assert resolved["checkpoints"] == [256, 512]

    def test_short_horizon_checkpoint_fallback(self):
        resolved = resolve_config(base_config(horizon=100, checkpoints=None))
        assert resolved["checkpoints"] == [100]
        resolved = resolve_config(base_config(horizon=1000, checkpoints=None))
        assert resolved["checkpoints"] == [256, 512, 1000]

    def test_constant_drift_learner_gamma_inherits(self):
        resolved = resolve_config(
            base_config(
                drift={"kind": "constant", "gamma": 0.02},
                learner={"kind": "constant_window"},
            )
        )
        assert resolved["learner"]["gamma"] == 0.02
        assert resolved["drift"]["alpha"] == 0.0

    def test_constant_drift_alpha_is_kept_and_inherited(self):
        resolved = resolve_config(base_config(drift={"kind": "constant", "gamma": 0.02, "alpha": 0.3}))
        assert resolved["drift"] == {"kind": "constant", "gamma": 0.02, "alpha": 0.3, "seed": 0}
        assert resolved["learner"]["alpha"] == 0.3

    def test_empty_function_class_takes_the_threshold_kind(self):
        assert resolve_config(base_config(function_class={}))["function_class"] == {"kind": "threshold"}

    def test_geometric_checkpoint_spec(self):
        resolved = resolve_config(base_config(checkpoints={"t_min": 64, "t_max": 512}))
        cps = resolved["checkpoints"]
        assert cps[0] == 64 and cps[-1] == 512
        assert all(b > a for a, b in zip(cps, cps[1:]))

    def test_ratio_next_to_one_resolves_in_bounded_time(self):
        start = time.monotonic()
        checkpoints = {"t_min": 1, "t_max": 512, "ratio": 1.0000000000000002}
        assert resolve_config(base_config(checkpoints=checkpoints))["checkpoints"] == list(range(1, 513))
        assert time.monotonic() - start < 2.0

    def test_resolved_config_is_idempotent(self):
        resolved = resolve_config(base_config())
        assert resolve_config(copy.deepcopy(resolved)) == resolved


ERROR_CASES = [
    ({"extra": 1}, "extra"),
    ({"horizon": 0}, "horizon"),
    ({"horizon": "x"}, "horizon"),
    ({"seeds": []}, "seeds"),
    ({"seeds": [0, 0]}, "seeds"),
    ({"seeds": [-1]}, "seeds"),
    ({"seeds": [True]}, "seeds"),
    ({"out": ""}, "out"),
    ({"drift": {"kind": "nope"}}, "drift.kind"),
    ({"drift": {"kind": "power_step", "alpha": 0.25, "extra": 1}}, "drift.extra"),
    ({"drift": {"kind": "constant"}}, "drift.gamma"),
    ({"drift": {"kind": "constant", "gamma": 0.0}}, "drift.gamma"),
    ({"drift": {"kind": "constant", "gamma": 1.5}}, "drift.gamma"),
    ({"drift": {"kind": "constant", "gamma": 0.9}}, "concept.eta"),
    ({"drift": {"kind": "power_step", "alpha": 1.0}}, "drift.alpha"),
    ({"drift": {"kind": "power_step", "alpha": 0.25, "c0": 0.0}}, "drift.c0"),
    ({"drift": {"kind": "triangle_wave", "alpha": 0.25, "seed": -1}}, "drift.seed"),
    ({"concept": {"eta": 0.5}}, "concept.eta"),
    ({"concept": {"theta0": 1.5}}, "concept.theta0"),
    (
        {"drift": {"kind": "power_step", "alpha": 0.0, "c0": 1.0}, "concept": {"eta": 0.3}},
        "concept.eta",
    ),
    ({"process": {"kind": "nope"}}, "process.kind"),
    ({"process": {"kind": "markov_modulated"}}, "process.states"),
    ({"process": {"kind": "markov_modulated", "states": 17, "flip": 0.3}}, "process.states"),
    ({"process": {"kind": "markov_modulated", "states": 4}}, "process.flip"),
    ({"process": {"kind": "markov_modulated", "states": 4, "flip": 1.0}}, "process.flip"),
    # flip/(states-1) rounds to 0, so the chain would not be irreducible
    ({"process": {"kind": "markov_modulated", "states": 3, "flip": 5e-324}}, "process.flip"),
    ({"process": {"kind": "markov_modulated", "states": 16, "flip": 1e-323}}, "process.flip"),
    ({"function_class": {"kind": "finite_explicit"}}, "function_class.kind"),
    ({"function_class": {"kind": "nope"}}, "function_class.kind"),
    ({"function_class": {"kind": "threshold", "path": "classes.json"}}, "function_class.path"),
    ({"learner": {"kind": "nope"}}, "learner.kind"),
    ({"learner": {"kind": "subsampled_erm"}}, "learner.r"),
    ({"learner": {"kind": "subsampled_erm", "r": 0.0}}, "learner.r"),
    ({"learner": {"kind": "subsampled_erm", "r": 1.0, "alpha": 1.0}}, "learner.alpha"),
    ({"learner": {"kind": "constant_window"}}, "learner.gamma"),
    ({"learner": {"kind": "constant_window", "gamma": 0.0}}, "learner.gamma"),
    ({"learner": {"kind": "subsampled_erm", "r": 1.0, "extra": 2}}, "learner.extra"),
    ({"checkpoints": []}, "checkpoints"),
    ({"checkpoints": [0]}, "checkpoints"),
    ({"checkpoints": [600]}, "checkpoints"),
    ({"checkpoints": [4, 4]}, "checkpoints"),
    ({"checkpoints": "abc"}, "checkpoints"),
    ({"checkpoints": {"t_min": 0, "t_max": 10}}, "checkpoints.t_min"),
    ({"checkpoints": {"t_min": 4, "t_max": 600}}, "checkpoints.t_min"),
    ({"checkpoints": {"t_min": 4, "ratio": 1.0}}, "checkpoints.ratio"),
    ({"checkpoints": {"t_min": 4, "foo": 1}}, "checkpoints.foo"),
    ({"sweep": "x"}, "sweep"),
    ({"sweep": {"grid": {"seeds": [[0]]}}}, "sweep.grid.seeds"),
    ({"sweep": {"grid": {"drift.alpha": []}}}, "sweep.grid.drift.alpha"),
    ({"sweep": {"cells": [{"seeds": [0]}]}}, "sweep.cells"),
    ({"sweep": {"cells": "x"}}, "sweep.cells"),
    # a key of the section that its kind does not read
    ({"process": {"kind": "product", "states": 6}}, "process.states"),
    ({"process": {"kind": "product", "flip": 0.1}}, "process.flip"),
    ({"drift": {"kind": "power_step", "alpha": 0.25, "gamma": 0.5}}, "drift.gamma"),
    ({"learner": {"kind": "adaptive_window", "r": 1.0}}, "learner.r"),
    ({"learner": {"kind": "last_point", "gamma": 0.3}}, "learner.gamma"),
]


class TestResolveErrors:
    @pytest.mark.parametrize("overrides,key", ERROR_CASES, ids=[k for _, k in ERROR_CASES])
    def test_error_names_offending_key(self, overrides, key):
        with pytest.raises(ConfigError) as excinfo:
            resolve_config(base_config(**overrides))
        assert excinfo.value.key == key
        assert str(excinfo.value).startswith(f"{key}: ")

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config([1, 2])

    # a membership test on a dict would raise TypeError (exit 3) for these
    @pytest.mark.parametrize("section", ["drift", "process", "learner", "function_class"])
    @pytest.mark.parametrize("kind", [[], {}], ids=["list", "dict"])
    def test_unhashable_kind_names_the_kind(self, section, kind, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(base_config(**{section: {"kind": kind}})))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {section}.kind: must be " in capsys.readouterr().err

    def test_unread_key_exits_2_and_names_it(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(base_config(process={"kind": "product", "states": 6})))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "config error: process.states: not read by kind product" in capsys.readouterr().err

    def test_unread_key_is_checked_before_the_read_keys_values(self):
        with pytest.raises(ConfigError, match=r"^drift\.c0: not read by kind constant$"):
            resolve_config(base_config(drift={"kind": "constant", "gamma": 2.0, "c0": 1.0}))

    def test_constant_window_without_gamma_to_inherit_says_required(self):
        with pytest.raises(ConfigError, match=r"^learner\.gamma: required "):
            resolve_config(base_config(learner={"kind": "constant_window"}))


class TestKeyTableDocs:
    """docs/config.md and the key table name the same keys."""

    # a key in backticks, alone or with its range: `alpha`, `c0 > 0`
    NAMED = r"`(\w+)(?: [<>=≤≥][^`]*)?`"

    def _sections(self) -> dict:
        parts = re.split(r"^## (.+)$", CONFIG_DOCS.read_text(encoding="utf-8"), flags=re.M)
        return {title.strip("` "): body for title, body in zip(parts[1::2], parts[2::2])}

    def test_every_table_key_is_named_under_its_section(self):
        sections = self._sections()
        top_rows = dict(re.findall(r"^\| `(\w+)` \| ([^|]*) \|", sections["Top-level keys"], flags=re.M))
        for key in harness_mod.KEYS:
            section, _, leaf = key.rpartition(".")
            assert leaf in top_rows if not section else leaf in re.findall(self.NAMED, sections[section]), key
        # the top-level keys typed as numbers are the table's
        numeric = {name for name, kind in top_rows.items() if re.search(r"\bints?\b|float|number", kind)}
        assert numeric == {key for key in harness_mod.KEYS if "." not in key}

    def test_no_key_is_named_that_the_table_lacks(self):
        sections = self._sections()
        tabled = {key.partition(".")[0] for key in harness_mod.KEYS if "." in key}
        kinds = {kind for section in harness_mod.KINDS.values() for kind in section}
        for section in tabled:
            leaves = {key.partition(".")[2] for key in harness_mod.KEYS if key.startswith(f"{section}.")}
            named = set(re.findall(self.NAMED, sections[section]))
            assert named <= leaves | kinds | {"kind"}, section
        for ref in set(re.findall(r"`(\w+)\.(\w+)`", CONFIG_DOCS.read_text(encoding="utf-8"))):
            if ref[0] in tabled:
                assert ".".join(ref) in harness_mod.KEYS or ref[1] == "kind", ref


class TestReadmeConstants:
    def test_named_constants_match_the_code(self):
        """Every `NAME` = <int> in README.md names a constant a driftlab module defines, with that value."""
        named = re.findall(r"`([A-Z][A-Z0-9_]*)` = (\d+)", README.read_text(encoding="utf-8"))
        assert named
        modules = [importlib.import_module(f"driftlab.{info.name}") for info in pkgutil.iter_modules(driftlab.__path__)]
        for name, value in named:
            defined = [vars(module)[name] for module in modules if name in vars(module)]
            assert defined and all(type(v) is int and v == int(value) for v in defined), name


class TestConfigHash:
    def test_twelve_hex_chars(self):
        digest = config_hash(resolve_config(base_config()))
        assert len(digest) == 12
        int(digest, 16)

    def test_sweep_section_excluded(self):
        plain = resolve_config(base_config())
        swept = resolve_config(base_config(sweep={"cells": [{"drift.alpha": 0.0}]}))
        assert config_hash(plain) == config_hash(swept)

    def test_key_order_independent(self):
        resolved = resolve_config(base_config())
        reordered = {k: resolved[k] for k in reversed(list(resolved))}
        assert config_hash(reordered) == config_hash(resolved)

    def test_sensitive_to_values(self):
        a = config_hash(resolve_config(base_config()))
        b = config_hash(resolve_config(base_config(horizon=513, checkpoints=[256, 512])))
        assert a != b


class TestBuilders:
    def test_product_model(self):
        resolved = resolve_config(base_config())
        model, schedule = build_model(resolved)
        assert isinstance(model, ProductProcess)
        assert len(model.marginals) == 512
        assert schedule.horizon == 512

    def test_markov_model(self):
        resolved = resolve_config(
            base_config(process={"kind": "markov_modulated", "states": 4, "flip": 0.25})
        )
        model, _ = build_model(resolved)
        assert isinstance(model, MarkovModulatedProcess)
        assert model.states == 4
        assert model.transition[0][0] == pytest.approx(0.75)

    def test_learner_kinds(self):
        resolved = resolve_config(base_config())
        _, schedule = build_model(resolved)
        learner = build_learner(resolved, schedule)
        assert isinstance(learner, SubsampledErmLearner)
        assert learner.alpha == 0.25 and learner.r == 2.0

        for kind, cls in (
            ("adaptive_window", AdaptiveWindowLearner),
            ("full_history_erm", BaselineLearner),
            ("last_point", BaselineLearner),
        ):
            resolved_k = resolve_config(base_config(learner={"kind": kind}))
            assert isinstance(build_learner(resolved_k, schedule), cls)

        resolved_c = resolve_config(
            base_config(
                drift={"kind": "constant", "gamma": 0.01},
                learner={"kind": "constant_window"},
            )
        )
        learner_c = build_learner(resolved_c, schedule)
        assert isinstance(learner_c, ConstantWindowLearner)
        assert learner_c.gamma == 0.01

    def test_build_checkpoints(self):
        resolved = resolve_config(base_config())
        assert resolved["checkpoints"] == [2, 4, 8, 16, 32, 64, 128, 256, 512]


RUN_FILES = (
    "config.json",
    "curve-0.csv",
    "curve-1.csv",
    "curve-mean.csv",
    "fit.json",
    "run.json",
    "summary.txt",
)


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    out_root = tmp_path_factory.mktemp("runs")
    resolved = resolve_config(base_config())
    record, curve = run_config(resolved, out_root, jobs=1)  # the serial reference of the parallel tests
    return resolved, record, curve, out_root


class TestRunConfig:
    def test_output_layout(self, mini_run):
        resolved, record, _, _ = mini_run
        out_dir = Path(record.out_dir)
        assert out_dir.name == record.config_hash == config_hash(resolved)
        for name in RUN_FILES:
            assert (out_dir / name).is_file(), name

    def test_config_json_round_trips_to_same_hash(self, mini_run):
        _, record, _, _ = mini_run
        stored = json.loads((Path(record.out_dir) / "config.json").read_text())
        assert "sweep" not in stored
        assert config_hash(stored) == record.config_hash

    def test_curve_csv_contents(self, mini_run):
        resolved, record, curve, _ = mini_run
        data = np.genfromtxt(Path(record.out_dir) / "curve-0.csv", delimiter=",", skip_header=1)
        assert data.shape == (512, 6)
        header = (Path(record.out_dir) / "curve-0.csv").read_text().splitlines()[0]
        assert header == "t,risk,inf_risk,cum_excess,win_k,win_m"
        assert np.array_equal(data[:, 0], np.arange(1, 513))
        assert np.array_equal(data[:, 1], curve.risks[0])
        assert np.array_equal(data[:, 2], curve.inf_risks)
        assert np.array_equal(data[:, 3], np.cumsum(curve.risks[0] - curve.inf_risks))
        model, schedule = build_model(resolved)
        learner = build_learner(resolved, schedule)
        assert data[0, 4] == 0 and data[0, 5] == 0  # initial hypothesis, no window
        for t in (2, 100, 511):
            gaps, windows = learner.plan(t)
            assert data[t - 1, 4] == gaps[-1] and data[t - 1, 5] == windows[-1]

    def test_mean_csv_matches_curve(self, mini_run, tmp_path):
        _, record, curve, _ = mini_run
        regenerated = tmp_path / "mean.csv"
        curve.to_csv(str(regenerated))
        assert regenerated.read_bytes() == (Path(record.out_dir) / "curve-mean.csv").read_bytes()

    def test_failed_mean_csv_write_keeps_old_file_and_no_temp(self, mini_run, tmp_path, monkeypatch):
        _, record, curve, _ = mini_run
        target = tmp_path / "curve-mean.csv"
        target.write_bytes((Path(record.out_dir) / "curve-mean.csv").read_bytes())
        before = target.read_bytes()
        real_open = open

        class DiskFull:
            """Write handle that fails with ENOSPC after its first 4 kB."""

            def __init__(self, fh):
                self.fh, self.room = fh, 4096

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                if len(text) > self.room:
                    self.fh.write(text[: self.room])
                    self.fh.flush()
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.room -= len(text)
                return self.fh.write(text)

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

        def opener(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return DiskFull(fh) if "w" in mode else fh

        monkeypatch.setattr(evaluation_mod, "open", opener, raising=False)
        with pytest.raises(OSError, match="No space left"):
            curve.to_csv(str(target))  # 512 rows, far more than 4 kB
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["curve-mean.csv"]

    def test_fit_json(self, mini_run):
        _, record, curve, _ = mini_run
        payload = json.loads((Path(record.out_dir) / "fit.json").read_text())
        assert payload["degenerate"] is False
        assert payload["config_hash"] == record.config_hash
        assert payload["checkpoints"] == [2, 4, 8, 16, 32, 64, 128, 256, 512]
        assert payload["exponent"] == record.fit.exponent
        direct = fit_growth_exponent(
            payload["checkpoints"], curve.checkpoint_values(payload["checkpoints"])
        )
        assert payload["exponent"] == direct.exponent

    def test_summary_mentions_hash_and_fit(self, mini_run):
        _, record, _, _ = mini_run
        text = (Path(record.out_dir) / "summary.txt").read_text()
        assert record.config_hash in text
        assert "final cumulative excess" in text
        assert "fit: exponent" in text

    def test_rerun_is_byte_identical(self, mini_run, tmp_path):
        resolved, record, _, _ = mini_run
        record2, _ = run_config(resolved, tmp_path)
        for name in RUN_FILES:
            if name == "run.json":  # wall clock differs by design
                continue
            a = (Path(record.out_dir) / name).read_bytes()
            b = (Path(record2.out_dir) / name).read_bytes()
            assert a == b, name

    def test_parallel_jobs_byte_identical(self, mini_run, tmp_path):
        resolved, record, _, _ = mini_run
        record2, _ = run_config(resolved, tmp_path, jobs=2)
        for name in ("curve-0.csv", "curve-1.csv", "curve-mean.csv", "fit.json"):
            a = (Path(record.out_dir) / name).read_bytes()
            b = (Path(record2.out_dir) / name).read_bytes()
            assert a == b, name

    def test_worker_pool_capped_at_seed_count(self, mini_run, tmp_path):
        resolved, record, _, _ = mini_run
        pools = []

        class SerialPool:
            def __init__(self, max_workers, mp_context):
                pools.append((max_workers, mp_context.get_start_method()))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        with mock.patch("concurrent.futures.ProcessPoolExecutor", SerialPool):
            record2, _ = run_config(resolved, tmp_path, jobs=64)
        assert pools == [(len(resolved["seeds"]), "fork")]
        assert (Path(record2.out_dir) / "curve-mean.csv").read_bytes() == (Path(record.out_dir) / "curve-mean.csv").read_bytes()

    def test_one_seed_mean_curve_repeats_the_seed_text(self, tmp_path, monkeypatch):
        monkeypatch.setattr(evaluation_mod, "CSV_CHUNK_ROWS", 100)  # rows 1..512 over six chunks
        record, _ = run_config(resolve_config(base_config(seeds=[3])), tmp_path)
        out_dir = Path(record.out_dir)
        mean_rows = [line.split(",") for line in (out_dir / "curve-mean.csv").read_text().splitlines()[1:]]
        seed_rows = [line.split(",") for line in (out_dir / "curve-3.csv").read_text().splitlines()[1:]]
        assert len(mean_rows) == len(seed_rows) == 512
        for (t, mean_risk, inf_risk, cum_excess, ci_lo, ci_hi), seed_row in zip(mean_rows, seed_rows):
            assert cum_excess == ci_lo == ci_hi
            assert [t, mean_risk, inf_risk, cum_excess] == seed_row[:4]

    @pytest.mark.parametrize("horizon", [10_000, 1000])
    def test_seed_curves_flush_whole_chunks(self, horizon, tmp_path, monkeypatch):
        chunk = evaluation_mod.CSV_CHUNK_ROWS
        header = "t,risk,inf_risk,cum_excess,win_k,win_m\n"
        real_run_single, seen = harness_mod.run_single, []

        def spied(model, learner, horizon, seed, checkpoint=None):
            def spy(t, risks):
                checkpoint(t, risks)
                seen.append((t, next(tmp_path.rglob("curve-0.csv")).read_text()))

            return real_run_single(model, learner, horizon, seed, checkpoint=spy)

        monkeypatch.setattr(harness_mod, "run_single", spied)
        checkpoints = [1 << j for j in range(1, horizon.bit_length())]
        resolved = resolve_config(base_config(horizon=horizon, seeds=[0], checkpoints=checkpoints))
        record, _ = run_config(resolved, tmp_path)
        assert [t for t, _ in seen] == [1] + checkpoints
        for t, text in seen:
            assert text.startswith(header)
            lines = text[len(header) :].splitlines(keepends=True)
            assert len(lines) == t // chunk * chunk  # only the header before t = 4096
            assert all(line.endswith("\n") and line.count(",") == 5 for line in lines)
            assert [int(line.split(",")[0]) for line in lines] == list(range(1, len(lines) + 1))
        model, schedule = build_model(resolved)
        learner = build_learner(resolved, schedule)
        risks = real_run_single(model, learner, horizon, 0)
        inf_risks = np.full(horizon, model.marginals.eta)
        expected = io.StringIO()
        expected.write(header)
        columns = (risks, inf_risks, np.cumsum(risks - inf_risks), *learner.plan(horizon))
        harness_mod.write_curve_rows(expected, columns, 0, horizon)
        assert Path(record.curve_files[0]).read_text() == expected.getvalue()

    def test_run_json_record(self, mini_run):
        _, record, _, _ = mini_run
        payload = json.loads((Path(record.out_dir) / "run.json").read_text())
        assert payload["config_hash"] == record.config_hash
        assert payload["seeds"] == [0, 1]
        assert payload["curve_files"] == ["curve-0.csv", "curve-1.csv"]
        assert payload["wall_clock_seconds"] >= 0.0
        assert "fit" not in payload  # the fit lives in fit.json and summary.txt, which rates rewrites

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"drift": {"kind": "constant", "gamma": 0.01}, "learner": {"kind": "constant_window"}},
            {"learner": {"kind": "adaptive_window"}},
        ],
    )
    def test_run_json_plan_counts_curve_rows(self, overrides, tmp_path):
        record, _ = run_config(resolve_config(base_config(**overrides)), tmp_path)
        plan = json.loads((Path(record.out_dir) / "run.json").read_text())["plan"]
        rows = [line.split(",")[4:] for line in Path(record.curve_files[0]).read_text().splitlines()[1:]]
        rows = [(int(k), int(m)) for k, m in rows]
        assert plan == {
            "groups": sum(row != previous for row, previous in zip(rows, [None] + rows)),
            "initial_steps": rows.count((0, 0)),
            "max_window": max(m for _, m in rows),
            "erm_solves": sum(m > 0 for _, m in rows),
            "erm_points": sum(m // k for k, m in rows if m > 0),
        }

    def test_too_few_checkpoints_skips_fit(self, tmp_path):
        resolved = resolve_config(base_config(horizon=64, checkpoints=[2, 4, 8]))
        record, _ = run_config(resolved, tmp_path)
        assert record.fit is None
        assert "at least 8" in record.fit_skip_reason
        payload = json.loads((Path(record.out_dir) / "fit.json").read_text())
        assert payload["degenerate"] is True
        assert "at least 8" in payload["skipped"]

    def test_plan_is_lazy_and_computed_once_per_run(self, tmp_path, monkeypatch):
        calls = []
        real = learners_mod.subsample_schedule

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(learners_mod, "subsample_schedule", counting)
        resolved = resolve_config(base_config())
        _, schedule = build_model(resolved)
        build_learner(resolved, schedule)
        assert calls == []
        run_config(resolved, tmp_path, jobs=1)  # in this process, where a call per seed would be counted
        assert len(calls) == 1  # one vectorised call shared by both seeds


PLAN_LEARNERS = [
    {"kind": "subsampled_erm", "r": 2.0},
    {"kind": "adaptive_window"},
    {"kind": "constant_window", "gamma": 0.1},
    {"kind": "full_history_erm"},
    {"kind": "last_point"},
]


class TestPlanConsistency:
    @pytest.mark.parametrize("spec", PLAN_LEARNERS, ids=[s["kind"] for s in PLAN_LEARNERS])
    def test_windows_plan_and_csv_agree(self, spec, tmp_path):
        horizon = 200
        resolved = resolve_config(
            base_config(horizon=horizon, seeds=[0], checkpoints=[horizon], learner=spec)
        )
        record, _ = run_config(resolved, tmp_path)
        data = np.genfromtxt(Path(record.out_dir) / "curve-0.csv", delimiter=",", skip_header=1)
        recorded = data[:, 4:6].astype(np.int64)
        _, schedule = build_model(resolved)
        gaps, windows = build_learner(resolved, schedule).plan(horizon)
        assert gaps.dtype == windows.dtype == np.int64
        assert gaps.shape == windows.shape == (horizon,)
        assert tuple(recorded[0]) == (0, 0)
        fresh = build_learner(resolved, schedule)
        for t in range(1, horizon + 1):
            assert (int(gaps[t - 1]), int(windows[t - 1])) == tuple(recorded[t - 1]), t
            prefix_gaps, prefix_windows = fresh.plan(t)
            assert np.array_equal(prefix_gaps, gaps[:t]) and np.array_equal(prefix_windows, windows[:t]), t

    def test_plan_is_memoised_and_read_only(self):
        resolved = resolve_config(base_config())
        _, schedule = build_model(resolved)
        learner = build_learner(resolved, schedule)
        gaps, windows = learner.plan(64)
        assert learner.plan(64)[0] is gaps
        with pytest.raises(ValueError):
            gaps[1] = 5
        with pytest.raises(ValueError):
            windows[1] = 5


class TestWriteTextAtomic:
    def test_replaces_whole_file(self, tmp_path):
        target = tmp_path / "fit.json"
        target.write_text("old\n")
        write_text_atomic(target, "new\n")
        assert target.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["fit.json"]

    def test_failed_write_keeps_old_file_and_no_temp(self, tmp_path):
        target = tmp_path / "fit.json"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(target, "half" + "\ud800")  # unencodable after the first bytes
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["fit.json"]


class TestRunSweep:
    def _sweep_config(self):
        return base_config(
            horizon=128,
            seeds=[0],
            checkpoints=[16, 32, 64, 128],
            sweep={
                "grid": {"drift.alpha": [0.0, 0.25]},
                "cells": [{"drift.c0": 0.25}],
            },
        )

    def test_table_layout(self, tmp_path):
        record = run_sweep(self._sweep_config(), tmp_path)
        assert len(record.cells) == 3 and not record.failures
        lines = Path(record.table_path).read_text().splitlines()
        assert lines[0] == (
            "drift.alpha,drift.c0,config_hash,avg_excess,final_cum_excess,"
            "fit_exponent,fit_theoretical"
        )
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            run_dir = tmp_path / cells[2]
            assert (run_dir / "config.json").is_file()
            assert float(cells[3]) > 0.0

    def test_list_values_keep_every_row_as_wide_as_the_header(self, tmp_path):
        lists = [[16, 32, 64, 128], [32, 64, 128]]
        raw = base_config(horizon=128, seeds=[0], checkpoints=lists[0], sweep={"grid": {"checkpoints": lists}})
        record = run_sweep(raw, tmp_path)
        rows = list(csv.reader(io.StringIO(Path(record.table_path).read_text())))
        assert len(rows) == 3 and all(len(row) == len(rows[0]) for row in rows)
        assert [json.loads(row[0]) for row in rows[1:]] == lists

    def test_swept_drift_gamma_propagates_to_learner(self, tmp_path):
        raw = base_config(
            horizon=128,
            seeds=[0],
            checkpoints=[16, 32, 64, 128],
            drift={"kind": "constant", "gamma": 0.01},
            learner={"kind": "constant_window"},
            sweep={"cells": [{"drift.gamma": 0.001}, {"drift.gamma": 0.04}]},
        )
        record = run_sweep(raw, tmp_path)
        gammas = set()
        for line in Path(record.table_path).read_text().splitlines()[1:]:
            run_dir = tmp_path / line.split(",")[1]
            stored = json.loads((run_dir / "config.json").read_text())
            assert stored["learner"]["gamma"] == stored["drift"]["gamma"]
            gammas.add(stored["learner"]["gamma"])
        assert gammas == {0.001, 0.04}

    def test_missing_sweep_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="sweep"):
            run_sweep(base_config(), tmp_path)

    def test_invalid_cell_value_is_config_error(self, tmp_path):
        raw = base_config(sweep={"grid": {"drift.alpha": [2.0]}})
        with pytest.raises(ConfigError, match="drift.alpha"):
            run_sweep(raw, tmp_path)
        # a good cell before the bad one must not run either
        raw = base_config(
            horizon=128,
            seeds=[0],
            checkpoints=[16, 32, 64, 128],
            drift={"kind": "constant", "gamma": 0.01},
            learner={"kind": "constant_window"},
            sweep={"cells": [{"drift.gamma": 0.001}, {"drift.gamma": 2.0}]},
        )
        with pytest.raises(ConfigError, match="drift.gamma"):
            run_sweep(raw, tmp_path / "out")
        with pytest.raises(ConfigError, match="--jobs"):
            run_sweep(self._sweep_config(), tmp_path / "out", jobs=0)
        assert not (tmp_path / "out").exists()

    def test_runtime_failure_keeps_other_cells(self, tmp_path, monkeypatch):
        real_run_config = harness_mod.run_config

        def flaky(resolved, out_root, jobs=1):
            if resolved["drift"]["gamma"] == 0.04:
                raise RuntimeError("boom")
            return real_run_config(resolved, out_root, jobs=jobs)

        monkeypatch.setattr(harness_mod, "run_config", flaky)
        raw = base_config(
            horizon=128,
            seeds=[0],
            checkpoints=[16, 32, 64, 128],
            drift={"kind": "constant", "gamma": 0.01},
            learner={"kind": "constant_window"},
            sweep={"cells": [{"drift.gamma": 0.001}, {"drift.gamma": 0.04}]},
        )
        record = run_sweep(raw, tmp_path)
        assert len(record.cells) == 2
        assert len(record.failures) == 1
        assert "RuntimeError: boom" in record.failures[0]["error"]
        manifest = json.loads(Path(record.failure_manifest).read_text())
        assert manifest["failures"][0]["cell"] == {"drift.gamma": 0.04}
        assert len(Path(record.table_path).read_text().splitlines()) == 2


class TestRunVerify:
    def test_blocking_small_grid(self):
        report, ok = run_verify("blocking")
        assert ok is True
        assert report["cases"] == 1080  # 3 state counts x 3 flips x 3 block counts x 8 gaps x 5 ts
        assert report["min_slack"] >= -1e-12
        assert report["worst"]["slack"] == report["min_slack"]

    def test_discrepancy_small(self):
        report, ok = run_verify("discrepancy", {"pairs": 200})
        assert ok is True
        assert report["max_rho_minus_tv"] <= 1e-9
        assert report["max_closed_form_vs_grid"] <= 1e-9

    def test_mixing_rate_small(self):
        report, ok = run_verify("mixing_rate")
        assert ok is True
        assert len(report["cases"]) == 14  # product + six chains, two rates each

    def test_uniform_deviation_small(self):
        report, ok = run_verify(
            "uniform_deviation", {"trials": 60, "m_grid": [16, 64, 256], "seed": 0}
        )
        assert set(report["settings"]) == {"identical", "drifting"}
        for entry in report["settings"].values():
            assert len(entry["estimates"]) == 3
            assert entry["fitted_exponent"] < -0.3
        assert isinstance(ok, bool)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="--kind"):
            run_verify("bogus")

    def test_insufficient_trials(self):
        with pytest.raises(ConfigError, match="trials"):
            run_verify("uniform_deviation", {"trials": 1})

    @pytest.mark.parametrize(
        "kind,options,key",
        [
            ("blocking", {"gaps": [0]}, "gaps"),
            ("blocking", {"gaps": [9]}, "gaps"),
            ("blocking", {"flips": [0.0]}, "flips"),
            ("blocking", {"flips": [float("nan")]}, "flips"),
            ("blocking", {"states": [5]}, "states"),
            ("blocking", {"states": [1]}, "states"),
            ("blocking", {"states": [2.5]}, "states"),
            ("blocking", {"blocks": [9]}, "blocks"),
            ("blocking", {"ts": [0]}, "ts"),
            ("mixing_rate", {"states": [1]}, "states"),
            ("mixing_rate", {"states": [17]}, "states"),
            ("mixing_rate", {"flips": [1.5]}, "flips"),
            ("uniform_deviation", {"eta": 0.7}, "eta"),
            ("uniform_deviation", {"eta": -0.1}, "eta"),
            ("uniform_deviation", {"eta": float("nan")}, "eta"),
            ("discrepancy", {"pairs": 3.9}, "--pairs"),
            ("uniform_deviation", {"trials": 2.7}, "--trials"),
            ("uniform_deviation", {"m_grid": [16.5, 32]}, "--m-grid"),
            ("uniform_deviation", {"seed": 1.5}, "--seed"),
            ("mixing_rate", {"r": ["a"]}, "r"),
            ("mixing_rate", {"cap": "1e3"}, "cap"),
            ("discrepancy", {"pairs": 10, "grid_pairs": 0}, "grid_pairs"),
            ("blocking", {"states": []}, "states"),
            ("blocking", {"ts": []}, "ts"),
            ("mixing_rate", {"r": []}, "r"),
            *[("mixing_rate", {"cap": cap, "r": [1.0]}, "cap") for cap in (float("nan"), float("inf"), 0.0, -1.0)],
            *[("mixing_rate", {"r": [1.0, rate]}, "r") for rate in (-1.0, 0.0, float("nan"), float("inf"))],
        ],
    )
    def test_bad_list_option_names_option(self, kind, options, key):
        # a family reads only its CLI flags: any other option is rejected under its own name
        with pytest.raises(ConfigError) as excinfo:
            run_verify(kind, options)
        assert excinfo.value.key == key
        if not key.startswith("--"):
            assert str(excinfo.value) == f"{key}: not read by --kind {kind}"

    def test_families_read_exactly_the_verify_flags(self):
        params = {kind: tuple(inspect.signature(family).parameters) for kind, family in VERIFY_FAMILIES.items()}
        assert params == {
            "blocking": (),
            "uniform_deviation": ("trials", "seed", "m_grid"),
            "discrepancy": ("pairs", "seed"),
            "mixing_rate": (),
        }
        assert set().union(*params.values()) == set(VERIFY_FLAGS)
        for name, flag in VERIFY_FLAGS.items():
            args = build_parser().parse_args(["verify", "--kind", "blocking", flag, "2"])
            assert getattr(args, name) is not None, flag


class TestRefitRates:
    def test_refit_reproduces_fit(self, mini_run):
        _, record, _, _ = mini_run
        original = json.loads((Path(record.out_dir) / "fit.json").read_text())
        summary = (Path(record.out_dir) / "summary.txt").read_bytes()
        payload = refit_rates(record.out_dir)
        assert payload == original
        assert json.loads((Path(record.out_dir) / "fit.json").read_text()) == original
        assert (Path(record.out_dir) / "summary.txt").read_bytes() == summary  # rewritten, same bytes

    def test_refit_with_new_checkpoints(self, mini_run):
        _, record, curve, _ = mini_run
        cps = [4, 8, 16, 32, 64, 128, 256, 512]
        payload = refit_rates(record.out_dir, cps)
        assert payload["checkpoints"] == cps
        direct = fit_growth_exponent(cps, curve.checkpoint_values(cps))
        assert payload["exponent"] == pytest.approx(direct.exponent, abs=1e-15)
        # restore the original fit for other tests
        refit_rates(record.out_dir)

    def test_rates_with_checkpoints_rewrites_the_summary_fit(self, tmp_path, capsys):
        record, _ = run_config(resolve_config(base_config()), tmp_path)
        run_dir = Path(record.out_dir)
        before = (run_dir / "summary.txt").read_text().splitlines()
        assert main(["rates", str(run_dir), "--checkpoints", "32,64,96,128,192,256,384,512"]) == 0
        capsys.readouterr()
        fit = json.loads((run_dir / "fit.json").read_text())
        after = (run_dir / "summary.txt").read_text().splitlines()
        assert fit["t_min"] == 32 and after[:-1] == before[:-1] and after[-1] != before[-1]
        assert after[-1] == (
            f"fit: exponent {fit['exponent']!r} over [{fit['t_min']}, {fit['t_max']}]"
            f", residual {fit['residual_norm']!r} (theoretical {fit['theoretical']!r})"
        )
        assert "fit" not in json.loads((run_dir / "run.json").read_text())

    def test_missing_run_dir(self, tmp_path):
        with pytest.raises(ConfigError, match="config.json"):
            refit_rates(tmp_path / "nope")

    def test_missing_curve_file(self, tmp_path, mini_run):
        _, record, _, _ = mini_run
        stub = tmp_path / "stub"
        stub.mkdir()
        (stub / "config.json").write_bytes((Path(record.out_dir) / "config.json").read_bytes())
        with pytest.raises(ConfigError, match="missing curve file"):
            refit_rates(stub)

    def test_unequal_curves_name_the_short_file(self, tmp_path, mini_run):
        _, record, _, _ = mini_run
        stub = tmp_path / "stub"
        stub.mkdir()
        for name in ("config.json", "curve-0.csv"):
            (stub / name).write_bytes((Path(record.out_dir) / name).read_bytes())
        lines = (Path(record.out_dir) / "curve-1.csv").read_text().splitlines(keepends=True)
        (stub / "curve-1.csv").write_text("".join(lines[:257]))  # header + 256 flushed rows
        with pytest.raises(ConfigError, match="curve-1.csv has 256 rows"):
            refit_rates(stub)

    def test_curves_shorter_than_horizon_keep_fit(self, tmp_path):
        resolved = resolve_config(base_config(seeds=[0]))
        record, _ = run_config(resolved, tmp_path)
        run_dir = Path(record.out_dir)
        written = (run_dir / "fit.json").read_bytes()
        lines = (run_dir / "curve-0.csv").read_text().splitlines(keepends=True)
        (run_dir / "curve-0.csv").write_text("".join(lines[:257]))  # header + 256 of 512 rows
        with pytest.raises(ConfigError, match="curve-0.csv has 256 rows, fewer than the horizon 512"):
            refit_rates(run_dir)
        assert (run_dir / "fit.json").read_bytes() == written

    @pytest.mark.parametrize("name", ["minimal.json", "markov-subsampled.json", "gamma-sweep.json"])
    def test_shipped_configs_resolve_to_themselves(self, name):
        # refit_rates re-resolves the stored config.json; that must keep it, and so its hash
        raw = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
        cells = harness_mod._expand_cells(resolve_config(raw))
        for config in [raw] + [harness_mod._cell_config(raw, cell) for cell in cells]:
            resolved = {k: v for k, v in resolve_config(config).items() if k != "sweep"}
            assert resolve_config(resolved) == resolved

    @pytest.mark.parametrize(
        "drift",
        [{"kind": "triangle_wave", "alpha": 0.25, "c0": 0.5}, {"kind": "constant", "gamma": 0.01}],
        ids=["triangle_wave", "constant"],
    )
    @pytest.mark.parametrize("spec", PLAN_LEARNERS, ids=[s["kind"] for s in PLAN_LEARNERS])
    def test_resolved_config_resolves_to_itself(self, spec, drift):
        resolved = resolve_config(base_config(drift=drift, learner=spec, checkpoints=None))
        assert resolve_config(resolved) == resolved

    @pytest.mark.parametrize("cut", ["mid_row", "every_row", "four_fields", "seven_fields"])
    def test_malformed_curve_keeps_fit(self, tmp_path, cut):
        resolved = resolve_config(base_config(seeds=[0]))
        record, _ = run_config(resolved, tmp_path)
        run_dir = Path(record.out_dir)
        written = (run_dir / "fit.json").read_bytes()
        lines = (run_dir / "curve-0.csv").read_text().splitlines(keepends=True)
        if cut == "mid_row":
            text = "".join(lines[:300]) + lines[300][:7]
        elif cut == "every_row":  # only the first two columns of every row
            text = lines[0] + "".join(",".join(line.split(",")[:2]) + "\n" for line in lines[1:])
        elif cut == "four_fields":  # one row without win_k and win_m, risk and inf_risk still in place
            text = "".join(lines[:300]) + ",".join(lines[300].split(",")[:4]) + "\n" + "".join(lines[301:])
        else:  # one row with a seventh field
            text = "".join(lines[:300]) + lines[300].rstrip("\n") + ",7\n" + "".join(lines[301:])
        (run_dir / "curve-0.csv").write_text(text)
        with pytest.raises(ConfigError, match="curve-0.csv is malformed"):
            refit_rates(run_dir)
        assert (run_dir / "fit.json").read_bytes() == written


def _cli_command(*args: str) -> list[str]:
    return [sys.executable, "-m", "driftlab.cli", *args]


def _cli_env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _session_processes(sid: int) -> list[int]:
    """Pids of the live (not zombie) processes of session ``sid``."""
    pids = []
    for name in filter(str.isdigit, os.listdir("/proc")):
        try:
            state = Path(f"/proc/{name}/stat").read_text().rsplit(")", 1)[1].split()[0]
            if os.getsid(int(name)) == sid and state != "Z":
                pids.append(int(name))
        except OSError:  # the process is gone
            pass
    return pids


class TestCli:
    def _write_config(self, tmp_path, **overrides):
        cfg = base_config(
            horizon=128, seeds=[0], checkpoints=[2, 4, 8, 16, 24, 32, 64, 128], **overrides
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_simulate_ok(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "run " in stdout and "fit exponent" in stdout
        run_dirs = list(out.iterdir())
        assert len(run_dirs) == 1
        assert (run_dirs[0] / "fit.json").is_file()

    def test_simulate_seed_and_checkpoint_overrides(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "simulate",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--seeds",
                "3,4",
                "--checkpoints",
                "8,16,32",
            ]
        )
        assert code == 0
        assert "fit skipped" in capsys.readouterr().out
        run_dir = next(out.iterdir())
        stored = json.loads((run_dir / "config.json").read_text())
        assert stored["seeds"] == [3, 4]
        assert stored["checkpoints"] == [8, 16, 32]
        assert (run_dir / "curve-3.csv").is_file() and (run_dir / "curve-4.csv").is_file()

    @pytest.mark.parametrize("flag,key", [("--seeds", "seeds"), ("--checkpoints", "checkpoints")])
    def test_empty_list_override_exits_2_like_a_bare_comma(self, tmp_path, capsys, flag, key):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        for text in ("", ","):
            assert main(["simulate", "--config", str(cfg), "--out", str(out), flag, text]) == 2, text
            assert f"config error: {key}: must be a non-empty list" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config error: --config" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["simulate", "--config", str(bad)]) == 2
        assert "config error: --config" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["directory", "not_utf8", "not_an_object"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, case):
        path = tmp_path / "config.json"
        if case == "directory":
            path.mkdir()
        elif case == "not_utf8":
            path.write_bytes(json.dumps(base_config(out="caf\u00e9"), ensure_ascii=False).encode("latin-1"))
        else:  # the --seeds override is applied to the loaded config before it is resolved
            path.write_text("[1, 2]")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--seeds", "0"]) == 2
        assert "config error: --config: " in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_key_exits_2_and_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_config(learner={"kind": "subsampled_erm", "r": -1})))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "config error: learner.r" in capsys.readouterr().err

    def test_huge_r_exits_2_and_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_config(learner={"kind": "subsampled_erm", "alpha": 0.25, "r": 1e308})))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config error: learner.r: too large" in capsys.readouterr().err

    def test_ratio_next_to_one_exits_2_and_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        checkpoints = {"t_min": 1, "t_max": 10**8, "ratio": 1.000001}
        cfg.write_text(json.dumps(base_config(horizon=10**8, checkpoints=checkpoints)))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config error: checkpoints.ratio: ratio 1.000001 is too close to 1" in capsys.readouterr().err

    def test_window_that_never_fills_runs(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        config = base_config(
            seeds=[0], drift={"kind": "constant", "gamma": 1e-300}, learner={"kind": "constant_window"}
        )
        cfg.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert "fit exponent" in capsys.readouterr().out
        (curve,) = (tmp_path / "out").glob("*/curve-0.csv")
        assert all(line.endswith(",0,0") for line in curve.read_text().splitlines()[1:])  # the initial hypothesis throughout

    def test_bad_seed_list_exits_2(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--seeds", "a,b"]) == 2
        assert "config error: seeds: expected comma-separated integers" in capsys.readouterr().err
        assert main(["simulate", "--config", str(cfg), "--checkpoints", "x"]) == 2
        assert "config error: checkpoints: expected comma-separated integers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize(
        "arg,key",
        [("--seeds=a,b", "seeds"), ("--seeds=-1", "seeds"), ("--seeds=,", "seeds"),
         ("--checkpoints=x", "checkpoints"), ("--checkpoints=5,3", "checkpoints")],
    )
    def test_bad_list_override_names_its_key(self, tmp_path, capsys, command, arg, key):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), arg]) == 2
        assert f"config error: {key}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "value",
        [float("inf"), float("-inf"), float("nan"), 10**400],
        ids=["inf", "-inf", "nan", "huge_int"],
    )
    def test_non_finite_number_exits_2_and_names_key(self, tmp_path, capsys, value):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_config(learner={"kind": "subsampled_erm", "r": value})))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config error: learner.r: must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_exits_2(self, tmp_path, capsys, jobs):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 2
        assert "config error: --jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exits_2(self, capsys):
        assert main([]) == 2
        assert main(["verify", "--kind", "bogus"]) == 2
        capsys.readouterr()

    def test_sweep_cli(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(
            json.dumps(
                base_config(
                    horizon=64,
                    seeds=[0],
                    checkpoints=[8, 16, 32, 64],
                    sweep={"grid": {"drift.alpha": [0.0, 0.25]}},
                )
            )
        )
        out = tmp_path / "sweep-out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "2 cells" in stdout
        tables = list(out.glob("sweep-*.csv"))
        assert len(tables) == 1

    def test_verify_cli_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--kind",
                "discrepancy",
                "--pairs",
                "100",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        assert "ok" in capsys.readouterr().out
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True

    @pytest.mark.parametrize(
        "flags,key",
        [
            (["--kind", "discrepancy", "--pairs", "0"], "--pairs"),
            (["--kind", "discrepancy", "--pairs", "-4"], "--pairs"),
            (["--kind", "discrepancy", "--seed", "-1"], "--seed"),
            (["--kind", "uniform_deviation", "--seed", "-1"], "--seed"),
            (["--kind", "uniform_deviation", "--m-grid", "0,16"], "--m-grid"),
            (["--kind", "uniform_deviation", "--m-grid", "32,16"], "--m-grid"),
            (["--kind", "uniform_deviation", "--m-grid", ","], "--m-grid"),
            (["--kind", "uniform_deviation", "--m-grid", ""], "--m-grid"),
            (["--kind", "uniform_deviation", "--m-grid", "16"], "--m-grid"),
            (["--kind", "blocking", "--trials", "5"], "--trials"),
            (["--kind", "mixing_rate", "--pairs", "5"], "--pairs"),
        ],
        ids=[
            "pairs0",
            "pairs-4",
            "seed-1",
            "ud_seed-1",
            "m_grid0",
            "m_grid_down",
            "m_grid_empty",
            "m_grid_blank",
            "m_grid_one_size",
            "unread_trials",
            "unread_pairs",
        ],
    )
    def test_bad_verify_flag_exits_2_and_names_flag(self, tmp_path, capsys, flags, key):
        report = tmp_path / "report.json"
        assert main(["verify", *flags, "--out", str(report)]) == 2
        assert f"config error: {key}: " in capsys.readouterr().err
        assert not report.exists()

    def test_rates_cli(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        run_dir = next(out.iterdir())
        capsys.readouterr()
        assert main(["rates", str(run_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degenerate"] is False

    def test_rates_horizon_one_rewrites_same_fit(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_config(horizon=1, seeds=[0, 1], checkpoints=None)))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        run_dir = next(out.iterdir())
        written = [(run_dir / name).read_bytes() for name in ("fit.json", "summary.txt")]
        assert main(["rates", str(run_dir)]) == 0
        assert [(run_dir / name).read_bytes() for name in ("fit.json", "summary.txt")] == written
        assert written[1].endswith(b"fit: skipped (rate fits need at least 8 checkpoints, got 1)\n")
        capsys.readouterr()

    def test_rates_unequal_curves_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_config(horizon=64, checkpoints=[8, 16, 32, 64])))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        run_dir = next(out.iterdir())
        lines = (run_dir / "curve-0.csv").read_text().splitlines(keepends=True)
        (run_dir / "curve-0.csv").write_text("".join(lines[:33]))
        capsys.readouterr()
        assert main(["rates", str(run_dir)]) == 2
        assert "config error: run_dir: curve-0.csv has 32 rows" in capsys.readouterr().err

    def test_rates_long_curve_exits_2_and_keeps_fit(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_config(horizon=64, seeds=[0, 1], checkpoints=[8, 16, 32, 64])))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        run_dir = next(out.iterdir())
        written = (run_dir / "fit.json").read_bytes()
        lines = (run_dir / "curve-1.csv").read_text().splitlines(keepends=True)
        (run_dir / "curve-1.csv").write_text("".join(lines + lines[-1:]))  # one row past the horizon
        capsys.readouterr()
        assert main(["rates", str(run_dir)]) == 2
        assert "config error: run_dir: curve-1.csv has 65 rows, more than the horizon 64" in capsys.readouterr().err
        assert (run_dir / "fit.json").read_bytes() == written

    def test_rates_bad_checkpoints_exit_2_and_keep_fit(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        run_dir = next(out.iterdir())
        written = (run_dir / "fit.json").read_bytes()
        capsys.readouterr()
        for bad in ("0,5", "8,4", "4,200", "4,x", ",", ""):
            assert main(["rates", str(run_dir), "--checkpoints", bad]) == 2, bad
            assert "config error: --checkpoints: " in capsys.readouterr().err
            assert (run_dir / "fit.json").read_bytes() == written

    def test_rates_missing_dir_exits_2(self, tmp_path, capsys):
        assert main(["rates", str(tmp_path / "nope")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,key",
        [
            (b"{not json", "run_dir"),
            (b"[1,2]", "run_dir"),
            (b'{"horizon": "x"}', "horizon"),
            (b'{"horizon": 64, "out": "caf\xe9"}', "run_dir"),
        ],
        ids=["invalid_json", "not_an_object", "bad_key", "not_utf8"],
    )
    def test_rates_broken_config_exits_2_and_keeps_fit(self, tmp_path, capsys, text, key):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        run_dir = next(out.iterdir())
        written = (run_dir / "fit.json").read_bytes()
        (run_dir / "config.json").write_bytes(text)
        capsys.readouterr()
        assert main(["rates", str(run_dir)]) == 2
        assert f"config error: {key}: " in capsys.readouterr().err
        assert (run_dir / "fit.json").read_bytes() == written

    def test_runtime_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        run_dir = next(out.iterdir())

        def fail(*args, **kwargs):
            raise RuntimeError("simulated failure")

        monkeypatch.setattr(harness_mod, "fit_growth_exponent", fail)
        capsys.readouterr()
        assert main(["rates", str(run_dir)]) == 3
        assert "RuntimeError: simulated failure" in capsys.readouterr().err

    def test_rates_header_only_curve_prints_only_the_config_error(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_config(horizon=300, seeds=[0], checkpoints=[16, 32, 64, 128, 256])))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        run_dir = next(out.iterdir())
        curve = run_dir / "curve-0.csv"
        curve.write_text(curve.read_text().splitlines(keepends=True)[0])
        # a subprocess, so that numpy's warnings reach stderr as they would from the shell
        args = _cli_command("rates", str(run_dir))
        done = subprocess.run(args, env=_cli_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stderr == (
            "config error: run_dir: curve-0.csv has 0 rows, fewer than the horizon 300 (interrupted run?)\n"
        )

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="lists a session's processes through /proc")
    def test_sigterm_leaves_no_worker_and_whole_curves(self, tmp_path):
        raw = json.loads((CONFIGS / "markov-subsampled.json").read_text())
        raw.update(horizon=16384, seeds=list(range(16)), checkpoints={"t_min": 1024, "t_max": 16384})
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        args = _cli_command("simulate", "--config", str(cfg), "--out", str(out), "--jobs", "2")
        with open(tmp_path / "stderr.txt", "w") as err:
            proc = subprocess.Popen(args, env=_cli_env(), stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while not list(out.glob("*/curve-*.csv")) and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert proc.poll() is None, "the run ended before its first curve file was seen"
            os.kill(proc.pid, signal.SIGTERM)
            assert proc.wait(timeout=10) == 3
            assert (tmp_path / "stderr.txt").read_text() == "interrupted\n"  # one line, no traceback
            deadline = time.monotonic() + 5
            while _session_processes(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _session_processes(proc.pid) == []
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        curves = sorted(out.glob("*/curve-[0-9]*.csv"))
        assert 1 <= len(curves) < len(raw["seeds"])  # interrupted: the seeds not yet started never ran
        for curve in curves:
            text = curve.read_text()
            assert text.endswith("\n")
            rows = text.splitlines()[1:]
            assert [row.split(",")[0] for row in rows] == [str(t) for t in range(1, len(rows) + 1)]
            assert all(len(row.split(",")) == 6 for row in rows)

    def test_console_script_installed(self, tmp_path):
        result = subprocess.run(
            ["driftlab", "--help"], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0
        assert "simulate" in result.stdout and "verify" in result.stdout
