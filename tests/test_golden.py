"""Golden SHA-256 digests of the byte-compared run outputs.

Criterion 10 compares two runs of the same code; these digests compare the
code with itself across refactors.  Every learner kind runs on
``configs/minimal.json`` and on a reduced Markov-modulated config (2 seeds x
4096 steps), and each output file must hash to the value pinned here.  The
four ``verify`` reports are pinned the same way, as the bytes ``verify --out``
writes (uniform deviation at 8 trials).  Three more runs pin shapes those
miss: a one-seed ``constant`` drift ``constant_window`` run (a mean curve with
shared and constant columns, and a skipped fit), a two-seed ``triangle_wave``
run, and a config with no ``checkpoints`` key together with the stdout and
``fit.json`` of ``rates --checkpoints`` on its run.  A three-cell constant
drift sweep, one of whose cells fails at run time, pins the sweep table and
its failure manifest.  A digest may change only with an intended change of the
output bytes.
"""

import concurrent.futures
import hashlib
import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import driftlab.harness as harness_mod
from driftlab import resolve_config, run_config, run_sweep, run_verify
from driftlab.cli import main
from driftlab.harness import json_text

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

LEARNERS = {
    "subsampled_erm": {"kind": "subsampled_erm", "alpha": 0.25, "r": 2.0},
    "adaptive_window": {"kind": "adaptive_window"},
    "constant_window": {"kind": "constant_window", "gamma": 0.01},
    "full_history_erm": {"kind": "full_history_erm"},
    "last_point": {"kind": "last_point"},
}

MARKOV = {
    "horizon": 4096,
    "seeds": [0, 1],
    "drift": {"kind": "power_step", "alpha": 0.25},
    "concept": {"eta": 0.1, "theta0": 0.5},
    "process": {"kind": "markov_modulated", "states": 4, "flip": 0.25},
    "checkpoints": {"t_min": 64, "t_max": 4096, "ratio": 1.4142135623730951},
}

GOLDEN = {
    ("markov", "adaptive_window"): {
        "config.json": "1ae30a96fe0f2c51f43db2dbfca6f50088cc2f9594070f43bcc2606a04570941",
        "curve-0.csv": "b3d8f57db624e2fa389cd21528f55d3069b4604ac2e44da909304c1a3157b992",
        "curve-1.csv": "d8ae47554e83e2b73a416bab6c9ce6134f3db8f5b5bc009538e10b1916681d92",
        "curve-mean.csv": "65b41407eef86e9d832fd47a877c4017a517f6a0dda0056e1e8e320148a3e0a6",
        "fit.json": "db6e886b4255da0c24d213411716b4a4b20990002a6a233878ca47c5ec695835",
        "summary.txt": "a9d760ae7ad0cf621dcc8112155abf18060b5c107b212b4f2e8d5f7a6a319b82",
    },
    ("markov", "constant_window"): {
        "config.json": "4d0445acaabc1e88b8fed18d81274fa96a96a78db0fc199d51451cb54b9d4dab",
        "curve-0.csv": "59c3f12dc6bfa7f44a3718d2540fd1407c9ea1bba98e8868a7c1764a82338a5d",
        "curve-1.csv": "c8f9b72d4d61132d3d4105d126f28755d8fabe41ee21e01380c104d99abea2ef",
        "curve-mean.csv": "8fdcb00344dedced711429a5f8aa953f01ae8282412694fe88c365c310ae66c0",
        "fit.json": "6628af866f57cf0a29f514d42fabd3cf820b60e990a910b577fd992382bf5519",
        "summary.txt": "3b2abbfbd0c7f665afc1f9b307772d57a0bd04b4e5bd7b4ae4c9f2c332a8f1a4",
    },
    ("markov", "full_history_erm"): {
        "config.json": "8442f2f0a0830d432e0f596919e61eca91500659d7479fc6a766c680df5ee252",
        "curve-0.csv": "87a5358c2ba73b330f7a042bc25e25abab0d89dcfe2e2ecad3e40b99b1fb5b0d",
        "curve-1.csv": "8e6865f47e456e54cb7b3152d83d19f265f90085a67fe35d890453319000a3d3",
        "curve-mean.csv": "df0b83a35206c3df4403f233436687f2f1e8afe4fbaf0dbf2b57169cbc85f6d5",
        "fit.json": "30f0e7bc05f1f552f2836c279c3214ca59973f53556e723bc6e9118f58a0292b",
        "summary.txt": "2399d91dafde3fd4763a9f47cfb9ed08b6adacc29ca13963e98b1528c194120e",
    },
    ("markov", "last_point"): {
        "config.json": "ea705da2574521bad99b5db3d1203d40a9548410ffcf7a430755d4dd9d89b98c",
        "curve-0.csv": "96f3607cb964c6ec6d9ee52775ee1cbf176eec321294bed7c780f1745514e039",
        "curve-1.csv": "075b3e8e274ec7df0c1a519b2978661d85f79ec715de487e58ad63b64037b598",
        "curve-mean.csv": "01fcc5ea4db12492a7d853b16c1ce00e6e75fd3c5630c902bbaf23b12e3289bc",
        "fit.json": "70ff21e171ba4b313bd722f816d84df8cd434deb0e2da2ca91599fca3d30e55e",
        "summary.txt": "aeb9d53be1461a522882827b59a8b7f6642780978e77121491c04499c9078c05",
    },
    ("markov", "subsampled_erm"): {
        "config.json": "953d9c3a52dfefe5c552e5f43f45863f8dd307eae66de353f8d6c58045ff6631",
        "curve-0.csv": "ba36f5cbd7ac77fc8f5ae423f2fc6ed8c7216e05acb168e65f523dbcbe00fc42",
        "curve-1.csv": "3fffb46f2eefc4180f62d0bef5e9c3cebdb4f102140f1f3a64aa6125e4b7df77",
        "curve-mean.csv": "028402d7cf3b918e5f4a76261f0f5a7df9687d9260a269eb934a5c218acae000",
        "fit.json": "b872cef62bacf38120ac7d6febf248c6d85d849c4663741337448947026b1727",
        "summary.txt": "bd0d1e7091eb67e5e7f89a4c7f32fa5896c3c16f2a50676739132390e79ccb1e",
    },
    ("minimal", "adaptive_window"): {
        "config.json": "d4b2eaec27bc0521a10b32d8fea2f99eed7451483f584a49d38689028960f3df",
        "curve-0.csv": "20cc321fe82fc9810c94dbf499a8bcc7e2d5898546e5a9d6f5712b749ffda254",
        "curve-1.csv": "e5f1a3b27335fc8f5acc157270dbe344c98a31b937bb39ef04dab72cc4c230a2",
        "curve-mean.csv": "397a70a8dc94902872169959423c05c46f1bf51739c2dccf234e876e1f15be08",
        "fit.json": "575d8ac2c144a8df0887de31bbc70b9665481868409c751c6e33d2b1d7eca914",
        "summary.txt": "acbe175b19707ce2f94518a0f482032e14f75588b1ffc2917a0c54ba61e418a6",
    },
    ("minimal", "constant_window"): {
        "config.json": "9024dfcdc174bc26f9fd16987592574c344051996a73aff97385ed78d539276c",
        "curve-0.csv": "ca0182cd90bcd1ba8df3ad515113cb404ba98efc2a874486992d02af044ccb28",
        "curve-1.csv": "7799d2c86bce6ca069701d6b6c5f2ff30226c8b65cd6baa1dab4ce76b56643c4",
        "curve-mean.csv": "97302b37bc54b1142af2711950e66d410b80d9ab865318cdc8d45aeb6f52debb",
        "fit.json": "ee30beea383cc852edce12abf329afc62ae9574c788162b8315175f43e9bacc4",
        "summary.txt": "b6a7bbf94b837d70c876df0f4babaa1912a620325b3d247e39c505705181108c",
    },
    ("minimal", "full_history_erm"): {
        "config.json": "7b553d81a6aef5a24afaaa9ff2aa4d30dae9d38239baad2981e538bde36e4379",
        "curve-0.csv": "b5d2ebadec72e1a5908b50ee22d197091e15865bb654e838cd64f02fbc3c3021",
        "curve-1.csv": "40c664a9dd226fc7480b29fc3aabb0b20e7c6dd4d5a7ebc3c998e94e71999ac8",
        "curve-mean.csv": "d9f1935fabc40466e2eae42e121517c4046da6869aa2cb06170f371fbc816c86",
        "fit.json": "ce748128bbc55b54e6aea7f1011f8c38c2c73b60617892280e4d7e2d800fa813",
        "summary.txt": "9e5dc219f8e9bb340961c99efda146f61fb50b963a55e137a4d0efc4f2bdb10c",
    },
    ("minimal", "last_point"): {
        "config.json": "f9031512986ce5b09f4f16837123d3e52f5c961fed91b832ec87e36e0bc7dc01",
        "curve-0.csv": "fdd39b32939332b6be607ebeb4a408e55c1a12d967e44c506406bf9783b27e84",
        "curve-1.csv": "6f4103062f2171f91c06c612205ccd679b764cfe731f54cdbeb2e9932d2ebbbb",
        "curve-mean.csv": "70198486f1b0427e25a55f4d48906a19232dd99f0ba4a64ff18a23682171bd91",
        "fit.json": "091fc55c2b49ae09fb541de67a265277093127d1f9c4ba4f190c25229258c0ad",
        "summary.txt": "e2e1d9ee27a9b993038c6675260e2964ac60d27ffbc4472694b5f57c53a99ffd",
    },
    ("minimal", "subsampled_erm"): {
        "config.json": "e037ff2efbe70ecfba78d0eb429c6ad0a3c903fc5363d09b2fe6a5e823439356",
        "curve-0.csv": "f4916b95d44e6a21bf91eb9e55dfca093dd691ebeb1c11af8586907d130978d6",
        "curve-1.csv": "90100f7a37065ff0df4b27b5cf509c118bf0c2c5f8794c8690e4219b60000a17",
        "curve-mean.csv": "ff2dd29d686e67f79882f3fd3bd507de52bc543031acb96cbe512016c7189c64",
        "fit.json": "bac36ee0d9446a691e700e76eaff25f896bd58c5a9d53a9f1d21f6ae456cd84a",
        "summary.txt": "597dda34b70d46b8c61251079837e9c37d113a179b999a04192a51a77b8b4f4f",
    },
}

VERIFY_GOLDEN = {
    "blocking": ({}, "e4d9f5b985f5793f055331e25e818ab9a75922f01c0407659d9f70863f314a30"),
    "discrepancy": ({}, "bbb86326a295687db09d9e87231013b4cd2aff6d6ee9607ff52f8522d9b0e6bc"),
    "mixing_rate": ({}, "6d7fbb9c8c5afd486d38b56bea763c45fa59beaac5cf02ce8423b7bd743979d9"),
    "uniform_deviation": ({"trials": 8}, "7315ee1b33b32da2011e44d59a9cab577ef39898d9fc7f34c6dccf8e1f67336c"),
}


def golden_config(base: str, kind: str) -> dict:
    if base == "minimal":
        raw = json.loads((CONFIGS / "minimal.json").read_text(encoding="utf-8"))
    else:
        raw = dict(MARKOV)
    raw["learner"] = dict(LEARNERS[kind])
    return raw


def output_digests(out_dir: Path) -> dict:
    names = ["config.json", "curve-mean.csv", "fit.json", "summary.txt"]
    names += sorted(p.name for p in out_dir.glob("curve-[0-9]*.csv"))
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in sorted(names)}


@pytest.mark.parametrize("base,kind", sorted(GOLDEN), ids=[f"{b}-{k}" for b, k in sorted(GOLDEN)])
def test_outputs_match_golden_digests(base, kind, tmp_path):
    record, _ = run_config(resolve_config(golden_config(base, kind)), tmp_path)
    assert output_digests(Path(record.out_dir)) == GOLDEN[(base, kind)]


@pytest.mark.parametrize("cores", [1, 8])
def test_default_jobs_follow_usable_cores(cores, tmp_path, monkeypatch):
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    record, _ = run_config(resolve_config(golden_config("markov", "subsampled_erm")), tmp_path)
    assert pools == ([] if cores == 1 else [2])  # one worker a seed at most
    assert output_digests(Path(record.out_dir)) == GOLDEN[("markov", "subsampled_erm")]


@pytest.mark.parametrize("kind", sorted(VERIFY_GOLDEN))
def test_verify_report_matches_golden_digest(kind):
    options, digest = VERIFY_GOLDEN[kind]
    report, ok = run_verify(kind, dict(options))
    assert ok
    assert hashlib.sha256(json_text(report).encode()).hexdigest() == digest


SHAPES = {
    "constant": {
        "horizon": 4096,
        "seeds": [0],
        "drift": {"kind": "constant", "gamma": 0.0001},
        "concept": {"eta": 0.1, "theta0": 0.5},
        "process": {"kind": "product"},
        "learner": {"kind": "constant_window"},
    },
    "triangle_wave": {
        "horizon": 4096,
        "seeds": [0, 1],
        "drift": {"kind": "triangle_wave", "alpha": 0.25, "seed": 3},
        "concept": {"eta": 0.1, "theta0": 0.5},
        "process": {"kind": "product"},
        "learner": {"kind": "subsampled_erm", "alpha": 0.25, "r": 2.0},
        "checkpoints": {"t_min": 64, "t_max": 4096},
    },
    "default_checkpoints": {
        "horizon": 2048,
        "seeds": [0, 1],
        "drift": {"kind": "power_step", "alpha": 0.25},
        "concept": {"eta": 0.1, "theta0": 0.5},
        "process": {"kind": "markov_modulated", "states": 4, "flip": 0.25},
        "learner": {"kind": "subsampled_erm", "alpha": 0.25, "r": 2.0},
    },
}

SHAPES_GOLDEN = {
    "constant": {
        "config.json": "a71cbedf453155921073fcfc7ed9b5114c0e09040dbddceb7fa9ae662ec4a2c7",
        "curve-0.csv": "71ad9a0685d0f2884dd74730a0d71d863a65ebbea7b783ba2ad6ea9b803564f0",
        "curve-mean.csv": "c3a6312c438d3ebaf31dbf5b83892a1b245b515cfea4fc3c9743412aead7fe23",
        "fit.json": "c09832a09718996687e80ca217e5fa6176d8f25f993dd0f56fc62750fdd460b2",
        "summary.txt": "15ad5f36fd2bdae2bcf9e63716f39733fa89a76422e2776675b15db67da128ad",
    },
    "triangle_wave": {
        "config.json": "a2236ecbc277dc48648b6ae68103f4b55586902aa50024d283afbd067c04f51d",
        "curve-0.csv": "1d1913f2e1bb9b801f33f524934707d37097244a00a2466366e6cfbc565049f4",
        "curve-1.csv": "bdc37e31af9e9ce8520ee3d37810a51a355cce96c4e125c0ddb350f338e4af01",
        "curve-mean.csv": "da7b0aa304573f337f6ba74c76b52ceb03faee5afc59a4390f75a6bb59cd284c",
        "fit.json": "a389f396a7ccd36596f7b0a6482c39427da7f764ff55085ad73f6d88b22cc81c",
        "summary.txt": "80ec92f5ae102ae348dd5d8c4addd130bd0bb6536980bfe796c0ef11dd590d0a",
    },
    "default_checkpoints": {
        "config.json": "2dba882a4ae3c91a6cec7d8648faa389f9ccb36683e3891a8e08b67eca46c405",
        "curve-0.csv": "4f2146ebba2235f10fffa682fd96f6c79ee1674420479ae9eccb733dbfc5efc7",
        "curve-1.csv": "40c7be95166d4e7ac0f422b60df17887a43ad6367195eddbeca7d0d2894a38f8",
        "curve-mean.csv": "216dd0afcf8a89d6d7f09f626bf7f32995e3c00657bbf7dfe2a7e84ad9141b9e",
        "fit.json": "3935d85e28a4b6fadc93226aec068df5dd6d31e8859012ce799b86cbbf112e99",
        "summary.txt": "209e4b1e8f6fc53c01eb9befa8b38f74c23f4e3c3d15fccde804a24d287a6b55",
    },
}

# ``rates --checkpoints`` on the default_checkpoints run: its stdout, and the fit.json it rewrites (the same bytes)
RATES_CHECKPOINTS = "16,32,64,128,256,512,1024,2048"
RATES_GOLDEN = "89f600cc08cb401360bd0136faeace0adc4876776421adf7c7dbcd0e23bee7b1"


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_shape_outputs_match_golden_digests(shape, tmp_path):
    record, _ = run_config(resolve_config(SHAPES[shape]), tmp_path)
    assert output_digests(Path(record.out_dir)) == SHAPES_GOLDEN[shape]


def test_rates_checkpoints_match_golden_digest(tmp_path):
    record, _ = run_config(resolve_config(SHAPES["default_checkpoints"]), tmp_path)
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert main(["rates", record.out_dir, "--checkpoints", RATES_CHECKPOINTS]) == 0
    assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == RATES_GOLDEN
    assert hashlib.sha256((Path(record.out_dir) / "fit.json").read_bytes()).hexdigest() == RATES_GOLDEN


# shaped like configs/gamma-sweep.json at short horizons; the middle cell fails at run time
SWEEP = {
    "horizon": 4096,
    "seeds": [0, 1],
    "drift": {"kind": "constant", "gamma": 0.01},
    "concept": {"eta": 0.1, "theta0": 0.5},
    "process": {"kind": "product"},
    "learner": {"kind": "constant_window"},
    "checkpoints": {"t_min": 16, "t_max": 4096},
    "sweep": {
        "cells": [
            {"drift.gamma": 0.001, "horizon": 8192},
            {"drift.gamma": 0.0031622776601683794, "horizon": 4096},
            {"drift.gamma": 0.01, "horizon": 4096},
        ]
    },
}
SWEEP_FAILING_GAMMA = 0.0031622776601683794

SWEEP_GOLDEN = {
    "sweep-03a46cb846f5.csv": "72fcab83144c4496dfd15bbb7fa58d51bc4ea0e054bad25af92c8de9486e97cd",
    "sweep-03a46cb846f5.failures.json": "7d2d1cceb4065e959b5f6cc440c4c7eaf9e2245b3bf0f7e87899baa7ee8d2a20",
}


def test_sweep_table_and_manifest_match_golden_digests(tmp_path, monkeypatch):
    real_run_config = harness_mod.run_config

    def failing_cell(resolved, out_root, jobs=1):
        if resolved["drift"]["gamma"] == SWEEP_FAILING_GAMMA:
            raise RuntimeError("cell failed on purpose")
        return real_run_config(resolved, out_root, jobs=jobs)

    monkeypatch.setattr(harness_mod, "run_config", failing_cell)
    record = run_sweep(json.loads(json.dumps(SWEEP)), tmp_path)
    assert len(record.failures) == 1
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("sweep-*")}
    assert digests == SWEEP_GOLDEN
