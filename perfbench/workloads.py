"""The benchmark's fixed workloads.

Each workload is one public-API call of driftlab, built from a workload seed:
the seed picks the replicate seeds of a simulate config, or the RNG seed of a
verification family.  The configs are copied here rather than read from
``configs/`` so that the measured work stays fixed when those files change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# the powers of two 16..16384 that run_verify("uniform_deviation") uses by default
M_GRID = [2**j for j in range(4, 15)]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "simulate" (run_config + refit_rates) or "verify" (run_verify)
    why: str
    base: dict = field(default_factory=dict)
    seeds_per_run: int = 1
    verify_trials: int = 0

    def seeds(self, seed: int) -> list[int]:
        """Replicate seeds of a simulate run: a block of consecutive integers."""
        first = seed * self.seeds_per_run
        return list(range(first, first + self.seeds_per_run))

    def config(self, seed: int) -> dict:
        return {**self.base, "seeds": self.seeds(seed)}

    def verify_options(self, seed: int) -> dict:
        return {"trials": self.verify_trials, "seed": seed, "m_grid": M_GRID}

    def steps(self, seed: int) -> int:
        """Work units of one run: exact-risk steps, or verification sample points."""
        if self.kind == "simulate":
            return self.seeds_per_run * self.base["horizon"]
        return 2 * self.verify_trials * sum(M_GRID)  # two marginal settings


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="markov_subsampled",
            kind="simulate",
            why="paper headline: Markov-modulated subsampled ERM; time in the per-step plan, small-sample ERM and the chain loop",
            # configs/markov-subsampled.json with two replicate seeds
            base={
                "horizon": 32768,
                "drift": {"kind": "power_step", "alpha": 0.25},
                "concept": {"eta": 0.1, "theta0": 0.5},
                "process": {"kind": "markov_modulated", "states": 4, "flip": 0.25},
                "learner": {"kind": "subsampled_erm", "alpha": 0.25, "r": 2.0},
                "checkpoints": {"t_min": 1024, "t_max": 32768, "ratio": 1.4142135623730951},
            },
            seeds_per_run=2,
        ),
        Workload(
            name="constant_window_long",
            kind="simulate",
            why="gamma=1e-4 cell of the gamma sweep: no plan work, 465-point ERM sorts and 100k-row CSV write and read",
            # the {"drift.gamma": 0.0001, "horizon": 100000} cell of configs/gamma-sweep.json
            base={
                "horizon": 100000,
                "drift": {"kind": "constant", "gamma": 0.0001},
                "concept": {"eta": 0.1, "theta0": 0.5},
                "process": {"kind": "product"},
                "learner": {"kind": "constant_window"},
            },
            seeds_per_run=1,
        ),
        Workload(
            name="verify_uniform_deviation",
            kind="verify",
            why="exact sup-deviation verification with reduced trials: uses none of the simulate layers",
            verify_trials=100,
        ),
    )
}
